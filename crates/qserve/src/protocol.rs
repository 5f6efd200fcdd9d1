//! The line-delimited wire protocol.
//!
//! Every frame is one text line: an uppercase verb, a run of
//! `key=value` fields separated by single spaces, and a terminating
//! `\n`. The **last** field of a frame may be free-form (`qasm=` or
//! `msg=`): its value runs to the end of the line, so QASM payloads
//! travel unescaped — [`qcir::qasm::to_qasm_line`] guarantees the text
//! is newline-free, and [`encode`](Frame::encode) replaces any stray
//! `\n`/`\r` with spaces (harmless to QASM, whose statements are
//! `;`-terminated).
//!
//! Client → server:
//!
//! ```text
//! HELLO version=2
//! SUBMIT id=7 engine=sharded:2 iters=4000 time_ms=0 seed=11 eps=1e-8 objective=gates qasm=OPENQASM 2.0; ...
//! CANCEL id=7
//! RESUME id=7
//! EDIT id=7 delta=CD1 b=92 n=93 -@14+h:2 ...
//! STATS
//! SHUTDOWN
//! ```
//!
//! Server → client:
//!
//! ```text
//! HELLO version=2
//! ACCEPTED id=7
//! SNAPSHOT id=7 cost=118 eps=0 iters=0 seconds=0 qasm=OPENQASM 2.0; ...
//! DELTA id=7 seq=3 cost=104 eps=0 iters=311 seconds=0.2 delta=CD1 b=118 n=104 -4,9@4+ ...
//! CERTIFIED id=7 coverage=0.96 windows=12 budget=96
//! DONE id=7 cost=92 eps=0 iters=4000 accepted=31 resynth=3 cache_hits=2 cache_misses=1 queue_ms=4 run_ms=480 fast_ms=450 slow_ms=30 cancelled=0 qasm=OPENQASM 2.0; ...
//! STATSOK jobs=4 fast_s=1.5 slow_s=0.25 rule=10 fusion=4 commutation=3 cleanup=2 resynth=1 cache_hits=6 cache_misses=2 cert_windows=12 cert_invalidated=3 cert_skips=40
//! ERROR id=7 msg=unknown gate `foo`
//! ```
//!
//! (`cache_hits`/`cache_misses` report the job's traffic against the
//! server's shared resynthesis memo cache; they parse as 0 when absent,
//! so frames from pre-cache servers remain readable. The same contract
//! covers the telemetry fields added later: `queue_ms`/`run_ms` are the
//! job's queue-wait and run wall times, `fast_ms`/`slow_ms` its
//! fast-rewrite vs slow-resynthesis time split — all parse as 0 when
//! absent. `STATS` is a v2 out-of-band probe like `HEALTH`: the
//! `STATSOK` reply is a cumulative [`StatsSnapshot`] of the server's
//! telemetry registry.)
//!
//! # Version negotiation (protocol v2)
//!
//! A client that opens with `HELLO version=N` negotiates
//! `min(N, 2)` (the server echoes the negotiated version back); a
//! session without a `HELLO` runs protocol **v1**, whose frames are
//! byte-identical to the pre-v2 releases (pinned by the golden
//! transcript in `tests/compat_v1.rs`). A v1 server answers `HELLO`
//! with an `ERROR` — clients should fall back to v1 on that.
//!
//! The difference is the improvement stream. **v1** peers get one full
//! `SNAPSHOT` per strict improvement — O(circuit) per frame. **v2**
//! peers get one `DELTA` frame per improvement — a
//! [`qcir::delta::CircuitDelta`] edit script from the *previous served
//! state* to the new best, O(edits) — punctuated by periodic full
//! `SNAPSHOT` checkpoints (the server's `--checkpoint-every` cadence),
//! so a stream is re-entrant from any checkpoint. `seq` numbers the
//! **delivered** `DELTA` frames of a job contiguously from 1
//! (checkpoints never consume a number): when backpressure drops any
//! frame, the server stops sending deltas — the chain is broken — and
//! resumes only after a full `SNAPSHOT` resynchronizes the client, so
//! a live session never observes a `seq` gap; a gap in a *recorded*
//! stream (a torn capture, a damaged journal) tells the reader to
//! discard state until the next `SNAPSHOT`. Applying each delta to the
//! previously reconstructed circuit reproduces the served best **bit
//! for bit** (the v2 differential suite asserts exactly this).
//!
//! `RESUME id=N` (v2, journaled servers only — `--journal-dir`) asks
//! the server to rebuild job `N`'s best-so-far from its append-only
//! journal and restart the search from there with the remaining
//! budget: the reply is a normal `ACCEPTED` + stream + `DONE` whose
//! final cost is never worse than the journaled best. Resuming an
//! already-finished job just replays its terminal `DONE`.
//!
//! `SUBMIT ... cert=1` (v2) asks for a local-optimality certificate:
//! the job runs on [`guoq::Engine::Certifying`] and may terminate
//! early once certified, emitting one `CERTIFIED` frame (coverage,
//! window count, probe budget) right before its `DONE`. Only the
//! serial engine certifies, so `cert=1` with `engine=sharded:<N>` is
//! refused with `ERROR code=bad-request` before any `ACCEPTED`.
//! `EDIT id=N delta=...` (v2, journaled servers, finished jobs only)
//! applies a client-supplied [`qcir::delta::CircuitDelta`] to job `N`'s
//! finished best, invalidates only the certificate windows the edit
//! dirties, and re-optimizes as a certified continuation job — the
//! stream is the usual `ACCEPTED` + deltas, ending in a fresh
//! `CERTIFIED` + `DONE`. Both verbs are v2-only; v1 sessions never see them (pinned
//! by the golden transcript).
//!
//! Semantics: one `ACCEPTED` per admitted job, then the improvement
//! stream — the first `SNAPSHOT` carries the input circuit
//! (best-so-far = input, at cost of the input), every subsequent
//! `SNAPSHOT`/`DELTA` a *strict* cost improvement — and one terminal
//! `DONE` (also sent for cancelled jobs, with `cancelled=1` and the
//! best circuit found before cancellation; the anytime contract).
//! Delivery is lossy under backpressure: a client that reads slower
//! than the search improves may miss intermediate improvements (the
//! ones it gets are still strictly improving, v2 resynchronizes via
//! checkpoints as above, and `DONE` always carries the final best); a
//! client that stops reading entirely may also forfeit its `DONE`
//! after a grace period. Job ids are scoped per connection. Rejected
//! submissions get a single `ERROR` and no `DONE`. One shutdown edge
//! case: a job admitted while the server begins draining can see
//! `ACCEPTED` followed by `ERROR` (and no `DONE`) — clients should
//! treat an `ERROR` carrying their job id as terminal in every state.
//!
//! The codec is split into [`Frame::encode`] / [`Frame::parse`] plus an
//! incremental [`FrameDecoder`] that accepts arbitrary byte chunks — a
//! TCP read may split a frame anywhere, including mid-UTF-8 — and
//! yields complete frames only. The property tests in
//! `tests/codec.rs` prove any frame sequence survives
//! encode → split-at-arbitrary-boundaries → decode.

use std::error::Error;
use std::fmt;

/// Upper bound on one frame line (decoder guard): a line that exceeds
/// this without a `\n` poisons the decoder (every subsequent push
/// returns an error) rather than growing the buffer without bound.
pub const MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

/// Highest protocol version this build speaks. `HELLO` negotiates
/// `min(client, PROTOCOL_VERSION)`; sessions without a `HELLO` run v1.
pub const PROTOCOL_VERSION: u32 = 2;

/// Which iteration engine a job asks for. The wire also accepts
/// `engine=clone-rebuild`, the name of a retired serial engine, as an
/// alias of `serial`, so older clients and journals keep working.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineSel {
    /// The serial engine (`Engine::Serial`, or `Engine::Certifying`
    /// with `cert=1`).
    Serial,
    /// The sharded parallel engine with this many workers.
    Sharded(usize),
}

/// The optimization objective of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Total gate count.
    GateCount,
    /// Multi-qubit gate count (the NISQ objective).
    TwoQubitCount,
}

/// A `SUBMIT` frame: one optimization job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Client-chosen job id; must be unique among the client's live jobs.
    pub id: u64,
    /// Iteration engine.
    pub engine: EngineSel,
    /// Iteration budget; `0` means "no iteration budget" (wall-clock
    /// only). Iteration-budgeted jobs are deterministic per seed.
    pub iters: u64,
    /// Wall-clock budget in milliseconds; `0` means "server default".
    /// The server clamps this to its `max_time_ms` and enforces it even
    /// for iteration-budgeted jobs (timeout watchdog).
    pub time_ms: u64,
    /// RNG seed.
    pub seed: u64,
    /// Global approximation tolerance `ε_f`.
    pub eps: f64,
    /// Objective to minimize.
    pub objective: Objective,
    /// Explicit consent to overwrite an existing **unfinished**
    /// journal for this id (journaled servers refuse otherwise — see
    /// [`crate::journal::JobJournal::create`]). Encoded as
    /// `overwrite=1` only when set, so v1 frames are unchanged.
    pub overwrite: bool,
    /// Run with local-optimality certification
    /// ([`guoq::Engine::Certifying`]; serial engine only): the job may
    /// terminate early once certified and emits a [`Frame::Certified`]
    /// before its `DONE`.
    /// Encoded as `cert=1` only when set, so v1 frames are unchanged.
    pub certify: bool,
    /// The circuit, as (single-line) OpenQASM 2.0.
    pub qasm: String,
}

/// A `DONE` frame: the terminal result of a job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// Job id.
    pub id: u64,
    /// Final best cost.
    pub cost: f64,
    /// Accumulated ε of the best circuit.
    pub epsilon: f64,
    /// Iterations performed.
    pub iterations: u64,
    /// Accepted moves.
    pub accepted: u64,
    /// Resynthesis hits.
    pub resynth_hits: u64,
    /// Resynthesis calls served from the server's shared memo cache
    /// (0 when the cache is disabled).
    pub cache_hits: u64,
    /// Resynthesis calls that consulted the cache and fell back to
    /// fresh synthesis.
    pub cache_misses: u64,
    /// Milliseconds the job waited in the admission queue before a
    /// worker slot picked it up (the head-of-line-blocking signal).
    /// Parses as 0 from pre-telemetry peers.
    pub queue_ms: u64,
    /// Milliseconds the job spent running on its worker slot.
    pub run_ms: u64,
    /// Milliseconds of `run_ms` attributed to fast rewrites (the
    /// remainder of the run outside timed slow-resynthesis spans);
    /// 0 when the server runs with telemetry disabled.
    pub fast_ms: u64,
    /// Milliseconds of `run_ms` spent inside slow numerical
    /// resynthesis; 0 when telemetry is disabled.
    pub slow_ms: u64,
    /// True when the job was cancelled (CANCEL frame, client
    /// disconnect, or timeout); the result is still the valid
    /// best-so-far.
    pub cancelled: bool,
    /// The best circuit, as single-line QASM.
    pub qasm: String,
}

/// A `STATSOK` frame: a point-in-time snapshot of the server's
/// telemetry registry, answered out of band of any job (like
/// [`Frame::Healthy`]). Cumulative since server start.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Jobs completed (including cancelled ones, which still produce a
    /// terminal `DONE`).
    pub jobs_done: u64,
    /// Cumulative seconds of fast-rewrite search time across all jobs
    /// (0.0 when the server runs with telemetry disabled).
    pub fast_s: f64,
    /// Cumulative seconds inside slow numerical resynthesis.
    pub slow_s: f64,
    /// Accepted moves per transformation family, in
    /// [`qtrace::Family::ALL`] order (rule, fusion, commutation,
    /// cleanup, resynth). Tallied even when span timing is disabled.
    pub accepts: [u64; qtrace::FAMILY_COUNT],
    /// Hits against the shared resynthesis memo cache.
    pub cache_hits: u64,
    /// Misses against the shared resynthesis memo cache.
    pub cache_misses: u64,
    /// Windows stamped locally optimal across all certified jobs
    /// (`qcert_windows_certified_total`).
    pub cert_windows: u64,
    /// Certificate stamps cleared by overlapping edits
    /// (`qcert_windows_invalidated_total`).
    pub cert_invalidated: u64,
    /// Anchor draws redrawn away from certified windows
    /// (`qcert_anchor_skips_total`).
    pub cert_skips: u64,
}

/// One protocol frame (either direction).
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Version negotiation: the client proposes, the server echoes the
    /// negotiated `min(proposed, `[`PROTOCOL_VERSION`]`)`. Absent a
    /// `HELLO`, the session runs protocol v1.
    Hello {
        /// Proposed (client→server) or negotiated (server→client)
        /// protocol version.
        version: u32,
    },
    /// Client: submit a job.
    Submit(JobRequest),
    /// Client: cancel a queued or running job.
    Cancel {
        /// Job id to cancel.
        id: u64,
    },
    /// Client (v2, journaled servers): rebuild job `id` from its
    /// journal and restart the search from the journaled best with the
    /// remaining budget.
    Resume {
        /// Journaled job id to resume.
        id: u64,
    },
    /// Client (v2, journaled servers): apply an edit script to job
    /// `id`'s **finished** best and re-optimize only what the edit
    /// dirties, seeding the continuation with the job's certificate
    /// rebased over the script.
    Edit {
        /// Finished journaled job id to edit.
        id: u64,
        /// The encoded [`qcir::delta::CircuitDelta`] from the job's
        /// final best to the client's edited circuit (free-form tail
        /// field).
        delta: String,
    },
    /// Client: drain and stop (stdio transport; over TCP, closing the
    /// connection has the same per-client effect).
    Shutdown,
    /// Liveness and capacity probe (v2). A healthy server answers
    /// [`Frame::Healthy`] out of band of any job.
    Health,
    /// Reply to [`Frame::Health`].
    Healthy {
        /// Jobs currently running or queued.
        live: u64,
        /// Free worker slots.
        slots: u64,
    },
    /// Telemetry probe (v2): ask the server for a
    /// [`StatsSnapshot`]. Answered out of band of any job.
    Stats,
    /// Reply to [`Frame::Stats`].
    StatsReply(StatsSnapshot),
    /// Server: job admitted to the queue.
    Accepted {
        /// Job id.
        id: u64,
        /// Backing id this job is recorded under when it differs from
        /// `id` (`0` = same as `id`, which is all `qserve` sends).
        /// Encoded as `ref=` only when nonzero, so v1 frames are
        /// unchanged.
        ref_id: u64,
    },
    /// Server: a best-so-far snapshot (strict improvement stream).
    Snapshot {
        /// Job id.
        id: u64,
        /// Cost of this best-so-far circuit.
        cost: f64,
        /// Accumulated ε of this circuit.
        epsilon: f64,
        /// Iterations when the improvement landed.
        iterations: u64,
        /// Seconds since the job started.
        seconds: f64,
        /// The circuit, as single-line QASM.
        qasm: String,
    },
    /// Server (v2): a best-so-far improvement as an edit script against
    /// the previously served state (see the module docs for the
    /// checkpoint/resync contract).
    Delta {
        /// Job id.
        id: u64,
        /// 1-based improvement number within the job; a gap signals
        /// dropped frames (discard state until the next `SNAPSHOT`).
        seq: u64,
        /// Cost of the new best-so-far circuit.
        cost: f64,
        /// Accumulated ε of this circuit.
        epsilon: f64,
        /// Iterations when the improvement landed.
        iterations: u64,
        /// Seconds since the job started.
        seconds: f64,
        /// The encoded [`qcir::delta::CircuitDelta`] (free-form tail
        /// field; apply to the previously reconstructed circuit).
        delta: String,
    },
    /// Server (v2): a certification-enabled job completed its sweep —
    /// the run terminated early with a local-optimality certificate.
    /// Sent at most once, right before the job's `DONE`; the full
    /// certificate stays on the server (`job-<id>.cert`) for future
    /// `EDIT`s.
    Certified {
        /// Job id.
        id: u64,
        /// Fraction of gates covered by surviving stamps.
        coverage: f64,
        /// Surviving stamped windows.
        windows: u64,
        /// Probe attempts each window survived.
        budget: u64,
    },
    /// Server: terminal job result.
    Done(JobSummary),
    /// Server: the job (or frame) was rejected.
    Error {
        /// Offending job id (`0` when unattributable).
        id: u64,
        /// Machine-readable rejection class (see [`codes`]); empty for
        /// an untyped (pre-typed-error peer) rejection. Encoded as
        /// `code=` only when non-empty, so v1 frames are unchanged.
        code: String,
        /// Human-readable reason.
        message: String,
    },
}

/// The machine-readable `ERROR code=` values this build emits. A
/// client switching on codes must treat an unknown or absent code as
/// an untyped error — new codes may appear without a version bump.
pub mod codes {
    /// Malformed or unparsable request frame.
    pub const BAD_REQUEST: &str = "bad-request";
    /// Admission queue at capacity.
    pub const QUEUE_FULL: &str = "queue-full";
    /// The job's wall-clock budget expired before it could be admitted
    /// to a worker slot (per-job queue-wait deadline).
    pub const QUEUE_TIMEOUT: &str = "queue-timeout";
    /// The server is draining and accepts no new work.
    pub const DRAINING: &str = "draining";
    /// A journal could not be created, read, or replayed.
    pub const JOURNAL: &str = "journal";
    /// An existing unfinished journal blocks this id (resubmit with
    /// `overwrite=1` to consent to truncation).
    pub const JOURNAL_CONFLICT: &str = "journal-conflict";
    /// The job id collides with a live job.
    pub const ID_CONFLICT: &str = "id-conflict";
}

/// A malformed frame line.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "protocol error: {}", self.message)
    }
}

impl Error for ProtocolError {}

fn perr(message: impl Into<String>) -> ProtocolError {
    ProtocolError {
        message: message.into(),
    }
}

/// Replaces newline bytes so a free-form value cannot break framing.
/// Borrows on the (overwhelmingly common) clean path — snapshot
/// payloads from [`qcir::qasm::to_qasm_line`] are newline-free by
/// construction, and copying a multi-megabyte QASM string once per
/// streamed frame would be pure waste.
fn sanitize(s: &str) -> std::borrow::Cow<'_, str> {
    if s.contains('\n') || s.contains('\r') {
        std::borrow::Cow::Owned(s.replace(['\n', '\r'], " "))
    } else {
        std::borrow::Cow::Borrowed(s)
    }
}

impl EngineSel {
    fn encode(&self) -> String {
        match *self {
            EngineSel::Serial => "serial".into(),
            EngineSel::Sharded(w) => format!("sharded:{w}"),
        }
    }

    fn parse(s: &str) -> Result<Self, ProtocolError> {
        match s {
            "serial" | "clone-rebuild" => Ok(EngineSel::Serial),
            _ => match s.strip_prefix("sharded:") {
                Some(w) => Ok(EngineSel::Sharded(
                    w.parse().map_err(|_| perr("bad worker count"))?,
                )),
                None => Err(perr(format!("unknown engine `{s}`"))),
            },
        }
    }
}

impl Objective {
    fn encode(&self) -> &'static str {
        match self {
            Objective::GateCount => "gates",
            Objective::TwoQubitCount => "2q",
        }
    }

    fn parse(s: &str) -> Result<Self, ProtocolError> {
        match s {
            "gates" => Ok(Objective::GateCount),
            "2q" => Ok(Objective::TwoQubitCount),
            _ => Err(perr(format!("unknown objective `{s}`"))),
        }
    }
}

impl Frame {
    /// Serializes the frame as one line, including the trailing `\n`.
    pub fn encode(&self) -> String {
        match self {
            Frame::Submit(r) => format!(
                "SUBMIT id={} engine={} iters={} time_ms={} seed={} eps={} objective={}{}{} qasm={}\n",
                r.id,
                r.engine.encode(),
                r.iters,
                r.time_ms,
                r.seed,
                r.eps,
                r.objective.encode(),
                if r.overwrite { " overwrite=1" } else { "" },
                if r.certify { " cert=1" } else { "" },
                sanitize(&r.qasm),
            ),
            Frame::Hello { version } => format!("HELLO version={version}\n"),
            Frame::Cancel { id } => format!("CANCEL id={id}\n"),
            Frame::Resume { id } => format!("RESUME id={id}\n"),
            Frame::Edit { id, delta } => {
                format!("EDIT id={id} delta={}\n", sanitize(delta))
            }
            Frame::Certified {
                id,
                coverage,
                windows,
                budget,
            } => format!("CERTIFIED id={id} coverage={coverage} windows={windows} budget={budget}\n"),
            Frame::Shutdown => "SHUTDOWN\n".to_string(),
            Frame::Health => "HEALTH\n".to_string(),
            Frame::Healthy { live, slots } => format!("HEALTHY live={live} slots={slots}\n"),
            Frame::Stats => "STATS\n".to_string(),
            Frame::StatsReply(s) => format!(
                "STATSOK jobs={} fast_s={} slow_s={} rule={} fusion={} commutation={} cleanup={} resynth={} cache_hits={} cache_misses={} cert_windows={} cert_invalidated={} cert_skips={}\n",
                s.jobs_done,
                s.fast_s,
                s.slow_s,
                s.accepts[0],
                s.accepts[1],
                s.accepts[2],
                s.accepts[3],
                s.accepts[4],
                s.cache_hits,
                s.cache_misses,
                s.cert_windows,
                s.cert_invalidated,
                s.cert_skips,
            ),
            Frame::Accepted { id, ref_id } => {
                if *ref_id == 0 {
                    format!("ACCEPTED id={id}\n")
                } else {
                    format!("ACCEPTED id={id} ref={ref_id}\n")
                }
            }
            Frame::Snapshot {
                id,
                cost,
                epsilon,
                iterations,
                seconds,
                qasm,
            } => format!(
                "SNAPSHOT id={id} cost={cost} eps={epsilon} iters={iterations} seconds={seconds} qasm={}\n",
                sanitize(qasm),
            ),
            Frame::Delta {
                id,
                seq,
                cost,
                epsilon,
                iterations,
                seconds,
                delta,
            } => format!(
                "DELTA id={id} seq={seq} cost={cost} eps={epsilon} iters={iterations} seconds={seconds} delta={}\n",
                sanitize(delta),
            ),
            Frame::Done(s) => format!(
                "DONE id={} cost={} eps={} iters={} accepted={} resynth={} cache_hits={} cache_misses={} queue_ms={} run_ms={} fast_ms={} slow_ms={} cancelled={} qasm={}\n",
                s.id,
                s.cost,
                s.epsilon,
                s.iterations,
                s.accepted,
                s.resynth_hits,
                s.cache_hits,
                s.cache_misses,
                s.queue_ms,
                s.run_ms,
                s.fast_ms,
                s.slow_ms,
                u8::from(s.cancelled),
                sanitize(&s.qasm),
            ),
            Frame::Error { id, code, message } => {
                if code.is_empty() {
                    format!("ERROR id={id} msg={}\n", sanitize(message))
                } else {
                    format!(
                        "ERROR id={id} code={} msg={}\n",
                        sanitize(code),
                        sanitize(message)
                    )
                }
            }
        }
    }

    /// Parses one frame line (without the trailing newline).
    pub fn parse(line: &str) -> Result<Frame, ProtocolError> {
        let line = line.trim_end_matches('\r');
        let (verb, rest) = match line.find(' ') {
            Some(i) => (&line[..i], &line[i + 1..]),
            None => (line, ""),
        };
        let kv = KvFields::parse(rest)?;
        match verb {
            "SUBMIT" => Ok(Frame::Submit(JobRequest {
                id: kv.u64("id")?,
                engine: EngineSel::parse(kv.str("engine")?)?,
                iters: kv.u64("iters")?,
                time_ms: kv.u64("time_ms")?,
                seed: kv.u64("seed")?,
                eps: kv.f64("eps")?,
                objective: Objective::parse(kv.str("objective")?)?,
                overwrite: kv.u64_or("overwrite", 0)? != 0,
                certify: kv.u64_or("cert", 0)? != 0,
                qasm: kv.str("qasm")?.to_string(),
            })),
            "HELLO" => Ok(Frame::Hello {
                version: kv.u64("version")? as u32,
            }),
            "CANCEL" => Ok(Frame::Cancel { id: kv.u64("id")? }),
            "RESUME" => Ok(Frame::Resume { id: kv.u64("id")? }),
            "EDIT" => Ok(Frame::Edit {
                id: kv.u64("id")?,
                delta: kv.str("delta")?.to_string(),
            }),
            "CERTIFIED" => Ok(Frame::Certified {
                id: kv.u64("id")?,
                coverage: kv.f64("coverage")?,
                windows: kv.u64("windows")?,
                budget: kv.u64("budget")?,
            }),
            "SHUTDOWN" => Ok(Frame::Shutdown),
            "HEALTH" => Ok(Frame::Health),
            "HEALTHY" => Ok(Frame::Healthy {
                live: kv.u64("live")?,
                slots: kv.u64("slots")?,
            }),
            "STATS" => Ok(Frame::Stats),
            "STATSOK" => Ok(Frame::StatsReply(StatsSnapshot {
                jobs_done: kv.u64("jobs")?,
                fast_s: kv.f64_or("fast_s", 0.0)?,
                slow_s: kv.f64_or("slow_s", 0.0)?,
                accepts: [
                    kv.u64_or("rule", 0)?,
                    kv.u64_or("fusion", 0)?,
                    kv.u64_or("commutation", 0)?,
                    kv.u64_or("cleanup", 0)?,
                    kv.u64_or("resynth", 0)?,
                ],
                cache_hits: kv.u64_or("cache_hits", 0)?,
                cache_misses: kv.u64_or("cache_misses", 0)?,
                cert_windows: kv.u64_or("cert_windows", 0)?,
                cert_invalidated: kv.u64_or("cert_invalidated", 0)?,
                cert_skips: kv.u64_or("cert_skips", 0)?,
            })),
            "ACCEPTED" => Ok(Frame::Accepted {
                id: kv.u64("id")?,
                ref_id: kv.u64_or("ref", 0)?,
            }),
            "SNAPSHOT" => Ok(Frame::Snapshot {
                id: kv.u64("id")?,
                cost: kv.f64("cost")?,
                epsilon: kv.f64("eps")?,
                iterations: kv.u64("iters")?,
                seconds: kv.f64("seconds")?,
                qasm: kv.str("qasm")?.to_string(),
            }),
            "DELTA" => Ok(Frame::Delta {
                id: kv.u64("id")?,
                seq: kv.u64("seq")?,
                cost: kv.f64("cost")?,
                epsilon: kv.f64("eps")?,
                iterations: kv.u64("iters")?,
                seconds: kv.f64("seconds")?,
                delta: kv.str("delta")?.to_string(),
            }),
            "DONE" => Ok(Frame::Done(JobSummary {
                id: kv.u64("id")?,
                cost: kv.f64("cost")?,
                epsilon: kv.f64("eps")?,
                iterations: kv.u64("iters")?,
                accepted: kv.u64("accepted")?,
                resynth_hits: kv.u64("resynth")?,
                // Optional for wire compatibility with pre-cache peers.
                cache_hits: kv.u64_or("cache_hits", 0)?,
                cache_misses: kv.u64_or("cache_misses", 0)?,
                // Optional likewise for pre-telemetry peers.
                queue_ms: kv.u64_or("queue_ms", 0)?,
                run_ms: kv.u64_or("run_ms", 0)?,
                fast_ms: kv.u64_or("fast_ms", 0)?,
                slow_ms: kv.u64_or("slow_ms", 0)?,
                cancelled: kv.u64("cancelled")? != 0,
                qasm: kv.str("qasm")?.to_string(),
            })),
            "ERROR" => Ok(Frame::Error {
                id: kv.u64("id")?,
                code: kv.str_or("code", "").to_string(),
                message: kv.str("msg")?.to_string(),
            }),
            other => Err(perr(format!("unknown verb `{other}`"))),
        }
    }
}

/// The parsed `key=value` fields of one frame line. Free-form keys
/// (`qasm`, `msg`) swallow the rest of the line.
struct KvFields<'a> {
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> KvFields<'a> {
    fn parse(mut rest: &'a str) -> Result<Self, ProtocolError> {
        let mut fields = Vec::new();
        while !rest.is_empty() {
            let eq = rest
                .find('=')
                .ok_or_else(|| perr(format!("expected key=value, got `{rest}`")))?;
            let key = &rest[..eq];
            if key.contains(' ') {
                return Err(perr(format!("malformed field near `{key}`")));
            }
            let after = &rest[eq + 1..];
            if key == "qasm" || key == "msg" || key == "delta" {
                // Free-form tail: everything to end of line.
                fields.push((key, after));
                rest = "";
            } else {
                let (value, tail) = match after.find(' ') {
                    Some(i) => (&after[..i], &after[i + 1..]),
                    None => (after, ""),
                };
                fields.push((key, value));
                rest = tail;
            }
        }
        Ok(KvFields { fields })
    }

    /// Like [`Self::str`] but tolerating an absent key.
    fn str_or(&self, key: &str, default: &'a str) -> &'a str {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .unwrap_or(default)
    }

    fn str(&self, key: &str) -> Result<&'a str, ProtocolError> {
        self.fields
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .ok_or_else(|| perr(format!("missing field `{key}`")))
    }

    fn u64(&self, key: &str) -> Result<u64, ProtocolError> {
        self.str(key)?
            .parse()
            .map_err(|_| perr(format!("bad integer in `{key}`")))
    }

    /// Like [`Self::u64`] but tolerating an absent key (fields added to
    /// the protocol after its first release parse with a default, so an
    /// old peer's frames stay readable).
    fn u64_or(&self, key: &str, default: u64) -> Result<u64, ProtocolError> {
        if self.fields.iter().any(|(k, _)| *k == key) {
            self.u64(key)
        } else {
            Ok(default)
        }
    }

    fn f64(&self, key: &str) -> Result<f64, ProtocolError> {
        self.str(key)?
            .parse()
            .map_err(|_| perr(format!("bad number in `{key}`")))
    }

    /// Like [`Self::f64`] but tolerating an absent key (same
    /// forward-compatibility contract as [`Self::u64_or`]).
    fn f64_or(&self, key: &str, default: f64) -> Result<f64, ProtocolError> {
        if self.fields.iter().any(|(k, _)| *k == key) {
            self.f64(key)
        } else {
            Ok(default)
        }
    }
}

/// An incremental frame decoder: feed it byte chunks of any size (a
/// TCP read may split a line anywhere, including inside a multi-byte
/// character) and it yields exactly the frames whose terminating `\n`
/// has arrived. Blank lines are ignored; a malformed line yields an
/// `Err` for that line and decoding continues with the next.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Prefix of `buf` already scanned and known newline-free, so each
    /// `push` resumes where the last one stopped — without this, a
    /// large frame arriving in small chunks would rescan the whole
    /// pending buffer per chunk (quadratic in the frame length).
    scanned: usize,
    poisoned: bool,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends `chunk` and drains every complete line as a parsed
    /// frame (or per-line parse error).
    pub fn push(&mut self, chunk: &[u8]) -> Vec<Result<Frame, ProtocolError>> {
        let mut out = Vec::new();
        if self.poisoned {
            out.push(Err(perr("decoder poisoned by an oversized line")));
            return out;
        }
        self.buf.extend_from_slice(chunk);
        let mut start = 0usize;
        let mut search_from = self.scanned;
        while let Some(rel) = self.buf[search_from..].iter().position(|&b| b == b'\n') {
            let nl = search_from + rel;
            let line = &self.buf[start..nl];
            start = nl + 1;
            search_from = start;
            if line.is_empty() {
                continue;
            }
            match std::str::from_utf8(line) {
                Ok(text) if text.trim().is_empty() => {}
                Ok(text) => out.push(Frame::parse(text)),
                Err(_) => out.push(Err(perr("frame is not valid UTF-8"))),
            }
        }
        self.buf.drain(..start);
        self.scanned = self.buf.len(); // the remainder holds no newline
        if self.buf.len() > MAX_LINE_BYTES {
            self.poisoned = true;
            self.buf = Vec::new();
            self.scanned = 0;
            out.push(Err(perr("line exceeds MAX_LINE_BYTES")));
        }
        out
    }

    /// Bytes buffered waiting for a newline (diagnostics).
    pub fn pending_bytes(&self) -> usize {
        self.buf.len()
    }

    /// True once an oversized line has permanently poisoned this
    /// decoder; a transport should close the session rather than keep
    /// feeding it.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello { version: 2 },
            Frame::Resume { id: 7 },
            Frame::Edit {
                id: 7,
                delta: "CD1 b=92 n=93 -@14+h:2".into(),
            },
            Frame::Certified {
                id: 7,
                coverage: 0.96,
                windows: 12,
                budget: 96,
            },
            Frame::Delta {
                id: 7,
                seq: 3,
                cost: 104.0,
                epsilon: 1e-9,
                iterations: 311,
                seconds: 0.25,
                delta: "CD1 b=118 n=104 -4,9@4+ -12@12+h:0;cx:0,1".into(),
            },
            Frame::Submit(JobRequest {
                id: 7,
                engine: EngineSel::Sharded(3),
                iters: 4000,
                time_ms: 0,
                seed: 11,
                eps: 1e-8,
                objective: Objective::GateCount,
                overwrite: false,
                certify: false,
                qasm: "OPENQASM 2.0; include \"qelib1.inc\"; qreg q[2]; h q[0]; cx q[0],q[1];"
                    .into(),
            }),
            Frame::Submit(JobRequest {
                id: 8,
                engine: EngineSel::Serial,
                iters: 100_000,
                time_ms: 0,
                seed: 3,
                eps: 1e-8,
                objective: Objective::TwoQubitCount,
                overwrite: true,
                certify: true,
                qasm: "OPENQASM 2.0; qreg q[1]; x q[0];".into(),
            }),
            Frame::Cancel { id: 7 },
            Frame::Shutdown,
            Frame::Health,
            Frame::Healthy { live: 3, slots: 1 },
            Frame::Stats,
            Frame::StatsReply(StatsSnapshot {
                jobs_done: 4,
                fast_s: 1.5,
                slow_s: 0.25,
                accepts: [10, 4, 3, 2, 1],
                cache_hits: 6,
                cache_misses: 2,
                cert_windows: 12,
                cert_invalidated: 3,
                cert_skips: 40,
            }),
            Frame::Accepted { id: 7, ref_id: 0 },
            Frame::Accepted { id: 7, ref_id: 41 },
            Frame::Snapshot {
                id: 7,
                cost: 118.0,
                epsilon: 0.0,
                iterations: 42,
                seconds: 0.125,
                qasm: "OPENQASM 2.0; qreg q[1];".into(),
            },
            Frame::Done(JobSummary {
                id: 7,
                cost: 92.5,
                epsilon: 1e-9,
                iterations: 4000,
                accepted: 31,
                resynth_hits: 2,
                cache_hits: 1,
                cache_misses: 1,
                queue_ms: 12,
                run_ms: 480,
                fast_ms: 450,
                slow_ms: 30,
                cancelled: true,
                qasm: "OPENQASM 2.0; qreg q[1]; x q[0];".into(),
            }),
            Frame::Error {
                id: 0,
                code: String::new(),
                message: "unknown verb `HELLO`".into(),
            },
            Frame::Error {
                id: 9,
                code: codes::QUEUE_TIMEOUT.into(),
                message: "queue-wait deadline expired".into(),
            },
        ]
    }

    #[test]
    fn encode_parse_roundtrip() {
        for f in sample_frames() {
            let line = f.encode();
            assert!(line.ends_with('\n'));
            assert_eq!(line.matches('\n').count(), 1, "{line:?}");
            let back = Frame::parse(line.trim_end_matches('\n')).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn decoder_handles_byte_at_a_time() {
        let frames = sample_frames();
        let wire: Vec<u8> = frames
            .iter()
            .flat_map(|f| f.encode().into_bytes())
            .collect();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in wire {
            for r in dec.push(&[b]) {
                got.push(r.unwrap());
            }
        }
        assert_eq!(got, frames);
        assert_eq!(dec.pending_bytes(), 0);
    }

    #[test]
    fn newlines_in_free_form_fields_cannot_break_framing() {
        let f = Frame::Error {
            id: 3,
            code: String::new(),
            message: "multi\nline\r\nmessage".into(),
        };
        let line = f.encode();
        assert_eq!(line.matches('\n').count(), 1);
        match Frame::parse(line.trim_end_matches('\n')).unwrap() {
            Frame::Error { message, .. } => assert_eq!(message, "multi line  message"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn done_without_cache_fields_parses_with_zeroes() {
        // A pre-cache server's DONE line must stay readable.
        let f = Frame::parse(
            "DONE id=3 cost=10 eps=0 iters=100 accepted=5 resynth=2 cancelled=0 qasm=OPENQASM 2.0; qreg q[1];",
        )
        .unwrap();
        match f {
            Frame::Done(s) => {
                assert_eq!((s.cache_hits, s.cache_misses), (0, 0));
                assert_eq!((s.queue_ms, s.run_ms, s.fast_ms, s.slow_ms), (0, 0, 0, 0));
                assert_eq!(s.resynth_hits, 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn statsok_without_optional_fields_parses_with_zeroes() {
        // A reply from a build with fewer registry series must stay
        // readable: everything but `jobs=` defaults.
        let f = Frame::parse("STATSOK jobs=3").unwrap();
        match f {
            Frame::StatsReply(s) => {
                assert_eq!(s.jobs_done, 3);
                assert_eq!(s.accepts, [0; 5]);
                assert_eq!((s.fast_s, s.slow_s), (0.0, 0.0));
                assert_eq!(
                    (s.cert_windows, s.cert_invalidated, s.cert_skips),
                    (0, 0, 0)
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn submit_without_cert_field_parses_uncertified() {
        // A pre-certification client's SUBMIT must stay readable, and
        // the cert flag must not appear unless set (v1 byte stability).
        let f = Frame::parse(
            "SUBMIT id=1 engine=serial iters=10 time_ms=0 seed=0 eps=0 objective=gates qasm=OPENQASM 2.0; qreg q[1];",
        )
        .unwrap();
        match f {
            Frame::Submit(r) => assert!(!r.certify),
            other => panic!("unexpected {other:?}"),
        }
        let plain = Frame::Submit(JobRequest {
            id: 1,
            engine: EngineSel::Serial,
            iters: 10,
            time_ms: 0,
            seed: 0,
            eps: 0.0,
            objective: Objective::GateCount,
            overwrite: false,
            certify: false,
            qasm: "OPENQASM 2.0; qreg q[1];".into(),
        });
        assert!(!plain.encode().contains("cert="));
    }

    #[test]
    fn clone_rebuild_spelling_parses_as_serial() {
        // The retired serial engine's wire name stays an alias of
        // `serial`: old clients can submit with it and old journals
        // (whose first line is the SUBMIT) can still be replayed.
        let line = "SUBMIT id=3 engine=clone-rebuild iters=10 time_ms=0 seed=5 eps=0 objective=gates qasm=OPENQASM 2.0; qreg q[1];";
        match Frame::parse(line).unwrap() {
            Frame::Submit(r) => {
                assert_eq!(r.engine, EngineSel::Serial);
                assert_eq!((r.id, r.iters, r.seed), (3, 10, 5));
                // Re-encoding uses the canonical spelling.
                assert!(Frame::Submit(r).encode().contains(" engine=serial "));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(Frame::parse(&line.replace("clone-rebuild", "clone")).is_err());
    }

    #[test]
    fn malformed_lines_error_and_decoding_continues() {
        let mut dec = FrameDecoder::new();
        let got = dec.push(b"NONSENSE\nACCEPTED id=4\nSUBMIT id=x\n");
        assert_eq!(got.len(), 3);
        assert!(got[0].is_err());
        assert_eq!(got[1], Ok(Frame::Accepted { id: 4, ref_id: 0 }));
        assert!(got[2].is_err());
    }

    #[test]
    fn blank_lines_are_ignored() {
        let mut dec = FrameDecoder::new();
        let got = dec.push(b"\n\r\nACCEPTED id=1\n\n");
        assert_eq!(got, vec![Ok(Frame::Accepted { id: 1, ref_id: 0 })]);
    }
}
