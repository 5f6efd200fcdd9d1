//! The job manager: admission, scheduling, streaming, cancellation.
//!
//! A [`Server`] multiplexes many concurrent jobs onto a bounded
//! **worker budget** (a count of concurrent search threads, the
//! service's scarce resource). A serial job occupies one slot; a
//! `sharded:N` job asks for `N`. Admission is FIFO and
//! work-conserving: whenever at least one slot is free, the queue head
//! starts, granted `min(N, free)` slots, and no *live* job overtakes it
//! (no starvation; deterministic admission order). A `sharded:N` job
//! granted fewer than `N` slots runs its unchanged `N`-worker shard
//! plan on that many `qpar` pool threads, so an iteration-budgeted job
//! on a server without the shared cache serves the circuit the full
//! grant would (see [`guoq::Engine::Sharded`]);
//! `qserve_partial_grants_total` counts such starts. The grant is fixed for the job's life and does not grow
//! when slots free up: under a steady stream the next narrow job
//! arrives within milliseconds of a `DONE`, and a wide job that grew
//! into those slots would bring back the head-of-line wait this rule
//! removes. A job wider than the whole budget is still refused at
//! submission. Already-cancelled queued jobs are swept out of the
//! queue at once, wherever they sit, without waiting for a slot.
//!
//! Job ids are scoped **per connection** ([`Server::handle`] opens a
//! scope): independent clients neither collide on ids nor can cancel
//! each other's jobs.
//!
//! Each job runs [`guoq::Guoq::optimize_events`] on its own thread —
//! the event-sourced core API. Every [`guoq::OptEvent::Improved`] is
//! streamed to the client's reply channel: a v1 peer gets one full
//! `SNAPSHOT` per improvement ([`qcir::qasm::to_qasm_line`]), a v2
//! peer gets the improvement's `DELTA` (the event's
//! [`qcir::delta::CircuitDelta`], O(edits) on the wire) punctuated by
//! periodic full-snapshot checkpoints — preceded in both protocols by
//! one initial snapshot of the input (best-so-far = input, the
//! stream's base checkpoint) and followed by one terminal `DONE`.
//! When the server journals ([`ServeOpts::journal_dir`]), the same
//! event stream is appended losslessly to the job's journal (fsync'd
//! at checkpoints and DONE) and the `RESUME` frame rebuilds
//! best-so-far from it and restarts the search with the remaining
//! budget. Improvement delivery never blocks the search (see
//! [`send_snapshot`]): a backlogged client misses intermediate
//! improvements rather than parking the job thread — which would
//! defeat cancellation, the wall cap, and the slot accounting all at
//! once; a v2 delta chain broken by a drop escalates to a
//! full-snapshot resync ([`ImprovementStream`]).
//!
//! Cancellation is cooperative through [`guoq::CancelToken`] (see
//! `guoq::observe`): a `CANCEL` frame raises the job's token; a
//! **timeout watchdog** raises it once an iteration-budgeted job's
//! wall cap expires (so such jobs cannot hold slots forever;
//! time-budgeted jobs self-terminate); a dropped reply channel (client
//! disconnect) raises it from the next snapshot send — prompt while
//! the job is still improving, and bounded by the wall cap on a
//! plateau, since a job that stops improving stops sending. In every
//! case the job winds down within one iteration/epoch of the token
//! being raised and reports its best-so-far with `cancelled=1` — the
//! worker slots return to the pool, which stays fully reusable
//! (regression-tested in `tests/cancel.rs`).

use crate::journal::{self, JobJournal};
use crate::protocol::{
    codes, EngineSel, Frame, JobRequest, JobSummary, Objective, StatsSnapshot, PROTOCOL_VERSION,
};
use crossbeam_channel::Sender;
use guoq::cost::{CostFn, GateCount, TwoQubitCount};
use guoq::{Budget, CacheStats, CancelToken, Engine, Guoq, GuoqOpts, OptEvent, QCache};
use qcir::{qasm, Circuit, GateSet};
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Total concurrent search threads across all running jobs. A
    /// serial job costs 1 slot, a `sharded:N` job up to `N` (admission
    /// grants `min(N, free)`, see the module docs); a job wider than
    /// the whole budget is rejected at submission.
    pub worker_budget: usize,
    /// Maximum queued (admitted but not yet running) jobs; submissions
    /// beyond this are rejected with an `ERROR` frame (backpressure).
    pub max_queued: usize,
    /// Hard wall cap per job, in milliseconds. Applied to time-budgeted
    /// jobs as `min(requested, cap)` and to iteration-budgeted jobs via
    /// the timeout watchdog.
    pub max_time_ms: u64,
    /// Gate set whose rule corpus and resynthesizer serve the jobs.
    pub gate_set: GateSet,
    /// Probability of a resynthesis move per iteration (passed through
    /// to [`GuoqOpts`]; the paper's default when `None`).
    pub resynth_probability: Option<f64>,
    /// Gate budget of the process-wide resynthesis memo cache shared by
    /// every job this server runs (see [`guoq::QCache`]): repeated and
    /// similar submissions skip straight to verified cached
    /// replacements, so the service gets faster the longer it lives.
    /// `0` disables the cache — which also restores per-seed
    /// bit-for-bit reproducibility across submissions (a warm cache
    /// steers the stochastic search differently than a cold one; the
    /// differential suite pins this to 0 for exactly that reason).
    pub cache_gates: usize,
    /// Directory for append-only per-job journals (`--journal-dir`).
    /// When set, every admitted job logs its SUBMIT and lossless v2
    /// event stream (deltas + periodic checkpoints, fsync'd at each
    /// checkpoint and at DONE) to `job-<id>.journal`, and the `RESUME`
    /// frame can rebuild and restart a job after a server crash.
    /// Journals are keyed by the client-chosen job id alone, so
    /// journaled deployments should use globally unique ids. `None`
    /// (the default) disables journaling and `RESUME`.
    pub journal_dir: Option<PathBuf>,
    /// v2 streams and journals emit a full-circuit `SNAPSHOT`
    /// checkpoint every this-many improvements (deltas in between), so
    /// streams are re-entrant and journals replay from bounded suffix
    /// work. Clamped to ≥ 1.
    pub checkpoint_every: u64,
    /// Maximum milliseconds an admitted job may wait in the queue
    /// before admission gives up on it: the job is retracted and the
    /// client gets a typed `ERROR code=queue-timeout` instead of
    /// silently holding its FIFO position forever behind long-running
    /// work. `0` (the default) disables the deadline — queued jobs
    /// wait indefinitely, as before.
    pub queue_wait_ms: u64,
    /// Path of the resynthesis-cache snapshot file (`--cache-snapshot`).
    /// When set (and the cache is enabled), the server warm-starts the
    /// memo cache from it (damaged records are skipped, a missing file
    /// is a cold start) and persists the cache back to it atomically —
    /// periodically per [`snapshot_flush_ms`](Self::snapshot_flush_ms)
    /// and once at shutdown — so a restarted server serves repeat
    /// workloads from disk-warm synthesis instead of recomputing.
    pub cache_snapshot: Option<PathBuf>,
    /// Period of the background snapshot flusher, in milliseconds.
    /// `0` flushes only at shutdown. Ignored without
    /// [`cache_snapshot`](Self::cache_snapshot).
    pub snapshot_flush_ms: u64,
    /// TCP address of the Prometheus metrics endpoint
    /// (`--metrics-addr`, e.g. `127.0.0.1:9184`). When set, the server
    /// binds a minimal HTTP listener there and answers every request
    /// with the process-wide telemetry registry in Prometheus text
    /// exposition format ([`qtrace::render_prometheus`]). Port `0`
    /// binds an ephemeral port — read it back with
    /// [`Server::metrics_addr`]. `None` (the default) serves no
    /// metrics endpoint.
    pub metrics_addr: Option<String>,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            worker_budget: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            max_queued: 64,
            max_time_ms: 30_000,
            gate_set: GateSet::Nam,
            resynth_probability: None,
            cache_gates: 65_536,
            journal_dir: None,
            checkpoint_every: 16,
            queue_wait_ms: 0,
            cache_snapshot: None,
            snapshot_flush_ms: 0,
            metrics_addr: None,
        }
    }
}

/// An admitted, not-yet-running job.
struct QueuedJob {
    /// The submitting handle's connection id — job ids are scoped per
    /// connection, so independent clients neither collide on ids nor
    /// can cancel each other's jobs.
    conn: u64,
    req: JobRequest,
    circuit: Circuit,
    /// Slots the job asks for: 1 for a serial job, `N` for
    /// `sharded:N`. Admission may grant fewer (see the module docs).
    width: usize,
    cancel: CancelToken,
    reply: Sender<Frame>,
    /// Protocol version the submitting connection had negotiated at
    /// admission (1 = full snapshots, 2 = delta stream + checkpoints).
    proto: u32,
    /// The job's open journal, when the server runs with
    /// [`ServeOpts::journal_dir`].
    journal: Option<JobJournal>,
    /// Approximation error already accumulated by earlier resume
    /// segments (0 for fresh jobs): `req.eps` is the *remaining*
    /// allowance the search runs with, and every reported ε
    /// (improvement frames, DONE) adds this base so clients always see
    /// the cumulative error vs their original input.
    eps_base: f64,
    /// When the job entered the queue — the queue-wait deadline's
    /// clock ([`ServeOpts::queue_wait_ms`]). `None` until phase 2
    /// actually enqueues it.
    enqueued_at: Option<Instant>,
    /// Stamps surviving a client edit (`EDIT`'s rebased prior
    /// certificate), seeded into a certifying continuation's search so
    /// it re-probes only the windows the edit dirtied. `None` for
    /// fresh submissions and resumes (cold certification).
    cert_prior: Option<qcert::Certificate>,
}

#[derive(Default)]
struct State {
    queue: VecDeque<QueuedJob>,
    /// Cancel tokens of every live (queued or running) job, keyed by
    /// (connection id, client-chosen job id).
    tokens: HashMap<(u64, u64), CancelToken>,
    slots_free: usize,
    running: usize,
    draining: bool,
    /// Wall caps of running jobs, scanned by the watchdog.
    deadlines: Vec<(Instant, CancelToken)>,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    opts: ServeOpts,
    /// The process-wide resynthesis memo cache every job shares
    /// (`None` when `opts.cache_gates == 0`).
    cache: Option<Arc<QCache>>,
    /// Connection-id allocator for [`Server::handle`].
    next_conn: std::sync::atomic::AtomicU64,
}

/// The streaming optimization service. See the module docs.
pub struct Server {
    shared: Arc<Shared>,
    scheduler: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
    /// Background cache-snapshot flusher (only with
    /// [`ServeOpts::cache_snapshot`] and a nonzero flush period).
    flusher: Option<JoinHandle<()>>,
    /// Prometheus exposition listener (only with
    /// [`ServeOpts::metrics_addr`]).
    metrics: Option<JoinHandle<()>>,
    /// Stop flag for the (nonblocking-accept) metrics listener.
    metrics_stop: Arc<std::sync::atomic::AtomicBool>,
    /// The metrics listener's bound address (resolves port `0`).
    metrics_addr: Option<std::net::SocketAddr>,
}

/// A submission handle scoped to one connection: job ids are unique
/// *per handle*, and [`cancel`](Self::cancel) only reaches jobs
/// submitted through this handle (or a clone of it — clones share the
/// connection scope, which is what a connection's reader/writer
/// threads need). Obtain a fresh scope per client with
/// [`Server::handle`].
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    conn: u64,
    /// The connection's negotiated protocol version (1 until a `HELLO`
    /// arrives; clones — a connection's reader/writer threads — share
    /// it).
    version: Arc<AtomicU32>,
}

impl Server {
    /// Starts the scheduler and watchdog threads.
    pub fn start(opts: ServeOpts) -> Server {
        let cache = if opts.cache_gates > 0 {
            Some(Arc::new(QCache::with_gate_budget(opts.cache_gates)))
        } else {
            None
        };
        // Warm-start the memo cache from its snapshot (a missing file
        // is a cold start; damaged records are skipped by the loader).
        if let (Some(cache), Some(path)) = (&cache, &opts.cache_snapshot) {
            match cache.load_snapshot(path) {
                Ok(stats) if stats.skipped > 0 => eprintln!(
                    "qserve: cache snapshot {}: loaded {} records, skipped {} damaged",
                    path.display(),
                    stats.records,
                    stats.skipped
                ),
                Ok(_) => {}
                Err(e) => eprintln!(
                    "qserve: cache snapshot {} unreadable ({e}); starting cold",
                    path.display()
                ),
            }
        }
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                slots_free: opts.worker_budget.max(1),
                ..State::default()
            }),
            work: Condvar::new(),
            opts,
            cache,
            next_conn: std::sync::atomic::AtomicU64::new(0),
        });
        let scheduler = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || scheduler_loop(shared))
        };
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || watchdog_loop(shared))
        };
        let flusher = if shared.cache.is_some()
            && shared.opts.cache_snapshot.is_some()
            && shared.opts.snapshot_flush_ms > 0
        {
            let shared = Arc::clone(&shared);
            Some(std::thread::spawn(move || flusher_loop(shared)))
        } else {
            None
        };
        let metrics_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (metrics, metrics_addr) = match shared.opts.metrics_addr.as_deref() {
            Some(addr) => match std::net::TcpListener::bind(addr) {
                Ok(listener) => {
                    let bound = listener.local_addr().ok();
                    let stop = Arc::clone(&metrics_stop);
                    (
                        Some(std::thread::spawn(move || metrics_loop(listener, stop))),
                        bound,
                    )
                }
                Err(e) => {
                    // Metrics are auxiliary: a bind failure degrades
                    // observability, never job service.
                    eprintln!("qserve: cannot bind metrics endpoint {addr}: {e}");
                    (None, None)
                }
            },
            None => (None, None),
        };
        Server {
            shared,
            scheduler: Some(scheduler),
            watchdog: Some(watchdog),
            flusher,
            metrics,
            metrics_stop,
            metrics_addr,
        }
    }

    /// A fresh per-connection submission handle for a transport (or an
    /// in-process client). Each call opens a new job-id scope.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            conn: self
                .shared
                .next_conn
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            version: Arc::new(AtomicU32::new(1)),
        }
    }

    /// The bound address of the Prometheus metrics listener — `None`
    /// unless [`ServeOpts::metrics_addr`] was set and the bind
    /// succeeded. Binding port `0` and reading the ephemeral port back
    /// here is the race-free pattern for tests and colocated servers.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_addr
    }

    /// Counter snapshot of the process-wide resynthesis memo cache
    /// (zeroes when the cache is disabled) — service observability for
    /// dashboards and the bench harness.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared
            .cache
            .as_ref()
            .map(|c| c.stats())
            .unwrap_or_default()
    }

    /// Blocks until no job is queued or running, across every
    /// connection (for whole-server quiesce flows; transports use the
    /// per-connection [`ServerHandle::wait_idle`] instead). New
    /// submissions remain possible during and after the wait.
    pub fn wait_idle(&self) {
        let mut st = self.shared.state.lock().expect("server state poisoned");
        // Wait on the token map, not just queue/running: a job between
        // the two submit phases (reserved + ACCEPTED sent, not yet
        // enqueued) is admitted work and must gate idleness.
        while !(st.queue.is_empty() && st.running == 0 && st.tokens.is_empty()) {
            st = self.shared.work.wait(st).expect("server state poisoned");
        }
    }

    /// Graceful shutdown: stops accepting, drains queued and running
    /// jobs (each still gets its `DONE`), then joins the service
    /// threads.
    pub fn shutdown(self) {
        // Drop does the work (so a dropped server and an explicitly
        // shut-down one wind down identically): drain, join the
        // service threads, write the final cache snapshot.
        drop(self);
    }

    fn begin_drain(&self) {
        let mut st = self.shared.state.lock().expect("server state poisoned");
        st.draining = true;
        drop(st);
        self.shared.work.notify_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped server still winds down cleanly (tests that panic
        // mid-way, transports that error out).
        self.begin_drain();
        if let Some(h) = self.scheduler.take() {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        if let Some(h) = self.flusher.take() {
            let _ = h.join();
        }
        self.metrics_stop
            .store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.metrics.take() {
            let _ = h.join();
        }
        // Terminal snapshot flush, after every job thread has joined:
        // the file on disk reflects everything this process learned.
        if let (Some(cache), Some(path)) = (&self.shared.cache, &self.shared.opts.cache_snapshot) {
            if let Err(e) = cache.save_snapshot(path) {
                eprintln!(
                    "qserve: final cache snapshot {} failed: {e}",
                    path.display()
                );
            }
        }
    }
}

impl ServerHandle {
    /// Dispatches one client frame. Responses (and any error) go to
    /// `reply`; server-to-client frames arriving here are protocol
    /// violations and are answered with an `ERROR` frame.
    pub fn handle_frame(&self, frame: Frame, reply: &Sender<Frame>) {
        match frame {
            Frame::Hello { version } => {
                let negotiated = version.clamp(1, PROTOCOL_VERSION);
                self.version.store(negotiated, Ordering::Relaxed);
                let _ = reply.send(Frame::Hello {
                    version: negotiated,
                });
            }
            Frame::Submit(req) => self.submit(req, reply),
            Frame::Cancel { id } => {
                if !self.cancel(id) {
                    let _ = reply.send(Frame::Error {
                        id,
                        code: codes::BAD_REQUEST.into(),
                        message: "unknown job id".into(),
                    });
                }
            }
            Frame::Resume { id } => self.resume(id, reply),
            Frame::Edit { id, delta } => self.edit(id, &delta, reply),
            Frame::Health => {
                // Liveness + capacity probe: answered inline from the
                // state lock, so a healthy-but-busy server still
                // responds promptly.
                let st = self.shared.state.lock().expect("server state poisoned");
                let live = st.tokens.len() as u64;
                let slots = st.slots_free as u64;
                drop(st);
                let _ = reply.send(Frame::Healthy { live, slots });
            }
            Frame::Stats => {
                // Telemetry probe: answered inline like HEALTH, out of
                // band of any job and without the state lock (the
                // registry is lock-free to read).
                let _ = reply.send(Frame::StatsReply(registry_snapshot()));
            }
            Frame::Shutdown => {} // transport-level; handled by the caller
            other => {
                let id = match &other {
                    Frame::Accepted { id, .. }
                    | Frame::Snapshot { id, .. }
                    | Frame::Delta { id, .. }
                    | Frame::Certified { id, .. } => *id,
                    Frame::Done(s) => s.id,
                    _ => 0,
                };
                let _ = reply.send(Frame::Error {
                    id,
                    code: codes::BAD_REQUEST.into(),
                    message: "unexpected server-to-client frame".into(),
                });
            }
        }
    }

    /// The connection's negotiated protocol version (1 before any
    /// `HELLO`).
    pub fn protocol_version(&self) -> u32 {
        self.version.load(Ordering::Relaxed)
    }

    /// Validates and enqueues a job; streams frames to `reply`.
    ///
    /// Two-phase admission so the frame order holds: the job id is
    /// *reserved* (visible to CANCEL, invisible to the scheduler),
    /// `ACCEPTED` is sent, and only then is the job enqueued — were it
    /// enqueued first, the scheduler could start it and emit its
    /// initial `SNAPSHOT` before this thread sent `ACCEPTED`.
    pub fn submit(&self, req: JobRequest, reply: &Sender<Frame>) {
        self.submit_inner(req, reply, None, None)
    }

    /// `resume_base`: `None` for a fresh submission; for a resume
    /// segment, the ε the journaled job had already accumulated (the
    /// continuation's `req.eps` holds only the remaining allowance).
    /// `cert_prior`: the rebased prior certificate of an `EDIT`
    /// continuation, when one survived the edit.
    fn submit_inner(
        &self,
        req: JobRequest,
        reply: &Sender<Frame>,
        resume_base: Option<f64>,
        cert_prior: Option<qcert::Certificate>,
    ) {
        let id = req.id;
        let resuming = resume_base.is_some();
        match self.try_reserve(req, reply) {
            Ok(mut job) => {
                job.eps_base = resume_base.unwrap_or(0.0);
                job.cert_prior = cert_prior;
                // Durability before acknowledgement: open the journal
                // (fresh, or appended for a resume segment) before the
                // client ever sees ACCEPTED.
                if let Some(dir) = &self.shared.opts.journal_dir {
                    let opened = if resuming {
                        JobJournal::resume(dir, id, &job.req)
                    } else if job.req.overwrite {
                        // Client opted in (`SUBMIT overwrite=1`):
                        // discard any previous run's journal, finished
                        // or not.
                        JobJournal::create_overwriting(dir, id, &job.req)
                    } else {
                        JobJournal::create(dir, id, &job.req)
                    };
                    match opened {
                        Ok(j) => job.journal = Some(j),
                        Err(e) => {
                            let mut st = self.shared.state.lock().expect("server state poisoned");
                            st.tokens.remove(&(self.conn, id));
                            drop(st);
                            self.shared.work.notify_all();
                            let conflict = e.kind() == std::io::ErrorKind::AlreadyExists;
                            let _ = reply.send(Frame::Error {
                                id,
                                code: if conflict {
                                    codes::JOURNAL_CONFLICT.into()
                                } else {
                                    codes::JOURNAL.into()
                                },
                                message: format!("journal unavailable: {e}"),
                            });
                            return;
                        }
                    }
                }
                let _ = reply.send(Frame::Accepted { id, ref_id: 0 });
                let mut st = self.shared.state.lock().expect("server state poisoned");
                if st.draining {
                    // Shutdown began between the phases; the scheduler
                    // may already have exited, so enqueueing could
                    // orphan the job. Retract it (the one case where
                    // ACCEPTED is followed by ERROR instead of DONE).
                    st.tokens.remove(&(self.conn, id));
                    drop(st);
                    let _ = reply.send(Frame::Error {
                        id,
                        code: codes::DRAINING.into(),
                        message: "server is shutting down".into(),
                    });
                } else {
                    job.enqueued_at = Some(Instant::now());
                    st.queue.push_back(job);
                    drop(st);
                    self.shared.work.notify_all();
                }
            }
            Err((code, message)) => {
                let _ = reply.send(Frame::Error {
                    id,
                    code: code.into(),
                    message,
                });
            }
        }
    }

    /// Phase 1: validate and reserve the id, without enqueueing. (The
    /// `max_queued` check happens here, so racing submissions can
    /// overshoot the bound by the number of in-flight phase-2 pushes —
    /// it is a backpressure knob, not a hard invariant.)
    fn try_reserve(
        &self,
        req: JobRequest,
        reply: &Sender<Frame>,
    ) -> Result<QueuedJob, (&'static str, String)> {
        let width = match req.engine {
            EngineSel::Serial => 1,
            EngineSel::Sharded(w) => {
                if w == 0 {
                    return Err((codes::BAD_REQUEST, "sharded engine needs ≥ 1 worker".into()));
                }
                if req.certify {
                    // Certification lives in the serial driver only;
                    // refuse rather than run the job uncertified.
                    return Err((codes::BAD_REQUEST, "cert=1 needs the serial engine".into()));
                }
                w
            }
        };
        if width > self.shared.opts.worker_budget.max(1) {
            return Err((
                codes::BAD_REQUEST,
                format!(
                    "job width {width} exceeds worker budget {}",
                    self.shared.opts.worker_budget.max(1)
                ),
            ));
        }
        if req.iters == 0 && req.time_ms == 0 {
            return Err((
                codes::BAD_REQUEST,
                "job needs an iteration or time budget".into(),
            ));
        }
        let circuit = qasm::from_qasm(&req.qasm)
            .map_err(|e| (codes::BAD_REQUEST, format!("bad qasm payload: {e}")))?;
        let mut st = self.shared.state.lock().expect("server state poisoned");
        if st.draining {
            return Err((codes::DRAINING, "server is shutting down".into()));
        }
        if st.queue.len() >= self.shared.opts.max_queued {
            return Err((
                codes::QUEUE_FULL,
                format!(
                    "queue full ({} jobs); retry later",
                    self.shared.opts.max_queued
                ),
            ));
        }
        if st.tokens.contains_key(&(self.conn, req.id)) {
            return Err((codes::ID_CONFLICT, "duplicate job id".into()));
        }
        if self.shared.opts.journal_dir.is_some() && st.tokens.keys().any(|&(_, jid)| jid == req.id)
        {
            // Journals are keyed by the raw job id, so on a journaled
            // server two live jobs with one id — even from different
            // connections — would interleave appends into one file and
            // wreck its replay chain. (This also blocks RESUME of a
            // still-running job: cancel it or wait for its DONE.)
            return Err((
                codes::ID_CONFLICT,
                format!(
                    "job id {} is live on this journaled server; ids must be unique while journaling",
                    req.id
                ),
            ));
        }
        let cancel = CancelToken::new();
        st.tokens.insert((self.conn, req.id), cancel.clone());
        Ok(QueuedJob {
            conn: self.conn,
            req,
            circuit,
            width,
            cancel,
            reply: reply.clone(),
            proto: self.protocol_version(),
            journal: None,
            eps_base: 0.0,
            enqueued_at: None,
            cert_prior: None,
        })
    }

    /// Handles a `RESUME id=` frame: rebuilds the job from its journal
    /// and restarts the search from the journaled best with the
    /// remaining budget (see the protocol docs). A finished job's
    /// terminal `DONE` is simply replayed.
    pub fn resume(&self, id: u64, reply: &Sender<Frame>) {
        let Some(dir) = self.shared.opts.journal_dir.clone() else {
            let _ = reply.send(Frame::Error {
                id,
                code: codes::BAD_REQUEST.into(),
                message: "RESUME requires a journaled server (--journal-dir)".into(),
            });
            return;
        };
        let replayed = match journal::replay(&dir, id) {
            Ok(r) => r,
            Err(message) => {
                let _ = reply.send(Frame::Error {
                    id,
                    code: codes::JOURNAL.into(),
                    message,
                });
                return;
            }
        };
        if let Some(done) = replayed.finished {
            // Idempotent terminal replay: the job already ran to DONE.
            let _ = reply.send(Frame::Done(done));
            return;
        }
        let prior = replayed.request;
        // The dead segment's own spending, charged against its
        // allowance; `replayed.epsilon` stays the cumulative total the
        // continuation's reports are based on.
        let segment_eps = (replayed.epsilon - replayed.epsilon_at_segment_start).max(0.0);
        let continuation = JobRequest {
            id,
            engine: prior.engine,
            // Iteration-budgeted: charge the journaled watermark and
            // keep ≥ 1 so the resumed job always reaches its DONE.
            // Time-budgeted: restart with the requested wall budget
            // (elapsed pre-crash time is not journaled).
            iters: if prior.iters > 0 {
                prior.iters.saturating_sub(replayed.iterations).max(1)
            } else {
                0
            },
            time_ms: prior.time_ms,
            // The mid-stream RNG state is not reconstructible; derive
            // the segment seed from (seed, watermark) so a resumed
            // search explores fresh but deterministic trajectories.
            seed: resume_seed(prior.seed, replayed.iterations),
            // Only the *remaining* ε allowance: the journaled best has
            // already spent `segment_eps` of this segment's budget, so
            // a resumed job can never exceed the client's original
            // total (ε = 0 remaining just means only exact moves).
            eps: (prior.eps - segment_eps).max(0.0),
            objective: prior.objective,
            // A resume segment *appends* to the existing journal; the
            // overwrite consent applies only to fresh SUBMITs.
            overwrite: false,
            certify: prior.certify,
            qasm: qasm::to_qasm_line(&replayed.best),
        };
        self.submit_inner(continuation, reply, Some(replayed.epsilon), None);
    }

    /// Handles an `EDIT id= delta=` frame (v2 only): applies a client
    /// [`qcir::delta::CircuitDelta`] to a **finished** journaled job's
    /// best circuit, rebases the job's certificate across the edit
    /// script — dropping only the stamps the edit dirties — and
    /// restarts the search as a certifying continuation seeded with
    /// the surviving stamps. The continuation re-probes O(edit) of the
    /// circuit instead of O(circuit), terminates early once coverage
    /// is restored, and finishes with a fresh certificate.
    pub fn edit(&self, id: u64, delta: &str, reply: &Sender<Frame>) {
        let bad = |message: String| {
            let _ = reply.send(Frame::Error {
                id,
                code: codes::BAD_REQUEST.into(),
                message,
            });
        };
        if self.protocol_version() < 2 {
            bad("EDIT is a v2 verb; negotiate HELLO version=2 first".into());
            return;
        }
        let Some(dir) = self.shared.opts.journal_dir.clone() else {
            bad("EDIT requires a journaled server (--journal-dir)".into());
            return;
        };
        let replayed = match journal::replay(&dir, id) {
            Ok(r) => r,
            Err(message) => {
                let _ = reply.send(Frame::Error {
                    id,
                    code: codes::JOURNAL.into(),
                    message,
                });
                return;
            }
        };
        let Some(done) = replayed.finished else {
            let _ = reply.send(Frame::Error {
                id,
                code: codes::JOURNAL.into(),
                message: "job has not finished; EDIT re-optimizes a completed job \
                          (RESUME continues an interrupted one)"
                    .into(),
            });
            return;
        };
        let script = match qcir::delta::CircuitDelta::decode(delta) {
            Ok(d) => d,
            Err(e) => {
                bad(format!("bad delta payload: {e}"));
                return;
            }
        };
        let mut edited = replayed.best.clone();
        if let Err(e) = script.apply(&mut edited) {
            bad(format!("delta does not apply to job {id}'s best: {e}"));
            return;
        }
        // The finished run's certificate, re-expressed across the edit
        // script. A missing or unreadable side file just means a cold
        // (full) certification sweep — correct, only slower.
        let cert_prior = std::fs::read_to_string(journal::cert_path(&dir, id))
            .ok()
            .and_then(|text| qcert::Certificate::decode(&text).ok())
            .map(|cert| cert.rebase(script.ops(), qcert::CERT_PAD));
        let prior = replayed.request;
        // What the finished segment spent of its own ε allowance; the
        // cumulative total (`replayed.epsilon`) becomes the
        // continuation's reporting base, exactly as in RESUME.
        let segment_eps = (replayed.epsilon - replayed.epsilon_at_segment_start).max(0.0);
        let continuation = JobRequest {
            id,
            // Certification — the seeded skip map and the early-exit
            // sweep — is the serial incremental engine's; the edit
            // segment always runs there regardless of how the original
            // job was submitted.
            engine: EngineSel::Serial,
            // The original budget again, in full: the seeded stamps,
            // the anchor skips, and early termination are what make
            // the edit segment cheap — not a trimmed allowance.
            iters: prior.iters,
            time_ms: prior.time_ms,
            seed: resume_seed(prior.seed, done.iterations.wrapping_add(1)),
            eps: (prior.eps - segment_eps).max(0.0),
            objective: prior.objective,
            // An edit segment *appends* to the existing journal.
            overwrite: false,
            certify: true,
            qasm: qasm::to_qasm_line(&edited),
        };
        self.submit_inner(continuation, reply, Some(replayed.epsilon), cert_prior);
    }

    /// Cancels a queued or running job submitted through this handle's
    /// connection scope. Returns false for unknown ids (including
    /// other connections' jobs — cancellation cannot cross clients).
    pub fn cancel(&self, id: u64) -> bool {
        let st = self.shared.state.lock().expect("server state poisoned");
        let found = match st.tokens.get(&(self.conn, id)) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        };
        drop(st);
        if found {
            // Wake the scheduler: a cancelled *queued* job is swept out
            // of the queue without waiting for slots.
            self.shared.work.notify_all();
        }
        found
    }

    /// Blocks until none of **this connection's** jobs are queued or
    /// running (other clients' jobs don't gate it — a shared server
    /// under continuous load would otherwise never look idle). The
    /// transports call this at EOF so every admitted job's `DONE` is
    /// produced before the stream closes.
    pub fn wait_idle(&self) {
        let mut st = self.shared.state.lock().expect("server state poisoned");
        while st.tokens.keys().any(|(conn, _)| *conn == self.conn) {
            st = self.shared.work.wait(st).expect("server state poisoned");
        }
    }

    /// Jobs currently queued or running (diagnostics).
    pub fn live_jobs(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("server state poisoned")
            .tokens
            .len()
    }
}

/// Work-conserving FIFO admission: once a slot is free, pop the queue
/// head, grant it `min(width, free)` slots, spawn its thread, repeat.
/// Returns when draining and everything has finished.
fn scheduler_loop(shared: Arc<Shared>) {
    let mut jobs: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let to_spawn = {
            let mut st = shared.state.lock().expect("server state poisoned");
            // Each job with the slots granted to it.
            let mut to_spawn: Vec<(QueuedJob, usize)> = Vec::new();
            loop {
                // Sweep cancelled queued jobs first, wherever they sit:
                // they need no slots (run_job returns immediately on a
                // raised token), and must not have their terminal DONE
                // withheld until a slot frees up.
                let mut i = 0;
                while i < st.queue.len() {
                    if st.queue[i].cancel.is_cancelled() {
                        let job = st.queue.remove(i).expect("indexed entry");
                        st.running += 1;
                        to_spawn.push((job, 0)); // slots are never debited
                    } else {
                        i += 1;
                    }
                }
                if st.slots_free > 0 {
                    if let Some(job) = st.queue.pop_front() {
                        let grant = job.width.min(st.slots_free);
                        if grant < job.width {
                            qtrace::counter("qserve_partial_grants_total").inc();
                        }
                        st.slots_free -= grant;
                        st.running += 1;
                        to_spawn.push((job, grant));
                    }
                }
                if !to_spawn.is_empty() {
                    break;
                }
                if st.draining && st.queue.is_empty() && st.running == 0 {
                    drop(st);
                    for h in jobs {
                        if h.join().is_err() {
                            eprintln!("qserve: a job thread panicked (slots were reclaimed)");
                        }
                    }
                    return;
                }
                st = shared.work.wait(st).expect("server state poisoned");
            }
            to_spawn
        };
        // Reap completed job threads, surfacing panics (the accounting
        // guard keeps the pool usable either way).
        let (finished, live): (Vec<_>, Vec<_>) = jobs.drain(..).partition(|h| h.is_finished());
        jobs = live;
        for h in finished {
            if h.join().is_err() {
                eprintln!("qserve: a job thread panicked (slots were reclaimed)");
            }
        }
        for (job, grant) in to_spawn {
            let shared2 = Arc::clone(&shared);
            jobs.push(std::thread::spawn(move || run_job(job, grant, shared2)));
        }
    }
}

/// Cancels jobs whose wall cap expired and retracts queued jobs whose
/// queue-wait deadline passed. Event-driven: sleeps on the shared
/// condvar until the nearest pending deadline (or indefinitely while
/// none is pending), so an idle server does no periodic work.
fn watchdog_loop(shared: Arc<Shared>) {
    let queue_wait = match shared.opts.queue_wait_ms {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    let mut st = shared.state.lock().expect("server state poisoned");
    loop {
        if st.draining && st.queue.is_empty() && st.running == 0 {
            return;
        }
        let now = Instant::now();
        st.deadlines.retain(|(deadline, token)| {
            if token.is_cancelled() {
                return false; // job finished or was cancelled already
            }
            if now >= *deadline {
                token.cancel();
                return false;
            }
            true
        });
        // Queue-wait enforcement: a job that could not start within
        // its admission budget is retracted with a typed ERROR rather
        // than holding its FIFO position forever. (Cancelled queued
        // jobs are left for the scheduler's sweep — they already have
        // a terminal path.)
        let mut expired: Vec<QueuedJob> = Vec::new();
        if let Some(wait) = queue_wait {
            let mut i = 0;
            while i < st.queue.len() {
                let overdue = !st.queue[i].cancel.is_cancelled()
                    && st.queue[i]
                        .enqueued_at
                        .is_some_and(|t| now.saturating_duration_since(t) >= wait);
                if overdue {
                    let job = st.queue.remove(i).expect("indexed entry");
                    st.tokens.remove(&(job.conn, job.req.id));
                    expired.push(job);
                } else {
                    i += 1;
                }
            }
        }
        if !expired.is_empty() {
            // Deliver the errors without holding the lock (reply
            // channels are bounded and may block).
            drop(st);
            shared.work.notify_all();
            for job in expired {
                let id = job.req.id;
                // Undo admission's durability side effect: the journal
                // holds only this SUBMIT (the job never ran), and
                // leaving it would force the client's resubmission
                // into an overwrite it shouldn't need.
                if let (Some(dir), Some(j)) = (&shared.opts.journal_dir, job.journal) {
                    drop(j);
                    let _ = std::fs::remove_file(journal::journal_path(dir, id));
                }
                let _ = job.reply.send(Frame::Error {
                    id,
                    code: codes::QUEUE_TIMEOUT.into(),
                    message: format!(
                        "queued for {} ms without starting; retry later",
                        shared.opts.queue_wait_ms
                    ),
                });
            }
            st = shared.state.lock().expect("server state poisoned");
            continue;
        }
        let next_wall = st.deadlines.iter().map(|(d, _)| *d).min();
        let next_queue = queue_wait.and_then(|wait| {
            st.queue
                .iter()
                .filter_map(|job| job.enqueued_at)
                .map(|t| t + wait)
                .min()
        });
        let next = match (next_wall, next_queue) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        st = match next {
            Some(deadline) => {
                let timeout = deadline.saturating_duration_since(Instant::now());
                shared
                    .work
                    .wait_timeout(st, timeout)
                    .expect("server state poisoned")
                    .0
            }
            None => shared.work.wait(st).expect("server state poisoned"),
        };
    }
}

/// Periodically persists the memo cache to its snapshot file (atomic
/// tmp-and-rename, so readers never see a torn file). Exits on drain;
/// the terminal flush happens in [`Server`]'s `Drop`, after every job
/// thread has finished contributing entries.
fn flusher_loop(shared: Arc<Shared>) {
    let (Some(cache), Some(path)) = (&shared.cache, &shared.opts.cache_snapshot) else {
        return;
    };
    let period = Duration::from_millis(shared.opts.snapshot_flush_ms.max(1));
    let mut next = Instant::now() + period;
    let mut st = shared.state.lock().expect("server state poisoned");
    loop {
        if st.draining {
            return;
        }
        let now = Instant::now();
        if now >= next {
            drop(st);
            if let Err(e) = cache.save_snapshot(path) {
                eprintln!("qserve: cache snapshot {} failed: {e}", path.display());
            }
            next = Instant::now() + period;
            st = shared.state.lock().expect("server state poisoned");
            continue;
        }
        // The condvar is chatty (every scheduler event notifies it);
        // `next` keeps the cadence fixed under constant activity.
        st = shared
            .work
            .wait_timeout(st, next.saturating_duration_since(now))
            .expect("server state poisoned")
            .0;
    }
}

/// Serves the telemetry registry over a minimal HTTP/1.0 responder:
/// every request — whatever its path — gets one `200` whose body is
/// the Prometheus text exposition, then the connection closes. The
/// accept loop is nonblocking so the stop flag (raised by the server's
/// `Drop`) is honored within one poll interval.
fn metrics_loop(listener: std::net::TcpListener, stop: Arc<std::sync::atomic::AtomicBool>) {
    use std::io::{Read as _, Write as _};
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
        match listener.accept() {
            Ok((mut conn, _)) => {
                // Drain (some of) the request; the reply is the same
                // for every path, so one read suffices and a slow
                // writer cannot park the loop past the timeout.
                let _ = conn.set_read_timeout(Some(Duration::from_millis(200)));
                let mut buf = [0u8; 1024];
                let _ = conn.read(&mut buf);
                let body = qtrace::render_prometheus();
                let _ = write!(
                    conn,
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len(),
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Point-in-time [`StatsSnapshot`] from the process-wide telemetry
/// registry — the `STATS` verb's reply. Reads the same series the
/// Prometheus endpoint renders, so the two views always agree.
fn registry_snapshot() -> StatsSnapshot {
    let read = |name: &str| qtrace::counter_value(name).unwrap_or(0.0);
    let mut accepts = [0u64; qtrace::FAMILY_COUNT];
    for fam in qtrace::Family::ALL {
        let name = format!("guoq_accepts_total{{family=\"{}\"}}", fam.label());
        accepts[fam.index()] = read(&name) as u64;
    }
    StatsSnapshot {
        jobs_done: read("qserve_jobs_done_total") as u64,
        fast_s: read("guoq_fast_seconds_total"),
        slow_s: read("guoq_slow_seconds_total"),
        accepts,
        // Negative hits are hits (a cached don't-bother answer), the
        // same accounting `GuoqResult::cache_hits` uses.
        cache_hits: (read("qcache_hits_total") + read("qcache_negative_hits_total")) as u64,
        cache_misses: read("qcache_misses_total") as u64,
        cert_windows: read(qcert::CERTIFIED_COUNTER) as u64,
        cert_invalidated: read(qcert::INVALIDATED_COUNTER) as u64,
        cert_skips: read(qcert::ANCHOR_SKIPS_COUNTER) as u64,
    }
}

fn cost_fn(objective: Objective) -> Box<dyn CostFn> {
    match objective {
        Objective::GateCount => Box::new(GateCount),
        Objective::TwoQubitCount => Box::new(TwoQubitCount),
    }
}

/// SplitMix64 over (base seed, iteration watermark): the deterministic
/// per-resume-segment seed derivation.
fn resume_seed(seed: u64, watermark: u64) -> u64 {
    let mut x = seed ^ watermark.wrapping_mul(0x9E3779B97F4A7C15);
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Restores a running job's pool accounting when its thread ends —
/// including by panic, which must never leak worker slots (a leaked
/// slot with `worker_budget: 1` wedges the whole server). The token is
/// cancelled first so the watchdog drops the job's deadline entry and
/// the id becomes reusable.
struct SlotGuard {
    shared: Arc<Shared>,
    conn: u64,
    id: u64,
    /// The slots admission granted, which may be fewer than the job's
    /// width (0 for a job swept out of the queue cancelled).
    grant: usize,
    cancel: CancelToken,
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.cancel.cancel();
        let mut st = self.shared.state.lock().expect("server state poisoned");
        st.slots_free += self.grant;
        st.running -= 1;
        st.tokens.remove(&(self.conn, self.id));
        drop(st);
        self.shared.work.notify_all();
    }
}

/// Per-job streaming state: where the *client's* reconstruction stands
/// (v2 delta chains break on any dropped frame, so the server tracks
/// deliveries and escalates to a full-snapshot resync after a drop) and
/// where the *journal's* lossless chain stands.
struct ImprovementStream {
    proto: u32,
    checkpoint_every: u64,
    /// 1-based counter of `DELTA` frames actually enqueued to the
    /// client (the wire `seq`). Checkpoint `SNAPSHOT`s do not consume
    /// a number and drops do not advance it, so within one job the
    /// client's delta seqs are contiguous — a gap means the client's
    /// own record (not the live stream) lost frames.
    client_seq: u64,
    /// Improvements since the last full snapshot the client received.
    client_since_checkpoint: u64,
    /// A frame was dropped under backpressure: stop sending deltas (the
    /// client cannot chain them) until a full snapshot gets through.
    needs_resync: bool,
    /// The journal's own delta numbering (journal writes are lossless,
    /// so its cadence and seqs are independent of the client's).
    journal_seq: u64,
    /// Improvements since the last journal checkpoint.
    journal_since_checkpoint: u64,
    /// A journal append failed: stop appending deltas (a hole would
    /// break the replay chain) until a synced full-snapshot resync
    /// succeeds — written behind a line terminator, so a torn partial
    /// line from the failure cannot corrupt the checkpoint that
    /// follows it.
    journal_broken: bool,
}

impl ImprovementStream {
    fn new(proto: u32, checkpoint_every: u64) -> Self {
        ImprovementStream {
            proto,
            checkpoint_every: checkpoint_every.max(1),
            client_seq: 0,
            client_since_checkpoint: 0,
            needs_resync: false,
            journal_seq: 0,
            journal_since_checkpoint: 0,
            journal_broken: false,
        }
    }

    /// Streams one improvement to the client and the journal.
    #[allow(clippy::too_many_arguments)]
    fn improved(
        &mut self,
        id: u64,
        delta: &qcir::delta::CircuitDelta,
        best: &Circuit,
        cost: f64,
        epsilon: f64,
        iterations: u64,
        seconds: f64,
        reply: &Sender<Frame>,
        cancel: &CancelToken,
        journal: &mut Option<JobJournal>,
    ) {
        // The journal and the client often checkpoint on the same
        // improvement: render the snapshot and encode the delta at most
        // once each. The journal borrows the snapshot; the client, served
        // last, takes it. A delta's `seq` differs between the two, so
        // only its text is shared.
        let make_snapshot = || Frame::Snapshot {
            id,
            cost,
            epsilon,
            iterations,
            seconds,
            qasm: qasm::to_qasm_line(best),
        };
        let mut snapshot = None;
        let mut delta_text = None;
        let mut delta_frame = |seq: u64| Frame::Delta {
            id,
            seq,
            cost,
            epsilon,
            iterations,
            seconds,
            delta: delta_text.get_or_insert_with(|| delta.encode()).clone(),
        };

        // Journal first (lossless, fsync at checkpoints): the journal
        // must cover everything the client might have seen.
        if let Some(j) = journal.as_mut() {
            self.journal_since_checkpoint += 1;
            let result = if self.journal_broken {
                // Resync after a failed append: the replayable suffix
                // must restart absolutely, behind a terminator that
                // closes any torn partial line the failure left.
                j.append_resync(snapshot.get_or_insert_with(make_snapshot))
            } else if self.journal_since_checkpoint >= self.checkpoint_every {
                j.append_synced(snapshot.get_or_insert_with(make_snapshot))
            } else {
                self.journal_seq += 1;
                j.append(&delta_frame(self.journal_seq))
            };
            match result {
                Ok(()) => {
                    if self.journal_broken || self.journal_since_checkpoint >= self.checkpoint_every
                    {
                        self.journal_since_checkpoint = 0;
                    }
                    self.journal_broken = false;
                }
                Err(e) => {
                    if !self.journal_broken {
                        eprintln!("qserve: journal write failed for job {id}: {e}");
                    }
                    self.journal_broken = true;
                }
            }
        }

        if self.proto >= 2 {
            self.client_since_checkpoint += 1;
            let want_full =
                self.needs_resync || self.client_since_checkpoint >= self.checkpoint_every;
            if want_full {
                if send_snapshot(reply, cancel, snapshot.take().unwrap_or_else(make_snapshot)) {
                    self.needs_resync = false;
                    self.client_since_checkpoint = 0;
                } else {
                    self.needs_resync = true;
                }
            } else if send_snapshot(reply, cancel, delta_frame(self.client_seq + 1)) {
                self.client_seq += 1;
            } else {
                // Whatever the client missed, its delta chain is dead:
                // only a full snapshot may resynchronize it. The seq is
                // not consumed — delivered deltas stay contiguous.
                self.needs_resync = true;
            }
        } else {
            let _ = send_snapshot(reply, cancel, snapshot.take().unwrap_or_else(make_snapshot));
        }
    }
}

/// One job, start to DONE, on its own thread, with the `grant` slots
/// admission debited for it.
fn run_job(job: QueuedJob, grant: usize, shared: Arc<Shared>) {
    let QueuedJob {
        conn,
        req,
        circuit,
        width: _,
        cancel,
        reply,
        proto,
        mut journal,
        eps_base,
        enqueued_at,
        cert_prior,
    } = job;
    // Queue wait ends when the scheduler hands the job to this thread
    // — the DONE frame's head-of-line-blocking signal.
    let queue_ms = enqueued_at.map_or(0, |t| t.elapsed().as_millis() as u64);
    let guard = SlotGuard {
        shared: Arc::clone(&shared),
        conn,
        id: req.id,
        grant,
        cancel: cancel.clone(),
    };
    let opts = &shared.opts;
    let effective_ms = if req.time_ms == 0 {
        opts.max_time_ms
    } else {
        req.time_ms.min(opts.max_time_ms)
    };
    let budget = if req.iters > 0 {
        // Iteration-budgeted: the watchdog enforces the wall cap (the
        // driver's own budget never consults the clock). Time-budgeted
        // jobs self-terminate via `Budget::Time` and get no watchdog
        // entry — otherwise the watchdog's clock (which starts here,
        // before the rule corpus is built) would race the driver's
        // (which starts inside `optimize`) and could stamp a job that
        // ran its full requested budget as `cancelled=1`.
        let mut st = shared.state.lock().expect("server state poisoned");
        st.deadlines.push((
            Instant::now() + Duration::from_millis(effective_ms),
            cancel.clone(),
        ));
        drop(st);
        shared.work.notify_all(); // wake the watchdog to re-arm its timer
        Budget::Iterations(req.iters)
    } else {
        Budget::Time(Duration::from_millis(effective_ms))
    };

    let engine = match req.engine {
        // Certification on request (`SUBMIT cert=1` or an EDIT
        // continuation): the serial engine probes plateaus into stamped
        // windows and may finish early with a certificate. Admission
        // refuses `cert=1` on the sharded engine.
        EngineSel::Serial if req.certify => Engine::Certifying { prior: cert_prior },
        EngineSel::Serial => Engine::Serial,
        // The plan stays `workers` wide; it runs on the granted slots.
        EngineSel::Sharded(workers) => Engine::Sharded {
            workers,
            threads: grant,
            slice_iterations: guoq::DEFAULT_SLICE_ITERATIONS,
        },
    };
    let mut gopts = GuoqOpts {
        budget,
        eps_total: req.eps,
        seed: req.seed,
        engine,
        cancel: Some(cancel.clone()),
        // Every job shares the server's memo cache: repeated and
        // similar submissions are served from amortized synthesis.
        cache: shared.cache.clone(),
        ..Default::default()
    };
    if let Some(p) = opts.resynth_probability {
        gopts.resynth_probability = p;
    }
    let cost = cost_fn(req.objective);
    let guoq = Guoq::for_gate_set(opts.gate_set, gopts);

    // Initial snapshot: best-so-far = the input circuit. Anchors the
    // (strictly improving) improvement sequence at the input cost —
    // and is the v2 stream's (and the journal's) base checkpoint; sent
    // to the client through the same lossy path as every frame.
    let id = req.id;
    let initial = Frame::Snapshot {
        id,
        cost: cost.cost(&circuit),
        // A resume segment's input already carries the prior
        // segments' accumulated error.
        epsilon: eps_base,
        iterations: 0,
        seconds: 0.0,
        qasm: qasm::to_qasm_line(&circuit),
    };
    let mut stream = ImprovementStream::new(proto, shared.opts.checkpoint_every);
    if let Some(j) = journal.as_mut() {
        if let Err(e) = j.append_synced(&initial) {
            eprintln!("qserve: journal write failed for job {id}: {e}");
            stream.journal_broken = true;
        }
    }
    if !send_snapshot(&reply, &cancel, initial) {
        // The base checkpoint never reached the client: deltas cannot
        // chain until a full snapshot does.
        stream.needs_resync = true;
    }

    let snapshot_reply = reply.clone();
    let snapshot_cancel = cancel.clone();
    let mut journal_slot = journal;
    let t_run = Instant::now();
    let result = guoq.optimize_events(&circuit, &*cost, &mut |ev, best| {
        if let OptEvent::Improved {
            delta,
            cost,
            epsilon,
            iterations,
            seconds,
        } = ev
        {
            stream.improved(
                id,
                delta,
                best,
                *cost,
                *epsilon + eps_base,
                *iterations,
                *seconds,
                &snapshot_reply,
                &snapshot_cancel,
                &mut journal_slot,
            );
        }
    });
    let run_ms = t_run.elapsed().as_millis() as u64;
    let mut journal = journal_slot;

    // Service-level series: queue wait is the head-of-line-blocking
    // signal, run time the service-time distribution. Cold path —
    // once per job.
    qtrace::histogram("qserve_queue_wait_ms").record(queue_ms);
    qtrace::histogram("qserve_run_ms").record(run_ms);
    qtrace::counter("qserve_jobs_done_total").inc();

    let summary = JobSummary {
        id,
        cost: result.cost,
        // Cumulative vs the client's original input, across resume
        // segments.
        epsilon: result.epsilon + eps_base,
        iterations: result.iterations,
        accepted: result.accepted,
        resynth_hits: result.resynth_hits,
        cache_hits: result.cache_hits,
        cache_misses: result.cache_misses,
        queue_ms,
        run_ms,
        // The engine-attributed split (sharded engines sum busy time
        // across shards, so fast+slow can exceed run_ms there; serial
        // engines sum to ≲ run_ms).
        fast_ms: result.profile.fast_ms(),
        slow_ms: result.profile.slow_ms(),
        cancelled: cancel.is_cancelled(), // read BEFORE the guard raises it
        qasm: qasm::to_qasm_line(&result.circuit),
    };
    // The journal's terminal record is written (and synced) before the
    // slots are released: once a client could observe DONE, a resume
    // must replay it rather than re-run the job.
    if let Some(j) = journal.as_mut() {
        if let Err(e) = j.append_synced(&Frame::Done(summary.clone())) {
            eprintln!("qserve: journal write failed for job {id}: {e}");
        }
    }
    // Certification artifacts. The certificate is persisted *beside*
    // the journal (replay rejects unknown frame kinds, so it must not
    // ride inside it) where the EDIT flow picks it up; v2 peers also
    // get a CERTIFIED frame ahead of DONE. Both are best-effort — the
    // job result does not depend on either landing.
    if let Some(cert) = &result.certificate {
        if let Some(dir) = &shared.opts.journal_dir {
            if let Err(e) = std::fs::write(journal::cert_path(dir, id), cert.encode()) {
                eprintln!("qserve: certificate write failed for job {id}: {e}");
            }
        }
        if proto >= 2 {
            let _ = send_snapshot(
                &reply,
                &cancel,
                Frame::Certified {
                    id,
                    coverage: cert.coverage(),
                    windows: cert.stamps.len() as u64,
                    budget: cert.budget,
                },
            );
        }
    }
    // Release the accounting (slots, token entry, scheduler wakeup)
    // *before* the terminal frame: a client that reuses the id the
    // moment it sees DONE must never hit a stale "duplicate job id".
    // The guard also fires on any panic above, so slots cannot leak.
    drop(guard);
    send_done(&reply, Frame::Done(summary));
}

/// Improvement delivery is *lossy under backpressure*: a blocking send
/// here would park the search thread past cancellation and the wall
/// cap (the token is only checked between iterations), letting a
/// stalled client pin worker slots forever. A full reply channel drops
/// the frame — only the latest best-so-far matters, the terminal DONE
/// always carries the final result, and a v2 delta chain broken by the
/// drop is resynchronized by the next full-snapshot escalation (see
/// [`ImprovementStream`]) — and a disconnected one cancels the job.
/// Returns whether the frame was enqueued.
fn send_snapshot(reply: &Sender<Frame>, cancel: &CancelToken, frame: Frame) -> bool {
    use crossbeam_channel::TrySendError;
    match reply.try_send(frame) {
        Ok(()) => true,
        Err(TrySendError::Full(_)) => false, // drop: client is backlogged
        Err(TrySendError::Disconnected(_)) => {
            cancel.cancel();
            false
        }
    }
}

/// Terminal-frame delivery: retries a full channel for a bounded grace
/// period (the client may be draining a burst) but never parks forever
/// on a stalled one — slots are already back in the pool by now, so
/// the worst case is a lost DONE to a client that stopped reading.
fn send_done(reply: &Sender<Frame>, mut frame: Frame) {
    use crossbeam_channel::TrySendError;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match reply.try_send(frame) {
            Ok(()) | Err(TrySendError::Disconnected(_)) => return,
            Err(TrySendError::Full(f)) => {
                if Instant::now() >= deadline {
                    return;
                }
                frame = f;
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}
