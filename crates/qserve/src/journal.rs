//! The durable per-job journal: append-only event logs under
//! `--journal-dir`, and the replay that rebuilds a job from one.
//!
//! A journaled job writes its lifecycle as protocol frame lines to
//! `job-<id>.journal`:
//!
//! ```text
//! SUBMIT ...                    # the admitted request (budget, seed, input)
//! SNAPSHOT ...                  # full-circuit checkpoint (initial, then periodic)
//! DELTA ...                     # one per strict improvement between checkpoints
//! SUBMIT ...                    # appended again per RESUME segment (remaining budget,
//!                               # derived seed, the journaled best as input)
//! ...
//! DONE ...                      # terminal (absent if the process died mid-search)
//! ```
//!
//! The journal is written **losslessly** from the job thread (unlike
//! client delivery, which sheds frames under backpressure) and synced
//! to disk at every checkpoint and at `DONE` — so after a crash the
//! journal is replayable at least up to the last checkpoint, and
//! usually up to the last improvement. [`replay`] folds the lines:
//! `SNAPSHOT` sets the reconstruction absolutely, `DELTA` applies its
//! [`CircuitDelta`] to it, the last `SUBMIT` governs the
//! remaining-budget computation, `DONE` marks the job finished. The
//! server's `RESUME` handler turns the result into a fresh search from
//! the journaled best (see `server.rs`).

use crate::protocol::{Frame, JobRequest, JobSummary};
use qcir::delta::CircuitDelta;
use qcir::{qasm, Circuit};
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

/// The journal file for job `id` under `dir`.
pub fn journal_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.journal"))
}

/// The certificate side file for job `id` under `dir`. Certificates
/// live *beside* the journal, not in it: [`replay`] rejects unknown
/// frame kinds, so the journal grammar stays closed while the `EDIT`
/// flow reads the finished run's stamps from here.
pub fn cert_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("job-{id}.cert"))
}

/// Whether `path` holds a journal for an **unfinished** job: the file
/// exists and its last complete line is not a `DONE` record. A missing
/// file, an empty file, or a file holding only a torn partial line
/// (a crash before the first synced record) are all *not* unfinished —
/// there is nothing recoverable in them to protect.
fn unfinished(path: &Path) -> std::io::Result<bool> {
    let mut text = String::new();
    match File::open(path) {
        Ok(mut f) => f.read_to_string(&mut text)?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
        Err(e) => return Err(e),
    };
    let ends_complete = text.ends_with('\n');
    let mut last_complete = None;
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        if lines.peek().is_none() && !ends_complete {
            break; // torn trailing write: not a record
        }
        if !line.trim().is_empty() {
            last_complete = Some(line);
        }
    }
    Ok(match last_complete {
        Some(line) => !line.starts_with("DONE "),
        None => false,
    })
}

/// An open, append-only job journal. See the [module docs](self) for
/// the line grammar.
#[derive(Debug)]
pub struct JobJournal {
    file: File,
}

impl JobJournal {
    /// Starts a fresh journal for `id` and records the admitted
    /// `request`.
    ///
    /// An existing journal whose last complete record is `DONE` is a
    /// finished run and is truncated (resubmitting a terminal id is a
    /// fresh job). An existing **unfinished** journal is refused with
    /// [`std::io::ErrorKind::AlreadyExists`]: it may be the only
    /// recoverable state of a crashed job — `RESUME` can still rescue
    /// it — and silently truncating it would destroy that. A caller
    /// that really wants to discard the unfinished run opts in via
    /// [`Self::create_overwriting`] (the wire's `SUBMIT overwrite=1`).
    pub fn create(dir: &Path, id: u64, request: &JobRequest) -> std::io::Result<JobJournal> {
        std::fs::create_dir_all(dir)?;
        let path = journal_path(dir, id);
        if unfinished(&path)? {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!(
                    "journal {} records an unfinished job; RESUME it or resubmit with overwrite",
                    path.display()
                ),
            ));
        }
        let file = File::create(path)?;
        let mut j = JobJournal { file };
        j.append_synced(&Frame::Submit(request.clone()))?;
        Ok(j)
    }

    /// Starts a fresh journal for `id`, truncating any existing one —
    /// finished or not. The explicit opt-in behind `SUBMIT
    /// overwrite=1`; the caller asserts the previous run's state is
    /// disposable (e.g. a job whose journal was damaged beyond replay).
    pub fn create_overwriting(
        dir: &Path,
        id: u64,
        request: &JobRequest,
    ) -> std::io::Result<JobJournal> {
        std::fs::create_dir_all(dir)?;
        let file = File::create(journal_path(dir, id))?;
        let mut j = JobJournal { file };
        j.append_synced(&Frame::Submit(request.clone()))?;
        Ok(j)
    }

    /// Reopens job `id`'s journal for a resume segment and records the
    /// synthesized continuation `request` (remaining budget, derived
    /// seed, journaled best as the input circuit).
    pub fn resume(dir: &Path, id: u64, request: &JobRequest) -> std::io::Result<JobJournal> {
        let file = OpenOptions::new()
            .append(true)
            .open(journal_path(dir, id))?;
        let mut j = JobJournal { file };
        j.append_synced(&Frame::Submit(request.clone()))?;
        Ok(j)
    }

    /// Appends one frame line (buffered by the OS; not synced).
    pub fn append(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.file.write_all(frame.encode().as_bytes())
    }

    /// Appends one frame line and syncs the file to disk — the
    /// checkpoint/terminal durability points.
    pub fn append_synced(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.append(frame)?;
        self.file.sync_data()
    }

    /// Recovery append after a failed write: a leading newline closes
    /// whatever torn partial line the failure may have left, then the
    /// frame (a full-snapshot checkpoint, so the replayable suffix
    /// restarts absolutely) is written and synced. [`replay`] ignores
    /// the blank line; if the failure left half a frame, the merged
    /// garbage line is skipped by replay's resync scan.
    pub fn append_resync(&mut self, frame: &Frame) -> std::io::Result<()> {
        self.file.write_all(b"\n")?;
        self.append(frame)?;
        self.file.sync_data()
    }
}

/// A job rebuilt from its journal.
#[derive(Debug, Clone)]
pub struct ReplayedJob {
    /// The governing request — the journal's **last** `SUBMIT` (the
    /// original submission, or the latest resume segment's synthesized
    /// continuation, whose `iters`/`eps` already hold that segment's
    /// remaining budgets).
    pub request: JobRequest,
    /// Best-so-far circuit at the journal's end (the segment's input
    /// circuit if it recorded no improvement yet).
    pub best: Circuit,
    /// Cost of `best` as journaled.
    pub best_cost: f64,
    /// Iteration watermark of the current segment (from its last
    /// journaled improvement; 0 if none landed).
    pub iterations: u64,
    /// Accumulated approximation error of `best` **vs the original
    /// client input**, as journaled (frames carry cumulative ε across
    /// resume segments).
    pub epsilon: f64,
    /// ε already accumulated when the current segment started — what
    /// the segment's own search has spent is the difference.
    pub epsilon_at_segment_start: f64,
    /// The terminal summary, when the job ran to `DONE`.
    pub finished: Option<JobSummary>,
}

/// Replays job `id`'s journal under `dir`. Returns a human-readable
/// error for a missing or fundamentally unusable journal; damage in
/// the *middle* is survivable — a torn trailing line (the crash case)
/// is ignored, and a corrupt or non-chaining line inside the stream
/// drops the replay into a resync scan that discards lines until the
/// next full-circuit record (`SNAPSHOT`/`SUBMIT`/`DONE`) resets the
/// state absolutely (exactly the writer's `append_resync` recovery
/// shape — improvements in the damaged span are lost, never
/// misapplied).
pub fn replay(dir: &Path, id: u64) -> Result<ReplayedJob, String> {
    let path = journal_path(dir, id);
    let mut text = String::new();
    File::open(&path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("no journal for job {id}: {e}"))?;

    let mut request: Option<JobRequest> = None;
    let mut best: Option<Circuit> = None;
    let mut best_cost = f64::INFINITY;
    let mut iterations = 0u64;
    let mut epsilon = 0.0f64;
    let mut eps_segment_start = 0.0f64;
    let mut finished: Option<JobSummary> = None;
    // Scanning past damaged content: only an absolute record may
    // resynchronize the reconstruction.
    let mut seeking_checkpoint = false;
    let ends_complete = text.ends_with('\n');
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        if lines.peek().is_none() && !ends_complete {
            break; // torn trailing write from a crash: ignore
        }
        if line.trim().is_empty() {
            continue;
        }
        let frame = match Frame::parse(line) {
            Ok(f) => f,
            Err(_) => {
                // Damaged line mid-journal (a torn write closed by a
                // later resync append): discard until the next
                // absolute record.
                seeking_checkpoint = true;
                continue;
            }
        };
        if seeking_checkpoint
            && !matches!(
                frame,
                Frame::Snapshot { .. } | Frame::Submit(_) | Frame::Done(_)
            )
        {
            continue;
        }
        match frame {
            Frame::Submit(req) => {
                // A new segment: the watermark restarts with its run,
                // and the cumulative ε so far becomes its baseline.
                request = Some(req);
                iterations = 0;
                eps_segment_start = epsilon;
                finished = None;
                seeking_checkpoint = false;
            }
            Frame::Snapshot {
                cost,
                epsilon: eps,
                iterations: iters,
                qasm,
                ..
            } => {
                let c = qasm::from_qasm(&qasm)
                    .map_err(|e| format!("corrupt journal checkpoint: {e}"))?;
                best = Some(c);
                best_cost = cost;
                iterations = iters;
                epsilon = eps;
                seeking_checkpoint = false;
            }
            Frame::Delta {
                cost,
                epsilon: eps,
                iterations: iters,
                delta,
                ..
            } => {
                // Apply to a scratch copy and commit only on success:
                // a delta that fails mid-chain (a hole from a failed
                // append) must never leave a half-applied best behind
                // — recovery happens at the writer's next resync
                // checkpoint. (O(circuit) per replayed delta; replay
                // runs once per resume, not on any hot path.)
                let chained = CircuitDelta::decode(&delta).ok().and_then(|d| {
                    let mut candidate = best.clone()?;
                    d.apply(&mut candidate).ok().map(|()| candidate)
                });
                let Some(candidate) = chained else {
                    seeking_checkpoint = true;
                    continue;
                };
                best = Some(candidate);
                best_cost = cost;
                iterations = iters;
                epsilon = eps;
            }
            Frame::Done(summary) => {
                let c = qasm::from_qasm(&summary.qasm)
                    .map_err(|e| format!("corrupt journal DONE: {e}"))?;
                best = Some(c);
                best_cost = summary.cost;
                iterations = summary.iterations;
                epsilon = summary.epsilon;
                finished = Some(summary);
                seeking_checkpoint = false;
            }
            other => return Err(format!("unexpected journal frame {other:?}")),
        }
    }
    let request = request.ok_or("journal holds no SUBMIT")?;
    let best = best.ok_or("journal holds no checkpoint")?;
    Ok(ReplayedJob {
        request,
        best,
        best_cost,
        iterations,
        epsilon,
        epsilon_at_segment_start: eps_segment_start.min(epsilon),
        finished,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{EngineSel, Objective};
    use qcir::Gate;

    fn req(id: u64, circuit: &Circuit) -> JobRequest {
        JobRequest {
            id,
            engine: EngineSel::Serial,
            iters: 1000,
            time_ms: 0,
            seed: 7,
            eps: 1e-6,
            objective: Objective::GateCount,
            overwrite: false,
            certify: false,
            qasm: qasm::to_qasm_line(circuit),
        }
    }

    fn workload() -> Circuit {
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::H, &[0]);
        c
    }

    #[test]
    fn journal_roundtrip_checkpoint_plus_deltas() {
        let dir = std::env::temp_dir().join(format!("qserve-jnl-{}", std::process::id()));
        let input = workload();
        let mut j = JobJournal::create(&dir, 1, &req(1, &input)).unwrap();
        j.append_synced(&Frame::Snapshot {
            id: 1,
            cost: 3.0,
            epsilon: 0.0,
            iterations: 0,
            seconds: 0.0,
            qasm: qasm::to_qasm_line(&input),
        })
        .unwrap();
        // One improvement: drop the CX pair.
        let mut improved = input.clone();
        let delta =
            CircuitDelta::from_ops(3, vec![qcir::edit::Patch::new(vec![0, 1], Vec::new(), 0)]);
        delta.apply(&mut improved).unwrap();
        j.append(&Frame::Delta {
            id: 1,
            seq: 1,
            cost: 1.0,
            epsilon: 0.0,
            iterations: 42,
            seconds: 0.1,
            delta: delta.encode(),
        })
        .unwrap();

        let rp = replay(&dir, 1).expect("replayable");
        assert_eq!(rp.best, improved);
        assert_eq!(rp.best_cost, 1.0);
        assert_eq!(rp.iterations, 42);
        assert!(rp.finished.is_none());
        assert_eq!(rp.request.iters, 1000);

        // A resume segment restarts the watermark and governs the budget.
        let mut cont = req(1, &improved);
        cont.iters = 958;
        let _j2 = JobJournal::resume(&dir, 1, &cont).unwrap();
        let rp2 = replay(&dir, 1).expect("replayable after resume segment");
        assert_eq!(rp2.request.iters, 958);
        assert_eq!(rp2.iterations, 0, "fresh segment, no improvement yet");
        assert_eq!(rp2.best, improved, "state carries across segments");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_trailing_line_is_ignored() {
        let dir = std::env::temp_dir().join(format!("qserve-jnl-torn-{}", std::process::id()));
        let input = workload();
        let mut j = JobJournal::create(&dir, 9, &req(9, &input)).unwrap();
        j.append_synced(&Frame::Snapshot {
            id: 9,
            cost: 3.0,
            epsilon: 0.0,
            iterations: 0,
            seconds: 0.0,
            qasm: qasm::to_qasm_line(&input),
        })
        .unwrap();
        // Simulate a crash mid-write: a frame without its newline.
        use std::io::Write as _;
        let mut f = OpenOptions::new()
            .append(true)
            .open(journal_path(&dir, 9))
            .unwrap();
        f.write_all(b"DELTA id=9 seq=1 cost=2 eps=0 iters=5 secon")
            .unwrap();
        drop(f);
        let rp = replay(&dir, 9).expect("torn tail tolerated");
        assert_eq!(rp.best, input);
        assert_eq!(rp.iterations, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_unfinished_journal_until_overwrite_or_done() {
        let dir = std::env::temp_dir().join(format!("qserve-jnl-guard-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let input = workload();

        // First create: fine (no prior journal).
        let mut j = JobJournal::create(&dir, 3, &req(3, &input)).unwrap();
        j.append_synced(&Frame::Snapshot {
            id: 3,
            cost: 3.0,
            epsilon: 0.0,
            iterations: 0,
            seconds: 0.0,
            qasm: qasm::to_qasm_line(&input),
        })
        .unwrap();
        // A second create for the same live id must refuse — the
        // journal's last record is not DONE.
        let err = JobJournal::create(&dir, 3, &req(3, &input)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        // The refused create must not have clobbered the journal.
        let rp = replay(&dir, 3).expect("journal intact after refusal");
        assert!(rp.finished.is_none());
        assert_eq!(rp.best, input);

        // Explicit opt-in truncates it regardless.
        let mut j2 = JobJournal::create_overwriting(&dir, 3, &req(3, &input)).unwrap();
        drop(j);
        // Finish the job: DONE as the last record unlocks plain create.
        j2.append_synced(&Frame::Done(JobSummary {
            id: 3,
            cost: 3.0,
            epsilon: 0.0,
            iterations: 10,
            accepted: 0,
            resynth_hits: 0,
            cache_hits: 0,
            cache_misses: 0,
            queue_ms: 0,
            run_ms: 0,
            fast_ms: 0,
            slow_ms: 0,
            cancelled: false,
            qasm: qasm::to_qasm_line(&input),
        }))
        .unwrap();
        drop(j2);
        JobJournal::create(&dir, 3, &req(3, &input)).expect("finished journal is truncatable");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_tolerates_empty_and_torn_only_journals() {
        let dir = std::env::temp_dir().join(format!("qserve-jnl-torn2-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = workload();

        // Empty file: a crash before the first synced record left
        // nothing recoverable — plain create proceeds.
        std::fs::write(journal_path(&dir, 5), b"").unwrap();
        JobJournal::create(&dir, 5, &req(5, &input)).expect("empty journal is not protected");

        // Torn-only file: half a SUBMIT with no newline, same story.
        std::fs::write(journal_path(&dir, 6), b"SUBMIT id=6 iters=10").unwrap();
        JobJournal::create(&dir, 6, &req(6, &input)).expect("torn-only journal is not protected");

        // But a complete non-DONE line (even followed by a torn tail)
        // is a live job and is protected.
        std::fs::write(
            journal_path(&dir, 7),
            b"SUBMIT id=7 engine=serial iters=10 time_ms=0 seed=1 eps=1e-6 obj=gates qasm=!\nDELT",
        )
        .unwrap();
        let err = JobJournal::create(&dir, 7, &req(7, &input)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_journal_reports_cleanly() {
        let dir = std::env::temp_dir().join("qserve-jnl-none");
        assert!(replay(&dir, 404).is_err());
    }
}
