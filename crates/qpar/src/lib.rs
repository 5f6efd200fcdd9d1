//! `qpar` — sharded parallel optimization over the incremental edit
//! engine.
//!
//! GUOQ is an anytime stochastic search: final quality is a direct
//! function of iterations per second. After the incremental engine made
//! a single iteration O(edit-span), the remaining headroom is
//! parallelism — and local-window optimization parallelizes naturally,
//! as POPQC (Liu et al., 2025) demonstrated: partition the circuit into
//! regions, optimize each region with an independent worker, and manage
//! the region boundaries so cross-boundary optimizations are not
//! permanently blocked.
//!
//! # The shard / commit / rotate protocol
//!
//! The coordinator drives a sequence of **epochs** against a master
//! circuit:
//!
//! 1. **Shard.** The master is partitioned into contiguous instruction
//!    windows with [`qcir::shard::ShardPlan::partition`] — one standalone
//!    circuit per shard over the full register. Shard tasks (circuit +
//!    iteration slice + ε allowance + deterministic per-task seed) go
//!    into a shared MPMC queue.
//! 2. **Optimize.** A fixed pool of workers pulls tasks from the queue.
//!    Each worker owns a [`ShardOptimizer`] (in this workspace: a
//!    `guoq` `ShardDriver` running Algorithm 1 over the shard) and
//!    returns the optimized shard. Because shards are disjoint slices of
//!    one topological order, per-shard semantics preservation composes
//!    to whole-circuit semantics preservation.
//! 3. **Commit.** The coordinator collects all outcomes and reassembles
//!    the master as the concatenation of the optimized shards, charging
//!    each shard's measured ε against the global budget.
//! 4. **Rotate.** The next epoch re-partitions with a shifted phase:
//!    interior cut points move by half a window, so gates split by a
//!    boundary in one epoch are interior in the next (POPQC's managed
//!    boundaries).
//!
//! **Work stealing** falls out of the shared queue: the plan is
//! oversubscribed (more shards than workers), so a worker that
//! finishes early simply pulls the next pending shard — a stalled or
//! slow shard never idles the pool. Each shard also carries a nominal
//! *home* worker (`index % workers`); per-worker [`WorkerStats`]
//! count pickups outside that static assignment (`cross_home`), which
//! measures how much the dynamic queue deviated from round-robin —
//! not corrective steals in the per-worker-deque sense, since the
//! shared FIFO has no affinity to deviate *from*.
//!
//! # Determinism
//!
//! Task seeds are a pure function of (base seed, epoch, shard index),
//! so a shard's outcome does not depend on *which* worker ran it or on
//! thread timing: under an iteration budget, the committed master is a
//! pure function of the input and [`ParallelOpts`]. (The shard count
//! scales with the worker count, so different worker counts explore
//! different partitions; *runs with the same options* are bit-for-bit
//! reproducible, and only the scheduling statistics are racy.)

#![warn(missing_docs)]

use crossbeam_channel::bounded;
use qcir::shard::{ShardPlan, ShardSpec};
use qcir::Circuit;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative cancellation flag shared between a long-running search
/// and whoever may need to stop it early (a serving layer's CANCEL
/// frame, a per-job timeout watchdog, a Ctrl-C handler).
///
/// Cloning shares the flag. Cancellation is sticky: once
/// [`cancel`](CancelToken::cancel) is called every holder observes
/// [`is_cancelled`](CancelToken::is_cancelled) `== true` forever. The
/// search loops check the flag between iterations, so cancellation is
/// prompt (bounded by one iteration / one epoch) but never tears a
/// partially-applied edit: the best-so-far result remains valid — the
/// anytime contract under early exit.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag. Idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`cancel`](CancelToken::cancel) has been called on any
    /// clone of this token.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// One unit of work: optimize a shard circuit under local budgets.
#[derive(Debug, Clone)]
pub struct ShardTask {
    /// Epoch this task belongs to.
    pub epoch: u64,
    /// The window this shard occupies in the master circuit.
    pub spec: ShardSpec,
    /// The shard's instructions as a standalone circuit (full register).
    pub circuit: Circuit,
    /// Iterations the optimizer should spend on this shard this epoch.
    pub slice_iterations: u64,
    /// Approximation error the optimizer may introduce in this slice.
    pub eps_allowance: f64,
    /// Global wall-clock deadline, if the run is time-budgeted.
    pub deadline: Option<Instant>,
    /// Deterministic RNG seed (function of base seed, epoch, shard).
    pub seed: u64,
    /// The worker this shard would land on under static round-robin;
    /// any other worker processing it counts as a cross-home pickup.
    pub home_worker: usize,
}

/// The result of optimizing one shard.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The optimized shard (replaces the task's window on commit).
    pub circuit: Circuit,
    /// Iterations actually performed.
    pub iterations: u64,
    /// Accepted moves.
    pub accepted: u64,
    /// Resynthesis calls that returned a replacement.
    pub resynth_hits: u64,
    /// Approximation error introduced (≤ the task's allowance).
    pub epsilon: f64,
    /// The shard driver's telemetry profile ([`qtrace::Profile`]):
    /// fast/slow time split and per-family accept tallies for this
    /// slice. Default (all-zero) for optimizers that don't measure.
    pub profile: qtrace::Profile,
}

/// A per-worker shard optimizer: the strategy the pool runs on each
/// task. Implementations must preserve the semantics of the shard
/// circuit to within the task's ε allowance.
pub trait ShardOptimizer {
    /// Optimizes one shard. The task is owned: the worker consumes the
    /// shard circuit (no defensive clone needed).
    fn optimize_shard(&mut self, task: ShardTask) -> ShardOutcome;
}

/// Tuning knobs for [`optimize_sharded`].
#[derive(Debug, Clone)]
pub struct ParallelOpts {
    /// Worker threads (clamped to ≥ 1).
    pub workers: usize,
    /// Shards per worker per epoch (> 1 oversubscribes the queue so a
    /// fast worker picks up a slow worker's pending shards).
    pub oversubscribe: usize,
    /// Iterations per shard per epoch (the commit cadence).
    pub slice_iterations: u64,
    /// Target minimum instructions per shard: the shard count is capped
    /// at `circuit_len / min_shard_len` so the *average* window stays at
    /// or above this. (Boundary rotation shifts cuts by half a window,
    /// so an edge window in odd epochs can be up to half this size.)
    pub min_shard_len: usize,
    /// Global approximation-error budget shared by all shards.
    pub eps_total: f64,
    /// Stop starting epochs at this instant (anytime mode).
    pub deadline: Option<Instant>,
    /// Stop once this many iterations were performed across all shards.
    pub max_iterations: Option<u64>,
    /// Base RNG seed for per-task seed derivation.
    pub seed: u64,
    /// Cooperative cancellation: the coordinator stops starting epochs
    /// once the token is cancelled (shard optimizers are expected to
    /// check the same token between iterations so an in-flight epoch
    /// drains promptly). `None` disables the check.
    pub cancel: Option<CancelToken>,
}

impl Default for ParallelOpts {
    fn default() -> Self {
        ParallelOpts {
            workers: 4,
            oversubscribe: 2,
            slice_iterations: 4096,
            min_shard_len: 32,
            eps_total: 1e-8,
            deadline: None,
            max_iterations: None,
            seed: 0xCAFE,
            cancel: None,
        }
    }
}

/// Scheduling and throughput counters for one pool worker.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Worker index within the pool.
    pub worker: usize,
    /// Shard tasks this worker processed.
    pub shards_run: u64,
    /// Tasks processed whose round-robin home was another worker —
    /// how far dynamic scheduling deviated from static assignment
    /// (compare `shards_run` across workers for actual imbalance).
    pub cross_home: u64,
    /// Total iterations across this worker's tasks.
    pub iterations: u64,
    /// Total accepted moves across this worker's tasks.
    pub accepted: u64,
    /// Total resynthesis hits across this worker's tasks.
    pub resynth_hits: u64,
}

/// Aggregate result of a sharded run.
#[derive(Debug, Clone)]
pub struct ParallelOutcome {
    /// The final committed master circuit.
    pub circuit: Circuit,
    /// Completed epochs (shard → optimize → commit rounds).
    pub epochs: u64,
    /// Total iterations across all shards and epochs.
    pub iterations: u64,
    /// Total accepted moves.
    pub accepted: u64,
    /// Total resynthesis hits.
    pub resynth_hits: u64,
    /// Accumulated approximation error (≤ `eps_total`).
    pub epsilon: f64,
    /// Per-worker scheduling statistics.
    pub worker_stats: Vec<WorkerStats>,
    /// Merge of every shard outcome's [`qtrace::Profile`] — the run's
    /// total busy-time split and per-family tallies across all workers.
    pub profile: qtrace::Profile,
}

/// A commit notification passed to the epoch observer — the
/// coordinator's streaming hook: a serving layer can snapshot the
/// committed master here and push a best-so-far frame to its client
/// while the search keeps running.
#[derive(Debug, Clone)]
pub struct CommitInfo<'a> {
    /// Epoch just committed (1-based).
    pub epoch: u64,
    /// The master circuit after the commit.
    pub circuit: &'a Circuit,
    /// The master as it was *before* this commit, by value: the
    /// reassembly replaces the coordinator's master, so the previous
    /// one is moved out here instead of being dropped. An observer
    /// tracking a lazy best-so-far (best ≡ live master while commits
    /// keep improving) freezes exactly this circuit when a commit
    /// fails to improve — no snapshot clone per epoch.
    pub previous: Circuit,
    /// Total iterations so far.
    pub iterations: u64,
    /// Total accepted moves so far (a read of the coordinator's
    /// [`qtrace::Counter`] tally at commit time).
    pub accepted: u64,
    /// Total resynthesis hits so far (same registry-backed tally).
    pub resynth_hits: u64,
    /// Accumulated ε so far.
    pub epsilon: f64,
    /// Merge of every shard profile committed so far — the cumulative
    /// busy-time split the commit observer can stream as telemetry.
    pub profile: qtrace::Profile,
}

/// SplitMix64: the per-task seed derivation.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn task_seed(base: u64, epoch: u64, shard: u64) -> u64 {
    splitmix(base ^ splitmix(epoch ^ splitmix(shard)))
}

/// Runs the shard / commit / rotate protocol on `circuit` with a pool
/// of `opts.workers` threads, each owning the [`ShardOptimizer`] built
/// by `make_worker(worker_index)`.
///
/// `on_commit` observes every committed master (for best-so-far
/// tracking and cost trajectories); commits are monotone improvements
/// for additive cost functions because each shard optimizer returns its
/// best-so-far shard, which is never worse than its input.
///
/// The run stops at `opts.deadline` and/or after `opts.max_iterations`
/// total iterations (whichever comes first; at least one epoch runs if
/// any budget remains).
///
/// # Panics
///
/// Panics when `opts` sets neither `deadline` nor `max_iterations`:
/// the epoch loop would otherwise never return (the search is anytime —
/// it does not converge on its own).
pub fn optimize_sharded<W, F, C>(
    circuit: &Circuit,
    opts: &ParallelOpts,
    make_worker: F,
    mut on_commit: C,
) -> ParallelOutcome
where
    W: ShardOptimizer,
    F: Fn(usize) -> W + Sync,
    C: FnMut(CommitInfo<'_>),
{
    assert!(
        opts.deadline.is_some() || opts.max_iterations.is_some(),
        "optimize_sharded needs a deadline or an iteration cap; an unbudgeted anytime search never returns"
    );
    let workers = opts.workers.max(1);
    let queue_cap = (workers * opts.oversubscribe.max(1)).max(4);
    let (task_tx, task_rx) = bounded::<ShardTask>(queue_cap);
    let (res_tx, res_rx) = bounded::<(usize, ShardOutcome)>(queue_cap);

    std::thread::scope(|scope| {
        let make_worker = &make_worker;
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let task_rx = task_rx.clone();
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    let mut optimizer = make_worker(w);
                    let mut stats = WorkerStats {
                        worker: w,
                        ..Default::default()
                    };
                    while let Ok(task) = task_rx.recv() {
                        if task.home_worker != w {
                            stats.cross_home += 1;
                        }
                        let shard_index = task.spec.index();
                        let out = optimizer.optimize_shard(task);
                        stats.shards_run += 1;
                        stats.iterations += out.iterations;
                        stats.accepted += out.accepted;
                        stats.resynth_hits += out.resynth_hits;
                        if res_tx.send((shard_index, out)).is_err() {
                            break;
                        }
                    }
                    stats
                })
            })
            .collect();
        // The workers hold clones; drop the coordinator's own handles so
        // worker exit (queue disconnect) propagates.
        drop(task_rx);
        drop(res_tx);

        let mut master = circuit.clone();
        let mut epochs = 0u64;
        let mut iterations = 0u64;
        // The accepted/resynth tallies are qtrace counters so CommitInfo
        // and ParallelOutcome report views of the same registry-typed
        // accumulators the shard drivers feed (one vocabulary, no
        // bespoke duplicates).
        let accepted = qtrace::Counter::new();
        let resynth_hits = qtrace::Counter::new();
        let mut epsilon = 0f64;
        let mut profile = qtrace::Profile::default();

        loop {
            if master.is_empty() {
                break; // nothing left to optimize
            }
            if let Some(deadline) = opts.deadline {
                if Instant::now() >= deadline {
                    break;
                }
            }
            if opts.cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
                break;
            }
            let mut remaining = match opts.max_iterations {
                Some(max) => {
                    if iterations >= max {
                        break;
                    }
                    max - iterations
                }
                None => u64::MAX,
            };

            let target_shards = (workers * opts.oversubscribe.max(1))
                .min(master.len() / opts.min_shard_len.max(1))
                .max(1);
            let plan = ShardPlan::partition(&master, target_shards, epochs as usize);
            let nshards = plan.len() as u64;

            for (s, spec) in plan.shards().iter().enumerate() {
                // Split the remaining budget over the shards not yet
                // assigned (ceil), so a budget-tail epoch spends itself
                // evenly instead of smearing a geometric remainder over
                // many O(circuit) commit rounds.
                let unassigned = nshards - s as u64;
                let slice = opts
                    .slice_iterations
                    .min(remaining.div_ceil(unassigned))
                    .min(remaining);
                remaining -= slice;
                let task = ShardTask {
                    epoch: epochs,
                    spec: *spec,
                    circuit: plan.extract(&master, spec.index()),
                    slice_iterations: slice,
                    eps_allowance: ((opts.eps_total - epsilon) / nshards as f64).max(0.0),
                    deadline: opts.deadline,
                    seed: task_seed(opts.seed, epochs, spec.index() as u64),
                    home_worker: spec.index() % workers,
                };
                task_tx.send(task).expect("worker pool disconnected");
            }

            let mut parts: Vec<Option<(Circuit, f64)>> = vec![None; plan.len()];
            let mut epoch_iterations = 0u64;
            for _ in 0..plan.len() {
                // Poll rather than block forever: a worker that panics
                // mid-task never sends its outcome, and the surviving
                // workers keep the result channel connected — without
                // the liveness check the coordinator would hang instead
                // of surfacing the panic.
                let (shard_index, out) = loop {
                    match res_rx.recv_timeout(std::time::Duration::from_millis(200)) {
                        Ok(msg) => break msg,
                        Err(crossbeam_channel::RecvTimeoutError::Timeout) => {
                            assert!(
                                !handles.iter().any(|h| h.is_finished()),
                                "a shard worker exited with tasks outstanding (worker panic)"
                            );
                        }
                        Err(crossbeam_channel::RecvTimeoutError::Disconnected) => {
                            panic!("worker pool disconnected")
                        }
                    }
                };
                epoch_iterations += out.iterations;
                accepted.add(out.accepted);
                resynth_hits.add(out.resynth_hits);
                profile.merge(&out.profile);
                parts[shard_index] = Some((out.circuit, out.epsilon));
            }
            iterations += epoch_iterations;
            let mut circuits = Vec::with_capacity(plan.len());
            // Sum ε in shard-index order, not result-arrival order:
            // f64 addition is non-associative, and the allowance carved
            // from it next epoch must not depend on thread timing.
            for slot in parts {
                let (circuit, eps) = slot.expect("one outcome per shard");
                epsilon += eps;
                circuits.push(circuit);
            }
            let previous = std::mem::replace(&mut master, plan.reassemble(&circuits));
            epochs += 1;
            on_commit(CommitInfo {
                epoch: epochs,
                circuit: &master,
                previous,
                iterations,
                accepted: accepted.get(),
                resynth_hits: resynth_hits.get(),
                epsilon,
                profile,
            });
            if epoch_iterations == 0 {
                // Optimizer made no progress (declined every task, or the
                // deadline passed mid-epoch): stop rather than spin
                // through O(circuit) shard/commit rounds doing nothing.
                break;
            }
        }

        drop(task_tx); // disconnect the queue: workers exit their loops
        let worker_stats = handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect();
        ParallelOutcome {
            circuit: master,
            epochs,
            iterations,
            accepted: accepted.get(),
            resynth_hits: resynth_hits.get(),
            epsilon,
            worker_stats,
            profile,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::{Gate, Qubit};

    /// A toy optimizer: cancels adjacent identical-CX pairs within the
    /// shard and reports one iteration per gate examined.
    struct PairCanceller;

    impl ShardOptimizer for PairCanceller {
        fn optimize_shard(&mut self, task: ShardTask) -> ShardOutcome {
            let mut out = Circuit::new(task.circuit.num_qubits());
            let mut accepted = 0u64;
            let mut skip = false;
            let instrs = task.circuit.instructions();
            for (i, ins) in instrs.iter().enumerate() {
                if skip {
                    skip = false;
                    continue;
                }
                if task.slice_iterations > 0
                    && ins.gate == Gate::Cx
                    && i + 1 < instrs.len()
                    && instrs[i + 1] == *ins
                {
                    skip = true;
                    accepted += 1;
                    continue;
                }
                out.push_instruction(*ins);
            }
            ShardOutcome {
                circuit: out,
                iterations: task.slice_iterations.min(task.circuit.len() as u64),
                accepted,
                resynth_hits: 0,
                epsilon: 0.0,
                profile: qtrace::Profile::default(),
            }
        }
    }

    fn cx_pairs(pairs: usize) -> Circuit {
        let mut c = Circuit::new(4);
        for i in 0..pairs {
            let a = (i % 3) as Qubit;
            c.push(Gate::Cx, &[a, a + 1]);
            c.push(Gate::Cx, &[a, a + 1]);
        }
        c
    }

    #[test]
    fn pool_cancels_everything_across_epochs() {
        let c = cx_pairs(64);
        let opts = ParallelOpts {
            workers: 3,
            oversubscribe: 2,
            slice_iterations: 16,
            min_shard_len: 4,
            max_iterations: Some(10_000),
            ..Default::default()
        };
        let mut commits = 0;
        let out = optimize_sharded(&c, &opts, |_| PairCanceller, |_| commits += 1);
        // Boundary rotation must eventually expose every pair, even ones
        // initially split across a cut.
        assert!(out.circuit.is_empty(), "{} gates left", out.circuit.len());
        assert_eq!(out.epochs as usize, commits);
        assert!(out.iterations <= 10_000);
        let total: u64 = out.worker_stats.iter().map(|s| s.shards_run).sum();
        assert!(total >= out.epochs, "each epoch runs at least one shard");
    }

    #[test]
    fn deterministic_across_runs_and_convergent_across_workers() {
        let c = cx_pairs(32);
        let run = |workers| {
            let opts = ParallelOpts {
                workers,
                oversubscribe: 2,
                slice_iterations: 8,
                min_shard_len: 4,
                max_iterations: Some(2048),
                ..Default::default()
            };
            optimize_sharded(&c, &opts, |_| PairCanceller, |_| {}).circuit
        };
        // Same options → bit-identical master regardless of scheduling.
        assert_eq!(run(3), run(3));
        // Different worker counts partition differently but all drain
        // the fully-cancellable workload.
        for workers in [1, 2, 4] {
            assert!(run(workers).is_empty());
        }
    }

    struct Panicker;

    impl ShardOptimizer for Panicker {
        fn optimize_shard(&mut self, _task: ShardTask) -> ShardOutcome {
            panic!("boom");
        }
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates_instead_of_hanging() {
        let c = cx_pairs(16);
        let opts = ParallelOpts {
            workers: 2,
            min_shard_len: 4,
            max_iterations: Some(100),
            ..Default::default()
        };
        let _ = optimize_sharded(&c, &opts, |_| Panicker, |_| {});
    }

    #[test]
    fn cancel_from_commit_observer_stops_the_run() {
        let c = cx_pairs(64);
        let token = CancelToken::new();
        let opts = ParallelOpts {
            workers: 2,
            oversubscribe: 2,
            slice_iterations: 1, // one cancellation per epoch max
            min_shard_len: 4,
            max_iterations: Some(1_000_000),
            cancel: Some(token.clone()),
            ..Default::default()
        };
        let mut commits = 0u64;
        let out = optimize_sharded(
            &c,
            &opts,
            |_| PairCanceller,
            |info| {
                commits = info.epoch;
                token.cancel();
            },
        );
        // The observer cancelled on the first commit; the coordinator
        // must stop before starting another epoch.
        assert_eq!(out.epochs, 1);
        assert_eq!(commits, 1);
    }

    #[test]
    fn pre_cancelled_token_runs_no_epochs() {
        let c = cx_pairs(8);
        let token = CancelToken::new();
        token.cancel();
        let opts = ParallelOpts {
            workers: 2,
            max_iterations: Some(1000),
            cancel: Some(token),
            ..Default::default()
        };
        let out = optimize_sharded(&c, &opts, |_| PairCanceller, |_| {});
        assert_eq!(out.epochs, 0);
        assert_eq!(out.circuit, c);
    }

    #[test]
    fn zero_budget_runs_no_epochs() {
        let c = cx_pairs(8);
        let opts = ParallelOpts {
            workers: 2,
            max_iterations: Some(0),
            ..Default::default()
        };
        let out = optimize_sharded(&c, &opts, |_| PairCanceller, |_| {});
        assert_eq!(out.epochs, 0);
        assert_eq!(out.circuit, c);
    }
}
