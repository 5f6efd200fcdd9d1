//! The sharded parallel engine: GUOQ over a `qpar` worker pool.
//!
//! [`Engine::Sharded`](crate::Engine::Sharded) runs the shard / commit /
//! rotate protocol (see the [`qpar`] crate docs): the circuit is
//! partitioned into contiguous windows, each worker drives an
//! incremental [`ShardDriver`] over one shard for a fixed iteration
//! slice, and the coordinator concatenates the optimized shards back
//! into the master circuit every epoch, rotating the partition
//! boundaries between epochs so cross-boundary optimizations are not
//! permanently blocked.
//!
//! Soundness: a shard is a contiguous slice of one topological order of
//! the master, extracted over the full register. Every driver move
//! preserves the shard's semantics to within its ε allowance, so the
//! concatenation of optimized shards is ε-equivalent to the master, and
//! the per-epoch allowances are carved from the global `eps_total` so
//! the accumulated error respects Thm. 5.3 end to end.
//!
//! The committed master never worsens for the additive cost functions
//! shipped in [`crate::cost`]: each shard driver returns its *best*
//! shard (no worse than its input), and additive objectives sum over
//! shards. The final result is the best committed master, tracked by
//! the coordinator's commit observer.

use crate::cost::CostFn;
use crate::driver::ShardDriver;
use crate::guoq::{Budget, Guoq, GuoqOpts, GuoqResult, HistoryPoint};
use crate::observe::{EventSink, OptEvent};
use qcir::delta::CircuitDelta;
use qcir::Circuit;
use qpar::{ParallelOpts, ShardOptimizer, ShardOutcome, ShardTask};
use qrewrite::MatchScratch;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// Shards smaller than this are not worth a task round-trip; the shard
/// count is capped so the average window stays at least this long
/// (boundary rotation can halve an edge window in odd epochs).
const MIN_SHARD_LEN: usize = 32;

/// Shards per worker per epoch: more than one oversubscribes the task
/// queue so fast workers steal from slow ones.
const SHARDS_PER_WORKER: usize = 2;

/// One pool worker: drives Algorithm 1 over each shard task it pulls,
/// borrowing the optimizer's transformation pools and recycling one
/// matcher scratch across all its tasks.
struct ShardWorker<'a> {
    guoq: &'a Guoq,
    cost: &'a dyn CostFn,
    /// The optimizer's options with `record_history` cleared (shard
    /// histories would interleave meaninglessly; the coordinator
    /// records the master trajectory instead).
    opts: GuoqOpts,
    started: Instant,
    scratch: MatchScratch,
}

impl<'a> ShardWorker<'a> {
    fn new(guoq: &'a Guoq, cost: &'a dyn CostFn, started: Instant) -> Self {
        let mut opts = guoq.opts().clone();
        opts.record_history = false;
        ShardWorker {
            guoq,
            cost,
            opts,
            started,
            scratch: MatchScratch::new(),
        }
    }
}

impl ShardOptimizer for ShardWorker<'_> {
    fn optimize_shard(&mut self, task: ShardTask) -> ShardOutcome {
        let (fast, slow) = self.guoq.pools();
        let mut rng = SmallRng::seed_from_u64(task.seed);
        let mut driver = ShardDriver::with_scratch(
            task.circuit,
            self.cost,
            &self.opts,
            self.started,
            std::mem::take(&mut self.scratch),
        )
        .with_eps_budget(task.eps_allowance);
        driver.run(
            fast,
            slow,
            &mut rng,
            Budget::Iterations(task.slice_iterations),
            task.deadline,
        );
        let (r, scratch) = driver.finish_recycling();
        self.scratch = scratch;
        ShardOutcome {
            circuit: r.circuit,
            iterations: r.iterations,
            accepted: r.accepted,
            resynth_hits: r.resynth_hits,
            epsilon: r.epsilon,
            profile: r.profile,
        }
    }
}

impl Guoq {
    /// Runs the sharded parallel engine (dispatched from
    /// [`Guoq::optimize`] for [`Engine::Sharded`](crate::Engine::Sharded)).
    pub(crate) fn optimize_sharded<'a>(
        &'a self,
        circuit: &Circuit,
        cost: &'a dyn CostFn,
        workers: usize,
        slice_iterations: u64,
        mut obs: Option<&'a mut EventSink<'a>>,
    ) -> GuoqResult {
        let opts = self.opts();
        let started = Instant::now();
        let popts = ParallelOpts {
            workers: workers.max(1),
            oversubscribe: SHARDS_PER_WORKER,
            slice_iterations: slice_iterations.max(1),
            min_shard_len: MIN_SHARD_LEN,
            eps_total: opts.eps_total,
            deadline: match opts.budget {
                Budget::Time(limit) => Some(started + limit),
                Budget::Iterations(_) => None,
            },
            max_iterations: match opts.budget {
                Budget::Time(_) => None,
                Budget::Iterations(n) => Some(n),
            },
            seed: opts.seed,
            cancel: opts.cancel.clone(),
        };

        let c0 = cost.cost(circuit);
        // Lazy best-so-far: `None` means the live master (the input, if
        // no epoch has committed yet) *is* the best — it is frozen into
        // `Some` only when a commit fails to improve, by moving the
        // pre-commit master out of the `CommitInfo` (no clone).
        let mut best: Option<Circuit> = None;
        let mut cost_best = c0;
        let mut err_best = 0.0;
        let mut history = Vec::new();
        if opts.record_history {
            history.push(HistoryPoint {
                seconds: 0.0,
                iteration: 0,
                best_cost: c0,
                best_two_qubit: circuit.two_qubit_count(),
            });
        }

        let outcome = qpar::optimize_sharded(
            circuit,
            &popts,
            |_worker| ShardWorker::new(self, cost, started),
            |commit| {
                let commit_cost = cost.cost(commit.circuit);
                let seconds = started.elapsed().as_secs_f64();
                if commit_cost < cost_best {
                    // The commit reassembles the master from shard
                    // results, so there is no patch trail to package;
                    // the event delta is the before/after diff against
                    // the previous best (per-epoch edits are localized,
                    // so the diff stays far below a full snapshot). When
                    // `best` is lazy (`None`), the previous best is the
                    // pre-commit master carried on the commit itself.
                    let delta = obs.as_ref().map(|_| {
                        CircuitDelta::diff(
                            best.as_ref().unwrap_or(&commit.previous),
                            commit.circuit,
                        )
                    });
                    best = None; // the committed master is the new best
                    cost_best = commit_cost;
                    err_best = commit.epsilon;
                    if opts.record_history {
                        history.push(HistoryPoint {
                            seconds,
                            iteration: commit.iterations,
                            best_cost: cost_best,
                            best_two_qubit: commit.circuit.two_qubit_count(),
                        });
                    }
                    if let Some(obs) = obs.as_mut() {
                        obs(
                            &OptEvent::Improved {
                                delta: delta.expect("delta built whenever a sink is installed"),
                                cost: cost_best,
                                epsilon: err_best,
                                iterations: commit.iterations,
                                seconds,
                            },
                            commit.circuit,
                        );
                    }
                } else if best.is_none() {
                    // The pre-commit master was the best so far and this
                    // commit did not beat it: take ownership (a move —
                    // the coordinator has already replaced its master).
                    best = Some(commit.previous);
                }
                if let Some(obs) = obs.as_mut() {
                    obs(
                        &OptEvent::EpochCommitted {
                            epoch: commit.epoch,
                            cost: commit_cost,
                            iterations: commit.iterations,
                            seconds,
                        },
                        best.as_ref().unwrap_or(commit.circuit),
                    );
                }
            },
        );

        GuoqResult {
            // `None` ⇒ the final master is the best committed one.
            circuit: best.unwrap_or(outcome.circuit),
            cost: cost_best,
            epsilon: err_best,
            iterations: outcome.iterations,
            accepted: outcome.accepted,
            resynth_hits: outcome.resynth_hits,
            cache_hits: 0,   // filled by `Guoq::dispatch` from the pass
            cache_misses: 0, // counters (shared with every worker)
            history,
            worker_stats: outcome.worker_stats,
            // Busy time summed over all shard drivers (not wall time).
            profile: outcome.profile,
            // Only `Engine::Certifying` certifies.
            certificate: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::GateCount;
    use crate::GuoqOpts;
    use qcir::{Gate, GateSet, Qubit};

    fn redundant(len: usize) -> Circuit {
        let mut c = Circuit::new(4);
        let mut i = 0u32;
        while c.len() + 2 <= len {
            let a = (i % 3) as Qubit;
            c.push(Gate::Cx, &[a, a + 1]);
            c.push(Gate::Cx, &[a, a + 1]);
            i += 1;
        }
        c
    }

    #[test]
    fn sharded_engine_reduces_and_reports_workers() {
        let c = redundant(160);
        let opts = GuoqOpts {
            budget: Budget::Iterations(6000),
            engine: crate::Engine::Sharded {
                workers: 2,
                slice_iterations: 256,
            },
            seed: 11,
            ..Default::default()
        };
        let g = Guoq::rewrite_only(GateSet::Nam, opts);
        let r = g.optimize(&c, &GateCount);
        assert!(r.cost < c.len() as f64, "no reduction: {}", r.cost);
        assert!(!r.worker_stats.is_empty());
        assert!(r.iterations <= 6000);
        assert!(qsim::circuits_equivalent(&c, &r.circuit, 1e-6));
    }

    #[test]
    fn sharded_engine_deterministic_per_opts() {
        let c = redundant(96);
        let mk = || GuoqOpts {
            budget: Budget::Iterations(2000),
            engine: crate::Engine::Sharded {
                workers: 3,
                slice_iterations: 128,
            },
            seed: 5,
            ..Default::default()
        };
        let r1 = Guoq::rewrite_only(GateSet::Nam, mk()).optimize(&c, &GateCount);
        let r2 = Guoq::rewrite_only(GateSet::Nam, mk()).optimize(&c, &GateCount);
        assert_eq!(r1.circuit, r2.circuit);
        assert_eq!(r1.cost, r2.cost);
    }

    #[test]
    fn sharded_workers_share_one_cache_handle() {
        let c = redundant(160);
        let cache = std::sync::Arc::new(guoq_qcache());
        let mk = || GuoqOpts {
            budget: Budget::Iterations(3000),
            engine: crate::Engine::Sharded {
                workers: 2,
                slice_iterations: 128,
            },
            seed: 23,
            resynth_probability: 0.2,
            eps_total: 1e-6,
            cache: Some(std::sync::Arc::clone(&cache)),
            ..Default::default()
        };
        let first = Guoq::for_gate_set(GateSet::Nam, mk()).optimize(&c, &GateCount);
        assert!(qsim::circuits_equivalent(&c, &first.circuit, 1e-4));
        assert!(first.cache_misses > 0, "{first:?}");
        let second = Guoq::for_gate_set(GateSet::Nam, mk()).optimize(&c, &GateCount);
        assert!(second.cache_hits > 0, "repeat sharded run must hit");
        assert!(qsim::circuits_equivalent(&c, &second.circuit, 1e-4));
    }

    fn guoq_qcache() -> qcache::QCache {
        qcache::QCache::with_gate_budget(8192)
    }

    #[test]
    fn sharded_engine_small_circuit_falls_back_to_one_shard() {
        let c = redundant(8);
        let opts = GuoqOpts {
            budget: Budget::Iterations(400),
            engine: crate::Engine::sharded(4),
            ..Default::default()
        };
        let g = Guoq::rewrite_only(GateSet::Nam, opts);
        let r = g.optimize(&c, &GateCount);
        assert!(r.circuit.is_empty(), "{} gates left", r.circuit.len());
        assert!(qsim::circuits_equivalent(&c, &r.circuit, 1e-7));
    }
}
