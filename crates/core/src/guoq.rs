//! The GUOQ algorithm (paper §5, Algorithm 1).
//!
//! A single-candidate stochastic search inspired by simulated annealing:
//! each iteration randomly picks a transformation (resynthesis with small
//! probability, otherwise a uniformly random rewrite rule), applies it to
//! a random subcircuit, and accepts cost-non-increasing moves always and
//! worsening moves with probability `exp(−t·cost'/cost)`. The sum of the
//! measured per-application errors never exceeds the global tolerance
//! `ε_f` (Thm. 4.2 / Thm. 5.3).
//!
//! # Iteration engines
//!
//! GUOQ is an *anytime* algorithm: solution quality is a direct function
//! of iterations per second (paper §5, Fig. 7). Every engine steps the
//! same [`ShardDriver`](crate::driver::ShardDriver) over one working
//! circuit inside a [`SearchCtx`](crate::transform::SearchCtx). Each
//! candidate is a [`qcir::edit::Patch`] from
//! [`Transformation::apply_patch`], priced by [`CostFn::delta`] in
//! O(edit span); a rejected one is dropped without touching the circuit
//! or the heap (`tests/alloc_guard.rs`), an accepted one is committed in
//! place by [`Circuit::apply_patch`](qcir::Circuit::apply_patch).
//!
//! [`Engine`] only schedules that driver — serially, with certification,
//! with resynthesis on a worker thread (§5.3), or one driver per shard
//! on a `qpar` pool ([`crate::sharded`]) — and each variant carries
//! exactly the settings its engine reads, so no configuration that can
//! be written is silently ignored. `tests/patch_differential.rs` checks
//! the patches against the materializing rewrite passes and every
//! engine for semantics and drift-free costs.

use crate::cost::CostFn;
use crate::driver::ShardDriver;
use crate::observe::{CancelToken, EventSink, OptEvent, OptRun};
use crate::transform::{
    CleanupPass, CommutationPass, FusionPass, PatchApplied, ResynthPass, RulePass, Transformation,
};
use crossbeam_channel::bounded;
use qcache::QCache;
use qcir::{Circuit, GateSet};
use qsynth::{shared_resynthesizer, ResynthProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum random-subcircuit width for resynthesis (paper: 3).
const MAX_SUBCIRCUIT_QUBITS: usize = 3;

/// Iterations each shard runs between commits in [`Engine::sharded`]
/// (the epoch cadence — smaller commits more often, larger amortizes
/// the commit/rotate overhead over more search).
pub const DEFAULT_SLICE_ITERATIONS: u64 = 4096;

/// Which iteration engine drives the search. Each variant carries the
/// settings only that engine reads.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Engine {
    /// One [`ShardDriver`] over the whole circuit on the calling
    /// thread: O(edit-span) slot retire/claim per accepted edit and
    /// O(edit-span) cost deltas, so per-iteration work scales with the
    /// edit, not the circuit.
    #[default]
    Serial,
    /// [`Engine::Serial`] plus POPQC-style local-optimality
    /// certification ([`qcert`]): once the best cost plateaus, the
    /// search stamps windows that survive a fixed number of probes, and
    /// when stamps cover enough of the circuit it stops early, emitting
    /// [`OptEvent`]`::Certified` and returning
    /// [`GuoqResult::certificate`]. Its trajectory differs from
    /// [`Engine::Serial`]'s under the same seed.
    Certifying {
        /// Certificate to seed the sweep with (an EDIT re-optimization
        /// passes the finished job's rebased certificate, so still-valid
        /// windows start certified).
        prior: Option<qcert::Certificate>,
    },
    /// §5.3 "applying resynthesis asynchronously": resynthesis runs on
    /// a worker thread against a snapshot while rewrites keep
    /// iterating; an accepted result replaces the working circuit,
    /// discarding the interim rewrite edits. Results depend on thread
    /// timing. Without a resynthesis pass (e.g.
    /// [`Guoq::rewrite_only`]) there is nothing to run asynchronously
    /// and the search is exactly [`Engine::Serial`].
    Async,
    /// Region-partitioned parallel search: pool threads each drive a
    /// [`ShardDriver`] over a contiguous shard of the circuit; a
    /// coordinator commits shard results and rotates shard boundaries
    /// every epoch (see [`crate::sharded`]). Resynthesis runs
    /// synchronously inside each thread.
    ///
    /// `workers` fixes the shard plan; `threads` only says how many pool
    /// threads run it. Without a shared [`GuoqOpts::cache`], an
    /// iteration-budgeted result does not depend on `threads`, so a
    /// server granted fewer slots than `workers` serves the circuit the
    /// full grant would have.
    Sharded {
        /// Planned workers (clamped to ≥ 1): the shard count, the task
        /// seeds and the task homes follow from it.
        workers: usize,
        /// Pool threads that run the plan (clamped to `1..=workers`).
        threads: usize,
        /// Iterations each shard runs between commits (clamped to ≥ 1).
        slice_iterations: u64,
    },
}

impl Engine {
    /// The sharded engine with `workers` planned workers, one thread
    /// each, and the default epoch cadence
    /// ([`DEFAULT_SLICE_ITERATIONS`]).
    pub fn sharded(workers: usize) -> Self {
        Engine::Sharded {
            workers,
            threads: workers,
            slice_iterations: DEFAULT_SLICE_ITERATIONS,
        }
    }
}

/// Search budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Wall-clock limit (the paper's mode; GUOQ is an anytime algorithm).
    Time(Duration),
    /// Iteration-count limit (deterministic; used by tests).
    Iterations(u64),
}

impl Budget {
    /// True once the budget is spent: `iterations` performed since the
    /// search `started`.
    pub fn exhausted(&self, started: Instant, iterations: u64) -> bool {
        match *self {
            Budget::Time(limit) => started.elapsed() >= limit,
            Budget::Iterations(n) => iterations >= n,
        }
    }
}

/// Options for [`Guoq`]. Every field is honoured by every engine;
/// engine-specific settings live on [`Engine`]'s variants.
#[derive(Debug, Clone)]
pub struct GuoqOpts {
    /// Search budget.
    pub budget: Budget,
    /// Global error tolerance `ε_f` (hard constraint, Def. 5.2).
    pub eps_total: f64,
    /// Acceptance temperature `t` (paper: 10 — near-greedy).
    pub temperature: f64,
    /// Probability of choosing resynthesis per iteration (paper: 1.5%).
    pub resynth_probability: f64,
    /// RNG seed.
    pub seed: u64,
    /// Record a best-cost-over-time trace (Fig. 7).
    pub record_history: bool,
    /// Iteration engine (serial by default).
    pub engine: Engine,
    /// Cooperative cancellation: every engine checks the token between
    /// iterations (workers between shard-slice iterations, the
    /// coordinator between epochs) and returns its best-so-far result
    /// early once it is raised — the anytime contract under early exit.
    /// `None` (the default) disables the check. Cloning the options
    /// shares the token.
    pub cancel: Option<CancelToken>,
    /// Resynthesis memo cache, consulted before every numerical
    /// instantiation and populated after (see [`qcache::QCache`]).
    /// Sharing one handle across jobs/engines/workers is the point:
    /// repeated and similar windows skip straight to a verified cached
    /// replacement. `None` (the default) disables memoization. Cloning
    /// the options shares the cache.
    ///
    /// Cache hits consume no synthesizer RNG draws, so a cached run
    /// explores a different (equally sound, never-unsound) trajectory
    /// than an uncached run with the same seed; per-seed bit-for-bit
    /// reproducibility holds only for a fixed starting cache state
    /// (e.g. every run on a fresh cache, or none).
    pub cache: Option<Arc<QCache>>,
}

impl Default for GuoqOpts {
    fn default() -> Self {
        GuoqOpts {
            budget: Budget::Time(Duration::from_secs(10)),
            eps_total: 1e-8,
            temperature: 10.0,
            resynth_probability: 0.015,
            seed: 0xCAFE,
            record_history: false,
            engine: Engine::Serial,
            cancel: None,
            cache: None,
        }
    }
}

/// One sample of the best-so-far trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistoryPoint {
    /// Seconds since the search started.
    pub seconds: f64,
    /// Iteration index.
    pub iteration: u64,
    /// Best cost so far.
    pub best_cost: f64,
    /// Two-qubit gate count of the best circuit so far.
    pub best_two_qubit: usize,
}

/// The result of a GUOQ run.
#[derive(Debug, Clone)]
pub struct GuoqResult {
    /// Best circuit found.
    pub circuit: Circuit,
    /// Its cost under the objective.
    pub cost: f64,
    /// Accumulated error bound of the best circuit (≤ `ε_f`).
    pub epsilon: f64,
    /// Iterations performed.
    pub iterations: u64,
    /// Accepted moves.
    pub accepted: u64,
    /// Resynthesis calls that returned a replacement.
    pub resynth_hits: u64,
    /// Resynthesis calls served from the memo cache (0 without
    /// [`GuoqOpts::cache`]).
    pub cache_hits: u64,
    /// Resynthesis calls that consulted the cache, missed, and fell
    /// back to fresh synthesis (0 without [`GuoqOpts::cache`]).
    pub cache_misses: u64,
    /// Best-so-far trace (empty unless `record_history`).
    pub history: Vec<HistoryPoint>,
    /// Per-worker scheduling statistics (empty unless the run used
    /// [`Engine::Sharded`]).
    pub worker_stats: Vec<qpar::WorkerStats>,
    /// The run's fast/slow time split and per-family accept tallies
    /// (see [`qtrace::Profile`]). Sharded runs merge every shard
    /// driver's profile, so `total_ns` is busy time, not wall time.
    /// Times are zero when [`qtrace::enabled`] was off at run start;
    /// the tallies always count.
    pub profile: qtrace::Profile,
    /// The local-optimality certificate: the surviving window stamps of
    /// an [`Engine::Certifying`] run that completed its sweep and
    /// terminated early. `None` for other engines and for certifying
    /// runs that exhausted their budget before covering the circuit.
    pub certificate: Option<qcert::Certificate>,
}

/// The GUOQ optimizer: an instantiation of the transformation framework
/// plus the Algorithm-1 search loop.
pub struct Guoq {
    fast: Vec<Box<dyn Transformation>>,
    slow: Vec<ResynthPass>,
    opts: GuoqOpts,
}

impl Guoq {
    /// The paper's full instantiation for a gate set: the QUESO-style rule
    /// corpus, the exact built-in passes, and resynthesis.
    ///
    /// The rule corpus and the resynthesizer come from the process-wide
    /// per-gate-set registries (`qrewrite::shared_rules_for`,
    /// [`qsynth::shared_resynthesizer`]): constructing a `Guoq` no
    /// longer rebuilds either, so per-job setup is cheap enough for a
    /// serving loop.
    pub fn for_gate_set(set: GateSet, opts: GuoqOpts) -> Self {
        let mut g = Self::rewrite_only(set, opts);
        g.slow.push(Self::resynth_pass(set, &g.opts));
        g
    }

    /// The shared-resynthesizer pass configured from `opts` (ε share,
    /// width cap, memo cache handle).
    fn resynth_pass(set: GateSet, opts: &GuoqOpts) -> ResynthPass {
        let eps = (opts.eps_total / 8.0).max(1e-12);
        let rs = shared_resynthesizer(set, ResynthProfile::Fast);
        ResynthPass::new(rs, MAX_SUBCIRCUIT_QUBITS, eps).with_cache(opts.cache.clone())
    }

    /// Ablation: rewrite rules (and exact passes) only — `GUOQ-REWRITE`.
    pub fn rewrite_only(set: GateSet, opts: GuoqOpts) -> Self {
        let mut fast: Vec<Box<dyn Transformation>> = Vec::new();
        for rule in qrewrite::shared_rules_for(set).iter() {
            fast.push(Box::new(RulePass::new(rule.clone())));
        }
        fast.push(Box::new(FusionPass::new(set)));
        fast.push(Box::new(CommutationPass));
        fast.push(Box::new(CleanupPass));
        Guoq {
            fast,
            slow: Vec::new(),
            opts,
        }
    }

    /// Ablation: resynthesis only — `GUOQ-RESYNTH`.
    pub fn resynth_only(set: GateSet, opts: GuoqOpts) -> Self {
        let slow = vec![Self::resynth_pass(set, &opts)];
        Guoq {
            fast: Vec::new(), // every iteration is a resynthesis attempt
            slow,
            opts,
        }
    }

    /// A custom instantiation from explicit transformation pools.
    pub fn new(fast: Vec<Box<dyn Transformation>>, slow: Vec<ResynthPass>, opts: GuoqOpts) -> Self {
        Guoq { fast, slow, opts }
    }

    /// The configured options.
    pub fn opts(&self) -> &GuoqOpts {
        &self.opts
    }

    /// The transformation pools (fast rewrites, slow resynthesis) —
    /// shared with the shard workers.
    pub(crate) fn pools(&self) -> (&[Box<dyn Transformation>], &[ResynthPass]) {
        (&self.fast, &self.slow)
    }

    /// Runs Algorithm 1 on `circuit` under `cost`, discarding the event
    /// stream. A thin shim over the event-sourced API (see
    /// [`Self::optimize_events`]); kept as the blocking convenience
    /// entry point.
    pub fn optimize(&self, circuit: &Circuit, cost: &dyn CostFn) -> GuoqResult {
        self.dispatch(circuit, cost, None)
    }

    /// The event-sourced run (see [`crate::observe`]): `on_event` is
    /// invoked synchronously on the search (or coordinator) thread with
    /// every [`OptEvent`] — `Started`, one `Improved` (with its
    /// [`qcir::delta::CircuitDelta`] from the previous best) per strict
    /// improvement from all four engines, `EpochCommitted` heartbeats
    /// from the sharded engine, `CacheStats`, and `Finished`. The
    /// second argument is the best-so-far circuit at the event, for
    /// sinks that serve full snapshots without replaying deltas.
    ///
    /// The returned result is identical to [`Self::optimize`] under the
    /// same options — observation never perturbs the search trajectory.
    pub fn optimize_events(
        &self,
        circuit: &Circuit,
        cost: &dyn CostFn,
        on_event: &mut dyn FnMut(&OptEvent, &Circuit),
    ) -> GuoqResult {
        on_event(
            &OptEvent::Started {
                cost: cost.cost(circuit),
                gates: circuit.len(),
            },
            circuit,
        );
        let result = self.dispatch(circuit, cost, Some(on_event));
        on_event(
            &OptEvent::CacheStats {
                hits: result.cache_hits,
                misses: result.cache_misses,
            },
            &result.circuit,
        );
        on_event(&OptEvent::Finished(result.clone()), &result.circuit);
        result
    }

    /// Spawns the search on a worker thread and returns an [`OptRun`]
    /// handle yielding owned [`OptEvent`]s — the event-sourced API for
    /// consumers that want to pull the stream instead of installing a
    /// sink. Delivery is lossless and consumer-paced (bounded channel);
    /// build the `Guoq` with [`GuoqOpts::cancel`] to make the handle's
    /// [`OptRun::cancel`] effective.
    pub fn run(self: &Arc<Self>, circuit: &Circuit, cost: impl CostFn + 'static) -> OptRun {
        /// Sized for bursty improvement streams; a consumer further
        /// behind than this backpressures the search thread.
        const EVENT_CHANNEL_CAP: usize = 1024;
        let (tx, rx) = bounded::<OptEvent>(EVENT_CHANNEL_CAP);
        let cancel = self.opts.cancel.clone();
        let guoq = Arc::clone(self);
        let circuit = circuit.clone();
        let handle = std::thread::spawn(move || {
            let mut receiver_gone = false;
            guoq.optimize_events(&circuit, &cost, &mut |ev, _best| {
                if !receiver_gone && tx.send(ev.clone()).is_err() {
                    // Handle dropped: discard further events, finish the
                    // search (promptly if its token was raised).
                    receiver_gone = true;
                }
            });
        });
        OptRun::new(rx, cancel, handle)
    }

    /// Sum of the slow passes' (cache hit, cache miss) counters.
    fn cache_counters(&self) -> (u64, u64) {
        self.slow
            .iter()
            .map(|p| p.cache_counters())
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    fn dispatch<'a>(
        &'a self,
        circuit: &Circuit,
        cost: &'a dyn CostFn,
        obs: Option<&'a mut EventSink<'a>>,
    ) -> GuoqResult {
        // The pass counters are cumulative over the Guoq instance (and
        // shared with async worker clones); report this run's delta.
        let (hits0, misses0) = self.cache_counters();
        let mut result = match &self.opts.engine {
            Engine::Sharded {
                workers,
                threads,
                slice_iterations,
            } => self.optimize_sharded(circuit, cost, *workers, *threads, *slice_iterations, obs),
            Engine::Async if !self.slow.is_empty() => self.optimize_async(circuit, cost, obs),
            Engine::Serial | Engine::Certifying { .. } | Engine::Async => {
                self.optimize_serial(circuit, cost, obs)
            }
        };
        let (hits1, misses1) = self.cache_counters();
        result.cache_hits = hits1 - hits0;
        result.cache_misses = misses1 - misses0;
        result
    }

    /// The serial driver: one [`ShardDriver`] over the whole circuit,
    /// stepped until the budget runs out — with certification armed for
    /// [`Engine::Certifying`].
    fn optimize_serial<'a>(
        &'a self,
        circuit: &Circuit,
        cost: &'a dyn CostFn,
        obs: Option<&'a mut EventSink<'a>>,
    ) -> GuoqResult {
        let mut rng = SmallRng::seed_from_u64(self.opts.seed);
        let mut driver = ShardDriver::new(circuit.clone(), cost, &self.opts, Instant::now());
        if let Engine::Certifying { prior } = &self.opts.engine {
            driver = driver.with_certification(prior.as_ref());
        }
        let mut driver = driver.with_event_sink(obs);
        driver.run(&self.fast, &self.slow, &mut rng, self.opts.budget, None);
        driver.finish()
    }

    /// §5.3 "Applying resynthesis asynchronously": fast rewrites run
    /// against the working circuit while resynthesis works on a snapshot
    /// in a worker thread. The worker returns its edit as a patch
    /// against that snapshot; the driver prices it as the snapshot's
    /// cost plus [`CostFn::delta`], and only an accepted result is
    /// applied — replacing the whole working circuit and discarding
    /// interim rewrite edits, as §5.3 prescribes. That replacement is
    /// the one O(circuit) event in this engine; it happens at the
    /// resynthesis rate, not the iteration rate.
    fn optimize_async<'a>(
        &'a self,
        circuit: &Circuit,
        cost: &'a dyn CostFn,
        obs: Option<&'a mut EventSink<'a>>,
    ) -> GuoqResult {
        use crossbeam_channel::TryRecvError;

        type Req = (Circuit, qcir::Region, u64);
        type Resp = (Circuit, Option<PatchApplied>);

        let mut rng = SmallRng::seed_from_u64(self.opts.seed);
        let started = Instant::now();
        let mut driver =
            ShardDriver::new(circuit.clone(), cost, &self.opts, started).with_event_sink(obs);

        let (req_tx, req_rx) = bounded::<Req>(1);
        let (resp_tx, resp_rx) = bounded::<Resp>(1);
        let worker_pass = self.slow[0].clone();
        // The slow span runs on the worker thread, outside the driver's
        // `step` timing — measure it there and credit the driver after
        // the join. It overlaps the interleaved rewrites by design, so
        // the derived fast time is "main-thread time not accounted to
        // resynthesis" (clamped at zero in the profile).
        let slow_ns = Arc::new(qtrace::Counter::new());
        let worker_slow_ns = Arc::clone(&slow_ns);
        let instrument = qtrace::enabled();
        let worker = std::thread::spawn(move || {
            while let Ok((snapshot, region, seed)) = req_rx.recv() {
                let mut wrng = SmallRng::seed_from_u64(seed);
                let t0 = instrument.then(Instant::now);
                let pa = worker_pass.resynthesize_region_patch(&snapshot, &region, &mut wrng);
                if let Some(t0) = t0 {
                    worker_slow_ns.add(t0.elapsed().as_nanos() as u64);
                }
                if resp_tx.send((snapshot, pa)).is_err() {
                    break;
                }
            }
        });

        // Tracked cost of the snapshot in flight (the working circuit's
        // cost when it was sent).
        let mut in_flight: Option<f64> = None;
        while !self.opts.budget.exhausted(started, driver.iterations()) && !driver.is_cancelled() {
            driver.begin_iteration();
            // Drain any finished resynthesis first.
            match resp_rx.try_recv() {
                Ok((snapshot, pa)) => {
                    let snapshot_cost = in_flight.take().expect("a response answers a request");
                    if let Some(pa) = pa {
                        driver.offer_resynth(snapshot, snapshot_cost, pa, &mut rng);
                    }
                }
                Err(TryRecvError::Empty) => {}
                Err(TryRecvError::Disconnected) => break,
            }
            let want_slow =
                in_flight.is_none() && rng.random::<f64>() < self.opts.resynth_probability;
            if want_slow {
                if !driver.can_afford(self.slow[0].epsilon()) {
                    continue;
                }
                if let Some(region) = self.slow[0].pick_region(driver.circuit(), &mut rng) {
                    let seed = rng.random::<u64>();
                    if req_tx
                        .send((driver.circuit().clone(), region, seed))
                        .is_ok()
                    {
                        in_flight = Some(driver.current_cost());
                    }
                }
            } else if !self.fast.is_empty() {
                driver.fast_move(&self.fast, &mut rng);
            }
        }
        drop(req_tx);
        // Drain a possibly in-flight result so the worker can exit.
        if let Some(snapshot_cost) = in_flight {
            if let Ok((snapshot, Some(pa))) = resp_rx.recv() {
                driver.offer_resynth(snapshot, snapshot_cost, pa, &mut rng);
            }
        }
        drop(resp_rx);
        let _ = worker.join();
        driver.add_slow_ns(slow_ns.get());
        driver.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{GateCount, TwoQubitCount};
    use qcir::Gate;

    fn opts(iters: u64) -> GuoqOpts {
        GuoqOpts {
            budget: Budget::Iterations(iters),
            eps_total: 1e-6,
            seed: 7,
            ..Default::default()
        }
    }

    fn redundant_circuit() -> Circuit {
        // CX pairs and mergeable rotations sprinkled over 3 qubits.
        let mut c = Circuit::new(3);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Rz(0.4), &[2]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Rz(0.3), &[2]);
        c.push(Gate::X, &[0]);
        c.push(Gate::X, &[0]);
        c.push(Gate::Cx, &[1, 2]);
        c.push(Gate::Cx, &[1, 2]);
        c
    }

    #[test]
    fn shrinks_redundant_circuit() {
        let c = redundant_circuit();
        let g = Guoq::rewrite_only(GateSet::Nam, opts(400));
        let r = g.optimize(&c, &GateCount);
        assert!(r.cost <= 2.0, "cost {}", r.cost);
        assert_eq!(r.epsilon, 0.0);
        assert!(qsim::circuits_equivalent(&c, &r.circuit, 1e-6));
    }

    #[test]
    fn full_guoq_uses_resynthesis() {
        let c = redundant_circuit();
        let mut o = opts(300);
        o.resynth_probability = 0.25; // force frequent slow moves in test
        let g = Guoq::for_gate_set(GateSet::Nam, o);
        let r = g.optimize(&c, &TwoQubitCount);
        assert!(r.cost <= 1.0, "2q count {}", r.cost);
        assert!(r.epsilon <= 1e-6);
        assert!(qsim::circuits_equivalent(&c, &r.circuit, 1e-4));
    }

    #[test]
    fn error_budget_respected() {
        let c = redundant_circuit();
        let mut o = opts(200);
        o.eps_total = 0.0; // only exact moves allowed
        o.resynth_probability = 0.5;
        let g = Guoq::for_gate_set(GateSet::Nam, o);
        let r = g.optimize(&c, &TwoQubitCount);
        assert_eq!(r.epsilon, 0.0);
        assert!(qsim::circuits_equivalent(&c, &r.circuit, 1e-7));
    }

    #[test]
    fn deterministic_under_seed() {
        let c = redundant_circuit();
        let g1 = Guoq::rewrite_only(GateSet::Nam, opts(150));
        let g2 = Guoq::rewrite_only(GateSet::Nam, opts(150));
        let r1 = g1.optimize(&c, &GateCount);
        let r2 = g2.optimize(&c, &GateCount);
        assert_eq!(r1.cost, r2.cost);
        assert_eq!(r1.accepted, r2.accepted);
    }

    #[test]
    fn history_is_monotone() {
        let c = redundant_circuit();
        let mut o = opts(300);
        o.record_history = true;
        let g = Guoq::rewrite_only(GateSet::Nam, o);
        let r = g.optimize(&c, &GateCount);
        assert!(!r.history.is_empty());
        for w in r.history.windows(2) {
            assert!(w[1].best_cost <= w[0].best_cost);
        }
    }

    #[test]
    fn async_mode_matches_semantics() {
        let c = redundant_circuit();
        let mut o = opts(400);
        o.engine = Engine::Async;
        o.resynth_probability = 0.3;
        let g = Guoq::for_gate_set(GateSet::Nam, o);
        let r = g.optimize(&c, &TwoQubitCount);
        assert!(qsim::circuits_equivalent(&c, &r.circuit, 1e-4));
        assert!(r.cost <= TwoQubitCount.cost(&c));
    }

    #[test]
    fn empty_circuit_survives() {
        let c = Circuit::new(2);
        let g = Guoq::for_gate_set(GateSet::Nam, opts(50));
        let r = g.optimize(&c, &GateCount);
        assert!(r.circuit.is_empty());
    }

    /// Replays every `Improved` delta onto `input`, asserting stream
    /// shape (Started first, strictly decreasing costs, CacheStats then
    /// Finished last) and returning the reconstructed final best.
    fn replay_events(input: &Circuit, events: &[OptEvent]) -> (Circuit, f64) {
        assert!(
            matches!(events.first(), Some(OptEvent::Started { .. })),
            "stream must open with Started"
        );
        assert!(
            matches!(events.last(), Some(OptEvent::Finished(_))),
            "stream must close with Finished"
        );
        let mut current = input.clone();
        let mut last_cost = f64::INFINITY;
        for ev in events {
            if let OptEvent::Improved { delta, cost, .. } = ev {
                assert!(*cost < last_cost, "non-monotone Improved stream");
                last_cost = *cost;
                // The wire round-trip is part of the contract.
                let decoded = qcir::delta::CircuitDelta::decode(&delta.encode()).unwrap();
                decoded
                    .apply(&mut current)
                    .expect("delta applies to prior best");
            }
        }
        (current, last_cost)
    }

    fn assert_event_stream_replays(engine: Engine, iters: u64) {
        let c = redundant_circuit();
        let mut o = opts(iters);
        o.engine = engine;
        let direct = Guoq::rewrite_only(GateSet::Nam, o.clone()).optimize(&c, &GateCount);
        let mut events = Vec::new();
        let observed =
            Guoq::rewrite_only(GateSet::Nam, o)
                .optimize_events(&c, &GateCount, &mut |ev, _| events.push(ev.clone()));
        assert_eq!(
            observed.circuit, direct.circuit,
            "events perturbed the search"
        );
        assert_eq!(observed.cost, direct.cost);
        let (replayed, last_cost) = replay_events(&c, &events);
        assert_eq!(
            replayed, observed.circuit,
            "replaying deltas must reconstruct the final best bit for bit"
        );
        assert_eq!(last_cost, observed.cost);
        match events.last() {
            Some(OptEvent::Finished(r)) => {
                assert_eq!(r.circuit, observed.circuit);
                assert_eq!(r.iterations, observed.iterations);
            }
            other => panic!("unexpected terminal event {other:?}"),
        }
    }

    #[test]
    fn event_stream_replays_incremental_engine() {
        assert_event_stream_replays(Engine::Serial, 400);
    }

    #[test]
    fn event_stream_replays_sharded_engine_with_epoch_heartbeats() {
        let mut c = Circuit::new(4);
        for i in 0..40u32 {
            let a = (i % 3) as qcir::Qubit;
            c.push(Gate::Cx, &[a, a + 1]);
            c.push(Gate::Cx, &[a, a + 1]);
        }
        let o = GuoqOpts {
            budget: Budget::Iterations(4000),
            engine: Engine::Sharded {
                workers: 2,
                threads: 2,
                slice_iterations: 128,
            },
            seed: 3,
            ..Default::default()
        };
        let mut events = Vec::new();
        let r =
            Guoq::rewrite_only(GateSet::Nam, o)
                .optimize_events(&c, &GateCount, &mut |ev, _| events.push(ev.clone()));
        let (replayed, _) = replay_events(&c, &events);
        assert_eq!(replayed, r.circuit);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, OptEvent::EpochCommitted { .. })),
            "sharded runs must heartbeat their commits"
        );
    }

    #[test]
    fn event_stream_replays_async_resynth_engine() {
        let c = redundant_circuit();
        let mut o = opts(400);
        o.engine = Engine::Async;
        o.resynth_probability = 0.3;
        let mut events = Vec::new();
        let r = Guoq::for_gate_set(GateSet::Nam, o).optimize_events(
            &c,
            &TwoQubitCount,
            &mut |ev, _| events.push(ev.clone()),
        );
        let (replayed, _) = replay_events(&c, &events);
        assert_eq!(
            replayed, r.circuit,
            "async full-circuit accepts must replay"
        );
        assert!(qsim::circuits_equivalent(&c, &r.circuit, 1e-4));
    }

    #[test]
    fn opt_run_handle_streams_and_waits() {
        let c = redundant_circuit();
        let g = std::sync::Arc::new(Guoq::rewrite_only(GateSet::Nam, opts(400)));
        let direct = g.optimize(&c, &GateCount);
        let events: Vec<OptEvent> = g.run(&c, GateCount).collect();
        let (replayed, _) = replay_events(&c, &events);
        assert_eq!(replayed, direct.circuit);
        // wait() returns the final result.
        let result = g.run(&c, GateCount).wait().expect("search completes");
        assert_eq!(result.circuit, direct.circuit);
        assert_eq!(result.cost, direct.cost);
    }

    #[test]
    fn opt_run_cancel_is_effective_with_a_token() {
        let c = redundant_circuit();
        let token = crate::CancelToken::new();
        let mut o = opts(u64::MAX);
        o.cancel = Some(token);
        let g = std::sync::Arc::new(Guoq::rewrite_only(GateSet::Nam, o));
        let mut run = g.run(&c, GateCount);
        assert!(run.cancel(), "token-backed run must accept cancel");
        let mut saw_finished = false;
        while let Some(ev) = run.next_event() {
            if let OptEvent::Finished(r) = ev {
                saw_finished = true;
                assert!(qsim::circuits_equivalent(&c, &r.circuit, 1e-6));
            }
        }
        assert!(saw_finished);
    }

    #[test]
    fn observer_streams_strict_improvements_without_perturbing_search() {
        let c = redundant_circuit();
        let direct = Guoq::rewrite_only(GateSet::Nam, opts(400)).optimize(&c, &GateCount);

        let mut costs: Vec<f64> = Vec::new();
        let mut last: Option<Circuit> = None;
        let observed = Guoq::rewrite_only(GateSet::Nam, opts(400)).optimize_events(
            &c,
            &GateCount,
            &mut |ev, best| {
                if let OptEvent::Improved { cost, .. } = ev {
                    costs.push(*cost);
                    last = Some(best.clone());
                }
            },
        );

        // Observation never changes the trajectory…
        assert_eq!(observed.circuit, direct.circuit);
        assert_eq!(observed.cost, direct.cost);
        // …the snapshot sequence is strictly decreasing…
        assert!(
            !costs.is_empty(),
            "a shrinking run must improve at least once"
        );
        for w in costs.windows(2) {
            assert!(w[1] < w[0], "non-monotone snapshots: {costs:?}");
        }
        // …and the last snapshot is the final best.
        assert_eq!(*costs.last().unwrap(), observed.cost);
        assert_eq!(last.unwrap(), observed.circuit);
    }

    #[test]
    fn observer_fires_for_sharded_commits() {
        let mut c = Circuit::new(4);
        for i in 0..40u32 {
            let a = (i % 3) as qcir::Qubit;
            c.push(Gate::Cx, &[a, a + 1]);
            c.push(Gate::Cx, &[a, a + 1]);
        }
        let o = GuoqOpts {
            budget: Budget::Iterations(4000),
            engine: Engine::Sharded {
                workers: 2,
                threads: 2,
                slice_iterations: 128,
            },
            seed: 3,
            ..Default::default()
        };
        let mut costs: Vec<f64> = Vec::new();
        let r =
            Guoq::rewrite_only(GateSet::Nam, o).optimize_events(&c, &GateCount, &mut |ev, _| {
                if let OptEvent::Improved { cost, .. } = ev {
                    costs.push(*cost);
                }
            });
        assert!(!costs.is_empty());
        for w in costs.windows(2) {
            assert!(w[1] < w[0]);
        }
        assert_eq!(*costs.last().unwrap(), r.cost);
    }

    #[test]
    fn cancelled_serial_run_stops_early_with_valid_best() {
        let c = redundant_circuit();
        let token = crate::CancelToken::new();
        token.cancel(); // cancel before the first iteration
        let mut o = opts(1_000_000);
        o.cancel = Some(token);
        let g = Guoq::rewrite_only(GateSet::Nam, o);
        let r = g.optimize(&c, &GateCount);
        assert_eq!(r.iterations, 0, "pre-cancelled run must do no work");
        assert_eq!(r.circuit, c);
    }

    #[test]
    fn cancel_mid_run_returns_best_so_far() {
        let c = redundant_circuit();
        let token = crate::CancelToken::new();
        let mut o = opts(u64::MAX); // unbounded: only the token stops it
        o.cancel = Some(token.clone());
        let g = Guoq::rewrite_only(GateSet::Nam, o);
        let t = token.clone();
        // Cancel from the sink after the first improvement: the run
        // must wind down promptly instead of spinning forever.
        let r = g.optimize_events(&c, &GateCount, &mut move |ev, _| {
            if matches!(ev, OptEvent::Improved { .. }) {
                t.cancel();
            }
        });
        assert!(r.iterations > 0);
        assert!(r.cost < c.len() as f64);
        assert!(qsim::circuits_equivalent(&c, &r.circuit, 1e-6));
    }

    #[test]
    fn cached_runs_stay_sound_and_repeat_runs_hit() {
        let c = redundant_circuit();
        let cache = std::sync::Arc::new(QCache::with_gate_budget(4096));
        let mut o = opts(300);
        o.resynth_probability = 0.3;
        o.cache = Some(cache.clone());
        let first = Guoq::for_gate_set(GateSet::Nam, o.clone()).optimize(&c, &TwoQubitCount);
        assert!(qsim::circuits_equivalent(&c, &first.circuit, 1e-4));
        assert!(first.cost <= TwoQubitCount.cost(&c));
        assert!(
            first.cache_misses > 0,
            "a fresh cache must be populated: {first:?}"
        );
        // Consults (hits + misses) cover at least every replacement.
        assert!(first.cache_hits + first.cache_misses >= first.resynth_hits);
        // Same job again through the same cache: the identical windows
        // come back and the slow path is served from memory.
        let second = Guoq::for_gate_set(GateSet::Nam, o).optimize(&c, &TwoQubitCount);
        assert!(second.cache_hits > 0, "repeat run must hit: {second:?}");
        assert!(qsim::circuits_equivalent(&c, &second.circuit, 1e-4));
        assert!(second.cost <= TwoQubitCount.cost(&c));
        let stats = cache.stats();
        assert!(stats.hits + stats.negative_hits >= second.cache_hits);
    }

    #[test]
    fn uncached_runs_report_zero_cache_traffic() {
        let c = redundant_circuit();
        let mut o = opts(200);
        o.resynth_probability = 0.3;
        let r = Guoq::for_gate_set(GateSet::Nam, o).optimize(&c, &TwoQubitCount);
        assert_eq!((r.cache_hits, r.cache_misses), (0, 0));
    }

    #[test]
    fn certification_terminates_plateaued_run_early() {
        let c = redundant_circuit();
        let mut o = opts(2_000_000);
        o.engine = Engine::Certifying { prior: None };
        let mut events = Vec::new();
        let r =
            Guoq::rewrite_only(GateSet::Nam, o)
                .optimize_events(&c, &GateCount, &mut |ev, _| events.push(ev.clone()));
        assert!(
            r.iterations < 2_000_000,
            "a plateaued run must stop early, ran {}",
            r.iterations
        );
        let cert = r.certificate.as_ref().expect("certificate attached");
        assert_eq!(cert.total_gates, r.circuit.len());
        assert!(cert.coverage() >= 0.9, "coverage {}", cert.coverage());
        assert!(
            events
                .iter()
                .any(|e| matches!(e, OptEvent::Certified { .. })),
            "stream must carry the Certified event"
        );
        // Replay the deltas (costs non-increasing — the certification
        // pin may repeat the best cost once): the final best must still
        // reconstruct bit for bit.
        let mut current = c.clone();
        let mut last_cost = f64::INFINITY;
        for ev in &events {
            if let OptEvent::Improved { delta, cost, .. } = ev {
                assert!(*cost <= last_cost, "cost rose in the stream");
                last_cost = *cost;
                delta.apply(&mut current).expect("delta applies");
            }
        }
        assert_eq!(current, r.circuit);
        assert!(qsim::circuits_equivalent(&c, &r.circuit, 1e-6));
    }

    #[test]
    fn certification_without_observer_matches_and_certifies() {
        let c = redundant_circuit();
        let mut o = opts(2_000_000);
        o.engine = Engine::Certifying { prior: None };
        let r = Guoq::rewrite_only(GateSet::Nam, o).optimize(&c, &GateCount);
        assert!(r.iterations < 2_000_000);
        let cert = r.certificate.expect("journal-mode runs certify too");
        assert_eq!(cert.total_gates, r.circuit.len());
        assert!(qsim::circuits_equivalent(&c, &r.circuit, 1e-6));
    }

    #[test]
    fn certification_prior_seeds_are_honored() {
        // A full-coverage prior over an already-optimal circuit lets the
        // run certify at the first plateau check without re-probing.
        let c = redundant_circuit();
        let mut o = opts(2_000_000);
        o.engine = Engine::Certifying { prior: None };
        let base = Guoq::rewrite_only(GateSet::Nam, o.clone()).optimize(&c, &GateCount);
        let cert = base.certificate.clone().expect("base run certifies");
        let mut o2 = o;
        o2.engine = Engine::Certifying { prior: Some(cert) };
        let again = Guoq::rewrite_only(GateSet::Nam, o2).optimize(&base.circuit, &GateCount);
        assert!(again.certificate.is_some());
        assert!(
            again.iterations <= base.iterations,
            "a seeded re-run must not probe more than the cold run ({} > {})",
            again.iterations,
            base.iterations
        );
    }

    #[test]
    fn dirty_window_bias_is_behavior_preserving() {
        // The bias changes the probe distribution, never soundness: with
        // the bias at its extremes, greedy search through the context
        // still preserves semantics and never worsens cost.
        let c = redundant_circuit();
        let g = Guoq::rewrite_only(GateSet::Nam, opts(0));
        let (fast, _) = g.pools();
        for bias in [0.0, 0.9] {
            let scratch = qrewrite::MatchScratch::new();
            let mut ctx = crate::SearchCtx::with_scratch(c.clone(), bias, scratch);
            let mut rng = SmallRng::seed_from_u64(7);
            for _ in 0..400 {
                let t = &fast[rng.random_range(0..fast.len())];
                if let Some(pa) = t.apply_patch(&mut ctx, &mut rng) {
                    if GateCount.delta(ctx.circuit(), &pa.patch) <= 0.0 {
                        ctx.commit(&pa.patch);
                    }
                }
            }
            let out = ctx.circuit();
            assert!(out.len() <= c.len(), "bias {bias}");
            assert!(qsim::circuits_equivalent(&c, out, 1e-6), "bias {bias}");
        }
    }
}
