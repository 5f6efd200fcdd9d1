//! The single-shard search driver: Algorithm 1's mutable state and
//! acceptance rule, shared by every engine.
//!
//! A [`ShardDriver`] is the one implementation of the loop: it owns
//! the working circuit (inside a [`SearchCtx`]), the running cost/ε
//! tallies, best-so-far tracking and the history trace, and exposes the
//! loop as composable pieces — [`step`](ShardDriver::step) for a full
//! Algorithm-1 iteration,
//! [`fast_move`](ShardDriver::fast_move)/[`offer_resynth`](ShardDriver::offer_resynth)
//! for the async engine's interleaving, and [`run`](ShardDriver::run)
//! for the plain budget loop. Every candidate is a patch priced by
//! [`CostFn::delta`].
//!
//! The same driver powers the sharded parallel engine: each worker
//! constructs a `ShardDriver` over its shard circuit with a per-slice
//! iteration budget and a per-epoch ε allowance, which is exactly the
//! "single-shard driver" role the name comes from.

use crate::cost::CostFn;
use crate::guoq::{Budget, GuoqOpts, GuoqResult, HistoryPoint};
use crate::observe::{CancelToken, EventSink, OptEvent};
use crate::transform::{PatchApplied, ResynthPass, SearchCtx, Transformation};
use qcir::delta::CircuitDelta;
use qcir::edit::Patch;
use qcir::Circuit;
use qrewrite::MatchScratch;
use qtrace::{Family, FamilyStats, Profile, FAMILY_COUNT};
use rand::rngs::SmallRng;
use rand::Rng;
use std::time::Instant;

/// Upper bound on the accepted-op backlog kept between two strict
/// improvements. Plateau accepts are the common case, so a long
/// non-improving stretch would otherwise grow the backlog without
/// bound; past the cap the driver falls back to a before/after
/// [`CircuitDelta::diff`] for the next `Improved` event (O(circuit)
/// once per improvement, instead of O(backlog) memory forever).
const PENDING_OPS_CAP: usize = 4096;

/// Upper bound on the best-journal op backlog (no-observer mode). A
/// journal longer than this is truncated back to its best-prefix and
/// marked dead; the next strict improvement re-anchors with one
/// O(circuit) snapshot. Keeps plateau-heavy searches from growing the
/// journal without bound while still amortizing snapshots to at most
/// one per `BEST_JOURNAL_CAP` accepts.
const BEST_JOURNAL_CAP: usize = 65536;

/// Iteration period of the [`OptEvent::Stats`] heartbeat in observer
/// mode. A power of two so the check is one mask per iteration; at the
/// incremental engine's ~800k iters/sec this is a stats frame every
/// ~0.3s — frequent enough to watch a fast/slow split move, rare enough
/// to be free.
const STATS_EVERY_ITERS: u64 = 1 << 18;

/// Probability that a transformation probe anchors inside a
/// recently-edited window instead of sampling uniformly (accepted
/// edits cluster, so re-probing near them raises the hit rate).
/// Sampling is always uniform until the first edit is committed.
const DIRTY_WINDOW_BIAS: f64 = 0.25;

/// Certification window length, in gates.
const CERT_WINDOW: usize = 24;

/// Probe attempts a window must survive to earn its stamp.
const CERT_PROBES: u64 = 96;

/// Iterations without a strict best-cost improvement before a
/// certification sweep starts.
const CERT_PLATEAU: u64 = 2048;

/// Fraction of gates that must be covered by stamps for a certifying
/// run to terminate early.
const CERT_COVERAGE: f64 = 0.9;

/// How the driver remembers its best-so-far circuit.
///
/// Snapshotting the working circuit on every strict improvement is the
/// last O(circuit) cost in the incremental engine's accept path, and
/// improvements cluster early in a search — exactly when the circuit is
/// largest. In no-observer mode the driver instead journals every
/// accepted patch and remembers *how many* of them lead to the best:
/// the best circuit is materialized once, in
/// [`ShardDriver::finish`], by replaying that prefix onto the base
/// snapshot. An event sink needs the materialized best on every
/// improvement (it is handed to the observer), so observer mode keeps
/// the snapshot-per-improvement representation.
enum BestRepr {
    /// Materialized best — observer mode.
    Snapshot(Circuit),
    /// `base` + `ops[..ops_at_best]` replays to the best circuit; while
    /// `live`, `base` + `ops[..]` replays to the current working
    /// circuit, so a strict improvement is recorded by bumping
    /// `ops_at_best` — O(1) instead of O(circuit).
    Journal {
        base: Circuit,
        ops: Vec<Patch>,
        ops_at_best: usize,
        /// Cleared when the op trail stops tracking the working circuit
        /// (journal overflow, or a wholesale circuit replacement whose
        /// edit has no patch form). The best-prefix stays valid;
        /// journaling resumes at the next strict improvement via an
        /// O(circuit) re-anchor.
        live: bool,
    },
}

impl BestRepr {
    /// Materializes the best circuit (consuming the representation).
    fn into_circuit(self) -> Circuit {
        match self {
            BestRepr::Snapshot(c) => c,
            BestRepr::Journal {
                base,
                ops,
                ops_at_best,
                ..
            } => {
                let mut c = base;
                for op in &ops[..ops_at_best] {
                    c.apply_patch(op);
                }
                c
            }
        }
    }
}

/// Lines 10–12 of Algorithm 1: accept every cost-non-increasing move,
/// and a worsening one with probability `exp(−t·cost′/cost)`. The single
/// source of truth for every engine's acceptance rule.
pub fn metropolis_accepts(
    cost_new: f64,
    cost_curr: f64,
    temperature: f64,
    rng: &mut SmallRng,
) -> bool {
    if cost_new <= cost_curr {
        true
    } else if cost_curr > 0.0 {
        let p = (-temperature * cost_new / cost_curr).exp();
        rng.random::<f64>() < p
    } else {
        false
    }
}

/// Algorithm 1's mutable search state over one circuit (a whole circuit
/// for the serial engines, one shard for the parallel engine): the
/// [`SearchCtx`] plus cost/ε accounting, acceptance, and best-so-far
/// tracking.
///
/// The tracked cost is updated by [`CostFn::delta`] per accepted patch
/// instead of a full recompute; the differential tests assert it never
/// drifts from the recomputed cost.
pub struct ShardDriver<'c> {
    ctx: SearchCtx,
    cost: &'c dyn CostFn,
    cost_curr: f64,
    err_curr: f64,
    eps_budget: f64,
    best: BestRepr,
    cost_best: f64,
    err_best: f64,
    iterations: u64,
    accepted: u64,
    resynth_hits: u64,
    history: Vec<HistoryPoint>,
    temperature: f64,
    resynth_probability: f64,
    record_history: bool,
    started: Instant,
    /// Cooperative cancellation, checked between iterations in
    /// [`run`](Self::run) (taken from [`GuoqOpts::cancel`]).
    cancel: Option<CancelToken>,
    /// Event sink: receives an [`OptEvent::Improved`] each time the
    /// best-so-far cost strictly decreases (the event-sourced API's
    /// streaming hook), alongside the new best circuit.
    on_event: Option<&'c mut EventSink<'c>>,
    /// Accepted edits since the last strict improvement — the raw
    /// material of the next `Improved` delta (only maintained while an
    /// event sink is installed).
    pending: Vec<Patch>,
    /// True once `pending` overflowed [`PENDING_OPS_CAP`]; the next
    /// improvement diffs before/after circuits instead.
    pending_overflow: bool,
    /// Whether telemetry clock reads are live ([`qtrace::enabled`],
    /// sampled once at construction so the hot loop branches on a local
    /// bool, not a global atomic).
    instrument: bool,
    /// This driver's own construction instant — the denominator of the
    /// fast/slow time split (`started` can be a global anchor shared
    /// across shards, so it cannot serve as per-driver busy time).
    t_init: Instant,
    /// Nanoseconds spent inside slow (resynthesis) moves. Fast time is
    /// derived at finish as `total − slow`: slow moves are rare and
    /// expensive, so only they pay the two clock reads — the fast path
    /// at ~1.2µs/iter could not afford per-iteration timing.
    slow_ns: u64,
    /// Per-family accept/reject/accepted-cost-delta tallies. Plain
    /// (non-atomic) adds, tallied unconditionally — only clock reads
    /// are gated on `instrument`.
    fam: [FamilyStats; FAMILY_COUNT],
    /// Certification armed ([`Self::with_certification`]): a
    /// [`qcert::CertMap`] is installed on the context and the run loop
    /// may sweep, stamp, and terminate early.
    certifying: bool,
    /// The sweep covered the circuit: [`Self::finish`] attaches the
    /// certificate and [`Self::run`] has stopped.
    certified: bool,
    /// Iteration index of the last strict best-cost improvement — the
    /// plateau clock. Equal-cost Metropolis accepts are the common case
    /// on a plateau, so the clock keys on strict improvements, never on
    /// accepts.
    last_improve_iter: u64,
}

impl<'c> ShardDriver<'c> {
    /// Creates a driver owning `circuit`, configured from `opts`
    /// (temperature, ε budget, resynthesis probability, history
    /// recording, cancellation). `started` anchors history timestamps —
    /// pass the search's global start so shard histories are coherent.
    pub fn new(circuit: Circuit, cost: &'c dyn CostFn, opts: &GuoqOpts, started: Instant) -> Self {
        Self::with_scratch(circuit, cost, opts, started, MatchScratch::new())
    }

    /// Like [`Self::new`], reusing an existing matcher scratch — shard
    /// workers recycle one scratch across every task they process so
    /// its buffers stay grown.
    pub fn with_scratch(
        circuit: Circuit,
        cost: &'c dyn CostFn,
        opts: &GuoqOpts,
        started: Instant,
        scratch: MatchScratch,
    ) -> Self {
        let c0 = cost.cost(&circuit);
        let mut history = Vec::new();
        if opts.record_history {
            history.push(HistoryPoint {
                seconds: 0.0,
                iteration: 0,
                best_cost: c0,
                best_two_qubit: circuit.two_qubit_count(),
            });
        }
        ShardDriver {
            best: BestRepr::Journal {
                base: circuit.clone(),
                ops: Vec::new(),
                ops_at_best: 0,
                live: true,
            },
            cost,
            ctx: SearchCtx::with_scratch(circuit, DIRTY_WINDOW_BIAS, scratch),
            cost_curr: c0,
            err_curr: 0.0,
            eps_budget: opts.eps_total,
            cost_best: c0,
            err_best: 0.0,
            iterations: 0,
            accepted: 0,
            resynth_hits: 0,
            history,
            temperature: opts.temperature,
            resynth_probability: opts.resynth_probability,
            record_history: opts.record_history,
            started,
            cancel: opts.cancel.clone(),
            on_event: None,
            pending: Vec::new(),
            pending_overflow: false,
            instrument: qtrace::enabled(),
            t_init: Instant::now(),
            slow_ns: 0,
            fam: [FamilyStats::default(); FAMILY_COUNT],
            certifying: false,
            certified: false,
            last_improve_iter: 0,
        }
    }

    /// Overrides the ε budget (the sharded engine hands each shard an
    /// allowance carved from the global budget).
    pub fn with_eps_budget(mut self, eps_budget: f64) -> Self {
        self.eps_budget = eps_budget;
        self
    }

    /// Arms certification ([`crate::Engine::Certifying`]): installs the
    /// window certificate map — seeded from `prior` when one is given —
    /// so the anchor sampler redraws away from certified spans and the
    /// run loop can sweep and stamp once the search plateaus.
    pub fn with_certification(mut self, prior: Option<&qcert::Certificate>) -> Self {
        let len = self.ctx.circuit().len();
        let map = match prior {
            Some(prior) => qcert::CertMap::seed(len, prior),
            None => qcert::CertMap::new(),
        };
        self.ctx.set_cert_map(map);
        self.certifying = true;
        self
    }

    /// Installs an event sink (see [`crate::observe`]): the driver
    /// emits an [`OptEvent::Improved`] — with its delta from the
    /// previous best — on every strict best-cost improvement. Observer
    /// mode needs the materialized best on every improvement, so the
    /// best-so-far switches to its snapshot representation.
    pub fn with_event_sink(mut self, on_event: Option<&'c mut EventSink<'c>>) -> Self {
        if on_event.is_some() {
            let best = std::mem::replace(&mut self.best, BestRepr::Snapshot(Circuit::new(0)));
            self.best = BestRepr::Snapshot(best.into_circuit());
        }
        self.on_event = on_event;
        self
    }

    /// The materialized best in observer mode.
    ///
    /// # Panics
    ///
    /// Panics when the best is journaled (no sink installed).
    fn best_snapshot(&self) -> &Circuit {
        match &self.best {
            BestRepr::Snapshot(c) => c,
            BestRepr::Journal { .. } => {
                unreachable!("observer mode keeps the best materialized")
            }
        }
    }

    /// Stops the journal's op trail (it no longer replays to the
    /// working circuit); the best-prefix stays valid and journaling
    /// resumes at the next strict improvement.
    fn invalidate_journal(&mut self) {
        if let BestRepr::Journal {
            ops,
            ops_at_best,
            live,
            ..
        } = &mut self.best
        {
            ops.truncate(*ops_at_best);
            *live = false;
        }
    }

    /// True when accepted patches must be journaled to keep the op
    /// trail replaying to the working circuit.
    fn journal_live(&self) -> bool {
        matches!(&self.best, BestRepr::Journal { live: true, .. })
    }

    /// True once the driver's cancellation token (if any) was raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.is_cancelled())
    }

    /// The current working circuit.
    pub fn circuit(&self) -> &Circuit {
        self.ctx.circuit()
    }

    /// Iterations performed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The tracked cost of the working circuit.
    pub fn current_cost(&self) -> f64 {
        self.cost_curr
    }

    /// True when a transformation declaring `eps` still fits the budget
    /// (line 6 of Algorithm 1).
    pub fn can_afford(&self, eps: f64) -> bool {
        self.err_curr + eps <= self.eps_budget
    }

    /// Counts an iteration. [`Self::step`] does this itself; the async
    /// driver calls it once per loop cycle before interleaving.
    pub fn begin_iteration(&mut self) {
        self.iterations += 1;
    }

    /// One full Algorithm-1 iteration: pick a transformation (slow with
    /// probability `resynth_probability`, a uniform fast one otherwise),
    /// attempt it, and run the acceptance rule.
    ///
    /// Returns `false` when there is no transformation to try at all
    /// (both pools empty) — the caller should stop looping.
    pub fn step(
        &mut self,
        fast: &[Box<dyn Transformation>],
        slow: &[ResynthPass],
        rng: &mut SmallRng,
    ) -> bool {
        if fast.is_empty() && slow.is_empty() {
            // Nothing to try: report it without charging a phantom
            // iteration (the coordinator's stall guard keys on zero
            // iterations per epoch).
            return false;
        }
        self.begin_iteration();
        // Line 5: randomly select a transformation.
        let use_slow =
            !slow.is_empty() && !fast.is_empty() && rng.random::<f64>() < self.resynth_probability
                || fast.is_empty();
        if use_slow && !slow.is_empty() {
            let t = &slow[rng.random_range(0..slow.len())];
            // Line 6: the declared ε must fit in the remaining budget.
            if !self.can_afford(Transformation::epsilon(t)) {
                return true;
            }
            // Slow moves are rare and expensive, so the span's two
            // clock reads are amortized to nothing; the fast path
            // carries no per-iteration timing at all.
            let t0 = self.instrument.then(Instant::now);
            if let Some(pa) = t.apply_patch(&mut self.ctx, rng) {
                self.resynth_hits += 1;
                self.consider_patch(pa, Family::Resynth, rng);
            }
            if let Some(t0) = t0 {
                self.slow_ns += t0.elapsed().as_nanos() as u64;
            }
        } else {
            self.fast_move(fast, rng);
        }
        true
    }

    /// Attempts one uniformly-chosen fast transformation and runs the
    /// acceptance rule (the async driver's rewrite interleaving).
    pub fn fast_move(&mut self, fast: &[Box<dyn Transformation>], rng: &mut SmallRng) {
        let t = &fast[rng.random_range(0..fast.len())];
        if let Some(pa) = t.apply_patch(&mut self.ctx, rng) {
            let fam = t.family();
            self.consider_patch(pa, fam, rng);
        }
    }

    /// Offers an asynchronously-produced resynthesis result: `pa` is a
    /// patch against `snapshot`, an earlier working circuit whose
    /// tracked cost was `snapshot_cost`. Counts the hit and runs the
    /// acceptance rule on `snapshot_cost` + [`CostFn::delta`]; only an
    /// accepted result is applied, replacing the whole working circuit
    /// (discarding interim rewrite edits, as §5.3 prescribes).
    pub fn offer_resynth(
        &mut self,
        mut snapshot: Circuit,
        snapshot_cost: f64,
        pa: PatchApplied,
        rng: &mut SmallRng,
    ) {
        self.resynth_hits += 1;
        let cost_new = snapshot_cost + self.cost.delta(&snapshot, &pa.patch);
        if !metropolis_accepts(cost_new, self.cost_curr, self.temperature, rng) {
            self.fam[Family::Resynth.index()].rejects += 1;
            return;
        }
        snapshot.apply_patch(&pa.patch);
        // A wholesale replacement has no patch form against the working
        // circuit — a per-accept replacement would make the next delta
        // O(accepts × circuit) — so the op trail is abandoned and the
        // next `Improved` packages a single before/after diff instead
        // (one op, never larger than a full snapshot).
        if self.on_event.is_some() {
            self.pending.clear();
            self.pending_overflow = true;
        } else {
            self.invalidate_journal();
        }
        self.ctx.replace_circuit(snapshot);
        self.record_accept(cost_new, pa.epsilon, Family::Resynth, None);
    }

    /// The plain budget loop: [`Self::step`] until `budget` is
    /// exhausted (against the driver's start instant), the optional
    /// wall-clock `deadline` passes (shard workers stop mid-slice when
    /// the global time budget runs out), or no transformation exists.
    ///
    /// A certification-armed driver ([`Self::with_certification`]) adds
    /// a fourth exit: once the best cost plateaus, the loop sweeps the
    /// circuit window by window and stops early — with a certificate —
    /// when stamped coverage reaches the target.
    pub fn run(
        &mut self,
        fast: &[Box<dyn Transformation>],
        slow: &[ResynthPass],
        rng: &mut SmallRng,
        budget: Budget,
        deadline: Option<Instant>,
    ) {
        while !budget.exhausted(self.started, self.iterations)
            && deadline.is_none_or(|d| Instant::now() < d)
            && !self.is_cancelled()
        {
            if !self.step(fast, slow, rng) {
                break;
            }
            if self.iterations & (STATS_EVERY_ITERS - 1) == 0 && self.on_event.is_some() {
                self.emit_stats();
            }
            // Certification trigger: a long strict-improvement drought
            // while the working circuit sits at the best cost (an
            // equal-cost excursion above it would certify the wrong
            // circuit — wait for the walk to come back down).
            if self.certifying
                && self.iterations - self.last_improve_iter >= CERT_PLATEAU
                && self.cost_curr <= self.cost_best
                && self.certification_sweep(fast, slow, rng, budget, deadline)
            {
                break;
            }
        }
    }

    /// One certification sweep: walk the uncertified spans window by
    /// window, probing each under a focused anchor sampler with fast
    /// rewrites plus (ε budget permitting) one resynthesis attempt. A
    /// window with no strictly-improving probe earns its stamp; a
    /// strict improvement is committed through the normal accept path
    /// and aborts the sweep — the plateau is over. Returns `true` when
    /// the whole circuit was swept and stamped coverage reached the
    /// target, with [`OptEvent::Certified`] emitted: the caller stops
    /// early.
    fn certification_sweep(
        &mut self,
        fast: &[Box<dyn Transformation>],
        slow: &[ResynthPass],
        rng: &mut SmallRng,
        budget: Budget,
        deadline: Option<Instant>,
    ) -> bool {
        loop {
            let len = self.ctx.circuit().len();
            // The probe window is clamped to the uncertified *span*,
            // not just the circuit: overrunning into a seeded stamp
            // would double-certify its gates.
            let Some((lo, span_hi)) = self.ctx.cert_map().and_then(|m| m.uncertified_span(0, len))
            else {
                break;
            };
            let hi = (lo + CERT_WINDOW).min(span_hi);
            self.ctx.set_focus(Some((lo, hi)));
            for probe in 0..CERT_PROBES {
                if budget.exhausted(self.started, self.iterations)
                    || deadline.is_some_and(|d| Instant::now() >= d)
                    || self.is_cancelled()
                {
                    self.ctx.set_focus(None);
                    return false;
                }
                self.begin_iteration();
                if self.cert_probe(fast, slow, probe + 1 == CERT_PROBES, rng) {
                    // Not locally optimal after all: the improvement is
                    // committed and the plateau clock reset — back to
                    // the ordinary search.
                    self.ctx.set_focus(None);
                    return false;
                }
            }
            self.ctx.set_focus(None);
            if let Some(m) = self.ctx.cert_map_mut() {
                m.stamp(lo, hi, CERT_PROBES);
            }
        }
        let len = self.ctx.circuit().len();
        let coverage = if len == 0 {
            1.0
        } else {
            self.ctx
                .cert_map()
                .map_or(0.0, |m| m.certified_gates() as f64 / len as f64)
        };
        if coverage < CERT_COVERAGE {
            return false;
        }
        // Equal-cost plateau accepts may have drifted the working
        // circuit away from the recorded best. The certificate describes
        // the working circuit, so pin it as the best — same cost — via
        // the one equal-cost publication the stream contract allows.
        if !self.best_is_current() {
            self.publish_best();
        }
        self.certified = true;
        if self.on_event.is_some() {
            let event = OptEvent::Certified {
                coverage,
                windows: self.ctx.cert_map().map_or(0, |m| m.windows()),
                budget: CERT_PROBES,
                iterations: self.iterations,
                seconds: self.started.elapsed().as_secs_f64(),
            };
            let best = match &self.best {
                BestRepr::Snapshot(c) => c,
                BestRepr::Journal { .. } => {
                    unreachable!("observer mode keeps the best materialized")
                }
            };
            if let Some(obs) = self.on_event.as_mut() {
                obs(&event, best);
            }
        }
        true
    }

    /// One probe attempt against the focused window. Returns `true`
    /// when a strictly-improving candidate was found and committed.
    fn cert_probe(
        &mut self,
        fast: &[Box<dyn Transformation>],
        slow: &[ResynthPass],
        last: bool,
        rng: &mut SmallRng,
    ) -> bool {
        // Spend the window's final probe on resynthesis when the ε
        // budget still allows one — rewrites alone would stamp windows
        // a cheap resynthesis could still shrink.
        if last && !slow.is_empty() {
            let t = &slow[rng.random_range(0..slow.len())];
            if !self.can_afford(Transformation::epsilon(t)) {
                return false;
            }
            let t0 = self.instrument.then(Instant::now);
            let improved = match Transformation::apply_patch(t, &mut self.ctx, rng) {
                Some(pa) => {
                    self.resynth_hits += 1;
                    self.commit_if_improving(pa, Family::Resynth)
                }
                None => false,
            };
            if let Some(t0) = t0 {
                self.slow_ns += t0.elapsed().as_nanos() as u64;
            }
            return improved;
        }
        if fast.is_empty() {
            return false;
        }
        let t = &fast[rng.random_range(0..fast.len())];
        match t.apply_patch(&mut self.ctx, rng) {
            Some(pa) => {
                let fam = t.family();
                self.commit_if_improving(pa, fam)
            }
            None => false,
        }
    }

    /// The certification probe's acceptance rule: strict improvement
    /// only. Metropolis equal-cost accepts would walk the circuit out
    /// from under its fresh stamps without ending the plateau.
    fn commit_if_improving(&mut self, pa: PatchApplied, fam: Family) -> bool {
        let cost_new = self.cost_curr + self.cost.delta(self.ctx.circuit(), &pa.patch);
        if cost_new >= self.cost_curr {
            self.fam[fam.index()].rejects += 1;
            return false;
        }
        let op = (self.on_event.is_some() || self.journal_live()).then(|| pa.patch.clone());
        self.ctx.commit(&pa.patch);
        self.record_accept(cost_new, pa.epsilon, fam, op);
        true
    }

    /// True when the recorded best-so-far replays to the working
    /// circuit (no accepts since the last publication).
    fn best_is_current(&self) -> bool {
        match &self.best {
            BestRepr::Snapshot(_) => self.pending.is_empty() && !self.pending_overflow,
            BestRepr::Journal {
                ops,
                ops_at_best,
                live,
                ..
            } => *live && ops.len() == *ops_at_best,
        }
    }

    /// Emits an [`OptEvent::Stats`] heartbeat carrying the current
    /// profile snapshot (observer mode only). Side-channel only: it
    /// never touches the RNG, the cost tallies, or the delta stream.
    fn emit_stats(&mut self) {
        let event = OptEvent::Stats {
            profile: self.profile_snapshot(),
        };
        if let Some(obs) = self.on_event.as_mut() {
            obs(&event, self.ctx.circuit());
        }
    }

    /// The fast/slow time split and per-family tallies so far. Fast
    /// time is everything the driver has been alive minus the measured
    /// slow spans; with instrumentation off, all times are zero (the
    /// tallies still count).
    fn profile_snapshot(&self) -> Profile {
        let total_ns = if self.instrument {
            self.t_init.elapsed().as_nanos() as u64
        } else {
            0
        };
        let slow_ns = self.slow_ns.min(total_ns);
        Profile {
            fast_ns: total_ns - slow_ns,
            slow_ns,
            total_ns,
            families: self.fam,
        }
    }

    /// Lines 10–18 of Algorithm 1 for a candidate patch: the cost change
    /// comes from [`CostFn::delta`] (O(edit span)), and only an accepted
    /// edit is committed — a rejected candidate is simply dropped, no
    /// clone, apply, or revert required.
    fn consider_patch(&mut self, pa: PatchApplied, fam: Family, rng: &mut SmallRng) {
        let cost_new = self.cost_curr + self.cost.delta(self.ctx.circuit(), &pa.patch);
        if !metropolis_accepts(cost_new, self.cost_curr, self.temperature, rng) {
            self.fam[fam.index()].rejects += 1;
            return;
        }
        // The accepted patch *is* the event-stream / best-journal op —
        // clone it only when a sink or a live journal will consume it
        // (an O(edit span) copy, never O(circuit)).
        let op = (self.on_event.is_some() || self.journal_live()).then(|| pa.patch.clone());
        self.ctx.commit(&pa.patch);
        self.record_accept(cost_new, pa.epsilon, fam, op);
    }

    fn record_accept(&mut self, cost_new: f64, epsilon: f64, fam: Family, op: Option<Patch>) {
        self.accepted += 1;
        let fs = &mut self.fam[fam.index()];
        fs.accepts += 1;
        // Positive delta = improvement (cost went down by this much).
        fs.accepted_cost_delta += self.cost_curr - cost_new;
        self.cost_curr = cost_new;
        self.err_curr += epsilon;
        if let Some(op) = op {
            if self.on_event.is_some() {
                if self.pending.len() >= PENDING_OPS_CAP {
                    // Cap the backlog: forget the op trail and diff
                    // before/after at the next improvement instead.
                    self.pending.clear();
                    self.pending_overflow = true;
                } else {
                    self.pending.push(op);
                }
            } else if let BestRepr::Journal {
                ops,
                ops_at_best,
                live: live @ true,
                ..
            } = &mut self.best
            {
                if ops.len() >= BEST_JOURNAL_CAP {
                    // Cap the backlog: keep the best-prefix, stop
                    // journaling, re-anchor at the next improvement.
                    ops.truncate(*ops_at_best);
                    *live = false;
                } else {
                    ops.push(op);
                }
            }
        }
        if self.cost_curr < self.cost_best {
            self.last_improve_iter = self.iterations;
            self.publish_best();
        }
    }

    /// Re-anchors the best-so-far on the working circuit and publishes
    /// it — the strict-improvement tail of [`Self::record_accept`],
    /// also invoked by a completed certification sweep to pin the
    /// certified working circuit as the result. Requires
    /// `cost_curr <= cost_best`; the certification path is the one
    /// caller where equality (an equal-cost `Improved` event) occurs.
    fn publish_best(&mut self) {
        self.cost_best = self.cost_curr;
        self.err_best = self.err_curr;
        if self.record_history {
            // The working circuit and the best coincide at every
            // strict improvement, so its cached counts serve.
            self.history.push(HistoryPoint {
                seconds: self.started.elapsed().as_secs_f64(),
                iteration: self.iterations,
                best_cost: self.cost_best,
                best_two_qubit: self.ctx.circuit().two_qubit_count(),
            });
        }
        if self.on_event.is_some() {
            // The delta is built against the *previous* best —
            // exactly the accepted ops since that improvement (the
            // working circuit and the best coincide at every
            // improvement, so the op chain replays previous best →
            // new best).
            let delta = if self.pending_overflow {
                self.pending_overflow = false;
                // Ops accepted after the overflow are inside the
                // diffed span; drop them with the rest.
                self.pending.clear();
                CircuitDelta::diff(self.best_snapshot(), self.ctx.circuit())
            } else {
                CircuitDelta::from_ops(
                    self.best_snapshot().len(),
                    std::mem::take(&mut self.pending),
                )
            };
            // Observer mode pays the O(circuit) snapshot: the sink
            // is handed the materialized best on every improvement.
            self.best = BestRepr::Snapshot(self.ctx.circuit().clone());
            let event = OptEvent::Improved {
                delta,
                cost: self.cost_best,
                epsilon: self.err_best,
                iterations: self.iterations,
                seconds: self.started.elapsed().as_secs_f64(),
            };
            let best = match &self.best {
                BestRepr::Snapshot(c) => c,
                BestRepr::Journal { .. } => unreachable!(),
            };
            if let Some(obs) = self.on_event.as_mut() {
                obs(&event, best);
            }
        } else {
            match &mut self.best {
                // The journal already replays to the working
                // circuit: recording the new best is one store.
                BestRepr::Journal {
                    ops,
                    ops_at_best,
                    live: true,
                    ..
                } => *ops_at_best = ops.len(),
                // Dead journal (overflow or wholesale replacement):
                // re-anchor on the improved circuit — the one
                // O(circuit) snapshot those paths amortize.
                _ => {
                    self.best = BestRepr::Journal {
                        base: self.ctx.circuit().clone(),
                        ops: Vec::new(),
                        ops_at_best: 0,
                        live: true,
                    }
                }
            }
        }
    }

    /// Credits externally measured slow-span nanoseconds (the async
    /// engine's resynthesis runs on a worker thread, outside
    /// [`step`](Self::step)'s span).
    pub(crate) fn add_slow_ns(&mut self, ns: u64) {
        self.slow_ns += ns;
    }

    /// Finalizes the search: the best circuit found with its cost, ε,
    /// and counters.
    pub fn finish(self) -> GuoqResult {
        self.finish_recycling().0
    }

    /// [`Self::finish`], also yielding the matcher scratch so the
    /// caller can feed it to the next driver.
    pub fn finish_recycling(self) -> (GuoqResult, MatchScratch) {
        let profile = self.profile_snapshot();
        // A completed sweep pinned best == working, so the stamps index
        // the result circuit; an incomplete one describes whatever the
        // working circuit drifted to, which is nothing to hand out.
        let certificate = self
            .certified
            .then(|| {
                self.ctx
                    .cert_map()
                    .map(|m| m.to_certificate(self.ctx.circuit().len(), CERT_PROBES))
            })
            .flatten();
        // One registry flush per driver lifetime — the global
        // `guoq_*_total` series accumulate across jobs/shards while the
        // per-result `Profile` stays a per-run delta.
        profile.flush_to_registry();
        let result = GuoqResult {
            // Journal mode materializes the best exactly once, here:
            // the base snapshot replayed through the best-prefix ops.
            circuit: self.best.into_circuit(),
            cost: self.cost_best,
            epsilon: self.err_best,
            iterations: self.iterations,
            accepted: self.accepted,
            resynth_hits: self.resynth_hits,
            // Cache traffic is tallied on the passes (shared across
            // engines and clones); `Guoq::dispatch` fills these in.
            cache_hits: 0,
            cache_misses: 0,
            history: self.history,
            worker_stats: Vec::new(),
            profile,
            certificate,
        };
        (result, self.ctx.into_scratch())
    }
}
