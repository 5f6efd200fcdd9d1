//! The unified transformation abstraction (paper §4).
//!
//! A [`Transformation`] is a closed-box function `τ_ε : C → C` returning a
//! circuit `ε`-equivalent to its input (Def. 4.1). Rewrite-rule passes and
//! built-in exact passes carry `ε = 0`; resynthesis declares a per-call
//! bound and reports the *measured* distance, which the optimizer charges
//! against the global budget (Thm. 4.2: errors add up).
//!
//! A transformation expresses its output as a [`Patch`] against the
//! search's working circuit ([`Transformation::apply_patch`]), so the
//! search prices and commits edits without materializing candidates.

use qcache::QCache;
use qcir::edit::Patch;
use qcir::{Circuit, GateSet, Region};
use qrewrite::{fusion, MatchScratch, Rule};
use qsynth::{CacheOutcome, Resynthesizer};
use qtrace::{Counter, Family};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// A patch produced by a transformation, ready to be costed and — if the
/// search accepts it — committed to the [`SearchCtx`].
#[derive(Debug, Clone)]
pub struct PatchApplied {
    /// The local edit, expressed against the context's current circuit.
    pub patch: Patch,
    /// Measured approximation error this edit would introduce.
    pub epsilon: f64,
}

/// Number of anchors a rule pass probes per iteration in the incremental
/// engine. Probes are O(pattern) each (most fail at the first gate-kind
/// check), so a handful keeps per-iteration work constant while retaining
/// a high hit rate on small circuits.
const RULE_ANCHOR_TRIES: usize = 16;

/// Anchor probes per iteration for the run-fusion pass.
const FUSION_ANCHOR_TRIES: usize = 8;

/// Anchor probes per iteration for identity cleanup.
const CLEANUP_ANCHOR_TRIES: usize = 8;

/// Number of recently-edited windows a [`SearchCtx`] remembers for
/// dirty-window anchor sampling.
const DIRTY_CAPACITY: usize = 8;

/// Slack added on each side of a recorded dirty window: an accepted edit
/// tends to open follow-up opportunities on its immediate neighbours.
const DIRTY_PAD: usize = 2;

/// Upper clamp on the dirty-window anchor bias: some uniform
/// exploration must always survive, or a saturated bias (1.0) would
/// confine every probe to the bounded dirty list forever once it holds
/// no further opportunities.
const MAX_ANCHOR_BIAS: f64 = 0.9;

/// Redraws a uniform anchor landing in a certified window gets before
/// the sampler gives up and keeps the certified draw. Bounded so a
/// nearly-fully-certified circuit cannot stall an iteration in redraw
/// loops; the certification sweep, not the sampler, is what retires the
/// remaining budget on such circuits.
const CERT_SKIP_TRIES: usize = 4;

/// The mutable state the search carries across iterations: one working
/// circuit plus the matcher scratch buffers. Wire adjacency comes
/// straight from the circuit's arena links ([`Circuit::next_on_wire`]
/// and friends), so there is no separate DAG to build or splice. A
/// `SearchCtx` lives for the whole search, and accepted edits are
/// [committed](Self::commit) in place — O(edit span), not O(circuit).
///
/// The context also remembers a bounded list of recently-edited index
/// windows. With a non-zero anchor bias, [`Self::sample_anchor`] probes
/// those *dirty windows* preferentially: accepted edits cluster —
/// cancelling one gate pair routinely exposes the next — so re-probing
/// near recent edits raises the hit rate over uniform sampling.
pub struct SearchCtx {
    circuit: Circuit,
    scratch: MatchScratch,
    /// Recently-edited windows, post-commit coordinates, oldest first.
    /// Entries drift as later commits shift indices; they are clamped at
    /// sampling time (the list is a sampling bias, not ground truth).
    dirty: VecDeque<(usize, usize)>,
    anchor_bias: f64,
    /// Live local-optimality stamps (certification-enabled runs only).
    /// [`Self::commit`] folds every accepted patch into the map so
    /// stamps can never go stale; [`Self::sample_anchor`] redraws
    /// uniform anchors that land in a certified window.
    certs: Option<qcert::CertMap>,
    /// When set, every anchor draw lands inside this window — the
    /// certification sweep pins probes to the window under test.
    focus: Option<(usize, usize)>,
}

impl SearchCtx {
    /// Creates a context owning `circuit`, with uniform anchor sampling.
    pub fn new(circuit: Circuit) -> Self {
        Self::with_scratch(circuit, 0.0, MatchScratch::new())
    }

    /// Creates a context that samples an anchor from a recently-edited
    /// window with probability `anchor_bias` (uniformly otherwise, and
    /// always uniformly while no edit has been committed yet; clamped to
    /// `[0, 0.9]` so uniform exploration never fully stops), reusing an
    /// existing matcher scratch (shard workers recycle one scratch
    /// across every shard task they process).
    pub fn with_scratch(circuit: Circuit, anchor_bias: f64, scratch: MatchScratch) -> Self {
        SearchCtx {
            circuit,
            scratch,
            dirty: VecDeque::with_capacity(DIRTY_CAPACITY),
            anchor_bias: anchor_bias.clamp(0.0, MAX_ANCHOR_BIAS),
            certs: None,
            focus: None,
        }
    }

    /// Installs a certificate map: accepted patches invalidate
    /// overlapping stamps on [`Self::commit`], and uniform anchor draws
    /// skip certified windows. Installing a map changes the sampler's
    /// RNG consumption, so certification-free runs (the default) keep
    /// their exact trajectories.
    pub fn set_cert_map(&mut self, certs: qcert::CertMap) {
        self.certs = Some(certs);
    }

    /// The installed certificate map, if any.
    pub fn cert_map(&self) -> Option<&qcert::CertMap> {
        self.certs.as_ref()
    }

    /// Mutable access to the installed certificate map.
    pub fn cert_map_mut(&mut self) -> Option<&mut qcert::CertMap> {
        self.certs.as_mut()
    }

    /// Restricts every anchor draw to `window` (`None` restores normal
    /// sampling). The certification sweep pins probes to the window
    /// under test with this.
    pub fn set_focus(&mut self, window: Option<(usize, usize)>) {
        self.focus = window;
    }

    /// Consumes the context, yielding the matcher scratch for reuse.
    pub fn into_scratch(self) -> MatchScratch {
        self.scratch
    }

    /// Draws an anchor index for a transformation probe: a position
    /// inside a random dirty window with probability `anchor_bias`,
    /// uniform over the circuit otherwise.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is empty (callers gate on that).
    pub fn sample_anchor(&self, rng: &mut SmallRng) -> usize {
        let n = self.circuit.len();
        assert!(n > 0, "cannot sample an anchor in an empty circuit");
        if let Some((lo, hi)) = self.focus {
            let lo = lo.min(n - 1);
            let hi = hi.clamp(lo + 1, n);
            return rng.random_range(lo..hi);
        }
        if !self.dirty.is_empty()
            && self.anchor_bias > 0.0
            && rng.random::<f64>() < self.anchor_bias
        {
            let (lo, hi) = self.dirty[rng.random_range(0..self.dirty.len())];
            let lo = lo.min(n - 1);
            let hi = hi.clamp(lo + 1, n);
            return rng.random_range(lo..hi);
        }
        let mut anchor = rng.random_range(0..n);
        if let Some(certs) = self.certs.as_ref().filter(|c| !c.is_empty()) {
            // Certified windows hold no improvement at the current
            // budget — redraw rather than waste the probe (bounded, so
            // saturated coverage degrades to uniform instead of
            // spinning).
            for _ in 0..CERT_SKIP_TRIES {
                if !certs.contains(anchor) {
                    break;
                }
                qcert::anchor_skips_counter().inc();
                anchor = rng.random_range(0..n);
            }
        }
        anchor
    }

    /// The recently-edited windows currently biasing anchor selection.
    pub fn dirty_windows(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.dirty.iter().copied()
    }

    /// The current working circuit.
    #[inline]
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Consumes the context, yielding the working circuit.
    pub fn into_circuit(self) -> Circuit {
        self.circuit
    }

    /// Splits the context into the pieces the matcher needs.
    #[inline]
    pub fn parts(&mut self) -> (&Circuit, &mut MatchScratch) {
        (&self.circuit, &mut self.scratch)
    }

    /// Applies an accepted patch in place (the arena relinks only the
    /// edited wires) and records the edit window in the dirty list.
    pub fn commit(&mut self, patch: &Patch) {
        let (wlo, whi) = patch.window();
        let new_whi = (whi as isize + patch.len_delta()).max(wlo as isize) as usize;
        if let Some(certs) = &mut self.certs {
            // Every stamp overlapping the edit's padded window is now
            // unproven — clear it before anything samples again.
            certs.commit_patch(patch, qcert::CERT_PAD);
        }
        self.circuit.apply_patch(patch);
        self.note_dirty(wlo, new_whi);
    }

    /// Replaces the working circuit wholesale (e.g. an accepted
    /// async-resynthesis result based on an older snapshot). The dirty
    /// list is cleared — its windows described the discarded circuit.
    pub fn replace_circuit(&mut self, circuit: Circuit) {
        self.circuit = circuit;
        self.dirty.clear();
        // No patch describes a wholesale replacement, so no stamp can
        // be proven to survive it.
        if let Some(certs) = &mut self.certs {
            certs.clear();
        }
    }

    fn note_dirty(&mut self, lo: usize, hi: usize) {
        let lo = lo.saturating_sub(DIRTY_PAD);
        let hi = (hi + DIRTY_PAD).min(self.circuit.len());
        if lo >= hi {
            return;
        }
        if self.dirty.len() == DIRTY_CAPACITY {
            self.dirty.pop_front();
        }
        self.dirty.push_back((lo, hi));
    }
}

/// A closed-box `ε`-bounded circuit transformation.
pub trait Transformation: Send + Sync {
    /// Display name.
    fn name(&self) -> &str;

    /// Declared worst-case error per application (`ε` of `τ_ε`).
    fn epsilon(&self) -> f64;

    /// The transformation's rule family for telemetry tallies
    /// ([`qtrace::Family`]). Rule names are dynamic (one per corpus
    /// rule) but families are static, so per-family counters stay
    /// fixed-arity and allocation-free.
    fn family(&self) -> Family {
        Family::Rule
    }

    /// Attempts to apply the transformation at a random location of the
    /// context's current circuit, producing its edit as a [`Patch`]
    /// without materializing a new circuit.
    ///
    /// Returns `None` when the transformation does not fire (no match, or
    /// synthesis failed within its bound).
    fn apply_patch(&self, ctx: &mut SearchCtx, rng: &mut SmallRng) -> Option<PatchApplied>;
}

/// A full rewrite pass of one rule from a random anchor (paper §5.3).
#[derive(Debug, Clone)]
pub struct RulePass {
    rule: Rule,
}

impl RulePass {
    /// Wraps a rewrite rule as a transformation.
    pub fn new(rule: Rule) -> Self {
        RulePass { rule }
    }
}

impl Transformation for RulePass {
    fn name(&self) -> &str {
        self.rule.name()
    }

    fn epsilon(&self) -> f64 {
        0.0
    }

    fn apply_patch(&self, ctx: &mut SearchCtx, rng: &mut SmallRng) -> Option<PatchApplied> {
        let n = ctx.circuit().len();
        if n == 0 {
            return None;
        }
        let start = ctx.sample_anchor(rng);
        let (circuit, scratch) = ctx.parts();
        // Walk anchors `(start + off) % n` by live id — O(1) per failed
        // probe instead of a rank/select per position. `start < n` and
        // `off < n`, so the walk wraps at most once.
        let mut id = circuit.id_at(start);
        for off in 0..RULE_ANCHOR_TRIES.min(n) {
            if off > 0 {
                id = circuit.next_id(id).unwrap_or_else(|| circuit.id_at(0));
            }
            if let Some(patch) =
                qrewrite::propose_rule_patch_at_id(circuit, &self.rule, id, scratch)
            {
                return Some(PatchApplied {
                    patch,
                    epsilon: 0.0,
                });
            }
        }
        None
    }
}

/// The exact 1q-run fusion pass as a transformation.
#[derive(Debug, Clone, Copy)]
pub struct FusionPass {
    set: GateSet,
}

impl FusionPass {
    /// Creates the pass for a target gate set.
    pub fn new(set: GateSet) -> Self {
        FusionPass { set }
    }
}

impl Transformation for FusionPass {
    fn name(&self) -> &str {
        "1q-fusion"
    }

    fn epsilon(&self) -> f64 {
        0.0
    }

    fn family(&self) -> Family {
        Family::Fusion
    }

    fn apply_patch(&self, ctx: &mut SearchCtx, rng: &mut SmallRng) -> Option<PatchApplied> {
        let n = ctx.circuit().len();
        if n == 0 {
            return None;
        }
        let start = ctx.sample_anchor(rng);
        let circuit = ctx.circuit();
        let mut id = circuit.id_at(start);
        for off in 0..FUSION_ANCHOR_TRIES.min(n) {
            if off > 0 {
                id = circuit.next_id(id).unwrap_or_else(|| circuit.id_at(0));
            }
            if let Some(patch) = fusion::fuse_run_patch_at(circuit, id, self.set) {
                return Some(PatchApplied {
                    patch,
                    epsilon: 0.0,
                });
            }
        }
        None
    }
}

/// Identity-gate elimination as a transformation.
#[derive(Debug, Clone, Copy, Default)]
pub struct CleanupPass;

impl Transformation for CleanupPass {
    fn name(&self) -> &str {
        "cleanup"
    }

    fn epsilon(&self) -> f64 {
        0.0
    }

    fn family(&self) -> Family {
        Family::Cleanup
    }

    fn apply_patch(&self, ctx: &mut SearchCtx, rng: &mut SmallRng) -> Option<PatchApplied> {
        let n = ctx.circuit().len();
        if n == 0 {
            return None;
        }
        let start = ctx.sample_anchor(rng);
        let circuit = ctx.circuit();
        let mut id = circuit.id_at(start);
        for off in 0..CLEANUP_ANCHOR_TRIES.min(n) {
            if off > 0 {
                id = circuit.next_id(id).unwrap_or_else(|| circuit.id_at(0));
            }
            if let Some(patch) = fusion::remove_identity_patch_at(circuit, id, 1e-9) {
                return Some(PatchApplied {
                    patch,
                    epsilon: 0.0,
                });
            }
        }
        None
    }
}

/// Commutation-aware cancellation as a transformation (one sweep).
#[derive(Debug, Clone, Copy, Default)]
pub struct CommutationPass;

impl Transformation for CommutationPass {
    fn name(&self) -> &str {
        "commutative-cancellation"
    }

    fn epsilon(&self) -> f64 {
        0.0
    }

    fn family(&self) -> Family {
        Family::Commutation
    }

    fn apply_patch(&self, ctx: &mut SearchCtx, rng: &mut SmallRng) -> Option<PatchApplied> {
        let n = ctx.circuit().len();
        if n == 0 {
            return None;
        }
        // A single anchor per iteration: the walk's numeric commutation
        // checks are the expensive part, so probing many anchors would
        // dominate the iteration budget.
        let anchor = ctx.sample_anchor(rng);
        let patch = qrewrite::commutation::cancellation_patch_at(ctx.circuit(), anchor)?;
        Some(PatchApplied {
            patch,
            epsilon: 0.0,
        })
    }
}

/// Resynthesis of a random ≤`max_qubits` subcircuit (paper §5.3: grow a
/// region greedily from a random anchor, resynthesize its unitary).
///
/// The resynthesizer is shared by reference (`Arc`): shard workers,
/// async clones and the service layer all point at one instance, so
/// per-gate-set setup (including the Clifford+T BFS database) is never
/// duplicated. An optional [`QCache`] handle memoizes synthesis
/// results by window unitary ([`Resynthesizer::resynthesize_cached`]);
/// the per-pass hit/miss counters ([`qtrace::Counter`]s, shared across
/// clones) survive the async driver's worker-thread pass clone.
#[derive(Debug, Clone)]
pub struct ResynthPass {
    rs: Arc<Resynthesizer>,
    max_qubits: usize,
    eps: f64,
    cache: Option<Arc<QCache>>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
}

impl ResynthPass {
    /// Creates a resynthesis transformation with a per-call error bound
    /// (no cache; add one with [`Self::with_cache`]).
    pub fn new(rs: Arc<Resynthesizer>, max_qubits: usize, eps: f64) -> Self {
        ResynthPass {
            rs,
            max_qubits: max_qubits.min(qsynth::MAX_RESYNTH_QUBITS),
            eps,
            cache: None,
            cache_hits: Arc::new(Counter::new()),
            cache_misses: Arc::new(Counter::new()),
        }
    }

    /// Attaches (or detaches) the memo cache consulted before every
    /// instantiation and populated after every fresh synthesis.
    pub fn with_cache(mut self, cache: Option<Arc<QCache>>) -> Self {
        self.cache = cache;
        self
    }

    /// (cache hits, cache misses) across every call through this pass
    /// and its clones. Hits count everything served from the cache —
    /// verified replacements *and* known-failure markers; misses count
    /// calls that consulted the cache and fell back to a fresh
    /// instantiation, successful or not. Hits + misses therefore equals
    /// the cache-consulting call count, not the replacement count.
    pub fn cache_counters(&self) -> (u64, u64) {
        (self.cache_hits.get(), self.cache_misses.get())
    }

    fn record_outcome(&self, outcome: CacheOutcome) {
        match outcome {
            CacheOutcome::Hit | CacheOutcome::NegativeHit => self.cache_hits.inc(),
            CacheOutcome::Miss => self.cache_misses.inc(),
            CacheOutcome::Bypass => {}
        }
    }

    /// The synthesizer's RNG, derived from exactly **one** draw of the
    /// search RNG. This decoupling is what makes the memo cache pay off
    /// across jobs: a cache hit skips synthesis (and all its RNG
    /// consumption) but still costs the same single draw from the
    /// search stream, so hit and miss leave the search RNG in an
    /// identical state. A resubmitted job therefore replays its
    /// previous trajectory window for window — every slow call repeats
    /// and is served from the cache — as long as the cache still holds
    /// (or, when cold, deterministically re-creates) the entries that
    /// trajectory produced. Entries are keyed by window *unitary*, not
    /// by job, so on a cache shared across heterogeneous traffic a
    /// colliding window synthesized by another job can be served
    /// instead of this job's own re-roll — an equally ε-verified
    /// substitution that soundly shifts the trajectory (the
    /// differential suites pin the cache off where bit-for-bit
    /// comparison is asserted).
    fn synth_rng(rng: &mut SmallRng) -> SmallRng {
        SmallRng::seed_from_u64(rng.random::<u64>())
    }

    /// Chooses the random region this pass would act on (exposed for the
    /// async driver, which needs the region and snapshot separately).
    pub fn pick_region(&self, circuit: &Circuit, rng: &mut SmallRng) -> Option<Region> {
        if circuit.is_empty() {
            return None;
        }
        self.region_at(circuit, rng.random_range(0..circuit.len()))
    }

    /// The region this pass would grow around `anchor`, or `None` when
    /// the spot cannot support a useful resynthesis.
    pub fn region_at(&self, circuit: &Circuit, anchor: usize) -> Option<Region> {
        let region = Region::grow(circuit, anchor, self.max_qubits)?;
        // A region with fewer than 2 member gates cannot shrink.
        if region.member_indices(circuit).len() < 2 {
            return None;
        }
        Some(region)
    }

    /// Resynthesizes the region's subcircuit, expressing the edit via
    /// [`Region::replacement_patch`] (members removed, replacement
    /// spliced after the window, matching the emission order of
    /// [`Region::replace`]).
    pub fn resynthesize_region_patch(
        &self,
        circuit: &Circuit,
        region: &Region,
        rng: &mut SmallRng,
    ) -> Option<PatchApplied> {
        let sub = region.extract(circuit);
        let mut synth_rng = Self::synth_rng(rng);
        let (out, outcome) =
            self.rs
                .resynthesize_cached(&sub, self.eps, &mut synth_rng, self.cache.as_deref());
        self.record_outcome(outcome);
        let out = out?;
        Some(PatchApplied {
            patch: region.replacement_patch(circuit, &out.circuit),
            epsilon: out.epsilon,
        })
    }
}

impl Transformation for ResynthPass {
    fn name(&self) -> &str {
        "resynthesis"
    }

    fn epsilon(&self) -> f64 {
        self.eps
    }

    fn family(&self) -> Family {
        Family::Resynth
    }

    fn apply_patch(&self, ctx: &mut SearchCtx, rng: &mut SmallRng) -> Option<PatchApplied> {
        if ctx.circuit().is_empty() {
            return None;
        }
        let anchor = ctx.sample_anchor(rng);
        let region = self.region_at(ctx.circuit(), anchor)?;
        self.resynthesize_region_patch(ctx.circuit(), &region, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcir::Gate;
    use rand::SeedableRng;

    #[test]
    fn rule_pass_fires_and_is_exact() {
        let rules = qrewrite::rules_for(GateSet::Nam);
        let cancel = rules
            .iter()
            .find(|r| r.name() == "cx-cancel")
            .unwrap()
            .clone();
        let t = RulePass::new(cancel);
        assert_eq!(t.epsilon(), 0.0);
        let mut c = Circuit::new(2);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[0, 1]);
        let mut ctx = SearchCtx::new(c);
        let mut rng = SmallRng::seed_from_u64(1);
        let out = t.apply_patch(&mut ctx, &mut rng).unwrap();
        assert_eq!(out.epsilon, 0.0);
        ctx.commit(&out.patch);
        assert!(ctx.circuit().is_empty());
    }

    #[test]
    fn resynth_pass_shrinks_mergeable_rotations() {
        let rs = Arc::new(Resynthesizer::new(GateSet::IbmEagle));
        let t = ResynthPass::new(rs, 3, 1e-6);
        let mut c = Circuit::new(1);
        c.push(Gate::Rz(0.3), &[0]);
        c.push(Gate::Rz(0.4), &[0]);
        c.push(Gate::Rz(0.5), &[0]);
        let mut ctx = SearchCtx::new(c.clone());
        let mut rng = SmallRng::seed_from_u64(2);
        let out = t.apply_patch(&mut ctx, &mut rng).unwrap();
        assert!(out.epsilon <= 1e-6);
        ctx.commit(&out.patch);
        assert!(ctx.circuit().len() < c.len());
        assert!(qsim::circuits_equivalent(&c, ctx.circuit(), 1e-5));
    }

    #[test]
    fn cleanup_pass_noop_on_clean_circuit() {
        let mut c = Circuit::new(1);
        c.push(Gate::H, &[0]);
        let mut rng = SmallRng::seed_from_u64(3);
        assert!(CleanupPass
            .apply_patch(&mut SearchCtx::new(c), &mut rng)
            .is_none());
    }

    #[test]
    fn commits_record_dirty_windows_and_replacement_clears_them() {
        let mut c = Circuit::new(2);
        for _ in 0..6 {
            c.push(Gate::H, &[0]);
        }
        let mut ctx = SearchCtx::with_scratch(c.clone(), 0.5, MatchScratch::new());
        assert_eq!(ctx.dirty_windows().count(), 0);
        ctx.commit(&Patch::new(vec![2, 3], Vec::new(), 2));
        let windows: Vec<_> = ctx.dirty_windows().collect();
        assert_eq!(windows.len(), 1);
        // Edit at [2,4) with ±2 padding, clamped to the 4-gate result.
        assert_eq!(windows[0], (0, 4));
        // Biased sampling stays in range.
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..64 {
            assert!(ctx.sample_anchor(&mut rng) < ctx.circuit().len());
        }
        ctx.replace_circuit(c);
        assert_eq!(ctx.dirty_windows().count(), 0);
    }
}
