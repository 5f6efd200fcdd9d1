//! Re-implemented archetypes of the paper's comparison tools (Table 3).
//!
//! Every baseline here is an honest re-implementation of the *approach*
//! of the corresponding tool, built on the same substrates as GUOQ so the
//! comparison isolates the search strategy (see DESIGN.md §3 for the
//! substitution rationale):
//!
//! | Paper tool | Here |
//! |---|---|
//! | Qiskit / TKET / VOQC | [`PipelineOptimizer`] (fixed pass sequences, three presets) |
//! | BQSKit / QUEST | [`PartitionResynth`] (one partition-and-resynthesize sweep) |
//! | QUESO / Quartz | [`BeamSearch`] (MaxBeam over rewrite rules) |
//! | Quarl (GPU RL) | [`BanditRewriter`] (softmax bandit rule scheduler) |
//! | GUOQ-SEQ-* | [`sequential_guoq`] (coarse phase split, §6 Q3) |

use crate::cost::CostFn;
use crate::guoq::{Budget, Guoq, GuoqOpts, GuoqResult};
use qcir::{Circuit, GateSet, Region};
use qfold::{fold_rotations, EmitStyle};
use qrewrite::{apply_rule_pass, fusion, Rule};
use qsynth::Resynthesizer;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// A named circuit optimizer (common harness interface).
pub trait Optimizer {
    /// Display name for tables.
    fn name(&self) -> String;

    /// Optimizes `circuit` under `cost` within `budget`.
    fn optimize(&self, circuit: &Circuit, cost: &dyn CostFn, budget: Budget) -> Circuit;
}

// ---------------------------------------------------------------------
// Fixed-pipeline optimizers (Qiskit / TKET / VOQC archetypes).
// ---------------------------------------------------------------------

/// Aggressiveness preset of a [`PipelineOptimizer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelinePreset {
    /// Cancellation passes only (TKET-archetype default pipeline).
    Light,
    /// Cancellation + rotation folding (VOQC archetype).
    Medium,
    /// Cancellation + folding + 1q fusion, iterated to fixpoint
    /// (Qiskit `-O3` archetype).
    Heavy,
}

/// A fixed sequence of passes applied in a fixed order — the architecture
/// of traditional optimizers the paper contrasts with (§1, Table 3).
#[derive(Debug, Clone)]
pub struct PipelineOptimizer {
    set: GateSet,
    preset: PipelinePreset,
    rules: Vec<Rule>,
}

impl PipelineOptimizer {
    /// Creates the pipeline for a gate set.
    pub fn new(set: GateSet, preset: PipelinePreset) -> Self {
        // Fixed pipelines only use size-reducing rules, deterministically.
        let rules = qrewrite::rules_for(set)
            .into_iter()
            .filter(|r| r.gate_delta() < 0)
            .collect();
        PipelineOptimizer { set, preset, rules }
    }

    fn reduce_rules_to_fixpoint(&self, mut c: Circuit, deadline: Instant) -> Circuit {
        loop {
            let mut changed = false;
            for rule in &self.rules {
                if Instant::now() >= deadline {
                    return c;
                }
                while let Some((next, _)) = apply_rule_pass(&c, rule, 0) {
                    c = next;
                    changed = true;
                    if Instant::now() >= deadline {
                        return c;
                    }
                }
            }
            if !changed {
                return c;
            }
        }
    }

    fn fold(&self, c: &Circuit) -> Circuit {
        let style = if self.set.is_continuous() {
            EmitStyle::Rz
        } else {
            EmitStyle::CliffordT
        };
        let folded = fold_rotations(c, style);
        // The fold emits Rz; map to the set's phase gate when needed.
        if self.set == GateSet::Ibmq20 {
            let instrs = folded
                .iter()
                .map(|i| match i.gate {
                    qcir::Gate::Rz(a) => qcir::Instruction::new(qcir::Gate::P(a), i.qubits()),
                    _ => *i,
                })
                .collect();
            Circuit::from_instructions(folded.num_qubits(), instrs)
        } else {
            folded
        }
    }
}

impl Optimizer for PipelineOptimizer {
    fn name(&self) -> String {
        match self.preset {
            PipelinePreset::Light => "pipeline-light (tket-like)".into(),
            PipelinePreset::Medium => "pipeline-medium (voqc-like)".into(),
            PipelinePreset::Heavy => "pipeline-heavy (qiskit-like)".into(),
        }
    }

    fn optimize(&self, circuit: &Circuit, _cost: &dyn CostFn, budget: Budget) -> Circuit {
        let deadline = match budget {
            Budget::Time(d) => Instant::now() + d,
            Budget::Iterations(_) => Instant::now() + std::time::Duration::from_secs(3600),
        };
        let mut c = fusion::remove_identities(circuit, 1e-9).unwrap_or_else(|| circuit.clone());
        let max_rounds = match self.preset {
            PipelinePreset::Light => 1,
            PipelinePreset::Medium => 2,
            PipelinePreset::Heavy => 4,
        };
        for _ in 0..max_rounds {
            let before = c.len();
            c = self.reduce_rules_to_fixpoint(c, deadline);
            // General-purpose pipelines do rotation merging only for
            // continuous sets (matching Qiskit, which reduces T on a
            // handful of Clifford+T benchmarks only — §6 Q4).
            if self.preset != PipelinePreset::Light && self.set.is_continuous() {
                c = self.fold(&c);
            }
            if self.preset == PipelinePreset::Heavy {
                if let Some(fused) = fusion::fuse_1q_runs(&c, self.set) {
                    c = fused;
                }
                c = qrewrite::commutation::commutative_cancellation_fixpoint(&c);
            }
            if let Some(clean) = fusion::remove_identities(&c, 1e-9) {
                c = clean;
            }
            if c.len() >= before || Instant::now() >= deadline {
                break;
            }
        }
        c
    }
}

// ---------------------------------------------------------------------
// Partition + resynthesize (BQSKit / QUEST archetype).
// ---------------------------------------------------------------------

/// A single sweep of disjoint-partition resynthesis: partition the circuit
/// left-to-right into ≤3-qubit convex regions and resynthesize each once
/// (the approach of BQSKit's pipeline and QUEST [44]).
pub struct PartitionResynth {
    rs: Resynthesizer,
    max_qubits: usize,
    eps_total: f64,
    seed: u64,
}

impl PartitionResynth {
    /// Creates the optimizer for a gate set.
    pub fn new(set: GateSet, eps_total: f64, seed: u64) -> Self {
        PartitionResynth {
            rs: Resynthesizer::new(set),
            max_qubits: 3,
            eps_total,
            seed,
        }
    }

    /// Partitions a circuit into disjoint convex regions (scan-line).
    pub fn partition(circuit: &Circuit, max_qubits: usize) -> Vec<Region> {
        let mut taken = vec![false; circuit.len()];
        let mut regions = Vec::new();
        for anchor in 0..circuit.len() {
            if taken[anchor] {
                continue;
            }
            if let Some(region) = Region::grow_after(circuit, anchor, max_qubits, &taken) {
                for m in region.member_indices(circuit) {
                    taken[m] = true;
                }
                regions.push(region);
            } else {
                taken[anchor] = true; // too wide to resynthesize; skip
            }
        }
        regions
    }
}

impl Optimizer for PartitionResynth {
    fn name(&self) -> String {
        "partition-resynth (bqskit-like)".into()
    }

    fn optimize(&self, circuit: &Circuit, cost: &dyn CostFn, budget: Budget) -> Circuit {
        let deadline = match budget {
            Budget::Time(d) => Instant::now() + d,
            Budget::Iterations(_) => Instant::now() + std::time::Duration::from_secs(3600),
        };
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let regions = Self::partition(circuit, self.max_qubits);
        if regions.is_empty() {
            return circuit.clone();
        }
        let eps_each = self.eps_total / regions.len() as f64;
        // Resynthesize every region against the ORIGINAL circuit, then
        // splice all accepted replacements in one pass (regions have
        // disjoint member sets, and each replacement commutes with the
        // non-member gates inside its window).
        let mut skip = vec![false; circuit.len()];
        let mut emit_at: Vec<Option<Circuit>> = vec![None; circuit.len()];
        let mut mapping_at: Vec<Option<Vec<qcir::Qubit>>> = vec![None; circuit.len()];
        for region in regions {
            if Instant::now() >= deadline {
                break;
            }
            let members = region.member_indices(circuit);
            if members.len() < 2 {
                continue;
            }
            let sub = region.extract(circuit);
            if let Some(out) = self.rs.resynthesize(&sub, eps_each, &mut rng) {
                if cost.cost(&out.circuit) <= cost.cost(&sub) {
                    for &m in &members {
                        skip[m] = true;
                    }
                    mapping_at[members[0]] = Some(region.qubits().to_vec());
                    emit_at[members[0]] = Some(out.circuit);
                }
            }
        }
        let mut c = Circuit::new(circuit.num_qubits());
        for (i, ins) in circuit.iter().enumerate() {
            if let Some(repl) = &emit_at[i] {
                let mapping = mapping_at[i].as_ref().expect("mapping recorded");
                c.extend_mapped(repl, mapping);
            }
            if !skip[i] {
                c.push_instruction(*ins);
            }
        }
        c
    }
}

// ---------------------------------------------------------------------
// Beam search over rewrite rules (QUESO / Quartz archetype).
// ---------------------------------------------------------------------

/// MaxBeam-style search (QUESO [66]): keep a bounded set of candidate
/// circuits; each round, apply *every* rule to every candidate and keep
/// the best `beam_width` results.
pub struct BeamSearch {
    rules: Vec<Rule>,
    resynth: Option<crate::transform::ResynthPass>,
    eps_total: f64,
    /// Maximum number of candidates kept per round.
    pub beam_width: usize,
    seed: u64,
}

impl BeamSearch {
    /// Creates a beam search over the gate set's rule corpus.
    pub fn new(set: GateSet, beam_width: usize, seed: u64) -> Self {
        BeamSearch {
            rules: qrewrite::rules_for(set),
            resynth: None,
            eps_total: 0.0,
            beam_width,
            seed,
        }
    }

    /// Creates a beam search over explicit rules.
    pub fn with_rules(rules: Vec<Rule>, beam_width: usize, seed: u64) -> Self {
        BeamSearch {
            rules,
            resynth: None,
            eps_total: 0.0,
            beam_width,
            seed,
        }
    }

    /// Instantiates the paper's `GUOQ-BEAM` (§6 Q3): MaxBeam over the
    /// *full* transformation set, resynthesis included, with a global
    /// error budget.
    pub fn with_resynthesis(mut self, set: GateSet, eps_total: f64) -> Self {
        let eps = (eps_total / 8.0).max(1e-12);
        self.resynth = Some(crate::transform::ResynthPass::new(
            qsynth::shared_resynthesizer(set, qsynth::ResynthProfile::Fast),
            3,
            eps,
        ));
        self.eps_total = eps_total;
        self
    }
}

impl Optimizer for BeamSearch {
    fn name(&self) -> String {
        "beam (queso-like)".into()
    }

    fn optimize(&self, circuit: &Circuit, cost: &dyn CostFn, budget: Budget) -> Circuit {
        let started = Instant::now();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        // Candidates carry their accumulated ε (Thm. 4.2 accounting).
        let mut beam: Vec<(f64, Circuit, f64)> = vec![(cost.cost(circuit), circuit.clone(), 0.0)];
        let mut best = beam[0].clone();
        let mut iterations = 0u64;
        loop {
            iterations += 1;
            let done = match budget {
                Budget::Time(d) => started.elapsed() >= d,
                Budget::Iterations(n) => iterations > n,
            };
            if done {
                break;
            }
            let mut next: Vec<(f64, Circuit, f64)> = Vec::new();
            for (_, cand, eps) in &beam {
                for rule in &self.rules {
                    let start = if cand.is_empty() {
                        0
                    } else {
                        rng.random_range(0..cand.len())
                    };
                    if let Some((out, _)) = apply_rule_pass(cand, rule, start) {
                        let k = cost.cost(&out);
                        next.push((k, out, *eps));
                    }
                }
                if let Some(rp) = &self.resynth {
                    use crate::transform::{SearchCtx, Transformation};
                    if eps + rp.epsilon() <= self.eps_total {
                        let mut ctx = SearchCtx::new(cand.clone());
                        if let Some(pa) = rp.apply_patch(&mut ctx, &mut rng) {
                            ctx.commit(&pa.patch);
                            let out = ctx.into_circuit();
                            let k = cost.cost(&out);
                            next.push((k, out, eps + pa.epsilon));
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            // Keep the best beam_width candidates (the bounded priority
            // queue of MaxBeam); this saturates with equal-cost siblings,
            // which is exactly the pathology §6 Q3 describes.
            next.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN costs"));
            next.truncate(self.beam_width);
            if next[0].0 < best.0 {
                best = next[0].clone();
            }
            beam = next;
        }
        best.1
    }
}

// ---------------------------------------------------------------------
// Softmax-bandit rule scheduler (Quarl substitute).
// ---------------------------------------------------------------------

/// A learned rule scheduler standing in for Quarl's deep-RL agent: keeps a
/// running value estimate per rule and samples rules by softmax; rotation
/// folding is applied periodically, mirroring Quarl's rotation-merging
/// setup. See DESIGN.md §3 — clearly labelled a substitute.
pub struct BanditRewriter {
    rules: Vec<Rule>,
    set: GateSet,
    /// Softmax inverse-temperature for rule selection.
    pub beta: f64,
    seed: u64,
}

impl BanditRewriter {
    /// Creates the bandit over a gate set's corpus.
    pub fn new(set: GateSet, seed: u64) -> Self {
        BanditRewriter {
            rules: qrewrite::rules_for(set),
            set,
            beta: 1.0,
            seed,
        }
    }
}

impl Optimizer for BanditRewriter {
    fn name(&self) -> String {
        "bandit (quarl-substitute)".into()
    }

    fn optimize(&self, circuit: &Circuit, cost: &dyn CostFn, budget: Budget) -> Circuit {
        let started = Instant::now();
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let n = self.rules.len();
        let mut value = vec![0.0f64; n];
        let mut pulls = vec![1.0f64; n];
        let mut curr = circuit.clone();
        let mut cost_curr = cost.cost(&curr);
        let mut best = curr.clone();
        let mut cost_best = cost_curr;
        let mut iterations = 0u64;
        loop {
            iterations += 1;
            let done = match budget {
                Budget::Time(d) => started.elapsed() >= d,
                Budget::Iterations(k) => iterations > k,
            };
            if done {
                break;
            }
            // Periodic rotation folding (Quarl runs with rotation merging).
            if iterations.is_multiple_of(64) && self.set.is_continuous() {
                let folded = fold_rotations(&curr, EmitStyle::Rz);
                if cost.cost(&folded) <= cost_curr && self.set != GateSet::Ibmq20 {
                    cost_curr = cost.cost(&folded);
                    curr = folded;
                }
            }
            // Softmax sample.
            let weights: Vec<f64> = value
                .iter()
                .zip(&pulls)
                .map(|(v, p)| (self.beta * v / p).exp())
                .collect();
            let total: f64 = weights.iter().sum();
            let mut x = rng.random::<f64>() * total;
            let mut idx = 0;
            for (i, w) in weights.iter().enumerate() {
                if x < *w {
                    idx = i;
                    break;
                }
                x -= w;
            }
            let start = if curr.is_empty() {
                0
            } else {
                rng.random_range(0..curr.len())
            };
            pulls[idx] += 1.0;
            if let Some((out, _)) = apply_rule_pass(&curr, &self.rules[idx], start) {
                let k = cost.cost(&out);
                let reward = cost_curr - k;
                value[idx] += reward;
                if k <= cost_curr {
                    curr = out;
                    cost_curr = k;
                    if k < cost_best {
                        best = curr.clone();
                        cost_best = k;
                    }
                }
            }
        }
        let _ = cost_best;
        best
    }
}

// ---------------------------------------------------------------------
// Coarse sequential phase split (GUOQ-SEQ-*, §6 Q3).
// ---------------------------------------------------------------------

/// Which phase runs first in [`sequential_guoq`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqOrder {
    /// Rewrite for the first half, then resynthesis (`GUOQ-SEQ-REWRITE-RESYNTH`).
    RewriteThenResynth,
    /// Resynthesis first, then rewrite (`GUOQ-SEQ-RESYNTH-REWRITE`).
    ResynthThenRewrite,
}

/// Runs GUOQ in two coarse phases, spending half the budget in each mode
/// (the paper's Q3 ablation showing tight interleaving wins).
pub fn sequential_guoq(
    circuit: &Circuit,
    set: GateSet,
    cost: &dyn CostFn,
    order: SeqOrder,
    opts: GuoqOpts,
) -> GuoqResult {
    let half = |b: Budget| match b {
        Budget::Time(d) => Budget::Time(d / 2),
        Budget::Iterations(n) => Budget::Iterations(n / 2),
    };
    let mut first_opts = opts.clone();
    first_opts.budget = half(opts.budget);
    let mut second_opts = first_opts.clone();
    second_opts.seed = opts.seed.wrapping_add(1);
    // Each phase gets half the error budget.
    first_opts.eps_total = opts.eps_total / 2.0;
    second_opts.eps_total = opts.eps_total / 2.0;

    let (first, second) = match order {
        SeqOrder::RewriteThenResynth => (
            Guoq::rewrite_only(set, first_opts),
            Guoq::resynth_only(set, second_opts),
        ),
        SeqOrder::ResynthThenRewrite => (
            Guoq::resynth_only(set, first_opts),
            Guoq::rewrite_only(set, second_opts),
        ),
    };
    let mid = first.optimize(circuit, cost);
    let mut fin = second.optimize(&mid.circuit, cost);
    fin.epsilon += mid.epsilon;
    fin.iterations += mid.iterations;
    fin.accepted += mid.accepted;
    fin.resynth_hits += mid.resynth_hits;
    fin.cache_hits += mid.cache_hits;
    fin.cache_misses += mid.cache_misses;
    fin.profile.merge(&mid.profile);
    if mid.cost < fin.cost {
        // The second phase may not improve on the first's best.
        fin.circuit = mid.circuit;
        fin.cost = mid.cost;
    }
    fin
}

/// Wrapper giving GUOQ itself the [`Optimizer`] interface for harnesses.
pub struct GuoqOptimizer {
    set: GateSet,
    opts: GuoqOpts,
    /// Optional label suffix for tables.
    pub label: String,
}

impl GuoqOptimizer {
    /// Full GUOQ for a gate set.
    pub fn new(set: GateSet, opts: GuoqOpts) -> Self {
        GuoqOptimizer {
            set,
            opts,
            label: "guoq".into(),
        }
    }
}

impl Optimizer for GuoqOptimizer {
    fn name(&self) -> String {
        self.label.clone()
    }

    fn optimize(&self, circuit: &Circuit, cost: &dyn CostFn, budget: Budget) -> Circuit {
        let mut opts = self.opts.clone();
        opts.budget = budget;
        Guoq::for_gate_set(self.set, opts)
            .optimize(circuit, cost)
            .circuit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{GateCount, TwoQubitCount};
    use qcir::Gate;

    fn messy() -> Circuit {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0]);
        c.push(Gate::H, &[0]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Cx, &[0, 1]);
        c.push(Gate::Rz(0.2), &[2]);
        c.push(Gate::Rz(0.3), &[2]);
        c.push(Gate::Cx, &[1, 2]);
        c.push(Gate::X, &[1]);
        c.push(Gate::X, &[1]);
        c
    }

    #[test]
    fn pipeline_reduces_and_preserves() {
        for preset in [
            PipelinePreset::Light,
            PipelinePreset::Medium,
            PipelinePreset::Heavy,
        ] {
            let p = PipelineOptimizer::new(GateSet::Nam, preset);
            let c = messy();
            // Iteration budgets are deterministic on a loaded host; the
            // pipeline ignores the count and runs its bounded rounds.
            let out = p.optimize(&c, &GateCount, Budget::Iterations(1_000));
            assert!(out.len() < c.len(), "{preset:?}");
            assert!(qsim::circuits_equivalent(&c, &out, 1e-6), "{preset:?}");
        }
    }

    #[test]
    fn partition_covers_all_gates_disjointly() {
        let c = messy();
        let regions = PartitionResynth::partition(&c, 3);
        let mut seen = vec![false; c.len()];
        for r in &regions {
            for m in r.member_indices(&c) {
                assert!(!seen[m], "instruction {m} in two regions");
                seen[m] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "partition must cover the circuit");
    }

    #[test]
    fn partition_resynth_improves() {
        let p = PartitionResynth::new(GateSet::Nam, 1e-6, 3);
        let c = messy();
        let out = p.optimize(&c, &TwoQubitCount, Budget::Iterations(1_000));
        assert!(out.two_qubit_count() <= c.two_qubit_count());
        assert!(qsim::circuits_equivalent(&c, &out, 1e-4));
    }

    #[test]
    fn beam_search_reduces() {
        let b = BeamSearch::new(GateSet::Nam, 4, 5);
        let c = messy();
        let out = b.optimize(&c, &GateCount, Budget::Iterations(20));
        assert!(out.len() < c.len());
        assert!(qsim::circuits_equivalent(&c, &out, 1e-6));
    }

    #[test]
    fn bandit_reduces() {
        let b = BanditRewriter::new(GateSet::Nam, 6);
        let c = messy();
        let out = b.optimize(&c, &GateCount, Budget::Iterations(300));
        assert!(out.len() < c.len());
        assert!(qsim::circuits_equivalent(&c, &out, 1e-6));
    }

    #[test]
    fn sequential_orders_both_run() {
        let c = messy();
        let opts = GuoqOpts {
            budget: Budget::Iterations(200),
            eps_total: 1e-6,
            seed: 11,
            ..Default::default()
        };
        for order in [SeqOrder::RewriteThenResynth, SeqOrder::ResynthThenRewrite] {
            let r = sequential_guoq(&c, GateSet::Nam, &TwoQubitCount, order, opts.clone());
            assert!(r.cost <= TwoQubitCount.cost(&c), "{order:?}");
            assert!(qsim::circuits_equivalent(&c, &r.circuit, 1e-4), "{order:?}");
        }
    }
}
