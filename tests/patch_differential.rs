//! Differential tests: the patches the search commits must be
//! *bit-identical* to the materializing rewrite passes in `qrewrite`.
//!
//! Random circuits × every rule of the shipped corpora:
//! * a full rewrite pass produced as patches equals the whole-circuit
//!   pass output exactly,
//! * `apply_patch`/`revert_patch` round-trips structurally,
//! * `CostFn::delta` equals a full recompute for every objective, and
//! * the serial, async and sharded GUOQ engines preserve semantics with
//!   exact tracked costs and ε within budget.

use guoq::cost::{CostFn, GateCount, NegLogFidelity, TThenCx, TWeighted, TwoQubitCount};
use guoq::{Budget, CalibrationModel, Engine, Guoq, GuoqOpts};
use qcir::edit::apply_disjoint;
use qcir::{Circuit, Gate, GateSet};
use qrewrite::matcher::{match_at_scratch, match_to_patch, MatchScratch};
use qsim::circuits_equivalent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn random_circuit(set: GateSet, n_qubits: u32, len: usize, rng: &mut SmallRng) -> Circuit {
    let mut c = Circuit::new(n_qubits as usize);
    for _ in 0..len {
        let q = rng.random_range(0..n_qubits);
        if rng.random::<f64>() < 0.3 && n_qubits > 1 {
            let mut p = rng.random_range(0..n_qubits);
            if p == q {
                p = (p + 1) % n_qubits;
            }
            c.push(Gate::Cx, &[q, p]);
        } else {
            let g = match set {
                GateSet::CliffordT => {
                    let pool = [Gate::H, Gate::X, Gate::S, Gate::Sdg, Gate::T, Gate::Tdg];
                    pool[rng.random_range(0..pool.len())]
                }
                _ => {
                    let pool = [
                        Gate::H,
                        Gate::X,
                        Gate::Rz(rng.random_range(-3.0..3.0)),
                        Gate::Rz(std::f64::consts::FRAC_PI_4),
                        Gate::T,
                        Gate::Tdg,
                    ];
                    pool[rng.random_range(0..pool.len())]
                }
            };
            c.push(g, &[q]);
        }
    }
    c
}

fn all_costs() -> Vec<Box<dyn CostFn>> {
    vec![
        Box::new(TwoQubitCount),
        Box::new(GateCount),
        Box::new(TWeighted::default()),
        Box::new(TThenCx),
        Box::new(NegLogFidelity {
            model: CalibrationModel::for_gate_set(GateSet::Nam),
        }),
    ]
}

/// Recomputes the cached gate counts from scratch and compares.
fn assert_counts_consistent(c: &Circuit) {
    let recount = Circuit::from_instructions(c.num_qubits(), c.instructions().to_vec());
    assert_eq!(c.counts(), recount.counts(), "cached counts drifted");
    assert_eq!(
        c.two_qubit_count(),
        c.iter().filter(|i| i.gate.arity() >= 2).count()
    );
    assert_eq!(
        c.t_count(),
        c.iter()
            .filter(|i| matches!(i.gate, Gate::T | Gate::Tdg))
            .count()
    );
}

/// Every single-match patch must agree with the materializing machinery
/// on structure, cost deltas, and revertibility.
#[test]
fn single_match_patches_agree_with_legacy() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    let costs = all_costs();
    for set in [GateSet::Nam, GateSet::CliffordT] {
        let rules = qrewrite::rules_for(set);
        for trial in 0..6 {
            let c = random_circuit(set, 3, 24, &mut rng);
            let mut scratch = MatchScratch::new();
            for rule in &rules {
                for anchor in 0..c.len() {
                    let Some(m) = match_at_scratch(&c, rule, anchor, &mut scratch) else {
                        continue;
                    };
                    let patch = match_to_patch(rule, &m);

                    // Cost deltas equal full recomputes, for every objective.
                    let after = c.with_patch(&patch);
                    for cost in &costs {
                        let fast = cost.delta(&c, &patch);
                        let slow = cost.cost(&after) - cost.cost(&c);
                        assert!(
                            (fast - slow).abs() < 1e-9,
                            "{} delta {fast} != recompute {slow} (rule {}, trial {trial})",
                            cost.name(),
                            rule.name()
                        );
                    }

                    // Apply + revert round-trips structurally.
                    let mut working = c.clone();
                    let undo = working.apply_patch(&patch);
                    assert_eq!(working, after);
                    assert_counts_consistent(&working);
                    working.revert_patch(&undo);
                    assert_eq!(working, c, "revert did not restore (rule {})", rule.name());
                    assert_counts_consistent(&working);

                    // And the edit is semantically sound.
                    assert!(
                        circuits_equivalent(&c, &after, 1e-6),
                        "rule {} broke equivalence",
                        rule.name()
                    );
                }
            }
        }
    }
}

/// A full pass expressed as patches must reproduce the legacy pass
/// output exactly — same instructions, same order.
#[test]
fn pass_patches_identical_to_legacy_pass() {
    let mut rng = SmallRng::seed_from_u64(0xBEEF);
    for set in [GateSet::Nam, GateSet::CliffordT] {
        let rules = qrewrite::rules_for(set);
        for _ in 0..8 {
            let c = random_circuit(set, 4, 30, &mut rng);
            for rule in &rules {
                for start in [0, c.len() / 2, c.len().saturating_sub(1)] {
                    let legacy = qrewrite::apply_rule_pass(&c, rule, start);
                    let patches = qrewrite::rule_pass_patches(&c, rule, start);
                    match (legacy, patches) {
                        (None, None) => {}
                        (Some((out, k)), Some(ps)) => {
                            assert_eq!(ps.len(), k, "match count (rule {})", rule.name());
                            let patched = apply_disjoint(&c, &ps);
                            assert_eq!(
                                patched,
                                out,
                                "pass output differs (rule {}, start {start})",
                                rule.name()
                            );
                        }
                        (l, p) => panic!(
                            "fired mismatch for rule {}: legacy {:?} vs patches {:?}",
                            rule.name(),
                            l.map(|x| x.1),
                            p.map(|x| x.len())
                        ),
                    }
                }
            }
        }
    }
}

/// Patch-producing fusion and commutation agree with their legacy
/// sweeps: same firing conditions, equivalent semantics.
#[test]
fn builtin_pass_patches_sound() {
    let mut rng = SmallRng::seed_from_u64(0xFACE);
    for set in [GateSet::IbmEagle, GateSet::CliffordT] {
        for _ in 0..6 {
            let c = random_circuit(
                if set == GateSet::CliffordT {
                    GateSet::CliffordT
                } else {
                    GateSet::Nam
                },
                3,
                24,
                &mut rng,
            );
            let legacy_fused = qrewrite::fusion::fuse_1q_runs(&c, set);
            let mut any_patch = false;
            for anchor in 0..c.len() {
                if let Some(patch) = qrewrite::fusion::fuse_run_patch(&c, anchor, set) {
                    any_patch = true;
                    let after = c.with_patch(&patch);
                    assert!(after.len() < c.len(), "fusion patch must shrink");
                    assert!(
                        circuits_equivalent(&c, &after, 1e-6),
                        "fusion patch broke equivalence"
                    );
                }
            }
            assert_eq!(
                legacy_fused.is_some(),
                any_patch,
                "patch and legacy fusion disagree on whether anything fuses"
            );

            for anchor in 0..c.len() {
                if let Some(patch) = qrewrite::commutation::cancellation_patch_at(&c, anchor) {
                    let after = c.with_patch(&patch);
                    assert!(after.len() < c.len(), "cancellation must shrink");
                    assert!(
                        circuits_equivalent(&c, &after, 1e-6),
                        "cancellation patch broke equivalence (anchor {anchor})"
                    );
                }
            }
        }
    }
}

/// Random accepted/rejected patch walks: tracked costs never drift from
/// full recomputes, and reverted rejections restore the exact circuit.
#[test]
fn patch_walk_never_drifts() {
    let mut rng = SmallRng::seed_from_u64(0xAB1E);
    let costs = all_costs();
    let rules = qrewrite::rules_for(GateSet::Nam);
    for _ in 0..4 {
        let mut c = random_circuit(GateSet::Nam, 4, 40, &mut rng);
        let reference = c.clone();
        let mut scratch = MatchScratch::new();
        let mut tracked: Vec<f64> = costs.iter().map(|f| f.cost(&c)).collect();
        let mut edits = 0;
        for _ in 0..400 {
            if c.is_empty() {
                break;
            }
            let anchor = rng.random_range(0..c.len());
            let rule = &rules[rng.random_range(0..rules.len())];
            let Some(m) = match_at_scratch(&c, rule, anchor, &mut scratch) else {
                continue;
            };
            let patch = match_to_patch(rule, &m);
            let deltas: Vec<f64> = costs.iter().map(|f| f.delta(&c, &patch)).collect();
            if rng.random::<f64>() < 0.3 {
                // Rejected move: apply + revert must be a perfect no-op
                // (exercises the revert path the way apply-then-decide
                // flows would use it).
                let snapshot = c.clone();
                let undo = c.apply_patch(&patch);
                c.revert_patch(&undo);
                assert_eq!(c, snapshot, "revert failed to restore");
                continue;
            }
            // Accepted move: apply, update tracked costs.
            c.apply_patch(&patch);
            edits += 1;
            for (t, d) in tracked.iter_mut().zip(&deltas) {
                *t += d;
            }
            for (t, f) in tracked.iter().zip(&costs) {
                assert!(
                    (t - f.cost(&c)).abs() < 1e-9,
                    "{} drifted after {edits} edits",
                    f.name()
                );
            }
            assert_counts_consistent(&c);
        }
        assert!(
            circuits_equivalent(&reference, &c, 1e-5),
            "accumulated edits broke equivalence"
        );
    }
}

/// Every engine must produce semantically correct results with exact
/// cost accounting: the reported cost equals a full recompute of the
/// returned circuit, and the accumulated ε stays within budget.
#[test]
fn engines_agree_on_quality_and_semantics() {
    let mut rng = SmallRng::seed_from_u64(0x5EED);
    let eps_total = 1e-6;
    for trial in 0..5 {
        let c = random_circuit(GateSet::Nam, 3, 20, &mut rng);
        let cost = GateCount;
        for engine in [Engine::Serial, Engine::Async, Engine::sharded(2)] {
            let name = format!("{engine:?}");
            let opts = GuoqOpts {
                budget: Budget::Iterations(300),
                eps_total,
                seed: 42 + trial,
                engine,
                ..Default::default()
            };
            let r = Guoq::for_gate_set(GateSet::Nam, opts).optimize(&c, &cost);
            assert!(
                circuits_equivalent(&c, &r.circuit, 1e-4),
                "{name} engine broke equivalence (trial {trial})"
            );
            assert!(
                (r.cost - cost.cost(&r.circuit)).abs() < 1e-9,
                "{name} engine reported a drifted cost (trial {trial})"
            );
            assert!(
                r.cost <= cost.cost(&c),
                "{name} engine worsened the objective"
            );
            assert!(r.epsilon <= eps_total, "{name} engine overspent ε");
            assert_counts_consistent(&r.circuit);
        }
    }
}
