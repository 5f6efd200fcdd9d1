//! Differential tests for the sharded parallel engine and the shard
//! patch re-offsetting machinery.
//!
//! * `Engine::Sharded` with 1..=4 workers must produce a circuit
//!   unitarily equivalent to its input (the same check as
//!   `tests/end_to_end.rs`) and never a worse final cost.
//! * Lifting shard-local patches into parent coordinates
//!   ([`qcir::ShardSpec::lift`]) must compose to exactly the circuit
//!   obtained by patching each extracted shard and reassembling.

use guoq::cost::{CostFn, GateCount, TwoQubitCount};
use guoq::{Budget, Engine, Guoq, GuoqOpts};
use proptest::prelude::*;
use qcir::shard::ShardPlan;
use qcir::{Circuit, Gate, Instruction, Patch, Qubit};
use qsim::circuits_equivalent;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A redundancy-rich workload on 6 qubits (small enough for dense
/// unitary equivalence, large enough to split into several shards).
fn workload(len: usize) -> Circuit {
    const Q: u32 = 6;
    let mut c = Circuit::new(Q as usize);
    let mut base = 0u32;
    let mut tile = 0u32;
    while c.len() + 8 <= len {
        let a = base % Q;
        let b = (base + 1) % Q;
        c.push(Gate::Cx, &[a, b]);
        c.push(Gate::Rz(0.3 + f64::from(tile % 5) * 0.1), &[a]);
        c.push(Gate::H, &[b]);
        c.push(Gate::Cx, &[a, b]);
        c.push(Gate::H, &[b]);
        c.push(Gate::T, &[a]);
        if tile % 3 == 2 {
            c.push(Gate::X, &[b]);
            c.push(Gate::X, &[b]);
        }
        base = base.wrapping_add(2);
        tile += 1;
    }
    c
}

#[test]
fn sharded_engine_preserves_semantics_across_worker_counts() {
    let c = workload(240);
    let input_cost = GateCount.cost(&c);
    for workers in 1..=4 {
        let opts = GuoqOpts {
            budget: Budget::Iterations(4000),
            eps_total: 1e-6,
            seed: 31,
            engine: Engine::Sharded {
                workers,
                slice_iterations: 512,
            },
            ..Default::default()
        };
        let g = Guoq::for_gate_set(qcir::GateSet::Nam, opts);
        let r = g.optimize(&c, &GateCount);
        assert!(
            r.cost <= input_cost,
            "{workers} workers worsened cost: {} > {input_cost}",
            r.cost
        );
        assert!(r.epsilon <= 1e-6, "{workers} workers: ε = {}", r.epsilon);
        assert!(
            circuits_equivalent(&c, &r.circuit, 1e-4),
            "{workers} workers broke equivalence"
        );
    }
}

#[test]
fn sharded_engine_zero_eps_budget_is_exact() {
    let c = workload(160);
    let opts = GuoqOpts {
        budget: Budget::Iterations(3000),
        eps_total: 0.0,
        resynth_probability: 0.2,
        seed: 9,
        engine: Engine::Sharded {
            workers: 3,
            slice_iterations: 256,
        },
        ..Default::default()
    };
    let g = Guoq::for_gate_set(qcir::GateSet::Nam, opts);
    let r = g.optimize(&c, &TwoQubitCount);
    assert_eq!(r.epsilon, 0.0);
    assert!(r.cost <= TwoQubitCount.cost(&c));
    assert!(circuits_equivalent(&c, &r.circuit, 1e-7));
}

/// Builds an arbitrary (index-structural) patch against `shard`:
/// removes up to two random instructions and inserts a fresh gate at a
/// random position.
fn random_shard_patch(shard: &Circuit, rng: &mut SmallRng) -> Option<Patch> {
    let n = shard.len();
    if n == 0 {
        return None;
    }
    let mut removed: Vec<usize> = Vec::new();
    for _ in 0..rng.random_range(0..=2usize.min(n)) {
        let i = rng.random_range(0..n);
        if !removed.contains(&i) {
            removed.push(i);
        }
    }
    removed.sort_unstable();
    let replacement = if rng.random::<f64>() < 0.7 {
        vec![Instruction::new(
            Gate::H,
            &[rng.random_range(0..shard.num_qubits() as Qubit)],
        )]
    } else {
        Vec::new()
    };
    let insert_at = rng.random_range(0..=n);
    Some(Patch::new(removed, replacement, insert_at))
}

/// Strategy: a random circuit over the Nam gate set on `n` qubits.
fn nam_circuit(n: u32, max_len: usize) -> impl Strategy<Value = Circuit> {
    let gate = prop_oneof![
        (0..n).prop_map(|q| (Gate::H, vec![q])),
        (0..n).prop_map(|q| (Gate::X, vec![q])),
        ((0..n), -3.0f64..3.0).prop_map(|(q, a)| (Gate::Rz(a), vec![q])),
        ((0..n), (0..n)).prop_filter_map("distinct", move |(a, b)| {
            if a == b {
                None
            } else {
                Some((Gate::Cx, vec![a, b]))
            }
        }),
    ];
    proptest::collection::vec(gate, 1..max_len).prop_map(move |gates| {
        let mut c = Circuit::new(n as usize);
        for (g, qs) in gates {
            c.push(g, &qs);
        }
        c
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Shard-local patches, lifted into parent coordinates, compose to
    /// the same circuit as patching each extracted shard and
    /// concatenating the results.
    #[test]
    fn shard_patch_reoffsetting_composes(
        c in nam_circuit(4, 48),
        k in 1usize..5,
        phase in 0usize..2,
        seed in 0u64..1000,
    ) {
        let plan = ShardPlan::partition(&c, k, phase);
        let mut rng = SmallRng::seed_from_u64(seed);

        // Patch each shard locally…
        let mut parts: Vec<Circuit> = Vec::new();
        let mut lifted: Vec<(usize, Patch)> = Vec::new();
        for spec in plan.shards() {
            let shard = plan.extract(&c, spec.index());
            match random_shard_patch(&shard, &mut rng) {
                Some(patch) => {
                    lifted.push((spec.index(), spec.lift(&patch)));
                    parts.push(shard.with_patch(&patch));
                }
                None => parts.push(shard),
            }
        }
        let from_shards = plan.reassemble(&parts);

        // …and apply the lifted patches directly to the parent,
        // right-to-left so earlier windows keep their indexing.
        let mut direct = c.clone();
        for (_, patch) in lifted.iter().rev() {
            direct.apply_patch(patch);
        }
        prop_assert_eq!(from_shards, direct);
    }

}

proptest! {
    // Fewer cases than the structural tests above: each case constructs
    // a full optimizer (rule corpus + resynthesizer) and a worker pool.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The sharded engine never worsens gate count on arbitrary
    /// circuits and preserves semantics.
    #[test]
    fn sharded_engine_sound_on_random_circuits(
        c in nam_circuit(3, 24),
        seed in 0u64..200,
        workers in 1usize..4,
    ) {
        let opts = GuoqOpts {
            budget: Budget::Iterations(150),
            eps_total: 1e-6,
            seed,
            engine: Engine::Sharded {
                workers,
                slice_iterations: 64,
            },
            ..Default::default()
        };
        let r = Guoq::for_gate_set(qcir::GateSet::Nam, opts).optimize(&c, &GateCount);
        prop_assert!(r.cost <= c.len() as f64);
        prop_assert!(r.epsilon <= 1e-6);
        prop_assert!(circuits_equivalent(&c, &r.circuit, 1e-4));
    }
}
