//! Cross-crate integration tests: the full GUOQ pipeline on real
//! workloads, with semantic verification at every step.

use guoq::cost::{GateCount, TThenCx, TWeighted, TwoQubitCount};
use guoq::{Budget, CostFn, Guoq, GuoqOpts};
use qcir::{rebase::rebase, GateSet};
use qsim::circuits_equivalent;

fn opts(iters: u64, seed: u64) -> GuoqOpts {
    GuoqOpts {
        budget: Budget::Iterations(iters),
        eps_total: 1e-6,
        seed,
        ..Default::default()
    }
}

#[test]
fn guoq_on_qft_eagle_preserves_semantics_and_reduces() {
    let circuit = rebase(&workloads::generators::qft(5), GateSet::IbmEagle).unwrap();
    let g = Guoq::for_gate_set(GateSet::IbmEagle, opts(600, 1));
    let r = g.optimize(&circuit, &TwoQubitCount);
    assert!(r.circuit.two_qubit_count() <= circuit.two_qubit_count());
    assert!(circuits_equivalent(&circuit, &r.circuit, 1e-4));
    // Output must stay native.
    for ins in r.circuit.iter() {
        assert!(GateSet::IbmEagle.contains(ins.gate), "leaked {}", ins.gate);
    }
}

#[test]
fn guoq_on_qaoa_ionq_native_output() {
    let circuit = rebase(&workloads::generators::qaoa_maxcut(6, 1, 3), GateSet::Ionq).unwrap();
    let g = Guoq::for_gate_set(GateSet::Ionq, opts(500, 2));
    let r = g.optimize(&circuit, &GateCount);
    assert!(r.cost <= circuit.len() as f64);
    assert!(circuits_equivalent(&circuit, &r.circuit, 1e-4));
    for ins in r.circuit.iter() {
        assert!(GateSet::Ionq.contains(ins.gate), "leaked {}", ins.gate);
    }
}

#[test]
fn async_resynth_engine_preserves_semantics() {
    // The §5.3 async engine prices each worker patch against the
    // snapshot it was computed on and replaces the working circuit
    // only on accept. Whatever the thread timing, the result must be
    // equivalent, its reported cost drift-free and its ε within budget.
    let circuit = rebase(&workloads::generators::qft(4), GateSet::Nam).unwrap();
    let o = GuoqOpts {
        engine: guoq::Engine::Async,
        resynth_probability: 0.2,
        ..opts(400, 9)
    };
    let eps_total = o.eps_total;
    let r = Guoq::for_gate_set(GateSet::Nam, o).optimize(&circuit, &GateCount);
    assert!(circuits_equivalent(&circuit, &r.circuit, 1e-4));
    assert_eq!(r.cost, GateCount.cost(&r.circuit));
    assert!(r.cost <= circuit.len() as f64);
    assert!(r.epsilon <= eps_total, "ε {} over budget", r.epsilon);
}

#[test]
fn guoq_reduces_toffoli_pair_to_nothing_like() {
    // Two adjacent Toffolis cancel; after Clifford+T decomposition GUOQ
    // should recover a large part of that cancellation.
    let mut raw = qcir::Circuit::new(3);
    raw.push(qcir::Gate::Ccx, &[0, 1, 2]);
    raw.push(qcir::Gate::Ccx, &[0, 1, 2]);
    let circuit = rebase(&raw, GateSet::CliffordT).unwrap();
    assert_eq!(circuit.t_count(), 14);
    let g = Guoq::for_gate_set(GateSet::CliffordT, opts(2500, 4));
    let r = g.optimize(&circuit, &TWeighted::default());
    assert!(
        r.circuit.t_count() <= 7,
        "T count only fell to {}",
        r.circuit.t_count()
    );
    assert!(circuits_equivalent(&circuit, &r.circuit, 1e-5));
}

#[test]
fn fold_then_guoq_never_increases_t() {
    let circuit = rebase(&workloads::generators::cuccaro_adder(3), GateSet::CliffordT).unwrap();
    let folded = qfold::fold_rotations(&circuit, qfold::EmitStyle::CliffordT);
    assert!(folded.t_count() <= circuit.t_count());
    let g = Guoq::for_gate_set(GateSet::CliffordT, opts(800, 5));
    let r = g.optimize(&folded, &TThenCx);
    assert!(r.circuit.t_count() <= folded.t_count());
    assert!(circuits_equivalent(&circuit, &r.circuit, 1e-5));
}

#[test]
fn error_budget_is_a_hard_constraint_end_to_end() {
    let circuit = rebase(&workloads::generators::vqe_ansatz(4, 2, 9), GateSet::Ibmq20).unwrap();
    let mut o = opts(400, 6);
    o.eps_total = 1e-4;
    o.resynth_probability = 0.3;
    let g = Guoq::for_gate_set(GateSet::Ibmq20, o);
    let r = g.optimize(&circuit, &TwoQubitCount);
    assert!(r.epsilon <= 1e-4, "ε = {} exceeds budget", r.epsilon);
    // The measured distance must respect the reported bound (Thm. 5.3).
    let v = qsim::check_equivalence(&circuit, &r.circuit, 0);
    assert!(
        v.distance() <= r.epsilon + 1e-7,
        "measured Δ = {} > reported ε = {}",
        v.distance(),
        r.epsilon
    );
}

#[test]
fn all_gate_sets_roundtrip_through_guoq() {
    for set in GateSet::ALL {
        let suite = workloads::suite(set, workloads::SuiteScale::Smoke);
        let b = &suite[0];
        let g = Guoq::for_gate_set(set, opts(150, 8));
        let r = g.optimize(&b.circuit, &GateCount);
        assert!(r.cost <= b.circuit.len() as f64, "{set}");
        if b.circuit.num_qubits() <= 8 {
            assert!(
                circuits_equivalent(&b.circuit, &r.circuit, 1e-4),
                "{set}/{}",
                b.name
            );
        }
    }
}

#[test]
fn baselines_all_preserve_semantics() {
    use guoq::baselines::*;
    let set = GateSet::Nam;
    let circuit = rebase(&workloads::generators::qft(4), set).unwrap();
    let cost = TwoQubitCount;
    let tools: Vec<Box<dyn Optimizer>> = vec![
        Box::new(PipelineOptimizer::new(set, PipelinePreset::Heavy)),
        Box::new(PipelineOptimizer::new(set, PipelinePreset::Medium)),
        Box::new(PipelineOptimizer::new(set, PipelinePreset::Light)),
        Box::new(PartitionResynth::new(set, 1e-6, 1)),
        Box::new(BeamSearch::new(set, 4, 1)),
        Box::new(BanditRewriter::new(set, 1)),
    ];
    for t in tools {
        // Iteration budget, not wall-clock: the baselines run their
        // bounded pipelines to completion regardless, and a loaded CI
        // host cannot flake a deterministic budget.
        let out = t.optimize(&circuit, &cost, Budget::Iterations(1_000));
        assert!(
            circuits_equivalent(&circuit, &out, 1e-4),
            "{} broke the circuit",
            t.name()
        );
    }
}

#[test]
fn qasm_roundtrip_of_optimized_circuit() {
    let circuit = rebase(&workloads::generators::ghz(5), GateSet::IbmEagle).unwrap();
    let g = Guoq::for_gate_set(GateSet::IbmEagle, opts(200, 10));
    let r = g.optimize(&circuit, &GateCount);
    let text = qcir::qasm::to_qasm(&r.circuit);
    let back = qcir::qasm::from_qasm(&text).unwrap();
    assert!(circuits_equivalent(&r.circuit, &back, 1e-6));
}
