//! Trajectory pins: three engines, each on one fixture with an iteration
//! budget and no cache, must reproduce a recorded final circuit (by QASM
//! hash), cost, iteration count and accepted-move count exactly.
//!
//! The serial, certifying and sharded engines are deterministic per seed
//! under an iteration budget, so any refactor that moves an RNG draw,
//! reorders a candidate or changes an acceptance decision shows up here.
//! The async engine is left out: its result depends on thread timing.
//! Update a pin only for an intentional trajectory change, and say why
//! in the change log.

use guoq::cost::GateCount;
use guoq::{Budget, Engine, Guoq, GuoqOpts, GuoqResult};
use qcir::{qasm, Circuit, GateSet};

/// Runs `guoq` on `copies` back-to-back copies of a golden fixture
/// (rebased to Nam) under the gate-count objective, returning the result
/// and the FNV-1a hash of its emitted QASM.
fn run(name: &str, copies: usize, guoq: Guoq) -> (GuoqResult, u64) {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("{name}.qasm"));
    let parsed = qasm::from_qasm(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let one = qcir::rebase::rebase(&parsed, GateSet::Nam).unwrap();
    let mut input = Circuit::new(one.num_qubits());
    for _ in 0..copies {
        input.extend_from(&one);
    }
    let r = guoq.optimize(&input, &GateCount);
    let hash = qasm::to_qasm(&r.circuit)
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    (r, hash)
}

fn opts(iterations: u64, engine: Engine) -> GuoqOpts {
    GuoqOpts {
        budget: Budget::Iterations(iterations),
        seed: 42,
        engine,
        ..Default::default()
    }
}

#[test]
fn serial_engine_with_resynthesis_is_pinned() {
    let o = GuoqOpts {
        eps_total: 1e-6,
        ..opts(400, Engine::Serial)
    };
    let (r, hash) = run("vqe_ansatz4", 1, Guoq::for_gate_set(GateSet::Nam, o));
    assert!(
        r.epsilon > 0.0,
        "the pin must cover an accepted resynthesis"
    );
    assert_eq!(
        (hash, r.cost, r.iterations, r.accepted),
        (0x9885_a892_79b3_9dc9, 65.0, 400, 25)
    );
}

#[test]
fn certifying_engine_is_pinned() {
    let o = opts(50_000, Engine::Certifying { prior: None });
    let (r, hash) = run("random_clifford_t5", 1, Guoq::rewrite_only(GateSet::Nam, o));
    assert!(
        r.certificate.is_some(),
        "the run must certify and stop early"
    );
    assert_eq!(
        (hash, r.cost, r.iterations, r.accepted),
        (0x844b_2f6b_45d7_a565, 36.0, 2795, 348)
    );
}

#[test]
fn sharded_engine_with_two_workers_is_pinned() {
    let engine = Engine::Sharded {
        workers: 2,
        slice_iterations: 256,
    };
    let (r, hash) = run(
        "random_clifford_t5",
        2,
        Guoq::rewrite_only(GateSet::Nam, opts(4000, engine)),
    );
    assert_eq!(
        (hash, r.cost, r.iterations, r.accepted),
        (0xaed4_4b3b_f2ba_69ff, 71.0, 4000, 517)
    );
}
