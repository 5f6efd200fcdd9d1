//! Golden-file QASM round-trip tests.
//!
//! The streaming snapshots in `qserve` depend on stable serialization:
//! a circuit that survives parse → optimize(0 iterations) → emit must
//! come back **byte-identical**, otherwise differential comparisons
//! (and any client caching snapshots by content) silently drift. Each
//! fixture under `tests/fixtures/` is the canonical emission of a
//! known generator circuit; the tests assert both directions:
//!
//! 1. the canonical emission of the generator circuit still equals the
//!    checked-in fixture (serializer drift), and
//! 2. parse → zero-iteration optimize → emit of the fixture is a
//!    byte-level fixpoint (parser/optimizer drift).
//!
//! Regenerate after an *intentional* format change with:
//! `GOLDEN_REGEN=1 cargo test --test golden_qasm`.

use guoq::cost::GateCount;
use guoq::{Budget, Engine, Guoq, GuoqOpts};
use qcir::{qasm, Circuit, Gate, GateSet};
use std::path::PathBuf;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A small hand-rolled circuit exercising every parameter shape the
/// emitter produces (negative angles, multi-parameter gates, 3-qubit
/// gates).
fn param_zoo() -> Circuit {
    let mut c = Circuit::new(3);
    c.push(Gate::H, &[0]);
    c.push(Gate::Rz(std::f64::consts::PI / 3.0), &[1]);
    c.push(Gate::Rx(-0.7), &[2]);
    c.push(Gate::U2(-1.25, 0.5), &[0]);
    c.push(Gate::U3(0.1, -0.2, 0.3), &[2]);
    c.push(Gate::Cp(std::f64::consts::FRAC_PI_8), &[0, 1]);
    c.push(Gate::Rzz(2.25), &[1, 2]);
    c.push(Gate::Ccx, &[0, 1, 2]);
    c.push(Gate::Swap, &[0, 2]);
    c.push(Gate::Tdg, &[1]);
    c
}

/// The fixture set: name → generator circuit.
fn fixtures() -> Vec<(&'static str, Circuit)> {
    use workloads::generators as gen;
    vec![
        ("ghz8", gen::ghz(8)),
        ("qft4", gen::qft(4)),
        ("tof_chain3", gen::tof_chain(3)),
        ("cuccaro_adder2", gen::cuccaro_adder(2)),
        ("qaoa_maxcut6", gen::qaoa_maxcut(6, 2, 11)),
        ("vqe_ansatz4", gen::vqe_ansatz(4, 2, 5)),
        ("random_clifford_t5", gen::random_clifford_t(5, 60, 17)),
        ("param_zoo", param_zoo()),
    ]
}

#[test]
fn fixtures_match_canonical_emission() {
    let dir = fixture_dir();
    let regen = std::env::var_os("GOLDEN_REGEN").is_some();
    let mut drifted = Vec::new();
    for (name, circuit) in fixtures() {
        let path = dir.join(format!("{name}.qasm"));
        let canonical = qasm::to_qasm(&circuit);
        if regen {
            std::fs::create_dir_all(&dir).expect("mkdir fixtures");
            std::fs::write(&path, &canonical).expect("write fixture");
            continue;
        }
        let on_disk = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {}: {e} (run GOLDEN_REGEN=1)",
                path.display()
            )
        });
        if on_disk != canonical {
            drifted.push(name);
        }
    }
    assert!(
        drifted.is_empty(),
        "serializer drifted from golden fixtures: {drifted:?} \
         (if intentional, regenerate with GOLDEN_REGEN=1)"
    );
}

#[test]
fn parse_optimize0_emit_is_byte_stable() {
    for (name, _) in fixtures() {
        let path = fixture_dir().join(format!("{name}.qasm"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            panic!("missing fixture {name} (run GOLDEN_REGEN=1 first)");
        };
        let circuit = qasm::from_qasm(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        // Zero-iteration optimize: the identity pass through the full
        // service path (the same call a snapshot-producing job makes).
        let opts = GuoqOpts {
            budget: Budget::Iterations(0),
            ..Default::default()
        };
        let r = Guoq::for_gate_set(GateSet::Nam, opts).optimize(&circuit, &GateCount);
        assert_eq!(
            r.circuit, circuit,
            "{name}: 0-iteration optimize changed the circuit"
        );
        assert_eq!(
            qasm::to_qasm(&r.circuit),
            text,
            "{name}: parse→optimize(0)→emit is not byte-stable"
        );
        // The single-line form must be a fixpoint too — it is what
        // snapshot frames carry.
        let line = qasm::to_qasm_line(&circuit);
        assert_eq!(
            qasm::to_qasm_line(&qasm::from_qasm(&line).unwrap_or_else(|e| panic!("{name}: {e}"))),
            line,
            "{name}: single-line emit is not a fixpoint"
        );
    }
}

#[test]
fn sharded_engine_zero_budget_is_identity_on_fixtures() {
    for (name, _) in fixtures() {
        let path = fixture_dir().join(format!("{name}.qasm"));
        let Ok(text) = std::fs::read_to_string(&path) else {
            panic!("missing fixture {name} (run GOLDEN_REGEN=1 first)");
        };
        let circuit = qasm::from_qasm(&text).unwrap();
        let opts = GuoqOpts {
            budget: Budget::Iterations(0),
            engine: Engine::sharded(2),
            ..Default::default()
        };
        let r = Guoq::for_gate_set(GateSet::Nam, opts).optimize(&circuit, &GateCount);
        assert_eq!(qasm::to_qasm(&r.circuit), text, "{name}");
    }
}
