//! Mutation fuzzing of the text decoders on the service boundary: QASM
//! (`qasm::from_qasm`), CD1 deltas (`CircuitDelta::decode`, then
//! `apply` to the delta's base when it decodes) and protocol frames
//! (`Frame::parse`). Each case takes a valid seed input, applies 1–5
//! byte edits drawn from the decoders' own punctuation, digits and gate
//! letters, and requires the call to return — `Ok` or `Err`, never a
//! panic.

use proptest::collection::vec;
use proptest::prelude::*;
use qcir::delta::CircuitDelta;
use qcir::{qasm, Circuit, Gate};
use qserve::{EngineSel, Frame, JobRequest, Objective};

/// Bytes the edits insert or substitute.
const ALPHABET: &[u8] = b"[](),;:-+@.0123456789 eqhcxz=";

/// Cases per decoder.
const CASES: u32 = 30_000;

/// One byte edit: `((kind, alphabet index), position, second position)`.
type Edit = ((u8, usize), usize, usize);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    let at = || 0usize..1 << 20;
    vec(((0u8..4, 0usize..ALPHABET.len()), at(), at()), 1..6)
}

/// Applies `edits` to `seed`: delete a byte, swap two bytes, insert an
/// alphabet byte, or replace a byte with one.
fn mutate(seed: &str, edits: &[Edit]) -> String {
    let mut b = seed.as_bytes().to_vec();
    for &((kind, sym), at, other) in edits {
        let sym = ALPHABET[sym];
        match kind {
            2 => b.insert(at % (b.len() + 1), sym),
            _ if b.is_empty() => b.push(sym),
            0 => {
                b.remove(at % b.len());
            }
            1 => {
                let n = b.len();
                b.swap(at % n, other % n);
            }
            _ => {
                let i = at % b.len();
                b[i] = sym;
            }
        }
    }
    // Seeds and alphabet are ASCII, so any edit sequence stays UTF-8.
    String::from_utf8(b).expect("ASCII edits keep UTF-8")
}

fn fixture() -> Circuit {
    qasm::from_qasm(include_str!("fixtures/param_zoo.qasm")).expect("fixture parses")
}

/// A real delta: the fixture with one gate replaced by two and another
/// dropped.
fn fixture_delta() -> String {
    let base = fixture();
    let mut edited = Circuit::new(base.num_qubits());
    for (i, ins) in base.iter().enumerate() {
        if i == 2 {
            edited.push(Gate::Rz(0.25), &[1]);
            edited.push(Gate::Cx, &[2, 0]);
        } else if i != 4 {
            edited.push_instruction(*ins);
        }
    }
    CircuitDelta::diff(&base, &edited).encode()
}

/// One encoded frame per client verb.
fn client_frames() -> Vec<String> {
    let submit = JobRequest {
        id: 7,
        engine: EngineSel::Sharded(2),
        iters: 4000,
        time_ms: 0,
        seed: 11,
        eps: 1e-8,
        objective: Objective::GateCount,
        overwrite: false,
        certify: true,
        qasm: qasm::to_qasm_line(&fixture()),
    };
    [
        Frame::Hello { version: 2 },
        Frame::Submit(submit),
        Frame::Cancel { id: 7 },
        Frame::Resume { id: 7 },
        Frame::Edit {
            id: 7,
            delta: fixture_delta(),
        },
        Frame::Health,
        Frame::Stats,
        Frame::Shutdown,
    ]
    .iter()
    .map(|f| f.encode().trim_end().to_string())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn mutated_qasm_never_panics(edits in edits()) {
        let seed = qasm::to_qasm_line(&fixture());
        let _ = qasm::from_qasm(&mutate(&seed, &edits));
    }

    #[test]
    fn mutated_delta_never_panics(edits in edits()) {
        if let Ok(delta) = CircuitDelta::decode(&mutate(&fixture_delta(), &edits)) {
            let _ = delta.apply(&mut fixture());
        }
    }

    #[test]
    fn mutated_frame_never_panics(verb in 0usize..8, edits in edits()) {
        let _ = Frame::parse(&mutate(&client_frames()[verb], &edits));
    }
}

/// The seeds themselves are valid, so every mutation starts one to five
/// edits away from an accepted input.
#[test]
fn seeds_decode() {
    assert!(qasm::from_qasm(&qasm::to_qasm_line(&fixture())).is_ok());
    let delta = CircuitDelta::decode(&fixture_delta()).unwrap();
    assert!(delta.apply(&mut fixture()).is_ok());
    for line in client_frames() {
        assert!(Frame::parse(&line).is_ok(), "{line}");
    }
}
