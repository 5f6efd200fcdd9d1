//! The one-pass reader and writer against today's split-based ones
//! ([`super::oracle`]).
//!
//! Reader: every fixture and every `workloads` suite circuit, in
//! single-line, multi-line, CRLF, commented and spaced forms, then 1–5 byte
//! edits of those documents that also draw non-ASCII bytes and Unicode
//! whitespace. On each input either both readers return the same
//! circuit (same instructions, same ids) or both return `Err`; the one
//! allowed difference is a parameter list on a fixed gate, which the
//! oracle drops and the new reader refuses.
//!
//! Writer: random circuits over every gate kind with edge-case angles
//! must render to the oracle's bytes.

use super::{from_qasm, oracle, to_qasm, to_qasm_line, QasmError};
use crate::circuit::{Circuit, Qubit};
use crate::gate::{Gate, GateKind};
use proptest::collection::vec;
use proptest::prelude::*;
use std::f64::consts::PI;
use std::sync::OnceLock;

/// The `tests/fixtures` documents.
const FIXTURES: [&str; 8] = [
    include_str!("../../../../tests/fixtures/cuccaro_adder2.qasm"),
    include_str!("../../../../tests/fixtures/ghz8.qasm"),
    include_str!("../../../../tests/fixtures/param_zoo.qasm"),
    include_str!("../../../../tests/fixtures/qaoa_maxcut6.qasm"),
    include_str!("../../../../tests/fixtures/qft4.qasm"),
    include_str!("../../../../tests/fixtures/random_clifford_t5.qasm"),
    include_str!("../../../../tests/fixtures/tof_chain3.qasm"),
    include_str!("../../../../tests/fixtures/vqe_ansatz4.qasm"),
];

/// A `workloads` circuit (built against the library copy of this
/// crate) rebuilt here gate by gate.
fn local(c: &workloads::suite::Benchmark) -> Circuit {
    let mut out = Circuit::new(c.circuit.num_qubits());
    for ins in c.circuit.iter() {
        let params: Vec<f64> = ins.gate.params().into_iter().collect();
        let gate = Gate::from_name(ins.gate.name(), &params).expect("suite gates have names");
        out.push(gate, ins.qubits());
    }
    out
}

/// The multi-line form with a comment line up front, a trailing
/// comment on every statement and a blank line every so often.
fn commented(c: &Circuit) -> String {
    let mut out = String::from("// generated\n");
    for (i, line) in to_qasm(c).lines().enumerate() {
        out.push_str(line);
        out.push_str(&format!(" // statement {i}; q[0]\n"));
        if i % 7 == 3 {
            out.push('\n');
        }
    }
    out
}

/// The forms of one circuit: single-line, CRLF, commented, spaced
/// (blanks inside parameter and operand lists, which the writer's own
/// form never has) and multi-line.
fn forms(c: &Circuit) -> [String; 5] {
    let text = to_qasm(c);
    [
        to_qasm_line(c),
        text.replace('\n', "\r\n"),
        commented(c),
        text.replace('(', "( ").replace(',', " ,\t"),
        text,
    ]
}

/// Every fixture (as written, and in the forms of its circuit) and
/// every Default-scale suite circuit of every gate set, in those forms.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let mut docs: Vec<String> = Vec::new();
        for text in FIXTURES {
            docs.push(text.to_string());
            docs.extend(forms(&from_qasm(text).expect("fixture parses")));
        }
        for set in workloads::GateSet::ALL {
            for b in workloads::suite(set, workloads::SuiteScale::Default) {
                docs.extend(forms(&local(&b)));
            }
        }
        docs
    })
}

/// The only input class on which the readers may differ: the oracle
/// accepted, and the new reader refused a parameter list on a gate that
/// takes none (at most three parameters are ever taken).
fn fixed_gate_with_parameters(e: &QasmError) -> bool {
    e.message.contains("takes 0 parameters") || e.message.contains("more than three parameters")
}

/// Runs both readers on `text` and requires them to agree.
fn agree(text: &str) {
    match (from_qasm(text), oracle::from_qasm(text)) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new, old, "different circuits from {text:?}");
            assert_eq!(new.num_qubits(), old.num_qubits());
            for pos in 0..new.len() {
                assert_eq!(new.id_at(pos), old.id_at(pos), "id at {pos} of {text:?}");
            }
        }
        (Err(_), Err(_)) => {}
        (Err(e), Ok(_)) => assert!(
            fixed_gate_with_parameters(&e),
            "new reader refused ({e}) what the oracle accepts: {text:?}"
        ),
        (Ok(_), Err(e)) => panic!("new reader accepted what the oracle refuses ({e}): {text:?}"),
    }
}

#[test]
fn corpus_reads_and_renders_the_same() {
    let docs = corpus();
    assert!(docs.len() > 1_000, "corpus of {} documents", docs.len());
    for text in docs {
        agree(text);
        let c = from_qasm(text).expect("corpus documents parse");
        assert_eq!(to_qasm(&c), oracle::render_qasm(&c, "\n"));
        assert_eq!(to_qasm_line(&c), oracle::render_qasm(&c, " "));
    }
}

/// Bytes the edits insert or substitute: the grammar's punctuation,
/// digits and letters, line breaks, raw non-ASCII bytes (which leave
/// invalid UTF-8 to the lossy decode), and whole non-ASCII characters,
/// Unicode whitespace among them.
const SYMBOLS: &[&[u8]] = &[
    b"[",
    b"]",
    b"(",
    b")",
    b",",
    b";",
    b"-",
    b"+",
    b"*",
    b"/",
    b".",
    b"0",
    b"1",
    b"5",
    b"9",
    b"e",
    b"E",
    b"p",
    b"i",
    b"q",
    b"h",
    b"c",
    b"x",
    b"z",
    b"r",
    b"u",
    b"d",
    b" ",
    b"\t",
    b"\r",
    b"\n",
    b"\x0b",
    b"\x80",
    b"\xc3",
    b"\xff",
    "\u{a0}".as_bytes(),
    "\u{85}".as_bytes(),
    "\u{2028}".as_bytes(),
    "\u{3000}".as_bytes(),
    "\u{feff}".as_bytes(),
    "π".as_bytes(),
    "é".as_bytes(),
];

/// One edit: `((kind, symbol), position, second position)`.
type Edit = ((u8, usize), usize, usize);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    let at = || 0usize..1 << 24;
    vec(((0u8..4, 0usize..SYMBOLS.len()), at(), at()), 1..6)
}

/// Deletes a byte, swaps two, inserts a symbol or replaces a byte with
/// one; the result is decoded lossily.
fn mutate(seed: &str, edits: &[Edit]) -> String {
    let mut b = seed.as_bytes().to_vec();
    for &((kind, sym), at, other) in edits {
        let sym = SYMBOLS[sym];
        match kind {
            2 => {
                let i = at % (b.len() + 1);
                b.splice(i..i, sym.iter().copied());
            }
            _ if b.is_empty() => b.extend_from_slice(sym),
            0 => {
                b.remove(at % b.len());
            }
            1 => {
                let n = b.len();
                b.swap(at % n, other % n);
            }
            _ => {
                let i = at % b.len();
                b.splice(i..=i, sym.iter().copied());
            }
        }
    }
    String::from_utf8_lossy(&b).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6_000))]

    #[test]
    fn mutated_documents_read_the_same(pick in 0usize..1 << 24, edits in edits()) {
        let docs = corpus();
        agree(&mutate(&docs[pick % docs.len()], &edits));
    }
}

#[test]
fn statement_edge_cases_read_the_same() {
    let cases = [
        "qreg q[2]; h q[0]",
        "qreg q[2]\nh q[0]\ncx q[0],q[1]",
        "qreg q[2]; h\nq[0];",
        "qreg q[2]; rz(0.5\n) q[0];",
        "qreg q[2]; rz(0.5)q[0];",
        "qreg q[2]; rz (0.5) q[0];",
        "qreg q[2]; h (0.5) q[0];",
        "qreg q[2]; rz((1) + 2) q[0];",
        "qreg q[2]; rz((1)+2) q[0];",
        "qreg q[2]; rz(0.5)junk q[0];",
        "qreg q[2]; rz(1)(2) q[0];",
        "qreg q[2]; rz() q[0];",
        "qreg q[2]; h() q[0];",
        "qreg q[2]; rz(0.5 q[0];",
        "qreg q[2]; rz(0.5",
        "qreg q[2]; h",
        "qreg q[2]; h) q[0];",
        "qreg q[2]; (0.5) q[0];",
        "qreg q[2]; h q[+1];",
        "qreg q[2]; h q[ 1 ];",
        "qreg q[2]; h q[\u{3000}1\u{a0}];",
        "qreg q[2]; h\u{3000}q[1];",
        "qreg q[2]; h\u{85}q[1];",
        "qreg q[2]; h\u{b}q[1];",
        "qreg q[2]; h\u{1c}q[1];",
        "qreg q[2]; rz(0.5\u{3000}+1) q[0];",
        "qreg q[2]; rz(0.5\r+1) q[0];",
        "qreg q[2]; rz(\t-\t0.5 ) q[0];",
        "qreg q[2]; rz(-.5) q[0];",
        "qreg q[2]; rz(5.) q[0];",
        "qreg q[2]; rz(.) q[0];",
        "qreg q[2]; rz(1.2.3) q[0];",
        "qreg q[2]; rz(1e-3) q[0];",
        "qreg q[2]; rz(1E+3) q[0];",
        "qreg q[2]; rz(1e) q[0];",
        "qreg q[2]; rz(2pi) q[0];",
        "qreg q[2]; rz(PI/pI*Pi) q[0];",
        "qreg q[2]; rz(pii) q[0];",
        "qreg q[2]; rz(--1) q[0];",
        "qreg q[2]; rz(+-+1) q[0];",
        "qreg q[2]; rz(-2*-3/-4) q[0];",
        "qreg q[2]; rz(1-2-3) q[0];",
        "qreg q[2]; u3((1,2),3) q[0];",
        "qreg q[2]; u2(1,2,3) q[0];",
        "qreg q[2]; cx q[0],q[1],;",
        "qreg q[2]; cx q[0] q[1];",
        "qreg q[2]; cx q[0],,q[1];",
        "qreg q[2]; id q[0],q[1];",
        "qreg q[2]; id q[0],q[0];",
        "qreg q[2]; CX q[0],q[1];",
        "qreg q[2]; Cx q[0],q[1];",
        "qreg q[2]; u q[0];",
        "qreg q[2]; u(1,2,3) q[0]; u1(1) q[1]; cu1(2) q[0],q[1];",
        "qreg q[2]; h q[0]; // c; x q[1];\nx q[1];",
        "qreg q[2]; h q[0]; / / x q[1];",
        "qreg q[2]; h q[0];//",
        "include \"a//b\"; qreg q[1]; h q[0];",
        "OPENQASM 3.0; includeX; qregister[2]; cregs; barrierx; measurement q;",
        "qreg q[2]; qreg r[1];",
        "qreg q[65537]; qreg q[1];",
        "qreg q[1]; qreg q[70000];",
        "qreg q]2[;",
        "qreg q[2",
        "qreg[0]; h q[0];",
        "h q[0]; qreg q[1];",
        "",
        ";;;\n\n",
        "OPENQASM 2.0;",
    ];
    for text in cases {
        agree(text);
    }
}

/// Edge-case angles: signed zeros, subnormals, tiny and huge values,
/// values just below and just above 0.1, multiples of π/4, NaN and ±∞.
fn edge_angle(k: usize, generic: f64) -> f64 {
    let just_below = f64::from_bits(0.1f64.to_bits() - 1);
    let just_above = f64::from_bits(0.1f64.to_bits() + 1);
    let table = [
        0.0,
        -0.0,
        f64::from_bits(1),
        -f64::from_bits(3),
        f64::MIN_POSITIVE / 2.0,
        1e-300,
        -1e-300,
        just_below,
        -just_below,
        just_above,
        0.1,
        -0.1,
        1e300,
        -1e300,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.015590366766198294,
    ];
    match k % 4 {
        0 => table[(k / 4) % table.len()],
        1 => (k / 4) as f64 * PI / 4.0 - 4.0 * PI,
        _ => generic,
    }
}

/// Every gate kind.
const KINDS: [GateKind; GateKind::COUNT] = {
    use GateKind::*;
    [
        X, Y, Z, H, S, Sdg, T, Tdg, Sx, Sxdg, Rx, Ry, Rz, P, U2, U3, Cx, Cz, Cp, Crz, Swap, Rxx,
        Ryy, Rzz, Ccx, Ccz,
    ]
};

/// A random circuit over every gate kind with angles from [`edge_angle`].
fn random_circuit(kinds: &[((usize, usize), usize, f64)]) -> Circuit {
    let n = 5;
    let mut c = Circuit::new(n);
    for (i, &((kind, angle), first, generic)) in kinds.iter().enumerate() {
        let kind = KINDS[kind % KINDS.len()];
        let params: Vec<f64> = (0..kind.num_params())
            .map(|j| edge_angle(angle + 7 * j + i, generic * (j + 1) as f64))
            .collect();
        let gate = kind.with_params(&params).expect("param count of its kind");
        let qubits: Vec<Qubit> = (0..kind.arity())
            .map(|j| ((first + j) % n) as Qubit)
            .collect();
        c.push(gate, &qubits);
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn writer_emits_the_oracle_bytes(
        kinds in vec(((0usize..1 << 16, 0usize..1 << 16), 0usize..5, -10.0f64..10.0), 0..60),
    ) {
        let c = random_circuit(&kinds);
        prop_assert_eq!(to_qasm(&c), oracle::render_qasm(&c, "\n"));
        prop_assert_eq!(to_qasm_line(&c), oracle::render_qasm(&c, " "));
    }
}

#[test]
fn every_edge_angle_renders_like_the_oracle() {
    for k in 0..4 * 18 {
        let p = edge_angle(k, 0.0);
        let mut s = String::new();
        super::push_param(&mut s, p, &mut String::new());
        assert_eq!(s, oracle::render_param(p), "angle {p:e}");
    }
}
