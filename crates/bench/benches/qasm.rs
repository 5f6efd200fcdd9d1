//! Cost of circuit ingest and emit: `qasm::from_qasm`,
//! `qasm::to_qasm_line` and building a circuit by appending its gates.
//!
//! Every `qserve` job crosses these at SUBMIT, at each full snapshot and
//! at DONE, and the workload generators append once per gate. The
//! circuits are the `large-circuit` kinds (Heisenberg and Ising Trotter
//! steps, QAOA layers and the tiled rewrite workload, on 9 qubits and
//! rebased to Nam) at 5k, 15k and 30k gates, and one circuit of each of
//! the seven `nisq-fresh` families. Each row is the median of `PASSES`
//! timed passes; emit runs on fresh clones, as the service emits
//! circuits the search has just edited. Each row carries an FNV-1a hash
//! of the emitted bytes (single-line and multi-line forms), which
//! changes when any emitted byte does. The summary goes to
//! `BENCH_qasm.json` in the repository root.
//!
//! Run with: `cargo bench --bench qasm`

use guoq_bench::tiled_workload;
use qcir::rebase::rebase;
use qcir::{qasm, Circuit, GateSet, Instruction};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use workloads::generators as gen;

/// Timed passes per row; the row reports the median.
const PASSES: usize = 7;

/// `large-circuit`'s width.
const QUBITS: usize = 9;

/// A `large-circuit` kind at about `target` native gates: whole
/// generator steps repeated to the target, as the workload sizes them.
fn large(kind: usize, target: usize) -> Circuit {
    let native = |c: Circuit| rebase(&c, GateSet::Nam).expect("generators emit rebasable gates");
    let repeats = |one: Circuit| (target / native(one).len().max(1)).max(1);
    let s = 0x1A26E + kind as u64;
    native(match kind {
        0 => gen::heisenberg_trotter(QUBITS, repeats(gen::heisenberg_trotter(QUBITS, 1, s)), s),
        1 => gen::ising_trotter(QUBITS, repeats(gen::ising_trotter(QUBITS, 1, s)), s),
        2 => gen::qaoa_maxcut(QUBITS, repeats(gen::qaoa_maxcut(QUBITS, 1, s)), s),
        _ => {
            let per_gate = native(tiled_workload(target)).len().max(1);
            tiled_workload(target * target / per_gate)
        }
    })
}

/// One circuit per `nisq-fresh` family at the workload's sizes, rebased
/// to Nam.
fn nisq_circuits() -> Vec<Circuit> {
    (0..7u64)
        .map(|i| {
            let (n, s) = (8 + i as usize % 5, 0x5EED + i);
            let c = match i {
                0 => gen::qaoa_maxcut(n, 1, s),
                1 => gen::vqe_ansatz(n, 1, s),
                2 => gen::ising_trotter(n, 3, s),
                3 => gen::heisenberg_trotter(n, 2, s),
                4 => gen::quantum_volume(n, 3, s),
                5 => gen::qft(n),
                _ => gen::qpe(n, s),
            };
            rebase(&c, GateSet::Nam).expect("generators emit rebasable gates")
        })
        .collect()
}

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

struct Row {
    name: &'static str,
    circuits: usize,
    gates: usize,
    parse_us_per_kgate: f64,
    emit_us_per_kgate: f64,
    append_ns: f64,
    hash: u64,
}

/// The median of `PASSES` timings of `pass`, in seconds.
fn median_s(mut pass: impl FnMut() -> f64) -> f64 {
    let mut t: Vec<f64> = (0..PASSES).map(|_| pass()).collect();
    t.sort_by(f64::total_cmp);
    t[PASSES / 2]
}

fn row(name: &'static str, circuits: &[Circuit]) -> Row {
    let gates: usize = circuits.iter().map(Circuit::len).sum();
    let kgates = gates as f64 / 1e3;
    let texts: Vec<String> = circuits.iter().map(qasm::to_qasm_line).collect();
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for (c, text) in circuits.iter().zip(&texts) {
        hash = fnv1a(text.as_bytes(), hash);
        hash = fnv1a(qasm::to_qasm(c).as_bytes(), hash);
        assert_eq!(&qasm::from_qasm(text).expect("emitted qasm parses"), c);
    }

    let parse = median_s(|| {
        let t = Instant::now();
        for text in &texts {
            black_box(qasm::from_qasm(black_box(text)).expect("emitted qasm parses"));
        }
        t.elapsed().as_secs_f64()
    });
    let emit = median_s(|| {
        let fresh: Vec<Circuit> = circuits.to_vec();
        let t = Instant::now();
        for c in &fresh {
            black_box(qasm::to_qasm_line(black_box(c)));
        }
        t.elapsed().as_secs_f64()
    });
    let lists: Vec<(usize, Vec<Instruction>)> = circuits
        .iter()
        .map(|c| (c.num_qubits(), c.iter().copied().collect()))
        .collect();
    let append = median_s(|| {
        let t = Instant::now();
        for (n, list) in &lists {
            let mut c = Circuit::new(*n);
            for &ins in list {
                c.push_instruction(ins);
            }
            black_box(c);
        }
        t.elapsed().as_secs_f64()
    });
    Row {
        name,
        circuits: circuits.len(),
        gates,
        parse_us_per_kgate: parse * 1e6 / kgates,
        emit_us_per_kgate: emit * 1e6 / kgates,
        append_ns: append * 1e9 / gates as f64,
        hash,
    }
}

fn main() {
    let large_at = |target: usize| -> Vec<Circuit> { (0..4).map(|k| large(k, target)).collect() };
    let rows = [
        row("large-5k", &large_at(5_000)),
        row("large-15k", &large_at(15_000)),
        row("large-30k", &large_at(30_000)),
        row("nisq-fresh", &nisq_circuits()),
    ];
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n  \"benchmark\": \"qasm\",\n");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"passes\": {PASSES},");
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        println!(
            "qasm {:<10} {:>2} circuits {:>6} gates  parse {:>7.1} us/kgate  emit {:>7.1} us/kgate  append {:>6.1} ns  output {:#018x}",
            r.name, r.circuits, r.gates, r.parse_us_per_kgate, r.emit_us_per_kgate, r.append_ns, r.hash
        );
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"circuits\": {}, \"gates\": {}, \"parse_us_per_kgate\": {:.1}, \"emit_us_per_kgate\": {:.1}, \"append_ns\": {:.1}, \"output_hash\": \"{:#018x}\"}}{}",
            r.name,
            r.circuits,
            r.gates,
            r.parse_us_per_kgate,
            r.emit_us_per_kgate,
            r.append_ns,
            r.hash,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_qasm.json");
    std::fs::write(path, &json).expect("write BENCH_qasm.json");
    println!("wrote {path}");
}
