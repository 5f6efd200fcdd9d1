//! Cost of the slow path: unitary synthesis at 1, 2 and 3 qubits.
//! (These numbers substantiate the measured Table 1.)
//!
//! Besides the single thorough-profile rows, the bench times the
//! in-loop `Fast` profile — the one GUOQ's slow path runs — on 24 fixed
//! 2-qubit and 24 fixed 3-qubit windows, grown from the `nisq-fresh`
//! circuit families the way qbench's replay grows them (a uniform
//! anchor, `Region::grow` up to the width, at least two member gates).
//! Every call gets its own seeded RNG, so a pass is deterministic: each
//! width's row carries an FNV-1a hash of the emitted QASM and ε bits,
//! which changes when any synthesized circuit or measured distance
//! changes. The summary goes to `BENCH_synth.json` in the
//! repository root.
//!
//! Run with: `cargo bench --bench synth`

use criterion::{criterion_group, Criterion};
use qcir::rebase::rebase;
use qcir::{qasm, Circuit, GateSet, Region};
use qmath::random::random_unitary;
use qsynth::continuous::{synthesize_1q, synthesize_2q, SynthOpts};
use qsynth::{shared_resynthesizer, ResynthProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use workloads::generators as gen;

fn bench_synth(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(2);
    let u1 = random_unitary(2, &mut rng);
    c.bench_function("synthesize_1q_analytic", |b| {
        b.iter(|| black_box(synthesize_1q(&u1, GateSet::IbmEagle)));
    });

    let u2 = random_unitary(4, &mut rng);
    let mut group = c.benchmark_group("slow");
    group.sample_size(10);
    group.bench_function("synthesize_2q_random", |b| {
        let mut r = SmallRng::seed_from_u64(3);
        b.iter(|| black_box(synthesize_2q(&u2, &SynthOpts::default(), &mut r)));
    });
    group.finish();
}

criterion_group!(benches, bench_synth);

/// Windows per width in the `Fast`-profile rows.
const WINDOWS: usize = 24;
/// Timed passes over the windows; the row reports the median.
const PASSES: usize = 3;
/// The per-call ε GUOQ gives resynthesis under qbench's job budget.
const EPS: f64 = 1e-8 / 8.0;

/// One `nisq-fresh` family circuit per family, at the workload's sizes,
/// rebased to Nam.
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

/// `WINDOWS` extracted windows of exactly `width` qubits.
fn windows(circuits: &[Circuit], width: usize, rng: &mut SmallRng) -> Vec<Circuit> {
    let mut out = Vec::new();
    while out.len() < WINDOWS {
        let c = &circuits[rng.random_range(0..circuits.len())];
        let Some(region) = Region::grow(c, rng.random_range(0..c.len()), width) else {
            continue;
        };
        if region.qubits().len() == width && region.member_indices(c).len() >= 2 {
            out.push(region.extract(c));
        }
    }
    out
}

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

struct Row {
    width: usize,
    ms_per_call: f64,
    successes: usize,
    hash: u64,
}

/// Times `PASSES` passes of `Fast`-profile resynthesis over `subs`.
fn fast_row(width: usize, subs: &[Circuit]) -> Row {
    let rs = shared_resynthesizer(GateSet::Nam, ResynthProfile::Fast);
    let mut pass_ms = Vec::new();
    let mut outcome = None;
    for _ in 0..PASSES {
        let (mut successes, mut hash) = (0, 0xCBF2_9CE4_8422_2325);
        let started = Instant::now();
        for (i, sub) in subs.iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(0x5F17 + i as u64);
            match black_box(rs.resynthesize(sub, EPS, &mut rng)) {
                Some(r) => {
                    successes += 1;
                    hash = fnv1a(qasm::to_qasm_line(&r.circuit).as_bytes(), hash);
                    hash = fnv1a(&r.epsilon.to_bits().to_le_bytes(), hash);
                }
                None => hash = fnv1a(b"none", hash),
            }
        }
        pass_ms.push(started.elapsed().as_secs_f64() * 1e3 / subs.len() as f64);
        let this = (successes, hash);
        assert!(
            outcome.is_none_or(|o| o == this),
            "a pass over fixed seeds must repeat exactly"
        );
        outcome = Some(this);
    }
    pass_ms.sort_by(f64::total_cmp);
    let (successes, hash) = outcome.expect("at least one pass");
    Row {
        width,
        ms_per_call: pass_ms[PASSES / 2],
        successes,
        hash,
    }
}

fn main() {
    benches();

    let circuits = nisq_circuits();
    let mut rng = SmallRng::seed_from_u64(0x57_1DE);
    let rows: Vec<Row> = [2, 3]
        .into_iter()
        .map(|width| fast_row(width, &windows(&circuits, width, &mut rng)))
        .collect();
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut json = String::from("{\n  \"benchmark\": \"synth\",\n");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"profile\": \"fast\",");
    let _ = writeln!(json, "  \"passes\": {PASSES},");
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        println!(
            "synth fast w{}: {:>8.3} ms/call  {}/{WINDOWS} succeeded  output {:#018x}",
            r.width, r.ms_per_call, r.successes, r.hash
        );
        let _ = writeln!(
            json,
            "    {{\"width\": {}, \"windows\": {WINDOWS}, \"ms_per_call\": {:.3}, \"successes\": {}, \"output_hash\": \"{:#018x}\"}}{}",
            r.width,
            r.ms_per_call,
            r.successes,
            r.hash,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_synth.json");
    std::fs::write(path, &json).expect("write BENCH_synth.json");
    println!("wrote {path}");
}
