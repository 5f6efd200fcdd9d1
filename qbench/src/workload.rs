//! The two workloads: which circuits go in, under which job options,
//! and why each one is in the benchmark.
//!
//! Every workload is generated from the `--seed` argument alone, and the
//! server only ever sees the generated QASM. Jobs are budgeted by
//! iterations and carry a fixed seed, so the work per job is fixed and
//! wall-clock measures the program.

use qcir::rebase::rebase;
use qcir::{qasm, Circuit, GateSet};
use qserve::EngineSel;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use workloads::generators as gen;

/// Total ε each job may spend (the paper's `ε_f`).
pub const JOB_EPS: f64 = 1e-8;

/// One job of a workload's stream.
#[derive(Debug, Clone)]
pub struct Job {
    /// Family and size, for reports.
    pub label: String,
    /// Single-line OpenQASM of the input circuit, shared by every
    /// resubmission of it.
    pub qasm: Arc<str>,
    /// Gate count of the input circuit.
    pub gates: usize,
    /// Engine the job asks for.
    pub engine: EngineSel,
    /// Iteration budget.
    pub iters: u64,
    /// Search seed.
    pub seed: u64,
}

/// A generated workload.
pub struct Workload {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// Horizon of `cost_ratio_at_t`, in seconds after job start. Fixed
    /// per workload, below its median job run time.
    pub t_s: f64,
    /// Gate set the server optimizes for.
    pub set: GateSet,
    /// Whether the server journals every job.
    pub journal: bool,
    /// The timed stream; clients take jobs from it in order.
    pub jobs: Vec<Job>,
}

/// Every workload name, in report order.
pub const NAMES: [&str; 2] = ["nisq-fresh", "large-circuit"];

/// Generates workload `name` from `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_F00D);
    Some(match name {
        "nisq-fresh" => nisq_fresh(&mut rng),
        "large-circuit" => large_circuit(&mut rng),
        _ => return None,
    })
}

fn job(
    label: String,
    circuit: &Circuit,
    set: GateSet,
    engine: EngineSel,
    iters: u64,
    seed: u64,
) -> Job {
    let native = rebase(circuit, set).expect("generators emit rebasable gates");
    Job {
        label,
        qasm: qasm::to_qasm_line(&native).into(),
        gates: native.len(),
        engine,
        iters,
        seed,
    }
}

/// Continuous-set NISQ families at the suite's Default scale.
const NISQ_FAMILIES: [&str; 7] = ["qaoa", "vqe", "ising", "heisenberg", "qv", "qft", "qpe"];

/// One fresh Default-scale continuous-set circuit of `family` on `n`
/// qubits (the `workloads::suite` generators, with the seed drawn from
/// the workload seed instead of the suite's fixed one). `layers` is
/// the qaoa/vqe depth.
fn nisq_circuit(family: &str, n: usize, layers: usize, rng: &mut SmallRng) -> Circuit {
    let s: u64 = rng.random();
    match family {
        "qaoa" => gen::qaoa_maxcut(n, layers, s),
        "vqe" => gen::vqe_ansatz(n, layers, s),
        "ising" => gen::ising_trotter(n, 3, s),
        "heisenberg" => gen::heisenberg_trotter(n, 2, s),
        "qv" => gen::quantum_volume(n, 3, s),
        "qft" => gen::qft(n),
        "qpe" => gen::qpe(n, s),
        other => unreachable!("unknown family {other}"),
    }
}

// Every workload walks its families and sizes in a fixed order; the
// seed only draws the circuits' own parameters and the job seeds. A run
// completes a prefix of the stream whose length depends on the
// program's speed, so the mix of work in that prefix must not depend on
// the seed. Each stream is about three times (nisq-fresh) and twice
// (large-circuit) as long as a 30-second run gets through on two vCPUs,
// so a faster program still sees no input twice.

fn nisq_fresh(rng: &mut SmallRng) -> Workload {
    const ITERS: u64 = 2_000;
    let jobs = (0..512)
        .map(|i| {
            // 7 families × 5 sizes: every 35 consecutive jobs cover
            // each pair once, and every 5 cover each size.
            let family = NISQ_FAMILIES[i % NISQ_FAMILIES.len()];
            let n = 8 + i % 5;
            let c = nisq_circuit(family, n, 1 + (i / 35) % 2, rng);
            job(
                format!("{family}_{n}"),
                &c,
                GateSet::Nam,
                EngineSel::Serial,
                ITERS,
                rng.random(),
            )
        })
        .collect();
    Workload {
        name: "nisq-fresh",
        why: "fresh Default-scale Nam circuits (qaoa, vqe, ising, heisenberg, qv, qft, qpe; 8-12 qubits), journaling server: slow-path instantiation is ~99% of busy time, so qsynth/qmath work shows",
        t_s: 0.1,
        set: GateSet::Nam,
        journal: true,
        jobs,
    }
}

/// A large circuit of about `target` native Nam gates from one of the
/// scalable generators, plus its label.
fn large(kind: usize, n: usize, target: usize, rng: &mut SmallRng) -> (String, Circuit) {
    let s: u64 = rng.random();
    // Size one step of the generator in native gates, then repeat it
    // to the target.
    let repeats = |one: Circuit| {
        let unit = rebase(&one, GateSet::Nam).map_or(1, |c| c.len().max(1));
        (target / unit).max(1)
    };
    match kind {
        0 => {
            let steps = repeats(gen::heisenberg_trotter(n, 1, s));
            (
                format!("heisenberg_{n}x{steps}"),
                gen::heisenberg_trotter(n, steps, s),
            )
        }
        1 => {
            let steps = repeats(gen::ising_trotter(n, 1, s));
            (
                format!("ising_{n}x{steps}"),
                gen::ising_trotter(n, steps, s),
            )
        }
        2 => {
            let layers = repeats(gen::qaoa_maxcut(n, 1, s));
            (format!("qaoa_{n}x{layers}"), gen::qaoa_maxcut(n, layers, s))
        }
        _ => {
            let native = rebase(&guoq_bench::tiled_workload(target), GateSet::Nam)
                .map_or(target, |c| c.len().max(1));
            let len = target * target / native;
            (format!("tiled_{len}"), guoq_bench::tiled_workload(len))
        }
    }
}

fn large_circuit(rng: &mut SmallRng) -> Workload {
    const ITERS: u64 = 600;
    // Wider than 8 qubits, so the correctness gate's equivalence check
    // samples states instead of building dense unitaries of 30k gates
    // (the tiled circuits are 12 qubits wide).
    const QUBITS: usize = 9;
    const SIZES: [usize; 6] = [5_000, 20_000, 10_000, 30_000, 15_000, 25_000];
    let jobs = (0..240)
        .map(|i| {
            // Each pair of jobs runs one circuit kind and size on both
            // engines. Every 12 jobs cover all sizes and nearly every 8
            // all kinds, so every prefix of the stream spans both
            // ranges; the kind shifts by one per size cycle, so 48 jobs
            // cover all 24 kind × size pairs.
            let pair = i / 2;
            let target = SIZES[pair % SIZES.len()];
            let kind = (pair + pair / SIZES.len()) % 4;
            let (label, c) = large(kind, QUBITS, target, rng);
            // Alternate engines so both the serial fast path and the
            // qpar shard pool are on the measured path.
            let engine = if i % 2 == 0 {
                EngineSel::Serial
            } else {
                EngineSel::Sharded(2)
            };
            job(label, &c, GateSet::Nam, engine, ITERS, rng.random())
        })
        .collect();
    Workload {
        name: "large-circuit",
        why: "5k-30k-gate circuits alternating serial and sharded:2: per-call costs that grow with circuit size show only here, and it is the only qpar workload",
        t_s: 0.25,
        set: GateSet::Nam,
        journal: false,
        jobs,
    }
}
