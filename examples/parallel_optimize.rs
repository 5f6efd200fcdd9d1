//! Sharded parallel optimization of a QASM circuit.
//!
//! Loads an OpenQASM 2.0 file (pass a path as the first argument; with
//! no argument a redundancy-rich demo workload is generated, written to
//! a temporary QASM file, and loaded back), runs `Engine::Sharded`
//! under a wall-clock budget, and prints the cost trajectory plus the
//! per-worker accept/steal statistics of the shard pool.
//!
//! Run with: `cargo run --release --example parallel_optimize [file.qasm]`

use guoq::cost::{CostFn, GateCount};
use guoq::{Budget, Engine, Guoq, GuoqOpts};
use qcir::{qasm, Circuit, Gate, GateSet};
use std::time::Duration;

/// A 10-qubit circuit with a constant density of local redundancies.
fn demo_workload(len: usize) -> Circuit {
    const Q: u32 = 10;
    let mut c = Circuit::new(Q as usize);
    let mut base = 0u32;
    let mut tile = 0u32;
    while c.len() + 10 <= len {
        let a = base % Q;
        let b = (base + 1) % Q;
        c.push(Gate::Cx, &[a, b]);
        c.push(Gate::Rz(0.2 + f64::from(tile % 7) * 0.1), &[a]);
        c.push(Gate::H, &[b]);
        c.push(Gate::Cx, &[a, b]);
        c.push(Gate::T, &[b]);
        if tile % 2 == 1 {
            c.push(Gate::X, &[a]);
            c.push(Gate::X, &[a]);
        }
        base = base.wrapping_add(3);
        tile += 1;
    }
    c
}

fn main() {
    let circuit = match std::env::args().nth(1) {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            qasm::from_qasm(&text).expect("parse QASM")
        }
        None => {
            let path = std::env::temp_dir().join("parallel_optimize_demo.qasm");
            std::fs::write(&path, qasm::to_qasm(&demo_workload(4000))).expect("write demo QASM");
            println!("no input given; wrote demo workload to {}", path.display());
            qasm::from_qasm(&std::fs::read_to_string(&path).expect("read demo QASM"))
                .expect("parse demo QASM")
        }
    };
    println!(
        "input: {} gates on {} qubits (cost {})",
        circuit.len(),
        circuit.num_qubits(),
        GateCount.cost(&circuit)
    );

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    let opts = GuoqOpts {
        budget: Budget::Time(Duration::from_millis(1500)),
        eps_total: 1e-6,
        seed: 0xD15C0,
        record_history: true,
        // Commit often so the trajectory below has several points even
        // under a short budget (resynthesis makes iterations slow).
        engine: Engine::Sharded {
            workers,
            slice_iterations: 512,
        },
        ..Default::default()
    };
    println!("running Engine::Sharded with {workers} worker(s) for 1.5s…");
    let g = Guoq::for_gate_set(GateSet::Nam, opts);
    let r = g.optimize(&circuit, &GateCount);

    println!("\ncost trajectory (best committed master):");
    for p in &r.history {
        println!(
            "  t={:>7.3}s  iter={:>9}  cost={:>7.0}  2q={:>5}",
            p.seconds, p.iteration, p.best_cost, p.best_two_qubit
        );
    }

    println!("\nper-worker shard-pool statistics (cross-home = shards picked up");
    println!("from another worker's round-robin assignment, i.e. dynamic balancing):");
    println!("  worker   shards   cross-home   iterations   accepted   resynth");
    for s in &r.worker_stats {
        println!(
            "  {:>6}   {:>6}   {:>10}   {:>10}   {:>8}   {:>7}",
            s.worker, s.shards_run, s.cross_home, s.iterations, s.accepted, s.resynth_hits
        );
    }

    println!(
        "\noptimized: {} gates (cost {}, ε ≤ {:.1e}, {} iterations total)",
        r.circuit.len(),
        r.cost,
        r.epsilon,
        r.iterations
    );
    assert!(
        r.cost <= GateCount.cost(&circuit),
        "sharded search must never worsen the objective"
    );
    println!("ok: cost never worsened and ε stayed within budget");
}
