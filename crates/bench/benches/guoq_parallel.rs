//! Throughput of the sharded parallel engine vs the serial incremental
//! engine, across circuit sizes and worker counts.
//!
//! The workload is the same mostly-irredundant repeated tile as
//! `guoq_iter` (sparse cancellable-pair trickle, plateau churn — see
//! [`guoq_bench::tiled_workload`]), so rewrite opportunities occur at
//! a size-independent rate. Every
//! configuration runs `GUOQ-REWRITE` under a fixed wall-clock budget;
//! for `Engine::Sharded` the reported iterations are the *aggregate*
//! across all shard workers, so `iters_per_sec` measures pool
//! throughput. The summary goes to `BENCH_guoq_parallel.json` in the
//! repository root, alongside the host's logical CPU count — the
//! sharded engine's scaling is bounded by physical parallelism, so the
//! worker sweep only separates from the serial baseline when the host
//! grants the pool real cores (on a single-CPU host the interesting
//! quantity is the protocol overhead, i.e. how close the ratio stays
//! to 1.0).
//!
//! Run with: `cargo bench --bench guoq_parallel`

use guoq::cost::TwoQubitCount;
use guoq::{Budget, Engine, Guoq, GuoqOpts};
use guoq_bench::tiled_workload;
use qcir::{Circuit, GateSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Row {
    size: usize,
    engine: String,
    workers: usize,
    iterations: u64,
    seconds: f64,
    iters_per_sec: f64,
    accepted: u64,
    cross_home: u64,
    final_cost: f64,
}

fn run(circuit: &Circuit, engine: Engine, budget: Duration) -> Row {
    let (engine_name, workers) = match engine {
        Engine::Sharded { workers, .. } => (format!("sharded-{workers}w"), workers),
        _ => ("incremental".to_string(), 1),
    };
    let opts = GuoqOpts {
        budget: Budget::Time(budget),
        eps_total: 1e-6,
        seed: 0xBEEF,
        engine,
        ..Default::default()
    };
    let g = Guoq::rewrite_only(GateSet::Nam, opts);
    let started = Instant::now();
    let r = g.optimize(circuit, &TwoQubitCount);
    let seconds = started.elapsed().as_secs_f64();
    Row {
        size: circuit.len(),
        engine: engine_name,
        workers,
        iterations: r.iterations,
        seconds,
        iters_per_sec: r.iterations as f64 / seconds,
        accepted: r.accepted,
        cross_home: r.worker_stats.iter().map(|s| s.cross_home).sum(),
        final_cost: r.cost,
    }
}

fn main() {
    let budget = Duration::from_millis(
        std::env::var("GUOQ_PAR_BUDGET_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(600),
    );
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let sizes = [1_000usize, 10_000, 50_000];
    let worker_counts = [1usize, 2, 4, 8];
    let mut rows: Vec<Row> = Vec::new();
    for &size in &sizes {
        let circuit = tiled_workload(size);
        let mut engines = vec![Engine::Serial];
        engines.extend(worker_counts.iter().map(|&w| Engine::sharded(w)));
        for engine in engines {
            let row = run(&circuit, engine, budget);
            println!(
                "guoq_parallel size={:<6} engine={:<14} {:>12.0} iters/s  ({} iters, {} accepted, {} cross-home, cost {})",
                row.size,
                row.engine,
                row.iters_per_sec,
                row.iterations,
                row.accepted,
                row.cross_home,
                row.final_cost
            );
            rows.push(row);
        }
    }

    // Headline ratio for the acceptance criterion: aggregate sharded
    // throughput at 4 workers over the serial incremental engine.
    let rate = |size: usize, engine: &str| {
        rows.iter()
            .find(|r| r.size == size && r.engine == engine)
            .map(|r| r.iters_per_sec)
            .unwrap_or(f64::NAN)
    };
    let speedup = |size: usize| rate(size, "sharded-4w") / rate(size, "incremental");
    let (speedup_1k_4w, speedup_10k_4w, speedup_50k_4w) =
        (speedup(1_000), speedup(10_000), speedup(50_000));
    for (label, s) in [
        ("1k", speedup_1k_4w),
        ("10k", speedup_10k_4w),
        ("50k", speedup_50k_4w),
    ] {
        println!("aggregate speedup @{label} gates, 4 workers: {s:.2}x");
    }
    println!("host has {host_cpus} CPU(s)");
    if host_cpus < 4 {
        println!(
            "note: host grants fewer CPUs than the 4-worker pool, so these \
             ratios exclude parallel scaling; what remains is the protocol \
             overhead (≈1x at sizes where the serial engine is compute-bound) \
             plus sharding's O(shard) accept costs, which dominate once the \
             serial engine's O(circuit) accept costs become memory-bound \
             (the 50k row)"
        );
    }

    let mut json = String::from("{\n  \"benchmark\": \"guoq_parallel\",\n");
    let _ = writeln!(json, "  \"host_cpus\": {host_cpus},");
    let _ = writeln!(json, "  \"budget_ms\": {},", budget.as_millis());
    json.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"size\": {}, \"engine\": \"{}\", \"workers\": {}, \"iterations\": {}, \"seconds\": {:.4}, \"iters_per_sec\": {:.1}, \"accepted\": {}, \"cross_home\": {}, \"final_cost\": {}}}{}",
            r.size,
            r.engine,
            r.workers,
            r.iterations,
            r.seconds,
            r.iters_per_sec,
            r.accepted,
            r.cross_home,
            r.final_cost,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"speedup_1k_4_workers\": {speedup_1k_4w:.3},\n  \"speedup_10k_4_workers\": {speedup_10k_4w:.3},\n  \"speedup_50k_4_workers\": {speedup_50k_4w:.3}\n}}\n"
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_guoq_parallel.json"
    );
    std::fs::write(path, &json).expect("write BENCH_guoq_parallel.json");
    println!("wrote {path}");
}
