//! Iteration throughput of the GUOQ inner loop (the serial engine,
//! under the row label `incremental` that CI's baseline compare keys
//! on) across circuit sizes.
//!
//! The workload is a repeated tile of redundant gates, so rewrite
//! opportunities occur at a size-independent rate (constant-span edits).
//! For each size the bench runs `GUOQ-REWRITE` under a fixed wall-clock
//! budget and reports iterations per second, writing a
//! `BENCH_guoq_iter.json` summary to the repository root.
//!
//! Run with: `cargo bench --bench guoq_iter`

use guoq::cost::TwoQubitCount;
use guoq::{Budget, Engine, Guoq, GuoqOpts};
use guoq_bench::tiled_workload;
use qcir::{Circuit, GateSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Row {
    size: usize,
    engine: &'static str,
    iterations: u64,
    seconds: f64,
    iters_per_sec: f64,
    accepted: u64,
    final_cost: f64,
}

fn run(circuit: &Circuit, engine: Engine, budget: Duration, name: &'static str) -> Row {
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
        engine: name,
        iterations: r.iterations,
        seconds,
        iters_per_sec: r.iterations as f64 / seconds,
        accepted: r.accepted,
        final_cost: r.cost,
    }
}

fn main() {
    let budget = Duration::from_millis(
        std::env::var("GUOQ_ITER_BUDGET_MS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(750),
    );
    let sizes = [100usize, 1_000, 10_000, 50_000];
    let mut rows: Vec<Row> = Vec::new();
    for &size in &sizes {
        let circuit = tiled_workload(size);
        let row = run(&circuit, Engine::Serial, budget, "incremental");
        println!(
            "guoq_iter size={:<6} engine={:<14} {:>12.0} iters/s  ({} iters, {} accepted, cost {})",
            row.size, row.engine, row.iters_per_sec, row.iterations, row.accepted, row.final_cost
        );
        rows.push(row);
    }

    // Telemetry honesty rows at the headline size: the observability
    // layer budgets ≤ 2% iters/sec overhead (rejected iterations never
    // read a clock; only rare slow spans do). Interleaved best-of-3
    // pairs cancel thermal/scheduler drift. These engine names are
    // unknown to the CI regression compare, which skips them — they
    // exist to make the overhead measurable, not to gate.
    let circuit = tiled_workload(10_000);
    let mut best: [Option<Row>; 2] = [None, None];
    for _ in 0..3 {
        for (i, (enabled, name)) in [
            (false, "incremental-notrace"),
            (true, "incremental-telemetry"),
        ]
        .into_iter()
        .enumerate()
        {
            qtrace::set_enabled(enabled);
            let row = run(&circuit, Engine::Serial, budget, name);
            if best[i]
                .as_ref()
                .is_none_or(|b| row.iters_per_sec > b.iters_per_sec)
            {
                best[i] = Some(row);
            }
        }
    }
    qtrace::set_enabled(true);
    for row in best.into_iter().flatten() {
        println!(
            "guoq_iter size={:<6} engine={:<14} {:>12.0} iters/s  ({} iters, {} accepted, cost {})",
            row.size, row.engine, row.iters_per_sec, row.iterations, row.accepted, row.final_cost
        );
        rows.push(row);
    }

    // Headline ratios for the acceptance criteria.
    let rate = |size: usize, engine: &str| {
        rows.iter()
            .find(|r| r.size == size && r.engine == engine)
            .map(|r| r.iters_per_sec)
            .unwrap_or(f64::NAN)
    };
    let scaling_ratio = rate(100, "incremental") / rate(10_000, "incremental");
    // Near-flat scaling criterion: 50k-gate throughput stays within 2x of
    // 1k-gate throughput for the incremental engine (ratio ≥ 0.5).
    let ratio_1k_to_50k = rate(50_000, "incremental") / rate(1_000, "incremental");
    // Fraction of iters/sec lost to telemetry at 10k gates (negative =
    // within noise); the observability acceptance bound is ≤ 0.02.
    let telemetry_overhead_10k =
        1.0 - rate(10_000, "incremental-telemetry") / rate(10_000, "incremental-notrace");
    println!(
        "incremental scaling 100→10k gates: {scaling_ratio:.2}x slowdown (constant-span edits)"
    );
    println!("incremental iters/sec ratio 1k→50k gates: {ratio_1k_to_50k:.3} (≥0.5 = near-flat)");
    println!(
        "telemetry overhead @10k gates: {:.2}% iters/sec (budget ≤ 2%)",
        telemetry_overhead_10k * 100.0
    );

    let mut json = String::from("{\n  \"benchmark\": \"guoq_iter\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"size\": {}, \"engine\": \"{}\", \"iterations\": {}, \"seconds\": {:.4}, \"iters_per_sec\": {:.1}, \"accepted\": {}, \"final_cost\": {}}}{}",
            r.size,
            r.engine,
            r.iterations,
            r.seconds,
            r.iters_per_sec,
            r.accepted,
            r.final_cost,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    // Per-size scaling summary for the incremental engine: the curve the
    // acceptance criteria read (iters/sec by size, plus the 1k→50k ratio).
    let mut scaling = String::from("{");
    for (i, &size) in sizes.iter().enumerate() {
        let _ = write!(
            scaling,
            "{}\"{}\": {:.1}",
            if i > 0 { ", " } else { "" },
            size,
            rate(size, "incremental")
        );
    }
    scaling.push('}');
    let _ = write!(
        json,
        "  ],\n  \"scaling_100_to_10k\": {scaling_ratio:.3},\n  \"ratio_1k_to_50k\": {ratio_1k_to_50k:.3},\n  \"telemetry_overhead_10k\": {telemetry_overhead_10k:.4},\n  \"incremental_iters_per_sec_by_size\": {scaling}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_guoq_iter.json");
    std::fs::write(path, &json).expect("write BENCH_guoq_iter.json");
    println!("wrote {path}");
}
