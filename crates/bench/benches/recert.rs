//! Incremental re-optimization economics: what a certificate buys.
//!
//! Section 1 — **EDIT vs cold re-run**: a certifying job optimizes a
//! large tiled workload on a journaled server and finishes with a
//! local-optimality certificate; a client then splices a small edit
//! (a handful of gates, well under 5% of the circuit) into the served
//! best and re-optimizes through the v2 `EDIT` verb. The rebased
//! certificate lets the continuation re-probe only the dirtied
//! windows and terminate early, so its wall-clock is compared against
//! a **cold** full re-optimization of the edited circuit at the same
//! budget — same final quality, a fraction of the time.
//!
//! Section 2 — **early termination**: the same plateaued circuit is
//! re-submitted once with certification on and once off, at one
//! iteration budget. The uncertified run burns the whole budget
//! confirming what it already knows; the certified run proves local
//! optimality window by window and stops.
//!
//! The summary goes to `BENCH_recert.json` in the repository root.
//!
//! Run with: `cargo bench --bench recert`
//! CI smoke: `RECERT_GATES=400 RECERT_ITERS=8000 cargo bench --bench recert`

use crossbeam_channel::{bounded, Receiver};
use guoq::cost::GateCount;
use guoq::{Budget, Engine, Guoq, GuoqOpts};
use guoq_bench::tiled_workload;
use qcir::edit::Patch;
use qcir::{qasm, Circuit, Gate, GateSet};
use qserve::{EngineSel, Frame, JobRequest, JobSummary, Objective, ServeOpts, Server};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Drains frames until `DONE`, returning the summary and any
/// `CERTIFIED` frame's `(coverage, windows)` seen on the way.
fn wait_done(rx: &Receiver<Frame>, id: u64) -> (JobSummary, Option<(f64, u64)>) {
    let mut cert = None;
    loop {
        match rx
            .recv_timeout(Duration::from_secs(3600))
            .expect("frame before DONE")
        {
            Frame::Certified {
                id: got,
                coverage,
                windows,
                ..
            } if got == id => cert = Some((coverage, windows)),
            Frame::Done(s) if s.id == id => return (s, cert),
            Frame::Error {
                id: got, message, ..
            } if got == id => {
                panic!("job {got} rejected: {message}")
            }
            _ => {}
        }
    }
}

fn request(id: u64, iters: u64, seed: u64, certify: bool, qasm: String) -> JobRequest {
    JobRequest {
        id,
        engine: EngineSel::Serial,
        iters,
        time_ms: 0,
        seed,
        eps: 1e-8,
        objective: Objective::GateCount,
        overwrite: false,
        certify,
        qasm,
    }
}

fn main() {
    let gates: usize = std::env::var("RECERT_GATES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);
    let iters: u64 = std::env::var("RECERT_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(120_000);

    let dir = std::env::temp_dir().join(format!("recert-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::start(ServeOpts {
        worker_budget: 1,
        cache_gates: 0,
        max_time_ms: 3_600_000,
        journal_dir: Some(dir.clone()),
        ..Default::default()
    });
    let handle = server.handle();
    let (tx, rx) = bounded(16 * 1024);
    handle.handle_frame(Frame::Hello { version: 2 }, &tx);

    // Offline prep, outside every timed comparison: bring the raw
    // workload to its plateau once. Certificates are for jobs that
    // have converged — submitting a mid-descent circuit would spend
    // the budget on ordinary improvements, not proofs.
    let raw = tiled_workload(gates);
    let pre = Guoq::for_gate_set(
        GateSet::Nam,
        GuoqOpts {
            budget: Budget::Iterations(iters),
            eps_total: 1e-8,
            seed: 0xABCD,
            engine: Engine::Serial,
            ..Default::default()
        },
    )
    .optimize(&raw, &GateCount);
    let input = pre.circuit;

    // Section 1a: the initial certifying optimization.
    let started = Instant::now();
    handle.handle_frame(
        Frame::Submit(request(1, iters, 0xC397, true, qasm::to_qasm_line(&input))),
        &tx,
    );
    let (done1, cert1) = wait_done(&rx, 1);
    let initial_s = started.elapsed().as_secs_f64();
    let (coverage1, windows1) = cert1.unwrap_or((0.0, 0));
    println!(
        "recert initial: {} gates -> cost {} in {:.2}s ({} iters, coverage {:.3}, {} windows)",
        input.len(),
        done1.cost,
        initial_s,
        done1.iterations,
        coverage1,
        windows1
    );

    // Section 1b: a small client edit — one redundancy-rich 6-gate tile
    // spliced mid-circuit (a fraction of a percent of a 10k-gate run).
    let best = qasm::from_qasm(&done1.qasm).expect("DONE qasm");
    let mut donor = Circuit::new(12);
    donor.push(Gate::Cx, &[0, 1]);
    donor.push(Gate::H, &[1]);
    donor.push(Gate::T, &[0]);
    donor.push(Gate::H, &[1]);
    donor.push(Gate::Cx, &[0, 1]);
    donor.push(Gate::T, &[2]);
    let delta = qcir::CircuitDelta::from_ops(
        best.len(),
        vec![Patch::new(
            Vec::new(),
            (0..donor.len()).map(|i| donor.instruction(i)).collect(),
            best.len() / 2,
        )],
    );
    let mut edited = best.clone();
    delta.apply(&mut edited).expect("edit applies");
    let edit_fraction = donor.len() as f64 / best.len().max(1) as f64;

    let started = Instant::now();
    handle.handle_frame(
        Frame::Edit {
            id: 1,
            delta: delta.encode(),
        },
        &tx,
    );
    let (done2, cert2) = wait_done(&rx, 1);
    let edit_s = started.elapsed().as_secs_f64();
    let (coverage2, windows2) = cert2.unwrap_or((0.0, 0));

    // Section 1c: the cold baseline — a full re-optimization of the
    // edited circuit at the same budget, no certificate to lean on.
    let started = Instant::now();
    let cold = Guoq::for_gate_set(
        GateSet::Nam,
        GuoqOpts {
            budget: Budget::Iterations(iters),
            eps_total: 1e-8,
            seed: 0xC397,
            engine: Engine::Serial,
            ..Default::default()
        },
    )
    .optimize(&edited, &GateCount);
    let cold_s = started.elapsed().as_secs_f64();
    let speedup = if edit_s > 0.0 { cold_s / edit_s } else { 0.0 };
    println!(
        "recert edit ({} gates, {:.2}% of circuit): EDIT {:.2}s @ cost {} ({} iters, coverage {:.3}) vs cold {:.2}s @ cost {} ({} iters) = {:.1}x faster",
        donor.len(),
        100.0 * edit_fraction,
        edit_s,
        done2.cost,
        done2.iterations,
        coverage2,
        cold_s,
        cold.cost,
        cold.iterations,
        speedup
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Section 2: early termination on an already-plateaued circuit —
    // certification turns "burn the rest of the budget" into "prove
    // local optimality and stop".
    let run = |certify: bool, seed: u64| {
        let t = Instant::now();
        let r = Guoq::for_gate_set(
            GateSet::Nam,
            GuoqOpts {
                budget: Budget::Iterations(iters),
                eps_total: 1e-8,
                seed,
                engine: if certify {
                    Engine::Certifying { prior: None }
                } else {
                    Engine::Serial
                },
                ..Default::default()
            },
        )
        .optimize(&best, &GateCount);
        (t.elapsed().as_secs_f64(), r)
    };
    let (plain_s, plain) = run(false, 0xE11);
    let (cert_s, certified) = run(true, 0xE11);
    let et_coverage = certified.certificate.as_ref().map_or(0.0, |c| c.coverage());
    let iter_savings = 1.0 - certified.iterations as f64 / plain.iterations.max(1) as f64;
    println!(
        "recert early-term: plateaued {} gates, budget {} iters: uncertified {:.2}s/{} iters vs certified {:.2}s/{} iters (coverage {:.3}) = {:.1}% of the budget saved",
        best.len(),
        iters,
        plain_s,
        plain.iterations,
        cert_s,
        certified.iterations,
        et_coverage,
        100.0 * iter_savings
    );

    let mut json = String::from("{\n  \"benchmark\": \"recert\",\n");
    let _ = writeln!(
        json,
        "  \"host_cpus\": {},",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let _ = writeln!(json, "  \"gates_raw\": {},", raw.len());
    let _ = writeln!(json, "  \"gates\": {},", input.len());
    let _ = writeln!(json, "  \"iters_budget\": {iters},");
    let _ = writeln!(
        json,
        "  \"initial\": {{\"seconds\": {:.4}, \"cost\": {}, \"iterations\": {}, \"coverage\": {:.4}, \"windows\": {}}},",
        initial_s, done1.cost, done1.iterations, coverage1, windows1
    );
    let _ = writeln!(
        json,
        "  \"edit\": {{\"gates_touched\": {}, \"fraction\": {:.5}, \"seconds\": {:.4}, \"cost\": {}, \"iterations\": {}, \"coverage\": {:.4}, \"windows\": {}}},",
        donor.len(), edit_fraction, edit_s, done2.cost, done2.iterations, coverage2, windows2
    );
    let _ = writeln!(
        json,
        "  \"cold\": {{\"seconds\": {:.4}, \"cost\": {}, \"iterations\": {}}},",
        cold_s, cold.cost, cold.iterations
    );
    let _ = writeln!(json, "  \"edit_speedup_x\": {speedup:.2},");
    let _ = writeln!(
        json,
        "  \"early_termination\": {{\"uncertified_seconds\": {:.4}, \"uncertified_iterations\": {}, \"certified_seconds\": {:.4}, \"certified_iterations\": {}, \"coverage\": {:.4}, \"budget_saved\": {:.4}}}",
        plain_s, plain.iterations, cert_s, certified.iterations, et_coverage, iter_savings
    );
    json.push_str("}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recert.json");
    std::fs::write(path, &json).expect("write BENCH_recert.json");
    println!("wrote {path}");
}
