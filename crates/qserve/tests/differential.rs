//! The tentpole harness: an in-process client/server differential
//! suite.
//!
//! For both the serial and the sharded engine — and for the retired
//! `engine=clone-rebuild` spelling, which the wire still accepts as an
//! alias of `serial` — it proves a served, iteration-budgeted job is
//! **bit-identical** to calling `Guoq::optimize` directly with the same
//! options and seed — same final circuit, cost, and iteration count —
//! which is strictly stronger than "identical in distribution". On top of that it checks
//! the serving guarantees: unitary equivalence to the submitted
//! circuit, never-worse cost, ε within budget, and a snapshot stream
//! that starts at the input cost and is strictly decreasing.

mod util;

use crossbeam_channel::{bounded, Receiver};
use guoq::cost::{CostFn, GateCount};
use guoq::{Budget, Engine, Guoq, GuoqOpts};
use qcir::{qasm, Circuit, GateSet};
use qserve::{
    pump_stream, EngineSel, Frame, FrameDecoder, JobRequest, JobSummary, ServeOpts, Server,
};
use qsim::circuits_equivalent;
use std::time::Duration;
use util::workload;

/// Like [`util::request`] but over an exact QASM string: the
/// differential tests must submit byte-identical text to what the
/// direct run parses.
fn request(id: u64, engine: EngineSel, iters: u64, seed: u64, qasm: String) -> JobRequest {
    let mut r = util::request(id, engine, iters, seed, &Circuit::new(1));
    r.qasm = qasm;
    r
}

/// [`request`] as a client spelling the engine `wire` sends it: encoded,
/// respelled, and parsed back from the wire.
fn request_on_wire(wire: &str, id: u64, iters: u64, seed: u64, qasm: String) -> JobRequest {
    let line = Frame::Submit(request(id, EngineSel::Serial, iters, seed, qasm))
        .encode()
        .replacen(" engine=serial ", &format!(" engine={wire} "), 1);
    match Frame::parse(line.trim_end()) {
        Ok(Frame::Submit(r)) => r,
        other => panic!("`engine={wire}` SUBMIT did not parse: {other:?}"),
    }
}

/// Drains reply frames until the job's `DONE` (or panics after 120 s —
/// generous for a loaded 1-CPU CI host).
fn collect_until_done(rx: &Receiver<Frame>) -> Vec<Frame> {
    let mut frames = Vec::new();
    loop {
        let f = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("timed out waiting for DONE");
        let done = matches!(f, Frame::Done(_));
        frames.push(f);
        if done {
            return frames;
        }
    }
}

/// Submits in-process and returns (all frames, the DONE summary).
fn serve_job(server: &Server, req: JobRequest) -> (Vec<Frame>, JobSummary) {
    let (tx, rx) = bounded(4096);
    server.handle().handle_frame(Frame::Submit(req), &tx);
    let frames = collect_until_done(&rx);
    let summary = match frames.last() {
        Some(Frame::Done(s)) => s.clone(),
        other => panic!("expected DONE, got {other:?}"),
    };
    (frames, summary)
}

/// The direct (no server) run with the exact options the server uses.
fn direct_optimize(qasm_text: &str, engine: Engine, iters: u64, seed: u64) -> guoq::GuoqResult {
    let circuit = qasm::from_qasm(qasm_text).expect("parse");
    let opts = GuoqOpts {
        budget: Budget::Iterations(iters),
        eps_total: 1e-6,
        seed,
        engine,
        ..Default::default()
    };
    Guoq::for_gate_set(GateSet::Nam, opts).optimize(&circuit, &GateCount)
}

/// The shared differential assertion set for one engine, submitted with
/// the `wire` engine spelling.
fn assert_served_matches_direct(wire: &str, engine: Engine, id: u64) {
    let input = workload(240);
    let input_line = qasm::to_qasm_line(&input);
    let input_cost = GateCount.cost(&input);
    let (iters, seed) = (4000u64, 31u64);

    let direct = direct_optimize(&input_line, engine, iters, seed);

    let server = Server::start(ServeOpts {
        worker_budget: 4,
        // The differential property is bit-for-bit vs a cacheless
        // direct run; a cache hit skips synthesizer RNG draws and
        // would (soundly) change the trajectory. Pin the cache off.
        cache_gates: 0,
        ..Default::default()
    });
    let (frames, done) = serve_job(
        &server,
        request_on_wire(wire, id, iters, seed, input_line.clone()),
    );
    server.shutdown();

    // Frame shape: ACCEPTED, initial snapshot at the input cost, then
    // strict improvements, then DONE.
    assert!(matches!(frames[0], Frame::Accepted { id: got, .. } if got == id));
    let snapshots: Vec<(f64, u64)> = frames
        .iter()
        .filter_map(|f| match f {
            Frame::Snapshot {
                cost, iterations, ..
            } => Some((*cost, *iterations)),
            _ => None,
        })
        .collect();
    assert!(!snapshots.is_empty(), "no snapshot streamed");
    assert_eq!(snapshots[0], (input_cost, 0), "first snapshot ≠ input");
    for w in snapshots.windows(2) {
        assert!(
            w[1].0 < w[0].0,
            "snapshot costs not strictly decreasing: {snapshots:?}"
        );
    }
    assert_eq!(
        snapshots.last().unwrap().0,
        done.cost,
        "last snapshot is not the final best"
    );

    // Differential core: served ≡ direct under the same seed.
    let served_circuit = qasm::from_qasm(&done.qasm).expect("parse DONE qasm");
    assert_eq!(served_circuit, direct.circuit, "served circuit ≠ direct");
    assert_eq!(done.cost, direct.cost);
    assert_eq!(done.iterations, direct.iterations);
    assert_eq!(done.accepted, direct.accepted);
    assert!(!done.cancelled);

    // Serving guarantees.
    assert!(done.cost <= input_cost, "cost worsened");
    assert!(done.epsilon <= 1e-6);
    assert!(
        circuits_equivalent(&input, &served_circuit, 1e-4),
        "served output not equivalent to input"
    );
}

#[test]
fn serial_served_job_is_identical_to_direct_optimize() {
    assert_served_matches_direct("serial", Engine::Serial, 1);
}

/// The v2 counterpart of the differential core: a `HELLO version=2`
/// session receives `DELTA` frames (with periodic full-snapshot
/// checkpoints), and replaying them — apply each delta to the
/// previously reconstructed circuit, reset absolutely at each
/// `SNAPSHOT` — reproduces the served best **bit for bit**, for every
/// engine.
fn assert_v2_delta_stream_reconstructs(wire: &str, engine: Engine, id: u64) {
    let input = workload(240);
    let input_line = qasm::to_qasm_line(&input);
    let (iters, seed) = (4000u64, 31u64);
    let direct = direct_optimize(&input_line, engine, iters, seed);

    let server = Server::start(ServeOpts {
        worker_budget: 4,
        cache_gates: 0,
        // A small cadence so the test exercises delta runs *and*
        // checkpoint resets within one stream.
        checkpoint_every: 3,
        ..Default::default()
    });
    let handle = server.handle();
    let (tx, rx) = bounded(4096);
    handle.handle_frame(Frame::Hello { version: 2 }, &tx);
    match rx
        .recv_timeout(Duration::from_secs(5))
        .expect("hello reply")
    {
        Frame::Hello { version } => assert_eq!(version, 2),
        other => panic!("expected HELLO, got {other:?}"),
    }
    assert_eq!(handle.protocol_version(), 2);
    handle.handle_frame(
        Frame::Submit(request_on_wire(wire, id, iters, seed, input_line)),
        &tx,
    );
    let frames = collect_until_done(&rx);
    server.shutdown();

    let done = match frames.last() {
        Some(Frame::Done(s)) => s.clone(),
        other => panic!("expected DONE, got {other:?}"),
    };

    // Reconstruct the served best from the event stream.
    let mut current: Option<qcir::Circuit> = None;
    let mut last_cost = f64::INFINITY;
    // Improvements seen so far: every post-initial frame (DELTA or
    // checkpoint SNAPSHOT) is one.
    let mut improvements = 0u64;
    let mut deltas = 0usize;
    let mut snapshots = 0usize;
    for f in &frames {
        match f {
            Frame::Snapshot { cost, qasm, .. } => {
                snapshots += 1;
                if snapshots > 1 {
                    improvements += 1;
                    assert!(*cost < last_cost, "non-monotone improvement stream");
                }
                current = Some(qasm::from_qasm(qasm).expect("snapshot qasm"));
                last_cost = *cost;
            }
            Frame::Delta {
                seq, cost, delta, ..
            } => {
                deltas += 1;
                improvements += 1;
                // `seq` numbers delivered DELTA frames contiguously:
                // checkpoints never consume a number, so an undropped
                // stream shows no gap a client could mistake for loss.
                assert_eq!(*seq, deltas as u64, "delta seq must be contiguous");
                let d = qcir::CircuitDelta::decode(delta).expect("decodable delta");
                d.apply(current.as_mut().expect("delta before base checkpoint"))
                    .expect("delta chains onto the reconstruction");
                assert!(*cost < last_cost, "non-monotone improvement stream");
                last_cost = *cost;
            }
            _ => {}
        }
    }
    assert!(deltas > 0, "a v2 stream must actually ship deltas");
    assert!(snapshots >= 1, "v2 keeps the initial full checkpoint");
    let reconstructed = current.expect("stream carried a base checkpoint");
    let served = qasm::from_qasm(&done.qasm).expect("DONE qasm");
    assert_eq!(
        reconstructed, served,
        "replaying the delta stream must reproduce the served best bit for bit"
    );
    assert_eq!(served, direct.circuit, "served ≠ direct under v2");
    assert_eq!(done.cost, direct.cost);
    assert!(circuits_equivalent(&input, &served, 1e-4));
    // Every improvement ships exactly one frame (DELTA or checkpoint
    // SNAPSHOT): the totals agree.
    assert_eq!(improvements as usize, deltas + (snapshots - 1));
}

#[test]
fn v2_delta_stream_reconstructs_serial() {
    assert_v2_delta_stream_reconstructs("serial", Engine::Serial, 21);
}

#[test]
fn v2_delta_stream_reconstructs_sharded() {
    assert_v2_delta_stream_reconstructs("sharded:2", Engine::sharded(2), 22);
}

/// The retired engine's spelling is served by the serial engine.
#[test]
fn v2_delta_stream_reconstructs_clone_rebuild() {
    assert_v2_delta_stream_reconstructs("clone-rebuild", Engine::Serial, 23);
}

/// A v1 peer on the same server (no HELLO) keeps getting the legacy
/// full-snapshot stream: no DELTA frames, ever.
#[test]
fn v1_sessions_never_see_delta_frames() {
    let input = workload(160);
    let server = Server::start(ServeOpts {
        worker_budget: 2,
        cache_gates: 0,
        checkpoint_every: 2,
        ..Default::default()
    });
    let (frames, done) = serve_job(
        &server,
        request(5, EngineSel::Serial, 2000, 7, qasm::to_qasm_line(&input)),
    );
    server.shutdown();
    assert!(
        frames.iter().all(|f| !matches!(f, Frame::Delta { .. })),
        "v1 peers must only ever see SNAPSHOT/DONE"
    );
    let snapshots = frames
        .iter()
        .filter(|f| matches!(f, Frame::Snapshot { .. }))
        .count();
    assert!(snapshots >= 2, "initial + at least one improvement");
    assert!(!done.cancelled);
}

#[test]
fn sharded_served_job_is_identical_to_direct_optimize() {
    assert_served_matches_direct("sharded:2", Engine::sharded(2), 2);
}

/// An old client's `engine=clone-rebuild` job runs on the serial engine.
#[test]
fn clone_rebuild_served_job_is_identical_to_direct_optimize() {
    assert_served_matches_direct("clone-rebuild", Engine::Serial, 3);
}

/// A time-budgeted job that runs its full requested budget finishes
/// with `cancelled=0` — the wall budget is the normal stopping rule,
/// not a cancellation (regression for the watchdog racing the
/// driver's own `Budget::Time` clock).
#[test]
fn time_budgeted_job_is_not_reported_cancelled() {
    let input = workload(160);
    let server = Server::start(ServeOpts {
        worker_budget: 2,
        cache_gates: 0,
        ..Default::default()
    });
    let mut req = request(5, EngineSel::Serial, 0, 3, qasm::to_qasm_line(&input));
    req.time_ms = 300;
    let (frames, done) = serve_job(&server, req);
    server.shutdown();
    assert!(matches!(frames[0], Frame::Accepted { id: 5, .. }));
    assert!(
        !done.cancelled,
        "a job that ran its requested wall budget must not be stamped cancelled"
    );
    assert!(done.iterations > 0, "the time budget must buy some search");
    assert!(circuits_equivalent(
        &input,
        &qasm::from_qasm(&done.qasm).unwrap(),
        1e-4
    ));
}

/// The same differential property through the *byte-level* transport
/// pump: encoded SUBMIT in, encoded frame stream out.
#[test]
fn byte_level_transport_matches_direct_optimize() {
    let input = workload(160);
    let input_line = qasm::to_qasm_line(&input);
    let (iters, seed) = (2000u64, 7u64);
    let direct = direct_optimize(&input_line, Engine::Serial, iters, seed);

    let wire = Frame::Submit(request(9, EngineSel::Serial, iters, seed, input_line)).encode();
    let server = Server::start(ServeOpts {
        worker_budget: 2,
        cache_gates: 0,
        ..Default::default()
    });
    let out = pump_stream(wire.as_bytes(), Vec::new(), &server).expect("pump");
    server.shutdown();

    let mut dec = FrameDecoder::new();
    let frames: Vec<Frame> = dec
        .push(&out)
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("server emitted a malformed frame");
    assert!(matches!(frames[0], Frame::Accepted { id: 9, .. }));
    let done = match frames.last() {
        Some(Frame::Done(s)) => s.clone(),
        other => panic!("expected DONE, got {other:?}"),
    };
    assert_eq!(qasm::from_qasm(&done.qasm).unwrap(), direct.circuit);
    assert_eq!(done.cost, direct.cost);
    // Costs survive the text codec exactly (shortest-roundtrip floats).
    for f in &frames {
        if let Frame::Snapshot { cost, .. } = f {
            assert_eq!(*cost, cost.to_string().parse::<f64>().unwrap());
        }
    }
}

/// Concurrent jobs multiplexed onto one pool still match their direct
/// runs — submission interleaving must not leak state across jobs.
#[test]
fn concurrent_jobs_are_isolated() {
    let inputs: Vec<(u64, Circuit)> = (0..6u64)
        .map(|i| (i + 1, workload(96 + 16 * i as usize)))
        .collect();
    let server = Server::start(ServeOpts {
        worker_budget: 2,
        cache_gates: 0,
        ..Default::default()
    });
    let handle = server.handle();
    let (tx, rx) = bounded(4096);
    for (id, c) in &inputs {
        let engine = if id % 2 == 0 {
            EngineSel::Sharded(2)
        } else {
            EngineSel::Serial
        };
        handle.handle_frame(
            Frame::Submit(request(*id, engine, 800, 100 + id, qasm::to_qasm_line(c))),
            &tx,
        );
    }
    let mut done = std::collections::HashMap::new();
    while done.len() < inputs.len() {
        match rx.recv_timeout(Duration::from_secs(120)).expect("timeout") {
            Frame::Done(s) => {
                done.insert(s.id, s);
            }
            Frame::Error { id, message, .. } => panic!("job {id} rejected: {message}"),
            _ => {}
        }
    }
    server.shutdown();
    for (id, c) in &inputs {
        let engine = if id % 2 == 0 {
            Engine::sharded(2)
        } else {
            Engine::Serial
        };
        let direct = direct_optimize(&qasm::to_qasm_line(c), engine, 800, 100 + id);
        let s = &done[id];
        assert_eq!(
            qasm::from_qasm(&s.qasm).unwrap(),
            direct.circuit,
            "job {id}"
        );
        assert_eq!(s.cost, direct.cost, "job {id}");
    }
}

/// The EDIT verb's differential property: submit a certifying job to a
/// journaled server, let it finish with a certificate, apply a small
/// client-side [`qcir::CircuitDelta`] through `EDIT`, and compare the
/// incremental re-optimization against a **cold** full re-run of the
/// edited circuit at the same budget. The served result must be
/// unitary-equivalent to the edited circuit and its cost no worse than
/// the cold run's — the certificate prunes work, never quality.
#[test]
fn edit_reoptimization_matches_cold_run_quality() {
    use qcir::edit::Patch;
    use qcir::Gate;

    let dir = std::env::temp_dir().join(format!("qserve-edit-diff-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let input = workload(240);
    let (iters, seed) = (30_000u64, 11u64);

    let server = Server::start(ServeOpts {
        worker_budget: 1,
        cache_gates: 0,
        max_time_ms: 600_000,
        journal_dir: Some(dir.clone()),
        ..Default::default()
    });
    let handle = server.handle();
    let (tx, rx) = bounded(4096);
    handle.handle_frame(Frame::Hello { version: 2 }, &tx);
    match rx.recv_timeout(Duration::from_secs(5)).expect("hello") {
        Frame::Hello { version } => assert_eq!(version, 2),
        other => panic!("expected HELLO, got {other:?}"),
    }

    let mut req = request(
        41,
        EngineSel::Serial,
        iters,
        seed,
        qasm::to_qasm_line(&input),
    );
    req.certify = true;
    handle.handle_frame(Frame::Submit(req), &tx);
    let frames = collect_until_done(&rx);
    let done = match frames.last() {
        Some(Frame::Done(s)) => s.clone(),
        other => panic!("expected DONE, got {other:?}"),
    };
    let first_cert = frames
        .iter()
        .find_map(|f| match f {
            Frame::Certified {
                coverage, windows, ..
            } => Some((*coverage, *windows)),
            _ => None,
        })
        .expect("the certifying job must finish with a CERTIFIED frame");
    assert!(
        first_cert.0 >= 0.9 && first_cert.1 >= 1,
        "implausible certificate: {first_cert:?}"
    );
    let best = qasm::from_qasm(&done.qasm).expect("DONE qasm");

    // The client edit: splice a redundancy-rich tile into the middle of
    // the served best (changing the unitary — EDIT's contract is
    // equivalence to the *edited* circuit, not the original input).
    let mut donor = Circuit::new(6);
    donor.push(Gate::Cx, &[0, 1]);
    donor.push(Gate::H, &[1]);
    donor.push(Gate::H, &[1]);
    donor.push(Gate::Cx, &[0, 1]);
    donor.push(Gate::T, &[2]);
    let at = best.len() / 2;
    let delta = qcir::CircuitDelta::from_ops(
        best.len(),
        vec![Patch::new(
            Vec::new(),
            (0..donor.len()).map(|i| donor.instruction(i)).collect(),
            at,
        )],
    );
    let mut edited = best.clone();
    delta.apply(&mut edited).expect("edit applies to the best");

    handle.handle_frame(
        Frame::Edit {
            id: 41,
            delta: delta.encode(),
        },
        &tx,
    );
    let frames2 = collect_until_done(&rx);
    server.shutdown();
    let done2 = match frames2.last() {
        Some(Frame::Done(s)) => s.clone(),
        other => panic!("expected DONE, got {other:?}"),
    };
    assert!(
        frames2.iter().any(|f| matches!(f, Frame::Certified { .. })),
        "the EDIT continuation must finish with a fresh certificate"
    );

    // Cold baseline: a full from-scratch optimization of the edited
    // circuit with the same engine and budget.
    let cold = direct_optimize(&qasm::to_qasm_line(&edited), Engine::Serial, iters, seed);

    let served2 = qasm::from_qasm(&done2.qasm).expect("EDIT DONE qasm");
    assert!(
        circuits_equivalent(&edited, &served2, 1e-4),
        "EDIT re-optimization is not equivalent to the edited circuit"
    );
    assert!(
        done2.cost <= cold.cost,
        "EDIT re-optimization ({}) worse than a cold full re-run ({})",
        done2.cost,
        cold.cost
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn invalid_submissions_are_rejected_with_error_frames() {
    let server = Server::start(ServeOpts {
        worker_budget: 2,
        cache_gates: 0,
        ..Default::default()
    });
    let handle = server.handle();
    let (tx, rx) = bounded(64);

    // Malformed QASM.
    handle.handle_frame(
        Frame::Submit(request(
            1,
            EngineSel::Serial,
            10,
            0,
            "qreg q[1]; foo q[0];".into(),
        )),
        &tx,
    );
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Frame::Error { id: 1, message, .. } => assert!(message.contains("bad qasm")),
        other => panic!("expected ERROR, got {other:?}"),
    }

    // Width beyond the worker budget.
    handle.handle_frame(
        Frame::Submit(request(
            2,
            EngineSel::Sharded(16),
            10,
            0,
            "qreg q[1];".into(),
        )),
        &tx,
    );
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Frame::Error { id: 2, message, .. } => assert!(message.contains("worker budget")),
        other => panic!("expected ERROR, got {other:?}"),
    }

    // No budget at all.
    let mut r = request(3, EngineSel::Serial, 0, 0, "qreg q[1];".into());
    r.time_ms = 0;
    handle.handle_frame(Frame::Submit(r), &tx);
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Frame::Error { id: 3, message, .. } => assert!(message.contains("budget")),
        other => panic!("expected ERROR, got {other:?}"),
    }

    // Duplicate live id.
    let c = workload(64);
    handle.handle_frame(
        Frame::Submit(request(
            4,
            EngineSel::Serial,
            500,
            1,
            qasm::to_qasm_line(&c),
        )),
        &tx,
    );
    handle.handle_frame(
        Frame::Submit(request(
            4,
            EngineSel::Serial,
            500,
            1,
            qasm::to_qasm_line(&c),
        )),
        &tx,
    );
    let mut saw_accept = false;
    let mut saw_duplicate = false;
    loop {
        match rx.recv_timeout(Duration::from_secs(120)).unwrap() {
            Frame::Accepted { id: 4, .. } => saw_accept = true,
            Frame::Error { id: 4, message, .. } => {
                assert!(message.contains("duplicate"));
                saw_duplicate = true;
            }
            Frame::Done(s) if s.id == 4 => break,
            _ => {}
        }
    }
    assert!(saw_accept && saw_duplicate);
    server.shutdown();
}

/// Certification lives in the serial driver only, so a `cert=1` SUBMIT
/// on the sharded engine is refused at admission — `ERROR` with the
/// bad-request code and never an `ACCEPTED` — on v1 and v2 sessions
/// alike, instead of silently running uncertified.
#[test]
fn certify_on_sharded_engine_is_refused_at_admission() {
    let server = Server::start(ServeOpts {
        worker_budget: 2,
        cache_gates: 0,
        ..Default::default()
    });
    let input_line = qasm::to_qasm_line(&workload(64));
    for version in [1u32, 2] {
        let handle = server.handle();
        let (tx, rx) = bounded(64);
        if version == 2 {
            handle.handle_frame(Frame::Hello { version }, &tx);
            assert!(matches!(
                rx.recv_timeout(Duration::from_secs(5)),
                Ok(Frame::Hello { version: 2 })
            ));
        }
        assert_eq!(handle.protocol_version(), version);
        let id = 60 + u64::from(version);
        let mut req = request(id, EngineSel::Sharded(2), 200, 1, input_line.clone());
        req.certify = true;
        handle.handle_frame(Frame::Submit(req.clone()), &tx);
        match rx.recv_timeout(Duration::from_secs(10)).expect("reply") {
            Frame::Error { id: got, code, .. } if got == id => {
                assert_eq!(code, qserve::protocol::codes::BAD_REQUEST)
            }
            other => panic!("v{version}: expected ERROR, got {other:?}"),
        }
        // Nothing follows the ERROR, and the same job without `cert=1`
        // is admitted.
        req.certify = false;
        handle.handle_frame(Frame::Submit(req), &tx);
        let frames = collect_until_done(&rx);
        assert!(matches!(frames[0], Frame::Accepted { id: got, .. } if got == id));
    }
    server.shutdown();
}
