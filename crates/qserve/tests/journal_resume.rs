//! The durable job journal and `RESUME`: a journaled job's event
//! stream is replayable, a job cut off mid-search (simulated crash:
//! the journal's tail — including `DONE` — truncated away, exactly the
//! prefix an fsync'd journal survives with) resumes from its journaled
//! best and finishes with cost ≤ that best, and the error paths answer
//! cleanly.

mod util;

use crossbeam_channel::bounded;
use qcir::qasm;
use qserve::journal;
use qserve::{EngineSel, Frame, ServeOpts, Server};
use qsim::circuits_equivalent;
use std::path::PathBuf;
use std::time::Duration;
use util::{request, wait_done, workload};

fn temp_journal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qserve-test-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn journaled_server(dir: &std::path::Path) -> Server {
    Server::start(ServeOpts {
        worker_budget: 2,
        cache_gates: 0,
        checkpoint_every: 4,
        journal_dir: Some(dir.to_path_buf()),
        ..Default::default()
    })
}

/// Runs one journaled job to completion and returns its DONE summary.
fn run_job(server: &Server, id: u64, iters: u64) -> qserve::JobSummary {
    let input = workload(200);
    let handle = server.handle();
    let (tx, rx) = bounded(4096);
    handle.handle_frame(
        Frame::Submit(request(id, EngineSel::Serial, iters, 31, &input)),
        &tx,
    );
    wait_done(&rx, id)
}

#[test]
fn journaled_job_is_replayable_and_matches_done() {
    let dir = temp_journal_dir("replay");
    let server = journaled_server(&dir);
    let done = run_job(&server, 1, 3000);
    server.shutdown();

    let rp = journal::replay(&dir, 1).expect("journal replays");
    let finished = rp.finished.expect("journal recorded DONE");
    assert_eq!(finished.cost, done.cost);
    assert_eq!(rp.best, qasm::from_qasm(&done.qasm).unwrap());
    assert_eq!(rp.best_cost, done.cost);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_of_finished_job_replays_done() {
    let dir = temp_journal_dir("done-replay");
    let server = journaled_server(&dir);
    let done = run_job(&server, 2, 2000);
    server.shutdown();

    // A fresh server process (same journal dir): RESUME is idempotent
    // on finished jobs — the terminal DONE comes straight back.
    let server2 = journaled_server(&dir);
    let handle = server2.handle();
    let (tx, rx) = bounded(64);
    handle.handle_frame(Frame::Resume { id: 2 }, &tx);
    match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
        Frame::Done(s) => {
            assert_eq!(s.cost, done.cost);
            assert_eq!(s.qasm, done.qasm);
        }
        other => panic!("expected replayed DONE, got {other:?}"),
    }
    server2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The headline contract: kill the server mid-search (simulated by
/// truncating the journal at its last pre-DONE record — the on-disk
/// state an fsync'd journal is guaranteed to hold, at worst back to
/// the last checkpoint), restart with the same `--journal-dir`,
/// `RESUME`, and the job finishes with cost ≤ the journaled best.
#[test]
fn killed_job_resumes_from_journaled_best_and_never_regresses() {
    let dir = temp_journal_dir("resume");
    let input = workload(200);
    let server = journaled_server(&dir);
    let done = run_job(&server, 3, 3000);
    server.shutdown();
    assert!(!done.cancelled);

    // Simulate the crash: cut the journal at the DONE record (and the
    // improvement just before it, to land mid-stream).
    let path = journal::journal_path(&dir, 3);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(lines.last().unwrap().starts_with("DONE "));
    lines.pop();
    if lines.len() > 3 {
        lines.pop(); // also drop the last journaled improvement
    }
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();

    let rp = journal::replay(&dir, 3).expect("truncated journal replays");
    assert!(rp.finished.is_none(), "DONE was cut away");
    let journaled_best = rp.best_cost;
    assert!(
        journaled_best >= done.cost,
        "prefix cannot beat the full run"
    );

    // Restart + RESUME.
    let server2 = journaled_server(&dir);
    let handle = server2.handle();
    let (tx, rx) = bounded(4096);
    handle.handle_frame(Frame::Resume { id: 3 }, &tx);
    match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
        Frame::Accepted { id, .. } => assert_eq!(id, 3),
        other => panic!("expected ACCEPTED, got {other:?}"),
    }
    let resumed = wait_done(&rx, 3);
    server2.shutdown();

    assert!(
        resumed.cost <= journaled_best,
        "resumed job regressed: {} > journaled best {}",
        resumed.cost,
        journaled_best
    );
    assert!(!resumed.cancelled);
    // Semantics survive the crash+resume end to end.
    let out = qasm::from_qasm(&resumed.qasm).unwrap();
    assert!(circuits_equivalent(&input, &out, 1e-4));

    // The continued journal now replays to the resumed result: a
    // second resume replays its DONE.
    let rp2 = journal::replay(&dir, 3).expect("continued journal replays");
    assert_eq!(
        rp2.finished.expect("resumed DONE journaled").cost,
        resumed.cost
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A journal written by an older build whose SUBMIT line names the
/// retired `clone-rebuild` engine still resumes: the spelling parses as
/// `serial`, and the continuation finishes no worse than the journaled
/// best.
#[test]
fn journal_with_clone_rebuild_submit_resumes() {
    let dir = temp_journal_dir("clone-rebuild");
    let input = workload(200);
    let server = journaled_server(&dir);
    assert!(!run_job(&server, 7, 3000).cancelled);
    server.shutdown();

    // Respell the SUBMIT record as an older build wrote it, and cut the
    // journal before its DONE so RESUME has work left to do.
    let path = journal::journal_path(&dir, 7);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert!(lines[0].starts_with("SUBMIT ") && lines[0].contains(" engine=serial "));
    lines[0] = lines[0].replacen(" engine=serial ", " engine=clone-rebuild ", 1);
    assert!(lines.pop().unwrap().starts_with("DONE "));
    std::fs::write(&path, lines.join("\n") + "\n").unwrap();
    let rp = journal::replay(&dir, 7).expect("respelled journal replays");
    assert_eq!(rp.request.engine, EngineSel::Serial);
    assert!(rp.finished.is_none());

    let server2 = journaled_server(&dir);
    let (tx, rx) = bounded(4096);
    server2.handle().handle_frame(Frame::Resume { id: 7 }, &tx);
    match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
        Frame::Accepted { id, .. } => assert_eq!(id, 7),
        other => panic!("expected ACCEPTED, got {other:?}"),
    }
    let resumed = wait_done(&rx, 7);
    server2.shutdown();
    assert!(resumed.cost <= rp.best_cost, "resumed job regressed");
    let out = qasm::from_qasm(&resumed.qasm).unwrap();
    assert!(circuits_equivalent(&input, &out, 1e-4));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte-granular truncation fuzz: a journal cut at *any* byte offset
/// — the file's fringes, every record boundary ±1 byte, and a seeded
/// random spread of interior offsets — must replay without panicking,
/// to either a clean error (nothing recoverable survived the cut) or
/// a usable prefix: cost consistent with the reconstructed circuit,
/// never better than the full run, never worse than the input, and
/// unitary-equivalent to it. Once the SUBMIT and the initial
/// checkpoint are both complete lines, replay MUST succeed.
#[test]
fn truncation_at_any_byte_replays_to_a_usable_prefix_or_clean_error() {
    use guoq::cost::{CostFn, GateCount};
    use qserve::fleet::{truncate_file, ChaosRng};

    let dir = temp_journal_dir("trunc-fuzz");
    let input = workload(200);
    let server = journaled_server(&dir);
    let done = run_job(&server, 4, 3000);
    server.shutdown();

    let full = std::fs::read(journal::journal_path(&dir, 4)).unwrap();
    let full_iters = journal::replay(&dir, 4)
        .expect("full journal replays")
        .iterations;
    let input_cost = GateCount.cost(&input);

    // Offset set: the first bytes, every newline ±1 (record
    // boundaries), the exact end, and a seeded interior spread.
    let mut offsets: Vec<usize> = (0..=16.min(full.len())).collect();
    for (i, b) in full.iter().enumerate() {
        if *b == b'\n' {
            offsets.extend([i.saturating_sub(1), i, i + 1]);
        }
    }
    let mut rng = ChaosRng::new(0xFA112);
    offsets.extend((0..256).map(|_| rng.below(full.len() as u64) as usize));
    offsets.push(full.len());
    offsets.sort_unstable();
    offsets.dedup();

    // Recovery is guaranteed once both the SUBMIT record and the
    // initial SNAPSHOT checkpoint are complete lines.
    let second_newline = full
        .iter()
        .enumerate()
        .filter(|(_, b)| **b == b'\n')
        .map(|(i, _)| i)
        .nth(1)
        .expect("journal has at least two records");

    let scratch = temp_journal_dir("trunc-fuzz-cut");
    std::fs::create_dir_all(&scratch).unwrap();
    let cut = journal::journal_path(&scratch, 4);
    // Unitary equivalence is checked once per distinct prefix state
    // (the simulator run dominates; identical prefixes prove nothing
    // new), cost/shape invariants on every offset.
    let mut verified_costs: Vec<f64> = Vec::new();
    for &keep in &offsets {
        std::fs::write(&cut, &full).unwrap();
        truncate_file(&cut, keep as u64).unwrap();
        match journal::replay(&scratch, 4) {
            Ok(rp) => {
                assert!(
                    rp.best_cost >= done.cost - 1e-9,
                    "offset {keep}: prefix ({}) beats the full run ({})",
                    rp.best_cost,
                    done.cost
                );
                assert!(
                    rp.best_cost <= input_cost + 1e-9,
                    "offset {keep}: prefix worse than the input"
                );
                assert!(
                    rp.iterations <= full_iters,
                    "offset {keep}: prefix iterations exceed the full run"
                );
                assert!(
                    (GateCount.cost(&rp.best) - rp.best_cost).abs() < 1e-6,
                    "offset {keep}: journaled cost {} != reconstructed cost {}",
                    rp.best_cost,
                    GateCount.cost(&rp.best)
                );
                if let Some(fin) = &rp.finished {
                    assert_eq!(
                        fin.cost, done.cost,
                        "offset {keep}: DONE survives only whole"
                    );
                }
                if !verified_costs
                    .iter()
                    .any(|c| (c - rp.best_cost).abs() < 1e-9)
                {
                    verified_costs.push(rp.best_cost);
                    assert!(
                        circuits_equivalent(&input, &rp.best, 1e-4),
                        "offset {keep}: prefix best not equivalent to input"
                    );
                }
            }
            Err(e) => {
                assert!(
                    keep <= second_newline,
                    "offset {keep} holds a complete checkpoint yet replay failed: {e}"
                );
            }
        }
    }
    assert!(
        verified_costs.len() > 1,
        "fuzz never saw an intermediate prefix state"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A resume must not reset the ε budget: the continuation runs with
/// only the *remaining* allowance, and every report (DONE) stays
/// cumulative vs the original input.
#[test]
fn resume_carves_remaining_epsilon_and_reports_cumulatively() {
    use qserve::journal::JobJournal;
    let dir = temp_journal_dir("eps");
    let input = workload(96);
    let mut original = request(5, EngineSel::Serial, 1000, 9, &input);
    original.eps = 1e-6;
    // Hand-build the pre-crash journal: the dead segment spent 4e-7 of
    // its ε (an identity delta keeps the circuit reconstruction
    // trivial — replay does not require cost progress).
    let mut j = JobJournal::create(&dir, 5, &original).unwrap();
    j.append_synced(&Frame::Snapshot {
        id: 5,
        cost: input.len() as f64,
        epsilon: 0.0,
        iterations: 0,
        seconds: 0.0,
        qasm: qasm::to_qasm_line(&input),
    })
    .unwrap();
    j.append_synced(&Frame::Delta {
        id: 5,
        seq: 1,
        cost: input.len() as f64 - 1.0,
        epsilon: 4e-7,
        iterations: 100,
        seconds: 0.1,
        delta: qcir::CircuitDelta::identity(input.len()).encode(),
    })
    .unwrap();
    drop(j);

    let server = journaled_server(&dir);
    let handle = server.handle();
    let (tx, rx) = bounded(4096);
    handle.handle_frame(Frame::Resume { id: 5 }, &tx);
    match rx.recv_timeout(Duration::from_secs(30)).unwrap() {
        Frame::Accepted { id, .. } => assert_eq!(id, 5),
        other => panic!("expected ACCEPTED, got {other:?}"),
    }
    let resumed = wait_done(&rx, 5);
    server.shutdown();

    // The continuation ran with the remaining allowance only…
    let rp = journal::replay(&dir, 5).expect("continued journal replays");
    assert!(
        (rp.request.eps - 6e-7).abs() < 1e-12,
        "continuation allowance must be original − spent, got {}",
        rp.request.eps
    );
    // …and the DONE ε is cumulative: the journaled 4e-7 base plus the
    // segment's own (bounded) spending — never above the original
    // budget, never below the base.
    assert!(
        resumed.epsilon >= 4e-7 - 1e-12 && resumed.epsilon <= 1e-6 + 1e-12,
        "cumulative epsilon out of range: {}",
        resumed.epsilon
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// On a journaled server a second job with a live id is refused — two
/// writers would interleave appends into one journal file (this also
/// blocks RESUME of a still-running job).
#[test]
fn journaled_server_refuses_live_id_collisions() {
    let dir = temp_journal_dir("live-id");
    let server = journaled_server(&dir);
    let input = workload(96);
    // Connection A: a long-running job 8.
    let a = server.handle();
    let (tx_a, rx_a) = bounded(4096);
    let mut req_a = request(8, EngineSel::Serial, u64::MAX / 2, 3, &input);
    req_a.time_ms = 60_000;
    a.handle_frame(Frame::Submit(req_a), &tx_a);
    match rx_a.recv_timeout(Duration::from_secs(10)).unwrap() {
        Frame::Accepted { id: 8, .. } => {}
        other => panic!("expected ACCEPTED, got {other:?}"),
    }
    // Connection B: same id while A's job is live → refused (the
    // per-connection scope would otherwise have allowed it).
    let b = server.handle();
    let (tx_b, rx_b) = bounded(64);
    b.handle_frame(
        Frame::Submit(request(8, EngineSel::Serial, 100, 4, &input)),
        &tx_b,
    );
    match rx_b.recv_timeout(Duration::from_secs(10)).unwrap() {
        Frame::Error { id: 8, message, .. } => assert!(message.contains("live")),
        other => panic!("expected ERROR, got {other:?}"),
    }
    // RESUME of the live job is refused the same way.
    b.handle_frame(Frame::Resume { id: 8 }, &tx_b);
    match rx_b.recv_timeout(Duration::from_secs(10)).unwrap() {
        Frame::Error { id: 8, .. } => {}
        other => panic!("expected ERROR, got {other:?}"),
    }
    a.cancel(8);
    wait_done(&rx_a, 8);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_error_paths_answer_cleanly() {
    // No --journal-dir: RESUME is refused.
    let server = Server::start(ServeOpts {
        worker_budget: 1,
        cache_gates: 0,
        ..Default::default()
    });
    let handle = server.handle();
    let (tx, rx) = bounded(16);
    handle.handle_frame(Frame::Resume { id: 9 }, &tx);
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Frame::Error { id: 9, message, .. } => assert!(message.contains("journal")),
        other => panic!("expected ERROR, got {other:?}"),
    }
    server.shutdown();

    // Journaled server, unknown id: clean ERROR.
    let dir = temp_journal_dir("unknown");
    let server = journaled_server(&dir);
    let handle = server.handle();
    let (tx, rx) = bounded(16);
    handle.handle_frame(Frame::Resume { id: 404 }, &tx);
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Frame::Error {
            id: 404, message, ..
        } => assert!(message.contains("no journal")),
        other => panic!("expected ERROR, got {other:?}"),
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// HELLO version negotiation clamps to the server's ceiling and
/// unknown future versions degrade to the newest the server speaks.
#[test]
fn hello_negotiates_and_clamps() {
    let server = Server::start(ServeOpts {
        worker_budget: 1,
        cache_gates: 0,
        ..Default::default()
    });
    let handle = server.handle();
    let (tx, rx) = bounded(16);
    handle.handle_frame(Frame::Hello { version: 99 }, &tx);
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Frame::Hello { version } => assert_eq!(version, qserve::PROTOCOL_VERSION),
        other => panic!("expected HELLO, got {other:?}"),
    }
    assert_eq!(handle.protocol_version(), qserve::PROTOCOL_VERSION);
    // A v0 proposal clamps up to 1 (there is no v0).
    handle.handle_frame(Frame::Hello { version: 0 }, &tx);
    match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
        Frame::Hello { version } => assert_eq!(version, 1),
        other => panic!("expected HELLO, got {other:?}"),
    }
    server.shutdown();
}
