//! Cancellation and timeout regression tests: a job killed mid-epoch
//! must return its worker slots, and the pool must stay fully usable —
//! the next job on the same server produces correct (and, with a fixed
//! seed, bit-identical-to-direct) output.

mod util;

use crossbeam_channel::{bounded, Receiver, Sender};
use guoq::cost::{CostFn, GateCount};
use guoq::{Budget, Engine, Guoq, GuoqOpts};
use qcir::{qasm, GateSet};
use qserve::{EngineSel, Frame, JobRequest, ServeOpts, Server, ServerHandle};
use qsim::circuits_equivalent;
use util::{recv, request, wait_done, workload};

/// Submits, waits for ACCEPTED and the initial snapshot (the job is
/// definitely *running*), then returns.
fn submit_and_wait_running(
    handle: &ServerHandle,
    req: JobRequest,
    tx: &Sender<Frame>,
    rx: &Receiver<Frame>,
) {
    let id = req.id;
    handle.handle_frame(Frame::Submit(req), tx);
    loop {
        match recv(rx) {
            Frame::Accepted { id: got, .. } => assert_eq!(got, id),
            Frame::Snapshot { id: got, .. } => {
                assert_eq!(got, id);
                return; // the job thread is live and mid-search
            }
            Frame::Error { message, .. } => panic!("rejected: {message}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}

/// The core regression: cancel a sharded job mid-epoch, then prove the
/// same pool serves the next job correctly.
#[test]
fn cancelled_sharded_job_leaves_the_pool_reusable() {
    let big = workload(400);
    let server = Server::start(ServeOpts {
        worker_budget: 2,
        // Job 2 below is compared bit-for-bit against its cacheless
        // direct run; job 1 must not warm a shared cache for it.
        cache_gates: 0,
        ..Default::default()
    });
    let handle = server.handle();
    let (tx, rx) = bounded(4096);

    // A job with an effectively unbounded iteration budget: only
    // cancellation can end it inside the test's lifetime. Width 2 — it
    // owns the entire worker budget while running.
    submit_and_wait_running(
        &handle,
        request(1, EngineSel::Sharded(2), u64::MAX / 2, 5, &big),
        &tx,
        &rx,
    );
    assert!(handle.cancel(1), "cancel must find the live job");
    let s = wait_done(&rx, 1);
    assert!(s.cancelled, "DONE must carry cancelled=1");
    // The cancelled result is still a valid anytime answer.
    let best = qasm::from_qasm(&s.qasm).expect("parse best-so-far");
    assert!(s.cost <= GateCount.cost(&big));
    assert!(circuits_equivalent(&big, &best, 1e-4));

    // The pool must be fully reusable: a fresh deterministic job on the
    // same server matches its direct run exactly.
    let small = workload(120);
    let (iters, seed) = (1500u64, 9u64);
    server.handle().handle_frame(
        Frame::Submit(request(2, EngineSel::Sharded(2), iters, seed, &small)),
        &tx,
    );
    let s2 = wait_done(&rx, 2);
    assert!(!s2.cancelled);
    let direct = Guoq::for_gate_set(
        GateSet::Nam,
        GuoqOpts {
            budget: Budget::Iterations(iters),
            eps_total: 1e-6,
            seed,
            engine: Engine::sharded(2),
            ..Default::default()
        },
    )
    .optimize(
        &qasm::from_qasm(&qasm::to_qasm_line(&small)).unwrap(),
        &GateCount,
    );
    assert_eq!(qasm::from_qasm(&s2.qasm).unwrap(), direct.circuit);
    assert_eq!(s2.cost, direct.cost);
    server.shutdown();
}

/// Cancelling a *queued* job (admitted, waiting for slots) still
/// produces its terminal DONE and frees nothing it never held.
#[test]
fn cancelling_a_queued_job_terminates_it_cleanly() {
    let big = workload(400);
    let server = Server::start(ServeOpts {
        worker_budget: 1,
        ..Default::default()
    });
    let handle = server.handle();
    let (tx, rx) = bounded(4096);

    // Job 1 occupies the only slot indefinitely.
    submit_and_wait_running(
        &handle,
        request(1, EngineSel::Serial, u64::MAX / 2, 1, &big),
        &tx,
        &rx,
    );
    // Job 2 queues behind it; cancel it while queued. The scheduler
    // sweeps it out without waiting for the slot, so its DONE arrives
    // while job 1 is still running.
    handle.handle_frame(
        Frame::Submit(request(2, EngineSel::Serial, 1000, 2, &big)),
        &tx,
    );
    loop {
        if let Frame::Accepted { id: 2, .. } = recv(&rx) {
            break;
        }
    }
    assert!(handle.cancel(2));
    let s2 = wait_done(&rx, 2);
    assert!(s2.cancelled);
    assert_eq!(s2.iterations, 0, "queued job must not run");

    // Job 1 is still live; cancel it too and reuse the pool.
    assert!(handle.cancel(1));
    let s1 = wait_done(&rx, 1);
    assert!(s1.cancelled);

    let small = workload(80);
    handle.handle_frame(
        Frame::Submit(request(3, EngineSel::Serial, 800, 3, &small)),
        &tx,
    );
    let s3 = wait_done(&rx, 3);
    assert!(!s3.cancelled);
    assert!(circuits_equivalent(
        &small,
        &qasm::from_qasm(&s3.qasm).unwrap(),
        1e-4
    ));
    server.shutdown();
}

/// A cancelled *wide* job at the queue head must not block a narrower
/// ready job behind it (head-of-line regression for the sweep).
#[test]
fn cancelled_wide_job_does_not_block_the_queue() {
    let big = workload(400);
    let small = workload(80);
    let server = Server::start(ServeOpts {
        worker_budget: 2,
        ..Default::default()
    });
    let handle = server.handle();
    let (tx, rx) = bounded(4096);

    // Width-1 job holds one slot indefinitely…
    submit_and_wait_running(
        &handle,
        request(1, EngineSel::Serial, u64::MAX / 2, 1, &big),
        &tx,
        &rx,
    );
    // …a width-2 job queues (2 > 1 free slot) and is cancelled…
    handle.handle_frame(
        Frame::Submit(request(2, EngineSel::Sharded(2), u64::MAX / 2, 2, &big)),
        &tx,
    );
    loop {
        if let Frame::Accepted { id: 2, .. } = recv(&rx) {
            break;
        }
    }
    assert!(handle.cancel(2));
    // …and a width-1 job behind the dead head must still complete
    // while job 1 keeps running.
    handle.handle_frame(
        Frame::Submit(request(3, EngineSel::Serial, 600, 3, &small)),
        &tx,
    );
    let mut done2 = false;
    let mut done3 = false;
    while !(done2 && done3) {
        if let Frame::Done(s) = recv(&rx) {
            match s.id {
                2 => {
                    assert!(s.cancelled);
                    assert_eq!(s.iterations, 0);
                    done2 = true;
                }
                3 => {
                    assert!(!s.cancelled, "job 3 must run despite the dead head");
                    done3 = true;
                }
                1 => panic!("job 1 must still be running"),
                _ => unreachable!(),
            }
        }
    }
    assert!(handle.cancel(1));
    wait_done(&rx, 1);
    server.shutdown();
}

/// Admission hardening: a queued job that cannot start within the
/// server's queue-wait deadline is retracted with a typed
/// `ERROR code=queue-timeout` — and its id becomes reusable at once.
#[test]
fn queue_wait_deadline_yields_typed_error() {
    let big = workload(400);
    let server = Server::start(ServeOpts {
        worker_budget: 1,
        queue_wait_ms: 250,
        ..Default::default()
    });
    let handle = server.handle();
    let (tx, rx) = bounded(4096);

    // Job 1 holds the only slot indefinitely; job 2 queues behind it
    // and can never start within the deadline.
    submit_and_wait_running(
        &handle,
        request(1, EngineSel::Serial, u64::MAX / 2, 1, &big),
        &tx,
        &rx,
    );
    handle.handle_frame(
        Frame::Submit(request(2, EngineSel::Serial, 1000, 2, &big)),
        &tx,
    );
    let mut accepted = false;
    loop {
        match recv(&rx) {
            Frame::Accepted { id: 2, .. } => accepted = true,
            Frame::Error { id: 2, code, .. } => {
                assert!(accepted, "ERROR must follow the ACCEPTED");
                assert_eq!(code, "queue-timeout");
                break;
            }
            Frame::Done(s) => panic!("job {} must not finish", s.id),
            _ => {} // job 1's snapshots
        }
    }

    // The retraction freed the id: resubmitting 2 works, and once the
    // slot frees up it runs to completion.
    assert!(handle.cancel(1));
    wait_done(&rx, 1);
    let small = workload(80);
    handle.handle_frame(
        Frame::Submit(request(2, EngineSel::Serial, 400, 3, &small)),
        &tx,
    );
    let s2 = wait_done(&rx, 2);
    assert!(!s2.cancelled);
    assert!(circuits_equivalent(
        &small,
        &qasm::from_qasm(&s2.qasm).unwrap(),
        1e-4
    ));
    server.shutdown();
}

/// Job-id scopes are per connection: another client cannot cancel (or
/// collide with) this client's jobs.
#[test]
fn connections_cannot_cancel_each_others_jobs() {
    let big = workload(400);
    let server = Server::start(ServeOpts {
        worker_budget: 2,
        ..Default::default()
    });
    let client_a = server.handle();
    let client_b = server.handle();
    let (tx_a, rx_a) = bounded(4096);
    let (tx_b, rx_b) = bounded(4096);

    submit_and_wait_running(
        &client_a,
        request(1, EngineSel::Serial, u64::MAX / 2, 5, &big),
        &tx_a,
        &rx_a,
    );
    // B cannot see A's job id…
    assert!(!client_b.cancel(1), "cross-connection cancel must fail");
    // …and can use the same id for its own job.
    let small = workload(80);
    client_b.handle_frame(
        Frame::Submit(request(1, EngineSel::Serial, 500, 2, &small)),
        &tx_b,
    );
    let sb = wait_done(&rx_b, 1);
    assert!(!sb.cancelled, "B's id=1 job is independent of A's");

    // A's own cancel still works.
    assert!(client_a.cancel(1));
    let sa = wait_done(&rx_a, 1);
    assert!(sa.cancelled);
    server.shutdown();
}

/// The timeout watchdog cancels an iteration-budgeted job that
/// overruns the server's wall cap.
#[test]
fn watchdog_times_out_runaway_jobs() {
    let big = workload(400);
    let server = Server::start(ServeOpts {
        worker_budget: 1,
        max_time_ms: 200, // tight wall cap
        ..Default::default()
    });
    let handle = server.handle();
    let (tx, rx) = bounded(4096);
    submit_and_wait_running(
        &handle,
        request(1, EngineSel::Serial, u64::MAX / 2, 4, &big),
        &tx,
        &rx,
    );
    let s = wait_done(&rx, 1);
    assert!(s.cancelled, "watchdog must cancel the overrunning job");
    assert!(circuits_equivalent(
        &big,
        &qasm::from_qasm(&s.qasm).unwrap(),
        1e-4
    ));
    server.shutdown();
}

/// A client that vanishes (reply channel dropped) cancels its jobs and
/// frees the pool for other clients.
#[test]
fn disconnected_client_frees_its_slots() {
    let big = workload(400);
    let server = Server::start(ServeOpts {
        worker_budget: 1,
        ..Default::default()
    });
    {
        let client = server.handle();
        let (tx, rx) = bounded(4);
        submit_and_wait_running(
            &client,
            request(1, EngineSel::Serial, u64::MAX / 2, 6, &big),
            &tx,
            &rx,
        );
        // Client disconnects: both channel halves drop here.
    }
    // A second client's job must eventually get the slot.
    let small = workload(80);
    let (tx2, rx2) = bounded(4096);
    server.handle().handle_frame(
        Frame::Submit(request(2, EngineSel::Serial, 600, 8, &small)),
        &tx2,
    );
    let s = wait_done(&rx2, 2);
    assert!(!s.cancelled);
    server.shutdown();
}
