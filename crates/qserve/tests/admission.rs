//! Work-conserving admission: a queue head wider than the free slots
//! starts at once on the slots that are free, serves the circuit its
//! full width would have served, and gives back exactly the slots it
//! was granted.

mod util;

use crossbeam_channel::bounded;
use guoq::cost::GateCount;
use guoq::{Budget, Engine, Guoq, GuoqOpts};
use qcir::{qasm, GateSet};
use qserve::{EngineSel, Frame, ServeOpts, Server};
use std::time::{Duration, Instant};
use util::{recv, request, wait_done, workload};

const PARTIAL_GRANTS: &str = "qserve_partial_grants_total";

#[test]
fn wide_job_starts_at_once_on_the_free_slot() {
    let partial_before = qtrace::counter_value(PARTIAL_GRANTS).unwrap_or(0.0);
    let big = workload(400);
    let small = workload(240);
    let server = Server::start(ServeOpts {
        worker_budget: 2,
        // Job 2 is compared bit for bit against a cacheless direct run.
        cache_gates: 0,
        // Job 1 runs until it is cancelled, never by the wall cap.
        max_time_ms: 600_000,
        ..Default::default()
    });
    let handle = server.handle();
    let (tx, rx) = bounded(4096);

    // Job 1 holds one of the two slots until it is cancelled.
    handle.handle_frame(
        Frame::Submit(request(1, EngineSel::Serial, u64::MAX / 2, 1, &big)),
        &tx,
    );
    loop {
        match recv(&rx) {
            Frame::Snapshot { id: 1, .. } => break, // job 1 is running
            Frame::Error { message, .. } => panic!("job 1 rejected: {message}"),
            _ => {}
        }
    }

    // Job 2 asks for both slots while one is free: it starts now, on
    // one thread, and finishes while job 1 still holds the other slot.
    let (iters, seed) = (1500u64, 9u64);
    handle.handle_frame(
        Frame::Submit(request(2, EngineSel::Sharded(2), iters, seed, &small)),
        &tx,
    );
    let deadline = Instant::now() + Duration::from_secs(120);
    let done = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let frame = rx.recv_timeout(left).unwrap_or_else(|_| {
            // End job 1 first: the server's drop waits for it.
            handle.cancel(1);
            panic!("job 2 did not finish while job 1 held the other slot")
        });
        match frame {
            Frame::Done(s) => {
                assert_eq!(s.id, 2, "job 2 must finish while job 1 runs");
                break s;
            }
            Frame::Error { message, .. } => panic!("job 2 rejected: {message}"),
            _ => {}
        }
    };
    assert!(!done.cancelled);
    assert!(
        done.queue_ms < 1_000,
        "job 2 waited {} ms for a second slot",
        done.queue_ms
    );
    assert!(qtrace::counter_value(PARTIAL_GRANTS).unwrap_or(0.0) >= partial_before + 1.0);
    assert!(qtrace::render_prometheus()
        .lines()
        .any(|l| l.starts_with(&format!("{PARTIAL_GRANTS} "))));

    // Served on one thread ≡ the direct two-thread run.
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
    assert_eq!(qasm::from_qasm(&done.qasm).unwrap(), direct.circuit);
    assert_eq!(done.cost, direct.cost);
    assert_eq!(done.iterations, direct.iterations);
    assert_eq!(done.accepted, direct.accepted);

    // Each job returned exactly what it was granted.
    assert!(handle.cancel(1));
    assert!(wait_done(&rx, 1).cancelled);
    handle.handle_frame(Frame::Health, &tx);
    assert_eq!(recv(&rx), Frame::Healthy { live: 0, slots: 2 });
    server.shutdown();
}
