//! One process survives its input: QASM payloads and an `EDIT` delta
//! that reach the decoders' known crash sites, and QASM the reader
//! cannot keep whole, get a typed `ERROR code=bad-request` for their
//! own job id, no `ACCEPTED`, and the session keeps serving — the job
//! submitted before them and one submitted after every bad frame both
//! reach `DONE`.

mod util;

use crossbeam_channel::{bounded, Receiver};
use qserve::{pump_stream, EngineSel, Frame, ServeOpts, Server};
use std::collections::HashMap;
use util::{recv, request, wait_done, workload};

/// SUBMIT payloads that reach each known crash site of the QASM
/// reader: a backwards `qreg` slice, a repeated operand, a width that
/// exhausts memory, and two argument nestings that overflow the stack.
/// Then three it once misread: a `measure` between two H gates (read
/// without it, the job was served as an empty circuit), a `barrier`,
/// and an operand on an undeclared register.
fn poison_payloads() -> Vec<String> {
    let doc = |body: &str| format!("OPENQASM 2.0; include \"qelib1.inc\"; {body}");
    vec![
        doc("qreg q]2[;"),
        doc("qreg q[2]; cx q[0], q[0];"),
        doc("qreg q[4000000000];"),
        doc(&format!(
            "qreg q[1]; rz({}1{}) q[0];",
            "(".repeat(200_000),
            ")".repeat(200_000)
        )),
        doc(&format!("qreg q[1]; rz({}1) q[0];", "-".repeat(400_000))),
        doc("qreg q[1]; creg c[1]; h q[0]; measure q[0] -> c[0]; h q[0];"),
        doc("qreg q[2]; h q[0]; barrier q[0], q[1]; h q[0];"),
        doc("qreg q[2]; h r[0];"),
    ]
}

/// The id after the last poison SUBMIT.
fn last_poison_id() -> u64 {
    1 + poison_payloads().len() as u64
}

fn server(journal_dir: Option<std::path::PathBuf>) -> Server {
    Server::start(ServeOpts {
        worker_budget: 2,
        cache_gates: 0,
        // Rewrite-only keeps the valid jobs quick in debug builds.
        resynth_probability: Some(0.0),
        journal_dir,
        ..Default::default()
    })
}

fn frame_id(frame: &Frame) -> u64 {
    match frame {
        Frame::Accepted { id, .. }
        | Frame::Snapshot { id, .. }
        | Frame::Delta { id, .. }
        | Frame::Certified { id, .. }
        | Frame::Error { id, .. } => *id,
        Frame::Done(s) => s.id,
        _ => 0,
    }
}

/// Asserts that each poison id got exactly one frame, a `bad-request`
/// ERROR.
fn assert_rejected(by_id: &HashMap<u64, Vec<Frame>>, ids: std::ops::RangeInclusive<u64>) {
    for id in ids {
        match by_id.get(&id).map(Vec::as_slice) {
            Some([Frame::Error { code, .. }]) => assert_eq!(code, "bad-request", "job {id}"),
            other => panic!("job {id}: expected one bad-request ERROR, got {other:?}"),
        }
    }
}

/// The stdio path byte for byte: one stream carries a valid job, the
/// poison SUBMITs and a second valid job.
#[test]
fn poison_submits_get_typed_errors_and_the_stream_keeps_serving() {
    let input = workload(60);
    let mut lines = String::new();
    lines += &Frame::Submit(request(1, EngineSel::Serial, 400, 7, &input)).encode();
    for (id, qasm) in (2..).zip(poison_payloads()) {
        let mut req = request(id, EngineSel::Serial, 400, 7, &input);
        req.qasm = qasm;
        lines += &Frame::Submit(req).encode();
    }
    let after = last_poison_id() + 1;
    lines += &Frame::Submit(request(after, EngineSel::Serial, 400, 8, &input)).encode();

    let server = server(None);
    let out = pump_stream(lines.as_bytes(), Vec::new(), &server).expect("stream");
    server.shutdown();

    let mut by_id: HashMap<u64, Vec<Frame>> = HashMap::new();
    for line in String::from_utf8(out).unwrap().lines() {
        let frame = Frame::parse(line).expect("server frames parse");
        by_id.entry(frame_id(&frame)).or_default().push(frame);
    }
    assert_rejected(&by_id, 2..=last_poison_id());
    for id in [1, after] {
        let frames = &by_id[&id];
        assert!(matches!(frames.first(), Some(Frame::Accepted { .. })));
        match frames.last() {
            Some(Frame::Done(s)) => assert!(!s.cancelled, "job {id} was cancelled"),
            other => panic!("job {id}: expected DONE last, got {other:?}"),
        }
    }
}

/// Drains frames until `id`'s DONE, then whatever is already queued
/// behind it, grouping everything by job id.
fn drain_until_done(rx: &Receiver<Frame>, id: u64) -> HashMap<u64, Vec<Frame>> {
    let mut by_id: HashMap<u64, Vec<Frame>> = HashMap::new();
    loop {
        let frame = recv(rx);
        let done = matches!(&frame, Frame::Done(s) if s.id == id);
        by_id.entry(frame_id(&frame)).or_default().push(frame);
        if done {
            break;
        }
    }
    while let Ok(frame) = rx.try_recv() {
        by_id.entry(frame_id(&frame)).or_default().push(frame);
    }
    by_id
}

/// A journaled v2 session: the poison SUBMITs follow job 1's SUBMIT,
/// then a reversed-parenthesis `EDIT` targets the finished job 1.
#[test]
fn journaled_session_survives_poison_submits_and_a_bad_edit() {
    let dir = std::env::temp_dir().join(format!("qserve-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let input = workload(60);
    let server = server(Some(dir.clone()));
    let handle = server.handle();
    let (tx, rx) = bounded(4096);
    handle.handle_frame(Frame::Hello { version: 2 }, &tx);
    assert_eq!(recv(&rx), Frame::Hello { version: 2 });

    handle.handle_frame(
        Frame::Submit(request(1, EngineSel::Serial, 400, 7, &input)),
        &tx,
    );
    for (id, qasm) in (2..).zip(poison_payloads()) {
        let mut req = request(id, EngineSel::Serial, 400, 7, &input);
        req.qasm = qasm;
        handle.handle_frame(Frame::Submit(req), &tx);
    }
    let by_id = drain_until_done(&rx, 1);
    assert_rejected(&by_id, 2..=last_poison_id());

    handle.handle_frame(
        Frame::Edit {
            id: 1,
            delta: "CD1 b=0 n=1 -@0+h)(:0".into(),
        },
        &tx,
    );
    match recv(&rx) {
        Frame::Error { id, code, .. } => {
            assert_eq!(id, 1);
            assert_eq!(code, "bad-request");
        }
        other => panic!("expected ERROR for the bad EDIT, got {other:?}"),
    }

    let after = last_poison_id() + 1;
    handle.handle_frame(
        Frame::Submit(request(after, EngineSel::Serial, 400, 8, &input)),
        &tx,
    );
    assert!(!wait_done(&rx, after).cancelled);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
