//! Shared helpers for the qserve integration tests (each test file is
//! its own crate, so not every item is used everywhere).
#![allow(dead_code)]

use crossbeam_channel::Receiver;
use qcir::{qasm, Circuit, Gate};
use qserve::{EngineSel, Frame, JobRequest, JobSummary, Objective};
use std::path::Path;
use std::time::Duration;

/// A redundancy-rich workload on 6 qubits — small enough for dense
/// unitary equivalence, large enough to split into several shards.
pub fn workload(len: usize) -> Circuit {
    const Q: u32 = 6;
    let mut c = Circuit::new(Q as usize);
    let mut base = 0u32;
    let mut tile = 0u32;
    while c.len() + 8 <= len {
        let a = base % Q;
        let b = (base + 1) % Q;
        c.push(Gate::Cx, &[a, b]);
        c.push(Gate::Rz(0.3 + f64::from(tile % 5) * 0.1), &[a]);
        c.push(Gate::H, &[b]);
        c.push(Gate::Cx, &[a, b]);
        c.push(Gate::H, &[b]);
        c.push(Gate::T, &[a]);
        if tile % 3 == 2 {
            c.push(Gate::X, &[b]);
            c.push(Gate::X, &[b]);
        }
        base = base.wrapping_add(2);
        tile += 1;
    }
    c
}

/// A gate-count job request with the test defaults (`eps = 1e-6`).
pub fn request(id: u64, engine: EngineSel, iters: u64, seed: u64, circuit: &Circuit) -> JobRequest {
    JobRequest {
        id,
        engine,
        iters,
        time_ms: 0,
        seed,
        eps: 1e-6,
        objective: Objective::GateCount,
        overwrite: false,
        certify: false,
        qasm: qasm::to_qasm_line(circuit),
    }
}

/// Receives one frame (or panics after 120 s — generous for a loaded
/// 1-CPU CI host).
pub fn recv(rx: &Receiver<Frame>) -> Frame {
    rx.recv_timeout(Duration::from_secs(120))
        .expect("timed out waiting for a frame")
}

/// Drains frames until the given job's `DONE`.
pub fn wait_done(rx: &Receiver<Frame>, id: u64) -> JobSummary {
    loop {
        if let Frame::Done(s) = recv(rx) {
            assert_eq!(s.id, id);
            return s;
        }
    }
}

/// A seeded SplitMix64 stream for fault injection: deterministic, so a
/// failing fuzz run replays exactly from its seed.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// A stream seeded by `seed` (two equal seeds replay identically).
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut x = self.state;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
        x ^ (x >> 31)
    }

    /// Uniform draw in `0..n` (`0` for `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// Truncates `path` to `keep` bytes (no-op if the file is already
/// shorter) — the "crash mid-append" journal fault.
pub fn truncate_file(path: &Path, keep: u64) -> std::io::Result<()> {
    let f = std::fs::OpenOptions::new().write(true).open(path)?;
    if f.metadata()?.len() > keep {
        f.set_len(keep)?;
    }
    f.sync_all()
}
