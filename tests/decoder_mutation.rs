//! Mutation fuzzing of the decoders on the service boundary: QASM
//! (`qasm::from_qasm`), CD1 deltas (`CircuitDelta::decode`, then
//! `apply` to the delta's base when it decodes), protocol frames
//! (`Frame::parse`), `QCERT1` certificates (`Certificate::decode`, then
//! the seeding and rebase the EDIT path runs on one), job journals
//! (`qserve::journal::replay`) and `QCSNAP1` cache snapshots
//! (`QCache::load_snapshot`). Each case takes a valid seed input —
//! journals and snapshots as written by a real server and cache —
//! applies 1–5 byte edits drawn from the decoders' own punctuation,
//! digits and letters (any byte for the binary snapshot), and requires
//! the call to return — `Ok` or `Err`, never a panic.

use crossbeam_channel::bounded;
use proptest::collection::vec;
use proptest::prelude::*;
use qcache::{fingerprint, QCache, QCacheOpts};
use qcert::{CertMap, Certificate, Stamp, CERT_PAD};
use qcir::delta::CircuitDelta;
use qcir::{qasm, Circuit, Gate, GateSet, Patch};
use qserve::{journal, EngineSel, Frame, JobRequest, Objective, ServeOpts, Server};
use std::path::PathBuf;
use std::sync::OnceLock;

/// Bytes the edits insert or substitute.
const ALPHABET: &[u8] = b"[](),;:-+@.0123456789 eqhcxz=";

/// Cases per decoder.
const CASES: u32 = 30_000;

/// One byte edit: `((kind, alphabet index), position, second position)`.
type Edit = ((u8, usize), usize, usize);

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    let at = || 0usize..1 << 20;
    vec(((0u8..4, 0usize..ALPHABET.len()), at(), at()), 1..6)
}

/// Bytes the edits insert into journals and certificates: [`ALPHABET`]
/// plus line breaks and the letters of their keywords.
const LINE_ALPHABET: &[u8] = b"[](),;:-+@.0123456789 eqhcxz=\n\rQCERTSUBMITNAPHOLDbugts";

/// Every byte value, for the binary snapshot format.
const ALL_BYTES: [u8; 256] = {
    let mut b = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        b[i] = i as u8;
        i += 1;
    }
    b
};

/// Cases per file-backed decoder (journal, snapshot).
const FILE_CASES: u32 = 3_000;

/// Edits whose symbol indexes an alphabet of `len` bytes.
fn edits_over(len: usize) -> impl Strategy<Value = Vec<Edit>> {
    let at = || 0usize..1 << 20;
    vec(((0u8..4, 0usize..len), at(), at()), 1..6)
}

/// Applies `edits` to `seed`: delete a byte, swap two bytes, insert an
/// alphabet byte, or replace a byte with one.
fn mutate(seed: &str, edits: &[Edit]) -> String {
    let b = mutate_bytes(seed.as_bytes(), edits, ALPHABET);
    // Seeds and alphabet are ASCII, so any edit sequence stays UTF-8.
    String::from_utf8(b).expect("ASCII edits keep UTF-8")
}

/// [`mutate`] over raw bytes and any alphabet.
fn mutate_bytes(seed: &[u8], edits: &[Edit], alphabet: &[u8]) -> Vec<u8> {
    let mut b = seed.to_vec();
    for &((kind, sym), at, other) in edits {
        let sym = alphabet[sym];
        match kind {
            2 => b.insert(at % (b.len() + 1), sym),
            _ if b.is_empty() => b.push(sym),
            0 => {
                b.remove(at % b.len());
            }
            1 => {
                let n = b.len();
                b.swap(at % n, other % n);
            }
            _ => {
                let i = at % b.len();
                b[i] = sym;
            }
        }
    }
    b
}

fn fixture() -> Circuit {
    qasm::from_qasm(include_str!("fixtures/param_zoo.qasm")).expect("fixture parses")
}

/// A real delta: the fixture with one gate replaced by two and another
/// dropped.
fn fixture_delta() -> String {
    let base = fixture();
    let mut edited = Circuit::new(base.num_qubits());
    for (i, ins) in base.iter().enumerate() {
        if i == 2 {
            edited.push(Gate::Rz(0.25), &[1]);
            edited.push(Gate::Cx, &[2, 0]);
        } else if i != 4 {
            edited.push_instruction(*ins);
        }
    }
    CircuitDelta::diff(&base, &edited).encode()
}

/// One encoded frame per client verb.
fn client_frames() -> Vec<String> {
    let submit = JobRequest {
        id: 7,
        engine: EngineSel::Sharded(2),
        iters: 4000,
        time_ms: 0,
        seed: 11,
        eps: 1e-8,
        objective: Objective::GateCount,
        overwrite: false,
        certify: true,
        qasm: qasm::to_qasm_line(&fixture()),
    };
    [
        Frame::Hello { version: 2 },
        Frame::Submit(submit),
        Frame::Cancel { id: 7 },
        Frame::Resume { id: 7 },
        Frame::Edit {
            id: 7,
            delta: fixture_delta(),
        },
        Frame::Health,
        Frame::Stats,
        Frame::Shutdown,
    ]
    .iter()
    .map(|f| f.encode().trim_end().to_string())
    .collect()
}

/// A real certificate: three stamps over a 40-gate circuit.
fn certificate() -> String {
    let stamp = |lo, hi, budget| Stamp { lo, hi, budget };
    Certificate {
        budget: 8,
        total_gates: 40,
        stamps: vec![stamp(0, 4, 8), stamp(10, 14, 8), stamp(20, 31, 16)],
    }
    .encode()
}

/// An empty scratch directory of this process, whatever an earlier or
/// concurrent run left behind.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("decoder-mutation-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A circuit of cancelling pairs: every cancellation is an improvement.
fn redundant() -> Circuit {
    let mut c = Circuit::new(3);
    for k in 0..12 {
        let (a, b) = (k % 3, (k + 1) % 3);
        c.push(Gate::H, &[a]);
        c.push(Gate::H, &[a]);
        c.push(Gate::Cx, &[a, b]);
        c.push(Gate::Cx, &[a, b]);
        c.push(Gate::T, &[b]);
    }
    c
}

/// The journal a journaled server writes for one finished job on
/// [`redundant`] (checkpoints every two improvements, so it holds
/// SUBMIT, SNAPSHOT, DELTA and DONE lines).
fn journal_seed() -> &'static [u8] {
    static SEED: OnceLock<Vec<u8>> = OnceLock::new();
    SEED.get_or_init(|| {
        let dir = scratch_dir("journal-seed");
        let server = Server::start(ServeOpts {
            worker_budget: 1,
            cache_gates: 0,
            checkpoint_every: 2,
            resynth_probability: Some(0.0),
            journal_dir: Some(dir.clone()),
            ..Default::default()
        });
        let (tx, rx) = bounded(1024);
        let request = JobRequest {
            id: 1,
            engine: EngineSel::Serial,
            iters: 400,
            time_ms: 0,
            seed: 5,
            eps: 1e-8,
            objective: Objective::GateCount,
            overwrite: true,
            certify: false,
            qasm: qasm::to_qasm_line(&redundant()),
        };
        server.handle().handle_frame(Frame::Submit(request), &tx);
        loop {
            match rx.recv().expect("server answers") {
                Frame::Done(_) => break,
                Frame::Error { message, .. } => panic!("job failed: {message}"),
                _ => {}
            }
        }
        server.shutdown();
        let bytes = std::fs::read(journal::journal_path(&dir, 1)).expect("journal written");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

/// The snapshot a cache holding four 2-qubit replacements and one
/// known failure saves.
fn snapshot_seed() -> &'static [u8] {
    static SEED: OnceLock<Vec<u8>> = OnceLock::new();
    SEED.get_or_init(|| {
        let cache = QCache::new(QCacheOpts::default());
        for k in 0..4 {
            let mut c = Circuit::new(2);
            c.push(Gate::Rz(0.3 + 0.7 * k as f64), &[0]);
            c.push(Gate::Cx, &[0, 1]);
            c.push(Gate::H, &[1]);
            let u = c.unitary();
            cache.insert(fingerprint(&u, GateSet::Nam), &c, u);
        }
        let mut hard = Circuit::new(2);
        hard.push(Gate::Rz(2.9), &[0]);
        hard.push(Gate::Cx, &[1, 0]);
        cache.insert_failure(fingerprint(&hard.unitary(), GateSet::Nam), 1e-9, 2);
        let dir = scratch_dir("snapshot-seed");
        let path = dir.join("cache.qcs");
        cache.save_snapshot(&path).expect("snapshot saved");
        let bytes = std::fs::read(&path).expect("snapshot written");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn mutated_certificate_never_panics(edits in edits_over(LINE_ALPHABET.len())) {
        let text = mutate_bytes(certificate().as_bytes(), &edits, LINE_ALPHABET);
        let text = String::from_utf8(text).expect("ASCII edits keep UTF-8");
        if let Ok(cert) = Certificate::decode(&text) {
            // What EDIT does with a decoded side file.
            let edit = Patch::new(vec![2], Vec::new(), 2);
            let rebased = cert.rebase(std::slice::from_ref(&edit), CERT_PAD);
            let _ = CertMap::seed(rebased.total_gates, &rebased);
        }
    }

    #[test]
    fn mutated_qasm_never_panics(edits in edits()) {
        let seed = qasm::to_qasm_line(&fixture());
        let _ = qasm::from_qasm(&mutate(&seed, &edits));
    }

    #[test]
    fn mutated_delta_never_panics(edits in edits()) {
        if let Ok(delta) = CircuitDelta::decode(&mutate(&fixture_delta(), &edits)) {
            let _ = delta.apply(&mut fixture());
        }
    }

    #[test]
    fn mutated_frame_never_panics(verb in 0usize..8, edits in edits()) {
        let _ = Frame::parse(&mutate(&client_frames()[verb], &edits));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(FILE_CASES))]

    #[test]
    fn mutated_journal_never_panics(edits in edits_over(LINE_ALPHABET.len())) {
        let dir = scratch_dir("journal");
        let bytes = mutate_bytes(journal_seed(), &edits, LINE_ALPHABET);
        std::fs::write(journal::journal_path(&dir, 1), bytes).expect("journal written");
        let _ = journal::replay(&dir, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mutated_snapshot_never_panics(edits in edits_over(ALL_BYTES.len())) {
        let dir = scratch_dir("snapshot");
        let path = dir.join("cache.qcs");
        std::fs::write(&path, mutate_bytes(snapshot_seed(), &edits, &ALL_BYTES))
            .expect("snapshot written");
        let _ = QCache::new(QCacheOpts::default()).load_snapshot(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The seeds themselves are valid, so every mutation starts one to five
/// edits away from an accepted input.
#[test]
fn seeds_decode() {
    assert!(qasm::from_qasm(&qasm::to_qasm_line(&fixture())).is_ok());
    let delta = CircuitDelta::decode(&fixture_delta()).unwrap();
    assert!(delta.apply(&mut fixture()).is_ok());
    for line in client_frames() {
        assert!(Frame::parse(&line).is_ok(), "{line}");
    }
    assert_eq!(Certificate::decode(&certificate()).unwrap().stamps.len(), 3);

    let dir = scratch_dir("seeds");
    std::fs::write(journal::journal_path(&dir, 1), journal_seed()).unwrap();
    let replayed = journal::replay(&dir, 1).expect("journal replays");
    assert!(replayed.finished.is_some());
    let text = String::from_utf8(journal_seed().to_vec()).unwrap();
    for kind in ["SUBMIT ", "SNAPSHOT ", "DELTA ", "DONE "] {
        assert!(text.lines().any(|l| l.starts_with(kind)), "no {kind}line");
    }
    let path = dir.join("cache.qcs");
    std::fs::write(&path, snapshot_seed()).unwrap();
    let loaded = QCache::new(QCacheOpts::default())
        .load_snapshot(&path)
        .unwrap();
    assert_eq!((loaded.records, loaded.skipped), (5, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
