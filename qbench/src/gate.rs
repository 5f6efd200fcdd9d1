//! The correctness gate, run on every job after the timed window.
//!
//! A job passes when it finished without error or cancellation, its
//! improvement stream strictly decreased in cost down to the DONE cost
//! (the client checks that as the frames arrive), its reported ε is
//! within its budget, the circuit rebuilt from its SNAPSHOT/DELTA
//! transcript equals the DONE circuit, and the DONE circuit is
//! equivalent to the input: exactly up to 8 qubits
//! (`qsim::check_equivalence`), and on one Haar-random input state
//! beyond that.

use crate::client::{JobRecord, Transcripts};
use crate::workload::{Job, JOB_EPS};
use qcir::{qasm, Circuit, CircuitDelta};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Largest equivalence distance accepted. Float noise in a dense or
/// sampled check of a 30k-gate circuit stays orders of magnitude below
/// it; a wrong gate lands orders of magnitude above it.
pub const EQUIV_TOL: f64 = 1e-5;

/// Gate verdict over a run.
pub struct Verdict {
    /// Failure reason per record (same order), `None` when it passed.
    pub failures: Vec<Option<String>>,
    /// Largest equivalence distance measured.
    pub max_distance: f64,
    /// Distinct transcripts checked for stream replay and equivalence.
    pub equiv_checks: usize,
}

/// Widest circuit checked through dense unitaries.
const DENSE_QUBITS: usize = 8;

/// Equivalence distance of `out` to `input` up to global phase: the
/// exact Hilbert–Schmidt distance up to [`DENSE_QUBITS`] qubits, and
/// beyond that the phase-invariant distance of their outputs on one
/// Haar-random input state. One state is enough at this tolerance: a
/// wrong gate moves a random state by far more than [`EQUIV_TOL`], and
/// one state costs a quarter of `qsim`'s four on 30k-gate circuits.
fn distance(input: &Circuit, out: &Circuit, seed: u64) -> f64 {
    let n = input.num_qubits();
    if n <= DENSE_QUBITS {
        return qsim::check_equivalence(input, out, seed).distance();
    }
    let mut a = qmath::random::random_state(1 << n, &mut SmallRng::seed_from_u64(seed));
    let mut b = a.clone();
    input.apply_to_state(&mut a);
    out.apply_to_state(&mut b);
    qmath::statevec::state_distance(&a, &b)
}

/// The per-record checks; returns the record's transcript id.
fn check_record(rec: &JobRecord) -> Result<usize, String> {
    if let Some(e) = &rec.error {
        return Err(e.clone());
    }
    let done = rec.done.as_ref().ok_or("no DONE")?;
    if done.cancelled {
        return Err("cancelled".into());
    }
    if done.epsilon.is_nan() || done.epsilon > JOB_EPS {
        return Err(format!("ε {} exceeds the job's {JOB_EPS}", done.epsilon));
    }
    rec.transcript.ok_or_else(|| "no transcript".into())
}

/// Replays a transcript and checks its DONE circuit against the input;
/// returns the equivalence distance.
fn check_transcript(input: &str, text: &str, seed: u64) -> Result<f64, String> {
    let mut lines = text.lines();
    let base = lines.next().ok_or("empty transcript")?;
    let rest: Vec<&str> = lines.collect();
    let (done, deltas) = rest.split_last().ok_or("transcript has no DONE circuit")?;
    let mut rebuilt = qasm::from_qasm(base).map_err(|e| format!("snapshot qasm: {e}"))?;
    for d in deltas {
        CircuitDelta::decode(d)
            .and_then(|d| d.apply(&mut rebuilt))
            .map_err(|e| format!("delta replay: {e}"))?;
    }
    let out = qasm::from_qasm(done).map_err(|e| format!("DONE qasm: {e}"))?;
    if rebuilt != out {
        return Err("circuit rebuilt from the stream differs from the DONE circuit".into());
    }
    let input = qasm::from_qasm(input).map_err(|e| format!("input qasm: {e}"))?;
    if input.num_qubits() != out.num_qubits() {
        return Err("DONE circuit has a different width".into());
    }
    Ok(distance(&input, &out, seed))
}

/// Checks every record against its job, on `threads` threads. Each
/// distinct transcript is replayed and checked once: repeat traffic
/// returns the same stream many times.
pub fn check(
    jobs: &[Job],
    records: &[JobRecord],
    transcripts: &Transcripts,
    threads: usize,
) -> Verdict {
    let failures: Vec<Mutex<Option<String>>> = records.iter().map(|_| Mutex::new(None)).collect();
    let mut by_transcript: HashMap<usize, Vec<usize>> = HashMap::new();
    for (i, rec) in records.iter().enumerate() {
        match check_record(rec) {
            Ok(t) => by_transcript.entry(t).or_default().push(i),
            Err(e) => *failures[i].lock().expect("gate lock") = Some(e),
        }
    }
    let groups: Vec<(usize, Vec<usize>)> = by_transcript.into_iter().collect();
    let next = AtomicUsize::new(0);
    let max_distance = Mutex::new(0.0f64);
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(|| loop {
                let g = next.fetch_add(1, Ordering::Relaxed);
                let Some((transcript, group)) = groups.get(g) else {
                    break;
                };
                let rec = &records[group[0]];
                let verdict = transcripts.read(*transcript).and_then(|text| {
                    let input = &jobs[rec.index % jobs.len()].qasm;
                    let d = check_transcript(input, &text, 0x9A7E ^ rec.index as u64)?;
                    let mut m = max_distance.lock().expect("gate lock");
                    *m = m.max(d);
                    if d <= EQUIV_TOL {
                        Ok(())
                    } else {
                        Err(format!("DONE circuit is {d:e} from its input"))
                    }
                });
                if let Err(e) = verdict {
                    for &i in group {
                        *failures[i].lock().expect("gate lock") = Some(e.clone());
                    }
                }
            });
        }
    });
    Verdict {
        failures: failures
            .into_iter()
            .map(|m| m.into_inner().expect("gate lock"))
            .collect(),
        max_distance: max_distance.into_inner().expect("gate lock"),
        equiv_checks: groups.len(),
    }
}
