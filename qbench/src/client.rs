//! Closed-loop protocol-v2 clients against an in-process `qserve`
//! server.
//!
//! Every frame in either direction goes through [`Frame::encode`] and
//! [`Frame::parse`], so the wire codec is on the measured path. Each
//! client submits its next job when the previous job's `DONE` arrives.
//!
//! A finished job keeps only numbers in memory. Its SNAPSHOT/DELTA
//! stream and DONE circuit go to a [`Transcripts`] file, which the
//! correctness gate reads back after the timed window, so the harness's
//! memory does not grow with the number of jobs completed.

use crate::stats::{cost_at, fnv1a, FNV_SEED};
use crate::workload::{Job, JOB_EPS};
use crossbeam_channel::{bounded, Receiver, Sender};
use qcir::{qasm, Circuit, CircuitDelta};
use qserve::{Frame, JobRequest, JobSummary, Objective, Server, ServerHandle};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Reply-channel capacity: large enough that the server never drops an
/// improvement frame for lack of room, so the stream replays exactly.
const REPLY_CAPACITY: usize = 1 << 16;

/// How long a client waits for the next frame before giving up on a job.
const FRAME_TIMEOUT: Duration = Duration::from_secs(120);

/// What one submitted job came to, as the client saw it.
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    /// Index into the workload's job stream.
    pub index: usize,
    /// SUBMIT → DONE (or ERROR), seconds, on the client's clock.
    pub latency_s: f64,
    /// When the terminal frame arrived, seconds after the run started.
    pub end_s: f64,
    /// Cost of the input, from the job's first SNAPSHOT.
    pub input_cost: f64,
    /// Best cost at the workload's horizon T after job start, read from
    /// the improvement frames' `seconds`.
    pub cost_at_t: f64,
    /// Improvement frames after the input snapshot.
    pub improvements: usize,
    /// The terminal summary, its QASM moved to the transcript; `None`
    /// when the job ended in ERROR.
    pub done: Option<JobSummary>,
    /// Why the job failed on the wire (ERROR frame, stream violation).
    pub error: Option<String>,
    /// The transcript holding the job's stream and DONE circuit.
    pub transcript: Option<usize>,
    /// Frames exchanged for this job, both directions.
    pub frames: u64,
    /// Encoded bytes exchanged for this job, both directions.
    pub wire_bytes: u64,
    /// Traced runs only: nanoseconds spent encoding and parsing frames.
    pub codec_ns: u64,
    /// Traced runs only: nanoseconds applying DELTA frames, and how many.
    pub delta_apply: (u64, u64),
}

/// Job transcripts on disk, one file each: the last full SNAPSHOT's
/// QASM, the DELTA payloads after it, then the DONE QASM, one per line.
/// Identical transcripts of the same input are written once. The
/// directory is removed on drop.
pub struct Transcripts {
    dir: PathBuf,
    /// Hash of (input, transcript) → transcript id.
    seen: Mutex<HashMap<u64, usize>>,
}

impl Transcripts {
    /// An empty store in `dir`, created afresh.
    pub fn create(dir: PathBuf) -> Result<Transcripts, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Transcripts {
            dir,
            seen: Mutex::new(HashMap::new()),
        })
    }

    fn path(&self, id: usize) -> PathBuf {
        self.dir.join(format!("{id}.txt"))
    }

    /// Stores the transcript `text` of a job on `input`; returns its id.
    fn store(&self, input: &str, text: &str) -> Result<usize, String> {
        let key = fnv1a(text.as_bytes(), fnv1a(input.as_bytes(), FNV_SEED));
        let mut seen = self.seen.lock().expect("transcript lock");
        let next = seen.len();
        let id = *seen.entry(key).or_insert(next);
        if id == next {
            std::fs::write(self.path(id), text).map_err(|e| format!("transcript: {e}"))?;
        }
        Ok(id)
    }

    /// Reads transcript `id` back.
    pub fn read(&self, id: usize) -> Result<String, String> {
        std::fs::read_to_string(self.path(id)).map_err(|e| format!("transcript {id}: {e}"))
    }
}

impl Drop for Transcripts {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// How a closed loop records its jobs.
#[derive(Clone, Copy)]
pub struct Recording<'a> {
    /// Where finished jobs' transcripts go; `None` keeps none.
    pub transcripts: Option<&'a Transcripts>,
    /// The `cost_at_t` horizon T, seconds after job start.
    pub horizon_s: f64,
    /// Whether the harness's own timers are on.
    pub traced: bool,
}

/// Result of one closed-loop run.
pub struct LoopRun {
    /// Every submitted job, ordered by stream index.
    pub records: Vec<JobRecord>,
    /// First SUBMIT to last terminal frame, seconds.
    pub wall_s: f64,
    /// When the first SUBMIT went out; `end_s` counts from it.
    pub epoch: Instant,
}

/// One client connection: its scoped handle and reply channel.
struct Conn<'a> {
    handle: ServerHandle,
    tx: Sender<Frame>,
    rx: Receiver<Frame>,
    rec: Recording<'a>,
}

impl<'a> Conn<'a> {
    fn open(server: &Server, rec: Recording<'a>) -> Result<Conn<'a>, String> {
        let (tx, rx) = bounded(REPLY_CAPACITY);
        let conn = Conn {
            handle: server.handle(),
            tx,
            rx,
            rec,
        };
        let mut scratch = JobRecord::default();
        conn.send(Frame::Hello { version: 2 }, &mut scratch)?;
        match conn.recv(&mut scratch)? {
            Frame::Hello { version: 2 } => Ok(conn),
            other => Err(format!("HELLO not answered with version 2: {other:?}")),
        }
    }

    /// Client → server through the codec.
    fn send(&self, frame: Frame, rec: &mut JobRecord) -> Result<(), String> {
        let parsed = self.through_codec(&frame, rec)?;
        self.handle.handle_frame(parsed, &self.tx);
        Ok(())
    }

    /// Server → client through the codec.
    fn recv(&self, rec: &mut JobRecord) -> Result<Frame, String> {
        let frame = self
            .rx
            .recv_timeout(FRAME_TIMEOUT)
            .map_err(|_| "no frame from the server within the timeout".to_string())?;
        self.through_codec(&frame, rec)
    }

    /// Encodes `frame` to its wire line and parses it back, counting the
    /// frame and its bytes (and, when traced, the codec time) on `rec`.
    fn through_codec(&self, frame: &Frame, rec: &mut JobRecord) -> Result<Frame, String> {
        let t = self.rec.traced.then(Instant::now);
        let line = frame.encode();
        let parsed = Frame::parse(line.trim_end_matches('\n')).map_err(|e| e.to_string())?;
        if let Some(t) = t {
            rec.codec_ns += t.elapsed().as_nanos() as u64;
        }
        rec.frames += 1;
        rec.wire_bytes += line.len() as u64;
        Ok(parsed)
    }

    /// Submits `job` as stream entry `index` and follows it to its
    /// terminal frame.
    fn run_job(&self, job: &Job, index: usize, epoch: Instant) -> JobRecord {
        let mut rec = JobRecord {
            index,
            ..JobRecord::default()
        };
        let id = index as u64 + 1;
        let submit = Frame::Submit(JobRequest {
            id,
            engine: job.engine,
            iters: job.iters,
            time_ms: 0,
            seed: job.seed,
            eps: JOB_EPS,
            objective: Objective::GateCount,
            overwrite: false,
            certify: false,
            qasm: job.qasm.to_string(),
        });
        let started = Instant::now();
        if let Err(e) = self.follow(submit, id, &job.qasm, &mut rec) {
            rec.error = Some(e);
        }
        rec.latency_s = started.elapsed().as_secs_f64();
        rec.end_s = epoch.elapsed().as_secs_f64();
        rec
    }

    fn follow(
        &self,
        submit: Frame,
        id: u64,
        input: &str,
        rec: &mut JobRecord,
    ) -> Result<(), String> {
        self.send(submit, rec)?;
        let mut last_seq = 0u64;
        // `(seconds, cost)` of every improvement frame, in stream order
        // (the first is the input snapshot at 0 s).
        let mut points: Vec<(f64, f64)> = Vec::new();
        // The last full SNAPSHOT, the DELTA payloads after it, and (when
        // traced) the circuit rebuilt from them as they arrive.
        let mut base = String::new();
        let mut deltas: Vec<String> = Vec::new();
        let mut rebuilt: Option<Circuit> = None;
        loop {
            match self.recv(rec)? {
                Frame::Accepted { .. } => {}
                Frame::Snapshot {
                    id: fid,
                    cost,
                    seconds,
                    qasm: text,
                    ..
                } if fid == id => {
                    points.push((seconds, cost));
                    if self.rec.traced {
                        rebuilt = Some(
                            qasm::from_qasm(&text).map_err(|e| format!("snapshot qasm: {e}"))?,
                        );
                    }
                    base = text;
                    deltas.clear();
                }
                Frame::Delta {
                    id: fid,
                    seq,
                    cost,
                    seconds,
                    delta,
                    ..
                } if fid == id => {
                    if seq != last_seq + 1 {
                        return Err(format!("delta seq gap: {last_seq} → {seq}"));
                    }
                    last_seq = seq;
                    points.push((seconds, cost));
                    if let Some(current) = rebuilt.as_mut() {
                        let t = Instant::now();
                        CircuitDelta::decode(&delta)
                            .and_then(|d| d.apply(current))
                            .map_err(|e| format!("delta {seq}: {e}"))?;
                        rec.delta_apply.0 += t.elapsed().as_nanos() as u64;
                        rec.delta_apply.1 += 1;
                    }
                    deltas.push(delta);
                }
                Frame::Done(mut summary) if summary.id == id => {
                    let &(_, input_cost) = points.first().ok_or("no SNAPSHOT")?;
                    if points.windows(2).any(|w| w[1].1 >= w[0].1) {
                        return Err("improvement stream is not strictly decreasing".into());
                    }
                    let streamed = points.last().map_or(input_cost, |p| p.1);
                    if streamed != summary.cost {
                        return Err(format!(
                            "stream ends at cost {streamed}, DONE says {}",
                            summary.cost
                        ));
                    }
                    rec.input_cost = input_cost;
                    rec.cost_at_t = cost_at(&points, input_cost, self.rec.horizon_s);
                    rec.improvements = points.len() - 1;
                    if let Some(store) = self.rec.transcripts {
                        let mut text = base;
                        for d in &deltas {
                            text.push('\n');
                            text.push_str(d);
                        }
                        text.push('\n');
                        text.push_str(&summary.qasm);
                        rec.transcript = Some(store.store(input, &text)?);
                    }
                    summary.qasm = String::new();
                    rec.done = Some(summary);
                    return Ok(());
                }
                Frame::Error {
                    id: fid, message, ..
                } if fid == id || fid == 0 => {
                    return Err(format!("ERROR: {message}"));
                }
                other => return Err(format!("unexpected frame {other:?}")),
            }
        }
    }
}

/// Runs `clients` closed-loop clients over `jobs` (taken in order,
/// cycling) until `deadline` after the start, then waits for the jobs in
/// flight. Stream entry `i` is submitted as job id `i + 1`, so ids are
/// unique across clients.
pub fn closed_loop(
    server: &Server,
    jobs: &[Job],
    clients: usize,
    deadline: Duration,
    recording: Recording,
) -> Result<LoopRun, String> {
    let conns = (0..clients)
        .map(|_| Conn::open(server, recording))
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicUsize::new(0);
    let epoch = Instant::now();
    let mut records: Vec<JobRecord> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter()
            .map(|conn| {
                let next = &next;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    while epoch.elapsed() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        mine.push(conn.run_job(&jobs[index % jobs.len()], index, epoch));
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    records.sort_by_key(|r| r.index);
    let wall_s = records.iter().map(|r| r.end_s).fold(0.0, f64::max);
    Ok(LoopRun {
        records,
        wall_s,
        epoch,
    })
}

/// One `STATS` round trip on a fresh connection.
pub fn stats(server: &Server) -> Result<qserve::StatsSnapshot, String> {
    let conn = Conn::open(
        server,
        Recording {
            transcripts: None,
            horizon_s: 0.0,
            traced: true,
        },
    )?;
    let mut scratch = JobRecord::default();
    conn.send(Frame::Stats, &mut scratch)?;
    match conn.recv(&mut scratch)? {
        Frame::StatsReply(s) => Ok(s),
        other => Err(format!("STATS answered with {other:?}")),
    }
}
