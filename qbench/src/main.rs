//! `qbench` — the end-to-end, layer-attributed GUOQ benchmark.
//!
//! One workload per run, through an in-process `qserve::Server` with
//! its default options (see `workload.rs` for where a workload departs
//! from them). Two closed-loop protocol-v2 clients submit iteration-
//! budgeted jobs for `--seconds`, then every job is checked for
//! correctness. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! repeats the workload with the harness's own timers on and prints
//! the per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path qbench/Cargo.toml -- \
//!     --workload nisq-fresh --seed 1 --seconds 30 --trace 0
//! ```

mod client;
mod gate;
mod layers;
mod probe;
mod stats;
mod workload;

use client::{closed_loop, Recording, Transcripts};
use layers::{metric, Metric};
use qserve::{ServeOpts, Server};
use stats::{fnv1a, geomean_ratio, median, tail, FNV_SEED};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::Workload;

/// Concurrent clients, and the server's worker budget.
const CLIENTS: usize = 2;

/// Set-ups per run; `setup_s` reports their median.
const SETUPS: usize = 3;

/// Scratch space for journals and the determinism ledger, relative to
/// the working directory.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} wants a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {:?}",
            workload::NAMES
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qbench: {e}");
            eprintln!("usage: qbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args, process_start) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("qbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn server_opts(wl: &Workload, journal: &Path) -> ServeOpts {
    ServeOpts {
        worker_budget: CLIENTS,
        gate_set: wl.set,
        journal_dir: wl.journal.then(|| journal.to_path_buf()),
        ..ServeOpts::default()
    }
}

/// Bytes of every file under `dir` (0 when it does not exist).
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`), in MiB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn provenance() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "nproc={nproc} commit={commit} profile={profile} qtrace_enabled={}",
        qtrace::enabled()
    )
}

/// Starts the server, with a fresh journal directory when the workload
/// journals. Returns the server and that directory.
fn set_up(wl: &Workload, k: usize) -> Result<(Server, PathBuf), String> {
    let journal = PathBuf::from(WORK_DIR).join(format!("journal-{}-{k}", std::process::id()));
    if wl.journal {
        let _ = std::fs::remove_dir_all(&journal);
        std::fs::create_dir_all(&journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    }
    Ok((Server::start(server_opts(wl, &journal)), journal))
}

/// A per-workload, per-seed file in the work directory that later runs
/// read back.
fn ledger(args: &Args, kind: &str, ext: &str) -> PathBuf {
    PathBuf::from(WORK_DIR).join(format!("{kind}-{}-{}.{ext}", args.workload, args.seed))
}

/// Compares this run's final costs with the previous run of the same
/// workload and seed in this directory (when its inputs hashed the
/// same), then records them.
fn determinism_canary(args: &Args, input_hash: u64, finals: &[(usize, f64)]) -> String {
    let path = ledger(args, "canary", "txt");
    let header = format!("inputs {input_hash:016x}");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let mut lines = text.lines();
    let previous: std::collections::HashMap<usize, &str> = if lines.next() == Some(header.as_str())
    {
        lines
            .filter_map(|l| l.split_once(' '))
            .filter_map(|(i, c)| Some((i.parse().ok()?, c)))
            .collect()
    } else {
        Default::default()
    };
    let current: Vec<(usize, String)> = finals.iter().map(|&(i, c)| (i, c.to_string())).collect();
    let hash = current.iter().fold(FNV_SEED, |h, (i, c)| {
        fnv1a(format!("{i}:{c};").as_bytes(), h)
    });
    let compared: Vec<bool> = current
        .iter()
        .filter_map(|(i, c)| previous.get(i).map(|p| p == c))
        .collect();
    let body: String = current.iter().map(|(i, c)| format!("{i} {c}\n")).collect();
    let _ = std::fs::write(&path, format!("{header}\n{body}"));
    let verdict = if compared.is_empty() {
        "no earlier run on the same inputs here".to_string()
    } else {
        let differ = compared.iter().filter(|same| !**same).count();
        format!(
            "{differ} of {} jobs shared with the previous run on the same inputs differ{}",
            compared.len(),
            if differ == 0 {
                " (final costs repeat exactly)"
            } else {
                " (the search trajectory changed)"
            }
        )
    };
    format!(
        "final costs fnv={hash:016x} over {} jobs; {verdict}",
        finals.len()
    )
}

/// The harness's tracing overhead: an untraced run records its
/// `jobs_per_s`, and a traced run of the same workload and seed compares
/// against it.
fn tracing_overhead(args: &Args, jobs_per_s: f64) -> Option<String> {
    let path = ledger(args, "jobs_per_s", "txt");
    if !args.trace {
        let _ = std::fs::write(path, jobs_per_s.to_string());
        return None;
    }
    let untraced: f64 = std::fs::read_to_string(path).ok()?.trim().parse().ok()?;
    Some(format!(
        "tracing overhead: {:+.1}% jobs/s against the last untraced run of this workload and seed ({untraced:.4} untraced, {jobs_per_s:.4} traced)",
        100.0 * (jobs_per_s / untraced - 1.0)
    ))
}

fn run(args: &Args, process_start: Instant) -> Result<bool, String> {
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("{WORK_DIR}: {e}"))?;

    // Set-up, several times: generate the workload and start the
    // server; all but the last server are shut down. The first use of
    // the process-wide rule corpus and resynthesizer registries is paid
    // once per process.
    let mut registry_s = 0.0;
    let mut setup_times = Vec::new();
    let mut current: Option<(Server, Workload, PathBuf)> = None;
    for k in 0..SETUPS {
        if let Some((server, _, journal)) = current.take() {
            Server::shutdown(server);
            let _ = std::fs::remove_dir_all(journal);
        }
        let t = Instant::now();
        let wl = workload::build(&args.workload, args.seed).expect("workload name was validated");
        if k == 0 {
            let r = Instant::now();
            std::hint::black_box(qrewrite::shared_rules_for(wl.set));
            std::hint::black_box(qsynth::shared_resynthesizer(
                wl.set,
                qsynth::ResynthProfile::Fast,
            ));
            registry_s = r.elapsed().as_secs_f64();
        }
        let (server, journal) = set_up(&wl, k)?;
        setup_times.push(t.elapsed().as_secs_f64() - if k == 0 { registry_s } else { 0.0 });
        current = Some((server, wl, journal));
    }
    let (server, wl, journal) = current.expect("at least one set-up");
    let start_s = median(&setup_times).expect("set-ups ran");
    let setup_s = registry_s + start_s;
    let setup_wall_s = process_start.elapsed().as_secs_f64();
    let input_hash = wl
        .jobs
        .iter()
        .fold(FNV_SEED, |h, j| fnv1a(j.qasm.as_bytes(), h));

    // The timed window.
    let transcripts = Transcripts::create(
        PathBuf::from(WORK_DIR).join(format!("transcripts-{}", std::process::id())),
    )?;
    let tallies_before = args.trace.then(layers::family_tallies);
    let cache_before = server.cache_stats();
    let journal_before = dir_bytes(&journal);
    let rss_before = status_mb("VmRSS");
    let probe = probe::Probe::start();
    let run = closed_loop(
        &server,
        &wl.jobs,
        CLIENTS,
        Duration::from_secs(args.seconds),
        Recording {
            transcripts: Some(&transcripts),
            horizon_s: wl.t_s,
            traced: args.trace,
        },
    )?;
    let cache_after = server.cache_stats();
    let host = probe.finish(run.epoch);
    let journal_bytes = dir_bytes(&journal).saturating_sub(journal_before);
    let stats_after = if args.trace {
        Some(client::stats(&server)?)
    } else {
        None
    };
    let tallies_after = args.trace.then(layers::family_tallies);
    let peak_rss = status_mb("VmHWM");
    Server::shutdown(server);
    let _ = std::fs::remove_dir_all(&journal);

    // The correctness gate.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = Instant::now();
    let verdict = gate::check(&wl.jobs, &run.records, &transcripts, threads);
    drop(transcripts);
    let gate_s = t.elapsed().as_secs_f64();
    let records = &run.records;
    let attempted = records.len();
    let failed = verdict.failures.iter().filter(|f| f.is_some()).count();
    let ok: Vec<_> = records
        .iter()
        .zip(&verdict.failures)
        .filter(|(_, f)| f.is_none())
        .map(|(r, _)| r)
        .collect();
    let completed = records.iter().filter(|r| r.done.is_some()).count();
    let raw_jobs_per_s = completed as f64 / run.wall_s.max(1e-9);
    // Timing metrics count time at the probe's reference host speed.
    let jobs_per_s = completed as f64 / host.reference_seconds(0.0, run.wall_s).max(1e-9);

    println!(
        "qbench workload={} seed={} seconds={} trace={}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("why: {}", wl.why);
    println!("provenance: {}", provenance());
    println!(
        "input: {} jobs generated, mean {:.0} gates, qasm fnv={input_hash:016x}; cost_ratio_at_t horizon T = {} s",
        wl.jobs.len(),
        wl.jobs.iter().map(|j| j.gates as f64).sum::<f64>() / wl.jobs.len().max(1) as f64,
        wl.t_s
    );
    println!(
        "load: closed loop, {CLIENTS} clients, worker_budget={CLIENTS}; {completed} jobs completed in {:.3} s",
        run.wall_s
    );
    println!(
        "host: the probe's median pass took {:.4} x the reference {} ms over {} passes; setup_s, jobs_per_s and the latencies below count time at the reference speed",
        host.median_slowdown,
        probe::REFERENCE_PASS_S * 1e3,
        host.passes
    );
    println!(
        "memory: {rss_before:.1} MiB resident at the first timed SUBMIT (the generated stream included), peak {peak_rss:.1} MiB"
    );
    println!(
        "setup: registry first use {registry_s:.4} s + median of {SETUPS} set-ups {start_s:.4} s; process start to first timed SUBMIT {setup_wall_s:.3} s"
    );

    // Median and tail of a latency sample; the tail falls back to the
    // slowest job when there are too few jobs.
    let p50_tail = |latencies: &[f64]| {
        let t = tail(latencies, 10);
        let slowest = latencies.iter().copied().fold(0.0, f64::max);
        (
            median(latencies).unwrap_or(0.0),
            t.map_or(slowest, |t| t.value),
            t,
        )
    };
    let wall: Vec<f64> = ok.iter().map(|r| r.latency_s * 1e3).collect();
    let (wall_p50, wall_tail, _) = p50_tail(&wall);
    println!(
        "wall-clock: setup_s {setup_s} s, jobs_per_s {raw_jobs_per_s} 1/s, job_latency_p50_ms {wall_p50} ms, job_latency_tail_ms {wall_tail} ms"
    );
    let latencies: Vec<f64> = ok
        .iter()
        .map(|r| host.reference_seconds(r.end_s - r.latency_s, r.end_s) * 1e3)
        .collect();
    let (p50, tail_ms, tail_lat) = p50_tail(&latencies);
    let finals: Vec<(usize, f64)> = records
        .iter()
        .filter_map(|r| r.done.as_ref().map(|d| (r.index, d.cost)))
        .collect();
    let metrics: Vec<Metric> = if args.trace {
        let obs = layers::Observed {
            records,
            tallies_before: tallies_before.expect("traced"),
            tallies_after: tallies_after.expect("traced"),
            stats_after: stats_after.expect("traced"),
            cache_before,
            cache_after,
            journal_bytes,
            traced_jobs_per_s: jobs_per_s,
        };
        let t = Instant::now();
        let m = layers::per_layer(&wl, args.seed, &obs);
        println!("per-layer replays took {:.3} s", t.elapsed().as_secs_f64());
        m
    } else {
        let geo = |f: &dyn Fn(&client::JobRecord) -> f64| {
            geomean_ratio(ok.iter().map(|r| (f(r), r.input_cost))).unwrap_or(1.0)
        };
        let failed_frac = failed as f64 / attempted.max(1) as f64;
        println!("metric failed_frac = {failed_frac} ratio (lower is better; also the result's failed/attempted)");
        match tail_lat {
            Some(t) => println!(
                "job_latency_tail_ms is p{:.1} over {} jobs (10 beyond it)",
                t.percentile, t.samples
            ),
            None => println!("job_latency_tail_ms: fewer than 11 jobs, reporting the slowest"),
        }
        vec![
            metric("setup_s", "s", "lower", setup_s / host.median_slowdown),
            metric("jobs_per_s", "1/s", "higher", jobs_per_s),
            metric("job_latency_p50_ms", "ms", "lower", p50),
            metric("job_latency_tail_ms", "ms", "lower", tail_ms),
            metric("cost_ratio_at_t", "ratio", "lower", geo(&|r| r.cost_at_t)),
            metric(
                "cost_ratio_final",
                "ratio",
                "lower",
                geo(&|r| r.done.as_ref().map_or(r.input_cost, |d| d.cost)),
            ),
            metric("peak_rss_mb", "MiB", "lower", peak_rss),
        ]
    };
    for m in &metrics {
        println!(
            "metric {} = {} {} ({} is better)",
            m.name, m.value, m.unit, m.better
        );
    }
    println!("canary: {}", determinism_canary(args, input_hash, &finals));
    if let Some(line) = tracing_overhead(args, jobs_per_s) {
        println!("{line}");
    }
    println!(
        "correctness: {attempted} jobs checked in {gate_s:.3} s, {failed} failed; {} equivalence checks, max distance {:e} (tolerance {:e})",
        verdict.equiv_checks,
        verdict.max_distance,
        gate::EQUIV_TOL
    );
    for (r, f) in records.iter().zip(&verdict.failures) {
        if let Some(f) = f {
            println!(
                "  job {} ({}): {f}",
                r.index + 1,
                wl.jobs[r.index % wl.jobs.len()].label
            );
        }
    }
    let correct = failed == 0 && attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(correct)
}
