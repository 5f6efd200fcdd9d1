//! Per-layer metrics for the traced run.
//!
//! They come from the DONE fields and the client's own clock, from
//! counters the program already exposes (`Server::cache_stats`, the
//! `qtrace` registry, the `STATS` verb), from the journal files, and
//! from replaying each layer's public functions on windows sampled from
//! the workload's own circuits. Nothing here adds tracing inside the
//! program.

use crate::client::JobRecord;
use crate::stats::median;
use crate::workload::{Workload, JOB_EPS};
use guoq::CacheStats;
use qcir::{qasm, Circuit, Region};
use qserve::{EngineSel, StatsSnapshot};
use qsynth::{shared_resynthesizer, ResynthProfile};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

/// One reported metric.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"` is better.
    pub better: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    value: f64,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        value,
    }
}

/// Per-family accept and reject totals read from the `qtrace` registry.
pub type FamilyTallies = [(f64, f64); qtrace::FAMILY_COUNT];

/// Reads the per-family accept/reject counters.
pub fn family_tallies() -> FamilyTallies {
    let read = |name: String| qtrace::counter_value(&name).unwrap_or(0.0);
    let mut out = [(0.0, 0.0); qtrace::FAMILY_COUNT];
    for fam in qtrace::Family::ALL {
        out[fam.index()] = (
            read(format!("guoq_accepts_total{{family=\"{}\"}}", fam.label())),
            read(format!("guoq_rejects_total{{family=\"{}\"}}", fam.label())),
        );
    }
    out
}

/// What the traced run observed around the timed window.
pub struct Observed<'a> {
    /// Every timed job.
    pub records: &'a [JobRecord],
    /// Registry tallies before the window.
    pub tallies_before: FamilyTallies,
    /// Registry tallies after the window.
    pub tallies_after: FamilyTallies,
    /// The `STATS` reply after the window.
    pub stats_after: StatsSnapshot,
    /// Cache counters before the window.
    pub cache_before: CacheStats,
    /// Cache counters after the window.
    pub cache_after: CacheStats,
    /// Journal bytes written during the window (0 without a journal).
    pub journal_bytes: u64,
    /// Jobs per second of the traced run.
    pub traced_jobs_per_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Mean microseconds per call of `f` over `n` calls.
fn mean_us(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    t.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
}

/// Every per-layer metric for one traced run.
pub fn per_layer(wl: &Workload, seed: u64, obs: &Observed) -> Vec<Metric> {
    let done: Vec<_> = obs
        .records
        .iter()
        .filter_map(|r| r.done.as_ref().map(|d| (r, d)))
        .collect();
    let jobs = done.len().max(1) as f64;
    let sum =
        |f: &dyn Fn(&qserve::JobSummary) -> u64| done.iter().map(|(_, d)| f(d) as f64).sum::<f64>();
    let fast_ms = sum(&|d| d.fast_ms);
    let slow_ms = sum(&|d| d.slow_ms);
    let slow_calls = sum(&|d| d.cache_hits + d.cache_misses);
    let iterations = sum(&|d| d.iterations);
    let med = |xs: Vec<f64>| median(&xs).unwrap_or(0.0);
    let frames: f64 = obs.records.iter().map(|r| r.frames as f64).sum();
    let codec_ns: f64 = obs.records.iter().map(|r| r.codec_ns as f64).sum();
    let (apply_ns, applied) = obs.records.iter().fold((0.0, 0.0), |(t, n), r| {
        (t + r.delta_apply.0 as f64, n + r.delta_apply.1 as f64)
    });
    let sharded: Vec<_> = done
        .iter()
        .filter(|(r, _)| {
            matches!(
                wl.jobs[r.index % wl.jobs.len()].engine,
                EngineSel::Sharded(_)
            )
        })
        .collect();
    let cache_delta =
        |f: fn(&CacheStats) -> u64| (f(&obs.cache_after) - f(&obs.cache_before)) as f64;
    let hits = cache_delta(|s| s.hits + s.negative_hits);
    let lookups = hits + cache_delta(|s| s.misses + s.verify_rejects);

    let mut m = vec![
        metric(
            "qserve.queue_ms_p50",
            "ms",
            "lower",
            med(done.iter().map(|(_, d)| d.queue_ms as f64).collect()),
        ),
        metric(
            "qserve.overhead_ms_p50",
            "ms",
            "lower",
            med(done
                .iter()
                .map(|(r, d)| r.latency_s * 1e3 - (d.queue_ms + d.run_ms) as f64)
                .collect()),
        ),
        metric(
            "qserve.codec_us_per_frame",
            "us",
            "lower",
            ratio(codec_ns / 1e3, frames),
        ),
        metric(
            "qserve.frames_per_job",
            "count",
            "lower",
            frames / obs.records.len().max(1) as f64,
        ),
        metric(
            "qserve.wire_bytes_per_job",
            "bytes",
            "lower",
            obs.records.iter().map(|r| r.wire_bytes as f64).sum::<f64>()
                / obs.records.len().max(1) as f64,
        ),
        metric(
            "qserve.journal_bytes_per_job",
            "bytes",
            "lower",
            obs.journal_bytes as f64 / jobs,
        ),
        metric("guoq.fast_s", "s", "lower", fast_ms / 1e3 / jobs),
        metric("guoq.slow_s", "s", "lower", slow_ms / 1e3 / jobs),
        metric(
            "guoq.slow_frac",
            "ratio",
            "lower",
            ratio(slow_ms, fast_ms + slow_ms),
        ),
        metric(
            "guoq.iters_per_busy_s",
            "1/s",
            "higher",
            ratio(iterations, (fast_ms + slow_ms) / 1e3),
        ),
        metric("guoq.slow_calls", "count", "lower", slow_calls / jobs),
        metric(
            "guoq.slow_ms_per_call",
            "ms",
            "lower",
            ratio(slow_ms, slow_calls),
        ),
    ];
    for fam in qtrace::Family::ALL {
        let i = fam.index();
        let acc = obs.stats_after.accepts[i] as f64 - obs.tallies_before[i].0;
        let rej = obs.tallies_after[i].1 - obs.tallies_before[i].1;
        m.push(metric(
            format!("guoq.accept_ratio.{}", fam.label()),
            "ratio",
            "higher",
            ratio(acc, acc + rej),
        ));
    }
    m.push(metric(
        "guoq.improvements_per_job",
        "count",
        "higher",
        done.iter().map(|(r, _)| r.improvements as f64).sum::<f64>() / jobs,
    ));

    let circuits: Vec<Circuit> = distinct_inputs(wl)
        .into_iter()
        .map(|q| qasm::from_qasm(q).expect("generated qasm parses"))
        .collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7A1_EC7);
    m.extend(qsynth_replay(wl, &circuits, &mut rng));
    m.push(metric(
        "qcache.hit_ratio",
        "ratio",
        "higher",
        ratio(hits, lookups),
    ));
    m.push(metric(
        "qcache.inserts",
        "count/job",
        "lower",
        cache_delta(|s| s.inserts) / jobs,
    ));
    m.push(metric(
        "qcache.evictions",
        "count/job",
        "lower",
        cache_delta(|s| s.evictions) / jobs,
    ));
    m.push(metric(
        "qcache.verify_rejects",
        "count/job",
        "lower",
        cache_delta(|s| s.verify_rejects) / jobs,
    ));
    m.push(metric(
        "qcache.hit_us",
        "us",
        "lower",
        cache_hit_us(wl, &circuits, &mut rng),
    ));
    m.extend(qcir_replay(wl, &circuits, &mut rng));
    m.push(metric(
        "qcir.delta_apply_us",
        "us",
        "lower",
        ratio(apply_ns / 1e3, applied),
    ));
    m.push(metric(
        "qpar.busy_over_wall",
        "ratio",
        "higher",
        ratio(
            sharded
                .iter()
                .map(|(_, d)| (d.fast_ms + d.slow_ms) as f64)
                .sum(),
            sharded.iter().map(|(_, d)| d.run_ms as f64).sum(),
        ),
    ));
    m.push(metric(
        "harness.traced_jobs_per_s",
        "1/s",
        "higher",
        obs.traced_jobs_per_s,
    ));
    m
}

/// Up to eight distinct input QASM texts of the workload, in stream order.
fn distinct_inputs(wl: &Workload) -> Vec<&str> {
    let mut seen = std::collections::HashSet::new();
    wl.jobs
        .iter()
        .map(|j| &*j.qasm)
        .filter(|q| seen.insert(*q))
        .take(8)
        .collect()
}

/// A random window of at most `cap` qubits, grown the way the slow path
/// grows one (a uniform anchor, at least two member gates).
fn window<'a>(
    circuits: &'a [Circuit],
    cap: usize,
    rng: &mut SmallRng,
) -> Option<(Region, &'a Circuit)> {
    let c = &circuits[rng.random_range(0..circuits.len())];
    if c.is_empty() {
        return None;
    }
    let region = Region::grow(c, rng.random_range(0..c.len()), cap)?;
    (region.member_indices(c).len() >= 2).then_some((region, c))
}

/// Windows of exactly `width` qubits, up to `count` of them.
fn windows_of_width(
    circuits: &[Circuit],
    width: usize,
    count: usize,
    rng: &mut SmallRng,
) -> Vec<Circuit> {
    let mut out = Vec::new();
    for _ in 0..count * 200 {
        if out.len() == count {
            break;
        }
        if let Some((r, c)) = window(circuits, width, rng) {
            if r.qubits().len() == width {
                out.push(r.extract(c));
            }
        }
    }
    out
}

/// Windows replayed per width: enough calls to average over, few
/// enough that the widest (slowest) ones stay under a second in total.
const REPLAY_WINDOWS: [usize; 3] = [24, 12, 6];

/// `qsynth` replay: mean call time and success ratio per window width,
/// and the share of slow-path windows at each width.
fn qsynth_replay(wl: &Workload, circuits: &[Circuit], rng: &mut SmallRng) -> Vec<Metric> {
    let rs = shared_resynthesizer(wl.set, ResynthProfile::Fast);
    let eps = JOB_EPS / 8.0; // the per-call share GUOQ gives resynthesis
    let mut widths = [0usize; 3];
    for _ in 0..600 {
        if let Some((r, _)) = window(circuits, 3, rng) {
            widths[r.qubits().len() - 1] += 1;
        }
    }
    let total = widths.iter().sum::<usize>().max(1) as f64;
    let mut out = Vec::new();
    for w in 1..=3 {
        let subs = windows_of_width(circuits, w, REPLAY_WINDOWS[w - 1], rng);
        let mut ok = 0usize;
        let t = Instant::now();
        for sub in &subs {
            ok += usize::from(black_box(rs.resynthesize(sub, eps, rng)).is_some());
        }
        let n = subs.len().max(1) as f64;
        out.push(metric(
            format!("qsynth.call_ms.w{w}"),
            "ms",
            "lower",
            t.elapsed().as_secs_f64() * 1e3 / n,
        ));
        out.push(metric(
            format!("qsynth.success.w{w}"),
            "ratio",
            "higher",
            ok as f64 / n,
        ));
        out.push(metric(
            format!("qsynth.share.w{w}"),
            "ratio",
            "lower",
            widths[w - 1] as f64 / total,
        ));
    }
    out
}

/// `qcache` hit path: `resynthesize_cached` on windows already cached.
fn cache_hit_us(wl: &Workload, circuits: &[Circuit], rng: &mut SmallRng) -> f64 {
    const REPEATS: usize = 50;
    let rs = shared_resynthesizer(wl.set, ResynthProfile::Fast);
    let cache = qcache::QCache::with_gate_budget(65_536);
    let eps = JOB_EPS / 8.0;
    let subs = windows_of_width(circuits, 2, 4, rng);
    let mut total_us = 0.0;
    for sub in &subs {
        let _ = rs.resynthesize_cached(sub, eps, rng, Some(&cache)); // cold: inserts
        total_us += mean_us(REPEATS, |_| {
            black_box(rs.resynthesize_cached(sub, eps, rng, Some(&cache)));
        });
    }
    total_us / subs.len().max(1) as f64
}

/// `qcir` replay: QASM parse and emit per thousand gates, and region
/// growth plus extraction per call.
fn qcir_replay(wl: &Workload, circuits: &[Circuit], rng: &mut SmallRng) -> Vec<Metric> {
    let texts = distinct_inputs(wl);
    let kgates = circuits.iter().map(|c| c.len()).sum::<usize>().max(1) as f64 / 1e3;
    let t = Instant::now();
    for text in &texts {
        black_box(qasm::from_qasm(text).expect("generated qasm parses"));
    }
    let parse = t.elapsed().as_secs_f64() * 1e6 / kgates;
    let t = Instant::now();
    for c in circuits {
        black_box(qasm::to_qasm_line(c));
    }
    let emit = t.elapsed().as_secs_f64() * 1e6 / kgates;
    let anchors: Vec<(usize, usize)> = (0..400)
        .map(|_| {
            let i = rng.random_range(0..circuits.len());
            (i, rng.random_range(0..circuits[i].len().max(1)))
        })
        .collect();
    let region = mean_us(anchors.len(), |k| {
        let (i, a) = anchors[k];
        if let Some(r) = Region::grow(&circuits[i], a, 3) {
            black_box(r.extract(&circuits[i]));
        }
    });
    vec![
        metric("qcir.qasm_parse_us_per_kgate", "us/kgate", "lower", parse),
        metric("qcir.qasm_emit_us_per_kgate", "us/kgate", "lower", emit),
        metric("qcir.region_us", "us", "lower", region),
    ]
}
