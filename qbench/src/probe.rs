//! Host-speed probe: a fixed kernel, compiled into the benchmark and
//! sharing no code with the program, timed at a low duty cycle while the
//! workload runs.
//!
//! On a host shared with other tenants the CPU's speed drifts, by up to
//! a factor of two over minutes and in spells of a few seconds, without
//! steal time, and the program's timings drift with it. The probe's pass
//! time over the pass time at the reference speed measures that drift
//! along the run, and the timing metrics count time at the reference
//! speed: a second in which the host ran twice as slow counts half. The
//! kernel is frozen with the benchmark, so a change to the program cannot
//! move it.

use crate::stats::median;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Median pass time at the reference speed: a 2-vCPU Intel Xeon KVM
/// guest on a quiet host, while both vCPUs run a workload.
pub const REFERENCE_PASS_S: f64 = 1.4e-3;

/// Pause between probe passes.
const PERIOD: Duration = Duration::from_millis(100);

/// Passes on each side of a pass whose median sets the local speed, so
/// that a pass the scheduler interrupted does not count as a slow spell.
const SMOOTHING: usize = 2;

/// A running probe thread.
pub struct Probe {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(Instant, f64)>>,
}

impl Probe {
    /// Starts timing one kernel pass every [`PERIOD`].
    pub fn start() -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut table: Vec<u32> = (0..1u32 << 16)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect();
            let mut passes = Vec::new();
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                let t = Instant::now();
                black_box(kernel(&mut table));
                passes.push((t, t.elapsed().as_secs_f64()));
            }
            passes
        });
        Probe { stop, handle }
    }

    /// Stops the probe and waits for its thread. Returns the host's
    /// speed along the run, with times counted from `epoch`.
    pub fn finish(self, epoch: Instant) -> Timeline {
        self.stop.store(true, Ordering::Relaxed);
        let passes = self.handle.join().expect("probe thread panicked");
        let times: Vec<f64> = passes
            .iter()
            .map(|&(at, _)| match at.checked_duration_since(epoch) {
                Some(d) => d.as_secs_f64(),
                None => -epoch.duration_since(at).as_secs_f64(),
            })
            .collect();
        let secs: Vec<f64> = passes.iter().map(|&(_, s)| s).collect();
        Timeline::new(&times, &secs)
    }
}

/// The host's slowdown against the reference speed along a run: a step
/// function of time, one step per probe pass.
#[derive(Debug, Clone)]
pub struct Timeline {
    /// `(seconds after the epoch, slowdown)` per pass, in time order.
    steps: Vec<(f64, f64)>,
    /// Median pass over [`REFERENCE_PASS_S`].
    pub median_slowdown: f64,
    /// Passes the timeline was built from.
    pub passes: usize,
}

impl Timeline {
    /// Builds the timeline from each pass's start time and duration; each
    /// step is the median of the [`SMOOTHING`] passes on either side.
    pub fn new(times: &[f64], secs: &[f64]) -> Timeline {
        let steps = (0..secs.len())
            .map(|i| {
                let lo = i.saturating_sub(SMOOTHING);
                let hi = (i + SMOOTHING + 1).min(secs.len());
                let local = median(&secs[lo..hi]).expect("non-empty window");
                (times[i], local / REFERENCE_PASS_S)
            })
            .collect();
        Timeline {
            steps,
            median_slowdown: median(secs).map_or(1.0, |m| m / REFERENCE_PASS_S),
            passes: secs.len(),
        }
    }

    /// Seconds at the reference speed that the interval `[a, b]` (seconds
    /// after the epoch) is worth: its length, each part divided by the
    /// slowdown of the last pass that started before it (the first pass
    /// before any). Plain seconds when no pass completed.
    pub fn reference_seconds(&self, a: f64, b: f64) -> f64 {
        let Some(&(_, first)) = self.steps.first() else {
            return b - a;
        };
        let mut total = 0.0;
        let mut at = a;
        let mut slowdown = first;
        for &(t, s) in &self.steps {
            if t >= b {
                break;
            }
            if t > at {
                total += (t - at) / slowdown;
                at = t;
            }
            slowdown = s;
        }
        total + (b - at).max(0.0) / slowdown
    }
}

/// One pass: products of small complex matrices (the shape of the
/// slow path's numerics) and a data-dependent walk over a 256 KiB table
/// (the shape of the fast path's pointer chasing).
fn kernel(table: &mut [u32]) -> f64 {
    let mut m = [[(0.0f64, 0.0f64); 8]; 8];
    for (i, row) in m.iter_mut().enumerate() {
        for (j, z) in row.iter_mut().enumerate() {
            *z = (
                ((i * 8 + j) as f64).cos() / 8.0,
                ((i + j) as f64).sin() / 8.0,
            );
        }
    }
    for _ in 0..300 {
        let mut n = [[(0.0f64, 0.0f64); 8]; 8];
        for (row, out) in m.iter().zip(n.iter_mut()) {
            for (j, z) in out.iter_mut().enumerate() {
                let (mut re, mut im) = (0.0, 0.0);
                for (a, other) in row.iter().zip(m.iter()) {
                    let b = other[j];
                    re += a.0 * b.0 - a.1 * b.1;
                    im += a.0 * b.1 + a.1 * b.0;
                }
                *z = (re, im);
            }
        }
        m = black_box(n);
    }
    let mask = table.len() - 1;
    let mut x = 1usize;
    for _ in 0..150_000 {
        let v = table[x & mask];
        table[x & mask] = v.rotate_left(5) ^ (x as u32);
        x = (v as usize).wrapping_mul(31).wrapping_add(x >> 3);
    }
    m[0][0].0 + x as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn reference_seconds_divides_each_part_by_its_slowdown() {
        let r = REFERENCE_PASS_S;
        // Twice as slow throughout: a second counts half.
        let flat = Timeline::new(&[0.0, 1.0, 2.0], &[2.0 * r; 3]);
        assert!(close(flat.reference_seconds(0.0, 2.0), 1.0));
        assert!(close(flat.median_slowdown, 2.0));
        // Before the first pass, its slowdown applies.
        assert!(close(flat.reference_seconds(-1.0, 0.0), 0.5));
        // Reference speed until 1 s, then four times slower; no
        // smoothing across the step with this few passes on each side.
        let times: Vec<f64> = (0..10).map(f64::from).collect();
        let secs: Vec<f64> = (0..10).map(|i| if i < 5 { r } else { 4.0 * r }).collect();
        let step = Timeline::new(&times, &secs);
        assert!(close(step.reference_seconds(0.0, 5.0), 5.0));
        assert!(close(step.reference_seconds(5.0, 7.0), 0.5));
        assert!(close(step.reference_seconds(4.5, 5.5), 0.5 + 0.125));
        // An empty timeline counts plain seconds.
        let none = Timeline::new(&[], &[]);
        assert!(close(none.reference_seconds(1.0, 3.5), 2.5));
        assert!(close(none.median_slowdown, 1.0));
    }

    #[test]
    fn one_interrupted_pass_is_smoothed_away() {
        let r = REFERENCE_PASS_S;
        let times: Vec<f64> = (0..7).map(f64::from).collect();
        let mut secs = vec![r; 7];
        secs[3] = 10.0 * r;
        let t = Timeline::new(&times, &secs);
        assert!(close(t.reference_seconds(0.0, 7.0), 7.0));
    }
}
