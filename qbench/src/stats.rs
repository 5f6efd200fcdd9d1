//! Metric math: medians, tail percentiles, cost at a time horizon and
//! the `+1` geometric-mean cost ratio.

/// Median of `xs` (mean of the middle pair for even lengths), or
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A tail latency: the highest percentile of a sample that still has
/// `beyond` samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// The percentile, in `[0, 100)`.
    pub percentile: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of `xs` with at least `beyond` samples above
/// it: the `(beyond + 1)`-th largest sample, at percentile
/// `100 · (n − beyond) / n`. `None` when there are not more than
/// `beyond` samples.
pub fn tail(xs: &[f64], beyond: usize) -> Option<Tail> {
    let n = xs.len();
    if n <= beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[n - 1 - beyond],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        samples: n,
    })
}

/// Best cost reached `t` seconds after job start. `points` are the
/// job's `(seconds, cost)` improvement frames; before the first of them
/// the best circuit is the input.
pub fn cost_at(points: &[(f64, f64)], input_cost: f64, t: f64) -> f64 {
    points
        .iter()
        .filter(|(s, _)| *s <= t)
        .map(|&(_, c)| c)
        .fold(input_cost, f64::min)
}

/// Geometric mean over jobs of `(cost + 1) / (input + 1)`. The `+1`
/// keeps the ratio finite and meaningful for circuits that optimize to
/// zero gates (Toffoli chains do). `pairs` yields `(cost, input)`;
/// `None` when it is empty.
pub fn geomean_ratio(pairs: impl IntoIterator<Item = (f64, f64)>) -> Option<f64> {
    let (sum, n) = pairs
        .into_iter()
        .fold((0.0, 0usize), |(s, n), (cost, input)| {
            (s + ((cost + 1.0) / (input + 1.0)).ln(), n + 1)
        });
    (n > 0).then(|| (sum / n as f64).exp())
}

/// 64-bit FNV-1a, for input-identity and determinism hashes that must
/// repeat across processes.
pub fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_adds_one_so_zero_gate_results_stay_finite() {
        // tof chains optimize to 0 gates: 300 → 0 is (0+1)/(300+1).
        let g = geomean_ratio([(0.0, 300.0)]).unwrap();
        assert!((g - 1.0 / 301.0).abs() < 1e-15);
        let g = geomean_ratio([(0.0, 300.0), (301.0 * 301.0 - 1.0, 300.0)]).unwrap();
        assert!((g - 1.0).abs() < 1e-12, "{g}");
        assert!(geomean_ratio([(0.0, 0.0)]).unwrap() == 1.0);
        assert_eq!(geomean_ratio(std::iter::empty()), None);
    }

    #[test]
    fn cost_at_reads_the_best_so_far_at_the_horizon() {
        let input = 118.0;
        let points = [(0.0, 118.0), (0.2, 104.0), (0.5, 97.0), (1.4, 92.0)];
        // Before the first improvement: the input cost.
        assert_eq!(cost_at(&points[1..], input, 0.1), input);
        assert_eq!(cost_at(&points, input, 0.1), input);
        // Between improvements: the latest one at or before t.
        assert_eq!(cost_at(&points, input, 0.2), 104.0);
        assert_eq!(cost_at(&points, input, 0.9), 97.0);
        // After DONE: the final cost.
        assert_eq!(cost_at(&points, input, 1e9), 92.0);
        assert_eq!(cost_at(&[], input, 1e9), input);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_enough_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 10).unwrap();
        assert_eq!(t.value, 90.0); // 91..=100 lie beyond it
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let t = tail(&xs, 10).unwrap();
        assert_eq!((t.value, t.percentile, t.samples), (10.0, 50.0, 20));
        assert_eq!(tail(&xs[..10], 10), None);
        assert_eq!(tail(&xs[..11], 10).unwrap().value, 10.0);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b"", FNV_SEED), FNV_SEED);
        assert_eq!(fnv1a(b"a", FNV_SEED), 0xAF63_DC4C_8601_EC8C);
    }
}
