//! Exact sample statistics for the benchmark's own numbers.
//!
//! Latencies are kept as raw nanosecond samples and sorted; nothing is
//! bucketed (the `bingo-obs` histograms round to powers of two, which is
//! too coarse to see a 10% change).

/// Percentiles the tail rule chooses from, lowest first.
pub const TAIL_CANDIDATES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Value at percentile `pct` (0 < pct ≤ 100) of an ascending-sorted
/// sample, by the nearest-rank rule: the smallest value with at least
/// `pct` percent of the sample at or below it. `None` on an empty sample.
pub fn percentile(sorted: &[u64], pct: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), pct) - 1])
}

/// How many samples lie strictly beyond the nearest-rank position of
/// percentile `pct` in a sample of `n`.
pub fn samples_beyond(n: usize, pct: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - nearest_rank(n, pct)
}

/// 1-based nearest rank of percentile `pct` in a sample of `n` ≥ 1. The
/// small slack keeps a product such as 99.9% × 10,000 from rounding up
/// past its exact value.
fn nearest_rank(n: usize, pct: f64) -> usize {
    let rank = (pct * n as f64 / 100.0 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// The highest of [`TAIL_CANDIDATES`] that still has at least ten samples
/// beyond it; the median when the sample is too small for any tail.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= 10)
        .unwrap_or(TAIL_CANDIDATES[0])
}

/// Median of a float sample (mean of the two middle values when even);
/// 0 on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance check of this benchmark is defined over. `None` below
/// two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median (0 when undefined).
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

/// Sorted latency sample with the two numbers every timing is reported
/// as: the median and the tail percentile the sample size supports.
#[derive(Debug, Clone)]
pub struct LatencySummary {
    /// Sample count.
    pub samples: usize,
    /// Median, ns.
    pub p50_ns: u64,
    /// Which percentile `tail_ns` is.
    pub tail_pct: f64,
    /// Value at `tail_pct`, ns.
    pub tail_ns: u64,
    /// Value at the 95th percentile, ns (the fixed percentile the metric
    /// names refer to; equals `tail_ns` whenever 200 ≤ samples < 1000).
    pub p95_ns: u64,
}

impl LatencySummary {
    /// Summarize a latency sample (any order); all zeros when empty.
    pub fn of(mut ns: Vec<u64>) -> Self {
        ns.sort_unstable();
        let tail_pct = tail_percentile(ns.len());
        LatencySummary {
            samples: ns.len(),
            p50_ns: percentile(&ns, 50.0).unwrap_or(0),
            tail_pct,
            tail_ns: percentile(&ns, tail_pct).unwrap_or(0),
            p95_ns: percentile(&ns, 95.0).unwrap_or(0),
        }
    }
}
