//! Percentile selection, the tail rule and the quartile spread.

use bingo_benchmark::stats::{
    median, percentile, quartiles, samples_beyond, spread, tail_percentile, LatencySummary,
};

#[test]
fn percentile_is_nearest_rank_on_the_sorted_sample() {
    let sample: Vec<u64> = (1..=100).collect();
    assert_eq!(percentile(&sample, 50.0), Some(50));
    assert_eq!(percentile(&sample, 95.0), Some(95));
    assert_eq!(percentile(&sample, 99.0), Some(99));
    assert_eq!(percentile(&sample, 100.0), Some(100));
    // Never interpolated: the answer is always a member of the sample.
    assert_eq!(percentile(&[10, 20, 30], 50.0), Some(20));
    assert_eq!(percentile(&[10, 20, 30], 34.0), Some(20));
    assert_eq!(percentile(&[10, 20, 30], 0.1), Some(10));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(1170, 95.0), 58);
    assert_eq!(samples_beyond(1170, 99.0), 11);
    assert_eq!(samples_beyond(1170, 99.9), 1);
    assert_eq!(tail_percentile(1170), 99.0);
    assert_eq!(tail_percentile(470), 95.0);
    assert_eq!(tail_percentile(200), 95.0);
    assert_eq!(tail_percentile(199), 90.0);
    assert_eq!(tail_percentile(100), 90.0);
    assert_eq!(tail_percentile(99), 50.0);
    assert_eq!(tail_percentile(10_000), 99.9);
    // Too small for any tail: only the median is reported.
    assert_eq!(tail_percentile(5), 50.0);
}

#[test]
fn latency_summary_reports_median_tail_and_count() {
    let summary = LatencySummary::of((1..=400u64).rev().collect());
    assert_eq!(summary.samples, 400);
    assert_eq!(summary.p50_ns, 200);
    assert_eq!(summary.tail_pct, 95.0);
    assert_eq!(summary.tail_ns, 380);
    assert_eq!(summary.p95_ns, 380);
    let empty = LatencySummary::of(Vec::new());
    assert_eq!((empty.samples, empty.p50_ns, empty.tail_ns), (0, 0, 0));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
    //   -> [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
    assert_eq!(median(&ten), 5.5);
    assert!((spread(&ten) - 1.0).abs() < 1e-12);
    // statistics.quantiles([3.0, 1.0, 2.0], n=4) -> [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    // statistics.quantiles([10.0, 20.0], n=4) -> [7.5, 15.0, 22.5]
    assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
    assert_eq!(quartiles(&[1.0]), None);
    assert_eq!(spread(&[4.0, 4.0, 4.0, 4.0]), 0.0);
}
