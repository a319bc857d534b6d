//! The open-loop schedule and lateness accounting.

use bingo_benchmark::loadgen::{
    account, due_ns, late_share, run_closed_loop, run_open_loop, LATE_LIMIT_NS,
};
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn due_times_follow_the_rate_not_the_completions() {
    assert_eq!(due_ns(0, 100), 0);
    assert_eq!(due_ns(1, 100), 10_000_000);
    assert_eq!(due_ns(250, 100), 2_500_000_000);
    // No drift from integer division: request 3 at 3/s is due at 1 s.
    assert_eq!(due_ns(3, 3), 1_000_000_000);
}

#[test]
fn latency_counts_from_the_due_time() {
    // Due at 10 ms, issued 2 ms late, answered 3 ms after that: the user
    // waited 5 ms and the generator ran 2 ms late.
    let s = account(10_000_000, 12_000_000, 15_000_000, true);
    assert_eq!(s.latency_ns, 5_000_000);
    assert_eq!(s.issue_late_ns, 2_000_000);
    assert!(!s.late);
    // A stall charges the requests that came due during it: issued 60 ms
    // after due, the request is late however fast it was served.
    let stalled = account(10_000_000, 70_000_000, 70_100_000, true);
    assert_eq!(stalled.latency_ns, 60_100_000);
    assert!(stalled.late);
    // Exactly at the limit is still in time; a failed request never is.
    assert!(!account(0, 0, LATE_LIMIT_NS, true).late);
    assert!(account(0, 0, LATE_LIMIT_NS + 1, true).late);
    assert!(account(0, 0, 1, false).late);
}

#[test]
fn late_share_counts_late_over_all() {
    let samples = [
        account(0, 0, 1, true),
        account(0, 0, LATE_LIMIT_NS + 1, true),
        account(0, 0, 1, false),
        account(0, 0, 2, true),
    ];
    assert_eq!(late_share(&samples), 0.5);
    assert_eq!(late_share(&[]), 0.0);
}

#[test]
fn open_loop_issues_every_request_in_order_until_stopped() {
    let active = AtomicBool::new(true);
    let mut seen = Vec::new();
    let samples = run_open_loop(2_000, &active, |i| {
        seen.push(i);
        if i == 19 {
            active.store(false, Ordering::Release);
        }
        true
    });
    assert_eq!(seen, (0..20).collect::<Vec<u64>>());
    assert_eq!(samples.len(), 20);
    // 20 requests at 2000/s are due over 9.5 ms: the loop cannot have
    // finished before the last one was due.
    assert!(samples.iter().all(|s| s.latency_ns >= s.issue_late_ns));
}

#[test]
fn closed_loop_runs_exactly_n_and_counts_failures() {
    let (durations, failed, wall) = run_closed_loop(10, |i| i % 5 != 0);
    assert_eq!(durations.len(), 10);
    assert_eq!(failed, 2);
    assert!(wall.as_nanos() >= durations.iter().map(|&d| d as u128).sum::<u128>());
}
