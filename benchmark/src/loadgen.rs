//! The benchmark's own request generators.
//!
//! Portal users are independent of each other, so latency is measured
//! with an **open loop**: request `i` is due at `i / rate` seconds after
//! the start whether or not earlier requests have finished, and its
//! latency counts from that due time. A stall therefore charges every
//! request that came due during it. Capacity is measured with a
//! **closed loop** of one client.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A request that completes later than this after its due time missed
/// its limit.
pub const LATE_LIMIT_NS: u64 = 50_000_000;

/// Due time of request `i` at `rate_per_s`, ns after the start.
pub fn due_ns(i: u64, rate_per_s: u64) -> u64 {
    (i as u128 * 1_000_000_000 / rate_per_s.max(1) as u128) as u64
}

/// One open-loop request as accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    /// Completion minus due time, ns: what the user waited.
    pub latency_ns: u64,
    /// Issue minus due time, ns: how late the generator ran.
    pub issue_late_ns: u64,
    /// Whether the request missed [`LATE_LIMIT_NS`] (a failed request
    /// always counts as late).
    pub late: bool,
}

/// Account one request from its due, issue and completion times (all ns
/// after the start).
pub fn account(due: u64, issued: u64, done: u64, ok: bool) -> Sample {
    let latency_ns = done.saturating_sub(due);
    Sample {
        latency_ns,
        issue_late_ns: issued.saturating_sub(due),
        late: !ok || latency_ns > LATE_LIMIT_NS,
    }
}

/// Share of `samples` that were late (0 when there are none).
pub fn late_share(samples: &[Sample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|s| s.late).count() as f64 / samples.len() as f64
}

/// Issue requests at `rate_per_s` on the open-loop schedule until
/// `active` turns false. `issue(i)` performs request `i` and returns
/// whether it succeeded. The generator sleeps until each due time and
/// never skips a request: when it falls behind it issues back to back.
pub fn run_open_loop(
    rate_per_s: u64,
    active: &AtomicBool,
    mut issue: impl FnMut(u64) -> bool,
) -> Vec<Sample> {
    let start = Instant::now();
    let mut samples = Vec::new();
    for i in 0.. {
        let due = due_ns(i, rate_per_s);
        loop {
            if !active.load(Ordering::Acquire) {
                return samples;
            }
            let now = start.elapsed().as_nanos() as u64;
            if now >= due {
                break;
            }
            // Short naps keep the stop flag observed within a millisecond.
            std::thread::sleep(Duration::from_nanos((due - now).min(1_000_000)));
        }
        let issued = start.elapsed().as_nanos() as u64;
        let ok = issue(i);
        let done = start.elapsed().as_nanos() as u64;
        samples.push(account(due, issued, done, ok));
    }
    samples
}

/// Issue `n` requests one after the other from a single client; returns
/// each request's duration in ns and the wall of the whole loop.
pub fn run_closed_loop(n: u64, mut issue: impl FnMut(u64) -> bool) -> (Vec<u64>, u64, Duration) {
    let start = Instant::now();
    let mut durations = Vec::with_capacity(n as usize);
    let mut failed = 0;
    for i in 0..n {
        let t = Instant::now();
        if !issue(i) {
            failed += 1;
        }
        durations.push(t.elapsed().as_nanos() as u64);
    }
    (durations, failed, start.elapsed())
}
