//! Host health management: per-host circuit breakers (Section 4.2,
//! extended).
//!
//! "A good focused crawler needs to handle crawl failures. If the DNS
//! resolution or page download causes a timeout or error, we tag the
//! corresponding host as slow. For slow hosts the number of retrials is
//! restricted to 3; if the third attempt fails the host is tagged as bad
//! and excluded for the rest of the current crawl."
//!
//! The paper's static escalation (good → slow → bad) wastes harvest on
//! *transiently* failing hosts: a server throwing 5xx for a minute is
//! excluded forever. This module replaces the fixed budget with a
//! circuit breaker per host:
//!
//! * **Closed** — requests flow. [`FAILURE_THRESHOLD`] *consecutive*
//!   failures trip the breaker.
//! * **Open** — requests are deferred until a deadline computed by
//!   exponential backoff (`base << cycles`, capped, ± deterministic
//!   jitter so hosts don't thunder-herd on the same virtual tick).
//! * **Half-open** — after the deadline one *probe* request is let
//!   through. Success closes the breaker (the only path back to
//!   closed); failure re-opens it with a doubled deadline.
//! * **Dead** — after [`MAX_OPEN_CYCLES`] re-opens the host is excluded
//!   for the rest of the crawl, which recovers the paper's "tagged as
//!   bad" terminal state.
//!
//! All timing uses the crawl's virtual clock and all jitter is hashed
//! from `(host, cycle)`, so chaos crawls replay identically per seed.

use bingo_textproc::fxhash::{self, FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use std::hash::Hash;

/// Consecutive failures that trip a closed breaker (paper: "the number
/// of retrials is restricted to 3").
pub const FAILURE_THRESHOLD: u32 = 3;
/// First open deadline, in virtual ms.
pub const BASE_BACKOFF_MS: u64 = 500;
/// Ceiling on an open deadline or a retry backoff, in virtual ms.
pub const MAX_BACKOFF_MS: u64 = 60_000;
/// Jitter amplitude around a deadline, in per-mille of it.
pub const JITTER_PERMILLE: u64 = 250;
/// Open→half-open→open round trips before the host is declared dead.
/// An open breaker waits at least 375 + 750 + 1,500 + 3,000 + 6,000 =
/// 11,625 virtual ms before its host dies.
pub const MAX_OPEN_CYCLES: u32 = 5;

/// The open deadline duration for a given re-open cycle.
fn backoff_ms(host: &str, cycle: u32) -> u64 {
    jittered_backoff(BASE_BACKOFF_MS, cycle, &(host, cycle, 0xB4C0u32))
}

/// `base << exponent` (an exponent of at most 20, saturating), capped by
/// [`MAX_BACKOFF_MS`], at least 1, then moved by up to
/// [`JITTER_PERMILLE`] of itself either way by a hash of `key`, so that
/// co-failing hosts or URLs do not retry in lockstep. The result is at
/// most 1.25 × [`MAX_BACKOFF_MS`].
pub(crate) fn jittered_backoff(base: u64, exponent: u32, key: &impl Hash) -> u64 {
    let base = base
        .saturating_mul(1 << exponent.min(20))
        .clamp(1, MAX_BACKOFF_MS);
    let amplitude = base * JITTER_PERMILLE / 1000;
    if amplitude == 0 {
        return base;
    }
    // Hash in [0, 2*amplitude], centered on the capped base.
    base - amplitude + fxhash::hash_one(key) % (2 * amplitude + 1)
}

/// Crawler-visible host health (Section 4.2: hosts are tagged "slow"
/// after failures and "bad" — excluded — after repeated failures): the
/// paper's three tags, read off a host's breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostState {
    /// Responding normally.
    Good,
    /// Timed out or errored at least once; retries restricted.
    Slow,
    /// Exceeded the retry budget; excluded for the rest of the crawl.
    Bad,
}

/// Breaker position of one host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Requests flow normally.
    Closed,
    /// Tripped: requests are deferred until `until_ms`.
    Open {
        /// Virtual deadline after which a probe is allowed.
        until_ms: u64,
    },
    /// One probe request is in flight; its outcome decides the breaker.
    HalfOpen,
    /// Excluded for the rest of the crawl.
    Dead,
}

/// Full health record of one host (serializable for checkpoints).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HostHealth {
    /// Breaker position.
    pub state: BreakerState,
    /// Consecutive failures while closed.
    pub consecutive_failures: u32,
    /// Times the breaker has (re-)opened.
    pub open_cycles: u32,
    /// Lifetime failure count (diagnostics only).
    pub total_failures: u32,
}

impl Default for HostHealth {
    fn default() -> Self {
        HostHealth {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            open_cycles: 0,
            total_failures: 0,
        }
    }
}

/// What the crawler should do with a URL of this host right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostDecision {
    /// Breaker closed: fetch normally.
    Proceed,
    /// Breaker just moved to half-open: fetch as the probe.
    Probe,
    /// Breaker open: park the URL until the deadline.
    Defer {
        /// Virtual deadline to park until.
        until_ms: u64,
    },
    /// Host is excluded; drop the URL.
    Dead,
}

/// What a recorded failure did to the host's breaker (the caller turns
/// these into [`crate::CrawlStats`] counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureOutcome {
    /// Breaker still closed (threshold not reached).
    Counted,
    /// Breaker tripped open until the given deadline.
    Opened {
        /// Virtual deadline of the open period.
        until_ms: u64,
    },
    /// Breaker exhausted its cycles; the host is now dead.
    Died,
}

/// Per-host crawl health bookkeeping: circuit breakers plus the visited
/// set reported in Table 1.
#[derive(Debug, Default)]
pub struct HostManager {
    health: FxHashMap<String, HostHealth>,
    visited: FxHashSet<String>,
}

impl HostManager {
    /// Manager with every host healthy and none visited.
    pub fn new() -> Self {
        HostManager::default()
    }

    /// True when the host has been excluded for the rest of the crawl.
    pub fn is_bad(&self, host: &str) -> bool {
        matches!(
            self.health.get(host).map(|h| h.state),
            Some(BreakerState::Dead)
        )
    }

    /// Coarse host state for the store's host table: healthy hosts are
    /// good, hosts with failure history or an open breaker are slow,
    /// excluded hosts are bad.
    pub fn state(&self, host: &str) -> HostState {
        match self.health.get(host) {
            None => HostState::Good,
            Some(h) => match h.state {
                BreakerState::Dead => HostState::Bad,
                BreakerState::Open { .. } | BreakerState::HalfOpen => HostState::Slow,
                BreakerState::Closed => {
                    if h.consecutive_failures > 0 || h.open_cycles > 0 {
                        HostState::Slow
                    } else {
                        HostState::Good
                    }
                }
            },
        }
    }

    /// Breaker position of a host.
    pub fn breaker_state(&self, host: &str) -> BreakerState {
        self.health
            .get(host)
            .map(|h| h.state)
            .unwrap_or(BreakerState::Closed)
    }

    /// Gate a request to `host` at virtual time `now_ms`. An open
    /// breaker whose deadline has passed moves to half-open here and the
    /// caller gets [`HostDecision::Probe`] — exactly one probe, since
    /// the transition happens on the first call past the deadline.
    pub fn decide(&mut self, host: &str, now_ms: u64) -> HostDecision {
        let Some(h) = self.health.get_mut(host) else {
            return HostDecision::Proceed;
        };
        match h.state {
            BreakerState::Closed => HostDecision::Proceed,
            BreakerState::HalfOpen => HostDecision::Probe,
            BreakerState::Dead => HostDecision::Dead,
            BreakerState::Open { until_ms } => {
                if now_ms >= until_ms {
                    h.state = BreakerState::HalfOpen;
                    HostDecision::Probe
                } else {
                    HostDecision::Defer { until_ms }
                }
            }
        }
    }

    /// Record a successful fetch. A half-open breaker closes — the only
    /// transition back to closed — and the host's failure history
    /// resets. Also counts the host as visited (Table 1).
    /// Returns true when this success closed a breaker.
    pub fn record_success(&mut self, host: &str) -> bool {
        self.visited.insert(host.to_string());
        let Some(h) = self.health.get_mut(host) else {
            return false;
        };
        let closed = h.state == BreakerState::HalfOpen;
        if closed {
            h.state = BreakerState::Closed;
            h.open_cycles = 0;
        }
        if h.state == BreakerState::Closed {
            h.consecutive_failures = 0;
        }
        closed
    }

    /// Record a failed fetch/DNS attempt at virtual time `now_ms` and
    /// report what it did to the breaker.
    pub fn record_failure(&mut self, host: &str, now_ms: u64) -> FailureOutcome {
        let h = self.health.entry(host.to_string()).or_default();
        h.total_failures += 1;
        match h.state {
            BreakerState::Dead => FailureOutcome::Died,
            BreakerState::Closed => {
                h.consecutive_failures += 1;
                if h.consecutive_failures >= FAILURE_THRESHOLD {
                    Self::trip(h, host, now_ms)
                } else {
                    FailureOutcome::Counted
                }
            }
            // A failed probe re-opens with a longer deadline; a failure
            // reported while already open (a fetch that was in flight
            // when the breaker tripped) counts the same way.
            BreakerState::HalfOpen | BreakerState::Open { .. } => Self::trip(h, host, now_ms),
        }
    }

    fn trip(h: &mut HostHealth, host: &str, now_ms: u64) -> FailureOutcome {
        if h.open_cycles >= MAX_OPEN_CYCLES {
            h.state = BreakerState::Dead;
            return FailureOutcome::Died;
        }
        let until_ms = now_ms.saturating_add(backoff_ms(host, h.open_cycles));
        h.state = BreakerState::Open { until_ms };
        h.open_cycles += 1;
        h.consecutive_failures = 0;
        FailureOutcome::Opened { until_ms }
    }

    /// Number of distinct hosts successfully visited (Table 1).
    pub fn visited_count(&self) -> usize {
        self.visited.len()
    }

    /// Export current coarse states (for persistence into the host
    /// table).
    pub fn states(&self) -> impl Iterator<Item = (&str, HostState, u32)> + '_ {
        self.health
            .iter()
            .map(|(name, h)| (name.as_str(), self.state(name), h.total_failures))
    }

    /// Serializable snapshot: health records and visited hosts, sorted
    /// by hostname for byte-stable checkpoints.
    pub fn snapshot(&self) -> (Vec<(String, HostHealth)>, Vec<String>) {
        let mut health: Vec<(String, HostHealth)> = self
            .health
            .iter()
            .map(|(n, h)| (n.clone(), h.clone()))
            .collect();
        health.sort_by(|a, b| a.0.cmp(&b.0));
        let mut visited: Vec<String> = self.visited.iter().cloned().collect();
        visited.sort();
        (health, visited)
    }

    /// Rebuild a manager from a snapshot.
    pub fn restore(health: Vec<(String, HostHealth)>, visited: Vec<String>) -> Self {
        HostManager {
            health: health.into_iter().collect(),
            visited: visited.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_trips_breaker_open() {
        let mut m = HostManager::new();
        assert_eq!(m.decide("h", 0), HostDecision::Proceed);
        assert_eq!(m.record_failure("h", 10), FailureOutcome::Counted);
        assert_eq!(m.record_failure("h", 20), FailureOutcome::Counted);
        assert_eq!(m.state("h"), HostState::Slow);
        let until = 30 + backoff_ms("h", 0);
        assert_eq!(
            m.record_failure("h", 30),
            FailureOutcome::Opened { until_ms: until }
        );
        assert_eq!(
            m.decide("h", until - 1),
            HostDecision::Defer { until_ms: until }
        );
        assert!(!m.is_bad("h"));
    }

    #[test]
    fn open_becomes_half_open_probe_then_closed_on_success() {
        let mut m = HostManager::new();
        for t in 0..3 {
            m.record_failure("h", t * 10);
        }
        let probe_at = 20 + backoff_ms("h", 0);
        assert!(matches!(
            m.decide("h", probe_at - 1),
            HostDecision::Defer { .. }
        ));
        assert_eq!(m.decide("h", probe_at), HostDecision::Probe);
        assert_eq!(m.breaker_state("h"), BreakerState::HalfOpen);
        // Probe succeeds: breaker closes and history resets.
        assert!(m.record_success("h"));
        assert_eq!(m.breaker_state("h"), BreakerState::Closed);
        assert_eq!(m.decide("h", probe_at + 100), HostDecision::Proceed);
        // The reset is real: three fresh failures are needed to re-trip.
        assert_eq!(
            m.record_failure("h", probe_at + 200),
            FailureOutcome::Counted
        );
        assert_eq!(
            m.record_failure("h", probe_at + 210),
            FailureOutcome::Counted
        );
    }

    #[test]
    fn failed_probe_doubles_backoff_then_dies() {
        let mut m = HostManager::new();
        for t in 0..3 {
            m.record_failure("h", t);
        }
        let mut now = 2 + backoff_ms("h", 0);
        // Every failed probe re-opens with the next cycle's deadline
        // (base << cycle) until the cycles are spent.
        for cycle in 1..MAX_OPEN_CYCLES {
            assert_eq!(m.decide("h", now), HostDecision::Probe);
            let until = now + backoff_ms("h", cycle);
            assert_eq!(
                m.record_failure("h", now),
                FailureOutcome::Opened { until_ms: until }
            );
            now = until;
        }
        assert_eq!(m.decide("h", now), HostDecision::Probe);
        assert_eq!(m.record_failure("h", now), FailureOutcome::Died);
        assert!(m.is_bad("h"));
        assert_eq!(m.decide("h", u64::MAX), HostDecision::Dead);
        assert_eq!(m.state("h"), HostState::Bad);
        // At least the documented minimum open time passed.
        assert!(now >= 11_625, "host died at {now}");
    }

    #[test]
    fn success_only_closes_from_half_open() {
        let mut m = HostManager::new();
        for t in 0..3 {
            m.record_failure("h", t);
        }
        let open = m.breaker_state("h");
        assert!(matches!(open, BreakerState::Open { .. }));
        // A success recorded while open (e.g. a stale in-flight fetch)
        // does NOT close the breaker.
        assert!(!m.record_success("h"));
        assert_eq!(m.breaker_state("h"), open);
    }

    #[test]
    fn backoff_caps_and_jitters_deterministically() {
        // Cap: cycle 10 would be 500 << 10 without the ceiling.
        let capped = backoff_ms("h", 10);
        assert!(capped <= 75_000, "cap + jitter bound, got {capped}");
        assert!(capped >= 45_000, "cap - jitter bound, got {capped}");
        // Determinism and host spread.
        assert_eq!(backoff_ms("h", 0), backoff_ms("h", 0));
        let spread: std::collections::HashSet<u64> = (0..20)
            .map(|i| backoff_ms(&format!("host{i}"), 0))
            .collect();
        assert!(spread.len() > 1, "jitter must separate hosts");
    }

    #[test]
    fn success_counts_visited_hosts() {
        let mut m = HostManager::new();
        m.record_success("a");
        m.record_success("a");
        m.record_success("b");
        assert_eq!(m.visited_count(), 2);
    }

    #[test]
    fn independent_hosts() {
        let mut m = HostManager::new();
        for t in 0..3 {
            m.record_failure("x", t);
        }
        assert!(matches!(m.breaker_state("x"), BreakerState::Open { .. }));
        assert_eq!(m.state("y"), HostState::Good);
        assert_eq!(m.decide("y", 3), HostDecision::Proceed);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut m = HostManager::new();
        m.record_failure("x", 5);
        for t in 0..3 {
            m.record_failure("y", t);
        }
        m.record_success("a");
        let (health, visited) = m.snapshot();
        let r = HostManager::restore(health.clone(), visited.clone());
        assert_eq!(r.breaker_state("x"), m.breaker_state("x"));
        assert_eq!(r.breaker_state("y"), m.breaker_state("y"));
        assert_eq!(r.visited_count(), 1);
        let (h2, v2) = r.snapshot();
        assert_eq!(format!("{h2:?}"), format!("{health:?}"));
        assert_eq!(v2, visited);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2_000))]

        /// Over the full ranges of its inputs (magnitudes spread by a
        /// shift), a jittered backoff never overflows, lands within the
        /// capped base plus or minus its amplitude, and is the
        /// `base - amplitude + hash % (2 * amplitude + 1)` of the paper's
        /// breaker.
        #[test]
        fn jittered_backoff_never_overflows_and_stays_in_its_band(
            base_bits in proptest::prelude::any::<u64>(),
            base_shift in 0u32..64,
            exponent in proptest::prelude::any::<u32>(),
            key in proptest::prelude::any::<u64>(),
        ) {
            let base = base_bits >> base_shift;
            let got = jittered_backoff(base, exponent, &key);
            let capped = (u128::from(base) << exponent.min(20))
                .min(u128::from(MAX_BACKOFF_MS))
                .max(1) as u64;
            let amplitude = capped * JITTER_PERMILLE / 1000;
            proptest::prop_assert!(got + amplitude >= capped);
            proptest::prop_assert!(got <= capped + amplitude);
            let want = if amplitude == 0 {
                capped
            } else {
                capped - amplitude + fxhash::hash_one(&key) % (2 * amplitude + 1)
            };
            proptest::prop_assert_eq!(got, want);
        }
    }
}
