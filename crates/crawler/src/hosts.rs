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
//! * **Closed** — requests flow. `failure_threshold` *consecutive*
//!   failures trip the breaker.
//! * **Open** — requests are deferred until a deadline computed by
//!   exponential backoff (`base << cycles`, capped, ± deterministic
//!   jitter so hosts don't thunder-herd on the same virtual tick).
//! * **Half-open** — after the deadline one *probe* request is let
//!   through. Success closes the breaker (the only path back to
//!   closed); failure re-opens it with a doubled deadline.
//! * **Dead** — after `max_open_cycles` re-opens the host is excluded
//!   for the rest of the crawl, which recovers the paper's "tagged as
//!   bad" terminal state.
//!
//! All timing uses the crawl's virtual clock and all jitter is hashed
//! from `(host, cycle)`, so chaos crawls replay identically per seed.

use bingo_textproc::fxhash::{self, FxHashMap, FxHashSet};
use serde::{Deserialize, Serialize};
use std::hash::Hash;

/// Circuit-breaker tuning. Defaults keep the paper's "3 strikes"
/// threshold while adding recovery.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BreakerConfig {
    /// Consecutive failures that trip a closed breaker (paper: 3).
    pub failure_threshold: u32,
    /// First open deadline, in virtual ms.
    pub base_backoff_ms: u64,
    /// Ceiling on the open deadline.
    pub max_backoff_ms: u64,
    /// Jitter amplitude around the deadline, in per-mille of it.
    pub jitter_permille: u16,
    /// Open→half-open→open round trips before the host is declared dead.
    pub max_open_cycles: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            base_backoff_ms: 500,
            max_backoff_ms: 60_000,
            jitter_permille: 250,
            max_open_cycles: 5,
        }
    }
}

impl BreakerConfig {
    /// The open deadline duration for a given re-open cycle.
    fn backoff_ms(&self, host: &str, cycle: u32) -> u64 {
        self.jittered_backoff(self.base_backoff_ms, cycle, &(host, cycle, 0xB4C0u32))
    }

    /// `base << exponent` (an exponent of at most 20), capped by
    /// `max_backoff_ms`, at least 1, then moved by up to
    /// `jitter_permille` of itself either way by a hash of `key`, so that
    /// co-failing hosts or URLs do not retry in lockstep.
    pub(crate) fn jittered_backoff(&self, base: u64, exponent: u32, key: &impl Hash) -> u64 {
        let base = base
            .checked_shl(exponent.min(20))
            .unwrap_or(u64::MAX)
            .min(self.max_backoff_ms)
            .max(1);
        let amplitude = base * self.jitter_permille as u64 / 1000;
        if amplitude == 0 {
            return base;
        }
        // Hash in [0, 2*amplitude], centered on the capped base.
        base - amplitude + fxhash::hash_one(key) % (2 * amplitude + 1)
    }
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
    config: BreakerConfig,
}

impl HostManager {
    /// Manager with the paper-style threshold of `max_retries`
    /// consecutive failures and default breaker timing.
    pub fn new(max_retries: u32) -> Self {
        HostManager::with_config(BreakerConfig {
            failure_threshold: max_retries.max(1),
            ..BreakerConfig::default()
        })
    }

    /// Manager with explicit breaker tuning.
    pub fn with_config(config: BreakerConfig) -> Self {
        HostManager {
            health: FxHashMap::default(),
            visited: FxHashSet::default(),
            config,
        }
    }

    /// The breaker tuning in effect.
    pub fn config(&self) -> &BreakerConfig {
        &self.config
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
        let config = self.config.clone();
        let h = self.health.entry(host.to_string()).or_default();
        h.total_failures += 1;
        match h.state {
            BreakerState::Dead => FailureOutcome::Died,
            BreakerState::Closed => {
                h.consecutive_failures += 1;
                if h.consecutive_failures >= config.failure_threshold {
                    Self::trip(h, host, now_ms, &config)
                } else {
                    FailureOutcome::Counted
                }
            }
            // A failed probe re-opens with a longer deadline; a failure
            // reported while already open (a fetch that was in flight
            // when the breaker tripped) counts the same way.
            BreakerState::HalfOpen | BreakerState::Open { .. } => {
                Self::trip(h, host, now_ms, &config)
            }
        }
    }

    fn trip(h: &mut HostHealth, host: &str, now_ms: u64, config: &BreakerConfig) -> FailureOutcome {
        if h.open_cycles >= config.max_open_cycles {
            h.state = BreakerState::Dead;
            return FailureOutcome::Died;
        }
        let until_ms = now_ms + config.backoff_ms(host, h.open_cycles);
        h.state = BreakerState::Open { until_ms };
        h.open_cycles += 1;
        h.consecutive_failures = 0;
        FailureOutcome::Opened { until_ms }
    }

    /// Whether requests to this host can still eventually succeed.
    pub fn retries_left(&self, host: &str) -> bool {
        !self.is_bad(host)
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
    pub fn restore(
        config: BreakerConfig,
        health: Vec<(String, HostHealth)>,
        visited: Vec<String>,
    ) -> Self {
        HostManager {
            health: health.into_iter().collect(),
            visited: visited.into_iter().collect(),
            config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            base_backoff_ms: 1000,
            max_backoff_ms: 8000,
            jitter_permille: 0, // deterministic deadlines for assertions
            max_open_cycles: 2,
        }
    }

    #[test]
    fn threshold_trips_breaker_open() {
        let mut m = HostManager::with_config(cfg());
        assert_eq!(m.decide("h", 0), HostDecision::Proceed);
        assert_eq!(m.record_failure("h", 10), FailureOutcome::Counted);
        assert_eq!(m.record_failure("h", 20), FailureOutcome::Counted);
        assert_eq!(m.state("h"), HostState::Slow);
        match m.record_failure("h", 30) {
            FailureOutcome::Opened { until_ms } => assert_eq!(until_ms, 1030),
            o => panic!("{o:?}"),
        }
        assert_eq!(m.decide("h", 500), HostDecision::Defer { until_ms: 1030 });
        assert!(!m.is_bad("h"));
    }

    #[test]
    fn open_becomes_half_open_probe_then_closed_on_success() {
        let mut m = HostManager::with_config(cfg());
        for t in 0..3 {
            m.record_failure("h", t * 10);
        }
        assert_eq!(m.decide("h", 2000), HostDecision::Probe);
        assert_eq!(m.breaker_state("h"), BreakerState::HalfOpen);
        // Probe succeeds: breaker closes and history resets.
        assert!(m.record_success("h"));
        assert_eq!(m.breaker_state("h"), BreakerState::Closed);
        assert_eq!(m.decide("h", 2100), HostDecision::Proceed);
        // The reset is real: three fresh failures are needed to re-trip.
        assert_eq!(m.record_failure("h", 2200), FailureOutcome::Counted);
        assert_eq!(m.record_failure("h", 2210), FailureOutcome::Counted);
    }

    #[test]
    fn failed_probe_doubles_backoff_then_dies() {
        let mut m = HostManager::with_config(cfg());
        for t in 0..3 {
            m.record_failure("h", t);
        }
        assert_eq!(m.decide("h", 1500), HostDecision::Probe);
        match m.record_failure("h", 1500) {
            // Second cycle: base << 1.
            FailureOutcome::Opened { until_ms } => assert_eq!(until_ms, 1500 + 2000),
            o => panic!("{o:?}"),
        }
        assert_eq!(m.decide("h", 4000), HostDecision::Probe);
        // max_open_cycles = 2 exhausted: the host dies.
        assert_eq!(m.record_failure("h", 4000), FailureOutcome::Died);
        assert!(m.is_bad("h"));
        assert!(!m.retries_left("h"));
        assert_eq!(m.decide("h", 9999), HostDecision::Dead);
        assert_eq!(m.state("h"), HostState::Bad);
    }

    #[test]
    fn success_only_closes_from_half_open() {
        let mut m = HostManager::with_config(cfg());
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
        let c = BreakerConfig {
            base_backoff_ms: 1000,
            max_backoff_ms: 4000,
            jitter_permille: 250,
            ..BreakerConfig::default()
        };
        // Cap: cycle 10 would be 1000 << 10 without the ceiling.
        let capped = c.backoff_ms("h", 10);
        assert!(capped <= 5000, "cap + jitter bound, got {capped}");
        assert!(capped >= 3000, "cap - jitter bound, got {capped}");
        // Determinism and host spread.
        assert_eq!(c.backoff_ms("h", 0), c.backoff_ms("h", 0));
        let spread: std::collections::HashSet<u64> = (0..20)
            .map(|i| c.backoff_ms(&format!("host{i}"), 0))
            .collect();
        assert!(spread.len() > 1, "jitter must separate hosts");
    }

    #[test]
    fn success_counts_visited_hosts() {
        let mut m = HostManager::new(3);
        m.record_success("a");
        m.record_success("a");
        m.record_success("b");
        assert_eq!(m.visited_count(), 2);
    }

    #[test]
    fn independent_hosts() {
        let mut m = HostManager::with_config(BreakerConfig {
            failure_threshold: 1,
            max_open_cycles: 0,
            ..cfg()
        });
        assert_eq!(m.record_failure("x", 0), FailureOutcome::Died);
        assert!(m.is_bad("x"));
        assert!(!m.is_bad("y"));
        assert_eq!(m.state("y"), HostState::Good);
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut m = HostManager::with_config(cfg());
        m.record_failure("x", 5);
        for t in 0..3 {
            m.record_failure("y", t);
        }
        m.record_success("a");
        let (health, visited) = m.snapshot();
        let r = HostManager::restore(cfg(), health.clone(), visited.clone());
        assert_eq!(r.breaker_state("x"), m.breaker_state("x"));
        assert_eq!(r.breaker_state("y"), m.breaker_state("y"));
        assert_eq!(r.visited_count(), 1);
        let (h2, v2) = r.snapshot();
        assert_eq!(format!("{h2:?}"), format!("{health:?}"));
        assert_eq!(v2, visited);
    }
}
