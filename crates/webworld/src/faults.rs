//! Deterministic fault injection: scripted failure windows per host.
//!
//! The base world models *static* host pathologies (slow, flaky, dead —
//! Section 4.2). Real crawls additionally hit *transient* trouble: a
//! server throws 5xx for ten minutes and recovers, a saturated uplink
//! drips bytes until clients time out, a load balancer truncates bodies,
//! DNS flaps, a misconfigured rewrite rule loops redirects. This module
//! scripts such episodes as virtual-time windows per host, derived
//! entirely from the world seed, so a "chaotic" crawl is exactly
//! reproducible: same seed, same outages, same recovery times.
//!
//! The crawler never sees this plan directly — faults manifest only
//! through [`crate::World::fetch_at`] and [`crate::World::dns_lookup_at`]
//! outcomes, the same way a real crawler only sees socket behaviour.
//!
//! The script itself, [`FaultScript`], is generic over what it keys
//! (hosts here, worker nodes in [`crate::nodefaults`]) and what a window
//! does; each kind brings its own profile, seed salt and kind sampler.

use bingo_graph::HostId;
use bingo_textproc::fxhash::FxHashMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hash::Hash;

/// What a host does to requests while a fault window is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Connections hang until the client times out (full outage).
    Outage,
    /// Every request is answered with this 5xx status.
    ErrorBurst {
        /// HTTP status served (500..=504).
        status: u16,
    },
    /// Responses arrive, but transfer slows by this factor; transfers
    /// that would exceed the client timeout fail as timeouts.
    SlowDrip {
        /// Latency multiplier.
        factor: u32,
    },
    /// Bodies are cut short: only `keep_permille`/1000 of the payload is
    /// delivered while the full content length is still advertised, so
    /// clients can detect the truncation.
    Truncate {
        /// Delivered fraction of the body, in per-mille.
        keep_permille: u16,
    },
    /// Bodies arrive complete but corrupted (undetectable at transfer
    /// time; downstream parsing sees garbage).
    Garble,
    /// Authoritative DNS stops answering (lookups time out on every
    /// server); cached resolutions keep working.
    DnsFlap,
    /// Every page answers with a redirect into an endless synthetic
    /// chain (a rewrite-rule loop).
    RedirectLoop,
}

/// One scripted fault episode: `kind` holds during `[start_ms, end_ms)`
/// of virtual time, then the host (or node) recovers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultWindow<K = FaultKind> {
    /// First virtual millisecond the fault is active.
    pub start_ms: u64,
    /// First virtual millisecond after recovery.
    pub end_ms: u64,
    /// Failure mode during the window.
    pub kind: K,
}

impl<K> FaultWindow<K> {
    /// True while the window is active.
    pub fn contains(&self, now_ms: u64) -> bool {
        self.start_ms <= now_ms && now_ms < self.end_ms
    }
}

/// Parameters for seeding a fault script over a generated world.
#[derive(Debug, Clone)]
pub struct FaultProfile {
    /// Fraction of hosts that receive a fault script.
    pub host_fraction: f64,
    /// Maximum scripted windows per faulty host (at least one).
    pub max_windows_per_host: u32,
    /// Windows are scheduled within `[0, horizon_ms)` of virtual time.
    pub horizon_ms: u64,
    /// Minimum and maximum window duration in virtual milliseconds.
    pub window_ms: (u64, u64),
}

impl Default for FaultProfile {
    fn default() -> Self {
        FaultProfile {
            host_fraction: 0.35,
            max_windows_per_host: 3,
            horizon_ms: 900_000,
            window_ms: (5_000, 60_000),
        }
    }
}

impl FaultProfile {
    /// An aggressive profile for chaos tests: most hosts fault, windows
    /// come early and often relative to a short crawl. The horizon is
    /// matched to the small-test worlds, whose crawls span roughly
    /// 40-60 virtual seconds — windows scheduled much later than that
    /// would never be observed.
    pub fn chaos() -> Self {
        FaultProfile {
            host_fraction: 0.6,
            max_windows_per_host: 4,
            horizon_ms: 60_000,
            window_ms: (2_000, 12_000),
        }
    }
}

/// A fault script: per-key windows (keys are hosts or worker nodes),
/// each key's script sorted by start time. Empty by default (worlds
/// without a configured profile behave exactly as before).
#[derive(Debug, Clone)]
pub struct FaultScript<Key, Kind> {
    windows: FxHashMap<Key, Vec<FaultWindow<Kind>>>,
}

/// The fault script of a world's hosts.
pub type FaultPlan = FaultScript<HostId, FaultKind>;

impl<Key, Kind> Default for FaultScript<Key, Kind> {
    fn default() -> Self {
        FaultScript {
            windows: FxHashMap::default(),
        }
    }
}

impl<Key: Copy + Eq + Hash, Kind> FaultScript<Key, Kind> {
    /// A script with no faults.
    pub fn empty() -> Self {
        Self::default()
    }

    /// True when no key has a fault script.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Number of keys with at least one scripted window.
    pub fn faulty(&self) -> usize {
        self.windows.len()
    }

    /// Script `keys` in order from an RNG seeded with `seed`: each key is
    /// faulty with probability `fraction` and then gets one to
    /// `max_windows` windows inside `[0, horizon_ms)`, each lasting
    /// within `window_ms`, with `sample_kind` choosing each window's mode.
    pub(crate) fn generate_with(
        seed: u64,
        keys: impl Iterator<Item = Key>,
        fraction: f64,
        max_windows: u32,
        horizon_ms: u64,
        window_ms: (u64, u64),
        mut sample_kind: impl FnMut(&mut SmallRng) -> Kind,
    ) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut script = Self::default();
        let (min_len, max_len) = window_ms;
        let max_len = max_len.max(min_len + 1);
        for key in keys {
            if !rng.gen_bool(fraction.clamp(0.0, 1.0)) {
                continue;
            }
            let n = rng.gen_range(1..=max_windows.max(1));
            // Windows are laid out sequentially with gaps, so a key's
            // episodes never overlap and recovery phases exist between
            // them.
            let mut t = rng.gen_range(0..horizon_ms.max(2) / 2);
            for _ in 0..n {
                if t >= horizon_ms {
                    break;
                }
                let len = rng.gen_range(min_len..max_len);
                let kind = sample_kind(&mut rng);
                script.insert_window(
                    key,
                    FaultWindow {
                        start_ms: t,
                        end_ms: t + len,
                        kind,
                    },
                );
                t += len + rng.gen_range(min_len..max_len * 2);
            }
        }
        script
    }

    /// Add one window to a key's script (scenario overlays and tests use
    /// this for hand-authored episodes). Keeps the script sorted by start
    /// time.
    pub fn insert_window(&mut self, key: Key, window: FaultWindow<Kind>) {
        let script = self.windows.entry(key).or_default();
        script.push(window);
        script.sort_by_key(|w| w.start_ms);
    }

    /// The fault active on `key` at `now_ms`, if any.
    pub fn active(&self, key: Key, now_ms: u64) -> Option<&FaultWindow<Kind>> {
        self.windows.get(&key)?.iter().find(|w| w.contains(now_ms))
    }

    /// The first window of `key` that *starts* in `[from_ms, to_ms)` —
    /// how a coordinator discovers that a kill lands inside a node's
    /// current processing span.
    pub fn event_at(&self, key: Key, from_ms: u64, to_ms: u64) -> Option<&FaultWindow<Kind>> {
        self.windows
            .get(&key)?
            .iter()
            .find(|w| from_ms <= w.start_ms && w.start_ms < to_ms)
    }

    /// The full script of a key (empty for healthy keys).
    pub fn windows_for(&self, key: Key) -> &[FaultWindow<Kind>] {
        self.windows.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }
}

impl FaultPlan {
    /// Generate the script for `host_count` hosts. Pure function of the
    /// arguments: the same seed and profile always produce the same
    /// schedule.
    pub fn generate(seed: u64, host_count: usize, profile: &FaultProfile) -> Self {
        Self::generate_with(
            seed ^ 0x000F_A017_C4A0_5BAD,
            0..host_count as HostId,
            profile.host_fraction,
            profile.max_windows_per_host,
            profile.horizon_ms,
            profile.window_ms,
            sample_kind,
        )
    }
}

fn sample_kind(rng: &mut SmallRng) -> FaultKind {
    match rng.gen_range(0u32..7) {
        0 => FaultKind::Outage,
        1 => FaultKind::ErrorBurst {
            status: 500 + rng.gen_range(0u16..4),
        },
        2 => FaultKind::SlowDrip {
            factor: rng.gen_range(4u32..16),
        },
        3 => FaultKind::Truncate {
            keep_permille: rng.gen_range(100u16..800),
        },
        4 => FaultKind::Garble,
        5 => FaultKind::DnsFlap,
        _ => FaultKind::RedirectLoop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = FaultProfile::chaos();
        let a = FaultPlan::generate(99, 40, &p);
        let b = FaultPlan::generate(99, 40, &p);
        for h in 0..40 {
            assert_eq!(a.windows_for(h), b.windows_for(h), "host {h}");
        }
        let c = FaultPlan::generate(100, 40, &p);
        let differs = (0..40).any(|h| a.windows_for(h) != c.windows_for(h));
        assert!(differs, "different seeds must differ");
    }

    #[test]
    fn windows_are_sorted_and_disjoint_per_host() {
        let plan = FaultPlan::generate(7, 60, &FaultProfile::chaos());
        assert!(plan.faulty() > 10, "chaos profile faults most hosts");
        for h in 0..60 {
            let ws = plan.windows_for(h);
            for w in ws {
                assert!(w.start_ms < w.end_ms);
            }
            for pair in ws.windows(2) {
                assert!(pair[0].end_ms <= pair[1].start_ms, "overlap on host {h}");
            }
        }
    }

    #[test]
    fn active_lookup_matches_windows() {
        let mut plan = FaultPlan::empty();
        plan.insert_window(
            3,
            FaultWindow {
                start_ms: 100,
                end_ms: 200,
                kind: FaultKind::Outage,
            },
        );
        plan.insert_window(
            3,
            FaultWindow {
                start_ms: 50,
                end_ms: 80,
                kind: FaultKind::Garble,
            },
        );
        assert_eq!(plan.active(3, 60).unwrap().kind, FaultKind::Garble);
        assert!(plan.active(3, 90).is_none());
        assert_eq!(plan.active(3, 100).unwrap().kind, FaultKind::Outage);
        assert!(plan.active(3, 200).is_none(), "end is exclusive");
        assert!(plan.active(4, 60).is_none(), "other hosts unaffected");
        assert_eq!(plan.windows_for(3)[0].kind, FaultKind::Garble, "sorted");
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::empty();
        assert!(plan.is_empty());
        assert_eq!(plan.faulty(), 0);
        assert!(plan.active(0, 0).is_none());
    }
}
