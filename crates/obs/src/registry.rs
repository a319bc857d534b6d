//! The metrics registry: named counters, gauges and histograms with
//! deterministic snapshots.

use crate::histogram::{Histogram, HistogramSnapshot};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic; increments are relaxed and therefore lock-free.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed instantaneous value (queue depths, pool sizes).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<Histogram>),
}

impl Slot {
    fn kind(&self) -> &'static str {
        match self {
            Slot::Counter(_) => "counter",
            Slot::Gauge(_) => "gauge",
            Slot::Histogram(_) => "histogram",
        }
    }
}

/// A namespace of metrics. The registry lock is taken only on handle
/// creation and snapshotting; observations go straight to the shared
/// atomics behind the handles.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Slot>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn entry<T: Clone>(
        &self,
        name: &str,
        make: impl FnOnce() -> Slot,
        view: impl Fn(&Slot) -> Option<T>,
    ) -> T {
        let mut metrics = self.metrics.lock();
        let slot = metrics.entry(name.to_string()).or_insert_with(make);
        view(slot)
            .unwrap_or_else(|| panic!("metric {name:?} already registered as a {}", slot.kind()))
    }

    /// Get or register a deterministic counter.
    pub fn counter(&self, name: &str) -> Counter {
        self.entry(
            name,
            || Slot::Counter(Counter::default()),
            |s| match s {
                Slot::Counter(c) => Some(c.clone()),
                _ => None,
            },
        )
    }

    /// Get or register a deterministic gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.entry(
            name,
            || Slot::Gauge(Gauge::default()),
            |s| match s {
                Slot::Gauge(g) => Some(g.clone()),
                _ => None,
            },
        )
    }

    /// Get or register a deterministic histogram — for values derived
    /// from the virtual clock or document contents.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.entry(
            name,
            || Slot::Histogram(Arc::new(Histogram::new())),
            |s| match s {
                Slot::Histogram(h) => Some(h.clone()),
                _ => None,
            },
        )
    }

    /// Freeze every metric into a serializable snapshot. Keys iterate
    /// in sorted order, so serialization is byte-stable.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock();
        let mut snap = MetricsSnapshot::default();
        for (name, slot) in metrics.iter() {
            match slot {
                Slot::Counter(c) => {
                    snap.counters.insert(name.clone(), c.get());
                }
                Slot::Gauge(g) => {
                    snap.gauges.insert(name.clone(), g.get());
                }
                Slot::Histogram(h) => {
                    snap.histograms.insert(name.clone(), h.snapshot());
                }
            }
        }
        snap
    }
}

/// Frozen registry state. Every metric is seed-derived, so two
/// same-seed runs must serialize this to identical bytes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Pretty JSON rendering (sorted keys → byte-stable).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x.count");
        let b = reg.counter("x.count");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("x.count").get(), 3);

        let g = reg.gauge("x.depth");
        g.set(7);
        g.add(-2);
        assert_eq!(reg.gauge("x.depth").get(), 5);

        reg.histogram("x.hist").observe(9);
        assert_eq!(reg.histogram("x.hist").count(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn snapshot_is_sorted_and_byte_stable() {
        let run = || {
            let reg = Registry::new();
            // Registration order intentionally unsorted.
            reg.counter("z.last").add(5);
            reg.histogram("m.mid").observe(100);
            reg.counter("a.first").inc();
            reg.gauge("g.depth").set(-3);
            reg.snapshot().to_json()
        };
        let j1 = run();
        let j2 = run();
        assert_eq!(j1, j2);
        let a = j1.find("a.first").unwrap();
        let z = j1.find("z.last").unwrap();
        assert!(a < z, "keys must serialize sorted");
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let reg = Registry::new();
        reg.counter("c").add(4);
        reg.histogram("h").observe(77);
        let snap = reg.snapshot();
        let back: MetricsSnapshot = serde_json::from_str(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }
}
