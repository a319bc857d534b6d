//! Distributed-crawl telemetry: `dist.*` metric handles and structured
//! events for the coordinator loop.
//!
//! Everything here derives from the virtual clock, seeds, and document
//! contents, so a same-seed chaos run produces byte-identical metric
//! snapshots and event logs — that identity is asserted by tests and
//! gated by the `dist` bench scenario.

use bingo_obs::{Counter, EventLog, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Metric and event handles for one [`crate::Coordinator`]. Cloning
/// shares the underlying registry and atomics.
#[derive(Clone)]
pub struct DistTelemetry {
    /// The registry the handles live in (shared with other subsystems
    /// when the caller wires a scenario-wide registry).
    pub registry: Arc<Registry>,
    /// Structured event log (node kills/restarts, snapshot commits,
    /// lease expiries, quarantines).
    pub events: Arc<EventLog>,
    /// Leases issued to worker nodes.
    pub lease_issued: Counter,
    /// Leases acked after a durable bulk-load.
    pub lease_acked: Counter,
    /// Leases expired past their virtual deadline.
    pub lease_expired: Counter,
    /// Items re-queued from expired leases.
    pub lease_requeued: Counter,
    /// Items quarantined after exhausting their poison budget.
    pub lease_quarantined: Counter,
    /// Items per issued lease.
    pub lease_batch_items: Arc<Histogram>,
    /// Whole-node kills applied from the fault plan.
    pub node_kills: Counter,
    /// Node restarts (store restored from the last committed cut).
    pub node_restarts: Counter,
    /// Whole-node stall windows applied.
    pub node_stalls: Counter,
    /// Completed items replayed because their node died before a
    /// snapshot cut.
    pub node_replayed: Counter,
    /// Worker nodes currently live.
    pub nodes_live: Gauge,
    /// Items pending across all shards.
    pub queue_pending: Gauge,
    /// Leases currently outstanding.
    pub queue_leased: Gauge,
    /// Successful fetches across all nodes.
    pub fetch_ok: Counter,
    /// Fetch errors across all nodes.
    pub fetch_err: Counter,
    /// Redirect responses across all nodes.
    pub fetch_redirect: Counter,
    /// Documents stored across all nodes.
    pub stored: Counter,
    /// Committed distributed snapshot generations.
    pub snapshot_commits: Counter,
    /// Bytes per committed generation (all node stores + journal +
    /// coordinator state).
    pub snapshot_bytes: Arc<Histogram>,
}

impl DistTelemetry {
    /// Register all `dist.*` metrics in `registry`, logging events to
    /// `events`.
    pub fn new(registry: Arc<Registry>, events: Arc<EventLog>) -> Self {
        DistTelemetry {
            lease_issued: registry.counter("dist.lease.issued"),
            lease_acked: registry.counter("dist.lease.acked"),
            lease_expired: registry.counter("dist.lease.expired"),
            lease_requeued: registry.counter("dist.lease.requeued"),
            lease_quarantined: registry.counter("dist.lease.quarantined"),
            lease_batch_items: registry.histogram("dist.lease.batch_items"),
            node_kills: registry.counter("dist.node.kills"),
            node_restarts: registry.counter("dist.node.restarts"),
            node_stalls: registry.counter("dist.node.stalls"),
            node_replayed: registry.counter("dist.node.replayed"),
            nodes_live: registry.gauge("dist.nodes.live"),
            queue_pending: registry.gauge("dist.queue.pending"),
            queue_leased: registry.gauge("dist.queue.leased"),
            fetch_ok: registry.counter("dist.fetch.ok"),
            fetch_err: registry.counter("dist.fetch.err"),
            fetch_redirect: registry.counter("dist.fetch.redirect"),
            stored: registry.counter("dist.stored"),
            snapshot_commits: registry.counter("dist.snapshot.commits"),
            snapshot_bytes: registry.histogram("dist.snapshot.bytes"),
            registry,
            events,
        }
    }

    /// Fold the lease queue's counter deltas in: gauges are
    /// overwritten, monotonic counters advance by the delta since
    /// `last` (which is updated to the current stats).
    pub fn record_queue(
        &self,
        queue: &crate::lease::LeaseQueue,
        last: &mut crate::lease::LeaseStats,
    ) {
        let now = queue.stats();
        self.lease_issued
            .add(now.issued.saturating_sub(last.issued));
        self.lease_acked.add(now.acked.saturating_sub(last.acked));
        self.lease_expired
            .add(now.expired.saturating_sub(last.expired));
        self.lease_requeued
            .add(now.requeued.saturating_sub(last.requeued));
        self.lease_quarantined
            .add(now.quarantined.saturating_sub(last.quarantined));
        self.queue_pending.set(queue.pending_total() as i64);
        self.queue_leased.set(queue.leased_total() as i64);
        *last = now;
    }
}

impl Default for DistTelemetry {
    fn default() -> Self {
        DistTelemetry::new(Arc::new(Registry::new()), Arc::new(EventLog::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::{LeaseQueue, LeaseStats, WorkItem};

    #[test]
    fn telemetry_registers_in_shared_registry() {
        let reg = Arc::new(Registry::new());
        let t = DistTelemetry::new(reg.clone(), Arc::new(EventLog::default()));
        t.node_kills.inc();
        t.nodes_live.set(3);
        t.lease_batch_items.observe(8);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["dist.node.kills"], 1);
        assert_eq!(snap.gauges["dist.nodes.live"], 3);
        assert_eq!(snap.histograms["dist.lease.batch_items"].count, 1);
    }

    #[test]
    fn queue_deltas_fold_monotonically() {
        let t = DistTelemetry::default();
        let mut q = LeaseQueue::new(1, 3, 100);
        let mut last = LeaseStats::default();
        q.offer(
            0,
            WorkItem {
                url: "http://a/1".into(),
                depth: 0,
                src_topic: None,
            },
        );
        let lease = q.lease(0, 4, 0).unwrap();
        t.record_queue(&q, &mut last);
        q.ack(lease.id);
        t.record_queue(&q, &mut last);
        // Folding twice after the ack must not double-count.
        t.record_queue(&q, &mut last);
        let snap = t.registry.snapshot();
        assert_eq!(snap.counters["dist.lease.issued"], 1);
        assert_eq!(snap.counters["dist.lease.acked"], 1);
        assert_eq!(snap.gauges["dist.queue.pending"], 0);
        assert_eq!(snap.gauges["dist.queue.leased"], 0);
    }
}
