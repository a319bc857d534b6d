//! Crawl telemetry: metric handles and structured events for the
//! discrete-event crawl loop.
//!
//! Every [`crate::Crawler`] owns a [`CrawlTelemetry`] — by default over a
//! private registry, or over a shared one via
//! [`crate::Crawler::set_telemetry`] so a whole scenario (crawl + engine +
//! index) lands in a single snapshot. All metric values here derive from
//! the virtual clock and document contents. Events record only rare
//! transitions (breaker state changes, checkpoint writes), so logs stay
//! small and byte-identical across same-seed runs.

use crate::lookahead::LookaheadMetrics;
use crate::pipeline::PipelineMetrics;
use bingo_obs::{Counter, EventLog, Gauge, Histogram, Registry};
use bingo_textproc::TextprocMetrics;
use std::sync::Arc;

/// Metric and event handles for one crawler. Cloning shares the
/// underlying registry and atomics.
#[derive(Clone)]
pub struct CrawlTelemetry {
    /// The registry the handles live in (shared with other subsystems
    /// when the caller wires a scenario-wide registry).
    pub registry: Arc<Registry>,
    /// Structured event log (breaker transitions, checkpoints).
    pub events: Arc<EventLog>,
    /// Successful fetches.
    pub fetch_ok: Counter,
    /// Fetch errors (DNS, network, truncation).
    pub fetch_err: Counter,
    /// Redirect responses.
    pub fetch_redirect: Counter,
    /// Bodies shorter than the advertised size.
    pub fetch_truncated: Counter,
    /// Virtual fetch latency (ms) of successful fetches.
    pub fetch_latency_ms: Arc<Histogram>,
    /// URLs pushed into the frontier.
    pub frontier_push: Counter,
    /// URLs popped for processing.
    pub frontier_pop: Counter,
    /// URLs parked for backoff (breaker or retry).
    pub frontier_park: Counter,
    /// Current frontier depth.
    pub frontier_depth: Gauge,
    /// Bytes of the frontier's resident entries
    /// ([`crate::Frontier::resident_bytes`]).
    pub frontier_bytes: Gauge,
    /// Breakers tripped open.
    pub breaker_opened: Counter,
    /// Breakers recovered to closed.
    pub breaker_closed: Counter,
    /// Half-open probe fetches issued.
    pub breaker_probes: Counter,
    /// Hosts declared dead after exhausting open cycles.
    pub breaker_dead: Counter,
    /// Backoff retries scheduled.
    pub retries: Counter,
    /// Backoff delay distribution (virtual ms).
    pub retry_backoff_ms: Arc<Histogram>,
    /// Documents stored.
    pub stored: Counter,
    /// Checkpoint sessions written.
    pub checkpoints: Counter,
    /// Bytes per checkpoint session (store + crawler files).
    pub checkpoint_bytes: Arc<Histogram>,
    /// Old checkpoint generations pruned after successful saves.
    pub checkpoint_pruned: Counter,
    /// Batch panics caught by the threaded executor's workers.
    pub worker_panics: Counter,
    /// Solo re-runs of items that rode in a panicked batch.
    pub worker_requeued: Counter,
    /// URLs quarantined after exhausting their poison budget.
    pub worker_quarantined: Counter,
    /// Document-analysis metrics (tokenize/vectorize volume and cost).
    pub textproc: TextprocMetrics,
    /// Per-stage document-pipeline metrics (queue depths, batch sizes,
    /// stage latencies).
    pub pipeline: PipelineMetrics,
    /// Fingerprints held by the duplicate filter
    /// ([`crate::dedup::Dedup::fingerprints`]).
    pub dedup_hot: Gauge,
    /// Speculative-lookahead counters (all zero unless the crawl runs
    /// through [`crate::Crawler::crawl_ahead`]).
    pub lookahead: LookaheadMetrics,
}

impl CrawlTelemetry {
    /// Register all crawl metrics in `registry`, logging events to
    /// `events`.
    pub fn new(registry: Arc<Registry>, events: Arc<EventLog>) -> Self {
        CrawlTelemetry {
            fetch_ok: registry.counter("crawl.fetch.ok"),
            fetch_err: registry.counter("crawl.fetch.err"),
            fetch_redirect: registry.counter("crawl.fetch.redirect"),
            fetch_truncated: registry.counter("crawl.fetch.truncated"),
            fetch_latency_ms: registry.histogram("crawl.fetch.latency_ms"),
            frontier_push: registry.counter("crawl.frontier.push"),
            frontier_pop: registry.counter("crawl.frontier.pop"),
            frontier_park: registry.counter("crawl.frontier.park"),
            frontier_depth: registry.gauge("crawl.frontier.depth"),
            frontier_bytes: registry.gauge("crawl.frontier.resident_bytes"),
            breaker_opened: registry.counter("crawl.breaker.opened"),
            breaker_closed: registry.counter("crawl.breaker.closed"),
            breaker_probes: registry.counter("crawl.breaker.probes"),
            breaker_dead: registry.counter("crawl.breaker.dead"),
            retries: registry.counter("crawl.retry.count"),
            retry_backoff_ms: registry.histogram("crawl.retry.backoff_ms"),
            stored: registry.counter("crawl.stored"),
            checkpoints: registry.counter("crawl.checkpoint.count"),
            checkpoint_bytes: registry.histogram("crawl.checkpoint.bytes"),
            checkpoint_pruned: registry.counter("crawl.checkpoint.pruned"),
            worker_panics: registry.counter("crawl.worker.panics"),
            worker_requeued: registry.counter("crawl.worker.requeued"),
            worker_quarantined: registry.counter("crawl.worker.quarantined"),
            textproc: TextprocMetrics::new(registry.clone()),
            pipeline: PipelineMetrics::new(&registry),
            dedup_hot: registry.gauge("crawl.dedup.hot"),
            lookahead: LookaheadMetrics::new(&registry),
            registry,
            events,
        }
    }
}

impl Default for CrawlTelemetry {
    fn default() -> Self {
        CrawlTelemetry::new(Arc::new(Registry::new()), Arc::new(EventLog::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn telemetry_registers_in_shared_registry() {
        let reg = Arc::new(Registry::new());
        let t = CrawlTelemetry::new(reg.clone(), Arc::new(EventLog::default()));
        t.fetch_ok.inc();
        t.frontier_depth.set(4);
        t.fetch_latency_ms.observe(120);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["crawl.fetch.ok"], 1);
        assert_eq!(snap.gauges["crawl.frontier.depth"], 4);
        assert_eq!(snap.histograms["crawl.fetch.latency_ms"].count, 1);
    }

    #[test]
    fn clones_share_atomics() {
        let t = CrawlTelemetry::default();
        let u = t.clone();
        t.stored.inc();
        u.stored.inc();
        assert_eq!(t.registry.snapshot().counters["crawl.stored"], 2);
    }
}
