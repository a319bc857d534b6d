//! Portal-service metrics: request volume and result sizes.
//!
//! Request and hit counts are deterministic under a deterministic
//! request schedule (the virtual-clock load generator).

use bingo_obs::{Counter, Histogram, Registry};
use std::sync::Arc;

/// Metric handles for one portal service. Cloning shares the underlying
/// atomics.
#[derive(Clone)]
pub struct ServeMetrics {
    /// Keyword queries served.
    pub queries: Counter,
    /// Topic-browse requests served.
    pub browses: Counter,
    /// Stats requests served.
    pub stats: Counter,
    /// Resolved terms per query.
    pub query_terms: Arc<Histogram>,
    /// Results returned per query.
    pub query_hits: Arc<Histogram>,
}

impl std::fmt::Debug for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ServeMetrics")
    }
}

impl ServeMetrics {
    /// Register the portal metrics in `registry`.
    pub fn new(registry: &Registry) -> Self {
        ServeMetrics {
            queries: registry.counter("serve.query.count"),
            browses: registry.counter("serve.browse.count"),
            stats: registry.counter("serve.stats.count"),
            query_terms: registry.histogram("serve.query.terms"),
            query_hits: registry.histogram("serve.query.hits"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_register_expected_names() {
        let reg = Registry::new();
        let m = ServeMetrics::new(&reg);
        m.queries.inc();
        m.query_hits.observe(3);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["serve.query.count"], 1);
        assert!(snap.histograms.contains_key("serve.query.hits"));
    }
}
