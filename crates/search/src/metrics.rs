//! Search metrics: index size and query volume.
//!
//! Index dimensions and hit counts derive from the crawl database and
//! are deterministic.

use bingo_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Metric handles for one search engine. Cloning shares the underlying
/// registry and atomics.
#[derive(Clone)]
pub struct SearchMetrics {
    /// The registry the handles live in.
    pub registry: Arc<Registry>,
    /// Documents in the inverted index.
    pub index_docs: Gauge,
    /// Distinct terms with postings.
    pub index_terms: Gauge,
    /// Queries executed.
    pub queries: Counter,
    /// Results returned per query.
    pub hits_per_query: Arc<Histogram>,
}

impl SearchMetrics {
    /// Register all search metrics in `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        SearchMetrics {
            index_docs: registry.gauge("search.index.docs"),
            index_terms: registry.gauge("search.index.terms"),
            queries: registry.counter("search.query.count"),
            hits_per_query: registry.histogram("search.query.hits"),
            registry,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_register_expected_names() {
        let reg = Arc::new(Registry::new());
        let m = SearchMetrics::new(reg.clone());
        m.queries.inc();
        m.index_docs.set(12);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["search.query.count"], 1);
        assert_eq!(snap.gauges["search.index.docs"], 12);
    }
}
