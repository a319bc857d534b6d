//! Text-processing metrics: document analysis volume.
//!
//! Term, token and link counts derive from document contents and are
//! deterministic.

use crate::{analyze_html, AnalyzedDocument, Interner};
use bingo_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::Arc;

/// Metric handles for HTML analysis. Cloning shares the underlying
/// registry and atomics.
#[derive(Clone)]
pub struct TextprocMetrics {
    /// The registry the handles live in.
    pub registry: Arc<Registry>,
    /// Documents analyzed.
    pub docs: Counter,
    /// Stemmed, stopword-free terms produced.
    pub terms: Counter,
    /// Hyperlinks extracted.
    pub links: Counter,
    /// Terms per document.
    pub terms_per_doc: Arc<Histogram>,
    /// Current vocabulary size.
    pub vocab_size: Gauge,
}

impl TextprocMetrics {
    /// Register all text-processing metrics in `registry`.
    pub fn new(registry: Arc<Registry>) -> Self {
        TextprocMetrics {
            docs: registry.counter("textproc.docs"),
            terms: registry.counter("textproc.terms"),
            links: registry.counter("textproc.links"),
            terms_per_doc: registry.histogram("textproc.terms_per_doc"),
            vocab_size: registry.gauge("textproc.vocab_size"),
            registry,
        }
    }

    /// Roll one analyzed document into the counters. `vocab_size` is the
    /// interner's current distinct-term count.
    pub fn record(&self, doc: &AnalyzedDocument, vocab_size: usize) {
        self.docs.inc();
        self.terms.add(doc.terms.len() as u64);
        self.links.add(doc.links.len() as u64);
        self.terms_per_doc.observe(doc.terms.len() as u64);
        self.vocab_size.set(vocab_size as i64);
    }
}

/// [`analyze_html`] plus the volume counters.
pub fn analyze_html_metered<I: Interner + ?Sized>(
    html_text: &str,
    vocab: &mut I,
    metrics: &TextprocMetrics,
) -> AnalyzedDocument {
    let doc = analyze_html(html_text, vocab);
    metrics.record(&doc, vocab.term_count());
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Vocabulary;

    #[test]
    fn metered_analysis_counts_volume() {
        let reg = Arc::new(Registry::new());
        let m = TextprocMetrics::new(reg.clone());
        let mut vocab = Vocabulary::new();
        let doc = analyze_html_metered(
            "<html><title>t</title><body>crawling spiders crawling \
             <a href=\"http://h/x\">focused crawling</a></body></html>",
            &mut vocab,
            &m,
        );
        assert!(!doc.terms.is_empty());
        let snap = reg.snapshot();
        assert_eq!(snap.counters["textproc.docs"], 1);
        assert_eq!(snap.counters["textproc.terms"], doc.terms.len() as u64);
        assert_eq!(snap.counters["textproc.links"], 1);
        assert!(snap.gauges["textproc.vocab_size"] > 0);
    }
}
