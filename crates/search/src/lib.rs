//! The local search engine for result postprocessing (Section 3.6).
//!
//! "The result of a BINGO! crawl may be a database with several million
//! documents. The human user needs additional assistance for filtering
//! and analyzing such result sets." This crate provides:
//!
//! * an inverted index over the crawl database ([`index`]),
//! * exact and topic-filtered keyword search with relevance ranking by
//!   cosine similarity, classifier confidence, HITS authority, or any
//!   weighted linear combination ([`rank`]),
//! * interactive relevance feedback: promote result documents to
//!   training data, retrain, re-classify the filtered set
//!   ([`feedback`]),
//! * cluster analysis suggesting new subclasses with tentative labels
//!   from the most characteristic cluster terms ([`cluster`]).
#![forbid(unsafe_code)]

pub mod cluster;
pub mod feedback;
pub mod index;
pub mod live;
pub mod metrics;
pub mod rank;

pub use cluster::{suggest_subclasses, SubclassSuggestion};
pub use feedback::apply_feedback;
pub use index::{InvertedIndex, TermIndex};
pub use live::{IndexReader, IndexSnapshot, LiveIndex, LiveIndexObs};
pub use metrics::SearchMetrics;
pub use rank::{RankingScheme, SearchHit, TopicFilter};

use bingo_store::DocumentStore;
use bingo_textproc::Vocabulary;

/// The search engine over a crawl result database.
pub struct SearchEngine {
    store: DocumentStore,
    index: InvertedIndex,
    metrics: Option<SearchMetrics>,
}

/// Query options.
#[derive(Debug, Clone)]
pub struct QueryOptions {
    /// Topic filter: exact, vague (subtree + borderline), or none.
    pub filter: TopicFilter,
    /// Ranking scheme.
    pub ranking: RankingScheme,
    /// Number of results.
    pub top_k: usize,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            filter: TopicFilter::Any,
            ranking: RankingScheme::Cosine,
            top_k: 10,
        }
    }
}

impl SearchEngine {
    /// Build the index over a crawl database.
    pub fn build(store: &DocumentStore) -> Self {
        SearchEngine::build_instrumented(store, None)
    }

    /// Build the index, optionally recording index size (and, later,
    /// query volume) into `metrics`.
    pub fn build_instrumented(store: &DocumentStore, metrics: Option<SearchMetrics>) -> Self {
        let index = InvertedIndex::build(store);
        if let Some(m) = &metrics {
            m.index_docs.set(index.doc_count() as i64);
            m.index_terms.set(index.term_count() as i64);
        }
        SearchEngine {
            store: store.clone(),
            index,
            metrics,
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &DocumentStore {
        &self.store
    }

    /// The inverted index.
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Keyword query with the given options. The query is tokenized and
    /// stemmed with the crawl's shared vocabulary; unknown terms are
    /// ignored.
    pub fn query(&self, vocab: &Vocabulary, text: &str, opts: &QueryOptions) -> Vec<SearchHit> {
        let query_terms = index::analyze_query(vocab, text);
        let hits = rank::rank(
            &self.store,
            &self.index,
            &query_terms,
            &opts.filter,
            opts.ranking,
            opts.top_k,
        );
        if let Some(m) = &self.metrics {
            m.queries.inc();
            m.hits_per_query.observe(hits.len() as u64);
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_store::DocumentRow;
    use bingo_textproc::{analyze_html, MimeType};

    /// An unclassified row with no terms, for tests that fill in the rest.
    pub(crate) fn blank_row(id: u64) -> DocumentRow {
        DocumentRow {
            id,
            url: format!("http://h/{id}"),
            host: 1,
            mime: MimeType::Html,
            depth: 0,
            title: String::new(),
            topic: None,
            confidence: 0.0,
            term_freqs: Vec::new(),
            size: 10,
            fetched_at: 0,
        }
    }

    /// A small crawl database: three ARIES docs (topic 1), two sports
    /// docs (topic 2), linked so that doc 1 is the authority.
    pub(crate) fn sample_store() -> (DocumentStore, Vocabulary) {
        let mut vocab = Vocabulary::new();
        let store = DocumentStore::new();
        let texts: [(u64, u32, Option<u32>, f32, &str); 5] = [
            (
                1,
                1,
                Some(1),
                0.9,
                "aries recovery algorithm source code release logging",
            ),
            (
                2,
                2,
                Some(1),
                0.7,
                "aries logging recovery checkpoint undo redo",
            ),
            (
                3,
                3,
                Some(1),
                0.2,
                "recovery manager buffer transactions release",
            ),
            (
                4,
                4,
                Some(2),
                0.8,
                "football season championship team players",
            ),
            (5, 5, Some(2), 0.5, "basketball game score stadium release"),
        ];
        for (id, host, topic, conf, text) in texts {
            let doc = analyze_html(&format!("<p>{text}</p>"), &mut vocab);
            store
                .insert_document(DocumentRow {
                    id,
                    url: format!("http://h{host}.example/d{id}.html"),
                    host,
                    mime: MimeType::Html,
                    depth: 1,
                    title: format!("doc {id}"),
                    topic,
                    confidence: conf,
                    term_freqs: doc.term_freqs.iter().map(|&(t, f)| (t.0, f)).collect(),
                    size: text.len(),
                    fetched_at: 0,
                })
                .unwrap();
        }
        // Docs 2 and 3 (different hosts) point at doc 1: the authority.
        for from in [2u64, 3] {
            store.insert_link(bingo_store::LinkRow {
                from,
                to: 1,
                to_url: "http://h1.example/d1.html".into(),
            });
        }
        (store, vocab)
    }

    #[test]
    fn cosine_query_finds_relevant_docs() {
        let (store, vocab) = sample_store();
        let engine = SearchEngine::build(&store);
        let hits = engine.query(&vocab, "aries recovery", &QueryOptions::default());
        assert!(!hits.is_empty());
        assert!(hits[0].doc_id == 1 || hits[0].doc_id == 2);
        // Sports docs don't match at all.
        assert!(hits.iter().all(|h| h.doc_id != 4));
    }

    #[test]
    fn topic_filter_restricts_results() {
        let (store, vocab) = sample_store();
        let engine = SearchEngine::build(&store);
        let opts = QueryOptions {
            filter: TopicFilter::Exact(2),
            ..Default::default()
        };
        // "release" appears in topics 1 and 2; filter keeps only topic 2.
        let hits = engine.query(&vocab, "release", &opts);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|h| [4, 5].contains(&h.doc_id)));
    }

    #[test]
    fn confidence_ranking_orders_by_classifier() {
        let (store, vocab) = sample_store();
        let engine = SearchEngine::build(&store);
        let opts = QueryOptions {
            filter: TopicFilter::Exact(1),
            ranking: RankingScheme::Confidence,
            top_k: 3,
        };
        let hits = engine.query(&vocab, "recovery", &opts);
        let ids: Vec<u64> = hits.iter().map(|h| h.doc_id).collect();
        assert_eq!(ids, vec![1, 2, 3], "descending confidence 0.9/0.7/0.2");
    }

    #[test]
    fn authority_ranking_prefers_linked_doc() {
        let (store, vocab) = sample_store();
        let engine = SearchEngine::build(&store);
        let opts = QueryOptions {
            filter: TopicFilter::Exact(1),
            ranking: RankingScheme::Authority,
            top_k: 3,
        };
        let hits = engine.query(&vocab, "recovery", &opts);
        assert_eq!(hits[0].doc_id, 1, "doc 1 has all in-links");
    }

    #[test]
    fn combined_ranking_mixes_components() {
        let (store, vocab) = sample_store();
        let engine = SearchEngine::build(&store);
        let opts = QueryOptions {
            filter: TopicFilter::Exact(1),
            ranking: RankingScheme::Combined {
                cosine: 1.0,
                confidence: 1.0,
                authority: 1.0,
            },
            top_k: 3,
        };
        let hits = engine.query(&vocab, "aries recovery", &opts);
        assert_eq!(hits[0].doc_id, 1, "best on all three components");
        // Components are reported for trial-and-error experimentation.
        assert!(hits[0].cosine > 0.0);
        assert!(hits[0].confidence > 0.0);
        assert!(hits[0].authority > 0.0);
    }

    #[test]
    fn unknown_query_terms_yield_empty() {
        let (store, vocab) = sample_store();
        let engine = SearchEngine::build(&store);
        let hits = engine.query(&vocab, "zebrafish genomics", &QueryOptions::default());
        assert!(hits.is_empty());
    }

    #[test]
    fn top_k_truncates() {
        let (store, vocab) = sample_store();
        let engine = SearchEngine::build(&store);
        let opts = QueryOptions {
            top_k: 1,
            ..Default::default()
        };
        let hits = engine.query(&vocab, "recovery release", &opts);
        assert_eq!(hits.len(), 1);
    }
}
