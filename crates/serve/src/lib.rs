//! The portal serving layer: expert-search queries *during* the crawl.
//!
//! The BINGO! paper's end product is an information portal — users
//! browse the topic tree and run topic-scoped expert-search queries over
//! whatever the focused crawler has harvested so far. The rest of this
//! workspace builds the portal's content; this crate serves it:
//!
//! * [`PortalService`] answers [`PortalRequest`]s (keyword query, topic
//!   browse, portal stats) against a [`LiveIndex`] — the
//!   snapshot-swappable inverted index from `bingo_search::live` — while
//!   crawler threads keep writing through the store's
//!   [`bingo_store::IndexTee`] hook. Every query runs against one
//!   immutable [`IndexSnapshot`](bingo_search::IndexSnapshot), so
//!   results are snapshot-consistent no matter how many bulk-load
//!   commits land mid-query.
//! * [`ServeMetrics`] counts every request through `bingo-obs`
//!   (`serve.{query,browse,stats}.count`, `serve.query.{terms,hits}`).
//! * [`loadgen`] generates a seeded, reproducible query mix and drives
//!   the service on the virtual clock (deterministic, single-threaded —
//!   bench evidence). Wall-clock load generation lives in the
//!   standalone `benchmark/` crate.
//!
//! Wiring a live portal onto a crawl is three lines:
//!
//! ```
//! use bingo_search::LiveIndex;
//! use bingo_serve::PortalService;
//! use bingo_store::DocumentStore;
//! use std::sync::Arc;
//!
//! let live = LiveIndex::new(64); // auto-commit every 64 docs
//! let store = DocumentStore::new().with_tee(Arc::new(live.clone()));
//! let portal = PortalService::new(store.clone(), live);
//! // ... hand `store` to the crawler, query `portal` from anywhere.
//! # let _ = portal;
//! ```
#![forbid(unsafe_code)]

pub mod loadgen;
pub mod metrics;

pub use loadgen::{QueryMix, VirtualLoadGen};
pub use metrics::ServeMetrics;

use bingo_graph::PageId;
use bingo_search::index::analyze_query_with;
use bingo_search::{IndexReader, LiveIndex, QueryOptions, SearchHit};
use bingo_store::DocumentStore;
use bingo_textproc::TermLookup;

/// One request to the portal front end.
#[derive(Debug, Clone)]
pub enum PortalRequest {
    /// Topic-scoped expert-search query: free text, analyzed with the
    /// crawl's stemmer/vocabulary, ranked under `opts`.
    Query {
        /// Query text.
        text: String,
        /// Topic filter, ranking scheme and result count.
        opts: QueryOptions,
    },
    /// Browse a topic node of the portal: its documents by id, with
    /// title/URL previews.
    TopicBrowse {
        /// Topic node.
        topic: u32,
        /// Maximum entries returned.
        limit: usize,
    },
    /// Portal-wide statistics.
    Stats,
}

/// Response to a [`PortalRequest`].
#[derive(Debug, Clone)]
pub enum PortalResponse {
    /// Ranked hits plus the index epoch that answered — two responses
    /// with the same epoch saw the exact same corpus.
    Hits {
        /// Epoch of the snapshot the query ran against.
        epoch: u64,
        /// Ranked results.
        hits: Vec<SearchHit>,
    },
    /// Topic browse listing.
    Topic {
        /// Total documents currently assigned to the topic.
        total: usize,
        /// The first `limit` entries in document-id order.
        entries: Vec<TopicEntry>,
    },
    /// Portal statistics.
    Stats(PortalStats),
}

/// One row of a topic-browse listing.
#[derive(Debug, Clone)]
pub struct TopicEntry {
    /// Document id.
    pub doc_id: PageId,
    /// Document URL.
    pub url: String,
    /// Document title (the content preview).
    pub title: String,
    /// Classifier confidence of the topic assignment.
    pub confidence: f32,
}

/// Portal-wide statistics. `stored_docs` can run ahead of
/// `indexed_docs` by at most one uncommitted bulk batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortalStats {
    /// Documents in the crawl store.
    pub stored_docs: usize,
    /// Documents in the published index snapshot.
    pub indexed_docs: u64,
    /// Distinct indexed terms.
    pub terms: usize,
    /// Sealed index segments.
    pub segments: usize,
    /// Index publication epoch.
    pub epoch: u64,
    /// Link rows in the store.
    pub links: usize,
}

/// The in-process portal service: a store handle, a live index handle
/// and optional request tracing. Cheap to clone; share across any
/// number of querying threads (each thread brings its own
/// [`IndexReader`] from [`PortalService::reader`]).
#[derive(Debug, Clone)]
pub struct PortalService {
    store: DocumentStore,
    index: LiveIndex,
    metrics: Option<ServeMetrics>,
}

impl PortalService {
    /// Service over a store and the live index its writes feed (via
    /// [`DocumentStore::with_tee`] or explicit ingest).
    pub fn new(store: DocumentStore, index: LiveIndex) -> Self {
        PortalService {
            store,
            index,
            metrics: None,
        }
    }

    /// Same service with per-request tracing.
    pub fn with_metrics(mut self, metrics: ServeMetrics) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// The live index handle.
    pub fn index(&self) -> &LiveIndex {
        &self.index
    }

    /// The store handle.
    pub fn store(&self) -> &DocumentStore {
        &self.store
    }

    /// A per-thread read handle over the live index.
    pub fn reader(&self) -> IndexReader {
        self.index.reader()
    }

    /// Handle one request. `reader` is the calling thread's cached read
    /// handle; `vocab` resolves query stems (the deterministic crawler's
    /// `Vocabulary` or the threaded pipeline's `SharedVocabulary`). The
    /// query path takes no lock unless the index epoch moved since this
    /// reader's last request.
    pub fn handle(
        &self,
        reader: &mut IndexReader,
        vocab: &dyn TermLookup,
        req: &PortalRequest,
    ) -> PortalResponse {
        match req {
            PortalRequest::Query { text, opts } => {
                let terms = analyze_query_with(|stem| vocab.lookup_term(stem).map(|id| id.0), text);
                let snapshot = reader.snapshot();
                let hits = bingo_search::rank::rank(
                    &self.store,
                    &*snapshot,
                    &terms,
                    &opts.filter,
                    opts.ranking,
                    opts.top_k,
                );
                if let Some(m) = &self.metrics {
                    m.queries.inc();
                    m.query_terms.observe(terms.len() as u64);
                    m.query_hits.observe(hits.len() as u64);
                }
                PortalResponse::Hits {
                    epoch: snapshot.epoch(),
                    hits,
                }
            }
            PortalRequest::TopicBrowse { topic, limit } => {
                let mut ids = self.store.topic_documents(*topic);
                ids.sort_unstable();
                let total = ids.len();
                ids.truncate(*limit);
                let entries = ids
                    .into_iter()
                    .filter_map(|id| self.store.document(id))
                    .map(|row| TopicEntry {
                        doc_id: row.id,
                        url: row.url,
                        title: row.title,
                        confidence: row.confidence,
                    })
                    .collect();
                if let Some(m) = &self.metrics {
                    m.browses.inc();
                }
                PortalResponse::Topic { total, entries }
            }
            PortalRequest::Stats => {
                let snapshot = reader.snapshot();
                if let Some(m) = &self.metrics {
                    m.stats.inc();
                }
                PortalResponse::Stats(PortalStats {
                    stored_docs: self.store.document_count(),
                    indexed_docs: bingo_search::TermIndex::doc_count(&*snapshot),
                    terms: snapshot.term_count(),
                    segments: snapshot.segment_count(),
                    epoch: snapshot.epoch(),
                    links: self.store.link_count(),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_obs::Registry;
    use bingo_search::{RankingScheme, TopicFilter};
    use bingo_store::DocumentRow;
    use bingo_textproc::{analyze_html, Vocabulary};
    use std::sync::Arc;

    fn sample_portal() -> (PortalService, Vocabulary, Arc<Registry>) {
        let mut vocab = Vocabulary::new();
        let live = LiveIndex::new(2);
        let store = DocumentStore::new().with_tee(Arc::new(live.clone()));
        let texts: [(u64, Option<u32>, &str); 4] = [
            (1, Some(1), "aries recovery logging checkpoint"),
            (2, Some(1), "recovery transactions rollback undo"),
            (3, Some(2), "football season championship"),
            (4, Some(2), "basketball game recovery stadium"),
        ];
        for (id, topic, text) in texts {
            let doc = analyze_html(&format!("<p>{text}</p>"), &mut vocab);
            store
                .insert_document(DocumentRow {
                    id,
                    url: format!("http://h{id}.example/"),
                    host: id as u32,
                    mime: bingo_textproc::MimeType::Html,
                    depth: 0,
                    title: format!("doc {id}"),
                    topic,
                    confidence: 0.5,
                    term_freqs: doc.term_freqs.iter().map(|&(t, f)| (t.0, f)).collect(),
                    size: text.len(),
                    fetched_at: 0,
                })
                .unwrap();
        }
        live.commit();
        let registry = Arc::new(Registry::new());
        let metrics = ServeMetrics::new(&registry);
        let service = PortalService::new(store, live).with_metrics(metrics);
        (service, vocab, registry)
    }

    #[test]
    fn query_returns_snapshot_tagged_hits() {
        let (service, vocab, registry) = sample_portal();
        let mut reader = service.reader();
        let req = PortalRequest::Query {
            text: "recovery".into(),
            opts: QueryOptions::default(),
        };
        let PortalResponse::Hits { epoch, hits } = service.handle(&mut reader, &vocab, &req) else {
            panic!("expected hits");
        };
        assert!(epoch >= 1);
        assert_eq!(hits.len(), 3, "docs 1, 2 and 4 contain 'recovery'");
        let snap = registry.snapshot();
        assert_eq!(snap.counters["serve.query.count"], 1);
    }

    #[test]
    fn topic_filter_scopes_query() {
        let (service, vocab, _registry) = sample_portal();
        let mut reader = service.reader();
        let req = PortalRequest::Query {
            text: "recovery".into(),
            opts: QueryOptions {
                filter: TopicFilter::Exact(1),
                ranking: RankingScheme::Cosine,
                top_k: 10,
            },
        };
        let PortalResponse::Hits { hits, .. } = service.handle(&mut reader, &vocab, &req) else {
            panic!("expected hits");
        };
        let ids: Vec<u64> = hits.iter().map(|h| h.doc_id).collect();
        assert!(ids.iter().all(|id| [1, 2].contains(id)), "{ids:?}");
    }

    #[test]
    fn topic_browse_lists_in_id_order() {
        let (service, vocab, registry) = sample_portal();
        let mut reader = service.reader();
        let req = PortalRequest::TopicBrowse { topic: 2, limit: 1 };
        let PortalResponse::Topic { total, entries } = service.handle(&mut reader, &vocab, &req)
        else {
            panic!("expected topic listing");
        };
        assert_eq!(total, 2);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].doc_id, 3);
        assert_eq!(registry.snapshot().counters["serve.browse.count"], 1);
    }

    #[test]
    fn stats_report_store_and_index_dimensions() {
        let (service, vocab, _registry) = sample_portal();
        let mut reader = service.reader();
        let PortalResponse::Stats(stats) =
            service.handle(&mut reader, &vocab, &PortalRequest::Stats)
        else {
            panic!("expected stats");
        };
        assert_eq!(stats.stored_docs, 4);
        assert_eq!(stats.indexed_docs, 4);
        assert_eq!(stats.segments, 2, "auto-commit every 2 docs");
        assert_eq!(stats.epoch, 2);
        assert!(stats.terms > 5);
    }

    #[test]
    fn queries_see_new_docs_only_after_commit() {
        let (service, mut vocab, _registry) = sample_portal();
        let mut reader = service.reader();
        let doc = analyze_html("<p>zanzibar recovery</p>", &mut vocab);
        service
            .store()
            .insert_document(DocumentRow {
                id: 99,
                url: "http://new.example/".into(),
                host: 9,
                mime: bingo_textproc::MimeType::Html,
                depth: 0,
                title: "new".into(),
                topic: None,
                confidence: 0.0,
                term_freqs: doc.term_freqs.iter().map(|&(t, f)| (t.0, f)).collect(),
                size: 10,
                fetched_at: 0,
            })
            .unwrap();
        let req = PortalRequest::Query {
            text: "zanzibar".into(),
            opts: QueryOptions::default(),
        };
        let PortalResponse::Hits { hits, .. } = service.handle(&mut reader, &vocab, &req) else {
            panic!()
        };
        assert!(hits.is_empty(), "doc staged but not committed");
        service.index().commit();
        let PortalResponse::Hits { hits, .. } = service.handle(&mut reader, &vocab, &req) else {
            panic!()
        };
        assert_eq!(hits.len(), 1, "visible after the snapshot swap");
        assert_eq!(hits[0].doc_id, 99);
    }
}
