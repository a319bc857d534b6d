//! Batched bulk loading (Section 4.1).
//!
//! "Each thread batches the storing of new documents and avoids SQL
//! insert commands by first collecting a certain number of documents in
//! workspaces and then invoking the database system's bulk loader for
//! moving the documents into the database. This way the crawler can
//! sustain a throughput of up to ten thousand documents per minute."
//!
//! A [`BulkLoader`] is a per-thread workspace: documents and links
//! accumulate locally (no lock taken) and are flushed to the shared
//! [`DocumentStore`] in one batch once the workspace fills up. The
//! `store_throughput` bench compares this against row-at-a-time inserts.

use crate::tables::{DocumentRow, LinkRow};
use crate::{DocumentStore, StoreError};
use bingo_obs::{Counter, Event, EventLog, Registry};
use std::sync::Arc;

/// Default workspace capacity before an automatic flush.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// Observability handles for bulk-load workspaces: flush errors must
/// never vanish silently, in particular not from the final flush a
/// [`Drop`] performs at crawl shutdown.
#[derive(Clone)]
pub struct BulkLoaderObs {
    /// Errors returned by batch flushes (duplicate keys etc.).
    pub flush_errors: Counter,
    /// Errors still unclaimed (never drained via
    /// [`BulkLoader::take_errors`]) when a workspace was dropped.
    pub dropped_errors: Counter,
    /// Event sink for the drop-time error report.
    pub events: Arc<EventLog>,
}

impl BulkLoaderObs {
    /// Register the bulk-load metrics in `registry`, reporting drop-time
    /// errors to `events`.
    pub fn new(registry: &Registry, events: Arc<EventLog>) -> Self {
        BulkLoaderObs {
            flush_errors: registry.counter("store.bulk.flush_errors"),
            dropped_errors: registry.counter("store.bulk.dropped_errors"),
            events,
        }
    }
}

/// A per-thread write workspace for the document store.
///
/// Not `Sync` by design: each crawler thread owns one, mirroring the
/// paper's "separate database connections associated with dedicated
/// database server processes".
pub struct BulkLoader {
    store: DocumentStore,
    batch_size: usize,
    documents: Vec<DocumentRow>,
    links: Vec<LinkRow>,
    errors: Vec<StoreError>,
    flushed_documents: u64,
    obs: Option<BulkLoaderObs>,
}

impl BulkLoader {
    /// Workspace over `store` with the default batch size.
    pub fn new(store: DocumentStore) -> Self {
        Self::with_batch_size(store, DEFAULT_BATCH_SIZE)
    }

    /// Workspace with an explicit batch size (≥ 1). At most
    /// [`DEFAULT_BATCH_SIZE`] rows are reserved up front; a larger
    /// workspace grows as it fills.
    pub fn with_batch_size(store: DocumentStore, batch_size: usize) -> Self {
        let batch_size = batch_size.max(1);
        BulkLoader {
            store,
            batch_size,
            documents: Vec::with_capacity(batch_size.min(DEFAULT_BATCH_SIZE)),
            links: Vec::new(),
            errors: Vec::new(),
            flushed_documents: 0,
            obs: None,
        }
    }

    /// Wire observability handles into this workspace (flush-error
    /// counters and the drop-time event).
    pub fn with_observer(mut self, obs: BulkLoaderObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Queue one document; flushes automatically when the workspace is
    /// full.
    pub fn add_document(&mut self, row: DocumentRow) {
        self.documents.push(row);
        if self.documents.len() >= self.batch_size {
            self.flush();
        }
    }

    /// Queue one link row (flushed together with documents).
    pub fn add_link(&mut self, link: LinkRow) {
        self.links.push(link);
    }

    /// Documents currently buffered (not yet visible in the store).
    pub fn pending(&self) -> usize {
        self.documents.len()
    }

    /// Total documents flushed through this workspace.
    pub fn flushed_documents(&self) -> u64 {
        self.flushed_documents
    }

    /// Push all buffered rows to the store in (at most) two lock
    /// acquisitions. On a segmented store this is also the seal point:
    /// once the store's write workspace outgrows its threshold, the
    /// flush seals it into an immutable on-disk segment (the bulk
    /// loader is the paper's unit of "acked" work, so durability
    /// advances batch-aligned). A seal failure surfaces like any other
    /// flush error — rows stay readable in the workspace and the seal
    /// retries at the next flush.
    pub fn flush(&mut self) {
        if !self.documents.is_empty() {
            let batch = std::mem::take(&mut self.documents);
            self.flushed_documents += batch.len() as u64;
            let errs = self.store.insert_documents(batch);
            self.flushed_documents -= errs.len() as u64;
            if let Some(obs) = &self.obs {
                obs.flush_errors.add(errs.len() as u64);
            }
            self.errors.extend(errs);
        }
        if !self.links.is_empty() {
            self.store.insert_links(std::mem::take(&mut self.links));
        }
        if let Err(e) = self.store.commit_sealed() {
            if let Some(obs) = &self.obs {
                obs.flush_errors.add(1);
            }
            self.errors.push(e);
        }
    }

    /// Drain errors collected from flushed batches (duplicate keys etc.).
    pub fn take_errors(&mut self) -> Vec<StoreError> {
        std::mem::take(&mut self.errors)
    }

    /// Drop all buffered rows without flushing them. Used after a
    /// worker panic: rows staged by the failed batch must not leak into
    /// the store when the batch is re-driven from scratch. Returns the
    /// number of discarded document rows.
    pub fn discard_pending(&mut self) -> usize {
        let dropped = self.documents.len();
        self.documents.clear();
        self.links.clear();
        dropped
    }
}

impl Drop for BulkLoader {
    /// A dropped workspace flushes its remainder so no documents are lost
    /// at crawl shutdown. Errors nobody drained — including errors from
    /// this final flush — are reported through the observer (counter +
    /// event) or, unobserved, to stderr; they never vanish silently.
    fn drop(&mut self) {
        self.flush();
        if self.errors.is_empty() {
            return;
        }
        let count = self.errors.len();
        let first = self.errors[0].to_string();
        match &self.obs {
            Some(obs) => {
                obs.dropped_errors.add(count as u64);
                obs.events.emit(
                    Event::at(0, "store.bulk.dropped_errors")
                        .with("count", count)
                        .with("first", &first),
                );
            }
            None => eprintln!(
                "bulk loader dropped with {count} unclaimed flush errors (first: {first})"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_textproc::MimeType;

    fn doc(id: u64) -> DocumentRow {
        DocumentRow {
            id,
            url: format!("http://h{}/p{id}", id % 10),
            host: (id % 10) as u32,
            mime: MimeType::Html,
            depth: 0,
            title: String::new(),
            topic: None,
            confidence: 0.0,
            term_freqs: vec![],
            size: 10,
            fetched_at: 0,
        }
    }

    #[test]
    fn auto_flush_at_batch_size() {
        let store = DocumentStore::new();
        let mut loader = BulkLoader::with_batch_size(store.clone(), 4);
        for i in 0..3 {
            loader.add_document(doc(i));
        }
        assert_eq!(store.document_count(), 0, "below batch size: buffered");
        assert_eq!(loader.pending(), 3);
        loader.add_document(doc(3));
        assert_eq!(store.document_count(), 4, "batch size reached: flushed");
        assert_eq!(loader.pending(), 0);
        assert_eq!(loader.flushed_documents(), 4);
    }

    #[test]
    fn drop_flushes_remainder() {
        let store = DocumentStore::new();
        {
            let mut loader = BulkLoader::with_batch_size(store.clone(), 100);
            loader.add_document(doc(1));
            loader.add_link(LinkRow {
                from: 1,
                to: 2,
                to_url: "x".into(),
            });
        }
        assert_eq!(store.document_count(), 1);
        assert_eq!(store.link_count(), 1);
    }

    #[test]
    fn duplicate_errors_surface_and_do_not_count() {
        let store = DocumentStore::new();
        let mut loader = BulkLoader::with_batch_size(store.clone(), 2);
        loader.add_document(doc(1));
        loader.add_document(doc(1));
        assert_eq!(store.document_count(), 1);
        assert_eq!(loader.flushed_documents(), 1);
        let errs = loader.take_errors();
        assert_eq!(errs, vec![StoreError::DuplicateKey(1)]);
        assert!(loader.take_errors().is_empty());
    }

    #[test]
    fn drop_time_errors_hit_the_observer() {
        let registry = bingo_obs::Registry::new();
        let events = Arc::new(bingo_obs::EventLog::default());
        let obs = BulkLoaderObs::new(&registry, events.clone());
        let store = DocumentStore::new();
        store.insert_document(doc(7)).unwrap();
        {
            let mut loader =
                BulkLoader::with_batch_size(store.clone(), 100).with_observer(obs.clone());
            // Flushed at drop time, colliding with the pre-inserted row.
            loader.add_document(doc(7));
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counters["store.bulk.flush_errors"], 1);
        assert_eq!(snap.counters["store.bulk.dropped_errors"], 1);
        let evs = events.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, "store.bulk.dropped_errors");
    }

    #[test]
    fn drained_errors_are_not_reported_as_dropped() {
        let registry = bingo_obs::Registry::new();
        let events = Arc::new(bingo_obs::EventLog::default());
        let obs = BulkLoaderObs::new(&registry, events.clone());
        let store = DocumentStore::new();
        let mut loader = BulkLoader::with_batch_size(store, 1).with_observer(obs);
        loader.add_document(doc(3));
        loader.add_document(doc(3));
        assert_eq!(loader.take_errors().len(), 1);
        drop(loader);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["store.bulk.flush_errors"], 1);
        assert_eq!(snap.counters["store.bulk.dropped_errors"], 0);
        assert!(events.events().is_empty());
    }

    #[test]
    fn discard_pending_drops_buffered_rows_only() {
        let store = DocumentStore::new();
        let mut loader = BulkLoader::with_batch_size(store.clone(), 100);
        loader.add_document(doc(1));
        loader.flush();
        loader.add_document(doc(2));
        loader.add_link(LinkRow {
            from: 2,
            to: 3,
            to_url: "x".into(),
        });
        assert_eq!(loader.discard_pending(), 1);
        drop(loader); // drop-time flush has nothing left to push
        assert_eq!(store.document_count(), 1, "only the flushed row stored");
        assert_eq!(store.link_count(), 0, "staged link discarded");
    }

    #[test]
    fn multi_threaded_loaders() {
        let store = DocumentStore::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let store = store.clone();
                scope.spawn(move || {
                    let mut loader = BulkLoader::with_batch_size(store, 32);
                    for i in 0..500u64 {
                        loader.add_document(doc(t * 10_000 + i));
                    }
                });
            }
        });
        assert_eq!(store.document_count(), 2000);
    }
}
