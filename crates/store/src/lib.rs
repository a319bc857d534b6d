//! Embedded storage engine — the role Oracle9i plays for BINGO!
//! (Section 4.1).
//!
//! The paper's hard-won lessons are baked in:
//!
//! * **Flat relations.** The first BINGO! prototype used object-relational
//!   nested tables and suffered Cartesian-product plans; the production
//!   version switched to "a schema with 24 flat relations". This engine
//!   stores typed flat rows (documents, links) with hash indexes — no
//!   nesting.
//! * **Batched bulk loading.** "Each thread batches the storing of new
//!   documents ... first collecting a certain number of documents in
//!   workspaces and then invoking the bulk loader", sustaining roughly ten
//!   thousand documents per minute. [`bulk::BulkLoader`] reproduces this:
//!   per-thread workspaces flush whole batches under a single lock
//!   acquisition.
//! * The store doubles as the idf corpus and the base for the local
//!   search engine's postprocessing.
//!
//! Every store has one backend, [`segment`]'s workspace in front of
//! sealed on-disk segments. A store opened on a directory
//! ([`DocumentStore::segmented`]) seals its workspace as it grows; a
//! store with no directory ([`DocumentStore::new`]) keeps every row in
//! the workspace and never seals.
//!
//! Persistence is snapshot-based ([`persist`]): the crawl result database
//! can be saved and reloaded between the crawl and postprocessing
//! sessions.
#![forbid(unsafe_code)]

pub mod bulk;
pub mod durable;
pub mod persist;
pub mod segment;
pub mod tables;
mod workspace;

pub use bulk::{BulkLoader, BulkLoaderObs};
pub use durable::{CrashFs, DurableFs, GenerationWriter, StdFs};
pub use segment::{
    reap_orphan_segments, CompactionConfig, SegmentStoreConfig, DEFAULT_SEAL_EVERY, SEGMENTS_FILE,
};
pub use tables::{DocumentHead, DocumentRow, LinkRow};

use bingo_graph::{HostId, LinkSource, PageId};
use parking_lot::RwLock;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Errors surfaced by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A row with the same primary key already exists.
    DuplicateKey(PageId),
    /// Referenced document does not exist.
    MissingDocument(PageId),
    /// Snapshot (de)serialization failure.
    Persist(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::DuplicateKey(id) => write!(f, "duplicate document id {id}"),
            StoreError::MissingDocument(id) => write!(f, "missing document id {id}"),
            StoreError::Persist(msg) => write!(f, "persistence error: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A consumer of accepted document inserts, invoked *after* the store's
/// write lock is released — e.g. a live inverted index ingesting rows as
/// the crawler's bulk loader commits them. Rows rejected as duplicates
/// are never forwarded, so a tee only ever sees rows that are actually
/// in the store (index contents stay a subset of store contents).
pub trait IndexTee: Send + Sync {
    /// Observe a batch of rows that were just accepted by the store.
    fn on_insert(&self, rows: &[DocumentRow]);
}

/// The document store: cheaply cloneable handle over the shared state.
///
/// All methods take `&self`; interior locking follows the paper's setup of
/// many crawler threads writing through dedicated connections.
///
/// ```
/// use bingo_store::{DocumentStore, DocumentRow};
/// use bingo_textproc::MimeType;
///
/// let store = DocumentStore::new();
/// store.insert_document(DocumentRow {
///     id: 1, url: "http://h/a".into(), host: 0, mime: MimeType::Html,
///     depth: 0, title: "a".into(), topic: Some(2), confidence: 0.5,
///     term_freqs: vec![], size: 10, fetched_at: 0,
/// }).unwrap();
/// assert_eq!(store.topic_documents(2), vec![1]);
/// assert_eq!(store.document_by_url("http://h/a").unwrap().id, 1);
/// ```
#[derive(Clone)]
pub struct DocumentStore {
    pub(crate) spine: Arc<RwLock<segment::Spine>>,
    /// Post-insert observer (shared across clones). `None` on the
    /// common batch path; see [`DocumentStore::with_tee`].
    tee: Option<Arc<dyn IndexTee>>,
}

impl std::fmt::Debug for DocumentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocumentStore")
            .field("spine", &self.spine)
            .field("tee", &self.tee.as_ref().map(|_| "IndexTee"))
            .finish()
    }
}

impl Default for DocumentStore {
    fn default() -> Self {
        Self::from_spine(segment::Spine::empty(None, Default::default()))
    }
}

impl DocumentStore {
    /// Empty store with no directory: every row stays in memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open (or create) a segmented store in `dir` with the default seal
    /// threshold ([`segment::DEFAULT_SEAL_EVERY`]). The same API as
    /// [`DocumentStore::new`], but document/link rows move into
    /// append-only on-disk segments as the in-memory write workspace
    /// fills — see [`segment`] for the layout and crash story.
    pub fn segmented<P: AsRef<Path>>(dir: P) -> Result<Self, StoreError> {
        Self::segmented_with(dir, segment::DEFAULT_SEAL_EVERY)
    }

    /// [`DocumentStore::segmented`] with an explicit seal threshold
    /// (documents buffered in the workspace before
    /// [`DocumentStore::commit_sealed`] seals a segment).
    pub fn segmented_with<P: AsRef<Path>>(dir: P, seal_every: usize) -> Result<Self, StoreError> {
        Self::segmented_cfg(
            dir,
            segment::SegmentStoreConfig {
                seal_every,
                ..Default::default()
            },
        )
    }

    /// [`DocumentStore::segmented`] with a full
    /// [`segment::SegmentStoreConfig`]. Only `seal_every` may vary: a
    /// config with `sparse: true` or a `compaction` policy is refused
    /// with a [`StoreError`], since every sealed row keeps one resident
    /// locator and sealed segments are never merged.
    pub fn segmented_cfg<P: AsRef<Path>>(
        dir: P,
        cfg: segment::SegmentStoreConfig,
    ) -> Result<Self, StoreError> {
        segment::Spine::open(dir.as_ref().to_path_buf(), cfg).map(Self::from_spine)
    }

    pub(crate) fn from_spine(spine: segment::Spine) -> Self {
        DocumentStore {
            spine: Arc::new(RwLock::new(spine)),
            tee: None,
        }
    }

    /// True when this store has a directory to seal into
    /// ([`DocumentStore::segmented`]).
    pub fn is_segmented(&self) -> bool {
        self.spine.read().dir().is_some()
    }

    /// Directory of the segmented store (`None` for a store with no
    /// directory).
    pub fn segment_dir(&self) -> Option<PathBuf> {
        self.spine.read().dir().map(Path::to_path_buf)
    }

    /// Number of sealed on-disk segments (0 for a store with no
    /// directory).
    pub fn segment_count(&self) -> usize {
        self.spine.read().segment_count()
    }

    /// Documents living in sealed on-disk segments (0 for a store with
    /// no directory).
    pub fn sealed_documents(&self) -> usize {
        self.spine.read().sealed_documents()
    }

    /// Documents in the in-memory write workspace, not yet sealed (every
    /// document of a store with no directory).
    pub fn workspace_documents(&self) -> usize {
        self.spine.read().workspace().document_count()
    }

    /// Seal the workspace into a new on-disk segment if it has grown
    /// past the seal threshold; a store with no directory never does.
    /// Called by [`BulkLoader::flush`] after every batch, so it takes
    /// the write lock only when a seal is due. Returns whether a
    /// segment was sealed.
    pub fn commit_sealed(&self) -> Result<bool, StoreError> {
        if !self.spine.read().seal_due() {
            return Ok(false);
        }
        self.spine.write().maybe_seal(&StdFs)
    }

    /// Force-seal the workspace regardless of size (e.g. at crawl end);
    /// no-op on a store with no directory.
    pub fn seal_now(&self) -> Result<bool, StoreError> {
        self.seal_now_with(&StdFs)
    }

    /// [`DocumentStore::seal_now`] through an explicit [`DurableFs`],
    /// so crash tests can kill the seal at an exact byte offset.
    pub fn seal_now_with(&self, fs: &dyn DurableFs) -> Result<bool, StoreError> {
        self.spine.write().seal(fs)
    }

    /// Handle over the same shared state that forwards every accepted
    /// document insert to `tee` (after the write lock is released). All
    /// clones of the returned handle share the tee; pre-existing clones
    /// of `self` keep writing without it, so attach the tee before
    /// handing the store to crawler threads.
    pub fn with_tee(&self, tee: Arc<dyn IndexTee>) -> Self {
        DocumentStore {
            spine: Arc::clone(&self.spine),
            tee: Some(tee),
        }
    }

    /// Insert one document row. Fails on duplicate ids.
    pub fn insert_document(&self, row: DocumentRow) -> Result<(), StoreError> {
        self.spine.write().insert_document(&row)?;
        if let Some(tee) = &self.tee {
            tee.on_insert(std::slice::from_ref(&row));
        }
        Ok(())
    }

    /// Insert a batch of documents under one lock acquisition; rows with
    /// duplicate ids are skipped and reported back. The tee is handed the
    /// accepted rows themselves: the store keeps its own packed copy.
    pub fn insert_documents(&self, mut rows: Vec<DocumentRow>) -> Vec<StoreError> {
        let mut errors = Vec::new();
        {
            let mut spine = self.spine.write();
            rows.retain(|row| match spine.insert_document(row) {
                Ok(()) => true,
                Err(e) => {
                    errors.push(e);
                    false
                }
            });
        }
        if let Some(tee) = self.tee.as_ref().filter(|_| !rows.is_empty()) {
            tee.on_insert(&rows);
        }
        errors
    }

    /// Record a hyperlink between pages (ids need not be stored yet; the
    /// link table also feeds the HITS predecessor lookup).
    pub fn insert_link(&self, link: LinkRow) {
        self.spine.write().insert_link(&link);
    }

    /// Record a batch of links under one lock acquisition.
    pub fn insert_links(&self, links: Vec<LinkRow>) {
        let mut spine = self.spine.write();
        for link in &links {
            spine.insert_link(link);
        }
    }

    /// Heap bytes the store holds: its write workspace (every row of a
    /// store with no directory) and its resident indexes, computed from
    /// their lengths and capacities, not counted by an allocator.
    pub fn resident_bytes(&self) -> usize {
        self.spine.read().resident_bytes()
    }

    /// Update the topic assignment and classification confidence of a
    /// stored document (re-classification during retraining).
    pub fn set_topic(
        &self,
        id: PageId,
        topic: Option<u32>,
        confidence: f32,
    ) -> Result<(), StoreError> {
        self.spine.write().set_topic(id, topic, confidence)
    }

    /// Fetch a document row by id.
    pub fn document(&self, id: PageId) -> Option<DocumentRow> {
        self.spine.read().document(id)
    }

    /// Whether a document with `id` is stored, without materializing
    /// its row: resident map probes, no disk read.
    pub fn contains(&self, id: PageId) -> bool {
        self.spine.read().contains(id)
    }

    /// Run `f` on a document's [`DocumentHead`] under the read lock — for
    /// readers that need a field or two of many rows (ranking reads
    /// `topic` and `confidence` of every match): a workspace row's head
    /// is read in place without decoding its `term_freqs`. A sealed row
    /// is read first.
    pub fn with_head<R>(&self, id: PageId, f: impl FnOnce(DocumentHead<'_>) -> R) -> Option<R> {
        self.spine.read().with_head(id, f)
    }

    /// Fetch a document row by URL. Exact: the newest row with that URL.
    pub fn document_by_url(&self, url: &str) -> Option<DocumentRow> {
        self.spine.read().document_by_url(url)
    }

    /// Ids of all documents assigned to a topic.
    pub fn topic_documents(&self, topic: u32) -> Vec<PageId> {
        self.spine.read().topic_documents(topic)
    }

    /// Snapshot of all document rows (postprocessing input), in the
    /// order of [`DocumentStore::for_each_document`]. On segmented
    /// stores this streams every sealed segment — a cold, whole-database
    /// materialization.
    pub fn all_documents(&self) -> Vec<DocumentRow> {
        self.spine.read().all_documents()
    }

    /// Snapshot of all link rows, in insertion order (the log-style
    /// link relation, duplicates included).
    pub fn all_links(&self) -> Vec<LinkRow> {
        self.spine.read().all_links()
    }

    /// Number of stored documents.
    pub fn document_count(&self) -> usize {
        self.spine.read().document_count()
    }

    /// Number of stored link rows (including duplicates of the edge
    /// index, mirroring a log-style link relation).
    pub fn link_count(&self) -> usize {
        self.spine.read().link_count()
    }

    /// Run `f` over every document row without cloning the table:
    /// sealed rows in seal order (one segment at a time), then the
    /// workspace rows in insertion order. A store with no directory
    /// therefore yields its rows in insertion order.
    pub fn for_each_document<F: FnMut(&DocumentRow)>(&self, f: F) {
        let _ = self.spine.read().for_each_document(f);
    }
}

impl LinkSource for DocumentStore {
    fn successors(&self, page: PageId) -> Vec<PageId> {
        self.spine.read().successors(page)
    }

    fn predecessors(&self, page: PageId) -> Vec<PageId> {
        self.spine.read().predecessors(page)
    }

    fn host_of(&self, page: PageId) -> HostId {
        self.spine.read().host_of(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_textproc::MimeType;

    fn doc(id: u64, url: &str, topic: Option<u32>) -> DocumentRow {
        DocumentRow {
            id,
            url: url.to_string(),
            host: (id % 5) as u32,
            mime: MimeType::Html,
            depth: 1,
            title: format!("doc {id}"),
            topic,
            confidence: 0.5,
            term_freqs: vec![(1, 2), (7, 1)],
            size: 100,
            fetched_at: 0,
        }
    }

    #[test]
    fn insert_and_lookup() {
        let s = DocumentStore::new();
        s.insert_document(doc(1, "http://a/x", Some(3))).unwrap();
        assert_eq!(s.document_count(), 1);
        assert_eq!(s.document(1).unwrap().url, "http://a/x");
        assert!(s.contains(1) && !s.contains(2));
        assert_eq!(s.document_by_url("http://a/x").unwrap().id, 1);
        assert!(s.document_by_url("http://a/y").is_none());
        assert_eq!(s.topic_documents(3), vec![1]);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let s = DocumentStore::new();
        s.insert_document(doc(1, "http://a/x", None)).unwrap();
        assert_eq!(
            s.insert_document(doc(1, "http://a/y", None)),
            Err(StoreError::DuplicateKey(1))
        );
        let errs = s.insert_documents(vec![doc(1, "z", None), doc(2, "w", None)]);
        assert_eq!(errs, vec![StoreError::DuplicateKey(1)]);
        assert_eq!(s.document_count(), 2);
    }

    #[test]
    fn topic_reassignment_moves_index() {
        let s = DocumentStore::new();
        s.insert_document(doc(1, "u", Some(3))).unwrap();
        s.set_topic(1, Some(9), 0.8).unwrap();
        assert!(s.topic_documents(3).is_empty());
        assert_eq!(s.topic_documents(9), vec![1]);
        assert_eq!(s.document(1).unwrap().confidence, 0.8);
        assert_eq!(
            s.set_topic(42, Some(1), 0.1),
            Err(StoreError::MissingDocument(42))
        );
    }

    #[test]
    fn links_build_bidirectional_index() {
        let s = DocumentStore::new();
        for i in 1..=3 {
            s.insert_document(doc(i, &format!("u{i}"), None)).unwrap();
        }
        s.insert_link(LinkRow {
            from: 1,
            to: 2,
            to_url: "u2".into(),
        });
        s.insert_links(vec![
            LinkRow {
                from: 1,
                to: 3,
                to_url: "u3".into(),
            },
            LinkRow {
                from: 2,
                to: 3,
                to_url: "u3".into(),
            },
        ]);
        assert_eq!(s.successors(1), vec![2, 3]);
        assert_eq!(s.predecessors(3), vec![1, 2]);
        assert_eq!(s.link_count(), 3);
        assert_eq!(s.host_of(2), 2);
        assert_eq!(s.host_of(99), 0);
    }

    #[test]
    fn duplicate_edges_collapse_in_index() {
        let s = DocumentStore::new();
        s.insert_document(doc(1, "a", None)).unwrap();
        s.insert_document(doc(2, "b", None)).unwrap();
        for _ in 0..3 {
            s.insert_link(LinkRow {
                from: 1,
                to: 2,
                to_url: "b".into(),
            });
        }
        assert_eq!(s.successors(1), vec![2]);
        assert_eq!(s.link_count(), 3, "raw link log keeps every row");
    }

    #[test]
    fn tee_sees_only_accepted_rows() {
        struct Capture(std::sync::Mutex<Vec<u64>>);
        impl IndexTee for Capture {
            fn on_insert(&self, rows: &[DocumentRow]) {
                self.0.lock().unwrap().extend(rows.iter().map(|r| r.id));
            }
        }
        let cap = Arc::new(Capture(std::sync::Mutex::new(Vec::new())));
        let s = DocumentStore::new().with_tee(cap.clone());
        s.insert_document(doc(1, "a", None)).unwrap();
        assert!(s.insert_document(doc(1, "dup", None)).is_err());
        let errs = s.insert_documents(vec![
            doc(1, "x", None),
            doc(2, "b", None),
            doc(3, "c", None),
        ]);
        assert_eq!(errs, vec![StoreError::DuplicateKey(1)]);
        assert_eq!(
            *cap.0.lock().unwrap(),
            vec![1, 2, 3],
            "duplicates never forwarded"
        );
        // Clones share the tee; the pre-tee handle does not write through it.
        let s2 = s.clone();
        s2.insert_document(doc(4, "d", None)).unwrap();
        assert_eq!(cap.0.lock().unwrap().len(), 4);
    }

    /// Two URLs of the `WorldConfig::portal(32, 5000, 4)` world with one
    /// fxhash: the URL index must find both, unsealed, sealed and after
    /// a reopen.
    #[test]
    fn urls_sharing_a_hash_are_both_found() {
        let urls = [
            "http://sports17.com/p2804.html",
            "http://sports17.com/p2889.html",
        ];
        let hash = bingo_textproc::fxhash::hash_one;
        assert_eq!(hash(urls[0]), hash(urls[1]));
        let find_both = |s: &DocumentStore| {
            for (id, url) in (1..).zip(urls) {
                assert_eq!(s.document_by_url(url).map(|r| r.id), Some(id), "{url}");
            }
        };
        let fill = |s: &DocumentStore| {
            for (id, url) in (1..).zip(urls) {
                s.insert_document(doc(id, url, None)).unwrap();
            }
        };
        let mem = DocumentStore::new();
        fill(&mem);
        find_both(&mem);

        let dir = std::env::temp_dir().join(format!("bingo-store-url-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let seg = DocumentStore::segmented_with(&dir, 1).unwrap();
        fill(&seg);
        seg.seal_now().unwrap();
        assert_eq!(seg.sealed_documents(), 2);
        find_both(&seg);
        drop(seg);
        find_both(&DocumentStore::segmented_with(&dir, 1).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_writers() {
        let s = DocumentStore::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = s.clone();
                scope.spawn(move || {
                    for i in 0..100u64 {
                        let id = t * 1000 + i;
                        s.insert_document(doc(id, &format!("u{id}"), Some((id % 7) as u32)))
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(s.document_count(), 400);
        let total: usize = (0..7).map(|t| s.topic_documents(t).len()).sum();
        assert_eq!(total, 400);
    }
}
