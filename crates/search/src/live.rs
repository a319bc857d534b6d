//! Incremental, snapshot-swappable inverted index.
//!
//! The batch [`InvertedIndex`](crate::InvertedIndex) answers queries only
//! *after* a crawl; the portal front end needs answers *during* one. This
//! module provides the epoch/snapshot-swap design ROADMAP item 2 calls
//! for:
//!
//! * Writers ([`LiveIndex::ingest`], typically fed through the store's
//!   [`bingo_store::IndexTee`] hook) accumulate rows into a pending
//!   batch under a writer mutex the query path never touches.
//! * [`LiveIndex::commit`] seals the pending rows into an immutable
//!   [`Segment`], recomputes global document frequencies and norms, and
//!   publishes a fresh [`IndexSnapshot`] by swapping an `Arc` and then
//!   bumping an atomic epoch counter.
//! * Readers hold an [`IndexReader`], which caches `(epoch, Arc)`. The
//!   steady-state query path is one `Acquire` load of the epoch plus an
//!   `Arc` clone — lock-free; a reader takes the (brief) publication
//!   mutex only on the query *after* a commit, to re-fetch the `Arc`.
//!   No `RwLock` is ever held across a query.
//!
//! Segments share their postings via `Arc`, so a commit never copies
//! previously indexed postings. What a commit does recompute is every
//! document norm: idf depends on the global document count, so all
//! tf·idf norms change whenever the corpus grows. That makes commits
//! O(total postings) — amortized by committing per bulk-load batch
//! rather than per document — and buys exact equivalence with a batch
//! rebuild (see [`IndexSnapshot`] and the `live_equivalence` test).

use crate::index::{doc_norm, TermIndex};
use bingo_graph::PageId;
use bingo_obs::{Counter, Gauge, Registry};
use bingo_store::{DocumentRow, IndexTee};
use bingo_textproc::fxhash::FxHashMap;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An immutable batch of indexed documents: the rows in arrival order
/// (doc-major, each row's term list in stored order — the norm
/// accumulation order) plus term-major postings for the query path.
#[derive(Debug, Default)]
pub struct Segment {
    rows: Vec<(PageId, Vec<(u32, u32)>)>,
    postings: FxHashMap<u32, Vec<(PageId, u32)>>,
}

impl Segment {
    fn from_rows(rows: Vec<(PageId, Vec<(u32, u32)>)>) -> Self {
        let mut postings: FxHashMap<u32, Vec<(PageId, u32)>> = FxHashMap::default();
        for (doc, tfs) in &rows {
            for &(term, tf) in tfs {
                postings.entry(term).or_default().push((*doc, tf));
            }
        }
        for list in postings.values_mut() {
            list.sort_unstable_by_key(|&(d, _)| d);
        }
        Segment { rows, postings }
    }

    /// Documents in this segment.
    pub fn doc_count(&self) -> usize {
        self.rows.len()
    }
}

/// One published, immutable index state. Queries resolve entirely
/// against a single snapshot, so every query sees one consistent corpus
/// (never a half-committed batch) no matter how many commits land while
/// it runs.
///
/// Snapshots implement [`TermIndex`] with the same idf formula and the
/// same doc-major norm accumulation as the batch build, so a snapshot
/// over segments `S1..Sn` scores identically (bit-for-bit) to
/// `InvertedIndex::build` over the union of their rows.
#[derive(Debug, Default)]
pub struct IndexSnapshot {
    epoch: u64,
    segments: Vec<Arc<Segment>>,
    df: FxHashMap<u32, u64>,
    norms: FxHashMap<PageId, f32>,
    doc_count: u64,
}

impl IndexSnapshot {
    /// Publication epoch: 0 for the empty initial snapshot, then +1 per
    /// commit.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of sealed segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of distinct terms with postings.
    pub fn term_count(&self) -> usize {
        self.df.len()
    }
}

impl TermIndex for IndexSnapshot {
    fn doc_count(&self) -> u64 {
        self.doc_count
    }

    fn df(&self, term: u32) -> u64 {
        self.df.get(&term).copied().unwrap_or(0)
    }

    fn norm(&self, doc: PageId) -> f32 {
        self.norms.get(&doc).copied().unwrap_or(0.0)
    }

    fn for_each_posting(&self, term: u32, f: &mut dyn FnMut(PageId, u32)) {
        for seg in &self.segments {
            if let Some(list) = seg.postings.get(&term) {
                for &(doc, tf) in list {
                    f(doc, tf);
                }
            }
        }
    }
}

/// Writer-side state, guarded by one mutex that queries never take.
#[derive(Debug)]
struct Writer {
    pending: Vec<(PageId, Vec<(u32, u32)>)>,
    segments: Vec<Arc<Segment>>,
    df: FxHashMap<u32, u64>,
    doc_count: u64,
}

#[derive(Debug)]
struct SharedIndex {
    /// Epoch of the currently published snapshot. Bumped with `Release`
    /// *after* `current` is replaced, so a reader observing a new epoch
    /// is guaranteed to fetch a snapshot at least that new.
    epoch: AtomicU64,
    current: Mutex<Arc<IndexSnapshot>>,
    writer: Mutex<Writer>,
    commit_every: usize,
}

/// Handle over the shared live index; cheap to clone. See the module
/// docs for the writer/reader protocol.
#[derive(Debug, Clone)]
pub struct LiveIndex {
    shared: Arc<SharedIndex>,
    obs: Option<LiveIndexObs>,
}

impl LiveIndex {
    /// Empty live index. `commit_every > 0` auto-commits whenever that
    /// many rows are pending after an [`ingest`](LiveIndex::ingest);
    /// `commit_every == 0` leaves publication entirely to explicit
    /// [`commit`](LiveIndex::commit) calls.
    pub fn new(commit_every: usize) -> Self {
        LiveIndex {
            shared: Arc::new(SharedIndex {
                epoch: AtomicU64::new(0),
                current: Mutex::new(Arc::new(IndexSnapshot::default())),
                writer: Mutex::new(Writer {
                    pending: Vec::new(),
                    segments: Vec::new(),
                    df: FxHashMap::default(),
                    doc_count: 0,
                }),
                commit_every,
            }),
            obs: None,
        }
    }

    /// Same index, with ingest/commit activity recorded through `obs`.
    pub fn with_obs(mut self, obs: LiveIndexObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Stage rows for the next commit. Safe from any number of writer
    /// threads; readers are unaffected until a commit publishes.
    pub fn ingest(&self, rows: &[DocumentRow]) {
        let commit_now = {
            let mut w = self.shared.writer.lock();
            w.pending
                .extend(rows.iter().map(|r| (r.id, r.term_freqs.clone())));
            if let Some(o) = &self.obs {
                o.ingested.add(rows.len() as u64);
                o.pending.set(w.pending.len() as i64);
            }
            self.shared.commit_every > 0 && w.pending.len() >= self.shared.commit_every
        };
        if commit_now {
            self.commit();
        }
    }

    /// Seal pending rows into a segment and publish a new snapshot.
    /// Returns the epoch of the snapshot current after the call (a
    /// no-op, without an epoch bump, when nothing is pending).
    pub fn commit(&self) -> u64 {
        let mut w = self.shared.writer.lock();
        if w.pending.is_empty() {
            return self.shared.epoch.load(Ordering::Acquire);
        }
        let rows = std::mem::take(&mut w.pending);
        w.doc_count += rows.len() as u64;
        for (_, tfs) in &rows {
            for &(term, _) in tfs {
                *w.df.entry(term).or_insert(0) += 1;
            }
        }
        w.segments.push(Arc::new(Segment::from_rows(rows)));

        let epoch = self.shared.epoch.load(Ordering::Acquire) + 1;
        let mut snapshot = IndexSnapshot {
            epoch,
            segments: w.segments.clone(),
            df: w.df.clone(),
            norms: FxHashMap::default(),
            doc_count: w.doc_count,
        };
        // Norms are global (idf moves with doc_count), so recompute all
        // of them doc-major — the exact accumulation the batch build
        // uses.
        let mut norms = FxHashMap::default();
        for seg in &snapshot.segments {
            for (doc, tfs) in &seg.rows {
                norms.insert(*doc, doc_norm(&snapshot, tfs));
            }
        }
        snapshot.norms = norms;
        let docs = snapshot.doc_count;

        *self.shared.current.lock() = Arc::new(snapshot);
        self.shared.epoch.store(epoch, Ordering::Release);
        if let Some(o) = &self.obs {
            o.commits.inc();
            o.epoch.set(epoch as i64);
            o.docs.set(docs as i64);
            o.pending.set(0);
        }
        epoch
    }

    /// A reader handle for one querying thread.
    pub fn reader(&self) -> IndexReader {
        let current = self.shared.current.lock().clone();
        IndexReader {
            shared: Arc::clone(&self.shared),
            cached_epoch: current.epoch(),
            cached: current,
        }
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Rows staged but not yet committed.
    pub fn pending_docs(&self) -> usize {
        self.shared.writer.lock().pending.len()
    }
}

/// The store-side hook: attach via
/// `DocumentStore::with_tee(Arc::new(live.clone()))` and every accepted
/// insert — single or bulk-loader batch, from any crawler thread — is
/// staged automatically.
impl IndexTee for LiveIndex {
    fn on_insert(&self, rows: &[DocumentRow]) {
        self.ingest(rows);
    }
}

/// Per-thread read handle: caches the last snapshot and re-fetches it
/// only when the published epoch moves.
#[derive(Debug, Clone)]
pub struct IndexReader {
    shared: Arc<SharedIndex>,
    cached_epoch: u64,
    cached: Arc<IndexSnapshot>,
}

impl IndexReader {
    /// Current snapshot. Steady state (no commit since the last call)
    /// is one atomic load plus an `Arc` clone.
    pub fn snapshot(&mut self) -> Arc<IndexSnapshot> {
        let epoch = self.shared.epoch.load(Ordering::Acquire);
        if epoch != self.cached_epoch {
            let current = self.shared.current.lock().clone();
            self.cached_epoch = current.epoch();
            self.cached = current;
        }
        Arc::clone(&self.cached)
    }
}

/// Metric handles for a live index. Deterministic under a deterministic
/// ingest/commit schedule.
#[derive(Clone)]
pub struct LiveIndexObs {
    /// Commits that published a new snapshot.
    pub commits: Counter,
    /// Rows staged via ingest.
    pub ingested: Counter,
    /// Epoch of the latest published snapshot.
    pub epoch: Gauge,
    /// Documents in the latest published snapshot.
    pub docs: Gauge,
    /// Rows currently staged for the next commit.
    pub pending: Gauge,
}

impl std::fmt::Debug for LiveIndexObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LiveIndexObs")
    }
}

impl LiveIndexObs {
    /// Register the live-index metrics in `registry`.
    pub fn new(registry: &Registry) -> Self {
        LiveIndexObs {
            commits: registry.counter("search.live.commits"),
            ingested: registry.counter("search.live.ingested"),
            epoch: registry.gauge("search.live.epoch"),
            docs: registry.gauge("search.live.docs"),
            pending: registry.gauge("search.live.pending"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{analyze_query, InvertedIndex};
    use crate::rank::{rank, RankingScheme, TopicFilter};
    use crate::tests::sample_store;
    use bingo_store::DocumentStore;

    fn ingest_all(live: &LiveIndex, store: &DocumentStore, batch: usize) {
        let mut rows = store.all_documents();
        rows.sort_unstable_by_key(|r| r.id);
        for chunk in rows.chunks(batch) {
            live.ingest(chunk);
            live.commit();
        }
    }

    #[test]
    fn empty_index_answers_empty() {
        let live = LiveIndex::new(0);
        let mut reader = live.reader();
        let snap = reader.snapshot();
        assert_eq!(snap.epoch(), 0);
        assert_eq!(TermIndex::doc_count(&*snap), 0);
        assert_eq!(snap.df(7), 0);
        assert_eq!(snap.idf(7), 0.0);
    }

    #[test]
    fn commit_publishes_and_bumps_epoch() {
        let (store, _vocab) = sample_store();
        let live = LiveIndex::new(0);
        let mut reader = live.reader();
        live.ingest(&store.all_documents());
        assert_eq!(reader.snapshot().epoch(), 0, "nothing published yet");
        assert_eq!(live.pending_docs(), 5);
        let epoch = live.commit();
        assert_eq!(epoch, 1);
        assert_eq!(live.commit(), 1, "empty commit is a no-op");
        let snap = reader.snapshot();
        assert_eq!(snap.epoch(), 1);
        assert_eq!(TermIndex::doc_count(&*snap), 5);
        assert_eq!(live.pending_docs(), 0);
    }

    #[test]
    fn reader_holds_stable_snapshot_across_commits() {
        let (store, _vocab) = sample_store();
        let mut rows = store.all_documents();
        rows.sort_unstable_by_key(|r| r.id);
        let live = LiveIndex::new(0);
        live.ingest(&rows[..2]);
        live.commit();
        let mut reader = live.reader();
        let old = reader.snapshot();
        live.ingest(&rows[2..]);
        live.commit();
        assert_eq!(TermIndex::doc_count(&*old), 2, "held snapshot is immutable");
        assert_eq!(TermIndex::doc_count(&*reader.snapshot()), 5);
    }

    #[test]
    fn auto_commit_every_n_rows() {
        let (store, _vocab) = sample_store();
        let mut rows = store.all_documents();
        rows.sort_unstable_by_key(|r| r.id);
        let live = LiveIndex::new(2);
        for row in rows {
            live.ingest(std::slice::from_ref(&row));
        }
        assert_eq!(live.epoch(), 2, "two auto-commits at 2 and 4 rows");
        assert_eq!(live.pending_docs(), 1);
        live.commit();
        assert_eq!(live.epoch(), 3);
    }

    #[test]
    fn incremental_matches_batch_exactly() {
        let (store, vocab) = sample_store();
        let batch = InvertedIndex::build(&store);
        for chunk in [1usize, 2, 5] {
            let live = LiveIndex::new(0);
            ingest_all(&live, &store, chunk);
            let snap = live.reader().snapshot();
            assert_eq!(TermIndex::doc_count(&*snap), batch.doc_count());
            assert_eq!(snap.term_count(), batch.term_count());
            for d in 1..=5u64 {
                assert_eq!(
                    snap.norm(d),
                    batch.norm(d),
                    "norm of doc {d}, chunk {chunk}"
                );
            }
            for q in ["aries recovery", "release", "football season", "basketball"] {
                let terms = analyze_query(&vocab, q);
                let a = rank(
                    &store,
                    &batch,
                    &terms,
                    &TopicFilter::Any,
                    RankingScheme::Cosine,
                    10,
                );
                let b = rank(
                    &store,
                    &*snap,
                    &terms,
                    &TopicFilter::Any,
                    RankingScheme::Cosine,
                    10,
                );
                let ids_a: Vec<u64> = a.iter().map(|h| h.doc_id).collect();
                let ids_b: Vec<u64> = b.iter().map(|h| h.doc_id).collect();
                assert_eq!(ids_a, ids_b, "query {q:?}, chunk {chunk}");
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.score, y.score, "query {q:?}, chunk {chunk}");
                }
            }
        }
    }

    #[test]
    fn store_tee_feeds_live_index() {
        let live = LiveIndex::new(0);
        let (src, _vocab) = sample_store();
        let store = DocumentStore::new().with_tee(Arc::new(live.clone()));
        let mut rows = src.all_documents();
        rows.sort_unstable_by_key(|r| r.id);
        store.insert_documents(rows.clone());
        assert_eq!(live.pending_docs(), 5);
        // Duplicate rows are rejected by the store and never staged.
        store.insert_documents(rows);
        assert_eq!(live.pending_docs(), 5);
        live.commit();
        assert_eq!(TermIndex::doc_count(&*live.reader().snapshot()), 5);
    }

    #[test]
    fn obs_records_commits() {
        let registry = Registry::new();
        let obs = LiveIndexObs::new(&registry);
        let (store, _vocab) = sample_store();
        let live = LiveIndex::new(0).with_obs(obs);
        live.ingest(&store.all_documents());
        live.commit();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["search.live.commits"], 1);
        assert_eq!(snap.counters["search.live.ingested"], 5);
        assert_eq!(snap.gauges["search.live.epoch"], 1);
        assert_eq!(snap.gauges["search.live.docs"], 5);
        assert_eq!(snap.gauges["search.live.pending"], 0);
    }

    #[test]
    fn concurrent_writers_and_readers() {
        let live = LiveIndex::new(8);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let live = live.clone();
                s.spawn(move || {
                    for i in 0..200u64 {
                        let id = t * 1000 + i;
                        live.ingest(&[DocumentRow {
                            id,
                            url: format!("http://h/{id}"),
                            host: 1,
                            mime: bingo_textproc::MimeType::Html,
                            depth: 0,
                            title: String::new(),
                            topic: None,
                            confidence: 0.0,
                            term_freqs: vec![(id as u32 % 50, 1), (1000 + id as u32 % 7, 2)],
                            size: 10,
                            fetched_at: 0,
                        }]);
                    }
                });
            }
            for _ in 0..2 {
                let live = live.clone();
                let stop = &stop;
                s.spawn(move || {
                    let mut reader = live.reader();
                    let mut last_epoch = 0;
                    let mut last_docs = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = reader.snapshot();
                        // Snapshots only move forward, and always pair a
                        // consistent (epoch, corpus) — never a torn state.
                        assert!(snap.epoch() >= last_epoch);
                        assert!(TermIndex::doc_count(&*snap) >= last_docs);
                        last_epoch = snap.epoch();
                        last_docs = TermIndex::doc_count(&*snap);
                        let mut seen = 0u64;
                        snap.for_each_posting(3, &mut |_, _| seen += 1);
                        let _ = seen;
                    }
                });
            }
            // Writers finish, then stop the readers.
            while live.epoch() < 400 / 8 {
                std::thread::yield_now();
            }
            stop.store(true, Ordering::Relaxed);
        });
        live.commit();
        assert_eq!(TermIndex::doc_count(&*live.reader().snapshot()), 400);
    }
}
