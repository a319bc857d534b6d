//! Incremental, snapshot-swappable inverted index.
//!
//! The batch [`InvertedIndex`](crate::InvertedIndex) answers queries only
//! *after* a crawl; the portal front end needs answers *during* one. This
//! module provides the epoch/snapshot-swap serving index of ROADMAP
//! item 5:
//!
//! * Writers ([`LiveIndex::ingest`], typically fed through the store's
//!   [`bingo_store::IndexTee`] hook) append rows to a pending
//!   [`Segment`] under a writer mutex the query path never touches.
//! * [`LiveIndex::commit`] seals the pending segment, recomputes the idf
//!   table and every norm, and publishes a fresh [`IndexSnapshot`] by
//!   swapping an `Arc` and then bumping an atomic epoch counter.
//! * Readers hold an [`IndexReader`], which caches `(epoch, Arc)`. The
//!   steady-state query path is one `Acquire` load of the epoch plus an
//!   `Arc` clone — lock-free; a reader takes the (brief) publication
//!   mutex only on the query *after* a commit, to re-fetch the `Arc`.
//!   No `RwLock` is ever held across a query.
//!
//! Snapshots share sealed segments via `Arc`, so a commit never copies
//! previously indexed postings or weights. A sealed segment is a handful
//! of flat arrays, the same layout as the batch index's one segment (see
//! [`Segment`]).
//!
//! # Cost model
//!
//! * [`LiveIndex::ingest`] is O(batch): each row is appended to the
//!   pending [`Segment`]'s doc-major arrays — one term-slot lookup and
//!   one packed `(slot, tf code)` entry per posting, no `ln`.
//! * [`LiveIndex::commit`] seals the pending segment with one counting
//!   sort by term slot into a single postings array (O(batch) plus a
//!   scratch count per slot), builds one dense idf table (O(vocabulary))
//!   and then recomputes **every** document norm: idf depends on the global
//!   document count, so all tf·idf norms change whenever the corpus
//!   grows. That pass is O(total postings) — amortized by committing per
//!   bulk-load batch rather than per document — but it is one table
//!   read of `1 + ln tf` and one multiply-add over flat arrays per
//!   posting (≈2 ns; it was a hash lookup and two `ln` calls, ≈22 ns).
//!   It buys exact equivalence with a batch rebuild (see
//!   [`IndexSnapshot`] and the `live_equivalence` test);
//!   `search.live.norm_postings` counts the postings it visits.
//! * A query term costs one slot lookup, then one binary search of each
//!   segment's directory — O(segments · log terms per segment) before
//!   its postings are read.
//! * Memory: a sealed segment holds 7 bytes per posting (a packed
//!   doc-major `(slot, tf code)` entry, a `u16` ordinal and a tf code
//!   term-major), 8 per distinct term of the segment and 12 per
//!   document; the published snapshot adds a norm per document and the
//!   slot and idf tables. In all that is 15.2 heap bytes per posting on
//!   `live_commit`'s synthetic rows (24.2 at 16 bytes a posting; one
//!   heap vector per term per segment cost 93) and ≈9 of
//!   [`LiveIndex::resident_bytes`] on the `serve_live` corpus (17.1
//!   before). `tests/live_alloc_budget.rs` gates the first. The
//!   directory is most of the rest on the synthetic rows, where a term
//!   has 1.3 postings per segment on average.
//!   [`LiveIndex::resident_bytes`] estimates the total from the tables'
//!   sizes.
//!
//! Computing norms lazily — per matching document at query time — was
//! tried when this design was sized and lost: it takes the pass out of
//! the commit (the same ingest rate on the `serve_live` benchmark
//! workload), but a portal query matches thousands of documents, so
//! closed-loop capacity fell from 138 to 88 requests/s and `rank` p50
//! rose from 7.0 to 12.7 ms. A commit that is flat in corpus size needs
//! norms that do not depend on the corpus size, i.e. a different
//! ranking.

use crate::index::{map_bytes, Segment, TermIndex, TermSlots};
use bingo_graph::PageId;
use bingo_obs::{Counter, Gauge, Registry};
use bingo_store::{DocumentRow, IndexTee};
use bingo_textproc::fxhash::FxHashMap;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One published, immutable index state. Queries resolve entirely
/// against a single snapshot, so every query sees one consistent corpus
/// (never a half-committed batch) no matter how many commits land while
/// it runs.
///
/// Snapshots implement [`TermIndex`] with the same idf definition and
/// the same norm routine (`Segment::norms_into`) as the batch build,
/// so a snapshot over segments `S1..Sn` scores identically (bit-for-bit)
/// to `InvertedIndex::build` over the union of their rows.
#[derive(Debug, Default)]
pub struct IndexSnapshot {
    epoch: u64,
    segments: Vec<Arc<Segment>>,
    terms: TermSlots,
    /// idf per term slot at this snapshot's `doc_count`.
    idf: Vec<f32>,
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
        self.terms.len()
    }

    /// Heap bytes of the tables this snapshot owns: its slot table, idf
    /// table and norms. The segments it shares are the writer's.
    fn own_bytes(&self) -> usize {
        self.terms.resident_bytes() + self.idf.len() * size_of::<f32>() + map_bytes(&self.norms)
    }
}

impl TermIndex for IndexSnapshot {
    fn doc_count(&self) -> u64 {
        self.doc_count
    }

    fn df(&self, term: u32) -> u64 {
        self.terms.df(term)
    }

    fn norm(&self, doc: PageId) -> f32 {
        self.norms.get(&doc).copied().unwrap_or(0.0)
    }

    fn for_each_posting(&self, term: u32, f: &mut dyn FnMut(PageId, u32)) {
        let Some(slot) = self.terms.slot(term) else {
            return;
        };
        for seg in &self.segments {
            for (doc, tf) in seg.postings(slot) {
                f(doc, tf);
            }
        }
    }

    fn idf(&self, term: u32) -> f32 {
        self.terms
            .slot(term)
            .map_or(0.0, |slot| self.idf[slot as usize])
    }
}

/// Writer-side state, guarded by one mutex that queries never take.
#[derive(Debug)]
struct Writer {
    /// Rows staged since the last commit, already in segment layout.
    pending: Segment,
    segments: Vec<Arc<Segment>>,
    /// Slots and document frequencies over `segments` and `pending`.
    terms: TermSlots,
    doc_count: u64,
}

impl Writer {
    /// Heap bytes of every segment, sealed or pending, and of the slot
    /// table.
    fn resident_bytes(&self) -> usize {
        let segments: usize = self.segments.iter().map(|s| s.resident_bytes()).sum();
        segments + self.pending.resident_bytes() + self.terms.resident_bytes()
    }
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
                    pending: Segment::default(),
                    segments: Vec::new(),
                    terms: TermSlots::default(),
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
            let mut guard = self.shared.writer.lock();
            let w = &mut *guard;
            for row in rows {
                w.pending.push(&mut w.terms, row.id, &row.term_freqs);
            }
            if let Some(o) = &self.obs {
                o.ingested.add(rows.len() as u64);
                o.pending.set(w.pending.doc_count() as i64);
            }
            self.shared.commit_every > 0 && w.pending.doc_count() >= self.shared.commit_every
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
        if w.pending.doc_count() == 0 {
            return self.shared.epoch.load(Ordering::Acquire);
        }
        let mut sealed = std::mem::take(&mut w.pending);
        sealed.seal();
        w.doc_count += sealed.doc_count() as u64;
        w.segments.push(Arc::new(sealed));

        // Norms are global (idf moves with doc_count), so recompute all
        // of them, segment by segment in arrival order.
        let idf = w.terms.idf_table(w.doc_count);
        let mut norms =
            FxHashMap::with_capacity_and_hasher(w.doc_count as usize, Default::default());
        let mut norm_postings = 0;
        for seg in &w.segments {
            seg.norms_into(&idf, &mut norms);
            norm_postings += seg.posting_count() as u64;
        }
        let epoch = self.shared.epoch.load(Ordering::Acquire) + 1;
        let docs = w.doc_count;
        let snapshot = IndexSnapshot {
            epoch,
            segments: w.segments.clone(),
            terms: w.terms.clone(),
            idf,
            norms,
            doc_count: docs,
        };
        let resident = w.resident_bytes() + snapshot.own_bytes();

        *self.shared.current.lock() = Arc::new(snapshot);
        self.shared.epoch.store(epoch, Ordering::Release);
        if let Some(o) = &self.obs {
            o.commits.inc();
            o.norm_postings.add(norm_postings);
            o.epoch.set(epoch as i64);
            o.docs.set(docs as i64);
            o.pending.set(0);
            o.resident_bytes.set(resident as i64);
        }
        epoch
    }

    /// Heap bytes the index holds: every segment, the writer's slot
    /// table and the published snapshot's slot, idf and norm tables.
    /// Computed from the tables' sizes, not measured, so it is a
    /// deterministic function of the ingest/commit schedule. Snapshots
    /// still held by readers after a newer commit are not counted.
    pub fn resident_bytes(&self) -> usize {
        let w = self.shared.writer.lock();
        let snapshot = self.shared.current.lock().clone();
        w.resident_bytes() + snapshot.own_bytes()
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
        self.shared.writer.lock().pending.doc_count()
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
    /// Postings visited by norm recomputation, summed over commits: the
    /// O(total postings) work a commit does, as a deterministic count.
    pub norm_postings: Counter,
    /// Epoch of the latest published snapshot.
    pub epoch: Gauge,
    /// Documents in the latest published snapshot.
    pub docs: Gauge,
    /// Rows currently staged for the next commit.
    pub pending: Gauge,
    /// [`LiveIndex::resident_bytes`] after the latest commit.
    pub resident_bytes: Gauge,
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
            norm_postings: registry.counter("search.live.norm_postings"),
            epoch: registry.gauge("search.live.epoch"),
            docs: registry.gauge("search.live.docs"),
            pending: registry.gauge("search.live.pending"),
            resident_bytes: registry.gauge("search.live.resident_bytes"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::{analyze_query, InvertedIndex};
    use crate::rank::{rank, RankingScheme, TopicFilter};
    use crate::tests::{blank_row, sample_store};
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

    /// Term tables are indexed by dense slot, not by term id: a stray
    /// huge id costs one slot, in the commit that brings it and in every
    /// later one, and changes nothing about the arithmetic.
    #[test]
    fn huge_term_id_costs_one_slot_and_matches_batch() {
        const HUGE: u32 = u32::MAX - 1;
        let store = DocumentStore::new();
        let live = LiveIndex::new(0);
        let row = |id: u64, term_freqs: &[(u32, u32)]| DocumentRow {
            term_freqs: term_freqs.to_vec(),
            ..blank_row(id)
        };
        let commits = [
            vec![row(1, &[(3, 2), (HUGE, 1)]), row(2, &[(3, 1), (9, 4)])],
            vec![row(3, &[(9, 1)])],
            vec![row(4, &[(0, 3), (HUGE, 5)]), row(5, &[])],
        ];
        for rows in commits {
            live.ingest(&rows);
            live.commit();
            assert!(store.insert_documents(rows).is_empty());
        }
        let snap = live.reader().snapshot();
        assert_eq!(snap.term_count(), 4);
        assert_eq!(snap.idf.len(), 4, "idf table sized by terms seen");
        assert_eq!(snap.df(HUGE), 2);
        let batch = InvertedIndex::build(&store);
        assert_eq!(snap.idf(HUGE).to_bits(), batch.idf(HUGE).to_bits());
        for d in 1..=5u64 {
            assert_eq!(snap.norm(d).to_bits(), batch.norm(d).to_bits(), "doc {d}");
        }
        let hits = |index: &dyn TermIndex| {
            rank(
                &store,
                index,
                &[HUGE],
                &TopicFilter::Any,
                RankingScheme::Cosine,
                10,
            )
            .iter()
            .map(|h| (h.doc_id, h.score.to_bits()))
            .collect::<Vec<_>>()
        };
        assert_eq!(hits(&*snap).len(), 2);
        assert_eq!(hits(&*snap), hits(&batch));
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
        let postings: usize = store
            .all_documents()
            .iter()
            .map(|r| r.term_freqs.len())
            .sum();
        assert_eq!(
            snap.counters["search.live.norm_postings"], postings as u64,
            "one commit visits every posting once"
        );
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
                            term_freqs: vec![(id as u32 % 50, 1), (1000 + id as u32 % 7, 2)],
                            ..blank_row(id)
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
