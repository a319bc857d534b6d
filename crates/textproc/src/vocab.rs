//! Term dictionary: interning stemmed terms to dense [`TermId`]s shared
//! across the whole engine (documents, classifiers, indexes).
//!
//! Two interners implement the [`Interner`] contract:
//!
//! * [`Vocabulary`] — the single-threaded dictionary with sequential
//!   first-encounter ids, used by the deterministic crawler and the
//!   engine,
//! * [`SharedVocabulary`] — a sharded concurrent dictionary for the
//!   real-thread pipeline: all workers intern into one shared term space
//!   through `&self`, so a batch analyzed on any thread produces ids
//!   every other thread understands.
//!
//! Concurrent interning assigns ids in arrival order, which depends on
//! scheduling: seed terms (interned before the concurrent phase, e.g. by
//! classifier training) keep their ids, every later term gets the next
//! free one. Two runs over the same documents therefore agree on each
//! document's terms, not on their ids — compare them as term text, each
//! through its own dictionary ([`SharedVocabulary::snapshot`]).

use crate::fxhash::{self, FxHashMap};
use crate::tokenize::{Key, KEY_LEN};
use crate::AnalyzedDocument;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// A dense identifier for an interned term.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TermId(pub u32);

/// Bidirectional term dictionary.
///
/// Interning is append-only; ids are stable for the lifetime of the
/// vocabulary, which the store and the classifiers rely on.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Vocabulary {
    terms: Vec<String>,
    #[serde(skip)]
    index: FxHashMap<String, TermId>,
    /// Raw tokens already stemmed and interned here.
    #[serde(skip)]
    memo: TokenMemo,
}

impl Vocabulary {
    /// Empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dictionary whose ids are the positions in `terms`.
    fn from_terms(terms: Vec<String>) -> Self {
        let mut vocab = Vocabulary {
            terms,
            ..Self::default()
        };
        vocab.rebuild_index();
        vocab
    }

    /// Intern `term`, returning its stable id.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.index.get(term) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(term.to_string());
        self.index.insert(term.to_string(), id);
        id
    }

    /// Look up an already-interned term.
    pub fn lookup(&self, term: &str) -> Option<TermId> {
        self.index.get(term).copied()
    }

    /// The string for `id`. Panics on an id from another vocabulary.
    pub fn term(&self, id: TermId) -> &str {
        &self.terms[id.0 as usize]
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Rebuild the reverse index after deserialization (the map is skipped
    /// during serialization because it is derivable).
    pub fn rebuild_index(&mut self) {
        self.index = self
            .terms
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), TermId(i as u32)))
            .collect();
    }

    /// Iterate `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t.as_str()))
    }

    /// The terms with ids from `start` on, in id order: what a mirror of
    /// the first `start` terms appends to catch up.
    pub fn terms_from(&self, start: usize) -> &[String] {
        &self.terms[start.min(self.terms.len())..]
    }

    /// Make this dictionary a mirror of `source`: same terms, same ids.
    /// A non-empty dictionary whose terms are a prefix of `source`'s
    /// keeps its token memo and appends the rest; any other is replaced
    /// by a copy of `source`, memo included.
    pub fn mirror(&mut self, source: &Vocabulary) {
        let n = self.terms.len();
        if n > 0 && source.terms.get(..n) == Some(&self.terms[..]) {
            for term in &source.terms[n..] {
                self.intern(term);
            }
        } else {
            *self = source.clone();
        }
    }
}

/// Slots of a full-grown [`TokenMemo`]: 320 KiB, filled to three quarters
/// (12,288 tokens) and then left as it is.
const MEMO_MAX_SLOTS: usize = 1 << 14;

/// Raw lowercase token → what it adds to a page: nothing (a basic
/// stopword), or its stem's id, which anchor texts drop if the token is
/// an anchor stopword. One probe decides an occurrence.
///
/// An open-addressed table with the [`Key`] inline (the all-zero key
/// marks an empty slot), grown by doubling up to [`MEMO_MAX_SLOTS`] and
/// never evicted. Its entries come from fixed lists and an append-only
/// dictionary, so none goes stale; a miss only costs a stem.
#[derive(Default, Clone)]
pub(crate) struct TokenMemo {
    /// Empty or a power of two long.
    slots: Vec<(Key, u32)>,
    used: usize,
    /// A page's count per term id, and a two-level bitmap of those ids.
    counts: Vec<u32>,
    seen: Vec<u64>,
    blocks: Vec<u64>,
}

/// Counts only: the table is derived data, and thousands of slots would
/// drown the `Debug` output of the [`Vocabulary`] around it.
impl std::fmt::Debug for TokenMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TokenMemo({} of {} slots)", self.used, self.slots.len())
    }
}

impl TokenMemo {
    const EMPTY: Key = [0; KEY_LEN];
    /// The value of a basic stopword; a term's is its id, with this bit
    /// set when anchor texts drop it.
    pub(crate) const STOPWORD: u32 = u32::MAX;
    pub(crate) const ANCHOR_STOP: u32 = 1 << 31;

    /// Where `key` is, or the empty slot where it would go. The table
    /// always has an empty slot, so the probe ends.
    fn slot_of(&self, key: &Key) -> usize {
        let mask = self.slots.len() - 1;
        // The high bits of a multiplicative hash are the mixed ones.
        let mut at = (fxhash::hash_one(&u128::from_le_bytes(*key)) >> 32) as usize & mask;
        while self.slots[at].0 != *key && self.slots[at].0 != Self::EMPTY {
            at = (at + 1) & mask;
        }
        at
    }

    pub(crate) fn get(&self, key: &Key) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let (found, value) = self.slots[self.slot_of(key)];
        (found == *key).then_some(value)
    }

    /// Remember `key → value`; the caller has just seen
    /// [`get`](Self::get) miss.
    pub(crate) fn insert(&mut self, key: &Key, value: u32) {
        if self.used * 4 >= self.slots.len() * 3 {
            if self.slots.len() >= MEMO_MAX_SLOTS {
                return;
            }
            let grown = vec![(Self::EMPTY, 0); (self.slots.len() * 2).max(256)];
            for slot in std::mem::replace(&mut self.slots, grown) {
                if slot.0 != Self::EMPTY {
                    let at = self.slot_of(&slot.0);
                    self.slots[at] = slot;
                }
            }
        }
        let at = self.slot_of(key);
        self.slots[at] = (*key, value);
        self.used += 1;
    }

    /// `terms` counted by id, in id order without a sort: the bitmap's
    /// marks are walked in order, clearing all three tables as they go.
    pub(crate) fn term_freqs(&mut self, terms: &[TermId]) -> Vec<(TermId, u32)> {
        let mut distinct = 0;
        for &TermId(id) in terms {
            let id = id as usize;
            if id >= self.counts.len() {
                self.counts.resize((id + 1).next_multiple_of(1 << 12), 0);
                self.seen.resize(self.counts.len() >> 6, 0);
                self.blocks.resize(self.counts.len() >> 12, 0);
            }
            distinct += usize::from(self.counts[id] == 0);
            self.counts[id] += 1;
            self.seen[id >> 6] |= 1 << (id & 63);
            self.blocks[id >> 12] |= 1 << (id >> 6 & 63);
        }
        let mut freqs = Vec::with_capacity(distinct);
        for block in 0..self.blocks.len() {
            let mut words = std::mem::take(&mut self.blocks[block]);
            while words != 0 {
                let word = block << 6 | words.trailing_zeros() as usize;
                let mut ids = std::mem::take(&mut self.seen[word]);
                while ids != 0 {
                    let id = word << 6 | ids.trailing_zeros() as usize;
                    freqs.push((TermId(id as u32), std::mem::take(&mut self.counts[id])));
                    ids &= ids - 1;
                }
                words &= words - 1;
            }
        }
        freqs
    }

    fn clear(&mut self) {
        self.slots.fill((Self::EMPTY, 0));
        self.used = 0;
    }
}

/// Number of shards in a [`SharedVocabulary`]; a power of two so the
/// shard of a term is a cheap mask of its hash.
const SHARDS: usize = 16;

/// A concurrency-safe sharded term dictionary (Section 4.1: all crawler
/// threads feed one document analyzer term space).
///
/// Interning takes `&self`: the term's hash picks a shard, the shard's
/// mutex guards its slice of the dictionary, and a global atomic hands
/// out fresh ids. Ids are unique and stable for the lifetime of the
/// dictionary but *arrival-ordered*: [`SharedVocabulary::snapshot`] reads
/// them back as term text.
///
/// ```
/// use bingo_textproc::{SharedVocabulary, Vocabulary};
/// let mut seed = Vocabulary::new();
/// seed.intern("databas");
/// let shared = SharedVocabulary::seeded(&seed);
/// let id = shared.intern("crawl");
/// assert_eq!(shared.intern("crawl"), id);
/// assert_eq!(shared.intern("databas").0, 0, "seed ids are preserved");
/// ```
pub struct SharedVocabulary {
    shards: Vec<Mutex<FxHashMap<String, TermId>>>,
    next_id: AtomicU32,
    /// Unique per dictionary in this process; tags the per-thread memo.
    instance: u64,
}

thread_local! {
    /// This thread's raw-token memo for the [`SharedVocabulary`] it
    /// interned into last, tagged with that dictionary's `instance`. Per
    /// thread so that a hit takes no lock and shares no cache line; one
    /// table, not one per dictionary, because a worker thread serves one
    /// dictionary for its whole life.
    static SHARED_MEMO: RefCell<(u64, TokenMemo)> = RefCell::new((0, TokenMemo::default()));
}

impl Default for SharedVocabulary {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedVocabulary {
    /// Empty shared dictionary.
    pub fn new() -> Self {
        // 0 is the tag of a thread memo that has served no dictionary.
        static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(1);
        SharedVocabulary {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            next_id: AtomicU32::new(0),
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Shared dictionary pre-loaded with `seed`'s terms *keeping their
    /// ids*, so vectors produced against the seed (trained classifiers,
    /// stored rows) remain valid.
    pub fn seeded(seed: &Vocabulary) -> Self {
        let mut shared = Self::new();
        for (id, term) in seed.iter() {
            shared.shard(term).insert(term.to_string(), id);
        }
        shared.next_id = AtomicU32::new(seed.len() as u32);
        shared
    }

    /// Lock the shard `term` hashes to.
    fn shard(&self, term: &str) -> MutexGuard<'_, FxHashMap<String, TermId>> {
        self.shards[fxhash::hash_one(&term) as usize & (SHARDS - 1)]
            .lock()
            .expect("vocab shard poisoned")
    }

    /// Resolve `term` without interning it — the read-only query-path
    /// lookup used by the portal service while crawler threads keep
    /// writing. Touches only the term's shard mutex, never the id
    /// allocator.
    pub fn lookup(&self, term: &str) -> Option<TermId> {
        self.shard(term).get(term).copied()
    }

    /// Intern `term` through a shared reference; safe to call from any
    /// number of threads.
    pub fn intern(&self, term: &str) -> TermId {
        let mut shard = self.shard(term);
        if let Some(&id) = shard.get(term) {
            return id;
        }
        let id = TermId(self.next_id.fetch_add(1, Ordering::Relaxed));
        shard.insert(term.to_string(), id);
        id
    }

    /// Number of distinct terms (seed + interned).
    pub fn len(&self) -> usize {
        self.next_id.load(Ordering::Relaxed) as usize
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Freeze into an ordinary [`Vocabulary`] with the same
    /// (arrival-order) ids.
    pub fn snapshot(&self) -> Vocabulary {
        let mut terms = vec![String::new(); self.len()];
        for shard in &self.shards {
            let shard = shard.lock().expect("vocab shard poisoned");
            for (term, &TermId(id)) in shard.iter() {
                terms[id as usize] = term.clone();
            }
        }
        Vocabulary::from_terms(terms)
    }
}

/// The interning contract shared by both dictionaries, letting the
/// document analyzer run identically on the deterministic path
/// (`&mut Vocabulary`) and the concurrent pipeline
/// (`&mut &SharedVocabulary`).
pub trait Interner {
    /// Intern `term`, returning its stable id.
    fn intern(&mut self, term: &str) -> TermId;
    /// Number of distinct terms interned so far.
    fn term_count(&self) -> usize;
    /// [`analyze_html`](crate::analyze_html) into this dictionary, its
    /// token memo taken once per page (one dynamic call per page).
    fn analyze(&mut self, html_text: &str) -> AnalyzedDocument;
}

impl Interner for Vocabulary {
    fn intern(&mut self, term: &str) -> TermId {
        Vocabulary::intern(self, term)
    }

    fn term_count(&self) -> usize {
        self.len()
    }

    fn analyze(&mut self, html_text: &str) -> AnalyzedDocument {
        let mut memo = std::mem::take(&mut self.memo);
        let (doc, _) = crate::analyze_page(html_text, &mut memo, u32::MAX, |stem| {
            Some(self.intern(stem))
        });
        self.memo = memo;
        doc
    }
}

impl Interner for &SharedVocabulary {
    fn intern(&mut self, term: &str) -> TermId {
        SharedVocabulary::intern(self, term)
    }

    fn term_count(&self) -> usize {
        self.len()
    }

    fn analyze(&mut self, html_text: &str) -> AnalyzedDocument {
        SHARED_MEMO.with_borrow_mut(|(instance, memo)| {
            if *instance != self.instance {
                memo.clear();
                *instance = self.instance;
            }
            let (doc, _) = crate::analyze_page(html_text, memo, u32::MAX, |stem| {
                Some(SharedVocabulary::intern(self, stem))
            });
            doc
        })
    }
}

/// The first `len` terms of a dictionary as an [`Interner`] that never
/// interns: a token whose stem is among them resolves to its id, and the
/// first one that is not marks the view [`unknown`](Self::all_known):
/// the rest of its page is skipped, and that analysis must not be used.
///
/// Because a [`Vocabulary`] is append-only, an analysis through this
/// view with every token known is exactly the analysis the full
/// dictionary would give, ids included, however many terms were
/// appended after the first `len`. The view borrows the dictionary
/// mutably only for its token memo.
pub struct KnownTerms<'a> {
    vocab: &'a mut Vocabulary,
    len: u32,
    unknown: bool,
}

impl<'a> KnownTerms<'a> {
    /// The view of `vocab`'s first `len` terms.
    pub fn new(vocab: &'a mut Vocabulary, len: usize) -> Self {
        KnownTerms {
            vocab,
            len: len as u32,
            unknown: false,
        }
    }

    /// True when every token so far resolved inside the view.
    pub fn all_known(&self) -> bool {
        !self.unknown
    }
}

impl Interner for KnownTerms<'_> {
    fn intern(&mut self, term: &str) -> TermId {
        match self.vocab.lookup(term) {
            Some(id) if id.0 < self.len => id,
            _ => {
                self.unknown = true;
                TermId(0)
            }
        }
    }

    fn term_count(&self) -> usize {
        self.len as usize
    }

    fn analyze(&mut self, html_text: &str) -> AnalyzedDocument {
        let Vocabulary { index, memo, .. } = &mut *self.vocab;
        let (doc, all_known) =
            crate::analyze_page(html_text, memo, self.len, |stem| index.get(stem).copied());
        self.unknown |= !all_known;
        doc
    }
}

/// Read-only term resolution shared by both dictionaries, so the query
/// path can resolve stems against whichever dictionary the crawl writes:
/// the deterministic crawler's [`Vocabulary`] or the threaded pipeline's
/// [`SharedVocabulary`].
pub trait TermLookup: Sync {
    /// Resolve a (stemmed) term to its id, or `None` if never interned.
    fn lookup_term(&self, term: &str) -> Option<TermId>;
}

impl TermLookup for Vocabulary {
    fn lookup_term(&self, term: &str) -> Option<TermId> {
        self.lookup(term)
    }
}

impl TermLookup for SharedVocabulary {
    fn lookup_term(&self, term: &str) -> Option<TermId> {
        self.lookup(term)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("aries");
        let b = v.intern("aries");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut v = Vocabulary::new();
        let ids: Vec<TermId> = ["a", "b", "c"].iter().map(|t| v.intern(t)).collect();
        assert_eq!(ids, vec![TermId(0), TermId(1), TermId(2)]);
        assert_eq!(v.term(TermId(1)), "b");
    }

    #[test]
    fn lookup_roundtrip() {
        let mut v = Vocabulary::new();
        v.intern("recovery");
        assert_eq!(v.lookup("recovery"), Some(TermId(0)));
        assert_eq!(v.lookup("missing"), None);
    }

    #[test]
    fn shared_vocab_interns_concurrently_around_its_seed() {
        let mut seed = Vocabulary::new();
        seed.intern("zeta");
        seed.intern("alpha");
        let shared = SharedVocabulary::seeded(&seed);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let shared = &shared;
                scope.spawn(move || {
                    for i in 0..50 {
                        shared.intern(&format!("term{:02}", (i * 7 + t) % 60));
                        shared.intern("alpha");
                    }
                });
            }
        });
        let snapshot = shared.snapshot();
        // Seed ids survive untouched, in place.
        assert_eq!(snapshot.lookup("zeta"), Some(TermId(0)));
        assert_eq!(snapshot.lookup("alpha"), Some(TermId(1)));
        // Every term was interned once, with a dense id the snapshot
        // reads back.
        assert_eq!(snapshot.len(), 2 + 60);
        for (id, term) in snapshot.iter() {
            assert_eq!(shared.lookup(term), Some(id));
        }
    }

    #[test]
    fn interner_trait_covers_both_dictionaries() {
        fn intern_all<I: Interner>(i: &mut I) -> Vec<TermId> {
            ["x", "y", "x"].iter().map(|t| i.intern(t)).collect()
        }
        let mut vocab = Vocabulary::new();
        let via_vocab = intern_all(&mut vocab);
        let shared = SharedVocabulary::new();
        let via_shared = intern_all(&mut &shared);
        assert_eq!(via_vocab, via_shared);
        assert_eq!(vocab.len(), 2);
        assert_eq!((&shared).term_count(), 2);
    }

    #[test]
    fn known_terms_resolve_a_prefix_and_flag_the_rest() {
        let page = "<p>crawling spiders crawl the databases</p><a href=\"h\">spiders</a>";
        let mut vocab = Vocabulary::new();
        let full = crate::analyze_html(page, &mut vocab);
        let len = vocab.len();
        vocab.intern("appended later");
        // Every stem known: the view's analysis is the dictionary's.
        let mut view = KnownTerms::new(&mut vocab, len);
        assert_eq!(crate::analyze_html(page, &mut view), full);
        assert!(view.all_known());
        assert_eq!(view.term_count(), len);
        // A stem the dictionary lacks is unknown, and so is one whose id
        // is past the view's length.
        let mut empty = Vocabulary::new();
        let mut view = KnownTerms::new(&mut empty, 0);
        crate::analyze_html(page, &mut view);
        assert!(!view.all_known());
        let mut view = KnownTerms::new(&mut vocab, len - 1);
        crate::analyze_html(page, &mut view);
        assert!(!view.all_known());
        assert_eq!(vocab.len(), len + 1, "a view never interns");

        // A mirror catches up by appending, or starts over when it has
        // diverged; either way it ends with the source's ids.
        let mut prefix = Vocabulary::new();
        prefix.intern(vocab.term(TermId(0)));
        let mut diverged = Vocabulary::new();
        diverged.intern("elsewhere");
        for mirror in [&mut prefix, &mut diverged] {
            mirror.mirror(&vocab);
            assert!(mirror.iter().eq(vocab.iter()));
        }
    }

    #[test]
    fn rebuild_index_after_clearing() {
        let mut v = Vocabulary::new();
        v.intern("x");
        v.intern("y");
        let json = serde_json::to_string(&v).unwrap();
        let mut back: Vocabulary = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert_eq!(back.lookup("y"), Some(TermId(1)));
        assert_eq!(back.intern("x"), TermId(0));
    }
}
