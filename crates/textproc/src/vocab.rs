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
use crate::stem::porter_stem;
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

/// Longest raw token a [`TokenMemo`] keeps; longer ones (none in the
/// generated lexicons, under one in a thousand English words) are stemmed
/// on every occurrence.
const MEMO_KEY_LEN: usize = 16;

/// Slots of a full-grown [`TokenMemo`]: 320 KiB, filled to three quarters
/// (12,288 tokens) and then left as it is.
const MEMO_MAX_SLOTS: usize = 1 << 14;

/// Raw lowercase token → the id of its stem: what lets the analyzer stem
/// and intern each distinct word once instead of once per occurrence.
///
/// An open-addressed table with the key bytes inline (zero-padded; a
/// token holds no zero byte and at least two letters, so the all-zero key
/// marks an empty slot), grown by doubling up to [`MEMO_MAX_SLOTS`] and
/// never evicted. It is a cache of `intern(&porter_stem(token))` against
/// an append-only dictionary: an entry never goes stale, and a token that
/// does not fit or arrives after the table is full just misses.
#[derive(Default, Clone)]
struct TokenMemo {
    /// Empty or a power of two long.
    slots: Vec<([u8; MEMO_KEY_LEN], TermId)>,
    used: usize,
}

/// Counts only: the table is derived data, and thousands of slots would
/// drown the `Debug` output of the [`Vocabulary`] around it.
impl std::fmt::Debug for TokenMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TokenMemo({} of {} slots)", self.used, self.slots.len())
    }
}

impl TokenMemo {
    const EMPTY: [u8; MEMO_KEY_LEN] = [0; MEMO_KEY_LEN];

    fn key(token: &str) -> Option<[u8; MEMO_KEY_LEN]> {
        let mut key = Self::EMPTY;
        key.get_mut(..token.len())?
            .copy_from_slice(token.as_bytes());
        Some(key)
    }

    /// Where `key` is, or the empty slot where it would go. The table
    /// always has an empty slot, so the probe ends.
    fn slot_of(&self, key: &[u8; MEMO_KEY_LEN]) -> usize {
        let mask = self.slots.len() - 1;
        // The high bits of a multiplicative hash are the mixed ones.
        let mut at = (fxhash::hash_one(key) >> 32) as usize & mask;
        while self.slots[at].0 != *key && self.slots[at].0 != Self::EMPTY {
            at = (at + 1) & mask;
        }
        at
    }

    fn get(&self, token: &str) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        let key = Self::key(token)?;
        let (found, id) = self.slots[self.slot_of(&key)];
        (found == key).then_some(id)
    }

    /// Remember `token → id`; the caller has just seen [`get`](Self::get)
    /// miss.
    fn insert(&mut self, token: &str, id: TermId) {
        let Some(key) = Self::key(token) else { return };
        if self.used * 4 >= self.slots.len() * 3 {
            if self.slots.len() >= MEMO_MAX_SLOTS {
                return;
            }
            let grown = vec![(Self::EMPTY, TermId(0)); (self.slots.len() * 2).max(256)];
            for entry in std::mem::replace(&mut self.slots, grown) {
                if entry.0 != Self::EMPTY {
                    let at = self.slot_of(&entry.0);
                    self.slots[at] = entry;
                }
            }
        }
        let at = self.slot_of(&key);
        self.slots[at] = (key, id);
        self.used += 1;
    }

    fn clear(&mut self) {
        self.slots.fill((Self::EMPTY, TermId(0)));
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
    /// Stem the lowercase raw `token` and intern the stem. Always the id
    /// `intern(&porter_stem(token))` returns; both dictionaries answer a
    /// token they have met before from a memo instead.
    fn intern_token(&mut self, token: &str) -> TermId {
        self.intern(&porter_stem(token))
    }
    /// Number of distinct terms interned so far.
    fn term_count(&self) -> usize;
}

impl Interner for Vocabulary {
    fn intern(&mut self, term: &str) -> TermId {
        Vocabulary::intern(self, term)
    }

    fn intern_token(&mut self, token: &str) -> TermId {
        if let Some(id) = self.memo.get(token) {
            return id;
        }
        let id = self.intern(&porter_stem(token));
        self.memo.insert(token, id);
        id
    }

    fn term_count(&self) -> usize {
        self.len()
    }
}

impl Interner for &SharedVocabulary {
    fn intern(&mut self, term: &str) -> TermId {
        SharedVocabulary::intern(self, term)
    }

    fn intern_token(&mut self, token: &str) -> TermId {
        SHARED_MEMO.with_borrow_mut(|(instance, memo)| {
            if *instance != self.instance {
                memo.clear();
                *instance = self.instance;
            }
            if let Some(id) = memo.get(token) {
                return id;
            }
            let id = SharedVocabulary::intern(self, &porter_stem(token));
            memo.insert(token, id);
            id
        })
    }

    fn term_count(&self) -> usize {
        self.len()
    }
}

/// The first `len` terms of a dictionary as an [`Interner`] that never
/// interns: a token whose stem is among them resolves to its id, and the
/// first one that is not marks the view [`unknown`](Self::all_known)
/// and stops resolution — every later token gets a placeholder id.
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

    fn within(&mut self, id: Option<TermId>) -> TermId {
        match id {
            Some(id) if id.0 < self.len => id,
            _ => {
                self.unknown = true;
                TermId(0)
            }
        }
    }
}

impl Interner for KnownTerms<'_> {
    fn intern(&mut self, term: &str) -> TermId {
        let id = self.vocab.lookup(term);
        self.within(id)
    }

    fn intern_token(&mut self, token: &str) -> TermId {
        if self.unknown {
            return TermId(0);
        }
        let memo = &mut self.vocab.memo;
        let id = memo.get(token).or_else(|| {
            let id = self.vocab.index.get(&porter_stem(token)).copied()?;
            memo.insert(token, id);
            Some(id)
        });
        self.within(id)
    }

    fn term_count(&self) -> usize {
        self.len as usize
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
