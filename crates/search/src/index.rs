//! Inverted index over the crawl database.

use bingo_graph::PageId;
use bingo_store::DocumentStore;
use bingo_textproc::fxhash::{map_bytes, FxHashMap};
use bingo_textproc::{porter_stem, Tokenizer, Vocabulary};
use std::sync::LazyLock;

/// The read interface the ranking code needs from an index: document
/// frequencies, postings and precomputed norms. Implemented by the batch
/// [`InvertedIndex`] and by the live snapshot index
/// ([`crate::live::IndexSnapshot`]), so both answer queries through the
/// same [`crate::rank::rank`] path with identical scoring.
pub trait TermIndex {
    /// Number of indexed documents.
    fn doc_count(&self) -> u64;

    /// Number of documents containing `term` (0 when unknown).
    fn df(&self, term: u32) -> u64;

    /// L2 norm of a document's tf·idf vector (0 when not indexed).
    fn norm(&self, doc: PageId) -> f32;

    /// Visit every `(doc, tf)` posting of `term`. Each indexed document
    /// appears at most once per term; visit order is unspecified.
    fn for_each_posting(&self, term: u32, f: &mut dyn FnMut(PageId, u32));

    /// Logarithmically dampened idf of a term, `ln(1 + N / df)`: the
    /// crate's one `idf` function of the corpus size and the term's
    /// document frequency.
    fn idf(&self, term: u32) -> f32 {
        idf(self.doc_count(), self.df(term))
    }
}

/// Logarithmically dampened idf of a term found in `df` of `doc_count`
/// documents (0 for an unseen term). The single definition: the idf
/// table behind the norms, the query weights and both indexes use it —
/// norms and query weights must agree.
pub(crate) fn idf(doc_count: u64, df: u64) -> f32 {
    let df = df as f32;
    if df == 0.0 {
        0.0
    } else {
        (1.0 + doc_count as f32 / df).ln()
    }
}

/// Dampened term frequency `1 + ln tf`. Under the index's tf·idf scheme
/// a posting weighs this times its term's idf.
pub(crate) fn tf_damp(tf: u32) -> f32 {
    1.0 + (tf as f32).ln()
}

/// A tf below `ESCAPE` is stored as its own one-byte code; `ESCAPE`
/// stands for a value kept exactly in a short per-segment escape list.
const ESCAPE: u8 = u8::MAX;

/// [`tf_damp`] of every one-byte tf, each entry computed by `tf_damp`
/// itself, so a lookup has its exact bits.
static DAMP: LazyLock<[f32; 256]> = LazyLock::new(|| std::array::from_fn(|tf| tf_damp(tf as u32)));

/// [`tf_damp`], read from a table below tf 256: ranking pays no `ln`
/// for a common tf.
pub(crate) fn damped(tf: u32) -> f32 {
    DAMP.get(tf as usize)
        .copied()
        .unwrap_or_else(|| tf_damp(tf))
}

/// Term id → dense slot in first-sight order, with the document
/// frequency per slot. Slots keep every per-term table a `Vec` sized by
/// the vocabulary actually seen: a stray huge term id costs one slot,
/// not a table sized by its value.
#[derive(Debug, Default, Clone)]
pub(crate) struct TermSlots {
    slot_of: FxHashMap<u32, u32>,
    df: Vec<u64>,
}

impl TermSlots {
    /// Count one more document containing `term`; returns its slot.
    fn count(&mut self, term: u32) -> u32 {
        let next = self.df.len() as u32;
        let slot = *self.slot_of.entry(term).or_insert(next);
        if slot == next {
            self.df.push(0);
        }
        self.df[slot as usize] += 1;
        slot
    }

    pub(crate) fn slot(&self, term: u32) -> Option<u32> {
        self.slot_of.get(&term).copied()
    }

    /// Number of documents containing `term` (0 when unknown).
    pub(crate) fn df(&self, term: u32) -> u64 {
        self.slot(term).map_or(0, |slot| self.df[slot as usize])
    }

    /// Number of distinct terms seen.
    pub(crate) fn len(&self) -> usize {
        self.df.len()
    }

    /// [`idf`] of every slot in a corpus of `doc_count` documents.
    pub(crate) fn idf_table(&self, doc_count: u64) -> Vec<f32> {
        self.df.iter().map(|&df| idf(doc_count, df)).collect()
    }

    /// Heap bytes of the slot map and the df table.
    pub(crate) fn resident_bytes(&self) -> usize {
        map_bytes(&self.slot_of) + self.df.len() * size_of::<u64>()
    }
}

/// A doc-major entry whose tf code is [`ESCAPE`]: its slot and tf are
/// listed in the segment's escapes.
const ESCAPED: u32 = u32::MAX;

/// An entry or run end as a `u32`.
fn position(at: usize) -> u32 {
    u32::try_from(at).expect("a segment holds < 2^32 postings")
}

/// The value listed under entry `at` in an escape list, which is sorted
/// by entry.
fn escaped<T: Copy>(escapes: &[(u32, T)], at: usize) -> T {
    let i = escapes.binary_search_by_key(&position(at), |&(at, _)| at);
    escapes[i.expect("an escaped entry is listed")].1
}

/// A batch of indexed documents in two layouts, each a few flat arrays.
///
/// * Doc-major: one (CSR) run of `(term slot, tf)` entries per
///   document, in arrival order and stored term order — the norm
///   accumulation order. `push` appends here.
/// * Term-major, built once by `seal`: one postings array of
///   `(document ordinal, tf)`, a run per term slot with the run's
///   documents in id order, and a directory of `(slot, run end)` for the
///   slots present, ascending. The directory is sized by the segment's
///   own distinct terms, never by the global vocabulary.
///
/// An ordinal indexes the segment's arrival-order document list. A tf
/// is stored as a one-byte code, the tf itself below 255; a doc-major
/// entry packs a slot below 2^24 − 1 and the code in one `u32`. A larger
/// tf or slot escapes to a short per-segment list of exact values, so
/// every slot, ordinal and tf round-trips. A sealed segment holds 7
/// bytes per posting (a packed entry, a `u16` ordinal and a code; a
/// segment over 65,536 documents keeps `u32` ordinals, 9 bytes), 8 per
/// distinct term and 12 per document. The batch index is one segment
/// over the whole store; the live index seals one per commit.
#[derive(Debug, Default)]
pub struct Segment {
    docs: Vec<PageId>,
    /// End of each document's run in `entries`.
    ends: Vec<u32>,
    /// `slot << 8 | tf code` per doc-major entry, or [`ESCAPED`].
    entries: Vec<u32>,
    /// `(entry, (slot, tf))` of every escaped entry, ascending.
    escapes: Vec<(u32, (u32, u32))>,
    /// `(slot, end of its run in the postings)`, ascending by slot.
    directory: Vec<(u32, u32)>,
    /// Low 16 bits of each posting's document ordinal...
    ordinals: Vec<u16>,
    /// ...and the high 16, kept only by a segment over 65,536
    /// documents, as the seal decides from its size.
    ordinals_high: Vec<u16>,
    /// tf code per posting.
    codes: Vec<u8>,
    /// `(posting, tf)` of every posting coded [`ESCAPE`], ascending.
    posting_escapes: Vec<(u32, u32)>,
}

impl Segment {
    /// Append one document, counting its terms into `terms`.
    pub(crate) fn push(&mut self, terms: &mut TermSlots, doc: PageId, term_freqs: &[(u32, u32)]) {
        for &(term, tf) in term_freqs {
            let slot = terms.count(term);
            if slot < ESCAPED >> 8 && tf < u32::from(ESCAPE) {
                self.entries.push(slot << 8 | tf);
            } else {
                self.escapes
                    .push((position(self.entries.len()), (slot, tf)));
                self.entries.push(ESCAPED);
            }
        }
        self.docs.push(doc);
        self.ends.push(position(self.entries.len()));
    }

    /// Slot and tf of doc-major entry `i`.
    fn entry(&self, i: usize) -> (u32, u32) {
        match self.entries[i] {
            ESCAPED => escaped(&self.escapes, i),
            e => (e >> 8, e & 0xFF),
        }
    }

    /// Build the term-major layout with one stable counting sort by
    /// slot, visiting documents in id order so every run is ordered by
    /// document id. The segment is immutable from here on.
    pub(crate) fn seal(&mut self) {
        let total = self.entries.len();
        let docs = u32::try_from(self.docs.len()).expect("a segment holds < 2^32 documents");
        let mut order: Vec<u32> = (0..docs).collect();
        order.sort_by_key(|&ord| self.docs[ord as usize]);

        // Postings per slot, then each slot's write cursor. The counts
        // are a scratch table over the slots seen so far; only the
        // directory outlives the seal.
        let width = (0..total).map(|i| self.entry(i).0 + 1).max();
        let mut next = vec![0u32; width.unwrap_or(0) as usize];
        for i in 0..total {
            next[self.entry(i).0 as usize] += 1;
        }
        let mut directory = Vec::with_capacity(next.iter().filter(|&&n| n > 0).count());
        let mut end = 0;
        for (slot, n) in next.iter_mut().enumerate() {
            if *n > 0 {
                let start = end;
                end += *n;
                directory.push((slot as u32, end));
                *n = start;
            }
        }
        debug_assert_eq!(end as usize, total);

        let mut ordinals = vec![0u32; total];
        let mut codes = vec![ESCAPE; total];
        let mut posting_escapes = Vec::new();
        for ord in order {
            for i in self.run(ord as usize) {
                let (slot, tf) = self.entry(i);
                let at = &mut next[slot as usize];
                ordinals[*at as usize] = ord;
                match u8::try_from(tf) {
                    Ok(code) if code < ESCAPE => codes[*at as usize] = code,
                    _ => posting_escapes.push((*at, tf)),
                }
                *at += 1;
            }
        }
        posting_escapes.sort_unstable();
        self.ordinals = ordinals.iter().map(|&ord| ord as u16).collect();
        if docs > 1 << 16 {
            self.ordinals_high = ordinals.iter().map(|&ord| (ord >> 16) as u16).collect();
        }
        self.directory = directory;
        self.codes = codes;
        self.posting_escapes = posting_escapes;
        self.docs.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.entries.shrink_to_fit();
        self.escapes.shrink_to_fit();
    }

    /// Index range of document `ord`'s run in `entries`.
    fn run(&self, ord: usize) -> std::ops::Range<usize> {
        let start = if ord == 0 { 0 } else { self.ends[ord - 1] };
        start as usize..self.ends[ord] as usize
    }

    /// Documents in this segment.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// `(term, doc)` occurrences in this segment.
    pub(crate) fn posting_count(&self) -> usize {
        self.entries.len()
    }

    /// `(doc, tf)` postings of term `slot` in document id order (none
    /// before the seal).
    pub(crate) fn postings(&self, slot: u32) -> impl Iterator<Item = (PageId, u32)> + '_ {
        let run = match self.directory.binary_search_by_key(&slot, |&(s, _)| s) {
            Ok(i) => {
                let start = if i == 0 { 0 } else { self.directory[i - 1].1 };
                start as usize..self.directory[i].1 as usize
            }
            Err(_) => 0..0,
        };
        run.map(|i| {
            let tf = match self.codes[i] {
                ESCAPE => escaped(&self.posting_escapes, i),
                code => u32::from(code),
            };
            let high = self
                .ordinals_high
                .get(i)
                .map_or(0, |&h| usize::from(h) << 16);
            (self.docs[usize::from(self.ordinals[i]) | high], tf)
        })
    }

    /// Heap bytes of the segment's arrays, from their lengths.
    pub(crate) fn resident_bytes(&self) -> usize {
        self.docs.len() * size_of::<PageId>()
            + self.ends.len() * size_of::<u32>()
            + self.entries.len() * size_of::<u32>()
            + self.escapes.len() * size_of::<(u32, (u32, u32))>()
            + self.directory.len() * size_of::<(u32, u32)>()
            + (self.ordinals.len() + self.ordinals_high.len()) * size_of::<u16>()
            + self.codes.len()
            + self.posting_escapes.len() * size_of::<(u32, u32)>()
    }

    /// L2 norm of every document's tf·idf vector under `idf` (indexed by
    /// term slot), accumulated in the row's stored term order. The only
    /// norm routine: the batch build and every live commit run it, and
    /// float addition is not associative — the shared accumulation order
    /// is what makes an incrementally built index bit-identical to a
    /// batch rebuild. A one-byte tf is damped by table, not by `ln`.
    pub(crate) fn norms_into(&self, idf: &[f32], norms: &mut FxHashMap<PageId, f32>) {
        let damp = &*DAMP;
        let mut start = 0;
        for (&doc, &end) in self.docs.iter().zip(&self.ends) {
            let end = end as usize;
            let mut sq = 0.0f32;
            for (i, &entry) in (start..end).zip(&self.entries[start..end]) {
                let (slot, damped) = match entry {
                    ESCAPED => {
                        let (slot, tf) = escaped(&self.escapes, i);
                        (slot, tf_damp(tf))
                    }
                    e => (e >> 8, damp[(e & 0xFF) as usize]),
                };
                let w = damped * idf[slot as usize];
                sq += w * w;
            }
            norms.insert(doc, sq.sqrt());
            start = end;
        }
    }
}

/// Term → postings index with idf and document norms, built once from the
/// crawl result database: one sealed [`Segment`] over every row, in the
/// live index's layout.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    segment: Segment,
    terms: TermSlots,
    /// Per-document L2 norm of the tf·idf vector.
    norms: FxHashMap<PageId, f32>,
    doc_count: u64,
}

impl InvertedIndex {
    /// Build from all documents in the store.
    pub fn build(store: &DocumentStore) -> Self {
        let mut terms = TermSlots::default();
        let mut segment = Segment::default();
        store.for_each_document(|row| segment.push(&mut terms, row.id, &row.term_freqs));
        segment.seal();
        let doc_count = segment.doc_count() as u64;
        let mut norms =
            FxHashMap::with_capacity_and_hasher(segment.doc_count(), Default::default());
        segment.norms_into(&terms.idf_table(doc_count), &mut norms);
        InvertedIndex {
            segment,
            terms,
            norms,
            doc_count,
        }
    }

    /// Documents containing `term`, with raw frequencies, in document id
    /// order.
    pub fn postings(&self, term: u32) -> impl Iterator<Item = (PageId, u32)> + '_ {
        let slot = self.terms.slot(term).into_iter();
        slot.flat_map(|slot| self.segment.postings(slot))
    }

    /// Logarithmically dampened idf of a term.
    pub fn idf(&self, term: u32) -> f32 {
        idf(self.doc_count, self.terms.df(term))
    }

    /// L2 norm of a document's tf·idf vector.
    pub fn norm(&self, doc: PageId) -> f32 {
        self.norms.get(&doc).copied().unwrap_or(0.0)
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> u64 {
        self.doc_count
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }
}

impl TermIndex for InvertedIndex {
    fn doc_count(&self) -> u64 {
        self.doc_count
    }

    fn df(&self, term: u32) -> u64 {
        self.terms.df(term)
    }

    fn norm(&self, doc: PageId) -> f32 {
        InvertedIndex::norm(self, doc)
    }

    fn for_each_posting(&self, term: u32, f: &mut dyn FnMut(PageId, u32)) {
        for (doc, tf) in self.postings(term) {
            f(doc, tf);
        }
    }
}

/// Tokenize and stem a query, resolving terms against the crawl's shared
/// vocabulary. Unknown terms are dropped ("a query is a vector too").
pub fn analyze_query(vocab: &Vocabulary, text: &str) -> Vec<u32> {
    analyze_query_with(|stem| vocab.lookup(stem).map(|id| id.0), text)
}

/// [`analyze_query`] over an arbitrary stem → term-id resolver, so the
/// portal service can resolve against a live [`SharedVocabulary`]
/// (through [`bingo_textproc::TermLookup`]) without snapshotting it per
/// query. Resolved ids are sorted and deduplicated, making downstream
/// score accumulation order-canonical.
///
/// [`SharedVocabulary`]: bingo_textproc::SharedVocabulary
pub fn analyze_query_with<F: FnMut(&str) -> Option<u32>>(mut resolve: F, text: &str) -> Vec<u32> {
    let tokenizer = Tokenizer::default();
    let mut terms: Vec<u32> = tokenizer
        .tokens(text)
        .filter_map(|t| resolve(&porter_stem(&t)))
        .collect();
    terms.sort_unstable();
    terms.dedup();
    terms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::sample_store;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The scalar definition the flat norm kernel must reproduce bit for
    /// bit: weight of one term occurrence...
    fn tf_weight(tf: u32, idf: f32) -> f32 {
        (1.0 + (tf as f32).ln()) * idf
    }

    /// ...and the L2 norm of one row, one idf lookup per term, summed in
    /// the row's stored term order.
    fn doc_norm<I: TermIndex + ?Sized>(index: &I, term_freqs: &[(u32, u32)]) -> f32 {
        let mut sq = 0.0f32;
        for &(term, tf) in term_freqs {
            let w = tf_weight(tf, index.idf(term));
            sq += w * w;
        }
        sq.sqrt()
    }

    fn assert_norms_match_oracle(store: &DocumentStore) {
        let idx = InvertedIndex::build(store);
        store.for_each_document(|row| {
            assert_eq!(
                idx.norm(row.id).to_bits(),
                doc_norm(&idx, &row.term_freqs).to_bits(),
                "norm of doc {}",
                row.id
            );
        });
    }

    #[test]
    fn kernel_norms_equal_scalar_oracle() {
        assert_norms_match_oracle(&sample_store().0);
    }

    proptest! {
        #[test]
        fn kernel_norms_equal_scalar_oracle_on_arbitrary_rows(
            rows in proptest::collection::vec(
                proptest::collection::vec((0u32..60, 1u32..500), 0..25),
                1..30,
            ),
        ) {
            let store = DocumentStore::new();
            for (i, term_freqs) in rows.into_iter().enumerate() {
                let mut row = crate::tests::blank_row(i as u64 + 1);
                row.term_freqs = term_freqs;
                store.insert_document(row).unwrap();
            }
            assert_norms_match_oracle(&store);
        }
    }

    #[test]
    fn postings_and_counts() {
        let (store, vocab) = sample_store();
        let idx = InvertedIndex::build(&store);
        assert_eq!(idx.doc_count(), 5);
        assert!(idx.term_count() > 10);
        let aries = vocab.lookup("ari").or_else(|| vocab.lookup("aries"));
        let aries = aries.expect("aries stem interned").0;
        let docs: Vec<u64> = idx.postings(aries).map(|(d, _)| d).collect();
        assert_eq!(docs, vec![1, 2]);
    }

    /// A document and its `(term, tf)` pairs.
    type Row = (PageId, Vec<(u32, u32)>);

    /// Seal `rows` (in the order given) into one segment and compare
    /// every term's postings with the naive definition: each `(doc, tf)`
    /// of the term, in document id order. Returns the sealed segment.
    fn assert_postings_match_reference(rows: &[Row]) -> Segment {
        let mut terms = TermSlots::default();
        let mut segment = Segment::default();
        for (doc, term_freqs) in rows {
            segment.push(&mut terms, *doc, term_freqs);
        }
        segment.seal();

        let mut by_id: Vec<_> = rows.iter().collect();
        by_id.sort_by_key(|(doc, _)| *doc);
        let mut reference: BTreeMap<u32, Vec<(PageId, u32)>> = BTreeMap::new();
        for (doc, term_freqs) in by_id {
            for &(term, tf) in term_freqs {
                reference.entry(term).or_default().push((*doc, tf));
            }
        }
        assert_eq!(terms.len(), reference.len());
        for (&term, want) in &reference {
            let slot = terms.slot(term).expect("every indexed term has a slot");
            let got: Vec<_> = segment.postings(slot).collect();
            assert_eq!(&got, want, "term {term}");
        }
        assert_eq!(segment.postings(terms.len() as u32).count(), 0);
        segment
    }

    /// Any tf, with the code boundaries and the extremes drawn often.
    fn any_tf() -> impl Strategy<Value = u32> {
        let edges = prop_oneof![Just(0), Just(254), Just(255), Just(256), Just(u32::MAX)];
        prop_oneof![1u32..9, 1u32..9, 1u32..9, edges, any::<u32>()]
    }

    /// Any term id, most of them shared between rows.
    fn any_term() -> impl Strategy<Value = u32> {
        prop_oneof![0u32..40, 0u32..40, 0u32..40, any::<u32>(), Just(u32::MAX)]
    }

    proptest! {
        /// Rows arrive in any order, as concurrent writers deliver them;
        /// the seal alone restores document id order within each run.
        #[test]
        fn sealed_postings_equal_a_naive_reference_in_any_arrival_order(
            rows in proptest::collection::vec(
                (any::<u32>(), proptest::collection::vec((any_term(), any_tf()), 0..12)),
                0..40,
            ),
            huge_at in any::<u32>(),
            empty_at in any::<u32>(),
        ) {
            const HUGE: u32 = u32::MAX - 1;
            // Ids follow generation order; arrival follows the drawn key.
            let n = rows.len() as u64;
            let mut arrivals: Vec<(u32, Row)> = rows
                .into_iter()
                .enumerate()
                .map(|(i, (at, term_freqs))| (at, (i as u64 + 1, term_freqs)))
                .collect();
            arrivals.push((huge_at, (n + 1, vec![(7, 2), (HUGE, 1)])));
            arrivals.push((empty_at, (n + 2, Vec::new())));
            arrivals.sort_by_key(|&(at, _)| at);
            let rows: Vec<Row> = arrivals.into_iter().map(|(_, row)| row).collect();
            assert_postings_match_reference(&rows);
        }
    }

    /// A segment of up to 65,536 documents stores `u16` ordinals, a
    /// larger one `u32`; both round-trip every ordinal, the last ones
    /// included, whatever order the documents arrived in.
    #[test]
    fn ordinals_widen_past_65536_documents() {
        for (docs, wide) in [(1 << 16, false), ((1 << 16) + 1, true)] {
            let rows: Vec<Row> = (1..=docs as u64)
                .rev()
                .map(|id| (id, vec![((id % 3) as u32, (id % 300) as u32), (7, 1)]))
                .collect();
            let segment = assert_postings_match_reference(&rows);
            let high = segment.ordinals_high.len();
            assert_eq!(
                high,
                if wide { rows.len() * 2 } else { 0 },
                "{docs} documents"
            );
        }
    }

    #[test]
    fn seal_reorders_runs_that_arrived_out_of_id_order() {
        assert_postings_match_reference(&[
            (9, vec![(3, 1), (u32::MAX - 1, 4)]),
            (2, vec![]),
            (5, vec![(3, 2), (0, 1)]),
            (1, vec![(u32::MAX - 1, 1), (3, 7)]),
        ]);
    }

    #[test]
    fn idf_orders_rarity() {
        let (store, vocab) = sample_store();
        let idx = InvertedIndex::build(&store);
        // "recovery" (3 docs) must have lower idf than "football" (1 doc).
        let recov = vocab
            .lookup(&bingo_textproc::porter_stem("recovery"))
            .unwrap()
            .0;
        let foot = vocab
            .lookup(&bingo_textproc::porter_stem("football"))
            .unwrap()
            .0;
        assert!(idx.idf(foot) > idx.idf(recov));
        assert_eq!(idx.idf(9_999_999), 0.0);
    }

    #[test]
    fn norms_are_positive_for_indexed_docs() {
        let (store, _vocab) = sample_store();
        let idx = InvertedIndex::build(&store);
        for d in 1..=5u64 {
            assert!(idx.norm(d) > 0.0, "doc {d} norm");
        }
        assert_eq!(idx.norm(999), 0.0);
    }

    #[test]
    fn query_analysis_stems_and_dedups() {
        let (_store, vocab) = sample_store();
        let q = analyze_query(&vocab, "Recovery RECOVERIES recovery!");
        assert_eq!(q.len(), 1);
        let unknown = analyze_query(&vocab, "zebrafish");
        assert!(unknown.is_empty());
    }
}
