//! Inverted index over the crawl database.

use bingo_graph::PageId;
use bingo_store::DocumentStore;
use bingo_textproc::fxhash::FxHashMap;
use bingo_textproc::{porter_stem, Tokenizer, Vocabulary};

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

    pub(crate) fn slot(&self, term: u32) -> Option<usize> {
        self.slot_of.get(&term).map(|&slot| slot as usize)
    }

    /// Number of documents containing `term` (0 when unknown).
    pub(crate) fn df(&self, term: u32) -> u64 {
        self.slot(term).map_or(0, |slot| self.df[slot])
    }

    /// Number of distinct terms seen.
    pub(crate) fn len(&self) -> usize {
        self.df.len()
    }

    /// [`idf`] of every slot in a corpus of `doc_count` documents.
    pub(crate) fn idf_table(&self, doc_count: u64) -> Vec<f32> {
        self.df.iter().map(|&df| idf(doc_count, df)).collect()
    }
}

/// A batch of indexed documents in two layouts: doc-major, one flat
/// (CSR) run of `(term slot, 1 + ln tf)` per document in arrival order
/// and stored term order — the norm accumulation order — and term-major
/// `(doc, tf)` postings for the query path. The batch index is one
/// segment over the whole store; the live index seals one per commit.
#[derive(Debug, Default)]
pub struct Segment {
    docs: Vec<PageId>,
    /// End of each document's run in `weights`.
    ends: Vec<usize>,
    weights: Vec<(u32, f32)>,
    postings: FxHashMap<u32, Vec<(PageId, u32)>>,
}

impl Segment {
    /// Append one document, counting its terms into `terms`.
    pub(crate) fn push(&mut self, terms: &mut TermSlots, doc: PageId, term_freqs: &[(u32, u32)]) {
        for &(term, tf) in term_freqs {
            self.weights.push((terms.count(term), tf_damp(tf)));
            self.postings.entry(term).or_default().push((doc, tf));
        }
        self.docs.push(doc);
        self.ends.push(self.weights.len());
    }

    /// Order every postings list by document id; the segment is
    /// immutable from here on.
    pub(crate) fn seal(&mut self) {
        for list in self.postings.values_mut() {
            list.sort_unstable_by_key(|&(d, _)| d);
        }
    }

    /// Documents in this segment.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// `(term, doc)` occurrences in this segment.
    pub(crate) fn posting_count(&self) -> usize {
        self.weights.len()
    }

    pub(crate) fn postings(&self, term: u32) -> &[(PageId, u32)] {
        self.postings.get(&term).map_or(&[], Vec::as_slice)
    }

    /// L2 norm of every document's tf·idf vector under `idf` (indexed by
    /// term slot), accumulated in the row's stored term order. The only
    /// norm routine: the batch build and every live commit run it, and
    /// float addition is not associative — the shared accumulation order
    /// is what makes an incrementally built index bit-identical to a
    /// batch rebuild.
    pub(crate) fn norms_into(&self, idf: &[f32], norms: &mut FxHashMap<PageId, f32>) {
        let mut start = 0;
        for (&doc, &end) in self.docs.iter().zip(&self.ends) {
            let mut sq = 0.0f32;
            for &(slot, damped_tf) in &self.weights[start..end] {
                let w = damped_tf * idf[slot as usize];
                sq += w * w;
            }
            norms.insert(doc, sq.sqrt());
            start = end;
        }
    }
}

/// Term → postings index with idf and document norms, built once from the
/// crawl result database.
#[derive(Debug, Default)]
pub struct InvertedIndex {
    /// term (feature index) → `(doc, tf)` postings.
    postings: FxHashMap<u32, Vec<(PageId, u32)>>,
    /// Per-document L2 norm of the tf·idf vector.
    norms: FxHashMap<PageId, f32>,
    doc_count: u64,
}

impl InvertedIndex {
    /// Build from all documents in the store.
    pub fn build(store: &DocumentStore) -> Self {
        let mut terms = TermSlots::default();
        let mut all = Segment::default();
        store.for_each_document(|row| all.push(&mut terms, row.id, &row.term_freqs));
        all.seal();
        let doc_count = all.doc_count() as u64;
        let mut norms = FxHashMap::with_capacity_and_hasher(all.doc_count(), Default::default());
        all.norms_into(&terms.idf_table(doc_count), &mut norms);
        InvertedIndex {
            postings: all.postings,
            norms,
            doc_count,
        }
    }

    /// Documents containing `term`, with raw frequencies.
    pub fn postings(&self, term: u32) -> &[(PageId, u32)] {
        self.postings
            .get(&term)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Logarithmically dampened idf of a term.
    pub fn idf(&self, term: u32) -> f32 {
        idf(self.doc_count, self.postings(term).len() as u64)
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
        self.postings.len()
    }
}

impl TermIndex for InvertedIndex {
    fn doc_count(&self) -> u64 {
        self.doc_count
    }

    fn df(&self, term: u32) -> u64 {
        self.postings(term).len() as u64
    }

    fn norm(&self, doc: PageId) -> f32 {
        InvertedIndex::norm(self, doc)
    }

    fn for_each_posting(&self, term: u32, f: &mut dyn FnMut(PageId, u32)) {
        for &(doc, tf) in self.postings(term) {
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
        let docs: Vec<u64> = idx.postings(aries).iter().map(|&(d, _)| d).collect();
        assert_eq!(docs, vec![1, 2]);
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
