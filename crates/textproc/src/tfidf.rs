//! `tf*idf` term weighting (Section 2.2).
//!
//! Term weights capture the term frequency (tf) of a stem in the document
//! and the logarithmically dampened inverse document frequency (idf). The
//! paper uses the crawler's local document database as the corpus
//! approximation for idf and recomputes it lazily upon each retraining —
//! [`CorpusStats`] is that incrementally maintained corpus view.

use crate::features::{Namespace, LOCAL_MASK, NAMESPACE_SHIFT};
use crate::fxhash::FxHashMap;
use crate::vector::SparseVector;
use crate::vocab::TermId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Incrementally maintained document-frequency statistics over the local
/// document database.
///
/// The df table sits behind an [`Arc`]: [`weighter`](Self::weighter) shares
/// it instead of copying it, and the first [`add_document`](Self::add_document)
/// after a freeze pays one copy-on-write clone — one copy per training
/// round, however many models hold the frozen view.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct CorpusStats {
    doc_count: u64,
    doc_freq: Arc<DfTable>,
}

/// Local indices below this bound are counted in a dense array per
/// namespace: term, anchor and neighbour features are vocabulary ids,
/// handed out densely from zero.
const DENSE_LOCAL_BOUND: u32 = 1 << 16;

/// Document frequency by feature.
///
/// Vocabulary-id features (term, anchor, neighbour namespace) with a
/// local index under [`DENSE_LOCAL_BOUND`] live in one `Vec<u32>` per
/// namespace, grown to the largest index seen; hashed pair features —
/// the bulk of the table, spread over 30 bits — and anything beyond the
/// bound live in a hash map with 8-byte slots. A count of zero means
/// "never seen" in either part.
///
/// On disk the table is the JSON object `{"feature": df, …}` ordered by
/// key string, exactly what the `FxHashMap<u32, u64>` it replaces wrote.
#[derive(Debug, Default, Clone)]
struct DfTable {
    /// Indexed by the namespace bits; the pair slot stays empty.
    dense: [Vec<u32>; 4],
    sparse: FxHashMap<u32, u32>,
}

impl DfTable {
    /// `(namespace, local index)` of a feature counted densely.
    fn dense_slot(feature: u32) -> Option<(usize, usize)> {
        let (ns, local) = (feature >> NAMESPACE_SHIFT, feature & LOCAL_MASK);
        (ns != Namespace::Pair as u32 && local < DENSE_LOCAL_BOUND)
            .then_some((ns as usize, local as usize))
    }

    fn get(&self, feature: u32) -> u32 {
        match Self::dense_slot(feature) {
            Some((ns, local)) => self.dense[ns].get(local).copied().unwrap_or(0),
            None => self.sparse.get(&feature).copied().unwrap_or(0),
        }
    }

    fn add(&mut self, feature: u32, count: u32) {
        let df = match Self::dense_slot(feature) {
            Some((ns, local)) => {
                let counts = &mut self.dense[ns];
                if counts.len() <= local {
                    counts.resize(local + 1, 0);
                }
                &mut counts[local]
            }
            None => self.sparse.entry(feature).or_insert(0),
        };
        *df += count;
    }

    /// Every feature seen, with its count, in no particular order.
    fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let dense = (0u32..).zip(&self.dense).flat_map(|(ns, counts)| {
            (0u32..)
                .zip(counts)
                .map(move |(local, &df)| ((ns << NAMESPACE_SHIFT) | local, df))
        });
        dense
            .chain(self.sparse.iter().map(|(&f, &df)| (f, df)))
            .filter(|&(_, df)| df != 0)
    }
}

impl Serialize for DfTable {
    fn serialize(&self, out: &mut String) {
        // A hash map is written in key-string order.
        let map: FxHashMap<u32, u32> = self.iter().collect();
        map.serialize(out)
    }
}

impl Deserialize for DfTable {
    fn deserialize(p: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        let mut table = DfTable::default();
        let mut entries = p.read_object()?;
        while let Some((key, p)) = entries.next_key()? {
            let feature: u32 = key
                .parse()
                .map_err(|_| serde::Error::custom(format!("invalid feature key '{key}'")))?;
            table.add(feature, u32::deserialize(p)?);
        }
        Ok(table)
    }
}

/// `ln(1 + N / df)`, the one idf expression; `n` is the document count
/// floored at one, an unseen term (`df == 0`) gets the maximal `ln(1 + N)`.
fn idf_of(n: f32, df: u32) -> f32 {
    let df = df as f32;
    if df == 0.0 {
        (1.0 + n).ln()
    } else {
        (1.0 + n / df).ln()
    }
}

impl CorpusStats {
    /// Empty corpus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one document by its distinct terms.
    pub fn add_document<I: IntoIterator<Item = TermId>>(&mut self, distinct_terms: I) {
        self.doc_count += 1;
        let doc_freq = Arc::make_mut(&mut self.doc_freq);
        for t in distinct_terms {
            doc_freq.add(t.0, 1);
        }
    }

    /// Number of documents recorded.
    pub fn doc_count(&self) -> u64 {
        self.doc_count
    }

    /// Document frequency of a term.
    pub fn doc_freq(&self, term: TermId) -> u64 {
        self.doc_freq.get(term.0) as u64
    }

    /// Logarithmically dampened inverse document frequency:
    /// `ln(1 + N / df)`. Terms never seen get the maximal idf `ln(1 + N)`.
    pub fn idf(&self, term: TermId) -> f32 {
        idf_of(self.n(), self.doc_freq.get(term.0))
    }

    fn n(&self) -> f32 {
        self.doc_count.max(1) as f32
    }

    /// Snapshot a weighter with the current statistics. The paper
    /// recomputes idf "lazily upon each retraining"; freezing a weighter at
    /// retraining time is exactly that. O(1) in the vocabulary: the df
    /// table is shared, and since idf depends only on df once N is frozen,
    /// the only thing computed is a table of idf by df.
    pub fn weighter(&self) -> TfIdfWeighter {
        let n = self.n();
        let len = self.doc_count.min(IDF_TABLE_MAX_DF) as u32 + 1;
        TfIdfWeighter {
            stats: self.clone(),
            idf_by_df: (0..len).map(|df| idf_of(n, df)).collect(),
            tf_factor_by_tf: std::array::from_fn(|tf| tf_factor(tf as u32)),
        }
    }
}

/// Longest idf-by-df table a weighter builds; a df beyond it (only in a
/// corpus of more documents than this) is computed on the spot.
const IDF_TABLE_MAX_DF: u64 = 1 << 16;

/// The tf factor `1 + ln tf`, the one expression for it.
fn tf_factor(tf: u32) -> f32 {
    1.0 + (tf as f32).ln()
}

/// Term frequencies a weighter tabulates [`tf_factor`] for; almost every
/// feature of a page occurs once or a few times.
const TF_TABLE_LEN: usize = 16;

/// A frozen idf table applied to raw term-frequency vectors. Cloning is
/// O(1): clones are handles to the same frozen statistics.
#[derive(Debug, Clone)]
pub struct TfIdfWeighter {
    stats: CorpusStats,
    /// `idf_of(n, df)` at index `df`, for every df up to the frozen
    /// document count (capped at [`IDF_TABLE_MAX_DF`]).
    idf_by_df: Arc<[f32]>,
    /// `tf_factor(tf)` at index `tf`.
    tf_factor_by_tf: [f32; TF_TABLE_LEN],
}

impl Default for TfIdfWeighter {
    /// A weighter over the empty corpus.
    fn default() -> Self {
        CorpusStats::new().weighter()
    }
}

/// On disk a weighter is its frozen statistics; the idf table is derived.
impl Serialize for TfIdfWeighter {
    fn serialize(&self, out: &mut String) {
        self.stats.serialize(out)
    }
}

impl Deserialize for TfIdfWeighter {
    fn deserialize(p: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        CorpusStats::deserialize(p).map(|stats| stats.weighter())
    }
}

impl TfIdfWeighter {
    /// Weight a document given `(term, raw frequency)` pairs:
    /// `w = (1 + ln tf) * idf`, L2-normalized.
    pub fn weigh(&self, term_freqs: &[(TermId, u32)]) -> SparseVector {
        let pairs = term_freqs
            .iter()
            .map(|&(t, f)| (t.0, self.weight(t, f)))
            .collect();
        SparseVector::from_pairs(pairs).normalized()
    }

    /// The unnormalized weight of one occurrence: `(1 + ln tf) * idf`.
    pub fn weight(&self, term: TermId, freq: u32) -> f32 {
        let tf = self.tf_factor_by_tf.get(freq as usize).copied();
        tf.unwrap_or_else(|| tf_factor(freq)) * self.idf(term)
    }

    /// The frozen idf of a term — the bits [`CorpusStats::idf`] returned
    /// at freeze time, read from the idf-by-df table.
    pub fn idf(&self, term: TermId) -> f32 {
        let df = self.stats.doc_freq.get(term.0);
        match self.idf_by_df.get(df as usize) {
            Some(&idf) => idf,
            None => idf_of(self.stats.n(), df),
        }
    }

    /// The underlying corpus statistics.
    pub fn stats(&self) -> &CorpusStats {
        &self.stats
    }

    /// True when `other` reads the same df table in memory (no copy was
    /// made between them).
    pub fn shares_stats_with(&self, other: &TfIdfWeighter) -> bool {
        Arc::ptr_eq(&self.stats.doc_freq, &other.stats.doc_freq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: u32) -> TermId {
        TermId(i)
    }

    #[test]
    fn idf_decreases_with_df() {
        let mut c = CorpusStats::new();
        for i in 0..10 {
            let mut terms = vec![t(0)];
            if i < 2 {
                terms.push(t(1));
            }
            c.add_document(terms);
        }
        assert!(c.idf(t(1)) > c.idf(t(0)));
        assert_eq!(c.doc_freq(t(0)), 10);
        assert_eq!(c.doc_freq(t(1)), 2);
    }

    #[test]
    fn unseen_term_gets_max_idf() {
        let mut c = CorpusStats::new();
        c.add_document(vec![t(0)]);
        assert!(c.idf(t(9)) >= c.idf(t(0)));
    }

    #[test]
    fn weigh_produces_unit_vector() {
        let mut c = CorpusStats::new();
        c.add_document(vec![t(0), t(1)]);
        c.add_document(vec![t(0)]);
        let w = c.weighter();
        let v = w.weigh(&[(t(0), 3), (t(1), 1)]);
        assert!((v.norm() - 1.0).abs() < 1e-6);
        // The rarer term 1 outweighs term 0 at equal tf.
        let v2 = w.weigh(&[(t(0), 1), (t(1), 1)]);
        assert!(v2.get(1) > v2.get(0));
    }

    #[test]
    fn tf_dampening_is_logarithmic() {
        let mut c = CorpusStats::new();
        c.add_document(vec![t(0), t(1)]);
        let w = c.weighter();
        let a = w.weigh(&[(t(0), 1), (t(1), 1)]);
        let b = w.weigh(&[(t(0), 100), (t(1), 1)]);
        // 100x the frequency must not give 100x the relative weight.
        let ratio_a = a.get(0) / a.get(1);
        let ratio_b = b.get(0) / b.get(1);
        assert!(ratio_b < ratio_a * 10.0);
        assert!(ratio_b > ratio_a);
    }

    #[test]
    fn frozen_idf_table_matches_the_live_expression_bit_for_bit() {
        let mut c = CorpusStats::new();
        for i in 0..40u32 {
            c.add_document((0..=i % 7).map(t));
        }
        // df above the document count (a caller repeating a term) falls
        // off the table and is computed on the spot.
        c.add_document(vec![t(99); 60]);
        let w = c.weighter();
        for term in (0..8).chain([99, 1234]) {
            assert_eq!(w.idf(t(term)).to_bits(), c.idf(t(term)).to_bits());
        }
    }

    #[test]
    fn freezing_shares_and_later_documents_do_not_leak_in() {
        let mut c = CorpusStats::new();
        c.add_document(vec![t(0), t(1)]);
        let w = c.weighter();
        assert!(w.shares_stats_with(&w.clone()));
        let before = w.idf(t(1)).to_bits();
        c.add_document(vec![t(1)]);
        c.add_document(vec![t(1)]);
        assert_eq!(w.stats().doc_count(), 1);
        assert_eq!(w.idf(t(1)).to_bits(), before);
        assert_eq!(c.doc_freq(t(1)), 3);
        assert!(!w.shares_stats_with(&c.weighter()));
    }

    #[test]
    fn weighter_serializes_as_its_statistics() {
        let mut c = CorpusStats::new();
        c.add_document(vec![t(0), t(1)]);
        c.add_document(vec![t(0)]);
        let w = c.weighter();
        let json = serde_json::to_string(&w).unwrap();
        assert_eq!(json, serde_json::to_string(&c).unwrap());
        let back: TfIdfWeighter = serde_json::from_str(&json).unwrap();
        for term in [0, 1, 7] {
            assert_eq!(back.idf(t(term)).to_bits(), w.idf(t(term)).to_bits());
        }
    }

    #[test]
    fn empty_document_weighs_empty() {
        let c = CorpusStats::new();
        let w = c.weighter();
        assert!(w.weigh(&[]).is_empty());
    }
}
