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
use std::borrow::Cow;
use std::sync::Arc;

/// Incrementally maintained document-frequency statistics over the local
/// document database: one df table, plus what was counted since the
/// table was last frozen.
///
/// The table sits behind an [`Arc`] that [`weighter`](Self::weighter)
/// shares instead of copying. While no weighter holds it, a document
/// counts straight into the table. While one does, the table is the
/// frozen view, and a document appends its feature ids to a pending log
/// (4 bytes each). Once the log holds more ids than the table has slots,
/// it is folded into a private delta table; once the delta has more
/// slots than the table, both are folded into a private copy of the
/// table and documents count straight into that — where a crawl that
/// never refreezes ends up, as it did when every freeze was followed by
/// a copy. [`fold`](Self::fold) moves the log and the delta into the
/// table, in place when nothing else holds it: a corpus whose owner
/// releases its weighters before refreezing holds one full table and
/// copies none.
#[derive(Debug, Default, Clone)]
pub struct CorpusStats {
    doc_count: u64,
    table: Arc<DfTable>,
    /// Documents counted in `delta` and `log`, not in `table`.
    pending_docs: u64,
    delta: DfTable,
    log: Vec<u32>,
}

/// Counts [`CorpusStats::fold`] moved into the table, kept so that
/// [`CorpusStats::unfold`] can take them out again.
#[derive(Debug)]
pub struct Folded {
    docs: u64,
    delta: DfTable,
    log: Vec<u32>,
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

    /// Take back `count` of a feature's df that [`add`](Self::add) put in.
    fn sub(&mut self, feature: u32, count: u32) {
        match Self::dense_slot(feature) {
            Some((ns, local)) => self.dense[ns][local] -= count,
            None => {
                let df = self.sparse.get_mut(&feature).expect("df counted before");
                *df -= count;
                if *df == 0 {
                    self.sparse.remove(&feature);
                }
            }
        }
    }

    /// Count slots, zero or not: what the table's size is measured in.
    fn slots(&self) -> usize {
        self.dense.iter().map(Vec::len).sum::<usize>() + self.sparse.len()
    }

    /// Heap bytes, from the dense arrays' capacities and the hash map's
    /// (one entry and one control byte per bucket, at the map's 7/8
    /// maximum load).
    fn resident_bytes(&self) -> usize {
        let dense: usize = self.dense.iter().map(Vec::capacity).sum();
        let buckets = self.sparse.capacity() * 8 / 7;
        dense * size_of::<u32>() + buckets * (size_of::<(u32, u32)>() + 1)
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

/// A df map the writer could not have written — a repeated feature key
/// or a zero df — is refused rather than summed into wrong counts.
impl Deserialize for DfTable {
    fn deserialize(p: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        let mut table = DfTable::default();
        let mut entries = p.read_object()?;
        while let Some((key, p)) = entries.next_key()? {
            let feature: u32 = key
                .parse()
                .map_err(|_| serde::Error::custom(format!("invalid feature key '{key}'")))?;
            let df = u32::deserialize(p)?;
            if df == 0 {
                return Err(serde::Error::custom(format!("df 0 for feature {feature}")));
            }
            if table.get(feature) != 0 {
                return Err(serde::Error::custom(format!(
                    "repeated feature key {feature}"
                )));
            }
            table.add(feature, df);
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
        if let Some(table) = Arc::get_mut(&mut self.table) {
            for t in distinct_terms {
                table.add(t.0, 1);
            }
            return;
        }
        self.pending_docs += 1;
        self.log.extend(distinct_terms.into_iter().map(|t| t.0));
        if self.log.len() > self.table.slots() {
            for f in self.log.drain(..) {
                self.delta.add(f, 1);
            }
            // Pending counts that outgrow the frozen table cost more than
            // a private copy of it: fold them into one.
            if self.delta.slots() > self.table.slots() {
                self.fold();
            }
        }
    }

    /// Number of documents recorded.
    pub fn doc_count(&self) -> u64 {
        self.doc_count
    }

    /// Document frequency of a term. O(pending log) while a weighter
    /// shares the table.
    pub fn doc_freq(&self, term: TermId) -> u64 {
        let logged = self.log.iter().filter(|&&f| f == term.0).count();
        (self.table.get(term.0) + self.delta.get(term.0)) as u64 + logged as u64
    }

    /// Logarithmically dampened inverse document frequency:
    /// `ln(1 + N / df)`. Terms never seen get the maximal idf `ln(1 + N)`.
    pub fn idf(&self, term: TermId) -> f32 {
        idf_of(self.n(), self.doc_freq(term) as u32)
    }

    fn n(&self) -> f32 {
        self.doc_count.max(1) as f32
    }

    /// Snapshot a weighter with the current statistics. The paper
    /// recomputes idf "lazily upon each retraining"; freezing a weighter at
    /// retraining time is exactly that. O(1) in the vocabulary when
    /// nothing is pending — the df table is shared, and since idf depends
    /// only on df once N is frozen, the only thing computed is a table of
    /// idf by df; with pending counts the weighter gets a folded copy
    /// ([`fold`](Self::fold) first to freeze in place).
    pub fn weighter(&self) -> TfIdfWeighter {
        if self.pending_docs == 0 {
            return self.freeze();
        }
        let mut live = self.clone();
        live.fold();
        live.freeze()
    }

    /// The table's counts as a weighter: N is the documents the table
    /// holds, which leaves out the pending ones.
    fn freeze(&self) -> TfIdfWeighter {
        let doc_count = self.doc_count - self.pending_docs;
        let n = doc_count.max(1) as f32;
        let len = doc_count.min(IDF_TABLE_MAX_DF) as u32 + 1;
        TfIdfWeighter {
            stats: CorpusStats {
                doc_count,
                table: Arc::clone(&self.table),
                ..CorpusStats::default()
            },
            idf_by_df: (0..len).map(|df| idf_of(n, df)).collect(),
            tf_factor_by_tf: std::array::from_fn(|tf| tf_factor(tf as u32)),
        }
    }

    /// Move the pending counts into the table: in place when no weighter
    /// holds it, into a copy otherwise. Afterwards
    /// [`weighter`](Self::weighter) shares the table. The counts moved
    /// are returned for [`unfold`](Self::unfold).
    pub fn fold(&mut self) -> Folded {
        let table = Arc::make_mut(&mut self.table);
        for (f, df) in self.delta.iter() {
            table.add(f, df);
        }
        for &f in &self.log {
            table.add(f, 1);
        }
        Folded {
            docs: std::mem::take(&mut self.pending_docs),
            delta: std::mem::take(&mut self.delta),
            log: std::mem::take(&mut self.log),
        }
    }

    /// Undo a [`fold`](Self::fold): take its counts out of the table
    /// and make them pending again. Returns the weighter of what the
    /// table held before the fold, bit for bit.
    pub fn unfold(&mut self, folded: Folded) -> TfIdfWeighter {
        let table = Arc::make_mut(&mut self.table);
        for (f, df) in folded.delta.iter() {
            table.sub(f, df);
        }
        for &f in &folded.log {
            table.sub(f, 1);
        }
        self.pending_docs += folded.docs;
        for (f, df) in std::mem::replace(&mut self.delta, folded.delta).iter() {
            self.delta.add(f, df);
        }
        self.log.extend(folded.log);
        self.freeze()
    }

    /// The live counts as one table: the table itself when nothing is
    /// pending, a folded copy otherwise.
    fn live_table(&self) -> Cow<'_, DfTable> {
        if self.pending_docs == 0 {
            return Cow::Borrowed(&self.table);
        }
        let mut live = self.clone();
        live.fold();
        Cow::Owned(Arc::unwrap_or_clone(live.table))
    }

    /// The largest document frequency of any feature. A corpus counted
    /// by distinct features never holds one above
    /// [`doc_count`](Self::doc_count).
    pub fn max_doc_freq(&self) -> u64 {
        self.live_table()
            .iter()
            .map(|(_, df)| df)
            .max()
            .unwrap_or(0) as u64
    }

    /// What was counted after `frozen` was taken: `None` when `frozen`
    /// holds a count this corpus does not (it was not frozen from it).
    pub fn counted_since(&self, frozen: &TfIdfWeighter) -> Option<CorpusStats> {
        let then = &frozen.stats;
        let doc_count = self.doc_count.checked_sub(then.doc_count)?;
        let mut since = DfTable::default();
        if Arc::ptr_eq(&self.table, &then.table) {
            since = self.delta.clone();
            for &f in &self.log {
                since.add(f, 1);
            }
        } else {
            let live = self.live_table();
            for (f, df) in live.iter() {
                let added = df.checked_sub(then.table.get(f))?;
                if added > 0 {
                    since.add(f, added);
                }
            }
            if then.table.iter().any(|(f, df)| live.get(f) < df) {
                return None;
            }
        }
        Some(CorpusStats {
            doc_count,
            table: Arc::new(since),
            ..CorpusStats::default()
        })
    }

    /// The corpus `frozen` was taken from, with `since` counted after
    /// it: the table is `frozen`'s, `since` is pending.
    pub fn from_frozen(frozen: &TfIdfWeighter, mut since: CorpusStats) -> CorpusStats {
        let then = &frozen.stats;
        since.fold();
        let delta = Arc::unwrap_or_clone(since.table);
        CorpusStats {
            doc_count: then.doc_count + since.doc_count,
            table: Arc::clone(&then.table),
            pending_docs: since.doc_count,
            delta,
            log: Vec::new(),
        }
    }

    /// Heap bytes of the table, the delta and the log, from their lengths
    /// and capacities. A table shared with weighters counts here in full.
    pub fn resident_bytes(&self) -> usize {
        self.table.resident_bytes()
            + self.delta.resident_bytes()
            + self.log.capacity() * size_of::<u32>()
    }

    /// Address of the df table: identity only, to tell a table folded in
    /// place from a copy.
    pub fn table_ptr(&self) -> *const () {
        Arc::as_ptr(&self.table).cast()
    }
}

/// On disk a corpus is `{"doc_count": N, "doc_freq": {feature: df, …}}`
/// with its live counts, pending ones folded in.
impl Serialize for CorpusStats {
    fn serialize(&self, out: &mut String) {
        out.push_str("{\"doc_count\":");
        self.doc_count.serialize(out);
        out.push_str(",\"doc_freq\":");
        DfTable::serialize(&self.live_table(), out);
        out.push('}');
    }
}

impl Deserialize for CorpusStats {
    fn deserialize(p: &mut serde::Parser<'_>) -> Result<Self, serde::Error> {
        let (mut doc_count, mut table) = (None, None);
        let mut entries = p.read_object()?;
        while let Some((key, p)) = entries.next_key()? {
            match &*key {
                "doc_count" if doc_count.is_none() => doc_count = Some(u64::deserialize(p)?),
                "doc_freq" if table.is_none() => table = Some(DfTable::deserialize(p)?),
                _ => p.skip_value()?,
            }
        }
        let missing =
            |field| serde::Error::custom(format!("missing field `{field}` in CorpusStats"));
        Ok(CorpusStats {
            doc_count: doc_count.ok_or_else(|| missing("doc_count"))?,
            table: Arc::new(table.ok_or_else(|| missing("doc_freq"))?),
            ..CorpusStats::default()
        })
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
        let df = self.stats.table.get(term.0);
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
        Arc::ptr_eq(&self.stats.table, &other.stats.table)
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

    /// Live df of every feature in `features`, and the bits of the idf a
    /// weighter of `c` gives them.
    fn counts(c: &CorpusStats, features: &[u32]) -> Vec<(u64, u32)> {
        let w = c.weighter();
        let at = |f: u32| (c.doc_freq(t(f)), w.idf(t(f)).to_bits());
        features.iter().map(|&f| at(f)).collect()
    }

    #[test]
    fn pending_counts_fold_into_the_table_in_place() {
        let mut c = CorpusStats::new();
        c.add_document((0..20).map(t));
        let w = c.weighter();
        let table = c.table_ptr();
        for i in 0..5 {
            c.add_document(vec![t(1), t(2 + i)]);
        }
        // The weighter still reads the table: the documents are pending.
        assert_eq!(c.table_ptr(), table);
        assert_eq!(w.stats().doc_count(), 1);
        let probes = [0, 1, 2, 6, 19, 25];
        let live = counts(&c, &probes);
        assert_eq!(live[1].0, 6);
        drop(w);
        c.fold();
        assert_eq!(c.table_ptr(), table, "nothing held the table: no copy");
        let w = c.weighter();
        assert_eq!(w.stats().table_ptr(), table);
        assert_eq!(counts(&c, &probes), live);
        assert_eq!(
            serde_json::to_string(w.stats()).unwrap(),
            serde_json::to_string(&c).unwrap()
        );
    }

    #[test]
    fn a_held_table_is_copied_by_the_fold_and_unfold_restores_it() {
        let mut c = CorpusStats::new();
        c.add_document(vec![t(0), t(1), t(2)]);
        let w = c.weighter();
        c.add_document(vec![t(1)]);
        let before = serde_json::to_string(&c).unwrap();
        let folded = c.fold();
        assert_ne!(c.table_ptr(), w.stats().table_ptr());
        assert_eq!(c.weighter().stats().doc_count(), 2);
        let back = c.unfold(folded);
        assert_eq!(serde_json::to_string(&c).unwrap(), before);
        assert_eq!(back.stats().doc_count(), 1);
        for f in 0..4 {
            assert_eq!(back.idf(t(f)).to_bits(), w.idf(t(f)).to_bits());
        }
    }

    #[test]
    fn pending_counts_are_bounded_by_the_table() {
        let mut c = CorpusStats::new();
        c.add_document((0..4).map(t));
        let _w = c.weighter();
        let mut plain = CorpusStats::new();
        plain.add_document((0..4).map(t));
        let table = c.table_ptr();
        for i in 0..50u32 {
            let doc: Vec<TermId> = (i..i + 3).map(|f| t(f | 1 << NAMESPACE_SHIFT)).collect();
            c.add_document(doc.clone());
            plain.add_document(doc);
            assert!(c.log.len() <= c.table.slots());
            assert!(c.delta.slots() <= c.table.slots());
            if i == 1 {
                // Six ids outgrew the four-slot table: a delta now.
                assert!(c.log.is_empty() && c.delta.slots() > 0);
            }
        }
        // The delta outgrew the table, and the counts moved into a copy.
        assert_ne!(c.table_ptr(), table);
        assert_eq!(c.pending_docs, 0);
        assert_eq!(c.weighter().stats().doc_count(), 51);
        let probes: Vec<u32> = (0..60)
            .map(|f| f | 1 << NAMESPACE_SHIFT)
            .chain(0..4)
            .collect();
        assert_eq!(counts(&c, &probes), counts(&plain, &probes));
        assert_eq!(
            serde_json::to_string(&c).unwrap(),
            serde_json::to_string(&plain).unwrap()
        );
    }

    #[test]
    fn counts_since_a_freeze_round_trip() {
        let mut c = CorpusStats::new();
        c.add_document(vec![t(0), t(1)]);
        let w = c.weighter();
        c.add_document(vec![t(1), t(5)]);
        let since = c.counted_since(&w).unwrap();
        assert_eq!(since.doc_count(), 1);
        assert_eq!(
            serde_json::to_string(&since).unwrap(),
            r#"{"doc_count":1,"doc_freq":{"1":1,"5":1}}"#
        );
        let back = CorpusStats::from_frozen(&w, since);
        assert_eq!(back.table_ptr(), w.stats().table_ptr());
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&c).unwrap()
        );
        // A separately counted corpus is diffed feature by feature; one
        // that lacks a frozen count was not frozen from it.
        let copy: CorpusStats = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        let since = copy.counted_since(&w).unwrap();
        assert_eq!(
            serde_json::to_string(&since).unwrap(),
            r#"{"doc_count":1,"doc_freq":{"1":1,"5":1}}"#
        );
        assert!(CorpusStats::new().counted_since(&w).is_none());
        let mut other = CorpusStats::new();
        other.add_document(vec![t(0)]);
        other.add_document(vec![t(0)]);
        assert!(other.counted_since(&w).is_none());
    }

    #[test]
    fn a_damaged_df_map_is_refused() {
        let load = |json: &str| serde_json::from_str::<CorpusStats>(json);
        assert!(load(r#"{"doc_count":3,"doc_freq":{"5":2,"5":3}}"#).is_err());
        assert!(load(r#"{"doc_count":3,"doc_freq":{"5":0,"5":3}}"#).is_err());
        assert!(load(r#"{"doc_count":3,"doc_freq":{"5":2}}"#).is_ok());
        let above = load(r#"{"doc_count":3,"doc_freq":{"5":2,"7":4}}"#).unwrap();
        assert_eq!(above.max_doc_freq(), 4);
    }

    #[test]
    fn resident_bytes_follow_the_table_delta_and_log() {
        let mut c = CorpusStats::new();
        assert_eq!(c.resident_bytes(), 0);
        c.add_document(vec![t(3), t(7 | 1 << NAMESPACE_SHIFT)]);
        let table = c.resident_bytes();
        assert!(table >= 4 * 4 + 9);
        let _w = c.weighter();
        c.add_document(vec![t(3)]);
        assert_eq!(c.resident_bytes(), table + c.log.capacity() * 4);
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
