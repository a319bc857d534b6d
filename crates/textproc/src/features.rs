//! Feature-space construction (Section 3.4).
//!
//! Beyond single-term `tf*idf` vectors, BINGO! builds richer feature
//! spaces:
//!
//! * **Term pairs** — co-occurrence of terms within a sliding window,
//! * **Neighbour documents** — the most significant terms of hyperlink
//!   predecessors/successors,
//! * **Anchor texts** — terms from `<a>` texts of predecessors pointing at
//!   the document,
//!
//! plus **combined** spaces with any subset of the above as components.
//! "The classifier can handle the various options in a uniform manner: it
//! does not have to know how feature vectors are constructed" — here every
//! space produces an ordinary [`SparseVector`](crate::SparseVector) over a
//! shared `u32` feature index namespace:
//!
//! | bits 30..32 | component |
//! |---|---|
//! | 00 | single term (the [`TermId`] itself) |
//! | 01 | term pair (hashed, see below) |
//! | 10 | anchor-text term of a predecessor |
//! | 11 | neighbour-document term |
//!
//! Term pairs use the hashing trick: the unordered pair `(a, b)` is hashed
//! into the 30-bit pair namespace. Rare collisions merely merge two pair
//! features, which the MI feature selection tolerates.

use crate::fxhash;
use crate::radix;
use crate::tfidf::TfIdfWeighter;
use crate::vocab::TermId;
use crate::AnalyzedDocument;
use serde::{Deserialize, Serialize};

/// Width of the sliding window for term-pair extraction. The paper
/// "determines only pairs within a limited word distance".
pub const PAIR_WINDOW: usize = 5;

pub(crate) const NAMESPACE_SHIFT: u32 = 30;
pub(crate) const LOCAL_MASK: u32 = (1 << NAMESPACE_SHIFT) - 1;

/// Feature namespaces within the shared u32 index space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Namespace {
    /// Plain stemmed body term.
    Term = 0,
    /// Hashed unordered term pair.
    Pair = 1,
    /// Anchor-text term from predecessors.
    Anchor = 2,
    /// Significant term of neighbour documents.
    Neighbor = 3,
}

/// Tag a local index with a namespace.
pub fn ns_index(ns: Namespace, local: u32) -> u32 {
    debug_assert!(local <= LOCAL_MASK);
    ((ns as u32) << NAMESPACE_SHIFT) | (local & LOCAL_MASK)
}

/// Extract the namespace of a feature index.
pub fn namespace_of(index: u32) -> Namespace {
    match index >> NAMESPACE_SHIFT {
        0 => Namespace::Term,
        1 => Namespace::Pair,
        2 => Namespace::Anchor,
        _ => Namespace::Neighbor,
    }
}

/// Hash an unordered term pair into the pair namespace.
pub fn pair_feature(a: TermId, b: TermId) -> u32 {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    let h = fxhash::hash_one(&(lo, hi)) as u32 & LOCAL_MASK;
    ns_index(Namespace::Pair, h)
}

/// Which feature spaces a classifier variant uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureSpaceKind {
    /// Standard single-term `tf*idf` vectors (Section 2.2).
    SingleTerms,
    /// Single terms + sliding-window term pairs.
    TermPairs,
    /// Single terms + anchor texts of predecessor links.
    AnchorTexts,
    /// Single terms + significant terms of neighbour documents.
    NeighborTerms,
    /// All components combined.
    Combined,
}

impl FeatureSpaceKind {
    /// All variants, in the order BINGO! trains its parallel classifiers.
    pub const ALL: [FeatureSpaceKind; 5] = [
        FeatureSpaceKind::SingleTerms,
        FeatureSpaceKind::TermPairs,
        FeatureSpaceKind::AnchorTexts,
        FeatureSpaceKind::NeighborTerms,
        FeatureSpaceKind::Combined,
    ];

    /// True when this space has the features of `namespace` as a
    /// component.
    pub fn uses(self, namespace: Namespace) -> bool {
        use FeatureSpaceKind::*;
        match namespace {
            Namespace::Term => true,
            Namespace::Pair => matches!(self, TermPairs | Combined),
            Namespace::Anchor => matches!(self, AnchorTexts | Combined),
            Namespace::Neighbor => matches!(self, NeighborTerms | Combined),
        }
    }
}

/// The per-document ingredients from which any feature space can be built.
///
/// `incoming_anchor_terms` and `neighbor_terms` come from the crawler's
/// link context (Section 3.4) and may be empty when unknown.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DocumentFeatures {
    /// `(term, frequency)` of body stems.
    pub term_freqs: Vec<(TermId, u32)>,
    /// Frequencies of hashed term-pair features.
    pub pair_freqs: Vec<(u32, u32)>,
    /// Stems of anchor texts on links *pointing to* this document.
    pub incoming_anchor_terms: Vec<TermId>,
    /// Most significant stems of hyperlink neighbours.
    pub neighbor_terms: Vec<TermId>,
}

impl DocumentFeatures {
    /// Derive features from an analyzed document, extracting term pairs
    /// with the sliding window. Link-context components start empty and can
    /// be filled by the crawler via [`DocumentFeatures::add_incoming_anchor`]
    /// and [`DocumentFeatures::add_neighbor_terms`].
    pub fn from_document(doc: &AnalyzedDocument) -> Self {
        DocumentFeatures {
            term_freqs: doc.term_freqs.clone(),
            pair_freqs: extract_pairs(&doc.terms),
            incoming_anchor_terms: Vec::new(),
            neighbor_terms: Vec::new(),
        }
    }

    /// Record anchor-text terms from a predecessor's link to this document.
    pub fn add_incoming_anchor(&mut self, terms: &[TermId]) {
        self.incoming_anchor_terms.extend_from_slice(terms);
    }

    /// Record significant terms of a hyperlink neighbour.
    pub fn add_neighbor_terms(&mut self, terms: &[TermId]) {
        self.neighbor_terms.extend_from_slice(terms);
    }

    /// The four components, borrowed.
    pub fn parts(&self) -> FeatureParts<'_> {
        FeatureParts {
            term_freqs: &self.term_freqs,
            pair_freqs: &self.pair_freqs,
            incoming_anchor_terms: &self.incoming_anchor_terms,
            neighbor_terms: &self.neighbor_terms,
        }
    }

    /// All feature `(index, frequency)` occurrences a given space uses,
    /// with namespace tagging applied.
    pub fn occurrences(&self, kind: FeatureSpaceKind) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = self.term_occurrences().collect();
        if kind.uses(Namespace::Pair) {
            out.extend(self.pair_freqs.iter().copied());
        }
        if kind.uses(Namespace::Anchor) {
            out.extend(count_terms(&self.incoming_anchor_terms, Namespace::Anchor));
        }
        if kind.uses(Namespace::Neighbor) {
            out.extend(count_terms(&self.neighbor_terms, Namespace::Neighbor));
        }
        out
    }

    /// The features of the combined space, each as often as
    /// [`occurrences`](Self::occurrences) lists it (once, for features
    /// built by this module) — what one document adds to the corpus
    /// document frequencies.
    pub fn distinct_features(&self) -> impl Iterator<Item = TermId> + '_ {
        self.term_occurrences()
            .chain(self.pair_freqs.iter().copied())
            .chain(count_terms(&self.incoming_anchor_terms, Namespace::Anchor))
            .chain(count_terms(&self.neighbor_terms, Namespace::Neighbor))
            .map(|(i, _)| TermId(i))
    }

    fn term_occurrences(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        term_occurrences(&self.term_freqs)
    }
}

/// The components of a document's features, borrowed: what
/// [`DocWeights::weigh`] reads. [`DocumentFeatures::parts`] lends a kept
/// document's; a page judged and let go lends its analysis, the pair
/// counts of a [`PairCounter`] and its link context, and only a caller
/// that keeps the features pays for [`to_features`](Self::to_features).
#[derive(Debug, Clone, Copy)]
pub struct FeatureParts<'a> {
    /// `(term, frequency)` of body stems.
    pub term_freqs: &'a [(TermId, u32)],
    /// Frequencies of hashed term-pair features.
    pub pair_freqs: &'a [(u32, u32)],
    /// Stems of anchor texts on links pointing to the document.
    pub incoming_anchor_terms: &'a [TermId],
    /// Most significant stems of hyperlink neighbours.
    pub neighbor_terms: &'a [TermId],
}

impl FeatureParts<'_> {
    /// The components copied into features of their own.
    pub fn to_features(self) -> DocumentFeatures {
        DocumentFeatures {
            term_freqs: self.term_freqs.to_vec(),
            pair_freqs: self.pair_freqs.to_vec(),
            incoming_anchor_terms: self.incoming_anchor_terms.to_vec(),
            neighbor_terms: self.neighbor_terms.to_vec(),
        }
    }
}

fn term_occurrences(term_freqs: &[(TermId, u32)]) -> impl Iterator<Item = (u32, u32)> + '_ {
    term_freqs
        .iter()
        .map(|&(t, f)| (ns_index(Namespace::Term, t.0), f))
}

/// The distinct keys of a sorted run with their counts, in order.
fn runs(sorted: &[u32]) -> impl Iterator<Item = (u32, u32)> + '_ {
    sorted
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u32))
}

fn count_terms(terms: &[TermId], ns: Namespace) -> Vec<(u32, u32)> {
    let mut keys: Vec<u32> = terms.iter().map(|t| ns_index(ns, t.0)).collect();
    keys.sort_unstable();
    runs(&keys).collect()
}

/// Sliding-window unordered pair extraction, in feature order.
fn extract_pairs(terms: &[TermId]) -> Vec<(u32, u32)> {
    let mut counter = PairCounter::default();
    counter.count(terms);
    counter.pairs
}

/// Reusable buffers for a page's term-pair counts: after the first few
/// pages [`count`](Self::count) allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct PairCounter {
    keys: Vec<u32>,
    swap: Vec<u32>,
    pairs: Vec<(u32, u32)>,
}

impl PairCounter {
    /// The sliding-window unordered pairs of `terms` with their counts,
    /// in feature order — [`DocumentFeatures::from_document`]'s
    /// `pair_freqs` for a document with these body terms.
    pub fn count(&mut self, terms: &[TermId]) -> &[(u32, u32)] {
        let PairCounter { keys, swap, pairs } = self;
        keys.clear();
        for (i, &a) in terms.iter().enumerate() {
            for &b in terms.iter().skip(i + 1).take(PAIR_WINDOW - 1) {
                if a != b {
                    keys.push(pair_feature(a, b));
                }
            }
        }
        radix::sort(keys, swap);
        pairs.clear();
        pairs.extend(runs(keys));
        pairs
    }
}

/// A document weighed once against a frozen corpus, for every feature
/// space at once.
///
/// Holds the unnormalized `(1 + ln tf) · idf` weight of every feature of
/// the combined space in feature order — by the namespace bits that is
/// the term, pair, anchor and neighbour runs one after another, the order
/// [`SparseVector::from_pairs`](crate::SparseVector::from_pairs) sorts a
/// space's occurrences into — and, per [`FeatureSpaceKind`], the L2 norm
/// [`TfIdfWeighter::weigh`] divides by. The norms are the sequential f32
/// sum of squares `weigh` performs over the space's sorted entries:
/// every space starts with the term run, so that prefix is accumulated
/// once and continued over the runs each space adds. A weight times
/// `1 / norm(kind)` therefore has the bits of the entry `weigh` produces
/// for `kind`.
///
/// Like `weigh` it merges equal features (three or more may round
/// differently when merged; no producer emits a feature twice).
///
/// One value can weigh page after page ([`weigh`](Self::weigh)): its
/// entries are reused, so once they have grown to a page's size weighing
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct DocWeights {
    entries: Vec<(u32, f32)>,
    /// Where the term, pair and anchor runs end in `entries`.
    ends: [usize; 3],
    /// Full-space norm per kind, in [`FeatureSpaceKind::ALL`] order.
    norms: [f32; 5],
}

impl DocWeights {
    /// Weigh `features` with the frozen statistics of `weighter`.
    pub fn new(features: &DocumentFeatures, weighter: &TfIdfWeighter) -> Self {
        let mut weights = DocWeights::default();
        weights.weigh(features.parts(), weighter, &mut Vec::new());
        weights
    }

    /// Weigh another document in place: afterwards `self` is
    /// `DocWeights::new` of `parts`' features. `link_keys` is scratch for
    /// counting the link context; its contents are discarded.
    pub fn weigh(
        &mut self,
        parts: FeatureParts<'_>,
        weighter: &TfIdfWeighter,
        link_keys: &mut Vec<u32>,
    ) {
        let DocWeights {
            entries,
            ends,
            norms,
        } = self;
        // Anchor keys sort before neighbour keys by their namespace bits:
        // one sort counts both. A crawled page's link context is a few
        // keys (one anchor's terms and a page's top neighbour terms), too
        // few for `radix::sort`'s histograms to pay.
        link_keys.clear();
        link_keys.extend(
            (parts.incoming_anchor_terms.iter())
                .map(|t| ns_index(Namespace::Anchor, t.0))
                .chain((parts.neighbor_terms.iter()).map(|t| ns_index(Namespace::Neighbor, t.0))),
        );
        link_keys.sort_unstable();
        let weigh = |(i, f): (u32, u32)| (i, weighter.weight(TermId(i), f));
        // One loop per run: a chain of them costs a branch per item.
        entries.clear();
        entries.extend(term_occurrences(parts.term_freqs).map(weigh));
        entries.extend(parts.pair_freqs.iter().copied().map(weigh));
        entries.extend(runs(link_keys).map(weigh));
        // Every producer in this workspace lists terms and pairs in
        // feature order; anything else is put in order here.
        if !entries.is_sorted_by_key(|e| e.0) {
            entries.sort_unstable_by_key(|e| e.0);
        }
        entries.dedup_by(|later, kept| {
            kept.0 == later.0 && {
                kept.1 += later.1;
                true
            }
        });
        *ends = [Namespace::Pair, Namespace::Anchor, Namespace::Neighbor]
            .map(|ns| entries.partition_point(|e| e.0 < ns_index(ns, 0)));
        let [t, p, a] = *ends;

        let sum_sq = |from: f32, run: &[(u32, f32)]| run.iter().fold(from, |s, &(_, w)| s + w * w);
        let terms = sum_sq(0.0, &entries[..t]);
        let term_pairs = sum_sq(terms, &entries[t..p]);
        *norms = [
            terms,
            term_pairs,
            sum_sq(terms, &entries[p..a]),
            sum_sq(terms, &entries[a..]),
            sum_sq(term_pairs, &entries[p..]),
        ]
        .map(f32::sqrt);
    }

    /// The norm [`TfIdfWeighter::weigh`] divides the vector of `kind` by.
    pub fn norm(&self, kind: FeatureSpaceKind) -> f32 {
        self.norms[kind as usize]
    }

    /// Every `(feature, unnormalized weight)` of the document — the
    /// entries of the combined space — in feature order, each feature
    /// once.
    pub fn entries(&self) -> &[(u32, f32)] {
        &self.entries
    }

    /// The `(feature, unnormalized weight)` entries `kind` uses, as its
    /// term, pair, anchor and neighbour runs (empty where the space has
    /// no such component); concatenated they are in feature order.
    pub fn runs(&self, kind: FeatureSpaceKind) -> [&[(u32, f32)]; 4] {
        let [t, p, a] = self.ends;
        let run = |ns: Namespace, range: std::ops::Range<usize>| {
            if kind.uses(ns) {
                &self.entries[range]
            } else {
                &self.entries[..0]
            }
        };
        [
            run(Namespace::Term, 0..t),
            run(Namespace::Pair, t..p),
            run(Namespace::Anchor, p..a),
            run(Namespace::Neighbor, a..self.entries.len()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tfidf::CorpusStats;
    use crate::Vocabulary;

    fn doc(text: &str, vocab: &mut Vocabulary) -> AnalyzedDocument {
        crate::analyze_html(text, vocab)
    }

    #[test]
    fn namespaces_round_trip() {
        for ns in [
            Namespace::Term,
            Namespace::Pair,
            Namespace::Anchor,
            Namespace::Neighbor,
        ] {
            let idx = ns_index(ns, 12345);
            assert_eq!(namespace_of(idx), ns);
            assert_eq!(idx & LOCAL_MASK, 12345);
        }
    }

    #[test]
    fn pair_feature_is_symmetric() {
        assert_eq!(
            pair_feature(TermId(3), TermId(9)),
            pair_feature(TermId(9), TermId(3))
        );
        assert_eq!(
            namespace_of(pair_feature(TermId(1), TermId(2))),
            Namespace::Pair
        );
    }

    #[test]
    fn pairs_respect_window() {
        let mut v = Vocabulary::new();
        let terms: Vec<TermId> = (0..10).map(|i| v.intern(&format!("term{i}"))).collect();
        let pairs = extract_pairs(&terms);
        // Window 5 over 10 distinct terms: positions i pairs with i+1..i+4.
        let expected: usize = (0..10).map(|i| (10 - i - 1).min(PAIR_WINDOW - 1)).sum();
        let total: u32 = pairs.iter().map(|&(_, f)| f).sum();
        assert_eq!(total as usize, expected);
        // Adjacent pair present, distant pair absent.
        let near = pair_feature(terms[0], terms[1]);
        let far = pair_feature(terms[0], terms[9]);
        assert!(pairs.iter().any(|&(i, _)| i == near));
        assert!(!pairs.iter().any(|&(i, _)| i == far));
    }

    #[test]
    fn single_terms_space_ignores_extras() {
        let mut vocab = Vocabulary::new();
        let d = doc("<p>alpha beta gamma</p>", &mut vocab);
        let mut f = DocumentFeatures::from_document(&d);
        f.add_incoming_anchor(&[vocab.intern("anchorword")]);
        let single = f.occurrences(FeatureSpaceKind::SingleTerms);
        assert!(single
            .iter()
            .all(|&(i, _)| namespace_of(i) == Namespace::Term));
        let combined = f.occurrences(FeatureSpaceKind::Combined);
        assert!(combined
            .iter()
            .any(|&(i, _)| namespace_of(i) == Namespace::Anchor));
        assert!(combined.len() > single.len());
    }

    /// The vector `weigh` builds for `kind`, rebuilt from the shared
    /// weights: every run entry times `1 / norm(kind)`.
    fn unit_entries(w: &DocWeights, kind: FeatureSpaceKind) -> Vec<(u32, u32)> {
        let factor = 1.0 / w.norm(kind);
        w.runs(kind)
            .into_iter()
            .flatten()
            .map(|&(i, x)| (i, (x * factor).to_bits()))
            .collect()
    }

    #[test]
    fn doc_weights_reproduce_weigh_bit_for_bit_in_every_space() {
        let mut vocab = Vocabulary::new();
        let mut stats = CorpusStats::new();
        let texts = [
            "<p>mining data mining patterns in large databases</p>",
            "<p>transaction recovery logging and data storage</p>",
            "<p>patterns of football championship seasons</p>",
        ];
        let mut docs: Vec<DocumentFeatures> = texts
            .iter()
            .map(|t| DocumentFeatures::from_document(&doc(t, &mut vocab)))
            .collect();
        // Repeated and shared link-context terms, in no particular order.
        let (a, b, c) = (
            vocab.intern("anchor"),
            vocab.intern("mine"),
            vocab.intern("zeta"),
        );
        docs[0].add_incoming_anchor(&[c, a, c, b, a, c]);
        docs[0].add_neighbor_terms(&[b, b, a]);
        docs[1].add_neighbor_terms(&[c]);
        for f in &docs[..2] {
            stats.add_document(f.distinct_features());
        }
        // docs[2] is unseen by the corpus: its rare features take the
        // maximal idf.
        let weighter = stats.weighter();
        for f in &docs {
            let w = DocWeights::new(f, &weighter);
            for kind in FeatureSpaceKind::ALL {
                let occ: Vec<(TermId, u32)> = f
                    .occurrences(kind)
                    .into_iter()
                    .map(|(i, n)| (TermId(i), n))
                    .collect();
                let want: Vec<(u32, u32)> = weighter
                    .weigh(&occ)
                    .entries()
                    .iter()
                    .map(|&(i, x)| (i, x.to_bits()))
                    .collect();
                assert_eq!(unit_entries(&w, kind), want, "{kind:?}");
            }
        }
    }

    #[test]
    fn doc_weights_of_an_empty_document_are_empty() {
        let w = DocWeights::new(&DocumentFeatures::default(), &CorpusStats::new().weighter());
        for kind in FeatureSpaceKind::ALL {
            assert_eq!(w.norm(kind), 0.0);
            assert!(w.runs(kind).iter().all(|r| r.is_empty()));
        }
    }

    #[test]
    fn distinct_features_are_the_combined_occurrences() {
        let mut vocab = Vocabulary::new();
        let d = doc("<p>alpha beta gamma alpha</p>", &mut vocab);
        let mut f = DocumentFeatures::from_document(&d);
        let t = vocab.intern("anchorword");
        f.add_incoming_anchor(&[t, t]);
        f.add_neighbor_terms(&[t]);
        let mut got: Vec<u32> = f.distinct_features().map(|t| t.0).collect();
        let mut want: Vec<u32> = f
            .occurrences(FeatureSpaceKind::Combined)
            .iter()
            .map(|&(i, _)| i)
            .collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        assert_eq!(
            count_terms(&[t, TermId(1), t], Namespace::Anchor),
            vec![
                (ns_index(Namespace::Anchor, 1), 1),
                (ns_index(Namespace::Anchor, t.0), 2)
            ]
        );
    }

    #[test]
    fn identical_terms_produce_no_self_pairs() {
        let mut v = Vocabulary::new();
        let t = v.intern("echo");
        let pairs = extract_pairs(&[t, t, t]);
        assert!(pairs.is_empty());
    }
}
