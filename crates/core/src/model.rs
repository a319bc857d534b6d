//! Per-topic classifier models (Sections 2.4, 3.4, 3.5).
//!
//! For each topic BINGO! trains one linear SVM *per feature space* on the
//! topic's training documents (positives) against its competing siblings
//! and the OTHERS documents (negatives). Each space carries its own MI
//! feature selection and a handle to the training round's frozen idf
//! weighting; at decision time a page is weighed once for all spaces
//! and the per-space verdicts are combined by the meta decision function
//! of the crawl phase.

use bingo_ml::feature_selection::{FeatureSelection, FeatureSelectionConfig};
use bingo_ml::meta::MetaPolicy;
use bingo_ml::svm::{LinearSvm, SvmConfig, TrainedSvm};
use bingo_ml::{FeatureSelector, NaiveBayes, TrainingSet};
use bingo_textproc::features::{namespace_of, ns_index, Namespace};
use bingo_textproc::fxhash::FxHashMap;
use bingo_textproc::tfidf::TfIdfWeighter;
use bingo_textproc::vocab::TermId;
use bingo_textproc::{DocWeights, DocumentFeatures, FeatureSpaceKind, SparseVector};

/// One feature-space variant of a topic's classifier.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SpaceModel {
    /// Which feature components this space uses.
    pub kind: FeatureSpaceKind,
    /// MI-selected feature set with raw→compact projection.
    pub selector: FeatureSelector,
    /// Frozen idf statistics at training time: a handle to the one
    /// weighter of the training round, shared by every space of every
    /// topic. Not serialized per space — an engine snapshot stores it
    /// once and [`TopicModel::restore`] hands it back.
    #[serde(skip)]
    pub weighter: TfIdfWeighter,
    /// The trained SVM in the compact selected space.
    pub svm: TrainedSvm,
    /// Derived from `selector` and `svm`: what [`score`](Self::score)
    /// probes once per document feature.
    #[serde(skip)]
    table: SelectedTable,
}

/// One bit per bucket of a multiplicative hash: answers "selected by
/// nobody" — the common case for a page's feature — with a multiply and
/// a mask, so only the selected features and a small share of the others
/// reach a hash map. Sized at sixteen bits or more per feature
/// inserted (2 KB at least), so about one unselected feature in sixteen
/// passes.
#[derive(Debug, Clone)]
struct BitFilter {
    words: Vec<u64>,
    /// `32 - log2(bits)`: the hash bits above it pick the bucket.
    shift: u32,
}

impl Default for BitFilter {
    fn default() -> Self {
        BitFilter::for_features(0)
    }
}

impl BitFilter {
    const MIN_BITS: u32 = 14;

    /// An empty filter for `features` insertions.
    fn for_features(features: usize) -> Self {
        let bits = (features * 16).next_power_of_two().trailing_zeros();
        let bits = bits.clamp(Self::MIN_BITS, 31);
        BitFilter {
            words: vec![0; 1 << (bits - 6)],
            shift: 32 - bits,
        }
    }

    /// Filter word and bit of a feature: the top bits of a
    /// multiplicative hash.
    fn bucket(&self, feature: u32) -> (usize, u64) {
        let h = feature.wrapping_mul(0x9E37_79B1) >> self.shift;
        ((h / 64) as usize, 1 << (h % 64))
    }

    fn insert(&mut self, feature: u32) {
        let (word, bit) = self.bucket(feature);
        self.words[word] |= bit;
    }

    fn may_contain(&self, feature: u32) -> bool {
        let (word, bit) = self.bucket(feature);
        self.words[word] & bit != 0
    }
}

/// Selected raw feature → (compact index, SVM weight) of one space.
#[derive(Debug, Clone, Default)]
struct SelectedTable {
    filter: BitFilter,
    map: FxHashMap<u32, (u32, f32)>,
}

impl SelectedTable {
    fn new(selector: &FeatureSelector, svm: &TrainedSvm) -> Self {
        let mut filter = BitFilter::for_features(selector.len());
        let map = selected_features(selector, svm)
            .map(|(raw, compact, svm_weight)| {
                filter.insert(raw);
                (raw, (compact, svm_weight))
            })
            .collect();
        SelectedTable { filter, map }
    }

    fn get(&self, feature: u32) -> Option<(u32, f32)> {
        if !self.filter.may_contain(feature) {
            return None;
        }
        self.map.get(&feature).copied()
    }
}

/// `(raw feature, compact index, SVM weight)` of every feature a space
/// selected.
fn selected_features<'a>(
    selector: &'a FeatureSelector,
    svm: &'a TrainedSvm,
) -> impl Iterator<Item = (u32, u32, f32)> + 'a {
    (0u32..)
        .zip(selector.ranked())
        .map(|(compact, &(raw, _))| (raw, compact, svm.weights.get(compact)))
}

/// A selected feature found in a document: where it sits in the order
/// of the projected vector, the SVM weight there, and the document's
/// unit-normalized weight `x`.
#[derive(Debug, Clone, Copy)]
struct Hit {
    /// The compact index; the fused pass adds the selected counts of the
    /// spaces before this one in `TopicModel::spaces`, so one order holds
    /// every space's hits and the keys stay dense.
    key: u32,
    svm_weight: f32,
    x: f32,
}

/// Reusable buffers for a document's hits and their order: once grown
/// to a page's size, scoring allocates nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct HitBuffers {
    /// The document entries that passed a filter.
    passed: Vec<(u32, f32)>,
    hits: Vec<Hit>,
    /// `hits` in key order.
    ordered: Vec<Hit>,
    /// One bit per key: which keys hit. All clear between documents.
    present: Vec<u64>,
    /// Per key that hit, its position in `hits`.
    position: Vec<u32>,
}

impl HitBuffers {
    /// The hits in key order. Every key is below `bound` and hits at most
    /// once — a document lists each feature once, and a feature has at
    /// most one slot per space — so the keys are counted into place: each
    /// hit sets its key's bit and records where it is, and the bitmap,
    /// read in order, gathers them.
    fn in_key_order(&mut self, bound: u32) -> &[Hit] {
        let HitBuffers {
            hits,
            ordered,
            present,
            position,
            ..
        } = self;
        let words = bound.div_ceil(64) as usize;
        if present.len() < words {
            present.resize(words, 0);
        }
        if position.len() < bound as usize {
            position.resize(bound as usize, 0);
        }
        for (i, h) in (0u32..).zip(hits.iter()) {
            let (word, bit) = (h.key as usize / 64, 1u64 << (h.key % 64));
            debug_assert!(present[word] & bit == 0, "key {} hit twice", h.key);
            present[word] |= bit;
            position[h.key as usize] = i;
        }
        ordered.clear();
        for (w, word) in present[..words].iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let key = w * 64 + bits.trailing_zeros() as usize;
                ordered.push(hits[position[key] as usize]);
                bits &= bits - 1;
            }
        }
        ordered
    }
}

/// The factor `SparseVector::normalized` scales by: a zero norm leaves
/// the weights as they are (and a factor of zero empties the vector).
fn unit_factor(norm: f32) -> f32 {
    if norm == 0.0 {
        1.0
    } else {
        1.0 / norm
    }
}

/// The confidence of one space from its hits in compact-index order —
/// the order the projected vector holds them in — with every f32
/// operation of the reference (`svm.confidence(&space.vector(f))`) in
/// the reference's order: coverage norm, rescale, dot product against
/// the SVM weights, bias, weight norm.
fn confidence_of_hits(svm: &TrainedSvm, hits: &[Hit]) -> f32 {
    let coverage = hits.iter().map(|h| h.x * h.x).sum::<f32>().sqrt();
    let rescale = if coverage > 0.0 {
        1.0 / coverage.max(MIN_PROJECTION_COVERAGE)
    } else {
        1.0
    };
    let mut dot = 0.0f32;
    if rescale != 0.0 {
        // The SVM's sparse weight vector holds no zeros, so the
        // reference dot product skips those features.
        for h in hits.iter().filter(|h| h.svm_weight != 0.0) {
            dot += h.svm_weight * (h.x * rescale);
        }
    }
    (dot + svm.bias) / svm.weight_norm
}

/// Every space's [`SelectedTable`] of one topic in one: a document
/// feature is probed once and yields its slot in every space that
/// selected it.
#[derive(Debug, Clone, Default)]
struct FusedTable {
    filter: BitFilter,
    /// Feature → its range in `slots`.
    map: FxHashMap<u32, (u32, u32)>,
    /// The slots of one feature next to each other.
    slots: Vec<Slot>,
    /// Per space, the end of its [`Hit::key`] range: the selected counts
    /// of it and the spaces before it.
    key_ends: Vec<u32>,
}

/// One space's entry for a selected feature.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// [`Hit::key`].
    key: u32,
    svm_weight: f32,
    /// The space's kind, whose norm the document weight is divided by.
    kind: FeatureSpaceKind,
}

impl FusedTable {
    fn new(spaces: &[SpaceModel]) -> Self {
        let mut selected: Vec<(u32, Slot)> = Vec::new();
        let mut key_ends = Vec::with_capacity(spaces.len());
        let mut base = 0u32;
        for space in spaces {
            for (raw, compact, svm_weight) in selected_features(&space.selector, &space.svm) {
                // `score` reads only the runs of the space's kind; a
                // selector naming a feature outside them never hits.
                if space.kind.uses(namespace_of(raw)) {
                    selected.push((
                        raw,
                        Slot {
                            key: base + compact,
                            svm_weight,
                            kind: space.kind,
                        },
                    ));
                }
            }
            base += space.selector.len() as u32;
            key_ends.push(base);
        }
        selected.sort_unstable_by_key(|&(raw, slot)| (raw, slot.key));
        let features = selected.chunk_by(|a, b| a.0 == b.0).count();
        let mut filter = BitFilter::for_features(features);
        let mut slots = Vec::with_capacity(selected.len());
        let mut map = FxHashMap::default();
        for of_feature in selected.chunk_by(|a, b| a.0 == b.0) {
            let raw = of_feature[0].0;
            let start = slots.len() as u32;
            slots.extend(of_feature.iter().map(|&(_, slot)| slot));
            filter.insert(raw);
            map.insert(raw, (start, slots.len() as u32));
        }
        FusedTable {
            filter,
            map,
            slots,
            key_ends,
        }
    }

    /// Walk the document's entries once and return every space's hits,
    /// space after space, each space's in compact-index order.
    fn hits<'b>(&self, doc: &DocWeights, buffers: &'b mut HitBuffers) -> &'b [Hit] {
        let units = FeatureSpaceKind::ALL.map(|kind| unit_factor(doc.norm(kind)));
        // The filter passes few features, and which ones no branch
        // predictor guesses: every entry is written, the count advances
        // by the filter's answer.
        let entries = doc.entries();
        let passed = &mut buffers.passed;
        if passed.len() < entries.len() {
            passed.resize(entries.len(), (0, 0.0));
        }
        let mut n = 0;
        for &entry in entries {
            passed[n] = entry;
            n += usize::from(self.filter.may_contain(entry.0));
        }
        let hits = &mut buffers.hits;
        hits.clear();
        for &(feature, w) in &passed[..n] {
            let Some(&(start, end)) = self.map.get(&feature) else {
                continue;
            };
            for slot in &self.slots[start as usize..end as usize] {
                let unit = units[slot.kind as usize];
                let x = w * unit;
                if unit != 0.0 && x != 0.0 {
                    hits.push(Hit {
                        key: slot.key,
                        svm_weight: slot.svm_weight,
                        x,
                    });
                }
            }
        }
        buffers.in_key_order(self.key_ends.last().copied().unwrap_or(0))
    }
}

/// Floor on the projected-mass fraction used when renormalizing after
/// feature selection. A document whose selected features carry less than
/// this fraction of its tf·idf mass is *not* amplified to full unit
/// length: a page sharing only two or three topic terms must not look as
/// confident as a fully topical page.
pub const MIN_PROJECTION_COVERAGE: f32 = 0.3;

/// The classifier-ready vector of a weighed document in the space of
/// `kind` — [`SpaceModel::vector`] to the bit, from weights shared by
/// every space: the runs of `kind` times `1 / norm(kind)` are the entries
/// `weigh` produces, the rest is the reference's own code.
fn selected_vector(
    selector: &FeatureSelector,
    kind: FeatureSpaceKind,
    doc: &DocWeights,
) -> SparseVector {
    let unit = unit_factor(doc.norm(kind));
    let mut pairs: Vec<(u32, f32)> = Vec::new();
    if unit != 0.0 {
        for &(feature, w) in doc.runs(kind).into_iter().flatten() {
            if let Some(compact) = selector.compact(feature) {
                pairs.push((compact, w * unit));
            }
        }
    }
    rescaled_by_coverage(SparseVector::from_pairs(pairs))
}

/// Rescale a projected vector by `1 / max(coverage, MIN_PROJECTION_COVERAGE)`,
/// coverage being the mass the selected features retained.
fn rescaled_by_coverage(mut projected: SparseVector) -> SparseVector {
    let coverage = projected.norm();
    if coverage > 0.0 {
        projected.scale(1.0 / coverage.max(MIN_PROJECTION_COVERAGE));
    }
    projected
}

impl SpaceModel {
    fn new(
        kind: FeatureSpaceKind,
        selector: FeatureSelector,
        weighter: TfIdfWeighter,
        svm: TrainedSvm,
    ) -> Self {
        let table = SelectedTable::new(&selector, &svm);
        SpaceModel {
            kind,
            selector,
            weighter,
            svm,
            table,
        }
    }

    /// The classifier-ready vector of a document in this space.
    ///
    /// The tf·idf vector is unit-normalized in the full feature space,
    /// projected onto the MI-selected features, and rescaled by
    /// `1 / max(coverage, MIN_PROJECTION_COVERAGE)` where coverage is the
    /// retained mass. Fully topical documents come out unit length;
    /// marginal ones stay proportionally shorter so the SVM bias can
    /// reject them.
    ///
    /// This is the reference [`score`](Self::score) and the training
    /// vectors are tested against; neither training nor classification
    /// weighs a document per space.
    pub fn vector(&self, features: &DocumentFeatures) -> SparseVector {
        let occurrences: Vec<(TermId, u32)> = features
            .occurrences(self.kind)
            .into_iter()
            .map(|(i, f)| (TermId(i), f))
            .collect();
        rescaled_by_coverage(self.selector.project(&self.weighter.weigh(&occurrences)))
    }

    /// Signed hyperplane-distance confidence of a weighed document:
    /// `self.svm.confidence(&self.vector(features))` to the bit, without
    /// building either vector. `doc` must have been weighed with this
    /// space's weighter.
    ///
    /// The document's selected features are gathered with their
    /// unit-normalized weights and put in compact-index order;
    /// `confidence_of_hits` does the rest.
    pub fn score(&self, doc: &DocWeights) -> f32 {
        let mut buffers = HitBuffers::default();
        let runs = doc.runs(self.kind);
        let unit = unit_factor(doc.norm(self.kind));
        let hits = &mut buffers.hits;
        hits.clear();
        if unit != 0.0 {
            for &(feature, w) in runs.into_iter().flatten() {
                if let Some((compact, svm_weight)) = self.table.get(feature) {
                    let x = w * unit;
                    if x != 0.0 {
                        hits.push(Hit {
                            key: compact,
                            svm_weight,
                            x,
                        });
                    }
                }
            }
        }
        let bound = self.selector.len() as u32;
        confidence_of_hits(&self.svm, buffers.in_key_order(bound))
    }

    /// Signed hyperplane-distance confidence for a document.
    pub fn confidence(&self, features: &DocumentFeatures) -> f32 {
        self.score(&DocWeights::new(features, &self.weighter))
    }

    /// The ξα precision estimate of this space's SVM.
    pub fn xi_precision(&self) -> f32 {
        self.svm.estimate.precision()
    }
}

/// Training parameters for one topic model.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ModelConfig {
    /// Not read by training: its one field, `positive_cost_factor`, is
    /// set per topic from the training set's balance.
    pub svm: SvmConfig,
    /// Not read by training: the selection sizes are the paper's
    /// constants (`feature_selection::{PRE_SELECT, SELECT}`).
    pub selection: FeatureSelectionConfig,
    /// Feature spaces to train, one after another; the meta decision
    /// combines their verdicts.
    pub spaces: Vec<FeatureSpaceKind>,
    /// Also train a multinomial Naive Bayes on the first feature space
    /// and include it in the meta committee — a genuinely different
    /// learning method (Section 3.5 combines alternative classifiers,
    /// not only alternative feature spaces).
    pub use_naive_bayes: bool,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            svm: SvmConfig::default(),
            selection: FeatureSelectionConfig::default(),
            spaces: vec![
                FeatureSpaceKind::SingleTerms,
                FeatureSpaceKind::TermPairs,
                FeatureSpaceKind::Combined,
            ],
            use_naive_bayes: false,
        }
    }
}

/// A topic's trained decision models across feature spaces.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct TopicModel {
    /// One model per configured feature space.
    pub spaces: Vec<SpaceModel>,
    /// Optional Naive Bayes committee member over the *raw* single-term
    /// space (NB models class-conditional term distributions, so it must
    /// see the negatives' vocabulary too — the MI-projected space keeps
    /// only in-topic features), with its committee weight (training-set
    /// precision).
    pub naive_bayes: Option<(NaiveBayes, f32)>,
    /// Mean confidence of the training documents under the trained model
    /// — the archetype-promotion threshold of Section 3.2.
    pub mean_training_confidence: f32,
    /// Derived from `spaces`: what [`decide_weighed`](Self::decide_weighed)
    /// probes once per document feature for all spaces together.
    #[serde(skip)]
    fused: FusedTable,
}

impl TopicModel {
    /// Train a topic model from positive and negative documents, all
    /// weighed with `weighter` — the training round's one frozen view of
    /// the corpus, which every space of the model keeps a handle to.
    /// Returns `None` when either side is empty.
    pub fn train(
        positives: &[&DocumentFeatures],
        negatives: &[&DocumentFeatures],
        weighter: &TfIdfWeighter,
        config: &ModelConfig,
    ) -> Option<TopicModel> {
        if positives.is_empty() || negatives.is_empty() {
            return None;
        }
        // Balance the box constraints for the (typically tiny) positive
        // side.
        let trainer = LinearSvm::new(SvmConfig {
            positive_cost_factor: (negatives.len() as f32 / positives.len() as f32)
                .clamp(1.0, 50.0),
        });

        // Every document is weighed once for all spaces, positives first.
        let documents: Vec<(&DocumentFeatures, DocWeights, bool)> = positives
            .iter()
            .map(|&f| (f, true))
            .chain(negatives.iter().map(|&f| (f, false)))
            .map(|(f, positive)| (f, DocWeights::new(f, weighter), positive))
            .collect();

        let mut spaces = Vec::with_capacity(config.spaces.len());
        for &kind in &config.spaces {
            let occurrences: Vec<Vec<(u32, u32)>> = documents
                .iter()
                .map(|(f, ..)| f.occurrences(kind))
                .collect();
            let labeled: Vec<(&[(u32, u32)], bool)> = occurrences
                .iter()
                .zip(&documents)
                .map(|(o, &(.., positive))| (o.as_slice(), positive))
                .collect();
            let selector = FeatureSelection.select(&labeled);
            if selector.is_empty() {
                continue;
            }

            let mut set = TrainingSet::new();
            for (_, weights, positive) in &documents {
                set.push(selected_vector(&selector, kind, weights), *positive);
            }
            let Some(svm) = trainer.train(&set) else {
                continue;
            };
            spaces.push(SpaceModel::new(kind, selector, weighter.clone(), svm));
        }
        if spaces.is_empty() {
            return None;
        }

        // Optional Naive Bayes committee member over raw term counts.
        let naive_bayes = if config.use_naive_bayes {
            let mut nb_set = TrainingSet::new();
            for f in positives {
                nb_set.push(nb_vector(&f.term_freqs), true);
            }
            for f in negatives {
                nb_set.push(nb_vector(&f.term_freqs), false);
            }
            NaiveBayes::train(&nb_set).map(|nb| {
                let tp = positives
                    .iter()
                    .filter(|f| nb.score(&nb_vector(&f.term_freqs)) >= 0.0)
                    .count();
                let fp = negatives
                    .iter()
                    .filter(|f| nb.score(&nb_vector(&f.term_freqs)) >= 0.0)
                    .count();
                let weight = if tp + fp > 0 {
                    (tp as f32 / (tp + fp) as f32).max(0.05)
                } else {
                    0.05
                };
                (nb, weight)
            })
        } else {
            None
        };

        let mut model = TopicModel {
            fused: FusedTable::new(&spaces),
            spaces,
            naive_bayes,
            mean_training_confidence: 0.0,
        };
        // The training documents' own confidence scores define the
        // archetype threshold ("training documents have a confidence
        // score associated with them, too", Section 2.4).
        let mut buffers = HitBuffers::default();
        let sum: f32 = documents[..positives.len()]
            .iter()
            .map(|(f, weights, _)| {
                let policy = MetaPolicy::WeightedAverage;
                (model.decide_with(&f.term_freqs, weights, policy, &mut buffers)).1
            })
            .sum();
        model.mean_training_confidence = sum / positives.len() as f32;
        Some(model)
    }

    /// The tri-state meta decision over all spaces (Section 3.5).
    /// Returns `(accepted, confidence)`; abstention counts as rejection.
    pub fn decide(&self, features: &DocumentFeatures, policy: MetaPolicy) -> (bool, f32) {
        let weights = DocWeights::new(features, &self.spaces[0].weighter);
        self.decide_weighed(features, &weights, policy)
    }

    /// [`decide`](Self::decide) for a document already weighed with this
    /// model's weighter: one [`DocWeights`] serves every space of every
    /// topic trained in the same round, so a caller judging a page
    /// against several topics weighs it once. The document's entries are
    /// walked once for all spaces; each space's confidence is
    /// [`SpaceModel::score`] to the bit.
    pub fn decide_weighed(
        &self,
        features: &DocumentFeatures,
        weights: &DocWeights,
        policy: MetaPolicy,
    ) -> (bool, f32) {
        let mut buffers = HitBuffers::default();
        self.decide_with(&features.term_freqs, weights, policy, &mut buffers)
    }

    /// [`decide_weighed`](Self::decide_weighed) of a document given by
    /// its body term frequencies (all a Naive Bayes member reads) and its
    /// weights, with the hits gathered in `buffers`.
    pub(crate) fn decide_with(
        &self,
        term_freqs: &[(TermId, u32)],
        weights: &DocWeights,
        policy: MetaPolicy,
        buffers: &mut HitBuffers,
    ) -> (bool, f32) {
        let mut rest = self.fused.hits(weights, buffers);
        let spaces = self
            .spaces
            .iter()
            .zip(&self.fused.key_ends)
            .map(|(space, &end)| {
                let own;
                (own, rest) = rest.split_at(rest.partition_point(|h| h.key < end));
                (confidence_of_hits(&space.svm, own), space.xi_precision())
            });
        let nb_votes = self
            .naive_bayes
            .iter()
            .map(|(nb, weight)| (nb.score(&nb_vector(term_freqs)), *weight));
        policy.decide(spaces.chain(nb_votes))
    }

    /// Finish loading a deserialized model: hand every space the
    /// training round's frozen weighter (stored once per snapshot, not
    /// per space) and rebuild the derived lookup structures.
    pub fn restore(&mut self, weighter: &TfIdfWeighter) {
        self.set_weighter(weighter);
        for space in &mut self.spaces {
            space.selector.rebuild_index();
            space.table = SelectedTable::new(&space.selector, &space.svm);
        }
        self.fused = FusedTable::new(&self.spaces);
    }

    /// Hand every space a handle on `weighter`, releasing the one it held.
    pub(crate) fn set_weighter(&mut self, weighter: &TfIdfWeighter) {
        for space in &mut self.spaces {
            space.weighter = weighter.clone();
        }
    }

    /// Confidence only (signed), under the given policy.
    pub fn confidence(&self, features: &DocumentFeatures, policy: MetaPolicy) -> f32 {
        self.decide(features, policy).1
    }
}

/// The raw single-term count vector a Naive Bayes member consumes: the
/// single-term occurrences of a document with these body term
/// frequencies.
pub fn nb_vector(term_freqs: &[(TermId, u32)]) -> SparseVector {
    SparseVector::from_pairs(
        term_freqs
            .iter()
            .map(|&(t, c)| (ns_index(Namespace::Term, t.0), c as f32))
            .collect(),
    )
}

/// Build [`DocumentFeatures`] from a stored row's term frequencies (used
/// when an authority candidate is not in the in-memory candidate pool;
/// pair/anchor components are unavailable from the flat row and stay
/// empty).
pub fn features_from_term_freqs(term_freqs: &[(u32, u32)]) -> DocumentFeatures {
    DocumentFeatures {
        term_freqs: term_freqs.iter().map(|&(t, f)| (TermId(t), f)).collect(),
        pair_freqs: Vec::new(),
        incoming_anchor_terms: Vec::new(),
        neighbor_terms: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_textproc::tfidf::CorpusStats;
    use bingo_textproc::{analyze_html, Vocabulary};

    fn corpus_and_docs() -> (CorpusStats, Vec<DocumentFeatures>, Vec<DocumentFeatures>) {
        let mut vocab = Vocabulary::new();
        let mut corpus = CorpusStats::new();
        let mut make = |text: &str| {
            let doc = analyze_html(text, &mut vocab);
            let f = DocumentFeatures::from_document(&doc);
            corpus.add_document(f.distinct_features());
            f
        };
        let positives: Vec<DocumentFeatures> = (0..6)
            .map(|i| {
                make(&format!(
                    "<p>database transaction recovery logging concurrency \
                     index query optimization storage {i}</p>"
                ))
            })
            .collect();
        let negatives: Vec<DocumentFeatures> = (0..8)
            .map(|i| {
                make(&format!(
                    "<p>football stadium championship soccer team player \
                     coach season goal ticket {i}</p>"
                ))
            })
            .collect();
        (corpus, positives, negatives)
    }

    fn train() -> (TopicModel, Vec<DocumentFeatures>, Vec<DocumentFeatures>) {
        let (corpus, pos, neg) = corpus_and_docs();
        let p: Vec<&DocumentFeatures> = pos.iter().collect();
        let n: Vec<&DocumentFeatures> = neg.iter().collect();
        let model = TopicModel::train(&p, &n, &corpus.weighter(), &ModelConfig::default()).unwrap();
        (model, pos, neg)
    }

    #[test]
    fn score_equals_the_vector_path_and_spaces_share_one_weighter() {
        let (model, pos, neg) = train();
        for space in &model.spaces {
            assert!(space.weighter.shares_stats_with(&model.spaces[0].weighter));
            for f in pos.iter().chain(&neg) {
                let weights = DocWeights::new(f, &space.weighter);
                assert_eq!(
                    space.score(&weights).to_bits(),
                    space.svm.confidence(&space.vector(f)).to_bits(),
                    "{:?}",
                    space.kind
                );
            }
        }
    }

    #[test]
    fn training_vectors_from_shared_weights_are_the_reference_vectors() {
        let (model, mut pos, neg) = train();
        // Link context, repeated and out of order, on some documents.
        let context: Vec<TermId> = pos[0].term_freqs.iter().map(|&(t, _)| t).collect();
        pos[1].add_incoming_anchor(&[context[2], context[0], context[2]]);
        pos[2].add_neighbor_terms(&context[1..4]);
        let bits = |v: &SparseVector| -> Vec<(u32, u32)> {
            v.entries().iter().map(|&(i, w)| (i, w.to_bits())).collect()
        };
        for kind in FeatureSpaceKind::ALL {
            // Every kind over the selectors the fixture trained.
            for space in &model.spaces {
                let space = SpaceModel {
                    kind,
                    ..space.clone()
                };
                for f in pos.iter().chain(&neg) {
                    let weights = DocWeights::new(f, &space.weighter);
                    let got = selected_vector(&space.selector, kind, &weights);
                    assert_eq!(bits(&got), bits(&space.vector(f)), "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn separates_topics_across_all_policies() {
        let (model, pos, neg) = train();
        for policy in [
            MetaPolicy::Unanimous,
            MetaPolicy::Majority,
            MetaPolicy::WeightedAverage,
        ] {
            for f in &pos {
                assert!(model.decide(f, policy).0, "positive rejected");
            }
            for f in &neg {
                assert!(!model.decide(f, policy).0, "negative accepted");
            }
        }
    }

    #[test]
    fn trains_one_model_per_space() {
        let (model, _, _) = train();
        assert_eq!(model.spaces.len(), 3);
        for s in &model.spaces {
            let p = s.xi_precision();
            assert!((0.0..=1.0).contains(&p), "precision {p} out of range");
        }
    }

    #[test]
    fn mean_training_confidence_positive() {
        let (model, _, _) = train();
        assert!(
            model.mean_training_confidence > 0.0,
            "training docs should sit on the positive side: {}",
            model.mean_training_confidence
        );
    }

    #[test]
    fn empty_sides_rejected() {
        let (corpus, pos, _neg) = corpus_and_docs();
        let p: Vec<&DocumentFeatures> = pos.iter().collect();
        assert!(TopicModel::train(&p, &[], &corpus.weighter(), &ModelConfig::default()).is_none());
        assert!(TopicModel::train(&[], &p, &corpus.weighter(), &ModelConfig::default()).is_none());
    }

    #[test]
    fn naive_bayes_member_joins_the_committee() {
        let (corpus, pos, neg) = corpus_and_docs();
        let p: Vec<&DocumentFeatures> = pos.iter().collect();
        let n: Vec<&DocumentFeatures> = neg.iter().collect();
        let config = ModelConfig {
            use_naive_bayes: true,
            ..ModelConfig::default()
        };
        let model = TopicModel::train(&p, &n, &corpus.weighter(), &config).unwrap();
        let (nb, weight) = model.naive_bayes.as_ref().expect("nb trained");
        assert!((0.05..=1.0).contains(weight));
        // NB broadly agrees on clean data (it may reject borderline
        // positives — that conservatism is exactly why the unanimous
        // meta trades recall for precision).
        let nb_accepts = pos
            .iter()
            .filter(|f| nb.score(&super::nb_vector(&f.term_freqs)) >= 0.0)
            .count();
        assert!(
            nb_accepts * 2 >= pos.len(),
            "NB accepts {nb_accepts}/{}",
            pos.len()
        );
        for f in &pos {
            assert!(model.decide(f, MetaPolicy::Majority).0);
        }
        for f in &neg {
            assert!(!model.decide(f, MetaPolicy::Unanimous).0);
            assert!(!model.decide(f, MetaPolicy::Majority).0);
        }
    }

    #[test]
    fn features_from_row_round_trip() {
        let f = features_from_term_freqs(&[(3, 2), (9, 1)]);
        assert_eq!(f.term_freqs.len(), 2);
        assert!(f.pair_freqs.is_empty());
        let occ = f.occurrences(FeatureSpaceKind::SingleTerms);
        assert_eq!(occ.len(), 2);
    }
}
