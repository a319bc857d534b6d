//! Topic-specific feature selection by Mutual Information (Section 2.3).
//!
//! "A good feature discriminates competing topics from each other", so
//! selection is invoked for every topic individually against its siblings.
//! The MI weight of term Xᵢ in topic Vⱼ is
//!
//! ```text
//! MI(Xᵢ, Vⱼ) = P[Xᵢ ∧ Vⱼ] · log( P[Xᵢ ∧ Vⱼ] / (P[Xᵢ]·P[Vⱼ]) )
//! ```
//!
//! a special case of the Kullback-Leibler divergence between the joint
//! distribution and the independence hypothesis. For efficiency BINGO!
//! "pre-selects candidates based on tf values and evaluates MI weights
//! only for the 5000 most frequently occurring terms within each topic";
//! the top 2000 by MI become the classifier's input features.

use bingo_textproc::fxhash::FxHashMap;
use bingo_textproc::SparseVector;
use serde::{Deserialize, Serialize};

/// Candidates pre-selected by within-topic frequency (Section 2.3).
pub const PRE_SELECT: usize = 5000;
/// Features kept by MI rank (Section 2.3).
pub const SELECT: usize = 2000;

/// The selection's configuration. It holds nothing: both sizes are the
/// paper's, [`PRE_SELECT`] and [`SELECT`]. The type stays so that code
/// passing `ModelConfig::selection` through keeps compiling.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct FeatureSelectionConfig {}

/// One document for selection purposes: its distinct features with raw
/// frequencies, and whether it belongs to the topic under consideration
/// (competing-sibling documents are the negatives).
pub type LabeledOccurrences<'a> = (&'a [(u32, u32)], bool);

/// Runs MI feature selection.
#[derive(Debug, Clone, Copy, Default)]
pub struct FeatureSelection;

impl FeatureSelection {
    /// Selector with the paper's parameters.
    pub fn new(_config: FeatureSelectionConfig) -> Self {
        FeatureSelection
    }

    /// Select the most discriminative features for a topic.
    ///
    /// `docs` holds every document of the topic *and* of its competing
    /// siblings, labeled with topic membership.
    pub fn select(&self, docs: &[LabeledOccurrences<'_>]) -> FeatureSelector {
        let n_docs = docs.len();
        if n_docs == 0 {
            return FeatureSelector::empty();
        }
        let n_topic = docs.iter().filter(|(_, in_topic)| *in_topic).count();

        // Pass 1: within-topic term frequency for pre-selection, and
        // document frequencies for the MI probabilities.
        let mut topic_tf: FxHashMap<u32, u64> = FxHashMap::default();
        let mut df_total: FxHashMap<u32, u32> = FxHashMap::default();
        let mut df_topic: FxHashMap<u32, u32> = FxHashMap::default();
        for &(occurrences, in_topic) in docs {
            for &(feature, freq) in occurrences {
                *df_total.entry(feature).or_insert(0) += 1;
                if in_topic {
                    *topic_tf.entry(feature).or_insert(0) += freq as u64;
                    *df_topic.entry(feature).or_insert(0) += 1;
                }
            }
        }

        // Pre-select by tf within the topic.
        let mut candidates: Vec<(u32, u64)> = topic_tf.into_iter().collect();
        candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        candidates.truncate(PRE_SELECT);

        // MI over the candidates.
        let p_topic = n_topic as f64 / n_docs as f64;
        let mut ranked: Vec<(u32, f32)> = candidates
            .into_iter()
            .map(|(feature, _)| {
                let p_joint = df_topic.get(&feature).copied().unwrap_or(0) as f64 / n_docs as f64;
                let p_feature = df_total.get(&feature).copied().unwrap_or(0) as f64 / n_docs as f64;
                let mi = if p_joint > 0.0 && p_feature > 0.0 && p_topic > 0.0 {
                    p_joint * (p_joint / (p_feature * p_topic)).ln()
                } else {
                    0.0
                };
                (feature, mi as f32)
            })
            .collect();
        ranked.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        ranked.truncate(SELECT);

        FeatureSelector::from_ranked(ranked)
    }
}

/// The outcome of feature selection: the MI-ranked feature list plus a
/// projection from the raw feature space into a compact dense space
/// (`0..k`) the classifiers train in.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FeatureSelector {
    /// Selected `(raw feature, MI weight)` in descending MI order.
    ranked: Vec<(u32, f32)>,
    /// raw feature -> compact index.
    #[serde(skip)]
    map: FxHashMap<u32, u32>,
}

impl FeatureSelector {
    /// A selector that keeps nothing.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from a ranked list (most discriminative first).
    pub fn from_ranked(ranked: Vec<(u32, f32)>) -> Self {
        let map = ranked
            .iter()
            .enumerate()
            .map(|(i, &(f, _))| (f, i as u32))
            .collect();
        FeatureSelector { ranked, map }
    }

    /// Number of selected features.
    pub fn len(&self) -> usize {
        self.ranked.len()
    }

    /// True when nothing was selected.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty()
    }

    /// The ranked `(raw feature, MI weight)` list.
    pub fn ranked(&self) -> &[(u32, f32)] {
        &self.ranked
    }

    /// Compact index of a raw feature, when selected.
    pub fn compact(&self, raw: u32) -> Option<u32> {
        self.map.get(&raw).copied()
    }

    /// Raw feature id at a compact index.
    pub fn raw(&self, compact: u32) -> Option<u32> {
        self.ranked.get(compact as usize).map(|&(f, _)| f)
    }

    /// Project a raw-space vector into the compact selected space,
    /// dropping unselected features.
    pub fn project(&self, v: &SparseVector) -> SparseVector {
        v.remap(|i| self.compact(i))
    }

    /// Rebuild the raw→compact map after deserialization.
    pub fn rebuild_index(&mut self) {
        self.map = self
            .ranked
            .iter()
            .enumerate()
            .map(|(i, &(f, _))| (f, i as u32))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Documents: topic docs use features 1,2 heavily plus the common
    /// feature 0; sibling docs use features 3,4 plus the common feature 0.
    fn corpus() -> Vec<(Vec<(u32, u32)>, bool)> {
        let mut docs = Vec::new();
        for _ in 0..10 {
            docs.push((vec![(0, 5), (1, 3), (2, 2)], true));
            docs.push((vec![(0, 5), (3, 3), (4, 2)], false));
        }
        docs
    }

    fn select(docs: &[(Vec<(u32, u32)>, bool)]) -> FeatureSelector {
        let labeled: Vec<LabeledOccurrences<'_>> =
            docs.iter().map(|(o, l)| (o.as_slice(), *l)).collect();
        FeatureSelection.select(&labeled)
    }

    fn run() -> FeatureSelector {
        select(&corpus())
    }

    #[test]
    fn discriminative_features_rank_above_common() {
        let sel = run();
        let rank_of = |f: u32| {
            sel.ranked()
                .iter()
                .position(|&(rf, _)| rf == f)
                .expect("feature selected")
        };
        assert!(rank_of(1) < rank_of(0), "topic feature must beat common");
        assert!(rank_of(2) < rank_of(0));
        // Sibling-only features never appear (zero tf within the topic).
        assert!(sel.compact(3).is_none());
        assert!(sel.compact(4).is_none());
    }

    #[test]
    fn select_limit_respected() {
        // More in-topic candidates than SELECT, fewer than PRE_SELECT.
        let topic: Vec<(u32, u32)> = (0..SELECT as u32 + 1000).map(|f| (f, 1)).collect();
        let docs = vec![(topic, true), (vec![(0, 1)], false)];
        assert_eq!(select(&docs).len(), SELECT);
    }

    #[test]
    fn pre_select_by_tf_limits_candidates() {
        // PRE_SELECT features of tf 2 shared with the sibling, then 1,000
        // topic-only features of tf 1: the latter have the higher MI,
        // but pre-selection by tf never lets them reach the MI ranking.
        let frequent = PRE_SELECT as u32;
        let mut topic: Vec<(u32, u32)> = (0..frequent).map(|f| (f, 2)).collect();
        topic.extend((frequent..frequent + 1000).map(|f| (f, 1)));
        let sibling: Vec<(u32, u32)> = (0..frequent).map(|f| (f, 1)).collect();
        let docs = vec![(topic, true), (sibling, false)];
        let sel = select(&docs);
        assert_eq!(sel.len(), SELECT);
        assert!(sel.ranked().iter().all(|&(f, _)| f < frequent));
    }

    #[test]
    fn projection_remaps_and_drops() {
        let sel = run();
        let v = SparseVector::from_pairs(vec![(1, 1.0), (3, 9.0)]);
        let p = sel.project(&v);
        assert_eq!(p.nnz(), 1, "sibling-only feature dropped");
        let compact1 = sel.compact(1).unwrap();
        assert_eq!(p.get(compact1), 1.0);
    }

    #[test]
    fn empty_corpus_selects_nothing() {
        let sel = FeatureSelection.select(&[]);
        assert!(sel.is_empty());
        assert!(sel
            .project(&SparseVector::from_pairs(vec![(0, 1.0)]))
            .is_empty());
    }

    #[test]
    fn compact_raw_round_trip() {
        let sel = run();
        for i in 0..sel.len() as u32 {
            let raw = sel.raw(i).unwrap();
            assert_eq!(sel.compact(raw), Some(i));
        }
        assert_eq!(sel.raw(999), None);
    }

    #[test]
    fn rebuild_index_restores_lookup() {
        let sel = run();
        let json = serde_json::to_string(&sel).unwrap();
        let mut back: FeatureSelector = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert_eq!(back.compact(1), sel.compact(1));
    }
}
