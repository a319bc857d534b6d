//! Multinomial Naive Bayes classifier — one of the supervised learning
//! methods the paper cites for document classification (Section 1.2,
//! reference 15) and a genuinely different decision model for the meta
//! classifier
//! of Section 3.5 to combine with the SVM.

use crate::TrainingSet;
use bingo_textproc::fxhash::FxHashMap;
use bingo_textproc::SparseVector;
use serde::{Deserialize, Serialize};

/// A trained multinomial Naive Bayes model with Laplace smoothing.
///
/// The decision value is the normalized log-odds
/// `(log P(+|d) - log P(-|d)) / len(d)`; dividing by document length keeps
/// scores of long and short documents comparable so they can serve as a
/// confidence measure.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct NaiveBayes {
    log_prior_pos: f32,
    log_prior_neg: f32,
    /// Per-feature log-likelihood difference `log P(f|+) - log P(f|-)`.
    log_odds: FxHashMap<u32, f32>,
    /// Default log-odds for unseen features.
    default_log_odds: f32,
}

impl NaiveBayes {
    /// Train with the default Laplace smoothing (`alpha = 1`), suitable
    /// for raw term counts.
    pub fn train(data: &TrainingSet) -> Option<NaiveBayes> {
        Self::train_with_alpha(data, 1.0)
    }

    /// Train on a labeled set; weights in the vectors are treated as
    /// (possibly fractional) occurrence counts. `alpha` is the Lidstone
    /// smoothing mass per feature — use a small value (e.g. 0.01) when
    /// the inputs are unit-normalized tf·idf vectors, where per-feature
    /// mass is far below 1 and `alpha = 1` would drown the signal.
    /// Returns `None` without both classes present.
    pub fn train_with_alpha(data: &TrainingSet, alpha: f64) -> Option<NaiveBayes> {
        let n_pos = data.positives();
        let n_neg = data.negatives();
        if n_pos == 0 || n_neg == 0 {
            return None;
        }

        let mut count_pos: FxHashMap<u32, f64> = FxHashMap::default();
        let mut count_neg: FxHashMap<u32, f64> = FxHashMap::default();
        let mut total_pos = 0.0f64;
        let mut total_neg = 0.0f64;
        let mut vocab: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();

        for (x, positive) in &data.examples {
            for &(f, w) in x.entries() {
                let w = w.max(0.0) as f64;
                vocab.insert(f);
                if *positive {
                    *count_pos.entry(f).or_insert(0.0) += w;
                    total_pos += w;
                } else {
                    *count_neg.entry(f).or_insert(0.0) += w;
                    total_neg += w;
                }
            }
        }
        let alpha = alpha.max(1e-9);
        let v = vocab.len().max(1) as f64 * alpha;

        let mut log_odds = FxHashMap::default();
        for &f in &vocab {
            let p_pos = (count_pos.get(&f).copied().unwrap_or(0.0) + alpha) / (total_pos + v);
            let p_neg = (count_neg.get(&f).copied().unwrap_or(0.0) + alpha) / (total_neg + v);
            log_odds.insert(f, (p_pos / p_neg).ln() as f32);
        }
        let default_log_odds = ((alpha / (total_pos + v)) / (alpha / (total_neg + v))).ln() as f32;

        Some(NaiveBayes {
            log_prior_pos: (n_pos as f32 / data.len() as f32).ln(),
            log_prior_neg: (n_neg as f32 / data.len() as f32).ln(),
            log_odds,
            default_log_odds,
        })
    }

    /// Normalized log-odds score of a document.
    pub fn score(&self, x: &SparseVector) -> f32 {
        let mut s = self.log_prior_pos - self.log_prior_neg;
        let mut mass = 0.0f32;
        for &(f, w) in x.entries() {
            let lo = self
                .log_odds
                .get(&f)
                .copied()
                .unwrap_or(self.default_log_odds);
            s += w * lo;
            mass += w.abs();
        }
        if mass > 0.0 {
            s / mass
        } else {
            s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec())
    }

    fn set() -> TrainingSet {
        let mut ts = TrainingSet::new();
        for _ in 0..10 {
            ts.push(v(&[(0, 3.0), (1, 1.0)]), true);
            ts.push(v(&[(2, 3.0), (1, 1.0)]), false);
        }
        ts
    }

    #[test]
    fn classifies_separable() {
        let nb = NaiveBayes::train(&set()).unwrap();
        assert!(nb.score(&v(&[(0, 2.0)])) >= 0.0);
        assert!(nb.score(&v(&[(2, 2.0)])) < 0.0);
    }

    #[test]
    fn shared_feature_is_neutral() {
        let nb = NaiveBayes::train(&set()).unwrap();
        let lo = nb.log_odds[&1];
        assert!(lo.abs() < 0.1, "shared feature log-odds {lo} should be ~0");
    }

    #[test]
    fn rejects_single_class() {
        let mut ts = TrainingSet::new();
        ts.push(v(&[(0, 1.0)]), true);
        assert!(NaiveBayes::train(&ts).is_none());
    }

    #[test]
    fn length_normalization() {
        let nb = NaiveBayes::train(&set()).unwrap();
        let short = nb.score(&v(&[(0, 1.0)]));
        let long = nb.score(&v(&[(0, 100.0)]));
        // Same direction, comparable magnitude (not 100x).
        assert!(short > 0.0 && long > 0.0);
        assert!(long < short * 3.0 + 1.0);
    }

    #[test]
    fn unseen_features_fall_back() {
        let nb = NaiveBayes::train(&set()).unwrap();
        // A document of only unseen features gets the smoothed default.
        assert!(nb.score(&v(&[(99, 1.0)])).is_finite());
    }

    #[test]
    fn prior_shows_in_empty_document() {
        let mut ts = set();
        // Skew priors: many more negatives.
        for _ in 0..30 {
            ts.push(v(&[(2, 1.0)]), false);
        }
        let nb = NaiveBayes::train(&ts).unwrap();
        assert!(nb.score(&SparseVector::new()) < 0.0);
    }
}
