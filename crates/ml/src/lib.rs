//! Machine-learning substrate for the BINGO! focused crawler.
//!
//! Implements the mathematical core of the paper:
//!
//! * a linear Support Vector Machine trained by dual coordinate descent,
//!   with hyperplane-distance confidence (Section 2.4) — written from
//!   scratch ([`svm`]),
//! * the ξα estimator of classifier generalization performance
//!   (Joachims 2000; Sections 2.4 and 3.5) ([`xi_alpha`]),
//! * Mutual-Information feature selection with tf-based pre-selection
//!   (Section 2.3) ([`feature_selection`]),
//! * a multinomial Naive Bayes classifier as the alternative learning
//!   method the meta classifier combines (Sections 1.2 and 3.5)
//!   ([`naive_bayes`]),
//! * the meta decision function with its unanimous, majority, and
//!   ξα-weighted instances, over any committee of `(confidence, ξα
//!   precision)` votes (Section 3.5) ([`meta`]),
//! * K-means clustering with an entropy-based impurity measure for
//!   choosing the number of clusters (Section 3.6) ([`kmeans`]).
//!
//! The classifiers share no trait: each reports a signed confidence
//! (`>= 0` means "belongs to the topic") through its own method,
//! [`TrainedSvm::confidence`] and [`NaiveBayes::score`], and the core
//! crate's topic model hands those confidences to [`MetaPolicy::decide`].
#![forbid(unsafe_code)]

pub mod feature_selection;
pub mod kmeans;
pub mod meta;
pub mod naive_bayes;
pub mod svm;
pub mod xi_alpha;

pub use feature_selection::{FeatureSelection, FeatureSelector};
pub use kmeans::{KMeans, KMeansResult};
pub use meta::MetaPolicy;
pub use naive_bayes::NaiveBayes;
pub use svm::{LinearSvm, SvmConfig, TrainedSvm};
pub use xi_alpha::XiAlphaEstimate;

use bingo_textproc::SparseVector;

/// A labeled training set in a compact (feature-selected) vector space.
#[derive(Debug, Clone, Default)]
pub struct TrainingSet {
    /// `(vector, is_positive)` examples.
    pub examples: Vec<(SparseVector, bool)>,
}

impl TrainingSet {
    /// Empty training set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one example.
    pub fn push(&mut self, x: SparseVector, positive: bool) {
        self.examples.push((x, positive));
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Count of positive examples.
    pub fn positives(&self) -> usize {
        self.examples.iter().filter(|(_, p)| *p).count()
    }

    /// Count of negative examples.
    pub fn negatives(&self) -> usize {
        self.len() - self.positives()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn training_set_counts() {
        let mut ts = TrainingSet::new();
        ts.push(SparseVector::from_pairs(vec![(0, 1.0)]), true);
        ts.push(SparseVector::from_pairs(vec![(1, 1.0)]), false);
        ts.push(SparseVector::from_pairs(vec![(2, 1.0)]), false);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.positives(), 1);
        assert_eq!(ts.negatives(), 2);
        assert!(!ts.is_empty());
    }
}
