//! Linear Support Vector Machine (Section 2.4), implemented from scratch.
//!
//! "We use the linear form of SVM where training amounts to finding a
//! hyperplane w·x + b = 0 that separates positive from negative training
//! examples with maximum margin."
//!
//! Training solves the L1-loss (hinge) soft-margin dual by coordinate
//! descent (the LIBLINEAR algorithm of Hsieh et al., ICML 2008):
//!
//! ```text
//! min_α  1/2 αᵀQα - eᵀα   s.t. 0 ≤ αᵢ ≤ C,   Q_ij = yᵢyⱼ xᵢ·xⱼ
//! ```
//!
//! The primal weight vector `w = Σ αᵢ yᵢ xᵢ` is maintained incrementally,
//! so each coordinate update is O(nnz(xᵢ)). The bias is handled by
//! augmenting every example with a constant feature (index
//! [`BIAS_FEATURE`]).
//!
//! In the decision phase the classifier "merely needs to test whether the
//! document lies on the left or the right side of the hyperplane", an
//! m-dimensional scalar product; the signed distance from the hyperplane
//! is the classifier's confidence.

use crate::xi_alpha::XiAlphaEstimate;
use crate::TrainingSet;
use bingo_textproc::SparseVector;
use serde::{Deserialize, Serialize};

/// Feature index reserved for the bias term. Training vectors must not use
/// it; the trainer adds it internally. `u32::MAX` is far outside the
/// namespaced feature space of `bingo-textproc`.
pub const BIAS_FEATURE: u32 = u32::MAX;

/// Soft-margin cost C; larger values fit the training data harder.
pub const COST: f32 = 1.0;
/// Maximum passes over the training set.
pub const MAX_ITERATIONS: usize = 200;
/// Stop when the maximal projected-gradient violation falls below this.
pub const TOLERANCE: f32 = 1e-3;
/// Value of the constant bias feature appended to every example.
pub const BIAS_VALUE: f32 = 1.0;
/// Shuffle seed for the coordinate order.
pub const SEED: u64 = 0x5eed;

/// Training hyperparameters: the one that varies per topic. The rest
/// are the constants above.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SvmConfig {
    /// Multiplier on [`COST`] for *positive* examples. Topic training
    /// sets are heavily imbalanced (a handful of seed documents against
    /// hundreds of negatives); weighting positive slack harder keeps the
    /// hyperplane from collapsing onto "always reject".
    pub positive_cost_factor: f32,
}

impl Default for SvmConfig {
    fn default() -> Self {
        SvmConfig {
            positive_cost_factor: 1.0,
        }
    }
}

/// The trainer.
///
/// ```
/// use bingo_ml::{LinearSvm, TrainingSet};
/// use bingo_textproc::SparseVector;
///
/// let mut set = TrainingSet::new();
/// for i in 0..8u32 {
///     set.push(SparseVector::from_pairs(vec![(i % 4, 1.0)]), true);
///     set.push(SparseVector::from_pairs(vec![(10 + i % 4, 1.0)]), false);
/// }
/// let model = LinearSvm::default().train(&set).unwrap();
/// assert!(model.confidence(&SparseVector::from_pairs(vec![(1, 1.0)])) >= 0.0);
/// assert!(model.confidence(&SparseVector::from_pairs(vec![(11, 1.0)])) < 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LinearSvm {
    config: SvmConfig,
}

impl LinearSvm {
    /// Trainer with the given configuration.
    pub fn new(config: SvmConfig) -> Self {
        LinearSvm { config }
    }

    /// Train on a labeled set. Returns `None` when the set lacks either
    /// positive or negative examples (no separating hyperplane is defined).
    pub fn train(&self, data: &TrainingSet) -> Option<TrainedSvm> {
        let n = data.len();
        if n == 0 || data.positives() == 0 || data.negatives() == 0 {
            return None;
        }
        let cfg = &self.config;

        // Augment with the bias feature and precompute diagonal Q_ii.
        let xs: Vec<SparseVector> = data.examples.iter().map(|(x, _)| augment(x)).collect();
        let ys: Vec<f32> = data
            .examples
            .iter()
            .map(|&(_, p)| if p { 1.0 } else { -1.0 })
            .collect();
        let q_diag: Vec<f32> = xs.iter().map(|x| x.dot(x).max(1e-12)).collect();
        // Per-example box constraint: positives may get a larger budget.
        let costs: Vec<f32> = data
            .examples
            .iter()
            .map(|&(_, p)| {
                if p {
                    COST * cfg.positive_cost_factor.max(f32::EPSILON)
                } else {
                    COST
                }
            })
            .collect();

        // Dense weight vector over the compact feature universe. Training
        // runs after feature selection, so dimensionality is small (a few
        // thousand); the bias occupies the last slot.
        let dim = xs
            .iter()
            .flat_map(|x| x.entries().iter().map(|&(i, _)| i))
            .filter(|&i| i != BIAS_FEATURE)
            .max()
            .map(|m| m as usize + 2)
            .unwrap_or(2);
        let bias_slot = dim - 1;
        let slot = |i: u32| -> usize {
            if i == BIAS_FEATURE {
                bias_slot
            } else {
                i as usize
            }
        };

        let mut w = vec![0.0f32; dim];
        let mut alpha = vec![0.0f32; n];
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng_state = SEED;

        for _iter in 0..MAX_ITERATIONS {
            // Fisher-Yates with a small xorshift; deterministic given seed.
            for i in (1..n).rev() {
                rng_state ^= rng_state << 13;
                rng_state ^= rng_state >> 7;
                rng_state ^= rng_state << 17;
                let j = (rng_state % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            let mut max_violation = 0.0f32;
            for &i in &order {
                let xi = &xs[i];
                let yi = ys[i];
                let wx: f32 = xi.entries().iter().map(|&(f, v)| w[slot(f)] * v).sum();
                let gradient = yi * wx - 1.0;
                // Projected gradient for the box constraint.
                let pg = if alpha[i] == 0.0 {
                    gradient.min(0.0)
                } else if alpha[i] >= costs[i] {
                    gradient.max(0.0)
                } else {
                    gradient
                };
                max_violation = max_violation.max(pg.abs());
                if pg.abs() < 1e-12 {
                    continue;
                }
                let old = alpha[i];
                let new = (old - gradient / q_diag[i]).clamp(0.0, costs[i]);
                if (new - old).abs() < 1e-12 {
                    continue;
                }
                alpha[i] = new;
                let delta = (new - old) * yi;
                for &(f, v) in xi.entries() {
                    w[slot(f)] += delta * v;
                }
            }
            if max_violation < TOLERANCE {
                break;
            }
        }

        let bias = w[bias_slot] * BIAS_VALUE;
        w.truncate(bias_slot);
        let weights = SparseVector::from_pairs(
            w.iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(i, &v)| (i as u32, v))
                .collect(),
        );
        let weight_norm = (weights.norm().powi(2) + (bias / BIAS_VALUE).powi(2))
            .sqrt()
            .max(1e-12);

        // ξα generalization estimate ingredients: slacks and R².
        let r_sq = q_diag.iter().cloned().fold(0.0f32, f32::max);
        let mut slacks = Vec::with_capacity(n);
        for i in 0..n {
            let f = xs[i]
                .entries()
                .iter()
                .map(|&(fi, v)| {
                    if fi == BIAS_FEATURE {
                        bias / BIAS_VALUE * v
                    } else {
                        weights.get(fi) * v
                    }
                })
                .sum::<f32>();
            slacks.push((1.0 - ys[i] * f).max(0.0));
        }
        let labels: Vec<bool> = data.examples.iter().map(|&(_, p)| p).collect();
        let estimate = XiAlphaEstimate::compute(&alpha, &slacks, &labels, r_sq);

        Some(TrainedSvm {
            weights,
            bias,
            weight_norm,
            estimate,
        })
    }
}

fn augment(x: &SparseVector) -> SparseVector {
    let mut pairs: Vec<(u32, f32)> = x.entries().to_vec();
    pairs.push((BIAS_FEATURE, BIAS_VALUE));
    SparseVector::from_pairs(pairs)
}

/// A trained linear SVM decision model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainedSvm {
    /// Primal weight vector (without the bias component).
    pub weights: SparseVector,
    /// Bias term b of `w·x + b`.
    pub bias: f32,
    /// ‖(w, b)‖, used to turn raw scores into hyperplane distances.
    pub weight_norm: f32,
    /// ξα generalization-performance estimate computed at training time.
    pub estimate: XiAlphaEstimate,
}

impl TrainedSvm {
    /// Raw decision value `w·x + b`.
    pub fn raw_score(&self, x: &SparseVector) -> f32 {
        self.weights.dot(x) + self.bias
    }

    /// Signed distance of `x` from the separating hyperplane — the
    /// classifier confidence of the paper.
    pub fn confidence(&self, x: &SparseVector) -> f32 {
        self.raw_score(x) / self.weight_norm
    }

    /// [`confidence`](Self::confidence) over a whole batch: one model
    /// lookup per batch instead of per document. Results are identical
    /// to calling `confidence` on each vector in turn.
    pub fn confidence_batch(&self, xs: &[SparseVector]) -> Vec<f32> {
        xs.iter()
            .map(|x| self.raw_score(x) / self.weight_norm)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec())
    }

    fn separable_set() -> TrainingSet {
        // Positives live on feature 0, negatives on feature 1.
        let mut ts = TrainingSet::new();
        for i in 0..20 {
            let bump = (i % 3) as f32 * 0.1;
            ts.push(v(&[(0, 1.0 + bump), (2, 0.2)]), true);
            ts.push(v(&[(1, 1.0 + bump), (2, 0.2)]), false);
        }
        ts
    }

    #[test]
    fn learns_separable_data() {
        let svm = LinearSvm::default();
        let model = svm.train(&separable_set()).unwrap();
        assert!(model.confidence(&v(&[(0, 1.0)])) >= 0.0);
        assert!(model.confidence(&v(&[(1, 1.0)])) < 0.0);
        // All training points classified correctly.
        for (x, p) in &separable_set().examples {
            assert_eq!(model.confidence(x) >= 0.0, *p);
        }
    }

    #[test]
    fn confidence_grows_with_distance() {
        let svm = LinearSvm::default();
        let model = svm.train(&separable_set()).unwrap();
        let near = model.confidence(&v(&[(0, 0.5)]));
        let far = model.confidence(&v(&[(0, 5.0)]));
        assert!(far > near, "far={far} near={near}");
    }

    #[test]
    fn rejects_single_class_data() {
        let mut ts = TrainingSet::new();
        ts.push(v(&[(0, 1.0)]), true);
        ts.push(v(&[(1, 1.0)]), true);
        assert!(LinearSvm::default().train(&ts).is_none());
        assert!(LinearSvm::default().train(&TrainingSet::new()).is_none());
    }

    #[test]
    fn handles_overlap_with_soft_margin() {
        let mut ts = separable_set();
        // Inject label noise; training must still converge and do better
        // than chance.
        ts.push(v(&[(0, 1.0)]), false);
        ts.push(v(&[(1, 1.0)]), true);
        let model = LinearSvm::default().train(&ts).unwrap();
        let correct = ts
            .examples
            .iter()
            .filter(|(x, p)| (model.confidence(x) >= 0.0) == *p)
            .count();
        assert!(correct as f32 / ts.len() as f32 > 0.9);
    }

    #[test]
    fn bias_allows_asymmetric_threshold() {
        // One-dimensional data separated at x = 2: needs a bias.
        let mut ts = TrainingSet::new();
        for i in 0..10 {
            ts.push(v(&[(0, 3.0 + i as f32 * 0.1)]), true);
            ts.push(v(&[(0, 1.0 + i as f32 * 0.05)]), false);
        }
        let model = LinearSvm::default().train(&ts).unwrap();
        assert!(model.confidence(&v(&[(0, 4.0)])) >= 0.0);
        assert!(model.confidence(&v(&[(0, 0.5)])) < 0.0);
        assert!(model.bias != 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = LinearSvm::default().train(&separable_set()).unwrap();
        let b = LinearSvm::default().train(&separable_set()).unwrap();
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.bias, b.bias);
    }

    #[test]
    fn xi_alpha_estimate_reasonable_on_separable() {
        let model = LinearSvm::default().train(&separable_set()).unwrap();
        // Pessimistic but far above chance on cleanly separable data.
        assert!(model.estimate.error() <= 0.5);
        assert!(model.estimate.precision() >= 0.5);
    }

    #[test]
    fn empty_vector_scores_bias_only() {
        let model = LinearSvm::default().train(&separable_set()).unwrap();
        let empty = SparseVector::new();
        assert!((model.raw_score(&empty) - model.bias).abs() < 1e-6);
    }
}
