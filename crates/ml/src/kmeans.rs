//! K-means clustering for result postprocessing (Section 3.6).
//!
//! "BINGO! can perform a cluster analysis on the results of one class and
//! suggest creating new subclasses with tentative labels automatically
//! drawn from the most characteristic terms of these subclasses. The user
//! can experiment with different numbers of clusters, or BINGO! can choose
//! the number of clusters such that an entropy-based cluster impurity
//! measure is minimized [Duda/Hart/Stork]."
//!
//! Documents are unit-normalized `tf*idf` vectors; assignment maximizes
//! cosine similarity (spherical k-means). The impurity of a clustering is
//! the size-weighted average entropy of the clusters' term distributions —
//! tight, topically coherent clusters concentrate probability mass on few
//! terms and thus have low entropy. A per-cluster penalty discourages
//! degenerate solutions with as many clusters as documents.

use bingo_textproc::fxhash::FxHashMap;
use bingo_textproc::SparseVector;

/// Maximum Lloyd iterations of one run.
pub const MAX_ITERATIONS: usize = 50;

/// Configuration for one k-means run.
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Seed for the deterministic initialization.
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig { k: 2, seed: 42 }
    }
}

/// Spherical k-means runner.
///
/// ```
/// use bingo_ml::kmeans::{KMeans, KMeansConfig};
/// use bingo_textproc::SparseVector;
///
/// let docs: Vec<SparseVector> = (0..8)
///     .map(|i| {
///         let f = if i % 2 == 0 { 0 } else { 10 };
///         SparseVector::from_pairs(vec![(f, 1.0)]).normalized()
///     })
///     .collect();
/// let result = KMeans::new(KMeansConfig { k: 2, ..Default::default() })
///     .run(&docs)
///     .unwrap();
/// assert_ne!(result.assignments[0], result.assignments[1]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KMeans {
    config: KMeansConfig,
}

/// The outcome of a clustering run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster index per input document.
    pub assignments: Vec<usize>,
    /// Unit-normalized cluster centroids.
    pub centroids: Vec<SparseVector>,
    /// Entropy-based impurity of this clustering (lower is better).
    pub impurity: f64,
}

impl KMeansResult {
    /// Documents per cluster.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.centroids.len()];
        for &a in &self.assignments {
            sizes[a] += 1;
        }
        sizes
    }

    /// The `top_n` most characteristic feature indices of a cluster — the
    /// tentative subclass label of Section 3.6.
    pub fn label_features(&self, cluster: usize, top_n: usize) -> Vec<u32> {
        let mut entries: Vec<(u32, f32)> = self.centroids[cluster].entries().to_vec();
        entries.sort_unstable_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        entries.into_iter().take(top_n).map(|(f, _)| f).collect()
    }
}

impl KMeans {
    /// Runner with the given configuration.
    pub fn new(config: KMeansConfig) -> Self {
        KMeans { config }
    }

    /// Cluster `docs` (ideally unit-normalized). Returns `None` when there
    /// are fewer documents than clusters or `k == 0`.
    pub fn run(&self, docs: &[SparseVector]) -> Option<KMeansResult> {
        let k = self.config.k;
        if k == 0 || docs.len() < k {
            return None;
        }

        // Deterministic farthest-point-flavoured init: first centroid by
        // seed, then repeatedly take the document least similar to the
        // centroids chosen so far (k-means++ without randomness).
        let mut centroids: Vec<SparseVector> = Vec::with_capacity(k);
        let first = (self.config.seed as usize) % docs.len();
        centroids.push(docs[first].normalized());
        while centroids.len() < k {
            let next = docs
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let best: f32 = centroids
                        .iter()
                        .map(|c| c.cosine(d))
                        .fold(f32::NEG_INFINITY, f32::max);
                    (i, best)
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(i, _)| i)?;
            centroids.push(docs[next].normalized());
        }

        let mut assignments = vec![0usize; docs.len()];
        for _ in 0..MAX_ITERATIONS {
            let mut changed = false;
            for (i, d) in docs.iter().enumerate() {
                let best = centroids
                    .iter()
                    .enumerate()
                    .map(|(c, cen)| (c, cen.cosine(d)))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(c, _)| c)
                    .unwrap_or(0);
                if assignments[i] != best {
                    assignments[i] = best;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            // Recompute centroids as normalized mean directions.
            let mut sums: Vec<FxHashMap<u32, f32>> = vec![FxHashMap::default(); k];
            for (i, d) in docs.iter().enumerate() {
                let m = &mut sums[assignments[i]];
                for &(f, w) in d.entries() {
                    *m.entry(f).or_insert(0.0) += w;
                }
            }
            for (c, m) in sums.into_iter().enumerate() {
                if m.is_empty() {
                    continue; // keep the old centroid for an empty cluster
                }
                centroids[c] = SparseVector::from_pairs(m.into_iter().collect()).normalized();
            }
        }

        let impurity = impurity(docs, &assignments, k);
        Some(KMeansResult {
            assignments,
            centroids,
            impurity,
        })
    }
}

/// Size-weighted average entropy of the clusters' term distributions.
fn impurity(docs: &[SparseVector], assignments: &[usize], k: usize) -> f64 {
    let mut total = 0.0f64;
    let n = docs.len() as f64;
    for c in 0..k {
        let members: Vec<&SparseVector> = docs
            .iter()
            .zip(assignments)
            .filter(|(_, &a)| a == c)
            .map(|(d, _)| d)
            .collect();
        if members.is_empty() {
            continue;
        }
        let mut mass: FxHashMap<u32, f64> = FxHashMap::default();
        let mut sum = 0.0f64;
        for d in &members {
            for &(f, w) in d.entries() {
                let w = w.abs() as f64;
                *mass.entry(f).or_insert(0.0) += w;
                sum += w;
            }
        }
        if sum == 0.0 {
            continue;
        }
        let h: f64 = mass
            .values()
            .map(|&m| {
                let p = m / sum;
                -p * p.ln()
            })
            .sum();
        total += (members.len() as f64 / n) * h;
    }
    total
}

/// Choose the number of clusters in `k_range` minimizing
/// `impurity + penalty_per_cluster * k` (Section 3.6's automatic choice).
/// Returns the best clustering, or `None` when no k in range is feasible.
pub fn choose_k_by_impurity(
    docs: &[SparseVector],
    k_range: std::ops::RangeInclusive<usize>,
    penalty_per_cluster: f64,
    seed: u64,
) -> Option<(usize, KMeansResult)> {
    let mut best: Option<(usize, KMeansResult)> = None;
    for k in k_range {
        let Some(res) = KMeans::new(KMeansConfig { k, seed }).run(docs) else {
            continue;
        };
        let cost = res.impurity + penalty_per_cluster * k as f64;
        let better = match &best {
            None => true,
            Some((bk, bres)) => cost < bres.impurity + penalty_per_cluster * *bk as f64,
        };
        if better {
            best = Some((k, res));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec()).normalized()
    }

    /// Two clean topical groups: features 0-2 vs features 10-12.
    fn two_topics() -> Vec<SparseVector> {
        let mut docs = Vec::new();
        for i in 0..8 {
            let jitter = 0.1 * (i % 4) as f32;
            docs.push(v(&[(0, 1.0), (1, 0.8 + jitter), (2, 0.5)]));
            docs.push(v(&[(10, 1.0), (11, 0.8 + jitter), (12, 0.5)]));
        }
        docs
    }

    #[test]
    fn separates_two_topics() {
        let docs = two_topics();
        let res = KMeans::new(KMeansConfig {
            k: 2,
            ..Default::default()
        })
        .run(&docs)
        .unwrap();
        // Even-indexed docs are topic A, odd are topic B; assignments must
        // be consistent within each topic and differ across topics.
        let a = res.assignments[0];
        let b = res.assignments[1];
        assert_ne!(a, b);
        for (i, &c) in res.assignments.iter().enumerate() {
            assert_eq!(c, if i % 2 == 0 { a } else { b });
        }
    }

    #[test]
    fn labels_are_topical() {
        let docs = two_topics();
        let res = KMeans::new(KMeansConfig {
            k: 2,
            ..Default::default()
        })
        .run(&docs)
        .unwrap();
        let a = res.assignments[0];
        let label = res.label_features(a, 2);
        assert!(label.contains(&0) || label.contains(&1));
        assert!(!label.contains(&10));
    }

    #[test]
    fn infeasible_configurations_rejected() {
        let docs = two_topics();
        assert!(KMeans::new(KMeansConfig {
            k: 0,
            ..Default::default()
        })
        .run(&docs)
        .is_none());
        assert!(KMeans::new(KMeansConfig {
            k: docs.len() + 1,
            ..Default::default()
        })
        .run(&docs)
        .is_none());
    }

    #[test]
    fn impurity_decreases_with_correct_k() {
        let docs = two_topics();
        let k1 = KMeans::new(KMeansConfig {
            k: 1,
            ..Default::default()
        })
        .run(&docs)
        .unwrap();
        let k2 = KMeans::new(KMeansConfig {
            k: 2,
            ..Default::default()
        })
        .run(&docs)
        .unwrap();
        assert!(
            k2.impurity < k1.impurity,
            "splitting mixed topics must reduce impurity ({} vs {})",
            k2.impurity,
            k1.impurity
        );
    }

    #[test]
    fn choose_k_finds_two() {
        let docs = two_topics();
        let (k, _res) = choose_k_by_impurity(&docs, 1..=4, 0.05, 42).unwrap();
        assert_eq!(k, 2);
    }

    #[test]
    fn sizes_sum_to_doc_count() {
        let docs = two_topics();
        let res = KMeans::new(KMeansConfig {
            k: 3,
            ..Default::default()
        })
        .run(&docs)
        .unwrap();
        assert_eq!(res.sizes().iter().sum::<usize>(), docs.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let docs = two_topics();
        let cfg = KMeansConfig { k: 2, seed: 7 };
        let a = KMeans::new(cfg).run(&docs).unwrap();
        let b = KMeans::new(cfg).run(&docs).unwrap();
        assert_eq!(a.assignments, b.assignments);
    }
}
