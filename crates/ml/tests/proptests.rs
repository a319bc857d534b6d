//! Property-based tests of the learning components: estimator bounds,
//! selection-ranking laws, clustering well-formedness, SVM stability.

use bingo_ml::feature_selection::{FeatureSelection, FeatureSelectionConfig};
use bingo_ml::kmeans::{KMeans, KMeansConfig};
use bingo_ml::svm::LinearSvm;
use bingo_ml::xi_alpha::XiAlphaEstimate;
use bingo_ml::{NaiveBayes, TrainingSet};
use bingo_textproc::SparseVector;
use proptest::prelude::*;

fn doc_strategy() -> impl Strategy<Value = (Vec<(u32, u32)>, bool)> {
    (
        proptest::collection::vec((0u32..200, 1u32..10), 1..25),
        any::<bool>(),
    )
}

proptest! {
    // ---- ξα estimator bounds ------------------------------------------

    #[test]
    fn xi_alpha_outputs_are_probabilities(
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let alpha: Vec<f32> = (0..n).map(|_| (next() % 100) as f32 / 50.0).collect();
        let slack: Vec<f32> = (0..n).map(|_| (next() % 100) as f32 / 40.0).collect();
        let positive: Vec<bool> = (0..n).map(|_| next() % 2 == 0).collect();
        let est = XiAlphaEstimate::compute(&alpha, &slack, &positive, 1.5);
        prop_assert!((0.0..=1.0).contains(&est.error()));
        prop_assert!((0.0..=1.0).contains(&est.recall()));
        prop_assert!((0.0..=1.0).contains(&est.precision()));
        prop_assert_eq!(est.sample_size() as usize, n);
    }

    // ---- Feature selection laws -----------------------------------------

    #[test]
    fn selection_is_ranked_and_bounded(
        docs in proptest::collection::vec(doc_strategy(), 2..30),
        select in 1usize..50,
    ) {
        let labeled: Vec<(&[(u32, u32)], bool)> =
            docs.iter().map(|(o, l)| (o.as_slice(), *l)).collect();
        let has_pos = docs.iter().any(|(_, l)| *l);
        let sel = FeatureSelection::new(FeatureSelectionConfig {
            pre_select: 100,
            select,
        })
        .select(&labeled);
        prop_assert!(sel.len() <= select);
        // MI scores descend.
        for w in sel.ranked().windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
        // Every selected feature occurs in some positive document.
        if has_pos {
            for &(f, _) in sel.ranked() {
                let in_pos = docs
                    .iter()
                    .filter(|(_, l)| *l)
                    .any(|(o, _)| o.iter().any(|&(g, _)| g == f));
                prop_assert!(in_pos, "feature {f} not from the topic");
            }
        } else {
            prop_assert!(sel.is_empty());
        }
        // compact/raw round trip.
        for i in 0..sel.len() as u32 {
            prop_assert_eq!(sel.compact(sel.raw(i).unwrap()), Some(i));
        }
    }

    // ---- K-means well-formedness ----------------------------------------

    #[test]
    fn kmeans_assignments_are_well_formed(
        docs in proptest::collection::vec(
            proptest::collection::vec((0u32..40, 0.1f32..2.0), 1..10),
            4..30,
        ),
        k in 1usize..4,
    ) {
        let vectors: Vec<SparseVector> = docs
            .into_iter()
            .map(|p| SparseVector::from_pairs(p).normalized())
            .collect();
        prop_assume!(vectors.len() >= k);
        let res = KMeans::new(KMeansConfig {
            k,
            max_iterations: 10,
            seed: 3,
        })
        .run(&vectors)
        .unwrap();
        prop_assert_eq!(res.assignments.len(), vectors.len());
        prop_assert!(res.assignments.iter().all(|&a| a < k));
        prop_assert_eq!(res.centroids.len(), k);
        prop_assert!(res.impurity >= 0.0);
        prop_assert_eq!(res.sizes().iter().sum::<usize>(), vectors.len());
    }

    // ---- SVM robustness ---------------------------------------------------

    #[test]
    fn svm_decisions_are_finite_for_any_probe(
        probe in proptest::collection::vec((0u32..100, -5.0f32..5.0), 0..20),
    ) {
        let mut set = TrainingSet::new();
        for i in 0..8u32 {
            set.push(SparseVector::from_pairs(vec![(i, 1.0)]), true);
            set.push(SparseVector::from_pairs(vec![(50 + i, 1.0)]), false);
        }
        let model = LinearSvm::default().train(&set).unwrap();
        let x = SparseVector::from_pairs(probe);
        prop_assert!(model.confidence(&x).is_finite());
    }

    #[test]
    fn svm_confidence_scales_with_input(
        k in 1.5f32..10.0,
    ) {
        let mut set = TrainingSet::new();
        for i in 0..10u32 {
            set.push(SparseVector::from_pairs(vec![(i % 5, 1.0)]), true);
            set.push(SparseVector::from_pairs(vec![(10 + i % 5, 1.0)]), false);
        }
        let model = LinearSvm::default().train(&set).unwrap();
        let x = SparseVector::from_pairs(vec![(0, 1.0)]);
        let mut xk = x.clone();
        xk.scale(k);
        // Scaling a positive-side input must not flip the decision.
        prop_assert!(model.confidence(&x) >= 0.0);
        prop_assert!(model.confidence(&xk) >= 0.0);
        prop_assert!(model.confidence(&xk) >= model.confidence(&x) - 1e-4);
    }

    // ---- Naive Bayes ---------------------------------------------------

    #[test]
    fn naive_bayes_scores_finite_and_label_consistent(
        alpha in 0.001f64..2.0,
    ) {
        let mut set = TrainingSet::new();
        for _ in 0..6 {
            set.push(SparseVector::from_pairs(vec![(0, 2.0), (1, 1.0)]), true);
            set.push(SparseVector::from_pairs(vec![(5, 2.0), (6, 1.0)]), false);
        }
        let nb = NaiveBayes::train_with_alpha(&set, alpha).unwrap();
        let pos = nb.score(&SparseVector::from_pairs(vec![(0, 1.0)]));
        let neg = nb.score(&SparseVector::from_pairs(vec![(5, 1.0)]));
        prop_assert!(pos.is_finite() && neg.is_finite());
        prop_assert!(pos > neg, "positive-side term must outscore negative");
    }
}
