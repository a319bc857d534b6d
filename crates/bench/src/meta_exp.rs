//! Meta-classification precision experiment (Section 3.5's claim that
//! unanimous/weighted meta decisions lift precision from ~80% to >90%)
//! and the feature-selection example of Section 2.3.

use crate::{held_out, populate_others};
use bingo_core::model::nb_vector;
use bingo_core::{BingoEngine, EngineConfig, ModelConfig, TopicTree};
use bingo_ml::feature_selection::{FeatureSelection, FeatureSelectionConfig};
use bingo_ml::MetaPolicy;
use bingo_textproc::features::{namespace_of, Namespace};
use bingo_textproc::{DocumentFeatures, FeatureSpaceKind, TermId};
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::World;

/// Precision/recall of one decision method on the held-out set.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method label.
    pub method: String,
    /// Precision among accepted documents.
    pub precision: f64,
    /// Recall over true positives.
    pub recall: f64,
    /// Documents accepted.
    pub accepted: usize,
}

/// Experiment outcome: one row per decision method.
#[derive(Debug, Clone)]
pub struct MetaOutcome {
    /// Per-method results (single spaces first, then meta functions).
    pub rows: Vec<MethodResult>,
    /// Held-out positives / negatives evaluated.
    pub test_pos: usize,
    /// Held-out negatives evaluated.
    pub test_neg: usize,
}

/// Run the meta-classification experiment: train a db-research topic
/// model on a modest seed set, then measure per-space and per-policy
/// precision on held-out pages including *related-topic* hard negatives
/// (data mining, web IR) that share vocabulary with the positives.
///
/// The committee is the engine's own: the topic model trains its three
/// feature-space SVMs plus, through [`ModelConfig::use_naive_bayes`], a
/// multinomial Naive Bayes over raw single-term counts (the paper's meta
/// classifier combines alternative learning methods, not only
/// alternative feature spaces). Every row reads the trained
/// [`TopicModel`](bingo_core::TopicModel): the single rows its members,
/// the meta rows [`TopicModel::decide`](bingo_core::TopicModel::decide).
pub fn run_meta(seed: u64) -> MetaOutcome {
    let world = WorldConfig::portal(seed, 200, 1).build();

    let mut engine = BingoEngine::new(EngineConfig {
        model: ModelConfig {
            use_naive_bayes: true,
            ..ModelConfig::default()
        },
        ..EngineConfig::default()
    });
    let topic = engine.add_topic(TopicTree::ROOT, "database research");

    // Training positives: 16 db-research pages.
    for id in held_out(&world, 0, 0, 16) {
        engine
            .add_training_url(&world, topic, &world.url_of(id))
            .expect("training page");
    }
    // Negatives: a mix of hard (related topics) and easy (noise) pages.
    for id in held_out(&world, 1, 0, 10) {
        engine.add_others_url(&world, &world.url_of(id)).ok();
    }
    for id in held_out(&world, 2, 0, 10) {
        engine.add_others_url(&world, &world.url_of(id)).ok();
    }
    populate_others(&mut engine, &world, &[3, 4], 20);
    engine.train().expect("training");

    // Held-out evaluation set.
    let pos_ids = held_out(&world, 0, 16, 120);
    let mut neg_ids = held_out(&world, 1, 10, 60);
    neg_ids.extend(held_out(&world, 2, 10, 60));
    neg_ids.extend(held_out(&world, 3, 0, 30));

    let pos = analyze(&mut engine, &world, &pos_ids);
    let neg = analyze(&mut engine, &world, &neg_ids);
    let model = engine.model(topic).expect("model");
    let (nb, _) = model.naive_bayes.as_ref().expect("naive bayes member");

    let mut rows = Vec::new();
    let mut measure = |method: &str, decide: &dyn Fn(&DocumentFeatures) -> bool| {
        let tp = pos.iter().filter(|f| decide(f)).count();
        let fp = neg.iter().filter(|f| decide(f)).count();
        let accepted = tp + fp;
        rows.push(MethodResult {
            method: method.to_string(),
            precision: if accepted > 0 {
                tp as f64 / accepted as f64
            } else {
                0.0
            },
            recall: tp as f64 / pos.len().max(1) as f64,
            accepted,
        });
    };

    for space in &model.spaces {
        measure(&format!("{:?} (single)", space.kind), &|f| {
            space.confidence(f) >= 0.0
        });
    }
    measure("NaiveBayes (single)", &|f| {
        nb.score(&nb_vector(&f.term_freqs)) >= 0.0
    });
    for (method, policy) in [
        ("meta: majority", MetaPolicy::Majority),
        ("meta: unanimous", MetaPolicy::Unanimous),
        ("meta: weighted (xi-alpha)", MetaPolicy::WeightedAverage),
    ] {
        measure(method, &|f| model.decide(f, policy, false).0);
    }

    MetaOutcome {
        rows,
        test_pos: pos.len(),
        test_neg: neg.len(),
    }
}

/// The features of each page that analyzes cleanly.
fn analyze(engine: &mut BingoEngine, world: &World, ids: &[u64]) -> Vec<DocumentFeatures> {
    ids.iter()
        .filter_map(|&id| {
            engine
                .analyze_url(world, &world.url_of(id))
                .ok()
                .map(|(_, _, f)| f)
        })
        .collect()
}

/// The Section 2.3 example: MI feature selection for a "Data Mining"
/// class against its competing siblings. Returns the top stems — the
/// paper reports `mine, knowledg, olap, frame, pattern, genet, discov,
/// cluster, dataset`.
pub fn run_feature_example(seed: u64, top_n: usize) -> Vec<String> {
    let world = WorldConfig::portal(seed, 100, 1).build();
    let mut engine = BingoEngine::new(EngineConfig::default());

    // Documents: data-mining pages (the class) vs. db-research and
    // web-IR pages (competing siblings at the same tree level).
    let mining = held_out(&world, 1, 0, 40);
    let mut competing = held_out(&world, 0, 0, 40);
    competing.extend(held_out(&world, 2, 0, 40));

    let pos = analyze(&mut engine, &world, &mining);
    let neg = analyze(&mut engine, &world, &competing);

    let pos_occ: Vec<Vec<(u32, u32)>> = pos
        .iter()
        .map(|f| f.occurrences(FeatureSpaceKind::SingleTerms))
        .collect();
    let neg_occ: Vec<Vec<(u32, u32)>> = neg
        .iter()
        .map(|f| f.occurrences(FeatureSpaceKind::SingleTerms))
        .collect();
    let labeled: Vec<(&[(u32, u32)], bool)> = pos_occ
        .iter()
        .map(|o| (o.as_slice(), true))
        .chain(neg_occ.iter().map(|o| (o.as_slice(), false)))
        .collect();
    let selector = FeatureSelection::new(FeatureSelectionConfig::default()).select(&labeled);

    selector
        .ranked()
        .iter()
        .filter(|&&(f, _)| namespace_of(f) == Namespace::Term)
        .take(top_n)
        .map(|&(f, _)| engine.vocab.term(TermId(f)).to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_improves_precision_over_singles() {
        let out = run_meta(11);
        assert!(out.test_pos > 50 && out.test_neg > 50);
        let single_best = out
            .rows
            .iter()
            .filter(|r| r.method.contains("single"))
            .map(|r| r.precision)
            .fold(0.0, f64::max);
        let unanimous = out
            .rows
            .iter()
            .find(|r| r.method.contains("unanimous"))
            .unwrap();
        assert!(
            unanimous.precision >= single_best - 1e-9,
            "unanimous {:.3} must not trail the best single {:.3}",
            unanimous.precision,
            single_best
        );
        assert!(unanimous.precision > 0.85, "unanimous too weak: {out:#?}");
        assert!(unanimous.accepted > 0);
    }

    #[test]
    fn feature_example_surfaces_mining_stems() {
        let stems = run_feature_example(11, 12);
        assert!(!stems.is_empty());
        let expected = ["mine", "knowledg", "pattern", "cluster", "olap", "dataset"];
        let hits = expected
            .iter()
            .filter(|w| stems.iter().any(|s| s == *w))
            .count();
        assert!(hits >= 3, "expected mining stems in top-12, got {stems:?}");
    }
}
