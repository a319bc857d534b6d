//! Property: the classification kernel (`DocWeights`, `SpaceModel::score`
//! and the fused pass of `TopicModel::decide_weighed`) is the vector path
//! bit for bit. For arbitrary documents — unsorted components, repeated
//! link-context terms, tf up to 10⁴, features the corpus never saw, empty
//! components — in all five feature spaces, with and without a Naive
//! Bayes member, under all three meta policies (the engine in both crawl
//! phases, each of which classifies with its own), for a trained model
//! and the same model restored from disk, over a tree with three
//! competing siblings at its root; and for
//! documents drawn from the training documents' features, which hit
//! more selected features than the kernel orders by comparison:
//!
//! * `score` equals `svm.confidence(&space.vector(f))` by `to_bits()`,
//! * `TopicModel::decide` and `decide_weighed` equal the meta decision
//!   written over the vector path and over a loop of `score` calls,
//! * `BingoEngine::classify` and a saved-and-reloaded engine both equal
//!   the hierarchical descent written over that reference decision,
//!   under the policy of the engine's phase.

use bingo_core::persist::{load_engine, save_engine};
use bingo_core::{
    BingoEngine, EngineConfig, ModelConfig, Phase, SpaceModel, TopicId, TopicModel, TopicTree,
};
use bingo_crawler::{CrawlConfig, Crawler, Judgment};
use bingo_ml::meta::MetaPolicy;
use bingo_store::DocumentStore;
use bingo_textproc::features::pair_feature;
use bingo_textproc::vocab::TermId;
use bingo_textproc::{DocWeights, DocumentFeatures, FeatureSpaceKind, SparseVector};
use bingo_webworld::gen::WorldConfig;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

const POLICIES: [MetaPolicy; 3] = [
    MetaPolicy::Unanimous,
    MetaPolicy::Majority,
    MetaPolicy::WeightedAverage,
];

/// Each crawl phase with the meta policy it classifies with
/// (Section 3.5).
const PHASES: [(Phase, MetaPolicy); 2] = [
    (Phase::Learning, MetaPolicy::Unanimous),
    (Phase::Harvesting, MetaPolicy::WeightedAverage),
];

/// Term ids the arbitrary documents draw from: the training vocabulary
/// (well under 120 stems) plus ids no training document interned.
const TERM_IDS: u32 = 140;

const TOPICS: [(&str, &str); 5] = [
    (
        "database",
        "database transaction recovery logging concurrency index query storage",
    ),
    (
        "recovery",
        "aries recovery logging checkpoint redo undo transaction crash",
    ),
    (
        "mining",
        "mining pattern dataset cluster itemset discovery knowledge frequent",
    ),
    (
        "sports",
        "football stadium championship soccer team player coach season",
    ),
    (
        "music",
        "guitar melody orchestra concert rhythm chord symphony piano",
    ),
];
const OTHERS: &str = "recipe kitchen flour oven butter sugar baking dinner";

/// An engine over a two-level tree (database → {recovery, mining}, sports
/// and music) with all five feature spaces, trained on small virtual
/// documents; every other training document also carries link context,
/// so anchor and neighbour features get selected too. The engine is in
/// `phase`.
fn engine(phase: Phase, naive_bayes: bool) -> BingoEngine {
    let mut engine = BingoEngine::new(EngineConfig {
        model: ModelConfig {
            spaces: FeatureSpaceKind::ALL.to_vec(),
            use_naive_bayes: naive_bayes,
            ..ModelConfig::default()
        },
        ..EngineConfig::default()
    });
    let database = engine.add_topic(TopicTree::ROOT, TOPICS[0].0);
    let ids = [
        database,
        engine.add_topic(database, TOPICS[1].0),
        engine.add_topic(database, TOPICS[2].0),
        engine.add_topic(TopicTree::ROOT, TOPICS[3].0),
        engine.add_topic(TopicTree::ROOT, TOPICS[4].0),
    ];
    for (&id, (_, words)) in ids.iter().zip(TOPICS) {
        let words: Vec<&str> = words.split(' ').collect();
        for i in 0..6 {
            // Rotate and thin the topic's words so documents differ.
            let text: Vec<&str> = (0..words.len() + 3)
                .filter(|k| (k + i) % 4 != 0)
                .map(|k| words[(k + i) % words.len()])
                .collect();
            engine.add_training_virtual(id, &format!("<p>{}</p>", text.join(" ")));
            if i % 2 == 0 {
                let doc = engine.tree.node_mut(id).training.last_mut().unwrap();
                let context: Vec<TermId> =
                    doc.features.term_freqs.iter().map(|&(t, _)| t).collect();
                doc.features.add_incoming_anchor(&context[..2]);
                doc.features.add_neighbor_terms(&context[1..4]);
            }
        }
    }
    let others: Vec<&str> = OTHERS.split(' ').collect();
    for i in 0..6 {
        let text: Vec<&str> = (0..6).map(|k| others[(k + i) % others.len()]).collect();
        let features = engine.analyze_virtual(&format!("<p>{}</p>", text.join(" ")));
        engine.tree.others.push(bingo_core::TrainingDoc {
            page_id: 0,
            url: String::new(),
            features,
            archetype: false,
        });
    }
    engine.train().expect("the fixture trains");
    // The live corpus moves on; the models keep the frozen one.
    for (_, words) in TOPICS {
        engine.analyze_virtual(&format!("<p>{words} {words} {OTHERS}</p>"));
    }
    assert!((engine.vocab.len() as u32) < TERM_IDS - 20);
    if phase == Phase::Harvesting {
        let world = Arc::new(WorldConfig::small_test(1).build());
        let mut crawler = Crawler::new(world, CrawlConfig::default(), DocumentStore::new());
        engine.switch_to_harvesting(&mut crawler);
    }
    assert_eq!(engine.phase(), phase);
    engine
}

/// `(policy, engine, the same engine saved and loaded)` for each phase,
/// the policy being the phase's, with and without a Naive Bayes member.
fn engines() -> &'static [(MetaPolicy, BingoEngine, BingoEngine)] {
    static ENGINES: OnceLock<Vec<(MetaPolicy, BingoEngine, BingoEngine)>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let mut out = Vec::new();
        for (phase, policy) in PHASES {
            for naive_bayes in [false, true] {
                let engine = engine(phase, naive_bayes);
                let mut bytes = Vec::new();
                save_engine(&engine, &mut bytes).unwrap();
                let restored = load_engine(&bytes[..]).unwrap();
                assert_eq!(restored.phase(), phase);
                out.push((policy, engine, restored));
            }
        }
        out
    })
}

fn tf() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..4, 1u32..=10_000]
}

fn features() -> impl Strategy<Value = DocumentFeatures> {
    (
        proptest::collection::vec((0..TERM_IDS, tf()), 0..40),
        proptest::collection::vec(((0..TERM_IDS, 0..TERM_IDS), tf()), 0..60),
        proptest::collection::vec(0..TERM_IDS, 0..12),
        proptest::collection::vec(0..TERM_IDS, 0..12),
    )
        .prop_map(|(terms, pairs, anchors, neighbors)| {
            // Each component lists a feature once, as every producer
            // does — but in the order drawn, not in feature order.
            let mut seen = HashSet::new();
            let term_freqs = terms
                .into_iter()
                .filter(|&(t, _)| seen.insert(t))
                .map(|(t, f)| (TermId(t), f))
                .collect();
            let pair_freqs = pairs
                .into_iter()
                .filter(|&((a, b), _)| a != b)
                .map(|((a, b), f)| (pair_feature(TermId(a), TermId(b)), f))
                .filter(|&(p, _)| seen.insert(p))
                .collect();
            DocumentFeatures {
                term_freqs,
                pair_freqs,
                incoming_anchor_terms: anchors.into_iter().map(TermId).collect(),
                neighbor_terms: neighbors.into_iter().map(TermId).collect(),
            }
        })
}

/// The features of the fixture's training documents. Every engine
/// interns the same texts in the same order, so the ids are the same in
/// all of them.
fn training_features() -> &'static [DocumentFeatures] {
    static FEATURES: OnceLock<Vec<DocumentFeatures>> = OnceLock::new();
    FEATURES.get_or_init(|| {
        let tree = &engines()[0].1.tree;
        (tree.topic_ids().flat_map(|t| &tree.node(t).training))
            .chain(&tree.others)
            .map(|d| d.features.clone())
            .collect()
    })
}

/// The union of `docs`' features — terms, pairs and link context — each
/// feature once, with frequencies drawn from `tfs` in turn.
fn union_of<'a>(docs: impl Iterator<Item = &'a DocumentFeatures>, tfs: &[u32]) -> DocumentFeatures {
    let mut seen = HashSet::new();
    let mut tfs = tfs.iter().copied().cycle();
    let mut union = DocumentFeatures::default();
    for doc in docs {
        for &(t, _) in &doc.term_freqs {
            if seen.insert(t.0) {
                union.term_freqs.push((t, tfs.next().unwrap()));
            }
        }
        for &(p, _) in &doc.pair_freqs {
            if seen.insert(p) {
                union.pair_freqs.push((p, tfs.next().unwrap()));
            }
        }
        union.add_incoming_anchor(&doc.incoming_anchor_terms);
        union.add_neighbor_terms(&doc.neighbor_terms);
    }
    union
}

/// A document made of several training documents' features with fresh
/// frequencies: in every space it hits much of what the space selected.
/// Half of them list their terms and pairs out of feature order.
fn topical_features() -> impl Strategy<Value = DocumentFeatures> {
    (
        proptest::collection::vec(0usize..1_000, 2..9),
        proptest::collection::vec(tf(), 1..64),
        any::<bool>(),
    )
        .prop_map(|(picks, tfs, reversed)| {
            let pool = training_features();
            let mut f = union_of(picks.iter().map(|i| &pool[i % pool.len()]), &tfs);
            if reversed {
                f.term_freqs.reverse();
                f.pair_freqs.reverse();
            }
            f
        })
}

/// `TopicModel::decide` written over one confidence per space, however
/// `confidence` comes by it.
fn decide_by(
    confidence: impl Fn(&SpaceModel) -> f32,
    model: &TopicModel,
    features: &DocumentFeatures,
    policy: MetaPolicy,
) -> (bool, f32) {
    let h = (model.spaces.len() + usize::from(model.naive_bayes.is_some())) as f32;
    let t1 = match policy {
        MetaPolicy::Unanimous => h - 0.5,
        MetaPolicy::Majority | MetaPolicy::WeightedAverage => 0.0,
    };
    let weighted = policy == MetaPolicy::WeightedAverage;
    let (mut vote_sum, mut conf_sum) = (0.0f32, 0.0f32);
    for space in &model.spaces {
        let conf = confidence(space);
        conf_sum += conf;
        let w = if weighted {
            space.xi_precision().max(0.01)
        } else {
            1.0
        };
        vote_sum += w * if conf >= 0.0 { 1.0 } else { -1.0 };
    }
    if let Some((nb, weight)) = &model.naive_bayes {
        let counts = features
            .occurrences(FeatureSpaceKind::SingleTerms)
            .into_iter()
            .map(|(i, c)| (i, c as f32))
            .collect();
        let conf = nb.score(&SparseVector::from_pairs(counts));
        conf_sum += conf;
        let w = if weighted { weight.max(0.01) } else { 1.0 };
        vote_sum += w * if conf >= 0.0 { 1.0 } else { -1.0 };
    }
    let mean_conf = conf_sum / h;
    if vote_sum > t1 {
        (true, mean_conf.max(0.0))
    } else {
        (false, mean_conf.min(-f32::EPSILON))
    }
}

/// `TopicModel::decide` as it was before the kernel: every confidence
/// through `SpaceModel::vector` and `TrainedSvm::confidence`.
fn decide_by_vectors(
    model: &TopicModel,
    features: &DocumentFeatures,
    policy: MetaPolicy,
) -> (bool, f32) {
    let by_vector = |space: &SpaceModel| space.svm.confidence(&space.vector(features));
    decide_by(by_vector, model, features, policy)
}

/// The top-down descent of `BingoEngine::classify` over
/// [`decide_by_vectors`].
fn classify_by_vectors(
    engine: &BingoEngine,
    features: &DocumentFeatures,
    policy: MetaPolicy,
) -> Judgment {
    let mut current = TopicTree::ROOT;
    let mut assigned: Option<TopicId> = None;
    let mut confidence = f32::MIN;
    loop {
        let mut best: Option<(TopicId, f32)> = None;
        let mut best_rejected = f32::MIN;
        for &child in &engine.tree.node(current).children {
            let Some(model) = engine.model(child) else {
                continue;
            };
            let (accept, conf) = decide_by_vectors(model, features, policy);
            if accept {
                if best.map(|(_, c)| conf > c).unwrap_or(true) {
                    best = Some((child, conf));
                }
            } else {
                best_rejected = best_rejected.max(conf);
            }
        }
        match best {
            Some((child, conf)) => {
                assigned = Some(child);
                confidence = conf;
                current = child;
            }
            None => {
                if assigned.is_none() {
                    confidence = if best_rejected == f32::MIN {
                        -1.0
                    } else {
                        best_rejected
                    };
                }
                break;
            }
        }
    }
    Judgment {
        topic: assigned.map(|t| t.0),
        confidence,
    }
}

fn bits(j: &Judgment) -> (Option<u32>, u32) {
    (j.topic, j.confidence.to_bits())
}

/// Every claim of the module header, for `docs`.
fn check_kernel(docs: &[DocumentFeatures]) -> Result<(), TestCaseError> {
    for (policy, engine, restored) in engines() {
        for topic in engine.tree.topic_ids() {
            for model in [engine, restored].map(|e| e.model(topic).expect("every topic trained")) {
                prop_assert_eq!(model.spaces.len(), FeatureSpaceKind::ALL.len());
                for f in docs {
                    let weights = DocWeights::new(f, &model.spaces[0].weighter);
                    for space in &model.spaces {
                        let reference = space.svm.confidence(&space.vector(f));
                        prop_assert_eq!(
                            space.score(&weights).to_bits(),
                            reference.to_bits(),
                            "{:?}: kernel {} vs vectors {}",
                            space.kind,
                            space.score(&weights),
                            reference
                        );
                        prop_assert_eq!(space.confidence(f).to_bits(), reference.to_bits());
                    }
                    for p in POLICIES {
                        let (ref_accept, ref_conf) = decide_by_vectors(model, f, p);
                        let by_score = |space: &SpaceModel| space.score(&weights);
                        for (accept, conf) in [
                            model.decide(f, p),
                            model.decide_weighed(f, &weights, p),
                            decide_by(by_score, model, f, p),
                        ] {
                            prop_assert_eq!(
                                (accept, conf.to_bits()),
                                (ref_accept, ref_conf.to_bits())
                            );
                        }
                    }
                }
            }
        }
        let reference: Vec<_> = docs
            .iter()
            .map(|f| bits(&classify_by_vectors(engine, f, *policy)))
            .collect();
        let one_by_one: Vec<_> = docs.iter().map(|f| bits(&engine.classify(f))).collect();
        let reloaded: Vec<_> = docs.iter().map(|f| bits(&restored.classify(f))).collect();
        prop_assert_eq!(&one_by_one, &reference);
        prop_assert_eq!(&reloaded, &reference);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_is_the_vector_path_bit_for_bit(
        docs in proptest::collection::vec(features(), 1..6),
    ) {
        check_kernel(&docs)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn topical_kernel_is_the_vector_path_bit_for_bit(
        docs in proptest::collection::vec(topical_features(), 1..4),
    ) {
        check_kernel(&docs)?;
    }
}

/// Documents some space sees nothing of: its norm is zero while the
/// other spaces' are not, and for the empty document every norm is.
#[test]
fn spaces_with_zero_norm_score_like_the_vector_path() {
    let (a, b, c) = (TermId(1), TermId(2), TermId(3));
    let docs = [
        DocumentFeatures::default(),
        DocumentFeatures {
            pair_freqs: vec![(pair_feature(a, b), 2), (pair_feature(b, c), 1)],
            ..DocumentFeatures::default()
        },
        DocumentFeatures {
            incoming_anchor_terms: vec![a, b, a],
            ..DocumentFeatures::default()
        },
        DocumentFeatures {
            neighbor_terms: vec![c, b],
            ..DocumentFeatures::default()
        },
    ];
    let weighter = &engines()[0].1.model(TopicId(1)).unwrap().spaces[0].weighter;
    let pairs_only = DocWeights::new(&docs[1], weighter);
    assert_eq!(pairs_only.norm(FeatureSpaceKind::SingleTerms), 0.0);
    assert!(pairs_only.norm(FeatureSpaceKind::TermPairs) > 0.0);
    check_kernel(&docs).unwrap();
}

/// The property above is only worth its name if the fixture's models
/// both accept and reject, descend below the first level, and select
/// link-context features.
#[test]
fn fixture_exercises_acceptance_descent_and_link_context() {
    for (policy, engine, _) in engines() {
        let leaf = engine.tree.leaves()[0];
        let parent = engine.tree.node(leaf).parent.unwrap();
        assert_ne!(parent, TopicTree::ROOT, "two-level tree");
        let own = &engine.tree.node(leaf).training[0].features;
        let judged = engine.classify(own);
        assert_eq!(
            judged.topic,
            classify_by_vectors(engine, own, *policy).topic
        );
        let model = engine.model(leaf).unwrap();
        assert!(model.decide(own, MetaPolicy::Majority).0);
        let foreign = &engine.tree.others[0].features;
        assert!(!model.decide(foreign, MetaPolicy::Majority).0);
        let selects = |kind, namespace: u32| {
            let space = model.spaces.iter().find(|s| s.kind == kind).unwrap();
            space
                .selector
                .ranked()
                .iter()
                .any(|&(feature, _)| feature >> 30 == namespace)
        };
        // Some feature sits in three or more spaces' selections, so the
        // fused table has features with several slots.
        let selected_by = |feature: u32| {
            let has = |s: &&SpaceModel| s.selector.compact(feature).is_some();
            model.spaces.iter().filter(has).count()
        };
        let ranked = model.spaces[0].selector.ranked();
        assert!(ranked.iter().any(|&(feature, _)| selected_by(feature) >= 3));
        // And the engine's live corpus is not the one the models froze.
        let frozen = model.spaces[0].weighter.stats();
        assert!(engine.corpus().doc_count() > frozen.doc_count());
        assert!(selects(FeatureSpaceKind::TermPairs, 1));
        assert!(selects(FeatureSpaceKind::AnchorTexts, 2));
        assert!(selects(FeatureSpaceKind::NeighborTerms, 3));
        assert!(selects(FeatureSpaceKind::Combined, 3));
    }
}

/// The topical documents are worth their property only if they can hit
/// selected features by the dozen, as a crawled page does (≈165 per
/// topic): a topic's fused pass orders the hits of all its spaces
/// together, and `SpaceModel::score` one space's. Every training
/// document at once does both.
#[test]
fn topical_documents_hit_many_selected_features() {
    let all = union_of(training_features().iter(), &[1, 2, 3]);
    for (_, engine, _) in engines() {
        let mut widest_space = 0;
        for topic in engine.tree.topic_ids() {
            let model = engine.model(topic).unwrap();
            let weights = DocWeights::new(&all, &model.spaces[0].weighter);
            let hits: Vec<usize> = (model.spaces.iter())
                .map(|space| {
                    (weights.runs(space.kind).into_iter().flatten())
                        .filter(|&&(feature, _)| space.selector.compact(feature).is_some())
                        .count()
                })
                .collect();
            assert!(hits.iter().sum::<usize>() > 64, "{topic:?}: {hits:?}");
            widest_space = widest_space.max(*hits.iter().max().unwrap());
        }
        assert!(widest_space > 32);
    }
}
