//! The BINGO! engine — the paper's primary contribution as a library.
//!
//! BINGO! ("Bookmark-Induced Gathering of Information", CIDR 2003) is a
//! focused crawler that interleaves crawling, automatic SVM
//! classification into a user-provided topic tree, mutual-information
//! feature selection, HITS link analysis, and archetype-driven
//! retraining. This crate ties the substrates together:
//!
//! * [`topic`] — the topic tree with per-node training data (Figure 2),
//! * [`model`] — per-topic SVM models over multiple feature spaces with
//!   meta classification (Sections 2.4, 3.4, 3.5),
//! * [`engine`] — the orchestration: classification of crawled pages,
//!   candidate archetype tracking, retraining with authority/confidence
//!   archetype promotion and topic-drift protection, hub boosting, and
//!   the learning → harvesting phase switch (Sections 2.5-2.6, 3.1-3.3).
//!
//! # Quickstart
//!
//! ```
//! use bingo_core::{BingoEngine, EngineConfig, TopicTree};
//! use bingo_crawler::{Crawler, CrawlConfig};
//! use bingo_store::DocumentStore;
//! use bingo_webworld::gen::WorldConfig;
//! use std::sync::Arc;
//!
//! let world = Arc::new(WorldConfig::small_test(7).build());
//! let mut engine = BingoEngine::new(EngineConfig::default());
//! let topic = engine.add_topic(TopicTree::ROOT, "database research");
//!
//! // Seed with the top author's homepage; negatives from noise pages.
//! let seed = world.authors()[0].homepage;
//! let seed_url = world.url_of(seed);
//! engine.add_training_url(&world, topic, &seed_url).unwrap();
//! let mut added = 0;
//! for id in 0..world.page_count() as u64 {
//!     if world.true_topic(id) == Some(2) {
//!         if engine.add_others_url(&world, &world.url_of(id)).is_ok() {
//!             added += 1;
//!         }
//!         if added >= 10 { break; }
//!     }
//! }
//! engine.train().unwrap();
//!
//! let mut crawler = Crawler::new(world, CrawlConfig::default(), DocumentStore::new());
//! crawler.add_seed(&seed_url, Some(topic.0));
//! let stored = engine.crawl_until(&mut crawler, 60_000, 0);
//! assert!(stored > 0);
//! ```
#![forbid(unsafe_code)]

pub mod engine;
pub mod model;
pub mod persist;
pub mod telemetry;
pub mod topic;

pub use engine::{
    BingoEngine, Candidate, EngineConfig, EngineError, Phase, RetrainReport, TopicClassifier,
};
pub use model::{ModelConfig, SpaceModel, TopicModel};
pub use telemetry::EngineTelemetry;
pub use topic::{TopicId, TopicNode, TopicTree, TrainingDoc};

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_crawler::{CrawlConfig, Crawler};
    use bingo_store::DocumentStore;
    use bingo_webworld::gen::WorldConfig;
    use bingo_webworld::World;
    use std::sync::Arc;

    /// Build an engine trained on topic 0 (database research) seeds with
    /// sports/entertainment negatives.
    pub(crate) fn trained_engine(world: &Arc<World>) -> (BingoEngine, TopicId) {
        // Mirror §5.2: with an extremely small seed set the paper did not
        // enforce the archetype confidence threshold.
        let mut engine = BingoEngine::new(EngineConfig {
            archetype_threshold: false,
            ..EngineConfig::default()
        });
        let topic = engine.add_topic(TopicTree::ROOT, "database research");
        // Seeds: top-2 author homepages (the DeWitt/Gray setup of §5.2).
        for a in &world.authors()[..2] {
            engine
                .add_training_url(world, topic, &world.url_of(a.homepage))
                .unwrap();
        }
        // OTHERS: noise pages from sports (topic 2) and entertainment (3).
        let mut added = 0;
        for id in 0..world.page_count() as u64 {
            if matches!(world.true_topic(id), Some(2) | Some(3))
                && world.page(id).kind == bingo_webworld::PageKind::Content
            {
                if engine.add_others_url(world, &world.url_of(id)).is_ok() {
                    added += 1;
                }
                if added >= 30 {
                    break;
                }
            }
        }
        engine.train().unwrap();
        (engine, topic)
    }

    #[test]
    fn engine_classifies_on_topic_pages() {
        let world = Arc::new(WorldConfig::small_test(51).build());
        let (mut engine, topic) = trained_engine(&world);
        // A database-research content page should classify positively...
        // Pick an unblended page: pages blending a second topic's
        // vocabulary are legitimately ambiguous.
        let db_page = (0..world.page_count() as u64)
            .find(|&id| {
                world.true_topic(id) == Some(0)
                    && world.page(id).secondary_topic.is_none()
                    && world.page(id).kind == bingo_webworld::PageKind::Content
            })
            .unwrap();
        let (_, _, f) = engine.analyze_url(&world, &world.url_of(db_page)).unwrap();
        let j = engine.classify(&f);
        assert_eq!(
            j.topic,
            Some(topic.0),
            "db page rejected ({})",
            j.confidence
        );
        // ...and a sports page should not.
        // Sports pages may sit on dead/flaky hosts; take the first one
        // that actually fetches.
        let f = (100..world.page_count() as u64)
            .filter(|&id| {
                world.true_topic(id) == Some(2)
                    && world.page(id).kind == bingo_webworld::PageKind::Content
            })
            .find_map(|id| {
                engine
                    .analyze_url(&world, &world.url_of(id))
                    .ok()
                    .map(|(_, _, f)| f)
            })
            .expect("a fetchable sports page");
        let j = engine.classify(&f);
        assert_eq!(j.topic, None, "sports page accepted ({})", j.confidence);
    }

    #[test]
    fn batch_classifier_matches_sequential_classify() {
        let world = Arc::new(WorldConfig::small_test(53).build());
        let (mut engine, _) = trained_engine(&world);
        // A mixed bag of fetchable content pages from every topic.
        let mut features = Vec::new();
        for id in 0..world.page_count() as u64 {
            if world.page(id).kind == bingo_webworld::PageKind::Content {
                if let Ok((_, _, f)) = engine.analyze_url(&world, &world.url_of(id)) {
                    features.push(f);
                }
            }
            if features.len() >= 40 {
                break;
            }
        }
        assert!(features.len() >= 20, "world too small for the test");

        let classifier = engine.batch_classifier();
        fn assert_sync<T: Sync>(_: &T) {}
        assert_sync(&classifier);

        let sequential: Vec<bingo_crawler::Judgment> =
            features.iter().map(|f| engine.classify(f)).collect();
        let accepted = sequential.iter().filter(|j| j.topic.is_some()).count();
        assert!(accepted > 0, "accepted nothing — test is vacuous");
        assert!(accepted < sequential.len(), "rejected nothing");

        // Shared across worker threads the handle gives the same answers.
        let threaded: Vec<bingo_crawler::Judgment> = std::thread::scope(|scope| {
            let handles: Vec<_> = features
                .chunks(7)
                .map(|chunk| {
                    scope.spawn(move || {
                        chunk
                            .iter()
                            .map(|f| classifier.classify(f))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(threaded.len(), sequential.len());
        for (a, b) in threaded.iter().zip(&sequential) {
            assert_eq!(a.topic, b.topic);
            assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
        }
    }

    #[test]
    fn learning_crawl_collects_candidates_and_retrains() {
        let world = Arc::new(WorldConfig::small_test(51).build());
        let (mut engine, topic) = trained_engine(&world);
        let seed_hosts: bingo_textproc::fxhash::FxHashSet<String> = world.authors()[..2]
            .iter()
            .map(|a| {
                bingo_webworld::fetch::host_of_url(&world.url_of(a.homepage))
                    .unwrap()
                    .to_string()
            })
            .collect();
        let config = CrawlConfig {
            allowed_hosts: Some(seed_hosts),
            ..CrawlConfig::default()
        };
        let mut crawler = Crawler::new(world.clone(), config, DocumentStore::new());
        for a in &world.authors()[..2] {
            crawler.add_seed(&world.url_of(a.homepage), Some(topic.0));
        }
        engine.crawl_until(&mut crawler, u64::MAX, 0);
        assert!(
            !engine.candidates(topic).is_empty(),
            "learning crawl found no candidates"
        );
        let before = engine.tree.node(topic).training.len();
        let report = engine.retrain(&mut crawler);
        let after = engine.tree.node(topic).training.len();
        assert!(after > before, "retraining promoted no archetypes");
        assert!(!report.promoted.is_empty());
        assert!(engine.archetype_count(topic) > 0);
    }

    #[test]
    fn full_two_phase_crawl_focuses() {
        let world = Arc::new(WorldConfig::small_test(52).build());
        let (mut engine, topic) = trained_engine(&world);
        let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), DocumentStore::new());
        for a in &world.authors()[..2] {
            crawler.add_seed(&world.url_of(a.homepage), Some(topic.0));
        }
        // Learning slice.
        engine.crawl_until(&mut crawler, 120_000, 0);
        engine.retrain(&mut crawler);
        // Harvest.
        engine.switch_to_harvesting(&mut crawler);
        assert_eq!(engine.phase(), Phase::Harvesting);
        engine.crawl_until(&mut crawler, 2_000_000, 0);

        // Measure focus: among positively classified pages, the majority
        // must truly be database research (topic 0).
        let mut correct = 0u32;
        let mut wrong = 0u32;
        crawler.store().for_each_document(|row| {
            if row.topic == Some(topic.0) {
                match world.true_topic(row.id) {
                    Some(0) => correct += 1,
                    Some(_) => wrong += 1,
                    None => {} // welcome/nav pages are not counted
                }
            }
        });
        assert!(correct > 0, "harvest classified nothing correctly");
        assert!(
            correct > wrong * 2,
            "focus lost: {correct} correct vs {wrong} wrong"
        );
    }

    #[test]
    fn archetype_threshold_gates_promotion() {
        // With the threshold enforced and an overfit tiny training set,
        // promotion is (correctly) conservative: every promoted archetype
        // must beat the mean training confidence.
        let world = Arc::new(WorldConfig::small_test(51).build());
        let (mut engine, topic) = trained_engine(&world);
        engine.config.archetype_threshold = true;
        let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), DocumentStore::new());
        for a in &world.authors()[..2] {
            crawler.add_seed(&world.url_of(a.homepage), Some(topic.0));
        }
        engine.crawl_until(&mut crawler, 200_000, 0);
        let threshold = engine.mean_training_confidence(topic);
        let training_pages: std::collections::HashSet<u64> = engine
            .tree
            .node(topic)
            .training
            .iter()
            .map(|d| d.page_id)
            .collect();
        // Best candidate that is not already a training document (the
        // seeds re-crawl themselves with high confidence).
        let best_candidate = engine
            .candidates(topic)
            .iter()
            .filter(|c| !training_pages.contains(&c.page_id))
            .map(|c| c.confidence)
            .fold(f32::MIN, f32::max);
        engine.retrain(&mut crawler);
        let promoted: Vec<_> = engine
            .tree
            .node(topic)
            .training
            .iter()
            .filter(|d| d.archetype)
            .collect();
        if best_candidate <= threshold {
            assert!(promoted.is_empty(), "promotion must respect the threshold");
        } else {
            assert!(!promoted.is_empty());
        }
    }

    #[test]
    fn manual_archetype_promotion_with_trimming() {
        let world = Arc::new(WorldConfig::small_test(51).build());
        let (mut engine, topic) = trained_engine(&world);
        let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), DocumentStore::new());
        for a in &world.authors()[..2] {
            crawler.add_seed(&world.url_of(a.homepage), Some(topic.0));
        }
        engine.crawl_until(&mut crawler, 100_000, 0);
        let stored = crawler.store().all_documents();
        let candidate = stored
            .iter()
            .find(|r| {
                !engine
                    .tree
                    .node(topic)
                    .training
                    .iter()
                    .any(|d| d.page_id == r.id)
            })
            .expect("some non-training document");

        let before = engine.tree.node(topic).training.len();
        // Promote once without trimming...
        engine
            .promote_manual_archetype(crawler.store(), topic, candidate.id, None)
            .unwrap();
        assert_eq!(engine.tree.node(topic).training.len(), before + 1);
        // ...idempotent on repeat...
        engine
            .promote_manual_archetype(crawler.store(), topic, candidate.id, None)
            .unwrap();
        assert_eq!(engine.tree.node(topic).training.len(), before + 1);
        // ...and a trimmed page replaces the diluted original content.
        let other = stored
            .iter()
            .find(|r| {
                r.id != candidate.id
                    && !engine
                        .tree
                        .node(topic)
                        .training
                        .iter()
                        .any(|d| d.page_id == r.id)
            })
            .unwrap();
        engine
            .promote_manual_archetype(
                crawler.store(),
                topic,
                other.id,
                Some("<p>database transaction recovery logging index</p>"),
            )
            .unwrap();
        let promoted = engine
            .tree
            .node(topic)
            .training
            .iter()
            .find(|d| d.page_id == other.id)
            .unwrap();
        assert!(promoted.archetype);
        assert!(promoted.features.term_freqs.len() <= 5, "trimmed features");
        // Unknown page errors.
        assert!(engine
            .promote_manual_archetype(crawler.store(), topic, u64::MAX, None)
            .is_err());
        // Retraining with the manual archetypes succeeds.
        engine.train().unwrap();
    }

    #[test]
    fn ready_for_harvesting_gate() {
        let world = Arc::new(WorldConfig::small_test(53).build());
        let (mut engine, topic) = trained_engine(&world);
        let cap = crate::engine::ARCHETYPES_PER_ROUND;
        assert!(!engine.ready_for_harvesting());
        let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), DocumentStore::new());
        for a in &world.authors()[..2] {
            crawler.add_seed(&world.url_of(a.homepage), Some(topic.0));
        }
        engine.crawl_until(&mut crawler, 300_000, 0);
        // One short of min{N_auth, N_conf} archetypes: not yet.
        let seeds: Vec<u64> = (engine.tree.node(topic).training.iter())
            .map(|d| d.page_id)
            .collect();
        let mut rows = crawler.store().all_documents();
        rows.sort_unstable_by_key(|r| r.id);
        let mut rows = rows.into_iter().filter(|r| !seeds.contains(&r.id));
        while engine.archetype_count(topic) + 1 < cap {
            let row = rows.next().expect("enough crawled pages");
            engine
                .promote_manual_archetype(crawler.store(), topic, row.id, None)
                .unwrap();
        }
        assert!(!engine.ready_for_harvesting());
        // A retraining promotes the rest, no more than one round's worth.
        let report = engine.retrain(&mut crawler);
        assert!(report.promoted.iter().all(|&(_, n)| n <= cap));
        assert!(engine.archetype_count(topic) >= cap);
        assert!(engine.ready_for_harvesting());
    }
}
