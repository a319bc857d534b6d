//! Every setting of the engine, drawn over its whole range (0, 1 and the
//! type's maximum included for the counts), runs a learning crawl with
//! retraining and a harvest after it without a panic, and judges every
//! stored page with a finite confidence.

use bingo_core::{BingoEngine, EngineConfig, ModelConfig, Phase, TopicTree};
use bingo_crawler::{CrawlConfig, Crawler};
use bingo_store::DocumentStore;
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::PageKind;
use proptest::prelude::*;
use std::sync::Arc;

/// Virtual end of the learning crawl; the harvest runs as long again.
const LEARNING_MS: u64 = 4_000;

/// Retrain after this many positively classified pages.
const RETRAIN_EVERY: u64 = 4;

fn edge_usize() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0),
        Just(1),
        Just(usize::MAX),
        0usize..16,
        any::<usize>()
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn no_engine_config_value_panics_a_crawl(
        seed in 0u64..4,
        archetype_threshold in any::<bool>(),
        max_base_set in edge_usize(),
        max_predecessors in edge_usize(),
        use_naive_bayes in any::<bool>(),
    ) {
        let world = Arc::new(WorldConfig::small_test(seed).build());
        let mut engine = BingoEngine::new(EngineConfig {
            model: ModelConfig {
                use_naive_bayes,
                ..ModelConfig::default()
            },
            archetype_threshold,
            max_predecessors,
            max_base_set,
        });
        let topic = engine.add_topic(TopicTree::ROOT, "database research");
        for a in &world.authors()[..2] {
            engine
                .add_training_url(&world, topic, &world.url_of(a.homepage))
                .expect("seed homepage fetches");
        }
        let noise = (0..world.page_count() as u64).filter(|&id| {
            matches!(world.true_topic(id), Some(2) | Some(3))
                && world.page(id).kind == PageKind::Content
        });
        for id in noise.take(30) {
            engine.add_others_url(&world, &world.url_of(id)).ok();
        }
        engine.train().expect("the seeds train");

        let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), DocumentStore::new());
        for a in &world.authors()[..2] {
            crawler.add_seed(&world.url_of(a.homepage), Some(topic.0));
        }
        let learned = engine.crawl_until(&mut crawler, LEARNING_MS, RETRAIN_EVERY);
        engine.switch_to_harvesting(&mut crawler);
        prop_assert_eq!(engine.phase(), Phase::Harvesting);
        let harvested = engine.crawl_until(&mut crawler, 2 * LEARNING_MS, RETRAIN_EVERY);
        prop_assert!(learned + harvested > 0, "the crawl stored nothing");
        prop_assert!(engine.telemetry().registry.snapshot().counters["engine.retrain.rounds"] > 0);
        crawler.store().for_each_document(|row| {
            assert!(row.confidence.is_finite(), "{}: {}", row.url, row.confidence);
        });
    }
}
