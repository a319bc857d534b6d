//! E10 microbenches at the engine level: training and retraining cost,
//! and the full crawl-step throughput with the real classifier — this is
//! what bounds crawl speed once the network is fast. Per-document
//! classification cost is timed by `benchmark/` as `core.classify_s`.

use bingo_core::{BingoEngine, EngineConfig, TopicTree};
use bingo_crawler::{CrawlConfig, Crawler};
use bingo_store::DocumentStore;
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::World;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn trained_engine(world: &World) -> (BingoEngine, bingo_core::TopicId) {
    let mut engine = BingoEngine::new(EngineConfig {
        archetype_threshold: false,
        ..EngineConfig::default()
    });
    let topic = engine.add_topic(TopicTree::ROOT, "db");
    for a in &world.authors()[..3] {
        engine
            .add_training_url(world, topic, &world.url_of(a.homepage))
            .unwrap();
    }
    let mut added = 0;
    for id in 0..world.page_count() as u64 {
        if matches!(world.true_topic(id), Some(2) | Some(3)) {
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

fn bench_training(c: &mut Criterion) {
    let world = WorldConfig::small_test(13).build();
    let (engine, _topic) = trained_engine(&world);
    c.bench_function("engine_train_full", |b| {
        b.iter_batched(
            || {
                // Training mutates models only; clone the trained engine
                // state through persistence for an identical baseline.
                let mut buf = Vec::new();
                bingo_core::persist::save_engine(&engine, &mut buf).unwrap();
                bingo_core::persist::load_engine(&buf[..]).unwrap()
            },
            |mut e| {
                e.train().unwrap();
                black_box(e.model(bingo_core::TopicId(1)).is_some())
            },
            criterion::BatchSize::LargeInput,
        )
    });
}

fn bench_crawl_with_classifier(c: &mut Criterion) {
    let world = Arc::new(WorldConfig::small_test(14).build());
    let mut group = c.benchmark_group("focused_crawl");
    group.sample_size(10);
    group.bench_function("two_phase_small_world", |b| {
        b.iter(|| {
            let (mut engine, topic) = trained_engine(&world);
            let mut crawler = Crawler::new(
                Arc::clone(&world),
                CrawlConfig {
                    max_depth: 0,
                    ..CrawlConfig::default()
                },
                DocumentStore::new(),
            );
            for a in &world.authors()[..3] {
                crawler.add_seed(&world.url_of(a.homepage), Some(topic.0));
            }
            engine.crawl_until(&mut crawler, 60_000, 0);
            engine.retrain(&mut crawler);
            engine.switch_to_harvesting(&mut crawler);
            engine.crawl_until(&mut crawler, 400_000, 0);
            black_box(crawler.stats().stored_pages)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_training, bench_crawl_with_classifier);
criterion_main!(benches);
