//! Speculative lookahead changes nothing but speed: `crawl_until` with
//! 0, 1 and 3 lookahead workers leaves byte-identical stores, crawler
//! checkpoints, engine snapshots, metrics and event logs — including the
//! `crawl.lookahead.*` counters, which follow the request schedule rather
//! than the threads. The generated worlds between them make every reason
//! a preparation can be turned down fire at least once. A paged world,
//! whose metadata every worker derives on its own, is speculated too.
//! And the crawl is the one a `judge_step` loop under the same retrain
//! rule makes: the same store, crawler checkpoint and engine snapshot
//! (only the lookahead counts `crawl.lookahead.*`).

use bingo::core::persist::save_engine;
use bingo::core::EngineTelemetry;
use bingo::crawler::{CrawlTelemetry, StepOutcome};
use bingo::prelude::*;
use bingo::store::persist::write_snapshot;
use bingo::webworld::fetch::host_of_url;
use bingo::webworld::PagedConfig;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything a crawl leaves behind.
#[derive(PartialEq)]
struct Artifacts {
    store: Vec<u8>,
    checkpoint: String,
    engine: Vec<u8>,
    metrics: String,
    events: String,
}

struct Scenario {
    name: &'static str,
    world: Arc<World>,
    retrain_every: u64,
    /// Where the crawl starts; the learning phase keeps to their hosts.
    seeds: Vec<String>,
    /// The topic's training pages.
    training: Vec<String>,
    /// Virtual deadline of the harvest.
    harvest_ms: u64,
}

impl Scenario {
    /// A generated world, seeded from and trained on the homepages of
    /// its first two authors.
    fn authors(name: &'static str, world: World, retrain_every: u64) -> Scenario {
        let seeds: Vec<String> = world.authors()[..2]
            .iter()
            .map(|a| world.url_of(a.homepage))
            .collect();
        Scenario {
            name,
            world: Arc::new(world),
            retrain_every,
            training: seeds.clone(),
            seeds,
            harvest_ms: 600_000,
        }
    }
}

/// `crawl_until` spelled out one `judge_step` at a time: retrain once
/// `retrain_every` pages were stored with a topic.
fn judge_steps(
    engine: &mut BingoEngine,
    crawler: &mut Crawler,
    deadline_ms: u64,
    retrain_every: u64,
) {
    let mut classified = 0u64;
    while crawler.clock_ms() < deadline_ms {
        match engine.judge_step(crawler) {
            StepOutcome::Stored { judgment, .. } => {
                classified += u64::from(judgment.topic.is_some());
            }
            StepOutcome::Skipped(_) => {}
            StepOutcome::FrontierEmpty => break,
        }
        if retrain_every > 0 && classified >= retrain_every {
            classified = 0;
            engine.retrain(crawler);
        }
    }
}

/// Crawl `s` with `workers` lookahead threads, or with a `judge_step`
/// loop when `workers` is `None`.
fn run(s: &Scenario, workers: Option<usize>) -> (Artifacts, BTreeMap<String, u64>) {
    let crawl =
        |engine: &mut BingoEngine, crawler: &mut Crawler, deadline_ms, retrain_every| match workers
        {
            Some(n) => {
                engine.crawl_until_with_workers(crawler, deadline_ms, retrain_every, n);
            }
            None => judge_steps(engine, crawler, deadline_ms, retrain_every),
        };
    let world = &s.world;
    let telemetry = CrawlTelemetry::default();
    let mut engine = BingoEngine::new(EngineConfig {
        archetype_threshold: false,
        ..EngineConfig::default()
    });
    engine.set_telemetry(EngineTelemetry::new(
        telemetry.registry.clone(),
        telemetry.events.clone(),
    ));
    let topic = engine.add_topic(TopicTree::ROOT, "database research");
    for url in &s.training {
        engine.add_training_url(world, topic, url).unwrap();
    }
    let others = (0..world.page_count() as u64)
        .filter(|&id| matches!(world.true_topic(id), Some(2) | Some(3)))
        .take(30);
    for id in others {
        let _ = engine.add_others_url(world, &world.url_of(id));
    }
    engine.train().unwrap();

    let seed_hosts = s
        .seeds
        .iter()
        .map(|u| host_of_url(u).unwrap().to_string())
        .collect();
    let mut crawler = Crawler::new(
        world.clone(),
        CrawlConfig {
            allowed_hosts: Some(seed_hosts),
            ..CrawlConfig::default()
        },
        DocumentStore::new(),
    );
    crawler.set_telemetry(telemetry.clone());
    for url in &s.seeds {
        crawler.add_seed(url, Some(topic.0));
    }
    crawl(&mut engine, &mut crawler, 20_000, 0);
    engine.retrain(&mut crawler);
    engine.switch_to_harvesting(&mut crawler);
    crawl(&mut engine, &mut crawler, s.harvest_ms, s.retrain_every);

    let mut store = Vec::new();
    write_snapshot(crawler.store(), &mut store).unwrap();
    let mut engine_json = Vec::new();
    save_engine(&engine, &mut engine_json).unwrap();
    let snapshot = telemetry.registry.snapshot();
    let counters = snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("crawl.lookahead."))
        .map(|(name, &v)| (name.to_string(), v))
        .collect();
    let artifacts = Artifacts {
        store,
        checkpoint: serde_json::to_string(&crawler.checkpoint()).unwrap(),
        engine: engine_json,
        metrics: snapshot.to_json(),
        events: telemetry.events.to_jsonl(),
    };
    (artifacts, counters)
}

#[test]
fn lookahead_workers_change_nothing_but_speed() {
    let paged = World::paged(PagedConfig::scale_smoke(2003));
    let topic_zero: Vec<String> = (0..paged.page_count() as u64)
        .filter(|&id| paged.true_topic(id) == Some(0))
        .take(12)
        .map(|id| paged.url_of(id))
        .collect();
    let scenarios = [
        // Epochs turn mid-crawl: requests left over from one model are
        // popped under the next.
        Scenario::authors(
            "portal, retraining",
            WorldConfig::small_test(2003).build(),
            25,
        ),
        // Fault windows make fetches depend on time, and DNS flaps send
        // requested entries back to the frontier as retries.
        Scenario::authors("chaos", WorldConfig::chaos(41).build(), 0),
        // Every page's metadata is derived on demand, by whichever
        // thread asks for it.
        Scenario {
            name: "paged",
            seeds: vec![paged.url_of(0)],
            world: Arc::new(paged),
            retrain_every: 0,
            training: topic_zero,
            harvest_ms: 60_000,
        },
    ];
    let mut fired: BTreeMap<String, u64> = BTreeMap::new();
    for scenario in &scenarios {
        let name = scenario.name;
        let (inline, counters) = run(scenario, Some(0));
        let (steps, _) = run(scenario, None);
        assert!(inline.store == steps.store, "{name}, judge_step: store");
        assert!(
            inline.checkpoint == steps.checkpoint,
            "{name}, judge_step: crawler checkpoint"
        );
        assert!(inline.engine == steps.engine, "{name}, judge_step: engine");
        for workers in [1, 3] {
            let (ahead, _) = run(scenario, Some(workers));
            assert!(
                inline.store == ahead.store,
                "{name}, {workers} workers: store"
            );
            assert!(
                inline.checkpoint == ahead.checkpoint,
                "{name}, {workers} workers: crawler checkpoint"
            );
            assert!(
                inline.engine == ahead.engine,
                "{name}, {workers} workers: engine"
            );
            assert_eq!(inline.metrics, ahead.metrics, "{name}, {workers} workers");
            assert_eq!(inline.events, ahead.events, "{name}, {workers} workers");
        }
        if scenario.name == "paged" {
            assert!(
                counters.get("crawl.lookahead.used").is_some_and(|&v| v > 0),
                "a paged world is speculated: {counters:?}"
            );
        }
        for (name, v) in counters {
            *fired.entry(name).or_default() += v;
        }
    }
    for reason in ["entry", "epoch", "fault", "gate", "unknown"] {
        let name = format!("crawl.lookahead.miss.{reason}");
        assert!(fired[&name] > 0, "{name} never fired: {fired:?}");
    }
    for name in ["requested", "used", "discarded"] {
        assert!(fired[&format!("crawl.lookahead.{name}")] > 0, "{fired:?}");
    }
}
