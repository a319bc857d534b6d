//! `portal_focused` — the paper's §5.2 portal-generation experiment.
//!
//! Why: the only workload where `ml`, `core` and `graph` (SVM
//! classification, MI feature selection, retraining, HITS archetypes)
//! and the focus policy do most of the work. Everything fits in memory.
//! It carries the paper's quality result (`recall_t1`), so speed cannot
//! be bought with recall.

use super::{populate_others, secs, Ctx, Round};
use crate::metrics::Check;
use crate::replay::{self, ReplaySpec};
use crate::sys;
use crate::trace::{totals_by_name, Tracer};
use bingo_core::{BingoEngine, EngineConfig, TopicId, TopicTree};
use bingo_crawler::{CrawlConfig, Crawler, StepOutcome};
use bingo_store::DocumentStore;
use bingo_webworld::dblp::evaluate_found_authors;
use bingo_webworld::fetch::host_of_url;
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::World;
use std::sync::Arc;
use std::time::Instant;

/// Sizes of one round. The full size is the experiment of
/// `crates/bench/src/portal.rs` at 1,500 authors instead of 5,000, so a
/// round lasts about three seconds and a run holds several; the virtual
/// budgets keep the paper's 90 min : 12 h ratio.
struct Sizes {
    authors: usize,
    noise_scale: usize,
    learning_ms: u64,
    t1_ms: u64,
    t2_ms: u64,
    retrain_every: u64,
    n_others: usize,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            authors: 150,
            noise_scale: 1,
            learning_ms: 60_000,
            t1_ms: 150_000,
            t2_ms: 1_200_000,
            retrain_every: 200,
            n_others: 30,
        }
    } else {
        Sizes {
            authors: 1_500,
            noise_scale: 1,
            learning_ms: 120_000,
            t1_ms: 270_000,
            t2_ms: 2_160_000,
            retrain_every: 400,
            n_others: 50,
        }
    }
}

/// `BingoEngine::crawl_until`, re-driven call by call so each
/// `judge_step` and `retrain` gets a span. The timed run calls
/// `crawl_until` itself; the traced run's counts must equal it.
fn crawl_traced(
    engine: &mut BingoEngine,
    crawler: &mut Crawler,
    deadline_ms: u64,
    retrain_every: u64,
    tracer: &mut Tracer,
) {
    let mut positives = 0u64;
    while crawler.clock_ms() < deadline_ms {
        match tracer.span("core.judge_step", |_| engine.judge_step(crawler)) {
            StepOutcome::Stored { judgment, .. } if judgment.topic.is_some() => positives += 1,
            StepOutcome::FrontierEmpty => break,
            _ => {}
        }
        if retrain_every > 0 && positives >= retrain_every {
            positives = 0;
            tracer.span("core.retrain", |_| engine.retrain(crawler));
        }
    }
}

fn crawl(
    engine: &mut BingoEngine,
    crawler: &mut Crawler,
    deadline_ms: u64,
    retrain_every: u64,
    tracer: &mut Tracer,
) {
    if tracer.enabled() {
        crawl_traced(engine, crawler, deadline_ms, retrain_every, tracer);
    } else {
        engine.crawl_until(crawler, deadline_ms, retrain_every);
    }
}

/// Share of the directory's authors found among all positively
/// classified results, ranked by confidence (Tables 2/3 protocol).
fn recall(world: &World, store: &DocumentStore, topic: TopicId) -> f64 {
    let mut results: Vec<(f32, String)> = Vec::new();
    store.for_each_document(|row| {
        if row.topic == Some(topic.0) {
            results.push((row.confidence, row.url.clone()));
        }
    });
    results.sort_by(|a, b| b.0.total_cmp(&a.0));
    let urls: Vec<String> = results.into_iter().map(|(_, u)| u).collect();
    let found = evaluate_found_authors(&urls, world.authors(), 0, &[urls.len()])
        .last()
        .map_or(0, |row| row.2);
    found as f64 / world.authors().len().max(1) as f64
}

/// Run one round.
pub fn round(ctx: &Ctx, tracer: &mut Tracer) -> Round {
    let sz = sizes(ctx.quick);
    let mut r = Round::default();

    // Set-up: world, seeds (the two most prolific authors' homepages),
    // initial training against noise-topic negatives.
    let t = Instant::now();
    let world = tracer.span("webworld.build", |_| {
        Arc::new(WorldConfig::portal(ctx.seed, sz.authors, sz.noise_scale).build())
    });
    let seeds: Vec<String> = world.authors()[..2]
        .iter()
        .map(|a| world.url_of(a.homepage))
        .collect();
    let mut engine = BingoEngine::new(EngineConfig {
        archetype_threshold: false,
        ..EngineConfig::default()
    });
    let topic = engine.add_topic(TopicTree::ROOT, "database research");
    for url in &seeds {
        engine
            .add_training_url(&world, topic, url)
            .expect("seed homepage fetches");
    }
    populate_others(&mut engine, &world, &[3, 4, 5, 6], sz.n_others);
    tracer.span("core.train", |_| engine.train().expect("initial training"));
    r.setup_s = secs(t);
    // The replay analyzes against the dictionary the crawl started from.
    let seed_vocab = tracer.enabled().then(|| engine.vocab.clone());

    // Timed: learning phase in the seed domains, retrain, harvesting to
    // t1 and on to t2. The recall evaluation at t1 is not timed.
    let cpu0 = sys::process_cpu_s();
    let t = Instant::now();
    let seed_hosts = seeds
        .iter()
        .map(|u| host_of_url(u).expect("seed url has a host").to_string())
        .collect();
    let learn = CrawlConfig {
        allowed_hosts: Some(seed_hosts),
        ..CrawlConfig::default()
    };
    let mut crawler = Crawler::new(world.clone(), learn, DocumentStore::new());
    for url in &seeds {
        crawler.add_seed(url, Some(topic.0));
    }
    crawl(&mut engine, &mut crawler, sz.learning_ms, 0, tracer);
    tracer.span("core.retrain", |_| engine.retrain(&mut crawler));
    engine.switch_to_harvesting(&mut crawler);
    crawl(
        &mut engine,
        &mut crawler,
        sz.t1_ms,
        sz.retrain_every,
        tracer,
    );
    let mut timed_s = secs(t);
    let recall_t1 = recall(&world, crawler.store(), topic);
    let t = Instant::now();
    crawl(
        &mut engine,
        &mut crawler,
        sz.t2_ms,
        sz.retrain_every,
        tracer,
    );
    timed_s += secs(t);
    let cpu_s = sys::process_cpu_s() - cpu0;
    r.rss_peak_mb = sys::rss_peak_mb();

    let stats = crawler.stats().clone();
    let store = crawler.store().clone();
    r.timed_s = timed_s;
    r.pages_per_s = stats.stored_pages as f64 / timed_s;
    r.cpu_s_per_kpage = cpu_s * 1000.0 / stats.stored_pages.max(1) as f64;
    r.attempted = stats.visited_urls;
    r.counts = vec![
        ("visited_urls", stats.visited_urls),
        ("stored_pages", stats.stored_pages),
        ("positively_classified", stats.positively_classified),
        ("recall_t1_ppm", (recall_t1 * 1e6) as u64),
    ];
    r.checks = vec![
        Check::eq(
            "portal_focused: store rows = stored pages",
            store.document_count() as u64,
            stats.stored_pages,
        ),
        Check::that(
            "portal_focused: pages were classified into the topic",
            stats.positively_classified > 0,
        ),
        Check::that("portal_focused: authors were found at t1", recall_t1 > 0.0),
    ];
    r.facts.insert("recall_t1", recall_t1);
    r.facts.insert("stored_pages", stats.stored_pages as f64);

    if tracer.enabled() {
        let totals = totals_by_name(tracer.spans());
        let (step_s, retrain_s, retrains) = (
            totals.total_s("core.judge_step"),
            totals.total_s("core.retrain"),
            totals.count("core.retrain"),
        );

        let judge = engine.batch_classifier();
        let outcome = replay::replay_stages(
            &ReplaySpec {
                world: &world,
                store: &store,
                judge: Some(&judge),
                seed_vocab: seed_vocab.as_ref(),
                fresh_store: &|_| DocumentStore::new(),
                frontier: Some((CrawlConfig::default().incoming_queue_cap, None)),
                threads: ctx.threads,
            },
            &mut r.facts,
        );
        let sample = replay::sample_features(&store, 2_000);
        let ml_s = replay::replay_ml(&engine, topic, &sample, &mut r.facts);
        let hits_s = replay::replay_hits(&engine, &world, &store, topic);

        r.checks.extend([
            Check::eq(
                "portal_focused: replay fetched every stored page",
                outcome.fetched_ok,
                stats.stored_pages,
            ),
            Check::eq(
                "portal_focused: replay analyzed every stored page",
                outcome.analyzed,
                stats.stored_pages,
            ),
            Check::eq(
                "portal_focused: replay loaded every stored row",
                outcome.loaded,
                stats.stored_pages,
            ),
            Check::eq(
                "portal_focused: replay link rows = store link rows",
                outcome.link_rows,
                store.link_count() as u64,
            ),
        ]);

        // One retraining = HITS + (selection + SVM) per feature space,
        // replayed on the final training set, the largest of the run.
        let retrain_replayed = (retrains * (hits_s + ml_s)).min(retrain_s);
        let step_replayed = outcome.stages_s.min(step_s);
        r.facts
            .insert("webworld.build_s", totals.total_s("webworld.build"));
        r.facts.insert("core.train_s", totals.total_s("core.train"));
        r.facts.insert("core.retrain_s", retrain_s);
        r.facts.insert("core.retrains", retrains);
        r.facts.insert("graph.hits_s", hits_s);
        r.facts.insert("crawler.step_s", step_s);
        r.facts
            .insert("crawler.steps", totals.count("core.judge_step"));
        r.facts
            .insert("crawler.policy_s", (step_s - outcome.stages_s).max(0.0));
        r.facts.insert(
            "trace.coverage",
            (step_replayed + retrain_replayed) / (step_s + retrain_s).max(1e-9),
        );
        r.spans.push(("main", tracer.take()));
    }
    r
}
