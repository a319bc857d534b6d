//! The overnight-crawl workflow (§1.2): "we would expect the human to
//! spend a few minutes for carefully specifying her information demand
//! and setting up an overnight crawl, and another few minutes for
//! looking at the results the next morning."
//!
//! ```text
//! cargo run --release --example overnight_workflow
//! ```
//!
//! Session 1 trains an engine, crawls briefly, and saves the session —
//! store, crawler state and trained engine — as one crash-consistent
//! generation. Session 2 — a fresh process in real use — loads it,
//! continues the crawl exactly where it stopped (frontier, clock,
//! breakers and retries included), and postprocesses the combined
//! result.

use bingo::core::persist::{load_session, save_session};
use bingo::prelude::*;
use std::sync::Arc;

fn main() {
    let dir = std::env::temp_dir().join("bingo-overnight-example");
    std::fs::remove_dir_all(&dir).ok();

    // ---------------- Session 1: the evening setup -------------------
    let world = Arc::new(WorldConfig::small_test(2026).build());
    let mut engine = BingoEngine::new(EngineConfig {
        archetype_threshold: false,
        ..EngineConfig::default()
    });
    let topic = engine.add_topic(TopicTree::ROOT, "database research");
    for a in &world.authors()[..2] {
        engine
            .add_training_url(&world, topic, &world.url_of(a.homepage))
            .expect("seed");
    }
    let mut added = 0;
    for id in 0..world.page_count() as u64 {
        if matches!(world.true_topic(id), Some(2) | Some(3)) {
            if engine.add_others_url(&world, &world.url_of(id)).is_ok() {
                added += 1;
            }
            if added >= 25 {
                break;
            }
        }
    }
    engine.train().expect("training");

    let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), DocumentStore::new());
    for a in &world.authors()[..2] {
        crawler.add_seed(&world.url_of(a.homepage), Some(topic.0));
    }
    engine.crawl_until(&mut crawler, 3_000, 0);
    engine.retrain(&mut crawler);
    engine.switch_to_harvesting(&mut crawler);
    // Stop while the frontier still holds work for the morning.
    engine.crawl_until(&mut crawler, 8_000, 0);
    println!(
        "session 1: stored {} documents, {} positively classified",
        crawler.stats().stored_pages,
        crawler.stats().positively_classified
    );

    save_session(&engine, &crawler, &dir).expect("save session");
    println!("session saved to {}", dir.display());
    drop(crawler);
    drop(engine);

    // ---------------- Session 2: the next morning --------------------
    let (mut engine, mut crawler) =
        load_session(world.clone(), CrawlConfig::default().harvesting(), &dir)
            .expect("load session");
    println!(
        "\nsession 2: restored {} documents, {} queued URLs, {} training docs",
        crawler.store().document_count(),
        crawler.frontier_len(),
        engine.tree.node(topic).training.len()
    );
    let before = crawler.store().document_count();
    let deadline = crawler.clock_ms() + 2_000_000;
    engine.crawl_until(&mut crawler, deadline, 300);
    println!(
        "resumed crawl added {} documents ({} total)",
        crawler.store().document_count() - before,
        crawler.store().document_count()
    );

    // Morning postprocessing over the combined result.
    let search = SearchEngine::build(crawler.store());
    let hits = search.query(
        &engine.vocab,
        "query optimization index",
        &QueryOptions {
            filter: TopicFilter::Exact(topic.0),
            ranking: RankingScheme::Combined {
                cosine: 1.0,
                confidence: 0.5,
                authority: 0.5,
            },
            top_k: 5,
        },
    );
    println!("\ntop results for \"query optimization index\":");
    for h in hits {
        println!("  {:.3}  {}  — {}", h.score, h.url, h.title);
    }

    std::fs::remove_dir_all(&dir).ok();
}
