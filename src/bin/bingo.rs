//! `bingo` — command-line front end to the focused crawler.
//!
//! ```text
//! bingo crawl   --session DIR [--seed N] [--authors N] [--budget-secs N] [--topic NAME]
//! bingo resume  --session DIR [--seed N] [--authors N] [--budget-secs N]
//! bingo search  --session DIR [--seed N] [--authors N] --query "..." [--topic-id N]
//!               [--rank cosine|confidence|authority|combined] [--top N]
//! bingo suggest --session DIR [--seed N] [--authors N] --topic-id N
//! ```
//!
//! `crawl` builds a portal world, trains from the top-2 author homepages
//! and runs a two-phase focused crawl, saving the session — store,
//! crawler state (frontier, clock, breakers, retries) and trained
//! engine as one crash-consistent generation — after the learning phase
//! and again after the harvest. `resume` continues from the newest
//! complete generation, so a crawl killed mid-harvest picks up where
//! the learning phase ended; `search` and `suggest` postprocess a
//! session offline. Only manifest-committed generations are ever
//! loaded. The world is a function of `--seed`/`--authors`, which must
//! match across commands.

use bingo::core::persist::{load_session, save_session};
use bingo::prelude::*;
use bingo::search::suggest_subclasses;
use bingo::webworld::fetch::host_of_url;
use std::sync::Arc;

fn arg(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn arg_or(flag: &str, default: &str) -> String {
    arg(flag).unwrap_or_else(|| default.to_string())
}

fn usage() -> ! {
    eprintln!(
        "usage: bingo <crawl|resume|search|suggest> --session <dir> [--seed N] [--authors N] [options]\n\
         \n\
         crawl   --budget-secs N --topic NAME\n\
         resume  --budget-secs N\n\
         search  --query \"...\" [--topic-id N] [--rank cosine|confidence|authority|combined] [--top N]\n\
         suggest --topic-id N"
    );
    std::process::exit(2);
}

/// The deterministic world named by `--seed`/`--authors`.
fn world_from_args() -> Arc<World> {
    let seed: u64 = arg_or("--seed", "2003").parse().expect("--seed");
    let authors: usize = arg_or("--authors", "1000").parse().expect("--authors");
    eprintln!("building world (seed {seed}, {authors} authors)...");
    Arc::new(WorldConfig::portal(seed, authors, 2).build())
}

/// Load the newest complete generation of `--session`. Every saved
/// generation is in the harvesting phase (see [`cmd_crawl`]).
fn open_session() -> (String, BingoEngine, Crawler) {
    let session = arg_or("--session", "bingo-session");
    let (engine, crawler) = or_exit(
        load_session(
            world_from_args(),
            CrawlConfig::default().harvesting(),
            &session,
        ),
        "cannot load session",
    );
    (session, engine, crawler)
}

/// Write the session as a new generation, or exit with a clean error.
fn save(engine: &BingoEngine, crawler: &Crawler, session: &str) {
    or_exit(
        save_session(engine, crawler, session),
        "cannot save session",
    );
}

/// Unwrap a fallible load/save, or exit with a clean one-line error —
/// a corrupt or missing database is an operator problem, not a crash.
fn or_exit<T, E: std::fmt::Display>(result: Result<T, E>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        std::process::exit(1);
    })
}

fn cmd_crawl() {
    let session = arg_or("--session", "bingo-session");
    let budget_ms: u64 = arg_or("--budget-secs", "600")
        .parse::<u64>()
        .expect("--budget-secs")
        * 1000;
    let topic_name = arg_or("--topic", "database research");

    let world = world_from_args();
    eprintln!(
        "world: {} pages on {} hosts",
        world.page_count(),
        world.host_count()
    );

    let mut engine = BingoEngine::new(EngineConfig {
        archetype_threshold: false,
        ..EngineConfig::default()
    });
    let topic = engine.add_topic(TopicTree::ROOT, &topic_name);
    let seeds: Vec<String> = world.authors()[..2]
        .iter()
        .map(|a| world.url_of(a.homepage))
        .collect();
    for url in &seeds {
        engine.add_training_url(&world, topic, url).expect("seed");
        eprintln!("seed: {url}");
    }
    let mut added = 0;
    for id in 0..world.page_count() as u64 {
        if matches!(world.true_topic(id), Some(3) | Some(4) | Some(5) | Some(6)) {
            if engine.add_others_url(&world, &world.url_of(id)).is_ok() {
                added += 1;
            }
            if added >= 50 {
                break;
            }
        }
    }
    engine.train().expect("training");

    let seed_hosts = seeds
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
    for url in &seeds {
        crawler.add_seed(url, Some(topic.0));
    }
    eprintln!("learning phase...");
    engine.crawl_until(&mut crawler, budget_ms / 5, 0);
    engine.retrain(&mut crawler);
    // The first generation is written once the crawl is in the
    // harvesting phase, so every saved session resumes under the
    // harvesting configuration.
    engine.switch_to_harvesting(&mut crawler);
    save(&engine, &crawler, &session);
    eprintln!("harvesting...");
    engine.crawl_until(&mut crawler, budget_ms, 400);
    save(&engine, &crawler, &session);

    let stats = crawler.stats();
    eprintln!(
        "done: {} visited, {} stored, {} positively classified, {} hosts",
        stats.visited_urls, stats.stored_pages, stats.positively_classified, stats.visited_hosts
    );
    eprintln!("session: {session}");
    eprintln!("topic id for --topic-id: {}", topic.0);
}

fn cmd_resume() {
    let extra_ms: u64 = arg_or("--budget-secs", "300")
        .parse::<u64>()
        .expect("--budget-secs")
        * 1000;
    let (session, mut engine, mut crawler) = open_session();
    let before = crawler.stats().stored_pages;
    eprintln!(
        "resuming at {} s: {} documents stored, {} URLs queued, {} topics",
        crawler.clock_ms() / 1000,
        before,
        crawler.frontier_len(),
        engine.tree.len() - 1
    );
    let deadline = crawler.clock_ms() + extra_ms;
    engine.crawl_until(&mut crawler, deadline, 400);
    save(&engine, &crawler, &session);
    eprintln!(
        "resumed session stored {} documents ({} total now)",
        crawler.stats().stored_pages - before,
        crawler.store().document_count()
    );
}

fn cmd_search() {
    let Some(query) = arg("--query") else { usage() };
    let top_k: usize = arg_or("--top", "10").parse().expect("--top");
    let ranking = match arg_or("--rank", "cosine").as_str() {
        "cosine" => RankingScheme::Cosine,
        "confidence" => RankingScheme::Confidence,
        "authority" => RankingScheme::Authority,
        "combined" => RankingScheme::Combined {
            cosine: 1.0,
            confidence: 0.5,
            authority: 0.5,
        },
        other => {
            eprintln!("unknown ranking {other}");
            usage()
        }
    };
    let filter = match arg("--topic-id") {
        Some(t) => TopicFilter::Exact(t.parse().expect("--topic-id")),
        None => TopicFilter::Any,
    };

    let (_, engine, crawler) = open_session();
    let search = SearchEngine::build(crawler.store());
    let hits = search.query(
        &engine.vocab,
        &query,
        &QueryOptions {
            filter,
            ranking,
            top_k,
        },
    );
    if hits.is_empty() {
        println!("no results for {query:?}");
        return;
    }
    for h in hits {
        println!("{:8.4}  {}  — {}", h.score, h.url, h.title);
    }
}

fn cmd_suggest() {
    let topic_id: u32 = arg_or("--topic-id", "1").parse().expect("--topic-id");
    let (_, engine, crawler) = open_session();
    match suggest_subclasses(crawler.store(), &engine.vocab, topic_id, 2..=5, 5) {
        Some(suggestions) => {
            for (i, s) in suggestions.iter().enumerate() {
                println!(
                    "subclass {}: {} documents — suggested label: {}",
                    i + 1,
                    s.members.len(),
                    s.label.join(", ")
                );
            }
        }
        None => println!("not enough documents in topic {topic_id} for clustering"),
    }
}

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("crawl") => cmd_crawl(),
        Some("resume") => cmd_resume(),
        Some("search") => cmd_search(),
        Some("suggest") => cmd_suggest(),
        _ => usage(),
    }
}
