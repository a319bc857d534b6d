//! A session written before neighbour terms rode the queue entries
//! (its `crawler.json` keeps every stored page's top terms in one
//! `page_top_terms` table) loads with each queued entry carrying the
//! terms of the page that queued it, and resumes to the same crawl the
//! older build made of it.

use bingo::core::persist::{load_session, save_engine};
use bingo::crawler::checkpoint::CRAWLER_FILE;
use bingo::crawler::{CrawlCheckpoint, QueueEntry};
use bingo::prelude::*;
use bingo::store::durable::checksum;
use bingo::store::persist::write_snapshot;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// Written at commit b82963c by `bingo crawl --seed 2003 --authors 300
/// --budget-secs 20`: its second generation, after the harvest.
const SESSION: &str = "tests/fixtures/session_parent_b82963c";

/// `checksum` of the store snapshot after `bingo resume --seed 2003
/// --authors 300 --budget-secs 20` of the session at b82963c (its third
/// generation's manifest), and of the engine snapshot beside it in
/// format version 4: that generation's `engine.json` without the
/// settings that are constants now (`tests/engine_format.rs`).
const RESUMED_STORE: u64 = 10193732361226533820;
const RESUMED_ENGINE: u64 = 18168224091930949079;

fn entries(cp: &CrawlCheckpoint) -> Vec<&QueueEntry> {
    let f = &cp.frontier;
    let queued = f.incoming.iter().chain(&f.outgoing).flatten();
    queued.chain(f.parked.iter().map(|(_, e)| e)).collect()
}

#[test]
fn older_session_resumes_with_the_terms_on_its_entries() {
    let session = Path::new(env!("CARGO_MANIFEST_DIR")).join(SESSION);
    let text = std::fs::read_to_string(session.join("gen-000002").join(CRAWLER_FILE)).unwrap();
    let written: CrawlCheckpoint = serde_json::from_str(&text).unwrap();
    let tops: HashMap<u64, _> = written.page_top_terms.iter().cloned().collect();
    assert!(entries(&written)
        .iter()
        .all(|e| e.neighbor_terms.is_empty()));

    let world = Arc::new(WorldConfig::portal(2003, 300, 2).build());
    let config = CrawlConfig::default().harvesting();
    let (mut engine, mut crawler) = load_session(world, config, &session).unwrap();
    let loaded = crawler.checkpoint();
    let queued = entries(&loaded);
    assert_eq!(queued.len(), entries(&written).len());
    assert!(queued.len() > 500, "{} entries", queued.len());
    for entry in queued {
        let want = tops.get(&entry.src_page).cloned().unwrap_or_default();
        assert!(!want.is_empty(), "{} has no source terms", entry.url);
        assert_eq!(entry.neighbor_terms, want, "{}", entry.url);
    }
    assert!(loaded.page_top_terms.is_empty());

    let deadline = crawler.clock_ms() + 20_000;
    engine.crawl_until(&mut crawler, deadline, 400);
    let mut store = Vec::new();
    write_snapshot(crawler.store(), &mut store).unwrap();
    let mut engine_json = Vec::new();
    save_engine(&engine, &mut engine_json).unwrap();
    assert_eq!(checksum(&store), RESUMED_STORE, "store after the resume");
    assert_eq!(
        checksum(&engine_json),
        RESUMED_ENGINE,
        "engine after the resume"
    );
}
