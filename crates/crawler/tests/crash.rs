//! Crash-point matrix: the crash-anywhere acceptance property. A save
//! killed after *any* number of bytes — mid-file or exactly between
//! files — must leave the previous complete checkpoint generation
//! untouched, [`Crawler::resume_session`] must recover it without a
//! panic, and a continuation from the recovered state must converge to
//! the harvest ratio of an uninterrupted run.
//!
//! The matrix is seed-driven: set `BINGO_CRASH_SEEDS=7,8,9` to sweep
//! additional pseudo-random crash points (CI pins a fixed seed matrix).

use bingo_crawler::checkpoint::{CRAWLER_FILE, STORE_FILE};
use bingo_crawler::{CrawlConfig, Crawler, Judgment, PageContext, StepOutcome};
use bingo_store::durable::{self, CrashFs, MANIFEST_FILE};
use bingo_store::DocumentStore;
use bingo_textproc::{fxhash, AnalyzedDocument, Vocabulary};
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::World;
use std::path::PathBuf;
use std::sync::Arc;

fn accept_all() -> impl FnMut(&AnalyzedDocument, &PageContext) -> Judgment {
    |_doc, _ctx| Judgment {
        topic: Some(0),
        confidence: 1.0,
    }
}

fn small_world(seed: u64) -> Arc<World> {
    Arc::new(WorldConfig::small_test(seed).build())
}

/// A crawler advanced to the given virtual-time budget.
fn crawler_at(world: &Arc<World>, budget_ms: u64) -> Crawler {
    let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), DocumentStore::new());
    crawler.add_seed(&world.url_of(1), Some(0));
    let mut judge = accept_all();
    let mut vocab = Vocabulary::new();
    crawler.run_until(budget_ms, &mut judge, &mut vocab);
    crawler
}

/// Crash seeds for the pseudo-random part of the matrix
/// (`BINGO_CRASH_SEEDS=1,2,3` to override).
fn crash_seeds() -> Vec<u64> {
    match std::env::var("BINGO_CRASH_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1, 2, 3],
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bingo-crash-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Byte sizes of one clean save of `crawler`: (store, crawler,
/// manifest), measured by saving into a scratch directory.
fn save_sizes(crawler: &Crawler, tag: &str) -> (u64, u64, u64) {
    let scratch = fresh_dir(&format!("scratch-{tag}"));
    crawler.save_session(&scratch).expect("scratch save");
    let gen = durable::find_newest_complete(&scratch).expect("scratch generation");
    let size = |name: &str| std::fs::metadata(gen.dir.join(name)).unwrap().len();
    let sizes = (size(STORE_FILE), size(CRAWLER_FILE), size(MANIFEST_FILE));
    std::fs::remove_dir_all(&scratch).ok();
    sizes
}

#[test]
fn crash_at_every_point_recovers_the_last_good_generation() {
    let world = small_world(42);
    let dir = fresh_dir("matrix");

    // A clean base generation at 15k virtual ms.
    let mut crawler = crawler_at(&world, 15_000);
    crawler.save_session(&dir).expect("base save");
    let base_stored = crawler.stats().stored_pages;
    assert!(base_stored > 0, "base session too small to test");

    // Advance, then crash the *next* save at every interesting byte
    // budget. Each failed attempt leaves only an incomplete generation
    // behind; the base generation must stay recoverable throughout.
    let mut judge = accept_all();
    let mut vocab = Vocabulary::new();
    crawler.run_until(30_000, &mut judge, &mut vocab);
    assert!(
        crawler.stats().stored_pages > base_stored,
        "no progress between saves"
    );

    let (store_len, crawler_len, manifest_len) = save_sizes(&crawler, "matrix");
    let total = store_len + crawler_len + manifest_len;
    // Exact file boundaries: before the first byte, one byte into the
    // store snapshot, the gap after each file, the last manifest byte.
    let mut budgets: Vec<u64> = vec![
        0,
        1,
        store_len - 1,
        store_len,
        store_len + 1,
        store_len + crawler_len - 1,
        store_len + crawler_len,
        store_len + crawler_len + 1,
        total - 1,
    ];
    // Seed-driven sweep over everything in between.
    for seed in crash_seeds() {
        for i in 0u64..4 {
            budgets.push(fxhash::hash_one(&(seed, i)) % total);
        }
    }
    budgets.sort_unstable();
    budgets.dedup();
    budgets.retain(|b| *b < total);

    for budget in budgets {
        let fs = CrashFs::with_budget(budget);
        let outcome = crawler.save_session_with(&fs, &dir);
        assert!(
            outcome.is_err(),
            "budget {budget}: save must report the crash"
        );
        assert!(fs.crashed(), "budget {budget}: crash must have fired");

        let resumed = Crawler::resume_session(world.clone(), CrawlConfig::default(), &dir)
            .unwrap_or_else(|e| panic!("budget {budget}: resume failed: {e}"));
        assert_eq!(
            resumed.stats().stored_pages,
            base_stored,
            "budget {budget}: resume must recover the base generation"
        );
    }

    // A budget past the whole save goes through untouched...
    let fs = CrashFs::with_budget(total + 4096);
    crawler
        .save_session_with(&fs, &dir)
        .expect("roomy budget saves fine");
    assert!(!fs.crashed());
    // ...and resume now sees the new state, not the old base.
    let resumed = Crawler::resume_session(world.clone(), CrawlConfig::default(), &dir)
        .expect("resume after clean save");
    assert_eq!(resumed.stats().stored_pages, crawler.stats().stored_pages);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn continuation_after_crash_matches_uninterrupted_harvest() {
    let world = small_world(42);

    // Uninterrupted reference run to frontier exhaustion.
    let reference = crawler_at(&world, u64::MAX);
    let ref_stored = reference.stats().stored_pages;
    let ref_ratio = ref_stored as f64 / reference.stats().visited_urls as f64;
    assert!(ref_stored > 20, "reference harvest too small: {ref_stored}");

    // Interrupted run: checkpoint at ~half the harvest, make more
    // progress, then die mid-save. Everything after the good
    // checkpoint is lost.
    let dir = fresh_dir("continuation");
    let mut doomed = Crawler::new(world.clone(), CrawlConfig::default(), DocumentStore::new());
    doomed.add_seed(&world.url_of(1), Some(0));
    let mut judge = accept_all();
    let mut vocab = Vocabulary::new();
    while doomed.stats().stored_pages < ref_stored / 2 {
        assert_ne!(
            doomed.step(&mut judge, &mut vocab),
            StepOutcome::FrontierEmpty,
            "frontier drained before 50%"
        );
    }
    doomed.save_session(&dir).expect("mid-crawl save");
    let saved_stored = doomed.stats().stored_pages;
    for _ in 0..50 {
        if doomed.step(&mut judge, &mut vocab) == StepOutcome::FrontierEmpty {
            break;
        }
    }
    let (store_len, _, _) = save_sizes(&doomed, "continuation");
    let fs = CrashFs::with_budget(store_len / 2);
    assert!(doomed.save_session_with(&fs, &dir).is_err());
    drop(doomed); // killed

    // Resume recovers the good checkpoint and finishes the crawl.
    let mut resumed = Crawler::resume_session(world.clone(), CrawlConfig::default(), &dir)
        .expect("resume after crash");
    assert_eq!(resumed.stats().stored_pages, saved_stored);
    let mut judge = accept_all();
    let mut vocab = Vocabulary::new();
    resumed.run_until(u64::MAX, &mut judge, &mut vocab);

    let res_ratio = resumed.stats().stored_pages as f64 / resumed.stats().visited_urls as f64;
    let drift = (res_ratio - ref_ratio).abs() / ref_ratio;
    assert!(
        drift <= 0.02,
        "harvest ratio drifted {:.2}% (reference {ref_ratio:.4}, resumed {res_ratio:.4})",
        drift * 100.0
    );
    std::fs::remove_dir_all(&dir).ok();
}
