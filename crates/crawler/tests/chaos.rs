//! Chaos-scenario regression tests: determinism of faulty crawls and
//! the checkpoint/resume acceptance criterion — a crawl killed at 50%
//! of its document budget and resumed from the last automatic
//! checkpoint converges to the harvest ratio of an uninterrupted run.

use bingo_crawler::hosts::MAX_BACKOFF_MS;
use bingo_crawler::{BreakerState, CrawlConfig, Crawler, Judgment, PageContext, StepOutcome};
use bingo_store::durable::CrashFs;
use bingo_store::DocumentStore;
use bingo_textproc::{AnalyzedDocument, Vocabulary};
use bingo_webworld::gen::WorldConfig;
use std::sync::Arc;

fn accept_all() -> impl FnMut(&AnalyzedDocument, &PageContext) -> Judgment {
    |_doc, _ctx| Judgment {
        topic: Some(0),
        confidence: 1.0,
    }
}

fn chaos_crawler(seed: u64, config: CrawlConfig) -> Crawler {
    let world = Arc::new(WorldConfig::chaos(seed).build());
    assert!(
        !world.faults().is_empty(),
        "chaos world must install faults"
    );
    let mut crawler = Crawler::new(world.clone(), config, DocumentStore::new());
    crawler.add_seed(&world.url_of(1), Some(0));
    crawler
}

fn base_config() -> CrawlConfig {
    CrawlConfig {
        max_depth: 0,
        ..CrawlConfig::default()
    }
}

/// Run to frontier exhaustion; return (stats JSON, sorted harvest ids).
fn run_to_end(crawler: &mut Crawler) -> (String, Vec<u64>) {
    let mut judge = accept_all();
    let mut vocab = Vocabulary::new();
    crawler.run_until(u64::MAX, &mut judge, &mut vocab);
    let mut ids: Vec<u64> = crawler
        .store()
        .all_documents()
        .iter()
        .map(|d| d.id)
        .collect();
    ids.sort_unstable();
    (serde_json::to_string(crawler.stats()).unwrap(), ids)
}

#[test]
fn same_seed_chaos_runs_are_byte_identical() {
    let run = || {
        let mut crawler = chaos_crawler(77, base_config());
        run_to_end(&mut crawler)
    };
    let (stats_a, ids_a) = run();
    let (stats_b, ids_b) = run();
    assert!(!ids_a.is_empty(), "chaos crawl must store documents");
    assert_eq!(stats_a, stats_b, "CrawlStats must be byte-identical");
    assert_eq!(ids_a, ids_b, "harvest sets must be identical");
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the byte-identity test has teeth: a different
    // scenario seed produces a different crawl.
    let (stats_a, _) = run_to_end(&mut chaos_crawler(77, base_config()));
    let (stats_b, _) = run_to_end(&mut chaos_crawler(78, base_config()));
    assert_ne!(stats_a, stats_b);
}

#[test]
fn killed_at_half_budget_resumes_to_same_harvest_ratio() {
    let seed = 91;

    // Uninterrupted reference run.
    let mut reference = chaos_crawler(seed, base_config());
    let (_, ref_ids) = run_to_end(&mut reference);
    let budget = reference.stats().stored_pages;
    let ref_ratio = reference.stats().stored_pages as f64 / reference.stats().visited_urls as f64;
    assert!(budget > 40, "reference harvest too small: {budget}");

    // Same scenario with automatic checkpoints every 10 documents;
    // "kill" the crawl (drop the crawler) at 50% of the budget.
    let dir = std::env::temp_dir().join("bingo-chaos-resume-test");
    std::fs::remove_dir_all(&dir).ok();
    let ckpt_config = CrawlConfig {
        checkpoint_every_docs: 10,
        checkpoint_dir: Some(dir.clone()),
        ..base_config()
    };
    {
        let mut doomed = chaos_crawler(seed, ckpt_config.clone());
        let mut judge = accept_all();
        let mut vocab = Vocabulary::new();
        while doomed.stats().stored_pages < budget / 2 {
            if doomed.step(&mut judge, &mut vocab) == StepOutcome::FrontierEmpty {
                panic!("frontier drained before 50%");
            }
        }
        assert!(
            doomed.stats().checkpoints_written > 0,
            "no checkpoint written"
        );
        // Killed here: state after the last checkpoint is lost.
    }

    // Resume twice from the same checkpoint directory: both resumed
    // runs must be byte-identical to each other...
    let world = Arc::new(WorldConfig::chaos(seed).build());
    let resume = || {
        // Resume without further auto-checkpoints, so the second resume
        // reads the same (kill-time) session, not one the first resumed
        // run wrote.
        let resume_config = CrawlConfig {
            checkpoint_every_docs: 0,
            checkpoint_dir: None,
            ..ckpt_config.clone()
        };
        let mut crawler = Crawler::resume_session(world.clone(), resume_config, &dir).unwrap();
        assert!(
            crawler.stats().stored_pages >= budget / 2 - 10,
            "checkpoint missing recent progress"
        );
        run_to_end(&mut crawler)
    };
    let (stats_1, ids_1) = resume();
    let (stats_2, ids_2) = resume();
    assert_eq!(stats_1, stats_2, "same-seed resumes must be byte-identical");
    assert_eq!(ids_1, ids_2);

    // ...and converge to the uninterrupted run's harvest ratio within
    // 2%. (Exact equality is not guaranteed: the DNS cache is not part
    // of checkpoints, so resumed fetch timing can shift which fault
    // windows individual fetches hit.)
    let resumed: bingo_crawler::CrawlStats = serde_json::from_str(&stats_1).unwrap();
    let res_ratio = resumed.stored_pages as f64 / resumed.visited_urls as f64;
    let drift = (res_ratio - ref_ratio).abs() / ref_ratio;
    assert!(
        drift <= 0.02,
        "harvest ratio drifted {:.2}% (reference {ref_ratio:.4}, resumed {res_ratio:.4})",
        drift * 100.0
    );
    // The resumed harvest covers essentially the same documents.
    let overlap = ids_1
        .iter()
        .filter(|id| ref_ids.binary_search(id).is_ok())
        .count();
    assert!(
        overlap as f64 >= 0.98 * ref_ids.len() as f64,
        "resumed harvest lost documents: {overlap}/{}",
        ref_ids.len()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_mid_checkpoint_under_chaos_recovers_with_sane_breakers() {
    // Chaos faults *and* a crash injected into a checkpoint write: the
    // resume must come back from the last complete generation with a
    // breaker state machine that still behaves — hosts re-derived from
    // the checkpoint make progress and nobody stays open forever.
    let seed = 91;
    let dir = std::env::temp_dir().join("bingo-chaos-crash-test");
    std::fs::remove_dir_all(&dir).ok();
    let ckpt_config = CrawlConfig {
        checkpoint_every_docs: 10,
        checkpoint_dir: Some(dir.clone()),
        ..base_config()
    };
    {
        let mut doomed = chaos_crawler(seed, ckpt_config.clone());
        let mut judge = accept_all();
        let mut vocab = Vocabulary::new();
        while doomed.stats().stored_pages < 40 {
            if doomed.step(&mut judge, &mut vocab) == StepOutcome::FrontierEmpty {
                panic!("frontier drained before enough progress");
            }
        }
        assert!(doomed.stats().checkpoints_written > 0, "no checkpoint");
        // The process dies partway through its next checkpoint write:
        // the store snapshot lands truncated in a temp file, the
        // manifest is never written.
        let fs = CrashFs::with_budget(512);
        assert!(doomed.save_session_with(&fs, &dir).is_err());
        assert!(fs.crashed());
    }

    let world = Arc::new(WorldConfig::chaos(seed).build());
    let resume_config = CrawlConfig {
        checkpoint_every_docs: 0,
        checkpoint_dir: None,
        ..ckpt_config
    };
    let mut crawler = Crawler::resume_session(world, resume_config, &dir)
        .expect("crashed checkpoint must roll back to the last generation");
    let resumed_at = crawler.stats().stored_pages;
    assert!(resumed_at >= 10, "resume lost the checkpointed harvest");

    // Breaker sanity straight out of the checkpoint: every re-derived
    // open window is bounded by the breaker's own backoff cap.
    let horizon = |clock: u64| clock + MAX_BACKOFF_MS + 1;
    for (host, _, _) in crawler.host_states() {
        if let BreakerState::Open { until_ms } = crawler.breaker_state(&host) {
            assert!(
                until_ms <= horizon(crawler.stats().elapsed_ms),
                "{host} resumed with an unbounded open window"
            );
        }
    }

    // The crawl still terminates and makes progress under chaos.
    let (_, ids) = run_to_end(&mut crawler);
    assert!(
        crawler.stats().stored_pages > resumed_at,
        "no progress after resume"
    );
    assert!(!ids.is_empty());

    // And at the end no host is stuck open beyond the final horizon:
    // open windows expire, then either close via a probe or die.
    for (host, _, fails) in crawler.host_states() {
        match crawler.breaker_state(&host) {
            BreakerState::Open { until_ms } => assert!(
                until_ms <= horizon(crawler.stats().elapsed_ms),
                "{host} stuck open past the backoff horizon"
            ),
            BreakerState::Closed | BreakerState::HalfOpen | BreakerState::Dead => {}
        }
        assert!(fails <= 1_000, "{host} accumulated absurd failure count");
    }
    std::fs::remove_dir_all(&dir).ok();
}
