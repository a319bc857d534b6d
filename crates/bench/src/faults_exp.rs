//! Fault-scenario experiment: crawl robustness under deterministic
//! chaos (ISSUE 2 tentpole; extends the paper's Section 4.2 failure
//! handling with measurements the paper never reports).
//!
//! Three crawls over the same scenario seed:
//!
//! 1. **clean** — the fault-free world, as an upper bound,
//! 2. **chaos** — the same world with the chaos fault plan (5xx
//!    bursts, outages, slow drips, truncated/garbled bodies, DNS
//!    flaps, redirect loops), uninterrupted,
//! 3. **chaos, killed + resumed** — the same chaos crawl killed at 50%
//!    of the uninterrupted document budget and resumed from its last
//!    automatic checkpoint.
//!
//! The report compares harvest ratios (stored / visited) and surfaces
//! the breaker/retry counters, demonstrating the acceptance criterion:
//! the resumed crawl converges to the uninterrupted harvest ratio.

use bingo_crawler::{CrawlConfig, CrawlStats, Crawler, Judgment, StepOutcome};
use bingo_store::DocumentStore;
use bingo_textproc::Vocabulary;
use bingo_webworld::gen::WorldConfig;
use serde::Serialize;
use std::sync::Arc;

/// Tuning for the fault-scenario experiment.
#[derive(Debug, Clone)]
pub struct FaultsConfig {
    /// Scenario seed (world layout and fault plan).
    pub seed: u64,
    /// Automatic checkpoint interval (stored documents).
    pub checkpoint_every_docs: u64,
    /// Directory the kill/resume session is written into.
    pub session_dir: std::path::PathBuf,
}

impl Default for FaultsConfig {
    fn default() -> Self {
        FaultsConfig {
            seed: 91,
            checkpoint_every_docs: 10,
            session_dir: std::env::temp_dir().join("bingo-faults-exp"),
        }
    }
}

/// One crawl's summary in the report.
#[derive(Debug, Clone, Serialize)]
pub struct CrawlSummary {
    /// Which crawl this is ("clean", "chaos", "chaos-resumed").
    pub label: String,
    /// Harvest ratio: stored / visited URLs.
    pub harvest_ratio: f64,
    /// Full crawl counters.
    pub stats: CrawlStats,
}

/// The whole experiment's result.
#[derive(Debug, Clone, Serialize)]
pub struct FaultsOutcome {
    /// Scenario seed.
    pub seed: u64,
    /// Faulty hosts in the chaos plan.
    pub faulty_hosts: usize,
    /// The three crawls.
    pub crawls: Vec<CrawlSummary>,
    /// Stored documents at which the chaos crawl was killed.
    pub killed_at_docs: u64,
    /// |resumed ratio - uninterrupted ratio| / uninterrupted ratio.
    pub resume_ratio_drift: f64,
    /// Fraction of the uninterrupted harvest also present after resume.
    pub resume_harvest_overlap: f64,
}

fn accept_all(
) -> impl FnMut(&bingo_textproc::AnalyzedDocument, &bingo_crawler::PageContext) -> Judgment {
    |_doc, _ctx| Judgment {
        topic: Some(0),
        confidence: 1.0,
    }
}

fn crawl_to_end(crawler: &mut Crawler) -> (CrawlSummary, Vec<u64>) {
    let mut judge = accept_all();
    let mut vocab = Vocabulary::new();
    crawler.run_until(u64::MAX, &mut judge, &mut vocab);
    let stats = crawler.stats().clone();
    let mut ids: Vec<u64> = crawler
        .store()
        .all_documents()
        .iter()
        .map(|d| d.id)
        .collect();
    ids.sort_unstable();
    (
        CrawlSummary {
            label: String::new(),
            harvest_ratio: stats.stored_pages as f64 / stats.visited_urls.max(1) as f64,
            stats,
        },
        ids,
    )
}

/// Run the experiment.
pub fn run(cfg: &FaultsConfig) -> FaultsOutcome {
    let base = CrawlConfig {
        max_depth: 0,
        ..CrawlConfig::default()
    };
    let seed_crawler = |world: &Arc<bingo_webworld::World>, config: CrawlConfig| {
        let mut c = Crawler::new(world.clone(), config, DocumentStore::new());
        c.add_seed(&world.url_of(1), Some(0));
        c
    };

    // 1. Fault-free upper bound.
    let clean_world = Arc::new(WorldConfig::small_test(cfg.seed).build());
    let mut clean = seed_crawler(&clean_world, base.clone());
    let (mut clean_summary, _) = crawl_to_end(&mut clean);
    clean_summary.label = "clean".into();

    // 2. Chaos, uninterrupted.
    let chaos_world = Arc::new(WorldConfig::chaos(cfg.seed).build());
    let faulty_hosts = chaos_world.faults().faulty();
    let mut chaos = seed_crawler(&chaos_world, base.clone());
    let (mut chaos_summary, chaos_ids) = crawl_to_end(&mut chaos);
    chaos_summary.label = "chaos".into();
    let budget = chaos_summary.stats.stored_pages;

    // 3. Chaos, killed at 50% of the budget and resumed from the last
    // automatic checkpoint.
    std::fs::remove_dir_all(&cfg.session_dir).ok();
    let ckpt_config = CrawlConfig {
        checkpoint_every_docs: cfg.checkpoint_every_docs,
        checkpoint_dir: Some(cfg.session_dir.clone()),
        ..base.clone()
    };
    let killed_at_docs = {
        let mut doomed = seed_crawler(&chaos_world, ckpt_config);
        let mut judge = accept_all();
        let mut vocab = Vocabulary::new();
        while doomed.stats().stored_pages < budget / 2 {
            if doomed.step(&mut judge, &mut vocab) == StepOutcome::FrontierEmpty {
                break;
            }
        }
        doomed.stats().stored_pages
        // Dropped here: everything after the last checkpoint is lost.
    };
    let mut resumed = Crawler::resume_session(chaos_world.clone(), base, &cfg.session_dir)
        .expect("resume from checkpoint");
    let (mut resumed_summary, resumed_ids) = crawl_to_end(&mut resumed);
    resumed_summary.label = "chaos-resumed".into();
    std::fs::remove_dir_all(&cfg.session_dir).ok();

    let drift = (resumed_summary.harvest_ratio - chaos_summary.harvest_ratio).abs()
        / chaos_summary.harvest_ratio.max(f64::EPSILON);
    let overlap = resumed_ids
        .iter()
        .filter(|id| chaos_ids.binary_search(id).is_ok())
        .count() as f64
        / chaos_ids.len().max(1) as f64;

    FaultsOutcome {
        seed: cfg.seed,
        faulty_hosts,
        crawls: vec![clean_summary, chaos_summary, resumed_summary],
        killed_at_docs,
        resume_ratio_drift: drift,
        resume_harvest_overlap: overlap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_meets_acceptance_criteria() {
        let cfg = FaultsConfig {
            session_dir: std::env::temp_dir().join("bingo-faults-exp-test"),
            ..FaultsConfig::default()
        };
        let out = run(&cfg);
        assert_eq!(out.crawls.len(), 3);
        assert!(out.faulty_hosts > 0);
        let chaos = &out.crawls[1];
        assert!(chaos.stats.retries > 0);
        assert!(chaos.stats.breaker_opened > 0);
        assert!(
            out.resume_ratio_drift <= 0.02,
            "drift {:.4} over 2%",
            out.resume_ratio_drift
        );
        assert!(out.resume_harvest_overlap >= 0.98);
    }
}
