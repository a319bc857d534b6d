//! Every numeric setting of the crawl, drawn over its whole range (0
//! and the type's maximum included), runs a short crawl without a
//! panic. Counts that start threads are drawn from 1–4 only.

use bingo_crawler::{
    run_pipeline, CrawlConfig, CrawlTelemetry, Crawler, Judgment, PageContext, PipelineOptions,
};
use bingo_store::DocumentStore;
use bingo_textproc::{AnalyzedDocument, SharedVocabulary, Vocabulary};
use bingo_webworld::gen::WorldConfig;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Virtual budget of one crawl: a few seconds of a `small_test` world.
const BUDGET_MS: u64 = 4_000;

/// Accepts two pages in three and rejects the rest, so rejected pages
/// tunnel.
fn some_rejected(_: &AnalyzedDocument, ctx: &PageContext) -> Judgment {
    if ctx.page_id.is_multiple_of(3) {
        Judgment::reject(-0.5)
    } else {
        Judgment {
            topic: Some(0),
            confidence: 0.8,
        }
    }
}

fn edge_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0), Just(u32::MAX), 0u32..8, any::<u32>()]
}

fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), Just(u64::MAX), 0u64..8, any::<u64>()]
}

fn edge_usize() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0), Just(usize::MAX), 0usize..8, any::<usize>()]
}

/// A fresh checkpoint directory per case.
fn checkpoint_dir() -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bingo-knobs-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_crawl_config_value_panics_a_crawl(
        seed in 0u64..4,
        harvesting in any::<bool>(),
        max_depth in edge_u32(),
        max_tunnel in edge_u32(),
        incoming_queue_cap in edge_usize(),
        checkpoint_every_docs in edge_u64(),
    ) {
        let world = Arc::new(WorldConfig::small_test(seed).build());
        let dir = checkpoint_dir();
        let phase = if harvesting {
            CrawlConfig::default().harvesting()
        } else {
            CrawlConfig::default()
        };
        let config = CrawlConfig {
            max_depth,
            max_tunnel,
            incoming_queue_cap,
            checkpoint_every_docs,
            checkpoint_dir: Some(dir.clone()),
            ..phase
        };
        let mut crawler = Crawler::new(world.clone(), config, DocumentStore::new());
        crawler.add_seed(&world.url_of(1), Some(0));
        let mut judge = some_rejected;
        crawler.run_until(BUDGET_MS, &mut judge, &mut Vocabulary::new());
        std::fs::remove_dir_all(&dir).ok();
        prop_assert!(crawler.stats().visited_urls > 0);
    }

    #[test]
    fn no_pipeline_options_value_panics_a_run(
        seed in 0u64..4,
        threads in 1usize..=4,
        batch_size in edge_usize(),
    ) {
        let world = Arc::new(WorldConfig::small_test(seed).build());
        let urls = (0..world.page_count() as u64)
            .map(|id| (world.url_of(id), Some(0)))
            .collect();
        let store = DocumentStore::new();
        let telemetry = CrawlTelemetry::default();
        let report = run_pipeline(
            Arc::clone(&world),
            store.clone(),
            urls,
            &SharedVocabulary::new(),
            &some_rejected,
            &telemetry,
            &PipelineOptions::flat(threads, batch_size),
        );
        let panics = telemetry.registry.snapshot().counters["crawl.worker.panics"];
        prop_assert_eq!(panics, 0);
        prop_assert!(report.documents > 0);
        prop_assert_eq!(report.documents as usize, store.document_count());
    }
}
