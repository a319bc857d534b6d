//! The real-thread executor: flat runs, and the supervision that keeps
//! a run alive through panicking documents.

mod support;

use bingo_crawler::{run_pipeline, CrawlTelemetry, Judgment, PageContext, PipelineOptions};
use bingo_store::DocumentStore;
use bingo_textproc::fxhash::FxHashMap;
use bingo_textproc::{AnalyzedDocument, SharedVocabulary};
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::{DnsError, FetchOutcome, HostBehavior, World};
use std::sync::Arc;
use support::PanicJudge;

fn accept_all() -> impl Fn(&AnalyzedDocument, &PageContext) -> Judgment + Sync {
    |_doc, _ctx| Judgment {
        topic: Some(0),
        confidence: 1.0,
    }
}

/// Healthy pages (no faults, no redirects, no truncation) whose
/// response fingerprints are globally unique, so duplicate
/// elimination keeps them all regardless of processing order.
fn unique_healthy_urls(world: &World) -> Vec<String> {
    let mut by_fingerprint: FxHashMap<(u32, u64), Vec<u64>> = FxHashMap::default();
    for id in 0..world.page_count() as u64 {
        let page = world.page(id);
        if page.size_hint.is_some()
            || page.redirect_to.is_some()
            || world.host(page.host).behavior != HostBehavior::Normal
        {
            continue;
        }
        let FetchOutcome::Ok(resp) = world.fetch(&world.url_of(id), 0) else {
            continue;
        };
        by_fingerprint
            .entry((resp.ip, resp.size))
            .or_default()
            .push(id);
    }
    let mut ids: Vec<u64> = by_fingerprint
        .into_values()
        .filter(|ids| ids.len() == 1)
        .flatten()
        .collect();
    ids.sort_unstable();
    ids.into_iter().map(|id| world.url_of(id)).collect()
}

#[test]
fn flat_run_stores_all_unique_healthy_urls() {
    let world = Arc::new(WorldConfig::small_test(41).build());
    let urls = unique_healthy_urls(&world);
    assert!(urls.len() >= 10, "world too hostile for the test");
    let store = DocumentStore::new();
    let vocab = SharedVocabulary::new();
    let telemetry = CrawlTelemetry::default();
    let report = run_pipeline(
        Arc::clone(&world),
        store.clone(),
        urls.iter().map(|u| (u.clone(), None)).collect(),
        &vocab,
        &accept_all(),
        &telemetry,
        &PipelineOptions::flat(4, 32),
    );
    assert_eq!(report.documents as usize, urls.len());
    assert_eq!(store.document_count(), urls.len());
    assert!(report.quarantined.is_empty());
    // Classification ran: every stored row carries the judgment.
    store.for_each_document(|row| {
        assert_eq!(row.topic, Some(0));
        assert_eq!(row.depth, 0);
    });
    let snap = telemetry.registry.snapshot();
    assert_eq!(snap.counters["pipeline.load.docs"], urls.len() as u64);
    assert_eq!(snap.counters["crawl.stored"], urls.len() as u64);
    assert_eq!(snap.counters["crawl.worker.panics"], 0);
}

#[test]
fn single_thread_works() {
    let world = Arc::new(WorldConfig::small_test(42).build());
    let urls = vec![world.url_of(1), world.url_of(2)];
    let store = DocumentStore::new();
    let vocab = SharedVocabulary::new();
    let report = run_pipeline(
        Arc::clone(&world),
        store,
        urls.into_iter().map(|u| (u, None)).collect(),
        &vocab,
        &accept_all(),
        &CrawlTelemetry::default(),
        &PipelineOptions::flat(1, 1),
    );
    assert!(report.documents >= 1);
}

#[test]
fn a_batch_size_past_any_allocation_stores_what_a_small_one_does() {
    // A workspace reserves at most the store's default batch up front,
    // so a batch size no allocation can hold runs like any other.
    let world = Arc::new(WorldConfig::small_test(7).build());
    let urls: Vec<(String, Option<u32>)> = (0..world.page_count() as u64)
        .map(|id| (world.url_of(id), Some(0)))
        .collect();
    let stored_ids = |batch_size: usize| {
        let store = DocumentStore::new();
        let telemetry = CrawlTelemetry::default();
        let report = run_pipeline(
            Arc::clone(&world),
            store.clone(),
            urls.clone(),
            &SharedVocabulary::new(),
            &accept_all(),
            &telemetry,
            &PipelineOptions::flat(1, batch_size),
        );
        let snap = telemetry.registry.snapshot();
        assert_eq!(snap.counters["crawl.worker.panics"], 0, "{batch_size}");
        assert_eq!(report.documents as usize, store.document_count());
        let mut ids: Vec<u64> = store.all_documents().iter().map(|d| d.id).collect();
        ids.sort_unstable();
        ids
    };
    let small = stored_ids(64);
    assert!(small.len() > 10, "{} documents", small.len());
    assert_eq!(stored_ids(usize::MAX), small);
}

#[test]
fn unresolvable_host_costs_one_lookup() {
    // NxDomain is permanent: no retry, one fetch error, nothing stored.
    let world = Arc::new(WorldConfig::small_test(42).build());
    assert_eq!(
        world.dns_lookup("unknown.invalid", 0),
        Err(DnsError::NxDomain)
    );
    let store = DocumentStore::new();
    let report = run_pipeline(
        Arc::clone(&world),
        store.clone(),
        vec![("http://unknown.invalid/a.html".to_string(), None)],
        &SharedVocabulary::new(),
        &accept_all(),
        &CrawlTelemetry::default(),
        &PipelineOptions::flat(1, 1),
    );
    assert_eq!(report.documents, 0);
    assert_eq!(store.document_count(), 0);
    assert_eq!(report.stats.visited_urls, 1);
    assert_eq!(report.stats.fetch_errors, 1, "NxDomain was retried");
}

#[test]
fn transient_panics_recover_every_document() {
    // Every URL the judge selects panics once, then behaves: its worker
    // re-runs the panicked batch item by item and the run still stores
    // everything.
    let world = Arc::new(WorldConfig::small_test(41).build());
    let urls = unique_healthy_urls(&world);
    assert!(urls.len() >= 10);
    let judge = PanicJudge::new(7, 4, 1);
    assert!(
        urls.iter().any(|u| judge.selects(u)),
        "judge must select at least one URL"
    );
    let store = DocumentStore::new();
    let vocab = SharedVocabulary::new();
    let telemetry = CrawlTelemetry::default();
    let report = run_pipeline(
        Arc::clone(&world),
        store.clone(),
        urls.iter().map(|u| (u.clone(), None)).collect(),
        &vocab,
        &judge,
        &telemetry,
        &PipelineOptions::flat(4, 8),
    );
    assert_eq!(report.documents as usize, urls.len(), "nothing lost");
    assert!(report.quarantined.is_empty(), "transient faults recover");
    let snap = telemetry.registry.snapshot();
    assert!(snap.counters["crawl.worker.panics"] > 0);
    assert!(snap.counters["crawl.worker.requeued"] > 0);
    assert_eq!(snap.counters["crawl.worker.quarantined"], 0);
}

#[test]
fn poisoned_documents_are_quarantined_not_retried_forever() {
    let world = Arc::new(WorldConfig::small_test(41).build());
    let urls = unique_healthy_urls(&world);
    let judge = PanicJudge::new(13, 5, u32::MAX); // deterministic crashers
    let poisoned: Vec<String> = urls.iter().filter(|u| judge.selects(u)).cloned().collect();
    assert!(!poisoned.is_empty(), "judge must poison at least one URL");
    let store = DocumentStore::new();
    let vocab = SharedVocabulary::new();
    let telemetry = CrawlTelemetry::default();
    let report = run_pipeline(
        Arc::clone(&world),
        store.clone(),
        urls.iter().map(|u| (u.clone(), None)).collect(),
        &vocab,
        &judge,
        &telemetry,
        &PipelineOptions::flat(4, 8),
    );
    let mut expected = poisoned.clone();
    expected.sort_unstable();
    assert_eq!(report.quarantined, expected, "exactly the poisoned docs");
    assert_eq!(
        report.documents as usize,
        urls.len() - poisoned.len(),
        "everything else stored"
    );
    let stored_urls: std::collections::BTreeSet<String> =
        store.all_documents().into_iter().map(|d| d.url).collect();
    for url in &poisoned {
        assert!(!stored_urls.contains(url), "quarantined doc in store");
    }
    let snap = telemetry.registry.snapshot();
    assert_eq!(
        snap.counters["crawl.worker.quarantined"],
        poisoned.len() as u64
    );
}

#[test]
fn panic_telemetry_is_deterministic_single_threaded() {
    // With one worker the batch composition is deterministic, so
    // two identical fault-injected runs must emit byte-identical
    // telemetry — panic, requeue and quarantine events included — and
    // fill byte-identical stores: the run reads no clock, so no row
    // carries a timestamp that could differ.
    let run = || {
        let world = Arc::new(WorldConfig::small_test(44).build());
        let urls = unique_healthy_urls(&world);
        let store = DocumentStore::new();
        let telemetry = CrawlTelemetry::default();
        run_pipeline(
            Arc::clone(&world),
            store.clone(),
            urls.iter().map(|u| (u.clone(), None)).collect(),
            &SharedVocabulary::new(),
            &PanicJudge::new(3, 6, u32::MAX),
            &telemetry,
            &PipelineOptions::flat(1, 8),
        );
        let mut snapshot = Vec::new();
        bingo_store::persist::write_snapshot(&store, &mut snapshot).expect("snapshot");
        (
            telemetry.registry.snapshot().to_json(),
            telemetry.events.to_jsonl(),
            snapshot,
        )
    };
    let (snap_a, events_a, store_a) = run();
    let (snap_b, events_b, store_b) = run();
    assert!(events_a.contains("crawl.worker.panic"), "panics logged");
    assert!(!store_a.is_empty());
    assert_eq!(snap_a, snap_b);
    assert_eq!(events_a, events_b);
    assert!(store_a == store_b, "stores differ byte-wise");
}

#[test]
fn a_third_of_the_urls_crashing_quarantines_exactly_the_crashers() {
    // The poison budget is per URL: however many documents crash, a
    // healthy one is never quarantined. A budget shared by the whole
    // run (one charge per panic) ran out here and quarantined
    // healthy URLs with the crashers.
    let world = Arc::new(WorldConfig::portal(2003, 500, 1).build());
    let urls: Vec<String> = unique_healthy_urls(&world)
        .into_iter()
        .take(2_400)
        .collect();
    assert_eq!(urls.len(), 2_400, "world too small for the test");
    let judge = PanicJudge::new(11, 3, u32::MAX);
    let crashing: Vec<String> = urls.iter().filter(|u| judge.selects(u)).cloned().collect();
    assert!(
        (600..=1_000).contains(&crashing.len()),
        "about a third must crash, not {}",
        crashing.len()
    );
    let store = DocumentStore::new();
    let report = run_pipeline(
        Arc::clone(&world),
        store.clone(),
        urls.iter().map(|u| (u.clone(), None)).collect(),
        &SharedVocabulary::new(),
        &judge,
        &CrawlTelemetry::default(),
        &PipelineOptions::flat(1, 8),
    );
    let mut expected = crashing.clone();
    expected.sort_unstable();
    assert_eq!(report.quarantined, expected, "exactly the crashing URLs");
    let stored: std::collections::BTreeSet<String> =
        store.all_documents().into_iter().map(|d| d.url).collect();
    let healthy: std::collections::BTreeSet<String> =
        urls.iter().filter(|u| !judge.selects(u)).cloned().collect();
    assert_eq!(stored, healthy, "every other URL stored");
}
