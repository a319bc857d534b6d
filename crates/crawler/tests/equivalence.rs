//! Executor equivalence: the deterministic discrete-event crawler and
//! the real-thread batch executor drive the *same* staged document
//! pipeline, so storing the same URL list with the same judge must
//! produce identical store contents — same documents, same depths, same
//! terms, same link rows — modulo row order and `fetched_at` (virtual
//! time against 0). Term ids are each run's own: the threaded executor
//! interns in arrival order, so rows are compared as term text, each
//! read through the dictionary its run wrote.
//!
//! The real-thread executor runs a flat work list and follows no links,
//! so the discrete-event `Crawler` is seeded with the *whole* list: it
//! has nothing left to discover, stores every URL at depth 0, and any
//! link it did follow would show up as an extra row or a depth ≥ 1.
//!
//! The list is every page of the "calm" hosts (no faults, redirects,
//! truncation, path aliases or fingerprint collisions) because
//! response-fingerprint duplicate elimination and breaker-driven drops
//! are inherently order-dependent: outside that universe the two
//! executors are allowed to keep different representatives of a
//! duplicate class.

mod support;

use bingo_crawler::{
    BatchJudge, CrawlConfig, CrawlTelemetry, Crawler, Judgment, PageContext, PipelineOptions,
    StepOutcome,
};
use bingo_store::{DocumentStore, LinkRow};
use bingo_textproc::fxhash::{FxHashMap, FxHashSet};
use bingo_textproc::{AnalyzedDocument, SharedVocabulary, TermId, Vocabulary};
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::{FetchOutcome, HostBehavior, World};
use std::sync::Arc;
use support::PanicJudge;

/// Hosts whose every page fetches cleanly (no redirects, truncation or
/// scripted faults) and collides with no other selected page on either
/// duplicate fingerprint — (IP, path) or (IP, size).
fn calm_hosts(world: &World) -> FxHashSet<String> {
    let mut pages_by_host: FxHashMap<u32, Vec<u64>> = FxHashMap::default();
    for id in 0..world.page_count() as u64 {
        pages_by_host
            .entry(world.page(id).host)
            .or_default()
            .push(id);
    }
    let mut host_ids: Vec<u32> = pages_by_host.keys().copied().collect();
    host_ids.sort_unstable();

    let mut used_path: FxHashSet<(u32, String)> = FxHashSet::default();
    let mut used_size: FxHashSet<(u32, u64)> = FxHashSet::default();
    let mut allowed = FxHashSet::default();
    'hosts: for host_id in host_ids {
        let host = world.host(host_id);
        if host.behavior != HostBehavior::Normal {
            continue;
        }
        let ids = &pages_by_host[&host_id];
        let mut fingerprints = Vec::with_capacity(ids.len());
        for &id in ids {
            let page = world.page(id);
            // An aliased page stores under whichever of its URLs the
            // executor happens to fetch first — order-dependent.
            if page.size_hint.is_some()
                || page.redirect_to.is_some()
                || world.alias_url_of(id).is_some()
            {
                continue 'hosts;
            }
            let FetchOutcome::Ok(resp) = world.fetch(&world.url_of(id), 0) else {
                continue 'hosts;
            };
            fingerprints.push(((resp.ip, page.path.clone()), (resp.ip, resp.size)));
        }
        let mut path_probe = used_path.clone();
        let mut size_probe = used_size.clone();
        if !fingerprints
            .iter()
            .all(|(p, s)| path_probe.insert(p.clone()) && size_probe.insert(*s))
        {
            continue;
        }
        used_path = path_probe;
        used_size = size_probe;
        allowed.insert(host.name.clone());
    }
    allowed
}

/// Every page of the `allowed` hosts, sorted by URL.
fn calm_urls(world: &World, allowed: &FxHashSet<String>) -> Vec<String> {
    let mut urls: Vec<String> = (0..world.page_count() as u64)
        .filter(|&id| allowed.contains(&world.host(world.page(id).host).name))
        .map(|id| world.url_of(id))
        .collect();
    urls.sort();
    urls
}

/// A world without path aliases: an aliased page stores under whichever
/// of its URLs is fetched first, which is legitimately order-dependent.
fn alias_free_world() -> Arc<World> {
    Arc::new(
        WorldConfig {
            alias_fraction: 0.0,
            ..WorldConfig::small_test(41)
        }
        .build(),
    )
}

fn accept_all(_: &AnalyzedDocument, _: &PageContext) -> Judgment {
    Judgment {
        topic: Some(0),
        confidence: 1.0,
    }
}

/// The discrete-event crawler seeded with all of `seeds`, run until its
/// frontier empties: the store and the dictionary its rows use.
fn det_run(
    world: &Arc<World>,
    config: &CrawlConfig,
    seeds: &[String],
    store: DocumentStore,
) -> (DocumentStore, Vocabulary) {
    let mut crawler = Crawler::new(Arc::clone(world), config.clone(), store.clone());
    for url in seeds {
        crawler.add_seed(url, Some(0));
    }
    let mut vocab = Vocabulary::new();
    let mut judge = accept_all;
    while crawler.step(&mut judge, &mut vocab) != StepOutcome::FrontierEmpty {}
    (store, vocab)
}

/// The real-thread executor over `seeds`: the store and the dictionary
/// its rows use.
fn thr_run(
    world: &Arc<World>,
    seeds: &[String],
    store: DocumentStore,
) -> (DocumentStore, Vocabulary) {
    let shared = SharedVocabulary::new();
    bingo_crawler::run_pipeline(
        Arc::clone(world),
        store.clone(),
        seeds.iter().map(|u| (u.clone(), Some(0))).collect(),
        &shared,
        &accept_all,
        &CrawlTelemetry::default(),
        &PipelineOptions::flat(4, 7),
    );
    (store, shared.snapshot())
}

/// One comparable document row: everything except `fetched_at` (virtual
/// time vs. 0) — id, url, host, mime, depth, title, judgment, term
/// vector as `(term, frequency)` sorted by term, size.
type RowKey = (
    u64,
    String,
    u32,
    String,
    u32,
    String,
    Option<u32>,
    u32,
    Vec<(String, u32)>,
    usize,
);

/// Every row of `store`, its term ids read through `vocab`.
fn row_keys((store, vocab): &(DocumentStore, Vocabulary)) -> Vec<RowKey> {
    let mut rows: Vec<RowKey> = store
        .all_documents()
        .into_iter()
        .map(|r| {
            let mut terms: Vec<(String, u32)> = r
                .term_freqs
                .iter()
                .map(|&(t, f)| (vocab.term(TermId(t)).to_string(), f))
                .collect();
            terms.sort_unstable();
            (
                r.id,
                r.url,
                r.host,
                format!("{:?}", r.mime),
                r.depth,
                r.title,
                r.topic,
                r.confidence.to_bits(),
                terms,
                r.size,
            )
        })
        .collect();
    rows.sort();
    rows
}

fn link_keys((store, _): &(DocumentStore, Vocabulary)) -> Vec<(u64, u64, String)> {
    let mut links: Vec<(u64, u64, String)> = store
        .all_links()
        .into_iter()
        .map(|LinkRow { from, to, to_url }| (from, to, to_url))
        .collect();
    links.sort();
    links
}

#[test]
fn deterministic_and_threaded_executors_fill_identical_stores() {
    let world = alias_free_world();
    let allowed = calm_hosts(&world);
    assert!(allowed.len() >= 2, "world too hostile for the test");
    let seeds = calm_urls(&world, &allowed);
    let config = CrawlConfig {
        allowed_hosts: Some(allowed),
        ..CrawlConfig::default().harvesting()
    };

    let det_store = det_run(&world, &config, &seeds, DocumentStore::new());
    let thr_store = thr_run(&world, &seeds, DocumentStore::new());

    // Every seed stored once, at depth 0: a queue-cap drop or a
    // followed link fails here rather than hiding in the comparison.
    let det_rows = row_keys(&det_store);
    assert!(det_rows.len() >= 10, "too few rows: {}", det_rows.len());
    assert_eq!(det_rows.len(), seeds.len());
    assert!(det_rows.iter().all(|r| r.4 == 0), "a row beyond depth 0");
    assert!(det_store.0.link_count() > 0, "no link rows emitted");

    assert_eq!(det_rows, row_keys(&thr_store));
    assert_eq!(link_keys(&det_store), link_keys(&thr_store));
}

#[test]
fn segmented_store_runs_match_in_memory_byte_for_byte() {
    // Both executors over a disk-backed segmented store must produce
    // the same rows as over the plain in-memory store — and for the
    // deterministic executor the persisted snapshot must be
    // *byte-identical*, sealed segments and all.
    let world = alias_free_world();
    let allowed = calm_hosts(&world);
    assert!(allowed.len() >= 2, "world too hostile for the test");
    let seeds = calm_urls(&world, &allowed);
    let config = CrawlConfig {
        allowed_hosts: Some(allowed),
        ..CrawlConfig::default().harvesting()
    };

    let seg_dir = |tag: &str| {
        let dir = seg_dir2(tag);
        std::fs::remove_dir_all(&dir).ok();
        dir
    };
    // Seal every 16 documents so the run genuinely spans segments.
    let det_mem = det_run(&world, &config, &seeds, DocumentStore::new());
    let det_seg = det_run(
        &world,
        &config,
        &seeds,
        DocumentStore::segmented_with(seg_dir("det"), 16).expect("open"),
    );
    assert!(
        det_seg.0.segment_count() >= 2,
        "run too small to span segments: {}",
        det_seg.0.segment_count()
    );
    assert_eq!(det_mem.0.document_count(), seeds.len());
    assert_eq!(row_keys(&det_mem), row_keys(&det_seg));
    assert_eq!(link_keys(&det_mem), link_keys(&det_seg));

    // One dictionary each, built in the same order: the same ids.
    assert!(det_mem.1.iter().eq(det_seg.1.iter()));
    let snapshot_bytes = |store: &DocumentStore| {
        let mut buf = Vec::new();
        bingo_store::persist::write_snapshot(store, &mut buf).expect("snapshot");
        buf
    };
    assert_eq!(
        snapshot_bytes(&det_mem.0),
        snapshot_bytes(&det_seg.0),
        "segmented snapshot must serialize byte-identically to in-memory"
    );

    // The threaded executor's rows carry `fetched_at` 0, so it gets the
    // row/link comparison (everything but `fetched_at`).
    let thr_seg = thr_run(
        &world,
        &seeds,
        DocumentStore::segmented_with(seg_dir("thr"), 16).expect("open"),
    );
    assert!(thr_seg.0.segment_count() >= 2, "threaded run never sealed");
    assert_eq!(row_keys(&det_mem), row_keys(&thr_seg));
    assert_eq!(link_keys(&det_mem), link_keys(&thr_seg));

    // A reopened spine serves the identical rows back from disk.
    // (Seal the workspace tail first: unsealed rows live in memory.)
    let (det_seg, det_vocab) = det_seg;
    det_seg.seal_now().expect("final seal");
    drop(det_seg);
    let reopened = DocumentStore::segmented_with(seg_dir2("det"), 16).expect("reopen");
    assert_eq!(snapshot_bytes(&det_mem.0), snapshot_bytes(&reopened));
    assert_eq!(row_keys(&det_mem), row_keys(&(reopened, det_vocab)));

    std::fs::remove_dir_all(seg_dir2("det")).ok();
    std::fs::remove_dir_all(seg_dir2("thr")).ok();
}

/// The segment directory for `tag` without wiping it (unlike `seg_dir`
/// inside the test, which clears first).
fn seg_dir2(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("bingo-equiv-seg-{tag}"))
}

#[test]
fn panic_injected_run_matches_calm_run_minus_quarantined() {
    // The supervised executor's equivalence contract under faults: with
    // deterministic crashers injected, the run still completes and its
    // store equals the calm run's store minus exactly the quarantined
    // documents, row for row as term text.
    let world = alias_free_world();
    let urls = calm_urls(&world, &calm_hosts(&world));
    assert!(urls.len() >= 10, "world too hostile for the test");

    let run = |judge: &dyn BatchJudge| {
        let store = DocumentStore::new();
        let shared = SharedVocabulary::new();
        let report = bingo_crawler::run_pipeline(
            Arc::clone(&world),
            store.clone(),
            urls.iter().map(|u| (u.clone(), None)).collect(),
            &shared,
            judge,
            &CrawlTelemetry::default(),
            &PipelineOptions::flat(4, 8),
        );
        ((store, shared.snapshot()), report)
    };

    let (calm_store, calm_report) = run(&accept_all);
    assert!(calm_report.quarantined.is_empty());

    let judge = PanicJudge::new(5, 6, u32::MAX); // deterministic crashers
    let poisoned: Vec<String> = urls.iter().filter(|u| judge.selects(u)).cloned().collect();
    assert!(!poisoned.is_empty(), "judge must poison at least one URL");
    let (faulted_store, report) = run(&judge);
    assert_eq!(report.quarantined, poisoned, "exactly the poisoned URLs");

    let poisoned: FxHashSet<String> = poisoned.into_iter().collect();
    let expected: Vec<RowKey> = row_keys(&calm_store)
        .into_iter()
        .filter(|row| !poisoned.contains(&row.1))
        .collect();
    assert_eq!(row_keys(&faulted_store), expected);
}
