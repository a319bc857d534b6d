//! Real-thread executor over the post-fetch core
//! (Section 4.1: "the crawler can sustain a throughput of up to ten
//! thousand documents per minute").
//!
//! Unlike the deterministic discrete-event crawler, this executor runs N
//! OS threads that pull *batches* of documents through
//! [`crate::pipeline`] — the same stages, the same outcome accounting
//! and the same Section 3.3 focus decision the deterministic executor
//! drives one document at a time. Simulated network latencies are *not*
//! slept: the measurement targets the processing and storage pipeline,
//! which is what the paper's §4.1 throughput number is about.
//!
//! The crawl itself is a **level-synchronized BFS**: each depth level is
//! distributed over the workers through a channel, and the next level
//! starts only after the current one drains. That keeps depths exact
//! (a page always gets the depth of its shallowest discoverer) and
//! guarantees a predecessor's top terms are available to its successors'
//! neighbour feature space, while still letting every level saturate all
//! cores. URL/fingerprint duplicate elimination is shared across workers
//! behind a mutex; term ids come from the lock-sharded
//! [`SharedVocabulary`], whose `canonicalize` map makes the final store
//! comparable with a single-threaded run.
//!
//! # Supervision
//!
//! A worker panic must not abort a multi-day crawl, and a single
//! pathological document must not wedge it in a retry loop. Workers
//! therefore run every batch under `catch_unwind` (the supervisor-tree
//! discipline): a panicking worker rolls back the duplicate
//! fingerprints its half-processed batch journaled, discards the rows
//! staged in its bulk-load workspace, and dies reporting its in-flight
//! URLs. The level loop doubles as the supervisor — it requeues those
//! URLs into a retry round of single-URL batches (isolating whichever
//! document actually crashes), charges a per-URL poison budget on every
//! attributable (solo) panic, **quarantines** documents that exhaust
//! it, and respawns replacement workers up to a restart budget. Every
//! panic, requeue, quarantine and restart is counted and logged through
//! [`CrawlTelemetry`]. Shared state is accessed through a
//! poison-recovering lock helper: a panicked peer never takes the
//! dedup filter or the statistics down with it.
//!
//! Differences from the discrete-event executor, by design — all of
//! them scheduling, since there is no virtual clock to park on:
//!
//! * no circuit breakers, politeness slots or backoff parking — retries
//!   on transient failures happen inline and immediately;
//! * redirects are followed inline (same hop limit, same URL dedup);
//! * `fetched_at` is run-relative wall-clock milliseconds, not virtual
//!   time.

use crate::dedup::{path_of_url, Dedup, DedupMark};
use crate::frontier::QueueEntry;
use crate::pipeline::{admit_link, plan_links, BatchJudge, DocPipeline, FetchedDoc, PageTermCache};
use crate::telemetry::CrawlTelemetry;
use crate::types::{CrawlConfig, CrawlStats, MAX_REDIRECTS};
use bingo_obs::Event;
use bingo_store::DocumentStore;
use bingo_textproc::fxhash::{self, FxHashMap};
use bingo_textproc::SharedVocabulary;
use bingo_webworld::{FetchOutcome, FetchResponse, World};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Acquire a mutex, recovering from poisoning: a panicked worker never
/// takes shared crawl state down with it. Rollback of the panicked
/// batch is the supervisor's job, not the lock's.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Attributable (single-URL batch) panics a URL may cause before the
/// supervisor quarantines it instead of requeueing it.
const POISON_BUDGET: u32 = 2;

/// Total replacement workers the supervisor may spawn in one run; once
/// exhausted, still-unprocessed panic survivors are quarantined so the
/// crawl terminates.
const RESTART_BUDGET: u32 = 1024;

/// Pipeline stage a [`FaultPlan`] fires in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultStage {
    /// Panic while fetching the selected URL.
    Fetch,
    /// Panic while classifying the selected URL's document.
    Classify,
}

/// Deterministic, seeded worker-panic injection (test harness for the
/// supervisor). URLs are selected by hash — `1-in-one_in` of them —
/// and each selected URL panics `panics_per_url` times before
/// behaving: `u32::MAX` models a poisoned document (quarantined), a
/// small count models a transient crash (eventually stored).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Selection seed: different seeds poison different URL subsets.
    pub seed: u64,
    /// One in this many URLs is selected (0 disables the plan).
    pub one_in: u64,
    /// Panics each selected URL fires before succeeding.
    pub panics_per_url: u32,
    /// Stage the panic fires in.
    pub stage: FaultStage,
}

impl FaultPlan {
    /// True when the plan selects `url` (deterministic in seed + URL).
    pub fn selects(&self, url: &str) -> bool {
        self.one_in > 0 && fxhash::hash_one(&(self.seed, url)).is_multiple_of(self.one_in)
    }
}

/// Shared fire-count bookkeeping for a [`FaultPlan`]: "panic k times
/// then succeed" needs the count to survive the panic, so it is bumped
/// *before* the unwind starts.
struct FaultInjector {
    plan: FaultPlan,
    fired: Mutex<FxHashMap<u64, u32>>,
}

impl FaultInjector {
    fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            fired: Mutex::new(FxHashMap::default()),
        }
    }

    fn maybe_fire(&self, stage: FaultStage, url: &str) {
        if self.plan.stage != stage || !self.plan.selects(url) {
            return;
        }
        let fire = {
            let mut fired = lock_clean(&self.fired);
            let count = fired.entry(fxhash::hash_one(&url)).or_insert(0);
            if *count < self.plan.panics_per_url {
                *count += 1;
                true
            } else {
                false
            }
        };
        if fire {
            panic!("injected {stage:?} fault: {url}");
        }
    }
}

/// Options for a real-thread pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Hygiene/focus configuration (allowed/locked hosts, depth and
    /// redirect/retry limits). Breaker and politeness settings are
    /// ignored — this executor has no virtual clock to park on.
    pub config: CrawlConfig,
    /// Worker threads.
    pub threads: usize,
    /// Documents per pipeline batch.
    pub batch_size: usize,
    /// Follow links under `config`'s focus rule, level by level (BFS).
    /// When false the run processes exactly the given URLs at depth 0 —
    /// the flat throughput-measurement mode.
    pub follow_links: bool,
    /// Seeded worker-panic injection (tests only; `None` in production).
    pub fault: Option<FaultPlan>,
}

impl PipelineOptions {
    /// Flat throughput run: fixed URL list, no link following.
    pub fn flat(threads: usize, batch_size: usize) -> Self {
        PipelineOptions {
            config: CrawlConfig::default(),
            threads,
            batch_size,
            follow_links: false,
            fault: None,
        }
    }

    /// Focused crawl from seeds: follow links under `config`'s focus,
    /// tunnelling and hygiene rules.
    pub fn focused(config: CrawlConfig, threads: usize, batch_size: usize) -> Self {
        PipelineOptions {
            config,
            threads,
            batch_size,
            follow_links: true,
            fault: None,
        }
    }

    /// This run with a seeded fault plan installed.
    pub fn with_fault(mut self, fault: FaultPlan) -> Self {
        self.fault = Some(fault);
        self
    }
}

/// Outcome of a throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Documents stored.
    pub documents: u64,
    /// Wall-clock duration of the run.
    pub wall: std::time::Duration,
    /// Documents per minute.
    pub docs_per_minute: f64,
    /// Crawl counters aggregated over all workers.
    pub stats: CrawlStats,
    /// URLs quarantined by the supervisor (poison budget exhausted),
    /// sorted.
    pub quarantined: Vec<String>,
}

/// What one worker reported back to the supervisor when it finished or
/// died.
#[derive(Default)]
struct WorkerExit {
    /// Entries discovered for the next BFS level (kept even when the
    /// worker later panicked: they came from fully committed batches).
    next_level: Vec<QueueEntry>,
    /// Set when the worker died mid-batch.
    panic: Option<PanicReport>,
}

/// A caught worker panic, with the batch that was in flight.
struct PanicReport {
    /// Rendered panic payload.
    message: String,
    /// URLs consumed from the level queue whose processing never
    /// committed — the supervisor requeues or quarantines them.
    in_flight: Vec<QueueEntry>,
}

/// Render a panic payload for events and counters.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Pump `seeds` (URL, topic) through the staged document pipeline with
/// `opts.threads` workers. Classification runs through `judge` on whole
/// batches; stored rows carry real depths, judgments and link rows, so
/// the resulting store matches a deterministic crawl of the same URL set
/// modulo term-id numbering (see [`SharedVocabulary::canonicalize`]) and
/// row order. Worker panics are supervised (see the module docs): the
/// run always completes, with at most the quarantined documents
/// missing.
pub fn run_pipeline(
    world: Arc<World>,
    store: DocumentStore,
    seeds: Vec<(String, Option<u32>)>,
    vocab: &SharedVocabulary,
    judge: &dyn BatchJudge,
    telemetry: &CrawlTelemetry,
    opts: &PipelineOptions,
) -> ThroughputReport {
    let started = Instant::now();
    // Honor the same spill knobs as the deterministic executor: stale
    // spill debris from aborted runs is swept before any tier starts
    // writing, and the duplicate filter spills when configured.
    telemetry.spill_reaped.add(opts.config.reap_stale_spill());
    let dedup = Mutex::new(Dedup::for_config(&opts.config));
    let mut last_dedup = crate::dedup::DedupStats::default();
    let page_top_terms = Mutex::new(PageTermCache::new(opts.config.page_terms_cap));
    let stats = Mutex::new(CrawlStats::default());
    let injector = opts.fault.clone().map(FaultInjector::new);

    let mut level: VecDeque<QueueEntry> = VecDeque::new();
    {
        let mut dedup = lock_clean(&dedup);
        for (url, topic) in seeds {
            if dedup.mark_url(&url) {
                level.push_back(QueueEntry::seed(&url, topic));
            }
        }
    }

    // Supervisor state, shared across all levels.
    let mut poison: FxHashMap<u64, u32> = FxHashMap::default();
    let mut quarantined: Vec<String> = Vec::new();
    let mut restarts_left = RESTART_BUDGET;

    while !level.is_empty() {
        // Drain one BFS level under supervision. `pending` holds the
        // still-unprocessed items of this level; retry rounds after a
        // panic run single-URL batches to isolate the crasher.
        let mut pending = std::mem::take(&mut level);
        let mut round = 0u64;
        while !pending.is_empty() {
            telemetry.pipeline.queue_depth.set(pending.len() as i64);
            let batch_size = if round == 0 {
                opts.batch_size.max(1)
            } else {
                1
            };
            let workers = opts.threads.max(1).min(pending.len());
            let queue = Mutex::new(pending);

            let exits: Vec<WorkerExit> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        let world = &world;
                        let store = &store;
                        let queue = &queue;
                        let dedup = &dedup;
                        let page_top_terms = &page_top_terms;
                        let stats = &stats;
                        let injector = injector.as_ref();
                        scope.spawn(move || {
                            run_worker(
                                world,
                                store,
                                queue,
                                vocab,
                                judge,
                                telemetry,
                                opts,
                                batch_size,
                                dedup,
                                page_top_terms,
                                stats,
                                &started,
                                injector,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| {
                        // A panic that escaped the worker's own
                        // catch_unwind (it should not exist) is still a
                        // supervised death, not an abort.
                        h.join().unwrap_or_else(|payload| WorkerExit {
                            next_level: Vec::new(),
                            panic: Some(PanicReport {
                                message: panic_message(payload.as_ref()),
                                in_flight: Vec::new(),
                            }),
                        })
                    })
                    .collect()
            });

            // Supervise: collect survivors' discoveries, triage the
            // in-flight URLs of dead workers. Items still sitting in
            // the level queue when every worker died were never
            // attempted — recover them too, without a poison charge.
            let leftover = queue.into_inner().unwrap_or_else(|p| p.into_inner());
            let mut requeue: Vec<QueueEntry> = leftover.into();
            pending = VecDeque::new();
            let mut panic_messages: Vec<String> = Vec::new();
            let mut newly_quarantined: Vec<String> = Vec::new();
            for exit in exits {
                level.extend(exit.next_level);
                let Some(report) = exit.panic else { continue };
                telemetry.worker_panics.inc();
                panic_messages.push(report.message);
                for item in report.in_flight {
                    // Only a single-URL batch pins the panic on its URL.
                    if round > 0 {
                        let charges = poison.entry(fxhash::hash_one(&item.url)).or_insert(0);
                        *charges += 1;
                        if *charges >= POISON_BUDGET {
                            newly_quarantined.push(item.url);
                            continue;
                        }
                    }
                    requeue.push(item);
                }
            }

            // Events are emitted by the supervisor after the join, in
            // sorted order, so same-seed runs log identical bytes.
            panic_messages.sort_unstable();
            for message in &panic_messages {
                telemetry
                    .events
                    .emit(Event::at(round, "crawl.worker.panic").with("message", message));
            }
            newly_quarantined.sort_unstable();
            for url in &newly_quarantined {
                telemetry.worker_quarantined.inc();
                telemetry
                    .events
                    .emit(Event::at(round, "crawl.worker.quarantine").with("url", url));
            }
            quarantined.extend(newly_quarantined);

            if !requeue.is_empty() {
                requeue.sort_unstable_by(|a, b| a.url.cmp(&b.url));
                telemetry.worker_requeued.add(requeue.len() as u64);
                telemetry
                    .events
                    .emit(Event::at(round, "crawl.worker.requeue").with("count", requeue.len()));
                let respawn = (opts.threads.max(1).min(requeue.len())) as u32;
                if restarts_left >= respawn {
                    // Respawn replacement workers for a retry round.
                    restarts_left -= respawn;
                    telemetry.worker_restarts.add(respawn as u64);
                    telemetry
                        .events
                        .emit(Event::at(round, "crawl.worker.restart").with("workers", respawn));
                    pending.extend(requeue);
                } else {
                    // Restart budget exhausted: quarantine the
                    // remainder so the crawl still terminates.
                    for item in requeue {
                        telemetry.worker_quarantined.inc();
                        telemetry.events.emit(
                            Event::at(round, "crawl.worker.quarantine").with("url", &item.url),
                        );
                        quarantined.push(item.url);
                    }
                }
            }
            // Poll the spilling filter once per round so its gauges
            // and counters track the crawl as it runs.
            telemetry
                .dedup
                .record(&lock_clean(&dedup).stats(), &mut last_dedup);
            round += 1;
        }
    }
    telemetry.pipeline.queue_depth.set(0);

    let wall = started.elapsed();
    let stats = lock_clean(&stats).clone();
    quarantined.sort_unstable();
    let documents = stats.stored_pages;
    ThroughputReport {
        documents,
        wall,
        docs_per_minute: documents as f64 / wall.as_secs_f64().max(1e-9) * 60.0,
        stats,
        quarantined,
    }
}

/// One worker: drain the level queue in batches through the pipeline,
/// each batch under `catch_unwind`. A panic rolls back the batch's
/// journaled duplicate fingerprints and staged store rows, then kills
/// the worker with a [`PanicReport`] for the supervisor.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    world: &World,
    store: &DocumentStore,
    queue: &Mutex<VecDeque<QueueEntry>>,
    vocab: &SharedVocabulary,
    judge: &dyn BatchJudge,
    telemetry: &CrawlTelemetry,
    opts: &PipelineOptions,
    batch_size: usize,
    dedup: &Mutex<Dedup>,
    page_top_terms: &Mutex<PageTermCache>,
    stats: &Mutex<CrawlStats>,
    started: &Instant,
    injector: Option<&FaultInjector>,
) -> WorkerExit {
    let config = &opts.config;
    let mut pipeline = DocPipeline::new(store.clone(), opts.batch_size, telemetry);
    let mut interner: &SharedVocabulary = vocab;
    let mut local = CrawlStats::default();
    let mut next_level: Vec<QueueEntry> = Vec::new();

    loop {
        // One batch attempt: everything consumed from the level queue
        // (`taken`) and every dedup fingerprint marked (`journal`) is
        // tracked *outside* the unwind boundary so a panic can be
        // rolled back.
        let mut taken: Vec<QueueEntry> = Vec::with_capacity(batch_size);
        let mut journal: Vec<DedupMark> = Vec::new();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut batch: Vec<FetchedDoc> = Vec::with_capacity(batch_size);
            let mut slots: Vec<usize> = Vec::with_capacity(batch_size);
            while batch.len() < batch_size {
                let Some(item) = lock_clean(queue).pop_front() else {
                    break;
                };
                taken.push(item);
                let idx = taken.len() - 1;
                let item = &taken[idx];
                local.visited_urls += 1;
                local.max_depth = local.max_depth.max(item.depth);
                if let Some(injector) = injector {
                    injector.maybe_fire(FaultStage::Fetch, &item.url);
                }
                let Some(response) =
                    fetch_with_hygiene(world, config, dedup, &mut local, &item.url, &mut journal)
                else {
                    continue;
                };
                let neighbor_terms = lock_clean(page_top_terms).neighbor_terms(item.src_page);
                batch.push(FetchedDoc {
                    response,
                    depth: item.depth,
                    src_topic: item.src_topic,
                    anchor_terms: item.anchor_terms.clone(),
                    neighbor_terms,
                    fetched_at: started.elapsed().as_millis() as u64,
                });
                slots.push(idx);
            }
            if batch.is_empty() {
                return;
            }

            let outcomes = pipeline.run(
                world,
                &mut interner,
                batch,
                |resp: &FetchResponse| {
                    lock_clean(dedup).mark_response_journaled(
                        resp.ip,
                        path_of_url(&resp.url),
                        resp.size,
                        &mut journal,
                    )
                },
                |docs, ctxs| {
                    if let Some(injector) = injector {
                        for ctx in ctxs {
                            injector.maybe_fire(FaultStage::Classify, &ctx.url);
                        }
                    }
                    judge.judge_batch(docs, ctxs)
                },
            );

            for (idx, outcome) in slots.into_iter().zip(outcomes) {
                let Some((page_id, doc, judgment)) =
                    pipeline.settle(&outcome, &mut local, &mut lock_clean(page_top_terms))
                else {
                    continue;
                };
                if !opts.follow_links {
                    continue;
                }
                let Some(plan) = plan_links(config, &taken[idx], judgment) else {
                    continue;
                };
                for link in &doc.links {
                    if admit_link(config, &link.href, &mut local).is_some()
                        && lock_clean(dedup).mark_url(&link.href)
                    {
                        next_level.push(plan.entry(link, page_id));
                    }
                }
            }
        }));

        match caught {
            Ok(()) => {
                if taken.is_empty() {
                    break; // level queue drained
                }
            }
            Err(payload) => {
                // Roll back the half-processed batch: its fingerprints
                // must not make requeued retries look like duplicates,
                // and its staged rows must not leak into the store.
                lock_clean(dedup).unmark(&journal);
                pipeline.discard();
                lock_clean(stats).merge(&local);
                return WorkerExit {
                    next_level,
                    panic: Some(PanicReport {
                        message: panic_message(payload.as_ref()),
                        in_flight: taken,
                    }),
                };
            }
        }
    }

    pipeline.flush();
    lock_clean(stats).merge(&local);
    WorkerExit {
        next_level,
        panic: None,
    }
}

/// URL hygiene + fetch with inline redirect following and immediate
/// retries on transient failures — the real-time counterparts of the
/// discrete-event executor's guards, redirect re-enqueueing and backoff
/// parking. Redirect-target URL marks are journaled so a later panic in
/// the same batch can roll them back.
fn fetch_with_hygiene(
    world: &World,
    config: &CrawlConfig,
    dedup: &Mutex<Dedup>,
    stats: &mut CrawlStats,
    url: &str,
    journal: &mut Vec<DedupMark>,
) -> Option<FetchResponse> {
    let mut url = url.to_string();
    let mut redirects = 0u32;
    let mut attempt = 0u32;
    loop {
        let Ok(host) = config.admit_url(&url) else {
            stats.url_rejected += 1;
            return None;
        };
        if world.dns_lookup(host, attempt).is_err() {
            stats.fetch_errors += 1;
            if attempt < config.max_retries {
                attempt += 1;
                continue;
            }
            return None;
        }
        match world.fetch(&url, attempt) {
            FetchOutcome::Ok(resp) if resp.truncated => {
                stats.truncated_fetches += 1;
                stats.wasted_bytes += resp.payload.len() as u64;
                stats.fetch_errors += 1;
                if attempt < config.max_retries {
                    attempt += 1;
                    continue;
                }
                return None;
            }
            FetchOutcome::Ok(resp) => return Some(resp),
            FetchOutcome::Redirect { location, .. } => {
                stats.redirects += 1;
                if redirects < MAX_REDIRECTS
                    && lock_clean(dedup).mark_url_journaled(&location, journal)
                {
                    url = location;
                    redirects += 1;
                    attempt = 0;
                    continue;
                }
                return None;
            }
            FetchOutcome::Err { error, .. } => {
                stats.fetch_errors += 1;
                if error.is_transient() && attempt < config.max_retries {
                    attempt += 1;
                    continue;
                }
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Judgment;
    use bingo_webworld::gen::WorldConfig;
    use bingo_webworld::HostBehavior;

    fn accept_all(
    ) -> impl Fn(&bingo_textproc::AnalyzedDocument, &crate::types::PageContext) -> Judgment + Sync
    {
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
        assert!(report.docs_per_minute > 0.0);
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
    fn focused_run_follows_links_with_real_depths() {
        let world = Arc::new(WorldConfig::small_test(43).build());
        let seed = world.url_of(0);
        let store = DocumentStore::new();
        let vocab = SharedVocabulary::new();
        let config = CrawlConfig {
            max_depth: 2,
            ..CrawlConfig::default()
        };
        let report = run_pipeline(
            Arc::clone(&world),
            store.clone(),
            vec![(seed, Some(0))],
            &vocab,
            &accept_all(),
            &CrawlTelemetry::default(),
            &PipelineOptions::focused(config, 3, 8),
        );
        assert!(report.documents >= 1);
        let mut max_depth = 0;
        store.for_each_document(|row| max_depth = max_depth.max(row.depth));
        assert!(max_depth >= 1, "links were followed");
        assert!(max_depth <= 2, "depth limit respected");
        assert_eq!(report.stats.max_depth, max_depth);
        assert!(
            store.link_count() > 0,
            "stored documents emit their link rows"
        );
    }

    #[test]
    fn rejected_pages_tunnel_for_max_tunnel_hops_and_no_further() {
        // Every accepted page gets a topic of its own, so a page's
        // `src_topic` names its nearest accepted ancestor and the depth
        // gap between the two counts the rejected pages tunnelled
        // through — the `tunnel` its queue entry carried.
        let world = Arc::new(WorldConfig::small_test(43).build());
        let config = CrawlConfig::default().harvesting();
        let log: Mutex<Vec<(crate::types::PageContext, bool)>> = Mutex::new(Vec::new());
        let judge = |_: &bingo_textproc::AnalyzedDocument, ctx: &crate::types::PageContext| {
            let accepted = ctx.page_id == 0 || fxhash::hash_one(&ctx.page_id).is_multiple_of(3);
            lock_clean(&log).push((ctx.clone(), accepted));
            match accepted {
                true => Judgment {
                    topic: Some(ctx.page_id as u32),
                    confidence: 0.5,
                },
                false => Judgment::reject(-0.5),
            }
        };
        run_pipeline(
            Arc::clone(&world),
            DocumentStore::new(),
            vec![(world.url_of(0), None)],
            &SharedVocabulary::new(),
            &judge,
            &CrawlTelemetry::default(),
            &PipelineOptions::focused(config.clone(), 1, 4),
        );
        let log = log.into_inner().unwrap();
        let accepted_depth: FxHashMap<u32, u32> = log
            .iter()
            .filter(|(_, accepted)| *accepted)
            .map(|(ctx, _)| (ctx.page_id as u32, ctx.depth))
            .collect();
        let tunnels: Vec<(u32, bool)> = log
            .iter()
            .filter_map(|(ctx, accepted)| {
                Some((ctx.depth - accepted_depth[&ctx.src_topic?] - 1, *accepted))
            })
            .collect();
        assert!(tunnels.len() > 20, "crawl too small: {}", tunnels.len());
        for hops in 0..=config.max_tunnel {
            assert!(
                tunnels.contains(&(hops, false)),
                "no rejected page reached through {hops} rejected pages"
            );
        }
        // A page rejected at the tunnelling limit does not propagate.
        assert!(tunnels.iter().all(|&(hops, _)| hops <= config.max_tunnel));
    }

    #[test]
    fn transient_panics_recover_every_document() {
        // Every URL the plan selects panics once, then behaves: the
        // supervisor requeues them and the run still stores everything.
        let world = Arc::new(WorldConfig::small_test(41).build());
        let urls = unique_healthy_urls(&world);
        assert!(urls.len() >= 10);
        let fault = FaultPlan {
            seed: 7,
            one_in: 4,
            panics_per_url: 1,
            stage: FaultStage::Fetch,
        };
        assert!(
            urls.iter().any(|u| fault.selects(u)),
            "plan must select at least one URL"
        );
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
            &PipelineOptions::flat(4, 8).with_fault(fault),
        );
        assert_eq!(report.documents as usize, urls.len(), "nothing lost");
        assert!(report.quarantined.is_empty(), "transient faults recover");
        let snap = telemetry.registry.snapshot();
        assert!(snap.counters["crawl.worker.panics"] > 0);
        assert!(snap.counters["crawl.worker.requeued"] > 0);
        assert!(snap.counters["crawl.worker.restarts"] > 0);
        assert_eq!(snap.counters["crawl.worker.quarantined"], 0);
    }

    #[test]
    fn poisoned_documents_are_quarantined_not_retried_forever() {
        let world = Arc::new(WorldConfig::small_test(41).build());
        let urls = unique_healthy_urls(&world);
        let fault = FaultPlan {
            seed: 13,
            one_in: 5,
            panics_per_url: u32::MAX, // a deterministic crasher
            stage: FaultStage::Classify,
        };
        let poisoned: Vec<String> = urls.iter().filter(|u| fault.selects(u)).cloned().collect();
        assert!(!poisoned.is_empty(), "plan must poison at least one URL");
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
            &PipelineOptions::flat(4, 8).with_fault(fault),
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
        // telemetry — panic, requeue, quarantine and restart events
        // included.
        let run = || {
            let world = Arc::new(WorldConfig::small_test(44).build());
            let urls = unique_healthy_urls(&world);
            let fault = FaultPlan {
                seed: 3,
                one_in: 6,
                panics_per_url: u32::MAX,
                stage: FaultStage::Fetch,
            };
            let telemetry = CrawlTelemetry::default();
            run_pipeline(
                Arc::clone(&world),
                DocumentStore::new(),
                urls.iter().map(|u| (u.clone(), None)).collect(),
                &SharedVocabulary::new(),
                &accept_all(),
                &telemetry,
                &PipelineOptions::flat(1, 8).with_fault(fault),
            );
            (
                telemetry.registry.snapshot().to_json(),
                telemetry.events.to_jsonl(),
            )
        };
        let (snap_a, events_a) = run();
        let (snap_b, events_b) = run();
        assert!(events_a.contains("crawl.worker.panic"), "panics logged");
        assert_eq!(snap_a, snap_b);
        assert_eq!(events_a, events_b);
    }
}
