//! Real-thread executor over the post-fetch core
//! (Section 4.1: "the crawler can sustain a throughput of up to ten
//! thousand documents per minute").
//!
//! Unlike the deterministic discrete-event crawler, this executor runs N
//! OS threads that pull *batches* of documents through
//! [`crate::pipeline`] — the same stages and the same outcome accounting
//! the deterministic executor drives one document at a time. Simulated
//! network latencies are *not* slept: the measurement targets the
//! processing and storage pipeline, which is what the paper's §4.1
//! throughput number is about.
//!
//! The run is **flat**: the caller hands over a work list of
//! `(url, topic)` pairs, workers drain it in batches, and every document
//! is fetched at depth 0 with no anchor or neighbour terms. Links are
//! recorded as link rows but not followed — focused crawling (§3.3) is
//! the discrete-event [`crate::Crawler`]'s job. URL/fingerprint
//! duplicate elimination is shared across workers behind a mutex; term
//! ids come from the lock-sharded [`SharedVocabulary`] in arrival order,
//! so the final store compares with a single-threaded run as term text,
//! each read through its own dictionary.
//!
//! # Supervision
//!
//! A worker panic must not abort a long run, and a single pathological
//! document must not wedge it in a retry loop. Workers therefore run
//! every batch under `catch_unwind` (the supervisor-tree discipline): a
//! panicking worker rolls back the duplicate fingerprints its
//! half-processed batch journaled, discards the rows staged in its
//! bulk-load workspace, and dies reporting its in-flight URLs. The run
//! loop doubles as the supervisor — it requeues those URLs into a retry
//! round of single-URL batches (isolating whichever document actually
//! crashes), charges a per-URL poison budget on every attributable
//! (solo) panic, **quarantines** documents that exhaust it, and respawns
//! replacement workers up to a restart budget. Every panic, requeue,
//! quarantine and restart is counted and logged through
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
//! * `fetched_at` is 0: the run reads no clock.

use crate::dedup::{path_of_url, Dedup, DedupMark};
use crate::pipeline::{BatchJudge, DocPipeline, FetchedDoc};
use crate::telemetry::CrawlTelemetry;
use crate::types::{CrawlConfig, CrawlStats, MAX_REDIRECTS};
use bingo_obs::Event;
use bingo_store::DocumentStore;
use bingo_textproc::fxhash::{self, FxHashMap};
use bingo_textproc::SharedVocabulary;
use bingo_webworld::{DnsError, FetchOutcome, FetchResponse, World};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

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
/// run terminates.
const RESTART_BUDGET: u32 = 1024;

/// One unit of work: a URL and the topic it is judged for.
type WorkItem = (String, Option<u32>);

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
    /// Worker threads.
    pub threads: usize,
    /// Documents per pipeline batch.
    pub batch_size: usize,
    /// Seeded worker-panic injection (tests only; `None` in production).
    pub fault: Option<FaultPlan>,
}

impl PipelineOptions {
    /// A run of `threads` workers over batches of `batch_size`.
    pub fn flat(threads: usize, batch_size: usize) -> Self {
        PipelineOptions {
            threads,
            batch_size,
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
    /// Crawl counters aggregated over all workers.
    pub stats: CrawlStats,
    /// URLs quarantined by the supervisor (poison budget exhausted),
    /// sorted.
    pub quarantined: Vec<String>,
}

/// A caught worker panic, with the batch that was in flight.
struct PanicReport {
    /// Rendered panic payload.
    message: String,
    /// Items consumed from the work list whose processing never
    /// committed — the supervisor requeues or quarantines them.
    in_flight: Vec<WorkItem>,
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

/// Pump `urls` (URL, topic) through the staged document pipeline with
/// `opts.threads` workers. Classification runs through `judge` on whole
/// batches; every document is stored at depth 0 with its judgment and
/// link rows, so the resulting store matches a deterministic crawl of
/// the same URL set modulo term-id numbering (compare term text through
/// [`SharedVocabulary::snapshot`]) and row order. Worker panics are
/// supervised (see the module docs): the run always completes, with at
/// most the quarantined documents missing.
pub fn run_pipeline(
    world: Arc<World>,
    store: DocumentStore,
    urls: Vec<(String, Option<u32>)>,
    vocab: &SharedVocabulary,
    judge: &dyn BatchJudge,
    telemetry: &CrawlTelemetry,
    opts: &PipelineOptions,
) -> ThroughputReport {
    let config = CrawlConfig::default();
    let dedup = Mutex::new(Dedup::new());
    let stats = Mutex::new(CrawlStats::default());
    let injector = opts.fault.clone().map(FaultInjector::new);

    // `pending` holds the still-unprocessed items; retry rounds after a
    // panic run single-URL batches to isolate the crasher.
    let mut pending: VecDeque<WorkItem> = {
        let mut dedup = lock_clean(&dedup);
        urls.into_iter()
            .filter(|(url, _)| dedup.mark_url(url))
            .collect()
    };
    let mut poison: FxHashMap<u64, u32> = FxHashMap::default();
    let mut quarantined: Vec<String> = Vec::new();
    let mut restarts_left = RESTART_BUDGET;
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

        let exits: Vec<Option<PanicReport>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let (world, store, queue, config) = (&world, &store, &queue, &config);
                    let (dedup, stats, injector) = (&dedup, &stats, injector.as_ref());
                    scope.spawn(move || {
                        run_worker(
                            world, store, queue, vocab, judge, telemetry, config, opts, batch_size,
                            dedup, stats, injector,
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
                    h.join().unwrap_or_else(|payload| {
                        Some(PanicReport {
                            message: panic_message(payload.as_ref()),
                            in_flight: Vec::new(),
                        })
                    })
                })
                .collect()
        });

        // Supervise: triage the in-flight URLs of dead workers. Items
        // still sitting in the work list when every worker died were
        // never attempted — recover them too, without a poison charge.
        let leftover = queue.into_inner().unwrap_or_else(|p| p.into_inner());
        let mut requeue: Vec<WorkItem> = leftover.into();
        pending = VecDeque::new();
        let mut panic_messages: Vec<String> = Vec::new();
        let mut newly_quarantined: Vec<String> = Vec::new();
        for report in exits.into_iter().flatten() {
            telemetry.worker_panics.inc();
            panic_messages.push(report.message);
            for item in report.in_flight {
                // Only a single-URL batch pins the panic on its URL.
                if round > 0 {
                    let charges = poison.entry(fxhash::hash_one(&item.0)).or_insert(0);
                    *charges += 1;
                    if *charges >= POISON_BUDGET {
                        newly_quarantined.push(item.0);
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
            requeue.sort_unstable(); // URLs are unique: sorted by URL
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
                // Restart budget exhausted: quarantine the remainder so
                // the run still terminates.
                for (url, _) in requeue {
                    telemetry.worker_quarantined.inc();
                    telemetry
                        .events
                        .emit(Event::at(round, "crawl.worker.quarantine").with("url", &url));
                    quarantined.push(url);
                }
            }
        }
        // Poll the duplicate filter once per round so its gauge tracks
        // the run as it goes.
        telemetry
            .dedup_hot
            .set(lock_clean(&dedup).fingerprints() as i64);
        round += 1;
    }
    telemetry.pipeline.queue_depth.set(0);

    let stats = lock_clean(&stats).clone();
    quarantined.sort_unstable();
    ThroughputReport {
        documents: stats.stored_pages,
        stats,
        quarantined,
    }
}

/// One worker: drain the work list in batches through the pipeline,
/// each batch under `catch_unwind`. A panic rolls back the batch's
/// journaled duplicate fingerprints and staged store rows, then kills
/// the worker with a [`PanicReport`] for the supervisor.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    world: &World,
    store: &DocumentStore,
    queue: &Mutex<VecDeque<WorkItem>>,
    vocab: &SharedVocabulary,
    judge: &dyn BatchJudge,
    telemetry: &CrawlTelemetry,
    config: &CrawlConfig,
    opts: &PipelineOptions,
    batch_size: usize,
    dedup: &Mutex<Dedup>,
    stats: &Mutex<CrawlStats>,
    injector: Option<&FaultInjector>,
) -> Option<PanicReport> {
    let mut pipeline = DocPipeline::new(store.clone(), opts.batch_size, telemetry);
    let mut interner: &SharedVocabulary = vocab;
    let mut local = CrawlStats::default();

    loop {
        // One batch attempt: everything consumed from the work list
        // (`taken`) and every dedup fingerprint marked (`journal`) is
        // tracked *outside* the unwind boundary so a panic can be
        // rolled back.
        let mut taken: Vec<WorkItem> = Vec::with_capacity(batch_size);
        let mut journal: Vec<DedupMark> = Vec::new();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut batch: Vec<FetchedDoc> = Vec::with_capacity(batch_size);
            while batch.len() < batch_size {
                let Some(item) = lock_clean(queue).pop_front() else {
                    break;
                };
                taken.push(item);
                let (url, topic) = &taken[taken.len() - 1];
                local.visited_urls += 1;
                if let Some(injector) = injector {
                    injector.maybe_fire(FaultStage::Fetch, url);
                }
                let Some(response) =
                    fetch_with_hygiene(world, config, dedup, &mut local, url, &mut journal)
                else {
                    continue;
                };
                batch.push(FetchedDoc {
                    response,
                    depth: 0,
                    src_topic: *topic,
                    anchor_terms: Vec::new(),
                    neighbor_terms: Vec::new(),
                    fetched_at: 0,
                });
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
            for outcome in &outcomes {
                pipeline.settle(outcome, &mut local);
            }
        }));

        match caught {
            Ok(()) => {
                if taken.is_empty() {
                    break; // work list drained
                }
            }
            Err(payload) => {
                // Roll back the half-processed batch: its fingerprints
                // must not make requeued retries look like duplicates,
                // and its staged rows must not leak into the store.
                lock_clean(dedup).unmark(&journal);
                pipeline.discard();
                lock_clean(stats).merge(&local);
                return Some(PanicReport {
                    message: panic_message(payload.as_ref()),
                    in_flight: taken,
                });
            }
        }
    }

    pipeline.flush();
    lock_clean(stats).merge(&local);
    None
}

/// URL hygiene + fetch with inline redirect following and immediate
/// retries on transient failures (DNS timeouts, transient fetch errors,
/// truncated bodies) — the real-time counterparts of the
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
        if let Err(err) = world.dns_lookup(host, attempt) {
            stats.fetch_errors += 1;
            // NxDomain is permanent; only a timeout is worth a retry.
            if err == DnsError::Timeout && attempt < config.max_retries {
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
        // included — and fill byte-identical stores: the run reads no
        // clock, so no row carries a timestamp that could differ.
        let run = || {
            let world = Arc::new(WorldConfig::small_test(44).build());
            let urls = unique_healthy_urls(&world);
            let fault = FaultPlan {
                seed: 3,
                one_in: 6,
                panics_per_url: u32::MAX,
                stage: FaultStage::Fetch,
            };
            let store = DocumentStore::new();
            let telemetry = CrawlTelemetry::default();
            run_pipeline(
                Arc::clone(&world),
                store.clone(),
                urls.iter().map(|u| (u.clone(), None)).collect(),
                &SharedVocabulary::new(),
                &accept_all(),
                &telemetry,
                &PipelineOptions::flat(1, 8).with_fault(fault),
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
}
