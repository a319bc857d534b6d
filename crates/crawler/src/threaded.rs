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
//! A worker panic must not abort a long run (§4.2: "a good focused
//! crawler needs to handle crawl failures"), and a single pathological
//! document must not wedge it in a retry loop. Each worker runs every
//! batch under `catch_unwind`. A panic rolls the batch back — its
//! journaled duplicate fingerprints are unmarked, the rows staged in the
//! worker's bulk-load workspace discarded — and the same worker re-runs
//! each item alone. The batch panic charges nobody; each solo panic
//! charges its URL's poison budget, and a URL that spends it is
//! **quarantined**. Workers never die, so nothing is respawned: like
//! BUbiNG's fetch and parse threads, the pool is fixed for the run.
//! Panic messages, the re-run count and the quarantined URLs are
//! reported through [`CrawlTelemetry`] as sorted events after the join,
//! so a one-thread run logs identical bytes. Every lock recovers from
//! poisoning: a panicked batch never takes the dedup filter or the
//! statistics down with it.
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
use crate::types::{CrawlConfig, CrawlStats, MAX_REDIRECTS, MAX_RETRIES};
use bingo_obs::Event;
use bingo_store::DocumentStore;
use bingo_textproc::SharedVocabulary;
use bingo_webworld::{DnsError, FetchOutcome, FetchResponse, World};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

/// Acquire a mutex, recovering from poisoning: a panicked batch never
/// takes shared crawl state down with it. Rolling the batch back is the
/// worker's job, not the lock's.
fn lock_clean<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Solo panics a URL may cause before it is quarantined instead of
/// re-run.
const POISON_BUDGET: u32 = 2;

/// One unit of work: a URL and the topic it is judged for.
type WorkItem = (String, Option<u32>);

/// Options for a real-thread pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Worker threads.
    pub threads: usize,
    /// Documents per pipeline batch.
    pub batch_size: usize,
}

impl PipelineOptions {
    /// A run of `threads` workers over batches of `batch_size`.
    pub fn flat(threads: usize, batch_size: usize) -> Self {
        PipelineOptions {
            threads,
            batch_size,
        }
    }
}

/// Outcome of a throughput run.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Documents stored.
    pub documents: u64,
    /// Crawl counters aggregated over all workers.
    pub stats: CrawlStats,
    /// URLs quarantined after spending their poison budget, sorted.
    pub quarantined: Vec<String>,
}

/// What the run's panics left behind, gathered from every worker and
/// reported once they have joined.
#[derive(Default)]
struct Casualties {
    /// Rendered payload of every caught panic.
    panics: Vec<String>,
    /// Items re-run alone after riding in a panicked batch.
    reruns: u64,
    /// URLs that spent their poison budget.
    quarantined: Vec<String>,
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
/// [`SharedVocabulary::snapshot`]) and row order. Panics are supervised
/// (see the module docs): the run always completes, with at most the
/// quarantined documents missing.
pub fn run_pipeline(
    world: Arc<World>,
    store: DocumentStore,
    urls: Vec<(String, Option<u32>)>,
    vocab: &SharedVocabulary,
    judge: &dyn BatchJudge,
    telemetry: &CrawlTelemetry,
    opts: &PipelineOptions,
) -> ThroughputReport {
    let mut dedup = Dedup::new();
    let queue: VecDeque<WorkItem> = urls
        .into_iter()
        .filter(|(url, _)| dedup.mark_url(url))
        .collect();
    telemetry.pipeline.queue_depth.set(queue.len() as i64);
    let workers = opts.threads.max(1).min(queue.len());
    let shared = Shared {
        world: &world,
        store: &store,
        queue: Mutex::new(queue),
        vocab,
        judge,
        telemetry,
        config: CrawlConfig::default(),
        batch_size: opts.batch_size.max(1),
        dedup: Mutex::new(dedup),
        stats: Mutex::new(CrawlStats::default()),
        casualties: Mutex::new(Casualties::default()),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| scope.spawn(|| shared.run_worker()))
            .collect();
        for handle in handles {
            // A panic that escaped the worker's own catch_unwind (it
            // should not exist) is counted, not propagated.
            if let Err(payload) = handle.join() {
                lock_clean(&shared.casualties)
                    .panics
                    .push(panic_message(payload.as_ref()));
            }
        }
    });

    // Events are emitted after the join, in sorted order, so same-seed
    // one-thread runs log identical bytes.
    let mut casualties = lock_clean(&shared.casualties);
    casualties.panics.sort_unstable();
    for message in &casualties.panics {
        telemetry.worker_panics.inc();
        telemetry
            .events
            .emit(Event::at(0, "crawl.worker.panic").with("message", message));
    }
    if casualties.reruns > 0 {
        telemetry.worker_requeued.add(casualties.reruns);
        telemetry
            .events
            .emit(Event::at(0, "crawl.worker.requeue").with("count", casualties.reruns));
    }
    casualties.quarantined.sort_unstable();
    for url in &casualties.quarantined {
        telemetry.worker_quarantined.inc();
        telemetry
            .events
            .emit(Event::at(0, "crawl.worker.quarantine").with("url", url));
    }
    telemetry.pipeline.queue_depth.set(0);
    telemetry
        .dedup_hot
        .set(lock_clean(&shared.dedup).fingerprints() as i64);

    let stats = lock_clean(&shared.stats).clone();
    ThroughputReport {
        documents: stats.stored_pages,
        stats,
        quarantined: std::mem::take(&mut casualties.quarantined),
    }
}

/// Everything the workers of one run share.
struct Shared<'a> {
    world: &'a World,
    store: &'a DocumentStore,
    queue: Mutex<VecDeque<WorkItem>>,
    vocab: &'a SharedVocabulary,
    judge: &'a dyn BatchJudge,
    telemetry: &'a CrawlTelemetry,
    config: CrawlConfig,
    batch_size: usize,
    dedup: Mutex<Dedup>,
    stats: Mutex<CrawlStats>,
    casualties: Mutex<Casualties>,
}

impl Shared<'_> {
    /// One worker: drain the work list a batch at a time. A batch that
    /// panics is re-run item by item, each under the poison budget.
    fn run_worker(&self) {
        let mut pipeline = DocPipeline::new(self.store.clone(), self.batch_size, self.telemetry);
        let mut local = CrawlStats::default();
        loop {
            let batch: Vec<WorkItem> = {
                let mut queue = lock_clean(&self.queue);
                let take = self.batch_size.min(queue.len());
                queue.drain(..take).collect()
            };
            if batch.is_empty() {
                break; // work list drained
            }
            // The batch panic pins nothing on any one URL: charge nobody.
            if let Err(message) = self.attempt(&mut pipeline, &mut local, &batch) {
                lock_clean(&self.casualties).panics.push(message);
                for item in &batch {
                    self.run_alone(&mut pipeline, &mut local, item);
                }
            }
        }
        pipeline.flush();
        lock_clean(&self.stats).merge(&local);
    }

    /// Re-run one item of a panicked batch until it succeeds or its
    /// solo panics spend the poison budget.
    fn run_alone(&self, pipeline: &mut DocPipeline, local: &mut CrawlStats, item: &WorkItem) {
        for charge in 1..=POISON_BUDGET {
            let outcome = self.attempt(pipeline, local, std::slice::from_ref(item));
            let mut casualties = lock_clean(&self.casualties);
            casualties.reruns += 1;
            let Err(message) = outcome else { return };
            casualties.panics.push(message);
            if charge == POISON_BUDGET {
                casualties.quarantined.push(item.0.clone());
            }
        }
    }

    /// Fetch `items` and drive them through the pipeline under
    /// `catch_unwind`. A panic rolls back the duplicate fingerprints the
    /// attempt journaled and the rows it staged, so a re-run neither
    /// looks like a duplicate nor leaks rows into the store, and returns
    /// the panic's message.
    fn attempt(
        &self,
        pipeline: &mut DocPipeline,
        local: &mut CrawlStats,
        items: &[WorkItem],
    ) -> Result<(), String> {
        let mut journal: Vec<DedupMark> = Vec::new();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            let mut batch: Vec<FetchedDoc> = Vec::with_capacity(items.len());
            for (url, topic) in items {
                local.visited_urls += 1;
                let Some(response) = self.fetch_with_hygiene(local, url, &mut journal) else {
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
                self.world,
                &mut &*self.vocab,
                batch,
                |resp: &FetchResponse| {
                    lock_clean(&self.dedup).mark_response_journaled(
                        resp.ip,
                        path_of_url(&resp.url),
                        resp.size,
                        &mut journal,
                    )
                },
                |docs, ctxs| self.judge.judge_batch(docs, ctxs),
            );
            for outcome in &outcomes {
                pipeline.settle(outcome, local);
            }
        }));
        caught.map_err(|payload| {
            lock_clean(&self.dedup).unmark(&journal);
            pipeline.discard();
            panic_message(payload.as_ref())
        })
    }

    /// URL hygiene + fetch with inline redirect following and immediate
    /// retries on transient failures (DNS timeouts, transient fetch errors,
    /// truncated bodies) — the real-time counterparts of the
    /// discrete-event executor's guards, redirect re-enqueueing and backoff
    /// parking. Redirect-target URL marks are journaled so a later panic in
    /// the same batch can roll them back.
    fn fetch_with_hygiene(
        &self,
        stats: &mut CrawlStats,
        url: &str,
        journal: &mut Vec<DedupMark>,
    ) -> Option<FetchResponse> {
        let mut url = url.to_string();
        let mut redirects = 0u32;
        let mut attempt = 0u32;
        loop {
            let Ok(host) = self.config.admit_url(&url) else {
                stats.url_rejected += 1;
                return None;
            };
            if let Err(err) = self.world.dns_lookup(host, attempt) {
                stats.fetch_errors += 1;
                // NxDomain is permanent; only a timeout is worth a retry.
                if err == DnsError::Timeout && attempt < MAX_RETRIES {
                    attempt += 1;
                    continue;
                }
                return None;
            }
            match self.world.fetch(&url, attempt) {
                FetchOutcome::Ok(resp) if resp.truncated => {
                    stats.truncated_fetches += 1;
                    stats.wasted_bytes += resp.payload.len() as u64;
                    stats.fetch_errors += 1;
                    if attempt < MAX_RETRIES {
                        attempt += 1;
                        continue;
                    }
                    return None;
                }
                FetchOutcome::Ok(resp) => return Some(resp),
                FetchOutcome::Redirect { location, .. } => {
                    stats.redirects += 1;
                    if redirects < MAX_REDIRECTS
                        && lock_clean(&self.dedup).mark_url_journaled(&location, journal)
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
                    if error.is_transient() && attempt < MAX_RETRIES {
                        attempt += 1;
                        continue;
                    }
                    return None;
                }
            }
        }
    }
}
