//! The crawl loop: a discrete-event simulation of the multi-threaded
//! fetch/classify/enqueue pipeline (Sections 2.1 and 4.2).
//!
//! Each [`Crawler::step`] call processes one URL end to end on the
//! earliest-free simulated thread: frontier pop → hygiene guards → DNS →
//! fetch (with redirect/timeout handling), then the post-fetch core
//! ([`crate::pipeline`]) — MIME/size filter → duplicate fingerprints →
//! content conversion → document analysis → classification by the
//! judge → bulk-load → settle → focus decision.
//! This module is the scheduler: the virtual clock, the frontier,
//! politeness slots, breakers and retries. Virtual time advances by the
//! real latencies the simulated network reports, so wall-clock budgets
//! ("a 90-minute crawl") are meaningful and deterministic.
//!
//! The loop knows one judge type, a split judge: an [`Assess`] half and
//! a commit closure, each page judged `commit(doc, ctx, assess(..))`.
//! [`Crawler::step`] wraps its judge closure as one whose assessment is
//! empty. [`Crawler::crawl_ahead`] runs the same steps on real cores:
//! worker threads fetch, analyze and assess the entries the frontier
//! will pop next ([`crate::lookahead`]), and each step commits in pop
//! order, using a preparation only when its inputs are the ones the step
//! itself would have used. Its stores, term ids and clock are those of
//! [`Crawler::step`] at any worker count.

use crate::checkpoint::{
    load_checkpoint, CheckpointError, CrawlCheckpoint, CRAWLER_FILE, STORE_FILE,
};
use crate::dedup::{path_of_url, Dedup};
use crate::dns::CachingResolver;
use crate::frontier::{Frontier, QueueEntry};
use crate::hosts::{jittered_backoff, FailureOutcome, HostDecision, HostManager, HostState};
use crate::lookahead::{Miss, Pool, Schedule, Ticket, LOOKAHEAD};
use crate::pipeline::{admit_link, plan_links, top_terms, DocOutcome, DocPipeline, FetchedDoc};
use crate::telemetry::CrawlTelemetry;
use crate::types::{
    CrawlConfig, CrawlStats, Judgment, PageContext, MAX_REDIRECTS, MAX_RETRIES, OUTGOING_QUEUE_CAP,
    PER_HOST_CONNECTIONS, PROCESSING_COST_MS, RETRY_BACKOFF_MS, SIMULATED_THREADS,
};
use crate::Assess;
use bingo_obs::Event;
use bingo_store::durable;
use bingo_store::DocumentStore;
use bingo_textproc::{AnalyzedDocument, TermId, Vocabulary};
use bingo_webworld::fetch::host_of_url;
use bingo_webworld::{DnsError, FetchOutcome, World};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// What one crawl step did.
#[derive(Debug, Clone, PartialEq)]
pub enum StepOutcome {
    /// A document was fetched, analyzed, judged and stored.
    Stored {
        /// Page id of the stored document.
        page_id: u64,
        /// The classifier's verdict.
        judgment: Judgment,
    },
    /// The URL was consumed without storing a document (duplicate,
    /// error, filtered, redirect...).
    Skipped(&'static str),
    /// No URLs left in the frontier.
    FrontierEmpty,
}

/// The focused crawler over a simulated web.
pub struct Crawler {
    world: Arc<World>,
    /// Active configuration (the engine swaps learning → harvesting).
    pub config: CrawlConfig,
    frontier: Frontier,
    dedup: Dedup,
    resolver: CachingResolver,
    hosts: HostManager,
    store: DocumentStore,
    /// The post-fetch core over `store` (batch size 1: the
    /// discrete-event executor stores one document per step, and the
    /// store must be current whenever the engine reads it between
    /// steps).
    pipeline: DocPipeline,
    stats: CrawlStats,
    /// Min-heap of (free-at, thread id).
    threads: BinaryHeap<Reverse<(u64, usize)>>,
    /// Per-host connection slots: times each slot becomes free
    /// (politeness: at most [`PER_HOST_CONNECTIONS`] simultaneous fetches
    /// per host, Section 5.1).
    host_slots: bingo_textproc::fxhash::FxHashMap<String, Vec<u64>>,
    clock: u64,
    /// Metric handles; intentionally not part of checkpoints (telemetry
    /// describes a run, not the crawl state).
    telemetry: CrawlTelemetry,
    /// Lookahead requests of [`Crawler::crawl_ahead`]; like telemetry,
    /// not crawl state, so not part of checkpoints.
    schedule: Schedule,
}

/// The crawl loop's judge: an [`Assess`] half and the commit half
/// applying its assessments. Each page is judged
/// `commit(doc, ctx, assess(doc, anchors, neighbours))` unless a
/// lookahead worker already made the assessment.
struct Split<'a, A: Assess> {
    assess: &'a A,
    commit: &'a mut dyn FnMut(&AnalyzedDocument, &PageContext, A::Assessment) -> Judgment,
}

/// The assessor of [`Crawler::step`]: a whole judge is a split judge
/// whose assessment is empty.
struct Whole;

impl Assess for Whole {
    type Assessment = ();

    fn assess(&self, _: &AnalyzedDocument, _: &[TermId], _: &[TermId]) {}
}

/// Note on a step's lookahead ticket that its entry went back to the
/// frontier.
fn went_back<P>(ahead: &mut Option<(&mut Ticket, P)>) {
    if let Some((ticket, _)) = ahead {
        ticket.comes_back = true;
    }
}

impl Crawler {
    /// New crawler over `world` writing into `store`.
    pub fn new(world: Arc<World>, config: CrawlConfig, store: DocumentStore) -> Self {
        let topics = world.topics().len();
        let frontier = Frontier::new(topics, config.incoming_queue_cap, OUTGOING_QUEUE_CAP);
        let threads = (0..SIMULATED_THREADS)
            .map(|tid| Reverse((0u64, tid)))
            .collect();
        let telemetry = CrawlTelemetry::default();
        let pipeline = DocPipeline::new(store.clone(), 1, &telemetry);
        Crawler {
            hosts: HostManager::new(),
            frontier,
            threads,
            dedup: Dedup::new(),
            world,
            config,
            resolver: CachingResolver::new(),
            store,
            pipeline,
            stats: CrawlStats::default(),
            host_slots: bingo_textproc::fxhash::FxHashMap::default(),
            clock: 0,
            telemetry,
            schedule: Schedule::default(),
        }
    }

    /// Fingerprints held by the duplicate filter.
    pub fn dedup_fingerprints(&self) -> usize {
        self.dedup.fingerprints()
    }

    /// Route this crawler's metrics and events into a shared telemetry
    /// namespace (e.g. one registry covering crawl + engine + index).
    pub fn set_telemetry(&mut self, telemetry: CrawlTelemetry) {
        self.pipeline = DocPipeline::new(self.store.clone(), 1, &telemetry);
        telemetry.dedup_hot.set(self.dedup.fingerprints() as i64);
        self.telemetry = telemetry;
    }

    /// The crawler's metric handles and event log.
    pub fn telemetry(&self) -> &CrawlTelemetry {
        &self.telemetry
    }

    /// Seed the crawl with a URL for a topic.
    pub fn add_seed(&mut self, url: &str, topic: Option<u32>) {
        if self.dedup.mark_url(url) {
            self.frontier.push_outgoing(QueueEntry::seed(url, topic));
            self.telemetry.frontier_push.inc();
        }
    }

    /// Snapshot the crawler's complete mid-crawl state (everything but
    /// the world and the document store).
    pub fn checkpoint(&self) -> CrawlCheckpoint {
        let (host_health, visited_hosts) = self.hosts.snapshot();
        let mut threads: Vec<(u64, usize)> = self.threads.iter().map(|Reverse(t)| *t).collect();
        threads.sort_unstable();
        let mut host_slots: Vec<(String, Vec<u64>)> = self
            .host_slots
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        host_slots.sort_by(|a, b| a.0.cmp(&b.0));
        CrawlCheckpoint {
            magic: crate::checkpoint::MAGIC.to_string(),
            version: crate::checkpoint::VERSION,
            clock_ms: self.clock,
            stats: self.stats.clone(),
            frontier: self.frontier.snapshot(),
            dedup: self.dedup.snapshot(),
            host_health,
            visited_hosts,
            threads,
            host_slots,
            page_top_terms: Vec::new(),
        }
    }

    /// Overwrite this crawler's mid-crawl state from a checkpoint. The
    /// resolver cache is not part of checkpoints: the crawler starts a
    /// cold one, and each host's first lookup after the resume costs DNS
    /// latency on the virtual clock again. So two resumes from one
    /// checkpoint are byte-identical, but neither equals the crawl that
    /// was never interrupted.
    pub fn restore_checkpoint(&mut self, cp: CrawlCheckpoint) {
        self.clock = cp.clock_ms;
        self.stats = cp.stats;
        self.frontier = Frontier::restore(
            cp.frontier,
            self.config.incoming_queue_cap,
            OUTGOING_QUEUE_CAP,
        );
        self.dedup = Dedup::restore(cp.dedup);
        self.hosts = HostManager::restore(cp.host_health, cp.visited_hosts);
        self.threads = cp.threads.into_iter().map(Reverse).collect();
        self.host_slots = cp.host_slots.into_iter().collect();
        self.resolver = CachingResolver::new();
    }

    /// Write a full crawl session — store checkpoint plus crawler
    /// checkpoint — as a new checkpoint *generation* under `dir`
    /// (created if missing). The generation's manifest is committed
    /// last, so a kill at any byte of the save leaves the previous
    /// complete generation as the recovery target. After a successful
    /// commit, generations beyond
    /// [`durable::DEFAULT_KEEP_GENERATIONS`] are pruned.
    ///
    /// A store with no directory is written in full; a segmented store
    /// is written as references to its sealed segments plus the unsealed
    /// workspace rows ([`bingo_store::persist::write_checkpoint`]), so
    /// a generation costs O(workspace) and the segment files are the
    /// same bytes whether or not the crawl checkpoints.
    pub fn save_session<P: AsRef<std::path::Path>>(&self, dir: P) -> Result<(), CheckpointError> {
        self.save_session_with(&durable::StdFs, dir).map(|_| ())
    }

    /// [`Crawler::save_session`] over an injectable filesystem — the
    /// crash-point harness drives this with a byte-budgeted
    /// [`bingo_store::CrashFs`]. Returns the committed generation
    /// number.
    pub fn save_session_with<P: AsRef<std::path::Path>>(
        &self,
        fs: &dyn durable::DurableFs,
        dir: P,
    ) -> Result<u64, CheckpointError> {
        let dir = dir.as_ref();
        let mut writer = durable::GenerationWriter::begin(fs, dir)?;
        self.write_session_into(&mut writer)?;
        let generation = writer.commit()?;
        let pruned = durable::prune_generations(dir, durable::DEFAULT_KEEP_GENERATIONS);
        self.telemetry.checkpoint_pruned.add(pruned as u64);
        Ok(generation)
    }

    /// Write this crawler's session files (store checkpoint + crawler
    /// checkpoint) into an open generation. Callers that bundle more
    /// artifacts into the same commit (e.g.
    /// `bingo_core::persist::save_session` adds the engine snapshot)
    /// append them, commit the writer and then call
    /// [`durable::prune_generations`].
    pub fn write_session_into(
        &self,
        writer: &mut durable::GenerationWriter<'_>,
    ) -> Result<(), CheckpointError> {
        let mut snapshot = Vec::new();
        bingo_store::persist::write_checkpoint(&self.store, &mut snapshot)
            .map_err(|e| CheckpointError::Store(e.to_string()))?;
        writer.write_file(STORE_FILE, &snapshot)?;
        let cp = crate::checkpoint::checkpoint_bytes(&self.checkpoint())?;
        writer.write_file(CRAWLER_FILE, &cp)?;
        Ok(())
    }

    /// Rebuild a crawler mid-crawl from a session directory written by
    /// [`Crawler::save_session`]: the newest *complete* generation whose
    /// store opens is the recovery target — torn or corrupted
    /// generations (crash mid-save, bit rot, a referenced segment
    /// missing or failing its checksum) are skipped, rolling back to
    /// the last good commit. A segmented session comes back segmented,
    /// over the same directory, without touching it. A directory
    /// without one complete generation is an error, whatever else it
    /// holds: only manifest-committed files are ever loaded. `world`
    /// and `config` must match the original crawl for the resumed run
    /// to be meaningful.
    pub fn resume_session<P: AsRef<std::path::Path>>(
        world: Arc<World>,
        config: CrawlConfig,
        dir: P,
    ) -> Result<Crawler, CheckpointError> {
        Crawler::resume_generation(world, config, dir.as_ref(), |_| true)
            .map(|(crawler, _)| crawler)
    }

    /// [`Crawler::resume_session`] from the newest complete generation
    /// that `wanted` accepts and whose store opens, returned beside the
    /// crawler so that the caller loads the rest of its state from the
    /// same generation (`bingo_core::persist::load_session` takes the
    /// engine snapshot from it).
    pub fn resume_generation(
        world: Arc<World>,
        config: CrawlConfig,
        dir: &std::path::Path,
        wanted: impl Fn(&durable::CompleteGeneration) -> bool,
    ) -> Result<(Crawler, durable::CompleteGeneration), CheckpointError> {
        let mut newest_failure = None;
        for generation in durable::complete_newest_first(dir).filter(|g| wanted(g)) {
            match bingo_store::persist::load(generation.dir.join(STORE_FILE)) {
                Ok(store) => {
                    let cp = load_checkpoint(generation.dir.join(CRAWLER_FILE))?;
                    let mut crawler = Crawler::new(world, config, store);
                    crawler.restore_checkpoint(cp);
                    return Ok((crawler, generation));
                }
                Err(e) => {
                    newest_failure.get_or_insert(e);
                }
            }
        }
        Err(match newest_failure {
            Some(e) => CheckpointError::Store(e.to_string()),
            None => CheckpointError::Io(format!(
                "no complete checkpoint generation in {}",
                dir.display()
            )),
        })
    }

    /// Per-host breaker health as `(hostname, state, failure count)`,
    /// sorted by hostname — for diagnostics and the breaker-sanity
    /// assertions of the chaos/crash tests.
    pub fn host_states(&self) -> Vec<(String, HostState, u32)> {
        let mut states: Vec<(String, HostState, u32)> = self
            .hosts
            .states()
            .map(|(h, s, f)| (h.to_string(), s, f))
            .collect();
        states.sort_by(|a, b| a.0.cmp(&b.0));
        states
    }

    /// The breaker position of one host right now.
    pub fn breaker_state(&self, host: &str) -> crate::hosts::BreakerState {
        self.hosts.breaker_state(host)
    }

    /// Queue a not-yet-seen URL with an explicit priority (used to resume
    /// harvesting from the best hubs after retraining, Section 2.5).
    pub fn boost_url(&mut self, url: &str, topic: Option<u32>, priority: f32) {
        if self.dedup.mark_url(url) {
            self.frontier.push_outgoing(QueueEntry {
                priority,
                ..QueueEntry::seed(url, topic)
            });
            self.telemetry.frontier_push.inc();
        }
    }

    /// Crawl statistics so far.
    pub fn stats(&self) -> &CrawlStats {
        &self.stats
    }

    /// Current virtual time in milliseconds.
    pub fn clock_ms(&self) -> u64 {
        self.clock
    }

    /// The result database.
    pub fn store(&self) -> &DocumentStore {
        &self.store
    }

    /// Number of URLs waiting in the frontier.
    pub fn frontier_len(&self) -> usize {
        self.frontier.len()
    }

    /// Always 0: every queued entry is resident. Kept as frozen
    /// `benchmark/` surface until that surface is next revised.
    pub fn frontier_spilled_len(&self) -> usize {
        0
    }

    /// The simulated web (also the link analysis' unfocused database).
    pub fn world(&self) -> &Arc<World> {
        &self.world
    }

    /// Run steps until the virtual clock passes `deadline_ms` or the
    /// frontier empties. Returns the number of documents stored.
    pub fn run_until(
        &mut self,
        deadline_ms: u64,
        judge: &mut dyn FnMut(&AnalyzedDocument, &PageContext) -> Judgment,
        vocab: &mut Vocabulary,
    ) -> u64 {
        let mut stored = 0;
        while self.clock < deadline_ms {
            match self.step(judge, vocab) {
                StepOutcome::Stored { .. } => stored += 1,
                StepOutcome::Skipped(_) => {}
                StepOutcome::FrontierEmpty => break,
            }
        }
        stored
    }

    /// [`Crawler::run_until`] on every core: until the virtual clock
    /// passes `deadline_ms`, the frontier empties or `until` returns true
    /// for a step's outcome, with `workers` threads preparing the next
    /// [`LOOKAHEAD`] entries of the frontier ahead of their pops. `assess`
    /// and `commit` are the two halves of the judge: each page is judged
    /// `commit(doc, ctx, assess(doc, anchors, neighbours))` in pop order, so
    /// the crawl is the one [`Crawler::step`] makes with that judge,
    /// whatever the number of workers (0 prepares everything inline).
    ///
    /// One call is one epoch: `assess` is fixed for its duration, and a
    /// request left over from an earlier call is never used. The
    /// `crawl.lookahead.*` counters follow the request schedule, not the
    /// threads, so they too are the same at every worker count.
    pub fn crawl_ahead<A: Assess>(
        &mut self,
        deadline_ms: u64,
        assess: &A,
        commit: &mut dyn FnMut(&AnalyzedDocument, &PageContext, A::Assessment) -> Judgment,
        vocab: &mut Vocabulary,
        workers: usize,
        until: &mut dyn FnMut(&StepOutcome) -> bool,
    ) {
        let world = Arc::clone(&self.world);
        let replicas = self.schedule.open_epoch(workers, vocab);
        std::thread::scope(|scope| {
            let mut pool = Pool::spawn(scope, &world, assess, replicas, vocab.len());
            let mut judge = Split { assess, commit };
            while self.clock < deadline_ms {
                self.schedule.request(
                    self.frontier.peek(LOOKAHEAD),
                    &self.store,
                    &self.world,
                    vocab,
                    &mut pool,
                    &self.telemetry.lookahead,
                );
                let outcome = self.step_with(&mut judge, vocab, Some(&mut pool));
                if until(&outcome) || outcome == StepOutcome::FrontierEmpty {
                    break;
                }
            }
            self.schedule
                .close_epoch(pool.finish(), &self.telemetry.lookahead);
        });
    }

    /// Process one URL. See the module docs for the pipeline stages.
    ///
    /// When every remaining URL is parked in retry/breaker backoff, the
    /// virtual clock fast-forwards to the earliest release time — the
    /// simulated crawler idles until work becomes available again.
    pub fn step(
        &mut self,
        judge: &mut dyn FnMut(&AnalyzedDocument, &PageContext) -> Judgment,
        vocab: &mut Vocabulary,
    ) -> StepOutcome {
        let commit = &mut |doc: &AnalyzedDocument, ctx: &PageContext, ()| judge(doc, ctx);
        let judge = &mut Split {
            assess: &Whole,
            commit,
        };
        self.step_with(judge, vocab, None)
    }

    /// [`Crawler::step`] with a split judge; with a `pool`, the pop may
    /// use the preparation its request on the schedule got.
    fn step_with<A: Assess>(
        &mut self,
        judge: &mut Split<'_, A>,
        vocab: &mut Vocabulary,
        mut pool: Option<&mut Pool<'_, A>>,
    ) -> StepOutcome {
        let entry = loop {
            self.frontier.release_due(self.clock);
            if let Some(e) = self.frontier.pop() {
                self.telemetry.frontier_pop.inc();
                break e;
            }
            match self.frontier.next_release() {
                Some(t) => self.clock = self.clock.max(t),
                None => return StepOutcome::FrontierEmpty,
            }
        };
        // Acquire the earliest-free simulated thread...
        let Reverse((free_at, tid)) = self.threads.pop().expect("threads configured");
        let mut now = self.clock.max(free_at);
        // ...and a connection slot on the target host (politeness: at
        // most `PER_HOST_CONNECTIONS` simultaneous fetches per host).
        let slot_key = host_of_url(&entry.url).map(str::to_string);
        let mut slot_index = None;
        if let Some(host) = &slot_key {
            let slots = self
                .host_slots
                .entry(host.clone())
                .or_insert_with(|| vec![0; PER_HOST_CONNECTIONS]);
            let (idx, &earliest) = slots
                .iter()
                .enumerate()
                .min_by_key(|&(_, &t)| t)
                .expect("at least one slot");
            now = now.max(earliest);
            slot_index = Some(idx);
        }
        self.clock = self.clock.max(now);
        let mut cost = PROCESSING_COST_MS;
        let mut ticket = pool
            .is_some()
            .then(|| self.schedule.ticket(&entry))
            .flatten();
        let ahead = ticket.as_mut().zip(pool.as_deref_mut());
        let outcome = self.process(entry, now, &mut cost, judge, vocab, ahead);
        if let (Some(ticket), Some(pool)) = (ticket, pool) {
            self.schedule
                .settle(ticket, &self.telemetry.lookahead, pool);
        }
        let done = now.saturating_add(cost);
        if let (Some(host), Some(idx)) = (&slot_key, slot_index) {
            if let Some(slots) = self.host_slots.get_mut(host) {
                slots[idx] = done;
            }
        }
        self.threads.push(Reverse((done, tid)));
        self.stats.elapsed_ms = self.stats.elapsed_ms.max(done);
        self.telemetry
            .frontier_depth
            .set(self.frontier.len() as i64);
        self.telemetry
            .frontier_bytes
            .set(self.frontier.resident_bytes() as i64);
        self.telemetry
            .pipeline
            .queue_depth
            .set(self.frontier.len() as i64);
        self.telemetry
            .dedup_hot
            .set(self.dedup.fingerprints() as i64);
        if matches!(outcome, StepOutcome::Stored { .. }) {
            self.maybe_checkpoint();
        }
        outcome
    }

    /// Write an automatic checkpoint every `checkpoint_every_docs`
    /// stored documents (counted *before* the increment of
    /// `checkpoints_written`, so the persisted stats describe exactly
    /// the checkpointed crawl state).
    fn maybe_checkpoint(&mut self) {
        let every = self.config.checkpoint_every_docs;
        if every == 0
            || self.stats.stored_pages == 0
            || !self.stats.stored_pages.is_multiple_of(every)
        {
            return;
        }
        let Some(dir) = self.config.checkpoint_dir.clone() else {
            return;
        };
        if let Ok(generation) = self.save_session_with(&durable::StdFs, &dir) {
            self.stats.checkpoints_written += 1;
            self.telemetry.checkpoints.inc();
            let gen_dir = durable::generation_dir(&dir, generation);
            let bytes = [CRAWLER_FILE, STORE_FILE]
                .iter()
                .filter_map(|f| std::fs::metadata(gen_dir.join(f)).ok())
                .map(|m| m.len())
                .sum::<u64>();
            self.telemetry.checkpoint_bytes.observe(bytes);
            self.telemetry.events.emit(
                Event::at(self.clock, "crawl.checkpoint.write")
                    .with("bytes", bytes)
                    .with("docs", self.stats.stored_pages),
            );
        }
    }

    /// The commit of one popped entry. With `ahead`, its lookahead
    /// ticket and the workers' pool: once the gates before the fetch let
    /// the page through, a valid preparation replaces the fetch, the
    /// content stage and the judge's assessment.
    fn process<A: Assess>(
        &mut self,
        entry: QueueEntry,
        now: u64,
        cost: &mut u64,
        judge: &mut Split<'_, A>,
        vocab: &mut Vocabulary,
        mut ahead: Option<(&mut Ticket, &mut Pool<'_, A>)>,
    ) -> StepOutcome {
        self.stats.visited_urls += 1;
        self.stats.max_depth = self.stats.max_depth.max(entry.depth);

        let host = match self.config.admit_url(&entry.url) {
            Ok(host) => host.to_string(),
            Err(why) => {
                self.stats.url_rejected += 1;
                return StepOutcome::Skipped(why.reason());
            }
        };
        // Circuit breaker (Section 4.2 host quality, with recovery): an
        // open breaker parks the URL until the half-open deadline instead
        // of dropping it; the first URL past the deadline becomes the probe.
        match self.hosts.decide(&host, now) {
            HostDecision::Dead => return StepOutcome::Skipped("bad host"),
            HostDecision::Defer { until_ms } => {
                self.stats.backoff_wait_ms = self
                    .stats
                    .backoff_wait_ms
                    .saturating_add(until_ms.saturating_sub(now));
                went_back(&mut ahead);
                self.frontier.park(entry, until_ms);
                self.telemetry.frontier_park.inc();
                return StepOutcome::Skipped("breaker open");
            }
            HostDecision::Probe => {
                self.stats.breaker_probes += 1;
                self.telemetry.breaker_probes.inc();
            }
            HostDecision::Proceed => {}
        }

        // DNS.
        match self.resolver.resolve(&self.world, &host, now) {
            Ok(res) => *cost += res.latency_ms,
            Err(err) => {
                *cost += 100;
                self.stats.fetch_errors += 1;
                self.telemetry.fetch_err.inc();
                self.note_failure(&host, now);
                // NxDomain is permanent; a timeout may be a DNS flap
                // window, so the URL gets a backoff retry.
                if err == DnsError::Timeout && self.maybe_retry(entry, now) {
                    went_back(&mut ahead);
                }
                return StepOutcome::Skipped("dns failure");
            }
        }

        // Fetch.
        let mut prepared = None;
        if let Some((ticket, pool)) = &mut ahead {
            ticket.fetched = true;
            prepared = ticket.job().and_then(|job| pool.take(job, vocab));
        }
        let (fetch, ready) = match prepared {
            Some(p) => (p.fetch, p.content),
            None => (self.world.fetch_at(&entry.url, entry.attempt, now), None),
        };
        let response = match fetch {
            FetchOutcome::Redirect {
                location,
                latency_ms,
            } => {
                *cost += latency_ms;
                self.stats.redirects += 1;
                self.telemetry.fetch_redirect.inc();
                if entry.redirects < MAX_REDIRECTS && self.dedup.mark_url(&location) {
                    self.frontier.push_outgoing(QueueEntry {
                        url: location,
                        redirects: entry.redirects + 1,
                        ..entry
                    });
                    self.telemetry.frontier_push.inc();
                }
                return StepOutcome::Skipped("redirect");
            }
            FetchOutcome::Err { error, latency_ms } => {
                *cost += latency_ms;
                self.stats.fetch_errors += 1;
                self.telemetry.fetch_err.inc();
                self.note_failure(&host, now);
                if error.is_transient() && self.maybe_retry(entry, now) {
                    went_back(&mut ahead);
                }
                return StepOutcome::Skipped("fetch error");
            }
            FetchOutcome::Ok(resp) => {
                *cost += resp.latency_ms;
                resp
            }
        };

        // A body shorter than the advertised size means the connection
        // broke mid-transfer: treat as a transient host failure and
        // retry, *before* the response is fingerprinted.
        if response.truncated {
            self.stats.truncated_fetches += 1;
            self.stats.wasted_bytes += response.payload.len() as u64;
            self.stats.fetch_errors += 1;
            self.telemetry.fetch_truncated.inc();
            self.telemetry.fetch_err.inc();
            self.note_failure(&host, now);
            if self.maybe_retry(entry, now) {
                went_back(&mut ahead);
            }
            return StepOutcome::Skipped("truncated body");
        }

        self.telemetry.fetch_ok.inc();
        self.telemetry.fetch_latency_ms.observe(response.latency_ms);
        if self.hosts.record_success(&host) {
            self.stats.breaker_closed += 1;
            self.telemetry.breaker_closed.inc();
            self.telemetry
                .events
                .emit(Event::at(now, "crawl.breaker.close").with("host", &host));
        }
        self.stats.visited_hosts = self.hosts.visited_count() as u64;

        // The post-fetch core takes over from here: MIME/size filter →
        // duplicate fingerprints → conversion → analysis →
        // classification → bulk-load. The discrete-event executor
        // processes one URL per step, so the batch is a singleton.
        let fetched = FetchedDoc {
            depth: entry.depth,
            src_topic: entry.src_topic,
            anchor_terms: entry.anchor_terms.clone(),
            neighbor_terms: entry.neighbor_terms.clone(),
            fetched_at: now,
            response,
        };
        let (content, mut assessment) = ready.map_or((None, None), |(c, a)| (Some(c), a));
        let dedup = &mut self.dedup;
        let outcome = self
            .pipeline
            .commit(
                &self.world,
                vocab,
                vec![(fetched, content)],
                |resp| dedup.mark_response(resp.ip, path_of_url(&resp.url), resp.size),
                |docs, ctxs| {
                    docs.iter()
                        .zip(ctxs)
                        .map(|(d, c)| {
                            let a = assessment.take().unwrap_or_else(|| {
                                judge.assess.assess(d, &c.anchor_terms, &c.neighbor_terms)
                            });
                            (judge.commit)(d, c, a)
                        })
                        .collect()
                },
            )
            .pop()
            .expect("one outcome per document");
        if let Some((ticket, _)) = ahead {
            match &outcome {
                DocOutcome::DuplicateContent => ticket.late = Some(Miss::Gate),
                DocOutcome::Stored { doc, .. } | DocOutcome::AlreadyStored { doc, .. } => {
                    ticket.check_terms(doc)
                }
                _ => {}
            }
        }
        match self.pipeline.settle(&outcome, &mut self.stats) {
            Some((page_id, doc, &judgment)) => {
                self.enqueue_links(&entry, &judgment, doc, page_id);
                StepOutcome::Stored { page_id, judgment }
            }
            None => StepOutcome::Skipped(outcome.skip_reason().expect("not stored")),
        }
    }

    /// Record a failure against `host`'s breaker and roll the outcome
    /// into the crawl counters.
    fn note_failure(&mut self, host: &str, now: u64) {
        let was_dead = self.hosts.is_bad(host);
        match self.hosts.record_failure(host, now) {
            FailureOutcome::Opened { until_ms } => {
                self.stats.breaker_opened += 1;
                self.telemetry.breaker_opened.inc();
                self.telemetry.events.emit(
                    Event::at(now, "crawl.breaker.open")
                        .with("host", host)
                        .with("until_ms", until_ms),
                );
            }
            FailureOutcome::Died if !was_dead => {
                self.stats.hosts_dead += 1;
                self.telemetry.breaker_dead.inc();
                self.telemetry
                    .events
                    .emit(Event::at(now, "crawl.breaker.dead").with("host", host));
            }
            _ => {}
        }
    }

    /// Park `entry` for an exponential-backoff retry when its per-URL
    /// attempt budget and the host's breaker allow another try. Returns
    /// whether it was parked.
    fn maybe_retry(&mut self, entry: QueueEntry, now: u64) -> bool {
        if entry.attempt >= MAX_RETRIES {
            return false;
        }
        let Some(host) = host_of_url(&entry.url) else {
            return false;
        };
        if self.hosts.is_bad(host) {
            return false;
        }
        // `RETRY_BACKOFF_MS << attempt`, capped, with per-URL jitter so
        // co-failing URLs don't retry in lockstep.
        let key = (entry.url.as_str(), entry.attempt, 0x5EEDu32);
        let backoff = jittered_backoff(RETRY_BACKOFF_MS, entry.attempt, &key);
        self.stats.retries += 1;
        self.stats.backoff_wait_ms = self.stats.backoff_wait_ms.saturating_add(backoff);
        self.telemetry.retries.inc();
        self.telemetry.retry_backoff_ms.observe(backoff);
        self.telemetry.frontier_park.inc();
        self.frontier.park(
            QueueEntry {
                attempt: entry.attempt + 1,
                ..entry
            },
            now.saturating_add(backoff),
        );
        true
    }

    /// Queue the links of a stored page as [`plan_links`] decided
    /// (Section 3.3). Only what needs this scheduler's state happens
    /// here: the breaker's bad-host test, the duplicate filter and the
    /// frontier push. (Link rows are emitted by the pipeline's load
    /// stage, independent of these filters.)
    fn enqueue_links(
        &mut self,
        entry: &QueueEntry,
        judgment: &Judgment,
        doc: &bingo_textproc::AnalyzedDocument,
        page_id: u64,
    ) {
        let Some(plan) = plan_links(&self.config, entry, judgment) else {
            return;
        };
        let neighbor_terms = top_terms(doc);
        for link in &doc.links {
            let Some(link_host) = admit_link(&self.config, &link.href, &mut self.stats) else {
                continue;
            };
            // Bad host, or already queued or visited.
            if self.hosts.is_bad(link_host) || !self.dedup.mark_url(&link.href) {
                continue;
            }
            self.frontier
                .push(plan.entry(link, page_id, &neighbor_terms));
            self.telemetry.frontier_push.inc();
        }
        self.stats.queue_overflow = self.frontier.overflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CrawlStrategy, PageContext};
    use bingo_textproc::fxhash;
    use bingo_textproc::{AnalyzedDocument, TermId};
    use bingo_webworld::gen::WorldConfig;

    /// Accept everything into topic 0 with constant confidence.
    fn accept_all() -> impl FnMut(&AnalyzedDocument, &PageContext) -> Judgment {
        |_doc, _ctx| Judgment {
            topic: Some(0),
            confidence: 1.0,
        }
    }

    /// Reject everything.
    fn reject_all() -> impl FnMut(&AnalyzedDocument, &PageContext) -> Judgment {
        |_doc, _ctx| Judgment::reject(-1.0)
    }

    fn setup(seed: u64) -> (Crawler, Vocabulary) {
        let world = Arc::new(WorldConfig::small_test(seed).build());
        let config = CrawlConfig {
            max_depth: 0,
            ..CrawlConfig::default()
        };
        let crawler = Crawler::new(world, config, DocumentStore::new());
        (crawler, Vocabulary::new())
    }

    #[test]
    fn crawl_explores_and_stores() {
        let (mut crawler, mut vocab) = setup(31);
        let seed_url = crawler.world().url_of(1);
        crawler.add_seed(&seed_url, Some(0));
        let mut judge = accept_all();
        let stored = crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        let stats = crawler.stats().clone();
        assert!(stored > 50, "only {stored} stored");
        assert_eq!(stats.stored_pages, stored);
        assert!(stats.extracted_links > stats.stored_pages);
        assert!(stats.visited_hosts > 3);
        assert!(stats.elapsed_ms > 0);
        assert_eq!(stats.positively_classified, stored);
        assert_eq!(crawler.store().document_count() as u64, stored);
    }

    #[test]
    fn seeds_are_judged_without_neighbour_terms() {
        // Page 0 is a real page: once it is stored, its top terms must
        // not pose as the neighbour terms of entries nobody enqueued.
        // Every other page is judged with the top terms of exactly the
        // page that queued it.
        let (mut crawler, mut vocab) = setup(31);
        let world = crawler.world().clone();
        let mut judged: Vec<(String, Vec<TermId>)> = Vec::new();
        let mut tops: fxhash::FxHashMap<u64, Vec<TermId>> = Default::default();
        let mut judge = |doc: &AnalyzedDocument, ctx: &PageContext| {
            judged.push((ctx.url.clone(), ctx.neighbor_terms.clone()));
            tops.entry(ctx.page_id).or_insert_with(|| top_terms(doc));
            Judgment {
                topic: Some(0),
                confidence: 1.0,
            }
        };
        // The page that queued each URL, read off the frontier after
        // every step (a URL is queued once; retries keep the source).
        let mut queued_by: fxhash::FxHashMap<String, u64> = Default::default();
        let mut note_sources = |frontier: &Frontier| {
            let snap = frontier.snapshot();
            let queued = snap.incoming.into_iter().chain(snap.outgoing).flatten();
            for e in queued.chain(snap.parked.into_iter().map(|(_, e)| e)) {
                queued_by.entry(e.url).or_insert(e.src_page);
            }
        };
        for page in [0, 1] {
            crawler.add_seed(&world.url_of(page), Some(0));
            note_sources(&crawler.frontier);
            let outcome = crawler.step(&mut judge, &mut vocab);
            assert!(matches!(outcome, StepOutcome::Stored { page_id, .. } if page_id == page));
            note_sources(&crawler.frontier);
        }
        while crawler.step(&mut judge, &mut vocab) != StepOutcome::FrontierEmpty {
            note_sources(&crawler.frontier);
        }
        assert!(judged[..2].iter().all(|(_, terms)| terms.is_empty()));
        let mut from_pages = 0;
        for (url, terms) in &judged {
            match queued_by[url] {
                QueueEntry::NO_SOURCE => assert!(terms.is_empty(), "{url}"),
                src => {
                    assert_eq!(terms, &tops[&src], "{url}, queued by page {src}");
                    from_pages += 1;
                }
            }
        }
        assert!(from_pages > 50, "crawl too small: {from_pages}");
    }

    #[test]
    fn rejection_limits_spread_via_tunnelling() {
        let (mut crawler_r, mut vocab_r) = setup(31);
        let seed_url = crawler_r.world().url_of(1);
        crawler_r.add_seed(&seed_url, Some(0));
        let mut reject = reject_all();
        let stored_rejecting = crawler_r.run_until(u64::MAX, &mut reject, &mut vocab_r);

        let (mut crawler_a, mut vocab_a) = setup(31);
        crawler_a.add_seed(&seed_url, Some(0));
        let mut accept = accept_all();
        let stored_accepting = crawler_a.run_until(u64::MAX, &mut accept, &mut vocab_a);

        // With everything rejected, only tunnelling (≤2 steps) spreads the
        // crawl, so far fewer pages are reached.
        assert!(
            stored_rejecting < stored_accepting / 2,
            "tunnelling bound violated: rejecting={stored_rejecting} accepting={stored_accepting}"
        );
        assert!(
            stored_rejecting > 0,
            "tunnelling must still pass welcome pages"
        );
    }

    #[test]
    fn rejected_pages_tunnel_for_max_tunnel_hops_and_no_further() {
        // Every accepted page gets a topic of its own, so a page's
        // `src_topic` names its nearest accepted ancestor and the depth
        // gap between the two counts the rejected pages tunnelled
        // through — the `tunnel` its queue entry carried. Soft focus
        // and no depth limit as in harvesting, but depth-first order:
        // best-first pops tunnelled links last, after other paths have
        // claimed nearly every page, so a tunnel one hop too long would
        // go unseen.
        let world = Arc::new(WorldConfig::small_test(43).build());
        let config = CrawlConfig {
            strategy: CrawlStrategy::DepthFirst,
            ..CrawlConfig::default().harvesting()
        };
        let mut crawler = Crawler::new(world.clone(), config.clone(), DocumentStore::new());
        crawler.add_seed(&world.url_of(0), None);
        let mut log: Vec<(PageContext, bool)> = Vec::new();
        let mut judge = |_: &AnalyzedDocument, ctx: &PageContext| {
            let accepted = ctx.page_id == 0 || fxhash::hash_one(&ctx.page_id).is_multiple_of(3);
            log.push((ctx.clone(), accepted));
            match accepted {
                true => Judgment {
                    topic: Some(ctx.page_id as u32),
                    confidence: 0.5,
                },
                false => Judgment::reject(-0.5),
            }
        };
        let mut vocab = Vocabulary::new();
        while crawler.step(&mut judge, &mut vocab) != StepOutcome::FrontierEmpty {}
        // A page judged again through an alias follows no links: the
        // first judgment is the one its successors descend from.
        let mut accepted_depth: fxhash::FxHashMap<u32, u32> = Default::default();
        for (ctx, _) in log.iter().filter(|(_, accepted)| *accepted) {
            accepted_depth
                .entry(ctx.page_id as u32)
                .or_insert(ctx.depth);
        }
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
    fn domain_restriction_confines_crawl() {
        let world = Arc::new(WorldConfig::small_test(31).build());
        let seed_url = world.url_of(1);
        let seed_host = bingo_webworld::fetch::host_of_url(&seed_url)
            .unwrap()
            .to_string();
        let config = CrawlConfig {
            max_depth: 0,
            allowed_hosts: Some([seed_host.clone()].into_iter().collect()),
            ..CrawlConfig::default()
        };
        let mut crawler = Crawler::new(world, config, DocumentStore::new());
        crawler.add_seed(&seed_url, Some(0));
        let mut judge = accept_all();
        let mut vocab = Vocabulary::new();
        crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        crawler.store().for_each_document(|row| {
            let h = bingo_webworld::fetch::host_of_url(&row.url).unwrap();
            assert_eq!(h, seed_host, "crawled outside allowed domain: {}", row.url);
        });
    }

    #[test]
    fn locked_hosts_never_visited() {
        let world = Arc::new(WorldConfig::small_test(31).build());
        let locked = world.host(0).name.clone();
        let seed_url = world.url_of(1);
        let config = CrawlConfig {
            max_depth: 0,
            locked_hosts: [locked.clone()].into_iter().collect(),
            ..CrawlConfig::default()
        };
        let mut crawler = Crawler::new(world, config, DocumentStore::new());
        crawler.add_seed(&seed_url, Some(0));
        let mut judge = accept_all();
        let mut vocab = Vocabulary::new();
        crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        crawler.store().for_each_document(|row| {
            assert_ne!(
                bingo_webworld::fetch::host_of_url(&row.url).unwrap(),
                locked
            );
        });
    }

    #[test]
    fn duplicates_are_dismissed() {
        let (mut crawler, mut vocab) = setup(33);
        let seed_url = crawler.world().url_of(1);
        crawler.add_seed(&seed_url, Some(0));
        let mut judge = accept_all();
        crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        // Every stored page id is unique (aliases collapsed).
        let docs = crawler.store().all_documents();
        let ids: std::collections::HashSet<u64> = docs.iter().map(|d| d.id).collect();
        assert_eq!(ids.len(), docs.len());
        assert!(crawler.stats().duplicates > 0, "aliases should be caught");
    }

    #[test]
    fn media_filtered_and_errors_survived() {
        let (mut crawler, mut vocab) = setup(34);
        let seed_url = crawler.world().url_of(1);
        crawler.add_seed(&seed_url, Some(0));
        let mut judge = accept_all();
        crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        let stats = crawler.stats();
        assert!(stats.mime_rejected > 0, "video links must be filtered");
        assert!(stats.fetch_errors > 0, "dead/flaky hosts must show up");
        assert!(stats.url_rejected > 0, "trap URLs must be rejected");
        // No stored video documents.
        crawler.store().for_each_document(|row| {
            assert_ne!(row.mime, bingo_textproc::MimeType::Video);
        });
    }

    #[test]
    fn depth_limit_respected() {
        let world = Arc::new(WorldConfig::small_test(31).build());
        let seed_url = world.url_of(1);
        let config = CrawlConfig {
            max_depth: 2,
            ..CrawlConfig::default()
        };
        let mut crawler = Crawler::new(world, config, DocumentStore::new());
        crawler.add_seed(&seed_url, Some(0));
        let mut judge = accept_all();
        let mut vocab = Vocabulary::new();
        crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        assert!(crawler.stats().max_depth <= 2);
        crawler
            .store()
            .for_each_document(|row| assert!(row.depth <= 2));
    }

    #[test]
    fn deterministic_crawl() {
        let run = || {
            let (mut crawler, mut vocab) = setup(35);
            let seed_url = crawler.world().url_of(1);
            crawler.add_seed(&seed_url, Some(0));
            let mut judge = accept_all();
            crawler.run_until(1_000_000, &mut judge, &mut vocab);
            (
                crawler.stats().clone().stored_pages,
                crawler.stats().visited_urls,
                crawler.clock_ms(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn time_budget_halts_crawl() {
        let (mut crawler, mut vocab) = setup(36);
        let seed_url = crawler.world().url_of(1);
        crawler.add_seed(&seed_url, Some(0));
        let mut judge = accept_all();
        crawler.run_until(500, &mut judge, &mut vocab);
        let early = crawler.stats().stored_pages;
        let gauges = crawler.telemetry().registry.snapshot().gauges;
        let bytes = crawler.frontier.resident_bytes();
        assert!(bytes > 0 && gauges["crawl.frontier.resident_bytes"] == bytes as i64);
        crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        let late = crawler.stats().stored_pages;
        assert!(early < late, "crawl must be resumable after a budget stop");
    }

    #[test]
    fn per_host_politeness_serializes_single_host_crawls() {
        // Crawl restricted to one host: at most `PER_HOST_CONNECTIONS`
        // of the 15 simulated threads fetch from it at once, so the
        // crawl takes at least its summed fetch latency divided by the
        // connection count in virtual time.
        let world = Arc::new(WorldConfig::small_test(31).build());
        let seed_url = world.url_of(1);
        let host = host_of_url(&seed_url).unwrap().to_string();
        let config = CrawlConfig {
            max_depth: 0,
            allowed_hosts: Some([host].into_iter().collect()),
            ..CrawlConfig::default()
        };
        let mut crawler = Crawler::new(world, config, DocumentStore::new());
        crawler.add_seed(&seed_url, Some(0));
        let mut judge = accept_all();
        let mut vocab = Vocabulary::new();
        crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        let latency = crawler.telemetry().fetch_latency_ms.sum();
        let elapsed = crawler.stats().elapsed_ms;
        assert!(crawler.stats().stored_pages >= 10, "{:?}", crawler.stats());
        assert!(
            elapsed >= latency / PER_HOST_CONNECTIONS as u64,
            "{elapsed} ms for {latency} ms of fetches on one host"
        );
    }

    #[test]
    fn chaos_crawl_survives_and_exercises_breakers() {
        // A chaos world injects 5xx bursts, outages, slow drips,
        // truncated bodies, DNS flaps and redirect loops; the crawl must
        // still harvest a useful fraction and the new machinery must
        // actually fire.
        let world = Arc::new(bingo_webworld::gen::WorldConfig::chaos(41).build());
        assert!(!world.faults().is_empty(), "chaos preset installs faults");
        let config = CrawlConfig {
            max_depth: 0,
            ..CrawlConfig::default()
        };
        let mut crawler = Crawler::new(world.clone(), config, DocumentStore::new());
        crawler.add_seed(&world.url_of(1), Some(0));
        let mut judge = accept_all();
        let mut vocab = Vocabulary::new();
        let stored = crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        let stats = crawler.stats();
        assert!(stored > 20, "chaos crawl collapsed: {stored} stored");
        assert!(stats.retries > 0, "transient faults must trigger retries");
        assert!(stats.backoff_wait_ms > 0, "retries must wait");
        assert!(
            stats.breaker_opened > 0,
            "fault bursts must trip breakers: {stats:?}"
        );
        assert!(
            stats.breaker_probes > 0,
            "open breakers must issue probes: {stats:?}"
        );
    }

    #[test]
    fn truncated_bodies_are_retried_and_counted() {
        // Deterministic corruption: every body on the seed's host is
        // truncated for the first 10 virtual seconds, fewer than the
        // breaker's open deadlines add up to. The crawler must
        // count the waste, retry with backoff, and eventually (after the
        // window) harvest the host's pages anyway.
        let mut world = WorldConfig::small_test(31).build();
        let host_id = world.page(1).host;
        let mut plan = bingo_webworld::FaultPlan::empty();
        plan.insert_window(
            host_id,
            bingo_webworld::FaultWindow {
                start_ms: 0,
                end_ms: 10_000,
                kind: bingo_webworld::FaultKind::Truncate { keep_permille: 300 },
            },
        );
        world.install_faults(plan);
        let seeds: Vec<u64> = (0..world.page_count() as u64)
            .filter(|&id| {
                world.page(id).host == host_id
                    && world.page(id).redirect_to.is_none()
                    && world.page(id).size_hint.is_none()
            })
            .take(8)
            .collect();
        let world = Arc::new(world);
        let mut crawler = Crawler::new(
            world.clone(),
            CrawlConfig {
                max_depth: 0,
                ..CrawlConfig::default()
            },
            DocumentStore::new(),
        );
        for &id in &seeds {
            crawler.add_seed(&world.url_of(id), Some(0));
        }
        let mut judge = accept_all();
        let mut vocab = Vocabulary::new();
        let stored = crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        let stats = crawler.stats();
        assert!(stats.truncated_fetches > 0, "truncation unseen: {stats:?}");
        assert!(stats.wasted_bytes > 0, "wasted bytes uncounted: {stats:?}");
        assert!(stats.retries > 0, "truncated bodies must be retried");
        assert!(stored > 0, "crawl must survive the corruption window");
    }

    #[test]
    fn breaker_recovers_hosts_the_paper_would_abandon() {
        // Deterministic outage: the seed's host is down for the first 10
        // virtual seconds, shorter than the 11,625 ms a breaker stays
        // open at least before its host dies. The paper's escalation
        // would tag it bad after 3 failed retrials and lose it forever;
        // the breaker probes it after backoff and recovers the host's
        // harvest.
        let mut world = WorldConfig::small_test(31).build();
        let host_id = world.page(1).host;
        let mut plan = bingo_webworld::FaultPlan::empty();
        plan.insert_window(
            host_id,
            bingo_webworld::FaultWindow {
                start_ms: 0,
                end_ms: 10_000,
                kind: bingo_webworld::FaultKind::Outage,
            },
        );
        world.install_faults(plan);
        // Seed several pages of the faulty host so the breaker gets
        // enough traffic to trip, probe and close.
        let seeds: Vec<u64> = (0..world.page_count() as u64)
            .filter(|&id| {
                world.page(id).host == host_id
                    && world.page(id).redirect_to.is_none()
                    && world.page(id).size_hint.is_none()
            })
            .take(8)
            .collect();
        assert!(seeds.len() >= 4, "need several pages on the seed host");
        let world = Arc::new(world);
        let mut crawler = Crawler::new(
            world.clone(),
            CrawlConfig {
                max_depth: 0,
                ..CrawlConfig::default()
            },
            DocumentStore::new(),
        );
        for &id in &seeds {
            crawler.add_seed(&world.url_of(id), Some(0));
        }
        let mut judge = accept_all();
        let mut vocab = Vocabulary::new();
        let stored = crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        let stats = crawler.stats();
        assert!(stats.breaker_opened > 0, "outage must trip: {stats:?}");
        assert!(stats.breaker_probes > 0, "no probe issued: {stats:?}");
        assert!(
            stats.breaker_closed > 0,
            "no breaker ever recovered: {stats:?}"
        );
        assert!(stored > 0, "crawl must survive the outage");
        assert!(
            crawler
                .store()
                .all_documents()
                .iter()
                .any(|d| d.host == host_id),
            "recovered host must contribute to the harvest"
        );
    }

    #[test]
    fn checkpoint_round_trip_preserves_crawl_state() {
        let (mut crawler, mut vocab) = setup(38);
        let seed_url = crawler.world().url_of(1);
        crawler.add_seed(&seed_url, Some(0));
        let mut judge = accept_all();
        crawler.run_until(5_000, &mut judge, &mut vocab);
        let cp = crawler.checkpoint();
        // Checkpointing is a pure read: doing it twice gives identical
        // records.
        assert_eq!(
            serde_json::to_string(&cp).unwrap(),
            serde_json::to_string(&crawler.checkpoint()).unwrap()
        );
        // Two replicas restored from the same checkpoint (each with a
        // deep copy of the store — DocumentStore::clone shares state)
        // must continue *byte-identically*.
        let replica = || {
            let mut buf = Vec::new();
            bingo_store::persist::write_snapshot(crawler.store(), &mut buf).unwrap();
            let store_copy = bingo_store::persist::read_snapshot(&buf[..]).unwrap();
            let mut r = Crawler::new(crawler.world().clone(), crawler.config.clone(), store_copy);
            r.restore_checkpoint(crawler.checkpoint());
            r
        };
        let (mut r1, mut r2) = (replica(), replica());
        assert_eq!(r1.clock_ms(), crawler.clock_ms());
        assert_eq!(r1.frontier_len(), crawler.frontier_len());
        let mut judge2 = accept_all();
        let mut vocab1 = vocab.clone();
        let mut vocab2 = vocab.clone();
        let b1 = r1.run_until(u64::MAX, &mut judge2, &mut vocab1);
        let mut judge3 = accept_all();
        let b2 = r2.run_until(u64::MAX, &mut judge3, &mut vocab2);
        assert_eq!(b1, b2, "same-checkpoint resumes must match");
        assert_eq!(
            serde_json::to_string(r1.stats()).unwrap(),
            serde_json::to_string(r2.stats()).unwrap()
        );
        // The resumed crawl reaches the same harvest as the
        // uninterrupted original (fault-free world: the page set is
        // timing-independent; only the non-checkpointed DNS cache makes
        // operational counters drift).
        let a = crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        assert_eq!(crawler.stats().stored_pages, r1.stats().stored_pages);
        let ids = |c: &Crawler| -> Vec<u64> {
            let mut v: Vec<u64> = c.store().all_documents().iter().map(|d| d.id).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(ids(&crawler), ids(&r1), "harvest sets must match");
        assert_eq!(a, b1, "stored counts after resume must match");
    }

    #[test]
    fn auto_checkpoint_writes_sessions() {
        let dir = std::env::temp_dir().join("bingo-auto-checkpoint-test");
        std::fs::remove_dir_all(&dir).ok();
        let world = Arc::new(WorldConfig::small_test(39).build());
        let config = CrawlConfig {
            max_depth: 0,
            checkpoint_every_docs: 10,
            checkpoint_dir: Some(dir.clone()),
            ..CrawlConfig::default()
        };
        let mut crawler = Crawler::new(world.clone(), config.clone(), DocumentStore::new());
        crawler.add_seed(&world.url_of(1), Some(0));
        let mut judge = accept_all();
        let mut vocab = Vocabulary::new();
        crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        assert!(crawler.stats().checkpoints_written > 0);
        // Sessions are checkpoint generations: a manifest-committed
        // directory holding both files.
        let newest = durable::find_newest_complete(&dir).expect("a complete generation");
        assert!(newest.dir.join("crawler.json").exists());
        assert!(newest.dir.join("store.jsonl").exists());
        // Keep-last-K pruning bounds the session directory.
        let generations = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("gen-"))
            .count();
        assert!(
            generations <= durable::DEFAULT_KEEP_GENERATIONS,
            "pruning must bound generations: {generations} kept"
        );
        if crawler.stats().checkpoints_written > durable::DEFAULT_KEEP_GENERATIONS as u64 {
            let snap = crawler.telemetry().registry.snapshot();
            assert!(
                snap.counters["crawl.checkpoint.pruned"] > 0,
                "pruned generations must be counted"
            );
        }
        // The session loads back into a working crawler.
        let resumed = Crawler::resume_session(world, config, &dir).unwrap();
        assert!(resumed.store().document_count() > 0);
        assert!(resumed.clock_ms() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn redirects_reach_canonical_pages() {
        let (mut crawler, mut vocab) = setup(37);
        let seed_url = crawler.world().url_of(1);
        crawler.add_seed(&seed_url, Some(0));
        let mut judge = accept_all();
        crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        assert!(crawler.stats().redirects > 0, "redirect stubs exist");
    }
}
