//! The crawl loop: a discrete-event simulation of the multi-threaded
//! fetch/classify/enqueue pipeline (Sections 2.1 and 4.2).
//!
//! Each [`Crawler::step`] call processes one URL end to end on the
//! earliest-free simulated thread: frontier pop → hygiene guards → DNS →
//! fetch (with redirect/timeout handling), then the post-fetch core
//! ([`crate::pipeline`]) — MIME/size filter → duplicate fingerprints →
//! content conversion → document analysis → classification via the
//! pluggable [`DocumentJudge`] → bulk-load → settle → focus decision.
//! This module is only the scheduler: the virtual clock, the frontier,
//! politeness slots, breakers and retries. Virtual time advances by the
//! real latencies the simulated network reports, so wall-clock budgets
//! ("a 90-minute crawl") are meaningful and deterministic.

use crate::checkpoint::{
    load_checkpoint, CheckpointError, CrawlCheckpoint, CRAWLER_FILE, STORE_FILE,
};
use crate::dedup::{path_of_url, Dedup, DedupStats};
use crate::dns::CachingResolver;
use crate::frontier::{Frontier, QueueEntry};
use crate::hosts::{FailureOutcome, HostDecision, HostManager};
use crate::pipeline::{admit_link, plan_links, DocPipeline, FetchedDoc, PageTermCache};
use crate::telemetry::CrawlTelemetry;
use crate::types::{
    CrawlConfig, CrawlStats, Judgment, MAX_REDIRECTS, PROCESSING_COST_MS, RETRY_BACKOFF_MS,
};
use crate::DocumentJudge;
use bingo_obs::Event;
use bingo_store::durable;
use bingo_store::DocumentStore;
use bingo_textproc::fxhash;
use bingo_textproc::Vocabulary;
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
    /// (politeness: at most `per_host_connections` simultaneous fetches
    /// per host, Section 5.1).
    host_slots: bingo_textproc::fxhash::FxHashMap<String, Vec<u64>>,
    /// Most significant terms of each stored page, feeding the
    /// neighbour-document feature space of its successors (Section 3.4).
    /// Bounded by `config.page_terms_cap` (0 = unbounded).
    page_top_terms: PageTermCache,
    /// Dedup counters at the last telemetry poll (for counter deltas).
    last_dedup_stats: DedupStats,
    /// Stale spill files swept from the configured spill directories at
    /// construction.
    stale_spill_reaped: u64,
    clock: u64,
    /// Metric handles; intentionally not part of checkpoints (telemetry
    /// describes a run, not the crawl state).
    telemetry: CrawlTelemetry,
    /// Incremental host-level webgraph feeding authority-blended
    /// frontier priorities; `None` unless `config.authority.enabled`.
    authority: Option<Arc<crate::authority::HostAuthority>>,
}

impl Crawler {
    /// New crawler over `world` writing into `store`.
    pub fn new(world: Arc<World>, config: CrawlConfig, store: DocumentStore) -> Self {
        let topics = world.topics().len();
        let stale_spill_reaped = config.reap_stale_spill();
        let frontier = Frontier::with_spill(
            topics,
            config.incoming_queue_cap,
            config.outgoing_queue_cap,
            Self::spill_config(&config),
        );
        let threads = (0..config.threads.max(1))
            .map(|tid| Reverse((0u64, tid)))
            .collect();
        let telemetry = CrawlTelemetry::default();
        // When the authority blend is on, interpose the host-graph tee
        // on the store handle so every accepted document and link row
        // feeds the graph; with it off the store is untouched and the
        // crawl is bit-identical to an authority-free build.
        let authority = config.authority.enabled.then(|| {
            Arc::new(crate::authority::HostAuthority::new(
                config.authority.clone(),
                telemetry.graph.clone(),
            ))
        });
        let store = match &authority {
            Some(auth) => store.with_added_tee(auth.clone() as Arc<dyn bingo_store::IndexTee>),
            None => store,
        };
        let pipeline = DocPipeline::new(store.clone(), 1, &telemetry);
        telemetry.spill_reaped.add(stale_spill_reaped);
        Crawler {
            hosts: HostManager::with_config(config.breaker.clone()),
            frontier,
            threads,
            dedup: Dedup::for_config(&config),
            page_top_terms: PageTermCache::new(config.page_terms_cap),
            world,
            config,
            resolver: CachingResolver::new(),
            store,
            pipeline,
            stats: CrawlStats::default(),
            host_slots: bingo_textproc::fxhash::FxHashMap::default(),
            last_dedup_stats: DedupStats::default(),
            stale_spill_reaped,
            clock: 0,
            telemetry,
            authority,
        }
    }

    /// The authority state when the blend is enabled (for experiments
    /// and tests inspecting the host graph).
    pub fn authority(&self) -> Option<&Arc<crate::authority::HostAuthority>> {
        self.authority.as_ref()
    }

    /// Spill configuration derived from the crawl config (`None` unless
    /// `frontier_spill_dir` is set).
    fn spill_config(config: &CrawlConfig) -> Option<crate::frontier::SpillConfig> {
        config
            .frontier_spill_dir
            .as_ref()
            .map(|dir| crate::frontier::SpillConfig {
                dir: dir.clone(),
                hot_cap: config.frontier_hot_cap,
            })
    }

    /// Aggregated spill counters of the duplicate filter (all zero for
    /// a fully resident filter).
    pub fn dedup_stats(&self) -> DedupStats {
        self.dedup.stats()
    }

    /// Route this crawler's metrics and events into a shared telemetry
    /// namespace (e.g. one registry covering crawl + engine + index).
    pub fn set_telemetry(&mut self, telemetry: CrawlTelemetry) {
        self.pipeline = DocPipeline::new(self.store.clone(), 1, &telemetry);
        if let Some(auth) = &self.authority {
            auth.set_telemetry(telemetry.graph.clone());
        }
        // Replay startup-time spill state into the new registry: the
        // stale-file sweep happened under the private default registry.
        telemetry.spill_reaped.add(self.stale_spill_reaped);
        self.last_dedup_stats = DedupStats::default();
        telemetry
            .dedup
            .record(&self.dedup.stats(), &mut self.last_dedup_stats);
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
            page_top_terms: self.page_top_terms.sorted_entries(),
            host_graph: self.authority.as_ref().map(|a| a.checkpoint()),
        }
    }

    /// Overwrite this crawler's mid-crawl state from a checkpoint. The
    /// resolver cache is intentionally *not* part of checkpoints: it is
    /// a pure cache and repopulates on the first fetch per host.
    pub fn restore_checkpoint(&mut self, cp: CrawlCheckpoint) {
        self.clock = cp.clock_ms;
        self.stats = cp.stats;
        self.frontier = Frontier::restore_with(
            cp.frontier,
            self.config.incoming_queue_cap,
            self.config.outgoing_queue_cap,
            Self::spill_config(&self.config),
        );
        self.dedup = Dedup::restore_into(Dedup::for_config(&self.config), cp.dedup);
        self.hosts = HostManager::restore(
            self.config.breaker.clone(),
            cp.host_health,
            cp.visited_hosts,
        );
        self.threads = cp.threads.into_iter().map(Reverse).collect();
        self.host_slots = cp.host_slots.into_iter().collect();
        self.page_top_terms =
            PageTermCache::from_entries(cp.page_top_terms, self.config.page_terms_cap);
        if let (Some(auth), Some(snap)) = (&self.authority, cp.host_graph) {
            auth.restore(snap);
        }
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
    /// An in-memory store is written in full; a segmented store is
    /// written as references to its sealed segments plus the unsealed
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
        let pruned = self.prune_session(fs, dir);
        self.telemetry.checkpoint_pruned.add(pruned as u64);
        Ok(generation)
    }

    /// Write this crawler's session files (store checkpoint + crawler
    /// checkpoint) into an open generation. Callers that bundle more
    /// artifacts into the same commit (e.g.
    /// `bingo_core::persist::save_session` adds the engine snapshot)
    /// append them, commit the writer and then call
    /// [`Crawler::prune_session`].
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

    /// After a generation of `dir` committed: prune generations beyond
    /// [`durable::DEFAULT_KEEP_GENERATIONS`], then let a segmented store
    /// delete the segments that only pruned generations referenced.
    /// Returns the prune count; like pruning, a failed release is
    /// retried by the next save, never fatal.
    pub fn prune_session(&self, fs: &dyn durable::DurableFs, dir: &std::path::Path) -> usize {
        let pruned = durable::prune_generations(dir, durable::DEFAULT_KEEP_GENERATIONS);
        let kept = durable::generation_numbers(dir)
            .into_iter()
            .map(|generation| durable::generation_dir(dir, generation).join(STORE_FILE));
        let _ = bingo_store::persist::release_unreferenced(&self.store, fs, kept);
        pruned
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
        let dir = dir.as_ref();
        let mut newest_failure = None;
        for session in durable::complete_newest_first(dir) {
            match bingo_store::persist::load(session.dir.join(STORE_FILE)) {
                Ok(store) => {
                    let cp = load_checkpoint(session.dir.join(CRAWLER_FILE))?;
                    let mut crawler = Crawler::new(world, config, store);
                    crawler.restore_checkpoint(cp);
                    return Ok(crawler);
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
    pub fn host_states(&self) -> Vec<(String, bingo_store::HostState, u32)> {
        let mut states: Vec<(String, bingo_store::HostState, u32)> = self
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

    /// Queued URLs whose payload lives in frontier spill files (0 unless
    /// `frontier_spill_dir` is configured).
    pub fn frontier_spilled_len(&self) -> usize {
        self.frontier.spilled_len()
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
        judge: &mut dyn DocumentJudge,
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

    /// Process one URL. See the module docs for the pipeline stages.
    ///
    /// When every remaining URL is parked in retry/breaker backoff, the
    /// virtual clock fast-forwards to the earliest release time — the
    /// simulated crawler idles until work becomes available again.
    pub fn step(&mut self, judge: &mut dyn DocumentJudge, vocab: &mut Vocabulary) -> StepOutcome {
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
        // most `per_host_connections` simultaneous fetches per host).
        let slot_key = host_of_url(&entry.url).map(str::to_string);
        let mut slot_index = None;
        if let Some(host) = &slot_key {
            let slots = self
                .host_slots
                .entry(host.clone())
                .or_insert_with(|| vec![0; self.config.per_host_connections.max(1)]);
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
        let outcome = self.process(entry, now, &mut cost, judge, vocab);
        let done = now + cost;
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
            .pipeline
            .queue_depth
            .set(self.frontier.len() as i64);
        self.telemetry
            .dedup
            .record(&self.dedup.stats(), &mut self.last_dedup_stats);
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

    fn process(
        &mut self,
        entry: QueueEntry,
        now: u64,
        cost: &mut u64,
        judge: &mut dyn DocumentJudge,
        vocab: &mut Vocabulary,
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
                self.stats.backoff_wait_ms += until_ms.saturating_sub(now);
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
                if err == DnsError::Timeout {
                    self.maybe_retry(entry, now);
                }
                return StepOutcome::Skipped("dns failure");
            }
        }

        // Fetch.
        let response = match self.world.fetch_at(&entry.url, entry.attempt, now) {
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
                if error.is_transient() {
                    self.maybe_retry(entry, now);
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
            self.maybe_retry(entry, now);
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
            neighbor_terms: self.page_top_terms.neighbor_terms(entry.src_page),
            fetched_at: now,
            response,
        };
        let dedup = &mut self.dedup;
        let outcome = self
            .pipeline
            .run(
                &self.world,
                vocab,
                vec![fetched],
                |resp| dedup.mark_response(resp.ip, path_of_url(&resp.url), resp.size),
                |docs, ctxs| {
                    docs.iter()
                        .zip(ctxs)
                        .map(|(d, c)| judge.judge(d, c))
                        .collect()
                },
            )
            .pop()
            .expect("one outcome per document");
        self.page_top_terms.record(&outcome);
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
    /// attempt budget and the host's breaker allow another try.
    fn maybe_retry(&mut self, entry: QueueEntry, now: u64) {
        if entry.attempt >= self.config.max_retries {
            return;
        }
        let Some(host) = host_of_url(&entry.url) else {
            return;
        };
        if !self.hosts.retries_left(host) {
            return;
        }
        let backoff = self.retry_backoff(&entry.url, entry.attempt);
        self.stats.retries += 1;
        self.stats.backoff_wait_ms += backoff;
        self.telemetry.retries.inc();
        self.telemetry.retry_backoff_ms.observe(backoff);
        self.telemetry.frontier_park.inc();
        self.frontier.park(
            QueueEntry {
                attempt: entry.attempt + 1,
                ..entry
            },
            now + backoff,
        );
    }

    /// Backoff before retry `attempt` of `url`: `RETRY_BACKOFF_MS <<
    /// attempt`, capped by the breaker's ceiling, with deterministic
    /// per-URL jitter so co-failing URLs don't retry in lockstep.
    fn retry_backoff(&self, url: &str, attempt: u32) -> u64 {
        let base = RETRY_BACKOFF_MS
            .checked_shl(attempt.min(20))
            .unwrap_or(u64::MAX)
            .min(self.config.breaker.max_backoff_ms)
            .max(1);
        let amplitude = base * self.config.breaker.jitter_permille as u64 / 1000;
        if amplitude == 0 {
            return base;
        }
        base - amplitude + fxhash::hash_one(&(url, attempt, 0x5EEDu32)) % (2 * amplitude + 1)
    }

    /// Queue the links of a stored page as [`plan_links`] decided
    /// (Section 3.3). Only what needs this scheduler's state happens
    /// here: the breaker's bad-host test, the duplicate filter, the
    /// authority blend and the frontier push. (Link rows are emitted by
    /// the pipeline's load stage, independent of these filters.)
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
        for link in &doc.links {
            let Some(link_host) = admit_link(&self.config, &link.href, &mut self.stats) else {
                continue;
            };
            // Bad host, or already queued or visited.
            if self.hosts.is_bad(link_host) || !self.dedup.mark_url(&link.href) {
                continue;
            }
            let mut child = plan.entry(link, page_id);
            // Authority blend (config-gated, default off):
            // α·content_priority + β·host_authority(link host). With
            // α = 1, β = 0 this is the identity on finite priorities.
            if let Some(auth) = &self.authority {
                child.priority = auth.blend(child.priority, link_host);
            }
            self.frontier.push(child);
            self.telemetry.frontier_push.inc();
        }
        self.stats.queue_overflow = self.frontier.overflow;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{CrawlStrategy, PageContext};
    use bingo_textproc::AnalyzedDocument;
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

    /// Best-first config with the authority blend on and a short
    /// recompute cadence so small test crawls exercise it.
    fn authority_config(alpha: f32, beta: f32) -> CrawlConfig {
        CrawlConfig {
            max_depth: 0,
            strategy: CrawlStrategy::BestFirst,
            authority: crate::authority::AuthorityConfig {
                enabled: true,
                alpha,
                beta,
                recompute_every_batches: 4,
                ..crate::authority::AuthorityConfig::default()
            },
            ..CrawlConfig::default()
        }
    }

    /// Accept into topic 0 with document-dependent confidence, so
    /// best-first ordering actually discriminates.
    fn varying_confidence() -> impl FnMut(&AnalyzedDocument, &PageContext) -> Judgment {
        |doc, _ctx| Judgment {
            topic: Some(0),
            confidence: 0.1 + (doc.links.len() % 8) as f32 / 8.0,
        }
    }

    /// The per-document fetch order of a finished crawl: (fetched_at,
    /// id), in virtual-time order. Byte-equal sequences mean the two
    /// crawls popped the frontier in the same order.
    fn fetch_order(c: &Crawler) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = c
            .store()
            .all_documents()
            .iter()
            .map(|d| (d.fetched_at, d.id))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn authority_blend_feeds_graph_and_changes_ordering() {
        let world = Arc::new(WorldConfig::small_test(57).build());
        let run = |config: CrawlConfig| {
            let mut c = Crawler::new(world.clone(), config, DocumentStore::new());
            c.add_seed(&world.url_of(1), Some(0));
            let mut judge = varying_confidence();
            let mut vocab = Vocabulary::new();
            c.run_until(u64::MAX, &mut judge, &mut vocab);
            c
        };
        let plain = run(CrawlConfig {
            max_depth: 0,
            strategy: CrawlStrategy::BestFirst,
            ..CrawlConfig::default()
        });
        let blended = run(authority_config(0.6, 0.4));

        // The tee observed the harvest and recomputed on cadence.
        let auth = blended.authority().expect("authority enabled");
        assert!(plain.authority().is_none());
        assert!(
            auth.host_count() > 3,
            "graph too small: {}",
            auth.host_count()
        );
        assert!(auth.edge_count() > 0);
        assert!(auth.recomputes() > 0, "cadence never fired");
        let snap = blended.telemetry().registry.snapshot();
        assert!(snap.gauges["crawl.graph.hosts"] > 3);
        assert!(snap.counters["crawl.graph.links"] > 0);
        assert!(snap.counters["crawl.graph.recomputes"] > 0);

        // β > 0 reorders the frontier relative to the pure-content run
        // (same harvest set in a fault-free world, different order).
        assert_ne!(
            fetch_order(&plain),
            fetch_order(&blended),
            "blend had no effect on frontier ordering"
        );
    }

    #[test]
    fn authority_identity_blend_is_bit_identical_to_disabled() {
        let world = Arc::new(WorldConfig::small_test(58).build());
        let run = |config: CrawlConfig| {
            let mut c = Crawler::new(world.clone(), config, DocumentStore::new());
            c.add_seed(&world.url_of(1), Some(0));
            let mut judge = varying_confidence();
            let mut vocab = Vocabulary::new();
            c.run_until(u64::MAX, &mut judge, &mut vocab);
            c
        };
        let disabled = run(CrawlConfig {
            max_depth: 0,
            strategy: CrawlStrategy::BestFirst,
            ..CrawlConfig::default()
        });
        // α = 1, β = 0: the blend is the identity on every finite
        // priority, so the whole crawl must replay identically even
        // though the graph machinery runs.
        let identity = run(authority_config(1.0, 0.0));
        assert_eq!(fetch_order(&disabled), fetch_order(&identity));
        assert_eq!(
            serde_json::to_string(disabled.stats()).unwrap(),
            serde_json::to_string(identity.stats()).unwrap()
        );
    }

    #[test]
    fn authority_checkpoint_resume_replays_identical_orderings() {
        let world = Arc::new(WorldConfig::small_test(59).build());
        let config = authority_config(0.6, 0.4);
        let mut crawler = Crawler::new(world.clone(), config.clone(), DocumentStore::new());
        crawler.add_seed(&world.url_of(1), Some(0));
        let mut judge = varying_confidence();
        let mut vocab = Vocabulary::new();
        crawler.run_until(4_000, &mut judge, &mut vocab);

        let cp = crawler.checkpoint();
        assert!(
            cp.host_graph.is_some(),
            "enabled blend must checkpoint the graph"
        );
        // Checkpointing is a pure read and includes the graph.
        assert_eq!(
            serde_json::to_string(&cp).unwrap(),
            serde_json::to_string(&crawler.checkpoint()).unwrap()
        );
        assert_eq!(
            crate::checkpoint::checkpoint_bytes(&cp).unwrap(),
            serde_json::to_string(&cp).unwrap().into_bytes(),
            "the streamed file bytes are the record's encoding, host graph included"
        );

        // Two replicas restored from the same checkpoint (deep store
        // copies) must finish the crawl byte-identically: same fetch
        // order, same stats, same final checkpoint — including the
        // host-graph state driving the blend.
        let replica = || {
            let mut buf = Vec::new();
            bingo_store::persist::write_snapshot(crawler.store(), &mut buf).unwrap();
            let store_copy = bingo_store::persist::read_snapshot(&buf[..]).unwrap();
            let mut r = Crawler::new(world.clone(), config.clone(), store_copy);
            r.restore_checkpoint(crawler.checkpoint());
            r
        };
        let (mut r1, mut r2) = (replica(), replica());
        let auth1 = r1.authority().expect("replica has authority").clone();
        assert_eq!(
            auth1.host_count(),
            crawler.authority().unwrap().host_count(),
            "restore must rebuild the graph"
        );
        let mut judge1 = varying_confidence();
        let mut judge2 = varying_confidence();
        let mut vocab1 = vocab.clone();
        let mut vocab2 = vocab.clone();
        let s1 = r1.run_until(u64::MAX, &mut judge1, &mut vocab1);
        let s2 = r2.run_until(u64::MAX, &mut judge2, &mut vocab2);
        assert_eq!(s1, s2);
        assert_eq!(
            fetch_order(&r1),
            fetch_order(&r2),
            "resumed crawls must pop the frontier in the same order"
        );
        assert_eq!(
            serde_json::to_string(&r1.checkpoint()).unwrap(),
            serde_json::to_string(&r2.checkpoint()).unwrap(),
            "final states (frontier + host graph) must be byte-identical"
        );

        // And the resumed harvest matches the uninterrupted original.
        // (Set equality, not timing: the DNS cache is deliberately not
        // checkpointed, so the resumed run re-resolves and fetch
        // timestamps shift by the cache-miss latency.)
        crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        let ids = |c: &Crawler| {
            let mut v: Vec<u64> = c.store().all_documents().iter().map(|d| d.id).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            ids(&crawler),
            ids(&r1),
            "resume must reach the original's harvest"
        );
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
        let (mut crawler, mut vocab) = setup(31);
        let world = crawler.world().clone();
        let mut seed_neighbours = Vec::new();
        let mut judge = |_: &AnalyzedDocument, ctx: &PageContext| {
            if ctx.depth == 0 {
                seed_neighbours.push(ctx.neighbor_terms.len());
            }
            Judgment {
                topic: Some(0),
                confidence: 1.0,
            }
        };
        for page in [0, 1] {
            crawler.add_seed(&world.url_of(page), Some(0));
            let outcome = crawler.step(&mut judge, &mut vocab);
            assert!(matches!(outcome, StepOutcome::Stored { page_id, .. } if page_id == page));
        }
        assert_eq!(seed_neighbours, [0, 0]);
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
        crawler.run_until(u64::MAX, &mut judge, &mut vocab);
        let late = crawler.stats().stored_pages;
        assert!(early < late, "crawl must be resumable after a budget stop");
    }

    #[test]
    fn per_host_politeness_serializes_single_host_crawls() {
        // Crawl restricted to one host: with 1 connection slot the crawl
        // must take longer (virtual time) than with 8 slots, because
        // fetches serialize.
        let elapsed_with = |conns: usize| {
            let world = Arc::new(WorldConfig::small_test(31).build());
            let seed_url = world.url_of(1);
            let host = bingo_webworld::fetch::host_of_url(&seed_url)
                .unwrap()
                .to_string();
            let config = CrawlConfig {
                max_depth: 0,
                per_host_connections: conns,
                allowed_hosts: Some([host].into_iter().collect()),
                ..CrawlConfig::default()
            };
            let mut crawler = Crawler::new(world, config, DocumentStore::new());
            crawler.add_seed(&seed_url, Some(0));
            let mut judge = accept_all();
            let mut vocab = Vocabulary::new();
            crawler.run_until(u64::MAX, &mut judge, &mut vocab);
            (crawler.stats().stored_pages, crawler.stats().elapsed_ms)
        };
        let (stored_1, time_1) = elapsed_with(1);
        let (stored_8, time_8) = elapsed_with(8);
        assert_eq!(stored_1, stored_8, "same pages crawled either way");
        assert!(
            time_1 > time_8,
            "1 connection must be slower: {time_1} vs {time_8}"
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
        // truncated for the first 10 virtual seconds. The crawler must
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
                // Generous recovery budget: the window outlasts several
                // breaker cycles.
                breaker: crate::hosts::BreakerConfig {
                    max_open_cycles: 10,
                    ..Default::default()
                },
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
        // Deterministic outage: the seed's host is down for the first 3
        // virtual seconds. The paper's escalation would tag it bad after
        // 3 failed retrials and lose it forever; the breaker probes it
        // after backoff and recovers the host's harvest.
        let mut world = WorldConfig::small_test(31).build();
        let host_id = world.page(1).host;
        let mut plan = bingo_webworld::FaultPlan::empty();
        plan.insert_window(
            host_id,
            bingo_webworld::FaultWindow {
                start_ms: 0,
                end_ms: 12_000,
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
                breaker: crate::hosts::BreakerConfig {
                    max_open_cycles: 10,
                    ..Default::default()
                },
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
