//! The distributed-crawl coordinator: host-sharded dispatch, lease
//! supervision, node fault handling, and crash-consistent multi-node
//! snapshots — all on one virtual clock.
//!
//! The coordinator owns the [`LeaseQueue`] and a slot per worker node.
//! Each scheduling round it (1) applies due fault windows from the
//! [`NodeFaultPlan`] — kills drop the node and replay its
//! uncheckpointed completions, stalls push its next free time out —
//! and restarts nodes whose kill window ended, restoring their store
//! from the last committed generation; (2) expires overdue leases;
//! (3) leases a batch to every live, free node and drives it through
//! the node's pipeline, acking on durable bulk-load and sharding the
//! discovered links back into the queue; (4) commits a **two-phase
//! distributed snapshot** every [`DistConfig::snapshot_every_acks`]
//! acks: phase one writes every node's store (`node-K/store.jsonl`),
//! phase two writes the lease journal, the coordinator state and the
//! term dictionary every node's rows are interned in, and commits the
//! manifest — one generation, all nodes, atomically visible or not at
//! all.
//!
//! Recovery is the same path twice over:
//!
//! * a **node** kill loses only that node's memory; its completions
//!   past the last cut are replayed from the coordinator's in-memory
//!   record, its in-flight lease expires at its deadline, and the
//!   restarted node reloads its store from the committed generation;
//! * a **process** crash loses everything in memory; [`Coordinator::
//!   resume`] rolls the whole cluster back to the newest complete
//!   generation — node stores, lease journal (whose in-flight leases
//!   are orphan-requeued on load), dictionary and clock — so the crawl
//!   continues from a cut where all of them agreed.

use crate::lease::{LeaseQueue, LeaseStats, QueuedItem, WorkItem, JOURNAL_FILE};
use crate::node::WorkerNode;
use crate::shard_of_url;
use crate::telemetry::DistTelemetry;
use bingo_crawler::{BatchJudge, CrawlConfig};
use bingo_obs::Event;
use bingo_store::durable::{
    find_newest_complete, prune_generations, GenerationWriter, DEFAULT_KEEP_GENERATIONS,
};
use bingo_store::{DocumentStore, DurableFs, StdFs};
use bingo_textproc::Vocabulary;
use bingo_webworld::{NodeFaultKind, NodeFaultPlan, World};
use serde::{Deserialize, Serialize};
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

/// Format marker of the coordinator state file.
pub const COORD_MAGIC: &str = "bingo-dist-coordinator";
/// Current coordinator state format version.
pub const COORD_VERSION: u32 = 1;
/// Coordinator state file inside a generation.
pub const COORD_FILE: &str = "coordinator.json";
/// Term dictionary file inside a generation.
pub const VOCAB_FILE: &str = "vocab.json";

/// Virtual lease time-to-live: an unacked lease expires this long
/// after issue.
pub const LEASE_TTL_MS: u64 = 30_000;
/// Max items per lease (and the size of a node's bulk-load workspace).
pub const LEASE_BATCH: usize = 16;
/// Virtual per-stored-document processing cost on a node, in ms.
pub const NODE_PROC_MS: u64 = 2;

/// Configuration of a distributed crawl.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Worker nodes (== shards).
    pub nodes: usize,
    /// Session directory holding snapshot generations and the lease
    /// journal.
    pub session_dir: PathBuf,
    /// Expired leases an item may ride before quarantine.
    pub poison_budget: u32,
    /// Commit a distributed snapshot every this many acks (0 acts as 1:
    /// a round with no ack commits nothing).
    pub snapshot_every_acks: u64,
    /// Links deeper than this are not followed.
    pub max_depth: u32,
}

impl DistConfig {
    /// Defaults for an N-node crawl under `session_dir`.
    pub fn new(nodes: usize, session_dir: impl Into<PathBuf>) -> Self {
        DistConfig {
            nodes: nodes.max(1),
            session_dir: session_dir.into(),
            poison_budget: 3,
            snapshot_every_acks: 64,
            max_depth: 4,
        }
    }
}

/// Deterministic counters of one distributed crawl.
#[derive(Debug, Default, Clone, Serialize, Deserialize, PartialEq, Eq)]
pub struct DistStats {
    /// Documents stored across all nodes.
    pub stored: u64,
    /// Successful fetches.
    pub fetch_ok: u64,
    /// Fetch errors.
    pub fetch_err: u64,
    /// Redirect responses.
    pub redirects: u64,
    /// Node kills applied from the fault plan.
    pub kills: u64,
    /// Node stall windows applied.
    pub stalls: u64,
    /// Node restarts.
    pub restarts: u64,
    /// Completed items replayed after their node died before a cut.
    pub replayed: u64,
    /// Batches whose lease never acked because the node died
    /// mid-processing. Their rows are in that node's store: the replay
    /// after the lease expires stores them again if the store died with
    /// the node, or finds them `AlreadyStored` if a snapshot cut kept
    /// them.
    pub discarded_batches: u64,
    /// Distributed snapshot generations committed.
    pub snapshots: u64,
}

/// Serialized coordinator state inside a snapshot generation.
#[derive(Debug, Serialize, Deserialize)]
struct CoordState {
    magic: String,
    version: u32,
    clock_ms: u64,
    nodes: usize,
    stats: DistStats,
}

struct NodeSlot {
    node: Option<WorkerNode>,
    /// The node is busy (or stalled) until this virtual instant.
    free_at: u64,
    /// When a killed node comes back (end of its kill window).
    restart_at: Option<u64>,
    /// Next fault window of this node not yet applied.
    fault_idx: usize,
}

/// The coordinator of an N-node distributed crawl.
pub struct Coordinator {
    world: Arc<World>,
    config: DistConfig,
    judge: Arc<dyn BatchJudge>,
    fs: Arc<dyn DurableFs>,
    vocab: Vocabulary,
    queue: LeaseQueue,
    slots: Vec<NodeSlot>,
    /// Last committed snapshot bytes per node (empty = empty store).
    node_restore: Vec<Vec<u8>>,
    /// Items acked per node since the last committed cut — replayed if
    /// that node dies before the next cut.
    uncheckpointed: Vec<Vec<QueuedItem>>,
    plan: NodeFaultPlan,
    telemetry: DistTelemetry,
    last_queue_stats: LeaseStats,
    clock_ms: u64,
    acks_since_snapshot: u64,
    stats: DistStats,
}

impl Coordinator {
    /// A fresh distributed crawl (durable writes through [`StdFs`]).
    pub fn new(world: Arc<World>, judge: Arc<dyn BatchJudge>, config: DistConfig) -> Self {
        Self::with_fs(world, judge, config, Arc::new(StdFs))
    }

    /// A fresh crawl with an injected filesystem (crash tests).
    pub fn with_fs(
        world: Arc<World>,
        judge: Arc<dyn BatchJudge>,
        config: DistConfig,
        fs: Arc<dyn DurableFs>,
    ) -> Self {
        let n = config.nodes;
        let telemetry = DistTelemetry::default();
        let queue = LeaseQueue::new(n, config.poison_budget, LEASE_TTL_MS);
        let slots = (0..n)
            .map(|k| NodeSlot {
                node: Some(WorkerNode::new(k)),
                free_at: 0,
                restart_at: None,
                fault_idx: 0,
            })
            .collect();
        Coordinator {
            world,
            judge,
            fs,
            vocab: Vocabulary::new(),
            queue,
            slots,
            node_restore: vec![Vec::new(); n],
            uncheckpointed: vec![Vec::new(); n],
            plan: NodeFaultPlan::empty(),
            telemetry,
            last_queue_stats: LeaseStats::default(),
            clock_ms: 0,
            acks_since_snapshot: 0,
            stats: DistStats::default(),
            config,
        }
    }

    /// Resume a crawl from the newest complete snapshot generation in
    /// `config.session_dir`. With no committed generation this is
    /// [`Coordinator::new`]. Rolls every node's store, the lease
    /// journal (orphaning its in-flight leases), the term dictionary and
    /// the clock back to the same cut.
    pub fn resume(
        world: Arc<World>,
        judge: Arc<dyn BatchJudge>,
        config: DistConfig,
    ) -> io::Result<Self> {
        let Some(generation) = find_newest_complete(&config.session_dir) else {
            return Ok(Self::new(world, judge, config));
        };
        let mut coord = Self::new(world, judge, config);
        let read_json = |file: &str| -> io::Result<String> {
            String::from_utf8(std::fs::read(generation.dir.join(file))?)
                .map_err(|e| io::Error::other(format!("{file} not utf-8: {e}")))
        };
        let state: CoordState = serde_json::from_str(&read_json(COORD_FILE)?)
            .map_err(|e| io::Error::other(e.to_string()))?;
        if state.magic != COORD_MAGIC || state.version != COORD_VERSION {
            return Err(io::Error::other("bad coordinator state header"));
        }
        if state.nodes != coord.config.nodes {
            return Err(io::Error::other(format!(
                "session has {} nodes, config wants {}",
                state.nodes, coord.config.nodes
            )));
        }
        coord.clock_ms = state.clock_ms;
        coord.stats = state.stats;
        coord.vocab = serde_json::from_str(&read_json(VOCAB_FILE)?)
            .map_err(|e| io::Error::other(e.to_string()))?;
        coord.vocab.rebuild_index();
        coord.queue =
            LeaseQueue::from_journal_bytes(&std::fs::read(generation.dir.join(JOURNAL_FILE))?)?;
        for k in 0..coord.config.nodes {
            let bytes = std::fs::read(generation.dir.join(format!("node-{k}/store.jsonl")))?;
            let node = WorkerNode::restore(k, &bytes)?;
            coord.node_restore[k] = bytes;
            coord.slots[k] = NodeSlot {
                node: Some(node),
                free_at: coord.clock_ms,
                restart_at: None,
                fault_idx: 0,
            };
        }
        coord.telemetry.events.emit(
            Event::at(coord.clock_ms, "dist.resume").with("generation", generation.generation),
        );
        Ok(coord)
    }

    /// Swap the durable filesystem used for snapshot commits — crash
    /// injection ([`bingo_store::durable::CrashFs`]) in tests.
    pub fn set_fs(&mut self, fs: Arc<dyn DurableFs>) {
        self.fs = fs;
    }

    /// Force a distributed snapshot commit now; returns the committed
    /// generation number.
    pub fn checkpoint(&mut self) -> io::Result<u64> {
        self.commit_snapshot()
    }

    /// Install the node-fault script (before [`Coordinator::run`]).
    pub fn install_faults(&mut self, plan: NodeFaultPlan) {
        // Windows already fully in the past (resume case) are skipped.
        let now = self.clock_ms;
        for (k, slot) in self.slots.iter_mut().enumerate() {
            slot.fault_idx = plan
                .windows_for(k)
                .iter()
                .take_while(|w| w.end_ms <= now)
                .count();
        }
        self.plan = plan;
    }

    /// Share a scenario-wide telemetry set (must be wired before any
    /// work runs for counters to be complete).
    pub fn set_telemetry(&mut self, telemetry: DistTelemetry) {
        self.telemetry = telemetry;
    }

    /// The telemetry handles in use.
    pub fn telemetry(&self) -> &DistTelemetry {
        &self.telemetry
    }

    /// Seed the crawl with a URL (sharded by host like any discovery).
    pub fn add_seed(&mut self, url: &str, topic: Option<u32>) {
        let shard = shard_of_url(url, self.config.nodes);
        self.queue.offer(
            shard,
            WorkItem {
                url: url.to_string(),
                depth: 0,
                src_topic: topic,
            },
        );
    }

    /// Current virtual time.
    pub fn now_ms(&self) -> u64 {
        self.clock_ms
    }

    /// Crawl counters so far.
    pub fn stats(&self) -> &DistStats {
        &self.stats
    }

    /// The term dictionary every node's rows are interned in.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The lease queue's counters.
    pub fn queue_stats(&self) -> LeaseStats {
        self.queue.stats()
    }

    /// Quarantined URLs.
    pub fn quarantined(&self) -> Vec<String> {
        self.queue
            .quarantined()
            .iter()
            .map(|q| q.url.clone())
            .collect()
    }

    /// Merge every node's store into one [`DocumentStore`] (each page
    /// is owned by exactly one node, so the merge is disjoint).
    pub fn combined_store(&self) -> DocumentStore {
        let combined = DocumentStore::new();
        for slot in &self.slots {
            if let Some(node) = &slot.node {
                let errs = combined.insert_documents(node.store().all_documents());
                debug_assert!(errs.is_empty(), "cross-node page collision: {errs:?}");
                combined.insert_links(node.store().all_links());
            }
        }
        combined
    }

    /// Run until the frontier drains or `budget_ms` of virtual time
    /// elapses, committing a final snapshot either way.
    pub fn run(&mut self, budget_ms: u64) -> io::Result<DistStats> {
        let deadline = self.clock_ms.saturating_add(budget_ms);
        loop {
            self.apply_faults()?;
            self.expire_leases();
            let progressed = self.dispatch()?;
            if self.acks_since_snapshot >= self.config.snapshot_every_acks.max(1) {
                self.commit_snapshot()?;
            }
            if self.finished() || self.clock_ms >= deadline {
                break;
            }
            if !progressed {
                match self.next_event_after(self.clock_ms) {
                    Some(t) => self.clock_ms = t.min(deadline),
                    None => break,
                }
            }
        }
        self.commit_snapshot()?;
        Ok(self.stats.clone())
    }

    /// True when no work remains anywhere.
    fn finished(&self) -> bool {
        self.queue.pending_total() == 0 && self.queue.leased_total() == 0
    }

    /// Earliest future instant anything can change: a node frees up or
    /// restarts, a lease deadline passes, or a scripted fault starts.
    fn next_event_after(&self, now: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            if t > now {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        for (k, slot) in self.slots.iter().enumerate() {
            if slot.node.is_some() {
                consider(slot.free_at);
            }
            if let Some(t) = slot.restart_at {
                consider(t);
            }
            if let Some(w) = self.plan.windows_for(k).get(slot.fault_idx) {
                consider(w.start_ms);
                consider(w.end_ms);
            }
        }
        if let Some(t) = self.queue.next_deadline() {
            consider(t);
        }
        next
    }

    /// Apply every fault window that has started by now, then restart
    /// nodes whose kill window has ended.
    fn apply_faults(&mut self) -> io::Result<()> {
        let now = self.clock_ms;
        for k in 0..self.slots.len() {
            while let Some(&window) = self.plan.windows_for(k).get(self.slots[k].fault_idx) {
                if window.start_ms > now {
                    break;
                }
                self.slots[k].fault_idx += 1;
                match window.kind {
                    NodeFaultKind::Kill => {
                        if self.slots[k].node.take().is_some() {
                            self.stats.kills += 1;
                            self.telemetry.node_kills.inc();
                            self.telemetry.events.emit(
                                Event::at(window.start_ms, "dist.node.kill")
                                    .with("node", k)
                                    .with("until_ms", window.end_ms),
                            );
                            // Completions past the last cut died with
                            // the node's memory: put them back.
                            let replay = std::mem::take(&mut self.uncheckpointed[k]);
                            if !replay.is_empty() {
                                self.stats.replayed += replay.len() as u64;
                                self.telemetry.node_replayed.add(replay.len() as u64);
                                self.queue.requeue_replay(k, replay);
                            }
                        }
                        self.slots[k].restart_at = Some(window.end_ms.max(now));
                        self.slots[k].free_at = window.end_ms;
                    }
                    NodeFaultKind::Stall => {
                        if self.slots[k].node.is_some() {
                            self.stats.stalls += 1;
                            self.telemetry.node_stalls.inc();
                            self.telemetry.events.emit(
                                Event::at(window.start_ms, "dist.node.stall")
                                    .with("node", k)
                                    .with("until_ms", window.end_ms),
                            );
                            let slot = &mut self.slots[k];
                            slot.free_at = slot.free_at.max(window.end_ms);
                        }
                    }
                }
            }
            let due = self.slots[k].restart_at.is_some_and(|t| t <= now);
            if self.slots[k].node.is_none() && due {
                let node = WorkerNode::restore(k, &self.node_restore[k])?;
                self.slots[k].node = Some(node);
                self.slots[k].restart_at = None;
                self.slots[k].free_at = self.slots[k].free_at.max(now);
                self.stats.restarts += 1;
                self.telemetry.node_restarts.inc();
                self.telemetry
                    .events
                    .emit(Event::at(now, "dist.node.restart").with("node", k));
            }
        }
        self.telemetry
            .nodes_live
            .set(self.slots.iter().filter(|s| s.node.is_some()).count() as i64);
        Ok(())
    }

    /// Expire overdue leases, emitting one event per expiry and per
    /// newly quarantined item.
    fn expire_leases(&mut self) {
        let before = self.queue.stats().quarantined;
        for lease in self.queue.expire_due(self.clock_ms) {
            self.telemetry.events.emit(
                Event::at(self.clock_ms, "dist.lease.expired")
                    .with("lease", lease.id)
                    .with("node", lease.shard)
                    .with("items", lease.items.len()),
            );
        }
        let after = self.queue.stats().quarantined;
        if after > before {
            self.telemetry
                .events
                .emit(Event::at(self.clock_ms, "dist.quarantine").with("items", after - before));
        }
        self.telemetry
            .record_queue(&self.queue, &mut self.last_queue_stats);
    }

    /// Lease and process one batch on every live, free node. Returns
    /// true when any node did work.
    fn dispatch(&mut self) -> io::Result<bool> {
        let now = self.clock_ms;
        // The URL hygiene the single-node executors apply at enqueue
        // time (crawl defaults: no locked or allowed hosts, so only the
        // Section 4.2 length and well-formedness limits bite).
        let hygiene = CrawlConfig::default();
        let mut progressed = false;
        for k in 0..self.slots.len() {
            if self.slots[k].node.is_none() || self.slots[k].free_at > now {
                continue;
            }
            let Some(lease) = self.queue.lease(k, LEASE_BATCH, now) else {
                continue;
            };
            progressed = true;
            self.telemetry
                .lease_batch_items
                .observe(lease.items.len() as u64);
            let items: Vec<WorkItem> = lease.items.iter().map(|q| q.item.clone()).collect();
            let node = self.slots[k].node.as_mut().unwrap();
            let result = node.process(
                &self.world,
                &mut self.vocab,
                self.judge.as_ref(),
                &items,
                now,
            );
            let end = now + result.cost_ms.max(1);
            let killed_mid_batch = self
                .plan
                .event_at(k, now + 1, end + 1)
                .is_some_and(|w| w.kind == NodeFaultKind::Kill);
            if killed_mid_batch {
                // The node dies inside this processing span: its batch
                // never acks. The rows are already in its store — a
                // snapshot cut before the kill lands keeps them, and
                // the replay after the lease expires at its deadline
                // finds them `AlreadyStored`.
                self.stats.discarded_batches += 1;
                self.slots[k].free_at = end;
                continue;
            }
            node.ack();
            let completed = self.queue.ack(lease.id).expect("ack of a live lease");
            self.uncheckpointed[k].extend(completed);
            self.acks_since_snapshot += 1;
            self.stats.stored += result.stored;
            self.stats.fetch_ok += result.fetch_ok;
            self.stats.fetch_err += result.fetch_err;
            self.stats.redirects += result.redirects;
            self.telemetry.stored.add(result.stored);
            self.telemetry.fetch_ok.add(result.fetch_ok);
            self.telemetry.fetch_err.add(result.fetch_err);
            self.telemetry.fetch_redirect.add(result.redirects);
            for item in result.discovered {
                if item.depth > self.config.max_depth || hygiene.admit_url(&item.url).is_err() {
                    continue;
                }
                let shard = shard_of_url(&item.url, self.config.nodes);
                self.queue.offer(shard, item);
            }
            self.slots[k].free_at = end;
        }
        self.telemetry
            .record_queue(&self.queue, &mut self.last_queue_stats);
        Ok(progressed)
    }

    /// Commit one crash-consistent distributed snapshot: every node's
    /// store, the lease journal, the coordinator state and the term
    /// dictionary under a single manifest. Down nodes contribute their
    /// last committed bytes, so the generation always covers all N
    /// nodes.
    fn commit_snapshot(&mut self) -> io::Result<u64> {
        let mut writer = GenerationWriter::begin(self.fs.as_ref(), &self.config.session_dir)?;
        let mut total_bytes = 0u64;
        // Phase 1: node stores.
        for k in 0..self.slots.len() {
            let bytes = match self.slots[k].node.as_mut() {
                Some(node) => {
                    let bytes = node.snapshot_bytes()?;
                    self.node_restore[k] = bytes.clone();
                    bytes
                }
                None => self.node_restore[k].clone(),
            };
            total_bytes += bytes.len() as u64;
            writer.write_file(&format!("node-{k}/store.jsonl"), &bytes)?;
        }
        // Phase 2: queue journal + coordinator state + dictionary, then
        // the commit record itself.
        let journal = self.queue.journal_bytes();
        total_bytes += journal.len() as u64;
        writer.write_file(JOURNAL_FILE, &journal)?;
        // The cut counts itself, so a resume from it agrees with the
        // committing coordinator's own stats.
        let committed_stats = DistStats {
            snapshots: self.stats.snapshots + 1,
            ..self.stats.clone()
        };
        let state = serde_json::to_string(&CoordState {
            magic: COORD_MAGIC.to_string(),
            version: COORD_VERSION,
            clock_ms: self.clock_ms,
            nodes: self.config.nodes,
            stats: committed_stats,
        })
        .map_err(|e| io::Error::other(e.to_string()))?
        .into_bytes();
        total_bytes += state.len() as u64;
        writer.write_file(COORD_FILE, &state)?;
        let vocab = serde_json::to_string(&self.vocab)
            .map_err(|e| io::Error::other(e.to_string()))?
            .into_bytes();
        total_bytes += vocab.len() as u64;
        writer.write_file(VOCAB_FILE, &vocab)?;
        let generation = writer.commit()?;
        // The cut is durable: node deaths can no longer lose these.
        for u in &mut self.uncheckpointed {
            u.clear();
        }
        self.acks_since_snapshot = 0;
        self.stats.snapshots += 1;
        self.telemetry.snapshot_commits.inc();
        self.telemetry.snapshot_bytes.observe(total_bytes);
        self.telemetry.events.emit(
            Event::at(self.clock_ms, "dist.snapshot.commit")
                .with("generation", generation)
                .with("bytes", total_bytes),
        );
        prune_generations(&self.config.session_dir, DEFAULT_KEEP_GENERATIONS);
        Ok(generation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_crawler::{Judgment, PageContext};
    use bingo_textproc::AnalyzedDocument;
    use bingo_webworld::gen::WorldConfig;
    use bingo_webworld::NodeFaultWindow;

    fn judge() -> Arc<dyn BatchJudge> {
        Arc::new(|_: &AnalyzedDocument, _: &PageContext| Judgment {
            topic: Some(0),
            confidence: 1.0,
        })
    }

    fn session(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bingo-dist-coord-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn seeded(world: &Arc<World>, config: DistConfig) -> Coordinator {
        let mut coord = Coordinator::new(world.clone(), judge(), config);
        for id in 1..=6 {
            coord.add_seed(&world.url_of(id), Some(0));
        }
        coord
    }

    #[test]
    fn calm_run_drains_and_snapshots() {
        let world = Arc::new(WorldConfig::small_test(11).build());
        let dir = session("calm");
        let mut coord = seeded(&world, DistConfig::new(3, &dir));
        let stats = coord.run(10_000_000).unwrap();
        assert!(stats.stored > 20, "stored {}", stats.stored);
        assert!(stats.snapshots >= 1);
        assert_eq!(stats.kills, 0);
        assert_eq!(
            coord.combined_store().document_count() as u64,
            stats.stored,
            "each page stored on exactly one node"
        );
        assert!(find_newest_complete(&dir).is_some(), "final cut committed");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn over_long_discovered_urls_are_not_offered() {
        let world = Arc::new(WorldConfig::small_test(11).build());
        // A welcome page carrying the generator's trap links: an
        // over-long URL and a plain 404.
        let rejected = |url: &String| CrawlConfig::default().admit_url(url).is_err();
        let (trap_page, trap_links) = (0..world.page_count() as u64)
            .map(|id| (id, world.page(id).extra_out_urls.clone()))
            .find(|(_, urls)| urls.iter().any(rejected))
            .expect("world has a trap page");
        let dir = session("trap");
        let mut coord = Coordinator::new(world.clone(), judge(), DistConfig::new(2, &dir));
        coord.add_seed(&world.url_of(trap_page), Some(0));
        coord.run(10_000_000).unwrap();
        // The queue accepts a URL exactly once, so a fresh offer tells
        // whether the crawl offered it before.
        assert!(!trap_links.iter().all(rejected), "the 404 link is admitted");
        for url in trap_links {
            let never_offered = rejected(&url);
            let item = WorkItem {
                url,
                depth: 1,
                src_topic: None,
            };
            assert_eq!(coord.queue.offer(0, item), never_offered);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn kill_and_restart_converges_to_calm_contents() {
        let world = Arc::new(WorldConfig::small_test(12).build());
        let calm_dir = session("conv-calm");
        // max_depth beyond the world's diameter: with truncation in
        // play, *which* parent first discovers a URL (scheduling-
        // dependent) would decide its depth and the reachable fringe.
        let mut calm_config = DistConfig::new(3, &calm_dir);
        calm_config.max_depth = 100;
        let mut calm = seeded(&world, calm_config);
        let calm_stats = calm.run(10_000_000).unwrap();

        let chaos_dir = session("conv-chaos");
        // High poison budget: nothing quarantines, so the chaotic run
        // must converge to exactly the calm store contents.
        let mut config = DistConfig::new(3, &chaos_dir);
        config.max_depth = 100;
        config.poison_budget = 100;
        config.snapshot_every_acks = 4;
        let mut chaotic = seeded(&world, config);
        let mut plan = NodeFaultPlan::empty();
        for (node, start) in [(0u64, 300u64), (1, 900), (2, 2_000), (0, 5_000)] {
            plan.insert_window(
                node as usize,
                NodeFaultWindow {
                    start_ms: start,
                    end_ms: start + 700,
                    kind: NodeFaultKind::Kill,
                },
            );
        }
        chaotic.install_faults(plan);
        let chaos_stats = chaotic.run(10_000_000).unwrap();
        assert!(chaos_stats.kills >= 3, "kills applied: {chaos_stats:?}");
        assert_eq!(chaotic.quarantined().len(), 0);

        // Compare page-id sets: which of a page's alias URLs gets the
        // stored row depends on processing order, but the set of pages
        // must converge exactly.
        let mut calm_ids: Vec<u64> = calm
            .combined_store()
            .all_documents()
            .into_iter()
            .map(|d| d.id)
            .collect();
        let mut chaos_ids: Vec<u64> = chaotic
            .combined_store()
            .all_documents()
            .into_iter()
            .map(|d| d.id)
            .collect();
        calm_ids.sort_unstable();
        chaos_ids.sort_unstable();
        assert_eq!(calm_ids, chaos_ids, "converged to calm contents");
        assert!(calm_stats.stored > 20, "calm run did real work");
        std::fs::remove_dir_all(&calm_dir).ok();
        std::fs::remove_dir_all(&chaos_dir).ok();
    }

    #[test]
    fn resume_continues_from_committed_cut() {
        let world = Arc::new(WorldConfig::small_test(13).build());
        let dir = session("resume");
        let mut config = DistConfig::new(2, &dir);
        config.snapshot_every_acks = 2;
        let mut first = seeded(&world, config.clone());
        // A short budget leaves work pending past the last commit.
        first.run(400).unwrap();
        let mid_stats = first.stats().clone();
        drop(first);

        let mut resumed = Coordinator::resume(world.clone(), judge(), config).unwrap();
        assert_eq!(resumed.stats().stored, mid_stats.stored, "cut restored");
        let final_stats = resumed.run(10_000_000).unwrap();
        assert!(final_stats.stored >= mid_stats.stored);

        // A calm uninterrupted reference run stores the same URL set.
        let ref_dir = session("resume-ref");
        let mut reference = seeded(&world, DistConfig::new(2, &ref_dir));
        reference.run(10_000_000).unwrap();
        let mut ref_ids: Vec<u64> = reference
            .combined_store()
            .all_documents()
            .into_iter()
            .map(|d| d.id)
            .collect();
        let mut got_ids: Vec<u64> = resumed
            .combined_store()
            .all_documents()
            .into_iter()
            .map(|d| d.id)
            .collect();
        ref_ids.sort_unstable();
        got_ids.sort_unstable();
        assert_eq!(ref_ids, got_ids);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&ref_dir).ok();
    }
}
