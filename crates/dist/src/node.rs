//! One worker "node" of the distributed crawl: an in-process crawler
//! shard owning the documents of the hosts hashed to it.
//!
//! A node is deliberately small: a [`DocumentStore`] and the post-fetch
//! core over it ([`bingo_crawler::DocPipeline`] — the same convert →
//! analyze → classify → bulk-load path the single-node crawler uses).
//! It fetches the URLs of a lease, drives them through the pipeline,
//! and hands discovered links back to the coordinator for sharding. All the distributed machinery (leases,
//! deadlines, snapshots, fault windows) lives in the coordinator;
//! killing a node is just dropping this struct.
//!
//! The pipeline flushes every row of a batch into the node's store
//! before [`WorkerNode::process`] returns, so there is nothing to
//! un-stage when a lease never acks: the rows of an un-acked batch
//! *are* in the store. When the lease expires and the batch is
//! replayed, each such URL comes back `AlreadyStored` and its links are
//! discovered again — which is why that outcome propagates links here.
//!
//! Fetches are always issued with `attempt = 0`, making the fetch
//! outcome a pure function of (URL, fault windows): on a calm-host
//! world a killed-and-replayed URL fetches identical bytes, which is
//! what lets chaos runs converge to calm-run store contents.

use crate::coordinator::{LEASE_BATCH, NODE_PROC_MS};
use crate::lease::WorkItem;
use bingo_crawler::{BatchJudge, CrawlTelemetry, DocOutcome, DocPipeline, FetchedDoc};
use bingo_store::persist::{read_snapshot, write_snapshot};
use bingo_store::DocumentStore;
use bingo_textproc::Interner;
use bingo_webworld::fetch::FetchOutcome;
use bingo_webworld::World;
use std::io;

/// What one leased batch did, from the coordinator's point of view.
#[derive(Debug, Default, Clone)]
pub struct BatchResult {
    /// Links discovered by stored documents plus redirect targets —
    /// the coordinator shards and offers these.
    pub discovered: Vec<WorkItem>,
    /// Documents stored by this batch.
    pub stored: u64,
    /// Successful fetches.
    pub fetch_ok: u64,
    /// Fetch errors.
    pub fetch_err: u64,
    /// Redirect responses.
    pub redirects: u64,
    /// Virtual cost of the batch: fetch latencies plus per-document
    /// processing time.
    pub cost_ms: u64,
}

/// One in-process worker node.
pub struct WorkerNode {
    id: usize,
    store: DocumentStore,
    /// The post-fetch core over `store`, reporting into a node-local
    /// registry (the scenario-visible counters are the coordinator's
    /// `dist.*` set).
    pipeline: DocPipeline,
    acked_batches: u64,
}

impl WorkerNode {
    /// A fresh node with an empty store.
    pub fn new(id: usize) -> Self {
        Self::with_store(id, DocumentStore::new())
    }

    /// Restart a node from the snapshot bytes of the last committed
    /// distributed generation (empty bytes → empty store).
    pub fn restore(id: usize, snapshot: &[u8]) -> io::Result<Self> {
        let store = if snapshot.is_empty() {
            DocumentStore::new()
        } else {
            read_snapshot(snapshot).map_err(|e| io::Error::other(format!("{e:?}")))?
        };
        Ok(Self::with_store(id, store))
    }

    fn with_store(id: usize, store: DocumentStore) -> Self {
        WorkerNode {
            id,
            pipeline: DocPipeline::new(store.clone(), LEASE_BATCH, &CrawlTelemetry::default()),
            store,
            acked_batches: 0,
        }
    }

    /// Node id (== its shard).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's store (shared handle).
    pub fn store(&self) -> &DocumentStore {
        &self.store
    }

    /// Documents stored by this node.
    pub fn document_count(&self) -> usize {
        self.store.document_count()
    }

    /// Acked batches since (re)start.
    pub fn acked_batches(&self) -> u64 {
        self.acked_batches
    }

    /// Fetch and process one leased batch at virtual time `now_ms`.
    /// The batch's rows are in the store when this returns, whether or
    /// not the coordinator goes on to [`WorkerNode::ack`] the lease.
    pub fn process(
        &mut self,
        world: &World,
        vocab: &mut dyn Interner,
        judge: &dyn BatchJudge,
        items: &[WorkItem],
        now_ms: u64,
    ) -> BatchResult {
        let mut out = BatchResult::default();
        let mut batch: Vec<FetchedDoc> = Vec::with_capacity(items.len());
        let mut batch_items: Vec<&WorkItem> = Vec::with_capacity(items.len());
        for item in items {
            // attempt = 0 always: outcome is a pure function of the URL
            // on calm hosts, so replays after a node kill re-fetch
            // identical content.
            match world.fetch_at(&item.url, 0, now_ms) {
                FetchOutcome::Ok(response) => {
                    out.fetch_ok += 1;
                    out.cost_ms += response.latency_ms;
                    batch.push(FetchedDoc {
                        response,
                        depth: item.depth,
                        src_topic: item.src_topic,
                        anchor_terms: Vec::new(),
                        neighbor_terms: Vec::new(),
                        fetched_at: now_ms,
                    });
                    batch_items.push(item);
                }
                FetchOutcome::Redirect {
                    location,
                    latency_ms,
                } => {
                    out.redirects += 1;
                    out.cost_ms += latency_ms;
                    out.discovered.push(WorkItem {
                        url: location,
                        depth: item.depth,
                        src_topic: item.src_topic,
                    });
                }
                FetchOutcome::Err { latency_ms, .. } => {
                    out.fetch_err += 1;
                    out.cost_ms += latency_ms;
                }
            }
        }
        if batch.is_empty() {
            return out;
        }
        let outcomes = self.pipeline.run(
            world,
            vocab,
            batch,
            |_| true,
            |docs, ctxs| judge.judge_batch(docs, ctxs),
        );
        for (outcome, item) in outcomes.iter().zip(&batch_items) {
            // AlreadyStored discovers links too: a replayed URL whose
            // document is already in the store (an un-acked batch, or a
            // snapshot cut the node restarted from) must still hand
            // its outlinks to the coordinator (the seen-URL filter
            // dedups re-offers), or a node kill could silently drop a
            // subtree.
            let (stored, doc, judgment) = match outcome {
                DocOutcome::Stored { doc, judgment, .. } => (true, doc, judgment),
                DocOutcome::AlreadyStored { doc, judgment, .. } => (false, doc, judgment),
                _ => continue,
            };
            if stored {
                out.stored += 1;
                out.cost_ms += NODE_PROC_MS;
            }
            for link in &doc.links {
                out.discovered.push(WorkItem {
                    url: link.href.clone(),
                    depth: item.depth + 1,
                    src_topic: judgment.topic.or(item.src_topic),
                });
            }
        }
        out
    }

    /// The lease-ack point: the batch's rows are already in the node's
    /// store, so acking only counts the batch.
    pub fn ack(&mut self) {
        self.acked_batches += 1;
    }

    /// Serialize the node's store for the distributed snapshot
    /// (byte-deterministic; see [`bingo_store::persist`]).
    pub fn snapshot_bytes(&self) -> io::Result<Vec<u8>> {
        let mut bytes = Vec::new();
        write_snapshot(&self.store, &mut bytes).map_err(|e| io::Error::other(format!("{e:?}")))?;
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_crawler::{Judgment, PageContext};
    use bingo_textproc::{AnalyzedDocument, Vocabulary};
    use bingo_webworld::gen::WorldConfig;

    fn judge_all() -> impl BatchJudge {
        |_: &AnalyzedDocument, _: &PageContext| Judgment {
            topic: Some(0),
            confidence: 1.0,
        }
    }

    fn small_world() -> World {
        WorldConfig::small_test(7).build()
    }

    fn seed_items(world: &World, n: u64) -> Vec<WorkItem> {
        (1..=n)
            .map(|id| WorkItem {
                url: world.url_of(id),
                depth: 0,
                src_topic: None,
            })
            .collect()
    }

    #[test]
    fn process_stores_documents_and_discovers_links() {
        let world = small_world();
        let mut vocab = Vocabulary::new();
        let mut node = WorkerNode::new(0);
        let items = seed_items(&world, 4);
        let judge = judge_all();
        let result = node.process(&world, &mut vocab, &judge, &items, 0);
        assert!(result.stored > 0, "seed pages store");
        assert!(!result.discovered.is_empty(), "links discovered");
        assert!(result.cost_ms > 0, "virtual cost accrues");
        assert!(
            result.discovered.iter().all(|w| w.depth == 1),
            "link depth is parent + 1"
        );
        // Nothing waits for the ack: the rows are already in the store.
        assert_eq!(node.store().document_count() as u64, result.stored);
        node.ack();
        assert_eq!(node.document_count() as u64, result.stored);
        assert_eq!(node.acked_batches(), 1);
    }

    #[test]
    fn snapshot_restore_round_trips_the_store() {
        let world = small_world();
        let mut vocab = Vocabulary::new();
        let mut node = WorkerNode::new(1);
        let items = seed_items(&world, 4);
        let judge = judge_all();
        node.process(&world, &mut vocab, &judge, &items, 0);
        node.ack();
        let bytes = node.snapshot_bytes().unwrap();
        let restored = WorkerNode::restore(1, &bytes).unwrap();
        assert_eq!(restored.document_count(), node.document_count());
        // Same state serializes to the same bytes.
        assert_eq!(restored.snapshot_bytes().unwrap(), bytes);
    }
}
