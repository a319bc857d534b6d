//! The journaled lease/ack work queue of the distributed crawl.
//!
//! The coordinator's frontier is a set of per-shard queues of
//! [`WorkItem`]s. A worker node takes work as a **lease**: a batch of
//! items with a virtual-clock deadline. The lease is **acked** — the
//! items leave the queue for good — only once the node's bulk-load has
//! landed durably. A lease whose deadline passes without an ack (its
//! node died or hung) is **expired**: the items go back to their shard
//! with an incremented attempt count, and items that exhaust their
//! poison budget are **quarantined** instead of being re-issued forever
//! — the distributed version of the threaded executor's per-URL poison
//! discipline (PR 5).
//!
//! The whole queue serializes to a single **journal**
//! ([`LeaseQueue::journal_bytes`]). It reaches disk only as one file of
//! the coordinator's snapshot generation
//! ([`bingo_store::durable::GenerationWriter`]), so it obeys the same crash matrix as every other
//! artifact: a kill at any byte of the commit leaves the previous
//! generation, and its journal, as the recovery target. Restoring a
//! journal ([`LeaseQueue::from_journal_bytes`]) re-queues the leases
//! that were in flight at journal time — orphaned work is re-leased,
//! never lost.

use bingo_textproc::fxhash::{self, FxHashSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;

/// Format marker of lease journals.
pub const JOURNAL_MAGIC: &str = "bingo-lease-journal";
/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 1;
/// Conventional journal file name.
pub const JOURNAL_FILE: &str = "lease-journal.json";

/// One unit of crawl work: a URL with the crawl context it was
/// discovered under.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkItem {
    /// The URL to fetch.
    pub url: String,
    /// Crawl depth it will be fetched at.
    pub depth: u32,
    /// Topic of the page that discovered it, if any.
    pub src_topic: Option<u32>,
}

/// A work item inside the queue: its discovery sequence number (the
/// deterministic ordering key) and how many leases it has already
/// ridden that expired.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueuedItem {
    /// The work.
    pub item: WorkItem,
    /// Expired leases this item has been on so far.
    pub attempts: u32,
    /// Global discovery order (BFS-stable dispatch key).
    pub seq: u64,
}

/// One outstanding lease.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseRecord {
    /// Lease id (monotonic).
    pub id: u64,
    /// Shard (node) the lease was issued to.
    pub shard: usize,
    /// Virtual-clock deadline; unacked past this, the lease expires.
    pub deadline_ms: u64,
    /// The leased items.
    pub items: Vec<QueuedItem>,
}

/// A URL taken out of circulation after exhausting its poison budget.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuarantinedItem {
    /// The poisoned URL.
    pub url: String,
    /// Expired leases it rode before quarantine.
    pub attempts: u32,
}

/// Deterministic behavior counters of a [`LeaseQueue`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LeaseStats {
    /// URLs offered (pre-dedup).
    pub offered: u64,
    /// Offers rejected by the seen-URL filter.
    pub deduped: u64,
    /// Leases issued.
    pub issued: u64,
    /// Leases acked after durable bulk-load.
    pub acked: u64,
    /// Leases expired past their deadline (including orphans re-queued
    /// on journal restore).
    pub expired: u64,
    /// Items re-queued from expired leases.
    pub requeued: u64,
    /// Items quarantined after exhausting their poison budget.
    pub quarantined: u64,
}

/// Serialized form of the whole queue — the journal.
#[derive(Debug, Serialize, Deserialize)]
struct Journal {
    magic: String,
    version: u32,
    poison_budget: u32,
    lease_ttl_ms: u64,
    next_seq: u64,
    next_lease: u64,
    /// Per-shard pending items in seq order.
    shards: Vec<Vec<QueuedItem>>,
    /// Leases outstanding at journal time — orphaned on restore.
    in_flight: Vec<LeaseRecord>,
    quarantine: Vec<QuarantinedItem>,
    /// Sorted seen-URL fingerprints.
    seen: Vec<u64>,
    stats: LeaseStats,
}

/// The host-sharded lease/ack queue. All order is deterministic: items
/// dispatch in discovery-sequence order per shard, leases are numbered
/// monotonically, and the journal serializes every set sorted.
#[derive(Debug)]
pub struct LeaseQueue {
    /// `shards[k]` holds node k's pending work, keyed by seq.
    shards: Vec<BTreeMap<u64, QueuedItem>>,
    leased: BTreeMap<u64, LeaseRecord>,
    seen: FxHashSet<u64>,
    quarantine: Vec<QuarantinedItem>,
    next_seq: u64,
    next_lease: u64,
    poison_budget: u32,
    lease_ttl_ms: u64,
    stats: LeaseStats,
}

impl LeaseQueue {
    /// An empty queue over `shards` shards. An item is quarantined once
    /// it has ridden more than `poison_budget` expired leases; leases
    /// expire `lease_ttl_ms` of virtual time after issue.
    pub fn new(shards: usize, poison_budget: u32, lease_ttl_ms: u64) -> Self {
        LeaseQueue {
            shards: (0..shards.max(1)).map(|_| BTreeMap::new()).collect(),
            leased: BTreeMap::new(),
            seen: FxHashSet::default(),
            quarantine: Vec::new(),
            next_seq: 0,
            next_lease: 0,
            poison_budget,
            lease_ttl_ms,
            stats: LeaseStats::default(),
        }
    }

    /// Offer a newly discovered URL to `shard`. Returns `false` when
    /// the URL was already seen (offered before, in any state).
    pub fn offer(&mut self, shard: usize, item: WorkItem) -> bool {
        self.stats.offered += 1;
        if !self.seen.insert(fxhash::hash_one(&item.url)) {
            self.stats.deduped += 1;
            return false;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let shard = shard % self.shards.len();
        self.shards[shard].insert(
            seq,
            QueuedItem {
                item,
                attempts: 0,
                seq,
            },
        );
        true
    }

    /// Re-queue completed items whose node died before they reached a
    /// committed snapshot cut: they are *known* URLs (the seen filter
    /// keeps rejecting rediscoveries) whose durable state was rolled
    /// back, so they bypass dedup and keep their original seq and
    /// attempt counts.
    pub fn requeue_replay(&mut self, shard: usize, items: Vec<QueuedItem>) -> usize {
        let n = items.len();
        let shard = shard % self.shards.len();
        for q in items {
            self.shards[shard].insert(q.seq, q);
        }
        n
    }

    /// Lease up to `max_items` of `shard`'s pending work at virtual
    /// time `now_ms`. Returns `None` when the shard has nothing
    /// pending.
    pub fn lease(&mut self, shard: usize, max_items: usize, now_ms: u64) -> Option<LeaseRecord> {
        let shard = shard % self.shards.len();
        let queue = &mut self.shards[shard];
        if queue.is_empty() {
            return None;
        }
        let take: Vec<u64> = queue.keys().take(max_items.max(1)).copied().collect();
        let items: Vec<QueuedItem> = take.iter().map(|seq| queue.remove(seq).unwrap()).collect();
        let id = self.next_lease;
        self.next_lease += 1;
        self.stats.issued += 1;
        let record = LeaseRecord {
            id,
            shard,
            deadline_ms: now_ms.saturating_add(self.lease_ttl_ms),
            items,
        };
        self.leased.insert(id, record.clone());
        Some(record)
    }

    /// Ack lease `id` after its durable bulk-load: the items leave the
    /// queue for good. Returns the completed items so the coordinator
    /// can track completions past the last snapshot cut (they must be
    /// replayed if the node dies before the next cut).
    pub fn ack(&mut self, id: u64) -> Option<Vec<QueuedItem>> {
        let lease = self.leased.remove(&id)?;
        self.stats.acked += 1;
        Some(lease.items)
    }

    /// Expire every lease whose deadline has passed at `now_ms`:
    /// re-queue its items with an incremented attempt count, quarantine
    /// the ones past the poison budget. Returns the expired leases
    /// (items already redistributed).
    pub fn expire_due(&mut self, now_ms: u64) -> Vec<LeaseRecord> {
        let due: Vec<u64> = self
            .leased
            .iter()
            .filter(|(_, l)| l.deadline_ms <= now_ms)
            .map(|(&id, _)| id)
            .collect();
        let mut expired = Vec::with_capacity(due.len());
        for id in due {
            let lease = self.leased.remove(&id).unwrap();
            self.stats.expired += 1;
            self.requeue_expired(&lease);
            expired.push(lease);
        }
        expired
    }

    fn requeue_expired(&mut self, lease: &LeaseRecord) {
        for q in &lease.items {
            let attempts = q.attempts + 1;
            if attempts > self.poison_budget {
                self.stats.quarantined += 1;
                self.quarantine.push(QuarantinedItem {
                    url: q.item.url.clone(),
                    attempts,
                });
            } else {
                self.stats.requeued += 1;
                self.shards[lease.shard].insert(
                    q.seq,
                    QueuedItem {
                        item: q.item.clone(),
                        attempts,
                        seq: q.seq,
                    },
                );
            }
        }
    }

    /// Pending items of one shard.
    pub fn pending_len(&self, shard: usize) -> usize {
        self.shards[shard % self.shards.len()].len()
    }

    /// Pending items across all shards.
    pub fn pending_total(&self) -> usize {
        self.shards.iter().map(BTreeMap::len).sum()
    }

    /// Outstanding (unacked, unexpired) leases.
    pub fn leased_total(&self) -> usize {
        self.leased.len()
    }

    /// Earliest deadline among outstanding leases.
    pub fn next_deadline(&self) -> Option<u64> {
        self.leased.values().map(|l| l.deadline_ms).min()
    }

    /// Quarantined URLs, in quarantine order.
    pub fn quarantined(&self) -> &[QuarantinedItem] {
        &self.quarantine
    }

    /// Behavior counters.
    pub fn stats(&self) -> LeaseStats {
        self.stats
    }

    /// Serialize the full queue state — the journal. Byte-deterministic
    /// for a given queue state (sets serialize sorted).
    pub fn journal_bytes(&self) -> Vec<u8> {
        let mut seen: Vec<u64> = self.seen.iter().copied().collect();
        seen.sort_unstable();
        let journal = Journal {
            magic: JOURNAL_MAGIC.to_string(),
            version: JOURNAL_VERSION,
            poison_budget: self.poison_budget,
            lease_ttl_ms: self.lease_ttl_ms,
            next_seq: self.next_seq,
            next_lease: self.next_lease,
            shards: self
                .shards
                .iter()
                .map(|s| s.values().cloned().collect())
                .collect(),
            in_flight: self.leased.values().cloned().collect(),
            quarantine: self.quarantine.clone(),
            seen,
            stats: self.stats,
        };
        serde_json::to_string(&journal)
            .expect("lease journal serialization")
            .into_bytes()
    }

    /// Restore a queue from journal bytes. Leases that were in flight
    /// at journal time are **orphans** — their nodes' work died with
    /// the crash — and are immediately expired back into their shards
    /// (or quarantined, if past the poison budget).
    pub fn from_journal_bytes(bytes: &[u8]) -> io::Result<Self> {
        let text = std::str::from_utf8(bytes)
            .map_err(|e| io::Error::other(format!("lease journal not utf-8: {e}")))?;
        let journal: Journal =
            serde_json::from_str(text).map_err(|e| io::Error::other(e.to_string()))?;
        if journal.magic != JOURNAL_MAGIC || journal.version != JOURNAL_VERSION {
            return Err(io::Error::other(format!(
                "bad lease journal header: {:?} v{}",
                journal.magic, journal.version
            )));
        }
        let mut queue = LeaseQueue {
            shards: journal
                .shards
                .into_iter()
                .map(|items| items.into_iter().map(|q| (q.seq, q)).collect())
                .collect(),
            leased: BTreeMap::new(),
            seen: journal.seen.into_iter().collect(),
            quarantine: journal.quarantine,
            next_seq: journal.next_seq,
            next_lease: journal.next_lease,
            poison_budget: journal.poison_budget,
            lease_ttl_ms: journal.lease_ttl_ms,
            stats: journal.stats,
        };
        if queue.shards.is_empty() {
            return Err(io::Error::other("lease journal with zero shards"));
        }
        for lease in journal.in_flight {
            queue.stats.expired += 1;
            queue.requeue_expired(&lease);
        }
        Ok(queue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(url: &str) -> WorkItem {
        WorkItem {
            url: url.to_string(),
            depth: 1,
            src_topic: Some(0),
        }
    }

    #[test]
    fn lease_ack_drains_the_queue() {
        let mut q = LeaseQueue::new(2, 3, 1000);
        assert!(q.offer(0, item("http://a/1")));
        assert!(q.offer(0, item("http://a/2")));
        assert!(!q.offer(1, item("http://a/1")), "dedup across shards");
        assert!(q.offer(1, item("http://b/1")));
        assert_eq!(q.pending_total(), 3);

        let lease = q.lease(0, 10, 50).unwrap();
        assert_eq!(lease.items.len(), 2);
        assert_eq!(lease.deadline_ms, 1050);
        assert_eq!(q.pending_len(0), 0);
        assert_eq!(q.leased_total(), 1);
        let done = q.ack(lease.id).unwrap();
        assert_eq!(done.len(), 2);
        assert_eq!(q.leased_total(), 0);
        assert!(q.ack(lease.id).is_none(), "double ack is a no-op");
        let s = q.stats();
        assert_eq!((s.issued, s.acked, s.deduped), (1, 1, 1));
    }

    #[test]
    fn expiry_requeues_then_quarantines() {
        let mut q = LeaseQueue::new(1, 1, 100);
        q.offer(0, item("http://a/x"));
        // First expiry: requeued with attempts 1.
        let lease = q.lease(0, 4, 0).unwrap();
        assert!(q.expire_due(99).is_empty(), "deadline not reached");
        assert_eq!(q.expire_due(100).len(), 1);
        assert_eq!(q.pending_len(0), 1);
        // Second expiry: attempts 2 > budget 1 → quarantine.
        let lease2 = q.lease(0, 4, 200).unwrap();
        assert_eq!(lease2.items[0].attempts, 1);
        q.expire_due(10_000);
        assert_eq!(q.pending_len(0), 0);
        assert_eq!(q.quarantined().len(), 1);
        assert_eq!(q.quarantined()[0].url, "http://a/x");
        assert_eq!(q.quarantined()[0].attempts, 2);
        let s = q.stats();
        assert_eq!((s.expired, s.requeued, s.quarantined), (2, 1, 1));
        let _ = lease;
    }

    #[test]
    fn dispatch_order_is_discovery_order_even_after_requeue() {
        let mut q = LeaseQueue::new(1, 5, 100);
        q.offer(0, item("http://a/1"));
        q.offer(0, item("http://a/2"));
        let first = q.lease(0, 1, 0).unwrap();
        assert_eq!(first.items[0].item.url, "http://a/1");
        q.expire_due(1000);
        // After requeue, /1 (seq 0) still dispatches before /2 (seq 1).
        let again = q.lease(0, 2, 2000).unwrap();
        assert_eq!(again.items[0].item.url, "http://a/1");
        assert_eq!(again.items[1].item.url, "http://a/2");
    }

    #[test]
    fn journal_round_trip_orphans_in_flight_leases() {
        let mut q = LeaseQueue::new(2, 3, 500);
        q.offer(0, item("http://a/1"));
        q.offer(0, item("http://a/2"));
        q.offer(1, item("http://b/1"));
        let lease = q.lease(0, 1, 10).unwrap();
        assert_eq!(lease.items[0].item.url, "http://a/1");

        let bytes = q.journal_bytes();
        let restored = LeaseQueue::from_journal_bytes(&bytes).unwrap();
        // The in-flight lease was orphaned back into shard 0.
        assert_eq!(restored.leased_total(), 0);
        assert_eq!(restored.pending_len(0), 2);
        assert_eq!(restored.pending_len(1), 1);
        assert_eq!(restored.stats().expired, q.stats().expired + 1);
        assert_eq!(restored.stats().requeued, q.stats().requeued + 1);
        // Seen filter survived: rediscoveries still dedup.
        let mut restored = restored;
        assert!(!restored.offer(0, item("http://a/1")));

        // Journal bytes are deterministic for the same state.
        assert_eq!(q.journal_bytes(), bytes);
    }

    #[test]
    fn journal_rejects_garbage() {
        assert!(LeaseQueue::from_journal_bytes(b"not json").is_err());
        let wrong = serde_json::json!({
            "magic": "nope", "version": 1, "poison_budget": 1,
            "lease_ttl_ms": 1, "next_seq": 0, "next_lease": 0,
            "shards": [[]], "in_flight": [], "quarantine": [],
            "seen": [], "stats": LeaseStats::default(),
        });
        let bytes = serde_json::to_string(&wrong).unwrap().into_bytes();
        assert!(LeaseQueue::from_journal_bytes(&bytes).is_err());
    }

    #[test]
    fn replay_bypasses_dedup_and_keeps_seq() {
        let mut q = LeaseQueue::new(1, 3, 100);
        q.offer(0, item("http://a/1"));
        let lease = q.lease(0, 1, 0).unwrap();
        let done = q.ack(lease.id).unwrap();
        assert_eq!(q.pending_total(), 0);
        // The node that acked dies before a snapshot cut: replay.
        q.requeue_replay(0, done);
        assert_eq!(q.pending_len(0), 1);
        let again = q.lease(0, 1, 50).unwrap();
        assert_eq!(again.items[0].item.url, "http://a/1");
        assert_eq!(again.items[0].seq, 0, "original seq preserved");
    }
}
