//! The crawl frontier (Section 4.2, "crawl queue management").
//!
//! "The queue manager maintains several queues, one (large) incoming and
//! one (small) outgoing queue for each topic, implemented as Red-Black
//! trees. ... URLs are prioritized based on their SVM confidence scores.
//! Incoming URL queues are limited to 25.000 links, outgoing URL queues
//! to 1000 links, to avoid uncontrolled memory usage."
//!
//! `BTreeMap` is Rust's red-black-equivalent ordered tree. Keys order by
//! descending priority with FIFO tie-breaking; when a capacity is hit the
//! *worst* entry is evicted, so the queues degrade gracefully under
//! pressure. URLs move from incoming to outgoing lazily — the outgoing
//! queue is refilled when it runs low, which in the paper is the moment
//! DNS prefetching is triggered for the promising candidates.
//!
//! Every queued entry is resident: the capacities above are the
//! frontier's memory bound, as in the paper.

use crate::types::QueuePriority;
use bingo_textproc::TermId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// One queued crawl task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueEntry {
    /// Target URL.
    pub url: String,
    /// Queue priority (SVM confidence, possibly tunnel-decayed).
    pub priority: f32,
    /// Crawl depth this URL will be fetched at.
    pub depth: u32,
    /// Tunnelling steps taken through rejected pages so far.
    pub tunnel: u32,
    /// Topic of the parent document that enqueued the URL.
    pub src_topic: Option<u32>,
    /// Page id of the enqueuing parent ([`QueueEntry::NO_SOURCE`] for
    /// seeds).
    pub src_page: u64,
    /// Anchor terms of the enqueuing link.
    pub anchor_terms: Vec<TermId>,
    /// Top terms of the enqueuing page ([`crate::pipeline::top_terms`]),
    /// the neighbour features the entry is judged with (Section 3.4).
    /// Empty for entries no stored page enqueued, and then not written.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub neighbor_terms: Vec<TermId>,
    /// Redirect hops already taken for this URL.
    pub redirects: u32,
    /// Fetch attempt number (for retry bookkeeping).
    pub attempt: u32,
}

impl QueueEntry {
    /// `src_page` of an entry no stored page enqueued (seeds, boosted
    /// hubs): never a real page id. (Page 0 is a real page.)
    pub const NO_SOURCE: u64 = u64::MAX;

    /// A seed entry at depth 0 with maximal priority.
    pub fn seed(url: &str, topic: Option<u32>) -> Self {
        QueueEntry {
            url: url.to_string(),
            priority: f32::MAX,
            depth: 0,
            tunnel: 0,
            src_topic: topic,
            src_page: Self::NO_SOURCE,
            anchor_terms: Vec::new(),
            neighbor_terms: Vec::new(),
            redirects: 0,
            attempt: 0,
        }
    }

    /// Bytes the entry holds while resident: its inline size plus the
    /// capacity of its URL and term vectors.
    pub fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.url.capacity()
            + (self.anchor_terms.capacity() + self.neighbor_terms.capacity())
                * std::mem::size_of::<TermId>()
    }
}

/// Ignored: every frontier queue is resident. Kept as frozen
/// `benchmark/` surface until that surface is next revised.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Ignored.
    pub dir: PathBuf,
    /// Ignored.
    pub hot_cap: usize,
}

/// Ordered queue keyed by descending priority, FIFO within equal
/// priorities, with worst-entry eviction at capacity.
#[derive(Debug, Default)]
struct PriorityQueue {
    entries: BTreeMap<(QueuePriority, u64), QueueEntry>,
    seq: u64,
    /// [`QueueEntry::resident_bytes`] summed over the entries.
    resident: usize,
}

impl PriorityQueue {
    fn push(&mut self, entry: QueueEntry, cap: usize) -> bool {
        let key = (QueuePriority::new(entry.priority), self.seq);
        self.seq += 1;
        self.resident += entry.resident_bytes();
        self.entries.insert(key, entry);
        if self.entries.len() > cap {
            // Evict the worst (largest key: lowest priority, newest).
            let (_, worst) = self.entries.pop_last().expect("non-empty");
            self.resident -= worst.resident_bytes();
            return false;
        }
        true
    }

    fn pop(&mut self) -> Option<QueueEntry> {
        let (_, entry) = self.entries.pop_first()?;
        self.resident -= entry.resident_bytes();
        Some(entry)
    }

    fn peek_priority(&self) -> Option<f32> {
        self.entries.keys().next().map(|(p, _)| p.as_f32())
    }

    /// The entries, best first.
    fn iter(&self) -> impl Iterator<Item = &QueueEntry> {
        self.entries.values()
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Per-topic incoming/outgoing queues. Topic `None` (tunnelled links from
/// pages not yet attributable to a topic) shares a dedicated queue slot.
#[derive(Debug)]
pub struct Frontier {
    incoming: Vec<PriorityQueue>,
    outgoing: Vec<PriorityQueue>,
    incoming_cap: usize,
    outgoing_cap: usize,
    /// URLs waiting out a retry/breaker backoff, keyed by
    /// `(release_ms, seq)` so the earliest release pops first.
    parked: BTreeMap<(u64, u64), QueueEntry>,
    park_seq: u64,
    /// [`QueueEntry::resident_bytes`] summed over the parked entries.
    parked_resident: usize,
    /// Links dropped due to capacity.
    pub overflow: u64,
}

impl Frontier {
    /// Frontier over `topics` topic queues plus the shared untopiced slot.
    pub fn new(topics: usize, incoming_cap: usize, outgoing_cap: usize) -> Self {
        let n = topics + 1;
        Frontier {
            incoming: (0..n).map(|_| PriorityQueue::default()).collect(),
            outgoing: (0..n).map(|_| PriorityQueue::default()).collect(),
            incoming_cap,
            outgoing_cap,
            parked: BTreeMap::new(),
            park_seq: 0,
            parked_resident: 0,
            overflow: 0,
        }
    }

    /// Equals [`Frontier::new`]: the [`SpillConfig`] is ignored. Kept as
    /// frozen `benchmark/` surface until that surface is next revised.
    pub fn with_spill(
        topics: usize,
        incoming_cap: usize,
        outgoing_cap: usize,
        _spill: Option<SpillConfig>,
    ) -> Self {
        Self::new(topics, incoming_cap, outgoing_cap)
    }

    fn slot(&self, topic: Option<u32>) -> usize {
        match topic {
            Some(t) if (t as usize) < self.incoming.len() - 1 => t as usize,
            _ => self.incoming.len() - 1,
        }
    }

    /// Enqueue into the topic's incoming queue.
    pub fn push(&mut self, entry: QueueEntry) {
        let slot = self.slot(entry.src_topic);
        if !self.incoming[slot].push(entry, self.incoming_cap) {
            self.overflow += 1;
        }
    }

    /// Enqueue directly into the outgoing queue (seeds, retries, hub
    /// boosts after retraining).
    pub fn push_outgoing(&mut self, entry: QueueEntry) {
        let slot = self.slot(entry.src_topic);
        if !self.outgoing[slot].push(entry, self.outgoing_cap) {
            self.overflow += 1;
        }
    }

    /// Outgoing queues below this length are refilled before a pop.
    fn refill_below(&self) -> usize {
        (self.outgoing_cap / 4).max(1)
    }

    /// The best `k` entries, best first, as the next `k` pops would find
    /// them if nothing were pushed or released before: each outgoing
    /// queue with the incoming entries its refills could move in over
    /// those pops, merged by priority. Reads only.
    pub fn peek(&self, k: usize) -> Vec<&QueueEntry> {
        let mut best: Vec<&QueueEntry> = Vec::new();
        for (outgoing, incoming) in self.outgoing.iter().zip(&self.incoming) {
            let refills = (self.refill_below() + k).saturating_sub(outgoing.len() + 1);
            best.extend(outgoing.iter().take(k));
            best.extend(incoming.iter().take(refills.min(k)));
        }
        best.sort_by(|a, b| b.priority.total_cmp(&a.priority));
        best.truncate(k);
        best
    }

    /// Take the globally best URL: refill outgoing queues that run low,
    /// then pop the best entry across all outgoing queues.
    pub fn pop(&mut self) -> Option<QueueEntry> {
        // Refill: move the best incoming entries into outgoing when the
        // outgoing side is below a quarter of its capacity. This is the
        // point where the real system starts asynchronous DNS resolution
        // "only for promising crawl candidates".
        for slot in 0..self.outgoing.len() {
            while self.outgoing[slot].len() < self.refill_below() {
                match self.incoming[slot].pop() {
                    Some(e) => {
                        self.outgoing[slot].push(e, self.outgoing_cap);
                    }
                    None => break,
                }
            }
        }
        let best_slot = (0..self.outgoing.len())
            .filter_map(|s| self.outgoing[s].peek_priority().map(|p| (s, p)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(s, _)| s)?;
        self.outgoing[best_slot].pop()
    }

    /// Park a URL until virtual time `release_ms` (retry backoff or an
    /// open circuit breaker). Parked entries do not compete for pops
    /// until released.
    pub fn park(&mut self, entry: QueueEntry, release_ms: u64) {
        self.parked_resident += entry.resident_bytes();
        self.parked.insert((release_ms, self.park_seq), entry);
        self.park_seq += 1;
    }

    /// Move every parked entry whose release time has arrived back into
    /// its outgoing queue. Returns how many were released.
    pub fn release_due(&mut self, now_ms: u64) -> usize {
        let mut released = 0;
        while let Some((&(release_ms, seq), _)) = self.parked.iter().next() {
            if release_ms > now_ms {
                break;
            }
            let entry = self.parked.remove(&(release_ms, seq)).expect("just peeked");
            self.parked_resident -= entry.resident_bytes();
            self.push_outgoing(entry);
            released += 1;
        }
        released
    }

    /// Earliest release time among parked entries.
    pub fn next_release(&self) -> Option<u64> {
        self.parked.keys().next().map(|&(t, _)| t)
    }

    /// Number of parked URLs.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Total queued URLs (including parked ones).
    pub fn len(&self) -> usize {
        self.incoming
            .iter()
            .chain(self.outgoing.iter())
            .map(PriorityQueue::len)
            .sum::<usize>()
            + self.parked.len()
    }

    /// True when no URLs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Always 0: every queued entry is resident. Kept as frozen
    /// `benchmark/` surface until that surface is next revised.
    pub fn spilled_len(&self) -> usize {
        0
    }

    /// [`QueueEntry::resident_bytes`] of every queued entry, kept on
    /// push and pop (the ordered key index is not counted).
    pub fn resident_bytes(&self) -> usize {
        let queues = self.incoming.iter().chain(&self.outgoing);
        queues.map(|q| q.resident).sum::<usize>() + self.parked_resident
    }

    /// Serializable snapshot. Entries are listed in pop order per queue
    /// (priority order), parked entries in release order, so the
    /// snapshot is byte-stable for identical frontiers.
    pub fn snapshot(&self) -> FrontierSnapshot {
        let drain = |q: &PriorityQueue| -> Vec<QueueEntry> { q.iter().cloned().collect() };
        FrontierSnapshot {
            incoming: self.incoming.iter().map(drain).collect(),
            outgoing: self.outgoing.iter().map(drain).collect(),
            parked: self
                .parked
                .iter()
                .map(|(&(t, _), e)| (t, e.clone()))
                .collect(),
            overflow: self.overflow,
        }
    }

    /// Rebuild a frontier from a snapshot.
    pub fn restore(snap: FrontierSnapshot, incoming_cap: usize, outgoing_cap: usize) -> Self {
        let topics = snap.incoming.len().saturating_sub(1);
        let mut f = Self::new(topics, incoming_cap, outgoing_cap);
        for (slot, entries) in snap.incoming.into_iter().enumerate() {
            for e in entries {
                f.incoming[slot].push(e, incoming_cap);
            }
        }
        for (slot, entries) in snap.outgoing.into_iter().enumerate() {
            for e in entries {
                f.outgoing[slot].push(e, outgoing_cap);
            }
        }
        f.overflow = snap.overflow;
        for (release_ms, entry) in snap.parked {
            f.park(entry, release_ms);
        }
        f
    }
}

/// Serialized form of a [`Frontier`] for crawl checkpoints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FrontierSnapshot {
    /// Incoming queue contents per slot, in priority order.
    pub incoming: Vec<Vec<QueueEntry>>,
    /// Outgoing queue contents per slot, in priority order.
    pub outgoing: Vec<Vec<QueueEntry>>,
    /// Parked entries as `(release_ms, entry)` in release order.
    pub parked: Vec<(u64, QueueEntry)>,
    /// Overflow counter at snapshot time.
    pub overflow: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(url: &str, priority: f32, topic: Option<u32>) -> QueueEntry {
        QueueEntry {
            url: url.to_string(),
            priority,
            ..QueueEntry::seed(url, topic)
        }
    }

    /// [`Frontier::resident_bytes`] recomputed from every resident entry.
    fn rescan(f: &Frontier) -> usize {
        let queues = f.incoming.iter().chain(&f.outgoing);
        let entries = queues
            .flat_map(PriorityQueue::iter)
            .chain(f.parked.values());
        entries.map(QueueEntry::resident_bytes).sum()
    }

    #[test]
    fn pops_highest_priority_first() {
        let mut f = Frontier::new(2, 100, 10);
        f.push(entry("low", 0.1, Some(0)));
        f.push(entry("high", 0.9, Some(0)));
        f.push(entry("mid", 0.5, Some(0)));
        assert_eq!(f.pop().unwrap().url, "high");
        assert_eq!(f.pop().unwrap().url, "mid");
        assert_eq!(f.pop().unwrap().url, "low");
        assert!(f.pop().is_none());
    }

    #[test]
    fn fifo_within_equal_priority() {
        let mut f = Frontier::new(1, 100, 10);
        f.push(entry("first", 0.5, Some(0)));
        f.push(entry("second", 0.5, Some(0)));
        assert_eq!(f.pop().unwrap().url, "first");
        assert_eq!(f.pop().unwrap().url, "second");
    }

    #[test]
    fn capacity_evicts_worst() {
        let mut f = Frontier::new(1, 3, 2);
        for i in 0..5 {
            f.push(entry(&format!("u{i}"), i as f32 / 10.0, Some(0)));
        }
        assert_eq!(f.overflow, 2);
        // The three best survive: u4, u3, u2.
        let mut got = Vec::new();
        while let Some(e) = f.pop() {
            got.push(e.url);
        }
        assert_eq!(got, vec!["u4", "u3", "u2"]);
    }

    #[test]
    fn pops_best_across_topics() {
        let mut f = Frontier::new(2, 100, 10);
        f.push(entry("t0", 0.3, Some(0)));
        f.push(entry("t1", 0.8, Some(1)));
        f.push(entry("untopiced", 0.5, None));
        assert_eq!(f.pop().unwrap().url, "t1");
        assert_eq!(f.pop().unwrap().url, "untopiced");
        assert_eq!(f.pop().unwrap().url, "t0");
    }

    #[test]
    fn unknown_topic_goes_to_shared_slot() {
        let mut f = Frontier::new(1, 100, 10);
        f.push(entry("weird", 0.5, Some(42)));
        assert_eq!(f.pop().unwrap().url, "weird");
    }

    #[test]
    fn outgoing_refills_from_incoming() {
        let mut f = Frontier::new(1, 1000, 40);
        for i in 0..100 {
            f.push(entry(&format!("u{i}"), (i % 10) as f32, Some(0)));
        }
        assert_eq!(f.len(), 100);
        let first = f.pop().unwrap();
        assert_eq!(first.priority, 9.0);
        assert_eq!(f.len(), 99);
    }

    #[test]
    fn peek_names_the_next_pops_through_refills() {
        // Outgoing cap 8 refills below 2: most of the best entries still
        // sit in the incoming queue when the peek looks.
        let mut f = Frontier::new(1, 100, 8);
        for i in 0..40u64 {
            f.push(entry(&format!("u{i}"), ((i * 17) % 40) as f32, Some(0)));
        }
        f.push_outgoing(entry("boosted", 100.0, Some(0)));
        f.pop();
        let peeked: Vec<String> = f.peek(3).into_iter().map(|e| e.url.clone()).collect();
        let popped: Vec<String> = (0..3).map(|_| f.pop().unwrap().url).collect();
        assert_eq!(peeked, popped);
    }

    #[test]
    fn parked_entries_wait_for_release() {
        let mut f = Frontier::new(1, 100, 10);
        f.park(entry("later", 0.9, Some(0)), 500);
        f.park(entry("soon", 0.1, Some(0)), 100);
        assert_eq!(f.len(), 2);
        assert_eq!(f.parked_len(), 2);
        assert!(f.pop().is_none(), "parked URLs are not poppable");
        assert_eq!(f.next_release(), Some(100));
        assert_eq!(f.release_due(99), 0);
        assert_eq!(f.release_due(100), 1);
        assert_eq!(f.pop().unwrap().url, "soon");
        assert_eq!(f.next_release(), Some(500));
        assert_eq!(f.release_due(1000), 1);
        assert_eq!(f.pop().unwrap().url, "later");
        assert!(f.next_release().is_none());
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut f = Frontier::new(2, 100, 10);
        f.push(entry("a", 0.3, Some(0)));
        f.push(entry("b", 0.8, Some(1)));
        f.push_outgoing(entry("c", 0.5, None));
        f.park(entry("p", 0.1, Some(0)), 777);
        f.overflow = 3;
        let snap = f.snapshot();
        let mut r = Frontier::restore(snap, 100, 10);
        assert_eq!(r.len(), f.len());
        assert_eq!(r.parked_len(), 1);
        assert_eq!(r.overflow, 3);
        assert_eq!(r.next_release(), Some(777));
        // Pop order is preserved across the round trip.
        let mut orig = Vec::new();
        while let Some(e) = f.pop() {
            orig.push(e.url);
        }
        let mut rest = Vec::new();
        while let Some(e) = r.pop() {
            rest.push(e.url);
        }
        assert_eq!(orig, rest);
    }

    #[test]
    fn seed_has_max_priority() {
        let mut f = Frontier::new(1, 100, 10);
        f.push(entry("normal", 100.0, Some(0)));
        f.push_outgoing(QueueEntry::seed("http://seed/", Some(0)));
        assert_eq!(f.pop().unwrap().url, "http://seed/");
    }

    #[test]
    fn resident_bytes_track_every_queue_operation() {
        let mut f = Frontier::new(2, 20, 5);
        let check = |f: &Frontier, step: &str| {
            assert_eq!(f.resident_bytes(), rescan(f), "drifted after {step}");
        };
        // Pushes past the incoming cap (20 per slot), so some evict.
        for i in 0..120u64 {
            let pri = ((i * 37) % 90) as f32 / 100.0;
            let topic = [Some(0), Some(1), None][(i % 3) as usize];
            let mut e = entry(&format!("u{i}"), pri, topic);
            e.neighbor_terms = vec![TermId(i as u32); (i % 9) as usize];
            f.push(e);
            check(&f, "push");
        }
        assert!(f.overflow > 0, "the incoming cap never evicted");
        for i in 0..8u64 {
            f.push_outgoing(entry(&format!("o{i}"), 0.95, Some(1)));
            check(&f, "push_outgoing");
        }
        // Pops through refills of the outgoing queues.
        for _ in 0..30 {
            f.pop().expect("queued");
            check(&f, "pop");
        }
        for i in 0..4u64 {
            let mut e = entry(&format!("p{i}"), 0.5, Some(0));
            e.anchor_terms = vec![TermId(7); i as usize];
            f.park(e, 100 * i);
            check(&f, "park");
        }
        assert_eq!(f.release_due(150), 2);
        check(&f, "release_due");
        let r = Frontier::restore(f.snapshot(), 20, 5);
        check(&r, "snapshot and restore");
    }
}
