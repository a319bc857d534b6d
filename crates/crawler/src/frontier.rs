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
//! # Spilling (memory-bounded crawls)
//!
//! With a [`SpillConfig`], each incoming queue keeps only a bounded *hot
//! set* of entry payloads in memory; the cold tail is appended to a
//! per-slot spill file and read back by offset when popped. The ordered
//! key index stays fully in memory (a key is ~40 bytes vs. hundreds for
//! a URL + anchor terms payload), so pop order, eviction and capacity
//! semantics are **bit-identical** to the unspilled frontier — spilling
//! changes where bytes live, never what pops next. Spill files are pure
//! scratch: checkpoints materialize every entry into the snapshot, so
//! crash recovery never reads a spill file, and stale files from a
//! killed run are deleted when the next frontier claims the directory.

use crate::types::QueuePriority;
use bingo_store::spill::reap_stale_spill_files;
use bingo_textproc::TermId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::os::unix::fs::FileExt;
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

/// Spill configuration: where incoming queues park their cold tail and
/// how many entry payloads per queue stay resident.
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Directory holding the per-slot spill files (created if missing;
    /// stale spill files from earlier runs are deleted).
    pub dir: PathBuf,
    /// Maximum in-memory entry payloads per incoming queue.
    pub hot_cap: usize,
}

/// Where one queued entry's payload lives.
#[derive(Debug)]
enum Slot {
    /// Payload resident in memory.
    Hot(QueueEntry),
    /// Payload appended to the spill file at `offset..offset + len`.
    Spilled { offset: u64, len: u32 },
}

/// Disk backing of one spilling queue.
#[derive(Debug)]
struct SpillState {
    file: File,
    /// Append cursor (the file is pure scratch — popped and evicted
    /// entries leave garbage behind; the file is truncated whenever the
    /// last spilled entry is consumed).
    write_off: u64,
    hot_cap: usize,
    /// Keys currently held as [`Slot::Hot`], for O(log n) demotion.
    hot_keys: BTreeSet<(QueuePriority, u64)>,
    /// Live (non-garbage) spilled entries.
    spilled: usize,
}

impl SpillState {
    fn write_entry(&mut self, entry: &QueueEntry) -> Slot {
        let mut buf = serde_json::to_string(entry)
            .expect("queue entry serializes")
            .into_bytes();
        let slot = Slot::Spilled {
            offset: self.write_off,
            len: buf.len() as u32,
        };
        buf.push(b'\n');
        self.file
            .write_all_at(&buf, self.write_off)
            .expect("frontier spill write failed");
        self.write_off += buf.len() as u64;
        self.spilled += 1;
        slot
    }

    fn read_entry(&self, offset: u64, len: u32) -> QueueEntry {
        let mut buf = vec![0u8; len as usize];
        self.file
            .read_exact_at(&mut buf, offset)
            .expect("frontier spill read failed");
        let text = std::str::from_utf8(&buf).expect("frontier spill utf8");
        serde_json::from_str(text).expect("frontier spill entry parses")
    }
}

/// Ordered queue keyed by descending priority, FIFO within equal
/// priorities, with worst-entry eviction at capacity. With a spill
/// state attached, only the best `hot_cap` payloads stay in memory.
#[derive(Debug, Default)]
struct PriorityQueue {
    entries: BTreeMap<(QueuePriority, u64), Slot>,
    seq: u64,
    spill: Option<SpillState>,
    /// [`QueueEntry::resident_bytes`] summed over the hot payloads.
    resident: usize,
}

impl PriorityQueue {
    fn spilling(dir: &std::path::Path, slot: usize, hot_cap: usize) -> Self {
        let path = dir.join(format!("slot-{slot}.spill"));
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .expect("frontier spill file");
        PriorityQueue {
            entries: BTreeMap::new(),
            seq: 0,
            resident: 0,
            spill: Some(SpillState {
                file,
                write_off: 0,
                hot_cap: hot_cap.max(1),
                hot_keys: BTreeSet::new(),
                spilled: 0,
            }),
        }
    }

    fn push(&mut self, entry: QueueEntry, cap: usize) -> bool {
        let key = (QueuePriority::new(entry.priority), self.seq);
        self.seq += 1;
        self.resident += entry.resident_bytes();
        self.entries.insert(key, Slot::Hot(entry));
        if let Some(st) = &mut self.spill {
            st.hot_keys.insert(key);
            // Demote the worst hot payload once the hot set overflows —
            // the ordered index is untouched, so pop order is unchanged.
            if st.hot_keys.len() > st.hot_cap {
                let worst_hot = *st.hot_keys.iter().next_back().expect("non-empty");
                st.hot_keys.remove(&worst_hot);
                let slot = self.entries.get_mut(&worst_hot).expect("indexed");
                if let Slot::Hot(e) = slot {
                    self.resident -= e.resident_bytes();
                    let spilled = st.write_entry(e);
                    *slot = spilled;
                }
            }
        }
        if self.entries.len() > cap {
            // Evict the worst (largest key: lowest priority, newest).
            let worst = *self.entries.keys().next_back().expect("non-empty");
            match self.entries.remove(&worst) {
                Some(Slot::Hot(e)) => {
                    self.resident -= e.resident_bytes();
                    if let Some(st) = &mut self.spill {
                        st.hot_keys.remove(&worst);
                    }
                }
                Some(Slot::Spilled { .. }) => {
                    let st = self.spill.as_mut().expect("spilled slot implies spill");
                    st.spilled -= 1; // bytes become garbage in the file
                }
                None => unreachable!(),
            }
            self.maybe_reclaim();
            return false;
        }
        true
    }

    fn pop(&mut self) -> Option<QueueEntry> {
        let best = *self.entries.keys().next()?;
        let entry = match self.entries.remove(&best)? {
            Slot::Hot(e) => {
                self.resident -= e.resident_bytes();
                if let Some(st) = &mut self.spill {
                    st.hot_keys.remove(&best);
                }
                e
            }
            Slot::Spilled { offset, len } => {
                let st = self.spill.as_mut().expect("spilled slot implies spill");
                st.spilled -= 1;
                st.read_entry(offset, len)
            }
        };
        self.maybe_reclaim();
        Some(entry)
    }

    /// Truncate the spill file once no live entry references it, so a
    /// long crawl's scratch space is bounded by frontier churn, not
    /// crawl length.
    fn maybe_reclaim(&mut self) {
        if let Some(st) = &mut self.spill {
            if st.spilled == 0 && st.write_off > 0 {
                st.file.set_len(0).expect("frontier spill truncate");
                st.write_off = 0;
            }
        }
    }

    fn peek_priority(&self) -> Option<f32> {
        self.entries.keys().next().map(|(p, _)| p.as_f32())
    }

    /// The resident payloads, best first.
    fn hot(&self) -> impl Iterator<Item = &QueueEntry> {
        self.entries.values().filter_map(|slot| match slot {
            Slot::Hot(e) => Some(e),
            Slot::Spilled { .. } => None,
        })
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// Entries whose payload currently lives on disk.
    fn spilled_len(&self) -> usize {
        self.spill.as_ref().map_or(0, |st| st.spilled)
    }

    /// Materialize an entry for snapshotting without consuming it.
    fn materialize(&self, slot: &Slot) -> QueueEntry {
        match slot {
            Slot::Hot(e) => e.clone(),
            Slot::Spilled { offset, len } => self
                .spill
                .as_ref()
                .expect("spilled slot implies spill")
                .read_entry(*offset, *len),
        }
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
        Self::with_spill(topics, incoming_cap, outgoing_cap, None)
    }

    /// Like [`Frontier::new`], but with the incoming queues' cold tail
    /// spilled to per-slot files when a [`SpillConfig`] is given. The
    /// outgoing queues (≤1000 entries) and the parked set stay resident.
    /// Stale spill files in the directory are deleted first.
    pub fn with_spill(
        topics: usize,
        incoming_cap: usize,
        outgoing_cap: usize,
        spill: Option<SpillConfig>,
    ) -> Self {
        let n = topics + 1;
        let incoming = match &spill {
            Some(cfg) => {
                std::fs::create_dir_all(&cfg.dir).expect("frontier spill dir");
                // Scratch of a crashed or superseded run: checkpoints
                // are self-contained, so recovery never reads these.
                reap_stale_spill_files(&cfg.dir, &["slot-"]);
                (0..n)
                    .map(|slot| PriorityQueue::spilling(&cfg.dir, slot, cfg.hot_cap))
                    .collect()
            }
            None => (0..n).map(|_| PriorityQueue::default()).collect(),
        };
        Frontier {
            incoming,
            outgoing: (0..n).map(|_| PriorityQueue::default()).collect(),
            incoming_cap,
            outgoing_cap,
            parked: BTreeMap::new(),
            park_seq: 0,
            parked_resident: 0,
            overflow: 0,
        }
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
    /// those pops, merged by priority. Payloads spilled to disk are left
    /// out. Reads only.
    pub fn peek(&self, k: usize) -> Vec<&QueueEntry> {
        let mut best: Vec<&QueueEntry> = Vec::new();
        for (outgoing, incoming) in self.outgoing.iter().zip(&self.incoming) {
            let refills = (self.refill_below() + k).saturating_sub(outgoing.len() + 1);
            best.extend(outgoing.hot().take(k));
            best.extend(incoming.hot().take(refills.min(k)));
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

    /// Queued URLs whose payload currently lives in spill files rather
    /// than memory (0 without a [`SpillConfig`]).
    pub fn spilled_len(&self) -> usize {
        self.incoming.iter().map(PriorityQueue::spilled_len).sum()
    }

    /// [`QueueEntry::resident_bytes`] of every entry held in memory,
    /// kept on push and pop (the ordered key index is not counted).
    pub fn resident_bytes(&self) -> usize {
        let queues = self.incoming.iter().chain(&self.outgoing);
        queues.map(|q| q.resident).sum::<usize>() + self.parked_resident
    }

    /// Serializable snapshot. Entries are listed in pop order per queue
    /// (priority order), parked entries in release order, so the
    /// snapshot is byte-stable for identical frontiers. Spilled entries
    /// are materialized from disk: a checkpoint is self-contained and
    /// recovery never depends on spill scratch files.
    pub fn snapshot(&self) -> FrontierSnapshot {
        let drain = |q: &PriorityQueue| -> Vec<QueueEntry> {
            q.entries.values().map(|s| q.materialize(s)).collect()
        };
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
        Self::restore_with(snap, incoming_cap, outgoing_cap, None)
    }

    /// Rebuild a frontier from a snapshot, re-spilling the incoming
    /// queues' cold tail when a [`SpillConfig`] is given. Snapshots
    /// are backend-agnostic, so a checkpoint taken by a spilling crawl
    /// restores into a plain frontier and vice versa.
    pub fn restore_with(
        snap: FrontierSnapshot,
        incoming_cap: usize,
        outgoing_cap: usize,
        spill: Option<SpillConfig>,
    ) -> Self {
        let topics = snap.incoming.len().saturating_sub(1);
        let mut f = Self::with_spill(topics, incoming_cap, outgoing_cap, spill);
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
        let hot = queues.flat_map(PriorityQueue::hot).chain(f.parked.values());
        hot.map(QueueEntry::resident_bytes).sum()
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

    fn spill_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bingo-frontier-spill-{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn spill(tag: &str, hot_cap: usize) -> Option<SpillConfig> {
        Some(SpillConfig {
            dir: spill_dir(tag),
            hot_cap,
        })
    }

    #[test]
    fn spilling_frontier_pops_identically_to_plain() {
        let mut plain = Frontier::new(2, 50, 5);
        let mut spilled = Frontier::with_spill(2, 50, 5, spill("ident", 4));
        // Interleaved pushes and pops across topics with duplicate
        // priorities, evictions (cap 50 exceeded) and parks.
        for i in 0..200u64 {
            let pri = ((i * 37) % 90) as f32 / 100.0;
            let topic = match i % 4 {
                0 => Some(0),
                1 => Some(1),
                2 => None,
                _ => Some(0),
            };
            let mut e = entry(&format!("u{i}"), pri, topic);
            e.neighbor_terms = vec![TermId(i as u32); (i % 9) as usize];
            plain.push(e.clone());
            spilled.push(e);
            if i % 7 == 6 {
                let a = plain.pop().map(|e| e.url);
                let b = spilled.pop().map(|e| e.url);
                assert_eq!(a, b, "pop {i} diverged");
            }
            if i % 31 == 30 {
                let e = entry(&format!("parked{i}"), 0.95, Some(1));
                plain.park(e.clone(), i * 10);
                spilled.park(e, i * 10);
                plain.release_due(i * 10);
                spilled.release_due(i * 10);
            }
            // Kept on push, pop, park, release, demotion and eviction.
            assert_eq!(plain.resident_bytes(), rescan(&plain));
            assert_eq!(spilled.resident_bytes(), rescan(&spilled));
            assert!(spilled.resident_bytes() <= plain.resident_bytes());
        }
        assert_eq!(plain.len(), spilled.len());
        assert_eq!(plain.overflow, spilled.overflow);
        assert!(spilled.spilled_len() > 0, "tail should have spilled");
        assert_eq!(plain.spilled_len(), 0);
        // Drain completely: the whole pop sequence matches.
        loop {
            let a = plain.pop().map(|e| e.url);
            let b = spilled.pop().map(|e| e.url);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn spill_preserves_per_slot_priority_order_and_payloads() {
        let mut f = Frontier::with_spill(0, 1000, 1, spill("order", 2));
        // One slot, hot cap 2: almost everything spills. Payload fields
        // must survive the disk round trip intact.
        for i in 0..50u64 {
            let mut e = entry(&format!("u{i}"), (i % 10) as f32 / 10.0, None);
            e.depth = i as u32;
            e.anchor_terms = vec![bingo_textproc::TermId(i as u32)];
            f.push(e);
        }
        assert!(f.spilled_len() >= 40);
        let mut last = f32::MAX;
        let mut seen = 0;
        while let Some(e) = f.pop() {
            assert!(e.priority <= last, "priority order violated");
            last = e.priority;
            let i: u64 = e.url.trim_start_matches('u').parse().unwrap();
            assert_eq!(e.depth, i as u32, "payload depth corrupted");
            assert_eq!(e.anchor_terms, vec![bingo_textproc::TermId(i as u32)]);
            seen += 1;
        }
        assert_eq!(seen, 50);
        assert_eq!(f.spilled_len(), 0);
    }

    #[test]
    fn snapshot_of_spilling_frontier_matches_plain_and_restores() {
        let mut plain = Frontier::new(1, 30, 4);
        let mut spilled = Frontier::with_spill(1, 30, 4, spill("snap", 3));
        for i in 0..60u64 {
            let e = entry(&format!("u{i}"), ((i * 13) % 40) as f32 / 40.0, Some(0));
            plain.push(e.clone());
            spilled.push(e);
        }
        let ps = plain.snapshot();
        let ss = spilled.snapshot();
        // Snapshots are backend-agnostic: byte-identical contents.
        let mut a = Vec::new();
        let mut b = Vec::new();
        serde_json::to_writer(&mut a, &ps).unwrap();
        serde_json::to_writer(&mut b, &ss).unwrap();
        assert_eq!(a, b, "snapshot bytes diverged");
        // A spilled snapshot restores into a plain frontier and vice
        // versa, with identical pop sequences.
        let mut from_spill = Frontier::restore(ss, 30, 4);
        let mut to_spill = Frontier::restore_with(ps, 30, 4, spill("snap2", 3));
        loop {
            let x = from_spill.pop().map(|e| e.url);
            let y = to_spill.pop().map(|e| e.url);
            let z = plain.pop().map(|e| e.url);
            assert_eq!(x, z);
            assert_eq!(y, z);
            if z.is_none() {
                break;
            }
        }
    }

    #[test]
    fn spill_file_reclaimed_when_drained_and_stale_files_removed() {
        let dir = spill_dir("reclaim");
        let cfg = Some(SpillConfig {
            dir: dir.clone(),
            hot_cap: 1,
        });
        let mut f = Frontier::with_spill(0, 100, 1, cfg.clone());
        for i in 0..20u64 {
            f.push(entry(&format!("u{i}"), 0.5, None));
        }
        let path = dir.join("slot-0.spill");
        assert!(std::fs::metadata(&path).unwrap().len() > 0);
        while f.pop().is_some() {}
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            0,
            "drained spill file must be truncated"
        );
        // A crashed run's leftovers vanish when a new frontier claims
        // the directory.
        std::fs::write(dir.join("slot-7.spill"), b"stale garbage").unwrap();
        drop(f);
        let f2 = Frontier::with_spill(0, 100, 1, cfg);
        assert!(!dir.join("slot-7.spill").exists(), "stale spill survived");
        assert_eq!(f2.len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
