//! # bingo-dist — coordinator/worker distributed crawl
//!
//! BINGO!'s crawler is the component the paper expects to scale out
//! (Section 4.1's "up to ten thousand documents per minute" is a
//! single-node figure). This crate adds the next tier, following the
//! host-sharded distributed-agent design of BUbiNG: a [`Coordinator`]
//! shards the frontier by host hash across N deterministic in-process
//! worker "nodes" ([`WorkerNode`]) that share one virtual clock, so a
//! distributed chaos run is exactly reproducible — same seed, same
//! kills, byte-identical `dist.*` telemetry.
//!
//! Three mechanisms make whole-node failure a recoverable event rather
//! than a lost crawl:
//!
//! * **Leased work** ([`LeaseQueue`]): URLs are leased to their host's
//!   shard with a virtual-clock deadline and acked only after the
//!   node's durable bulk-load. Expired leases are re-issued; each item
//!   carries a poison budget, and items that keep dying with their
//!   nodes are quarantined instead of wedging the crawl. The queue
//!   journals through [`bingo_store::DurableFs::atomic_write`], so a
//!   kill at any byte of the journal rolls back cleanly.
//! * **Two-phase distributed snapshots**: a single checkpoint
//!   generation commits every node's store (`node-K/store.jsonl`),
//!   the lease journal, and the coordinator state under one manifest
//!   written last. A crash anywhere — any node's partial file, the
//!   journal, the manifest itself — rolls the *whole* generation back
//!   to the previous cut; there is no state where node 0's snapshot is
//!   newer than node 1's.
//! * **Node supervision** ([`bingo_webworld::NodeFaultPlan`]): seeded
//!   kill/stall/restart windows take whole nodes down mid-crawl. A
//!   killed node loses its in-memory store and in-flight leases; the
//!   coordinator re-leases orphaned work when the deadlines expire,
//!   replays completions recorded after the last committed cut, and
//!   the restarted node resumes from its snapshot — converging to the
//!   same store contents as a calm run, minus quarantined URLs.
//!
//! The `dist` bench scenario (BENCH_dist.json) gates coverage, requeue
//! counts, and node-kill recovery tolerances; see DESIGN.md
//! "Distributed crawl & node supervision".
#![forbid(unsafe_code)]

pub mod coordinator;
pub mod lease;
pub mod node;
pub mod telemetry;

pub use coordinator::{Coordinator, DistConfig, DistStats};
pub use lease::{LeaseQueue, LeaseRecord, LeaseStats, QuarantinedItem, QueuedItem, WorkItem};
pub use node::WorkerNode;
pub use telemetry::DistTelemetry;

/// Shard (node index) owning `url`: fxhash of the URL's host modulo the
/// node count, so one host's URLs always land on one node — per-host
/// politeness and content dedup stay node-local, exactly the BUbiNG
/// sharding argument.
pub fn shard_of_url(url: &str, nodes: usize) -> usize {
    let host = bingo_webworld::fetch::host_of_url(url).unwrap_or(url);
    (bingo_textproc::fxhash::hash_one(&host) % nodes.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_is_by_host_and_stable() {
        let a = shard_of_url("http://host-a.example/p1", 4);
        let b = shard_of_url("http://host-a.example/p2/deep", 4);
        assert_eq!(a, b, "same host, same shard");
        assert!(a < 4);
        let spread: std::collections::BTreeSet<usize> = (0..64)
            .map(|i| shard_of_url(&format!("http://h{i}.example/"), 4))
            .collect();
        assert!(spread.len() > 1, "hosts spread over shards");
    }
}
