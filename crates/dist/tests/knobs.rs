//! Every numeric setting of a distributed crawl, drawn over its whole
//! range (0 and the type's maximum included), runs a short crawl
//! through node kills without a panic. The node count sizes per-node
//! state and is drawn from 1–4 only. A snapshot interval of 0 commits
//! what an interval of 1 does.

use bingo_crawler::{BatchJudge, Judgment, PageContext};
use bingo_dist::{Coordinator, DistConfig};
use bingo_textproc::AnalyzedDocument;
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::{NodeFaultPlan, NodeFaultProfile};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Virtual budget of one crawl: past the lease time-to-live, so leases
/// of killed nodes expire and spend poison budget.
const BUDGET_MS: u64 = 60_000;

fn judge() -> Arc<dyn BatchJudge> {
    Arc::new(|_: &AnalyzedDocument, _: &PageContext| Judgment {
        topic: Some(0),
        confidence: 1.0,
    })
}

fn edge_u32() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0), Just(u32::MAX), 0u32..8, any::<u32>()]
}

fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0), Just(u64::MAX), 0u64..8, any::<u64>()]
}

/// A fresh session directory per case.
fn session_dir() -> std::path::PathBuf {
    static CASE: AtomicU64 = AtomicU64::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("bingo-dist-knobs-{}-{n}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn no_dist_config_value_panics_a_crawl(
        seed in 0u64..4,
        nodes in 1usize..=4,
        poison_budget in edge_u32(),
        snapshot_every_acks in edge_u64(),
        max_depth in edge_u32(),
    ) {
        let world = Arc::new(WorldConfig::small_test(seed).build());
        let dir = session_dir();
        let config = DistConfig {
            poison_budget,
            snapshot_every_acks,
            max_depth,
            ..DistConfig::new(nodes, &dir)
        };
        let mut coord = Coordinator::new(world.clone(), judge(), config);
        for id in 1..=6 {
            coord.add_seed(&world.url_of(id), Some(0));
        }
        coord.install_faults(NodeFaultPlan::generate(seed, nodes, &NodeFaultProfile::chaos()));
        let stats = coord.run(BUDGET_MS);
        std::fs::remove_dir_all(&dir).ok();
        prop_assert!(stats.expect("the crawl runs").fetch_ok > 0);
    }
}

/// The distributed snapshots a calm 3-node crawl of `small_test(11)`
/// commits, every `snapshot_every_acks` acks.
fn snapshots_committed(snapshot_every_acks: u64) -> u64 {
    let world = Arc::new(WorldConfig::small_test(11).build());
    let dir = session_dir();
    let config = DistConfig {
        snapshot_every_acks,
        ..DistConfig::new(3, &dir)
    };
    let mut coord = Coordinator::new(world.clone(), judge(), config);
    for id in 1..=6 {
        coord.add_seed(&world.url_of(id), Some(0));
    }
    let stats = coord.run(BUDGET_MS).expect("the crawl runs");
    std::fs::remove_dir_all(&dir).ok();
    stats.snapshots
}

#[test]
fn an_interval_of_zero_commits_what_an_interval_of_one_does() {
    let every_ack = snapshots_committed(1);
    assert!(every_ack > 2, "{every_ack} snapshots");
    assert_eq!(snapshots_committed(0), every_ack);
}
