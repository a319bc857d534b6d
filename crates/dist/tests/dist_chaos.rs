//! Node-kill chaos acceptance tests: a distributed crawl under a
//! seeded [`NodeFaultPlan`] is exactly reproducible — same seed, same
//! kills, byte-identical `dist.*` telemetry — and a cluster that loses
//! whole nodes mid-crawl (or the whole process) converges to the
//! harvest of an uninterrupted run, minus nothing but quarantined URLs.

use bingo_crawler::{BatchJudge, Judgment, PageContext};
use bingo_dist::{Coordinator, DistConfig, DistStats, DistTelemetry};
use bingo_textproc::{AnalyzedDocument, TermId};
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::{NodeFaultKind, NodeFaultPlan, NodeFaultProfile, NodeFaultWindow, World};
use std::path::PathBuf;
use std::sync::Arc;

fn judge() -> Arc<dyn BatchJudge> {
    Arc::new(|_: &AnalyzedDocument, _: &PageContext| Judgment {
        topic: Some(0),
        confidence: 1.0,
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bingo-dist-chaos-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn dist_config(nodes: usize, dir: &PathBuf) -> DistConfig {
    let mut config = DistConfig::new(nodes, dir);
    config.snapshot_every_acks = 8;
    config.poison_budget = 100;
    config.max_depth = 100;
    config
}

fn seeded(world: &Arc<World>, config: DistConfig) -> Coordinator {
    let mut coord = Coordinator::new(world.clone(), judge(), config);
    for id in 1..=6 {
        coord.add_seed(&world.url_of(id), Some(0));
    }
    coord
}

fn sorted_page_ids(coord: &Coordinator) -> Vec<u64> {
    let mut ids: Vec<u64> = coord
        .combined_store()
        .all_documents()
        .into_iter()
        .map(|d| d.id)
        .collect();
    ids.sort_unstable();
    ids
}

/// Every stored row as `(page id, terms)`, each term id read as text
/// through the coordinator's dictionary and sorted: what a run stored,
/// whatever order it interned its terms in.
fn term_rows(coord: &Coordinator) -> Vec<(u64, Vec<(String, u32)>)> {
    let vocab = coord.vocabulary();
    let mut rows: Vec<(u64, Vec<(String, u32)>)> = coord
        .combined_store()
        .all_documents()
        .into_iter()
        .map(|d| {
            let mut terms: Vec<(String, u32)> = d
                .term_freqs
                .iter()
                .map(|&(t, f)| (vocab.term(TermId(t)).to_string(), f))
                .collect();
            terms.sort_unstable();
            (d.id, terms)
        })
        .collect();
    rows.sort_unstable();
    rows
}

/// Ratio of stored documents to fetch attempts — the distributed
/// analogue of the crawler's harvest ratio.
fn harvest_ratio(stats: &DistStats) -> f64 {
    let visited = stats.fetch_ok + stats.fetch_err + stats.redirects;
    stats.stored as f64 / visited.max(1) as f64
}

/// One full chaos run: metrics snapshot JSON, event log JSONL, final
/// stats, sorted page ids.
fn chaos_run(seed: u64, tag: &str) -> (String, String, DistStats, Vec<u64>) {
    let world = Arc::new(WorldConfig::small_test(seed).build());
    let dir = fresh_dir(tag);
    let mut coord = seeded(&world, dist_config(3, &dir));
    let telemetry = DistTelemetry::default();
    coord.set_telemetry(telemetry.clone());
    let plan = NodeFaultPlan::generate(seed, 3, &NodeFaultProfile::chaos());
    assert!(!plan.is_empty(), "chaos profile must script faults");
    coord.install_faults(plan);
    let stats = coord.run(10_000_000).expect("chaos run");
    let metrics = telemetry.registry.snapshot().to_json();
    let events = telemetry.events.to_jsonl();
    let ids = sorted_page_ids(&coord);
    std::fs::remove_dir_all(&dir).ok();
    (metrics, events, stats, ids)
}

#[test]
fn same_seed_chaos_runs_emit_byte_identical_dist_telemetry() {
    let (metrics_a, events_a, stats_a, ids_a) = chaos_run(31, "ident-a");
    let (metrics_b, events_b, stats_b, ids_b) = chaos_run(31, "ident-b");
    assert!(!ids_a.is_empty(), "chaos crawl must store documents");
    assert!(
        stats_a.kills + stats_a.stalls > 0,
        "fault plan must actually fire: {stats_a:?}"
    );
    assert_eq!(stats_a, stats_b, "DistStats must be byte-identical");
    assert_eq!(
        metrics_a, metrics_b,
        "dist.* metrics snapshots must be byte-identical"
    );
    assert_eq!(events_a, events_b, "event logs must be byte-identical");
    assert_eq!(ids_a, ids_b, "harvest sets must be identical");
    assert!(
        metrics_a.contains("dist.lease.issued") && metrics_a.contains("dist.snapshot.commits"),
        "snapshot must carry dist.* metrics"
    );
}

#[test]
fn different_seeds_differ() {
    // Sanity check that the byte-identity test has teeth.
    let (metrics_a, _, _, _) = chaos_run(31, "diff-a");
    let (metrics_b, _, _, _) = chaos_run(32, "diff-b");
    assert_ne!(metrics_a, metrics_b);
}

#[test]
fn node_kills_plus_process_kill_converge_to_calm_harvest() {
    let seed = 33;
    let world = Arc::new(WorldConfig::small_test(seed).build());

    // Uninterrupted calm reference.
    let calm_dir = fresh_dir("calm-ref");
    let mut calm = seeded(&world, dist_config(3, &calm_dir));
    let calm_stats = calm.run(10_000_000).expect("calm run");
    let calm_ratio = harvest_ratio(&calm_stats);
    assert!(
        calm_stats.stored > 20,
        "reference too small: {calm_stats:?}"
    );

    // Chaos leg: scripted node kills, then the whole process dies at a
    // virtual-time budget (run commits its cut on the way out — the
    // resume continues from that generation, like a crash recovery
    // landing on the newest complete cut).
    let dir = fresh_dir("killed");
    let plan = NodeFaultPlan::generate(seed, 3, &NodeFaultProfile::chaos());
    let mut doomed = seeded(&world, dist_config(3, &dir));
    doomed.install_faults(plan.clone());
    let mid_stats = doomed.run(5_000).expect("interrupted run");
    drop(doomed); // process killed

    let mut resumed =
        Coordinator::resume(world.clone(), judge(), dist_config(3, &dir)).expect("resume");
    assert_eq!(resumed.stats().stored, mid_stats.stored, "cut restored");
    resumed.install_faults(plan); // windows already past are skipped
    let final_stats = resumed.run(10_000_000).expect("resumed run");
    assert!(final_stats.kills >= 1, "kills applied: {final_stats:?}");
    assert!(resumed.quarantined().is_empty(), "poison budget too low");

    // Harvest ratio within 2% of the uninterrupted run, page set exact.
    let ratio = harvest_ratio(&final_stats);
    let drift = (ratio - calm_ratio).abs() / calm_ratio;
    assert!(
        drift <= 0.02,
        "harvest ratio drifted {:.2}% (calm {calm_ratio:.4}, chaos {ratio:.4})",
        drift * 100.0
    );
    assert_eq!(
        sorted_page_ids(&resumed),
        sorted_page_ids(&calm),
        "chaos + resume must converge to the calm page set"
    );
    std::fs::remove_dir_all(&calm_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// A process killed mid-crawl resumes with the dictionary of its cut:
/// rows stored before and after the cut read as the same terms as the
/// calm run's rows.
#[test]
fn resumed_rows_read_as_the_calm_run_terms() {
    let seed = 33;
    let world = Arc::new(WorldConfig::small_test(seed).build());
    let calm_dir = fresh_dir("terms-calm");
    let mut calm = seeded(&world, dist_config(3, &calm_dir));
    calm.run(10_000_000).expect("calm run");

    let dir = fresh_dir("terms-killed");
    let mut doomed = seeded(&world, dist_config(3, &dir));
    doomed.run(3_000).expect("interrupted run");
    drop(doomed); // process killed
    let mut resumed =
        Coordinator::resume(world.clone(), judge(), dist_config(3, &dir)).expect("resume");
    resumed.run(10_000_000).expect("resumed run");

    assert_eq!(sorted_page_ids(&resumed), sorted_page_ids(&calm));
    assert!(
        term_rows(&resumed) == term_rows(&calm),
        "resumed rows read as other terms than the calm run's"
    );
    std::fs::remove_dir_all(&calm_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

/// Seed-matrix sweep: every seed in `BINGO_NODE_KILL_SEEDS`
/// (comma-separated, default `41,42,43`) gets its own world, its own
/// generated chaos fault plan, a whole-process kill mid-crawl, and a
/// resume that must converge to that seed's calm page set. ci.sh runs
/// this in the crash step; nightly.yml fans much wider seed slices
/// through it.
#[test]
fn node_kill_seed_matrix_converges() {
    let seeds: Vec<u64> = std::env::var("BINGO_NODE_KILL_SEEDS")
        .unwrap_or_else(|_| "41,42,43".to_string())
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .collect();
    assert!(!seeds.is_empty(), "BINGO_NODE_KILL_SEEDS parsed empty");
    let mut total_kills = 0u64;
    for seed in seeds {
        let world = Arc::new(WorldConfig::small_test(seed).build());
        let calm_dir = fresh_dir(&format!("matrix-calm-{seed}"));
        let mut calm = seeded(&world, dist_config(3, &calm_dir));
        calm.run(10_000_000).expect("calm run");

        let dir = fresh_dir(&format!("matrix-kill-{seed}"));
        let plan = NodeFaultPlan::generate(seed, 3, &NodeFaultProfile::chaos());
        let mut doomed = seeded(&world, dist_config(3, &dir));
        doomed.install_faults(plan.clone());
        doomed.run(4_000).expect("interrupted run");
        drop(doomed); // process killed at the virtual-time budget

        let mut resumed =
            Coordinator::resume(world.clone(), judge(), dist_config(3, &dir)).expect("resume");
        resumed.install_faults(plan); // windows already past are skipped
        let stats = resumed.run(10_000_000).expect("resumed run");
        total_kills += stats.kills;
        assert!(
            resumed.quarantined().is_empty(),
            "seed {seed}: quarantined at poison budget 100: {stats:?}"
        );
        assert_eq!(
            sorted_page_ids(&resumed),
            sorted_page_ids(&calm),
            "seed {seed}: chaos + resume diverged from the calm page set"
        );
        assert!(
            term_rows(&resumed) == term_rows(&calm),
            "seed {seed}: chaos + resume rows read as other terms"
        );
        std::fs::remove_dir_all(&calm_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
    // Not per-seed — a plan's windows can all land after the drain —
    // but a whole sweep without a single node kill means the chaos
    // profile stopped biting.
    assert!(total_kills > 0, "no node kill fired across the seed sweep");
}

#[test]
fn repeatedly_dying_items_quarantine_instead_of_wedging() {
    let world = Arc::new(WorldConfig::small_test(34).build());
    let dir = fresh_dir("poison");
    let mut config = dist_config(3, &dir);
    // Zero tolerance: one lease expiry quarantines the item. The
    // scripted kills land inside processing spans (`NODE_PROC_MS` per
    // stored document), so their leases die with the node.
    config.poison_budget = 0;
    let mut coord = seeded(&world, config);
    let mut plan = NodeFaultPlan::empty();
    for (node, start) in [(0u64, 150u64), (1, 400), (2, 900), (0, 1_600), (1, 2_500)] {
        plan.insert_window(
            node as usize,
            NodeFaultWindow {
                start_ms: start,
                end_ms: start + 500,
                kind: NodeFaultKind::Kill,
            },
        );
    }
    coord.install_faults(plan);
    let stats = coord.run(10_000_000).expect("poison run");
    assert!(stats.kills >= 3, "kills applied: {stats:?}");
    assert!(
        stats.discarded_batches > 0,
        "no batch died with its node: {stats:?}"
    );
    let quarantined = coord.quarantined();
    assert!(
        !quarantined.is_empty(),
        "expired items must quarantine at budget 0: {stats:?}"
    );
    // The crawl terminated (run returned) and still did real work
    // around the quarantined URLs.
    assert!(stats.stored > 0, "crawl wedged: {stats:?}");
    assert_eq!(
        coord.queue_stats().quarantined,
        quarantined.len() as u64,
        "queue stats agree with the quarantine list"
    );
    std::fs::remove_dir_all(&dir).ok();
}
