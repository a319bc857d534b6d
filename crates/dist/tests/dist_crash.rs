//! Crash matrix for the distributed snapshot protocol. A kill at any
//! byte of a generation holding the lease journal, and a kill in the
//! two-phase cluster commit — at every file edge (mid node-store file,
//! between phase one and phase two, inside the manifest) and at seeded
//! points between them — must leave the previous complete generation as
//! the recovery target for the **whole cluster**. There is no state
//! where node 0's snapshot is newer than node 1's.
//!
//! The cluster matrix is seed-driven like the single-node one: set
//! `BINGO_CRASH_SEEDS=7,8,9` to sweep extra pseudo-random crash points.

use bingo_crawler::{BatchJudge, Judgment, PageContext};
use bingo_dist::coordinator::{COORD_FILE, VOCAB_FILE};
use bingo_dist::lease::{LeaseQueue, WorkItem, JOURNAL_FILE};
use bingo_dist::{Coordinator, DistConfig};
use bingo_store::durable::{self, CrashFs, GenerationWriter, StdFs, MANIFEST_FILE};
use bingo_store::DurableFs;
use bingo_textproc::{fxhash, AnalyzedDocument};
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::World;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;

fn judge() -> Arc<dyn BatchJudge> {
    Arc::new(|_: &AnalyzedDocument, _: &PageContext| Judgment {
        topic: Some(0),
        confidence: 1.0,
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bingo-dist-crash-{tag}"));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Crash seeds for the pseudo-random part of the matrix
/// (`BINGO_CRASH_SEEDS=1,2,3` to override).
fn crash_seeds() -> Vec<u64> {
    match std::env::var("BINGO_CRASH_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1, 2, 3],
    }
}

fn dist_config(nodes: usize, dir: &PathBuf) -> DistConfig {
    let mut config = DistConfig::new(nodes, dir);
    // Only explicit end-of-run commits: each `run` call commits exactly
    // one generation, which the matrix then targets.
    config.snapshot_every_acks = u64::MAX;
    // Depth beyond the world's diameter so scheduling order can't move
    // the truncation fringe between runs.
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

#[test]
fn lease_journal_crash_at_every_byte_of_its_generation_keeps_the_old_journal() {
    let dir = fresh_dir("journal");
    let item = |url: &str| WorkItem {
        url: url.into(),
        depth: 0,
        src_topic: Some(0),
    };
    // The journal reaches disk only inside a generation, as
    // `Coordinator` commits it.
    let commit = |fs: &dyn DurableFs, journal: &[u8]| {
        let mut writer = GenerationWriter::begin(fs, &dir)?;
        writer.write_file(JOURNAL_FILE, journal)?;
        writer.commit()
    };
    let mut queue = LeaseQueue::new(2, 3, 1_000);
    for i in 0..8 {
        queue.offer(i % 2, item(&format!("http://h{i}.example/p")));
    }
    let lease = queue.lease(0, 3, 100).expect("lease");
    let good = queue.journal_bytes();
    let base = commit(&StdFs, &good).expect("clean commit");

    // More activity the crashed commits will try (and fail) to persist.
    queue.ack(lease.id);
    for i in 8..14 {
        queue.offer(i % 2, item(&format!("http://h{i}.example/p")));
    }
    let dirty = queue.journal_bytes();
    assert_ne!(dirty, good, "journal must have diverged");

    // Every byte of the next generation, journal and manifest: the
    // commit must fail, the old generation must stay the newest complete
    // one with its journal intact, and that journal must still restore
    // (orphan-requeuing the in-flight lease).
    let mut budget = 0u64;
    let next = loop {
        let fs = CrashFs::with_budget(budget);
        match commit(&fs, &dirty) {
            Ok(generation) => break generation,
            Err(_) => assert!(fs.crashed(), "budget {budget}: crash must have fired"),
        }
        let newest = durable::find_newest_complete(&dir).expect("old generation");
        assert_eq!(newest.generation, base, "budget {budget}");
        let bytes = std::fs::read(newest.dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(
            bytes, good,
            "budget {budget}: old journal bytes must survive"
        );
        let restored = LeaseQueue::from_journal_bytes(&bytes).expect("load after crash");
        assert_eq!(
            restored.pending_total(),
            8,
            "budget {budget}: in-flight lease orphan-requeued"
        );
        assert_eq!(restored.leased_total(), 0, "budget {budget}");
        std::fs::remove_dir_all(durable::generation_dir(&dir, base + 1)).unwrap();
        budget += 1;
    };

    // The first budget that covers both files commits the new journal.
    assert!(
        budget > dirty.len() as u64,
        "the journal write must be swept"
    );
    let newest = durable::find_newest_complete(&dir).expect("new generation");
    assert_eq!(newest.generation, next);
    assert_eq!(std::fs::read(newest.dir.join(JOURNAL_FILE)).unwrap(), dirty);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn distributed_commit_crash_at_every_boundary_rolls_back_all_nodes() {
    let nodes = 3;
    let world = Arc::new(WorldConfig::small_test(21).build());
    let dir = fresh_dir("matrix");

    // Base cut: a short run leaves work pending and commits generation
    // A on its way out.
    let mut coord = seeded(&world, dist_config(nodes, &dir));
    coord.run(600).expect("base run");
    let base_stats = coord.stats().clone();
    assert!(base_stats.stored > 0, "base cut too small to test");
    drop(coord);
    let base = durable::find_newest_complete(&dir).expect("base generation");
    let base_gen = base.generation;
    let base_files: BTreeMap<String, Vec<u8>> = base
        .manifest
        .files
        .iter()
        .map(|f| {
            (
                f.name.clone(),
                std::fs::read(base.dir.join(&f.name)).unwrap(),
            )
        })
        .collect();
    for k in 0..nodes {
        assert!(
            base_files.contains_key(&format!("node-{k}/store.jsonl")),
            "generation must cover node {k}"
        );
    }
    assert!(base_files.contains_key(JOURNAL_FILE));
    assert!(base_files.contains_key(COORD_FILE));
    assert!(base_files.contains_key(VOCAB_FILE));

    // One clean continuation measures the file sizes of the *next*
    // commit, in write order, for exact boundary budgets...
    let mut probe = Coordinator::resume(world.clone(), judge(), dist_config(nodes, &dir))
        .expect("probe resume");
    assert_eq!(probe.stats(), &base_stats, "resume restores the base cut");
    probe.run(600).expect("probe continuation");
    drop(probe);
    let next = durable::find_newest_complete(&dir).expect("probe generation");
    assert!(next.generation > base_gen, "probe must commit a newer cut");
    let mut write_order: Vec<String> = (0..nodes)
        .map(|k| format!("node-{k}/store.jsonl"))
        .collect();
    write_order.push(JOURNAL_FILE.to_string());
    write_order.push(COORD_FILE.to_string());
    write_order.push(VOCAB_FILE.to_string());
    write_order.push(MANIFEST_FILE.to_string());
    let sizes: Vec<u64> = write_order
        .iter()
        .map(|name| std::fs::metadata(next.dir.join(name)).unwrap().len())
        .collect();
    let total: u64 = sizes.iter().sum();
    // ...then rolls back off the disk so generation A is newest again.
    std::fs::remove_dir_all(&next.dir).unwrap();
    assert_eq!(
        durable::find_newest_complete(&dir).map(|g| g.generation),
        Some(base_gen)
    );

    // Exact file edges — first byte of each file, the gap between phase
    // one (node stores) and phase two (journal, coordinator state and
    // dictionary), the
    // last manifest byte — plus a seed-driven sweep in between.
    let mut budgets: Vec<u64> = vec![0, 1];
    let mut cum = 0u64;
    for len in &sizes {
        cum += len;
        budgets.extend([cum.saturating_sub(1), cum, cum + 1]);
    }
    for seed in crash_seeds() {
        for i in 0u64..4 {
            budgets.push(fxhash::hash_one(&(seed, i)) % total);
        }
    }
    budgets.sort_unstable();
    budgets.dedup();
    budgets.retain(|b| *b < total);

    for budget in budgets {
        let mut doomed = Coordinator::resume(world.clone(), judge(), dist_config(nodes, &dir))
            .unwrap_or_else(|e| panic!("budget {budget}: resume failed: {e}"));
        let fs = Arc::new(CrashFs::with_budget(budget));
        doomed.set_fs(fs.clone());
        assert!(
            doomed.run(600).is_err(),
            "budget {budget}: the commit must report the crash"
        );
        assert!(fs.crashed(), "budget {budget}: crash must have fired");
        drop(doomed);

        // The whole cluster rolls back to generation A: same newest
        // complete generation, every file byte-identical — including
        // budgets where several node stores committed cleanly before
        // the crash.
        let newest = durable::find_newest_complete(&dir)
            .unwrap_or_else(|| panic!("budget {budget}: no complete generation left"));
        assert_eq!(
            newest.generation, base_gen,
            "budget {budget}: a torn commit must not become visible"
        );
        for (name, bytes) in &base_files {
            assert_eq!(
                &std::fs::read(newest.dir.join(name)).unwrap(),
                bytes,
                "budget {budget}: {name} changed under a torn commit"
            );
        }
        let recovered = Coordinator::resume(world.clone(), judge(), dist_config(nodes, &dir))
            .unwrap_or_else(|e| panic!("budget {budget}: post-crash resume failed: {e}"));
        assert_eq!(
            recovered.stats(),
            &base_stats,
            "budget {budget}: recovery must land on the base cut"
        );
    }

    // The recovered cluster is live: a clean continuation drains the
    // crawl and converges to the page set of an uninterrupted run.
    let mut resumed = Coordinator::resume(world.clone(), judge(), dist_config(nodes, &dir))
        .expect("final resume");
    let final_stats = resumed.run(10_000_000).expect("final continuation");
    assert!(
        final_stats.stored > base_stats.stored,
        "no progress after recovery"
    );
    assert!(resumed.quarantined().is_empty());

    let ref_dir = fresh_dir("matrix-ref");
    let mut reference = seeded(&world, dist_config(nodes, &ref_dir));
    reference.run(10_000_000).expect("reference run");
    assert_eq!(
        sorted_page_ids(&resumed),
        sorted_page_ids(&reference),
        "crash-recovered crawl must converge to the uninterrupted page set"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}
