//! `scale_durable` — an accept-all crawl of a paged world into the
//! segmented store, checkpointed from outside and recovered.
//!
//! Why: it bypasses `ml`, `core` and `search`. The world has twice the
//! hosts the paged cache holds, the frontier spills and the store seals
//! a score of segments, so `webworld`, `textproc`, the `crawler`
//! frontier/dedup and `store` own the time — and it uses `store` three
//! ways at once: append (bulk-load), full scan (`write_snapshot` per
//! generation, O(corpus) today) and full read-back (recovery).

use super::{accept_all, secs, Ctx, Round};
use crate::metrics::Check;
use crate::replay::{self, ReplaySpec};
use crate::sys::{self, Scratch};
use crate::trace::{totals_by_name, Tracer};
use bingo_crawler::checkpoint::{checkpoint_bytes, load_checkpoint, CRAWLER_FILE, STORE_FILE};
use bingo_crawler::{CrawlConfig, Crawler, SpillConfig, StepOutcome};
use bingo_store::durable::{find_newest_complete, DurableFs, StdFs};
use bingo_store::{DocumentStore, SegmentStoreConfig};
use bingo_textproc::Vocabulary;
use bingo_webworld::{PagedConfig, World};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Sizes of one round: the `scale` gate scenario's shape at 25k pages
/// (about 20k stored), every cap shrunk with it so the same mechanisms
/// engage — half the hosts fit the paged cache, the frontier spills past
/// 128 resident entries, the store seals ~20 segments, and a checkpoint
/// is written every 5,000 stored pages.
struct Sizes {
    hosts: u32,
    pages_per_host: u32,
    hot_cap: usize,
    seal_every: usize,
    frontier_hot_cap: usize,
    incoming_cap: usize,
    checkpoint_every: u64,
    /// Pages stored before the clock starts: the crawl from one seed
    /// ramps up through a near-empty frontier and a cold paged cache,
    /// which is lazy set-up, so it is reported as set-up.
    warm_up_pages: u64,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            hosts: 50,
            pages_per_host: 50,
            hot_cap: 25,
            seal_every: 128,
            frontier_hot_cap: 32,
            incoming_cap: 40_000,
            checkpoint_every: 500,
            warm_up_pages: 100,
        }
    } else {
        Sizes {
            hosts: 500,
            pages_per_host: 50,
            hot_cap: 250,
            seal_every: 1_024,
            frontier_hot_cap: 128,
            incoming_cap: 400_000,
            checkpoint_every: 5_000,
            warm_up_pages: 1_000,
        }
    }
}

/// `StdFs` that counts the durable writes it is asked for.
#[derive(Default)]
struct CountingFs {
    writes: AtomicU64,
}

impl DurableFs for CountingFs {
    fn atomic_write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        self.writes.fetch_add(1, Ordering::Relaxed);
        StdFs.atomic_write(path, bytes)
    }

    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        StdFs.create_dir_all(path)
    }
}

fn segmented(dir: &Path, seal_every: usize) -> DocumentStore {
    DocumentStore::segmented_cfg(
        dir,
        SegmentStoreConfig {
            seal_every,
            sparse: false,
            compaction: None,
        },
    )
    .expect("segment directory opens")
}

/// Run one round.
pub fn round(ctx: &Ctx, tracer: &mut Tracer) -> Round {
    let sz = sizes(ctx.quick);
    let mut r = Round::default();

    // Set-up: lazy world, scratch directories, empty segmented store.
    let t = Instant::now();
    let world = tracer.span("webworld.build", |_| {
        Arc::new(World::paged(PagedConfig {
            seed: ctx.seed,
            hosts: sz.hosts,
            pages_per_host: sz.pages_per_host,
            hot_cap: sz.hot_cap,
        }))
    });
    let scratch = Scratch::create(&ctx.out_dir).expect("scratch directory");
    let session_dir = scratch.path().join("session");
    let segment_dir = scratch.path().join("segments");
    let store = segmented(&segment_dir, sz.seal_every);
    let config = CrawlConfig {
        incoming_queue_cap: sz.incoming_cap,
        frontier_spill_dir: Some(scratch.path().join("frontier")),
        frontier_hot_cap: sz.frontier_hot_cap,
        ..CrawlConfig::default().harvesting()
    };
    let mut crawler = Crawler::new(world.clone(), config.clone(), store.clone());
    crawler.add_seed(&world.url_of(0), Some(0));
    let mut judge = accept_all;
    let mut vocab = Vocabulary::new();
    let mut stored_ids: Vec<u64> = Vec::new();
    while crawler.stats().stored_pages < sz.warm_up_pages {
        match crawler.step(&mut judge, &mut vocab) {
            StepOutcome::Stored { page_id, .. } => stored_ids.push(page_id),
            StepOutcome::Skipped(_) => {}
            StepOutcome::FrontierEmpty => break,
        }
    }
    let warm_up_stored = crawler.stats().stored_pages;
    r.setup_s = secs(t);

    // Timed: crawl to frontier exhaustion; the driver saves a session
    // generation each time the stored count crosses the cadence; final
    // seal. A page counts once it sits in a sealed segment.
    let fs = CountingFs::default();
    let mut checkpoints: Vec<(f64, u64)> = Vec::new(); // (wall s, documents)
    let (mut saves_failed, mut spilled_peak) = (0u64, 0usize);
    let cpu0 = sys::process_cpu_s();
    let t = Instant::now();
    loop {
        match tracer.span("crawler.step", |_| crawler.step(&mut judge, &mut vocab)) {
            StepOutcome::FrontierEmpty => break,
            StepOutcome::Stored { page_id, .. } => {
                stored_ids.push(page_id);
                if crawler
                    .stats()
                    .stored_pages
                    .is_multiple_of(sz.checkpoint_every)
                {
                    let t = Instant::now();
                    let saved = tracer.span("crawler.save_session", |_| {
                        crawler.save_session_with(&fs, &session_dir)
                    });
                    saves_failed += u64::from(saved.is_err());
                    checkpoints.push((secs(t), store.document_count() as u64));
                }
            }
            StepOutcome::Skipped(_) => {}
        }
        if tracer.enabled() {
            spilled_peak = spilled_peak.max(crawler.frontier_spilled_len());
        }
    }
    tracer
        .span("store.seal_now", |_| store.seal_now())
        .expect("final seal");
    let timed_s = secs(t);
    let cpu_s = sys::process_cpu_s() - cpu0;
    r.rss_peak_mb = sys::rss_peak_mb();
    // Paged host blocks generated per host: 1 when no block was ever
    // evicted and generated again.
    let block_regen_ratio =
        world.paged_blocks_generated() as f64 / world.host_count().max(1) as f64;

    let stats = crawler.stats().clone();
    let stored = stats.stored_pages;
    let checkpoint_total_s: f64 = checkpoints.iter().map(|c| c.0).sum();
    let (checkpoint_s, docs_at_last) = checkpoints.last().copied().unwrap_or((0.0, 0));
    let timed_pages = stored - warm_up_stored;
    r.timed_s = timed_s;
    r.pages_per_s = timed_pages as f64 / timed_s;
    r.cpu_s_per_kpage = cpu_s * 1000.0 / timed_pages.max(1) as f64;
    r.attempted = stats.visited_urls + checkpoints.len() as u64;
    r.failed = saves_failed;
    r.counts = vec![
        ("visited_urls", stats.visited_urls),
        ("stored_pages", stored),
        ("segments", store.segment_count() as u64),
        ("checkpoints", checkpoints.len() as u64),
    ];
    r.checks = vec![
        Check::eq(
            "scale_durable: sealed documents = stored pages",
            store.sealed_documents() as u64,
            stored,
        ),
        Check::that(
            "scale_durable: at least two checkpoints were written",
            checkpoints.len() >= 2,
        ),
    ];
    let generation_dir = find_newest_complete(&session_dir).map(|g| g.dir);
    let generation_bytes = generation_dir.as_deref().map_or(0, sys::dir_bytes);
    let segment_bytes = sys::dir_bytes(&segment_dir);
    r.facts.insert("stored_pages", stored as f64);
    r.facts.insert(
        "crawl_pages_per_s",
        timed_pages as f64 / (timed_s - checkpoint_total_s).max(1e-9),
    );
    r.facts.insert("checkpoint_s", checkpoint_s);
    r.facts.insert(
        "disk_bytes_per_page",
        (segment_bytes + generation_bytes) as f64 / stored.max(1) as f64,
    );

    // Replays that need the live crawler, before it is dropped.
    let mut replayed_save_s = 0.0;
    if tracer.enabled() {
        let t = Instant::now();
        let mut snapshot = Vec::new();
        bingo_store::persist::write_snapshot(&store, &mut snapshot).expect("snapshot encodes");
        let snapshot_write_s = secs(t);
        let t = Instant::now();
        std::hint::black_box(checkpoint_bytes(&crawler.checkpoint()).expect("checkpoint encodes"));
        let encode_s = secs(t);
        r.facts.insert("store.snapshot_write_s", snapshot_write_s);
        r.facts.insert("crawler.checkpoint_encode_s", encode_s);
        // A generation's cost is linear in the documents it holds.
        replayed_save_s = checkpoints
            .iter()
            .map(|c| (snapshot_write_s + encode_s) * c.1 as f64 / stored.max(1) as f64)
            .sum();
    }
    drop(crawler);

    // Recovery: resume the newest generation and take one step. Part of
    // the detail set: the timed run's bounded metrics do not include it.
    if ctx.detail || tracer.enabled() {
        r.attempted += 1;
        let t = Instant::now();
        let resumed = tracer.span("crawler.resume_session", |_| {
            Crawler::resume_session(world.clone(), config.clone(), &session_dir)
        });
        match resumed {
            Ok(mut resumed) => {
                let resumed_docs = resumed.store().document_count() as u64;
                tracer.span("crawler.step", |_| resumed.step(&mut judge, &mut vocab));
                r.facts.insert("recovery_s", secs(t));
                r.checks.push(Check::eq(
                    "scale_durable: resumed store holds the last generation's documents",
                    resumed_docs,
                    docs_at_last,
                ));
            }
            Err(e) => {
                r.failed += 1;
                r.checks.push(Check::that(
                    &format!("scale_durable: resume failed: {e}"),
                    false,
                ));
            }
        }
    }

    // Read-back: 100 seeded ids by id and by URL.
    if ctx.verify {
        let step = (stored_ids.len() / 100).max(1);
        let offset = (ctx.seed as usize) % step;
        let readable = stored_ids
            .iter()
            .skip(offset)
            .step_by(step)
            .take(100)
            .filter(|&&id| {
                store.document(id).is_some_and(|row| {
                    row.id == id
                        && row.url == world.url_of(id)
                        && store
                            .document_by_url(&row.url)
                            .is_some_and(|r2| r2.id == id)
                })
            })
            .count();
        r.checks.push(Check::eq(
            "scale_durable: seeded ids read back by id and URL",
            readable,
            stored_ids.len().min(100),
        ));
    }

    if tracer.enabled() {
        let totals = totals_by_name(tracer.spans());
        let (step_s, save_s, resume_s) = (
            totals.total_s("crawler.step"),
            totals.total_s("crawler.save_session"),
            totals.total_s("crawler.resume_session"),
        );

        // Recovery, layer by layer, on the generation just resumed.
        let mut restore_replayed_s = 0.0;
        if let Some(dir) = &generation_dir {
            let t = Instant::now();
            let loaded = bingo_store::persist::load(dir.join(STORE_FILE)).expect("snapshot loads");
            let load_s = secs(t);
            let t = Instant::now();
            let cp = load_checkpoint(dir.join(CRAWLER_FILE)).expect("checkpoint loads");
            Crawler::new(world.clone(), config.clone(), loaded).restore_checkpoint(cp);
            let restore_s = secs(t);
            r.facts.insert("store.snapshot_load_s", load_s);
            r.facts.insert("crawler.restore_s", restore_s);
            restore_replayed_s = load_s + restore_s;
        }

        let replay_dir = scratch.path().join("replay");
        let outcome = replay::replay_stages(
            &ReplaySpec {
                world: &world,
                store: &store,
                judge: None,
                seed_vocab: None,
                fresh_store: &|tag| segmented(&replay_dir.join(tag), sz.seal_every),
                frontier: Some((
                    sz.incoming_cap,
                    Some(SpillConfig {
                        dir: replay_dir.join("frontier"),
                        hot_cap: sz.frontier_hot_cap,
                    }),
                )),
                threads: ctx.threads,
            },
            &mut r.facts,
        );
        r.checks.extend([
            Check::eq(
                "scale_durable: replay fetched every stored page",
                outcome.fetched_ok,
                stored,
            ),
            Check::eq(
                "scale_durable: replay loaded every stored row",
                outcome.loaded,
                stored,
            ),
            Check::eq(
                "scale_durable: replay link rows = store link rows",
                outcome.link_rows,
                store.link_count() as u64,
            ),
        ]);

        let top_s = step_s + save_s + resume_s + totals.total_s("store.seal_now");
        let attributed = outcome.stages_s.min(step_s)
            + replayed_save_s.min(save_s)
            + restore_replayed_s.min(resume_s);
        r.facts
            .insert("webworld.build_s", totals.total_s("webworld.build"));
        r.facts
            .insert("webworld.block_regen_ratio", block_regen_ratio);
        r.facts.insert("crawler.step_s", step_s);
        r.facts
            .insert("crawler.steps", totals.count("crawler.step"));
        r.facts
            .insert("crawler.policy_s", (step_s - outcome.stages_s).max(0.0));
        // The crawl's own peak, not the replay frontier's.
        r.facts
            .insert("crawler.frontier_spilled_peak", spilled_peak as f64);
        r.facts
            .insert("store.segments", store.segment_count() as f64);
        r.facts.insert("store.segment_bytes", segment_bytes as f64);
        r.facts
            .insert("store.checkpoint_bytes", generation_bytes as f64);
        r.facts.insert(
            "store.durable_writes",
            fs.writes.load(Ordering::Relaxed) as f64,
        );
        r.facts
            .insert("trace.coverage", attributed / top_s.max(1e-9));
        r.spans.push(("main", tracer.take()));
    }
    r
}
