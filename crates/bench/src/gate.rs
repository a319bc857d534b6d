//! The deterministic bench-regression gate.
//!
//! Seven fixed macro scenarios run with a scenario-wide telemetry
//! registry:
//!
//! * **crawl** — a seeded portal crawl (learning → retrain → harvesting)
//!   followed by an index build and a fixed query set,
//! * **classify** — a three-topic training + held-out evaluation
//!   measuring macro-F1, plus a digest of every judgment's topic and
//!   confidence bits (`judgment_digest`, gated exactly: classification
//!   speed work must not move a single bit),
//! * **pipeline** — a fixed URL set pushed through the staged batch
//!   pipeline (fetch → convert → analyze → classify → bulk-load) by the
//!   real-thread executor on one thread, classification on; gates
//!   document/link/classification counts tightly,
//! * **recovery** — crash-consistent checkpointing: an injected
//!   mid-checkpoint crash, rollback to the newest complete generation,
//!   and a resumed crawl that must match an uninterrupted reference,
//! * **serve** — the portal serving layer: virtual-clock load-generator
//!   ticks interleave with crawler steps against the snapshot-swap
//!   [`bingo_search::LiveIndex`], and the incrementally committed index
//!   must answer a fixed query prefix identically to a batch rebuild,
//! * **scale** — a memory-bounded crawl of a lazily paged synthetic web
//!   (one million pages in full mode) through the disk-backed segmented
//!   store and a resident frontier; coverage, harvest and segment
//!   counts gate tightly and the crawl's peak RSS growth must stay
//!   inside a fixed per-mode budget (`rss_within_budget`); the crawl
//!   checkpoints, and the resume of its newest generation runs inside
//!   the measured window,
//! * **dist** — the distributed coordinator/worker crawl: a calm
//!   N-node run, then the same crawl under a seeded node-kill fault
//!   plan interrupted by a whole-process kill and resumed from the
//!   newest crash-consistent multi-node generation. Gates convergence
//!   (chaos page set == calm page set, exact), the scripted
//!   kill/restart counts, the lease-requeue coverage, harvest-ratio
//!   drift, and the size of the resume's work (`replayed`, `snapshots`).
//!
//! The gate checks *behaviour*; speed has one home, the standalone
//! `benchmark/` crate. Nothing here reads a clock, so a scenario report
//! is a pure function of the seed. Each scenario runs **twice**: the
//! metrics snapshot, the event log and the report of both runs must be
//! identical, or the gate fails — that is the executable form of the
//! determinism contract in `crates/obs`. Reports are then compared
//! against checked-in baselines (`BENCH_<scenario>.json`) with
//! per-metric tolerances; the values cannot flake, they only change
//! when the code changes behaviour.

use crate::held_out;
use crate::portal::{PortalExperimentConfig, PortalRun};
use bingo_core::{BingoEngine, EngineConfig, EngineTelemetry, TopicId, TopicTree};
use bingo_crawler::checkpoint::STORE_FILE;
use bingo_crawler::{
    run_pipeline, BatchJudge, CrawlConfig, CrawlTelemetry, Crawler, Judgment, PageContext,
    PipelineOptions, StepOutcome,
};
use bingo_dist::{Coordinator, DistConfig, DistTelemetry};
use bingo_obs::{EventLog, Registry};
use bingo_search::index::analyze_query_with;
use bingo_search::{
    InvertedIndex, LiveIndex, LiveIndexObs, QueryOptions, SearchEngine, SearchMetrics,
};
use bingo_serve::{PortalRequest, PortalService, QueryMix, ServeMetrics, VirtualLoadGen};
use bingo_store::durable::{self, CrashFs};
use bingo_store::DocumentStore;
use bingo_textproc::{AnalyzedDocument, SharedVocabulary, TermLookup, Vocabulary};
use bingo_webworld::gen::{TopicConfig, WorldConfig};
use bingo_webworld::{lexicon, HostBehavior, NodeFaultPlan, NodeFaultProfile, World};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// World seed shared by every scenario (same-seed runs must agree).
pub const GATE_SEED: u64 = 4242;

/// Gate mode: the full scenario sizes or the fast CI smoke sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// Full sizes — the numbers the baselines are recorded at.
    Full,
    /// Reduced sizes for quick CI smoke runs.
    Smoke,
}

impl GateMode {
    /// Section key in the baseline files.
    pub fn key(self) -> &'static str {
        match self {
            GateMode::Full => "full",
            GateMode::Smoke => "smoke",
        }
    }
}

/// Byte-comparable telemetry of one scenario run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeterminismEvidence {
    /// Metrics snapshot, pretty JSON.
    pub snapshot_json: String,
    /// Event log, JSONL.
    pub events_jsonl: String,
}

impl DeterminismEvidence {
    fn capture(registry: &Registry, events: &EventLog) -> Self {
        DeterminismEvidence {
            snapshot_json: registry.snapshot().to_json(),
            events_jsonl: events.to_jsonl(),
        }
    }
}

/// One scenario run: the metrics report plus its determinism evidence.
#[derive(Debug, Clone)]
pub struct ScenarioRun {
    /// Metric values for baseline comparison.
    pub report: Value,
    /// Telemetry that must replay byte-identically.
    pub evidence: DeterminismEvidence,
}

/// A scratch directory of one scenario leg, removed on drop. The
/// path carries the process id, so two gate processes on one machine
/// (or `cargo test -p bingo-bench` beside `bench_gate --smoke`) never
/// delete each other's live session.
struct ScratchDir(PathBuf);

impl std::ops::Deref for ScratchDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn scratch_path(name: &str) -> PathBuf {
    // The pid is zero-padded so the path has one length per machine: a
    // segmented session records its segment directory, and the size of
    // that record reaches the `crawl.checkpoint.*` telemetry.
    std::env::temp_dir().join(format!("bingo-bench-{:010}-{name}", std::process::id()))
}

/// Create `scratch_path(name)` empty.
fn scratch_dir(name: &str) -> ScratchDir {
    let dir = scratch_path(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("gate scratch dir");
    ScratchDir(dir)
}

/// The trained engine the classify and pipeline scenarios share: one
/// engine topic per synthetic true topic 0/1/2 with `train_n` training
/// pages each, plus the OTHERS class. `telemetry` is attached before the
/// first training page is analyzed.
fn three_topic_engine(
    world: &World,
    train_n: usize,
    telemetry: EngineTelemetry,
) -> (BingoEngine, Vec<(TopicId, u32)>) {
    let mut engine = BingoEngine::new(EngineConfig::default());
    engine.set_telemetry(telemetry);
    let names = ["database research", "data mining", "web ir"];
    let mut topics: Vec<(TopicId, u32)> = Vec::new();
    for (true_topic, name) in names.iter().enumerate() {
        let t = engine.add_topic(TopicTree::ROOT, name);
        topics.push((t, true_topic as u32));
    }
    for &(topic, true_topic) in &topics {
        for id in held_out(world, true_topic, 0, train_n) {
            engine
                .add_training_url(world, topic, &world.url_of(id))
                .expect("training page");
        }
    }
    crate::populate_others(&mut engine, world, &[3, 4], 20);
    engine.train().expect("training");
    (engine, topics)
}

/// Run the crawl scenario once: the §5.2 protocol of
/// [`crate::portal::run`] at gate size, with both snapshots at the end
/// of the harvest.
pub fn run_crawl_scenario(mode: GateMode) -> ScenarioRun {
    let (authors, noise_scale, learning_ms, harvest_ms) = match mode {
        GateMode::Full => (300usize, 2usize, 60_000u64, 400_000u64),
        GateMode::Smoke => (120, 1, 30_000, 150_000),
    };
    let registry = Arc::new(Registry::new());
    let events = Arc::new(EventLog::default());
    let cfg = PortalExperimentConfig {
        seed: GATE_SEED,
        authors,
        noise_scale,
        t1_ms: harvest_ms,
        t2_ms: harvest_ms,
        learning_ms,
        n_others: 30,
        retrain_every: 400,
        ..PortalExperimentConfig::default()
    };
    let PortalRun {
        engine, crawler, ..
    } = crate::portal::run_observed(&cfg, Some((&registry, &events)));

    // Index build + fixed query set.
    let search_metrics = SearchMetrics::new(registry.clone());
    let search = SearchEngine::build_instrumented(crawler.store(), Some(search_metrics));
    let mut query_hits = 0u64;
    for q in [
        "database transaction recovery",
        "data mining",
        "index structures",
    ] {
        query_hits += search
            .query(&engine.vocab, q, &QueryOptions::default())
            .len() as u64;
    }

    let stats = crawler.stats().clone();
    let virtual_ms = crawler.clock_ms().max(1);
    let harvest_ratio = stats.stored_pages as f64 / stats.visited_urls.max(1) as f64;
    let report = json!({
        "scenario": "crawl",
        "virtual_ms": virtual_ms,
        "visited_urls": stats.visited_urls,
        "stored_pages": stats.stored_pages,
        "positively_classified": stats.positively_classified,
        "harvest_ratio": harvest_ratio,
        "urls_per_virtual_sec": stats.visited_urls as f64 * 1000.0 / virtual_ms as f64,
        "stages": {
            "learning": { "virtual_ms": learning_ms },
            "harvest": { "virtual_ms": virtual_ms.saturating_sub(learning_ms) },
            "queries": { "hits": query_hits },
        },
    });
    ScenarioRun {
        report,
        evidence: DeterminismEvidence::capture(&registry, &events),
    }
}

/// 64-bit FNV-1a, continued from `hash` over `bytes`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Run the classify scenario once: three topics, held-out evaluation,
/// macro-F1, and a digest over `(topic, confidence bits)` of every
/// evaluated page in order.
pub fn run_classify_scenario(mode: GateMode) -> ScenarioRun {
    let (train_n, eval_n) = match mode {
        GateMode::Full => (12usize, 60usize),
        GateMode::Smoke => (8, 25),
    };
    let world = WorldConfig::portal(GATE_SEED, 200, 1).build();
    let registry = Arc::new(Registry::new());
    let events = Arc::new(EventLog::default());
    let (mut engine, topics) = three_topic_engine(
        &world,
        train_n,
        EngineTelemetry::new(registry.clone(), events.clone()),
    );

    // Held-out evaluation: macro-F1 over the three topics.
    let mut per_class: Vec<(usize, usize, usize)> = vec![(0, 0, 0); topics.len()]; // (tp, fp, fn)
    let mut evaluated = 0usize;
    let mut digest = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
    for (class_idx, &(_, true_topic)) in topics.iter().enumerate() {
        for id in held_out(&world, true_topic, train_n, eval_n) {
            let Ok((_, _, features)) = engine.analyze_url(&world, &world.url_of(id)) else {
                continue;
            };
            evaluated += 1;
            let judgment = engine.classify(&features);
            digest = fnv1a(digest, &judgment.topic.unwrap_or(u32::MAX).to_le_bytes());
            digest = fnv1a(digest, &judgment.confidence.to_bits().to_le_bytes());
            let predicted = judgment
                .topic
                .and_then(|t| topics.iter().position(|&(tid, _)| tid.0 == t));
            match predicted {
                Some(p) if p == class_idx => per_class[class_idx].0 += 1,
                Some(p) => {
                    per_class[p].1 += 1;
                    per_class[class_idx].2 += 1;
                }
                None => per_class[class_idx].2 += 1,
            }
        }
    }

    let f1s: Vec<f64> = per_class
        .iter()
        .map(|&(tp, fp, fn_)| {
            let p = tp as f64 / (tp + fp).max(1) as f64;
            let r = tp as f64 / (tp + fn_).max(1) as f64;
            if p + r > 0.0 {
                2.0 * p * r / (p + r)
            } else {
                0.0
            }
        })
        .collect();
    let macro_f1 = f1s.iter().sum::<f64>() / f1s.len().max(1) as f64;
    let report = json!({
        "scenario": "classify",
        "evaluated": evaluated,
        "macro_f1": macro_f1,
        "per_class_f1": f1s,
        // Xor-folded to 32 bits so the JSON number is exact.
        "judgment_digest": (digest >> 32) ^ (digest & 0xffff_ffff),
    });
    ScenarioRun {
        report,
        evidence: DeterminismEvidence::capture(&registry, &events),
    }
}

/// Run the pipeline scenario once: a fixed healthy URL set pushed
/// through the staged batch pipeline by the real-thread executor on one
/// thread, with the engine's batch classifier judging every document.
/// The document/classification/link-row counts gate tightly (they can
/// only change when pipeline behavior changes). That N threads store
/// the same documents is asserted by
/// `threaded::tests::flat_run_stores_all_unique_healthy_urls` and
/// `tests/equivalence.rs`; what N threads buy is `pipeline_mt` in
/// `benchmark/`.
pub fn run_pipeline_scenario(mode: GateMode) -> ScenarioRun {
    let (authors, noise_scale, train_n, urls_n) = match mode {
        GateMode::Full => (300usize, 2usize, 12usize, 800usize),
        GateMode::Smoke => (120, 1, 8, 300),
    };
    let world = Arc::new(WorldConfig::portal(GATE_SEED, authors, noise_scale).build());
    let (mut engine, _) = three_topic_engine(&world, train_n, EngineTelemetry::default());

    // Fixed work list: the first N pages that fetch cleanly (no
    // truncation, redirects or scripted host faults).
    let urls: Vec<(String, Option<u32>)> = (0..world.page_count() as u64)
        .filter(|&id| {
            let page = world.page(id);
            page.size_hint.is_none()
                && page.redirect_to.is_none()
                && world.host(page.host).behavior == HostBehavior::Normal
        })
        .take(urls_n)
        .map(|id| (world.url_of(id), None))
        .collect();
    let url_count = urls.len();

    let registry = Arc::new(Registry::new());
    let events = Arc::new(EventLog::default());
    engine.set_telemetry(EngineTelemetry::new(registry.clone(), events.clone()));
    let telemetry = CrawlTelemetry::new(registry.clone(), events.clone());
    let store = DocumentStore::new();
    let vocab = SharedVocabulary::seeded(&engine.vocab);
    let judge = engine.batch_classifier();
    let run = run_pipeline(
        Arc::clone(&world),
        store.clone(),
        urls,
        &vocab,
        &judge,
        &telemetry,
        &PipelineOptions::flat(1, 64),
    );

    let report = json!({
        "scenario": "pipeline",
        "urls": url_count,
        "documents": run.documents,
        "positively_classified": run.stats.positively_classified,
        "link_rows": store.link_count(),
    });
    ScenarioRun {
        report,
        evidence: DeterminismEvidence::capture(&registry, &events),
    }
}

/// Run the recovery scenario once: crash-consistent checkpointing end
/// to end. A chaos-world crawl checkpoints periodically; the process
/// "dies" partway through a checkpoint write (injected byte-budget
/// crash); recovery rolls back to the newest complete generation, and
/// the resumed crawl finishes the same virtual budget as an
/// uninterrupted reference run. Gated: post-resume harvest ratio and
/// stored-page count. How long the rollback takes is `recovery_s` of
/// the `scale_durable` workload in `benchmark/`.
pub fn run_recovery_scenario(mode: GateMode) -> ScenarioRun {
    let (budget_ms, ckpt_every) = match mode {
        GateMode::Full => (140_000u64, 25u64),
        GateMode::Smoke => (60_000, 10),
    };
    let accept = |_: &AnalyzedDocument, _: &PageContext| Judgment {
        topic: Some(0),
        confidence: 1.0,
    };
    let world = Arc::new(WorldConfig::chaos(GATE_SEED).build());
    let base_config = CrawlConfig {
        max_depth: 0,
        ..CrawlConfig::default()
    };

    // Uninterrupted reference run.
    let mut reference = Crawler::new(world.clone(), base_config.clone(), DocumentStore::new());
    reference.add_seed(&world.url_of(1), Some(0));
    {
        let mut judge = accept;
        let mut vocab = Vocabulary::new();
        reference.run_until(budget_ms, &mut judge, &mut vocab);
    }
    let ref_stats = reference.stats().clone();
    let ref_ratio = ref_stats.stored_pages as f64 / ref_stats.visited_urls.max(1) as f64;

    // Doomed run: automatic checkpoints, killed at half the reference
    // harvest partway through its next checkpoint write.
    let dir = scratch_dir(&format!("recovery-{}", mode.key()));
    let ckpt_config = CrawlConfig {
        checkpoint_every_docs: ckpt_every,
        checkpoint_dir: Some(dir.to_path_buf()),
        ..base_config.clone()
    };
    {
        let mut doomed = Crawler::new(world.clone(), ckpt_config, DocumentStore::new());
        doomed.add_seed(&world.url_of(1), Some(0));
        let mut judge = accept;
        let mut vocab = Vocabulary::new();
        while doomed.stats().stored_pages < ref_stats.stored_pages / 2 {
            if doomed.step(&mut judge, &mut vocab) == StepOutcome::FrontierEmpty {
                break;
            }
        }
        assert!(
            doomed.stats().checkpoints_written > 0,
            "recovery scenario wrote no checkpoint before the kill"
        );
        let fs = CrashFs::with_budget(1024);
        let _ = doomed.save_session_with(&fs, &*dir); // dies mid-write
    }

    // Recovery: roll back to the newest complete generation.
    let resume_config = CrawlConfig {
        checkpoint_every_docs: 0,
        checkpoint_dir: None,
        ..base_config
    };
    let mut resumed = Crawler::resume_session(world.clone(), resume_config, &*dir)
        .expect("recovery from crashed checkpoint");
    let stored_recovered = resumed.stats().stored_pages;

    // The resumed leg finishes the budget under the scenario registry:
    // its telemetry is the determinism evidence.
    let registry = Arc::new(Registry::new());
    let events = Arc::new(EventLog::default());
    resumed.set_telemetry(CrawlTelemetry::new(registry.clone(), events.clone()));
    {
        let mut judge = accept;
        let mut vocab = Vocabulary::new();
        resumed.run_until(budget_ms, &mut judge, &mut vocab);
    }
    let stats = resumed.stats().clone();
    let harvest_ratio = stats.stored_pages as f64 / stats.visited_urls.max(1) as f64;
    let ratio_drift = (harvest_ratio - ref_ratio).abs() / ref_ratio.max(1e-9);

    let report = json!({
        "scenario": "recovery",
        "stored_reference": ref_stats.stored_pages,
        "stored_recovered": stored_recovered,
        "stored_resumed": stats.stored_pages,
        "harvest_ratio": harvest_ratio,
        "harvest_ratio_reference": ref_ratio,
        "ratio_drift": ratio_drift,
    });
    ScenarioRun {
        report,
        evidence: DeterminismEvidence::capture(&registry, &events),
    }
}

/// The fixed lexicon pools the serve workload draws query phrases from.
const SERVE_POOLS: &[&[&str]] = &[
    lexicon::DATABASE_RESEARCH,
    lexicon::DATA_MINING,
    lexicon::WEB_IR,
    lexicon::COMMON,
];

/// Run the serve scenario once: the portal serving layer under live
/// crawl writes.
///
/// A discrete-event crawl feeds the snapshot-swap [`LiveIndex`] through
/// the store tee while a [`VirtualLoadGen`] issues closed-loop portal
/// requests on the *virtual* clock between crawler steps. Request/hit
/// counts and the serve/index telemetry are the determinism evidence;
/// `norm_postings` is the work every commit's norm recomputation did,
/// summed (each commit visits every posting indexed so far) — the count
/// an O(batch) commit would collapse. `index_bytes` is
/// [`LiveIndex::resident_bytes`] after the final commit: the index's
/// layout, counted from its tables' sizes.
/// Afterwards the final snapshot must answer a fixed query prefix
/// *identically* (ids and bit-exact scores) to a batch
/// [`InvertedIndex::build`] over the final store — the
/// snapshot-consistency contract, gated as `equivalence_ok`.
///
/// Readers racing real commit threads are asserted by
/// `search::live::tests::concurrent_writers_and_readers`; query latency
/// and throughput beside a live crawl are the `serve_live` workload in
/// `benchmark/`.
pub fn run_serve_scenario(mode: GateMode) -> ScenarioRun {
    let (authors, noise_scale, budget_ms, clients) = match mode {
        GateMode::Full => (300usize, 2usize, 120_000u64, 6usize),
        GateMode::Smoke => (120, 1, 40_000, 3),
    };
    let world = Arc::new(WorldConfig::portal(GATE_SEED, authors, noise_scale).build());
    let accept = |_: &AnalyzedDocument, _: &PageContext| Judgment {
        topic: Some(0),
        confidence: 1.0,
    };
    let mix = QueryMix::from_lexicons(GATE_SEED, SERVE_POOLS, &[0], 64);

    // Discrete-event crawl + virtual-clock load generator, every serve
    // metric on the scenario registry.
    let registry = Arc::new(Registry::new());
    let events = Arc::new(EventLog::default());
    let index_obs = LiveIndexObs::new(&registry);
    let live = LiveIndex::new(32).with_obs(index_obs.clone());
    let store = DocumentStore::new().with_tee(Arc::new(live.clone()));
    let service =
        PortalService::new(store.clone(), live.clone()).with_metrics(ServeMetrics::new(&registry));
    let mut crawler = Crawler::new(world.clone(), CrawlConfig::default(), store);
    crawler.set_telemetry(CrawlTelemetry::new(registry.clone(), events.clone()));
    for author in &world.authors()[..2] {
        crawler.add_seed(&world.url_of(author.homepage), Some(0));
    }
    let mut generator = VirtualLoadGen::new(mix.clone(), clients, (40, 160), GATE_SEED);
    let mut reader = service.reader();
    {
        let mut judge = accept;
        let mut vocab = Vocabulary::new();
        while crawler.clock_ms() < budget_ms {
            let outcome = crawler.step(&mut judge, &mut vocab);
            generator.tick(crawler.clock_ms(), &service, &mut reader, &vocab);
            if outcome == StepOutcome::FrontierEmpty {
                break;
            }
        }
        live.commit();

        // Snapshot-consistency check: replay the first 300 workload
        // requests against the final incremental snapshot and a batch
        // rebuild; hits must match bit for bit.
        let snapshot = service.reader().snapshot();
        let batch = InvertedIndex::build(crawler.store());
        let mut eq_queries = 0u64;
        let mut equivalent = true;
        for i in 0..300 {
            let PortalRequest::Query { text, opts } = mix.request(i) else {
                continue;
            };
            eq_queries += 1;
            let terms = analyze_query_with(|stem| vocab.lookup_term(stem).map(|id| id.0), &text);
            let incr = bingo_search::rank::rank(
                crawler.store(),
                &*snapshot,
                &terms,
                &opts.filter,
                opts.ranking,
                opts.top_k,
            );
            let full = bingo_search::rank::rank(
                crawler.store(),
                &batch,
                &terms,
                &opts.filter,
                opts.ranking,
                opts.top_k,
            );
            equivalent &= incr.len() == full.len()
                && incr
                    .iter()
                    .zip(&full)
                    .all(|(a, b)| a.doc_id == b.doc_id && a.score.to_bits() == b.score.to_bits());
        }
        let stats = crawler.stats().clone();
        let report = json!({
            "scenario": "serve",
            "virtual_ms": crawler.clock_ms(),
            "stored_pages": stats.stored_pages,
            "queries_issued": generator.issued(),
            "query_hits": generator.query_hits(),
            "epochs": live.epoch(),
            "max_epoch_seen": generator.max_epoch(),
            "equivalence_ok": u64::from(equivalent),
            "equivalence_queries": eq_queries,
            "norm_postings": index_obs.norm_postings.get(),
            "index_bytes": live.resident_bytes(),
        });
        ScenarioRun {
            report,
            evidence: DeterminismEvidence::capture(&registry, &events),
        }
    }
}

/// Resident-set size (MB) of one `/proc/self/status` field
/// (`VmRSS:` current, `VmHWM:` peak). Returns 0 when unreadable.
fn rss_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the kernel's peak-RSS high-water mark so `VmHWM` measures
/// only the work that follows (best-effort; a no-op where
/// `/proc/self/clear_refs` is unavailable).
fn reset_rss_peak() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Sizing knobs of one scale-scenario run.
struct ScaleParams {
    paged: bingo_webworld::PagedConfig,
    /// Segment seal cadence (documents per sealed segment).
    seal_every: usize,
    /// Frontier incoming-queue capacity: sized to hold the whole
    /// discovered tail, so no link is dropped.
    incoming_cap: usize,
    /// Commit a session generation every N stored pages and resume the
    /// newest one after the crawl.
    checkpoint_every: u64,
    /// Fixed budget on RSS *growth* during the crawl, MB.
    rss_budget_mb: f64,
    /// Scratch directory tag (segments + session generations).
    tag: String,
}

/// Run the scale scenario once: a seeded crawl of a paged synthetic web
/// (one million pages in [`GateMode::Full`]) through the disk-backed
/// segmented store and a resident frontier, inside a fixed RSS budget.
///
/// Nothing in the path materializes the web or the harvest in memory:
/// page metadata is derived per lookup and never cached, and sealed
/// segments live on disk behind the write workspace. The report carries the
/// RSS evidence (`rss_growth_mb` against the fixed `rss_budget_mb`,
/// gated as the `rss_within_budget` bit); the deterministic coverage,
/// harvest and segment counts gate tightly. The crawl commits a session
/// generation every `checkpoint_every` stored pages inside the measured
/// leg, and the newest one is resumed afterwards, still inside the RSS
/// window (the peak is read after the resume): `generations_written`
/// must not shrink, no generation may serialise more document rows than
/// the recorded `generation_rows_max` (the run itself asserts it stays
/// under `seal_every` — a generation references sealed rows, it does
/// not copy them), and `resume_ok` says the resumed store is segmented
/// and holds exactly the documents of that generation.
pub fn run_scale_scenario(mode: GateMode) -> ScenarioRun {
    let params = match mode {
        GateMode::Full => ScaleParams {
            paged: bingo_webworld::PagedConfig::scale_full(GATE_SEED),
            seal_every: 4_096,
            incoming_cap: 1_500_000,
            checkpoint_every: 200_000,
            rss_budget_mb: 512.0,
            tag: "full".into(),
        },
        GateMode::Smoke => ScaleParams {
            paged: bingo_webworld::PagedConfig::scale_smoke(GATE_SEED),
            seal_every: 256,
            incoming_cap: 50_000,
            checkpoint_every: 2_500,
            rss_budget_mb: 256.0,
            tag: "smoke".into(),
        },
    };
    run_scale_with(params)
}

fn run_scale_with(params: ScaleParams) -> ScenarioRun {
    let world = Arc::new(World::paged(params.paged));
    let pages = world.page_count() as u64;

    let scratch = scratch_dir(&format!("scale-{}", params.tag));
    let store = DocumentStore::segmented_with(scratch.join("segments"), params.seal_every)
        .expect("segment spine");
    let session = scratch.join("session");
    let config = CrawlConfig {
        incoming_queue_cap: params.incoming_cap,
        checkpoint_every_docs: params.checkpoint_every,
        checkpoint_dir: Some(session.clone()),
        ..CrawlConfig::default().harvesting()
    };

    let registry = Arc::new(Registry::new());
    let events = Arc::new(EventLog::default());
    reset_rss_peak();
    let rss_start_mb = rss_status_mb("VmRSS:");

    let mut crawler = Crawler::new(world.clone(), config.clone(), store.clone());
    crawler.set_telemetry(CrawlTelemetry::new(registry.clone(), events.clone()));
    crawler.add_seed(&world.url_of(0), Some(0));
    // What each committed generation's store file holds, read back from
    // its header: (document rows, segments referenced, documents in the
    // store at that moment).
    let mut generations: Vec<(u64, u64, u64)> = Vec::new();
    {
        let mut judge = |_: &AnalyzedDocument, _: &PageContext| Judgment {
            topic: Some(0),
            confidence: 1.0,
        };
        let mut vocab = Vocabulary::new();
        loop {
            if crawler.step(&mut judge, &mut vocab) == StepOutcome::FrontierEmpty {
                break;
            }
            if crawler.stats().checkpoints_written > generations.len() as u64 {
                let newest = durable::generation_numbers(&session)[0];
                let file = durable::generation_dir(&session, newest).join(STORE_FILE);
                let text = std::fs::read_to_string(file).expect("generation store file");
                let header: Value = serde_json::from_str(text.lines().next().unwrap_or_default())
                    .expect("generation store header");
                let rows = json_path(&header, "documents").and_then(Value::as_u64);
                let segments = json_path(&header, "manifest.segments").and_then(Value::as_array);
                generations.push((
                    rows.expect("header counts its rows"),
                    segments.expect("header references segments").len() as u64,
                    store.document_count() as u64,
                ));
            }
        }
    }
    store.seal_now().expect("final seal");

    let stats = crawler.stats().clone();
    let virtual_ms = crawler.clock_ms().max(1);
    let mut report = json!({
        "scenario": "scale",
        "world_pages": pages,
        "visited_urls": stats.visited_urls,
        "stored_pages": stats.stored_pages,
        "harvest_ratio": stats.stored_pages as f64 / stats.visited_urls.max(1) as f64,
        "coverage": stats.visited_urls as f64 / pages as f64,
        "virtual_ms": virtual_ms,
        "urls_per_virtual_sec": stats.visited_urls as f64 * 1000.0 / virtual_ms as f64,
        "segments_sealed": store.segment_count(),
        "sealed_documents": store.sealed_documents(),
        "workspace_documents": store.workspace_documents(),
        "dedup_hot": crawler.dedup_fingerprints() as u64,
    });
    drop((crawler, store));

    // Where durability and scale meet: the crawl checkpointed, each
    // generation held unsealed rows only, and the newest one resumes as
    // a segmented store. Counts only — the scratch path is part of a
    // generation's header, so its byte size is not a function of the seed.
    let rows_max = generations.iter().map(|g| g.0).max().unwrap_or(0);
    assert!(
        rows_max < params.seal_every as u64,
        "a generation serialised {rows_max} rows: sealed rows leaked into it"
    );
    let (_, segments_last, documents_last) = generations.last().copied().unwrap_or_default();
    let resumed = Crawler::resume_session(world, config, &session);
    let resume_ok = resumed.is_ok_and(|resumed| {
        let store = resumed.store();
        store.is_segmented()
            && store.document_count() as u64 == documents_last
            && store.segment_count() as u64 == segments_last
    });

    // Peak RSS growth over the crawl and the resume of its newest
    // generation, against the fixed budget.
    let rss_peak_mb = rss_status_mb("VmHWM:");
    let rss_growth_mb = (rss_peak_mb - rss_start_mb).max(0.0);
    if let Value::Object(fields) = &mut report {
        fields.extend([
            ("rss_start_mb".to_string(), json!(rss_start_mb)),
            ("rss_peak_mb".to_string(), json!(rss_peak_mb)),
            ("rss_growth_mb".to_string(), json!(rss_growth_mb)),
            ("rss_budget_mb".to_string(), json!(params.rss_budget_mb)),
            (
                "rss_within_budget".to_string(),
                json!(u64::from(rss_growth_mb <= params.rss_budget_mb)),
            ),
            ("generations_written".to_string(), json!(generations.len())),
            ("generation_rows_max".to_string(), json!(rows_max)),
            ("generation_segments_last".to_string(), json!(segments_last)),
            ("resume_ok".to_string(), json!(u64::from(resume_ok))),
        ]);
    }
    ScenarioRun {
        report,
        evidence: DeterminismEvidence::capture(&registry, &events),
    }
}

/// Run the dist scenario once: the coordinator/worker distributed
/// crawl under node-kill chaos, against a calm reference.
///
/// Three legs share one world and one scenario-wide `dist.*` registry:
///
/// * **calm** — an N-node crawl to frontier exhaustion; its page set
///   and harvest ratio are the reference,
/// * **chaos** — the same crawl under a seeded [`NodeFaultPlan`]
///   (whole-node kills and stalls), interrupted by a whole-process
///   kill at a virtual-time budget,
/// * **resume** — recovery from the newest crash-consistent multi-node
///   generation, the fault plan reinstalled, and the crawl drained.
///
/// Gated: the chaos run must converge to exactly the calm page set
/// (`converged`, exact — the acceptance criterion "calm contents minus
/// quarantined URLs" with a poison budget high enough that nothing
/// quarantines), the scripted kill/restart counts and the
/// lease-requeue coverage must not silently shrink, the chaos harvest
/// ratio gates against its own baseline (`ratio_drift` vs calm is
/// reported, not gated: re-stores after node kills inflate the chaos
/// counters — the within-2%-of-uninterrupted contract is asserted on
/// clean counters in `crates/dist/tests/dist_chaos.rs`), and the
/// deterministic size of the resume's work (completed items `replayed`
/// after a node died before a cut, `snapshots` committed) must not grow.
pub fn run_dist_scenario(mode: GateMode) -> ScenarioRun {
    let (nodes, page_scale, interrupt_ms) = match mode {
        GateMode::Full => (4usize, 3usize, 5_000u64),
        GateMode::Smoke => (3, 1, 3_000),
    };
    let mut world_config = WorldConfig::small_test(GATE_SEED);
    // Scale the small-test topology rather than using the portal
    // world: the dist crawl drains its whole reachable component, so
    // the world itself is the size knob.
    world_config.topics = vec![
        TopicConfig::new("dbresearch", "database_research", 60 * page_scale, 3),
        TopicConfig::new("datamining", "data_mining", 40 * page_scale, 2),
        TopicConfig::new("sports", "sports", 60 * page_scale, 3),
        TopicConfig::new("entertainment", "entertainment", 60 * page_scale, 3),
    ];
    let world = Arc::new(world_config.build());
    let pages = world.page_count() as u64;
    let judge: Arc<dyn BatchJudge> = Arc::new(|_: &AnalyzedDocument, _: &PageContext| Judgment {
        topic: Some(0),
        confidence: 1.0,
    });
    let registry = Arc::new(Registry::new());
    let events = Arc::new(EventLog::default());
    let telemetry = DistTelemetry::new(registry.clone(), events.clone());

    let dist_config = |dir: &Path| {
        let mut config = DistConfig::new(nodes, dir);
        // Depth beyond the world's diameter (truncation would make the
        // reachable fringe scheduling-dependent) and a poison budget
        // nothing reaches, so calm and chaos converge exactly.
        config.max_depth = 100;
        config.poison_budget = 100;
        config.snapshot_every_acks = 8;
        config
    };
    let seed_coordinator = |dir: &Path, telemetry: &DistTelemetry| {
        let mut coord = Coordinator::new(world.clone(), judge.clone(), dist_config(dir));
        coord.set_telemetry(telemetry.clone());
        for id in 1..=6 {
            coord.add_seed(&world.url_of(id), Some(0));
        }
        coord
    };
    let page_ids = |coord: &Coordinator| {
        let mut ids: Vec<u64> = coord
            .combined_store()
            .all_documents()
            .into_iter()
            .map(|d| d.id)
            .collect();
        ids.sort_unstable();
        ids
    };

    // Calm leg: the reference page set and harvest ratio.
    let calm_dir = scratch_dir(&format!("dist-calm-{}", mode.key()));
    let mut calm = seed_coordinator(&calm_dir, &telemetry);
    let calm_stats = calm.run(10_000_000).expect("calm dist run");
    let calm_ids = page_ids(&calm);
    let calm_visited = calm_stats.fetch_ok + calm_stats.fetch_err + calm_stats.redirects;
    let calm_ratio = calm_stats.stored as f64 / calm_visited.max(1) as f64;

    // Chaos leg: scripted node kills/stalls, then the whole process
    // dies at a virtual-time budget.
    let chaos_dir = scratch_dir(&format!("dist-chaos-{}", mode.key()));
    let plan = NodeFaultPlan::generate(GATE_SEED, nodes, &NodeFaultProfile::chaos());
    assert!(!plan.is_empty(), "chaos profile must script node faults");
    let mut doomed = seed_coordinator(&chaos_dir, &telemetry);
    doomed.install_faults(plan.clone());
    doomed.run(interrupt_ms).expect("interrupted dist run");
    drop(doomed); // process killed; the cut on disk is the survivor

    // Resume leg: recover the newest complete multi-node generation,
    // reinstall the plan, drain the crawl.
    let mut resumed = Coordinator::resume(world.clone(), judge.clone(), dist_config(&chaos_dir))
        .expect("dist resume from committed cut");
    resumed.set_telemetry(telemetry.clone());
    resumed.install_faults(plan);
    let final_stats = resumed.run(10_000_000).expect("resumed dist run");
    let chaos_ids = page_ids(&resumed);
    let queue_stats = resumed.queue_stats();
    let visited = final_stats.fetch_ok + final_stats.fetch_err + final_stats.redirects;
    let harvest_ratio = final_stats.stored as f64 / visited.max(1) as f64;
    let ratio_drift = (harvest_ratio - calm_ratio).abs() / calm_ratio.max(1e-9);
    let converged = u64::from(chaos_ids == calm_ids);

    let report = json!({
        "scenario": "dist",
        "nodes": nodes,
        "world_pages": pages,
        "stored_pages": final_stats.stored,
        "stored_calm": calm_stats.stored,
        "harvest_ratio": harvest_ratio,
        "harvest_ratio_calm": calm_ratio,
        "ratio_drift": ratio_drift,
        "converged": converged,
        "kills": final_stats.kills,
        "stalls": final_stats.stalls,
        "restarts": final_stats.restarts,
        "replayed": final_stats.replayed,
        "discarded_batches": final_stats.discarded_batches,
        "requeued": queue_stats.requeued,
        "quarantined": queue_stats.quarantined,
        "snapshots": final_stats.snapshots,
    });
    ScenarioRun {
        report,
        evidence: DeterminismEvidence::capture(&registry, &events),
    }
}

/// How one metric of a scenario report is gated.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    /// Dot path into the report (`stages.queries.hits`).
    pub path: &'static str,
    /// `true`: regression = value below baseline; `false`: above.
    pub higher_is_better: bool,
    /// Relative tolerance before the gate fails.
    pub rel_tol: f64,
}

impl MetricSpec {
    /// The value may fall at most `rel_tol` below the baseline.
    pub const fn at_least(path: &'static str, rel_tol: f64) -> Self {
        MetricSpec {
            path,
            higher_is_better: true,
            rel_tol,
        }
    }

    /// The value may rise at most `rel_tol` above the baseline.
    pub const fn at_most(path: &'static str, rel_tol: f64) -> Self {
        MetricSpec {
            path,
            higher_is_better: false,
            rel_tol,
        }
    }
}

const CRAWL_SPECS: &[MetricSpec] = &[
    MetricSpec::at_least("urls_per_virtual_sec", 0.10),
    MetricSpec::at_least("harvest_ratio", 0.10),
    MetricSpec::at_least("stored_pages", 0.10),
];

/// `judgment_digest` must equal the baseline: no lower, no higher.
const CLASSIFY_SPECS: &[MetricSpec] = &[
    MetricSpec::at_least("macro_f1", 0.05),
    MetricSpec::at_least("judgment_digest", 0.0),
    MetricSpec::at_most("judgment_digest", 0.0),
];

const PIPELINE_SPECS: &[MetricSpec] = &[
    MetricSpec::at_least("documents", 0.02),
    MetricSpec::at_least("positively_classified", 0.05),
    MetricSpec::at_least("link_rows", 0.05),
];

const RECOVERY_SPECS: &[MetricSpec] = &[
    MetricSpec::at_least("harvest_ratio", 0.10),
    MetricSpec::at_least("stored_resumed", 0.05),
];

/// `equivalence_ok` is the snapshot-consistency contract and admits no
/// tolerance; neither does `index_bytes`, a count that only a layout
/// change moves.
const SERVE_SPECS: &[MetricSpec] = &[
    MetricSpec::at_least("queries_issued", 0.02),
    MetricSpec::at_least("query_hits", 0.10),
    MetricSpec::at_least("stored_pages", 0.10),
    MetricSpec::at_least("epochs", 0.10),
    MetricSpec::at_least("equivalence_ok", 0.0),
    MetricSpec::at_most("index_bytes", 0.0),
];

/// `rss_within_budget` is the memory-bounded contract itself (the
/// crawl's RSS growth stayed inside the fixed per-mode budget — no
/// tolerance).
const SCALE_SPECS: &[MetricSpec] = &[
    MetricSpec::at_least("coverage", 0.02),
    MetricSpec::at_least("stored_pages", 0.05),
    MetricSpec::at_least("harvest_ratio", 0.05),
    MetricSpec::at_least("segments_sealed", 0.05),
    MetricSpec::at_least("rss_within_budget", 0.0),
    MetricSpec::at_least("generations_written", 0.0),
    MetricSpec::at_most("generation_rows_max", 0.0),
    MetricSpec::at_least("resume_ok", 0.0),
];

/// Convergence is the contract itself and admits no tolerance; the
/// scripted kill/restart counts and the lease-requeue coverage are
/// lower-bounded so the chaos leg cannot silently stop exercising
/// recovery; the run may not replay more completed items nor commit
/// more snapshots than the baseline did.
const DIST_SPECS: &[MetricSpec] = &[
    MetricSpec::at_least("converged", 0.0),
    MetricSpec::at_least("stored_pages", 0.05),
    MetricSpec::at_least("harvest_ratio", 0.05),
    MetricSpec::at_least("kills", 0.0),
    MetricSpec::at_least("restarts", 0.0),
    MetricSpec::at_least("requeued", 0.25),
    MetricSpec::at_most("replayed", 0.0),
    MetricSpec::at_most("snapshots", 0.0),
];

/// One gated scenario: its name (also the baseline file stem), how to
/// run it, and which report metrics gate against the baseline.
pub struct Scenario {
    /// Name on the command line and in `BENCH_<name>.json`.
    pub name: &'static str,
    /// Gated metrics.
    pub specs: &'static [MetricSpec],
    /// Run the scenario once.
    pub run: fn(GateMode) -> ScenarioRun,
}

/// Every scenario, in run order.
#[rustfmt::skip]
pub const SCENARIOS: &[Scenario] = &[
    Scenario { name: "crawl", specs: CRAWL_SPECS, run: run_crawl_scenario },
    Scenario { name: "classify", specs: CLASSIFY_SPECS, run: run_classify_scenario },
    Scenario { name: "pipeline", specs: PIPELINE_SPECS, run: run_pipeline_scenario },
    Scenario { name: "recovery", specs: RECOVERY_SPECS, run: run_recovery_scenario },
    Scenario { name: "serve", specs: SERVE_SPECS, run: run_serve_scenario },
    Scenario { name: "scale", specs: SCALE_SPECS, run: run_scale_scenario },
    Scenario { name: "dist", specs: DIST_SPECS, run: run_dist_scenario },
];

/// Resolve a dot path inside a JSON value.
pub fn json_path<'v>(value: &'v Value, path: &str) -> Option<&'v Value> {
    let mut cur = value;
    for seg in path.split('.') {
        cur = cur.get(seg)?;
    }
    Some(cur)
}

/// Structured baseline-vs-actual outcome of one gated metric — the
/// machine-readable form behind [`compare_reports`], also rendered as
/// a markdown table into `$GITHUB_STEP_SUMMARY` on gate failure.
#[derive(Debug, Clone)]
pub struct MetricDiff {
    /// Scenario the metric belongs to.
    pub scenario: String,
    /// Dot path of the metric inside the report.
    pub path: String,
    /// Baseline value (`None`: missing from the baseline file).
    pub baseline: Option<f64>,
    /// Value of the current run (`None`: missing from the report).
    pub actual: Option<f64>,
    /// The pass bound after tolerance.
    pub bound: f64,
    /// Direction of the bound.
    pub higher_is_better: bool,
    /// Whether the metric passed.
    pub ok: bool,
}

impl MetricDiff {
    /// The human-readable failure line (`None` when the metric passed).
    pub fn failure_line(&self) -> Option<String> {
        if self.ok {
            return None;
        }
        Some(match (self.baseline, self.actual) {
            (None, _) => format!(
                "{}.{}: missing from baseline (re-record with --update)",
                self.scenario, self.path
            ),
            (_, None) => format!("{}.{}: missing from current run", self.scenario, self.path),
            (Some(base), Some(cur)) => format!(
                "{}.{}: {cur:.4} vs baseline {base:.4} (expected {} {:.4})",
                self.scenario,
                self.path,
                if self.higher_is_better { ">=" } else { "<=" },
                self.bound,
            ),
        })
    }
}

/// Render diffs as a GitHub-flavored markdown table (baseline vs
/// actual per metric), for `$GITHUB_STEP_SUMMARY`.
pub fn markdown_diff_table(diffs: &[MetricDiff]) -> String {
    let mut out = String::from(
        "| metric | baseline | actual | bound | direction | status |\n\
         |---|---|---|---|---|---|\n",
    );
    let fmt = |v: Option<f64>| v.map_or("missing".to_string(), |x| format!("{x:.4}"));
    for d in diffs {
        out.push_str(&format!(
            "| {}.{} | {} | {} | {:.4} | {} | {} |\n",
            d.scenario,
            d.path,
            fmt(d.baseline),
            fmt(d.actual),
            d.bound,
            if d.higher_is_better { ">=" } else { "<=" },
            if d.ok { "ok" } else { "FAIL" },
        ));
    }
    out
}

/// Compare a current report against a baseline section, metric by
/// metric. Returns one [`MetricDiff`] per spec.
pub fn diff_reports(
    scenario: &str,
    baseline: &Value,
    current: &Value,
    specs: &[MetricSpec],
) -> Vec<MetricDiff> {
    let mut diffs = Vec::new();
    for spec in specs {
        let base = json_path(baseline, spec.path).and_then(Value::as_f64);
        let cur = json_path(current, spec.path).and_then(Value::as_f64);
        let expected = base.unwrap_or(0.0);
        let bound = if spec.higher_is_better {
            expected * (1.0 - spec.rel_tol)
        } else {
            expected * (1.0 + spec.rel_tol)
        };
        let ok = match (base, cur) {
            (Some(_), Some(cur)) => {
                if spec.higher_is_better {
                    cur >= bound
                } else {
                    cur <= bound
                }
            }
            _ => false,
        };
        diffs.push(MetricDiff {
            scenario: scenario.to_string(),
            path: spec.path.to_string(),
            baseline: base,
            actual: cur,
            bound,
            higher_is_better: spec.higher_is_better,
            ok,
        });
    }
    diffs
}

/// Compare a current report against a baseline section. Returns
/// human-readable failure lines (empty = pass); the structured form is
/// [`diff_reports`].
pub fn compare_reports(
    scenario: &str,
    baseline: &Value,
    current: &Value,
    specs: &[MetricSpec],
) -> Vec<String> {
    diff_reports(scenario, baseline, current, specs)
        .iter()
        .filter_map(MetricDiff::failure_line)
        .collect()
}

/// Report fields that read this process's memory, not the seed: the
/// only ones two same-seed runs may disagree on.
const MEMORY_READINGS: &[&str] = &["rss_start_mb", "rss_peak_mb", "rss_growth_mb"];

fn without_memory_readings(report: &Value) -> Value {
    match report {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .filter(|(key, _)| !MEMORY_READINGS.contains(&key.as_str()))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Check that two same-seed runs produced byte-identical telemetry and
/// the same report. Returns failure lines (empty = deterministic).
pub fn check_determinism(scenario: &str, a: &ScenarioRun, b: &ScenarioRun) -> Vec<String> {
    let mut failures = Vec::new();
    if a.evidence.snapshot_json != b.evidence.snapshot_json {
        failures.push(format!(
            "{scenario}: metrics snapshots differ between same-seed runs"
        ));
    }
    if a.evidence.events_jsonl != b.evidence.events_jsonl {
        failures.push(format!(
            "{scenario}: event logs differ between same-seed runs"
        ));
    }
    if without_memory_readings(&a.report) != without_memory_readings(&b.report) {
        failures.push(format!("{scenario}: reports differ between same-seed runs"));
    }
    failures
}

/// Baseline file name of a scenario.
pub fn baseline_file(scenario: &str) -> String {
    format!("BENCH_{scenario}.json")
}

/// Load a baseline file; `None` when missing or unreadable.
pub fn load_baseline(dir: &Path, scenario: &str) -> Option<Value> {
    let text = std::fs::read_to_string(dir.join(baseline_file(scenario))).ok()?;
    serde_json::from_str(&text).ok()
}

/// Artifacts of one gated scenario+mode: the report and the evidence
/// files.
pub fn write_run_artifacts(
    out_dir: &Path,
    scenario: &str,
    mode: GateMode,
    run: &ScenarioRun,
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let stem = format!("{scenario}.{}", mode.key());
    std::fs::write(
        out_dir.join(format!("{stem}.report.json")),
        serde_json::to_string_pretty(&run.report).expect("report serializes"),
    )?;
    std::fs::write(
        out_dir.join(format!("{stem}.metrics.json")),
        &run.evidence.snapshot_json,
    )?;
    std::fs::write(
        out_dir.join(format!("{stem}.events.jsonl")),
        &run.evidence.events_jsonl,
    )?;
    Ok(())
}

/// Default artifact directory for gate runs.
pub fn default_out_dir() -> PathBuf {
    PathBuf::from("target/bench_gate")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_path_traverses() {
        let v = json!({"a": {"b": {"c": 3}}});
        assert_eq!(json_path(&v, "a.b.c").and_then(Value::as_u64), Some(3));
        assert!(json_path(&v, "a.x").is_none());
    }

    #[test]
    fn compare_flags_regressions_within_tolerance() {
        let base = json!({"tput": 100.0, "errors": 4.0});
        let specs = [
            MetricSpec::at_least("tput", 0.10),
            MetricSpec::at_most("errors", 0.50),
        ];
        // Within tolerance: pass.
        let ok = json!({"tput": 91.0, "errors": 6.0});
        assert!(compare_reports("s", &base, &ok, &specs).is_empty());
        // 11% virtual-throughput drop: fail.
        let slow = json!({"tput": 89.0, "errors": 4.0});
        let fails = compare_reports("s", &base, &slow, &specs);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("tput"));
        // An at-most metric fails above its bound: 7 > 4·1.5.
        let noisy = json!({"tput": 100.0, "errors": 7.0});
        assert_eq!(compare_reports("s", &base, &noisy, &specs).len(), 1);
        // Missing metric is a failure, not a silent pass.
        let missing = json!({"tput": 100.0});
        assert_eq!(compare_reports("s", &base, &missing, &specs).len(), 1);
    }

    #[test]
    fn diff_reports_structures_every_spec() {
        let base = json!({"tput": 100.0});
        let specs = [
            MetricSpec::at_least("tput", 0.10),
            MetricSpec::at_least("absent", 0.10),
        ];
        let cur = json!({"tput": 89.0, "absent": 1.0});
        let diffs = diff_reports("s", &base, &cur, &specs);
        assert_eq!(diffs.len(), 2);
        assert!(!diffs[0].ok);
        assert_eq!(diffs[0].baseline, Some(100.0));
        assert_eq!(diffs[0].actual, Some(89.0));
        assert!((diffs[0].bound - 90.0).abs() < 1e-9);
        assert!(!diffs[1].ok, "missing baseline must not pass");
        assert_eq!(diffs[1].baseline, None);
        // failure_line() reproduces the compare_reports strings.
        assert!(diffs[0].failure_line().unwrap().contains("89.0000"));
        assert!(diffs[1]
            .failure_line()
            .unwrap()
            .contains("missing from baseline"));
        // Passing diffs carry no failure line.
        let ok = diff_reports("s", &base, &json!({"tput": 95.0}), &specs[..1]);
        assert!(ok[0].ok);
        assert!(ok[0].failure_line().is_none());
    }

    #[test]
    fn markdown_table_marks_failures() {
        let base = json!({"tput": 100.0});
        let specs = [MetricSpec::at_least("tput", 0.10)];
        let diffs = diff_reports("s", &base, &json!({"tput": 50.0}), &specs);
        let table = markdown_diff_table(&diffs);
        assert!(table.contains("| s.tput |"));
        assert!(table.contains("| FAIL |"));
        assert!(table.contains("100.0000"));
        assert!(table.contains("50.0000"));
    }

    #[test]
    fn determinism_check_compares_telemetry_and_reports() {
        let a = ScenarioRun {
            report: json!({"stored_pages": 10, "rss_peak_mb": 14.5, "stages": {"hits": 3}}),
            evidence: DeterminismEvidence {
                snapshot_json: "{}".into(),
                events_jsonl: "".into(),
            },
        };
        let mut b = a.clone();
        assert!(check_determinism("s", &a, &b).is_empty());
        b.evidence.events_jsonl = "x\n".into();
        assert_eq!(check_determinism("s", &a, &b).len(), 1);
        // Memory readings may differ between two runs; nothing else may.
        let mut b = a.clone();
        b.report = json!({"stored_pages": 10, "rss_peak_mb": 15.25, "stages": {"hits": 3}});
        assert!(check_determinism("s", &a, &b).is_empty());
        b.report = json!({"stored_pages": 10, "rss_peak_mb": 14.5, "stages": {"hits": 4}});
        let fails = check_determinism("s", &a, &b);
        assert_eq!(fails.len(), 1);
        assert!(fails[0].contains("reports differ"));
    }

    #[test]
    fn scratch_dirs_do_not_alias_and_vanish() {
        let a = scratch_dir("test-alias-a");
        let b = scratch_dir("test-alias-b");
        assert_ne!(a.to_path_buf(), b.to_path_buf());
        assert!(a.is_dir() && b.is_dir());
        let (a_path, b_path) = (a.to_path_buf(), b.to_path_buf());
        drop(a);
        assert!(!a_path.exists() && b_path.is_dir());
        drop(b);
        assert!(!b_path.exists());
    }

    /// End-to-end: the smoke pipeline scenario runs, replays
    /// identically, and the counters are non-trivial.
    #[test]
    fn pipeline_scenario_is_deterministic_and_counts_documents() {
        let a = run_pipeline_scenario(GateMode::Smoke);
        let b = run_pipeline_scenario(GateMode::Smoke);
        assert!(check_determinism("pipeline", &a, &b).is_empty());
        let docs = json_path(&a.report, "documents")
            .and_then(Value::as_u64)
            .unwrap();
        assert!(docs >= 100, "pipeline stored too few documents: {docs}");
        assert!(
            json_path(&a.report, "positively_classified")
                .and_then(Value::as_u64)
                .unwrap()
                > 0,
            "classification never fired"
        );
        assert!(
            json_path(&a.report, "link_rows")
                .and_then(Value::as_u64)
                .unwrap()
                > 0,
            "no link rows emitted"
        );
    }

    /// End-to-end: the smoke recovery scenario survives its injected
    /// mid-checkpoint crash, replays byte-identically, leaves no scratch
    /// directory behind, and the resumed crawl actually recovers
    /// checkpointed progress.
    #[test]
    fn recovery_scenario_is_deterministic_and_recovers() {
        let a = run_recovery_scenario(GateMode::Smoke);
        let b = run_recovery_scenario(GateMode::Smoke);
        assert!(check_determinism("recovery", &a, &b).is_empty());
        assert!(!scratch_path("recovery-smoke").exists());
        let recovered = json_path(&a.report, "stored_recovered")
            .and_then(Value::as_u64)
            .unwrap();
        assert!(recovered > 0, "resume recovered nothing");
        let resumed = json_path(&a.report, "stored_resumed")
            .and_then(Value::as_u64)
            .unwrap();
        assert!(resumed > recovered, "no progress after resume");
        let drift = json_path(&a.report, "ratio_drift")
            .and_then(Value::as_f64)
            .unwrap();
        assert!(drift <= 0.05, "harvest ratio drifted {drift:.4}");
    }

    /// End-to-end: the smoke serve scenario replays byte-identically,
    /// and the incremental index answers the fixed query prefix exactly
    /// like a batch rebuild.
    #[test]
    fn serve_scenario_is_deterministic_and_snapshot_consistent() {
        let a = run_serve_scenario(GateMode::Smoke);
        let b = run_serve_scenario(GateMode::Smoke);
        assert!(check_determinism("serve", &a, &b).is_empty());
        assert_eq!(
            json_path(&a.report, "equivalence_ok").and_then(Value::as_u64),
            Some(1),
            "incremental snapshot diverged from batch rebuild"
        );
        let issued = json_path(&a.report, "queries_issued")
            .and_then(Value::as_u64)
            .unwrap();
        assert!(issued > 300, "virtual load generator barely ran: {issued}");
        assert!(
            json_path(&a.report, "query_hits")
                .and_then(Value::as_u64)
                .unwrap()
                > 0,
            "no query ever hit a document"
        );
    }

    /// End-to-end: a miniature scale run (600 paged pages, so it stays
    /// fast in debug builds) replays byte-identically, covers the whole
    /// paged world through the segmented store, and stays inside its
    /// RSS budget.
    #[test]
    fn scale_scenario_is_deterministic_and_memory_bounded() {
        let mini = || ScaleParams {
            paged: bingo_webworld::PagedConfig {
                seed: GATE_SEED,
                hosts: 60,
                pages_per_host: 10,
                hot_cap: 16,
            },
            seal_every: 64,
            incoming_cap: 5_000,
            checkpoint_every: 150,
            rss_budget_mb: 256.0,
            tag: "test".into(),
        };
        let a = run_scale_with(mini());
        let b = run_scale_with(mini());
        assert!(check_determinism("scale", &a, &b).is_empty());
        let get = |p: &str| json_path(&a.report, p).and_then(Value::as_u64).unwrap();
        assert!(
            json_path(&a.report, "coverage")
                .and_then(Value::as_f64)
                .unwrap()
                > 0.9,
            "crawl left most of the paged world unvisited"
        );
        assert!(get("segments_sealed") >= 2, "store never spanned segments");
        assert_eq!(get("rss_within_budget"), 1, "RSS budget blown");
        assert!(get("generations_written") >= 3, "crawl barely checkpointed");
        assert!(
            get("generation_rows_max") < 64,
            "a generation held sealed rows"
        );
        assert!(get("generation_segments_last") >= 2);
        assert_eq!(get("resume_ok"), 1, "newest generation did not resume");
        assert_eq!(
            json_path(&a.report, "visited_urls").unwrap(),
            json_path(&b.report, "visited_urls").unwrap(),
            "same-seed runs disagree on visited count"
        );
    }

    /// End-to-end: the smoke classify scenario runs, is deterministic
    /// across two runs, and produces a usable report.
    #[test]
    fn classify_scenario_is_deterministic_and_scored() {
        let a = run_classify_scenario(GateMode::Smoke);
        let b = run_classify_scenario(GateMode::Smoke);
        assert!(check_determinism("classify", &a, &b).is_empty());
        let f1 = json_path(&a.report, "macro_f1")
            .and_then(Value::as_f64)
            .unwrap();
        assert!(f1 > 0.5, "macro-F1 collapsed: {f1}");
        assert!(
            json_path(&a.report, "evaluated")
                .and_then(Value::as_u64)
                .unwrap()
                > 30
        );
        // The digest gates both ways: one flipped bit fails it.
        let digest = json_path(&a.report, "judgment_digest")
            .and_then(Value::as_u64)
            .expect("digest reported");
        let moved = json!({ "macro_f1": f1, "judgment_digest": digest ^ 1 });
        assert!(compare_reports("classify", &a.report, &a.report, CLASSIFY_SPECS).is_empty());
        assert_eq!(
            compare_reports("classify", &a.report, &moved, CLASSIFY_SPECS).len(),
            1
        );
    }
}
