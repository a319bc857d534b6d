//! `pipeline_mt` — the real-thread pipeline with a three-topic SVM
//! judge, once on one thread and once on `nproc`.
//!
//! Why: the executor the roadmap wants to make pay or delete, on an
//! input large enough that the serial fraction is measurable.
//! Classification is about 70% of the one-thread wall here — the
//! opposite balance from `scale_durable` and `serve_live`, where the
//! judge is free.

use super::{add_training_pages, clean_urls, populate_others, secs, Ctx, Round};
use crate::metrics::Check;
use crate::replay::{self, ReplaySpec, BATCH};
use crate::sys;
use crate::trace::{totals_by_name, Tracer};
use bingo_core::{BingoEngine, EngineConfig, TopicId, TopicTree};
use bingo_crawler::dedup::path_of_url;
use bingo_crawler::{run_pipeline, CrawlTelemetry, Dedup, PipelineOptions, ThroughputReport};
use bingo_store::DocumentStore;
use bingo_textproc::SharedVocabulary;
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::{FetchOutcome, World};
use std::sync::Arc;
use std::time::Instant;

/// Sizes of one round: the gate's `pipeline` engine (12 training pages
/// per topic, 20 OTHERS) on every fourth clean URL of the 5,000-author
/// portal world — about 6,600 URLs, eight times the gate's input.
struct Sizes {
    authors: usize,
    noise_scale: usize,
    url_stride: usize,
    train_per_topic: usize,
    n_others: usize,
}

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            authors: 500,
            noise_scale: 1,
            url_stride: 6,
            train_per_topic: 8,
            n_others: 20,
        }
    } else {
        Sizes {
            authors: 5_000,
            noise_scale: 4,
            url_stride: 4,
            train_per_topic: 12,
            n_others: 20,
        }
    }
}

/// Drop every URL the pipeline's own duplicate filter would drop: one
/// whose URL hash, or whose response's (IP, path) or (IP, size)
/// fingerprint, was seen on an earlier URL of the list. Which member of
/// a duplicate class survives depends on processing order, so only a
/// collision-free work list lets two thread counts store the same ids.
/// The filter is the crawler's `Dedup` itself, so its hashing is matched
/// exactly — 64-bit URL-hash collisions included (seed 32 has one).
fn collision_free(world: &World, urls: Vec<(String, Option<u32>)>) -> Vec<(String, Option<u32>)> {
    let mut dedup = Dedup::new();
    urls.into_iter()
        .filter(|(url, _)| {
            dedup.mark_url(url)
                && match world.fetch(url, 0) {
                    FetchOutcome::Ok(r) => dedup.mark_response(r.ip, path_of_url(&r.url), r.size),
                    _ => false,
                }
        })
        .collect()
}

/// What one leg stored.
struct Leg {
    report: ThroughputReport,
    wall_s: f64,
    ids: Vec<u64>,
    store: DocumentStore,
}

/// Run one round.
pub fn round(ctx: &Ctx, tracer: &mut Tracer) -> Round {
    let sz = sizes(ctx.quick);
    let mut r = Round::default();

    // Set-up: world, three-topic engine, work list.
    let t = Instant::now();
    let world = tracer.span("webworld.build", |_| {
        Arc::new(WorldConfig::portal(ctx.seed, sz.authors, sz.noise_scale).build())
    });
    let mut engine = BingoEngine::new(EngineConfig::default());
    let topics: Vec<TopicId> = ["database research", "data mining", "web ir"]
        .iter()
        .map(|name| engine.add_topic(TopicTree::ROOT, name))
        .collect();
    for (true_topic, &topic) in topics.iter().enumerate() {
        add_training_pages(
            &mut engine,
            &world,
            topic,
            true_topic as u32,
            sz.train_per_topic,
        );
    }
    populate_others(&mut engine, &world, &[3, 4], sz.n_others);
    tracer.span("core.train", |_| engine.train().expect("initial training"));
    let urls = collision_free(&world, clean_urls(&world, sz.url_stride));
    r.setup_s = secs(t);

    // Timed: the same work list through the flat pipeline on one thread,
    // then on `nproc` threads, fresh store and dictionary each.
    let judge = engine.batch_classifier();
    let leg = |threads: usize, span: &'static str, tracer: &mut Tracer| {
        let store = DocumentStore::new();
        let vocab = SharedVocabulary::seeded(&engine.vocab);
        let t = Instant::now();
        let report = tracer.span(span, |_| {
            run_pipeline(
                Arc::clone(&world),
                store.clone(),
                urls.clone(),
                &vocab,
                &judge,
                &CrawlTelemetry::default(),
                &PipelineOptions::flat(threads, BATCH),
            )
        });
        let wall_s = secs(t);
        let mut ids = Vec::with_capacity(report.documents as usize);
        store.for_each_document(|row| ids.push(row.id));
        ids.sort_unstable();
        Leg {
            report,
            wall_s,
            ids,
            store,
        }
    };
    let cpu0 = sys::process_cpu_s();
    let one = leg(1, "crawler.run_pipeline_1t", tracer);
    let many = leg(ctx.threads, "crawler.run_pipeline_nt", tracer);
    let cpu_s = sys::process_cpu_s() - cpu0;
    r.rss_peak_mb = sys::rss_peak_mb();

    let documents = one.report.documents + many.report.documents;
    r.timed_s = one.wall_s + many.wall_s;
    r.pages_per_s = many.report.documents as f64 / many.wall_s;
    r.cpu_s_per_kpage = cpu_s * 1000.0 / documents.max(1) as f64;
    r.attempted = 2 * urls.len() as u64;
    r.failed = (one.report.quarantined.len() + many.report.quarantined.len()) as u64;
    r.counts = vec![
        ("urls", urls.len() as u64),
        ("documents", one.report.documents),
        (
            "positively_classified",
            one.report.stats.positively_classified,
        ),
    ];
    r.checks = vec![
        Check::that(
            "pipeline_mt: both legs stored the same id set",
            one.ids == many.ids && !one.ids.is_empty(),
        ),
        Check::eq(
            "pipeline_mt: both legs classified the same number of pages positively",
            one.report.stats.positively_classified,
            many.report.stats.positively_classified,
        ),
        Check::eq(
            "pipeline_mt: every URL of the collision-free work list was stored",
            one.ids.len(),
            urls.len(),
        ),
    ];
    r.facts.insert("stored_pages", many.report.documents as f64);
    r.facts
        .insert("pages_per_s_1t", one.report.documents as f64 / one.wall_s);

    if tracer.enabled() {
        let totals = totals_by_name(tracer.spans());
        let (wall_1t, wall_nt) = (
            totals.total_s("crawler.run_pipeline_1t"),
            totals.total_s("crawler.run_pipeline_nt"),
        );
        let outcome = replay::replay_stages(
            &ReplaySpec {
                world: &world,
                store: &one.store,
                judge: Some(&judge),
                seed_vocab: Some(&engine.vocab),
                fresh_store: &|_| DocumentStore::new(),
                frontier: None,
                threads: ctx.threads,
            },
            &mut r.facts,
        );
        let sample = replay::sample_features(&one.store, 2_000);
        replay::replay_ml(&engine, topics[0], &sample, &mut r.facts);
        r.checks.extend([
            Check::eq(
                "pipeline_mt: replay fetched every stored page",
                outcome.fetched_ok,
                one.report.documents,
            ),
            Check::eq(
                "pipeline_mt: replay classified the same number of pages positively",
                outcome.positives,
                one.report.stats.positively_classified,
            ),
            Check::eq(
                "pipeline_mt: replay loaded every stored row",
                outcome.loaded,
                one.report.documents,
            ),
        ]);
        r.facts
            .insert("webworld.build_s", totals.total_s("webworld.build"));
        r.facts.insert("core.train_s", totals.total_s("core.train"));
        r.facts.insert("crawler.pipeline_wall_1t_s", wall_1t);
        r.facts.insert("crawler.pipeline_wall_nt_s", wall_nt);
        r.facts
            .insert("crawler.thread_speedup", wall_1t / wall_nt.max(1e-9));
        // The flat pipeline has no frontier: its step is the batch.
        r.facts.insert("crawler.step_s", wall_1t);
        r.facts
            .insert("crawler.steps", (urls.len() as f64 / BATCH as f64).ceil());
        r.facts
            .insert("crawler.policy_s", (wall_1t - outcome.stages_s).max(0.0));
        r.facts.insert(
            "trace.coverage",
            outcome.stages_s.min(wall_1t) / wall_1t.max(1e-9),
        );
        r.spans.push(("main", tracer.take()));
    }
    r
}
