//! `serve_live` — portal queries at a fixed open-loop rate while one
//! crawl thread fills the store and the live index beside them.
//!
//! Why: the only workload where `search` (the O(corpus)
//! `LiveIndex::commit`, `rank`) and `serve` do most of the work, with
//! writes beside reads on both `search` and `store` (`rank` clones a full
//! row per matching document through `store.document`). Portal users are
//! independent of each other, hence an open loop for latency; a closed
//! loop of one client on the finished index gives capacity at a stated
//! corpus size. The judge is free (accept-all), the opposite balance
//! from `pipeline_mt`.

use super::{accept_all, clean_urls, secs, Ctx, Round};
use crate::loadgen::{self, Sample};
use crate::metrics::Check;
use crate::replay::{self, ReplaySpec, BATCH};
use crate::stats::LatencySummary;
use crate::sys;
use crate::trace::{totals_by_name, Span, Tracer};
use bingo_crawler::{run_pipeline, CrawlTelemetry, PipelineOptions};
use bingo_search::index::analyze_query_with;
use bingo_search::rank::rank;
use bingo_search::{InvertedIndex, LiveIndex};
use bingo_serve::{PortalRequest, PortalService, QueryMix};
use bingo_store::{DocumentRow, DocumentStore, IndexTee};
use bingo_textproc::{SharedVocabulary, TermLookup};
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::{lexicon, World};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Sizes of one round: every clean URL of the paper-sized portal world
/// (5,000 authors, ~26k URLs, ~25k documents). At that size a commit
/// every 256 rows costs the crawl thread nearly half its time, because
/// each commit recomputes every document norm.
struct Sizes {
    authors: usize,
    noise_scale: usize,
    url_stride: usize,
    /// Open-loop request rate. Fixed: the point is latency beside a
    /// writing crawl, not saturation (500/s already builds an unbounded
    /// backlog at 25k documents).
    rate_per_s: u64,
    /// Live phases pooled by a detail round.
    detail_phases: usize,
    /// Closed-loop requests on the finished index.
    static_requests: u64,
    /// Mix queries compared against the batch index.
    equivalence_queries: u64,
}

/// Rows per live-index commit.
const COMMIT_EVERY: usize = 256;

fn sizes(quick: bool) -> Sizes {
    if quick {
        Sizes {
            authors: 500,
            noise_scale: 1,
            url_stride: 3,
            rate_per_s: 100,
            detail_phases: 1,
            static_requests: 100,
            equivalence_queries: 50,
        }
    } else {
        Sizes {
            authors: 5_000,
            noise_scale: 4,
            url_stride: 1,
            rate_per_s: 100,
            detail_phases: 3,
            static_requests: 1_000,
            equivalence_queries: 200,
        }
    }
}

/// The traced run's tee: forwards rows to a manual-commit live index
/// and commits at the same cadence `LiveIndex::new(COMMIT_EVERY)` would,
/// under a span.
struct SpanTee {
    live: LiveIndex,
    state: Mutex<(usize, Tracer)>,
}

impl IndexTee for SpanTee {
    fn on_insert(&self, rows: &[DocumentRow]) {
        self.live.ingest(rows);
        let mut state = self.state.lock().expect("no holder of the tee lock panics");
        state.0 += rows.len();
        if state.0 >= COMMIT_EVERY {
            state.0 = 0;
            let live = &self.live;
            state.1.span("search.commit", |_| live.commit());
        }
    }
}

/// Everything one live phase produced.
struct Live {
    store: DocumentStore,
    index: LiveIndex,
    vocab: SharedVocabulary,
    documents: u64,
    quarantined: u64,
    wall_s: f64,
    cpu_s: f64,
    samples: Vec<Sample>,
    queries: u64,
    /// The `run_pipeline` span of the crawl thread.
    crawl_spans: Vec<Span>,
    /// One `serve.handle` span per request.
    handle_spans: Vec<Span>,
    /// One `search.commit` span per commit (the tee runs on the crawl
    /// thread, inside `run_pipeline`).
    commit_spans: Vec<Span>,
}

/// One live phase on fresh state: the crawl thread bulk-loads `urls`
/// through the flat single-thread pipeline into a store teed into a live
/// index, while this thread issues `requests` open loop until the crawl
/// (and its final commit) ends.
fn live_phase(
    world: &Arc<World>,
    urls: &[(String, Option<u32>)],
    requests: &[PortalRequest],
    rate_per_s: u64,
    traced: bool,
) -> Live {
    let origin = Instant::now();
    let (index, tee): (LiveIndex, Option<Arc<SpanTee>>) = if traced {
        let index = LiveIndex::new(0);
        let tee = Arc::new(SpanTee {
            live: index.clone(),
            state: Mutex::new((0, Tracer::on(origin))),
        });
        (index, Some(tee))
    } else {
        (LiveIndex::new(COMMIT_EVERY), None)
    };
    let store = match &tee {
        Some(tee) => DocumentStore::new().with_tee(tee.clone() as Arc<dyn IndexTee>),
        None => DocumentStore::new().with_tee(Arc::new(index.clone())),
    };
    let vocab = SharedVocabulary::new();
    let service = PortalService::new(store.clone(), index.clone());
    let active = AtomicBool::new(true);
    let mut gen_tracer = Tracer::new(traced, origin);
    let mut queries = 0u64;

    let cpu0 = sys::process_cpu_s();
    let (report, wall_s, crawl_spans, samples) = std::thread::scope(|s| {
        let crawl = s.spawn(|| {
            let mut tracer = Tracer::new(traced, origin);
            let t = Instant::now();
            let report = tracer.span("crawler.run_pipeline", |_| {
                let report = run_pipeline(
                    Arc::clone(world),
                    store.clone(),
                    urls.to_vec(),
                    &vocab,
                    &accept_all,
                    &CrawlTelemetry::default(),
                    &PipelineOptions::flat(1, BATCH),
                );
                index.commit();
                report
            });
            let wall_s = secs(t);
            active.store(false, Ordering::Release);
            (report, wall_s, tracer.take())
        });
        let mut reader = service.reader();
        let samples = loadgen::run_open_loop(rate_per_s, &active, |i| {
            let request = &requests[i as usize % requests.len()];
            queries += u64::from(matches!(request, PortalRequest::Query { .. }));
            let response = gen_tracer.span("serve.handle", |_| {
                service.handle(&mut reader, &vocab, request)
            });
            std::hint::black_box(response);
            true
        });
        let (report, wall_s, spans) = crawl.join().expect("crawl thread does not panic");
        (report, wall_s, spans, samples)
    });
    let cpu_s = sys::process_cpu_s() - cpu0;

    let commit_spans = tee.map_or_else(Vec::new, |tee| {
        let mut state = tee.state.lock().expect("no holder of the tee lock panics");
        state.1.take()
    });
    Live {
        store,
        index,
        vocab,
        documents: report.documents,
        quarantined: report.quarantined.len() as u64,
        wall_s,
        cpu_s,
        samples,
        queries,
        crawl_spans,
        handle_spans: gen_tracer.take(),
        commit_spans,
    }
}

/// Compare the final live snapshot with a batch-built index on the first
/// `n` mix queries: ids and score bits must match. Returns the check,
/// the batch build wall and each live-snapshot `rank` call's duration.
fn equivalence(live: &Live, mix: &QueryMix, n: u64) -> (Check, f64, Vec<u64>) {
    let t = Instant::now();
    let batch = InvertedIndex::build(&live.store);
    let build_s = secs(t);
    let snapshot = live.index.reader().snapshot();
    let mut rank_ns = Vec::new();
    let mut equal = true;
    for i in 0..n {
        let PortalRequest::Query { text, opts } = mix.request(i) else {
            continue;
        };
        let terms = analyze_query_with(|stem| live.vocab.lookup_term(stem).map(|id| id.0), &text);
        let t = Instant::now();
        let incremental = rank(
            &live.store,
            &*snapshot,
            &terms,
            &opts.filter,
            opts.ranking,
            opts.top_k,
        );
        rank_ns.push(t.elapsed().as_nanos() as u64);
        let full = rank(
            &live.store,
            &batch,
            &terms,
            &opts.filter,
            opts.ranking,
            opts.top_k,
        );
        equal &= incremental.len() == full.len()
            && incremental
                .iter()
                .zip(&full)
                .all(|(a, b)| a.doc_id == b.doc_id && a.score.to_bits() == b.score.to_bits());
    }
    let check = Check::that(
        "serve_live: final snapshot answers the mix queries bit-identically to the batch index",
        equal && !rank_ns.is_empty(),
    );
    (check, build_s, rank_ns)
}

/// Run one round.
pub fn round(ctx: &Ctx, tracer: &mut Tracer) -> Round {
    let sz = sizes(ctx.quick);
    let traced = tracer.enabled();
    let mut r = Round::default();

    // Set-up: world, work list, query mix.
    let t = Instant::now();
    let world = tracer.span("webworld.build", |_| {
        Arc::new(WorldConfig::portal(ctx.seed, sz.authors, sz.noise_scale).build())
    });
    let urls = clean_urls(&world, sz.url_stride);
    let mix = QueryMix::from_lexicons(
        ctx.seed,
        &[
            lexicon::DATABASE_RESEARCH,
            lexicon::DATA_MINING,
            lexicon::WEB_IR,
            lexicon::COMMON,
        ],
        &[0],
        64,
    );
    let requests: Vec<PortalRequest> = (0..4096).map(|i| mix.request(i)).collect();
    r.setup_s = secs(t);

    // Timed: the live phase (several, pooled, in a detail round).
    let phases = if ctx.detail { sz.detail_phases } else { 1 };
    let mut samples: Vec<Sample> = Vec::new();
    let (mut wall_s, mut cpu_s, mut documents, mut queries) = (0.0, 0.0, 0u64, 0u64);
    let mut last = None;
    for _ in 0..phases {
        let live = live_phase(&world, &urls, &requests, sz.rate_per_s, traced);
        wall_s += live.wall_s;
        cpu_s += live.cpu_s;
        documents += live.documents;
        queries += live.queries;
        r.failed += live.quarantined;
        samples.extend(&live.samples);
        last = Some(live);
    }
    r.rss_peak_mb = sys::rss_peak_mb();
    let live = last.expect("at least one live phase");
    r.timed_s = wall_s;
    r.pages_per_s = documents as f64 / wall_s;
    r.cpu_s_per_kpage = cpu_s * 1000.0 / documents.max(1) as f64;
    r.attempted = (urls.len() * phases) as u64 + samples.len() as u64;
    r.counts = vec![
        ("urls", urls.len() as u64),
        ("documents", live.documents),
        ("indexed", live.store.document_count() as u64),
    ];
    r.checks = vec![
        Check::eq(
            "serve_live: every stored document is in the store",
            live.store.document_count() as u64,
            live.documents,
        ),
        Check::that("serve_live: requests were issued", !samples.is_empty()),
    ];

    let latency = LatencySummary::of(samples.iter().map(|s| s.latency_ns).collect());
    let issue_late = {
        let mut late: Vec<u64> = samples.iter().map(|s| s.issue_late_ns).collect();
        late.sort_unstable();
        crate::stats::percentile(&late, 99.0).unwrap_or(0)
    };
    r.facts.insert("stored_pages", live.documents as f64);
    r.facts.insert("query_p50_ms", latency.p50_ns as f64 / 1e6);
    r.facts.insert("query_p95_ms", latency.p95_ns as f64 / 1e6);
    r.facts
        .insert("query_tail_ms", latency.tail_ns as f64 / 1e6);
    r.facts.insert("query_tail_pct", latency.tail_pct);
    r.facts.insert("query_samples", latency.samples as f64);
    r.facts
        .insert("query_late_share", loadgen::late_share(&samples));
    r.facts
        .insert("loadgen.late_p99_ms", issue_late as f64 / 1e6);
    r.facts.insert("serve.requests", samples.len() as f64);
    r.facts.insert(
        "serve.query_share",
        queries as f64 / samples.len().max(1) as f64,
    );

    // Output check and the `search` numbers it yields for free.
    if ctx.verify || traced {
        let (check, build_s, rank_ns) = equivalence(&live, &mix, sz.equivalence_queries);
        r.checks.push(check);
        let ranks = LatencySummary::of(rank_ns);
        r.facts.insert("search.batch_build_s", build_s);
        r.facts
            .insert("search.rank_us_p50", ranks.p50_ns as f64 / 1e3);
        r.facts
            .insert("search.rank_us_p95", ranks.p95_ns as f64 / 1e3);
    }

    // Capacity: one closed-loop client on the finished index.
    if ctx.detail {
        let service = PortalService::new(live.store.clone(), live.index.clone());
        let mut reader = service.reader();
        let (_, failed, wall) = loadgen::run_closed_loop(sz.static_requests, |i| {
            let request = &requests[i as usize % requests.len()];
            std::hint::black_box(service.handle(&mut reader, &live.vocab, request));
            true
        });
        r.attempted += sz.static_requests;
        r.failed += failed;
        r.facts
            .insert("static_qps", sz.static_requests as f64 / wall.as_secs_f64());
    }

    if traced {
        let top_s = totals_by_name(&live.crawl_spans).total_s("crawler.run_pipeline");
        let commit_ns: Vec<u64> = live.commit_spans.iter().map(Span::duration_ns).collect();
        let commit_s = commit_ns.iter().sum::<u64>() as f64 / 1e9;
        let handles = LatencySummary::of(live.handle_spans.iter().map(Span::duration_ns).collect());
        r.facts.insert("search.commit_s", commit_s);
        r.facts.insert("search.commits", commit_ns.len() as f64);
        r.facts.insert(
            "search.commit_last_ms",
            commit_ns.last().map_or(0.0, |&ns| ns as f64 / 1e6),
        );
        r.facts
            .insert("serve.handle_us_p50", handles.p50_ns as f64 / 1e3);
        r.facts
            .insert("serve.handle_us_p95", handles.p95_ns as f64 / 1e3);
        let outcome = replay::replay_stages(
            &ReplaySpec {
                world: &world,
                store: &live.store,
                judge: None,
                seed_vocab: None,
                fresh_store: &|_| DocumentStore::new(),
                frontier: None,
                threads: ctx.threads,
            },
            &mut r.facts,
        );
        r.checks.extend([
            Check::eq(
                "serve_live: replay fetched every stored page",
                outcome.fetched_ok,
                live.documents,
            ),
            Check::eq(
                "serve_live: replay loaded every stored row",
                outcome.loaded,
                live.documents,
            ),
        ]);
        r.facts.insert(
            "webworld.build_s",
            totals_by_name(tracer.spans()).total_s("webworld.build"),
        );
        // The flat pipeline has no frontier: its step is the batch.
        r.facts.insert("crawler.step_s", top_s - commit_s);
        r.facts
            .insert("crawler.steps", (urls.len() as f64 / BATCH as f64).ceil());
        r.facts.insert(
            "crawler.policy_s",
            (top_s - commit_s - outcome.stages_s).max(0.0),
        );
        r.facts.insert(
            "trace.coverage",
            (commit_s + outcome.stages_s.min(top_s - commit_s)) / top_s.max(1e-9),
        );
        r.spans = vec![
            ("main", tracer.take()),
            ("crawl", live.crawl_spans),
            ("tee", live.commit_spans),
            ("generator", live.handle_spans),
        ];
    }
    r
}
