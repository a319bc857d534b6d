//! Stage replay: the pages a workload stored are pushed again through
//! each layer's public function alone, so each layer gets a wall time
//! that no other layer shares.
//!
//! The replay runs after the traced round, on the round's own world and
//! store. Its counts must equal the round's (`ReplayOutcome` carries
//! them for the workload's correctness checks). A layer's replayed time
//! is an upper bound on what that layer cost inside the crawl step: the
//! replay runs it cold and in bulk, the crawl interleaves it with the
//! other stages.

use crate::metrics::Facts;
use bingo_core::{BingoEngine, TopicId};
use bingo_crawler::dedup::path_of_url;
use bingo_crawler::pipeline::page_context;
use bingo_crawler::{
    BatchJudge, Dedup, FetchedDoc, Frontier, PageContext, QueueEntry, SpillConfig,
};
use bingo_graph::{expand_base_set, Hits};
use bingo_ml::{FeatureSelection, LinearSvm, TrainingSet};
use bingo_store::{BulkLoader, DocumentRow, DocumentStore, LinkRow};
use bingo_textproc::fxhash;
use bingo_textproc::{
    analyze_html, AnalyzedDocument, ContentRegistry, DocumentFeatures, SharedVocabulary,
    SparseVector, TermId, Vocabulary,
};
use bingo_webworld::{FetchOutcome, World};
use std::sync::Arc;
use std::time::Instant;

/// Documents replayed per pass, so the fetched payloads of a large
/// crawl are never all resident.
const CHUNK: usize = 2048;

/// The batch size of every workload's pipeline.
pub const BATCH: usize = 64;

/// Fetch attempts tried per stored URL (the crawl's `max_retries` + 1:
/// flaky hosts answer on a later attempt).
const FETCH_ATTEMPTS: u32 = 4;

/// What to replay and against what.
pub struct ReplaySpec<'a> {
    /// The world the round crawled.
    pub world: &'a Arc<World>,
    /// The store the round filled.
    pub store: &'a DocumentStore,
    /// The classifier of the round, or `None` for an accept-all judge
    /// (the classify stage is then skipped and reports 0).
    pub judge: Option<&'a dyn BatchJudge>,
    /// The dictionary the round's crawl started from (the engine's after
    /// initial training), so replayed term ids mean what the judge's
    /// models expect; `None` starts from an empty one.
    pub seed_vocab: Option<&'a Vocabulary>,
    /// Makes an empty store of the round's kind; the argument tags the
    /// directory of a disk-backed one.
    pub fresh_store: &'a dyn Fn(&str) -> DocumentStore,
    /// Frontier of the round's kind, `(incoming_cap, spill)`; `None` for
    /// the flat pipeline, which has no frontier and offers only its work
    /// list to the URL filter.
    pub frontier: Option<(usize, Option<SpillConfig>)>,
    /// Threads of the parallel legs (`nproc`).
    pub threads: usize,
}

/// Counts the replay produced, for comparison with the round's.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Stored URLs that fetched `Ok` again.
    pub fetched_ok: u64,
    /// Documents converted and analyzed.
    pub analyzed: u64,
    /// Documents the judge accepted (0 without a judge).
    pub positives: u64,
    /// Document rows the fresh store accepted.
    pub loaded: u64,
    /// Link rows the fresh store holds.
    pub link_rows: u64,
    /// Sum of the single-thread stage times, s.
    pub stages_s: f64,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Run `work(thread_index)` on `threads` scoped threads and return the
/// wall of the whole fan-out.
fn parallel_wall(threads: usize, work: impl Fn(usize) + Sync) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let work = &work;
            s.spawn(move || work(t));
        }
    });
    secs(start)
}

fn speedup(one_thread_s: f64, n_thread_s: f64) -> f64 {
    if n_thread_s > 0.0 {
        one_thread_s / n_thread_s
    } else {
        0.0
    }
}

/// Replay every stored page through fetch → convert → analyze →
/// classify → bulk-load, and the link stream through dedup and frontier.
pub fn replay_stages(spec: &ReplaySpec<'_>, facts: &mut Facts) -> ReplayOutcome {
    let world = spec.world.as_ref();
    let threads = spec.threads.max(1);
    let rows: Vec<DocumentRow> = spec.store.all_documents();
    let links: Vec<LinkRow> = spec.store.all_links();
    let registry = ContentRegistry::new();
    let mut out = ReplayOutcome::default();

    let (mut fetch_s, mut convert_s, mut analyze_s, mut analyze_nt_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut classify_s, mut classify_nt_s, mut dedup_s) = (0.0, 0.0, 0.0);
    let (mut fetch_calls, mut fetch_failed, mut dedup_ops) = (0u64, 0u64, 0u64);
    let mut vocab = spec.seed_vocab.cloned().unwrap_or_default();
    let shared_vocab = spec
        .seed_vocab
        .map_or_else(SharedVocabulary::new, SharedVocabulary::seeded);
    let mut dedup = Dedup::new();

    for chunk in rows.chunks(CHUNK) {
        // webworld: fetch.
        let t = Instant::now();
        let mut fetched: Vec<FetchedDoc> = Vec::with_capacity(chunk.len());
        for row in chunk {
            for attempt in 0..FETCH_ATTEMPTS {
                fetch_calls += 1;
                match world.fetch(&row.url, attempt) {
                    FetchOutcome::Ok(response) if !response.truncated => {
                        fetched.push(FetchedDoc {
                            response,
                            depth: 0,
                            src_topic: None,
                            anchor_terms: Vec::new(),
                            neighbor_terms: Vec::new(),
                            fetched_at: 0,
                        });
                        break;
                    }
                    _ => fetch_failed += 1,
                }
            }
        }
        fetch_s += secs(t);
        out.fetched_ok += fetched.len() as u64;

        // crawler: response fingerprints.
        let t = Instant::now();
        for f in &fetched {
            let r = &f.response;
            std::hint::black_box(dedup.mark_response(r.ip, path_of_url(&r.url), r.size));
        }
        dedup_s += secs(t);
        dedup_ops += fetched.len() as u64;

        // textproc: convert, then analyze on one thread and on `threads`.
        let t = Instant::now();
        let htmls: Vec<String> = fetched
            .iter()
            .filter_map(|f| registry.to_html(f.response.mime, &f.response.payload).ok())
            .collect();
        convert_s += secs(t);

        let t = Instant::now();
        let docs: Vec<AnalyzedDocument> = htmls
            .iter()
            .map(|html| analyze_html(html, &mut vocab))
            .collect();
        analyze_s += secs(t);
        out.analyzed += docs.len() as u64;

        analyze_nt_s += parallel_wall(threads, |t| {
            let mut interner = &shared_vocab;
            for html in htmls.iter().skip(t).step_by(threads) {
                std::hint::black_box(analyze_html(html, &mut interner));
            }
        });

        // core: classify in pipeline batches, same two legs.
        if let Some(judge) = spec.judge {
            if docs.len() == fetched.len() {
                let ctxs: Vec<PageContext> = fetched.iter().map(page_context).collect();
                let t = Instant::now();
                for (d, c) in docs.chunks(BATCH).zip(ctxs.chunks(BATCH)) {
                    let judgments = judge.judge_batch(d, c);
                    out.positives += judgments.iter().filter(|j| j.topic.is_some()).count() as u64;
                }
                classify_s += secs(t);
                let batches: Vec<(&[AnalyzedDocument], &[PageContext])> =
                    docs.chunks(BATCH).zip(ctxs.chunks(BATCH)).collect();
                classify_nt_s += parallel_wall(threads, |t| {
                    for (d, c) in batches.iter().skip(t).step_by(threads) {
                        std::hint::black_box(judge.judge_batch(d, c));
                    }
                });
            }
        }
    }

    // store: bulk-load the stored rows into a fresh store of the same
    // kind, documents before links as the pipeline does.
    let fresh = (spec.fresh_store)("load-1t");
    let t = Instant::now();
    let mut loader = BulkLoader::with_batch_size(fresh.clone(), BATCH);
    for row in &rows {
        loader.add_document(row.clone());
    }
    loader.flush();
    for link in &links {
        loader.add_link(link.clone());
    }
    loader.flush();
    let _ = fresh.seal_now();
    let load_s = secs(t);
    out.loaded = fresh.document_count() as u64;
    out.link_rows = fresh.link_count() as u64;
    drop(loader);
    drop(fresh);

    let fresh = (spec.fresh_store)("load-nt");
    let load_nt_s = parallel_wall(threads, |t| {
        let mut loader = BulkLoader::with_batch_size(fresh.clone(), BATCH);
        for batch in rows.chunks(BATCH).skip(t).step_by(threads) {
            for row in batch {
                loader.add_document(row.clone());
            }
            loader.flush();
        }
        for batch in links.chunks(BATCH).skip(t).step_by(threads) {
            for link in batch {
                loader.add_link(link.clone());
            }
            loader.flush();
        }
    }) + {
        let t = Instant::now();
        let _ = fresh.seal_now();
        secs(t)
    };
    drop(fresh);

    // crawler: the URL stream of the crawl, rebuilt from the link rows
    // in store order — every target is offered to the URL filter, new
    // ones are queued, and one URL is popped per source document.
    let (mut frontier_s, mut frontier_ops, mut spilled_peak) = (0.0, 0u64, 0usize);
    if let Some((incoming_cap, spill)) = spec.frontier.clone() {
        // Each pass is timed as a whole: a timer per operation would
        // cost as much as the operation.
        let t = Instant::now();
        let fresh_urls: Vec<bool> = links.iter().map(|l| dedup.mark_url(&l.to_url)).collect();
        dedup_s += secs(t);
        dedup_ops += links.len() as u64;

        let mut frontier = Frontier::with_spill(1, incoming_cap, 1_000, spill);
        let mut last_from = None;
        let t = Instant::now();
        for (i, (link, fresh_url)) in links.iter().zip(fresh_urls).enumerate() {
            if fresh_url {
                frontier.push(QueueEntry {
                    priority: (fxhash::hash_one(&link.to) % 1000) as f32 / 1000.0,
                    src_page: link.from,
                    ..QueueEntry::seed(&link.to_url, Some(0))
                });
                frontier_ops += 1;
            }
            if last_from.replace(link.from) != Some(link.from) {
                frontier_ops += u64::from(frontier.pop().is_some());
            }
            if i % 256 == 0 {
                spilled_peak = spilled_peak.max(frontier.spilled_len());
            }
        }
        while frontier.pop().is_some() {
            frontier_ops += 1;
        }
        frontier_s = secs(t);
    } else {
        let t = Instant::now();
        for row in &rows {
            std::hint::black_box(dedup.mark_url(&row.url));
        }
        dedup_s += secs(t);
        dedup_ops += rows.len() as u64;
    }

    // store: point reads over a fixed sample of ids.
    let sample: Vec<u64> = rows
        .iter()
        .step_by((rows.len() / 2000).max(1))
        .map(|r| r.id)
        .collect();
    let t = Instant::now();
    for &id in &sample {
        std::hint::black_box(spec.store.document(id));
    }
    let point_read_us = secs(t) * 1e6 / sample.len().max(1) as f64;

    out.stages_s = fetch_s + convert_s + analyze_s + classify_s + load_s + frontier_s + dedup_s;
    facts.insert("webworld.fetch_s", fetch_s);
    facts.insert("webworld.fetch_calls", fetch_calls as f64);
    facts.insert("webworld.fetch_failed", fetch_failed as f64);
    facts.insert("textproc.convert_s", convert_s);
    facts.insert("textproc.analyze_s", analyze_s);
    facts.insert("textproc.docs", out.analyzed as f64);
    facts.insert("textproc.vocab_terms", vocab.len() as f64);
    facts.insert("textproc.analyze_speedup", speedup(analyze_s, analyze_nt_s));
    facts.insert("core.classify_s", classify_s);
    if spec.judge.is_some() {
        facts.insert("core.classified", out.analyzed as f64);
        facts.insert(
            "core.positive_share",
            out.positives as f64 / out.analyzed.max(1) as f64,
        );
        facts.insert("core.classify_speedup", speedup(classify_s, classify_nt_s));
    }
    facts.insert("store.load_s", load_s);
    facts.insert("store.load_rows", out.loaded as f64);
    facts.insert("store.load_speedup", speedup(load_s, load_nt_s));
    facts.insert("store.point_read_us", point_read_us);
    facts.insert("crawler.frontier_s", frontier_s);
    facts.insert("crawler.frontier_ops", frontier_ops as f64);
    facts.insert("crawler.frontier_spilled_peak", spilled_peak as f64);
    facts.insert("crawler.dedup_s", dedup_s);
    facts.insert("crawler.dedup_ops", dedup_ops as f64);
    out
}

/// Replay the `ml` layer on the engine's current training data: MI
/// feature selection and SVM training of every feature space of
/// `topic`'s model, then per-document SVM scoring of `sample`.
/// Returns the replayed training time (selection + SVM), s.
pub fn replay_ml(
    engine: &BingoEngine,
    topic: TopicId,
    sample: &[DocumentFeatures],
    facts: &mut Facts,
) -> f64 {
    let Some(model) = engine.model(topic) else {
        return 0.0;
    };
    let positives: Vec<&DocumentFeatures> = engine
        .tree
        .subtree_training(topic)
        .into_iter()
        .map(|d| &d.features)
        .collect();
    let mut negatives: Vec<&DocumentFeatures> = Vec::new();
    for sibling in engine.tree.siblings(topic) {
        negatives.extend(
            engine
                .tree
                .subtree_training(sibling)
                .into_iter()
                .map(|d| &d.features),
        );
    }
    negatives.extend(engine.tree.others.iter().map(|d| &d.features));

    let mut svm_cfg = engine.config.model.svm;
    svm_cfg.positive_cost_factor =
        (negatives.len() as f32 / positives.len().max(1) as f32).clamp(1.0, 50.0);
    let trainer = LinearSvm::new(svm_cfg);
    let (mut mi_s, mut svm_s, mut score_s, mut scored) = (0.0, 0.0, 0.0, 0u64);
    for space in &model.spaces {
        let occurrences: Vec<(Vec<(u32, u32)>, bool)> = positives
            .iter()
            .map(|f| (f.occurrences(space.kind), true))
            .chain(negatives.iter().map(|f| (f.occurrences(space.kind), false)))
            .collect();
        let labeled: Vec<(&[(u32, u32)], bool)> = occurrences
            .iter()
            .map(|(o, positive)| (o.as_slice(), *positive))
            .collect();
        let t = Instant::now();
        let selector = FeatureSelection::new(engine.config.model.selection).select(&labeled);
        mi_s += secs(t);

        let mut set = TrainingSet::new();
        for (occ, positive) in &occurrences {
            let pairs: Vec<(TermId, u32)> = occ.iter().map(|&(i, f)| (TermId(i), f)).collect();
            set.push(selector.project(&space.weighter.weigh(&pairs)), *positive);
        }
        let t = Instant::now();
        std::hint::black_box(trainer.train(&set));
        svm_s += secs(t);

        let vectors: Vec<SparseVector> = sample.iter().map(|f| space.vector(f)).collect();
        let t = Instant::now();
        std::hint::black_box(space.svm.confidence_batch(&vectors));
        score_s += secs(t);
        scored += vectors.len() as u64;
    }
    facts.insert("ml.mi_select_s", mi_s);
    facts.insert("ml.svm_train_s", svm_s);
    facts.insert("ml.svm_score_us", score_s * 1e6 / scored.max(1) as f64);
    mi_s + svm_s
}

/// Replay the `graph` layer as one retraining uses it: expand the
/// topic's stored documents into the HITS node set and run HITS over the
/// world's links. Returns the wall, s.
pub fn replay_hits(
    engine: &BingoEngine,
    world: &World,
    store: &DocumentStore,
    topic: TopicId,
) -> f64 {
    let mut base = store.topic_documents(topic.0);
    base.truncate(engine.config.max_base_set);
    if base.is_empty() {
        return 0.0;
    }
    let t = Instant::now();
    let nodes = expand_base_set(world, &base, engine.config.max_predecessors);
    std::hint::black_box(Hits::default().run(world, &nodes));
    secs(t)
}

/// Features of the first `n` stored documents, rebuilt from their rows
/// (body terms only), as scoring input for [`replay_ml`].
pub fn sample_features(store: &DocumentStore, n: usize) -> Vec<DocumentFeatures> {
    let mut out = Vec::with_capacity(n);
    store.for_each_document(|row| {
        if out.len() < n {
            out.push(bingo_core::model::features_from_term_freqs(&row.term_freqs));
        }
    });
    out
}
