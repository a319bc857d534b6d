//! The expert-search experiment of Section 5.3 (Figures 4 and 5).
//!
//! A "needle-in-a-haystack" query: find public-domain open-source
//! implementations of the ARIES recovery algorithm. The procedure
//! mirrors the paper:
//!
//! 1. Query a conventional keyword engine over the whole corpus for
//!    "aries recovery method/algorithm"; the user selects 7 reasonable
//!    seed documents from the top ranks (Figure 4).
//! 2. A short focused crawl (10 virtual minutes) from those seeds.
//! 3. Postprocess with the local search engine: query "source code
//!    release" with cosine ranking and inspect the top 10 (Figure 5).
//!
//! The baseline contrast: the direct keyword query "public domain open
//! source aries recovery" against the whole corpus returns no useful
//! system pages in the top 10 — exactly the failure mode that motivates
//! focused crawling.

use crate::populate_others;
use bingo_core::{BingoEngine, EngineConfig, TopicTree};
use bingo_crawler::{CrawlConfig, CrawlStats, Crawler};
use bingo_search::{QueryOptions, RankingScheme, SearchEngine};
use bingo_store::{DocumentRow, DocumentStore};
use bingo_textproc::{analyze_html, ContentRegistry, Vocabulary};
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::{FetchOutcome, World};
use std::sync::Arc;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct ExpertExperimentConfig {
    /// World seed.
    pub seed: u64,
    /// Focused-crawl budget in virtual ms (paper: 10 minutes).
    pub crawl_ms: u64,
    /// OTHERS negatives.
    pub n_others: usize,
}

impl Default for ExpertExperimentConfig {
    fn default() -> Self {
        ExpertExperimentConfig {
            seed: 2003,
            crawl_ms: 600_000,
            n_others: 40,
        }
    }
}

/// One ranked result row (Figure 5 style).
#[derive(Debug, Clone)]
pub struct RankedResult {
    /// Ranking score.
    pub score: f32,
    /// URL.
    pub url: String,
}

/// Experiment outcome.
#[derive(Debug, Clone)]
pub struct ExpertOutcome {
    /// The seed documents the "user" selected (Figure 4).
    pub seeds: Vec<String>,
    /// Crawl counters of the focused crawl.
    pub stats: CrawlStats,
    /// Documents positively classified into the ARIES topic.
    pub positive: u64,
    /// Top-10 for "source code release" over the crawl result (Figure 5).
    pub focused_top10: Vec<RankedResult>,
    /// Baseline: direct keyword query over the whole corpus.
    pub baseline_top10: Vec<RankedResult>,
    /// How many of the known needle pages (Shore/MiniBase/Exodus
    /// analogs) appear in the focused top-10.
    pub needles_in_focused_top10: usize,
    /// Same count for the baseline top-10.
    pub needles_in_baseline_top10: usize,
}

/// Build a conventional "Google-style" index over the *entire* corpus:
/// every page analyzed and indexed, no focusing. This is the baseline
/// the paper contrasts against.
pub fn build_global_index(world: &World, vocab: &mut Vocabulary) -> (DocumentStore, SearchEngine) {
    let registry = ContentRegistry::new();
    let store = DocumentStore::new();
    for id in 0..world.page_count() as u64 {
        let meta = world.page(id);
        if meta.size_hint.is_some() || meta.redirect_to.is_some() {
            continue;
        }
        let url = world.url_of(id);
        let FetchOutcome::Ok(resp) = world.fetch(&url, 0) else {
            continue;
        };
        let Ok(html) = registry.to_html(resp.mime, &resp.payload) else {
            continue;
        };
        let doc = analyze_html(&html, vocab);
        let _ = store.insert_document(DocumentRow {
            id,
            url,
            host: meta.host,
            mime: resp.mime,
            depth: 0,
            title: doc.title,
            topic: None,
            confidence: 0.0,
            term_freqs: doc.term_freqs.iter().map(|&(t, f)| (t.0, f)).collect(),
            size: resp.size as usize,
            fetched_at: 0,
        });
    }
    let engine = SearchEngine::build(&store);
    (store, engine)
}

/// The scenario's needle pages: open-source ARIES implementations.
pub const NEEDLE_PAGES: [&str; 5] = [
    "shore-home",
    "shore-node5",
    "minibase-home",
    "minibase-logmgr",
    "exodus-home",
];

fn needle_urls(world: &World) -> Vec<String> {
    NEEDLE_PAGES
        .iter()
        .filter_map(|n| world.named_page(n))
        .map(|p| world.url_of(p))
        .collect()
}

/// The seven Figure-4 seed pages.
pub const SEED_PAGES: [&str; 7] = [
    "seed:bell-labs-slides",
    "seed:cmu-lecture",
    "seed:harvard-reading",
    "seed:brandeis-abstract",
    "mohan-page",
    "seed:stanford-seminar",
    "seed:vldb-paper",
];

/// Run the expert-search experiment.
pub fn run(cfg: &ExpertExperimentConfig) -> ExpertOutcome {
    let world = Arc::new(WorldConfig::expert(cfg.seed).build());
    let needles = needle_urls(&world);

    // --- Step 0: the baseline keyword engine over the whole corpus.
    let mut global_vocab = Vocabulary::new();
    let (_global_store, global_engine) = build_global_index(&world, &mut global_vocab);
    let baseline_top10: Vec<RankedResult> = global_engine
        .query(
            &global_vocab,
            "public domain open source aries recovery",
            &QueryOptions {
                ranking: RankingScheme::Cosine,
                top_k: 10,
                filter: bingo_search::TopicFilter::Any,
            },
        )
        .into_iter()
        .map(|h| RankedResult {
            score: h.score,
            url: h.url,
        })
        .collect();

    // --- Step 1: the user selects the 7 seeds (Figure 4). The scenario
    // pins them; sanity: they must rank well for the bootstrap query.
    let seeds: Vec<String> = SEED_PAGES
        .iter()
        .map(|n| world.url_of(world.named_page(n).expect("scenario page")))
        .collect();

    // --- Step 2: focused crawl from the seeds. Unlike the §5.2 portal
    // run, the archetype-confidence threshold stays ON here: the needle
    // pages blend recovery and open-source vocabulary, and promoting
    // them as archetypes drags the whole crawl into the open-source
    // topic — the §3.2 topic-drift failure mode.
    let mut engine = BingoEngine::new(EngineConfig::default());
    let topic = engine.add_topic(TopicTree::ROOT, "ARIES");
    for url in &seeds {
        engine
            .add_training_url(&world, topic, url)
            .unwrap_or_else(|e| panic!("seed {url}: {e}"));
    }
    populate_others(&mut engine, &world, &[3, 4], cfg.n_others);
    engine.train().expect("training");

    let mut crawler = Crawler::new(
        world.clone(),
        CrawlConfig {
            max_depth: 0,
            ..CrawlConfig::default()
        },
        DocumentStore::new(),
    );
    for url in &seeds {
        crawler.add_seed(url, Some(topic.0));
    }
    // Short learning slice, one retraining, then harvest — compressed
    // into the 10-minute budget like the paper's expert crawl.
    engine.crawl_until(&mut crawler, cfg.crawl_ms / 5, 0);
    engine.retrain(&mut crawler);
    engine.switch_to_harvesting(&mut crawler);
    engine.crawl_until(&mut crawler, cfg.crawl_ms, 0);

    // --- Step 3: postprocess with the local search engine.
    let local = SearchEngine::build(crawler.store());
    // "Keyword search filtering with relevance ranking based on cosine
    // similarity", filtered at the ARIES class of the topic hierarchy.
    let focused_top10: Vec<RankedResult> = local
        .query(
            &engine.vocab,
            "source code release",
            &QueryOptions {
                ranking: RankingScheme::Cosine,
                top_k: 10,
                filter: bingo_search::TopicFilter::Exact(topic.0),
            },
        )
        .into_iter()
        .map(|h| RankedResult {
            score: h.score,
            url: h.url,
        })
        .collect();

    let count_needles = |results: &[RankedResult]| {
        results
            .iter()
            .filter(|r| needles.iter().any(|n| &r.url == n))
            .count()
    };

    let positive = crawler.stats().positively_classified;
    ExpertOutcome {
        seeds,
        stats: crawler.stats().clone(),
        positive,
        needles_in_focused_top10: count_needles(&focused_top10),
        needles_in_baseline_top10: count_needles(&baseline_top10),
        focused_top10,
        baseline_top10,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expert_search_finds_the_needles() {
        let out = run(&ExpertExperimentConfig {
            seed: 7,
            crawl_ms: 600_000,
            n_others: 30,
        });
        assert_eq!(out.seeds.len(), 7);
        assert!(out.stats.visited_urls > 100);
        assert!(out.positive > 10, "only {} positive", out.positive);
        assert!(
            out.needles_in_focused_top10 >= 2,
            "focused top-10 missed the needles: {:#?}",
            out.focused_top10
        );
        assert!(
            out.needles_in_focused_top10 > out.needles_in_baseline_top10,
            "focused crawl must beat the keyword baseline"
        );
    }
}
