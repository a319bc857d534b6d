//! E9: ablations of the design choices Sections 3.1-3.3 motivate.
//!
//! Each variant runs the same seeded portal crawl on the same world with
//! one mechanism altered, and reports harvest volume and precision
//! against the ground-truth topic labels.

use crate::populate_others;
use bingo_core::{BingoEngine, EngineConfig, TopicTree};
use bingo_crawler::{CrawlConfig, Crawler};
use bingo_store::DocumentStore;
use bingo_webworld::fetch::host_of_url;
use bingo_webworld::gen::WorldConfig;
use bingo_webworld::{PageKind, World};
use std::sync::Arc;

/// Which mechanism a variant alters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The full system: learning phase then harvesting, tunnelling,
    /// systematic OTHERS, archetype retraining.
    Full,
    /// Tunnelling disabled (`max_tunnel = 0`, Section 3.3).
    NoTunnelling,
    /// Never leave the sharp-focus learning configuration (Section 3.3).
    SharpOnly,
    /// Harvest from the start: no learning phase, no archetypes
    /// (Section 2.6).
    SoftOnly,
    /// Archetype promotion without the mean-confidence threshold
    /// (Section 3.2's topic-drift hazard).
    NoThreshold,
    /// OTHERS populated with a handful of arbitrary far-away documents
    /// instead of the systematic category sample (Section 3.1).
    NaiveOthers,
}

impl Variant {
    /// All variants in report order.
    pub const ALL: [Variant; 6] = [
        Variant::Full,
        Variant::NoTunnelling,
        Variant::SharpOnly,
        Variant::SoftOnly,
        Variant::NoThreshold,
        Variant::NaiveOthers,
    ];

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Full => "full system",
            Variant::NoTunnelling => "no tunnelling",
            Variant::SharpOnly => "sharp focus only (no harvest phase)",
            Variant::SoftOnly => "soft focus from the start",
            Variant::NoThreshold => "no archetype threshold",
            Variant::NaiveOthers => "naive OTHERS negatives",
        }
    }
}

/// Measured outcome of one variant.
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// The variant.
    pub variant: Variant,
    /// Pages stored.
    pub stored: u64,
    /// Pages positively classified into the topic.
    pub classified: u64,
    /// Classified pages whose ground-truth topic matches.
    pub true_positives: u64,
    /// Classified pages belonging to a *different* topic.
    pub false_positives: u64,
    /// Precision over topically labeled classified pages.
    pub precision: f64,
}

/// Shared experiment parameters.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// World seed.
    pub seed: u64,
    /// Author directory size.
    pub authors: usize,
    /// Learning budget (virtual ms).
    pub learning_ms: u64,
    /// Total budget (virtual ms).
    pub total_ms: u64,
}

impl Default for AblationConfig {
    fn default() -> Self {
        AblationConfig {
            seed: 99,
            authors: 300,
            learning_ms: 120_000,
            total_ms: 900_000,
        }
    }
}

/// Run one variant on a freshly built copy of the world.
pub fn run_variant(cfg: &AblationConfig, variant: Variant) -> VariantResult {
    let world = Arc::new(WorldConfig::portal(cfg.seed, cfg.authors, 1).build());
    let seeds: Vec<String> = world.authors()[..2]
        .iter()
        .map(|a| world.url_of(a.homepage))
        .collect();

    let mut engine = BingoEngine::new(EngineConfig {
        archetype_threshold: !matches!(variant, Variant::NoThreshold),
        ..EngineConfig::default()
    });
    let topic = engine.add_topic(TopicTree::ROOT, "database research");
    for url in &seeds {
        engine
            .add_training_url(&world, topic, url)
            .expect("seed fetch");
    }
    match variant {
        Variant::NaiveOthers => {
            // A handful of arbitrary far-away documents (the first
            // approach of Section 3.1).
            arbitrary_others(&mut engine, &world, 5);
        }
        _ => {
            // Systematic: ~50 documents across the noise categories.
            populate_others(&mut engine, &world, &[3, 4, 5, 6], 50);
        }
    }
    engine.train().expect("train");

    let seed_hosts = seeds
        .iter()
        .map(|u| host_of_url(u).unwrap().to_string())
        .collect();
    let mut learn_config = CrawlConfig {
        allowed_hosts: Some(seed_hosts),
        ..CrawlConfig::default()
    };
    if variant == Variant::NoTunnelling {
        learn_config.max_tunnel = 0;
    }
    let config = if variant == Variant::SoftOnly {
        learn_config.harvesting()
    } else {
        learn_config
    };
    let mut crawler = Crawler::new(world.clone(), config, DocumentStore::new());
    for url in &seeds {
        crawler.add_seed(url, Some(topic.0));
    }

    match variant {
        Variant::SoftOnly => {
            // The crawler already runs the harvesting config; this
            // only moves the engine into its harvesting phase.
            engine.switch_to_harvesting(&mut crawler);
            engine.crawl_until(&mut crawler, cfg.total_ms, 0);
        }
        Variant::SharpOnly => {
            engine.crawl_until(&mut crawler, cfg.learning_ms, 0);
            engine.retrain(&mut crawler);
            // Stay sharp: lift only the domain restriction so the crawl
            // can proceed, but keep sharp focus and depth-first order.
            crawler.config.allowed_hosts = None;
            crawler.config.max_depth = 0;
            engine.crawl_until(&mut crawler, cfg.total_ms, 0);
        }
        _ => {
            engine.crawl_until(&mut crawler, cfg.learning_ms, 0);
            engine.retrain(&mut crawler);
            // `harvesting()` keeps `max_tunnel`: NoTunnelling stays at 0.
            engine.switch_to_harvesting(&mut crawler);
            engine.crawl_until(&mut crawler, cfg.total_ms, 0);
        }
    }

    let mut tp = 0u64;
    let mut fp = 0u64;
    let mut classified = 0u64;
    crawler.store().for_each_document(|row| {
        if row.topic == Some(topic.0) {
            classified += 1;
            match world.true_topic(row.id) {
                Some(0) => tp += 1,
                Some(_) => fp += 1,
                None => {}
            }
        }
    });
    VariantResult {
        variant,
        stored: crawler.stats().stored_pages,
        classified,
        true_positives: tp,
        false_positives: fp,
        precision: if tp + fp > 0 {
            tp as f64 / (tp + fp) as f64
        } else {
            0.0
        },
    }
}

/// Topic-drift demonstration (Section 3.2) on the expert world: with the
/// archetype threshold disabled, the needle pages (which blend recovery
/// and open-source vocabulary) get promoted as archetypes and drag the
/// crawl into the open-source topic; the threshold prevents it.
#[derive(Debug, Clone)]
pub struct DriftResult {
    /// Whether the threshold was enforced.
    pub threshold: bool,
    /// Pages classified into the ARIES topic.
    pub classified: u64,
    /// Classified pages truly about recovery (the intended topic).
    pub on_topic: u64,
    /// Classified pages from the open-source topic (the drift target).
    pub drifted: u64,
}

/// Run the §3.2 drift experiment once per threshold setting.
pub fn run_threshold_drift(seed: u64, threshold: bool) -> DriftResult {
    use bingo_webworld::gen::WorldConfig as WC;
    let world = Arc::new(WC::expert(seed).build());
    let seed_names = [
        "seed:bell-labs-slides",
        "seed:cmu-lecture",
        "seed:harvard-reading",
        "seed:brandeis-abstract",
        "mohan-page",
        "seed:stanford-seminar",
        "seed:vldb-paper",
    ];
    let mut engine = BingoEngine::new(EngineConfig {
        archetype_threshold: threshold,
        ..EngineConfig::default()
    });
    let topic = engine.add_topic(TopicTree::ROOT, "ARIES");
    for name in seed_names {
        let url = world.url_of(world.named_page(name).expect("scenario"));
        engine.add_training_url(&world, topic, &url).expect("seed");
    }
    populate_others(&mut engine, &world, &[3, 4], 30);
    engine.train().expect("train");
    let mut crawler = Crawler::new(
        world.clone(),
        CrawlConfig {
            max_depth: 0,
            ..CrawlConfig::default()
        },
        DocumentStore::new(),
    );
    for name in seed_names {
        let url = world.url_of(world.named_page(name).unwrap());
        crawler.add_seed(&url, Some(topic.0));
    }
    engine.crawl_until(&mut crawler, 120_000, 0);
    engine.retrain(&mut crawler);
    engine.switch_to_harvesting(&mut crawler);
    // Periodic retraining lets unguarded drift compound: the first round
    // promotes mixed-vocabulary pages, the next rounds promote documents
    // of the neighbouring topic outright.
    engine.crawl_until(&mut crawler, 900_000, 100);

    let mut classified = 0;
    let mut on_topic = 0;
    let mut drifted = 0;
    crawler.store().for_each_document(|row| {
        if row.topic == Some(topic.0) {
            classified += 1;
            match world.true_topic(row.id) {
                Some(1) => on_topic += 1,
                Some(2) => drifted += 1,
                _ => {}
            }
        }
    });
    DriftResult {
        threshold,
        classified,
        on_topic,
        drifted,
    }
}

/// "Arbitrarily chosen documents that were semantically far away": a few
/// pages from a single far-away category.
fn arbitrary_others(engine: &mut BingoEngine, world: &World, n: usize) {
    let mut added = 0;
    for id in 0..world.page_count() as u64 {
        if world.true_topic(id) == Some(5) && world.page(id).kind == PageKind::Content {
            if engine.add_others_url(world, &world.url_of(id)).is_ok() {
                added += 1;
            }
            if added >= n {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> AblationConfig {
        AblationConfig {
            seed: 5,
            authors: 80,
            learning_ms: 60_000,
            total_ms: 300_000,
        }
    }

    #[test]
    fn tunnelling_increases_harvest() {
        let cfg = quick_cfg();
        let full = run_variant(&cfg, Variant::Full);
        let no_tunnel = run_variant(&cfg, Variant::NoTunnelling);
        assert!(
            full.classified > no_tunnel.classified,
            "tunnelling should reach more topical pages: {} vs {}",
            full.classified,
            no_tunnel.classified
        );
    }

    #[test]
    fn soft_harvest_beats_sharp_only_on_volume() {
        let cfg = quick_cfg();
        let full = run_variant(&cfg, Variant::Full);
        assert!(full.classified > 0);
        assert!(full.true_positives > 0);
        assert!(full.precision > 0.5, "precision {}", full.precision);
    }
}
