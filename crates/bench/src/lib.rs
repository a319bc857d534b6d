//! Experiment harnesses regenerating every table and figure of the
//! paper's evaluation (Section 5), plus shared scaffolding for the
//! Criterion microbenches.
//!
//! | experiment | binary | paper artifact |
//! |---|---|---|
//! | portal generation | `exp_portal` | Table 1 (crawl summary), Tables 2/3 (precision/recall vs. the author directory) |
//! | expert search | `exp_expert` | Figure 4 (training seeds), Figure 5 (top-10 postprocessing results), baseline contrast |
//! | meta classification | `exp_meta` | §3.5 claim (precision ~80% → >90%), §2.3 feature-selection example |
//! | focus ablations | `exp_ablation` | §3.1-3.3 design lessons |
//! | fault scenarios | `exp_faults` | §4.2 failure handling: chaos resilience + checkpoint/resume convergence |
//!
//! Scaling: the synthetic web is orders of magnitude smaller than the
//! 2002 Web and runs on a virtual clock (host latencies approximate web
//! round trips; budgets are scaled 1:10 against the paper's wall clock,
//! preserving the 90-minute : 12-hour ratio). `EXPERIMENTS.md` records
//! the paper-vs-measured comparison for every artifact.
#![forbid(unsafe_code)]

pub mod ablation;
pub mod expert;
pub mod faults_exp;
pub mod gate;
pub mod meta_exp;
pub mod portal;
pub mod report;

use bingo_core::{BingoEngine, TopicId, TopicTree};
use bingo_webworld::{PageKind, World};

/// Content pages of true topic `topic` in page-id order, skipping the
/// first `skip` and keeping at most `take`: disjoint ranges give a
/// harness training and held-out evaluation pages. Like
/// [`populate_others`], this consults ground truth.
pub fn held_out(world: &World, topic: u32, skip: usize, take: usize) -> Vec<u64> {
    (0..world.page_count() as u64)
        .filter(|&id| {
            world.true_topic(id) == Some(topic) && world.page(id).kind == PageKind::Content
        })
        .skip(skip)
        .take(take)
        .collect()
}

/// Pick `n` noise content pages (the "Yahoo top-level categories"
/// material of Section 3.1) to populate the OTHERS class. The harness
/// plays the human role here, so it may consult ground truth.
pub fn populate_others(
    engine: &mut BingoEngine,
    world: &World,
    noise_topics: &[u32],
    n: usize,
) -> usize {
    let mut added = 0;
    let mut topic_idx = 0;
    // Round-robin over noise topics for diversity.
    let mut cursors = vec![0u64; noise_topics.len()];
    while added < n && !noise_topics.is_empty() {
        let t = noise_topics[topic_idx % noise_topics.len()];
        let cursor = &mut cursors[topic_idx % noise_topics.len()];
        topic_idx += 1;
        let mut found = false;
        while (*cursor as usize) < world.page_count() {
            let id = *cursor;
            *cursor += 1;
            if world.true_topic(id) == Some(t) && world.page(id).kind == PageKind::Content {
                if engine.add_others_url(world, &world.url_of(id)).is_ok() {
                    added += 1;
                    found = true;
                }
                break;
            }
        }
        if !found && cursors.iter().all(|&c| c as usize >= world.page_count()) {
            break;
        }
    }
    added
}

/// Standard single-topic engine setup: `engine` (fresh, possibly with
/// telemetry attached) gets one topic, trained from the given seed URLs
/// and `n_others` noise negatives.
pub fn single_topic_engine(
    mut engine: BingoEngine,
    world: &World,
    topic_name: &str,
    seed_urls: &[String],
    noise_topics: &[u32],
    n_others: usize,
) -> (BingoEngine, TopicId) {
    let topic = engine.add_topic(TopicTree::ROOT, topic_name);
    for url in seed_urls {
        engine
            .add_training_url(world, topic, url)
            .unwrap_or_else(|e| panic!("seed {url}: {e}"));
    }
    populate_others(&mut engine, world, noise_topics, n_others);
    engine.train().expect("initial training");
    (engine, topic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bingo_core::EngineConfig;
    use bingo_webworld::gen::WorldConfig;

    #[test]
    fn populate_others_draws_from_noise_topics() {
        let world = WorldConfig::small_test(61).build();
        let mut engine = BingoEngine::new(EngineConfig::default());
        engine.add_topic(TopicTree::ROOT, "t");
        let added = populate_others(&mut engine, &world, &[2, 3], 20);
        assert_eq!(added, 20);
        assert_eq!(engine.tree.others.len(), 20);
    }

    #[test]
    fn single_topic_engine_trains() {
        let world = WorldConfig::small_test(61).build();
        let seeds = vec![world.url_of(world.authors()[0].homepage)];
        let engine = BingoEngine::new(EngineConfig::default());
        let (engine, topic) = single_topic_engine(engine, &world, "db", &seeds, &[2, 3], 20);
        assert!(engine.model(topic).is_some());
    }
}
