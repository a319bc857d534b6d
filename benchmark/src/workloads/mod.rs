//! The four workloads and what they share.
//!
//! A workload is a function from a context to one [`Round`]: it sets up
//! from the seed, runs its timed section once, checks its own outputs
//! and — when the tracer is on — replays the stored pages layer by
//! layer. The driver in `lib.rs` repeats rounds and takes medians.

pub mod pipeline_mt;
pub mod portal_focused;
pub mod scale_durable;
pub mod serve_live;

use crate::metrics::{Check, Facts};
use crate::trace::Span;
use bingo_core::{BingoEngine, TopicId};
use bingo_crawler::Judgment;
use bingo_textproc::AnalyzedDocument;
use bingo_webworld::{HostBehavior, PageKind, World};
use std::path::PathBuf;
use std::time::Instant;

/// What a round needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: worlds, query mixes and id samples derive from it.
    pub seed: u64,
    /// Page counts ÷ 10 (the size the benchmark's own tests run).
    pub quick: bool,
    /// Where scratch directories and trace files go.
    pub out_dir: PathBuf,
    /// Threads of every parallel leg (`nproc`).
    pub threads: usize,
    /// Also measure the numbers that only the traced report prints
    /// (static closed loop, recovery): on for the untraced reference
    /// round of a traced run, off in the timed run.
    pub detail: bool,
    /// Run the once-per-invocation output checks (index equivalence,
    /// read-back) in this round.
    pub verify: bool,
}

/// What one round measured.
#[derive(Debug, Default)]
pub struct Round {
    /// Wall from the start of the round to the start of the timed
    /// section: world build, initial training, scratch directories.
    pub setup_s: f64,
    /// Wall of the timed section.
    pub timed_s: f64,
    /// Stored pages per wall second of the timed section.
    pub pages_per_s: f64,
    /// Process CPU seconds per thousand pages the timed section stored.
    pub cpu_s_per_kpage: f64,
    /// `VmHWM` of the process when the timed section ended, MB.
    pub rss_peak_mb: f64,
    /// Operations attempted: URLs taken off the work list or frontier,
    /// portal requests, session saves and resumes.
    pub attempted: u64,
    /// Operations that failed: quarantined URLs, failed saves/resumes.
    /// Fetch errors the simulated web scripts (dead and flaky hosts) are
    /// inputs, not failures; they are counted in `webworld.fetch_failed`.
    pub failed: u64,
    /// Counts that are a pure function of the seed: every round of one
    /// invocation must report the same values.
    pub counts: Vec<(&'static str, u64)>,
    /// Output checks of this round.
    pub checks: Vec<Check>,
    /// Workload-specific and per-layer values.
    pub facts: Facts,
    /// Spans per thread (`(thread name, spans)`), when traced.
    pub spans: Vec<(&'static str, Vec<Span>)>,
}

/// Seconds since `since`.
pub fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// The accept-all judge of the workloads that bypass `ml`/`core`.
pub fn accept_all(_: &AnalyzedDocument, _: &bingo_crawler::PageContext) -> Judgment {
    Judgment {
        topic: Some(0),
        confidence: 1.0,
    }
}

/// Every `stride`-th URL of the world that fetches cleanly: no
/// truncation, no redirect, a host that behaves. Striding keeps the
/// topic mix of the whole world at any sample size.
///
/// Page 0 is left out: `run_pipeline` gives its seed URLs source page 0,
/// so once page 0 itself is stored every later document is judged with
/// page 0's top terms as neighbour terms — how many depends on which
/// batches were already in flight, which makes the judgments of a
/// borderline page differ between thread counts and from the replay.
pub fn clean_urls(world: &World, stride: usize) -> Vec<(String, Option<u32>)> {
    (1..world.page_count() as u64)
        .filter(|&id| {
            let page = world.page(id);
            page.size_hint.is_none()
                && page.redirect_to.is_none()
                && world.host(page.host).behavior == HostBehavior::Normal
        })
        .step_by(stride.max(1))
        .map(|id| (world.url_of(id), None))
        .collect()
}

/// Content pages of `topic`, in id order.
fn content_pages(world: &World, topic: u32) -> impl Iterator<Item = u64> + '_ {
    (0..world.page_count() as u64).filter(move |&id| {
        world.true_topic(id) == Some(topic) && world.page(id).kind == PageKind::Content
    })
}

/// Fill the engine's OTHERS class with `n` content pages drawn
/// round-robin from `noise_topics` (the "Yahoo top-level categories"
/// negatives of §3.1).
pub fn populate_others(engine: &mut BingoEngine, world: &World, noise_topics: &[u32], n: usize) {
    let mut pools: Vec<_> = noise_topics
        .iter()
        .map(|&t| content_pages(world, t))
        .collect();
    let mut added = 0;
    let mut exhausted = 0;
    while added < n && exhausted < pools.len() {
        exhausted = 0;
        for pool in &mut pools {
            match pool.next() {
                Some(id) if added < n => {
                    if engine.add_others_url(world, &world.url_of(id)).is_ok() {
                        added += 1;
                    }
                }
                Some(_) => {}
                None => exhausted += 1,
            }
        }
    }
}

/// Add the first `n` content pages of `true_topic` as training
/// documents of `topic`.
pub fn add_training_pages(
    engine: &mut BingoEngine,
    world: &World,
    topic: TopicId,
    true_topic: u32,
    n: usize,
) {
    for id in content_pages(world, true_topic).take(n) {
        engine
            .add_training_url(world, topic, &world.url_of(id))
            .expect("training page fetches");
    }
}
