//! The repo benchmark: four workloads over the public API of the bingo
//! crates, end-to-end metrics from an untraced run and per-layer metrics
//! from a traced run with a stage replay. See `README.md` beside this
//! crate for definitions; `BENCHMARK.json` at the repo root is the
//! machine-readable contract.

pub mod agree;
pub mod loadgen;
pub mod metrics;
pub mod replay;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use metrics::{Check, Facts, Report, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use workloads::{Ctx, Round};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// §5.2 portal generation: `ml`, `core`, `graph`, focus policy.
    PortalFocused,
    /// Paged world into the segmented store with checkpoints and recovery.
    ScaleDurable,
    /// Open-loop queries beside a writing crawl: `search`, `serve`.
    ServeLive,
    /// Real-thread pipeline with an SVM judge at 1 and `nproc` threads.
    PipelineMt,
}

impl Workload {
    /// All workloads, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::PortalFocused,
        Workload::ScaleDurable,
        Workload::ServeLive,
        Workload::PipelineMt,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PortalFocused => "portal_focused",
            Workload::ScaleDurable => "scale_durable",
            Workload::ServeLive => "serve_live",
            Workload::PipelineMt => "pipeline_mt",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn round(self, ctx: &Ctx, tracer: &mut Tracer) -> Round {
        match self {
            Workload::PortalFocused => workloads::portal_focused::round(ctx, tracer),
            Workload::ScaleDurable => workloads::scale_durable::round(ctx, tracer),
            Workload::ServeLive => workloads::serve_live::round(ctx, tracer),
            Workload::PipelineMt => workloads::pipeline_mt::round(ctx, tracer),
        }
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload seed (default 2003).
    pub seed: u64,
    /// How long to keep starting rounds, s.
    pub seconds: f64,
    /// Page counts ÷ 10.
    pub quick: bool,
    /// Scratch and trace output directory.
    pub out_dir: PathBuf,
}

impl Settings {
    fn ctx(&self, detail: bool, verify: bool) -> Ctx {
        Ctx {
            seed: self.seed,
            quick: self.quick,
            out_dir: self.out_dir.clone(),
            threads: sys::nproc(),
            detail,
            verify,
        }
    }
}

/// Checks that every round of one invocation reported the same
/// seed-determined counts as the first.
fn determinism_checks(workload: Workload, rounds: &[&Round]) -> Vec<Check> {
    let Some((first, rest)) = rounds.split_first() else {
        return Vec::new();
    };
    rest.iter()
        .map(|r| {
            Check::eq(
                &format!("{}: counts repeat across rounds", workload.name()),
                &r.counts,
                &first.counts,
            )
        })
        .collect()
}

/// The timed run (`--trace 0`): untraced rounds until `seconds` have
/// passed; each rate and time is the median over the rounds.
pub fn run_timed(workload: Workload, settings: &Settings) -> Report {
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let ctx = settings.ctx(false, rounds.is_empty());
        rounds.push(workload.round(&ctx, &mut Tracer::off()));
        let r = rounds.last().expect("just pushed");
        eprintln!(
            "{} round {}: setup {:.4} s, timed {:.3} s, {:.1} pages/s, {:.4} cpu s/kpage",
            workload.name(),
            rounds.len(),
            r.setup_s,
            r.timed_s,
            r.pages_per_s,
            r.cpu_s_per_kpage
        );
        if start.elapsed().as_secs_f64() >= settings.seconds {
            break;
        }
    }
    let median_of = |f: fn(&Round) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    let mut facts = Facts::new();
    facts.insert("setup_s", median_of(|r| r.setup_s));
    facts.insert("pages_per_s", median_of(|r| r.pages_per_s));
    facts.insert("cpu_s_per_kpage", median_of(|r| r.cpu_s_per_kpage));
    // The first round's peak: later rounds only add what the allocator
    // kept from earlier ones, which depends on how many rounds fit.
    facts.insert("rss_peak_mb", rounds[0].rss_peak_mb);

    let mut checks: Vec<Check> = rounds.iter().flat_map(|r| r.checks.clone()).collect();
    checks.extend(determinism_checks(
        workload,
        &rounds.iter().collect::<Vec<_>>(),
    ));
    report_failures(&checks);
    Report::from_facts(
        END_TO_END,
        &facts,
        &checks,
        rounds.iter().map(|r| r.attempted).sum(),
        rounds.iter().map(|r| r.failed).sum(),
    )
}

/// The traced run (`--trace 1`): one untraced detail round as the
/// reference, then traced rounds with stage replay until `seconds` have
/// passed. Layer metrics (names with a dot) are medians over the traced
/// rounds; the rest come from the reference round. The last traced
/// round's spans go to `trace-<workload>.jsonl` in the output directory.
pub fn run_traced(workload: Workload, settings: &Settings) -> Report {
    let start = Instant::now();
    let reference = workload.round(&settings.ctx(true, true), &mut Tracer::off());
    let mut traced: Vec<Round> = Vec::new();
    loop {
        let mut tracer = Tracer::on(Instant::now());
        traced.push(workload.round(&settings.ctx(false, false), &mut tracer));
        if start.elapsed().as_secs_f64() >= settings.seconds {
            break;
        }
    }

    let mut facts: Facts = reference
        .facts
        .iter()
        .filter(|(name, _)| !name.contains('.'))
        .map(|(name, value)| (*name, *value))
        .collect();
    for def in PER_LAYER.iter().filter(|d| d.name.contains('.')) {
        let values: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.facts.get(def.name).copied())
            .collect();
        if !values.is_empty() {
            facts.insert(def.name, stats::median(&values));
        }
    }
    let (attempted, failed) = (
        reference.attempted + traced.iter().map(|r| r.attempted).sum::<u64>(),
        reference.failed + traced.iter().map(|r| r.failed).sum::<u64>(),
    );
    facts.insert("failed_share", failed as f64 / attempted.max(1) as f64);
    let traced_rate = stats::median(&traced.iter().map(|r| r.pages_per_s).collect::<Vec<_>>());
    facts.insert(
        "trace.overhead_share",
        reference.pages_per_s / traced_rate.max(1e-9) - 1.0,
    );

    let mut checks = reference.checks.clone();
    checks.extend(traced.iter().flat_map(|r| r.checks.clone()));
    let mut all: Vec<&Round> = vec![&reference];
    all.extend(&traced);
    checks.extend(determinism_checks(workload, &all));

    let last = traced.last().expect("at least one traced round");
    let threads: Vec<(&str, &[trace::Span])> = last
        .spans
        .iter()
        .map(|(name, spans)| (*name, spans.as_slice()))
        .collect();
    let path = trace_path(&settings.out_dir, workload);
    checks.push(Check::that(
        &format!("trace file {} written", path.display()),
        trace::write_trace_file(&path, workload.name(), &threads).is_ok(),
    ));
    report_failures(&checks);
    Report::from_facts(PER_LAYER, &facts, &checks, attempted, failed)
}

/// Where a workload's trace file goes.
pub fn trace_path(out_dir: &Path, workload: Workload) -> PathBuf {
    out_dir.join(format!("trace-{}.jsonl", workload.name()))
}

/// Name every failed check on stderr (the result line only carries the
/// verdict).
fn report_failures(checks: &[Check]) {
    for check in checks.iter().filter(|c| !c.ok) {
        eprintln!("CHECK FAILED: {}", check.name);
    }
}
