//! Metric names and units, and the result line.
//!
//! The two tables are the single source of names: `BENCHMARK.json` lists
//! the same names with the same units (a test compares them), every
//! workload reports every name, and a layer a workload bypasses reports
//! 0 for that layer's metrics.

use std::collections::BTreeMap;

/// Values a round measured, by metric name.
pub type Facts = BTreeMap<&'static str, f64>;

/// One metric of a table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Metrics of the timed run (`--trace 0`). Every workload measures every
/// one of them, and none can be 0.
pub const END_TO_END: &[MetricDef] = &[
    lower("setup_s", "s"),
    higher("pages_per_s", "pages/s"),
    lower("cpu_s_per_kpage", "s"),
    lower("rss_peak_mb", "MB"),
];

/// Metrics of the traced run (`--trace 1`): first the numbers only one
/// workload has a user for (taken from an untraced round of the same
/// process), then one block per layer, then the harness itself.
pub const PER_LAYER: &[MetricDef] = &[
    // Workload-specific end-to-end numbers.
    higher("pages_per_s_1t", "pages/s"),
    higher("crawl_pages_per_s", "pages/s"),
    lower("checkpoint_s", "s"),
    lower("recovery_s", "s"),
    lower("disk_bytes_per_page", "bytes"),
    higher("recall_t1", "share"),
    lower("query_p50_ms", "ms"),
    lower("query_p95_ms", "ms"),
    lower("query_tail_ms", "ms"),
    higher("query_tail_pct", "%"),
    higher("query_samples", "count"),
    lower("query_late_share", "share"),
    higher("static_qps", "requests/s"),
    lower("failed_share", "share"),
    higher("stored_pages", "count"),
    // webworld
    lower("webworld.build_s", "s"),
    lower("webworld.fetch_s", "s"),
    lower("webworld.fetch_calls", "count"),
    lower("webworld.fetch_failed", "count"),
    lower("webworld.block_regen_ratio", "ratio"),
    // textproc
    lower("textproc.convert_s", "s"),
    lower("textproc.analyze_s", "s"),
    higher("textproc.docs", "count"),
    lower("textproc.vocab_terms", "count"),
    higher("textproc.analyze_speedup", "ratio"),
    // ml
    lower("ml.svm_train_s", "s"),
    lower("ml.mi_select_s", "s"),
    lower("ml.svm_score_us", "us"),
    // core
    lower("core.train_s", "s"),
    lower("core.retrain_s", "s"),
    lower("core.retrains", "count"),
    lower("core.classify_s", "s"),
    higher("core.classified", "count"),
    higher("core.positive_share", "share"),
    higher("core.classify_speedup", "ratio"),
    // graph
    lower("graph.hits_s", "s"),
    // crawler
    lower("crawler.step_s", "s"),
    lower("crawler.steps", "count"),
    lower("crawler.frontier_s", "s"),
    lower("crawler.frontier_ops", "count"),
    lower("crawler.frontier_spilled_peak", "count"),
    lower("crawler.dedup_s", "s"),
    lower("crawler.dedup_ops", "count"),
    lower("crawler.policy_s", "s"),
    lower("crawler.checkpoint_encode_s", "s"),
    lower("crawler.restore_s", "s"),
    lower("crawler.pipeline_wall_1t_s", "s"),
    lower("crawler.pipeline_wall_nt_s", "s"),
    higher("crawler.thread_speedup", "ratio"),
    // store
    lower("store.load_s", "s"),
    higher("store.load_rows", "count"),
    higher("store.load_speedup", "ratio"),
    lower("store.segments", "count"),
    lower("store.segment_bytes", "bytes"),
    lower("store.snapshot_write_s", "s"),
    lower("store.checkpoint_bytes", "bytes"),
    lower("store.durable_writes", "count"),
    lower("store.snapshot_load_s", "s"),
    lower("store.point_read_us", "us"),
    // search
    lower("search.commit_s", "s"),
    lower("search.commits", "count"),
    lower("search.commit_last_ms", "ms"),
    lower("search.rank_us_p50", "us"),
    lower("search.rank_us_p95", "us"),
    lower("search.batch_build_s", "s"),
    // serve
    lower("serve.handle_us_p50", "us"),
    lower("serve.handle_us_p95", "us"),
    higher("serve.requests", "count"),
    higher("serve.query_share", "share"),
    // harness
    lower("loadgen.late_p99_ms", "ms"),
    higher("trace.coverage", "share"),
    lower("trace.overhead_share", "share"),
];

/// One named correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was compared.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

impl Check {
    /// Check that two values are equal; the name carries both on failure.
    pub fn eq<T: PartialEq + std::fmt::Debug>(name: &str, left: T, right: T) -> Self {
        let ok = left == right;
        Check {
            name: if ok {
                name.to_string()
            } else {
                format!("{name}: {left:?} != {right:?}")
            },
            ok,
        }
    }

    /// Check that a condition holds.
    pub fn that(name: &str, ok: bool) -> Self {
        Check {
            name: name.to_string(),
            ok,
        }
    }
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted (fetches of stored pages, requests, saves
    /// and resumes).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Fill a report from a table: every name of `table` is looked up in
    /// `facts`, missing ones report 0.
    pub fn from_facts(
        table: &[MetricDef],
        facts: &Facts,
        checks: &[Check],
        attempted: u64,
        failed: u64,
    ) -> Self {
        Report {
            correct: checks.iter().all(|c| c.ok),
            attempted: attempted.max(1),
            failed,
            metrics: table
                .iter()
                .map(|m| (m.name, facts.get(m.name).copied().unwrap_or(0.0), m.unit))
                .collect(),
        }
    }

    /// The result line: one JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`. Values print with every
    /// digit Rust's shortest round-trip formatting gives them.
    pub fn to_json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
