//! Reading `BENCHMARK.json` and result lines, and the agreement check
//! between two sets of runs of the same code: every end-to-end metric's
//! spread within a set must stay inside its bound (`setup_s` excepted),
//! and set B's median may not be worse than set A's by more than the
//! bound. This is the acceptance rule of the benchmark itself; later
//! changes use it to see the noise floor before claiming anything.

use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;

/// One bounded metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundedMetric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether higher values are better.
    pub higher_is_better: bool,
    /// Share of the reference median the metric may worsen by.
    pub bound: f64,
}

/// What the benchmark contract file says.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload names.
    pub workloads: Vec<String>,
    /// Bounded end-to-end metrics.
    pub end_to_end: Vec<BoundedMetric>,
    /// `(name, unit)` of the per-layer metrics.
    pub per_layer: Vec<(String, String)>,
    /// Seconds one run measures.
    pub run_seconds: u64,
}

fn text(value: &Value, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string `{key}`"))
}

impl Spec {
    /// Parse the contract file's text.
    pub fn parse(json: &str) -> Result<Spec, String> {
        let root: Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("missing array `{key}`"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, _>>()?;
        let end_to_end = list("end_to_end")?
            .iter()
            .map(|m| {
                Ok(BoundedMetric {
                    name: text(m, "name")?,
                    unit: text(m, "unit")?,
                    higher_is_better: text(m, "better")? == "higher",
                    bound: m
                        .get("bound")
                        .and_then(Value::as_f64)
                        .ok_or("missing number `bound`")?,
                })
            })
            .collect::<Result<_, String>>()?;
        let per_layer = list("per_layer")?
            .iter()
            .map(|m| Ok((text(m, "name")?, text(m, "unit")?)))
            .collect::<Result<_, String>>()?;
        let run_seconds = root
            .get("run_seconds")
            .and_then(Value::as_u64)
            .ok_or("missing number `run_seconds`")?;
        Ok(Spec {
            workloads,
            end_to_end,
            per_layer,
            run_seconds,
        })
    }
}

/// A parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// Every correctness check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

impl ResultLine {
    /// Parse the last line a benchmark run printed.
    pub fn parse(line: &str) -> Result<ResultLine, String> {
        let root: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let entries = root.as_object().ok_or("result is not an object")?;
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        if keys != ["correct", "attempted", "failed", "metrics"] {
            return Err(format!("unexpected result keys {keys:?}"));
        }
        let metrics = root
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or("`metrics` is not an object")?
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("metric `{name}` has no numeric value"))?;
                Ok((name.clone(), value, text(m, "unit")?))
            })
            .collect::<Result<_, String>>()?;
        Ok(ResultLine {
            correct: root
                .get("correct")
                .and_then(Value::as_bool)
                .ok_or("`correct` is not a bool")?,
            attempted: root
                .get("attempted")
                .and_then(Value::as_u64)
                .ok_or("`attempted` is not a whole number")?,
            failed: root
                .get("failed")
                .and_then(Value::as_u64)
                .ok_or("`failed` is not a whole number")?,
            metrics,
        })
    }
}

/// The values one set of runs measured, by `(workload, metric)`.
pub type RunSet = BTreeMap<(String, String), Vec<f64>>;

/// Add one run's metrics to a set.
pub fn record(set: &mut RunSet, workload: &str, result: &ResultLine) {
    for (name, value, _) in &result.metrics {
        set.entry((workload.to_string(), name.clone()))
            .or_default()
            .push(*value);
    }
}

/// By what share of `reference` the value `candidate` is worse (negative
/// when it is better).
pub fn worse_by(higher_is_better: bool, reference: f64, candidate: f64) -> f64 {
    if reference == 0.0 {
        return 0.0;
    }
    let change = (candidate - reference) / reference.abs();
    if higher_is_better {
        -change
    } else {
        change
    }
}

/// One metric on one workload, set A against set B.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of set A and of set B.
    pub medians: (f64, f64),
    /// Interquartile distance over the median, set A and set B.
    pub spreads: (f64, f64),
    /// Share by which B's median is worse than A's.
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Whether the pair agrees.
    pub ok: bool,
}

/// Judge every bounded metric on every workload.
pub fn compare(spec: &Spec, a: &RunSet, b: &RunSet) -> Vec<Verdict> {
    let mut out = Vec::new();
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let key = (workload.clone(), metric.name.clone());
            let empty = Vec::new();
            let (va, vb) = (a.get(&key).unwrap_or(&empty), b.get(&key).unwrap_or(&empty));
            let medians = (stats::median(va), stats::median(vb));
            let spreads = (stats::spread(va), stats::spread(vb));
            let worse = worse_by(metric.higher_is_better, medians.0, medians.1);
            let steady = metric.name == "setup_s"
                || (spreads.0 <= metric.bound && spreads.1 <= metric.bound);
            out.push(Verdict {
                workload: workload.clone(),
                metric: metric.name.clone(),
                medians,
                spreads,
                worse_by: worse,
                bound: metric.bound,
                ok: !va.is_empty() && !vb.is_empty() && steady && worse <= metric.bound,
            });
        }
    }
    out
}

/// The verdicts as an aligned text table.
pub fn table(verdicts: &[Verdict]) -> String {
    let mut out = format!(
        "{:<16} {:<18} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  {}\n",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "B worse", "bound", "ok"
    );
    for v in verdicts {
        out.push_str(&format!(
            "{:<16} {:<18} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}\n",
            v.workload,
            v.metric,
            v.medians.0,
            v.medians.1,
            v.spreads.0 * 100.0,
            v.spreads.1 * 100.0,
            v.worse_by * 100.0,
            v.bound * 100.0,
            if v.ok { "yes" } else { "NO" }
        ));
    }
    out
}
