//! The CI bench-regression gate.
//!
//! ```text
//! cargo run --release -p bingo-bench --bin bench_gate [-- FLAGS]
//!
//!   --smoke          run the reduced smoke sizes (fast CI runs)
//!   --update         re-record the BENCH_<scenario>.json baselines
//!                    (runs both smoke and full sizes)
//!   --only LIST      run a subset of scenarios: a comma-separated list
//!                    of (crawl | classify | pipeline | recovery |
//!                    serve | scale | dist), e.g. `--only
//!                    crawl,serve`; repeatable. Unknown or empty lists
//!                    are usage errors listing the valid names.
//!   --out DIR        artifact directory (default target/bench_gate)
//! ```
//!
//! Each scenario runs twice; the telemetry (metrics snapshot + event
//! log) of the two runs must match byte for byte and their reports
//! must be equal. Reports are then compared against the checked-in
//! baselines with per-metric tolerances. Exit code 0 = pass, 1 =
//! regression or determinism failure, 2 = usage/setup error.

use bingo_bench::gate::{
    baseline_file, check_determinism, default_out_dir, diff_reports, load_baseline,
    markdown_diff_table, write_run_artifacts, GateMode, MetricDiff, Scenario, SCENARIOS,
};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// Reject an `--only` argument: print what is wrong with it and the
/// valid scenario names, exit 2.
fn only_usage(problem: &str) -> ! {
    let names: Vec<&str> = SCENARIOS.iter().map(|s| s.name).collect();
    eprintln!(
        "--only: {problem} (expected a comma-separated list of: {})",
        names.join(", ")
    );
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut update = false;
    let mut only: Vec<String> = Vec::new();
    let mut out_dir = default_out_dir();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--update" => update = true,
            "--only" => {
                let Some(list) = args.next() else {
                    only_usage("missing scenario list");
                };
                let before = only.len();
                for name in list.split(',').map(str::trim).filter(|n| !n.is_empty()) {
                    if !SCENARIOS.iter().any(|s| s.name == name) {
                        only_usage(&format!("unknown scenario {name:?}"));
                    }
                    only.push(name.to_string());
                }
                // An --only whose list trims away entirely ("", " , ")
                // must not fall through to "no filter = run everything".
                if only.len() == before {
                    only_usage(&format!("no scenario names in {list:?}"));
                }
            }
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory argument");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: bench_gate [--smoke] [--update] [--only SCENARIO] [--out DIR]");
                std::process::exit(2);
            }
        }
    }

    let modes: &[GateMode] = if update {
        &[GateMode::Smoke, GateMode::Full]
    } else if smoke {
        &[GateMode::Smoke]
    } else {
        &[GateMode::Full]
    };

    let selected: Vec<&Scenario> = SCENARIOS
        .iter()
        .filter(|s| only.is_empty() || only.iter().any(|n| n == s.name))
        .collect();

    let mut failures: Vec<String> = Vec::new();
    // Structured per-metric diffs plus the scenario/mode runs that
    // failed — for the $GITHUB_STEP_SUMMARY table and the telemetry
    // copies under out_dir/failed/.
    let mut diffs: Vec<MetricDiff> = Vec::new();
    let mut failed_runs: Vec<String> = Vec::new();
    for scenario in &selected {
        let mut sections: Vec<(GateMode, Value)> = Vec::new();
        for &mode in modes {
            eprintln!(
                "running {}.{} (twice, for determinism) ...",
                scenario.name,
                mode.key()
            );
            let started = std::time::Instant::now();
            let first = (scenario.run)(mode);
            let second = (scenario.run)(mode);
            eprintln!(
                "  {}.{}: {:.1}s wall for both runs",
                scenario.name,
                mode.key(),
                started.elapsed().as_secs_f64()
            );
            let label = format!("{}.{}", scenario.name, mode.key());
            let determinism = check_determinism(&label, &first, &second);
            if !determinism.is_empty() {
                failed_runs.push(label);
            }
            failures.extend(determinism);
            if let Err(e) = write_run_artifacts(&out_dir, scenario.name, mode, &first) {
                eprintln!(
                    "warning: could not write artifacts to {}: {e}",
                    out_dir.display()
                );
            }
            sections.push((mode, first.report));
        }

        if update {
            let doc = Value::Object(
                sections
                    .iter()
                    .map(|(mode, report)| (mode.key().to_string(), report.clone()))
                    .collect(),
            );
            let path = baseline_file(scenario.name);
            match serde_json::to_string_pretty(&doc) {
                Ok(text) => {
                    if let Err(e) = std::fs::write(&path, text + "\n") {
                        eprintln!("error: could not write baseline {path}: {e}");
                        std::process::exit(2);
                    }
                    eprintln!("baseline recorded: {path}");
                }
                Err(e) => {
                    eprintln!("error: could not serialize baseline {path}: {e}");
                    std::process::exit(2);
                }
            }
            continue;
        }

        let Some(baseline) = load_baseline(Path::new("."), scenario.name) else {
            failures.push(format!(
                "{}: baseline {} missing or unreadable (record with --update)",
                scenario.name,
                baseline_file(scenario.name)
            ));
            continue;
        };
        for (mode, report) in &sections {
            let label = format!("{}.{}", scenario.name, mode.key());
            let Some(section) = baseline.get(mode.key()) else {
                failures.push(format!(
                    "{label}: baseline has no \"{}\" section (re-record with --update)",
                    mode.key()
                ));
                failed_runs.push(label);
                continue;
            };
            let run_diffs = diff_reports(&label, section, report, scenario.specs);
            if run_diffs.iter().any(|d| !d.ok) {
                failed_runs.push(label);
            }
            failures.extend(run_diffs.iter().filter_map(MetricDiff::failure_line));
            diffs.extend(run_diffs);
        }
    }

    if update {
        eprintln!("baselines updated; artifacts in {}", out_dir.display());
        if !failures.is_empty() {
            eprintln!("\nDETERMINISM FAILURES (baselines NOT trustworthy):");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
        return;
    }

    if failures.is_empty() {
        eprintln!("bench gate: PASS ({} scenario(s))", selected.len());
    } else {
        eprintln!("bench gate: FAIL");
        for f in &failures {
            eprintln!("  - {f}");
        }
        failed_runs.sort();
        failed_runs.dedup();
        publish_step_summary(&failures, &diffs, &failed_runs);
        stage_failed_telemetry(&out_dir, &failed_runs);
        std::process::exit(1);
    }
}

/// On gate failure under GitHub Actions, append the per-metric
/// baseline-vs-actual diff table (plus the raw failure lines) to the
/// job's step summary. A no-op when `$GITHUB_STEP_SUMMARY` is unset
/// (local runs).
fn publish_step_summary(failures: &[String], diffs: &[MetricDiff], failed_runs: &[String]) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let mut body = String::from("## Bench gate: FAIL\n\n");
    for f in failures {
        body.push_str(&format!("- `{f}`\n"));
    }
    // Show the full metric table only for runs that failed; passing
    // scenarios would drown the signal.
    let shown: Vec<MetricDiff> = diffs
        .iter()
        .filter(|d| failed_runs.iter().any(|r| r == &d.scenario))
        .cloned()
        .collect();
    if !shown.is_empty() {
        body.push_str("\n### Baseline vs actual\n\n");
        body.push_str(&markdown_diff_table(&shown));
    }
    body.push_str(
        "\nTelemetry of the failing scenario(s) is uploaded as the `bench-gate-failed` artifact.\n",
    );
    use std::io::Write;
    match std::fs::OpenOptions::new().append(true).open(&path) {
        Ok(mut f) => {
            if let Err(e) = f.write_all(body.as_bytes()) {
                eprintln!("warning: could not write step summary {path}: {e}");
            }
        }
        Err(e) => eprintln!("warning: could not open step summary {path}: {e}"),
    }
}

/// Copy the offending scenario runs' telemetry (report, metrics
/// snapshot, event log) into `out_dir/failed/` so CI can upload just
/// the failures as a dedicated artifact.
fn stage_failed_telemetry(out_dir: &Path, failed_runs: &[String]) {
    if failed_runs.is_empty() {
        return;
    }
    let failed_dir = out_dir.join("failed");
    if let Err(e) = std::fs::create_dir_all(&failed_dir) {
        eprintln!("warning: could not create {}: {e}", failed_dir.display());
        return;
    }
    for run in failed_runs {
        for suffix in ["report.json", "metrics.json", "events.jsonl"] {
            let name = format!("{run}.{suffix}");
            let src = out_dir.join(&name);
            if src.is_file() {
                if let Err(e) = std::fs::copy(&src, failed_dir.join(&name)) {
                    eprintln!("warning: could not copy {}: {e}", src.display());
                }
            }
        }
    }
    eprintln!(
        "failing-scenario telemetry staged in {}",
        failed_dir.display()
    );
}
