//! The result line, the contract file, and every workload end to end at
//! the `--quick` size (page counts ÷ 10), timed and traced.

use bingo_benchmark::agree::{compare, record, worse_by, ResultLine, RunSet, Spec};
use bingo_benchmark::metrics::{Check, Facts, Report, END_TO_END, PER_LAYER};
use bingo_benchmark::{run_timed, run_traced, trace_path, Settings, Workload};
use std::path::PathBuf;

fn spec() -> Spec {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Spec::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses")
}

fn quick(tag: &str) -> Settings {
    Settings {
        seed: 7,
        seconds: 0.0,
        quick: true,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("out-{tag}")),
    }
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let mut facts = Facts::new();
    facts.insert("setup_s", 0.8127);
    facts.insert("pages_per_s", 1234.5);
    let report = Report::from_facts(END_TO_END, &facts, &[Check::that("ok", true)], 0, 0);
    let line = report.to_json_line();
    assert!(!line.contains('\n'));
    let parsed = ResultLine::parse(&line).expect("result line parses");
    assert!(parsed.correct);
    assert_eq!(parsed.attempted, 1, "attempted is at least 1");
    assert_eq!(parsed.failed, 0);
    let names: Vec<&str> = parsed.metrics.iter().map(|m| m.0.as_str()).collect();
    let expected: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, expected);
    assert_eq!(parsed.metrics[0], ("setup_s".into(), 0.8127, "s".into()));
    // A metric nobody measured prints as 0, a failed check as false.
    assert_eq!(parsed.metrics[3].1, 0.0);
    let failed = Report::from_facts(END_TO_END, &facts, &[Check::eq("n", 1, 2)], 5, 1);
    assert!(!ResultLine::parse(&failed.to_json_line()).unwrap().correct);
    // Extra or missing top-level keys are refused.
    assert!(ResultLine::parse("{\"correct\": true, \"metrics\": {}}").is_err());
}

#[test]
fn contract_file_lists_the_tables_of_the_crate() {
    let spec = spec();
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(spec.workloads, names);
    let e2e: Vec<(&str, &str, bool)> = spec
        .end_to_end
        .iter()
        .map(|m| (m.name.as_str(), m.unit.as_str(), m.higher_is_better))
        .collect();
    let table: Vec<(&str, &str, bool)> = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit, m.higher_is_better))
        .collect();
    assert_eq!(e2e, table);
    assert!(spec
        .end_to_end
        .iter()
        .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));
    let layers: Vec<(&str, &str)> = spec
        .per_layer
        .iter()
        .map(|(n, u)| (n.as_str(), u.as_str()))
        .collect();
    let table: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(layers, table);
    assert!((1..=60).contains(&spec.run_seconds));
}

#[test]
fn agreement_judges_spread_and_median_against_the_bound() {
    let spec = spec();
    let line = |rate: f64| ResultLine {
        correct: true,
        attempted: 1,
        failed: 0,
        metrics: vec![("pages_per_s".into(), rate, "pages/s".into())],
    };
    let set = |rates: &[f64]| {
        let mut set = RunSet::new();
        for &r in rates {
            record(&mut set, "portal_focused", &line(r));
        }
        set
    };
    let verdict = |a: &RunSet, b: &RunSet| {
        compare(&spec, a, b)
            .into_iter()
            .find(|v| v.workload == "portal_focused" && v.metric == "pages_per_s")
            .unwrap()
    };
    let steady = set(&[100.0, 101.0, 99.0, 100.5, 99.5]);
    assert!(verdict(&steady, &steady).ok);
    // Higher is better: B 30% slower is worse by 0.3, B faster is fine.
    assert!(!verdict(&steady, &set(&[70.0, 70.5, 69.5, 70.2, 69.8])).ok);
    assert!(verdict(&steady, &set(&[130.0, 131.0, 129.0, 130.5, 129.5])).ok);
    // A set whose own spread exceeds the bound cannot agree with anything.
    assert!(!verdict(&set(&[60.0, 100.0, 140.0, 80.0, 120.0]), &steady).ok);
    assert!((worse_by(true, 100.0, 70.0) - 0.3).abs() < 1e-12);
    assert!((worse_by(false, 100.0, 70.0) + 0.3).abs() < 1e-12);
}

#[test]
fn every_workload_runs_correct_at_quick_size() {
    for workload in Workload::ALL {
        let settings = quick(workload.name());
        let report = run_timed(workload, &settings);
        assert!(
            report.correct,
            "{} timed run failed a check",
            workload.name()
        );
        assert_eq!(report.failed, 0);
        assert!(report.attempted >= 1);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        for (name, value, _) in &report.metrics {
            assert!(
                *value > 0.0 && value.is_finite(),
                "{} {name} = {value}",
                workload.name()
            );
        }
        ResultLine::parse(&report.to_json_line()).expect("timed result line parses");

        let report = run_traced(workload, &settings);
        assert!(
            report.correct,
            "{} traced run failed a check",
            workload.name()
        );
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        let value = |name: &str| report.metrics.iter().find(|m| m.0 == name).unwrap().1;
        assert!(value("trace.coverage") > 0.0);
        assert!(value("textproc.docs") > 0.0);
        assert_eq!(value("textproc.docs"), value("store.load_rows"));
        // A bypassed layer reports 0: only the SVM workloads classify,
        // only serve_live commits an index.
        let classifies = matches!(workload, Workload::PortalFocused | Workload::PipelineMt);
        assert_eq!(value("core.classified") > 0.0, classifies);
        assert_eq!(
            value("search.commits") > 0.0,
            workload == Workload::ServeLive
        );
        assert_eq!(
            value("store.segments") > 0.0,
            workload == Workload::ScaleDurable
        );
        let trace = std::fs::read_to_string(trace_path(&settings.out_dir, workload))
            .expect("trace file written");
        assert!(trace.lines().count() > 0);
        assert!(trace.lines().all(|l| l.contains(workload.name())));
        let _ = std::fs::remove_dir_all(&settings.out_dir);
    }
}
