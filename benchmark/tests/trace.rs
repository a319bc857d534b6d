//! Span nesting, self time and the trace file.

use bingo_benchmark::trace::{self_times, totals_by_name, write_jsonl, Span, Tracer};
use std::time::Instant;

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_is_duration_minus_direct_children() {
    let spans = vec![
        span("step", 0, 100, None),
        span("fetch", 10, 40, Some(0)),
        span("load", 50, 90, Some(0)),
        span("seal", 60, 80, Some(2)),
        span("retrain", 100, 130, None),
    ];
    // step: 100 - (30 + 40); load: 40 - 20; grandchildren are not
    // subtracted twice.
    assert_eq!(self_times(&spans), vec![30, 30, 20, 20, 30]);
    let totals = totals_by_name(&spans);
    assert_eq!(totals.get("step").count, 1);
    assert_eq!(totals.get("step").total_ns, 100);
    assert_eq!(totals.get("step").self_ns, 30);
    assert_eq!(totals.get("load").self_ns, 20);
    assert_eq!(totals.total_s("step"), 100e-9);
    assert_eq!(totals.count("missing"), 0.0);
}

#[test]
fn a_child_is_clipped_to_its_parent() {
    let spans = vec![span("parent", 10, 20, None), span("child", 5, 15, Some(0))];
    assert_eq!(self_times(&spans), vec![5, 10]);
}

#[test]
fn tracer_records_nesting_and_an_off_tracer_records_nothing() {
    let mut tracer = Tracer::on(Instant::now());
    let answer = tracer.span("outer", |t| {
        t.span("inner", |_| ());
        t.span("inner", |_| ());
        42
    });
    assert_eq!(answer, 42);
    let spans = tracer.take();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[0].parent, None);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(0));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[2].end_ns <= spans[0].end_ns);
    assert!(tracer.spans().is_empty(), "take() empties the recorder");

    let mut off = Tracer::off();
    assert_eq!(off.span("outer", |t| t.span("inner", |_| 7)), 7);
    assert!(off.spans().is_empty());
}

#[test]
fn trace_lines_carry_name_start_end_parent_and_workload() {
    let spans = vec![span("step", 1, 9, None), span("fetch", 2, 5, Some(0))];
    let mut out = Vec::new();
    write_jsonl(&mut out, "portal_focused", "main", &spans).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2);
    let first: serde_json::Value = serde_json::from_str(lines[0]).unwrap();
    assert_eq!(first.get("name").and_then(|v| v.as_str()), Some("step"));
    assert_eq!(first.get("start").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(first.get("end").and_then(|v| v.as_u64()), Some(9));
    assert_eq!(first.get("parent"), Some(&serde_json::Value::Null));
    assert_eq!(
        first.get("workload").and_then(|v| v.as_str()),
        Some("portal_focused")
    );
    let second: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
    assert_eq!(second.get("parent").and_then(|v| v.as_u64()), Some(0));
}
