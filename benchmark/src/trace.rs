//! Span recording from the benchmark's own call sites.
//!
//! A [`Tracer`] belongs to one thread. Switched off it records nothing
//! and `span` is a plain call, so the timed run and the traced run
//! execute the same code. Spans stay in memory until the workload ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes the tracer's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Call-site name, `layer.call`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// The span that was open on this thread when this one started.
    pub parent: Option<u32>,
}

impl Span {
    /// Duration, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Tracer::new(false, Instant::now())
    }

    /// A recorder measuring from `origin`.
    pub fn on(origin: Instant) -> Self {
        Tracer::new(true, origin)
    }

    /// A recorder that records when `enabled`, measuring from `origin`
    /// (threads of one workload share the origin so their spans line up).
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Take the recorded spans out (the tracer keeps recording).
    pub fn take(&mut self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "take() inside an open span");
        std::mem::take(&mut self.spans)
    }
}

/// Totals of all spans sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
}

/// Self time of every span of one thread: its duration minus the part
/// of that interval its direct children cover. Children of one parent
/// on one thread never overlap, so the covered part is the sum of their
/// durations, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p as usize];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Count, total and self time per span name.
#[derive(Debug, Default)]
pub struct Totals(BTreeMap<&'static str, NameTotals>);

impl Totals {
    /// Totals of the spans named `name` (zeros when there are none).
    pub fn get(&self, name: &str) -> NameTotals {
        self.0.get(name).copied().unwrap_or_default()
    }

    /// Sum of the durations of the spans named `name`, s.
    pub fn total_s(&self, name: &str) -> f64 {
        self.get(name).total_ns as f64 / 1e9
    }

    /// Number of spans named `name`, as a metric value.
    pub fn count(&self, name: &str) -> f64 {
        self.get(name).count as f64
    }
}

/// Count, total and self time per span name.
pub fn totals_by_name(spans: &[Span]) -> Totals {
    let mut out = Totals::default();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.0.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += span.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Append one thread's spans to `out` as JSON lines
/// `{name, start, end, parent, workload, thread}` (times in ns; `parent`
/// is the line index within the same thread, or null).
pub fn write_jsonl(
    out: &mut impl Write,
    workload: &str,
    thread: &str,
    spans: &[Span],
) -> std::io::Result<()> {
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"workload\":\"{}\",\"thread\":\"{}\"}}",
            span.name, span.start_ns, span.end_ns, parent, workload, thread
        )?;
    }
    Ok(())
}

/// Write the spans of every thread of one workload to `path`.
pub fn write_trace_file(
    path: &Path,
    workload: &str,
    threads: &[(&str, &[Span])],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in threads {
        write_jsonl(&mut file, workload, thread, spans)?;
    }
    file.flush()
}
