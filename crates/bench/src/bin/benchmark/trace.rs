//! The outside-in tracer: a span around every call the benchmark makes into a layer.
//!
//! Spans are recorded from the benchmark's own files only — nothing inside the
//! program under test is instrumented — kept in memory, and written to `trace.json`
//! when the traced pass ends. A span's name is `layer.call`; spans opened while
//! another is open become its children, and all spans of one op share its op id.

use std::io::Write;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// The op (timed operation or arm repetition) the call belongs to.
    pub op: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle returned by [`Recorder::begin`]; `None` while recording is off.
#[must_use]
pub struct Open(Option<u32>);

/// In-memory span store. Disabled (the untraced pass and the untraced segments of
/// the traced pass) `begin`/`end` cost one branch each.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts the next op: subsequent spans carry a fresh op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Times `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of every span named `name`: its duration minus the part its
    /// direct children cover, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        let mut total = self.total_ms(name);
        for s in &self.spans {
            if s.parent
                .is_some_and(|p| self.spans[p as usize].name == name)
            {
                total -= s.ms();
            }
        }
        total
    }

    /// Writes the spans as a JSON array (one object per span, microsecond times).
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let (layer, _) = s.name.split_once('.').unwrap_or((s.name, ""));
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{layer}\",\"start_us\":{:.3},\
                 \"end_us\":{:.3},\"parent\":{parent},\"op\":{}}}{comma}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                s.op
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.set_enabled(true);
        rec.next_op();
        let outer = rec.begin("plan.op");
        rec.span("analysis.rta", || std::hint::black_box(1 + 1));
        rec.span("analysis.crg", || std::hint::black_box(2 + 2));
        rec.end(outer);
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|x| x.op == 1 && x.end_ns >= x.start_ns));
        assert_eq!(rec.count("analysis.rta"), 1);
        let children = rec.total_ms("analysis.rta") + rec.total_ms("analysis.crg");
        assert!((rec.self_ms("plan.op") - (rec.total_ms("plan.op") - children)).abs() < 1e-9);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new();
        assert_eq!(rec.span("interp.run", || 7), 7);
        assert!(rec.spans().is_empty());
        assert_eq!(rec.total_ms("interp.run"), 0.0);
    }
}
