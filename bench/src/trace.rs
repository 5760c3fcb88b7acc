//! In-memory spans for the traced pass.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (the product has no spans of its own). Each op is one root span; a
//! span's self time is its duration minus the time its direct children
//! cover, and every per-layer metric is a median over ops.

use crate::stats::{median, percentile};
use mc_json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id, in start order.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: usize,
    /// Layer name (`op` for the root).
    pub name: String,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder plus per-op counters.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: usize,
    /// Per-op named values: counts added by the layers and, once an op
    /// ends, its `<span>.ms` self times and derived values.
    values: Vec<BTreeMap<String, f64>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
            values: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn enter(&mut self, name: &str) {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without enter");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// Runs `f` inside a leaf span and also returns the span's duration in
    /// milliseconds.
    pub fn timed<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.spans.len();
        self.enter(name);
        let out = f();
        self.exit();
        (out, self.spans[id].ms())
    }

    /// Closes the innermost open span and returns its duration in
    /// milliseconds.
    pub fn exit_ms(&mut self) -> f64 {
        let id = *self.open.last().expect("exit without enter");
        self.exit();
        self.spans[id].ms()
    }

    /// Starts a new op (a root span named `op`).
    pub fn begin_op(&mut self) {
        assert!(self.open.is_empty(), "op started inside a span");
        self.values.push(BTreeMap::new());
        self.enter("op");
    }

    /// Ends the current op and folds its spans' self times into its values
    /// as `<name>.ms`, plus the op's own unattributed time and coverage.
    pub fn end_op(&mut self) {
        // An op that failed midway may leave inner spans open; close them
        // all, down to the op's root.
        let first = *self.open.first().expect("end_op without begin_op");
        let now = self.now_ns();
        for id in self.open.drain(..) {
            self.spans[id].end_ns = now;
        }
        let op = self.op;
        let spans = &self.spans[first..];
        let mut children_ms: BTreeMap<usize, f64> = BTreeMap::new();
        for s in spans {
            if let Some(p) = s.parent {
                *children_ms.entry(p).or_default() += s.ms();
            }
        }
        let values = &mut self.values[op];
        for s in spans {
            let self_ms = s.ms() - children_ms.get(&s.id).copied().unwrap_or(0.0);
            if s.parent.is_none() {
                values.insert("trace.unattributed.ms".into(), self_ms);
                values.insert("trace.coverage".into(), 1.0 - self_ms / s.ms().max(1e-9));
                values.insert("trace.op.ms".into(), s.ms());
            } else {
                *values.entry(format!("{}.ms", s.name)).or_default() += self_ms;
            }
        }
        self.op += 1;
    }

    /// Adds `n` to the current op's counter `name`.
    pub fn count(&mut self, name: &str, n: f64) {
        self.add_to(self.op, name, n);
    }

    /// Adds `n` to counter `name` of op `op` (which may have ended).
    pub fn add_to(&mut self, op: usize, name: &str, n: f64) {
        *self.values[op].entry(name.to_string()).or_default() += n;
    }

    /// The current op's index.
    pub fn op(&self) -> usize {
        self.op
    }

    /// Every value name recorded in any op.
    #[cfg(test)]
    pub(crate) fn recorded(&self) -> std::collections::BTreeSet<String> {
        self.values.iter().flat_map(|m| m.keys().cloned()).collect()
    }

    /// Number of ops recorded.
    pub fn ops(&self) -> usize {
        self.values.len()
    }

    /// Median over ops of `name` (0 in ops that never recorded it).
    pub fn median_per_op(&self, name: &str) -> f64 {
        let v: Vec<f64> = self
            .values
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&v)
    }

    /// Sum over ops of `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.values.iter().filter_map(|m| m.get(name)).sum()
    }

    /// Nearest-rank percentile of whole-op durations.
    pub fn op_percentile_ms(&self, p: f64) -> f64 {
        let v: Vec<f64> = self
            .values
            .iter()
            .filter_map(|m| m.get("trace.op.ms").copied())
            .collect();
        percentile(&v, p)
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error message.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(io)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
        let int = |v: u64| Json::Int(i64::try_from(v).unwrap_or(i64::MAX));
        for s in &self.spans {
            let line = mc_json::object(vec![
                ("id", int(s.id as u64)),
                ("parent", s.parent.map_or(Json::Null, |p| int(p as u64))),
                ("op", int(s.op as u64)),
                ("name", Json::Str(s.name.clone())),
                ("start_ns", int(s.start_ns)),
                ("end_ns", int(s.end_ns)),
            ]);
            writeln!(out, "{}", line.to_compact()).map_err(io)?;
        }
        out.flush().map_err(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tr = Tracer::new();
        tr.begin_op();
        tr.enter("outer");
        tr.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        tr.exit();
        tr.count("things", 3.0);
        tr.end_op();
        let inner = tr.median_per_op("inner.ms");
        let outer = tr.median_per_op("outer.ms");
        assert!(inner >= 20.0, "{inner}");
        assert!(
            outer < inner,
            "outer's self time excludes its child: {outer} vs {inner}"
        );
        assert!(tr.median_per_op("trace.coverage") > 0.9);
        assert_eq!(tr.median_per_op("things"), 3.0);
        assert_eq!(tr.median_per_op("absent.ms"), 0.0);
        assert_eq!(tr.spans.len(), 3);
        assert_eq!(tr.spans[2].parent, Some(1));
    }

    #[test]
    fn an_op_that_fails_inside_a_span_still_ends_cleanly() {
        let mut tr = Tracer::new();
        tr.begin_op();
        tr.enter("left open");
        tr.end_op();
        tr.begin_op();
        tr.end_op();
        assert_eq!(tr.ops(), 2);
        assert!(tr
            .spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
        assert_eq!(tr.spans[2].parent, None, "the second op is a new root");
    }
}
