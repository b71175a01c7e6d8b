//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, the layer (crate) it times, start and end offsets
//! from the tracer's epoch, an optional parent span and the request it
//! belongs to. Spans are only kept when tracing is on; they are written
//! out as JSON lines when the run ends. A layer's *self time* is the sum,
//! over its spans, of each span's duration minus the part of it that its
//! child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

/// Span recorder shared by the client threads and the replays.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn offset_ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; returns its id (`None` when tracing is off).
    pub fn record(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let mut spans = self
            .spans
            .lock()
            .expect("no panic while holding the span list");
        spans.push(Span {
            name,
            layer,
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end).max(self.offset_ns(start)),
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span now; close it with [`Tracer::close`]. Children need the
    /// parent's id before it ends, so an open span is recorded at once and
    /// its end patched in later.
    pub fn open(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, layer, parent, request, now, now)
    }

    /// Ends an open span now.
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.offset_ns(Instant::now());
            let mut spans = self
                .spans
                .lock()
                .expect("no panic while holding the span list");
            spans[id].end_ns = end;
        }
    }

    /// Runs `f` inside a span and returns its result and wall time, ms.
    /// The time is measured whether or not tracing is on.
    pub fn time<T>(
        &self,
        name: &'static str,
        layer: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, layer, parent, request, start, end);
        (out, end.duration_since(start).as_secs_f64() * 1e3)
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no panic while holding the span list")
            .clone()
    }

    /// Self time per layer, ms.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let covered = covered_ns(s.start_ns, s.end_ns, &mut children[i]);
            *out.entry(s.layer).or_insert(0.0) += (s.end_ns - s.start_ns - covered) as f64 / 1e6;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Span and layer names are static identifiers: nothing to escape.
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"layer\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name,
                s.layer,
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(cursor), b.min(end));
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_overlapping_children_is_counted_once() {
        let mut iv = vec![(10, 30), (20, 40), (50, 60), (95, 120)];
        assert_eq!(covered_ns(0, 100, &mut iv), 30 + 10 + 5);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        let e = t.epoch;
        let at = |ms: u64| e + std::time::Duration::from_millis(ms);
        let root = t.record("root", "a", None, 1, at(0), at(100));
        t.record("child", "b", root, 1, at(10), at(40));
        t.record("child", "b", root, 1, at(30), at(50));
        let by_layer = t.self_ms_by_layer();
        assert!((by_layer["a"] - 60.0).abs() < 1e-9);
        assert!((by_layer["b"] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn disabled_tracer_keeps_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (v, ms) = t.time("x", "a", None, 0, || 7);
        assert_eq!(v, 7);
        assert!(ms >= 0.0);
        assert!(t.spans().is_empty());
    }
}
