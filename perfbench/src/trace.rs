//! Spans recorded by the benchmark around its calls into each module.
//!
//! A span has a name, a start and end (ns since the trace origin), an
//! optional parent span and a request id shared by every span of one
//! frame. Hot loops collect spans in a thread-local `Vec` and hand them
//! over once; everything stays in memory until [`Trace::write_jsonl`] at
//! the end of the run. With tracing off every call is a no-op, so the
//! untraced run measures the program without the recorder.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub req: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Trace {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Reserves a span id, so children can name a parent still open.
    pub fn id(&self) -> u64 {
        if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Reserves `n` consecutive span ids and returns the first, so hot
    /// loops can derive ids arithmetically.
    pub fn reserve(&self, n: u64) -> u64 {
        if self.on {
            self.next_id.fetch_add(n, Ordering::Relaxed)
        } else {
            0
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Builds a span from already-taken timestamps under a reserved id.
    pub fn span(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        req: u64,
    ) -> Span {
        Span {
            id,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent,
            req,
        }
    }

    /// Records one span (no-op when tracing is off).
    pub fn record(
        &self,
        id: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        req: u64,
    ) {
        if self.on {
            let s = self.span(id, name, start, end, parent, req);
            self.spans.lock().expect("a span recorder panicked").push(s);
        }
    }

    /// Times `f` as a span named `name` and returns its result.
    pub fn time<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.record(id, name, start, Instant::now(), parent, 0);
        out
    }

    /// Hands over a batch of spans a worker thread collected locally.
    pub fn extend(&self, spans: Vec<Span>) {
        if self.on {
            self.spans
                .lock()
                .expect("a span recorder panicked")
                .extend(spans);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("a span recorder panicked");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("a span recorder panicked").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.req
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.id, s.dur_ns() - covered(s.start_ns, s.end_ns, kids))
        })
        .collect()
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for (a, b) in intervals {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Per span name: count, total duration and total self time, in ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs[&s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, start_ns: u64, end_ns: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: "x",
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 100, None),
            span(2, 10, 40, Some(1)),
            span(3, 30, 50, Some(1)),  // overlaps child 2
            span(4, 90, 120, Some(1)), // runs past the parent's end
        ];
        let selfs = self_times(&spans);
        // Covered: [10, 50) and [90, 100) = 50 of 100.
        assert_eq!(selfs[&1], 50);
        assert_eq!(selfs[&2], 30);
    }

    #[test]
    fn off_trace_records_nothing() {
        let t = Trace::new(false);
        t.time("a", None, || ());
        assert!(t.spans().is_empty());
        let t = Trace::new(true);
        let v = t.time("a", None, || 7);
        assert_eq!(v, 7);
        assert_eq!(t.durations_s("a").len(), 1);
    }
}
