//! Spans recorded by the harness around its calls into each layer: kept in
//! memory during the traced run, written as JSON lines when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanIdx = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The span that caused this one; `None` for a request's root span.
    pub parent: Option<SpanIdx>,
    /// Shared by every span of one request (the op's index in the workload).
    pub request: u64,
    /// Microseconds since the recorder's origin.
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span log with one time origin.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a span over an interval that was timed elsewhere (a client
    /// thread's request, a duration the program reported about itself).
    pub fn add(
        &mut self,
        name: &'static str,
        parent: Option<SpanIdx>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> SpanIdx {
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span { name, parent, request, start_us, end_us });
        self.spans.len() - 1
    }

    /// Run `f` inside a new span and return its result with the span's
    /// duration in microseconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanIdx>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let idx = self.add(name, parent, request, start, Instant::now());
        (out, self.spans[idx].duration_us())
    }

    /// Open a span whose children are recorded before it closes.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanIdx>, request: u64) -> SpanIdx {
        let now = Instant::now();
        self.add(name, parent, request, now, now)
    }

    pub fn close(&mut self, idx: SpanIdx) {
        self.spans[idx].end_us = self.us(Instant::now());
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::duration_us).collect()
    }

    /// Self times (µs) of every span called `name`.
    pub fn self_durations(&self, name: &str) -> Vec<f64> {
        let selfs = self_times(&self.spans);
        self.spans.iter().zip(selfs).filter(|(s, _)| s.name == name).map(|(_, t)| t).collect()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.request, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover (overlapping children are counted once, and a child
/// reaching outside its parent is clipped to it).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.partial_cmp(b).expect("finite span bounds"));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span { name: "s", parent, request: 0, start_us, end_us }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, 0.0, 100.0),     // root
            span(Some(0), 10.0, 30.0),  // child
            span(Some(0), 20.0, 50.0),  // overlaps the first: union is 10..50
            span(Some(0), 90.0, 120.0), // pokes out of the root: clipped to 90..100
            span(Some(1), 12.0, 18.0),  // grandchild only counts against its parent
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100.0 - 40.0 - 10.0);
        assert_eq!(selfs[1], 20.0 - 6.0);
        assert_eq!(selfs[2], 30.0);
        assert_eq!(selfs[3], 30.0);
        assert_eq!(selfs[4], 6.0);
    }

    #[test]
    fn recorder_nests_and_times() {
        let mut rec = Recorder::new();
        let root = rec.open("walk", None, 7);
        let (v, us) = rec.time("leaf", Some(root), 7, || 2 + 2);
        rec.close(root);
        assert_eq!(v, 4);
        assert!(us >= 0.0);
        assert_eq!(rec.spans[1].parent, Some(root));
        assert!(rec.spans[0].end_us >= rec.spans[1].end_us);
        assert_eq!(rec.durations("leaf").len(), 1);
        let selfs = rec.self_durations("walk");
        assert!(selfs[0] <= rec.spans[0].duration_us());
    }
}
