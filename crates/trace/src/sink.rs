//! Event sinks: where emitted events go. All sinks are `Sync` — the
//! parallel branch & bound emits from several lanes at once — and none may
//! block the solver hot path (the ring buffer drops oldest instead of
//! waiting; the JSONL writer takes one short lock per line).

use std::collections::VecDeque;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::event::{Event, EventKind, SOLVE_STATUSES};
use crate::hist::LogHistogram;

/// Receives every emitted [`Event`]. Implementations must be cheap and
/// non-blocking: `emit` runs on solver threads.
pub trait Sink: Send + Sync {
    fn emit(&self, ev: &Event);
    /// Persist anything buffered. Default: nothing to do.
    fn flush(&self) {}
    /// Events this sink has discarded under pressure (e.g. a full ring).
    /// Default: a sink that never drops reports 0. Lets the engine surface
    /// loss through `Arc<dyn Sink>` without downcasting.
    fn dropped_events(&self) -> u64 {
        0
    }
}

/// Discards everything. Useful when a sink slot must be filled but no
/// telemetry is wanted; prefer [`crate::TraceHandle::off`] where possible
/// (it skips even the timestamp read).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl Sink for NullSink {
    #[inline]
    fn emit(&self, _ev: &Event) {}
}

/// Fixed-capacity in-memory ring. When full it drops the *oldest* event
/// and counts the drop — the solver never blocks on a slow consumer.
pub struct RingSink {
    buf: Mutex<VecDeque<Event>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            buf: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            dropped: AtomicU64::new(0),
        }
    }

    /// Events dropped because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }

    /// Take every buffered event, oldest first, leaving the ring empty.
    pub fn drain(&self) -> Vec<Event> {
        self.buf.lock().drain(..).collect()
    }

    /// Copy the buffered events, oldest first, without clearing.
    pub fn snapshot(&self) -> Vec<Event> {
        self.buf.lock().iter().cloned().collect()
    }
}

impl Sink for RingSink {
    fn emit(&self, ev: &Event) {
        let mut buf = self.buf.lock();
        if buf.len() == self.capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(ev.clone());
    }

    fn dropped_events(&self) -> u64 {
        RingSink::dropped_events(self)
    }
}

/// Streams events as JSON lines to any writer (usually a file). Write
/// errors are swallowed — telemetry must never fail the solve.
pub struct JsonlSink {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// Create (truncate) `path` and stream events to it.
    pub fn create<P: AsRef<Path>>(path: P) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(Self::to_writer(Box::new(file)))
    }

    /// Stream to an arbitrary writer.
    pub fn to_writer(w: Box<dyn Write + Send>) -> Self {
        Self { out: Mutex::new(BufWriter::new(w)) }
    }
}

impl Sink for JsonlSink {
    fn emit(&self, ev: &Event) {
        let mut line = ev.to_json();
        line.push('\n');
        let _ = self.out.lock().write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.out.lock().flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        let _ = self.out.lock().flush();
    }
}

/// Fans every event out to all inner sinks, in order.
pub struct TeeSink {
    sinks: Vec<Arc<dyn Sink>>,
}

impl TeeSink {
    pub fn new(sinks: Vec<Arc<dyn Sink>>) -> Self {
        Self { sinks }
    }
}

impl Sink for TeeSink {
    fn emit(&self, ev: &Event) {
        for s in &self.sinks {
            s.emit(ev);
        }
    }

    fn flush(&self) {
        for s in &self.sinks {
            s.flush();
        }
    }

    fn dropped_events(&self) -> u64 {
        self.sinks.iter().map(|s| s.dropped_events()).sum()
    }
}

/// Lock-free aggregate counters over the event stream: the engine's
/// solver-event ledger, read at scrape time by its `MetricsSnapshot` and
/// `/metrics` views. Always safe to leave attached: every update is a
/// relaxed atomic (the gap sum, once per budget-stopped solve, a CAS).
#[derive(Default)]
pub struct CounterSink {
    /// Branch & bound nodes opened.
    pub milp_nodes: AtomicU64,
    /// Nodes closed without branching, indexed like [`crate::PruneReason::ALL`].
    pub nodes_pruned: [AtomicU64; 3],
    /// Nodes whose LP optimum was integral.
    pub nodes_integral: AtomicU64,
    /// Branch & bound searches finished, indexed like [`SOLVE_STATUSES`].
    pub solves: [AtomicU64; 6],
    /// Total simplex iterations across all LP solves.
    pub lp_iters: AtomicU64,
    /// LP solves finished.
    pub lp_solves: AtomicU64,
    /// LP solves that completed on the warm dual-simplex path.
    pub lp_warm: AtomicU64,
    /// Incumbent improvements observed.
    pub incumbents: AtomicU64,
    /// Basis (re)factorisations.
    pub refactorisations: AtomicU64,
    /// Relative gaps reported by solves that stopped on a budget
    /// (`solve_done` with a `terminated:*` status) holding an incumbent; a
    /// stop without one has no finite gap and is not sampled.
    pub gap_at_timeout: LogHistogram,
    /// Sum of the samples in `gap_at_timeout`, as `f64` bits.
    gap_at_timeout_sum: AtomicU64,
    /// Events seen in total.
    pub events: AtomicU64,
}

impl CounterSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of the gaps sampled into `gap_at_timeout`.
    pub fn gap_at_timeout_sum(&self) -> f64 {
        f64::from_bits(self.gap_at_timeout_sum.load(Ordering::Relaxed))
    }
}

impl Sink for CounterSink {
    fn emit(&self, ev: &Event) {
        self.events.fetch_add(1, Ordering::Relaxed);
        match &ev.kind {
            EventKind::NodeOpened { .. } => {
                self.milp_nodes.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::NodePruned { reason, .. } => {
                self.nodes_pruned[*reason as usize].fetch_add(1, Ordering::Relaxed);
            }
            EventKind::NodeIntegral { .. } => {
                self.nodes_integral.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::LpSolved { iters, warm, .. } => {
                self.lp_solves.fetch_add(1, Ordering::Relaxed);
                self.lp_iters.fetch_add(*iters as u64, Ordering::Relaxed);
                if *warm {
                    self.lp_warm.fetch_add(1, Ordering::Relaxed);
                }
            }
            EventKind::IncumbentImproved { .. } => {
                self.incumbents.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::Refactored { .. } => {
                self.refactorisations.fetch_add(1, Ordering::Relaxed);
            }
            EventKind::SolveDone { status, gap, .. } => {
                if let Some(i) = SOLVE_STATUSES.iter().position(|s| s == status) {
                    self.solves[i].fetch_add(1, Ordering::Relaxed);
                }
                if status.starts_with("terminated") && gap.is_finite() {
                    self.gap_at_timeout.record(*gap);
                    let _ = self.gap_at_timeout_sum.fetch_update(
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                        |bits| Some((f64::from_bits(bits) + gap).to_bits()),
                    );
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SpanId;

    fn ev(kind: EventKind) -> Event {
        Event { t_us: 0, worker: 0, span: SpanId::ROOT, kind }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let ring = RingSink::new(3);
        for i in 0..5u64 {
            ring.emit(&ev(EventKind::NodeOpened { id: i, depth: 0, bound: 0.0 }));
        }
        assert_eq!(ring.dropped_events(), 2);
        let kept = ring.drain();
        let ids: Vec<u64> = kept
            .iter()
            .map(|e| match e.kind {
                EventKind::NodeOpened { id, .. } => id,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, [2, 3, 4]);
        assert!(ring.is_empty());
    }

    #[test]
    fn jsonl_writes_one_line_per_event() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::new(Mutex::new(Vec::new()));
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(data);
                Ok(data.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = JsonlSink::to_writer(Box::new(Shared(Arc::clone(&buf))));
        sink.emit(&ev(EventKind::Enqueued));
        sink.emit(&ev(EventKind::Dequeued));
        sink.flush();
        let text = String::from_utf8(buf.lock().clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"ev\":\"enqueued\""));
        assert!(lines[1].contains("\"ev\":\"dequeued\""));
    }

    #[test]
    fn counter_sink_aggregates() {
        let c = CounterSink::new();
        c.emit(&ev(EventKind::NodeOpened { id: 1, depth: 0, bound: 0.0 }));
        c.emit(&ev(EventKind::NodeOpened { id: 2, depth: 1, bound: 0.5 }));
        c.emit(&ev(EventKind::LpSolved { iters: 11, status: "optimal", warm: true }));
        c.emit(&ev(EventKind::NodePruned { id: 2, reason: crate::PruneReason::Infeasible }));
        c.emit(&ev(EventKind::NodeIntegral { id: 1, objective: 1.0 }));
        c.emit(&ev(EventKind::IncumbentImproved { objective: 1.0 }));
        c.emit(&ev(EventKind::SolveDone { status: "terminated:deadline", nodes: 2, gap: 0.25 }));
        c.emit(&ev(EventKind::SolveDone {
            status: "terminated:deadline",
            nodes: 0,
            gap: f64::INFINITY,
        }));
        c.emit(&ev(EventKind::SolveDone { status: "optimal", nodes: 2, gap: 0.0 }));
        assert_eq!(c.milp_nodes.load(Ordering::Relaxed), 2);
        assert_eq!(c.nodes_pruned[1].load(Ordering::Relaxed), 1);
        assert_eq!(c.nodes_integral.load(Ordering::Relaxed), 1);
        assert_eq!(c.solves[0].load(Ordering::Relaxed), 1, "optimal");
        assert_eq!(c.solves[1].load(Ordering::Relaxed), 2, "terminated:deadline");
        // the stop without an incumbent has no gap to sample
        assert_eq!(c.gap_at_timeout_sum(), 0.25);
        assert_eq!(c.lp_iters.load(Ordering::Relaxed), 11);
        assert_eq!(c.lp_warm.load(Ordering::Relaxed), 1);
        assert_eq!(c.incumbents.load(Ordering::Relaxed), 1);
        assert_eq!(c.gap_at_timeout.count(), 1);
        let p50 = c.gap_at_timeout.quantile(0.5);
        assert!((p50 - 0.25).abs() / 0.25 < 0.1, "p50 {p50}");
    }

    #[test]
    fn tee_fans_out() {
        let a = Arc::new(RingSink::new(4));
        let b = Arc::new(CounterSink::new());
        let tee = TeeSink::new(vec![a.clone() as Arc<dyn Sink>, b.clone() as Arc<dyn Sink>]);
        tee.emit(&ev(EventKind::NodeOpened { id: 0, depth: 0, bound: 0.0 }));
        assert_eq!(a.len(), 1);
        assert_eq!(b.milp_nodes.load(Ordering::Relaxed), 1);
    }
}
