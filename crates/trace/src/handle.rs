//! The cheap handle instrumented code holds: a shared sink plus the trace
//! origin. A disabled handle is a `None` — every emit is one branch, no
//! clock read, no allocation, so un-instrumented callers pay nothing.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::event::{Event, EventKind};
use crate::sink::Sink;
use crate::stack::SpanStacks;

/// Identity of a span. `ROOT` (0) is the implicit top-level scope: it is
/// never opened or closed, and events outside any span carry it. `Default`
/// is `ROOT`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const ROOT: SpanId = SpanId(0);

    pub fn is_root(self) -> bool {
        self.0 == 0
    }
}

struct Inner {
    /// Event delivery; `None` in profiler-only mode, where span opens
    /// still publish stack frames but no events are constructed.
    sink: Option<Arc<dyn Sink>>,
    /// Span-stack publication for the sampling profiler (`rrp-prof`).
    stacks: Option<Arc<SpanStacks>>,
    origin: Instant,
    next_span: AtomicU64,
}

/// Cloneable capability to emit trace events. The default handle is *off*:
/// `emit` is a single `Option` check. An enabled handle stamps events with
/// microseconds since its origin (monotonic) and the current worker lane.
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() { "TraceHandle(on)" } else { "TraceHandle(off)" })
    }
}

impl TraceHandle {
    /// The disabled handle (same as `Default`). ~Zero cost to carry and
    /// emit against.
    pub fn off() -> Self {
        Self { inner: None }
    }

    /// A handle delivering events to `sink`, with its origin at "now".
    pub fn new(sink: Arc<dyn Sink>) -> Self {
        Self::with_parts(Some(sink), None)
    }

    /// A handle with any combination of event sink and span-stack
    /// publication. `(None, None)` degenerates to the disabled handle.
    /// With stacks but no sink, span guards publish frames for the
    /// profiler while `emit` stays a near-no-op (no clock read, no event
    /// construction).
    pub fn with_parts(sink: Option<Arc<dyn Sink>>, stacks: Option<Arc<SpanStacks>>) -> Self {
        if sink.is_none() && stacks.is_none() {
            return Self::off();
        }
        Self {
            inner: Some(Arc::new(Inner {
                sink,
                stacks,
                origin: Instant::now(),
                next_span: AtomicU64::new(1),
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The span-stack publication surface, when profiling is wired in.
    pub fn stacks(&self) -> Option<&Arc<SpanStacks>> {
        self.inner.as_ref().and_then(|i| i.stacks.as_ref())
    }

    /// Microseconds since the trace origin (0 when disabled).
    pub fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.origin.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    /// Emit one event into `span`. No-op when disabled or when the handle
    /// is profiler-only (stacks without a sink): the event is never
    /// constructed, so hot solver loops pay two predictable branches.
    pub fn emit(&self, span: SpanId, kind: EventKind) {
        if let Some(inner) = &self.inner {
            if let Some(sink) = &inner.sink {
                let ev = Event {
                    t_us: inner.origin.elapsed().as_micros() as u64,
                    worker: current_worker(),
                    span,
                    kind,
                };
                sink.emit(&ev);
            }
        }
    }

    /// Open a span under `parent` and return its id ([`SpanId::ROOT`] when
    /// disabled, which [`TraceHandle::close_span`] then ignores).
    pub fn open_span(&self, name: &'static str, parent: SpanId) -> SpanId {
        match &self.inner {
            Some(inner) => {
                // relaxed-ok: span ids only need uniqueness, not ordering
                let id = SpanId(inner.next_span.fetch_add(1, Ordering::Relaxed));
                self.emit(id, EventKind::SpanOpen { name, parent });
                id
            }
            None => SpanId::ROOT,
        }
    }

    /// Close a span previously returned by [`TraceHandle::open_span`].
    pub fn close_span(&self, span: SpanId) {
        if !span.is_root() {
            self.emit(span, EventKind::SpanClose);
        }
    }

    /// RAII variant of open/close: the span closes when the guard drops.
    ///
    /// Unlike the raw [`TraceHandle::open_span`]/[`close_span`] pair —
    /// which may legally cross threads (the engine closes request spans
    /// on a worker other than the submitter) — a guard lives and dies on
    /// one thread, so it also publishes the span name to the current
    /// worker lane's profiler stack and pops it on drop. The lane is
    /// captured at open so a later [`set_worker`] cannot unbalance another
    /// lane.
    pub fn span(&self, name: &'static str, parent: SpanId) -> SpanGuard {
        let pushed_lane = self.stack_push(name);
        SpanGuard { handle: self.clone(), id: self.open_span(name, parent), pushed_lane }
    }

    /// An event-less profiler frame: publishes `name` on the current
    /// lane's span stack (when profiling is wired in) without emitting
    /// any trace event — used where the span itself is opened raw across
    /// threads but the *work* happens on this one.
    pub fn stack_frame(&self, name: &'static str) -> StackFrameGuard {
        StackFrameGuard { handle: self.clone(), pushed_lane: self.stack_push(name) }
    }

    fn stack_push(&self, name: &'static str) -> Option<u32> {
        let inner = self.inner.as_ref()?;
        let stacks = inner.stacks.as_ref()?;
        let lane = current_worker();
        stacks.push(lane, name);
        Some(lane)
    }

    fn stack_pop(&self, lane: u32) {
        if let Some(inner) = &self.inner {
            if let Some(stacks) = &inner.stacks {
                stacks.pop(lane);
            }
        }
    }

    /// Ask the sink to persist anything buffered (JSONL writers).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            if let Some(sink) = &inner.sink {
                sink.flush();
            }
        }
    }
}

/// Guard returned by [`TraceHandle::span`]; closes the span on drop and
/// pops the profiler stack frame it pushed (if any).
pub struct SpanGuard {
    handle: TraceHandle,
    id: SpanId,
    pushed_lane: Option<u32>,
}

impl SpanGuard {
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Emit an event inside this span.
    pub fn emit(&self, kind: EventKind) {
        self.handle.emit(self.id, kind);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.handle.close_span(self.id);
        if let Some(lane) = self.pushed_lane {
            self.handle.stack_pop(lane);
        }
    }
}

/// Guard returned by [`TraceHandle::stack_frame`]; pops the published
/// frame on drop. Emits nothing.
pub struct StackFrameGuard {
    handle: TraceHandle,
    pushed_lane: Option<u32>,
}

impl Drop for StackFrameGuard {
    fn drop(&mut self) {
        if let Some(lane) = self.pushed_lane {
            self.handle.stack_pop(lane);
        }
    }
}

thread_local! {
    static WORKER: Cell<u32> = const { Cell::new(0) };
}

/// Tag the current thread's events with worker lane `id` (the engine
/// worker index). Defaults to 0.
pub fn set_worker(id: u32) {
    WORKER.with(|w| w.set(id));
}

/// The current thread's worker lane.
pub fn current_worker() -> u32 {
    WORKER.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RingSink;
    use crate::stack::SpanStacks;

    #[test]
    fn disabled_handle_is_inert() {
        let h = TraceHandle::off();
        assert!(!h.is_enabled());
        let s = h.open_span("x", SpanId::ROOT);
        assert!(s.is_root());
        h.emit(s, EventKind::Enqueued);
        h.close_span(s);
        h.flush();
    }

    #[test]
    fn spans_are_balanced_and_nested() {
        let ring = Arc::new(RingSink::new(64));
        let h = TraceHandle::new(ring.clone());
        let outer = h.open_span("outer", SpanId::ROOT);
        {
            let inner = h.span("inner", outer);
            inner.emit(EventKind::Dequeued);
        }
        h.close_span(outer);
        let evs = ring.drain();
        let tags: Vec<&str> = evs.iter().map(|e| e.kind.tag()).collect();
        assert_eq!(tags, ["span_open", "span_open", "dequeued", "span_close", "span_close"]);
        // inner's parent is outer
        match &evs[1].kind {
            EventKind::SpanOpen { parent, .. } => assert_eq!(*parent, outer),
            other => panic!("expected span_open, got {other:?}"),
        }
    }

    #[test]
    fn span_guards_publish_profiler_frames() {
        let stacks = Arc::new(SpanStacks::new());
        let h = TraceHandle::with_parts(None, Some(stacks.clone()));
        assert!(h.is_enabled(), "profiler-only handles still thread through");
        let mut ids = Vec::new();
        {
            let _req = h.stack_frame("request");
            let rung = h.span("rung:full", SpanId::ROOT);
            let _milp = h.span("milp", rung.id());
            assert!(stacks.sample_into(0, &mut ids));
            assert_eq!(stacks.resolve(&ids), ["request", "rung:full", "milp"]);
            // profiler-only: emits are inert but harmless
            h.emit(rung.id(), EventKind::Dequeued);
        }
        assert!(stacks.sample_into(0, &mut ids));
        assert!(ids.is_empty(), "guards pop their frames on drop");
        h.flush();
    }

    #[test]
    fn raw_open_close_does_not_touch_the_stack() {
        // raw spans may cross threads, so only RAII guards publish frames
        let ring = Arc::new(RingSink::new(16));
        let stacks = Arc::new(SpanStacks::new());
        let h = TraceHandle::with_parts(Some(ring.clone()), Some(stacks.clone()));
        let s = h.open_span("request", SpanId::ROOT);
        let mut ids = Vec::new();
        assert!(stacks.sample_into(0, &mut ids));
        assert!(ids.is_empty());
        h.close_span(s);
        assert_eq!(ring.drain().len(), 2, "events still flow");
    }

    #[test]
    fn guard_pops_the_lane_it_pushed() {
        let stacks = Arc::new(SpanStacks::new());
        let h = TraceHandle::with_parts(None, Some(stacks.clone()));
        set_worker(5);
        let g = h.span("rung:full", SpanId::ROOT);
        set_worker(0);
        assert_eq!(stacks.depth(5), 1);
        // lane changed between open and drop: the guard still pops lane 5
        drop(g);
        assert_eq!(stacks.depth(5), 0);
        assert_eq!(stacks.depth(0), 0);
    }

    #[test]
    fn timestamps_are_monotone() {
        let ring = Arc::new(RingSink::new(8));
        let h = TraceHandle::new(ring.clone());
        h.emit(SpanId::ROOT, EventKind::Enqueued);
        h.emit(SpanId::ROOT, EventKind::Dequeued);
        let evs = ring.drain();
        assert!(evs[0].t_us <= evs[1].t_us);
    }
}
