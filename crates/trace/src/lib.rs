//! # rrp-trace — structured solver telemetry
//!
//! A std-only span/event subsystem threaded through the whole solve path:
//! LP simplex iterations and basis factorisations, branch & bound search
//! tree events and gap samples, audit-gate verdicts, and engine request
//! lifecycles. The design goals, in order:
//!
//! 1. **Zero cost when off.** Instrumented code holds a [`TraceHandle`];
//!    the default handle is disabled and every emit is one branch — no
//!    clock read, no allocation, no lock.
//! 2. **Never block the solver.** [`RingSink`] drops oldest (counting
//!    drops) instead of waiting; [`JsonlSink`] takes one short lock per
//!    line and swallows I/O errors; [`CounterSink`] is all relaxed
//!    atomics. All sinks are `Sync` — the engine's workers emit from
//!    many lanes at once.
//! 3. **Machine-readable.** Events serialise as flat single-line JSON
//!    tagged by `"ev"`, so a JSONL trace is greppable and the `xtask
//!    trace` renderer needs no schema.
//!
//! Spans ([`SpanId`]) scope events: the engine opens a `request` span per
//! submission, the ladder a `rung:*` span per attempt, the MILP solver a
//! `milp` span per search. Every open is matched by exactly one close and
//! all events of a span fall between the two — a property pinned by tests.
//!
//! ```
//! use std::sync::Arc;
//! use rrp_trace::{EventKind, RingSink, SpanId, TraceHandle};
//!
//! let ring = Arc::new(RingSink::new(1024));
//! let trace = TraceHandle::new(ring.clone());
//! let span = trace.open_span("milp", SpanId::ROOT);
//! trace.emit(span, EventKind::NodeOpened { id: 1, depth: 0, bound: f64::NEG_INFINITY });
//! trace.close_span(span);
//! assert_eq!(ring.drain().len(), 3);
//! ```

mod event;
mod handle;
mod hist;
pub mod json;
mod sink;
mod stack;

pub use event::{Event, EventKind, PruneReason, SOLVE_STATUSES};
pub use handle::{current_worker, set_worker, SpanGuard, SpanId, StackFrameGuard, TraceHandle};
pub use hist::LogHistogram;
pub use sink::{CounterSink, JsonlSink, RingSink, Sink, TeeSink};
pub use stack::{SpanStacks, MAX_LANES, MAX_STACK_DEPTH};
