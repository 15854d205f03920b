//! The flight-recorder half: the engine's bounded ring of recent
//! lifecycle events, plus trigger detection that dumps a post-mortem
//! bundle when an incident fires.
//!
//! [`FlightRing`] is the one lifecycle [`Sink`] the engine tees beside
//! its solver counters (bounded by both a retention horizon and a hard
//! event cap). The SLO ledger cuts exemplar timelines out of it and the
//! [`FlightRecorder`] serialises it into bundles. The recorder itself
//! consumes no events: the engine's workers feed its two spike triggers
//! (deadline-missed requests and `exhausted:*` ladder rungs within a
//! sliding window) through [`FlightRecorder::note_outcome`], and external
//! triggers (`readyz` flip, panic hook, SLO burn rate, sim SLO breach)
//! arrive via [`FlightRecorder::trigger`]. A fired trigger is debounced
//! (`min_dump_interval_ms`): one incident produces one bundle, not one
//! per symptom.
//!
//! The ring's memory is bounded by its event cap: 16 384 slots of
//! `size_of::<Event>()` (104 B) ≈ 1.7 MB of deque buffer, plus the
//! strings some events own. The bound holds because [`FlightRing`]
//! evicts before it inserts, the rule every capped FIFO in the workspace
//! follows: a push at the cap asks the `VecDeque` for cap + 1 slots, and
//! its doubling growth then allocates 2 × cap.
//!
//! Dumping happens inline on the triggering thread. That is a deliberate
//! trade: triggers are rare by construction (debounced, spike-gated) and
//! the dump is a bounded serialisation + one file write, so pausing the
//! thread that noticed the incident for a few milliseconds beats running
//! a dedicated thread that is idle for weeks.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};
use std::time::Instant;

use rrp_trace::json::{escape_into, str_into};
use rrp_trace::{Event, EventKind, Sink, SpanId};

use crate::profiler::SamplerShared;

/// Flight-ring retention horizon (trace time): older events are pruned.
const RING_SECONDS: u64 = 30;
/// Hard cap on ring occupancy, against event storms inside the horizon.
const RING_EVENTS: usize = 16_384;

/// Profiling and flight-recorder options (engine: `EngineConfig::prof`).
#[derive(Debug, Clone)]
pub struct ProfConfig {
    /// Sampler frequency. 0 disables the sampler thread (the flight
    /// recorder still runs; its bundles just carry no samples).
    pub sample_hz: u32,
    /// Where post-mortem bundles land. `None` = triggers are tracked
    /// (cause, counters) but nothing is written to disk.
    pub bundle_dir: Option<PathBuf>,
    /// Fire `deadline_miss_spike` when this many deadline-missed
    /// requests complete within [`ProfConfig::spike_window_ms`]. 0 = off.
    pub deadline_miss_spike: u32,
    /// Sliding window for both spike triggers.
    pub spike_window_ms: u64,
    /// Fire `budget_exhaustion` when this many `exhausted:*` ladder
    /// rungs land within the window. 0 = off.
    pub budget_exhaustion_spike: u32,
    /// Debounce: a fired trigger suppresses further dumps for this long,
    /// so one incident produces one bundle, not a bundle per symptom.
    pub min_dump_interval_ms: u64,
    /// Chain a process-wide panic hook that fires a `panic` trigger
    /// before the previous hook runs. Off by default (it is global
    /// state, so embedders opt in).
    pub panic_hook: bool,
}

impl Default for ProfConfig {
    fn default() -> Self {
        Self {
            sample_hz: 97,
            bundle_dir: None,
            deadline_miss_spike: 16,
            spike_window_ms: 5_000,
            budget_exhaustion_spike: 64,
            min_dump_interval_ms: 30_000,
            panic_hook: false,
        }
    }
}

/// Bounded ring of recent lifecycle events: pruned to 30 s of trace time
/// and capped at 16 384 events (cap evictions are counted). `emit`
/// evicts before it pushes, so the buffer never grows past the cap:
/// 16 384 × 104 B ≈ 1.7 MB.
pub struct FlightRing {
    seconds: u64,
    cap: usize,
    events: Mutex<VecDeque<Event>>,
    dropped: AtomicU64,
}

impl Default for FlightRing {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRing {
    pub fn new() -> Self {
        Self {
            seconds: RING_SECONDS,
            cap: RING_EVENTS,
            events: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// A ring with test-sized bounds; `cap` must be positive.
    #[cfg(test)]
    fn with_bounds(seconds: u64, cap: usize) -> Self {
        assert!(cap > 0, "a flight ring holds at least one event");
        Self { seconds, cap, ..Self::new() }
    }

    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted by the hard cap (time-pruning is by design and not
    /// counted as loss).
    pub fn dropped(&self) -> u64 {
        // relaxed-ok: telemetry counter, nothing gates on it
        self.dropped.load(Ordering::Relaxed)
    }

    /// Cut request span `root`'s subtree out of the ring: its `request`
    /// span open through its `RequestDone`, keeping only events of spans
    /// opened under it. At most `max` events are kept — the `RequestDone`
    /// always among them — and the rest are counted as truncated. A root
    /// whose open has aged out is cut from the oldest retained event.
    pub fn cut(&self, root: SpanId, max: usize) -> (Vec<Event>, u64) {
        let ring = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        let start = ring
            .iter()
            .rposition(|e| e.span == root && matches!(e.kind, EventKind::SpanOpen { .. }))
            .unwrap_or(0);
        let mut spans = vec![root];
        let mut events = Vec::new();
        let mut truncated = 0;
        for ev in ring.range(start..) {
            let done = ev.span == root && matches!(ev.kind, EventKind::RequestDone { .. });
            match &ev.kind {
                EventKind::SpanOpen { parent, .. } if ev.span != root => {
                    if !spans.contains(parent) {
                        continue;
                    }
                    spans.push(ev.span);
                }
                _ if !spans.contains(&ev.span) => continue,
                _ => {}
            }
            if done || events.len() + 1 < max {
                events.push(ev.clone());
            } else {
                truncated += 1;
            }
            if done {
                break;
            }
        }
        (events, truncated)
    }
}

impl Sink for FlightRing {
    fn emit(&self, ev: &Event) {
        // Solver-layer events (per-node, per-simplex-iteration) are
        // deliberately not recorded: they arrive thousands per request,
        // would age the lifecycle events a post-mortem actually needs out
        // of the ring in milliseconds, and the mutex push per event would
        // show up in engine throughput. The profiler's samples are the
        // intended window into solver internals; the ring keeps request
        // lifecycle, ladder, audit and solve summaries.
        match &ev.kind {
            EventKind::SimplexIter { .. }
            | EventKind::Refactored { .. }
            | EventKind::LpSolved { .. }
            | EventKind::NodeOpened { .. }
            | EventKind::NodePruned { .. }
            | EventKind::NodeIntegral { .. }
            | EventKind::IncumbentImproved { .. }
            | EventKind::BoundImproved { .. }
            | EventKind::GapSample { .. } => return,
            _ => {}
        }
        let ev = ev.clone();
        let horizon = ev.t_us.saturating_sub(self.seconds * 1_000_000);
        let mut ring = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        while ring.front().is_some_and(|e| e.t_us < horizon) {
            ring.pop_front();
        }
        // Evict before inserting: a push at the cap would make room for
        // cap + 1 events, and the deque would double its buffer to do so.
        while ring.len() >= self.cap {
            ring.pop_front();
            // relaxed-ok: telemetry counter
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(ev);
    }
}

pub struct FlightRecorder {
    cfg: ProfConfig,
    /// Monotonic origin for debounce and bundle timestamps.
    origin: Instant,
    ring: Arc<FlightRing>,
    /// Profiler aggregates for the bundle's `samples` section.
    samples: Option<Arc<SamplerShared>>,
    dumps: AtomicU64,
    last_trigger: Mutex<Option<String>>,
    /// Timestamps (trace `t_us`) of recent deadline misses / exhausted
    /// rungs, pruned to the spike window.
    miss_window: Mutex<VecDeque<u64>>,
    exhaust_window: Mutex<VecDeque<u64>>,
    /// Debounce state: recorder-time µs of the last fired trigger.
    last_fired_us: Mutex<Option<u64>>,
    /// `readyz` edge detector for [`FlightRecorder::note_ready`].
    was_ready: AtomicBool,
    /// Writes the bundle's `metrics`, `inflight` and `slo` sections, each
    /// with its `,"key":` — set by the engine, which owns them, once its
    /// shared state (holding this recorder) exists.
    sections: Mutex<Option<Box<dyn Fn(&mut String) + Send + Sync>>>,
}

impl FlightRecorder {
    pub fn new(
        cfg: ProfConfig,
        ring: Arc<FlightRing>,
        samples: Option<Arc<SamplerShared>>,
    ) -> Self {
        Self {
            cfg,
            origin: Instant::now(),
            ring,
            samples,
            dumps: AtomicU64::new(0),
            last_trigger: Mutex::new(None),
            miss_window: Mutex::new(VecDeque::new()),
            exhaust_window: Mutex::new(VecDeque::new()),
            last_fired_us: Mutex::new(None),
            was_ready: AtomicBool::new(true),
            sections: Mutex::new(None),
        }
    }

    /// Microseconds since the recorder came up.
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    pub fn set_bundle_sections(&self, f: Box<dyn Fn(&mut String) + Send + Sync>) {
        *self.sections.lock().unwrap_or_else(PoisonError::into_inner) = Some(f);
    }

    pub fn dumps_fired(&self) -> u64 {
        // relaxed-ok: telemetry counter
        self.dumps.load(Ordering::Relaxed)
    }

    pub fn last_trigger(&self) -> Option<String> {
        self.last_trigger.lock().unwrap_or_else(PoisonError::into_inner).clone()
    }

    /// `/flight` status document: ring occupancy and trigger history.
    pub fn status_json(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"ring_events\":{},\"ring_cap\":{},\"ring_seconds\":{},\"ring_dropped\":{},\"dumps\":{},\"last_trigger\":",
            self.ring.len(),
            self.ring.cap,
            self.ring.seconds,
            self.ring.dropped(),
            self.dumps_fired()
        );
        match self.last_trigger() {
            Some(cause) => str_into(&mut out, &cause),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// Readiness edge detector: a ready→not-ready transition fires the
    /// `readyz_flip` trigger (the not-ready→ready edge is recovery, not
    /// an incident).
    pub fn note_ready(&self, ready: bool) {
        // relaxed-ok: single-word edge detector; the trigger path re-syncs on the debounce mutex
        let was = self.was_ready.swap(ready, Ordering::Relaxed);
        if was && !ready {
            let _ = self.trigger("readyz_flip");
        }
    }

    /// Feed one completed request at trace time `t_us` to the spike
    /// triggers: a missed deadline counts toward `deadline_miss_spike`,
    /// each of its `exhausted` ladder rungs toward `budget_exhaustion`.
    pub fn note_outcome(&self, t_us: u64, deadline_met: bool, exhausted: usize) {
        if !deadline_met && self.spike(&self.miss_window, t_us, 1, self.cfg.deadline_miss_spike) {
            let _ = self.trigger("deadline_miss_spike");
        }
        if exhausted > 0
            && self.spike(&self.exhaust_window, t_us, exhausted, self.cfg.budget_exhaustion_spike)
        {
            let _ = self.trigger("budget_exhaustion");
        }
    }

    /// Fire a trigger: record the cause, and — unless debounced — dump a
    /// bundle to the configured directory. Returns whether the incident
    /// fired (false when the debounce window swallowed it).
    pub fn trigger(&self, cause: &str) -> bool {
        {
            let mut last = self.last_fired_us.lock().unwrap_or_else(PoisonError::into_inner);
            let now = self.now_us();
            if let Some(prev) = *last {
                if now.saturating_sub(prev) < self.cfg.min_dump_interval_ms * 1_000 {
                    return false;
                }
            }
            *last = Some(now);
        }
        // relaxed-ok: telemetry counter
        self.dumps.fetch_add(1, Ordering::Relaxed);
        *self.last_trigger.lock().unwrap_or_else(PoisonError::into_inner) = Some(cause.to_string());
        if let Some(dir) = self.cfg.bundle_dir.clone() {
            // relaxed-ok: reads back our own fetch_add; concurrent dumps excluded by debounce
            let seq = self.dumps.load(Ordering::Relaxed).saturating_sub(1);
            let bundle = self.render_bundle(cause);
            let path = dir.join(format!("postmortem-{seq:03}-{cause}.json"));
            let write = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, bundle.as_bytes()));
            if let Err(e) = write {
                // a failing disk must not take the planner down with it
                eprintln!("rrp-obs: post-mortem dump to {} failed: {e}", path.display());
            }
        }
        true
    }

    /// Serialise the post-mortem bundle (`rrp-postmortem/1` schema).
    fn render_bundle(&self, cause: &str) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":\"rrp-postmortem/1\",\"cause\":\"");
        escape_into(&mut out, cause);
        let _ = write!(
            out,
            "\",\"t_us\":{},\"ring_seconds\":{},\"ring_dropped\":{},\"events\":[",
            self.now_us(),
            self.ring.seconds,
            self.ring.dropped()
        );
        for (i, ev) in
            self.ring.events.lock().unwrap_or_else(PoisonError::into_inner).iter().enumerate()
        {
            if i > 0 {
                out.push(',');
            }
            ev.write_json(&mut out);
        }
        out.push_str("],\"samples\":");
        match &self.samples {
            Some(s) => {
                out.push('[');
                for (i, (path, n)) in s.entries().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"stack\":\"");
                    escape_into(&mut out, path);
                    let _ = write!(out, "\",\"count\":{n}}}");
                }
                out.push(']');
                let _ = write!(out, ",\"samples_total\":{}", s.samples_total());
            }
            None => out.push_str("[],\"samples_total\":0"),
        }
        match &*self.sections.lock().unwrap_or_else(PoisonError::into_inner) {
            Some(f) => f(&mut out),
            None => out.push_str(",\"metrics\":null,\"inflight\":null,\"slo\":null"),
        }
        out.push('}');
        out
    }

    /// Slide `window` to `[t_us - spike_window, t_us]`, admit `n`
    /// occurrences at `t_us`, and report whether occupancy reached
    /// `threshold`.
    fn spike(&self, window: &Mutex<VecDeque<u64>>, t_us: u64, n: usize, threshold: u32) -> bool {
        if threshold == 0 {
            return false;
        }
        let horizon = t_us.saturating_sub(self.cfg.spike_window_ms * 1_000);
        let mut w = window.lock().unwrap_or_else(PoisonError::into_inner);
        while w.front().is_some_and(|&t| t < horizon) {
            w.pop_front();
        }
        for _ in 0..n {
            w.push_back(t_us);
        }
        w.len() >= threshold as usize
    }
}

/// Chain a process-wide panic hook firing a `panic` trigger before the
/// previous hook runs. Holds only a [`Weak`]: once the recorder's engine
/// is gone the hook degenerates to the previous behaviour.
pub fn install_panic_hook(recorder: &Arc<FlightRecorder>) {
    let weak: Weak<FlightRecorder> = Arc::downgrade(recorder);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Some(rec) = weak.upgrade() {
            let _ = rec.trigger("panic");
        }
        prev(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ProfConfig {
        ProfConfig {
            bundle_dir: None,
            deadline_miss_spike: 3,
            spike_window_ms: 1_000,
            budget_exhaustion_spike: 0,
            min_dump_interval_ms: 0,
            ..ProfConfig::default()
        }
    }

    fn recorder(c: ProfConfig) -> FlightRecorder {
        FlightRecorder::new(c, Arc::new(FlightRing::new()), None)
    }

    fn ev(t_us: u64, span: u64, kind: EventKind) -> Event {
        Event { t_us, worker: 0, span: SpanId(span), kind }
    }

    fn done(t_us: u64, span: u64) -> Event {
        ev(
            t_us,
            span,
            EventKind::RequestDone {
                request_id: span,
                tenant: "t".to_string(),
                level: "full",
                outcome: "ok",
                latency_us: 1,
                deadline_met: true,
            },
        )
    }

    fn open(t_us: u64, span: u64, name: &'static str, parent: u64) -> Event {
        ev(t_us, span, EventKind::SpanOpen { name, parent: SpanId(parent) })
    }

    #[test]
    fn miss_spike_fires_inside_the_window_only() {
        let rec = recorder(cfg());
        rec.note_outcome(0, false, 0);
        rec.note_outcome(100, false, 0);
        assert_eq!(rec.dumps_fired(), 0, "two misses stay under the threshold");
        // third miss arrives after the window slid past the first two
        rec.note_outcome(5_000_000, false, 0);
        assert_eq!(rec.dumps_fired(), 0);
        rec.note_outcome(5_000_100, false, 0);
        rec.note_outcome(5_000_200, false, 0);
        assert_eq!(rec.dumps_fired(), 1, "three misses in-window fire");
        assert_eq!(rec.last_trigger().as_deref(), Some("deadline_miss_spike"));
    }

    #[test]
    fn met_deadlines_do_not_count() {
        let rec = recorder(cfg());
        for i in 0..10 {
            rec.note_outcome(i * 100, true, 0);
        }
        assert_eq!(rec.dumps_fired(), 0);
    }

    #[test]
    fn debounce_coalesces_one_incident_into_one_dump() {
        let mut c = cfg();
        c.min_dump_interval_ms = 60_000;
        let rec = recorder(c);
        for i in 0..20 {
            rec.note_outcome(i * 100, false, 0);
        }
        assert_eq!(rec.dumps_fired(), 1, "the storm fires exactly once");
    }

    #[test]
    fn budget_exhaustion_fires_once_inside_the_window() {
        let mut c = cfg();
        c.deadline_miss_spike = 0;
        c.budget_exhaustion_spike = 4;
        c.min_dump_interval_ms = 60_000;
        let rec = recorder(c);
        rec.note_outcome(0, true, 2);
        rec.note_outcome(100, true, 1);
        assert_eq!(rec.dumps_fired(), 0, "three exhausted rungs stay under the threshold");
        // the fourth lands in-window; the rest of the storm is debounced
        for i in 0..10 {
            rec.note_outcome(200 + i * 100, true, 2);
        }
        assert_eq!(rec.dumps_fired(), 1, "the exhaustion storm fires exactly once");
        assert_eq!(rec.last_trigger().as_deref(), Some("budget_exhaustion"));
    }

    #[test]
    fn ring_prunes_by_time_and_cap() {
        let ring = FlightRing::with_bounds(1, 4);
        for i in 0..8 {
            ring.emit(&done(i * 1_000, i + 1));
        }
        assert_eq!(ring.len(), 4, "hard cap holds");
        assert_eq!(ring.dropped(), 4);
        // an event far in the future ages everything else out
        ring.emit(&done(10_000_000, 99));
        assert_eq!(ring.len(), 1, "retention horizon pruned the rest");
    }

    #[test]
    fn ring_buffer_never_grows_past_its_cap() {
        let ring = FlightRing::new();
        for i in 0..3 * RING_EVENTS as u64 {
            ring.emit(&done(i, i + 1));
        }
        assert_eq!(ring.len(), RING_EVENTS);
        assert_eq!(ring.dropped(), 2 * RING_EVENTS as u64);
        let slots = ring.events.lock().unwrap().capacity();
        assert!(slots < 2 * RING_EVENTS, "ring buffer grew to {slots} slots");
    }

    /// The ring's earlier rule, kept as the reference model: push, prune
    /// by the horizon, then pop (counted) while over the cap.
    struct PushThenPrune {
        seconds: u64,
        cap: usize,
        events: VecDeque<Event>,
        dropped: u64,
    }

    impl PushThenPrune {
        fn emit(&mut self, ev: &Event) {
            self.events.push_back(ev.clone());
            let horizon = ev.t_us.saturating_sub(self.seconds * 1_000_000);
            while self.events.front().is_some_and(|e| e.t_us < horizon) {
                self.events.pop_front();
            }
            while self.events.len() > self.cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
    }

    #[test]
    fn evict_first_matches_push_then_prune_event_for_event() {
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move |n: u64| {
            // xorshift64: a seeded stream, identical on every run
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for cap in [1, 2, 3, 8, 33] {
            let ring = FlightRing::with_bounds(1, cap);
            let mut model = PushThenPrune { seconds: 1, cap, events: VecDeque::new(), dropped: 0 };
            let mut t = 0u64;
            for span in 1..=4_000u64 {
                t = match next(64) {
                    0 => t + 1_000_000 + next(2_000_000), // jump past the horizon
                    1 => t.saturating_sub(next(5_000)),   // a racing worker lane
                    _ => t + next(40_000),
                };
                let e = match next(4) {
                    0 => open(t, span, "request", next(span)),
                    1 => ev(t, span, EventKind::Enqueued),
                    2 => ev(t, next(span), EventKind::SpanClose),
                    _ => done(t, span),
                };
                ring.emit(&e);
                model.emit(&e);
                let kept = ring.events.lock().unwrap();
                assert!(kept.iter().eq(model.events.iter()), "cap {cap}: rings diverge at {span}");
                assert_eq!(ring.dropped(), model.dropped, "cap {cap}: dropped diverges at {span}");
            }
            assert!(model.dropped > 0, "cap {cap}: the stream never hit the cap");
            let kept = model.events.len() as u64;
            assert!(kept + model.dropped < 4_000, "cap {cap}: the horizon never pruned");
        }
    }

    #[test]
    fn cut_keeps_only_the_request_subtree() {
        let ring = FlightRing::new();
        ring.emit(&open(0, 1, "request", 0));
        ring.emit(&open(1, 9, "request", 0)); // a neighbour's request
        ring.emit(&ev(2, 1, EventKind::Enqueued));
        ring.emit(&open(3, 2, "rung:full", 1));
        ring.emit(&open(4, 10, "rung:full", 9)); // the neighbour's rung
        ring.emit(&ev(5, 2, EventKind::SimplexIter { phase: 2, iter: 1, objective: 0.0 }));
        ring.emit(&ev(
            6,
            2,
            EventKind::LadderStep { level: "full", outcome: "ok".to_string(), elapsed_us: 1 },
        ));
        ring.emit(&ev(7, 2, EventKind::SpanClose));
        ring.emit(&ev(8, 10, EventKind::SpanClose));
        ring.emit(&done(9, 1));
        ring.emit(&ev(10, 1, EventKind::SpanClose));
        let (events, truncated) = ring.cut(SpanId(1), 64);
        let tags: Vec<&str> = events.iter().map(|e| e.kind.tag()).collect();
        assert_eq!(
            tags,
            ["span_open", "enqueued", "span_open", "ladder_step", "span_close", "request_done"]
        );
        assert_eq!(truncated, 0);
        assert!(events.iter().all(|e| e.span == SpanId(1) || e.span == SpanId(2)));
        // a tight cap keeps the head of the subtree and always the completion
        let (events, truncated) = ring.cut(SpanId(1), 3);
        let tags: Vec<&str> = events.iter().map(|e| e.kind.tag()).collect();
        assert_eq!(tags, ["span_open", "enqueued", "request_done"]);
        assert_eq!(truncated, 3);
    }

    #[test]
    fn readiness_flip_triggers_on_the_falling_edge_only() {
        let rec = recorder(cfg());
        rec.note_ready(true);
        assert_eq!(rec.dumps_fired(), 0);
        rec.note_ready(false);
        assert_eq!(rec.dumps_fired(), 1);
        assert_eq!(rec.last_trigger().as_deref(), Some("readyz_flip"));
        rec.note_ready(true); // recovery is not an incident
        assert_eq!(rec.dumps_fired(), 1);
    }

    #[test]
    fn bundle_lands_in_the_configured_dir_and_parses_shapely() {
        let dir = std::env::temp_dir().join(format!("rrp-prof-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut c = cfg();
        c.bundle_dir = Some(dir.clone());
        let ring = Arc::new(FlightRing::new());
        let rec = FlightRecorder::new(c, Arc::clone(&ring), None);
        rec.set_bundle_sections(Box::new(|out| {
            out.push_str(
                ",\"metrics\":{\"completed\":7},\"inflight\":[{\"tenant\":\"a\"}],\"slo\":null",
            )
        }));
        for i in 0..3 {
            ring.emit(&done(i, i + 1));
            rec.note_outcome(i, false, 0);
        }
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(files.len(), 1, "exactly one bundle: {files:?}");
        let body = std::fs::read_to_string(&files[0]).unwrap();
        assert!(body.contains("\"schema\":\"rrp-postmortem/1\""), "{body}");
        assert!(body.contains("\"cause\":\"deadline_miss_spike\""), "{body}");
        assert!(body.contains("\"completed\":7"), "{body}");
        assert!(body.contains("\"inflight\":[{\"tenant\":\"a\"}]"), "{body}");
        assert!(body.contains("\"ev\":\"request_done\""), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_json_reports_ring_and_trigger_state() {
        let c = cfg();
        let ring = Arc::new(FlightRing::new());
        let rec = FlightRecorder::new(c, Arc::clone(&ring), None);
        ring.emit(&done(0, 1));
        let s = rec.status_json();
        assert!(s.contains("\"ring_events\":1"), "{s}");
        assert!(s.contains("\"last_trigger\":null"), "{s}");
        let _ = rec.trigger("sim_slo_breach");
        assert!(rec.status_json().contains("\"last_trigger\":\"sim_slo_breach\""));
    }
}
