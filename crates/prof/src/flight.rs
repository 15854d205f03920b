//! The flight-recorder half: an always-on bounded ring of recent trace
//! events plus trigger detection, dumping a post-mortem bundle when an
//! incident fires.
//!
//! The recorder is a [`Sink`] teed into the engine's event pipeline.
//! Every event lands in the ring (bounded by both a retention horizon
//! and a hard event cap); two event-driven triggers watch the stream —
//! a sliding-window spike of deadline-missed requests and a spike of
//! `exhausted:*` ladder rungs — and external triggers (`readyz` flip,
//! panic hook, sim SLO breach) arrive via [`FlightRecorder::trigger`].
//! A fired trigger is debounced (`min_dump_interval_ms`): one incident
//! produces one bundle, not one per symptom.
//!
//! Dumping happens inline on the triggering thread. That is a deliberate
//! trade: triggers are rare by construction (debounced, spike-gated) and
//! the dump is a bounded serialisation + one file write, so pausing the
//! thread that noticed the incident for a few milliseconds beats running
//! a dedicated thread that is idle for weeks.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use rrp_trace::json::escape_into;
use rrp_trace::{Event, EventKind, Sink};

use crate::profiler::SamplerShared;
use crate::ProfConfig;

/// Providers the engine wires in after construction (the recorder must
/// exist before the engine's shared state does, since it sits inside the
/// trace pipeline that state holds).
#[derive(Default)]
struct Providers {
    /// Metrics snapshot as a JSON object string.
    snapshot_json: Option<Box<dyn Fn() -> String + Send + Sync>>,
    /// In-flight request table as a JSON array string.
    inflight_json: Option<Box<dyn Fn() -> String + Send + Sync>>,
    /// SLO engine status (budgets, alerts, exemplar timelines) as a JSON
    /// object string — so a burn-rate bundle carries the offending
    /// tenant's tail-sampled timelines alongside the event ring.
    slo_json: Option<Box<dyn Fn() -> String + Send + Sync>>,
    /// Profiler aggregates for the bundle's `samples` section.
    samples: Option<Arc<SamplerShared>>,
}

pub struct FlightRecorder {
    cfg: ProfConfig,
    /// Monotonic origin for debounce and bundle timestamps.
    origin: Instant,
    ring: Mutex<VecDeque<Event>>,
    /// Events evicted by the hard cap (time-pruning is by design and
    /// not counted as loss).
    ring_dropped: AtomicU64,
    dumps: AtomicU64,
    last_trigger: Mutex<Option<String>>,
    /// Timestamps (event `t_us`) of recent deadline misses / exhausted
    /// rungs, pruned to the spike window.
    miss_window: Mutex<VecDeque<u64>>,
    exhaust_window: Mutex<VecDeque<u64>>,
    /// Debounce state: recorder-time µs of the last fired trigger.
    last_fired_us: Mutex<Option<u64>>,
    /// `readyz` edge detector for [`FlightRecorder::note_ready`].
    was_ready: AtomicBool,
    providers: Mutex<Providers>,
}

impl FlightRecorder {
    pub fn new(cfg: ProfConfig) -> Self {
        Self {
            cfg,
            origin: Instant::now(),
            ring: Mutex::new(VecDeque::new()),
            ring_dropped: AtomicU64::new(0),
            dumps: AtomicU64::new(0),
            last_trigger: Mutex::new(None),
            miss_window: Mutex::new(VecDeque::new()),
            exhaust_window: Mutex::new(VecDeque::new()),
            last_fired_us: Mutex::new(None),
            was_ready: AtomicBool::new(true),
            providers: Mutex::new(Providers::default()),
        }
    }

    /// Microseconds since the recorder came up.
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    pub fn set_snapshot_provider(&self, f: Box<dyn Fn() -> String + Send + Sync>) {
        crate::lock(&self.providers).snapshot_json = Some(f);
    }

    pub fn set_inflight_provider(&self, f: Box<dyn Fn() -> String + Send + Sync>) {
        crate::lock(&self.providers).inflight_json = Some(f);
    }

    pub fn set_slo_provider(&self, f: Box<dyn Fn() -> String + Send + Sync>) {
        crate::lock(&self.providers).slo_json = Some(f);
    }

    pub fn set_sampler(&self, s: Arc<SamplerShared>) {
        crate::lock(&self.providers).samples = Some(s);
    }

    pub fn ring_len(&self) -> usize {
        crate::lock(&self.ring).len()
    }

    pub fn ring_dropped(&self) -> u64 {
        // relaxed-ok: telemetry counters, nothing gates on them
        self.ring_dropped.load(Ordering::Relaxed)
    }

    pub fn dumps_fired(&self) -> u64 {
        // relaxed-ok: telemetry counter
        self.dumps.load(Ordering::Relaxed)
    }

    pub fn last_trigger(&self) -> Option<String> {
        crate::lock(&self.last_trigger).clone()
    }

    /// `/flight` status document: ring occupancy and trigger history.
    pub fn status_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"ring_events\":");
        let _ = write!(out, "{}", self.ring_len());
        out.push_str(",\"ring_cap\":");
        let _ = write!(out, "{}", self.cfg.ring_events);
        out.push_str(",\"ring_seconds\":");
        let _ = write!(out, "{}", self.cfg.ring_seconds);
        out.push_str(",\"ring_dropped\":");
        let _ = write!(out, "{}", self.ring_dropped());
        out.push_str(",\"dumps\":");
        let _ = write!(out, "{}", self.dumps_fired());
        out.push_str(",\"last_trigger\":");
        match self.last_trigger() {
            Some(cause) => {
                out.push('"');
                escape_into(&mut out, &cause);
                out.push('"');
            }
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

    /// Fire a trigger: record the cause, and — unless debounced — dump a
    /// bundle to the configured directory. External callers (readiness,
    /// panic hook, sim SLO gate) use this directly; event-driven spikes
    /// arrive via [`Sink::emit`]. Returns whether the incident fired
    /// (false when the debounce window swallowed it).
    pub fn trigger(&self, cause: &str) -> bool {
        {
            let mut last = crate::lock(&self.last_fired_us);
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
        *crate::lock(&self.last_trigger) = Some(cause.to_string());
        if let Some(dir) = self.cfg.bundle_dir.clone() {
            // relaxed-ok: reads back our own fetch_add; concurrent dumps excluded by debounce
            let seq = self.dumps.load(Ordering::Relaxed).saturating_sub(1);
            let bundle = self.render_bundle(cause);
            let path = dir.join(format!("postmortem-{seq:03}-{cause}.json"));
            let write = std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, bundle.as_bytes()));
            if let Err(e) = write {
                // a failing disk must not take the planner down with it
                eprintln!("rrp-prof: post-mortem dump to {} failed: {e}", path.display());
            }
        }
        true
    }

    /// Serialise the post-mortem bundle (`rrp-postmortem/1` schema).
    fn render_bundle(&self, cause: &str) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"schema\":\"rrp-postmortem/1\",\"cause\":\"");
        escape_into(&mut out, cause);
        out.push_str("\",\"t_us\":");
        let _ = write!(out, "{}", self.now_us());
        out.push_str(",\"ring_seconds\":");
        let _ = write!(out, "{}", self.cfg.ring_seconds);
        out.push_str(",\"ring_dropped\":");
        let _ = write!(out, "{}", self.ring_dropped());
        out.push_str(",\"events\":[");
        {
            let ring = crate::lock(&self.ring);
            for (i, ev) in ring.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ev.write_json(&mut out);
            }
        }
        out.push(']');
        let providers = crate::lock(&self.providers);
        out.push_str(",\"samples\":");
        match &providers.samples {
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
        out.push_str(",\"metrics\":");
        match &providers.snapshot_json {
            Some(f) => out.push_str(&f()),
            None => out.push_str("null"),
        }
        out.push_str(",\"inflight\":");
        match &providers.inflight_json {
            Some(f) => out.push_str(&f()),
            None => out.push_str("null"),
        }
        out.push_str(",\"slo\":");
        match &providers.slo_json {
            Some(f) => out.push_str(&f()),
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }

    /// Slide `window` to `[t_us - spike_window, t_us]`, admit `t_us`, and
    /// report whether occupancy reached `threshold`.
    fn spike(&self, window: &Mutex<VecDeque<u64>>, t_us: u64, threshold: u32) -> bool {
        if threshold == 0 {
            return false;
        }
        let horizon = t_us.saturating_sub(self.cfg.spike_window_ms * 1_000);
        let mut w = crate::lock(window);
        while w.front().is_some_and(|&t| t < horizon) {
            w.pop_front();
        }
        w.push_back(t_us);
        w.len() >= threshold as usize
    }
}

impl Sink for FlightRecorder {
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
        {
            let mut ring = crate::lock(&self.ring);
            ring.push_back(ev.clone());
            let horizon = ev.t_us.saturating_sub(self.cfg.ring_seconds * 1_000_000);
            while ring.front().is_some_and(|e| e.t_us < horizon) {
                ring.pop_front();
            }
            while ring.len() > self.cfg.ring_events {
                ring.pop_front();
                // relaxed-ok: telemetry counter
                self.ring_dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
        match &ev.kind {
            EventKind::RequestDone { deadline_met: false, .. }
                if self.spike(&self.miss_window, ev.t_us, self.cfg.deadline_miss_spike) =>
            {
                let _ = self.trigger("deadline_miss_spike");
            }
            EventKind::LadderStep { outcome, .. }
                if outcome.starts_with("exhausted:")
                    && self.spike(
                        &self.exhaust_window,
                        ev.t_us,
                        self.cfg.budget_exhaustion_spike,
                    ) =>
            {
                let _ = self.trigger("budget_exhaustion");
            }
            _ => {}
        }
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
    use rrp_trace::SpanId;

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

    fn done(t_us: u64, met: bool) -> Event {
        Event {
            t_us,
            worker: 0,
            span: SpanId::ROOT,
            kind: EventKind::RequestDone {
                request_id: 0,
                tenant: "t".to_string(),
                level: "full",
                outcome: "ok",
                latency_us: 1,
                deadline_met: met,
            },
        }
    }

    #[test]
    fn miss_spike_fires_inside_the_window_only() {
        let rec = FlightRecorder::new(cfg());
        rec.emit(&done(0, false));
        rec.emit(&done(100, false));
        assert_eq!(rec.dumps_fired(), 0, "two misses stay under the threshold");
        // third miss arrives after the window slid past the first two
        rec.emit(&done(5_000_000, false));
        assert_eq!(rec.dumps_fired(), 0);
        rec.emit(&done(5_000_100, false));
        rec.emit(&done(5_000_200, false));
        assert_eq!(rec.dumps_fired(), 1, "three misses in-window fire");
        assert_eq!(rec.last_trigger().as_deref(), Some("deadline_miss_spike"));
    }

    #[test]
    fn met_deadlines_do_not_count() {
        let rec = FlightRecorder::new(cfg());
        for i in 0..10 {
            rec.emit(&done(i * 100, true));
        }
        assert_eq!(rec.dumps_fired(), 0);
    }

    #[test]
    fn debounce_coalesces_one_incident_into_one_dump() {
        let mut c = cfg();
        c.min_dump_interval_ms = 60_000;
        let rec = FlightRecorder::new(c);
        for i in 0..20 {
            rec.emit(&done(i * 100, false));
        }
        assert_eq!(rec.dumps_fired(), 1, "the storm fires exactly once");
    }

    #[test]
    fn ring_prunes_by_time_and_cap() {
        let mut c = cfg();
        c.ring_seconds = 1;
        c.ring_events = 4;
        let rec = FlightRecorder::new(c);
        for i in 0..8 {
            rec.emit(&done(i * 1_000, true));
        }
        assert_eq!(rec.ring_len(), 4, "hard cap holds");
        assert_eq!(rec.ring_dropped(), 4);
        // an event far in the future ages everything else out
        rec.emit(&done(10_000_000, true));
        assert_eq!(rec.ring_len(), 1, "retention horizon pruned the rest");
    }

    #[test]
    fn readiness_flip_triggers_on_the_falling_edge_only() {
        let rec = FlightRecorder::new(cfg());
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
        let rec = FlightRecorder::new(c);
        rec.set_snapshot_provider(Box::new(|| "{\"completed\":7}".to_string()));
        rec.set_inflight_provider(Box::new(|| "[{\"tenant\":\"a\"}]".to_string()));
        for i in 0..3 {
            rec.emit(&done(i, false));
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
        let rec = FlightRecorder::new(cfg());
        rec.emit(&done(0, true));
        let s = rec.status_json();
        assert!(s.contains("\"ring_events\":1"), "{s}");
        assert!(s.contains("\"last_trigger\":null"), "{s}");
        let _ = rec.trigger("sim_slo_breach");
        assert!(rec.status_json().contains("\"last_trigger\":\"sim_slo_breach\""));
    }
}
