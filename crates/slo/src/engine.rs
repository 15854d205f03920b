//! The SLO engine: a trace [`Sink`] that keeps per-tenant error-budget
//! ledgers, fires multi-window burn-rate alerts, and tail-samples request
//! timelines into a bounded exemplar store.
//!
//! Hot-path cost is deliberately lopsided: solver-layer events (simplex
//! iterations, B&B nodes, gap samples) return after one `match` arm and a
//! relaxed timestamp update; only the ~8 lifecycle events per request take
//! the state mutex. The overhead gate in `benches/engine_throughput.rs`
//! holds the whole crate under 2% of engine throughput.

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use rrp_obs::{Registry, OVERFLOW_LABEL};
use rrp_trace::json::escape_into;
use rrp_trace::{Event, EventKind, LogHistogram, Sink};

use crate::window::WindowRing;
use crate::{lock, SloConfig};

/// Requests tracked for timeline assembly at once. Requests beyond this
/// (or whose spans leaked through a worker panic) still get full budget
/// accounting — they just cannot become exemplars.
const MAX_ACTIVE_TIMELINES: usize = 1_024;
/// Span→root entries retained; same degradation contract as above.
const MAX_SPAN_ROOTS: usize = 8 * MAX_ACTIVE_TIMELINES;
/// Latency samples a tenant needs before tail retention activates (the
/// tail of an empty histogram is noise).
const TAIL_MIN_COUNT: u64 = 32;
/// Exemplar request ids linked from one alert.
const MAX_ALERT_EXEMPLARS: usize = 8;
/// Alert records retained for `/slo` (alerts_total keeps counting).
const MAX_ALERTS: usize = 32;

/// The per-tenant objectives the engine accounts for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Fraction of requests missing their deadline.
    DeadlineMiss,
    /// Fraction of requests slower than `SloConfig::latency_slo_ms`.
    Latency,
    /// Fraction of sim episodes whose realised/planned cost ratio
    /// exceeds `SloConfig::cost_ratio_max`.
    CostRatio,
}

/// Every objective, in ledger/report order.
pub const OBJECTIVES: [Objective; 3] =
    [Objective::DeadlineMiss, Objective::Latency, Objective::CostRatio];

impl Objective {
    pub fn as_str(self) -> &'static str {
        match self {
            Objective::DeadlineMiss => "deadline_miss",
            Objective::Latency => "latency",
            Objective::CostRatio => "cost_ratio",
        }
    }

    fn index(self) -> usize {
        match self {
            Objective::DeadlineMiss => 0,
            Objective::Latency => 1,
            Objective::CostRatio => 2,
        }
    }

    fn budget(self, cfg: &SloConfig) -> f64 {
        match self {
            Objective::DeadlineMiss => cfg.deadline_miss_budget,
            Objective::Latency => cfg.latency_budget,
            Objective::CostRatio => cfg.cost_budget,
        }
    }

    fn min_samples(self, cfg: &SloConfig) -> u64 {
        match self {
            Objective::CostRatio => cfg.cost_min_samples,
            _ => cfg.min_samples,
        }
    }
}

/// One fired burn-rate alert, linked to the exemplar timelines the tenant
/// had retained when it fired.
#[derive(Debug, Clone)]
pub struct Alert {
    pub tenant: String,
    pub objective: &'static str,
    /// Which window pair tripped: `"fast"` or `"slow"`.
    pub window: &'static str,
    /// The pair burn rate at fire time (min of the two windows).
    pub burn: f64,
    /// Trace time the alert fired.
    pub t_us: u64,
    /// Request ids of the tenant's most recent exemplars at fire time.
    pub exemplar_request_ids: Vec<u64>,
}

type AlertHook = Box<dyn Fn(&Alert) + Send + Sync>;

/// Rolling state of one objective for one tenant.
struct ObjectiveState {
    /// Fine-bucketed ring covering the fast pair's long window.
    fast: WindowRing,
    /// Coarse-bucketed ring covering the slow pair's long window.
    slow: WindowRing,
    /// Lifetime events/bad-events (the ledger totals `/slo` reports).
    total: u64,
    bad: u64,
    last_alert_us: Option<u64>,
}

impl ObjectiveState {
    fn new(cfg: &SloConfig) -> Self {
        Self {
            fast: WindowRing::new(cfg.fast_windows_s.0 / 20, cfg.fast_windows_s.1),
            slow: WindowRing::new(cfg.slow_windows_s.0 / 20, cfg.slow_windows_s.1),
            total: 0,
            bad: 0,
            last_alert_us: None,
        }
    }

    fn record(&mut self, t_us: u64, bad: bool) {
        self.total += 1;
        self.bad += u64::from(bad);
        self.fast.record(t_us, bad);
        self.slow.record(t_us, bad);
    }

    /// Budget fraction left over the slow pair's long window: 1.0 with an
    /// untouched budget, 0.0 exactly exhausted, negative when overspent.
    fn budget_remaining(&self, cfg: &SloConfig, budget: f64, now_us: u64) -> f64 {
        if budget <= 0.0 {
            return 1.0;
        }
        let (bad, total) = self.slow.tally(cfg.slow_windows_s.1, now_us);
        if total == 0 {
            return 1.0;
        }
        1.0 - bad as f64 / (budget * total as f64)
    }

    /// Burn rate over one window (0 when the window is empty).
    fn window_burn(&self, ring: Ring, window_s: u64, budget: f64, now_us: u64) -> f64 {
        if budget <= 0.0 {
            return 0.0;
        }
        let r = match ring {
            Ring::Fast => &self.fast,
            Ring::Slow => &self.slow,
        };
        let (bad, total) = r.tally(window_s, now_us);
        if total == 0 {
            return 0.0;
        }
        bad as f64 / total as f64 / budget
    }

    /// Pair burn: the min over both windows, 0 until both have
    /// `min_samples` (an alert must be corroborated by the long window).
    fn pair_burn(
        &self,
        ring: Ring,
        (short_s, long_s): (u64, u64),
        min_samples: u64,
        budget: f64,
        now_us: u64,
    ) -> f64 {
        if budget <= 0.0 {
            return 0.0;
        }
        let r = match ring {
            Ring::Fast => &self.fast,
            Ring::Slow => &self.slow,
        };
        let (bad_s, total_s) = r.tally(short_s, now_us);
        let (bad_l, total_l) = r.tally(long_s, now_us);
        if total_s < min_samples.max(1) || total_l < min_samples.max(1) {
            return 0.0;
        }
        let burn_s = bad_s as f64 / total_s as f64 / budget;
        let burn_l = bad_l as f64 / total_l as f64 / budget;
        burn_s.min(burn_l)
    }
}

#[derive(Clone, Copy)]
enum Ring {
    Fast,
    Slow,
}

struct TenantState {
    objectives: [ObjectiveState; 3],
    latency_ms: LogHistogram,
    requests: u64,
    /// Last realised/planned cost ratio a sim episode reported (NaN until
    /// the first episode; serialises as null).
    cost_ratio: f64,
}

impl TenantState {
    fn new(cfg: &SloConfig) -> Self {
        Self {
            objectives: [
                ObjectiveState::new(cfg),
                ObjectiveState::new(cfg),
                ObjectiveState::new(cfg),
            ],
            latency_ms: LogHistogram::new(),
            requests: 0,
            cost_ratio: f64::NAN,
        }
    }

    /// Lifetime event volume across objectives (sync's ranking key).
    fn volume(&self) -> u64 {
        self.objectives.iter().map(|o| o.total).sum()
    }
}

/// A request timeline being assembled (events so far, overflow count).
#[derive(Default)]
struct Timeline {
    events: Vec<Event>,
    truncated: u64,
}

/// A retained timeline: the request's identity, why it was kept, and its
/// causal event sequence.
struct Exemplar {
    request_id: u64,
    tenant: String,
    /// `"deadline"`, `"latency"` or `"tail"`.
    reason: &'static str,
    level: String,
    outcome: String,
    latency_us: u64,
    deadline_met: bool,
    t_us: u64,
    events: Vec<Event>,
    truncated: u64,
}

#[derive(Default)]
struct Inner {
    tenants: HashMap<String, TenantState>,
    /// Open span → owning request span (root). Entries die at span close.
    root_of: HashMap<u64, u64>,
    /// Request span → timeline buffer, finalized at `RequestDone`.
    active: HashMap<u64, Timeline>,
    exemplars: VecDeque<Exemplar>,
    alerts: VecDeque<Alert>,
    alerts_total: u64,
    retained: u64,
    dropped: u64,
}

/// The per-tenant SLO engine. Joins the engine's trace fanout as a
/// [`Sink`]; see the crate docs for the full wiring.
pub struct SloEngine {
    cfg: SloConfig,
    /// High-water trace timestamp — the engine's notion of "now".
    now_us: AtomicU64,
    inner: Mutex<Inner>,
    alert_hook: Mutex<Option<AlertHook>>,
}

impl SloEngine {
    pub fn new(cfg: SloConfig) -> Self {
        Self {
            cfg,
            now_us: AtomicU64::new(0),
            inner: Mutex::new(Inner::default()),
            alert_hook: Mutex::new(None),
        }
    }

    pub fn config(&self) -> &SloConfig {
        &self.cfg
    }

    /// Install the breach callback (the engine points this at the flight
    /// recorder's `slo_burn_rate` trigger). Called after the alert is
    /// recorded and the state lock is released, so the hook may call back
    /// into [`SloEngine::status_json`].
    pub fn set_alert_hook(&self, hook: AlertHook) {
        *lock(&self.alert_hook) = Some(hook);
    }

    /// Alerts fired since start (including ones evicted from the bounded
    /// alert list).
    pub fn alerts_total(&self) -> u64 {
        lock(&self.inner).alerts_total
    }

    /// The retained alert records, oldest first.
    pub fn alerts(&self) -> Vec<Alert> {
        lock(&self.inner).alerts.iter().cloned().collect()
    }

    /// Timelines retained / discarded so far.
    pub fn exemplar_counts(&self) -> (u64, u64) {
        let inner = lock(&self.inner);
        (inner.retained, inner.dropped)
    }

    /// Feed one sim episode's realised vs planned cost for `tenant`.
    /// Bad when `realised / planned > cost_ratio_max`. Uses the engine's
    /// trace high-water as "now" (episodes have no event timestamp).
    pub fn record_cost(&self, tenant: &str, planned: f64, realised: f64) {
        // relaxed-ok: monotone high-water read, staleness only skews a window edge
        let now_us = self.now_us.load(Ordering::Relaxed);
        let ratio = if planned > f64::EPSILON { realised / planned } else { f64::NAN };
        let bad = ratio.is_finite() && ratio > self.cfg.cost_ratio_max;
        let mut fired = Vec::new();
        {
            let mut guard = lock(&self.inner);
            let inner = &mut *guard;
            let key = tenant_key(&self.cfg, &mut inner.tenants, tenant);
            let st = entry(&self.cfg, &mut inner.tenants, &key);
            st.cost_ratio = ratio;
            st.objectives[Objective::CostRatio.index()].record(now_us.max(1), bad);
            self.check_burn(inner, &key, Objective::CostRatio, now_us.max(1), &mut fired);
        }
        self.fire(&fired);
    }

    /// The `/slo` body: budget table, burn rates per window, alert list,
    /// and the retained exemplar timelines. Schema `rrp-slo/1`.
    pub fn status_json(&self) -> String {
        // relaxed-ok: monotone high-water read for display
        let now_us = self.now_us.load(Ordering::Relaxed);
        let inner = lock(&self.inner);
        let mut out = String::with_capacity(2048);
        out.push_str("{\"schema\":\"rrp-slo/1\",");
        let _ = write!(out, "\"now_us\":{now_us},\"alerts_total\":{},", inner.alerts_total);
        let _ = write!(
            out,
            "\"exemplars\":{{\"retained\":{},\"dropped\":{},\"stored\":{}}},",
            inner.retained,
            inner.dropped,
            inner.exemplars.len()
        );

        out.push_str("\"tenants\":[");
        let mut order: Vec<(&String, &TenantState)> = inner.tenants.iter().collect();
        order.sort_by(|a, b| b.1.volume().cmp(&a.1.volume()).then_with(|| a.0.cmp(b.0)));
        for (i, (name, st)) in order.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tenant\":");
            json_string(&mut out, name);
            let _ = write!(out, ",\"requests\":{},\"p99_latency_ms\":", st.requests);
            json_f64(&mut out, st.latency_ms.quantile(0.99));
            out.push_str(",\"cost_ratio\":");
            json_f64(&mut out, st.cost_ratio);
            out.push_str(",\"objectives\":[");
            for (j, obj) in OBJECTIVES.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let os = &st.objectives[obj.index()];
                let budget = obj.budget(&self.cfg);
                let _ = write!(out, "{{\"objective\":\"{}\",\"budget\":", obj.as_str());
                json_f64(&mut out, budget);
                let _ = write!(out, ",\"events\":{},\"bad\":{}", os.total, os.bad);
                out.push_str(",\"budget_remaining\":");
                json_f64(&mut out, os.budget_remaining(&self.cfg, budget, now_us));
                let alerting = os.last_alert_us.is_some_and(|t| {
                    now_us.saturating_sub(t) < self.cfg.alert_cooldown_s * 1_000_000
                });
                let _ = write!(out, ",\"alerting\":{alerting},\"burn\":[");
                for (k, (ring, window_s)) in window_set(&self.cfg).into_iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{{\"window\":\"{}\",\"rate\":", window_label(window_s));
                    json_f64(&mut out, os.window_burn(ring, window_s, budget, now_us));
                    out.push('}');
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("],");

        out.push_str("\"alerts\":[");
        for (i, a) in inner.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tenant\":");
            json_string(&mut out, &a.tenant);
            let _ = write!(
                out,
                ",\"objective\":\"{}\",\"window\":\"{}\",\"burn\":",
                a.objective, a.window
            );
            json_f64(&mut out, a.burn);
            let _ = write!(out, ",\"t_us\":{},\"exemplar_request_ids\":[", a.t_us);
            for (j, id) in a.exemplar_request_ids.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{id}");
            }
            out.push_str("]}");
        }
        out.push_str("],");

        out.push_str("\"exemplar_timelines\":[");
        for (i, ex) in inner.exemplars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"request_id\":{},\"tenant\":", ex.request_id);
            json_string(&mut out, &ex.tenant);
            let _ = write!(out, ",\"reason\":\"{}\",\"level\":", ex.reason);
            json_string(&mut out, &ex.level);
            out.push_str(",\"outcome\":");
            json_string(&mut out, &ex.outcome);
            let _ = write!(
                out,
                ",\"latency_us\":{},\"deadline_met\":{},\"t_us\":{},\"truncated\":{},\"events\":[",
                ex.latency_us, ex.deadline_met, ex.t_us, ex.truncated
            );
            for (j, ev) in ex.events.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                ev.write_json(&mut out);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Fold current state into the metrics registry (`rrp_slo_*`
    /// families), called once per scrape. Cap-aware: per-tenant series
    /// are emitted for the top tenants by event volume such that each
    /// family stays within the registry's series cap, and the rest fold
    /// into a `__other__` series carrying the *most pessimistic* value
    /// (min budget remaining, max burn) — the folded series still means
    /// something, instead of whichever tenant synced last.
    pub fn sync_registry(&self, reg: &Registry) {
        // relaxed-ok: monotone high-water read for display
        let now_us = self.now_us.load(Ordering::Relaxed);
        let inner = lock(&self.inner);
        let cap = reg.series_cap();
        let windows = window_set(&self.cfg);
        // reserve one slot per family for the fold bucket
        let budget_tenants = (cap / OBJECTIVES.len()).saturating_sub(1).max(1);
        let burn_tenants = (cap / (OBJECTIVES.len() * windows.len())).saturating_sub(1).max(1);

        let mut order: Vec<(&String, &TenantState)> = inner.tenants.iter().collect();
        order.sort_by(|a, b| b.1.volume().cmp(&a.1.volume()).then_with(|| a.0.cmp(b.0)));

        // fold accumulators: worst value per objective (budget) and per
        // objective × window (burn)
        let mut fold_budget = [f64::INFINITY; 3];
        let mut fold_budget_any = false;
        let mut fold_burn = vec![0.0f64; OBJECTIVES.len() * windows.len()];
        let mut fold_burn_any = false;

        for (rank, (name, st)) in order.iter().enumerate() {
            let folded_name = name.as_str() == OVERFLOW_LABEL;
            for obj in OBJECTIVES {
                let os = &st.objectives[obj.index()];
                let budget = obj.budget(&self.cfg);
                let remaining = os.budget_remaining(&self.cfg, budget, now_us);
                if rank < budget_tenants && !folded_name {
                    reg.gauge(
                        "rrp_slo_budget_remaining",
                        "Error budget left over the slow window (1 = untouched, <0 overspent)",
                        &[("tenant", name), ("objective", obj.as_str())],
                    )
                    .set(remaining);
                } else {
                    fold_budget[obj.index()] = fold_budget[obj.index()].min(remaining);
                    fold_budget_any = true;
                }
                for (w, &(ring, window_s)) in windows.iter().enumerate() {
                    let burn = os.window_burn(ring, window_s, budget, now_us);
                    if rank < burn_tenants && !folded_name {
                        reg.gauge(
                            "rrp_slo_burn_rate",
                            "Error-budget burn rate per window (1 = sustainable spend)",
                            &[
                                ("tenant", name),
                                ("objective", obj.as_str()),
                                ("window", &window_label(window_s)),
                            ],
                        )
                        .set(burn);
                    } else {
                        let slot = obj.index() * windows.len() + w;
                        fold_burn[slot] = fold_burn[slot].max(burn);
                        fold_burn_any = true;
                    }
                }
            }
        }
        if fold_budget_any {
            for obj in OBJECTIVES {
                let v = fold_budget[obj.index()];
                reg.gauge(
                    "rrp_slo_budget_remaining",
                    "Error budget left over the slow window (1 = untouched, <0 overspent)",
                    &[("tenant", OVERFLOW_LABEL), ("objective", obj.as_str())],
                )
                .set(if v.is_finite() { v } else { 1.0 });
            }
        }
        if fold_burn_any {
            for obj in OBJECTIVES {
                for (w, &(_, window_s)) in windows.iter().enumerate() {
                    reg.gauge(
                        "rrp_slo_burn_rate",
                        "Error-budget burn rate per window (1 = sustainable spend)",
                        &[
                            ("tenant", OVERFLOW_LABEL),
                            ("objective", obj.as_str()),
                            ("window", &window_label(window_s)),
                        ],
                    )
                    .set(fold_burn[obj.index() * windows.len() + w]);
                }
            }
        }

        reg.gauge(
            "rrp_slo_tenants",
            "Tenants tracked by the SLO engine (fold bucket included)",
            &[],
        )
        .set(inner.tenants.len() as f64);
        reg.counter("rrp_slo_alerts_total", "Burn-rate alerts fired", &[]).set(inner.alerts_total);
        reg.counter(
            "rrp_slo_exemplars_retained_total",
            "Request timelines retained by the tail sampler",
            &[],
        )
        .set(inner.retained);
        reg.counter(
            "rrp_slo_exemplars_dropped_total",
            "Request timelines discarded (healthy, untracked, or evicted)",
            &[],
        )
        .set(inner.dropped);
    }

    fn on_lifecycle(&self, ev: &Event) {
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        match &ev.kind {
            EventKind::SpanOpen { name, parent } => {
                if *name == "request" {
                    if inner.root_of.len() < MAX_SPAN_ROOTS {
                        // growth-ok: capped above; entries die at span close
                        inner.root_of.insert(ev.span.0, ev.span.0);
                    }
                    if inner.active.len() < MAX_ACTIVE_TIMELINES {
                        // growth-ok: capped above; removed at RequestDone
                        inner.active.insert(ev.span.0, Timeline::default());
                    }
                    append(&mut inner.active, ev.span.0, ev, self.cfg.max_exemplar_events);
                } else if let Some(&root) = inner.root_of.get(&parent.0) {
                    if inner.root_of.len() < MAX_SPAN_ROOTS {
                        // growth-ok: capped above; entries die at span close
                        inner.root_of.insert(ev.span.0, root);
                    }
                    append(&mut inner.active, root, ev, self.cfg.max_exemplar_events);
                }
            }
            EventKind::SpanClose => {
                if let Some(root) = inner.root_of.remove(&ev.span.0) {
                    append(&mut inner.active, root, ev, self.cfg.max_exemplar_events);
                }
            }
            _ => {
                if let Some(&root) = inner.root_of.get(&ev.span.0) {
                    append(&mut inner.active, root, ev, self.cfg.max_exemplar_events);
                }
            }
        }
    }

    fn on_done(&self, ev: &Event) {
        let EventKind::RequestDone { request_id, tenant, level, outcome, latency_us, deadline_met } =
            &ev.kind
        else {
            return;
        };
        let latency_ms = *latency_us as f64 / 1e3;
        let mut fired = Vec::new();
        {
            let mut guard = lock(&self.inner);
            let inner = &mut *guard;
            let timeline = inner.active.remove(&ev.span.0).map(|mut tl| {
                if tl.events.len() < self.cfg.max_exemplar_events {
                    tl.events.push(ev.clone());
                } else {
                    tl.truncated += 1;
                }
                tl
            });

            let key = tenant_key(&self.cfg, &mut inner.tenants, tenant);
            let st = entry(&self.cfg, &mut inner.tenants, &key);
            st.requests += 1;
            st.latency_ms.record(latency_ms);
            let latency_bad = latency_ms > self.cfg.latency_slo_ms;
            let tail_floor = st.latency_ms.quantile(self.cfg.tail_quantile) * self.cfg.tail_margin;
            let reason = if !*deadline_met {
                Some("deadline")
            } else if latency_bad {
                Some("latency")
            } else if st.latency_ms.count() >= TAIL_MIN_COUNT && latency_ms > tail_floor {
                Some("tail")
            } else {
                None
            };
            st.objectives[Objective::DeadlineMiss.index()].record(ev.t_us, !*deadline_met);
            st.objectives[Objective::Latency.index()].record(ev.t_us, latency_bad);

            match (reason, timeline) {
                (Some(reason), Some(tl)) => {
                    while inner.exemplars.len() >= self.cfg.max_exemplars.max(1) {
                        inner.exemplars.pop_front();
                        inner.dropped += 1; // evicted by the store cap
                    }
                    inner.exemplars.push_back(Exemplar {
                        request_id: *request_id,
                        tenant: tenant.clone(),
                        reason,
                        level: (*level).to_string(),
                        outcome: (*outcome).to_string(),
                        latency_us: *latency_us,
                        deadline_met: *deadline_met,
                        t_us: ev.t_us,
                        events: tl.events,
                        truncated: tl.truncated,
                    });
                    inner.retained += 1;
                }
                _ => inner.dropped += 1,
            }

            self.check_burn(inner, &key, Objective::DeadlineMiss, ev.t_us, &mut fired);
            self.check_burn(inner, &key, Objective::Latency, ev.t_us, &mut fired);
        }
        self.fire(&fired);
    }

    /// Evaluate both window pairs for `(tenant, objective)`; a trip
    /// records the alert (bounded list), stamps the cooldown, and queues
    /// it for the hook.
    fn check_burn(
        &self,
        inner: &mut Inner,
        tenant: &str,
        obj: Objective,
        now_us: u64,
        fired: &mut Vec<Alert>,
    ) {
        let budget = obj.budget(&self.cfg);
        let min_samples = obj.min_samples(&self.cfg);
        let Some(st) = inner.tenants.get_mut(tenant) else {
            return;
        };
        let os = &mut st.objectives[obj.index()];
        if budget <= 0.0 {
            return;
        }
        if let Some(last) = os.last_alert_us {
            if now_us.saturating_sub(last) < self.cfg.alert_cooldown_s * 1_000_000 {
                return;
            }
        }
        let fast = os.pair_burn(Ring::Fast, self.cfg.fast_windows_s, min_samples, budget, now_us);
        let slow = os.pair_burn(Ring::Slow, self.cfg.slow_windows_s, min_samples, budget, now_us);
        let (window, burn) = if fast >= self.cfg.fast_burn {
            ("fast", fast)
        } else if slow >= self.cfg.slow_burn {
            ("slow", slow)
        } else {
            return;
        };
        os.last_alert_us = Some(now_us);
        let exemplar_request_ids: Vec<u64> = inner
            .exemplars
            .iter()
            .rev()
            .filter(|e| e.tenant == tenant)
            .take(MAX_ALERT_EXEMPLARS)
            .map(|e| e.request_id)
            .collect();
        let alert = Alert {
            tenant: tenant.to_string(),
            objective: obj.as_str(),
            window,
            burn,
            t_us: now_us,
            exemplar_request_ids,
        };
        inner.alerts_total += 1;
        while inner.alerts.len() >= MAX_ALERTS {
            inner.alerts.pop_front();
        }
        inner.alerts.push_back(alert.clone());
        fired.push(alert);
    }

    /// Run the breach hook outside the state lock (it may call back into
    /// `status_json`, e.g. via the flight recorder's bundle provider).
    fn fire(&self, fired: &[Alert]) {
        if fired.is_empty() {
            return;
        }
        let hook = lock(&self.alert_hook);
        if let Some(h) = hook.as_ref() {
            for a in fired {
                h(a);
            }
        }
    }
}

impl Sink for SloEngine {
    fn emit(&self, ev: &Event) {
        match &ev.kind {
            EventKind::RequestDone { .. } => {
                // cross-lane monotonicity only shifts a window edge by the lanes' skew
                // relaxed-ok: high-water timestamp
                self.now_us.fetch_max(ev.t_us, Ordering::Relaxed);
                self.on_done(ev);
            }
            EventKind::SpanOpen { .. }
            | EventKind::SpanClose
            | EventKind::Enqueued
            | EventKind::Dequeued
            | EventKind::CacheLookup { .. }
            | EventKind::AuditGate { .. }
            | EventKind::LadderStep { .. }
            | EventKind::SolveDone { .. } => {
                // relaxed-ok: same high-water clock as above
                self.now_us.fetch_max(ev.t_us, Ordering::Relaxed);
                self.on_lifecycle(ev);
            }
            // solver-layer events (simplex iters, B&B nodes, gap samples)
            // stay off the lock *and* off the shared clock line: at
            // millions of events per second a contended fetch_max is the
            // whole overhead budget — one match arm and out
            _ => {}
        }
    }
}

/// Resolve the ledger key for `tenant`: itself while the table has room,
/// `__other__` once the cap is hit (matching the registry's fold label so
/// `/slo` and `/metrics` tell one story).
fn tenant_key(cfg: &SloConfig, tenants: &mut HashMap<String, TenantState>, tenant: &str) -> String {
    if tenants.contains_key(tenant) {
        return tenant.to_string();
    }
    let named = tenants.len() - usize::from(tenants.contains_key(OVERFLOW_LABEL));
    if named < cfg.max_tenants.max(1) {
        tenant.to_string()
    } else {
        OVERFLOW_LABEL.to_string()
    }
}

/// Fetch-or-create the ledger for a resolved key.
fn entry<'a>(
    cfg: &SloConfig,
    tenants: &'a mut HashMap<String, TenantState>,
    key: &str,
) -> &'a mut TenantState {
    if !tenants.contains_key(key) {
        // growth-ok: keys pass through tenant_key's cap first, so the
        // table holds at most max_tenants named entries plus __other__
        tenants.insert(key.to_string(), TenantState::new(cfg));
    }
    tenants.get_mut(key).unwrap_or_else(|| unreachable_entry())
}

/// `entry` inserted the key above; this path is statically dead but keeps
/// the lookup panic-free for the lint gate.
fn unreachable_entry<'a>() -> &'a mut TenantState {
    // a failed re-lookup after insert means the allocator itself lied;
    // leak one default ledger rather than aborting the worker
    Box::leak(Box::new(TenantState::new(&SloConfig::default())))
}

fn append(active: &mut HashMap<u64, Timeline>, root: u64, ev: &Event, cap: usize) {
    if let Some(tl) = active.get_mut(&root) {
        if tl.events.len() < cap {
            // growth-ok: capped by max_exemplar_events just above
            tl.events.push(ev.clone());
        } else {
            tl.truncated += 1;
        }
    }
}

/// The four reported windows: fast pair then slow pair.
fn window_set(cfg: &SloConfig) -> [(Ring, u64); 4] {
    [
        (Ring::Fast, cfg.fast_windows_s.0),
        (Ring::Fast, cfg.fast_windows_s.1),
        (Ring::Slow, cfg.slow_windows_s.0),
        (Ring::Slow, cfg.slow_windows_s.1),
    ]
}

/// Human window label: `300 → "5m"`, `259200 → "3d"`, irregular values
/// fall back to seconds.
fn window_label(secs: u64) -> String {
    if secs > 0 && secs.is_multiple_of(86_400) {
        format!("{}d", secs / 86_400)
    } else if secs > 0 && secs.is_multiple_of(3_600) {
        format!("{}h", secs / 3_600)
    } else if secs > 0 && secs.is_multiple_of(60) {
        format!("{}m", secs / 60)
    } else {
        format!("{secs}s")
    }
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Shortest-roundtrip float with a `.0` suffix for integral values;
/// non-finite serialises as `null` (same convention as `rrp-trace`).
fn json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let start = out.len();
        let _ = write!(out, "{v}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use rrp_trace::SpanId;

    use super::*;

    fn cfg() -> SloConfig {
        SloConfig::default()
    }

    fn done(span: u64, t_us: u64, tenant: &str, request_id: u64, deadline_met: bool) -> Event {
        Event {
            t_us,
            worker: 0,
            span: SpanId(span),
            kind: EventKind::RequestDone {
                request_id,
                tenant: tenant.to_string(),
                level: "full",
                outcome: "ok",
                latency_us: 1_000,
                deadline_met,
            },
        }
    }

    fn open(span: u64, t_us: u64, name: &'static str, parent: u64) -> Event {
        Event {
            t_us,
            worker: 0,
            span: SpanId(span),
            kind: EventKind::SpanOpen { name, parent: SpanId(parent) },
        }
    }

    #[test]
    fn storm_fires_exactly_one_fast_alert_with_exemplars() {
        let slo = SloEngine::new(cfg());
        for i in 0..20u64 {
            slo.emit(&open(i + 1, i * 1_000, "request", 0));
            slo.emit(&done(i + 1, i * 1_000 + 500, "storm", i, false));
        }
        assert_eq!(slo.alerts_total(), 1, "cooldown must debounce to one alert");
        let alerts = slo.alerts();
        assert_eq!(alerts[0].tenant, "storm");
        assert_eq!(alerts[0].objective, "deadline_miss");
        assert_eq!(alerts[0].window, "fast");
        assert!(alerts[0].burn >= cfg().fast_burn, "burn {}", alerts[0].burn);
        assert!(!alerts[0].exemplar_request_ids.is_empty(), "alert links exemplars");
        // the alert fired at the min_samples'th request
        assert_eq!(alerts[0].t_us, 9 * 1_000 + 500);
        let (retained, _) = slo.exemplar_counts();
        assert!(retained >= 10, "misses are retained ({retained})");
    }

    #[test]
    fn healthy_traffic_fires_nothing_and_retains_nothing() {
        let slo = SloEngine::new(cfg());
        for i in 0..200u64 {
            slo.emit(&open(i + 1, i * 1_000, "request", 0));
            slo.emit(&done(i + 1, i * 1_000 + 500, "calm", i, true));
        }
        assert_eq!(slo.alerts_total(), 0);
        let (retained, dropped) = slo.exemplar_counts();
        assert_eq!(retained, 0, "uniform healthy latencies must not tail-sample");
        assert_eq!(dropped, 200);
    }

    #[test]
    fn alert_needs_min_samples() {
        let slo = SloEngine::new(cfg());
        for i in 0..5u64 {
            slo.emit(&done(i + 1, i * 1_000, "few", i, false));
        }
        assert_eq!(slo.alerts_total(), 0, "5 misses < min_samples 10");
    }

    #[test]
    fn latency_objective_has_its_own_budget() {
        let slo = SloEngine::new(cfg());
        for i in 0..20u64 {
            let mut ev = done(i + 1, i * 1_000, "slowpoke", i, true);
            if let EventKind::RequestDone { latency_us, .. } = &mut ev.kind {
                *latency_us = 400_000; // 400 ms > 250 ms SLO
            }
            slo.emit(&ev);
        }
        let alerts = slo.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].objective, "latency");
    }

    #[test]
    fn cost_objective_is_fed_out_of_band() {
        let slo = SloEngine::new(cfg());
        slo.emit(&done(1, 1_000, "pin-now", 0, true)); // advance trace time
        for _ in 0..8 {
            slo.record_cost("overrun", 1.0, 2.0); // ratio 2.0 > 1.5
        }
        let alerts = slo.alerts();
        assert_eq!(alerts.len(), 1, "{:?}", alerts);
        assert_eq!(alerts[0].tenant, "overrun");
        assert_eq!(alerts[0].objective, "cost_ratio");
        // healthy episodes never alert
        let calm = SloEngine::new(cfg());
        for _ in 0..8 {
            calm.record_cost("fine", 1.0, 1.1);
        }
        assert_eq!(calm.alerts_total(), 0);
    }

    #[test]
    fn timelines_assemble_the_span_subtree() {
        let slo = SloEngine::new(cfg());
        slo.emit(&open(1, 0, "request", 0));
        slo.emit(&Event { t_us: 1, worker: 0, span: SpanId(1), kind: EventKind::Enqueued });
        slo.emit(&open(2, 2, "rung:full", 1));
        slo.emit(&Event {
            t_us: 3,
            worker: 0,
            span: SpanId(2),
            kind: EventKind::LadderStep { level: "full", outcome: "ok".to_string(), elapsed_us: 1 },
        });
        slo.emit(&Event { t_us: 4, worker: 0, span: SpanId(2), kind: EventKind::SpanClose });
        slo.emit(&done(1, 5, "t", 7, false)); // miss → retained
        let json = slo.status_json();
        assert!(json.contains("\"request_id\":7"), "{json}");
        assert!(json.contains("\"reason\":\"deadline\""), "{json}");
        assert!(json.contains("\"ev\":\"ladder_step\""), "{json}");
        assert!(json.contains("\"ev\":\"span_open\""), "{json}");
        // solver events never enter timelines
        assert!(!json.contains("simplex_iter"), "{json}");
    }

    #[test]
    fn hook_runs_outside_the_lock_and_may_reenter() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let slo = Arc::new(SloEngine::new(cfg()));
        let seen = Arc::new(AtomicUsize::new(0));
        let reentrant = Arc::clone(&slo);
        let seen2 = Arc::clone(&seen);
        slo.set_alert_hook(Box::new(move |a| {
            assert_eq!(a.tenant, "storm");
            let _ = reentrant.status_json(); // must not deadlock
            seen2.fetch_add(1, Ordering::SeqCst);
        }));
        for i in 0..15u64 {
            slo.emit(&done(i + 1, i * 1_000, "storm", i, false));
        }
        assert_eq!(seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn status_json_parses_and_reports_the_drained_budget() {
        let slo = SloEngine::new(cfg());
        for i in 0..20u64 {
            slo.emit(&done(i + 1, i * 1_000, "storm", i, false));
        }
        let v: serde_json::Value =
            serde_json::from_str(&slo.status_json()).expect("status_json is valid JSON");
        let s =
            |v: &serde_json::Value, k: &str| v.get(k).and_then(|x| x.as_str()).map(String::from);
        assert_eq!(s(&v, "schema").as_deref(), Some("rrp-slo/1"));
        let tenants = v.get("tenants").and_then(|t| t.as_array()).expect("tenants");
        let t = &tenants[0];
        assert_eq!(s(t, "tenant").as_deref(), Some("storm"));
        let dm = &t.get("objectives").and_then(|o| o.as_array()).expect("objectives")[0];
        assert_eq!(s(dm, "objective").as_deref(), Some("deadline_miss"));
        // 100% misses against a 1% budget: hugely overspent
        let remaining = dm.get("budget_remaining").and_then(|b| b.as_f64());
        assert!(remaining.is_some_and(|b| b < 0.0), "{remaining:?}");
        assert_eq!(dm.get("alerting").and_then(|a| a.as_bool()), Some(true));
        let burn = dm.get("burn").and_then(|b| b.as_array()).expect("burn")[0]
            .get("rate")
            .and_then(|r| r.as_f64())
            .unwrap_or(0.0);
        assert!(burn > 90.0, "burn {burn}");
    }

    #[test]
    fn window_labels_are_human() {
        assert_eq!(window_label(300), "5m");
        assert_eq!(window_label(3_600), "1h");
        assert_eq!(window_label(21_600), "6h");
        assert_eq!(window_label(259_200), "3d");
        assert_eq!(window_label(90), "90s");
    }
}
