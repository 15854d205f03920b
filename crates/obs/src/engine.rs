//! The SLO engine: per-tenant error budgets, burn-rate alerting and tail
//! sampling, and their scrape-time views.
//!
//! The engine owns the tenant table: each row of its per-shard request
//! ledger carries a [`TenantSlo`] (three objectives' window rings, a
//! latency histogram, the last cost ratio), and each shard keeps one
//! [`SloLog`] of retained exemplars and fired alerts beside it, all under
//! the shard's one tenant lock. `/slo`, the `rrp_slo_*` families and the
//! post-mortem bundle's `slo` section are renders of an [`SloView`] folded
//! from those rows at scrape time — no event is aggregated twice.
//!
//! Budgets are *bad-event fractions*: a deadline-miss budget of 0.01
//! promises 99% of requests meet their deadline. Burn rate is the observed
//! bad fraction divided by the budget, so burn 1.0 spends the budget
//! exactly at the sustainable rate and burn 14.4 exhausts a 3-day budget
//! in five hours. An alert fires when the budget burns faster than a
//! threshold over *both* windows of a pair (the fast 5m/1h pair catches
//! cliffs, the slow 6h/3d pair slow leaks). All window arithmetic runs on
//! the trace clock (the one that stamps `Event::t_us`), so seeded storms
//! alert deterministically. Tenants past the engine's tenant-table cap
//! share one `__other__` ledger.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;

use rrp_trace::json::{f64_into, str_into};
use rrp_trace::{Event, LogHistogram};

use crate::registry::{Registry, OVERFLOW_LABEL};
use crate::window::WindowRing;

/// Tolerated deadline-miss fraction per tenant.
const DEADLINE_MISS_BUDGET: f64 = 0.01;
/// Tolerated latency-bad fraction per tenant.
const LATENCY_BUDGET: f64 = 0.01;
/// Realised/planned cost ratio above which a sim episode is cost-bad.
const COST_RATIO_MAX: f64 = 1.5;
/// Tolerated cost-bad fraction of episodes per tenant.
const COST_BUDGET: f64 = 0.05;
/// Fast alert pair `(short, long)` in seconds of trace time.
const FAST_WINDOWS_S: (u64, u64) = (300, 3_600);
/// Slow alert pair `(short, long)` in seconds of trace time.
const SLOW_WINDOWS_S: (u64, u64) = (21_600, 259_200);
/// Burn-rate threshold both fast windows must exceed to page.
const FAST_BURN: f64 = 14.4;
/// Burn-rate threshold both slow windows must exceed to page.
const SLOW_BURN: f64 = 6.0;
/// Minimum events in every window of a pair before its burn rate is
/// trusted (guards divide-by-tiny alerts on the first bad request).
const MIN_SAMPLES: u64 = 10;
/// Same guard for the episode-grained cost objective.
const COST_MIN_SAMPLES: u64 = 4;
/// A fired (tenant, objective) alert suppresses re-fires this long (µs of
/// trace time): one incident, one alert.
const ALERT_COOLDOWN_US: u64 = 3_600 * 1_000_000;
/// Exemplar-store cap: retaining past this evicts the oldest.
const MAX_EXEMPLARS: usize = 32;
/// Events kept per exemplar timeline; the rest are counted as truncated.
pub const MAX_EXEMPLAR_EVENTS: usize = 64;
/// Latency quantile defining "the tail" for retention.
const TAIL_QUANTILE: f64 = 0.99;
/// Retention margin over the tail quantile: a request is tail-sampled when
/// its latency exceeds `quantile(TAIL_QUANTILE) × TAIL_MARGIN`. The margin
/// absorbs the log-histogram's ~9% quantile error so a healthy, tight
/// latency distribution retains nothing.
const TAIL_MARGIN: f64 = 2.0;
/// Latency samples a tenant needs before tail retention activates (the
/// tail of an empty histogram is noise).
const TAIL_MIN_COUNT: u64 = 32;
/// Exemplar request ids linked from one alert.
const MAX_ALERT_EXEMPLARS: usize = 8;
/// Alert records retained for `/slo` (alerts_total keeps counting).
const MAX_ALERTS: usize = 32;

/// SLO options (engine: `EngineConfig::slo`).
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Plan-latency threshold (ms): requests slower than this are
    /// latency-bad.
    pub latency_slo_ms: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self { latency_slo_ms: 250.0 }
    }
}

/// The per-tenant objectives, indexed by discriminant in every ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Objective {
    /// Fraction of requests missing their deadline.
    DeadlineMiss = 0,
    /// Fraction of requests slower than [`SloConfig::latency_slo_ms`].
    Latency = 1,
    /// Fraction of sim episodes whose realised/planned cost ratio
    /// exceeds [`COST_RATIO_MAX`].
    CostRatio = 2,
}

/// Every objective, in ledger/report order.
const OBJECTIVES: [Objective; 3] =
    [Objective::DeadlineMiss, Objective::Latency, Objective::CostRatio];

impl Objective {
    fn as_str(self) -> &'static str {
        match self {
            Objective::DeadlineMiss => "deadline_miss",
            Objective::Latency => "latency",
            Objective::CostRatio => "cost_ratio",
        }
    }

    fn budget(self) -> f64 {
        match self {
            Objective::DeadlineMiss => DEADLINE_MISS_BUDGET,
            Objective::Latency => LATENCY_BUDGET,
            Objective::CostRatio => COST_BUDGET,
        }
    }

    fn min_samples(self) -> u64 {
        match self {
            Objective::CostRatio => COST_MIN_SAMPLES,
            _ => MIN_SAMPLES,
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

/// One completed request, as its tenant's SLO ledger accounts it.
pub struct Done<'a> {
    pub request_id: u64,
    pub tenant: &'a str,
    pub level: &'static str,
    pub outcome: &'static str,
    pub latency_us: u64,
    pub deadline_met: bool,
    /// Trace time of the completion.
    pub t_us: u64,
}

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
    fn new() -> Self {
        Self {
            fast: WindowRing::new(FAST_WINDOWS_S.0 / 20, FAST_WINDOWS_S.1),
            slow: WindowRing::new(SLOW_WINDOWS_S.0 / 20, SLOW_WINDOWS_S.1),
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

    fn ring(&self, ring: Ring) -> &WindowRing {
        match ring {
            Ring::Fast => &self.fast,
            Ring::Slow => &self.slow,
        }
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
        let r = self.ring(ring);
        let (bad_s, total_s) = r.tally(short_s, now_us);
        let (bad_l, total_l) = r.tally(long_s, now_us);
        if total_s < min_samples || total_l < min_samples {
            return 0.0;
        }
        let burn_s = bad_s as f64 / total_s as f64 / budget;
        let burn_l = bad_l as f64 / total_l as f64 / budget;
        burn_s.min(burn_l)
    }

    /// Whether an alert fired within the cooldown before `now_us`.
    fn cooling(&self, now_us: u64) -> bool {
        self.last_alert_us.is_some_and(|t| now_us.saturating_sub(t) < ALERT_COOLDOWN_US)
    }

    fn row(&self, now_us: u64) -> ObjectiveRow {
        ObjectiveRow {
            total: self.total,
            bad: self.bad,
            alerting: self.cooling(now_us),
            windows: WINDOWS.map(|(ring, window_s)| self.ring(ring).tally(window_s, now_us)),
        }
    }
}

#[derive(Clone, Copy)]
enum Ring {
    Fast,
    Slow,
}

/// One tenant's SLO ledger: a row of the engine's per-shard request
/// ledger carries one when the engine runs with `EngineConfig::slo`.
pub struct TenantSlo {
    objectives: [ObjectiveState; 3],
    latency_ms: LogHistogram,
    requests: u64,
    /// Last realised/planned cost ratio a sim episode reported (NaN until
    /// the first episode; serialises as null).
    cost_ratio: f64,
}

impl Default for TenantSlo {
    fn default() -> Self {
        Self {
            objectives: [ObjectiveState::new(), ObjectiveState::new(), ObjectiveState::new()],
            latency_ms: LogHistogram::new(),
            requests: 0,
            cost_ratio: f64::NAN,
        }
    }
}

impl TenantSlo {
    /// Evaluate both window pairs of `obj`; a trip stamps the cooldown
    /// and returns `(window, burn)`.
    fn burn_alert(&mut self, obj: Objective, now_us: u64) -> Option<(&'static str, f64)> {
        let (budget, min_samples) = (obj.budget(), obj.min_samples());
        let os = &mut self.objectives[obj as usize];
        if os.cooling(now_us) {
            return None;
        }
        let fast = os.pair_burn(Ring::Fast, FAST_WINDOWS_S, min_samples, budget, now_us);
        let slow = os.pair_burn(Ring::Slow, SLOW_WINDOWS_S, min_samples, budget, now_us);
        let fired = if fast >= FAST_BURN {
            ("fast", fast)
        } else if slow >= SLOW_BURN {
            ("slow", slow)
        } else {
            return None;
        };
        os.last_alert_us = Some(now_us);
        Some(fired)
    }

    fn row(&self, tenant: &str, now_us: u64) -> SloRow {
        SloRow {
            tenant: tenant.to_string(),
            requests: self.requests,
            p99_latency_ms: self.latency_ms.quantile(0.99),
            cost_ratio: self.cost_ratio,
            objectives: self.objectives.each_ref().map(|os| os.row(now_us)),
        }
    }
}

/// A retained timeline: the request's identity, why it was kept, and its
/// span subtree cut from the engine's event ring.
#[derive(Clone)]
struct Exemplar {
    request_id: u64,
    tenant: String,
    /// `"deadline"`, `"latency"` or `"tail"`.
    reason: &'static str,
    level: &'static str,
    outcome: &'static str,
    latency_us: u64,
    deadline_met: bool,
    t_us: u64,
    /// Shared, so folding a view per scrape copies no events.
    events: Arc<[Event]>,
    truncated: u64,
}

/// One shard's SLO side-state: retained exemplars (the oldest evicted
/// past 32), the last fired alerts, and the counters `/slo`
/// reports. The engine keeps it under the shard's tenant lock.
#[derive(Default)]
pub struct SloLog {
    exemplars: VecDeque<Exemplar>,
    alerts: VecDeque<Alert>,
    alerts_total: u64,
    retained: u64,
    dropped: u64,
}

impl SloLog {
    /// Account one completed request to `st`, the ledger row `key` (the
    /// tenant, or `__other__` past the table cap). A request that missed
    /// its deadline, broke the latency SLO or sits in the tenant's tail
    /// is retained with the events `cut(MAX_EXEMPLAR_EVENTS)` returns;
    /// every other one is dropped without touching `cut`. Returns whether
    /// a burn-rate alert fired.
    pub fn record_request(
        &mut self,
        cfg: &SloConfig,
        key: &str,
        st: &mut TenantSlo,
        done: &Done<'_>,
        cut: impl FnOnce(usize) -> (Vec<Event>, u64),
    ) -> bool {
        let latency_ms = done.latency_us as f64 / 1e3;
        st.requests += 1;
        st.latency_ms.record(latency_ms);
        let latency_bad = latency_ms > cfg.latency_slo_ms;
        let tail_floor = st.latency_ms.quantile(TAIL_QUANTILE) * TAIL_MARGIN;
        let reason = if !done.deadline_met {
            Some("deadline")
        } else if latency_bad {
            Some("latency")
        } else if st.latency_ms.count() >= TAIL_MIN_COUNT && latency_ms > tail_floor {
            Some("tail")
        } else {
            None
        };
        st.objectives[Objective::DeadlineMiss as usize].record(done.t_us, !done.deadline_met);
        st.objectives[Objective::Latency as usize].record(done.t_us, latency_bad);

        match reason {
            Some(reason) => {
                let (events, truncated) = cut(MAX_EXEMPLAR_EVENTS);
                while self.exemplars.len() >= MAX_EXEMPLARS {
                    self.exemplars.pop_front();
                    self.dropped += 1; // evicted by the store cap
                }
                self.exemplars.push_back(Exemplar {
                    request_id: done.request_id,
                    tenant: done.tenant.to_string(),
                    reason,
                    level: done.level,
                    outcome: done.outcome,
                    latency_us: done.latency_us,
                    deadline_met: done.deadline_met,
                    t_us: done.t_us,
                    events: events.into(),
                    truncated,
                });
                self.retained += 1;
            }
            None => self.dropped += 1,
        }
        let miss = self.check_burn(key, st, Objective::DeadlineMiss, done.t_us);
        let slow = self.check_burn(key, st, Objective::Latency, done.t_us);
        miss || slow
    }

    /// Feed one sim episode's realised vs planned cost at trace time
    /// `t_us`: bad when `realised / planned > 1.5`. Returns
    /// whether a burn-rate alert fired.
    pub fn record_cost(
        &mut self,
        key: &str,
        st: &mut TenantSlo,
        t_us: u64,
        planned: f64,
        realised: f64,
    ) -> bool {
        let ratio = if planned > f64::EPSILON { realised / planned } else { f64::NAN };
        st.cost_ratio = ratio;
        let bad = ratio.is_finite() && ratio > COST_RATIO_MAX;
        st.objectives[Objective::CostRatio as usize].record(t_us, bad);
        self.check_burn(key, st, Objective::CostRatio, t_us)
    }

    /// A tripped `(key, objective)` pair records an alert (bounded list)
    /// linking the tenant's latest exemplars.
    fn check_burn(&mut self, key: &str, st: &mut TenantSlo, obj: Objective, now_us: u64) -> bool {
        let Some((window, burn)) = st.burn_alert(obj, now_us) else {
            return false;
        };
        let exemplar_request_ids = self
            .exemplars
            .iter()
            .rev()
            .filter(|e| e.tenant == key)
            .take(MAX_ALERT_EXEMPLARS)
            .map(|e| e.request_id)
            .collect();
        self.alerts_total += 1;
        while self.alerts.len() >= MAX_ALERTS {
            self.alerts.pop_front();
        }
        self.alerts.push_back(Alert {
            tenant: key.to_string(),
            objective: obj.as_str(),
            window,
            burn,
            t_us: now_us,
            exemplar_request_ids,
        });
        true
    }
}

/// One objective of one view row: lifetime totals, whether its cooldown
/// is running, and `(bad, total)` over each reported window.
#[derive(Clone, Copy)]
struct ObjectiveRow {
    total: u64,
    bad: u64,
    alerting: bool,
    /// Indexed like [`WINDOWS`]; the last is the slow pair's long window,
    /// the one the budget is spent over.
    windows: [(u64, u64); 4],
}

impl ObjectiveRow {
    /// Burn rate over window `w` (0 when the window is empty).
    fn burn(&self, w: usize, budget: f64) -> f64 {
        let (bad, total) = self.windows[w];
        if total == 0 {
            return 0.0;
        }
        bad as f64 / total as f64 / budget
    }

    /// Budget fraction left over the slow pair's long window: 1.0 with an
    /// untouched budget, 0.0 exactly exhausted, negative when overspent.
    fn budget_remaining(&self, budget: f64) -> f64 {
        let (bad, total) = self.windows[3];
        if total == 0 {
            return 1.0;
        }
        1.0 - bad as f64 / (budget * total as f64)
    }
}

/// One tenant row of an [`SloView`].
#[derive(Clone)]
struct SloRow {
    tenant: String,
    requests: u64,
    p99_latency_ms: f64,
    cost_ratio: f64,
    objectives: [ObjectiveRow; 3],
}

impl SloRow {
    /// Lifetime event volume across objectives (the ranking key).
    fn volume(&self) -> u64 {
        self.objectives.iter().map(|o| o.total).sum()
    }

    /// Fold another shard's row of the same tenant (`__other__`): tallies
    /// sum, p99 and cost ratio keep the worst.
    fn merge(&mut self, other: &SloRow) {
        self.requests += other.requests;
        self.p99_latency_ms = self.p99_latency_ms.max(other.p99_latency_ms);
        self.cost_ratio = self.cost_ratio.max(other.cost_ratio);
        for (mine, theirs) in self.objectives.iter_mut().zip(&other.objectives) {
            mine.total += theirs.total;
            mine.bad += theirs.bad;
            mine.alerting |= theirs.alerting;
            for (m, t) in mine.windows.iter_mut().zip(&theirs.windows) {
                *m = (m.0 + t.0, m.1 + t.1);
            }
        }
    }
}

/// The scrape-time SLO view: every shard's tenant rows and [`SloLog`]
/// folded at `now_us`. Named tenants live on one shard, so their rows are
/// exact; `__other__` rows are summed across shards.
#[derive(Clone, Default)]
pub struct SloView {
    now_us: u64,
    /// Ranked by event volume, then name.
    rows: Vec<SloRow>,
    /// Oldest first, at most [`MAX_EXEMPLARS`].
    exemplars: Vec<Exemplar>,
    /// Oldest first, at most [`MAX_ALERTS`].
    alerts: Vec<Alert>,
    alerts_total: u64,
    retained: u64,
    dropped: u64,
}

impl SloView {
    pub fn new(now_us: u64) -> Self {
        Self { now_us, ..Self::default() }
    }

    /// Fold one shard's ledger rows and log into the view.
    pub fn add_shard<'a>(
        &mut self,
        rows: impl IntoIterator<Item = (&'a str, &'a TenantSlo)>,
        log: &SloLog,
    ) {
        for (tenant, st) in rows {
            let row = st.row(tenant, self.now_us);
            match self.rows.iter_mut().find(|r| r.tenant == tenant) {
                Some(r) => r.merge(&row),
                None => self.rows.push(row),
            }
        }
        self.rows.sort_by(|a, b| b.volume().cmp(&a.volume()).then_with(|| a.tenant.cmp(&b.tenant)));
        self.alerts_total += log.alerts_total;
        self.retained += log.retained;
        self.dropped += log.dropped;
        self.exemplars.extend(log.exemplars.iter().cloned());
        self.exemplars.sort_by_key(|e| e.t_us);
        let evicted = self.exemplars.len().saturating_sub(MAX_EXEMPLARS);
        self.exemplars.drain(..evicted);
        self.dropped += evicted as u64;
        self.alerts.extend(log.alerts.iter().cloned());
        self.alerts.sort_by_key(|a| a.t_us);
        self.alerts.drain(..self.alerts.len().saturating_sub(MAX_ALERTS));
    }

    /// Alerts fired since start (including ones evicted from the bounded
    /// alert list).
    pub fn alerts_total(&self) -> u64 {
        self.alerts_total
    }

    /// The retained alert records, oldest first.
    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Timelines retained / discarded so far.
    pub fn exemplar_counts(&self) -> (u64, u64) {
        (self.retained, self.dropped)
    }

    /// The `/slo` body: budget table, burn rates per window, alert list,
    /// and the retained exemplar timelines. Schema `rrp-slo/1`.
    pub fn status_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\"schema\":\"rrp-slo/1\",");
        let _ = write!(out, "\"now_us\":{},\"alerts_total\":{},", self.now_us, self.alerts_total);
        let _ = write!(
            out,
            "\"exemplars\":{{\"retained\":{},\"dropped\":{},\"stored\":{}}},",
            self.retained,
            self.dropped,
            self.exemplars.len()
        );

        out.push_str("\"tenants\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tenant\":");
            str_into(&mut out, &row.tenant);
            let _ = write!(out, ",\"requests\":{},\"p99_latency_ms\":", row.requests);
            f64_into(&mut out, row.p99_latency_ms);
            out.push_str(",\"cost_ratio\":");
            f64_into(&mut out, row.cost_ratio);
            out.push_str(",\"objectives\":[");
            for (j, (obj, os)) in OBJECTIVES.iter().zip(&row.objectives).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let budget = obj.budget();
                let _ = write!(out, "{{\"objective\":\"{}\",\"budget\":", obj.as_str());
                f64_into(&mut out, budget);
                let _ = write!(out, ",\"events\":{},\"bad\":{}", os.total, os.bad);
                out.push_str(",\"budget_remaining\":");
                f64_into(&mut out, os.budget_remaining(budget));
                let _ = write!(out, ",\"alerting\":{},\"burn\":[", os.alerting);
                for (k, (_, window_s)) in WINDOWS.into_iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{{\"window\":\"{}\",\"rate\":", window_label(window_s));
                    f64_into(&mut out, os.burn(k, budget));
                    out.push('}');
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("],");

        out.push_str("\"alerts\":[");
        for (i, a) in self.alerts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"tenant\":");
            str_into(&mut out, &a.tenant);
            let _ = write!(
                out,
                ",\"objective\":\"{}\",\"window\":\"{}\",\"burn\":",
                a.objective, a.window
            );
            f64_into(&mut out, a.burn);
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
        for (i, ex) in self.exemplars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"request_id\":{},\"tenant\":", ex.request_id);
            str_into(&mut out, &ex.tenant);
            let _ = write!(out, ",\"reason\":\"{}\",\"level\":", ex.reason);
            str_into(&mut out, ex.level);
            out.push_str(",\"outcome\":");
            str_into(&mut out, ex.outcome);
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

    /// Write the `rrp_slo_*` families into the registry, once per scrape.
    /// Cap-aware: per-tenant series are emitted for the top tenants by
    /// event volume such that each family stays within the registry's
    /// series cap, and the rest fold into a `__other__` series carrying
    /// the *most pessimistic* value (min budget remaining, max burn) — the
    /// folded series still means something, instead of whichever tenant
    /// synced last.
    pub fn sync_registry(&self, reg: &Registry) {
        const BUDGET_HELP: &str =
            "Error budget left over the slow window (1 = untouched, <0 overspent)";
        const BURN_HELP: &str = "Error-budget burn rate per window (1 = sustainable spend)";
        let cap = reg.series_cap();
        let windows = WINDOWS.map(|(_, window_s)| window_label(window_s));
        // reserve one slot per family for the fold bucket
        let budget_tenants = (cap / OBJECTIVES.len()).saturating_sub(1).max(1);
        let burn_tenants = (cap / (OBJECTIVES.len() * windows.len())).saturating_sub(1).max(1);

        // fold accumulators: worst value per objective (budget) and per
        // objective × window (burn)
        let mut fold_budget: Option<[f64; 3]> = None;
        let mut fold_burn: Option<[[f64; 4]; 3]> = None;
        for (rank, row) in self.rows.iter().enumerate() {
            let folded_name = row.tenant == OVERFLOW_LABEL;
            for (k, (obj, os)) in OBJECTIVES.iter().zip(&row.objectives).enumerate() {
                let budget = obj.budget();
                let remaining = os.budget_remaining(budget);
                if rank < budget_tenants && !folded_name {
                    reg.gauge(
                        "rrp_slo_budget_remaining",
                        BUDGET_HELP,
                        &[("tenant", &row.tenant), ("objective", obj.as_str())],
                    )
                    .set(remaining);
                } else {
                    let fold = fold_budget.get_or_insert([f64::INFINITY; 3]);
                    fold[k] = fold[k].min(remaining);
                }
                for (w, label) in windows.iter().enumerate() {
                    let burn = os.burn(w, budget);
                    if rank < burn_tenants && !folded_name {
                        reg.gauge(
                            "rrp_slo_burn_rate",
                            BURN_HELP,
                            &[
                                ("tenant", &row.tenant),
                                ("objective", obj.as_str()),
                                ("window", label),
                            ],
                        )
                        .set(burn);
                    } else {
                        let fold = fold_burn.get_or_insert([[0.0; 4]; 3]);
                        fold[k][w] = fold[k][w].max(burn);
                    }
                }
            }
        }
        for (obj, v) in OBJECTIVES.iter().zip(fold_budget.iter().flatten()) {
            reg.gauge(
                "rrp_slo_budget_remaining",
                BUDGET_HELP,
                &[("tenant", OVERFLOW_LABEL), ("objective", obj.as_str())],
            )
            .set(if v.is_finite() { *v } else { 1.0 });
        }
        for (obj, burns) in OBJECTIVES.iter().zip(fold_burn.iter().flatten()) {
            for (label, burn) in windows.iter().zip(burns) {
                reg.gauge(
                    "rrp_slo_burn_rate",
                    BURN_HELP,
                    &[("tenant", OVERFLOW_LABEL), ("objective", obj.as_str()), ("window", label)],
                )
                .set(*burn);
            }
        }

        reg.gauge(
            "rrp_slo_tenants",
            "Tenants tracked by the SLO engine (fold bucket included)",
            &[],
        )
        .set(self.rows.len() as f64);
        reg.counter("rrp_slo_alerts_total", "Burn-rate alerts fired", &[]).set(self.alerts_total);
        reg.counter(
            "rrp_slo_exemplars_retained_total",
            "Request timelines retained by the tail sampler",
            &[],
        )
        .set(self.retained);
        reg.counter(
            "rrp_slo_exemplars_dropped_total",
            "Request timelines discarded (healthy, untracked, or evicted)",
            &[],
        )
        .set(self.dropped);
    }
}

/// The four reported windows: fast pair then slow pair.
const WINDOWS: [(Ring, u64); 4] = [
    (Ring::Fast, FAST_WINDOWS_S.0),
    (Ring::Fast, FAST_WINDOWS_S.1),
    (Ring::Slow, SLOW_WINDOWS_S.0),
    (Ring::Slow, SLOW_WINDOWS_S.1),
];

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

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
    use std::path::Path;

    use rrp_trace::{EventKind, Sink, SpanId};

    use super::*;
    use crate::flight::{FlightRecorder, FlightRing, ProfConfig};

    /// One shard's worth of engine glue: a tenant table of SLO rows, the
    /// shard's log, and the engine's lifecycle ring its exemplars are cut
    /// from. The clock is the caller's `t_us`.
    struct Shard {
        cfg: SloConfig,
        rows: HashMap<String, TenantSlo>,
        log: SloLog,
        ring: Arc<FlightRing>,
        now_us: u64,
    }

    impl Shard {
        fn new() -> Self {
            Self::on(Arc::new(FlightRing::new()))
        }

        fn on(ring: Arc<FlightRing>) -> Self {
            Self {
                cfg: SloConfig::default(),
                rows: HashMap::new(),
                log: SloLog::default(),
                ring,
                now_us: 0,
            }
        }

        fn done(&mut self, t_us: u64, tenant: &str, request_id: u64, deadline_met: bool) -> bool {
            self.done_in(t_us, tenant, request_id, deadline_met, 1_000)
        }

        /// Emit the request's span open and `RequestDone` into the ring,
        /// then account it, as the engine's `finish` does.
        fn done_in(
            &mut self,
            t_us: u64,
            tenant: &str,
            request_id: u64,
            deadline_met: bool,
            latency_us: u64,
        ) -> bool {
            self.now_us = t_us;
            let span = SpanId(request_id + 1);
            let (level, outcome) = ("full", "ok");
            let open = EventKind::SpanOpen { name: "request", parent: SpanId::ROOT };
            self.ring.emit(&Event { t_us, worker: 0, span, kind: open });
            let kind = EventKind::RequestDone {
                request_id,
                tenant: tenant.to_string(),
                level,
                outcome,
                latency_us,
                deadline_met,
            };
            self.ring.emit(&Event { t_us, worker: 0, span, kind });
            let st = self.rows.entry(tenant.to_string()).or_default();
            let done = Done { request_id, tenant, level, outcome, latency_us, deadline_met, t_us };
            let ring = &self.ring;
            self.log.record_request(&self.cfg, tenant, st, &done, |max| ring.cut(span, max))
        }

        fn cost(&mut self, tenant: &str, planned: f64, realised: f64) -> bool {
            let st = self.rows.entry(tenant.to_string()).or_default();
            self.log.record_cost(tenant, st, self.now_us, planned, realised)
        }

        fn view(&self) -> SloView {
            let mut view = SloView::new(self.now_us);
            view.add_shard(self.rows.iter().map(|(k, v)| (k.as_str(), v)), &self.log);
            view
        }
    }

    #[test]
    fn storm_fires_exactly_one_fast_alert_with_exemplars() {
        let mut slo = Shard::new();
        for i in 0..20u64 {
            slo.done(i * 1_000 + 500, "storm", i, false);
        }
        let view = slo.view();
        assert_eq!(view.alerts_total(), 1, "cooldown must debounce to one alert");
        let alerts = view.alerts();
        assert_eq!(alerts[0].tenant, "storm");
        assert_eq!(alerts[0].objective, "deadline_miss");
        assert_eq!(alerts[0].window, "fast");
        assert!(alerts[0].burn >= FAST_BURN, "burn {}", alerts[0].burn);
        assert!(!alerts[0].exemplar_request_ids.is_empty(), "alert links exemplars");
        // the alert fired at the min_samples'th request
        assert_eq!(alerts[0].t_us, 9 * 1_000 + 500);
        let (retained, _) = view.exemplar_counts();
        assert!(retained >= 10, "misses are retained ({retained})");
    }

    #[test]
    fn healthy_traffic_fires_nothing_and_retains_nothing() {
        let mut slo = Shard::new();
        for i in 0..200u64 {
            slo.done(i * 1_000 + 500, "calm", i, true);
        }
        let view = slo.view();
        assert_eq!(view.alerts_total(), 0);
        let (retained, dropped) = view.exemplar_counts();
        assert_eq!(retained, 0, "uniform healthy latencies must not tail-sample");
        assert_eq!(dropped, 200);
    }

    #[test]
    fn alert_needs_min_samples() {
        let mut slo = Shard::new();
        for i in 0..5u64 {
            slo.done(i * 1_000, "few", i, false);
        }
        assert_eq!(slo.view().alerts_total(), 0, "5 misses < min_samples 10");
    }

    #[test]
    fn latency_objective_has_its_own_budget() {
        let mut slo = Shard::new();
        for i in 0..20u64 {
            slo.done_in(i * 1_000, "slowpoke", i, true, 400_000); // 400 ms > 250 ms SLO
        }
        let view = slo.view();
        assert_eq!(view.alerts().len(), 1);
        assert_eq!(view.alerts()[0].objective, "latency");
    }

    #[test]
    fn cost_objective_is_fed_out_of_band() {
        let mut slo = Shard::new();
        slo.done(1_000, "pin-now", 0, true); // advance trace time
        let fired: Vec<bool> = (0..8).map(|_| slo.cost("overrun", 1.0, 2.0)).collect(); // 2.0 > 1.5
        assert_eq!(fired.iter().filter(|&&f| f).count(), 1, "{fired:?}");
        let view = slo.view();
        let alerts = view.alerts();
        assert_eq!(alerts.len(), 1, "{:?}", alerts);
        assert_eq!(alerts[0].tenant, "overrun");
        assert_eq!(alerts[0].objective, "cost_ratio");
        // healthy episodes never alert
        let mut calm = Shard::new();
        for _ in 0..8 {
            calm.cost("fine", 1.0, 1.1);
        }
        assert_eq!(calm.view().alerts_total(), 0);
    }

    #[test]
    fn other_rows_sum_across_shards() {
        let mut a = Shard::new();
        let mut b = Shard::new();
        for i in 0..4u64 {
            a.done(i * 1_000, OVERFLOW_LABEL, i, false);
            b.done(i * 1_000, OVERFLOW_LABEL, 10 + i, true);
        }
        b.done(9_000, "named", 20, true);
        let mut view = SloView::new(9_000);
        for s in [&a, &b] {
            view.add_shard(s.rows.iter().map(|(k, v)| (k.as_str(), v)), &s.log);
        }
        let v: serde_json::Value = serde_json::from_str(&view.status_json()).expect("valid JSON");
        let tenants = v.get("tenants").and_then(|t| t.as_array()).expect("tenants");
        assert_eq!(tenants.len(), 2, "one __other__ row, one named");
        let other = &tenants[0];
        assert_eq!(other.get("tenant").and_then(|t| t.as_str()), Some(OVERFLOW_LABEL));
        assert_eq!(other.get("requests").and_then(|r| r.as_u64()), Some(8));
        let dm = &other.get("objectives").and_then(|o| o.as_array()).expect("objectives")[0];
        assert_eq!(dm.get("events").and_then(|e| e.as_u64()), Some(8));
        assert_eq!(dm.get("bad").and_then(|e| e.as_u64()), Some(4));
        assert_eq!(view.exemplar_counts(), (4, 5));
    }

    #[test]
    fn status_json_parses_and_reports_the_drained_budget() {
        let mut slo = Shard::new();
        for i in 0..20u64 {
            slo.done(i * 1_000, "storm", i, false);
        }
        let v: serde_json::Value =
            serde_json::from_str(&slo.view().status_json()).expect("status_json is valid JSON");
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

    /// Compare `got` with the pinned file `tests/golden/<name>`;
    /// `UPDATE_GOLDEN=1` rewrites the pin instead.
    fn assert_golden(name: &str, got: &str) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, got).expect("write golden pin");
        }
        let want = std::fs::read_to_string(&path)
            .expect("golden pin missing; regenerate with UPDATE_GOLDEN=1");
        assert_eq!(got, want, "`{name}` drifted from its golden pin");
    }

    /// Byte-exact pins of the three scrape bodies an SLO + flight engine
    /// serves, over two shards sharing one ring: a deadline storm on shard
    /// a, an `__other__` row on both, and a latency-bad, cost-bad named
    /// tenant on shard b. The field tests above parse these bodies; this
    /// one pins every byte (number formats, key order, escaping).
    #[test]
    fn scrape_bodies_match_the_golden_pins() {
        let ring = Arc::new(FlightRing::new());
        let recorder = FlightRecorder::new(ProfConfig::default(), Arc::clone(&ring), None);
        let mut a = Shard::on(Arc::clone(&ring));
        let mut b = Shard::on(Arc::clone(&ring));
        for i in 0..20u64 {
            if a.done(i * 1_000 + 500, "storm", i, false) {
                recorder.trigger("slo_burn_rate");
            }
        }
        for i in 0..4u64 {
            a.done(30_000 + i * 1_000, OVERFLOW_LABEL, 100 + i, i % 2 == 0);
            b.done(30_500 + i * 1_000, OVERFLOW_LABEL, 200 + i, false);
        }
        for i in 0..12u64 {
            b.done_in(40_000 + i * 1_000, "named \"q\"", 300 + i, true, 300_000 + i * 7_001);
        }
        for i in 0..5u32 {
            if b.cost("named \"q\"", 1.0, 1.25 + f64::from(i) * 0.125) {
                recorder.trigger("slo_burn_rate");
            }
        }
        let mut view = SloView::new(52_000);
        for s in [&a, &b] {
            view.add_shard(s.rows.iter().map(|(k, v)| (k.as_str(), v)), &s.log);
        }
        assert_golden("slo_status.json", &view.status_json());
        let reg = Registry::new();
        view.sync_registry(&reg);
        assert_golden("slo_metrics.txt", &reg.render());
        assert_golden("flight_status.json", &recorder.status_json());
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
