//! # rrp-slo — per-tenant error budgets, burn-rate alerting, tail sampling
//!
//! The fourth observability layer: `rrp-trace` records *what happened*,
//! `rrp-obs` *how much*, `rrp-prof` *where the time went*; this crate
//! answers *is each tenant getting the service they were promised, and if
//! not, which request shows why*.
//!
//! **Objectives** ([`TenantSlo`]): per-tenant deadline-miss rate,
//! plan-latency threshold, realised/planned cost ratio (fed by `rrp-sim`
//! soaks) — each with a rolling error-budget ledger and Google-SRE-style
//! multi-window burn-rate alerting. An alert fires when the budget burns
//! faster than a threshold over *both* windows of a pair (fast 5m/1h
//! catches cliffs, slow 6h/3d catches slow leaks). All window arithmetic
//! runs on the trace clock (the one that stamps `Event::t_us`), never a
//! second clock, so seeded storms alert deterministically.
//!
//! **Tail sampler** ([`SloLog`]): only requests that breach an objective
//! or land in the latency tail are retained, each with its span subtree
//! (queue → audit → rung ladder → solve summaries) cut from the engine's
//! flight ring, in a bounded exemplar store linked from the alert that
//! fired. The healthy 99% of traffic costs no exemplar work at all.
//!
//! This crate keeps no tenant table and consumes no events: the engine
//! embeds it as `EngineConfig::slo`, stores a [`TenantSlo`] in each row
//! of its per-shard request ledger and an [`SloLog`] per shard, and
//! serves `/slo`, the `rrp_slo_*` families and the post-mortem bundle's
//! `slo` section as renders of an [`SloView`] folded at scrape time. A
//! burn-rate breach fires the flight recorder's `slo_burn_rate` trigger.

mod engine;
mod window;

pub use engine::{Alert, Done, SloLog, SloView, TenantSlo};

/// SLO options (engine: `EngineConfig::slo`). Budgets are *bad-event
/// fractions*: a `deadline_miss_budget` of 0.01 promises 99% of requests
/// meet their deadline; burn rate is the observed bad fraction divided by
/// that budget, so burn 1.0 spends the budget exactly at the sustainable
/// rate and burn 14.4 exhausts a 3-day budget in five hours. Tenants past
/// the engine's tenant-table cap share one `__other__` ledger.
#[derive(Debug, Clone)]
pub struct SloConfig {
    /// Tolerated deadline-miss fraction per tenant (0 disables the
    /// objective).
    pub deadline_miss_budget: f64,
    /// Plan-latency threshold (ms): requests slower than this are
    /// latency-bad.
    pub latency_slo_ms: f64,
    /// Tolerated latency-bad fraction per tenant (0 disables).
    pub latency_budget: f64,
    /// Realised/planned cost ratio above which a sim episode is cost-bad.
    pub cost_ratio_max: f64,
    /// Tolerated cost-bad fraction of episodes per tenant (0 disables).
    pub cost_budget: f64,
    /// Fast alert pair `(short, long)` in seconds of trace time.
    pub fast_windows_s: (u64, u64),
    /// Slow alert pair `(short, long)` in seconds of trace time.
    pub slow_windows_s: (u64, u64),
    /// Burn-rate threshold both fast windows must exceed to page.
    pub fast_burn: f64,
    /// Burn-rate threshold both slow windows must exceed to page.
    pub slow_burn: f64,
    /// Minimum events in every window of a pair before its burn rate is
    /// trusted (guards divide-by-tiny alerts on the first bad request).
    pub min_samples: u64,
    /// Same guard for the episode-grained cost objective.
    pub cost_min_samples: u64,
    /// A fired (tenant, objective) alert suppresses re-fires for this
    /// long — one incident, one alert.
    pub alert_cooldown_s: u64,
    /// Exemplar-store cap: retaining past this evicts the oldest.
    pub max_exemplars: usize,
    /// Events kept per timeline; the rest are counted as truncated.
    pub max_exemplar_events: usize,
    /// Latency quantile defining "the tail" for retention.
    pub tail_quantile: f64,
    /// Retention margin over the tail quantile: a request is tail-sampled
    /// when its latency exceeds `quantile(tail_quantile) × tail_margin`.
    /// The margin absorbs the log-histogram's ~9% quantile error so a
    /// healthy, tight latency distribution retains nothing.
    pub tail_margin: f64,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            deadline_miss_budget: 0.01,
            latency_slo_ms: 250.0,
            latency_budget: 0.01,
            cost_ratio_max: 1.5,
            cost_budget: 0.05,
            fast_windows_s: (300, 3_600),
            slow_windows_s: (21_600, 259_200),
            fast_burn: 14.4,
            slow_burn: 6.0,
            min_samples: 10,
            cost_min_samples: 4,
            alert_cooldown_s: 3_600,
            max_exemplars: 32,
            max_exemplar_events: 64,
            tail_quantile: 0.99,
            tail_margin: 2.0,
        }
    }
}
