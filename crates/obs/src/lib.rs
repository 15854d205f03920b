//! # rrp-obs — the planning engine's live telemetry
//!
//! [`rrp_trace`] records *what happened*, as an event stream to inspect
//! after the fact. This crate answers the live questions — *how much*,
//! *where the time went*, *what state the engine was in when it fell
//! over*, and *is each tenant getting the service it was promised* —
//! with std-only parts that keep no ledger of their own: every scrape
//! body is a render of the engine's per-shard ledgers and its one
//! lifecycle [`FlightRing`].
//!
//! * **Labeled registry** ([`registry`]) — counters, gauges, and
//!   `LogHistogram`-fed summaries keyed by `(name, label-set)`, `set` by
//!   producers from their own ledgers once per scrape. A bounded
//!   label-cardinality guard routes excess series (e.g. hostile tenant
//!   ids) into one `__other__` bucket instead of growing without bound.
//! * **Exposition server** ([`server`]) — a tiny hand-rolled HTTP/1.1
//!   responder on one readiness loop serving `/metrics` (Prometheus
//!   text), `/snapshot`, `/healthz`, `/readyz`, `/profile`, `/flight`,
//!   `/slo` and the `POST /plan` intake, plus the one minimal client
//!   ([`http_request`]) the tests and tooling scrape with.
//! * **Sampling profiler** ([`Profiler`]) — a sampler thread walks the
//!   lock-free per-lane span stacks `rrp_trace::SpanStacks` publishes, at
//!   [`ProfConfig::sample_hz`] (default 97 Hz — prime, so it cannot
//!   phase-lock with millisecond-periodic work), and counts samples per
//!   collapsed span path (`request;rung:deterministic;milp`). Workers pay
//!   only the seqlocked push/pop per span.
//! * **Flight recorder** ([`FlightRecorder`]) — trigger detection over
//!   the [`FlightRing`] of recent lifecycle events. A deadline-miss or
//!   budget-exhaustion spike, a `readyz` flip, a panic, an SLO burn-rate
//!   alert or an external cause dumps one post-mortem bundle (cause,
//!   recent events, profiler samples, metrics, in-flight table, SLO
//!   status), rendered by `cargo run -p xtask -- postmortem`.
//! * **SLO ledgers** ([`TenantSlo`], [`SloLog`], [`SloView`]) — per
//!   tenant, a rolling error budget for deadline misses, plan latency and
//!   realised/planned cost, with Google-SRE multi-window burn-rate
//!   alerting, and a tail sampler that keeps only the requests that
//!   breach an objective or land in the latency tail, each with its span
//!   subtree cut from the ring. Budgets, windows and burn thresholds are
//!   fixed; only [`SloConfig::latency_slo_ms`] is set per engine.
//!
//! Every lock here recovers a poisoned guard: everything this crate
//! protects is observational, and a panicking instrumented thread must
//! not also wedge the post-mortem machinery that exists to explain it.
//!
//! ```
//! use rrp_obs::Registry;
//!
//! let reg = Registry::new();
//! // a scrape-time sync: the per-tenant ledger lives with the producer
//! reg.set_counter_family("rrp_requests_total", "Requests served", "tenant", &[("a", 3)]);
//! let text = reg.render();
//! assert!(text.contains("rrp_requests_total{tenant=\"a\"} 3"));
//! // and the text parses back (the registry appends its own
//! // rrp_obs_series_overflow_total self-metric, hence 2 samples):
//! assert_eq!(rrp_obs::text::parse(&text).expect("valid exposition").len(), 2);
//! ```

mod engine;
mod flight;
mod profiler;
pub mod registry;
pub mod server;
pub mod text;
mod window;

pub use engine::{Alert, Done, SloConfig, SloLog, SloView, TenantSlo, MAX_EXEMPLAR_EVENTS};
pub use flight::{install_panic_hook, FlightRecorder, FlightRing, ProfConfig};
pub use profiler::{Profiler, SamplerShared};
pub use registry::{Counter, Gauge, Registry, Summary, OVERFLOW_LABEL};
pub use server::{http_request, ObsHooks, ObsServer, PendingPlan, PlanDecision, Readiness};
pub use text::{parse, Sample};
