//! # rrp-obs — pull-based metrics exposition for the planning engine
//!
//! Where [`rrp_trace`] is the *forensic* half of observability (event
//! streams you inspect after the fact), this crate is the *live* half: an
//! operator watching the engine under load needs a scrapeable endpoint,
//! per-tenant breakdowns, and a liveness/readiness signal — without
//! retaining a single event. Two std-only layers:
//!
//! * **Labeled registry** ([`registry`]) — counters, gauges, and
//!   `LogHistogram`-fed summaries keyed by `(name, label-set)`. It is a
//!   scrape-time view: it consumes no events, and producers `set` it from
//!   their own ledgers once per scrape. A bounded label-cardinality guard
//!   routes excess series (e.g. hostile tenant ids) into one `__other__`
//!   bucket instead of growing without bound.
//! * **Exposition server** ([`server`]) — a tiny hand-rolled HTTP/1.1
//!   responder on `std::net::TcpListener` (loopback-oriented) serving
//!   `/metrics` in Prometheus text format, `/snapshot` as JSON, and
//!   `/healthz` + `/readyz` probes, with graceful shutdown.
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

pub mod registry;
pub mod server;
pub mod text;

pub use registry::{Counter, Gauge, Registry, Summary, OVERFLOW_LABEL};
pub use server::{ObsHooks, ObsServer, PendingPlan, PlanDecision, Readiness};
pub use text::{parse, Sample};
