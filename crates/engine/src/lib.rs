//! # rrp-engine — concurrent multi-tenant planning service
//!
//! Wraps the planners of [`rrp_core`] (SRRP, DRRP, Wagner–Whitin, the
//! on-demand baseline) into a deadline-aware service:
//!
//! * **Thread-pool execution** ([`service`]) — N OS workers, each owning
//!   one shard of tenant state and its bounded queue of [`PlanRequest`]s;
//!   no async runtime, the work is CPU-bound branch & bound.
//! * **Deadline enforcement** — each request's wall-clock budget becomes an
//!   [`rrp_milp::SolveBudget`] checked cooperatively inside branch & bound,
//!   so a MILP rung stops mid-search instead of blowing the deadline.
//! * **Graceful degradation** ([`ladder`]) — when a rung runs out of
//!   budget the request falls down the ladder SRRP → DRRP → Wagner–Whitin
//!   DP → on-demand-only; the bottom rung is closed-form, so every request
//!   gets a demand-feasible plan, tagged with its [`DegradationLevel`].
//!   Uncapacitated DRRP never reaches branch & bound: the DRRP rung answers
//!   it exactly from Wagner–Whitin ([`rrp_core::drrp::exact_dp`]).
//! * **Warm-start caching** ([`cache`]) — answers are keyed by a canonical
//!   problem fingerprint (schedule + demand + tree shape); identical
//!   problems hit, even from different tenants of the same shard.
//! * **Pre-solve audit gate** — every cache-missing request's DRRP
//!   instance runs through the [`rrp_audit`] static analysis first:
//!   provably infeasible requests are *rejected* with an
//!   [`InfeasibilityProof`] (no branch & bound, no worker panic), and the
//!   audit's bound/big-M tightenings strengthen the instance the
//!   Deterministic rung solves.
//! * **Metrics** ([`metrics`]) — per-level counts, queue depth (current
//!   and high-water), cache hit rate, audit/rejection counts, bounded
//!   per-tenant tables, p50/p99 latency as a serialisable snapshot.
//! * **Exposition** ([`MetricsConfig`]) — opt-in [`rrp_obs`] wiring: a
//!   labeled registry synced from the engine's ledgers at scrape time,
//!   served over HTTP as `/metrics` (Prometheus text), `/snapshot` (JSON),
//!   `/healthz`, `/readyz`, and the `POST /plan` intake.
//!
//! ```
//! use std::time::Duration;
//! use rrp_core::{CostSchedule, PlanningParams};
//! use rrp_engine::{Engine, PlanRequest, PolicyKind};
//! use rrp_spotmarket::CostRates;
//!
//! let engine = Engine::new(4);
//! let schedule = CostSchedule::ec2(
//!     vec![0.06; 6],
//!     vec![0.4, 0.8, 0.2, 0.6, 0.5, 0.3],
//!     &CostRates::ec2_2011(),
//! );
//! let resp = engine
//!     .submit(PlanRequest {
//!         app_id: "tenant-a".into(),
//!         vm_class: "m1.small".into(),
//!         schedule: schedule.clone(),
//!         params: PlanningParams::default(),
//!         tree: None,
//!         policy: PolicyKind::Deterministic,
//!         deadline: Duration::from_millis(250),
//!         seed: 7,
//!     })
//!     .wait();
//! assert!(resp.deadline_met);
//! assert!(resp.rejection.is_none(), "feasible request must not be rejected");
//! assert!(resp.expect_plan().is_feasible(&schedule, &PlanningParams::default(), 1e-6));
//! ```

pub mod bounded;
pub mod cache;
pub mod ladder;
pub mod metrics;
pub mod request;
pub mod service;
pub mod shard;
mod wire;

pub use cache::{CacheEntry, PlanCache};
pub use ladder::{
    run_ladder, run_ladder_prepared, run_ladder_with, LadderConfig, LadderResult, PreparedDrrp,
};
pub use metrics::{
    MetricsSnapshot, ShardSnapshot, TenantSnapshot, TENANT_OVERFLOW, TENANT_TABLE_CAP,
};
pub use request::{
    DegradationLevel, PlanRequest, PlanResponse, PolicyKind, RungOutcome, TraceEntry,
};
pub use rrp_audit::InfeasibilityProof;
pub use rrp_prof::ProfConfig;
pub use rrp_slo::SloConfig;
pub use service::{Engine, EngineConfig, MetricsConfig, ShardConfig, Ticket};
pub use shard::{shard_of, Busy};
pub use wire::MAX_HORIZON;
