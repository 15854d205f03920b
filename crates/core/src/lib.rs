//! # rrp-core — optimal resource rental planning for elastic cloud apps
//!
//! This crate implements the contribution of *"Optimal Resource Rental
//! Planning for Elastic Applications in Cloud Market"* (Zhao, Pan, Liu, Li,
//! Fang — IPDPS 2012):
//!
//! * **DRRP** ([`drrp`]) — the deterministic rental-planning MILP
//!   (paper Eq. 1–7): decide per slot whether to rent a compute instance
//!   (`χ`), how much data to generate (`α`) and how much to inventory
//!   (`β`) so total compute + storage/I-O + transfer cost is minimal while
//!   demand is always covered.
//! * **Wagner–Whitin** ([`wagner_whitin`]) — the exact dynamic-programming
//!   solution of the uncapacitated case, confirming the paper's
//!   "dynamic lot-sizing" identification. [`drrp::exact_dp`] routes every
//!   uncapacitated instance to it, and the MILP stays its cross-check.
//! * **Scenario trees** ([`scenario`]) and **bid-dependent dynamic
//!   sampling** ([`sampling`], paper Eq. 10).
//! * **SRRP** ([`srrp`]) — the multistage recourse model solved through its
//!   deterministic-equivalent MILP (paper Eq. 13–19).
//! * **Policies** ([`policy`]) — no-plan, on-demand, oracle, det-predict,
//!   sto-predict, det-exp-mean, sto-exp-mean: the exact line-up of the
//!   paper's Fig. 10/12 evaluations.
//! * **Rolling-horizon simulation** ([`rolling`]) — periodic re-planning
//!   against realised spot prices with out-of-bid fallback to on-demand,
//!   plus full cost accounting ([`eval`]) and commit-once reservation
//!   charging ([`reservation`]).

pub mod budgeted;
pub mod cost;
pub mod demand;
pub mod drrp;
pub mod eval;
pub mod fallback;
pub mod fingerprint;
pub mod policy;
pub mod portfolio;
pub mod reservation;
pub mod rolling;
pub mod sampling;
pub mod scenario;
pub mod srrp;
pub mod stochastics;
pub mod wagner_whitin;

pub use budgeted::PlanOutcome;
pub use cost::{CostSchedule, PlanningParams};
pub use drrp::{DrrpProblem, RentalPlan};
pub use eval::{CostBreakdown, RealisedReport, SloReport};
pub use fallback::on_demand_plan;
pub use fingerprint::fingerprint_instance;
pub use reservation::{ReservationLedger, ReservedTerm};
pub use scenario::ScenarioTree;
pub use srrp::{FlModel, SrrpProblem};
