//! # rrp-audit — static analysis for LP/MILP instances
//!
//! CPLEX ships a model checker; the hand-rolled simplex/branch-and-bound
//! stack of this workspace had none. This crate closes that gap: it runs a
//! set of *static* analyses over an [`rrp_lp::Model`] (optionally with the
//! integer marks of an [`rrp_milp::MilpProblem`]) **without solving**, and
//! reports everything it can prove or flag:
//!
//! * **Interval bound propagation** ([`bounds`]) — activity bounds per row
//!   either prove infeasibility outright (with a named row/bound proof
//!   trace) or tighten variable bounds; the tightened bounds can be fed
//!   back into branch & bound via [`rrp_milp::MilpProblem::tighten_bounds`].
//! * **Structure checks** ([`structure`]) — duplicate/parallel constraint
//!   rows and dangling (constraint-free) columns.
//! * **Numerics report** ([`numerics`]) — coefficient-magnitude histogram,
//!   row/column dynamic range, and a recommendation to run
//!   [`rrp_lp::scaling`] when the matrix is badly scaled.
//! * **Big-M forcing check** ([`bigm`]) — the DRRP/SRRP formulations (paper
//!   Eq. 4/16) hinge on forcing rows `α − M·χ ≤ 0`; a loose `M` weakens the
//!   LP relaxation and inflates the B&B tree. The check compares every
//!   forcing row's `M` against the tightest implied upper bound of the
//!   forced variable (propagated bounds ∧ caller-supplied demand/capacity
//!   hints) and reports the tightest valid `M`.
//!
//! The pass is an offline analysis (the `audit_report` bench bin) and a
//! test oracle: the planning engine's pre-solve gate is the `O(T)` prefix
//! sum `rrp_core::drrp::capacity_shortfall`, whose verdict the soundness
//! tests hold equal to this pass's away from the feasibility boundary.
//!
//! ```
//! use rrp_lp::{Cmp, Model, Sense};
//! use rrp_audit::audit_model;
//! let mut m = Model::new(Sense::Minimize);
//! let x = m.add_var(0.0, 10.0, 1.0, "x");
//! m.add_con(&[(x, 1.0)], Cmp::Ge, 8.0);
//! m.add_con(&[(x, 1.0)], Cmp::Le, 3.0);
//! let report = audit_model(&m);
//! assert!(report.proven_infeasible());
//! ```

pub mod bigm;
pub mod bounds;
pub mod numerics;
pub mod report;
pub mod structure;

pub use bigm::{BigMFinding, UpperBoundHint};
pub use bounds::{BoundTightening, InfeasibilityProof};
pub use numerics::NumericsReport;
pub use report::{audit_milp, audit_milp_with, audit_model, AuditOptions, AuditReport};
pub use structure::{DanglingColumn, ParallelRows};

/// Bound-comparison tolerance: bounds that cross by no more than this are
/// snapped together, not reported as a crossing.
pub const TOL: f64 = rrp_lp::BOUND_TOL;
