//! # rrp-lp — linear programming substrate
//!
//! A self-contained LP solver used as the foundation of the rental-planning
//! MILP solver (`rrp-milp`). The paper solved its models with CPLEX™; this
//! crate supplies the equivalent building block in pure Rust:
//!
//! * [`Model`] — a mutable LP builder (variables with bounds, linear
//!   constraints, minimise/maximise objective).
//! * [`StandardLp`] — the computational form `min cᵀx, Ax = b, l ≤ x ≤ u`
//!   obtained by adding one slack per row.
//! * [`solve_warm`] — the production entry point: a bounded-variable dual
//!   simplex, warm-started from a [`Basis`] after a bound change and, with
//!   no hint, started from the all-slack basis whenever that basis is dual
//!   feasible (every minimise-cost rental model). Its pivot row, ratio test
//!   and reduced-cost update touch only the columns the row reaches.
//! * [`simplex::solve_sparse`] / [`simplex::solve_dense`] — the two-phase
//!   primal simplex the dual path falls back to (dual-infeasible start,
//!   stall, every infeasibility verdict), over pluggable basis engines: a
//!   sparse LU engine with product-form updates, and a dense
//!   explicit-inverse engine kept as the cross-checking reference.
//!
//! The solver reports primal values, duals, reduced costs and a solution
//! [`Status`]. Determinism: no randomness, no global state; identical inputs
//! give identical pivots.
//!
//! ```
//! use rrp_lp::{Model, Sense, Cmp};
//! let mut m = Model::new(Sense::Minimize);
//! let x = m.add_var(0.0, f64::INFINITY, 1.0, "x");
//! let y = m.add_var(0.0, f64::INFINITY, 2.0, "y");
//! m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 3.0);
//! let sol = m.solve().unwrap();
//! assert!((sol.objective - 3.0).abs() < 1e-9);
//! assert!((sol.values[x] - 3.0).abs() < 1e-9);
//! ```

pub mod dual;
pub mod engine;
pub mod lu;
pub mod matrix;
pub mod model;
pub mod presolve;
pub mod scaling;
pub mod simplex;
pub mod solution;

pub use dual::{solve_warm, solve_warm_traced, WarmResult};
pub use model::{Cmp, Model, Sense, StandardLp, VarId};
pub use presolve::{presolve, InfeasibleRow, PresolveOutcome, Presolved};
pub use simplex::{Basis, VarStatus};
pub use solution::{Solution, Status};

/// Feasibility tolerance used throughout the solver.
pub const FEAS_TOL: f64 = 1e-7;
/// Reduced-cost (optimality) tolerance.
pub const OPT_TOL: f64 = 1e-9;
/// Pivot magnitude below which a candidate pivot is rejected as unstable.
pub const PIVOT_TOL: f64 = 1e-10;
/// Tolerance for comparing variable bounds (crossing detection and
/// tightening). Shared by [`presolve`] and the `rrp-audit` static analysis
/// pass so the two agree on what counts as proven infeasibility.
pub const BOUND_TOL: f64 = 1e-9;
