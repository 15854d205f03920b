//! # rrp-milp — branch & bound mixed-integer linear programming
//!
//! A MILP solver layered on the `rrp-lp` simplex, standing in for the
//! CPLEX™ solver the paper used through AIMMS. It supports:
//!
//! * continuous + integer (including binary) variables,
//! * best-bound (best-first) tree search with most-fractional or
//!   pseudo-cost branching,
//! * an LP-rounding primal heuristic to find incumbents early,
//! * relative/absolute gap and node-limit termination.
//!
//! The DRRP and SRRP formulations of the paper are built as [`MilpProblem`]s
//! by `rrp-core` and solved here.
//!
//! ```
//! use rrp_lp::{Model, Sense, Cmp};
//! use rrp_milp::{MilpProblem, MilpOptions};
//! // max 5x + 4y  s.t. 6x + 4y <= 24, x + 2y <= 6, x,y >= 0 integer
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var(0.0, f64::INFINITY, 5.0, "x");
//! let y = m.add_var(0.0, f64::INFINITY, 4.0, "y");
//! m.add_con(&[(x, 6.0), (y, 4.0)], Cmp::Le, 24.0);
//! m.add_con(&[(x, 1.0), (y, 2.0)], Cmp::Le, 6.0);
//! let p = MilpProblem::new(m, vec![x, y]);
//! let sol = p.solve(&MilpOptions::default()).unwrap();
//! assert_eq!(sol.values[x].round() as i64, 4);
//! assert_eq!(sol.values[y].round() as i64, 0);
//! ```

mod branch;
mod budget;
mod heuristics;
mod solver;

pub use branch::Branching;
pub use budget::{SolveBudget, SolveStatus, StopReason};
pub use rrp_lp::simplex::{Basis, VarStatus};
pub use solver::{solve_budgeted, LpStats, MilpOptions, MilpSolution, MilpStatus};

use rrp_lp::{Model, VarId};

/// A mixed-integer linear program: an LP [`Model`] plus the set of columns
/// that must take integral values.
#[derive(Debug, Clone)]
pub struct MilpProblem {
    pub model: Model,
    pub integers: Vec<VarId>,
}

impl MilpProblem {
    pub fn new(model: Model, integers: Vec<VarId>) -> Self {
        for &v in &integers {
            assert!(v < model.num_vars(), "integer mark on unknown variable {v}");
        }
        Self { model, integers }
    }

    /// Intersect variable bounds with externally proven ones (e.g. from the
    /// `rrp-audit` interval propagation pass). Each entry is
    /// `(var, lower, upper)`; a bound that is weaker than the current one is
    /// ignored, so applying a sound tightening can only shrink the feasible
    /// box and never changes the integer optimum.
    ///
    /// Propagation arithmetic can land an upper bound a few ulps below the
    /// lower (e.g. a proven `-1e-16` against a `0` floor on a variable that
    /// is exactly zero). A roundoff-width crossing collapses to the point
    /// interval at the lower bound instead of producing an inverted box; a
    /// crossing wider than tolerance means the caller applied bounds from
    /// an instance the audit proved infeasible, which is a usage error.
    pub fn tighten_bounds(&mut self, tightened: &[(VarId, f64, f64)]) {
        for &(v, lo, hi) in tightened {
            let (cur_lo, cur_hi) = self.model.var_bounds(v);
            let new_lo = cur_lo.max(lo);
            let mut new_hi = cur_hi.min(hi);
            if new_lo > new_hi {
                let gap = new_lo - new_hi;
                assert!(
                    gap <= 1e-9 * new_lo.abs().max(1.0),
                    "tighten_bounds: var {v} bounds cross beyond roundoff: [{new_lo}, {new_hi}]"
                );
                new_hi = new_lo;
            }
            if new_lo > cur_lo || new_hi < cur_hi {
                self.model.set_var_bounds(v, new_lo, new_hi);
            }
        }
    }

    /// Solve with the given options.
    pub fn solve(&self, opts: &MilpOptions) -> Result<MilpSolution, MilpStatus> {
        solver::solve(self, opts)
    }

    /// Solve under a cooperative [`SolveBudget`]. Limit hits are reported as
    /// [`SolveStatus::Terminated`] (carrying the best incumbent and dual
    /// bound) instead of an error.
    pub fn solve_budgeted(&self, opts: &MilpOptions, budget: &SolveBudget) -> SolveStatus {
        solver::solve_budgeted(self, opts, budget)
    }
}
