//! Plan-level outcomes of budgeted solves — `rrp_milp::SolveStatus` lifted
//! from raw solution vectors to extracted plans ([`crate::srrp::SrrpPlan`]),
//! returned by the SRRP budgeted entry point that the planning engine's
//! deadline enforcement drives.

use rrp_milp::{MilpStatus, StopReason};

/// Outcome of a budgeted planning solve.
#[derive(Debug, Clone)]
pub enum PlanOutcome<P> {
    /// Completed within budget; the plan is optimal up to the solver gap.
    Optimal(P),
    /// The budget ran out. `plan` is the best incumbent found (already
    /// extracted and feasible) if the search had one; `bound` is the dual
    /// bound bracketing the optimum.
    Terminated { plan: Option<P>, bound: f64, reason: StopReason },
    /// The instance failed independent of the budget.
    Failed(MilpStatus),
}

impl<P> PlanOutcome<P> {
    /// The plan carried by this outcome, if any (optimal or incumbent).
    pub fn into_plan(self) -> Option<P> {
        match self {
            PlanOutcome::Optimal(p) => Some(p),
            PlanOutcome::Terminated { plan, .. } => plan,
            PlanOutcome::Failed(_) => None,
        }
    }

    pub fn is_optimal(&self) -> bool {
        matches!(self, PlanOutcome::Optimal(_))
    }

    /// Map the plan type while preserving the outcome shape.
    pub fn map<Q>(self, f: impl FnOnce(P) -> Q) -> PlanOutcome<Q> {
        match self {
            PlanOutcome::Optimal(p) => PlanOutcome::Optimal(f(p)),
            PlanOutcome::Terminated { plan, bound, reason } => {
                PlanOutcome::Terminated { plan: plan.map(f), bound, reason }
            }
            PlanOutcome::Failed(e) => PlanOutcome::Failed(e),
        }
    }
}
