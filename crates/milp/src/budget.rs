//! Cooperative solve budgets: wall-clock deadlines and node-count ceilings
//! checked inside the branch & bound loop, so a caller (e.g. the planning
//! engine) can bound latency without killing threads. A budgeted solve never
//! runs unbounded and never panics on limit hit — it returns
//! [`SolveStatus::Terminated`] carrying whatever incumbent the search had.

use std::time::{Duration, Instant};

use crate::{MilpSolution, MilpStatus};

/// Resource limits for one MILP solve. Checked cooperatively once per node
/// batch in the B&B loop (each node is a single LP solve, so enforcement
/// granularity is sub-millisecond to a few milliseconds for this workspace's
/// problem sizes).
#[derive(Debug, Clone, Copy)]
pub struct SolveBudget {
    /// Absolute wall-clock instant after which the search stops.
    pub deadline: Option<Instant>,
    /// Maximum number of B&B nodes to expand under this budget. Unlike
    /// [`crate::MilpOptions::node_limit`], hitting this limit is reported as
    /// [`SolveStatus::Terminated`] rather than an error.
    pub node_limit: Option<usize>,
}

impl SolveBudget {
    /// No limits: a budgeted solve degenerates to the plain solve.
    pub fn unlimited() -> Self {
        Self { deadline: None, node_limit: None }
    }

    /// Stop at the given absolute instant.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self { deadline: Some(deadline), node_limit: None }
    }

    /// Stop `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        Self::with_deadline(Instant::now() + timeout)
    }

    /// Stop after `nodes` B&B nodes.
    pub fn with_node_limit(nodes: usize) -> Self {
        Self { deadline: None, node_limit: Some(nodes) }
    }

    /// Builder-style: add a node ceiling to an existing budget.
    pub fn and_node_limit(mut self, nodes: usize) -> Self {
        self.node_limit = Some(nodes);
        self
    }

    /// Which limit, if any, is exhausted after `nodes` expanded nodes.
    /// Node-count is checked before the clock so tests with a zero node
    /// budget are deterministic.
    pub fn exceeded(&self, nodes: usize) -> Option<StopReason> {
        if let Some(limit) = self.node_limit {
            if nodes >= limit {
                return Some(StopReason::NodeLimit);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopReason::Deadline);
            }
        }
        None
    }

    /// Time left until the deadline (`None` = no deadline).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_duration_since(Instant::now()))
    }
}

/// Why a budgeted search stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The budget's node ceiling was reached.
    NodeLimit,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            StopReason::Deadline => "wall-clock deadline",
            StopReason::NodeLimit => "node budget",
        })
    }
}

/// Outcome of a budgeted solve ([`crate::solve_budgeted`]).
///
/// This deliberately sits beside, not inside, [`MilpStatus`]: the legacy
/// status is a `Copy + Eq` error enum that existing callers compare with
/// `assert_eq!`, while `Terminated` must carry an incumbent and a bound.
#[derive(Debug, Clone)]
pub enum SolveStatus {
    /// Search completed within budget: the solution is optimal up to the
    /// configured gap (or node-limited per `MilpOptions`, as before).
    Optimal(MilpSolution),
    /// The budget ran out first. `best_incumbent` is the best integer
    /// feasible solution found (if any) and `bound` the best dual bound in
    /// the model's original sense — together they bracket the optimum.
    Terminated { best_incumbent: Option<MilpSolution>, bound: f64, reason: StopReason },
    /// The instance itself failed: infeasible, unbounded, or numerical.
    Failed(MilpStatus),
}

impl SolveStatus {
    /// The best feasible solution carried by this status, if any.
    pub fn incumbent(&self) -> Option<&MilpSolution> {
        match self {
            SolveStatus::Optimal(sol) => Some(sol),
            SolveStatus::Terminated { best_incumbent, .. } => best_incumbent.as_ref(),
            SolveStatus::Failed(_) => None,
        }
    }

    /// Whether the search ran to normal completion.
    pub fn is_optimal(&self) -> bool {
        matches!(self, SolveStatus::Optimal(_))
    }
}
