//! Request/response types of the planning service.

use std::time::Duration;

use rrp_audit::InfeasibilityProof;
use rrp_core::fingerprint::Fnv64;
use rrp_core::{fingerprint_instance, CostSchedule, PlanningParams, RentalPlan, ScenarioTree};
use rrp_milp::StopReason;

/// Which planner a tenant asks for. This is the *top* of the degradation
/// ladder — under deadline pressure the engine may answer from a rung below
/// (see [`DegradationLevel`]), but never from a rung above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// SRRP: multistage recourse over the request's scenario tree.
    Stochastic,
    /// DRRP: deterministic MILP at the schedule's compute prices.
    Deterministic,
    /// Wagner–Whitin dynamic program (exact, uncapacitated only).
    DynamicProgram,
    /// No optimisation: rent in every producing slot.
    OnDemand,
}

impl PolicyKind {
    /// The ladder rung this policy starts at.
    pub fn start_level(self) -> DegradationLevel {
        match self {
            PolicyKind::Stochastic => DegradationLevel::Full,
            PolicyKind::Deterministic => DegradationLevel::Deterministic,
            PolicyKind::DynamicProgram => DegradationLevel::DynamicProgram,
            PolicyKind::OnDemand => DegradationLevel::OnDemandOnly,
        }
    }

    fn tag(self) -> u8 {
        match self {
            PolicyKind::Stochastic => 0,
            PolicyKind::Deterministic => 1,
            PolicyKind::DynamicProgram => 2,
            PolicyKind::OnDemand => 3,
        }
    }
}

/// How far down the fallback ladder the answer came from. Ordered:
/// `Full < Deterministic < DynamicProgram < OnDemandOnly` — a larger level
/// means more degradation (and never a *better* plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DegradationLevel {
    /// The requested stochastic model solved to (budgeted) optimality.
    Full,
    /// Deterministic MILP at the schedule prices.
    Deterministic,
    /// Wagner–Whitin dynamic program.
    DynamicProgram,
    /// The always-feasible on-demand construction.
    OnDemandOnly,
}

impl DegradationLevel {
    pub const ALL: [DegradationLevel; 4] = [
        DegradationLevel::Full,
        DegradationLevel::Deterministic,
        DegradationLevel::DynamicProgram,
        DegradationLevel::OnDemandOnly,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            DegradationLevel::Full => "full",
            DegradationLevel::Deterministic => "deterministic",
            DegradationLevel::DynamicProgram => "dynamic-program",
            DegradationLevel::OnDemandOnly => "on-demand-only",
        }
    }
}

/// One tenant's planning request: the full problem instance plus service
/// metadata (identity, deadline, seed).
#[derive(Debug, Clone)]
pub struct PlanRequest {
    /// Tenant/application identity — reporting only, not part of the cache
    /// key (two tenants with identical problems share a cache entry).
    pub app_id: String,
    /// VM class label (e.g. `"m1.small"`) — reporting only.
    pub vm_class: String,
    /// Per-slot prices and demand; `schedule.horizon()` is the plan length.
    pub schedule: CostSchedule,
    pub params: PlanningParams,
    /// Price scenario tree; required for [`PolicyKind::Stochastic`], unused
    /// below it.
    pub tree: Option<ScenarioTree>,
    pub policy: PolicyKind,
    /// Wall-clock budget for the whole solve, measured from the moment a
    /// worker picks the request up.
    pub deadline: Duration,
    /// Request seed — reporting/reproducibility metadata. The solve itself
    /// is deterministic in the problem, so the seed does not feed the
    /// cache key.
    pub seed: u64,
}

impl PlanRequest {
    pub fn horizon(&self) -> usize {
        self.schedule.horizon()
    }

    /// Canonical problem fingerprint: schedule + params + tree
    /// ([`fingerprint_instance`]) mixed with the policy kind. Identity
    /// fields (`app_id`, `seed`) and the deadline are deliberately
    /// excluded — they do not change the optimal plan.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(fingerprint_instance(&self.schedule, &self.params, self.tree.as_ref()));
        h.write_u8(self.policy.tag());
        h.finish()
    }

    /// Derive the interruption-aware re-plan for the tail `[from, T)` of
    /// this request's horizon: same billing rates and demand, a fresh
    /// per-slot `compute` price vector (the caller's new bid), the
    /// surviving `inventory` as the initial stock, and any shipping
    /// `backlog` folded into the first tail slot's demand so the re-plan
    /// must clear it.
    ///
    /// The scenario tree — rooted at the original slot 0 — no longer
    /// describes the tail, so it is dropped and a [`PolicyKind::Stochastic`]
    /// request degrades to [`PolicyKind::Deterministic`]; every other
    /// policy is kept.
    pub fn replan_tail(
        &self,
        from: usize,
        inventory: f64,
        compute: Vec<f64>,
        backlog: f64,
    ) -> PlanRequest {
        let t = self.horizon();
        assert!(from < t, "replan_tail: from={from} is past the horizon {t}");
        assert_eq!(compute.len(), t - from, "replan_tail: bid vector must cover the tail");
        let mut schedule = CostSchedule {
            compute,
            inventory: self.schedule.inventory[from..].to_vec(),
            gen: self.schedule.gen[from..].to_vec(),
            out: self.schedule.out[from..].to_vec(),
            demand: self.schedule.demand[from..].to_vec(),
        };
        schedule.demand[0] += backlog.max(0.0);
        let mut params = self.params;
        params.initial_inventory = inventory.max(0.0);
        let policy = match self.policy {
            PolicyKind::Stochastic => PolicyKind::Deterministic,
            other => other,
        };
        PlanRequest {
            app_id: self.app_id.clone(),
            vm_class: self.vm_class.clone(),
            schedule,
            params,
            tree: None,
            policy,
            deadline: self.deadline,
            seed: self.seed,
        }
    }
}

/// What happened on one rung of the ladder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RungOutcome {
    /// Solved to (budgeted) optimality; the answer comes from this rung.
    Solved,
    /// The budget ran out but the rung had a feasible incumbent, which is
    /// the answer.
    Incumbent(StopReason),
    /// The budget ran out with nothing usable; fell through.
    Exhausted(StopReason),
    /// The rung does not apply to this request (reason attached).
    Skipped(&'static str),
    /// The rung's solver failed independent of the budget.
    Failed(String),
}

impl RungOutcome {
    /// Compact `kind:detail` string used in `ladder_step` trace events.
    pub fn summary(&self) -> String {
        match self {
            RungOutcome::Solved => "solved".to_string(),
            RungOutcome::Incumbent(reason) => format!("incumbent:{reason}"),
            RungOutcome::Exhausted(reason) => format!("exhausted:{reason}"),
            RungOutcome::Skipped(why) => format!("skipped:{why}"),
            RungOutcome::Failed(msg) => format!("failed:{msg}"),
        }
    }
}

/// One ladder rung's record in the solve trace.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    pub level: DegradationLevel,
    pub outcome: RungOutcome,
    pub elapsed: Duration,
}

/// The service's answer: a demand-feasible [`RentalPlan`] plus where on
/// the ladder it came from — or, when the pre-solve audit gate statically
/// proved the instance infeasible, `plan: None` with the
/// [`InfeasibilityProof`] in `rejection`. Exactly one of `plan` and
/// `rejection` is `Some`.
#[derive(Debug, Clone)]
pub struct PlanResponse {
    pub app_id: String,
    /// Cache key the request hashed to.
    pub fingerprint: u64,
    /// The plan; `None` when the request was rejected by the audit gate.
    pub plan: Option<RentalPlan>,
    /// Static infeasibility proof when the audit gate rejected the
    /// request (no solve was attempted).
    pub rejection: Option<InfeasibilityProof>,
    /// Ladder rung the answer came from; for a rejected request this is
    /// the rung the request *would* have started at.
    pub degradation: DegradationLevel,
    /// Per-rung solve trace (empty on a cache hit or a rejection).
    pub trace: Vec<TraceEntry>,
    pub cache_hit: bool,
    /// Wall-clock time from worker pickup to response.
    pub latency: Duration,
    pub deadline_met: bool,
}

impl PlanResponse {
    /// The plan, panicking with the audit proof when the request was
    /// rejected — the ergonomic accessor for callers that know their
    /// instance is feasible.
    pub fn expect_plan(&self) -> &RentalPlan {
        match (&self.plan, &self.rejection) {
            (Some(p), _) => p,
            (None, Some(proof)) => panic!("request was rejected as infeasible: {proof}"),
            (None, None) => panic!("response carries neither plan nor rejection"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_spotmarket::CostRates;

    fn request() -> PlanRequest {
        let rates = CostRates::ec2_2011();
        PlanRequest {
            app_id: "tenant".to_string(),
            vm_class: "c1.medium".to_string(),
            schedule: CostSchedule::ec2(vec![0.06; 6], vec![0.4, 0.5, 0.6, 0.7, 0.8, 0.9], &rates),
            params: PlanningParams::default(),
            tree: None,
            policy: PolicyKind::Stochastic,
            deadline: Duration::from_secs(1),
            seed: 7,
        }
    }

    #[test]
    fn replan_tail_slices_and_carries_state() {
        let req = request();
        let tail = req.replan_tail(2, 1.25, vec![0.09; 4], 0.3);
        assert_eq!(tail.horizon(), 4);
        assert_eq!(tail.schedule.compute, vec![0.09; 4]);
        assert!((tail.schedule.demand[0] - (0.6 + 0.3)).abs() < 1e-12, "backlog folded in");
        assert_eq!(&tail.schedule.demand[1..], &[0.7, 0.8, 0.9]);
        assert!((tail.params.initial_inventory - 1.25).abs() < 1e-12);
        assert_eq!(tail.policy, PolicyKind::Deterministic, "stochastic degrades without a tree");
        assert!(tail.tree.is_none());
        assert_eq!(tail.app_id, "tenant");
    }

    #[test]
    fn replan_tail_keeps_non_stochastic_policy() {
        let mut req = request();
        req.policy = PolicyKind::DynamicProgram;
        let tail = req.replan_tail(5, 0.0, vec![0.1], 0.0);
        assert_eq!(tail.policy, PolicyKind::DynamicProgram);
        assert_eq!(tail.horizon(), 1);
        assert!((tail.schedule.demand[0] - 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "past the horizon")]
    fn replan_tail_rejects_exhausted_horizon() {
        request().replan_tail(6, 0.0, vec![], 0.0);
    }
}
