//! Exact routing agrees with branch & bound: on random uncapacitated DRRP
//! instances the engine's `Deterministic` answer — which comes from the
//! Wagner–Whitin DP, not the MILP — is feasible, is priced at the objective
//! it reports, and is never worse than `DrrpProblem::solve_milp`'s optimum
//! (and no better than that optimum's 1e-6 relative gap allows). Plans may
//! differ on ties; costs may not.

use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrp_core::{CostSchedule, DrrpProblem, PlanningParams};
use rrp_engine::{DegradationLevel, Engine, PlanRequest, PolicyKind, RungOutcome};
use rrp_milp::MilpOptions;
use rrp_spotmarket::CostRates;

/// A random uncapacitated instance: per-slot prices, about one slot in five
/// with zero demand, and initial inventory in seven cases of ten.
fn instance(horizon: usize, seed: u64) -> (CostSchedule, PlanningParams) {
    let mut rng = StdRng::seed_from_u64(seed);
    let compute: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.03..0.3)).collect();
    let demand: Vec<f64> = (0..horizon)
        .map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(0.05..1.2) })
        .collect();
    let schedule = CostSchedule::ec2(compute, demand, &CostRates::ec2_2011());
    let initial_inventory = if rng.gen_bool(0.7) { rng.gen_range(0.01..1.5) } else { 0.0 };
    (schedule, PlanningParams { initial_inventory, capacity: None })
}

fn request(schedule: &CostSchedule, params: &PlanningParams) -> PlanRequest {
    PlanRequest {
        app_id: "exact".into(),
        vm_class: "m1.small".into(),
        schedule: schedule.clone(),
        params: *params,
        tree: None,
        policy: PolicyKind::Deterministic,
        deadline: Duration::from_secs(60),
        seed: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn deterministic_answer_matches_branch_and_bound(
        (horizon, seed) in (1usize..49, any::<u64>())
    ) {
        let (schedule, params) = instance(horizon, seed);
        let resp = Engine::new(1).submit(request(&schedule, &params)).wait();
        prop_assert_eq!(resp.degradation, DegradationLevel::Deterministic);
        prop_assert_eq!(resp.trace.len(), 1);
        prop_assert_eq!(&resp.trace[0].outcome, &RungOutcome::Solved);
        let plan = resp.expect_plan();
        prop_assert!(plan.is_feasible(&schedule, &params, 1e-6), "infeasible plan");

        let problem = DrrpProblem::new(schedule, params);
        let priced = problem.cost_of(plan);
        prop_assert!(
            (priced - plan.objective).abs() <= 1e-9 * (1.0 + priced.abs()),
            "plan prices at {} but reports {}", priced, plan.objective
        );
        let milp = problem
            .solve_milp(&MilpOptions::default())
            .expect("uncapacitated DRRP solves to optimality")
            .objective;
        prop_assert!(
            plan.objective <= milp + 1e-9 * (1.0 + milp.abs()),
            "DP {} worse than branch & bound {}", plan.objective, milp
        );
        prop_assert!(
            milp - plan.objective <= 1e-6 * milp.abs() + 1e-9,
            "DP {} beats branch & bound {} by more than its gap", plan.objective, milp
        );
    }
}
