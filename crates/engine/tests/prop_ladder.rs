//! Property tests of the degradation ladder: every rung returns a
//! demand-feasible plan, and walking down the ladder never *improves* the
//! plan (cost is monotone non-decreasing with the degradation level).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrp_core::{CostSchedule, PlanningParams, ScenarioTree};
use rrp_engine::{run_ladder, DegradationLevel, PlanRequest, PolicyKind, RungOutcome};
use rrp_milp::{MilpOptions, SolveBudget};
use rrp_spotmarket::{CostRates, EmpiricalDist};

/// A random uncapacitated instance with a *degenerate* (single price state
/// per stage) tree whose price equals the schedule's compute price. On such
/// instances SRRP, DRRP and Wagner–Whitin share one optimum, which makes
/// the ladder's cost ordering exactly checkable.
fn instance(horizon: usize, seed: u64) -> (CostSchedule, PlanningParams, ScenarioTree) {
    let mut rng = StdRng::seed_from_u64(seed);
    let price = rng.gen_range(0.03..0.15);
    let demand: Vec<f64> = (0..horizon)
        .map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(0.05..1.2) })
        .collect();
    let schedule = CostSchedule::ec2(vec![price; horizon], demand, &CostRates::ec2_2011());
    let params = PlanningParams {
        initial_inventory: if rng.gen_bool(0.3) { rng.gen_range(0.0..0.5) } else { 0.0 },
        capacity: None,
    };
    let dist = EmpiricalDist::from_parts(vec![price], vec![1.0]);
    let tree = ScenarioTree::from_stage_distributions(&vec![dist; horizon], 100_000);
    (schedule, params, tree)
}

fn request(
    policy: PolicyKind,
    schedule: &CostSchedule,
    params: &PlanningParams,
    tree: &ScenarioTree,
) -> PlanRequest {
    PlanRequest {
        app_id: "prop".into(),
        vm_class: "m1.small".into(),
        schedule: schedule.clone(),
        params: *params,
        tree: matches!(policy, PolicyKind::Stochastic).then(|| tree.clone()),
        policy,
        deadline: std::time::Duration::from_secs(60),
        seed: 0,
    }
}

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Stochastic,
    PolicyKind::Deterministic,
    PolicyKind::DynamicProgram,
    PolicyKind::OnDemand,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every starting rung produces a demand-feasible plan at its own
    /// level when the budget is unlimited.
    #[test]
    fn every_level_returns_a_feasible_plan((horizon, seed) in (3usize..7, any::<u64>())) {
        let (schedule, params, tree) = instance(horizon, seed);
        for policy in POLICIES {
            let req = request(policy, &schedule, &params, &tree);
            let out = run_ladder(&req, &MilpOptions::default(), &SolveBudget::unlimited());
            prop_assert_eq!(out.level, policy.start_level());
            prop_assert!(
                out.plan.is_feasible(&schedule, &params, 1e-6),
                "{:?}: infeasible plan", policy
            );
            prop_assert!(out.fully_solved);
            prop_assert_eq!(&out.trace.last().unwrap().outcome, &RungOutcome::Solved);
        }
    }

    /// Cost is monotone non-decreasing as the answer comes from further
    /// down the ladder: the three optimisers agree on the degenerate-tree
    /// optimum and the on-demand floor can only be worse.
    #[test]
    fn ladder_cost_is_monotone_in_degradation((horizon, seed) in (3usize..7, any::<u64>())) {
        let (schedule, params, tree) = instance(horizon, seed);
        let costs: Vec<f64> = POLICIES
            .iter()
            .map(|&policy| {
                let req = request(policy, &schedule, &params, &tree);
                run_ladder(&req, &MilpOptions::default(), &SolveBudget::unlimited())
                    .plan
                    .objective
            })
            .collect();
        for w in costs.windows(2) {
            prop_assert!(
                w[0] <= w[1] + 1e-6 * (1.0 + w[1].abs()),
                "ladder got cheaper going down: {:?}", costs
            );
        }
    }

    /// The Deterministic rung hands back its root basis exactly when it
    /// answered from branch & bound: a capacitated answer carries one for
    /// the engine's side-table, an answer from the exact DP carries none.
    #[test]
    fn root_basis_only_from_branch_and_bound((horizon, seed) in (3usize..7, any::<u64>())) {
        let (schedule, params, tree) = instance(horizon, seed);
        let peak = schedule.demand.iter().fold(0.0f64, |m, &d| m.max(d));
        let capped = PlanningParams { capacity: Some(1.2 * peak + 0.1), ..params };
        let (opts, budget) = (MilpOptions::default(), SolveBudget::unlimited());
        let req = request(PolicyKind::Deterministic, &schedule, &capped, &tree);
        let out = run_ladder(&req, &opts, &budget);
        prop_assert_eq!(out.level, DegradationLevel::Deterministic);
        prop_assert_eq!(&out.trace.last().unwrap().outcome, &RungOutcome::Solved);
        prop_assert!(out.root_basis.is_some(), "capacitated B&B answer lost its root basis");
        for policy in [PolicyKind::Deterministic, PolicyKind::DynamicProgram] {
            let out = run_ladder(&request(policy, &schedule, &params, &tree), &opts, &budget);
            prop_assert!(out.fully_solved);
            prop_assert!(out.root_basis.is_none(), "{:?}: a DP answer carries no basis", policy);
        }
    }

    /// A starved budget still yields a feasible answer — from a strictly
    /// lower rung than requested.
    #[test]
    fn starved_budget_still_feasible((horizon, seed) in (3usize..7, any::<u64>())) {
        let (schedule, params, tree) = instance(horizon, seed);
        let req = request(PolicyKind::Stochastic, &schedule, &params, &tree);
        let out = run_ladder(&req, &MilpOptions::default(), &SolveBudget::with_node_limit(0));
        prop_assert!(out.level > DegradationLevel::Full);
        prop_assert!(out.plan.is_feasible(&schedule, &params, 1e-6));
        prop_assert!(!out.fully_solved);
    }
}
