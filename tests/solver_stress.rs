//! Stress and failure-injection tests spanning the solver stack: larger
//! randomized instances, degenerate inputs, and limit handling.

use rand::{Rng, SeedableRng};
use rrp_core::demand::DemandModel;
use rrp_core::sampling::stage_distributions;
use rrp_core::{
    wagner_whitin, CostSchedule, DrrpProblem, PlanningParams, ScenarioTree, SrrpProblem,
};
use rrp_lp::{Cmp, Model, Sense, Status};
use rrp_milp::{MilpOptions, MilpProblem};
use rrp_spotmarket::{CostRates, EmpiricalDist};

#[test]
fn week_long_drrp_solves_and_verifies() {
    let rates = CostRates::ec2_2011();
    let demand = DemandModel::paper_default().sample(168, 11);
    let prices: Vec<f64> =
        (0..168).map(|t| 0.18 + 0.08 * ((t as f64 * 0.37).sin().abs())).collect();
    let schedule = CostSchedule::ec2(prices, demand, &rates);
    let params = PlanningParams::default();
    let plan = wagner_whitin::solve(&schedule, &params);
    assert!(plan.is_feasible(&schedule, &params, 1e-7));
    // spot check against MILP on the first day
    let day =
        CostSchedule::ec2(schedule.compute[..24].to_vec(), schedule.demand[..24].to_vec(), &rates);
    let p = DrrpProblem::new(day.clone(), params);
    let milp = p.solve_milp(&MilpOptions::default()).unwrap();
    let ww = wagner_whitin::solve(&day, &params);
    assert!((milp.objective - ww.objective).abs() < 1e-6);
}

#[test]
fn milp_node_limit_degrades_gracefully() {
    // Harsh node limits must return either an incumbent (with honest gap)
    // or a clean NodeLimit error — never panic or loop.
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let mut m = Model::new(Sense::Maximize);
    let n = 20;
    let vars: Vec<_> = (0..n)
        .map(|i| {
            let w: f64 = rng.gen_range(10.0..20.0);
            m.add_var(0.0, 1.0, w + rng.gen_range(-0.5..0.5), &format!("x{i}"))
        })
        .collect();
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(10.0..20.0)).collect();
    let terms: Vec<_> = vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect();
    let cap: f64 = weights.iter().sum::<f64>() * 0.5;
    m.add_con(&terms, Cmp::Le, cap);
    let p = MilpProblem::new(m, vars);
    for limit in [1usize, 5, 50, 500] {
        match p.solve(&MilpOptions { node_limit: limit, ..Default::default() }) {
            Ok(sol) => {
                assert!(sol.gap >= -1e-9);
                assert!(sol.nodes <= limit + 64, "node accounting: {} > {}", sol.nodes, limit);
            }
            Err(e) => assert_eq!(e, rrp_milp::MilpStatus::NodeLimit),
        }
    }
}

#[test]
fn srrp_with_zero_demand_stages_is_free() {
    let rates = CostRates::ec2_2011();
    let schedule = CostSchedule::ec2(vec![0.0; 4], vec![0.0; 4], &rates);
    let dist = EmpiricalDist::from_parts(vec![0.05, 0.1], vec![0.5, 0.5]);
    let tree = ScenarioTree::from_stage_distributions(&vec![dist; 4], 10_000);
    let srrp = SrrpProblem::new(schedule, PlanningParams::default(), tree);
    let plan = srrp.solve_milp(&MilpOptions::default()).unwrap();
    assert!(plan.expected_cost.abs() < 1e-9, "cost {}", plan.expected_cost);
    assert!(plan.chi[1..].iter().all(|&c| !c));
}

#[test]
fn srrp_initial_inventory_covers_everything() {
    let rates = CostRates::ec2_2011();
    let schedule = CostSchedule::ec2(vec![0.0; 3], vec![0.3; 3], &rates);
    let dist = EmpiricalDist::from_parts(vec![0.05, 0.1], vec![0.5, 0.5]);
    let tree = ScenarioTree::from_stage_distributions(&vec![dist; 3], 10_000);
    let srrp = SrrpProblem::new(
        schedule.clone(),
        PlanningParams { initial_inventory: 2.0, capacity: None },
        tree,
    );
    let plan = srrp.solve_milp(&MilpOptions::default()).unwrap();
    // no rentals needed; only holding + transfer-out costs remain
    assert!(plan.chi[1..].iter().all(|&c| !c), "{:?}", &plan.chi[..4]);
    let holding: f64 = schedule.inventory[0] * (1.7 + 1.4 + 1.1);
    let expect = holding + schedule.transfer_out_constant();
    assert!(
        (plan.expected_cost - expect).abs() < 1e-6,
        "cost {} vs {}",
        plan.expected_cost,
        expect
    );
}

#[test]
fn infeasible_lp_from_contradictory_rows_detected() {
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var(0.0, 10.0, 1.0, "x");
    let y = m.add_var(0.0, 10.0, 1.0, "y");
    m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Ge, 15.0);
    m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Le, 5.0);
    // no single row or bound is contradictory: only the simplex can see it
    assert_eq!(m.solve().unwrap_err(), Status::Infeasible);
}

#[test]
fn stage_distributions_cover_extreme_bids() {
    let base = EmpiricalDist::from_history(&[0.05, 0.06, 0.07, 0.06, 0.05], 3);
    // hopeless bid: pure on-demand distribution everywhere
    let lo = stage_distributions(&base, &[0.0; 3], 0.2);
    for d in &lo {
        assert_eq!(d.values(), &[0.2]);
    }
    // generous bid: identity
    let hi = stage_distributions(&base, &[10.0; 3], 0.2);
    for d in &hi {
        assert!((d.mean() - base.mean()).abs() < 1e-12);
    }
}

#[test]
fn random_capacitated_drrp_feasibility() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let rates = CostRates::ec2_2011();
    for _ in 0..10 {
        let t = 3 + rng.gen_range(0..5);
        let demand: Vec<f64> = (0..t).map(|_| rng.gen_range(0.1..1.0)).collect();
        let max_d = demand.iter().cloned().fold(0.0, f64::max);
        let cap = max_d + rng.gen_range(0.1..1.0);
        let schedule =
            CostSchedule::ec2((0..t).map(|_| rng.gen_range(0.05..0.5)).collect(), demand, &rates);
        let params = PlanningParams { initial_inventory: 0.0, capacity: Some(cap) };
        let p = DrrpProblem::new(schedule.clone(), params);
        let plan = p.solve_milp(&MilpOptions::default()).unwrap();
        assert!(plan.is_feasible(&schedule, &params, 1e-6));
        assert!(plan.alpha.iter().all(|&a| a <= cap + 1e-6));
    }
}
