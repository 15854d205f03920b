//! Warm-started branch & bound (the default) and a cold solver
//! (`warm_start: false`) must be *indistinguishable* in what they compute:
//! identical optimal objectives on the paper's Fig. 10–12 style evaluation
//! instances and agreement with the exact Wagner–Whitin DP on
//! uncapacitated instances. The warm dual-simplex path is a pure
//! performance device — any divergence here is a soundness
//! bug, not a tuning issue.

use rrp_core::demand::DemandModel;
use rrp_core::{CostSchedule, DrrpProblem, PlanningParams};
use rrp_milp::MilpOptions;
use rrp_spotmarket::{CostRates, VmClass};

/// The Fig. 10 evaluation setup: paper-default demand (N(0.4, 0.2) GB/h
/// truncated positive) against a class's flat on-demand price.
fn paper_schedule(class: VmClass, horizon: usize, seed: u64) -> CostSchedule {
    let demand = DemandModel::paper_default().sample(horizon, seed);
    let compute = vec![class.on_demand_price(); horizon];
    CostSchedule::ec2(compute, demand, &CostRates::ec2_2011())
}

fn cold_opts() -> MilpOptions {
    MilpOptions { warm_start: false, ..Default::default() }
}

/// Relative agreement to the strictest tolerance that survives two solvers
/// taking different pivot paths to the same vertex.
fn assert_close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "{what}: {a} vs {b}");
}

#[test]
fn warm_and_cold_match_on_evaluation_classes() {
    for class in VmClass::EVALUATION {
        for day in 0..2u64 {
            let s = paper_schedule(class, 12, 4242 + day);
            let p = DrrpProblem::new(s, PlanningParams::default());
            let warm = p
                .solve_milp(&MilpOptions::default())
                .expect("evaluation instance solves to optimality");
            let cold = p.solve_milp(&cold_opts()).expect("cold solve of the same instance");
            assert_close(
                warm.objective,
                cold.objective,
                &format!("{} day {day} warm vs cold", class.name()),
            );
            // …and both must match the exact DP (instance is uncapacitated)
            let ww = p.solve().expect("Wagner-Whitin on uncapacitated instance");
            assert!(
                (warm.objective - ww.objective).abs() <= 1e-6 * (1.0 + ww.objective.abs()),
                "{} day {day}: milp {} vs wagner-whitin {}",
                class.name(),
                warm.objective,
                ww.objective
            );
        }
    }
}

#[test]
fn warm_and_cold_match_on_capacitated_instances() {
    // capacity clipped to ~1.2× peak demand binds without infeasibility,
    // forcing real branching (the regime the warm dual simplex targets)
    for day in 0..2u64 {
        let s = paper_schedule(VmClass::M1Large, 12, 777 + day);
        let peak = s.demand.iter().cloned().fold(0.0_f64, f64::max);
        let params = PlanningParams { capacity: Some(peak * 1.2), ..Default::default() };
        let p = DrrpProblem::new(s, params);
        let warm =
            p.solve_milp(&MilpOptions::default()).expect("capacitated instance stays feasible");
        let cold = p.solve_milp(&cold_opts()).expect("cold capacitated solve");
        assert_close(warm.objective, cold.objective, &format!("capacitated day {day}"));
    }
}

#[test]
fn warm_search_takes_the_warm_path_and_matches_cold() {
    let s = paper_schedule(VmClass::C1Medium, 10, 31);
    let peak = s.demand.iter().cloned().fold(0.0_f64, f64::max);
    let params = PlanningParams { capacity: Some(peak * 1.3), ..Default::default() };
    let (milp, _) = DrrpProblem::new(s, params).to_milp();
    let warm = milp.solve(&MilpOptions::default()).expect("warm solve");
    let cold = milp.solve(&cold_opts()).expect("cold solve");
    assert_close(warm.objective, cold.objective, "warm vs cold");
    // the warm search really did take the warm path (not all fallbacks)
    assert!(warm.lp_stats.warm_hits > 0, "search on a branching instance should record warm hits");
}
