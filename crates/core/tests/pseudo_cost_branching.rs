//! Pseudo-cost branching changes the search, never the answer: a seeded
//! differential test over 240 random capacitated DRRP instances (horizons
//! 4–20, positive initial stock, zero-demand slots), each solved on a
//! ladder of capacities from the `capacity_shortfall` boundary up to the
//! total demand. On every rung:
//!
//! * the `PseudoCost` objective equals the `MostFractional` one within the
//!   solver's 1e-6 relative gap;
//! * once the capacity covers the total demand it cannot bind, and the
//!   answer equals Wagner–Whitin on the uncapacitated instance;
//! * the cost does not rise as the capacity grows (a larger capacity
//!   keeps every plan of a smaller one feasible).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrp_core::drrp::capacity_shortfall;
use rrp_core::{wagner_whitin, CostSchedule, DrrpProblem, PlanningParams};
use rrp_milp::{Branching, MilpOptions};
use rrp_spotmarket::CostRates;

const INSTANCES: u64 = 240;

/// Demand with zero-demand slots and a positive initial stock of up to
/// one slot's worth.
fn instance(rng: &mut StdRng) -> (CostSchedule, f64) {
    let horizon = rng.gen_range(4..=20usize);
    let demand: Vec<f64> = (0..horizon)
        .map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(0.05..1.5) })
        .collect();
    let epsilon = rng.gen_range(0.01..1.0);
    let compute = (0..horizon).map(|_| rng.gen_range(0.02..0.2)).collect();
    (CostSchedule::ec2(compute, demand, &CostRates::ec2_2011()), epsilon)
}

/// The least capacity under which renting in every slot covers every
/// prefix of the demand: the `capacity_shortfall` boundary.
fn tight_capacity(demand: &[f64], epsilon: f64) -> f64 {
    let mut through = 0.0;
    let mut tight = 0.0f64;
    for (t, d) in demand.iter().enumerate() {
        through += d;
        tight = tight.max((through - epsilon) / (t + 1) as f64);
    }
    tight
}

fn solve(problem: &DrrpProblem, branching: Branching) -> f64 {
    let opts = MilpOptions { branching, ..MilpOptions::default() };
    problem.solve_milp(&opts).expect("a capacity past the boundary is feasible").objective
}

/// Two answers each within the solver's default gap (1e-6 relative, 1e-9
/// absolute) of the optimum agree to twice that.
fn assert_same(a: f64, b: f64, what: &str) {
    let tol = 2.0 * (1e-6 * a.abs().max(b.abs()) + 1e-9);
    assert!((a - b).abs() <= tol, "{what}: {a} vs {b}");
}

#[test]
fn pseudo_cost_answers_equal_most_fractional_wagner_whitin_and_fall_with_capacity() {
    let (mut binding, mut solves) = (0usize, 0usize);
    for seed in 0..INSTANCES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (schedule, epsilon) = instance(&mut rng);
        let total: f64 = schedule.demand.iter().sum();
        let tight = tight_capacity(&schedule.demand, epsilon).max(1e-3);
        let uncapacitated = PlanningParams { initial_inventory: epsilon, capacity: None };
        let ww = wagner_whitin::solve(&schedule, &uncapacitated).objective;
        // the boundary itself (a hair above it), two rungs between, and the
        // total demand, past which the capacity cannot bind
        let top = total.max(tight * (1.0 + 1e-9));
        let rungs =
            [tight * (1.0 + 1e-9), tight + 0.1 * (top - tight), tight + 0.4 * (top - tight)];
        let mut previous = f64::INFINITY;
        for capacity in rungs.into_iter().chain([top]) {
            let what = format!("seed {seed}, horizon {}, capacity {capacity}", schedule.horizon());
            let params = PlanningParams { initial_inventory: epsilon, capacity: Some(capacity) };
            assert!(capacity_shortfall(&schedule, &params).is_none(), "{what}: infeasible rung");
            let problem = DrrpProblem::new(schedule.clone(), params);
            let pseudo = solve(&problem, Branching::PseudoCost);
            let fractional = solve(&problem, Branching::MostFractional);
            solves += 2;
            assert_same(pseudo, fractional, &format!("{what}: pseudo-cost vs most-fractional"));
            assert!(
                pseudo <= previous + 2e-6 * previous.abs() + 2e-9,
                "{what}: cost rose with capacity, {previous} → {pseudo}"
            );
            binding += usize::from(pseudo > ww + 1e-6 * ww.abs() + 1e-9);
            previous = pseudo;
        }
        assert_same(previous, ww, &format!("seed {seed}: uncapacitated rung vs Wagner–Whitin"));
    }
    assert_eq!(solves, 8 * INSTANCES as usize);
    // the ladder must exercise capacities that bind, or the search is trivial
    assert!(binding >= INSTANCES as usize, "only {binding} rungs bound the capacity");
}
