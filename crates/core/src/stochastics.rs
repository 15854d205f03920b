//! Stochastic-programming quality measures for SRRP: the expected value of
//! perfect information (EVPI) and the value of the stochastic solution
//! (VSS). Together they bracket how much the recourse model is worth:
//!
//! ```text
//! WS ≤ SRRP* ≤ EEV
//! EVPI = SRRP* − WS      (what clairvoyance would still buy)
//! VSS  = EEV − SRRP*     (what the recourse model buys over mean-value DRRP)
//! ```
//!
//! `WS` (wait-and-see) solves one deterministic problem per scenario and
//! averages; `EEV` evaluates the mean-value DRRP plan's committed rental
//! schedule against every scenario. Demand is deterministic in this model,
//! so the deterministic plan stays feasible in every scenario and only its
//! compute bill varies.

use rrp_milp::{MilpOptions, MilpStatus};

use crate::srrp::SrrpProblem;
use crate::wagner_whitin;

/// All four quantities at once.
#[derive(Debug, Clone, Copy)]
pub struct StochasticValue {
    /// Optimal expected cost of the recourse model (`SRRP*`).
    pub srrp: f64,
    /// Wait-and-see bound: expectation of per-scenario optima.
    pub wait_and_see: f64,
    /// Expected cost of the committed mean-value (DRRP) plan.
    pub eev: f64,
    /// `srrp − wait_and_see` ≥ 0.
    pub evpi: f64,
    /// `eev − srrp` ≥ 0.
    pub vss: f64,
}

/// Compute WS / EEV / EVPI / VSS for an uncapacitated SRRP instance.
pub fn stochastic_value(
    problem: &SrrpProblem,
    opts: &MilpOptions,
) -> Result<StochasticValue, MilpStatus> {
    assert!(
        problem.params.capacity.is_none(),
        "stochastic_value supports the paper's uncapacitated setting"
    );
    let srrp = problem.solve_milp(opts)?.expected_cost;
    let ws = wait_and_see(problem);
    let eev = expected_cost_of_mean_value_plan(problem);
    Ok(StochasticValue { srrp, wait_and_see: ws, eev, evpi: srrp - ws, vss: eev - srrp })
}

/// Wait-and-see: for every scenario (root-to-leaf price path) solve the
/// deterministic problem at those prices and average by scenario
/// probability.
pub fn wait_and_see(problem: &SrrpProblem) -> f64 {
    let tree = &problem.tree;
    let s = &problem.schedule;
    let mut acc = 0.0;
    for leaf in tree.leaves() {
        let path = tree.path(leaf);
        let prices: Vec<f64> = path.iter().map(|&v| tree.node(v).price).collect();
        let mut schedule = s.clone();
        schedule.compute = prices;
        let plan = wagner_whitin::solve(&schedule, &problem.params);
        acc += tree.node(leaf).prob * plan.objective;
    }
    acc
}

/// Expected cost of the plan DRRP produces at the per-stage *expected*
/// prices, committed across every scenario (rentals happen on the planned
/// slots; each scenario bills them at its own vertex price).
pub fn expected_cost_of_mean_value_plan(problem: &SrrpProblem) -> f64 {
    let tree = &problem.tree;
    let s = &problem.schedule;
    let t_max = s.horizon();
    // per-stage expected price
    let mut exp_price = vec![0.0f64; t_max];
    for v in 1..tree.len() {
        let n = tree.node(v);
        exp_price[n.stage - 1] += n.prob * n.price;
    }
    let mut mv_schedule = s.clone();
    mv_schedule.compute = exp_price.clone();
    let plan = wagner_whitin::solve(&mv_schedule, &problem.params);
    // committed plan: χ_t fixed; expected compute bill = Σ_t χ_t·E[price_t];
    // inventory/transfer terms are deterministic given the plan.
    let mut cost = s.transfer_out_constant();
    for t in 0..t_max {
        if plan.chi[t] {
            cost += exp_price[t];
        }
        cost += s.gen[t] * plan.alpha[t] + s.inventory[t] * plan.beta[t];
    }
    cost
}

/// Expected cost of an arbitrary committed `(alpha, chi)` slot schedule
/// under the tree's price distribution (helper for ablations).
pub fn expected_cost_of_committed_plan(problem: &SrrpProblem, alpha: &[f64], chi: &[bool]) -> f64 {
    let tree = &problem.tree;
    let s = &problem.schedule;
    let t_max = s.horizon();
    assert_eq!(alpha.len(), t_max);
    assert_eq!(chi.len(), t_max);
    let mut exp_price = vec![0.0f64; t_max];
    for v in 1..tree.len() {
        let n = tree.node(v);
        exp_price[n.stage - 1] += n.prob * n.price;
    }
    let mut cost = s.transfer_out_constant();
    let mut inv = problem.params.initial_inventory;
    for t in 0..t_max {
        if chi[t] {
            cost += exp_price[t];
        }
        inv = (inv + alpha[t] - s.demand[t]).max(0.0);
        cost += s.gen[t] * alpha[t] + s.inventory[t] * inv;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{CostSchedule, PlanningParams};
    use crate::scenario::ScenarioTree;
    use rrp_spotmarket::{CostRates, EmpiricalDist};

    fn problem(stages: usize, values: &[f64], probs: &[f64], demand: f64) -> SrrpProblem {
        let d = EmpiricalDist::from_parts(values.to_vec(), probs.to_vec());
        let tree = ScenarioTree::from_stage_distributions(&vec![d; stages], 100_000);
        let schedule =
            CostSchedule::ec2(vec![0.0; stages], vec![demand; stages], &CostRates::ec2_2011());
        SrrpProblem::new(schedule, PlanningParams::default(), tree)
    }

    #[test]
    fn inequality_chain_holds() {
        let p = problem(4, &[0.05, 0.20], &[0.6, 0.4], 0.5);
        let v = stochastic_value(&p, &MilpOptions::default()).unwrap();
        assert!(v.wait_and_see <= v.srrp + 1e-7, "WS {} > SRRP {}", v.wait_and_see, v.srrp);
        assert!(v.srrp <= v.eev + 1e-7, "SRRP {} > EEV {}", v.srrp, v.eev);
        assert!(v.evpi >= -1e-7);
        assert!(v.vss >= -1e-7);
    }

    #[test]
    fn degenerate_tree_collapses_all_measures() {
        // a single price state: no uncertainty → WS = SRRP = EEV
        let p = problem(3, &[0.06], &[1.0], 0.4);
        let v = stochastic_value(&p, &MilpOptions::default()).unwrap();
        assert!((v.srrp - v.wait_and_see).abs() < 1e-7, "{v:?}");
        assert!((v.srrp - v.eev).abs() < 1e-7, "{v:?}");
        assert!(v.evpi.abs() < 1e-7 && v.vss.abs() < 1e-7);
    }

    #[test]
    fn wide_price_spread_creates_positive_evpi() {
        // big spread between cheap and expensive states: clairvoyance pays
        let p = problem(4, &[0.02, 0.40], &[0.5, 0.5], 0.6);
        let v = stochastic_value(&p, &MilpOptions::default()).unwrap();
        assert!(v.evpi > 1e-4, "EVPI = {}", v.evpi);
    }

    #[test]
    fn committed_plan_cost_matches_eev_for_mv_plan() {
        let p = problem(3, &[0.05, 0.15], &[0.7, 0.3], 0.5);
        let eev = expected_cost_of_mean_value_plan(&p);
        // rebuild the same mean-value plan and price it via the generic fn
        let mut exp_price = vec![0.0f64; 3];
        for v in 1..p.tree.len() {
            let n = p.tree.node(v);
            exp_price[n.stage - 1] += n.prob * n.price;
        }
        let mut mv = p.schedule.clone();
        mv.compute = exp_price;
        let plan = crate::wagner_whitin::solve(&mv, &p.params);
        let generic = expected_cost_of_committed_plan(&p, &plan.alpha, &plan.chi);
        assert!((eev - generic).abs() < 1e-9, "{eev} vs {generic}");
    }
}
