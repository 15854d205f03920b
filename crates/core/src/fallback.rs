//! Last-resort plan construction: the bottom rung of the planning engine's
//! degradation ladder. [`on_demand_plan`] needs no optimisation at all —
//! it rents in every slot that requires production and produces as late as
//! possible — so it always returns in O(T) and is always demand-feasible.

use crate::cost::{CostSchedule, PlanningParams};
use crate::drrp::{capacity_shortfall, plan_from_decisions, RentalPlan, NET_TOL};

/// Construct a feasible plan with no optimisation: serve the initial
/// inventory first, then produce each slot's remaining demand as late as
/// possible (renting in every producing slot). When a capacity is present,
/// demand exceeding it is pre-produced in the latest earlier slots with
/// spare capacity, so the plan stays feasible whenever one exists.
///
/// Cost is never better than the DRRP/Wagner–Whitin optimum — this is the
/// "just run it on demand" baseline — but construction cannot fail, time
/// out, or loop: it is what a deadline-constrained engine falls back to
/// when every optimiser above it ran out of budget.
///
/// Panics iff [`capacity_shortfall`] is `Some`: no feasible plan exists
/// (cumulative capacity short of cumulative demand).
pub fn on_demand_plan(s: &CostSchedule, params: &PlanningParams) -> RentalPlan {
    let shortfall = capacity_shortfall(s, params);
    assert!(shortfall.is_none(), "{}", shortfall.map(|e| e.to_string()).unwrap_or_default());
    let t_max = s.horizon();

    // net the initial inventory into the earliest demand it can serve
    let mut net = vec![0.0f64; t_max];
    let mut avail = params.initial_inventory;
    let mut eps_left = vec![0.0f64; t_max]; // ε still held at end of slot t
    for t in 0..t_max {
        let served = avail.min(s.demand[t]);
        net[t] = s.demand[t] - served;
        if net[t] < NET_TOL {
            net[t] = 0.0;
        }
        avail -= served;
        eps_left[t] = avail;
    }

    // as-late-as-possible production; with a capacity, overflow cascades
    // backwards into the latest earlier slot with spare room
    let cap = params.capacity.unwrap_or(f64::INFINITY);
    let mut alpha = vec![0.0f64; t_max];
    let mut carry = 0.0f64; // demand that must be produced earlier
    for t in (0..t_max).rev() {
        let need = net[t] + carry;
        alpha[t] = need.min(cap);
        carry = need - alpha[t];
        if carry < NET_TOL {
            carry = 0.0;
        }
    }
    // the cascade's residue is the largest prefix shortfall, which the
    // check above bounds by NET_TOL
    assert!(carry <= NET_TOL, "cascade left {carry} GB unproduced on a feasible instance");

    // inventory trajectory and rental indicators
    let mut beta = vec![0.0f64; t_max];
    let mut inv = params.initial_inventory;
    let mut chi = vec![false; t_max];
    for t in 0..t_max {
        inv = (inv + alpha[t] - s.demand[t]).max(0.0);
        beta[t] = inv;
        chi[t] = alpha[t] > 0.0;
    }

    plan_from_decisions(s, alpha, beta, chi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_spotmarket::CostRates;

    fn schedule(demand: Vec<f64>) -> CostSchedule {
        let t = demand.len();
        CostSchedule::ec2(vec![0.1; t], demand, &CostRates::ec2_2011())
    }

    #[test]
    fn uncapacitated_is_just_in_time() {
        let s = schedule(vec![0.4, 0.0, 0.7]);
        let plan = on_demand_plan(&s, &PlanningParams::default());
        assert_eq!(plan.chi, vec![true, false, true]);
        assert!((plan.alpha[0] - 0.4).abs() < 1e-12);
        assert!((plan.alpha[2] - 0.7).abs() < 1e-12);
        assert!(plan.is_feasible(&s, &PlanningParams::default(), 1e-9));
    }

    #[test]
    fn initial_inventory_served_first() {
        let s = schedule(vec![0.5, 0.5, 0.5]);
        let params = PlanningParams { initial_inventory: 0.8, capacity: None };
        let plan = on_demand_plan(&s, &params);
        assert!(!plan.chi[0], "slot 0 fully covered by ε");
        assert!(plan.chi[1] && plan.chi[2]);
        assert!((plan.alpha[1] - 0.2).abs() < 1e-9);
        assert!(plan.is_feasible(&s, &params, 1e-9));
    }

    #[test]
    fn capacity_forces_preproduction() {
        // slot 2 demands 2.0 but capacity is 1.0: the overflow moves back
        let s = schedule(vec![0.0, 0.0, 2.0]);
        let params = PlanningParams { initial_inventory: 0.0, capacity: Some(1.0) };
        let plan = on_demand_plan(&s, &params);
        assert!((plan.alpha[2] - 1.0).abs() < 1e-9);
        assert!((plan.alpha[1] - 1.0).abs() < 1e-9);
        assert!(plan.alpha[0].abs() < 1e-9);
        assert!(plan.is_feasible(&s, &params, 1e-9));
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn impossible_capacity_panics() {
        let s = schedule(vec![3.0, 3.0]);
        let params = PlanningParams { initial_inventory: 0.0, capacity: Some(1.0) };
        on_demand_plan(&s, &params);
    }

    #[test]
    fn never_cheaper_than_optimal() {
        let s = schedule(vec![0.3, 0.6, 0.1, 0.8]);
        let p = crate::drrp::DrrpProblem::new(s.clone(), PlanningParams::default());
        let opt = p.solve().unwrap();
        let fallback = on_demand_plan(&s, &PlanningParams::default());
        assert!(fallback.objective >= opt.objective - 1e-9);
    }
}
