//! DRRP — the Deterministic Resource Rental Planning MILP (paper Eq. 1–7).
//!
//! Per instance class (the paper plans per-instance, classes being
//! independent), over `T` slots:
//!
//! ```text
//! min  Σ_t ( gen_t·α_t + inv_t·β_t + out_t·D_t + cp_t·χ_t )        (1)
//! s.t. β_{t−1} + α_t − β_t = D_t                                   (2)
//!      α_t ≤ capacity                (when modelled)               (3)
//!      α_t ≤ B_t·χ_t                 (forcing)                     (4)
//!      β_0 = ε                                                     (5)
//!      α, β ≥ 0, χ ∈ {0,1}                                         (6,7)
//! ```
//!
//! The big-M is tightened per slot: `B_t = Σ_{u ≥ t} D_u` (no optimal plan
//! generates beyond the demand it can still serve), intersected with the
//! capacity when present.

use std::fmt;

use rrp_lp::{Cmp, Model, Sense};
use rrp_milp::{MilpOptions, MilpProblem, MilpStatus};

use crate::cost::{validate, CostSchedule, PlanningParams};
use crate::eval::CostBreakdown;

/// Float netting tolerance shared by [`capacity_shortfall`] and the plan
/// constructions: a shortfall or a demand residue below it is rounding, and
/// never forces a rental or a rejection.
pub const NET_TOL: f64 = 1e-9;

/// A deterministic rental-planning instance for one VM class.
#[derive(Debug, Clone)]
pub struct DrrpProblem {
    pub schedule: CostSchedule,
    pub params: PlanningParams,
}

/// An optimal (or incumbent) rental plan.
#[derive(Debug, Clone)]
pub struct RentalPlan {
    /// Data generated per slot (GB).
    pub alpha: Vec<f64>,
    /// Inventory at the end of each slot (GB).
    pub beta: Vec<f64>,
    /// Rental decision per slot.
    pub chi: Vec<bool>,
    /// Total objective including the constant transfer-out term.
    pub objective: f64,
    /// Cost decomposition at plan prices.
    pub breakdown: CostBreakdown,
}

/// Column layout of the DRRP MILP: `alpha[t]`, `beta[t]`, `chi[t]`.
#[derive(Debug, Clone, Copy)]
pub struct DrrpVars {
    pub horizon: usize,
}

impl DrrpVars {
    pub fn alpha(&self, t: usize) -> usize {
        t
    }
    pub fn beta(&self, t: usize) -> usize {
        self.horizon + t
    }
    pub fn chi(&self, t: usize) -> usize {
        2 * self.horizon + t
    }
}

impl DrrpProblem {
    pub fn new(schedule: CostSchedule, params: PlanningParams) -> Self {
        validate(&schedule, &params);
        Self { schedule, params }
    }

    /// Build the MILP of Eq. (1)–(7).
    pub fn to_milp(&self) -> (MilpProblem, DrrpVars) {
        let s = &self.schedule;
        let t_max = s.horizon();
        let vars = DrrpVars { horizon: t_max };
        let mut m = Model::new(Sense::Minimize);

        // remaining-demand big-M per slot
        let mut remaining = vec![0.0f64; t_max + 1];
        for t in (0..t_max).rev() {
            remaining[t] = remaining[t + 1] + s.demand[t];
        }

        for t in 0..t_max {
            let ub = self.params.capacity.unwrap_or(f64::INFINITY);
            m.add_var(0.0, ub, s.gen[t], &format!("alpha[{t}]"));
        }
        for t in 0..t_max {
            m.add_var(0.0, f64::INFINITY, s.inventory[t], &format!("beta[{t}]"));
        }
        let mut integers = Vec::with_capacity(t_max);
        for t in 0..t_max {
            let chi = m.add_var(0.0, 1.0, s.compute[t], &format!("chi[{t}]"));
            integers.push(chi);
        }

        // (2) inventory balance: β_{t−1} + α_t − β_t = D_t (β_{−1} = ε)
        for t in 0..t_max {
            let mut terms = vec![(vars.alpha(t), 1.0), (vars.beta(t), -1.0)];
            let mut rhs = s.demand[t];
            if t == 0 {
                rhs -= self.params.initial_inventory;
            } else {
                terms.push((vars.beta(t - 1), 1.0));
            }
            m.add_con(&terms, Cmp::Eq, rhs);
        }
        // (4) forcing: α_t − B_t·χ_t ≤ 0
        for t in 0..t_max {
            let bt = match self.params.capacity {
                Some(c) => remaining[t].min(c),
                None => remaining[t],
            };
            m.add_con(&[(vars.alpha(t), 1.0), (vars.chi(t), -bt)], Cmp::Le, 0.0);
        }
        // Single-period (l,S) inequalities, valid for the uncapacitated
        // model: a slot's demand is covered by carried stock or a rental —
        // β_{t−1} + D_t·χ_t ≥ D_t. They sharpen the notoriously weak big-M
        // relaxation (χ = α/B) and keep the B&B tree small. The planners
        // answer this case from `exact_dp`; the MILP stays its oracle.
        if self.params.capacity.is_none() {
            for t in 0..t_max {
                if s.demand[t] <= 0.0 {
                    continue;
                }
                let mut terms = vec![(vars.chi(t), s.demand[t])];
                let mut rhs = s.demand[t];
                if t == 0 {
                    rhs -= self.params.initial_inventory;
                } else {
                    terms.push((vars.beta(t - 1), 1.0));
                }
                if rhs > 0.0 || t > 0 {
                    m.add_con(&terms, Cmp::Ge, rhs);
                }
            }
        }

        (MilpProblem::new(m, integers), vars)
    }

    /// Domain upper bounds on the `alpha[t]` columns of [`Self::to_milp`]:
    /// no optimal plan generates beyond the demand it can still serve
    /// (`Σ_{u ≥ t} D_u`), intersected with the capacity when modelled.
    /// Returns `(column, bound)` pairs; callers can feed them to the
    /// `rrp-audit` big-M check as [`UpperBoundHint`]s without this crate
    /// depending on the audit pass.
    ///
    /// [`UpperBoundHint`]: https://docs.rs/rrp-audit
    pub fn implied_alpha_bounds(&self) -> Vec<(usize, f64)> {
        let s = &self.schedule;
        let t_max = s.horizon();
        let vars = DrrpVars { horizon: t_max };
        let mut remaining = vec![0.0f64; t_max + 1];
        for t in (0..t_max).rev() {
            remaining[t] = remaining[t + 1] + s.demand[t];
        }
        (0..t_max)
            .map(|t| {
                let b = match self.params.capacity {
                    Some(c) => remaining[t].min(c),
                    None => remaining[t],
                };
                (vars.alpha(t), b)
            })
            .collect()
    }

    /// Solve to optimality: from [`exact_dp`] when the instance has an exact
    /// answer without branch & bound, else through the MILP
    /// ([`Self::solve_milp`] bypasses the routing).
    pub fn solve(&self) -> Result<RentalPlan, MilpStatus> {
        match exact_dp(&self.schedule, &self.params) {
            Some(plan) => Ok(plan),
            None => self.solve_milp(&MilpOptions::default()),
        }
    }

    /// Always solve through the MILP path.
    pub fn solve_milp(&self, opts: &MilpOptions) -> Result<RentalPlan, MilpStatus> {
        let (milp, vars) = self.to_milp();
        let sol = milp.solve(opts)?;
        Ok(self.extract(&sol.values, &vars))
    }

    /// Assemble a [`RentalPlan`] from a MILP solution vector.
    pub fn extract(&self, values: &[f64], vars: &DrrpVars) -> RentalPlan {
        let s = &self.schedule;
        let t_max = s.horizon();
        let alpha: Vec<f64> = (0..t_max).map(|t| values[vars.alpha(t)].max(0.0)).collect();
        let beta: Vec<f64> = (0..t_max).map(|t| values[vars.beta(t)].max(0.0)).collect();
        let chi: Vec<bool> = (0..t_max).map(|t| values[vars.chi(t)] > 0.5).collect();
        plan_from_decisions(s, alpha, beta, chi)
    }

    /// Objective (including constants) of an arbitrary feasible plan —
    /// useful to evaluate plans at other prices.
    pub fn cost_of(&self, plan: &RentalPlan) -> f64 {
        plan_from_decisions(&self.schedule, plan.alpha.clone(), plan.beta.clone(), plan.chi.clone())
            .objective
    }
}

/// The exact optimum of a DRRP instance that needs no branch & bound, or
/// `None` when only the MILP of [`DrrpProblem::to_milp`] is exact for it.
/// This is the one place that routes an instance class to its exact method:
///
/// * `capacity: None` — the paper's §V setting, constraint (3) omitted — is
///   uncapacitated lot-sizing, answered by [`crate::wagner_whitin`] in
///   `O(T²)`;
/// * `capacity: Some(_)` has no exact DP here yet and goes to branch & bound.
pub fn exact_dp(schedule: &CostSchedule, params: &PlanningParams) -> Option<RentalPlan> {
    match params.capacity {
        None => Some(crate::wagner_whitin::solve(schedule, params)),
        Some(_) => None,
    }
}

/// Why a capacitated DRRP instance has no feasible plan: the first slot
/// whose cumulative demand exceeds the most stock any plan can hold there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityShortfall {
    /// First slot `t` with `Σ_{u ≤ t} D_u > ε + (t+1)·C`.
    pub slot: usize,
    /// Cumulative demand `Σ_{u ≤ t} D_u` through `slot`.
    pub demand_through: f64,
    /// Initial stock plus capacity rented in every slot, `ε + (t+1)·C`.
    pub supply_through: f64,
}

impl fmt::Display for CapacityShortfall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "proven infeasible at slot {}: demand through it is {}, but initial stock plus \
             capacity in every slot supplies at most {}",
            self.slot, self.demand_through, self.supply_through
        )
    }
}

/// The feasibility test of a DRRP instance, in `O(T)`. Constraints (2),
/// (3) and (5) give `β_t = ε + Σ_{u ≤ t} (α_u − D_u) ≥ 0` with `α_u ≤ C`,
/// so renting at capacity in every slot holds the most stock, and a plan
/// exists exactly when `Σ_{u ≤ t} D_u ≤ ε + (t+1)·C` for every slot `t`.
/// Returns the first slot short by more than [`NET_TOL`], and always
/// `None` when `capacity` is `None`. Panics on a malformed instance, as
/// every other entry point does.
pub fn capacity_shortfall(
    schedule: &CostSchedule,
    params: &PlanningParams,
) -> Option<CapacityShortfall> {
    validate(schedule, params);
    let cap = params.capacity?;
    let mut demand_through = 0.0;
    for (slot, d) in schedule.demand.iter().enumerate() {
        demand_through += d;
        let supply_through = params.initial_inventory + (slot + 1) as f64 * cap;
        if demand_through - supply_through > NET_TOL {
            return Some(CapacityShortfall { slot, demand_through, supply_through });
        }
    }
    None
}

/// Price a complete decision set under a schedule (shared with WW / SRRP).
pub(crate) fn plan_from_decisions(
    s: &CostSchedule,
    alpha: Vec<f64>,
    beta: Vec<f64>,
    chi: Vec<bool>,
) -> RentalPlan {
    let mut b = CostBreakdown::default();
    for t in 0..s.horizon() {
        if chi[t] {
            b.compute += s.compute[t];
        }
        b.inventory += s.inventory[t] * beta[t];
        b.transfer_in += s.gen[t] * alpha[t];
        b.transfer_out += s.out[t] * s.demand[t];
    }
    RentalPlan { alpha, beta, chi, objective: b.total(), breakdown: b }
}

impl RentalPlan {
    /// Price a complete decision set under a schedule — the public face of
    /// [`plan_from_decisions`] for other crates (the planning engine builds
    /// committed plans from SRRP tree paths and fallback constructions).
    pub fn from_decisions(
        s: &CostSchedule,
        alpha: Vec<f64>,
        beta: Vec<f64>,
        chi: Vec<bool>,
    ) -> Self {
        plan_from_decisions(s, alpha, beta, chi)
    }

    /// Check inventory-balance feasibility against a schedule.
    pub fn is_feasible(&self, s: &CostSchedule, params: &PlanningParams, tol: f64) -> bool {
        let mut inv = params.initial_inventory;
        for t in 0..s.horizon() {
            inv = inv + self.alpha[t] - s.demand[t];
            if inv < -tol {
                return false;
            }
            if (inv - self.beta[t]).abs() > tol.max(1e-6 * (1.0 + inv.abs())) {
                return false;
            }
            if self.alpha[t] > tol && !self.chi[t] {
                return false;
            }
            if let Some(cap) = params.capacity {
                if self.alpha[t] > cap + tol {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_spotmarket::CostRates;

    fn schedule(compute: Vec<f64>, demand: Vec<f64>) -> CostSchedule {
        CostSchedule::ec2(compute, demand, &CostRates::ec2_2011())
    }

    #[test]
    fn single_slot_must_rent() {
        let p = DrrpProblem::new(schedule(vec![0.2], vec![1.0]), PlanningParams::default());
        let plan = p
            .solve_milp(&MilpOptions::default())
            .expect("small DRRP test instance solves to optimality");
        assert_eq!(plan.chi, vec![true]);
        assert!((plan.alpha[0] - 1.0).abs() < 1e-6);
        assert!(plan.beta[0].abs() < 1e-6);
        assert!(plan.is_feasible(&p.schedule, &p.params, 1e-6));
    }

    #[test]
    fn expensive_compute_consolidates_production() {
        // Very expensive instance: produce everything in slot 0 and hold.
        let p = DrrpProblem::new(schedule(vec![10.0; 4], vec![0.5; 4]), PlanningParams::default());
        let plan = p
            .solve_milp(&MilpOptions::default())
            .expect("small DRRP test instance solves to optimality");
        let rentals = plan.chi.iter().filter(|&&c| c).count();
        assert_eq!(rentals, 1, "plan {:?}", plan.chi);
        assert!((plan.alpha[0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn free_holding_vs_cheap_compute() {
        // Compute so cheap that renting every slot beats holding: make
        // inventory absurdly expensive to force per-slot production.
        let mut s = schedule(vec![0.001; 4], vec![0.5; 4]);
        s.inventory = vec![100.0; 4];
        let p = DrrpProblem::new(s, PlanningParams::default());
        let plan = p
            .solve_milp(&MilpOptions::default())
            .expect("small DRRP test instance solves to optimality");
        assert_eq!(plan.chi, vec![true; 4]);
        for b in &plan.beta {
            assert!(b.abs() < 1e-6);
        }
    }

    #[test]
    fn initial_inventory_consumed_first() {
        let p = DrrpProblem::new(
            schedule(vec![0.2; 3], vec![0.5; 3]),
            PlanningParams { initial_inventory: 1.0, capacity: None },
        );
        let plan = p
            .solve_milp(&MilpOptions::default())
            .expect("small DRRP test instance solves to optimality");
        // ε = 1.0 covers slots 0 and 1; only slot 2 requires production.
        assert!(!plan.chi[0] && !plan.chi[1] && plan.chi[2], "{:?}", plan.chi);
        assert!((plan.alpha[2] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn capacity_forces_split_production() {
        let p = DrrpProblem::new(
            schedule(vec![5.0; 3], vec![1.0; 3]),
            PlanningParams { initial_inventory: 0.0, capacity: Some(1.5) },
        );
        let plan = p
            .solve_milp(&MilpOptions::default())
            .expect("small DRRP test instance solves to optimality");
        // total demand 3.0 but at most 1.5 per slot: at least 2 rentals
        let rentals = plan.chi.iter().filter(|&&c| c).count();
        assert!(rentals >= 2, "{:?}", plan.chi);
        for a in &plan.alpha {
            assert!(*a <= 1.5 + 1e-6);
        }
        assert!(plan.is_feasible(&p.schedule, &p.params, 1e-6));
    }

    #[test]
    fn objective_includes_transfer_out_constant() {
        let p = DrrpProblem::new(schedule(vec![0.2], vec![1.0]), PlanningParams::default());
        let plan = p
            .solve_milp(&MilpOptions::default())
            .expect("small DRRP test instance solves to optimality");
        // objective = cp + gen·1 + out·1 = 0.2 + 0.05 + 0.17
        assert!((plan.objective - 0.42).abs() < 1e-6, "{}", plan.objective);
        assert!((plan.breakdown.transfer_out - 0.17).abs() < 1e-12);
    }

    #[test]
    fn exact_dp_routes_only_uncapacitated_instances() {
        let s = schedule(vec![0.4, 0.3], vec![0.3, 0.7]);
        let uncapacitated = exact_dp(&s, &PlanningParams::default()).expect("lot-sizing has a DP");
        assert!(uncapacitated.is_feasible(&s, &PlanningParams::default(), 1e-9));
        let capped = PlanningParams { capacity: Some(1.0), ..Default::default() };
        assert!(exact_dp(&s, &capped).is_none(), "capacitated DRRP goes to branch & bound");
    }

    #[test]
    fn default_solve_uses_ww_and_matches_milp() {
        let p = DrrpProblem::new(
            schedule(vec![0.4, 0.3, 0.5, 0.2], vec![0.3, 0.7, 0.2, 0.9]),
            PlanningParams::default(),
        );
        let ww = p.solve().expect("uncapacitated instance solves via Wagner-Whitin");
        let milp = p
            .solve_milp(&MilpOptions::default())
            .expect("small DRRP test instance solves to optimality");
        assert!(
            (ww.objective - milp.objective).abs() < 1e-6,
            "ww {} vs milp {}",
            ww.objective,
            milp.objective
        );
    }

    #[test]
    fn zero_demand_rents_nothing() {
        let p = DrrpProblem::new(schedule(vec![0.2; 5], vec![0.0; 5]), PlanningParams::default());
        let plan = p
            .solve_milp(&MilpOptions::default())
            .expect("small DRRP test instance solves to optimality");
        assert_eq!(plan.chi, vec![false; 5]);
        assert!(plan.objective.abs() < 1e-9);
    }
}
