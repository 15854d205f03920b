//! SRRP — Stochastic Resource Rental Planning via the deterministic
//! equivalent of the multistage recourse model (paper Eq. 13–19).
//!
//! Every non-root vertex `v` of the scenario tree carries recourse
//! variables `(α_v, β_v, χ_v)`; non-anticipativity is structural (variables
//! are indexed by vertex, so decisions only depend on the price history up
//! to their stage). Demand is deterministic per stage (the paper models
//! price uncertainty only), so the inventory balance uses `D(τ(v))`.

use rrp_lp::{Cmp, Model, Sense};
use rrp_milp::{MilpOptions, MilpProblem, MilpStatus, SolveBudget, SolveStatus};

use crate::budgeted::PlanOutcome;
use crate::cost::{validate, CostSchedule, PlanningParams};
use crate::drrp::{plan_from_decisions, RentalPlan};
use crate::scenario::ScenarioTree;

/// A stochastic rental-planning instance. `schedule.compute` is ignored —
/// compute prices come from the tree vertices.
#[derive(Debug, Clone)]
pub struct SrrpProblem {
    pub schedule: CostSchedule,
    pub params: PlanningParams,
    pub tree: ScenarioTree,
}

/// Solution of the deterministic equivalent: one decision triple per
/// non-root vertex.
#[derive(Debug, Clone)]
pub struct SrrpPlan {
    /// `alpha[v]`, `beta[v]`, `chi[v]` indexed by tree vertex (entry 0 — the
    /// root — is unused and zero).
    pub alpha: Vec<f64>,
    pub beta: Vec<f64>,
    pub chi: Vec<bool>,
    /// Expected total cost (objective (13) plus the transfer-out constant).
    pub expected_cost: f64,
    /// Relative MIP gap reported by the solver.
    pub gap: f64,
}

/// The facility-location MILP of an uncapacitated SRRP instance together
/// with the column maps needed to read a solution vector back into vertex
/// decisions. Built by [`SrrpProblem::build_fl`] and solved by
/// [`SrrpProblem::solve_milp_fl`]; public so that the model build and the
/// root LP can be timed apart from outside the crate.
#[derive(Debug, Clone)]
pub struct FlModel {
    pub milp: MilpProblem,
    /// `ycol[v][u - τ(v)]` — column of `y[v,u]`, `usize::MAX` when stage `u`
    /// has no net demand (no variable).
    pub ycol: Vec<Vec<usize>>,
    /// `chi_cols[v]` — column of `χ_v` (`usize::MAX` for the root).
    pub chi_cols: Vec<usize>,
    /// Per-stage net demand after initial-inventory netting.
    pub net: Vec<f64>,
    /// Constant holding cost induced by the initial inventory ε.
    pub eps_cost: f64,
}

impl SrrpProblem {
    pub fn new(schedule: CostSchedule, params: PlanningParams, tree: ScenarioTree) -> Self {
        validate(&schedule, &params);
        assert_eq!(
            tree.stages(),
            schedule.horizon(),
            "tree stages must equal the schedule horizon"
        );
        Self { schedule, params, tree }
    }

    /// Demand at vertex `v`: the vertex's own realisation when the tree
    /// models demand uncertainty, else the stage-deterministic demand.
    pub fn demand_at(&self, v: usize) -> f64 {
        let node = self.tree.node(v);
        node.demand.unwrap_or(self.schedule.demand[node.stage - 1])
    }

    /// Probability-weighted transfer-out cost (`Σ_v p_v·C_f⁻·D_v`; equals
    /// the schedule constant when demand is deterministic).
    pub fn transfer_out_expected(&self) -> f64 {
        let mut per_stage = vec![0.0f64; self.schedule.horizon()];
        for v in 1..self.tree.len() {
            let node = self.tree.node(v);
            per_stage[node.stage - 1] += node.prob * self.demand_at(v);
        }
        per_stage.iter().zip(&self.schedule.out).map(|(d, o)| d * o).sum()
    }

    /// Build the deterministic-equivalent MILP (Eq. 13–19). Columns per
    /// non-root vertex v (1-based): `alpha = v−1`, `beta = (N−1)+(v−1)`,
    /// `chi = 2(N−1)+(v−1)`.
    pub fn to_milp(&self) -> MilpProblem {
        let s = &self.schedule;
        let tree = &self.tree;
        let n = tree.len();
        let nv = n - 1; // decision vertices
        let mut m = Model::new(Sense::Minimize);

        // remaining demand from stage t to the end — the per-vertex big-M
        // of the forcing constraint. With stochastic demand the per-stage
        // maximum is a valid (path-independent) upper bound.
        let t_max = s.horizon();
        let mut stage_max = vec![0.0f64; t_max];
        for v in 1..n {
            let node = tree.node(v);
            let d = self.demand_at(v);
            let e = &mut stage_max[node.stage - 1];
            *e = e.max(d);
        }
        let mut remaining = vec![0.0f64; t_max + 2];
        for t in (1..=t_max).rev() {
            remaining[t] = remaining[t + 1] + stage_max[t - 1];
        }

        let alpha_col = |v: usize| v - 1;
        let beta_col = |v: usize| nv + v - 1;
        let chi_col = |v: usize| 2 * nv + v - 1;

        // objective (13): probability-weighted vertex costs
        for v in 1..n {
            let node = tree.node(v);
            let t = node.stage; // 1-based slot
            let p = node.prob;
            let ub = self.params.capacity.unwrap_or(f64::INFINITY);
            let col = m.add_var(0.0, ub, p * s.gen[t - 1], &format!("alpha[{v}]"));
            debug_assert_eq!(col, alpha_col(v));
        }
        for v in 1..n {
            let node = tree.node(v);
            let col = m.add_var(
                0.0,
                f64::INFINITY,
                node.prob * s.inventory[node.stage - 1],
                &format!("beta[{v}]"),
            );
            debug_assert_eq!(col, beta_col(v));
        }
        let mut integers = Vec::with_capacity(nv);
        for v in 1..n {
            let node = tree.node(v);
            let col = m.add_var(0.0, 1.0, node.prob * node.price, &format!("chi[{v}]"));
            debug_assert_eq!(col, chi_col(v));
            integers.push(col);
        }

        for v in 1..n {
            let node = tree.node(v);
            let t = node.stage;
            let demand_v = self.demand_at(v);
            // (14) β_{π(v)} + α_v − β_v = D_v
            let mut terms = vec![(alpha_col(v), 1.0), (beta_col(v), -1.0)];
            let mut rhs = demand_v;
            match node.parent {
                Some(0) | None => rhs -= self.params.initial_inventory, // (17)
                Some(p) => terms.push((beta_col(p), 1.0)),
            }
            m.add_con(&terms, Cmp::Eq, rhs);
            // (16) forcing with per-stage tight M
            let bt = match self.params.capacity {
                Some(c) => remaining[t].min(c),
                None => remaining[t],
            };
            m.add_con(&[(alpha_col(v), 1.0), (chi_col(v), -bt)], Cmp::Le, 0.0);
            // single-period (l,S) strengthening (uncapacitated case):
            // β_{π(v)} + D_v·χ_v ≥ D_v — demand is covered by carried stock
            // or a rental; sharpens the big-M relaxation dramatically.
            if self.params.capacity.is_none() && demand_v > 0.0 {
                let mut terms = vec![(chi_col(v), demand_v)];
                let mut rhs = demand_v;
                match node.parent {
                    Some(0) | None => rhs -= self.params.initial_inventory,
                    Some(p) => terms.push((beta_col(p), 1.0)),
                }
                if rhs > 0.0 || node.parent != Some(0) {
                    m.add_con(&terms, Cmp::Ge, rhs);
                }
            }
            // two-period (l,S) inequality over the (parent, v) edge:
            // β_{π(π(v))} + D_{π(v)}·χ_{π(v)} + D_v·(χ_{π(v)} + χ_v)
            //   ≥ D_{π(v)} + D_v
            // (l = v, S = {π(v), v}): the pair's demand is carried stock,
            // or produced at the parent (which can cover both), or at v
            // (which covers only its own slot).
            if self.params.capacity.is_none() {
                if let Some(u) = node.parent {
                    if u != 0 {
                        let demand_u = self.demand_at(u);
                        if demand_u + demand_v > 0.0 {
                            let mut terms =
                                vec![(chi_col(u), demand_u + demand_v), (chi_col(v), demand_v)];
                            let mut rhs = demand_u + demand_v;
                            match tree.node(u).parent {
                                Some(0) | None => rhs -= self.params.initial_inventory,
                                Some(g) => terms.push((beta_col(g), 1.0)),
                            }
                            if rhs > 0.0 || tree.node(u).parent != Some(0) {
                                m.add_con(&terms, Cmp::Ge, rhs);
                            }
                        }
                    }
                }
            }
        }

        MilpProblem::new(m, integers)
    }

    /// Domain upper bounds on the `alpha[v]` columns of [`Self::to_milp`]:
    /// the per-stage maximum of the remaining demand (valid on every path),
    /// intersected with the capacity when modelled. Returns
    /// `(column, bound)` pairs for the `rrp-audit` big-M check, mirroring
    /// [`crate::drrp::DrrpProblem::implied_alpha_bounds`].
    pub fn implied_alpha_bounds(&self) -> Vec<(usize, f64)> {
        let tree = &self.tree;
        let n = tree.len();
        let t_max = self.schedule.horizon();
        let mut stage_max = vec![0.0f64; t_max];
        for v in 1..n {
            let node = tree.node(v);
            let d = self.demand_at(v);
            let e = &mut stage_max[node.stage - 1];
            *e = e.max(d);
        }
        let mut remaining = vec![0.0f64; t_max + 2];
        for t in (1..=t_max).rev() {
            remaining[t] = remaining[t + 1] + stage_max[t - 1];
        }
        (1..n)
            .map(|v| {
                let t = tree.node(v).stage;
                let b = match self.params.capacity {
                    Some(c) => remaining[t].min(c),
                    None => remaining[t],
                };
                (v - 1, b) // alpha column of vertex v
            })
            .collect()
    }

    /// Solve the deterministic equivalent by branch & bound. Uncapacitated
    /// instances (the paper's evaluation setting) go through the
    /// facility-location reformulation, whose LP relaxation is near
    /// integral and keeps the B&B tree tiny; capacitated instances use the
    /// textbook big-M form of Eq. (13)–(19).
    pub fn solve_milp(&self, opts: &MilpOptions) -> Result<SrrpPlan, MilpStatus> {
        // FL requires stage-deterministic demand (its y-variables cover one
        // demand quantity per stage); capacity and stochastic demand go
        // through the big-M form.
        if self.params.capacity.is_none() && !self.tree.has_stochastic_demand() {
            return self.solve_milp_fl(opts);
        }
        let milp = self.to_milp();
        let sol = milp.solve(opts)?;
        Ok(self.extract(&sol.values, sol.gap))
    }

    /// Solve through the big-M formulation regardless of capacity (kept for
    /// the formulation ablation and cross-checking).
    pub fn solve_milp_bigm(&self, opts: &MilpOptions) -> Result<SrrpPlan, MilpStatus> {
        let milp = self.to_milp();
        let sol = milp.solve(opts)?;
        Ok(self.extract(&sol.values, sol.gap))
    }

    /// Net per-stage demand after the forced consumption of the initial
    /// inventory ε, plus the constant holding cost ε induces. Demand is
    /// stage-deterministic, so the netting is identical on every path.
    fn net_demand(&self) -> (Vec<f64>, f64) {
        let s = &self.schedule;
        let t_max = s.horizon();
        let mut net = vec![0.0f64; t_max];
        let mut eps_cost = 0.0;
        let mut avail = self.params.initial_inventory;
        for t in 0..t_max {
            let served = avail.min(s.demand[t]);
            net[t] = s.demand[t] - served;
            if net[t] < 1e-9 {
                // snap float residues: a 1e-16 leftover must not force a
                // rental setup (cf. the same guard in wagner_whitin)
                net[t] = 0.0;
            }
            avail -= served;
            // stage probabilities sum to 1, so the ε inventory costs its
            // full rate regardless of branching
            eps_cost += s.inventory[t] * avail;
        }
        (net, eps_cost)
    }

    /// Facility-location ("transportation") reformulation for the
    /// uncapacitated model. `y[v][u]` is the fraction of stage-`u` net
    /// demand produced at vertex `v` (for every scenario passing through
    /// `v`); covering constraints run along root-to-vertex paths:
    ///
    /// ```text
    /// min  Σ_v p_v·price_v·χ_v
    ///    + Σ_{v,u} p_v·D'_u·( gen_{τ(v)} + Σ_{s=τ(v)}^{u−1} inv_s )·y_{v,u}
    /// s.t. Σ_{v ∈ path(w)} y_{v,τ(w)} = 1      ∀ w with D'_{τ(w)} > 0
    ///      y_{v,u} ≤ χ_v,  y ∈ [0,1],  χ ∈ {0,1}
    /// ```
    ///
    /// For the deterministic chain this relaxation is integral; on trees it
    /// is near integral, so branch & bound typically proves optimality at
    /// the root.
    pub fn solve_milp_fl(&self, opts: &MilpOptions) -> Result<SrrpPlan, MilpStatus> {
        let fl = self.build_fl();
        let sol = fl.milp.solve(opts)?;
        let plan = self.extract_fl(&fl, &sol.values, sol.gap);
        debug_assert!(
            (plan.expected_cost
                - (sol.objective + fl.eps_cost + self.schedule.transfer_out_constant()))
            .abs()
                < 1e-5 * (1.0 + plan.expected_cost.abs()),
            "FL objective mismatch: balance {} vs FL {}",
            plan.expected_cost,
            sol.objective + fl.eps_cost + self.schedule.transfer_out_constant()
        );
        Ok(plan)
    }

    /// Budgeted counterpart of [`Self::solve_milp`]: routes to the FL or
    /// big-M formulation exactly as the unbudgeted path, but enforces the
    /// budget cooperatively inside branch & bound. Limit hits come back as
    /// [`PlanOutcome::Terminated`] with the best incumbent plan (if any).
    pub fn solve_milp_budgeted(
        &self,
        opts: &MilpOptions,
        budget: &SolveBudget,
    ) -> PlanOutcome<SrrpPlan> {
        if self.params.capacity.is_none() && !self.tree.has_stochastic_demand() {
            let fl = self.build_fl();
            match fl.milp.solve_budgeted(opts, budget) {
                SolveStatus::Optimal(sol) => {
                    PlanOutcome::Optimal(self.extract_fl(&fl, &sol.values, sol.gap))
                }
                SolveStatus::Terminated { best_incumbent, bound, reason } => {
                    PlanOutcome::Terminated {
                        plan: best_incumbent.map(|sol| self.extract_fl(&fl, &sol.values, sol.gap)),
                        bound,
                        reason,
                    }
                }
                SolveStatus::Failed(e) => PlanOutcome::Failed(e),
            }
        } else {
            let milp = self.to_milp();
            match milp.solve_budgeted(opts, budget) {
                SolveStatus::Optimal(sol) => {
                    PlanOutcome::Optimal(self.extract(&sol.values, sol.gap))
                }
                SolveStatus::Terminated { best_incumbent, bound, reason } => {
                    PlanOutcome::Terminated {
                        plan: best_incumbent.map(|sol| self.extract(&sol.values, sol.gap)),
                        bound,
                        reason,
                    }
                }
                SolveStatus::Failed(e) => PlanOutcome::Failed(e),
            }
        }
    }

    /// Build the FL model plus the column maps needed to read a solution
    /// back out (shared by the plain and budgeted FL solves).
    ///
    /// # Panics
    /// On a capacitated instance or a tree with stochastic demand — the
    /// reformulation covers neither (see [`Self::solve_milp`] for the
    /// routing).
    pub fn build_fl(&self) -> FlModel {
        assert!(self.params.capacity.is_none(), "FL reformulation is uncapacitated-only");
        assert!(
            !self.tree.has_stochastic_demand(),
            "FL reformulation requires stage-deterministic demand"
        );
        let s = &self.schedule;
        let tree = &self.tree;
        let n = tree.len();
        let t_max = s.horizon();
        let (net, eps_cost) = self.net_demand();

        // holding-rate prefix sums: hp[t] = Σ_{s<t} inv_s  (stages 1-based)
        let mut hp = vec![0.0f64; t_max + 1];
        for t in 0..t_max {
            hp[t + 1] = hp[t] + s.inventory[t];
        }

        let mut m = Model::new(Sense::Minimize);
        // y columns first, indexed by (v, u)
        let mut ycol: Vec<Vec<usize>> = vec![Vec::new(); n]; // ycol[v][u - τ(v)]
        let mut col_count = 0usize;
        for v in 1..n {
            let node = tree.node(v);
            let t = node.stage; // 1-based
            for u in t..=t_max {
                if net[u - 1] <= 0.0 {
                    ycol[v].push(usize::MAX); // no demand: no variable
                    continue;
                }
                let unit = s.gen[t - 1] + (hp[u - 1] - hp[t - 1]);
                let c = node.prob * net[u - 1] * unit;
                let col = m.add_var(0.0, 1.0, c, &format!("y[{v},{u}]"));
                debug_assert_eq!(col, col_count);
                ycol[v].push(col);
                col_count += 1;
            }
        }
        // χ columns
        let mut chi_cols = vec![usize::MAX; n];
        let mut integers = Vec::with_capacity(n - 1);
        for v in 1..n {
            let node = tree.node(v);
            let col = m.add_var(0.0, 1.0, node.prob * node.price, &format!("chi[{v}]"));
            chi_cols[v] = col;
            integers.push(col);
        }

        // covering: for each vertex w whose stage has net demand, its
        // stage's demand is fully produced along the root→w path
        for w in 1..n {
            let u = tree.node(w).stage;
            if net[u - 1] <= 0.0 {
                continue;
            }
            let mut terms = Vec::new();
            for &v in &tree.path(w) {
                let t = tree.node(v).stage;
                let col = ycol[v][u - t];
                if col != usize::MAX {
                    terms.push((col, 1.0));
                }
            }
            m.add_con(&terms, Cmp::Eq, 1.0);
        }
        // linking y ≤ χ
        for v in 1..n {
            let t = tree.node(v).stage;
            for u in t..=t_max {
                let col = ycol[v][u - t];
                if col != usize::MAX {
                    m.add_con(&[(col, 1.0), (chi_cols[v], -1.0)], Cmp::Le, 0.0);
                }
            }
        }

        FlModel { milp: MilpProblem::new(m, integers), ycol, chi_cols, net, eps_cost }
    }

    /// Read an FL solution vector back into vertex decisions:
    /// α_v = Σ_u D'_u·y_{v,u}; β from the balance equation.
    fn extract_fl(&self, fl: &FlModel, values: &[f64], gap: f64) -> SrrpPlan {
        let s = &self.schedule;
        let tree = &self.tree;
        let n = tree.len();
        let t_max = s.horizon();
        let mut alpha = vec![0.0f64; n];
        let mut chi = vec![false; n];
        for v in 1..n {
            let t = tree.node(v).stage;
            for u in t..=t_max {
                let col = fl.ycol[v][u - t];
                if col != usize::MAX {
                    alpha[v] += fl.net[u - 1] * values[col].clamp(0.0, 1.0);
                }
            }
            chi[v] = values[fl.chi_cols[v]] > 0.5;
            if alpha[v] > 1e-9 {
                chi[v] = true; // guard against a χ the LP left at a tie
            }
        }
        let mut beta = vec![0.0f64; n];
        for v in 1..n {
            let node = tree.node(v);
            let parent_beta = match node.parent {
                Some(0) | None => self.params.initial_inventory,
                Some(p) => beta[p],
            };
            beta[v] = (parent_beta + alpha[v] - s.demand[node.stage - 1]).max(0.0);
        }
        let expected_cost = self.expected_cost(&alpha, &beta, &chi);
        SrrpPlan { alpha, beta, chi, expected_cost, gap }
    }

    fn extract(&self, values: &[f64], gap: f64) -> SrrpPlan {
        let n = self.tree.len();
        let nv = n - 1;
        let mut alpha = vec![0.0f64; n];
        let mut beta = vec![0.0f64; n];
        let mut chi = vec![false; n];
        for v in 1..n {
            alpha[v] = values[v - 1].max(0.0);
            beta[v] = values[nv + v - 1].max(0.0);
            chi[v] = values[2 * nv + v - 1] > 0.5;
        }
        let expected_cost = self.expected_cost(&alpha, &beta, &chi);
        SrrpPlan { alpha, beta, chi, expected_cost, gap }
    }

    /// Expected cost of a complete vertex-decision set, including the
    /// deterministic transfer-out constant.
    pub fn expected_cost(&self, alpha: &[f64], beta: &[f64], chi: &[bool]) -> f64 {
        let s = &self.schedule;
        let mut acc = self.transfer_out_expected();
        for v in 1..self.tree.len() {
            let node = self.tree.node(v);
            let t = node.stage - 1;
            acc += node.prob
                * (s.gen[t] * alpha[v]
                    + s.inventory[t] * beta[v]
                    + if chi[v] { node.price } else { 0.0 });
        }
        acc
    }

    /// Feasibility of a vertex-decision set (balance + forcing).
    pub fn is_feasible(&self, plan: &SrrpPlan, tol: f64) -> bool {
        for v in 1..self.tree.len() {
            let node = self.tree.node(v);
            let parent_beta = match node.parent {
                Some(0) | None => self.params.initial_inventory,
                Some(p) => plan.beta[p],
            };
            let balance = parent_beta + plan.alpha[v] - plan.beta[v] - self.demand_at(v);
            if balance.abs() > tol {
                return false;
            }
            if plan.alpha[v] > tol && !plan.chi[v] {
                return false;
            }
            if let Some(c) = self.params.capacity {
                if plan.alpha[v] > c + tol {
                    return false;
                }
            }
        }
        true
    }
}

impl SrrpPlan {
    /// The recourse decision for slot 1 given the realised spot price: the
    /// stage-1 vertex whose state matches. A realised price above the bid
    /// maps to the out-of-bid vertex (the highest state, priced at
    /// on-demand); otherwise the nearest kept state is selected.
    pub fn stage1_decision(
        &self,
        tree: &ScenarioTree,
        realized: f64,
        bid: f64,
    ) -> (f64, bool, usize) {
        let stage1 = tree.children(0);
        assert!(!stage1.is_empty(), "tree has no decision stage");
        // manual scans instead of max_by/min_by: no Option to unwrap and no
        // partial_cmp to trip over, ties keep the lowest vertex index
        let mut v = stage1[0];
        if realized > bid {
            for &k in &stage1[1..] {
                if tree.node(k).price > tree.node(v).price {
                    v = k;
                }
            }
        } else {
            for &k in &stage1[1..] {
                if (tree.node(k).price - realized).abs() < (tree.node(v).price - realized).abs() {
                    v = k;
                }
            }
        }
        (self.alpha[v], self.chi[v], v)
    }

    /// Commit the most-probable root→leaf path of the tree into a concrete
    /// per-slot [`RentalPlan`] against `schedule`'s prices. Ties between
    /// branch probabilities break to the lower vertex index, so the result
    /// is deterministic for a given tree.
    ///
    /// With stage-deterministic demand the vertex balance (Eq. 14) holds
    /// along every root→leaf path, so the committed plan is always
    /// demand-feasible; the engine's degradation ladder relies on that to
    /// turn an SRRP recourse policy into a single dispatchable plan. With
    /// stochastic demand the committed path is only feasible for its own
    /// demand realisation.
    pub fn commit_path(&self, tree: &ScenarioTree, schedule: &CostSchedule) -> RentalPlan {
        let t_max = schedule.horizon();
        assert_eq!(tree.stages(), t_max, "tree stages must equal the schedule horizon");
        let mut alpha = vec![0.0f64; t_max];
        let mut beta = vec![0.0f64; t_max];
        let mut chi = vec![false; t_max];
        let mut v = 0usize; // root
        for t in 0..t_max {
            let kids = tree.children(v);
            assert!(!kids.is_empty(), "tree truncated before stage {}", t + 1);
            let mut best = kids[0];
            for &k in &kids[1..] {
                // strict > keeps the first (lowest-index) child on ties
                if tree.node(k).branch_prob > tree.node(best).branch_prob {
                    best = k;
                }
            }
            v = best;
            alpha[t] = self.alpha[v].max(0.0);
            beta[t] = self.beta[v].max(0.0);
            chi[t] = self.chi[v] || alpha[t] > 1e-9;
        }
        plan_from_decisions(schedule, alpha, beta, chi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_spotmarket::{CostRates, EmpiricalDist};

    fn schedule(t: usize, demand: f64) -> CostSchedule {
        CostSchedule::ec2(vec![0.0; t], vec![demand; t], &CostRates::ec2_2011())
    }

    fn tree(stages: usize, values: &[f64], probs: &[f64]) -> ScenarioTree {
        let d = EmpiricalDist::from_parts(values.to_vec(), probs.to_vec());
        ScenarioTree::from_stage_distributions(&vec![d; stages], 100_000)
    }

    #[test]
    fn degenerate_tree_equals_drrp() {
        // single price state per stage → SRRP must equal DRRP
        let t = 4;
        let s = schedule(t, 0.4);
        let tr = tree(t, &[0.06], &[1.0]);
        let srrp = SrrpProblem::new(s.clone(), PlanningParams::default(), tr);
        let plan = srrp
            .solve_milp(&MilpOptions::default())
            .expect("small SRRP test instance solves to optimality");

        let mut ds = s.clone();
        ds.compute = vec![0.06; t];
        let drrp = crate::drrp::DrrpProblem::new(ds, PlanningParams::default());
        let dplan = drrp.solve().expect("uncapacitated instance solves via Wagner-Whitin");
        assert!(
            (plan.expected_cost - dplan.objective).abs() < 1e-6,
            "srrp {} vs drrp {}",
            plan.expected_cost,
            dplan.objective
        );
        assert!(srrp.is_feasible(&plan, 1e-6));
    }

    #[test]
    fn stochastic_beats_committing_blindly() {
        // two price states; when the price is high, a pre-stocked plan can
        // skip renting. SRRP's expected cost is a lower bound on any
        // single-scenario-committed plan evaluated in expectation.
        let t = 3;
        let s = schedule(t, 0.5);
        let tr = tree(t, &[0.05, 0.20], &[0.5, 0.5]);
        let srrp = SrrpProblem::new(s.clone(), PlanningParams::default(), tr);
        let plan = srrp
            .solve_milp(&MilpOptions::default())
            .expect("small SRRP test instance solves to optimality");
        assert!(srrp.is_feasible(&plan, 1e-6));
        // expected compute price is 0.125/slot; naive rent-every-slot is
        // 3·0.125 + gen + out; SRRP must not exceed it
        let naive = 3.0 * 0.125 + s.gen[0] * 1.5 + s.transfer_out_constant();
        assert!(
            plan.expected_cost <= naive + 1e-6,
            "srrp {} vs naive {}",
            plan.expected_cost,
            naive
        );
    }

    #[test]
    fn milp_matches_brute_force_on_tiny_tree() {
        // 2 stages × 2 states = 7 nodes, 6 decision vertices → enumerate χ
        let t = 2;
        let s = schedule(t, 0.6);
        let tr = tree(t, &[0.04, 0.15], &[0.7, 0.3]);
        let srrp = SrrpProblem::new(s.clone(), PlanningParams::default(), tr.clone());
        let plan = srrp
            .solve_milp(&MilpOptions::default())
            .expect("small SRRP test instance solves to optimality");

        // brute force: enumerate rental patterns; given χ, greedy: any
        // vertex with χ=1 produces as late as possible → LP would be needed
        // in general, so enumerate with the LP relaxation having χ fixed.
        let mut best = f64::INFINITY;
        let n = tr.len();
        for mask in 0u32..(1 << (n - 1)) {
            let (milp_fixed, _) = {
                let mut m = srrp.to_milp();
                for v in 1..n {
                    let chi_col = 2 * (n - 1) + v - 1;
                    let bit = (mask >> (v - 1)) & 1 == 1;
                    let val = if bit { 1.0 } else { 0.0 };
                    m.model.set_var_bounds(chi_col, val, val);
                }
                (m, ())
            };
            if let Ok(sol) = milp_fixed.solve(&MilpOptions::default()) {
                best = best.min(sol.objective + s.transfer_out_constant());
            }
        }
        assert!(
            (plan.expected_cost - best).abs() < 1e-6,
            "milp {} vs enumeration {}",
            plan.expected_cost,
            best
        );
    }

    #[test]
    fn stage1_decision_maps_out_of_bid() {
        let t = 2;
        let s = schedule(t, 0.4);
        // states: two spot prices + the on-demand λ = 0.20 out-of-bid state
        let tr = tree(t, &[0.05, 0.06, 0.20], &[0.4, 0.4, 0.2]);
        let srrp = SrrpProblem::new(s, PlanningParams::default(), tr.clone());
        let plan = srrp
            .solve_milp(&MilpOptions::default())
            .expect("small SRRP test instance solves to optimality");
        // realised above bid → the λ vertex
        let (_, _, v) = plan.stage1_decision(&tr, 0.09, 0.06);
        assert_eq!(tr.node(v).price, 0.20);
        // realised below bid → nearest kept state
        let (_, _, v2) = plan.stage1_decision(&tr, 0.052, 0.06);
        assert_eq!(tr.node(v2).price, 0.05);
    }

    #[test]
    fn fl_reformulation_equals_bigm() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for trial in 0..10 {
            let t = 2 + rng.gen_range(0..2);
            let mut s = schedule(t, 0.0);
            for d in s.demand.iter_mut() {
                *d = rng.gen_range(0.0..1.0);
            }
            let lo = rng.gen_range(0.02..0.08);
            let hi = lo + rng.gen_range(0.02..0.15);
            let p = rng.gen_range(0.2..0.8);
            let eps = if trial % 2 == 0 { rng.gen_range(0.0..0.6) } else { 0.0 };
            let tr = tree(t, &[lo, hi], &[p, 1.0 - p]);
            let params = PlanningParams { initial_inventory: eps, capacity: None };
            let srrp = SrrpProblem::new(s, params, tr);
            let fl = srrp
                .solve_milp_fl(&MilpOptions::default())
                .expect("FL reformulation solves the uncapacitated instance");
            let bigm = srrp
                .solve_milp_bigm(&MilpOptions::default())
                .expect("big-M formulation solves the same instance");
            assert!(
                (fl.expected_cost - bigm.expected_cost).abs()
                    <= 1e-6 * (1.0 + fl.expected_cost.abs()),
                "trial {trial}: FL {} vs big-M {}",
                fl.expected_cost,
                bigm.expected_cost
            );
            assert!(srrp.is_feasible(&fl, 1e-6), "FL plan infeasible (trial {trial})");
        }
    }

    #[test]
    fn stochastic_demand_one_stage_closed_form() {
        // One stage, two joint states: (price .05, demand .4, p .5) and
        // (price .05, demand 1.0, p .5). Both must rent; expected cost =
        // price + gen·E[D] + out·E[D].
        let tr =
            ScenarioTree::from_joint_stage_states(&[vec![(0.05, 0.4, 0.5), (0.05, 1.0, 0.5)]], 100);
        let s = schedule(1, 999.0); // schedule demand must be overridden per vertex
        let srrp = SrrpProblem::new(s.clone(), PlanningParams::default(), tr);
        let plan = srrp
            .solve_milp(&MilpOptions::default())
            .expect("small SRRP test instance solves to optimality");
        assert!(srrp.is_feasible(&plan, 1e-6));
        let e_d = 0.7;
        let expect = 0.05 + s.gen[0] * e_d + s.out[0] * e_d;
        assert!(
            (plan.expected_cost - expect).abs() < 1e-6,
            "cost {} vs closed form {}",
            plan.expected_cost,
            expect
        );
    }

    #[test]
    fn stochastic_demand_matching_schedule_equals_fl() {
        // joint tree whose demand equals the stage-deterministic schedule:
        // the big-M solve must match the FL solve of the plain tree.
        let t = 2;
        let s = schedule(t, 0.5);
        let joint = ScenarioTree::from_joint_stage_states(
            &vec![vec![(0.04, 0.5, 0.7), (0.15, 0.5, 0.3)]; t],
            1000,
        );
        let plain = tree(t, &[0.04, 0.15], &[0.7, 0.3]);
        let a = SrrpProblem::new(s.clone(), PlanningParams::default(), joint)
            .solve_milp(&MilpOptions::default())
            .expect("joint-demand SRRP instance solves to optimality");
        let b = SrrpProblem::new(s, PlanningParams::default(), plain)
            .solve_milp(&MilpOptions::default())
            .expect("plain SRRP instance solves to optimality");
        assert!(
            (a.expected_cost - b.expected_cost).abs() < 1e-6,
            "joint {} vs plain {}",
            a.expected_cost,
            b.expected_cost
        );
    }

    #[test]
    fn demand_uncertainty_raises_cost_vs_mean_demand() {
        // Jensen-style check: with a fixed-charge cost structure, planning
        // against demand spread (which sometimes forces extra rentals)
        // cannot be cheaper than the same total demand known exactly.
        let t = 2;
        let joint = ScenarioTree::from_joint_stage_states(
            &vec![vec![(0.06, 0.2, 0.5), (0.06, 1.0, 0.5)]; t],
            1000,
        );
        let s_mean = schedule(t, 0.6);
        let stoch = SrrpProblem::new(s_mean.clone(), PlanningParams::default(), joint)
            .solve_milp(&MilpOptions::default())
            .expect("stochastic-demand SRRP instance solves to optimality");
        let det_tree = tree(t, &[0.06], &[1.0]);
        let det = SrrpProblem::new(s_mean, PlanningParams::default(), det_tree)
            .solve_milp(&MilpOptions::default())
            .expect("mean-demand SRRP instance solves to optimality");
        assert!(
            stoch.expected_cost >= det.expected_cost - 1e-7,
            "stochastic-demand cost {} below mean-demand cost {}",
            stoch.expected_cost,
            det.expected_cost
        );
    }

    #[test]
    fn capacity_respected_across_tree() {
        let t = 2;
        let s = schedule(t, 1.0);
        let tr = tree(t, &[0.05, 0.10], &[0.5, 0.5]);
        let srrp =
            SrrpProblem::new(s, PlanningParams { initial_inventory: 0.0, capacity: Some(1.2) }, tr);
        let plan = srrp
            .solve_milp(&MilpOptions::default())
            .expect("small SRRP test instance solves to optimality");
        for v in 1..plan.alpha.len() {
            assert!(plan.alpha[v] <= 1.2 + 1e-6);
        }
        assert!(srrp.is_feasible(&plan, 1e-6));
    }
}
