//! Bounded-variable dual simplex, warm-started from a [`Basis`] snapshot.
//!
//! Reduced costs depend only on `A` and `c`, so an optimal basis stays
//! *dual* feasible after any change to bounds or right-hand sides — exactly
//! what branch & bound does between a parent node and its children, and
//! what rolling-horizon re-plans do between periods. Starting from the
//! parent basis, the dual simplex drives out the (typically one or two)
//! primal bound violations in a handful of pivots instead of re-running the
//! full two-phase primal from the slack basis.
//!
//! The same solver is the *cold* path too: with no hint, [`solve_warm`]
//! starts it from the all-slack basis whenever that basis is dual feasible
//! (costs ≥ 0 on columns resting at their lower bound — every rental
//! model), which on the SRRP deterministic equivalent takes about half the
//! pivots of a two-phase primal run. An iteration costs what its pivot row
//! touches: the row is assembled from the few rows of `A` where `B⁻ᵀe_r`
//! is nonzero, and the ratio test and reduced-cost update visit only the
//! columns that row reaches.
//!
//! The dual path is an optimisation, never a correctness dependency: any
//! structural mismatch, singular refactorisation, dual-infeasible start,
//! stall, or "no eligible entering column" outcome abandons the attempt and
//! falls back to the two-phase primal ([`simplex::solve_sparse_snapshot`]).
//! In particular an infeasibility *verdict* is never taken from the dual
//! path — the primal confirms it — so warm and cold searches prune the same
//! nodes.

use rrp_trace::{EventKind, SpanId, TraceHandle};

use crate::engine::{BasisEngine, SparseEngine};
use crate::model::StandardLp;
use crate::simplex::{self, nonbasic_value, status_tag, Basis, RawResult, VStat, VarStatus};
use crate::solution::Status;
use crate::FEAS_TOL;

/// Reduced-cost tolerance when validating dual feasibility of a warm basis.
const DUAL_TOL: f64 = 1e-7;
/// Pivot magnitude below which a dual ratio-test candidate is rejected.
const DPIV_TOL: f64 = 1e-9;
/// Consecutive degenerate dual pivots before the warm attempt is abandoned.
const STALL_LIMIT: usize = 200;

/// Outcome of [`solve_warm`]: the raw LP result, the final basis snapshot
/// (`Some` only for optimal solves), and which path produced it.
#[derive(Debug, Clone)]
pub struct WarmResult {
    pub raw: RawResult,
    /// Final basis when the solve ended [`Status::Optimal`] — feed it to the
    /// next warm solve.
    pub basis: Option<Basis>,
    /// True when the dual path, started from the caller's hint, produced
    /// `raw`. False for every hint-less solve — whether the dual simplex
    /// from the slack basis or the primal finished it — and for a hinted
    /// solve that fell back to the cold path.
    pub warm: bool,
    /// True when a hint-less solve started on the dual simplex from the
    /// slack basis and was abandoned to the primal (stall, no entering
    /// column, singular refactorisation, iteration limit).
    pub cold_dual_abandoned: bool,
}

/// Why a warm attempt was abandoned (all funnel into the cold fallback).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarmFail {
    /// Basis refactorisation failed.
    Singular,
    /// Reduced costs violate the resting-bound sign conditions.
    DualInfeasible,
    /// Too many degenerate pivots in a row.
    Stalled,
    /// Iteration limit.
    IterationLimit,
    /// No eligible entering column: a primal-infeasibility certificate that
    /// we deliberately re-verify on the cold path.
    NoEntering,
}

/// Solve `lp`, warm-starting from `hint` when possible. Equivalent to
/// [`simplex::solve_sparse`] in its result; only the path differs.
///
/// Without a hint the solve is *dual-first*: when the all-slack basis is
/// dual feasible (every cost sign agrees with the bound its column rests
/// at — true of every minimise-cost rental model) the dual simplex runs
/// from it, and the two-phase primal is the fallback exactly as it is for
/// a failed warm attempt.
pub fn solve_warm(lp: &StandardLp, hint: Option<&Basis>) -> WarmResult {
    solve_warm_traced(lp, hint, &TraceHandle::off(), SpanId::ROOT)
}

/// [`solve_warm`] with telemetry: the finishing `lp_solved` event carries
/// `warm: true` when the dual path succeeded. Abandoned warm attempts emit
/// nothing — exactly one `lp_solved` is recorded per logical solve.
pub fn solve_warm_traced(
    lp: &StandardLp,
    hint: Option<&Basis>,
    trace: &TraceHandle,
    span: SpanId,
) -> WarmResult {
    let warm = hint.is_some();
    let slack = if warm { None } else { dual_feasible_slack_basis(lp) };
    let mut cold_dual_abandoned = false;
    if let Some(start) = hint.or(slack.as_ref()) {
        if let Some(mut dual) = DualSimplex::from_hint(lp, start) {
            dual.warm = warm;
            dual.trace = trace.clone();
            dual.span = span;
            match dual.run() {
                Ok((raw, basis)) => {
                    return WarmResult { raw, basis, warm, cold_dual_abandoned: false }
                }
                Err(_fail) => cold_dual_abandoned = !warm, // fall through to the primal
            }
        }
    }
    let (raw, basis) = simplex::solve_sparse_snapshot(lp, trace, span);
    WarmResult { raw, basis, warm: false, cold_dual_abandoned }
}

/// The all-slack basis with every structural column resting at a finite
/// bound (lower first), or `None` when that basis is not dual feasible:
/// its duals are zero, so the reduced costs are the costs themselves.
fn dual_feasible_slack_basis(lp: &StandardLp) -> Option<Basis> {
    let mut status = Vec::with_capacity(lp.ncols());
    for j in 0..lp.nstruct {
        let (l, u, c) = (lp.lower[j], lp.upper[j], lp.c[j]);
        let (stat, feasible) = if l.is_finite() {
            (VarStatus::AtLower, c >= -DUAL_TOL)
        } else if u.is_finite() {
            (VarStatus::AtUpper, c <= DUAL_TOL)
        } else {
            (VarStatus::Free, c.abs() <= DUAL_TOL)
        };
        if !feasible && l != u {
            return None;
        }
        status.push(stat);
    }
    status.resize(lp.ncols(), VarStatus::Basic);
    Some(Basis { columns: (lp.nstruct..lp.ncols()).collect(), status })
}

struct DualSimplex<'a> {
    lp: &'a StandardLp,
    engine: SparseEngine,
    m: usize,
    n: usize,
    basis: Vec<usize>,
    vstat: Vec<VStat>,
    /// Value per column (basic values maintained incrementally).
    x: Vec<f64>,
    /// Reduced cost per column (0 for basic columns), maintained
    /// incrementally and recomputed at every refactorisation.
    d: Vec<f64>,
    /// Row `r` of `B⁻¹A` restricted to nonbasic columns: nonzero only on
    /// `touched`.
    alpha: Vec<f64>,
    /// Columns the current pivot row reaches, ascending — the ratio test
    /// and the reduced-cost update visit these and no others.
    touched: Vec<usize>,
    in_touched: Vec<bool>,
    /// `B⁻ᵀe_r` of the current pivot; also the right-hand-side scratch of a
    /// refresh.
    rho: Vec<f64>,
    /// `B⁻¹a_q` of the current pivot; also the dual scratch of a refresh.
    w: Vec<f64>,
    iterations: usize,
    degenerate_run: usize,
    max_iters: usize,
    refactor_period: usize,
    since_refactor: usize,
    /// True right after a refactor + full recompute — a clean state whose
    /// feasibility/optimality conclusions can be trusted.
    clean: bool,
    /// Whether the start basis is the caller's hint (reported by the
    /// closing `lp_solved`); false on the dual-first cold path.
    warm: bool,
    trace: TraceHandle,
    span: SpanId,
}

impl<'a> DualSimplex<'a> {
    /// Rebuild solver state from a basis snapshot; `None` when the hint does
    /// not structurally fit `lp`.
    fn from_hint(lp: &'a StandardLp, hint: &Basis) -> Option<Self> {
        let m = lp.nrows();
        let n = lp.ncols();
        if !hint.fits(m, n) {
            return None;
        }
        let mut vstat = Vec::with_capacity(n);
        for j in 0..n {
            let (l, u) = (lp.lower[j], lp.upper[j]);
            // Reconcile the snapshot status with the *current* bounds: a
            // resting bound may have moved or vanished since the snapshot.
            let stat = match hint.status[j] {
                VarStatus::Basic => VStat::Basic(usize::MAX), // patched below
                VarStatus::AtLower => {
                    if l.is_finite() {
                        VStat::AtLower
                    } else if u.is_finite() {
                        VStat::AtUpper
                    } else {
                        VStat::FreeZero
                    }
                }
                VarStatus::AtUpper => {
                    if u.is_finite() {
                        VStat::AtUpper
                    } else if l.is_finite() {
                        VStat::AtLower
                    } else {
                        VStat::FreeZero
                    }
                }
                VarStatus::Free => {
                    if l.is_finite() {
                        VStat::AtLower
                    } else if u.is_finite() {
                        VStat::AtUpper
                    } else {
                        VStat::FreeZero
                    }
                }
            };
            vstat.push(stat);
        }
        for (r, &j) in hint.columns.iter().enumerate() {
            if !matches!(vstat[j], VStat::Basic(_)) {
                return None; // columns[] disagrees with status[]
            }
            vstat[j] = VStat::Basic(r);
        }
        if vstat.iter().any(|s| matches!(s, VStat::Basic(r) if *r == usize::MAX)) {
            return None; // a status[]-basic column missing from columns[]
        }
        let mut x = vec![0.0; n];
        for j in 0..n {
            if !matches!(vstat[j], VStat::Basic(_)) {
                x[j] = nonbasic_value(vstat[j], lp.lower[j], lp.upper[j]);
            }
        }
        Some(Self {
            lp,
            engine: SparseEngine::new(),
            m,
            n,
            basis: hint.columns.clone(),
            vstat,
            x,
            d: vec![0.0; n],
            alpha: vec![0.0; n],
            touched: Vec::new(),
            in_touched: vec![false; n],
            rho: vec![0.0; m],
            w: vec![0.0; m],
            iterations: 0,
            degenerate_run: 0,
            max_iters: 200 * (m + n) + 10_000,
            refactor_period: 64,
            since_refactor: 0,
            clean: false,
            warm: true,
            trace: TraceHandle::off(),
            span: SpanId::ROOT,
        })
    }

    fn run(&mut self) -> Result<(RawResult, Option<Basis>), WarmFail> {
        self.refresh(WarmFail::Singular, "warm_initial")?;
        if !self.dual_feasible() {
            return Err(WarmFail::DualInfeasible);
        }
        loop {
            if self.iterations >= self.max_iters {
                return Err(WarmFail::IterationLimit);
            }
            let leaving = self.most_violated_row();
            let (r, below) = match leaving {
                Some(rb) => rb,
                None => {
                    // Primal feasible. Trust it only from a clean state:
                    // incremental drift must not declare false optimality.
                    if self.clean {
                        return Ok(self.finish());
                    }
                    self.refresh(WarmFail::Singular, "confirm")?;
                    continue;
                }
            };

            self.pivot_row(r);
            let entering = self.ratio_test(below);
            let q = match entering {
                Some(q) => q,
                None => {
                    // No entering column: the violated row proves primal
                    // infeasibility — but only trust a clean state, and even
                    // then hand the verdict to the cold path (see module doc).
                    if self.clean {
                        return Err(WarmFail::NoEntering);
                    }
                    self.refresh(WarmFail::Singular, "confirm")?;
                    continue;
                }
            };
            self.pivot(r, below, q)?;
        }
    }

    /// Refactorise and recompute basic values + reduced costs from scratch.
    fn refresh(&mut self, on_singular: WarmFail, reason: &'static str) -> Result<(), WarmFail> {
        if self.engine.refactor(&self.lp.a, &self.basis).is_err() {
            return Err(on_singular);
        }
        self.since_refactor = 0;
        if self.trace.is_enabled() {
            self.trace.emit(
                self.span,
                EventKind::Refactored {
                    iter: self.iterations,
                    nnz: self.engine.factor_nnz(),
                    reason,
                },
            );
        }
        self.recompute_basic_values();
        self.recompute_duals();
        self.clean = true;
        Ok(())
    }

    /// x_B = B⁻¹ (b − N x_N)
    fn recompute_basic_values(&mut self) {
        let lp = self.lp;
        let rhs = &mut self.rho;
        rhs.copy_from_slice(&lp.b);
        for j in 0..self.n {
            if !matches!(self.vstat[j], VStat::Basic(_)) {
                let v = self.x[j];
                if v != 0.0 {
                    lp.a.col_axpy(j, -v, rhs);
                }
            }
        }
        self.engine.ftran(rhs);
        for (r, &j) in self.basis.iter().enumerate() {
            self.x[j] = rhs[r];
        }
    }

    /// y = B⁻ᵀ c_B; d_j = c_j − a_j·y (0 for basic columns).
    fn recompute_duals(&mut self) {
        let lp = self.lp;
        let y = &mut self.w;
        for (r, &j) in self.basis.iter().enumerate() {
            y[r] = lp.c[j];
        }
        self.engine.btran(y);
        for j in 0..self.n {
            self.d[j] = if matches!(self.vstat[j], VStat::Basic(_)) {
                0.0
            } else {
                lp.c[j] - lp.a.col_dot(j, y)
            };
        }
    }

    /// Pivot row `r`: `rho = B⁻ᵀe_r`, then `alpha_j = a_j·rho` for nonbasic
    /// `j`, formed from the rows of `A` where `rho` is nonzero. Each
    /// `alpha_j` sums its terms in ascending row order — as a column dot
    /// product would — so the row is that of the dense computation, bit for
    /// bit.
    fn pivot_row(&mut self, r: usize) {
        for &j in &self.touched {
            self.alpha[j] = 0.0;
            self.in_touched[j] = false;
        }
        self.touched.clear();
        self.rho.fill(0.0);
        self.rho[r] = 1.0;
        self.engine.btran(&mut self.rho);
        let rows = self.lp.rows();
        for (i, &v) in self.rho.iter().enumerate() {
            if v != 0.0 {
                for (j, a_ij) in rows.row_iter(i) {
                    if matches!(self.vstat[j], VStat::Basic(_)) {
                        continue;
                    }
                    if !self.in_touched[j] {
                        self.in_touched[j] = true;
                        self.touched.push(j);
                    }
                    self.alpha[j] += v * a_ij;
                }
            }
        }
        self.touched.sort_unstable();
        #[cfg(test)]
        self.assert_pivot_row_matches_dense(r);
    }

    /// The pivot row as the dense kernel computed it — one column dot
    /// product per nonbasic column — kept as the reference the sparse row
    /// must equal on every iteration.
    #[cfg(test)]
    fn assert_pivot_row_matches_dense(&self, r: usize) {
        for j in 0..self.n {
            let dense = if matches!(self.vstat[j], VStat::Basic(_)) {
                0.0
            } else {
                self.lp.a.col_dot(j, &self.rho)
            };
            assert!(
                dense == self.alpha[j],
                "iteration {}, row {r}, column {j}: dense {dense:e} vs sparse {:e}",
                self.iterations,
                self.alpha[j]
            );
            assert!(dense == 0.0 || self.in_touched[j], "column {j} missing from touched");
        }
        assert!(self.touched.windows(2).all(|p| p[0] < p[1]), "touched not ascending");
    }

    /// Check the resting-bound sign conditions on the reduced costs.
    fn dual_feasible(&self) -> bool {
        let lp = self.lp;
        (0..self.n).all(|j| {
            if lp.lower[j] == lp.upper[j] {
                return true; // fixed columns carry no sign condition
            }
            match self.vstat[j] {
                VStat::Basic(_) => true,
                VStat::AtLower => self.d[j] >= -DUAL_TOL,
                VStat::AtUpper => self.d[j] <= DUAL_TOL,
                VStat::FreeZero => self.d[j].abs() <= DUAL_TOL,
            }
        })
    }

    /// Leaving-row choice: the basic variable most outside its bounds.
    /// Returns `(row, below_lower?)`.
    fn most_violated_row(&self) -> Option<(usize, bool)> {
        let lp = self.lp;
        let mut best: Option<(usize, bool, f64)> = None;
        for (r, &j) in self.basis.iter().enumerate() {
            let v = self.x[j];
            let below = lp.lower[j] - v;
            let above = v - lp.upper[j];
            let (viol, is_below) = if below >= above { (below, true) } else { (above, false) };
            if viol > FEAS_TOL && best.is_none_or(|(_, _, b)| viol > b) {
                best = Some((r, is_below, viol));
            }
        }
        best.map(|(r, is_below, _)| (r, is_below))
    }

    /// Dual ratio test over the touched columns of `self.alpha` (every
    /// other entry is zero, hence ineligible): among sign-eligible nonbasic
    /// columns, pick the one minimising |d_j / alpha_j| (tie-break: larger
    /// pivot magnitude, then lower column). `below` is the leaving
    /// variable's violation side.
    fn ratio_test(&self, below: bool) -> Option<usize> {
        const TIE: f64 = 1e-9;
        let lp = self.lp;
        let mut best: Option<(usize, f64, f64)> = None; // (col, ratio, |alpha|)
        for &j in &self.touched {
            if lp.lower[j] == lp.upper[j] {
                continue; // fixed columns cannot enter
            }
            let a = self.alpha[j];
            let eligible = match self.vstat[j] {
                VStat::Basic(_) => false,
                // Raising the leaving variable (below its lower bound) needs
                // x_p' = … − alpha_j·x_j to increase along the entering
                // variable's allowed direction; mirrored when above.
                VStat::AtLower => {
                    if below {
                        a < -DPIV_TOL
                    } else {
                        a > DPIV_TOL
                    }
                }
                VStat::AtUpper => {
                    if below {
                        a > DPIV_TOL
                    } else {
                        a < -DPIV_TOL
                    }
                }
                VStat::FreeZero => a.abs() > DPIV_TOL,
            };
            if !eligible {
                continue;
            }
            let ratio = self.d[j].abs() / a.abs();
            let better = match best {
                None => true,
                Some((_, rb, ab)) => ratio < rb - TIE || (ratio <= rb + TIE && a.abs() > ab),
            };
            if better {
                best = Some((j, ratio, a.abs()));
            }
        }
        best.map(|(j, _, _)| j)
    }

    /// Exchange basis row `r`'s variable (leaving to the violated bound)
    /// with entering column `q`, updating duals, primal values and factors.
    fn pivot(&mut self, r: usize, below: bool, q: usize) -> Result<(), WarmFail> {
        let lp = self.lp;
        let p = self.basis[r];
        let target = if below { lp.lower[p] } else { lp.upper[p] };
        let aq = self.alpha[q];

        // Dual step: keeps every nonbasic reduced cost sign-feasible.
        let theta = self.d[q] / aq;
        for &j in &self.touched {
            self.d[j] -= theta * self.alpha[j];
        }
        self.d[q] = 0.0;
        self.d[p] = -theta;

        // Primal step along the entering column.
        let dq = (self.x[p] - target) / aq;
        self.w.fill(0.0);
        for (i, v) in lp.a.col_iter(q) {
            self.w[i] = v;
        }
        self.engine.ftran(&mut self.w);
        for (i, &v) in self.w.iter().enumerate() {
            if v != 0.0 {
                self.x[self.basis[i]] -= dq * v;
            }
        }
        self.x[q] += dq;
        self.x[p] = target;

        self.vstat[p] =
            if below || lp.lower[p] == lp.upper[p] { VStat::AtLower } else { VStat::AtUpper };
        self.vstat[q] = VStat::Basic(r);
        self.basis[r] = q;
        self.clean = false;

        if theta.abs() <= 1e-12 {
            self.degenerate_run += 1;
            if self.degenerate_run > STALL_LIMIT {
                return Err(WarmFail::Stalled);
            }
        } else {
            self.degenerate_run = 0;
        }

        let update_rejected = self.engine.update(r, &self.w).is_err();
        if update_rejected || self.since_refactor + 1 >= self.refactor_period {
            self.refresh(
                WarmFail::Singular,
                if update_rejected { "update_rejected" } else { "periodic" },
            )?;
        } else {
            self.since_refactor += 1;
        }
        self.iterations += 1;
        Ok(())
    }

    fn finish(&mut self) -> (RawResult, Option<Basis>) {
        let status = Status::Optimal;
        if self.trace.is_enabled() {
            self.trace.emit(
                self.span,
                EventKind::LpSolved {
                    iters: self.iterations,
                    status: status_tag(status),
                    warm: self.warm,
                },
            );
        }
        let lp = self.lp;
        let mut y = vec![0.0f64; self.m];
        for (r, &j) in self.basis.iter().enumerate() {
            y[r] = lp.c[j];
        }
        self.engine.btran(&mut y);
        let mut d = vec![0.0f64; self.n];
        for j in 0..self.n {
            d[j] = lp.c[j] - lp.a.col_dot(j, &y);
        }
        let basis = simplex::snapshot(&self.basis, &self.vstat);
        (RawResult { status, x: self.x.clone(), y, d, iterations: self.iterations }, Some(basis))
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use rrp_trace::RingSink;

    use super::*;
    use crate::model::{Cmp, Model, Sense};

    /// Lot-sizing relaxation (the DRRP skeleton) with capacity `cap`:
    /// columns x_t = 3t, y_t = 3t+1, s_t = 3t+2.
    fn lot_sizing(horizon: usize, cap: f64) -> StandardLp {
        let mut m = Model::new(Sense::Minimize);
        let mut cols = Vec::new();
        for t in 0..horizon {
            let tf = t as f64;
            let x = m.add_var(0.0, cap, 0.3 + 0.05 * (tf % 3.0), &format!("x{t}"));
            let y = m.add_var(0.0, 1.0, 2.0 + (tf % 4.0), &format!("y{t}"));
            let s = m.add_var(0.0, f64::INFINITY, 0.1 + 0.02 * tf, &format!("s{t}"));
            cols.push((x, y, s));
        }
        for (t, &(x, y, s)) in cols.iter().enumerate() {
            let mut terms = vec![(x, 1.0), (s, -1.0)];
            if t > 0 {
                terms.push((cols[t - 1].2, 1.0));
            }
            m.add_con(&terms, Cmp::Eq, 0.5 + 0.25 * ((t * 7) % 5) as f64);
            m.add_con(&[(x, 1.0), (y, -cap)], Cmp::Le, 0.0);
        }
        m.to_standard()
    }

    /// Facility-location covering LP over a complete binary tree of the
    /// given depth — the shape of the SRRP deterministic equivalent: vertex
    /// `v` may serve any descendant `w` (`y[v,w] ≤ chi[v]`), and every
    /// vertex is served exactly once from its root path.
    fn tree_covering(depth: u32) -> StandardLp {
        let n = (1usize << depth) - 1;
        let mut m = Model::new(Sense::Minimize);
        let chi: Vec<_> = (0..n)
            .map(|v| m.add_var(0.0, 1.0, 1.0 + (v % 5) as f64 * 0.37, &format!("chi{v}")))
            .collect();
        for w in 0..n {
            let mut path = vec![w];
            while let Some(&v) = path.last().filter(|&&v| v > 0) {
                path.push((v - 1) / 2);
            }
            let mut cover = Vec::new();
            for (hops, &v) in path.iter().enumerate() {
                let y = m.add_var(0.0, 1.0, 0.2 * hops as f64, &format!("y{v}_{w}"));
                m.add_con(&[(y, 1.0), (chi[v], -1.0)], Cmp::Le, 0.0);
                cover.push((y, 1.0));
            }
            m.add_con(&cover, Cmp::Eq, 1.0);
        }
        m.to_standard()
    }

    fn objective(lp: &StandardLp, x: &[f64]) -> f64 {
        x.iter().zip(&lp.c).map(|(x, c)| x * c).sum()
    }

    /// Every dual iteration below runs `assert_pivot_row_matches_dense`:
    /// the row built from the rows of `A` where `rho ≠ 0` must equal the
    /// column-dot-product row, entry for entry, on cold starts from the
    /// slack basis and on warm re-solves after branching-style tightenings.
    #[test]
    fn sparse_pivot_row_equals_dense_reference_on_fixed_instances() {
        let mut pivots = 0;
        let instances = [
            lot_sizing(4, 3.0),
            lot_sizing(9, 2.5),
            lot_sizing(16, 4.0),
            tree_covering(3),
            tree_covering(5),
        ];
        for lp in &instances {
            let cold = solve_warm(lp, None);
            assert_eq!(cold.raw.status, Status::Optimal);
            assert!(!cold.cold_dual_abandoned, "these slack bases are dual feasible");
            let primal = simplex::solve_sparse(lp);
            let (zc, zp) = (objective(lp, &cold.raw.x), objective(lp, &primal.x));
            assert!((zc - zp).abs() <= 1e-7 * (1.0 + zp.abs()), "dual {zc} vs primal {zp}");
            pivots += cold.raw.iterations;

            // fix the first fractional column up and down, as B&B would
            let basis = cold.basis.expect("optimal solve snapshots its basis");
            let fractional = |j: &usize| (cold.raw.x[*j] - cold.raw.x[*j].round()).abs() > 1e-6;
            let Some(j) = (0..lp.nstruct).find(fractional) else {
                continue;
            };
            let v = cold.raw.x[j];
            for (lower, upper) in [(lp.lower[j], v.floor()), (v.ceil(), lp.upper[j])] {
                if lower > upper {
                    continue; // B&B prunes a crossed box without an LP
                }
                let mut child = lp.clone();
                child.lower[j] = lower;
                child.upper[j] = upper;
                let warm = solve_warm(&child, Some(&basis));
                assert_eq!(warm.raw.status, simplex::solve_sparse(&child).status);
                pivots += warm.raw.iterations;
            }
        }
        assert!(pivots > 100, "the instance set must exercise the dual kernel ({pivots} pivots)");
    }

    fn lp_solved_events(lp: &StandardLp, hint: Option<&Basis>) -> (WarmResult, Vec<EventKind>) {
        let sink = Arc::new(RingSink::new(4096));
        let trace = TraceHandle::new(sink.clone());
        let result = solve_warm_traced(lp, hint, &trace, SpanId::ROOT);
        let events = sink.drain().into_iter().map(|e| e.kind).collect();
        (result, events)
    }

    /// A hint-less solve that finishes on the dual path still reads as a
    /// cold solve everywhere telemetry looks: `warm == false`, one
    /// `lp_solved{warm:false}`, and not one primal iteration.
    #[test]
    fn dual_first_cold_start_reports_cold() {
        let lp = tree_covering(4);
        let (cold, events) = lp_solved_events(&lp, None);
        assert!(!cold.warm && !cold.cold_dual_abandoned);
        let solved: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                EventKind::LpSolved { warm, .. } => Some(*warm),
                _ => None,
            })
            .collect();
        assert_eq!(solved, vec![false], "exactly one lp_solved, reporting cold");
        assert!(
            !events.iter().any(|e| matches!(e, EventKind::SimplexIter { .. })),
            "the primal must not have run"
        );

        // the same LP from its own basis is a warm hit and says so
        let basis = cold.basis.expect("optimal");
        let (warm, events) = lp_solved_events(&lp, Some(&basis));
        assert!(warm.warm && !warm.cold_dual_abandoned);
        assert!(events.iter().any(|e| matches!(e, EventKind::LpSolved { warm: true, .. })));
    }

    /// Negative costs make the slack basis dual infeasible: the solve goes
    /// straight to the primal and nothing counts as an abandoned dual start.
    #[test]
    fn dual_infeasible_slack_basis_goes_straight_to_the_primal() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, 4.0, 3.0, "x");
        let y = m.add_var(0.0, 4.0, 2.0, "y");
        m.add_con(&[(x, 1.0), (y, 1.0)], Cmp::Le, 5.0);
        let lp = m.to_standard();
        assert!(dual_feasible_slack_basis(&lp).is_none());
        let (cold, events) = lp_solved_events(&lp, None);
        assert_eq!(cold.raw.status, Status::Optimal);
        assert!(!cold.warm && !cold.cold_dual_abandoned);
        assert!((objective(&lp, &cold.raw.x) + 14.0).abs() < 1e-9);
        assert!(events.iter().any(|e| matches!(e, EventKind::SimplexIter { .. })));
    }
}
