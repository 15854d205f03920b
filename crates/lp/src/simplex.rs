//! Bounded-variable two-phase primal simplex, generic over a basis engine.
//!
//! Phase 1 minimises the total bound violation of the basic variables
//! starting from the all-slack basis (which is always structurally valid
//! because every row carries a slack). Phase 2 minimises the true objective.
//! Both phases share one iteration kernel differing only in the cost vector
//! and in how infeasible basic variables block the ratio test.
//!
//! Anti-cycling: Dantzig pricing by default, switching to Bland's rule after
//! a run of degenerate pivots. Periodic refactorisation recomputes the basic
//! solution from scratch for numerical hygiene.

use rrp_trace::{EventKind, SpanId, TraceHandle};

use crate::engine::{BasisEngine, DenseEngine, SparseEngine};
use crate::model::StandardLp;
use crate::solution::Status;
use crate::{FEAS_TOL, OPT_TOL};

/// Emit a sampled `simplex_iter` event every this many iterations when a
/// trace is attached (keeps large solves from flooding the sink).
const ITER_SAMPLE: usize = 32;

/// Raw solver outcome in standard-form space (includes slack columns).
#[derive(Debug, Clone)]
pub struct RawResult {
    pub status: Status,
    /// Value per standard-form column.
    pub x: Vec<f64>,
    /// Dual per row.
    pub y: Vec<f64>,
    /// Reduced cost per standard-form column.
    pub d: Vec<f64>,
    pub iterations: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VStat {
    Basic(usize),
    AtLower,
    AtUpper,
    /// Free nonbasic variable resting at zero.
    FreeZero,
}

/// Where a standard-form column rests in a basis snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarStatus {
    /// In the basis (its row is recorded in [`Basis::columns`]).
    Basic,
    AtLower,
    AtUpper,
    /// Free nonbasic column resting at zero.
    Free,
}

/// A simplex basis snapshot: which column is basic in each row plus the
/// resting status of every column. Captured from an optimal [`Simplex`] run
/// and fed to [`crate::dual::solve_warm`] — after a bound change the basis
/// stays *dual* feasible (reduced costs depend only on `A` and `c`), so the
/// dual simplex re-solves in a handful of pivots instead of a cold
/// two-phase primal run.
#[derive(Debug, Clone, PartialEq)]
pub struct Basis {
    /// Basic column per row (`columns[r]` is basic in row `r`); length m.
    pub columns: Vec<usize>,
    /// Resting status per standard-form column; length n.
    pub status: Vec<VarStatus>,
}

impl Basis {
    /// Whether this snapshot structurally fits an m-row, n-column LP.
    pub fn fits(&self, m: usize, n: usize) -> bool {
        self.columns.len() == m && self.status.len() == n && self.columns.iter().all(|&j| j < n)
    }
}

/// Solve with the sparse LU engine.
pub fn solve_sparse(lp: &StandardLp) -> RawResult {
    solve_with(lp, SparseEngine::new())
}

/// Solve with the dense reference engine.
pub fn solve_dense(lp: &StandardLp) -> RawResult {
    solve_with(lp, DenseEngine::new())
}

/// Cold solve from the all-slack basis with two-phase primal simplex. This
/// entry point never reuses a basis — warm re-solves after bound changes go
/// through [`crate::dual::solve_warm`], which starts from a [`Basis`]
/// snapshot and falls back here when the hint is unusable.
pub fn solve_with<E: BasisEngine>(lp: &StandardLp, engine: E) -> RawResult {
    Simplex::new(lp, engine).run().0
}

/// [`solve_sparse`] with telemetry: sampled `simplex_iter` events,
/// `refactored` basis events, and a closing `lp_solved` into `span`.
pub fn solve_sparse_traced(lp: &StandardLp, trace: &TraceHandle, span: SpanId) -> RawResult {
    solve_with_traced(lp, SparseEngine::new(), trace, span)
}

/// [`solve_dense`] with telemetry.
pub fn solve_dense_traced(lp: &StandardLp, trace: &TraceHandle, span: SpanId) -> RawResult {
    solve_with_traced(lp, DenseEngine::new(), trace, span)
}

/// [`solve_with`] with telemetry. A disabled handle costs one branch per
/// emission site — callers without a trace should still prefer the
/// un-traced entry points for clarity.
pub fn solve_with_traced<E: BasisEngine>(
    lp: &StandardLp,
    engine: E,
    trace: &TraceHandle,
    span: SpanId,
) -> RawResult {
    let mut s = Simplex::new(lp, engine);
    s.trace = trace.clone();
    s.span = span;
    s.run().0
}

/// Cold sparse solve that also returns the final [`Basis`] snapshot
/// (`Some` only when the solve ended [`Status::Optimal`]).
pub fn solve_sparse_snapshot(
    lp: &StandardLp,
    trace: &TraceHandle,
    span: SpanId,
) -> (RawResult, Option<Basis>) {
    let mut s = Simplex::new(lp, SparseEngine::new());
    s.trace = trace.clone();
    s.span = span;
    s.run()
}

struct Simplex<'a, E: BasisEngine> {
    lp: &'a StandardLp,
    engine: E,
    m: usize,
    n: usize,
    basis: Vec<usize>,
    vstat: Vec<VStat>,
    x: Vec<f64>,
    /// Right-hand-side scratch of [`Self::recompute_basic_values`].
    rhs: Vec<f64>,
    iterations: usize,
    degenerate_run: usize,
    bland: bool,
    max_iters: usize,
    refactor_period: usize,
    since_refactor: usize,
    trace: TraceHandle,
    span: SpanId,
}

impl<'a, E: BasisEngine> Simplex<'a, E> {
    fn new(lp: &'a StandardLp, engine: E) -> Self {
        let m = lp.nrows();
        let n = lp.ncols();
        Self {
            lp,
            engine,
            m,
            n,
            basis: Vec::new(),
            vstat: Vec::new(),
            x: vec![0.0; n],
            rhs: vec![0.0; m],
            iterations: 0,
            degenerate_run: 0,
            bland: false,
            max_iters: 400 * (m + n) + 20_000,
            refactor_period: 64,
            since_refactor: 0,
            trace: TraceHandle::off(),
            span: SpanId::ROOT,
        }
    }

    fn run(mut self) -> (RawResult, Option<Basis>) {
        if let Err(st) = self.init_slack_basis() {
            return self.finish(st);
        }
        // Phase 1
        match self.iterate(true) {
            Ok(()) => {}
            Err(st) => return self.finish(st),
        }
        if self.total_infeasibility() > FEAS_TOL * (1.0 + self.m as f64) {
            return self.finish(Status::Infeasible);
        }
        // Phase 2
        match self.iterate(false) {
            Ok(()) => self.finish(Status::Optimal),
            Err(st) => self.finish(st),
        }
    }

    fn init_slack_basis(&mut self) -> Result<(), Status> {
        let lp = self.lp;
        self.basis = (0..self.m).map(|i| lp.nstruct + i).collect();
        self.vstat = vec![VStat::AtLower; self.n];
        for j in 0..self.n {
            let (l, u) = (lp.lower[j], lp.upper[j]);
            self.vstat[j] = if l.is_finite() {
                VStat::AtLower
            } else if u.is_finite() {
                VStat::AtUpper
            } else {
                VStat::FreeZero
            };
            self.x[j] = nonbasic_value(self.vstat[j], l, u);
        }
        for (r, &j) in self.basis.iter().enumerate() {
            self.vstat[j] = VStat::Basic(r);
        }
        if self.engine.refactor(&lp.a, &self.basis).is_err() {
            return Err(Status::Numerical);
        }
        self.since_refactor = 0;
        self.emit_refactored("initial");
        self.recompute_basic_values();
        Ok(())
    }

    fn emit_refactored(&self, reason: &'static str) {
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
    }

    /// Objective value of the current point (telemetry only).
    fn current_objective(&self) -> f64 {
        let lp = self.lp;
        (0..self.n).map(|j| lp.c[j] * self.x[j]).sum()
    }

    /// x_B = B⁻¹ (b − N x_N)
    fn recompute_basic_values(&mut self) {
        let lp = self.lp;
        let rhs = &mut self.rhs;
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

    fn total_infeasibility(&self) -> f64 {
        let lp = self.lp;
        self.basis
            .iter()
            .map(|&j| {
                let v = self.x[j];
                (lp.lower[j] - v).max(0.0) + (v - lp.upper[j]).max(0.0)
            })
            .sum()
    }

    /// Phase-1 cost for the basic variable of row `r`: −1 below lower,
    /// +1 above upper, 0 when feasible.
    fn phase1_costs(&self, out: &mut [f64]) {
        let lp = self.lp;
        for (r, &j) in self.basis.iter().enumerate() {
            let v = self.x[j];
            out[r] = if v < lp.lower[j] - FEAS_TOL {
                -1.0
            } else if v > lp.upper[j] + FEAS_TOL {
                1.0
            } else {
                0.0
            };
        }
    }

    fn iterate(&mut self, phase1: bool) -> Result<(), Status> {
        let lp = self.lp;
        let mut cb = vec![0.0f64; self.m];
        let mut y = vec![0.0f64; self.m];
        let mut d = vec![0.0f64; self.m];

        loop {
            if self.iterations >= self.max_iters {
                return Err(Status::IterationLimit);
            }
            if phase1 && self.total_infeasibility() <= FEAS_TOL {
                return Ok(());
            }
            if self.trace.is_enabled() && self.iterations.is_multiple_of(ITER_SAMPLE) {
                self.trace.emit(
                    self.span,
                    EventKind::SimplexIter {
                        phase: if phase1 { 1 } else { 2 },
                        iter: self.iterations,
                        objective: self.current_objective(),
                    },
                );
            }

            // y = B⁻ᵀ c_B
            if phase1 {
                self.phase1_costs(&mut cb);
            } else {
                for (r, &j) in self.basis.iter().enumerate() {
                    cb[r] = lp.c[j];
                }
            }
            y.copy_from_slice(&cb);
            self.engine.btran(&mut y);

            // Pricing. No entering column ends the phase: optimal in phase
            // 2; in phase 1 the caller reads the residual infeasibility.
            let Some((q, sigma)) = self.price(phase1, &y) else {
                return Ok(());
            };

            // d = B⁻¹ a_q
            for v in d.iter_mut() {
                *v = 0.0;
            }
            for (i, v) in lp.a.col_iter(q) {
                d[i] = v;
            }
            self.engine.ftran(&mut d);

            // Ratio test.
            let step = self.ratio_test(phase1, q, sigma, &d);
            let (t, leave) = match step {
                RatioOutcome::Unbounded => {
                    if phase1 {
                        // Infeasibility is bounded below by zero; an
                        // unbounded ray here means numerical trouble.
                        return Err(Status::Numerical);
                    }
                    return Err(Status::Unbounded);
                }
                RatioOutcome::BoundFlip(t) => (t, None),
                RatioOutcome::Pivot(t, r, to_upper) => (t, Some((r, to_upper))),
            };

            // Apply the step.
            if t.abs() <= 1e-12 {
                self.degenerate_run += 1;
                if self.degenerate_run > 100 {
                    self.bland = true;
                }
            } else {
                self.degenerate_run = 0;
            }
            self.x[q] += sigma * t;
            for (r, &j) in self.basis.iter().enumerate() {
                self.x[j] -= sigma * t * d[r];
            }

            match leave {
                None => {
                    // bound flip of the entering variable
                    self.vstat[q] = match self.vstat[q] {
                        VStat::AtLower => VStat::AtUpper,
                        VStat::AtUpper => VStat::AtLower,
                        other => other,
                    };
                    // snap exactly to the bound
                    self.x[q] = nonbasic_value(self.vstat[q], lp.lower[q], lp.upper[q]);
                }
                Some((r, to_upper)) => {
                    let leaving = self.basis[r];
                    self.vstat[leaving] = if lp.lower[leaving] == lp.upper[leaving] {
                        VStat::AtLower
                    } else if to_upper {
                        VStat::AtUpper
                    } else if lp.lower[leaving].is_finite() {
                        VStat::AtLower
                    } else {
                        VStat::AtUpper
                    };
                    self.x[leaving] =
                        nonbasic_value(self.vstat[leaving], lp.lower[leaving], lp.upper[leaving]);
                    self.basis[r] = q;
                    self.vstat[q] = VStat::Basic(r);
                    let update_rejected = self.engine.update(r, &d).is_err();
                    if update_rejected || self.since_refactor + 1 >= self.refactor_period {
                        if self.engine.refactor(&lp.a, &self.basis).is_err() {
                            return Err(Status::Numerical);
                        }
                        self.since_refactor = 0;
                        self.emit_refactored(if update_rejected {
                            "update_rejected"
                        } else {
                            "periodic"
                        });
                        self.recompute_basic_values();
                    } else {
                        self.since_refactor += 1;
                    }
                }
            }

            self.iterations += 1;
        }
    }

    /// Choose the entering column. Returns `(column, direction)`.
    fn price(&self, phase1: bool, y: &[f64]) -> Option<(usize, f64)> {
        let lp = self.lp;
        let mut best: Option<(usize, f64, f64)> = None; // (column, direction, |d_j|)
        for j in 0..self.n {
            let stat = self.vstat[j];
            if matches!(stat, VStat::Basic(_)) {
                continue;
            }
            if lp.lower[j] == lp.upper[j] {
                continue; // fixed variable can never move
            }
            let cj = if phase1 { 0.0 } else { lp.c[j] };
            let dj = cj - lp.a.col_dot(j, y);
            let (eligible, sigma) = match stat {
                VStat::AtLower => (dj < -OPT_TOL, 1.0),
                VStat::AtUpper => (dj > OPT_TOL, -1.0),
                VStat::FreeZero => {
                    if dj < -OPT_TOL {
                        (true, 1.0)
                    } else if dj > OPT_TOL {
                        (true, -1.0)
                    } else {
                        (false, 1.0)
                    }
                }
                VStat::Basic(_) => unreachable!(),
            };
            if !eligible {
                continue;
            }
            if self.bland {
                return Some((j, sigma));
            }
            let score = dj.abs();
            match best {
                Some((_, _, b)) if b >= score => {}
                _ => best = Some((j, sigma, score)),
            }
        }
        best.map(|(j, sigma, _)| (j, sigma))
    }

    fn ratio_test(&self, phase1: bool, q: usize, sigma: f64, d: &[f64]) -> RatioOutcome {
        const TIE: f64 = 1e-9;
        let lp = self.lp;

        // The entering variable itself blocks at its opposite bound.
        let room = match self.vstat[q] {
            VStat::AtLower | VStat::AtUpper => lp.upper[q] - lp.lower[q],
            VStat::FreeZero => f64::INFINITY,
            VStat::Basic(_) => unreachable!(),
        };

        let mut t_best = f64::INFINITY;
        let mut leave: Option<(usize, bool)> = None; // (row, leaving-to-upper)
        let mut best_pivot_mag = 0.0f64;

        for (r, &dr) in d.iter().enumerate() {
            let delta = -sigma * dr; // rate of change of this basic variable
            if delta.abs() <= 1e-11 {
                continue;
            }
            let j = self.basis[r];
            let v = self.x[j];
            let (l, u) = (lp.lower[j], lp.upper[j]);
            // (blocking step, variable ends at upper?)
            let below = v < l - FEAS_TOL;
            let above = v > u + FEAS_TOL;
            let (t_block, to_upper) = if delta > 0.0 {
                if phase1 && below {
                    // infeasible below, moving up: blocks on reaching l
                    ((l - v) / delta, false)
                } else if phase1 && above {
                    // already above upper and moving further up: the linear
                    // worsening is priced into the phase-1 gradient; no block
                    continue;
                } else if u.is_finite() {
                    ((u - v) / delta, true)
                } else {
                    continue;
                }
            } else if phase1 && above {
                // infeasible above, moving down: blocks on reaching u
                ((u - v) / delta, true)
            } else if phase1 && below {
                // already below lower and moving further down: no block
                continue;
            } else if l.is_finite() {
                ((l - v) / delta, false)
            } else {
                continue;
            };
            let t_block = t_block.max(0.0);
            let better =
                t_block < t_best - TIE || (t_block <= t_best + TIE && dr.abs() > best_pivot_mag);
            if better {
                t_best = t_block;
                best_pivot_mag = dr.abs();
                leave = Some((r, to_upper));
            }
        }

        if t_best >= room - TIE {
            // The entering variable reaches its opposite bound first (or no
            // basic variable blocks at all).
            if room.is_finite() {
                return RatioOutcome::BoundFlip(room);
            }
            if leave.is_none() {
                return RatioOutcome::Unbounded;
            }
        }
        match leave {
            Some((r, to_upper)) => RatioOutcome::Pivot(t_best, r, to_upper),
            None => RatioOutcome::Unbounded,
        }
    }

    fn finish(mut self, status: Status) -> (RawResult, Option<Basis>) {
        if self.trace.is_enabled() {
            self.trace.emit(
                self.span,
                EventKind::LpSolved {
                    iters: self.iterations,
                    status: status_tag(status),
                    warm: false,
                },
            );
        }
        let lp = self.lp;
        // Final duals and reduced costs from the true objective.
        let mut y = vec![0.0f64; self.m];
        let mut d = vec![0.0f64; self.n];
        let mut basis = None;
        if status == Status::Optimal {
            let mut cb = vec![0.0f64; self.m];
            for (r, &j) in self.basis.iter().enumerate() {
                cb[r] = lp.c[j];
            }
            y.copy_from_slice(&cb);
            self.engine.btran(&mut y);
            for j in 0..self.n {
                d[j] = lp.c[j] - lp.a.col_dot(j, &y);
            }
            basis = Some(snapshot(&self.basis, &self.vstat));
        }
        (RawResult { status, x: self.x, y, d, iterations: self.iterations }, basis)
    }
}

/// Capture the public [`Basis`] form of a solver's internal basis state.
pub(crate) fn snapshot(basis: &[usize], vstat: &[VStat]) -> Basis {
    let status = vstat
        .iter()
        .map(|s| match s {
            VStat::Basic(_) => VarStatus::Basic,
            VStat::AtLower => VarStatus::AtLower,
            VStat::AtUpper => VarStatus::AtUpper,
            VStat::FreeZero => VarStatus::Free,
        })
        .collect();
    Basis { columns: basis.to_vec(), status }
}

/// Snake_case status tag used in trace events.
pub(crate) fn status_tag(status: Status) -> &'static str {
    match status {
        Status::Optimal => "optimal",
        Status::Infeasible => "infeasible",
        Status::Unbounded => "unbounded",
        Status::IterationLimit => "iteration_limit",
        Status::Numerical => "numerical",
    }
}

enum RatioOutcome {
    Unbounded,
    /// The entering variable travels to its opposite bound; no basis change.
    BoundFlip(f64),
    /// Pivot: step length, leaving row, leaving variable ends at upper bound.
    Pivot(f64, usize, bool),
}

pub(crate) fn nonbasic_value(stat: VStat, l: f64, u: f64) -> f64 {
    match stat {
        VStat::AtLower => l,
        VStat::AtUpper => u,
        VStat::FreeZero => 0.0,
        VStat::Basic(_) => unreachable!("nonbasic_value on basic"),
    }
}
