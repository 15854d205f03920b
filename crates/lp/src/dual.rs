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
//! A solve runs in a [`Workspace`]: the basis, the values, the pivot-row
//! scratch and the LU buffers it keeps between solves, so a branch & bound
//! search that owns one re-solves its nodes from their parents' bases
//! without allocating. A solve refactorises at its start — unless the
//! workspace's previous start had the same basis columns on the same `A`
//! and `c`, whose factors and reduced costs it then reloads (see
//! [`Workspace`]) — every 64 pivots, on a rejected update and nowhere
//! else: before a feasibility verdict is trusted it recomputes `x_B` from
//! the current factors, and refactorises only if the recomputed basic
//! values drifted more than [`FEAS_TOL`] from the incrementally updated
//! ones. The reduced costs are recomputed lazily,
//! only when a ratio test with an eligible column needs them.
//! [`solve_warm`] is one solve in a fresh workspace.
//!
//! The dual path is an optimisation, never a correctness dependency: any
//! structural mismatch, singular refactorisation, dual-infeasible start,
//! stall, or doubtful infeasibility certificate abandons the attempt and
//! falls back to the two-phase primal ([`simplex::solve_sparse_snapshot`]).
//! An infeasibility *verdict* is taken from the dual path only from a
//! certificate re-checked against `A`, `b` and the node's bounds: when a
//! violated row `r` has no eligible entering column in a clean state,
//! `y = B⁻ᵀe_r` is a Farkas row, and the solve ends [`Status::Infeasible`]
//! only if the box range of `g·x`, `g = Aᵀy`, misses `y·b` by more than
//! [`FEAS_TOL`]` · (1 + |y·b| + Σ|g_j·bound_j|)`, and by more than the
//! primal's phase 1 would absorb (see `DualSimplex::certify`). An infinite
//! bound under a non-negligible `g_j`, a NaN, or a thinner margin voids the
//! certificate and the primal decides, so warm and cold searches prune the
//! same nodes.

use rrp_trace::{EventKind, SpanId, TraceHandle};

use crate::engine::{BasisEngine, SparseEngine};
use crate::lu::LuFactors;
use crate::matrix::{same_bits, Csc};
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
/// `|g_j|` at or below which a certificate term whose bound is infinite is
/// taken as zero (the roundoff `Aᵀy` leaves on the other basic columns).
const CERT_ZERO: f64 = 1e-12;

/// Outcome of [`solve_warm`]: the raw LP result, the final basis snapshot
/// (`Some` only for optimal solves), and which path produced it. After an
/// [`Status::Infeasible`] verdict `raw.x`, `raw.y` and `raw.d` describe the
/// last iterate of whichever path decided and satisfy nothing; read
/// `farkas` for the proof.
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
    /// The Farkas row `y` (one entry per row) when the dual path ended the
    /// solve [`Status::Infeasible`] on a checked certificate; `None` for
    /// every other outcome, a primal infeasibility verdict included.
    pub farkas: Option<Vec<f64>>,
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
    /// No eligible entering column, but the pivot row did not check out as
    /// a Farkas certificate: the cold path decides.
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
///
/// One [`Workspace::solve`] in a fresh workspace, plus the duals, reduced
/// costs and basis snapshot a caller of this function may read.
pub fn solve_warm_traced(
    lp: &StandardLp,
    hint: Option<&Basis>,
    trace: &TraceHandle,
    span: SpanId,
) -> WarmResult {
    let mut ws = Workspace::default();
    let solved = ws.solve(lp, hint, trace, span);
    let (warm, cold_dual_abandoned) = (solved.warm, solved.cold_dual_abandoned);
    if let Some((raw, basis)) = ws.fallback.take() {
        return WarmResult { raw, basis, warm, cold_dual_abandoned, farkas: None };
    }
    let basis = ws.basis();
    let farkas = ws.farkas().map(<[f64]>::to_vec);
    let (y, d) = ws.duals(lp);
    let raw = RawResult {
        status: solved.status,
        x: std::mem::take(&mut ws.x),
        y,
        d,
        iterations: solved.iterations,
    };
    WarmResult { raw, basis, warm, cold_dual_abandoned, farkas }
}

/// How a [`Workspace::solve`] ended. The point itself stays in the
/// workspace ([`Workspace::x`]); `warm` and `cold_dual_abandoned` mean what
/// they mean on [`WarmResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Solved {
    pub status: Status,
    pub iterations: usize,
    pub warm: bool,
    pub cold_dual_abandoned: bool,
    /// The dual simplex loaded its start from the workspace's memo of the
    /// previous start instead of refactorising it (see [`Workspace`]). A
    /// fresh workspace never does.
    pub start_reused: bool,
}

/// Everything one dual-simplex solve works in, kept between solves: the
/// basis and column statuses, the primal values and reduced costs, the
/// pivot-row scratch, and a [`SparseEngine`] whose LU refactorises into its
/// previous buffers. A branch & bound search owns one and re-solves every
/// node in it, so a node solve allocates nothing once the buffers have grown
/// to the LP's shape. Each solve resets what it reads, so the result of a
/// solve does not depend on what the workspace solved before: it equals
/// [`solve_warm`] (a fresh workspace) bit for bit.
///
/// The workspace also remembers the fresh state of its last dual-simplex
/// start: the start basis, the `A` and `c` it was computed from, its LU
/// factors and reduced costs. The next start from the same basis columns
/// on bit-identical `A` and `c` loads the factors and reduced costs
/// instead of refactorising, and recomputes the basic values from them
/// and its own `b` and nonbasic values. Both
/// children of a branching start from their parent's basis, and so do a
/// node's two heuristic re-solves: the second of each pair skips its
/// refactorisation. What is loaded is what the refactorisation would have
/// computed, so the solve stays bit-identical.
#[derive(Debug, Default)]
pub struct Workspace {
    engine: SparseEngine,
    basis: Vec<usize>,
    vstat: Vec<VStat>,
    /// Value per column (basic values maintained incrementally).
    x: Vec<f64>,
    /// Reduced cost per column (0 for basic columns), maintained
    /// incrementally and recomputed whenever the state is confirmed.
    d: Vec<f64>,
    /// Row `r` of `B⁻¹A` restricted to nonbasic columns: nonzero only on
    /// `touched`.
    alpha: Vec<f64>,
    /// Columns the current pivot row reaches, ascending — the ratio test
    /// and the reduced-cost update visit these and no others.
    touched: Vec<usize>,
    in_touched: Vec<bool>,
    /// `B⁻ᵀe_r` of the current pivot; also the right-hand-side scratch of a
    /// recompute, and the Farkas row after a certified infeasible verdict.
    rho: Vec<f64>,
    /// `B⁻¹a_q` of the current pivot; also the dual scratch of a recompute.
    w: Vec<f64>,
    /// `Aᵀy` of the certificate being checked, one entry per column.
    g: Vec<f64>,
    /// Whether the last solve ended infeasible on a checked certificate.
    certified: bool,
    /// The two-phase primal's result and basis when the last solve fell
    /// back to it; `None` when the dual path finished it.
    fallback: Option<(RawResult, Option<Basis>)>,
    /// The fresh state of the last dual-simplex start.
    memo: StartMemo,
}

/// What a dual-simplex start computed, and the data it computed it from;
/// buffers reused from start to start.
#[derive(Debug, Default)]
struct StartMemo {
    /// False until a start has been remembered.
    valid: bool,
    /// The start basis, by position.
    basis: Vec<usize>,
    a: Csc,
    c: Vec<f64>,
    lu: LuFactors,
    /// Reduced costs of the start basis.
    d: Vec<f64>,
}

impl Workspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Solve `lp` as [`solve_warm_traced`] does, leaving the point, the
    /// basis and the factors in the workspace. The dual path computes no
    /// duals and snapshots no basis; ask [`Workspace::duals`] and
    /// [`Workspace::basis`] for them before the next solve.
    pub fn solve(
        &mut self,
        lp: &StandardLp,
        hint: Option<&Basis>,
        trace: &TraceHandle,
        span: SpanId,
    ) -> Solved {
        self.fallback = None;
        self.certified = false;
        let warm = hint.is_some();
        let slack = if warm { None } else { dual_feasible_slack_basis(lp) };
        let (mut cold_dual_abandoned, mut start_reused) = (false, false);
        if let Some(start) = hint.or(slack.as_ref()) {
            if let Some(mut dual) = DualSimplex::from_hint(lp, self, start, warm, trace, span) {
                let outcome = dual.run();
                start_reused = dual.start_reused;
                if let Ok(status) = outcome {
                    let iterations = dual.iterations;
                    self.certified = status == Status::Infeasible;
                    return Solved { status, iterations, warm, cold_dual_abandoned, start_reused };
                }
                cold_dual_abandoned = !warm; // fall through to the primal
            }
        }
        let (raw, basis) = simplex::solve_sparse_snapshot(lp, trace, span);
        let solved = Solved {
            status: raw.status,
            iterations: raw.iterations,
            warm: false,
            cold_dual_abandoned,
            start_reused,
        };
        self.fallback = Some((raw, basis));
        solved
    }

    /// Value per standard-form column of the last solve.
    pub fn x(&self) -> &[f64] {
        match &self.fallback {
            Some((raw, _)) => &raw.x,
            None => &self.x,
        }
    }

    /// The last solve's final basis (`None` unless it ended optimal).
    pub fn basis(&self) -> Option<Basis> {
        match &self.fallback {
            Some((_, basis)) => basis.clone(),
            None if self.certified => None,
            None => Some(simplex::snapshot(&self.basis, &self.vstat)),
        }
    }

    /// The Farkas row `y` that proved the last solve infeasible, when the
    /// dual path decided it (see [`WarmResult::farkas`]).
    pub fn farkas(&self) -> Option<&[f64]> {
        self.certified.then_some(&self.rho[..])
    }

    /// Duals `y = B⁻ᵀc_B` and reduced costs `d = c − Aᵀy` (every column) of
    /// the last solve, which must have been of `lp`.
    pub fn duals(&mut self, lp: &StandardLp) -> (Vec<f64>, Vec<f64>) {
        if let Some((raw, _)) = &self.fallback {
            return (raw.y.clone(), raw.d.clone());
        }
        let mut y = vec![0.0f64; lp.nrows()];
        for (r, &j) in self.basis.iter().enumerate() {
            y[r] = lp.c[j];
        }
        self.engine.btran(&mut y);
        let d = (0..lp.ncols()).map(|j| lp.c[j] - lp.a.col_dot(j, &y)).collect();
        (y, d)
    }
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

/// One dual-simplex run over a [`Workspace`].
struct DualSimplex<'a> {
    lp: &'a StandardLp,
    ws: &'a mut Workspace,
    n: usize,
    iterations: usize,
    degenerate_run: usize,
    max_iters: usize,
    refactor_period: usize,
    since_refactor: usize,
    /// True right after `x_B` was recomputed from the factors — a clean
    /// state whose feasibility/optimality conclusions can be trusted.
    clean: bool,
    /// True when `d` has not been recomputed since the last refactorisation
    /// or confirm; the next ratio test with an eligible column does it.
    d_stale: bool,
    /// Whether the start basis is the caller's hint (reported by the
    /// closing `lp_solved`); false on the dual-first cold path.
    warm: bool,
    /// Whether the start was loaded from the workspace's memo.
    start_reused: bool,
    trace: &'a TraceHandle,
    span: SpanId,
}

impl<'a> DualSimplex<'a> {
    /// Load the solver state for `lp` from a basis snapshot into `ws`;
    /// `None` when the hint does not structurally fit `lp`.
    fn from_hint(
        lp: &'a StandardLp,
        ws: &'a mut Workspace,
        hint: &Basis,
        warm: bool,
        trace: &'a TraceHandle,
        span: SpanId,
    ) -> Option<Self> {
        let m = lp.nrows();
        let n = lp.ncols();
        if !hint.fits(m, n) {
            return None;
        }
        let vstat = &mut ws.vstat;
        vstat.clear();
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
        ws.basis.clear();
        ws.basis.extend_from_slice(&hint.columns);
        ws.x.clear();
        ws.x.resize(n, 0.0);
        for j in 0..n {
            if !matches!(ws.vstat[j], VStat::Basic(_)) {
                ws.x[j] = nonbasic_value(ws.vstat[j], lp.lower[j], lp.upper[j]);
            }
        }
        for v in [&mut ws.d, &mut ws.alpha, &mut ws.g] {
            v.clear();
            v.resize(n, 0.0);
        }
        ws.touched.clear();
        ws.in_touched.clear();
        ws.in_touched.resize(n, false);
        for v in [&mut ws.rho, &mut ws.w] {
            v.clear();
            v.resize(m, 0.0);
        }
        Some(Self {
            lp,
            ws,
            n,
            iterations: 0,
            degenerate_run: 0,
            max_iters: 200 * (m + n) + 10_000,
            refactor_period: 64,
            since_refactor: 0,
            clean: false,
            d_stale: true,
            warm,
            start_reused: false,
            trace,
            span,
        })
    }

    /// Pivot to optimality or to a checked infeasibility certificate. On
    /// [`Status::Optimal`] the optimal point and basis are in the workspace;
    /// on [`Status::Infeasible`] the Farkas row is in `rho`.
    fn run(&mut self) -> Result<Status, WarmFail> {
        self.start()?;
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
                        self.finish(Status::Optimal);
                        return Ok(Status::Optimal);
                    }
                    self.confirm()?;
                    continue;
                }
            };

            self.pivot_row(r);
            let entering = self.ratio_test(below);
            let q = match entering {
                Some(q) => q,
                None => {
                    // No entering column: the violated row may prove primal
                    // infeasibility. Only from a clean state, and only if it
                    // re-checks against the LP data (see module doc).
                    if !self.clean {
                        self.confirm()?;
                        continue;
                    }
                    if !self.certify(below) {
                        return Err(WarmFail::NoEntering);
                    }
                    self.finish(Status::Infeasible);
                    return Ok(Status::Infeasible);
                }
            };
            self.pivot(r, below, q)?;
        }
    }

    /// Bring the start basis to a clean state with current reduced costs:
    /// from the workspace's memo when it holds the same basis columns on
    /// bit-identical `A` and `c` (loaded factors and reduced costs, `x_B`
    /// recomputed from them), otherwise by refactorising (`warm_initial`)
    /// and remembering the result.
    fn start(&mut self) -> Result<(), WarmFail> {
        let lp = self.lp;
        let ws = &mut *self.ws;
        let memo = &ws.memo;
        if memo.valid
            && memo.basis == ws.basis
            && same_bits(&memo.c, &lp.c)
            && memo.a.same_bits(&lp.a)
        {
            ws.engine.load_factors(&memo.lu);
            ws.d.copy_from_slice(&memo.d);
            self.recompute_basic_values();
            self.since_refactor = 0;
            self.d_stale = false;
            self.clean = true;
            self.start_reused = true;
            return Ok(());
        }
        ws.memo.valid = false;
        self.refresh(WarmFail::Singular, "warm_initial")?;
        self.recompute_duals();
        let ws = &mut *self.ws;
        let memo = &mut ws.memo;
        memo.basis.clone_from(&ws.basis);
        memo.a.clone_from(&lp.a);
        memo.c.clone_from(&lp.c);
        memo.lu.clone_from(ws.engine.factors());
        memo.d.clone_from(&ws.d);
        memo.valid = true;
        Ok(())
    }

    /// Refactorise and recompute basic values from scratch; the reduced
    /// costs go stale.
    fn refresh(&mut self, on_singular: WarmFail, reason: &'static str) -> Result<(), WarmFail> {
        if self.ws.engine.refactor(&self.lp.a, &self.ws.basis).is_err() {
            return Err(on_singular);
        }
        self.since_refactor = 0;
        if self.trace.is_enabled() {
            self.trace.emit(
                self.span,
                EventKind::Refactored {
                    iter: self.iterations,
                    nnz: self.ws.engine.factor_nnz(),
                    reason,
                },
            );
        }
        self.recompute_basic_values();
        self.d_stale = true;
        self.clean = true;
        Ok(())
    }

    /// Make the state clean before a verdict is trusted: recompute the
    /// basic values — all a feasibility verdict reads — from the current
    /// factors (LU plus fewer than `refactor_period` etas), and mark the
    /// reduced costs stale. Only when a recomputed basic value drifted more
    /// than [`FEAS_TOL`] from its incremental update are the factors
    /// themselves suspect: then refactorise and recompute again.
    fn confirm(&mut self) -> Result<(), WarmFail> {
        let drift = self.recompute_basic_values();
        if drift.is_nan() || drift > FEAS_TOL {
            return self.refresh(WarmFail::Singular, "confirm");
        }
        self.d_stale = true;
        self.clean = true;
        Ok(())
    }

    /// x_B = B⁻¹ (b − N x_N). Returns the largest change this made to a
    /// basic value (NaN when a value was NaN).
    fn recompute_basic_values(&mut self) -> f64 {
        let lp = self.lp;
        let ws = &mut *self.ws;
        let rhs = &mut ws.rho;
        rhs.copy_from_slice(&lp.b);
        for j in 0..self.n {
            if !matches!(ws.vstat[j], VStat::Basic(_)) {
                let v = ws.x[j];
                if v != 0.0 {
                    lp.a.col_axpy(j, -v, rhs);
                }
            }
        }
        ws.engine.ftran(rhs);
        let mut drift = 0.0f64;
        for (r, &j) in ws.basis.iter().enumerate() {
            let change = (ws.x[j] - rhs[r]).abs();
            if change.is_nan() || change > drift {
                drift = change;
            }
            ws.x[j] = rhs[r];
        }
        drift
    }

    /// y = B⁻ᵀ c_B; d_j = c_j − a_j·y (0 for basic columns).
    fn recompute_duals(&mut self) {
        let lp = self.lp;
        let ws = &mut *self.ws;
        let y = &mut ws.w;
        for (r, &j) in ws.basis.iter().enumerate() {
            y[r] = lp.c[j];
        }
        ws.engine.btran(y);
        for j in 0..self.n {
            ws.d[j] = if matches!(ws.vstat[j], VStat::Basic(_)) {
                0.0
            } else {
                lp.c[j] - lp.a.col_dot(j, y)
            };
        }
        self.d_stale = false;
    }

    /// Pivot row `r`: `rho = B⁻ᵀe_r`, then `alpha_j = a_j·rho` for nonbasic
    /// `j`, formed from the rows of `A` where `rho` is nonzero. Each
    /// `alpha_j` sums its terms in ascending row order — as a column dot
    /// product would — so the row is that of the dense computation, bit for
    /// bit.
    fn pivot_row(&mut self, r: usize) {
        let ws = &mut *self.ws;
        for &j in &ws.touched {
            ws.alpha[j] = 0.0;
            ws.in_touched[j] = false;
        }
        ws.touched.clear();
        ws.rho.fill(0.0);
        ws.rho[r] = 1.0;
        ws.engine.btran(&mut ws.rho);
        let rows = self.lp.rows();
        for (i, &v) in ws.rho.iter().enumerate() {
            if v != 0.0 {
                for (j, a_ij) in rows.row_iter(i) {
                    if matches!(ws.vstat[j], VStat::Basic(_)) {
                        continue;
                    }
                    if !ws.in_touched[j] {
                        ws.in_touched[j] = true;
                        ws.touched.push(j);
                    }
                    ws.alpha[j] += v * a_ij;
                }
            }
        }
        ws.touched.sort_unstable();
        #[cfg(test)]
        self.assert_pivot_row_matches_dense(r);
    }

    /// The pivot row as the dense kernel computed it — one column dot
    /// product per nonbasic column — kept as the reference the sparse row
    /// must equal on every iteration.
    #[cfg(test)]
    fn assert_pivot_row_matches_dense(&self, r: usize) {
        let ws = &*self.ws;
        for j in 0..self.n {
            let dense = if matches!(ws.vstat[j], VStat::Basic(_)) {
                0.0
            } else {
                self.lp.a.col_dot(j, &ws.rho)
            };
            assert!(
                dense == ws.alpha[j],
                "iteration {}, row {r}, column {j}: dense {dense:e} vs sparse {:e}",
                self.iterations,
                ws.alpha[j]
            );
            assert!(dense == 0.0 || ws.in_touched[j], "column {j} missing from touched");
        }
        assert!(ws.touched.windows(2).all(|p| p[0] < p[1]), "touched not ascending");
    }

    /// Check the resting-bound sign conditions on the reduced costs.
    fn dual_feasible(&self) -> bool {
        let lp = self.lp;
        let ws = &*self.ws;
        (0..self.n).all(|j| {
            if lp.lower[j] == lp.upper[j] {
                return true; // fixed columns carry no sign condition
            }
            match ws.vstat[j] {
                VStat::Basic(_) => true,
                VStat::AtLower => ws.d[j] >= -DUAL_TOL,
                VStat::AtUpper => ws.d[j] <= DUAL_TOL,
                VStat::FreeZero => ws.d[j].abs() <= DUAL_TOL,
            }
        })
    }

    /// Leaving-row choice: the basic variable most outside its bounds.
    /// Returns `(row, below_lower?)`.
    fn most_violated_row(&self) -> Option<(usize, bool)> {
        let lp = self.lp;
        let mut best: Option<(usize, bool, f64)> = None;
        for (r, &j) in self.ws.basis.iter().enumerate() {
            let v = self.ws.x[j];
            let below = lp.lower[j] - v;
            let above = v - lp.upper[j];
            let (viol, is_below) = if below >= above { (below, true) } else { (above, false) };
            if viol > FEAS_TOL && best.is_none_or(|(_, _, b)| viol > b) {
                best = Some((r, is_below, viol));
            }
        }
        best.map(|(r, is_below, _)| (r, is_below))
    }

    /// Whether nonbasic column `j` may enter on pivot row `alpha` when the
    /// leaving variable is `below` its lower bound (else above its upper).
    fn eligible(&self, j: usize, below: bool) -> bool {
        if self.lp.lower[j] == self.lp.upper[j] {
            return false; // fixed columns cannot enter
        }
        let a = self.ws.alpha[j];
        match self.ws.vstat[j] {
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
        }
    }

    /// Dual ratio test over the touched columns of `alpha` (every other
    /// entry is zero, hence ineligible): among sign-eligible nonbasic
    /// columns, pick the one minimising |d_j / alpha_j| (tie-break: larger
    /// pivot magnitude, then lower column). `below` is the leaving
    /// variable's violation side. Stale reduced costs are recomputed first,
    /// unless no column is eligible.
    fn ratio_test(&mut self, below: bool) -> Option<usize> {
        const TIE: f64 = 1e-9;
        if self.d_stale {
            if !self.ws.touched.iter().any(|&j| self.eligible(j, below)) {
                return None;
            }
            self.recompute_duals();
        }
        let ws = &*self.ws;
        let mut best: Option<(usize, f64, f64)> = None; // (col, ratio, |alpha|)
        for &j in &ws.touched {
            if !self.eligible(j, below) {
                continue;
            }
            let a = ws.alpha[j];
            let ratio = ws.d[j].abs() / a.abs();
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

    /// Check the pivot row `y = rho = B⁻ᵀe_r` as a Farkas certificate
    /// against the LP data, trusting none of the incremental state: with
    /// `g = Aᵀy` and `β = y·b`, every `x` with `Ax = b` has `g·x = β`, so
    /// the LP is infeasible when the box range of `g·x` under the current
    /// bounds misses `β`. `x_B[r]` is `below` its lower bound (the range
    /// then lies above `β`) or above its upper bound (below `β`). True only
    /// when every term's bound on the missing side is finite (or its `g_j`
    /// negligible), nothing is NaN, and the gap exceeds
    /// `FEAS_TOL · (1 + |β| + Σ|g_j·bound_j|)`. The gap must also exceed
    /// `FEAS_TOL · (1 + m) · max|g_j|`: any `x` with `Ax = b` then violates
    /// its bounds by more than `FEAS_TOL · (1 + m)` in total, the most the
    /// primal's phase 1 accepts as feasible, so the two paths agree.
    fn certify(&mut self, below: bool) -> bool {
        let lp = self.lp;
        let ws = &mut *self.ws;
        ws.g.fill(0.0);
        let rows = lp.rows();
        let mut beta = 0.0;
        for (i, &v) in ws.rho.iter().enumerate() {
            if v != 0.0 {
                beta += v * lp.b[i];
                for (j, a_ij) in rows.row_iter(i) {
                    ws.g[j] += v * a_ij;
                }
            }
        }
        // Orient the row so that the claim reads min_box(h·x) > s·β, h = s·g.
        let s = if below { 1.0 } else { -1.0 };
        let (mut min, mut scale, mut g_max) = (0.0f64, 0.0f64, 0.0f64);
        for (j, &g) in ws.g.iter().enumerate() {
            let h = s * g;
            g_max = g_max.max(h.abs());
            let bound = if h > 0.0 { lp.lower[j] } else { lp.upper[j] };
            if !bound.is_finite() {
                if h.abs() <= CERT_ZERO {
                    continue;
                }
                return false; // a non-negligible (or NaN) g_j, unbounded
            }
            let term = h * bound;
            min += term;
            scale += term.abs();
        }
        let phase1 = (1 + lp.nrows()) as f64 * g_max;
        min - s * beta > FEAS_TOL * (1.0 + beta.abs() + scale).max(phase1)
    }

    /// Exchange basis row `r`'s variable (leaving to the violated bound)
    /// with entering column `q`, updating duals, primal values and factors.
    fn pivot(&mut self, r: usize, below: bool, q: usize) -> Result<(), WarmFail> {
        let lp = self.lp;
        let ws = &mut *self.ws;
        let p = ws.basis[r];
        let target = if below { lp.lower[p] } else { lp.upper[p] };
        let aq = ws.alpha[q];
        debug_assert!(!self.d_stale, "a pivot needs the ratio test's reduced costs");

        // Dual step: keeps every nonbasic reduced cost sign-feasible.
        let theta = ws.d[q] / aq;
        for &j in &ws.touched {
            ws.d[j] -= theta * ws.alpha[j];
        }
        ws.d[q] = 0.0;
        ws.d[p] = -theta;

        // Primal step along the entering column.
        let dq = (ws.x[p] - target) / aq;
        ws.w.fill(0.0);
        for (i, v) in lp.a.col_iter(q) {
            ws.w[i] = v;
        }
        ws.engine.ftran(&mut ws.w);
        for (i, &v) in ws.w.iter().enumerate() {
            if v != 0.0 {
                ws.x[ws.basis[i]] -= dq * v;
            }
        }
        ws.x[q] += dq;
        ws.x[p] = target;

        ws.vstat[p] =
            if below || lp.lower[p] == lp.upper[p] { VStat::AtLower } else { VStat::AtUpper };
        ws.vstat[q] = VStat::Basic(r);
        ws.basis[r] = q;
        self.clean = false;

        if theta.abs() <= 1e-12 {
            self.degenerate_run += 1;
            if self.degenerate_run > STALL_LIMIT {
                return Err(WarmFail::Stalled);
            }
        } else {
            self.degenerate_run = 0;
        }

        let update_rejected = ws.engine.update(r, &ws.w).is_err();
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

    /// Report the finish. Duals and the basis snapshot are left to the
    /// caller ([`Workspace::duals`], [`Workspace::basis`]).
    fn finish(&self, status: Status) {
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

    /// A child with every setup closed cannot meet demand: the warm dual
    /// path ends it on a certificate — one `lp_solved{infeasible, warm}`,
    /// no primal iteration, no basis — and the hint-less solve does too.
    #[test]
    fn infeasible_child_ends_on_a_certificate_without_the_primal() {
        let lp = lot_sizing(6, 3.0);
        let basis = solve_warm(&lp, None).basis.expect("optimal");
        let mut child = lp.clone();
        for t in 0..6 {
            child.upper[3 * t + 1] = 0.0;
        }
        let (warm, events) = lp_solved_events(&child, Some(&basis));
        assert_eq!(warm.raw.status, Status::Infeasible);
        assert!(warm.warm && warm.farkas.is_some() && warm.basis.is_none());
        let solved: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                EventKind::LpSolved { status, warm, .. } => Some((*status, *warm)),
                _ => None,
            })
            .collect();
        assert_eq!(solved, vec![("infeasible", true)]);
        assert!(!events.iter().any(|e| matches!(e, EventKind::SimplexIter { .. })));

        let cold = solve_warm(&child, None);
        assert_eq!(cold.raw.status, Status::Infeasible);
        assert!(!cold.warm && !cold.cold_dual_abandoned && cold.farkas.is_some());
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
