//! Best-first branch & bound over the `rrp-lp` simplex.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use rrp_lp::dual;
use rrp_lp::model::StandardLp;
use rrp_lp::simplex::{self, Basis};
use rrp_lp::Status;
use rrp_trace::{EventKind, PruneReason, SpanId, TraceHandle};

use crate::branch::{self, Branching, PseudoCosts};
use crate::budget::{SolveBudget, SolveStatus, StopReason};
use crate::heuristics;
use crate::MilpProblem;

/// Solver options.
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Relative optimality gap at which the search stops.
    pub rel_gap: f64,
    /// Absolute optimality gap at which the search stops.
    pub abs_gap: f64,
    /// Integrality tolerance.
    pub int_tol: f64,
    /// Maximum number of B&B nodes to expand.
    pub node_limit: usize,
    /// Branching rule.
    pub branching: Branching,
    /// Run the LP-rounding heuristic every this many nodes (0 disables).
    pub heuristic_period: usize,
    /// Warm-start node re-solves with the parent basis via the dual simplex.
    /// On by default; turn off to measure the cold baseline.
    pub warm_start: bool,
    /// Warm-start hint for the root LP (e.g. the final root basis of a
    /// previous solve of the same problem shape, kept by the engine's
    /// warm-start cache for rolling-horizon re-plans).
    pub root_basis: Option<Arc<Basis>>,
    /// Telemetry handle. Disabled by default: every emission site is then a
    /// single branch, so un-instrumented solves pay nothing.
    pub trace: TraceHandle,
    /// Parent span the solve's `milp` span is opened under.
    pub trace_span: SpanId,
}

impl Default for MilpOptions {
    fn default() -> Self {
        Self {
            rel_gap: 1e-6,
            abs_gap: 1e-9,
            int_tol: 1e-6,
            node_limit: 1_000_000,
            branching: Branching::default(),
            heuristic_period: 16,
            warm_start: true,
            root_basis: None,
            trace: TraceHandle::off(),
            trace_span: SpanId::ROOT,
        }
    }
}

/// Failure outcomes of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MilpStatus {
    Infeasible,
    Unbounded,
    /// Node limit reached with no incumbent found.
    NodeLimit,
    Numerical,
}

impl std::fmt::Display for MilpStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MilpStatus::Infeasible => "infeasible",
            MilpStatus::Unbounded => "unbounded",
            MilpStatus::NodeLimit => "node limit without incumbent",
            MilpStatus::Numerical => "numerical failure",
        };
        f.write_str(s)
    }
}

impl std::error::Error for MilpStatus {}

/// A feasible (and usually optimal) MILP solution in model space.
#[derive(Debug, Clone)]
pub struct MilpSolution {
    /// Objective in the model's original sense.
    pub objective: f64,
    /// Value per structural variable (integers snapped exactly).
    pub values: Vec<f64>,
    /// Best dual bound in the original sense.
    pub best_bound: f64,
    /// Final relative gap.
    pub gap: f64,
    /// Nodes expanded.
    pub nodes: usize,
    /// Whether the gap criterion was met (vs. node-limit stop).
    pub proven_optimal: bool,
    /// Aggregate LP-solve statistics across the search (warm-hit telemetry).
    pub lp_stats: LpStats,
    /// Final basis of the root LP relaxation — a warm-start hint for the
    /// next solve of the same problem shape (see [`MilpOptions::root_basis`]).
    pub root_basis: Option<Arc<Basis>>,
}

/// Aggregate LP statistics of one branch & bound run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LpStats {
    /// Node/heuristic LP solves finished (dense retries not double-counted).
    pub solves: u64,
    /// Total simplex iterations across those solves.
    pub iterations: u64,
    /// Solves entered with a warm-start basis hint.
    pub warm_attempts: u64,
    /// Solves completed on the warm dual-simplex path.
    pub warm_hits: u64,
    /// Hint-less solves that started on the dual simplex from the slack
    /// basis and were abandoned to the two-phase primal.
    pub cold_dual_abandoned: u64,
}

impl LpStats {
    /// Fraction of LP solves completed warm (0.0 when none ran).
    pub fn warm_hit_rate(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.warm_hits as f64 / self.solves as f64
        }
    }

    /// Mean simplex iterations per LP solve (0.0 when none ran).
    pub fn mean_iterations(&self) -> f64 {
        if self.solves == 0 {
            0.0
        } else {
            self.iterations as f64 / self.solves as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Node {
    /// Parent LP bound in min-form (lower bound on any descendant).
    bound: f64,
    /// Tightest bound interval per branched column — at most one entry per
    /// column (compressed on push), so applying them is O(distinct cols).
    overrides: Vec<(usize, f64, f64)>,
    /// (col, up?, parent fractional part, parent objective) for pseudo-costs.
    branch: Option<(usize, bool, f64, f64)>,
    /// Branching depth (overrides.len() undercounts it after compression).
    depth: usize,
    /// Parent LP's optimal basis — warm-start hint for this node's re-solve,
    /// shared between siblings.
    basis: Option<Arc<Basis>>,
    id: u64,
}

/// Parent overrides plus one new branching interval on `col`, keeping only
/// the tightest interval per column.
fn child_overrides(
    parent: &[(usize, f64, f64)],
    col: usize,
    lower: f64,
    upper: f64,
) -> Vec<(usize, f64, f64)> {
    let mut out = Vec::with_capacity(parent.len() + 1);
    let mut merged = false;
    for &(j, l, u) in parent {
        if j == col {
            out.push((j, l.max(lower), u.min(upper)));
            merged = true;
        } else {
            out.push((j, l, u));
        }
    }
    if !merged {
        out.push((col, lower, upper));
    }
    out
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.id == other.id
    }
}
impl Eq for Node {}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so the SMALLEST bound pops first;
        // ties broken newest-first (dive towards incumbents).
        other.bound.partial_cmp(&self.bound).unwrap_or(Ordering::Equal).then(self.id.cmp(&other.id))
    }
}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

enum Expansion {
    Pruned,
    Infeasible,
    Unbounded,
    Numerical,
    /// Integral LP optimum: candidate incumbent (min-form obj, full x).
    Incumbent(f64, Vec<f64>),
    /// Fractional: two children plus optional heuristic incumbent.
    Branched {
        children: [Node; 2],
        heuristic: Option<(f64, Vec<f64>)>,
    },
}

struct Searcher<'a> {
    base: &'a StandardLp,
    integers: &'a [usize],
    opts: &'a MilpOptions,
    pc: PseudoCosts,
    next_id: u64,
    /// Span node/LP events land in (the per-solve `milp` span).
    span: SpanId,
    lp_stats: LpStats,
    /// Final basis of the root node's LP, captured for re-plan warm starts.
    root_basis: Option<Arc<Basis>>,
}

impl<'a> Searcher<'a> {
    fn new(
        base: &'a StandardLp,
        integers: &'a [usize],
        opts: &'a MilpOptions,
        span: SpanId,
    ) -> Self {
        Self {
            base,
            integers,
            opts,
            pc: PseudoCosts::new(base.ncols()),
            next_id: 1,
            span,
            lp_stats: LpStats::default(),
            root_basis: None,
        }
    }

    /// Model-sense value of a min-form objective or bound (telemetry).
    fn model_sense(&self, z: f64) -> f64 {
        z * self.base.obj_scale
    }

    fn emit(&self, kind: EventKind) {
        self.opts.trace.emit(self.span, kind);
    }

    /// Record a `node_pruned` event and map the reason onto the matching
    /// [`Expansion`] outcome.
    fn prune(&self, id: u64, reason: PruneReason) -> Expansion {
        if self.opts.trace.is_enabled() {
            self.emit(EventKind::NodePruned { id, reason });
        }
        match reason {
            PruneReason::Bound => Expansion::Pruned,
            PruneReason::Infeasible => Expansion::Infeasible,
            PruneReason::Numerical => Expansion::Numerical,
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Solve one node's LP relaxation and classify the outcome. `lp` is the
    /// search's scratch LP (a clone of the base whose bound vectors are
    /// rewritten per node); `cutoff` is the current incumbent objective in
    /// min-form (`INFINITY` when none); `run_heuristic` enables the rounding
    /// heuristic.
    fn expand(
        &mut self,
        lp: &mut StandardLp,
        node: &Node,
        cutoff: f64,
        run_heuristic: bool,
    ) -> Expansion {
        if self.opts.trace.is_enabled() {
            self.emit(EventKind::NodeOpened {
                id: node.id,
                depth: node.depth,
                bound: self.model_sense(node.bound),
            });
        }
        // Materialise the node LP in the scratch: shared matrix and costs,
        // per-node bound vectors rebuilt from the base + overrides.
        lp.lower.copy_from_slice(&self.base.lower);
        lp.upper.copy_from_slice(&self.base.upper);
        for &(j, l, u) in &node.overrides {
            lp.lower[j] = lp.lower[j].max(l);
            lp.upper[j] = lp.upper[j].min(u);
            if lp.lower[j] > lp.upper[j] {
                return self.prune(node.id, PruneReason::Infeasible);
            }
        }

        let hint = if self.opts.warm_start { node.basis.as_deref() } else { None };
        self.lp_stats.warm_attempts += u64::from(hint.is_some());
        let warmed = dual::solve_warm_traced(lp, hint, &self.opts.trace, self.span);
        self.lp_stats.solves += 1;
        self.lp_stats.iterations += warmed.raw.iterations as u64;
        self.lp_stats.warm_hits += u64::from(warmed.warm);
        self.lp_stats.cold_dual_abandoned += u64::from(warmed.cold_dual_abandoned);
        let (raw, basis) = match warmed.raw.status {
            Status::Optimal => (warmed.raw, warmed.basis),
            Status::Infeasible => return self.prune(node.id, PruneReason::Infeasible),
            Status::Unbounded => return Expansion::Unbounded,
            Status::IterationLimit | Status::Numerical => {
                // one retry with the dense reference engine (no basis to
                // hand down — the children of this node start cold)
                let dense = simplex::solve_dense_traced(lp, &self.opts.trace, self.span);
                match dense.status {
                    Status::Optimal => (dense, None),
                    Status::Infeasible => return self.prune(node.id, PruneReason::Infeasible),
                    Status::Unbounded => return Expansion::Unbounded,
                    _ => return self.prune(node.id, PruneReason::Numerical),
                }
            }
        };
        let basis = basis.map(Arc::new);
        if node.id == 0 {
            self.root_basis = basis.clone();
        }
        let z: f64 = raw.x.iter().zip(&lp.c).map(|(x, c)| x * c).sum();

        // pseudo-cost update from the parent's branching decision
        if let Some((col, up, frac, parent_obj)) = node.branch {
            self.pc.record(col, up, frac, (z - parent_obj).max(0.0));
        }

        if z >= cutoff - self.gap_slack(cutoff) {
            return self.prune(node.id, PruneReason::Bound);
        }

        // integrality check
        let mut fractional: Vec<(usize, f64)> = Vec::new();
        for &j in self.integers {
            let v = raw.x[j];
            if (v - v.round()).abs() > self.opts.int_tol {
                fractional.push((j, v));
            }
        }
        if fractional.is_empty() {
            if self.opts.trace.is_enabled() {
                self.emit(EventKind::NodeIntegral { id: node.id, objective: self.model_sense(z) });
            }
            return Expansion::Incumbent(z, raw.x);
        }

        let heuristic = if run_heuristic {
            // try nearest-rounding and ceil-positive (fixed-charge friendly)
            // and keep the better feasible point; both re-solves run in the
            // scratch LP, warm-started from the node's basis
            let node_bounds: Vec<(usize, f64, f64)> =
                self.integers.iter().map(|&j| (j, lp.lower[j], lp.upper[j])).collect();
            let tries = [heuristics::RoundMode::Nearest, heuristics::RoundMode::CeilPositive];
            let hint = if self.opts.warm_start { basis.as_deref() } else { None };
            tries
                .iter()
                .filter_map(|&mode| heuristics::round_and_fix(lp, &node_bounds, &raw.x, mode, hint))
                .filter(|&(_, hz)| hz < cutoff - self.gap_slack(cutoff))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(x, hz)| (hz, x))
        } else {
            None
        };

        let (col, v) = branch::select(self.opts.branching, &self.pc, &fractional);
        let frac = v - v.floor();
        let down = child_overrides(&node.overrides, col, f64::NEG_INFINITY, v.floor());
        let up = child_overrides(&node.overrides, col, v.ceil(), f64::INFINITY);
        let children = [
            Node {
                bound: z,
                overrides: down,
                branch: Some((col, false, frac, z)),
                depth: node.depth + 1,
                basis: basis.clone(),
                id: self.fresh_id(),
            },
            Node {
                bound: z,
                overrides: up,
                branch: Some((col, true, frac, z)),
                depth: node.depth + 1,
                basis,
                id: self.fresh_id(),
            },
        ];
        Expansion::Branched { children, heuristic }
    }

    fn gap_slack(&self, cutoff: f64) -> f64 {
        if cutoff.is_finite() {
            self.opts.abs_gap.max(self.opts.rel_gap * cutoff.abs())
        } else {
            0.0
        }
    }
}

/// Best-first branch & bound, one node per iteration.
pub fn solve(problem: &MilpProblem, opts: &MilpOptions) -> Result<MilpSolution, MilpStatus> {
    drive(problem, opts, None).0
}

/// Branch & bound under a cooperative [`SolveBudget`]: wall-clock and
/// node-count limits are checked once per node inside the search loop.
/// Never panics and never runs unbounded — when the budget runs out the
/// search stops and reports [`SolveStatus::Terminated`] with the best
/// incumbent found so far and the tightest dual bound.
pub fn solve_budgeted(
    problem: &MilpProblem,
    opts: &MilpOptions,
    budget: &SolveBudget,
) -> SolveStatus {
    let (result, stopped, bound) = drive(problem, opts, Some(budget));
    match (stopped, result) {
        // A budget stop that nevertheless proved optimality (the frontier
        // bound already met the gap criterion) is still reported as optimal.
        (Some(_), Ok(sol)) if sol.proven_optimal => SolveStatus::Optimal(sol),
        (Some(reason), result) => {
            SolveStatus::Terminated { best_incumbent: result.ok(), bound, reason }
        }
        (None, Ok(sol)) => SolveStatus::Optimal(sol),
        (None, Err(e)) => SolveStatus::Failed(e),
    }
}

/// Core search loop. Returns the result, the budget stop reason (if the
/// search was cut short by `budget`), and the best dual bound in the
/// model's original sense — the latter two feed [`solve_budgeted`].
fn drive(
    problem: &MilpProblem,
    opts: &MilpOptions,
    budget: Option<&SolveBudget>,
) -> (Result<MilpSolution, MilpStatus>, Option<StopReason>, f64) {
    let base = problem.model.to_standard();
    let solve_span = opts.trace.span("milp", opts.trace_span);
    let mut searcher = Searcher::new(&base, &problem.integers, opts, solve_span.id());
    let mut scratch = base.clone();

    let mut heap: BinaryHeap<Node> = BinaryHeap::new();
    heap.push(Node {
        bound: f64::NEG_INFINITY,
        overrides: Vec::new(),
        branch: None,
        depth: 0,
        basis: opts.root_basis.clone(),
        id: 0,
    });

    let mut incumbent: Option<(f64, Vec<f64>)> = None; // (min-form obj, x)
    let mut nodes = 0usize;
    let mut seen_numerical = false;
    let mut root = true;
    let mut stopped: Option<StopReason> = None;
    // min-form values last reported to the trace (gap timeline)
    let mut traced_bound = f64::NEG_INFINITY;
    let mut traced_incumbent = f64::INFINITY;

    while let Some(top_bound) = heap.peek().map(|n| n.bound) {
        if opts.trace.is_enabled() {
            let inc = incumbent.as_ref().map(|(z, _)| *z).unwrap_or(f64::INFINITY);
            if top_bound > traced_bound || inc < traced_incumbent {
                if top_bound > traced_bound && top_bound.is_finite() {
                    solve_span
                        .emit(EventKind::BoundImproved { bound: searcher.model_sense(top_bound) });
                }
                if inc < traced_incumbent {
                    solve_span.emit(EventKind::IncumbentImproved {
                        objective: searcher.model_sense(inc),
                    });
                }
                traced_bound = top_bound;
                traced_incumbent = inc;
                solve_span.emit(EventKind::GapSample {
                    best_bound: searcher.model_sense(top_bound),
                    incumbent: searcher.model_sense(inc),
                    gap: relative_gap(inc, top_bound),
                });
            }
        }
        if nodes >= opts.node_limit {
            break;
        }
        if let Some(b) = budget {
            if let Some(reason) = b.exceeded(nodes) {
                stopped = Some(reason);
                break;
            }
        }
        // gap-based stop
        if let Some((inc, _)) = &incumbent {
            let slack = opts.abs_gap.max(opts.rel_gap * inc.abs());
            if top_bound >= inc - slack {
                break;
            }
        }
        // pop the best node the incumbent has not already pruned by bound
        let cutoff = incumbent.as_ref().map(|(z, _)| *z).unwrap_or(f64::INFINITY);
        let live = cutoff - searcher.gap_slack(cutoff);
        let Some(node) = std::iter::from_fn(|| heap.pop()).find(|n| n.bound < live) else {
            break;
        };
        let run_h =
            opts.heuristic_period > 0 && (root || nodes.is_multiple_of(opts.heuristic_period));
        nodes += 1;

        match searcher.expand(&mut scratch, &node, cutoff, run_h) {
            Expansion::Pruned | Expansion::Infeasible => {}
            Expansion::Unbounded => {
                if root {
                    if opts.trace.is_enabled() {
                        solve_span.emit(EventKind::SolveDone {
                            status: "unbounded",
                            nodes,
                            gap: f64::INFINITY,
                        });
                    }
                    return (Err(MilpStatus::Unbounded), None, f64::NEG_INFINITY);
                }
                // A child LP cannot be unbounded if the root was bounded;
                // treat as numerical trouble.
                seen_numerical = true;
            }
            Expansion::Numerical => seen_numerical = true,
            Expansion::Incumbent(z, x) => {
                if incumbent.as_ref().is_none_or(|(best, _)| z < *best) {
                    incumbent = Some((z, x));
                }
            }
            Expansion::Branched { children, heuristic } => {
                if let Some((hz, hx)) = heuristic {
                    if incumbent.as_ref().is_none_or(|(best, _)| hz < *best) {
                        // validate integrality of the heuristic point
                        let ok = problem
                            .integers
                            .iter()
                            .all(|&j| (hx[j] - hx[j].round()).abs() <= opts.int_tol);
                        if ok {
                            incumbent = Some((hz, hx));
                        }
                    }
                }
                for c in children {
                    heap.push(c);
                }
            }
        }
        root = false;
    }

    let best_frontier = heap.peek().map(|n| n.bound).unwrap_or(f64::INFINITY);
    let scale = base.obj_scale;
    let out = match incumbent {
        Some((z, x)) => {
            let bound_min = best_frontier.min(z);
            let gap = relative_gap(z, bound_min);
            let slack = opts.abs_gap.max(opts.rel_gap * z.abs());
            let proven = best_frontier >= z - slack;
            let mut values: Vec<f64> = x[..base.nstruct].to_vec();
            for &j in &problem.integers {
                values[j] = values[j].round();
            }
            let sol = MilpSolution {
                objective: z * scale,
                values,
                best_bound: bound_min * scale,
                gap,
                nodes,
                proven_optimal: proven,
                lp_stats: searcher.lp_stats,
                root_basis: searcher.root_basis,
            };
            let bound = sol.best_bound;
            (Ok(sol), stopped, bound)
        }
        None => {
            let err = if seen_numerical {
                MilpStatus::Numerical
            } else if nodes >= opts.node_limit || stopped.is_some() {
                MilpStatus::NodeLimit
            } else {
                MilpStatus::Infeasible
            };
            let bound = if best_frontier.is_finite() {
                best_frontier * scale
            } else {
                f64::NEG_INFINITY * scale.signum()
            };
            (Err(err), stopped, bound)
        }
    };
    if opts.trace.is_enabled() {
        let (status, gap) = solve_done_summary(&out);
        solve_span.emit(EventKind::SolveDone { status, nodes, gap });
    }
    out
}

/// Relative gap between a min-form incumbent and dual bound (∞ without an
/// incumbent — readers see `null` in the JSON form).
fn relative_gap(incumbent: f64, bound: f64) -> f64 {
    if !incumbent.is_finite() {
        return f64::INFINITY;
    }
    if incumbent.abs() > 0.0 {
        ((incumbent - bound) / incumbent.abs()).max(0.0)
    } else {
        (incumbent - bound).abs()
    }
}

/// Status tag and final gap for the `solve_done` trace event. Budget stops
/// report `terminated:*` so counter sinks can sample the gap-at-timeout.
fn solve_done_summary(
    out: &(Result<MilpSolution, MilpStatus>, Option<StopReason>, f64),
) -> (&'static str, f64) {
    let (result, stopped, _) = out;
    let gap = match result {
        Ok(sol) => sol.gap,
        Err(_) => f64::INFINITY,
    };
    let status = match (stopped, result) {
        (_, Ok(sol)) if sol.proven_optimal => "optimal",
        (Some(StopReason::Deadline), _) => "terminated:deadline",
        (Some(StopReason::NodeLimit), _) => "terminated:node_limit",
        (None, Ok(_)) => "terminated:node_limit",
        (None, Err(MilpStatus::Infeasible)) => "infeasible",
        (None, Err(MilpStatus::Unbounded)) => "unbounded",
        (None, Err(MilpStatus::NodeLimit)) => "terminated:node_limit",
        (None, Err(MilpStatus::Numerical)) => "numerical",
    };
    (status, gap)
}
