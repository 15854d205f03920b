//! The graceful-degradation ladder: SRRP deterministic equivalent → DRRP →
//! Wagner–Whitin → on-demand-only. Every rung either answers with a
//! demand-feasible plan or records why it fell through; the bottom rung is
//! a closed-form construction, so the ladder is total on feasible
//! instances. The DRRP and DP rungs take the exact answer
//! [`rrp_core::drrp::exact_dp`] routes to whenever one exists (uncapacitated
//! instances, by Wagner–Whitin); only the rest reach branch & bound.

use std::sync::Arc;
use std::time::Instant;

use rrp_core::drrp::exact_dp;
use rrp_core::{on_demand_plan, DrrpProblem, PlanOutcome, RentalPlan, SrrpProblem};
use rrp_milp::{Basis, MilpOptions, SolveBudget, SolveStatus};
use rrp_trace::{EventKind, SpanId, TraceHandle};

use crate::request::{DegradationLevel, PlanRequest, RungOutcome, TraceEntry};

/// Telemetry wiring for a ladder run: each rung attempt gets its own
/// `rung:*` span under `parent`, closed by a `ladder_step` event recording
/// level, outcome and elapsed time. The default config is disabled tracing
/// — the rungs then pay one branch per emission site.
#[derive(Debug, Clone, Default)]
pub struct LadderConfig {
    pub trace: TraceHandle,
    /// Span the rung spans nest under (usually the engine's per-request
    /// span; [`SpanId::ROOT`] when the ladder runs standalone).
    pub parent: SpanId,
}

/// Static span name per rung (span names avoid allocation on the hot path).
fn rung_span_name(level: DegradationLevel) -> &'static str {
    match level {
        DegradationLevel::Full => "rung:full",
        DegradationLevel::Deterministic => "rung:deterministic",
        DegradationLevel::DynamicProgram => "rung:dynamic-program",
        DegradationLevel::OnDemandOnly => "rung:on-demand-only",
    }
}

/// Feasibility tolerance for committed plans.
const FEAS_TOL: f64 = 1e-6;

/// Outcome of the full ladder run.
#[derive(Debug, Clone)]
pub struct LadderResult {
    pub plan: RentalPlan,
    pub level: DegradationLevel,
    pub trace: Vec<TraceEntry>,
    /// True when the answer is the *requested* rung solved to optimality —
    /// the only results worth caching (a degraded or incumbent answer would
    /// poison the cache for later, less-pressed requests).
    pub fully_solved: bool,
    /// Final basis of the answering rung's root LP relaxation, when the
    /// Deterministic rung answered from branch & bound (capacitated DRRP).
    /// The engine files it in its basis side-table so the next same-shape
    /// request (a rolling-horizon re-plan) starts its root LP warm.
    pub root_basis: Option<Arc<Basis>>,
}

enum Attempt {
    Answer(RentalPlan, RungOutcome, Option<Arc<Basis>>),
    Miss(RungOutcome),
}

/// Run the ladder from the request's policy rung downwards under a shared
/// wall-clock/node budget. The MILP rungs check the budget cooperatively
/// inside branch & bound; the exact DP (on whichever DRRP rung answers from
/// it) and the on-demand rung are O(T²)/O(T) and run unconditionally, so a
/// feasible plan always comes back.
pub fn run_ladder(req: &PlanRequest, opts: &MilpOptions, budget: &SolveBudget) -> LadderResult {
    run_ladder_with(req, opts, budget, &LadderConfig::default())
}

/// [`run_ladder`] with telemetry: one `rung:*` span per attempt, each
/// carrying the rung's solver events and a closing `ladder_step`.
pub fn run_ladder_with(
    req: &PlanRequest,
    opts: &MilpOptions,
    budget: &SolveBudget,
    cfg: &LadderConfig,
) -> LadderResult {
    let start_level = req.policy.start_level();
    let mut trace = Vec::new();
    for level in DegradationLevel::ALL {
        if level < start_level {
            continue;
        }
        let rung = cfg.trace.span(rung_span_name(level), cfg.parent);
        // Route the MILP rungs' solver events into this rung's span.
        let rung_opts;
        let level_opts = if cfg.trace.is_enabled() {
            rung_opts =
                MilpOptions { trace: cfg.trace.clone(), trace_span: rung.id(), ..opts.clone() };
            &rung_opts
        } else {
            opts
        };
        let t0 = Instant::now();
        let attempt = attempt_level(req, level, level_opts, budget);
        let elapsed = t0.elapsed();
        let (plan, outcome, root_basis) = match attempt {
            Attempt::Answer(plan, outcome, basis) => (Some(plan), outcome, basis),
            Attempt::Miss(outcome) => (None, outcome, None),
        };
        if cfg.trace.is_enabled() {
            rung.emit(EventKind::LadderStep {
                level: level.as_str(),
                outcome: outcome.summary(),
                elapsed_us: elapsed.as_micros() as u64,
            });
        }
        drop(rung);
        match plan {
            Some(plan) => {
                let fully_solved = level == start_level && outcome == RungOutcome::Solved;
                trace.push(TraceEntry { level, outcome, elapsed });
                return LadderResult { plan, level, trace, fully_solved, root_basis };
            }
            None => {
                trace.push(TraceEntry { level, outcome, elapsed });
            }
        }
    }
    unreachable!("on-demand rung cannot miss");
}

fn attempt_level(
    req: &PlanRequest,
    level: DegradationLevel,
    opts: &MilpOptions,
    budget: &SolveBudget,
) -> Attempt {
    match level {
        DegradationLevel::Full => {
            let Some(tree) = &req.tree else {
                return Attempt::Miss(RungOutcome::Skipped("no scenario tree in request"));
            };
            let srrp = SrrpProblem::new(req.schedule.clone(), req.params, tree.clone());
            let outcome = srrp.solve_milp_budgeted(opts, budget);
            commit_srrp(&srrp, req, outcome)
        }
        DegradationLevel::Deterministic => {
            // an instance with an exact DP answer never reaches the MILP
            if let Some(plan) = exact_dp(&req.schedule, &req.params) {
                return Attempt::Answer(plan, RungOutcome::Solved, None);
            }
            let drrp = DrrpProblem::new(req.schedule.clone(), req.params);
            let (milp, vars) = drrp.to_milp();
            match milp.solve_budgeted(opts, budget) {
                SolveStatus::Optimal(sol) => Attempt::Answer(
                    drrp.extract(&sol.values, &vars),
                    RungOutcome::Solved,
                    sol.root_basis,
                ),
                SolveStatus::Terminated { best_incumbent: Some(sol), reason, .. } => {
                    Attempt::Answer(
                        drrp.extract(&sol.values, &vars),
                        RungOutcome::Incumbent(reason),
                        sol.root_basis,
                    )
                }
                SolveStatus::Terminated { best_incumbent: None, reason, .. } => {
                    Attempt::Miss(RungOutcome::Exhausted(reason))
                }
                SolveStatus::Failed(e) => Attempt::Miss(RungOutcome::Failed(format!("{e:?}"))),
            }
        }
        DegradationLevel::DynamicProgram => match exact_dp(&req.schedule, &req.params) {
            Some(plan) => Attempt::Answer(plan, RungOutcome::Solved, None),
            None => Attempt::Miss(RungOutcome::Skipped("Wagner-Whitin DP is uncapacitated-only")),
        },
        DegradationLevel::OnDemandOnly => {
            let plan = on_demand_plan(&req.schedule, &req.params);
            Attempt::Answer(plan, RungOutcome::Solved, None)
        }
    }
}

/// Turn an SRRP outcome into a committed per-slot plan. The recourse
/// solution is committed along the most-probable path; the committed plan
/// is re-checked against the deterministic schedule (a stochastic-demand
/// tree can make the path infeasible for the schedule demand, in which
/// case the rung falls through rather than return an infeasible plan).
fn commit_srrp(
    srrp: &SrrpProblem,
    req: &PlanRequest,
    outcome: PlanOutcome<rrp_core::srrp::SrrpPlan>,
) -> Attempt {
    let (srrp_plan, rung) = match outcome {
        PlanOutcome::Optimal(p) => (p, RungOutcome::Solved),
        PlanOutcome::Terminated { plan: Some(p), reason, .. } => {
            (p, RungOutcome::Incumbent(reason))
        }
        PlanOutcome::Terminated { plan: None, reason, .. } => {
            return Attempt::Miss(RungOutcome::Exhausted(reason));
        }
        PlanOutcome::Failed(e) => return Attempt::Miss(RungOutcome::Failed(format!("{e:?}"))),
    };
    let plan = srrp_plan.commit_path(&srrp.tree, &req.schedule);
    if !plan.is_feasible(&req.schedule, &req.params, FEAS_TOL) {
        return Attempt::Miss(RungOutcome::Failed(
            "committed SRRP path infeasible for schedule demand".to_string(),
        ));
    }
    Attempt::Answer(plan, rung, None)
}
