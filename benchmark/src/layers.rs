//! The layer walk of the traced run: the harness takes the sampled requests
//! through the request path itself — fingerprint → cache lookup → model
//! build → audit → standard form → root LP → branch & bound → cache insert
//! — calling each layer's public functions and recording one span per call.
//! Everything here is timed from outside; nothing reads the program's own
//! spans.

use std::collections::BTreeMap;
use std::time::Duration;

use rrp_audit::{audit_milp_with, AuditOptions, UpperBoundHint};
use rrp_core::{
    on_demand_plan, wagner_whitin, DrrpProblem, PlanningParams, ScenarioTree, SrrpProblem,
};
use rrp_engine::{run_ladder, CacheEntry, PlanCache, PlanRequest, PolicyKind};
use rrp_lp::solve_warm;
use rrp_milp::{MilpOptions, MilpProblem, SolveBudget};

use crate::gen::TreeClass;
use crate::span::{Recorder, SpanIdx};
use crate::workloads::{close, Inputs};

/// Spans on the request path, in path order: what a cache miss costs the
/// engine's worker, as far as it can be timed from outside.
pub const PATH_SPANS: [&str; 8] = [
    "engine.fingerprint",
    "engine.cache_lookup",
    "core.build",
    "audit.audit",
    "milp.solve",
    "core.ww",
    "core.on_demand",
    "engine.cache_insert",
];

/// Counts taken at the same boundaries as the spans.
#[derive(Default)]
pub struct Counts {
    pub walked: usize,
    pub cache_hits: usize,
    /// Audit strengthenings applied, per audited instance.
    pub tightenings: Vec<f64>,
    /// B&B nodes of the same instances with and without the audit applied.
    pub nodes_audited: u64,
    pub nodes_plain: u64,
    pub model_rows: Vec<f64>,
    pub model_cols: Vec<f64>,
    pub model_integers: Vec<f64>,
    pub tree_nodes: Vec<f64>,
    /// Per direct `MilpProblem::solve`.
    pub nodes: Vec<f64>,
    pub solve_seconds: f64,
    pub lp_solves: u64,
    pub lp_iters: u64,
    pub lp_warm_hits: u64,
    pub proven_optimal: usize,
    /// `MilpProblem::solve` minus the root LP of the same model, ms.
    pub bb_self_ms: Vec<f64>,
    pub root_iters: Vec<f64>,
    pub root_seconds: f64,
    pub warm_iters: Vec<f64>,
    pub warm_tried: usize,
    pub warm_taken: usize,
    /// Ops whose direct solve disagrees with the engine's answer.
    pub mismatches: Vec<String>,
}

pub struct Walk {
    pub rec: Recorder,
    pub counts: Counts,
    /// Holds the workload's warm set from the start, as the engine's does.
    cache: PlanCache,
}

/// The audit exactly as the engine's pre-solve gate runs it.
fn gate_audit(problem: &DrrpProblem, milp: &MilpProblem) -> rrp_audit::AuditReport {
    let hints = problem
        .implied_alpha_bounds()
        .into_iter()
        .map(|(var, upper)| UpperBoundHint {
            var,
            upper,
            why: "remaining demand / capacity".to_string(),
        })
        .collect();
    let opts = AuditOptions { hints, structure: false, numerics: false, ..Default::default() };
    audit_milp_with(milp, &opts)
}

impl Walk {
    /// Note a direct answer that disagrees with the engine's for the same op.
    fn agree(&mut self, id: u64, engine_obj: Option<f64>, direct: f64, what: &str) {
        if let Some(engine) = engine_obj.filter(|&e| !close(e, direct)) {
            self.counts
                .mismatches
                .push(format!("op {id}: engine objective {engine}, {what} {direct}"));
        }
    }

    /// Standard form, root LP and one warm re-solve (first fractional
    /// integer column branched up, which rental planning can always
    /// afford) of `milp`. Returns the root LP's
    /// duration in ms. These spans hang off `parent` but are not on the
    /// request path: `MilpProblem::solve` repeats the work inside itself.
    fn lp_probe(&mut self, milp: &MilpProblem, parent: Option<SpanIdx>, id: u64) -> f64 {
        let c = &mut self.counts;
        c.model_rows.push(milp.model.num_cons() as f64);
        c.model_cols.push(milp.model.num_vars() as f64);
        c.model_integers.push(milp.integers.len() as f64);
        let (lp, _) = self.rec.time("lp.to_standard", parent, id, || milp.model.to_standard());
        let (root, root_us) = self.rec.time("lp.root", parent, id, || solve_warm(&lp, None));
        let c = &mut self.counts;
        c.root_iters.push(root.raw.iterations as f64);
        c.root_seconds += root_us / 1e6;
        let fractional = milp
            .integers
            .iter()
            .copied()
            .find(|&j| root.raw.x.get(j).is_some_and(|x| (x - x.round()).abs() > 1e-6));
        if let (Some(j), Some(basis)) = (fractional, &root.basis) {
            let mut branched = lp.clone();
            branched.lower[j] = root.raw.x[j].ceil();
            let (warm, _) =
                self.rec.time("lp.warm_resolve", parent, id, || solve_warm(&branched, Some(basis)));
            let c = &mut self.counts;
            c.warm_tried += 1;
            c.warm_taken += warm.warm as usize;
            c.warm_iters.push(warm.raw.iterations as f64);
        }
        root_us / 1e3
    }

    /// A cache miss on a deterministic, DP or on-demand request: the DRRP
    /// gate (build + audit), then the rung the policy starts at.
    fn miss_drrp(&mut self, req: &PlanRequest, root: SpanIdx, id: u64, engine_obj: Option<f64>) {
        let problem = DrrpProblem::new(req.schedule.clone(), req.params);
        let ((milp, vars), _) = self.rec.time("core.build", Some(root), id, || problem.to_milp());
        let (report, _) =
            self.rec.time("audit.audit", Some(root), id, || gate_audit(&problem, &milp));
        let mut audited = milp.clone();
        self.counts.tightenings.push(report.apply(&mut audited) as f64);
        let objective = match req.policy {
            PolicyKind::Deterministic => {
                let opts = MilpOptions::default();
                let (sol, solve_us) =
                    self.rec.time("milp.solve", Some(root), id, || audited.solve(&opts));
                let root_ms = self.lp_probe(&audited, Some(root), id);
                let sol = match sol {
                    Ok(sol) => sol,
                    Err(status) => {
                        self.counts.mismatches.push(format!("op {id}: direct solve: {status}"));
                        return;
                    }
                };
                let c = &mut self.counts;
                c.nodes.push(sol.nodes as f64);
                c.solve_seconds += solve_us / 1e6;
                c.lp_solves += sol.lp_stats.solves;
                c.lp_iters += sol.lp_stats.iterations;
                c.lp_warm_hits += sol.lp_stats.warm_hits;
                c.proven_optimal += sol.proven_optimal as usize;
                c.bb_self_ms.push(solve_us / 1e3 - root_ms);
                c.nodes_audited += sol.nodes as u64;
                // the same instance without the audit's strengthenings
                if let Ok(plain) = milp.solve(&opts) {
                    self.counts.nodes_plain += plain.nodes as u64;
                }
                problem.extract(&sol.values, &vars).objective
            }
            PolicyKind::DynamicProgram => {
                self.rec
                    .time("core.ww", Some(root), id, || {
                        wagner_whitin::solve(&req.schedule, &req.params)
                    })
                    .0
                    .objective
            }
            PolicyKind::OnDemand => {
                self.rec
                    .time("core.on_demand", Some(root), id, || {
                        on_demand_plan(&req.schedule, &req.params)
                    })
                    .0
                    .objective
            }
            PolicyKind::Stochastic => unreachable!("stochastic requests take miss_srrp"),
        };
        self.agree(id, engine_obj, objective, "direct solve");
    }

    /// A cache miss on a stochastic request: the DRRP gate, then
    /// `SrrpProblem::solve_milp` (which builds and solves the
    /// facility-location form; its builder is private, so build and solve
    /// share one span). The LP probes run on the public big-M
    /// deterministic equivalent of the same tree.
    fn miss_srrp(
        &mut self,
        req: &PlanRequest,
        class: &TreeClass,
        root: SpanIdx,
        id: u64,
        engine_obj: Option<f64>,
    ) {
        let gate = DrrpProblem::new(req.schedule.clone(), req.params);
        let ((gate_milp, _), _) = self.rec.time("core.build", Some(root), id, || gate.to_milp());
        let (report, _) =
            self.rec.time("audit.audit", Some(root), id, || gate_audit(&gate, &gate_milp));
        self.counts.tightenings.push((report.tightened_bounds.len() + report.big_m.len()) as f64);
        let tree = req.tree.clone().expect("stochastic request carries its tree");
        let srrp = SrrpProblem::new(req.schedule.clone(), req.params, tree);
        let opts = MilpOptions::default();
        let (plan, _) = self.rec.time("milp.solve", Some(root), id, || srrp.solve_milp(&opts));
        match plan {
            Ok(plan) => {
                let committed = plan.commit_path(&srrp.tree, &req.schedule).objective;
                self.agree(id, engine_obj, committed, "direct SRRP solve");
            }
            Err(e) => self.counts.mismatches.push(format!("op {id}: direct SRRP solve: {e}")),
        }
        self.counts.tree_nodes.push(srrp.tree.len() as f64);
        self.rec.time("core.tree_build", Some(root), id, || {
            ScenarioTree::from_stage_distributions(&class.dists, 100_000)
        });
        let (tree_model, _) = self.rec.time("core.tree_model", Some(root), id, || srrp.to_milp());
        self.lp_probe(&tree_model, Some(root), id);
    }
}

impl Walk {
    /// A walk about to start.
    pub fn new(rec: Recorder, inputs: &Inputs) -> Self {
        let cache = PlanCache::new();
        for req in inputs.warm_requests() {
            let plan = wagner_whitin::solve(&req.schedule, &req.params);
            let entry = CacheEntry { plan, degradation: req.policy.start_level() };
            cache.insert(req.fingerprint(), entry);
        }
        Walk { rec, counts: Counts::default(), cache }
    }

    /// Walk op `i` through the request path on the calling thread.
    /// `engine_obj` is the answer the engine gave for the same op in the
    /// traced replay.
    pub fn step(&mut self, inputs: &Inputs, i: usize, engine_obj: Option<f64>) {
        let id = i as u64;
        let req = inputs.request(i);
        let root = self.rec.open("walk", None, id);
        let (key, _) = self.rec.time("engine.fingerprint", Some(root), id, || req.fingerprint());
        let cache = &self.cache;
        let (hit, _) = self.rec.time("engine.cache_lookup", Some(root), id, || cache.lookup(key));
        self.counts.walked += 1;
        match hit {
            Some(entry) => {
                self.counts.cache_hits += 1;
                self.agree(id, engine_obj, entry.plan.objective, "exact optimum");
            }
            None => {
                match (&req.policy, inputs) {
                    (PolicyKind::Stochastic, Inputs::Srrp { classes, ops }) => {
                        self.miss_srrp(&req, &classes[ops[i].class], root, id, engine_obj)
                    }
                    _ => self.miss_drrp(&req, root, id, engine_obj),
                }
                // what gets inserted is irrelevant to the timing; use the
                // cheapest valid plan
                let plan = on_demand_plan(&req.schedule, &PlanningParams::default());
                let entry = CacheEntry { plan, degradation: req.policy.start_level() };
                let cache = &self.cache;
                self.rec.time("engine.cache_insert", Some(root), id, || cache.insert(key, entry));
            }
        }
        self.rec.close(root);
        // off the path: the ladder on the same request, and the DP the
        // capacitated answers are bounded by
        let budget = SolveBudget::with_timeout(Duration::from_secs(30));
        self.rec
            .time("engine.ladder", None, id, || run_ladder(&req, &MilpOptions::default(), &budget));
        if req.params.capacity.is_some() {
            self.rec.time("core.ww", None, id, || {
                wagner_whitin::solve(&req.schedule, &PlanningParams::default())
            });
        }
    }
}

/// Per op, the time spent in each path span (0 when the op never reached
/// it), so that a span's median is taken over the same ops as the plan
/// latency it is compared with.
pub fn path_durations_ms(walk: &Walk) -> BTreeMap<&'static str, Vec<f64>> {
    let spans = &walk.rec.spans;
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "walk" && spans[i].parent.is_none())
        .collect();
    let slot: BTreeMap<usize, usize> = roots.iter().enumerate().map(|(k, &r)| (r, k)).collect();
    let mut out: BTreeMap<&'static str, Vec<f64>> =
        PATH_SPANS.iter().map(|&n| (n, vec![0.0; roots.len()])).collect();
    for s in spans {
        if let (Some(k), Some(per_op)) = (s.parent.and_then(|p| slot.get(&p)), out.get_mut(s.name))
        {
            per_op[*k] += s.duration_us() / 1e3;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn walk(inputs: &Inputs, ops: &[usize], engine_obj: Option<f64>) -> Walk {
        let mut w = Walk::new(Recorder::new(), inputs);
        for &i in ops {
            w.step(inputs, i, engine_obj);
        }
        w
    }

    #[test]
    fn a_cold_walk_covers_the_path_and_agrees_with_itself() {
        let inputs = Inputs::generate(Workload::CapCold, 5, 3);
        let w = walk(&inputs, &[0, 1, 2], None);
        assert_eq!((w.counts.walked, w.counts.cache_hits), (3, 0));
        assert!(w.counts.mismatches.is_empty(), "{:?}", w.counts.mismatches);
        assert_eq!(w.counts.nodes.len(), 3);
        assert!(w.counts.nodes_plain >= 3 && w.counts.nodes_audited >= 3);
        let per_op = path_durations_ms(&w);
        for name in
            ["engine.fingerprint", "core.build", "audit.audit", "milp.solve", "engine.cache_insert"]
        {
            assert!(per_op[name].iter().all(|&ms| ms > 0.0), "{name}: {:?}", per_op[name]);
        }
        // the DP bound is off the path for capacitated requests
        assert!(per_op["core.ww"].iter().all(|&ms| ms == 0.0));
        assert_eq!(w.rec.durations("core.ww").len(), 3);
        // a wrong engine answer is reported
        assert_eq!(walk(&inputs, &[0], Some(1e9)).counts.mismatches.len(), 1);
    }

    #[test]
    fn warm_bodies_hit_the_walks_cache() {
        let inputs = Inputs::generate(Workload::HttpWarm, 5, 8);
        let w = walk(&inputs, &[0, 1, 2, 3], None);
        assert_eq!((w.counts.walked, w.counts.cache_hits), (4, 4));
        assert!(w.rec.durations("milp.solve").is_empty());
    }
}
