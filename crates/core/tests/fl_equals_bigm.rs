//! FL against big-M on the benchmark's tree shapes — the 127-, 255- and
//! 364-node trees planbench's `srrp_tree` workload solves (bid at the
//! window mean, one stage per slot).
//!
//! The facility-location root LP now starts on the dual simplex from the
//! slack basis, so each shape is checked three ways: the dual-first root LP
//! equals the two-phase primal's; the plan read back from it costs what the
//! LP says; and that cost lies inside the bracket the textbook big-M form
//! of Eq. (13)–(19) proves for the same instance. (Big-M needs thousands of
//! nodes to *close* these trees, so it runs under a node budget and
//! contributes its dual bound and its incumbent, not an optimum.)

use rrp_core::demand::DemandModel;
use rrp_core::sampling::stage_distributions;
use rrp_core::{CostSchedule, PlanningParams, ScenarioTree, SrrpProblem};
use rrp_lp::{simplex, solve_warm, Status};
use rrp_milp::{MilpOptions, SolveBudget, SolveStatus};
use rrp_spotmarket::{CostRates, EmpiricalDist, SpotArchive, VmClass};

fn problem(class: VmClass, stages: usize, seed: u64) -> SrrpProblem {
    let history = SpotArchive::canonical(class).estimation_window();
    let base = EmpiricalDist::from_history(history.values(), 3);
    let bids = vec![base.mean(); stages];
    let dists = stage_distributions(&base, &bids, class.on_demand_price());
    let tree = ScenarioTree::from_stage_distributions(&dists, 100_000);
    let demand = DemandModel::paper_default().sample(stages, seed);
    let schedule = CostSchedule::ec2(vec![0.0; stages], demand, &CostRates::ec2_2011());
    SrrpProblem::new(schedule, PlanningParams::default(), tree)
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 2e-6 * (1.0 + a.abs().max(b.abs()))
}

#[test]
fn fl_agrees_with_the_primal_and_sits_in_the_bigm_bracket() {
    let opts = MilpOptions::default();
    for (class, stages, nodes) in
        [(VmClass::C1Medium, 6, 127), (VmClass::C1Medium, 7, 255), (VmClass::M1Xlarge, 5, 364)]
    {
        for seed in [5, 20120521] {
            let what = format!("{nodes} nodes, seed {seed}");
            let srrp = problem(class, stages, seed);
            assert_eq!(srrp.tree.len(), nodes);

            // root LP: dual-first cold start = two-phase primal
            let fl = srrp.build_fl();
            let lp = fl.milp.model.to_standard();
            let dual = solve_warm(&lp, None);
            let primal = simplex::solve_sparse(&lp);
            assert_eq!((dual.raw.status, primal.status), (Status::Optimal, Status::Optimal));
            assert!(!dual.warm && !dual.cold_dual_abandoned, "{what}: dual start abandoned");
            let z = |x: &[f64]| x.iter().zip(&lp.c).map(|(x, c)| x * c).sum::<f64>();
            let (zd, zp) = (z(&dual.raw.x), z(&primal.x));
            assert!(close(zd, zp), "{what}: dual root LP {zd} vs primal {zp}");
            assert!(dual.raw.iterations < primal.iterations, "{what}: dual-first took longer");

            // the plan: closes at the root, costs what the LP says
            let plan = srrp.solve_milp_fl(&opts).expect("FL solves the uncapacitated instance");
            let constants = fl.eps_cost + srrp.transfer_out_expected();
            assert!(close(plan.expected_cost, zd + constants), "{what}: plan vs root LP");
            assert!(srrp.is_feasible(&plan, 1e-6), "{what}: FL plan infeasible");

            // big-M brackets it
            let budget = SolveBudget::with_node_limit(120);
            let (bound, incumbent) = match srrp.to_milp().solve_budgeted(&opts, &budget) {
                SolveStatus::Optimal(sol) => (sol.best_bound, Some(sol.objective)),
                SolveStatus::Terminated { best_incumbent, bound, .. } => {
                    (bound, best_incumbent.map(|sol| sol.objective))
                }
                SolveStatus::Failed(e) => panic!("{what}: big-M failed: {e}"),
            };
            let shift = srrp.transfer_out_expected();
            assert!(
                bound + shift <= plan.expected_cost * (1.0 + 2e-6),
                "{what}: big-M dual bound {} above FL optimum {}",
                bound + shift,
                plan.expected_cost
            );
            if let Some(inc) = incumbent {
                assert!(
                    inc + shift >= plan.expected_cost * (1.0 - 2e-6),
                    "{what}: big-M incumbent {} below FL optimum {}",
                    inc + shift,
                    plan.expected_cost
                );
            }
        }
    }
}
