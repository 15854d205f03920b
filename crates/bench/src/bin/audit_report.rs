//! Static audit reports for the paper's evaluation instances (Fig. 10–12
//! workloads): the DRRP day-planning MILP per evaluation VM class, an SRRP
//! deterministic-equivalent over a two-state spot tree, and a demonstration
//! of the big-M check paying for itself in branch-and-bound nodes.
//!
//! ```sh
//! cargo run --release -p rrp-bench --bin audit_report
//! ```
//!
//! Besides the printed reports, every solved instance lands as a record
//! (instance, wall-ms, nodes, objective) in `results/BENCH_audit.json`,
//! which `xtask benchdiff` gates against the committed copy.

use std::time::Instant;

use rrp_audit::{audit_milp, audit_milp_with, AuditOptions, UpperBoundHint};
use rrp_bench::results::{self, Record};
use rrp_bench::{header, DEMAND_SEED};
use rrp_core::demand::DemandModel;
use rrp_core::{CostSchedule, DrrpProblem, PlanningParams, ScenarioTree, SrrpProblem};
use rrp_lp::{Cmp, Model, Sense};
use rrp_milp::{MilpOptions, MilpProblem};
use rrp_spotmarket::{CostRates, EmpiricalDist, VmClass};

fn hints_of(bounds: Vec<(usize, f64)>) -> Vec<UpperBoundHint> {
    bounds
        .into_iter()
        .map(|(col, upper)| UpperBoundHint {
            var: col,
            upper,
            why: "remaining demand / capacity".to_string(),
        })
        .collect()
}

/// Solve `milp` with default options and record the measurement.
fn solve_and_record(records: &mut Vec<Record>, instance: String, milp: &MilpProblem) {
    let opts = MilpOptions::default();
    let t0 = Instant::now();
    match milp.solve(&opts) {
        Ok(sol) => records.push(Record::new(
            instance,
            t0.elapsed().as_secs_f64() * 1e3,
            sol.nodes as u64,
            sol.objective,
        )),
        Err(e) => eprintln!("warning: {instance}: solve failed: {e:?}"),
    }
}

fn main() {
    header("Static audit of the Fig. 10–12 planning instances");
    let mut records = Vec::new();

    let rates = CostRates::ec2_2011();
    for class in VmClass::EVALUATION {
        let demand = DemandModel::paper_default().sample(24, DEMAND_SEED);
        let spot = vec![class.on_demand_price(); 24];
        let schedule = CostSchedule::ec2(spot, demand, &rates);
        let problem = DrrpProblem::new(schedule, PlanningParams::default());
        let (mut milp, _) = problem.to_milp();
        let opts =
            AuditOptions { hints: hints_of(problem.implied_alpha_bounds()), ..Default::default() };
        let report = audit_milp_with(&milp, &opts);
        println!("\n--- DRRP 24 h, {class:?} ---");
        print!("{report}");
        report.apply(&mut milp);
        solve_and_record(&mut records, format!("audit/drrp24h/{class:?}"), &milp);
    }

    println!();
    header("SRRP deterministic equivalent (two-state tree, 4 stages)");
    let d = EmpiricalDist::from_parts(vec![0.04, 0.12], vec![0.6, 0.4]);
    let tree = ScenarioTree::from_stage_distributions(&vec![d; 4], 100_000);
    let demand = DemandModel::paper_default().sample(4, DEMAND_SEED);
    let schedule = CostSchedule::ec2(vec![0.06; 4], demand, &rates);
    let srrp = SrrpProblem::new(schedule, PlanningParams::default(), tree);
    let mut milp = srrp.to_milp();
    let opts = AuditOptions { hints: hints_of(srrp.implied_alpha_bounds()), ..Default::default() };
    let report = audit_milp_with(&milp, &opts);
    print!("{report}");
    report.apply(&mut milp);
    solve_and_record(&mut records, "audit/srrp_det_equiv/2state_4stage".to_string(), &milp);

    println!();
    header("Big-M tightening pays in branch-and-bound nodes");
    let loose = fixed_charge(1e5);
    let report = audit_milp(&loose);
    let mut tightened = loose.clone();
    let rewritten = report.apply(&mut tightened);
    let opts = MilpOptions::default();
    match (loose.solve(&opts), tightened.solve(&opts)) {
        (Ok(a), Ok(b)) => {
            println!("fixed-charge cover, 6 sites, loose M = 1e5 vs audit-tightened M:");
            println!("  findings: {}  coefficients rewritten: {rewritten}", report.big_m.len());
            println!("  loose:     obj {:.4}  nodes {}", a.objective, a.nodes);
            println!("  tightened: obj {:.4}  nodes {}", b.objective, b.nodes);
        }
        (a, b) => println!("solve failed: {:?} / {:?}", a.err(), b.err()),
    }
    solve_and_record(&mut records, "audit/fixed_charge/loose".to_string(), &loose);
    solve_and_record(&mut records, "audit/fixed_charge/tightened".to_string(), &tightened);

    results::write_json("BENCH_audit.json", &records).expect("write BENCH_audit.json");
}

/// min Σ fᵢχᵢ + cᵢxᵢ  s.t.  Σ xᵢ ≥ 25,  xᵢ − M·χᵢ ≤ 0,  0 ≤ xᵢ ≤ 10.
fn fixed_charge(m_coeff: f64) -> MilpProblem {
    let fixed = [7.0, 9.0, 8.0, 6.0, 10.0, 7.5];
    let unit = [1.0, 0.4, 0.7, 1.3, 0.3, 0.9];
    let mut m = Model::new(Sense::Minimize);
    let mut cover = Vec::new();
    let mut chis = Vec::new();
    for (i, (&f, &c)) in fixed.iter().zip(&unit).enumerate() {
        let x = m.add_var(0.0, 10.0, c, &format!("x{i}"));
        let chi = m.add_var(0.0, 1.0, f, &format!("chi{i}"));
        m.add_con(&[(x, 1.0), (chi, -m_coeff)], Cmp::Le, 0.0);
        cover.push((x, 1.0));
        chis.push(chi);
    }
    m.add_con(&cover, Cmp::Ge, 25.0);
    MilpProblem::new(m, chis)
}
