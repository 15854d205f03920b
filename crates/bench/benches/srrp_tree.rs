//! SRRP deterministic-equivalent scaling with scenario-tree size, and the
//! formulation ablation: facility-location reformulation vs the textbook
//! big-M form of Eq. (13)–(19).
//!
//! Besides the stderr report, the run persists one `srrp_fl/<nodes>` record
//! per tree shape into `results/BENCH_lp.json` for `xtask benchdiff`: B&B
//! nodes, objective, the root LP's simplex iterations (solved apart through
//! the public [`SrrpProblem::build_fl`]) and cold-dual abandonments. The
//! shapes are planbench's three `srrp_tree` trees (127 / 255 / 364 nodes)
//! plus the 511- and 1 093-node sizing trees it leaves out.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rrp_bench::results::{self, Record};
use rrp_core::demand::DemandModel;
use rrp_core::sampling::stage_distributions;
use rrp_core::{CostSchedule, PlanningParams, ScenarioTree, SrrpProblem};
use rrp_lp::solve_warm;
use rrp_milp::MilpOptions;
use rrp_spotmarket::{CostRates, EmpiricalDist, SpotArchive, VmClass};

/// `(class, stages)` per recorded shape: a bid at the window mean leaves
/// c1.medium two branches a stage and m1.xlarge three.
const SHAPES: [(VmClass, usize); 5] = [
    (VmClass::C1Medium, 6),
    (VmClass::C1Medium, 7),
    (VmClass::M1Xlarge, 5),
    (VmClass::C1Medium, 8),
    (VmClass::M1Xlarge, 6),
];

fn problem(class: VmClass, horizon: usize) -> SrrpProblem {
    let archive = SpotArchive::canonical(class);
    let history = archive.estimation_window();
    let base = EmpiricalDist::from_history(history.values(), 3);
    let bids = vec![base.mean(); horizon];
    let dists = stage_distributions(&base, &bids, class.on_demand_price());
    let tree = ScenarioTree::from_stage_distributions(&dists, 500_000);
    let demand = DemandModel::paper_default().sample(horizon, 5);
    let schedule = CostSchedule::ec2(vec![0.0; horizon], demand, &CostRates::ec2_2011());
    SrrpProblem::new(schedule, PlanningParams::default(), tree)
}

fn opts() -> MilpOptions {
    MilpOptions { node_limit: 100_000, ..Default::default() }
}

fn bench_srrp(c: &mut Criterion) {
    let mut group = c.benchmark_group("srrp_tree");
    group.sample_size(10);
    for (class, horizon) in SHAPES {
        let p = problem(class, horizon);
        group.bench_with_input(BenchmarkId::new("fl", p.tree.len()), &p, |b, p| {
            b.iter(|| p.solve_milp(&opts()).unwrap().expected_cost)
        });
    }
    for horizon in [3usize, 4] {
        let p = problem(VmClass::C1Medium, horizon);
        group.bench_with_input(BenchmarkId::new("bigm", p.tree.len()), &p, |b, p| {
            b.iter(|| p.solve_milp_bigm(&opts()).unwrap().expected_cost)
        });
    }
    group.finish();

    persist_records();
}

/// One record per shape: the timed build + solve of the FL model for the
/// reader, and the search and root-LP counts for the gate.
fn persist_records() {
    let mut records = Vec::new();
    for (class, horizon) in SHAPES {
        let p = problem(class, horizon);
        let nodes = p.tree.len();
        let t0 = Instant::now();
        let fl = p.build_fl();
        let sol = fl.milp.solve(&opts()).expect("bench instance is feasible");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let root = solve_warm(&fl.milp.model.to_standard(), None);
        eprintln!(
            "srrp_fl/{nodes}: {wall_ms:.2} ms a solve, {} root-LP iterations, {} B&B nodes",
            root.raw.iterations, sol.nodes
        );
        records.push(
            Record::new(format!("srrp_fl/{nodes}"), wall_ms, sol.nodes as u64, sol.objective)
                .with_count("iterations", root.raw.iterations as u64)
                .with_count("cold_dual_abandoned", sol.lp_stats.cold_dual_abandoned),
        );
    }
    results::write_json("BENCH_lp.json", &records).expect("write BENCH_lp.json");
}

criterion_group!(benches, bench_srrp);
criterion_main!(benches);
