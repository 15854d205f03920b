//! SRRP deterministic-equivalent scaling with scenario-tree size, and the
//! formulation ablation: facility-location reformulation vs the textbook
//! big-M form of Eq. (13)–(19).
//!
//! Besides the stderr report, the run persists one `srrp_fl/<nodes>` record
//! per tree shape into `results/BENCH_lp.json` for `xtask benchdiff`: ms per
//! `solve_milp`, and — timed apart through the public
//! [`SrrpProblem::build_fl`] — model build ms, root-LP ms, simplex
//! iterations and µs per iteration. The shapes are planbench's three
//! `srrp_tree` trees (127 / 255 / 364 nodes) plus the 511- and 1 093-node
//! sizing trees it leaves out.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rrp_bench::results::{self, Provenance, Record};
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

/// Mean milliseconds of `f` over at least five runs and 200 ms.
fn mean_ms<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let mut runs = 0u32;
    loop {
        let out = std::hint::black_box(f());
        runs += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if runs >= 5 && elapsed >= 0.2 {
            return (elapsed * 1e3 / f64::from(runs), out);
        }
    }
}

/// One record per shape: criterion's `solve_milp` mean as `wall_ms`, the
/// build / root-LP split as extras, stamped with where it was measured.
fn persist_records() {
    let here = Provenance::here();
    let timed = criterion::take_results();
    let mut records = Vec::new();
    for (class, horizon) in SHAPES {
        let p = problem(class, horizon);
        let nodes = p.tree.len();
        let label = format!("srrp_tree/fl/{nodes}");
        let Some(wall) = timed.iter().find(|r| r.label == label) else {
            continue; // filtered out on the command line
        };
        let (build_ms, fl) = mean_ms(|| p.build_fl());
        let lp = fl.milp.model.to_standard();
        let (root_lp_ms, root) = mean_ms(|| solve_warm(&lp, None));
        let sol = fl.milp.solve(&opts()).expect("bench instance is feasible");
        let iterations = root.raw.iterations as f64;
        eprintln!(
            "srrp_fl/{nodes}: {:.2} ms a solve = build {build_ms:.2} + root LP {root_lp_ms:.2} \
             ({iterations} iterations, {:.1} us each), {} B&B nodes",
            wall.mean_ns as f64 / 1e6,
            root_lp_ms * 1e3 / iterations.max(1.0),
            sol.nodes
        );
        records.push(
            Record {
                nodes: sol.nodes as u64,
                objective: sol.objective,
                ..Record::timing(format!("srrp_fl/{nodes}"), wall.mean_ns as f64 / 1e6)
            }
            .with_extra("build_ms", build_ms)
            .with_extra("root_lp_ms", root_lp_ms)
            .with_extra("iterations", iterations)
            .with_extra("us_per_iter", root_lp_ms * 1e3 / iterations.max(1.0))
            .with_extra("cold_dual_abandoned", sol.lp_stats.cold_dual_abandoned as f64)
            .stamped(&here),
        );
    }
    match results::merge_json("BENCH_lp.json", "srrp_fl/", &records) {
        Ok(path) => eprintln!("wrote {} ({} records)", path.display(), records.len()),
        Err(e) => eprintln!("warning: could not write BENCH_lp.json: {e}"),
    }
}

criterion_group!(benches, bench_srrp);
criterion_main!(benches);
