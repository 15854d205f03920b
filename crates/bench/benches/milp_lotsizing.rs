//! Ablation: generic branch & bound vs the structure-exploiting
//! Wagner–Whitin DP on uncapacitated DRRP instances of growing horizon —
//! quantifying the value of the paper's "dynamic lot-sizing" observation.
//!
//! Besides the stderr report, the run persists node-throughput records —
//! warm dual-simplex B&B vs a cold (`warm_start: false`) baseline on a
//! capacitated DRRP instance and on a correlated binary knapsack — into
//! `results/BENCH_milp.json` for `xtask benchdiff`.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rrp_bench::results::{self, Record};
use rrp_core::demand::DemandModel;
use rrp_core::{wagner_whitin, CostSchedule, DrrpProblem, PlanningParams};
use rrp_lp::{Cmp, Model, Sense};
use rrp_milp::{MilpOptions, MilpProblem};
use rrp_spotmarket::CostRates;

fn instance(horizon: usize) -> CostSchedule {
    let demand = DemandModel::paper_default().sample(horizon, horizon as u64);
    let compute: Vec<f64> = (0..horizon).map(|t| 0.2 + 0.1 * ((t % 24) as f64 / 24.0)).collect();
    CostSchedule::ec2(compute, demand, &CostRates::ec2_2011())
}

/// Correlated binary knapsack: profits ≈ weights makes the LP bound weak
/// and forces real tree search.
fn knapsack(n: usize, seed: u64) -> MilpProblem {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut m = Model::new(Sense::Maximize);
    let mut weights = Vec::with_capacity(n);
    let mut vars = Vec::with_capacity(n);
    for i in 0..n {
        let w: f64 = rng.gen_range(10.0..30.0);
        let p = w + rng.gen_range(-1.0..1.0);
        vars.push(m.add_var(0.0, 1.0, p, &format!("x{i}")));
        weights.push(w);
    }
    let cap: f64 = weights.iter().sum::<f64>() * 0.5;
    let terms: Vec<_> = vars.iter().zip(&weights).map(|(&v, &w)| (v, w)).collect();
    m.add_con(&terms, Cmp::Le, cap);
    MilpProblem::new(m, vars)
}

fn bench_lotsizing(c: &mut Criterion) {
    let mut group = c.benchmark_group("milp_lotsizing");
    // B&B solves take ~1 s at 24 slots; keep sampling modest
    group.sample_size(10);
    for horizon in [12usize, 24] {
        let s = instance(horizon);
        let p = DrrpProblem::new(s.clone(), PlanningParams::default());
        group.bench_with_input(BenchmarkId::new("bb_milp", horizon), &p, |b, p| {
            b.iter(|| p.solve_milp(&MilpOptions::default()).unwrap().objective)
        });
        group.bench_with_input(BenchmarkId::new("wagner_whitin", horizon), &s, |b, s| {
            b.iter(|| wagner_whitin::solve(s, &PlanningParams::default()).objective)
        });
    }
    // WW-only long-horizon scaling (a week, a month)
    for horizon in [168usize, 720] {
        let s = instance(horizon);
        group.bench_with_input(BenchmarkId::new("wagner_whitin", horizon), &s, |b, s| {
            b.iter(|| wagner_whitin::solve(s, &PlanningParams::default()).objective)
        });
    }
    group.finish();

    persist_records();
}

/// Solve once and turn the search statistics into a BENCH record: wall
/// clock, tree size, and the warm-start extras (`nodes_per_sec`,
/// `lp_iters_per_node`, `warm_hit_rate`) the perf acceptance gate reads.
fn measure(label: &str, milp: &MilpProblem, opts: &MilpOptions) -> Record {
    let t0 = Instant::now();
    let sol = milp.solve(opts).expect("bench instance is feasible");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let nodes = sol.nodes.max(1) as f64;
    Record {
        instance: label.to_string(),
        wall_ms,
        nodes: sol.nodes as u64,
        objective: sol.objective,
        extras: Vec::new(),
        tags: Vec::new(),
    }
    .with_extra("nodes_per_sec", nodes / (wall_ms / 1e3).max(1e-9))
    .with_extra("lp_iters_per_node", sol.lp_stats.iterations as f64 / nodes)
    .with_extra("warm_hit_rate", sol.lp_stats.warm_hit_rate())
}

/// One instance solved warm (`opts`) and cold (`opts` with `warm_start`
/// off), with the objectives cross-checked.
fn warm_cold_pair(
    warm_label: &str,
    cold_label: &str,
    milp: &MilpProblem,
    opts: &MilpOptions,
) -> [Record; 2] {
    let warm = measure(warm_label, milp, opts);
    let cold = measure(cold_label, milp, &MilpOptions { warm_start: false, ..opts.clone() });
    assert!(
        (warm.objective - cold.objective).abs() <= 1e-6 * (1.0 + cold.objective.abs()),
        "{warm_label}: warm and cold B&B disagree: {} vs {}",
        warm.objective,
        cold.objective
    );
    eprintln!(
        "{warm_label}: {:.1} ms / {} nodes, cold {:.1} ms / {} nodes",
        warm.wall_ms, warm.nodes, cold.wall_ms, cold.nodes
    );
    [warm, cold]
}

/// The warm-vs-cold node-throughput comparison on a capacitated DRRP
/// instance (capacity binds, so the tree is non-trivial) and on the n=18
/// knapsack, plus the shim's timing records, merged into this bench's
/// namespace of BENCH_milp.json.
fn persist_records() {
    let mut records: Vec<Record> = criterion::take_results()
        .into_iter()
        .map(|r| Record::timing(r.label, r.mean_ns as f64 / 1e6))
        .collect();

    let horizon = 24;
    let s = instance(horizon);
    let peak = s.demand.iter().cloned().fold(0.0_f64, f64::max);
    // capacity at ~1.15× peak demand binds in the busy slots without
    // making the instance infeasible
    let params = PlanningParams { capacity: Some(peak * 1.15), ..Default::default() };
    let (milp, _) = DrrpProblem::new(s, params).to_milp();
    records.extend(warm_cold_pair(
        &format!("milp_lotsizing/drrp_cap{horizon}/warm"),
        &format!("milp_lotsizing/drrp_cap{horizon}/cold"),
        &milp,
        &MilpOptions::default(),
    ));
    records.extend(warm_cold_pair(
        "milp_lotsizing/knapsack18/seq_warm",
        "milp_lotsizing/knapsack18/seq_cold",
        &knapsack(18, 99),
        &MilpOptions { node_limit: 50_000, ..Default::default() },
    ));

    match results::merge_json("BENCH_milp.json", "milp_lotsizing", &records) {
        Ok(path) => eprintln!("wrote {} ({} records)", path.display(), records.len()),
        Err(e) => eprintln!("warning: could not write BENCH_milp.json: {e}"),
    }
}

criterion_group!(benches, bench_lotsizing);
criterion_main!(benches);
