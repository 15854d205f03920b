//! Ablation: generic branch & bound vs the structure-exploiting
//! Wagner–Whitin DP on uncapacitated DRRP instances of growing horizon —
//! quantifying the value of the paper's "dynamic lot-sizing" observation.
//!
//! Besides the stderr report, the run persists search counts — warm
//! dual-simplex B&B vs a cold (`warm_start: false`) baseline on a
//! capacitated DRRP instance and on a correlated binary knapsack: nodes,
//! objective, LP solves, simplex iterations, warm hits, abandoned dual
//! cold starts, certified infeasible nodes, heuristic re-solves, dense
//! retries, starts reloaded from the LP workspace's memo, and heap
//! allocations with the bytes they requested — into
//! `results/BENCH_milp.json` for `xtask benchdiff`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rrp_bench::results::{self, Record};
use rrp_core::demand::DemandModel;
use rrp_core::{wagner_whitin, CostSchedule, DrrpProblem, PlanningParams};
use rrp_lp::{Cmp, Model, Sense};
use rrp_milp::{MilpOptions, MilpProblem};
use rrp_spotmarket::CostRates;

/// The system allocator, counting the allocations (`alloc`, `alloc_zeroed`
/// and `realloc` calls) each thread makes and the bytes they request (a
/// `realloc` counts its new size), so a record can gate the heap traffic of
/// one single-threaded solve.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count_alloc(bytes: usize) {
    // `try_with`: a thread's last frees run after its locals are gone.
    let _ = ALLOCS.try_with(|n| {
        let (calls, total) = n.get();
        n.set((calls + 1, total + bytes as u64));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: the caller's guarantees for `layout` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread has made so far, and the bytes they requested.
fn allocs() -> (u64, u64) {
    ALLOCS.with(Cell::get)
}

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

/// Solve once and turn the search statistics into a BENCH record: the
/// wall clock for the reader, and the counts the gate checks.
fn measure(label: &str, milp: &MilpProblem, opts: &MilpOptions) -> Record {
    let (allocs_before, bytes_before) = allocs();
    let t0 = Instant::now();
    let sol = milp.solve(opts).expect("bench instance is feasible");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (allocs_after, bytes_after) = allocs();
    let stats = sol.lp_stats;
    Record::new(label, wall_ms, sol.nodes as u64, sol.objective)
        .with_count("lp_solves", stats.solves)
        .with_count("lp_iters", stats.iterations)
        .with_count("warm_hits", stats.warm_hits)
        .with_count("cold_dual_abandoned", stats.cold_dual_abandoned)
        .with_count("certified_infeasible", stats.certified_infeasible)
        .with_count("heuristic_solves", stats.heuristic_solves)
        .with_count("heuristic_iters", stats.heuristic_iters)
        .with_count("dense_retries", stats.dense_retries)
        .with_count("start_reuses", stats.start_reuses)
        .with_count("allocs", allocs_after - allocs_before)
        .with_count("bytes", bytes_after - bytes_before)
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

/// The warm-vs-cold comparison on a capacitated DRRP instance (capacity
/// binds, so the tree is non-trivial) and on the n=18 knapsack, written to
/// BENCH_milp.json.
fn persist_records() {
    let mut records = Vec::new();
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

    results::write_json("BENCH_milp.json", &records).expect("write BENCH_milp.json");
}

criterion_group!(benches, bench_lotsizing);
criterion_main!(benches);
