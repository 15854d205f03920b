//! The planning service on a 64-request mixed-policy batch: a cold run on a
//! fresh 4-worker engine, plus a cache-warm rerun.
//!
//! Run with: `cargo bench --bench engine_throughput`
//!
//! Besides the stderr report, the run persists one counted record of the
//! batch to `results/BENCH_engine.json`: B&B nodes, LP iterations, the
//! objective sum, the answers per ladder rung, and the cache hits of the
//! warm rerun. Wall-clock comparisons (worker scaling, telemetry overhead,
//! submit-path cost) are planbench's job.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrp_bench::results::{self, Record};
use rrp_core::{CostSchedule, PlanningParams, ScenarioTree};
use rrp_engine::{Engine, EngineConfig, PlanRequest, PolicyKind};
use rrp_spotmarket::{CostRates, EmpiricalDist};

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Stochastic,
    PolicyKind::Deterministic,
    PolicyKind::DynamicProgram,
    PolicyKind::OnDemand,
];

fn batch() -> Vec<PlanRequest> {
    (0..64)
        .map(|i| {
            // horizon 7–8 keeps a stochastic solve around 25–100 ms — heavy
            // enough that worker parallelism, not queue overhead, dominates
            let horizon = 7 + i % 2;
            let mut rng = StdRng::seed_from_u64(7000 + i as u64);
            let demand: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.1..1.0)).collect();
            let policy = POLICIES[i % POLICIES.len()];
            let tree = matches!(policy, PolicyKind::Stochastic).then(|| {
                let d = EmpiricalDist::from_parts(vec![0.04, 0.12], vec![0.6, 0.4]);
                ScenarioTree::from_stage_distributions(&vec![d; horizon], 100_000)
            });
            PlanRequest {
                app_id: format!("bench-{i}"),
                vm_class: "m1.small".into(),
                schedule: CostSchedule::ec2(vec![0.06; horizon], demand, &CostRates::ec2_2011()),
                params: PlanningParams::default(),
                tree,
                policy,
                deadline: Duration::from_secs(60),
                seed: i as u64,
            }
        })
        .collect()
}

fn engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);
    let requests = batch();

    // cold cache: a fresh engine per iteration, so every request solves
    group.bench_function("cold_64req/4", |b| {
        b.iter(|| black_box(Engine::new(4).run_batch(requests.clone())))
    });

    // warm cache: one engine, batch pre-solved once, reruns replay plans
    group.bench_function("warm_64req/4", |b| {
        let engine = Engine::new(4);
        let _ = engine.run_batch(requests.clone());
        b.iter(|| black_box(engine.run_batch(requests.clone())));
    });

    group.finish();

    // The counted record: one cold run with solver-event counting on, then
    // a rerun of the same batch on the same engine, which replays every
    // plan from the cache.
    let engine =
        Engine::with_config(4, EngineConfig { count_solver_events: true, ..Default::default() });
    let t0 = Instant::now();
    let responses = engine.run_batch(requests.clone());
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cold = engine.metrics();
    let objective: f64 =
        responses.iter().filter_map(|r| r.plan.as_ref()).map(|p| p.objective).sum();
    let _ = engine.run_batch(requests);
    let warm_hits = engine.metrics().cache_hits - cold.cache_hits;
    eprintln!(
        "cold 64-request batch: {wall_ms:.1} ms, {} nodes; warm rerun: {warm_hits} cache hits",
        cold.milp_nodes_total
    );
    let records =
        [Record::new("engine_throughput/cold_64req/4", wall_ms, cold.milp_nodes_total, objective)
            .with_count("lp_iters", cold.lp_iters_total)
            .with_count("level_full", cold.level_full)
            .with_count("level_deterministic", cold.level_deterministic)
            .with_count("level_dynamic_program", cold.level_dynamic_program)
            .with_count("level_on_demand_only", cold.level_on_demand_only)
            .with_count("cache_hits", warm_hits)];
    results::write_json("BENCH_engine.json", &records).expect("write BENCH_engine.json");
}

criterion_group!(benches, engine_throughput);
criterion_main!(benches);
