//! Multi-tenant closed-loop soak benchmark: N concurrent simulated
//! tenants drive full interruption/recovery episodes through one shared
//! engine, exercising the plan cache, the degradation ladder and the
//! metrics stack at once.
//!
//! Run with: `cargo bench --bench sim_soak`
//!
//! Besides the stderr report, the run persists one cold soak's request,
//! interruption and violated-slot counts to `results/BENCH_sim.json` for
//! `cargo run -p xtask -- benchdiff`. Deadline misses and cache hits are
//! left out: they depend on how the tenant threads interleave.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rrp_bench::results::{self, Record};
use rrp_engine::Engine;
use rrp_sim::{run_soak, SoakConfig};

fn soak_cfg(tenants: usize) -> SoakConfig {
    SoakConfig { tenants, slots: 8, horizon: 4, ..Default::default() }
}

fn sim_soak(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_soak");
    group.sample_size(10);

    // cold: a fresh engine per iteration, every tenant's episode solves
    for tenants in [32usize, 128] {
        group.bench_with_input(BenchmarkId::new("cold", tenants), &tenants, |b, &n| {
            b.iter(|| {
                let engine = Engine::new(4);
                black_box(run_soak(&engine, &soak_cfg(n)))
            })
        });
    }

    // warm: one engine, first soak heats the plan cache, reruns replay
    group.bench_function("warm/128", |b| {
        let engine = Engine::new(4);
        let _ = run_soak(&engine, &soak_cfg(128));
        b.iter(|| black_box(run_soak(&engine, &soak_cfg(128))));
        let m = engine.metrics();
        assert!(m.cache_hits > 0, "warm soak produced zero cache hits");
        eprintln!("warm soak cache: {} hits / {} misses", m.cache_hits, m.cache_misses);
    });

    group.finish();

    let engine = Engine::new(4);
    let out = run_soak(&engine, &soak_cfg(128));
    assert!(out.unrecovered_gb < 1e-6, "failover soak stranded demand");
    let records = [Record::new("sim_soak/cold/128", out.wall_ms, 0, f64::NAN)
        .with_count("requests", out.requests)
        .with_count("interruptions", out.interruptions as u64)
        .with_count("violated_slots", out.violated_slots as u64)];
    results::write_json("BENCH_sim.json", &records).expect("write BENCH_sim.json");
}

criterion_group!(benches, sim_soak);
criterion_main!(benches);
