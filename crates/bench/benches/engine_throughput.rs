//! Throughput of the planning service on a 64-request mixed-policy batch:
//! 1 worker vs 4 workers on a cold cache, plus a cache-warm rerun.
//!
//! Run with: `cargo bench --bench engine_throughput`
//!
//! Besides the stderr report, the run persists its timings (and one
//! telemetry-instrumented cold run's node count / total objective) to
//! `results/BENCH_engine.json` so later PRs can diff engine performance.

use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
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
    // the 1-vs-4-worker comparison only shows a speedup when the host
    // actually has cores to hand out — print it so results are readable
    eprintln!("available parallelism: {:?}", std::thread::available_parallelism().map(|n| n.get()));

    // cold cache: a fresh engine per iteration, so every request solves
    for workers in [1usize, 4] {
        group.bench_with_input(BenchmarkId::new("cold_64req", workers), &workers, |b, &w| {
            b.iter(|| {
                let engine = Engine::new(w);
                black_box(engine.run_batch(requests.clone()))
            })
        });
    }

    // warm cache: one engine, batch pre-solved once, reruns replay plans
    group.bench_function("warm_64req/4", |b| {
        let engine = Engine::new(4);
        let _ = engine.run_batch(requests.clone());
        b.iter(|| black_box(engine.run_batch(requests.clone())));
        let m = engine.metrics();
        assert!(m.cache_hits > 0, "warm rerun produced zero cache hits");
        eprintln!(
            "warm cache: {} hits / {} misses (hit rate {:.3})",
            m.cache_hits, m.cache_misses, m.cache_hit_rate
        );
    });

    group.finish();

    // Persist the trajectory: the shim's timing records, plus one cold run
    // with solver-event counting on for search-tree size and objective.
    let mut records: Vec<Record> = criterion::take_results()
        .into_iter()
        .map(|r| Record::timing(r.label, r.mean_ns as f64 / 1e6))
        .collect();
    let engine =
        Engine::with_config(4, EngineConfig { count_solver_events: true, ..Default::default() });
    let t0 = Instant::now();
    let responses = engine.run_batch(requests.clone());
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let metrics = engine.metrics();
    let objective: f64 =
        responses.iter().filter_map(|r| r.plan.as_ref()).map(|p| p.objective).sum();
    records.push(Record {
        instance: "engine_throughput/cold_64req/4+counters".to_string(),
        wall_ms,
        nodes: metrics.milp_nodes_total,
        objective,
        extras: Vec::new(),
        tags: Vec::new(),
    });

    // The observability overhead record: metrics exposition on, with a
    // 10 Hz scraper pulling /metrics for the whole run — the acceptance
    // scenario ("metrics enabled + scraper within 5% of the baseline").
    records.push(cold_run_with_scraper(&requests));

    // The profiler overhead pair: profiler-off vs 97 Hz sampling + flight
    // recorder, measured back-to-back (see `prof_overhead_records`). CI
    // gates their ratio at 1.02 with `xtask benchdiff --assert-ratio`.
    records.extend(prof_overhead_records(&requests));

    // The SLO overhead pair: error budgets + burn-rate windows + tail
    // sampling on vs off, same interleaved min-of-pairs protocol. CI
    // gates `+slo_on` at ≤ 1.02 × `+slo_off`.
    records.extend(slo_overhead_records(&requests));

    // The submit-path record: a warm cache-hit storm where per-request
    // work is a hash lookup, so dispatch overhead (batched shard drains +
    // one wave signal) is the whole measurement.
    records.push(submit_path_record());

    // merge (not overwrite): `engine_soak` owns its own namespace in the
    // same BENCH_engine.json
    match results::merge_json("BENCH_engine.json", "engine_throughput/", &records) {
        Ok(path) => eprintln!("wrote {} ({} records)", path.display(), records.len()),
        Err(e) => eprintln!("warning: could not write BENCH_engine.json: {e}"),
    }
}

/// 2048 cache-hitting requests per run: 32 distinct problems × 64 tenant
/// aliases, so the engine spreads them across all 4 shards while every
/// request after the warm-up run replays a cached plan.
fn storm_batch() -> Vec<PlanRequest> {
    (0..2048)
        .map(|i| {
            let horizon = 6;
            let mut rng = StdRng::seed_from_u64(9000 + (i % 32) as u64);
            let demand: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.1..1.0)).collect();
            PlanRequest {
                app_id: format!("storm-{i}"),
                vm_class: "m1.small".into(),
                schedule: CostSchedule::ec2(vec![0.06; horizon], demand, &CostRates::ec2_2011()),
                params: PlanningParams::default(),
                tree: None,
                policy: PolicyKind::Deterministic,
                deadline: Duration::from_secs(60),
                seed: i as u64,
            }
        })
        .collect()
}

/// Submit-path throughput of the 4-shard engine on the warm cache-hit
/// storm: the min over `RUNS` runs (scheduler noise is one-sided, see
/// [`prof_overhead_records`]). The storm flows in back-to-back 512-request
/// waves — the same wave discipline as the `engine_soak` intake loop — so
/// the record measures sustained submission, not one monolithic batch.
fn submit_path_record() -> Record {
    const RUNS: usize = 8;
    const WAVE: usize = 512;
    let requests = storm_batch();
    let engine = Engine::new(4);
    // pre-solve once so the timed runs are pure cache hits
    let warm = engine.run_batch(requests.clone());
    assert_eq!(warm.len(), requests.len());
    let mut best_ms = f64::INFINITY;
    for _ in 0..RUNS {
        // clone the waves outside the timed region: request construction
        // would only dilute the dispatch-path measurement
        let waves: Vec<Vec<PlanRequest>> = requests.chunks(WAVE).map(|w| w.to_vec()).collect();
        let t0 = Instant::now();
        for wave in waves {
            let out = black_box(engine.run_batch(wave));
            debug_assert!(out.iter().all(|r| r.cache_hit), "storm rerun must be all hits");
        }
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let n = requests.len() as f64;
    eprintln!("submit path storm ({n} hits): {best_ms:.2} ms ({:.0} req/s)", n / (best_ms / 1e3));
    Record::timing("engine_throughput/submit_path/sharded4".to_string(), best_ms)
        .with_extra("req_per_sec", n / (best_ms / 1e3))
}

/// One cold 64-request batch on a metrics-serving engine while a second
/// thread scrapes `/metrics` at 10 Hz, like a tight Prometheus poll.
fn cold_run_with_scraper(requests: &[PlanRequest]) -> Record {
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let engine = Engine::with_config(
        4,
        EngineConfig {
            metrics: Some(rrp_engine::MetricsConfig { addr: Some("127.0.0.1:0".to_string()) }),
            ..Default::default()
        },
    );
    let addr = engine.metrics_addr().expect("bench engine serves metrics");
    let stop = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Ok(mut s) = std::net::TcpStream::connect(addr) {
                    let _ = s.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n");
                    let mut buf = String::new();
                    let _ = s.read_to_string(&mut buf);
                    assert!(buf.contains("rrp_completed_total"), "scrape missing families");
                    scrapes += 1;
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            scrapes
        })
    };
    let t0 = Instant::now();
    let responses = engine.run_batch(requests.to_vec());
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    stop.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().expect("scraper thread");
    let metrics = engine.metrics();
    eprintln!("metrics+scraper cold run: {wall_ms:.1} ms under {scrapes} scrapes");
    let objective: f64 =
        responses.iter().filter_map(|r| r.plan.as_ref()).map(|p| p.objective).sum();
    Record {
        instance: "engine_throughput/cold_64req/4+metrics+scraper".to_string(),
        wall_ms,
        nodes: metrics.milp_nodes_total,
        objective,
        extras: Vec::new(),
        tags: Vec::new(),
    }
}

/// The profiler-overhead pair for the CI `profiler-overhead` gate:
/// cold 64-request batches with the profiler off vs sampling at 97 Hz
/// (flight recorder armed, spike triggers pinned shut so no dump pollutes
/// the timing).
///
/// The two configurations run *interleaved* in one process and each
/// records its **min** wall time: scheduler noise on a loaded runner is
/// one-sided (preemption only ever adds time), so the min-of-pairs ratio
/// isolates the configuration delta where a ratio of two means would
/// mostly compare noise. `xtask benchdiff --assert-ratio` then gates
/// `+prof97` at ≤ 1.02 × `+prof_off`.
fn prof_overhead_records(requests: &[PlanRequest]) -> [Record; 2] {
    const PAIRS: usize = 6;
    let run = |prof: bool| -> f64 {
        let engine = Engine::with_config(
            4,
            EngineConfig {
                prof: prof.then(|| rrp_engine::ProfConfig {
                    sample_hz: 97,
                    deadline_miss_spike: 0,
                    budget_exhaustion_spike: 0,
                    ..Default::default()
                }),
                ..Default::default()
            },
        );
        let t0 = Instant::now();
        black_box(engine.run_batch(requests.to_vec()));
        t0.elapsed().as_secs_f64() * 1e3
    };
    run(false); // warm-up, untimed
    let (mut off_ms, mut on_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PAIRS {
        off_ms = off_ms.min(run(false));
        on_ms = on_ms.min(run(true));
    }
    eprintln!(
        "profiler overhead pair: off {off_ms:.1} ms vs 97 Hz {on_ms:.1} ms (ratio {:.4})",
        on_ms / off_ms
    );
    [
        Record::timing("engine_throughput/cold_64req/4+prof_off".to_string(), off_ms),
        Record::timing("engine_throughput/cold_64req/4+prof97".to_string(), on_ms),
    ]
}

/// The SLO-overhead pair for the CI `slo-overhead` gate: cold 64-request
/// batches with SLO ledgers off vs on (default objectives, burn-rate
/// windows, and tail sampling — the healthy path, where nothing is
/// retained and no exemplar is cut).
///
/// Both sides keep the trace pipeline on (`count_solver_events`), so the
/// pair isolates the SLO layer's own cost — the lifecycle ring, ledger
/// rows, window rings — instead of re-measuring the cost of turning
/// tracing on, which the `+counters` record already carries.
///
/// Same interleaved min-of-pairs protocol as [`prof_overhead_records`],
/// and for the same reason: scheduler preemption only ever adds time, so
/// min-of-pairs isolates the configuration delta. `xtask benchdiff
/// --assert-ratio` gates `+slo_on` at ≤ 1.02 × `+slo_off`.
fn slo_overhead_records(requests: &[PlanRequest]) -> [Record; 2] {
    const PAIRS: usize = 6;
    let run = |slo: bool| -> f64 {
        let engine = Engine::with_config(
            4,
            EngineConfig {
                count_solver_events: true,
                slo: slo.then(rrp_engine::SloConfig::default),
                ..Default::default()
            },
        );
        let t0 = Instant::now();
        black_box(engine.run_batch(requests.to_vec()));
        t0.elapsed().as_secs_f64() * 1e3
    };
    run(false); // warm-up, untimed
    let (mut off_ms, mut on_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..PAIRS {
        off_ms = off_ms.min(run(false));
        on_ms = on_ms.min(run(true));
    }
    eprintln!(
        "slo overhead pair: off {off_ms:.1} ms vs on {on_ms:.1} ms (ratio {:.4})",
        on_ms / off_ms
    );
    [
        Record::timing("engine_throughput/cold_64req/4+slo_off".to_string(), off_ms),
        Record::timing("engine_throughput/cold_64req/4+slo_on".to_string(), on_ms),
    ]
}

criterion_group!(benches, engine_throughput);
criterion_main!(benches);
