//! Demo of the rrp-engine planning service: a 4-worker engine serving a
//! mixed batch of tenants, then the same batch again to show warm-start
//! cache hits, and finally a deadline-starved request that degrades
//! gracefully instead of blowing its budget.
//!
//! Run with: `cargo run --example planning_service --release`
//!
//! Pass `--trace out.jsonl` to stream the full solver telemetry (request
//! spans, ladder steps, branch & bound node events, gap samples) to a
//! JSONL file; render it afterwards with
//! `cargo run -p xtask -- trace out.jsonl`.
//!
//! Pass `--serve-metrics <addr>` (e.g. `127.0.0.1:9184`) to expose
//! `/metrics`, `/snapshot`, `/healthz`, `/readyz` and the `POST /plan`
//! intake on that address, and `--hold <secs>` to keep the engine alive
//! after the demo with a request trickle — watch it live with
//! `cargo run -p xtask -- watch <addr>`.
//!
//! Pass `--profile <hz>` to run the continuous span-stack profiler
//! (render live with `cargo run -p xtask -- prof <addr>` when
//! `--serve-metrics` is also given), and `--flight-dir <dir>` to arm the
//! flight recorder: incidents (deadline-miss spikes, budget exhaustion,
//! panics) dump post-mortem bundles into `<dir>`, rendered with
//! `cargo run -p xtask -- postmortem <bundle.json>`.
//!
//! Pass `--slo` to track per-tenant error budgets and burn rates: with
//! `--serve-metrics` the engine also serves `/slo` and exports
//! `rrp_slo_*` metric families, rendered with
//! `cargo run -p xtask -- slo <addr>`.
//!
//! Pass `--shards <n>` to pick the worker-shard count (default 4; each
//! worker owns its slice of tenant state — plan cache, basis table,
//! metrics ledger — keyed by tenant-id hash). Pass `--soak <n>` to follow
//! the demo with an n-tenant submission soak in 512-request waves (the
//! `engine_soak` bench's wave discipline), reporting req/s, p99 latency
//! and the deadline-miss rate.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rrp_core::{CostSchedule, PlanningParams, ScenarioTree};
use rrp_engine::{
    Engine, EngineConfig, MetricsConfig, PlanRequest, PolicyKind, ProfConfig, SloConfig,
};
use rrp_spotmarket::{CostRates, EmpiricalDist};
use rrp_trace::JsonlSink;

fn request(i: usize, policy: PolicyKind, deadline: Duration) -> PlanRequest {
    let horizon = 5;
    let demand: Vec<f64> = (0..horizon).map(|t| 0.2 + 0.15 * ((i + t) % 5) as f64).collect();
    let schedule = CostSchedule::ec2(vec![0.06; horizon], demand, &CostRates::ec2_2011());
    let tree = matches!(policy, PolicyKind::Stochastic).then(|| {
        let d = EmpiricalDist::from_parts(vec![0.04, 0.12], vec![0.6, 0.4]);
        ScenarioTree::from_stage_distributions(&vec![d; horizon], 100_000)
    });
    PlanRequest {
        app_id: format!("tenant-{i}"),
        vm_class: "m1.small".into(),
        schedule,
        params: PlanningParams::default(),
        tree,
        policy,
        deadline,
        seed: i as u64,
    }
}

fn main() {
    let mut trace_path = None;
    let mut metrics_addr = None;
    let mut hold_secs = 0u64;
    let mut profile_hz = None;
    let mut flight_dir = None;
    let mut slo = false;
    let mut shards = 4usize;
    let mut soak_tenants = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--slo" => slo = true,
            "--shards" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n > 0 => shards = n,
                _ => {
                    eprintln!("--shards needs a positive worker-shard count");
                    std::process::exit(2);
                }
            },
            "--soak" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => soak_tenants = n,
                None => {
                    eprintln!("--soak needs a tenant count (e.g. 20000)");
                    std::process::exit(2);
                }
            },
            "--profile" => match args.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(hz) if hz > 0 => profile_hz = Some(hz),
                _ => {
                    eprintln!("--profile needs a sampling rate in Hz (e.g. 97)");
                    std::process::exit(2);
                }
            },
            "--flight-dir" => match args.next() {
                Some(dir) => flight_dir = Some(dir),
                None => {
                    eprintln!("--flight-dir needs a directory for post-mortem bundles");
                    std::process::exit(2);
                }
            },
            "--trace" => match args.next() {
                Some(path) => trace_path = Some(path),
                None => {
                    eprintln!("--trace needs a file path");
                    std::process::exit(2);
                }
            },
            "--serve-metrics" => match args.next() {
                Some(addr) => metrics_addr = Some(addr),
                None => {
                    eprintln!("--serve-metrics needs an address (e.g. 127.0.0.1:9184)");
                    std::process::exit(2);
                }
            },
            "--hold" => match args.next().and_then(|v| v.parse().ok()) {
                Some(secs) => hold_secs = secs,
                None => {
                    eprintln!("--hold needs a number of seconds");
                    std::process::exit(2);
                }
            },
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }
    let metrics = metrics_addr.clone().map(|addr| MetricsConfig { addr: Some(addr) });
    // either flag arms the prof subsystem: `--profile` picks the sampling
    // rate, `--flight-dir` arms the recorder's dumps (with the default
    // 97 Hz sampler so bundles carry a profile), and the panic hook rides
    // along whenever a dump directory exists
    let prof = (profile_hz.is_some() || flight_dir.is_some()).then(|| ProfConfig {
        sample_hz: profile_hz.unwrap_or(ProfConfig::default().sample_hz),
        panic_hook: flight_dir.is_some(),
        bundle_dir: flight_dir.clone().map(std::path::PathBuf::from),
        ..Default::default()
    });
    let slo = slo.then(SloConfig::default);
    let engine = {
        let sink = trace_path.as_ref().map(|p| {
            Arc::new(JsonlSink::create(p).expect("create trace file")) as Arc<dyn rrp_trace::Sink>
        });
        let count_solver_events =
            sink.is_some() || metrics.is_some() || prof.is_some() || slo.is_some();
        Engine::with_config(
            shards,
            EngineConfig { sink, count_solver_events, metrics, prof, slo, ..Default::default() },
        )
    };
    println!("engine: {shards} worker shard(s), per-tenant state sharded by id hash\n");
    if let Some(dir) = &flight_dir {
        println!("flight recorder armed — post-mortems dump to {dir}/\n");
    }
    if let Some(addr) = engine.metrics_addr() {
        println!("metrics served on http://{addr}/metrics  (watch: cargo run -p xtask -- watch {addr})\n");
        if engine.slo().is_some() {
            println!("slo engine armed — budgets at http://{addr}/slo  (render: cargo run -p xtask -- slo {addr})\n");
        }
    }
    let policies = [
        PolicyKind::Stochastic,
        PolicyKind::Deterministic,
        PolicyKind::DynamicProgram,
        PolicyKind::OnDemand,
    ];
    let batch = |deadline| -> Vec<PlanRequest> {
        (0..16).map(|i| request(i, policies[i % policies.len()], deadline)).collect()
    };

    println!("== cold batch (16 tenants, 4 workers) ==");
    for resp in engine.run_batch(batch(Duration::from_secs(10))) {
        println!(
            "{:>9}  level={:<14} cost={:>8.4}  cache={}  {:?}",
            resp.app_id,
            resp.degradation.as_str(),
            resp.expect_plan().objective,
            resp.cache_hit,
            resp.latency
        );
    }

    println!("\n== warm batch (same problems) ==");
    let warm = engine.run_batch(batch(Duration::from_secs(10)));
    let hits = warm.iter().filter(|r| r.cache_hit).count();
    println!("cache hits: {hits}/{}", warm.len());

    println!("\n== rolling-horizon re-plans (shifted demand) ==");
    // each deterministic tenant re-plans three times with drifting demand:
    // the exact fingerprint misses the plan cache every round, but the
    // problem *shape* is unchanged, so the engine hands the previous round's
    // root basis to the solver and the root LP re-solves warm. The wave is
    // capacitated (1.2× peak demand): uncapacitated DRRP is answered by the
    // Wagner–Whitin DP and never reaches the LP
    for round in 1..=3u32 {
        let replans: Vec<PlanRequest> = (0..16)
            .filter(|i| matches!(policies[i % policies.len()], PolicyKind::Deterministic))
            .map(|i| {
                let mut req = request(i, PolicyKind::Deterministic, Duration::from_secs(10));
                for d in &mut req.schedule.demand {
                    *d += 0.01 * round as f64;
                }
                let peak = req.schedule.demand.iter().cloned().fold(0.0, f64::max);
                req.params.capacity = Some(1.2 * peak);
                req
            })
            .collect();
        let n = replans.len();
        let fresh = engine.run_batch(replans).iter().filter(|r| !r.cache_hit).count();
        println!("round {round}: {fresh}/{n} re-solved (basis warm starts, not cache replays)");
    }
    println!(
        "basis side-table: {} shapes, hit rate {:.2}",
        engine.basis_cache_entries(),
        engine.basis_cache_hit_rate()
    );

    println!("\n== deadline-starved stochastic request ==");
    // demand pattern 96 ≡ 1 (mod 5) was only solved *deterministically* in
    // the batch, so this stochastic request cannot be rescued by the cache
    // (the fingerprint differs) and must fall down the ladder instead
    let hurried = engine.submit(request(96, PolicyKind::Stochastic, Duration::ZERO)).wait();
    println!("degraded to: {} (cache={})", hurried.degradation.as_str(), hurried.cache_hit);
    for entry in &hurried.trace {
        println!("  rung {:<14} {:?} ({:?})", entry.level.as_str(), entry.outcome, entry.elapsed);
    }

    println!("\n== provably infeasible request (audit gate) ==");
    // capacity below every slot's demand: the pre-solve audit proves the
    // instance infeasible and rejects it with a bound-propagation trace,
    // instead of burning branch-and-bound time on it
    let mut impossible = request(3, PolicyKind::Deterministic, Duration::from_secs(10));
    impossible.params.capacity = Some(0.01);
    let rejected = engine.submit(impossible).wait();
    match &rejected.rejection {
        Some(proof) => println!("rejected: {proof}"),
        None => println!("unexpectedly planned"),
    }

    if soak_tenants > 0 {
        println!("\n== soak: {soak_tenants} synthetic tenants in 512-request waves ==");
        const WAVE: usize = 512;
        let before = engine.metrics();
        let t0 = Instant::now();
        let mut latencies_ms: Vec<f64> = Vec::with_capacity(soak_tenants);
        let mut start = 0usize;
        while start < soak_tenants {
            let end = (start + WAVE).min(soak_tenants);
            let reqs: Vec<PlanRequest> = (start..end)
                .map(|i| {
                    let mut req = request(i, PolicyKind::DynamicProgram, Duration::from_secs(1));
                    req.app_id = format!("soak-{i}");
                    // spread demand so the soak mixes solves with replays
                    // instead of replaying five cached plans forever
                    for d in &mut req.schedule.demand {
                        *d += 1e-6 * (i % 1024) as f64;
                    }
                    req
                })
                .collect();
            for resp in engine.run_batch(reqs) {
                latencies_ms.push(resp.latency.as_secs_f64() * 1e3);
            }
            start = end;
        }
        let wall_s = t0.elapsed().as_secs_f64();
        latencies_ms.sort_by(|a, b| a.total_cmp(b));
        let p99 = latencies_ms[((latencies_ms.len() - 1) as f64 * 0.99) as usize];
        let after = engine.metrics();
        let misses = after.deadline_misses - before.deadline_misses;
        println!(
            "{soak_tenants} tenants in {wall_s:.1} s — {:.0} req/s, p99 {p99:.2} ms, \
             {misses} deadline miss(es)",
            soak_tenants as f64 / wall_s
        );
    }

    if hold_secs > 0 {
        println!("\n== holding for {hold_secs}s with a request trickle (Ctrl-C to stop early) ==");
        let until = Instant::now() + Duration::from_secs(hold_secs);
        let mut i = 0usize;
        while Instant::now() < until {
            // a steady mixed trickle keeps every dashboard panel moving:
            // fresh fingerprints (cache misses) and repeats (hits)
            let policy = policies[i % policies.len()];
            let _ = engine.submit(request(i % 24, policy, Duration::from_secs(5))).wait();
            if profile_hz.is_some() {
                // the trickle alone is cache-warm within seconds and each
                // hit resolves in microseconds — far below one 97 Hz
                // sample period. Profiling needs something to attribute,
                // so add one never-cached capacitated stochastic solve
                // per round: its branch & bound runs long enough for the
                // sampler to catch the MILP rung mid-flight.
                let horizon = 8;
                let demand: Vec<f64> = (0..horizon)
                    .map(|t| 0.15 + 0.11 * ((i + 3 * t) % 7) as f64 + 1e-4 * i as f64)
                    .collect();
                let d = EmpiricalDist::from_parts(vec![0.04, 0.12], vec![0.6, 0.4]);
                let tree = ScenarioTree::from_stage_distributions(&vec![d; horizon], 100_000);
                let _ = engine
                    .submit(PlanRequest {
                        app_id: format!("prof-load-{i}"),
                        vm_class: "m1.small".into(),
                        schedule: CostSchedule::ec2(
                            vec![0.06; horizon],
                            demand,
                            &CostRates::ec2_2011(),
                        ),
                        params: PlanningParams { capacity: Some(0.7), ..Default::default() },
                        tree: Some(tree),
                        policy: PolicyKind::Stochastic,
                        // 1 s cap: long enough to dominate the sample
                        // histogram, short enough that a miss trickle
                        // stays far below the flight recorder's default
                        // spike threshold when `--flight-dir` is armed
                        deadline: Duration::from_secs(1),
                        seed: i as u64,
                    })
                    .wait();
            }
            i += 1;
            std::thread::sleep(Duration::from_millis(150));
        }
        println!("served {i} trickle requests");
    }

    let snapshot = engine.metrics();
    println!(
        "\n== metrics ==\n{}",
        serde_json::to_string_pretty(&snapshot).expect("snapshot serialises")
    );

    drop(engine); // join workers, stop the metrics server, flush the trace sink
    if let Some(path) = trace_path {
        println!("\ntrace written to {path} — render with: cargo run -p xtask -- trace {path}");
    }
}
