//! 100k-tenant engine soak: sustained submission of synthetic tenants
//! through a 4-shard engine, with p99 latency and deadline-miss SLOs
//! *asserted*, not just reported.
//!
//! Run with: `cargo bench --bench engine_soak` (full 100k tenants), or
//! `ENGINE_SOAK_TENANTS=10000 cargo bench --bench engine_soak` for the
//! scaled-down CI soak. Each tenant submits one cheap DP-policy request
//! (unique demand, so every request takes the full audit + solve path);
//! requests flow in back-to-back waves so the queues stay loaded for the
//! whole run.
//!
//! Persists the `engine_soak/<count>/sharded4` record into
//! `results/BENCH_engine.json` (merge — `engine_throughput` owns its own
//! namespace in the same file); CI gates it against the committed
//! baseline with `xtask benchdiff --tol`.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrp_bench::results::{self, Record};
use rrp_core::{CostSchedule, PlanningParams};
use rrp_engine::{Engine, PlanRequest, PolicyKind};
use rrp_spotmarket::CostRates;

/// Per-request wall-clock budget — the deadline SLO.
const DEADLINE: Duration = Duration::from_secs(1);
/// Asserted tail-latency SLO (per-request solve latency, ms).
const P99_SLO_MS: f64 = 250.0;
/// Asserted ceiling on the deadline-miss rate.
const MISS_RATE_SLO: f64 = 0.001;
/// Requests in flight per submission wave.
const WAVE: usize = 512;
const WORKERS: usize = 4;
/// Record label: the engine under soak (4 workers = 4 shards).
const LABEL: &str = "sharded4";

fn tenant_request(i: usize) -> PlanRequest {
    let horizon = 6;
    let mut rng = StdRng::seed_from_u64(0x50AC ^ i as u64);
    let demand: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.1..1.0)).collect();
    PlanRequest {
        app_id: format!("soak-{i}"),
        vm_class: "m1.small".into(),
        schedule: CostSchedule::ec2(vec![0.06; horizon], demand, &CostRates::ec2_2011()),
        params: PlanningParams::default(),
        tree: None,
        policy: PolicyKind::DynamicProgram,
        deadline: DEADLINE,
        seed: i as u64,
    }
}

struct SoakOutcome {
    wall_ms: f64,
    p99_ms: f64,
    miss_rate: f64,
    req_per_sec: f64,
}

/// Push `tenants` requests through `engine` in back-to-back waves and
/// check the SLOs on what came back.
fn soak(engine: &Engine, tenants: usize) -> SoakOutcome {
    let t0 = Instant::now();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(tenants);
    let mut served = 0usize;
    let mut start = 0usize;
    while start < tenants {
        let end = (start + WAVE).min(tenants);
        let reqs: Vec<PlanRequest> = (start..end).map(tenant_request).collect();
        let responses = engine.run_batch(reqs);
        for resp in &responses {
            assert!(resp.plan.is_some(), "{LABEL}: {} got no plan", resp.app_id);
            latencies_ms.push(resp.latency.as_secs_f64() * 1e3);
        }
        served += responses.len();
        start = end;
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(served, tenants, "{LABEL}: dropped requests");

    latencies_ms.sort_by(|a, b| a.total_cmp(b));
    let p99_ms = latencies_ms[((latencies_ms.len() - 1) as f64 * 0.99) as usize];
    let metrics = engine.metrics();
    assert_eq!(metrics.completed, tenants as u64, "{LABEL}: ledger disagrees");
    let miss_rate = metrics.deadline_misses as f64 / tenants as f64;
    let req_per_sec = tenants as f64 / (wall_ms / 1e3);
    eprintln!(
        "{LABEL}: {tenants} tenants in {:.1} s — {req_per_sec:.0} req/s, p99 {p99_ms:.2} ms, \
         miss rate {:.5} ({} misses), p50/p99 snapshot {:.2}/{:.2} ms",
        wall_ms / 1e3,
        miss_rate,
        metrics.deadline_misses,
        metrics.p50_latency_ms,
        metrics.p99_latency_ms,
    );

    // the soak SLOs — a breach fails the bench run (and the CI job)
    assert!(p99_ms <= P99_SLO_MS, "{LABEL}: p99 {p99_ms:.2} ms blew the {P99_SLO_MS} ms SLO");
    assert!(
        miss_rate <= MISS_RATE_SLO,
        "{LABEL}: deadline-miss rate {miss_rate:.5} blew the {MISS_RATE_SLO} SLO \
         ({} of {tenants})",
        metrics.deadline_misses
    );
    SoakOutcome { wall_ms, p99_ms, miss_rate, req_per_sec }
}

fn count_label(tenants: usize) -> String {
    if tenants.is_multiple_of(1000) {
        format!("{}k", tenants / 1000)
    } else {
        tenants.to_string()
    }
}

fn main() {
    let tenants: usize =
        std::env::var("ENGINE_SOAK_TENANTS").ok().and_then(|v| v.parse().ok()).unwrap_or(100_000);
    assert!(tenants > 0, "ENGINE_SOAK_TENANTS must be positive");
    eprintln!(
        "engine soak: {tenants} tenants, {WORKERS} workers, wave {WAVE}, deadline {DEADLINE:?} \
         (available parallelism {:?})",
        std::thread::available_parallelism().map(|n| n.get())
    );

    let engine = Engine::new(WORKERS);
    let out = soak(&engine, tenants);

    let prefix = format!("engine_soak/{}/", count_label(tenants));
    let records = [Record::timing(format!("{prefix}{LABEL}"), out.wall_ms)
        .with_extra("p99_ms", out.p99_ms)
        .with_extra("deadline_miss_rate", out.miss_rate)
        .with_extra("req_per_sec", out.req_per_sec)];
    match results::merge_json("BENCH_engine.json", &prefix, &records) {
        Ok(path) => eprintln!("wrote {} ({} records)", path.display(), records.len()),
        Err(e) => eprintln!("warning: could not write BENCH_engine.json: {e}"),
    }
}
