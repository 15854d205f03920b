//! `/metrics` fidelity: the registry is a scrape-time view of the engine's
//! two ledgers — the per-shard request ledger and the solver-event
//! [`CounterSink`] — so every exported figure must equal what the raw event
//! stream says happened. Four anchors:
//!
//! 1. the golden capacitated DRRP instance (the one pinned in
//!    `tests/golden/drrp_trace.jsonl`) solved against a bare `CounterSink`,
//!    every count compared with line counts grep'd out of the pin;
//! 2. a mixed engine batch teed with a [`RingSink`], per-rung, per-tenant
//!    and solver families compared against the drained events;
//! 3. a metrics-only engine (no sink, no `count_solver_events`) still
//!    exports solver counters;
//! 4. more tenants than the series cap fold into `__other__` as a sum.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

use rrp_core::{CostSchedule, DrrpProblem, PlanningParams, ScenarioTree};
use rrp_engine::{Engine, EngineConfig, MetricsConfig, PlanRequest, PolicyKind};
use rrp_milp::MilpOptions;
use rrp_obs::text::{parse, Sample};
use rrp_obs::{Registry, OVERFLOW_LABEL};
use rrp_spotmarket::{CostRates, EmpiricalDist};
use rrp_trace::{CounterSink, EventKind, PruneReason, RingSink, TraceHandle, SOLVE_STATUSES};

/// The value of `name{label_key="label_value"}`, or 0 when the series was
/// never created.
fn value(samples: &[Sample], name: &str, label: Option<(&str, &str)>) -> f64 {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && match label {
                    Some((k, v)) => s.label(k) == Some(v),
                    None => true,
                }
        })
        .map(|s| s.value)
        .unwrap_or(0.0)
}

/// Count golden-pin lines carrying `"ev":"<tag>"` (and every extra
/// `"key":"value"` fragment, for label-split families like prune reasons).
fn pin_count(pin: &str, tag: &str, extra: &[(&str, &str)]) -> u64 {
    let ev = format!("\"ev\":\"{tag}\"");
    pin.lines()
        .filter(|l| {
            l.contains(&ev) && extra.iter().all(|(k, v)| l.contains(&format!("\"{k}\":\"{v}\"")))
        })
        .count() as u64
}

/// The golden instance solved against a bare solver ledger: every count
/// equals the pin's event counts exactly (the solve is deterministic).
#[test]
fn solver_ledger_matches_the_golden_pin() {
    let schedule =
        CostSchedule::ec2(vec![0.08; 4], vec![0.6, 0.0, 0.9, 0.3], &CostRates::ec2_2011());
    let params = PlanningParams { capacity: Some(0.7), ..Default::default() };
    let (milp, _) = DrrpProblem::new(schedule, params).to_milp();

    let ledger = Arc::new(CounterSink::new());
    let opts = MilpOptions { trace: TraceHandle::new(ledger.clone()), ..Default::default() };
    let sol = milp.solve(&opts).expect("golden DRRP instance solves");
    assert!(sol.proven_optimal);

    let pin_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/drrp_trace.jsonl");
    let pin = std::fs::read_to_string(&pin_path).expect("golden pin is committed");
    let got = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);

    assert_eq!(got(&ledger.milp_nodes), pin_count(&pin, "node_opened", &[]));
    for (reason, n) in PruneReason::ALL.into_iter().zip(&ledger.nodes_pruned) {
        assert_eq!(
            got(n),
            pin_count(&pin, "node_pruned", &[("reason", reason.as_str())]),
            "pruned[{}] drifted from the pin",
            reason.as_str()
        );
    }
    assert_eq!(got(&ledger.nodes_integral), pin_count(&pin, "node_integral", &[]));
    assert_eq!(got(&ledger.incumbents), pin_count(&pin, "incumbent_improved", &[]));
    assert_eq!(got(&ledger.lp_solves), pin_count(&pin, "lp_solved", &[]));
    assert_eq!(got(&ledger.refactorisations), pin_count(&pin, "refactored", &[]));
    let pin_iters: u64 = pin
        .lines()
        .filter_map(|l| l.split("\"iters\":").nth(1))
        .filter_map(|rest| rest.split(',').next()?.parse::<u64>().ok())
        .sum();
    assert_eq!(got(&ledger.lp_iters), pin_iters);
    // exactly one terminal status, matching the pin's solve_done line
    for (status, n) in SOLVE_STATUSES.into_iter().zip(&ledger.solves) {
        assert_eq!(got(n), pin_count(&pin, "solve_done", &[("status", status)]), "{status}");
    }
    assert_eq!(ledger.solves.iter().map(got).sum::<u64>(), 1);
    // the pin covers actual branching, so the comparison is non-vacuous
    assert!(got(&ledger.milp_nodes) > 1, "pin instance no longer branches");
}

fn request(i: usize, tenant: &str, policy: PolicyKind) -> PlanRequest {
    let horizon = 5;
    let demand: Vec<f64> = (0..horizon).map(|t| 0.2 + 0.15 * ((i + t) % 5) as f64).collect();
    let tree = matches!(policy, PolicyKind::Stochastic).then(|| {
        let d = EmpiricalDist::from_parts(vec![0.04, 0.12], vec![0.6, 0.4]);
        ScenarioTree::from_stage_distributions(&vec![d; horizon], 100_000)
    });
    PlanRequest {
        app_id: tenant.to_string(),
        vm_class: "m1.small".into(),
        schedule: CostSchedule::ec2(vec![0.06; horizon], demand, &CostRates::ec2_2011()),
        params: PlanningParams::default(),
        tree,
        policy,
        deadline: Duration::from_secs(30),
        seed: i as u64,
    }
}

/// A capacitated request: branch & bound does the work.
fn capacitated(tenant: &str) -> PlanRequest {
    let mut req = request(0, tenant, PolicyKind::Deterministic);
    req.schedule =
        CostSchedule::ec2(vec![0.08; 4], vec![0.6, 0.0, 0.9, 0.3], &CostRates::ec2_2011());
    req.params = PlanningParams { capacity: Some(0.7), ..Default::default() };
    req
}

fn metrics_only_engine(workers: usize) -> Engine {
    Engine::with_config(
        workers,
        EngineConfig { metrics: Some(MetricsConfig::default()), ..Default::default() },
    )
}

/// Through the full engine path (teed with a ring), the per-rung latency
/// counts equal the `LadderStep` events per level, the per-tenant counters
/// equal the `RequestDone` events per tenant, and the solver families equal
/// the node and LP events — no event counted twice, none lost.
#[test]
fn exposition_agrees_with_the_raw_event_stream() {
    let ring = Arc::new(RingSink::new(1 << 16));
    let engine = Engine::with_config(
        2,
        EngineConfig {
            sink: Some(ring.clone()),
            metrics: Some(MetricsConfig::default()),
            ..Default::default()
        },
    );
    let policies = [PolicyKind::Deterministic, PolicyKind::Stochastic, PolicyKind::DynamicProgram];
    let tenants = ["acme", "globex", "initech"];
    let reqs: Vec<PlanRequest> = (0..12)
        .map(|i| request(i, tenants[i % tenants.len()], policies[i % policies.len()]))
        .collect();
    let n = reqs.len() + 2;
    let responses = engine.run_batch(reqs);
    assert_eq!(responses.len(), n - 2);
    // a second wave repeating two solved instances: with the first batch
    // fully drained these must complete from the cache
    let repeats = vec![
        request(0, "acme", PolicyKind::Deterministic),
        request(1, "globex", PolicyKind::Stochastic),
    ];
    assert_eq!(engine.run_batch(repeats).len(), 2);

    let rendered = engine.render_metrics().expect("metrics-enabled engine renders");
    let samples = parse(&rendered).expect("engine exposition parses");
    let events = ring.drain();
    assert_eq!(ring.dropped_events(), 0, "ring sized for the whole stream");

    for rung in ["full", "deterministic", "dynamic-program", "on-demand-only"] {
        let steps = events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::LadderStep { level, .. } if *level == rung))
            .count();
        let observed = value(&samples, "rrp_rung_latency_ms_count", Some(("rung", rung))) as usize;
        assert_eq!(observed, steps, "rung `{rung}` histogram count drifted from the stream");
    }
    for tenant in tenants {
        let done = events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::RequestDone { tenant: t, .. } if t == tenant))
            .count();
        let counted = value(&samples, "rrp_requests_total", Some(("tenant", tenant))) as usize;
        assert_eq!(counted, done, "tenant `{tenant}` request counter drifted from the stream");
        assert!(done > 0, "tenant `{tenant}` never completed");
    }
    // every request emits exactly one RequestDone, across all outcomes
    let all_done =
        events.iter().filter(|e| matches!(e.kind, EventKind::RequestDone { .. })).count();
    assert_eq!(all_done, n);
    let hits = events
        .iter()
        .filter(|e| matches!(&e.kind, EventKind::RequestDone { outcome, .. } if *outcome == "cache_hit"))
        .count();
    assert_eq!(hits, 2, "the two repeated instances complete from the cache");
    let hit_total: f64 =
        samples.iter().filter(|s| s.name == "rrp_cache_hits_total").map(|s| s.value).sum();
    assert_eq!(hit_total as usize, hits);
    // the unlabeled latency summary saw every completion too
    assert_eq!(value(&samples, "rrp_request_latency_ms_count", None) as usize, n);

    // the solver ledger saw the same node and LP events the ring did
    let opened = events.iter().filter(|e| matches!(e.kind, EventKind::NodeOpened { .. })).count();
    let iters: usize = events
        .iter()
        .map(|e| match e.kind {
            EventKind::LpSolved { iters, .. } => iters,
            _ => 0,
        })
        .sum();
    assert!(opened > 0, "the stochastic requests run branch & bound");
    assert_eq!(value(&samples, "rrp_milp_nodes_opened_total", None) as usize, opened);
    assert_eq!(value(&samples, "rrp_lp_iters_total", None) as usize, iters);
}

/// `metrics` alone turns solver-event counting on: no sink, no
/// `count_solver_events`, and the node counters still move.
#[test]
fn metrics_only_engine_counts_solver_events() {
    let engine = metrics_only_engine(1);
    let resp = engine.submit(capacitated("solo")).wait();
    assert!(resp.plan.is_some());
    let samples = parse(&engine.render_metrics().expect("renders")).expect("parses");
    let nodes = value(&samples, "rrp_milp_nodes_opened_total", None);
    assert!(nodes > 0.0, "a metrics-only engine exported no B&B nodes");
    assert_eq!(nodes as u64, engine.metrics().milp_nodes_total);
    assert!(value(&samples, "rrp_lp_solves_total", None) > 0.0);
    assert_eq!(value(&samples, "rrp_milp_solves_total", Some(("status", "optimal"))), 1.0);
}

/// More tenants than the series cap: every tenant family stays within the
/// cap, and `__other__` carries the sum of the folded tail, not whichever
/// tenant was written last.
#[test]
fn tenant_families_fold_past_the_series_cap_as_a_sum() {
    let cap = Registry::new().series_cap();
    let engine = metrics_only_engine(1);
    let tenants: Vec<String> = (0..cap + 40).map(|i| format!("tenant-{i:03}")).collect();
    // every tenant once, the first ten again (cache hits) to vary volume
    let reqs: Vec<PlanRequest> = tenants
        .iter()
        .enumerate()
        .chain(tenants.iter().enumerate().take(10))
        .map(|(i, t)| request(i, t, PolicyKind::Deterministic))
        .collect();
    let total = reqs.len();
    assert_eq!(engine.run_batch(reqs).len(), total);

    let samples = parse(&engine.render_metrics().expect("renders")).expect("parses");
    let snap = engine.metrics();
    assert_eq!(snap.completed as usize, total);
    for family in [
        "rrp_requests_total",
        "rrp_cache_hits_total",
        "rrp_deadline_miss_total",
        "rrp_audit_rejections_total",
    ] {
        let series = samples.iter().filter(|s| s.name == family && s.label("tenant").is_some());
        assert!(series.count() <= cap, "{family} exceeds the series cap");
    }
    let sum = |family: &str| -> f64 {
        samples
            .iter()
            .filter(|s| s.name == family && s.label("tenant").is_some())
            .map(|s| s.value)
            .sum()
    };
    assert_eq!(sum("rrp_requests_total") as u64, snap.completed);
    assert_eq!(sum("rrp_cache_hits_total") as u64, snap.cache_hits);
    assert!(snap.cache_hits >= 10, "the repeated tenants hit the cache");
    let other = value(&samples, "rrp_requests_total", Some(("tenant", OVERFLOW_LABEL)));
    assert!(other > 1.0, "__other__ must sum the folded tail, got {other}");
}
