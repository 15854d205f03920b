//! Deadline-storm SLO gate: drive the engine with capacitated MILP
//! instances whose deadlines are far below their solve time, and require
//! the SLO engine to fire **exactly one** fast-window burn-rate alert on
//! the offending tenant, drain that tenant's deadline-miss budget below
//! zero, retain tail-sampled exemplar timelines, and carry them into the
//! flight recorder's post-mortem bundle via the `slo_burn_rate` trigger.
//!
//! Every other flight trigger is pinned shut (miss-spike and
//! budget-exhaustion thresholds zeroed, no panic hook) and the SLO
//! cooldown is longer than the storm's trace time, so a second alert or
//! a second bundle — from any cause — is a regression, not noise.
//!
//! The healthy-traffic half is the inverse gate: generous deadlines must
//! leave the budget intact, retain **zero** exemplars, and fire nothing.

use std::path::{Path, PathBuf};
use std::time::Duration;

use rrp_core::{CostSchedule, PlanningParams, ScenarioTree};
use rrp_engine::{
    Engine, EngineConfig, MetricsConfig, PlanRequest, PolicyKind, ProfConfig, SloConfig,
};
use rrp_spotmarket::{CostRates, EmpiricalDist};
use serde_json::Value;

/// A capacitated stochastic SRRP instance whose full-rung MILP runs far
/// longer than a ~15 ms deadline — every request burns its budget in
/// branch & bound and misses. Demands vary with `i` so no request is a
/// cache replay of another.
fn storm_request(i: usize, deadline: Duration) -> PlanRequest {
    let horizon = 8;
    let demand: Vec<f64> = (0..horizon).map(|t| 0.15 + 0.11 * ((i + 3 * t) % 7) as f64).collect();
    let d = EmpiricalDist::from_parts(vec![0.04, 0.12], vec![0.6, 0.4]);
    let tree = ScenarioTree::from_stage_distributions(&vec![d; horizon], 100_000);
    PlanRequest {
        app_id: "storm".into(),
        vm_class: "m1.small".into(),
        schedule: CostSchedule::ec2(vec![0.06; horizon], demand, &CostRates::ec2_2011()),
        params: PlanningParams { capacity: Some(0.7), ..Default::default() },
        tree: Some(tree),
        policy: PolicyKind::Stochastic,
        deadline,
        seed: i as u64,
    }
}

/// A cheap uncapacitated deterministic instance: solves in microseconds
/// against a 10 s deadline, so it can never miss.
fn healthy_request(i: usize) -> PlanRequest {
    let horizon = 5;
    let demand: Vec<f64> = (0..horizon).map(|t| 0.2 + 0.15 * ((i + t) % 5) as f64).collect();
    PlanRequest {
        app_id: format!("tenant-{}", i % 3),
        vm_class: "m1.small".into(),
        schedule: CostSchedule::ec2(vec![0.06; horizon], demand, &CostRates::ec2_2011()),
        params: PlanningParams::default(),
        tree: None,
        policy: PolicyKind::Deterministic,
        deadline: Duration::from_secs(10),
        seed: i as u64,
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rrp-slo-storm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Flight config with every built-in trigger disabled: the only way a
/// bundle lands in `dir` is a burn-rate alert's `slo_burn_rate` trigger.
fn slo_only_flight(dir: &Path) -> ProfConfig {
    ProfConfig {
        sample_hz: 997,
        bundle_dir: Some(dir.to_path_buf()),
        deadline_miss_spike: 0,
        budget_exhaustion_spike: 0,
        panic_hook: false,
        min_dump_interval_ms: 600_000,
        ..Default::default()
    }
}

#[test]
fn deadline_storm_fires_one_alert_and_bundles_exemplar_timelines() {
    let dir = fresh_dir("main");
    let engine = Engine::with_config(
        2,
        EngineConfig {
            prof: Some(slo_only_flight(&dir)),
            slo: Some(SloConfig::default()),
            metrics: Some(MetricsConfig::default()),
            ..Default::default()
        },
    );

    let deadline = Duration::from_millis(15);
    let reqs: Vec<PlanRequest> = (0..12).map(|i| storm_request(i, deadline)).collect();
    let responses = engine.run_batch(reqs);
    let misses = responses.iter().filter(|r| !r.deadline_met).count();
    assert!(misses >= 10, "storm must actually miss deadlines (got {misses}/12)");

    // exactly one alert, on the right tenant, in the fast window pair
    let slo = engine.slo().expect("slo engine armed").clone();
    assert_eq!(slo.alerts_total(), 1, "cooldown folds the storm into one alert");
    let alerts = slo.alerts();
    assert_eq!(alerts.len(), 1);
    let alert = &alerts[0];
    assert_eq!(alert.tenant, "storm");
    assert_eq!(alert.objective, "deadline_miss");
    assert_eq!(alert.window, "fast");
    assert!(alert.burn >= 14.4, "fast pair burns past threshold, got {}", alert.burn);
    assert!(!alert.exemplar_request_ids.is_empty(), "alert links tail-sampled exemplars");

    // the tenant's deadline-miss budget is drained below zero
    let status = slo.status_json();
    let v: Value = serde_json::from_str(&status).expect("status is valid JSON");
    assert_eq!(v.get("schema").and_then(Value::as_str), Some("rrp-slo/1"));
    let tenants = v.get("tenants").and_then(Value::as_array).expect("tenants array");
    let storm = tenants
        .iter()
        .find(|t| t.get("tenant").and_then(Value::as_str) == Some("storm"))
        .expect("storm tenant reported");
    let objective = storm
        .get("objectives")
        .and_then(Value::as_array)
        .and_then(|objs| {
            objs.iter()
                .find(|o| o.get("objective").and_then(Value::as_str) == Some("deadline_miss"))
        })
        .expect("deadline_miss objective reported");
    let remaining =
        objective.get("budget_remaining").and_then(Value::as_f64).expect("budget_remaining");
    assert!(remaining < 0.0, "storm drained the budget, remaining {remaining}");

    // every miss was retained as a `deadline` exemplar (12 < store cap)
    let (retained, _dropped) = slo.exemplar_counts();
    assert!(retained >= misses as u64, "each miss retains a timeline ({retained} < {misses})");

    // the alert pulled the flight recorder's trigger — exactly one
    // bundle, named after the SLO cause, carrying the tenant's timelines
    assert_eq!(engine.flight_dumps(), 1, "the slo hook is the only live trigger");
    let flight = engine.flight_status_json().expect("flight status");
    let fv: Value = serde_json::from_str(&flight).expect("flight status is valid JSON");
    assert_eq!(fv.get("last_trigger").and_then(Value::as_str), Some("slo_burn_rate"));

    let mut files: Vec<PathBuf> =
        std::fs::read_dir(&dir).expect("bundle dir exists").map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 1, "exactly one bundle on disk: {files:?}");
    let path = files.pop().unwrap();
    assert!(
        path.file_name().unwrap().to_string_lossy().contains("slo_burn_rate"),
        "bundle filename carries the cause: {path:?}"
    );
    let bundle = std::fs::read_to_string(&path).expect("bundle readable");
    let bv: Value = serde_json::from_str(&bundle).expect("bundle is valid JSON");
    assert_eq!(bv.get("cause").and_then(Value::as_str), Some("slo_burn_rate"));
    let bslo = bv.get("slo").expect("bundle has an slo section");
    assert!(!bslo.is_null(), "slo provider produced a document");
    let timelines =
        bslo.get("exemplar_timelines").and_then(Value::as_array).expect("timelines array");
    assert!(!timelines.is_empty(), "bundle carries at least one tail-sampled timeline");
    for tl in timelines {
        assert_eq!(tl.get("tenant").and_then(Value::as_str), Some("storm"));
        assert_eq!(tl.get("reason").and_then(Value::as_str), Some("deadline"));
    }

    // the registry exports every rrp_slo_* family
    let rendered = engine.render_metrics().expect("metrics-enabled engine renders");
    for family in [
        "rrp_slo_tenants",
        "rrp_slo_alerts_total",
        "rrp_slo_exemplars_retained_total",
        "rrp_slo_exemplars_dropped_total",
        "rrp_slo_budget_remaining",
        "rrp_slo_burn_rate",
    ] {
        assert!(rendered.contains(family), "registry is missing `{family}`:\n{rendered}");
    }
    assert!(rendered.contains("rrp_slo_alerts_total 1"), "alert counter exported:\n{rendered}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn healthy_traffic_keeps_its_budget_and_retains_nothing() {
    let dir = fresh_dir("healthy");
    let engine = Engine::with_config(
        2,
        EngineConfig {
            prof: Some(slo_only_flight(&dir)),
            // a generous latency SLO keeps a loaded CI machine's jitter
            // from masquerading as a tail; the gate is about *retention
            // policy*, not absolute speed
            slo: Some(SloConfig { latency_slo_ms: 10_000.0 }),
            ..Default::default()
        },
    );

    let reqs: Vec<PlanRequest> = (0..24).map(healthy_request).collect();
    let responses = engine.run_batch(reqs);
    assert!(responses.iter().all(|r| r.deadline_met), "healthy batch never misses");

    let slo = engine.slo().expect("slo engine armed");
    assert_eq!(slo.alerts_total(), 0, "no alert on healthy traffic");
    let (retained, dropped) = slo.exemplar_counts();
    assert_eq!(retained, 0, "healthy traffic retains zero exemplars");
    assert_eq!(dropped, 24, "every healthy timeline is discarded after completion");
    assert_eq!(engine.flight_dumps(), 0, "no bundle without an alert");
    assert!(!dir.exists() || std::fs::read_dir(&dir).map_or(true, |mut d| d.next().is_none()));

    let _ = std::fs::remove_dir_all(&dir);
}
