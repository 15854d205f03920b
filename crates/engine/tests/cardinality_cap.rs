//! One tenant table: `/slo`, `/snapshot` and `/metrics` read the same
//! per-shard request ledger, so they fold the same tenants into
//! `__other__` (past `TENANT_TABLE_CAP`). Two layers of folding are in
//! play — that table cap and the registry's per-family series cap — and
//! neither may corrupt budget math: named tenants keep their exact
//! ledgers, the table's `__other__` row sums everything past the cap, and
//! the registry's fold series carries the most pessimistic value.

use std::time::Duration;

use rrp_core::{CostSchedule, PlanningParams};
use rrp_engine::{
    Engine, EngineConfig, MetricsConfig, PlanRequest, PolicyKind, SloConfig, TENANT_OVERFLOW,
    TENANT_TABLE_CAP,
};
use rrp_obs::{Registry, OVERFLOW_LABEL};
use rrp_spotmarket::CostRates;
use serde_json::Value;

/// A tiny uncapacitated request for `tenant`: answered in microseconds,
/// so a zero deadline always misses and a 10 s one never does.
fn request(tenant: &str, met: bool) -> PlanRequest {
    let demand = vec![0.4, 0.2, 0.6];
    PlanRequest {
        app_id: tenant.to_string(),
        vm_class: "m1.small".into(),
        schedule: CostSchedule::ec2(vec![0.06; 3], demand, &CostRates::ec2_2011()),
        params: PlanningParams::default(),
        tree: None,
        policy: PolicyKind::Deterministic,
        deadline: if met { Duration::from_secs(10) } else { Duration::ZERO },
        seed: 0,
    }
}

/// One shard, so the batch is processed in submission order and the
/// first tenants claim the table's named rows.
fn one_shard_engine() -> Engine {
    Engine::with_config(
        1,
        EngineConfig {
            slo: Some(SloConfig::default()),
            metrics: Some(MetricsConfig::default()),
            ..Default::default()
        },
    )
}

fn slo_tenants(engine: &Engine) -> Vec<Value> {
    let status = engine.slo_status_json().expect("slo engine armed");
    let v: Value = serde_json::from_str(&status).expect("/slo parses");
    v.get("tenants").and_then(Value::as_array).expect("tenants array").to_vec()
}

fn name(t: &Value) -> String {
    t.get("tenant").and_then(Value::as_str).unwrap_or_default().to_string()
}

/// `(events, bad)` of a tenant row's deadline-miss objective.
fn deadline_miss(t: &Value) -> (u64, u64) {
    let dm = &t.get("objectives").and_then(Value::as_array).expect("objectives")[0];
    assert_eq!(dm.get("objective").and_then(Value::as_str), Some("deadline_miss"));
    (
        dm.get("events").and_then(Value::as_u64).unwrap_or(0),
        dm.get("bad").and_then(Value::as_u64).unwrap_or(0),
    )
}

#[test]
fn overflow_tenants_fold_into_one_other_ledger() {
    let engine = one_shard_engine();
    // a full table of named tenants, all healthy
    let mut reqs: Vec<PlanRequest> = Vec::new();
    for t in 0..TENANT_TABLE_CAP {
        reqs.extend((0..2).map(|_| request(&format!("named-{t:02}"), true)));
    }
    // five more tenants past the cap, all missing deadlines
    for t in ["d", "e", "f", "g", "h"] {
        reqs.extend((0..4).map(|_| request(t, false)));
    }
    engine.run_batch(reqs);

    let tenants = slo_tenants(&engine);
    assert_eq!(tenants.len(), TENANT_TABLE_CAP + 1, "named rows + __other__");
    assert_eq!(TENANT_OVERFLOW, OVERFLOW_LABEL);
    // the fold row aggregated all 20 overflow events, every one bad
    let other = tenants.iter().find(|t| name(t) == OVERFLOW_LABEL).expect("__other__ present");
    assert_eq!(deadline_miss(other), (20, 20));
    // named ledgers are untouched by the overflow storm
    let first = tenants.iter().find(|t| name(t) == "named-00").expect("named tenant");
    assert_eq!(deadline_miss(first), (2, 0));
}

#[test]
fn slo_and_snapshot_share_one_tenant_table() {
    let engine = one_shard_engine();
    let reqs: Vec<PlanRequest> =
        (0..TENANT_TABLE_CAP + 6).map(|t| request(&format!("tenant-{t:02}"), t % 5 != 0)).collect();
    engine.run_batch(reqs);

    let snap = engine.metrics();
    let mut snapshot_names: Vec<String> = snap.tenants.iter().map(|t| t.tenant.clone()).collect();
    let tenants = slo_tenants(&engine);
    let mut slo_names: Vec<String> = tenants.iter().map(name).collect();
    snapshot_names.sort();
    slo_names.sort();
    assert!(slo_names.iter().any(|n| n == TENANT_OVERFLOW), "{slo_names:?}");
    assert_eq!(slo_names, snapshot_names, "/slo and /snapshot fold the same tenants");
    // every completion is one deadline-miss event, bad exactly when missed
    let (events, bad) =
        tenants.iter().map(deadline_miss).fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
    assert_eq!(events, snap.completed);
    assert_eq!(bad, snap.deadline_misses);
}

#[test]
fn registry_sync_respects_the_series_cap_without_corrupting_budgets() {
    let engine = one_shard_engine();
    // tenant "hot" dominates volume and misses everything; "calm" and
    // "cool" are healthy; two more low-volume tenants (one bad, one not)
    // rank below them
    let mut reqs: Vec<PlanRequest> = (0..40).map(|_| request("hot", false)).collect();
    for t in ["calm", "cool"] {
        reqs.extend((0..20).map(|_| request(t, true)));
    }
    for _ in 0..6 {
        reqs.push(request("over-bad", false));
        reqs.push(request("over-ok", true));
    }
    engine.run_batch(reqs);

    // a registry too small for every (tenant, objective, window) series
    let reg = Registry::with_series_cap(6);
    engine.slo().expect("slo engine armed").sync_registry(&reg);
    let text = reg.render();
    let samples = rrp_obs::text::parse(&text).expect("registry text parses");

    let budget: Vec<_> = samples.iter().filter(|s| s.name == "rrp_slo_budget_remaining").collect();
    assert!(!budget.is_empty(), "budget family present:\n{text}");
    // the family stayed within the cap
    assert!(budget.len() <= 6, "{} series > cap 6", budget.len());

    let label = |s: &rrp_obs::Sample, k: &str| -> String {
        s.labels.iter().find(|(lk, _)| lk == k).map(|(_, lv)| lv.clone()).unwrap_or_default()
    };

    // "hot" is top-volume, so its exact (drained) budget survives the fold
    let hot_dm = budget
        .iter()
        .find(|s| label(s, "tenant") == "hot" && label(s, "objective") == "deadline_miss")
        .expect("hot tenant keeps a named series");
    assert!(hot_dm.value < 0.0, "hot budget must be overspent, got {}", hot_dm.value);

    // the fold bucket exists and carries the *worst* folded budget — the
    // healthy folded tenants cannot mask the bad one
    let other_dm = budget
        .iter()
        .find(|s| label(s, "tenant") == OVERFLOW_LABEL && label(s, "objective") == "deadline_miss")
        .expect("__other__ budget series");
    assert!(other_dm.value < 1.0, "fold must keep the pessimistic value, got {}", other_dm.value);

    // scalar families are always present
    for fam in [
        "rrp_slo_tenants",
        "rrp_slo_alerts_total",
        "rrp_slo_exemplars_retained_total",
        "rrp_slo_exemplars_dropped_total",
    ] {
        assert!(samples.iter().any(|s| s.name == fam), "{fam} missing:\n{text}");
    }
}
