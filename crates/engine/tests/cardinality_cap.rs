//! One tenant table: `/slo`, `/snapshot` and `/metrics` read the same
//! per-shard request ledger, so they fold the same tenants into
//! `__other__` (past `TENANT_TABLE_CAP`). Two layers of folding are in
//! play — that table cap and the exposition's per-family series cap — and
//! neither may corrupt budget math: named tenants keep their exact
//! ledgers, the table's `__other__` row sums everything past the cap, and
//! the exposition's fold series carries the most pessimistic value, as of
//! the scrape that renders it.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use rrp_core::{CostSchedule, PlanningParams};
use rrp_engine::{
    shard_of, Engine, EngineConfig, MetricsConfig, PlanRequest, PolicyKind, SloConfig,
    TENANT_OVERFLOW, TENANT_TABLE_CAP,
};
use rrp_obs::{Exposition, OVERFLOW_LABEL, SERIES_CAP};
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

/// Named tenants live on their one `shard_of` shard, so a scrape merges
/// only the shards' `__other__` rows. With every shard of a 4-shard
/// engine past its table cap, `/snapshot`, `/slo` and each per-tenant
/// `/metrics` family carry exactly one `__other__` row; its requests are
/// the folded tenants' total, and the per-tenant request family sums to
/// `completed`.
#[test]
fn other_rows_merge_once_across_shards() {
    const SHARDS: usize = 4;
    let engine = Engine::with_config(
        SHARDS,
        EngineConfig {
            slo: Some(SloConfig::default()),
            metrics: Some(MetricsConfig::default()),
            ..Default::default()
        },
    );
    // tenants in submission order until every shard has 8 past its cap
    let (mut tenants, mut per_shard) = (Vec::new(), [0usize; SHARDS]);
    while per_shard.iter().any(|&n| n < TENANT_TABLE_CAP + 8) {
        let tenant = format!("t{:03}", tenants.len());
        per_shard[shard_of(&tenant, SHARDS)] += 1;
        tenants.push(tenant);
    }
    // one request each (a third miss their deadline, repeats on a shard
    // hit its plan cache) and a gate rejection for every fourth tenant, so
    // every per-tenant family has rows past the caps
    let mut sent: BTreeMap<&str, u64> = BTreeMap::new();
    let mut reqs = Vec::new();
    for (i, tenant) in tenants.iter().enumerate() {
        reqs.push(request(tenant, i % 3 != 0));
        if i % 4 == 0 {
            let mut starved = request(tenant, true);
            starved.params.capacity = Some(0.01);
            reqs.push(starved);
        }
        *sent.entry(tenant).or_default() += 1 + u64::from(i % 4 == 0);
    }
    engine.run_batch(reqs);

    let snap = engine.metrics();
    assert_eq!(snap.completed, sent.values().sum::<u64>());
    let named: BTreeSet<&str> =
        snap.tenants.iter().map(|t| t.tenant.as_str()).filter(|&t| t != TENANT_OVERFLOW).collect();
    assert_eq!(named.len(), SHARDS * TENANT_TABLE_CAP, "every shard's table is full");
    let folded: u64 = sent.iter().filter(|(t, _)| !named.contains(*t)).map(|(_, n)| n).sum();
    let other: Vec<_> = snap.tenants.iter().filter(|t| t.tenant == TENANT_OVERFLOW).collect();
    assert_eq!(other.len(), 1, "/snapshot carries one __other__ row");
    assert_eq!(other[0].requests, folded);

    let slo: Vec<Value> =
        slo_tenants(&engine).into_iter().filter(|t| name(t) == OVERFLOW_LABEL).collect();
    assert_eq!(slo.len(), 1, "/slo carries one __other__ row");
    assert_eq!(slo[0].get("requests").and_then(Value::as_u64), Some(folded));

    let text = engine.render_metrics().expect("metrics armed");
    let samples = rrp_obs::text::parse(&text).expect("exposition parses");
    for family in [
        "rrp_requests_total",
        "rrp_deadline_miss_total",
        "rrp_audit_rejections_total",
        "rrp_cache_hits_total",
    ] {
        let rows = samples
            .iter()
            .filter(|s| s.name == family && s.label("tenant") == Some(OVERFLOW_LABEL))
            .count();
        assert_eq!(rows, 1, "{family} carries one __other__ series:\n{text}");
    }
    let requests: f64 =
        samples.iter().filter(|s| s.name == "rrp_requests_total").map(|s| s.value).sum();
    assert_eq!(requests as u64, snap.completed);
}

#[test]
fn registry_sync_respects_the_series_cap_without_corrupting_budgets() {
    let engine = one_shard_engine();
    // tenant "hot" dominates volume and misses everything; 24 healthy
    // tenants — more than the budget family has named series for — come
    // next; two more low-volume tenants (one bad, one not) rank below them
    let mut reqs: Vec<PlanRequest> = (0..40).map(|_| request("hot", false)).collect();
    for t in 0..24 {
        reqs.extend((0..20).map(|_| request(&format!("calm-{t:02}"), true)));
    }
    for _ in 0..6 {
        reqs.push(request("over-bad", false));
        reqs.push(request("over-ok", true));
    }
    engine.run_batch(reqs);

    // more tenants than fit every (tenant, objective, window) series
    let mut x = Exposition::default();
    engine.slo().expect("slo engine armed").write_metrics(&mut x);
    let text = x.render();
    let samples = rrp_obs::text::parse(&text).expect("exposition text parses");

    let budget: Vec<_> = samples.iter().filter(|s| s.name == "rrp_slo_budget_remaining").collect();
    assert!(!budget.is_empty(), "budget family present:\n{text}");
    // the family stayed within the cap
    assert!(budget.len() <= SERIES_CAP, "{} series > cap {SERIES_CAP}", budget.len());

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

/// Every scrape is a render of the ledgers as they stand, so a tenant that
/// drops out of the exported top ranking leaves no series behind. Tenants
/// a00–a29 run first; the busier b00–b29 then push all of them below the
/// named rows. The next scrape names no `a` tenant in any `rrp_slo_*`
/// family, keeps every family within the series cap, and its `__other__`
/// series carry the worst folded value; a scrape with no traffic in
/// between exposes the same label sets.
#[test]
fn demoted_tenants_leave_no_stale_slo_series() {
    let engine = one_shard_engine();
    let phase = |prefix: &str, per_tenant: usize, misses: fn(usize) -> usize| {
        let reqs: Vec<PlanRequest> = (0..30)
            .flat_map(|t| {
                let tenant = format!("{prefix}{t:02}");
                (0..per_tenant).map(move |k| request(&tenant, k >= misses(t)))
            })
            .collect();
        engine.run_batch(reqs);
    };
    phase("a", 2, |t| t % 3);
    let first = engine.render_metrics().expect("metrics armed");
    assert!(first.contains("tenant=\"a00\""), "a00 is named before the re-ranking:\n{first}");
    phase("b", 3, |t| t % 4);
    let second = engine.render_metrics().expect("metrics armed");
    let slo = slo_tenants(&engine);
    let samples = rrp_obs::text::parse(&second).expect("exposition parses");

    // (sample name, label set without `quantile`) -> one series
    let mut series: BTreeMap<&str, BTreeSet<Vec<(String, String)>>> = BTreeMap::new();
    for s in &samples {
        let labels = s.labels.iter().filter(|(k, _)| k != "quantile").cloned().collect();
        series.entry(s.name.as_str()).or_default().insert(labels);
    }
    for (family, sets) in &series {
        assert!(sets.len() <= SERIES_CAP, "{family} holds {} series", sets.len());
    }
    let slo_samples: Vec<_> = samples.iter().filter(|s| s.name.starts_with("rrp_slo_")).collect();
    for s in &slo_samples {
        let tenant = s.label("tenant").unwrap_or_default();
        assert!(!tenant.starts_with('a'), "demoted tenant {tenant} still exported: {s:?}");
    }

    // the `/slo` rows of the tenants folded out of `family`, per objective
    let folded = |family: &str| -> Vec<&Value> {
        let named: BTreeSet<&str> = slo_samples
            .iter()
            .filter(|s| s.name == family)
            .filter_map(|s| s.label("tenant"))
            .filter(|&t| t != OVERFLOW_LABEL)
            .collect();
        slo.iter().filter(|t| !named.contains(name(t).as_str())).collect()
    };
    fn objectives(t: &Value) -> &[Value] {
        t.get("objectives").and_then(Value::as_array).expect("objectives")
    }
    let other = |family: &str, objective: &str, window: Option<&str>| -> f64 {
        slo_samples
            .iter()
            .find(|s| {
                s.name == family
                    && s.label("tenant") == Some(OVERFLOW_LABEL)
                    && s.label("objective") == Some(objective)
                    && s.label("window") == window
            })
            .unwrap_or_else(|| panic!("no __other__ {family} {objective} {window:?}"))
            .value
    };
    let budget_folded = folded("rrp_slo_budget_remaining");
    assert_eq!(budget_folded.len(), 40, "b20–b29 and every a tenant fold");
    for obj in objectives(&slo[0]) {
        let objective = obj.get("objective").and_then(Value::as_str).expect("objective name");
        let worst = budget_folded
            .iter()
            .flat_map(|t| objectives(t))
            .filter(|o| o.get("objective").and_then(Value::as_str) == Some(objective))
            .filter_map(|o| o.get("budget_remaining").and_then(Value::as_f64))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(other("rrp_slo_budget_remaining", objective, None), worst, "{objective}");
    }
    let burn_folded = folded("rrp_slo_burn_rate");
    assert!(burn_folded.len() > budget_folded.len(), "fewer tenants fit the burn family");
    for obj in objectives(&slo[0]) {
        let objective = obj.get("objective").and_then(Value::as_str).expect("objective name");
        let windows = obj.get("burn").and_then(Value::as_array).expect("burn windows");
        for (k, w) in windows.iter().enumerate() {
            let window = w.get("window").and_then(Value::as_str).expect("window label");
            let worst = burn_folded
                .iter()
                .flat_map(|t| objectives(t))
                .filter(|o| o.get("objective").and_then(Value::as_str) == Some(objective))
                .filter_map(|o| o.get("burn")?.as_array()?.get(k)?.get("rate")?.as_f64())
                .fold(0.0, f64::max);
            assert_eq!(other("rrp_slo_burn_rate", objective, Some(window)), worst);
        }
    }

    let label_sets = |text: &str| -> BTreeSet<(String, Vec<(String, String)>)> {
        let samples = rrp_obs::text::parse(text).expect("exposition parses");
        samples.into_iter().map(|s| (s.name, s.labels)).collect()
    };
    let third = engine.render_metrics().expect("metrics armed");
    assert_eq!(label_sets(&third), label_sets(&second), "an idle scrape changed the series");
}
