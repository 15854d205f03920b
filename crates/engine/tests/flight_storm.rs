//! Deadline-storm post-mortem: drive the engine with capacitated MILP
//! instances whose deadlines are far below their solve time, and require
//! the flight recorder to dump **exactly one** bundle whose cause is the
//! deadline-miss spike — with the profiler's dominant span path inside
//! the MILP rung, because that is where the storm actually burned its
//! wall-clock.
//!
//! Every other trigger is pinned shut (budget-exhaustion spike disabled,
//! no panic hook, no `/readyz` scraper) and the debounce interval is
//! longer than the test, so a second bundle — from any cause — is a
//! regression, not noise.

use std::path::PathBuf;
use std::time::Duration;

use rrp_core::{CostSchedule, PlanningParams, ScenarioTree};
use rrp_engine::{Engine, EngineConfig, PlanRequest, PolicyKind, ProfConfig};
use rrp_spotmarket::{CostRates, EmpiricalDist};

/// A capacitated stochastic SRRP instance whose full-rung MILP runs for
/// tens of seconds unconstrained — against a ~15 ms deadline the rung is
/// guaranteed to burn the whole budget in branch & bound. Demands vary
/// with `i` so every request is a distinct fingerprint (no cache
/// short-circuits).
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

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rrp-flight-storm-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn deadline_storm_dumps_exactly_one_bundle_blaming_the_milp_rung() {
    let dir = fresh_dir("main");
    let engine = Engine::with_config(
        2,
        EngineConfig {
            prof: Some(ProfConfig {
                sample_hz: 997,
                bundle_dir: Some(dir.clone()),
                deadline_miss_spike: 8,
                spike_window_ms: 600_000,
                budget_exhaustion_spike: 0,
                min_dump_interval_ms: 600_000,
                ..Default::default()
            }),
            ..Default::default()
        },
    );

    let deadline = Duration::from_millis(15);
    let reqs: Vec<PlanRequest> = (0..12).map(|i| storm_request(i, deadline)).collect();
    let responses = engine.run_batch(reqs);
    assert_eq!(responses.len(), 12);
    let misses = responses.iter().filter(|r| !r.deadline_met).count();
    assert!(misses >= 8, "storm must actually miss deadlines (got {misses}/12)");
    for r in &responses {
        assert!(
            r.plan.is_some() || r.rejection.is_some(),
            "degraded or proven infeasible, never dropped"
        );
    }

    // exactly one bundle, named and attributed to the miss spike
    assert_eq!(engine.flight_dumps(), 1, "debounce folds the storm into one incident");
    let mut files: Vec<PathBuf> =
        std::fs::read_dir(&dir).expect("bundle dir exists").map(|e| e.unwrap().path()).collect();
    assert_eq!(files.len(), 1, "exactly one bundle on disk: {files:?}");
    let path = files.pop().unwrap();
    assert!(
        path.file_name().unwrap().to_string_lossy().contains("deadline_miss_spike"),
        "bundle filename carries the cause: {path:?}"
    );

    let bundle = std::fs::read_to_string(&path).expect("bundle readable");
    let v = serde_json::from_str(&bundle).expect("bundle is valid JSON");
    assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("rrp-postmortem/1"));
    assert_eq!(v.get("cause").and_then(|s| s.as_str()), Some("deadline_miss_spike"));

    // the ring holds lifecycle events only — and it saw the storm
    let events = v.get("events").and_then(|e| e.as_array()).expect("events array");
    assert!(!events.is_empty());
    let evs: Vec<&str> =
        events.iter().filter_map(|e| e.get("ev").and_then(|t| t.as_str())).collect();
    assert!(evs.contains(&"request_done"), "ring recorded completions: {evs:?}");
    for hot in ["simplex_iter", "lp_solved", "node_opened", "node_pruned"] {
        assert!(!evs.contains(&hot), "solver-layer event `{hot}` leaked into the ring");
    }

    // profile attribution: the storm burned its time in branch & bound,
    // so the heaviest sampled path runs through the MILP rung
    let samples = v.get("samples").and_then(|s| s.as_array()).expect("samples array");
    assert!(!samples.is_empty(), "sampler collected stacks during the storm");
    let top = samples
        .iter()
        .max_by_key(|s| s.get("count").and_then(|c| c.as_u64()).unwrap_or(0))
        .and_then(|s| s.get("stack").and_then(|p| p.as_str()))
        .expect("samples carry stack paths");
    assert!(
        top.contains("milp") && top.contains("request"),
        "top phase must be the MILP rung under the request, got `{top}`"
    );
    assert!(
        v.get("samples_total").and_then(|n| n.as_u64()).unwrap_or(0) > 0,
        "bundle records the sample denominator"
    );

    // the metrics snapshot provider was wired through the Weak handle
    let metrics = v.get("metrics").expect("metrics key present");
    assert!(!metrics.is_null(), "snapshot provider produced a document");
    assert!(metrics.get("completed").is_some(), "snapshot carries engine counters");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The live `/profile` surface agrees with the sampler: after MILP-heavy
/// work, the collapsed profile names the rung path, and the registry
/// carries the prof/flight self-metrics.
#[test]
fn profile_surface_and_self_metrics_after_a_storm() {
    use rrp_engine::MetricsConfig;

    let engine = Engine::with_config(
        2,
        EngineConfig {
            prof: Some(ProfConfig {
                sample_hz: 997,
                deadline_miss_spike: 8,
                spike_window_ms: 600_000,
                budget_exhaustion_spike: 0,
                min_dump_interval_ms: 600_000,
                ..Default::default()
            }),
            metrics: Some(MetricsConfig::default()),
            ..Default::default()
        },
    );
    let reqs: Vec<PlanRequest> =
        (0..12).map(|i| storm_request(i, Duration::from_millis(15))).collect();
    engine.run_batch(reqs);

    let collapsed = engine.profile_collapsed().expect("profiling engine exposes a profile");
    assert!(
        collapsed.lines().any(|l| l.contains("milp")),
        "collapsed profile names the MILP phase:\n{collapsed}"
    );
    // collapsed-stack shape: `path<space>count` per line
    for line in collapsed.lines() {
        let (_, count) = line.rsplit_once(' ').expect("collapsed line has a count");
        count.parse::<u64>().expect("count is numeric");
    }

    let status = engine.flight_status_json().expect("profiling engine exposes flight status");
    let v = serde_json::from_str(&status).expect("status is valid JSON");
    assert_eq!(v.get("dumps").and_then(|d| d.as_u64()), Some(1));
    assert_eq!(v.get("last_trigger").and_then(|c| c.as_str()), Some("deadline_miss_spike"));

    let rendered = engine.render_metrics().expect("metrics-enabled engine renders");
    for family in [
        "rrp_prof_samples_total",
        "rrp_prof_distinct_paths",
        "rrp_flight_dumps_total",
        "rrp_flight_ring_events",
        "rrp_flight_ring_dropped_total",
        "rrp_flight_last_trigger",
    ] {
        assert!(rendered.contains(family), "registry is missing `{family}`:\n{rendered}");
    }
    assert!(
        rendered.contains("rrp_flight_last_trigger{cause=\"deadline_miss_spike\"} 1"),
        "last-trigger gauge latched to the storm's cause:\n{rendered}"
    );
}
