//! Trace→metrics bridge fidelity: the [`MetricsSink`] must count exactly
//! what the raw event stream says happened — no events folded twice, none
//! dropped. Two anchors:
//!
//! 1. the golden capacitated DRRP instance (the same one pinned in
//!    `tests/golden/drrp_trace.jsonl`) solved live through the bridge,
//!    with every node/LP counter compared against line counts grep'd out
//!    of the committed pin;
//! 2. a mixed engine batch teeing the bridge with a [`RingSink`], with
//!    per-rung latency histogram counts and per-tenant request counters
//!    compared against the drained events.

use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use rrp_core::{CostSchedule, DrrpProblem, PlanningParams, ScenarioTree};
use rrp_engine::{Engine, EngineConfig, MetricsConfig, PlanRequest, PolicyKind};
use rrp_milp::MilpOptions;
use rrp_obs::text::{parse, Sample};
use rrp_obs::{MetricsSink, Registry};
use rrp_spotmarket::{CostRates, EmpiricalDist};
use rrp_trace::{EventKind, RingSink, TraceHandle};

/// The value of `name{label_key="label_value"}`, or 0 when the series was
/// never created (a family the bridge had nothing to count into).
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
fn pin_count(pin: &str, tag: &str, extra: &[(&str, &str)]) -> usize {
    let ev = format!("\"ev\":\"{tag}\"");
    pin.lines()
        .filter(|l| {
            l.contains(&ev) && extra.iter().all(|(k, v)| l.contains(&format!("\"{k}\":\"{v}\"")))
        })
        .count()
}

/// Satellite: replay the golden instance through the bridge and require the
/// labeled counters to equal the pin's event counts exactly. The solve is
/// deterministic, so live bridge state and the committed JSONL agree.
#[test]
fn bridge_counters_match_the_golden_pin() {
    let schedule =
        CostSchedule::ec2(vec![0.08; 4], vec![0.6, 0.0, 0.9, 0.3], &CostRates::ec2_2011());
    let params = PlanningParams { capacity: Some(0.7), ..Default::default() };
    let (milp, _) = DrrpProblem::new(schedule, params).to_milp();

    let registry = Arc::new(Registry::new());
    let bridge = Arc::new(MetricsSink::new(Arc::clone(&registry)));
    let opts = MilpOptions { trace: TraceHandle::new(bridge), ..Default::default() };
    let sol = milp.solve(&opts).expect("golden DRRP instance solves");
    assert!(sol.proven_optimal);

    let pin_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/drrp_trace.jsonl");
    let pin = std::fs::read_to_string(&pin_path).expect("golden pin is committed");
    let samples = parse(&registry.render()).expect("bridge renders clean exposition");
    let got = |name: &str, label: Option<(&str, &str)>| value(&samples, name, label) as usize;

    assert_eq!(got("rrp_milp_nodes_opened_total", None), pin_count(&pin, "node_opened", &[]));
    for reason in ["bound", "infeasible", "numerical"] {
        assert_eq!(
            got("rrp_milp_nodes_pruned_total", Some(("reason", reason))),
            pin_count(&pin, "node_pruned", &[("reason", reason)]),
            "pruned[{reason}] drifted from the pin"
        );
    }
    assert_eq!(got("rrp_milp_nodes_integral_total", None), pin_count(&pin, "node_integral", &[]));
    assert_eq!(got("rrp_milp_incumbents_total", None), pin_count(&pin, "incumbent_improved", &[]));
    assert_eq!(got("rrp_lp_solves_total", None), pin_count(&pin, "lp_solved", &[]));
    // exactly one terminal status, matching the pin's solve_done line
    assert_eq!(pin_count(&pin, "solve_done", &[]), 1);
    let status_line = pin
        .lines()
        .find(|l| l.contains("\"ev\":\"solve_done\""))
        .expect("pin has a solve_done line");
    let status = status_line
        .split("\"status\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("solve_done line carries a status");
    assert_eq!(got("rrp_milp_solves_total", Some(("status", status))), 1);
    // the pin covers actual branching, so the comparison is non-vacuous
    assert!(got("rrp_milp_nodes_opened_total", None) > 1, "pin instance no longer branches");
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

/// Satellite: through the full engine path (bridge teed with a ring), the
/// per-rung latency histogram counts equal the `LadderStep` event counts
/// per level, and per-tenant request counters equal the `RequestDone`
/// events per tenant — the bridge aggregates without losing events.
#[test]
fn engine_bridge_agrees_with_the_raw_event_stream() {
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
}
