//! Exemplar isolation: a retained request's timeline is its own span
//! subtree cut from the shared lifecycle ring — never a neighbour's
//! events, never solver-layer events — even when two workers interleave a
//! deadline storm with healthy tenants in the ring.

use std::collections::HashSet;
use std::time::Duration;

use rrp_core::{CostSchedule, PlanningParams, ScenarioTree};
use rrp_engine::{Engine, EngineConfig, PlanRequest, PolicyKind, ProfConfig, SloConfig};
use rrp_spotmarket::{CostRates, EmpiricalDist};
use serde_json::Value;

/// A capacitated stochastic instance whose full-rung MILP cannot finish
/// inside a 15 ms deadline: every one misses and is retained.
fn storm_request(i: usize) -> PlanRequest {
    let horizon = 8;
    let demand: Vec<f64> = (0..horizon).map(|t| 0.15 + 0.11 * ((i + 3 * t) % 7) as f64).collect();
    let d = EmpiricalDist::from_parts(vec![0.04, 0.12], vec![0.6, 0.4]);
    PlanRequest {
        app_id: "storm".into(),
        vm_class: "m1.small".into(),
        schedule: CostSchedule::ec2(vec![0.06; horizon], demand, &CostRates::ec2_2011()),
        params: PlanningParams { capacity: Some(0.7), ..Default::default() },
        tree: Some(ScenarioTree::from_stage_distributions(&vec![d; horizon], 100_000)),
        policy: PolicyKind::Stochastic,
        deadline: Duration::from_millis(15),
        seed: i as u64,
    }
}

/// A cheap request that never misses its 10 s deadline.
fn healthy_request(i: usize) -> PlanRequest {
    let horizon = 5;
    let demand: Vec<f64> = (0..horizon).map(|t| 0.2 + 0.15 * ((i + t) % 5) as f64).collect();
    PlanRequest {
        app_id: format!("calm-{}", i % 3),
        vm_class: "m1.small".into(),
        schedule: CostSchedule::ec2(vec![0.06; horizon], demand, &CostRates::ec2_2011()),
        params: PlanningParams::default(),
        tree: None,
        policy: PolicyKind::Deterministic,
        deadline: Duration::from_secs(10),
        seed: i as u64,
    }
}

#[test]
fn exemplars_are_request_subtrees_cut_from_the_ring() {
    let slo = SloConfig { latency_slo_ms: 10_000.0 };
    let max_events = rrp_obs::MAX_EXEMPLAR_EVENTS;
    let engine = Engine::with_config(
        2,
        EngineConfig {
            prof: Some(ProfConfig {
                sample_hz: 0,
                deadline_miss_spike: 0,
                budget_exhaustion_spike: 0,
                ..Default::default()
            }),
            slo: Some(slo),
            ..Default::default()
        },
    );
    let reqs: Vec<PlanRequest> =
        (0..24).map(|i| if i % 3 == 0 { storm_request(i) } else { healthy_request(i) }).collect();
    let responses = engine.run_batch(reqs);
    assert!(responses.iter().any(|r| !r.deadline_met), "the storm must miss deadlines");

    let status = engine.slo_status_json().expect("slo engine armed");
    let v: Value = serde_json::from_str(&status).expect("/slo parses");
    let exemplars = v.get("exemplar_timelines").and_then(Value::as_array).expect("timelines");
    assert!(!exemplars.is_empty(), "missed requests are retained");
    for ex in exemplars {
        let id = ex.get("request_id").and_then(Value::as_u64).expect("request_id");
        let events = ex.get("events").and_then(Value::as_array).expect("events");
        let truncated = ex.get("truncated").and_then(Value::as_u64).expect("truncated");

        // exactly one completion, and it is this exemplar's request
        let done: Vec<&Value> = events
            .iter()
            .filter(|e| e.get("ev").and_then(Value::as_str) == Some("request_done"))
            .collect();
        assert_eq!(done.len(), 1, "exemplar {id}: {events:?}");
        assert_eq!(done[0].get("request_id").and_then(Value::as_u64), Some(id));

        // every event belongs to the request span or a span opened under it
        let root = done[0].get("span").and_then(Value::as_u64).expect("span");
        let mut subtree = HashSet::from([root]);
        for e in events {
            let span = e.get("span").and_then(Value::as_u64).expect("span");
            if e.get("ev").and_then(Value::as_str) == Some("span_open") && span != root {
                let parent = e.get("parent").and_then(Value::as_u64).expect("parent");
                assert!(subtree.contains(&parent), "exemplar {id}: foreign span {span}");
                subtree.insert(span);
            }
            assert!(subtree.contains(&span), "exemplar {id}: event of foreign span {span}");
        }

        // the ring never holds solver-layer events
        for e in events {
            let tag = e.get("ev").and_then(Value::as_str).unwrap_or_default();
            assert!(
                !(tag.starts_with("node_") || tag == "simplex_iter" || tag == "lp_solved"),
                "exemplar {id}: solver event `{tag}`"
            );
        }

        // the cap holds, and only a full timeline is truncated
        assert!(events.len() <= max_events, "exemplar {id}: {} events", events.len());
        assert!(truncated == 0 || events.len() == max_events, "exemplar {id}");
    }
}
