//! Trace well-formedness: a property test that any DRRP/SRRP solve through
//! the engine emits *balanced* spans (every open matched by exactly one
//! close, every event inside its span's open/close window, parents opened
//! first), plus a golden JSONL pin for a small deterministic DRRP instance
//! (timestamps normalised to 0 so the pin is stable across machines).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrp_core::{CostSchedule, DrrpProblem, PlanningParams, ScenarioTree};
use rrp_engine::{Engine, EngineConfig, PlanRequest, PolicyKind};
use rrp_milp::MilpOptions;
use rrp_spotmarket::{CostRates, EmpiricalDist};
use rrp_trace::{Event, EventKind, RingSink, TraceHandle};

/// Check the span algebra of an event stream (in sink-arrival order):
/// 1. every span opens at most once and closes exactly once, open before
///    close;
/// 2. every non-root event falls strictly inside its span's window;
/// 3. a span's parent is the root or a span that opened earlier.
fn assert_balanced(events: &[Event]) {
    let mut open_at: HashMap<u64, usize> = HashMap::new();
    let mut close_at: HashMap<u64, usize> = HashMap::new();
    for (i, ev) in events.iter().enumerate() {
        match &ev.kind {
            EventKind::SpanOpen { parent, .. } => {
                assert!(open_at.insert(ev.span.0, i).is_none(), "span {} opened twice", ev.span.0);
                assert!(
                    parent.is_root() || open_at.contains_key(&parent.0),
                    "span {} opened under unopened parent {}",
                    ev.span.0,
                    parent.0
                );
            }
            EventKind::SpanClose => {
                assert!(close_at.insert(ev.span.0, i).is_none(), "span {} closed twice", ev.span.0);
            }
            _ => {}
        }
    }
    assert_eq!(open_at.len(), close_at.len(), "every open has a matching close");
    for (span, &o) in &open_at {
        let c = close_at.get(span).unwrap_or_else(|| panic!("span {span} never closed"));
        assert!(o < *c, "span {span} closed before it opened");
    }
    for (i, ev) in events.iter().enumerate() {
        if ev.span.is_root() || matches!(ev.kind, EventKind::SpanOpen { .. } | EventKind::SpanClose)
        {
            continue;
        }
        let (Some(&o), Some(&c)) = (open_at.get(&ev.span.0), close_at.get(&ev.span.0)) else {
            panic!("event {:?} in unknown span {}", ev.kind.tag(), ev.span.0);
        };
        assert!(o < i && i < c, "event {:?} outside its span window", ev.kind.tag());
    }
}

/// A random feasible uncapacitated instance (same family as `prop_ladder`).
fn instance(horizon: usize, seed: u64) -> (CostSchedule, PlanningParams, ScenarioTree) {
    let mut rng = StdRng::seed_from_u64(seed);
    let price = rng.gen_range(0.03..0.15);
    let demand: Vec<f64> = (0..horizon)
        .map(|_| if rng.gen_bool(0.2) { 0.0 } else { rng.gen_range(0.05..1.2) })
        .collect();
    let schedule = CostSchedule::ec2(vec![price; horizon], demand, &CostRates::ec2_2011());
    let params = PlanningParams::default();
    let dist = EmpiricalDist::from_parts(vec![price * 0.8, price * 1.2], vec![0.5, 0.5]);
    let tree = ScenarioTree::from_stage_distributions(&vec![dist; horizon], 100_000);
    (schedule, params, tree)
}

fn request(
    policy: PolicyKind,
    schedule: &CostSchedule,
    params: &PlanningParams,
    tree: &ScenarioTree,
) -> PlanRequest {
    PlanRequest {
        app_id: "trace-prop".into(),
        vm_class: "m1.small".into(),
        schedule: schedule.clone(),
        params: *params,
        tree: matches!(policy, PolicyKind::Stochastic).then(|| tree.clone()),
        policy,
        deadline: Duration::from_secs(60),
        seed: 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// DRRP and SRRP requests through the full engine path (request span →
    /// rung spans → milp spans) always emit balanced spans with all events
    /// inside their windows — across two concurrent workers.
    #[test]
    fn engine_solves_emit_balanced_spans((horizon, seed) in (3usize..6, any::<u64>())) {
        let (schedule, params, tree) = instance(horizon, seed);
        let ring = Arc::new(RingSink::new(1 << 17));
        let engine = Engine::with_config(
            2,
            EngineConfig { sink: Some(ring.clone()), ..Default::default() },
        );
        // the DRRP request is capacitated so that it reaches branch & bound
        // (uncapacitated DRRP is answered by the DP, with no MILP spans);
        // the 0.1 floor keeps the capacity positive on all-zero demand
        let peak = schedule.demand.iter().cloned().fold(0.1, f64::max);
        let capped = PlanningParams { capacity: Some(1.2 * peak), ..params };
        let reqs = vec![
            request(PolicyKind::Deterministic, &schedule, &capped, &tree),
            request(PolicyKind::Stochastic, &schedule, &params, &tree),
        ];
        let responses = engine.run_batch(reqs);
        drop(engine); // joins workers and flushes the trace
        prop_assert_eq!(responses.len(), 2);
        prop_assert_eq!(ring.dropped_events(), 0); // ring sized for the whole stream
        let events = ring.drain();
        assert_balanced(&events);
        // the stream carries the layers end to end: request spans, a cache
        // probe and audit verdict per request, rung steps, and MILP solves
        let count = |f: &dyn Fn(&Event) -> bool| events.iter().filter(|e| f(e)).count();
        prop_assert_eq!(
            count(&|e| matches!(e.kind, EventKind::SpanOpen { name: "request", .. })), 2);
        prop_assert_eq!(count(&|e| matches!(e.kind, EventKind::CacheLookup { .. })), 2);
        prop_assert_eq!(count(&|e| matches!(e.kind, EventKind::AuditGate { .. })), 2);
        prop_assert!(count(&|e| matches!(e.kind, EventKind::LadderStep { .. })) >= 2);
        prop_assert!(count(&|e| matches!(e.kind, EventKind::SolveDone { .. })) >= 2);
    }
}

/// Golden pin: the trace of one small deterministic DRRP solve, with
/// timestamps zeroed. Span ids, event order and payload values are all
/// deterministic for a serial solve, so any drift here is a real change to
/// the telemetry contract — regenerate with
/// `UPDATE_GOLDEN=1 cargo test -p rrp-engine --test trace_wellformed`.
#[test]
fn golden_drrp_trace_matches_pin() {
    let schedule =
        CostSchedule::ec2(vec![0.08; 4], vec![0.6, 0.0, 0.9, 0.3], &CostRates::ec2_2011());
    // capacitated: the (l,S) strengthening is valid only uncapacitated, so
    // this instance actually branches and the pin covers node events
    let params = PlanningParams { capacity: Some(0.7), ..Default::default() };
    let problem = DrrpProblem::new(schedule, params);
    let (milp, _) = problem.to_milp();
    let ring = Arc::new(RingSink::new(4096));
    let opts = MilpOptions { trace: TraceHandle::new(ring.clone()), ..Default::default() };
    let sol = milp.solve(&opts).expect("tiny DRRP instance solves");
    assert!(sol.proven_optimal);

    let lines: String = ring
        .drain()
        .into_iter()
        .map(|mut ev| {
            ev.t_us = 0; // wall-clock is the only non-deterministic field
            ev.to_json() + "\n"
        })
        .collect();

    let pin_path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/drrp_trace.jsonl");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&pin_path, &lines).expect("write golden pin");
        return;
    }
    let pin = std::fs::read_to_string(&pin_path)
        .expect("golden pin missing — regenerate with UPDATE_GOLDEN=1");
    assert_eq!(lines, pin, "trace drifted from the golden pin");
}
