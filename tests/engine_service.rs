//! Integration test of the planning service: a 4-worker engine under a
//! 64-request mixed-policy load, plus a tight-deadline run that must fall
//! down the degradation ladder instead of blowing the budget.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrp_core::drrp::capacity_shortfall;
use rrp_core::{wagner_whitin, CostSchedule, PlanningParams, ScenarioTree};
use rrp_engine::{DegradationLevel, Engine, PlanRequest, PolicyKind, RungOutcome};
use rrp_spotmarket::{CostRates, EmpiricalDist};

fn schedule(horizon: usize, seed: u64) -> CostSchedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let demand: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.1..1.0)).collect();
    CostSchedule::ec2(vec![0.06; horizon], demand, &CostRates::ec2_2011())
}

fn two_state_tree(horizon: usize) -> ScenarioTree {
    let d = EmpiricalDist::from_parts(vec![0.04, 0.12], vec![0.6, 0.4]);
    ScenarioTree::from_stage_distributions(&vec![d; horizon], 100_000)
}

fn request(i: usize, policy: PolicyKind, deadline: Duration) -> PlanRequest {
    let horizon = 4 + i % 3; // 4..=6
    let tree = matches!(policy, PolicyKind::Stochastic).then(|| two_state_tree(horizon));
    PlanRequest {
        app_id: format!("tenant-{i}"),
        vm_class: "m1.small".into(),
        schedule: schedule(horizon, 1000 + i as u64),
        params: PlanningParams::default(),
        tree,
        policy,
        deadline,
        seed: i as u64,
    }
}

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Stochastic,
    PolicyKind::Deterministic,
    PolicyKind::DynamicProgram,
    PolicyKind::OnDemand,
];

#[test]
fn sixty_four_concurrent_requests_meet_deadlines() {
    let engine = Engine::new(4);
    let deadline = Duration::from_secs(30);
    let reqs: Vec<PlanRequest> =
        (0..64).map(|i| request(i, POLICIES[i % POLICIES.len()], deadline)).collect();
    let checks: Vec<(CostSchedule, PlanningParams, PolicyKind)> =
        reqs.iter().map(|r| (r.schedule.clone(), r.params, r.policy)).collect();

    let resps = engine.run_batch(reqs);
    assert_eq!(resps.len(), 64);

    for (resp, (s, params, policy)) in resps.iter().zip(&checks) {
        assert!(
            resp.expect_plan().is_feasible(s, params, 1e-6),
            "{}: infeasible plan at level {:?}",
            resp.app_id,
            resp.degradation
        );
        assert!(resp.deadline_met, "{}: blew a 30 s deadline", resp.app_id);
        assert_eq!(
            resp.degradation,
            policy.start_level(),
            "{}: degraded under a generous deadline (trace: {:?})",
            resp.app_id,
            resp.trace
        );
        if !resp.cache_hit {
            assert!(!resp.trace.is_empty(), "{}: solve without a trace", resp.app_id);
        }
    }

    let m = engine.metrics();
    assert_eq!(m.completed, 64);
    assert_eq!(m.queue_depth, 0);
    assert_eq!(m.deadline_misses, 0);
    assert_eq!(
        m.level_full + m.level_deterministic + m.level_dynamic_program + m.level_on_demand_only,
        64
    );
    assert_eq!(m.audit_rejections, 0, "no feasible request may be rejected");
    assert!(m.audits > 0, "cache-missing requests must be audited");
    assert!(m.p50_latency_ms <= m.p99_latency_ms);
}

#[test]
fn tight_deadline_falls_down_the_ladder() {
    let engine = Engine::new(2);
    // an already-expired budget: the SRRP rung stops at node zero, and the
    // uncapacitated DRRP below it is answered exactly by the DP, which
    // needs no budget
    let mut req = request(0, PolicyKind::Stochastic, Duration::ZERO);
    req.app_id = "hurried".into();
    let s = req.schedule.clone();
    let params = req.params;

    let resp = engine.submit(req).wait();
    assert_eq!(resp.degradation, DegradationLevel::Deterministic, "trace: {:?}", resp.trace);
    assert!(resp.expect_plan().is_feasible(&s, &params, 1e-6));
    let exact = wagner_whitin::solve(&s, &params).objective;
    assert!((resp.expect_plan().objective - exact).abs() <= 1e-9 * (1.0 + exact));
    // the trace records the rung that ran out of budget above the answer
    assert_eq!(resp.trace.len(), 2, "trace: {:?}", resp.trace);
    assert_eq!(resp.trace[0].level, DegradationLevel::Full);
    assert!(matches!(resp.trace[0].outcome, RungOutcome::Exhausted(_)), "{:?}", resp.trace);
    assert_eq!(resp.trace[1].outcome, RungOutcome::Solved);

    // capacitated: both MILP rungs stop at node zero, the DP rung skips the
    // instance, and the on-demand floor answers
    let mut req = request(1, PolicyKind::Stochastic, Duration::ZERO);
    req.app_id = "hurried-capped".into();
    let peak = req.schedule.demand.iter().cloned().fold(0.0, f64::max);
    req.params.capacity = Some(1.2 * peak);
    let (s, params) = (req.schedule.clone(), req.params);

    let resp = engine.submit(req).wait();
    assert_eq!(resp.degradation, DegradationLevel::OnDemandOnly, "trace: {:?}", resp.trace);
    assert!(resp.expect_plan().is_feasible(&s, &params, 1e-6));
    let levels: Vec<DegradationLevel> = resp.trace.iter().map(|e| e.level).collect();
    assert_eq!(levels, DegradationLevel::ALL, "trace: {:?}", resp.trace);
    assert!(matches!(resp.trace[1].outcome, RungOutcome::Exhausted(_)), "{:?}", resp.trace);
    assert!(matches!(resp.trace[2].outcome, RungOutcome::Skipped(_)), "{:?}", resp.trace);

    let m = engine.metrics();
    assert_eq!(m.level_deterministic, 1);
    assert_eq!(m.level_on_demand_only, 1);
    assert_eq!(m.deadline_misses, 2);
}

#[test]
fn degraded_answers_are_not_cached() {
    let engine = Engine::new(1);
    let hurried = request(3, PolicyKind::Stochastic, Duration::ZERO);
    let relaxed = PlanRequest { deadline: Duration::from_secs(30), ..hurried.clone() };

    let first = engine.submit(hurried).wait();
    assert!(first.degradation > DegradationLevel::Full);

    // the same problem with time to spare must be solved fresh, not served
    // the degraded plan
    let second = engine.submit(relaxed).wait();
    assert!(!second.cache_hit, "degraded answer leaked into the cache");
    assert_eq!(second.degradation, DegradationLevel::Full);
}

#[test]
fn infeasible_request_is_rejected_with_a_proof() {
    let engine = Engine::new(1);
    // capacity below per-slot demand ⇒ no feasible plan exists; the gate
    // must prove that before any rung and reject, instead of letting the
    // ladder panic on the on-demand floor
    let mut bad = request(7, PolicyKind::OnDemand, Duration::from_secs(5));
    bad.params.capacity = Some(1e-3);
    let bad_resp = engine.submit(bad).wait();
    assert!(bad_resp.plan.is_none(), "infeasible request must not produce a plan");
    let shortfall = bad_resp.rejection.expect("rejection must carry the shortfall");
    assert_eq!(shortfall.slot, 0, "slot 0 alone already outruns the capacity: {shortfall}");
    assert!(shortfall.demand_through > shortfall.supply_through, "{shortfall}");

    // the worker is still healthy and serves the next request
    let good = request(8, PolicyKind::Deterministic, Duration::from_secs(30));
    let good_resp = engine.submit(good).wait();
    assert_eq!(good_resp.degradation, DegradationLevel::Deterministic);
    assert!(good_resp.plan.is_some());

    let m = engine.metrics();
    assert_eq!(m.audit_rejections, 1);
    assert_eq!(m.completed, 2);
    assert_eq!(
        m.level_full + m.level_deterministic + m.level_dynamic_program + m.level_on_demand_only,
        m.completed - m.audit_rejections
    );
}

/// The text of a caught panic.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default(),
    }
}

#[test]
fn malformed_request_panics_in_the_gate_and_the_worker_survives() {
    let engine = Arc::new(Engine::new(1));
    let deadline = Duration::from_secs(30);
    let mut bad = request(9, PolicyKind::Deterministic, deadline);
    bad.schedule.demand[1] = -0.5;
    // the gate's input validation is what rejects this request
    let direct = catch_unwind(|| capacity_shortfall(&bad.schedule, &bad.params));
    let msg = panic_text(direct.expect_err("negative demand must fail validation"));
    assert!(msg.contains("demand must be finite and >= 0"), "{msg}");

    // the in-process submitter learns of the worker's panic from its ticket
    let ticket = engine.submit(bad.clone());
    let waited = catch_unwind(AssertUnwindSafe(|| ticket.wait()));
    let msg = panic_text(waited.expect_err("the ticket must re-raise the worker's panic"));
    assert!(msg.contains("worker dropped the request"), "{msg}");
    let m = engine.metrics();
    assert_eq!(m.audits, 0, "the request must panic before the gate's verdict");
    assert_eq!(m.completed, 0);

    // the same (only) worker serves the next request
    let next = request(10, PolicyKind::Deterministic, deadline);
    let good = engine.submit(next.clone()).wait();
    assert!(good.expect_plan().is_feasible(&next.schedule, &next.params, 1e-6));

    // a wave with a poisoned slot completes and reports it instead of hanging
    let wave = vec![
        request(11, PolicyKind::DynamicProgram, deadline),
        bad,
        request(12, PolicyKind::OnDemand, deadline),
    ];
    let (tx, rx) = std::sync::mpsc::channel();
    let batch_engine = Arc::clone(&engine);
    let submitter = std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(|| batch_engine.run_batch(wave))));
    });
    let waited =
        rx.recv_timeout(Duration::from_secs(60)).expect("run_batch hung on a poisoned slot");
    submitter.join().expect("the submitter thread caught the wave's panic");
    let msg = panic_text(waited.expect_err("a poisoned slot must fail the wave"));
    assert!(msg.contains("dropped 1 request(s) mid-wave"), "{msg}");

    let after = engine.submit(request(13, PolicyKind::Deterministic, deadline)).wait();
    assert!(after.plan.is_some());
    let m = engine.metrics();
    assert_eq!(m.completed, 4, "the good request, two wave neighbours and the last one");
    assert_eq!(m.audit_rejections, 0);
}
