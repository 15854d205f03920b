//! Integration test of the planning service: a 4-worker engine under a
//! 64-request mixed-policy load, plus a tight-deadline run that must fall
//! down the degradation ladder instead of blowing the budget.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
    // capacity below per-slot demand ⇒ no feasible plan exists; the audit
    // gate must prove that statically and reject, instead of letting the
    // ladder panic on the on-demand floor
    let mut bad = request(7, PolicyKind::OnDemand, Duration::from_secs(5));
    bad.params.capacity = Some(1e-3);
    let bad_resp = engine.submit(bad).wait();
    assert!(bad_resp.plan.is_none(), "infeasible request must not produce a plan");
    let proof = bad_resp.rejection.as_ref().expect("rejection must carry the proof");
    assert!(
        !proof.reason.is_empty() && proof.trace.iter().any(|l| l.contains("row")),
        "proof must name the contradicting row: {proof}"
    );

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
