//! Cache behaviour of the planning service: identical problems hit, any
//! problem-field perturbation misses, and responses are bit-identical for
//! a fixed seed regardless of worker count (cache flags aside).

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrp_core::{CostSchedule, PlanningParams, ScenarioTree};
use rrp_engine::{Engine, PlanRequest, PlanResponse, PolicyKind};
use rrp_spotmarket::{CostRates, EmpiricalDist};

fn schedule(horizon: usize, seed: u64) -> CostSchedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let demand: Vec<f64> = (0..horizon).map(|_| rng.gen_range(0.1..1.0)).collect();
    CostSchedule::ec2(vec![0.06; horizon], demand, &CostRates::ec2_2011())
}

fn tree(horizon: usize, probs: (f64, f64)) -> ScenarioTree {
    let d = EmpiricalDist::from_parts(vec![0.04, 0.12], vec![probs.0, probs.1]);
    ScenarioTree::from_stage_distributions(&vec![d; horizon], 100_000)
}

fn base_request(seed: u64) -> PlanRequest {
    PlanRequest {
        app_id: format!("app-{seed}"),
        vm_class: "m1.small".into(),
        schedule: schedule(5, seed),
        params: PlanningParams::default(),
        tree: Some(tree(5, (0.6, 0.4))),
        policy: PolicyKind::Stochastic,
        deadline: Duration::from_secs(30),
        seed,
    }
}

#[test]
fn identical_requests_hit_the_cache() {
    let engine = Engine::new(1);
    let first = engine.submit(base_request(1)).wait();
    assert!(!first.cache_hit);

    // a different tenant, seed and deadline — but the identical problem
    let mut again = base_request(1);
    again.app_id = "someone-else".into();
    again.seed = 999;
    again.deadline = Duration::from_secs(60);
    let second = engine.submit(again).wait();
    assert!(second.cache_hit, "identical problem must hit");
    assert_eq!(second.fingerprint, first.fingerprint);
    let (fp, sp) = (first.expect_plan(), second.expect_plan());
    assert_eq!(sp.alpha, fp.alpha);
    assert_eq!(sp.chi, fp.chi);
    assert_eq!(second.degradation, first.degradation);

    let m = engine.metrics();
    assert_eq!(m.cache_hits, 1);
    assert_eq!(m.cache_misses, 1);
    assert!((m.cache_hit_rate - 0.5).abs() < 1e-12);
}

#[test]
fn any_problem_field_perturbation_misses() {
    let base = base_request(2);
    let base_fp = base.fingerprint();

    let mut demand = base.clone();
    demand.schedule.demand[2] += 1e-9;
    let mut price = base.clone();
    price.schedule.compute[0] = 0.061;
    let mut inv_rate = base.clone();
    inv_rate.schedule.inventory[1] += 1e-6;
    let mut eps = base.clone();
    eps.params.initial_inventory = 0.25;
    let mut cap = base.clone();
    cap.params.capacity = Some(50.0);
    let mut probs = base.clone();
    probs.tree = Some(tree(5, (0.5, 0.5)));
    let mut policy = base.clone();
    policy.policy = PolicyKind::Deterministic;
    policy.tree = None;

    let perturbed = [demand, price, inv_rate, eps, cap, probs, policy];
    for (i, p) in perturbed.iter().enumerate() {
        assert_ne!(p.fingerprint(), base_fp, "perturbation {i} did not change the key");
    }

    let engine = Engine::new(1);
    let first = engine.submit(base).wait();
    assert!(!first.cache_hit);
    for p in perturbed {
        let resp = engine.submit(p).wait();
        assert!(!resp.cache_hit, "perturbed problem served from cache");
    }
}

/// The comparable core of a response: everything except the cache flag
/// (whether a worker solved or replayed a plan is scheduling-dependent)
/// and latency.
fn essence(r: &PlanResponse) -> (String, u64, Vec<u64>, Vec<u64>, Vec<bool>, u64, String) {
    let plan = r.expect_plan();
    (
        r.app_id.clone(),
        r.fingerprint,
        plan.alpha.iter().map(|v| v.to_bits()).collect(),
        plan.beta.iter().map(|v| v.to_bits()).collect(),
        plan.chi.clone(),
        plan.objective.to_bits(),
        format!("{:?}", r.degradation),
    )
}

#[test]
fn responses_bit_identical_across_worker_counts() {
    let make_batch = || -> Vec<PlanRequest> {
        (0..16)
            .map(|i| {
                let mut req = base_request(100 + i as u64);
                req.app_id = format!("det-{i}");
                match i % 4 {
                    0 => {} // stochastic with tree
                    1 => {
                        req.policy = PolicyKind::Deterministic;
                        req.tree = None;
                    }
                    2 => req.policy = PolicyKind::DynamicProgram,
                    _ => req.policy = PolicyKind::OnDemand,
                }
                // a couple of duplicated problems so the cache is exercised
                if i >= 12 {
                    req.schedule = schedule(5, 100 + (i as u64 - 12));
                    req.policy = PolicyKind::Stochastic;
                    req.tree = Some(tree(5, (0.6, 0.4)));
                }
                req
            })
            .collect()
    };

    let single: Vec<_> = Engine::new(1).run_batch(make_batch()).iter().map(essence).collect();
    let quad: Vec<_> = Engine::new(4).run_batch(make_batch()).iter().map(essence).collect();
    assert_eq!(single, quad, "plans must not depend on worker count");
}

/// A rolling-horizon re-plan: same tenant and model shape, shifted demand.
/// The exact fingerprint misses the plan cache, but the basis side-table
/// hits, warm-starting the new root LP — and the answer is identical to a
/// warm-start-disabled engine's. Capacitated, because only capacitated DRRP
/// reaches branch & bound (uncapacitated requests are answered by the DP).
#[test]
fn replan_hits_the_basis_side_table() {
    let det_request = |seed: u64| {
        let mut req = base_request(seed);
        req.app_id = "replan-tenant".into();
        req.policy = PolicyKind::Deterministic;
        req.tree = None;
        let peak = req.schedule.demand.iter().cloned().fold(0.0, f64::max);
        req.params.capacity = Some(1.2 * peak);
        req
    };

    let engine = Engine::new(1);
    let first = engine.submit(det_request(41)).wait();
    assert!(!first.cache_hit);
    assert_eq!(engine.basis_cache_entries(), 1, "fully-solved request stores its root basis");

    let second = engine.submit(det_request(42)).wait();
    assert!(!second.cache_hit, "shifted demand must miss the plan cache");
    assert!(
        engine.basis_cache_hit_rate() > 0.0,
        "same-shape re-plan must hit the basis side-table"
    );

    // warm-started answer == cold engine's answer, bit for bit
    let cold_opts = rrp_milp::MilpOptions { warm_start: false, ..Default::default() };
    let cold = Engine::with_options(1, cold_opts).submit(det_request(42)).wait();
    let (wp, cp) = (second.expect_plan(), cold.expect_plan());
    assert_eq!(wp.chi, cp.chi, "rental decisions must not depend on warm start");
    assert!(
        (wp.objective - cp.objective).abs() <= 1e-9 * (1.0 + cp.objective.abs()),
        "warm {} vs cold {}",
        wp.objective,
        cp.objective
    );
}
