//! Sharding is a pure performance device: a 4-shard engine (per-worker
//! plan cache, basis side-table, metrics ledger, and in-flight slot)
//! must be *indistinguishable* from the single-shard `Engine::new(1)` in
//! what it computes. On the paper's Fig. 10–12 style evaluation instances
//! the two must produce byte-identical plans and identical cache-hit /
//! deadline-miss counters; any divergence is a correctness bug in the
//! shard hand-off, not a tuning issue. Admission control (`try_submit` +
//! 429 `Busy`) and the reply hand-off (each reply filed as its job
//! finishes) ride along.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rrp_core::demand::DemandModel;
use rrp_core::{CostSchedule, PlanningParams};
use rrp_engine::{
    Engine, EngineConfig, MetricsSnapshot, PlanRequest, PlanResponse, PolicyKind, ShardConfig,
};
use rrp_spotmarket::{CostRates, VmClass};

/// The Fig. 10 evaluation setup: paper-default demand (N(0.4, 0.2) GB/h
/// truncated positive) against a class's flat on-demand price.
fn paper_request(class: VmClass, day: u64, horizon: usize) -> PlanRequest {
    let seed = 4242 + day * 31 + class as u64;
    let demand = DemandModel::paper_default().sample(horizon, seed);
    let compute = vec![class.on_demand_price(); horizon];
    PlanRequest {
        app_id: format!("{}-day{day}", class.name()),
        vm_class: "m1.small".into(),
        schedule: CostSchedule::ec2(compute, demand, &CostRates::ec2_2011()),
        params: PlanningParams::default(),
        tree: None,
        policy: PolicyKind::Deterministic,
        deadline: Duration::from_secs(30),
        seed,
    }
}

/// Every Fig. 10–12 evaluation class × a few re-plan days.
fn evaluation_workload(horizon: usize) -> Vec<PlanRequest> {
    let mut reqs = Vec::new();
    for class in VmClass::EVALUATION {
        for day in 0..4u64 {
            reqs.push(paper_request(class, day, horizon));
        }
    }
    reqs
}

/// The response fields a tenant can observe, rendered for byte-for-byte
/// comparison (latency and trace timings are excluded — they are the
/// only fields allowed to differ between configurations).
fn observable(resp: &PlanResponse) -> String {
    format!(
        "app={} fp={} degradation={:?} cache_hit={} deadline_met={} rejection={} plan={:?}",
        resp.app_id,
        resp.fingerprint,
        resp.degradation,
        resp.cache_hit,
        resp.deadline_met,
        resp.rejection.is_some(),
        resp.plan,
    )
}

fn counter_fingerprint(m: &MetricsSnapshot) -> String {
    format!(
        "completed={} cache_hits={} cache_misses={} deadline_misses={} audits={} \
         audit_rejections={} busy={} levels={}/{}/{}/{}",
        m.completed,
        m.cache_hits,
        m.cache_misses,
        m.deadline_misses,
        m.audits,
        m.audit_rejections,
        m.busy_rejections,
        m.level_full,
        m.level_deterministic,
        m.level_dynamic_program,
        m.level_on_demand_only,
    )
}

#[test]
fn one_shard_and_four_shard_engines_are_observably_identical() {
    let single = Engine::new(1);
    let sharded = Engine::new(4);
    assert_eq!(single.shard_count(), 1);
    assert_eq!(sharded.shard_count(), 4);

    // three re-plan rounds over the same instances: round one misses the
    // cache everywhere, later rounds must hit — in *both* configurations,
    // because tenant→shard affinity keeps a tenant's repeats on one shard
    for _round in 0..3 {
        for req in evaluation_workload(10) {
            let g = single.submit(req.clone()).wait();
            let s = sharded.submit(req).wait();
            assert_eq!(observable(&g), observable(&s), "4-shard plan diverged from 1-shard");
        }
    }

    let (gm, sm) = (single.metrics(), sharded.metrics());
    assert_eq!(
        counter_fingerprint(&gm),
        counter_fingerprint(&sm),
        "merged sharded counters diverged from the single-shard ledger"
    );
    let n = (VmClass::EVALUATION.len() * 4) as u64;
    assert_eq!(gm.completed, 3 * n);
    assert_eq!(gm.cache_misses, n, "round one must miss");
    assert_eq!(gm.cache_hits, 2 * n, "later rounds must hit");
    assert_eq!(gm.deadline_misses, 0);

    // warm-basis side-tables agree too (summed across shards)
    assert_eq!(single.basis_cache_entries(), sharded.basis_cache_entries());
    assert_eq!(single.basis_cache_hit_rate(), sharded.basis_cache_hit_rate());
    assert_eq!(single.cache_len(), sharded.cache_len());

    // per-tenant rows merge identically (sorted by tenant id either way)
    assert_eq!(gm.tenants.len(), sm.tenants.len());
    for (g, s) in gm.tenants.iter().zip(&sm.tenants) {
        assert_eq!(
            (g.tenant.as_str(), g.requests, g.cache_hits, g.deadline_misses),
            (s.tenant.as_str(), s.requests, s.cache_hits, s.deadline_misses),
        );
    }

    // the shard table reflects the topology: one row per shard, completions
    // conserved under the merge
    assert_eq!(gm.shards.len(), 1);
    assert_eq!(sm.shards.len(), 4);
    assert_eq!(sm.shards.iter().map(|s| s.completed).sum::<u64>(), sm.completed);
    assert!(
        sm.shards.iter().filter(|s| s.completed > 0).count() > 1,
        "12 tenants should hash onto more than one of 4 shards"
    );
}

#[test]
fn try_submit_refuses_at_the_high_water_mark_and_recovers() {
    // high-water 0: the bounded queue refuses *every* untrusted submission
    let engine = Engine::with_config(
        2,
        EngineConfig { shard: Some(ShardConfig { queue_high_water: 0 }), ..Default::default() },
    );
    for i in 0..3 {
        let req = paper_request(VmClass::C1Medium, i, 8);
        let busy = match engine.try_submit(req) {
            Err(b) => b,
            Ok(_) => panic!("queue_high_water=0 must refuse every try_submit"),
        };
        assert_eq!(busy.depth, 0);
        assert_eq!(busy.high_water, 0);
        assert!(
            (50..=5000).contains(&busy.retry_after_ms),
            "retry hint out of band: {}",
            busy.retry_after_ms
        );
        assert!(busy.shard < 2);
    }

    // refusals are visible, side-effect-free, and do not wedge the engine:
    // the trusted in-process path still serves
    let m = engine.metrics();
    assert_eq!(m.busy_rejections, 3);
    assert_eq!(m.completed, 0);
    assert_eq!(m.queue_depth, 0, "a refused request must not leak queue depth");
    let resp = engine.submit(paper_request(VmClass::M1Large, 9, 8)).wait();
    assert!(resp.deadline_met);
    assert!(resp.plan.is_some());
    let m = engine.metrics();
    assert_eq!(m.completed, 1);
    assert_eq!(m.busy_rejections, 3);

    // a sane high-water accepts
    let roomy = Engine::new(2);
    let resp = match roomy.try_submit(paper_request(VmClass::M1Xlarge, 1, 8)) {
        Ok(t) => t.wait(),
        Err(b) => panic!("idle engine refused admission: {b:?}"),
    };
    assert!(resp.deadline_met);
}

#[test]
fn empty_batch_is_a_no_op() {
    let engine = Engine::new(2);
    assert!(engine.run_batch(Vec::new()).is_empty());
    assert_eq!(engine.metrics().completed, 0);
}

/// A capacitated two-day horizon (T = 48) at 1.15 × peak demand. Plain
/// branch & bound does not close it, so it runs to its deadline.
fn slow_request(tenant: &str, seed: u64, deadline: Duration) -> PlanRequest {
    let horizon = 48;
    let demand = DemandModel::paper_default().sample(horizon, seed);
    let peak = demand.iter().copied().fold(0.0, f64::max);
    let compute = (0..horizon).map(|t| 0.2 + 0.1 * ((t % 24) as f64 / 24.0)).collect();
    PlanRequest {
        app_id: tenant.into(),
        vm_class: "m1.small".into(),
        schedule: CostSchedule::ec2(compute, demand, &CostRates::ec2_2011()),
        params: PlanningParams { capacity: Some(1.15 * peak), ..Default::default() },
        tree: None,
        policy: PolicyKind::Deterministic,
        deadline,
        seed,
    }
}

/// Spin (politely) until `cond` holds; fails the test after 10 s.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let give_up = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < give_up, "timed out waiting until {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_ticket_is_answered_while_the_batch_drained_with_it_still_runs() {
    let engine = Arc::new(Engine::new(1));
    let deadline = Duration::from_secs(2);
    let first = engine.submit(slow_request("slow-a", 1048, deadline));
    wait_until("the worker takes the slow request", || engine.metrics().queue_depth == 0);

    // behind it, on the one worker's queue: a fast ticket, then a slow
    // batch job — the worker drains both together once the first is done
    let fast_req = paper_request(VmClass::M1Large, 0, 24);
    let fast = engine.submit(fast_req.clone());
    let batch = {
        let engine = Arc::clone(&engine);
        std::thread::spawn(move || {
            let responses = engine.run_batch(vec![slow_request("slow-b", 2048, deadline)]);
            (responses, Instant::now())
        })
    };
    // counted just before each push lands; slow-a holds the worker for its
    // whole deadline, far longer than that gap
    wait_until("both are queued", || engine.metrics().queue_depth == 2);

    let fast_resp = fast.wait();
    let answered = Instant::now();
    assert!(fast_resp.expect_plan().is_feasible(&fast_req.schedule, &fast_req.params, 1e-6));
    let (slow, batch_done) = batch.join().expect("the batch submitter");
    assert_eq!(slow.len(), 1);
    assert!(slow[0].plan.is_some());
    assert!(
        slow[0].latency >= deadline / 2,
        "the batch job must be slow for this test to mean anything: {:?}",
        slow[0].latency
    );
    // the batch job ran after the ticket's job: answered as it finished,
    // the ticket is ≈ one slow solve ahead of the batch
    let lead = batch_done.duration_since(answered);
    assert!(
        lead >= deadline / 2,
        "the ticket must be answered as its job finishes, not with the drained batch: \
         it led the batch by only {lead:?}"
    );
    assert!(first.wait().plan.is_some());
}
