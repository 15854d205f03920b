//! Seeded request generators. Every input of a run is a pure function of
//! `--seed` (through [`derive_seed`]) and the op's index, so two runs with
//! one seed do identical work and the program only ever sees the generated
//! requests.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrp_core::demand::DemandModel;
use rrp_core::sampling::stage_distributions;
use rrp_core::{wagner_whitin, CostSchedule, PlanningParams, ScenarioTree};
use rrp_engine::{DegradationLevel, PlanRequest, PolicyKind};
use rrp_spotmarket::{derive_seed, CostRates, EmpiricalDist, SpotArchive, VmClass};

/// Tenants the requests are spread over (tenant id decides the shard).
pub const TENANTS: usize = 64;

/// Slots of a capacitated DRRP instance. The issue sized this workload at
/// 24 slots (≈ 250 ms a plan, heavy-tailed); a run must finish well over a
/// thousand plans for its median to hold still across seeds, so the
/// horizon is the largest that allows that in a run of this length.
pub const CAP_HORIZON: usize = 16;
/// Capacity as a multiple of the instance's peak demand: binds in the busy
/// slots without making the instance infeasible.
pub const CAP_FACTOR: f64 = 1.15;

fn tenant_id(t: usize) -> String {
    format!("tenant-{t:02}")
}

/// The paper's diurnal price shape: a ramp over the day on top of `base`.
fn diurnal(base: f64, slot: usize) -> f64 {
    base * (1.0 + 0.5 * ((slot % 24) as f64 / 24.0))
}

/// Op `i` of the capacitated cold workload: paper demand N(0.4, 0.2), a
/// diurnal price whose phase the seed picks, capacity at
/// [`CAP_FACTOR`]× peak. Every op is a distinct instance, so the plan
/// cache never hits.
pub fn cap_request(seed: u64, i: usize) -> PlanRequest {
    let s = derive_seed(seed, &format!("cap/{i}"));
    let demand = DemandModel::paper_default().sample(CAP_HORIZON, s);
    let phase = (s >> 32) as usize % 24;
    let compute = (0..CAP_HORIZON).map(|t| diurnal(0.2, t + phase)).collect();
    let peak = demand.iter().cloned().fold(0.0_f64, f64::max);
    PlanRequest {
        app_id: tenant_id(i % TENANTS),
        vm_class: "m1.small".to_string(),
        schedule: CostSchedule::ec2(compute, demand, &CostRates::ec2_2011()),
        params: PlanningParams { capacity: Some(peak * CAP_FACTOR), ..Default::default() },
        tree: None,
        policy: PolicyKind::Deterministic,
        deadline: Duration::from_secs(10),
        seed: s,
    }
}

/// One bid-dependent scenario-tree shape of the stochastic workload.
pub struct TreeClass {
    pub vm: VmClass,
    pub stages: usize,
    /// Per-stage price distributions the tree is built from (kept so the
    /// traced run can time the tree build itself).
    pub dists: Vec<EmpiricalDist>,
    pub tree: ScenarioTree,
}

/// `(class, stages)` of each tree shape, smallest first: 127- and 255-node
/// binary trees, a 364-node ternary one. (Solve time grows about with the
/// square of the tree: 4, 23 and 28 ms on the reference host. A 511-node
/// tree takes 110 ms and a 1093-node one 240 ms; a run cannot finish enough
/// of those for its percentiles to hold still, so they stay out.)
pub const TREE_SHAPES: [(VmClass, usize); 3] =
    [(VmClass::C1Medium, 6), (VmClass::C1Medium, 7), (VmClass::M1Xlarge, 5)];

/// Which tree shape op `i` uses: a fixed cycle, so every run solves the
/// three shapes in the same 5:8:7 proportion, and both the median and the
/// 90th percentile fall inside the two larger shapes' cluster of solve
/// times instead of on the step between two clusters.
pub const TREE_CYCLE: [u8; 20] = [1, 2, 0, 1, 2, 1, 0, 2, 1, 2, 0, 1, 2, 1, 0, 2, 1, 2, 0, 1];

/// Build the tree shapes from the canonical spot archive: the price
/// distribution of the estimation window, truncated at a bid equal to its
/// mean (paper Eq. 10), one stage per slot.
pub fn tree_classes() -> Vec<TreeClass> {
    TREE_SHAPES
        .iter()
        .map(|&(vm, stages)| {
            let history = SpotArchive::canonical(vm).estimation_window();
            let base = EmpiricalDist::from_history(history.values(), 3);
            let bids = vec![base.mean(); stages];
            let dists = stage_distributions(&base, &bids, vm.on_demand_price());
            let tree = ScenarioTree::from_stage_distributions(&dists, 100_000);
            TreeClass { vm, stages, dists, tree }
        })
        .collect()
}

/// Op `i` of the stochastic workload without its tree (trees are large;
/// the request clones its class's tree when it is submitted).
#[derive(Debug, Clone, PartialEq)]
pub struct SrrpOp {
    pub class: usize,
    pub demand: Vec<f64>,
    pub seed: u64,
}

pub fn srrp_op(seed: u64, i: usize) -> SrrpOp {
    let class = TREE_CYCLE[i % TREE_CYCLE.len()] as usize;
    let s = derive_seed(seed, &format!("srrp/{i}"));
    let demand = DemandModel::paper_default().sample(TREE_SHAPES[class].1, s);
    SrrpOp { class, demand, seed: s }
}

impl SrrpOp {
    pub fn request(&self, i: usize, classes: &[TreeClass]) -> PlanRequest {
        let class = &classes[self.class];
        PlanRequest {
            app_id: tenant_id(i % TENANTS),
            vm_class: class.vm.name().to_string(),
            // compute prices come from the tree vertices
            schedule: CostSchedule::ec2(
                vec![0.0; class.stages],
                self.demand.clone(),
                &CostRates::ec2_2011(),
            ),
            params: PlanningParams::default(),
            tree: Some(class.tree.clone()),
            policy: PolicyKind::Stochastic,
            deadline: Duration::from_secs(20),
            seed: self.seed,
        }
    }
}

/// The policies the `/plan` wire format accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WirePolicy {
    Deterministic,
    DynamicProgram,
    OnDemand,
}

impl WirePolicy {
    pub fn wire_tag(self) -> &'static str {
        match self {
            WirePolicy::Deterministic => "deterministic",
            WirePolicy::DynamicProgram => "dynamic-program",
            WirePolicy::OnDemand => "on-demand",
        }
    }

    pub fn kind(self) -> PolicyKind {
        match self {
            WirePolicy::Deterministic => PolicyKind::Deterministic,
            WirePolicy::DynamicProgram => PolicyKind::DynamicProgram,
            WirePolicy::OnDemand => PolicyKind::OnDemand,
        }
    }

    /// The rung an undegraded answer comes from.
    pub fn rung(self) -> DegradationLevel {
        self.kind().start_level()
    }
}

/// Deadline of every HTTP request.
pub const WIRE_DEADLINE_MS: u64 = 1_000;

/// One `POST /plan` request: an uncapacitated instance in the wire format.
#[derive(Debug, Clone, PartialEq)]
pub struct WireOp {
    pub tenant: usize,
    pub policy: WirePolicy,
    pub compute: Vec<f64>,
    pub demand: Vec<f64>,
}

impl WireOp {
    /// The JSON body. Floats print in shortest round-trip form, so the
    /// server parses exactly the schedule [`Self::schedule`] builds.
    pub fn body(&self) -> String {
        let list = |v: &[f64]| v.iter().map(|x| format!("{x:?}")).collect::<Vec<_>>().join(",");
        format!(
            "{{\"app_id\":\"{}\",\"policy\":\"{}\",\"deadline_ms\":{WIRE_DEADLINE_MS},\
             \"compute\":[{}],\"demand\":[{}]}}",
            tenant_id(self.tenant),
            self.policy.wire_tag(),
            list(&self.compute),
            list(&self.demand)
        )
    }

    pub fn schedule(&self) -> CostSchedule {
        CostSchedule::ec2(self.compute.clone(), self.demand.clone(), &CostRates::ec2_2011())
    }

    /// The request the server builds from [`Self::body`].
    pub fn request(&self) -> PlanRequest {
        PlanRequest {
            app_id: tenant_id(self.tenant),
            vm_class: "m1.small".to_string(),
            schedule: self.schedule(),
            params: PlanningParams::default(),
            tree: None,
            policy: self.policy.kind(),
            deadline: Duration::from_millis(WIRE_DEADLINE_MS),
            seed: 0,
        }
    }

    /// The exact optimum the answer must match: Wagner–Whitin for the
    /// optimising policies (the wire format is uncapacitated), the
    /// closed-form construction for `on-demand`.
    pub fn oracle(&self) -> f64 {
        let (s, p) = (self.schedule(), PlanningParams::default());
        match self.policy {
            WirePolicy::OnDemand => rrp_core::on_demand_plan(&s, &p).objective,
            _ => wagner_whitin::solve(&s, &p).objective,
        }
    }
}

/// A tenant's endless demand and price streams, addressed by slot, so that
/// rolling-horizon windows of one tenant overlap the way re-plans do.
#[derive(Debug, Clone, Copy)]
pub struct TenantStream {
    seed: u64,
    base_price: f64,
}

impl TenantStream {
    pub fn new(master: u64, tenant: usize) -> Self {
        let seed = derive_seed(master, &format!("stream/{tenant}"));
        let base_price = 0.15 + 0.1 * (seed >> 11) as f64 / (1u64 << 53) as f64;
        Self { seed, base_price }
    }

    fn demand_at(&self, slot: usize) -> f64 {
        // one generator per slot: a window's demand does not depend on
        // where the window starts
        let mut rng =
            StdRng::seed_from_u64(self.seed.wrapping_add((slot as u64).wrapping_mul(0x9e37_79b9)));
        DemandModel::paper_default().sample_with(1, &mut rng)[0]
    }

    /// The window `[start, start + horizon)` as a wire request.
    pub fn window(
        &self,
        tenant: usize,
        policy: WirePolicy,
        start: usize,
        horizon: usize,
    ) -> WireOp {
        WireOp {
            tenant,
            policy,
            compute: (start..start + horizon).map(|s| diurnal(self.base_price, s)).collect(),
            demand: (start..start + horizon).map(|s| self.demand_at(s)).collect(),
        }
    }
}

/// Horizons of the front-door workload's warm set, cycled.
pub const WARM_HORIZONS: [usize; 3] = [8, 12, 16];
/// Bodies in the front-door workload's warm set.
pub const WARM_BODIES: usize = 512;

/// The pre-solved instances `http_warm` repeats: body `k` belongs to
/// tenant `k mod 64` and is the tenant's window starting at slot `24·k`.
pub fn warm_set(seed: u64) -> Vec<WireOp> {
    let streams: Vec<TenantStream> = (0..TENANTS).map(|t| TenantStream::new(seed, t)).collect();
    (0..WARM_BODIES)
        .map(|k| {
            let t = k % TENANTS;
            let h = WARM_HORIZONS[k % WARM_HORIZONS.len()];
            streams[t].window(t, WirePolicy::Deterministic, 24 * k, h)
        })
        .collect()
}

/// Which warm body each op of `http_warm` sends.
pub fn warm_picks(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(derive_seed(seed, "http_warm/picks"));
    (0..n).map(|_| rng.gen_range(0..WARM_BODIES)).collect()
}

/// Horizon of the mixed workload's day-ahead requests: the repeated
/// bodies, the fresh windows and the `on-demand` ones.
pub const DAY: usize = 24;
/// Horizon of the mixed workload's `dynamic-program` requests.
pub const WEEK: usize = 168;
/// Repeated bodies in the mixed workload: the day-ahead plans of the first
/// 32 tenants (pre-solving them is most of the workload's set-up time).
pub const MIXED_BODIES: usize = 32;

/// What an op of the mixed workload is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixedKind {
    /// A body of the warm set: plan-cache hit.
    Repeat,
    /// The next day-ahead window of an existing tenant: plan-cache miss and
    /// insert, basis-cache hit.
    Fresh,
    /// A week-ahead `dynamic-program` request.
    Week,
    /// A day-ahead `on-demand` request.
    OnDemand,
}

/// The traffic mix as a fixed cycle of 20 ops — 12 repeats (60 %), 5 fresh
/// windows (25 %), 2 week-ahead DPs (10 %), 1 on-demand (5 %) — so the
/// shares are exact in every run and only the instances vary with the seed.
pub const MIXED_CYCLE: [MixedKind; 20] = {
    use MixedKind::{Fresh as F, OnDemand as O, Repeat as R, Week as W};
    [R, F, R, R, W, R, F, R, R, O, R, F, R, W, R, F, R, R, F, R]
};

/// The mixed workload's generator: the warm set plus the tenants' streams.
pub struct MixedGen {
    seed: u64,
    streams: Vec<TenantStream>,
    pub warm: Vec<WireOp>,
}

impl MixedGen {
    pub fn new(seed: u64) -> Self {
        let streams: Vec<TenantStream> = (0..TENANTS).map(|t| TenantStream::new(seed, t)).collect();
        let warm = (0..MIXED_BODIES)
            .map(|t| streams[t].window(t, WirePolicy::Deterministic, 0, DAY))
            .collect();
        Self { seed, streams, warm }
    }

    pub fn kind(i: usize) -> MixedKind {
        MIXED_CYCLE[i % MIXED_CYCLE.len()]
    }

    /// Op `i`. Fresh windows start at slot `DAY + i`, which no other op and
    /// no warm body uses, so they always miss the plan cache.
    pub fn op(&self, i: usize) -> WireOp {
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, &format!("mixed/{i}")));
        let tenant = rng.gen_range(0..TENANTS);
        let start = DAY + i;
        match Self::kind(i) {
            MixedKind::Repeat => self.warm[tenant % MIXED_BODIES].clone(),
            MixedKind::Fresh => {
                self.streams[tenant].window(tenant, WirePolicy::Deterministic, start, DAY)
            }
            MixedKind::Week => {
                self.streams[tenant].window(tenant, WirePolicy::DynamicProgram, start, WEEK)
            }
            MixedKind::OnDemand => {
                self.streams[tenant].window(tenant, WirePolicy::OnDemand, start, DAY)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every op of every generator, rendered to bytes.
    fn render(seed: u64) -> String {
        let mut out = String::new();
        for i in 0..40 {
            out.push_str(&format!("{:?}\n{:?}\n", cap_request(seed, i), srrp_op(seed, i)));
        }
        for op in warm_set(seed).iter().take(40) {
            out.push_str(&op.body());
        }
        out.push_str(&format!("{:?}", warm_picks(seed, 40)));
        let mixed = MixedGen::new(seed);
        for i in 0..40 {
            out.push_str(&mixed.op(i).body());
        }
        out
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(render(7), render(7));
        assert_ne!(render(7), render(8));
    }

    #[test]
    fn mixed_cycle_has_the_stated_shares() {
        let count = |k| MIXED_CYCLE.iter().filter(|&&x| x == k).count();
        assert_eq!(count(MixedKind::Repeat), 12);
        assert_eq!(count(MixedKind::Fresh), 5);
        assert_eq!(count(MixedKind::Week), 2);
        assert_eq!(count(MixedKind::OnDemand), 1);
    }

    #[test]
    fn windows_of_one_tenant_overlap_like_replans() {
        let s = TenantStream::new(3, 5);
        let a = s.window(5, WirePolicy::Deterministic, 100, 24);
        let b = s.window(5, WirePolicy::Deterministic, 101, 24);
        assert_eq!(a.demand[1..], b.demand[..23]);
        assert_eq!(a.compute[1..], b.compute[..23]);
        assert!(a.demand.iter().all(|&d| d > 0.0));
    }

    #[test]
    fn wire_body_round_trips_the_schedule_exactly() {
        let op = MixedGen::new(11).op(1);
        let v = serde_json::from_str(&op.body()).unwrap();
        let parsed: Vec<f64> = v
            .get("demand")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(parsed, op.demand);
        assert_eq!(v.get("policy").unwrap().as_str(), Some("deterministic"));
    }

    #[test]
    fn tree_cycle_and_shapes() {
        let classes = tree_classes();
        let sizes: Vec<usize> = classes.iter().map(|c| c.tree.len()).collect();
        assert_eq!(sizes, vec![127, 255, 364]);
        let share = |c| TREE_CYCLE.iter().filter(|&&x| x == c).count();
        assert_eq!((share(0), share(1), share(2)), (5, 8, 7));
        let req = srrp_op(1, 2).request(2, &classes);
        assert_eq!(req.tree.as_ref().unwrap().stages(), req.schedule.horizon());
    }
}
