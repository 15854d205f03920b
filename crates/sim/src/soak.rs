//! Multi-tenant soak mode: N concurrent simulated tenants drive the
//! engine at once, exercising the plan/basis caches, the degradation
//! ladder and the obs stack under churn — the sim doubling as a realistic
//! load generator.

use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rrp_engine::{Engine, PolicyKind};
use rrp_spotmarket::{SeedSeq, VmClass};

use crate::bidding::FeedbackBid;
use crate::episode::{run_episode, SimConfig};
use crate::recovery::OnDemandFailover;

/// Soak-run shape. Tenant `i` draws its episode seed from the master via
/// `derive_indexed("tenant", i % distinct_profiles)` — capping the number
/// of distinct profiles makes tenants share problem fingerprints, which
/// heats the plan cache of every shard that serves more than one of them.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    pub tenants: usize,
    /// Episode length per tenant (slots).
    pub slots: usize,
    /// Rolling window per tenant.
    pub horizon: usize,
    pub seed: u64,
    pub demand_mean: f64,
    pub deadline: Duration,
    /// Number of distinct episode profiles across tenants (cache sharing
    /// knob: `tenants` forces all-distinct, `1` forces all-identical).
    pub distinct_profiles: usize,
}

impl Default for SoakConfig {
    fn default() -> Self {
        Self {
            tenants: 128,
            slots: 12,
            horizon: 4,
            seed: 20120521,
            demand_mean: 0.4,
            deadline: Duration::from_secs(10),
            distinct_profiles: 32,
        }
    }
}

/// Aggregate outcome of a soak run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct SoakOutcome {
    pub tenants: usize,
    /// Engine responses produced during the run.
    pub requests: u64,
    pub wall_ms: f64,
    /// Requests per second through the engine.
    pub rps: f64,
    pub cache_hit_rate: f64,
    pub deadline_misses: u64,
    /// Out-of-bid interruptions summed across tenants.
    pub interruptions: usize,
    /// SLO-violated slots summed across tenants.
    pub violated_slots: usize,
    /// Demand still unserved at episode end, summed across tenants (GB).
    pub unrecovered_gb: f64,
}

/// Drive `cfg.tenants` concurrent episodes through `engine` (one OS
/// thread per tenant — plan requests are CPU-bound and the engine's own
/// worker pool does the solving).
pub fn run_soak(engine: &Engine, cfg: &SoakConfig) -> SoakOutcome {
    assert!(cfg.tenants >= 1 && cfg.distinct_profiles >= 1);
    let seq = SeedSeq::new(cfg.seed);
    let before = engine.metrics();
    let start = Instant::now();
    let results = Mutex::new(Vec::with_capacity(cfg.tenants));
    std::thread::scope(|scope| {
        for i in 0..cfg.tenants {
            let results = &results;
            let sim = SimConfig {
                seed: seq.derive_indexed("tenant", i % cfg.distinct_profiles),
                class: VmClass::C1Medium,
                slots: cfg.slots,
                horizon: cfg.horizon,
                demand_mean: cfg.demand_mean,
                policy: PolicyKind::Deterministic,
                deadline: cfg.deadline,
                app_id: format!("tenant-{i}"),
                reservation: None,
            };
            scope.spawn(move || {
                let mut bid = FeedbackBid::default();
                let mut rec = OnDemandFailover;
                let r = run_episode(engine, &sim, &mut bid, &mut rec);
                results.lock().push(r);
            });
        }
    });
    let wall = start.elapsed();
    let after = engine.metrics();
    let results = results.into_inner();

    let requests = after.completed - before.completed;
    let mut interruptions = 0;
    let mut violated_slots = 0;
    let mut unrecovered_gb = 0.0;
    for r in &results {
        interruptions += r.interruptions;
        violated_slots += r.slo.violated_slots;
        unrecovered_gb += r.slo.unrecovered_gb;
    }
    SoakOutcome {
        tenants: cfg.tenants,
        requests,
        wall_ms: wall.as_secs_f64() * 1e3,
        rps: requests as f64 / wall.as_secs_f64().max(1e-9),
        cache_hit_rate: after.cache_hit_rate,
        deadline_misses: after.deadline_misses - before.deadline_misses,
        interruptions,
        violated_slots,
        unrecovered_gb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_drives_concurrent_tenants_through_the_engine() {
        let engine = Engine::new(4);
        let cfg = SoakConfig { tenants: 16, slots: 6, horizon: 3, ..Default::default() };
        let out = run_soak(&engine, &cfg);
        assert_eq!(out.tenants, 16);
        // every tenant re-plans at least twice over 6 slots with window 3
        assert!(out.requests >= 32, "requests {}", out.requests);
        assert!(out.rps > 0.0);
        assert!(out.unrecovered_gb < 1e-6, "failover recovery keeps demand whole");
    }

    #[test]
    fn shared_profiles_heat_the_plan_cache() {
        // one shard: the plan cache is per shard, so only a single-shard
        // engine guarantees that tenants of one profile share an entry
        let engine = Engine::new(1);
        let cfg = SoakConfig {
            tenants: 12,
            slots: 4,
            horizon: 2,
            distinct_profiles: 3,
            ..Default::default()
        };
        let out = run_soak(&engine, &cfg);
        assert!(
            out.cache_hit_rate > 0.0,
            "12 tenants over 3 profiles must share fingerprints: {out:?}"
        );
    }
}
