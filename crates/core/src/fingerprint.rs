//! Canonical problem fingerprints.
//!
//! The planning engine's warm-start/result cache keys solves by a stable
//! 64-bit hash of the *problem*, not the request object: cost schedule,
//! demand, planning parameters and scenario-tree shape. The hash is a
//! hand-rolled FNV-1a variant (xor-multiply per byte for byte data, per
//! word for numeric data) so it is stable across runs, platforms and std
//! versions (`std::hash` RandomState is per-process-seeded and useless as
//! a cache key).
//!
//! Floats are hashed by bit pattern with `-0.0` normalised to `0.0` and all
//! NaNs collapsed to one canonical payload, so numerically-equal schedules
//! fingerprint equally. Every section is prefixed with a domain tag and
//! every vector with its length, so field boundaries cannot alias
//! (`[a,b],[c]` never collides with `[a],[b,c]`).

use crate::cost::{CostSchedule, PlanningParams};
use crate::scenario::ScenarioTree;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    pub fn write_u8(&mut self, byte: u8) {
        self.state ^= byte as u64;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    /// Mix a whole word in one xor-multiply step (not byte-at-a-time).
    /// Still deterministic and platform-stable, and each write is a
    /// bijection in its operand — perturbing any single hashed field
    /// *always* changes the final state — but one multiply per word keeps
    /// the fingerprint off the submit path's flame graph. Word writes and
    /// byte writes land in distinct state trajectories; all callers go
    /// through the same typed helpers, so streams stay comparable.
    pub fn write_u64(&mut self, v: u64) {
        self.state ^= v;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Hash a float by canonical bit pattern: `-0.0 ≡ 0.0`, all NaNs equal.
    pub fn write_f64(&mut self, v: f64) {
        let canon = if v.is_nan() {
            f64::NAN.to_bits()
        } else if v == 0.0 {
            0u64 // collapses -0.0
        } else {
            v.to_bits()
        };
        self.write_u64(canon);
    }

    /// Length-prefixed float vector.
    pub fn write_f64_slice(&mut self, vs: &[f64]) {
        self.write_usize(vs.len());
        for &v in vs {
            self.write_f64(v);
        }
    }

    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Mix a cost schedule into a fingerprint (all five per-slot vectors).
pub fn hash_schedule(h: &mut Fnv64, s: &CostSchedule) {
    h.write_u8(b'S');
    h.write_f64_slice(&s.compute);
    h.write_f64_slice(&s.inventory);
    h.write_f64_slice(&s.gen);
    h.write_f64_slice(&s.out);
    h.write_f64_slice(&s.demand);
}

/// Mix planning parameters into a fingerprint.
pub fn hash_params(h: &mut Fnv64, p: &PlanningParams) {
    h.write_u8(b'P');
    h.write_f64(p.initial_inventory);
    match p.capacity {
        Some(c) => {
            h.write_u8(1);
            h.write_f64(c);
        }
        None => h.write_u8(0),
    }
}

/// Mix a scenario tree's shape and data into a fingerprint: node count,
/// stage count, and per vertex its parent, stage, price, optional demand
/// and branch probability. Two trees hash equally iff they are structurally
/// and numerically identical.
pub fn hash_tree(h: &mut Fnv64, tree: &ScenarioTree) {
    h.write_u8(b'T');
    h.write_usize(tree.len());
    h.write_usize(tree.stages());
    for v in 0..tree.len() {
        let node = tree.node(v);
        match node.parent {
            Some(p) => {
                h.write_u8(1);
                h.write_usize(p);
            }
            None => h.write_u8(0),
        }
        h.write_usize(node.stage);
        h.write_f64(node.price);
        match node.demand {
            Some(d) => {
                h.write_u8(1);
                h.write_f64(d);
            }
            None => h.write_u8(0),
        }
        h.write_f64(node.branch_prob);
    }
}

/// One-shot fingerprint of a full planning instance. `tree` is `None` for
/// deterministic (DRRP/DP) instances.
pub fn fingerprint_instance(
    schedule: &CostSchedule,
    params: &PlanningParams,
    tree: Option<&ScenarioTree>,
) -> u64 {
    let mut h = Fnv64::new();
    hash_schedule(&mut h, schedule);
    hash_params(&mut h, params);
    match tree {
        Some(t) => hash_tree(&mut h, t),
        None => h.write_u8(b'-'),
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrp_spotmarket::CostRates;

    fn schedule() -> CostSchedule {
        CostSchedule::ec2(vec![0.06, 0.05, 0.07], vec![0.4, 0.5, 0.3], &CostRates::ec2_2011())
    }

    #[test]
    fn identical_instances_hash_equal() {
        let a = fingerprint_instance(&schedule(), &PlanningParams::default(), None);
        let b = fingerprint_instance(&schedule(), &PlanningParams::default(), None);
        assert_eq!(a, b);
    }

    #[test]
    fn any_field_perturbation_changes_hash() {
        let base = fingerprint_instance(&schedule(), &PlanningParams::default(), None);

        let mut s = schedule();
        s.demand[1] += 1e-9;
        assert_ne!(base, fingerprint_instance(&s, &PlanningParams::default(), None));

        let mut s = schedule();
        s.compute[0] = 0.061;
        assert_ne!(base, fingerprint_instance(&s, &PlanningParams::default(), None));

        let p = PlanningParams { initial_inventory: 0.1, capacity: None };
        assert_ne!(base, fingerprint_instance(&schedule(), &p, None));

        let p = PlanningParams { initial_inventory: 0.0, capacity: Some(5.0) };
        assert_ne!(base, fingerprint_instance(&schedule(), &p, None));
    }

    #[test]
    fn negative_zero_and_nan_are_canonical() {
        let mut a = Fnv64::new();
        a.write_f64(0.0);
        let mut b = Fnv64::new();
        b.write_f64(-0.0);
        assert_eq!(a.finish(), b.finish());

        let mut a = Fnv64::new();
        a.write_f64(f64::NAN);
        let mut b = Fnv64::new();
        b.write_f64(-f64::NAN);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn vector_boundaries_do_not_alias() {
        let mut a = Fnv64::new();
        a.write_f64_slice(&[1.0, 2.0]);
        a.write_f64_slice(&[3.0]);
        let mut b = Fnv64::new();
        b.write_f64_slice(&[1.0]);
        b.write_f64_slice(&[2.0, 3.0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn tree_shape_feeds_hash() {
        use rrp_spotmarket::EmpiricalDist;
        let d2 = EmpiricalDist::from_parts(vec![0.05, 0.1], vec![0.5, 0.5]);
        let d2b = EmpiricalDist::from_parts(vec![0.05, 0.1], vec![0.4, 0.6]);
        let t_a = ScenarioTree::from_stage_distributions(&[d2.clone(), d2.clone()], 1000);
        let t_b = ScenarioTree::from_stage_distributions(&[d2.clone(), d2b], 1000);
        let s = schedule();
        let p = PlanningParams::default();
        let mut sched2 = s.clone();
        sched2.compute.truncate(2);
        sched2.inventory.truncate(2);
        sched2.gen.truncate(2);
        sched2.out.truncate(2);
        sched2.demand.truncate(2);
        let fa = fingerprint_instance(&sched2, &p, Some(&t_a));
        let fb = fingerprint_instance(&sched2, &p, Some(&t_b));
        assert_ne!(fa, fb, "branch probabilities must feed the fingerprint");
        assert_ne!(fa, fingerprint_instance(&sched2, &p, None));
    }
}
