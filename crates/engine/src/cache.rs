//! Warm-start/result cache keyed by canonical problem fingerprint.
//!
//! Only fully-solved answers are inserted (see
//! [`crate::ladder::LadderResult::fully_solved`]): caching a
//! deadline-degraded plan would hand later, less-pressed requests a worse
//! answer than they could afford to compute.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use rrp_core::RentalPlan;
use rrp_milp::Basis;

use crate::bounded::BoundedMap;
use crate::request::DegradationLevel;

/// Plan-table capacity. A long-running service sees an unbounded stream
/// of distinct fingerprints (prices and demand shift every re-plan), so
/// the table must evict; FIFO keeps the most recent working set.
pub const PLAN_CACHE_CAP: usize = 4096;

/// Basis side-table capacity. Shapes are far fewer than fingerprints
/// (tenant + model dimensions only), but tenants churn too.
pub const BASIS_CACHE_CAP: usize = 512;

/// A cached answer: the committed plan and the rung it came from.
#[derive(Debug, Clone)]
pub struct CacheEntry {
    pub plan: RentalPlan,
    pub degradation: DegradationLevel,
}

/// Thread-safe plan cache with hit/miss counters.
///
/// Besides exact-instance plans it keeps a *basis side-table* keyed by
/// problem **shape** (tenant + model dimensions, not data): a rolling-horizon
/// re-plan shifts demand and prices, so its exact fingerprint misses the plan
/// cache, but the constraint matrix keeps its shape — the previous solve's
/// final root basis stays dual feasible and warm-starts the new root LP
/// (see `rrp_milp::MilpOptions::root_basis`).
#[derive(Debug)]
pub struct PlanCache {
    map: Mutex<BoundedMap<CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bases: Mutex<BoundedMap<Arc<Basis>>>,
    basis_hits: AtomicU64,
    basis_misses: AtomicU64,
    basis_evictions: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_caps(PLAN_CACHE_CAP, BASIS_CACHE_CAP)
    }
}

impl PlanCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache with explicit capacities (tests use small ones).
    pub fn with_caps(plan_cap: usize, basis_cap: usize) -> Self {
        Self {
            map: Mutex::new(BoundedMap::new(plan_cap)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bases: Mutex::new(BoundedMap::new(basis_cap)),
            basis_hits: AtomicU64::new(0),
            basis_misses: AtomicU64::new(0),
            basis_evictions: AtomicU64::new(0),
        }
    }

    /// Look a fingerprint up, counting the access as a hit or miss.
    pub fn lookup(&self, key: u64) -> Option<CacheEntry> {
        let entry = self.map.lock().unwrap_or_else(PoisonError::into_inner).get(&key).cloned();
        match entry {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        entry
    }

    pub fn insert(&self, key: u64, entry: CacheEntry) {
        let evicted = self.map.lock().unwrap_or_else(PoisonError::into_inner).insert(key, entry);
        self.evictions.fetch_add(evicted as u64, Ordering::Relaxed);
    }

    pub fn len(&self) -> usize {
        self.map.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Plan entries evicted to stay under [`PLAN_CACHE_CAP`].
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Hits over total lookups; 0 when nothing has been looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let total = h + self.misses() as f64;
        if total > 0.0 {
            h / total
        } else {
            0.0
        }
    }

    /// Look up the last optimal root basis stored for a problem shape.
    pub fn lookup_basis(&self, shape: u64) -> Option<Arc<Basis>> {
        let basis = self.bases.lock().unwrap_or_else(PoisonError::into_inner).get(&shape).cloned();
        match basis {
            Some(_) => self.basis_hits.fetch_add(1, Ordering::Relaxed),
            None => self.basis_misses.fetch_add(1, Ordering::Relaxed),
        };
        basis
    }

    /// Store the final root basis of a fully-solved request under its
    /// shape key; later requests of the same shape start warm from it.
    pub fn insert_basis(&self, shape: u64, basis: Arc<Basis>) {
        let evicted =
            self.bases.lock().unwrap_or_else(PoisonError::into_inner).insert(shape, basis);
        self.basis_evictions.fetch_add(evicted as u64, Ordering::Relaxed);
    }

    pub fn basis_entries(&self) -> usize {
        self.bases.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    pub fn basis_hits(&self) -> u64 {
        self.basis_hits.load(Ordering::Relaxed)
    }

    pub fn basis_misses(&self) -> u64 {
        self.basis_misses.load(Ordering::Relaxed)
    }

    /// Basis entries evicted to stay under [`BASIS_CACHE_CAP`].
    pub fn basis_evictions(&self) -> u64 {
        self.basis_evictions.load(Ordering::Relaxed)
    }

    /// Basis-table hits over lookups; 0 before any lookup.
    pub fn basis_hit_rate(&self) -> f64 {
        let h = self.basis_hits() as f64;
        let total = h + self.basis_misses() as f64;
        if total > 0.0 {
            h / total
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use rrp_core::CostBreakdown;

    use super::*;
    use crate::shard::tests::poison;

    fn entry(objective: f64) -> CacheEntry {
        CacheEntry {
            plan: RentalPlan {
                alpha: vec![objective],
                beta: vec![0.0],
                chi: vec![true],
                objective,
                breakdown: CostBreakdown::default(),
            },
            degradation: DegradationLevel::Full,
        }
    }

    #[test]
    fn a_poisoned_plan_table_still_serves_lookups_and_inserts() {
        let cache = PlanCache::with_caps(2, 2);
        cache.insert(1, entry(1.0));
        poison(&cache.map);
        assert_eq!(cache.lookup(1).expect("entry survives the poison").plan.objective, 1.0);
        assert!(cache.lookup(2).is_none());
        cache.insert(2, entry(2.0));
        cache.insert(3, entry(3.0));
        assert_eq!(cache.lookup(3).expect("insert after poison").plan.objective, 3.0);
        assert!(cache.lookup(1).is_none(), "FIFO eviction still runs");
        assert_eq!((cache.len(), cache.hits(), cache.misses(), cache.evictions()), (2, 2, 2, 1));
    }
}
