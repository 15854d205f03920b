//! A FIFO-bounded hash map: the building block that keeps the engine's
//! long-lived caches from growing without bound under a steady stream
//! of distinct fingerprints (the failure mode the `unbounded-growth`
//! lint exists to catch).
//!
//! Eviction is insertion-order FIFO, not LRU: plan fingerprints arrive
//! roughly in working-set order, a FIFO needs no bookkeeping on the hot
//! `get` path, and the cache's job is warm-starting — evicting a
//! recently-used entry costs one extra solve, not correctness.

use std::collections::{HashMap, VecDeque};

/// A `u64`-keyed map holding at most `cap` entries; inserting past the
/// cap evicts the oldest-inserted key.
#[derive(Debug)]
pub struct BoundedMap<V> {
    map: HashMap<u64, V>,
    order: VecDeque<u64>,
    cap: usize,
}

impl<V> BoundedMap<V> {
    pub fn new(cap: usize) -> Self {
        Self { map: HashMap::with_capacity(cap.min(1024)), order: VecDeque::new(), cap }
    }

    pub fn get(&self, key: &u64) -> Option<&V> {
        self.map.get(key)
    }

    /// Insert, evicting the oldest entry when a *new* key would exceed
    /// the cap. Replacing an existing key never evicts. Returns the
    /// number of entries evicted (0 or 1).
    ///
    /// The eviction comes before the insert, so `order` never holds more
    /// than `cap` keys and its buffer never doubles past the cap.
    pub fn insert(&mut self, key: u64, value: V) -> usize {
        if let Some(slot) = self.map.get_mut(&key) {
            *slot = value;
            return 0;
        }
        if self.cap == 0 {
            return 1; // the new entry is evicted as it arrives
        }
        let mut evicted = 0;
        if self.order.len() >= self.cap {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
                evicted = 1;
            }
        }
        self.order.push_back(key);
        self.map.insert(key, value);
        evicted
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn cap(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_past_cap_evicts_oldest_first() {
        let mut m = BoundedMap::new(3);
        for k in 0..5u64 {
            m.insert(k, k * 10);
        }
        assert_eq!(m.len(), 3);
        assert!(m.get(&0).is_none(), "oldest evicted");
        assert!(m.get(&1).is_none());
        assert_eq!(m.get(&4), Some(&40));
    }

    #[test]
    fn replacing_a_key_does_not_evict() {
        let mut m = BoundedMap::new(2);
        m.insert(1, "a");
        m.insert(2, "b");
        assert_eq!(m.insert(1, "a2"), 0);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&2), Some(&"b"), "no eviction on replace");
        assert_eq!(m.get(&1), Some(&"a2"));
    }

    #[test]
    fn len_never_exceeds_cap_under_churn() {
        let mut m = BoundedMap::new(16);
        for k in 0..10_000u64 {
            m.insert(k.wrapping_mul(0x9E37_79B9_7F4A_7C15), k);
            assert!(m.len() <= 16);
        }
        assert_eq!(m.len(), 16);
    }

    #[test]
    fn order_buffer_never_grows_past_the_plan_cache_cap() {
        let cap = crate::cache::PLAN_CACHE_CAP;
        let mut m = BoundedMap::new(cap);
        for k in 0..3 * cap as u64 {
            m.insert(k, ());
        }
        assert_eq!(m.len(), cap);
        let slots = m.order.capacity();
        assert!(slots < 2 * cap, "order buffer grew to {slots} slots");
    }

    #[test]
    fn zero_cap_holds_nothing() {
        let mut m = BoundedMap::new(0);
        assert_eq!(m.insert(7, ()), 1);
        assert!(m.is_empty());
    }
}
