//! Scale-out primitives of the engine: the tenant→shard hash,
//! the bounded per-shard job queue, batched completion waves, and the
//! per-shard readiness verdict.
//!
//! A shard is a *single-owner* slice of the engine: one worker thread owns
//! one shard's queue, plan/basis cache, metrics ledger and in-flight
//! table, and every request for a tenant lands on the shard its
//! [`shard_of`] hash picks. The hot submit/complete path therefore touches
//! only shard-local locks, and the scale-out unit is a shard, not a lock.
//!
//! Two wakeup disciplines keep the path lean on top of the locality win:
//!
//! * **batch drain** — a worker takes every queued job in one lock
//!   acquisition ([`ShardQueue::recv_batch`]) and sleeps only when its
//!   queue is truly empty; submitters notify only on the empty→non-empty
//!   edge, so a burst of `n` submissions costs one wakeup, not `n`.
//! * **wave completion** — a batch submitter waits on one [`Wave`]
//!   (condvar signalled by the *last* completion) instead of `n`
//!   per-request channels, so a burst of `n` completions also costs one
//!   wakeup.

use std::collections::VecDeque;

use parking_lot::{Condvar, Mutex};
use rrp_core::fingerprint::Fnv64;
use rrp_obs::Readiness;

/// The shard a tenant id hashes to, in `0..shards`. FNV-1a over the raw
/// id bytes: stable across runs (no `RandomState`), cheap, and uniform
/// enough that synthetic `tenant-<n>` id families spread evenly.
pub fn shard_of(app_id: &str, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard_of needs at least one shard");
    let mut h = Fnv64::new();
    h.write_bytes(app_id.as_bytes());
    (h.finish() % shards.max(1) as u64) as usize
}

/// Admission verdict when a shard's queue is over its high-water mark.
/// Carried up to the HTTP front end as `429 Too Many Requests` with a
/// `Retry-After` hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Busy {
    /// Shard that refused the request.
    pub shard: usize,
    /// Its queue depth at refusal time.
    pub depth: usize,
    /// The admission threshold it exceeded.
    pub high_water: usize,
    /// Suggested client backoff, scaled to how far over water the shard is.
    pub retry_after_ms: u64,
}

impl Busy {
    fn new(shard: usize, depth: usize, high_water: usize) -> Self {
        // one deadline-ish quantum per queued request over the mark, so a
        // deeply backed-up shard pushes clients further away; clamped to
        // keep Retry-After an honest "soon" rather than a parking order
        let over = depth.saturating_sub(high_water) as u64;
        Self { shard, depth, high_water, retry_after_ms: (50 + 10 * over).min(5_000) }
    }
}

struct QueueState<T> {
    jobs: VecDeque<T>,
    closed: bool,
}

/// A single-owner shard work queue: multi-producer (any submitting
/// thread), single-consumer (the shard's worker). Bounded by admission
/// control — [`ShardQueue::try_push`] refuses over the high-water mark —
/// while the trusted in-process [`ShardQueue::push`] path stays
/// infallible (its callers are waves the engine itself paces).
pub(crate) struct ShardQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
    shard: usize,
    high_water: usize,
}

impl<T> ShardQueue<T> {
    pub fn new(shard: usize, high_water: usize) -> Self {
        Self {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
            shard,
            high_water,
        }
    }

    /// Enqueue unconditionally (in-process trusted path). Notifies the
    /// worker only on the empty→non-empty edge.
    pub fn push(&self, job: T) {
        let mut st = self.state.lock();
        let was_empty = st.jobs.is_empty();
        st.jobs.push_back(job);
        drop(st);
        if was_empty {
            self.ready.notify_one();
        }
    }

    /// Enqueue a whole wave's worth of jobs under one lock acquisition and
    /// at most one wakeup — the producer half of the batch discipline that
    /// makes a sharded submission cost O(shards) locks instead of O(jobs).
    pub fn push_batch(&self, jobs: impl IntoIterator<Item = T>) {
        let mut st = self.state.lock();
        let was_empty = st.jobs.is_empty();
        st.jobs.extend(jobs);
        let became_nonempty = was_empty && !st.jobs.is_empty();
        drop(st);
        if became_nonempty {
            self.ready.notify_one();
        }
    }

    /// Enqueue with admission control: refused with [`Busy`] when the
    /// queue is at or over its high-water mark.
    pub fn try_push(&self, job: T) -> Result<(), (T, Busy)> {
        let mut st = self.state.lock();
        let depth = st.jobs.len();
        if depth >= self.high_water {
            return Err((job, Busy::new(self.shard, depth, self.high_water)));
        }
        let was_empty = st.jobs.is_empty();
        st.jobs.push_back(job);
        drop(st);
        if was_empty {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// Block until work arrives, then move *every* queued job into `out`
    /// under one lock acquisition. Returns `false` when the queue is
    /// closed and drained — the worker's exit condition.
    pub fn recv_batch(&self, out: &mut Vec<T>) -> bool {
        let mut st = self.state.lock();
        while st.jobs.is_empty() {
            if st.closed {
                return false;
            }
            self.ready.wait(&mut st);
        }
        out.extend(st.jobs.drain(..));
        true
    }

    /// Close the queue: the worker finishes what is queued, then exits.
    pub fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        drop(st);
        self.ready.notify_all();
    }

    /// Requests pushed but not yet drained by the worker. (The engine's
    /// own saturation signals use the metrics ledger's depth instead,
    /// which also counts drained-but-unprocessed backlog.)
    #[cfg(test)]
    pub fn depth(&self) -> usize {
        self.state.lock().jobs.len()
    }
}

struct WaveState<R> {
    slots: Vec<Option<R>>,
    remaining: usize,
    /// Slots whose worker panicked before producing a response.
    poisoned: usize,
}

/// Batched completion: one condvar wakeup for a whole submission wave.
/// Each job carries `(wave, index)`; the worker files its response into
/// the slot and only the last completion signals the waiting submitter.
pub(crate) struct Wave<R> {
    state: Mutex<WaveState<R>>,
    done: Condvar,
}

impl<R> Wave<R> {
    pub fn new(n: usize) -> Self {
        Self {
            state: Mutex::new(WaveState {
                slots: (0..n).map(|_| None).collect(),
                remaining: n,
                poisoned: 0,
            }),
            done: Condvar::new(),
        }
    }

    /// File a batch of slots under one lock acquisition — the consumer
    /// half of the batch discipline: a worker that drained k same-wave
    /// jobs files their responses with one lock and (when the wave ends
    /// here) one wakeup instead of k of each. A `None` response marks a
    /// poisoned slot (the worker panicked mid-request); the wave still
    /// completes so the submitter is never wedged — [`Wave::wait`]
    /// surfaces the panic instead.
    pub fn complete_many(&self, entries: impl IntoIterator<Item = (usize, Option<R>)>) {
        let mut st = self.state.lock();
        for (idx, response) in entries {
            if response.is_none() {
                st.poisoned += 1;
            }
            st.slots[idx] = response;
            st.remaining = st.remaining.saturating_sub(1);
        }
        let all_done = st.remaining == 0;
        drop(st);
        if all_done {
            self.done.notify_all();
        }
    }

    /// Block until every slot is filed, then take the responses in
    /// submission order. Panics if any slot was poisoned — the same
    /// contract as `Ticket::wait` on the per-request channel path.
    pub fn wait(&self) -> Vec<R> {
        let mut st = self.state.lock();
        while st.remaining > 0 {
            self.done.wait(&mut st);
        }
        assert!(
            st.poisoned == 0,
            "planning worker dropped {} request(s) mid-wave (it panicked — see stderr)",
            st.poisoned
        );
        st.slots.iter_mut().map(|s| s.take()).collect::<Option<Vec<R>>>().unwrap_or_default()
    }

    /// Non-blocking completion probe: `None` while responses are
    /// outstanding. Panics on a poisoned slot, mirroring [`Wave::wait`].
    #[cfg(test)]
    pub fn try_take(&self) -> Option<Vec<R>> {
        let mut st = self.state.lock();
        if st.remaining > 0 {
            return None;
        }
        assert!(
            st.poisoned == 0,
            "planning worker dropped {} request(s) mid-wave (it panicked — see stderr)",
            st.poisoned
        );
        st.slots.iter_mut().map(|s| s.take()).collect::<Option<Vec<R>>>()
    }
}

/// Per-shard readiness: not ready as soon as *any* shard is over its
/// high-water mark — a saturated shard stalls every tenant hashed to it,
/// so a load balancer must shed before that queue grows.
///
/// Pure over `(depths, high_water)` so the 503 flip edge is unit-testable
/// without sockets; the engine's `/readyz` hook feeds live depths in.
pub fn shard_readiness(depths: &[usize], high_water: usize) -> Readiness {
    let over: Vec<usize> = (0..depths.len()).filter(|&s| depths[s] > high_water).collect();
    if depths.len() == 1 {
        // single-shard wording kept from the pre-scale-out engine, so
        // dashboards and probes grepping for "over high-water" still match
        let depth = depths[0];
        return if over.is_empty() {
            Readiness::ready(format!("queue depth {depth}"))
        } else {
            Readiness::not_ready(format!("queue depth {depth} over high-water {high_water}"))
        };
    }
    let total: usize = depths.iter().sum();
    if over.is_empty() {
        Readiness::ready(format!(
            "{} shards, total queue depth {total}, high-water {high_water}",
            depths.len()
        ))
    } else {
        let worst = over.iter().map(|&s| depths[s]).max().unwrap_or(0);
        Readiness::not_ready(format!(
            "{}/{} shards over high-water {high_water} (worst depth {worst}): shards {:?}",
            over.len(),
            depths.len(),
            over
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        for shards in [1usize, 2, 4, 16] {
            for i in 0..64 {
                let id = format!("tenant-{i}");
                let s = shard_of(&id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(&id, shards), "hash must be stable");
            }
        }
    }

    #[test]
    fn shard_of_spreads_synthetic_tenants() {
        let shards = 8;
        let mut counts = vec![0usize; shards];
        for i in 0..8000 {
            counts[shard_of(&format!("tenant-{i}"), shards)] += 1;
        }
        for (s, &n) in counts.iter().enumerate() {
            assert!(n > 500, "shard {s} starved with {n}/8000 tenants: {counts:?}");
        }
    }

    #[test]
    fn queue_drains_in_fifo_batches() {
        let q: ShardQueue<u32> = ShardQueue::new(0, 100);
        for i in 0..5 {
            q.push(i);
        }
        assert_eq!(q.depth(), 5);
        let mut out = Vec::new();
        assert!(q.recv_batch(&mut out));
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn try_push_refuses_over_high_water_with_backoff_hint() {
        let q: ShardQueue<u32> = ShardQueue::new(3, 2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        let (job, busy) = q.try_push(3).unwrap_err();
        assert_eq!(job, 3);
        assert_eq!(busy.shard, 3);
        assert_eq!(busy.depth, 2);
        assert_eq!(busy.high_water, 2);
        assert!(busy.retry_after_ms >= 50);
        // the trusted path still accepts
        q.push(3);
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn close_lets_the_worker_finish_then_exit() {
        let q: ShardQueue<u32> = ShardQueue::new(0, 100);
        q.push(7);
        q.close();
        let mut out = Vec::new();
        assert!(q.recv_batch(&mut out), "queued work is still delivered after close");
        assert_eq!(out, vec![7]);
        out.clear();
        assert!(!q.recv_batch(&mut out), "drained + closed ends the worker loop");
    }

    #[test]
    fn wave_completes_once_and_preserves_order() {
        let w: Wave<&'static str> = Wave::new(3);
        assert!(w.try_take().is_none());
        w.complete_many([(2, Some("c"))]);
        w.complete_many([(0, Some("a"))]);
        assert!(w.try_take().is_none());
        w.complete_many([(1, Some("b"))]);
        assert_eq!(w.wait(), vec!["a", "b", "c"]);
    }

    #[test]
    #[should_panic(expected = "panicked")]
    fn poisoned_wave_surfaces_the_worker_panic() {
        let w: Wave<&'static str> = Wave::new(2);
        w.complete_many([(0, Some("a"))]);
        w.complete_many([(1, None)]);
        let _ = w.wait();
    }

    #[test]
    fn readiness_flips_exactly_past_the_high_water_mark() {
        // the flip edge: depth == high_water is still ready (the mark is
        // "over", not "at"), depth == high_water + 1 is not
        let hw = 4;
        assert!(shard_readiness(&[hw], hw).ready);
        assert!(!shard_readiness(&[hw + 1], hw).ready);
        assert!(shard_readiness(&[0, hw, 0, hw], hw).ready);
        let flipped = shard_readiness(&[0, hw + 1, 0, hw], hw);
        assert!(!flipped.ready, "one shard over water must flip the whole engine");
        assert!(flipped.detail.contains("1/4 shards"), "{}", flipped.detail);
        assert!(flipped.detail.contains("[1]"), "{}", flipped.detail);
    }

    #[test]
    fn single_shard_readiness_keeps_the_legacy_wording() {
        let r = shard_readiness(&[131], 128);
        assert!(!r.ready);
        assert_eq!(r.detail, "queue depth 131 over high-water 128");
        assert_eq!(shard_readiness(&[3], 128).detail, "queue depth 3");
    }
}
