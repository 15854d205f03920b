//! Scale-out primitives of the engine: the tenant→shard hash,
//! the bounded per-shard job queue, the completion wave every reply is
//! filed into, and the per-shard readiness verdict.
//!
//! A shard is a *single-owner* slice of the engine: one worker thread owns
//! one shard's queue, plan/basis cache, metrics ledger and in-flight
//! slot, and every request for a tenant lands on the shard its
//! [`shard_of`] hash picks. The hot submit/complete path therefore touches
//! only shard-local locks, and the scale-out unit is a shard, not a lock.
//!
//! Two wakeup disciplines keep the path lean on top of the locality win:
//!
//! * **batch drain** — a worker takes every queued job in one lock
//!   acquisition (`ShardQueue::recv_batch`) and sleeps only when its
//!   queue is truly empty; submitters notify only on the empty→non-empty
//!   edge, so a burst of `n` submissions costs one wakeup, not `n`.
//! * **wave completion** — every reply lands in one slot of a `Wave` (a
//!   single submission is a one-slot wave), filed the moment its job
//!   finishes; the submitter blocks on the wave's condvar, signalled by
//!   the *last* completion only, so a burst of `n` completions also costs
//!   one wakeup.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

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
/// while the trusted in-process [`ShardQueue::push_batch`] path stays
/// infallible (its callers are submissions the engine itself paces).
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

    /// Enqueue unconditionally (the trusted in-process path): a whole
    /// wave's worth of jobs under one lock acquisition and at most one
    /// wakeup — the producer half of the batch discipline that makes a
    /// sharded submission cost O(shards) locks instead of O(jobs).
    pub fn push_batch(&self, jobs: impl IntoIterator<Item = T>) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
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
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
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
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while st.jobs.is_empty() {
            if st.closed {
                return false;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        out.extend(st.jobs.drain(..));
        true
    }

    /// Close the queue: the worker finishes what is queued, then exits.
    pub fn close(&self) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.closed = true;
        drop(st);
        self.ready.notify_all();
    }

    /// Requests pushed but not yet drained by the worker. (The engine's
    /// own saturation signals use the metrics ledger's depth instead,
    /// which also counts drained-but-unprocessed backlog.)
    #[cfg(test)]
    pub fn depth(&self) -> usize {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).jobs.len()
    }
}

struct WaveState<R> {
    slots: Vec<Option<R>>,
    remaining: usize,
    /// Slots whose worker panicked before producing a response.
    poisoned: usize,
}

impl<R> WaveState<R> {
    /// The filed responses in submission order, or the poisoned-slot
    /// count. Called once `remaining` is 0.
    fn take(&mut self) -> Result<Vec<R>, usize> {
        if self.poisoned > 0 {
            return Err(self.poisoned);
        }
        Ok(self.slots.iter_mut().filter_map(Option::take).collect())
    }
}

/// The engine's one completion primitive. Each job carries `(wave,
/// index)`; the worker files its response into the slot as soon as the
/// job finishes, and only the last completion signals the waiting
/// submitter. A single submission is a one-slot wave, so its reply wakes
/// its waiter at once.
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

    /// File slot `idx`. A `None` response marks a poisoned slot (the
    /// worker panicked mid-request); the wave still completes so the
    /// submitter is never wedged — [`Wave::wait`] reports the count.
    pub fn complete(&self, idx: usize, response: Option<R>) {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if response.is_none() {
            st.poisoned += 1;
        }
        st.slots[idx] = response;
        st.remaining = st.remaining.saturating_sub(1);
        let all_done = st.remaining == 0;
        drop(st);
        if all_done {
            self.done.notify_all();
        }
    }

    /// Block until every slot is filed, then take the responses in
    /// submission order — or `Err` with the number of poisoned slots.
    pub fn wait(&self) -> Result<Vec<R>, usize> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while st.remaining > 0 {
            st = self.done.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.take()
    }

    /// Non-blocking [`Wave::wait`]: `None` while responses are
    /// outstanding. The `/plan` intake polls a one-slot wave with it.
    pub fn try_take(&self) -> Option<Result<Vec<R>, usize>> {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        (st.remaining == 0).then(|| st.take())
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
pub(crate) mod tests {
    use super::*;

    /// Poison `m` the way a panicking worker would: panic while holding
    /// its guard. Every engine lock recovers the guard, so nothing past
    /// this point may behave differently.
    pub(crate) fn poison<T: Send>(m: &Mutex<T>) {
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = m.lock().unwrap_or_else(PoisonError::into_inner);
                panic!("poisoning the lock on purpose");
            });
            assert!(holder.join().is_err());
        });
        assert!(m.is_poisoned());
    }

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
        q.push_batch(0..3);
        q.push_batch([3]);
        q.push_batch([4]);
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
        q.push_batch([3]);
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn close_lets_the_worker_finish_then_exit() {
        let q: ShardQueue<u32> = ShardQueue::new(0, 100);
        q.push_batch([7]);
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
        w.complete(2, Some("c"));
        w.complete(0, Some("a"));
        assert!(w.try_take().is_none());
        w.complete(1, Some("b"));
        assert_eq!(w.wait(), Ok(vec!["a", "b", "c"]));
    }

    #[test]
    fn poisoned_wave_reports_its_poisoned_slots() {
        let w: Wave<&'static str> = Wave::new(3);
        w.complete(0, Some("a"));
        w.complete(1, None);
        assert!(w.try_take().is_none(), "a poisoned slot still counts as filed, not as done");
        w.complete(2, None);
        assert_eq!(w.try_take(), Some(Err(2)));
        assert_eq!(w.wait(), Err(2));
    }

    #[test]
    fn a_poisoned_queue_still_admits_drains_and_closes() {
        let q: ShardQueue<u32> = ShardQueue::new(1, 3);
        poison(&q.state);
        q.push_batch([1]);
        assert!(q.try_push(2).is_ok());
        q.push_batch([3]);
        let (job, busy) = q.try_push(4).unwrap_err();
        assert_eq!((job, busy.shard, busy.depth, busy.high_water), (4, 1, 3, 3));
        let mut out = Vec::new();
        assert!(q.recv_batch(&mut out));
        assert_eq!(out, [1, 2, 3]);
        // a consumer parked on the poisoned lock's condvar wakes for a push
        std::thread::scope(|s| {
            let consumer = s.spawn(|| {
                let mut got = Vec::new();
                assert!(q.recv_batch(&mut got));
                got
            });
            q.push_batch([5]);
            assert_eq!(consumer.join().unwrap(), [5]);
        });
        q.close();
        out.clear();
        assert!(!q.recv_batch(&mut out), "drained + closed ends the worker loop");
    }

    #[test]
    fn a_poisoned_wave_still_completes_in_submission_order() {
        let w: Wave<&'static str> = Wave::new(3);
        poison(&w.state);
        std::thread::scope(|s| {
            let submitter = s.spawn(|| w.wait());
            w.complete(2, Some("c"));
            w.complete(0, Some("a"));
            w.complete(1, Some("b"));
            assert_eq!(submitter.join().unwrap(), Ok(vec!["a", "b", "c"]));
        });
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
