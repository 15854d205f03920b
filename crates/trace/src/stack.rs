//! Lock-free per-lane span-stack snapshots for the sampling profiler.
//!
//! Each worker lane publishes its currently-open span path (the names of
//! the spans between the root and the innermost open span) into a fixed
//! slot guarded by a *seqlock*: the writer bumps a sequence counter to an
//! odd value, rewrites the frames, and bumps it back to even; a reader
//! that observes the same even value before and after copying the frames
//! holds a consistent snapshot, and retries (or gives up — sampling may
//! always skip a busy lane) otherwise. The writer never waits: push and
//! pop are a handful of uncontended atomic stores, no allocation, no
//! locks, so publishing costs the instrumented worker almost nothing even
//! with the sampler running hot.
//!
//! Frames hold interned name ids, not pointers — a torn read can at worst
//! mix ids from two valid stacks, and the seqlock validation discards
//! exactly those. Interning is lock-free on the hot path (an
//! open-addressed probe over published slots); only the *first* sighting
//! of a name takes a mutex, and the set of span names is a small static
//! vocabulary.
//!
//! Ordering argument (the data slots are deliberately `Relaxed`): the
//! writer's odd store is separated from the frame writes by a `Release`
//! fence and the final even store is itself `Release`; the reader loads
//! the sequence with `Acquire`, copies frames `Relaxed`, issues an
//! `Acquire` fence, and re-reads the sequence. If any frame read observed
//! a write from an in-flight update, the fences force the re-read to see
//! that writer's odd value, which fails validation. This is the classic
//! seqlock construction; the loom model in `tests/loom_stack.rs` checks
//! the interleavings and `rrp-lint`'s relaxed allowlist records the
//! argument.

use std::sync::atomic::{fence, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Number of publishable lanes. Lane indices wrap modulo this, so an
/// engine scaled past it aliases lanes rather than racing or panicking
/// (aliased lanes would interleave pushes from two writers — see
/// [`SpanStacks::push`] for why the engine keeps lanes distinct).
pub const MAX_LANES: usize = 64;

/// Deepest publishable span path. Deeper pushes still count depth (so the
/// matching pops stay symmetric) but the frames beyond the cap are not
/// recorded; the sampler sees a truncated-at-16 path.
pub const MAX_STACK_DEPTH: usize = 16;

/// Open-addressed name-intern table size (power of two).
const NAME_SLOTS: usize = 256;
/// Probe window before falling back to the mutex-guarded slow path.
const PROBE_LIMIT: usize = 16;
/// Seqlock read attempts before the sampler skips the lane.
const SAMPLE_RETRIES: usize = 8;

struct Lane {
    /// Seqlock sequence: even = stable, odd = write in flight.
    seq: AtomicU32,
    /// Logical depth (may exceed `MAX_STACK_DEPTH`; frames are capped).
    depth: AtomicU32,
    /// Interned name ids, root at index 0.
    frames: [AtomicU32; MAX_STACK_DEPTH],
}

impl Lane {
    fn new() -> Self {
        Self {
            seq: AtomicU32::new(0),
            depth: AtomicU32::new(0),
            frames: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }
}

struct NameSlot {
    /// `as_ptr()` of the interned `&'static str`; 0 = empty. Published
    /// last (`Release`) so a visible pointer implies `len`/`id` are set.
    ptr: AtomicUsize,
    len: AtomicUsize,
    id: AtomicU32,
}

/// Interns `&'static str` span names to dense non-zero `u32` ids so a
/// stack frame is a single atomic word. Lookups on already-seen names are
/// lock-free; first sightings serialise on a mutex (cold: the span-name
/// vocabulary is static and tiny). Two distinct statics with equal text
/// get distinct ids — harmless, they resolve to the same string.
struct NameTable {
    slots: [NameSlot; NAME_SLOTS],
    /// id - 1 indexes this list. Guards inserts; readers lock briefly.
    /// Push-only `&'static str`s, so a panic under the lock cannot leave
    /// it half-updated: every site recovers a poisoned guard rather than
    /// wedge every later intern (and the sampler).
    list: Mutex<Vec<&'static str>>,
}

impl NameTable {
    fn new() -> Self {
        Self {
            slots: std::array::from_fn(|_| NameSlot {
                ptr: AtomicUsize::new(0),
                len: AtomicUsize::new(0),
                id: AtomicU32::new(0),
            }),
            list: Mutex::new(Vec::new()),
        }
    }

    fn slot_of(ptr: usize, i: usize) -> usize {
        (ptr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32).wrapping_add(i) % NAME_SLOTS
    }

    fn intern(&self, name: &'static str) -> u32 {
        let (p, n) = (name.as_ptr() as usize, name.len());
        for i in 0..PROBE_LIMIT {
            let slot = &self.slots[Self::slot_of(p, i)];
            let sp = slot.ptr.load(Ordering::Acquire);
            if sp == p && slot.len.load(Ordering::Relaxed) == n {
                // relaxed-ok: the Acquire on ptr (stored last, Release)
                // ordered the len/id stores before this load
                return slot.id.load(Ordering::Relaxed);
            }
            if sp == 0 {
                break;
            }
        }
        self.intern_slow(name)
    }

    /// First sighting (or full probe window): serialise on the list lock,
    /// re-probe, then claim an empty slot — `ptr` stored last with
    /// `Release` so lock-free probers never see a half-built slot.
    fn intern_slow(&self, name: &'static str) -> u32 {
        let (p, n) = (name.as_ptr() as usize, name.len());
        let mut list = self.list.lock().unwrap_or_else(PoisonError::into_inner);
        for i in 0..PROBE_LIMIT {
            let slot = &self.slots[Self::slot_of(p, i)];
            let sp = slot.ptr.load(Ordering::Relaxed);
            if sp == p && slot.len.load(Ordering::Relaxed) == n {
                return slot.id.load(Ordering::Relaxed);
            }
            if sp == 0 {
                let id = (list.len() + 1) as u32;
                // the re-probe above returns any name already slotted, so
                // growth-ok: one entry per distinct `&'static str` span name
                list.push(name);
                slot.len.store(n, Ordering::Relaxed);
                slot.id.store(id, Ordering::Relaxed);
                slot.ptr.store(p, Ordering::Release);
                return id;
            }
        }
        // probe window exhausted: the list itself is the overflow table
        if let Some(pos) = list.iter().position(|s| s.as_ptr() as usize == p && s.len() == n) {
            return (pos + 1) as u32;
        }
        // the list scan above returns any name already listed, so
        // growth-ok: one entry per distinct `&'static str` span name
        list.push(name);
        list.len() as u32
    }

    fn name_of(&self, id: u32) -> Option<&'static str> {
        if id == 0 {
            return None;
        }
        self.list.lock().unwrap_or_else(PoisonError::into_inner).get(id as usize - 1).copied()
    }
}

/// The shared publication surface: one seqlocked stack per worker lane
/// plus the name-intern table. Writers are the instrumented worker
/// threads (each owns its lane — [`crate::set_worker`]); the single
/// reader is the profiler's sampler thread.
pub struct SpanStacks {
    lanes: Vec<Lane>,
    names: NameTable,
}

impl Default for SpanStacks {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanStacks {
    pub fn new() -> Self {
        Self { lanes: (0..MAX_LANES).map(|_| Lane::new()).collect(), names: NameTable::new() }
    }

    fn lane(&self, lane: u32) -> &Lane {
        &self.lanes[lane as usize % MAX_LANES]
    }

    /// Push `name` onto `lane`'s published stack. Single-writer per lane:
    /// only the thread that owns the lane (its current worker id) may
    /// push/pop, which the RAII guards in `handle.rs` enforce by
    /// construction — they pop on the thread (and lane) that pushed.
    pub fn push(&self, lane: u32, name: &'static str) {
        let id = self.names.intern(name);
        let l = self.lane(lane);
        // relaxed-ok: single writer per lane; the Release fence below and
        // the Release store publishing the even seq carry the ordering
        let s = l.seq.load(Ordering::Relaxed);
        l.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let d = l.depth.load(Ordering::Relaxed);
        if (d as usize) < MAX_STACK_DEPTH {
            l.frames[d as usize].store(id, Ordering::Relaxed);
        }
        l.depth.store(d.wrapping_add(1), Ordering::Relaxed);
        l.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Pop the innermost frame from `lane`. Underflow is ignored (a
    /// defensive guard — balanced guards never underflow).
    pub fn pop(&self, lane: u32) {
        let l = self.lane(lane);
        // relaxed-ok: same seqlock-writer argument as push
        let s = l.seq.load(Ordering::Relaxed);
        l.seq.store(s.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
        let d = l.depth.load(Ordering::Relaxed);
        if d > 0 {
            l.depth.store(d - 1, Ordering::Relaxed);
        }
        l.seq.store(s.wrapping_add(2), Ordering::Release);
    }

    /// Copy `lane`'s current stack (as interned ids, root first) into
    /// `out`. Returns `false` — leaving `out` empty — if the lane was
    /// being rewritten for all `SAMPLE_RETRIES` attempts; the sampler
    /// just skips the lane this tick. Never blocks the writer.
    pub fn sample_into(&self, lane: u32, out: &mut Vec<u32>) -> bool {
        let l = self.lane(lane);
        for _ in 0..SAMPLE_RETRIES {
            let s1 = l.seq.load(Ordering::Acquire);
            if s1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            out.clear();
            // relaxed-ok: frame loads are validated by the seq re-read
            // after the Acquire fence; torn copies are discarded
            let d = (l.depth.load(Ordering::Relaxed) as usize).min(MAX_STACK_DEPTH);
            for f in &l.frames[..d] {
                out.push(f.load(Ordering::Relaxed));
            }
            fence(Ordering::Acquire);
            if l.seq.load(Ordering::Relaxed) == s1 {
                return true;
            }
        }
        out.clear();
        false
    }

    /// Resolve interned ids back to names (unknown ids become `"?"`,
    /// which cannot happen for ids produced by [`SpanStacks::push`]).
    pub fn resolve(&self, ids: &[u32]) -> Vec<&'static str> {
        ids.iter().map(|&id| self.names.name_of(id).unwrap_or("?")).collect()
    }

    /// Current logical depth of `lane` (test/diagnostic helper).
    pub fn depth(&self, lane: u32) -> u32 {
        self.lane(lane).depth.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_roundtrip_samples_the_path() {
        let st = SpanStacks::new();
        st.push(3, "request");
        st.push(3, "rung:full");
        st.push(3, "milp");
        let mut ids = Vec::new();
        assert!(st.sample_into(3, &mut ids));
        assert_eq!(st.resolve(&ids), ["request", "rung:full", "milp"]);
        st.pop(3);
        assert!(st.sample_into(3, &mut ids));
        assert_eq!(st.resolve(&ids), ["request", "rung:full"]);
        st.pop(3);
        st.pop(3);
        assert!(st.sample_into(3, &mut ids));
        assert!(ids.is_empty());
    }

    #[test]
    fn idle_lane_samples_empty() {
        let st = SpanStacks::new();
        let mut ids = Vec::new();
        assert!(st.sample_into(0, &mut ids));
        assert!(ids.is_empty());
    }

    #[test]
    fn interning_is_stable_and_distinct() {
        let st = SpanStacks::new();
        st.push(0, "a");
        st.push(0, "b");
        st.push(1, "a");
        let (mut l0, mut l1) = (Vec::new(), Vec::new());
        assert!(st.sample_into(0, &mut l0));
        assert!(st.sample_into(1, &mut l1));
        assert_eq!(l0[0], l1[0], "same name interns to the same id");
        assert_ne!(l0[0], l0[1], "distinct names get distinct ids");
    }

    #[test]
    fn overflow_beyond_cap_truncates_but_stays_balanced() {
        let st = SpanStacks::new();
        for _ in 0..MAX_STACK_DEPTH + 4 {
            st.push(0, "deep");
        }
        assert_eq!(st.depth(0), (MAX_STACK_DEPTH + 4) as u32);
        let mut ids = Vec::new();
        assert!(st.sample_into(0, &mut ids));
        assert_eq!(ids.len(), MAX_STACK_DEPTH);
        for _ in 0..MAX_STACK_DEPTH + 4 {
            st.pop(0);
        }
        assert_eq!(st.depth(0), 0);
        // extra pops are ignored
        st.pop(0);
        assert_eq!(st.depth(0), 0);
    }

    #[test]
    fn lanes_alias_modulo_max() {
        let st = SpanStacks::new();
        st.push(MAX_LANES as u32 + 2, "x");
        let mut ids = Vec::new();
        assert!(st.sample_into(2, &mut ids));
        assert_eq!(st.resolve(&ids), ["x"]);
    }

    #[test]
    fn many_names_survive_the_probe_window() {
        // force slow-path inserts well past NAME_SLOTS to exercise the
        // list-overflow fallback; leaked strs stand in for statics
        let st = SpanStacks::new();
        let mut ids = std::collections::HashSet::new();
        let mut names = Vec::new();
        for i in 0..NAME_SLOTS + 32 {
            let s: &'static str = Box::leak(format!("name{i}").into_boxed_str());
            names.push(s);
            st.push(0, s);
            st.pop(0);
            let id = st.names.intern(s);
            assert!(ids.insert(id), "duplicate id for fresh name {s}");
        }
        // re-interning every name is stable
        for (i, s) in names.iter().enumerate() {
            assert_eq!(st.names.name_of(st.names.intern(s)), Some(*s), "name {i}");
        }
    }
}
