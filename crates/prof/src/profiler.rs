//! The sampling half: a background thread walking every lane's seqlocked
//! span stack at a fixed rate, folding consistent snapshots into a
//! collapsed-path histogram.
//!
//! What sampling can and cannot attribute: a sample charges the *whole
//! current path* one hit, so path counts divided by the rate estimate
//! total wall-clock per path (and, per frame, self time = hits on paths
//! where the frame is the leaf). It cannot see work that opens no span
//! (charged to the enclosing frame) nor spans shorter than a couple of
//! sample periods (they appear, but with high variance). Lanes whose
//! stack is mid-rewrite for a full retry budget are skipped for that
//! tick — a bias against extremely-frequent span churn, not against any
//! particular path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use rrp_trace::{SpanStacks, MAX_LANES};

/// Aggregation state shared between the sampler thread and its readers
/// (`/profile`, bundle dumps, the `/metrics` sync).
pub struct SamplerShared {
    stacks: Arc<SpanStacks>,
    stop: AtomicBool,
    samples_total: AtomicU64,
    /// Collapsed path (`"request;rung:full;milp"`) → sample hits. BTreeMap
    /// keeps `collapsed()` deterministic. Bounded by the span-name
    /// vocabulary (a handful of static names), not by traffic.
    paths: Mutex<BTreeMap<String, u64>>,
}

impl SamplerShared {
    /// Samples that found a non-empty stack, across all lanes.
    pub fn samples_total(&self) -> u64 {
        // relaxed-ok: monotonic telemetry counter, nothing gates on it
        self.samples_total.load(Ordering::Relaxed)
    }

    /// Number of distinct span paths observed so far.
    pub fn distinct_paths(&self) -> usize {
        crate::lock(&self.paths).len()
    }

    /// `(path, hits)` pairs in deterministic (path) order.
    pub fn entries(&self) -> Vec<(String, u64)> {
        crate::lock(&self.paths).iter().map(|(p, n)| (p.clone(), *n)).collect()
    }

    /// The standard collapsed-stack format: one `path count` line per
    /// observed path — ready for flamegraph tooling or `xtask prof`.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        for (path, n) in crate::lock(&self.paths).iter() {
            out.push_str(path);
            out.push(' ');
            out.push_str(&n.to_string());
            out.push('\n');
        }
        out
    }

    /// One sweep over all lanes (the sampler tick body; public so tests
    /// and zero-rate configurations can sample deterministically).
    pub fn sample_once(&self) {
        let mut ids = Vec::with_capacity(16);
        let mut key = String::with_capacity(64);
        for lane in 0..MAX_LANES as u32 {
            if !self.stacks.sample_into(lane, &mut ids) || ids.is_empty() {
                continue;
            }
            key.clear();
            for (i, name) in self.stacks.resolve(&ids).iter().enumerate() {
                if i > 0 {
                    key.push(';');
                }
                key.push_str(name);
            }
            *crate::lock(&self.paths).entry(key.clone()).or_insert(0) += 1;
            // relaxed-ok: telemetry counter
            self.samples_total.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Owns the sampler thread; stops and joins it on drop.
pub struct Profiler {
    shared: Arc<SamplerShared>,
    thread: Option<JoinHandle<()>>,
}

impl Profiler {
    /// Start sampling `stacks` at `sample_hz`. A zero rate builds the
    /// shared state but no thread ([`SamplerShared::sample_once`] can
    /// still be driven manually).
    pub fn start(stacks: Arc<SpanStacks>, sample_hz: u32) -> Self {
        let shared = Arc::new(SamplerShared {
            stacks,
            stop: AtomicBool::new(false),
            samples_total: AtomicU64::new(0),
            paths: Mutex::new(BTreeMap::new()),
        });
        let thread = (sample_hz > 0).then(|| {
            let shared = Arc::clone(&shared);
            let period = Duration::from_nanos(1_000_000_000 / u64::from(sample_hz));
            std::thread::Builder::new()
                .name("rrp-prof-sampler".to_string())
                .spawn(move || {
                    // relaxed-ok: stop flag; one extra tick is harmless and Drop joins regardless
                    while !shared.stop.load(Ordering::Relaxed) {
                        shared.sample_once();
                        std::thread::sleep(period);
                    }
                })
                .expect("spawn profiler sampler")
        });
        Self { shared, thread }
    }

    pub fn shared(&self) -> Arc<SamplerShared> {
        Arc::clone(&self.shared)
    }
}

impl Drop for Profiler {
    fn drop(&mut self) {
        // relaxed-ok: stop flag; the join below is the real synchronisation point
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_sampling_accumulates_collapsed_paths() {
        let stacks = Arc::new(SpanStacks::new());
        let prof = Profiler::start(Arc::clone(&stacks), 0);
        let shared = prof.shared();
        stacks.push(0, "request");
        stacks.push(0, "rung:full");
        stacks.push(3, "request");
        shared.sample_once();
        shared.sample_once();
        stacks.push(0, "milp");
        shared.sample_once();
        let collapsed = shared.collapsed();
        assert_eq!(
            collapsed, "request 3\nrequest;rung:full 2\nrequest;rung:full;milp 1\n",
            "{collapsed}"
        );
        assert_eq!(shared.samples_total(), 6);
        assert_eq!(shared.distinct_paths(), 3);
    }

    #[test]
    fn sampler_thread_observes_a_held_span() {
        let stacks = Arc::new(SpanStacks::new());
        stacks.push(1, "request");
        let prof = Profiler::start(Arc::clone(&stacks), 500);
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while prof.shared().samples_total() < 3 {
            assert!(std::time::Instant::now() < deadline, "sampler made no progress");
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(prof); // joins cleanly
        stacks.pop(1);
    }

    #[test]
    fn idle_stacks_produce_no_samples() {
        let prof = Profiler::start(Arc::new(SpanStacks::new()), 0);
        prof.shared().sample_once();
        assert_eq!(prof.shared().samples_total(), 0);
        assert!(prof.shared().collapsed().is_empty());
    }
}
