//! # rrp-prof — continuous profiling and post-mortem capture
//!
//! The third observability layer: `rrp-trace` records *what happened*,
//! `rrp-obs` *how much*; this crate attributes wall-clock to code paths
//! and captures state at the moment an SLO dies.
//!
//! **Sampling profiler** ([`Profiler`]): a sampler thread walks the
//! lock-free per-lane span stacks published by `rrp_trace::SpanStacks`
//! at a configurable rate (default 97 Hz — prime, so it cannot phase-lock
//! with millisecond-periodic work), accumulating sample counts per
//! collapsed span path (`request;rung:deterministic;milp`). The
//! instrumented workers pay only the seqlocked push/pop per span —
//! no allocation, no locks, no coordination with the sampler.
//!
//! **Flight recorder** ([`FlightRecorder`]): trigger detection over the
//! engine-owned [`FlightRing`] of recent lifecycle events. When a trigger
//! fires — deadline-miss spike, budget-exhaustion spike (both fed by the
//! engine's workers), `readyz` flip, panic, SLO burn rate, sim SLO
//! breach, or an explicit external cause — it dumps a post-mortem bundle
//! (JSON: cause, recent events, profiler samples, metrics snapshot,
//! in-flight request table, SLO status) into a configurable directory,
//! rendered by `cargo run -p xtask -- postmortem <bundle.json>`.
//!
//! Both halves hang off [`ProfConfig`], which the engine embeds as
//! `EngineConfig::prof`; it also sizes the ring.
//!
//! Every lock here recovers a poisoned guard: everything this crate
//! protects is observational (rings, histograms, providers), and a
//! panicking instrumented thread must not also wedge the post-mortem
//! machinery that exists to explain the panic.

mod flight;
mod profiler;

use std::path::PathBuf;

pub use flight::{install_panic_hook, FlightRecorder, FlightRing};
pub use profiler::{Profiler, SamplerShared};

/// Profiling and flight-recorder options (engine: `EngineConfig::prof`).
#[derive(Debug, Clone)]
pub struct ProfConfig {
    /// Sampler frequency. 0 disables the sampler thread (the flight
    /// recorder still runs; its bundles just carry no samples).
    pub sample_hz: u32,
    /// Flight-ring retention horizon (trace time): events older than this
    /// are pruned.
    pub ring_seconds: u64,
    /// Hard cap on ring occupancy (guards against event storms inside
    /// the retention window).
    pub ring_events: usize,
    /// Where post-mortem bundles land. `None` = triggers are tracked
    /// (cause, counters) but nothing is written to disk.
    pub bundle_dir: Option<PathBuf>,
    /// Fire `deadline_miss_spike` when this many deadline-missed
    /// requests complete within [`ProfConfig::spike_window_ms`]. 0 = off.
    pub deadline_miss_spike: u32,
    /// Sliding window for both spike triggers.
    pub spike_window_ms: u64,
    /// Fire `budget_exhaustion` when this many `exhausted:*` ladder
    /// rungs land within the window. 0 = off.
    pub budget_exhaustion_spike: u32,
    /// Debounce: a fired trigger suppresses further dumps for this long,
    /// so one incident produces one bundle, not a bundle per symptom.
    pub min_dump_interval_ms: u64,
    /// Chain a process-wide panic hook that fires a `panic` trigger
    /// before the previous hook runs. Off by default (it is global
    /// state, so embedders opt in).
    pub panic_hook: bool,
}

impl Default for ProfConfig {
    fn default() -> Self {
        Self {
            sample_hz: 97,
            ring_seconds: 30,
            ring_events: 16_384,
            bundle_dir: None,
            deadline_miss_spike: 16,
            spike_window_ms: 5_000,
            budget_exhaustion_spike: 64,
            min_dump_interval_ms: 30_000,
            panic_hook: false,
        }
    }
}
