//! Engine observability: the per-shard request ledger — lock-light
//! counters updated on the worker hot path — read at scrape time into a
//! serialisable point-in-time snapshot and the `/metrics` registry.
//!
//! Latencies land in a fixed-size log-scale histogram
//! ([`rrp_trace::LogHistogram`]): constant memory however long the engine
//! runs, lock-free recording, and quantile answers whose relative error is
//! bounded by `2^(1/8) − 1 ≈ 9.05%` (each answer is the geometric midpoint
//! of a bucket growing by `2^(1/4)` per step). The previous design kept
//! every latency in a `Mutex<Vec<Duration>>`, which grew without bound and
//! sorted the whole vector on every snapshot.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;
use rrp_trace::{CounterSink, LogHistogram};
use serde::Serialize;

use crate::cache::PlanCache;
use crate::request::{DegradationLevel, TraceEntry};

/// Cap on distinct tenants tracked in the per-tenant table. Requests from
/// tenants beyond the cap fold into one [`TENANT_OVERFLOW`] row — the same
/// bounded-cardinality discipline the metrics registry applies, so a flood
/// of unique tenant ids cannot grow either without bound.
pub const TENANT_TABLE_CAP: usize = 64;

/// Name of the fold-in row for tenants past [`TENANT_TABLE_CAP`].
pub const TENANT_OVERFLOW: &str = "__other__";

/// One shard's row in [`MetricsSnapshot::shards`]: the per-shard view of
/// the queue and completion counters, so saturation of a single shard is
/// visible even when the merged totals look healthy.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ShardSnapshot {
    pub shard: usize,
    /// Requests submitted to this shard but not yet picked up.
    pub queue_depth: usize,
    /// Highest depth this shard's queue has reached since engine start.
    pub queue_depth_high_water: usize,
    /// Responses this shard has produced.
    pub completed: u64,
    /// Requests this shard refused at admission (429 Busy).
    pub busy_rejections: u64,
}

/// One tenant's row in [`MetricsSnapshot::tenants`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TenantSnapshot {
    pub tenant: String,
    /// Responses produced for this tenant (cache hits and rejections
    /// included).
    pub requests: u64,
    pub cache_hits: u64,
    pub audit_rejections: u64,
    pub deadline_misses: u64,
}

#[derive(Debug, Default, Clone)]
struct TenantCounters {
    requests: u64,
    cache_hits: u64,
    audit_rejections: u64,
    deadline_misses: u64,
}

/// Point-in-time view of the engine's counters. Serialisable so it can be
/// scraped/shipped as JSON.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MetricsSnapshot {
    /// Responses produced (cache hits included).
    pub completed: u64,
    /// Requests submitted but not yet picked up by a worker.
    pub queue_depth: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Hits over total lookups; 0 before any lookup.
    pub cache_hit_rate: f64,
    /// Answers served from the full (requested-policy) rung.
    pub level_full: u64,
    pub level_deterministic: u64,
    pub level_dynamic_program: u64,
    pub level_on_demand_only: u64,
    /// Responses whose latency exceeded the request deadline.
    pub deadline_misses: u64,
    /// Pre-solve audit-gate runs (one per cache-missing request).
    pub audits: u64,
    /// Requests rejected by the audit gate with a static infeasibility
    /// proof (counted in `completed`, but in no ladder level).
    pub audit_rejections: u64,
    /// Requests refused at admission because their shard's queue was over
    /// its high-water mark (`429 Busy`). Not counted in `completed` — no
    /// response was produced.
    pub busy_rejections: u64,
    /// Median response latency (log-bucket estimate, ≤ ~9.05% rel. error).
    pub p50_latency_ms: f64,
    /// Tail response latency (same error bound).
    pub p99_latency_ms: f64,
    /// Branch & bound nodes opened across all solves — from the engine's
    /// solver-event counters; 0 when solver telemetry is off.
    pub milp_nodes_total: u64,
    /// Simplex iterations across all LP solves (same source and caveat).
    pub lp_iters_total: u64,
    /// Median relative gap of solves that stopped on a budget
    /// (`terminated:*`) holding an incumbent; 0 when none did or telemetry
    /// is off.
    pub gap_at_timeout_p50: f64,
    /// Highest queue depth observed since the engine started.
    pub queue_depth_high_water: usize,
    /// Events the engine's trace sink discarded under pressure (e.g. a
    /// full [`rrp_trace::RingSink`]); 0 when tracing is off or lossless.
    pub trace_dropped_events: u64,
    /// Per-tenant request accounting, sorted by tenant id. Bounded at
    /// [`TENANT_TABLE_CAP`] rows plus one [`TENANT_OVERFLOW`] row per
    /// shard (tenant ledgers are shard-local and merged at snapshot time).
    pub tenants: Vec<TenantSnapshot>,
    /// Per-shard queue/completion rows, one per engine shard (= worker).
    pub shards: Vec<ShardSnapshot>,
}

/// A latency distribution plus its exact sum — what a Prometheus summary
/// exposes — recorded lock-free on the response path.
#[derive(Debug, Default)]
pub(crate) struct LatencyLedger {
    /// Milliseconds, in fixed-size log buckets.
    pub hist: LogHistogram,
    sum_us: AtomicU64,
}

impl LatencyLedger {
    fn record(&self, latency: Duration) {
        self.hist.record(latency.as_secs_f64() * 1e3);
        self.sum_us.fetch_add(latency.as_micros() as u64, Ordering::Relaxed);
    }

    /// Fold `other` in (bucket-wise histogram add, summed sums).
    fn merge_from(&self, other: &LatencyLedger) {
        self.hist.merge_from(&other.hist);
        self.sum_us.fetch_add(other.sum_us.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    pub fn sum_ms(&self) -> f64 {
        self.sum_us.load(Ordering::Relaxed) as f64 / 1e3
    }
}

/// Internal mutable counters. Everything on the per-response path is an
/// atomic, including the latency histogram buckets.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    completed: AtomicU64,
    queue_depth: AtomicUsize,
    level_counts: [AtomicU64; 4],
    deadline_misses: AtomicU64,
    audits: AtomicU64,
    audit_rejections: AtomicU64,
    busy_rejections: AtomicU64,
    /// Response latencies.
    latencies: LatencyLedger,
    /// Wall-clock of every ladder rung attempt, indexed like
    /// [`DegradationLevel::ALL`].
    rung_latencies: [LatencyLedger; 4],
    queue_high_water: AtomicUsize,
    /// Per-tenant rows; one short lock per completed response, far off the
    /// solver hot path.
    tenants: Mutex<HashMap<String, TenantCounters>>,
}

impl Metrics {
    pub fn enqueue(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_high_water.fetch_max(depth, Ordering::Relaxed);
    }

    pub fn dequeue(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn record(&self, level: DegradationLevel, latency: Duration, deadline_met: bool) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        let idx = level_index(level);
        self.level_counts[idx].fetch_add(1, Ordering::Relaxed);
        if !deadline_met {
            self.deadline_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.latencies.record(latency);
    }

    /// Account each ladder rung attempt's wall-clock to its rung.
    pub fn record_rungs(&self, trace: &[TraceEntry]) {
        for step in trace {
            self.rung_latencies[level_index(step.level)].record(step.elapsed);
        }
    }

    /// One pre-solve audit-gate run.
    pub fn record_audit(&self) {
        self.audits.fetch_add(1, Ordering::Relaxed);
    }

    /// A request the audit gate rejected as provably infeasible: the
    /// response counts as completed, but no ladder level served it (the
    /// snapshot invariant is `Σ level_* == completed − audit_rejections`).
    pub fn record_rejection(&self, latency: Duration, deadline_met: bool) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.audit_rejections.fetch_add(1, Ordering::Relaxed);
        if !deadline_met {
            self.deadline_misses.fetch_add(1, Ordering::Relaxed);
        }
        self.latencies.record(latency);
    }

    /// A request refused at admission (shard queue over high-water). No
    /// response is produced, so `completed` does not move.
    pub fn record_busy(&self) {
        self.busy_rejections.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests submitted but not yet picked up by a worker, right now.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Account one completed response to its tenant. Distinct from
    /// [`Metrics::record`]/[`Metrics::record_rejection`] so the global
    /// counters stay atomics; this one takes a short lock.
    pub fn record_tenant(&self, tenant: &str, cache_hit: bool, rejected: bool, deadline_met: bool) {
        fn bump(row: &mut TenantCounters, cache_hit: bool, rejected: bool, deadline_met: bool) {
            row.requests += 1;
            if cache_hit {
                row.cache_hits += 1;
            }
            if rejected {
                row.audit_rejections += 1;
            }
            if !deadline_met {
                row.deadline_misses += 1;
            }
        }
        let mut tenants = self.tenants.lock();
        // known tenants take the no-alloc path: `get_mut` by `&str` instead
        // of `entry(String)`, which would build a key String per call
        if let Some(row) = tenants.get_mut(tenant) {
            bump(row, cache_hit, rejected, deadline_met);
            return;
        }
        let key = if tenants.len() < TENANT_TABLE_CAP { tenant } else { TENANT_OVERFLOW };
        // the overflow row is hit once per request past the cap — reuse the
        // same no-alloc path before falling through to the one-time insert
        if let Some(row) = tenants.get_mut(key) {
            bump(row, cache_hit, rejected, deadline_met);
            return;
        }
        bump(tenants.entry(key.to_string()).or_default(), cache_hit, rejected, deadline_met);
    }

    /// Single-ledger snapshot — [`merged_snapshot`] over one part. The
    /// engine always goes through the merging path; this is the
    /// test-facing convenience.
    #[cfg(test)]
    pub fn snapshot(
        &self,
        cache: &PlanCache,
        solver: &CounterSink,
        trace_dropped_events: u64,
    ) -> MetricsSnapshot {
        merged_snapshot(&[(self, cache)], solver, trace_dropped_events)
    }
}

/// Assemble one [`MetricsSnapshot`] over per-shard `(metrics, cache)`
/// ledgers. Each shard is read with only its own short locks — a scrape
/// never takes a lock any other shard's submit path contends on, so
/// snapshot assembly cannot stall planning. With one part this degenerates
/// to the pre-scale-out snapshot exactly (modulo the added `shards` row).
///
/// Merge semantics:
/// * counters and histograms add (histograms bucket-wise, lossless);
/// * `cache_hit_rate` is recomputed from the summed hit/lookup counts,
///   not averaged per shard;
/// * `queue_depth_high_water` is the **sum of per-shard peaks** — an
///   upper bound on the true global peak, which is not derivable from
///   per-shard peaks alone (they need not be simultaneous). For one
///   shard it is exact;
/// * tenant rows merge by id across shards (tenant→shard affinity means a
///   tenant normally has one home shard anyway), so the table is bounded
///   by `shards × (TENANT_TABLE_CAP + 1)` rows.
pub(crate) fn merged_snapshot(
    parts: &[(&Metrics, &PlanCache)],
    solver: &CounterSink,
    trace_dropped_events: u64,
) -> MetricsSnapshot {
    let latencies = LogHistogram::new();
    let mut tenant_acc: HashMap<String, TenantCounters> = HashMap::new();
    let mut shards = Vec::with_capacity(parts.len());
    let (mut completed, mut deadline_misses, mut audits) = (0u64, 0u64, 0u64);
    let (mut audit_rejections, mut busy_rejections) = (0u64, 0u64);
    let mut level_counts = [0u64; 4];
    let (mut queue_depth, mut high_water) = (0usize, 0usize);
    let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
    for (shard, (m, cache)) in parts.iter().enumerate() {
        let shard_completed = m.completed.load(Ordering::Relaxed);
        let shard_depth = m.queue_depth.load(Ordering::Relaxed);
        let shard_high_water = m.queue_high_water.load(Ordering::Relaxed);
        let shard_busy = m.busy_rejections.load(Ordering::Relaxed);
        completed += shard_completed;
        queue_depth += shard_depth;
        high_water += shard_high_water;
        busy_rejections += shard_busy;
        deadline_misses += m.deadline_misses.load(Ordering::Relaxed);
        audits += m.audits.load(Ordering::Relaxed);
        audit_rejections += m.audit_rejections.load(Ordering::Relaxed);
        for (acc, c) in level_counts.iter_mut().zip(&m.level_counts) {
            *acc += c.load(Ordering::Relaxed);
        }
        latencies.merge_from(&m.latencies.hist);
        cache_hits += cache.hits();
        cache_misses += cache.misses();
        for (tenant, c) in m.tenants.lock().iter() {
            let row = tenant_acc.entry(tenant.clone()).or_default();
            row.requests += c.requests;
            row.cache_hits += c.cache_hits;
            row.audit_rejections += c.audit_rejections;
            row.deadline_misses += c.deadline_misses;
        }
        shards.push(ShardSnapshot {
            shard,
            queue_depth: shard_depth,
            queue_depth_high_water: shard_high_water,
            completed: shard_completed,
            busy_rejections: shard_busy,
        });
    }
    let mut tenants: Vec<TenantSnapshot> = tenant_acc
        .into_iter()
        .map(|(tenant, c)| TenantSnapshot {
            tenant,
            requests: c.requests,
            cache_hits: c.cache_hits,
            audit_rejections: c.audit_rejections,
            deadline_misses: c.deadline_misses,
        })
        .collect();
    tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    let lookups = cache_hits + cache_misses;
    MetricsSnapshot {
        completed,
        queue_depth,
        cache_hits,
        cache_misses,
        cache_hit_rate: if lookups == 0 { 0.0 } else { cache_hits as f64 / lookups as f64 },
        level_full: level_counts[0],
        level_deterministic: level_counts[1],
        level_dynamic_program: level_counts[2],
        level_on_demand_only: level_counts[3],
        deadline_misses,
        audits,
        audit_rejections,
        busy_rejections,
        p50_latency_ms: latencies.quantile(0.50),
        p99_latency_ms: latencies.quantile(0.99),
        milp_nodes_total: solver.milp_nodes.load(Ordering::Relaxed),
        lp_iters_total: solver.lp_iters.load(Ordering::Relaxed),
        gap_at_timeout_p50: solver.gap_at_timeout.quantile(0.50),
        queue_depth_high_water: high_water,
        trace_dropped_events,
        tenants,
        shards,
    }
}

/// The request and per-rung latency ledgers merged across shards, for the
/// `/metrics` view (rungs indexed like [`DegradationLevel::ALL`]).
pub(crate) fn merged_latencies(parts: &[&Metrics]) -> (LatencyLedger, [LatencyLedger; 4]) {
    let request = LatencyLedger::default();
    let rungs: [LatencyLedger; 4] = Default::default();
    for m in parts {
        request.merge_from(&m.latencies);
        for (acc, rung) in rungs.iter().zip(&m.rung_latencies) {
            acc.merge_from(rung);
        }
    }
    (request, rungs)
}

/// Index of a level in `level_counts` (the order of
/// [`DegradationLevel::ALL`]); a total match, so no lookup can fail.
fn level_index(level: DegradationLevel) -> usize {
    match level {
        DegradationLevel::Full => 0,
        DegradationLevel::Deterministic => 1,
        DegradationLevel::DynamicProgram => 2,
        DegradationLevel::OnDemandOnly => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_quantiles_have_bounded_error() {
        let m = Metrics::default();
        for i in 1..=100 {
            m.record(DegradationLevel::Full, Duration::from_millis(i), true);
        }
        let snap = m.snapshot(&PlanCache::new(), &CounterSink::new(), 0);
        // exact nearest-rank p50 of 1..=100 ms is 51 ms, p99 is 100 ms;
        // the log-bucket answers must land within the documented 9.05%
        assert!((snap.p50_latency_ms - 51.0).abs() / 51.0 <= 0.0906, "p50 {}", snap.p50_latency_ms);
        assert!(
            (snap.p99_latency_ms - 100.0).abs() / 100.0 <= 0.0906,
            "p99 {}",
            snap.p99_latency_ms
        );
    }

    #[test]
    fn snapshot_serialises_to_json() {
        let m = Metrics::default();
        let cache = PlanCache::new();
        m.record(DegradationLevel::Full, Duration::from_millis(3), true);
        m.record_tenant("acme", false, false, true);
        m.record(DegradationLevel::OnDemandOnly, Duration::from_millis(9), false);
        m.record_tenant("acme", false, false, false);
        let snap = m.snapshot(&cache, &CounterSink::new(), 7);
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.level_full, 1);
        assert_eq!(snap.level_on_demand_only, 1);
        assert_eq!(snap.deadline_misses, 1);
        let json = serde_json::to_string(&snap).expect("snapshot serialises");
        assert!(json.contains("\"completed\""), "json: {json}");
        assert!(json.contains("\"p99_latency_ms\""), "json: {json}");
        assert!(json.contains("\"audit_rejections\""), "json: {json}");
        assert!(json.contains("\"milp_nodes_total\""), "json: {json}");
        assert!(json.contains("\"gap_at_timeout_p50\""), "json: {json}");
        assert!(json.contains("\"trace_dropped_events\":7"), "json: {json}");
        assert!(json.contains("\"queue_depth_high_water\""), "json: {json}");
        assert!(json.contains("\"tenants\":[{\"tenant\":\"acme\",\"requests\":2"), "json: {json}");
    }

    #[test]
    fn rejections_complete_without_a_level() {
        let m = Metrics::default();
        let cache = PlanCache::new();
        m.record_audit();
        m.record(DegradationLevel::Deterministic, Duration::from_millis(2), true);
        m.record_audit();
        m.record_rejection(Duration::from_micros(40), true);
        let snap = m.snapshot(&cache, &CounterSink::new(), 0);
        assert_eq!(snap.audits, 2);
        assert_eq!(snap.audit_rejections, 1);
        assert_eq!(snap.completed, 2);
        let levels = snap.level_full
            + snap.level_deterministic
            + snap.level_dynamic_program
            + snap.level_on_demand_only;
        assert_eq!(levels, snap.completed - snap.audit_rejections);
    }

    #[test]
    fn snapshot_reads_solver_counters() {
        use rrp_trace::{Event, EventKind, Sink, SpanId};
        let m = Metrics::default();
        let solver = CounterSink::new();
        let ev = |kind| Event { t_us: 0, worker: 0, span: SpanId::ROOT, kind };
        solver.emit(&ev(EventKind::NodeOpened { id: 1, depth: 0, bound: 0.0 }));
        solver.emit(&ev(EventKind::LpSolved { iters: 17, status: "optimal", warm: true }));
        solver.emit(&ev(EventKind::SolveDone {
            status: "terminated:deadline",
            nodes: 1,
            gap: 0.5,
        }));
        let snap = m.snapshot(&PlanCache::new(), &solver, 0);
        assert_eq!(snap.milp_nodes_total, 1);
        assert_eq!(snap.lp_iters_total, 17);
        assert!((snap.gap_at_timeout_p50 - 0.5).abs() / 0.5 <= 0.0906);
    }

    #[test]
    fn queue_high_water_tracks_the_peak() {
        let m = Metrics::default();
        for _ in 0..5 {
            m.enqueue();
        }
        for _ in 0..5 {
            m.dequeue();
        }
        m.enqueue();
        let snap = m.snapshot(&PlanCache::new(), &CounterSink::new(), 0);
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.queue_depth_high_water, 5);
    }

    #[test]
    fn merged_snapshot_sums_shards_and_keeps_per_shard_rows() {
        let (m0, m1) = (Metrics::default(), Metrics::default());
        let (c0, c1) = (PlanCache::new(), PlanCache::new());
        m0.enqueue();
        // two fast completions in shard 0, one slow in shard 1: the merged
        // median sits strictly inside the fast bucket, away from the
        // nearest-rank rounding boundary a 1-vs-1 split would land on
        m0.record(DegradationLevel::Full, Duration::from_millis(5), true);
        m0.record(DegradationLevel::Full, Duration::from_millis(5), true);
        m0.record_tenant("a", false, false, true);
        m0.record_tenant("a", false, false, true);
        m0.dequeue();
        m1.enqueue();
        m1.enqueue();
        m1.record(DegradationLevel::Deterministic, Duration::from_millis(50), false);
        m1.record_tenant("b", false, false, false);
        m1.record_busy();
        m1.dequeue();
        let snap = merged_snapshot(&[(&m0, &c0), (&m1, &c1)], &CounterSink::new(), 0);
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.queue_depth_high_water, 3, "sum of per-shard peaks (1 + 2)");
        assert_eq!(snap.deadline_misses, 1);
        assert_eq!(snap.busy_rejections, 1);
        assert_eq!(snap.level_full, 2);
        assert_eq!(snap.level_deterministic, 1);
        assert_eq!(snap.tenants.len(), 2);
        assert_eq!(snap.shards.len(), 2);
        assert_eq!(snap.shards[0].completed, 2);
        assert_eq!(snap.shards[1].queue_depth, 1);
        assert_eq!(snap.shards[1].busy_rejections, 1);
        // merged histogram covers both shards' samples
        assert!(snap.p99_latency_ms > 40.0, "p99 {}", snap.p99_latency_ms);
        assert!(snap.p50_latency_ms < 50.0, "p50 {}", snap.p50_latency_ms);
    }

    #[test]
    fn tenant_table_folds_overflow_into_other() {
        let m = Metrics::default();
        for i in 0..TENANT_TABLE_CAP + 10 {
            m.record_tenant(&format!("tenant-{i:03}"), false, false, true);
        }
        // known tenants keep their own rows even after the cap is reached
        m.record_tenant("tenant-000", true, false, true);
        let snap = m.snapshot(&PlanCache::new(), &CounterSink::new(), 0);
        assert_eq!(snap.tenants.len(), TENANT_TABLE_CAP + 1);
        let other =
            snap.tenants.iter().find(|t| t.tenant == TENANT_OVERFLOW).expect("overflow row exists");
        assert_eq!(other.requests, 10);
        let first = snap.tenants.iter().find(|t| t.tenant == "tenant-000").expect("kept row");
        assert_eq!(first.requests, 2);
        assert_eq!(first.cache_hits, 1);
        let total: u64 = snap.tenants.iter().map(|t| t.requests).sum();
        assert_eq!(total, TENANT_TABLE_CAP as u64 + 11);
    }
}
