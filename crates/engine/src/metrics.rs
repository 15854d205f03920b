//! Engine observability: the per-shard request ledger — lock-light
//! counters updated on the worker hot path; on SLO engines each tenant row
//! also carries the tenant's SLO ledger. A scrape reads it with one fold
//! (`Fold::of`): each shard is visited once, its cache stats read under the
//! cache's own locks and its tenant lock taken once, never while another
//! lock is held. Every scrape-time body renders from that fold: the
//! serialisable point-in-time snapshot (`/snapshot`), the `/metrics` body
//! ([`Exposition`], rendered afresh per scrape), the `/slo` view and the
//! flight bundle's `metrics` and `slo` sections, which therefore agree.
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
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use rrp_obs::{Exposition, SloFold, SloLog, SloView, TenantSlo};
use rrp_trace::{CounterSink, LogHistogram, PruneReason, SOLVE_STATUSES};
use serde::Serialize;

use crate::request::{DegradationLevel, TraceEntry};
use crate::service::{ShardState, Shared};

/// Cap on distinct tenants tracked in each shard's tenant table. Requests
/// from tenants beyond the cap fold into one [`TENANT_OVERFLOW`] row — the
/// same bounded-cardinality discipline the `/metrics` families apply, so a
/// flood of unique tenant ids cannot grow either without bound. The one
/// table serves `/snapshot`, `/metrics` and `/slo` alike.
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

/// One tenant's row in a shard's table.
#[derive(Default)]
pub(crate) struct TenantRow {
    requests: u64,
    cache_hits: u64,
    audit_rejections: u64,
    deadline_misses: u64,
    /// The tenant's SLO ledger (engines built with `EngineConfig::slo`).
    slo: Option<Box<TenantSlo>>,
}

impl TenantRow {
    /// Account one completed response.
    pub fn count(&mut self, cache_hit: bool, rejected: bool, deadline_met: bool) {
        self.requests += 1;
        self.cache_hits += u64::from(cache_hit);
        self.audit_rejections += u64::from(rejected);
        self.deadline_misses += u64::from(!deadline_met);
    }

    pub fn slo(&mut self) -> &mut TenantSlo {
        self.slo.get_or_insert_default()
    }
}

/// One shard's tenant rows plus, on SLO engines, its exemplar/alert log.
#[derive(Default)]
struct TenantTable {
    rows: HashMap<String, TenantRow>,
    slo: SloLog,
}

/// Point-in-time view of the engine's counters. Serialisable so it can be
/// scraped/shipped as JSON.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
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
    /// Pre-solve feasibility-gate runs (one per cache-missing request).
    pub audits: u64,
    /// Requests the gate rejected with a capacity shortfall: no plan can
    /// cover their demand (counted in `completed`, but in no ladder level).
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
    /// Events the engine's trace pipeline discarded under pressure: the
    /// cap evictions of its [`rrp_obs::FlightRing`] plus whatever an
    /// external sink (e.g. a full [`rrp_trace::RingSink`]) reports; 0 when
    /// tracing is off or lossless.
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
/// atomic, including the latency histogram buckets, except the tenant
/// table's one short lock.
#[derive(Default)]
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
    tenants: Mutex<TenantTable>,
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

    /// One pre-solve feasibility-gate run.
    pub fn record_audit(&self) {
        self.audits.fetch_add(1, Ordering::Relaxed);
    }

    /// A request the gate rejected as provably infeasible: the
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

    /// Run `f` on `tenant`'s row and the shard's SLO log under the tenant
    /// table's one short lock — distinct from [`Metrics::record`] so the
    /// global counters stay atomics. `f` gets the row's key: the tenant, or
    /// [`TENANT_OVERFLOW`] once the table is full.
    pub fn with_row<R>(
        &self,
        tenant: &str,
        f: impl FnOnce(&str, &mut TenantRow, &mut SloLog) -> R,
    ) -> R {
        let mut table = self.tenants.lock().unwrap_or_else(PoisonError::into_inner);
        let TenantTable { rows, slo } = &mut *table;
        // known tenants take the no-alloc path: `get_mut` by `&str` instead
        // of `entry(String)`, which would build a key String per call
        if let Some(row) = rows.get_mut(tenant) {
            return f(tenant, row, slo);
        }
        let key = if rows.len() < TENANT_TABLE_CAP { tenant } else { TENANT_OVERFLOW };
        // the overflow row is hit once per request past the cap — reuse the
        // same no-alloc path before falling through to the one-time insert
        if let Some(row) = rows.get_mut(key) {
            return f(key, row, slo);
        }
        f(key, rows.entry(key.to_string()).or_default(), slo)
    }
}

/// One scrape's read of the engine (`Shared::fold`): the merged snapshot,
/// the merged latency ledgers, the cache stats and, on SLO engines, the
/// SLO view. Every scrape-time body renders from one.
pub(crate) struct Fold {
    pub snapshot: MetricsSnapshot,
    /// Request latencies, merged across shards.
    request: LatencyLedger,
    /// Rung latencies, merged across shards (indexed like
    /// [`DegradationLevel::ALL`]).
    rungs: [LatencyLedger; 4],
    /// Distinct fingerprints cached.
    pub cache_entries: usize,
    /// Problem shapes with a stored root basis.
    pub basis_entries: usize,
    /// Basis side-table hits over lookups; 0 before any lookup.
    pub basis_hit_rate: f64,
    /// `Some` when `slo_now_us` was.
    pub slo: Option<SloView>,
}

impl Fold {
    /// Visit every shard once. Each visit reads the shard's cache stats
    /// (under the cache's own locks), its atomics and latency ledgers, then
    /// takes its tenant lock once for the tenant counters and, when
    /// `slo_now_us` is set, the SLO rows and log folded at that trace time.
    /// Every lock is shard-local and none is held while another is taken.
    ///
    /// Merge semantics:
    /// * counters and histograms add (histograms bucket-wise, lossless);
    /// * hit rates are recomputed from the summed counts, not averaged;
    /// * `queue_depth_high_water` is the **sum of per-shard peaks** — an
    ///   upper bound on the true global peak, which is not derivable from
    ///   per-shard peaks alone (they need not be simultaneous). For one
    ///   shard it is exact;
    /// * a named tenant lives on its one `shard_of` shard, so only the
    ///   shards' [`TENANT_OVERFLOW`] rows meet, and they sum. The table is
    ///   bounded by `shards × TENANT_TABLE_CAP + 1` rows.
    pub fn of(
        shards: &[ShardState],
        solver: &CounterSink,
        trace_dropped_events: u64,
        slo_now_us: Option<u64>,
    ) -> Self {
        let mut snap = MetricsSnapshot::default();
        let request = LatencyLedger::default();
        let rungs: [LatencyLedger; 4] = Default::default();
        let (mut cache_entries, mut basis_entries) = (0, 0);
        let (mut basis_hits, mut basis_misses) = (0, 0);
        let mut level_counts = [0u64; 4];
        let mut slo = slo_now_us.map(SloFold::new);
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        for (shard, ShardState { metrics: m, cache, .. }) in shards.iter().enumerate() {
            cache_entries += cache.len();
            basis_entries += cache.basis_entries();
            basis_hits += cache.basis_hits();
            basis_misses += cache.basis_misses();
            snap.cache_hits += cache.hits();
            snap.cache_misses += cache.misses();
            let row = ShardSnapshot {
                shard,
                queue_depth: m.queue_depth.load(Ordering::Relaxed),
                queue_depth_high_water: m.queue_high_water.load(Ordering::Relaxed),
                completed: load(&m.completed),
                busy_rejections: load(&m.busy_rejections),
            };
            snap.completed += row.completed;
            snap.queue_depth += row.queue_depth;
            snap.queue_depth_high_water += row.queue_depth_high_water;
            snap.busy_rejections += row.busy_rejections;
            snap.shards.push(row);
            snap.deadline_misses += load(&m.deadline_misses);
            snap.audits += load(&m.audits);
            snap.audit_rejections += load(&m.audit_rejections);
            for (acc, c) in level_counts.iter_mut().zip(&m.level_counts) {
                *acc += load(c);
            }
            request.merge_from(&m.latencies);
            for (acc, rung) in rungs.iter().zip(&m.rung_latencies) {
                acc.merge_from(rung);
            }

            let table = m.tenants.lock().unwrap_or_else(PoisonError::into_inner);
            snap.tenants.extend(table.rows.iter().map(|(tenant, row)| TenantSnapshot {
                tenant: tenant.clone(),
                requests: row.requests,
                cache_hits: row.cache_hits,
                audit_rejections: row.audit_rejections,
                deadline_misses: row.deadline_misses,
            }));
            if let Some(slo) = &mut slo {
                let rows = table
                    .rows
                    .iter()
                    .filter_map(|(t, row)| Some((t.as_str(), row.slo.as_deref()?)));
                slo.add_shard(rows, &table.slo);
            }
        }
        snap.tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
        snap.tenants.dedup_by(|dup, kept| {
            let same = dup.tenant == kept.tenant;
            if same {
                kept.requests += dup.requests;
                kept.cache_hits += dup.cache_hits;
                kept.audit_rejections += dup.audit_rejections;
                kept.deadline_misses += dup.deadline_misses;
            }
            same
        });
        [
            snap.level_full,
            snap.level_deterministic,
            snap.level_dynamic_program,
            snap.level_on_demand_only,
        ] = level_counts;
        snap.cache_hit_rate = hit_rate(snap.cache_hits, snap.cache_misses);
        snap.p50_latency_ms = request.hist.quantile(0.50);
        snap.p99_latency_ms = request.hist.quantile(0.99);
        snap.milp_nodes_total = load(&solver.milp_nodes);
        snap.lp_iters_total = load(&solver.lp_iters);
        snap.gap_at_timeout_p50 = solver.gap_at_timeout.quantile(0.50);
        snap.trace_dropped_events = trace_dropped_events;
        Fold {
            snapshot: snap,
            request,
            rungs,
            cache_entries,
            basis_entries,
            basis_hit_rate: hit_rate(basis_hits, basis_misses),
            slo: slo.map(SloFold::finish),
        }
    }
}

/// `hits` over `hits + misses`; 0 before any lookup.
fn hit_rate(hits: u64, misses: u64) -> f64 {
    let lookups = hits + misses;
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// The `/metrics` body: one [`Fold`] of the engine's ledgers written into a
/// fresh [`Exposition`] and rendered — the per-shard request ledgers, the
/// solver-event ledger ([`CounterSink`]), and the SLO view and profiling
/// state when present. Nothing is kept between scrapes, so every series is
/// the ledgers' current value and a row that left a ledger leaves no series.
pub(crate) fn render_metrics(shared: &Shared) -> String {
    let fold = shared.fold();
    let snap = &fold.snapshot;
    let mut x = Exposition::default();
    for (name, help, value) in [
        ("rrp_completed_total", "Responses produced (cache hits included)", snap.completed),
        (
            "rrp_trace_dropped_events_total",
            "Trace events discarded under pressure by the engine's sink",
            snap.trace_dropped_events,
        ),
        ("rrp_audits_total", "Pre-solve feasibility-gate runs", snap.audits),
        (
            "rrp_deadline_misses_total",
            "Responses later than their deadline (all tenants)",
            snap.deadline_misses,
        ),
        (
            "rrp_busy_rejections_total",
            "Requests refused at admission (shard queue over high-water)",
            snap.busy_rejections,
        ),
    ] {
        x.counter(name, help, &[], value);
    }
    for (name, help, value) in [
        ("rrp_queue_depth", "Requests submitted but not yet picked up", snap.queue_depth as f64),
        (
            "rrp_queue_depth_high_water",
            "Highest queue depth observed since engine start",
            snap.queue_depth_high_water as f64,
        ),
        ("rrp_cache_hit_rate", "Warm-start cache hits over lookups", snap.cache_hit_rate),
        ("rrp_cache_entries", "Distinct fingerprints currently cached", fold.cache_entries as f64),
        (
            "rrp_basis_cache_hit_rate",
            "Root-basis warm-start hits over lookups",
            fold.basis_hit_rate,
        ),
        (
            "rrp_basis_cache_entries",
            "Problem shapes with a stored root basis",
            fold.basis_entries as f64,
        ),
        ("rrp_workers", "Engine worker threads", snap.shards.len() as f64),
        ("rrp_shards", "Engine state shards", snap.shards.len() as f64),
    ] {
        x.gauge(name, help, &[], value);
    }
    for shard in &snap.shards {
        let label = shard.shard.to_string();
        let labels: &[(&'static str, &str)] = &[("shard", label.as_str())];
        let depth = shard.queue_depth as f64;
        x.gauge("rrp_shard_queue_depth", "Unserved requests on this shard", labels, depth);
        let high_water = shard.queue_depth_high_water as f64;
        let help = "Highest queue depth this shard has seen";
        x.gauge("rrp_shard_queue_depth_high_water", help, labels, high_water);
        let help = "Responses produced by this shard";
        x.counter("rrp_shard_completed_total", help, labels, shard.completed);
        let help = "Requests this shard refused at admission";
        x.counter("rrp_shard_busy_rejections_total", help, labels, shard.busy_rejections);
    }
    for (rung, served) in [
        ("full", snap.level_full),
        ("deterministic", snap.level_deterministic),
        ("dynamic-program", snap.level_dynamic_program),
        ("on-demand-only", snap.level_on_demand_only),
    ] {
        let help = "Answers served, by degradation-ladder rung";
        x.counter("rrp_level_served_total", help, &[("rung", rung)], served);
    }
    write_request_ledger(&mut x, &fold);
    write_solver_ledger(&mut x, &shared.counters);
    if let Some(view) = &fold.slo {
        view.write_metrics(&mut x);
    }
    if let (Some(rt), Some(ring)) = (&shared.prof, &shared.ring) {
        let samples = rt.sampler.samples_total();
        x.counter("rrp_prof_samples_total", "Profiler stack samples accumulated", &[], samples);
        let paths = rt.sampler.distinct_paths() as f64;
        x.gauge("rrp_prof_distinct_paths", "Distinct span paths seen by the profiler", &[], paths);
        let dumps = rt.flight.dumps_fired();
        x.counter("rrp_flight_dumps_total", "Post-mortem bundles dumped", &[], dumps);
        let help = "Trace events held in the flight ring";
        x.gauge("rrp_flight_ring_events", help, &[], ring.len() as f64);
        let help = "Flight-ring events evicted by the hard cap";
        x.counter("rrp_flight_ring_dropped_total", help, &[], ring.dropped());
        // the cause taxonomy is closed, so every cause gets a series
        let last = rt.flight.last_trigger();
        for cause in [
            "deadline_miss_spike",
            "budget_exhaustion",
            "readyz_flip",
            "panic",
            "sim_slo_breach",
            "slo_burn_rate",
        ] {
            let help = "Most recent flight-recorder trigger, by cause (1 = latest)";
            let latest = u64::from(last.as_deref() == Some(cause)) as f64;
            x.gauge("rrp_flight_last_trigger", help, &[("cause", cause)], latest);
        }
    }
    x.render()
}

/// Per-tenant counters and latency summaries from the request ledgers.
/// Tenants are ranked by request volume, so a fold past the series cap
/// keeps the busiest tenants and sums the rest into `__other__`.
fn write_request_ledger(x: &mut Exposition, fold: &Fold) {
    let mut ranked: Vec<&TenantSnapshot> = fold.snapshot.tenants.iter().collect();
    ranked.sort_by(|a, b| b.requests.cmp(&a.requests).then_with(|| a.tenant.cmp(&b.tenant)));
    let families: [(&'static str, &'static str, fn(&TenantSnapshot) -> u64); 4] = [
        ("rrp_requests_total", "Requests completed, per tenant", |t| t.requests),
        ("rrp_deadline_miss_total", "Responses later than their deadline, per tenant", |t| {
            t.deadline_misses
        }),
        (
            "rrp_audit_rejections_total",
            "Requests rejected by the feasibility gate, per tenant",
            |t| t.audit_rejections,
        ),
        ("rrp_cache_hits_total", "Requests answered from the warm-start cache, per tenant", |t| {
            t.cache_hits
        }),
    ];
    for (name, help, count) in families {
        let rows: Vec<(&str, u64)> =
            ranked.iter().map(|t| (t.tenant.as_str(), count(t))).filter(|&(_, n)| n > 0).collect();
        x.counter_family(name, help, "tenant", &rows);
    }

    let (request, help) = (&fold.request, "Pickup-to-response latency (ms)");
    x.summary("rrp_request_latency_ms", help, &[], &request.hist, request.sum_ms());
    for (level, ledger) in DegradationLevel::ALL.into_iter().zip(&fold.rungs) {
        let help = "Wall-clock per degradation-ladder rung attempt (ms)";
        let labels = &[("rung", level.as_str())];
        x.summary("rrp_rung_latency_ms", help, labels, &ledger.hist, ledger.sum_ms());
    }
}

/// Branch & bound and LP counters from the solver-event ledger.
fn write_solver_ledger(x: &mut Exposition, c: &CounterSink) {
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    for (reason, n) in PruneReason::ALL.into_iter().zip(&c.nodes_pruned) {
        let help = "Branch & bound nodes closed without branching, by reason";
        x.counter("rrp_milp_nodes_pruned_total", help, &[("reason", reason.as_str())], load(n));
    }
    for (status, n) in SOLVE_STATUSES.into_iter().zip(&c.solves) {
        let help = "Branch & bound searches finished, by final status";
        x.counter("rrp_milp_solves_total", help, &[("status", status)], load(n));
    }
    for (name, help, n) in [
        ("rrp_milp_nodes_opened_total", "Branch & bound nodes opened", &c.milp_nodes),
        (
            "rrp_milp_nodes_integral_total",
            "Branch & bound nodes whose LP optimum was integral",
            &c.nodes_integral,
        ),
        ("rrp_milp_incumbents_total", "Incumbent improvements", &c.incumbents),
        ("rrp_lp_solves_total", "LP solves finished", &c.lp_solves),
        ("rrp_lp_iters_total", "Simplex iterations across all LP solves", &c.lp_iters),
        ("rrp_lp_refactorisations_total", "Basis (re)factorisations", &c.refactorisations),
    ] {
        x.counter(name, help, &[], load(n));
    }
    let help = "Relative gap of solves stopped by a budget";
    x.summary("rrp_milp_gap_at_timeout", help, &[], &c.gap_at_timeout, c.gap_at_timeout_sum());
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

    /// What a scrape of `shards` reads as `/snapshot` (no SLO view).
    fn snapshot(shards: &[ShardState], solver: &CounterSink, dropped: u64) -> MetricsSnapshot {
        Fold::of(shards, solver, dropped, None).snapshot
    }

    #[test]
    fn latency_quantiles_have_bounded_error() {
        let shard = [ShardState::new()];
        let m = &shard[0].metrics;
        for i in 1..=100 {
            m.record(DegradationLevel::Full, Duration::from_millis(i), true);
        }
        let snap = snapshot(&shard, &CounterSink::new(), 0);
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
        let shard = [ShardState::new()];
        let m = &shard[0].metrics;
        m.record(DegradationLevel::Full, Duration::from_millis(3), true);
        m.with_row("acme", |_, row, _| row.count(false, false, true));
        m.record(DegradationLevel::OnDemandOnly, Duration::from_millis(9), false);
        m.with_row("acme", |_, row, _| row.count(false, false, false));
        let snap = snapshot(&shard, &CounterSink::new(), 7);
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
        let shard = [ShardState::new()];
        let m = &shard[0].metrics;
        m.record_audit();
        m.record(DegradationLevel::Deterministic, Duration::from_millis(2), true);
        m.record_audit();
        m.record_rejection(Duration::from_micros(40), true);
        let snap = snapshot(&shard, &CounterSink::new(), 0);
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
        let shard = [ShardState::new()];
        let solver = CounterSink::new();
        let ev = |kind| Event { t_us: 0, worker: 0, span: SpanId::ROOT, kind };
        solver.emit(&ev(EventKind::NodeOpened { id: 1, depth: 0, bound: 0.0 }));
        solver.emit(&ev(EventKind::LpSolved { iters: 17, status: "optimal", warm: true }));
        solver.emit(&ev(EventKind::SolveDone {
            status: "terminated:deadline",
            nodes: 1,
            gap: 0.5,
        }));
        let snap = snapshot(&shard, &solver, 0);
        assert_eq!(snap.milp_nodes_total, 1);
        assert_eq!(snap.lp_iters_total, 17);
        assert!((snap.gap_at_timeout_p50 - 0.5).abs() / 0.5 <= 0.0906);
    }

    #[test]
    fn queue_high_water_tracks_the_peak() {
        let shard = [ShardState::new()];
        let m = &shard[0].metrics;
        for _ in 0..5 {
            m.enqueue();
        }
        for _ in 0..5 {
            m.dequeue();
        }
        m.enqueue();
        let snap = snapshot(&shard, &CounterSink::new(), 0);
        assert_eq!(snap.queue_depth, 1);
        assert_eq!(snap.queue_depth_high_water, 5);
    }

    #[test]
    fn merged_snapshot_sums_shards_and_keeps_per_shard_rows() {
        let shards = [ShardState::new(), ShardState::new()];
        let (m0, m1) = (&shards[0].metrics, &shards[1].metrics);
        m0.enqueue();
        // two fast completions in shard 0, one slow in shard 1: the merged
        // median sits strictly inside the fast bucket, away from the
        // nearest-rank rounding boundary a 1-vs-1 split would land on
        m0.record(DegradationLevel::Full, Duration::from_millis(5), true);
        m0.record(DegradationLevel::Full, Duration::from_millis(5), true);
        m0.with_row("a", |_, row, _| row.count(false, false, true));
        m0.with_row("a", |_, row, _| row.count(false, false, true));
        m0.dequeue();
        m1.enqueue();
        m1.enqueue();
        m1.record(DegradationLevel::Deterministic, Duration::from_millis(50), false);
        m1.with_row("b", |_, row, _| row.count(false, false, false));
        m1.record_busy();
        m1.dequeue();
        let snap = snapshot(&shards, &CounterSink::new(), 0);
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
        let shard = [ShardState::new()];
        let m = &shard[0].metrics;
        for i in 0..TENANT_TABLE_CAP + 10 {
            m.with_row(&format!("tenant-{i:03}"), |_, row, _| row.count(false, false, true));
        }
        // known tenants keep their own rows even after the cap is reached
        m.with_row("tenant-000", |_, row, _| row.count(true, false, true));
        let snap = snapshot(&shard, &CounterSink::new(), 0);
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

    /// Compare `got` with the pinned file `tests/golden/<name>`;
    /// `UPDATE_GOLDEN=1` rewrites the pin instead.
    fn assert_golden(name: &str, got: &str) {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name);
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, got).expect("write golden pin");
        }
        let want = std::fs::read_to_string(&path)
            .expect("golden pin missing; regenerate with UPDATE_GOLDEN=1");
        assert_eq!(got, want, "`{name}` drifted from its golden pin");
    }

    /// Value-level pin of the `/metrics`, `/snapshot` and `/slo` bodies
    /// (`/slo` with its `now_us` stamp masked), byte for byte, as served by a two-shard `metrics` + `slo` engine whose
    /// ledgers are fed by hand with fixed values: latencies, rung timings,
    /// plan- and basis-cache hits and misses, gate runs and a rejection, a
    /// busy refusal, solver events, and more than [`TENANT_TABLE_CAP`]
    /// tenants per shard, so each shard folds an `__other__` row. The SLO
    /// rows are fed at fixed trace times, and every window reaches back to
    /// time zero while the test runs, so the scrape clock moves no value.
    /// `tests/golden/metrics_families.txt` pins the family headers; this
    /// pins every sample.
    #[test]
    fn scrape_bodies_match_the_value_pins() {
        use std::sync::Arc;

        use rrp_milp::Basis;
        use rrp_obs::{http_request, Done, SloConfig};
        use rrp_trace::{Event, EventKind, Sink, SpanId};

        use crate::cache::CacheEntry;
        use crate::request::RungOutcome;
        use crate::service::{Engine, EngineConfig, MetricsConfig};

        let engine = Engine::with_config(
            2,
            EngineConfig {
                metrics: Some(MetricsConfig { addr: Some("127.0.0.1:0".into()) }),
                slo: Some(SloConfig::default()),
                ..Default::default()
            },
        );
        let shared = &engine.shared;
        let cfg = SloConfig::default();
        let entry = |objective: f64| CacheEntry {
            plan: rrp_core::RentalPlan {
                alpha: vec![objective],
                beta: vec![0.0],
                chi: vec![true],
                objective,
                breakdown: Default::default(),
            },
            degradation: DegradationLevel::Full,
        };
        let mut request_id = 0u64;
        for (s, shard) in shared.shards.iter().enumerate() {
            let (m, cache) = (&shard.metrics, &shard.cache);
            for _ in 0..3 + s {
                m.enqueue();
            }
            m.dequeue();
            m.dequeue();
            for i in 0..10u64 {
                let level = DegradationLevel::ALL[(i as usize + s) % 4];
                let latency = Duration::from_micros(500 + 1_300 * i + 7_000 * s as u64);
                m.record(level, latency, i % 3 != 0);
                // the ladder's attempts down to the serving rung
                let trace: Vec<TraceEntry> = (0..=level_index(level))
                    .map(|r| TraceEntry {
                        level: DegradationLevel::ALL[r],
                        outcome: RungOutcome::Solved,
                        elapsed: Duration::from_micros(200 + 900 * (r as u64 + i)),
                    })
                    .collect();
                m.record_rungs(&trace);
            }
            for _ in 0..4 {
                m.record_audit();
            }
            if s == 0 {
                m.record_rejection(Duration::from_micros(80), true);
            } else {
                m.record_busy();
            }
            cache.insert(10 + s as u64, entry(1.5));
            for _ in 0..2 + s {
                assert!(cache.lookup(10 + s as u64).is_some());
            }
            assert!(cache.lookup(99).is_none());
            cache.insert_basis(7, Arc::new(Basis { columns: Vec::new(), status: Vec::new() }));
            assert!(cache.lookup_basis(7).is_some());
            for _ in 0..1 + s {
                assert!(cache.lookup_basis(8).is_none());
            }
            for t in 0..TENANT_TABLE_CAP + 3 + s {
                let tenant =
                    if t == 1 { format!("s{s}-\"quoted\"") } else { format!("s{s}-t{t:02}") };
                for k in 0..(t % 4) as u64 + 1 {
                    request_id += 1;
                    let deadline_met = !(t as u64 + k).is_multiple_of(5);
                    let latency_us = 1_000 + 37_000 * ((t as u64 + k) % 9);
                    let t_us = 1_000 * request_id;
                    m.with_row(&tenant, |key, row, log| {
                        row.count(t % 3 == 0, t == 5, deadline_met);
                        let (level, outcome) = ("full", "ok");
                        let done = Done {
                            request_id,
                            tenant: &tenant,
                            level,
                            outcome,
                            latency_us,
                            deadline_met,
                            t_us,
                        };
                        log.record_request(&cfg, key, row.slo(), &done, |_| (Vec::new(), 0))
                    });
                }
            }
        }
        let ev = |kind| Event { t_us: 0, worker: 0, span: SpanId::ROOT, kind };
        for id in 0..3 {
            shared.counters.emit(&ev(EventKind::NodeOpened { id, depth: 0, bound: 0.0 }));
        }
        shared.counters.emit(&ev(EventKind::LpSolved { iters: 17, status: "optimal", warm: true }));
        let done = EventKind::SolveDone { status: "terminated:deadline", nodes: 3, gap: 0.25 };
        shared.counters.emit(&ev(done));

        let addr = engine.metrics_addr().expect("metrics server bound");
        let (code, _, metrics) = http_request(addr, "GET", "/metrics", None).expect("scrape");
        assert_eq!(code, 200);
        let (code, _, snapshot) = http_request(addr, "GET", "/snapshot", None).expect("snapshot");
        assert_eq!(code, 200);
        assert!(metrics.contains("rrp_requests_total{tenant=\"__other__\"}"), "{metrics}");
        let (code, _, slo) = http_request(addr, "GET", "/slo", None).expect("slo");
        assert_eq!(code, 200);
        // the one clock-dependent field: the scrape's trace time
        let (head, rest) = slo.split_once("\"now_us\":").expect("slo body stamps now_us");
        let slo = format!("{head}\"now_us\":0{}", &rest[rest.find(',').expect("field ends")..]);
        assert_golden("value_pin_metrics.txt", &metrics);
        assert_golden("value_pin_snapshot.json", &snapshot);
        assert_golden("value_pin_slo.json", &slo);
        assert_eq!(engine.render_metrics().as_deref(), Some(metrics.as_str()));
    }
}
