//! The engine itself: a fixed pool of OS worker threads. No async runtime
//! — each request is CPU-bound MILP work, so plain threads are the right
//! shape.
//!
//! Tenant state (plan cache, basis side-table, metrics/SLO ledgers,
//! in-flight table) splits into one [`ShardState`] per worker, requests
//! hash to their tenant's shard ([`shard_of`]), and each worker exclusively
//! owns its shard: the hot submit/complete path touches only shard-local
//! locks. Per-shard queues are bounded by admission control
//! ([`Engine::try_submit`] refuses over the high-water mark with a [`Busy`]
//! carrying a `Retry-After` hint) and batch-drained, so a burst of `n`
//! submissions costs one worker wakeup; [`Engine::run_batch`] completes
//! through a [`Wave`], so a burst of `n` completions costs one submitter
//! wakeup. `Engine::new(1)` is the same machine with a single shard — the
//! oracle the `shard_equiv` test holds wider engines against.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use rrp_audit::{audit_milp_with, AuditOptions, UpperBoundHint};
use rrp_core::fingerprint::Fnv64;
use rrp_milp::{MilpOptions, SolveBudget};
use rrp_obs::{ObsHooks, ObsServer, PlanDecision, Readiness, Registry};
use rrp_prof::{install_panic_hook, FlightRecorder, ProfConfig, Profiler, SamplerShared};
use rrp_slo::{SloConfig, SloEngine};
use rrp_trace::json::escape_into;
use rrp_trace::{
    CounterSink, EventKind, PruneReason, Sink, SpanId, SpanStacks, TeeSink, TraceHandle,
    SOLVE_STATUSES,
};
use serde::Serialize;

use crate::cache::{CacheEntry, PlanCache};
use crate::ladder::{run_ladder_with, LadderConfig, PreparedDrrp};
use crate::metrics::{merged_latencies, merged_snapshot, Metrics, MetricsSnapshot, TenantSnapshot};
use crate::request::{DegradationLevel, PlanRequest, PlanResponse};
use crate::shard::{shard_of, shard_readiness, Busy, ShardQueue, Wave};
use crate::wire;

/// Engine construction options: MILP solver options plus telemetry wiring.
///
/// Telemetry is off by default — workers then pay one branch per emission
/// site and the solve path is unchanged. Attaching a `sink` (JSONL writer,
/// ring buffer, …) streams every request/ladder/solver event into it, with
/// an internal [`CounterSink`] always teed alongside so
/// [`MetricsSnapshot`] gains solver totals.
#[derive(Default)]
pub struct EngineConfig {
    /// Options every MILP rung runs with.
    pub milp: MilpOptions,
    /// External event sink. `None` leaves event streaming off.
    pub sink: Option<Arc<dyn Sink>>,
    /// Count solver events (nodes, LP iterations, gap-at-timeout) even
    /// without an external sink — the cost is one relaxed-atomic counter
    /// sink behind the full event pipeline.
    pub count_solver_events: bool,
    /// Pull-based metrics exposition ([`rrp_obs`]). `None` (the default)
    /// builds no registry and no server — the engine is exactly as before.
    /// `Some` builds a registry that each scrape syncs from the engine's
    /// request and solver ledgers (so it implies `count_solver_events`)
    /// and, when [`MetricsConfig::addr`] is set, serves `/metrics`,
    /// `/snapshot`, `/healthz`, `/readyz` and `/plan` on it.
    pub metrics: Option<MetricsConfig>,
    /// Continuous profiling + flight recorder ([`rrp_prof`]). `None` (the
    /// default) builds neither. `Some` publishes every worker's open-span
    /// path through the lock-free span stacks, starts the sampler thread
    /// (when `sample_hz > 0`), and tees an always-on [`FlightRecorder`]
    /// into the event pipeline whose triggers dump post-mortem bundles.
    /// With a metrics server, `/profile` and `/flight` come alive too.
    pub prof: Option<ProfConfig>,
    /// Per-tenant SLO accounting ([`rrp_slo`]). `None` (the default)
    /// builds no SLO engine. `Some` tees an [`SloEngine`] into the event
    /// pipeline (enabling tracing): rolling error budgets, multi-window
    /// burn-rate alerts, and tail-sampled request timelines. With a
    /// metrics server, `/slo` and the `rrp_slo_*` families come alive;
    /// with profiling, a burn-rate breach fires the `slo_burn_rate`
    /// flight trigger so the bundle carries the tenant's exemplars.
    pub slo: Option<SloConfig>,
    /// Per-shard queue options. The engine always runs one [`ShardState`] +
    /// bounded queue per worker with tenant→shard affinity by id hash;
    /// `None` (the default) means [`ShardConfig::default`].
    pub shard: Option<ShardConfig>,
}

/// Metrics exposition options (see [`EngineConfig::metrics`]).
#[derive(Debug, Clone, Default)]
pub struct MetricsConfig {
    /// Address to serve on, e.g. `"127.0.0.1:9184"` (`:0` picks an
    /// ephemeral port — read it back via [`Engine::metrics_addr`]).
    /// `None` keeps the registry without an HTTP server.
    pub addr: Option<String>,
}

/// Sharding options (see [`EngineConfig::shard`]). The shard count is the
/// worker count — each worker exclusively owns one shard.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Per-shard admission bound: [`Engine::try_submit`] (and the HTTP
    /// `/plan` intake) refuse with [`Busy`] once this many requests sit in
    /// the shard's queue, and `/readyz` flips 503 once a shard's unserved
    /// backlog exceeds it. The trusted in-process [`Engine::submit`] path
    /// is never refused.
    pub queue_high_water: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self { queue_high_water: 128 }
    }
}

/// Where a job's response goes: a per-request channel ([`Ticket`]) or one
/// slot of a batched [`Wave`].
enum ReplyTo {
    Channel(Sender<PlanResponse>),
    Wave { wave: Arc<Wave<PlanResponse>>, idx: usize },
}

struct Job {
    req: PlanRequest,
    reply: ReplyTo,
    /// The request's trace span, opened at submission.
    span: SpanId,
}

/// Profiling runtime, present when the engine was built with
/// [`EngineConfig::prof`]. The [`Profiler`] owns the sampler thread
/// (joined when the last `Arc<Shared>` drops); the recorder also sits
/// inside the trace pipeline as a sink.
struct ProfRuntime {
    _profiler: Profiler,
    sampler: Arc<SamplerShared>,
    flight: Arc<FlightRecorder>,
}

/// One row of the in-flight request table: what each worker is chewing on
/// right now, serialised into post-mortem bundles so a dump answers "what
/// was running when it died".
struct InflightEntry {
    /// Engine-assigned request id — the same id the request's
    /// `RequestDone` event carries, so the in-flight table, the flight
    /// ring and the SLO exemplar store agree on identity.
    request_id: u64,
    tenant: String,
    level: &'static str,
    deadline_ms: u64,
    started: Instant,
}

/// One shard's slice of tenant state. Exactly one worker thread owns each
/// slice, so every lock in here is shard-local: the submit/complete path
/// of one tenant never contends with another shard's.
struct ShardState {
    cache: PlanCache,
    metrics: Metrics,
    /// In-flight request table, maintained only while profiling is on
    /// (bounded by worker count: one entry per request being processed).
    inflight: Mutex<HashMap<u64, InflightEntry>>,
}

impl ShardState {
    fn new() -> Self {
        Self {
            cache: PlanCache::new(),
            metrics: Metrics::default(),
            inflight: Mutex::new(HashMap::new()),
        }
    }
}

struct Shared {
    /// One state slice per shard (= per worker).
    shards: Vec<ShardState>,
    opts: MilpOptions,
    trace: TraceHandle,
    /// The solver-event ledger behind [`MetricsSnapshot`] and `/metrics`;
    /// only fed while `trace` is enabled.
    counters: Arc<CounterSink>,
    /// The combined sink behind `trace` (counters, teed with the flight
    /// recorder, SLO engine and external sink when present) — kept so
    /// snapshots can report [`Sink::dropped_events`] without downcasting.
    /// `None` when tracing is off.
    event_sink: Option<Arc<dyn Sink>>,
    /// Metrics registry, synced from the ledgers at every scrape; `None`
    /// unless the engine was built with [`EngineConfig::metrics`].
    registry: Option<Arc<Registry>>,
    /// Profiler + flight recorder; `None` unless built with
    /// [`EngineConfig::prof`].
    prof: Option<ProfRuntime>,
    /// Per-tenant SLO engine; `None` unless built with
    /// [`EngineConfig::slo`]. Also teed into the trace pipeline as a sink.
    slo: Option<Arc<SloEngine>>,
    /// Engine-assigned request ids, stamped into every `RequestDone`
    /// event (and the in-flight table) whether or not profiling is on.
    next_request_id: AtomicU64,
}

/// Lock a mutex, recovering the guard from a poisoned lock (the in-flight
/// table is observational: a worker that panicked mid-insert must not
/// wedge post-mortem dumps for everyone else).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl Shared {
    fn snapshot(&self) -> MetricsSnapshot {
        let dropped = self.event_sink.as_ref().map(|s| s.dropped_events()).unwrap_or(0);
        let parts: Vec<(&Metrics, &PlanCache)> =
            self.shards.iter().map(|s| (&s.metrics, &s.cache)).collect();
        merged_snapshot(&parts, &self.counters, dropped)
    }

    fn cache_len(&self) -> usize {
        self.shards.iter().map(|s| s.cache.len()).sum()
    }

    fn basis_cache_entries(&self) -> usize {
        self.shards.iter().map(|s| s.cache.basis_entries()).sum()
    }

    fn basis_cache_hit_rate(&self) -> f64 {
        let hits: u64 = self.shards.iter().map(|s| s.cache.basis_hits()).sum();
        let misses: u64 = self.shards.iter().map(|s| s.cache.basis_misses()).sum();
        let lookups = hits + misses;
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        }
    }

    /// The merged in-flight table as a JSON array (bundle + `/flight`
    /// fodder). Each shard's table is read under its own short lock.
    fn inflight_json(&self) -> String {
        let mut rows: Vec<(u64, String, &'static str, u64, Instant)> = Vec::new();
        for shard in &self.shards {
            let table = lock(&shard.inflight);
            rows.extend(
                table
                    .values()
                    .map(|e| (e.request_id, e.tenant.clone(), e.level, e.deadline_ms, e.started)),
            );
        }
        rows.sort_by_key(|e| e.4);
        let mut out = String::with_capacity(64 * rows.len() + 2);
        out.push('[');
        for (i, (request_id, tenant, level, deadline_ms, started)) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"request_id\":{request_id},\"tenant\":\"");
            // tenant ids are caller-supplied: escape like any JSON string
            escape_into(&mut out, tenant);
            let _ = write!(
                out,
                "\",\"level\":\"{}\",\"deadline_ms\":{},\"running_ms\":{}",
                level,
                deadline_ms,
                started.elapsed().as_millis()
            );
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// RAII row in the in-flight table: inserted when a worker picks a
/// request up, removed on every exit path (panics included — the drop
/// runs during the worker's `catch_unwind`).
struct InflightGuard<'a> {
    state: &'a ShardState,
    id: Option<u64>,
}

impl<'a> InflightGuard<'a> {
    fn track(state: &'a ShardState, enabled: bool, req: &PlanRequest, request_id: u64) -> Self {
        if !enabled {
            return Self { state, id: None };
        }
        lock(&state.inflight).insert(
            request_id,
            InflightEntry {
                request_id,
                tenant: req.app_id.clone(),
                level: req.policy.start_level().as_str(),
                deadline_ms: req.deadline.as_millis() as u64,
                started: Instant::now(),
            },
        );
        Self { state, id: Some(request_id) }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            lock(&self.state.inflight).remove(&id);
        }
    }
}

/// Handle to one submitted request; [`Ticket::wait`] blocks for the
/// response.
pub struct Ticket {
    rx: Receiver<PlanResponse>,
}

impl Ticket {
    /// Block until the response arrives. Provably infeasible requests come
    /// back as audit rejections (`plan: None`), not panics; this only
    /// panics if the worker itself panicked (e.g. a malformed schedule
    /// failing validation) — the panic message is on that worker's stderr.
    pub fn wait(self) -> PlanResponse {
        self.rx.recv().expect("planning worker dropped the request (it panicked — see stderr)")
    }

    /// Non-blocking completion probe: `None` while the response is
    /// outstanding. Same panic contract as [`Ticket::wait`].
    pub fn try_wait(&self) -> Option<PlanResponse> {
        match self.rx.try_recv() {
            Ok(resp) => Some(resp),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                panic!("planning worker dropped the request (it panicked — see stderr)")
            }
        }
    }
}

/// A concurrent multi-tenant planning service. Submit [`PlanRequest`]s
/// from any thread; each of the `workers` OS threads drains its own shard
/// queue, running the degradation ladder under the request's deadline.
pub struct Engine {
    /// One bounded queue per shard, indexed like `Shared::shards`.
    queues: Arc<Vec<Arc<ShardQueue<Job>>>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    /// Raised first thing in `Drop`: `/readyz` answers 503 for the rest of
    /// the teardown so scrapers see the engine drain instead of vanish.
    shutting_down: Arc<AtomicBool>,
    obs: Option<ObsServer>,
}

impl Engine {
    /// An engine with `workers` threads and default MILP options.
    pub fn new(workers: usize) -> Self {
        Self::with_options(workers, MilpOptions::default())
    }

    /// An engine whose MILP rungs run with `opts` (gap, node limit,
    /// branching rule …).
    pub fn with_options(workers: usize, opts: MilpOptions) -> Self {
        Self::with_config(workers, EngineConfig { milp: opts, ..Default::default() })
    }

    /// An engine with full construction options, including telemetry.
    pub fn with_config(workers: usize, config: EngineConfig) -> Self {
        assert!(workers > 0, "engine needs at least one worker");
        let EngineConfig { milp: opts, sink, count_solver_events, metrics, prof, slo, shard } =
            config;
        let counters = Arc::new(CounterSink::new());
        let registry = metrics.as_ref().map(|_| Arc::new(Registry::new()));

        // profiling: span-stack publication + the always-on flight
        // recorder, which joins the event pipeline as one more sink
        let prof_parts = prof
            .as_ref()
            .map(|p| (Arc::new(SpanStacks::new()), Arc::new(FlightRecorder::new(p.clone()))));
        let stacks = prof_parts.as_ref().map(|(s, _)| Arc::clone(s));
        let flight = prof_parts.as_ref().map(|(_, f)| Arc::clone(f));

        // the event pipeline: counters always lead the tee; the flight
        // recorder, SLO engine and any external sink follow. Tracing turns
        // on if any consumer beyond the bare counters exists, or counting
        // was asked for — a metrics registry is a view of the counters.
        let count_solver_events = count_solver_events || registry.is_some();
        let mut fanout: Vec<Arc<dyn Sink>> = Vec::new();
        if let Some(f) = &flight {
            fanout.push(Arc::clone(f) as Arc<dyn Sink>);
        }
        // the SLO engine follows the flight recorder so that when a
        // burn-rate alert fires mid-emit, the RequestDone that tripped it
        // is already in the flight ring the bundle serialises
        let slo_engine = slo.map(|cfg| Arc::new(SloEngine::new(cfg)));
        if let Some(s) = &slo_engine {
            fanout.push(Arc::clone(s) as Arc<dyn Sink>);
        }
        if let Some(external) = sink {
            fanout.push(external);
        }
        let (trace, event_sink) = if fanout.is_empty() && !count_solver_events {
            (TraceHandle::with_parts(None, stacks.clone()), None)
        } else {
            let combined: Arc<dyn Sink> = if fanout.is_empty() {
                Arc::clone(&counters) as Arc<dyn Sink>
            } else {
                fanout.insert(0, Arc::clone(&counters) as Arc<dyn Sink>);
                Arc::new(TeeSink::new(fanout))
            };
            (TraceHandle::with_parts(Some(Arc::clone(&combined)), stacks.clone()), Some(combined))
        };

        let prof_rt = prof.zip(prof_parts).map(|(p, (stacks, flight))| {
            let profiler = Profiler::start(stacks, p.sample_hz);
            let sampler = profiler.shared();
            flight.set_sampler(Arc::clone(&sampler));
            if p.panic_hook {
                install_panic_hook(&flight);
            }
            ProfRuntime { _profiler: profiler, sampler, flight }
        });

        let shards: Vec<ShardState> = (0..workers).map(|_| ShardState::new()).collect();
        let shared = Arc::new(Shared {
            shards,
            opts,
            trace,
            counters,
            event_sink,
            registry,
            prof: prof_rt,
            slo: slo_engine,
            next_request_id: AtomicU64::new(0),
        });
        if let Some(rt) = &shared.prof {
            // Weak closures: the recorder lives inside the pipeline the
            // shared state holds, so strong captures would cycle and leak
            let weak = Arc::downgrade(&shared);
            rt.flight.set_snapshot_provider(Box::new(move || match weak.upgrade() {
                Some(s) => {
                    let mut out = String::with_capacity(512);
                    s.snapshot().serialize_json(&mut out);
                    out
                }
                None => "null".to_string(),
            }));
            let weak = Arc::downgrade(&shared);
            rt.flight.set_inflight_provider(Box::new(move || match weak.upgrade() {
                Some(s) => s.inflight_json(),
                None => "[]".to_string(),
            }));
            if let Some(slo) = &shared.slo {
                // bundle side: the recorder pulls the SLO status (strong
                // Arc is fine — the recorder is not reachable from the
                // SLO engine except through the Weak hook below)
                let slo_for_bundle = Arc::clone(slo);
                rt.flight.set_slo_provider(Box::new(move || slo_for_bundle.status_json()));
                // alert side: a burn-rate breach dumps a post-mortem whose
                // `slo` section carries the offending tenant's exemplars.
                // Weak, because the flight recorder sits in the pipeline
                // the SLO engine's hook would otherwise keep alive.
                let weak_flight = Arc::downgrade(&rt.flight);
                slo.set_alert_hook(Box::new(move |_alert| {
                    if let Some(f) = weak_flight.upgrade() {
                        let _ = f.trigger("slo_burn_rate");
                    }
                }));
            }
        }

        let high_water = shard.unwrap_or_default().queue_high_water;
        let queues: Arc<Vec<Arc<ShardQueue<Job>>>> =
            Arc::new((0..workers).map(|i| Arc::new(ShardQueue::new(i, high_water))).collect());
        let handles = (0..workers)
            .map(|i| {
                let queue = Arc::clone(&queues[i]);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rrp-engine-{i}"))
                    .spawn(move || {
                        // tag this worker's trace events with its lane
                        rrp_trace::set_worker(i as u32);
                        worker_loop(&queue, &shared, i)
                    })
                    .expect("spawn engine worker")
            })
            .collect();

        let shutting_down = Arc::new(AtomicBool::new(false));
        let obs = metrics.and_then(|m| m.addr).and_then(|addr| {
            let hooks = obs_hooks(&shared, &shutting_down, &queues, high_water);
            match ObsServer::bind(&addr, hooks) {
                Ok(server) => Some(server),
                Err(e) => {
                    // a taken port must not take the planner down with
                    // it: run without exposition and say so
                    eprintln!("rrp-engine: metrics server bind {addr} failed: {e}");
                    None
                }
            }
        });
        Self { queues, workers: handles, shared, shutting_down, obs }
    }

    /// Enqueue a request; returns immediately with a [`Ticket`]. This
    /// trusted in-process path is never refused — HTTP and other untrusted
    /// intakes go through [`Engine::try_submit`] instead.
    pub fn submit(&self, req: PlanRequest) -> Ticket {
        let (reply, rx) = unbounded();
        let (s, job) = new_job(&self.shared, req, ReplyTo::Channel(reply));
        self.queues[s].push(job);
        Ticket { rx }
    }

    /// Enqueue with admission control: the request is refused with [`Busy`]
    /// when its tenant's shard queue is at or over the high-water mark.
    pub fn try_submit(&self, req: PlanRequest) -> Result<Ticket, Busy> {
        let (reply, rx) = unbounded();
        try_submit(&self.shared, &self.queues, req, ReplyTo::Channel(reply)).map(|()| Ticket { rx })
    }

    /// Submit a batch and wait for all responses, preserving input order.
    ///
    /// Per-job accounting (enqueue gauge, span) stays per job, but each
    /// shard's slice of the batch lands in its queue under one lock and at
    /// most one wakeup, and the whole batch completes through one [`Wave`]
    /// — a single submitter wakeup for `n` responses instead of `n` channel
    /// wakeups.
    pub fn run_batch(&self, reqs: Vec<PlanRequest>) -> Vec<PlanResponse> {
        let wave = Arc::new(Wave::new(reqs.len()));
        let mut per_shard: Vec<Vec<Job>> = (0..self.queues.len()).map(|_| Vec::new()).collect();
        for (idx, req) in reqs.into_iter().enumerate() {
            let reply = ReplyTo::Wave { wave: Arc::clone(&wave), idx };
            let (s, job) = new_job(&self.shared, req, reply);
            per_shard[s].push(job);
        }
        for (queue, jobs) in self.queues.iter().zip(per_shard) {
            if !jobs.is_empty() {
                queue.push_batch(jobs);
            }
        }
        wave.wait()
    }

    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Number of state shards (= workers).
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// Point-in-time metrics snapshot (merged across shards).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.snapshot()
    }

    /// Address the metrics server is listening on, when one is running —
    /// with `addr: "127.0.0.1:0"` this is how the chosen port is learned.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.obs.as_ref().map(ObsServer::local_addr)
    }

    /// The metrics registry, when the engine was built with
    /// [`EngineConfig::metrics`]. Rendering it directly (without the HTTP
    /// server) is how tests and embedders scrape in-process.
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.shared.registry.as_ref()
    }

    /// The Prometheus exposition body `/metrics` would serve right now
    /// (snapshot-synced), when a registry exists.
    pub fn render_metrics(&self) -> Option<String> {
        self.shared.registry.as_ref().map(|reg| {
            sync_registry(&self.shared, reg);
            reg.render()
        })
    }

    /// The engine's trace handle (disabled unless the engine was built
    /// with a sink or `count_solver_events`).
    pub fn trace(&self) -> &TraceHandle {
        &self.shared.trace
    }

    /// Number of distinct fingerprints currently cached (summed across
    /// shards).
    pub fn cache_len(&self) -> usize {
        self.shared.cache_len()
    }

    /// Problem shapes with a stored root basis (warm-start side-table,
    /// summed across shards).
    pub fn basis_cache_entries(&self) -> usize {
        self.shared.basis_cache_entries()
    }

    /// Basis side-table hits over lookups (0 before any solve misses the
    /// plan cache).
    pub fn basis_cache_hit_rate(&self) -> f64 {
        self.shared.basis_cache_hit_rate()
    }

    /// Collapsed-stack profile accumulated so far (`path count` lines),
    /// when the engine was built with [`EngineConfig::prof`].
    pub fn profile_collapsed(&self) -> Option<String> {
        self.shared.prof.as_ref().map(|rt| rt.sampler.collapsed())
    }

    /// Flight-recorder status (`/flight` body), when profiling is on.
    pub fn flight_status_json(&self) -> Option<String> {
        self.shared.prof.as_ref().map(|rt| rt.flight.status_json())
    }

    /// Fire an external flight-recorder trigger (e.g. a simulator SLO
    /// breach). No-op without [`EngineConfig::prof`]; returns whether a
    /// bundle actually dumped (debounce may swallow it).
    pub fn flight_trigger(&self, cause: &str) -> bool {
        match &self.shared.prof {
            Some(rt) => rt.flight.trigger(cause),
            None => false,
        }
    }

    /// Post-mortem bundles dumped since start (0 without profiling).
    pub fn flight_dumps(&self) -> u64 {
        self.shared.prof.as_ref().map_or(0, |rt| rt.flight.dumps_fired())
    }

    /// SLO status document (`/slo` body: budgets, burn rates, alerts,
    /// exemplar timelines), when the engine was built with
    /// [`EngineConfig::slo`].
    pub fn slo_status_json(&self) -> Option<String> {
        self.shared.slo.as_ref().map(|s| s.status_json())
    }

    /// The SLO engine itself, when one was configured.
    pub fn slo(&self) -> Option<&Arc<SloEngine>> {
        self.shared.slo.as_ref()
    }

    /// Feed one sim episode's planned vs realised cost into `tenant`'s
    /// cost-ratio objective. No-op without [`EngineConfig::slo`].
    pub fn slo_record_cost(&self, tenant: &str, planned: f64, realised: f64) {
        if let Some(s) = &self.shared.slo {
            s.record_cost(tenant, planned, realised);
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // flip readiness first: scrapers polling `/readyz` see 503 while
        // the queue drains instead of an abrupt connection refusal
        self.shutting_down.store(true, Ordering::SeqCst);
        // closing a queue ends its worker's recv loop once it drains (the
        // obs `/plan` hook may still hold queue Arcs — the closed flag, not
        // the Arc count, is what stops the workers)
        for q in self.queues.iter() {
            q.close();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // workers are gone — now stop serving scrapes…
        if let Some(mut obs) = self.obs.take() {
            obs.shutdown();
        }
        // …and persist anything buffered
        self.shared.trace.flush();
    }
}

/// Every submission's preamble: account the enqueue on the tenant's shard,
/// open the request span, emit `Enqueued`. Returns the shard index and the
/// job to hand to that shard's queue.
fn new_job(shared: &Shared, req: PlanRequest, reply: ReplyTo) -> (usize, Job) {
    let s = shard_of(&req.app_id, shared.shards.len());
    shared.shards[s].metrics.enqueue();
    let span = shared.trace.open_span("request", SpanId::ROOT);
    shared.trace.emit(span, EventKind::Enqueued);
    (s, Job { req, reply, span })
}

/// Admission-controlled submission: refused with [`Busy`] when the
/// tenant's shard queue is at or over its high-water mark. Shared by
/// [`Engine::try_submit`] and the HTTP `/plan` intake.
fn try_submit(
    shared: &Shared,
    queues: &[Arc<ShardQueue<Job>>],
    req: PlanRequest,
    reply: ReplyTo,
) -> Result<(), Busy> {
    let (s, job) = new_job(shared, req, reply);
    queues[s].try_push(job).map_err(|(job, busy)| {
        // undo the optimistic enqueue (the +1 in `new_job` covers this −1,
        // so the depth gauge never underflows) and account the refusal
        let state = &shared.shards[s];
        state.metrics.dequeue();
        state.metrics.record_busy();
        shared.trace.close_span(job.span);
        busy
    })
}

/// Build the closures the exposition server serves from. All hooks capture
/// `Arc`s only — the server thread never touches the engine struct itself,
/// so teardown order stays simple.
fn obs_hooks(
    shared: &Arc<Shared>,
    shutting_down: &Arc<AtomicBool>,
    queues: &Arc<Vec<Arc<ShardQueue<Job>>>>,
    high_water: usize,
) -> ObsHooks {
    let metrics_shared = Arc::clone(shared);
    let snapshot_shared = Arc::clone(shared);
    let ready_shared = Arc::clone(shared);
    let ready_flag = Arc::clone(shutting_down);
    let profile_shared = Arc::clone(shared);
    let flight_shared = Arc::clone(shared);
    let slo_shared = Arc::clone(shared);
    let plan_shared = Arc::clone(shared);
    // shard queues shut down by flag, so the hook's queue Arcs cannot keep
    // workers alive past Engine::drop
    let queues = Arc::clone(queues);
    ObsHooks {
        metrics_text: Box::new(move || match &metrics_shared.registry {
            Some(reg) => {
                sync_registry(&metrics_shared, reg);
                reg.render()
            }
            None => String::new(),
        }),
        snapshot_json: Box::new(move || {
            let mut out = String::with_capacity(512);
            snapshot_shared.snapshot().serialize_json(&mut out);
            out
        }),
        readiness: Box::new(move || {
            let readiness = if ready_flag.load(Ordering::SeqCst) {
                Readiness::not_ready("shutting down")
            } else {
                // per-shard unserved backlog vs the high-water mark: any
                // one saturated shard flips the engine not-ready (it
                // stalls every tenant hashed to it)
                let depths: Vec<usize> =
                    ready_shared.shards.iter().map(|s| s.metrics.queue_depth()).collect();
                shard_readiness(&depths, high_water)
            };
            // readiness is pull-computed, so the flip edge is observed
            // exactly when a scraper polls `/readyz`
            if let Some(rt) = &ready_shared.prof {
                rt.flight.note_ready(readiness.ready);
            }
            readiness
        }),
        profile_text: if shared.prof.is_some() {
            Some(Box::new(move || {
                profile_shared.prof.as_ref().map(|rt| rt.sampler.collapsed()).unwrap_or_default()
            }))
        } else {
            None
        },
        flight_json: if shared.prof.is_some() {
            Some(Box::new(move || {
                flight_shared.prof.as_ref().map(|rt| rt.flight.status_json()).unwrap_or_default()
            }))
        } else {
            None
        },
        slo_json: if shared.slo.is_some() {
            Some(Box::new(move || {
                slo_shared.slo.as_ref().map(|s| s.status_json()).unwrap_or_default()
            }))
        } else {
            None
        },
        // the `/plan` intake: admission control is the per-shard queue bound
        plan: Some(Box::new(move |body: &str| {
            let req = match wire::parse_plan_request(body) {
                Ok(req) => req,
                Err(msg) => {
                    return PlanDecision::Reject { status: 400, body: wire::error_json(&msg) }
                }
            };
            let (reply, rx) = unbounded();
            match try_submit(&plan_shared, &queues, req, ReplyTo::Channel(reply)) {
                Err(busy) => PlanDecision::Busy {
                    retry_after_ms: busy.retry_after_ms,
                    body: wire::busy_json(&busy),
                },
                Ok(()) => PlanDecision::Accepted(Box::new(move || match rx.try_recv() {
                    Ok(resp) => Some((200, wire::plan_response_json(&resp))),
                    Err(TryRecvError::Empty) => None,
                    Err(TryRecvError::Disconnected) => {
                        Some((500, wire::WORKER_FAILED_BODY.to_string()))
                    }
                })),
            }
        })),
    }
}

/// Write the `/metrics` view of the engine's ledgers into the registry,
/// once per scrape: the per-shard request ledgers (merged into a
/// [`MetricsSnapshot`] plus latency histograms), the solver-event ledger
/// ([`CounterSink`]), and the SLO and profiling state when present.
/// Nothing writes the registry between scrapes.
fn sync_registry(shared: &Shared, reg: &Registry) {
    let snap = shared.snapshot();
    reg.counter("rrp_completed_total", "Responses produced (cache hits included)", &[])
        .set(snap.completed);
    reg.gauge("rrp_queue_depth", "Requests submitted but not yet picked up", &[])
        .set(snap.queue_depth as f64);
    reg.gauge("rrp_queue_depth_high_water", "Highest queue depth observed since engine start", &[])
        .set(snap.queue_depth_high_water as f64);
    reg.counter(
        "rrp_trace_dropped_events_total",
        "Trace events discarded under pressure by the engine's sink",
        &[],
    )
    .set(snap.trace_dropped_events);
    reg.gauge("rrp_cache_hit_rate", "Warm-start cache hits over lookups", &[])
        .set(snap.cache_hit_rate);
    reg.gauge("rrp_cache_entries", "Distinct fingerprints currently cached", &[])
        .set(shared.cache_len() as f64);
    reg.gauge("rrp_basis_cache_hit_rate", "Root-basis warm-start hits over lookups", &[])
        .set(shared.basis_cache_hit_rate());
    reg.gauge("rrp_basis_cache_entries", "Problem shapes with a stored root basis", &[])
        .set(shared.basis_cache_entries() as f64);
    reg.counter("rrp_audits_total", "Pre-solve audit-gate runs", &[]).set(snap.audits);
    reg.counter(
        "rrp_deadline_misses_total",
        "Responses later than their deadline (all tenants)",
        &[],
    )
    .set(snap.deadline_misses);
    reg.counter(
        "rrp_busy_rejections_total",
        "Requests refused at admission (shard queue over high-water)",
        &[],
    )
    .set(snap.busy_rejections);
    reg.gauge("rrp_workers", "Engine worker threads", &[]).set(shared.shards.len() as f64);
    reg.gauge("rrp_shards", "Engine state shards", &[]).set(shared.shards.len() as f64);
    for shard in &snap.shards {
        let label = shard.shard.to_string();
        let labels: &[(&'static str, &str)] = &[("shard", label.as_str())];
        reg.gauge("rrp_shard_queue_depth", "Unserved requests on this shard", labels)
            .set(shard.queue_depth as f64);
        reg.gauge(
            "rrp_shard_queue_depth_high_water",
            "Highest queue depth this shard has seen",
            labels,
        )
        .set(shard.queue_depth_high_water as f64);
        reg.counter("rrp_shard_completed_total", "Responses produced by this shard", labels)
            .set(shard.completed);
        reg.counter(
            "rrp_shard_busy_rejections_total",
            "Requests this shard refused at admission",
            labels,
        )
        .set(shard.busy_rejections);
    }
    for (rung, served) in [
        ("full", snap.level_full),
        ("deterministic", snap.level_deterministic),
        ("dynamic-program", snap.level_dynamic_program),
        ("on-demand-only", snap.level_on_demand_only),
    ] {
        reg.counter(
            "rrp_level_served_total",
            "Answers served, by degradation-ladder rung",
            &[("rung", rung)],
        )
        .set(served);
    }
    sync_request_ledger(shared, &snap.tenants, reg);
    sync_solver_ledger(&shared.counters, reg);
    if let Some(slo) = &shared.slo {
        slo.sync_registry(reg);
    }
    if let Some(rt) = &shared.prof {
        reg.counter("rrp_prof_samples_total", "Profiler stack samples accumulated", &[])
            .set(rt.sampler.samples_total());
        reg.gauge("rrp_prof_distinct_paths", "Distinct span paths seen by the profiler", &[])
            .set(rt.sampler.distinct_paths() as f64);
        reg.counter("rrp_flight_dumps_total", "Post-mortem bundles dumped", &[])
            .set(rt.flight.dumps_fired());
        reg.gauge("rrp_flight_ring_events", "Trace events held in the flight ring", &[])
            .set(rt.flight.ring_len() as f64);
        reg.counter(
            "rrp_flight_ring_dropped_total",
            "Flight-ring events evicted by the hard cap",
            &[],
        )
        .set(rt.flight.ring_dropped());
        // the cause taxonomy is closed, so every series can be synced
        // explicitly — no stale 1s after the latest trigger moves on
        let last = rt.flight.last_trigger();
        for cause in [
            "deadline_miss_spike",
            "budget_exhaustion",
            "readyz_flip",
            "panic",
            "sim_slo_breach",
            "slo_burn_rate",
        ] {
            reg.gauge(
                "rrp_flight_last_trigger",
                "Most recent flight-recorder trigger, by cause (1 = latest)",
                &[("cause", cause)],
            )
            .set(u64::from(last.as_deref() == Some(cause)) as f64);
        }
    }
}

/// Per-tenant counters and latency summaries from the request ledgers.
/// Tenants are ranked by request volume, so a fold past the series cap
/// keeps the busiest tenants and sums the rest into `__other__`.
fn sync_request_ledger(shared: &Shared, tenants: &[TenantSnapshot], reg: &Registry) {
    let mut ranked: Vec<&TenantSnapshot> = tenants.iter().collect();
    ranked.sort_by(|a, b| b.requests.cmp(&a.requests).then_with(|| a.tenant.cmp(&b.tenant)));
    let families: [(&'static str, &'static str, fn(&TenantSnapshot) -> u64); 4] = [
        ("rrp_requests_total", "Requests completed, per tenant", |t| t.requests),
        ("rrp_deadline_miss_total", "Responses later than their deadline, per tenant", |t| {
            t.deadline_misses
        }),
        (
            "rrp_audit_rejections_total",
            "Requests statically rejected by the audit gate, per tenant",
            |t| t.audit_rejections,
        ),
        ("rrp_cache_hits_total", "Requests answered from the warm-start cache, per tenant", |t| {
            t.cache_hits
        }),
    ];
    for (name, help, count) in families {
        let rows: Vec<(&str, u64)> =
            ranked.iter().map(|t| (t.tenant.as_str(), count(t))).filter(|&(_, n)| n > 0).collect();
        reg.set_counter_family(name, help, "tenant", &rows);
    }

    let parts: Vec<&Metrics> = shared.shards.iter().map(|s| &s.metrics).collect();
    let (request, rungs) = merged_latencies(&parts);
    reg.summary("rrp_request_latency_ms", "Pickup-to-response latency (ms)", &[])
        .set(&request.hist, request.sum_ms());
    for (level, ledger) in DegradationLevel::ALL.into_iter().zip(&rungs) {
        reg.summary(
            "rrp_rung_latency_ms",
            "Wall-clock per degradation-ladder rung attempt (ms)",
            &[("rung", level.as_str())],
        )
        .set(&ledger.hist, ledger.sum_ms());
    }
}

/// Branch & bound and LP counters from the solver-event ledger.
fn sync_solver_ledger(c: &CounterSink, reg: &Registry) {
    // relaxed-ok: observational counters, read once per scrape
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
    reg.counter("rrp_milp_nodes_opened_total", "Branch & bound nodes opened", &[])
        .set(load(&c.milp_nodes));
    for (reason, n) in PruneReason::ALL.into_iter().zip(&c.nodes_pruned) {
        reg.counter(
            "rrp_milp_nodes_pruned_total",
            "Branch & bound nodes closed without branching, by reason",
            &[("reason", reason.as_str())],
        )
        .set(load(n));
    }
    reg.counter(
        "rrp_milp_nodes_integral_total",
        "Branch & bound nodes whose LP optimum was integral",
        &[],
    )
    .set(load(&c.nodes_integral));
    reg.counter("rrp_milp_incumbents_total", "Incumbent improvements", &[])
        .set(load(&c.incumbents));
    for (status, n) in SOLVE_STATUSES.into_iter().zip(&c.solves) {
        reg.counter(
            "rrp_milp_solves_total",
            "Branch & bound searches finished, by final status",
            &[("status", status)],
        )
        .set(load(n));
    }
    reg.summary("rrp_milp_gap_at_timeout", "Relative gap of solves stopped by a budget", &[])
        .set(&c.gap_at_timeout, c.gap_at_timeout_sum());
    reg.counter("rrp_lp_solves_total", "LP solves finished", &[]).set(load(&c.lp_solves));
    reg.counter("rrp_lp_iters_total", "Simplex iterations across all LP solves", &[])
        .set(load(&c.lp_iters));
    reg.counter("rrp_lp_refactorisations_total", "Basis (re)factorisations", &[])
        .set(load(&c.refactorisations));
}

/// Key for the basis side-table: tenant identity plus the *dimensions* of
/// the prepared MILP. Two requests share a key exactly when their constraint
/// matrices have the same layout — the condition under which a stored basis
/// is even shape-compatible. Data (demand, prices) deliberately stays out:
/// surviving data changes is the point of the warm start.
fn shape_fingerprint(app_id: &str, prepared: &PreparedDrrp) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(app_id.as_bytes());
    h.write_usize(prepared.milp.model.num_vars());
    h.write_usize(prepared.milp.model.num_cons());
    h.write_usize(prepared.milp.integers.len());
    h.finish()
}

/// Wave responses a worker buffered while draining one batch.
type PendingCompletion = (Arc<Wave<PlanResponse>>, usize, Option<PlanResponse>);

/// One worker: exclusively owns shard `shard`'s state and queue.
/// Batch-draining the queue means a burst of submissions costs one
/// condvar wakeup; the jobs then run back-to-back without re-locking,
/// and their wave completions are filed per wave under one lock
/// ([`Wave::complete_many`]) after the drain. Channel replies (single
/// submissions) still deliver immediately — a [`Ticket`] holder is
/// waiting on each one individually.
fn worker_loop(queue: &ShardQueue<Job>, shared: &Shared, shard: usize) {
    let state = &shared.shards[shard];
    let mut batch = Vec::new();
    let mut completions: Vec<PendingCompletion> = Vec::new();
    while queue.recv_batch(&mut batch) {
        for job in batch.drain(..) {
            state.metrics.dequeue();
            let Job { req, reply, span } = job;
            // a panicking request (malformed instance) must not kill the
            // worker: the channel reply drops its sender (the [`Ticket`]
            // reports the panic) and a wave slot is poisoned (the wave
            // completes; [`Wave::wait`] reports it)
            let result = catch_unwind(AssertUnwindSafe(|| process(shared, state, req, span)));
            match (reply, result) {
                (ReplyTo::Channel(tx), Ok(resp)) => {
                    let _ = tx.send(resp);
                }
                (ReplyTo::Channel(tx), Err(_)) => drop(tx),
                (ReplyTo::Wave { wave, idx }, Ok(resp)) => {
                    completions.push((wave, idx, Some(resp)))
                }
                (ReplyTo::Wave { wave, idx }, Err(_)) => completions.push((wave, idx, None)),
            }
        }
        // group buffered completions by wave identity and file each group
        // in one complete_many call
        while let Some((wave, idx, resp)) = completions.pop() {
            let mut entries = vec![(idx, resp)];
            let mut i = 0;
            while i < completions.len() {
                if Arc::ptr_eq(&completions[i].0, &wave) {
                    let (_, idx, resp) = completions.swap_remove(i);
                    entries.push((idx, resp));
                } else {
                    i += 1;
                }
            }
            wave.complete_many(entries);
        }
    }
}

fn process(shared: &Shared, state: &ShardState, req: PlanRequest, span: SpanId) -> PlanResponse {
    let start = Instant::now();
    let key = req.fingerprint();
    // the request span itself is opened on the submitting thread, so the
    // profiler frame is published here, on the worker lane that owns it
    let _frame = shared.trace.stack_frame("request");
    // relaxed-ok: ids only need uniqueness
    let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
    let _inflight = InflightGuard::track(state, shared.prof.is_some(), &req, request_id);
    shared.trace.emit(span, EventKind::Dequeued);

    let cached = state.cache.lookup(key);
    shared.trace.emit(span, EventKind::CacheLookup { hit: cached.is_some() });
    if let Some(entry) = cached {
        let latency = start.elapsed();
        let deadline_met = latency <= req.deadline;
        state.metrics.record(entry.degradation, latency, deadline_met);
        state.metrics.record_tenant(&req.app_id, true, false, deadline_met);
        // `emit` is a no-op when tracing is off, but its *argument* is
        // still built — gate the tenant-id clone out of the cache-hit
        // path, which is pure submit-path overhead under a hit storm
        if shared.trace.is_enabled() {
            shared.trace.emit(
                span,
                EventKind::RequestDone {
                    request_id,
                    tenant: req.app_id.clone(),
                    level: entry.degradation.as_str(),
                    outcome: "cache_hit",
                    latency_us: latency.as_micros() as u64,
                    deadline_met,
                },
            );
        }
        shared.trace.close_span(span);
        return PlanResponse {
            app_id: req.app_id,
            fingerprint: key,
            plan: Some(entry.plan),
            rejection: None,
            degradation: entry.degradation,
            trace: Vec::new(),
            cache_hit: true,
            latency,
            deadline_met,
        };
    }

    // Pre-solve audit gate. Every ladder answer must satisfy the schedule's
    // demand balance under the capacity, which is exactly the DRRP
    // constraint system — so the gate audits the DRRP instance regardless
    // of the requested policy. A provably infeasible request is rejected
    // for the cost of a propagation pass (no branch & bound, no panic on
    // the on-demand floor); otherwise the audit's bound/big-M tightenings
    // are kept and the strengthened instance feeds the Deterministic rung
    // whenever it runs branch & bound (capacitated requests: the rest have
    // an exact DP answer and never touch it).
    let mut prepared = PreparedDrrp::from_request(&req);
    let hints: Vec<UpperBoundHint> = prepared
        .problem
        .implied_alpha_bounds()
        .into_iter()
        .map(|(col, upper)| UpperBoundHint {
            var: col,
            upper,
            why: "remaining demand / capacity".to_string(),
        })
        .collect();
    let audit_opts =
        AuditOptions { hints, structure: false, numerics: false, ..Default::default() };
    let audit = audit_milp_with(&prepared.milp, &audit_opts);
    state.metrics.record_audit();
    shared.trace.emit(
        span,
        EventKind::AuditGate {
            verdict: if audit.infeasibility.is_some() { "rejected" } else { "pass" },
            tightenings: audit.tightenings.len(),
        },
    );
    if let Some(proof) = audit.infeasibility {
        let latency = start.elapsed();
        let deadline_met = latency <= req.deadline;
        state.metrics.record_rejection(latency, deadline_met);
        state.metrics.record_tenant(&req.app_id, false, true, deadline_met);
        shared.trace.emit(
            span,
            EventKind::RequestDone {
                request_id,
                tenant: req.app_id.clone(),
                level: req.policy.start_level().as_str(),
                outcome: "rejected",
                latency_us: latency.as_micros() as u64,
                deadline_met,
            },
        );
        shared.trace.close_span(span);
        return PlanResponse {
            app_id: req.app_id,
            fingerprint: key,
            plan: None,
            rejection: Some(proof),
            degradation: req.policy.start_level(),
            trace: Vec::new(),
            cache_hit: false,
            latency,
            deadline_met,
        };
    }
    audit.apply(&mut prepared.milp);

    // Basis warm start across re-plans: the exact fingerprint missed (new
    // demand/prices), but a same-shape solve may have left its final root
    // basis behind — hand it to the MILP root LP as a dual-feasible hint.
    // A stale or mismatched basis only costs the warm attempt; the solver
    // falls back to a cold primal solve on its own.
    let shape = shape_fingerprint(&req.app_id, &prepared);
    let ladder_opts = if shared.opts.warm_start {
        let mut o = shared.opts.clone();
        o.root_basis = state.cache.lookup_basis(shape);
        o
    } else {
        shared.opts.clone()
    };

    let budget =
        SolveBudget::with_deadline(start + req.deadline).and_node_limit(shared.opts.node_limit);
    let ladder_cfg = LadderConfig { trace: shared.trace.clone(), parent: span };
    let result = run_ladder_with(&req, &ladder_opts, &budget, Some(&prepared), &ladder_cfg);
    if result.fully_solved {
        state
            .cache
            .insert(key, CacheEntry { plan: result.plan.clone(), degradation: result.level });
        if let Some(basis) = &result.root_basis {
            state.cache.insert_basis(shape, Arc::clone(basis));
        }
    }
    let latency = start.elapsed();
    let deadline_met = latency <= req.deadline;
    state.metrics.record(result.level, latency, deadline_met);
    state.metrics.record_rungs(&result.trace);
    state.metrics.record_tenant(&req.app_id, false, false, deadline_met);
    shared.trace.emit(
        span,
        EventKind::RequestDone {
            request_id,
            tenant: req.app_id.clone(),
            level: result.level.as_str(),
            outcome: "ok",
            latency_us: latency.as_micros() as u64,
            deadline_met,
        },
    );
    shared.trace.close_span(span);
    PlanResponse {
        app_id: req.app_id,
        fingerprint: key,
        plan: Some(result.plan),
        rejection: None,
        degradation: result.level,
        trace: result.trace,
        cache_hit: false,
        latency,
        deadline_met,
    }
}
