//! The engine itself: a fixed pool of OS worker threads. No async runtime
//! — each request is CPU-bound MILP work, so plain threads are the right
//! shape.
//!
//! Tenant state (plan cache, basis side-table, the request ledger and its
//! SLO rows, in-flight table) splits into one `ShardState` per worker,
//! requests hash to their tenant's shard ([`shard_of`]), and each worker
//! exclusively owns its shard: the hot submit/complete path touches only
//! shard-local locks. Per-shard queues are bounded by admission control
//! ([`Engine::try_submit`] refuses over the high-water mark with a [`Busy`]
//! carrying a `Retry-After` hint) and batch-drained, so a burst of `n`
//! submissions costs one worker wakeup; [`Engine::run_batch`] completes
//! through a `Wave`, so a burst of `n` completions costs one submitter
//! wakeup. `Engine::new(1)` is the same machine with a single shard — the
//! oracle the `shard_equiv` test holds wider engines against.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use rrp_core::drrp::capacity_shortfall;
use rrp_core::fingerprint::Fnv64;
use rrp_milp::{MilpOptions, SolveBudget};
use rrp_obs::{
    install_panic_hook, Done, FlightRecorder, FlightRing, ObsHooks, ObsServer, PlanDecision,
    ProfConfig, Profiler, Readiness, SamplerShared, SloConfig, SloView,
};
use rrp_trace::json::escape_into;
use rrp_trace::{CounterSink, EventKind, Sink, SpanId, SpanStacks, TeeSink, TraceHandle};
use serde::Serialize;

use crate::cache::{CacheEntry, PlanCache};
use crate::ladder::{run_ladder_with, LadderConfig};
use crate::metrics::{render_metrics, Fold, Metrics, MetricsSnapshot};
use crate::request::{PlanRequest, PlanResponse, RungOutcome};
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
    /// exposes nothing and serves nothing — the engine is exactly as
    /// before. `Some` renders `/metrics` from the engine's request and
    /// solver ledgers at every scrape (so it implies
    /// `count_solver_events`) and, when [`MetricsConfig::addr`] is set,
    /// serves `/metrics`, `/snapshot`, `/healthz`, `/readyz` and `/plan`
    /// on it.
    pub metrics: Option<MetricsConfig>,
    /// Continuous profiling + flight recorder. `None` (the default) builds
    /// neither. `Some` publishes every worker's open-span path through the
    /// lock-free span stacks, starts the [`Profiler`]'s sampler thread
    /// (when `sample_hz > 0`), tees the engine's lifecycle [`FlightRing`]
    /// into the event pipeline, and arms a [`FlightRecorder`] whose
    /// triggers — the spike ones fed by the workers — dump post-mortem
    /// bundles. With a metrics server, `/profile` and `/flight` come alive
    /// too.
    pub prof: Option<ProfConfig>,
    /// Per-tenant SLO accounting ([`SloView`]). `None` (the default)
    /// keeps none. `Some` gives every row of the per-shard request ledger
    /// the tenant's SLO ledger — rolling error budgets, multi-window
    /// burn-rate alerts — and retains tail-sampled exemplars cut from the
    /// lifecycle [`FlightRing`] (so it turns tracing on). With a metrics
    /// server, `/slo` and the `rrp_slo_*` families come alive; with
    /// profiling, a burn-rate breach fires the `slo_burn_rate` flight
    /// trigger so the bundle carries the tenant's exemplars.
    pub slo: Option<SloConfig>,
    /// Per-shard queue options. The engine always runs one `ShardState` +
    /// bounded queue per worker with tenant→shard affinity by id hash;
    /// `None` (the default) means [`ShardConfig::default`].
    pub shard: Option<ShardConfig>,
}

/// Metrics exposition options (see [`EngineConfig::metrics`]).
#[derive(Debug, Clone, Default)]
pub struct MetricsConfig {
    /// Address to serve on, e.g. `"127.0.0.1:9184"` (`:0` picks an
    /// ephemeral port — read it back via [`Engine::metrics_addr`]).
    /// `None` renders in-process only ([`Engine::render_metrics`]), with
    /// no HTTP server.
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
/// (joined when the last `Arc<Shared>` drops); the recorder reads the
/// engine's ring.
pub(crate) struct ProfRuntime {
    _profiler: Profiler,
    pub(crate) sampler: Arc<SamplerShared>,
    pub(crate) flight: Arc<FlightRecorder>,
}

/// One row of the in-flight request table: what each worker is chewing on
/// right now, serialised into post-mortem bundles so a dump answers "what
/// was running when it died".
struct InflightEntry {
    /// Engine-assigned request id — the same id the request's
    /// `RequestDone` event carries, so the in-flight table, the flight
    /// ring and the SLO exemplars agree on identity.
    request_id: u64,
    tenant: String,
    level: &'static str,
    deadline_ms: u64,
    started: Instant,
}

/// One shard's slice of tenant state. Exactly one worker thread owns each
/// slice, so every lock in here is shard-local: the submit/complete path
/// of one tenant never contends with another shard's.
pub(crate) struct ShardState {
    pub(crate) cache: PlanCache,
    pub(crate) metrics: Metrics,
    /// In-flight request table, maintained only while profiling is on
    /// (bounded by worker count: one entry per request being processed).
    /// Observational, so every site recovers a poisoned guard: a worker
    /// that panicked mid-insert must not wedge post-mortem dumps.
    inflight: Mutex<HashMap<u64, InflightEntry>>,
}

impl ShardState {
    pub(crate) fn new() -> Self {
        Self {
            cache: PlanCache::new(),
            metrics: Metrics::default(),
            inflight: Mutex::new(HashMap::new()),
        }
    }
}

pub(crate) struct Shared {
    /// One state slice per shard (= per worker).
    pub(crate) shards: Vec<ShardState>,
    opts: MilpOptions,
    trace: TraceHandle,
    /// The solver-event ledger behind [`MetricsSnapshot`] and `/metrics`;
    /// only fed while `trace` is enabled.
    pub(crate) counters: Arc<CounterSink>,
    /// The combined sink behind `trace` (counters, teed with the ring and
    /// the external sink when present) — kept so snapshots can report
    /// [`Sink::dropped_events`] without downcasting. `None` when tracing
    /// is off.
    event_sink: Option<Arc<dyn Sink>>,
    /// Whether the engine was built with [`EngineConfig::metrics`], i.e.
    /// renders `/metrics`.
    metrics: bool,
    /// Profiler + flight recorder; `None` unless built with
    /// [`EngineConfig::prof`].
    pub(crate) prof: Option<ProfRuntime>,
    /// The lifecycle ring in the trace pipeline; `Some` with `prof`/`slo`.
    pub(crate) ring: Option<Arc<FlightRing>>,
    /// SLO options; `Some` gives every tenant row its SLO ledger.
    slo: Option<SloConfig>,
    /// Engine-assigned request ids, stamped into every `RequestDone`
    /// event (and the in-flight table) whether or not profiling is on.
    next_request_id: AtomicU64,
}

impl Shared {
    /// The one scrape-time read of the engine: every shard visited once
    /// ([`Fold::of`]), the SLO view folded at the trace clock's now.
    pub(crate) fn fold(&self) -> Fold {
        let dropped = self.event_sink.as_ref().map_or(0, |s| s.dropped_events());
        let slo_now_us = self.slo.as_ref().map(|_| self.trace.now_us());
        Fold::of(&self.shards, &self.counters, dropped, slo_now_us)
    }

    /// The post-mortem bundle's engine sections, in schema order. The
    /// `metrics` and `slo` sections come from one fold, so they agree.
    fn write_bundle_sections(&self, out: &mut String) {
        let fold = self.fold();
        out.push_str(",\"metrics\":");
        fold.snapshot.serialize_json(out);
        let _ = write!(out, ",\"inflight\":{},\"slo\":", self.inflight_json());
        out.push_str(&fold.slo.map_or_else(|| "null".to_string(), |v| v.status_json()));
    }

    /// The merged in-flight table as a JSON array (bundle + `/flight`
    /// fodder). Each shard's table is read under its own short lock.
    fn inflight_json(&self) -> String {
        let mut rows: Vec<(u64, String, &'static str, u64, Instant)> = Vec::new();
        for shard in &self.shards {
            let table = shard.inflight.lock().unwrap_or_else(PoisonError::into_inner);
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
        state.inflight.lock().unwrap_or_else(PoisonError::into_inner).insert(
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
            self.state.inflight.lock().unwrap_or_else(PoisonError::into_inner).remove(&id);
        }
    }
}

/// Handle to one submitted request; [`Ticket::wait`] blocks for the
/// response.
pub struct Ticket {
    rx: Receiver<PlanResponse>,
}

impl Ticket {
    /// Block until the response arrives. Requests no plan can serve come
    /// back as gate rejections (`plan: None` with a
    /// [`CapacityShortfall`](crate::CapacityShortfall)), not panics; this
    /// only panics if the worker itself panicked — a malformed request
    /// (negative or non-finite demand or prices, an empty horizon) fails
    /// the gate's validation — and the panic message is on that worker's
    /// stderr. The worker survives and serves the next request.
    pub fn wait(self) -> PlanResponse {
        self.rx.recv().expect("planning worker dropped the request (it panicked — see stderr)")
    }
}

/// A concurrent multi-tenant planning service. Submit [`PlanRequest`]s
/// from any thread; each of the `workers` OS threads drains its own shard
/// queue, running the degradation ladder under the request's deadline.
pub struct Engine {
    /// One bounded queue per shard, indexed like `Shared::shards`.
    queues: Arc<Vec<Arc<ShardQueue<Job>>>>,
    workers: Vec<JoinHandle<()>>,
    pub(crate) shared: Arc<Shared>,
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
        // the lifecycle ring both the flight recorder and the SLO exemplars read
        let ring = (prof.is_some() || slo.is_some()).then(|| Arc::new(FlightRing::new()));
        let stacks = prof.as_ref().map(|_| Arc::new(SpanStacks::new()));

        // the event pipeline: counters always lead the tee; the ring and
        // any external sink follow. Tracing turns on if either exists, or
        // counting was asked for — `/metrics` is a view of the counters.
        let count_solver_events = count_solver_events || metrics.is_some();
        let mut fanout: Vec<Arc<dyn Sink>> = Vec::new();
        if let Some(r) = &ring {
            fanout.push(Arc::clone(r) as Arc<dyn Sink>);
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

        let prof_rt = prof.zip(stacks).zip(ring.clone()).map(|((p, stacks), ring)| {
            let profiler = Profiler::start(stacks, p.sample_hz);
            let sampler = profiler.shared();
            let panic_hook = p.panic_hook;
            let flight = Arc::new(FlightRecorder::new(p, ring, Some(Arc::clone(&sampler))));
            if panic_hook {
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
            metrics: metrics.is_some(),
            prof: prof_rt,
            ring,
            slo,
            next_request_id: AtomicU64::new(0),
        });
        if let Some(rt) = &shared.prof {
            // Weak: the recorder lives inside the shared state it reads, so
            // a strong capture would cycle and leak
            let weak = Arc::downgrade(&shared);
            rt.flight.set_bundle_sections(Box::new(move |out| match weak.upgrade() {
                Some(s) => s.write_bundle_sections(out),
                None => out.push_str(",\"metrics\":null,\"inflight\":null,\"slo\":null"),
            }));
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
        let (reply, rx) = channel();
        let (s, job) = new_job(&self.shared, req, ReplyTo::Channel(reply));
        self.queues[s].push(job);
        Ticket { rx }
    }

    /// Enqueue with admission control: the request is refused with [`Busy`]
    /// when its tenant's shard queue is at or over the high-water mark.
    pub fn try_submit(&self, req: PlanRequest) -> Result<Ticket, Busy> {
        let (reply, rx) = channel();
        try_submit(&self.shared, &self.queues, req, ReplyTo::Channel(reply)).map(|()| Ticket { rx })
    }

    /// Submit a batch and wait for all responses, preserving input order.
    ///
    /// Per-job accounting (enqueue gauge, span) stays per job, but each
    /// shard's slice of the batch lands in its queue under one lock and at
    /// most one wakeup, and the whole batch completes through one `Wave`
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
        self.shared.fold().snapshot
    }

    /// Address the metrics server is listening on, when one is running —
    /// with `addr: "127.0.0.1:0"` this is how the chosen port is learned.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.obs.as_ref().map(ObsServer::local_addr)
    }

    /// The Prometheus exposition body `/metrics` would serve right now,
    /// rendered from the ledgers, when the engine was built with
    /// [`EngineConfig::metrics`] — how tests and embedders scrape
    /// in-process.
    pub fn render_metrics(&self) -> Option<String> {
        self.shared.metrics.then(|| render_metrics(&self.shared))
    }

    /// The engine's trace handle (disabled unless the engine was built
    /// with a sink or `count_solver_events`).
    pub fn trace(&self) -> &TraceHandle {
        &self.shared.trace
    }

    /// Number of distinct fingerprints currently cached (summed across
    /// shards).
    pub fn cache_len(&self) -> usize {
        self.shared.fold().cache_entries
    }

    /// Problem shapes with a stored root basis (warm-start side-table,
    /// summed across shards).
    pub fn basis_cache_entries(&self) -> usize {
        self.shared.fold().basis_entries
    }

    /// Basis side-table hits over lookups (0 before any solve misses the
    /// plan cache).
    pub fn basis_cache_hit_rate(&self) -> f64 {
        self.shared.fold().basis_hit_rate
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
        self.slo().map(|v| v.status_json())
    }

    /// The SLO view folded across shards right now, when configured.
    pub fn slo(&self) -> Option<SloView> {
        self.shared.fold().slo
    }

    /// Feed one sim episode's planned vs realised cost into `tenant`'s
    /// cost-ratio objective, on the tenant's shard. No-op without
    /// [`EngineConfig::slo`].
    pub fn slo_record_cost(&self, tenant: &str, planned: f64, realised: f64) {
        if self.shared.slo.is_none() {
            return;
        }
        let state = &self.shared.shards[shard_of(tenant, self.shared.shards.len())];
        let t_us = self.shared.trace.now_us();
        let alert = state.metrics.with_row(tenant, |key, row, log| {
            log.record_cost(key, row.slo(), t_us, planned, realised)
        });
        if alert {
            if let Some(rt) = &self.shared.prof {
                let _ = rt.flight.trigger("slo_burn_rate");
            }
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
        metrics_text: Box::new(move || render_metrics(&metrics_shared)),
        snapshot_json: Box::new(move || {
            let mut out = String::with_capacity(512);
            snapshot_shared.fold().snapshot.serialize_json(&mut out);
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
                slo_shared.fold().slo.map(|v| v.status_json()).unwrap_or_default()
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
            let (reply, rx) = channel();
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

/// Key for the basis side-table: tenant identity, horizon and whether the
/// request is capacitated. Only capacitated DRRP files a basis, and its
/// MILP is `3T` columns × `2T` rows, so two requests share a key exactly
/// when their constraint matrices have the same layout — the condition
/// under which a stored basis is even shape-compatible. Data (demand,
/// prices) deliberately stays out: surviving data changes is the point of
/// the warm start.
fn shape_fingerprint(req: &PlanRequest) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(req.app_id.as_bytes());
    h.write_usize(req.horizon());
    h.write_usize(usize::from(req.params.capacity.is_some()));
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
    // the request span itself is opened on the submitting thread, so the
    // profiler frame is published here, on the worker lane that owns it
    let _frame = shared.trace.stack_frame("request");
    // relaxed-ok: ids only need uniqueness
    let request_id = shared.next_request_id.fetch_add(1, Ordering::Relaxed);
    let _inflight = InflightGuard::track(state, shared.prof.is_some(), &req, request_id);
    shared.trace.emit(span, EventKind::Dequeued);
    let (resp, outcome) = answer(shared, state, req, span, start);
    finish(shared, state, span, request_id, &resp, outcome);
    resp
}

/// Every completion's epilogue: emit `RequestDone`, account the response
/// to its tenant's ledger row — on SLO engines to the row's objectives
/// too, cutting a retained request's exemplar from the ring — and close
/// the span. Then, outside the tenant lock, feed the flight recorder's
/// spike triggers and dump a burn-rate alert's bundle.
fn finish(
    shared: &Shared,
    state: &ShardState,
    span: SpanId,
    request_id: u64,
    resp: &PlanResponse,
    outcome: &'static str,
) {
    let (level, deadline_met) = (resp.degradation.as_str(), resp.deadline_met);
    let latency_us = resp.latency.as_micros() as u64;
    // `emit` is a no-op when tracing is off, but its *argument* is still
    // built — gate the tenant-id clone out, which is pure submit-path
    // overhead under a cache-hit storm
    if shared.trace.is_enabled() {
        let tenant = resp.app_id.clone();
        let done =
            EventKind::RequestDone { request_id, tenant, level, outcome, latency_us, deadline_met };
        shared.trace.emit(span, done);
    }
    // the trace clock, read only by engines that keep a ring
    let t_us = if shared.ring.is_some() { shared.trace.now_us() } else { 0 };
    let (tenant, rejected) = (resp.app_id.as_str(), resp.rejection.is_some());
    let alert = state.metrics.with_row(tenant, |key, row, log| {
        row.count(resp.cache_hit, rejected, deadline_met);
        let (Some(cfg), Some(ring)) = (&shared.slo, &shared.ring) else { return false };
        let done = Done { request_id, tenant, level, outcome, latency_us, deadline_met, t_us };
        log.record_request(cfg, key, row.slo(), &done, |max| ring.cut(span, max))
    });
    shared.trace.close_span(span);
    if let Some(rt) = &shared.prof {
        let exhausted =
            resp.trace.iter().filter(|s| matches!(s.outcome, RungOutcome::Exhausted(_))).count();
        rt.flight.note_outcome(t_us, deadline_met, exhausted);
        if alert {
            let _ = rt.flight.trigger("slo_burn_rate");
        }
    }
}

/// Decide the response — cache hit, gate rejection or ladder answer —
/// and account it to the shard's global counters. Returns it with its
/// `RequestDone` outcome label.
fn answer(
    shared: &Shared,
    state: &ShardState,
    req: PlanRequest,
    span: SpanId,
    start: Instant,
) -> (PlanResponse, &'static str) {
    let key = req.fingerprint();
    let cached = state.cache.lookup(key);
    shared.trace.emit(span, EventKind::CacheLookup { hit: cached.is_some() });
    if let Some(entry) = cached {
        let latency = start.elapsed();
        let deadline_met = latency <= req.deadline;
        state.metrics.record(entry.degradation, latency, deadline_met);
        let resp = PlanResponse {
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
        return (resp, "cache_hit");
    }

    // Pre-solve gate. Every ladder answer must satisfy the schedule's
    // demand balance under the capacity, which is exactly the DRRP
    // constraint system — so the gate checks DRRP feasibility regardless of
    // the requested policy. A request no plan can serve is rejected for the
    // cost of one prefix sum (no branch & bound, no panic on the on-demand
    // floor); a malformed one panics here, in the check's validation.
    let shortfall = capacity_shortfall(&req.schedule, &req.params);
    state.metrics.record_audit();
    let verdict = if shortfall.is_some() { "rejected" } else { "pass" };
    shared.trace.emit(span, EventKind::AuditGate { verdict });
    if let Some(shortfall) = shortfall {
        let latency = start.elapsed();
        let deadline_met = latency <= req.deadline;
        state.metrics.record_rejection(latency, deadline_met);
        let resp = PlanResponse {
            app_id: req.app_id,
            fingerprint: key,
            plan: None,
            rejection: Some(shortfall),
            degradation: req.policy.start_level(),
            trace: Vec::new(),
            cache_hit: false,
            latency,
            deadline_met,
        };
        return (resp, "rejected");
    }

    // Basis warm start across re-plans: the exact fingerprint missed (new
    // demand/prices), but a same-shape solve may have left its final root
    // basis behind — hand it to the MILP root LP as a dual-feasible hint.
    // A stale or mismatched basis only costs the warm attempt; the solver
    // falls back to a cold primal solve on its own.
    let shape = shape_fingerprint(&req);
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
    let result = run_ladder_with(&req, &ladder_opts, &budget, &ladder_cfg);
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
    let resp = PlanResponse {
        app_id: req.app_id,
        fingerprint: key,
        plan: Some(result.plan),
        rejection: None,
        degradation: result.level,
        trace: result.trace,
        cache_hit: false,
        latency,
        deadline_met,
    };
    (resp, "ok")
}
