//! One run of one workload: the timed run (end-to-end metrics, tracing off)
//! and the traced run (per-layer metrics).

use std::path::Path;
use std::time::Instant;

use rrp_engine::MetricsSnapshot;

use crate::layers;
use crate::metrics::{Metric, MetricSet, END_TO_END, PER_LAYER};
use crate::span::Recorder;
use crate::stats::{self, p50, percentile_or_lower};
use crate::workloads::{
    call, check_all, drive, nproc, Answer, Door, Inputs, Sample, Target, Telemetry, Workload,
};
use crate::{http, procstat};

/// A timed run sets up at least three times and goes on, up to nine times,
/// until set-up has taken this many seconds in all: the median is
/// reported, and a set-up of a few milliseconds needs the more samples.
/// The last set-up is the one the run uses.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 3..=9;
const SETUP_BUDGET_S: f64 = 2.5;

/// What one run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// `p` of the samples' client-side latencies, stepping down (with a note)
/// when the sample is too small for it.
fn latency_percentile(sorted_ms: &[f64], p: f64, what: &str) -> f64 {
    let (value, used) = percentile_or_lower(sorted_ms, p);
    if used < p {
        eprintln!(
            "note: {what}: {} samples are too few for p{p}; reporting p{used}",
            sorted_ms.len()
        );
    }
    value
}

fn sorted_latencies(samples: &[Sample]) -> Vec<f64> {
    let mut ms: Vec<f64> = samples.iter().map(Sample::latency_ms).collect();
    stats::sort(&mut ms);
    ms
}

/// The timed run: set up, drive the closed loop for `seconds` with only the
/// telemetry the workload lists, then check every answer.
///
/// One client, on every workload: a tenant controller waiting for each
/// plan. More were measured and dropped. Two clients on the HTTP workloads
/// keep the server's poll loop awake for each other and make hit latency
/// bimodal (0.1 or 2.4 ms). Two on the in-process workloads keep both
/// cores of the reference host busy at once, and a shared 2-core VM then
/// swings between a fast and a slow phase 15 % apart: spreads across ten
/// seeds reached 19 % with two clients and 13 % with one. What a second
/// client gains is reported, ungated, as `engine.concurrency_speedup`.
pub fn timed(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, http::Fatal> {
    let n = workload.op_count(seconds);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut state = None;
    while setup_s.len() < *SETUP_REPEATS.start()
        || (setup_s.len() < *SETUP_REPEATS.end() && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // the previous engine is gone before the clock starts
        drop(state.take());
        let t0 = Instant::now();
        let inputs = Inputs::generate(workload, seed, n);
        let target = Target::start(workload, &inputs, Telemetry::Workload)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some((inputs, target));
    }
    let (inputs, target) = state.expect("at least one set-up");
    let order: Vec<usize> = (0..n).collect();
    let run = drive(&inputs, &target, workload.door(), 1, &order, Some(seconds))?;
    drop(target);
    if run.samples.len() == n {
        eprintln!("note: all {n} generated ops were used; the run ended after {:.2} s", run.wall_s);
    }

    let attempted = run.samples.len() as u64;
    let failed = check_all(&inputs, &run.samples);
    let plans = (attempted - failed) as f64;
    let ms = sorted_latencies(&run.samples);
    let mut m = MetricSet::new(&END_TO_END);
    m.set("plan_p50_ms", latency_percentile(&ms, 50.0, "plan_p50_ms"));
    m.set("plan_p90_ms", latency_percentile(&ms, 90.0, "plan_p90_ms"));
    m.set("plans_per_s", plans / run.wall_s);
    m.set("peak_rss_mb", procstat::peak_rss_mib());
    m.set("setup_s", p50(&setup_s));
    Ok(Outcome { attempted, failed, metrics: m.finish() })
}

/// The traced front-door lane is scraped after every this many ops.
const SCRAPE_EVERY: usize = 50;

/// Warm-up ops each lane answers (and discards) before its measured ones.
const WARM_UP_OPS: usize = 16;

/// How many ops the traced run replays and how many of those it walks,
/// for a run of `seconds`: fixed counts, so that counts made by the
/// program repeat exactly from run to run.
fn trace_sizes(workload: Workload, seconds: f64) -> (usize, usize) {
    let (replay, walk) = match workload {
        Workload::CapCold => (128, 96),
        Workload::SrrpTree => (60, 40),
        Workload::HttpWarm => (1_500, 1_500),
        Workload::HttpMixed => (100, 60),
    };
    let scale = seconds / 20.0;
    let scaled = |n: usize| ((n as f64 * scale).round() as usize).clamp(20, n * 4);
    (scaled(replay), scaled(walk))
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The engine's own latency for a sample: `PlanResponse.latency`, or the
/// `latency_ms` field of the `/plan` body.
fn worker_latency_ms(sample: &Sample) -> Option<f64> {
    match &sample.answer {
        Answer::Plan(resp) => Some(resp.latency.as_secs_f64() * 1e3),
        Answer::Http(_, wire) => wire.as_ref().map(|a| a.latency_ms),
    }
}

fn objective(sample: &Sample) -> Option<f64> {
    match &sample.answer {
        Answer::Plan(resp) => resp.plan.as_ref().map(|p| p.objective),
        Answer::Http(_, wire) => wire.as_ref().and_then(|a| a.objective),
    }
}

/// What a replay returns beside the lanes' samples.
#[derive(Default)]
struct ReplayExtras {
    /// Round trips of the `/metrics` scrapes, ms.
    scrapes_ms: Vec<f64>,
    /// Process CPU seconds spent while the lanes (not the walk) ran.
    cpu_s: f64,
}

/// One engine of the interleaved replay, and the answers it gave.
struct Lane {
    target: Target,
    door: Door,
    samples: Vec<Sample>,
    /// The engine's ledger after the warm-up, before the measured ops.
    before: MetricsSnapshot,
}

impl Lane {
    /// Start the lane's engine and send it the warm-up ops `n..`
    /// (discarded), so that no lane pays for thread start-up or cold code
    /// in its measured ops.
    fn start(
        workload: Workload,
        inputs: &Inputs,
        telemetry: Telemetry,
        door: Door,
        n: usize,
    ) -> Result<Self, http::Fatal> {
        let target = Target::start(workload, inputs, telemetry)?;
        for i in n..inputs.len() {
            call(inputs, &target, door, i)?;
        }
        let before = target.engine.metrics();
        Ok(Self { target, door, samples: Vec::new(), before })
    }

    /// Seconds the client spent waiting on this lane.
    fn busy_s(&self) -> f64 {
        self.samples.iter().map(Sample::latency_ms).sum::<f64>() / 1e3
    }
}

/// Replay ops `0..n` on every lane, one request in flight at a time (the
/// traced run attributes time, it does not load the engine, and a single
/// client keeps queueing out of every number). The lanes take turns op by
/// op, in rotating order, so that a slow second on the host lands on all of
/// them alike: their busy times can then be compared as ratios. On lane
/// `scraped` the client also fetches `/metrics` after every 50th op, as a
/// monitoring agent would. `after_op` runs once the lanes have answered an
/// op — the layer walk of the same op goes there, so that it too shares
/// the lanes' seconds.
fn replay(
    inputs: &Inputs,
    lanes: &mut [Lane],
    n: usize,
    scraped: usize,
    mut after_op: impl FnMut(usize, &[Lane]),
) -> Result<ReplayExtras, http::Fatal> {
    let mut extras = ReplayExtras::default();
    for i in 0..n {
        let cpu0 = procstat::cpu_seconds();
        for turn in 0..lanes.len() {
            let k = (i + turn) % lanes.len();
            let lane = &mut lanes[k];
            lane.samples.push(call(inputs, &lane.target, lane.door, i)?);
            if let (true, Some(addr)) =
                (k == scraped && i % SCRAPE_EVERY == SCRAPE_EVERY - 1, lane.target.addr)
            {
                let t0 = Instant::now();
                http::request(addr, "GET", "/metrics", "")?;
                extras.scrapes_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        // the CPU clock ticks every 10 ms; summed over the ops its steps
        // average out
        extras.cpu_s += procstat::cpu_seconds() - cpu0;
        after_op(i, lanes);
    }
    Ok(extras)
}

/// The traced run. A fixed sample of the workload's ops is replayed
/// through the workload's front door twice — as the timed run does it, and
/// with `count_solver_events` on and the harness recording spans — and
/// in-process with all telemetry off and with all of it on; then the
/// harness walks the same ops through the layers itself. Spans go to
/// `trace_file`.
pub fn traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace_file: &Path,
) -> Result<Outcome, http::Fatal> {
    let (n, n_walk) = trace_sizes(workload, seconds);
    let inputs = Inputs::generate(workload, seed, n + WARM_UP_OPS);
    // one clock for the client's spans and the walk's
    let mut walk = layers::Walk::new(Recorder::new(), &inputs);

    // lanes 0 and 1 are the front door, untraced and traced; the in-process
    // workloads' front door is already the in-process one with telemetry off
    let front = workload.door();
    let mut lanes = vec![
        Lane::start(workload, &inputs, Telemetry::Workload, front, n)?,
        Lane::start(workload, &inputs, Telemetry::WorkloadCounters, front, n)?,
    ];
    let off = if workload.is_http() {
        lanes.push(Lane::start(workload, &inputs, Telemetry::Off, Door::InProcess, n)?);
        2
    } else {
        0
    };
    lanes.push(Lane::start(workload, &inputs, Telemetry::AllOn, Door::InProcess, n)?);
    let extras = replay(&inputs, &mut lanes, n, 1, |i, lanes| {
        if i < n_walk {
            let answered = lanes[1].samples.last().and_then(objective);
            walk.step(&inputs, i, answered);
        }
    })?;
    let traced = &lanes[1];
    let (b, a) = (&traced.before, traced.target.engine.metrics());
    let basis_hit_rate = traced.target.engine.basis_cache_hit_rate();
    // two clients on repeated bodies: the second keeps the server's poll
    // loop awake, which a lone client cannot
    let two_client_ms: Vec<f64> = if workload.is_http() {
        let repeats = inputs.repeat_ops(n.min(500));
        drive(&inputs, &traced.target, Door::Http, 2, &repeats, None)?
            .samples
            .iter()
            .map(Sample::latency_ms)
            .collect()
    } else {
        Vec::new()
    };

    // what keeping every worker busy gains over one request in flight: the
    // sample again on two fresh engines, one client against one per core
    let mut extra_checked = (0u64, 0u64);
    let concurrency_speedup = if workload.is_http() {
        0.0
    } else {
        let order: Vec<usize> = (0..n).collect();
        let mut wall = |clients: usize| -> Result<f64, http::Fatal> {
            let target = Target::start(workload, &inputs, Telemetry::Workload)?;
            let run = drive(&inputs, &target, front, clients, &order, None)?;
            extra_checked.0 += run.samples.len() as u64;
            extra_checked.1 += check_all(&inputs, &run.samples);
            Ok(run.wall_s)
        };
        ratio(wall(1)?, wall(nproc())?)
    };

    // spans of the traced replay, as the client saw them
    let mut connect_us = Vec::new();
    let mut bytes = Vec::new();
    let mut refused = 0u64;
    let mut degraded = 0u64;
    let mut worker_ms = Vec::new();
    for s in &traced.samples {
        let id = s.op as u64;
        let root = walk.rec.add("request", None, id, s.start, s.end);
        if let Some(w) = worker_latency_ms(s) {
            worker_ms.push(w);
            let began = s.end.checked_sub(std::time::Duration::from_secs_f64(w / 1e3));
            let began = began.unwrap_or(s.start).max(s.start);
            walk.rec.add("engine.worker", Some(root), id, began, s.end);
        }
        let asked = inputs.request(s.op).policy.start_level();
        match &s.answer {
            Answer::Http(reply, wire) => {
                refused += (reply.status == 429) as u64;
                connect_us.push(reply.connect_us);
                bytes.push(reply.bytes as f64);
                degraded += wire.as_ref().is_some_and(|a| a.degradation != asked.as_str()) as u64;
            }
            Answer::Plan(resp) => degraded += (resp.degradation != asked) as u64,
        }
    }

    for why in walk.counts.mismatches.iter().take(5) {
        eprintln!("check failed: {why}");
    }
    if let Err(e) = walk.rec.write_jsonl(trace_file) {
        eprintln!("note: could not write {}: {e}", trace_file.display());
    }

    let mut m = MetricSet::new(&PER_LAYER);
    // what the client waited beyond the engine's own latency: the self time
    // of its request spans (HTTP: connect, parse, admit, poll, serialise;
    // in-process: the submit and wake-up hand-offs)
    let mut outside_ms: Vec<f64> =
        walk.rec.self_durations("request").iter().map(|us| us / 1e3).collect();
    stats::sort(&mut outside_ms);
    if workload.is_http() {
        m.set("obs.http_overhead_p50_ms", p50(&outside_ms));
        m.set("obs.http_overhead_p99_ms", percentile_or_lower(&outside_ms, 99.0).0);
    }
    m.set("obs.connect_p50_us", p50(&connect_us));
    m.set("obs.refused_429", refused as f64);
    m.set("obs.rtt_2clients_p50_ms", p50(&two_client_ms));
    m.set("obs.scrape_metrics_p50_ms", p50(&extras.scrapes_ms));
    m.set("obs.bytes_per_plan", mean(&bytes));

    // engine, from the traced replay's answers and the engine's own ledger
    let completed = (a.completed - b.completed) as f64;
    let lookups = (a.cache_hits + a.cache_misses - b.cache_hits - b.cache_misses) as f64;
    m.set("engine.worker_latency_p50_ms", p50(&worker_ms));
    m.set("engine.plan_cache_hit_rate", ratio((a.cache_hits - b.cache_hits) as f64, lookups));
    m.set("engine.basis_cache_hit_rate", basis_hit_rate);
    m.set("engine.rung_share.full", ratio((a.level_full - b.level_full) as f64, completed));
    m.set(
        "engine.rung_share.deterministic",
        ratio((a.level_deterministic - b.level_deterministic) as f64, completed),
    );
    m.set(
        "engine.rung_share.dynamic_program",
        ratio((a.level_dynamic_program - b.level_dynamic_program) as f64, completed),
    );
    m.set(
        "engine.rung_share.on_demand_only",
        ratio((a.level_on_demand_only - b.level_on_demand_only) as f64, completed),
    );
    m.set("engine.degraded", degraded as f64);
    m.set("engine.deadline_misses", (a.deadline_misses - b.deadline_misses) as f64);
    m.set("engine.queue_high_water", a.queue_depth_high_water as f64);
    m.set("engine.busy_rejections", (a.busy_rejections - b.busy_rejections) as f64);
    m.set("engine.concurrency_speedup", concurrency_speedup);

    // engine, from the in-process replay with telemetry off
    let mut submit_us = Vec::new();
    let mut service_ms = Vec::new();
    for s in &lanes[off].samples {
        if let Answer::Plan(resp) = &s.answer {
            let worker = resp.latency.as_secs_f64();
            submit_us.push((s.latency_ms() / 1e3 - worker) * 1e6);
            let rungs: f64 = resp.trace.iter().map(|t| t.elapsed.as_secs_f64()).sum();
            service_ms.push((worker - rungs) * 1e3);
        }
    }
    m.set("engine.submit_overhead_p50_us", p50(&submit_us));
    m.set("engine.service_overhead_p50_ms", p50(&service_ms));

    // the layer walk
    let c = &walk.counts;
    let us = |name: &str| p50(&walk.rec.durations(name));
    m.set("engine.fingerprint_us", us("engine.fingerprint"));
    m.set("engine.cache_lookup_ns", us("engine.cache_lookup") * 1e3);
    m.set("engine.cache_insert_ns", us("engine.cache_insert") * 1e3);
    m.set("engine.ladder_p50_ms", us("engine.ladder") / 1e3);
    m.set("audit.audit_p50_ms", us("audit.audit") / 1e3);
    m.set("audit.tightenings_per_instance", mean(&c.tightenings));
    m.set("audit.nodes_ratio", ratio(c.nodes_audited as f64, c.nodes_plain as f64));
    m.set("core.build_p50_ms", us("core.build") / 1e3);
    m.set("core.model_rows", mean(&c.model_rows));
    m.set("core.model_cols", mean(&c.model_cols));
    m.set("core.model_integers", mean(&c.model_integers));
    m.set("core.ww_p50_us", us("core.ww"));
    m.set("core.tree_build_p50_ms", us("core.tree_build") / 1e3);
    m.set("core.tree_nodes", mean(&c.tree_nodes));
    let mut solve_ms: Vec<f64> =
        walk.rec.durations("milp.solve").iter().map(|us| us / 1e3).collect();
    stats::sort(&mut solve_ms);
    m.set("milp.solve_p50_ms", p50(&solve_ms));
    m.set("milp.solve_p90_ms", percentile_or_lower(&solve_ms, 90.0).0);
    if c.nodes.is_empty() {
        // no direct MilpProblem::solve (the SRRP rung hides its MILP):
        // the engine's solver-event counters are the only node count
        let nodes = (a.milp_nodes_total - b.milp_nodes_total) as f64;
        let solved = (a.cache_misses - b.cache_misses) as f64;
        m.set("milp.nodes_per_plan", ratio(nodes, solved));
        m.set("milp.lp_iters_per_node", ratio((a.lp_iters_total - b.lp_iters_total) as f64, nodes));
    } else {
        let nodes: f64 = c.nodes.iter().sum();
        m.set("milp.nodes_per_plan", mean(&c.nodes));
        m.set("milp.nodes_max", c.nodes.iter().cloned().fold(0.0, f64::max));
        m.set("milp.nodes_per_s", ratio(nodes, c.solve_seconds));
        m.set("milp.lp_solves_per_node", ratio(c.lp_solves as f64, nodes));
        m.set("milp.lp_iters_per_node", ratio(c.lp_iters as f64, nodes));
        m.set("milp.warm_hit_rate", ratio(c.lp_warm_hits as f64, c.lp_solves as f64));
        m.set("milp.bb_self_p50_ms", p50(&c.bb_self_ms));
        m.set("milp.proven_optimal_share", ratio(c.proven_optimal as f64, c.nodes.len() as f64));
    }
    m.set("lp.to_standard_p50_us", us("lp.to_standard"));
    m.set("lp.root_p50_ms", us("lp.root") / 1e3);
    m.set("lp.root_iters", mean(&c.root_iters));
    m.set("lp.us_per_iter", ratio(c.root_seconds * 1e6, c.root_iters.iter().sum()));
    m.set("lp.warm_resolve_p50_us", us("lp.warm_resolve"));
    m.set("lp.warm_resolve_iters", mean(&c.warm_iters));
    m.set("lp.warm_path_share", ratio(c.warm_taken as f64, c.warm_tried as f64));

    // telemetry and the harness itself
    let all_on = lanes.last().expect("the all-on lane");
    m.set("telemetry.all_on_ratio", ratio(all_on.busy_s(), lanes[off].busy_s()));
    // the counters' cost inside the engine: its own latency with them on,
    // over the same ops with them off
    let worker_s = |lane: &Lane| lane.samples.iter().filter_map(worker_latency_ms).sum::<f64>();
    m.set("telemetry.counters_ratio", ratio(worker_s(traced), worker_s(&lanes[0])));
    m.set("harness.trace_overhead_ratio", ratio(traced.busy_s(), lanes[0].busy_s()));
    let ms = sorted_latencies(&traced.samples);
    // the walked ops' plan latency against what the walk and the request
    // spans account for on the same ops
    let walked_ms: Vec<f64> =
        traced.samples.iter().filter(|s| s.op < n_walk).map(Sample::latency_ms).collect();
    let attributed: f64 =
        layers::path_durations_ms(&walk).values().map(|v| p50(v)).sum::<f64>() + p50(&outside_ms);
    m.set("harness.unattributed_share", ratio(p50(&walked_ms) - attributed, p50(&walked_ms)));
    m.set("harness.plan_p50_ms", p50(&ms));
    m.set("harness.plan_p99_ms", percentile_or_lower(&ms, 99.0).0);
    // user + system CPU per answered plan, over all lanes (catches a
    // latency win bought by busy-polling)
    m.set("harness.cpu_ms_per_plan", ratio(extras.cpu_s * 1e3, (n * lanes.len()) as f64));
    m.set("harness.traced_plans", traced.samples.len() as f64);
    m.set("harness.walked_plans", c.walked as f64);
    m.set("harness.answer_mismatches", c.mismatches.len() as f64);

    let (mut attempted, mut failed) = extra_checked;
    failed += walk.counts.mismatches.len() as u64;
    for lane in &lanes {
        attempted += lane.samples.len() as u64;
        failed += check_all(&inputs, &lane.samples);
    }
    Ok(Outcome { attempted, failed, metrics: m.finish() })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smoke size: every workload, timed and traced, at a fraction of a
    /// second each, so that every generator, door, check and metric runs.
    /// (Most of its ~20 s is the HTTP workloads pre-solving their warm sets
    /// once per engine.)
    #[test]
    fn smoke_runs_every_workload_and_check() {
        for w in Workload::ALL {
            let t = timed(w, 42, 0.3).unwrap_or_else(|e| panic!("{}: {}", w.name(), e.0));
            assert!(t.attempted > 0 && t.failed == 0, "{}: {} failed", w.name(), t.failed);
            assert_eq!(t.metrics.len(), END_TO_END.len());
            for m in &t.metrics {
                assert!(m.value > 0.0, "{}: {} reads {}", w.name(), m.name, m.value);
            }

            let file = crate::report::out_dir().join(format!("trace_smoke_{}.jsonl", w.name()));
            let r = traced(w, 42, 0.3, &file).unwrap_or_else(|e| panic!("{}: {}", w.name(), e.0));
            assert!(r.attempted > 0 && r.failed == 0, "{}: {} failed", w.name(), r.failed);
            assert_eq!(r.metrics.len(), PER_LAYER.len());
            let value = |name: &str| r.metrics.iter().find(|m| m.name == name).unwrap().value;
            assert_eq!(value("harness.answer_mismatches"), 0.0);
            assert_eq!(value("engine.degraded"), 0.0);
            assert_eq!(value("obs.http_overhead_p50_ms") > 0.0, w.is_http());
            let spans = std::fs::read_to_string(&file).expect("span file");
            assert!(spans.lines().count() > 40, "{}: span file too short", w.name());
            assert!(spans.lines().all(|l| serde_json::from_str(l).is_ok()));
        }
    }
}
