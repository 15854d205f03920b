//! The four workloads: their inputs, the engine each runs against, the
//! closed-loop driver and the answer checks.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rrp_core::{wagner_whitin, DrrpProblem, PlanningParams};
use rrp_engine::{
    DegradationLevel, Engine, EngineConfig, MetricsConfig, PlanRequest, PlanResponse, ProfConfig,
    ShardConfig, SloConfig,
};

use crate::gen::{self, MixedGen, MixedKind, SrrpOp, TreeClass, WireOp};
use crate::http::{self, Fatal, Reply};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CapCold,
    SrrpTree,
    HttpWarm,
    HttpMixed,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::CapCold, Workload::SrrpTree, Workload::HttpWarm, Workload::HttpMixed];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CapCold => "cap16_cold",
            Workload::SrrpTree => "srrp_tree",
            Workload::HttpWarm => "http_warm",
            Workload::HttpMixed => "http_mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn is_http(self) -> bool {
        matches!(self, Workload::HttpWarm | Workload::HttpMixed)
    }

    /// How the workload's requests reach the engine.
    pub fn door(self) -> Door {
        if self.is_http() {
            Door::Http
        } else {
            Door::InProcess
        }
    }

    /// Ops generated per second of run: about five times what the
    /// reference host completes, so a much faster program still has work
    /// for the whole run. A run that uses them all ends early, which the
    /// rates and percentiles survive.
    fn ops_per_second(self) -> usize {
        match self {
            Workload::CapCold => 400,
            Workload::SrrpTree => 300,
            Workload::HttpWarm => 2_000,
            Workload::HttpMixed => 250,
        }
    }

    pub fn op_count(self, seconds: f64) -> usize {
        ((self.ops_per_second() as f64 * seconds).ceil() as usize).max(40)
    }
}

/// Engine workers: one per core, each owning a shard.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Everything a run sends, generated from the seed before the clock starts.
pub enum Inputs {
    Cap(Vec<PlanRequest>),
    Srrp { classes: Vec<TreeClass>, ops: Vec<SrrpOp> },
    Warm { set: Vec<WireOp>, bodies: Vec<String>, oracles: Vec<f64>, picks: Vec<usize> },
    Mixed { gen: MixedGen, n: usize },
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64, n: usize) -> Self {
        match workload {
            Workload::CapCold => Inputs::Cap((0..n).map(|i| gen::cap_request(seed, i)).collect()),
            Workload::SrrpTree => Inputs::Srrp {
                classes: gen::tree_classes(),
                ops: (0..n).map(|i| gen::srrp_op(seed, i)).collect(),
            },
            Workload::HttpWarm => {
                let set = gen::warm_set(seed);
                Inputs::Warm {
                    bodies: set.iter().map(WireOp::body).collect(),
                    oracles: set.iter().map(WireOp::oracle).collect(),
                    picks: gen::warm_picks(seed, n),
                    set,
                }
            }
            Workload::HttpMixed => Inputs::Mixed { gen: MixedGen::new(seed), n },
        }
    }

    pub fn len(&self) -> usize {
        match self {
            Inputs::Cap(reqs) => reqs.len(),
            Inputs::Srrp { ops, .. } => ops.len(),
            Inputs::Warm { picks, .. } => picks.len(),
            Inputs::Mixed { n, .. } => *n,
        }
    }

    /// Op `i` as the in-process request the engine ends up solving.
    pub fn request(&self, i: usize) -> PlanRequest {
        match self {
            Inputs::Cap(reqs) => reqs[i].clone(),
            Inputs::Srrp { classes, ops } => ops[i].request(i, classes),
            Inputs::Warm { set, picks, .. } => set[picks[i]].request(),
            Inputs::Mixed { gen, .. } => gen.op(i).request(),
        }
    }

    /// The instances the engine must have solved before the run starts.
    pub fn warm_requests(&self) -> Vec<PlanRequest> {
        match self {
            Inputs::Warm { set, .. } => set.iter().map(WireOp::request).collect(),
            Inputs::Mixed { gen, .. } => gen.warm.iter().map(WireOp::request).collect(),
            _ => Vec::new(),
        }
    }

    /// Ops that repeat a warm body (the whole of `http_warm`, the 60 % of
    /// `http_mixed`), for the two-client round-trip probe.
    pub fn repeat_ops(&self, limit: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| match self {
                Inputs::Mixed { .. } => MixedGen::kind(i) == MixedKind::Repeat,
                _ => true,
            })
            .take(limit)
            .collect()
    }
}

/// Which telemetry the engine under test runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Telemetry {
    /// What the workload lists: nothing for the in-process workloads, the
    /// `metrics` server for `http_warm`, `metrics` + `prof` + `slo` for
    /// `http_mixed`.
    Workload,
    /// The same plus `count_solver_events` (the traced replay).
    WorkloadCounters,
    /// Nothing at all, and no server.
    Off,
    /// `metrics` + `prof` + `slo`, no server.
    AllOn,
}

/// An engine started for a workload, warm set already solved.
pub struct Target {
    pub engine: Engine,
    /// The exposition server, when the telemetry mode starts one.
    pub addr: Option<SocketAddr>,
}

impl Target {
    pub fn start(workload: Workload, inputs: &Inputs, telemetry: Telemetry) -> Result<Self, Fatal> {
        let served = matches!(telemetry, Telemetry::Workload | Telemetry::WorkloadCounters);
        let (metrics, all) = match telemetry {
            Telemetry::Workload | Telemetry::WorkloadCounters => {
                (workload.is_http(), workload == Workload::HttpMixed)
            }
            Telemetry::Off => (false, false),
            Telemetry::AllOn => (true, true),
        };
        let config = EngineConfig {
            count_solver_events: telemetry == Telemetry::WorkloadCounters,
            metrics: metrics.then(|| MetricsConfig {
                addr: served.then(|| "127.0.0.1:0".to_string()),
                ..Default::default()
            }),
            prof: all.then(ProfConfig::default),
            slo: all.then(SloConfig::default),
            shard: Some(ShardConfig::default()),
            ..Default::default()
        };
        let engine = Engine::with_config(nproc(), config);
        let addr = engine.metrics_addr();
        if served && workload.is_http() && addr.is_none() {
            return Err(Fatal("the engine's exposition server did not bind".to_string()));
        }
        for resp in engine.run_batch(inputs.warm_requests()) {
            if resp.plan.is_none() {
                return Err(Fatal(format!("warm-set instance of {} was rejected", resp.app_id)));
            }
        }
        Ok(Self { engine, addr })
    }
}

/// What came back for one op.
pub enum Answer {
    Plan(Box<PlanResponse>),
    /// The reply and, when its body is a `/plan` answer, the fields read
    /// from it.
    Http(Reply, Option<WireAnswer>),
}

/// One completed op of a drive.
pub struct Sample {
    pub op: usize,
    pub start: Instant,
    pub end: Instant,
    pub answer: Answer,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64() * 1e3
    }
}

/// How a drive reaches the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Door {
    /// `Engine::submit().wait()`.
    InProcess,
    /// `POST /plan` over loopback, one connection per request.
    Http,
}

/// Send op `i` and wait for its answer; the sample's interval is request
/// sent → answer received (and, over HTTP, read to EOF).
pub fn call(inputs: &Inputs, target: &Target, door: Door, i: usize) -> Result<Sample, Fatal> {
    match door {
        Door::InProcess => {
            let req = inputs.request(i);
            let start = Instant::now();
            let resp = target.engine.submit(req).wait();
            let end = Instant::now();
            Ok(Sample { op: i, start, end, answer: Answer::Plan(Box::new(resp)) })
        }
        Door::Http => {
            let addr = target.addr.ok_or_else(|| Fatal("no server to post to".to_string()))?;
            let rendered;
            let body = match inputs {
                Inputs::Warm { bodies, picks, .. } => bodies[picks[i]].as_str(),
                Inputs::Mixed { gen, .. } => {
                    rendered = gen.op(i).body();
                    rendered.as_str()
                }
                _ => return Err(Fatal("this workload has no wire format".to_string())),
            };
            let start = Instant::now();
            let reply = http::request(addr, "POST", "/plan", body)?;
            let end = Instant::now();
            let wire = parse_wire_answer(&reply.body);
            Ok(Sample { op: i, start, end, answer: Answer::Http(reply, wire) })
        }
    }
}

/// Result of one closed-loop drive.
pub struct Drive {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
}

/// Closed loop: `clients` threads each take the next op of `order`, send
/// it, wait for the answer, and only then take another. Stops when `order`
/// is used up or, if `seconds` is given, when that much time has passed
/// (requests in flight are waited for and counted).
pub fn drive(
    inputs: &Inputs,
    target: &Target,
    door: Door,
    clients: usize,
    order: &[usize],
    seconds: Option<f64>,
) -> Result<Drive, Fatal> {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let failure: Mutex<Option<Fatal>> = Mutex::new(None);
    let t0 = Instant::now();
    let deadline = seconds.map(|s| t0 + Duration::from_secs_f64(s));
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    // relaxed-ok: the flag only ends loops early
                    while !stop.load(Ordering::Relaxed) {
                        if deadline.is_some_and(|d| Instant::now() >= d) {
                            break;
                        }
                        // relaxed-ok: the counter only hands out indices
                        let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) else {
                            break;
                        };
                        match call(inputs, target, door, i) {
                            Ok(sample) => mine.push(sample),
                            Err(fatal) => {
                                stop.store(true, Ordering::Relaxed);
                                failure.lock().expect("client panicked").get_or_insert(fatal);
                            }
                        }
                    }
                    mine
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(fatal) = failure.into_inner().expect("client panicked") {
        return Err(fatal);
    }
    samples.sort_by_key(|s| s.op);
    Ok(Drive { samples, wall_s })
}

/// `|a − b|` within the solver's 1e-6 relative gap plus the wire format's
/// six decimals.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 2e-6 * a.abs().max(b.abs()).max(1.0)
}

/// The fields of a `/plan` response body the checks read.
pub struct WireAnswer {
    pub degradation: String,
    pub deadline_met: bool,
    pub latency_ms: f64,
    pub objective: Option<f64>,
}

fn parse_wire_answer(body: &str) -> Option<WireAnswer> {
    let v = serde_json::from_str(body).ok()?;
    Some(WireAnswer {
        degradation: v.get("degradation")?.as_str()?.to_string(),
        deadline_met: v.get("deadline_met")?.as_bool()?,
        latency_ms: v.get("latency_ms")?.as_f64()?,
        objective: v.get("objective").and_then(|o| o.as_f64()),
    })
}

/// Check the answer to op `i`. An op that failed, was refused, missed its
/// deadline, came from a lower rung than it asked for, or carries a wrong
/// plan is a failed op.
pub fn check(inputs: &Inputs, sample: &Sample) -> Result<(), String> {
    let i = sample.op;
    match &sample.answer {
        Answer::Plan(resp) => {
            let req = inputs.request(i);
            let Some(plan) = &resp.plan else {
                return Err(format!("op {i}: rejected: {:?}", resp.rejection));
            };
            if resp.degradation != req.policy.start_level() {
                return Err(format!("op {i}: answered from rung {:?}", resp.degradation));
            }
            if !resp.deadline_met {
                return Err(format!("op {i}: missed its deadline ({:?})", resp.latency));
            }
            if !plan.is_feasible(&req.schedule, &req.params, 1e-6) {
                return Err(format!("op {i}: plan is infeasible"));
            }
            if resp.degradation == DegradationLevel::Deterministic {
                let priced = DrrpProblem::new(req.schedule.clone(), req.params).cost_of(plan);
                if !close(priced, plan.objective) {
                    return Err(format!("op {i}: objective {} prices at {priced}", plan.objective));
                }
                // dropping the capacity can only make the optimum cheaper
                let bound =
                    wagner_whitin::solve(&req.schedule, &PlanningParams::default()).objective;
                if plan.objective < bound && !close(plan.objective, bound) {
                    return Err(format!(
                        "op {i}: objective {} beats bound {bound}",
                        plan.objective
                    ));
                }
            }
            Ok(())
        }
        Answer::Http(reply, wire) => {
            if reply.status != 200 {
                return Err(format!("op {i}: status {}: {}", reply.status, reply.body));
            }
            let (policy, oracle) = match inputs {
                Inputs::Warm { set, oracles, picks, .. } => {
                    (set[picks[i]].policy, oracles[picks[i]])
                }
                Inputs::Mixed { gen, .. } => {
                    let op = gen.op(i);
                    (op.policy, op.oracle())
                }
                _ => return Err(format!("op {i}: HTTP answer on an in-process workload")),
            };
            let answer =
                wire.as_ref().ok_or_else(|| format!("op {i}: unreadable body {}", reply.body))?;
            if answer.degradation != policy.rung().as_str() {
                return Err(format!("op {i}: answered from rung {}", answer.degradation));
            }
            if !answer.deadline_met {
                return Err(format!("op {i}: missed its deadline ({} ms)", answer.latency_ms));
            }
            match answer.objective {
                Some(obj) if close(obj, oracle) => Ok(()),
                other => Err(format!("op {i}: objective {other:?}, exact optimum {oracle}")),
            }
        }
    }
}

/// Check every sample; returns the failed count and prints the first few
/// reasons.
pub fn check_all(inputs: &Inputs, samples: &[Sample]) -> u64 {
    let mut failed = 0;
    for sample in samples {
        if let Err(why) = check(inputs, sample) {
            failed += 1;
            if failed <= 5 {
                eprintln!("check failed: {why}");
            }
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn wire_answers_parse_and_wrong_ones_fail_the_check() {
        let a = parse_wire_answer(
            "{\"app_id\":\"t\",\"degradation\":\"deterministic\",\"cache_hit\":true,\
             \"deadline_met\":true,\"latency_ms\":0.012,\"objective\":3.500000,\"rejected\":false}",
        )
        .unwrap();
        assert_eq!(a.degradation, "deterministic");
        assert_eq!(a.objective, Some(3.5));
        assert!(parse_wire_answer("{\"error\":\"busy\"}").is_none());

        let inputs = Inputs::generate(Workload::HttpWarm, 1, 4);
        let Inputs::Warm { oracles, picks, .. } = &inputs else { unreachable!() };
        let answer = |status, degradation: &str, met, obj: f64| {
            let body = format!(
                "{{\"degradation\":\"{degradation}\",\"deadline_met\":{met},\
                 \"latency_ms\":1.0,\"objective\":{obj:.6}}}"
            );
            let wire = parse_wire_answer(&body);
            let reply = Reply { status, body, connect_us: 0.0, bytes: 0 };
            Sample {
                op: 0,
                start: Instant::now(),
                end: Instant::now(),
                answer: Answer::Http(reply, wire),
            }
        };
        let exact = oracles[picks[0]];
        assert!(check(&inputs, &answer(200, "deterministic", true, exact)).is_ok());
        assert!(check(&inputs, &answer(429, "deterministic", true, exact)).is_err());
        assert!(check(&inputs, &answer(200, "dynamic-program", true, exact)).is_err());
        assert!(check(&inputs, &answer(200, "deterministic", false, exact)).is_err());
        assert!(check(&inputs, &answer(200, "deterministic", true, exact * 1.001)).is_err());
    }
}
