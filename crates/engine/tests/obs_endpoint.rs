//! The embedded exposition server on a live engine: concurrent scrapes
//! during solves always parse in full, required families are present,
//! `/readyz` flips to 503 while the queue sits over the high-water mark
//! and during shutdown, and dropping the engine takes the listener down.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use rrp_core::{CostSchedule, PlanningParams, ScenarioTree};
use rrp_engine::{
    Engine, EngineConfig, MetricsConfig, PlanRequest, PolicyKind, ShardConfig, MAX_HORIZON,
};
use rrp_obs::text::parse;
use rrp_spotmarket::{CostRates, EmpiricalDist};

fn http_get(addr: SocketAddr, path: &str) -> Option<(u16, String)> {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(2)).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes()).ok()?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).ok()?;
    let text = String::from_utf8(raw).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, body.to_string()))
}

/// POST returning `(status, full head, body)` — the head carries
/// `Retry-After` on a 429.
fn http_post(addr: SocketAddr, path: &str, body: &str) -> Option<(u16, String, String)> {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(30))).ok()?;
    s.write_all(
        format!("POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}", body.len())
            .as_bytes(),
    )
    .ok()?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).ok()?;
    let text = String::from_utf8(raw).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, head.to_string(), body.to_string()))
}

fn request(i: usize, horizon: usize) -> PlanRequest {
    let demand: Vec<f64> = (0..horizon).map(|t| 0.2 + 0.15 * ((i + t) % 5) as f64).collect();
    PlanRequest {
        app_id: format!("tenant-{}", i % 3),
        vm_class: "m1.small".into(),
        schedule: CostSchedule::ec2(vec![0.06; horizon], demand, &CostRates::ec2_2011()),
        params: PlanningParams::default(),
        tree: None,
        policy: PolicyKind::Deterministic,
        deadline: Duration::from_secs(30),
        seed: i as u64,
    }
}

/// A stochastic request heavy enough (tens of milliseconds) that a
/// 1-worker engine holds a visible backlog while a batch of them drains.
fn slow_request(i: usize) -> PlanRequest {
    let horizon = 8;
    let mut req = request(i, horizon);
    let d = EmpiricalDist::from_parts(vec![0.04, 0.12], vec![0.6, 0.4]);
    req.tree = Some(ScenarioTree::from_stage_distributions(&vec![d; horizon], 100_000));
    req.policy = PolicyKind::Stochastic;
    req
}

/// An engine serving on an ephemeral port with the given per-shard
/// admission / readiness bound.
fn serving_engine(workers: usize, queue_high_water: usize) -> (Engine, SocketAddr) {
    let engine = Engine::with_config(
        workers,
        EngineConfig {
            metrics: Some(MetricsConfig { addr: Some("127.0.0.1:0".to_string()) }),
            shard: Some(ShardConfig { queue_high_water }),
            ..Default::default()
        },
    );
    let addr = engine.metrics_addr().expect("ephemeral metrics server bound");
    (engine, addr)
}

#[test]
fn concurrent_scrapes_during_solves_parse_and_carry_families() {
    let (engine, addr) = serving_engine(2, 128);
    let reqs: Vec<PlanRequest> = (0..24).map(|i| request(i, 6)).collect();

    let scrapers: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                for _ in 0..25 {
                    let (code, body) = http_get(addr, "/metrics").expect("scrape answered");
                    assert_eq!(code, 200);
                    parse(&body).unwrap_or_else(|e| panic!("torn exposition: {e}\n{body}"));
                    std::thread::sleep(Duration::from_millis(2));
                }
            })
        })
        .collect();
    let responses = engine.run_batch(reqs);
    assert_eq!(responses.len(), 24);
    for s in scrapers {
        s.join().expect("scraper clean");
    }

    // after the batch, the exposition carries every advertised family with
    // per-tenant and per-rung label splits
    let (code, body) = http_get(addr, "/metrics").expect("final scrape");
    assert_eq!(code, 200);
    let samples = parse(&body).expect("final exposition parses");
    for family in [
        "rrp_completed_total",
        "rrp_queue_depth",
        "rrp_queue_depth_high_water",
        "rrp_trace_dropped_events_total",
        "rrp_cache_hit_rate",
        "rrp_workers",
        "rrp_request_latency_ms_count",
        "rrp_milp_nodes_opened_total",
        "rrp_lp_solves_total",
    ] {
        assert!(samples.iter().any(|s| s.name == family), "family `{family}` missing:\n{body}");
    }
    assert!(
        samples.iter().any(|s| s.name == "rrp_requests_total" && s.label("tenant").is_some()),
        "no per-tenant series"
    );
    assert!(
        samples.iter().any(|s| s.name == "rrp_level_served_total" && s.label("rung").is_some()),
        "no per-rung series"
    );
    assert!(
        samples.iter().any(|s| s.name == "rrp_completed_total" && (s.value - 24.0).abs() < 0.5),
        "completed counter disagrees with the batch size"
    );

    // /snapshot serves the JSON mirror, /healthz stays trivially up
    let (code, body) = http_get(addr, "/snapshot").expect("snapshot");
    assert_eq!(code, 200);
    assert!(body.contains("\"completed\":24"), "{body}");
    assert!(body.contains("\"tenants\":["), "{body}");
    let (code, body) = http_get(addr, "/healthz").expect("healthz");
    assert_eq!(code, 200);
    assert_eq!(body, "ok\n");
}

#[test]
fn readyz_flips_over_high_water_and_recovers() {
    // 1 worker, high-water 0: any queued request makes the engine not-ready
    let (engine, addr) = serving_engine(1, 0);
    let (code, _) = http_get(addr, "/readyz").expect("idle readyz");
    assert_eq!(code, 200);

    // pile up work faster than one worker drains it, then poll for the flip
    let tickets: Vec<_> = (0..12).map(|i| engine.submit(slow_request(i))).collect();
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut saw_503 = false;
    while Instant::now() < deadline {
        let (code, body) = http_get(addr, "/readyz").expect("readyz under load");
        if code == 503 {
            assert!(body.contains("over high-water"), "{body}");
            saw_503 = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(saw_503, "readyz never reported the backlog");

    for t in tickets {
        let _ = t.wait();
    }
    // drained: ready again
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (code, _) = http_get(addr, "/readyz").expect("readyz after drain");
        if code == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "readyz never recovered after the drain");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn readyz_holds_at_the_edge_and_flips_one_over() {
    // one shard, high-water 1: a backlog of exactly 1 sits *at* the edge
    // and must stay ready — the flip is strictly `depth > high_water`
    let (engine, addr) = serving_engine(1, 1);
    let (code, _) = http_get(addr, "/readyz").expect("idle readyz");
    assert_eq!(code, 200);

    let blocker = engine.submit(slow_request(0));
    // while the single request is in flight the depth is exactly the
    // high-water mark: every poll must stay 200 (no premature flip)
    for _ in 0..5 {
        let (code, body) = http_get(addr, "/readyz").expect("readyz at the edge");
        assert_eq!(code, 200, "503 at depth == high_water: {body}");
        std::thread::sleep(Duration::from_millis(1));
    }

    // one more queued request crosses the edge: poll for the 503 window
    let tickets: Vec<_> = (1..12).map(|i| engine.submit(slow_request(i))).collect();
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut saw_503 = false;
    while Instant::now() < deadline {
        let (code, body) = http_get(addr, "/readyz").expect("readyz over the edge");
        if code == 503 {
            assert!(body.contains("over high-water"), "{body}");
            saw_503 = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(saw_503, "readyz never reported the saturated shard");

    let _ = blocker.wait();
    for t in tickets {
        let _ = t.wait();
    }
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let (code, _) = http_get(addr, "/readyz").expect("readyz after drain");
        if code == 200 {
            break;
        }
        assert!(Instant::now() < deadline, "readyz never recovered after the drain");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn plan_intake_serves_a_tenant_request_over_http() {
    let (engine, addr) = serving_engine(2, 128);
    let body = r#"{"app_id":"http-tenant","policy":"deterministic","deadline_ms":30000,
        "compute":[0.06,0.06,0.06,0.06],"demand":[0.4,0.8,0.2,0.6]}"#;
    let (code, _, resp) = http_post(addr, "/plan", body).expect("plan intake answered");
    assert_eq!(code, 200, "{resp}");
    assert!(resp.contains("\"app_id\":\"http-tenant\""), "{resp}");
    assert!(resp.contains("\"objective\":"), "{resp}");
    assert!(resp.contains("\"deadline_met\":true"), "{resp}");

    // the request went through the real engine: counters and per-tenant
    // rows carry it
    let m = engine.metrics();
    assert_eq!(m.completed, 1);
    assert!(m.tenants.iter().any(|t| t.tenant == "http-tenant"));

    // malformed and unsupported intakes are rejected, not crashed on
    let (code, _, resp) = http_post(addr, "/plan", "{not json").expect("bad body answered");
    assert_eq!(code, 400, "{resp}");
    // hostile numbers stop at the boundary: 400 naming the field, no solve
    for body in [
        r#"{"app_id":"x","compute":[0.06],"demand":[1e999]}"#,
        r#"{"app_id":"x","compute":[0.06,0.06],"demand":[0.4,-0.5]}"#,
    ] {
        let (code, _, resp) = http_post(addr, "/plan", body).expect("hostile body answered");
        assert_eq!(code, 400, "{body}: {resp}");
        assert!(resp.contains("\\\"demand\\\""), "{resp}");
    }
    let (code, _, resp) =
        http_post(addr, "/plan", r#"{"app_id":"","compute":[0.06],"demand":[0.4]}"#)
            .expect("empty tenant answered");
    assert_eq!(code, 400, "{resp}");
    assert!(resp.contains("app_id"), "{resp}");
    // an absurd horizon stops at the boundary too, before any O(T²) work
    let series = vec!["0.25"; MAX_HORIZON + 1].join(",");
    let body = format!(r#"{{"app_id":"x","compute":[{series}],"demand":[{series}]}}"#);
    let (code, _, resp) = http_post(addr, "/plan", &body).expect("long horizon answered");
    assert_eq!(code, 400, "{resp}");
    assert!(resp.contains("\\\"compute\\\"") && resp.contains("horizon cap"), "{resp}");
    assert_eq!(engine.metrics().completed, 1, "a refused body must never reach a worker");
    let (code, _, resp) = http_post(
        addr,
        "/plan",
        r#"{"app_id":"x","policy":"stochastic","compute":[0.06],"demand":[0.4]}"#,
    )
    .expect("stochastic answered");
    assert_eq!(code, 400, "{resp}");
    assert!(resp.contains("stochastic"), "{resp}");
}

#[test]
fn plan_intake_backpressure_is_429_with_retry_after() {
    // high-water 0: every untrusted intake is refused at admission
    let (engine, addr) = serving_engine(1, 0);
    let body = r#"{"app_id":"shed-me","compute":[0.06,0.06],"demand":[0.4,0.2]}"#;
    let (code, head, resp) = http_post(addr, "/plan", body).expect("busy intake answered");
    assert_eq!(code, 429, "{resp}");
    assert!(head.contains("Retry-After: "), "429 must carry Retry-After:\n{head}");
    assert!(resp.contains("busy"), "{resp}");
    let m = engine.metrics();
    assert_eq!(m.busy_rejections, 1);
    assert_eq!(m.completed, 0);
}

#[test]
fn a_default_constructed_serving_engine_answers_plan_intake() {
    // no `shard` setting at all: the intake is still served, under the
    // default admission bound
    let engine = Engine::with_config(
        1,
        EngineConfig {
            metrics: Some(MetricsConfig { addr: Some("127.0.0.1:0".to_string()) }),
            ..Default::default()
        },
    );
    let addr = engine.metrics_addr().expect("ephemeral metrics server bound");
    let body = r#"{"app_id":"x","compute":[0.06],"demand":[0.4]}"#;
    let (code, _, resp) = http_post(addr, "/plan", body).expect("default intake answered");
    assert_eq!(code, 200, "{resp}");
}

#[test]
fn readyz_reports_shutting_down_while_the_queue_drains() {
    // 1 worker with a backlog: drop() flips the shutdown flag first, then
    // blocks joining the worker — a concurrent poller must see the 503
    // "shutting down" window before the listener goes away
    let (engine, addr) = serving_engine(1, usize::MAX);
    let _tickets: Vec<_> = (0..8).map(|i| engine.submit(slow_request(i))).collect();
    let poller = std::thread::spawn(move || {
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match http_get(addr, "/readyz") {
                Some((503, body)) if body.contains("shutting down") => return true,
                Some(_) => std::thread::sleep(Duration::from_millis(1)),
                None => return false, // listener already gone
            }
        }
        false
    });
    std::thread::sleep(Duration::from_millis(30)); // let the poller start
    drop(engine); // blocks until the backlog drains
    assert!(
        poller.join().expect("poller clean"),
        "readyz never reported `shutting down` during the drain"
    );
}

#[test]
fn drop_takes_the_listener_down() {
    let (engine, addr) = serving_engine(2, 128);
    let _ = engine.run_batch((0..4).map(|i| request(i, 5)).collect());
    let (code, _) = http_get(addr, "/healthz").expect("alive before drop");
    assert_eq!(code, 200);
    drop(engine);
    // the listener thread is joined by drop, so the port is closed; a
    // lingering TIME_WAIT accept would still refuse the request body
    let gone = http_get(addr, "/healthz").is_none();
    assert!(gone, "metrics server survived engine drop");
}

#[test]
fn engine_without_metrics_serves_nothing() {
    let engine = Engine::new(2);
    assert!(engine.metrics_addr().is_none());
    assert!(engine.render_metrics().is_none());
    assert!(engine.registry().is_none());
    let responses = engine.run_batch((0..4).map(|i| request(i, 5)).collect());
    assert_eq!(responses.len(), 4);
}
