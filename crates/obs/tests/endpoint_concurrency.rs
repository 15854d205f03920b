//! Endpoint concurrency: N threads scraping `/metrics` while writer
//! threads hammer the registry must never observe a torn or partial
//! exposition body — every scrape parses in full, counters only move
//! forward, and `/readyz` flips with the readiness hook.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rrp_obs::text::parse;
use rrp_obs::{ObsHooks, ObsServer, Readiness, Registry};

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

#[test]
fn concurrent_scrapes_never_tear() {
    let reg = Arc::new(Registry::new());
    let queue = Arc::new(AtomicUsize::new(0));
    let hooks = {
        let reg = Arc::clone(&reg);
        let queue = Arc::clone(&queue);
        ObsHooks {
            metrics_text: Box::new(move || reg.render()),
            snapshot_json: Box::new(|| "{\"ok\":true}".to_string()),
            readiness: Box::new(move || {
                let depth = queue.load(Ordering::SeqCst);
                if depth > 4 {
                    Readiness::not_ready(format!("queue depth {depth} over high-water 4"))
                } else {
                    Readiness::ready(format!("queue depth {depth}"))
                }
            }),
            profile_text: None,
            flight_json: None,
            slo_json: None,
            plan: None,
        }
    };
    let server = ObsServer::bind("127.0.0.1:0", hooks).expect("ephemeral bind");
    let addr = server.local_addr();

    // writers: sync labeled series (hostile labels included) nonstop, the
    // way a producer's scrape-time sync does
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let hist = rrp_trace::LogHistogram::new();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let tenant = format!("t\"{w}\\{}\n", i % 8);
                    reg.counter("scraped_total", "Updates", &[("tenant", &tenant)]).set(i);
                    reg.gauge("depth", "Depth", &[]).set(i as f64);
                    hist.record(i as f64);
                    reg.summary("lat_ms", "Latency", &[("rung", "full")]).set(&hist, i as f64);
                    i += 1;
                }
            })
        })
        .collect();

    // scrapers: every body must parse in full — a torn write surfaces as
    // a parse error, a truncated body as an HTTP framing error
    let scrapers: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut last_total = 0.0f64;
                for _ in 0..40 {
                    let (code, body) = http_get(addr, "/metrics").expect("scrape answered");
                    assert_eq!(code, 200);
                    let samples =
                        parse(&body).unwrap_or_else(|e| panic!("torn exposition: {e}\n{body}"));
                    // counters are monotonic across scrapes
                    let total: f64 =
                        samples.iter().filter(|s| s.name == "scraped_total").map(|s| s.value).sum();
                    assert!(total >= last_total, "counter went backwards: {last_total} -> {total}");
                    last_total = total;
                }
            })
        })
        .collect();
    for s in scrapers {
        s.join().expect("scraper clean");
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer clean");
    }
}

#[test]
fn readyz_follows_the_hook_under_load() {
    let queue = Arc::new(AtomicUsize::new(0));
    let hooks = {
        let queue = Arc::clone(&queue);
        ObsHooks {
            metrics_text: Box::new(String::new),
            snapshot_json: Box::new(|| "{}".to_string()),
            readiness: Box::new(move || {
                let depth = queue.load(Ordering::SeqCst);
                if depth > 4 {
                    Readiness::not_ready(format!("queue depth {depth} over high-water 4"))
                } else {
                    Readiness::ready(format!("queue depth {depth}"))
                }
            }),
            profile_text: None,
            flight_json: None,
            slo_json: None,
            plan: None,
        }
    };
    let server = ObsServer::bind("127.0.0.1:0", hooks).expect("ephemeral bind");
    let addr = server.local_addr();

    let (code, _) = http_get(addr, "/readyz").expect("readyz");
    assert_eq!(code, 200);
    queue.store(9, Ordering::SeqCst);
    let (code, body) = http_get(addr, "/readyz").expect("readyz over high-water");
    assert_eq!(code, 503);
    assert!(body.contains("over high-water"), "{body}");
    queue.store(0, Ordering::SeqCst);
    let (code, _) = http_get(addr, "/readyz").expect("readyz recovered");
    assert_eq!(code, 200);
}
