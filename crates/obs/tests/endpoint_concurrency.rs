//! Endpoint concurrency: N threads scraping `/metrics` while writer
//! threads hammer the ledgers it renders from must never observe a torn
//! or partial exposition body — every scrape parses in full, counters only
//! move forward, and `/readyz` flips with the readiness hook.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use rrp_obs::text::parse;
use rrp_obs::{http_request, Exposition, ObsHooks, ObsServer, Readiness};
use rrp_trace::LogHistogram;

/// What the writers bump and every scrape renders into a fresh
/// [`Exposition`]: a request count per (hostile) tenant id, a depth gauge
/// and a latency ledger.
struct Ledger {
    tenants: Vec<(String, AtomicU64)>,
    depth: AtomicU64,
    latency: LogHistogram,
    latency_sum: AtomicU64,
}

impl Ledger {
    fn render(&self) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let rows: Vec<(&str, u64)> =
            self.tenants.iter().map(|(t, n)| (t.as_str(), load(n))).collect();
        let mut x = Exposition::default();
        x.counter_family("scraped_total", "Updates", "tenant", &rows);
        x.gauge("depth", "Depth", &[], load(&self.depth) as f64);
        x.summary(
            "lat_ms",
            "Latency",
            &[("rung", "full")],
            &self.latency,
            load(&self.latency_sum) as f64,
        );
        x.render()
    }
}

#[test]
fn concurrent_scrapes_never_tear() {
    let ledger = Arc::new(Ledger {
        tenants: (0..16)
            .map(|i| (format!("t\"{}\\{}\n", i / 8, i % 8), AtomicU64::new(0)))
            .collect(),
        depth: AtomicU64::new(0),
        latency: LogHistogram::new(),
        latency_sum: AtomicU64::new(0),
    });
    let queue = Arc::new(AtomicUsize::new(0));
    let hooks = {
        let ledger = Arc::clone(&ledger);
        let queue = Arc::clone(&queue);
        ObsHooks {
            metrics_text: Box::new(move || ledger.render()),
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

    // writers: bump the ledgers (hostile tenant ids included) nonstop
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2)
        .map(|w| {
            let ledger = Arc::clone(&ledger);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    ledger.tenants[w * 8 + (i % 8) as usize].1.fetch_add(1, Ordering::Relaxed);
                    ledger.depth.store(i, Ordering::Relaxed);
                    ledger.latency.record(i as f64);
                    ledger.latency_sum.fetch_add(i, Ordering::Relaxed);
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
                    let (code, _, body) =
                        http_request(addr, "GET", "/metrics", None).expect("scrape answered");
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

    let (code, _, _) = http_request(addr, "GET", "/readyz", None).expect("readyz");
    assert_eq!(code, 200);
    queue.store(9, Ordering::SeqCst);
    let (code, _, body) =
        http_request(addr, "GET", "/readyz", None).expect("readyz over high-water");
    assert_eq!(code, 503);
    assert!(body.contains("over high-water"), "{body}");
    queue.store(0, Ordering::SeqCst);
    let (code, _, _) = http_request(addr, "GET", "/readyz", None).expect("readyz recovered");
    assert_eq!(code, 200);
}
