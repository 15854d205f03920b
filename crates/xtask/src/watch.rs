//! `cargo run -p xtask -- watch <addr>` — a live terminal dashboard over a
//! planning engine's `/metrics` endpoint.
//!
//! Polls the Prometheus text exposition once per interval (default 1 s),
//! parses it with `rrp_obs::text::parse`, and repaints one screen:
//! throughput (completed/s, with a sparkline of its history), queue depth
//! against its high-water mark, cache hit rate, the degradation-rung
//! distribution as bars, p50/p99 request latency, gap-at-timeout, the
//! busiest tenants, and the `/readyz` verdict.
//!
//! Exits cleanly on Ctrl-C (no terminal modes are changed — the default
//! SIGINT disposition is already clean). Transient scrape failures —
//! a refused connect, a 5xx, a torn body mid-restart — are retried with
//! exponential backoff instead of killing the watch; only
//! [`MAX_CONSECUTIVE_FAILURES`] misses in a row end it (exit 0 when a
//! previously reachable server went away — engine shutdown ends the
//! watch, it does not fail it — exit 1 when it never answered).
//! `--frames <n>` renders a fixed number of frames and exits — the
//! CI/scripting mode. `--interval-ms <n>` adjusts the poll rate.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rrp_obs::text::{parse, Sample};

/// Sparkline glyphs, low to high (same palette as the trace report).
const BARS: &[char] = &['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
/// Maximum sparkline / bar width in glyphs.
const WIDTH: usize = 48;
/// History points kept for sparklines.
const HISTORY: usize = WIDTH;
/// Scrape failures in a row before the watch gives up.
const MAX_CONSECUTIVE_FAILURES: u32 = 5;
/// Backoff ceiling between retries.
const MAX_BACKOFF: Duration = Duration::from_secs(10);

pub fn run(args: &[String]) -> ExitCode {
    let mut addr = None;
    let mut interval = Duration::from_millis(1000);
    let mut frames: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval-ms" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) => interval = Duration::from_millis(ms.max(50)),
                None => return usage("--interval-ms needs an integer argument"),
            },
            "--frames" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => frames = Some(n),
                None => return usage("--frames needs an integer argument"),
            },
            flag if flag.starts_with('-') => return usage(&format!("unknown flag {flag}")),
            a => {
                if addr.replace(a.to_string()).is_some() {
                    return usage("more than one address given");
                }
            }
        }
    }
    let Some(addr) = addr else {
        return usage("no address given (e.g. 127.0.0.1:9184)");
    };

    let mut state = WatchState::default();
    let mut frame: u64 = 0;
    let mut failures: u32 = 0;
    loop {
        let t0 = Instant::now();
        // a failed poll is transient until proven terminal: engines
        // restart, scrapes race shutdowns, CI starts the watcher before
        // the server — so back off and retry instead of dying on the
        // first miss
        let mut failure: Option<String> = None;
        match http_get(&addr, "/metrics") {
            Some((200, body)) => match parse(&body) {
                Ok(samples) => {
                    failures = 0;
                    let ready = http_get(&addr, "/readyz");
                    frame += 1;
                    let screen = render(&addr, frame, interval, &samples, ready, &mut state);
                    // clear + home, then repaint — no raw mode, no alt screen
                    print!("\x1b[2J\x1b[H{screen}");
                    let _ = std::io::stdout().flush();
                }
                Err(e) => {
                    failure = Some(format!("{addr}/metrics returned an unparseable body: {e}"));
                }
            },
            Some((code, _)) => failure = Some(format!("{addr}/metrics answered HTTP {code}")),
            None => failure = Some(format!("cannot reach {addr}/metrics")),
        }
        if let Some(why) = failure {
            failures += 1;
            if failures >= MAX_CONSECUTIVE_FAILURES {
                if frame > 0 {
                    println!("\nwatch: {addr} went away after {frame} frame(s) — engine shut down");
                    return ExitCode::SUCCESS;
                }
                eprintln!("watch: {why}");
                eprintln!(
                    "       giving up after {MAX_CONSECUTIVE_FAILURES} attempts — is the engine serving?"
                );
                eprintln!("       (start one with: cargo run --example planning_service --release -- --serve-metrics {addr} --hold 60)");
                return ExitCode::FAILURE;
            }
            let delay = backoff_delay(failures, interval);
            eprintln!(
                "watch: {why} — retrying in {:.1}s ({failures}/{MAX_CONSECUTIVE_FAILURES})",
                delay.as_secs_f64()
            );
            std::thread::sleep(delay);
            continue;
        }
        if frames.is_some_and(|n| frame >= n) {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(interval.saturating_sub(t0.elapsed()));
    }
}

/// Exponential backoff for retry `attempt` (1-based): the poll interval
/// doubled per miss, clamped to [`MAX_BACKOFF`].
fn backoff_delay(attempt: u32, interval: Duration) -> Duration {
    let factor = 1u32 << attempt.saturating_sub(1).min(16);
    interval.saturating_mul(factor).min(MAX_BACKOFF)
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("watch: {msg}");
    eprintln!("usage: cargo run -p xtask -- watch <addr> [--interval-ms <n>] [--frames <n>]");
    ExitCode::from(2)
}

/// Cross-frame state: last counters for rate derivation plus sparkline
/// histories.
#[derive(Default)]
struct WatchState {
    last: Option<(Instant, f64)>,
    throughput: VecDeque<f64>,
    queue: VecDeque<f64>,
    /// One depth history per shard, indexed by shard id (sharded engines).
    shard_queues: Vec<VecDeque<f64>>,
}

/// Minimal HTTP/1.1 GET returning (status, body). `None` on any socket
/// error — connection refused after a successful frame means shutdown.
/// Shared with the `slo` and `prof` subcommands for their live scrapes.
pub(crate) fn http_get(addr: &str, path: &str) -> Option<(u16, String)> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes()).ok()?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).ok()?;
    let text = String::from_utf8(raw).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
    Some((status, body.to_string()))
}

fn value(samples: &[Sample], name: &str) -> Option<f64> {
    samples.iter().find(|s| s.name == name && s.labels.is_empty()).map(|s| s.value)
}

fn labeled(samples: &[Sample], name: &str, key: &str, val: &str) -> Option<f64> {
    samples.iter().find(|s| s.name == name && s.label(key) == Some(val)).map(|s| s.value)
}

fn render(
    addr: &str,
    frame: u64,
    interval: Duration,
    samples: &[Sample],
    ready: Option<(u16, String)>,
    state: &mut WatchState,
) -> String {
    let mut out = String::with_capacity(2048);
    let completed = value(samples, "rrp_completed_total").unwrap_or(0.0);
    let now = Instant::now();
    let throughput = match state.last {
        Some((t, prev)) => {
            let dt = now.duration_since(t).as_secs_f64().max(1e-9);
            ((completed - prev) / dt).max(0.0)
        }
        None => 0.0,
    };
    state.last = Some((now, completed));
    push_history(&mut state.throughput, throughput);
    let queue = value(samples, "rrp_queue_depth").unwrap_or(0.0);
    push_history(&mut state.queue, queue);

    let _ = writeln!(
        out,
        "rrp watch — {addr}   frame {frame}   every {:.1}s   (Ctrl-C to quit)",
        interval.as_secs_f64()
    );
    let _ = writeln!(
        out,
        "  throughput  {throughput:>8.1} req/s   {} total   {}",
        completed as u64,
        sparkline(&state.throughput)
    );
    let high = value(samples, "rrp_queue_depth_high_water").unwrap_or(0.0);
    let _ = writeln!(
        out,
        "  queue       {:>8} deep      high-water {}   {}",
        queue as u64,
        high as u64,
        sparkline(&state.queue)
    );
    // per-shard queue panel (present only on sharded engines): one
    // sparkline per shard, so a single saturated shard is visible even
    // when the merged depth above looks healthy
    let mut shard_rows: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.name == "rrp_shard_queue_depth" && s.label("shard").is_some())
        .collect();
    if !shard_rows.is_empty() {
        shard_rows.sort_by_key(|s| {
            s.label("shard").and_then(|v| v.parse::<usize>().ok()).unwrap_or(usize::MAX)
        });
        if state.shard_queues.len() < shard_rows.len() {
            state.shard_queues.resize_with(shard_rows.len(), VecDeque::new);
        }
        let _ = writeln!(out, "  shard queues:");
        for (i, s) in shard_rows.iter().enumerate() {
            let shard = s.label("shard").unwrap_or("?");
            push_history(&mut state.shard_queues[i], s.value);
            let hw =
                labeled(samples, "rrp_shard_queue_depth_high_water", "shard", shard).unwrap_or(0.0);
            let busy =
                labeled(samples, "rrp_shard_busy_rejections_total", "shard", shard).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "    shard {shard:<3} {:>6} deep   high-water {:<5} {:>6} busy   {}",
                s.value as u64,
                hw as u64,
                busy as u64,
                sparkline(&state.shard_queues[i])
            );
        }
    }
    let hit_rate = value(samples, "rrp_cache_hit_rate").unwrap_or(0.0);
    let entries = value(samples, "rrp_cache_entries").unwrap_or(0.0);
    let _ = writeln!(
        out,
        "  cache       {:>7.1}% hit rate  {} entries",
        hit_rate * 100.0,
        entries as u64
    );
    let p50 = labeled(samples, "rrp_request_latency_ms", "quantile", "0.5");
    let p99 = labeled(samples, "rrp_request_latency_ms", "quantile", "0.99");
    let _ = writeln!(
        out,
        "  latency     p50 {}   p99 {}",
        p50.map_or("-".to_string(), fmt_ms),
        p99.map_or("-".to_string(), fmt_ms)
    );
    let gap_n = value(samples, "rrp_milp_gap_at_timeout_count").unwrap_or(0.0);
    if gap_n > 0.0 {
        let g50 = labeled(samples, "rrp_milp_gap_at_timeout", "quantile", "0.5").unwrap_or(0.0);
        let g99 = labeled(samples, "rrp_milp_gap_at_timeout", "quantile", "0.99").unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  gap@timeout p50 {:.1}%   p99 {:.1}%   ({} budget-stopped solves)",
            g50 * 100.0,
            g99 * 100.0,
            gap_n as u64
        );
    }
    let dropped = value(samples, "rrp_trace_dropped_events_total").unwrap_or(0.0);
    if dropped > 0.0 {
        let _ = writeln!(out, "  dropped     {} trace events lost under pressure", dropped as u64);
    }

    // flight-recorder panel (present only on profiling engines)
    if let Some(sampled) = value(samples, "rrp_prof_samples_total") {
        let paths = value(samples, "rrp_prof_distinct_paths").unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  profiler    {:>8} samples   {} distinct span paths",
            sampled as u64, paths as u64
        );
    }
    if let Some(ring) = value(samples, "rrp_flight_ring_events") {
        let dumps = value(samples, "rrp_flight_dumps_total").unwrap_or(0.0);
        let evicted = value(samples, "rrp_flight_ring_dropped_total").unwrap_or(0.0);
        let cause = samples
            .iter()
            .find(|s| s.name == "rrp_flight_last_trigger" && s.value > 0.0)
            .and_then(|s| s.label("cause"))
            .unwrap_or("-");
        let _ = writeln!(
            out,
            "  flight      {:>8} ring events   {} dumps   last trigger {}{}",
            ring as u64,
            dumps as u64,
            cause,
            if evicted > 0.0 { format!("   ({} evicted)", evicted as u64) } else { String::new() }
        );
    }

    // SLO panel (present only when the engine runs an SLO engine)
    if let Some(alerts) = value(samples, "rrp_slo_alerts_total") {
        let tenants = value(samples, "rrp_slo_tenants").unwrap_or(0.0);
        let retained = value(samples, "rrp_slo_exemplars_retained_total").unwrap_or(0.0);
        let dropped = value(samples, "rrp_slo_exemplars_dropped_total").unwrap_or(0.0);
        let _ = writeln!(
            out,
            "  slo         {:>8} tenants   {} alert(s)   {} exemplars retained ({} dropped)",
            tenants as u64, alerts as u64, retained as u64, dropped as u64
        );
        let worst_burn = samples
            .iter()
            .filter(|s| s.name == "rrp_slo_burn_rate")
            .max_by(|a, b| a.value.total_cmp(&b.value));
        if let Some(w) = worst_burn.filter(|w| w.value > 0.0) {
            let _ = writeln!(
                out,
                "    hottest burn    {}/{} over {} at {:.1}x budget",
                compact(w.label("tenant").unwrap_or("?")),
                w.label("objective").unwrap_or("?"),
                w.label("window").unwrap_or("?"),
                w.value
            );
        }
        let tightest = samples
            .iter()
            .filter(|s| s.name == "rrp_slo_budget_remaining")
            .min_by(|a, b| a.value.total_cmp(&b.value));
        if let Some(t) = tightest {
            let _ = writeln!(
                out,
                "    tightest budget {}/{} at {:.2} remaining",
                compact(t.label("tenant").unwrap_or("?")),
                t.label("objective").unwrap_or("?"),
                t.value
            );
        }
    }

    let _ = writeln!(out, "  rungs served:");
    let rungs = ["full", "deterministic", "dynamic-program", "on-demand-only"];
    let served: Vec<f64> = rungs
        .iter()
        .map(|r| labeled(samples, "rrp_level_served_total", "rung", r).unwrap_or(0.0))
        .collect();
    let max = served.iter().cloned().fold(0.0_f64, f64::max).max(1.0);
    for (rung, n) in rungs.iter().zip(&served) {
        let width = ((n / max) * WIDTH as f64).ceil() as usize;
        let bar: String = "█".repeat(if *n > 0.0 { width.max(1) } else { 0 });
        let _ = writeln!(out, "    {rung:<16} {bar} {}", *n as u64);
    }

    let mut tenants: Vec<&Sample> = samples
        .iter()
        .filter(|s| s.name == "rrp_requests_total" && s.label("tenant").is_some())
        .collect();
    if !tenants.is_empty() {
        tenants.sort_by(|a, b| b.value.total_cmp(&a.value));
        let _ = writeln!(out, "  busiest tenants:");
        for s in tenants.iter().take(5) {
            let tenant = s.label("tenant").unwrap_or("?");
            let misses =
                labeled(samples, "rrp_deadline_miss_total", "tenant", tenant).unwrap_or(0.0);
            let _ = writeln!(
                out,
                "    {:<20} {:>6} requests   {} deadline misses",
                compact(tenant),
                s.value as u64,
                misses as u64
            );
        }
    }

    match ready {
        Some((200, detail)) => {
            let _ = writeln!(out, "  readyz      ready ({})", detail.trim());
        }
        Some((code, detail)) => {
            let _ = writeln!(out, "  readyz      NOT READY [{code}] ({})", detail.trim());
        }
        None => {
            let _ = writeln!(out, "  readyz      unreachable");
        }
    }
    out
}

fn push_history(h: &mut VecDeque<f64>, v: f64) {
    if h.len() == HISTORY {
        h.pop_front();
    }
    h.push_back(v);
}

fn sparkline(history: &VecDeque<f64>) -> String {
    let max = history.iter().cloned().fold(0.0_f64, f64::max);
    if max <= 0.0 {
        return String::new();
    }
    history
        .iter()
        .map(|&v| {
            let idx = ((v / max) * (BARS.len() - 1) as f64).round() as usize;
            BARS[idx.min(BARS.len() - 1)]
        })
        .collect()
}

/// Truncate a tenant id to the table column, escaping nothing — the parser
/// already unescaped it, so control characters are replaced for display.
fn compact(tenant: &str) -> String {
    let clean: String =
        tenant.chars().map(|c| if c.is_control() { '·' } else { c }).take(20).collect();
    clean
}

fn fmt_ms(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.2} s", ms / 1000.0)
    } else if ms >= 1.0 {
        format!("{ms:.1} ms")
    } else {
        format!("{:.0} µs", ms * 1000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_body() -> Vec<Sample> {
        parse(
            "rrp_completed_total 64\n\
             rrp_queue_depth 3\n\
             rrp_queue_depth_high_water 17\n\
             rrp_cache_hit_rate 0.5\n\
             rrp_cache_entries 12\n\
             rrp_trace_dropped_events_total 2\n\
             rrp_request_latency_ms{quantile=\"0.5\"} 12.5\n\
             rrp_request_latency_ms{quantile=\"0.99\"} 88.0\n\
             rrp_milp_gap_at_timeout_count 0\n\
             rrp_level_served_total{rung=\"full\"} 40\n\
             rrp_level_served_total{rung=\"deterministic\"} 20\n\
             rrp_level_served_total{rung=\"dynamic-program\"} 4\n\
             rrp_level_served_total{rung=\"on-demand-only\"} 0\n\
             rrp_shards 2\n\
             rrp_shard_queue_depth{shard=\"1\"} 9\n\
             rrp_shard_queue_depth{shard=\"0\"} 2\n\
             rrp_shard_queue_depth_high_water{shard=\"0\"} 4\n\
             rrp_shard_queue_depth_high_water{shard=\"1\"} 12\n\
             rrp_shard_busy_rejections_total{shard=\"1\"} 7\n\
             rrp_requests_total{tenant=\"acme\"} 50\n\
             rrp_requests_total{tenant=\"zephyr\"} 14\n\
             rrp_deadline_miss_total{tenant=\"acme\"} 1\n\
             rrp_prof_samples_total 4821\n\
             rrp_prof_distinct_paths 9\n\
             rrp_flight_ring_events 311\n\
             rrp_flight_dumps_total 1\n\
             rrp_flight_ring_dropped_total 0\n\
             rrp_flight_last_trigger{cause=\"deadline_miss_spike\"} 1\n\
             rrp_flight_last_trigger{cause=\"panic\"} 0\n\
             rrp_slo_tenants 2\n\
             rrp_slo_alerts_total 1\n\
             rrp_slo_exemplars_retained_total 3\n\
             rrp_slo_exemplars_dropped_total 61\n\
             rrp_slo_burn_rate{tenant=\"acme\",objective=\"deadline_miss\",window=\"5m\"} 99.9\n\
             rrp_slo_burn_rate{tenant=\"zephyr\",objective=\"latency\",window=\"1h\"} 0.2\n\
             rrp_slo_budget_remaining{tenant=\"acme\",objective=\"deadline_miss\"} -3.21\n\
             rrp_slo_budget_remaining{tenant=\"zephyr\",objective=\"latency\"} 0.98\n",
        )
        .expect("test body parses")
    }

    #[test]
    fn render_shows_every_section() {
        let samples = sample_body();
        let mut state = WatchState::default();
        // two frames so throughput has a delta
        let _ = render(
            "127.0.0.1:1",
            1,
            Duration::from_millis(100),
            &samples,
            Some((200, "queue depth 3\n".into())),
            &mut state,
        );
        let screen = render(
            "127.0.0.1:1",
            2,
            Duration::from_millis(100),
            &samples,
            Some((503, "queue depth 999 over high-water 128\n".into())),
            &mut state,
        );
        assert!(screen.contains("throughput"), "{screen}");
        assert!(screen.contains("high-water 17"), "{screen}");
        assert!(screen.contains("50.0% hit rate"), "{screen}");
        assert!(screen.contains("p50 12.5 ms"), "{screen}");
        assert!(screen.contains("full"), "{screen}");
        assert!(screen.contains("acme"), "{screen}");
        assert!(screen.contains("2 trace events lost"), "{screen}");
        assert!(screen.contains("NOT READY [503]"), "{screen}");
        assert!(screen.contains("shard queues:"), "{screen}");
        // rows come out ordered by shard id even though the scrape wasn't
        let s0 = screen.find("shard 0").expect("shard 0 row");
        let s1 = screen.find("shard 1").expect("shard 1 row");
        assert!(s0 < s1, "{screen}");
        assert!(screen.contains("high-water 12"), "{screen}");
        assert!(screen.contains("7 busy"), "{screen}");
        assert!(screen.contains("4821 samples"), "{screen}");
        assert!(screen.contains("311 ring events"), "{screen}");
        assert!(screen.contains("last trigger deadline_miss_spike"), "{screen}");
        assert!(screen.contains("2 tenants   1 alert(s)   3 exemplars retained"), "{screen}");
        assert!(screen.contains("hottest burn    acme/deadline_miss over 5m at 99.9x"), "{screen}");
        assert!(screen.contains("tightest budget acme/deadline_miss at -3.21"), "{screen}");
    }

    #[test]
    fn backoff_doubles_from_the_interval_and_caps() {
        let base = Duration::from_millis(500);
        assert_eq!(backoff_delay(1, base), Duration::from_millis(500));
        assert_eq!(backoff_delay(2, base), Duration::from_millis(1000));
        assert_eq!(backoff_delay(3, base), Duration::from_millis(2000));
        assert_eq!(backoff_delay(10, base), MAX_BACKOFF);
        // huge attempt counts do not overflow the shift
        assert_eq!(backoff_delay(u32::MAX, base), MAX_BACKOFF);
    }

    #[test]
    fn flight_panel_is_absent_without_prof_metrics() {
        let samples = parse("rrp_completed_total 4\n").expect("parses");
        let mut state = WatchState::default();
        let screen =
            render("127.0.0.1:1", 1, Duration::from_millis(100), &samples, None, &mut state);
        assert!(!screen.contains("profiler"), "{screen}");
        assert!(!screen.contains("flight"), "{screen}");
        assert!(!screen.contains("slo"), "{screen}");
        assert!(!screen.contains("shard queues"), "{screen}");
    }

    #[test]
    fn sparkline_scales_to_max() {
        let mut h = VecDeque::new();
        for v in [0.0, 1.0, 2.0, 4.0] {
            push_history(&mut h, v);
        }
        let line = sparkline(&h);
        assert_eq!(line.chars().count(), 4);
        assert!(line.ends_with('█'), "{line}");
    }

    #[test]
    fn hostile_tenant_ids_render_without_control_chars() {
        assert_eq!(compact("evil\ntenant"), "evil·tenant");
    }
}
