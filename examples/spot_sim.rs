//! Closed-loop spot-market simulation demo: play one fixed-seed synthetic
//! spot trace against the planning engine and report realised-vs-planned
//! cost plus SLO violations for every (bid policy × recovery policy)
//! combination, then soak the engine with concurrent simulated tenants.
//!
//! Run with: `cargo run --example spot_sim --release`
//!
//! Flags:
//! * `--seed <u64>`     master seed (default 20120521); every stream of the
//!   run derives from it, so the printed seed reproduces the report exactly
//! * `--slots <n>`      episode length in hours (default 24)
//! * `--horizon <n>`    rolling re-plan window (default 6)
//! * `--json <path>`    also write the matrix report as JSON (the input of
//!   `cargo run -p xtask -- simreport`)
//! * `--soak <n>`       run the multi-tenant soak with n tenants (0 = skip)
//! * `--serve-metrics <addr>`  expose `/metrics` etc. during the run
//! * `--hold <secs>`    keep the engine (and metrics server) alive after
//!   the run — watch with `cargo run -p xtask -- watch <addr>`

use std::time::{Duration, Instant};

use rrp_engine::{Engine, EngineConfig, MetricsConfig};
use rrp_sim::{run_matrix, run_soak, SimConfig, SoakConfig};

fn main() {
    let mut cfg = SimConfig::default();
    let mut json_path = None;
    let mut soak_tenants = 0usize;
    let mut metrics_addr = None;
    let mut hold_secs = 0u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |what: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("{arg} needs {what}");
                std::process::exit(2);
            }
        };
        match arg.as_str() {
            "--seed" => cfg.seed = take("a u64 seed").parse().expect("numeric --seed"),
            "--slots" => cfg.slots = take("a slot count").parse().expect("numeric --slots"),
            "--horizon" => {
                cfg.horizon = take("a window length").parse().expect("numeric --horizon")
            }
            "--json" => json_path = Some(take("a file path")),
            "--soak" => soak_tenants = take("a tenant count").parse().expect("numeric --soak"),
            "--serve-metrics" => metrics_addr = Some(take("an address (e.g. 127.0.0.1:9184)")),
            "--hold" => hold_secs = take("a number of seconds").parse().expect("numeric --hold"),
            other => eprintln!("ignoring unknown argument {other}"),
        }
    }

    let engine = match &metrics_addr {
        None => Engine::new(4),
        Some(addr) => Engine::with_config(
            4,
            EngineConfig {
                count_solver_events: true,
                metrics: Some(MetricsConfig { addr: Some(addr.clone()) }),
                ..Default::default()
            },
        ),
    };
    if let Some(addr) = engine.metrics_addr() {
        println!(
            "metrics served on http://{addr}/metrics  (watch: cargo run -p xtask -- watch {addr})\n"
        );
    }

    println!("== (bid × recovery) matrix, one fixed-seed trace ==");
    let start = Instant::now();
    let report = run_matrix(&engine, &cfg);
    print!("{}", report.render());
    println!("matrix of {} episodes in {:?}", report.cells.len(), start.elapsed());

    if let (Some(feedback), Some(fixed)) =
        (report.cell("feedback", "failover"), report.cell("static", "failover"))
    {
        println!(
            "feedback vs static (failover): realised {:.4} vs {:.4} — feedback saves {:.1}%",
            feedback.realised,
            fixed.realised,
            (1.0 - feedback.realised / fixed.realised) * 100.0
        );
    }

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json()).expect("write report JSON");
        println!("report written to {path} — gate with: cargo run -p xtask -- simreport {path}");
    }

    if soak_tenants > 0 {
        println!("\n== soak: {soak_tenants} concurrent tenants ==");
        let soak_cfg = SoakConfig { tenants: soak_tenants, seed: cfg.seed, ..Default::default() };
        let out = run_soak(&engine, &soak_cfg);
        println!(
            "{} tenants · {} requests in {:.0} ms ({:.0} rps) · cache hit rate {:.2} · \
             {} deadline misses · {} interruptions · {:.4} GB unrecovered",
            out.tenants,
            out.requests,
            out.wall_ms,
            out.rps,
            out.cache_hit_rate,
            out.deadline_misses,
            out.interruptions,
            out.unrecovered_gb
        );
    }

    if hold_secs > 0 {
        println!("\n== holding for {hold_secs}s with an episode trickle (Ctrl-C to stop) ==");
        let until = Instant::now() + Duration::from_secs(hold_secs);
        let mut i = 0usize;
        while Instant::now() < until {
            let mut tick = cfg.clone();
            tick.seed = cfg.seed.wrapping_add(i as u64);
            tick.slots = 6;
            tick.horizon = 3;
            tick.app_id = format!("hold-{i}");
            let mut bid = rrp_sim::FeedbackBid::default();
            let mut rec = rrp_sim::OnDemandFailover;
            let _ = rrp_sim::run_episode(&engine, &tick, &mut bid, &mut rec);
            i += 1;
            std::thread::sleep(Duration::from_millis(250));
        }
        println!("ran {i} trickle episodes");
    }

    println!("\nmaster seed {} reproduces this run exactly", report.master_seed);
}
