//! Workspace automation.
//!
//! * `cargo run -p xtask -- analyze` runs the full static-analysis gate
//!   from `rrp-lint`: the token-level solver-safety scan (no
//!   unwrap/panic/float-`==`) plus the concurrency passes (lock-order
//!   cycles, held-lock-across-blocking, atomic-ordering audit,
//!   unbounded growth), justified against `lint-allow.txt` (see
//!   [`analyze`]).
//! * `cargo run -p xtask -- lint` is the same gate under its historical
//!   name — kept so muscle memory and old scripts keep working.
//! * `cargo run -p xtask -- trace <file.jsonl>` renders a report from an
//!   `rrp-trace` JSONL stream (see [`trace`]); `--assert-gap-closed` and
//!   `--assert-warm-rate <pct>` are the CI assertion modes.
//! * `cargo run -p xtask -- watch <addr>` is a live terminal dashboard
//!   over an engine's `/metrics` endpoint (see [`watch`]).
//! * `cargo run -p xtask -- benchdiff <baseline.json> <current.json>`
//!   compares two `results/BENCH_*.json` files and fails when a count or
//!   objective moved or an instance went missing; wall time is shown, not
//!   gated (see [`benchdiff`]).
//! * `cargo run -p xtask -- simreport <report.json>` gates a closed-loop
//!   sim report: bounded realised/planned ratio, no stranded demand, no
//!   deadline misses (see [`simreport`]).
//! * `cargo run -p xtask -- prof <addr|file>` renders a continuous
//!   profile — live `/profile` scrape, collapsed file, or post-mortem
//!   bundle — as a self/total "top phases" table (see [`prof`]).
//! * `cargo run -p xtask -- postmortem <bundle.json>` renders a flight
//!   recorder's dump as an incident report (see [`postmortem`]).
//! * `cargo run -p xtask -- slo <addr|bundle.json>` renders an engine's
//!   per-tenant error budgets and burn rates as a table, plus a
//!   span-waterfall view of a tail-sampled exemplar timeline (see
//!   [`slo`]).
//! * `cargo run -p xtask -- ab <rev> --workload W --pairs N --seed S` runs
//!   the repo benchmark in alternating pairs, `<rev>` against the working
//!   tree, and prints each end-to-end metric's median [q1, q3] per side,
//!   the wins and the failed ops (see [`ab`]).

mod ab;
mod analyze;
mod benchdiff;
mod postmortem;
mod prof;
mod simreport;
mod slo;
mod trace;
mod watch;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze::run(&args[1..]),
        Some("lint") => analyze::run(&args[1..]),
        Some("trace") => trace::run(&args[1..]),
        Some("watch") => watch::run(&args[1..]),
        Some("benchdiff") => benchdiff::run(&args[1..]),
        Some("simreport") => simreport::run(&args[1..]),
        Some("prof") => prof::run(&args[1..]),
        Some("postmortem") => postmortem::run(&args[1..]),
        Some("slo") => slo::run(&args[1..]),
        Some("ab") => ab::run(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- analyze [--deny all] [--json <path|->]\n       cargo run -p xtask -- trace <file.jsonl> [--assert-gap-closed] [--gap-tol <rel>] [--assert-warm-rate <pct>]\n       cargo run -p xtask -- watch <addr> [--interval-ms <n>] [--frames <n>]\n       cargo run -p xtask -- benchdiff <baseline.json> <current.json>\n       cargo run -p xtask -- simreport <report.json> [--assert-realised-ratio <ceiling>]\n       cargo run -p xtask -- prof <addr|collapsed.txt|bundle.json> [--top <n>] [--collapsed] [--no-color]\n       cargo run -p xtask -- postmortem <bundle.json> [--events <n>] [--no-color]\n       cargo run -p xtask -- slo <addr|bundle.json> [--timeline <request_id>] [--no-color]\n       cargo run -p xtask -- ab <rev> --workload W --pairs N --seed S [--seconds T]"
            );
            ExitCode::from(2)
        }
    }
}

/// The workspace root: two levels above this crate's manifest.
pub(crate) fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(Path::parent).map(Path::to_path_buf).unwrap_or(manifest)
}
