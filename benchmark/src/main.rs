//! `planbench` — the rrp plan-path benchmark (see `README.md` beside this
//! crate and `BENCHMARK.json` at the repository root).
//!
//! ```text
//! planbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of standard output is the
//!     result as one JSON object (trace 0: end-to-end metrics, trace 1:
//!     per-layer metrics)
//! planbench run --seed <n> [--seconds <s>] [--workload <name>] [--smoke]
//!     a full set: every workload, timed and traced, each in a fresh child
//!     process; writes results_<seed>.json under <target dir>/benchmark/
//! planbench compare <a.json> <b.json> [--bounds <BENCHMARK.json>]
//!     one row per (workload, metric); exits 1 if a bound is breached
//! planbench summary <set.json>...
//!     medians, quartiles and spreads over several sets
//! ```

mod gen;
mod http;
mod layers;
mod metrics;
mod procstat;
mod report;
mod run;
mod span;
mod stats;
mod workloads;

use std::process::ExitCode;

use report::SetResult;
use workloads::Workload;

/// Seconds a run of a full set measures unless told otherwise
/// (`run_seconds` of `BENCHMARK.json`).
const RUN_SECONDS: f64 = 20.0;
/// Seconds per run of a `--smoke` set: every workload, check and metric in
/// about five seconds altogether.
const SMOKE_SECONDS: f64 = 0.5;

/// `--flag value` pairs and bare words of a command line.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Args { words: Vec::new(), flags: Vec::new() };
        let mut args = args.peekable();
        while let Some(a) = args.next() {
            match a.strip_prefix("--") {
                Some("smoke") => out.flags.push(("smoke".to_string(), "1".to_string())),
                Some(flag) => {
                    let value = args.next().ok_or(format!("--{flag} needs a value"))?;
                    out.flags.push((flag.to_string(), value));
                }
                None => out.words.push(a),
            }
        }
        Ok(out)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| f == name).map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flag(name)
            .map(|v| v.parse().map_err(|_| format!("--{name}: cannot read `{v}`")))
            .transpose()
    }

    fn workload(&self) -> Result<Option<Workload>, String> {
        self.flag("workload")
            .map(|name| Workload::from_name(name).ok_or(format!("unknown workload `{name}`")))
            .transpose()
    }
}

fn load_set(path: &str) -> Result<SetResult, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    SetResult::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn main_inner() -> Result<ExitCode, String> {
    let args = Args::parse(std::env::args().skip(1))?;
    let pass = |ok: bool| if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    match args.words.first().map(String::as_str) {
        // the driver's form: one workload, one run, one line of JSON
        None => {
            let workload = args.workload()?.ok_or("--workload is required")?;
            let seed: u64 = args.parsed("seed")?.ok_or("--seed is required")?;
            let seconds: f64 = args.parsed("seconds")?.ok_or("--seconds is required")?;
            if !(seconds > 0.0 && seconds <= 600.0) {
                return Err(format!("--seconds {seconds} is out of range"));
            }
            let outcome = match args.flag("trace").ok_or("--trace is required")? {
                "0" => run::timed(workload, seed, seconds),
                "1" => {
                    let file = report::out_dir().join(format!("trace_{}.jsonl", workload.name()));
                    run::traced(workload, seed, seconds, &file)
                }
                other => return Err(format!("--trace {other}: expected 0 or 1")),
            }
            .map_err(|fatal| fatal.0)?;
            for m in &outcome.metrics {
                eprintln!("{:<36} {:>16.6} {}", m.name, m.value, m.unit);
            }
            println!("{}", report::contract_line(&outcome));
            // a wrong answer is reported in the line, not by the exit code
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => {
            let seed: u64 = args.parsed("seed")?.ok_or("--seed is required")?;
            let default = if args.flag("smoke").is_some() { SMOKE_SECONDS } else { RUN_SECONDS };
            let seconds = args.parsed("seconds")?.unwrap_or(default);
            report::run_set(seed, seconds, args.workload()?).map(pass)
        }
        Some("compare") => {
            let [_, a, b] = args.words.as_slice() else {
                return Err("compare takes two result files".to_string());
            };
            let bounds_file = args.flag("bounds").unwrap_or("BENCHMARK.json");
            let bounds = std::fs::read_to_string(bounds_file)
                .map_err(|e| format!("{bounds_file}: {e}"))
                .and_then(|text| report::parse_bounds(&text))?;
            report::compare(&load_set(a)?, &load_set(b)?, &bounds).map(pass)
        }
        Some("summary") => {
            let sets =
                args.words[1..].iter().map(|p| load_set(p)).collect::<Result<Vec<_>, _>>()?;
            report::summarize(&sets);
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    main_inner().unwrap_or_else(|why| {
        eprintln!("planbench: {why}");
        ExitCode::from(2)
    })
}
