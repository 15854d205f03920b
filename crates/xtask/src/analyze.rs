//! `cargo run -p xtask -- analyze` — the full static-analysis gate.
//!
//! Runs every `rrp-lint` pass (token safety scan, lock-order cycles,
//! held-lock-across-blocking, atomic-ordering audit, unbounded growth)
//! over `crates/*/src` and `shims/*/src`, justifies findings against
//! `lint-allow.txt`, and validates the allowlist itself (mandatory
//! `reason=` fields, live paths, no stale entries).
//!
//! Flags:
//! - `--deny all` — explicit CI mode (failing on unjustified findings
//!   and allowlist problems is also the default; the flag documents it)
//! - `--json <path|->` — write machine-readable findings JSON
//!
//! When `GITHUB_STEP_SUMMARY` is set, a markdown summary (findings per
//! lint, justified/unjustified split) is appended to it.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use rrp_lint::findings::render_json;

pub fn run(args: &[String]) -> ExitCode {
    let mut json_out: Option<String> = None;
    let mut deny_all = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--deny" => {
                if args.get(i + 1).map(String::as_str) != Some("all") {
                    eprintln!("analyze: --deny takes the value `all`");
                    return ExitCode::from(2);
                }
                deny_all = true;
                i += 2;
            }
            "--json" => match args.get(i + 1) {
                Some(p) => {
                    json_out = Some(p.clone());
                    i += 2;
                }
                None => {
                    eprintln!("analyze: --json needs a path (or `-` for stdout)");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("analyze: unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }
    let _ = deny_all; // denial is the default; the flag is CI documentation

    let root = super::repo_root();
    let started = Instant::now();
    let analysis = match rrp_lint::analyze(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("analyze: failed to load workspace sources: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;

    if let Some(path) = &json_out {
        let json = render_json(&analysis.findings);
        if path == "-" {
            print!("{json}");
        } else if let Err(e) = fs::write(path, &json) {
            eprintln!("analyze: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    // per-lint counts for the summary line and the CI job summary
    let mut per_lint: Vec<(String, usize, usize)> = Vec::new();
    for f in &analysis.findings {
        match per_lint.iter_mut().find(|(l, _, _)| *l == f.lint) {
            Some((_, total, open)) => {
                *total += 1;
                if !f.justified {
                    *open += 1;
                }
            }
            None => per_lint.push((f.lint.clone(), 1, usize::from(!f.justified))),
        }
    }
    let total = analysis.findings.len();
    let open = analysis.unjustified().count();

    println!(
        "analyze: {} files, {} finding(s) ({} justified, {} open), {:.0} ms",
        analysis.files,
        total,
        total - open,
        open,
        wall_ms
    );
    for (lint, t, o) in &per_lint {
        println!("  {lint}: {t} finding(s), {o} open");
    }
    for f in analysis.unjustified() {
        eprintln!("  OPEN {}:{}: [{}] {}", f.file, f.line, f.lint, f.message);
    }
    for e in &analysis.allow_errors {
        eprintln!("  ALLOWLIST {e}");
    }

    write_step_summary(&per_lint, total, open, &analysis.allow_errors, wall_ms);

    if analysis.is_clean() {
        println!("analyze: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "\nanalyze: {} open finding(s), {} allowlist problem(s).\n\
             Fix the code, add a `// relaxed-ok:`/`// growth-ok:` justification comment,\n\
             or record the finding key in lint-allow.txt with a reason=\"…\" field.",
            open,
            analysis.allow_errors.len()
        );
        ExitCode::FAILURE
    }
}

fn write_step_summary(
    per_lint: &[(String, usize, usize)],
    total: usize,
    open: usize,
    allow_errors: &[String],
    wall_ms: f64,
) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let mut md = String::from("### Static analysis (`xtask analyze`)\n\n");
    let _ = writeln!(
        md,
        "**{total} finding(s)** — {} justified, **{open} open**, \
         {} allowlist problem(s), {wall_ms:.0} ms\n",
        total - open,
        allow_errors.len()
    );
    md.push_str("| lint | findings | open |\n|---|---|---|\n");
    for (lint, t, o) in per_lint {
        let _ = writeln!(md, "| {lint} | {t} | {o} |");
    }
    if let Ok(mut f) = fs::OpenOptions::new().create(true).append(true).open(&path) {
        let _ = f.write_all(md.as_bytes());
    }
}
