//! `cargo run -p xtask -- ab <rev> --workload W --pairs N --seed S
//! [--seconds T]` — alternating parent/change pairs of the repo benchmark.
//!
//! Builds planbench (`benchmark/`, offline, release) twice in a throwaway
//! directory under the system temp dir: once from `<rev>` and once from the
//! working tree (tracked changes, staged or not, plus untracked files that
//! are not ignored). Both sources are exported with `git archive`, so the
//! repository's own `benchmark/`, its `target/` and its git metadata are
//! never written. It then runs `planbench --workload W --seed S --seconds T
//! --trace 0` N times on each side, alternating which side goes first, and
//! prints, for every end-to-end metric of `BENCHMARK.json`: each side's
//! median [q1, q3] over the runs, the ratio of the medians, in how many
//! pairs the change was better, and the metric's bound — then each side's
//! failed and attempted ops. `T` defaults to `BENCHMARK.json`'s
//! `run_seconds`.
//!
//! The temp directory is printed first and removed at the end; a run that
//! is interrupted (Ctrl-C) leaves it, two release `target/` trees, behind.
//! A planbench run that fails ends the comparison with the tail of its
//! standard error.
//!
//! Quartiles are planbench's own (`summary`): linear interpolation at rank
//! `i·(n+1)/4`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde_json::Value;

use crate::repo_root;

/// Lines of a failed planbench run's standard error quoted in the error.
const STDERR_TAIL: usize = 20;

const USAGE: &str =
    "usage: cargo run -p xtask -- ab <rev> --workload W --pairs N --seed S [--seconds T]";

/// One end-to-end metric of the benchmark contract.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

/// One planbench run, read from its last line of standard output.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    attempted: u64,
    failed: u64,
    /// `(name, value)` of every metric the run reported.
    values: Vec<(String, f64)>,
}

impl Run {
    fn parse(line: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e:?}"))?;
        let count = |key: &str| v.get(key).and_then(Value::as_u64).ok_or(format!("no `{key}`"));
        let metrics = v.get("metrics").and_then(Value::as_object).ok_or("no `metrics` object")?;
        let values = metrics
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Value::as_f64);
                value.map(|x| (name.clone(), x)).ok_or(format!("{name}: no value"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { attempted: count("attempted")?, failed: count("failed")?, values })
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    rev: String,
    workload: String,
    pairs: usize,
    seed: u64,
    seconds: Option<f64>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut rev = None;
        let (mut workload, mut pairs, mut seed, mut seconds) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
            match a.as_str() {
                "--workload" => workload = Some(value(a)?),
                "--pairs" => pairs = Some(value(a)?.parse().map_err(|e| format!("--pairs: {e}"))?),
                "--seed" => seed = Some(value(a)?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    seconds = Some(value(a)?.parse().map_err(|e| format!("--seconds: {e}"))?)
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ if rev.is_none() => rev = Some(a.clone()),
                extra => return Err(format!("unexpected argument {extra}")),
            }
        }
        let pairs = pairs.ok_or("--pairs is required")?;
        if pairs == 0 {
            return Err("--pairs must be at least 1".to_string());
        }
        Ok(Self {
            rev: rev.ok_or("<rev> is required")?,
            workload: workload.ok_or("--workload is required")?,
            pairs,
            seed: seed.ok_or("--seed is required")?,
            seconds,
        })
    }
}

pub fn run(args: &[String]) -> ExitCode {
    let args = match Args::parse(args) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("ab: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scratch = std::env::temp_dir().join(format!("rrp-ab-{}", std::process::id()));
    eprintln!("ab: working in {} (left behind if interrupted)", scratch.display());
    let outcome = compare(&args, &scratch);
    let _ = fs::remove_dir_all(&scratch);
    match outcome {
        Ok(table) => {
            print!("{table}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("ab: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Build both sides under `scratch`, run the pairs and render the table.
fn compare(args: &Args, scratch: &Path) -> Result<String, String> {
    let root = repo_root();
    let contract = fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (metrics, run_seconds) = contract_metrics(&contract)?;
    let seconds = args.seconds.unwrap_or(run_seconds);

    let base_rev = git(&root, &["rev-parse", "--verify", &format!("{}^{{commit}}", args.rev)])?;
    // the working tree as a commit object (nothing is stored in refs or the
    // index), or HEAD when no tracked file changed
    let stash = git(&root, &["stash", "create"])?;
    let change_rev = if stash.is_empty() { git(&root, &["rev-parse", "HEAD"])? } else { stash };
    let base = scratch.join("base");
    let change = scratch.join("change");
    export(&root, &base_rev, &base)?;
    export(&root, &change_rev, &change)?;
    copy_untracked(&root, &change)?;
    let bins = [build(&base)?, build(&change)?];

    let mut runs: [Vec<Run>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..args.pairs {
        let order = if pair % 2 == 0 { [0, 1] } else { [1, 0] };
        for side in order {
            let run = planbench(&bins[side], args, seconds)?;
            eprintln!(
                "ab: pair {}/{} {}: {}",
                pair + 1,
                args.pairs,
                ["base", "change"][side],
                metrics
                    .iter()
                    .filter_map(|m| run.value(&m.name).map(|v| format!("{} {v:.4}", m.name)))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            runs[side].push(run);
        }
    }
    let header = format!(
        "{} pairs of {} s, workload {}, seed {}: base {} ({}), change {}\n",
        args.pairs,
        seconds,
        args.workload,
        args.seed,
        args.rev,
        short(&base_rev),
        if change_rev == base_rev { "same commit".to_string() } else { short(&change_rev) },
    );
    Ok(header + &table(&metrics, &runs[0], &runs[1]))
}

fn short(rev: &str) -> String {
    rev.chars().take(10).collect()
}

/// The end-to-end metrics and `run_seconds` of a `BENCHMARK.json`.
fn contract_metrics(src: &str) -> Result<(Vec<Metric>, f64), String> {
    let v: Value = serde_json::from_str(src).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let seconds = v.get("run_seconds").and_then(Value::as_f64).ok_or("no `run_seconds`")?;
    let list = v.get("end_to_end").and_then(Value::as_array).ok_or("no `end_to_end` list")?;
    let metrics = list
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("a metric without a name")?;
            let better = m.get("better").and_then(Value::as_str).ok_or("no `better`")?;
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("no `bound`")?;
            Ok(Metric { name: name.to_string(), lower_is_better: better == "lower", bound })
        })
        .collect::<Result<_, String>>()?;
    Ok((metrics, seconds))
}

/// Run `git` in `dir` and return its trimmed standard output.
fn git(dir: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git")
        .args(args)
        .current_dir(dir)
        .output()
        .map_err(|e| format!("git {}: {e}", args.join(" ")))?;
    if !out.status.success() {
        let err = String::from_utf8_lossy(&out.stderr);
        return Err(format!("git {}: {}", args.join(" "), err.trim()));
    }
    Ok(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Write the tree of commit `rev` to `dest` (`git archive | tar -x`).
fn export(root: &Path, rev: &str, dest: &Path) -> Result<(), String> {
    fs::create_dir_all(dest).map_err(|e| format!("{}: {e}", dest.display()))?;
    let mut archive = Command::new("git")
        .args(["archive", "--format=tar", rev])
        .current_dir(root)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("git archive: {e}"))?;
    let tar_in = archive.stdout.take().ok_or("git archive: no stdout")?;
    let untar = Command::new("tar")
        .arg("-x")
        .arg("-C")
        .arg(dest)
        .stdin(tar_in)
        .status()
        .map_err(|e| format!("tar: {e}"))?;
    let archived = archive.wait().map_err(|e| format!("git archive: {e}"))?;
    if !(archived.success() && untar.success()) {
        return Err(format!("exporting {rev} to {} failed", dest.display()));
    }
    Ok(())
}

/// Copy the untracked, not ignored files of the working tree into `dest`.
fn copy_untracked(root: &Path, dest: &Path) -> Result<(), String> {
    let list = git(root, &["ls-files", "--others", "--exclude-standard"])?;
    for rel in list.lines().filter(|l| !l.is_empty()) {
        let to = dest.join(rel);
        if let Some(dir) = to.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        fs::copy(root.join(rel), &to).map_err(|e| format!("{rel}: {e}"))?;
    }
    Ok(())
}

/// Build planbench in an exported tree; returns the binary.
fn build(tree: &Path) -> Result<PathBuf, String> {
    eprintln!("ab: building planbench in {}", tree.display());
    let manifest = tree.join("benchmark/Cargo.toml");
    let status = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()))
        .args(["build", "--release", "--offline", "--quiet", "--manifest-path"])
        .arg(&manifest)
        .env("CARGO_TARGET_DIR", tree.join("benchmark/target"))
        .status()
        .map_err(|e| format!("cargo build: {e}"))?;
    if !status.success() {
        return Err(format!("building {} failed", manifest.display()));
    }
    Ok(tree.join("benchmark/target/release/planbench"))
}

/// One timed run; its last line of standard output is the result.
fn planbench(bin: &Path, args: &Args, seconds: f64) -> Result<Run, String> {
    let out = Command::new(bin)
        .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        let lines: Vec<&str> = stderr.lines().collect();
        let tail = lines[lines.len().saturating_sub(STDERR_TAIL)..].join("\n");
        return Err(format!("{} exited with {}:\n{tail}", bin.display(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().ok_or(format!("{}: no output", bin.display()))?;
    Run::parse(line)
}

/// planbench's quartiles: linear interpolation at rank `i·(n+1)/4`
/// (1-based), clamped into the sample; a single value is its own quartiles.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(2), cut(3))
}

/// The comparison table: one row per metric, then failed ops per side.
fn table(metrics: &[Metric], base: &[Run], change: &[Run]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>30} {:>30} {:>8} {:>6} {:>6}",
        "metric", "base median [q1, q3]", "change median [q1, q3]", "chg/base", "wins", "bound"
    );
    for m in metrics {
        let column =
            |runs: &[Run]| -> Option<Vec<f64>> { runs.iter().map(|r| r.value(&m.name)).collect() };
        let (Some(b), Some(c)) = (column(base), column(change)) else {
            let _ = writeln!(out, "{:<14} (not reported by every run)", m.name);
            continue;
        };
        let (bq1, bmed, bq3) = quartiles(&b);
        let (cq1, cmed, cq3) = quartiles(&c);
        let better = |x: f64, y: f64| if m.lower_is_better { x < y } else { x > y };
        let wins = b.iter().zip(&c).filter(|(b, c)| better(**c, **b)).count();
        let _ = writeln!(
            out,
            "{:<14} {:>30} {:>30} {:>8.3} {:>6} {:>6.2}",
            m.name,
            format!("{bmed:.4} [{bq1:.4}, {bq3:.4}]"),
            format!("{cmed:.4} [{cq1:.4}, {cq3:.4}]"),
            cmed / bmed,
            format!("{wins}/{}", b.len().min(c.len())),
            m.bound
        );
    }
    let ops = |runs: &[Run]| {
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
        format!("{failed} failed of {attempted}")
    };
    let _ = writeln!(out, "ops: base {}, change {}", ops(base), ops(change));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn run(failed: u64, values: &[(&str, f64)]) -> Run {
        let values = values.iter().map(|(n, v)| (n.to_string(), *v)).collect();
        Run { attempted: 100, failed, values }
    }

    #[test]
    fn args_need_rev_workload_pairs_and_seed() {
        let got = Args::parse(&strings(&[
            "HEAD~1",
            "--workload",
            "cap16_cold",
            "--pairs",
            "10",
            "--seed",
            "61",
        ]))
        .expect("parses");
        let want = Args {
            rev: "HEAD~1".into(),
            workload: "cap16_cold".into(),
            pairs: 10,
            seed: 61,
            seconds: None,
        };
        assert_eq!(got, want);
        let timed = Args::parse(&strings(&[
            "main",
            "--seconds",
            "2.5",
            "--workload",
            "x",
            "--pairs",
            "1",
            "--seed",
            "1",
        ]))
        .expect("parses");
        assert_eq!(timed.seconds, Some(2.5));
        for bad in [
            &["--workload", "x", "--pairs", "1", "--seed", "1"][..],
            &["r", "--pairs", "1", "--seed", "1"],
            &["r", "--workload", "x", "--pairs", "0", "--seed", "1"],
            &["r", "--workload", "x", "--pairs", "1", "--seed", "1", "--fast"],
            &["r", "s", "--workload", "x", "--pairs", "1", "--seed", "1"],
            &["r", "--workload"],
        ] {
            assert!(Args::parse(&strings(bad)).is_err(), "{bad:?} must be refused");
        }
    }

    #[test]
    fn run_line_parses_like_planbench_writes_it() {
        let line = r#"{"attempted":1200,"correct":true,"failed":0,"metrics":{"plan_p50_ms":{"unit":"ms","value":4.68},"plans_per_s":{"unit":"1/s","value":187.0}}}"#;
        let run = Run::parse(line).expect("parses");
        assert_eq!((run.attempted, run.failed), (1200, 0));
        assert_eq!(run.value("plan_p50_ms"), Some(4.68));
        assert_eq!(run.value("plans_per_s"), Some(187.0));
        assert_eq!(run.value("setup_s"), None);
        assert!(Run::parse(r#"{"attempted":1,"failed":0}"#).is_err());
    }

    #[test]
    fn contract_metrics_come_from_the_end_to_end_list() {
        let src = r#"{"run_seconds":20,"end_to_end":[
            {"name":"plan_p50_ms","unit":"ms","better":"lower","bound":0.25},
            {"name":"plans_per_s","unit":"1/s","better":"higher","bound":0.25}],
            "per_layer":[{"name":"milp.nodes_per_plan","unit":"count","better":"lower"}]}"#;
        let (metrics, seconds) = contract_metrics(src).expect("parses");
        assert_eq!(seconds, 20.0);
        assert_eq!(metrics.len(), 2);
        assert!(metrics[0].lower_is_better && !metrics[1].lower_is_better);
        // the repository's own contract parses too
        let ours = fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("committed");
        assert!(contract_metrics(&ours).expect("parses").0.len() >= 4);
    }

    #[test]
    fn quartiles_match_planbench_summary() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn table_counts_wins_in_each_metrics_direction() {
        let metrics = vec![
            Metric { name: "plan_p50_ms".into(), lower_is_better: true, bound: 0.25 },
            Metric { name: "plans_per_s".into(), lower_is_better: false, bound: 0.25 },
        ];
        let base = [
            run(0, &[("plan_p50_ms", 6.0), ("plans_per_s", 130.0)]),
            run(0, &[("plan_p50_ms", 6.4), ("plans_per_s", 131.0)]),
            run(1, &[("plan_p50_ms", 5.0), ("plans_per_s", 140.0)]),
        ];
        let change = [
            run(0, &[("plan_p50_ms", 4.6), ("plans_per_s", 187.0)]),
            run(0, &[("plan_p50_ms", 4.7), ("plans_per_s", 186.0)]),
            run(0, &[("plan_p50_ms", 5.1), ("plans_per_s", 120.0)]),
        ];
        let text = table(&metrics, &base, &change);
        let row = |name: &str| text.lines().find(|l| l.starts_with(name)).expect("row").to_string();
        assert!(row("plan_p50_ms").contains(" 2/3 "), "{text}");
        assert!(row("plans_per_s").contains(" 2/3 "), "{text}");
        assert!(row("plan_p50_ms").contains("6.0000 [5.0000, 6.4000]"), "{text}");
        assert!(text.contains("ops: base 1 failed of 300, change 0 failed of 300"), "{text}");
    }
}
