//! Result records: the one-line JSON a single run prints, the file a full
//! set writes (stamped with where and how it was measured), and `compare`,
//! which holds one set against another under the bounds of
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

use crate::metrics::Metric;
use crate::run::Outcome;
use crate::stats;
use crate::workloads::{nproc, Workload};

fn num(v: f64) -> Value {
    Value::Number(v)
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

fn object(fields: impl IntoIterator<Item = (String, Value)>) -> Value {
    Value::Object(fields.into_iter().collect())
}

fn render(v: &Value) -> String {
    serde_json::to_string(v).expect("JSON values always serialise")
}

/// `name → (value, unit)`.
pub type Values = BTreeMap<String, (f64, String)>;

fn values_json(values: &Values) -> Value {
    object(values.iter().map(|(name, (value, unit))| {
        (
            name.clone(),
            object([("value".to_string(), num(*value)), ("unit".to_string(), text(unit))]),
        )
    }))
}

fn values_from(v: &Value) -> Result<Values, String> {
    let map = v.as_object().ok_or("metrics is not an object")?;
    map.iter()
        .map(|(name, m)| {
            let value =
                m.get("value").and_then(Value::as_f64).ok_or(format!("{name}: no value"))?;
            let unit = m.get("unit").and_then(Value::as_str).ok_or(format!("{name}: no unit"))?;
            Ok((name.clone(), (value, unit.to_string())))
        })
        .collect()
}

/// The line a single run ends its standard output with.
pub fn contract_line(outcome: &Outcome) -> String {
    let record = RunRecord {
        correct: outcome.correct(),
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: outcome
            .metrics
            .iter()
            .map(|Metric { name, unit, value }| (name.to_string(), (*value, unit.to_string())))
            .collect(),
    };
    render(&record.to_value())
}

/// One run's line, read back.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunRecord {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Values,
}

impl RunRecord {
    pub fn parse(line: &str) -> Result<Self, String> {
        let v = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
        Self::from_value(&v)
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(Self {
            correct: v.get("correct").and_then(Value::as_bool).ok_or("no `correct`")?,
            attempted: v.get("attempted").and_then(Value::as_u64).ok_or("no `attempted`")?,
            failed: v.get("failed").and_then(Value::as_u64).ok_or("no `failed`")?,
            metrics: values_from(v.get("metrics").ok_or("no `metrics`")?)?,
        })
    }

    fn to_value(&self) -> Value {
        object([
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), num(self.attempted as f64)),
            ("failed".to_string(), num(self.failed as f64)),
            ("metrics".to_string(), values_json(&self.metrics)),
        ])
    }
}

/// Where and how a set was measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Provenance {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub commit: String,
    pub rustc: String,
    pub profile: String,
    /// Ops generated per workload (the run consumes them for `seconds`).
    pub op_counts: BTreeMap<String, u64>,
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

impl Provenance {
    pub fn here(seed: u64, seconds: f64) -> Self {
        Self {
            seed,
            seconds,
            nproc: nproc(),
            commit: tool_line("git", &["rev-parse", "HEAD"]),
            rustc: tool_line("rustc", &["-V"]),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" }.to_string(),
            op_counts: Workload::ALL
                .iter()
                .map(|w| (w.name().to_string(), w.op_count(seconds) as u64))
                .collect(),
        }
    }
}

/// A full set: every workload's timed and traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct SetResult {
    pub provenance: Provenance,
    /// `workload → (timed run, traced run)`.
    pub workloads: BTreeMap<String, (RunRecord, RunRecord)>,
}

impl SetResult {
    pub fn to_json(&self) -> String {
        let p = &self.provenance;
        let provenance = object([
            // a string: JSON numbers cannot hold every u64
            ("seed".to_string(), text(&p.seed.to_string())),
            ("seconds".to_string(), num(p.seconds)),
            ("nproc".to_string(), num(p.nproc as f64)),
            ("commit".to_string(), text(&p.commit)),
            ("rustc".to_string(), text(&p.rustc)),
            ("profile".to_string(), text(&p.profile)),
            (
                "op_counts".to_string(),
                object(p.op_counts.iter().map(|(k, v)| (k.clone(), num(*v as f64)))),
            ),
        ]);
        let workloads = object(self.workloads.iter().map(|(name, (timed, traced))| {
            let runs = [
                ("timed".to_string(), timed.to_value()),
                ("traced".to_string(), traced.to_value()),
            ];
            (name.clone(), object(runs))
        }));
        render(&object([
            ("provenance".to_string(), provenance),
            ("workloads".to_string(), workloads),
        ]))
    }

    pub fn from_json(json: &str) -> Result<Self, String> {
        let v = serde_json::from_str(json).map_err(|e| format!("result file: {e}"))?;
        let p = v.get("provenance").ok_or("no `provenance`")?;
        let s = |k: &str| -> Result<String, String> {
            Ok(p.get(k).and_then(Value::as_str).ok_or(format!("provenance: no `{k}`"))?.to_string())
        };
        let provenance = Provenance {
            seed: s("seed")?.parse().map_err(|e| format!("provenance seed: {e}"))?,
            seconds: p.get("seconds").and_then(Value::as_f64).ok_or("provenance: no `seconds`")?,
            nproc: p.get("nproc").and_then(Value::as_u64).ok_or("provenance: no `nproc`")? as usize,
            commit: s("commit")?,
            rustc: s("rustc")?,
            profile: s("profile")?,
            op_counts: p
                .get("op_counts")
                .and_then(Value::as_object)
                .ok_or("provenance: no `op_counts`")?
                .iter()
                .map(|(k, v)| Ok((k.clone(), v.as_u64().ok_or(format!("op_counts.{k}"))?)))
                .collect::<Result<_, String>>()?,
        };
        let workloads = v
            .get("workloads")
            .and_then(Value::as_object)
            .ok_or("no `workloads`")?
            .iter()
            .map(|(name, runs)| {
                let run = |k: &str| {
                    RunRecord::from_value(runs.get(k).ok_or(format!("{name}: no `{k}` run"))?)
                };
                Ok((name.clone(), (run("timed")?, run("traced")?)))
            })
            .collect::<Result<_, String>>()?;
        Ok(Self { provenance, workloads })
    }
}

/// Directory for result and span files: inside cargo's target directory,
/// which the checkout ignores.
pub fn out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

/// Run one workload in a fresh child process and read back its last line.
fn child_run(w: Workload, seed: u64, seconds: f64, trace: u8) -> Result<RunRecord, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", &trace.to_string()])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", w.name()))?;
    if !out.status.success() {
        return Err(format!("{} (trace {trace}) exited with {}", w.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    RunRecord::parse(stdout.lines().last().ok_or("child printed nothing")?)
}

/// A full set: every workload, timed then traced, each in its own process
/// (which prints its metrics by name and unit on standard error); the set
/// is written to `results_<seed>.json` under [`out_dir`]. Returns whether
/// every answer of every run checked out.
pub fn run_set(seed: u64, seconds: f64, only: Option<Workload>) -> Result<bool, String> {
    let mut set =
        SetResult { provenance: Provenance::here(seed, seconds), workloads: BTreeMap::new() };
    let p = &set.provenance;
    println!(
        "seed {} · {} s per run · nproc {} · {} · {} · commit {}",
        p.seed, p.seconds, p.nproc, p.profile, p.rustc, p.commit
    );
    for w in Workload::ALL.into_iter().filter(|w| only.is_none_or(|o| o == *w)) {
        let timed = child_run(w, seed, seconds, 0)?;
        let traced = child_run(w, seed, seconds, 1)?;
        println!(
            "\n{} — timed: {} attempted, {} failed · traced: {} attempted, {} failed",
            w.name(),
            timed.attempted,
            timed.failed,
            traced.attempted,
            traced.failed
        );
        set.workloads.insert(w.name().to_string(), (timed, traced));
    }
    let dir = out_dir();
    let path = dir.join(format!("results_{seed}.json"));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, set.to_json()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(set.workloads.values().all(|(t, r)| t.correct && r.correct))
}

/// `metric → (lower is better, bound)`.
pub type Bounds = BTreeMap<String, (bool, f64)>;

/// Direction and bound of each end-to-end metric, from `BENCHMARK.json`.
pub fn parse_bounds(benchmark_json: &str) -> Result<Bounds, String> {
    let v = serde_json::from_str(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    v.get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json: no `end_to_end`")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str).ok_or("metric without name")?;
            let better = m.get("better").and_then(Value::as_str).ok_or("metric without better")?;
            let bound = m.get("bound").and_then(Value::as_f64).ok_or("metric without bound")?;
            Ok((name.to_string(), (better == "lower", bound)))
        })
        .collect()
}

/// By how much `b` is worse than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    let change = if a != 0.0 { (b - a) / a.abs() } else { 0.0 };
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// Hold set `b` against set `a`: one row per (workload, end-to-end metric),
/// `Ok(false)` if any metric got worse by more than its bound. Sets taken
/// on a different core count or build profile are refused — their numbers
/// answer different questions.
pub fn compare(a: &SetResult, b: &SetResult, bounds: &Bounds) -> Result<bool, String> {
    let (pa, pb) = (&a.provenance, &b.provenance);
    if pa.nproc != pb.nproc || pa.profile != pb.profile {
        return Err(format!(
            "refusing to compare: {} cores/{} against {} cores/{}",
            pa.nproc, pa.profile, pb.nproc, pb.profile
        ));
    }
    let mut ok = true;
    println!(
        "{:<12} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for (workload, (ta, _)) in &a.workloads {
        let Some((tb, _)) = b.workloads.get(workload) else {
            return Err(format!("{workload} is missing from the second set"));
        };
        for (name, &(lower, bound)) in bounds {
            let (Some((va, _)), Some((vb, _))) = (ta.metrics.get(name), tb.metrics.get(name))
            else {
                return Err(format!("{workload}: {name} is missing from a set"));
            };
            let worse = worsening(*va, *vb, lower);
            let breach = worse > bound;
            ok &= !breach;
            println!(
                "{workload:<12} {name:<18} {va:>14.4} {vb:>14.4} {:>8.1}% {:>6.0}%  {}",
                worse * 100.0,
                bound * 100.0,
                if breach { "BREACH" } else { "ok" }
            );
        }
        if !tb.correct {
            println!(
                "{workload:<12} {} of {} operations failed in the second set",
                tb.failed, tb.attempted
            );
            ok = false;
        }
    }
    Ok(ok)
}

/// Medians, quartiles and spreads of every end-to-end metric over several
/// sets (the calibration table of the README).
pub fn summarize(sets: &[SetResult]) {
    let Some(first) = sets.first() else { return };
    println!(
        "{:<12} {:<18} {:>3} {:>13} {:>13} {:>13} {:>8}",
        "workload", "metric", "n", "q1", "median", "q3", "spread"
    );
    for (workload, (timed, _)) in &first.workloads {
        for name in timed.metrics.keys() {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.workloads.get(workload)?.0.metrics.get(name).map(|m| m.0))
                .collect();
            if let (Some((q1, med, q3)), Some(spread)) =
                (stats::quartiles(&values), stats::spread(&values))
            {
                println!(
                    "{workload:<12} {name:<18} {:>3} {q1:>13.4} {med:>13.4} {q3:>13.4} {:>7.1}%",
                    values.len(),
                    spread * 100.0
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(p50: f64, per_s: f64) -> RunRecord {
        RunRecord {
            correct: true,
            attempted: 100,
            failed: 0,
            metrics: BTreeMap::from([
                ("plan_p50_ms".to_string(), (p50, "ms".to_string())),
                ("plans_per_s".to_string(), (per_s, "1/s".to_string())),
            ]),
        }
    }

    fn set(nproc: usize, p50: f64, per_s: f64) -> SetResult {
        SetResult {
            provenance: Provenance {
                seed: u64::MAX - 1,
                seconds: 15.0,
                nproc,
                commit: "abc".to_string(),
                rustc: "rustc 1.95.0".to_string(),
                profile: "release".to_string(),
                op_counts: BTreeMap::from([("w".to_string(), 12_000)]),
            },
            workloads: BTreeMap::from([("w".to_string(), (record(p50, per_s), record(0.5, 1.0)))]),
        }
    }

    #[test]
    fn result_json_round_trips() {
        let s = set(2, 1.2034, 831.25);
        assert_eq!(SetResult::from_json(&s.to_json()).unwrap(), s);
        let line = contract_line(&Outcome {
            attempted: 7,
            failed: 1,
            metrics: vec![Metric { name: "setup_s", unit: "s", value: 0.8127 }],
        });
        let back = RunRecord::parse(&line).unwrap();
        assert_eq!((back.correct, back.attempted, back.failed), (false, 7, 1));
        assert_eq!(back.metrics["setup_s"], (0.8127, "s".to_string()));
        assert!(RunRecord::parse("{\"correct\":true}").is_err());
    }

    #[test]
    fn compare_applies_each_bound_in_its_direction() {
        let json = parse_bounds(
            r#"{"end_to_end":[{"name":"plan_p50_ms","unit":"ms","better":"lower","bound":0.1},
                {"name":"plans_per_s","unit":"1/s","better":"higher","bound":0.1}]}"#,
        )
        .unwrap();
        let base = set(2, 10.0, 100.0);
        // 5 % slower and 5 % less throughput: inside both bounds
        assert_eq!(compare(&base, &set(2, 10.5, 95.0), &json), Ok(true));
        // much faster is never a breach
        assert_eq!(compare(&base, &set(2, 1.0, 900.0), &json), Ok(true));
        // 20 % slower breaches; so does 20 % less throughput
        assert_eq!(compare(&base, &set(2, 12.0, 100.0), &json), Ok(false));
        assert_eq!(compare(&base, &set(2, 10.0, 80.0), &json), Ok(false));
        // another core count is refused outright
        assert!(compare(&base, &set(4, 10.0, 100.0), &json).is_err());
    }
}
