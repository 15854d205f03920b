//! `cargo run -p xtask -- benchdiff <baseline.json> <current.json>` — the
//! bench regression gate.
//!
//! Both files are `results/BENCH_*.json` arrays (see `rrp-bench`'s
//! `results` module). Every instance in the baseline must be present in the
//! current run (losing coverage fails), and every numeric field of its
//! record other than `wall_ms` must equal the baseline's: integers exactly,
//! floats to [`REL_TOL`] relative. Those fields are counts and objectives
//! the program makes — nodes, LP iterations, cache hits — which repeat to
//! the last digit on any host, so a moved field is a finding: a change that
//! means to move one regenerates the baseline and says why.
//!
//! Text fields (the provenance stamp) are ignored. `wall_ms` is printed
//! side by side for the reader and never gated: on a shared host it drifts
//! by more than most real changes move it. Instances only in the current
//! run are reported as new and never fail.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::process::ExitCode;

use serde_json::Value;

/// Relative tolerance on non-integral fields (objectives).
const REL_TOL: f64 = 1e-9;

/// One parsed record: its instance label and every other field.
type Record = (String, BTreeMap<String, Value>);

pub fn run(args: &[String]) -> ExitCode {
    let [baseline_path, current_path] = args else {
        eprintln!("benchdiff: need exactly two files");
        eprintln!("usage: cargo run -p xtask -- benchdiff <baseline.json> <current.json>");
        return ExitCode::from(2);
    };
    let mut loaded = Vec::with_capacity(2);
    for path in [baseline_path, current_path] {
        match fs::read_to_string(path).map_err(|e| e.to_string()).and_then(|s| parse_records(&s)) {
            Ok(records) => loaded.push(records),
            Err(e) => {
                eprintln!("benchdiff: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (report, failures) = diff(&loaded[0], &loaded[1]);
    print!("{report}");
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("benchdiff: {failures} instance(s) moved or missing");
        ExitCode::FAILURE
    }
}

/// Parse a BENCH json array into records.
fn parse_records(src: &str) -> Result<Vec<Record>, String> {
    let v: Value = serde_json::from_str(src).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let Some(arr) = v.as_array() else {
        return Err("expected a JSON array of records".to_string());
    };
    let mut out = Vec::with_capacity(arr.len());
    for (i, rec) in arr.iter().enumerate() {
        let (Some(instance), Some(fields)) =
            (rec.get("instance").and_then(Value::as_str), rec.as_object())
        else {
            return Err(format!("record {i}: not an object with an instance label"));
        };
        out.push((instance.to_string(), fields.clone()));
    }
    Ok(out)
}

/// Integers must match exactly, anything else to [`REL_TOL`] relative.
fn same(base: f64, cur: f64) -> bool {
    if base.fract() == 0.0 && cur.fract() == 0.0 {
        base == cur
    } else {
        (base - cur).abs() <= REL_TOL * base.abs().max(cur.abs())
    }
}

/// The gated fields of `base` that `cur` does not reproduce, as
/// `name base → current` notes.
fn moved(base: &BTreeMap<String, Value>, cur: &BTreeMap<String, Value>) -> Vec<String> {
    let mut notes = Vec::new();
    for (key, b) in base {
        if key == "wall_ms" || matches!(b, Value::String(_)) {
            continue;
        }
        let c = cur.get(key);
        let equal = match (b, c) {
            (Value::Number(b), Some(Value::Number(c))) => same(*b, *c),
            (b, Some(c)) => b == c,
            (_, None) => false,
        };
        if !equal {
            let show = |v: Option<&Value>| match v {
                Some(Value::Number(n)) => n.to_string(),
                Some(other) => format!("{other:?}"),
                None => "-".to_string(),
            };
            notes.push(format!("{key} {} → {}", show(Some(b)), show(c)));
        }
    }
    notes
}

/// Render the comparison table and count failures (moved counts +
/// coverage losses).
fn diff(baseline: &[Record], current: &[Record]) -> (String, usize) {
    let wall = |fields: &BTreeMap<String, Value>| {
        fields
            .get("wall_ms")
            .and_then(Value::as_f64)
            .map_or("-".to_string(), |ms| format!("{ms:.3}"))
    };
    let mut out = String::new();
    let mut failures = 0;
    let _ = writeln!(
        out,
        "{:<44} {:>12} {:>12}  verdict (wall_ms shown, not gated)",
        "instance", "base ms", "current ms"
    );
    for (instance, base) in baseline {
        let verdict = match current.iter().find(|(name, _)| name == instance) {
            Some((_, cur)) => {
                let notes = moved(base, cur);
                let line = format!("{:>12} {:>12}", wall(base), wall(cur));
                if notes.is_empty() {
                    format!("{line}  ok")
                } else {
                    failures += 1;
                    format!("{line}  MOVED: {}", notes.join(", "))
                }
            }
            None => {
                failures += 1;
                format!("{:>12} {:>12}  MISSING", wall(base), "-")
            }
        };
        let _ = writeln!(out, "{instance:<44} {verdict}");
    }
    for (instance, cur) in current {
        if !baseline.iter().any(|(name, _)| name == instance) {
            let _ = writeln!(out, "{instance:<44} {:>12} {:>12}  new", "-", wall(cur));
        }
    }
    (out, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAMP: &str = r#""commit":"abc","rustc":"rustc 1.95.0","profile":"release","nproc":"2""#;

    /// One record per `(instance, extra fields)` pair, each stamped.
    fn file(rows: &[(&str, &str)]) -> Vec<Record> {
        let body: Vec<String> = rows
            .iter()
            .map(|(instance, fields)| format!(r#"{{"instance":"{instance}",{fields},{STAMP}}}"#))
            .collect();
        parse_records(&format!("[\n{}\n]", body.join(",\n"))).expect("test file parses")
    }

    const BASE: &str =
        r#""wall_ms":152.2,"nodes":5255,"objective":4.641590087641814,"lp_iters":12471"#;

    #[test]
    fn changed_nodes_fails() {
        let base = file(&[("m/warm", BASE)]);
        let cur = file(&[("m/warm", &BASE.replace("5255", "5256"))]);
        let (report, failures) = diff(&base, &cur);
        assert_eq!(failures, 1, "{report}");
        assert!(report.contains("MOVED: nodes 5255 → 5256"), "{report}");
    }

    #[test]
    fn objective_off_by_more_than_the_relative_tolerance_fails() {
        let base = file(&[("m/warm", BASE)]);
        // one part in 10¹⁵ is float noise; one part in 10⁷ is a different answer
        let close = file(&[("m/warm", &BASE.replace("4.641590087641814", "4.641590087641818"))]);
        assert_eq!(diff(&base, &close).1, 0);
        let far = file(&[("m/warm", &BASE.replace("4.641590087641814", "4.641590551800823"))]);
        let (report, failures) = diff(&base, &far);
        assert_eq!(failures, 1, "{report}");
        assert!(report.contains("MOVED: objective"), "{report}");
    }

    #[test]
    fn wall_ms_only_change_passes() {
        let base = file(&[("m/warm", BASE)]);
        let cur = file(&[("m/warm", &BASE.replace("152.2", "411.9"))]);
        let (report, failures) = diff(&base, &cur);
        assert_eq!(failures, 0, "{report}");
        assert!(report.contains("152.200      411.900  ok"), "{report}");
    }

    #[test]
    fn missing_instance_fails_new_instance_does_not() {
        let base = file(&[("a/1", BASE)]);
        let cur = file(&[("b/1", BASE)]);
        let (report, failures) = diff(&base, &cur);
        assert_eq!(failures, 1, "{report}");
        assert!(report.contains("MISSING"), "{report}");
        assert!(report.contains("new"), "{report}");
    }

    #[test]
    fn missing_count_field_fails() {
        let base = file(&[("m/warm", BASE)]);
        let cur =
            file(&[("m/warm", r#""wall_ms":152.2,"nodes":5255,"objective":4.641590087641814"#)]);
        let (report, failures) = diff(&base, &cur);
        assert_eq!(failures, 1, "{report}");
        assert!(report.contains("lp_iters 12471 → -"), "{report}");
    }

    #[test]
    fn provenance_text_differences_pass() {
        let base = file(&[("m/warm", BASE)]);
        let restamped = format!(
            r#"[{{"instance":"m/warm",{BASE},"commit":"def+dirty","rustc":"rustc 1.99.0","profile":"debug","nproc":"1"}}]"#
        );
        let cur = parse_records(&restamped).expect("parses");
        let (report, failures) = diff(&base, &cur);
        assert_eq!(failures, 0, "{report}");
    }

    #[test]
    fn records_parse_from_bench_json() {
        let src = r#"[
  {"instance":"engine_throughput/cold_64req/4","wall_ms":322.7,"nodes":16,"objective":null}
]"#;
        let recs = parse_records(src).expect("parses");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].0, "engine_throughput/cold_64req/4");
        assert_eq!(recs[0].1.get("nodes").and_then(Value::as_u64), Some(16));
        assert!(recs[0].1.get("objective").is_some_and(Value::is_null));
    }
}
