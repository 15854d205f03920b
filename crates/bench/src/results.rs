//! The persisted bench trajectory: machine-readable measurement records
//! written to `results/BENCH_*.json` at the workspace root, so future PRs
//! can diff solver performance instead of eyeballing stderr.
//!
//! The format is deliberately minimal — a JSON array of flat records — and
//! written with std only (the bench binaries must not drag the solver's
//! serialisation choices along). `xtask`'s `serde_json` shim parses it
//! back.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One measurement: an instance label, its wall-clock cost, and — when the
/// run solved something — search-tree size and objective value.
#[derive(Debug, Clone)]
pub struct Record {
    /// Instance / benchmark label, e.g. `"engine_throughput/cold_64req/4"`.
    pub instance: String,
    /// Mean wall-clock per run, milliseconds.
    pub wall_ms: f64,
    /// Branch & bound nodes opened (0 for timing-only records).
    pub nodes: u64,
    /// Objective value (`NaN` serialises as `null` for timing-only records).
    pub objective: f64,
    /// Extra named measurements appended as additional JSON fields (e.g.
    /// `nodes_per_sec`, `warm_hit_rate`). `benchdiff` ignores fields it
    /// does not know, so extras never break the regression gate.
    pub extras: Vec<(String, f64)>,
    /// Extra named text fields, appended after `extras` (the provenance
    /// stamp: see [`Record::stamped`]).
    pub tags: Vec<(String, String)>,
}

/// Where and how a record was measured — the fields planbench stamps on
/// its sets, so a baseline from another host or toolchain is recognisable
/// as such instead of reading as a regression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Provenance {
    pub nproc: usize,
    pub commit: String,
    pub rustc: String,
    pub profile: &'static str,
}

impl Provenance {
    /// The host and build this process runs as (`unknown` where `git` or
    /// `rustc` cannot be asked).
    pub fn here() -> Self {
        fn tool_line(program: &str, args: &[&str]) -> String {
            std::process::Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
        }
        // a record measured on uncommitted changes must not pass for HEAD's
        let dirty = tool_line("git", &["status", "--porcelain", "--untracked-files=no"]);
        let suffix = if dirty.is_empty() || dirty == "unknown" { "" } else { "+dirty" };
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: tool_line("git", &["rev-parse", "HEAD"]) + suffix,
            rustc: tool_line("rustc", &["-V"]),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
        }
    }
}

impl Record {
    /// A timing-only record (no solve attached).
    pub fn timing(instance: impl Into<String>, wall_ms: f64) -> Self {
        Self {
            instance: instance.into(),
            wall_ms,
            nodes: 0,
            objective: f64::NAN,
            extras: Vec::new(),
            tags: Vec::new(),
        }
    }

    /// Append a named extra measurement (builder-style).
    #[must_use]
    pub fn with_extra(mut self, key: impl Into<String>, value: f64) -> Self {
        self.extras.push((key.into(), value));
        self
    }

    /// Stamp the record with where it was measured (builder-style).
    #[must_use]
    pub fn stamped(mut self, p: &Provenance) -> Self {
        self.extras.push(("nproc".to_string(), p.nproc as f64));
        for (key, value) in
            [("commit", &p.commit[..]), ("rustc", &p.rustc[..]), ("profile", p.profile)]
        {
            self.tags.push((key.to_string(), value.to_string()));
        }
        self
    }
}

/// `results/` at the workspace root (created on demand). Benches run with
/// the package dir as cwd, so the path is anchored at compile time instead.
pub fn results_dir() -> io::Result<PathBuf> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| io::Error::other("bench crate has no workspace root"))?;
    let dir = root.join("results");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Serialise `records` as a JSON array and write it to
/// `results/<file_name>` atomically enough for CI (write + rename is
/// overkill for a report artefact; a plain write suffices).
pub fn write_json(file_name: &str, records: &[Record]) -> io::Result<PathBuf> {
    let path = results_dir()?.join(file_name);
    fs::write(&path, render_json(records))?;
    Ok(path)
}

/// Merge `records` into `results/<file_name>`: records already in the file
/// whose instance starts with `prefix` are replaced by this run; records
/// from other benches (different prefix) are kept verbatim. This lets
/// several bench binaries share one `BENCH_*.json` — each owns its own
/// instance namespace and reruns idempotently.
///
/// The file is rewritten from its own one-record-per-line layout, so only
/// files produced by [`write_json`]/[`merge_json`] round-trip; a
/// hand-edited file with records spanning lines loses the foreign records.
pub fn merge_json(file_name: &str, prefix: &str, records: &[Record]) -> io::Result<PathBuf> {
    let path = results_dir()?.join(file_name);
    let existing = fs::read_to_string(&path).unwrap_or_default();
    fs::write(&path, merge_rendered(&existing, prefix, records))?;
    Ok(path)
}

/// The pure half of [`merge_json`]: line-filter `existing`, dropping this
/// run's `prefix` namespace, and append the fresh records.
fn merge_rendered(existing: &str, prefix: &str, records: &[Record]) -> String {
    let mut kept: Vec<&str> = Vec::new();
    for line in existing.lines() {
        let body = line.trim().trim_end_matches(',');
        if !body.starts_with('{') {
            continue;
        }
        // instance labels never contain quotes (bench code picks them),
        // so a plain split is enough to read the label back
        let instance =
            body.strip_prefix("{\"instance\":\"").and_then(|rest| rest.split('"').next());
        match instance {
            Some(name) if name.starts_with(prefix) => {} // superseded
            Some(_) => kept.push(body),
            None => {}
        }
    }
    let mut out = String::from("[\n");
    let mut first = true;
    for line in &kept {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  ");
        out.push_str(line);
    }
    for r in records {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("  ");
        render_record(&mut out, r);
    }
    out.push_str("\n]\n");
    out
}

fn render_json(records: &[Record]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        render_record(&mut out, r);
    }
    out.push_str("\n]\n");
    out
}

fn render_record(out: &mut String, r: &Record) {
    out.push_str("{\"instance\":");
    push_json_str(out, &r.instance);
    let _ = write!(out, ",\"wall_ms\":");
    push_json_f64(out, r.wall_ms);
    let _ = write!(out, ",\"nodes\":{},\"objective\":", r.nodes);
    push_json_f64(out, r.objective);
    for (key, value) in &r.extras {
        out.push(',');
        push_json_str(out, key);
        out.push(':');
        push_json_f64(out, *value);
    }
    for (key, value) in &r.tags {
        out.push(',');
        push_json_str(out, key);
        out.push(':');
        push_json_str(out, value);
    }
    out.push('}');
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// JSON has no NaN/∞: non-finite values become `null`.
fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let start = out.len();
        let _ = write!(out, "{v}");
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(instance: &str, wall_ms: f64, nodes: u64, objective: f64) -> Record {
        Record {
            instance: instance.into(),
            wall_ms,
            nodes,
            objective,
            extras: Vec::new(),
            tags: Vec::new(),
        }
    }

    #[test]
    fn records_render_as_valid_flat_json() {
        let records = [rec("a/1", 12.5, 37, 3.75), Record::timing("b \"q\"", 0.25)];
        let json = render_json(&records);
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.contains("\"instance\":\"a/1\",\"wall_ms\":12.5,\"nodes\":37"), "{json}");
        assert!(json.contains("\"objective\":null"), "{json}");
        assert!(json.contains("\\\"q\\\""), "{json}");
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        let json = render_json(&[rec("x", 3.0, 0, 2.0)]);
        assert!(json.contains("\"wall_ms\":3.0"), "{json}");
        assert!(json.contains("\"objective\":2.0"), "{json}");
    }

    #[test]
    fn extras_append_as_named_fields() {
        let json = render_json(&[Record::timing("a/1", 1.5)
            .with_extra("nodes_per_sec", 1234.5)
            .with_extra("warm_hit_rate", 0.875)]);
        assert!(json.contains("\"nodes_per_sec\":1234.5"), "{json}");
        assert!(json.contains("\"warm_hit_rate\":0.875"), "{json}");
    }

    #[test]
    fn provenance_stamp_appends_text_fields() {
        let p = Provenance {
            nproc: 2,
            commit: "abc123".to_string(),
            rustc: "rustc 1.95.0".to_string(),
            profile: "release",
        };
        let json = render_json(&[Record::timing("a/1", 1.5).stamped(&p)]);
        assert!(json.contains("\"nproc\":2.0"), "{json}");
        assert!(json.contains("\"commit\":\"abc123\""), "{json}");
        assert!(json.contains("\"rustc\":\"rustc 1.95.0\",\"profile\":\"release\"}"), "{json}");
    }

    #[test]
    fn merge_replaces_own_prefix_and_keeps_foreign_records() {
        let existing = render_json(&[
            rec("alpha/1", 1.0, 0, f64::NAN),
            rec("beta/1", 2.0, 5, 9.0),
            rec("alpha/2", 3.0, 0, f64::NAN),
        ]);
        let merged = merge_rendered(&existing, "alpha/", &[rec("alpha/3", 7.0, 1, 4.0)]);
        assert!(!merged.contains("alpha/1"), "{merged}");
        assert!(!merged.contains("alpha/2"), "{merged}");
        assert!(merged.contains("beta/1"), "{merged}");
        assert!(merged.contains("alpha/3"), "{merged}");
        // the merged file still parses as a flat JSON array shape
        assert!(merged.starts_with("[\n") && merged.ends_with("]\n"), "{merged}");
    }

    #[test]
    fn merge_into_empty_is_write() {
        let merged = merge_rendered("", "x/", &[rec("x/1", 1.0, 0, f64::NAN)]);
        assert_eq!(merged, render_json(&[rec("x/1", 1.0, 0, f64::NAN)]));
    }
}
