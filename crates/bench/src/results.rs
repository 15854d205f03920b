//! The persisted bench trajectory: machine-readable records written to
//! `results/BENCH_*.json` at the workspace root, one file per bench, which
//! `xtask benchdiff` gates against the committed copy.
//!
//! A record's numbers other than `wall_ms` are counts and objectives the
//! program makes — nodes, LP iterations, cache hits — and they repeat to the
//! last digit on any host, so the gate compares them exactly. `wall_ms` is
//! printed beside them for the reader and never gated: wall time on a shared
//! host drifts by more than most real changes move it. Every row also
//! carries a text provenance stamp (commit, toolchain, profile, CPUs).
//!
//! The format is deliberately minimal — a JSON array of flat records — and
//! written with std only (the bench binaries must not drag the solver's
//! serialisation choices along). `xtask`'s `serde_json` shim parses it
//! back.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use rrp_trace::json::{f64_into, str_into};

/// One measurement: an instance label, its wall-clock cost, and the counts
/// the run produced.
#[derive(Debug, Clone)]
pub struct Record {
    /// Instance / benchmark label, e.g. `"milp_lotsizing/drrp_cap24/warm"`.
    pub instance: String,
    /// Wall-clock of the measured run, milliseconds. Shown, never gated.
    pub wall_ms: f64,
    /// Branch & bound nodes opened.
    pub nodes: u64,
    /// Objective value (`NaN` serialises as `null` where nothing is
    /// optimised).
    pub objective: f64,
    /// Further gated counts, appended as named integer fields (e.g.
    /// `lp_iters`, `warm_hits`). Raw counts, not ratios of them, so a moved
    /// field says which count moved.
    pub counts: Vec<(&'static str, u64)>,
}

impl Record {
    pub fn new(instance: impl Into<String>, wall_ms: f64, nodes: u64, objective: f64) -> Self {
        Self { instance: instance.into(), wall_ms, nodes, objective, counts: Vec::new() }
    }

    /// Append a named count (builder-style).
    #[must_use]
    pub fn with_count(mut self, key: &'static str, value: u64) -> Self {
        self.counts.push((key, value));
        self
    }
}

/// Where and how the records were measured, stamped on every row as text
/// (the gate ignores text), so a row from another host or toolchain is
/// recognisable as such.
struct Provenance {
    commit: String,
    rustc: String,
    profile: &'static str,
    nproc: usize,
}

impl Provenance {
    /// The host and build this process runs as (`unknown` where `git` or
    /// `rustc` cannot be asked).
    fn here() -> Self {
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
            commit: tool_line("git", &["rev-parse", "HEAD"]) + suffix,
            rustc: tool_line("rustc", &["-V"]),
            profile: if cfg!(debug_assertions) { "debug" } else { "release" },
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// `results/` at the workspace root (created on demand). Benches run with
/// the package dir as cwd, so the path is anchored at compile time instead.
fn results_dir() -> io::Result<PathBuf> {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let root = manifest
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| io::Error::other("bench crate has no workspace root"))?;
    let dir = root.join("results");
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Stamp `records` with this host's provenance, serialise them as a JSON
/// array and write it to `results/<file_name>`, reporting the path on
/// stderr. Each bench owns its file and rewrites it whole.
pub fn write_json(file_name: &str, records: &[Record]) -> io::Result<()> {
    let path = results_dir()?.join(file_name);
    fs::write(&path, render_json(records, &Provenance::here()))?;
    eprintln!("wrote {} ({} records)", path.display(), records.len());
    Ok(())
}

fn render_json(records: &[Record], stamp: &Provenance) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        render_record(&mut out, r, stamp);
    }
    out.push_str("\n]\n");
    out
}

fn render_record(out: &mut String, r: &Record, stamp: &Provenance) {
    out.push_str("{\"instance\":");
    str_into(out, &r.instance);
    let _ = write!(out, ",\"wall_ms\":");
    f64_into(out, r.wall_ms);
    let _ = write!(out, ",\"nodes\":{},\"objective\":", r.nodes);
    f64_into(out, r.objective);
    for (key, value) in &r.counts {
        let _ = write!(out, ",\"{key}\":{value}");
    }
    let nproc = stamp.nproc.to_string();
    for (key, value) in [
        ("commit", &stamp.commit[..]),
        ("rustc", &stamp.rustc[..]),
        ("profile", stamp.profile),
        ("nproc", &nproc[..]),
    ] {
        let _ = write!(out, ",\"{key}\":");
        str_into(out, value);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp() -> Provenance {
        Provenance {
            commit: "abc123".to_string(),
            rustc: "rustc 1.95.0".to_string(),
            profile: "release",
            nproc: 2,
        }
    }

    #[test]
    fn records_render_as_valid_flat_json() {
        let records =
            [Record::new("a/1", 12.5, 37, 3.75), Record::new("b \"q\"", 0.25, 0, f64::NAN)];
        let json = render_json(&records, &stamp());
        assert!(json.starts_with("[\n"), "{json}");
        assert!(json.contains("\"instance\":\"a/1\",\"wall_ms\":12.5,\"nodes\":37"), "{json}");
        assert!(json.contains("\"objective\":null"), "{json}");
        assert!(json.contains("\\\"q\\\""), "{json}");
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        let json = render_json(&[Record::new("x", 3.0, 0, 2.0)], &stamp());
        assert!(json.contains("\"wall_ms\":3.0"), "{json}");
        assert!(json.contains("\"objective\":2.0"), "{json}");
    }

    #[test]
    fn extras_append_as_named_fields() {
        let json = render_json(
            &[Record::new("a/1", 1.5, 9, 1.0)
                .with_count("lp_iters", 1234)
                .with_count("warm_hits", 7)],
            &stamp(),
        );
        assert!(json.contains("\"objective\":1.0,\"lp_iters\":1234,\"warm_hits\":7,"), "{json}");
    }

    #[test]
    fn every_written_row_carries_provenance() {
        let records = [
            Record::new("a/1", 1.5, 3, 2.5).with_count("lp_iters", 40),
            Record::new("a/2", 0.5, 0, f64::NAN),
        ];
        let json = render_json(&records, &stamp());
        let rows: Vec<&str> = json.lines().filter(|l| l.trim_start().starts_with('{')).collect();
        assert_eq!(rows.len(), records.len(), "{json}");
        for row in rows {
            assert!(
                row.trim_end_matches(',').ends_with(
                    ",\"commit\":\"abc123\",\"rustc\":\"rustc 1.95.0\",\"profile\":\"release\",\
                     \"nproc\":\"2\"}"
                ),
                "{row}"
            );
        }
    }
}
