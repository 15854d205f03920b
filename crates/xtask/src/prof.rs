//! `cargo run -p xtask -- prof <addr|file>` — render a continuous-profile
//! as collapsed stacks and an ANSI "top phases" table.
//!
//! Input is one of:
//!
//! * a live engine's obs address (`127.0.0.1:9184`) — scrapes `/profile`;
//! * a collapsed-stack text file (`path;path;leaf count` per line), e.g.
//!   a saved `/profile` body;
//! * a post-mortem bundle (`rrp-postmortem/1` JSON) — profiles the
//!   bundle's `samples` section.
//!
//! The table attributes each span phase two ways: **self** (samples whose
//! innermost frame is the phase — time spent *in* it) and **total**
//! (samples with the phase anywhere on the stack — time spent *under*
//! it). `--collapsed` skips the table and emits the raw collapsed-stack
//! text, which downstream flamegraph tooling consumes directly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use rrp_obs::http_request;
use serde_json::Value;

/// Maximum bar width in glyphs (matches the watch dashboard).
const WIDTH: usize = 32;

pub fn run(args: &[String]) -> ExitCode {
    let mut source = None;
    let mut top = 12usize;
    let mut color = true;
    let mut collapsed_only = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--top" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => top = n.max(1),
                None => return usage("--top needs an integer argument"),
            },
            "--no-color" => color = false,
            "--collapsed" => collapsed_only = true,
            flag if flag.starts_with('-') => return usage(&format!("unknown flag {flag}")),
            a => {
                if source.replace(a.to_string()).is_some() {
                    return usage("more than one input given");
                }
            }
        }
    }
    let Some(source) = source else {
        return usage("no input given (an obs address, a collapsed file, or a bundle)");
    };

    let collapsed = match load(&source) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("prof: {e}");
            return ExitCode::FAILURE;
        }
    };
    if collapsed_only {
        print!("{collapsed}");
        return ExitCode::SUCCESS;
    }
    let (rows, total) = aggregate(&collapsed);
    if total == 0 {
        eprintln!("prof: no samples in `{source}` (is the engine's profiler enabled?)");
        return ExitCode::FAILURE;
    }
    print!("{}", render_table(&rows, total, top, color));
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("prof: {msg}");
    eprintln!(
        "usage: cargo run -p xtask -- prof <addr|collapsed.txt|bundle.json> [--top <n>] [--collapsed] [--no-color]"
    );
    ExitCode::from(2)
}

/// Resolve the input to collapsed-stack text. A readable file wins over an
/// address interpretation; a JSON file is treated as a post-mortem bundle.
fn load(source: &str) -> Result<String, String> {
    if let Ok(body) = std::fs::read_to_string(source) {
        if body.trim_start().starts_with('{') {
            return bundle_to_collapsed(&body);
        }
        return Ok(body);
    }
    if source.contains(':') {
        return match http_request(source, "GET", "/profile", None) {
            Some((200, _, body)) => Ok(body),
            Some((404, ..)) => {
                Err(format!("{source} serves no profile — engine runs without `ProfConfig`"))
            }
            Some((code, ..)) => Err(format!("{source}/profile answered HTTP {code}")),
            None => Err(format!("cannot reach {source}/profile")),
        };
    }
    Err(format!("`{source}` is neither a readable file nor an obs address"))
}

/// Extract a bundle's `samples` section as collapsed-stack text.
pub(crate) fn bundle_to_collapsed(body: &str) -> Result<String, String> {
    let v: Value = serde_json::from_str(body).map_err(|e| format!("invalid JSON: {e:?}"))?;
    let samples = v
        .get("samples")
        .and_then(Value::as_array)
        .ok_or("bundle has no `samples` array (not an rrp-postmortem/1 document?)")?;
    let mut out = String::new();
    for s in samples {
        let stack = s.get("stack").and_then(Value::as_str).unwrap_or_default();
        let count = s.get("count").and_then(Value::as_u64).unwrap_or(0);
        if !stack.is_empty() && count > 0 {
            let _ = writeln!(out, "{stack} {count}");
        }
    }
    Ok(out)
}

/// Per-phase attribution of a collapsed-stack profile.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct PhaseRow {
    pub phase: String,
    /// Samples whose innermost frame is this phase.
    pub self_n: u64,
    /// Samples with this phase anywhere on the stack.
    pub total_n: u64,
}

/// Fold collapsed lines (`a;b;leaf count`) into per-phase self/total
/// counts plus the sample denominator. Unparseable lines are skipped —
/// profiles travel through copy-paste.
pub(crate) fn aggregate(collapsed: &str) -> (Vec<PhaseRow>, u64) {
    let mut phases: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    let mut total = 0u64;
    for line in collapsed.lines() {
        let Some((path, count)) = line.rsplit_once(' ') else { continue };
        let Ok(count) = count.parse::<u64>() else { continue };
        let frames: Vec<&str> = path.split(';').filter(|f| !f.is_empty()).collect();
        let Some(&leaf) = frames.last() else { continue };
        total += count;
        phases.entry(leaf).or_default().0 += count;
        // total-time: count each phase once per path, even if recursion
        // put it on the stack twice
        let mut seen: Vec<&str> = Vec::with_capacity(frames.len());
        for f in frames {
            if !seen.contains(&f) {
                seen.push(f);
                phases.entry(f).or_default().1 += count;
            }
        }
    }
    let mut rows: Vec<PhaseRow> = phases
        .into_iter()
        .map(|(phase, (self_n, total_n))| PhaseRow { phase: phase.to_string(), self_n, total_n })
        .collect();
    rows.sort_by(|a, b| b.self_n.cmp(&a.self_n).then_with(|| a.phase.cmp(&b.phase)));
    (rows, total)
}

/// The "top phases" table. `total` is the sample denominator; rows beyond
/// `top` are folded into a remainder line so percentages always add up.
pub(crate) fn render_table(rows: &[PhaseRow], total: u64, top: usize, color: bool) -> String {
    let (bold, dim, accent, reset) =
        if color { ("\x1b[1m", "\x1b[2m", "\x1b[36m", "\x1b[0m") } else { ("", "", "", "") };
    let mut out = String::with_capacity(1024);
    let width = rows.iter().take(top).map(|r| r.phase.len()).max().unwrap_or(5).max(5);
    let _ = writeln!(out, "{bold}top phases — {total} samples{reset}");
    let _ = writeln!(
        out,
        "{dim}  {:<width$}  {:>6}  {:>6}  {:>8}{reset}",
        "phase", "self%", "total%", "samples"
    );
    let mut shown = 0u64;
    for r in rows.iter().take(top) {
        let self_pct = 100.0 * r.self_n as f64 / total as f64;
        let total_pct = 100.0 * r.total_n as f64 / total as f64;
        let bar_w = ((r.self_n as f64 / total as f64) * WIDTH as f64).ceil() as usize;
        let bar: String = "█".repeat(if r.self_n > 0 { bar_w.max(1) } else { 0 });
        let _ = writeln!(
            out,
            "  {:<width$}  {self_pct:>5.1}%  {total_pct:>5.1}%  {:>8}  {accent}{bar}{reset}",
            r.phase, r.self_n
        );
        shown += r.self_n;
    }
    let rest = total - shown;
    if rest > 0 {
        let _ = writeln!(
            out,
            "{dim}  {:<width$}  {:>5.1}%                 ({} more phases){reset}",
            "(other)",
            100.0 * rest as f64 / total as f64,
            rows.len().saturating_sub(top)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROFILE: &str = "request 10\n\
                           request;rung:full;milp 70\n\
                           request;rung:full 5\n\
                           request;rung:deterministic;milp 15\n";

    #[test]
    fn self_and_total_attribution() {
        let (rows, total) = aggregate(PROFILE);
        assert_eq!(total, 100);
        let row = |p: &str| rows.iter().find(|r| r.phase == p).expect(p);
        // milp leads self-time across both rungs
        assert_eq!(row("milp").self_n, 85);
        assert_eq!(row("milp").total_n, 85);
        // request's total covers every sample, its self only the bare line
        assert_eq!(row("request").self_n, 10);
        assert_eq!(row("request").total_n, 100);
        assert_eq!(row("rung:full").self_n, 5);
        assert_eq!(row("rung:full").total_n, 75);
        // sorted by self descending
        assert_eq!(rows[0].phase, "milp");
    }

    #[test]
    fn recursion_counts_total_once_per_path() {
        let (rows, total) = aggregate("a;b;a 4\n");
        assert_eq!(total, 4);
        let a = rows.iter().find(|r| r.phase == "a").unwrap();
        assert_eq!(a.total_n, 4, "phase on the stack twice still counts one path");
        assert_eq!(a.self_n, 4);
    }

    #[test]
    fn garbage_lines_are_skipped() {
        let (rows, total) = aggregate("not a profile\n\nrequest 3\nbad count x\n");
        assert_eq!(total, 3);
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn table_renders_and_truncates() {
        let (rows, total) = aggregate(PROFILE);
        let t = render_table(&rows, total, 2, false);
        assert!(t.contains("top phases — 100 samples"), "{t}");
        assert!(t.contains("milp"), "{t}");
        assert!(t.contains("(other)"), "{t}");
        assert!(!t.contains('\x1b'), "--no-color strips ANSI: {t:?}");
        let colored = render_table(&rows, total, 2, true);
        assert!(colored.contains('\x1b'));
    }

    #[test]
    fn bundle_samples_convert_to_collapsed() {
        let body = r#"{"schema":"rrp-postmortem/1","samples":[
            {"stack":"request;milp","count":7},{"stack":"request","count":2}]}"#;
        let c = bundle_to_collapsed(body).unwrap();
        assert_eq!(c, "request;milp 7\nrequest 2\n");
        assert!(bundle_to_collapsed("{}").is_err());
    }
}
