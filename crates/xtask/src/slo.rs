//! `cargo run -p xtask -- slo <addr|file.json>` — render per-tenant SLO
//! state as a budget/burn table plus a span-waterfall view of one
//! tail-sampled exemplar timeline.
//!
//! The input is a live engine (`/slo` is scraped), a saved `rrp-slo/1`
//! status document, or a flight-recorder post-mortem bundle
//! (`rrp-postmortem/1`, whose `slo` section is rendered). Reports are
//! deterministic for a fixed document — no wall clock — which is what
//! lets CI golden-pin them.

use std::fmt::Write as _;
use std::process::ExitCode;

use rrp_obs::http_request;
use serde_json::Value;

/// Waterfall bar width in glyphs.
const WATERFALL_WIDTH: usize = 40;

pub fn run(args: &[String]) -> ExitCode {
    let mut input = None;
    let mut color = true;
    let mut timeline: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--no-color" => color = false,
            "--timeline" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(id) => timeline = Some(id),
                None => return usage("--timeline needs a request id"),
            },
            flag if flag.starts_with('-') => return usage(&format!("unknown flag {flag}")),
            a => {
                if input.replace(a.to_string()).is_some() {
                    return usage("more than one input given");
                }
            }
        }
    }
    let Some(input) = input else {
        return usage("no input given (an engine address, /slo JSON, or a post-mortem bundle)");
    };
    let body = if std::path::Path::new(&input).exists() {
        match std::fs::read_to_string(&input) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("slo: cannot read {input}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match http_request(input.as_str(), "GET", "/slo", None) {
            Some((200, _, b)) => b,
            Some((code, _, b)) => {
                eprintln!("slo: {input}/slo answered HTTP {code}: {}", b.trim());
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("slo: cannot reach {input}/slo — is the engine serving with --slo?");
                return ExitCode::FAILURE;
            }
        }
    };
    match render(&body, timeline, color) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("slo: {input}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("slo: {msg}");
    eprintln!(
        "usage: cargo run -p xtask -- slo <addr|file.json> [--timeline <request_id>] [--no-color]"
    );
    ExitCode::from(2)
}

pub(crate) fn render(body: &str, timeline: Option<u64>, color: bool) -> Result<String, String> {
    let v: Value = serde_json::from_str(body).map_err(|e| format!("invalid JSON: {e:?}"))?;
    // a post-mortem bundle carries the status document in its `slo` key
    let doc = match v.get("schema").and_then(Value::as_str) {
        Some("rrp-slo/1") => &v,
        Some("rrp-postmortem/1") => v
            .get("slo")
            .filter(|s| !s.is_null())
            .ok_or("bundle has no slo section (engine ran without --slo)")?,
        other => {
            return Err(format!("unsupported schema `{}` (want rrp-slo/1)", other.unwrap_or("?")))
        }
    };
    if doc.get("schema").and_then(Value::as_str) != Some("rrp-slo/1") {
        return Err("slo section is not an rrp-slo/1 document".to_string());
    }
    let (bold, dim, alert, reset) =
        if color { ("\x1b[1m", "\x1b[2m", "\x1b[31;1m", "\x1b[0m") } else { ("", "", "", "") };
    let mut out = String::with_capacity(4096);

    let alerts_total = doc.get("alerts_total").and_then(Value::as_u64).unwrap_or(0);
    let ex =
        |k: &str| doc.get("exemplars").and_then(|e| e.get(k)).and_then(Value::as_u64).unwrap_or(0);
    let _ = writeln!(out, "{bold}slo — error budgets and burn rates{reset}");
    let _ = writeln!(
        out,
        "{dim}  {alerts_total} alert(s) fired   exemplars: {} retained, {} dropped, {} stored{reset}",
        ex("retained"),
        ex("dropped"),
        ex("stored"),
    );

    // budget/burn table, one row per (tenant, objective)
    let tenants = doc.get("tenants").and_then(Value::as_array).unwrap_or(&[]);
    out.push('\n');
    let _ = writeln!(
        out,
        "{bold}  {:<16} {:<14} {:>7} {:>7} {:>6} {:>10}  burn/window{reset}",
        "tenant", "objective", "events", "bad", "budget", "remaining"
    );
    for t in tenants {
        let tenant = t.get("tenant").and_then(Value::as_str).unwrap_or("?");
        for o in t.get("objectives").and_then(Value::as_array).unwrap_or(&[]) {
            let events = o.get("events").and_then(Value::as_u64).unwrap_or(0);
            if events == 0 {
                continue; // objectives nothing ever fed stay out of the table
            }
            let alerting = o.get("alerting").and_then(Value::as_bool).unwrap_or(false);
            let mut burns = String::new();
            for b in o.get("burn").and_then(Value::as_array).unwrap_or(&[]) {
                let _ = write!(
                    burns,
                    " {}={:.1}",
                    b.get("window").and_then(Value::as_str).unwrap_or("?"),
                    b.get("rate").and_then(Value::as_f64).unwrap_or(0.0)
                );
            }
            let (mark, unmark) = if alerting { (alert, reset) } else { ("", "") };
            let _ = writeln!(
                out,
                "  {mark}{:<16} {:<14} {:>7} {:>7} {:>5.1}% {:>10.2}{unmark} {burns}{}",
                compact(tenant, 16),
                o.get("objective").and_then(Value::as_str).unwrap_or("?"),
                events,
                o.get("bad").and_then(Value::as_u64).unwrap_or(0),
                o.get("budget").and_then(Value::as_f64).unwrap_or(0.0) * 100.0,
                o.get("budget_remaining").and_then(Value::as_f64).unwrap_or(1.0),
                if alerting { "  ALERTING" } else { "" },
            );
        }
    }

    // fired alerts with their exemplar links
    let alerts = doc.get("alerts").and_then(Value::as_array).unwrap_or(&[]);
    if !alerts.is_empty() {
        out.push('\n');
        let _ = writeln!(out, "{bold}  alerts{reset}");
        for a in alerts {
            let ids: Vec<String> = a
                .get("exemplar_request_ids")
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(Value::as_u64)
                .map(|id| format!("#{id}"))
                .collect();
            let _ = writeln!(
                out,
                "  {alert}{:<16}{reset} {:<14} {} pair at {:.1}x budget   exemplars: {}",
                compact(a.get("tenant").and_then(Value::as_str).unwrap_or("?"), 16),
                a.get("objective").and_then(Value::as_str).unwrap_or("?"),
                a.get("window").and_then(Value::as_str).unwrap_or("?"),
                a.get("burn").and_then(Value::as_f64).unwrap_or(0.0),
                if ids.is_empty() { "none".to_string() } else { ids.join(" ") },
            );
        }
    }

    // exemplar waterfall: the requested timeline, or the first retained
    let timelines = doc.get("exemplar_timelines").and_then(Value::as_array).unwrap_or(&[]);
    let chosen = match timeline {
        Some(id) => timelines
            .iter()
            .find(|tl| tl.get("request_id").and_then(Value::as_u64) == Some(id))
            .ok_or(format!("no exemplar timeline with request id {id}"))?,
        None => match timelines.first() {
            Some(tl) => tl,
            None => {
                out.push('\n');
                let _ = writeln!(out, "{dim}  (no exemplar timelines retained){reset}");
                return Ok(out);
            }
        },
    };
    out.push('\n');
    out.push_str(&waterfall(chosen, bold, dim, reset));
    if timelines.len() > 1 && timeline.is_none() {
        let _ = writeln!(
            out,
            "{dim}  ({} more timeline(s) — pick one with --timeline <request_id>){reset}",
            timelines.len() - 1
        );
    }
    Ok(out)
}

/// Span-waterfall view of one exemplar: spans as positioned bars over the
/// request's lifetime, instant events as point markers, indented by span
/// nesting.
fn waterfall(tl: &Value, bold: &str, dim: &str, reset: &str) -> String {
    let mut out = String::with_capacity(1024);
    let request_id = tl.get("request_id").and_then(Value::as_u64).unwrap_or(0);
    let _ = writeln!(
        out,
        "{bold}  exemplar #{request_id} — {} / {}{reset}",
        tl.get("tenant").and_then(Value::as_str).unwrap_or("?"),
        tl.get("reason").and_then(Value::as_str).unwrap_or("?"),
    );
    let _ = writeln!(
        out,
        "{dim}  level {}   outcome {}   latency {} µs   deadline_met {}   {} event(s) truncated{reset}",
        tl.get("level").and_then(Value::as_str).unwrap_or("?"),
        tl.get("outcome").and_then(Value::as_str).unwrap_or("?"),
        tl.get("latency_us").and_then(Value::as_u64).unwrap_or(0),
        tl.get("deadline_met").and_then(Value::as_bool).unwrap_or(false),
        tl.get("truncated").and_then(Value::as_u64).unwrap_or(0),
    );
    let events = tl.get("events").and_then(Value::as_array).unwrap_or(&[]);
    if events.is_empty() {
        let _ = writeln!(out, "{dim}  (timeline carries no events){reset}");
        return out;
    }
    let t0 = events.iter().filter_map(|e| e.get("t_us").and_then(Value::as_u64)).min().unwrap_or(0);
    let t1 =
        events.iter().filter_map(|e| e.get("t_us").and_then(Value::as_u64)).max().unwrap_or(t0);
    let dur = (t1 - t0).max(1);
    let pos = |t: u64| ((t - t0) as usize * (WATERFALL_WIDTH - 1)) / dur as usize;

    // span open/close pairing (by span id) for bar extents and nesting
    let mut open: Vec<(u64, usize)> = Vec::new(); // (span, row index)
    struct Row {
        label: String,
        depth: usize,
        start: u64,
        end: Option<u64>,
        point: bool,
        detail: String,
    }
    let mut rows: Vec<Row> = Vec::new();
    for ev in events {
        let t = ev.get("t_us").and_then(Value::as_u64).unwrap_or(t0);
        let tag = ev.get("ev").and_then(Value::as_str).unwrap_or("?");
        let span = ev.get("span").and_then(Value::as_u64).unwrap_or(0);
        match tag {
            "span_open" => {
                let name = ev.get("name").and_then(Value::as_str).unwrap_or("?");
                rows.push(Row {
                    label: name.to_string(),
                    depth: open.len(),
                    start: t,
                    end: None,
                    point: false,
                    detail: String::new(),
                });
                open.push((span, rows.len() - 1));
            }
            "span_close" => {
                if let Some(i) = open.iter().rposition(|(s, _)| *s == span) {
                    let (_, row) = open.remove(i);
                    if let Some(r) = rows.get_mut(row) {
                        r.end = Some(t);
                    }
                }
            }
            _ => {
                let mut detail = String::new();
                if let Some(obj) = ev.as_object() {
                    for (k, val) in obj {
                        if matches!(k.as_str(), "t_us" | "worker" | "span" | "ev") {
                            continue;
                        }
                        let rendered = match val {
                            Value::String(s) => s.clone(),
                            other => serde_json::to_string(other).unwrap_or_default(),
                        };
                        let _ = write!(detail, " {k}={rendered}");
                    }
                }
                rows.push(Row {
                    label: tag.to_string(),
                    depth: open.len(),
                    start: t,
                    end: None,
                    point: true,
                    detail,
                });
            }
        }
    }

    for r in &rows {
        let mut bar = vec![' '; WATERFALL_WIDTH];
        if r.point {
            bar[pos(r.start)] = '●';
        } else {
            let a = pos(r.start);
            let b = pos(r.end.unwrap_or(t1)).max(a);
            for c in bar.iter_mut().take(b + 1).skip(a) {
                *c = '─';
            }
            bar[a] = '├';
            bar[b] = if r.end.is_some() { '┤' } else { '╌' };
        }
        let bar: String = bar.into_iter().collect();
        let indent = "  ".repeat(r.depth);
        let label = format!("{indent}{}", r.label);
        let span_time = match r.end {
            Some(e) => format!("+{}..+{} µs", r.start - t0, e - t0),
            None if r.point => format!("+{} µs", r.start - t0),
            None => format!("+{} µs..", r.start - t0),
        };
        let _ = writeln!(out, "  {label:<22} {bar}  {span_time}{}", r.detail);
    }
    out
}

/// Truncate a tenant id for its table column, stripping control chars.
fn compact(s: &str, width: usize) -> String {
    s.chars().map(|c| if c.is_control() { '·' } else { c }).take(width).collect()
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;

    /// A synthetic but shape-faithful `/slo` document: one storm tenant
    /// past its deadline budget with a retained exemplar, one calm
    /// tenant. Changing the renderer means re-blessing the golden with
    /// `UPDATE_GOLDEN=1 cargo test -p xtask slo`.
    const STATUS: &str = r#"{"schema":"rrp-slo/1","now_us":9500,"alerts_total":1,
      "exemplars":{"retained":10,"dropped":2,"stored":10},
      "tenants":[
        {"tenant":"storm","requests":12,"p99_latency_ms":3.1,"cost_ratio":null,"objectives":[
          {"objective":"deadline_miss","budget":0.01,"events":12,"bad":12,"budget_remaining":-99.0,"alerting":true,
           "burn":[{"window":"5m","rate":100.0},{"window":"1h","rate":100.0},{"window":"6h","rate":100.0},{"window":"3d","rate":100.0}]},
          {"objective":"latency","budget":0.01,"events":12,"bad":0,"budget_remaining":1.0,"alerting":false,
           "burn":[{"window":"5m","rate":0.0},{"window":"1h","rate":0.0},{"window":"6h","rate":0.0},{"window":"3d","rate":0.0}]},
          {"objective":"cost_ratio","budget":0.05,"events":0,"bad":0,"budget_remaining":1.0,"alerting":false,
           "burn":[{"window":"5m","rate":0.0},{"window":"1h","rate":0.0},{"window":"6h","rate":0.0},{"window":"3d","rate":0.0}]}]},
        {"tenant":"calm","requests":40,"p99_latency_ms":1.2,"cost_ratio":1.05,"objectives":[
          {"objective":"deadline_miss","budget":0.01,"events":40,"bad":0,"budget_remaining":1.0,"alerting":false,
           "burn":[{"window":"5m","rate":0.0},{"window":"1h","rate":0.0},{"window":"6h","rate":0.0},{"window":"3d","rate":0.0}]},
          {"objective":"latency","budget":0.01,"events":40,"bad":0,"budget_remaining":1.0,"alerting":false,
           "burn":[{"window":"5m","rate":0.0},{"window":"1h","rate":0.0},{"window":"6h","rate":0.0},{"window":"3d","rate":0.0}]},
          {"objective":"cost_ratio","budget":0.05,"events":8,"bad":0,"budget_remaining":1.0,"alerting":false,
           "burn":[{"window":"5m","rate":0.0},{"window":"1h","rate":0.0},{"window":"6h","rate":0.0},{"window":"3d","rate":0.0}]}]}],
      "alerts":[
        {"tenant":"storm","objective":"deadline_miss","window":"fast","burn":100.0,"t_us":9500,"exemplar_request_ids":[9,8,7]}],
      "exemplar_timelines":[
        {"request_id":9,"tenant":"storm","reason":"deadline","level":"full","outcome":"ok",
         "latency_us":1500,"deadline_met":false,"t_us":10500,"truncated":0,"events":[
          {"t_us":9000,"worker":0,"span":19,"ev":"span_open","name":"request","parent":0},
          {"t_us":9100,"worker":0,"span":19,"ev":"enqueued"},
          {"t_us":9200,"worker":1,"span":19,"ev":"dequeued"},
          {"t_us":9250,"worker":1,"span":19,"ev":"cache_lookup","hit":false},
          {"t_us":9300,"worker":1,"span":19,"ev":"audit_gate","verdict":"pass","tightenings":2},
          {"t_us":9400,"worker":1,"span":20,"ev":"span_open","name":"rung:full","parent":19},
          {"t_us":10200,"worker":1,"span":20,"ev":"ladder_step","level":"full","outcome":"exhausted:deadline","elapsed_us":800},
          {"t_us":10300,"worker":1,"span":20,"ev":"span_close"},
          {"t_us":10500,"worker":1,"span":19,"ev":"request_done","request_id":9,"tenant":"storm","level":"full","outcome":"ok","latency_us":1500,"deadline_met":false}
        ]}]}"#;

    fn check_golden(name: &str, text: &str) {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{name}.txt"));
        if std::env::var_os("UPDATE_GOLDEN").is_some() {
            std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
            std::fs::write(&path, text).expect("write golden");
            return;
        }
        let want =
            std::fs::read_to_string(&path).expect("golden file; regenerate with UPDATE_GOLDEN=1");
        assert_eq!(
            text, want,
            "golden mismatch for `{name}`; if intended, rerun with UPDATE_GOLDEN=1 and review"
        );
    }

    #[test]
    fn slo_report_matches_the_golden_pin() {
        let report = render(STATUS, None, false).expect("synthetic status renders");
        check_golden("slo_report", &report);
    }

    #[test]
    fn report_names_every_section() {
        let report = render(STATUS, None, false).unwrap();
        assert!(report.contains("1 alert(s) fired"), "{report}");
        assert!(report.contains("storm"), "{report}");
        assert!(report.contains("ALERTING"), "{report}");
        assert!(report.contains("exemplars: #9 #8 #7"), "{report}");
        assert!(report.contains("exemplar #9 — storm / deadline"), "{report}");
        assert!(report.contains("rung:full"), "{report}");
        assert!(report.contains("ladder_step"), "{report}");
        // the zero-event cost objective for storm stays out of the table
        assert!(!report.contains("storm            cost_ratio"), "{report}");
        assert!(!report.contains('\x1b'), "--no-color strips ANSI");
    }

    #[test]
    fn timeline_flag_selects_and_unknown_id_errors() {
        assert!(render(STATUS, Some(9), false).is_ok());
        let err = render(STATUS, Some(404), false).unwrap_err();
        assert!(err.contains("no exemplar timeline"), "{err}");
    }

    #[test]
    fn postmortem_bundles_are_unwrapped() {
        let bundle =
            format!(r#"{{"schema":"rrp-postmortem/1","cause":"slo_burn_rate","slo":{STATUS}}}"#);
        let report = render(&bundle, None, false).expect("bundle renders");
        assert!(report.contains("error budgets"), "{report}");
        let missing = r#"{"schema":"rrp-postmortem/1","cause":"panic","slo":null}"#;
        assert!(render(missing, None, false).unwrap_err().contains("no slo section"));
    }

    #[test]
    fn wrong_schema_is_refused() {
        let err = render(r#"{"schema":"other/9"}"#, None, false).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        assert!(render("not json", None, false).is_err());
    }
}
