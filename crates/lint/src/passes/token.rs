//! The token pass: the original `xtask lint` solver-safety scan, ported
//! onto the framework. Line-based on purpose — it is a tripwire against
//! new abort/float-equality debt, not a parser — and its finding keys
//! (`<path>: <trimmed line>`) are the legacy `lint-allow.txt` format.

use crate::findings::Finding;
use crate::model::Workspace;
use crate::passes::Pass;

/// One forbidden pattern: the needle searched for and the rule label
/// reported with a hit.
const PATTERNS: &[(&str, &str)] = &[
    (".unwrap()", "no-unwrap"),
    (".expect(", "no-expect"),
    ("panic!(", "no-panic"),
    ("unreachable!(", "no-unreachable"),
    ("todo!(", "no-todo"),
    ("unimplemented!(", "no-unimplemented"),
    (".iter().nth(", "no-linear-nth"),
    (".remove(0)", "no-front-remove"),
];

pub struct TokenPass;

impl Pass for TokenPass {
    fn name(&self) -> &'static str {
        "token"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        let mut out = Vec::new();
        for file in &ws.files {
            if !in_scope(&file.path) {
                continue;
            }
            scan_file(&file.path, &file.src, &mut out);
        }
        out
    }
}

/// Library code under `crates/*/src` only: xtask and this crate carry
/// the forbidden patterns as search needles, `src/bin` CLI tools may
/// abort on bad input, and shims mirror external crates' own APIs.
fn in_scope(path: &str) -> bool {
    path.starts_with("crates/")
        && !path.starts_with("crates/xtask/")
        && !path.starts_with("crates/lint/")
        && !path.contains("/bin/")
}

/// Scan one file, appending findings. Lines inside `#[cfg(test)]`-gated
/// blocks and `//` comments are exempt.
fn scan_file(rel: &str, src: &str, out: &mut Vec<Finding>) {
    // depth of the brace block being skipped, when inside #[cfg(test)]
    let mut skip_depth: Option<i64> = None;
    let mut pending_cfg_test = false;
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        if let Some(depth) = skip_depth.as_mut() {
            *depth += brace_delta(line);
            if *depth <= 0 {
                skip_depth = None;
            }
            continue;
        }
        if line.starts_with("//") {
            continue;
        }
        if line.contains("#[cfg(test)]") {
            pending_cfg_test = true;
            continue;
        }
        if pending_cfg_test {
            if line.starts_with("#[") || line.is_empty() {
                continue; // more attributes between cfg(test) and the item
            }
            let d = brace_delta(line);
            pending_cfg_test = false;
            if d > 0 {
                skip_depth = Some(d);
            }
            continue;
        }
        let code = strip_line_comment(line);
        for &(needle, rule) in PATTERNS {
            if code.contains(needle) {
                out.push(finding(rel, idx + 1, rule, line));
            }
        }
        if has_float_eq(code) {
            out.push(finding(rel, idx + 1, "no-float-eq", line));
        }
    }
}

fn finding(rel: &str, line: usize, rule: &str, content: &str) -> Finding {
    Finding {
        lint: "token".to_string(),
        file: rel.to_string(),
        line: line as u32,
        key: format!("{rel}: {content}"),
        message: format!("[{rule}] {content}"),
        justified: false,
    }
}

/// `{`-minus-`}` count of a line, ignoring braces inside string literals.
fn brace_delta(line: &str) -> i64 {
    let mut delta = 0i64;
    let mut in_str = false;
    let mut escaped = false;
    for c in line.chars() {
        if escaped {
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_str => escaped = true,
            '"' => in_str = !in_str,
            '{' if !in_str => delta += 1,
            '}' if !in_str => delta -= 1,
            _ => {}
        }
    }
    delta
}

/// Cut the line at a `//` that is not inside a string literal.
fn strip_line_comment(line: &str) -> &str {
    let b = line.as_bytes();
    let mut in_str = false;
    let mut escaped = false;
    for i in 0..b.len() {
        if escaped {
            escaped = false;
            continue;
        }
        match b[i] {
            b'\\' if in_str => escaped = true,
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < b.len() && b[i + 1] == b'/' => return &line[..i],
            _ => {}
        }
    }
    line
}

/// True when the line compares with `==`/`!=` and either operand is a
/// floating-point literal. Exact float equality on a solver path is
/// almost always a tolerance bug; spell a genuine bit-compare via
/// `to_bits()` or allowlist it.
fn has_float_eq(code: &str) -> bool {
    let b = code.as_bytes();
    let mut i = 0;
    while i + 1 < b.len() {
        let is_eq = b[i] == b'=' && b[i + 1] == b'=';
        let is_ne = b[i] == b'!' && b[i + 1] == b'=';
        if is_eq || is_ne {
            let prev = if i == 0 { b' ' } else { b[i - 1] };
            let next = if i + 2 < b.len() { b[i + 2] } else { b' ' };
            // for `==`, make sure this is not the tail of `!=`/`<=`-style
            // compounds; `!=` is unambiguous on its own
            let standalone = is_ne || (!matches!(prev, b'<' | b'>' | b'=' | b'!') && next != b'=');
            if standalone {
                let left = token_before(code, i);
                let right = token_after(code, i + 2);
                if is_float_literal(&left) || is_float_literal(&right) {
                    return true;
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    false
}

fn token_before(code: &str, end: usize) -> String {
    let b = code.as_bytes();
    let mut i = end;
    while i > 0 && (b[i - 1] == b' ') {
        i -= 1;
    }
    let stop = i;
    while i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'.' || b[i - 1] == b'_') {
        i -= 1;
    }
    code[i..stop].to_string()
}

fn token_after(code: &str, start: usize) -> String {
    let b = code.as_bytes();
    let mut i = start;
    while i < b.len() && b[i] == b' ' {
        i += 1;
    }
    let begin = i;
    while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'.' || b[i] == b'_') {
        i += 1;
    }
    code[begin..i].to_string()
}

/// `1.0`, `0.5f64`, `1e-9`, `2.` — digits with a dot or an exponent.
/// Must start with a digit (Rust has no `.5` literal, and `.0` here is a
/// tuple field access).
fn is_float_literal(tok: &str) -> bool {
    let t = tok.trim_end_matches("f64").trim_end_matches("f32").trim_end_matches('_');
    if !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let mut has_digit = false;
    let mut has_dot_or_exp = false;
    for c in t.chars() {
        match c {
            '0'..='9' => has_digit = true,
            '.' => has_dot_or_exp = true,
            'e' | 'E' => has_dot_or_exp = has_digit, // exponent needs a mantissa
            '_' | '+' | '-' => {}
            _ => return false,
        }
    }
    has_digit && has_dot_or_exp
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(src: &str) -> Vec<String> {
        let mut v = Vec::new();
        scan_file("crates/x/src/x.rs", src, &mut v);
        v.into_iter()
            .map(|f| f.message.split(']').next().unwrap_or("").trim_start_matches('[').to_string())
            .collect()
    }

    #[test]
    fn forbidden_patterns_flagged_outside_tests() {
        let rules = hits("fn f() {\n    let x = y.unwrap();\n}\n");
        assert_eq!(rules, ["no-unwrap"]);
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn lib2() { z.unwrap(); }\n";
        assert_eq!(hits(src), ["no-unwrap"]); // only lib2's
    }

    #[test]
    fn comments_are_exempt() {
        assert!(hits("// calls .unwrap() freely\nfn f() {} // then .unwrap()\n").is_empty());
    }

    #[test]
    fn float_eq_detected() {
        assert_eq!(hits("fn f(a: f64) { if a == 0.0 {} }\n"), ["no-float-eq"]);
        assert_eq!(hits("fn f(a: f64) { if 1.5 != a {} }\n"), ["no-float-eq"]);
        assert!(hits("fn f(a: usize) { if a == 0 {} }\n").is_empty());
        assert!(hits("fn f(a: f64, b: f64) { if a <= 0.0 {} }\n").is_empty());
    }

    #[test]
    fn scope_excludes_tooling_and_shims() {
        assert!(in_scope("crates/engine/src/cache.rs"));
        assert!(!in_scope("crates/xtask/src/main.rs"));
        assert!(!in_scope("crates/lint/src/lexer.rs"));
        assert!(!in_scope("crates/bench/src/bin/run.rs"));
        assert!(!in_scope("shims/mio/src/lib.rs"));
    }

    #[test]
    fn finding_keys_use_legacy_allowlist_format() {
        let mut v = Vec::new();
        scan_file("crates/x/src/a.rs", "fn f() { y.unwrap(); }\n", &mut v);
        assert_eq!(v[0].key, "crates/x/src/a.rs: fn f() { y.unwrap(); }");
    }
}
