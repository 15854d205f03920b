//! The workspace's one JSON string escaper and number writer, shared by
//! every crate that hand-renders JSON on top of `rrp-trace` (event lines,
//! flight bundles, `/slo`, the engine's `/plan` and in-flight bodies, the
//! bench records).

use std::fmt::Write;

/// Append `s` to `out` escaped for the inside of a JSON string literal
/// (no surrounding quotes): `"` and `\` are backslash-escaped, newline,
/// carriage return and tab take their short forms, and every other control
/// character below U+0020 becomes a `\u00XX` escape.
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Append `s` as a quoted JSON string.
pub fn str_into(out: &mut String, s: &str) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// Append `v` as a JSON number: the shortest string that round-trips,
/// with a `.0` suffix on integral values (the serde shim's convention).
/// Non-finite values become `null` (JSON has no infinities; readers treat
/// a null bound as ±∞).
pub fn f64_into(out: &mut String, v: f64) {
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
    use super::escape_into;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let mut out = String::from("x=");
        escape_into(&mut out, "a\"b\\c\nd\re\tf\u{1}g é");
        assert_eq!(out, "x=a\\\"b\\\\c\\nd\\re\\tf\\u0001g é");
    }
}
