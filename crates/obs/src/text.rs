//! Prometheus text exposition format (version 0.0.4): the escaping rules,
//! value formatting, and a small parser.
//!
//! The parser exists for three consumers: the endpoint tests (every scrape
//! must parse cleanly — a torn line is a server bug), the `xtask watch`
//! dashboard (which polls `/metrics` and needs the samples back), and any
//! future self-scrape. It accepts exactly what [`crate::Registry::render`]
//! produces plus ordinary format freedom (comments, blank lines, optional
//! timestamps), and reports the first malformed line as an error.

/// One parsed sample line: `name{labels} value`.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    /// Label pairs in line order, values unescaped.
    pub labels: Vec<(String, String)>,
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Escape a label value per the text format: backslash, double-quote and
/// line-feed must be escaped (`\\`, `\"`, `\n`); everything else is
/// verbatim. A hostile tenant id full of quotes therefore cannot break a
/// sample line apart.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape `# HELP` text: backslash and line-feed only (quotes are legal in
/// help text).
pub fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Format a sample value: shortest-roundtrip decimals, with the format's
/// spellings for the non-finite values (`+Inf`, `-Inf`, `NaN`).
pub fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

/// Parse an exposition body into samples. Comment (`#`) and blank lines
/// are skipped; the first malformed line aborts with a description — the
/// concurrency tests rely on "parses fully" meaning "no torn write".
pub fn parse(body: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (idx, raw) in body.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match parse_sample(line) {
            Some(s) => samples.push(s),
            None => return Err(format!("line {}: malformed sample: {line:?}", idx + 1)),
        }
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Option<Sample> {
    let bytes = line.as_bytes();
    let mut i = 0;
    // metric name: [a-zA-Z_:][a-zA-Z0-9_:]*
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b':')
    {
        i += 1;
    }
    if i == 0 || bytes[0].is_ascii_digit() {
        return None;
    }
    let name = line[..i].to_string();
    let mut labels = Vec::new();
    if i < bytes.len() && bytes[i] == b'{' {
        i += 1;
        loop {
            // skip whitespace and a possible trailing comma before `}`
            while i < bytes.len() && (bytes[i] == b' ' || bytes[i] == b',') {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'}' {
                i += 1;
                break;
            }
            let key_start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if i == key_start || i >= bytes.len() || bytes[i] != b'=' {
                return None;
            }
            let key = line[key_start..i].to_string();
            i += 1; // '='
            if i >= bytes.len() || bytes[i] != b'"' {
                return None;
            }
            i += 1; // opening quote
            let mut value = String::new();
            loop {
                if i >= bytes.len() {
                    return None; // unterminated label value — torn line
                }
                match bytes[i] {
                    b'"' => {
                        i += 1;
                        break;
                    }
                    b'\\' => {
                        i += 1;
                        match bytes.get(i) {
                            Some(b'\\') => value.push('\\'),
                            Some(b'"') => value.push('"'),
                            Some(b'n') => value.push('\n'),
                            _ => return None,
                        }
                        i += 1;
                    }
                    _ => {
                        // multi-byte UTF-8 advances by the full char
                        let rest = &line[i..];
                        let c = rest.chars().next()?;
                        value.push(c);
                        i += c.len_utf8();
                    }
                }
            }
            labels.push((key, value));
        }
    }
    // whitespace, then the value, then an optional timestamp
    let rest = line[i..].trim();
    if rest.is_empty() {
        return None;
    }
    let value_tok = rest.split_whitespace().next()?;
    let value = match value_tok {
        "+Inf" | "Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        tok => tok.parse::<f64>().ok()?,
    };
    Some(Sample { name, labels, value })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_escaped_label_values() {
        // the hostile-tenant string from the exposition-escaping satellite:
        // quotes, backslashes and a newline in one label value
        let hostile = "evil\"tenant\\with\nnewline";
        let escaped = escape_label_value(hostile);
        assert_eq!(escaped, "evil\\\"tenant\\\\with\\nnewline");
        let line = format!("req_total{{tenant=\"{escaped}\"}} 7");
        let samples = parse(&line).expect("escaped line parses");
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].label("tenant"), Some(hostile));
        assert!((samples[0].value - 7.0).abs() < 1e-12);
    }

    #[test]
    fn parses_plain_and_labeled_samples() {
        let body = "\
# HELP up Up
# TYPE up gauge
up 1
lat{rung=\"full\",quantile=\"0.5\"} 2.5e-3
lat_sum{rung=\"full\"} 0.125
inf_g +Inf
nan_g NaN
";
        let samples = parse(body).expect("valid body");
        assert_eq!(samples.len(), 5);
        assert_eq!(samples[0].name, "up");
        assert_eq!(samples[1].label("quantile"), Some("0.5"));
        assert!((samples[1].value - 0.0025).abs() < 1e-12);
        assert!(samples[3].value.is_infinite());
        assert!(samples[4].value.is_nan());
    }

    #[test]
    fn torn_lines_are_rejected() {
        assert!(parse("req_total{tenant=\"a").is_err(), "unterminated labels");
        assert!(parse("req_total{tenant=\"a\"}").is_err(), "missing value");
        assert!(parse("req_total{tenant=\"a\"} notanumber").is_err());
        assert!(parse("{tenant=\"a\"} 1").is_err(), "missing name");
    }

    #[test]
    fn registry_output_parses_fully() {
        let reg = crate::Registry::new();
        reg.counter("a_total", "A", &[("t", "x\"y\\z")]).set(3);
        reg.gauge("g", "G", &[]).set(1.5);
        let hist = rrp_trace::LogHistogram::new();
        hist.record(4.0);
        reg.summary("s_ms", "S", &[("rung", "full")]).set(&hist, 4.0);
        let text = reg.render();
        let samples = parse(&text).expect("registry render must parse");
        // 1 counter + 1 gauge + (3 quantiles + sum + count) + overflow counter
        assert_eq!(samples.len(), 8, "{text}");
        let c = samples.iter().find(|s| s.name == "a_total").expect("counter present");
        assert_eq!(c.label("t"), Some("x\"y\\z"));
    }

    #[test]
    fn non_finite_values_format_per_spec() {
        assert_eq!(fmt_f64(f64::INFINITY), "+Inf");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "-Inf");
        assert_eq!(fmt_f64(f64::NAN), "NaN");
        assert_eq!(fmt_f64(0.25), "0.25");
    }
}
