//! `lint-allow.txt` parsing and validation.
//!
//! Entry format (one per line, `#` comments and blanks skipped):
//!
//! ```text
//! <key> reason="why this is acceptable"
//! ```
//!
//! Keys by lint:
//! - token lint (legacy): `crates/x/src/y.rs: let v = x.unwrap();`
//!   (path, colon, the trimmed offending line)
//! - held-lock: `held-lock crates/x/src/y.rs: Struct.field across recv`
//! - lock-order: `lock-order crates/x/src/y.rs: cycle A.m -> B.n -> A.m`
//! - unbounded-growth: `unbounded-growth crates/x/src/y.rs: Struct.field`
//! - relaxed (module scope): `relaxed-module crates/trace/src/hist.rs`
//!   — every `Relaxed` in that file is a justified counter use
//!
//! Validation is strict: a `reason=` is mandatory, the referenced path
//! must exist, and every entry must match at least one finding on the
//! current tree (stale entries fail `analyze`).

use std::cell::RefCell;
use std::fs;
use std::path::Path;

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    pub key: String,
    pub reason: String,
    pub line: u32,
    /// Set when a finding matched this entry during a run.
    used: RefCell<bool>,
}

/// The parsed allowlist plus any format errors found while parsing.
#[derive(Debug, Default)]
pub struct Allowlist {
    pub entries: Vec<AllowEntry>,
    /// Format problems: missing reason, empty key. Each is
    /// `(line, message)`.
    pub errors: Vec<(u32, String)>,
}

impl Allowlist {
    pub fn parse(text: &str) -> Self {
        let mut out = Allowlist::default();
        for (i, raw) in text.lines().enumerate() {
            let line = (i + 1) as u32;
            let trimmed = raw.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let Some(pos) = trimmed.find(" reason=\"") else {
                out.errors.push((line, format!("missing reason=\"…\" field: {trimmed}")));
                continue;
            };
            let key = trimmed[..pos].trim().to_string();
            let rest = &trimmed[pos + " reason=\"".len()..];
            let Some(end) = rest.rfind('"') else {
                out.errors.push((line, "unterminated reason string".to_string()));
                continue;
            };
            let reason = rest[..end].to_string();
            if key.is_empty() {
                out.errors.push((line, "empty allowlist key".to_string()));
                continue;
            }
            if reason.trim().is_empty() {
                out.errors.push((line, format!("empty reason for key: {key}")));
                continue;
            }
            out.entries.push(AllowEntry { key, reason, line, used: RefCell::new(false) });
        }
        out
    }

    pub fn load(path: &Path) -> std::io::Result<Self> {
        Ok(Self::parse(&fs::read_to_string(path)?))
    }

    /// Exact-key match; marks the entry used.
    pub fn matches(&self, key: &str) -> bool {
        let mut hit = false;
        for e in self.entries.iter().filter(|e| e.key == key) {
            *e.used.borrow_mut() = true;
            hit = true;
        }
        hit
    }

    /// Module-scope match for the `relaxed` lint: an entry
    /// `relaxed-module <path>` justifies every Relaxed in that file.
    pub fn matches_relaxed_module(&self, file: &str) -> bool {
        let key = format!("relaxed-module {file}");
        self.matches(&key)
    }

    /// The workspace-relative path an entry refers to, for existence
    /// validation. Prefixed keys carry it as the second word; token keys
    /// start with it.
    pub fn entry_path(key: &str) -> Option<&str> {
        let body = key
            .strip_prefix("held-lock ")
            .or_else(|| key.strip_prefix("lock-order "))
            .or_else(|| key.strip_prefix("unbounded-growth "))
            .or_else(|| key.strip_prefix("relaxed-module "))
            .unwrap_or(key);
        let path = body.split(':').next()?.trim();
        if path.ends_with(".rs") {
            Some(path)
        } else {
            None
        }
    }

    /// Validate entries against the tree rooted at `root`: referenced
    /// paths must exist. Returns `(line, message)` problems.
    pub fn validate_paths(&self, root: &Path) -> Vec<(u32, String)> {
        let mut out = Vec::new();
        for e in &self.entries {
            match Self::entry_path(&e.key) {
                Some(p) if root.join(p).is_file() => {}
                Some(p) => out.push((e.line, format!("allowlist path does not exist: {p}"))),
                None => out.push((e.line, format!("allowlist key has no .rs path: {}", e.key))),
            }
        }
        out
    }

    /// Entries never matched by any finding this run — stale; they fail
    /// `analyze` so the allowlist cannot rot.
    pub fn stale(&self) -> Vec<&AllowEntry> {
        self.entries.iter().filter(|e| !*e.used.borrow()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_reasons_and_flags_missing_ones() {
        let a = Allowlist::parse(
            "# comment\n\
             crates/x/src/a.rs: v.unwrap(); reason=\"checked above\"\n\
             crates/x/src/b.rs: w.unwrap();\n",
        );
        assert_eq!(a.entries.len(), 1);
        assert_eq!(a.entries[0].reason, "checked above");
        assert_eq!(a.errors.len(), 1);
        assert!(a.errors[0].1.contains("missing reason"));
    }

    #[test]
    fn matching_marks_used_and_stale_reports_the_rest() {
        let a = Allowlist::parse(
            "held-lock crates/t/src/sink.rs: S.out across write_all reason=\"serialized writer\"\n\
             unbounded-growth crates/e/src/cache.rs: C.map reason=\"capped elsewhere\"\n",
        );
        assert!(a.matches("held-lock crates/t/src/sink.rs: S.out across write_all"));
        assert!(!a.matches("no such key"));
        let stale = a.stale();
        assert_eq!(stale.len(), 1);
        assert!(stale[0].key.starts_with("unbounded-growth"));
    }

    #[test]
    fn entry_paths_extract_for_all_key_shapes() {
        assert_eq!(
            Allowlist::entry_path("crates/x/src/a.rs: foo.unwrap()"),
            Some("crates/x/src/a.rs")
        );
        assert_eq!(
            Allowlist::entry_path("held-lock shims/mio/src/lib.rs: Registry.fds across wait"),
            Some("shims/mio/src/lib.rs")
        );
        assert_eq!(
            Allowlist::entry_path("relaxed-module crates/trace/src/hist.rs"),
            Some("crates/trace/src/hist.rs")
        );
        assert_eq!(Allowlist::entry_path("garbage"), None);
    }

    #[test]
    fn reason_with_inner_quotes_is_kept_to_last_quote() {
        let a = Allowlist::parse("crates/x/src/a.rs: x reason=\"the \"why\" matters\"\n");
        assert_eq!(a.entries[0].reason, "the \"why\" matters");
    }
}
