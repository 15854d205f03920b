//! Held-lock-across-blocking pass: flags guard scopes that span a call
//! which can block for unbounded time — socket I/O (`write_all`,
//! `accept`), channel receives (`recv`), thread joins (`join`), and
//! condvar waits (`wait`). Holding a mutex across such a call serializes
//! every other acquirer behind a third party's latency.
//!
//! What this proves: no *named lock field* is held across a blocking
//! call by the same function's code. What it does NOT prove: blocking
//! deeper in the callee chain (only direct calls are inspected),
//! blocking behind trait objects the resolver cannot see through, or
//! anything about locks taken through a free-function helper
//! (`lock(&self.m)`): only `.lock()` method calls are acquisitions, so
//! the workspace spells every one out as
//! `.lock().unwrap_or_else(PoisonError::into_inner)` instead.

use crate::findings::Finding;
use crate::model::Workspace;
use crate::passes::{flow, Pass};

/// Calls treated as potentially unboundedly blocking.
const BLOCKING: &[&str] = &[
    "write_all",
    "write_fmt",
    "flush",
    "accept",
    "recv",
    "recv_timeout",
    "join",
    "wait",
    "wait_timeout",
    "read_exact",
    "read_to_string",
    "read_to_end",
    "read_line",
    "connect",
];

pub struct HeldBlockingPass;

impl Pass for HeldBlockingPass {
    fn name(&self) -> &'static str {
        "held-lock"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        let mut out: Vec<Finding> = Vec::new();
        for &id in ws.calls.keys() {
            let file = ws.file(id.0);
            if ws.fn_def(id).in_test {
                continue;
            }
            flow::walk_fn(ws, id, |ctx| {
                if !ctx.site.method || !BLOCKING.contains(&ctx.site.name.as_str()) {
                    return;
                }
                for lock in &ctx.held {
                    let key = format!("held-lock {}: {lock} across {}", file.path, ctx.site.name);
                    if out.iter().any(|f| f.key == key && f.line == ctx.site.line) {
                        continue;
                    }
                    out.push(Finding {
                        lint: "held-lock".to_string(),
                        file: file.path.clone(),
                        line: ctx.site.line,
                        key,
                        message: format!(
                            "lock {lock} held across blocking call `{}`",
                            ctx.site.name
                        ),
                        justified: false,
                    });
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn run(src: &str) -> Vec<Finding> {
        let ws =
            Workspace::from_files(vec![parse_file("src/lib.rs".into(), "t".into(), src.into())]);
        HeldBlockingPass.run(&ws)
    }

    #[test]
    fn guard_across_write_all_is_flagged() {
        let src = "struct S { out: Mutex<u8> }\n\
                   impl S { fn emit(&self) { let g = self.out.lock(); g.write_all(b\"x\"); } }\n";
        let fs = run(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].key, "held-lock src/lib.rs: S.out across write_all");
    }

    #[test]
    fn temp_guard_chained_into_blocking_call_is_flagged() {
        let src = "struct S { out: Mutex<u8> }\n\
                   impl S { fn emit(&self) { let _ = self.out.lock().write_all(b\"x\"); } }\n";
        let fs = run(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("S.out"));
    }

    #[test]
    fn blocking_after_guard_scope_ends_is_clean() {
        let src = "struct S { out: Mutex<u8>, rx: u8 }\n\
                   impl S { fn step(&self) { { let g = self.out.lock(); } self.rx.recv(); } }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn condvar_wait_with_guard_held_is_flagged() {
        let bare = "struct Shared { queue: Mutex<u8>, ready: Condvar }\n\
                    impl Shared { fn take(&self) { let mut q = self.queue.lock(); \
                    q = self.ready.wait(q); } }\n";
        let std_idiom = "struct Shared { queue: Mutex<u8>, ready: Condvar }\n\
                         impl Shared { fn take(&self) { \
                         let mut q = self.queue.lock().unwrap_or_else(PoisonError::into_inner); \
                         q = self.ready.wait(q).unwrap_or_else(PoisonError::into_inner); } }\n";
        for src in [bare, std_idiom] {
            let fs = run(src);
            assert_eq!(fs.len(), 1, "{fs:?}");
            assert!(fs[0].key.contains("Shared.queue across wait"));
        }
    }

    #[test]
    fn recv_without_lock_is_clean() {
        let src = "fn worker(rx: Receiver) { while let Ok(j) = rx.recv() { work(j); } }\n\
                   fn work(_j: u8) {}\n";
        assert!(run(src).is_empty());
    }
}
