//! Unbounded-growth pass: `push`/`insert` (and `entry().or_insert_*`)
//! into a long-lived collection from loop context, with no cap or
//! eviction logic in the same function and no `// growth-ok:` comment.
//!
//! "Long-lived" is approximated as: the collection is a field of a
//! struct that also carries sync state (`Mutex`/`RwLock`/`Atomic`/
//! `Arc`) — local scratch vectors and plain model builders do not
//! qualify. "Loop context" means the call site is lexically inside a
//! `for`/`while`/`loop`, or the enclosing function is reachable within
//! two call-graph hops from one (a worker loop calling `process()`
//! calling `cache.insert()` counts).
//!
//! What this proves: every growth site on shared state either shows its
//! bound in the same function or carries a written justification. What
//! it does NOT prove: that the bound is enforced on every path, or that
//! growth through aliases the resolver cannot name is bounded.

use crate::findings::Finding;
use crate::lexer::TokKind;
use crate::model::Workspace;
use crate::passes::relaxed::has_justifying_comment;
use crate::passes::{flow, Pass};

/// Calls that add an element to a collection.
const GROWTH_CALLS: &[&str] =
    &["push", "push_back", "push_front", "insert", "extend", "or_insert_with", "or_default"];

/// Method segments stripped from receiver chains before field
/// resolution: `self.map.lock().entry(k)` resolves as `self.map`.
const ADAPTERS: &[&str] = &[
    "lock",
    "read",
    "write",
    "unwrap",
    "expect",
    "unwrap_or_else",
    "borrow",
    "borrow_mut",
    "as_mut",
    "as_ref",
    "get_mut",
    "entry",
    "iter",
    "iter_mut",
];

/// Identifiers that count as cap/eviction evidence when they appear in
/// the same function body.
const EVICTION_IDENTS: &[&str] = &[
    "truncate",
    "pop",
    "pop_front",
    "pop_back",
    "evict",
    "retain",
    "drain",
    "clear",
    "remove",
    "swap_remove",
    "split_off",
    "shrink_to",
];

pub struct GrowthPass;

impl Pass for GrowthPass {
    fn name(&self) -> &'static str {
        "unbounded-growth"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        let mut out: Vec<Finding> = Vec::new();
        for &id in ws.calls.keys() {
            let file = ws.file(id.0);
            let f = ws.fn_def(id);
            if f.in_test {
                continue;
            }
            let loop_reachable = ws.loop_reachable.contains(&id);
            let capped = fn_has_cap_evidence(ws, id);
            flow::walk_fn(ws, id, |ctx| {
                if !ctx.site.method || !GROWTH_CALLS.contains(&ctx.site.name.as_str()) {
                    return;
                }
                if !(ctx.site.in_loop || loop_reachable) {
                    return;
                }
                let Some(field) = resolve_target(ws, &file.crate_name, f.owner.as_deref(), &ctx)
                else {
                    return;
                };
                if !ws.collection_fields.contains(&field) {
                    return;
                }
                let owner_struct = field.split('.').next().unwrap_or("");
                if !ws.concurrent_structs.contains(owner_struct) {
                    return;
                }
                if capped || has_justifying_comment(file, ctx.site.line, "growth-ok") {
                    return;
                }
                let key = format!("unbounded-growth {}: {field}", file.path);
                if out.iter().any(|x| x.key == key && x.line == ctx.site.line) {
                    return;
                }
                out.push(Finding {
                    lint: "unbounded-growth".to_string(),
                    file: file.path.clone(),
                    line: ctx.site.line,
                    key,
                    message: format!(
                        "`{}` into long-lived collection {field} from loop context with no \
                         cap/eviction in `{}`",
                        ctx.site.name, f.name
                    ),
                    justified: false,
                });
            });
        }
        out
    }
}

/// The `Struct.field` a growth call targets: through a live named guard
/// (`let m = self.map.lock(); m.insert(…)`) or by resolving the
/// receiver chain with adapter segments stripped.
fn resolve_target(
    ws: &Workspace,
    krate: &str,
    owner: Option<&str>,
    ctx: &flow::CallCtx<'_>,
) -> Option<String> {
    if let Some(first) = ctx.site.receiver.first() {
        if let Some((_, lock)) = ctx.named_guards.iter().find(|(n, _)| n == first) {
            return Some(lock.clone());
        }
    }
    let chain: Vec<String> =
        ctx.site.receiver.iter().filter(|seg| !ADAPTERS.contains(&seg.as_str())).cloned().collect();
    if chain.is_empty() {
        return None;
    }
    ws.resolve_field(krate, owner, &chain)
}

/// Does the function body contain cap/eviction evidence — an eviction
/// method name or a `cap`-ish identifier (`series_cap`, `MAX_CAP`,
/// `capacity`)?
fn fn_has_cap_evidence(ws: &Workspace, id: crate::model::FnId) -> bool {
    let file = ws.file(id.0);
    let Some((lo, hi)) = ws.fn_def(id).body else {
        return false;
    };
    file.toks[lo..hi].iter().any(|t| {
        if t.kind != TokKind::Ident {
            return false;
        }
        let s = t.text(&file.src);
        EVICTION_IDENTS.contains(&s)
            || s.starts_with("cap")
            || s.starts_with("Cap")
            || s.contains("_cap")
            || s.contains("CAP")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn run(src: &str) -> Vec<Finding> {
        let ws =
            Workspace::from_files(vec![parse_file("src/lib.rs".into(), "t".into(), src.into())]);
        GrowthPass.run(&ws)
    }

    const CACHE: &str = "struct Cache { map: Mutex<HashMap<u64, u8>>, hits: AtomicU64 }\n";

    #[test]
    fn uncapped_insert_in_loop_is_flagged() {
        let bare = format!(
            "{CACHE}impl Cache {{ fn fill(&self) {{ for k in 0..10 {{ \
             self.map.lock().insert(k, 1); }} }} }}\n"
        );
        let std_idiom = "struct Names { list: Mutex<Vec<u8>> }\n\
                         impl Names { fn fill(&self) { \
                         let mut list = self.list.lock().unwrap_or_else(PoisonError::into_inner); \
                         for k in 0..10 { list.push(k); } } }\n";
        for (src, field) in [(bare.as_str(), "Cache.map"), (std_idiom, "Names.list")] {
            let fs = run(src);
            assert_eq!(fs.len(), 1, "{fs:?}");
            assert_eq!(fs[0].key, format!("unbounded-growth src/lib.rs: {field}"));
        }
    }

    #[test]
    fn insert_reached_from_worker_loop_is_flagged() {
        let src = format!(
            "{CACHE}impl Cache {{ fn store(&self) {{ self.map.lock().insert(1, 1); }} }}\n\
             fn worker(c: &Cache) {{ loop {{ process(c); }} }}\n\
             fn process(c: &Cache) {{ c.store(); }}\n"
        );
        let fs = run(&src);
        assert_eq!(fs.len(), 1, "two-hop loop reachability: {fs:?}");
    }

    #[test]
    fn cap_evidence_in_fn_exempts() {
        let src = format!(
            "{CACHE}impl Cache {{ fn store(&self) {{ let mut m = self.map.lock(); \
             for k in 0..10 {{ if m.len() >= CAP {{ m.clear(); }} m.insert(k, 1); }} }} }}\n"
        );
        assert!(run(&src).is_empty());
    }

    #[test]
    fn growth_ok_comment_exempts() {
        let src = format!(
            "{CACHE}impl Cache {{ fn store(&self) {{ for k in 0..10 {{ \
             // growth-ok: keyed by a closed static set\n\
             self.map.lock().insert(k, 1); }} }} }}\n"
        );
        assert!(run(&src).is_empty());
    }

    #[test]
    fn plain_builder_structs_are_not_long_lived() {
        let src = "struct Model { rows: Vec<u8> }\n\
                   impl Model {\n\
                     fn build(&mut self) { for k in 0..10 { self.rows.push(k); } }\n\
                   }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn named_guard_insert_resolves_to_lock_field() {
        let src = format!(
            "{CACHE}impl Cache {{ fn fill(&self) {{ let mut m = self.map.lock(); \
             for k in 0..10 {{ m.insert(k, 1); }} }} }}\n"
        );
        let fs = run(&src);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].key.ends_with("Cache.map"));
    }
}
