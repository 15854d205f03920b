//! Lock-order pass: builds the lock-acquisition graph — an edge A → B
//! means some code path acquires lock B while holding lock A — from
//! intra-procedural guard tracking plus one level of call-graph
//! inlining (a call made while holding A contributes edges from A to
//! every lock the callee's own body acquires). Any cycle in the graph
//! is a potential deadlock and is reported once, canonically rotated.
//!
//! What this proves: no two functions in the analysed tree disagree on
//! the order of named lock *fields*. What it does NOT prove: absence of
//! deadlock through locks the resolver cannot name (locals, trait
//! objects), through call chains deeper than one level, or through
//! channel/condvar waits (the held-blocking pass covers those).

use std::collections::{BTreeMap, BTreeSet};

use crate::findings::Finding;
use crate::model::Workspace;
use crate::passes::{flow, Pass};

pub struct LockOrderPass;

impl Pass for LockOrderPass {
    fn name(&self) -> &'static str {
        "lock-order"
    }

    fn run(&self, ws: &Workspace) -> Vec<Finding> {
        // edges with the site that created them: (from, to) -> (file, line)
        let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
        for &id in ws.calls.keys() {
            let file = ws.file(id.0);
            if ws.fn_def(id).in_test {
                continue;
            }
            flow::walk_fn(ws, id, |ctx| {
                let mut targets: Vec<String> = Vec::new();
                if let Some(acq) = &ctx.acquired {
                    targets.push(acq.clone());
                } else if !ctx.held.is_empty() {
                    // one level of inlining: locks the callee acquires
                    for callee in ws.resolve_call(id, ctx.site, &ctx.named_guards) {
                        if callee == id {
                            continue;
                        }
                        for lock in ws.fn_lock_summary(callee) {
                            if !targets.contains(&lock) {
                                targets.push(lock);
                            }
                        }
                    }
                }
                for to in targets {
                    for from in &ctx.held {
                        if *from != to {
                            edges
                                .entry((from.clone(), to.clone()))
                                .or_insert_with(|| (file.path.clone(), ctx.site.line));
                        }
                    }
                }
            });
        }
        cycles(&edges)
            .into_iter()
            .map(|cycle| {
                // attribute the cycle to the first edge's site
                let (file, line) =
                    edges.get(&(cycle[0].clone(), cycle[1].clone())).cloned().unwrap_or_default();
                let path = cycle.join(" -> ");
                Finding {
                    lint: "lock-order".to_string(),
                    file: file.clone(),
                    line,
                    key: format!("lock-order {file}: cycle {path}"),
                    message: format!("lock acquisition cycle (potential deadlock): {path}"),
                    justified: false,
                }
            })
            .collect()
    }
}

/// Every elementary cycle in the edge set, canonically rotated so the
/// lexicographically smallest lock comes first, deduplicated, and
/// rendered closed (`A -> B -> A`).
fn cycles(edges: &BTreeMap<(String, String), (String, u32)>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
    }
    let mut found: BTreeSet<Vec<String>> = BTreeSet::new();
    // DFS from every node; a back edge onto the current path is a cycle
    for start in adj.keys().copied().collect::<Vec<_>>() {
        let mut path: Vec<&str> = vec![start];
        let mut on_path: BTreeSet<&str> = [start].into();
        dfs(start, &adj, &mut path, &mut on_path, &mut found);
    }
    found.into_iter().collect()
}

fn dfs<'a>(
    node: &'a str,
    adj: &BTreeMap<&'a str, Vec<&'a str>>,
    path: &mut Vec<&'a str>,
    on_path: &mut BTreeSet<&'a str>,
    found: &mut BTreeSet<Vec<String>>,
) {
    for &next in adj.get(node).into_iter().flatten() {
        if on_path.contains(next) {
            // cycle: the path slice from `next` to the end, closed
            let pos = path.iter().position(|&n| n == next).unwrap_or(0);
            let mut cycle: Vec<String> = path[pos..].iter().map(|s| s.to_string()).collect();
            // canonical rotation: smallest element first
            let min_i = cycle
                .iter()
                .enumerate()
                .min_by_key(|&(_, s)| s.clone())
                .map(|(i, _)| i)
                .unwrap_or(0);
            cycle.rotate_left(min_i);
            let first = cycle[0].clone();
            cycle.push(first);
            found.insert(cycle);
        } else if path.len() < 16 {
            path.push(next);
            on_path.insert(next);
            dfs(next, adj, path, on_path, found);
            path.pop();
            on_path.remove(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn run(src: &str) -> Vec<Finding> {
        let ws =
            Workspace::from_files(vec![parse_file("src/lib.rs".into(), "t".into(), src.into())]);
        LockOrderPass.run(&ws)
    }

    #[test]
    fn ab_ba_cycle_is_reported() {
        let bare = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                    impl S {\n\
                      fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                      fn ba(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n\
                    }\n";
        let std_idiom = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                         impl S {\n\
                           fn ab(&self) { let g = self.a.lock().unwrap_or_else(PoisonError::into_inner); \
                             let h = self.b.lock().unwrap_or_else(PoisonError::into_inner); }\n\
                           fn ba(&self) { let g = self.b.lock().unwrap_or_else(PoisonError::into_inner); \
                             let h = self.a.lock().unwrap_or_else(PoisonError::into_inner); }\n\
                         }\n";
        for src in [bare, std_idiom] {
            let fs = run(src);
            assert_eq!(fs.len(), 1, "{fs:?}");
            assert!(fs[0].key.contains("cycle S.a -> S.b -> S.a"), "{}", fs[0].key);
        }
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                   impl S {\n\
                     fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                     fn ab2(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                   }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn cycle_through_one_level_of_calls_is_caught() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                   impl S {\n\
                     fn outer(&self) { let g = self.a.lock(); self.inner(); }\n\
                     fn inner(&self) { let h = self.b.lock(); }\n\
                     fn reversed(&self) { let h = self.b.lock(); let g = self.a.lock(); }\n\
                   }\n";
        let fs = run(src);
        assert_eq!(fs.len(), 1, "{fs:?}");
    }

    #[test]
    fn nested_distinct_structs_without_reversal_are_clean() {
        let src = "struct M { counters: Mutex<u8> }\n\
                   struct R { families: Mutex<u8> }\n\
                   impl M { fn bump(&self, r: &R) { let g = self.counters.lock(); r.touch(); } }\n\
                   impl R { fn touch(&self) { let h = self.families.lock(); } }\n";
        assert!(run(src).is_empty());
    }
}
