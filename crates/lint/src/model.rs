//! The analysis model built on top of the parser: per-crate module
//! graph, struct/field indexes (which fields are locks, which are
//! growable collections), an approximate call graph, and per-function
//! body walkers the passes share.
//!
//! Resolution here is deliberately *approximate* — names, not types. A
//! receiver chain like `self.shared.queue` is resolved field-by-field
//! through the struct index; a bare method name resolves to every impl
//! that defines it. Lints built on this over-approximate reachability
//! (acceptable: every report is checked against the allowlist) and
//! under-approximate aliasing (documented in DESIGN.md: what each lint
//! does NOT prove).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::Path;

use crate::lexer::{Tok, TokKind};
use crate::parse::{parse_file, FnDef, ParsedFile};

/// Identifies a function: (file index, fn index within that file).
pub type FnId = (usize, usize);

/// One resolved call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Called name (`process` for `process(x)`, `lock` for `.lock()`).
    pub name: String,
    /// Method call (`recv.x()`) vs free call (`x()`).
    pub method: bool,
    /// Receiver chain for method calls, innermost first:
    /// `self.shared.queue.lock()` → `["self", "shared", "queue"]`.
    pub receiver: Vec<String>,
    /// Index of the name token in the file's token stream.
    pub tok: usize,
    pub line: u32,
    /// The call site sits inside a `for`/`while`/`loop` body.
    pub in_loop: bool,
}

/// A module in the per-crate module graph.
#[derive(Debug)]
pub struct ModuleNode {
    /// `crate_name::path::to::module` (files) or inline module path.
    pub path: String,
    /// File index backing the module, when it is file-backed.
    pub file: Option<usize>,
}

/// The whole analysed source tree.
pub struct Workspace {
    pub files: Vec<ParsedFile>,
    /// Calls per function, parallel to `files[f].fns`.
    pub calls: BTreeMap<FnId, Vec<CallSite>>,
    /// Struct name → every definition site (several crates may reuse a
    /// name — `Event` exists in both `trace` and the mio shim).
    pub structs: BTreeMap<String, Vec<(usize, usize)>>,
    /// Field name → owning struct names (for fallback resolution).
    pub field_owners: BTreeMap<String, Vec<String>>,
    /// `Struct.field` ids whose type is `Mutex<…>`/`RwLock<…>` (possibly
    /// behind `Arc`).
    pub lock_fields: BTreeSet<String>,
    /// `Struct.field` ids whose type contains a growable std collection.
    pub collection_fields: BTreeSet<String>,
    /// Struct names holding sync state (Mutex/RwLock/Atomic/Arc fields) —
    /// the "long-lived concurrent state" heuristic the growth lint keys on.
    pub concurrent_structs: BTreeSet<String>,
    /// Function name → every FnId bearing it (methods and free fns).
    pub fns_by_name: BTreeMap<String, Vec<FnId>>,
    /// Functions called (transitively, ≤2 hops) from inside a loop body.
    pub loop_reachable: BTreeSet<FnId>,
    /// Per-crate module graph.
    pub modules: Vec<ModuleNode>,
}

/// Receiver-chain tail segments after which a method call targets the
/// guarded/wrapped std value rather than a workspace function.
const CALL_ADAPTERS: [&str; 14] = [
    "lock",
    "read",
    "write",
    "unwrap",
    "expect",
    "unwrap_or_else",
    "borrow",
    "borrow_mut",
    "entry",
    "iter",
    "iter_mut",
    "get",
    "get_mut",
    "or_default",
];

const LOCK_MARKERS: [&str; 2] = ["Mutex <", "RwLock <"];
const COLLECTION_MARKERS: [&str; 6] =
    ["Vec <", "VecDeque <", "HashMap <", "BTreeMap <", "HashSet <", "BTreeSet <"];
const SYNC_MARKERS: [&str; 5] = ["Mutex <", "RwLock <", "Atomic", "Arc <", "Condvar"];

impl Workspace {
    /// Load and analyse every `.rs` under `crates/*/src` and
    /// `shims/*/src` below `root`.
    pub fn load(root: &Path) -> std::io::Result<Self> {
        let mut files = Vec::new();
        for tier in ["crates", "shims"] {
            let dir = root.join(tier);
            let Ok(entries) = fs::read_dir(&dir) else { continue };
            let mut crates: Vec<_> = entries.flatten().map(|e| e.path()).collect();
            crates.sort();
            for krate in crates {
                let crate_name =
                    krate.file_name().map(|n| n.to_string_lossy().to_string()).unwrap_or_default();
                collect_rs(&krate.join("src"), root, &crate_name, &mut files)?;
            }
        }
        Ok(Self::from_files(files))
    }

    /// Build the model from already-parsed files.
    pub fn from_files(parsed: Vec<ParsedFile>) -> Self {
        let mut ws = Workspace {
            files: parsed,
            calls: BTreeMap::new(),
            structs: BTreeMap::new(),
            field_owners: BTreeMap::new(),
            lock_fields: BTreeSet::new(),
            collection_fields: BTreeSet::new(),
            concurrent_structs: BTreeSet::new(),
            fns_by_name: BTreeMap::new(),
            loop_reachable: BTreeSet::new(),
            modules: Vec::new(),
        };
        ws.index_structs();
        ws.index_fns();
        ws.extract_calls();
        ws.compute_loop_reachability();
        ws.build_module_graph();
        ws
    }

    fn index_structs(&mut self) {
        for (fi, file) in self.files.iter().enumerate() {
            for (si, s) in file.structs.iter().enumerate() {
                self.structs.entry(s.name.clone()).or_default().push((fi, si));
                let mut concurrent = false;
                for field in &s.fields {
                    let id = format!("{}.{}", s.name, field.name);
                    if LOCK_MARKERS.iter().any(|m| field.ty.contains(m)) {
                        self.lock_fields.insert(id.clone());
                    }
                    if COLLECTION_MARKERS.iter().any(|m| field.ty.contains(m)) {
                        self.collection_fields.insert(id.clone());
                    }
                    if SYNC_MARKERS.iter().any(|m| field.ty.contains(m)) {
                        concurrent = true;
                    }
                    let owners = self.field_owners.entry(field.name.clone()).or_default();
                    if !owners.contains(&s.name) {
                        owners.push(s.name.clone());
                    }
                }
                if concurrent {
                    self.concurrent_structs.insert(s.name.clone());
                }
            }
        }
    }

    fn index_fns(&mut self) {
        for (fi, file) in self.files.iter().enumerate() {
            for (ni, f) in file.fns.iter().enumerate() {
                self.fns_by_name.entry(f.name.clone()).or_default().push((fi, ni));
            }
        }
    }

    fn extract_calls(&mut self) {
        let mut calls = BTreeMap::new();
        for (fi, file) in self.files.iter().enumerate() {
            for (ni, f) in file.fns.iter().enumerate() {
                let Some((lo, hi)) = f.body else { continue };
                calls.insert((fi, ni), extract_calls(&file.toks, &file.src, lo, hi));
            }
        }
        self.calls = calls;
    }

    /// Functions invoked from a loop body, expanded one extra call-graph
    /// level — `worker_loop { process() }` makes `process` loop-reachable
    /// and everything `process` calls (e.g. `cache.insert`) as well.
    fn compute_loop_reachability(&mut self) {
        let mut level1: BTreeSet<FnId> = BTreeSet::new();
        for (&caller, sites) in &self.calls {
            for c in sites.iter().filter(|c| c.in_loop) {
                for id in self.resolve_call(caller, c, &[]) {
                    level1.insert(id);
                }
            }
        }
        let mut all = level1.clone();
        for &id in &level1 {
            for c in self.calls.get(&id).into_iter().flatten() {
                for callee in self.resolve_call(id, c, &[]) {
                    all.insert(callee);
                }
            }
        }
        self.loop_reachable = all;
    }

    /// The definition of `name` as seen from `krate`: a same-crate
    /// definition wins; otherwise the name must be globally unique.
    fn struct_in_crate(&self, name: &str, krate: &str) -> Option<(usize, usize)> {
        let defs = self.structs.get(name)?;
        if let Some(&d) = defs.iter().find(|&&(fi, _)| self.files[fi].crate_name == krate) {
            return Some(d);
        }
        if defs.len() == 1 {
            return Some(defs[0]);
        }
        None
    }

    /// The functions a call site may target, resolved by receiver type
    /// where possible. Deliberately under-approximate on ambiguity —
    /// a call through an unresolvable receiver with several same-named
    /// candidates targets *nothing* rather than everything (bare-name
    /// matching turned `map.lock().len()` into edges onto every `len`
    /// in the workspace).
    pub fn resolve_call(
        &self,
        caller: FnId,
        call: &CallSite,
        named_guards: &[(String, String)],
    ) -> Vec<FnId> {
        let Some(cands) = self.fns_by_name.get(&call.name) else {
            return Vec::new();
        };
        if !call.method {
            return cands.iter().copied().filter(|&id| self.fn_def(id).owner.is_none()).collect();
        }
        let recv = &call.receiver;
        // a call chained after a guard adapter (`.lock().len()`) or on a
        // named guard targets the guarded std value, not workspace code
        if recv.last().is_some_and(|l| CALL_ADAPTERS.contains(&l.as_str())) {
            return Vec::new();
        }
        if let Some(first) = recv.first() {
            if named_guards.iter().any(|(n, _)| n == first) {
                return Vec::new();
            }
        }
        let krate = &self.file(caller.0).crate_name;
        let owner_ty: Option<String> = if recv.len() == 1 && recv[0] == "self" {
            self.fn_def(caller).owner.clone()
        } else if recv.first().is_some_and(|f| f == "self") {
            self.resolve_field_walk(krate, self.fn_def(caller).owner.as_deref(), recv)
                .and_then(|(_, ty)| ty)
        } else {
            None
        };
        if let Some(ty) = owner_ty {
            return cands
                .iter()
                .copied()
                .filter(|&id| self.fn_def(id).owner.as_deref() == Some(ty.as_str()))
                .collect();
        }
        // unresolvable receiver (local variable, call result): accept only
        // a unique method candidate
        let methods: Vec<FnId> =
            cands.iter().copied().filter(|&id| self.fn_def(id).owner.is_some()).collect();
        if methods.len() == 1 {
            methods
        } else {
            Vec::new()
        }
    }

    /// Resolve a receiver chain (`["self", "shared", "queue"]`) starting
    /// inside `owner`'s impl to a `Struct.field` id, following field
    /// types through `Arc`/`Box` wrappers with same-crate struct
    /// preference. Falls back to "field name is unique across all
    /// structs" only for `self`-rooted chains.
    pub fn resolve_field(
        &self,
        krate: &str,
        owner: Option<&str>,
        chain: &[String],
    ) -> Option<String> {
        if chain.first().map(String::as_str) != Some("self") {
            return None;
        }
        if let Some((id, _)) = self.resolve_field_walk(krate, owner, chain) {
            return Some(id);
        }
        // fallback: last chain element names a field of exactly one struct
        let last = chain.last()?;
        let owners = self.field_owners.get(last)?;
        if owners.len() == 1 {
            return Some(format!("{}.{last}", owners[0]));
        }
        None
    }

    /// Walk a `self`-rooted chain through the struct index. Returns the
    /// deepest resolved `Struct.field` id and, when the whole chain
    /// resolved, the base type of the final field (for method lookup).
    fn resolve_field_walk(
        &self,
        krate: &str,
        owner: Option<&str>,
        chain: &[String],
    ) -> Option<(String, Option<String>)> {
        if chain.len() < 2 || chain[0] != "self" {
            return None;
        }
        let mut ty = owner?.to_string();
        let mut id = None;
        let mut final_ty = None;
        for field in &chain[1..] {
            let (fi, si) = self.struct_in_crate(&ty, krate)?;
            let s = &self.files[fi].structs[si];
            let fd = s.fields.iter().find(|f| &f.name == field)?;
            id = Some(format!("{ty}.{field}"));
            match base_type(&fd.ty) {
                Some(next) => {
                    final_ty = Some(next.clone());
                    ty = next;
                }
                None => {
                    final_ty = None;
                    break;
                }
            }
        }
        id.map(|id| (id, final_ty))
    }

    /// File-backed module paths: `crate::a::b` from `crates/x/src/a/b.rs`,
    /// plus inline `mod` declarations appended under their file's path.
    fn build_module_graph(&mut self) {
        let mut nodes = Vec::new();
        for (fi, file) in self.files.iter().enumerate() {
            let rel = file
                .path
                .trim_end_matches(".rs")
                .trim_end_matches("/mod")
                .trim_end_matches("/lib")
                .trim_end_matches("/main");
            let tail = rel.split("/src").nth(1).unwrap_or("").trim_matches('/');
            let mut path = file.crate_name.clone();
            if !tail.is_empty() {
                path.push_str("::");
                path.push_str(&tail.replace('/', "::"));
            }
            nodes.push(ModuleNode { path: path.clone(), file: Some(fi) });
            for m in file.mods.iter().filter(|m| m.inline && !m.cfg_test) {
                nodes.push(ModuleNode { path: format!("{path}::{}", m.name), file: Some(fi) });
            }
        }
        nodes.sort_by(|a, b| a.path.cmp(&b.path));
        self.modules = nodes;
    }

    /// Locks acquired anywhere in `fn_id`'s body (the per-function
    /// summary the lock-order pass inlines one level deep).
    pub fn fn_lock_summary(&self, fn_id: FnId) -> Vec<String> {
        let (fi, ni) = fn_id;
        let file = &self.files[fi];
        let f = &file.fns[ni];
        let mut out = Vec::new();
        if f.body.is_none() {
            return out;
        }
        for c in self.calls.get(&fn_id).into_iter().flatten() {
            if matches!(c.name.as_str(), "lock" | "read" | "write") && c.method {
                if let Some(id) =
                    self.resolve_field(&file.crate_name, f.owner.as_deref(), &c.receiver)
                {
                    if self.lock_fields.contains(&id) && !out.contains(&id) {
                        out.push(id);
                    }
                }
            }
        }
        out
    }

    pub fn file(&self, fi: usize) -> &ParsedFile {
        &self.files[fi]
    }

    pub fn fn_def(&self, id: FnId) -> &FnDef {
        &self.files[id.0].fns[id.1]
    }
}

fn collect_rs(
    dir: &Path,
    root: &Path,
    crate_name: &str,
    out: &mut Vec<ParsedFile>,
) -> std::io::Result<()> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(());
    };
    let mut paths: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, root, crate_name, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            let rel = p.strip_prefix(root).unwrap_or(&p).to_string_lossy().replace('\\', "/");
            let src = fs::read_to_string(&p)?;
            out.push(parse_file(rel, crate_name.to_string(), src));
        }
    }
    Ok(())
}

/// The base type ident of a field type, unwrapping `&`, `Arc<…>`,
/// `Box<…>`, `Rc<…>`, `Option<…>` and leading path segments:
/// `Arc < Shared < T > >` → `Shared`; `Mutex < … >` → `Mutex`.
pub fn base_type(ty: &str) -> Option<String> {
    let mut toks: Vec<&str> = ty.split_whitespace().collect();
    loop {
        // drop leading refs and path prefixes: `& 'a mut a :: b :: C`
        while matches!(toks.first(), Some(&"&") | Some(&"mut") | Some(&"dyn"))
            || toks.first().is_some_and(|t| t.starts_with('\''))
        {
            toks.remove(0);
        }
        while toks.len() >= 3 && toks[1] == ":" && toks[2] == ":" {
            toks.drain(0..3);
        }
        while toks.len() >= 2 && toks[1] == "::" {
            toks.drain(0..2);
        }
        match toks.first() {
            Some(&w @ ("Arc" | "Box" | "Rc" | "Option")) => {
                let _ = w;
                // unwrap one generic layer: Arc < inner … >
                if toks.get(1) == Some(&"<") {
                    toks.drain(0..2);
                    // trim the matching trailing `>` if present
                    if toks.last() == Some(&">") {
                        toks.pop();
                    }
                    continue;
                }
                return Some(w.to_string());
            }
            Some(first) => return Some((*first).to_string()),
            None => return None,
        }
    }
}

/// Walk a body token range extracting call sites with receiver chains
/// and loop context.
fn extract_calls(toks: &[Tok], src: &str, lo: usize, hi: usize) -> Vec<CallSite> {
    let sig: Vec<usize> = (lo..hi).filter(|&i| !toks[i].is_trivia()).collect();
    let text = |si: usize| toks[sig[si]].text(src);
    let mut out = Vec::new();
    // loop tracking: stack of (brace_depth, is_loop); pending flag set by
    // for/while/loop keywords until their `{` opens
    let mut depth = 0usize;
    let mut loop_depths: Vec<usize> = Vec::new();
    let mut pending_loop = false;
    let mut i = 0usize;
    while i < sig.len() {
        let t = text(i);
        match t {
            "for" | "while" | "loop" => pending_loop = true,
            "{" => {
                depth += 1;
                if pending_loop {
                    loop_depths.push(depth);
                    pending_loop = false;
                }
            }
            "}" => {
                if loop_depths.last() == Some(&depth) {
                    loop_depths.pop();
                }
                depth = depth.saturating_sub(1);
            }
            ";" => pending_loop = false,
            _ => {
                let is_ident = toks[sig[i]].kind == TokKind::Ident;
                let next_is = |s: &str| i + 1 < sig.len() && text(i + 1) == s;
                if is_ident && next_is("(") && !is_keyword(t) {
                    let method = i >= 1 && text(i - 1) == ".";
                    let receiver =
                        if method { receiver_chain(&sig, toks, src, i) } else { Vec::new() };
                    out.push(CallSite {
                        name: t.to_string(),
                        method,
                        receiver,
                        tok: sig[i],
                        line: toks[sig[i]].line,
                        in_loop: !loop_depths.is_empty(),
                    });
                }
            }
        }
        i += 1;
    }
    out
}

/// Walk backwards from the method-name token at `sig[i]` collecting the
/// dotted receiver chain: for `self.shared.queue.lock()` at `lock`, the
/// chain is `["self", "shared", "queue"]`. A call or index in the chain
/// (e.g. `.lock().push(…)` seen from `push`) contributes a `()` marker
/// so callers can see the chain passed through a call.
fn receiver_chain(sig: &[usize], toks: &[Tok], src: &str, name_i: usize) -> Vec<String> {
    let text = |si: usize| toks[sig[si]].text(src);
    let mut chain: Vec<String> = Vec::new();
    // sig[name_i - 1] is the `.`; walk back segment by segment
    let mut i = name_i as i64 - 1;
    while i >= 1 {
        // before the dot: ident, `)` (call result), `]` (index result)
        let prev = i - 1;
        let pt = text(prev as usize);
        if pt == ")" || pt == "]" {
            // skip the balanced group backwards
            let close = pt.to_string();
            let open = if pt == ")" { "(" } else { "[" };
            let mut depth = 0i64;
            let mut j = prev;
            while j >= 0 {
                let tj = text(j as usize);
                if tj == close {
                    depth += 1;
                } else if tj == open {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j -= 1;
            }
            // the group is a call's args if an ident precedes `(`
            if open == "(" && j >= 1 && toks[sig[(j - 1) as usize]].kind == TokKind::Ident {
                chain.push(format!("{}()", text((j - 1) as usize)));
                i = j - 1;
            } else {
                chain.push("()".to_string());
                i = j;
            }
        } else if toks[sig[prev as usize]].kind == TokKind::Ident
            || toks[sig[prev as usize]].kind == TokKind::Num
        {
            chain.push(pt.to_string());
            i = prev;
        } else {
            break;
        }
        // continue only through another dot
        if i >= 1 && text((i - 1) as usize) == "." {
            i -= 1;
        } else {
            break;
        }
    }
    chain.reverse();
    // strip call markers: `queue.lock()` chains as [queue]; markers only
    // matter for guard-typed receivers which the passes handle separately
    chain.into_iter().map(|s| s.trim_end_matches("()").to_string()).collect()
}

fn is_keyword(t: &str) -> bool {
    matches!(
        t,
        "if" | "while"
            | "for"
            | "match"
            | "return"
            | "loop"
            | "let"
            | "else"
            | "fn"
            | "move"
            | "in"
            | "as"
            | "break"
            | "continue"
            | "unsafe"
            | "where"
            | "impl"
            | "dyn"
            | "ref"
            | "mut"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
            | "crate"
            | "super"
            | "Self"
            | "self"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        Workspace::from_files(vec![parse_file("src/lib.rs".into(), "t".into(), src.into())])
    }

    #[test]
    fn lock_and_collection_fields_are_indexed() {
        let w = ws("struct Cache { map: Mutex<HashMap<u64, u8>>, hits: AtomicU64 }\n\
             struct Plain { v: Vec<u8> }\n");
        assert!(w.lock_fields.contains("Cache.map"));
        assert!(w.collection_fields.contains("Cache.map"));
        assert!(w.collection_fields.contains("Plain.v"));
        assert!(w.concurrent_structs.contains("Cache"));
        assert!(!w.concurrent_structs.contains("Plain"));
    }

    #[test]
    fn receiver_chains_resolve_through_arc_fields() {
        let w = ws("struct Shared { queue: Mutex<Vec<u8>> }\n\
             struct Sender { shared: Arc<Shared> }\n\
             impl Sender { fn send(&self) { self.shared.queue.lock(); } }\n");
        let id = w.calls.iter().next().expect("send has calls").0;
        let call = &w.calls[id][0];
        assert_eq!(call.name, "lock");
        assert_eq!(call.receiver, ["self", "shared", "queue"]);
        let fid = w.resolve_field("t", Some("Sender"), &call.receiver);
        assert_eq!(fid.as_deref(), Some("Shared.queue"));
    }

    #[test]
    fn loop_reachability_extends_two_hops() {
        let w = ws("fn worker() { loop { process(); } }\n\
             fn process() { store(); }\n\
             fn store() {}\n\
             fn cold() {}\n");
        let ids: Vec<&str> =
            w.loop_reachable.iter().map(|&(fi, ni)| w.files[fi].fns[ni].name.as_str()).collect();
        assert!(ids.contains(&"process"), "{ids:?}");
        assert!(ids.contains(&"store"), "{ids:?}");
        assert!(!ids.contains(&"cold"), "{ids:?}");
    }

    #[test]
    fn fn_lock_summary_lists_acquisitions() {
        let w = ws("struct R { families: Mutex<u8> }\n\
             impl R { fn render(&self) { let f = self.families.lock(); } }\n");
        let id = *w.calls.keys().next().expect("one fn");
        assert_eq!(w.fn_lock_summary(id), ["R.families"]);
    }

    #[test]
    fn base_type_unwraps_wrappers() {
        assert_eq!(base_type("Arc < Shared < T > >").as_deref(), Some("Shared"));
        assert_eq!(base_type("Mutex < HashMap < u64 , u8 > >").as_deref(), Some("Mutex"));
        assert_eq!(base_type("& 'a str").as_deref(), Some("str"));
        assert_eq!(base_type("std :: sync :: Arc < T >").as_deref(), Some("T"));
    }

    #[test]
    fn module_graph_maps_files_and_inline_mods() {
        let w = Workspace::from_files(vec![
            parse_file("crates/x/src/lib.rs".into(), "x".into(), "mod inner {}".into()),
            parse_file("crates/x/src/sub/deep.rs".into(), "x".into(), String::new()),
        ]);
        let paths: Vec<&str> = w.modules.iter().map(|m| m.path.as_str()).collect();
        assert!(paths.contains(&"x"), "{paths:?}");
        assert!(paths.contains(&"x::inner"), "{paths:?}");
        assert!(paths.contains(&"x::sub::deep"), "{paths:?}");
    }
}
