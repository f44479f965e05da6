//! Workspace-level syntactic call graph with per-line event summaries.
//!
//! The per-file rules in this crate see one line (or one function span) at
//! a time; the PR 9 passes need to reason *across* functions: a lock-order
//! cycle spans several methods, an allocation before dlsym-next resolution
//! hides two calls deep, an errno clobber sits in a helper. This module
//! builds the substrate they share: for every named function in the linted
//! file set, a [`FnNode`] with one [`LineEvent`] per body line recording
//! the lock classes acquired and held, the calls made, backing-store I/O,
//! allocation/formatting sites, next-symbol resolution, `set_errno`
//! and `-1` mentions; and a node for each name of a row of the preload's
//! symbol table ([`crate::table`]), in the order the generated symbol runs.
//!
//! Everything here is lexical, like the rest of the crate: no type
//! information, no macro expansion beyond the symbol table's. Name resolution is deliberately
//! conservative — same file first, then same crate, and method calls only
//! resolve when the name is unambiguous within the crate and not on the
//! common-method blocklist. An unresolved call contributes nothing, so the
//! passes under-approximate rather than hallucinate.

use crate::rules::{guard_binding, mentions_minus_one};
use crate::table::Row;
use crate::{find_word, is_ident_byte, FileCtx};
use std::collections::{HashMap, HashSet};

/// A call site: callee identifier and whether it carries a receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    /// Callee identifier (last path segment).
    pub name: String,
    /// `true` when the call has an explicit receiver or path qualifier
    /// (`expr.name(…)`, `Type::name(…)`): the receiver names a type we do
    /// not track, so resolution stays within the caller's crate and skips
    /// blocklisted generic names. Plain `name(…)` calls resolve wider.
    pub method: bool,
}

/// Per-line facts inside one function body.
#[derive(Debug, Clone, Default)]
pub struct LineEvent {
    /// 0-based source line.
    pub line: usize,
    /// Brace depth at line start, relative to the function (signature = 0).
    pub depth: i32,
    /// Lock classes of `let`-bound guards live at line start.
    pub held: Vec<String>,
    /// Lock acquisitions on this line: `(class, is_let_binding)`. A
    /// non-binding acquisition is a same-statement temporary whose guard
    /// drops at the semicolon.
    pub acquires: Vec<(String, bool)>,
    /// Calls made on this line.
    pub calls: Vec<Call>,
    /// Mentions the backing store (same signal `lock-across-io` keys on).
    pub io: bool,
    /// First allocation/formatting pattern on the line, if any.
    pub alloc: Option<&'static str>,
    /// Calls the next definition of an interposed name: `next::NAME(…)`, a
    /// row's `next` binding, or a row's class passthrough.
    pub calls_next: bool,
    /// Calls `set_errno`.
    pub sets_errno: bool,
    /// Mentions a literal `-1` (candidate libc error return).
    pub minus_one: bool,
    /// Identifier bound by a `let` on this line, if any.
    pub let_name: Option<String>,
}

/// One named function in the graph.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Index into the [`Graph::ctxs`] slice of the defining file.
    pub file: usize,
    /// Function name (identifier after `fn`).
    pub name: String,
    /// 0-based line of the `fn` keyword.
    pub start: usize,
    /// 0-based line of the closing brace.
    pub end: usize,
    /// Declared `extern "C"`.
    pub is_extern_c: bool,
    /// Carries `#[no_mangle]` — an interposition entry point.
    pub no_mangle: bool,
    /// Generated by a row of the preload's symbol table ([`crate::table`]).
    pub row: bool,
    /// Lives inside `#[cfg(test)]` / `#[test]` code.
    pub in_test: bool,
    /// Per-line facts for the body, in source order.
    pub events: Vec<LineEvent>,
}

/// The workspace call graph over a set of linted files.
pub struct Graph<'a> {
    /// The file contexts the graph was built from, in input order.
    pub ctxs: &'a [FileCtx],
    /// All named non-declaration functions found.
    pub fns: Vec<FnNode>,
    /// Resolved callee indices per function (deduplicated).
    pub edges: Vec<Vec<usize>>,
    by_name: HashMap<String, Vec<usize>>,
}

/// Rust keywords that look like calls when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "in", "as", "move",
    "ref", "mut", "use", "pub", "impl", "where", "unsafe", "extern", "const", "static", "struct",
    "enum", "trait", "type", "mod", "crate", "super", "self", "break", "continue", "dyn", "box",
    "await", "async", "yield",
];

/// Method names too generic to resolve by name alone — `x.get(…)` in one
/// file has nothing to do with `fn get` in another. Plain calls are not
/// filtered: a free `get(…)` is rare enough to trust.
const COMMON_METHODS: &[&str] = &[
    "new",
    "get",
    "get_mut",
    "insert",
    "remove",
    "len",
    "is_empty",
    "push",
    "pop",
    "clone",
    "drop",
    "parse",
    "open",
    "close",
    "read",
    "write",
    "size",
    "sync",
    "flush",
    "next",
    "iter",
    "into_iter",
    "collect",
    "contains",
    "contains_key",
    "entry",
    "take",
    "clear",
    "extend",
    "with",
    "sort",
    "join",
    "split",
    "find",
    "map",
    "filter",
    "lock",
    "send",
    "recv",
    "run",
    "start",
    "stop",
    "wait",
    "clone_box",
    "reset",
    "seek",
    "name",
    "path",
    "id",
    "kind",
];

/// Allocation / formatting patterns that are off-limits before dlsym-next
/// resolution (each may take the global allocator lock or re-enter
/// interposable machinery).
const ALLOC_PATTERNS: &[&str] = &[
    "format!",
    "vec!",
    "println!",
    "eprintln!",
    "print!",
    "eprint!",
    "panic!",
    "to_string(",
    "to_owned(",
    "to_vec(",
    "String::from",
    "String::new",
    "String::with_capacity",
    "CString::new",
    "Box::new",
    "Arc::new",
    "Rc::new",
    "Vec::with_capacity",
    "with_capacity(",
];

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

/// Crate name a workspace-relative path belongs to (`crates/<name>/…`),
/// or `"root"` for the root package.
pub fn crate_of(path: &str) -> &str {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("root")
}

/// Extract call sites from one scrubbed code line.
fn extract_calls(code: &str) -> Vec<Call> {
    let b = code.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if !is_ident_start(b[i]) {
            i += 1;
            continue;
        }
        let start = i;
        while i < b.len() && is_ident_byte(b[i]) {
            i += 1;
        }
        // Followed directly by `(` — macro calls (`name!(`) and bare
        // identifiers fall out naturally.
        if i >= b.len() || b[i] != b'(' {
            continue;
        }
        let name = &code[start..i];
        if KEYWORDS.contains(&name) || name.as_bytes()[0].is_ascii_uppercase() {
            continue;
        }
        let before = code[..start].trim_end();
        if before.ends_with("fn") {
            continue; // definition, not a call
        }
        out.push(Call {
            name: name.to_string(),
            method: before.ends_with('.') || before.ends_with("::"),
        });
    }
    out
}

/// Lock-acquisition sites on a line: byte offset and lock class. The class
/// is the identifier before `.lock()` / `.read()` / `.write()`, scanning
/// back over one balanced `(…)` group so `self.shard(pid).lock()` reads as
/// class `shard`, not `<anon>`.
fn lock_sites(code: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for pat in [".lock()", ".read()", ".write()"] {
        let mut from = 0;
        while let Some(rel) = code[from..].find(pat) {
            let at = from + rel;
            out.push((at, lock_class(code, at)));
            from = at + pat.len();
        }
    }
    out.sort();
    out
}

fn lock_class(code: &str, dot_at: usize) -> String {
    let b = code.as_bytes();
    let mut end = dot_at;
    if end > 0 && b[end - 1] == b')' {
        // Balance back over the call arguments to the matching `(`.
        let mut depth = 0i32;
        let mut k = end - 1;
        loop {
            match b[k] {
                b')' => depth += 1,
                b'(' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if k == 0 {
                return "<anon>".to_string();
            }
            k -= 1;
        }
        end = k;
    }
    let mut s = end;
    while s > 0 && is_ident_byte(b[s - 1]) {
        s -= 1;
    }
    let ident = &code[s..end];
    if ident.is_empty() || ident == "self" {
        "<anon>".to_string()
    } else {
        ident.to_string()
    }
}

/// `let [mut] NAME` prefix of a line, if present; `let _` binds nothing.
fn let_binding(code: &str) -> Option<String> {
    let at = find_word(code, "let")?;
    let rest = code[at + 3..].trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .bytes()
        .take_while(|&b| is_ident_byte(b))
        .map(char::from)
        .collect();
    if name.is_empty() || name == "_" {
        None
    } else {
        Some(name)
    }
}

impl<'a> Graph<'a> {
    /// Build the graph over a set of file contexts (input order is kept:
    /// `FnNode::file` indexes into `ctxs`).
    pub fn build(ctxs: &'a [FileCtx]) -> Graph<'a> {
        let mut fns = Vec::new();
        for (file, ctx) in ctxs.iter().enumerate() {
            for span in &ctx.fns {
                if span.name.is_empty() {
                    continue; // fn-pointer type, not a definition
                }
                let has_body = ctx.lines[span.start..=span.end.min(ctx.lines.len() - 1)]
                    .iter()
                    .any(|l| l.code.contains('{'));
                if !has_body {
                    continue; // foreign-block / trait declaration
                }
                fns.push(build_fn(file, ctx, span));
            }
            for row in ctx.table.iter().flat_map(|t| &t.rows) {
                fns.extend(row_fns(file, row));
            }
        }
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.clone()).or_default().push(i);
        }
        let mut g = Graph {
            ctxs,
            fns,
            edges: Vec::new(),
            by_name,
        };
        g.edges = (0..g.fns.len())
            .map(|i| {
                let mut out: Vec<usize> = g.fns[i]
                    .events
                    .iter()
                    .flat_map(|e| e.calls.iter())
                    .filter_map(|c| g.resolve(i, c))
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();
        g
    }

    /// Resolve a call from `caller` to a graph node, conservatively:
    /// unique match in the same file, else unique match in the same crate,
    /// else (plain calls only) unique match workspace-wide. Method calls
    /// with blocklisted generic names never resolve.
    pub fn resolve(&self, caller: usize, call: &Call) -> Option<usize> {
        if call.method && COMMON_METHODS.contains(&call.name.as_str()) {
            return None;
        }
        let live: Vec<usize> = self
            .by_name
            .get(&call.name)?
            .iter()
            .copied()
            .filter(|&i| !self.fns[i].in_test)
            .collect();
        let cfile = self.fns[caller].file;
        let same_file: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&i| self.fns[i].file == cfile)
            .collect();
        match same_file.len() {
            1 => return Some(same_file[0]),
            0 => {}
            _ => return None, // ambiguous even within the file
        }
        let ccrate = crate_of(&self.ctxs[cfile].path);
        let same_crate: Vec<usize> = live
            .iter()
            .copied()
            .filter(|&i| crate_of(&self.ctxs[self.fns[i].file].path) == ccrate)
            .collect();
        match same_crate.len() {
            1 => return Some(same_crate[0]),
            0 if !call.method && live.len() == 1 => return Some(live[0]),
            _ => {}
        }
        None
    }

    /// Is `f` an interposed entry point: a row of the preload's symbol
    /// table, or a `#[no_mangle] extern "C"` function of the preload's?
    pub fn interposed(&self, f: &FnNode) -> bool {
        f.row
            || (f.no_mangle
                && f.is_extern_c
                && !f.in_test
                && crate::rules::in_preload(&self.ctxs[f.file].path))
    }

    /// Fixpoint: lock classes each function may acquire, directly or via
    /// any resolved callee.
    pub fn transitive_acquires(&self) -> Vec<HashSet<String>> {
        let mut acc: Vec<HashSet<String>> = self
            .fns
            .iter()
            .map(|f| {
                f.events
                    .iter()
                    .flat_map(|e| e.acquires.iter().map(|(c, _)| c.clone()))
                    .collect()
            })
            .collect();
        self.fixpoint(
            |g, i, acc: &Vec<HashSet<String>>| {
                let mut merged = acc[i].clone();
                for &callee in &g.edges[i] {
                    merged.extend(acc[callee].iter().cloned());
                }
                merged
            },
            &mut acc,
        );
        acc
    }

    /// Fixpoint: functions that touch the backing store, directly or via
    /// any resolved callee.
    pub fn transitive_io(&self) -> Vec<bool> {
        let mut acc: Vec<bool> = self
            .fns
            .iter()
            .map(|f| f.events.iter().any(|e| e.io))
            .collect();
        self.fixpoint(
            |g, i, acc: &Vec<bool>| acc[i] || g.edges[i].iter().any(|&c| acc[c]),
            &mut acc,
        );
        acc
    }

    /// Fixpoint: functions that may clobber errno — they resolve or call a
    /// next-in-chain libc symbol, call `set_errno` themselves, or do
    /// backing I/O, directly or via any resolved callee.
    pub fn transitive_errno_clobber(&self) -> Vec<bool> {
        let mut acc: Vec<bool> = self
            .fns
            .iter()
            .map(|f| {
                f.events
                    .iter()
                    .any(|e| e.calls_next || e.sets_errno || e.io)
            })
            .collect();
        self.fixpoint(
            |g, i, acc: &Vec<bool>| acc[i] || g.edges[i].iter().any(|&c| acc[c]),
            &mut acc,
        );
        acc
    }

    /// Iterate `step` over every node until no node's value changes.
    /// Values must only grow (set union / bool or), so this terminates.
    fn fixpoint<T: PartialEq + Clone>(
        &self,
        step: impl Fn(&Graph<'a>, usize, &Vec<T>) -> T,
        acc: &mut Vec<T>,
    ) {
        loop {
            let mut changed = false;
            for i in 0..self.fns.len() {
                let next = step(self, i, acc);
                if next != acc[i] {
                    acc[i] = next;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }
}

/// Build one function node from its span.
fn build_fn(file: usize, ctx: &FileCtx, span: &crate::FnSpan) -> FnNode {
    let end = span.end.min(ctx.lines.len() - 1);
    let lines = (span.start..=end).map(|i| (i, ctx.lines[i].code.as_str()));
    FnNode {
        file,
        name: span.name.clone(),
        start: span.start,
        end: span.end,
        is_extern_c: span.is_extern_c,
        no_mangle: span.no_mangle,
        row: false,
        in_test: ctx.line_in_test(span.start),
        events: line_events(lines),
    }
}

/// The function nodes of a symbol-table row, one per name, all with the
/// events of what the generated symbol runs: the row's check and class,
/// the passthrough to the next definition (a resolution), then its body.
fn row_fns(file: usize, row: &Row) -> Vec<FnNode> {
    let lines = row.before.iter().chain(&row.body);
    let mut events = line_events(lines.map(|(i, code)| (*i, code.as_str())));
    if let Some(line) = row.passthrough {
        let resolution = LineEvent {
            line,
            calls_next: true,
            ..LineEvent::default()
        };
        events.insert(row.before.len(), resolution);
    }
    row.names
        .iter()
        .map(|name| FnNode {
            file,
            name: name.clone(),
            start: row.line,
            end: row.end,
            is_extern_c: true,
            no_mangle: true,
            row: true,
            in_test: false,
            events: events.clone(),
        })
        .collect()
}

/// One [`LineEvent`] per `(line, code)` of a body, tracking brace depth and
/// live guard bindings.
fn line_events<'s>(lines: impl Iterator<Item = (usize, &'s str)>) -> Vec<LineEvent> {
    let mut events = Vec::new();
    // (guard name, lock class, depth at binding)
    let mut guards: Vec<(String, String, i32)> = Vec::new();
    let mut depth = 0i32;
    for (i, code) in lines {
        let held: Vec<String> = guards.iter().map(|(_, c, _)| c.clone()).collect();
        let sites = lock_sites(code);
        let binding = guard_binding(code);
        let mut acquires: Vec<(String, bool)> =
            sites.iter().map(|(_, c)| (c.clone(), false)).collect();
        if binding.is_some() {
            if let Some(last) = acquires.last_mut() {
                last.1 = true;
            }
        }
        let calls = extract_calls(code);
        let calls_next =
            code.contains("next::") || calls.iter().any(|c| !c.method && c.name == "next");
        events.push(LineEvent {
            line: i,
            depth,
            held,
            acquires: acquires.clone(),
            calls,
            io: find_word(code, "backing").is_some(),
            alloc: ALLOC_PATTERNS.iter().find(|p| code.contains(*p)).copied(),
            calls_next,
            sets_errno: find_word(code, "set_errno").is_some(),
            minus_one: mentions_minus_one(code),
            let_name: let_binding(code),
        });
        // Guard lifetime bookkeeping after the line's own effects.
        if let (Some(name), Some((_, class))) = (binding, sites.last()) {
            guards.push((name, class.clone(), depth));
        }
        for (gname, _, _) in guards.clone() {
            if code.contains(&format!("drop({gname})")) {
                guards.retain(|(n, _, _)| *n != gname);
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        guards.retain(|(_, _, d)| depth > *d || (depth == *d && *d > 0));
    }
    events
}
