//! # plfs-lint — workspace-invariant static analysis
//!
//! LDPLFS delivers "improved I/O without application modification" only if
//! the preloaded shim can never crash the host process, and the PR 1–3
//! concurrency work (relaxed atomics, lock sharding, a lock-free trace
//! ring) only stays correct if its invariants outlive the author. This
//! crate enforces those invariants mechanically, with a comment- and
//! string-aware lexical scanner (see [`lexer`]), a small per-file rule
//! engine, and — since PR 9 — a syntactic workspace [`callgraph`] that
//! four dataflow passes walk for cross-function and cross-crate facts.
//!
//! ## Per-file rules
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `panic-in-ffi` | `crates/preload`, `crates/ldplfs` | no `unwrap`/`expect`/`panic!`-family calls in shim code; no slice indexing inside `extern "C"` bodies |
//! | `ffi-barrier` | `crates/preload` | every `extern "C"` entry point routes through `ffi_guard!` (catch_unwind → errno) |
//! | `errno-discipline` | `crates/preload` | any function returning `-1` must set errno (directly or via `ffi_guard!`) |
//! | `relaxed-ordering-audit` | whole workspace | every `Ordering::Relaxed` carries a `// relaxed: <why>` justification |
//! | `lock-across-io` | `crates/plfs` | no `lock()`/`read()`/`write()` guard held across a backing-store call — direct, or (PR 9) transitively through resolved callees |
//! | `no-direct-backing-io` | `crates/plfs` (except `backing.rs`) | file I/O goes through the `Backing` trait, never `std::fs` directly |
//!
//! ## Call-graph passes
//!
//! | rule | scope | invariant |
//! |------|-------|-----------|
//! | `deadlock-cycle` | `crates/plfs` | the per-crate lock-order graph (lock class held → lock class acquired, including acquisitions by transitive callees) is acyclic; same-class self-edges are exempt (sharded siblings lock in index order by convention) |
//! | `signal-safety` | `crates/preload` | on every path from an interposed symbol — each name of a row of the preload's symbol table ([`table`]) — no allocation/formatting, no lock-guard binding, and no re-entry into an interposed symbol before the next-symbol resolution (`next::NAME`, a row's `next` binding or passthrough); escape hatch: `// signal-safe: <why>` within three lines above the `fn` |
//! | `errno-clobber` | `crates/preload` | nothing that can overwrite errno (a call of a next definition or a callee that sets errno) runs between `set_errno(e)` and the `-1` return, or between capturing a real libc return value and returning it, in the table's rows and every function |
//! | `symbol-coverage` | `crates/preload` | every interposed symbol is a name in a row of the symbol table: no `#[no_mangle] extern "C"` fn written out by hand |
//!
//! The preload's `ffi-barrier` is its table's: every row expands to the
//! one `extern "C"` template of the `interpose!` macro, which the
//! per-file rule holds to `ffi_guard!` like any other `extern "C"` fn.
//!
//! The graph is deliberately syntactic and conservative: plain calls
//! resolve same-file → same-crate → workspace-unique; method and
//! path-qualified calls resolve within the caller's crate only and never
//! through a blocklist of generic names (`get`, `insert`, `run`, …).
//! Unresolved calls contribute no edges, so the passes under-approximate
//! rather than guess.
//!
//! ## Suppressions
//!
//! A finding is suppressed by a comment on the same line or the line
//! immediately above:
//!
//! ```text
//! // plfs-lint: allow(lock-across-io, "seed happens once under the reader
//! // lock on purpose: racing seeders would double-merge")
//! ```
//!
//! The justification string is **required** and must be non-empty — a bare
//! `allow(rule)` is itself a finding. `relaxed-ordering-audit` also accepts
//! the lighter-weight `// relaxed: <why>` annotation, since every atomic
//! site needs one and the full suppression form would drown the code.
//!
//! Test code (`#[cfg(test)]` modules, `#[test]` functions) is exempt from
//! every rule: tests are allowed to unwrap.
//!
//! ## Output
//!
//! Findings render as text (`render_text`), JSON (`render_json`), or SARIF
//! 2.1.0 (`render_sarif`) for code-scanning UIs; `check_sarif` is an
//! independent validator the CI round-trips every report through.

#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
mod passes;
mod rules;
mod sarif;
pub mod table;

pub use sarif::{check_sarif, render_sarif};

use lexer::Line;
use rayon::prelude::*;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A single lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (e.g. `panic-in-ffi`).
    pub rule: &'static str,
    /// The offending source line, trimmed.
    pub snippet: String,
    /// Human-readable explanation of the violated invariant.
    pub message: String,
}

/// All rule identifiers, in report order. `bad-suppression` is the
/// engine's own meta-rule: an `allow(...)` without a justification string.
pub const RULES: &[&str] = &[
    "panic-in-ffi",
    "ffi-barrier",
    "errno-discipline",
    "relaxed-ordering-audit",
    "lock-across-io",
    "no-direct-backing-io",
    "deadlock-cycle",
    "signal-safety",
    "errno-clobber",
    "symbol-coverage",
    "bad-suppression",
];

/// One-line description per rule id, used by the SARIF `rules` array.
pub fn rule_description(rule: &str) -> &'static str {
    match rule {
        "panic-in-ffi" => "no panic-capable calls in shim code",
        "ffi-barrier" => "every preload extern \"C\" fn routes through ffi_guard!",
        "errno-discipline" => "functions returning -1 must set errno",
        "relaxed-ordering-audit" => "every Ordering::Relaxed carries a `// relaxed:` note",
        "lock-across-io" => "no lock guard held across backing-store I/O (directly or via callees)",
        "no-direct-backing-io" => "crates/plfs I/O goes through the Backing trait",
        "deadlock-cycle" => "no lock-order inversion cycles across lock classes",
        "signal-safety" => {
            "no allocation, formatting, held locks or interposed-symbol re-entry \
             before dlsym-next resolution in the preload shim"
        }
        "errno-clobber" => "no errno-clobbering call between set_errno/libc return and the return",
        "symbol-coverage" => "every interposed symbol is a row of the preload's symbol table",
        "bad-suppression" => "suppressions must carry a non-empty justification",
        _ => "project-specific invariant",
    }
}

/// One parsed `plfs-lint: allow(rule, "why")` suppression.
#[derive(Debug, Clone)]
struct Suppression {
    rule: String,
    /// Empty justification is a violation in its own right.
    has_reason: bool,
    line: usize,
}

/// A contiguous function span in the scrubbed source.
#[derive(Debug, Clone)]
pub(crate) struct FnSpan {
    /// 0-based line of the `fn` keyword.
    pub(crate) start: usize,
    /// 0-based line of the closing brace (inclusive).
    pub(crate) end: usize,
    pub(crate) is_extern_c: bool,
    /// Identifier after `fn`; empty for fn-pointer types (`fn(c_int) -> …`).
    pub(crate) name: String,
    /// `#[no_mangle]` on the same or one of the three preceding lines —
    /// i.e. an interposition entry point rather than an internal helper.
    pub(crate) no_mangle: bool,
}

/// Everything the rules need to know about one file.
pub struct FileCtx {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    pub(crate) lines: Vec<Line>,
    /// `in_test[i]` — line `i` is inside `#[cfg(test)]` / `#[test]` code.
    pub(crate) in_test: Vec<bool>,
    pub(crate) suppressions: Vec<Suppression>,
    pub(crate) fns: Vec<FnSpan>,
    /// The preload's symbol table, if this file declares it.
    pub(crate) table: Option<table::Table>,
}

impl FileCtx {
    /// Build the context for one file's source text.
    pub fn new(path: &str, src: &str) -> FileCtx {
        let lines = lexer::scrub(src);
        let in_test = mark_test_lines(&lines);
        let suppressions = parse_suppressions(&lines);
        let fns = find_fn_spans(&lines);
        let table = rules::in_preload(path)
            .then(|| table::read(&lines))
            .flatten();
        FileCtx {
            path: path.to_string(),
            lines,
            in_test,
            suppressions,
            fns,
            table,
        }
    }

    pub(crate) fn line_in_test(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    /// Is a finding of `rule` on 0-based line `i` suppressed (same line or
    /// the line above), with a non-empty justification?
    pub(crate) fn suppressed(&self, rule: &str, i: usize) -> bool {
        self.suppressions
            .iter()
            .any(|s| s.rule == rule && s.has_reason && (s.line == i || s.line + 1 == i))
    }

    /// Comment text of line `i` and the line above, joined — used by the
    /// `// relaxed:` annotation check.
    pub(crate) fn nearby_comments(&self, i: usize) -> String {
        let mut out = String::new();
        if i > 0 {
            out.push_str(&self.lines[i - 1].comment);
            out.push(' ');
        }
        out.push_str(&self.lines[i].comment);
        out
    }

    pub(crate) fn finding(&self, rule: &'static str, i: usize, message: String) -> Finding {
        Finding {
            file: self.path.clone(),
            line: i + 1,
            rule,
            snippet: self.lines[i].raw.trim().to_string(),
            message,
        }
    }
}

/// Mark lines belonging to test code: a `#[cfg(test)]`-attributed item
/// (typically `mod tests`) or a `#[test]` / `#[bench]` function, tracked by
/// brace depth from the attribute to the close of the item's block.
fn mark_test_lines(lines: &[Line]) -> Vec<bool> {
    let mut in_test = vec![false; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        let code = &lines[i].code;
        let is_test_attr = code.contains("#[cfg(test)]")
            || code.contains("#[test]")
            || code.contains("#[bench]")
            || code.contains("#[cfg(all(test");
        if !is_test_attr {
            i += 1;
            continue;
        }
        // Scan forward for the item's opening brace, then to its close.
        let mut depth = 0i32;
        let mut opened = false;
        let mut j = i;
        'scan: while j < lines.len() {
            in_test[j] = true;
            for c in lines[j].code.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            in_test[j] = true;
                            break 'scan;
                        }
                    }
                    // An attribute on a brace-less item (e.g. `#[cfg(test)]
                    // use …;`) ends at the semicolon.
                    ';' if !opened => break 'scan,
                    _ => {}
                }
            }
            j += 1;
        }
        i = j + 1;
    }
    in_test
}

/// Parse `plfs-lint: allow(rule, "why")` suppressions out of comment text.
fn parse_suppressions(lines: &[Line]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let c = &line.comment;
        let Some(pos) = c.find("plfs-lint:") else {
            continue;
        };
        let rest = &c[pos + "plfs-lint:".len()..];
        let Some(open) = rest.find("allow(") else {
            continue;
        };
        let body = &rest[open + "allow(".len()..];
        let rule_end = body.find([',', ')']).unwrap_or(body.len());
        let rule = body[..rule_end].trim().to_string();
        // A justification is the first quoted string after the comma; a
        // multi-line comment justification keeps its opening quote on this
        // line, which is all we require here (lexically non-empty).
        let tail = &body[rule_end..];
        let has_reason = match tail.find('"') {
            Some(q) => {
                let after = &tail[q + 1..];
                // Non-empty up to the closing quote (or end of line for
                // justifications wrapped across comment lines).
                let content = after.split('"').next().unwrap_or("");
                !content.trim().is_empty()
            }
            None => false,
        };
        out.push(Suppression {
            rule,
            has_reason,
            line: i,
        });
    }
    out
}

/// Locate function spans and whether each is an `extern "C"` definition.
/// Lexical: a `fn` keyword, a look-back for `extern "` on the same or the
/// two preceding code lines, then brace matching for the body. Foreign
/// blocks (`extern "C" { fn …; }`) contain declarations without bodies and
/// resolve to zero-length spans, which no rule acts on.
fn find_fn_spans(lines: &[Line]) -> Vec<FnSpan> {
    let mut spans = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;
        let Some(fn_col) = find_word(code, "fn") else {
            continue;
        };
        // Look back for `extern "` within the declaration head.
        let mut head = String::new();
        for prev in lines.iter().take(i).skip(i.saturating_sub(2)) {
            head.push_str(&prev.code);
            head.push(' ');
        }
        head.push_str(&code[..fn_col]);
        let is_extern_c = head.contains("extern \"") && !head.trim_end().ends_with('}');
        // The identifier after `fn`, if any. Fn-pointer types (`fn(c_int)`)
        // and closures yield an empty name, which the call graph skips.
        let after_fn = code[fn_col + 2..].trim_start();
        let name: String = after_fn
            .bytes()
            .take_while(|&b| is_ident_byte(b))
            .map(char::from)
            .collect();
        // `#[no_mangle]` sits on its own line above the (possibly
        // attribute-laden) declaration head.
        let no_mangle = lines
            .iter()
            .take(i + 1)
            .skip(i.saturating_sub(3))
            .any(|l| l.code.contains("#[no_mangle]"));
        // Find the body: first '{' at or after the fn, matched to close.
        let mut depth = 0i32;
        let mut opened = false;
        let mut end = i;
        'body: for (j, l) in lines.iter().enumerate().skip(i) {
            let start_col = if j == i { fn_col } else { 0 };
            for c in l.code[start_col.min(l.code.len())..].chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => {
                        depth -= 1;
                        if opened && depth == 0 {
                            end = j;
                            break 'body;
                        }
                    }
                    // Declaration only (foreign block / trait method).
                    ';' if !opened => {
                        end = i;
                        break 'body;
                    }
                    _ => {}
                }
            }
            end = j;
        }
        spans.push(FnSpan {
            start: i,
            end,
            is_extern_c,
            name,
            no_mangle,
        });
    }
    spans
}

/// Find `word` in `s` at identifier boundaries; returns the byte offset.
pub(crate) fn find_word(s: &str, word: &str) -> Option<usize> {
    let bytes = s.as_bytes();
    let mut from = 0;
    while let Some(rel) = s[from..].find(word) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return Some(at);
        }
        from = at + word.len();
    }
    None
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Per-file rules plus the engine's own suppression meta-rule.
fn run_file_rules(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    rules::panic_in_ffi(ctx, findings);
    rules::ffi_barrier(ctx, findings);
    rules::errno_discipline(ctx, findings);
    rules::relaxed_ordering_audit(ctx, findings);
    rules::lock_across_io(ctx, findings);
    rules::no_direct_backing_io(ctx, findings);
    // Suppressions without a justification are findings themselves.
    for s in &ctx.suppressions {
        if !s.has_reason && !ctx.line_in_test(s.line) {
            findings.push(ctx.finding(
                "bad-suppression",
                s.line,
                format!(
                    "suppression for `{}` lacks a justification string: \
                     use plfs-lint: allow({}, \"<why>\")",
                    s.rule, s.rule
                ),
            ));
        }
    }
}

/// Lint a set of files together: per-file line rules, then the four
/// call-graph passes (deadlock cycles, signal safety, errno clobber,
/// symbol coverage) over the combined workspace graph. Each `(path, src)`
/// pair is a workspace-relative path and its source text. Per-file work is
/// parallelized with rayon; the graph passes run once over the whole set.
pub fn lint_files(files: &[(String, String)]) -> Vec<Finding> {
    let per_file: Vec<(FileCtx, Vec<Finding>)> = files
        .par_iter()
        .map(|(path, src)| {
            let ctx = FileCtx::new(path, src);
            let mut findings = Vec::new();
            run_file_rules(&ctx, &mut findings);
            (ctx, findings)
        })
        .collect();
    let mut findings: Vec<Finding> = Vec::new();
    let mut ctxs: Vec<FileCtx> = Vec::with_capacity(per_file.len());
    for (ctx, f) in per_file {
        findings.extend(f);
        ctxs.push(ctx);
    }
    let graph = callgraph::Graph::build(&ctxs);
    passes::deadlock::run(&graph, &mut findings);
    passes::signal_safety::run(&graph, &mut findings);
    passes::errno_clobber::run(&graph, &mut findings);
    passes::symbol_matrix::run(&graph, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup();
    findings
}

/// Lint one file's source text. `path` is the workspace-relative path used
/// both for reporting and rule scoping. Call-graph passes still run, with
/// the single file as the whole visible workspace.
pub fn lint_source(path: &str, src: &str) -> Vec<Finding> {
    lint_files(&[(path.to_string(), src.to_string())])
}

/// Walk the workspace at `root` and lint every first-party source file:
/// `src/**/*.rs` of the root package and each `crates/*` member. Vendored
/// stand-ins (`vendor/`), integration tests (`tests/`), benches, examples
/// and build output are out of scope — the rules target shipping code.
pub fn lint_workspace(root: &Path) -> Result<Vec<Finding>, std::io::Error> {
    let mut files = Vec::new();
    collect_rs(&root.join("src"), &mut files)?;
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        members.sort();
        for m in members {
            collect_rs(&m.join("src"), &mut files)?;
        }
    }
    files.sort();
    if files.is_empty() {
        // A mistyped root must not read as a vacuously clean workspace —
        // that would silently disable the CI gate.
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("no .rs sources under {} — wrong root?", root.display()),
        ));
    }
    let sources: Vec<Result<(String, String), std::io::Error>> = files
        .par_iter()
        .map(|f| {
            let src = std::fs::read_to_string(f)?;
            let rel = f
                .strip_prefix(root)
                .unwrap_or(f)
                .to_string_lossy()
                .replace('\\', "/");
            Ok((rel, src))
        })
        .collect();
    let mut pairs = Vec::with_capacity(sources.len());
    for s in sources {
        pairs.push(s?);
    }
    Ok(lint_files(&pairs))
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), std::io::Error> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            // `src/bin/` holds test harness binaries (preload-smoke), not
            // shipped library code; skip, like tests/ and benches/.
            if p.file_name().is_some_and(|n| n == "bin") {
                continue;
            }
            collect_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Render findings as a human-readable report.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        let _ = writeln!(out, "    {}", f.snippet);
    }
    let _ = writeln!(
        out,
        "plfs-lint: {} finding{}",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" }
    );
    out
}

/// Render findings as a JSON document (via `jsonlite`):
/// `{"findings": [{"file", "line", "rule", "snippet", "message"}…],
///   "count": N}`.
pub fn render_json(findings: &[Finding]) -> String {
    use jsonlite::Value;
    let items: Vec<Value> = findings
        .iter()
        .map(|f| {
            Value::object()
                .with("file", f.file.as_str())
                .with("line", f.line)
                .with("rule", f.rule)
                .with("snippet", f.snippet.as_str())
                .with("message", f.message.as_str())
        })
        .collect();
    Value::object()
        .with("findings", items)
        .with("count", findings.len())
        .to_json_pretty()
}
