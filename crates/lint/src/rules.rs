//! The six project-specific rules. Each takes a [`FileCtx`] and appends
//! findings; rule scoping by path lives here so the engine stays generic.

use crate::{find_word, is_ident_byte, FileCtx, Finding};

pub(crate) fn in_preload(p: &str) -> bool {
    p.contains("crates/preload/src")
}
fn in_ldplfs(p: &str) -> bool {
    p.contains("crates/ldplfs/src")
}
pub(crate) fn in_plfs(p: &str) -> bool {
    p.contains("crates/plfs/src")
}

/// **panic-in-ffi** — the shim crates (`crates/preload`, the real
/// `LD_PRELOAD` cdylib, and `crates/ldplfs`, the simulated shim) run inside
/// unsuspecting host applications; a panic there aborts someone else's
/// process. No `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
/// `unimplemented!` anywhere in shim code, and no slice indexing inside
/// `extern "C"` function bodies (indexing panics on out-of-bounds).
/// `debug_assert!` is allowed: it compiles out of release builds.
pub fn panic_in_ffi(ctx: &FileCtx, out: &mut Vec<Finding>) {
    const RULE: &str = "panic-in-ffi";
    if !in_preload(&ctx.path) && !in_ldplfs(&ctx.path) {
        return;
    }
    const CALLS: &[(&str, &str)] = &[
        (".unwrap()", "unwrap() panics on Err/None"),
        (".expect(", "expect() panics on Err/None"),
        ("panic!", "explicit panic"),
        ("unreachable!", "unreachable!() panics when reached"),
        ("todo!", "todo!() always panics"),
        ("unimplemented!", "unimplemented!() always panics"),
    ];
    for (i, line) in ctx.lines.iter().enumerate() {
        if ctx.line_in_test(i) || ctx.suppressed(RULE, i) {
            continue;
        }
        let code = &line.code;
        for (pat, why) in CALLS {
            let hit = if pat.starts_with('.') {
                code.contains(pat)
            } else {
                // Macro names need an identifier boundary on the left so
                // `debug_assert!` never matches and `std::panic::` paths
                // don't false-positive on the `panic` word.
                macro_use(code, pat.trim_end_matches('!'))
            };
            if hit {
                out.push(ctx.finding(
                    RULE,
                    i,
                    format!("{why}; a panic in the shim aborts the host application"),
                ));
                break;
            }
        }
    }
    // Slice indexing, only inside extern "C" bodies (the blast radius that
    // motivates the rule); elsewhere in the shim it is reviewed case by
    // case via the call patterns above.
    for span in ctx.fns.iter().filter(|s| s.is_extern_c) {
        for i in span.start..=span.end.min(ctx.lines.len() - 1) {
            if ctx.line_in_test(i) || ctx.suppressed(RULE, i) {
                continue;
            }
            if let Some(col) = indexing_site(&ctx.lines[i].code) {
                out.push(ctx.finding(
                    RULE,
                    i,
                    format!(
                        "slice/array indexing at column {} inside an extern \"C\" fn \
                         panics on out-of-bounds; use get()/checked access",
                        col + 1
                    ),
                ));
            }
        }
    }
}

/// Is `name!` invoked anywhere on this line? Scans every identifier-
/// boundary occurrence of `name`, requiring the `!` sigil right after, so
/// `std::panic::catch_unwind` (no `!`) and `debug_assert!` (left boundary)
/// never match `panic`.
fn macro_use(code: &str, name: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(rel) = code[from..].find(name) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        if before_ok && code[at + name.len()..].starts_with('!') {
            return true;
        }
        from = at + name.len();
    }
    false
}

/// Find an indexing expression `expr[…]`: a `[` directly preceded by an
/// identifier character, `)` or `]`. Attribute (`#[…]`) and array-type /
/// array-literal brackets are preceded by other characters.
fn indexing_site(code: &str) -> Option<usize> {
    let b = code.as_bytes();
    (1..b.len()).find(|&i| {
        b[i] == b'[' && (is_ident_byte(b[i - 1]) || b[i - 1] == b')' || b[i - 1] == b']')
    })
}

/// **ffi-barrier** — every `extern "C"` definition in `crates/preload`
/// must route through the `ffi_guard!` panic barrier so a residual panic
/// becomes `errno = EIO; return -1` instead of unwinding into foreign
/// stack frames (undefined behavior, in practice an abort).
pub fn ffi_barrier(ctx: &FileCtx, out: &mut Vec<Finding>) {
    const RULE: &str = "ffi-barrier";
    if !in_preload(&ctx.path) {
        return;
    }
    for span in ctx.fns.iter().filter(|s| s.is_extern_c) {
        if span.end == span.start && !ctx.lines[span.start].code.contains('{') {
            continue; // declaration in a foreign block, no body to guard
        }
        if ctx.line_in_test(span.start) || ctx.suppressed(RULE, span.start) {
            continue;
        }
        let body_has_guard = (span.start..=span.end.min(ctx.lines.len() - 1))
            .any(|i| ctx.lines[i].code.contains("ffi_guard!"));
        if !body_has_guard {
            out.push(
                ctx.finding(
                    RULE,
                    span.start,
                    "extern \"C\" fn does not use ffi_guard!: a panic here unwinds \
                 into the host application"
                        .to_string(),
                ),
            );
        }
    }
}

/// **errno-discipline** — POSIX callers see only the `-1` return; the
/// actual error lives in errno. Any `crates/preload` function that can
/// return `-1` must set errno on that path (directly via `set_errno` or
/// structurally via `ffi_guard!`, whose helpers map `Err(e)` to errno).
pub fn errno_discipline(ctx: &FileCtx, out: &mut Vec<Finding>) {
    const RULE: &str = "errno-discipline";
    if !in_preload(&ctx.path) {
        return;
    }
    for span in &ctx.fns {
        if span.end <= span.start {
            continue;
        }
        if ctx.line_in_test(span.start) || ctx.suppressed(RULE, span.start) {
            continue;
        }
        let end = span.end.min(ctx.lines.len() - 1);
        let mut returns_minus_one = None;
        let mut sets_errno = false;
        for i in span.start..=end {
            let code = &ctx.lines[i].code;
            if code.contains("set_errno") || code.contains("ffi_guard!") {
                sets_errno = true;
            }
            if returns_minus_one.is_none() && mentions_minus_one(code) {
                returns_minus_one = Some(i);
            }
        }
        if let (Some(i), false) = (returns_minus_one, sets_errno) {
            out.push(
                ctx.finding(
                    RULE,
                    i,
                    "function returns -1 without setting errno anywhere; POSIX \
                 callers will read a stale errno"
                        .to_string(),
                ),
            );
        }
    }
}

/// Does this code line contain a literal `-1` (the POSIX error sentinel)?
pub(crate) fn mentions_minus_one(code: &str) -> bool {
    let b = code.as_bytes();
    (0..b.len().saturating_sub(1)).any(|i| {
        b[i] == b'-'
            && b[i + 1] == b'1'
            && !is_ident_byte(b.get(i + 2).copied().unwrap_or(b' '))
            // exclude arithmetic like `x - 10` handled above, and `n-1`
            // index math is still a -1 … keep it simple: require the char
            // before `-` to not be an identifier byte or digit, so `i-1`
            // (arithmetic) still counts, but `e-12` floats do not.
            && b.get(i + 2).copied() != Some(b'.')
    })
}

/// **relaxed-ordering-audit** — `Ordering::Relaxed` gives no inter-thread
/// ordering at all; each use is correct only for a *reason* (counter-only,
/// single-writer, guarded by an Acquire elsewhere, …). That reason must be
/// written down: a `// relaxed: <why>` comment on the same or previous
/// line, or a full suppression. Applies to the whole workspace.
pub fn relaxed_ordering_audit(ctx: &FileCtx, out: &mut Vec<Finding>) {
    const RULE: &str = "relaxed-ordering-audit";
    for (i, line) in ctx.lines.iter().enumerate() {
        if !line.code.contains("Ordering::Relaxed") {
            continue;
        }
        if ctx.line_in_test(i) || ctx.suppressed(RULE, i) {
            continue;
        }
        let near = ctx.nearby_comments(i);
        let justified = near
            .find("relaxed:")
            .is_some_and(|p| !near[p + "relaxed:".len()..].trim().is_empty());
        if !justified {
            out.push(
                ctx.finding(
                    RULE,
                    i,
                    "Ordering::Relaxed without a `// relaxed: <why>` justification; \
                 say why no ordering is needed here"
                        .to_string(),
                ),
            );
        }
    }
}

/// **lock-across-io** — in `crates/plfs`, holding a mutex/rwlock guard
/// across a backing-store call serializes I/O behind the lock (PR 2 fixed
/// exactly this in the read path's handle cache). Lexically: a guard bound
/// by `let [mut] g = <expr>.lock();` / `.read();` / `.write();` is live
/// until its enclosing block closes or `drop(g)`; any line in that span
/// that mentions `backing` is a finding.
pub fn lock_across_io(ctx: &FileCtx, out: &mut Vec<Finding>) {
    const RULE: &str = "lock-across-io";
    if !in_plfs(&ctx.path) {
        return;
    }
    // (guard name, brace depth at binding) for live guards.
    let mut live: Vec<(String, i32)> = Vec::new();
    let mut depth = 0i32;
    for (i, line) in ctx.lines.iter().enumerate() {
        let code = &line.code;
        let in_test = ctx.line_in_test(i);
        if !in_test {
            if let Some(name) = guard_binding(code) {
                // Recorded at the *current* depth: the binding dies when
                // the block it lives in closes.
                live.push((name, depth));
            }
            for (name, _) in live.clone() {
                if code.contains(&format!("drop({name})")) {
                    live.retain(|(n, _)| *n != name);
                }
            }
            if !live.is_empty()
                && find_word(code, "backing").is_some()
                && !ctx.suppressed(RULE, i)
                && guard_binding(code).is_none()
            {
                let holders: Vec<&str> = live.iter().map(|(n, _)| n.as_str()).collect();
                out.push(ctx.finding(
                    RULE,
                    i,
                    format!(
                        "backing-store call while lock guard `{}` is live; \
                         do the I/O before taking the lock or drop() first",
                        holders.join("`, `")
                    ),
                ));
            }
        }
        for c in code.chars() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    live.retain(|(_, d)| *d <= depth);
                }
                _ => {}
            }
        }
    }
}

/// Parse `let [mut] NAME = <expr>.lock();` (or `.read();` / `.write();`,
/// empty argument lists only, so `file.read(buf)` never matches). Returns
/// the bound name.
pub(crate) fn guard_binding(code: &str) -> Option<String> {
    let let_at = find_word(code, "let")?;
    let rest = &code[let_at + 3..];
    let rest = rest.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        return None;
    }
    let tail = &code[let_at..];
    let locks = [".lock();", ".read();", ".write();", ".lock().unwrap();"];
    if locks.iter().any(|p| tail.contains(p)) {
        Some(name)
    } else {
        None
    }
}

/// **no-direct-backing-io** — every byte `crates/plfs` reads or writes
/// must flow through the `Backing` trait so fault injection (`faults.rs`)
/// and the in-memory backing stay complete. Only `backing.rs` (the trait's
/// real-FS implementation) may touch `std::fs`.
pub fn no_direct_backing_io(ctx: &FileCtx, out: &mut Vec<Finding>) {
    const RULE: &str = "no-direct-backing-io";
    if !in_plfs(&ctx.path) || ctx.path.ends_with("backing.rs") {
        return;
    }
    for (i, line) in ctx.lines.iter().enumerate() {
        if ctx.line_in_test(i) || ctx.suppressed(RULE, i) {
            continue;
        }
        let code = &line.code;
        // `File` at an identifier boundary, so `ReadFile::open` /
        // `WriteFile::open` (the container layer's own types) pass.
        let std_file = find_word(code, "File").is_some_and(|at| {
            code[at..].starts_with("File::open") || code[at..].starts_with("File::create")
        });
        let direct_fs = find_word(code, "fs").is_some_and(|at| code[at..].starts_with("fs::"))
            || code.contains("std::fs")
            || std_file
            || find_word(code, "OpenOptions").is_some();
        if direct_fs {
            out.push(
                ctx.finding(
                    RULE,
                    i,
                    "direct std::fs I/O in crates/plfs bypasses the Backing \
                 abstraction (fault injection, MemBacking); route through \
                 the backing trait"
                        .to_string(),
                ),
            );
        }
    }
}
