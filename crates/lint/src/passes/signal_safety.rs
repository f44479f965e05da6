//! **signal-safety** — allocation/re-entrancy discipline before dlsym-next
//! resolution in `crates/preload`.
//!
//! The classic LD_PRELOAD failure: an interposed wrapper runs *before* it
//! has resolved the next-in-chain symbol, and on that path it allocates
//! (the allocator may itself be interposed, or may take a lock the
//! interrupted thread already holds), formats, takes a guard, or calls
//! back into another interposed symbol — recursing into the shim and
//! deadlocking the host application. This pass walks the call graph from
//! every interposed symbol — each name of a row of the preload's symbol
//! table ([`crate::table`]), whose fortify check and class run before its
//! passthrough and whose body runs after it — and checks the whole region
//! that executes before the first next-symbol resolution (`next::NAME`, a
//! row's `next` binding or passthrough), across calls.
//!
//! Escape hatch, mirroring `// relaxed:`: a `// signal-safe: <why>`
//! comment on (or just above) a function's `fn` line vouches for the
//! function and everything it calls; the walk does not descend further.
//! Single-statement temporary guards (`sh.table.read().get(…)`) are
//! allowed — they drop at the semicolon and protect shim-private state
//! that no signal handler can hold.

use crate::callgraph::Graph;
use crate::Finding;
use std::collections::HashSet;

pub(crate) fn run(graph: &Graph, out: &mut Vec<Finding>) {
    const RULE: &str = "signal-safety";
    // Interposed entry points — the rows of the preload's symbol table —
    // are the roots, and also the symbols that must not be re-entered from
    // a hazard region.
    let interposed: HashSet<&str> = graph
        .fns
        .iter()
        .filter(|f| graph.interposed(f))
        .map(|f| f.name.as_str())
        .collect();
    let mut worklist: Vec<usize> = (0..graph.fns.len())
        .filter(|&i| graph.interposed(&graph.fns[i]))
        .collect();
    let mut visited: HashSet<usize> = worklist.iter().copied().collect();

    while let Some(fi) = worklist.pop() {
        let f = &graph.fns[fi];
        let ctx = &graph.ctxs[f.file];
        if annotated_signal_safe(graph, fi) {
            continue; // vouched for, do not descend
        }
        // The hazard region: every line before the first event that
        // resolves the next-in-chain symbol. A function that never
        // resolves is hazardous throughout.
        let boundary = f
            .events
            .iter()
            .position(|e| e.calls_next)
            .unwrap_or(f.events.len());
        for e in &f.events[..boundary] {
            if ctx.line_in_test(e.line) || ctx.suppressed(RULE, e.line) {
                continue;
            }
            if let Some(pat) = e.alloc {
                out.push(ctx.finding(
                    RULE,
                    e.line,
                    format!(
                        "`{pat}` allocates/formats on a path reachable from an \
                         interposed entry point before dlsym-next resolution; \
                         hoist the resolution or annotate the function with \
                         `// signal-safe: <why>`"
                    ),
                ));
            }
            if e.acquires.iter().any(|(_, binding)| *binding) {
                out.push(
                    ctx.finding(
                        RULE,
                        e.line,
                        "lock guard bound before dlsym-next resolution on an \
                     interposition path; a handler interrupting the holder \
                     re-enters and deadlocks — resolve first"
                            .to_string(),
                    ),
                );
            }
            for c in &e.calls {
                if !c.method && interposed.contains(c.name.as_str()) {
                    out.push(ctx.finding(
                        RULE,
                        e.line,
                        format!(
                            "calls interposed symbol `{}` before dlsym-next \
                             resolution — this recurses into the shim",
                            c.name
                        ),
                    ));
                }
                if let Some(g) = graph.resolve(fi, c) {
                    if visited.insert(g) {
                        worklist.push(g);
                    }
                }
            }
        }
    }
}

/// `// signal-safe: <why>` on the `fn` line or within the three lines
/// above it (above any `#[no_mangle]` / attribute stack).
fn annotated_signal_safe(graph: &Graph, fi: usize) -> bool {
    let f = &graph.fns[fi];
    let ctx = &graph.ctxs[f.file];
    ctx.lines[f.start.saturating_sub(3)..=f.start]
        .iter()
        .any(|l| {
            l.comment
                .find("signal-safe:")
                .is_some_and(|at| !l.comment[at + "signal-safe:".len()..].trim().is_empty())
        })
}
