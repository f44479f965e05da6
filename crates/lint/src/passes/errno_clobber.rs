//! **errno-clobber** — dataflow between errno and the libc return value.
//!
//! Two contracts in `crates/preload`:
//!
//! 1. After `set_errno(E)`, the function must reach its `-1` return with
//!    errno intact. Any intervening call that can clobber errno — a call of
//!    a next definition (`next::NAME`, a row's `next` binding), a callee
//!    that transitively makes one — silently replaces the error the caller
//!    will read.
//! 2. When a wrapper captures a next-in-chain return (`let new =
//!    next::dup(fd);`) and later returns it, the bookkeeping in between
//!    must not clobber errno either, or the host sees the right `-1` with
//!    the wrong errno. Only same-depth statements are checked: bookkeeping
//!    nested under `if new >= 0 { … }` runs on the success path, where
//!    errno is dead.

use crate::callgraph::{Graph, LineEvent};
use crate::Finding;

pub(crate) fn run(graph: &Graph, out: &mut Vec<Finding>) {
    const RULE: &str = "errno-clobber";
    let clobbers = graph.transitive_errno_clobber();

    for (fi, f) in graph.fns.iter().enumerate() {
        let ctx = &graph.ctxs[f.file];
        if f.in_test || !crate::rules::in_preload(&ctx.path) {
            continue;
        }
        let clobber_call = |e: &LineEvent| -> Option<String> {
            if e.calls_next {
                return Some("a next-definition call".to_string());
            }
            e.calls
                .iter()
                .find(|c| graph.resolve(fi, c).is_some_and(|g| clobbers[g]))
                .map(|c| format!("`{}`", c.name))
        };

        // Contract 1: set_errno → … → -1.
        for (ei, e) in f.events.iter().enumerate() {
            if !e.sets_errno || e.minus_one || ctx.line_in_test(e.line) {
                continue;
            }
            let d = e.depth;
            for ev in &f.events[ei + 1..] {
                if ev.depth < d {
                    break; // left the error-handling block
                }
                if ev.sets_errno {
                    break; // a fresh set_errno starts its own region
                }
                if let Some(what) = clobber_call(ev) {
                    if !ctx.suppressed(RULE, ev.line) {
                        out.push(ctx.finding(
                            RULE,
                            ev.line,
                            format!(
                                "{what} may clobber errno between set_errno \
                                 (line {}) and the -1 return",
                                e.line + 1
                            ),
                        ));
                    }
                    break;
                }
                if ev.minus_one {
                    break; // reached the return with errno intact
                }
            }
        }

        // Contract 2: let ret = real_x(…); … ; ret
        for (ei, e) in f.events.iter().enumerate() {
            let Some(name) = e.let_name.as_deref() else {
                continue;
            };
            if !e.calls_next || ctx.line_in_test(e.line) {
                continue;
            }
            let d = e.depth;
            for ev in &f.events[ei + 1..] {
                if ev.depth < d {
                    break;
                }
                let t = ctx.lines[ev.line].code.trim();
                let returned = t == name
                    || t == format!("return {name};")
                    || t == format!("{name} as c_int")
                    || t.strip_prefix("return ").map(str::trim_end) == Some(&format!("{name};"));
                if returned {
                    break; // value reached the caller unclobbered
                }
                if ev.depth == d {
                    if let Some(what) = clobber_call(ev) {
                        if !ctx.suppressed(RULE, ev.line) {
                            out.push(ctx.finding(
                                RULE,
                                ev.line,
                                format!(
                                    "{what} may clobber errno between capturing \
                                     `{name}` from the next-in-chain call (line {}) \
                                     and returning it",
                                    e.line + 1
                                ),
                            ));
                        }
                        break;
                    }
                }
            }
        }
    }
}
