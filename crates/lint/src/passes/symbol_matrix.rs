//! **symbol-coverage** — the preload's C surface is its symbol table.
//!
//! glibc resolves `open64`, `__open_2`, `pread64`, `preadv64v2`, … as
//! *separate* dynamic symbols: interposing `open` alone means an LFS-built
//! (`-D_FILE_OFFSET_BITS=64`) or fortified application silently bypasses
//! the shim through another spelling — no error, just wrong data placement.
//! `crates/preload` therefore declares every interposed symbol as a name in
//! a row of its `interpose!` table ([`crate::table`]), which generates the
//! `extern "C"` function, its next definition, the latch forward and the
//! panic barrier for each: twins cannot drift, and adding an alias is one
//! name. This pass keeps the surface in the table: a `#[no_mangle]
//! extern "C"` function written out by hand in `crates/preload` is a
//! finding — declare it as a row.
//!
//! Which suffix and prefix spellings a name has is glibc's to say, not a
//! list's: the preload's `every_glibc_spelling_of_a_row_is_interposed`
//! test asks the dynamic loader for them, and checks the table's
//! not-interposed list against the built library.

use crate::callgraph::Graph;
use crate::Finding;

pub(crate) fn run(graph: &Graph, out: &mut Vec<Finding>) {
    const RULE: &str = "symbol-coverage";
    for f in graph.fns.iter().filter(|f| !f.row && graph.interposed(f)) {
        let ctx = &graph.ctxs[f.file];
        if !ctx.suppressed(RULE, f.start) {
            let message = format!(
                "interposed symbol `{}` is written out by hand; declare it as a \
                 row of the `interpose!` symbol table, or a name in its family's row",
                f.name
            );
            out.push(ctx.finding(RULE, f.start, message));
        }
    }
}
