//! **symbol-coverage** — the preload alias-family matrix.
//!
//! glibc resolves `open64`, `openat`, `pread64`, `preadv64v2`, … as
//! *separate* dynamic symbols: interposing `open` alone means any
//! LFS-built application (`-D_FILE_OFFSET_BITS=64`) silently bypasses the
//! shim through the `64` twin — no error, just wrong data placement. This
//! pass keeps a declarative matrix of alias families and cross-checks it
//! against the `#[no_mangle] extern "C"` functions actually defined in
//! `crates/preload`:
//!
//! * a defined symbol that is not in the matrix at all is a finding
//!   (extend [`FAMILIES`] when interposing something new);
//! * a family with at least one member defined must have *every* member
//!   defined;
//! * strict twins (same signature, same semantics — `open`/`open64`) must
//!   dispatch to the same `do_*` helper, so the aliases cannot drift.
//!
//! Families the shim deliberately does not cover are listed as
//! single-member entries with the rationale in the table comment (`fork`
//! is covered by `pthread_atfork` handlers, not interposition; `exec*`
//! drops the preload by design when the environment is scrubbed).

use crate::callgraph::Graph;
use crate::Finding;
use std::collections::BTreeMap;

/// Alias families: if any member is interposed, all must be. Extend this
/// table (and, for `64`-twins, [`TWINS`]) when interposing a new symbol.
const FAMILIES: &[&[&str]] = &[
    &["open", "open64", "openat", "openat64"],
    &["creat"],
    // The `_chk` members are what `_FORTIFY_SOURCE` builds call instead:
    // the reserved fd holds no data, so a bypassing read sees EOF.
    &["read", "__read_chk"],
    &["write"],
    &["pread", "pread64", "__pread_chk", "__pread64_chk"],
    &["pwrite", "pwrite64"],
    &["readv"],
    &["writev"],
    &["preadv", "preadv64"],
    &["pwritev", "pwritev64"],
    &["preadv2", "preadv64v2"],
    &["pwritev2", "pwritev64v2"],
    &["lseek", "lseek64"],
    &["close"],
    // `close`'s range forms: one that bypasses the shim leaves a freed
    // number registered (the next file to take it reads the container), or
    // the template's number naming another file.
    &["close_range", "closefrom"],
    &["fsync", "fdatasync"],
    &["dup", "dup2", "dup3"],
    // `F_DUPFD`/`F_DUPFD_CLOEXEC` are dups too (`File::try_clone` is one):
    // a missing twin hands out a descriptor of the empty reserved fd.
    &["fcntl", "fcntl64"],
    &["stat", "stat64"],
    &["lstat", "lstat64"],
    &["fstat", "fstat64"],
    &["fstatat", "newfstatat"],
    &["statx"],
    &["unlink", "unlinkat"],
    &["access"],
    &["mkdir"],
    &["rmdir"],
    &["truncate", "truncate64"],
    &["ftruncate", "ftruncate64"],
    &["fopen", "fopen64", "fdopen"],
    // I/O the kernel would do on the (empty) reserved fd itself.
    &["mmap", "mmap64"],
    &["copy_file_range"],
    &["sendfile", "sendfile64"],
    &["splice"],
    // Deliberately single-member, not interposed. fork: the shim's
    // `pthread_atfork` handlers do its part — the parent writes its index
    // buffers; the child, waiting on no lock, forgets the cached pid,
    // counts the fork, moves the fd table to a fresh lock if a parent
    // thread was reading it and takes cursor slots from a page of its own,
    // and adopts each inherited open at its first call on it, while the
    // cursors, in MAP_SHARED pages, stay shared as kernel file offsets are.
    // vfork's child may only exec or _exit. exec* inheriting the shim is
    // environment policy, not interposition.
    &["fork"],
    &["vfork"],
    &["execve"],
];

/// Strict alias twins: identical contract, so they must route through the
/// same `do_*` dispatcher.
const TWINS: &[&[&str]] = &[
    &["open", "open64"],
    &["openat", "openat64"],
    &["pread", "pread64"],
    &["__pread_chk", "__pread64_chk"],
    &["pwrite", "pwrite64"],
    &["preadv", "preadv64"],
    &["pwritev", "pwritev64"],
    &["preadv2", "preadv64v2"],
    &["pwritev2", "pwritev64v2"],
    &["lseek", "lseek64"],
    &["stat", "stat64"],
    &["lstat", "lstat64"],
    &["fstat", "fstat64"],
    &["fstatat", "newfstatat"],
    &["truncate", "truncate64"],
    &["ftruncate", "ftruncate64"],
    &["fopen", "fopen64"],
    &["fsync", "fdatasync"],
    &["mmap", "mmap64"],
    &["sendfile", "sendfile64"],
    &["fcntl", "fcntl64"],
];

pub(crate) fn run(graph: &Graph, out: &mut Vec<Finding>) {
    const RULE: &str = "symbol-coverage";
    // name → fn index of the interposed entry points actually defined.
    let defined: BTreeMap<&str, usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            f.no_mangle
                && f.is_extern_c
                && !f.in_test
                && crate::rules::in_preload(&graph.ctxs[f.file].path)
        })
        .map(|(i, f)| (f.name.as_str(), i))
        .collect();
    if defined.is_empty() {
        return;
    }
    let in_matrix = |name: &str| FAMILIES.iter().any(|fam| fam.contains(&name));

    // (a) Every defined entry point must appear in the matrix.
    for (name, &fi) in &defined {
        if !in_matrix(name) {
            let f = &graph.fns[fi];
            let ctx = &graph.ctxs[f.file];
            if !ctx.suppressed(RULE, f.start) {
                out.push(ctx.finding(
                    RULE,
                    f.start,
                    format!(
                        "interposed symbol `{name}` is not in the symbol-coverage \
                         matrix; add its alias family to FAMILIES in \
                         crates/lint/src/passes/symbol_matrix.rs"
                    ),
                ));
            }
        }
    }

    // (b) A partially-defined family is a silent-bypass hole.
    for fam in FAMILIES {
        let present: Vec<&str> = fam
            .iter()
            .copied()
            .filter(|m| defined.contains_key(m))
            .collect();
        if present.is_empty() || present.len() == fam.len() {
            continue;
        }
        let missing: Vec<&str> = fam
            .iter()
            .copied()
            .filter(|m| !defined.contains_key(m))
            .collect();
        let anchor = &graph.fns[defined[present[0]]];
        let ctx = &graph.ctxs[anchor.file];
        if !ctx.suppressed(RULE, anchor.start) {
            out.push(ctx.finding(
                RULE,
                anchor.start,
                format!(
                    "alias family {{{}}} is incompletely interposed: missing `{}` — \
                     calls through the missing alias silently bypass the shim",
                    fam.join(", "),
                    missing.join("`, `")
                ),
            ));
        }
    }

    // (c) Strict twins must share a `do_*` dispatcher.
    for twins in TWINS {
        let dispatchers: Vec<(&str, usize, Option<String>)> = twins
            .iter()
            .copied()
            .filter_map(|m| defined.get(m).map(|&fi| (m, fi, dispatcher(graph, fi))))
            .collect();
        if dispatchers.len() < 2 {
            continue;
        }
        let first = &dispatchers[0];
        for other in &dispatchers[1..] {
            if other.2 != first.2 {
                let f = &graph.fns[other.1];
                let ctx = &graph.ctxs[f.file];
                if !ctx.suppressed(RULE, f.start) {
                    out.push(ctx.finding(
                        RULE,
                        f.start,
                        format!(
                            "alias `{}` dispatches to {} but its twin `{}` \
                             dispatches to {} — strict aliases must share one \
                             do_* helper so they cannot drift",
                            other.0,
                            fmt_dispatch(&other.2),
                            first.0,
                            fmt_dispatch(&first.2),
                        ),
                    ));
                }
            }
        }
    }
}

/// The first `do_*` call in a wrapper body — its dispatcher.
fn dispatcher(graph: &Graph, fi: usize) -> Option<String> {
    graph.fns[fi]
        .events
        .iter()
        .flat_map(|e| e.calls.iter())
        .find(|c| !c.method && c.name.starts_with("do_"))
        .map(|c| c.name.clone())
}

fn fmt_dispatch(d: &Option<String>) -> String {
    match d {
        Some(name) => format!("`{name}`"),
        None => "no do_* helper".to_string(),
    }
}
