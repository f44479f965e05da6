//! Property tests: a cache-enabled mount is observationally equivalent to
//! a `meta_cache_entries: 0` mount (the escape hatch that disables the
//! container metadata cache) over arbitrary metadata op sequences.
//!
//! Each side runs the identical sequence against its own in-memory
//! backing; after every op the outcome summaries must match, and at the
//! end the full observable surface (access / is_container / getattr /
//! readdir) must agree path by path. Any stale cached verdict — a missed
//! invalidation on unlink, rename, truncate, mkdir/rmdir, or a create
//! racing its own probe — shows up as a divergence.

use plfs::{Conf, Error, MemBacking, OpenFlags, Plfs};
use proptest::prelude::*;
use std::sync::Arc;

/// One generated metadata op over a small fixed namespace.
#[derive(Debug, Clone)]
enum Op {
    /// Open for write (creating), write `len` bytes at `off`, close.
    Write {
        path: usize,
        off: u64,
        len: usize,
    },
    Create {
        path: usize,
        excl: bool,
    },
    Unlink {
        path: usize,
    },
    Rename {
        from: usize,
        to: usize,
    },
    Trunc {
        path: usize,
        len: u64,
    },
    Mkdir {
        path: usize,
    },
    Rmdir {
        path: usize,
    },
    Getattr {
        path: usize,
    },
    Access {
        path: usize,
    },
    Readdir,
}

// Nested paths matter: renaming /a must invalidate cached verdicts for
// /a/x too (a flat namespace once let a rename resurrect descendants).
const PATHS: [&str; 5] = ["/a", "/b", "/c", "/a/x", "/b/x"];

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..10, 0usize..PATHS.len(), 0usize..PATHS.len(), 0u64..512).prop_map(
            |(kind, p, q, n)| match kind {
                0 => Op::Write {
                    path: p,
                    off: n,
                    len: (q + 1) * 17,
                },
                1 => Op::Create {
                    path: p,
                    excl: n % 2 == 0,
                },
                2 => Op::Unlink { path: p },
                3 => Op::Rename { from: p, to: q },
                4 => Op::Trunc { path: p, len: n },
                5 => Op::Mkdir { path: p },
                6 => Op::Rmdir { path: p },
                7 => Op::Getattr { path: p },
                8 => Op::Access { path: p },
                _ => Op::Readdir,
            },
        ),
        1..max,
    )
}

/// Collapse a `Result` into a comparable summary. Errors compare by
/// variant (both sides name the same paths, so `Debug` is stable too, but
/// the variant alone keeps the assertion readable).
fn verdict<T>(r: Result<T, Error>, ok: impl FnOnce(T) -> String) -> String {
    match r {
        Ok(v) => ok(v),
        Err(e) => format!("err:{}", variant(&e)),
    }
}

fn variant(e: &Error) -> String {
    format!("{e:?}")
        .split(['(', ' '])
        .next()
        .unwrap_or("?")
        .to_string()
}

fn apply(p: &Plfs, op: &Op) -> String {
    match *op {
        Op::Write { path, off, len } => {
            let path = PATHS[path];
            match p.open(path, OpenFlags::RDWR | OpenFlags::CREAT, 1) {
                Ok(fd) => {
                    let w = p.write(&fd, &vec![0xC3u8; len], off, 1);
                    let c = p.close(&fd, 1);
                    format!(
                        "w:{}:{}",
                        verdict(w, |n| n.to_string()),
                        verdict(c, |n| n.to_string())
                    )
                }
                Err(e) => format!("w:err:{}", variant(&e)),
            }
        }
        Op::Create { path, excl } => verdict(p.create(PATHS[path], excl), |_| "ok".into()),
        Op::Unlink { path } => verdict(p.unlink(PATHS[path]), |_| "ok".into()),
        Op::Rename { from, to } => verdict(p.rename(PATHS[from], PATHS[to]), |_| "ok".into()),
        Op::Trunc { path, len } => verdict(p.trunc(PATHS[path], len), |_| "ok".into()),
        Op::Mkdir { path } => verdict(p.mkdir(PATHS[path]), |_| "ok".into()),
        Op::Rmdir { path } => verdict(p.rmdir(PATHS[path]), |_| "ok".into()),
        Op::Getattr { path } => verdict(p.getattr(PATHS[path]), |st| {
            format!("sz={},dir={}", st.size, st.is_dir)
        }),
        Op::Access { path } => verdict(p.access(PATHS[path]), |_| "ok".into()),
        Op::Readdir => verdict(p.readdir("/"), |mut d| {
            d.sort_by(|a, b| a.name.cmp(&b.name));
            d.iter()
                .map(|e| format!("{}:{}", e.name, e.is_dir))
                .collect::<Vec<_>>()
                .join(",")
        }),
    }
}

/// The full observable surface of one path, for the end-state comparison.
fn observe(p: &Plfs, path: &str) -> String {
    format!(
        "access={} container={} stat={}",
        p.access(path).is_ok(),
        p.is_container(path),
        verdict(p.getattr(path), |st| format!("{}:{}", st.size, st.is_dir)),
    )
}

fn run_equivalence(ops: &[Op], cached_conf: Conf) {
    let cached = Plfs::new(Arc::new(MemBacking::new())).with_conf(cached_conf);
    let serial = Plfs::new(Arc::new(MemBacking::new())).with_conf(Conf {
        meta_cache_entries: 0,
        ..Conf::default()
    });
    for (i, op) in ops.iter().enumerate() {
        let c = apply(&cached, op);
        let s = apply(&serial, op);
        prop_assert_eq!(c, s, "op {} diverged: {:?}", i, op);
    }
    for path in PATHS {
        prop_assert_eq!(
            observe(&cached, path),
            observe(&serial, path),
            "end state diverged at {}",
            path
        );
    }
    let (hits, misses) = cached.meta_cache_counters();
    prop_assert!(
        hits + misses > 0,
        "the cached side never consulted the cache — the property is vacuous"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Default conf (cache on, eager markers) ≡ serial conf.
    #[test]
    fn cached_mount_equivalent_to_serial(ops in ops(24)) {
        run_equivalence(&ops, Conf::default());
    }
}
