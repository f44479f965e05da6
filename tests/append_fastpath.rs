//! Integration: trace-verified O(1) append fast path.
//!
//! PR 3's contract for `O_APPEND` workloads: resolving EOF for an append
//! costs one relaxed atomic `fetch_add`, never an index merge. These tests
//! turn the global trace sink on and assert on the recorded op mix — a run
//! of appends must emit zero `index_merge` ops (only
//! `append_fastpath`), and interleaving reads with appends must stay
//! read-your-writes while refreshing the cached reader by `index_patch`
//! rather than re-merging every dropping.
//!
//! The global sink is process-wide state, so the tests serialize on a
//! static mutex and scope `set_enabled` to their own run.

use iotrace::OpKind;
use ldplfs::{set_virtual_pid, LdPlfsBuilder, OpenFlags, PosixLayer, RealPosix};
use plfs::{MemBacking, Plfs};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Serialize tests that mutate the process-global trace sink.
fn trace_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn shim(tag: &str) -> Arc<ldplfs::LdPlfs> {
    let dir = std::env::temp_dir().join(format!("ldplfs-append-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let under = Arc::new(RealPosix::rooted(dir).unwrap());
    Arc::new(
        LdPlfsBuilder::new(under)
            .mount("/plfs", Plfs::new(Arc::new(MemBacking::new())))
            .build()
            .unwrap(),
    )
}

/// Total recorded ops of `kind` across all layers.
fn ops_of(kind: OpKind) -> u64 {
    iotrace::global()
        .snapshot()
        .entries
        .iter()
        .filter(|e| e.op == kind)
        .map(|e| e.ops)
        .sum()
}

#[test]
fn o_append_run_emits_zero_index_merges() {
    let _g = trace_lock();
    let shim = shim("nomerge");
    set_virtual_pid(100);
    let sink = iotrace::global();
    sink.reset();
    sink.set_enabled(true);

    // A whole O_APPEND lifecycle under tracing: create, append, stat,
    // close, reopen (EOF re-seeded from the on-disk index), append again.
    let flags = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::APPEND;
    let fd = shim.open("/plfs/log", flags, 0o644).unwrap();
    for i in 0..64u64 {
        assert_eq!(shim.write(fd, &[i as u8; 32]).unwrap(), 32);
        // fstat of an open append fd answers from the cached atomic EOF.
        assert_eq!(shim.fstat(fd).unwrap().size, (i + 1) * 32);
    }
    shim.close(fd).unwrap();
    let fd = shim
        .open("/plfs/log", OpenFlags::WRONLY | OpenFlags::APPEND, 0o644)
        .unwrap();
    for _ in 0..16 {
        assert_eq!(shim.write(fd, b"tail-bytes").unwrap(), 10);
    }
    shim.close(fd).unwrap();
    assert_eq!(shim.stat("/plfs/log").unwrap().size, 64 * 32 + 16 * 10);

    sink.set_enabled(false);
    assert_eq!(
        ops_of(OpKind::IndexMerge),
        0,
        "appends and stats must not trigger an index merge"
    );
    assert_eq!(
        ops_of(OpKind::AppendFastpath),
        80,
        "every O_APPEND write takes the atomic-EOF fast path"
    );
}

#[test]
fn interleaved_append_and_read_stays_read_your_writes() {
    let _g = trace_lock();
    let shim = shim("interleave");
    set_virtual_pid(200);
    let sink = iotrace::global();
    sink.reset();
    sink.set_enabled(true);

    let flags = OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::APPEND;
    let fd = shim.open("/plfs/journal", flags, 0o644).unwrap();
    let mut model = Vec::new();
    for i in 0..24u64 {
        let chunk = vec![b'a' + (i % 26) as u8; 17 + (i as usize % 5)];
        assert_eq!(shim.write(fd, &chunk).unwrap(), chunk.len());
        model.extend_from_slice(&chunk);
        // Every append must be visible to an immediate read of the whole
        // file through the same shim.
        let mut got = vec![0u8; model.len()];
        let mut done = 0;
        while done < got.len() {
            let n = shim.pread(fd, &mut got[done..], done as u64).unwrap();
            assert!(n > 0, "short read at {done} of {}", got.len());
            done += n;
        }
        assert_eq!(got, model, "read after append {i} lost bytes");
    }
    shim.close(fd).unwrap();

    sink.set_enabled(false);
    let merges = ops_of(OpKind::IndexMerge);
    assert!(
        merges <= 1,
        "only the first read may build the index from scratch (saw {merges} merges)"
    );
    assert!(
        ops_of(OpKind::IndexPatch) >= 1,
        "later reads refresh the cached index incrementally"
    );
    assert_eq!(ops_of(OpKind::AppendFastpath), 24);
}
