//! Property test: the fd's long-lived, patched-in-place read view.
//!
//! Random interleavings of write / append / overwrite / zero-length write /
//! read / sync / ftruncate-to-0 across 1–4 pids on one `O_RDWR` fd. After
//! every read the bytes equal an in-memory model; and wherever the index
//! records have been flushed (a `deep` read syncs every pid first — which
//! must not feed the view the same entries twice), the patched view equals a
//! freshly merged `ReadFile::open` of the same container: same EOF, same
//! segments, and a dropping table the fresh one contains. The fresh merge in turn — the one
//! open there is, runs merged by `from_sorted_runs` — equals the reference
//! builder `GlobalIndex::from_entries` fed every decoded entry, and reads
//! back the model's bytes.

use plfs::{GlobalIndex, MemBacking, OpenFlags, Plfs, PlfsFd, ReadFile};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Write { pid: u64, off: u64, data: Vec<u8> },
    Append { pid: u64, data: Vec<u8> },
    Read { off: u64, len: usize, deep: bool },
    Sync { pid: u64 },
    Truncate,
}

fn ops(pids: u64, len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    // Lengths start at 0: a zero-length write must change nothing.
    let data = || prop::collection::vec(any::<u8>(), 0..96);
    let write =
        || (0..pids, 0u64..2048, data()).prop_map(|(pid, off, data)| Op::Write { pid, off, data });
    let read = || {
        (0u64..2304, 1usize..512, any::<bool>()).prop_map(|(off, len, deep)| Op::Read {
            off,
            len,
            deep,
        })
    };
    // Writes and reads listed twice: the choice is uniform over the arms.
    prop::collection::vec(
        prop_oneof![
            write(),
            write(),
            (0..pids, data()).prop_map(|(pid, data)| Op::Append { pid, data }),
            read(),
            read(),
            (0..pids).prop_map(|pid| Op::Sync { pid }),
            Just(Op::Truncate),
        ],
        len,
    )
}

/// `(logical, length, data dropping path, physical)` per segment: dropping
/// ids are positions, and a patched view appends where a fresh merge sorts.
fn segments(r: &ReadFile) -> Vec<(u64, u64, String, u64)> {
    r.index()
        .iter_segments()
        .map(|(lo, len, id, phys)| (lo, len, r.droppings()[id as usize].data_path.clone(), phys))
        .collect()
}

/// The reference index of the container `fresh` was opened on: every
/// decoded entry, concatenated, inserted one at a time in timestamp order.
fn reference_index(backing: &MemBacking, fresh: &ReadFile) -> GlobalIndex {
    let runs = plfs::container::read_index_runs(backing, fresh.droppings()).unwrap();
    GlobalIndex::from_entries(runs.concat())
}

fn assert_view_equals_fresh_merge(backing: &MemBacking, fd: &PlfsFd, pids: u64, model: &[u8]) {
    for pid in 0..pids {
        fd.sync(pid).unwrap();
    }
    let fresh = ReadFile::open(backing, fd.container_path()).unwrap();
    let reference = reference_index(backing, &fresh);
    assert_eq!(fresh.eof(), reference.eof(), "open vs reference: eof");
    assert_eq!(
        fresh.index().raw_entries(),
        reference.raw_entries(),
        "open vs reference: entries"
    );
    assert_eq!(
        fresh.index().iter_segments().collect::<Vec<_>>(),
        reference.iter_segments().collect::<Vec<_>>(),
        "open vs reference: segments"
    );
    assert_eq!(
        fresh.read_all(backing).unwrap(),
        model,
        "fresh open's bytes"
    );
    fd.with_view(|view| {
        assert_eq!(view.eof(), fresh.eof(), "eof");
        assert_eq!(segments(view), segments(&fresh), "segments");
        for d in view.droppings() {
            assert!(
                fresh.droppings().iter().any(|f| f.data_path == d.data_path),
                "patched view names a dropping the container lacks: {d:?}"
            );
        }
    })
    .unwrap();
}

fn run(ops: &[Op], pids: u64) {
    let backing = Arc::new(MemBacking::new());
    let plfs = Plfs::new(backing.clone());
    let fd = plfs
        .open("/f", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    for pid in 1..pids {
        fd.add_ref(pid);
    }
    let mut model: Vec<u8> = Vec::new();
    for op in ops {
        match op {
            Op::Write { pid, off, data } => {
                assert_eq!(plfs.write(&fd, data, *off, *pid).unwrap(), data.len());
                if !data.is_empty() {
                    let end = *off as usize + data.len();
                    if model.len() < end {
                        model.resize(end, 0);
                    }
                    model[*off as usize..end].copy_from_slice(data);
                }
            }
            Op::Append { pid, data } => {
                let (off, n) = fd.append(data, *pid).unwrap();
                assert_eq!((off, n), (model.len() as u64, data.len()));
                model.extend_from_slice(data);
            }
            Op::Read { off, len, deep } => {
                let mut buf = vec![0xA5u8; *len];
                let n = plfs.read(&fd, &mut buf, *off).unwrap();
                let want: &[u8] = model
                    .get(*off as usize..(*off as usize + len).min(model.len()))
                    .unwrap_or(&[]);
                assert_eq!(&buf[..n], want, "read({off}, {len})");
                if *deep {
                    assert_view_equals_fresh_merge(&backing, &fd, pids, &model);
                }
            }
            Op::Sync { pid } => plfs.sync(&fd, *pid).unwrap(),
            Op::Truncate => {
                // What the shim's ftruncate(fd, 0) does.
                fd.reset_writers().unwrap();
                plfs.trunc("/f", 0).unwrap();
                model.clear();
            }
        }
    }
    assert_eq!(fd.size().unwrap(), model.len() as u64);
    assert_view_equals_fresh_merge(&backing, &fd, pids, &model);
    assert_eq!(
        fd.with_view(|v| v.read_all(backing.as_ref()))
            .unwrap()
            .unwrap(),
        model
    );
}

/// Bind every op's pid to one of the first `pids`.
fn for_pids(ops: Vec<Op>, pids: u64) -> Vec<Op> {
    ops.into_iter()
        .map(|op| match op {
            Op::Write { pid, off, data } => Op::Write {
                pid: pid % pids,
                off,
                data,
            },
            Op::Append { pid, data } => Op::Append {
                pid: pid % pids,
                data,
            },
            Op::Sync { pid } => Op::Sync { pid: pid % pids },
            op => op,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn patched_view_equals_fresh_merge_and_model(pids in 1u64..5, ops in ops(4, 1..48)) {
        run(&for_pids(ops, pids), pids);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Long runs without a truncate, so one view takes well over the 64
    /// patched entries past which its index folds the overlay into the
    /// base: folds land between patches and reads, and the view still
    /// equals a fresh merge and the model.
    #[test]
    fn patched_view_survives_folds(pids in 1u64..5, ops in ops(4, 300..400)) {
        let ops = ops.into_iter().filter(|op| !matches!(op, Op::Truncate)).collect();
        run(&for_pids(ops, pids), pids);
    }
}
