//! Property test: the fd's long-lived, patched-in-place read view.
//!
//! Random interleavings of write / rewrite / append / overwrite /
//! zero-length write / read / sync / ftruncate-to-0 across 1–4 pids on one
//! `O_RDWR` fd, or on two. A rewrite writes the range of an earlier write
//! again, as the same pid through the same fd: where that fd's view still
//! holds the range as the pid's own bytes it goes in place, which the run
//! counts by the data droppings not growing. After every read through an
//! fd, the bytes its own writes were the last to touch equal an in-memory
//! model (with one fd: every byte). Wherever the index records have been
//! flushed (a `deep` read syncs every pid of every fd first — which must
//! not feed a view the same entries twice), a freshly merged
//! `ReadFile::open` of the container reads back the model, and the view of
//! an fd no other fd has written beside equals it: same EOF, same
//! segments, and a dropping table the fresh one contains. The fresh merge
//! in turn — the one open there is, runs merged by `from_sorted_runs` —
//! equals the reference builder `GlobalIndex::from_entries` fed every
//! decoded entry.

use plfs::{Backing, GlobalIndex, MemBacking, OpenFlags, Plfs, PlfsFd, ReadFile};
use proptest::prelude::*;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Write {
        fd: usize,
        pid: u64,
        off: u64,
        data: Vec<u8>,
    },
    /// Write the range of the `pick`th earlier write again, filled with
    /// `byte` upward.
    Rewrite {
        pick: usize,
        byte: u8,
    },
    Append {
        fd: usize,
        pid: u64,
        data: Vec<u8>,
    },
    Read {
        fd: usize,
        off: u64,
        len: usize,
        deep: bool,
    },
    Sync {
        pid: u64,
    },
    Truncate,
}

fn ops(pids: u64, len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Op>> {
    // Lengths start at 0: a zero-length write must change nothing.
    let data = || prop::collection::vec(any::<u8>(), 0..96);
    let write = || {
        (0..2usize, 0..pids, 0u64..2048, data()).prop_map(|(fd, pid, off, data)| Op::Write {
            fd,
            pid,
            off,
            data,
        })
    };
    let read = || {
        (0..2usize, 0u64..2304, 1usize..512, any::<bool>())
            .prop_map(|(fd, off, len, deep)| Op::Read { fd, off, len, deep })
    };
    // Writes and reads listed twice: the choice is uniform over the arms.
    prop::collection::vec(
        prop_oneof![
            write(),
            write(),
            (0usize..1024, any::<u8>()).prop_map(|(pick, byte)| Op::Rewrite { pick, byte }),
            (0..2usize, 0..pids, data()).prop_map(|(fd, pid, data)| Op::Append { fd, pid, data }),
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

/// Bytes in every data dropping of `container`: what an in-place
/// overwrite leaves unchanged and an appended one grows.
fn data_bytes(b: &dyn Backing, container: &str) -> u64 {
    let mut total = 0;
    let mut dirs = vec![container.to_string()];
    while let Some(dir) = dirs.pop() {
        for name in b.readdir(&dir).unwrap() {
            let path = format!("{dir}/{name}");
            if name.starts_with("hostdir.") {
                dirs.push(path);
            } else if name.starts_with("dropping.data.") {
                total += b.stat(&path).unwrap().size;
            }
        }
    }
    total
}

/// What the file should hold, and which fd wrote each byte last.
#[derive(Default)]
struct Model {
    bytes: Vec<u8>,
    owner: Vec<Option<usize>>,
    /// Per fd: has another fd written since the last truncate?
    foreign: Vec<bool>,
    /// `(fd, pid, offset, length)` of every non-empty write, for rewrites.
    writes: Vec<(usize, u64, u64, usize)>,
}

impl Model {
    fn write(&mut self, fd: usize, pid: u64, off: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let (start, end) = (off as usize, off as usize + data.len());
        if self.bytes.len() < end {
            self.bytes.resize(end, 0);
            self.owner.resize(end, None);
        }
        self.bytes[start..end].copy_from_slice(data);
        self.owner[start..end].fill(Some(fd));
        for (other, foreign) in self.foreign.iter_mut().enumerate() {
            *foreign |= other != fd;
        }
        self.writes.push((fd, pid, off, data.len()));
    }

    fn truncate(&mut self) {
        self.bytes.clear();
        self.owner.clear();
        self.foreign.fill(false);
        self.writes.clear();
    }

    /// Check what a read of `len` bytes at `off` through `fd` returned
    /// (`got`): with one fd all of it, else the bytes `fd` wrote last —
    /// another fd's writes reach its view only through a merge.
    fn check_read(&self, fd: usize, off: u64, len: usize, got: &[u8]) {
        let (off, model) = (off as usize, &self.bytes);
        if self.foreign.len() == 1 {
            let want = model.get(off..(off + len).min(model.len())).unwrap_or(&[]);
            assert_eq!(got, want, "read({off}, {len})");
            return;
        }
        let span = off.min(model.len())..(off + len).min(model.len());
        let owned = self.owner[span.clone()].iter().zip(&model[span]);
        for (i, (owner, want)) in (off..).zip(owned) {
            if *owner == Some(fd) {
                assert_eq!(
                    got.get(i - off),
                    Some(want),
                    "fd {fd} read({off}, {len}) at {i}"
                );
            }
        }
    }
}

fn assert_views_equal_fresh_merge(
    backing: &MemBacking,
    fds: &[Arc<PlfsFd>],
    pids: u64,
    model: &Model,
) {
    for fd in fds {
        for pid in 0..pids {
            fd.sync(pid).unwrap();
        }
    }
    let fresh = ReadFile::open(backing, fds[0].container_path()).unwrap();
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
        model.bytes,
        "fresh open's bytes"
    );
    for (fd, _) in fds
        .iter()
        .zip(&model.foreign)
        .filter(|(_, &foreign)| !foreign)
    {
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
}

/// Run `ops` through `fds` fds of one container; returns how many writes
/// went in place.
fn run(ops: &[Op], pids: u64, fds: usize) -> u64 {
    let backing = Arc::new(MemBacking::new());
    let plfs = Plfs::new(backing.clone());
    let fds: Vec<Arc<PlfsFd>> = (0..fds)
        .map(|_| {
            let fd = plfs
                .open("/f", OpenFlags::RDWR | OpenFlags::CREAT, 0)
                .unwrap();
            for pid in 1..pids {
                fd.add_ref(pid);
            }
            fd
        })
        .collect();
    let container = fds[0].container_path().to_string();
    let mut model = Model {
        foreign: vec![false; fds.len()],
        ..Model::default()
    };
    let mut in_place = 0;
    for op in ops {
        let (fd, pid, off, data) = match op {
            Op::Write { fd, pid, off, data } => (*fd, *pid, *off, data.clone()),
            Op::Rewrite { pick, byte } => {
                let Some(&(fd, pid, off, len)) = model.writes.get(pick % model.writes.len().max(1))
                else {
                    continue;
                };
                let data = (0..len).map(|i| byte.wrapping_add(i as u8)).collect();
                (fd, pid, off, data)
            }
            Op::Append { fd, pid, data } => {
                let (off, n) = fds[*fd].append(data, *pid).unwrap();
                assert_eq!(n, data.len());
                if fds.len() == 1 {
                    assert_eq!(off, model.bytes.len() as u64);
                }
                model.write(*fd, *pid, off, data);
                continue;
            }
            Op::Read { fd, off, len, deep } => {
                let mut buf = vec![0xA5u8; *len];
                let n = plfs.read(&fds[*fd], &mut buf, *off).unwrap();
                model.check_read(*fd, *off, *len, &buf[..n]);
                if *deep {
                    assert_views_equal_fresh_merge(&backing, &fds, pids, &model);
                }
                continue;
            }
            Op::Sync { pid } => {
                for fd in &fds {
                    plfs.sync(fd, *pid).unwrap();
                }
                continue;
            }
            Op::Truncate => {
                // What the shim's ftruncate(fd, 0) does, for every fd.
                for fd in &fds {
                    fd.reset_writers().unwrap();
                }
                plfs.trunc("/f", 0).unwrap();
                model.truncate();
                continue;
            }
        };
        let before = data_bytes(backing.as_ref(), &container);
        assert_eq!(plfs.write(&fds[fd], &data, off, pid).unwrap(), data.len());
        if !data.is_empty() && data_bytes(backing.as_ref(), &container) == before {
            in_place += 1;
        }
        model.write(fd, pid, off, &data);
    }
    if fds.len() == 1 {
        assert_eq!(fds[0].size().unwrap(), model.bytes.len() as u64);
    }
    assert_views_equal_fresh_merge(&backing, &fds, pids, &model);
    for (fd, _) in fds
        .iter()
        .zip(&model.foreign)
        .filter(|(_, &foreign)| !foreign)
    {
        assert_eq!(
            fd.with_view(|v| v.read_all(backing.as_ref()))
                .unwrap()
                .unwrap(),
            model.bytes
        );
    }
    in_place
}

/// Bind every op's pid to one of the first `pids` and its fd to one of the
/// first `fds`.
fn bound(ops: Vec<Op>, pids: u64, fds: usize) -> Vec<Op> {
    ops.into_iter()
        .map(|op| match op {
            Op::Write { fd, pid, off, data } => Op::Write {
                fd: fd % fds,
                pid: pid % pids,
                off,
                data,
            },
            Op::Append { fd, pid, data } => Op::Append {
                fd: fd % fds,
                pid: pid % pids,
                data,
            },
            Op::Read { fd, off, len, deep } => Op::Read {
                fd: fd % fds,
                off,
                len,
                deep,
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
        run(&bound(ops, pids, 1), pids, 1);
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
        run(&bound(ops, pids, 1), pids, 1);
    }
}

/// A second `O_RDWR` fd on the same container, written and read beside the
/// first: a fresh merge still reads back the model, whichever fd wrote
/// last and whether or not its write went in place. The suite must have
/// made in-place writes, or it tested nothing of them. (Cases are drawn by
/// hand, as the `proptest!` body has no way to report a count across its
/// cases.)
#[test]
fn a_second_fd_beside_in_place_writes() {
    use proptest::test_runner::Rng;
    const CASES: u32 = 96;
    let strategy = (1u64..5, ops(4, 1..64));
    let mut rng = Rng::from_name(concat!(
        module_path!(),
        "::a_second_fd_beside_in_place_writes"
    ));
    let mut in_place = 0;
    for case in 1..=CASES {
        let (pids, ops) = strategy.generate(&mut rng);
        let ops = bound(ops, pids, 2);
        let outcome = std::panic::catch_unwind(|| run(&ops, pids, 2));
        match outcome {
            Ok(n) => in_place += n,
            Err(panic) => {
                eprintln!("case {case}/{CASES} failed: pids = {pids}; ops = {ops:?}");
                std::panic::resume_unwind(panic);
            }
        }
    }
    eprintln!("{in_place} in-place writes over {CASES} cases");
    assert!(in_place > 0, "{CASES} cases made no in-place write");
}
