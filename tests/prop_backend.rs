//! Property tests: the real file-system backing is observationally
//! equivalent to the in-memory one. Any op sequence run through `Plfs` over
//! `RealBacking` must read back the same logical bytes AND leave the same
//! container on the backend as over `MemBacking` — same file tree,
//! byte-identical droppings (index records compared with the process-global
//! write clock normalized out, since absolute stamps depend on what else
//! ran in the process).

use plfs::{Backing, IndexEntry, MemBacking, OpenFlags, Plfs, RealBacking};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const FILES: [&str; 2] = ["/ckpt", "/ckpt2"];

/// One generated op: (file index, writer pid, logical offset, payload).
type Op = (usize, u64, u64, Vec<u8>);

fn workloads() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            0usize..FILES.len(),
            0u64..3,
            // Offsets overlap deliberately so later writes shadow earlier
            // ones and the index has real overlap-resolution work to do.
            0u64..1024,
            prop::collection::vec(any::<u8>(), 1..128),
        ),
        1..24,
    )
}

/// Run the op sequence and close every file, then return each file's
/// logical bytes read back through a fresh open.
fn run_workload(plfs: &Plfs, ops: &[Op]) -> Vec<Vec<u8>> {
    let used: BTreeSet<usize> = ops.iter().map(|op| op.0).collect();
    let mut fds = BTreeMap::new();
    let mut pids: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
    for &i in &used {
        fds.insert(
            i,
            plfs.open(FILES[i], OpenFlags::RDWR | OpenFlags::CREAT, 0)
                .unwrap(),
        );
    }
    for (i, pid, off, data) in ops {
        let fd = &fds[i];
        if pids.entry(*i).or_default().insert(*pid) {
            fd.add_ref(*pid);
        }
        assert_eq!(plfs.write(fd, data, *off, *pid).unwrap(), data.len());
    }
    for (&i, fd) in &fds {
        for &pid in &pids[&i] {
            let _ = plfs.close(fd, pid);
        }
        let _ = plfs.close(fd, 0);
    }
    FILES
        .iter()
        .enumerate()
        .map(|(i, path)| {
            if !used.contains(&i) {
                return Vec::new();
            }
            let fd = plfs.open(path, OpenFlags::RDONLY, 0).unwrap();
            let size = fd.size().unwrap() as usize;
            let mut buf = vec![0u8; size];
            if size > 0 {
                assert_eq!(plfs.read(&fd, &mut buf, 0).unwrap(), size);
            }
            plfs.close(&fd, 0).unwrap();
            buf
        })
        .collect()
}

fn read_file(b: &dyn Backing, path: &str) -> Vec<u8> {
    let f = b.open(path, false).unwrap();
    let size = f.size().unwrap() as usize;
    let mut data = vec![0u8; size];
    let mut read = 0;
    while read < size {
        let n = f.pread(&mut data[read..], read as u64).unwrap();
        assert!(n > 0, "short read walking {path}");
        read += n;
    }
    data
}

fn walk(b: &dyn Backing, dir: &str, out: &mut BTreeMap<String, Vec<u8>>) {
    for name in b.readdir(dir).unwrap() {
        let child = if dir == "/" {
            format!("/{name}")
        } else {
            format!("{dir}/{name}")
        };
        if b.stat(&child).unwrap().is_dir {
            walk(b, &child, out);
        } else {
            out.insert(child.clone(), read_file(b, &child));
        }
    }
}

/// The container tree as seen through a backend, with index droppings
/// re-encoded timestamp-free: the write clock is process-global, so two
/// identical workloads get different absolute stamps (and possibly
/// different pattern-compression luck); everything else must be
/// byte-identical.
fn normalized_tree(b: &dyn Backing) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    walk(b, "/", &mut files);
    files
        .into_iter()
        .map(|(path, bytes)| {
            let bytes = if path.contains("dropping.index") {
                let mut out = Vec::new();
                for mut e in IndexEntry::decode_all(&bytes).expect("decodable index") {
                    e.timestamp = 0;
                    e.encode(&mut out);
                }
                out
            } else {
                bytes
            };
            (path, bytes)
        })
        .collect()
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> std::path::PathBuf {
    // relaxed: uniqueness of the counter is all that matters
    let n = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("prop-backend-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The real backing produces the same logical bytes and the same
    /// normalized container tree as the in-memory one.
    #[test]
    fn backends_produce_identical_containers(ops in workloads()) {
        // Reference: the direct synchronous path.
        let mem = Arc::new(MemBacking::new());
        let reference = run_workload(&Plfs::new(mem.clone()), &ops);
        let ref_tree = normalized_tree(mem.as_ref());

        // Real file system.
        let dir = scratch_dir();
        let real = Arc::new(RealBacking::new(&dir).unwrap());
        prop_assert_eq!(&run_workload(&Plfs::new(real.clone()), &ops), &reference);
        prop_assert_eq!(&normalized_tree(real.as_ref()), &ref_tree);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
