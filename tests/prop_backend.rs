//! Property tests: the pluggable scale-out backends are observationally
//! equivalent to the direct synchronous path. Any op sequence run through
//! `Plfs` over `RealBacking`, `BatchedBacking` or `TieredBacking` (after
//! drain) must read back the same logical bytes AND leave the same container on the backend — same file tree, byte-identical
//! droppings (index records compared with the process-global write clock
//! normalized out, since absolute stamps depend on what else ran in the
//! process). Plus the crash-shaped guarantee: a writer dying mid-destage
//! leaves reads serving the intact fast-tier copy.

use plfs::{
    Backing, BatchedBacking, Conf, IndexEntry, MemBacking, OpenFlags, Plfs, RealBacking,
    TieredBacking,
};
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

/// Run the op sequence and close every file (close seals droppings, which
/// is what arms tiered destage), then return each file's logical bytes
/// read back through a fresh open.
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

fn conf() -> Conf {
    Conf {
        submit_depth: plfs::conf::DEFAULT_SUBMIT_DEPTH,
        ..Conf::default()
    }
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

    /// Every backend composition produces the same logical bytes and the
    /// same normalized container tree as the direct in-memory path.
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

        // Batched submission over memory: drain, then the inner tree must
        // match what the synchronous path wrote.
        let inner = Arc::new(MemBacking::new());
        let batched = Arc::new(BatchedBacking::new(
            inner.clone() as Arc<dyn Backing>,
            &conf(),
        ));
        prop_assert_eq!(
            &run_workload(&Plfs::new(batched.clone() as Arc<dyn Backing>), &ops),
            &reference
        );
        batched.drain().unwrap();
        prop_assert_eq!(&normalized_tree(inner.as_ref()), &ref_tree);

        // Tiered burst buffer: after drain the union view across both
        // tiers is the reference container (the tier map itself is hidden).
        let tiered = Arc::new(TieredBacking::new(
            Arc::new(MemBacking::new()),
            Arc::new(MemBacking::new()),
            &conf(),
        ));
        prop_assert_eq!(
            &run_workload(&Plfs::new(tiered.clone() as Arc<dyn Backing>), &ops),
            &reference
        );
        tiered.drain();
        prop_assert_eq!(tiered.tier_stats().destage_errors, 0);
        prop_assert_eq!(&normalized_tree(tiered.as_ref()), &ref_tree);
    }

    /// Knobs off, `BatchedBacking` is pure passthrough: no worker ever
    /// runs and the inner tree is identical to the synchronous path's.
    #[test]
    fn knobs_off_batched_is_byte_identical_passthrough(ops in workloads()) {
        let mem = Arc::new(MemBacking::new());
        let reference = run_workload(&Plfs::new(mem.clone()), &ops);
        let inner = Arc::new(MemBacking::new());
        let passthrough = Arc::new(BatchedBacking::new(
            inner.clone() as Arc<dyn Backing>,
            &Conf::default(),
        ));
        prop_assert_eq!(
            &run_workload(&Plfs::new(passthrough.clone() as Arc<dyn Backing>), &ops),
            &reference
        );
        prop_assert_eq!(passthrough.batches(), 0, "no deferred batch may run");
        prop_assert_eq!(&normalized_tree(inner.as_ref()), &normalized_tree(mem.as_ref()));
    }
}

/// A writer dying between the slow-tier copy and the fast-tier unlink
/// leaves the path on both tiers, the slow copy possibly torn. Reads
/// through a fresh tiered mount must come from the intact fast copy.
#[test]
fn crash_mid_destage_reads_serve_fast_copy() {
    let fast = Arc::new(MemBacking::new());
    let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
    {
        let plfs = Plfs::new(fast.clone());
        let fd = plfs
            .open("/ckpt", OpenFlags::RDWR | OpenFlags::CREAT, 0)
            .unwrap();
        plfs.write(&fd, &payload, 0, 0).unwrap();
        plfs.close(&fd, 0).unwrap();
    }
    // Replicate the container skeleton on the slow tier with every data
    // dropping truncated to half: the state a mid-copy crash leaves.
    let slow = Arc::new(MemBacking::new());
    let mut files = BTreeMap::new();
    walk(fast.as_ref(), "/", &mut files);
    for (path, bytes) in &files {
        let parent = &path[..path.rfind('/').unwrap().max(1)];
        slow.mkdir_all(parent).unwrap();
        let torn = if path.contains("dropping.data") {
            &bytes[..bytes.len() / 2]
        } else {
            &bytes[..]
        };
        let f = slow.create(path, true).unwrap();
        f.pwrite(torn, 0).unwrap();
    }
    let tiered = Arc::new(TieredBacking::new(fast, slow, &conf()));
    let plfs = Plfs::new(tiered.clone() as Arc<dyn Backing>);
    let fd = plfs.open("/ckpt", OpenFlags::RDONLY, 0).unwrap();
    let mut buf = vec![0u8; payload.len()];
    assert_eq!(plfs.read(&fd, &mut buf, 0).unwrap(), payload.len());
    assert_eq!(buf, payload, "fast copy must win over the torn slow copy");
    assert!(tiered.tier_stats().tier_hits > 0);
}

/// The creator's close over a tiered mount: its index dropping is renamed
/// while still fast-resident, then sealed under the new name — both
/// droppings destage, and the closed name is the one the slow tier keeps.
#[test]
fn creators_renamed_index_destages_under_its_closed_name() {
    let (fast, slow) = (Arc::new(MemBacking::new()), Arc::new(MemBacking::new()));
    let tiered = Arc::new(TieredBacking::new(fast.clone(), slow.clone(), &conf()));
    let plfs = Plfs::new(tiered.clone() as Arc<dyn Backing>);
    let fd = plfs
        .open("/ckpt", OpenFlags::WRONLY | OpenFlags::CREAT, 7)
        .unwrap();
    plfs.write(&fd, &[5u8; 300], 0, 7).unwrap();
    assert!(fast.exists("/ckpt/dropping.index.7.0"));
    plfs.close(&fd, 7).unwrap();
    tiered.drain();
    assert_eq!(tiered.tier_stats().destage_errors, 0);
    let mut resident = tiered.slow_resident();
    resident.sort();
    assert_eq!(
        resident,
        [
            "/ckpt/dropping.data.7.0",
            "/ckpt/dropping.index.7.0.300.300"
        ]
    );
    assert!(!fast.exists("/ckpt/dropping.index.7.0.300.300"));
    let st = Plfs::new(tiered.clone() as Arc<dyn Backing>)
        .getattr("/ckpt")
        .unwrap();
    assert_eq!((st.size, st.physical_bytes), (300, 300));
}
