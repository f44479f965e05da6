//! Property tests: the data block cache and adaptive readahead are
//! observationally invisible. Any op sequence — overlapping writes, reads
//! clamped at EOF, noncontiguous list-I/O reads — run through a `Plfs`
//! with the cache and readahead enabled must observe byte-identical
//! results to the same sequence with the cache off (the default), over every
//! backend kind (direct memory, real file system, batched submission,
//! tiered burst buffer, object store) and with the memory-bounded index.
//!
//! The cached configuration is deliberately hostile: tiny blocks so reads
//! straddle block boundaries, a tiny byte budget so LRU eviction churns,
//! and an aggressive readahead ramp so prefetch runs constantly.

use plfs::{
    Backing, BatchedBacking, Conf, MemBacking, ObjectBacking, OpenFlags, Plfs, RealBacking,
    TieredBacking,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const FILES: [&str; 2] = ["/ckpt", "/ckpt2"];

#[derive(Clone, Debug)]
enum Op {
    /// Overlapping positional write.
    Write {
        file: usize,
        pid: u64,
        off: u64,
        data: Vec<u8>,
    },
    /// Positional read; offsets run past EOF so short reads and
    /// past-the-end clamps are exercised.
    Read { file: usize, off: u64, len: usize },
    /// Noncontiguous gather read (list I/O probes the cache per extent).
    ReadList {
        file: usize,
        extents: Vec<(u64, u64)>,
    },
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let write = (
        0usize..FILES.len(),
        0u64..3,
        0u64..2048,
        prop::collection::vec(any::<u8>(), 1..256),
    )
        .prop_map(|(file, pid, off, data)| Op::Write {
            file,
            pid,
            off,
            data,
        });
    let read = (0usize..FILES.len(), 0u64..4096, 1usize..600)
        .prop_map(|(file, off, len)| Op::Read { file, off, len });
    let read_list = (
        0usize..FILES.len(),
        prop::collection::vec((0u64..4096, 1u64..256), 1..5),
    )
        .prop_map(|(file, extents)| Op::ReadList { file, extents });
    prop::collection::vec(prop_oneof![write, read, read_list], 1..24)
}

/// Everything a reader can observe: per-read return values and buffers,
/// then each file's final logical image read through a fresh open.
fn observe(plfs: &Plfs, ops: &[Op]) -> Vec<(usize, Vec<u8>)> {
    let used: BTreeSet<usize> = ops
        .iter()
        .map(|op| match op {
            Op::Write { file, .. } | Op::Read { file, .. } | Op::ReadList { file, .. } => *file,
        })
        .collect();
    let mut fds = BTreeMap::new();
    let mut pids: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
    for &i in &used {
        fds.insert(
            i,
            plfs.open(FILES[i], OpenFlags::RDWR | OpenFlags::CREAT, 0)
                .unwrap(),
        );
    }
    let mut seen = Vec::new();
    for op in ops {
        match op {
            Op::Write {
                file,
                pid,
                off,
                data,
            } => {
                let fd = &fds[file];
                if pids.entry(*file).or_default().insert(*pid) {
                    fd.add_ref(*pid);
                }
                assert_eq!(plfs.write(fd, data, *off, *pid).unwrap(), data.len());
            }
            Op::Read { file, off, len } => {
                let mut buf = vec![0u8; *len];
                let n = plfs.read(&fds[file], &mut buf, *off).unwrap();
                seen.push((n, buf));
            }
            Op::ReadList { file, extents } => {
                let need: u64 = extents.iter().map(|&(_, l)| l).sum();
                let mut buf = vec![0u8; need as usize];
                let n = fds[file].read_list(&mut buf, extents).unwrap();
                seen.push((n, buf));
            }
        }
    }
    for (&i, fd) in &fds {
        if let Some(ps) = pids.get(&i) {
            for &pid in ps {
                let _ = plfs.close(fd, pid);
            }
        }
        let _ = plfs.close(fd, 0);
    }
    for &i in &used {
        let fd = plfs.open(FILES[i], OpenFlags::RDONLY, 0).unwrap();
        let size = fd.size().unwrap() as usize;
        let mut buf = vec![0u8; size];
        if size > 0 {
            assert_eq!(plfs.read(&fd, &mut buf, 0).unwrap(), size);
        }
        plfs.close(&fd, 0).unwrap();
        seen.push((size, buf));
    }
    seen
}

/// A hostile cache: tiny blocks, an eviction-churning budget, constant
/// readahead.
fn hostile_cache() -> Conf {
    Conf {
        data_cache_bytes: 2048,
        data_cache_block_bytes: 512,
        readahead_min: 1024,
        readahead_max: 4096,
        lock_shards: 1,
        ..Conf::default()
    }
}

/// Two submit workers over the default queue depth.
fn queue_conf() -> Conf {
    Conf {
        submit_depth: plfs::conf::DEFAULT_SUBMIT_DEPTH,
        submit_workers: 2,
        ..Conf::default()
    }
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> std::path::PathBuf {
    // relaxed: uniqueness of the counter is all that matters
    let n = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("prop-cache-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cached and uncached observations are identical over every backend
    /// kind.
    #[test]
    fn cached_reads_are_invisible_across_backends(workload in ops()) {
        // Reference: uncached direct memory path.
        let reference = observe(
            &Plfs::new(Arc::new(MemBacking::new())),
            &workload,
        );

        // Cached direct memory.
        let cached = observe(
            &Plfs::new(Arc::new(MemBacking::new())).with_conf(hostile_cache()),
            &workload,
        );
        prop_assert_eq!(&cached, &reference);

        // Cached over the real file system.
        let dir = scratch_dir();
        let real = Arc::new(RealBacking::new(&dir).unwrap());
        prop_assert_eq!(
            &observe(&Plfs::new(real).with_conf(hostile_cache()), &workload),
            &reference
        );
        std::fs::remove_dir_all(&dir).unwrap();

        // Cached over batched submission.
        let batched: Arc<dyn Backing> = Arc::new(BatchedBacking::new(
            Arc::new(MemBacking::new()),
            &queue_conf(),
        ));
        prop_assert_eq!(
            &observe(&Plfs::new(batched).with_conf(hostile_cache()), &workload),
            &reference
        );

        // Cached over the tiered burst buffer.
        let tiered: Arc<dyn Backing> = Arc::new(TieredBacking::new(
            Arc::new(MemBacking::new()),
            Arc::new(MemBacking::new()),
            &queue_conf(),
        ));
        prop_assert_eq!(
            &observe(&Plfs::new(tiered).with_conf(hostile_cache()), &workload),
            &reference
        );

        // Cached over the object store.
        let object: Arc<dyn Backing> =
            Arc::new(ObjectBacking::over(Arc::new(MemBacking::new())));
        prop_assert_eq!(
            &observe(&Plfs::new(object).with_conf(hostile_cache()), &workload),
            &reference
        );

        // Cached on top of the memory-bounded merged index.
        let bounded = Plfs::new(Arc::new(MemBacking::new())).with_conf(Conf {
            index_memory_bytes: 4096,
            ..hostile_cache()
        });
        prop_assert_eq!(&observe(&bounded, &workload), &reference);
    }
}
