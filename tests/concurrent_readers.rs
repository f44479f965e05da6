//! Integration: thread-parallel reads through the PLFS read path.
//!
//! Counterpart to `concurrent_writers.rs`: a many-dropping container is
//! written once, then hammered by N OS threads issuing random preads
//! through one shared `ReadFile` and its sharded handle cache. Every read
//! must be byte-identical to the serially-built reference, whatever
//! interleaving the scheduler picks.

use plfs::{Backing, ContainerParams, LayoutMode, MemBacking, OpenFlags, Plfs, ReadFile};
use std::sync::Arc;

/// Write a strided N-writer pattern and return the expected logical bytes.
/// `writers` pids produce `writers` data droppings (one stream each).
fn build_container(
    backing: &Arc<MemBacking>,
    writers: usize,
    rows: usize,
    block: usize,
) -> Vec<u8> {
    let plfs = Plfs::new(backing.clone()).with_params(ContainerParams {
        num_hostdirs: 4,
        mode: LayoutMode::Both,
    });
    let fd = plfs
        .open("/shared", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    let mut want = vec![0u8; writers * rows * block];
    for r in 0..writers {
        fd.add_ref(r as u64);
        let fill = (r as u8).wrapping_mul(37).wrapping_add(1);
        let data = vec![fill; block];
        for row in 0..rows {
            let off = (row * writers + r) * block;
            plfs.write(&fd, &data, off as u64, r as u64).unwrap();
            want[off..off + block].fill(fill);
        }
    }
    for r in 0..writers {
        let _ = plfs.close(&fd, r as u64);
    }
    plfs.close(&fd, 0).unwrap();
    want
}

/// Tiny deterministic PRNG so each thread gets a reproducible but distinct
/// offset/length sequence.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// N threads share one `ReadFile` and issue random preads; each result
/// must match the reference slice exactly.
fn hammer(rf: &ReadFile, b: &dyn Backing, want: &[u8], threads: usize, reads_per_thread: usize) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let mut rng = 0x9E3779B97F4A7C15u64.wrapping_add(t as u64);
                for _ in 0..reads_per_thread {
                    let off = (xorshift(&mut rng) % (want.len() as u64 + 512)) as usize;
                    let len = 1 + (xorshift(&mut rng) % (64 * 1024)) as usize;
                    let mut buf = vec![0xA5u8; len];
                    let n = rf.pread(b, &mut buf, off as u64).unwrap();
                    let expect: &[u8] = if off < want.len() {
                        &want[off..(off + len).min(want.len())]
                    } else {
                        &[]
                    };
                    assert_eq!(n, expect.len(), "pread length at off={off} len={len}");
                    assert_eq!(&buf[..n], expect, "pread bytes at off={off} len={len}");
                }
            });
        }
    });
}

#[test]
fn random_preads_match_serial_under_sharded_cache() {
    let backing = Arc::new(MemBacking::new());
    let want = build_container(&backing, 8, 16, 4096);
    let rf = ReadFile::open(backing.as_ref(), "/shared").unwrap();
    assert_eq!(
        rf.read_all(backing.as_ref()).unwrap(),
        want,
        "the open must reconstruct the file before we stress it"
    );
    hammer(&rf, backing.as_ref(), &want, 8, 64);
}

#[test]
fn serial_conf_is_unaffected_by_concurrent_callers() {
    let backing = Arc::new(MemBacking::new());
    let want = build_container(&backing, 4, 8, 1024);
    // The read loop itself is serial per call; many threads sharing one
    // reader, more callers than droppings, must still read true bytes.
    let rf = ReadFile::open(backing.as_ref(), "/shared").unwrap();
    hammer(&rf, backing.as_ref(), &want, 8, 32);
}

/// Total ops of `kind` the global trace sink has recorded.
fn traced(kind: iotrace::OpKind) -> u64 {
    let snap = iotrace::global().snapshot();
    snap.entries
        .iter()
        .filter(|e| e.op == kind)
        .map(|e| e.ops)
        .sum()
}

/// Four reader threads and one overwriting writer share one `O_RDWR` fd —
/// and so one read view, patched in place under the fd's view lock. Blocks
/// hold their round number in every word: a reader must never see a torn
/// block, nor a round older than the one the writer's own read of that block
/// had already seen when the reader started. The view is merged once and
/// patched exactly once per write, whichever thread's read gets there first.
/// (No other test in this binary reads through a `PlfsFd`, so the global
/// sink's merge/patch counts are this test's.)
#[test]
fn readers_share_one_view_while_a_writer_patches_it() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const BLOCKS: usize = 64;
    const BLOCK: usize = 512;
    const ROUNDS: u64 = 400;
    const READERS: u64 = 4;
    let block_of = |round: u64| round.to_le_bytes().repeat(BLOCK / 8);

    let plfs = Plfs::new(Arc::new(MemBacking::new()));
    let fd = plfs
        .open("/rw_shared", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    let sink = iotrace::global();
    sink.reset();
    sink.set_enabled(true);
    for k in 0..BLOCKS {
        plfs.write(&fd, &block_of(0), (k * BLOCK) as u64, 0)
            .unwrap();
    }
    let mut buf = vec![0u8; BLOCK];
    assert_eq!(plfs.read(&fd, &mut buf, 0).unwrap(), BLOCK); // the one merge

    // Round the writer's own read has seen, per block.
    let seen: Vec<AtomicU64> = (0..BLOCKS).map(|_| AtomicU64::new(0)).collect();
    let reads = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start = std::sync::Barrier::new(READERS as usize + 1);
    std::thread::scope(|s| {
        for t in 0..READERS {
            let (plfs, fd, seen, reads, done, start) = (&plfs, &fd, &seen, &reads, &done, &start);
            s.spawn(move || {
                let mut rng = 0x9E3779B97F4A7C15u64.wrapping_add(t);
                let mut buf = vec![0u8; BLOCK];
                start.wait();
                while !done.load(Ordering::Acquire) {
                    let k = (xorshift(&mut rng) % BLOCKS as u64) as usize;
                    let floor = seen[k].load(Ordering::Acquire);
                    let n = plfs.read(fd, &mut buf, (k * BLOCK) as u64).unwrap();
                    assert_eq!(n, BLOCK);
                    let round = u64::from_le_bytes(buf[..8].try_into().unwrap());
                    assert!(
                        buf.chunks(8).all(|w| w == &buf[..8]),
                        "torn read of block {k}"
                    );
                    assert!(
                        round >= floor,
                        "stale read of block {k}: round {round} after the writer saw {floor}"
                    );
                    reads.fetch_add(1, Ordering::Release);
                }
            });
        }
        let mut rng = 0xD1B54A32D192ED03u64;
        let mut buf = vec![0u8; BLOCK];
        start.wait();
        for round in 1..=ROUNDS {
            let k = (xorshift(&mut rng) % BLOCKS as u64) as usize;
            plfs.write(&fd, &block_of(round), (k * BLOCK) as u64, 0)
                .unwrap();
            assert_eq!(plfs.read(&fd, &mut buf, (k * BLOCK) as u64).unwrap(), BLOCK);
            assert_eq!(buf, block_of(round), "the writer reads its own write");
            seen[k].store(round, Ordering::Release);
            // Force the interleaving: no round starts before some reader
            // has finished a read since the last one.
            while reads.load(Ordering::Acquire) < round {
                std::thread::yield_now();
            }
        }
        done.store(true, Ordering::Release);
    });
    sink.set_enabled(false);
    assert_eq!(
        traced(iotrace::OpKind::IndexMerge),
        1,
        "concurrent readers must not force a re-merge"
    );
    assert_eq!(
        traced(iotrace::OpKind::IndexPatch),
        ROUNDS,
        "one in-place patch per read-after-write"
    );
}
