//! Integration: thread-parallel reads through the PLFS read path.
//!
//! Counterpart to `concurrent_writers.rs`: a many-dropping container is
//! written once, then hammered by N OS threads issuing random preads
//! through one shared `ReadFile` and its sharded handle cache. Every read
//! must be byte-identical to the serially-built reference, whatever
//! interleaving the scheduler picks.

use plfs::{Backing, ContainerParams, MemBacking, OpenFlags, Plfs, ReadFile};
use std::sync::{Arc, Mutex, MutexGuard};

/// The tests of this binary take turns: the global trace sink's counts and
/// the process write clock, whose stamps decide whether an overwrite is
/// already in a view, are shared by every thread of the process.
fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Write a strided N-writer pattern and return the expected logical bytes.
/// `writers` pids produce `writers` data droppings (one stream each).
fn build_container(
    backing: &Arc<MemBacking>,
    writers: usize,
    rows: usize,
    block: usize,
) -> Vec<u8> {
    let plfs = Plfs::new(backing.clone()).with_params(ContainerParams { num_hostdirs: 4 });
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
    let _turn = turn();
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
    let _turn = turn();
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
/// and so one read view. Blocks hold their round number in every word: a
/// reader must never see a torn block, nor a round older than the one the
/// writer's own read of that block had already seen when the reader
/// started. The file is filled by pid 0; with `cross_writers` each round
/// writes its block as the pid that did not write it last. Returns the
/// index merges and patches the global sink counted.
fn readers_beside_an_overwriter(
    blocks: usize,
    block: usize,
    rounds: u64,
    cross_writers: bool,
) -> (u64, u64) {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    const READERS: u64 = 4;
    let block_of = |round: u64| round.to_le_bytes().repeat(block / 8);

    let plfs = Plfs::new(Arc::new(MemBacking::new()));
    let fd = plfs
        .open("/rw_shared", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    fd.add_ref(1);
    let sink = iotrace::global();
    sink.reset();
    sink.set_enabled(true);
    for k in 0..blocks {
        plfs.write(&fd, &block_of(0), (k * block) as u64, 0)
            .unwrap();
    }
    let mut buf = vec![0u8; block];
    assert_eq!(plfs.read(&fd, &mut buf, 0).unwrap(), block); // the one merge

    // Round the writer's own read has seen, per block.
    let seen: Vec<AtomicU64> = (0..blocks).map(|_| AtomicU64::new(0)).collect();
    let reads = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let start = std::sync::Barrier::new(READERS as usize + 1);
    std::thread::scope(|s| {
        for t in 0..READERS {
            let (plfs, fd, seen, reads, done, start) = (&plfs, &fd, &seen, &reads, &done, &start);
            s.spawn(move || {
                let mut rng = 0x9E3779B97F4A7C15u64.wrapping_add(t);
                let mut buf = vec![0u8; block];
                start.wait();
                while !done.load(Ordering::Acquire) {
                    let k = (xorshift(&mut rng) % blocks as u64) as usize;
                    let floor = seen[k].load(Ordering::Acquire);
                    let n = plfs.read(fd, &mut buf, (k * block) as u64).unwrap();
                    assert_eq!(n, block);
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
        let mut buf = vec![0u8; block];
        let mut last_pid = vec![0u64; blocks];
        start.wait();
        for round in 1..=rounds {
            let k = (xorshift(&mut rng) % blocks as u64) as usize;
            if cross_writers {
                last_pid[k] = 1 - last_pid[k];
            }
            plfs.write(&fd, &block_of(round), (k * block) as u64, last_pid[k])
                .unwrap();
            assert_eq!(plfs.read(&fd, &mut buf, (k * block) as u64).unwrap(), block);
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
    (
        traced(iotrace::OpKind::IndexMerge),
        traced(iotrace::OpKind::IndexPatch),
    )
}

/// Every overwrite lands on a block the other pid wrote last, so none can
/// go in place: each appends, and the view is patched in place under the
/// fd's view lock exactly once per write, whichever thread's read gets
/// there first.
#[test]
fn readers_share_one_view_while_a_writer_patches_it() {
    let _turn = turn();
    const ROUNDS: u64 = 400;
    let (merges, patches) = readers_beside_an_overwriter(64, 512, ROUNDS, true);
    assert_eq!(merges, 1, "concurrent readers must not force a re-merge");
    assert_eq!(patches, ROUNDS, "one in-place patch per read-after-write");
}

/// The writer overwrites its own 64 KiB blocks: each goes in place, under
/// the view lock held exclusively, and is already in the view it was
/// written through, so no read ever patches it.
#[test]
fn readers_share_one_view_while_a_writer_overwrites_in_place() {
    let _turn = turn();
    let (merges, patches) = readers_beside_an_overwriter(16, 64 << 10, 200, false);
    assert_eq!(merges, 1, "concurrent readers must not force a re-merge");
    assert_eq!(patches, 0, "an in-place overwrite leaves the view current");
}
