//! Integration: real thread-parallel N-to-1 writes through the shim.
//!
//! The paper's core workload — N processes checkpointing into one logical
//! file — exercised with actual OS threads (scoped), each with
//! its own virtual pid, all funnelled through one `LdPlfs` instance into
//! one container. The result must be complete and byte-correct, and the
//! container must show the N-stream structure of Figure 1.

use ldplfs::{set_virtual_pid, LdPlfsBuilder, OpenFlags, PosixLayer, RealPosix};
use plfs::{MemBacking, Plfs};
use proptest::prelude::*;
use std::sync::Arc;

fn shim(tag: &str) -> (Arc<ldplfs::LdPlfs>, Arc<MemBacking>) {
    let dir = std::env::temp_dir().join(format!("ldplfs-conc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let under = Arc::new(RealPosix::rooted(dir).unwrap());
    let backing = Arc::new(MemBacking::new());
    let shim = Arc::new(
        LdPlfsBuilder::new(under)
            .mount("/plfs", Plfs::new(backing.clone()))
            .build()
            .unwrap(),
    );
    (shim, backing)
}

/// rank r writes the byte pattern `r` into its strided slots.
fn expected(ranks: usize, rows: usize, block: usize) -> Vec<u8> {
    let mut out = vec![0u8; ranks * rows * block];
    for row in 0..rows {
        for r in 0..ranks {
            let start = (row * ranks + r) * block;
            out[start..start + block].fill(r as u8 + 1);
        }
    }
    out
}

#[test]
fn strided_checkpoint_from_threads() {
    let (shim, _backing) = shim("strided");
    let ranks = 8usize;
    let rows = 16usize;
    let block = 1024usize;

    std::thread::scope(|scope| {
        for r in 0..ranks {
            let shim = shim.clone();
            scope.spawn(move || {
                set_virtual_pid(1000 + r as u64);
                let fd = shim
                    .open("/plfs/ckpt", OpenFlags::WRONLY | OpenFlags::CREAT, 0o644)
                    .unwrap();
                let data = vec![r as u8 + 1; block];
                for row in 0..rows {
                    let off = ((row * ranks + r) * block) as u64;
                    assert_eq!(shim.pwrite(fd, &data, off).unwrap(), block);
                }
                shim.close(fd).unwrap();
            });
        }
    });

    // Read back through the shim (fresh fd) and compare.
    let fd = shim.open("/plfs/ckpt", OpenFlags::RDONLY, 0).unwrap();
    let want = expected(ranks, rows, block);
    let mut got = vec![0u8; want.len()];
    let mut done = 0;
    while done < got.len() {
        let n = shim.pread(fd, &mut got[done..], done as u64).unwrap();
        assert!(n > 0, "short file: got only {done} bytes");
        done += n;
    }
    shim.close(fd).unwrap();
    assert_eq!(got, want);
}

#[test]
fn container_shows_one_stream_per_writer() {
    let (shim, backing) = shim("streams");
    let ranks = 6;
    std::thread::scope(|scope| {
        for r in 0..ranks {
            let shim = shim.clone();
            scope.spawn(move || {
                set_virtual_pid(2000 + r as u64);
                let fd = shim
                    .open("/plfs/f", OpenFlags::WRONLY | OpenFlags::CREAT, 0o644)
                    .unwrap();
                shim.pwrite(fd, &[r as u8; 64], r as u64 * 64).unwrap();
                shim.close(fd).unwrap();
            });
        }
    });

    // Figure 1: n writers → n data droppings (plus indices), spread over
    // hostdirs.
    let droppings = plfs::container::list_droppings(backing.as_ref(), "/f").unwrap();
    assert_eq!(droppings.len(), ranks, "one data dropping per writer pid");
    for d in &droppings {
        assert!(d.index_path.is_some(), "each data dropping has its index");
    }
}

#[test]
fn mixed_readers_and_writers() {
    let (shim, _) = shim("mixed");
    // Phase 1: writers fill disjoint regions.
    std::thread::scope(|scope| {
        for r in 0..4usize {
            let shim = shim.clone();
            scope.spawn(move || {
                set_virtual_pid(3000 + r as u64);
                let fd = shim
                    .open("/plfs/shared", OpenFlags::WRONLY | OpenFlags::CREAT, 0o644)
                    .unwrap();
                shim.pwrite(fd, &[0x40 + r as u8; 256], r as u64 * 256)
                    .unwrap();
                shim.close(fd).unwrap();
            });
        }
    });
    // Phase 2: concurrent readers each verify a region written by another
    // thread.
    std::thread::scope(|scope| {
        for r in 0..4usize {
            let shim = shim.clone();
            scope.spawn(move || {
                set_virtual_pid(4000 + r as u64);
                let fd = shim.open("/plfs/shared", OpenFlags::RDONLY, 0).unwrap();
                let peer = (r + 1) % 4;
                let mut buf = [0u8; 256];
                assert_eq!(shim.pread(fd, &mut buf, peer as u64 * 256).unwrap(), 256);
                assert!(buf.iter().all(|&b| b == 0x40 + peer as u8));
                shim.close(fd).unwrap();
            });
        }
    });
}

#[test]
fn many_files_concurrently() {
    let (shim, _) = shim("manyfiles");
    std::thread::scope(|scope| {
        for r in 0..8usize {
            let shim = shim.clone();
            scope.spawn(move || {
                set_virtual_pid(5000 + r as u64);
                for k in 0..5 {
                    let path = format!("/plfs/job{r}/out{k}");
                    if k == 0 {
                        shim.mkdir(&format!("/plfs/job{r}"), 0o755).unwrap();
                    }
                    let fd = shim
                        .open(&path, OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
                        .unwrap();
                    shim.write(fd, format!("r{r}k{k}").as_bytes()).unwrap();
                    shim.close(fd).unwrap();
                }
            });
        }
    });
    for r in 0..8 {
        for k in 0..5 {
            let st = shim.stat(&format!("/plfs/job{r}/out{k}")).unwrap();
            assert_eq!(st.size, 4);
        }
        let ents = shim.readdir(&format!("/plfs/job{r}")).unwrap();
        assert_eq!(ents.len(), 5);
    }
}

// ---------------------------------------------------------------------------
// One PlfsFd hammered by racing pids through the sharded write path.
// ---------------------------------------------------------------------------

/// Racing threads × pids doing write/sync/read through ONE `PlfsFd`. Each
/// rank re-reads its own region through the same fd while the others keep writing
/// (read-your-writes under contention), and the final file is byte-exact.
#[test]
fn racing_pids_share_one_fd_read_your_writes() {
    let plfs = Plfs::new(Arc::new(MemBacking::new()));
    let ranks = 8usize;
    let rows = 16usize;
    let block = 64usize;
    let fd = plfs
        .open("/stress", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    for r in 1..ranks as u64 {
        fd.add_ref(r);
    }
    std::thread::scope(|scope| {
        for r in 0..ranks {
            let plfs = &plfs;
            let fd = fd.clone();
            scope.spawn(move || {
                let pid = r as u64;
                let pat = vec![r as u8 + 1; block];
                for row in 0..rows {
                    let off = ((row * ranks + r) * block) as u64;
                    assert_eq!(plfs.write(&fd, &pat, off, pid).unwrap(), block);
                    if row % 4 == 3 {
                        plfs.sync(&fd, pid).unwrap();
                    }
                    let mut got = vec![0u8; block];
                    let mut done = 0;
                    while done < block {
                        let n = plfs.read(&fd, &mut got[done..], off + done as u64).unwrap();
                        assert!(n > 0, "rank {r} short read at row {row}");
                        done += n;
                    }
                    assert_eq!(got, pat, "rank {r} lost its own row {row}");
                }
            });
        }
    });
    for r in 0..ranks as u64 {
        plfs.close(&fd, r).unwrap();
    }

    let fd = plfs.open("/stress", OpenFlags::RDONLY, 99).unwrap();
    let want = expected(ranks, rows, block);
    let mut got = vec![0u8; want.len()];
    let mut done = 0;
    while done < got.len() {
        let n = plfs.read(&fd, &mut got[done..], done as u64).unwrap();
        assert!(n > 0, "short final read at {done}");
        done += n;
    }
    assert_eq!(got, want);
}

/// Racing appenders on one fd: the atomic EOF hands every append a
/// disjoint slot, so no byte is lost or overwritten.
#[test]
fn racing_appenders_account_for_every_byte() {
    let plfs = Plfs::new(Arc::new(MemBacking::new()));
    let ranks = 8usize;
    let appends = 32usize;
    let fd = plfs
        .open("/applog", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    for r in 1..ranks as u64 {
        fd.add_ref(r);
    }
    // Every thread records where its appends landed.
    let slots = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for r in 0..ranks {
            let plfs = &plfs;
            let fd = fd.clone();
            let slots = &slots;
            scope.spawn(move || {
                let pid = r as u64;
                let len = 16 + r * 3; // distinct lengths per rank
                let chunk = vec![r as u8 + 1; len];
                let mut mine = Vec::with_capacity(appends);
                for i in 0..appends {
                    let (off, n) = fd.append(&chunk, pid).unwrap();
                    assert_eq!(n, len);
                    mine.push((off, len, r as u8 + 1));
                    if i % 8 == 7 {
                        plfs.sync(&fd, pid).unwrap();
                    }
                }
                slots.lock().unwrap().extend(mine);
            });
        }
    });
    let total: usize = (0..ranks).map(|r| (16 + r * 3) * appends).sum();
    assert_eq!(fd.size().unwrap(), total as u64, "appends lost bytes");
    for r in 0..ranks as u64 {
        plfs.close(&fd, r).unwrap();
    }

    let fd = plfs.open("/applog", OpenFlags::RDONLY, 99).unwrap();
    let mut got = vec![0u8; total];
    let mut done = 0;
    while done < total {
        let n = plfs.read(&fd, &mut got[done..], done as u64).unwrap();
        assert!(n > 0, "short read at {done}");
        done += n;
    }
    // Slots are disjoint and each holds its writer's fill byte.
    let mut slots = slots.into_inner().unwrap();
    slots.sort_unstable();
    let mut covered = 0u64;
    for (off, len, byte) in slots {
        assert_eq!(off, covered, "gap or overlap at offset {off}");
        covered = off + len as u64;
        assert!(
            got[off as usize..off as usize + len]
                .iter()
                .all(|&b| b == byte),
            "slot at {off} clobbered"
        );
    }
    assert_eq!(covered, total as u64);
}

// ---------------------------------------------------------------------------
// Property: any single-threaded op sequence over four pids on one fd reads
// back as the byte-vector model says, at every interleaved read.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Write {
        pid: u64,
        offset: u64,
        data: Vec<u8>,
    },
    Append {
        pid: u64,
        data: Vec<u8>,
    },
    Read,
    Sync {
        pid: u64,
    },
}

fn ops_strategy(max_ops: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (
                0u64..4,
                0u64..2048,
                prop::collection::vec(any::<u8>(), 1..96)
            )
                .prop_map(|(pid, offset, data)| Op::Write { pid, offset, data }),
            (0u64..4, prop::collection::vec(any::<u8>(), 1..96))
                .prop_map(|(pid, data)| Op::Append { pid, data }),
            Just(Op::Read),
            (0u64..4).prop_map(|pid| Op::Sync { pid }),
        ],
        1..max_ops,
    )
}

/// Apply `ops` single-threaded (deterministic append order), checking
/// interleaved reads and the final logical bytes against the running
/// byte-vector model.
fn apply_ops(ops: &[Op]) {
    let plfs = Plfs::new(Arc::new(MemBacking::new()));
    let fd = plfs
        .open("/prop", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    for p in 1..4u64 {
        fd.add_ref(p);
    }
    let mut model: Vec<u8> = Vec::new();
    let place = |model: &mut Vec<u8>, off: usize, data: &[u8]| {
        if model.len() < off + data.len() {
            model.resize(off + data.len(), 0);
        }
        model[off..off + data.len()].copy_from_slice(data);
    };
    for op in ops {
        match op {
            Op::Write { pid, offset, data } => {
                assert_eq!(plfs.write(&fd, data, *offset, *pid).unwrap(), data.len());
                place(&mut model, *offset as usize, data);
            }
            Op::Append { pid, data } => {
                let (off, n) = fd.append(data, *pid).unwrap();
                assert_eq!(n, data.len());
                assert_eq!(off as usize, model.len(), "append missed EOF");
                place(&mut model, off as usize, data);
            }
            Op::Read => {
                let size = fd.size().unwrap() as usize;
                assert_eq!(size, model.len());
                let mut got = vec![0u8; size];
                let mut done = 0;
                while done < size {
                    let n = plfs.read(&fd, &mut got[done..], done as u64).unwrap();
                    assert!(n > 0);
                    done += n;
                }
                assert_eq!(got, model, "interleaved read diverged from model");
            }
            Op::Sync { pid } => plfs.sync(&fd, *pid).unwrap(),
        }
    }
    let size = fd.size().unwrap() as usize;
    let mut out = vec![0u8; size];
    let mut done = 0;
    while done < size {
        let n = plfs.read(&fd, &mut out[done..], done as u64).unwrap();
        assert!(n > 0);
        done += n;
    }
    for p in 0..4u64 {
        plfs.close(&fd, p).unwrap();
    }
    assert_eq!(out, model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn op_sequences_match_the_byte_model(ops in ops_strategy(40)) {
        apply_ops(&ops);
    }
}
