//! Corrupt-index corpus: hostile index droppings must surface as
//! `Error::Corrupt` through the read path — never a panic, never an
//! allocation sized by what a file claims, and never silently-wrong data.

use plfs::container;
use plfs::index::{IndexEntry, PatternRecord, RECORD_SIZE};
use plfs::{Backing, Error, MemBacking, MeterBacking, OpenFlags, Plfs, ReadFile, RealBacking};
use std::sync::Arc;

/// Records per read of an index dropping: a read-open holds one such
/// window (64,512 bytes) of any dropping at a time.
const WINDOW_RECORDS: u64 = 1344;

/// A small container whose single index dropping holds several plain
/// records (varying lengths defeat pattern compression, so truncation
/// can land mid-record behind valid ones).
fn fresh_container() -> Arc<MemBacking> {
    let backing = Arc::new(MemBacking::new());
    let plfs = Plfs::new(backing.clone());
    let fd = plfs
        .open("/c", OpenFlags::RDWR | OpenFlags::CREAT, 1)
        .unwrap();
    plfs.write(&fd, &[1u8; 64], 0, 1).unwrap();
    plfs.write(&fd, &[2u8; 32], 100, 1).unwrap();
    plfs.write(&fd, &[3u8; 64], 200, 1).unwrap();
    plfs.write(&fd, &[4u8; 16], 300, 1).unwrap();
    plfs.close(&fd, 1).unwrap();
    backing
}

fn index_path(b: &dyn Backing) -> String {
    let droppings = container::list_droppings(b, "/c").unwrap();
    droppings[0].index_path.clone().unwrap()
}

/// Open + read must fail with `Error::Corrupt` (at open or at first read).
fn assert_corrupt(b: &Arc<MemBacking>, what: &str) {
    let attempt = || -> plfs::Result<()> {
        let r = ReadFile::open(b.as_ref(), "/c")?;
        let mut buf = [0u8; 16];
        r.pread(b.as_ref(), &mut buf, 0)?;
        Ok(())
    };
    let err = attempt().expect_err(&format!("{what} accepted"));
    assert!(
        matches!(err, Error::Corrupt(_)),
        "{what} must be Corrupt, got {err:?}"
    );
}

#[test]
fn pristine_container_reads() {
    let b = fresh_container();
    let mut got = [0u8; 16];
    ReadFile::open(b.as_ref(), "/c")
        .unwrap()
        .pread(b.as_ref(), &mut got, 200)
        .unwrap();
    assert_eq!(got, [3u8; 16]);
}

#[test]
fn short_trailing_record_is_corrupt() {
    let b = fresh_container();
    let ip = index_path(b.as_ref());
    let f = b.open(&ip, true).unwrap();
    f.append(&[0xabu8; 17]).unwrap();
    drop(f);
    assert_corrupt(&b, "index with 17 trailing garbage bytes");
}

#[test]
fn bad_record_magic_is_corrupt() {
    let b = fresh_container();
    let ip = index_path(b.as_ref());
    let f = b.open(&ip, true).unwrap();
    f.pwrite(&0xdead_beefu32.to_le_bytes(), 0).unwrap();
    drop(f);
    assert_corrupt(&b, "record with magic 0xdeadbeef");
}

#[test]
fn hostile_pattern_count_is_corrupt() {
    let b = fresh_container();
    let ip = index_path(b.as_ref());
    // A pattern record claiming four billion writes: decoding must
    // refuse it outright instead of trying to expand it.
    let p = PatternRecord {
        dropping_id: 0,
        logical_start: 0,
        physical_start: 0,
        ts_start: 0,
        length: 64,
        stride: 64,
        count: u32::MAX,
        pid: 1,
    };
    let mut rec = Vec::new();
    p.encode(&mut rec);
    let f = b.open(&ip, true).unwrap();
    f.append(&rec).unwrap();
    drop(f);
    assert_corrupt(&b, "pattern record with count u32::MAX");
}

#[test]
fn off_t_overflowing_entry_is_corrupt() {
    let b = fresh_container();
    let ip = index_path(b.as_ref());
    // logical_offset + length overflows off_t: a kernel-facing shim
    // must never report such an extent as readable.
    let e = IndexEntry {
        dropping_id: 0,
        logical_offset: u64::MAX - 10,
        length: 100,
        physical_offset: 0,
        timestamp: 99,
        pid: 1,
    };
    let mut rec = Vec::new();
    e.encode(&mut rec);
    let f = b.open(&ip, true).unwrap();
    f.append(&rec).unwrap();
    drop(f);
    assert_corrupt(&b, "entry spanning past off_t::MAX");
}

#[test]
fn truncated_tail_record_is_corrupt() {
    let b = fresh_container();
    let ip = index_path(b.as_ref());
    let size = b.stat(&ip).unwrap().size;
    // Cut the last record in half, leaving the valid prefix intact.
    b.truncate(&ip, size - 20).unwrap();
    assert_corrupt(&b, "index truncated mid-record");
}

/// A container whose one index dropping holds `records` plain records over
/// as many windows as that takes: neighbouring writes differ in length, so
/// none compress into a pattern.
fn windowed_container(records: u64) -> Arc<MemBacking> {
    let backing = Arc::new(MemBacking::new());
    let plfs = Plfs::new(backing.clone());
    let fd = plfs
        .open("/c", OpenFlags::RDWR | OpenFlags::CREAT, 1)
        .unwrap();
    // From offset 1: no record maps a logical offset to the same physical
    // one, so the index is named `<eof>.<bytes>` and a read reads it (an
    // identity-named index is read by its name).
    let mut eof = 1;
    for i in 0..records {
        let len = 1 + i % 7;
        plfs.write(&fd, &vec![i as u8; len as usize], eof, 1)
            .unwrap();
        eof += len;
    }
    plfs.close(&fd, 1).unwrap();
    let ip = index_path(backing.as_ref());
    assert_eq!(
        backing.stat(&ip).unwrap().size,
        records * RECORD_SIZE as u64
    );
    let pristine = ReadFile::open(backing.as_ref(), "/c").unwrap();
    assert_eq!(pristine.eof(), eof);
    backing
}

/// Overwrite the index dropping from its record `k` on with `bytes`.
fn overwrite_record(b: &MemBacking, k: u64, bytes: &[u8]) {
    let f = b.open(&index_path(b), true).unwrap();
    f.pwrite(bytes, k * RECORD_SIZE as u64).unwrap();
}

#[test]
fn bad_magic_opening_the_second_window_is_corrupt() {
    let b = windowed_container(2 * WINDOW_RECORDS + 7);
    overwrite_record(&b, WINDOW_RECORDS, &0xdead_beefu32.to_le_bytes());
    assert_corrupt(&b, "bad magic in the first record of the second window");
}

#[test]
fn torn_tail_after_two_full_windows_is_corrupt() {
    let b = windowed_container(2 * WINDOW_RECORDS);
    let f = b.open(&index_path(b.as_ref()), true).unwrap();
    f.append(&[0xabu8; 17]).unwrap();
    drop(f);
    assert_corrupt(&b, "17 torn bytes after two full windows");
}

#[test]
fn count_bomb_in_the_second_window_is_corrupt() {
    let b = windowed_container(2 * WINDOW_RECORDS);
    let mut rec = Vec::new();
    PatternRecord {
        dropping_id: 0,
        logical_start: 0,
        physical_start: 0,
        ts_start: 0,
        length: 64,
        stride: 64,
        count: u32::MAX,
        pid: 1,
    }
    .encode(&mut rec);
    overwrite_record(&b, WINDOW_RECORDS + 5, &rec);
    assert_corrupt(
        &b,
        "pattern record with count u32::MAX in the second window",
    );
}

const TIB: u64 = 1 << 40;

/// A real backing in a fresh directory, holding one small container `/c`.
fn real_container(tag: &str) -> (std::path::PathBuf, Arc<RealBacking>) {
    let dir = std::env::temp_dir().join(format!("ldplfs-corrupt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backing = Arc::new(RealBacking::new(&dir).unwrap());
    let plfs = Plfs::new(backing.clone());
    let fd = plfs
        .open("/c", OpenFlags::WRONLY | OpenFlags::CREAT, 1)
        .unwrap();
    // At offset 1, so that a read reads the index (as `windowed_container`).
    plfs.write(&fd, &[7u8; 100], 1, 1).unwrap();
    plfs.close(&fd, 1).unwrap();
    (dir, backing)
}

/// An access file claiming 1 TiB (sparse) is rejected before anything the
/// size of it is allocated: a preloaded process could not catch the abort.
#[test]
fn a_one_tib_access_file_is_corrupt() {
    let (dir, b) = real_container("access");
    // Its creator's dropping marks it; give it the access file that a
    // container made by `Plfs::create`, or with other params, has.
    let params = plfs::ContainerParams::default();
    container::ensure_access_file(b.as_ref(), "/c", &params).unwrap();
    b.truncate(&format!("/c/{}", container::ACCESS_FILE), TIB)
        .unwrap();
    // A fresh mount: no cached parameters.
    match Plfs::new(b.clone()).open("/c", OpenFlags::RDONLY, 1) {
        Err(Error::Corrupt(_)) => {}
        Err(e) => panic!("a 1 TiB access file must be Corrupt, got {e:?}"),
        Ok(_) => panic!("a 1 TiB access file accepted"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An index dropping grown to 1 TiB of whole (zero) records costs one
/// window: its first zero magic ends the open.
#[test]
fn a_one_tib_index_dropping_is_corrupt_after_one_window() {
    let (dir, real) = real_container("index");
    let ip = index_path(real.as_ref());
    real.truncate(&ip, TIB / RECORD_SIZE as u64 * RECORD_SIZE as u64)
        .unwrap();
    let meter = MeterBacking::new(real.clone());
    match ReadFile::open(&meter, "/c") {
        Err(Error::Corrupt(_)) => {}
        Err(e) => panic!("a 1 TiB index dropping must be Corrupt, got {e:?}"),
        Ok(_) => panic!("a 1 TiB index dropping accepted"),
    }
    assert_eq!(meter.snapshot().pread, 1, "one window read");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An access file written by an older version carries a `mode` line: its
/// classic-PLFS `mode both` still parses, and any other layout is Corrupt,
/// naming the mode — no reader here knows where such droppings put data.
#[test]
fn an_old_access_files_mode_both_parses_and_any_other_mode_is_corrupt() {
    for (mode, ok) in [("both", true), ("log", false), ("partitioned", false)] {
        let b = fresh_container();
        let access = format!("/c/{}", container::ACCESS_FILE);
        let text = format!("plfs-container v1\nnum_hostdirs 8\nmode {mode}\n");
        b.create(&access, true)
            .unwrap()
            .pwrite(text.as_bytes(), 0)
            .unwrap();
        let got = container::read_params(b.as_ref(), "/c");
        // A fresh mount: no cached parameters.
        let plfs = Plfs::new(b.clone());
        let opened = plfs.open("/c", OpenFlags::RDONLY, 1);
        if ok {
            assert_eq!(got.unwrap(), plfs::ContainerParams { num_hostdirs: 8 });
            let mut buf = [0u8; 16];
            assert_eq!(plfs.read(&opened.unwrap(), &mut buf, 200).unwrap(), 16);
            assert_eq!(buf, [3u8; 16]);
            continue;
        }
        for err in [got.unwrap_err(), opened.err().unwrap()] {
            match err {
                Error::Corrupt(msg) => assert!(msg.contains(mode), "{msg}"),
                e => panic!("mode {mode} must be Corrupt, got {e:?}"),
            }
        }
    }
}

/// A creator whose every record maps a logical offset to the same physical
/// one closes under the identity name, and a read of its pair alone builds
/// the view from that name: hostile records there are not read, and the
/// bytes read are the data dropping's. `check` reads them, and reports
/// them with the name they no longer earn.
#[test]
fn an_identity_named_index_is_read_by_its_name_and_checked_by_check() {
    let backing = Arc::new(MemBacking::new());
    let plfs = Plfs::new(backing.clone());
    let fd = plfs
        .open("/c", OpenFlags::WRONLY | OpenFlags::CREAT, 1)
        .unwrap();
    plfs.write(&fd, &[7u8; 100], 0, 1).unwrap();
    plfs.close(&fd, 1).unwrap();
    let ip = index_path(backing.as_ref());
    assert!(ip.contains(".100.i"), "{ip}");
    let f = backing.open(&ip, true).unwrap();
    f.pwrite(&0xdead_beefu32.to_le_bytes(), 0).unwrap();
    drop(f);
    let r = ReadFile::open(backing.as_ref(), "/c").unwrap();
    assert_eq!(r.read_all(backing.as_ref()).unwrap(), [7u8; 100]);
    let report = plfs::check(backing.as_ref(), "/c").unwrap();
    assert_eq!(
        report.findings,
        [
            plfs::Finding::CorruptIndexRecord {
                path: ip.clone(),
                record: 0
            },
            plfs::Finding::MisnamedIndex { path: ip },
            plfs::Finding::StaleMeta {
                cached: 100,
                actual: 0
            }
        ]
    );
}
