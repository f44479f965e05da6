//! Corrupt-index corpus: hostile index droppings must surface as
//! `Error::Corrupt` through the read path — never a panic, and never
//! silently-wrong data.

use plfs::container;
use plfs::index::{IndexEntry, PatternRecord};
use plfs::{Backing, Error, MemBacking, OpenFlags, Plfs, ReadFile};
use std::sync::Arc;

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
