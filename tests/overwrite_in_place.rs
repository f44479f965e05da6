//! Integration: an overwrite of a writer's own bytes goes in place.
//!
//! On an `O_RDWR` fd whose read view holds the whole written range as one
//! slice of the writing pid's own data dropping, the bytes replace the old
//! ones where they lie instead of going to the dropping's tail. The index
//! record is still logged with a fresh stamp, so a fresh merge orders the
//! overwrite against every other write exactly as it orders an appended
//! one; and since the bytes change where they lie, a view built before the
//! overwrite, in this process or another, reads the new bytes at once.

use plfs::{Backing, MemBacking, OpenFlags, Plfs, ReadFile};
use std::sync::Arc;

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

/// The first byte where `got` and `want` differ, as `(offset, got, want)`.
fn first_difference(got: &[u8], want: &[u8]) -> Option<(usize, u8, u8)> {
    let n = got.len().min(want.len());
    match (0..n).find(|&i| got[i] != want[i]) {
        Some(i) => Some((i, got[i], want[i])),
        None if got.len() != want.len() => Some((n, 0, 0)),
        None => None,
    }
}

/// Fd A writes a range and reads it back, fd B — in the same process —
/// writes the range, and A writes it again: A's view still holds the range
/// as its own, so the write goes in place. Its record, stamped after B's,
/// is what makes A's bytes win the fresh merge; without it B's record
/// would be the newest one there and a fresh open would read B's bytes.
#[test]
fn the_last_write_wins_across_two_fds_when_it_goes_in_place() {
    const R: std::ops::Range<usize> = 4096..12288;
    let backing = Arc::new(MemBacking::new());
    let plfs = Plfs::new(backing.clone());
    let rw = OpenFlags::RDWR | OpenFlags::CREAT;
    let a = plfs.open("/f", rw, 0).unwrap();
    let b = plfs.open("/f", rw, 0).unwrap();
    let container = a.container_path().to_string();
    let len = R.len();

    plfs.write(&a, &vec![b'A'; 16384], 0, 0).unwrap();
    let mut buf = vec![0u8; len];
    assert_eq!(plfs.read(&a, &mut buf, R.start as u64).unwrap(), len);
    assert_eq!(first_difference(&buf, &vec![b'A'; len]), None);
    plfs.write(&b, &vec![b'B'; len], R.start as u64, 0).unwrap();
    let before = data_bytes(backing.as_ref(), &container);
    plfs.write(&a, &vec![b'a'; len], R.start as u64, 0).unwrap();
    assert_eq!(
        data_bytes(backing.as_ref(), &container),
        before,
        "A's second write went in place"
    );
    assert_eq!(plfs.read(&a, &mut buf, R.start as u64).unwrap(), len);
    assert_eq!(
        first_difference(&buf, &vec![b'a'; len]),
        None,
        "A reads its own write"
    );
    plfs.close(&a, 0).unwrap();
    plfs.close(&b, 0).unwrap();

    let mut want = vec![b'A'; 16384];
    want[R].fill(b'a');
    let fresh = ReadFile::open(backing.as_ref(), &container).unwrap();
    let merged = fresh.read_all(backing.as_ref()).unwrap();
    assert_eq!(first_difference(&merged, &want), None, "a fresh merge");
    let reopened = plfs.open("/f", OpenFlags::RDONLY, 7).unwrap();
    let mut all = vec![0u8; 16384];
    assert_eq!(plfs.read(&reopened, &mut all, 0).unwrap(), 16384);
    assert_eq!(
        first_difference(&all, &want),
        None,
        "a fresh open reads A's last bytes"
    );
}

/// Another process's view, built before the overwrites, reads the new
/// bytes at once, as a flat file's reader would; so does a fresh open.
/// The overwrites leave the data dropping's size where it was, and the
/// container checks clean.
#[test]
fn stale_views_read_the_new_bytes_and_the_container_stays_clean() {
    const BLOCK: usize = 4096;
    const BLOCKS: usize = 16;
    const N: usize = 200;
    let backing = Arc::new(MemBacking::new());
    let writer = Plfs::new(backing.clone());
    let fd = writer
        .open("/f", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    let container = fd.container_path().to_string();
    let mut want = vec![0u8; BLOCK * BLOCKS];
    writer.write(&fd, &want, 0, 0).unwrap();
    let mut buf = vec![0u8; BLOCK];
    writer.read(&fd, &mut buf, 0).unwrap(); // the writer's view
    writer.sync(&fd, 0).unwrap();

    let other = Plfs::new(backing.clone());
    let stale = other.open("/f", OpenFlags::RDONLY, 1).unwrap();
    assert_eq!(other.read(&stale, &mut buf, 0).unwrap(), BLOCK);
    let size = data_bytes(backing.as_ref(), &container);

    for i in 1..=N {
        let k = (i * 7) % BLOCKS;
        let block = vec![i as u8; BLOCK];
        writer.write(&fd, &block, (k * BLOCK) as u64, 0).unwrap();
        want[k * BLOCK..(k + 1) * BLOCK].copy_from_slice(&block);
        assert_eq!(
            other.read(&stale, &mut buf, (k * BLOCK) as u64).unwrap(),
            BLOCK
        );
        assert_eq!(
            first_difference(&buf, &block),
            None,
            "the stale view reads overwrite {i}"
        );
    }
    assert_eq!(
        data_bytes(backing.as_ref(), &container),
        size,
        "{N} overwrites grew no data dropping"
    );
    writer.close(&fd, 0).unwrap();
    other.close(&stale, 1).unwrap();

    let fresh = other.open("/f", OpenFlags::RDONLY, 1).unwrap();
    let mut all = vec![0u8; want.len()];
    assert_eq!(other.read(&fresh, &mut all, 0).unwrap(), want.len());
    assert_eq!(
        first_difference(&all, &want),
        None,
        "a fresh open reads the last bytes"
    );
    let report = plfs::check(backing.as_ref(), &container).unwrap();
    assert!(report.is_clean(), "{:?}", report.findings);
    assert_eq!(
        report.records,
        1 + N as u64,
        "every overwrite kept its record"
    );
}
