//! Flattening and mapping: extracting raw data from PLFS structures.
//!
//! The paper motivates LDPLFS partly as a way to get data *out* of PLFS
//! containers without FUSE ("providing users with an alternative method for
//! extracting raw data from PLFS structures"). This module provides the
//! library-side equivalents: `flatten` materialises a container's logical
//! bytes as a plain file, and `map` dumps the logical→physical layout the
//! way `plfs_query` does.

use crate::backing::{join, Backing};
use crate::container::{self, DroppingRef};
use crate::error::{Error, Result};
use crate::reader::ReadFile;
use crate::writer::{WriteFile, DEFAULT_INDEX_BUFFER_ENTRIES};

/// Chunk size used when streaming a flatten or a rewrite.
const FLATTEN_CHUNK: usize = 4 << 20;

/// Pid the rewriting writer signs its dropping pair with. Any value works
/// — `WriteFile::create` bumps the dropping sequence number past whatever
/// already exists for this pid.
const REWRITE_PID: u64 = 0;

/// One row of the logical→physical map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapEntry {
    /// Logical offset of the extent.
    pub logical_offset: u64,
    /// Extent length in bytes.
    pub length: u64,
    /// Backend path of the data dropping holding the bytes.
    pub dropping: String,
    /// Physical offset within the dropping.
    pub physical_offset: u64,
}

/// Copy a container's logical contents into a plain backend file at
/// `dest` (creating/truncating it). Returns bytes written.
pub fn flatten(b: &dyn Backing, container: &str, dest: &str) -> Result<u64> {
    let r = ReadFile::open(b, container)?;
    let out = b.create(dest, false)?;
    stream(b, &r, r.eof(), |chunk, off| out.pwrite(chunk, off))
}

/// Hand the logical `[0, end)` that `r` reads to `sink`, a
/// [`FLATTEN_CHUNK`] at a time with its offset, holes as zeros. Returns the
/// bytes handed over.
fn stream<T>(
    b: &dyn Backing,
    r: &ReadFile,
    end: u64,
    mut sink: impl FnMut(&[u8], u64) -> Result<T>,
) -> Result<u64> {
    let mut buf = vec![0u8; FLATTEN_CHUNK.min(end.max(1) as usize)];
    let mut off = 0u64;
    while off < end {
        let want = (end - off).min(buf.len() as u64) as usize;
        let n = r.pread(b, &mut buf[..want], off)?;
        if n == 0 {
            break;
        }
        sink(&buf[..n], off)?;
        off += n as u64;
    }
    Ok(off)
}

/// Read a container's whole logical contents into memory.
pub fn flatten_to_vec(b: &dyn Backing, container: &str) -> Result<Vec<u8>> {
    ReadFile::open(b, container)?.read_all(b)
}

/// Dump the merged logical→physical map of a container, in logical order.
/// Holes are omitted (they have no physical location).
pub fn map(b: &dyn Backing, container: &str) -> Result<Vec<MapEntry>> {
    let r = ReadFile::open(b, container)?;
    let mut out = Vec::with_capacity(r.index().segments());
    for (lo, len, id, phys) in r.index().iter_segments() {
        let dropping = r.droppings()[id as usize].data_path.clone();
        out.push(MapEntry {
            logical_offset: lo,
            length: len,
            dropping,
            physical_offset: phys,
        });
    }
    Ok(out)
}

/// What [`compact_container`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Dropping count before compaction.
    pub droppings_before: usize,
    /// Dropping count after (1 when compaction ran, unchanged when the
    /// container was already compact).
    pub droppings_after: usize,
    /// Logical bytes streamed through the compaction writer.
    pub bytes: u64,
}

/// Fold a container's droppings into one flattened dropping pair, in place:
/// its logical contents [`rewrite`]n at their own length. Logical bytes
/// are unchanged; holes become explicit zeros, as in [`flatten`]. Refuses to
/// run while any writer holds the container open, and on a directory whose
/// marker [`container::validate_marker`] refuses; containers that are
/// already compact (≤ 1 dropping) are left untouched.
pub fn compact_container(b: &dyn Backing, container: &str) -> Result<CompactStats> {
    if container::open_writers(b, container)? > 0 {
        return Err(Error::InvalidArg(
            "cannot compact: container has open writers",
        ));
    }
    container::validate_marker(b, container)?;
    let r = ReadFile::open(b, container)?;
    let (before, eof) = (r.droppings().len(), r.eof());
    if before > 1 {
        rewrite(b, container, &r, eof)?;
    }
    Ok(CompactStats {
        droppings_before: before,
        droppings_after: before.min(1),
        bytes: eof,
    })
}

/// Rewrite a container, which `r` reads, as one fresh dropping pair
/// holding its logical `[0, min(eof, len))`, holes as explicit zeros,
/// extended to `len` by one zero byte at `len - 1`: a [`compact_container`]
/// at the container's own length, a truncate at any other nonzero one. The
/// bytes stream through one writer — whose sequential appends compress to
/// pattern records — and its fast-stat drop says what it wrote. Only then
/// are the droppings `r` listed retired; a failure before that removes
/// what the rewrite wrote and leaves the container as it was.
pub(crate) fn rewrite(b: &dyn Backing, container: &str, r: &ReadFile, len: u64) -> Result<()> {
    // Past every pair of its pid `r` lists, which the retire removes: a
    // reader whose view names one of them must find it gone, never a
    // later rewrite's pair under the same name.
    let prefix = format!("{}{REWRITE_PID}.", container::DATA_PREFIX);
    let first = r
        .droppings()
        .iter()
        .filter_map(|d| {
            d.data_path
                .rsplit_once('/')?
                .1
                .strip_prefix(&prefix)?
                .parse::<u32>()
                .ok()
        })
        .max()
        .map_or(0, |seq| seq.saturating_add(1));
    let mut w = WriteFile::create_from(
        b,
        container,
        REWRITE_PID,
        first,
        DEFAULT_INDEX_BUFFER_ENTRIES,
    )?;
    let mut write = || {
        let kept = stream(b, r, r.eof().min(len), |chunk, off| w.write(chunk, off))?;
        if len > kept {
            w.write(&[0], len - 1)?;
        }
        w.sync()?;
        container::drop_meta(b, container, len, w.bytes_written(), REWRITE_PID, w.seq)
    };
    match write() {
        Ok(drop_path) => {
            let own_dir = container::parent(w.data_path()).to_string();
            drop(w);
            retire(b, container, r.droppings(), &drop_path, &own_dir)
        }
        Err(e) => {
            let written = [w.data_path().to_string(), w.index_path().to_string()];
            w.abandon();
            for path in written {
                let _ = b.unlink(&path);
            }
            Err(e)
        }
    }
}

/// Retire the droppings `old`, listed before a rewrite began, and every
/// `meta.*` drop but the rewrite's own, `kept`: first the merged index, so
/// no reader loads a view of droppings about to go, then the access file,
/// published if the creator's data dropping goes and the container has
/// none (that dropping may be its marker), then the droppings by the paths
/// the listing gave, then every hostdir they leave empty but the rewrite's
/// own, `own_dir` — a later listing reads each hostdir it finds — then the
/// drops. The `open.*` markers of writers still open stay, theirs to
/// remove, and so does the creator's data dropping while it has no index
/// and no bytes, as `trunc(0)` keeps it: all its writer will write comes
/// after the rewrite.
fn retire(
    b: &dyn Backing,
    container: &str,
    old: &[DroppingRef],
    kept: &str,
    own_dir: &str,
) -> Result<()> {
    use crate::error::libc_errno::{EEXIST, ENOENT, ENOTEMPTY};
    let creator_data = join(container, container::CREATOR_DATA);
    let open_creator = |d: &DroppingRef| {
        d.data_path == creator_data
            && d.index_path.is_none()
            && b.stat(&d.data_path).is_ok_and(|st| st.size == 0)
    };
    let old: Vec<&DroppingRef> = old.iter().filter(|d| !open_creator(d)).collect();
    container::remove_merged(b, container, &container::list_container(b, container)?)?;
    let access = join(container, container::ACCESS_FILE);
    if old.iter().any(|d| d.data_path == creator_data) && !b.exists(&access) {
        container::publish_access_file(b, container)?;
    }
    let mut dirs: Vec<&str> = Vec::new();
    for d in old {
        b.unlink(&d.data_path)?;
        if let Some(ip) = &d.index_path {
            b.unlink(ip)?;
        }
        let dir = container::parent(&d.data_path);
        let hostdir = dir
            .rsplit('/')
            .next()
            .is_some_and(|n| n.starts_with(container::HOSTDIR_PREFIX));
        if hostdir && dir != own_dir && !dirs.contains(&dir) {
            dirs.push(dir);
        }
    }
    for dir in dirs {
        match b.rmdir(dir) {
            Err(e) if ![ENOTEMPTY, EEXIST, ENOENT].contains(&e.errno()) => return Err(e),
            _ => {}
        }
    }
    for name in container::list_container(b, container)? {
        let path = join(container, &name);
        if name.starts_with(container::META_PREFIX) && path != kept {
            b.unlink(&path)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;
    use crate::container::create_container;
    use crate::writer::WriteFile;

    fn setup() -> MemBacking {
        let b = MemBacking::new();
        create_container(&b, "/c", true).unwrap();
        b
    }

    #[test]
    fn flatten_reproduces_logical_bytes() {
        let b = setup();
        for pid in 0..4u64 {
            let mut w = WriteFile::create(&b, "/c", pid, 64).unwrap();
            // Reverse order writes: pid 3 writes first region last.
            w.write(&[pid as u8; 100], (3 - pid) * 100).unwrap();
            w.sync().unwrap();
        }
        let n = flatten(&b, "/c", "/flat").unwrap();
        assert_eq!(n, 400);
        let f = b.open("/flat", false).unwrap();
        let mut got = vec![0u8; 400];
        f.pread(&mut got, 0).unwrap();
        for pid in 0..4usize {
            let region = &got[(3 - pid) * 100..(3 - pid) * 100 + 100];
            assert!(region.iter().all(|&x| x == pid as u8));
        }
    }

    #[test]
    fn flatten_empty_container_writes_empty_file() {
        let b = setup();
        assert_eq!(flatten(&b, "/c", "/flat").unwrap(), 0);
        assert_eq!(b.stat("/flat").unwrap().size, 0);
    }

    #[test]
    fn flatten_preserves_holes_as_zeros() {
        let b = setup();
        let mut w = WriteFile::create(&b, "/c", 1, 64).unwrap();
        w.write(b"tail", 1000).unwrap();
        w.sync().unwrap();
        assert_eq!(flatten(&b, "/c", "/flat").unwrap(), 1004);
        let f = b.open("/flat", false).unwrap();
        let mut got = vec![0xffu8; 1004];
        f.pread(&mut got, 0).unwrap();
        assert!(got[..1000].iter().all(|&x| x == 0));
        assert_eq!(&got[1000..], b"tail");
    }

    #[test]
    fn map_reports_droppings_in_logical_order() {
        let b = setup();
        let mut w1 = WriteFile::create(&b, "/c", 1, 64).unwrap();
        let mut w2 = WriteFile::create(&b, "/c", 2, 64).unwrap();
        w2.write(b"bbbb", 4).unwrap();
        w1.write(b"aaaa", 0).unwrap();
        w1.sync().unwrap();
        w2.sync().unwrap();
        let m = map(&b, "/c").unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].logical_offset, 0);
        assert!(m[0].dropping.contains("dropping.data.1."));
        assert_eq!(m[1].logical_offset, 4);
        assert!(m[1].dropping.contains("dropping.data.2."));
    }

    #[test]
    fn compact_folds_droppings_and_preserves_bytes() {
        let b = setup();
        for pid in 0..4u64 {
            let mut w = WriteFile::create(&b, "/c", pid, 64).unwrap();
            w.write(&[pid as u8 + 1; 100], (3 - pid) * 100).unwrap();
            w.sync().unwrap();
        }
        let before = flatten_to_vec(&b, "/c").unwrap();
        let stats = compact_container(&b, "/c").unwrap();
        assert_eq!(stats.droppings_before, 4);
        assert_eq!(stats.droppings_after, 1);
        assert_eq!(stats.bytes, 400);
        let r = ReadFile::open(&b, "/c").unwrap();
        assert_eq!(r.droppings().len(), 1);
        assert_eq!(r.eof(), 400);
        assert_eq!(flatten_to_vec(&b, "/c").unwrap(), before);
    }

    #[test]
    fn compact_is_noop_on_compact_container() {
        let b = setup();
        let mut w = WriteFile::create(&b, "/c", 1, 64).unwrap();
        w.write(b"data", 0).unwrap();
        w.sync().unwrap();
        let stats = compact_container(&b, "/c").unwrap();
        assert_eq!(stats.droppings_before, 1);
        assert_eq!(stats.droppings_after, 1);
        let stats = compact_container(&b, "/c").unwrap();
        assert_eq!(stats.droppings_after, 1);
        assert_eq!(flatten_to_vec(&b, "/c").unwrap(), b"data");
    }

    #[test]
    fn compact_refuses_open_writers() {
        let b = setup();
        for pid in 0..2u64 {
            let mut w = WriteFile::create(&b, "/c", pid, 64).unwrap();
            w.write(b"xx", pid * 2).unwrap();
            w.sync().unwrap();
        }
        container::mark_open(&b, "/c", 1, 0).unwrap();
        assert!(matches!(
            compact_container(&b, "/c"),
            Err(Error::InvalidArg(_))
        ));
        container::mark_closed(&b, "/c", 1, 0).unwrap();
        assert_eq!(compact_container(&b, "/c").unwrap().droppings_after, 1);
    }

    #[test]
    fn compact_refuses_what_is_not_a_container_it_reads() {
        let b = setup();
        for pid in 0..2u64 {
            let mut w = WriteFile::create(&b, "/c", pid, 64).unwrap();
            w.write(b"xx", pid * 2).unwrap();
            w.sync().unwrap();
        }
        let text = b"plfs-container v1\nnum_hostdirs 32\nmode log\n";
        let access = join("/c", container::ACCESS_FILE);
        b.create(&access, false).unwrap().pwrite(text, 0).unwrap();
        let before = container::list_droppings(&b, "/c").unwrap();
        let err = compact_container(&b, "/c").unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
        assert_eq!(container::list_droppings(&b, "/c").unwrap(), before);
        assert!(before.iter().all(|d| b.exists(&d.data_path)));
        // A plain directory whose files are named like droppings.
        b.mkdir_all("/d/hostdir.1").unwrap();
        b.create("/d/hostdir.1/dropping.data.1.0", true).unwrap();
        let err = compact_container(&b, "/d").unwrap_err();
        assert!(matches!(err, Error::NotContainer(_)), "{err}");
        assert!(b.exists("/d/hostdir.1/dropping.data.1.0"));
    }

    #[test]
    fn compact_materialises_holes_and_rebuilds_meta() {
        let b = setup();
        let mut w1 = WriteFile::create(&b, "/c", 1, 64).unwrap();
        let mut w2 = WriteFile::create(&b, "/c", 2, 64).unwrap();
        w1.write(b"head", 0).unwrap();
        w2.write(b"tail", 1000).unwrap();
        w1.sync().unwrap();
        w2.sync().unwrap();
        let stats = compact_container(&b, "/c").unwrap();
        assert_eq!(stats.bytes, 1004);
        // Holes became explicit zeros in the flattened dropping.
        let v = flatten_to_vec(&b, "/c").unwrap();
        assert_eq!(&v[..4], b"head");
        assert!(v[4..1000].iter().all(|&x| x == 0));
        assert_eq!(&v[1000..], b"tail");
        // The fast-stat drops were rebuilt for the flattened layout.
        let (eof, bytes) = container::read_lifecycle(&b, "/c").unwrap().1.unwrap();
        assert_eq!(eof, 1004);
        assert_eq!(bytes, 1004);
    }

    #[test]
    fn flatten_large_multi_chunk() {
        let b = setup();
        let mut w = WriteFile::create(&b, "/c", 1, 64).unwrap();
        let block: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();
        for i in 0..16u64 {
            w.write(&block, i * 8192).unwrap();
        }
        w.sync().unwrap();
        let v = flatten_to_vec(&b, "/c").unwrap();
        assert_eq!(v.len(), 16 * 8192);
        assert_eq!(&v[8192..2 * 8192], &block[..]);
    }
}
