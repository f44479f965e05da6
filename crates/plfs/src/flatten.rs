//! Flattening and mapping: extracting raw data from PLFS structures.
//!
//! The paper motivates LDPLFS partly as a way to get data *out* of PLFS
//! containers without FUSE ("providing users with an alternative method for
//! extracting raw data from PLFS structures"). This module provides the
//! library-side equivalents: `flatten` materialises a container's logical
//! bytes as a plain file, and `map` dumps the logical→physical layout the
//! way `plfs_query` does.

use crate::backing::Backing;
use crate::container;
use crate::error::{Error, Result};
use crate::reader::ReadFile;
use crate::writer::WriteFile;

/// Chunk size used when streaming a flatten.
const FLATTEN_CHUNK: usize = 4 << 20;

/// Pid the compaction writer signs its flattened dropping with. Any value
/// works — `WriteFile::open` bumps the dropping sequence number past
/// whatever already exists for this pid.
const COMPACT_PID: u64 = 0;

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
    let mut off = 0u64;
    let mut buf = vec![0u8; FLATTEN_CHUNK.min(r.eof().max(1) as usize)];
    while off < r.eof() {
        let n = r.pread(b, &mut buf, off)?;
        if n == 0 {
            break;
        }
        out.pwrite(&buf[..n], off)?;
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
/// the logical contents are streamed through a fresh writer (whose
/// sequential appends compress to pattern records), then every old dropping
/// is unlinked and the `meta.*` fast-stat drops are rebuilt. Logical bytes
/// are unchanged; holes become explicit zeros, as in [`flatten`]. Refuses to
/// run while any writer holds the container open, and containers that are
/// already compact (≤ 1 dropping) are left untouched.
pub fn compact_container(b: &dyn Backing, container: &str) -> Result<CompactStats> {
    if container::open_writers(b, container)? > 0 {
        return Err(Error::InvalidArg(
            "cannot compact: container has open writers",
        ));
    }
    let params = container::read_params(b, container)?;
    let r = ReadFile::open(b, container)?;
    let old = r.droppings().to_vec();
    let eof = r.eof();
    if old.len() <= 1 {
        return Ok(CompactStats {
            droppings_before: old.len(),
            droppings_after: old.len(),
            bytes: eof,
        });
    }
    // Stream the merged logical file into one fresh dropping. The writer's
    // chunked appends are logically sequential and physically contiguous,
    // so the index flush compresses them into pattern records: the
    // compacted index is O(1), not O(chunks).
    let mut w = WriteFile::open(b, container, &params, COMPACT_PID, 4096)?;
    let mut off = 0u64;
    let mut buf = vec![0u8; FLATTEN_CHUNK.min(eof.max(1) as usize)];
    while off < eof {
        let n = r.pread(b, &mut buf, off)?;
        if n == 0 {
            break;
        }
        w.write(&buf[..n], off)?;
        off += n as u64;
    }
    w.sync()?;
    let (bytes_written, seq) = (w.bytes_written(), w.seq);
    let new_data = w.data_path().to_string();
    let new_index = w.index_path().to_string();
    drop(w);
    drop(r);
    // The compacted pair is immutable from here on; a tiered backend may
    // destage it.
    b.seal(&new_data)?;
    b.seal(&new_index)?;
    // The new dropping is durable; retire the old ones.
    for d in &old {
        if d.data_path == new_data {
            continue;
        }
        b.unlink(&d.data_path)?;
        if let Some(ip) = &d.index_path {
            b.unlink(ip)?;
        }
    }
    // Stale fast-stat drops still sum the pre-compaction physical bytes;
    // replace them with one drop describing the flattened container.
    container::clear_names(b, container, container::META_PREFIX)?;
    container::drop_meta(b, container, eof, bytes_written, COMPACT_PID, seq)?;
    Ok(CompactStats {
        droppings_before: old.len(),
        droppings_after: 1,
        bytes: eof,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;
    use crate::container::{create_container, ContainerParams};
    use crate::writer::WriteFile;

    fn setup() -> MemBacking {
        let b = MemBacking::new();
        create_container(&b, "/c", &ContainerParams::default(), true).unwrap();
        b
    }

    #[test]
    fn flatten_reproduces_logical_bytes() {
        let b = setup();
        let p = ContainerParams::default();
        for pid in 0..4u64 {
            let mut w = WriteFile::open(&b, "/c", &p, pid, 64).unwrap();
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
        let p = ContainerParams::default();
        let mut w = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
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
        let p = ContainerParams::default();
        let mut w1 = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        let mut w2 = WriteFile::open(&b, "/c", &p, 2, 64).unwrap();
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
        let p = ContainerParams::default();
        for pid in 0..4u64 {
            let mut w = WriteFile::open(&b, "/c", &p, pid, 64).unwrap();
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
        let p = ContainerParams::default();
        let mut w = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
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
        let p = ContainerParams::default();
        for pid in 0..2u64 {
            let mut w = WriteFile::open(&b, "/c", &p, pid, 64).unwrap();
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
    fn compact_materialises_holes_and_rebuilds_meta() {
        let b = setup();
        let p = ContainerParams::default();
        let mut w1 = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        let mut w2 = WriteFile::open(&b, "/c", &p, 2, 64).unwrap();
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
        let p = ContainerParams::default();
        let mut w = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
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
