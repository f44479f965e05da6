//! The read path: reassembling a logical file from its droppings.
//!
//! Opening a container for reading merges every index dropping into a
//! [`GlobalIndex`], then `pread` resolves the requested range into slices of
//! individual data droppings. Dropping file handles are opened lazily and
//! cached — a container written by thousands of pids should not cost
//! thousands of opens to read one block.

use crate::backing::{Backing, BackingFile};
use crate::container::{self, DroppingRef};
use crate::error::{Error, Result};
use crate::index::{ChunkSlice, GlobalIndex, IndexEntry};
use crate::meta::FnvBuild;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::OnceLock;

/// An open read view of a container.
pub struct ReadFile {
    index: GlobalIndex,
    droppings: Vec<DroppingRef>,
    /// `data_path` → position in `droppings`; empty until the first
    /// [`ReadFile::patch`] needs it.
    ids_by_path: HashMap<String, u32, FnvBuild>,
    /// One slot per dropping, indexed by dropping id (ids are dense
    /// positions in `droppings`), filled by the first read that needs it.
    /// A read fragment after that costs one atomic load: no lock, no hash,
    /// no refcount.
    handles: Vec<OnceLock<Box<dyn BackingFile>>>,
}

impl ReadFile {
    /// Build a read view by merging all index droppings in `container`
    /// ([`container::build_global_index`]).
    pub fn open(b: &dyn Backing, container: &str) -> Result<ReadFile> {
        let (index, droppings) = container::build_global_index(b, container)?;
        Ok(ReadFile {
            index,
            handles: droppings.iter().map(|_| OnceLock::new()).collect(),
            droppings,
            ids_by_path: HashMap::default(),
        })
    }

    /// Fold freshly flushed entries into this view **in place** — the
    /// incremental refresh. `fresh` holds one batch per writer: its data
    /// dropping's path and its entries in write order, every one stamped
    /// after everything already merged (the process write clock steps past
    /// each view it builds). Amortized O(log k) per entry, in the index's
    /// overlay: nothing is cloned, and as dropping ids are positions that
    /// only grow, an unknown dropping is *appended* to the table, so open
    /// handles stay valid. Returns the bytes patched.
    pub(crate) fn patch(&mut self, fresh: Vec<(String, Vec<IndexEntry>)>) -> u64 {
        if self.ids_by_path.is_empty() {
            // First patch of this view: clean views never pay for the map.
            self.ids_by_path = (0u32..)
                .zip(&self.droppings)
                .map(|(id, d)| (d.data_path.clone(), id))
                .collect();
        }
        let mut entries: Vec<IndexEntry> = Vec::new();
        for (data_path, ents) in fresh {
            let id = match self.ids_by_path.get(&data_path) {
                Some(&id) => id,
                None => {
                    let id = self.droppings.len() as u32;
                    self.ids_by_path.insert(data_path.clone(), id);
                    self.droppings.push(DroppingRef {
                        data_path,
                        index_path: None,
                    });
                    self.handles.push(OnceLock::new());
                    id
                }
            };
            entries.extend(ents.into_iter().map(|e| IndexEntry {
                dropping_id: id,
                ..e
            }));
        }
        // Writers flush independently; restore global write order across
        // pids before inserting.
        entries.sort_by_key(|e| e.timestamp);
        let mut bytes = 0;
        for e in entries {
            bytes += e.length;
            self.index.insert(e);
        }
        bytes
    }

    /// Logical end-of-file.
    pub fn eof(&self) -> u64 {
        self.index.eof()
    }

    /// The merged index (used by flatten and the map query).
    pub fn index(&self) -> Cow<'_, GlobalIndex> {
        Cow::Borrowed(&self.index)
    }

    /// Approximate resident bytes of the merged index.
    pub fn index_resident_bytes(&self) -> usize {
        self.index.approx_resident_bytes()
    }

    /// The droppings backing this view, in `dropping_id` order.
    pub fn droppings(&self) -> &[DroppingRef] {
        &self.droppings
    }

    fn handle(&self, b: &dyn Backing, id: u32) -> Result<&dyn BackingFile> {
        let (Some(slot), Some(dr)) = (
            self.handles.get(id as usize),
            self.droppings.get(id as usize),
        ) else {
            return Err(Error::Corrupt(format!("dropping id {id} out of range")));
        };
        if let Some(h) = slot.get() {
            return Ok(h.as_ref());
        }
        // No lock held while opening: a slow backing open must not stall
        // readers of other droppings. Racing openers both succeed; the
        // loser's handle is dropped in favor of the one that landed.
        let opened = b.open(&dr.data_path, false).map_err(|e| match e {
            // The index names it, so it existed when this view was built: a
            // truncate or unlink raced the reader. To the caller of read()
            // that is an I/O error on an open file, not "no such file".
            Error::NotFound(p) => {
                Error::Corrupt(format!("data dropping {p} vanished under a reader"))
            }
            e => e,
        })?;
        Ok(slot.get_or_init(|| opened).as_ref())
    }

    /// Positional read of logical bytes: resolve `[off, off + buf.len())`
    /// against the index and fill `buf` from the data droppings, one
    /// backing read per resolved fragment. Returns bytes read (clamped at
    /// EOF); 0 at EOF. Holes read as zeros, exactly like a sparse POSIX
    /// file.
    pub fn pread(&self, b: &dyn Backing, buf: &mut [u8], off: u64) -> Result<usize> {
        if off >= self.index.eof() || buf.is_empty() {
            return Ok(0);
        }
        let mut total = 0usize;
        self.index
            .for_each_slice(off, buf.len() as u64, |s| -> Result<()> {
                let dst_start = (s.logical_offset - off) as usize;
                let dst = &mut buf[dst_start..dst_start + s.length as usize];
                self.read_slice(b, dst, &s)?;
                total = dst_start + s.length as usize;
                Ok(())
            })?;
        Ok(total)
    }

    /// Fill `dst` from one resolved slice: zeros for a hole, dropping
    /// bytes otherwise.
    fn read_slice(&self, b: &dyn Backing, dst: &mut [u8], s: &ChunkSlice) -> Result<()> {
        let Some(id) = s.dropping_id else {
            dst.fill(0);
            return Ok(());
        };
        let h = self.handle(b, id)?;
        let n = h.pread(dst, s.physical_offset)?;
        if n < dst.len() {
            return Err(Error::Corrupt(format!(
                "data dropping {id} shorter than its index claims \
                 (wanted {} at {}, got {n})",
                dst.len(),
                s.physical_offset
            )));
        }
        Ok(())
    }

    /// Read the entire logical file into a vector (test and flatten helper).
    pub fn read_all(&self, b: &dyn Backing) -> Result<Vec<u8>> {
        let mut out = vec![0u8; self.eof() as usize];
        if !out.is_empty() {
            let n = self.pread(b, &mut out, 0)?;
            out.truncate(n);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;
    use crate::container::{create_container, ContainerParams};
    use crate::writer::WriteFile;

    fn setup() -> (MemBacking, ContainerParams) {
        let b = MemBacking::new();
        let p = ContainerParams { num_hostdirs: 4 };
        create_container(&b, "/c", &p, true).unwrap();
        (b, p)
    }

    #[test]
    fn single_writer_roundtrip() {
        let (b, p) = setup();
        let mut w = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        w.write(b"hello ", 0).unwrap();
        w.write(b"world", 6).unwrap();
        w.sync().unwrap();
        let r = ReadFile::open(&b, "/c").unwrap();
        assert_eq!(r.eof(), 11);
        assert_eq!(r.read_all(&b).unwrap(), b"hello world");
    }

    #[test]
    fn interleaved_writers_reassemble() {
        let (b, p) = setup();
        // Six ranks write 4-byte strided records: rank i owns bytes
        // [4i, 4i+4) of every 24-byte row — the Figure 1 pattern.
        let rows = 5u64;
        for pid in 0..6u64 {
            let mut w = WriteFile::open(&b, "/c", &p, pid, 64).unwrap();
            for row in 0..rows {
                let val = [pid as u8 + b'a'; 4];
                w.write(&val, row * 24 + pid * 4).unwrap();
            }
            w.sync().unwrap();
        }
        let r = ReadFile::open(&b, "/c").unwrap();
        assert_eq!(r.eof(), rows * 24);
        let all = r.read_all(&b).unwrap();
        for row in 0..rows as usize {
            assert_eq!(&all[row * 24..row * 24 + 24], b"aaaabbbbccccddddeeeeffff");
        }
    }

    #[test]
    fn latest_write_wins_across_writers() {
        let (b, p) = setup();
        let mut w1 = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        let mut w2 = WriteFile::open(&b, "/c", &p, 2, 64).unwrap();
        w1.write(b"AAAAAAAA", 0).unwrap();
        w2.write(b"BBBB", 2).unwrap();
        w1.write(b"C", 4).unwrap();
        w1.sync().unwrap();
        w2.sync().unwrap();
        let r = ReadFile::open(&b, "/c").unwrap();
        assert_eq!(r.read_all(&b).unwrap(), b"AABBCBAA");
    }

    #[test]
    fn holes_read_as_zeros() {
        let (b, p) = setup();
        let mut w = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        w.write(b"end", 10).unwrap();
        w.sync().unwrap();
        let r = ReadFile::open(&b, "/c").unwrap();
        let mut buf = [0xffu8; 13];
        assert_eq!(r.pread(&b, &mut buf, 0).unwrap(), 13);
        assert_eq!(&buf[..10], &[0u8; 10]);
        assert_eq!(&buf[10..], b"end");
    }

    #[test]
    fn pread_at_or_past_eof_returns_zero() {
        let (b, p) = setup();
        let mut w = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        w.write(b"xyz", 0).unwrap();
        w.sync().unwrap();
        let r = ReadFile::open(&b, "/c").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(r.pread(&b, &mut buf, 3).unwrap(), 0);
        assert_eq!(r.pread(&b, &mut buf, 1000).unwrap(), 0);
    }

    #[test]
    fn short_read_clamps_at_eof() {
        let (b, p) = setup();
        let mut w = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        w.write(b"abcde", 0).unwrap();
        w.sync().unwrap();
        let r = ReadFile::open(&b, "/c").unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(r.pread(&b, &mut buf, 2).unwrap(), 3);
        assert_eq!(&buf[..3], b"cde");
    }

    #[test]
    fn empty_container_reads_empty() {
        let (b, _p) = setup();
        let r = ReadFile::open(&b, "/c").unwrap();
        assert_eq!(r.eof(), 0);
        assert_eq!(r.read_all(&b).unwrap(), b"");
    }

    #[test]
    fn truncated_data_dropping_is_detected() {
        let (b, p) = setup();
        let mut w = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        w.write(b"0123456789", 0).unwrap();
        w.sync().unwrap();
        // Corrupt: shorten the data dropping behind the index's back.
        let dp = container::data_dropping_path("/c", &p, 1, 0);
        b.truncate(&dp, 4).unwrap();
        let r = ReadFile::open(&b, "/c").unwrap();
        let mut buf = [0u8; 10];
        assert!(matches!(r.pread(&b, &mut buf, 0), Err(Error::Corrupt(_))));
    }
}
