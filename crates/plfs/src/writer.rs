//! The per-pid write path.
//!
//! Every writer pid owns a data dropping and an index dropping — in its
//! hostdir, or, for the writer that made the container, in the container
//! directory itself (see [`crate::container`]). A logical
//! `write(buf, offset)` becomes:
//!
//! 1. append `buf` to the data dropping (sequential on disk — the
//!    log-structured half of PLFS), and
//! 2. buffer an [`IndexEntry`] recording where those bytes logically belong,
//!    flushed to the index dropping when the buffer fills or on sync/close.
//!
//! [`crate::container::LayoutMode`] varies step 1 for the ablation study:
//! `PartitionedOnly` writes at the logical offset inside the pid's own
//! dropping, and `LogStructured` appends to a single dropping shared by all
//! pids.

use crate::backing::{Backing, BackingFile};
use crate::container::{self, ContainerParams, LayoutMode};
use crate::error::{Error, Result};
use crate::index::{encode_compressed, next_timestamp, IndexEntry};

/// Default number of buffered index entries before an automatic flush
/// (mirrors the C library's `index_buffer_mbs` knob, expressed in entries).
pub const DEFAULT_INDEX_BUFFER_ENTRIES: usize = 4096;

/// Minimum strided-run length worth a pattern record (below this, plain
/// records are emitted; a pattern record costs the same 48 bytes).
pub const PATTERN_MIN_RUN: usize = 3;

/// An open write stream for one `(container, pid)` pair.
pub struct WriteFile {
    data: Box<dyn BackingFile>,
    index: Box<dyn BackingFile>,
    data_path: String,
    index_path: String,
    mode: LayoutMode,
    /// The creator's pair, in the container directory: its index dropping's
    /// name is its lifecycle, and it has no `open.*`/`meta.*` names.
    top_level: bool,
    pid: u64,
    /// The number in this writer's lifecycle names, unique to it among
    /// its pid's: its dropping pair's — or, in log mode where every writer
    /// shares pair 0, the first one free — until `mark_open` bumps it.
    pub(crate) seq: u32,
    buffered: Vec<IndexEntry>,
    buffer_limit: usize,
    /// Entries flushed to disk but not yet folded into the owning fd's
    /// read view — what its next refresh patches in. Only populated when
    /// `track` is on (a readable fd, which drains it on every refresh).
    unmerged: Vec<IndexEntry>,
    track: bool,
    /// Leading entries of `buffered` already handed to the fd's read view
    /// by [`WriteFile::take_unmerged`], ahead of their index flush.
    fed: usize,
    /// Total bytes this writer has written.
    bytes_written: u64,
    /// Highest logical end offset this writer has produced.
    max_eof: u64,
    /// Count of index flushes (exposed for tests and the bench harness).
    index_flushes: u64,
    /// On-disk records emitted (≤ writes, thanks to pattern compression).
    index_records: u64,
}

impl WriteFile {
    /// Open (creating if needed) the dropping pair for `pid` with an
    /// explicit index buffer depth. Nothing drains a bare stream's entries
    /// into a read view, so it does not track them.
    pub fn open(
        b: &dyn Backing,
        container: &str,
        params: &ContainerParams,
        pid: u64,
        buffer_limit: usize,
    ) -> Result<WriteFile> {
        container::ensure_hostdir(b, container, params, pid)?;
        WriteFile::open_prepared(b, container, params, pid, buffer_limit, false, false)
    }

    /// Like [`WriteFile::open`], but trusting the caller that the pid's
    /// hostdir already exists — `PlfsFd` memoizes `ensure_hostdir` per
    /// (container, hostdir), so repeat writers skip the mkdir entirely —
    /// and, with `track`, keeping flushed entries for
    /// [`WriteFile::take_unmerged`]. With `top_level` (the container's
    /// creator; never in log mode) the pair goes in the container directory
    /// and needs no hostdir at all.
    pub(crate) fn open_prepared(
        b: &dyn Backing,
        container: &str,
        params: &ContainerParams,
        pid: u64,
        buffer_limit: usize,
        track: bool,
        top_level: bool,
    ) -> Result<WriteFile> {
        let (data, index, data_path, index_path, seq) = match params.mode {
            LayoutMode::LogStructured => {
                // All pids share dropping pair 0; first creator wins, the
                // rest open for append.
                let dp = container::data_dropping_path(container, params, pid, 0);
                let ip = container::index_dropping_path(container, params, pid, 0);
                let data = match b.create(&dp, true) {
                    Ok(f) => f,
                    Err(Error::Exists(_)) => b.open(&dp, true)?,
                    Err(e) => return Err(e),
                };
                let index = match b.create(&ip, true) {
                    Ok(f) => f,
                    Err(Error::Exists(_)) => b.open(&ip, true)?,
                    Err(e) => return Err(e),
                };
                let seq = container::free_writer_number(b, container, pid)?;
                (data, index, dp, ip, seq)
            }
            _ => {
                // Probe for the first unused dropping pair with exclusive
                // creates instead of readdir-scanning the whole hostdir —
                // the per-open metadata storm the paper blames for the
                // Lustre open() collapse. A reopen costs `seq + 1` creates
                // and zero readdirs.
                let pair = |seq| {
                    if top_level {
                        return container::toplevel_pair_paths(container, pid, seq);
                    }
                    (
                        container::data_dropping_path(container, params, pid, seq),
                        container::index_dropping_path(container, params, pid, seq),
                    )
                };
                let mut seq = 0u32;
                loop {
                    let (dp, ip) = pair(seq);
                    match b.create(&dp, true) {
                        Ok(data) => break (data, b.create(&ip, true)?, dp, ip, seq),
                        Err(Error::Exists(_)) => seq += 1,
                        Err(e) => return Err(e),
                    }
                }
            }
        };
        Ok(WriteFile {
            data,
            index,
            data_path,
            index_path,
            mode: params.mode,
            top_level,
            pid,
            seq,
            buffered: Vec::new(),
            buffer_limit: buffer_limit.max(1),
            unmerged: Vec::new(),
            track,
            fed: 0,
            bytes_written: 0,
            max_eof: 0,
            index_flushes: 0,
            index_records: 0,
        })
    }

    /// Write `buf` at logical offset `logical`, returning bytes written.
    pub fn write(&mut self, buf: &[u8], logical: u64) -> Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let physical = match self.mode {
            LayoutMode::Both | LayoutMode::LogStructured => self.data.append(buf)?,
            LayoutMode::PartitionedOnly => {
                self.data.pwrite(buf, logical)?;
                logical
            }
        };
        self.buffered.push(IndexEntry {
            logical_offset: logical,
            length: buf.len() as u64,
            physical_offset: physical,
            // Local id; renumbered globally at index-merge time.
            dropping_id: 0,
            timestamp: next_timestamp(),
            pid: self.pid,
        });
        self.bytes_written += buf.len() as u64;
        self.max_eof = self.max_eof.max(logical + buf.len() as u64);
        if self.buffered.len() >= self.buffer_limit {
            self.flush_index()?;
        }
        Ok(buf.len())
    }

    /// Append all buffered index records to the index dropping,
    /// pattern-compressing strided runs (Pattern-PLFS): a checkpoint of
    /// thousands of regular strided writes costs one 48-byte record. A
    /// record never reaches disk ahead of its bytes: every entry is
    /// buffered after its data append returned.
    pub fn flush_index(&mut self) -> Result<()> {
        if self.buffered.is_empty() {
            return Ok(());
        }
        let mut out = Vec::with_capacity(self.buffered.len() * crate::index::RECORD_SIZE);
        let records = encode_compressed(&self.buffered, PATTERN_MIN_RUN, &mut out);
        self.index_records += records as u64;
        self.index.append(&out)?;
        if self.track {
            self.unmerged.extend_from_slice(&self.buffered[self.fed..]);
        }
        self.fed = 0;
        self.buffered.clear();
        self.index_flushes += 1;
        Ok(())
    }

    /// Flush the index and sync both droppings to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        self.flush_index()?;
        self.data.sync()?;
        self.index.sync()
    }

    /// Drain the entries written since the last drain (what a refresh
    /// patches into the fd's read view). Their bytes are on the backing
    /// store; their index records may still be buffered — a read view needs
    /// the bytes, not the records, and index durability stays at
    /// buffer-full, sync and close.
    pub(crate) fn take_unmerged(&mut self) -> Vec<IndexEntry> {
        let mut out = std::mem::take(&mut self.unmerged);
        out.extend_from_slice(&self.buffered[self.fed..]);
        self.fed = self.buffered.len();
        out
    }

    /// Does this writer hold the container's top-level pair?
    pub(crate) fn top_level(&self) -> bool {
        self.top_level
    }

    /// Leave the names of a closed writer, one `rename` either way: a
    /// top-level pair's index dropping takes its suffix (and this writer's
    /// [`WriteFile::index_path`] follows it), a hostdir pair's open marker
    /// becomes its `meta.*` drop. Call after the last [`WriteFile::sync`].
    pub(crate) fn close_names(&mut self, b: &dyn Backing, container: &str) -> Result<()> {
        let (eof, bytes) = (self.max_eof, self.bytes_written);
        if self.top_level {
            self.index_path = container::close_toplevel(b, &self.index_path, eof, bytes)?;
            Ok(())
        } else {
            container::close_writer(b, container, eof, bytes, self.pid, self.seq)
        }
    }

    /// Backend path of this writer's data dropping.
    pub fn data_path(&self) -> &str {
        &self.data_path
    }

    /// Backend path of this writer's index dropping.
    pub fn index_path(&self) -> &str {
        &self.index_path
    }

    /// Total bytes written through this stream.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Highest logical end offset produced by this stream.
    pub fn max_eof(&self) -> u64 {
        self.max_eof
    }

    /// Number of index flushes performed so far.
    pub fn index_flushes(&self) -> u64 {
        self.index_flushes
    }

    /// Always 0: every write is its own backing append. The frozen
    /// benchmark harness's `plfs.writer.data_flushes` row reads this; it
    /// goes with that row in the next `[benchmark]` PR.
    pub fn data_flushes(&self) -> u64 {
        0
    }

    /// On-disk index records emitted so far (pattern compression makes
    /// this ≤ the number of writes).
    pub fn index_records(&self) -> u64 {
        self.index_records
    }

    /// Writer pid.
    pub fn pid(&self) -> u64 {
        self.pid
    }
}

impl Drop for WriteFile {
    fn drop(&mut self) {
        // Last-ditch index flush; close paths flush explicitly so errors
        // here have already been surfaced in normal operation.
        let _ = self.flush_index();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;
    use crate::container::{create_container, ContainerParams};
    use crate::index::RECORD_SIZE;

    fn setup(mode: LayoutMode) -> (MemBacking, ContainerParams) {
        let b = MemBacking::new();
        let params = ContainerParams {
            num_hostdirs: 4,
            mode,
        };
        create_container(&b, "/c", &params, true).unwrap();
        (b, params)
    }

    #[test]
    fn writes_append_sequentially_regardless_of_offset() {
        let (b, p) = setup(LayoutMode::Both);
        let mut w = WriteFile::open(&b, "/c", &p, 7, 64).unwrap();
        // Backwards logical offsets still append forward physically.
        w.write(b"BBBB", 1000).unwrap();
        w.write(b"AAAA", 0).unwrap();
        w.flush_index().unwrap();
        let dp = container::data_dropping_path("/c", &p, 7, 0);
        let f = b.open(&dp, false).unwrap();
        let mut buf = [0u8; 8];
        f.pread(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"BBBBAAAA", "log order, not logical order");
        assert_eq!(w.bytes_written(), 8);
        assert_eq!(w.max_eof(), 1004);
    }

    #[test]
    fn partitioned_only_writes_at_logical_offset() {
        let (b, p) = setup(LayoutMode::PartitionedOnly);
        let mut w = WriteFile::open(&b, "/c", &p, 7, 64).unwrap();
        w.write(b"XY", 10).unwrap();
        w.flush_index().unwrap();
        let dp = container::data_dropping_path("/c", &p, 7, 0);
        let f = b.open(&dp, false).unwrap();
        assert_eq!(f.size().unwrap(), 12, "sparse file up to logical end");
        let mut buf = [0u8; 2];
        f.pread(&mut buf, 10).unwrap();
        assert_eq!(&buf, b"XY");
    }

    #[test]
    fn index_buffer_flushes_at_limit() {
        let (b, p) = setup(LayoutMode::Both);
        let mut w = WriteFile::open(&b, "/c", &p, 1, 3).unwrap();
        // Irregular offsets so pattern compression stays out of the way.
        for &off in &[0u64, 17, 5, 900, 32, 451, 7] {
            w.write(b"z", off).unwrap();
        }
        // 7 writes with limit 3 => 2 automatic flushes, 1 entry pending.
        assert_eq!(w.index_flushes(), 2);
        let ip = container::index_dropping_path("/c", &p, 1, 0);
        assert_eq!(
            b.stat(&ip).unwrap().size,
            (6 * RECORD_SIZE) as u64,
            "6 records on disk"
        );
        w.sync().unwrap();
        assert_eq!(b.stat(&ip).unwrap().size, (7 * RECORD_SIZE) as u64);
    }

    /// The write clock is process-wide and tests run on parallel threads:
    /// another test's write landing between two of ours splits a pattern
    /// run. Repeat `pass` (which makes `writes` writes on a container of its
    /// own) until one pass had the clock to itself.
    fn with_quiet_clock<T>(writes: u64, mut pass: impl FnMut() -> T) -> T {
        for _ in 0..1000 {
            let t0 = next_timestamp();
            let out = pass();
            if next_timestamp() == t0 + writes + 1 {
                return out;
            }
        }
        panic!("the write clock was never quiet for {writes} writes");
    }

    #[test]
    fn strided_run_compresses_to_one_record() {
        let (b, p, w) = with_quiet_clock(64, || {
            let (b, p) = setup(LayoutMode::Both);
            let mut w = WriteFile::open(&b, "/c", &p, 1, 4096).unwrap();
            // 64 strided writes (the BT shape): stride 256, length 64.
            for i in 0..64u64 {
                w.write(&[7u8; 64], i * 256).unwrap();
            }
            w.sync().unwrap();
            (b, p, w)
        });
        assert_eq!(w.index_records(), 1, "one pattern record for the run");
        let ip = container::index_dropping_path("/c", &p, 1, 0);
        assert_eq!(b.stat(&ip).unwrap().size, RECORD_SIZE as u64);
        // And it reads back exactly.
        let r = crate::reader::ReadFile::open(&b, "/c").unwrap();
        for i in 0..64u64 {
            let mut buf = [0u8; 64];
            assert_eq!(r.pread(&b, &mut buf, i * 256).unwrap(), 64);
            assert!(buf.iter().all(|&x| x == 7));
        }
    }

    #[test]
    fn sequential_appends_also_compress() {
        let w = with_quiet_clock(100, || {
            let (b, p) = setup(LayoutMode::Both);
            let mut w = WriteFile::open(&b, "/c", &p, 1, 4096).unwrap();
            for i in 0..100u64 {
                w.write(&[1u8; 128], i * 128).unwrap();
            }
            w.sync().unwrap();
            w
        });
        assert_eq!(w.index_records(), 1, "contiguous run is stride==length");
    }

    #[test]
    fn irregular_writes_do_not_compress() {
        let (b, p) = setup(LayoutMode::Both);
        let mut w = WriteFile::open(&b, "/c", &p, 1, 4096).unwrap();
        for &(off, len) in &[(0u64, 10usize), (100, 20), (7, 3), (500, 10)] {
            w.write(&vec![2u8; len], off).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.index_records(), 4, "no runs, plain records");
    }

    #[test]
    fn reopen_gets_fresh_dropping_pair() {
        let (b, p) = setup(LayoutMode::Both);
        {
            let mut w = WriteFile::open(&b, "/c", &p, 9, 64).unwrap();
            w.write(b"first", 0).unwrap();
            w.sync().unwrap();
        }
        {
            let mut w = WriteFile::open(&b, "/c", &p, 9, 64).unwrap();
            w.write(b"second", 5).unwrap();
            w.sync().unwrap();
        }
        assert!(b.exists(&container::data_dropping_path("/c", &p, 9, 0)));
        assert!(b.exists(&container::data_dropping_path("/c", &p, 9, 1)));
    }

    #[test]
    fn toplevel_pair_sits_in_the_container_directory_and_closes_by_rename() {
        let (b, p) = setup(LayoutMode::Both);
        let mut w = WriteFile::open_prepared(&b, "/c", &p, 9, 64, false, true).unwrap();
        w.write(b"first", 10).unwrap();
        w.sync().unwrap();
        let mut names = b.readdir("/c").unwrap();
        names.sort();
        assert_eq!(
            names,
            [".plfsaccess", "dropping.data.9.0", "dropping.index.9.0"],
            "no hostdir, no marker"
        );
        w.close_names(&b, "/c").unwrap();
        assert_eq!(w.index_path(), "/c/dropping.index.9.0.15.5");
        assert_eq!(b.stat(w.index_path()).unwrap().size, RECORD_SIZE as u64);
        // A second pair of the pid beside it: the data name is the arbiter.
        let again = WriteFile::open_prepared(&b, "/c", &p, 9, 64, false, true).unwrap();
        assert_eq!(again.index_path(), "/c/dropping.index.9.1");
    }

    #[test]
    fn log_mode_shares_one_data_dropping() {
        let (b, p) = setup(LayoutMode::LogStructured);
        let mut w1 = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        let mut w2 = WriteFile::open(&b, "/c", &p, 2, 64).unwrap();
        w1.write(b"one", 0).unwrap();
        w2.write(b"two", 3).unwrap();
        w1.sync().unwrap();
        w2.sync().unwrap();
        let droppings = container::list_droppings(&b, "/c").unwrap();
        assert_eq!(droppings.len(), 1, "one shared data dropping");
        let f = b.open(&droppings[0].data_path, false).unwrap();
        assert_eq!(f.size().unwrap(), 6);
    }

    #[test]
    fn zero_length_write_is_a_noop() {
        let (b, p) = setup(LayoutMode::Both);
        let mut w = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        assert_eq!(w.write(b"", 100).unwrap(), 0);
        w.sync().unwrap();
        assert_eq!(w.bytes_written(), 0);
        assert_eq!(w.max_eof(), 0);
        let ip = container::index_dropping_path("/c", &p, 1, 0);
        assert_eq!(b.stat(&ip).unwrap().size, 0);
    }

    #[test]
    fn drop_flushes_pending_index_entries() {
        let (b, p) = setup(LayoutMode::Both);
        let ip = container::index_dropping_path("/c", &p, 3, 0);
        {
            let mut w = WriteFile::open(&b, "/c", &p, 3, 1000).unwrap();
            w.write(b"abc", 0).unwrap();
            assert_eq!(b.stat(&ip).unwrap().size, 0, "still buffered");
        }
        assert_eq!(b.stat(&ip).unwrap().size, RECORD_SIZE as u64);
    }

    #[test]
    fn unmerged_entries_drain_once_flushed_or_not() {
        let (b, p) = setup(LayoutMode::Both);
        container::ensure_hostdir(&b, "/c", &p, 1).unwrap();
        let mut w = WriteFile::open_prepared(&b, "/c", &p, 1, 64, true, false).unwrap();
        // Irregular offsets: pattern compression stays out of the way.
        w.write(b"abcd", 100).unwrap();
        w.write(b"efgh", 7).unwrap();
        // Drained ahead of the index flush: the index dropping stays empty.
        let ents = w.take_unmerged();
        assert_eq!(ents.len(), 2);
        assert_eq!((ents[0].logical_offset, ents[0].physical_offset), (100, 0));
        assert_eq!((ents[1].logical_offset, ents[1].physical_offset), (7, 4));
        assert_eq!(w.index_flushes(), 0);
        assert!(w.take_unmerged().is_empty(), "drain is destructive");
        // A flush does not hand the same entries out again, and entries
        // flushed before a drain are still owed to it.
        w.write(b"ijkl", 50).unwrap();
        w.flush_index().unwrap();
        w.write(b"mnop", 900).unwrap();
        let ents = w.take_unmerged();
        assert_eq!(
            ents.iter().map(|e| e.logical_offset).collect::<Vec<_>>(),
            [50, 900]
        );
        w.sync().unwrap();
        assert!(w.take_unmerged().is_empty());
        let ip = container::index_dropping_path("/c", &p, 1, 0);
        assert_eq!(b.stat(&ip).unwrap().size, (4 * RECORD_SIZE) as u64);
        // A bare stream banks nothing: nobody would ever drain it.
        let mut bare = WriteFile::open(&b, "/c", &p, 2, 1).unwrap();
        bare.write(b"qrst", 0).unwrap();
        assert!(bare.unmerged.is_empty() && bare.buffered.is_empty());
    }

    #[test]
    fn reopen_does_at_most_one_readdir() {
        use crate::meter::MeterBacking;
        let b = MeterBacking::new(std::sync::Arc::new(MemBacking::new()));
        let p = ContainerParams {
            num_hostdirs: 4,
            mode: LayoutMode::Both,
        };
        create_container(&b, "/c", &p, true).unwrap();
        {
            let mut w = WriteFile::open(&b, "/c", &p, 9, 64).unwrap();
            w.write(b"first", 0).unwrap();
            w.sync().unwrap();
        }
        let before = b.snapshot();
        let mut w = WriteFile::open(&b, "/c", &p, 9, 64).unwrap();
        assert!(
            b.snapshot().delta(&before).readdir <= 1,
            "reopen must not scan the hostdir per pid"
        );
        w.write(b"second", 5).unwrap();
        w.sync().unwrap();
        assert!(b.exists(&container::data_dropping_path("/c", &p, 9, 1)));
    }
}
