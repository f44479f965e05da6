//! The per-pid write path.
//!
//! Every writer pid owns a data dropping and an index dropping — in its
//! hostdir, or, for the writer that made the container, in the container
//! directory itself, its data dropping made by the open that made the
//! container (see [`crate::container`]). A logical
//! `write(buf, offset)` becomes:
//!
//! 1. write `buf` at the tail of the data dropping, one `pwrite` at the
//!    offset the writer tracks (sequential on disk — the log-structured
//!    half of PLFS), and
//! 2. buffer an [`IndexEntry`] recording where those bytes logically belong,
//!    flushed to the index dropping when the buffer fills or on sync/close —
//!    one `pwrite` at the index dropping's tail, which the writer tracks too.
//!
//! An overwrite of bytes the writer already holds, which its fd finds in its
//! read view, replaces them where they lie instead of taking step 1
//! ([`WriteFile::overwrite_in_place`]); step 2 is the same.
//!
//! The creator's top-level index dropping is not created until something
//! needs it: close creates it under its closed name
//! `dropping.index.creator.0.<eof>.<bytes>`, with no `rename`; a full
//! buffer, a sync or a truncate before that creates it under its open name,
//! and close then renames it (see [`crate::container`]). A creator every
//! one of whose records maps a logical offset to the same physical offset
//! — it wrote from 0 on, each write at its tail, or over its own bytes in
//! place — closes under the identity spelling `<eof>.i<stamp>` instead
//! ([`container::Closed`]): a reader of the pair alone needs no record.

use crate::backing::{join, Backing, BackingFile};
use crate::container::{self, Closed};
use crate::error::{Error, Result};
use crate::index::{encode_compressed, next_timestamp, IndexEntry};
use std::borrow::Cow;
use std::cell::Cell;
use std::sync::Arc;

/// Default number of buffered index entries before an automatic flush
/// (mirrors the C library's `index_buffer_mbs` knob, expressed in entries).
pub const DEFAULT_INDEX_BUFFER_ENTRIES: usize = 4096;

/// Most bytes of encoded records a thread keeps between flushes.
const RECORDS_KEPT: usize = 64 << 10;

thread_local! {
    /// The buffer this thread encodes index records into for a flush. Kept,
    /// so a flush allocates nothing once the thread has flushed before; one
    /// grown past [`RECORDS_KEPT`] is let go.
    static RECORDS: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// Index entries a writer's buffer has room for at its first write.
const INDEX_BUFFER_START: usize = 64;

/// Minimum strided-run length worth a pattern record (below this, plain
/// records are emitted; a pattern record costs the same 48 bytes).
pub const PATTERN_MIN_RUN: usize = 3;

/// A writer's index dropping: open, or — a top-level pair's, until
/// something needs it — not created yet, and not named.
enum IndexDropping {
    Open(Box<dyn BackingFile>),
    Deferred(Arc<dyn Backing>),
}

/// An open write stream for one `(container, pid)` pair.
pub struct WriteFile {
    data: Box<dyn BackingFile>,
    index: IndexDropping,
    data_path: String,
    /// Empty while the index dropping is [`IndexDropping::Deferred`].
    index_path: String,
    /// The creator's pair, in the container directory: its index dropping's
    /// name is its lifecycle, and it has no `open.*`/`meta.*` names.
    top_level: bool,
    pid: u64,
    /// The number in this writer's lifecycle names, unique to it among
    /// its pid's: its dropping pair's, until `mark_open` bumps it.
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
    /// Where the data dropping's next bytes go: its tail, which this writer
    /// alone moves — it created the dropping exclusively.
    tail: u64,
    /// The same for the index dropping's next records.
    index_tail: u64,
    /// Total bytes this writer has written.
    bytes_written: u64,
    /// Highest logical end offset this writer has produced.
    max_eof: u64,
    /// `(max_eof, bytes_written)` as of the last index flush: what the
    /// records on the index dropping account for, which a close whose
    /// sync failed publishes.
    flushed: (u64, u64),
    /// Every entry logged so far maps a logical offset to the same physical
    /// offset: the identity spelling's condition.
    identity: bool,
    /// The stamp of the newest entry logged; 0 before the first.
    newest: u64,
    /// Count of index flushes (exposed for tests and the bench harness).
    index_flushes: u64,
    /// On-disk records emitted (≤ writes, thanks to pattern compression).
    index_records: u64,
}

impl WriteFile {
    /// Create the next free dropping pair for `pid` in its hostdir (made
    /// if need be), with an explicit index buffer depth. Nothing drains a
    /// bare stream's entries into a read view, so it does not track them.
    pub fn create(
        b: &dyn Backing,
        container: &str,
        pid: u64,
        buffer_limit: usize,
    ) -> Result<WriteFile> {
        WriteFile::create_from(b, container, pid, 0, buffer_limit)
    }

    /// [`WriteFile::create`], the pair's number probed for from `seq` up.
    pub(crate) fn create_from(
        b: &dyn Backing,
        container: &str,
        pid: u64,
        seq: u32,
        buffer_limit: usize,
    ) -> Result<WriteFile> {
        container::ensure_hostdir(b, container, pid)?;
        WriteFile::open_prepared(b, container, pid, seq, buffer_limit, false, None)
    }

    /// [`WriteFile::create`], for the benchmark harness, which passes
    /// [`crate::Plfs::defaults`] — nothing — as the second argument.
    pub fn open(
        b: &dyn Backing,
        container: &str,
        _defaults: &(),
        pid: u64,
        buffer_limit: usize,
    ) -> Result<WriteFile> {
        WriteFile::create(b, container, pid, buffer_limit)
    }

    /// Open the creator's top-level pair, when `creator` holds its data
    /// dropping (made by the open that made the container) and the backing
    /// to create its index through when something first needs it; else the
    /// first free hostdir pair from number `first` up, trusting the caller
    /// that the pid's hostdir exists (`PlfsFd` makes it ahead of its
    /// writer). With `track`, flushed entries are kept for
    /// [`WriteFile::take_unmerged`].
    pub(crate) fn open_prepared(
        b: &dyn Backing,
        container: &str,
        pid: u64,
        first: u32,
        buffer_limit: usize,
        track: bool,
        creator: Option<(container::CreatorDropping, Arc<dyn Backing>)>,
    ) -> Result<WriteFile> {
        let top_level = creator.is_some();
        let (data, index, data_path, index_path, seq) = match creator {
            // The creator's index waits until something needs it.
            Some((dropping, through)) => {
                let index = IndexDropping::Deferred(through);
                (dropping.file, index, dropping.path, String::new(), 0)
            }
            None => {
                // Probe for the first unused dropping pair with exclusive
                // creates instead of readdir-scanning the whole hostdir —
                // the per-open metadata storm the paper blames for the
                // Lustre open() collapse. A reopen costs `seq + 1` creates
                // and zero readdirs.
                let mut seq = first;
                loop {
                    let dp = container::data_dropping_path(container, pid, seq);
                    let ip = container::index_dropping_path(container, pid, seq);
                    match b.create(&dp, true) {
                        Ok(data) => {
                            let index = IndexDropping::Open(b.create(&ip, true)?);
                            break (data, index, dp, ip, seq);
                        }
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
            top_level,
            pid,
            seq,
            buffered: Vec::new(),
            buffer_limit: buffer_limit.max(1),
            unmerged: Vec::new(),
            track,
            fed: 0,
            tail: 0,
            index_tail: 0,
            bytes_written: 0,
            max_eof: 0,
            flushed: (0, 0),
            identity: true,
            newest: 0,
            index_flushes: 0,
            index_records: 0,
        })
    }

    /// Write `buf` at logical offset `logical`, returning bytes written.
    pub fn write(&mut self, buf: &[u8], logical: u64) -> Result<usize> {
        self.place(buf.len(), logical, |data, at| data.pwrite(buf, at))
    }

    /// Put up to `len` bytes of logical `logical` at the data dropping's
    /// tail and log them as one entry: `mover` is handed the dropping and
    /// the tail's offset, places the bytes there — one positional write, or
    /// the kernel's copy into the dropping's descriptor — and says how
    /// many it placed. Returns that count.
    pub(crate) fn place(
        &mut self,
        len: usize,
        logical: u64,
        mover: impl FnOnce(&dyn BackingFile, u64) -> Result<usize>,
    ) -> Result<usize> {
        if len == 0 {
            return Ok(0);
        }
        // Nothing else appends here: the tail is this writer's alone.
        let physical = self.tail;
        let n = mover(self.data.as_ref(), physical)?;
        if n == 0 {
            return Ok(0);
        }
        self.tail += n as u64;
        self.log(n as u64, logical, physical);
        self.bytes_written += n as u64;
        self.max_eof = self.max_eof.max(logical + n as u64);
        self.flush_if_full()?;
        Ok(n)
    }

    /// Overwrite bytes this writer already holds: `buf` replaces the bytes
    /// of logical `logical` where they lie, at `physical` in the data
    /// dropping, instead of going to the tail. The tail and
    /// [`WriteFile::bytes_written`] stay. Its entry still takes a fresh
    /// stamp, so a merge orders it against every other write exactly as it
    /// would an appended one.
    ///
    /// `view_clock` is the first stamp taken after the owning fd's read
    /// view became current (0 when it is not). An entry stamped with it,
    /// with nothing of this writer's still owed to the view, is already in
    /// that view — it maps the range where it was — and counts as handed
    /// over: returns whether it did.
    pub(crate) fn overwrite_in_place(
        &mut self,
        buf: &[u8],
        logical: u64,
        physical: u64,
        view_clock: u64,
    ) -> Result<bool> {
        self.data.pwrite(buf, physical)?;
        let stamp = self.log(buf.len() as u64, logical, physical);
        let merged =
            stamp == view_clock && self.unmerged.is_empty() && self.fed + 1 == self.buffered.len();
        if merged {
            self.fed += 1;
        }
        self.flush_if_full()?;
        Ok(merged)
    }

    /// Buffer the index entry of `len` bytes of logical `logical` at
    /// `physical`, under a fresh stamp, which it returns.
    fn log(&mut self, len: u64, logical: u64, physical: u64) -> u64 {
        if self.buffered.capacity() == 0 {
            // Sized at the first write for what a small file's writer
            // buffers; one that buffers more grows it, up to the limit,
            // where a flush empties it.
            self.buffered
                .reserve_exact(self.buffer_limit.min(INDEX_BUFFER_START));
        }
        let timestamp = next_timestamp();
        self.identity &= logical == physical;
        self.newest = timestamp;
        self.buffered.push(IndexEntry {
            logical_offset: logical,
            length: len,
            physical_offset: physical,
            // Local id; renumbered globally at index-merge time.
            dropping_id: 0,
            timestamp,
            pid: self.pid,
        });
        timestamp
    }

    fn flush_if_full(&mut self) -> Result<()> {
        if self.buffered.len() >= self.buffer_limit {
            self.flush_index()?;
        }
        Ok(())
    }

    /// The index dropping, created if nothing has needed it before: under
    /// its open name, or — set by [`WriteFile::sync_at_close`] — its
    /// closed one.
    fn index(&mut self) -> Result<&dyn BackingFile> {
        if let IndexDropping::Deferred(b) = &self.index {
            if self.index_path.is_empty() {
                self.index_path = join(self.container(), container::CREATOR_INDEX);
            }
            let created = b.create(&self.index_path, true)?;
            self.index = IndexDropping::Open(created);
        }
        match &self.index {
            IndexDropping::Open(f) => Ok(f.as_ref()),
            IndexDropping::Deferred(_) => unreachable!("created above"),
        }
    }

    /// Write all buffered index records to the index dropping,
    /// pattern-compressing strided runs (Pattern-PLFS): a checkpoint of
    /// thousands of regular strided writes costs one 48-byte record. A
    /// record never reaches disk ahead of its bytes: every entry is
    /// buffered after its data write returned. The records are one
    /// `pwrite` at the tail this writer tracks.
    pub fn flush_index(&mut self) -> Result<()> {
        if self.buffered.is_empty() {
            return Ok(());
        }
        let mut out = RECORDS.take();
        out.clear();
        let records = encode_compressed(&self.buffered, PATTERN_MIN_RUN, &mut out);
        let tail = self.index_tail;
        let written = self
            .index()
            .and_then(|index| index.pwrite(&out, tail).map(drop));
        let len = out.len() as u64;
        if out.capacity() <= RECORDS_KEPT {
            RECORDS.set(out);
        }
        written?;
        self.index_records += records as u64;
        self.index_tail += len;
        self.flushed = (self.max_eof, self.bytes_written);
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
        self.index()?.sync()
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

    /// [`WriteFile::sync`] at close, ahead of [`WriteFile::close_names`]: a
    /// top-level index dropping that nothing has needed yet is created here
    /// under its closed name, so the close costs a `create` and no `rename`.
    pub(crate) fn sync_at_close(&mut self) -> Result<()> {
        if let IndexDropping::Deferred(_) = self.index {
            self.index_path = container::creator_closed_index_path(self.container(), self.closed());
        }
        self.sync()
    }

    /// What this writer's closed top-level index is named for: the identity
    /// spelling while every entry it logged (one at least) mapped a logical
    /// offset to the same physical offset — its data dropping then holds
    /// `[0, eof)` where the file has it — else `<eof>.<bytes>`.
    fn closed(&self) -> Closed {
        match self.identity && self.newest > 0 {
            true => Closed::identity(self.max_eof, self.newest),
            false => Closed::sized(self.max_eof, self.bytes_written),
        }
    }

    /// A truncate is taking this writer's pair away: whatever it closes
    /// under is a name of records the truncate removes, so it takes the
    /// `<eof>.<bytes>` spelling, which claims nothing about them.
    pub(crate) fn truncated(&mut self) {
        self.identity = false;
    }

    /// The container directory a top-level pair sits in.
    fn container(&self) -> &str {
        self.data_path.rsplit_once('/').map_or("/", |(dir, _)| dir)
    }

    /// Leave the names of a closed writer, at most one `rename`: a
    /// top-level pair's index dropping takes its suffix unless it was
    /// created with it (and this writer's [`WriteFile::index_path`] follows
    /// it), a hostdir pair's open marker becomes its `meta.*` drop, which
    /// records what the index dropping holds — after a sync that failed,
    /// the entries of the last flush that succeeded. Call after the last
    /// sync. Returns what a top-level index is now named for: `None` for a
    /// hostdir pair, and for a pair a truncate took away.
    pub(crate) fn close_names(
        &mut self,
        b: &dyn Backing,
        container: &str,
    ) -> Result<Option<Closed>> {
        if !self.top_level {
            let (eof, bytes) = self.flushed;
            container::close_writer(b, container, eof, bytes, self.pid, self.seq)?;
            // Records the drop does not count must not follow it (the
            // drop's last-ditch flush).
            self.buffered.clear();
            return Ok(None);
        }
        let closed = self.closed();
        if let Cow::Owned(path) = container::close_toplevel(b, &self.index_path, closed)? {
            self.index_path = path;
        }
        let name = self.index_path.rsplit_once('/').map_or("", |(_, n)| n);
        let named = container::parse_index_name(name).and_then(|(_, now)| now);
        Ok(named.filter(|&now| now == closed))
    }

    /// Drop a writer that belongs to another process — a forked child's
    /// copy of its parent's — without writing a record: they are the
    /// parent's to write.
    pub(crate) fn abandon(mut self) {
        self.buffered.clear();
    }

    /// Backend path of this writer's data dropping.
    pub fn data_path(&self) -> &str {
        &self.data_path
    }

    /// Backend path of this writer's index dropping; empty for the
    /// creator's top-level pair until its index dropping is named — at its
    /// first flush, or at close.
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
    use crate::container::create_container;
    use crate::index::RECORD_SIZE;

    fn setup() -> MemBacking {
        let b = MemBacking::new();
        create_container(&b, "/c", true).unwrap();
        b
    }

    #[test]
    fn writes_append_sequentially_regardless_of_offset() {
        let b = setup();
        let mut w = WriteFile::create(&b, "/c", 7, 64).unwrap();
        // Backwards logical offsets still append forward physically.
        w.write(b"BBBB", 1000).unwrap();
        w.write(b"AAAA", 0).unwrap();
        w.flush_index().unwrap();
        let dp = container::data_dropping_path("/c", 7, 0);
        let f = b.open(&dp, false).unwrap();
        let mut buf = [0u8; 8];
        f.pread(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"BBBBAAAA", "log order, not logical order");
        assert_eq!(w.bytes_written(), 8);
        assert_eq!(w.max_eof(), 1004);
    }

    #[test]
    fn index_buffer_flushes_at_limit() {
        let b = setup();
        let mut w = WriteFile::create(&b, "/c", 1, 3).unwrap();
        // Irregular offsets so pattern compression stays out of the way.
        for &off in &[0u64, 17, 5, 900, 32, 451, 7] {
            w.write(b"z", off).unwrap();
        }
        // 7 writes with limit 3 => 2 automatic flushes, 1 entry pending.
        assert_eq!(w.index_flushes(), 2);
        let ip = container::index_dropping_path("/c", 1, 0);
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
    /// own) until one pass had the clock to itself. Two such tests take
    /// turns: side by side, each would split the other's every pass.
    fn with_quiet_clock<T>(writes: u64, mut pass: impl FnMut() -> T) -> T {
        static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
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
        let (b, w) = with_quiet_clock(64, || {
            let b = setup();
            let mut w = WriteFile::create(&b, "/c", 1, 4096).unwrap();
            // 64 strided writes (the BT shape): stride 256, length 64.
            for i in 0..64u64 {
                w.write(&[7u8; 64], i * 256).unwrap();
            }
            w.sync().unwrap();
            (b, w)
        });
        assert_eq!(w.index_records(), 1, "one pattern record for the run");
        let ip = container::index_dropping_path("/c", 1, 0);
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
            let b = setup();
            let mut w = WriteFile::create(&b, "/c", 1, 4096).unwrap();
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
        let b = setup();
        let mut w = WriteFile::create(&b, "/c", 1, 4096).unwrap();
        for &(off, len) in &[(0u64, 10usize), (100, 20), (7, 3), (500, 10)] {
            w.write(&vec![2u8; len], off).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(w.index_records(), 4, "no runs, plain records");
    }

    #[test]
    fn reopen_gets_fresh_dropping_pair() {
        let b = setup();
        {
            let mut w = WriteFile::create(&b, "/c", 9, 64).unwrap();
            w.write(b"first", 0).unwrap();
            w.sync().unwrap();
        }
        {
            let mut w = WriteFile::create(&b, "/c", 9, 64).unwrap();
            w.write(b"second", 5).unwrap();
            w.sync().unwrap();
        }
        assert!(b.exists(&container::data_dropping_path("/c", 9, 0)));
        assert!(b.exists(&container::data_dropping_path("/c", 9, 1)));
    }

    /// A top-level writer of pid 9 over the creator's dropping, made here
    /// as the open that made `/c` would have.
    fn creator(b: &Arc<dyn Backing>) -> WriteFile {
        let dropping = container::CreatorDropping::create(b.as_ref(), "/c").unwrap();
        let creator = Some((dropping, Arc::clone(b)));
        WriteFile::open_prepared(b.as_ref(), "/c", 9, 0, 64, false, creator).unwrap()
    }

    #[test]
    fn toplevel_pair_sits_in_the_container_directory_and_closes_by_rename() {
        let b = setup();
        let b: Arc<dyn Backing> = Arc::new(b);
        let mut w = creator(&b);
        w.write(b"first", 10).unwrap();
        w.sync().unwrap();
        let mut names = b.readdir("/c").unwrap();
        names.sort();
        assert_eq!(
            names,
            [
                ".plfsaccess",
                "dropping.data.creator.0",
                "dropping.index.creator.0"
            ],
            "no hostdir, no marker"
        );
        w.close_names(b.as_ref(), "/c").unwrap();
        assert_eq!(w.index_path(), "/c/dropping.index.creator.0.15.5");
        assert_eq!(b.stat(w.index_path()).unwrap().size, RECORD_SIZE as u64);
    }

    /// A top-level index that nothing needs before close is created there,
    /// under its closed name: a `create` and two `sync`s, no `rename`.
    #[test]
    fn toplevel_index_nothing_needed_is_created_closed_at_close() {
        use crate::meter::MeterBacking;
        let mem = setup();
        let meter = Arc::new(MeterBacking::new(Arc::new(mem)));
        let b: Arc<dyn Backing> = meter.clone();
        let before = meter.snapshot();
        let mut w = creator(&b);
        w.write(b"first", 10).unwrap();
        let opened = meter.snapshot().delta(&before);
        assert_eq!(
            (opened.create, opened.metadata_ops()),
            (1, 1),
            "the data dropping, which the open makes: {opened:?}"
        );
        assert_eq!(
            b.readdir("/c").unwrap(),
            [".plfsaccess", "dropping.data.creator.0"]
        );
        let before = meter.snapshot();
        w.sync_at_close().unwrap();
        w.close_names(b.as_ref(), "/c").unwrap();
        let closed = meter.snapshot().delta(&before);
        assert_eq!(
            (closed.create, closed.sync, closed.rename),
            (1, 2, 0),
            "{closed:?}"
        );
        assert_eq!(closed.metadata_ops(), 3, "{closed:?}");
        assert_eq!(w.index_path(), "/c/dropping.index.creator.0.15.5");
        assert_eq!(b.stat(w.index_path()).unwrap().size, RECORD_SIZE as u64);
    }

    /// An index flush is one `pwrite` at the index dropping's tail, as a
    /// data write is.
    #[test]
    fn an_index_flush_is_one_pwrite() {
        use crate::meter::MeterBacking;
        let mem = setup();
        let b = MeterBacking::new(Arc::new(mem));
        let mut w = WriteFile::create(&b, "/c", 3, 2).unwrap();
        let before = b.snapshot();
        // 6 writes, 3 flushes of 2 records each.
        for off in [0u64, 900, 40, 7000, 12, 300] {
            w.write(b"xy", off).unwrap();
        }
        let d = b.snapshot().delta(&before);
        assert_eq!((d.pwrite, d.append), (9, 0));
        assert_eq!(w.index_flushes(), 3);
        let index = b.open(w.index_path(), false).unwrap();
        assert_eq!(index.size().unwrap(), 6 * RECORD_SIZE as u64);
    }

    #[test]
    fn zero_length_write_is_a_noop() {
        let b = setup();
        let mut w = WriteFile::create(&b, "/c", 1, 64).unwrap();
        assert_eq!(w.write(b"", 100).unwrap(), 0);
        w.sync().unwrap();
        assert_eq!(w.bytes_written(), 0);
        assert_eq!(w.max_eof(), 0);
        let ip = container::index_dropping_path("/c", 1, 0);
        assert_eq!(b.stat(&ip).unwrap().size, 0);
    }

    #[test]
    fn drop_flushes_pending_index_entries() {
        let b = setup();
        let ip = container::index_dropping_path("/c", 3, 0);
        {
            let mut w = WriteFile::create(&b, "/c", 3, 1000).unwrap();
            w.write(b"abc", 0).unwrap();
            assert_eq!(b.stat(&ip).unwrap().size, 0, "still buffered");
        }
        assert_eq!(b.stat(&ip).unwrap().size, RECORD_SIZE as u64);
    }

    #[test]
    fn unmerged_entries_drain_once_flushed_or_not() {
        let b = setup();
        container::ensure_hostdir(&b, "/c", 1).unwrap();
        let mut w = WriteFile::open_prepared(&b, "/c", 1, 0, 64, true, None).unwrap();
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
        let ip = container::index_dropping_path("/c", 1, 0);
        assert_eq!(b.stat(&ip).unwrap().size, (4 * RECORD_SIZE) as u64);
        // A bare stream banks nothing: nobody would ever drain it.
        let mut bare = WriteFile::create(&b, "/c", 2, 1).unwrap();
        bare.write(b"qrst", 0).unwrap();
        assert!(bare.unmerged.is_empty() && bare.buffered.is_empty());
    }

    #[test]
    fn a_write_is_one_data_pwrite() {
        use crate::meter::MeterBacking;
        const N: u64 = 50;
        let b = MeterBacking::new(std::sync::Arc::new(MemBacking::new()));
        create_container(&b, "/c", true).unwrap();
        let mut w = WriteFile::create(&b, "/c", 3, 4096).unwrap();
        let before = b.snapshot();
        // Backwards offsets: the log position is the tail, not these.
        for i in 0..N {
            w.write(&[i as u8; 10], (N - i) * 100).unwrap();
        }
        let d = b.snapshot().delta(&before);
        assert_eq!((d.pwrite, d.append), (N, 0));
        assert_eq!(d.metadata_ops(), 0);
        w.sync().unwrap();
        let r = crate::reader::ReadFile::open(&b, "/c").unwrap();
        for i in 0..N {
            let mut buf = [0u8; 10];
            r.pread(&b, &mut buf, (N - i) * 100).unwrap();
            assert_eq!(buf, [i as u8; 10], "write {i}");
        }
        let data = b.open(w.data_path(), false).unwrap();
        assert_eq!(data.size().unwrap(), 10 * N, "log-contiguous");
    }

    #[test]
    fn reopen_does_at_most_one_readdir() {
        use crate::meter::MeterBacking;
        let b = MeterBacking::new(std::sync::Arc::new(MemBacking::new()));
        create_container(&b, "/c", true).unwrap();
        {
            let mut w = WriteFile::create(&b, "/c", 9, 64).unwrap();
            w.write(b"first", 0).unwrap();
            w.sync().unwrap();
        }
        let before = b.snapshot();
        let mut w = WriteFile::create(&b, "/c", 9, 64).unwrap();
        assert!(
            b.snapshot().delta(&before).readdir <= 1,
            "reopen must not scan the hostdir per pid"
        );
        w.write(b"second", 5).unwrap();
        w.sync().unwrap();
        assert!(b.exists(&container::data_dropping_path("/c", 9, 1)));
    }
}
