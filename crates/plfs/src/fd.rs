//! `Plfs_fd`: the open-file state machine.
//!
//! Mirrors the C library's `Plfs_fd`: one struct per open logical file,
//! reference-counted per pid (the ROMIO driver opens once and adds a
//! reference per rank), holding one [`WriteFile`] per writing pid and a
//! lazily built, write-invalidated [`ReadFile`].
//!
//! The write path is concurrent (the write-side twin of the sharded read
//! path):
//!
//! - **Per-pid writer sharding.** The pid → [`WriteFile`] table is split
//!   over [`WRITER_SHARDS`] id-hashed lock shards, so N ranks writing one
//!   fd only contend when their pids collide in a shard.
//! - **O(1) EOF.** A cached atomic max-EOF is bumped on every write, so
//!   `append()` and `size()` answer without an index merge; the merge (or
//!   a patch) happens only on actual reads.
//! - **Read view patched in place.** A readable fd keeps one long-lived
//!   read view; a post-write read patches it with this process's fresh
//!   entries — O(k log n), open dropping handles kept — instead of
//!   re-reading every dropping. Readers share the view lock; only the
//!   refresh takes it exclusively. A write-only fd has no reads to serve,
//!   so its writers track nothing.
//!
//! EOF coherence is per-fd, as in the C library: ranks sharing this fd see
//! each other's appends atomically; a *different* fd (or process) appending
//! to the same container concurrently is not serialized against this one.

use crate::backing::Backing;
use crate::conf::Conf;
use crate::container::{self, ContainerParams};
use crate::error::{Error, Result};
use crate::flags::OpenFlags;
use crate::index::IndexEntry;
use crate::meta::MetaCache;
use crate::reader::ReadFile;
use crate::writer::WriteFile;
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One lock shard of the pid → writer table.
type WriterShard = Mutex<HashMap<u64, WriteFile>>;

/// Lock shards of the pid → writer table.
pub const WRITER_SHARDS: usize = 16;

/// Extents per internal [`PlfsFd::write_list`] batch, so one huge vector
/// cannot pin an unbounded index-entry buffer.
pub const LIST_BATCH_EXTENTS: usize = 1024;

/// Entries of writers that have since closed, still owed to the next
/// refresh of the read view, keyed by their data-dropping path.
type Orphans = Vec<(String, Vec<IndexEntry>)>;

/// A shared hold on the fd's read view; exists only over a built view.
struct View<'a>(RwLockReadGuard<'a, Option<ReadFile>>);

impl std::ops::Deref for View<'_> {
    type Target = ReadFile;
    fn deref(&self) -> &ReadFile {
        self.0.as_ref().expect("View wraps a built read view")
    }
}

/// An open PLFS file (the Rust analogue of `Plfs_fd`).
pub struct PlfsFd {
    backing: Arc<dyn Backing>,
    container: String,
    params: ContainerParams,
    flags: OpenFlags,
    conf: Conf,
    /// Process-wide container metadata cache, shared with the owning
    /// [`crate::api::Plfs`] (absent for directly constructed fds and when
    /// caching is off). The fd keeps its writer counts and fast-stat
    /// verdicts honest as writers come and go.
    cache: Option<Arc<MetaCache>>,
    /// This fd's open made the container, and no writer has been opened
    /// through it yet: the first one takes the top-level dropping pair.
    creator: AtomicBool,
    /// Hostdir ids already known to exist — `ensure_hostdir` runs once per
    /// (container, hostdir) instead of once per writer open. Cleared by
    /// [`PlfsFd::reset_writers`], since truncate removes hostdir trees.
    hostdirs_ready: Mutex<HashSet<u32>>,
    /// Per-pid write streams behind id-hashed lock shards: pids are dense
    /// (MPI ranks), so the modulus spreads them evenly.
    shards: [WriterShard; WRITER_SHARDS],
    refs: Mutex<HashMap<u64, u32>>,
    /// The one long-lived read view: built by the first read, patched in
    /// place by reads after writes, dropped by truncate. Lock order: this,
    /// then writer shard locks, then the view's handle-cache shards.
    reader: RwLock<Option<ReadFile>>,
    orphans: Mutex<Orphans>,
    /// Set on every write; the next read flushes the writers and refreshes
    /// the read view so reads observe this process's own writes
    /// (read-your-writes, as LDPLFS needs for the UNIX-tool use case).
    dirty: AtomicBool,
    /// Cached logical EOF: the max over everything this fd has written and
    /// (once seeded) the container's on-disk EOF at open.
    eof: AtomicU64,
    eof_seeded: AtomicBool,
}

impl PlfsFd {
    pub(crate) fn new(
        backing: Arc<dyn Backing>,
        container: String,
        params: ContainerParams,
        flags: OpenFlags,
        conf: &Conf,
        pid: u64,
    ) -> PlfsFd {
        let mut refs = HashMap::new();
        refs.insert(pid, 1);
        PlfsFd {
            backing,
            container,
            params,
            flags,
            conf: conf.validated(),
            cache: None,
            creator: AtomicBool::new(false),
            hostdirs_ready: Mutex::new(HashSet::new()),
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            refs: Mutex::new(refs),
            reader: RwLock::new(None),
            orphans: Mutex::new(Vec::new()),
            dirty: AtomicBool::new(false),
            eof: AtomicU64::new(0),
            eof_seeded: AtomicBool::new(false),
        }
    }

    /// Attach the process-wide metadata cache this fd keeps current.
    pub(crate) fn with_meta_cache(mut self, cache: Arc<MetaCache>) -> PlfsFd {
        self.cache = Some(cache);
        self
    }

    /// Mark this fd as the one whose open made the container
    /// ([`container::Creation::Made`]).
    pub(crate) fn into_creator(mut self) -> PlfsFd {
        self.creator = AtomicBool::new(true);
        self
    }

    /// The configuration this fd runs under.
    pub fn conf(&self) -> &Conf {
        &self.conf
    }

    /// Backend path of the container.
    pub fn container_path(&self) -> &str {
        &self.container
    }

    /// Flags the file was opened with.
    pub fn flags(&self) -> OpenFlags {
        self.flags
    }

    /// Layout parameters of the container.
    pub fn params(&self) -> ContainerParams {
        self.params
    }

    /// Add a reference for `pid` (another opener sharing this fd).
    pub fn add_ref(&self, pid: u64) {
        let mut refs = self.refs.lock();
        *refs.entry(pid).or_insert(0) += 1;
    }

    /// Total outstanding references across all pids.
    pub fn ref_count(&self) -> u32 {
        self.refs.lock().values().sum()
    }

    fn shard(&self, pid: u64) -> &WriterShard {
        &self.shards[pid as usize % WRITER_SHARDS]
    }

    /// Write `buf` at `offset` on behalf of `pid`. Only `pid`'s shard is
    /// locked: ranks in distinct shards write concurrently.
    pub fn write(&self, buf: &[u8], offset: u64, pid: u64) -> Result<usize> {
        if !self.flags.writable() {
            return Err(Error::BadMode("file not open for writing"));
        }
        let mut shard = self.shard(pid).lock();
        // plfs-lint: allow(lock-across-io, "intentional: the per-pid shard lock IS the write path's serialization point — I/O under it blocks only this rank's shard while other ranks write through their own shards")
        self.write_sharded(&mut shard, buf, offset, pid)
    }

    /// Atomically resolve the current EOF and write `buf` there on behalf
    /// of `pid` (the `O_APPEND` contract). Returns `(offset, written)`.
    ///
    /// The fast path: a `fetch_add` on the cached EOF reserves a disjoint
    /// `[offset, offset + len)` slot for this append, so concurrent
    /// appenders never overlap and no index merge runs — traced as
    /// `append_fastpath`. The EOF cache is seeded once per fd from the
    /// container's on-disk index.
    pub fn append(&self, buf: &[u8], pid: u64) -> Result<(u64, usize)> {
        if !self.flags.writable() {
            return Err(Error::BadMode("file not open for writing"));
        }
        self.ensure_eof_seeded()?;
        let t0 = iotrace::global().start();
        // relaxed: only the atomicity of the add matters: it reserves a disjoint [offset, offset+len) slot; the data itself is published under the writer shard lock
        let offset = self.eof.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let n = {
            let mut shard = self.shard(pid).lock();
            // plfs-lint: allow(lock-across-io, "intentional: append lands the reserved slot through the same per-pid shard serialization as write; only this rank's shard blocks")
            self.write_sharded(&mut shard, buf, offset, pid)?
        };
        if let Some(t0) = t0 {
            iotrace::global().record(
                t0,
                iotrace::OpEvent::new(iotrace::Layer::Plfs, iotrace::OpKind::AppendFastpath)
                    .path(&self.container)
                    .offset(offset)
                    .bytes(n as u64),
            );
        }
        Ok((offset, n))
    }

    /// Write a noncontiguous extent vector on behalf of `pid`: `data` is
    /// consumed sequentially, `extents[i] = (logical_offset, len)` places
    /// the next `len` bytes. The log-structured write path makes this
    /// nearly free: every extent appends to `pid`'s data dropping, and the
    /// whole batch is flushed as **one** index-record write (chunked at
    /// [`LIST_BATCH_EXTENTS`]), letting pattern compression fold strided
    /// runs across extents into single records. Extents may overlap or
    /// arrive out of order — later extents win, exactly as a sequence of
    /// single-extent [`PlfsFd::write`] calls would. Returns total bytes
    /// written.
    pub fn write_list(&self, data: &[u8], extents: &[(u64, u64)], pid: u64) -> Result<usize> {
        if !self.flags.writable() {
            return Err(Error::BadMode("file not open for writing"));
        }
        let need: u64 = extents.iter().map(|&(_, len)| len).sum();
        if need > data.len() as u64 {
            return Err(Error::InvalidArg("write_list data shorter than extents"));
        }
        let t0 = iotrace::global().start();
        let mut pos = 0usize;
        let mut total = 0usize;
        for batch in extents.chunks(LIST_BATCH_EXTENTS) {
            // One shard-lock acquisition and one index flush per batch: the
            // extents land back-to-back in the data dropping and their index
            // entries leave as a single batched record write.
            let mut shard = self.shard(pid).lock();
            for &(off, len) in batch {
                total +=
                    // plfs-lint: allow(lock-across-io, "intentional: batched list-I/O holds the per-pid shard across the batch on purpose — one lock acquisition and one index flush per batch is the whole point")
                    self.write_sharded(&mut shard, &data[pos..pos + len as usize], off, pid)?;
                pos += len as usize;
            }
            // No writer yet: every extent so far was zero-length.
            if let Some(w) = shard.get_mut(&pid) {
                w.flush_index()?;
            }
        }
        if let Some(t0) = t0 {
            iotrace::global().record(
                t0,
                iotrace::OpEvent::new(iotrace::Layer::Plfs, iotrace::OpKind::ListWrite)
                    .path(&self.container)
                    .offset(extents.first().map(|&(o, _)| o).unwrap_or(0))
                    .bytes(total as u64),
            );
        }
        Ok(total)
    }

    /// Read a noncontiguous extent vector: `extents[i] = (logical_offset,
    /// len)` fills the next `len` bytes of `data`. One merged-index
    /// query serves the whole vector — the read view is resolved once and
    /// each extent reuses it. Short reads at EOF behave exactly like a
    /// sequence of single-extent [`PlfsFd::read`] calls: the extent's slice
    /// is part-filled and later extents are still attempted. Returns total
    /// bytes read.
    pub fn read_list(&self, data: &mut [u8], extents: &[(u64, u64)]) -> Result<usize> {
        if !self.flags.readable() {
            return Err(Error::BadMode("file not open for reading"));
        }
        let need: u64 = extents.iter().map(|&(_, len)| len).sum();
        if need > data.len() as u64 {
            return Err(Error::InvalidArg("read_list buffer shorter than extents"));
        }
        let t0 = iotrace::global().start();
        let reader = self.reader()?;
        let mut pos = 0usize;
        let mut total = 0usize;
        for &(off, len) in extents {
            total += reader.pread(
                self.backing.as_ref(),
                &mut data[pos..pos + len as usize],
                off,
            )?;
            pos += len as usize;
        }
        if let Some(t0) = t0 {
            iotrace::global().record(
                t0,
                iotrace::OpEvent::new(iotrace::Layer::Plfs, iotrace::OpKind::ListRead)
                    .path(&self.container)
                    .offset(extents.first().map(|&(o, _)| o).unwrap_or(0))
                    .bytes(total as u64),
            );
        }
        Ok(total)
    }

    fn write_sharded(
        &self,
        shard: &mut HashMap<u64, WriteFile>,
        buf: &[u8],
        offset: u64,
        pid: u64,
    ) -> Result<usize> {
        if buf.is_empty() {
            // POSIX: a zero-length write changes nothing — in particular
            // not the EOF, which `offset + 0` below would have raised.
            return Ok(0);
        }
        if let std::collections::hash_map::Entry::Vacant(e) = shard.entry(pid) {
            // The creator's first writer, and only that one: whatever else
            // happens to this fd (a failed open, a truncate) the rest get
            // hostdir pairs. Log mode shares one pair among all writers.
            let top_level = self.params.mode != container::LayoutMode::LogStructured
                // relaxed: a one-shot token; the swap's atomicity is all it needs, it publishes nothing
                && self.creator.swap(false, Ordering::Relaxed);
            if !top_level {
                self.ensure_hostdir_once(pid)?;
            }
            let mut w = WriteFile::open_prepared(
                self.backing.as_ref(),
                &self.container,
                &self.params,
                pid,
                self.conf.index_buffer_entries,
                self.flags.readable(),
                top_level,
            )?;
            self.note_writer_open(&mut w)?;
            e.insert(w);
        }
        let n = shard.get_mut(&pid).unwrap().write(buf, offset)?;
        // relaxed: EOF cache is a monotonic high-water mark; readers that miss this max re-derive EOF from the merged index
        self.eof.fetch_max(offset + n as u64, Ordering::Relaxed);
        self.dirty.store(true, Ordering::Relaxed); // relaxed: flag only schedules a reader refresh; index data is published by the shard lock release
        Ok(n)
    }

    /// Run `ensure_hostdir` for `pid`'s hostdir at most once per fd: after
    /// the first writer lands there, the mkdir is pure metadata overhead
    /// on every later writer open.
    fn ensure_hostdir_once(&self, pid: u64) -> Result<()> {
        let hd = match self.params.mode {
            container::LayoutMode::LogStructured => 0,
            _ => container::hostdir_for_pid(pid, self.params.num_hostdirs),
        };
        if self.hostdirs_ready.lock().contains(&hd) {
            return Ok(());
        }
        container::ensure_hostdir(self.backing.as_ref(), &self.container, &self.params, pid)?;
        self.hostdirs_ready.lock().insert(hd);
        Ok(())
    }

    /// Record a new writer: place the open marker of its dropping pair —
    /// one per pair, so every fd and pid keeps its own, visible to any
    /// process listing the container; a top-level pair's index dropping
    /// already is one — and bump the cached writer count.
    fn note_writer_open(&self, w: &mut WriteFile) -> Result<()> {
        if !w.top_level() {
            let t0 = iotrace::global().start();
            w.seq = container::mark_open(self.backing.as_ref(), &self.container, w.pid(), w.seq)?;
            self.trace_marker(t0);
        }
        // Count the writer only once its marker landed: a failed mark_open
        // propagates before the WriteFile is installed, so no close would
        // ever decrement — the count would pin local_writers above zero
        // (and getattr off its fast path) for the life of the process.
        if let Some(c) = &self.cache {
            c.writer_inc(&self.container);
        }
        Ok(())
    }

    fn trace_marker(&self, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            iotrace::global().record(
                t0,
                iotrace::OpEvent::new(iotrace::Layer::Plfs, iotrace::OpKind::OpenMarker)
                    .path(&self.container),
            );
        }
    }

    /// Read into `buf` from `offset`. Reads observe this process's writes:
    /// pending buffers are flushed and the read view refreshed when dirty.
    pub fn read(&self, buf: &mut [u8], offset: u64) -> Result<usize> {
        if !self.flags.readable() {
            return Err(Error::BadMode("file not open for reading"));
        }
        // The view lock is held *shared* across the backing reads, so no
        // refresh can mutate the index under them; readers never block each
        // other, only a refresh excludes them.
        self.reader()?.pread(self.backing.as_ref(), buf, offset)
    }

    /// A shared hold on the merged read view, built or refreshed first if
    /// need be. Clean reads only ever take the view lock shared; a dirty fd
    /// (or one with no view yet) takes it exclusively for the refresh and
    /// downgrades, so no reader sees a half-patched index.
    fn reader(&self) -> Result<View<'_>> {
        // relaxed: a write this thread made or synchronized with is visible by coherence; racing a concurrent write, either order is a valid read
        if !self.dirty.load(Ordering::Relaxed) {
            let guard = self.reader.read();
            if guard.is_some() {
                return Ok(View(guard));
            }
        }
        let mut guard = self.reader.write();
        // plfs-lint: allow(lock-across-io, "intentional: the view lock must be held exclusively while the view is built or patched — racing refreshers would flush and merge the same shards twice, and readers must not see a half-patched index; same latch rationale as ensure_eof_seeded")
        self.refresh_reader(&mut guard)?;
        Ok(View(RwLockWriteGuard::downgrade(guard)))
    }

    /// Run `f` over the current read view (refreshed first, exactly as a
    /// read would): the merged index and dropping table, for inspection.
    pub fn with_view<R>(&self, f: impl FnOnce(&ReadFile) -> R) -> Result<R> {
        Ok(f(&*self.reader()?))
    }

    /// The view-refreshing body of [`PlfsFd::reader`], for callers holding
    /// the view lock exclusively: leaves a current view in `view`.
    ///
    /// A dirty readable fd with a view patches it in place with the entries
    /// its writers hold (traced as `index_patch`) — nothing in that arm
    /// touches the backing store, so it cannot fail. Otherwise the full
    /// merge runs — every dropping's index is read and merged, the
    /// index-merge step of the paper — traced as `index_merge`.
    fn refresh_reader(&self, view: &mut Option<ReadFile>) -> Result<()> {
        // relaxed: the swap needs atomicity only (exactly one refresher); banked entries are read under the shard locks taken below
        if self.dirty.swap(false, Ordering::Relaxed) {
            match view.as_mut().filter(|_| self.flags.readable()) {
                Some(v) => {
                    // Valid because the write clock steps past every view
                    // it builds: `fresh` is stamped after everything
                    // merged, the order `GlobalIndex::insert` requires.
                    let fresh = self.drain_writers();
                    // Dirty with nothing owed (a racing refresh already
                    // drained the write that set the flag): the view is
                    // current.
                    if !fresh.is_empty() {
                        let t0 = iotrace::global().start();
                        let patched_bytes = v.patch(fresh);
                        if let Some(t0) = t0 {
                            iotrace::global().record(
                                t0,
                                iotrace::OpEvent::new(
                                    iotrace::Layer::Index,
                                    iotrace::OpKind::IndexPatch,
                                )
                                .path(&self.container)
                                .bytes(patched_bytes),
                            );
                        }
                    }
                }
                // No view to patch, or a write-only fd's (its writers track
                // nothing): rebuild from the backing store.
                None => {
                    *view = None;
                    if let Err(e) = self.flush_writers() {
                        // Some writers are flushed and forgotten, others
                        // not: the next read must try the rebuild again.
                        self.dirty.store(true, Ordering::Relaxed); // relaxed: under the exclusive view lock; same flag-only role as in write_sharded
                        return Err(e);
                    }
                }
            }
        }
        if view.is_some() {
            return Ok(());
        }
        let t0 = iotrace::global().start();
        let rf = ReadFile::open(self.backing.as_ref(), &self.container)?;
        if let Some(t0) = t0 {
            iotrace::global().record(
                t0,
                iotrace::OpEvent::new(iotrace::Layer::Index, iotrace::OpKind::IndexMerge)
                    .path(&self.container)
                    .bytes(rf.eof()),
            );
        }
        // relaxed: seeded under the exclusive view lock; the lock release publishes both stores
        self.eof.fetch_max(rf.eof(), Ordering::Relaxed);
        self.eof_seeded.store(true, Ordering::Relaxed); // relaxed: same critical section
        *view = Some(rf);
        Ok(())
    }

    /// Collect the entries the read view has not seen: closed writers'
    /// banked ones and every live writer's since its last drain. Their
    /// bytes are already on the backing store.
    fn drain_writers(&self) -> Orphans {
        let mut fresh: Orphans = std::mem::take(&mut *self.orphans.lock());
        for shard in &self.shards {
            for w in shard.lock().values_mut() {
                let ents = w.take_unmerged();
                if !ents.is_empty() {
                    fresh.push((w.data_path().to_string(), ents));
                }
            }
        }
        fresh
    }

    /// Ahead of a rebuild: put every writer's index records on the backing
    /// store, where the merge reads them, and forget the copies a patch
    /// would have used.
    fn flush_writers(&self) -> Result<()> {
        self.orphans.lock().clear();
        for shard in &self.shards {
            for w in shard.lock().values_mut() {
                w.flush_index()?;
                w.take_unmerged();
            }
        }
        Ok(())
    }

    /// Seed the cached EOF from the container's on-disk index, once per
    /// fd. Local writes are already in the cache (every write bumps it);
    /// this folds in whatever the container held before this fd opened.
    fn ensure_eof_seeded(&self) -> Result<()> {
        // relaxed: double-checked fast path; the slow path re-checks under the reader lock
        if self.eof_seeded.load(Ordering::Relaxed) {
            return Ok(());
        }
        let mut guard = self.reader.write();
        // relaxed: checked again under the reader lock; a stale false only costs a redundant seed
        if self.eof_seeded.load(Ordering::Relaxed) {
            return Ok(());
        }
        let on_disk = match &*guard {
            Some(r) => r.eof(),
            // A read-only fd has no other use for its EOF than the reads
            // that follow (`fstat` then `read` is what cat, cp and md5sum
            // do): build the view those reads need — it seeds the EOF — in
            // place of an index that is merged and thrown away.
            // plfs-lint: allow(lock-across-io, "intentional: same seed latch as the merge below; the view is built under the lock that publishes it")
            None if !self.flags.writable() => return self.refresh_reader(&mut guard),
            None => {
                // plfs-lint: allow(lock-across-io, "intentional: the seed must run exactly once; the reader lock is this fd's seed latch, and racing seeders would each pay a full index merge")
                container::build_global_index(self.backing.as_ref(), &self.container)?
                    .0
                    .eof()
            }
        };
        // relaxed: under the reader lock (see ensure_eof_seeded callers); lock release publishes
        self.eof.fetch_max(on_disk, Ordering::Relaxed);
        self.eof_seeded.store(true, Ordering::Relaxed); // relaxed: same critical section
        Ok(())
    }

    /// Flush `pid`'s buffers and sync its droppings.
    pub fn sync(&self, pid: u64) -> Result<()> {
        let mut shard = self.shard(pid).lock();
        if let Some(w) = shard.get_mut(&pid) {
            w.sync()?;
        }
        Ok(())
    }

    /// Logical size as visible through this fd right now: answered from
    /// the cached EOF — no index merge.
    pub fn size(&self) -> Result<u64> {
        self.ensure_eof_seeded()?;
        // relaxed: EOF is a monotonic hint; size() may lag a racing append, which POSIX permits
        Ok(self.eof.load(Ordering::Relaxed))
    }

    /// Flush and drop every pid's write stream. The next write per pid
    /// reopens a fresh dropping pair. Used by truncate-while-open: after the
    /// container is rewritten, stale writer handles must not keep appending
    /// to unlinked droppings, and the cached EOF must be re-seeded from the
    /// rewritten container.
    pub fn reset_writers(&self) -> Result<()> {
        let mut guard = self.reader.write();
        for shard in self.shards.iter() {
            let writers = std::mem::take(&mut *shard.lock());
            for (pid, mut w) in writers {
                w.sync()?;
                if let Some(c) = &self.cache {
                    c.writer_dec(&self.container);
                }
                if w.top_level() {
                    // Its marker is also its index: closed by rename, for
                    // the truncate that follows to remove with the rest.
                    // plfs-lint: allow(lock-across-io, "intentional quiesce: truncate holds the reader lock while tearing down writers so no refresh observes a half-reset fd")
                    w.close_names(self.backing.as_ref(), &self.container)?;
                } else {
                    // plfs-lint: allow(lock-across-io, "intentional quiesce: same section as close_names above")
                    container::mark_closed(self.backing.as_ref(), &self.container, pid, w.seq)?;
                }
            }
        }
        // Truncate removes hostdir trees: forget what existed.
        self.hostdirs_ready.lock().clear();
        self.orphans.lock().clear();
        *guard = None;
        // relaxed: truncate path: callers quiesced all writers via reset_writers' shard locks
        self.dirty.store(false, Ordering::Relaxed);
        self.eof.store(0, Ordering::Relaxed); // relaxed: same quiesced section
        self.eof_seeded.store(false, Ordering::Relaxed); // relaxed: same quiesced section
        Ok(())
    }

    /// Drop one reference for `pid`; when the pid's last reference goes,
    /// its writer is flushed and its open marker becomes the metadata drop
    /// fast stat reads. Returns remaining references across all pids
    /// (the C `plfs_close` contract).
    pub fn close(&self, pid: u64) -> Result<u32> {
        let mut refs = self.refs.lock();
        let remaining_for_pid = {
            let r = refs
                .get_mut(&pid)
                .ok_or(Error::BadMode("close of pid that never opened"))?;
            *r = r.saturating_sub(1);
            *r
        };
        if remaining_for_pid == 0 {
            refs.remove(&pid);
            let writer = self.shard(pid).lock().remove(&pid);
            if let Some(mut w) = writer {
                w.sync()?;
                // Entries not yet folded into the read view stay owed to its
                // next refresh.
                let ents = w.take_unmerged();
                if !ents.is_empty() {
                    self.orphans.lock().push((w.data_path().to_string(), ents));
                }
                if let Some(c) = &self.cache {
                    c.writer_dec(&self.container);
                }
                let t0 = iotrace::global().start();
                // plfs-lint: allow(lock-across-io, "intentional: last-reference teardown must be serialized; refs is close-path bookkeeping, never taken on the data plane")
                w.close_names(self.backing.as_ref(), &self.container)?;
                self.trace_marker(t0);
                // The departing writer's dropping pair is immutable from
                // here on (each partitioned pair has exactly one writer);
                // tell the backing so a tiered backend can destage it.
                // LogStructured droppings are shared and may gain writers
                // later, so they are never sealed.
                if self.params.mode != container::LayoutMode::LogStructured {
                    // plfs-lint: allow(lock-across-io, "intentional: same close-path teardown section as close_names above")
                    self.backing.seal(w.data_path())?;
                    // plfs-lint: allow(lock-across-io, "intentional: same close-path teardown section as close_names above")
                    self.backing.seal(w.index_path())?;
                }
                if let Some(c) = &self.cache {
                    // The meta drop just changed the fast-stat answer;
                    // keep the exists/container verdicts.
                    c.clear_meta(&self.container);
                }
            }
        }
        let remaining: u32 = refs.values().sum();
        // The compaction census runs on a detached thread either way;
        // releasing the refs guard before spawning keeps the close path's
        // critical section free of the thread-creation syscall.
        drop(refs);
        if remaining == 0 {
            self.maybe_compact_in_background();
        }
        Ok(remaining)
    }

    /// Opt-in background compaction ([`Conf::compact_droppings_threshold`]):
    /// when the last reference on a writable fd goes away and the container
    /// has accumulated more droppings than the threshold, fold them into one
    /// flattened dropping off-thread. Best-effort housekeeping: the dropping
    /// census and the compaction itself run detached, errors are swallowed,
    /// and a failed compaction leaves the container readable as it was.
    fn maybe_compact_in_background(&self) {
        let threshold = self.conf.compact_droppings_threshold;
        if threshold == 0 || !self.flags.writable() {
            return;
        }
        let b = self.backing.clone();
        let container = self.container.clone();
        let cache = self.cache.clone();
        std::thread::spawn(move || {
            let n = match container::list_droppings(b.as_ref(), &container) {
                Ok(d) => d.len(),
                Err(_) => return,
            };
            if n <= threshold {
                return;
            }
            if crate::flatten::compact_container(b.as_ref(), &container).is_ok() {
                if let Some(c) = cache {
                    // Dropping layout and meta drops changed under the
                    // cache's feet; fast-stat must re-derive.
                    c.clear_meta(&container);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;
    use crate::container::create_container;

    /// Defaults, with an index buffer small enough for tests to overflow.
    fn base() -> Conf {
        Conf {
            index_buffer_entries: 64,
            ..Conf::default()
        }
    }

    fn open_fd(flags: OpenFlags) -> (Arc<dyn Backing>, Arc<PlfsFd>) {
        open_fd_with(flags, base())
    }

    fn open_fd_with(flags: OpenFlags, conf: Conf) -> (Arc<dyn Backing>, Arc<PlfsFd>) {
        let b: Arc<dyn Backing> = Arc::new(MemBacking::new());
        let params = ContainerParams::default();
        create_container(b.as_ref(), "/f", &params, true).unwrap();
        let fd = Arc::new(PlfsFd::new(
            b.clone(),
            "/f".to_string(),
            params,
            flags,
            &conf,
            100,
        ));
        (b, fd)
    }

    #[test]
    fn background_compaction_folds_droppings_after_last_close() {
        let (b, fd) = open_fd_with(
            OpenFlags::RDWR,
            Conf {
                compact_droppings_threshold: 2,
                ..base()
            },
        );
        for pid in 0..4u64 {
            fd.add_ref(pid);
            fd.write(&[pid as u8 + 1; 50], pid * 50, pid).unwrap();
        }
        fd.write(b"x", 200, 100).unwrap();
        for pid in 0..4u64 {
            fd.close(pid).unwrap();
        }
        fd.close(100).unwrap();
        // Compaction runs on a detached thread; wait for it to land.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let n = container::list_droppings(b.as_ref(), "/f").unwrap().len();
            if n == 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "background compaction never folded {n} droppings"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        let r = crate::reader::ReadFile::open(b.as_ref(), "/f").unwrap();
        let mut got = vec![0u8; 201];
        assert_eq!(r.pread(b.as_ref(), &mut got, 0).unwrap(), 201);
        for pid in 0..4usize {
            assert!(got[pid * 50..pid * 50 + 50]
                .iter()
                .all(|&x| x == pid as u8 + 1));
        }
        assert_eq!(got[200], b'x');
    }

    #[test]
    fn no_background_compaction_below_threshold_or_readonly() {
        let (b, fd) = open_fd_with(
            OpenFlags::RDWR,
            Conf {
                compact_droppings_threshold: 8,
                ..base()
            },
        );
        fd.add_ref(200);
        fd.write(b"aa", 0, 100).unwrap();
        fd.write(b"bb", 2, 200).unwrap();
        fd.close(100).unwrap();
        fd.close(200).unwrap();
        // Threshold not exceeded: both droppings survive.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(
            container::list_droppings(b.as_ref(), "/f").unwrap().len(),
            2
        );
    }

    #[test]
    fn read_your_own_writes() {
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        fd.write(b"hello", 0, 100).unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(fd.read(&mut buf, 0).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        // And writes after a read invalidate the cached reader.
        fd.write(b"HELLO", 0, 100).unwrap();
        fd.read(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"HELLO");
    }

    #[test]
    fn write_on_readonly_fd_fails() {
        let (_b, fd) = open_fd(OpenFlags::RDONLY);
        assert!(matches!(fd.write(b"x", 0, 100), Err(Error::BadMode(_))));
    }

    #[test]
    fn read_on_writeonly_fd_fails() {
        let (_b, fd) = open_fd(OpenFlags::WRONLY);
        fd.write(b"x", 0, 100).unwrap();
        let mut buf = [0u8; 1];
        assert!(matches!(fd.read(&mut buf, 0), Err(Error::BadMode(_))));
    }

    #[test]
    fn refcounting_matches_c_contract() {
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        fd.add_ref(200);
        fd.add_ref(100);
        assert_eq!(fd.ref_count(), 3);
        assert_eq!(fd.close(100).unwrap(), 2);
        assert_eq!(fd.close(200).unwrap(), 1);
        assert_eq!(fd.close(100).unwrap(), 0);
    }

    #[test]
    fn close_of_unknown_pid_is_error() {
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        assert!(fd.close(42).is_err());
    }

    #[test]
    fn close_drops_meta_and_open_marker() {
        let (b, fd) = open_fd(OpenFlags::RDWR);
        fd.write(b"0123456789", 0, 100).unwrap();
        assert_eq!(container::open_writers(b.as_ref(), "/f").unwrap(), 1);
        fd.close(100).unwrap();
        assert_eq!(container::open_writers(b.as_ref(), "/f").unwrap(), 0);
        assert_eq!(
            container::read_lifecycle(b.as_ref(), "/f").unwrap().1,
            Some((10, 10))
        );
    }

    #[test]
    fn multiple_pids_write_distinct_droppings() {
        let (b, fd) = open_fd(OpenFlags::RDWR);
        fd.add_ref(200);
        fd.write(b"aa", 0, 100).unwrap();
        fd.write(b"bb", 2, 200).unwrap();
        let mut buf = [0u8; 4];
        fd.read(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"aabb");
        let d = container::list_droppings(b.as_ref(), "/f").unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn size_tracks_writes() {
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        assert_eq!(fd.size().unwrap(), 0);
        fd.write(b"xyz", 100, 100).unwrap();
        assert_eq!(fd.size().unwrap(), 103);
    }

    #[test]
    fn size_then_read_on_a_read_only_fd_merges_the_index_once() {
        let mem: Arc<dyn Backing> = Arc::new(MemBacking::new());
        let metered = Arc::new(crate::meter::MeterBacking::new(mem));
        let b: Arc<dyn Backing> = metered.clone();
        let params = ContainerParams::default();
        create_container(b.as_ref(), "/f", &params, true).unwrap();
        let conf = base();
        let open = |flags| PlfsFd::new(b.clone(), "/f".to_string(), params, flags, &conf, 7);
        let w = open(OpenFlags::RDWR);
        w.write(b"0123456789", 0, 7).unwrap();
        w.close(7).unwrap();

        let cost_of = |fd: &PlfsFd| {
            let before = metered.snapshot();
            let mut buf = [0u8; 10];
            assert_eq!(fd.read(&mut buf, 0).unwrap(), 10);
            metered.snapshot().delta(&before)
        };
        let cold_read = cost_of(&open(OpenFlags::RDONLY));
        let fstat_first = open(OpenFlags::RDONLY);
        let before = metered.snapshot();
        assert_eq!(fstat_first.size().unwrap(), 10);
        let size_cost = metered.snapshot().delta(&before);
        let warm_read = cost_of(&fstat_first);
        // size() paid for the view; the read after it only for its bytes.
        assert_eq!(
            (size_cost.readdir, size_cost.open),
            (cold_read.readdir, cold_read.open - 1)
        );
        assert_eq!(
            (warm_read.readdir, warm_read.open, warm_read.pread),
            (0, 1, 1)
        );
    }

    #[test]
    fn append_lands_at_current_eof() {
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        fd.write(b"head", 0, 100).unwrap();
        let (off, n) = fd.append(b"tail", 100).unwrap();
        assert_eq!((off, n), (4, 4));
        let (off, n) = fd.append(b"!", 100).unwrap();
        assert_eq!((off, n), (8, 1));
        let mut buf = [0u8; 9];
        fd.read(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"headtail!");
    }

    #[test]
    fn append_to_reopened_container_lands_at_on_disk_eof() {
        let b: Arc<dyn Backing> = Arc::new(MemBacking::new());
        let params = ContainerParams::default();
        create_container(b.as_ref(), "/f", &params, true).unwrap();
        let conf = base();
        {
            let fd = PlfsFd::new(
                b.clone(),
                "/f".to_string(),
                params,
                OpenFlags::RDWR,
                &conf,
                100,
            );
            fd.write(b"0123456789", 0, 100).unwrap();
            fd.close(100).unwrap();
        }
        // Fresh fd: the EOF cache must seed from the container, not zero.
        let fd = PlfsFd::new(
            b.clone(),
            "/f".to_string(),
            params,
            OpenFlags::RDWR,
            &conf,
            200,
        );
        assert_eq!(fd.size().unwrap(), 10);
        let (off, n) = fd.append(b"xy", 200).unwrap();
        assert_eq!((off, n), (10, 2));
        let mut buf = [0u8; 12];
        fd.read(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"0123456789xy");
    }

    #[test]
    fn concurrent_appends_never_overlap() {
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        const THREADS: u64 = 4;
        const PER_THREAD: usize = 25;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let fd = fd.clone();
                s.spawn(move || {
                    fd.add_ref(1000 + t);
                    for _ in 0..PER_THREAD {
                        fd.append(&[b'a' + t as u8; 8], 1000 + t).unwrap();
                    }
                });
            }
        });
        // Every append reserved a distinct EOF slot: total size is exact,
        // and every 8-byte slot is one thread's payload, unmixed.
        assert_eq!(
            fd.size().unwrap() as usize,
            THREADS as usize * PER_THREAD * 8
        );
        let mut buf = vec![0u8; THREADS as usize * PER_THREAD * 8];
        fd.read(&mut buf, 0).unwrap();
        for chunk in buf.chunks(8) {
            assert!(
                chunk.iter().all(|&b| b == chunk[0]),
                "interleaved append: {chunk:?}"
            );
        }
    }

    #[test]
    fn patched_view_observes_writes_after_cached_read() {
        let (_b, fd) = open_fd_with(OpenFlags::RDWR, Conf::default());
        fd.write(b"aaaa", 0, 100).unwrap();
        let mut buf = [0u8; 4];
        fd.read(&mut buf, 0).unwrap(); // builds + caches the view
        assert_eq!(&buf, b"aaaa");
        // Overwrite + extend from two pids, then read again: the patched
        // view must show both, latest-wins included.
        fd.add_ref(200);
        fd.write(b"BB", 1, 100).unwrap();
        fd.write(b"cc", 4, 200).unwrap();
        let mut buf = [0u8; 6];
        assert_eq!(fd.read(&mut buf, 0).unwrap(), 6);
        assert_eq!(&buf, b"aBBacc");
        assert_eq!(fd.size().unwrap(), 6);
    }

    /// Regression: marker and drop were named by pid alone, so the first
    /// close among two fds of one pid took the marker the other still
    /// needed and another process trusted the closed fd's drop.
    #[test]
    fn two_fds_of_one_pid_keep_their_own_marker_and_drop() {
        use container::LayoutMode::{Both, LogStructured};
        // Log mode too: there every writer shares dropping pair 0, so the
        // pair's number alone would not tell the two apart.
        for mode in [Both, LogStructured] {
            let b: Arc<dyn Backing> = Arc::new(MemBacking::new());
            let params = ContainerParams {
                mode,
                ..Default::default()
            };
            create_container(b.as_ref(), "/f", &params, true).unwrap();
            let open = || {
                PlfsFd::new(
                    b.clone(),
                    "/f".into(),
                    params,
                    OpenFlags::RDWR,
                    &base(),
                    100,
                )
            };
            let (a, other) = (open(), open());
            a.write(b"aaaa", 0, 100).unwrap();
            other.write(&[b'b'; 24], 0, 100).unwrap();
            other.sync(100).unwrap();
            a.close(100).unwrap();
            // What a fresh process sees: one writer still open, so no fast
            // stat.
            assert_eq!(container::open_writers(b.as_ref(), "/f").unwrap(), 1);
            let fresh = crate::api::Plfs::new(b.clone());
            assert_eq!(fresh.getattr("/f").unwrap().size, 24, "{mode:?}");
            other.close(100).unwrap();
            assert_eq!(
                container::read_lifecycle(b.as_ref(), "/f").unwrap(),
                (0, Some((24, 28))),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn hostdir_probe_runs_once_per_hostdir() {
        use crate::meter::MeterBacking;
        let inner: Arc<dyn Backing> = Arc::new(MemBacking::new());
        let params = ContainerParams {
            num_hostdirs: 1, // every pid maps to hostdir.0
            mode: container::LayoutMode::Both,
        };
        create_container(inner.as_ref(), "/f", &params, true).unwrap();
        let meter = Arc::new(MeterBacking::new(inner));
        let fd = PlfsFd::new(
            meter.clone(),
            "/f".to_string(),
            params,
            OpenFlags::RDWR,
            &Conf::default(),
            1,
        );
        fd.write(b"a", 0, 1).unwrap();
        let before = meter.snapshot();
        for pid in 2..10u64 {
            fd.add_ref(pid);
            fd.write(b"x", pid, pid).unwrap();
        }
        let d = meter.snapshot().delta(&before);
        assert_eq!(d.mkdir, 0, "hostdir.0 already existed");
        assert_eq!(
            d.exists + d.stat,
            0,
            "memoized: no repeat hostdir probes, got {d:?}"
        );
    }

    #[test]
    fn write_list_read_list_roundtrip() {
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        // Out-of-order, strided, and overlapping extents in one vector.
        let extents = [(20u64, 4u64), (0, 4), (10, 4), (2, 2)];
        let data = b"AAAABBBBCCCCzz";
        assert_eq!(fd.write_list(data, &extents, 100).unwrap(), 14);
        let mut buf = vec![0u8; 24];
        assert_eq!(fd.read(&mut buf, 0).unwrap(), 24);
        assert_eq!(&buf[0..4], b"BBzz", "later overlapping extent wins");
        assert_eq!(&buf[10..14], b"CCCC");
        assert_eq!(&buf[20..24], b"AAAA");
        // read_list gathers the same extents back in vector order.
        let mut out = vec![0u8; 14];
        assert_eq!(
            fd.read_list(&mut out, &[(20, 4), (0, 4), (10, 4), (2, 2)])
                .unwrap(),
            14
        );
        assert_eq!(&out[0..4], b"AAAA");
        assert_eq!(&out[4..8], b"BBzz");
        assert_eq!(&out[8..12], b"CCCC");
        assert_eq!(&out[12..14], b"zz");
    }

    #[test]
    fn write_list_batches_index_records() {
        use crate::index::RECORD_SIZE;
        // A strided vector flushed as one batch must pattern-compress into
        // far fewer on-disk index records than one record per extent.
        let (b, fd) = open_fd(OpenFlags::RDWR);
        let n = 32usize;
        let extents: Vec<(u64, u64)> = (0..n).map(|i| (i as u64 * 64, 16)).collect();
        let data = vec![7u8; n * 16];
        fd.write_list(&data, &extents, 100).unwrap();
        fd.sync(100).unwrap();
        let d = container::list_droppings(b.as_ref(), "/f").unwrap();
        assert_eq!(d.len(), 1);
        let idx_bytes = b.stat(d[0].index_path.as_ref().unwrap()).unwrap().size;
        assert!(
            idx_bytes < (n as u64 / 2) * RECORD_SIZE as u64,
            "strided batch did not compress: {idx_bytes} bytes for {n} extents"
        );
    }

    #[test]
    fn write_list_rejects_short_data_and_bad_modes() {
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        assert!(matches!(
            fd.write_list(b"ab", &[(0, 3)], 100),
            Err(Error::InvalidArg(_))
        ));
        let mut buf = [0u8; 2];
        assert!(matches!(
            fd.read_list(&mut buf, &[(0, 3)]),
            Err(Error::InvalidArg(_))
        ));
        let (_b, ro) = open_fd(OpenFlags::RDONLY);
        assert!(matches!(
            ro.write_list(b"x", &[(0, 1)], 100),
            Err(Error::BadMode(_))
        ));
        let (_b, wo) = open_fd(OpenFlags::WRONLY);
        let mut buf = [0u8; 1];
        assert!(matches!(
            wo.read_list(&mut buf, &[(0, 1)]),
            Err(Error::BadMode(_))
        ));
    }

    #[test]
    fn write_list_chunks_at_max_extents() {
        // Two full batches and a one-extent tail; correctness must be
        // unaffected by where the batch boundaries fall.
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        let n = 2 * LIST_BATCH_EXTENTS + 1;
        let extents: Vec<(u64, u64)> = (0..n as u64).map(|i| (i * 3, 1)).collect();
        let data: Vec<u8> = (0..n).map(|i| i as u8).collect();
        assert_eq!(fd.write_list(&data, &extents, 100).unwrap(), n);
        let mut out = vec![0u8; n];
        assert_eq!(fd.read_list(&mut out, &extents).unwrap(), n);
        assert_eq!(out, data);
    }

    /// `(logical, length, data path, physical)` per segment of a view.
    fn segments(r: &ReadFile) -> Vec<(u64, u64, String, u64)> {
        r.index()
            .iter_segments()
            .map(|(lo, len, id, phys)| {
                (lo, len, r.droppings()[id as usize].data_path.clone(), phys)
            })
            .collect()
    }

    #[test]
    fn patched_view_equals_fresh_merge_over_records_stamped_ahead() {
        // Another process — its clock a week ahead of ours — wrote the
        // file. Building a view over its records must step our write clock
        // past them (Lamport), or our overwrite wins in the patched view
        // (insertion order) and loses on the next fresh merge (stamps).
        let (b, fd) = open_fd_with(OpenFlags::RDWR, Conf::default());
        let params = ContainerParams::default();
        let mut w = WriteFile::open(b.as_ref(), "/f", &params, 7, 64).unwrap();
        w.write(&[b'a'; 4096], 0).unwrap();
        w.write(&[b'b'; 64], 100).unwrap();
        w.sync().unwrap();
        let f = b.open(w.index_path(), true).unwrap();
        let mut raw = vec![0u8; f.size().unwrap() as usize];
        f.pread(&mut raw, 0).unwrap();
        let mut ahead = Vec::new();
        for mut e in IndexEntry::decode_all(&raw).unwrap() {
            e.timestamp += 7 * 86_400 * 1_000_000_000;
            e.encode(&mut ahead);
        }
        f.pwrite(&ahead, 0).unwrap();

        let mut buf = vec![0u8; 4096];
        fd.read(&mut buf, 0).unwrap(); // builds the view
        fd.write(&[b'C'; 1000], 50, 100).unwrap();
        fd.read(&mut buf, 0).unwrap(); // patches it
        assert!(buf[50..1050].iter().all(|&x| x == b'C'));
        fd.sync(100).unwrap();
        let fresh = ReadFile::open(b.as_ref(), "/f").unwrap();
        let patched = fd.with_view(segments).unwrap();
        assert_eq!(patched, segments(&fresh), "patched view == fresh merge");
        assert_eq!(fresh.read_all(b.as_ref()).unwrap(), buf);
    }

    /// Patching a view touches no backing store; what can still fail in a
    /// refresh is an index flush ahead of a rebuild.
    #[test]
    fn failed_rebuild_is_retried_in_full() {
        use crate::faults::{FaultKind, FaultOp, FaultRule, Faulty};
        let faulty = Arc::new(Faulty::new(Arc::new(MemBacking::new())));
        let params = ContainerParams::default();
        create_container(faulty.as_ref(), "/f", &params, true).unwrap();
        let fd = PlfsFd::new(
            faulty.clone(),
            "/f".into(),
            params,
            OpenFlags::RDWR,
            &Conf::default(),
            100,
        );
        fd.add_ref(200);
        fd.write(b"BBBB", 0, 100).unwrap();
        fd.write(b"cccc", 4, 200).unwrap();
        // pid 100's shard flushes first; pid 200's index flush then fails.
        faulty.arm(FaultRule {
            op: FaultOp::Write,
            path_contains: "dropping.index.200".into(),
            after: 0,
            times: 1,
            errno_like: FaultKind::Io,
        });
        let mut buf = [0u8; 8];
        assert!(fd.read(&mut buf, 0).is_err());
        // The retry must flush pid 200 before it merges, not serve a view
        // built without its records.
        assert_eq!(fd.read(&mut buf, 0).unwrap(), 8);
        assert_eq!(&buf, b"BBBBcccc");
    }

    /// Regression: writers tracked their flushed entries whatever the open
    /// mode, so a write-only fd — which no read can ever drain — banked 48
    /// bytes per write until it dropped.
    #[test]
    fn write_only_fd_banks_no_index_entries() {
        let (_b, fd) = open_fd(OpenFlags::WRONLY);
        fd.add_ref(200);
        let offsets = (0..1000u64).map(|i| (i * 7919) % 4096);
        for off in offsets.clone() {
            fd.write(b"x", off, 100).unwrap();
        }
        fd.close(100).unwrap();
        assert!(fd.orphans.lock().is_empty(), "nothing reads through it");
        // Inspection still works: it rebuilds from the backing store.
        let eof = offsets.max().unwrap() + 1;
        assert_eq!(fd.with_view(|v| v.eof()).unwrap(), eof);
        fd.write(b"y", 5000, 200).unwrap();
        assert_eq!(fd.with_view(|v| v.eof()).unwrap(), 5001);
    }

    #[test]
    fn close_does_not_lose_unmerged_entries() {
        let (_b, fd) = open_fd_with(OpenFlags::RDWR, Conf::default());
        fd.write(b"first", 0, 100).unwrap();
        let mut buf = [0u8; 5];
        fd.read(&mut buf, 0).unwrap(); // cache a view
        fd.add_ref(200);
        fd.write(b"SECOND", 5, 200).unwrap();
        fd.close(200).unwrap(); // pid 200's writer leaves before any read
        let mut buf = [0u8; 11];
        assert_eq!(fd.read(&mut buf, 0).unwrap(), 11);
        assert_eq!(&buf, b"firstSECOND");
    }
}
