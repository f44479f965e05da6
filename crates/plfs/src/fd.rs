//! `Plfs_fd`: the open-file state machine.
//!
//! Mirrors the C library's `Plfs_fd`, which LDPLFS keeps one of per
//! descriptor it hands out: one struct per open logical file, owned by one
//! pid — its opener's, or a forked child's once it adopts the open — and
//! reference-counted (a `dup` adds one). It holds at most one [`WriteFile`],
//! opened by its first write and closed by its last reference, and a
//! lazily built, write-invalidated [`ReadFile`]. The ranks of a parallel job
//! are processes, each with descriptors of its own.
//!
//! - **O(1) EOF.** A cached atomic max-EOF is bumped on every write, so
//!   `append()` and `size()` answer without an index merge; the merge (or
//!   a patch) happens only on actual reads.
//! - **Read view patched in place.** A readable fd keeps one long-lived
//!   read view; a post-write read patches it with the writer's fresh
//!   entries — O(k log n), open dropping handles kept — instead of
//!   re-reading every dropping. Readers share the view lock; only the
//!   refresh takes it exclusively. A write-only fd has no reads to serve,
//!   so its writer tracks nothing.
//! - **Own bytes overwritten in place.** On a readable fd, a write the view
//!   holds as one slice of the writer's own data dropping goes where those
//!   bytes lie, under the view lock held exclusively; its index entry is
//!   logged as any write's, and is already in the view.
//!
//! Lock order: the view lock, then the writer lock, then the view's
//! handle-cache shards. EOF coherence is per-fd, as in the C library:
//! threads sharing this fd see each other's appends atomically; a
//! *different* fd (or process) appending to the same container
//! concurrently is not serialized against this one.

use crate::backing::{Backing, BackingFile};
use crate::container;
use crate::error::{Error, Result};
use crate::flags::OpenFlags;
use crate::meta::MetaCache;
use crate::reader::ReadFile;
use crate::writer::{WriteFile, DEFAULT_INDEX_BUFFER_ENTRIES};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Where `view` holds all of `[offset, offset + len)` as one slice of
/// `writer`'s data dropping: that slice's physical offset. Callers hold
/// the view lock, then the writer lock.
fn own_slice(
    view: &Option<ReadFile>,
    writer: &Option<WriteFile>,
    offset: u64,
    len: u64,
) -> Option<u64> {
    let (view, writer) = (view.as_ref()?, writer.as_ref()?);
    let mut only = None;
    let one = view
        .index()
        .for_each_slice(offset, len, |s| match only.replace(s) {
            None => Ok(()),
            Some(_) => Err(()),
        });
    let s = only.filter(|s| one.is_ok() && s.length == len)?;
    let dropping = view.droppings().get(s.dropping_id? as usize)?;
    (dropping.data_path == writer.data_path()).then_some(s.physical_offset)
}

/// Views a read builds, the first included, when it keeps finding a data
/// dropping of its view gone ([`PlfsFd::through_view`]).
const VIEW_ATTEMPTS: usize = 4;

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
    flags: OpenFlags,
    /// Process-wide container metadata cache, shared with the owning
    /// [`crate::api::Plfs`]. The fd keeps its writer counts and fast-stat
    /// verdicts honest as its writer comes and goes.
    cache: Arc<MetaCache>,
    /// This fd's open made the container and, with it, this data dropping,
    /// which the fd's writer has not taken yet: its first one takes it, as
    /// its top-level dropping pair.
    creator: Mutex<Option<container::CreatorDropping>>,
    /// The pid the fd writes under: its opener's, or the forked child's
    /// that adopted it ([`PlfsFd::forked`]).
    pid: AtomicU64,
    /// Outstanding references: the open's own and one per
    /// [`PlfsFd::add_ref`].
    refs: AtomicU32,
    /// The fd's write stream, opened by its first write, closed by its
    /// last reference (or taken away by a truncate).
    writer: Mutex<Option<WriteFile>>,
    /// The one long-lived read view: built by the first read, patched in
    /// place by reads after writes, dropped by truncate.
    reader: RwLock<Option<ReadFile>>,
    /// Set on every write; the next read drains the writer and refreshes
    /// the read view so reads observe this process's own writes
    /// (read-your-writes, as LDPLFS needs for the UNIX-tool use case).
    dirty: AtomicBool,
    /// Set with `dirty` when a writer left with entries the view has not
    /// seen: the next refresh rebuilds the view from the records the
    /// writer put on the backing store, where a patch would miss them.
    rebuild: AtomicBool,
    /// The first write stamp taken after the read view became current:
    /// read from the process write clock ahead of each refresh, stepped by
    /// every in-place write that finds it still unclaimed. Only touched
    /// under the exclusive view lock.
    view_clock: AtomicU64,
    /// Cached logical EOF: the max over everything this fd has written and
    /// (once seeded) the container's on-disk EOF at open.
    eof: AtomicU64,
    eof_seeded: AtomicBool,
}

impl PlfsFd {
    pub(crate) fn new(
        backing: Arc<dyn Backing>,
        container: String,
        flags: OpenFlags,
        cache: Arc<MetaCache>,
        pid: u64,
    ) -> PlfsFd {
        PlfsFd {
            backing,
            container,
            flags,
            cache,
            creator: Mutex::new(None),
            pid: AtomicU64::new(pid),
            refs: AtomicU32::new(1),
            writer: Mutex::new(None),
            reader: RwLock::new(None),
            dirty: AtomicBool::new(false),
            rebuild: AtomicBool::new(false),
            view_clock: AtomicU64::new(0),
            eof: AtomicU64::new(0),
            eof_seeded: AtomicBool::new(false),
        }
    }

    /// Mark this fd as the one whose open made the container
    /// ([`container::Creation::Made`]), handing it the data dropping the
    /// create made for its first writer.
    pub(crate) fn set_creator(&mut self, dropping: container::CreatorDropping) {
        *self.creator.get_mut() = Some(dropping);
    }

    /// Backend path of the container.
    pub fn container_path(&self) -> &str {
        &self.container
    }

    /// Flags the file was opened with.
    pub fn flags(&self) -> OpenFlags {
        self.flags
    }

    /// The pid this fd writes under.
    pub fn pid(&self) -> u64 {
        // relaxed: set at open and by an adopting fork child before any other use of the fd there
        self.pid.load(Ordering::Relaxed)
    }

    /// Add a reference (another descriptor naming this open).
    pub fn add_ref(&self) {
        // relaxed: a count; the decrement that takes it to 0 alone closes
        self.refs.fetch_add(1, Ordering::Relaxed);
    }

    /// Write `buf` at `offset`. An overwrite of the writer's own bytes on a
    /// readable fd goes in place ([`PlfsFd::overwrite_in_place`]); every
    /// other write appends.
    pub fn write(&self, buf: &[u8], offset: u64) -> Result<usize> {
        if !self.flags.writable() {
            return Err(Error::BadMode("file not open for writing"));
        }
        if self.overwrites_own_bytes(buf, offset) && self.overwrite_in_place(buf, offset)? {
            return Ok(buf.len());
        }
        let mut writer = self.writer.lock();
        // plfs-lint: allow(lock-across-io, "intentional: the writer lock IS the write path's serialization point — one stream, one tail")
        self.place_locked(&mut writer, buf.len(), offset, |data, at| {
            data.pwrite(buf, at)
        })
    }

    /// Put up to `len` bytes at `offset` by the kernel's copy into the
    /// writer's data dropping: `mover` is handed the dropping's descriptor
    /// and the offset of its tail and says how many bytes it placed there,
    /// which are logged as one write. A dropping without a descriptor is
    /// `EXDEV`: the caller moves the bytes with reads and writes.
    pub fn copy_in(
        &self,
        len: usize,
        offset: u64,
        mover: impl FnOnce(RawFd, u64) -> std::io::Result<usize>,
    ) -> Result<usize> {
        if !self.flags.writable() {
            return Err(Error::BadMode("file not open for writing"));
        }
        let mut writer = self.writer.lock();
        // plfs-lint: allow(lock-across-io, "intentional: the copy is a write, serialized on the writer lock as write is")
        self.place_locked(&mut writer, len, offset, |data, at| {
            let fd = data.raw_fd().ok_or_else(Error::no_kernel_copy)?;
            mover(fd, at).map_err(Error::Io)
        })
    }

    /// Move logical `[offset, offset + len)` out of the container in the
    /// kernel, through the read view: `mover` is handed each slice's
    /// dropping descriptor, physical offset and length and says how many
    /// bytes it moved. A hole or a dropping without a descriptor ends the
    /// copy short, or is `EXDEV` before any byte moved.
    pub fn copy_out(
        &self,
        offset: u64,
        len: u64,
        mover: impl FnMut(RawFd, u64, usize) -> std::io::Result<usize>,
    ) -> Result<usize> {
        if !self.flags.readable() {
            return Err(Error::BadMode("file not open for reading"));
        }
        let mut mover = mover;
        self.through_view(|view| view.copy_out(self.backing.as_ref(), offset, len, &mut mover))
    }

    /// May `buf` at `offset` go in place: on a readable fd, inside the
    /// EOF, where the read view holds the whole range as one slice of the
    /// writer's own data dropping? Past the EOF this reads one atomic;
    /// otherwise it takes the view lock shared, then the writer lock.
    fn overwrites_own_bytes(&self, buf: &[u8], offset: u64) -> bool {
        let len = buf.len() as u64;
        // relaxed: the EOF cache only rules appends out cheaply; the check under the exclusive view lock decides
        let eof = self.eof.load(Ordering::Relaxed);
        if !self.flags.readable() || len == 0 || offset.saturating_add(len) > eof {
            return false;
        }
        let view = self.reader.read();
        own_slice(&view, &self.writer.lock(), offset, len).is_some()
    }

    /// Overwrite the writer's own bytes where they lie, if the range still
    /// qualifies once the view lock is held exclusively, then the writer
    /// lock: no reader of this fd is inside the range while its bytes
    /// change, so none sees a torn block. The index entry is logged with a
    /// fresh stamp, as an appended write's is. It is already in the view
    /// (it maps the range where the view has it) when it took the first
    /// stamp since the view became current and nothing was owed to the
    /// view; otherwise the fd turns dirty and the next read patches it in,
    /// in stamp order. Returns false, having written nothing, when the
    /// range no longer qualifies.
    fn overwrite_in_place(&self, buf: &[u8], offset: u64) -> Result<bool> {
        let view = self.reader.write();
        let mut writer = self.writer.lock();
        let Some(physical) = own_slice(&view, &writer, offset, buf.len() as u64) else {
            return Ok(false);
        };
        let w = writer.as_mut().expect("own_slice found the writer");
        // relaxed: a flag raised concurrently belongs to a write stamped after the view clock, so this write's stamp cannot match it anyway
        let dirty = self.dirty.load(Ordering::Relaxed);
        // relaxed: only touched under the exclusive view lock held here
        let view_clock = self.view_clock.load(Ordering::Relaxed);
        // 0 is no stamp: a dirty fd owes the view its patch first.
        let clock = if dirty { 0 } else { view_clock };
        // plfs-lint: allow(lock-across-io, "intentional: the overwrite must not interleave with a reader of the range, whose shared hold on the view lock it waits out; one pwrite, and the index flush a full buffer needs")
        if w.overwrite_in_place(buf, offset, physical, clock)? {
            self.view_clock.store(clock + 1, Ordering::Relaxed); // relaxed: under the exclusive view lock
        } else {
            self.dirty.store(true, Ordering::Relaxed); // relaxed: same flag-only role as in write_locked
        }
        Ok(true)
    }

    /// Atomically resolve the current EOF and write `buf` there (the
    /// `O_APPEND` contract). Returns `(offset, written)`.
    ///
    /// The fast path: a `fetch_add` on the cached EOF reserves a disjoint
    /// `[offset, offset + len)` slot for this append, so concurrent
    /// appenders never overlap and no index merge runs — traced as
    /// `append_fastpath`. The EOF cache is seeded once per fd from the
    /// container's on-disk index.
    pub fn append(&self, buf: &[u8]) -> Result<(u64, usize)> {
        if !self.flags.writable() {
            return Err(Error::BadMode("file not open for writing"));
        }
        self.ensure_eof_seeded()?;
        let t0 = iotrace::global().start();
        // relaxed: only the atomicity of the add matters: it reserves a disjoint [offset, offset+len) slot; the data itself is published under the writer lock
        let offset = self.eof.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let n = {
            let mut writer = self.writer.lock();
            // plfs-lint: allow(lock-across-io, "intentional: append lands the reserved slot through the same writer-lock serialization as write")
            self.place_locked(&mut writer, buf.len(), offset, |data, at| {
                data.pwrite(buf, at)
            })?
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

    /// A write of `len` bytes at `offset`, which `mover` places at the
    /// data dropping's tail ([`WriteFile::place`]), under the writer lock:
    /// the writer opened by the fd's first write, the EOF cache and the
    /// dirty flag kept.
    fn place_locked(
        &self,
        writer: &mut Option<WriteFile>,
        len: usize,
        offset: u64,
        mover: impl FnOnce(&dyn BackingFile, u64) -> Result<usize>,
    ) -> Result<usize> {
        if len == 0 {
            // POSIX: a zero-length write changes nothing — in particular
            // not the EOF, which `offset + 0` below would have raised.
            return Ok(0);
        }
        let w = match writer {
            Some(w) => w,
            None => writer.insert(self.open_writer()?),
        };
        let n = w.place(len, offset, mover)?;
        if n == 0 {
            return Ok(0);
        }
        // relaxed: EOF cache is a monotonic high-water mark; readers that miss this max re-derive EOF from the merged index
        self.eof.fetch_max(offset + n as u64, Ordering::Relaxed);
        self.dirty.store(true, Ordering::Relaxed); // relaxed: flag only schedules a reader refresh; index data is published by the writer lock release
        Ok(n)
    }

    /// Open the fd's writer: the creator's top-level pair if this fd's open
    /// made the container and no writer of the fd took it yet — whatever
    /// else happens to the fd (a failed open, a truncate), later writers
    /// get hostdir pairs — else a pair in the pid's hostdir, made if need
    /// be.
    fn open_writer(&self) -> Result<WriteFile> {
        let pid = self.pid();
        let top_level = self.creator.lock().take();
        if top_level.is_none() {
            container::ensure_hostdir(self.backing.as_ref(), &self.container, pid)?;
        }
        let mut w = WriteFile::open_prepared(
            self.backing.as_ref(),
            &self.container,
            pid,
            0,
            DEFAULT_INDEX_BUFFER_ENTRIES,
            self.flags.readable(),
            top_level.map(|d| (d, Arc::clone(&self.backing))),
        )?;
        self.note_writer_open(&mut w)?;
        Ok(w)
    }

    /// Record a new writer: place the open marker of its dropping pair —
    /// one per pair, so every fd keeps its own, visible to any process
    /// listing the container; a top-level pair's index dropping already is
    /// one — and bump the cached writer count.
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
        self.cache.writer_inc(&self.container);
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
        self.through_view(|view| view.pread(self.backing.as_ref(), buf, offset))
    }

    /// `f` over the read view ([`PlfsFd::reader`]). When it fails because a
    /// data dropping the view names is gone, the view is built again from
    /// the container as it is now and `f` tried again — a bounded number
    /// of times — if the new view holds at least as many bytes as the old
    /// ([`PlfsFd::rebuild_unshrunk`]): a compaction moved the same bytes
    /// into new droppings. Otherwise the failure stands.
    fn through_view<T>(&self, mut f: impl FnMut(&ReadFile) -> Result<T>) -> Result<T> {
        let mut attempt = 1;
        loop {
            let view = self.reader()?;
            match f(&view) {
                Err(e) if crate::reader::vanished(&e) && attempt < VIEW_ATTEMPTS => {
                    let eof = view.eof();
                    drop(view);
                    if !self.rebuild_unshrunk(eof)? {
                        return Err(e);
                    }
                    attempt += 1;
                }
                r => return r,
            }
        }
    }

    /// Build the read view again from the backing store — the writer's
    /// records put there first — and install it if it ends at or past
    /// `eof`, the end of the view a read found a dropping of gone; say
    /// whether it did. A view that ends short of it is a truncate's, whose
    /// retired bytes read as `EIO`: the old view stays, so every read
    /// through it gets open-time bytes or that error.
    fn rebuild_unshrunk(&self, eof: u64) -> Result<bool> {
        let clock = crate::index::write_clock();
        let mut view = self.reader.write();
        let mut writer = self.writer.lock();
        if let Some(w) = writer.as_mut() {
            // plfs-lint: allow(lock-across-io, "intentional: the records of this fd's writes must reach the backing store before the view is rebuilt from it, and none may land between the rebuild and the drain below")
            w.flush_index()?;
        }
        // plfs-lint: allow(lock-across-io, "intentional: same rebuild section as the flush above; the view lock excludes every reader of this fd while its view is replaced")
        let fresh = ReadFile::open(self.backing.as_ref(), &self.container)?;
        if fresh.eof() < eof {
            return Ok(false);
        }
        // The fresh view holds every entry the writer logged.
        if let Some(w) = writer.as_mut() {
            w.take_unmerged();
        }
        self.view_clock.store(clock, Ordering::Relaxed); // relaxed: under the exclusive view lock
        self.eof.fetch_max(fresh.eof(), Ordering::Relaxed); // relaxed: a monotonic high-water mark, as in refresh_reader
        *view = Some(fresh);
        Ok(true)
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
        // plfs-lint: allow(lock-across-io, "intentional: the view lock must be held exclusively while the view is built or patched — racing refreshers would flush and merge the same writer twice, and readers must not see a half-patched index; same latch rationale as ensure_eof_seeded")
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
    /// its writer holds (traced as `index_patch`) — nothing in that arm
    /// touches the backing store, so it cannot fail. Otherwise the full
    /// merge runs — every dropping's index is read and merged, the
    /// index-merge step of the paper — traced as `index_merge`.
    fn refresh_reader(&self, view: &mut Option<ReadFile>) -> Result<()> {
        // Read ahead of the drain: every stamp below it was taken under the
        // writer lock the drain takes after it, so its entry is in the view.
        let clock = crate::index::write_clock();
        // acquire: pairs with the release in stale_view, so a refresher that takes its flag also sees the rebuild it asks for; the writer's entries are read under the writer lock taken below
        if self.dirty.swap(false, Ordering::Acquire) {
            // relaxed: ordered by the dirty swap above
            let rebuild = self.rebuild.swap(false, Ordering::Relaxed);
            match view.as_mut().filter(|_| self.flags.readable() && !rebuild) {
                Some(v) => {
                    // Valid because the write clock steps past every view
                    // it builds: `fresh` is stamped after everything
                    // merged, the order `GlobalIndex::insert` requires.
                    let fresh = self.writer.lock().as_mut().map(|w| {
                        let ents = w.take_unmerged();
                        (w.data_path().to_string(), ents)
                    });
                    // Dirty with nothing owed (a racing refresh already
                    // drained the write that set the flag, or the writer
                    // left): the view is current.
                    if let Some((data_path, ents)) = fresh.filter(|(_, ents)| !ents.is_empty()) {
                        let t0 = iotrace::global().start();
                        let patched_bytes = v.patch(data_path, ents);
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
                // No view to patch, a write-only fd's (its writer tracks
                // nothing), or one that has not seen all of a writer that
                // left ([`PlfsFd::stale_view`]): rebuild from the backing
                // store.
                None => {
                    *view = None;
                    if let Err(e) = self.flush_writer() {
                        // The next read must try the rebuild again.
                        self.dirty.store(true, Ordering::Relaxed); // relaxed: under the exclusive view lock; same flag-only role as in write_locked
                        return Err(e);
                    }
                }
            }
        } else if view.is_some() {
            // A racing refresh made the view current, and set its clock.
            return Ok(());
        }
        self.view_clock.store(clock, Ordering::Relaxed); // relaxed: under the exclusive view lock
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

    /// Ahead of a rebuild: put the writer's index records on the backing
    /// store, where the merge reads them, and forget the copies a patch
    /// would have used.
    fn flush_writer(&self) -> Result<()> {
        if let Some(w) = self.writer.lock().as_mut() {
            w.flush_index()?;
            w.take_unmerged();
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

    /// Flush the writer's buffers and sync its droppings.
    pub fn sync(&self) -> Result<()> {
        match self.writer.lock().as_mut() {
            Some(w) => w.sync(),
            None => Ok(()),
        }
    }

    /// Write the writer's buffered index records to the backing store,
    /// syncing nothing: what a process does ahead of a `fork`, so that the
    /// child — which drops its copy of the writer ([`PlfsFd::forked`]) —
    /// reads every byte written before it.
    pub fn flush_index(&self) -> Result<()> {
        match self.writer.lock().as_mut() {
            Some(w) => w.flush_index(),
            None => Ok(()),
        }
    }

    /// In a forked child, whose pid is `pid`: the fd becomes `pid`'s, and
    /// its writer is the parent's — dropped without writing a record (they
    /// are the parent's to write, and [`PlfsFd::flush_index`] wrote them at
    /// the fork). A read view that has not seen all of that writer's
    /// entries goes with it, for the next read to rebuild from those
    /// records. The child's own writes open droppings of their own under
    /// `pid`.
    ///
    /// It takes no view lock: a parent thread reading through this open at
    /// the fork left the child's copy of that lock held shared, by no one.
    pub fn forked(&self, pid: u64) {
        // relaxed: see pid
        self.pid.store(pid, Ordering::Relaxed);
        // The creator's dropping is the parent's, for its first writer.
        drop(self.creator.lock().take());
        let writer = self.writer.lock().take();
        if let Some(mut w) = writer {
            if !w.take_unmerged().is_empty() {
                self.stale_view();
            }
            self.cache.writer_dec(&self.container);
            w.abandon();
        }
    }

    /// The writer just taken away left entries the read view has not seen,
    /// which only its records hold: have the next read rebuild the view,
    /// taking no view lock here.
    fn stale_view(&self) {
        // relaxed: published by the release store of dirty below
        self.rebuild.store(true, Ordering::Relaxed);
        // release: a refresher that takes this flag sees rebuild set
        self.dirty.store(true, Ordering::Release);
    }

    /// Logical size as visible through this fd right now: answered from
    /// the cached EOF — no index merge.
    pub fn size(&self) -> Result<u64> {
        self.ensure_eof_seeded()?;
        // relaxed: EOF is a monotonic hint; size() may lag a racing append, which POSIX permits
        Ok(self.eof.load(Ordering::Relaxed))
    }

    /// Flush and drop the write stream; the next write opens a fresh
    /// dropping pair. Used by truncate-while-open: after the container is
    /// rewritten, a stale writer must not keep appending to unlinked
    /// droppings, and the cached EOF must be re-seeded from the rewritten
    /// container.
    pub fn reset_writers(&self) -> Result<()> {
        // An untaken creator's dropping closes as a writer that wrote
        // nothing; the truncate that follows removes it with the rest.
        self.release_creator()?;
        let mut guard = self.reader.write();
        let writer = self.writer.lock().take();
        if let Some(mut w) = writer {
            let synced = w.sync();
            self.cache.writer_dec(&self.container);
            synced?;
            if w.top_level() {
                // Its marker is also its index: closed by rename, for the
                // truncate that follows to remove with the rest.
                w.truncated();
                // plfs-lint: allow(lock-across-io, "intentional quiesce: truncate holds the reader lock while tearing down the writer so no refresh observes a half-reset fd")
                w.close_names(self.backing.as_ref(), &self.container)?;
            } else {
                // plfs-lint: allow(lock-across-io, "intentional quiesce: same section as close_names above")
                container::mark_closed(self.backing.as_ref(), &self.container, w.pid(), w.seq)?;
            }
        }
        *guard = None;
        // relaxed: truncate path: the writer is gone and the view lock is held exclusively
        self.dirty.store(false, Ordering::Relaxed);
        self.rebuild.store(false, Ordering::Relaxed); // relaxed: same quiesced section
        self.eof.store(0, Ordering::Relaxed); // relaxed: same quiesced section
        self.eof_seeded.store(false, Ordering::Relaxed); // relaxed: same quiesced section
        Ok(())
    }

    /// Drop one reference. The last one closes the writer — flushed, its
    /// open marker turned into the metadata drop fast stat reads — and
    /// gives a creator's dropping no writer took its empty closed index.
    /// Returns the references left (the C `plfs_close` contract).
    pub fn close(&self) -> Result<u32> {
        let refs = self
            .refs
            // relaxed: the count alone; the one decrement that reaches 0 closes
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1));
        let left = refs.map_err(|_| Error::BadMode("close of an fd with no references"))? - 1;
        if left > 0 {
            return Ok(left);
        }
        // Taken before the closed name is published: a local invalidation
        // after it wins over what the close installs.
        let generation = self.cache.begin_fill(&self.container);
        let writer = self.writer.lock().take();
        let closed = writer.map_or(Ok(()), |w| self.close_writer(w, generation));
        // A failed writer close still releases the creator's dropping; the
        // first error is the one returned.
        let released = self.release_creator();
        closed.and(released).map(|()| 0)
    }

    /// Sync the last writer, give up the mount's count of it — also when
    /// the sync fails: a count left behind sends every later `getattr` of
    /// the container down the slow path — then leave its closed names. A
    /// hostdir writer leaves them after a failed sync too, its meta drop
    /// recording what reached its index dropping: an open marker left
    /// behind would have every process list and merge the container on
    /// each `getattr` for good. The sync's error is still the close's. The
    /// mount's last writer may then publish the merged index
    /// ([`container::publish_merged`]).
    fn close_writer(&self, mut w: WriteFile, generation: u64) -> Result<()> {
        let synced = w.sync_at_close();
        // A view that has not seen all of the writer is rebuilt by a
        // read after the close, from the records synced.
        if !w.take_unmerged().is_empty() {
            self.stale_view();
        }
        let last = self.cache.writer_dec(&self.container) == 0;
        let named = match synced {
            Err(e) if w.top_level() => Err(e),
            synced => {
                let t0 = iotrace::global().start();
                let named = w.close_names(self.backing.as_ref(), &self.container);
                self.trace_marker(t0);
                synced.and(named)
            }
        };
        match named {
            Ok(Some(closed)) if last && self.alone_in_container() => {
                self.install_closed(generation, closed);
                Ok(())
            }
            // The meta drop just changed the fast-stat answer, or a failure
            // left it for a listing to say; keep the exists/container
            // verdicts.
            other => {
                self.cache.clear_meta(&self.container);
                // This mount's last writer, having logged at least a full
                // index buffer of records, leaves readers the merged index
                // if no writer of any process is left open. Without the
                // file readers merge, so a failure to publish fails nothing.
                if last && other.is_ok() && w.index_records() >= DEFAULT_INDEX_BUFFER_ENTRIES as u64
                {
                    let _ = container::publish_merged(self.backing.as_ref(), &self.container);
                }
                other.map(drop)
            }
        }
    }

    /// Is the closing creator's pair alone in the container, as far as a
    /// writer goes? Every other writer writes into a `hostdir.N/`, which its
    /// first write makes before it places its open marker: a backing that
    /// counts the container directory's subdirectories exactly and counts
    /// none says no other writer has data there. One `stat`; none once the
    /// backing has said it does not count them.
    fn alone_in_container(&self) -> bool {
        if !self.cache.subdirs_counted() {
            return false;
        }
        match self.backing.stat(&self.container) {
            Ok(st) if st.is_dir => {
                self.cache.note_subdirs(st.subdirs);
                st.subdirs == Some(0)
            }
            _ => false,
        }
    }

    /// What the last local writer of a creator's pair, alone in the
    /// container and closed under `closed`, knows: the verdict a listing
    /// would give — the fast-stat answer and the pair alone — installed
    /// under `generation`, taken before the name was published.
    fn install_closed(&self, generation: u64, closed: container::Closed) {
        let entry = crate::meta::MetaEntry {
            exists: true,
            is_dir: true,
            is_container: true,
            checked: true,
            meta: Some(Some((closed.eof, closed.bytes))),
            alone: Some(closed),
        };
        self.cache.complete_fill(&self.container, generation, entry);
    }

    /// A creator's dropping no writer took is closed as a writer that wrote
    /// nothing: its empty index, created under its closed name
    /// (`<eof>.<bytes>` = `0.0`), says the creator closed.
    fn release_creator(&self) -> Result<()> {
        if self.creator.lock().take().is_none() {
            return Ok(());
        }
        let index =
            container::creator_closed_index_path(&self.container, container::Closed::sized(0, 0));
        self.backing.create(&index, true)?;
        self.cache.clear_meta(&self.container);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;
    use crate::container::create_container;
    use crate::index::IndexEntry;

    /// A metadata cache for an fd built without a mount.
    fn cache() -> Arc<MetaCache> {
        Arc::new(MetaCache::new(64, 4))
    }

    fn open_fd(flags: OpenFlags) -> (Arc<dyn Backing>, Arc<PlfsFd>) {
        let b: Arc<dyn Backing> = Arc::new(MemBacking::new());
        create_container(b.as_ref(), "/f", true).unwrap();
        let fd = Arc::new(PlfsFd::new(
            b.clone(),
            "/f".to_string(),
            flags,
            cache(),
            100,
        ));
        (b, fd)
    }

    #[test]
    fn read_your_own_writes() {
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        fd.write(b"hello", 0).unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(fd.read(&mut buf, 0).unwrap(), 5);
        assert_eq!(&buf, b"hello");
        // And writes after a read invalidate the cached reader.
        fd.write(b"HELLO", 0).unwrap();
        fd.read(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"HELLO");
    }

    #[test]
    fn write_on_readonly_fd_fails() {
        let (_b, fd) = open_fd(OpenFlags::RDONLY);
        assert!(matches!(fd.write(b"x", 0), Err(Error::BadMode(_))));
    }

    #[test]
    fn read_on_writeonly_fd_fails() {
        let (_b, fd) = open_fd(OpenFlags::WRONLY);
        fd.write(b"x", 0).unwrap();
        let mut buf = [0u8; 1];
        assert!(matches!(fd.read(&mut buf, 0), Err(Error::BadMode(_))));
    }

    #[test]
    fn refcounting_matches_c_contract() {
        let (b, fd) = open_fd(OpenFlags::RDWR);
        fd.add_ref();
        fd.add_ref();
        fd.write(b"abc", 0).unwrap();
        assert_eq!(fd.close().unwrap(), 2);
        assert_eq!(fd.close().unwrap(), 1);
        // The writer stays open until the last reference goes.
        assert_eq!(container::open_writers(b.as_ref(), "/f").unwrap(), 1);
        assert_eq!(fd.close().unwrap(), 0);
        assert_eq!(container::open_writers(b.as_ref(), "/f").unwrap(), 0);
    }

    #[test]
    fn close_past_the_last_reference_is_error() {
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        assert_eq!(fd.close().unwrap(), 0);
        assert!(matches!(fd.close(), Err(Error::BadMode(_))));
    }

    #[test]
    fn close_drops_meta_and_open_marker() {
        let (b, fd) = open_fd(OpenFlags::RDWR);
        fd.write(b"0123456789", 0).unwrap();
        assert_eq!(container::open_writers(b.as_ref(), "/f").unwrap(), 1);
        fd.close().unwrap();
        assert_eq!(container::open_writers(b.as_ref(), "/f").unwrap(), 0);
        assert_eq!(
            container::read_lifecycle(b.as_ref(), "/f").unwrap().1,
            Some((10, 10))
        );
    }

    #[test]
    fn multiple_pids_write_distinct_droppings() {
        let b: Arc<dyn Backing> = Arc::new(MemBacking::new());
        create_container(b.as_ref(), "/f", true).unwrap();
        let open = |flags, pid| PlfsFd::new(b.clone(), "/f".to_string(), flags, cache(), pid);
        for (pid, data, off) in [(100, b"aa", 0), (200, b"bb", 2)] {
            let fd = open(OpenFlags::WRONLY, pid);
            fd.write(data, off).unwrap();
            fd.close().unwrap();
        }
        let mut buf = [0u8; 4];
        open(OpenFlags::RDONLY, 1).read(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"aabb");
        let d = container::list_droppings(b.as_ref(), "/f").unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn size_tracks_writes() {
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        assert_eq!(fd.size().unwrap(), 0);
        fd.write(b"xyz", 100).unwrap();
        assert_eq!(fd.size().unwrap(), 103);
    }

    #[test]
    fn size_then_read_on_a_read_only_fd_merges_the_index_once() {
        let mem: Arc<dyn Backing> = Arc::new(MemBacking::new());
        let metered = Arc::new(crate::meter::MeterBacking::new(mem));
        let b: Arc<dyn Backing> = metered.clone();
        create_container(b.as_ref(), "/f", true).unwrap();
        let open = |flags| PlfsFd::new(b.clone(), "/f".to_string(), flags, cache(), 7);
        let w = open(OpenFlags::RDWR);
        w.write(b"0123456789", 0).unwrap();
        w.close().unwrap();

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
        fd.write(b"head", 0).unwrap();
        let (off, n) = fd.append(b"tail").unwrap();
        assert_eq!((off, n), (4, 4));
        let (off, n) = fd.append(b"!").unwrap();
        assert_eq!((off, n), (8, 1));
        let mut buf = [0u8; 9];
        fd.read(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"headtail!");
    }

    #[test]
    fn append_to_reopened_container_lands_at_on_disk_eof() {
        let b: Arc<dyn Backing> = Arc::new(MemBacking::new());
        create_container(b.as_ref(), "/f", true).unwrap();
        {
            let fd = PlfsFd::new(b.clone(), "/f".to_string(), OpenFlags::RDWR, cache(), 100);
            fd.write(b"0123456789", 0).unwrap();
            fd.close().unwrap();
        }
        // Fresh fd: the EOF cache must seed from the container, not zero.
        let fd = PlfsFd::new(b.clone(), "/f".to_string(), OpenFlags::RDWR, cache(), 200);
        assert_eq!(fd.size().unwrap(), 10);
        let (off, n) = fd.append(b"xy").unwrap();
        assert_eq!((off, n), (10, 2));
        let mut buf = [0u8; 12];
        fd.read(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"0123456789xy");
    }

    #[test]
    fn concurrent_appends_never_overlap() {
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        const THREADS: u8 = 4;
        const PER_THREAD: usize = 25;
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let fd = fd.clone();
                s.spawn(move || {
                    for _ in 0..PER_THREAD {
                        fd.append(&[b'a' + t; 8]).unwrap();
                    }
                });
            }
        });
        // Every append reserved a distinct EOF slot: total size is exact,
        // and every 8-byte slot is one thread's payload, unmixed.
        let total = THREADS as usize * PER_THREAD * 8;
        assert_eq!(fd.size().unwrap() as usize, total);
        let mut buf = vec![0u8; total];
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
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        fd.write(b"aaaa", 0).unwrap();
        let mut buf = [0u8; 4];
        fd.read(&mut buf, 0).unwrap(); // builds + caches the view
        assert_eq!(&buf, b"aaaa");
        // Overwrite across the EOF + extend, then read again: the patched
        // view must show both, latest-wins included.
        fd.write(b"BBB", 2).unwrap();
        fd.write(b"cc", 5).unwrap();
        let mut buf = [0u8; 7];
        assert_eq!(fd.read(&mut buf, 0).unwrap(), 7);
        assert_eq!(&buf, b"aaBBBcc");
        assert_eq!(fd.size().unwrap(), 7);
    }

    /// Regression: marker and drop were named by pid alone, so the first
    /// close among two fds of one pid took the marker the other still
    /// needed and another process trusted the closed fd's drop.
    #[test]
    fn two_fds_of_one_pid_keep_their_own_marker_and_drop() {
        let b: Arc<dyn Backing> = Arc::new(MemBacking::new());
        create_container(b.as_ref(), "/f", true).unwrap();
        let open = || PlfsFd::new(b.clone(), "/f".into(), OpenFlags::RDWR, cache(), 100);
        let (a, other) = (open(), open());
        a.write(b"aaaa", 0).unwrap();
        other.write(&[b'b'; 24], 0).unwrap();
        other.sync().unwrap();
        a.close().unwrap();
        // What a fresh process sees: one writer still open, so no fast
        // stat.
        assert_eq!(container::open_writers(b.as_ref(), "/f").unwrap(), 1);
        let fresh = crate::api::Plfs::new(b.clone());
        assert_eq!(fresh.getattr("/f").unwrap().size, 24);
        other.close().unwrap();
        assert_eq!(
            container::read_lifecycle(b.as_ref(), "/f").unwrap(),
            (0, Some((24, 28)))
        );
    }

    /// A joiner's writer goes to `hostdir.{hostdir_for_pid(pid, HOSTDIRS)}`,
    /// which its fd makes once, with one `mkdir` and no probe: fds of pids
    /// that share it find it there.
    #[test]
    fn a_writer_makes_its_hostdir_once() {
        use crate::meter::MeterBacking;
        let inner: Arc<dyn Backing> = Arc::new(MemBacking::new());
        create_container(inner.as_ref(), "/f", true).unwrap();
        let meter = Arc::new(MeterBacking::new(inner));
        let open = |pid| PlfsFd::new(meter.clone(), "/f".into(), OpenFlags::RDWR, cache(), pid);
        let hd = container::hostdir_for_pid(1, container::HOSTDIRS);
        let sharing = (1..)
            .filter(|&pid| container::hostdir_for_pid(pid, container::HOSTDIRS) == hd)
            .take(8);
        let before = meter.snapshot();
        for pid in sharing.clone() {
            let fd = open(pid);
            fd.write(b"x", pid).unwrap();
            fd.write(b"y", pid + 1).unwrap();
            fd.close().unwrap();
        }
        let d = meter.snapshot().delta(&before);
        assert_eq!(d.mkdir, 8, "one mkdir per fd");
        assert_eq!(d.exists + d.stat, 0, "no hostdir probes, got {d:?}");
        let listed = meter.readdir(&format!("/f/hostdir.{hd}")).unwrap();
        for pid in sharing {
            assert!(listed.contains(&format!("dropping.data.{pid}.0")), "{pid}");
        }
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
        let (b, fd) = open_fd(OpenFlags::RDWR);
        let mut w = WriteFile::create(b.as_ref(), "/f", 7, 64).unwrap();
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
        fd.write(&[b'C'; 1000], 50).unwrap();
        fd.read(&mut buf, 0).unwrap(); // patches it
        assert!(buf[50..1050].iter().all(|&x| x == b'C'));
        fd.sync().unwrap();
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
        create_container(faulty.as_ref(), "/f", true).unwrap();
        let fd = PlfsFd::new(faulty.clone(), "/f".into(), OpenFlags::RDWR, cache(), 100);
        fd.write(b"BBBB", 0).unwrap();
        fd.write(b"cccc", 4).unwrap();
        // The writer's index flush ahead of the first rebuild fails.
        faulty.arm(FaultRule {
            op: FaultOp::Write,
            path_contains: "dropping.index.100".into(),
            after: 0,
            times: 1,
            errno_like: FaultKind::Io,
        });
        let mut buf = [0u8; 8];
        assert!(fd.read(&mut buf, 0).is_err());
        // The retry must flush the writer before it merges, not serve a
        // view built without its records.
        assert_eq!(fd.read(&mut buf, 0).unwrap(), 8);
        assert_eq!(&buf, b"BBBBcccc");
    }

    /// Regression: writers tracked their flushed entries whatever the open
    /// mode, so a write-only fd — which no read can ever drain — banked 48
    /// bytes per write until it dropped.
    #[test]
    fn write_only_fd_banks_no_index_entries() {
        let (_b, fd) = open_fd(OpenFlags::WRONLY);
        // Past a full index buffer, so the writer flushes while it writes.
        let writes = DEFAULT_INDEX_BUFFER_ENTRIES as u64 + 1000;
        let offsets = (0..writes).map(|i| (i * 7919) % 4096);
        for off in offsets.clone() {
            fd.write(b"x", off).unwrap();
        }
        fd.flush_index().unwrap();
        let banked = fd.writer.lock().as_mut().unwrap().take_unmerged();
        assert!(banked.is_empty(), "nothing reads through it");
        // Inspection still works: it rebuilds from the backing store, and
        // a write after it turns the fd dirty, so the next one rebuilds
        // again rather than serve the stale view.
        let eof = offsets.max().unwrap() + 1;
        assert_eq!(fd.with_view(|v| v.eof()).unwrap(), eof);
        fd.write(b"y", 5000).unwrap();
        assert_eq!(fd.with_view(|v| v.eof()).unwrap(), 5001);
        fd.close().unwrap();
    }

    #[test]
    fn close_does_not_lose_unmerged_entries() {
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        fd.write(b"first", 0).unwrap();
        let mut buf = [0u8; 5];
        fd.read(&mut buf, 0).unwrap(); // cache a view
        fd.write(b"SECOND", 5).unwrap();
        fd.close().unwrap(); // the writer leaves before any read
        let mut buf = [0u8; 11];
        assert_eq!(fd.read(&mut buf, 0).unwrap(), 11);
        assert_eq!(&buf, b"firstSECOND");
    }

    /// A forked child drops its copy of the parent's writer unwritten; its
    /// reads see what the parent wrote before the fork (whose records the
    /// parent flushed) and its writes go to droppings of its own pid.
    #[test]
    fn a_forked_child_reads_the_parents_bytes_and_writes_its_own() {
        let (b, fd) = open_fd(OpenFlags::RDWR);
        fd.write(b"parent", 0).unwrap();
        let mut buf = [0u8; 6];
        fd.read(&mut buf, 0).unwrap(); // a view the write after it outdates
        fd.write(b"PA", 0).unwrap();
        fd.flush_index().unwrap(); // the parent's side of the fork
        fd.forked(300);
        assert_eq!(fd.pid(), 300);
        fd.read(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"PArent");
        fd.write(b"c", 6).unwrap();
        fd.close().unwrap();
        let names = container::list_droppings(b.as_ref(), "/f").unwrap();
        let ours = |pid: u64| {
            let data = format!("dropping.data.{pid}.0");
            names.iter().any(|d| d.data_path.ends_with(&data))
        };
        assert!(ours(100) && ours(300), "{names:?}");
    }

    /// A parent thread reading through an open at the fork leaves the
    /// child's copy of the view lock held shared, by no one: adopting the
    /// open, and the child's first write and close on it, must not wait
    /// for that lock to be released. Here the main thread's held view
    /// stands for that reader; the "child" runs on another thread.
    #[test]
    fn a_forked_child_never_waits_for_a_reader_left_behind() {
        let (_b, fd) = open_fd(OpenFlags::RDWR);
        fd.write(b"parent", 0).unwrap();
        let held = fd.reader().unwrap();
        fd.write(b"PA", 6).unwrap(); // entries the held view has not seen
        fd.flush_index().unwrap(); // the parent's side of the fork
        let (done, finished) = std::sync::mpsc::channel();
        let child = Arc::clone(&fd);
        std::thread::spawn(move || {
            child.forked(300);
            child.write(b"c", 8).unwrap();
            child.close().unwrap();
            done.send(()).unwrap();
        });
        let waited = finished.recv_timeout(std::time::Duration::from_secs(10));
        assert!(waited.is_ok(), "the child waited on the view lock");
        assert_eq!(held.eof(), 6, "the reader's view is untouched");
        drop(held);
        // The view had not seen the parent's last write: the next read
        // rebuilds it from the records.
        let mut buf = [0u8; 9];
        assert_eq!(fd.read(&mut buf, 0).unwrap(), 9);
        assert_eq!(&buf, b"parentPAc");
    }

    /// Record slots `0..n` in a shuffled order: no strided run for
    /// pattern compression to fold, so each write is one index record.
    fn shuffled(n: u64) -> Vec<u64> {
        let mut order: Vec<u64> = (0..n).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..order.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        order
    }

    /// The close that leaves no writer open publishes the merged index
    /// when its own writer logged a full index buffer of records — not
    /// one record fewer, not while another writer is open — and a creator
    /// alone in its container never does.
    #[test]
    fn the_last_close_of_a_full_index_buffer_publishes_the_merged_index() {
        use crate::api::Plfs;
        let full = DEFAULT_INDEX_BUFFER_ENTRIES as u64;
        let merged = |b: &MemBacking, path: &str| {
            let names = b.readdir(path).unwrap();
            names
                .iter()
                .filter(|n| n.starts_with(container::MERGED_FILE))
                .count()
        };
        // Two writers of interleaved slots, the second closing last: the
        // merged index files after each close.
        let run = |path: &str, records: [u64; 2]| {
            let b = Arc::new(MemBacking::new());
            let plfs = Plfs::new(b.clone());
            plfs.create(path, true).unwrap();
            let fds = [1u64, 2].map(|pid| plfs.open(path, OpenFlags::WRONLY, pid).unwrap());
            for (i, (fd, n)) in (0u64..).zip(fds.iter().zip(records)) {
                for slot in shuffled(n) {
                    let off = (slot * 2 + i) * 8;
                    plfs.write(fd, &off.to_le_bytes(), off, i + 1).unwrap();
                }
            }
            plfs.close(&fds[0], 1).unwrap();
            let first = merged(&b, path);
            plfs.close(&fds[1], 2).unwrap();
            (first, merged(&b, path))
        };
        assert_eq!(run("/f", [full, full]), (0, 1));
        assert_eq!(
            run("/f", [full, full - 1]),
            (0, 0),
            "the last closer's own records count"
        );
        // A creator alone: the close's `stat` saw no hostdir.
        let b = Arc::new(MemBacking::new());
        let plfs = Plfs::new(b.clone());
        let fd = plfs
            .open("/c", OpenFlags::RDWR | OpenFlags::CREAT, 1)
            .unwrap();
        for slot in shuffled(full) {
            plfs.write(&fd, &[slot as u8; 8], slot * 8, 1).unwrap();
        }
        plfs.close(&fd, 1).unwrap();
        assert_eq!(merged(&b, "/c"), 0);
    }
}
