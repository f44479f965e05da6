//! The read path: reassembling a logical file from its droppings.
//!
//! Opening a container for reading merges every index dropping into a
//! [`GlobalIndex`], then `pread` resolves the requested range into slices of
//! individual data droppings. Dropping file handles are opened lazily and
//! cached — a container written by thousands of pids should not cost
//! thousands of opens to read one block.

use crate::backing::{Backing, BackingFile};
use crate::cache::BlockCache;
use crate::conf::Conf;
use crate::container::{self, DroppingRef};
use crate::error::{Error, Result};
use crate::index::{ChunkSlice, CompactIndex, GlobalIndex, IndexEntry};
use iotrace::{Layer, OpEvent, OpKind};
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

/// Byte span covered by one cached index view in the memory-bounded read
/// path: `pread`s are split on these boundaries and each window
/// materialises (and caches) its own partial [`GlobalIndex`].
pub const INDEX_WINDOW_BYTES: u64 = 4 << 20;

/// Sharded dropping-handle cache: concurrent readers touching distinct
/// droppings only contend when their ids collide in a shard, instead of
/// funneling every lookup through one global mutex.
/// One shard: dropping id -> cached open handle.
type HandleShard = Mutex<HashMap<u32, Arc<dyn BackingFile>>>;

struct HandleCache {
    shards: Box<[HandleShard]>,
    mask: usize,
}

impl HandleCache {
    fn new(shards: usize) -> HandleCache {
        // Dropping ids are dense (positions in list_droppings order), so a
        // power-of-two mask spreads them perfectly.
        let n = shards.max(1).next_power_of_two();
        HandleCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            mask: n - 1,
        }
    }

    fn shard(&self, id: u32) -> &HandleShard {
        &self.shards[id as usize & self.mask]
    }
}

/// Per-window LRU of materialised index views (see [`CompactSource`]).
struct ViewCache {
    /// Window id -> (last-use tick, materialised view).
    views: HashMap<u64, (u64, Arc<GlobalIndex>)>,
    tick: u64,
    /// Approximate resident bytes of all cached views.
    bytes: usize,
}

/// Fixed per-view bookkeeping cost charged against the budget, so even a
/// view of an empty window has nonzero weight.
const VIEW_BASE_COST: usize = 64;

fn view_cost(v: &GlobalIndex) -> usize {
    VIEW_BASE_COST + v.approx_resident_bytes()
}

/// The memory-bounded index source: compact records plus an LRU of
/// per-window materialised views, budgeted by `index_memory_bytes`.
struct CompactSource {
    compact: CompactIndex,
    /// View-cache budget in bytes (the compact records themselves are the
    /// O(on-disk records) floor and are not charged against it).
    budget: usize,
    /// Window span in bytes ([`INDEX_WINDOW_BYTES`]; tests shrink it).
    window: u64,
    views: Mutex<ViewCache>,
}

impl CompactSource {
    fn new(compact: CompactIndex, budget: usize) -> CompactSource {
        CompactSource {
            compact,
            budget,
            window: INDEX_WINDOW_BYTES,
            views: Mutex::new(ViewCache {
                views: HashMap::new(),
                tick: 0,
                bytes: 0,
            }),
        }
    }

    /// The cached view for window `w`, materialising it on a miss and
    /// evicting least-recently-used views past the budget (the window just
    /// asked for is always kept, so a single view larger than the budget
    /// still works).
    fn view(&self, w: u64) -> Arc<GlobalIndex> {
        {
            let mut c = self.views.lock();
            c.tick += 1;
            let tick = c.tick;
            if let Some(slot) = c.views.get_mut(&w) {
                slot.0 = tick;
                return slot.1.clone();
            }
        }
        // Materialise outside the lock: pure in-memory work, but it scales
        // with the records in range, and a slow fill must not block readers
        // hitting other windows. Racing fills both compute; both results
        // are identical, and the loser's insert just refreshes the slot.
        let start = w.saturating_mul(self.window);
        let v = Arc::new(self.compact.view(start, self.window));
        let cost = view_cost(&v);
        let mut c = self.views.lock();
        c.tick += 1;
        let tick = c.tick;
        if let Some(slot) = c.views.get_mut(&w) {
            slot.0 = tick;
            return slot.1.clone();
        }
        c.views.insert(w, (tick, v.clone()));
        c.bytes += cost;
        while c.bytes > self.budget && c.views.len() > 1 {
            let oldest = c
                .views
                .iter()
                .filter(|(&k, _)| k != w)
                .min_by_key(|(_, (t, _))| *t)
                .map(|(&k, _)| k);
            let Some(k) = oldest else { break };
            if let Some((_, old)) = c.views.remove(&k) {
                c.bytes -= view_cost(&old);
            }
        }
        v
    }

    /// Approximate resident bytes of the currently cached views.
    fn cached_view_bytes(&self) -> usize {
        self.views.lock().bytes
    }
}

/// Where a [`ReadFile`] gets its merged index from.
enum IndexSource {
    /// The classic fully expanded merged index, built at open.
    Eager(GlobalIndex),
    /// Compact records with budgeted per-window views (`index_memory_bytes`).
    Compact(CompactSource),
}

/// The data block cache attached to a view: the cache itself (owned by
/// the fd, surviving view rebuilds) plus this view's positional
/// dropping-id -> interned cache-id mapping, computed once at attach so
/// the hot path never touches the intern table.
struct CacheHandle {
    cache: Arc<BlockCache>,
    ids: Vec<u32>,
}

/// An open read view of a container.
pub struct ReadFile {
    source: IndexSource,
    droppings: Vec<DroppingRef>,
    /// `data_path` → position in `droppings`; empty until the first
    /// [`ReadFile::patch`] needs it.
    ids_by_path: HashMap<String, u32>,
    handles: HandleCache,
    conf: Conf,
    merged_parallel: bool,
    cache: Option<CacheHandle>,
}

impl ReadFile {
    /// Build a read view by merging all index droppings in `container`,
    /// using the default (serial) configuration.
    pub fn open(b: &dyn Backing, container: &str) -> Result<ReadFile> {
        ReadFile::open_with(b, container, &Conf::default())
    }

    /// Build a read view under an explicit [`Conf`]: the index merge
    /// runs in parallel when the configuration allows it, and the handle
    /// cache is sharded `conf.lock_shards` ways. A nonzero
    /// `index_memory_bytes` switches the merged index to the memory-bounded
    /// compact form: pattern records stay unexpanded and `pread`
    /// materialises per-window views cached under that budget.
    pub fn open_with(b: &dyn Backing, container: &str, conf: &Conf) -> Result<ReadFile> {
        let (source, droppings, merged_parallel) = if conf.bounded_index() {
            let (compact, droppings, par) = container::build_compact_index(b, container, conf)?;
            (
                IndexSource::Compact(CompactSource::new(compact, conf.index_memory_bytes)),
                droppings,
                par,
            )
        } else {
            let (index, droppings, par) = container::build_global_index_with(b, container, conf)?;
            (IndexSource::Eager(index), droppings, par)
        };
        Ok(ReadFile {
            source,
            droppings,
            ids_by_path: HashMap::new(),
            handles: HandleCache::new(conf.lock_shards),
            conf: *conf,
            merged_parallel,
            cache: None,
        })
    }

    /// Attach a data block cache: every physical dropping read in this
    /// view is served block-by-block through `cache` (see
    /// [`crate::cache`]). The cache is owned by the fd and survives view
    /// rebuilds; block keys intern dropping paths here so positional id
    /// churn across rebuilds cannot alias blocks.
    pub fn with_cache(mut self, cache: Arc<BlockCache>) -> ReadFile {
        let ids = self
            .droppings
            .iter()
            .map(|d| cache.id_for(&d.data_path))
            .collect();
        self.cache = Some(CacheHandle { cache, ids });
        self
    }

    /// Fold freshly flushed entries into this view **in place** — the
    /// incremental refresh. `fresh` holds one batch per writer: its data
    /// dropping's path and its entries in write order, every one stamped
    /// after everything already merged (the process write clock steps past
    /// each view it builds). O(k log n) for k entries: nothing is cloned,
    /// and because dropping ids are positions that only grow, an unknown
    /// dropping is *appended* to the table (and to the block cache's id
    /// table), so open handles and cached blocks stay valid. Returns the
    /// bytes patched. Bounded-index views have no resident index to patch.
    pub(crate) fn patch(&mut self, fresh: Vec<(String, Vec<IndexEntry>)>) -> u64 {
        let IndexSource::Eager(index) = &mut self.source else {
            unreachable!("a bounded-index view is rebuilt, never patched");
        };
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
                    if let Some(ch) = &mut self.cache {
                        ch.ids.push(ch.cache.id_for(&data_path));
                    }
                    self.ids_by_path.insert(data_path.clone(), id);
                    self.droppings.push(DroppingRef {
                        data_path,
                        index_path: None,
                    });
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
            index.insert(e);
        }
        bytes
    }

    /// Logical end-of-file.
    pub fn eof(&self) -> u64 {
        match &self.source {
            IndexSource::Eager(i) => i.eof(),
            IndexSource::Compact(cs) => cs.compact.eof(),
        }
    }

    /// The merged index (used by flatten and the map query): borrowed from
    /// an eager view, materialised in full from a compact one.
    pub fn index(&self) -> Cow<'_, GlobalIndex> {
        match &self.source {
            IndexSource::Eager(i) => Cow::Borrowed(i),
            IndexSource::Compact(cs) => Cow::Owned(cs.compact.full_view()),
        }
    }

    /// Is this view using the memory-bounded compact index?
    pub fn bounded_index(&self) -> bool {
        matches!(self.source, IndexSource::Compact(_))
    }

    /// Approximate resident bytes attributable to the merged index: the
    /// full segment map for an eager view, or the compact records plus the
    /// currently cached window views for a bounded one.
    pub fn index_resident_bytes(&self) -> usize {
        match &self.source {
            IndexSource::Eager(i) => i.approx_resident_bytes(),
            IndexSource::Compact(cs) => cs.compact.approx_resident_bytes() + cs.cached_view_bytes(),
        }
    }

    /// The droppings backing this view, in `dropping_id` order.
    pub fn droppings(&self) -> &[DroppingRef] {
        &self.droppings
    }

    /// Did the index merge at open time take the parallel path?
    pub fn merged_parallel(&self) -> bool {
        self.merged_parallel
    }

    fn handle(&self, b: &dyn Backing, id: u32) -> Result<Arc<dyn BackingFile>> {
        let shard = self.handles.shard(id);
        if let Some(h) = shard.lock().get(&id) {
            return Ok(h.clone());
        }
        let dr = self
            .droppings
            .get(id as usize)
            .ok_or_else(|| Error::Corrupt(format!("dropping id {id} out of range")))?;
        // Open outside the lock: a slow backing open must not serialize
        // every other reader hashing to this shard. Racing openers both
        // succeed; the loser's handle is dropped in favor of the cached one.
        let opened = b.open(&dr.data_path, false).map_err(|e| match e {
            // The index names it, so it existed when this view was built: a
            // truncate or unlink raced the reader. To the caller of read()
            // that is an I/O error on an open file, not "no such file".
            Error::NotFound(p) => {
                Error::Corrupt(format!("data dropping {p} vanished under a reader"))
            }
            e => e,
        })?;
        let h: Arc<dyn BackingFile> = Arc::from(opened);
        Ok(shard.lock().entry(id).or_insert(h).clone())
    }

    /// Positional read of logical bytes. Returns bytes read; 0 at EOF.
    /// Holes read as zeros, exactly like a sparse POSIX file.
    pub fn pread(&self, b: &dyn Backing, buf: &mut [u8], off: u64) -> Result<usize> {
        match &self.source {
            IndexSource::Eager(index) => self.pread_slices(index, b, buf, off),
            IndexSource::Compact(cs) => self.pread_windows(cs, b, buf, off),
        }
    }

    /// The bounded-index read path: split the request on view-window
    /// boundaries and serve each piece from that window's cached partial
    /// index. Each window resolves identically to the eager index (entries
    /// outside a window cannot shadow bytes inside it), so the assembled
    /// read is byte-identical to the eager path.
    fn pread_windows(
        &self,
        cs: &CompactSource,
        b: &dyn Backing,
        buf: &mut [u8],
        off: u64,
    ) -> Result<usize> {
        let eof = cs.compact.eof();
        if off >= eof || buf.is_empty() {
            return Ok(0);
        }
        let end = off.saturating_add(buf.len() as u64).min(eof);
        let mut cursor = off;
        while cursor < end {
            let w = cursor / cs.window;
            let wend = (w + 1).saturating_mul(cs.window).min(end);
            let view = cs.view(w);
            let dst_start = (cursor - off) as usize;
            let dst = &mut buf[dst_start..dst_start + (wend - cursor) as usize];
            self.pread_slices(&view, b, dst, cursor)?;
            cursor = wend;
        }
        Ok((end - off) as usize)
    }

    /// Resolve `[off, off + buf.len())` against `index` and fill `buf` from
    /// the data droppings (zeros for holes). Returns bytes read, clamped at
    /// the index's EOF.
    fn pread_slices(
        &self,
        index: &GlobalIndex,
        b: &dyn Backing,
        buf: &mut [u8],
        off: u64,
    ) -> Result<usize> {
        if off >= index.eof() || buf.is_empty() {
            return Ok(0);
        }
        let want = buf.len() as u64;
        let slices = index.resolve(off, want);
        let mut total = 0usize;
        for s in &slices {
            let dst_start = (s.logical_offset - off) as usize;
            let dst = &mut buf[dst_start..dst_start + s.length as usize];
            self.read_slice(b, dst, s)?;
            total = dst_start + s.length as usize;
        }
        Ok(total)
    }

    /// Fill `dst` from one resolved slice: zeros for a hole, dropping
    /// bytes otherwise — through the block cache when one is attached.
    /// The single physical-read choke point shared by the serial, fanned,
    /// and windowed paths.
    fn read_slice(&self, b: &dyn Backing, dst: &mut [u8], s: &ChunkSlice) -> Result<()> {
        let Some(id) = s.dropping_id else {
            dst.fill(0);
            return Ok(());
        };
        if let Some(ch) = &self.cache {
            return self.read_slice_cached(ch, b, id, dst, s.physical_offset);
        }
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

    /// Serve `dst` (physical bytes `[phys, phys + dst.len())` of dropping
    /// `id`) block-by-block from the cache, fetching missing blocks whole
    /// from the backing store. A cached block shorter than what the index
    /// claims means the dropping's tail grew since it was cached — that
    /// lookup misses and the refetch replaces it (see [`crate::cache`]).
    fn read_slice_cached(
        &self,
        ch: &CacheHandle,
        b: &dyn Backing,
        id: u32,
        dst: &mut [u8],
        phys: u64,
    ) -> Result<()> {
        let cid = *ch
            .ids
            .get(id as usize)
            .ok_or_else(|| Error::Corrupt(format!("dropping id {id} out of range")))?;
        let bs = ch.cache.block_bytes() as u64;
        let end = phys + dst.len() as u64;
        let mut pos = phys;
        while pos < end {
            let blk = pos / bs;
            let blk_start = blk * bs;
            let within = (pos - blk_start) as usize;
            let take = ((blk_start + bs).min(end) - pos) as usize;
            let need = within + take;
            let out = {
                let dst_off = (pos - phys) as usize;
                &mut dst[dst_off..dst_off + take]
            };
            let t0 = iotrace::global().start();
            if let Some((data, prefetched_first_use)) = ch.cache.lookup(cid, blk, need) {
                out.copy_from_slice(&data[within..within + take]);
                if let Some(t0) = t0 {
                    iotrace::global().record(
                        t0,
                        OpEvent::new(Layer::Plfs, OpKind::CacheHit)
                            .offset(blk_start)
                            .bytes(take as u64)
                            .hit(prefetched_first_use),
                    );
                }
            } else {
                let h = self.handle(b, id)?;
                let mut block = vec![0u8; bs as usize];
                let n = h.pread(&mut block, blk_start)?;
                if n < need {
                    return Err(Error::Corrupt(format!(
                        "data dropping {id} shorter than its index claims \
                         (wanted {need} at {blk_start}, got {n})"
                    )));
                }
                block.truncate(n);
                out.copy_from_slice(&block[within..within + take]);
                let evicted = ch.cache.insert(cid, blk, block, false);
                if let Some(t0) = t0 {
                    iotrace::global().record(
                        t0,
                        OpEvent::new(Layer::Plfs, OpKind::CacheMiss)
                            .offset(blk_start)
                            .bytes(n as u64),
                    );
                    trace_evictions(&evicted);
                }
            }
            pos += take as u64;
        }
        Ok(())
    }

    /// Positional read that picks the fan-out path when this view's
    /// [`Conf`] says the request is worth it (`threads > 1` and at
    /// least `fanout_threshold` bytes), the serial loop otherwise. Fanned
    /// reads are traced as `read_fanout` ops.
    pub fn pread_auto(&self, b: &dyn Backing, buf: &mut [u8], off: u64) -> Result<usize> {
        if !self.conf.fanout(buf.len() as u64) {
            return self.pread(b, buf, off);
        }
        let t = iotrace::global().start();
        let r = self.pread_parallel(b, buf, off, self.conf.threads);
        if let Some(t0) = t {
            iotrace::global().record(
                t0,
                OpEvent::new(Layer::Plfs, OpKind::ReadFanout)
                    .offset(off)
                    .bytes(*r.as_ref().unwrap_or(&0) as u64)
                    .hit(r.is_ok()),
            );
        }
        r
    }

    /// Positional read fanned out over `threads` worker threads — the
    /// `threadpool_size` feature of real PLFS: a container written by many
    /// processes holds its data in many droppings, and reading them
    /// concurrently recovers the write-side parallelism. Falls back to the
    /// serial path for small requests or `threads <= 1`.
    pub fn pread_parallel(
        &self,
        b: &dyn Backing,
        buf: &mut [u8],
        off: u64,
        threads: usize,
    ) -> Result<usize> {
        // The bounded index serves reads window by window; fan-out inside a
        // window isn't worth a thread handoff, so it stays serial.
        let index = match &self.source {
            IndexSource::Eager(i) => i,
            IndexSource::Compact(_) => return self.pread(b, buf, off),
        };
        if off >= index.eof() || buf.is_empty() {
            return Ok(0);
        }
        let slices = index.resolve(off, buf.len() as u64);
        if threads <= 1 || slices.len() < 2 {
            return self.pread(b, buf, off);
        }
        // Carve the output buffer into per-slice disjoint regions.
        let total = {
            let last = slices.last().unwrap();
            (last.logical_offset + last.length - off) as usize
        };
        let mut regions: Vec<(&mut [u8], ChunkSlice)> = Vec::with_capacity(slices.len());
        let mut rest = &mut buf[..total];
        let mut cursor = off;
        for s in slices {
            debug_assert_eq!(s.logical_offset, cursor);
            let (head, tail) = rest.split_at_mut(s.length as usize);
            regions.push((head, s));
            rest = tail;
            cursor += s.length;
        }
        // Round-robin the regions over the workers.
        let mut work: Vec<Vec<(&mut [u8], ChunkSlice)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (i, r) in regions.into_iter().enumerate() {
            work[i % threads].push(r);
        }
        let errors: Mutex<Vec<Error>> = Mutex::new(Vec::new());
        crossbeam::scope(|scope| {
            for chunk in work {
                let errors = &errors;
                scope.spawn(move |_| {
                    for (dst, s) in chunk {
                        // Handle misses open through the sharded cache, so
                        // workers on distinct droppings open their handles
                        // concurrently; with a block cache attached the
                        // slice is served through it like the serial path.
                        if let Err(e) = self.read_slice(b, dst, &s) {
                            errors.lock().push(e);
                        }
                    }
                });
            }
        })
        .expect("reader thread panicked");
        if let Some(e) = errors.into_inner().into_iter().next() {
            return Err(e);
        }
        Ok(total)
    }

    /// The attached block cache, if any.
    pub fn cache(&self) -> Option<&Arc<BlockCache>> {
        self.cache.as_ref().map(|c| &c.cache)
    }

    /// Resolve logical range `[off, off + want)` to physical slices,
    /// window by window for a bounded index (each window resolves
    /// identically to the eager index, same as [`ReadFile::pread_windows`]).
    fn resolve_range(&self, off: u64, want: u64) -> Vec<ChunkSlice> {
        match &self.source {
            IndexSource::Eager(i) => {
                if off >= i.eof() || want == 0 {
                    Vec::new()
                } else {
                    i.resolve(off, want)
                }
            }
            IndexSource::Compact(cs) => {
                let eof = cs.compact.eof();
                if off >= eof || want == 0 {
                    return Vec::new();
                }
                let end = off.saturating_add(want).min(eof);
                let mut out = Vec::new();
                let mut cursor = off;
                while cursor < end {
                    let w = cursor / cs.window;
                    let wend = (w + 1).saturating_mul(cs.window).min(end);
                    out.extend(cs.view(w).resolve(cursor, wend - cursor));
                    cursor = wend;
                }
                out
            }
        }
    }

    /// Batch-fetch the cache blocks covering logical range
    /// `[off, off + want)` that are not yet resident — the readahead
    /// fetch path. Adjacent missing blocks of one dropping are coalesced
    /// into single large backing reads, fanned over the same worker pool
    /// as [`ReadFile::pread_parallel`] when the view's [`Conf`] allows
    /// it. Returns device bytes fetched (0 without an attached cache).
    /// Best-effort on short droppings: corruption is only enforced on the
    /// demand path.
    pub fn prefetch(&self, b: &dyn Backing, off: u64, want: usize) -> Result<u64> {
        let Some(ch) = &self.cache else { return Ok(0) };
        let bs = ch.cache.block_bytes() as u64;
        // Collect the not-yet-resident (dropping, block) pairs in range.
        let mut missing: Vec<(u32, u64)> = Vec::new();
        for s in self.resolve_range(off, want as u64) {
            let Some(id) = s.dropping_id else { continue };
            let Some(&cid) = ch.ids.get(id as usize) else {
                continue;
            };
            let first = s.physical_offset / bs;
            let last = (s.physical_offset + s.length - 1) / bs;
            for blk in first..=last {
                if !ch.cache.contains(cid, blk) {
                    missing.push((id, blk));
                }
            }
        }
        missing.sort_unstable();
        missing.dedup();
        // Coalesce adjacent blocks of one dropping into contiguous runs,
        // each fetched with a single backing read.
        let mut runs: Vec<(u32, u64, u64)> = Vec::new();
        for (id, blk) in missing {
            match runs.last_mut() {
                Some((rid, first, n)) if *rid == id && *first + *n == blk => *n += 1,
                _ => runs.push((id, blk, 1)),
            }
        }
        if runs.is_empty() {
            return Ok(0);
        }
        let fetched = Mutex::new(0u64);
        let errors: Mutex<Vec<Error>> = Mutex::new(Vec::new());
        let fetch_run = |(id, first, n): (u32, u64, u64)| match self.fetch_run(b, ch, id, first, n)
        {
            Ok(bytes) => *fetched.lock() += bytes,
            Err(e) => errors.lock().push(e),
        };
        let threads = self.conf.threads.min(runs.len());
        if threads > 1 {
            // Round-robin the runs over the fan-out pool, exactly like
            // pread_parallel carves slice regions.
            let mut work: Vec<Vec<(u32, u64, u64)>> = (0..threads).map(|_| Vec::new()).collect();
            for (i, r) in runs.into_iter().enumerate() {
                work[i % threads].push(r);
            }
            crossbeam::scope(|scope| {
                for chunk in work {
                    let fetch_run = &fetch_run;
                    scope.spawn(move |_| {
                        for r in chunk {
                            fetch_run(r);
                        }
                    });
                }
            })
            .expect("prefetch thread panicked");
        } else {
            for r in runs {
                fetch_run(r);
            }
        }
        if let Some(e) = errors.into_inner().into_iter().next() {
            return Err(e);
        }
        Ok(fetched.into_inner())
    }

    /// Fetch `nblocks` consecutive blocks of dropping `id` starting at
    /// block `first` with one backing read, and insert whatever exists
    /// (the run may extend past the dropping's tail) as prefetched
    /// blocks. Returns bytes inserted.
    fn fetch_run(
        &self,
        b: &dyn Backing,
        ch: &CacheHandle,
        id: u32,
        first: u64,
        nblocks: u64,
    ) -> Result<u64> {
        let bs = ch.cache.block_bytes();
        let cid = *ch
            .ids
            .get(id as usize)
            .ok_or_else(|| Error::Corrupt(format!("dropping id {id} out of range")))?;
        let h = self.handle(b, id)?;
        let mut buf = vec![0u8; nblocks as usize * bs];
        let n = h.pread(&mut buf, first * bs as u64)?;
        buf.truncate(n);
        let mut inserted = 0u64;
        for i in 0..nblocks {
            let s = i as usize * bs;
            if s >= buf.len() {
                break;
            }
            let e = (s + bs).min(buf.len());
            let evicted = ch.cache.insert(cid, first + i, buf[s..e].to_vec(), true);
            trace_evictions(&evicted);
            inserted += (e - s) as u64;
        }
        Ok(inserted)
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

/// Record one `cache_evict` per evicted block (no-ops when tracing is
/// off). `hit` carries the used-bit: false = prefetched and never read.
fn trace_evictions(evicted: &[crate::cache::Eviction]) {
    for &(bytes, used) in evicted {
        if let Some(t0) = iotrace::global().start() {
            iotrace::global().record(
                t0,
                OpEvent::new(Layer::Plfs, OpKind::CacheEvict)
                    .bytes(bytes)
                    .hit(used),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;
    use crate::container::{create_container, ContainerParams, LayoutMode};
    use crate::writer::WriteFile;

    fn setup() -> (MemBacking, ContainerParams) {
        let b = MemBacking::new();
        let p = ContainerParams {
            num_hostdirs: 4,
            mode: LayoutMode::Both,
        };
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

    #[test]
    fn log_structured_mode_roundtrip() {
        let b = MemBacking::new();
        let p = ContainerParams {
            num_hostdirs: 4,
            mode: LayoutMode::LogStructured,
        };
        create_container(&b, "/c", &p, true).unwrap();
        let mut w1 = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        let mut w2 = WriteFile::open(&b, "/c", &p, 2, 64).unwrap();
        w1.write(b"AB", 0).unwrap();
        w2.write(b"CD", 2).unwrap();
        w1.write(b"EF", 4).unwrap();
        w1.sync().unwrap();
        w2.sync().unwrap();
        let r = ReadFile::open(&b, "/c").unwrap();
        assert_eq!(r.read_all(&b).unwrap(), b"ABCDEF");
    }

    #[test]
    fn parallel_read_matches_serial() {
        let (b, p) = setup();
        // 8 interleaved writers -> many slices for the pool to fan over.
        for pid in 0..8u64 {
            let mut w = WriteFile::open(&b, "/c", &p, pid, 64).unwrap();
            for row in 0..16u64 {
                w.write(&[pid as u8 + 1; 100], (row * 8 + pid) * 100)
                    .unwrap();
            }
            w.sync().unwrap();
        }
        let r = ReadFile::open(&b, "/c").unwrap();
        let mut serial = vec![0u8; r.eof() as usize];
        r.pread(&b, &mut serial, 0).unwrap();
        for threads in [2usize, 4, 16] {
            let mut par = vec![0u8; r.eof() as usize];
            let n = r.pread_parallel(&b, &mut par, 0, threads).unwrap();
            assert_eq!(n, serial.len(), "{threads} threads");
            assert_eq!(par, serial, "{threads} threads");
        }
        // Offset + short reads too.
        let mut par = vec![0u8; 333];
        let n = r.pread_parallel(&b, &mut par, 450, 4).unwrap();
        assert_eq!(&par[..n], &serial[450..450 + n]);
    }

    #[test]
    fn parallel_read_detects_corruption() {
        let (b, p) = setup();
        let mut w = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        for i in 0..4u64 {
            w.write(&[9u8; 64], i * 64).unwrap();
        }
        w.sync().unwrap();
        let mut w2 = WriteFile::open(&b, "/c", &p, 2, 64).unwrap();
        w2.write(&[8u8; 64], 256).unwrap();
        w2.sync().unwrap();
        let d = container::list_droppings(&b, "/c").unwrap();
        b.truncate(&d[0].data_path, 10).unwrap();
        let r = ReadFile::open(&b, "/c").unwrap();
        let mut buf = vec![0u8; 320];
        assert!(r.pread_parallel(&b, &mut buf, 0, 4).is_err());
    }

    #[test]
    fn parallel_read_fills_holes_with_zeros() {
        let (b, p) = setup();
        let mut w = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        w.write(b"head", 0).unwrap();
        w.write(b"tail", 1000).unwrap();
        w.sync().unwrap();
        let r = ReadFile::open(&b, "/c").unwrap();
        let mut buf = vec![0xAAu8; 1004];
        let n = r.pread_parallel(&b, &mut buf, 0, 3).unwrap();
        assert_eq!(n, 1004);
        assert_eq!(&buf[..4], b"head");
        assert!(buf[4..1000].iter().all(|&x| x == 0));
        assert_eq!(&buf[1000..], b"tail");
    }

    #[test]
    fn parallel_open_matches_serial_open() {
        let (b, p) = setup();
        for pid in 0..8u64 {
            let mut w = WriteFile::open(&b, "/c", &p, pid, 64).unwrap();
            for row in 0..8u64 {
                w.write(&[pid as u8 + 1; 32], (row * 8 + pid) * 32).unwrap();
            }
            w.sync().unwrap();
        }
        let serial = ReadFile::open(&b, "/c").unwrap();
        assert!(!serial.merged_parallel());
        let conf = Conf {
            threads: 4,
            lock_shards: 4,
            ..Conf::default()
        };
        let par = ReadFile::open_with(&b, "/c", &conf).unwrap();
        assert!(par.merged_parallel(), "8 droppings exceed the merge gate");
        assert_eq!(par.eof(), serial.eof());
        assert_eq!(par.index().raw_entries(), serial.index().raw_entries());
        assert_eq!(par.index().segments(), serial.index().segments());
        assert_eq!(par.read_all(&b).unwrap(), serial.read_all(&b).unwrap());
    }

    #[test]
    fn pread_auto_respects_fanout_threshold() {
        let (b, p) = setup();
        for pid in 0..4u64 {
            let mut w = WriteFile::open(&b, "/c", &p, pid, 64).unwrap();
            w.write(&[pid as u8 + 1; 256], pid * 256).unwrap();
            w.sync().unwrap();
        }
        let conf = Conf {
            threads: 4,
            fanout_threshold: 512,
            ..Conf::default()
        };
        let r = ReadFile::open_with(&b, "/c", &conf).unwrap();
        let mut expect = vec![0u8; 1024];
        r.pread(&b, &mut expect, 0).unwrap();
        // Above threshold (fans out) and below it (serial): same bytes.
        let mut big = vec![0u8; 1024];
        assert_eq!(r.pread_auto(&b, &mut big, 0).unwrap(), 1024);
        assert_eq!(big, expect);
        let mut small = vec![0u8; 300];
        let n = r.pread_auto(&b, &mut small, 100).unwrap();
        assert_eq!(&small[..n], &expect[100..100 + n]);
    }

    #[test]
    fn handle_cache_single_shard_still_works() {
        let (b, p) = setup();
        for pid in 0..5u64 {
            let mut w = WriteFile::open(&b, "/c", &p, pid, 64).unwrap();
            w.write(&[pid as u8 + b'0'; 8], pid * 8).unwrap();
            w.sync().unwrap();
        }
        let conf = Conf {
            lock_shards: 1,
            ..Conf::default()
        };
        let r = ReadFile::open_with(&b, "/c", &conf).unwrap();
        assert_eq!(
            r.read_all(&b).unwrap(),
            b"0000000011111111222222223333333344444444"
        );
    }

    /// Open with a bounded index and shrink the view window so small test
    /// files still span many windows.
    fn open_bounded(b: &MemBacking, budget: usize, window: u64) -> ReadFile {
        let conf = Conf {
            index_memory_bytes: budget,
            ..Conf::default()
        };
        let mut r = ReadFile::open_with(b, "/c", &conf).unwrap();
        match &mut r.source {
            IndexSource::Compact(cs) => cs.window = window,
            IndexSource::Eager(_) => unreachable!("budget > 0 must go compact"),
        }
        r
    }

    fn strided_container() -> (MemBacking, ContainerParams) {
        let (b, p) = setup();
        // Interleaved strided writers plus overlapping rewrites: the shapes
        // that stress window-boundary resolution.
        for pid in 0..4u64 {
            let mut w = WriteFile::open(&b, "/c", &p, pid, 4096).unwrap();
            for row in 0..64u64 {
                w.write(&[pid as u8 + 1; 32], (row * 4 + pid) * 32).unwrap();
            }
            w.sync().unwrap();
        }
        let mut w = WriteFile::open(&b, "/c", &p, 9, 64).unwrap();
        w.write(&[0xEE; 700], 500).unwrap();
        w.write(&[0xDD; 40], 8100).unwrap();
        w.sync().unwrap();
        (b, p)
    }

    #[test]
    fn bounded_index_reads_match_eager() {
        let (b, _p) = strided_container();
        let eager = ReadFile::open(&b, "/c").unwrap();
        let expect = eager.read_all(&b).unwrap();
        let r = open_bounded(&b, 1 << 20, 256);
        assert!(r.bounded_index());
        assert_eq!(r.eof(), eager.eof());
        assert_eq!(r.read_all(&b).unwrap(), expect, "windowed == eager");
        // Unaligned reads crossing window boundaries.
        for (off, len) in [
            (0u64, 1usize),
            (200, 300),
            (255, 2),
            (500, 3000),
            (8000, 400),
        ] {
            let mut got = vec![0u8; len];
            let n = r.pread(&b, &mut got, off).unwrap();
            let mut want = vec![0u8; len];
            let m = eager.pread(&b, &mut want, off).unwrap();
            assert_eq!(n, m, "count at ({off}, {len})");
            assert_eq!(got[..n], want[..m], "bytes at ({off}, {len})");
        }
    }

    #[test]
    fn bounded_index_full_view_matches_eager_index() {
        let (b, _p) = strided_container();
        let eager = ReadFile::open(&b, "/c").unwrap();
        let r = open_bounded(&b, 1 << 20, 256);
        assert_eq!(
            r.index().iter_segments().collect::<Vec<_>>(),
            eager.index().iter_segments().collect::<Vec<_>>()
        );
    }

    #[test]
    fn bounded_index_evicts_to_budget() {
        let (b, _p) = strided_container();
        // A budget far below one view per window forces constant eviction.
        let budget = 2 * VIEW_BASE_COST + 512;
        let r = open_bounded(&b, budget, 128);
        let eager = ReadFile::open(&b, "/c").unwrap();
        let expect = eager.read_all(&b).unwrap();
        // Sweep forward and backward so the LRU actually cycles.
        for off in (0..expect.len() as u64)
            .step_by(97)
            .chain((0..8000).rev().step_by(311))
        {
            let mut buf = vec![0u8; 113];
            let n = r.pread(&b, &mut buf, off).unwrap();
            assert_eq!(&buf[..n], &expect[off as usize..off as usize + n]);
            let cached = match &r.source {
                IndexSource::Compact(cs) => cs.cached_view_bytes(),
                IndexSource::Eager(_) => unreachable!(),
            };
            // The budget holds unless a single view alone exceeds it (the
            // always-keep-current rule); with this data no window does.
            assert!(cached <= budget, "view cache {cached} > budget {budget}");
        }
    }

    #[test]
    fn bounded_index_pread_auto_and_parallel_match() {
        let (b, _p) = strided_container();
        let eager = ReadFile::open(&b, "/c").unwrap();
        let expect = eager.read_all(&b).unwrap();
        let conf = Conf {
            index_memory_bytes: 1 << 20,
            threads: 4,
            fanout_threshold: 64,
            ..Conf::default()
        };
        let r = ReadFile::open_with(&b, "/c", &conf).unwrap();
        let mut buf = vec![0u8; expect.len()];
        assert_eq!(r.pread_auto(&b, &mut buf, 0).unwrap(), expect.len());
        assert_eq!(buf, expect);
        let mut buf = vec![0u8; 2000];
        let n = r.pread_parallel(&b, &mut buf, 300, 4).unwrap();
        assert_eq!(&buf[..n], &expect[300..300 + n]);
    }

    #[test]
    fn bounded_index_zero_budget_stays_eager() {
        let (b, _p) = strided_container();
        let r = ReadFile::open_with(&b, "/c", &Conf::default()).unwrap();
        assert!(!r.bounded_index(), "budget 0 keeps the eager path");
    }

    #[test]
    fn bounded_index_resident_bytes_stay_below_eager_for_patterns() {
        let (b, p) = setup();
        // One big strided run per writer, index buffer deep enough that the
        // whole run compresses to a single pattern record.
        for pid in 0..4u64 {
            let mut w = WriteFile::open(&b, "/c", &p, pid, 4096).unwrap();
            for row in 0..512u64 {
                w.write(&[1; 16], (row * 4 + pid) * 16).unwrap();
            }
            w.sync().unwrap();
        }
        let eager = ReadFile::open(&b, "/c").unwrap();
        let r = open_bounded(&b, 4096, 1024);
        // Touch a few scattered offsets, then compare residency.
        for off in [0u64, 9000, 20000, 31000] {
            let mut x = [0u8; 64];
            let mut y = [0u8; 64];
            assert_eq!(
                r.pread(&b, &mut x, off).unwrap(),
                eager.pread(&b, &mut y, off).unwrap()
            );
            assert_eq!(x, y);
        }
        assert!(
            r.index_resident_bytes() < eager.index_resident_bytes() / 4,
            "compact {} vs eager {}",
            r.index_resident_bytes(),
            eager.index_resident_bytes()
        );
    }

    /// A 1 MiB cache of 512-byte blocks: small files still span many.
    fn small_block_cache() -> Arc<BlockCache> {
        Arc::new(BlockCache::new(&Conf {
            data_cache_bytes: 1 << 20,
            data_cache_block_bytes: 512,
            ..Conf::default()
        }))
    }

    #[test]
    fn cached_reads_match_uncached() {
        let (b, _p) = strided_container();
        let plain = ReadFile::open(&b, "/c").unwrap();
        let expect = plain.read_all(&b).unwrap();
        let cache = small_block_cache();
        let r = ReadFile::open(&b, "/c").unwrap().with_cache(cache.clone());
        // Cold pass fills the cache, warm pass serves from it; both must
        // be byte-identical to the uncached view.
        for pass in 0..2 {
            assert_eq!(r.read_all(&b).unwrap(), expect, "pass {pass}");
            for (off, len) in [(0u64, 1usize), (200, 300), (500, 3000), (8000, 400)] {
                let mut got = vec![0u8; len];
                let n = r.pread(&b, &mut got, off).unwrap();
                let mut want = vec![0u8; len];
                let m = plain.pread(&b, &mut want, off).unwrap();
                assert_eq!(n, m, "count at ({off},{len}) pass {pass}");
                assert_eq!(got[..n], want[..m], "bytes at ({off},{len}) pass {pass}");
            }
        }
        assert!(cache.stats().hits > 0, "warm pass must hit");
    }

    #[test]
    fn warm_reread_skips_the_backing_store() {
        use crate::meter::MeterBacking;
        let (b, _p) = strided_container();
        let m = MeterBacking::new(Arc::new(b));
        let cache = Arc::new(BlockCache::new(&Conf {
            data_cache_bytes: 8 << 20,
            ..Conf::default()
        }));
        let r = ReadFile::open(&m, "/c").unwrap().with_cache(cache);
        let cold = r.read_all(&m).unwrap();
        let before = m.snapshot();
        let warm = r.read_all(&m).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(
            m.snapshot().delta(&before).pread,
            0,
            "warm re-read is fully cache-absorbed"
        );
    }

    #[test]
    fn prefetch_populates_and_demand_reads_hit() {
        use crate::meter::MeterBacking;
        let (b, p) = setup();
        let mut w = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        w.write(&[5u8; 8192], 0).unwrap();
        w.sync().unwrap();
        let m = MeterBacking::new(Arc::new(b));
        let cache = small_block_cache();
        let r = ReadFile::open(&m, "/c").unwrap().with_cache(cache.clone());
        let before = m.snapshot();
        assert_eq!(r.prefetch(&m, 0, 8192).unwrap(), 8192);
        assert_eq!(
            m.snapshot().delta(&before).pread,
            1,
            "16 adjacent blocks coalesce into one backing read"
        );
        let before = m.snapshot();
        let mut buf = vec![0u8; 8192];
        assert_eq!(r.pread(&m, &mut buf, 0).unwrap(), 8192);
        assert_eq!(buf, vec![5u8; 8192]);
        assert_eq!(
            m.snapshot().delta(&before).pread,
            0,
            "demand read served from prefetched blocks"
        );
        assert!(cache.stats().prefetched_used >= 1);
        // Everything resident: a repeat prefetch fetches nothing.
        assert_eq!(r.prefetch(&m, 0, 8192).unwrap(), 0);
    }

    #[test]
    fn prefetch_fans_out_and_clamps_at_eof() {
        let (b, _p) = strided_container();
        let plain = ReadFile::open(&b, "/c").unwrap();
        let expect = plain.read_all(&b).unwrap();
        let conf = Conf {
            threads: 4,
            ..Conf::default()
        };
        let cache = small_block_cache();
        let r = ReadFile::open_with(&b, "/c", &conf)
            .unwrap()
            .with_cache(cache.clone());
        // Ask far past EOF: the resolver clamps, nothing explodes.
        let fetched = r.prefetch(&b, 0, expect.len() * 10).unwrap();
        assert!(fetched > 0);
        assert_eq!(r.prefetch(&b, r.eof() + 100, 4096).unwrap(), 0);
        assert_eq!(r.read_all(&b).unwrap(), expect);
    }

    #[test]
    fn bounded_index_composes_with_cache() {
        let (b, _p) = strided_container();
        let eager = ReadFile::open(&b, "/c").unwrap();
        let expect = eager.read_all(&b).unwrap();
        let cache = small_block_cache();
        let conf = Conf {
            index_memory_bytes: 1 << 20,
            ..Conf::default()
        };
        let r = ReadFile::open_with(&b, "/c", &conf)
            .unwrap()
            .with_cache(cache.clone());
        assert!(r.bounded_index());
        for pass in 0..2 {
            assert_eq!(r.read_all(&b).unwrap(), expect, "pass {pass}");
        }
        // The prefetcher resolves through the windowed views too.
        cache.clear();
        assert!(r.prefetch(&b, 0, expect.len()).unwrap() > 0);
        assert_eq!(r.read_all(&b).unwrap(), expect);
    }

    #[test]
    fn fanned_reads_through_cache_match_serial() {
        let (b, _p) = strided_container();
        let plain = ReadFile::open(&b, "/c").unwrap();
        let expect = plain.read_all(&b).unwrap();
        let conf = Conf {
            threads: 4,
            fanout_threshold: 64,
            ..Conf::default()
        };
        let cache = small_block_cache();
        let r = ReadFile::open_with(&b, "/c", &conf)
            .unwrap()
            .with_cache(cache.clone());
        for pass in 0..2 {
            let mut buf = vec![0u8; expect.len()];
            assert_eq!(r.pread_auto(&b, &mut buf, 0).unwrap(), expect.len());
            assert_eq!(buf, expect, "pass {pass}");
        }
        assert!(cache.stats().hits > 0);
    }

    #[test]
    fn cache_detects_truncated_dropping() {
        let (b, p) = setup();
        let mut w = WriteFile::open(&b, "/c", &p, 1, 64).unwrap();
        w.write(b"0123456789", 0).unwrap();
        w.sync().unwrap();
        let dp = container::data_dropping_path("/c", &p, 1, 0);
        b.truncate(&dp, 4).unwrap();
        let cache = Arc::new(BlockCache::new(&Conf {
            data_cache_bytes: 1 << 20,
            ..Conf::default()
        }));
        let r = ReadFile::open(&b, "/c").unwrap().with_cache(cache);
        let mut buf = [0u8; 10];
        assert!(matches!(r.pread(&b, &mut buf, 0), Err(Error::Corrupt(_))));
    }

    #[test]
    fn partitioned_only_mode_roundtrip() {
        let b = MemBacking::new();
        let p = ContainerParams {
            num_hostdirs: 4,
            mode: LayoutMode::PartitionedOnly,
        };
        create_container(&b, "/c", &p, true).unwrap();
        for pid in 0..3u64 {
            let mut w = WriteFile::open(&b, "/c", &p, pid, 64).unwrap();
            w.write(&[b'0' + pid as u8; 3], pid * 3).unwrap();
            w.sync().unwrap();
        }
        let r = ReadFile::open(&b, "/c").unwrap();
        assert_eq!(r.read_all(&b).unwrap(), b"000111222");
    }
}
