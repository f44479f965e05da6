//! Container metadata cache: the metadata fast path.
//!
//! The paper's scaling collapse (finding d) is driven by per-open metadata
//! storms: every `open`/`stat`/`access` re-probes the backing store for
//! "does this path exist, is it a container, is its marker sound". This
//! module caches those verdicts per backend path in a sharded map so that
//! reopen/getattr/access of a warm path costs zero backing metadata ops.
//!
//! Correctness under racing mutation is handled with a *shard generation*
//! protocol rather than per-entry versions: a reader that is about to probe
//! the backing store calls [`MetaCache::begin_fill`] to read the cache's
//! clock, probes, then calls [`MetaCache::complete_fill`] — which installs
//! the result only if no invalidation (unlink/rename/trunc/create) of a
//! path in the same shard ticked the clock in between. A stale probe that
//! lost the race is simply dropped, so the cache can never resurrect a
//! deleted container's `is_container` verdict.
//!
//! Removing or renaming a directory tree invalidates every path under it
//! without visiting them: the tree's root is recorded with the clock, and
//! a verdict filled before that tick is checked against the record of each
//! of its ancestors when it is next looked up. So an `unlink` costs the
//! same however many verdicts the cache holds, and touches no shard but
//! its own path's.
//!
//! The cache also tracks an in-process writer count per container, letting
//! `getattr` answer "is anyone writing?" without listing the container
//! directory while this process holds writers (cross-process writers
//! still need the listing).

use crate::container::Closed;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// One cached verdict about a backend path.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetaEntry {
    /// Does the path exist at all?
    pub exists: bool,
    /// Is it a directory (containers are directories too)?
    pub is_dir: bool,
    /// Is it a PLFS container (a directory holding its access file or a
    /// creator's data dropping: `container::probe`)?
    pub is_container: bool,
    /// The container's marker is checked: some caller read its access file
    /// (`container::validate_marker`), or a probe found it has none. The
    /// probe leaves this lazy, so `getattr` of a container never pays for
    /// a check it does not need.
    pub checked: bool,
    /// Cached fast-stat info from `meta.*` drops: `None` = not read yet,
    /// `Some(None)` = read, no drops, `Some(Some((max eof, total bytes)))`.
    pub meta: Option<Option<(u64, u64)>>,
    /// The latest listing of the container held its creator's pair alone,
    /// closed, its index named for this: the two names an unlink removes
    /// without listing again. `None` = not seen, or a local writer closed
    /// since.
    pub alone: Option<Closed>,
}

/// FNV-1a, the workspace's path hash: for shard choice and as the hasher
/// of the cache's maps. Its keys are paths an application names, which
/// could be made to collide; the per-shard capacity bounds any chain.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= *b as u64;
            self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builds [`Fnv`] hashers: no per-map random keys to draw.
pub type FnvBuild = BuildHasherDefault<Fnv>;

/// The FNV-1a hash of `path`'s bytes.
fn hash_path(path: &str) -> u64 {
    let mut h = Fnv::default();
    h.write(path.as_bytes());
    h.finish()
}

/// A cached verdict and the clock it was probed at.
#[derive(Clone, Copy)]
struct Slot {
    entry: MetaEntry,
    filled: u64,
}

#[derive(Default)]
struct Shard {
    map: HashMap<String, Slot, FnvBuild>,
    /// The tick of the shard's latest invalidation: the generation a fill
    /// begun before it lost the race to (see module docs).
    invalidated: u64,
}

/// Roots of removed or renamed trees, by path hash, with their ticks. A
/// collision only drops a verdict that was still good.
#[derive(Default)]
struct Trees {
    roots: HashMap<u64, u64, FnvBuild>,
    /// Every verdict probed before this tick is stale: the roots recorded
    /// up to it were let go.
    floor: u64,
}

impl Trees {
    /// Is a verdict for `path` probed at `filled` still good — no tree
    /// holding it removed since?
    fn holds(&self, path: &str, filled: u64) -> bool {
        if filled < self.floor {
            return false;
        }
        // Every prefix ending before a `/`, and the path itself: FNV is a
        // running hash, so one pass yields them all.
        let mut h = Fnv::default();
        let bytes = path.as_bytes();
        for (i, &b) in bytes.iter().enumerate() {
            if b == b'/' && i > 0 && self.roots.get(&h.finish()).is_some_and(|&t| t > filled) {
                return false;
            }
            h.write(&[b]);
        }
        self.roots.get(&h.finish()).is_none_or(|&t| t <= filled)
    }
}

/// Sharded `backend_path → MetaEntry` cache with generation-guarded fills.
pub struct MetaCache {
    shards: Box<[Mutex<Shard>]>,
    mask: usize,
    /// Approximate per-shard capacity; one arbitrary entry is evicted when
    /// an insert would exceed it.
    shard_capacity: usize,
    /// Ticks once per invalidation; a fill carries the tick it began at.
    clock: AtomicU64,
    trees: Mutex<Trees>,
    /// Tree roots recorded before they are all let go at once: the cache's
    /// capacity, so that letting them go re-probes at most one verdict per
    /// tree invalidated.
    tree_records: usize,
    /// The tick of the latest tree invalidation: a verdict probed at or
    /// after it needs no check against [`MetaCache::trees`].
    tree_tick: AtomicU64,
    /// In-process writer counts per container path (open-marker fast path).
    writers: Mutex<HashMap<String, u64, FnvBuild>>,
    /// Cleared by the first directory `stat` whose backing does not count
    /// subdirectories exactly: a writer's close asks no more.
    subdirs_counted: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MetaCache {
    /// Build a cache holding roughly `entries` verdicts over `shards` lock
    /// shards (rounded up to a power of two).
    pub fn new(entries: usize, shards: usize) -> MetaCache {
        let nshards = shards.max(1).next_power_of_two();
        let shard_capacity = (entries.max(1)).div_ceil(nshards).max(1);
        MetaCache {
            shards: (0..nshards).map(|_| Mutex::default()).collect(),
            mask: nshards - 1,
            shard_capacity,
            clock: AtomicU64::new(0),
            trees: Mutex::default(),
            tree_records: entries.max(1),
            tree_tick: AtomicU64::new(0),
            writers: Mutex::default(),
            subdirs_counted: AtomicBool::new(true),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, path: &str) -> &Mutex<Shard> {
        &self.shards[(hash_path(path) as usize) & self.mask]
    }

    /// The next tick. Ticked under the lock of the shard (or of the tree
    /// records) the invalidation records it in, so a fill that checks
    /// under that lock sees every tick its own clock read came after.
    fn tick(&self) -> u64 {
        // acq_rel: pairs with begin_fill's acquire — a fill that reads this
        // tick or a later one probes after the mutation it invalidates
        self.clock.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Cached verdict for `path`, if present. Counts a hit or miss.
    pub fn lookup(&self, path: &str) -> Option<MetaEntry> {
        let mut shard = self.shard(path).lock();
        let got = shard
            .map
            .get_mut(path)
            .map(|slot| self.current(path, slot).then_some(slot.entry));
        if matches!(got, Some(None)) {
            // A verdict a tree invalidation outdated goes now.
            shard.map.remove(path);
        }
        let got = got.flatten();
        drop(shard);
        match got {
            // relaxed: hit/miss tallies are statistics, no ordering needed
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            // relaxed: hit/miss tallies are statistics, no ordering needed
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Does `slot`, the verdict for `path`, survive every tree invalidated
    /// since it was probed? One that does is stamped current, so the check
    /// runs once per tree invalidation at most.
    fn current(&self, path: &str, slot: &mut Slot) -> bool {
        // acquire: pairs with the release in invalidate_tree
        if slot.filled >= self.tree_tick.load(Ordering::Acquire) {
            return true;
        }
        let trees = self.trees.lock();
        if !trees.holds(path, slot.filled) {
            return false;
        }
        // relaxed: read under the tree lock, which orders every tree tick
        slot.filled = self.tree_tick.load(Ordering::Relaxed);
        true
    }

    /// Snapshot the generation — the cache's clock — before probing the
    /// backing store for `_path`.
    pub fn begin_fill(&self, _path: &str) -> u64 {
        // a spuriously stale snapshot only drops a fill, never installs one
        // acquire: see tick
        self.clock.load(Ordering::Acquire)
    }

    /// Install a probed verdict, unless an invalidation raced the probe
    /// (ticked `path`'s shard since [`MetaCache::begin_fill`] returned
    /// `generation`).
    pub fn complete_fill(&self, path: &str, generation: u64, entry: MetaEntry) {
        let mut shard = self.shard(path).lock();
        if shard.invalidated > generation {
            return;
        }
        let slot = Slot {
            entry,
            filled: generation,
        };
        if let Some(old) = shard.map.get_mut(path) {
            *old = slot;
            return;
        }
        if shard.map.len() >= self.shard_capacity {
            if let Some(victim) = shard.map.keys().next().cloned() {
                shard.map.remove(&victim);
            }
        }
        shard.map.insert(path.to_string(), slot);
    }

    /// Drop any verdict for `path` and kill in-flight fills for its shard.
    /// Called on unlink, rename (both ends), trunc, and create — *after*
    /// the backing mutation, so a fill that probed the half-mutated state
    /// loses the generation race and is discarded.
    pub fn invalidate(&self, path: &str) {
        let mut shard = self.shard(path).lock();
        shard.invalidated = self.tick();
        shard.map.remove(path);
    }

    /// Drop every verdict for `path` *and all paths under it*. Called on
    /// rename, where moving a directory silently relocates each descendant
    /// (cached `exists` verdicts under the old name and cached `missing`
    /// verdicts under the new one are both wrong afterwards), and on the
    /// unlink of a container, whose tree goes with it. Occupancy does not
    /// matter: `path` is recorded as a tree root, and a descendant's
    /// verdict probed before it — in flight now or cached — is dropped when
    /// next looked up. Past [`MetaCache::tree_records`] roots the records
    /// are let go, and every verdict probed before now with them.
    pub fn invalidate_tree(&self, path: &str) {
        let root = path.trim_end_matches('/');
        {
            let mut trees = self.trees.lock();
            let tick = self.tick();
            if root.is_empty() || trees.roots.len() >= self.tree_records {
                trees.roots.clear();
                trees.floor = tick;
            } else {
                trees.roots.insert(hash_path(root), tick);
            }
            // release: pairs with the acquire in current
            self.tree_tick.store(tick, Ordering::Release);
        }
        self.invalidate(path);
    }

    /// Drop only the cached fast-stat info for `path` and the listing it
    /// came with, keeping the exists/container verdicts (used at writer
    /// close, which changes the file size and the names but not whether
    /// the path is a container).
    pub fn clear_meta(&self, path: &str) {
        let mut shard = self.shard(path).lock();
        shard.invalidated = self.tick();
        if let Some(slot) = shard.map.get_mut(path) {
            slot.entry.meta = None;
            slot.entry.alone = None;
        }
    }

    /// Should a closing writer `stat` its container to learn whether it has
    /// subdirectories? Until a backing has answered that it does not count
    /// them exactly.
    pub(crate) fn subdirs_counted(&self) -> bool {
        // relaxed: a stale true costs one stat
        self.subdirs_counted.load(Ordering::Relaxed)
    }

    /// A directory `stat` answered `subdirs`: `None` turns the question off.
    pub(crate) fn note_subdirs(&self, subdirs: Option<u64>) {
        if subdirs.is_none() {
            // relaxed: as above
            self.subdirs_counted.store(false, Ordering::Relaxed);
        }
    }

    /// Bump the in-process writer count for a container. Only its first
    /// writer allocates the key.
    pub fn writer_inc(&self, path: &str) -> u64 {
        let mut w = self.writers.lock();
        if let Some(c) = w.get_mut(path) {
            *c += 1;
            return *c;
        }
        w.insert(path.to_string(), 1);
        1
    }

    /// Drop the in-process writer count for a container (returns the new
    /// count; saturates at zero on double-close).
    pub fn writer_dec(&self, path: &str) -> u64 {
        let mut w = self.writers.lock();
        match w.get_mut(path) {
            Some(c) => {
                *c = c.saturating_sub(1);
                let n = *c;
                if n == 0 {
                    w.remove(path);
                }
                n
            }
            None => 0,
        }
    }

    /// Writers this process currently has open on `path` (0 = unknown:
    /// other processes may still hold it open).
    pub fn local_writers(&self, path: &str) -> u64 {
        self.writers.lock().get(path).copied().unwrap_or(0)
    }

    /// Lifetime cache hits.
    pub fn hits(&self) -> u64 {
        // relaxed: statistics counter
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime cache misses.
    pub fn misses(&self) -> u64 {
        // relaxed: statistics counter
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(exists: bool) -> MetaEntry {
        MetaEntry {
            exists,
            ..MetaEntry::default()
        }
    }

    #[test]
    fn fill_then_lookup_hits() {
        let c = MetaCache::new(64, 4);
        assert!(c.lookup("/a").is_none());
        let g = c.begin_fill("/a");
        c.complete_fill("/a", g, entry(true));
        assert!(c.lookup("/a").unwrap().exists);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn invalidation_races_kill_in_flight_fills() {
        let c = MetaCache::new(64, 1);
        let g = c.begin_fill("/a");
        // An unlink lands between the probe and the install.
        c.invalidate("/a");
        c.complete_fill("/a", g, entry(true));
        assert!(c.lookup("/a").is_none(), "stale fill must not install");
        // A fresh fill after the invalidation installs fine.
        let g = c.begin_fill("/a");
        c.complete_fill("/a", g, entry(false));
        assert!(!c.lookup("/a").unwrap().exists);
    }

    #[test]
    fn invalidate_removes_only_that_path() {
        let c = MetaCache::new(64, 1);
        for p in ["/a", "/b"] {
            let g = c.begin_fill(p);
            c.complete_fill(p, g, entry(true));
        }
        c.invalidate("/a");
        assert!(c.lookup("/a").is_none());
        assert!(c.lookup("/b").is_some());
    }

    #[test]
    fn invalidate_tree_drops_descendants_and_kills_fills() {
        let c = MetaCache::new(64, 4);
        for p in ["/d", "/d/f", "/d/sub/g", "/dx", "/e"] {
            let g = c.begin_fill(p);
            c.complete_fill(p, g, entry(true));
        }
        // A fill for a descendant is in flight when the rename lands.
        let g = c.begin_fill("/d/late");
        c.invalidate_tree("/d");
        c.complete_fill("/d/late", g, entry(true));
        for p in ["/d", "/d/f", "/d/sub/g", "/d/late"] {
            assert!(c.lookup(p).is_none(), "{p} survived tree invalidation");
        }
        // Sibling with a shared name prefix but not under /d/ stays.
        assert!(c.lookup("/dx").is_some());
        assert!(c.lookup("/e").is_some());
    }

    /// Two paths whose verdicts live in different shards of `c`.
    fn apart(c: &MetaCache, a: &'static str, b: &'static str) -> (&'static str, &'static str) {
        assert!(
            !std::ptr::eq(c.shard(a), c.shard(b)),
            "{a} and {b} share a shard"
        );
        (a, b)
    }

    #[test]
    fn a_tree_invalidation_keeps_fills_of_other_paths() {
        let c = MetaCache::new(64, 16);
        let (d, gone) = apart(&c, "/d", "/c");
        let g = c.begin_fill(d);
        c.invalidate_tree(gone);
        c.complete_fill(d, g, entry(true));
        assert!(c.lookup(d).is_some(), "an unrelated fill is lost");
        // Under the removed tree, a fill in flight is not served.
        let g = c.begin_fill("/c/hostdir.0");
        c.invalidate_tree(gone);
        c.complete_fill("/c/hostdir.0", g, entry(true));
        assert!(c.lookup("/c/hostdir.0").is_none());
    }

    #[test]
    fn tree_records_past_their_bound_age_every_older_verdict() {
        let c = MetaCache::new(64, 4);
        let g = c.begin_fill("/keep/f");
        c.complete_fill("/keep/f", g, entry(true));
        // As many trees as the cache holds verdicts: nothing is aged.
        for i in 0..c.tree_records {
            c.invalidate_tree(&format!("/gone{i}"));
        }
        assert!(c.lookup("/keep/f").is_some());
        // One more lets the records go, and every verdict older with them.
        c.invalidate_tree("/gone");
        assert!(c.lookup("/keep/f").is_none());
        let g = c.begin_fill("/keep/f");
        c.complete_fill("/keep/f", g, entry(true));
        assert!(c.lookup("/keep/f").is_some());
        // The root: everything.
        c.invalidate_tree("/");
        assert!(c.lookup("/keep/f").is_none());
    }

    #[test]
    fn clear_meta_keeps_container_verdict() {
        let c = MetaCache::new(64, 1);
        let g = c.begin_fill("/a");
        c.complete_fill(
            "/a",
            g,
            MetaEntry {
                exists: true,
                is_dir: true,
                is_container: true,
                checked: false,
                meta: Some(Some((10, 10))),
                alone: Some(Closed::sized(10, 10)),
            },
        );
        c.clear_meta("/a");
        let e = c.lookup("/a").unwrap();
        assert!(e.exists);
        assert!(e.is_container);
        assert!(e.meta.is_none());
        assert!(e.alone.is_none());
    }

    #[test]
    fn capacity_evicts_rather_than_grows() {
        let c = MetaCache::new(4, 1);
        for i in 0..100 {
            let p = format!("/p{i}");
            let g = c.begin_fill(&p);
            c.complete_fill(&p, g, entry(true));
        }
        let total: usize = c.shards.iter().map(|s| s.lock().map.len()).sum();
        assert!(total <= 4, "cache grew past capacity: {total}");
    }

    #[test]
    fn writer_counts_saturate() {
        let c = MetaCache::new(4, 1);
        assert_eq!(c.writer_inc("/a"), 1);
        assert_eq!(c.writer_inc("/a"), 2);
        assert_eq!(c.local_writers("/a"), 2);
        assert_eq!(c.writer_dec("/a"), 1);
        assert_eq!(c.writer_dec("/a"), 0);
        assert_eq!(c.writer_dec("/a"), 0, "double close is harmless");
        assert_eq!(c.local_writers("/a"), 0);
    }
}
