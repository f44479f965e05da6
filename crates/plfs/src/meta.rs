//! Container metadata cache: the metadata fast path.
//!
//! The paper's scaling collapse (finding d) is driven by per-open metadata
//! storms: every `open`/`stat`/`access` re-probes the backing store for
//! "does this path exist, is it a container, what are its params". This
//! module caches those verdicts per backend path in a sharded map so that
//! reopen/getattr/access of a warm path costs zero backing metadata ops.
//!
//! Correctness under racing mutation is handled with a *shard generation*
//! protocol rather than per-entry versions: a reader that is about to probe
//! the backing store calls [`MetaCache::begin_fill`] to snapshot the shard
//! generation, probes, then calls [`MetaCache::complete_fill`] — which
//! installs the result only if no invalidation (unlink/rename/trunc/create)
//! bumped the generation in between. A stale probe that lost the race is
//! simply dropped, so the cache can never resurrect a deleted container's
//! `is_container` verdict.
//!
//! The cache also tracks an in-process writer count per container, letting
//! `getattr` answer "is anyone writing?" without listing the container
//! directory while this process holds writers (cross-process writers
//! still need the listing).

use crate::container::ContainerParams;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// Container params, once some caller has read the access file, or a
    /// probe found the container has none (the defaults; `None` = not read
    /// yet; the probe leaves this lazy so `getattr` of a container never
    /// pays for params it does not need).
    pub params: Option<ContainerParams>,
    /// Cached fast-stat info from `meta.*` drops: `None` = not read yet,
    /// `Some(None)` = read, no drops, `Some(Some((max eof, total bytes)))`.
    pub meta: Option<Option<(u64, u64)>>,
}

struct Shard {
    /// Bumped on every invalidation; fills snapshot it first and install
    /// only if it is unchanged (see module docs).
    generation: AtomicU64,
    map: Mutex<HashMap<String, MetaEntry>>,
}

/// Sharded `backend_path → MetaEntry` cache with generation-guarded fills.
pub struct MetaCache {
    shards: Box<[Shard]>,
    mask: usize,
    /// Approximate per-shard capacity; one arbitrary entry is evicted when
    /// an insert would exceed it.
    shard_capacity: usize,
    /// In-process writer counts per container path (open-marker fast path).
    writers: Mutex<HashMap<String, u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

fn hash_path(path: &str) -> u64 {
    // FNV-1a, as elsewhere in the workspace.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in path.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl MetaCache {
    /// Build a cache holding roughly `entries` verdicts over `shards` lock
    /// shards (rounded up to a power of two).
    pub fn new(entries: usize, shards: usize) -> MetaCache {
        let nshards = shards.max(1).next_power_of_two();
        let shard_capacity = (entries.max(1)).div_ceil(nshards).max(1);
        let shards = (0..nshards)
            .map(|_| Shard {
                generation: AtomicU64::new(0),
                map: Mutex::new(HashMap::new()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        MetaCache {
            shards,
            mask: nshards - 1,
            shard_capacity,
            writers: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, path: &str) -> &Shard {
        &self.shards[(hash_path(path) as usize) & self.mask]
    }

    /// Cached verdict for `path`, if present. Counts a hit or miss.
    pub fn lookup(&self, path: &str) -> Option<MetaEntry> {
        let got = self.shard(path).map.lock().get(path).copied();
        match got {
            // relaxed: hit/miss tallies are statistics, no ordering needed
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            // relaxed: hit/miss tallies are statistics, no ordering needed
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Snapshot the shard generation before probing the backing store.
    pub fn begin_fill(&self, path: &str) -> u64 {
        // a spuriously stale snapshot only drops a fill, never installs one
        // relaxed: complete_fill re-checks under the shard lock
        self.shard(path).generation.load(Ordering::Relaxed)
    }

    /// Install a probed verdict, unless an invalidation raced the probe
    /// (the shard generation moved since [`MetaCache::begin_fill`]).
    pub fn complete_fill(&self, path: &str, generation: u64, entry: MetaEntry) {
        let shard = self.shard(path);
        let mut map = shard.map.lock();
        // relaxed: read under the shard lock, which orders every invalidation
        if shard.generation.load(Ordering::Relaxed) != generation {
            return;
        }
        if map.len() >= self.shard_capacity && !map.contains_key(path) {
            if let Some(victim) = map.keys().next().cloned() {
                map.remove(&victim);
            }
        }
        map.insert(path.to_string(), entry);
    }

    /// Drop any verdict for `path` and kill in-flight fills for its shard.
    /// Called on unlink, rename (both ends), trunc, and create.
    pub fn invalidate(&self, path: &str) {
        let shard = self.shard(path);
        let mut map = shard.map.lock();
        // relaxed: the shard lock (also taken by complete_fill) orders this
        shard.generation.fetch_add(1, Ordering::Relaxed);
        map.remove(path);
    }

    /// Drop every verdict for `path` *and all paths under it*. Called on
    /// rename, where moving a directory silently relocates each descendant:
    /// cached `exists` verdicts under the old name and cached `missing`
    /// verdicts under the new one are both wrong afterwards. Descendant
    /// keys hash to arbitrary shards, so every shard's generation bumps —
    /// pricier than [`MetaCache::invalidate`], but rename is rare and the
    /// point-invalidation alone resurrects children of renamed trees.
    pub fn invalidate_tree(&self, path: &str) {
        let prefix = format!("{}/", path.trim_end_matches('/'));
        for shard in self.shards.iter() {
            let mut map = shard.map.lock();
            // relaxed: the shard lock (also taken by complete_fill) orders this
            shard.generation.fetch_add(1, Ordering::Relaxed);
            map.retain(|k, _| k != path && !k.starts_with(&prefix));
        }
    }

    /// Drop only the cached fast-stat info for `path`, keeping the
    /// exists/container verdicts (used at writer close, which changes the
    /// file size but not whether the path is a container).
    pub fn clear_meta(&self, path: &str) {
        let shard = self.shard(path);
        let mut map = shard.map.lock();
        // relaxed: the shard lock (also taken by complete_fill) orders this
        shard.generation.fetch_add(1, Ordering::Relaxed);
        if let Some(e) = map.get_mut(path) {
            e.meta = None;
        }
    }

    /// Bump the in-process writer count for a container.
    pub fn writer_inc(&self, path: &str) -> u64 {
        let mut w = self.writers.lock();
        let c = w.entry(path.to_string()).or_insert(0);
        *c += 1;
        *c
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
            is_dir: false,
            is_container: false,
            params: None,
            meta: None,
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
                params: None,
                meta: Some(Some((10, 10))),
            },
        );
        c.clear_meta("/a");
        let e = c.lookup("/a").unwrap();
        assert!(e.exists);
        assert!(e.is_container);
        assert!(e.meta.is_none());
    }

    #[test]
    fn capacity_evicts_rather_than_grows() {
        let c = MetaCache::new(4, 1);
        for i in 0..100 {
            let p = format!("/p{i}");
            let g = c.begin_fill(&p);
            c.complete_fill(&p, g, entry(true));
        }
        let total: usize = c.shards.iter().map(|s| s.map.lock().len()).sum();
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
