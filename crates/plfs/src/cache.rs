//! The client-side data block cache and adaptive readahead state.
//!
//! [`BlockCache`] holds fixed-size blocks of dropping data (default
//! 64 KiB), keyed by (dropping, block index) and LRU-evicted under a byte
//! budget. It sits *below* index resolution: [`crate::ReadFile`] resolves a
//! logical range to physical dropping slices exactly as before, then serves
//! each slice block-by-block from the cache, fetching missing blocks from
//! the backing store. Because droppings are append-only logs, a cached
//! block's bytes never change; the only moving part is a dropping's tail
//! block, which can *grow* — a lookup therefore carries the byte count the
//! caller needs, and an entry shorter than that is treated as a miss and
//! refetched. That single rule makes read-your-writes fall out naturally
//! (an overwrite appends fresh physical bytes past what the stale tail
//! block holds), and [`crate::fd::PlfsFd`] additionally invalidates blocks
//! overlapping freshly flushed entries on its dirty-flag refresh path.
//!
//! Block keys are interned from dropping *paths* ([`BlockCache::id_for`]),
//! not positional dropping ids: positional ids are only stable within one
//! reader view, while the cache outlives view rebuilds and incremental
//! patches.
//!
//! The cache also owns the per-fd sequential-stream detector
//! ([`BlockCache::plan_readahead`]): consecutive sequential reads ramp a
//! prefetch window from `readahead_min` to `readahead_max` (doubling per
//! read, reset on seek), and the reader batch-fetches the planned window —
//! coalescing adjacent missing blocks into single large backing reads —
//! before the stream arrives there.

use crate::conf::Conf;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// (interned dropping id, block index within that dropping).
type BlockKey = (u32, u64);

struct Entry {
    data: Arc<Vec<u8>>,
    tick: u64,
    /// Inserted by readahead and not yet read by anyone.
    prefetched: bool,
}

struct Shard {
    blocks: HashMap<BlockKey, Entry>,
    tick: u64,
    bytes: usize,
}

/// One block evicted under the byte budget: (bytes freed, was the block
/// ever used). `used == false` means it was prefetched and evicted without
/// serving a single read — wasted readahead.
pub type Eviction = (u64, bool);

/// Point-in-time cache statistics (all counters are monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Block lookups served from memory.
    pub hits: u64,
    /// Block lookups that needed a backing fetch.
    pub misses: u64,
    /// Blocks evicted under the byte budget.
    pub evictions: u64,
    /// Prefetched blocks that served at least one read.
    pub prefetched_used: u64,
    /// Prefetched blocks evicted without ever serving a read.
    pub prefetched_wasted: u64,
    /// Readahead windows issued.
    pub readaheads: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Fraction of resolved prefetched blocks that were used before
    /// eviction, in `[0, 1]`; 0 when readahead never resolved a block.
    pub fn readahead_efficiency(&self) -> f64 {
        let total = self.prefetched_used + self.prefetched_wasted;
        if total == 0 {
            0.0
        } else {
            self.prefetched_used as f64 / total as f64
        }
    }
}

/// Sequential-stream detector state (one stream per fd).
struct StreamState {
    /// Offset one past the previous read — the next offset that counts as
    /// sequential.
    next_off: u64,
    /// Current readahead window in bytes (0 = no stream detected yet).
    window: usize,
    /// High-water mark of issued prefetches, so overlapping windows are
    /// not re-requested.
    prefetched_to: u64,
}

/// A sharded, memory-bounded block cache plus readahead state. One
/// instance per open fd (see module docs for why keys intern dropping
/// paths).
pub struct BlockCache {
    conf: Conf,
    shards: Box<[Mutex<Shard>]>,
    mask: usize,
    /// Per-shard byte budget (total budget split evenly, at least one
    /// block each so a tiny budget still caches something).
    shard_budget: usize,
    /// Dropping path -> stable interned id. Append-only for the life of
    /// the cache.
    ids: RwLock<HashMap<String, u32>>,
    stream: Mutex<StreamState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    prefetched_used: AtomicU64,
    prefetched_wasted: AtomicU64,
    readaheads: AtomicU64,
}

impl BlockCache {
    /// Build a cache for `conf` (whose data cache should be enabled — a
    /// zero budget still works but holds only one block per shard).
    pub fn new(conf: &Conf) -> BlockCache {
        let conf = conf.validated();
        let n = conf.lock_shards.next_power_of_two();
        BlockCache {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(Shard {
                        blocks: HashMap::new(),
                        tick: 0,
                        bytes: 0,
                    })
                })
                .collect(),
            mask: n - 1,
            shard_budget: (conf.data_cache_bytes / n).max(conf.data_cache_block_bytes),
            ids: RwLock::new(HashMap::new()),
            stream: Mutex::new(StreamState {
                next_off: 0,
                window: 0,
                prefetched_to: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            prefetched_used: AtomicU64::new(0),
            prefetched_wasted: AtomicU64::new(0),
            readaheads: AtomicU64::new(0),
            conf,
        }
    }

    /// Cache block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.conf.data_cache_block_bytes
    }

    /// Intern a dropping path, returning its stable block-key id.
    pub fn id_for(&self, path: &str) -> u32 {
        if let Some(&id) = self.ids.read().get(path) {
            return id;
        }
        let mut ids = self.ids.write();
        let next = ids.len() as u32;
        *ids.entry(path.to_string()).or_insert(next)
    }

    fn shard(&self, key: BlockKey) -> &Mutex<Shard> {
        // Fibonacci-hash the block index and fold in the dropping id so
        // sequential blocks of one dropping spread over all shards.
        let h = key.1.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (key.0 as u64);
        &self.shards[h as usize & self.mask]
    }

    /// Look up block `blk` of dropping `id`, requiring at least `need`
    /// bytes present (the tail-growth rule from the module docs). On a hit
    /// returns the block and whether this was the first use of a
    /// prefetched block; a short or absent entry counts as a miss.
    pub fn lookup(&self, id: u32, blk: u64, need: usize) -> Option<(Arc<Vec<u8>>, bool)> {
        let hit = {
            let mut s = self.shard((id, blk)).lock();
            s.tick += 1;
            let tick = s.tick;
            match s.blocks.get_mut(&(id, blk)) {
                Some(e) if e.data.len() >= need => {
                    e.tick = tick;
                    let first_use = e.prefetched;
                    e.prefetched = false;
                    Some((e.data.clone(), first_use))
                }
                _ => None,
            }
        };
        match &hit {
            Some((_, first_use)) => {
                // relaxed: statistics counters read between call sites
                self.hits.fetch_add(1, Ordering::Relaxed);
                if *first_use {
                    // relaxed: statistics counter read between call sites
                    self.prefetched_used.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                // relaxed: statistics counter read between call sites
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        hit
    }

    /// Is block `blk` of dropping `id` resident? A peek for the
    /// prefetcher: no LRU bump, no hit/miss accounting.
    pub fn contains(&self, id: u32, blk: u64) -> bool {
        self.shard((id, blk)).lock().blocks.contains_key(&(id, blk))
    }

    /// Insert (or replace) block `blk` of dropping `id`, evicting
    /// least-recently-used blocks past the shard budget. Returns what was
    /// evicted so the caller can trace it. When `prefetched`, an existing
    /// entry is kept as-is (a demand fetch racing the prefetcher must not
    /// have its LRU position or used-bit reset).
    pub fn insert(&self, id: u32, blk: u64, data: Vec<u8>, prefetched: bool) -> Vec<Eviction> {
        let key = (id, blk);
        let cost = data.len();
        let mut out = Vec::new();
        let mut s = self.shard(key).lock();
        s.tick += 1;
        let tick = s.tick;
        if prefetched && s.blocks.contains_key(&key) {
            return out;
        }
        if let Some(old) = s.blocks.insert(
            key,
            Entry {
                data: Arc::new(data),
                tick,
                prefetched,
            },
        ) {
            s.bytes -= old.data.len();
        }
        s.bytes += cost;
        while s.bytes > self.shard_budget && s.blocks.len() > 1 {
            let oldest = s
                .blocks
                .iter()
                .filter(|(&k, _)| k != key)
                .min_by_key(|(_, e)| e.tick)
                .map(|(&k, _)| k);
            let Some(k) = oldest else { break };
            if let Some(e) = s.blocks.remove(&k) {
                s.bytes -= e.data.len();
                out.push((e.data.len() as u64, !e.prefetched));
            }
        }
        drop(s);
        for (_, used) in &out {
            // relaxed: statistics counters read between call sites
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if !used {
                // relaxed: statistics counter read between call sites
                self.prefetched_wasted.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }

    /// Drop every block of dropping `id` overlapping physical byte range
    /// `[start, end)` — the fd's write-invalidation hook. Returns the
    /// number of blocks dropped.
    pub fn invalidate(&self, id: u32, start: u64, end: u64) -> usize {
        if start >= end {
            return 0;
        }
        let bs = self.conf.data_cache_block_bytes as u64;
        let first = start / bs;
        let last = (end - 1) / bs;
        let mut dropped = 0;
        for blk in first..=last {
            let mut s = self.shard((id, blk)).lock();
            if let Some(e) = s.blocks.remove(&(id, blk)) {
                s.bytes -= e.data.len();
                dropped += 1;
            }
        }
        dropped
    }

    /// Drop every cached block (truncate / reset path).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut s = shard.lock();
            s.blocks.clear();
            s.bytes = 0;
        }
        let mut st = self.stream.lock();
        st.window = 0;
        st.prefetched_to = 0;
    }

    /// Total resident data bytes across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.lock().bytes).sum()
    }

    /// Snapshot the statistics counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed), // relaxed: stats snapshot
            misses: self.misses.load(Ordering::Relaxed), // relaxed: stats snapshot
            evictions: self.evictions.load(Ordering::Relaxed), // relaxed: stats snapshot
            prefetched_used: self.prefetched_used.load(Ordering::Relaxed), // relaxed: stats snapshot
            prefetched_wasted: self.prefetched_wasted.load(Ordering::Relaxed), // relaxed: stats snapshot
            readaheads: self.readaheads.load(Ordering::Relaxed), // relaxed: stats snapshot
        }
    }

    /// Feed the sequential-stream detector one read of `len` bytes at
    /// `off`. Returns the `(start, bytes)` window to prefetch, if any: a
    /// sequential read (starting exactly where the previous one ended)
    /// opens a `readahead_min` window, and each subsequently *issued*
    /// window doubles up to `readahead_max`; any seek resets the stream.
    /// A window is only issued once less than half the current window
    /// remains buffered ahead of the stream — topping up on every read
    /// would fragment the prefetch into per-read slivers and defeat run
    /// coalescing. The returned window starts past both the read and the
    /// previously prefetched high-water mark, so streams never re-request
    /// bytes.
    pub fn plan_readahead(&self, off: u64, len: usize) -> Option<(u64, usize)> {
        if !self.conf.readahead_enabled() || len == 0 {
            return None;
        }
        let end = off.saturating_add(len as u64);
        let mut st = self.stream.lock();
        let sequential = off == st.next_off;
        st.next_off = end;
        if !sequential {
            st.window = 0;
            st.prefetched_to = 0;
            return None;
        }
        let remaining = st.prefetched_to.saturating_sub(end);
        if st.window != 0 && remaining * 2 >= st.window as u64 {
            return None;
        }
        st.window = if st.window == 0 {
            self.conf.readahead_min
        } else {
            (st.window * 2).min(self.conf.readahead_max)
        };
        let start = st.prefetched_to.max(end);
        let target = end.saturating_add(st.window as u64);
        if target <= start {
            return None;
        }
        st.prefetched_to = target;
        drop(st);
        // relaxed: statistics counter read between call sites
        self.readaheads.fetch_add(1, Ordering::Relaxed);
        Some((start, (target - start) as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(budget: usize, block: usize) -> BlockCache {
        BlockCache::new(&Conf {
            data_cache_bytes: budget,
            data_cache_block_bytes: block,
            lock_shards: 1,
            ..Conf::default()
        })
    }

    #[test]
    fn insert_lookup_roundtrip_and_stats() {
        let c = cache(1 << 20, 512);
        let id = c.id_for("/c/d/dropping.data.1");
        assert!(c.lookup(id, 0, 1).is_none(), "cold cache misses");
        c.insert(id, 0, vec![7u8; 512], false);
        let (data, first_use) = c.lookup(id, 0, 512).unwrap();
        assert_eq!(data.len(), 512);
        assert!(!first_use, "demand-fetched, not prefetched");
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn interned_ids_are_stable_and_distinct() {
        let c = cache(1 << 20, 512);
        let a = c.id_for("/c/d/dropping.data.1");
        let b = c.id_for("/c/d/dropping.data.2");
        assert_ne!(a, b);
        assert_eq!(a, c.id_for("/c/d/dropping.data.1"));
        assert_eq!(b, c.id_for("/c/d/dropping.data.2"));
    }

    #[test]
    fn short_tail_block_is_a_miss_until_refetched() {
        let c = cache(1 << 20, 512);
        let id = c.id_for("/d");
        // A partial tail block: only 100 of 512 bytes exist yet.
        c.insert(id, 3, vec![1u8; 100], false);
        assert!(c.lookup(id, 3, 100).is_some(), "within cached length");
        assert!(
            c.lookup(id, 3, 101).is_none(),
            "the dropping grew; stale tail must refetch"
        );
        // The refetch replaces the entry and accounting stays consistent.
        c.insert(id, 3, vec![2u8; 300], false);
        let (data, _) = c.lookup(id, 3, 300).unwrap();
        assert_eq!(data.len(), 300);
        assert_eq!(c.resident_bytes(), 300);
    }

    #[test]
    fn lru_evicts_under_budget_and_flags_wasted_prefetch() {
        // Budget of exactly two 512-byte blocks in one shard.
        let c = cache(1024, 512);
        let id = c.id_for("/d");
        assert!(c.insert(id, 0, vec![0u8; 512], false).is_empty());
        assert!(c.insert(id, 1, vec![1u8; 512], true).is_empty());
        // Touch block 0 so block 1 (prefetched, never used) is LRU.
        c.lookup(id, 0, 1).unwrap();
        let ev = c.insert(id, 2, vec![2u8; 512], false);
        assert_eq!(ev, vec![(512, false)], "wasted prefetch evicted");
        assert!(c.lookup(id, 1, 1).is_none());
        assert!(c.lookup(id, 0, 1).is_some());
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.prefetched_wasted, 1);
        assert!(c.resident_bytes() <= 1024);
    }

    #[test]
    fn prefetched_block_counts_used_on_first_hit() {
        let c = cache(1 << 20, 512);
        let id = c.id_for("/d");
        c.insert(id, 0, vec![0u8; 512], true);
        let (_, first_use) = c.lookup(id, 0, 1).unwrap();
        assert!(first_use);
        let (_, again) = c.lookup(id, 0, 1).unwrap();
        assert!(!again, "used-bit consumed once");
        let s = c.stats();
        assert_eq!(s.prefetched_used, 1);
        assert!((s.readahead_efficiency() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn prefetch_insert_never_downgrades_a_demand_block() {
        let c = cache(1 << 20, 512);
        let id = c.id_for("/d");
        c.insert(id, 0, vec![9u8; 512], false);
        c.insert(id, 0, vec![1u8; 200], true);
        let (data, first_use) = c.lookup(id, 0, 512).unwrap();
        assert_eq!(data[0], 9, "racing prefetch must not replace");
        assert!(!first_use);
    }

    #[test]
    fn invalidate_drops_overlapping_blocks_only() {
        let c = cache(1 << 20, 512);
        let id = c.id_for("/d");
        for blk in 0..4 {
            c.insert(id, blk, vec![blk as u8; 512], false);
        }
        // Physical bytes [600, 1500) overlap blocks 1 and 2.
        assert_eq!(c.invalidate(id, 600, 1500), 2);
        assert!(c.lookup(id, 0, 1).is_some());
        assert!(c.lookup(id, 1, 1).is_none());
        assert!(c.lookup(id, 2, 1).is_none());
        assert!(c.lookup(id, 3, 1).is_some());
        assert_eq!(c.invalidate(id, 10, 10), 0, "empty range is a no-op");
    }

    #[test]
    fn clear_empties_everything() {
        let c = cache(1 << 20, 512);
        let id = c.id_for("/d");
        c.insert(id, 0, vec![0u8; 512], false);
        c.clear();
        assert_eq!(c.resident_bytes(), 0);
        assert!(c.lookup(id, 0, 1).is_none());
    }

    #[test]
    fn readahead_ramps_doubles_and_resets_on_seek() {
        let c = BlockCache::new(&Conf {
            data_cache_bytes: 1 << 20,
            data_cache_block_bytes: 1024,
            readahead_min: 2048,
            readahead_max: 8192,
            ..Conf::default()
        });
        // First read at 0 is sequential (stream starts at 0): window=min,
        // prefetch [1024, 1024+2048).
        assert_eq!(c.plan_readahead(0, 1024), Some((1024, 2048)));
        // Exactly half the window still buffered ahead: no top-up yet.
        assert_eq!(c.plan_readahead(1024, 1024), None);
        // Frontier reached: the next window doubles and starts past the
        // previous high-water mark.
        assert_eq!(c.plan_readahead(2048, 1024), Some((3072, 4096)));
        // More than half of the 4096 window remains: quiet again...
        assert_eq!(c.plan_readahead(3072, 1024), None);
        assert_eq!(c.plan_readahead(4096, 1024), None);
        // ...until under half remains; doubling clamps at readahead_max.
        let w = c.plan_readahead(5120, 1024).unwrap();
        assert_eq!(w, (7168, 7168));
        assert_eq!(w.0 + w.1 as u64, 6144 + 8192, "window clamped at max");
        // A seek resets the stream: no prefetch, window back to zero.
        assert_eq!(c.plan_readahead(100_000, 1024), None);
        // Resuming sequentially from there ramps from min again.
        assert_eq!(c.plan_readahead(101_024, 1024), Some((102_048, 2048)));
        assert_eq!(c.stats().readaheads, 4);
    }

    #[test]
    fn readahead_disabled_plans_nothing() {
        let c = BlockCache::new(&Conf {
            data_cache_bytes: 1 << 20,
            readahead_max: 0,
            ..Conf::default()
        });
        assert_eq!(c.plan_readahead(0, 4096), None);
        assert_eq!(c.plan_readahead(4096, 4096), None);
        assert_eq!(c.stats().readaheads, 0);
    }
}
