//! The client write-back cache model.
//!
//! Each compute node has a dirty-data budget that drains to the servers in
//! the background. A write is *absorbed* (completes at memory speed) when it
//! is small enough (`per_op_threshold`, the Lustre per-RPC dirty limit) and
//! the node has budget left; otherwise it goes write-through. `fsync`/close
//! must wait for the file's dirty bytes to drain.
//!
//! This is the mechanism behind Figure 4: BT class C's ~300 KB writes are
//! absorbed and the benchmark observes memory bandwidth; class D's ~7 MB
//! writes at 1,024 cores miss the threshold and fall back to disk speed;
//! class D at 4,096 cores (<2 MB writes) is absorbed again.
//!
//! Only writes are absorbed: this is the cache-absorbed write model that
//! Figure 4 needs. There is no clean read cache; every read pays the
//! servers.

use crate::config::CacheConfig;
use std::collections::HashMap;

/// Per-node cache state with leaky-bucket drain.
#[derive(Debug)]
pub struct NodeCache {
    capacity: f64,
    threshold: u64,
    drain_bw: f64,
    /// Dirty bytes as of `last_t`.
    dirty: f64,
    last_t: f64,
    /// Dirty bytes per file (for fsync of one file).
    per_file: HashMap<u64, f64>,
}

impl NodeCache {
    /// New cache from config.
    pub fn new(cfg: &CacheConfig) -> NodeCache {
        NodeCache {
            capacity: cfg.capacity as f64,
            threshold: cfg.per_op_threshold,
            drain_bw: cfg.drain_bw,
            dirty: 0.0,
            last_t: 0.0,
            per_file: HashMap::new(),
        }
    }

    /// Advance the leaky bucket to time `t`.
    fn settle(&mut self, t: f64) {
        if t > self.last_t {
            let drained = (t - self.last_t) * self.drain_bw;
            let factor = if self.dirty > 0.0 {
                ((self.dirty - drained).max(0.0)) / self.dirty
            } else {
                0.0
            };
            self.dirty = (self.dirty - drained).max(0.0);
            // Scale per-file dirt proportionally (files drain together).
            if factor == 0.0 {
                self.per_file.clear();
            } else {
                for v in self.per_file.values_mut() {
                    *v *= factor;
                }
            }
            self.last_t = t;
        }
    }

    /// Try to absorb a write of `len` bytes to `file` at time `t`.
    /// Returns true if absorbed (caller completes it at memory speed);
    /// false means write-through.
    pub fn absorb(&mut self, t: f64, file: u64, len: u64, cacheable: bool) -> bool {
        self.settle(t);
        if !cacheable || self.capacity <= 0.0 || len > self.threshold {
            return false;
        }
        if self.dirty + len as f64 > self.capacity {
            return false;
        }
        self.dirty += len as f64;
        *self.per_file.entry(file).or_insert(0.0) += len as f64;
        true
    }

    /// Wait for `file`'s dirty bytes to drain, starting at `t`. Returns the
    /// completion time (== `t` if the file has nothing dirty).
    ///
    /// Approximation: the whole bucket drains FIFO at `drain_bw`, so a
    /// single file's flush waits for its *share* of the backlog — we charge
    /// the full current backlog, which is exact when one file dominates a
    /// node's dirt (the checkpointing pattern).
    pub fn flush_file(&mut self, t: f64, file: u64) -> f64 {
        self.settle(t);
        let file_dirty = self.per_file.get(&file).copied().unwrap_or(0.0);
        if file_dirty <= 0.0 || self.drain_bw <= 0.0 {
            return t;
        }
        let wait = self.dirty / self.drain_bw;
        let done = t + wait;
        self.dirty = 0.0;
        self.per_file.clear();
        self.last_t = done;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::units::MIB;

    fn cache() -> NodeCache {
        NodeCache::new(&CacheConfig {
            capacity: 64 * MIB,
            per_op_threshold: 4 * MIB,
            drain_bw: 1.0 * MIB as f64, // 1 MiB/s for easy arithmetic
        })
    }

    #[test]
    fn small_writes_absorb_large_ones_do_not() {
        let mut c = cache();
        assert!(c.absorb(0.0, 1, MIB, true));
        assert!(!c.absorb(0.0, 1, 8 * MIB, true), "over per-op threshold");
        assert!(!c.absorb(0.0, 1, MIB, false), "caching disabled by locks");
    }

    #[test]
    fn capacity_limits_absorption() {
        let mut c = cache();
        for _ in 0..16 {
            assert!(c.absorb(0.0, 1, 4 * MIB, true));
        }
        // 64 MiB dirty: full.
        assert!(!c.absorb(0.0, 1, 4 * MIB, true));
    }

    #[test]
    fn bucket_drains_over_time() {
        let mut c = cache();
        c.absorb(0.0, 1, 4 * MIB, true);
        // 1 MiB drained by t = 1: the flush waits out the other 3.
        assert!((c.flush_file(1.0, 1) - 4.0).abs() < 1e-9);
        c.absorb(4.0, 1, 4 * MIB, true);
        // All of it drained by t = 10: nothing left to wait for.
        assert_eq!(c.flush_file(10.0, 1), 10.0);
        // Budget regenerated: can absorb again.
        assert!(c.absorb(10.0, 1, 4 * MIB, true));
    }

    #[test]
    fn flush_waits_for_backlog() {
        let mut c = cache();
        c.absorb(0.0, 7, 4 * MIB, true);
        let done = c.flush_file(0.0, 7);
        assert!((done - 4.0).abs() < 1e-9, "4 MiB at 1 MiB/s");
        // Flushing a clean file is free.
        assert_eq!(c.flush_file(done, 7), done);
        assert_eq!(c.flush_file(done, 99), done);
    }

    #[test]
    fn per_file_dirt_tracks_proportional_drain() {
        let mut c = cache();
        c.absorb(0.0, 1, 2 * MIB, true);
        c.absorb(0.0, 2, 2 * MIB, true);
        // After 2 s, 2 MiB drained: both files halved; flush of file 1
        // still waits for the whole remaining bucket (2 MiB -> 2 s).
        let done = c.flush_file(2.0, 1);
        assert!((done - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let mut c = NodeCache::new(&CacheConfig {
            capacity: 0,
            per_op_threshold: 4 * MIB,
            drain_bw: 1e6,
        });
        assert!(!c.absorb(0.0, 1, 1024, true));
    }
}
