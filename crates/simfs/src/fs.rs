//! The simulated parallel file system.
//!
//! [`SimFs`] combines a namespace (directories, files, stripe placement)
//! with the timing model (server queues, client links, write cache, locks,
//! metadata service). Every operation takes an *arrival time* and returns a
//! *completion time*; callers (the MPI-IO layer, the serial-tool models)
//! thread these through their own notion of per-rank clocks.
//!
//! Operations must be issued in globally non-decreasing arrival order for
//! exact FIFO queueing; modest inversions degrade gracefully (the request
//! queues behind already-issued work).

use crate::cache::NodeCache;
use crate::config::Platform;
use crate::locks::FileLock;
use crate::mds::{dir_hash, MetaOp, MetadataService};
use crate::queue::MultiQueue;
use crate::queue::SingleQueue;
use crate::trace::{self, TraceRecord};
use iotrace::OpKind;
use std::collections::HashMap;

/// Handle to a simulated file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FileId(pub usize);

/// Namespace-level errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// Path (or parent) missing.
    NotFound(String),
    /// Path already exists.
    Exists(String),
    /// Bad handle.
    BadFile,
    /// Node index out of range.
    BadNode,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::NotFound(p) => write!(f, "not found: {p}"),
            SimError::Exists(p) => write!(f, "exists: {p}"),
            SimError::BadFile => write!(f, "bad file handle"),
            SimError::BadNode => write!(f, "bad node index"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias.
pub type SimResult<T> = Result<T, SimError>;

struct FileState {
    size: u64,
    stripe_start: usize,
    stripe_width: usize,
    writers: usize,
    /// Nodes that have actually written — lock contention is between
    /// active writers, not mere openers (one aggregator per node writing
    /// means ppn does not change the contention, as the paper observes).
    writing_nodes: std::collections::HashSet<usize>,
    /// Nodes that have actually read (disk-head interference).
    reading_nodes: std::collections::HashSet<usize>,
    /// Extent locks live on the server owning the stripe (per-OST lock
    /// domains): writes to stripes on different servers do not conflict.
    server_locks: HashMap<usize, FileLock>,
    alive: bool,
}

/// Aggregate counters, readable at any point.
#[derive(Debug, Clone, Default)]
pub struct FsStats {
    /// Bytes accepted by write ops.
    pub bytes_written: u64,
    /// Bytes returned by read ops.
    pub bytes_read: u64,
    /// Write calls.
    pub write_ops: u64,
    /// Read calls.
    pub read_ops: u64,
    /// Writes absorbed by client caches.
    pub cache_hits: u64,
    /// Writes that went write-through.
    pub cache_misses: u64,
    /// Contended lock acquisitions.
    pub lock_conflicts: u64,
    /// Metadata operations served.
    pub meta_ops: u64,
    /// Seconds the metadata service was busy.
    pub mds_busy: f64,
    /// Latest completion time returned by any op.
    pub makespan: f64,
}

/// The simulated file system (one [`Platform`] instance).
pub struct SimFs {
    platform: Platform,
    servers: Vec<MultiQueue>,
    node_links: Vec<SingleQueue>,
    node_caches: Vec<NodeCache>,
    mds: MetadataService,
    dirs: std::collections::HashSet<String>,
    by_path: HashMap<String, usize>,
    files: Vec<FileState>,
    stats: FsStats,
}

fn parent_of(path: &str) -> String {
    match path.rfind('/') {
        Some(0) | None => "/".to_string(),
        Some(i) => path[..i].to_string(),
    }
}

impl SimFs {
    /// Build an empty file system on a platform.
    pub fn new(platform: Platform) -> SimFs {
        let servers = (0..platform.fs.servers)
            .map(|_| MultiQueue::new(platform.fs.lanes_per_server))
            .collect();
        let node_links = (0..platform.cluster.nodes)
            .map(|_| SingleQueue::new())
            .collect();
        let node_caches = (0..platform.cluster.nodes)
            .map(|_| NodeCache::new(&platform.fs.cache))
            .collect();
        let mds = MetadataService::new(&platform.fs.mds);
        let mut dirs = std::collections::HashSet::new();
        dirs.insert("/".to_string());
        SimFs {
            platform,
            servers,
            node_links,
            node_caches,
            mds,
            dirs,
            by_path: HashMap::new(),
            files: Vec::new(),
            stats: FsStats::default(),
        }
    }

    /// The platform this FS simulates.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Counter snapshot (MDS numbers refreshed).
    pub fn stats(&self) -> FsStats {
        let mut s = self.stats.clone();
        s.meta_ops = self.mds.ops_served();
        s.mds_busy = self.mds.busy_time();
        s
    }

    fn note(&mut self, completion: f64) -> f64 {
        if completion > self.stats.makespan {
            self.stats.makespan = completion;
        }
        completion
    }

    fn meta(&mut self, t: f64, op: MetaOp, dir: &str) -> f64 {
        let c = self.mds.op(t, op, dir_hash(dir));
        trace::record(TraceRecord {
            op: OpKind::Meta,
            node: None,
            offset: 0,
            len: 0,
            start: t,
            end: c,
            cached: false,
        });
        self.note(c)
    }

    fn state(&self, fid: FileId) -> SimResult<&FileState> {
        self.files
            .get(fid.0)
            .filter(|f| f.alive)
            .ok_or(SimError::BadFile)
    }

    // ----- namespace operations ------------------------------------------

    /// Create a directory. Charges one MDS create.
    pub fn mkdir(&mut self, t: f64, path: &str) -> SimResult<f64> {
        let parent = parent_of(path);
        if !self.dirs.contains(&parent) {
            return Err(SimError::NotFound(parent));
        }
        if self.dirs.contains(path) || self.by_path.contains_key(path) {
            return Err(SimError::Exists(path.to_string()));
        }
        self.dirs.insert(path.to_string());
        Ok(self.meta(t, MetaOp::Create, &parent))
    }

    /// Does a path exist (file or directory)?
    pub fn exists(&self, path: &str) -> bool {
        self.dirs.contains(path) || self.by_path.contains_key(path)
    }

    /// Create a file, optionally overriding the stripe width (PLFS
    /// droppings use width 1, round-robined over servers). Charges one MDS
    /// create against the parent directory — the contention key that makes
    /// hostdir spreading matter. Returns `(completion, id)`.
    pub fn create(
        &mut self,
        t: f64,
        path: &str,
        stripe_width: Option<usize>,
    ) -> SimResult<(f64, FileId)> {
        let parent = parent_of(path);
        if !self.dirs.contains(&parent) {
            return Err(SimError::NotFound(parent));
        }
        if self.by_path.contains_key(path) || self.dirs.contains(path) {
            return Err(SimError::Exists(path.to_string()));
        }
        let width = stripe_width
            .unwrap_or(self.platform.fs.stripe_width)
            .clamp(1, self.platform.fs.servers.max(1));
        let id = self.files.len();
        // Placement by path hash (Lustre-style pseudo-random OST pick):
        // avoids pathological alternation when files are created in pairs
        // (data + index droppings).
        let start = (crate::mds::dir_hash(path) % self.platform.fs.servers.max(1) as u64) as usize;
        self.files.push(FileState {
            size: 0,
            stripe_start: start,
            stripe_width: width,
            writers: 0,
            writing_nodes: std::collections::HashSet::new(),
            reading_nodes: std::collections::HashSet::new(),
            server_locks: HashMap::new(),
            alive: true,
        });
        self.by_path.insert(path.to_string(), id);
        let c = self.meta(t, MetaOp::Create, &parent);
        Ok((c, FileId(id)))
    }

    /// Open an existing file. `write` registers a writer (used for lock
    /// contention and cache-revocation decisions). Charges one MDS open.
    pub fn open(&mut self, t: f64, path: &str, write: bool) -> SimResult<(f64, FileId)> {
        let id = *self
            .by_path
            .get(path)
            .ok_or_else(|| SimError::NotFound(path.to_string()))?;
        let parent = parent_of(path);
        if write {
            self.files[id].writers += 1;
        }
        let c = self.meta(t, MetaOp::Open, &parent);
        Ok((c, FileId(id)))
    }

    /// Register an additional writer on an already-open file (an MPI rank
    /// joining a shared handle); free of metadata cost.
    pub fn add_writer(&mut self, fid: FileId) -> SimResult<()> {
        self.state(fid)?;
        self.files[fid.0].writers += 1;
        Ok(())
    }

    /// Close a handle. With `write`, the writer count drops and, if
    /// `flush`, the node's dirty bytes for the file drain first.
    pub fn close(
        &mut self,
        t: f64,
        node: usize,
        fid: FileId,
        write: bool,
        flush: bool,
    ) -> SimResult<f64> {
        self.state(fid)?;
        let mut done = t;
        if flush {
            let cache = self.node_caches.get_mut(node).ok_or(SimError::BadNode)?;
            done = cache.flush_file(t, fid.0 as u64);
        }
        if write {
            let f = &mut self.files[fid.0];
            f.writers = f.writers.saturating_sub(1);
        }
        Ok(self.note(done))
    }

    /// Stat: one MDS op.
    pub fn stat(&mut self, t: f64, path: &str) -> SimResult<(f64, u64)> {
        let size = match self.by_path.get(path) {
            Some(&id) => self.files[id].size,
            None if self.dirs.contains(path) => 0,
            None => return Err(SimError::NotFound(path.to_string())),
        };
        let c = self.meta(t, MetaOp::Stat, &parent_of(path));
        Ok((c, size))
    }

    /// Unlink a file: one MDS remove.
    pub fn unlink(&mut self, t: f64, path: &str) -> SimResult<f64> {
        let id = self
            .by_path
            .remove(path)
            .ok_or_else(|| SimError::NotFound(path.to_string()))?;
        self.files[id].alive = false;
        Ok(self.meta(t, MetaOp::Remove, &parent_of(path)))
    }

    /// List a directory: one MDS readdir; returns entry names.
    pub fn readdir(&mut self, t: f64, path: &str) -> SimResult<(f64, Vec<String>)> {
        if !self.dirs.contains(path) {
            return Err(SimError::NotFound(path.to_string()));
        }
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let mut names: Vec<String> = self
            .by_path
            .keys()
            .map(|s| s.as_str())
            .chain(self.dirs.iter().map(|s| s.as_str()))
            .filter_map(|p| {
                let rest = p.strip_prefix(&prefix)?;
                (!rest.is_empty() && !rest.contains('/')).then(|| rest.to_string())
            })
            .collect();
        names.sort_unstable();
        let c = self.meta(t, MetaOp::Readdir, path);
        Ok((c, names))
    }

    /// Size of a file right now (no timing charge).
    pub fn size_of(&self, fid: FileId) -> SimResult<u64> {
        Ok(self.state(fid)?.size)
    }

    // ----- data operations -------------------------------------------------

    /// Write `len` bytes at `offset` from `node`. Returns completion time.
    pub fn write(
        &mut self,
        t: f64,
        node: usize,
        fid: FileId,
        offset: u64,
        len: u64,
    ) -> SimResult<f64> {
        self.write_inner(t, node, fid, offset, len, true)
    }

    /// Write bypassing the client cache (synchronous per-request paths such
    /// as FUSE, or `O_DIRECT`). Returns completion time.
    pub fn write_through(
        &mut self,
        t: f64,
        node: usize,
        fid: FileId,
        offset: u64,
        len: u64,
    ) -> SimResult<f64> {
        self.write_inner(t, node, fid, offset, len, false)
    }

    fn write_inner(
        &mut self,
        t: f64,
        node: usize,
        fid: FileId,
        offset: u64,
        len: u64,
        allow_cache: bool,
    ) -> SimResult<f64> {
        self.state(fid)?;
        if node >= self.platform.cluster.nodes {
            return Err(SimError::BadNode);
        }
        if len == 0 {
            return Ok(t);
        }
        self.stats.write_ops += 1;
        self.stats.bytes_written += len;
        let t0 = t + self.platform.cluster.syscall_overhead;

        // 1. Client cache: absorb small writes unless shared-file locking
        //    revokes caching. Contention is between nodes actively writing.
        self.files[fid.0].writing_nodes.insert(node);
        let writers = self.files[fid.0].writing_nodes.len();
        let cacheable =
            allow_cache && !(self.platform.fs.lock.revoke_cache_on_shared && writers > 1);
        let absorbed = self.node_caches[node].absorb(t0, fid.0 as u64, len, cacheable);
        if absorbed {
            self.stats.cache_hits += 1;
            let f = &mut self.files[fid.0];
            f.size = f.size.max(offset + len);
            let c = t0 + len as f64 / self.platform.cluster.mem_bw;
            trace::record(TraceRecord {
                op: OpKind::Write,
                node: Some(node),
                offset,
                len,
                start: t,
                end: c,
                cached: true,
            });
            return Ok(self.note(c));
        }
        self.stats.cache_misses += 1;

        // 2. Extent locks: one domain per server owning a touched stripe;
        //    the hold time on each covers that server's share of the
        //    transfer. Acquisitions on different servers overlap (max).
        let write_bw = self.platform.fs.lane_bw * self.platform.fs.write_bw_scale;
        let mut t1 = t0;
        if writers > 1 {
            let lock_cfg = self.platform.fs.lock.clone();
            let shares = self.server_shares(fid, offset, len);
            let f = &mut self.files[fid.0];
            for (server, share) in shares {
                let est = share as f64 / write_bw;
                let lock = f.server_locks.entry(server).or_default();
                let before = lock.conflicts();
                let granted = lock.acquire(&lock_cfg, t0, est, writers);
                self.stats.lock_conflicts += lock.conflicts() - before;
                t1 = t1.max(granted);
            }
        }

        // 3. Client link.
        let t2 = self.node_links[node].serve(t1, len as f64 / self.platform.cluster.link_bw);

        // 4. Stripe the transfer over servers.
        let c = self.transfer(t2, fid, offset, len, true);
        let f = &mut self.files[fid.0];
        f.size = f.size.max(offset + len);
        trace::record(TraceRecord {
            op: OpKind::Write,
            node: Some(node),
            offset,
            len,
            start: t,
            end: c,
            cached: false,
        });
        Ok(self.note(c))
    }

    /// Append `len` bytes (write at current EOF).
    pub fn append(&mut self, t: f64, node: usize, fid: FileId, len: u64) -> SimResult<f64> {
        let off = self.state(fid)?.size;
        self.write(t, node, fid, off, len)
    }

    /// Read `len` bytes at `offset` into `node`. Returns completion time.
    pub fn read(
        &mut self,
        t: f64,
        node: usize,
        fid: FileId,
        offset: u64,
        len: u64,
    ) -> SimResult<f64> {
        self.read_inner(t, node, fid, offset, len, true)
    }

    /// Block-aligned streaming read (data sieving, readahead): skips the
    /// shared-file seek-interference penalty.
    pub fn read_aligned(
        &mut self,
        t: f64,
        node: usize,
        fid: FileId,
        offset: u64,
        len: u64,
    ) -> SimResult<f64> {
        self.read_inner(t, node, fid, offset, len, false)
    }

    fn read_inner(
        &mut self,
        t: f64,
        node: usize,
        fid: FileId,
        offset: u64,
        len: u64,
        interference: bool,
    ) -> SimResult<f64> {
        self.state(fid)?;
        if node >= self.platform.cluster.nodes {
            return Err(SimError::BadNode);
        }
        if len == 0 {
            return Ok(t);
        }
        self.stats.read_ops += 1;
        self.stats.bytes_read += len;
        let t0 = t + self.platform.cluster.syscall_overhead;
        if interference {
            self.files[fid.0].reading_nodes.insert(node);
        }
        let t1 = self.node_links[node].serve(t0, len as f64 / self.platform.cluster.link_bw);
        let c = self.transfer(t1, fid, offset, len, false);
        trace::record(TraceRecord {
            op: OpKind::Read,
            node: Some(node),
            offset,
            len,
            start: t,
            end: c,
            cached: false,
        });
        Ok(self.note(c))
    }

    /// Flush a node's cached dirty bytes for a file.
    pub fn fsync(&mut self, t: f64, node: usize, fid: FileId) -> SimResult<f64> {
        self.state(fid)?;
        let cache = self.node_caches.get_mut(node).ok_or(SimError::BadNode)?;
        let c = cache.flush_file(t, fid.0 as u64);
        Ok(self.note(c))
    }

    /// Bytes of `[offset, offset+len)` landing on each server.
    fn server_shares(&self, fid: FileId, offset: u64, len: u64) -> Vec<(usize, u64)> {
        let stripe = self.platform.fs.stripe_size.max(1);
        let f = &self.files[fid.0];
        let nservers = self.servers.len().max(1);
        let mut shares: HashMap<usize, u64> = HashMap::new();
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let stripe_idx = cur / stripe;
            let chunk_end = ((stripe_idx + 1) * stripe).min(end);
            let server = (f.stripe_start + (stripe_idx as usize % f.stripe_width)) % nservers;
            *shares.entry(server).or_insert(0) += chunk_end - cur;
            cur = chunk_end;
        }
        let mut out: Vec<(usize, u64)> = shares.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Split `[offset, offset+len)` into stripe chunks and queue each at
    /// its server; completion is the slowest chunk.
    fn transfer(&mut self, t: f64, fid: FileId, offset: u64, len: u64, is_write: bool) -> f64 {
        let fs = &self.platform.fs;
        let bw = if is_write {
            fs.lane_bw * fs.write_bw_scale
        } else {
            fs.lane_bw
        };
        // Interleaved streams from many clients of one file make the disk
        // heads seek: reads of a shared file pay inflated per-request
        // latency (capped), the "increased number of file streams" effect
        // the paper credits PLFS reads with avoiding.
        let openers = self.files[fid.0].reading_nodes.len().max(1) as f64;
        let latency = if is_write {
            fs.per_op_latency
        } else {
            fs.per_op_latency * (1.0 + fs.read_interference * (openers - 1.0)).min(6.0)
        };
        let stripe = fs.stripe_size.max(1);
        let f = &self.files[fid.0];
        let mut done: f64 = t;
        let mut cur = offset;
        let end = offset + len;
        while cur < end {
            let stripe_idx = cur / stripe;
            let chunk_end = ((stripe_idx + 1) * stripe).min(end);
            let chunk = chunk_end - cur;
            let server = (f.stripe_start + (stripe_idx as usize % f.stripe_width))
                % self.servers.len().max(1);
            let service = latency + chunk as f64 / bw;
            let c = self.servers[server].serve(t, service);
            if c > done {
                done = c;
            }
            cur = chunk_end;
        }
        done
    }

    /// Aggregate achieved bandwidth for a byte count over a wall interval.
    pub fn bandwidth(bytes: u64, start: f64, end: f64) -> f64 {
        if end > start {
            bytes as f64 / (end - start)
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn fs() -> SimFs {
        SimFs::new(presets::toy())
    }

    const MIB: u64 = 1 << 20;

    #[test]
    fn namespace_lifecycle() {
        let mut f = fs();
        f.mkdir(0.0, "/d").unwrap();
        assert!(matches!(f.mkdir(0.0, "/d"), Err(SimError::Exists(_))));
        assert!(matches!(
            f.mkdir(0.0, "/no/parent"),
            Err(SimError::NotFound(_))
        ));
        let (_, id) = f.create(0.0, "/d/f", None).unwrap();
        assert!(f.exists("/d/f"));
        assert!(matches!(
            f.create(0.0, "/d/f", None),
            Err(SimError::Exists(_))
        ));
        let (_, names) = f.readdir(0.0, "/d").unwrap();
        assert_eq!(names, vec!["f"]);
        f.unlink(1.0, "/d/f").unwrap();
        assert!(!f.exists("/d/f"));
        assert!(f.size_of(id).is_err(), "dead handle rejected");
    }

    #[test]
    fn write_advances_size_and_clock() {
        let mut f = fs();
        let (t, id) = f.create(0.0, "/f", None).unwrap();
        f.open(t, "/f", true).unwrap();
        let c = f.write(t, 0, id, 0, 8 * MIB).unwrap();
        assert!(c > t, "writing takes time");
        assert_eq!(f.size_of(id).unwrap(), 8 * MIB);
        let c2 = f.append(c, 0, id, MIB).unwrap();
        assert!(c2 > c);
        assert_eq!(f.size_of(id).unwrap(), 9 * MIB);
        let s = f.stats();
        assert_eq!(s.bytes_written, 9 * MIB);
        assert_eq!(s.write_ops, 2);
        assert!(s.makespan >= c2);
    }

    #[test]
    fn parallel_files_beat_shared_file() {
        // The PLFS premise: N writers to N files finish faster than N
        // writers to 1 shared file (once the extent-lock contention between
        // writing nodes is established).
        let writers = 8usize;
        let rounds = 4u64;
        let piece = 4 * MIB;

        // Platform where the lock hold fully serialises contended
        // transfers (many lanes, so the data path itself is not the
        // bottleneck — the lock is, as on a real parallel FS).
        let mut platform = presets::toy();
        platform.fs.lanes_per_server = 8;
        platform.fs.lock.hold_transfer_fraction = 1.0;

        // Shared file.
        let mut f = SimFs::new(platform.clone());
        let (t0, shared) = f.create(0.0, "/shared", None).unwrap();
        for _ in 0..writers {
            f.add_writer(shared).unwrap();
        }
        let mut shared_done: f64 = 0.0;
        for round in 0..rounds {
            for w in 0..writers {
                let off = (round * writers as u64 + w as u64) * piece;
                let c = f.write(t0, w % 2, shared, off, piece).unwrap();
                shared_done = shared_done.max(c);
            }
        }

        // Unique files (same total volume, same nodes).
        let mut f = SimFs::new(platform);
        let mut unique_done: f64 = 0.0;
        for w in 0..writers {
            let (t, id) = f.create(0.0, &format!("/u{w}"), None).unwrap();
            f.open(t, &format!("/u{w}"), true).unwrap();
            for round in 0..rounds {
                let c = f.write(t, w % 2, id, round * piece, piece).unwrap();
                unique_done = unique_done.max(c);
            }
        }

        assert!(
            unique_done < shared_done,
            "unique={unique_done} shared={shared_done}"
        );
    }

    #[test]
    fn small_writes_absorb_in_cache() {
        let mut f = fs();
        let (t, id) = f.create(0.0, "/f", None).unwrap();
        f.open(t, "/f", true).unwrap();
        let c = f.write(t, 0, id, 0, 64 * 1024).unwrap();
        // Memory-speed completion: far faster than a server round trip.
        assert!(c - t < 1e-3, "cached write too slow: {}", c - t);
        assert_eq!(f.stats().cache_hits, 1);
        // fsync pays the drain.
        let c2 = f.fsync(c, 0, id).unwrap();
        assert!(c2 > c);
    }

    #[test]
    fn shared_writers_revoke_cache() {
        let mut f = fs(); // toy preset revokes cache on shared files
        let (t, id) = f.create(0.0, "/f", None).unwrap();
        f.add_writer(id).unwrap();
        f.add_writer(id).unwrap();
        // The sole writing node still caches (lock is cached locally).
        f.write(t, 0, id, 0, 64 * 1024).unwrap();
        assert_eq!(f.stats().cache_hits, 1);
        // A second node writing makes the file contended: caching revoked
        // for it and for subsequent writes from the first node.
        f.write(t, 1, id, 64 * 1024, 64 * 1024).unwrap();
        f.write(t, 0, id, 128 * 1024, 64 * 1024).unwrap();
        assert_eq!(f.stats().cache_hits, 1);
        assert_eq!(f.stats().cache_misses, 2);
        assert!(f.stats().lock_conflicts > 0);
    }

    #[test]
    fn reads_charge_servers_and_links() {
        let mut f = fs();
        let (t, id) = f.create(0.0, "/f", None).unwrap();
        f.open(t, "/f", true).unwrap();
        let c = f.write(t, 0, id, 0, 16 * MIB).unwrap();
        let r = f.read(c, 1, id, 0, 16 * MIB).unwrap();
        assert!(r > c);
        assert_eq!(f.stats().bytes_read, 16 * MIB);
    }

    #[test]
    fn read_cache_off_by_default_in_presets() {
        let mut f = fs();
        let (t, id) = f.create(0.0, "/f", None).unwrap();
        f.open(t, "/f", true).unwrap();
        let wrote = f.write(t, 0, id, 0, 4 * MIB).unwrap();
        let cold = f.read(wrote, 1, id, 0, 4 * MIB).unwrap();
        let warm = f.read(cold, 1, id, 0, 4 * MIB).unwrap();
        // Only writes are absorbed: a re-read pays the servers again, far
        // above the memory copy a cached read would cost.
        let memory = (4 * MIB) as f64 / f.platform().cluster.mem_bw;
        assert!(warm - cold > memory * 10.0, "re-read {}", warm - cold);
        assert_eq!(f.stats().bytes_read, 8 * MIB);
    }

    #[test]
    fn zero_length_ops_are_free() {
        let mut f = fs();
        let (t, id) = f.create(0.0, "/f", None).unwrap();
        assert_eq!(f.write(t, 0, id, 0, 0).unwrap(), t);
        assert_eq!(f.read(t, 0, id, 0, 0).unwrap(), t);
    }

    #[test]
    fn bad_node_rejected() {
        let mut f = fs();
        let (t, id) = f.create(0.0, "/f", None).unwrap();
        assert!(matches!(f.write(t, 999, id, 0, 1), Err(SimError::BadNode)));
    }

    #[test]
    fn stripe_width_one_uses_one_server() {
        let mut f = fs();
        let (t, id) = f.create(0.0, "/narrow", Some(1)).unwrap();
        f.open(t, "/narrow", true).unwrap();
        // Two stripes' worth of data on a width-1 file must serialize on
        // one server; on a wide file they can parallelize.
        let stripe = f.platform().fs.stripe_size;
        let narrow = f.write(t, 0, id, 0, stripe * 4).unwrap();

        let mut f2 = fs();
        let (t2, id2) = f2.create(0.0, "/wide", Some(2)).unwrap();
        f2.open(t2, "/wide", true).unwrap();
        let wide = f2.write(t2, 0, id2, 0, stripe * 4).unwrap();
        assert!(wide < narrow, "wide={wide} narrow={narrow}");
    }

    #[test]
    fn trace_records_ops_when_enabled() {
        // The process-wide sink: other tests' ops may land in it too while
        // it is on, so the counts are lower bounds.
        let sink = iotrace::global();
        sink.set_enabled(true);
        let mut f = fs();
        let (t, id) = f.create(0.0, "/f", None).unwrap();
        f.open(t, "/f", true).unwrap();
        f.write(t, 0, id, 0, 8 * MIB).unwrap();
        f.read(1.0, 0, id, 0, MIB).unwrap();
        sink.set_enabled(false);
        let sim = |op| {
            let snap = sink.snapshot();
            let e = snap
                .entries
                .iter()
                .find(|e| e.layer == iotrace::Layer::Sim && e.op == op);
            e.map_or((0, 0), |e| (e.ops, e.bytes))
        };
        let (wc, wb) = sim(OpKind::Write);
        assert!(wc >= 1 && wb >= 8 * MIB, "{wc} writes, {wb} bytes");
        let (rc, rb) = sim(OpKind::Read);
        assert!(rc >= 1 && rb >= MIB, "{rc} reads, {rb} bytes");
        assert!(sim(OpKind::Meta).0 >= 2, "create + open");
    }

    #[test]
    fn makespan_tracks_latest_completion() {
        let mut f = fs();
        let (t, id) = f.create(0.0, "/f", None).unwrap();
        let c = f.write(t, 0, id, 0, 4 * MIB).unwrap();
        assert!(f.stats().makespan >= c);
    }
}
