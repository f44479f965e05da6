//! ADIO drivers: how an MPI file maps onto the simulated file system.
//!
//! ROMIO routes MPI-IO through per-file-system "ADIO" drivers. We model the
//! four configurations the paper compares:
//!
//! * [`UfsDriver`] — plain POSIX onto one shared file (vanilla MPI-IO).
//! * [`PlfsRomioDriver`] — the patched-ROMIO PLFS driver: every writing
//!   rank appends to its own dropping inside a container.
//! * [`LdplfsDriver`] — the same PLFS container semantics reached through
//!   the LDPLFS shim: identical file layout plus the shim's small per-call
//!   bookkeeping (fd table lookup and two `lseek`s) and one scratch-file
//!   open per rank. This models the paper's C library; `ldplfs` itself
//!   keeps the cursor without a call below it (DESIGN.md §13).
//! * [`FuseDriver`] — PLFS behind the FUSE kernel module: every transfer is
//!   chopped into kernel-sized requests funnelled through a per-node FUSE
//!   daemon, paying context switches and an extra copy.
//!
//! Container layout constants (hostdir hashing) are imported from the real
//! `plfs` crate so the simulated and real layouts agree.

use crate::writeops::Access;
use simfs::{FileId, SimFs, SimResult};

/// A write or read request as seen by a driver.
#[derive(Debug, Clone, Copy)]
pub struct IoReq {
    /// Issuing rank.
    pub rank: usize,
    /// Node hosting the rank.
    pub node: usize,
    /// File offset (logical, application view).
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Access pattern at the file-system level.
    pub access: Access,
}

/// One of the four I/O paths.
pub trait AdioDriver {
    /// Collective open: every rank arrives at its clock; returns per-rank
    /// completion times (same order as `ranks`).
    fn open(
        &mut self,
        fs: &mut SimFs,
        path: &str,
        create: bool,
        ranks: &[(usize, usize, f64)], // (rank, node, arrival)
    ) -> SimResult<Vec<f64>>;

    /// Positional write from one rank; returns completion time.
    fn write_at(&mut self, fs: &mut SimFs, t: f64, req: IoReq) -> SimResult<f64>;

    /// Positional read from one rank; returns completion time.
    fn read_at(&mut self, fs: &mut SimFs, t: f64, req: IoReq) -> SimResult<f64>;

    /// Collective close; returns per-rank completions.
    fn close(&mut self, fs: &mut SimFs, ranks: &[(usize, usize, f64)]) -> SimResult<Vec<f64>>;
}

// ---------------------------------------------------------------------------
// UFS: one shared file.
// ---------------------------------------------------------------------------

/// ROMIO's data-sieving buffer for strided independent writes on UFS (its
/// historical `ind_wr_buffer_size`, 512 KiB): a strided write smaller than
/// this reads and writes back the whole buffer around its target.
pub const SIEVE_BUFFER: u64 = 512 << 10;

/// Plain POSIX driver: all ranks share one file.
#[derive(Default)]
pub struct UfsDriver {
    file: Option<FileId>,
}

impl UfsDriver {
    /// New driver; strided writes are sieved.
    pub fn new() -> UfsDriver {
        UfsDriver { file: None }
    }

    fn fid(&self) -> SimResult<FileId> {
        self.file.ok_or(simfs::SimError::BadFile)
    }
}

impl AdioDriver for UfsDriver {
    fn open(
        &mut self,
        fs: &mut SimFs,
        path: &str,
        create: bool,
        ranks: &[(usize, usize, f64)],
    ) -> SimResult<Vec<f64>> {
        let mut out = Vec::with_capacity(ranks.len());
        let mut fid = None;
        for (i, &(_rank, _node, t)) in ranks.iter().enumerate() {
            let (c, id) = if i == 0 {
                if create && !fs.exists(path) {
                    let (c, id) = fs.create(t, path, None)?;
                    fs.add_writer(id)?;
                    (c, id)
                } else {
                    fs.open(t, path, true)?
                }
            } else {
                // Remaining ranks open the now-existing file.
                fs.open(t, path, true)?
            };
            fid = Some(id);
            out.push(c);
        }
        self.file = fid;
        Ok(out)
    }

    fn write_at(&mut self, fs: &mut SimFs, t: f64, req: IoReq) -> SimResult<f64> {
        let fid = self.fid()?;
        match req.access {
            Access::Strided if req.len < SIEVE_BUFFER => {
                // Read-modify-write of the sieve buffer around the target
                // (the read is block-aligned streaming, no seek storm).
                let start = (req.offset / SIEVE_BUFFER) * SIEVE_BUFFER;
                let t1 = fs.read_aligned(t, req.node, fid, start, SIEVE_BUFFER)?;
                fs.write(t1, req.node, fid, start, SIEVE_BUFFER)
            }
            _ => fs.write(t, req.node, fid, req.offset, req.len),
        }
    }

    fn read_at(&mut self, fs: &mut SimFs, t: f64, req: IoReq) -> SimResult<f64> {
        let fid = self.fid()?;
        fs.read(t, req.node, fid, req.offset, req.len)
    }

    fn close(&mut self, fs: &mut SimFs, ranks: &[(usize, usize, f64)]) -> SimResult<Vec<f64>> {
        let fid = self.fid()?;
        let mut out = Vec::with_capacity(ranks.len());
        for &(_rank, node, t) in ranks {
            // Benchmark semantics (IOR -e): close implies fsync, so cached
            // dirty data drains before the clock stops — matching the PLFS
            // drivers, whose close always syncs.
            out.push(fs.close(t, node, fid, true, true)?);
        }
        self.file = None;
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// PLFS container semantics shared by ROMIO / LDPLFS / FUSE drivers.
// ---------------------------------------------------------------------------

/// Per-rank write stream inside a simulated container.
struct Stream {
    data: FileId,
    index: FileId,
    /// Physical append cursor of the data dropping.
    cursor: u64,
    /// Buffered index records not yet flushed (flushed at close).
    pending_index: u64,
}

/// Simulated PLFS container state: droppings per rank, hostdir spreading,
/// metadata-op accounting. This is the shape that loads the MDS.
pub struct PlfsContainer {
    path: String,
    num_hostdirs: u32,
    streams: std::collections::HashMap<usize, Stream>,
    hostdirs_made: std::collections::HashSet<u32>,
    logical_eof: u64,
    created: bool,
}

impl PlfsContainer {
    fn new(num_hostdirs: u32) -> PlfsContainer {
        PlfsContainer {
            path: String::new(),
            num_hostdirs,
            streams: std::collections::HashMap::new(),
            hostdirs_made: std::collections::HashSet::new(),
            logical_eof: 0,
            created: false,
        }
    }

    fn hostdir(&self, rank: usize) -> u32 {
        plfs::container::hostdir_for_pid(rank as u64, self.num_hostdirs)
    }

    /// Create the container skeleton — the two ops of
    /// `plfs::container::create_container_as` for a writing open: the dir,
    /// then the creator's data dropping at the library's hostdir count, or
    /// the access file at another, as an older build made it — and all
    /// hostdirs (as real PLFS does
    /// at container creation — so later dropping creates are pure file
    /// creates).
    fn create_skeleton(&mut self, fs: &mut SimFs, t: f64) -> SimResult<f64> {
        let mut c = fs.mkdir(t, &self.path)?;
        let marker = if self.num_hostdirs == plfs::container::HOSTDIRS {
            plfs::container::CREATOR_DATA
        } else {
            plfs::container::ACCESS_FILE
        };
        c = fs.create(c, &format!("{}/{marker}", self.path), Some(1))?.0;
        for hd in 0..self.num_hostdirs {
            c = fs.mkdir(c, &format!("{}/hostdir.{hd}", self.path))?;
            self.hostdirs_made.insert(hd);
        }
        self.created = true;
        Ok(c)
    }

    /// Ensure a rank's write stream exists: hostdir + data and index
    /// droppings (2 creates, the Figure 5 load). Every modeled rank keeps
    /// the hostdir form; the library gives the one rank whose open made
    /// the container a top-level pair instead (its data dropping the
    /// skeleton's), so per file this is an upper bound by at most 2 ops.
    fn stream(&mut self, fs: &mut SimFs, t: f64, rank: usize) -> SimResult<(f64, &mut Stream)> {
        if !self.streams.contains_key(&rank) {
            let hd = self.hostdir(rank);
            let hd_path = format!("{}/hostdir.{hd}", self.path);
            let mut c = t;
            // Rare fallback (containers opened without create): make the
            // hostdir on first use.
            if !self.hostdirs_made.contains(&hd) {
                c = match fs.mkdir(c, &hd_path) {
                    Ok(done) => done,
                    Err(simfs::SimError::Exists(_)) => c,
                    Err(e) => return Err(e),
                };
                self.hostdirs_made.insert(hd);
            }
            // Droppings are ordinary files: they stripe at the file
            // system's default width (GPFS stripes everything; Lustre uses
            // its default stripe count). Both creates are issued
            // concurrently at the caller's clock.
            let (c1, data) = fs.create(c, &format!("{hd_path}/dropping.data.{rank}"), None)?;
            let (c2b, index) = fs.create(c, &format!("{hd_path}/dropping.index.{rank}"), None)?;
            let c2 = c1.max(c2b);
            fs.add_writer(data)?;
            self.streams.insert(
                rank,
                Stream {
                    data,
                    index,
                    cursor: 0,
                    pending_index: 0,
                },
            );
            let s = self.streams.get_mut(&rank).unwrap();
            return Ok((c2, s));
        }
        Ok((t, self.streams.get_mut(&rank).unwrap()))
    }

    /// A PLFS write: append to the rank's data dropping, buffer an index
    /// record. Dropping is created lazily on first write (as real PLFS).
    /// `through` bypasses the client cache (the synchronous FUSE path).
    fn write(&mut self, fs: &mut SimFs, t: f64, req: IoReq) -> SimResult<f64> {
        self.write_opt(fs, t, req, false)
    }

    fn write_opt(&mut self, fs: &mut SimFs, t: f64, req: IoReq, through: bool) -> SimResult<f64> {
        let (t_ready, stream) = self.stream(fs, t, req.rank)?;
        let cursor = stream.cursor;
        stream.cursor += req.len;
        stream.pending_index += plfs::index::RECORD_SIZE as u64;
        let data = stream.data;
        let c = if through {
            fs.write_through(t_ready, req.node, data, cursor, req.len)?
        } else {
            fs.write(t_ready, req.node, data, cursor, req.len)?
        };
        self.logical_eof = self.logical_eof.max(req.offset + req.len);
        Ok(c)
    }

    /// A PLFS read. N-N re-reads hit the rank's own dropping (the common
    /// checkpoint-restart pattern and the paper's read benchmark); reads of
    /// regions written by other ranks land on their droppings — modelled by
    /// reading from the dropping owning the *offset*'s writer if known,
    /// falling back to the local stream.
    fn read(&mut self, fs: &mut SimFs, t: f64, req: IoReq) -> SimResult<f64> {
        // Find any stream (prefer own) to charge the read against; the
        // timing difference between droppings is placement, which is
        // round-robin anyway.
        let fid = match self.streams.get(&req.rank) {
            Some(s) => s.data,
            None => match self.streams.values().next() {
                Some(s) => s.data,
                None => return Ok(t), // nothing written yet: zero-fill
            },
        };
        fs.read(
            t,
            req.node,
            fid,
            req.offset.min(self.stream_size(fs, fid)),
            req.len,
        )
    }

    fn stream_size(&self, fs: &SimFs, fid: FileId) -> u64 {
        fs.size_of(fid).unwrap_or(0)
    }

    /// Close: flush each closing rank's buffered index (one append) and
    /// drop a metadata entry into the container directory (one create per
    /// node, as real PLFS does per host).
    fn close_rank(
        &mut self,
        fs: &mut SimFs,
        t: f64,
        rank: usize,
        node: usize,
        drop_meta: bool,
    ) -> SimResult<f64> {
        let mut c = t;
        if let Some(stream) = self.streams.get_mut(&rank) {
            let pending = stream.pending_index;
            let index = stream.index;
            let data = stream.data;
            stream.pending_index = 0;
            if pending > 0 {
                c = fs.write(c, node, index, 0, pending)?;
            }
            c = fs.close(c, node, data, true, true)?;
        }
        if drop_meta {
            // Re-closes (restart phases) overwrite the node's meta drop.
            match fs.create(c, &format!("{}/meta.{rank}", self.path), Some(1)) {
                Ok((c2, _)) => c = c2,
                Err(simfs::SimError::Exists(_)) => {
                    c = fs.stat(c, &format!("{}/meta.{rank}", self.path))?.0;
                }
                Err(e) => return Err(e),
            }
        }
        Ok(c)
    }
}

/// Shared open/close/IO logic for the three PLFS-backed drivers;
/// `per_op_overhead` is the client-side constant each path adds.
fn plfs_open(
    container: &mut PlfsContainer,
    fs: &mut SimFs,
    path: &str,
    create: bool,
    ranks: &[(usize, usize, f64)],
    per_rank_open_cost: f64,
) -> SimResult<Vec<f64>> {
    container.path = path.to_string();
    // Phase 1: every client looks the container up concurrently (rank 0
    // creates the skeleton).
    let mut lookups = Vec::with_capacity(ranks.len());
    for (i, &(_rank, _node, t)) in ranks.iter().enumerate() {
        let t = t + per_rank_open_cost;
        let c = if i == 0 && create && !container.created && !fs.exists(path) {
            container.create_skeleton(fs, t)?
        } else {
            // Non-creating ranks stat the container (access-file lookup).
            fs.stat(t, path).map(|(c, _)| c).unwrap_or(t)
        };
        lookups.push(c);
    }
    if !create {
        return Ok(lookups);
    }
    // Phase 2: every opener sets up its write stream — the dropping-pair
    // create storm. All clients issue these concurrently as their lookups
    // return; on a dedicated MDS the backlog is what degrades service
    // (Fig 5). Applications that do not time MPI_File_open (BT) never see
    // this in their reported bandwidth.
    let mut out = Vec::with_capacity(ranks.len());
    for (i, &(rank, _node, _t)) in ranks.iter().enumerate() {
        let (ready, _) = container.stream(fs, lookups[i], rank)?;
        out.push(ready);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// ROMIO PLFS driver.
// ---------------------------------------------------------------------------

/// The patched-ROMIO PLFS ADIO driver.
pub struct PlfsRomioDriver {
    container: PlfsContainer,
    /// Client-side ADIO bookkeeping per operation (s).
    pub per_op_overhead: f64,
}

impl PlfsRomioDriver {
    /// Driver over a container with `num_hostdirs` subdirectories.
    pub fn new(num_hostdirs: u32) -> PlfsRomioDriver {
        PlfsRomioDriver {
            container: PlfsContainer::new(num_hostdirs),
            per_op_overhead: 3.0e-6,
        }
    }
}

impl AdioDriver for PlfsRomioDriver {
    fn open(
        &mut self,
        fs: &mut SimFs,
        path: &str,
        create: bool,
        ranks: &[(usize, usize, f64)],
    ) -> SimResult<Vec<f64>> {
        plfs_open(
            &mut self.container,
            fs,
            path,
            create,
            ranks,
            self.per_op_overhead,
        )
    }

    fn write_at(&mut self, fs: &mut SimFs, t: f64, req: IoReq) -> SimResult<f64> {
        self.container.write(fs, t + self.per_op_overhead, req)
    }

    fn read_at(&mut self, fs: &mut SimFs, t: f64, req: IoReq) -> SimResult<f64> {
        self.container.read(fs, t + self.per_op_overhead, req)
    }

    fn close(&mut self, fs: &mut SimFs, ranks: &[(usize, usize, f64)]) -> SimResult<Vec<f64>> {
        let mut out = Vec::with_capacity(ranks.len());
        let mut seen_nodes = std::collections::HashSet::new();
        for &(rank, node, t) in ranks {
            let meta = seen_nodes.insert(node);
            out.push(self.container.close_rank(fs, t, rank, node, meta)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// LDPLFS driver.
// ---------------------------------------------------------------------------

/// PLFS reached through the LDPLFS shim: same container, plus the shim's
/// bookkeeping (fd-table lookup, two `lseek`s on the reserved descriptor)
/// and a scratch-file open per rank at open time. The costs are those of
/// the paper's C library, whose cursor is the reserved fd's file offset;
/// `ldplfs::open` makes neither call.
pub struct LdplfsDriver {
    container: PlfsContainer,
    /// Shim bookkeeping per operation (s): hash lookup + 2 local lseeks.
    pub per_op_overhead: f64,
    /// One-time scratch open cost per rank (s).
    pub scratch_open_cost: f64,
}

impl LdplfsDriver {
    /// Driver over a container with `num_hostdirs` subdirectories.
    pub fn new(num_hostdirs: u32) -> LdplfsDriver {
        LdplfsDriver {
            container: PlfsContainer::new(num_hostdirs),
            // Slightly cheaper than the ROMIO ADIO layer, matching the
            // paper's observation that LDPLFS occasionally edges it out.
            per_op_overhead: 2.5e-6,
            scratch_open_cost: 10.0e-6,
        }
    }
}

impl AdioDriver for LdplfsDriver {
    fn open(
        &mut self,
        fs: &mut SimFs,
        path: &str,
        create: bool,
        ranks: &[(usize, usize, f64)],
    ) -> SimResult<Vec<f64>> {
        plfs_open(
            &mut self.container,
            fs,
            path,
            create,
            ranks,
            self.per_op_overhead + self.scratch_open_cost,
        )
    }

    fn write_at(&mut self, fs: &mut SimFs, t: f64, req: IoReq) -> SimResult<f64> {
        self.container.write(fs, t + self.per_op_overhead, req)
    }

    fn read_at(&mut self, fs: &mut SimFs, t: f64, req: IoReq) -> SimResult<f64> {
        self.container.read(fs, t + self.per_op_overhead, req)
    }

    fn close(&mut self, fs: &mut SimFs, ranks: &[(usize, usize, f64)]) -> SimResult<Vec<f64>> {
        let mut out = Vec::with_capacity(ranks.len());
        let mut seen_nodes = std::collections::HashSet::new();
        for &(rank, node, t) in ranks {
            let meta = seen_nodes.insert(node);
            out.push(self.container.close_rank(fs, t, rank, node, meta)?);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// FUSE driver.
// ---------------------------------------------------------------------------

/// Kernel FUSE requests kept in flight per file (background writeback).
const FUSE_QUEUE_DEPTH: usize = 8;

/// PLFS behind the FUSE kernel module: requests are chopped to the kernel's
/// FUSE transfer size and funnelled through one user-space daemon per node,
/// paying context-switch, copy, and — dominantly — per-small-request server
/// latency costs. The shallow kernel queue and small RPCs are where the
/// paper's ~2× FUSE deficit comes from.
pub struct FuseDriver {
    container: PlfsContainer,
    /// Kernel FUSE request granularity (bytes).
    pub request_size: u64,
    /// Two context switches plus request dispatch per FUSE request (s).
    pub crossing_cost: f64,
    /// Daemon copy bandwidth (bytes/s) — the extra user⇄kernel copy.
    pub daemon_bw: f64,
    daemons: std::collections::HashMap<usize, simfs::SingleQueue>,
}

impl FuseDriver {
    /// Driver over a container with `num_hostdirs` subdirectories.
    pub fn new(num_hostdirs: u32) -> FuseDriver {
        FuseDriver {
            container: PlfsContainer::new(num_hostdirs),
            request_size: 64 << 10,
            crossing_cost: 12.0e-6,
            daemon_bw: 600.0e6,
            daemons: std::collections::HashMap::new(),
        }
    }

    /// Pass a transfer through the node's FUSE daemon; returns when the
    /// daemon has absorbed it (requests then continue to PLFS).
    fn daemon(&mut self, node: usize, t: f64, len: u64) -> f64 {
        let reqs = len.div_ceil(self.request_size.max(1));
        let service = reqs as f64 * self.crossing_cost + len as f64 / self.daemon_bw;
        self.daemons.entry(node).or_default().serve(t, service)
    }
}

impl AdioDriver for FuseDriver {
    fn open(
        &mut self,
        fs: &mut SimFs,
        path: &str,
        create: bool,
        ranks: &[(usize, usize, f64)],
    ) -> SimResult<Vec<f64>> {
        plfs_open(
            &mut self.container,
            fs,
            path,
            create,
            ranks,
            self.crossing_cost,
        )
    }

    fn write_at(&mut self, fs: &mut SimFs, t: f64, req: IoReq) -> SimResult<f64> {
        let t1 = self.daemon(req.node, t, req.len);
        // The daemon issues PLFS writes in FUSE-request units: the backend
        // sees many small ops (each paying full per-request latency) with
        // the kernel keeping a few requests in flight.
        let mut window: std::collections::VecDeque<f64> =
            std::collections::VecDeque::with_capacity(FUSE_QUEUE_DEPTH);
        window.push_back(t1);
        let mut done = t1;
        let mut remaining = req.len;
        let mut off = req.offset;
        while remaining > 0 {
            let piece = remaining.min(self.request_size);
            let issue = if window.len() >= FUSE_QUEUE_DEPTH {
                window.pop_front().unwrap()
            } else {
                *window.front().unwrap()
            };
            // Synchronous per-request semantics: no client write-back cache.
            let c = self.container.write_opt(
                fs,
                issue,
                IoReq {
                    offset: off,
                    len: piece,
                    ..req
                },
                true,
            )?;
            window.push_back(c);
            done = done.max(c);
            off += piece;
            remaining -= piece;
        }
        Ok(done)
    }

    fn read_at(&mut self, fs: &mut SimFs, t: f64, req: IoReq) -> SimResult<f64> {
        let t1 = self.daemon(req.node, t, req.len);
        let mut window: std::collections::VecDeque<f64> =
            std::collections::VecDeque::with_capacity(FUSE_QUEUE_DEPTH);
        window.push_back(t1);
        let mut done = t1;
        let mut remaining = req.len;
        let mut off = req.offset;
        while remaining > 0 {
            let piece = remaining.min(self.request_size);
            let issue = if window.len() >= FUSE_QUEUE_DEPTH {
                window.pop_front().unwrap()
            } else {
                *window.front().unwrap()
            };
            let c = self.container.read(
                fs,
                issue,
                IoReq {
                    offset: off,
                    len: piece,
                    ..req
                },
            )?;
            window.push_back(c);
            done = done.max(c);
            off += piece;
            remaining -= piece;
        }
        Ok(done)
    }

    fn close(&mut self, fs: &mut SimFs, ranks: &[(usize, usize, f64)]) -> SimResult<Vec<f64>> {
        let mut out = Vec::with_capacity(ranks.len());
        let mut seen_nodes = std::collections::HashSet::new();
        for &(rank, node, t) in ranks {
            let meta = seen_nodes.insert(node);
            out.push(self.container.close_rank(fs, t, rank, node, meta)?);
        }
        Ok(out)
    }
}

/// Which of the four methods to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Plain MPI-IO on the shared file.
    MpiIo,
    /// PLFS via the patched ROMIO driver.
    Romio,
    /// PLFS via the LDPLFS shim.
    Ldplfs,
    /// PLFS via the FUSE mount.
    Fuse,
}

impl Method {
    /// All four, in the paper's legend order.
    pub const ALL: [Method; 4] = [Method::MpiIo, Method::Fuse, Method::Romio, Method::Ldplfs];

    /// Display name matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            Method::MpiIo => "MPI-IO",
            Method::Fuse => "FUSE",
            Method::Romio => "ROMIO",
            Method::Ldplfs => "LDPLFS",
        }
    }

    /// Instantiate the driver.
    pub fn driver(self, num_hostdirs: u32) -> Box<dyn AdioDriver> {
        match self {
            Method::MpiIo => Box::new(UfsDriver::new()),
            Method::Romio => Box::new(PlfsRomioDriver::new(num_hostdirs)),
            Method::Ldplfs => Box::new(LdplfsDriver::new(num_hostdirs)),
            Method::Fuse => Box::new(FuseDriver::new(num_hostdirs)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::presets;

    fn fs() -> SimFs {
        SimFs::new(presets::toy())
    }

    fn ranks(n: usize, ppn: usize) -> Vec<(usize, usize, f64)> {
        (0..n).map(|r| (r, r / ppn, 0.0)).collect()
    }

    const MIB: u64 = 1 << 20;

    #[test]
    fn ufs_shares_one_file() {
        let mut fs = fs();
        let mut d = UfsDriver::new();
        d.open(&mut fs, "/shared", true, &ranks(4, 2)).unwrap();
        // Two ranks on different nodes write: extent locks contend.
        let mut c = 0.0f64;
        for (rank, node) in [(0usize, 0usize), (2, 1), (0, 0), (2, 1)] {
            c = d
                .write_at(
                    &mut fs,
                    0.0,
                    IoReq {
                        rank,
                        node,
                        offset: rank as u64 * MIB,
                        len: MIB,
                        access: Access::Contiguous,
                    },
                )
                .unwrap();
        }
        assert!(c > 0.0);
        assert!(fs.exists("/shared"));
        let s = fs.stats();
        assert_eq!(s.bytes_written, 4 * MIB);
        // Multiple writing nodes on one file: lock conflicts counted.
        assert!(s.lock_conflicts > 0);
    }

    #[test]
    fn ufs_sieving_amplifies_strided_writes() {
        let bytes_moved = |access: Access| -> u64 {
            let mut fs = fs();
            let mut d = UfsDriver::new();
            d.open(&mut fs, "/f", true, &ranks(1, 1)).unwrap();
            d.write_at(
                &mut fs,
                0.0,
                IoReq {
                    rank: 0,
                    node: 0,
                    offset: 0,
                    len: 64 << 10,
                    access,
                },
            )
            .unwrap();
            fs.stats().bytes_written + fs.stats().bytes_read
        };
        let (contiguous, strided) = (
            bytes_moved(Access::Contiguous),
            bytes_moved(Access::Strided),
        );
        assert_eq!(contiguous, 64 << 10);
        assert_eq!(
            strided,
            2 * SIEVE_BUFFER,
            "a strided extent reads and writes back the sieve buffer"
        );
    }

    /// The skeleton's second op follows the library: the creator's data
    /// dropping at its hostdir count, the access file at another.
    #[test]
    fn the_skeleton_is_marked_as_the_library_marks_it() {
        for (hostdirs, marker, other) in [
            (32, "dropping.data.creator.0", ".plfsaccess"),
            (4, ".plfsaccess", "dropping.data.creator.0"),
        ] {
            let mut fs = fs();
            let mut d = PlfsRomioDriver::new(hostdirs);
            d.open(&mut fs, "/ckpt", true, &ranks(2, 2)).unwrap();
            assert!(fs.exists(&format!("/ckpt/{marker}")), "{hostdirs}");
            assert!(!fs.exists(&format!("/ckpt/{other}")), "{hostdirs}");
        }
    }

    #[test]
    fn plfs_creates_droppings_per_rank() {
        let mut fs = fs();
        let mut d = PlfsRomioDriver::new(4);
        let r = ranks(4, 2);
        d.open(&mut fs, "/ckpt", true, &r).unwrap();
        for rank in 0..4usize {
            d.write_at(
                &mut fs,
                0.1,
                IoReq {
                    rank,
                    node: rank / 2,
                    offset: rank as u64 * MIB,
                    len: MIB,
                    access: Access::Contiguous,
                },
            )
            .unwrap();
        }
        // Container skeleton + 4 data + 4 index droppings exist.
        assert!(fs.exists("/ckpt/.plfsaccess"));
        let meta_before_close = fs.stats().meta_ops;
        assert!(meta_before_close >= 8, "per-rank dropping creates hit MDS");
        d.close(&mut fs, &r).unwrap();
    }

    #[test]
    fn plfs_writes_do_not_conflict_on_locks() {
        let mut fs = fs();
        let mut d = PlfsRomioDriver::new(4);
        let r = ranks(4, 2);
        d.open(&mut fs, "/ckpt", true, &r).unwrap();
        for rank in 0..4usize {
            d.write_at(
                &mut fs,
                0.1,
                IoReq {
                    rank,
                    node: rank / 2,
                    offset: rank as u64 * 8 * MIB,
                    len: 8 * MIB,
                    access: Access::Strided,
                },
            )
            .unwrap();
        }
        assert_eq!(fs.stats().lock_conflicts, 0, "unique files: no contention");
    }

    #[test]
    fn ldplfs_tracks_romio_closely() {
        let run = |method: Method| -> f64 {
            let mut fs = fs();
            let mut d = method.driver(4);
            let r = ranks(4, 2);
            d.open(&mut fs, "/ckpt", true, &r).unwrap();
            let mut done: f64 = 0.0;
            for rank in 0..4usize {
                let c = d
                    .write_at(
                        &mut fs,
                        0.1,
                        IoReq {
                            rank,
                            node: rank / 2,
                            offset: rank as u64 * 8 * MIB,
                            len: 8 * MIB,
                            access: Access::Contiguous,
                        },
                    )
                    .unwrap();
                done = done.max(c);
            }
            done
        };
        let romio = run(Method::Romio);
        let ldplfs = run(Method::Ldplfs);
        let ratio = ldplfs / romio;
        assert!(
            (0.95..1.05).contains(&ratio),
            "LDPLFS should be within 5% of ROMIO: {ratio}"
        );
    }

    #[test]
    fn fuse_is_slower_than_romio() {
        let run = |method: Method| -> f64 {
            let mut fs = fs();
            let mut d = method.driver(4);
            let r = ranks(2, 2);
            d.open(&mut fs, "/ckpt", true, &r).unwrap();
            let mut done: f64 = 0.0;
            for rank in 0..2usize {
                let c = d
                    .write_at(
                        &mut fs,
                        0.1,
                        IoReq {
                            rank,
                            node: 0,
                            offset: rank as u64 * 8 * MIB,
                            len: 8 * MIB,
                            access: Access::Contiguous,
                        },
                    )
                    .unwrap();
                done = done.max(c);
            }
            done
        };
        assert!(run(Method::Fuse) > run(Method::Romio) * 1.2);
    }

    #[test]
    fn method_labels_match_paper_legends() {
        assert_eq!(Method::MpiIo.label(), "MPI-IO");
        assert_eq!(Method::Fuse.label(), "FUSE");
        assert_eq!(Method::Romio.label(), "ROMIO");
        assert_eq!(Method::Ldplfs.label(), "LDPLFS");
        assert_eq!(Method::ALL.len(), 4);
    }
}
