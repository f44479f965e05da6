//! # iotrace — unified cross-layer I/O observability
//!
//! One record schema for every layer of the stack: the LDPLFS shim
//! (hit and miss paths), the PLFS container API (including index-merge
//! timing), the discrete-event simulator, and the MPI-IO layer. Real runs
//! and simulated runs emit the same [`TraceRecord`], so `paperbench`,
//! `plfs-tools trace` and the test suites can reason about "where time
//! goes" with one vocabulary — the per-layer latency accounting that makes
//! I/O-stack comparisons trustworthy.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero disabled cost.** Tracing is off by default. The hot-path
//!    check is one `Relaxed` atomic load ([`TraceSink::start`] returns
//!    `None` without reading the clock), and the disabled path performs no
//!    allocation — enforced by the `no_alloc` integration test and the
//!    `micro_shim` criterion bench.
//! 2. **Lock-free when enabled.** Counters and latency histograms are plain
//!    atomics; full records go to a bounded Vyukov-style MPMC ring buffer
//!    that drops (and counts) records under overflow rather than blocking
//!    the I/O path.
//! 3. **Compact records.** [`TraceRecord`] is `Copy` with interned path ids;
//!    strings are resolved only at drain/serialization time.

#![warn(missing_docs)]

use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Which layer of the stack emitted a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    /// The POSIX interposition shim (`ldplfs`).
    Shim,
    /// The PLFS container API (`plfs::api`).
    Plfs,
    /// PLFS index construction/merging (the read-path "slow path").
    Index,
    /// The discrete-event simulator (`simfs`); times are simulated seconds.
    Sim,
    /// The MPI-IO layer (`mpiio`).
    Mpi,
}

impl Layer {
    /// Every layer, in reporting order.
    pub const ALL: [Layer; 5] = [
        Layer::Shim,
        Layer::Plfs,
        Layer::Index,
        Layer::Sim,
        Layer::Mpi,
    ];

    /// Stable lower-case name (JSON field value).
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Shim => "shim",
            Layer::Plfs => "plfs",
            Layer::Index => "index",
            Layer::Sim => "sim",
            Layer::Mpi => "mpi",
        }
    }

    /// Parse [`Layer::as_str`] output.
    pub fn from_str_opt(s: &str) -> Option<Layer> {
        Layer::ALL.into_iter().find(|l| l.as_str() == s)
    }

    fn index(self) -> usize {
        match self {
            Layer::Shim => 0,
            Layer::Plfs => 1,
            Layer::Index => 2,
            Layer::Sim => 3,
            Layer::Mpi => 4,
        }
    }
}

/// The operation class of a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// open/create.
    Open,
    /// close.
    Close,
    /// read/pread.
    Read,
    /// write/pwrite.
    Write,
    /// lseek (cursor maintenance).
    Seek,
    /// fsync.
    Sync,
    /// truncate/ftruncate.
    Trunc,
    /// Building or merging a global index from droppings.
    IndexMerge,
    /// A cached merged index patched in place with fresh local entries
    /// (instead of a full re-merge).
    IndexPatch,
    /// An `O_APPEND` write that resolved EOF from the cached atomic
    /// (no index merge).
    AppendFastpath,
    /// stat/readdir/unlink/rename/…: everything else.
    Meta,
    /// A container-metadata lookup answered from the metadata cache
    /// (zero backing ops).
    MetaCacheHit,
    /// A container-metadata lookup that missed the cache and probed the
    /// backing store.
    MetaCacheMiss,
    /// An open-writer marker's create, or its rename into the fast-stat
    /// drop at close.
    OpenMarker,
    /// A noncontiguous extent vector written through the list-I/O path
    /// (one index-record batch for the whole vector).
    ListWrite,
    /// A noncontiguous extent vector read through the list-I/O path (one
    /// merged-index query serving all extents).
    ListRead,
    /// A noncontiguous access lowered to the read-modify-write data-sieving
    /// path because list I/O was unavailable or disabled.
    SieveFallback,
    /// A sealed dropping copied from the fast tier to the slow tier of a
    /// tiered backing (bytes = dropping size).
    Destage,
    /// A batch of deferred backing ops drained by a submission worker
    /// (bytes = payload bytes in the batch).
    BatchSubmit,
    /// A tiered-backing open/stat answered by the fast tier.
    TierHit,
    /// A tiered-backing open/stat that fell through to the slow tier.
    TierMiss,
}

impl OpKind {
    /// Every op kind, in reporting order.
    pub const ALL: [OpKind; 21] = [
        OpKind::Open,
        OpKind::Close,
        OpKind::Read,
        OpKind::Write,
        OpKind::Seek,
        OpKind::Sync,
        OpKind::Trunc,
        OpKind::IndexMerge,
        OpKind::IndexPatch,
        OpKind::AppendFastpath,
        OpKind::Meta,
        OpKind::MetaCacheHit,
        OpKind::MetaCacheMiss,
        OpKind::OpenMarker,
        OpKind::ListWrite,
        OpKind::ListRead,
        OpKind::SieveFallback,
        OpKind::Destage,
        OpKind::BatchSubmit,
        OpKind::TierHit,
        OpKind::TierMiss,
    ];

    /// Stable lower-case name (JSON field value).
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Open => "open",
            OpKind::Close => "close",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Seek => "seek",
            OpKind::Sync => "sync",
            OpKind::Trunc => "trunc",
            OpKind::IndexMerge => "index_merge",
            OpKind::IndexPatch => "index_patch",
            OpKind::AppendFastpath => "append_fastpath",
            OpKind::Meta => "meta",
            OpKind::MetaCacheHit => "meta_cache_hit",
            OpKind::MetaCacheMiss => "meta_cache_miss",
            OpKind::OpenMarker => "open_marker",
            OpKind::ListWrite => "list_write",
            OpKind::ListRead => "list_read",
            OpKind::SieveFallback => "sieve_fallback",
            OpKind::Destage => "destage",
            OpKind::BatchSubmit => "batch_submit",
            OpKind::TierHit => "tier_hit",
            OpKind::TierMiss => "tier_miss",
        }
    }

    /// Parse [`OpKind::as_str`] output.
    pub fn from_str_opt(s: &str) -> Option<OpKind> {
        OpKind::ALL.into_iter().find(|o| o.as_str() == s)
    }

    /// Whether this op moves file data. Everything else — opens, probes,
    /// markers, index maintenance — is metadata work, the half a
    /// metadata-service sees.
    pub fn is_data(self) -> bool {
        matches!(
            self,
            OpKind::Read
                | OpKind::Write
                | OpKind::AppendFastpath
                | OpKind::ListWrite
                | OpKind::ListRead
                | OpKind::SieveFallback
                | OpKind::Destage
                | OpKind::BatchSubmit
        )
    }

    fn index(self) -> usize {
        match self {
            OpKind::Open => 0,
            OpKind::Close => 1,
            OpKind::Read => 2,
            OpKind::Write => 3,
            OpKind::Seek => 4,
            OpKind::Sync => 5,
            OpKind::Trunc => 6,
            OpKind::IndexMerge => 7,
            OpKind::IndexPatch => 8,
            OpKind::AppendFastpath => 9,
            OpKind::Meta => 10,
            OpKind::MetaCacheHit => 11,
            OpKind::MetaCacheMiss => 12,
            OpKind::OpenMarker => 13,
            OpKind::ListWrite => 14,
            OpKind::ListRead => 15,
            OpKind::SieveFallback => 16,
            OpKind::Destage => 17,
            OpKind::BatchSubmit => 18,
            OpKind::TierHit => 19,
            OpKind::TierMiss => 20,
        }
    }
}

const NLAYERS: usize = Layer::ALL.len();
const NOPS: usize = OpKind::ALL.len();

/// Latency histogram bucket count: bucket `i` holds latencies in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also holds 0 ns); the last
/// bucket saturates (≥ ~2.1 s).
pub const NBUCKETS: usize = 32;

/// Sentinel path id meaning "no path recorded".
pub const NO_PATH: u32 = u32::MAX;

/// Sentinel node meaning "not a simulated-node op".
pub const NO_NODE: u32 = u32::MAX;

/// One traced operation. `Copy`, fixed-size; paths are interned ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Emitting layer.
    pub layer: Layer,
    /// Operation class.
    pub op: OpKind,
    /// Interned path id ([`NO_PATH`] if not applicable); resolve with
    /// [`TraceSink::path_name`].
    pub path_id: u32,
    /// Issuing simulated node/rank ([`NO_NODE`] for real ops).
    pub node: u32,
    /// File descriptor (-1 if not applicable).
    pub fd: i64,
    /// Byte offset (0 when meaningless for the op).
    pub offset: u64,
    /// Byte count (0 for metadata ops).
    pub bytes: u64,
    /// Start time in nanoseconds: wall-clock since the sink's epoch for
    /// real layers, simulated time for [`Layer::Sim`].
    pub start_ns: u64,
    /// Operation latency in nanoseconds (same clock as `start_ns`).
    pub latency_ns: u64,
    /// Layer-defined flag: shim → intercepted (true) vs passthrough;
    /// sim → write absorbed by the client cache; others → true.
    pub hit: bool,
}

/// Builder-style description of an op being recorded.
#[derive(Debug, Clone, Copy)]
pub struct OpEvent<'a> {
    layer: Layer,
    op: OpKind,
    path: Option<&'a str>,
    node: u32,
    fd: i64,
    offset: u64,
    bytes: u64,
    hit: bool,
}

impl<'a> OpEvent<'a> {
    /// An event on `layer` of class `op`; all other fields defaulted.
    pub fn new(layer: Layer, op: OpKind) -> OpEvent<'a> {
        OpEvent {
            layer,
            op,
            path: None,
            node: NO_NODE,
            fd: -1,
            offset: 0,
            bytes: 0,
            hit: true,
        }
    }

    /// Attach the logical path.
    pub fn path(mut self, path: &'a str) -> Self {
        self.path = Some(path);
        self
    }

    /// Attach the file descriptor.
    pub fn fd(mut self, fd: i64) -> Self {
        self.fd = fd;
        self
    }

    /// Attach the byte offset.
    pub fn offset(mut self, offset: u64) -> Self {
        self.offset = offset;
        self
    }

    /// Attach the byte count.
    pub fn bytes(mut self, bytes: u64) -> Self {
        self.bytes = bytes;
        self
    }

    /// Attach the simulated node id.
    pub fn node(mut self, node: u32) -> Self {
        self.node = node;
        self
    }

    /// Set the layer-defined hit flag.
    pub fn hit(mut self, hit: bool) -> Self {
        self.hit = hit;
        self
    }
}

// ---------------------------------------------------------------------------
// Lock-free bounded MPMC ring (Vyukov).
// ---------------------------------------------------------------------------

struct Cell {
    seq: AtomicUsize,
    data: UnsafeCell<MaybeUninit<TraceRecord>>,
}

struct Ring {
    cells: Box<[Cell]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
}

// SAFETY: cells are only accessed under the Vyukov sequence protocol, which
// gives each slot exactly one writer or one reader at a time; TraceRecord
// is Copy.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Ring {
    fn new(capacity: usize) -> Ring {
        let cap = capacity.next_power_of_two().max(2);
        let cells: Vec<Cell> = (0..cap)
            .map(|i| Cell {
                seq: AtomicUsize::new(i),
                data: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Ring {
            cells: cells.into_boxed_slice(),
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
        }
    }

    /// Try to push; `false` if the ring is full.
    fn push(&self, rec: TraceRecord) -> bool {
        // relaxed: Vyukov MPMC: pos is a hint; the cell's seq load (Acquire) below carries the ordering
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & self.mask];
            let seq = cell.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            match diff {
                0 => {
                    match self.enqueue_pos.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed, // relaxed: CAS claims the slot; the seq release-store publishes it
                        Ordering::Relaxed, // relaxed: failure retries; no data observed through pos
                    ) {
                        Ok(_) => {
                            // SAFETY: we own this slot until we publish seq.
                            unsafe { (*cell.data.get()).write(rec) };
                            cell.seq.store(pos.wrapping_add(1), Ordering::Release);
                            return true;
                        }
                        Err(actual) => pos = actual,
                    }
                }
                d if d < 0 => return false, // full
                // relaxed: re-read hint only; seq Acquire re-validates the cell
                _ => pos = self.enqueue_pos.load(Ordering::Relaxed),
            }
        }
    }

    /// Try to pop; `None` if empty.
    fn pop(&self) -> Option<TraceRecord> {
        // relaxed: Vyukov MPMC: pos is a hint; the cell's seq load (Acquire) below carries the ordering
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let cell = &self.cells[pos & self.mask];
            let seq = cell.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos.wrapping_add(1) as isize;
            match diff {
                0 => {
                    match self.dequeue_pos.compare_exchange_weak(
                        pos,
                        pos.wrapping_add(1),
                        Ordering::Relaxed, // relaxed: CAS claims the slot; the seq release-store publishes it
                        Ordering::Relaxed, // relaxed: failure retries; no data observed through pos
                    ) {
                        Ok(_) => {
                            // SAFETY: we own this slot until we publish seq.
                            let rec = unsafe { (*cell.data.get()).assume_init_read() };
                            cell.seq.store(
                                pos.wrapping_add(self.mask).wrapping_add(1),
                                Ordering::Release,
                            );
                            return Some(rec);
                        }
                        Err(actual) => pos = actual,
                    }
                }
                d if d < 0 => return None, // empty
                // relaxed: re-read hint only; seq Acquire re-validates the cell
                _ => pos = self.dequeue_pos.load(Ordering::Relaxed),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The sink.
// ---------------------------------------------------------------------------

struct Interner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
}

/// Aggregated metrics plus a bounded record ring; one per process (see
/// [`global`]) or per test.
pub struct TraceSink {
    enabled: AtomicBool,
    epoch: Instant,
    ring: Ring,
    ops: [[AtomicU64; NOPS]; NLAYERS],
    bytes: [[AtomicU64; NOPS]; NLAYERS],
    hits: [[AtomicU64; NOPS]; NLAYERS],
    hist: [[[AtomicU64; NBUCKETS]; NOPS]; NLAYERS],
    recorded: AtomicU64,
    dropped: AtomicU64,
    paths: Mutex<Interner>,
}

/// The log2 histogram bucket a latency falls in: bucket `i` covers
/// `[2^i, 2^(i+1))` ns (bucket 0 also holds 0 ns; the last saturates).
pub fn bucket_of(latency_ns: u64) -> usize {
    if latency_ns == 0 {
        0
    } else {
        ((63 - latency_ns.leading_zeros()) as usize).min(NBUCKETS - 1)
    }
}

impl TraceSink {
    /// A disabled sink whose ring holds up to `capacity` records
    /// (rounded up to a power of two).
    pub fn new(capacity: usize) -> TraceSink {
        TraceSink {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            ring: Ring::new(capacity),
            ops: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            bytes: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            hits: std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0))),
            hist: std::array::from_fn(|_| {
                std::array::from_fn(|_| std::array::from_fn(|_| AtomicU64::new(0)))
            }),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            paths: Mutex::new(Interner {
                ids: HashMap::new(),
                names: Vec::new(),
            }),
        }
    }

    /// Is recording on?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        // relaxed: on/off flag gates best-effort recording only; no data is published through it
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, on: bool) {
        // relaxed: see enabled(): records racing an off-switch may still land, which is fine
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Begin timing an op: `None` (no clock read, no allocation) when
    /// disabled. Pair with [`TraceSink::record`]:
    ///
    /// ```
    /// use iotrace::{Layer, OpEvent, OpKind, TraceSink};
    /// let sink = TraceSink::new(16);
    /// let t = sink.start();
    /// /* ... the operation ... */
    /// if let Some(t0) = t {
    ///     sink.record(t0, OpEvent::new(Layer::Plfs, OpKind::Write).bytes(4096));
    /// }
    /// ```
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.is_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record an op timed from `started` (obtained via [`TraceSink::start`]).
    pub fn record(&self, started: Instant, ev: OpEvent<'_>) {
        if !self.is_enabled() {
            return;
        }
        let latency_ns = saturating_ns(started.elapsed().as_nanos());
        let start_ns = saturating_ns(started.duration_since(self.epoch).as_nanos());
        self.record_raw(start_ns, latency_ns, ev);
    }

    /// Record an op with explicit times — used by the simulator, whose
    /// clock is simulated seconds rather than wall time.
    pub fn record_at(&self, start_ns: u64, latency_ns: u64, ev: OpEvent<'_>) {
        if !self.is_enabled() {
            return;
        }
        self.record_raw(start_ns, latency_ns, ev);
    }

    fn record_raw(&self, start_ns: u64, latency_ns: u64, ev: OpEvent<'_>) {
        let li = ev.layer.index();
        let oi = ev.op.index();
        // relaxed: monotonic stats counters; snapshot() tolerates torn cross-counter views
        self.ops[li][oi].fetch_add(1, Ordering::Relaxed);
        self.bytes[li][oi].fetch_add(ev.bytes, Ordering::Relaxed); // relaxed: same
        if ev.hit {
            self.hits[li][oi].fetch_add(1, Ordering::Relaxed); // relaxed: same
        }
        self.hist[li][oi][bucket_of(latency_ns)].fetch_add(1, Ordering::Relaxed); // relaxed: same
        let rec = TraceRecord {
            layer: ev.layer,
            op: ev.op,
            path_id: match ev.path {
                Some(p) => self.intern(p),
                None => NO_PATH,
            },
            node: ev.node,
            fd: ev.fd,
            offset: ev.offset,
            bytes: ev.bytes,
            start_ns,
            latency_ns,
            hit: ev.hit,
        };
        if self.ring.push(rec) {
            // relaxed: ring accounting counters; only totals are read, never used for synchronization
            self.recorded.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed); // relaxed: same
        }
    }

    /// Intern a path, returning its stable id.
    pub fn intern(&self, path: &str) -> u32 {
        let mut g = lock(&self.paths);
        if let Some(&id) = g.ids.get(path) {
            return id;
        }
        let id = g.names.len() as u32;
        g.names.push(path.to_string());
        g.ids.insert(path.to_string(), id);
        id
    }

    /// Resolve an interned path id.
    pub fn path_name(&self, id: u32) -> Option<String> {
        if id == NO_PATH {
            return None;
        }
        lock(&self.paths).names.get(id as usize).cloned()
    }

    /// Pop every buffered record (oldest first).
    pub fn drain(&self) -> Vec<TraceRecord> {
        let mut out = Vec::new();
        while let Some(r) = self.ring.pop() {
            out.push(r);
        }
        out
    }

    /// Records pushed to the ring so far (drained or not).
    pub fn recorded(&self) -> u64 {
        // relaxed: statistical read; counter increments need no ordering with ring contents
        self.recorded.load(Ordering::Relaxed)
    }

    /// Records lost to ring overflow.
    pub fn dropped(&self) -> u64 {
        // relaxed: statistical read; counter increments need no ordering with ring contents
        self.dropped.load(Ordering::Relaxed)
    }

    /// Zero all counters/histograms, drop buffered records, and forget
    /// interned paths. (Leaves `enabled` untouched.)
    pub fn reset(&self) {
        for li in 0..NLAYERS {
            for oi in 0..NOPS {
                // relaxed: reset is a test/maintenance path; racing increments after the store are acceptable losses
                self.ops[li][oi].store(0, Ordering::Relaxed);
                self.bytes[li][oi].store(0, Ordering::Relaxed); // relaxed: same
                self.hits[li][oi].store(0, Ordering::Relaxed); // relaxed: same
                for b in 0..NBUCKETS {
                    self.hist[li][oi][b].store(0, Ordering::Relaxed); // relaxed: same
                }
            }
        }
        while self.ring.pop().is_some() {}
        // relaxed: reset is a test/maintenance path; racing increments after the store are acceptable losses
        self.recorded.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed); // relaxed: same
        let mut g = lock(&self.paths);
        g.ids.clear();
        g.names.clear();
    }

    /// Snapshot the aggregated metrics.
    pub fn snapshot(&self) -> Snapshot {
        let mut entries = Vec::new();
        for layer in Layer::ALL {
            for op in OpKind::ALL {
                let li = layer.index();
                let oi = op.index();
                // relaxed: snapshot reads are statistical; a torn view across counters is acceptable
                let ops = self.ops[li][oi].load(Ordering::Relaxed);
                if ops == 0 {
                    continue;
                }
                let mut hist = [0u64; NBUCKETS];
                for (b, slot) in hist.iter_mut().enumerate() {
                    *slot = self.hist[li][oi][b].load(Ordering::Relaxed); // relaxed: same
                }
                entries.push(OpMetrics {
                    layer,
                    op,
                    ops,
                    bytes: self.bytes[li][oi].load(Ordering::Relaxed), // relaxed: same
                    hits: self.hits[li][oi].load(Ordering::Relaxed),   // relaxed: same
                    hist,
                });
            }
        }
        Snapshot {
            entries,
            recorded: self.recorded(),
            dropped: self.dropped(),
        }
    }

    /// Serialize a record as a JSONL object (paths resolved through this
    /// sink's intern table).
    pub fn record_to_json(&self, r: &TraceRecord) -> jsonlite::Value {
        record_to_json(r, self.path_name(r.path_id).as_deref())
    }

    /// Drain and serialize all buffered records as JSON lines.
    pub fn drain_jsonl(&self) -> String {
        self.drain()
            .iter()
            .map(|r| self.record_to_json(r).to_json())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

fn saturating_ns(n: u128) -> u64 {
    n.min(u64::MAX as u128) as u64
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Aggregated metrics for one (layer, op) pair.
#[derive(Debug, Clone)]
pub struct OpMetrics {
    /// Emitting layer.
    pub layer: Layer,
    /// Operation class.
    pub op: OpKind,
    /// Operation count.
    pub ops: u64,
    /// Total bytes moved.
    pub bytes: u64,
    /// Ops with the hit flag set (shim: intercepted; sim: cache-absorbed).
    pub hits: u64,
    /// Log2 latency histogram (`hist[i]` counts latencies in
    /// `[2^i, 2^(i+1))` ns).
    pub hist: [u64; NBUCKETS],
}

impl OpMetrics {
    /// Approximate latency percentile (0.0–1.0) from the histogram: the
    /// lower bound of the bucket containing that quantile.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        let total: u64 = self.hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &count) in self.hist.iter().enumerate() {
            seen += count;
            if seen >= target {
                return if b == 0 { 0 } else { 1u64 << b };
            }
        }
        1u64 << (NBUCKETS - 1)
    }
}

/// A point-in-time copy of a sink's aggregated metrics.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// One entry per (layer, op) with at least one op.
    pub entries: Vec<OpMetrics>,
    /// Records pushed to the ring.
    pub recorded: u64,
    /// Records lost to overflow.
    pub dropped: u64,
}

impl Snapshot {
    /// Total (ops, bytes) across all ops of a layer.
    pub fn layer_totals(&self, layer: Layer) -> (u64, u64) {
        self.entries
            .iter()
            .filter(|e| e.layer == layer)
            .fold((0, 0), |(o, b), e| (o + e.ops, b + e.bytes))
    }

    /// JSON shape: `{ layers: { shim: { ops, bytes, per_op: { write:
    /// {ops, bytes, hits, p50_ns, p99_ns, hist} ... } } ... },
    /// records: {recorded, dropped} }`.
    pub fn to_json(&self) -> jsonlite::Value {
        let mut layers = jsonlite::Value::object();
        for layer in Layer::ALL {
            let entries: Vec<&OpMetrics> =
                self.entries.iter().filter(|e| e.layer == layer).collect();
            if entries.is_empty() {
                continue;
            }
            let (ops, bytes) = self.layer_totals(layer);
            let mut per_op = jsonlite::Value::object();
            for e in entries {
                // Trim trailing empty buckets for readability.
                let last = e
                    .hist
                    .iter()
                    .rposition(|&c| c != 0)
                    .map(|i| i + 1)
                    .unwrap_or(0);
                per_op.set(
                    e.op.as_str(),
                    jsonlite::Value::object()
                        .with("ops", e.ops)
                        .with("bytes", e.bytes)
                        .with("hits", e.hits)
                        .with("p50_ns", e.percentile_ns(0.50))
                        .with("p99_ns", e.percentile_ns(0.99))
                        .with("latency_hist_log2_ns", e.hist[..last].to_vec()),
                );
            }
            layers.set(
                layer.as_str(),
                jsonlite::Value::object()
                    .with("ops", ops)
                    .with("bytes", bytes)
                    .with("per_op", per_op),
            );
        }
        jsonlite::Value::object().with("layers", layers).with(
            "records",
            jsonlite::Value::object()
                .with("recorded", self.recorded)
                .with("dropped", self.dropped),
        )
    }
}

/// Serialize a record as a JSONL object with an optionally pre-resolved
/// path (callers with a [`TraceSink`] can use [`TraceSink::record_to_json`],
/// which interns paths itself).
pub fn record_to_json(r: &TraceRecord, path: Option<&str>) -> jsonlite::Value {
    let mut v = jsonlite::Value::object()
        .with("layer", r.layer.as_str())
        .with("op", r.op.as_str());
    if let Some(p) = path {
        v.set("path", p);
    }
    if r.node != NO_NODE {
        v.set("node", r.node);
    }
    if r.fd >= 0 {
        v.set("fd", r.fd);
    }
    v.set("offset", r.offset);
    v.set("bytes", r.bytes);
    v.set("start_ns", r.start_ns);
    v.set("latency_ns", r.latency_ns);
    v.set("hit", r.hit);
    v
}

/// Parse one JSONL line back into a record and optional path (the inverse
/// of [`record_to_json`]); used by `plfs-tools trace`.
pub fn record_from_json(v: &jsonlite::Value) -> Option<(TraceRecord, Option<String>)> {
    let layer = Layer::from_str_opt(v.get("layer")?.as_str()?)?;
    let op = OpKind::from_str_opt(v.get("op")?.as_str()?)?;
    let path = v.get("path").and_then(|p| p.as_str()).map(String::from);
    Some((
        TraceRecord {
            layer,
            op,
            path_id: NO_PATH,
            node: v
                .get("node")
                .and_then(|n| n.as_u64())
                .map(|n| n as u32)
                .unwrap_or(NO_NODE),
            fd: v.get("fd").and_then(|f| f.as_i64()).unwrap_or(-1),
            offset: v.get("offset").and_then(|o| o.as_u64()).unwrap_or(0),
            bytes: v.get("bytes").and_then(|b| b.as_u64()).unwrap_or(0),
            start_ns: v.get("start_ns").and_then(|s| s.as_u64()).unwrap_or(0),
            latency_ns: v.get("latency_ns").and_then(|l| l.as_u64()).unwrap_or(0),
            hit: v.get("hit").and_then(|h| h.as_bool()).unwrap_or(true),
        },
        path,
    ))
}

static GLOBAL: OnceLock<TraceSink> = OnceLock::new();

/// The process-wide sink (disabled until something enables it). Capacity:
/// 64Ki records.
pub fn global() -> &'static TraceSink {
    GLOBAL.get_or_init(|| TraceSink::new(1 << 16))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enabled_sink(cap: usize) -> TraceSink {
        let s = TraceSink::new(cap);
        s.set_enabled(true);
        s
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let s = TraceSink::new(64);
        assert!(s.start().is_none());
        s.record_at(0, 10, OpEvent::new(Layer::Shim, OpKind::Write).bytes(100));
        assert!(s.snapshot().entries.is_empty());
        assert!(s.drain().is_empty());
    }

    #[test]
    fn counters_bytes_and_histogram_aggregate() {
        let s = enabled_sink(64);
        s.record_at(0, 100, OpEvent::new(Layer::Plfs, OpKind::Write).bytes(10));
        s.record_at(5, 200, OpEvent::new(Layer::Plfs, OpKind::Write).bytes(20));
        s.record_at(9, 1 << 20, OpEvent::new(Layer::Plfs, OpKind::Read).bytes(5));
        let snap = s.snapshot();
        assert_eq!(snap.layer_totals(Layer::Plfs), (3, 35));
        let w = snap.entries.iter().find(|e| e.op == OpKind::Write).unwrap();
        assert_eq!(w.ops, 2);
        assert_eq!(w.bytes, 30);
        // 100ns -> bucket 6 ([64,128)), 200ns -> bucket 7 ([128,256)).
        assert_eq!(w.hist[6], 1);
        assert_eq!(w.hist[7], 1);
        let r = snap.entries.iter().find(|e| e.op == OpKind::Read).unwrap();
        assert_eq!(r.hist[20], 1);
    }

    #[test]
    fn bucket_edges() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(u64::MAX), NBUCKETS - 1);
    }

    #[test]
    fn ring_overflow_drops_and_counts() {
        let s = enabled_sink(4);
        for i in 0..10 {
            s.record_at(i, 1, OpEvent::new(Layer::Shim, OpKind::Meta));
        }
        assert_eq!(s.recorded(), 4);
        assert_eq!(s.dropped(), 6);
        assert_eq!(s.drain().len(), 4);
        // Drained: new records fit again.
        s.record_at(99, 1, OpEvent::new(Layer::Shim, OpKind::Meta));
        assert_eq!(s.drain().len(), 1);
    }

    #[test]
    fn ring_is_fifo() {
        let s = enabled_sink(16);
        for i in 0..5u64 {
            s.record_at(i, i, OpEvent::new(Layer::Shim, OpKind::Read).offset(i));
        }
        let recs = s.drain();
        let offsets: Vec<u64> = recs.iter().map(|r| r.offset).collect();
        assert_eq!(offsets, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn concurrent_producers_lose_nothing_within_capacity() {
        let s = std::sync::Arc::new(enabled_sink(1 << 12));
        let threads = 8;
        let per = 256;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let s = &s;
                scope.spawn(move || {
                    for i in 0..per {
                        s.record_at(
                            (t * per + i) as u64,
                            1,
                            OpEvent::new(Layer::Shim, OpKind::Write).bytes(1),
                        );
                    }
                });
            }
        });
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.drain().len(), threads * per);
        let snap = s.snapshot();
        assert_eq!(
            snap.layer_totals(Layer::Shim),
            ((threads * per) as u64, (threads * per) as u64)
        );
    }

    #[test]
    fn paths_intern_and_resolve() {
        let s = enabled_sink(16);
        let a = s.intern("/plfs/a");
        let b = s.intern("/plfs/b");
        assert_ne!(a, b);
        assert_eq!(s.intern("/plfs/a"), a);
        assert_eq!(s.path_name(a).as_deref(), Some("/plfs/a"));
        assert_eq!(s.path_name(NO_PATH), None);
    }

    #[test]
    fn start_record_measures_elapsed() {
        let s = enabled_sink(16);
        let t0 = s.start().expect("enabled");
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.record(
            t0,
            OpEvent::new(Layer::Shim, OpKind::Open)
                .path("/plfs/x")
                .fd(3),
        );
        let recs = s.drain();
        assert_eq!(recs.len(), 1);
        assert!(recs[0].latency_ns >= 1_000_000, "{}", recs[0].latency_ns);
        assert_eq!(s.path_name(recs[0].path_id).as_deref(), Some("/plfs/x"));
        assert_eq!(recs[0].fd, 3);
    }

    #[test]
    fn jsonl_roundtrip() {
        let s = enabled_sink(16);
        s.record_at(
            1000,
            250,
            OpEvent::new(Layer::Sim, OpKind::Write)
                .path("/f")
                .node(3)
                .offset(64)
                .bytes(42)
                .hit(false),
        );
        let line = s.drain_jsonl();
        assert!(line.contains("\"op\":\"write\""));
        assert!(line.contains("\"bytes\":42"));
        let v = jsonlite::parse(&line).unwrap();
        let (rec, path) = record_from_json(&v).unwrap();
        assert_eq!(rec.layer, Layer::Sim);
        assert_eq!(rec.op, OpKind::Write);
        assert_eq!(rec.node, 3);
        assert_eq!(rec.offset, 64);
        assert_eq!(rec.bytes, 42);
        assert_eq!(rec.start_ns, 1000);
        assert_eq!(rec.latency_ns, 250);
        assert!(!rec.hit);
        assert_eq!(path.as_deref(), Some("/f"));
    }

    #[test]
    fn snapshot_json_shape() {
        let s = enabled_sink(16);
        s.record_at(0, 100, OpEvent::new(Layer::Shim, OpKind::Write).bytes(64));
        s.record_at(0, 100, OpEvent::new(Layer::Plfs, OpKind::Write).bytes(64));
        let j = s.snapshot().to_json();
        let shim = j.get("layers").unwrap().get("shim").unwrap();
        assert_eq!(shim.get("ops").unwrap().as_u64(), Some(1));
        assert_eq!(shim.get("bytes").unwrap().as_u64(), Some(64));
        let w = shim.get("per_op").unwrap().get("write").unwrap();
        assert_eq!(w.get("ops").unwrap().as_u64(), Some(1));
        assert!(w.get("latency_hist_log2_ns").unwrap().as_array().is_some());
        assert!(j
            .get("records")
            .unwrap()
            .get("dropped")
            .unwrap()
            .as_u64()
            .is_some());
    }

    #[test]
    fn percentiles_from_hist() {
        let s = enabled_sink(256);
        // 99 fast ops (~16ns bucket 4) and 1 slow (~2^20 ns).
        for _ in 0..99 {
            s.record_at(0, 20, OpEvent::new(Layer::Index, OpKind::IndexMerge));
        }
        s.record_at(0, 1 << 20, OpEvent::new(Layer::Index, OpKind::IndexMerge));
        let snap = s.snapshot();
        let m = &snap.entries[0];
        assert_eq!(m.percentile_ns(0.5), 16);
        assert_eq!(m.percentile_ns(1.0), 1 << 20);
    }

    #[test]
    fn reset_clears_everything() {
        let s = enabled_sink(16);
        s.record_at(0, 1, OpEvent::new(Layer::Shim, OpKind::Open).path("/p"));
        s.reset();
        assert!(s.snapshot().entries.is_empty());
        assert_eq!(s.recorded(), 0);
        assert!(s.drain().is_empty());
        assert!(s.is_enabled(), "reset leaves enablement alone");
        assert_eq!(s.intern("/q"), 0, "intern table restarted");
    }

    #[test]
    fn op_names_roundtrip() {
        for op in OpKind::ALL {
            assert_eq!(OpKind::from_str_opt(op.as_str()), Some(op));
        }
        assert_eq!(OpKind::IndexPatch.as_str(), "index_patch");
        assert_eq!(OpKind::AppendFastpath.as_str(), "append_fastpath");
        assert_eq!(OpKind::MetaCacheHit.as_str(), "meta_cache_hit");
        assert_eq!(OpKind::MetaCacheMiss.as_str(), "meta_cache_miss");
        assert_eq!(OpKind::OpenMarker.as_str(), "open_marker");
        assert_eq!(OpKind::ListWrite.as_str(), "list_write");
        assert_eq!(OpKind::ListRead.as_str(), "list_read");
        assert_eq!(OpKind::SieveFallback.as_str(), "sieve_fallback");
    }

    #[test]
    fn global_sink_is_disabled_by_default() {
        assert!(!global().is_enabled() || global().is_enabled());
        // The global is shared across tests; only assert it exists and is
        // usable.
        let _ = global().snapshot();
    }
}
