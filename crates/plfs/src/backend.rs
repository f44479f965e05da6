//! Pluggable scale-out backends behind the [`Backing`] seam.
//!
//! Two layers, composable and individually optional:
//!
//! * [`BatchedBacking`] — an async/batched submission layer: deferred data
//!   writes flow through a bounded queue drained by a small worker pool, so
//!   one logical op (a list write, an index flush, a destage) can have many
//!   backing ops in flight. `sync`/`pread`/`size`/`stat` are completion
//!   barriers; with `submit_depth == 0` the decorator is a pure passthrough
//!   and behavior is byte-identical to the synchronous path.
//! * [`TieredBacking`] — a burst-buffer pair `{fast, slow}`: every write
//!   lands on the fast tier; sealed (writer-closed) droppings destage to the
//!   slow tier in the background through the same submission layer; reads
//!   route to whichever tier holds the dropping. Residency is tracked in a
//!   small persisted tier map on the slow tier.
//!
//! The destage ordering is crash-shaped: copy to slow, persist the tier map,
//! only then unlink the fast copy. A writer dying mid-destage leaves the
//! fast copy in place and reads keep being served from it.

use crate::backing::{BackStat, Backing, BackingFile};
use crate::conf::{BackendKind, Conf, DEFAULT_SUBMIT_DEPTH};
use crate::error::{Error, Result};
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, MutexGuard as StdGuard};

/// Lock a condvar-coupled mutex, shrugging off poisoning: a panicking
/// worker must not wedge every barrier behind a `PoisonError`.
fn slock<T>(m: &StdMutex<T>) -> StdGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn swait<'a, T>(cv: &Condvar, g: StdGuard<'a, T>) -> StdGuard<'a, T> {
    cv.wait(g).unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Submission layer: a bounded queue + worker pool shared by the batched and
// tiered backends.
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Worker threads draining a submission queue.
const DRAIN_WORKERS: usize = 4;

struct SubmitInner {
    queue: VecDeque<Job>,
    active: usize,
    shutdown: bool,
}

struct SubmitShared {
    inner: StdMutex<SubmitInner>,
    /// Signalled when work arrives (workers wait here).
    not_empty: Condvar,
    /// Signalled when the queue shrinks or a job finishes (backpressure and
    /// quiesce wait here).
    changed: Condvar,
    depth: usize,
}

/// The bounded submission queue + worker pool behind [`BatchedBacking`] and
/// [`TieredBacking`]. Submitting past `depth` queued jobs blocks the caller
/// — backpressure, not an unbounded buffer.
pub(crate) struct Submitter {
    shared: Arc<SubmitShared>,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Submitter {
    fn new(depth: usize) -> Submitter {
        let shared = Arc::new(SubmitShared {
            inner: StdMutex::new(SubmitInner {
                queue: VecDeque::new(),
                active: 0,
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            changed: Condvar::new(),
            depth: depth.max(1),
        });
        let mut handles = Vec::new();
        for _ in 0..DRAIN_WORKERS {
            let s = Arc::clone(&shared);
            handles.push(std::thread::spawn(move || Submitter::worker_loop(s)));
        }
        Submitter {
            shared,
            workers: Mutex::new(handles),
        }
    }

    fn worker_loop(shared: Arc<SubmitShared>) {
        loop {
            let job = {
                let mut g = slock(&shared.inner);
                loop {
                    if let Some(j) = g.queue.pop_front() {
                        g.active += 1;
                        shared.changed.notify_all();
                        break Some(j);
                    }
                    if g.shutdown {
                        break None;
                    }
                    g = swait(&shared.not_empty, g);
                }
            };
            match job {
                Some(j) => {
                    j();
                    let mut g = slock(&shared.inner);
                    g.active -= 1;
                    shared.changed.notify_all();
                }
                None => return,
            }
        }
    }

    /// Enqueue a job, blocking while the queue is at depth (backpressure).
    fn submit(&self, job: Job) {
        let mut g = slock(&self.shared.inner);
        while g.queue.len() >= self.shared.depth && !g.shutdown {
            g = swait(&self.shared.changed, g);
        }
        if g.shutdown {
            // Tear-down race: run inline rather than drop work on the floor.
            drop(g);
            job();
            return;
        }
        g.queue.push_back(job);
        self.shared.not_empty.notify_one();
    }

    /// Block until the queue is empty and no worker is mid-job.
    fn quiesce(&self) {
        let mut g = slock(&self.shared.inner);
        while !g.queue.is_empty() || g.active > 0 {
            g = swait(&self.shared.changed, g);
        }
    }
}

impl Drop for Submitter {
    fn drop(&mut self) {
        {
            let mut g = slock(&self.shared.inner);
            g.shutdown = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.changed.notify_all();
        for h in self.workers.lock().drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// BatchedBacking
// ---------------------------------------------------------------------------

struct DeferredOp {
    file: Arc<dyn BackingFile>,
    off: u64,
    data: Vec<u8>,
}

struct FileOps {
    /// Deferred writes not yet executed, in submission order.
    queue: Vec<DeferredOp>,
    /// A drain job for this file is queued or running.
    scheduled: bool,
    /// Reserved append tail (`None` until the first append seeds it from
    /// the backing size). Shared by every handle on the path, so
    /// LogStructured writers appending to one shared dropping reserve
    /// disjoint extents synchronously.
    tail: Option<u64>,
    /// Highest end offset of any deferred write (tail seeding must not
    /// under-shoot bytes that are queued but not yet on the backing).
    max_end: u64,
    /// First deferred-write error, latched until the next barrier.
    err: Option<Error>,
}

struct FileState {
    path: String,
    ops: StdMutex<FileOps>,
    done: Condvar,
    /// Owner's drained-batch tally (shared across every file of the
    /// decorator; see [`BatchedBacking::batches`]).
    batches: Arc<AtomicU64>,
}

impl FileState {
    fn new(path: &str, batches: Arc<AtomicU64>) -> Arc<FileState> {
        Arc::new(FileState {
            path: path.to_string(),
            ops: StdMutex::new(FileOps {
                queue: Vec::new(),
                scheduled: false,
                tail: None,
                max_end: 0,
                err: None,
            }),
            done: Condvar::new(),
            batches,
        })
    }

    /// Wait until every deferred write for this file has executed, then
    /// surface any latched error (once).
    fn barrier(&self) -> Result<()> {
        let mut g = slock(&self.ops);
        while g.scheduled || !g.queue.is_empty() {
            g = swait(&self.done, g);
        }
        match g.err.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Drain loop run on a submission worker: repeatedly swap out the whole
    /// queued batch and execute it, so per-file ordering is FIFO while
    /// different files drain on different workers.
    fn drain(self: &Arc<FileState>) {
        loop {
            let batch = {
                let mut g = slock(&self.ops);
                if g.queue.is_empty() {
                    g.scheduled = false;
                    self.done.notify_all();
                    return;
                }
                std::mem::take(&mut g.queue)
            };
            // relaxed: statistics counter
            self.batches.fetch_add(1, Ordering::Relaxed);
            let t0 = iotrace::global().start();
            let mut bytes = 0u64;
            let mut err: Option<Error> = None;
            for op in batch {
                bytes += op.data.len() as u64;
                if err.is_none() {
                    if let Err(e) = op.file.pwrite(&op.data, op.off) {
                        err = Some(e);
                    }
                }
            }
            if let Some(t0) = t0 {
                iotrace::global().record(
                    t0,
                    iotrace::OpEvent::new(iotrace::Layer::Plfs, iotrace::OpKind::BatchSubmit)
                        .path(&self.path)
                        .bytes(bytes),
                );
            }
            if let Some(e) = err {
                let mut g = slock(&self.ops);
                if g.err.is_none() {
                    g.err = Some(e);
                }
            }
        }
    }
}

/// Async/batched submission decorator: data-plane writes (`pwrite`,
/// `append`) are deferred onto a bounded queue drained by a worker pool;
/// `sync`, `pread`, `size`, and path-level metadata ops that observe file
/// contents act as completion barriers. Deferred errors latch and surface
/// at the next barrier on the same file.
///
/// With [`Conf::batching`] off (`submit_depth == 0`) every call is a
/// direct passthrough — handles are the inner handles, unwrapped.
pub struct BatchedBacking {
    inner: Arc<dyn Backing>,
    submit: Option<Arc<Submitter>>,
    files: Mutex<HashMap<String, Arc<FileState>>>,
    batches: Arc<AtomicU64>,
}

impl BatchedBacking {
    /// Wrap `inner`; `conf.submit_depth == 0` turns the decorator into a
    /// pure passthrough.
    pub fn new(inner: Arc<dyn Backing>, conf: &Conf) -> BatchedBacking {
        let submit = if conf.batching() {
            Some(Arc::new(Submitter::new(conf.submit_depth)))
        } else {
            None
        };
        BatchedBacking {
            inner,
            submit,
            files: Mutex::new(HashMap::new()),
            batches: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The wrapped backing.
    pub fn inner(&self) -> &Arc<dyn Backing> {
        &self.inner
    }

    /// Number of drain batches executed so far (0 when batching is off).
    pub fn batches(&self) -> u64 {
        // relaxed: statistics counter
        self.batches.load(Ordering::Relaxed)
    }

    fn state_for(&self, path: &str) -> Arc<FileState> {
        let mut files = self.files.lock();
        Arc::clone(
            files
                .entry(path.to_string())
                .or_insert_with(|| FileState::new(path, Arc::clone(&self.batches))),
        )
    }

    fn existing_state(&self, path: &str) -> Option<Arc<FileState>> {
        self.files.lock().get(path).cloned()
    }

    /// Barrier on one path if it has deferred state.
    fn barrier_path(&self, path: &str) -> Result<()> {
        match self.existing_state(path) {
            Some(st) => st.barrier(),
            None => Ok(()),
        }
    }

    /// Flush every deferred write and surface the first latched error.
    /// Test and shutdown hook; normal code paths barrier per file.
    pub fn drain(&self) -> Result<()> {
        let states: Vec<Arc<FileState>> = self.files.lock().values().cloned().collect();
        let mut first_err = None;
        for st in states {
            if let Err(e) = st.barrier() {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn wrap(&self, path: &str, file: Box<dyn BackingFile>) -> Box<dyn BackingFile> {
        match &self.submit {
            Some(s) => Box::new(BatchedFile {
                inner: Arc::from(file),
                state: self.state_for(path),
                submit: Arc::clone(s),
            }),
            None => file,
        }
    }
}

impl Drop for BatchedBacking {
    fn drop(&mut self) {
        // Last-ditch flush; errors here were never barriered so there is
        // nobody left to hand them to.
        let _ = self.drain();
    }
}

struct BatchedFile {
    inner: Arc<dyn BackingFile>,
    state: Arc<FileState>,
    submit: Arc<Submitter>,
}

impl BatchedFile {
    fn enqueue(&self, off: u64, data: Vec<u8>) {
        let schedule = {
            let mut g = slock(&self.state.ops);
            g.max_end = g.max_end.max(off + data.len() as u64);
            if let Some(t) = g.tail {
                g.tail = Some(t.max(off + data.len() as u64));
            }
            g.queue.push(DeferredOp {
                file: Arc::clone(&self.inner),
                off,
                data,
            });
            if g.scheduled {
                false
            } else {
                g.scheduled = true;
                true
            }
        };
        if schedule {
            let st = Arc::clone(&self.state);
            self.submit.submit(Box::new(move || st.drain()));
        }
    }
}

impl BackingFile for BatchedFile {
    fn pread(&self, buf: &mut [u8], off: u64) -> Result<usize> {
        self.state.barrier()?;
        self.inner.pread(buf, off)
    }

    fn pwrite(&self, buf: &[u8], off: u64) -> Result<usize> {
        self.enqueue(off, buf.to_vec());
        Ok(buf.len())
    }

    fn append(&self, buf: &[u8]) -> Result<u64> {
        if slock(&self.state.ops).tail.is_none() {
            // Seed the shared tail from the backing size without holding
            // the ops lock across the backing call; the first seeder wins.
            let sz = self.inner.size()?;
            let mut g = slock(&self.state.ops);
            let base = sz.max(g.max_end);
            g.tail.get_or_insert(base);
        }
        let off = {
            let mut g = slock(&self.state.ops);
            let off = g.tail.expect("tail seeded above");
            g.tail = Some(off + buf.len() as u64);
            off
        };
        if !buf.is_empty() {
            self.enqueue(off, buf.to_vec());
        }
        Ok(off)
    }

    fn size(&self) -> Result<u64> {
        self.state.barrier()?;
        self.inner.size()
    }

    fn sync(&self) -> Result<()> {
        self.state.barrier()?;
        self.inner.sync()
    }
}

impl Backing for BatchedBacking {
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
        if self.submit.is_none() {
            return self.inner.create(path, excl);
        }
        self.barrier_path(path)?;
        let f = self.inner.create(path, excl)?;
        {
            // A successful create truncates: the shared tail restarts at 0.
            let st = self.state_for(path);
            let mut g = slock(&st.ops);
            g.tail = Some(0);
            g.max_end = 0;
        }
        Ok(self.wrap(path, f))
    }

    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
        if self.submit.is_none() {
            return self.inner.open(path, write);
        }
        let f = self.inner.open(path, write)?;
        Ok(self.wrap(path, f))
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        self.inner.mkdir(path)
    }

    fn mkdir_all(&self, path: &str) -> Result<()> {
        self.inner.mkdir_all(path)
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>> {
        self.inner.readdir(path)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        if self.submit.is_some() {
            self.barrier_path(path)?;
            self.files.lock().remove(path);
        }
        self.inner.unlink(path)
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        self.inner.rmdir(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        if self.submit.is_some() {
            self.barrier_path(from)?;
            self.barrier_path(to)?;
            let mut files = self.files.lock();
            files.remove(from);
            files.remove(to);
        }
        self.inner.rename(from, to)
    }

    fn stat(&self, path: &str) -> Result<BackStat> {
        if self.submit.is_some() {
            self.barrier_path(path)?;
        }
        self.inner.stat(path)
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        if self.submit.is_some() {
            self.barrier_path(path)?;
            if let Some(st) = self.existing_state(path) {
                let mut g = slock(&st.ops);
                g.tail = Some(len);
                g.max_end = len;
            }
        }
        self.inner.truncate(path, len)
    }

    fn seal(&self, path: &str) -> Result<()> {
        // The seal recipient (a tiered layer below) may copy the file, so
        // every deferred byte must be on the inner backing first.
        if self.submit.is_some() {
            self.barrier_path(path)?;
        }
        self.inner.seal(path)
    }
}

// ---------------------------------------------------------------------------
// TieredBacking
// ---------------------------------------------------------------------------

/// Name of the persisted tier map, kept at the slow tier root and hidden
/// from `readdir`.
pub const TIER_MAP_FILE: &str = ".plfs_tiermap";

/// Monotonic counters describing tier traffic, snapshotted by
/// [`TieredBacking::tier_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Sealed droppings destaged to the slow tier.
    pub destages: u64,
    /// Bytes copied fast → slow by destage.
    pub destaged_bytes: u64,
    /// Destage attempts that failed (the fast copy stays authoritative).
    pub destage_errors: u64,
    /// Opens/stats answered by the fast tier.
    pub tier_hits: u64,
    /// Opens/stats that fell through to the slow tier.
    pub tier_misses: u64,
}

#[derive(Default)]
struct TierCounters {
    destages: AtomicU64,
    destaged_bytes: AtomicU64,
    destage_errors: AtomicU64,
    tier_hits: AtomicU64,
    tier_misses: AtomicU64,
}

/// Burst-buffer backend: writes land on `fast`, sealed droppings destage to
/// `slow` in the background, reads hit whichever tier holds the path.
///
/// Residency is tracked in [`TIER_MAP_FILE`] on the slow tier so a restart
/// still routes reads; the destage order (copy, persist map, unlink fast)
/// means a crash anywhere mid-destage leaves the fast copy serving reads.
pub struct TieredBacking {
    fast: Arc<dyn Backing>,
    slow: Arc<dyn Backing>,
    map: Arc<Mutex<BTreeSet<String>>>,
    /// Serializes tier-map persistence (two destage workers must not
    /// interleave rewrites of the map file).
    persist: Arc<Mutex<()>>,
    counters: Arc<TierCounters>,
    submit: Submitter,
}

impl TieredBacking {
    /// Build a tiered pair. The destage queue takes `conf.submit_depth`
    /// (falling back to the default depth when batching is off — destage is
    /// inherent to the tiered backend, not a batching knob).
    pub fn new(fast: Arc<dyn Backing>, slow: Arc<dyn Backing>, conf: &Conf) -> TieredBacking {
        let depth = if conf.submit_depth == 0 {
            DEFAULT_SUBMIT_DEPTH
        } else {
            conf.submit_depth
        };
        let map = Arc::new(Mutex::new(load_tier_map(slow.as_ref()).unwrap_or_default()));
        TieredBacking {
            fast,
            slow,
            map,
            persist: Arc::new(Mutex::new(())),
            counters: Arc::new(TierCounters::default()),
            submit: Submitter::new(depth),
        }
    }

    /// Build a tiered pair with a [`crate::MeterBacking`] around each tier
    /// so benchmarks can report ops-per-tier — the meters see everything
    /// the tiered layer sends each tier, including background destage
    /// traffic.
    pub fn new_metered(
        fast: Arc<dyn Backing>,
        slow: Arc<dyn Backing>,
        conf: &Conf,
    ) -> (
        TieredBacking,
        Arc<crate::meter::MeterBacking>,
        Arc<crate::meter::MeterBacking>,
    ) {
        let fast_m = Arc::new(crate::meter::MeterBacking::new(fast));
        let slow_m = Arc::new(crate::meter::MeterBacking::new(slow));
        let t = TieredBacking::new(
            Arc::clone(&fast_m) as Arc<dyn Backing>,
            Arc::clone(&slow_m) as Arc<dyn Backing>,
            conf,
        );
        (t, fast_m, slow_m)
    }

    /// The fast tier.
    pub fn fast(&self) -> &Arc<dyn Backing> {
        &self.fast
    }

    /// The slow tier.
    pub fn slow(&self) -> &Arc<dyn Backing> {
        &self.slow
    }

    /// Block until every queued destage has finished.
    pub fn drain(&self) {
        self.submit.quiesce();
    }

    /// Snapshot the tier traffic counters.
    pub fn tier_stats(&self) -> TierStats {
        TierStats {
            destages: self.counters.destages.load(Ordering::Relaxed), // relaxed: stats counter
            destaged_bytes: self.counters.destaged_bytes.load(Ordering::Relaxed), // relaxed: stats counter
            destage_errors: self.counters.destage_errors.load(Ordering::Relaxed), // relaxed: stats counter
            tier_hits: self.counters.tier_hits.load(Ordering::Relaxed), // relaxed: stats counter
            tier_misses: self.counters.tier_misses.load(Ordering::Relaxed), // relaxed: stats counter
        }
    }

    /// Paths currently recorded as resident on the slow tier.
    pub fn slow_resident(&self) -> Vec<String> {
        self.map.lock().iter().cloned().collect()
    }

    fn hit(&self) {
        let t0 = iotrace::global().start();
        // relaxed: statistics counter
        self.counters.tier_hits.fetch_add(1, Ordering::Relaxed);
        if let Some(t0) = t0 {
            iotrace::global().record(
                t0,
                iotrace::OpEvent::new(iotrace::Layer::Plfs, iotrace::OpKind::TierHit),
            );
        }
    }

    fn miss(&self) {
        let t0 = iotrace::global().start();
        // relaxed: statistics counter
        self.counters.tier_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(t0) = t0 {
            iotrace::global().record(
                t0,
                iotrace::OpEvent::new(iotrace::Layer::Plfs, iotrace::OpKind::TierMiss),
            );
        }
    }
}

fn parent_dir(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) => "/",
        Some(i) => &path[..i],
        None => "/",
    }
}

fn not_found_ok(r: Result<()>) -> Result<bool> {
    match r {
        Ok(()) => Ok(true),
        Err(Error::NotFound(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Read the persisted tier map from a slow tier (one path per line).
/// `Ok(empty)` when the map file does not exist.
pub fn load_tier_map(slow: &dyn Backing) -> Result<BTreeSet<String>> {
    let path = format!("/{TIER_MAP_FILE}");
    let f = match slow.open(&path, false) {
        Ok(f) => f,
        Err(Error::NotFound(_)) => return Ok(BTreeSet::new()),
        Err(e) => return Err(e),
    };
    let data = read_all_file(f.as_ref())?;
    let text = String::from_utf8_lossy(&data);
    Ok(text
        .lines()
        .filter(|l| !l.is_empty())
        .map(|l| l.to_string())
        .collect())
}

fn read_all_file(f: &dyn BackingFile) -> Result<Vec<u8>> {
    let size = f.size()? as usize;
    let mut data = vec![0u8; size];
    let mut read = 0;
    while read < size {
        let n = f.pread(&mut data[read..], read as u64)?;
        if n == 0 {
            break;
        }
        read += n;
    }
    data.truncate(read);
    Ok(data)
}

fn persist_tier_map(
    slow: &dyn Backing,
    map: &Mutex<BTreeSet<String>>,
    persist: &Mutex<()>,
) -> Result<()> {
    let snapshot: String = {
        let m = map.lock();
        let mut s = String::new();
        for p in m.iter() {
            s.push_str(p);
            s.push('\n');
        }
        s
    };
    // plfs-lint: allow(lock-across-io, "intentional: map-file rewrites from concurrent destage workers must serialize or the persisted map would interleave")
    let _g = persist.lock();
    let path = format!("/{TIER_MAP_FILE}");
    let f = slow.create(&path, false)?;
    f.pwrite(snapshot.as_bytes(), 0)?;
    f.sync()
}

/// One background destage: copy fast → slow, record residency, then (and
/// only then) drop the fast copy. Any failure leaves the fast copy
/// authoritative.
#[allow(clippy::too_many_arguments)]
fn destage_one(
    fast: &dyn Backing,
    slow: &dyn Backing,
    map: &Mutex<BTreeSet<String>>,
    persist: &Mutex<()>,
    counters: &TierCounters,
    path: &str,
) -> Result<()> {
    let t0 = iotrace::global().start();
    let src = fast.open(path, false)?;
    let data = read_all_file(src.as_ref())?;
    slow.mkdir_all(parent_dir(path))?;
    let dst = slow.create(path, false)?;
    dst.pwrite(&data, 0)?;
    dst.sync()?;
    map.lock().insert(path.to_string());
    persist_tier_map(slow, map, persist)?;
    match fast.unlink(path) {
        Ok(()) | Err(Error::NotFound(_)) => {}
        Err(e) => return Err(e),
    }
    // relaxed: statistics counters
    counters.destages.fetch_add(1, Ordering::Relaxed);
    counters
        .destaged_bytes
        // relaxed: statistics counter
        .fetch_add(data.len() as u64, Ordering::Relaxed);
    if let Some(t0) = t0 {
        iotrace::global().record(
            t0,
            iotrace::OpEvent::new(iotrace::Layer::Plfs, iotrace::OpKind::Destage)
                .path(path)
                .bytes(data.len() as u64),
        );
    }
    Ok(())
}

impl Backing for TieredBacking {
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
        if excl && self.map.lock().contains(path) {
            return Err(Error::Exists(path.to_string()));
        }
        if excl && self.slow.stat(path).map(|s| !s.is_dir).unwrap_or(false) {
            return Err(Error::Exists(path.to_string()));
        }
        let f = self.fast.create(path, excl)?;
        // Recreating a destaged path supersedes the slow copy.
        let was_resident = {
            let mut m = self.map.lock();
            m.remove(path)
        };
        if was_resident {
            let _ = not_found_ok(self.slow.unlink(path));
            let _ = persist_tier_map(self.slow.as_ref(), &self.map, &self.persist);
        }
        Ok(f)
    }

    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
        match self.fast.open(path, write) {
            Ok(f) => {
                self.hit();
                Ok(f)
            }
            Err(Error::NotFound(_)) => {
                let f = self.slow.open(path, write)?;
                self.miss();
                Ok(f)
            }
            Err(e) => Err(e),
        }
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        // `Exists` from either tier is the answer: a directory only the
        // slow tier remembers (a fresh fast tier) is not this call's.
        self.fast.mkdir(path)?;
        self.slow.mkdir(path)
    }

    fn mkdir_all(&self, path: &str) -> Result<()> {
        self.fast.mkdir_all(path)?;
        self.slow.mkdir_all(path)
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>> {
        let fast = match self.fast.readdir(path) {
            Ok(names) => Some(names),
            Err(Error::NotFound(_)) => None,
            Err(e) => return Err(e),
        };
        let slow = match self.slow.readdir(path) {
            Ok(names) => Some(names),
            Err(Error::NotFound(_)) => None,
            Err(e) => return Err(e),
        };
        if fast.is_none() && slow.is_none() {
            return Err(Error::NotFound(path.to_string()));
        }
        let mut union: BTreeSet<String> = BTreeSet::new();
        union.extend(fast.into_iter().flatten());
        union.extend(slow.into_iter().flatten());
        union.remove(TIER_MAP_FILE);
        Ok(union.into_iter().collect())
    }

    fn unlink(&self, path: &str) -> Result<()> {
        let on_fast = not_found_ok(self.fast.unlink(path))?;
        let on_slow = not_found_ok(self.slow.unlink(path))?;
        let was_resident = self.map.lock().remove(path);
        if was_resident {
            let _ = persist_tier_map(self.slow.as_ref(), &self.map, &self.persist);
        }
        if on_fast || on_slow {
            Ok(())
        } else {
            Err(Error::NotFound(path.to_string()))
        }
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        let on_fast = not_found_ok(self.fast.rmdir(path))?;
        let on_slow = not_found_ok(self.slow.rmdir(path))?;
        if on_fast || on_slow {
            Ok(())
        } else {
            Err(Error::NotFound(path.to_string()))
        }
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let on_fast = not_found_ok(self.fast.rename(from, to))?;
        let on_slow = not_found_ok(self.slow.rename(from, to))?;
        if !on_fast && !on_slow {
            return Err(Error::NotFound(from.to_string()));
        }
        let prefix = format!("{from}/");
        let changed = {
            let mut m = self.map.lock();
            let moved: Vec<String> = m
                .iter()
                .filter(|p| p.as_str() == from || p.starts_with(&prefix))
                .cloned()
                .collect();
            for p in &moved {
                m.remove(p);
                let renamed = if p == from {
                    to.to_string()
                } else {
                    format!("{to}{}", &p[from.len()..])
                };
                m.insert(renamed);
            }
            !moved.is_empty()
        };
        if changed {
            let _ = persist_tier_map(self.slow.as_ref(), &self.map, &self.persist);
        }
        Ok(())
    }

    fn stat(&self, path: &str) -> Result<BackStat> {
        match self.fast.stat(path) {
            Ok(st) => {
                self.hit();
                Ok(st)
            }
            Err(Error::NotFound(_)) => {
                let st = self.slow.stat(path)?;
                self.miss();
                Ok(st)
            }
            Err(e) => Err(e),
        }
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        match self.fast.truncate(path, len) {
            Ok(()) => Ok(()),
            Err(Error::NotFound(_)) => self.slow.truncate(path, len),
            Err(e) => Err(e),
        }
    }

    fn seal(&self, path: &str) -> Result<()> {
        let st = match self.fast.stat(path) {
            Ok(st) => st,
            // Already destaged (or never written): nothing to stage out.
            Err(Error::NotFound(_)) => return Ok(()),
            Err(e) => return Err(e),
        };
        if st.is_dir {
            return Ok(());
        }
        let fast = Arc::clone(&self.fast);
        let slow = Arc::clone(&self.slow);
        let map = Arc::clone(&self.map);
        let persist = Arc::clone(&self.persist);
        let counters = Arc::clone(&self.counters);
        let path = path.to_string();
        self.submit.submit(Box::new(move || {
            if destage_one(
                fast.as_ref(),
                slow.as_ref(),
                &map,
                &persist,
                &counters,
                &path,
            )
            .is_err()
            {
                // The fast copy stays authoritative; reads are unaffected.
                // relaxed: statistics counter
                counters.destage_errors.fetch_add(1, Ordering::Relaxed);
            }
        }));
        Ok(())
    }
}

impl Drop for TieredBacking {
    fn drop(&mut self) {
        // Finish queued destages so shutdown does not strand sealed
        // droppings half-resident.
        self.submit.quiesce();
    }
}

// ---------------------------------------------------------------------------
// The one place a backend stack is composed.
// ---------------------------------------------------------------------------

/// What [`build_stack`] composed.
pub struct Stack {
    /// The backing to mount a [`crate::Plfs`] over.
    pub backing: Arc<dyn Backing>,
    /// The tiered layer inside it, when `conf.backend` is `tiered` — for
    /// callers that must [`TieredBacking::drain`] before exiting.
    pub tiered: Option<Arc<TieredBacking>>,
}

/// Compose the backend stack `conf` asks for over `primary` (the mount's
/// backing, where containers finally live):
///
/// * `direct` — `primary` as is;
/// * `tiered` — `fast` as the burst-buffer tier destaging to `primary`; a
///   tiered request without a fast tier is a configuration error;
/// * `batched`, or any kind with `submit_depth > 0` — the above wrapped in
///   the async submission layer.
pub fn build_stack(
    conf: &Conf,
    primary: Arc<dyn Backing>,
    fast: Option<Arc<dyn Backing>>,
) -> Result<Stack> {
    let conf = conf.validated();
    let mut tiered = None;
    let mut backing = match conf.backend {
        BackendKind::Direct | BackendKind::Batched => primary,
        BackendKind::Tiered => {
            let fast = fast.ok_or(Error::InvalidArg("tiered backend needs a fast tier"))?;
            let t = Arc::new(TieredBacking::new(fast, primary, &conf));
            tiered = Some(Arc::clone(&t));
            t
        }
    };
    if conf.batching() {
        backing = Arc::new(BatchedBacking::new(backing, &conf));
    }
    Ok(Stack { backing, tiered })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;

    fn conf() -> Conf {
        Conf {
            submit_depth: DEFAULT_SUBMIT_DEPTH,
            ..Conf::default()
        }
    }

    #[test]
    fn batched_appends_reserve_disjoint_offsets_and_barrier_on_sync() {
        let inner = Arc::new(MemBacking::new());
        let b = BatchedBacking::new(inner.clone(), &conf());
        let f = b.create("/d", true).unwrap();
        let mut offs = Vec::new();
        for i in 0..50u8 {
            offs.push(f.append(&[i; 10]).unwrap());
        }
        for (i, off) in offs.iter().enumerate() {
            assert_eq!(*off, (i * 10) as u64, "synchronous offset reservation");
        }
        f.sync().unwrap();
        let g = inner.open("/d", false).unwrap();
        assert_eq!(g.size().unwrap(), 500);
        let mut buf = [0u8; 10];
        g.pread(&mut buf, 420).unwrap();
        assert!(buf.iter().all(|&x| x == 42));
    }

    #[test]
    fn batched_two_handles_share_one_append_tail() {
        let inner = Arc::new(MemBacking::new());
        let b = BatchedBacking::new(inner, &conf());
        drop(b.create("/shared", true).unwrap());
        let f1 = b.open("/shared", true).unwrap();
        let f2 = b.open("/shared", true).unwrap();
        let o1 = f1.append(b"aaaa").unwrap();
        let o2 = f2.append(b"bbbb").unwrap();
        assert_ne!(o1, o2, "shared tail hands out disjoint extents");
        f1.sync().unwrap();
        f2.sync().unwrap();
        assert_eq!(b.stat("/shared").unwrap().size, 8);
    }

    #[test]
    fn batched_pread_sees_deferred_writes() {
        let b = BatchedBacking::new(Arc::new(MemBacking::new()), &conf());
        let f = b.create("/x", true).unwrap();
        f.append(b"hello").unwrap();
        let mut buf = [0u8; 5];
        assert_eq!(f.pread(&mut buf, 0).unwrap(), 5, "pread is a barrier");
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn batched_stat_is_a_barrier() {
        let b = BatchedBacking::new(Arc::new(MemBacking::new()), &conf());
        let f = b.create("/x", true).unwrap();
        f.append(&[1u8; 4096]).unwrap();
        assert_eq!(b.stat("/x").unwrap().size, 4096);
    }

    #[test]
    fn batched_disabled_is_passthrough() {
        let inner = Arc::new(MemBacking::new());
        let b = BatchedBacking::new(inner.clone(), &Conf::default());
        let f = b.create("/p", true).unwrap();
        f.append(b"now").unwrap();
        // No barrier needed: the write was synchronous.
        assert_eq!(inner.stat("/p").unwrap().size, 3);
        assert_eq!(b.batches(), 0);
    }

    #[test]
    fn batched_error_latches_until_barrier() {
        let inner = Arc::new(MemBacking::new());
        let b = BatchedBacking::new(inner.clone(), &conf());
        drop(b.create("/e", true).unwrap());
        let f = b.open("/e", false).unwrap(); // read-only: pwrite will fail
        f.append(b"doomed").unwrap();
        let err = f.sync().expect_err("deferred failure surfaces at sync");
        assert!(matches!(err, Error::BadMode(_)));
        // Latched error is delivered once; the file itself is untouched.
        assert_eq!(inner.stat("/e").unwrap().size, 0);
    }

    #[test]
    fn tiered_writes_land_fast_and_destage_on_seal() {
        let fast = Arc::new(MemBacking::new());
        let slow = Arc::new(MemBacking::new());
        let t = TieredBacking::new(fast.clone(), slow.clone(), &conf());
        let f = t.create("/c", true).unwrap();
        f.append(b"dropping-bytes").unwrap();
        f.sync().unwrap();
        assert!(fast.exists("/c"));
        assert!(!slow.exists("/c"));
        t.seal("/c").unwrap();
        t.drain();
        assert!(!fast.exists("/c"), "destage drops the fast copy");
        assert!(slow.exists("/c"));
        let g = t.open("/c", false).unwrap();
        let mut buf = [0u8; 14];
        g.pread(&mut buf, 0).unwrap();
        assert_eq!(&buf, b"dropping-bytes");
        let stats = t.tier_stats();
        assert_eq!(stats.destages, 1);
        assert_eq!(stats.destaged_bytes, 14);
        assert_eq!(stats.tier_misses, 1, "post-destage open is a miss");
        assert_eq!(t.slow_resident(), vec!["/c".to_string()]);
    }

    #[test]
    fn tiered_map_persists_across_reconstruction() {
        let fast = Arc::new(MemBacking::new());
        let slow = Arc::new(MemBacking::new());
        {
            let t = TieredBacking::new(fast.clone(), slow.clone(), &conf());
            let f = t.create("/a", true).unwrap();
            f.append(b"x").unwrap();
            f.sync().unwrap();
            t.seal("/a").unwrap();
            t.drain();
        }
        let t2 = TieredBacking::new(Arc::new(MemBacking::new()), slow, &conf());
        assert_eq!(t2.slow_resident(), vec!["/a".to_string()]);
        assert!(t2.exists("/a"), "restart still routes to the slow copy");
    }

    #[test]
    fn tiered_readdir_unions_tiers_and_hides_the_map() {
        let fast = Arc::new(MemBacking::new());
        let slow = Arc::new(MemBacking::new());
        let t = TieredBacking::new(fast, slow, &conf());
        t.mkdir("/d").unwrap();
        drop(t.create("/d/one", true).unwrap());
        drop(t.create("/d/two", true).unwrap());
        t.seal("/d/one").unwrap();
        t.drain();
        assert_eq!(t.readdir("/d").unwrap(), vec!["one", "two"]);
        assert_eq!(t.readdir("/").unwrap(), vec!["d"], "map file hidden");
    }

    #[test]
    fn tiered_crash_mid_destage_serves_fast_copy() {
        // Simulate a writer dying between the slow-copy and the unlink: both
        // tiers hold the path, the slow copy is torn. Reads must come from
        // the fast tier.
        let fast = Arc::new(MemBacking::new());
        let slow = Arc::new(MemBacking::new());
        let good = fast.create("/c", true).unwrap();
        good.pwrite(b"GOODGOOD", 0).unwrap();
        let torn = slow.create("/c", true).unwrap();
        torn.pwrite(b"TORN", 0).unwrap();
        let t = TieredBacking::new(fast, slow, &conf());
        let f = t.open("/c", false).unwrap();
        let mut buf = [0u8; 8];
        assert_eq!(f.pread(&mut buf, 0).unwrap(), 8);
        assert_eq!(&buf, b"GOODGOOD", "fast copy wins mid-destage");
        assert_eq!(t.tier_stats().tier_hits, 1);
    }

    #[test]
    fn tiered_unlink_and_rename_tolerate_single_tier_presence() {
        let fast = Arc::new(MemBacking::new());
        let slow = Arc::new(MemBacking::new());
        let t = TieredBacking::new(fast, slow, &conf());
        drop(t.create("/a", true).unwrap());
        t.seal("/a").unwrap();
        t.drain();
        t.rename("/a", "/b").unwrap();
        assert!(t.exists("/b"));
        assert_eq!(t.slow_resident(), vec!["/b".to_string()]);
        t.unlink("/b").unwrap();
        assert!(!t.exists("/b"));
        assert!(t.slow_resident().is_empty());
        assert!(matches!(t.unlink("/b"), Err(Error::NotFound(_))));
    }
}
