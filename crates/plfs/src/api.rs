//! The PLFS API: the Rust analogue of `plfs.h`.
//!
//! [`Plfs`] represents one mounted PLFS file system: a backing store plus
//! container defaults. Method names and semantics track the C entry points
//! from the paper's Listing 1 (`plfs_open`, `plfs_read`, `plfs_write`, …):
//! positional I/O with explicit pids, no cursors — cursor bookkeeping is
//! exactly what the LDPLFS shim adds on top.
//!
//! Paths passed to these methods are *mount-relative* logical paths
//! (`/checkpoint/dump.0001`), mapped onto backend paths internally.

use crate::backing::{join, Backing};
use crate::conf::Conf;
use crate::container::{self, ContainerParams};
use crate::error::{Error, Result};
use crate::fd::PlfsFd;
use crate::flags::OpenFlags;
use crate::meta::{MetaCache, MetaEntry};
use iotrace::{Layer, OpEvent, OpKind};
use std::sync::Arc;
use std::time::Instant;

/// Close a trace span opened with `iotrace::global().start()` (no-op when
/// tracing was off at span start).
fn trace_op<'a>(t0: Option<Instant>, ev: impl FnOnce() -> OpEvent<'a>) {
    if let Some(t0) = t0 {
        iotrace::global().record(t0, ev());
    }
}

/// stat(2)-shaped metadata for a logical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stat {
    /// Logical size in bytes (0 for directories).
    pub size: u64,
    /// True if the path is a directory (a real directory, not a container).
    pub is_dir: bool,
    /// Total physical bytes in droppings (files only; diagnostic).
    pub physical_bytes: u64,
}

/// Directory entry type as seen through the mount.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dirent {
    /// Entry name.
    pub name: String,
    /// True for sub-directories, false for (container) files.
    pub is_dir: bool,
}

/// One mounted PLFS file system.
pub struct Plfs {
    backing: Arc<dyn Backing>,
    defaults: ContainerParams,
    conf: Conf,
    cache: Arc<MetaCache>,
}

/// Lock shards of the container metadata cache.
const META_SHARDS: usize = 16;

fn meta_cache_for(conf: &Conf) -> Arc<MetaCache> {
    Arc::new(MetaCache::new(conf.meta_cache_entries.max(1), META_SHARDS))
}

impl Plfs {
    /// Mount over a backing store with default container parameters and
    /// the default [`Conf`].
    pub fn new(backing: Arc<dyn Backing>) -> Plfs {
        let conf = Conf::default();
        Plfs {
            backing,
            defaults: ContainerParams::default(),
            cache: meta_cache_for(&conf),
            conf,
        }
    }

    /// Override container parameters used for newly created files.
    pub fn with_params(mut self, params: ContainerParams) -> Plfs {
        self.defaults = params;
        self
    }

    /// Replace the whole configuration (clamped by [`Conf::validated`]);
    /// every fd opened afterwards inherits it. Rebuilds the metadata
    /// cache, so apply before serving traffic. The backing is taken as
    /// given: compose `conf.backend` / `conf.submit_depth` with
    /// [`crate::backend::build_stack`] and mount over the result.
    pub fn with_conf(mut self, conf: Conf) -> Plfs {
        self.conf = conf.validated();
        self.cache = meta_cache_for(&self.conf);
        self
    }

    /// The configuration open fds inherit.
    pub fn conf(&self) -> &Conf {
        &self.conf
    }

    /// Lifetime metadata-cache `(hits, misses)` — exposed for benches and
    /// `plfs-tools`.
    pub fn meta_cache_counters(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// The backing store (exposed for flatten/tool helpers).
    pub fn backing(&self) -> &Arc<dyn Backing> {
        &self.backing
    }

    /// Default parameters for new containers.
    pub fn defaults(&self) -> ContainerParams {
        self.defaults
    }

    fn backend_path(&self, logical: &str) -> String {
        // Mount-relative logical path == backend-relative path; normalisation
        // happens in the backing.
        if logical.starts_with('/') {
            logical.to_string()
        } else {
            format!("/{logical}")
        }
    }

    /// One backing probe for a path's verdict: a single `stat` plus (for
    /// directories) the container-marker check. Params and meta drops are
    /// *not* read here — [`Plfs::params_for`] / [`Plfs::meta_for`] fill
    /// them lazily, so `getattr`/`access` never pay for fields they do not
    /// need.
    fn probe_meta(&self, bp: &str) -> MetaEntry {
        let mut e = MetaEntry::default();
        // A failed stat means "missing", matching the exists() probe the
        // pre-cache open path used.
        if let Ok(st) = self.backing.stat(bp) {
            e.exists = true;
            e.is_dir = st.is_dir;
            e.is_container = st.is_dir && self.backing.exists(&join(bp, container::ACCESS_FILE));
        }
        e
    }

    /// The cached verdict for a backend path, if the cache is on and holds
    /// one.
    fn cached_entry(&self, bp: &str) -> Option<MetaEntry> {
        if !self.conf.meta_cache_enabled() {
            return None;
        }
        let t0 = iotrace::global().start();
        let e = self.cache.lookup(bp)?;
        trace_op(t0, || {
            OpEvent::new(Layer::Plfs, OpKind::MetaCacheHit)
                .path(bp)
                .hit(true)
        });
        Some(e)
    }

    /// Probe the backing store for a path's verdict, filling the cache
    /// under the generation guard so racing invalidations can never leave a
    /// stale verdict behind.
    fn probed_entry(&self, bp: &str) -> MetaEntry {
        if !self.conf.meta_cache_enabled() {
            return self.probe_meta(bp);
        }
        let t0 = iotrace::global().start();
        let generation = self.cache.begin_fill(bp);
        let e = self.probe_meta(bp);
        self.cache.complete_fill(bp, generation, e);
        trace_op(t0, || {
            OpEvent::new(Layer::Plfs, OpKind::MetaCacheMiss).path(bp)
        });
        e
    }

    /// Cached (or freshly probed) verdict for a backend path.
    fn meta_entry(&self, bp: &str) -> MetaEntry {
        self.cached_entry(bp)
            .unwrap_or_else(|| self.probed_entry(bp))
    }

    /// Container params for `bp`, answered from the cache when warm.
    fn params_for(&self, bp: &str, e: MetaEntry) -> Result<ContainerParams> {
        if let Some(p) = e.params {
            return Ok(p);
        }
        if !self.conf.meta_cache_enabled() {
            return container::read_params(self.backing.as_ref(), bp);
        }
        let generation = self.cache.begin_fill(bp);
        let p = container::read_params(self.backing.as_ref(), bp)?;
        self.cache.complete_fill(
            bp,
            generation,
            MetaEntry {
                params: Some(p),
                ..e
            },
        );
        Ok(p)
    }

    /// Fast-stat info from the container's `meta.*` drops, or `None` while
    /// some process's open marker stands beside them — both read off one
    /// listing of the container directory. The closed-container answer is
    /// cached; writer close clears it.
    fn meta_for(&self, bp: &str, e: MetaEntry) -> Result<Option<(u64, u64)>> {
        let generation = self.cache.begin_fill(bp);
        let (writers, m) = container::read_lifecycle(self.backing.as_ref(), bp)?;
        if writers > 0 {
            return Ok(None);
        }
        if self.conf.meta_cache_enabled() {
            self.cache
                .complete_fill(bp, generation, MetaEntry { meta: Some(m), ..e });
        }
        Ok(m)
    }

    /// Drop any cached verdict for `bp`, killing in-flight fills. Called
    /// *after* each backing mutation, so a fill that probed the half-mutated
    /// state loses the generation race and is discarded.
    fn meta_invalidate(&self, bp: &str) {
        if self.conf.meta_cache_enabled() {
            self.cache.invalidate(bp);
        }
    }

    /// Drop cached verdicts for `bp` and everything under it. Renaming (or
    /// removing) a directory moves/kills every descendant, so cached
    /// verdicts below both endpoints must die with it.
    fn meta_invalidate_tree(&self, bp: &str) {
        if self.conf.meta_cache_enabled() {
            self.cache.invalidate_tree(bp);
        }
    }

    /// Install the verdict for a just-created container so the creating
    /// process reopens it warm, without a single backing probe.
    fn meta_install(&self, bp: &str, params: ContainerParams) {
        if !self.conf.meta_cache_enabled() {
            return;
        }
        // Invalidate first: the pre-create "missing" verdict must never
        // survive the create.
        self.cache.invalidate(bp);
        let generation = self.cache.begin_fill(bp);
        self.cache.complete_fill(
            bp,
            generation,
            MetaEntry {
                exists: true,
                is_dir: true,
                is_container: true,
                params: Some(params),
                meta: None,
            },
        );
    }

    /// `plfs_open`: open (optionally creating) a container.
    pub fn open(&self, path: &str, flags: OpenFlags, pid: u64) -> Result<Arc<PlfsFd>> {
        let t0 = iotrace::global().start();
        let r = self.open_inner(path, flags, pid);
        trace_op(t0, || OpEvent::new(Layer::Plfs, OpKind::Open).path(path));
        r
    }

    fn open_inner(&self, path: &str, flags: OpenFlags, pid: u64) -> Result<Arc<PlfsFd>> {
        use container::Creation::{Joined, Made};
        let bp = self.backend_path(path);
        let (params, how) = match self.cached_entry(&bp) {
            // Nothing known about the path and the caller would create it:
            // the `mkdir` is the probe.
            None if flags.create() => self.create_for_open(&bp, path, flags)?,
            cached => {
                let e = cached.unwrap_or_else(|| self.probed_entry(&bp));
                if e.exists && flags.create() && flags.excl() {
                    return Err(Error::Exists(path.to_string()));
                }
                if e.is_container {
                    let e = if flags.trunc() {
                        self.trunc_backend(&bp, 0)?;
                        // trunc_backend invalidated the cached verdict;
                        // feeding the pre-truncate entry back into
                        // params_for would reinstall its fast-stat field
                        // and resurrect the old size.
                        MetaEntry { meta: None, ..e }
                    } else {
                        e
                    };
                    (self.params_for(&bp, e)?, Joined)
                } else if flags.create() && (!e.exists || e.is_dir) {
                    // Missing — or a directory with no access file, which is
                    // a plain directory or a container another process is
                    // creating this instant: a non-exclusive create must
                    // join that one, not fail on it.
                    self.create_for_open(&bp, path, flags)?
                } else if !e.exists {
                    return Err(Error::NotFound(path.to_string()));
                } else if e.is_dir {
                    return Err(Error::IsDir(path.to_string()));
                } else {
                    return Err(Error::NotContainer(path.to_string()));
                }
            }
        };
        let mut fd = PlfsFd::new(self.backing.clone(), bp, params, flags, &self.conf, pid);
        if how == Made {
            fd = fd.into_creator();
        }
        if self.conf.meta_cache_enabled() {
            fd = fd.with_meta_cache(Arc::clone(&self.cache));
        }
        Ok(Arc::new(fd))
    }

    /// The creating half of an `O_CREAT` open: make the container or join
    /// the one that is there (`O_TRUNC` then empties it), and install the
    /// verdict — the params come back from the create, with no re-read of
    /// the access file. A create costs `mkdir` + access file; on an
    /// existing container `mkdir` (`EEXIST`) + the access file's `open` and
    /// `size`. Only a failure pays for a probe, to report the precise
    /// errno for what is in the way.
    fn create_for_open(
        &self,
        bp: &str,
        path: &str,
        flags: OpenFlags,
    ) -> Result<(ContainerParams, container::Creation)> {
        let b = self.backing.as_ref();
        match container::create_container(b, bp, &self.defaults, flags.excl()) {
            Ok((p, how)) => {
                if how == container::Creation::Joined && flags.trunc() {
                    self.trunc_backend(bp, 0)?;
                }
                self.meta_install(bp, p);
                Ok((p, how))
            }
            // POSIX: O_CREAT|O_EXCL is EEXIST whatever is in the way.
            Err(Error::Exists(_)) if flags.excl() => Err(Error::Exists(path.to_string())),
            Err(err) => {
                let e = self.probe_meta(bp);
                Err(if e.is_dir && !e.is_container {
                    Error::IsDir(path.to_string())
                } else if e.exists && !e.is_dir {
                    Error::NotContainer(path.to_string())
                } else {
                    err
                })
            }
        }
    }

    /// `plfs_create`: create a container without holding it open.
    pub fn create(&self, path: &str, excl: bool) -> Result<()> {
        let bp = self.backend_path(path);
        let (p, _) = container::create_container(self.backing.as_ref(), &bp, &self.defaults, excl)?;
        self.meta_install(&bp, p);
        Ok(())
    }

    /// `plfs_write`: positional write on behalf of `pid`.
    pub fn write(&self, fd: &PlfsFd, buf: &[u8], offset: u64, pid: u64) -> Result<usize> {
        let t0 = iotrace::global().start();
        let r = fd.write(buf, offset, pid);
        trace_op(t0, || {
            OpEvent::new(Layer::Plfs, OpKind::Write)
                .path(fd.container_path())
                .offset(offset)
                .bytes(*r.as_ref().unwrap_or(&0) as u64)
        });
        r
    }

    /// `plfs_read`: positional read.
    pub fn read(&self, fd: &PlfsFd, buf: &mut [u8], offset: u64) -> Result<usize> {
        let t0 = iotrace::global().start();
        let r = fd.read(buf, offset);
        trace_op(t0, || {
            OpEvent::new(Layer::Plfs, OpKind::Read)
                .path(fd.container_path())
                .offset(offset)
                .bytes(*r.as_ref().unwrap_or(&0) as u64)
        });
        r
    }

    /// List-I/O write: one call carries a whole `(logical_offset, len)`
    /// extent vector (see [`PlfsFd::write_list`]).
    pub fn write_list(
        &self,
        fd: &PlfsFd,
        data: &[u8],
        extents: &[(u64, u64)],
        pid: u64,
    ) -> Result<usize> {
        fd.write_list(data, extents, pid)
    }

    /// List-I/O read: one merged-index query serves a whole extent vector
    /// (see [`PlfsFd::read_list`]).
    pub fn read_list(&self, fd: &PlfsFd, data: &mut [u8], extents: &[(u64, u64)]) -> Result<usize> {
        fd.read_list(data, extents)
    }

    /// `plfs_sync`: flush `pid`'s buffered index and sync droppings.
    pub fn sync(&self, fd: &PlfsFd, pid: u64) -> Result<()> {
        let t0 = iotrace::global().start();
        let r = fd.sync(pid);
        trace_op(t0, || {
            OpEvent::new(Layer::Plfs, OpKind::Sync).path(fd.container_path())
        });
        r
    }

    /// `plfs_close`: release one reference; returns remaining refs.
    pub fn close(&self, fd: &PlfsFd, pid: u64) -> Result<u32> {
        fd.close(pid)
    }

    /// `plfs_getattr`: stat a logical path.
    pub fn getattr(&self, path: &str) -> Result<Stat> {
        let bp = self.backend_path(path);
        let e = self.meta_entry(&bp);
        if !e.exists {
            return Err(Error::NotFound(path.to_string()));
        }
        if !e.is_dir {
            return Err(Error::NotContainer(path.to_string()));
        }
        if !e.is_container {
            return Ok(Stat {
                size: 0,
                is_dir: true,
                physical_bytes: 0,
            });
        }
        // Fast path: closed containers answer from meta drops. This
        // process's own writer count answers "is anyone writing?" without
        // listing anything. A cached meta verdict implies the container
        // was closed when probed and no local open/close touched it since
        // (writer close clears it), so a warm getattr skips even the one
        // listing; a writer in *another* process can make that stale until
        // the verdict is locally dropped or evicted — see the
        // cross-process consistency note on [`Conf::meta_cache_entries`].
        let local_writers = if self.conf.meta_cache_enabled() {
            self.cache.local_writers(&bp)
        } else {
            0
        };
        if local_writers == 0 {
            let m = match e.meta {
                Some(m) => m,
                None => self.meta_for(&bp, e)?,
            };
            if let Some((eof, bytes)) = m {
                return Ok(Stat {
                    size: eof,
                    is_dir: false,
                    physical_bytes: bytes,
                });
            }
        }
        // Slow path: merge indices.
        let (idx, droppings) = container::build_global_index(self.backing.as_ref(), &bp)?;
        let mut phys = 0;
        for d in &droppings {
            phys += self.backing.stat(&d.data_path)?.size;
        }
        Ok(Stat {
            size: idx.eof(),
            is_dir: false,
            physical_bytes: phys,
        })
    }

    /// `plfs_access`: does the logical path exist?
    pub fn access(&self, path: &str) -> Result<()> {
        if self.meta_entry(&self.backend_path(path)).exists {
            Ok(())
        } else {
            Err(Error::NotFound(path.to_string()))
        }
    }

    /// `plfs_unlink`: remove a container (or an empty plain file path).
    pub fn unlink(&self, path: &str) -> Result<()> {
        let bp = self.backend_path(path);
        let e = self.meta_entry(&bp);
        if e.is_container {
            let rm = container::remove_container(self.backing.as_ref(), &bp);
            // Removing a container deletes a directory tree; any cached
            // probe of an internal path (hostdirs) dies with it.
            self.meta_invalidate_tree(&bp);
            return rm;
        }
        let r = if !e.exists {
            Err(Error::NotFound(path.to_string()))
        } else if e.is_dir {
            Err(Error::IsDir(path.to_string()))
        } else {
            self.backing.unlink(&bp)
        };
        self.meta_invalidate(&bp);
        r
    }

    /// `plfs_rename`: rename a container or directory within the mount.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let f = self.backend_path(from);
        let t = self.backend_path(to);
        if self.meta_entry(&t).is_container {
            let rm = container::remove_container(self.backing.as_ref(), &t);
            self.meta_invalidate_tree(&t);
            rm?;
        }
        let r = self.backing.rename(&f, &t);
        // Tree-wide: a directory rename moves every descendant, so cached
        // `exists` verdicts under `from` and cached `missing` verdicts
        // under `to` are both stale now.
        self.meta_invalidate_tree(&f);
        self.meta_invalidate_tree(&t);
        r
    }

    /// `plfs_trunc` by path.
    pub fn trunc(&self, path: &str, len: u64) -> Result<()> {
        let t0 = iotrace::global().start();
        let r = self.trunc_backend(&self.backend_path(path), len);
        trace_op(t0, || {
            OpEvent::new(Layer::Plfs, OpKind::Trunc)
                .path(path)
                .bytes(len)
        });
        r
    }

    fn trunc_backend(&self, bp: &str, len: u64) -> Result<()> {
        let r = self.trunc_backend_inner(bp, len);
        // After any trunc attempt the cached size/params/meta info is
        // suspect; drop the whole verdict and let the next probe rebuild it.
        self.meta_invalidate(bp);
        r
    }

    fn trunc_backend_inner(&self, bp: &str, len: u64) -> Result<()> {
        // A missing access file is the "not a container" answer.
        let params = container::read_params(self.backing.as_ref(), bp)?;
        if len == 0 {
            // Drop every dropping — the hostdirs and the top-level pair —
            // and every meta drop; the access file stays, and so do the
            // `open.*` markers of writers still open (theirs to remove).
            let files = [
                container::META_PREFIX,
                container::DATA_PREFIX,
                container::INDEX_PREFIX,
            ];
            for n in self.backing.readdir(bp)? {
                if n.starts_with(container::HOSTDIR_PREFIX) {
                    crate::backing::remove_tree(self.backing.as_ref(), &join(bp, &n))?;
                } else if files.iter().any(|p| n.starts_with(p)) {
                    self.backing.unlink(&join(bp, &n))?;
                }
            }
            return Ok(());
        }
        // Shrink/extend to a nonzero length: rewrite the logical prefix into
        // a fresh dropping set. Simpler than physically trimming shared logs
        // and matches observable POSIX semantics.
        let reader = crate::reader::ReadFile::open(self.backing.as_ref(), bp)?;
        let keep = reader.eof().min(len) as usize;
        let mut data = vec![0u8; keep];
        if keep > 0 {
            reader.pread(self.backing.as_ref(), &mut data, 0)?;
        }
        drop(reader);
        self.trunc_backend(bp, 0)?;
        let mut w = crate::writer::WriteFile::open(
            self.backing.as_ref(),
            bp,
            &params,
            0,
            self.conf.index_buffer_entries,
        )?;
        if !data.is_empty() {
            w.write(&data, 0)?;
        }
        if (len as usize) > keep {
            // Extend with an explicit zero tail marker: write one zero byte
            // at len-1 so EOF lands at len (holes read as zeros).
            w.write(&[0], len - 1)?;
        }
        w.sync()?;
        container::drop_meta(self.backing.as_ref(), bp, len, data.len() as u64, 0, w.seq)
    }

    /// `plfs_mkdir`: create a plain directory inside the mount.
    pub fn mkdir(&self, path: &str) -> Result<()> {
        let bp = self.backend_path(path);
        let r = self.backing.mkdir(&bp);
        self.meta_invalidate(&bp);
        r
    }

    /// `plfs_rmdir`: remove an empty plain directory.
    pub fn rmdir(&self, path: &str) -> Result<()> {
        let bp = self.backend_path(path);
        if self.meta_entry(&bp).is_container {
            return Err(Error::NotDir(path.to_string()));
        }
        let r = self.backing.rmdir(&bp);
        self.meta_invalidate(&bp);
        r
    }

    /// `plfs_readdir`: list a mount directory; containers appear as files.
    /// Each child's verdict lands in the metadata cache, so a readdir warms
    /// subsequent opens/stats of everything it listed.
    pub fn readdir(&self, path: &str) -> Result<Vec<Dirent>> {
        let bp = self.backend_path(path);
        if self.meta_entry(&bp).is_container {
            return Err(Error::NotDir(path.to_string()));
        }
        let mut out = Vec::new();
        for name in self.backing.readdir(&bp)? {
            let child = join(&bp, &name);
            let e = self.meta_entry(&child);
            if !e.exists {
                // The child vanished between the listing and the probe.
                return Err(Error::NotFound(child));
            }
            out.push(Dirent {
                name,
                is_dir: e.is_dir && !e.is_container,
            });
        }
        Ok(out)
    }

    /// Is the logical path a PLFS container?
    pub fn is_container(&self, path: &str) -> bool {
        self.meta_entry(&self.backend_path(path)).is_container
    }

    /// Fold a container's droppings into one flattened dropping pair in
    /// place (see [`crate::flatten::compact_container`]). Fails with
    /// [`Error::InvalidArg`] while writers hold the container open.
    pub fn compact(&self, path: &str) -> Result<crate::flatten::CompactStats> {
        let bp = self.backend_path(path);
        let r = crate::flatten::compact_container(self.backing.as_ref(), &bp);
        // Dropping layout and meta drops changed; re-derive fast stat.
        self.meta_invalidate(&bp);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;

    fn plfs() -> Plfs {
        Plfs::new(Arc::new(MemBacking::new()))
    }

    const CREATE_RW: OpenFlags = OpenFlags(0o2 | 0o100); // RDWR|CREAT

    #[test]
    fn open_create_write_read_close() {
        let p = plfs();
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        assert_eq!(p.write(&fd, b"data", 0, 1).unwrap(), 4);
        let mut buf = [0u8; 4];
        assert_eq!(p.read(&fd, &mut buf, 0).unwrap(), 4);
        assert_eq!(&buf, b"data");
        assert_eq!(p.close(&fd, 1).unwrap(), 0);
        assert_eq!(p.getattr("/f").unwrap().size, 4);
    }

    #[test]
    fn compact_folds_container_and_keeps_getattr_fresh() {
        let p = plfs();
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        for pid in [1u64, 2, 3] {
            if pid != 1 {
                fd.add_ref(pid);
            }
            p.write(&fd, &[pid as u8; 10], (pid - 1) * 10, pid).unwrap();
        }
        for pid in [1u64, 2, 3] {
            p.close(&fd, pid).unwrap();
        }
        // Warm the fast-stat cache so compact() must invalidate it.
        assert_eq!(p.getattr("/f").unwrap().size, 30);
        let stats = p.compact("/f").unwrap();
        assert_eq!(stats.droppings_before, 3);
        assert_eq!(stats.droppings_after, 1);
        assert_eq!(p.getattr("/f").unwrap().size, 30);
        let fd = p.open("/f", OpenFlags::RDONLY, 1).unwrap();
        let mut buf = [0u8; 30];
        assert_eq!(p.read(&fd, &mut buf, 0).unwrap(), 30);
        for pid in [1u8, 2, 3] {
            assert!(buf[(pid as usize - 1) * 10..pid as usize * 10]
                .iter()
                .all(|&x| x == pid));
        }
    }

    #[test]
    fn compact_rejects_non_container_and_open_writers() {
        let p = plfs();
        p.mkdir("/dir").unwrap();
        assert!(matches!(p.compact("/dir"), Err(Error::NotContainer(_))));
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        p.write(&fd, b"a", 0, 1).unwrap();
        p.sync(&fd, 1).unwrap();
        assert!(matches!(p.compact("/f"), Err(Error::InvalidArg(_))));
        p.close(&fd, 1).unwrap();
    }

    #[test]
    fn open_without_create_fails_on_missing() {
        let p = plfs();
        assert!(matches!(
            p.open("/missing", OpenFlags::RDONLY, 1),
            Err(Error::NotFound(_))
        ));
    }

    #[test]
    fn open_excl_fails_on_existing() {
        let p = plfs();
        p.create("/f", true).unwrap();
        let flags = OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::EXCL;
        assert!(matches!(p.open("/f", flags, 1), Err(Error::Exists(_))));
    }

    #[test]
    fn open_trunc_clears_content() {
        let p = plfs();
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        p.write(&fd, b"old content", 0, 1).unwrap();
        p.close(&fd, 1).unwrap();
        let flags = OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::TRUNC;
        let fd = p.open("/f", flags, 1).unwrap();
        assert_eq!(fd.size().unwrap(), 0);
        p.close(&fd, 1).unwrap();
    }

    /// Regression: an O_TRUNC open must not resurrect the pre-truncate
    /// fast-stat verdict. The stale path was: getattr warms `meta` (params
    /// still unfilled), the trunc-open invalidates, then params_for
    /// reinstalled the captured entry — old `meta` included — and the next
    /// getattr reported the pre-truncate size.
    #[test]
    fn open_trunc_drops_cached_fast_stat() {
        let p = plfs();
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        p.write(&fd, b"hello", 0, 1).unwrap();
        p.close(&fd, 1).unwrap();
        // A same-length path trunc drops the create-time verdict, so the
        // getattr below rebuilds the entry from a probe: meta filled,
        // params still lazy — the exact shape that resurrected.
        p.trunc("/f", 5).unwrap();
        assert_eq!(p.getattr("/f").unwrap().size, 5);
        let flags = OpenFlags::RDWR | OpenFlags::TRUNC;
        let fd = p.open("/f", flags, 1).unwrap();
        p.close(&fd, 1).unwrap();
        assert_eq!(p.getattr("/f").unwrap().size, 0, "stale pre-truncate size");
    }

    /// Regression: rename of a directory must invalidate cached verdicts
    /// for every descendant, not just the two endpoint paths — both warm
    /// `exists` verdicts under the old name and warm `missing` verdicts
    /// under the new one.
    #[test]
    fn rename_directory_invalidates_descendant_verdicts() {
        let p = plfs();
        p.mkdir("/d").unwrap();
        let fd = p.open("/d/f", CREATE_RW, 1).unwrap();
        p.write(&fd, b"x", 0, 1).unwrap();
        p.close(&fd, 1).unwrap();
        p.access("/d/f").unwrap(); // warm exists=true under /d
        assert!(p.access("/e/f").is_err()); // warm exists=false under /e
        p.rename("/d", "/e").unwrap();
        assert!(
            p.access("/d/f").is_err(),
            "stale exists verdict under renamed-away dir"
        );
        p.access("/e/f").unwrap();
        assert_eq!(p.getattr("/e/f").unwrap().size, 1);
        assert!(p.is_container("/e/f"));
    }

    #[test]
    fn getattr_fast_path_after_close() {
        let p = plfs();
        let fd = p.open("/f", CREATE_RW, 5).unwrap();
        p.write(&fd, &[7u8; 1000], 0, 5).unwrap();
        p.close(&fd, 5).unwrap();
        let st = p.getattr("/f").unwrap();
        assert_eq!(st.size, 1000);
        assert_eq!(st.physical_bytes, 1000);
        assert!(!st.is_dir);
    }

    #[test]
    fn getattr_on_plain_dir() {
        let p = plfs();
        p.mkdir("/d").unwrap();
        let st = p.getattr("/d").unwrap();
        assert!(st.is_dir);
    }

    #[test]
    fn unlink_removes_container() {
        let p = plfs();
        p.create("/f", true).unwrap();
        p.unlink("/f").unwrap();
        assert!(p.access("/f").is_err());
    }

    #[test]
    fn rename_replaces_destination() {
        let p = plfs();
        let fd = p.open("/a", CREATE_RW, 1).unwrap();
        p.write(&fd, b"A", 0, 1).unwrap();
        p.close(&fd, 1).unwrap();
        p.create("/b", true).unwrap();
        p.rename("/a", "/b").unwrap();
        assert!(p.access("/a").is_err());
        assert_eq!(p.getattr("/b").unwrap().size, 1);
    }

    #[test]
    fn trunc_to_zero_empties_but_keeps_container() {
        let p = plfs();
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        p.write(&fd, &[1u8; 100], 0, 1).unwrap();
        p.close(&fd, 1).unwrap();
        p.trunc("/f", 0).unwrap();
        assert!(p.is_container("/f"));
        assert_eq!(p.getattr("/f").unwrap().size, 0);
    }

    #[test]
    fn trunc_shrinks_content() {
        let p = plfs();
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        p.write(&fd, b"0123456789", 0, 1).unwrap();
        p.close(&fd, 1).unwrap();
        p.trunc("/f", 4).unwrap();
        let fd = p.open("/f", OpenFlags::RDONLY, 1).unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(p.read(&fd, &mut buf, 0).unwrap(), 4);
        assert_eq!(&buf[..4], b"0123");
    }

    #[test]
    fn trunc_extends_with_zero_fill() {
        let p = plfs();
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        p.write(&fd, b"ab", 0, 1).unwrap();
        p.close(&fd, 1).unwrap();
        p.trunc("/f", 6).unwrap();
        assert_eq!(p.getattr("/f").unwrap().size, 6);
        let fd = p.open("/f", OpenFlags::RDONLY, 1).unwrap();
        let mut buf = [0xffu8; 6];
        assert_eq!(p.read(&fd, &mut buf, 0).unwrap(), 6);
        assert_eq!(&buf, b"ab\0\0\0\0");
    }

    #[test]
    fn readdir_shows_containers_as_files() {
        let p = plfs();
        p.mkdir("/sub").unwrap();
        p.create("/file1", true).unwrap();
        let mut ents = p.readdir("/").unwrap();
        ents.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(ents.len(), 2);
        assert_eq!(ents[0].name, "file1");
        assert!(!ents[0].is_dir);
        assert_eq!(ents[1].name, "sub");
        assert!(ents[1].is_dir);
    }

    #[test]
    fn readdir_of_container_is_notdir() {
        let p = plfs();
        p.create("/f", true).unwrap();
        assert!(matches!(p.readdir("/f"), Err(Error::NotDir(_))));
    }

    #[test]
    fn open_plain_dir_as_file_fails() {
        let p = plfs();
        p.mkdir("/d").unwrap();
        assert!(matches!(
            p.open("/d", OpenFlags::RDONLY, 1),
            Err(Error::IsDir(_))
        ));
    }

    // --- metadata fast path -------------------------------------------------

    use crate::conf::Conf;
    use crate::meter::MeterBacking;

    fn metered_plfs(conf: Conf) -> (Arc<MeterBacking>, Plfs) {
        let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
        let p = Plfs::new(meter.clone() as Arc<dyn Backing>).with_conf(conf);
        (meter, p)
    }

    /// The op-count regression test the issue pins: a warm reopen must cost
    /// ZERO backing metadata ops, and the cached path must beat the serial
    /// (cache-off) path by at least 3x on reopen.
    #[test]
    fn reopen_metadata_ops_pinned() {
        let (meter, p) = metered_plfs(Conf::default());
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        p.write(&fd, b"x", 0, 1).unwrap();
        p.close(&fd, 1).unwrap();

        let before = meter.snapshot();
        let fd = p.open("/f", OpenFlags::RDONLY, 1).unwrap();
        let warm = meter.snapshot().delta(&before);
        p.close(&fd, 1).unwrap();
        assert_eq!(
            warm.metadata_ops(),
            0,
            "warm reopen must cost zero backing metadata ops: {warm:?}"
        );

        // The same reopen with the cache off (pre-fast-path behaviour):
        // stat + marker exists + access-file open + size.
        let (meter, p) = metered_plfs(Conf {
            meta_cache_entries: 0,
            ..Conf::default()
        });
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        p.write(&fd, b"x", 0, 1).unwrap();
        p.close(&fd, 1).unwrap();
        let before = meter.snapshot();
        let fd = p.open("/f", OpenFlags::RDONLY, 1).unwrap();
        let serial = meter.snapshot().delta(&before);
        p.close(&fd, 1).unwrap();
        assert_eq!(serial.stat, 1);
        assert_eq!(serial.exists, 1);
        assert_eq!(serial.open, 1);
        assert_eq!(serial.size, 1);
        assert_eq!(
            serial.metadata_ops(),
            4,
            "serial reopen cost moved: {serial:?}"
        );
        assert!(
            serial.metadata_ops() >= 3 * warm.metadata_ops().max(1) - 2,
            "cached reopen must be at least 3x cheaper"
        );
    }

    /// The create-open path reads the access file zero times beyond the
    /// create itself: create_container returns the params it wrote.
    #[test]
    fn create_open_skips_params_reread() {
        let (meter, p) = metered_plfs(Conf::default());
        let before = meter.snapshot();
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        let d = meter.snapshot().delta(&before);
        p.close(&fd, 1).unwrap();
        // The container skeleton and nothing else: mkdir + access-file
        // create. No probe before the mkdir (its answer is the probe), no
        // open() of the access file to re-read the params just written.
        assert_eq!((d.mkdir, d.create), (1, 1));
        assert_eq!(d.metadata_ops(), 2, "{d:?}");
        // O_CREAT over a container nothing is cached about: the mkdir's
        // EEXIST, then the access file's open + size.
        let (meter, other) = (meter.clone(), Plfs::new(meter as Arc<dyn Backing>));
        let before = meter.snapshot();
        let fd = other.open("/f", CREATE_RW, 2).unwrap();
        let d = meter.snapshot().delta(&before);
        other.close(&fd, 2).unwrap();
        assert_eq!((d.mkdir, d.open, d.size), (1, 1, 1));
        assert_eq!(d.metadata_ops(), 3, "{d:?}");
    }

    /// What is in the way of an `O_CREAT` decides the errno — and with
    /// `O_EXCL` it is `EEXIST` whatever it is (regression: a plain
    /// directory answered `EISDIR`).
    #[test]
    fn create_over_something_else_reports_the_posix_errno() {
        let excl = CREATE_RW | OpenFlags::EXCL;
        for cached in [false, true] {
            let p = plfs();
            p.mkdir("/d").unwrap();
            // Not empty, so not mistaken for a container being created.
            p.backing().create("/d/notes", true).unwrap();
            p.backing().create("/plain", true).unwrap();
            p.create("/c", true).unwrap();
            if cached {
                for path in ["/d", "/plain", "/c"] {
                    p.access(path).unwrap();
                }
            } else {
                p.meta_invalidate("/c");
            }
            for path in ["/d", "/plain", "/c"] {
                let r = p.open(path, excl, 1);
                assert!(matches!(r, Err(Error::Exists(_))), "{path}: {:?}", r.err());
            }
            let r = p.open("/d", CREATE_RW, 1);
            assert!(matches!(r, Err(Error::IsDir(_))), "{:?}", r.err());
            let r = p.open("/plain", CREATE_RW, 1);
            assert!(matches!(r, Err(Error::NotContainer(_))), "{:?}", r.err());
            let r = p.open("/missing/f", CREATE_RW, 1);
            assert!(matches!(r, Err(Error::NotFound(_))), "{:?}", r.err());
            p.close(&p.open("/c", CREATE_RW, 1).unwrap(), 1).unwrap();
        }
    }

    /// getattr/access of a warm closed container are also metadata-free.
    #[test]
    fn warm_getattr_and_access_cost_zero_backing_ops() {
        let (meter, p) = metered_plfs(Conf::default());
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        p.write(&fd, b"hello", 0, 1).unwrap();
        p.close(&fd, 1).unwrap();
        assert_eq!(p.getattr("/f").unwrap().size, 5); // fills the meta field
        let before = meter.snapshot();
        assert_eq!(p.getattr("/f").unwrap().size, 5);
        p.access("/f").unwrap();
        assert!(p.is_container("/f"));
        let d = meter.snapshot().delta(&before);
        assert_eq!(
            d.metadata_ops() + d.data_ops(),
            0,
            "warm getattr/access must not touch the backing: {d:?}"
        );
    }

    /// Serial (cache-off) conf must behave exactly like the pre-cache code.
    #[test]
    fn serial_conf_disables_cache_entirely() {
        let (meter, p) = metered_plfs(Conf {
            meta_cache_entries: 0,
            ..Conf::default()
        });
        p.create("/f", true).unwrap();
        let before = meter.snapshot();
        p.access("/f").unwrap();
        p.access("/f").unwrap();
        let d = meter.snapshot().delta(&before);
        assert_eq!(d.stat, 2, "cache off: every access re-probes");
        assert_eq!(p.meta_cache_counters(), (0, 0));
    }

    /// Stress: racing open/write/close/unlink/getattr on the same paths must
    /// never let the cache serve a stale verdict. After the dust settles the
    /// paths are unlinked, and a stale `is_container` would surface here.
    #[test]
    fn concurrent_open_unlink_never_serves_stale_verdicts() {
        use std::thread;
        let p = Arc::new(plfs());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let p = Arc::clone(&p);
            handles.push(thread::spawn(move || {
                let path = format!("/shared{}", t % 2); // two threads per path
                for i in 0..200 {
                    match p.open(&path, CREATE_RW, t) {
                        Ok(fd) => {
                            let _ = p.write(&fd, b"payload", 0, t);
                            let _ = p.close(&fd, t);
                        }
                        Err(
                            Error::NotContainer(_)
                            | Error::Corrupt(_)
                            | Error::NotFound(_)
                            | Error::Exists(_)
                            // A container mid-removal (marker unlinked,
                            // directory still standing) legitimately
                            // probes as a plain directory.
                            | Error::IsDir(_)
                            | Error::NotEmpty(_),
                        ) => {
                            // Lost a race with a half-removed or
                            // half-created container.
                        }
                        Err(e) => panic!("unexpected open error: {e:?}"),
                    }
                    let _ = p.getattr(&path); // exercise the cached stat path
                    let _ = p.access(&path);
                    if i % 3 == t as usize % 3 {
                        let _ = p.unlink(&path);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Racing create/remove may leave a marker-less plain directory
        // behind (remove_container lost its rmdir race), so the paths may
        // or may not exist — what must hold is that the cached view agrees
        // with an uncached probe of the very same backing.
        let serial = Plfs::new(p.backing().clone()).with_conf(Conf {
            meta_cache_entries: 0,
            ..Conf::default()
        });
        for path in ["/shared0", "/shared1"] {
            let _ = p.unlink(path);
            assert_eq!(
                p.access(path).is_ok(),
                serial.access(path).is_ok(),
                "stale exists verdict for {path}"
            );
            assert_eq!(
                p.is_container(path),
                serial.is_container(path),
                "stale container verdict for {path}"
            );
            assert_eq!(
                p.getattr(path).ok(),
                serial.getattr(path).ok(),
                "stale stat verdict for {path}"
            );
        }
    }
}
