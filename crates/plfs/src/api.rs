//! The PLFS API: the Rust analogue of `plfs.h`.
//!
//! [`Plfs`] represents one mounted PLFS file system: a backing store plus
//! its container metadata cache. Method names and semantics track the C
//! entry points from the paper's Listing 1 (`plfs_open`, `plfs_read`,
//! `plfs_write`, …): positional I/O naming the fd's pid, no cursors — cursor
//! bookkeeping is exactly what the LDPLFS shim adds on top.
//!
//! Paths passed to these methods are *mount-relative* logical paths
//! (`/checkpoint/dump.0001`), mapped onto backend paths internally.

use crate::backing::{join, Backing};
use crate::container;
use crate::error::{Error, Result};
use crate::fd::PlfsFd;
use crate::flags::OpenFlags;
use crate::meta::{MetaCache, MetaEntry};
use iotrace::{Layer, OpEvent, OpKind};
use std::borrow::Cow;
use std::sync::Arc;
use std::time::Instant;

/// Close a trace span opened with `iotrace::global().start()` (no-op when
/// tracing was off at span start).
fn trace_op<'a>(t0: Option<Instant>, ev: impl FnOnce() -> OpEvent<'a>) {
    if let Some(t0) = t0 {
        iotrace::global().record(t0, ev());
    }
}

/// The C API names a pid on every write, sync and close; an fd writes
/// under one, so any other is a caller's mistake, not a new writer.
fn owned(fd: &PlfsFd, pid: u64) -> Result<()> {
    match fd.pid() == pid {
        true => Ok(()),
        false => Err(Error::BadMode("pid is not the fd's")),
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
    cache: Arc<MetaCache>,
}

/// Verdicts the container metadata cache holds. The cache is per mount,
/// so per process under the preload: a warm `getattr` here does not see
/// another *process*'s writes to a container until its verdict is
/// dropped (by this process's own mutation of the path) or evicted;
/// same-process stats are always exact. A verdict a creator's close
/// installs (DESIGN.md §12, "The closed creator's verdict") is warm from
/// the close on, with the same staleness: a writer of another process
/// whose first write comes after the close — even one that opened the
/// file before it — is not seen until the verdict goes.
pub(crate) const META_CACHE_ENTRIES: usize = 4096;

/// Lock shards of the container metadata cache.
const META_SHARDS: usize = 16;

impl Plfs {
    /// Mount over a backing store.
    pub fn new(backing: Arc<dyn Backing>) -> Plfs {
        Plfs {
            backing,
            cache: Arc::new(MetaCache::new(META_CACHE_ENTRIES, META_SHARDS)),
        }
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

    /// Nothing: a container has no parameters. Kept, with
    /// [`crate::WriteFile::open`]'s argument it fills, for the benchmark
    /// harness, which passes one to the other.
    pub fn defaults(&self) {}

    fn backend_path<'a>(&self, logical: &'a str) -> Cow<'a, str> {
        // Mount-relative logical path == backend-relative path; normalisation
        // happens in the backing.
        if logical.starts_with('/') {
            Cow::Borrowed(logical)
        } else {
            Cow::Owned(join("/", logical))
        }
    }

    /// One backing probe for a path's verdict: the marker rule,
    /// [`container::probe`]. The access file and meta drops are *not* read
    /// here — [`Plfs::check_marker`] / [`Plfs::meta_for`] read them lazily,
    /// so `getattr`/`access` never pay for fields they do not need — except
    /// for a container its creator's dropping marks: it has no access file
    /// to check, and, for a `getattr` (`stat`), the listing that found the
    /// dropping answers what [`Plfs::meta_for`] would list for, and whether
    /// it holds the creator's pair alone.
    fn probe_meta(&self, bp: &str, stat: bool) -> MetaEntry {
        let found = container::probe(self.backing.as_ref(), bp);
        let mut e = MetaEntry {
            exists: found.exists,
            is_dir: found.is_dir,
            is_container: found.marker.is_some(),
            ..MetaEntry::default()
        };
        if found.marker == Some(container::Marker::Dropping) {
            e.checked = true;
            if let (true, Some(names)) = (stat, &found.names) {
                e.alone = container::creator_alone(names);
                // Only a closed container's answer is kept, as meta_for keeps it.
                if let (0, m) = container::lifecycle(names) {
                    e.meta = Some(m);
                }
            }
        }
        e
    }

    /// The cached verdict for a backend path, if the cache holds one.
    fn cached_entry(&self, bp: &str) -> Option<MetaEntry> {
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
    /// stale verdict behind. With `stat`, the verdict carries a closed
    /// container's fast-stat answer if the probe came by it.
    fn probed_entry(&self, bp: &str, stat: bool) -> MetaEntry {
        let t0 = iotrace::global().start();
        let generation = self.cache.begin_fill(bp);
        let e = self.probe_meta(bp, stat);
        self.cache.complete_fill(bp, generation, e);
        trace_op(t0, || {
            OpEvent::new(Layer::Plfs, OpKind::MetaCacheMiss).path(bp)
        });
        e
    }

    /// Cached (or freshly probed) verdict for a backend path.
    fn meta_entry(&self, bp: &str) -> MetaEntry {
        self.cached_entry(bp)
            .unwrap_or_else(|| self.probed_entry(bp, false))
    }

    /// Check the marker of the container at `bp` once per verdict: its
    /// access file's text ([`container::validate_marker`]); a warm verdict
    /// that says it was checked answers at once.
    fn check_marker(&self, bp: &str, e: MetaEntry) -> Result<()> {
        if e.checked {
            return Ok(());
        }
        let generation = self.cache.begin_fill(bp);
        container::validate_marker(self.backing.as_ref(), bp)?;
        let e = MetaEntry { checked: true, ..e };
        self.cache.complete_fill(bp, generation, e);
        Ok(())
    }

    /// Fast-stat info from the container's `meta.*` drops, or `None` while
    /// some process's open marker stands beside them — both read off one
    /// listing of the container directory. The closed-container answer is
    /// cached, with whether the listing held the creator's pair alone;
    /// writer close clears both.
    fn meta_for(&self, bp: &str, e: MetaEntry) -> Result<Option<(u64, u64)>> {
        let generation = self.cache.begin_fill(bp);
        let names = container::list_container(self.backing.as_ref(), bp)?;
        let (writers, m) = container::lifecycle(&names);
        if writers > 0 {
            return Ok(None);
        }
        let alone = container::creator_alone(&names);
        let e = MetaEntry {
            meta: Some(m),
            alone,
            ..e
        };
        self.cache.complete_fill(bp, generation, e);
        Ok(m)
    }

    /// Install the verdict for a just-created container so the creating
    /// process reopens it warm, without a single backing probe.
    fn meta_install(&self, bp: &str) {
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
                checked: true,
                ..MetaEntry::default()
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
        let bp = self.backend_path(path);
        let creator = match self.cached_entry(&bp) {
            // Nothing known about the path and the caller would create it:
            // the `mkdir` is the probe.
            None if flags.create() => self.create_for_open(&bp, path, flags)?,
            cached => {
                let e = cached.unwrap_or_else(|| self.probed_entry(&bp, false));
                if e.exists && flags.create() && flags.excl() {
                    return Err(Error::Exists(path.to_string()));
                }
                if e.is_container {
                    // The check first: the truncate drops the whole
                    // verdict, which filling it afterwards from the
                    // pre-truncate entry would resurrect, old fast-stat
                    // size included.
                    self.check_marker(&bp, e)?;
                    if flags.trunc() {
                        self.trunc_backend(&bp, 0)?;
                    }
                    None
                } else if flags.create() && (!e.exists || e.is_dir) {
                    // Missing — or a directory with no marker, which is a
                    // plain directory or a container another process is
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
        // Finished in place: the fd is over a kilobyte, moved once.
        let mut fd = Arc::new(PlfsFd::new(
            self.backing.clone(),
            bp.into_owned(),
            flags,
            Arc::clone(&self.cache),
            pid,
        ));
        if let Some(dropping) = creator {
            let new = Arc::get_mut(&mut fd).expect("nothing else holds a new fd");
            new.set_creator(dropping);
        }
        Ok(fd)
    }

    /// The creating half of an `O_CREAT` open: make the container or join
    /// the one that is there (`O_TRUNC` then empties it), and install the
    /// verdict, marker checked, with no re-read of the access file. A
    /// writable open that makes it is its creator: `mkdir` + the data
    /// dropping of its first writer, in place of the access file. On an
    /// existing container `mkdir` (`EEXIST`) + the access file's `open`
    /// (and one read), or its failure and the `stat` that finds the
    /// creator's dropping. Only a failure pays for a probe, to report the
    /// precise errno for what is in the way.
    fn create_for_open(
        &self,
        bp: &str,
        path: &str,
        flags: OpenFlags,
    ) -> Result<Option<container::CreatorDropping>> {
        let b = self.backing.as_ref();
        match container::create_container_as(b, bp, flags.excl(), flags.writable()) {
            Ok((how, dropping)) => {
                if how == container::Creation::Joined && flags.trunc() {
                    self.trunc_backend(bp, 0)?;
                }
                self.meta_install(bp);
                Ok(dropping)
            }
            // POSIX: O_CREAT|O_EXCL is EEXIST whatever is in the way.
            Err(Error::Exists(_)) if flags.excl() => Err(Error::Exists(path.to_string())),
            Err(err) => {
                let e = self.probe_meta(bp, false);
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
        container::create_container(self.backing.as_ref(), &bp, excl)?;
        self.meta_install(&bp);
        Ok(())
    }

    /// `plfs_write`: positional write; `pid` must be the fd's
    /// ([`Plfs::open`]'s, or a forked child's).
    pub fn write(&self, fd: &PlfsFd, buf: &[u8], offset: u64, pid: u64) -> Result<usize> {
        let t0 = iotrace::global().start();
        let r = owned(fd, pid).and_then(|()| fd.write(buf, offset));
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

    /// `plfs_sync`: flush the fd's buffered index and sync its droppings;
    /// `pid` must be the fd's.
    pub fn sync(&self, fd: &PlfsFd, pid: u64) -> Result<()> {
        let t0 = iotrace::global().start();
        let r = owned(fd, pid).and_then(|()| fd.sync());
        trace_op(t0, || {
            OpEvent::new(Layer::Plfs, OpKind::Sync).path(fd.container_path())
        });
        r
    }

    /// `plfs_close`: release one reference; returns remaining refs. `pid`
    /// must be the fd's.
    pub fn close(&self, fd: &PlfsFd, pid: u64) -> Result<u32> {
        owned(fd, pid).and_then(|()| fd.close())
    }

    /// `plfs_getattr`: stat a logical path.
    pub fn getattr(&self, path: &str) -> Result<Stat> {
        let bp = self.backend_path(path);
        let e = self
            .cached_entry(&bp)
            .unwrap_or_else(|| self.probed_entry(&bp, true));
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
        // cross-process consistency note on [`META_CACHE_ENTRIES`].
        if self.cache.local_writers(&bp) == 0 {
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

    /// `plfs_unlink`: remove a container (or an empty plain file path). A
    /// container whose latest listing held its creator's pair alone, with
    /// no writer of this process on it, is removed by the two names that
    /// listing showed, with no listing of its own
    /// ([`container::remove_creator_alone`]).
    pub fn unlink(&self, path: &str) -> Result<()> {
        let bp = self.backend_path(path);
        let e = self.meta_entry(&bp);
        if e.is_container {
            let b = self.backing.as_ref();
            let rm = match e.alone {
                Some(closed) if self.cache.local_writers(&bp) == 0 => {
                    container::remove_creator_alone(b, &bp, closed)
                }
                _ => container::remove_container(b, &bp),
            };
            // Removing a container deletes a directory tree; any cached
            // probe of an internal path (hostdirs) dies with it.
            self.cache.invalidate_tree(&bp);
            return rm;
        }
        let r = if !e.exists {
            Err(Error::NotFound(path.to_string()))
        } else if e.is_dir {
            Err(Error::IsDir(path.to_string()))
        } else {
            self.backing.unlink(&bp)
        };
        self.cache.invalidate(&bp);
        r
    }

    /// `plfs_rename`: rename a container or directory within the mount.
    pub fn rename(&self, from: &str, to: &str) -> Result<()> {
        let f = self.backend_path(from);
        let t = self.backend_path(to);
        if self.meta_entry(&t).is_container {
            let rm = container::remove_container(self.backing.as_ref(), &t);
            self.cache.invalidate_tree(&t);
            rm?;
        }
        let r = self.backing.rename(&f, &t);
        // Tree-wide: a directory rename moves every descendant, so cached
        // `exists` verdicts under `from` and cached `missing` verdicts
        // under `to` are both stale now.
        self.cache.invalidate_tree(&f);
        self.cache.invalidate_tree(&t);
        r
    }

    /// `plfs_trunc` by path.
    pub fn trunc(&self, path: &str, len: u64) -> Result<()> {
        let t0 = iotrace::global().start();
        let bp = self.backend_path(path);
        let e = self.meta_entry(&bp);
        let r = if e.is_container {
            self.check_marker(&bp, e)
                .and_then(|()| self.trunc_backend(&bp, len))
        } else {
            Err(Error::NotContainer(path.to_string()))
        };
        trace_op(t0, || {
            OpEvent::new(Layer::Plfs, OpKind::Trunc)
                .path(path)
                .bytes(len)
        });
        r
    }

    /// Truncate the container at `bp`.
    fn trunc_backend(&self, bp: &str, len: u64) -> Result<()> {
        let r = self.trunc_backend_inner(bp, len);
        // After any trunc attempt the cached size/marker/meta info is
        // suspect; drop the whole verdict and let the next probe rebuild it.
        self.cache.invalidate(bp);
        r
    }

    fn trunc_backend_inner(&self, bp: &str, len: u64) -> Result<()> {
        let b = self.backing.as_ref();
        if len == 0 {
            // Drop the merged index first, then every dropping — the
            // hostdirs and the top-level pair — and every meta drop; the
            // access file stays, and so do the
            // `open.*` markers of writers still open (theirs to remove).
            // So does the creator's data dropping while it has no index
            // and no bytes: its writer, if it has one yet, has written
            // nothing, so all it will write comes after this truncate.
            // Removing any other, the last marker of a container it alone
            // marks, first gives the container its access file.
            let files = [
                container::META_PREFIX,
                container::DATA_PREFIX,
                container::INDEX_PREFIX,
            ];
            let names = b.readdir(bp)?;
            let has = |name: &str| names.iter().any(|n| n == name);
            let creator_indexed = names.iter().any(|n| {
                container::parse_index_name(n)
                    .is_some_and(|(pair, _)| pair == container::CREATOR_PAIR)
            });
            let keep_creator = has(container::CREATOR_DATA)
                && !creator_indexed
                && b.stat(&join(bp, container::CREATOR_DATA))
                    .is_ok_and(|st| st.size == 0);
            if has(container::CREATOR_DATA) && !keep_creator && !has(container::ACCESS_FILE) {
                container::publish_access_file(b, bp)?;
            }
            container::remove_merged(b, bp, &names)?;
            for n in &names {
                if n.starts_with(container::HOSTDIR_PREFIX) {
                    crate::backing::remove_tree(b, &join(bp, n))?;
                } else if files.iter().any(|p| n.starts_with(p))
                    && !(keep_creator && n == container::CREATOR_DATA)
                {
                    b.unlink(&join(bp, n))?;
                }
            }
            return Ok(());
        }
        // Shrink/extend to a nonzero length: rewrite the kept prefix into a
        // fresh dropping pair. Simpler than physically trimming shared logs
        // and matches observable POSIX semantics.
        crate::flatten::rewrite(b, bp, &crate::reader::ReadFile::open(b, bp)?, len)
    }

    /// `plfs_mkdir`: create a plain directory inside the mount.
    pub fn mkdir(&self, path: &str) -> Result<()> {
        let bp = self.backend_path(path);
        let r = self.backing.mkdir(&bp);
        self.cache.invalidate(&bp);
        r
    }

    /// `plfs_rmdir`: remove an empty plain directory.
    pub fn rmdir(&self, path: &str) -> Result<()> {
        let bp = self.backend_path(path);
        if self.meta_entry(&bp).is_container {
            return Err(Error::NotDir(path.to_string()));
        }
        let r = self.backing.rmdir(&bp);
        self.cache.invalidate(&bp);
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
        self.cache.invalidate(&bp);
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
        for pid in [1u64, 2, 3] {
            let fd = p.open("/f", CREATE_RW, pid).unwrap();
            p.write(&fd, &[pid as u8; 10], (pid - 1) * 10, pid).unwrap();
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

    /// Regression: a pid that never opened the fd got a writer of its own,
    /// which the fd's last close neither synced nor closed, so its bytes
    /// stayed unindexed until the fd dropped.
    #[test]
    fn a_pid_other_than_the_fds_is_bad_mode() {
        let p = plfs();
        let fd = p.open("/f", CREATE_RW, 0).unwrap();
        p.write(&fd, b"zero", 0, 0).unwrap();
        let listed = || container::list_droppings(p.backing().as_ref(), "/f").unwrap();
        let before = listed();
        let bad = |r: Result<_>| matches!(r, Err(Error::BadMode(_)));
        assert!(bad(p.write(&fd, b"one", 4, 1).map(drop)));
        assert!(bad(p.sync(&fd, 1)));
        assert!(bad(p.close(&fd, 1).map(drop)));
        assert_eq!(listed(), before, "no writer for pid 1");
        assert_eq!(p.close(&fd, 0).unwrap(), 0);
        assert_eq!(p.getattr("/f").unwrap().size, 4);
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
    /// fast-stat verdict. The stale path was: getattr warms `meta` (marker
    /// still unchecked), the trunc-open invalidates, then the check
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
        // the check still lazy — the exact shape that resurrected.
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
    fn unlink_of_a_container_drops_verdicts_probed_inside_it() {
        let p = plfs();
        for (pid, byte) in [(1, b"x"), (2, b"y")] {
            // The creator's pair, then a hostdir's.
            let fd = p.open("/c", CREATE_RW, pid).unwrap();
            p.write(&fd, byte, pid - 1, pid).unwrap();
            p.close(&fd, pid).unwrap();
        }
        let names = p.backing().readdir("/c").unwrap();
        let hostdir = names.iter().find(|n| n.starts_with("hostdir."));
        let inside = join("/c", hostdir.unwrap());
        p.access(&inside).unwrap(); // a verdict probed inside the container
        let (hits, _) = p.meta_cache_counters();
        p.access(&inside).unwrap();
        assert_eq!(p.meta_cache_counters().0, hits + 1, "cached");
        p.unlink("/c").unwrap();
        assert!(matches!(p.access(&inside), Err(Error::NotFound(_))));
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

    use crate::meter::MeterBacking;

    fn metered_plfs() -> (Arc<MeterBacking>, Plfs) {
        let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
        let p = Plfs::new(meter.clone() as Arc<dyn Backing>);
        (meter, p)
    }

    /// The op-count regression test the issue pins: a warm reopen must cost
    /// ZERO backing metadata ops, and beat the same reopen on a cold mount
    /// — what another process pays — by at least 3x.
    #[test]
    fn reopen_metadata_ops_pinned() {
        let (meter, p) = metered_plfs();
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        p.write(&fd, b"x", 0, 1).unwrap();
        p.close(&fd, 1).unwrap();
        p.create("/g", true).unwrap();

        let before = meter.snapshot();
        let fd = p.open("/f", OpenFlags::RDONLY, 1).unwrap();
        let warm = meter.snapshot().delta(&before);
        p.close(&fd, 1).unwrap();
        assert_eq!(
            warm.metadata_ops(),
            0,
            "warm reopen must cost zero backing metadata ops: {warm:?}"
        );

        // The same reopen on a mount with nothing cached.
        let reopen = |path| {
            let cold = Plfs::new(meter.clone() as Arc<dyn Backing>);
            let before = meter.snapshot();
            let fd = cold.open(path, OpenFlags::RDONLY, 1).unwrap();
            let serial = meter.snapshot().delta(&before);
            cold.close(&fd, 1).unwrap();
            serial
        };
        // Marked by its creator's dropping: the access file's exists, the
        // listing (which says it is a directory), the dropping's stat —
        // and no access file to check.
        let serial = reopen("/f");
        assert_eq!((serial.stat, serial.exists, serial.readdir), (1, 1, 1));
        assert_eq!(serial.metadata_ops(), 3, "{serial:?}");
        // Marked by its access file: its exists (which says the path is a
        // directory), its open (one read, no size).
        let serial = reopen("/g");
        assert_eq!((serial.stat, serial.exists, serial.open), (0, 1, 1));
        assert_eq!(serial.size, 0);
        assert_eq!(
            serial.metadata_ops(),
            2,
            "serial reopen cost moved: {serial:?}"
        );
        assert!(
            serial.metadata_ops() >= 3 * warm.metadata_ops().max(1) - 2,
            "cached reopen must be at least 3x cheaper"
        );
    }

    /// A cold `getattr` of a closed container: the verdict, then one
    /// listing — which, for a container its creator's dropping marks, is
    /// the verdict's own. The answer is kept: a second `getattr` on the
    /// same mount is free, and every other cold mount pays it again.
    #[test]
    fn cold_getattr_lists_once() {
        let (meter, p) = metered_plfs();
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        p.write(&fd, b"xyz", 0, 1).unwrap();
        p.close(&fd, 1).unwrap();
        p.create("/g", true).unwrap();
        let fd = p.open("/g", CREATE_RW, 1).unwrap();
        p.write(&fd, b"xy", 0, 1).unwrap();
        p.close(&fd, 1).unwrap();
        for _ in 0..2 {
            for (path, size, ops) in [("/f", 3, 3), ("/g", 2, 2)] {
                let cold = Plfs::new(meter.clone() as Arc<dyn Backing>);
                let before = meter.snapshot();
                assert_eq!(cold.getattr(path).unwrap().size, size);
                let d = meter.snapshot().delta(&before);
                assert_eq!((d.readdir, d.metadata_ops()), (1, ops), "{path}: {d:?}");
                let before = meter.snapshot();
                assert_eq!(cold.getattr(path).unwrap().size, size);
                let again = meter.snapshot().delta(&before).metadata_ops();
                assert_eq!(again, 0, "{path}");
            }
        }
    }

    /// The create-open path reads the access file zero times beyond the
    /// create itself: the marker a create made or joined is checked.
    #[test]
    fn create_open_skips_params_reread() {
        let (meter, p) = metered_plfs();
        let before = meter.snapshot();
        let fd = p.open("/f", CREATE_RW, 1).unwrap();
        let d = meter.snapshot().delta(&before);
        p.close(&fd, 1).unwrap();
        // The container skeleton and nothing else: mkdir + the creator's
        // data dropping. No probe before the mkdir (its answer is the
        // probe), no access file.
        assert_eq!((d.mkdir, d.create), (1, 1));
        assert_eq!(d.metadata_ops(), 2, "{d:?}");
        // Closed without a write: the dropping and its empty closed index.
        assert_eq!(
            meter.readdir("/f").unwrap(),
            ["dropping.data.creator.0", "dropping.index.creator.0.0.0"]
        );
        p.create("/g", true).unwrap();
        // O_CREAT over a container nothing is cached about: the mkdir's
        // EEXIST, then the access file's open (one read, no size) — or,
        // with none, the stat that finds the creator's dropping.
        let meter2 = meter.clone();
        let cold_create = |path| {
            let other = Plfs::new(meter2.clone() as Arc<dyn Backing>);
            let before = meter2.snapshot();
            let fd = other.open(path, CREATE_RW, 2).unwrap();
            let d = meter2.snapshot().delta(&before);
            other.close(&fd, 2).unwrap();
            d
        };
        for _ in 0..2 {
            let d = cold_create("/f");
            assert_eq!((d.mkdir, d.open, d.stat, d.readdir), (1, 1, 1, 0));
            assert_eq!(d.metadata_ops(), 3, "{d:?}");
            let d = cold_create("/g");
            assert_eq!((d.mkdir, d.open, d.size), (1, 1, 0));
            assert_eq!(d.metadata_ops(), 2, "{d:?}");
        }
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
                p.cache.invalidate("/c");
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
        let (meter, p) = metered_plfs();
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

    /// A last close whose sync fails still gives up the mount's count of
    /// its writer: a `getattr` after it costs what it costs after a close
    /// that succeeded, not a listing and a merge each.
    #[test]
    fn a_failed_close_leaves_getattr_on_the_fast_path() {
        use crate::faults::{FaultKind, FaultOp, FaultRule, Faulty};
        let getattr_ops = |fail: bool| {
            let faulty = Arc::new(Faulty::new(Arc::new(MemBacking::new())));
            let meter = Arc::new(MeterBacking::new(faulty.clone()));
            let p = Plfs::new(meter.clone() as Arc<dyn Backing>);
            let fd = p.open("/f", CREATE_RW, 1).unwrap();
            p.write(&fd, b"hello", 0, 1).unwrap();
            if fail {
                // Sync is a metadata-class op to the fault rules.
                faulty.arm(FaultRule {
                    op: FaultOp::Meta,
                    path_contains: "dropping.data".into(),
                    after: 0,
                    times: 1,
                    errno_like: FaultKind::Io,
                });
            }
            assert_eq!(p.close(&fd, 1).is_err(), fail);
            assert_eq!(p.getattr("/f").unwrap().size, 5);
            let before = meter.snapshot();
            for _ in 0..10 {
                assert_eq!(p.getattr("/f").unwrap().size, 5);
            }
            let d = meter.snapshot().delta(&before);
            (d.readdir, d.metadata_ops() + d.data_ops())
        };
        assert_eq!(getattr_ops(false), (0, 0));
        assert_eq!(getattr_ops(true), getattr_ops(false));
    }

    /// A joiner whose last close fails its sync still turns its open
    /// marker into its meta drop, recording what reached its index
    /// dropping: a marker left behind had every other process list and
    /// merge the container on each `getattr`, for good.
    #[test]
    fn a_joiner_whose_close_fails_leaves_no_open_marker() {
        use crate::faults::{FaultKind, FaultOp, FaultRule, Faulty};
        // The data dropping's sync fails, or the index flush ahead of it.
        let cold_getattrs = |fault: Option<(FaultOp, &str)>| {
            let faulty = Arc::new(Faulty::new(Arc::new(MemBacking::new())));
            let meter = Arc::new(MeterBacking::new(faulty.clone()));
            let b = meter.clone() as Arc<dyn Backing>;
            let creator = Plfs::new(b.clone());
            let fd = creator.open("/f", CREATE_RW, 1).unwrap();
            creator.write(&fd, b"hello", 0, 1).unwrap();
            creator.close(&fd, 1).unwrap();
            let joiner = Plfs::new(b.clone());
            let fd = joiner.open("/f", CREATE_RW, 2).unwrap();
            joiner.write(&fd, b"world!", 5, 2).unwrap();
            if let Some((op, path)) = fault {
                faulty.arm(FaultRule {
                    op,
                    path_contains: path.into(),
                    after: 0,
                    times: 1,
                    errno_like: FaultKind::Io,
                });
            }
            assert_eq!(joiner.close(&fd, 2).is_err(), fault.is_some());
            drop(fd);
            assert_eq!(container::open_writers(b.as_ref(), "/f").unwrap(), 0);
            let merged = crate::reader::ReadFile::open(b.as_ref(), "/f").unwrap();
            let cold = Plfs::new(b.clone());
            let before = meter.snapshot();
            for _ in 0..10 {
                assert_eq!(cold.getattr("/f").unwrap().size, merged.eof());
            }
            let d = meter.snapshot().delta(&before);
            (merged.eof(), d.readdir, d.metadata_ops() + d.data_ops())
        };
        let closed = cold_getattrs(None);
        assert_eq!(closed.0, 11);
        // Sync is a metadata-class op to the fault rules.
        let synced = cold_getattrs(Some((FaultOp::Meta, "dropping.data.2")));
        assert_eq!(synced, closed);
        // The joiner's records never reached its index: the creator's
        // five bytes are the file, at the same cost.
        let flushed = cold_getattrs(Some((FaultOp::Write, "dropping.index.2")));
        assert_eq!(flushed, (5, closed.1, closed.2));
    }

    /// A mount with nothing cached probes the backing store for every
    /// lookup, as another process does: the reference the equivalence
    /// tests hold a warm mount to.
    #[test]
    fn a_cold_mount_probes_every_lookup() {
        let (meter, p) = metered_plfs();
        p.create("/f", true).unwrap();
        let before = meter.snapshot();
        for _ in 0..2 {
            let cold = Plfs::new(meter.clone() as Arc<dyn Backing>);
            cold.access("/f").unwrap();
            assert_eq!(cold.meta_cache_counters(), (0, 1));
        }
        let d = meter.snapshot().delta(&before);
        // One probe each: the access file's exists.
        assert_eq!((d.stat, d.exists), (0, 2), "every cold access probes");
        let before = meter.snapshot();
        p.access("/f").unwrap();
        let d = meter.snapshot().delta(&before);
        assert_eq!(d.metadata_ops(), 0, "the creating mount answers warm");
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
        // with a cold mount's probe of the very same backing.
        let cold = || Plfs::new(p.backing().clone());
        for path in ["/shared0", "/shared1"] {
            let _ = p.unlink(path);
            assert_eq!(
                p.access(path).is_ok(),
                cold().access(path).is_ok(),
                "stale exists verdict for {path}"
            );
            assert_eq!(
                p.is_container(path),
                cold().is_container(path),
                "stale container verdict for {path}"
            );
            assert_eq!(
                p.getattr(path).ok(),
                cold().getattr(path).ok(),
                "stale stat verdict for {path}"
            );
        }
    }
}
