//! What a POSIX call on a container does: the one dispatcher both shims run.
//!
//! The paper's bookkeeping (§III.A) is a reserved fd per PLFS open and a
//! logical cursor over PLFS's positional API. [`Dispatcher`] holds it once:
//! the mounts, the fd → [`Open`] table with its `dup`/`close` rules, and
//! one body per container call. [`crate::LdPlfs`] and the `LD_PRELOAD`
//! library both call it; what differs between them is only where a
//! reserved fd comes from, where a cursor lives and which pid an open
//! writes under, and each caller hands those in. Nothing here calls libc.
//!
//! The cursor is an atomic in storage the caller owns ([`Cursor`]), not
//! the reserved fd's file offset: a call on a container makes no call on
//! the layer below it for bookkeeping. `dup`'d fds name one [`Open`] and so
//! share its cursor, as they share an ordinary file's offset.

use crate::posix::{
    seek_target, Errno, Fd, OpenFlags, PosixDirent, PosixResult, PosixStat, Whence,
};
use parking_lot::{Mutex, MutexGuard, RwLock};
use plfs::meta::FnvBuild;
use plfs::{Plfs, PlfsFd};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::os::fd::RawFd;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

/// One configured mount.
pub struct ShimMount {
    /// Logical mount-point prefix.
    pub mount_point: String,
    /// The PLFS file system serving it.
    pub plfs: Plfs,
}

/// What a caller keeps with each open: the open's file offset among it.
pub trait Cursor: Send + Sync {
    /// The offset, one for every fd of the open.
    fn offset(&self) -> &AtomicU64;
}

/// A caller that keeps nothing with an open but its cursor.
impl Cursor for AtomicU64 {
    fn offset(&self) -> &AtomicU64 {
        self
    }
}

/// A path inside a mount: the mount's index and the mount-relative path.
pub type At<'a> = (usize, &'a str);

/// `O_DIRECTORY`: a container is a file, so such an open of one is
/// `ENOTDIR` (`cp` probes its destination so).
const O_DIRECTORY: u32 = 0o200000;
/// The `open(2)` flags PLFS acts on: access mode, create, excl, trunc,
/// append.
const PLFS_FLAGS: u32 = 0o3 | 0o100 | 0o200 | 0o1000 | 0o2000;

/// One PLFS open, which every fd `dup` made of it names.
pub struct Open<C> {
    plfs: Arc<PlfsFd>,
    mount: usize,
    append: bool,
    /// The caller's own state of the open, its cursor among it.
    pub own: C,
}

impl<C: Cursor> Open<C> {
    /// The PLFS open itself, for what only a caller knows to do with it
    /// (a `fork`'s hooks).
    pub fn plfs(&self) -> &Arc<PlfsFd> {
        &self.plfs
    }

    /// The container's mount-relative path.
    pub fn path(&self) -> &str {
        self.plfs.container_path()
    }

    /// Was it opened for writing?
    pub fn writable(&self) -> bool {
        self.plfs.flags().writable()
    }

    /// A call at the cursor: `f` gets the cursor and says where it moved
    /// bytes and how many; the cursor then points past them.
    fn at_cursor(&self, f: impl FnOnce(u64) -> plfs::Result<(u64, usize)>) -> PosixResult<usize> {
        // relaxed: a cursor orders nothing but itself; racing calls on one open may both see one offset, as with a kernel file offset
        let (off, n) = f(self.own.offset().load(Ordering::Relaxed))?;
        // relaxed: see above
        self.own.offset().store(off + n as u64, Ordering::Relaxed);
        Ok(n)
    }

    /// `read(2)`.
    pub fn read(&self, buf: &mut [u8]) -> PosixResult<usize> {
        self.at_cursor(|off| Ok((off, self.plfs.read(buf, off)?)))
    }

    /// `write(2)`. With `O_APPEND`, PLFS resolves EOF and writes in one
    /// step, so concurrent appenders cannot clobber each other.
    pub fn write(&self, buf: &[u8]) -> PosixResult<usize> {
        self.at_cursor(|off| match self.append {
            true => self.plfs.append(buf),
            false => Ok((off, self.plfs.write(buf, off)?)),
        })
    }

    /// `pread(2)`.
    pub fn pread(&self, buf: &mut [u8], off: u64) -> PosixResult<usize> {
        Ok(self.plfs.read(buf, off)?)
    }

    /// `pwrite(2)`.
    pub fn pwrite(&self, buf: &[u8], off: u64) -> PosixResult<usize> {
        Ok(self.plfs.write(buf, off)?)
    }

    /// `readv(2)`: one read of the whole range, scattered over `bufs`.
    pub fn readv(&self, bufs: &mut [&mut [u8]]) -> PosixResult<usize> {
        self.at_cursor(|off| Ok((off, scatter_read(&self.plfs, bufs, off)?)))
    }

    /// `preadv(2)`.
    pub fn preadv(&self, bufs: &mut [&mut [u8]], off: u64) -> PosixResult<usize> {
        Ok(scatter_read(&self.plfs, bufs, off)?)
    }

    /// `writev(2)`: [`Open::write`] of the gathered buffers.
    pub fn writev(&self, bufs: &[&[u8]]) -> PosixResult<usize> {
        self.write(&bufs.concat())
    }

    /// `pwritev(2)`: [`Open::pwrite`] of the gathered buffers.
    pub fn pwritev(&self, bufs: &[&[u8]], off: u64) -> PosixResult<usize> {
        self.pwrite(&bufs.concat(), off)
    }

    /// A call at `*off`, which it then advances past the bytes moved, or
    /// at the cursor, which moves instead: `copy_file_range(2)`'s rule for
    /// each of its ends.
    fn at_offset(
        &self,
        off: Option<&mut u64>,
        f: impl FnOnce(u64) -> plfs::Result<usize>,
    ) -> PosixResult<usize> {
        match off {
            None => self.at_cursor(|at| Ok((at, f(at)?))),
            Some(off) => {
                let n = f(*off)?;
                *off += n as u64;
                Ok(n)
            }
        }
    }

    /// `copy_file_range(2)` out of the container, at `off` or the cursor:
    /// `mover` moves each slice out of its data dropping in the kernel
    /// ([`PlfsFd::copy_out`]).
    pub fn copy_out(
        &self,
        off: Option<&mut u64>,
        len: usize,
        mover: impl FnMut(RawFd, u64, usize) -> std::io::Result<usize>,
    ) -> PosixResult<usize> {
        self.at_offset(off, |at| self.plfs.copy_out(at, len as u64, mover))
    }

    /// `copy_file_range(2)` into the container, at `off` or the cursor:
    /// `mover` places the bytes at its writer's data-dropping tail in the
    /// kernel ([`PlfsFd::copy_in`]). An `O_APPEND` open is `EBADF`, the
    /// kernel's rule for any file.
    pub fn copy_in(
        &self,
        off: Option<&mut u64>,
        len: usize,
        mover: impl FnOnce(RawFd, u64) -> std::io::Result<usize>,
    ) -> PosixResult<usize> {
        if self.append {
            return Err(Errno::EBADF);
        }
        self.at_offset(off, |at| self.plfs.copy_in(len, at, mover))
    }

    /// `lseek(2)`: the cursor alone, but for `SEEK_END`'s logical size.
    pub fn lseek(&self, offset: i64, whence: Whence) -> PosixResult<u64> {
        let size = match whence {
            Whence::End => self.plfs.size()?,
            Whence::Set | Whence::Cur => 0,
        };
        // relaxed: see at_cursor
        let cur = self.own.offset().load(Ordering::Relaxed);
        let target = seek_target(cur, size, offset, whence)?;
        // relaxed: see at_cursor
        self.own.offset().store(target, Ordering::Relaxed);
        Ok(target)
    }

    /// `fstat(2)`.
    pub fn fstat(&self) -> PosixResult<PosixStat> {
        let size = self.plfs.size()?;
        Ok(PosixStat {
            size,
            is_dir: false,
        })
    }

    /// `fsync(2)` (and `fdatasync`: a container has no distinction to use).
    pub fn fsync(&self) -> PosixResult<()> {
        Ok(self.plfs.sync()?)
    }

    /// The PLFS half of closing one fd of the open, after it left the
    /// table: one reference per fd, so a `dup` keeps the open alive.
    pub fn close(&self) -> PosixResult<()> {
        self.plfs.close()?;
        Ok(())
    }
}

/// One read of `bufs`' total length at `off`, scattered over them.
fn scatter_read(plfs: &PlfsFd, bufs: &mut [&mut [u8]], off: u64) -> plfs::Result<usize> {
    let total: usize = bufs.iter().map(|b| b.len()).sum();
    if total == 0 {
        return Ok(0);
    }
    let mut data = vec![0u8; total];
    let n = plfs.read(&mut data, off)?;
    let mut rest = &data[..n];
    for buf in bufs.iter_mut() {
        let take = buf.len().min(rest.len());
        buf[..take].copy_from_slice(&rest[..take]);
        rest = &rest[take..];
    }
    Ok(n)
}

/// Registered fd → its open. Descriptors are small numbers, hashed with
/// FNV: no random keys to draw.
type Table<C> = HashMap<Fd, Arc<Open<C>>, FnvBuild>;

/// The mounts and the fd table every container call goes through.
pub struct Dispatcher<C> {
    mounts: Vec<ShimMount>,
    /// Behind a pointer, so that a fork's child can move the table to a
    /// lock of its own ([`Dispatcher::renew`]); a table left behind leaks.
    table: AtomicPtr<RwLock<Table<C>>>,
    /// Held around every change to the table, and by a forking thread
    /// across the `fork` ([`Dispatcher::hold`]).
    mutation: Mutex<()>,
    /// The table is owned through the pointer: `Send`/`Sync` as it is.
    owns: PhantomData<RwLock<Table<C>>>,
}

impl<C> Drop for Dispatcher<C> {
    fn drop(&mut self) {
        // SAFETY: the pointer is the table's `Box`, freed once, here.
        drop(unsafe { Box::from_raw(*self.table.get_mut()) });
    }
}

impl<C: Cursor> Dispatcher<C> {
    /// A dispatcher for `mounts`, with no fd registered.
    pub fn new(mounts: Vec<ShimMount>) -> Dispatcher<C> {
        let table = Box::new(RwLock::new(Table::default()));
        Dispatcher {
            mounts,
            table: AtomicPtr::new(Box::into_raw(table)),
            mutation: Mutex::new(()),
            owns: PhantomData,
        }
    }

    /// The configured mounts.
    pub fn mounts(&self) -> &[ShimMount] {
        &self.mounts
    }

    fn plfs(&self, mount: usize) -> &Plfs {
        &self.mounts[mount].plfs
    }

    fn table(&self) -> &RwLock<Table<C>> {
        // SAFETY: the pointer is always a live `Box`: freed only by drop.
        // acquire: pairs with renew's release
        unsafe { &*self.table.load(Ordering::Acquire) }
    }

    /// Change the table under the mutation lock. What `f` returns — a
    /// replaced or removed open among it — is dropped by the caller, after
    /// both locks.
    fn mutate<R>(&self, f: impl FnOnce(&mut Table<C>) -> R) -> R {
        let _one = self.mutation.lock();
        f(&mut self.table().write())
    }

    /// The mount serving `path`, if any, and the path inside it. The
    /// longest mount point wins; a mount point matches whole components
    /// only.
    pub fn resolve<'p>(&self, path: &'p str) -> Option<At<'p>> {
        let (i, m) = self
            .mounts
            .iter()
            .enumerate()
            .filter(|(_, m)| path_has_prefix(path, &m.mount_point))
            .max_by_key(|(_, m)| m.mount_point.len())?;
        match &path[m.mount_point.len()..] {
            "" => Some((i, "/")),
            rel => Some((i, rel)),
        }
    }

    /// `open(2)` of a container path: the PLFS open, `pid`'s, then the fd and
    /// per-open state `reserve` makes for it; a failed `reserve` closes the
    /// PLFS open again and is the call's error.
    pub fn open(
        &self,
        (mount, rel): At,
        flags: OpenFlags,
        pid: u64,
        reserve: impl FnOnce() -> PosixResult<(Fd, C)>,
    ) -> PosixResult<Fd> {
        let plfs = self.plfs(mount);
        if flags.0 & O_DIRECTORY != 0 && plfs.is_container(rel) {
            return Err(Errno::ENOTDIR);
        }
        let pfd = plfs.open(rel, OpenFlags(flags.0 & PLFS_FLAGS), pid)?;
        let (fd, own) = match reserve() {
            Ok(reserved) => reserved,
            Err(e) => {
                let _ = pfd.close();
                return Err(e);
            }
        };
        let open = Open {
            plfs: pfd,
            mount,
            append: flags.append(),
            own,
        };
        self.mutate(|t| t.insert(fd, Arc::new(open)));
        Ok(fd)
    }

    /// The open `fd` names, if it is registered.
    pub fn get(&self, fd: Fd) -> Option<Arc<Open<C>>> {
        self.table().read().get(&fd).cloned()
    }

    /// How many fds are registered.
    pub fn len(&self) -> usize {
        self.table().read().len()
    }

    /// True when no fd is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every registered open, one entry per fd.
    pub fn opens(&self) -> Vec<Arc<Open<C>>> {
        self.table().read().values().cloned().collect()
    }

    /// `close(2)`'s bookkeeping: `fd` leaves the table. The caller closes
    /// the open it named ([`Open::close`]) and the fd itself, both whatever
    /// the other does.
    pub fn close(&self, fd: Fd) -> Option<Arc<Open<C>>> {
        self.mutate(|t| t.remove(&fd))
    }

    /// [`Dispatcher::close`] of every registered fd in `lo..=hi` at once.
    pub fn close_range(&self, lo: Fd, hi: Fd) -> Vec<Arc<Open<C>>> {
        let mut closed = Vec::new();
        self.mutate(|t| {
            t.retain(|fd, open| {
                let keep = !(lo..=hi).contains(fd);
                if !keep {
                    closed.push(Arc::clone(open));
                }
                keep
            })
        });
        closed
    }

    /// `dup`'s bookkeeping, once the call made `newfd` a copy of `oldfd`:
    /// `newfd` names `oldfd`'s open (one more PLFS reference) or, if
    /// `oldfd` is no container's, nothing. Returns the open `newfd` named
    /// before, which the caller closes ([`Open::close`]; `dup2` reports no
    /// error of it). `dup2(fd, fd)` changes nothing.
    pub fn dup(&self, oldfd: Fd, newfd: Fd) -> Option<Arc<Open<C>>> {
        if oldfd == newfd {
            return None;
        }
        match self.get(oldfd) {
            Some(open) => {
                open.plfs.add_ref();
                self.mutate(|t| t.insert(newfd, open))
            }
            None => self.mutate(|t| t.remove(&newfd)),
        }
    }

    /// `ftruncate(2)`: the open's writer is quiesced, then the container is
    /// truncated by path. A failure of either is the call's errno.
    pub fn ftruncate(&self, open: &Open<C>, len: u64) -> PosixResult<()> {
        open.plfs.reset_writers()?;
        Ok(self.plfs(open.mount).trunc(open.path(), len)?)
    }

    /// `stat(2)`. The mount point itself is a directory.
    pub fn stat(&self, (mount, rel): At) -> PosixResult<PosixStat> {
        if rel == "/" {
            return Ok(PosixStat {
                size: 0,
                is_dir: true,
            });
        }
        let st = self.plfs(mount).getattr(rel)?;
        Ok(PosixStat {
            size: st.size,
            is_dir: st.is_dir,
        })
    }

    /// `access(2)` (existence). The mount point itself exists.
    pub fn access(&self, (mount, rel): At) -> PosixResult<()> {
        if rel == "/" {
            return Ok(());
        }
        Ok(self.plfs(mount).access(rel)?)
    }

    /// `unlink(2)`.
    pub fn unlink(&self, (mount, rel): At) -> PosixResult<()> {
        Ok(self.plfs(mount).unlink(rel)?)
    }

    /// `mkdir(2)`.
    pub fn mkdir(&self, (mount, rel): At) -> PosixResult<()> {
        Ok(self.plfs(mount).mkdir(rel)?)
    }

    /// `rmdir(2)`.
    pub fn rmdir(&self, (mount, rel): At) -> PosixResult<()> {
        Ok(self.plfs(mount).rmdir(rel)?)
    }

    /// `truncate(2)`: no fd whose writers need quiescing, so the container
    /// is rewritten directly, as the kernel truncates a file nobody has
    /// open.
    pub fn truncate(&self, (mount, rel): At, len: u64) -> PosixResult<()> {
        Ok(self.plfs(mount).trunc(rel, len)?)
    }

    /// `rename(2)`; across two mounts it is `EXDEV`.
    pub fn rename(&self, from: At, to: At) -> PosixResult<()> {
        if from.0 != to.0 {
            return Err(Errno::EXDEV);
        }
        Ok(self.plfs(from.0).rename(from.1, to.1)?)
    }

    /// A directory listing: containers list as files.
    pub fn readdir(&self, (mount, rel): At) -> PosixResult<Vec<PosixDirent>> {
        let ents = self.plfs(mount).readdir(rel)?;
        Ok(ents
            .into_iter()
            .map(|d| PosixDirent {
                name: d.name,
                is_dir: d.is_dir,
            })
            .collect())
    }

    /// The mutation lock, for a forking thread to hold across the `fork`:
    /// neither side's copy of the table is caught half changed.
    pub fn hold(&self) -> MutexGuard<'_, ()> {
        self.mutation.lock()
    }

    /// In a fork's child, whose only thread this is: the table's lock is as
    /// the parent's threads left it, and one that was reading the table at
    /// the fork holds it forever here. Unless the lock is free, the table
    /// moves to a lock of its own. No change was under way ([`Dispatcher::
    /// hold`] is held across the fork), so the old lock still lets this
    /// thread read it.
    pub fn renew(&self) {
        let old = self.table();
        if old.try_write().is_some() {
            return;
        }
        let copy = old.try_read().map(|t| t.clone()).unwrap_or_default();
        let fresh = Box::into_raw(Box::new(RwLock::new(copy)));
        // release: pairs with table's acquire
        self.table.store(fresh, Ordering::Release);
    }
}

/// True if `path` is `prefix` or lives underneath it.
fn path_has_prefix(path: &str, prefix: &str) -> bool {
    if prefix == "/" {
        return path.starts_with('/');
    }
    path == prefix || (path.starts_with(prefix) && path.as_bytes().get(prefix.len()) == Some(&b'/'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_prefix_respects_components() {
        assert!(path_has_prefix("/plfs/a", "/plfs"));
        assert!(path_has_prefix("/plfs", "/plfs"));
        assert!(!path_has_prefix("/plfsfoo", "/plfs"));
        assert!(path_has_prefix("/any/thing", "/"));
    }
}
