//! The backing-store abstraction.
//!
//! A PLFS container is a directory tree of ordinary files ("droppings") that
//! live on some underlying file system. The C library talks to that file
//! system through POSIX; we abstract it behind [`Backing`] so the identical
//! container logic can run over the real OS file system
//! ([`RealBacking`]) or over the `simfs` timing simulator.
//!
//! All paths handed to a backing are *backend-relative*, forward-slash
//! separated, and absolute within the backend (they start with `/`).

use crate::error::{Error, Result};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use std::collections::HashMap;
use std::ffi::{CStr, CString};
use std::fs;
use std::io::Seek;
use std::os::fd::{AsRawFd, FromRawFd, IntoRawFd, OwnedFd, RawFd};
use std::os::raw::{c_char, c_int, c_uint};
use std::os::unix::fs::{FileExt, OpenOptionsExt};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI32, Ordering};

/// Metadata returned by [`Backing::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackStat {
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Whether the path is a directory.
    pub is_dir: bool,
    /// Modification stamp; backing-defined units, only compared for ordering.
    pub mtime: u64,
    /// A directory's subdirectories, where the backing counts them exactly
    /// (`None` for a file, and wherever the count is not known to be exact).
    pub subdirs: Option<u64>,
}

/// An open file on a backing store.
///
/// Handles are `Send + Sync`; positional reads and writes take explicit
/// offsets so concurrent use never races on a shared cursor.
pub trait BackingFile: Send + Sync {
    /// Read up to `buf.len()` bytes at `off`; returns bytes read (0 at EOF).
    fn pread(&self, buf: &mut [u8], off: u64) -> Result<usize>;
    /// Write all of `buf` at `off`.
    fn pwrite(&self, buf: &[u8], off: u64) -> Result<usize>;
    /// Atomically append `buf` to the end of the file, returning the offset
    /// the data landed at. Only tests call it: the write path places every
    /// write with `pwrite` at an offset it keeps itself. It stays only
    /// because the benchmark harness's `TimedFile` forwards it; delete the
    /// two together.
    fn append(&self, buf: &[u8]) -> Result<u64>;
    /// Current size in bytes.
    fn size(&self) -> Result<u64>;
    /// Flush to stable storage.
    fn sync(&self) -> Result<()>;
    /// The file's own descriptor, for a caller that moves bytes into or
    /// out of it in the kernel (`copy_file_range`). `None` where there is
    /// none (an in-memory file), and on a decorator's handle, whose hook
    /// must see every byte.
    fn raw_fd(&self) -> Option<RawFd> {
        None
    }
}

/// A backing store: the slice of POSIX that the container layer needs.
pub trait Backing: Send + Sync {
    /// Create a file. With `excl`, fail if it already exists; otherwise
    /// truncate any existing file.
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>>;
    /// Open an existing file. `write` requests write permission.
    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>>;
    /// Create a directory; parent must exist. `Exists` whenever `stat`
    /// would find anything at `path` — `create_container` probes with it.
    fn mkdir(&self, path: &str) -> Result<()>;
    /// Create a directory and any missing ancestors.
    fn mkdir_all(&self, path: &str) -> Result<()>;
    /// List the names (not paths) of entries in a directory.
    fn readdir(&self, path: &str) -> Result<Vec<String>>;
    /// Remove a file.
    fn unlink(&self, path: &str) -> Result<()>;
    /// Remove an empty directory.
    fn rmdir(&self, path: &str) -> Result<()>;
    /// Rename a file or directory tree.
    fn rename(&self, from: &str, to: &str) -> Result<()>;
    /// Stat a path.
    fn stat(&self, path: &str) -> Result<BackStat>;
    /// Whether a path exists at all.
    fn exists(&self, path: &str) -> bool {
        self.stat(path).is_ok()
    }
    /// Truncate (or extend with zeros) a file by path.
    fn truncate(&self, path: &str, len: u64) -> Result<()>;
    /// A no-op that nothing in this workspace calls. It stays only because
    /// the benchmark harness's `TimedBacking` forwards it; delete the two
    /// together.
    fn seal(&self, path: &str) -> Result<()> {
        let _ = path;
        Ok(())
    }
}

/// Recursively delete a directory tree through any backing.
///
/// Tolerates children vanishing concurrently (a racing unlink or
/// compaction): a `NotFound` on any step means someone else
/// already removed that piece, which is exactly the goal state.
pub fn remove_tree(b: &dyn Backing, path: &str) -> Result<()> {
    let st = match b.stat(path) {
        Ok(st) => st,
        Err(Error::NotFound(_)) => return Ok(()),
        Err(e) => return Err(e),
    };
    let not_found_ok = |r: Result<()>| match r {
        Err(Error::NotFound(_)) => Ok(()),
        other => other,
    };
    if !st.is_dir {
        return not_found_ok(b.unlink(path));
    }
    let names = match b.readdir(path) {
        Ok(names) => names,
        Err(Error::NotFound(_)) => return Ok(()),
        Err(e) => return Err(e),
    };
    for name in names {
        let child = join(path, &name);
        remove_tree(b, &child)?;
    }
    not_found_ok(b.rmdir(path))
}

/// Join a backend-relative directory path and an entry name: one
/// allocation, of the joined length.
pub fn join(dir: &str, name: &str) -> String {
    let slash = !dir.ends_with('/');
    let mut path = String::with_capacity(dir.len() + usize::from(slash) + name.len());
    path.push_str(dir);
    if slash {
        path.push('/');
    }
    path.push_str(name);
    path
}

// ---------------------------------------------------------------------------
// RealBacking: the OS file system, every path resolved from one held root.
// ---------------------------------------------------------------------------

/// Backing store over the real OS file system, rooted at a directory.
///
/// The root is opened once, at construction (`O_PATH | O_DIRECTORY`), and
/// every op resolves its backend-relative path against that descriptor
/// with an `*at` call: the kernel walks the few components under the root,
/// never the root's own absolute path again. So the root is fixed when the
/// backing is made — a relative one does not follow a later `chdir`, and a
/// root renamed afterwards keeps being served. `..` components are rejected
/// so a container can never escape its backend.
///
/// On tmpfs, ext4 and xfs (the root's file system, asked once with
/// `fstatfs`) a directory's link count is two more than its
/// subdirectories: [`Backing::stat`] then reports a directory's
/// [`BackStat::subdirs`].
pub struct RealBacking {
    root: PathBuf,
    /// The root's file system is one of those: see above.
    exact: bool,
    /// The root's descriptor: an `O_PATH` fd, close-on-exec.
    dir: AtomicI32,
    /// Held shared by every op while it uses `dir`'s number, and
    /// exclusively by [`RealBacking::renumber_root`] and
    /// [`RealBacking::pause`]: no op ever resolves against a number the
    /// backing has given up.
    in_use: RwLock<()>,
}

impl RealBacking {
    /// Create a backing rooted at `root`, creating the directory if needed.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(Error::Io)?;
        let dir = fs::OpenOptions::new()
            .read(true)
            .custom_flags(O_PATH | O_DIRECTORY)
            .open(&root)
            .map_err(Error::Io)?;
        let mut fs = std::mem::MaybeUninit::<StatFs>::zeroed();
        // SAFETY: `dir` is open; `fs` is a writable `struct statfs`.
        let got = unsafe { fstatfs(dir.as_raw_fd(), fs.as_mut_ptr()) };
        // SAFETY: zeroed, then filled by the kernel if it succeeded.
        let f_type = unsafe { fs.assume_init() }.f_type;
        Ok(RealBacking {
            root,
            exact: got == 0 && EXACT_FILE_SYSTEMS.contains(&f_type),
            dir: AtomicI32::new(dir.into_raw_fd()),
            in_use: RwLock::new(()),
        })
    }

    /// The host directory this backing was rooted at, as it was named.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The descriptor every op resolves its path against. It is the
    /// backing's own: whoever else holds the number must neither close it
    /// nor make it name another file (the `LD_PRELOAD` shim guards it
    /// against the application, and moves it first with
    /// [`RealBacking::renumber_root`]).
    pub fn root_fd(&self) -> RawFd {
        // relaxed: a number; `in_use` orders every op against a renumbering
        self.dir.load(Ordering::Relaxed)
    }

    /// Give the root descriptor a new number — the lowest free one,
    /// close-on-exec — once no op is using the old one. The old number is
    /// still open and is the caller's from then on, to close or to have
    /// `dup2` take over. Fails with `fcntl`'s error, keeping the old number.
    pub fn renumber_root(&self) -> std::io::Result<RawFd> {
        let _no_op = self.in_use.write();
        let old = self.root_fd();
        // SAFETY: F_DUPFD_CLOEXEC takes one int argument.
        // plfs-lint: allow(lock-across-io, "intentional: the new number must be published before any op resolves against the root again; the guarded call is one fcntl")
        let new = cvt(unsafe { fcntl(old, F_DUPFD_CLOEXEC, 0 as c_int) })?;
        // relaxed: see root_fd
        self.dir.store(new, Ordering::Relaxed);
        Ok(old)
    }

    /// Hold off every op of this backing until the guard drops: across a
    /// `fork`, so that neither side's copy of the lock the ops share is
    /// caught held by an op in flight.
    pub fn pause(&self) -> RwLockWriteGuard<'_, ()> {
        self.in_use.write()
    }

    /// Run `f` on the root's descriptor and `path` relative to it (`.` for
    /// the root itself); its error is annotated with `path`.
    fn at<T>(&self, path: &str, f: impl FnOnce(c_int, &CStr) -> std::io::Result<T>) -> Result<T> {
        with_relative(path, |rel| {
            let _in_use = self.in_use.read();
            f(self.root_fd(), rel).map_err(|e| annotate(e, path))
        })
    }

    /// `openat` of `path` with `flags` (close-on-exec added).
    fn open_at(&self, path: &str, flags: c_int) -> Result<fs::File> {
        let fd = self.at(path, |root, rel| {
            // SAFETY: `rel` is NUL-terminated and outlives the call.
            cvt(unsafe { openat(root, rel.as_ptr(), flags | O_CLOEXEC, 0o666 as c_uint) })
        })?;
        // SAFETY: `fd` was just opened and is owned by nothing else.
        Ok(unsafe { fs::File::from_raw_fd(fd) })
    }

    fn statx(&self, path: &str) -> Result<Statx> {
        self.at(path, |root, rel| {
            let mut st = std::mem::MaybeUninit::<Statx>::zeroed();
            // SAFETY: `rel` is NUL-terminated; `st` is a writable `struct
            // statx`, and all-zero is a valid one.
            cvt(unsafe { statx(root, rel.as_ptr(), 0, STATX_WANTED, st.as_mut_ptr()) })?;
            // SAFETY: zeroed, then filled by the kernel.
            Ok(unsafe { st.assume_init() })
        })
    }

    /// `unlinkat` of `path`: a file, or with `AT_REMOVEDIR` an empty
    /// directory.
    fn unlink_at(&self, path: &str, flags: c_int) -> Result<()> {
        self.at(path, |root, rel| {
            // SAFETY: `rel` is NUL-terminated and outlives the call.
            cvt(unsafe { unlinkat(root, rel.as_ptr(), flags) }).map(drop)
        })
    }
}

impl Drop for RealBacking {
    fn drop(&mut self) {
        // SAFETY: the root descriptor is this backing's own, closed once.
        drop(unsafe { OwnedFd::from_raw_fd(*self.dir.get_mut()) });
    }
}

/// Longest relative path [`with_relative`] builds on the stack; a longer
/// one takes one allocation.
const STACK_PATH: usize = 255;

/// `f` on `path` relative to a backing's root, NUL-terminated: `.` for the
/// root itself. A `..` component anywhere is refused, and so is a NUL byte.
fn with_relative<T>(path: &str, f: impl FnOnce(&CStr) -> Result<T>) -> Result<T> {
    let rel = path.trim_start_matches('/');
    let rel = if rel.is_empty() { "." } else { rel };
    if rel
        .as_bytes()
        .split(|&c| c == b'/')
        .any(|component| component == b"..")
    {
        return Err(Error::InvalidArg("path escapes backend root"));
    }
    fn nul<E>(_: E) -> Error {
        Error::InvalidArg("path holds a NUL byte")
    }
    if rel.len() > STACK_PATH {
        return f(&CString::new(rel).map_err(nul)?);
    }
    let mut buf = [0u8; STACK_PATH + 1];
    buf[..rel.len()].copy_from_slice(rel.as_bytes());
    // The terminator is the first NUL unless `rel` holds one of its own.
    f(CStr::from_bytes_with_nul(&buf[..=rel.len()]).map_err(nul)?)
}

/// A `-1`-on-error syscall result as an [`std::io::Result`].
fn cvt(ret: c_int) -> std::io::Result<c_int> {
    if ret < 0 {
        Err(std::io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

struct RealFile {
    file: fs::File,
    /// Serialises [`BackingFile::append`]'s write + position read, the
    /// only use of this handle's cursor; positional I/O is one lock-free
    /// syscall.
    append: Mutex<()>,
    writable: bool,
}

#[repr(C)]
struct IoVec {
    base: *const u8,
    len: usize,
}

/// `RWF_APPEND` (Linux ≥ 4.16): this one write goes to end-of-file, which
/// the kernel resolves under the inode lock — as `O_APPEND` would, without
/// turning every `pwrite` on the handle into an append.
const RWF_APPEND: c_int = 0x10;

const O_RDONLY: c_int = 0;
const O_WRONLY: c_int = 0o1;
const O_RDWR: c_int = 0o2;
const O_CREAT: c_int = 0o100;
const O_EXCL: c_int = 0o200;
const O_TRUNC: c_int = 0o1000;
const O_DIRECTORY: c_int = 0o200000;
const O_CLOEXEC: c_int = 0o2000000;
const O_PATH: c_int = 0o10000000;
const F_DUPFD_CLOEXEC: c_int = 1030;
const AT_REMOVEDIR: c_int = 0x200;

/// `struct statx_timestamp`.
#[repr(C)]
struct StatxTime {
    sec: i64,
    nsec: u32,
    _reserved: i32,
}

/// `struct statx`: the same layout on every Linux architecture.
#[repr(C)]
struct Statx {
    mask: u32,
    blksize: u32,
    attributes: u64,
    nlink: u32,
    uid: u32,
    gid: u32,
    mode: u16,
    _spare0: u16,
    ino: u64,
    size: u64,
    blocks: u64,
    attributes_mask: u64,
    atime: StatxTime,
    btime: StatxTime,
    ctime: StatxTime,
    mtime: StatxTime,
    _spare: [u64; 16],
}

/// `STATX_TYPE | STATX_NLINK | STATX_MTIME | STATX_SIZE`: what
/// [`BackStat`] needs.
const STATX_WANTED: c_uint = 0x1 | 0x4 | 0x40 | 0x200;

/// `struct statfs`, as far as its first field: `f_type` is a `long` on the
/// architectures this builds for, and the rest is room for the kernel.
#[repr(C)]
struct StatFs {
    f_type: std::os::raw::c_long,
    _rest: [std::os::raw::c_long; 15],
}

/// `TMPFS_MAGIC`, `EXT4_SUPER_MAGIC` (ext2 and ext3 too) and
/// `XFS_SUPER_MAGIC`: the file systems whose directory link counts
/// [`RealBacking`] relies on.
const EXACT_FILE_SYSTEMS: [std::os::raw::c_long; 3] = [0x0102_1994, 0xef53, 0x5846_5342];

const S_IFMT: u16 = 0o170000;
const S_IFDIR: u16 = 0o040000;

extern "C" {
    fn pwritev2(fd: c_int, iov: *const IoVec, iovcnt: c_int, off: i64, flags: c_int) -> isize;
    fn getdents64(fd: c_int, buf: *mut u8, len: usize) -> isize;
    fn openat(dirfd: c_int, path: *const c_char, flags: c_int, mode: c_uint) -> c_int;
    fn mkdirat(dirfd: c_int, path: *const c_char, mode: c_uint) -> c_int;
    fn unlinkat(dirfd: c_int, path: *const c_char, flags: c_int) -> c_int;
    fn renameat(olddir: c_int, old: *const c_char, newdir: c_int, new: *const c_char) -> c_int;
    fn statx(
        dirfd: c_int,
        path: *const c_char,
        flags: c_int,
        mask: c_uint,
        out: *mut Statx,
    ) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn fstatfs(fd: c_int, buf: *mut StatFs) -> c_int;
}

impl RealFile {
    fn boxed(file: fs::File, writable: bool) -> Box<dyn BackingFile> {
        Box::new(RealFile {
            file,
            append: Mutex::new(()),
            writable,
        })
    }
}

/// Most bytes Linux moves in one `read`/`write` call (`MAX_RW_COUNT`).
const MAX_RW_COUNT: usize = 0x7fff_f000;

impl BackingFile for RealFile {
    /// A dropping is a regular file, which reads short only at its end:
    /// a read that returns less than it asked for is the last, so reading
    /// to the end costs no extra call that returns 0. Only a buffer past
    /// one call's cap takes more than one.
    fn pread(&self, buf: &mut [u8], off: u64) -> Result<usize> {
        let mut total = 0;
        while total < buf.len() {
            let want = (buf.len() - total).min(MAX_RW_COUNT);
            match self
                .file
                .read_at(&mut buf[total..total + want], off + total as u64)
            {
                Ok(n) if n < want => return Ok(total + n),
                Ok(n) => total += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Error::Io(e)),
            }
        }
        Ok(total)
    }

    fn pwrite(&self, buf: &[u8], off: u64) -> Result<usize> {
        if !self.writable {
            return Err(Error::BadMode("file opened read-only"));
        }
        self.file.write_all_at(buf, off).map_err(Error::Io)?;
        Ok(buf.len())
    }

    fn append(&self, buf: &[u8]) -> Result<u64> {
        if !self.writable {
            return Err(Error::BadMode("file opened read-only"));
        }
        // EOF is found by the kernel in the same step that writes there, so
        // handles on one file never land on the same offset. Offset -1 writes at this
        // handle's cursor, which the append moves to the end of the bytes it
        // wrote: reading it back says where they landed.
        let _cursor = self.append.lock();
        let iov = IoVec {
            base: buf.as_ptr(),
            len: buf.len(),
        };
        let n = loop {
            // SAFETY: `iov` describes `buf`, live and unaliased for the call.
            let n = unsafe { pwritev2(self.file.as_raw_fd(), &iov, 1, -1, RWF_APPEND) };
            if n >= 0 {
                break n as usize;
            }
            let e = std::io::Error::last_os_error();
            if e.kind() != std::io::ErrorKind::Interrupted {
                return Err(Error::Io(e));
            }
        };
        if n < buf.len() {
            // The rest could only follow as a second append, which another
            // handle's may precede: the record would not be contiguous.
            return Err(Error::Io(std::io::Error::new(
                std::io::ErrorKind::WriteZero,
                format!("short append: {n} of {} bytes", buf.len()),
            )));
        }
        let end = (&self.file).stream_position().map_err(Error::Io)?;
        Ok(end - n as u64)
    }

    fn size(&self) -> Result<u64> {
        Ok(self.file.metadata().map_err(Error::Io)?.len())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data().map_err(Error::Io)
    }

    fn raw_fd(&self) -> Option<RawFd> {
        Some(self.file.as_raw_fd())
    }
}

impl Backing for RealBacking {
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
        let how = if excl { O_EXCL } else { O_TRUNC };
        let file = self.open_at(path, O_RDWR | O_CREAT | how)?;
        Ok(RealFile::boxed(file, true))
    }

    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
        let file = self.open_at(path, if write { O_RDWR } else { O_RDONLY })?;
        Ok(RealFile::boxed(file, write))
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        self.at(path, |root, rel| {
            // SAFETY: `rel` is NUL-terminated and outlives the call.
            cvt(unsafe { mkdirat(root, rel.as_ptr(), 0o777) }).map(drop)
        })
    }

    /// One `mkdirat` per component, top down; one that exists already is
    /// passed, and the last must be a directory.
    fn mkdir_all(&self, path: &str) -> Result<()> {
        let rel = path.trim_matches('/');
        let ends = rel.match_indices('/').map(|(i, _)| i).chain([rel.len()]);
        for end in ends.filter(|&end| end > 0) {
            match self.mkdir(&rel[..end]) {
                Ok(()) => {}
                Err(Error::Exists(_)) if end < rel.len() => {}
                Err(Error::Exists(_)) if self.stat(path)?.is_dir => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One `O_DIRECTORY` open and `getdents64` into a fixed buffer until it
    /// returns 0: no `fstat` and no 32 KiB `DIR` stream, which is what
    /// `opendir` costs. A short call does not end the listing: with a
    /// signal pending the kernel returns after one entry.
    fn readdir(&self, path: &str) -> Result<Vec<String>> {
        const BUF: usize = 8192;
        let dir = self.open_at(path, O_RDONLY | O_DIRECTORY)?;
        // Not zeroed first: only what the kernel wrote is read.
        let mut buf = std::mem::MaybeUninit::<[u8; BUF]>::uninit();
        let mut names = Vec::new();
        loop {
            // SAFETY: `buf` is live and writable for its whole length.
            let n = unsafe { getdents64(dir.as_raw_fd(), buf.as_mut_ptr().cast(), BUF) };
            if n == 0 {
                break;
            }
            if n < 0 {
                let e = std::io::Error::last_os_error();
                if e.kind() == std::io::ErrorKind::Interrupted {
                    continue;
                }
                return Err(Error::Io(e));
            }
            // SAFETY: the kernel wrote the first `n` (≤ BUF) bytes.
            let buf = unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<u8>(), n as usize) };
            // `struct linux_dirent64`: inode (8), offset (8), record length
            // (2), type (1), then the NUL-terminated name.
            let mut at = 0;
            while at < buf.len() {
                let rec = &buf[at..];
                let reclen = u16::from_ne_bytes([rec[16], rec[17]]) as usize;
                let name = &rec[19..reclen];
                let name = &name[..name.iter().position(|&c| c == 0).unwrap_or(name.len())];
                if name != b"." && name != b".." {
                    names.push(match std::str::from_utf8(name) {
                        Ok(name) => name.to_owned(),
                        Err(_) => String::from_utf8_lossy(name).into_owned(),
                    });
                }
                at += reclen;
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.unlink_at(path, 0)
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        self.unlink_at(path, AT_REMOVEDIR)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        with_relative(to, |to| {
            self.at(from, |root, from| {
                // SAFETY: both paths are NUL-terminated and outlive the call.
                cvt(unsafe { renameat(root, from.as_ptr(), root, to.as_ptr()) }).map(drop)
            })
        })
    }

    fn stat(&self, path: &str) -> Result<BackStat> {
        let st = self.statx(path)?;
        // Nanoseconds since the epoch; 0 before it, saturating far past it.
        let mtime = u64::try_from(st.mtime.sec).map_or(0, |s| {
            s.saturating_mul(1_000_000_000)
                .saturating_add(st.mtime.nsec.into())
        });
        let is_dir = st.mode & S_IFMT == S_IFDIR;
        // ext4 counts 1 link past 65,000 subdirectories: not a count.
        let counted = self.exact && is_dir && st.nlink >= 2;
        Ok(BackStat {
            size: st.size,
            is_dir,
            mtime,
            subdirs: counted.then(|| u64::from(st.nlink - 2)),
        })
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        self.open_at(path, O_WRONLY)?
            .set_len(len)
            .map_err(Error::Io)
    }
}

fn annotate(e: std::io::Error, path: &str) -> Error {
    match e.kind() {
        std::io::ErrorKind::NotFound => Error::NotFound(path.to_string()),
        std::io::ErrorKind::AlreadyExists => Error::Exists(path.to_string()),
        _ => Error::Io(e),
    }
}

// ---------------------------------------------------------------------------
// MemBacking: an in-memory backing used heavily by unit and property tests.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct MemNode {
    data: Vec<u8>,
}

/// A purely in-memory [`Backing`], used by tests and as the reference model
/// in property tests. Directories are tracked explicitly so `mkdir`/`rmdir`
/// semantics match a real file system.
#[derive(Default)]
pub struct MemBacking {
    inner: Mutex<MemInner>,
}

#[derive(Default)]
struct MemInner {
    files: HashMap<String, std::sync::Arc<Mutex<MemNode>>>,
    dirs: std::collections::BTreeSet<String>,
    clock: u64,
}

impl MemBacking {
    /// Create an empty in-memory backing with just the root directory.
    pub fn new() -> Self {
        let b = MemBacking::default();
        b.inner.lock().dirs.insert("/".to_string());
        b
    }

    fn norm(path: &str) -> String {
        let mut parts: Vec<&str> = Vec::new();
        for c in path.split('/') {
            match c {
                "" | "." => {}
                ".." => {
                    parts.pop();
                }
                c => parts.push(c),
            }
        }
        if parts.is_empty() {
            "/".to_string()
        } else {
            format!("/{}", parts.join("/"))
        }
    }

    fn parent(path: &str) -> String {
        match path.rfind('/') {
            Some(0) => "/".to_string(),
            Some(i) => path[..i].to_string(),
            None => "/".to_string(),
        }
    }
}

struct MemFile {
    node: std::sync::Arc<Mutex<MemNode>>,
    writable: bool,
}

impl BackingFile for MemFile {
    fn pread(&self, buf: &mut [u8], off: u64) -> Result<usize> {
        let node = self.node.lock();
        let len = node.data.len() as u64;
        if off >= len {
            return Ok(0);
        }
        let n = ((len - off) as usize).min(buf.len());
        buf[..n].copy_from_slice(&node.data[off as usize..off as usize + n]);
        Ok(n)
    }

    fn pwrite(&self, buf: &[u8], off: u64) -> Result<usize> {
        if !self.writable {
            return Err(Error::BadMode("file opened read-only"));
        }
        let mut node = self.node.lock();
        let end = off as usize + buf.len();
        if node.data.len() < end {
            node.data.resize(end, 0);
        }
        node.data[off as usize..end].copy_from_slice(buf);
        Ok(buf.len())
    }

    fn append(&self, buf: &[u8]) -> Result<u64> {
        if !self.writable {
            return Err(Error::BadMode("file opened read-only"));
        }
        let mut node = self.node.lock();
        let off = node.data.len() as u64;
        node.data.extend_from_slice(buf);
        Ok(off)
    }

    fn size(&self) -> Result<u64> {
        Ok(self.node.lock().data.len() as u64)
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

impl Backing for MemBacking {
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
        let path = Self::norm(path);
        let mut inner = self.inner.lock();
        if !inner.dirs.contains(&Self::parent(&path)) {
            return Err(Error::NotFound(path));
        }
        if inner.dirs.contains(&path) {
            return Err(Error::IsDir(path));
        }
        if inner.files.contains_key(&path) {
            if excl {
                return Err(Error::Exists(path));
            }
            inner.files.get(&path).unwrap().lock().data.clear();
        } else {
            inner.files.insert(
                path.clone(),
                std::sync::Arc::new(Mutex::new(MemNode::default())),
            );
        }
        inner.clock += 1;
        let node = inner.files.get(&path).unwrap().clone();
        Ok(Box::new(MemFile {
            node,
            writable: true,
        }))
    }

    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
        let path = Self::norm(path);
        let inner = self.inner.lock();
        if inner.dirs.contains(&path) {
            return Err(Error::IsDir(path));
        }
        let node = inner
            .files
            .get(&path)
            .ok_or_else(|| Error::NotFound(path.clone()))?
            .clone();
        Ok(Box::new(MemFile {
            node,
            writable: write,
        }))
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        let path = Self::norm(path);
        let mut inner = self.inner.lock();
        if inner.dirs.contains(&path) || inner.files.contains_key(&path) {
            return Err(Error::Exists(path));
        }
        if !inner.dirs.contains(&Self::parent(&path)) {
            return Err(Error::NotFound(Self::parent(&path)));
        }
        inner.dirs.insert(path);
        inner.clock += 1;
        Ok(())
    }

    fn mkdir_all(&self, path: &str) -> Result<()> {
        let path = Self::norm(path);
        let mut inner = self.inner.lock();
        let mut cur = String::new();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur.push('/');
            cur.push_str(comp);
            if inner.files.contains_key(&cur) {
                return Err(Error::NotDir(cur));
            }
            inner.dirs.insert(cur.clone());
        }
        inner.clock += 1;
        Ok(())
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>> {
        let path = Self::norm(path);
        let inner = self.inner.lock();
        if !inner.dirs.contains(&path) {
            return Err(if inner.files.contains_key(&path) {
                Error::NotDir(path)
            } else {
                Error::NotFound(path)
            });
        }
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let mut names: Vec<String> = inner
            .dirs
            .iter()
            .map(|d| d.as_str())
            .chain(inner.files.keys().map(|f| f.as_str()))
            .filter_map(|p| {
                let rest = p.strip_prefix(&prefix)?;
                if rest.is_empty() || rest.contains('/') {
                    None
                } else {
                    Some(rest.to_string())
                }
            })
            .collect();
        names.sort_unstable();
        names.dedup();
        Ok(names)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        let path = Self::norm(path);
        let mut inner = self.inner.lock();
        if inner.dirs.contains(&path) {
            return Err(Error::IsDir(path));
        }
        inner
            .files
            .remove(&path)
            .map(|_| ())
            .ok_or(Error::NotFound(path))
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        let path = Self::norm(path);
        let mut inner = self.inner.lock();
        if !inner.dirs.contains(&path) {
            return Err(Error::NotFound(path));
        }
        let prefix = format!("{path}/");
        let occupied = inner.dirs.iter().any(|d| d.starts_with(&prefix))
            || inner.files.keys().any(|f| f.starts_with(&prefix));
        if occupied {
            return Err(Error::NotEmpty(path));
        }
        inner.dirs.remove(&path);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let from = Self::norm(from);
        let to = Self::norm(to);
        let mut inner = self.inner.lock();
        if let Some(node) = inner.files.remove(&from) {
            inner.files.insert(to, node);
            return Ok(());
        }
        if inner.dirs.contains(&from) {
            let prefix = format!("{from}/");
            let moved_dirs: Vec<String> = inner
                .dirs
                .iter()
                .filter(|d| **d == from || d.starts_with(&prefix))
                .cloned()
                .collect();
            for d in moved_dirs {
                inner.dirs.remove(&d);
                let new = format!("{to}{}", &d[from.len()..]);
                inner.dirs.insert(new);
            }
            let moved_files: Vec<String> = inner
                .files
                .keys()
                .filter(|f| f.starts_with(&prefix))
                .cloned()
                .collect();
            for f in moved_files {
                let node = inner.files.remove(&f).unwrap();
                let new = format!("{to}{}", &f[from.len()..]);
                inner.files.insert(new, node);
            }
            return Ok(());
        }
        Err(Error::NotFound(from))
    }

    fn stat(&self, path: &str) -> Result<BackStat> {
        let path = Self::norm(path);
        let inner = self.inner.lock();
        if inner.dirs.contains(&path) {
            let prefix = if path == "/" { "" } else { path.as_str() };
            let under = inner.dirs.range(format!("{prefix}/")..format!("{prefix}0"));
            let subdirs = under.filter(|d| {
                let name = &d[prefix.len() + 1..];
                !name.is_empty() && !name.contains('/')
            });
            return Ok(BackStat {
                size: 0,
                is_dir: true,
                mtime: inner.clock,
                subdirs: Some(subdirs.count() as u64),
            });
        }
        if let Some(node) = inner.files.get(&path) {
            return Ok(BackStat {
                size: node.lock().data.len() as u64,
                is_dir: false,
                mtime: inner.clock,
                subdirs: None,
            });
        }
        Err(Error::NotFound(path))
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        let path = Self::norm(path);
        let inner = self.inner.lock();
        let node = inner
            .files
            .get(&path)
            .ok_or_else(|| Error::NotFound(path.clone()))?;
        node.lock().data.resize(len as usize, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backings() -> Vec<(&'static str, Box<dyn Backing>)> {
        // One directory per call: tests run on parallel threads.
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "plfs-backing-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        vec![
            ("mem", Box::new(MemBacking::new()) as Box<dyn Backing>),
            ("real", Box::new(RealBacking::new(dir).unwrap())),
        ]
    }

    #[test]
    fn create_write_read_roundtrip() {
        for (name, b) in backings() {
            let f = b.create("/a", true).unwrap();
            f.pwrite(b"hello world", 0).unwrap();
            let mut buf = [0u8; 5];
            assert_eq!(f.pread(&mut buf, 6).unwrap(), 5, "{name}");
            assert_eq!(&buf, b"world", "{name}");
        }
    }

    #[test]
    fn append_returns_prior_size() {
        for (name, b) in backings() {
            let f = b.create("/log", true).unwrap();
            assert_eq!(f.append(b"aaaa").unwrap(), 0, "{name}");
            assert_eq!(f.append(b"bb").unwrap(), 4, "{name}");
            assert_eq!(f.size().unwrap(), 6, "{name}");
        }
    }

    /// Appends through two handles on one file must each find EOF
    /// atomically, or two records land on one offset and one is lost.
    #[test]
    fn appends_through_two_handles_never_overwrite_each_other() {
        const RECORDS: usize = 20_000;
        const REC: usize = 64;
        let (_, b) = backings().pop().unwrap();
        drop(b.create("/shared", true).unwrap());
        let handles: Vec<Box<dyn BackingFile>> =
            (0..2).map(|_| b.open("/shared", true).unwrap()).collect();
        let start = std::sync::Barrier::new(2);
        let offsets: Vec<Vec<u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0u8..)
                .zip(&handles)
                .map(|(tag, h)| {
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        (0..RECORDS)
                            .map(|_| h.append(&[b'a' + tag; REC]).unwrap())
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let size = handles[0].size().unwrap() as usize;
        assert_eq!(size, 2 * RECORDS * REC, "records were overwritten");
        let mut all = vec![0u8; size];
        handles[0].pread(&mut all, 0).unwrap();
        for (tag, offs) in (0u8..).zip(&offsets) {
            for &off in offs {
                let rec = &all[off as usize..off as usize + REC];
                assert!(rec.iter().all(|&c| c == b'a' + tag), "record at {off}");
            }
        }
    }

    #[test]
    fn excl_create_fails_on_existing() {
        for (name, b) in backings() {
            b.create("/x", true).unwrap();
            assert!(
                matches!(b.create("/x", true), Err(Error::Exists(_))),
                "{name}"
            );
            // Non-exclusive create truncates.
            let f = b.create("/x", false).unwrap();
            assert_eq!(f.size().unwrap(), 0, "{name}");
        }
    }

    #[test]
    fn open_missing_is_not_found() {
        for (name, b) in backings() {
            assert!(
                matches!(b.open("/nope", false), Err(Error::NotFound(_))),
                "{name}"
            );
        }
    }

    #[test]
    fn readdir_lists_sorted_names() {
        for (name, b) in backings() {
            b.mkdir("/d").unwrap();
            b.create("/d/z", true).unwrap();
            b.create("/d/a", true).unwrap();
            b.mkdir("/d/sub").unwrap();
            assert_eq!(b.readdir("/d").unwrap(), vec!["a", "sub", "z"], "{name}");
        }
    }

    #[test]
    fn mkdir_requires_parent() {
        for (name, b) in backings() {
            assert!(b.mkdir("/no/parent").is_err(), "{name}");
            b.mkdir_all("/no/parent").unwrap();
            assert!(b.stat("/no/parent").unwrap().is_dir, "{name}");
        }
    }

    #[test]
    fn rmdir_refuses_non_empty() {
        for (name, b) in backings() {
            b.mkdir("/d").unwrap();
            b.create("/d/f", true).unwrap();
            assert!(b.rmdir("/d").is_err(), "{name}");
            b.unlink("/d/f").unwrap();
            b.rmdir("/d").unwrap();
            assert!(!b.exists("/d"), "{name}");
        }
    }

    #[test]
    fn rename_moves_directory_trees() {
        for (name, b) in backings() {
            b.mkdir_all("/t/sub").unwrap();
            let f = b.create("/t/sub/f", true).unwrap();
            f.pwrite(b"data", 0).unwrap();
            drop(f);
            b.rename("/t", "/renamed").unwrap();
            assert!(!b.exists("/t"), "{name}");
            let f = b.open("/renamed/sub/f", false).unwrap();
            let mut buf = [0u8; 4];
            f.pread(&mut buf, 0).unwrap();
            assert_eq!(&buf, b"data", "{name}");
        }
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        for (name, b) in backings() {
            let f = b.create("/t", true).unwrap();
            f.pwrite(b"abcdef", 0).unwrap();
            drop(f);
            b.truncate("/t", 3).unwrap();
            assert_eq!(b.stat("/t").unwrap().size, 3, "{name}");
            b.truncate("/t", 10).unwrap();
            assert_eq!(b.stat("/t").unwrap().size, 10, "{name}");
            let f = b.open("/t", false).unwrap();
            let mut buf = [0u8; 10];
            f.pread(&mut buf, 0).unwrap();
            assert_eq!(&buf[..3], b"abc", "{name}");
            assert_eq!(&buf[3..], &[0u8; 7], "{name}");
        }
    }

    #[test]
    fn remove_tree_deletes_recursively() {
        for (name, b) in backings() {
            b.mkdir_all("/c/h1").unwrap();
            b.create("/c/h1/d1", true).unwrap();
            b.create("/c/access", true).unwrap();
            remove_tree(b.as_ref(), "/c").unwrap();
            assert!(!b.exists("/c"), "{name}");
        }
    }

    /// A backing whose readdir reports one phantom child that no longer
    /// exists — the shape a concurrent unlink race leaves behind.
    struct PhantomChild(MemBacking);

    impl Backing for PhantomChild {
        fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
            self.0.create(path, excl)
        }
        fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
            self.0.open(path, write)
        }
        fn mkdir(&self, path: &str) -> Result<()> {
            self.0.mkdir(path)
        }
        fn mkdir_all(&self, path: &str) -> Result<()> {
            self.0.mkdir_all(path)
        }
        fn readdir(&self, path: &str) -> Result<Vec<String>> {
            let mut names = self.0.readdir(path)?;
            names.push("vanished-by-unlink".to_string());
            Ok(names)
        }
        fn unlink(&self, path: &str) -> Result<()> {
            self.0.unlink(path)
        }
        fn rmdir(&self, path: &str) -> Result<()> {
            self.0.rmdir(path)
        }
        fn rename(&self, from: &str, to: &str) -> Result<()> {
            self.0.rename(from, to)
        }
        fn stat(&self, path: &str) -> Result<BackStat> {
            self.0.stat(path)
        }
        fn truncate(&self, path: &str, len: u64) -> Result<()> {
            self.0.truncate(path, len)
        }
    }

    #[test]
    fn remove_tree_tolerates_vanishing_children() {
        let b = PhantomChild(MemBacking::new());
        b.mkdir_all("/c/h1").unwrap();
        b.create("/c/h1/d1", true).unwrap();
        // Every readdir reports a child that stat/unlink will miss; the
        // removal must shrug and still take the tree down.
        remove_tree(&b, "/c").unwrap();
        assert!(!b.exists("/c"));
        // Removing an already-gone tree is a no-op, not an error.
        remove_tree(&b, "/c").unwrap();
    }

    #[test]
    fn real_backing_rejects_escape() {
        let dir = std::env::temp_dir().join(format!("plfs-escape-{}", std::process::id()));
        let b = RealBacking::new(&dir).unwrap();
        assert!(b.create("/../evil", true).is_err());
    }

    #[test]
    fn mem_pread_past_eof_returns_zero() {
        let b = MemBacking::new();
        let f = b.create("/f", true).unwrap();
        f.pwrite(b"xy", 0).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(f.pread(&mut buf, 2).unwrap(), 0);
        assert_eq!(f.pread(&mut buf, 100).unwrap(), 0);
    }

    #[test]
    fn mem_stat_counts_a_directorys_own_subdirectories() {
        let b = MemBacking::new();
        assert_eq!(b.stat("/").unwrap().subdirs, Some(0));
        b.mkdir_all("/c/h1/deep").unwrap();
        b.mkdir("/c/h2").unwrap();
        b.mkdir("/c2").unwrap();
        b.create("/c/f", true).unwrap();
        assert_eq!(b.stat("/").unwrap().subdirs, Some(2));
        assert_eq!(b.stat("/c").unwrap().subdirs, Some(2));
        assert_eq!(b.stat("/c/h1").unwrap().subdirs, Some(1));
        assert_eq!(b.stat("/c2").unwrap().subdirs, Some(0));
        assert_eq!(b.stat("/c/f").unwrap().subdirs, None);
    }
}
