//! The POSIX layer abstraction that LDPLFS interposes.
//!
//! The real LDPLFS overloads libc symbols through the dynamic loader; the
//! portable equivalent is a trait capturing the slice of POSIX that matters
//! (paper Listing 1 plus the calls the UNIX-tools study needs). Applications
//! written against [`PosixLayer`] run unmodified over the raw OS
//! ([`crate::realposix::RealPosix`]), over the interposing shim
//! ([`crate::shim::LdPlfs`]) — which is the paper's experiment — or over a
//! simulated file system.
//!
//! Errors are raw `errno` values ([`Errno`]), exactly what an interposed C
//! caller would see.

pub use plfs::OpenFlags;
use std::fmt;

/// A POSIX file descriptor.
pub type Fd = i32;

/// An errno-carrying error, as returned through the C ABI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Errno(pub i32);

/// Result type for POSIX operations.
pub type PosixResult<T> = Result<T, Errno>;

impl Errno {
    /// `ENOENT`
    pub const ENOENT: Errno = Errno(2);
    /// `EIO`
    pub const EIO: Errno = Errno(5);
    /// `EBADF`
    pub const EBADF: Errno = Errno(9);
    /// `EEXIST`
    pub const EEXIST: Errno = Errno(17);
    /// `EXDEV`
    pub const EXDEV: Errno = Errno(18);
    /// `ENOTDIR`
    pub const ENOTDIR: Errno = Errno(20);
    /// `EISDIR`
    pub const EISDIR: Errno = Errno(21);
    /// `EINVAL`
    pub const EINVAL: Errno = Errno(22);
    /// `ENOTEMPTY`
    pub const ENOTEMPTY: Errno = Errno(39);
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "errno {}", self.0)
    }
}

impl std::error::Error for Errno {}

impl From<plfs::Error> for Errno {
    fn from(e: plfs::Error) -> Errno {
        Errno(e.errno())
    }
}

impl From<std::io::Error> for Errno {
    fn from(e: std::io::Error) -> Errno {
        match e.raw_os_error() {
            Some(n) => Errno(n),
            None => match e.kind() {
                std::io::ErrorKind::NotFound => Errno::ENOENT,
                std::io::ErrorKind::AlreadyExists => Errno::EEXIST,
                _ => Errno::EIO,
            },
        }
    }
}

/// `lseek` origins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whence {
    /// `SEEK_SET`
    Set,
    /// `SEEK_CUR`
    Cur,
    /// `SEEK_END`
    End,
}

/// `stat(2)`-shaped metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PosixStat {
    /// File size in bytes.
    pub size: u64,
    /// True for directories.
    pub is_dir: bool,
}

/// One directory entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PosixDirent {
    /// Entry name.
    pub name: String,
    /// True for directories.
    pub is_dir: bool,
}

/// The POSIX file API, fd- and cursor-based.
///
/// `read`/`write` advance an implicit per-description cursor; `dup` shares
/// that cursor between descriptors, as POSIX requires. The LDPLFS shim
/// keeps that contract for containers in [`crate::open`], with a cursor of
/// its own per open: the paper kept it in a reserved descriptor of the
/// layer below, moved by `lseek`.
pub trait PosixLayer: Send + Sync {
    /// `open(2)`.
    fn open(&self, path: &str, flags: OpenFlags, mode: u32) -> PosixResult<Fd>;
    /// `close(2)`.
    fn close(&self, fd: Fd) -> PosixResult<()>;
    /// `read(2)`: read at the cursor, advancing it.
    fn read(&self, fd: Fd, buf: &mut [u8]) -> PosixResult<usize>;
    /// `write(2)`: write at the cursor (or EOF with `O_APPEND`), advancing it.
    fn write(&self, fd: Fd, buf: &[u8]) -> PosixResult<usize>;
    /// `pread(2)`: positional read; does not move the cursor.
    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64) -> PosixResult<usize>;
    /// `pwrite(2)`: positional write; does not move the cursor.
    fn pwrite(&self, fd: Fd, buf: &[u8], off: u64) -> PosixResult<usize>;
    /// `readv(2)`: scatter a cursor-positioned read over `bufs` in order.
    /// The default lowers to one [`PosixLayer::read`] per buffer, stopping
    /// at the first short read (EOF) — layers with a native vectored path
    /// override this to serve the whole vector in one operation.
    fn readv(&self, fd: Fd, bufs: &mut [&mut [u8]]) -> PosixResult<usize> {
        let mut total = 0;
        for buf in bufs.iter_mut() {
            if buf.is_empty() {
                continue;
            }
            let n = self.read(fd, buf)?;
            total += n;
            if n < buf.len() {
                break;
            }
        }
        Ok(total)
    }

    /// `writev(2)`: gather `bufs` into one cursor-positioned write. The
    /// default lowers to one [`PosixLayer::write`] per buffer, stopping at
    /// the first short write.
    fn writev(&self, fd: Fd, bufs: &[&[u8]]) -> PosixResult<usize> {
        let mut total = 0;
        for buf in bufs {
            if buf.is_empty() {
                continue;
            }
            let n = self.write(fd, buf)?;
            total += n;
            if n < buf.len() {
                break;
            }
        }
        Ok(total)
    }

    /// `preadv(2)`: positional scatter read; does not move the cursor.
    /// Buffers fill from consecutive file offsets starting at `off`.
    fn preadv(&self, fd: Fd, bufs: &mut [&mut [u8]], off: u64) -> PosixResult<usize> {
        let mut total = 0;
        let mut pos = off;
        for buf in bufs.iter_mut() {
            if buf.is_empty() {
                continue;
            }
            let n = self.pread(fd, buf, pos)?;
            total += n;
            pos += n as u64;
            if n < buf.len() {
                break;
            }
        }
        Ok(total)
    }

    /// `pwritev(2)`: positional gather write; does not move the cursor.
    fn pwritev(&self, fd: Fd, bufs: &[&[u8]], off: u64) -> PosixResult<usize> {
        let mut total = 0;
        let mut pos = off;
        for buf in bufs {
            if buf.is_empty() {
                continue;
            }
            let n = self.pwrite(fd, buf, pos)?;
            total += n;
            pos += n as u64;
            if n < buf.len() {
                break;
            }
        }
        Ok(total)
    }

    /// `preadv2(2)`: like [`PosixLayer::preadv`], but an offset of `-1`
    /// means "use (and advance) the cursor", i.e. `readv` semantics. Flags
    /// (`RWF_*`) are accepted and ignored, like a file system without
    /// per-call hints.
    fn preadv2(&self, fd: Fd, bufs: &mut [&mut [u8]], off: i64, _flags: u32) -> PosixResult<usize> {
        if off == -1 {
            self.readv(fd, bufs)
        } else if off < 0 {
            Err(Errno::EINVAL)
        } else {
            self.preadv(fd, bufs, off as u64)
        }
    }

    /// `pwritev2(2)`: like [`PosixLayer::pwritev`], with `-1` meaning
    /// `writev` semantics; flags accepted and ignored.
    fn pwritev2(&self, fd: Fd, bufs: &[&[u8]], off: i64, _flags: u32) -> PosixResult<usize> {
        if off == -1 {
            self.writev(fd, bufs)
        } else if off < 0 {
            Err(Errno::EINVAL)
        } else {
            self.pwritev(fd, bufs, off as u64)
        }
    }

    /// `lseek(2)`: move the cursor; returns the new offset.
    fn lseek(&self, fd: Fd, offset: i64, whence: Whence) -> PosixResult<u64>;
    /// `fsync(2)`.
    fn fsync(&self, fd: Fd) -> PosixResult<()>;
    /// `dup(2)`: new descriptor sharing the open file description (cursor).
    fn dup(&self, fd: Fd) -> PosixResult<Fd>;
    /// `stat(2)`.
    fn stat(&self, path: &str) -> PosixResult<PosixStat>;
    /// `fstat(2)`.
    fn fstat(&self, fd: Fd) -> PosixResult<PosixStat>;
    /// `unlink(2)`.
    fn unlink(&self, path: &str) -> PosixResult<()>;
    /// `mkdir(2)`.
    fn mkdir(&self, path: &str, mode: u32) -> PosixResult<()>;
    /// `rmdir(2)`.
    fn rmdir(&self, path: &str) -> PosixResult<()>;
    /// `rename(2)`.
    fn rename(&self, from: &str, to: &str) -> PosixResult<()>;
    /// `access(2)` (existence check).
    fn access(&self, path: &str) -> PosixResult<()>;
    /// `truncate(2)`.
    fn truncate(&self, path: &str, len: u64) -> PosixResult<()>;
    /// `ftruncate(2)`.
    fn ftruncate(&self, fd: Fd, len: u64) -> PosixResult<()>;
    /// Directory listing (`opendir`/`readdir` collapsed into one call).
    fn readdir(&self, path: &str) -> PosixResult<Vec<PosixDirent>>;
}

/// Resolve `lseek` arithmetic against a current offset and file size,
/// enforcing the POSIX rules that the result must not be negative and must
/// be representable as an `off_t` (i64) — `lseek(2)` returns the offset in
/// an `off_t`, so anything above `i64::MAX` is `EINVAL`, not a success the
/// cursor store then rejects.
pub fn seek_target(cur: u64, size: u64, offset: i64, whence: Whence) -> PosixResult<u64> {
    let base = match whence {
        Whence::Set => 0i128,
        Whence::Cur => cur as i128,
        Whence::End => size as i128,
    };
    let target = base + offset as i128;
    if target < 0 || target > i64::MAX as i128 {
        return Err(Errno::EINVAL);
    }
    Ok(target as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seek_target_arithmetic() {
        assert_eq!(seek_target(10, 100, 5, Whence::Set).unwrap(), 5);
        assert_eq!(seek_target(10, 100, 5, Whence::Cur).unwrap(), 15);
        assert_eq!(seek_target(10, 100, -5, Whence::Cur).unwrap(), 5);
        assert_eq!(seek_target(10, 100, -10, Whence::End).unwrap(), 90);
        assert_eq!(
            seek_target(10, 100, 10, Whence::End).unwrap(),
            110,
            "past EOF is legal"
        );
    }

    #[test]
    fn seek_target_rejects_negative() {
        assert_eq!(seek_target(0, 0, -1, Whence::Cur), Err(Errno::EINVAL));
        assert_eq!(seek_target(5, 10, -11, Whence::End), Err(Errno::EINVAL));
    }

    #[test]
    fn seek_target_bounded_by_off_t() {
        // The largest representable offset is fine...
        assert_eq!(
            seek_target(0, 0, i64::MAX, Whence::Set).unwrap(),
            i64::MAX as u64
        );
        assert_eq!(
            seek_target(i64::MAX as u64, 0, 0, Whence::Cur).unwrap(),
            i64::MAX as u64
        );
        // ...but one past it is EINVAL, not a u64 that `lseek` could never
        // have returned.
        assert_eq!(
            seek_target(i64::MAX as u64, 0, 1, Whence::Cur),
            Err(Errno::EINVAL)
        );
        assert_eq!(
            seek_target(0, i64::MAX as u64, 1, Whence::End),
            Err(Errno::EINVAL)
        );
        assert_eq!(
            seek_target(u64::MAX, 0, 0, Whence::Cur),
            Err(Errno::EINVAL),
            "cursor already out of off_t range"
        );
    }

    #[test]
    fn errno_conversions() {
        let e: Errno = plfs::Error::NotFound("x".into()).into();
        assert_eq!(e, Errno::ENOENT);
        let e: Errno = std::io::Error::from_raw_os_error(13).into();
        assert_eq!(e, Errno(13));
    }
}
