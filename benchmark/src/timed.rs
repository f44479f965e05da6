//! Forwarding decorators that put a span around every call crossing the
//! two seams the product exposes as traits: `plfs::Backing` (+ its files)
//! and `ldplfs::PosixLayer`. They change nothing about the call.

use crate::span::enter;
use ldplfs::{Fd, OpenFlags, PosixDirent, PosixLayer, PosixResult, PosixStat, Whence};
use plfs::{BackStat, Backing, BackingFile, Result};
use std::sync::Arc;

pub const BACKING: &str = "plfs.backing";
pub const UNDER: &str = "ldplfs.under";

/// Backing ops that move file data; every other op is metadata.
pub const BACKING_DATA_OPS: [&str; 3] = ["append", "pwrite", "pread"];

pub struct TimedBacking(pub Arc<dyn Backing>);

struct TimedFile(Box<dyn BackingFile>);

/// Span the call; on success record the byte count `$bytes` computes from
/// the value.
macro_rules! timed {
    ($layer:expr, $op:literal, $call:expr) => {{
        let _g = enter($layer, $op);
        $call
    }};
    ($layer:expr, $op:literal, $call:expr, |$v:ident| $bytes:expr) => {{
        let g = enter($layer, $op);
        let r = $call;
        if let Ok($v) = &r {
            g.bytes($bytes as u64);
        }
        r
    }};
}

impl BackingFile for TimedFile {
    fn pread(&self, buf: &mut [u8], off: u64) -> Result<usize> {
        timed!(BACKING, "pread", self.0.pread(buf, off), |n| *n)
    }
    fn pwrite(&self, buf: &[u8], off: u64) -> Result<usize> {
        timed!(BACKING, "pwrite", self.0.pwrite(buf, off), |n| *n)
    }
    fn append(&self, buf: &[u8]) -> Result<u64> {
        timed!(BACKING, "append", self.0.append(buf), |_off| buf.len())
    }
    fn size(&self) -> Result<u64> {
        timed!(BACKING, "size", self.0.size())
    }
    fn sync(&self) -> Result<()> {
        timed!(BACKING, "sync", self.0.sync())
    }
}

fn wrap(f: Result<Box<dyn BackingFile>>) -> Result<Box<dyn BackingFile>> {
    f.map(|f| Box::new(TimedFile(f)) as Box<dyn BackingFile>)
}

impl Backing for TimedBacking {
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
        wrap(timed!(BACKING, "create", self.0.create(path, excl)))
    }
    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
        wrap(timed!(BACKING, "open", self.0.open(path, write)))
    }
    fn mkdir(&self, path: &str) -> Result<()> {
        timed!(BACKING, "mkdir", self.0.mkdir(path))
    }
    // Counted with mkdir: one logical "make this directory" request.
    fn mkdir_all(&self, path: &str) -> Result<()> {
        timed!(BACKING, "mkdir", self.0.mkdir_all(path))
    }
    fn readdir(&self, path: &str) -> Result<Vec<String>> {
        timed!(BACKING, "readdir", self.0.readdir(path))
    }
    fn unlink(&self, path: &str) -> Result<()> {
        timed!(BACKING, "unlink", self.0.unlink(path))
    }
    fn rmdir(&self, path: &str) -> Result<()> {
        timed!(BACKING, "rmdir", self.0.rmdir(path))
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        timed!(BACKING, "rename", self.0.rename(from, to))
    }
    fn stat(&self, path: &str) -> Result<BackStat> {
        timed!(BACKING, "stat", self.0.stat(path))
    }
    // An existence probe is a stat on every real backing.
    fn exists(&self, path: &str) -> bool {
        timed!(BACKING, "stat", self.0.exists(path))
    }
    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        timed!(BACKING, "truncate", self.0.truncate(path, len))
    }
    fn seal(&self, path: &str) -> Result<()> {
        self.0.seal(path)
    }
}

pub struct TimedPosix(pub Arc<dyn PosixLayer>);

impl PosixLayer for TimedPosix {
    fn open(&self, path: &str, flags: OpenFlags, mode: u32) -> PosixResult<Fd> {
        timed!(UNDER, "open", self.0.open(path, flags, mode))
    }
    fn close(&self, fd: Fd) -> PosixResult<()> {
        timed!(UNDER, "close", self.0.close(fd))
    }
    fn read(&self, fd: Fd, buf: &mut [u8]) -> PosixResult<usize> {
        timed!(UNDER, "read", self.0.read(fd, buf), |n| *n)
    }
    fn write(&self, fd: Fd, buf: &[u8]) -> PosixResult<usize> {
        timed!(UNDER, "write", self.0.write(fd, buf), |n| *n)
    }
    fn pread(&self, fd: Fd, buf: &mut [u8], off: u64) -> PosixResult<usize> {
        timed!(UNDER, "pread", self.0.pread(fd, buf, off), |n| *n)
    }
    fn pwrite(&self, fd: Fd, buf: &[u8], off: u64) -> PosixResult<usize> {
        timed!(UNDER, "pwrite", self.0.pwrite(fd, buf, off), |n| *n)
    }
    fn lseek(&self, fd: Fd, offset: i64, whence: Whence) -> PosixResult<u64> {
        timed!(UNDER, "lseek", self.0.lseek(fd, offset, whence))
    }
    fn fsync(&self, fd: Fd) -> PosixResult<()> {
        timed!(UNDER, "fsync", self.0.fsync(fd))
    }
    fn dup(&self, fd: Fd) -> PosixResult<Fd> {
        timed!(UNDER, "dup", self.0.dup(fd))
    }
    fn stat(&self, path: &str) -> PosixResult<PosixStat> {
        timed!(UNDER, "stat", self.0.stat(path))
    }
    fn fstat(&self, fd: Fd) -> PosixResult<PosixStat> {
        timed!(UNDER, "fstat", self.0.fstat(fd))
    }
    fn unlink(&self, path: &str) -> PosixResult<()> {
        timed!(UNDER, "unlink", self.0.unlink(path))
    }
    fn mkdir(&self, path: &str, mode: u32) -> PosixResult<()> {
        timed!(UNDER, "mkdir", self.0.mkdir(path, mode))
    }
    fn rmdir(&self, path: &str) -> PosixResult<()> {
        timed!(UNDER, "rmdir", self.0.rmdir(path))
    }
    fn rename(&self, from: &str, to: &str) -> PosixResult<()> {
        timed!(UNDER, "rename", self.0.rename(from, to))
    }
    fn access(&self, path: &str) -> PosixResult<()> {
        timed!(UNDER, "access", self.0.access(path))
    }
    fn truncate(&self, path: &str, len: u64) -> PosixResult<()> {
        timed!(UNDER, "truncate", self.0.truncate(path, len))
    }
    fn ftruncate(&self, fd: Fd, len: u64) -> PosixResult<()> {
        timed!(UNDER, "ftruncate", self.0.ftruncate(fd, len))
    }
    fn readdir(&self, path: &str) -> PosixResult<Vec<PosixDirent>> {
        timed!(UNDER, "readdir", self.0.readdir(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;
    use plfs::MemBacking;

    #[test]
    fn backing_calls_become_child_spans_with_bytes() {
        let _serial = span::TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        span::collect();
        span::set_enabled(true);
        let b = TimedBacking(Arc::new(MemBacking::new()));
        {
            let _api = enter("plfs.api", "write");
            let f = b.create("/f", true).unwrap();
            f.append(b"hello").unwrap();
            assert!(b.exists("/f"));
        }
        span::set_enabled(false);
        let spans = span::collect();
        let api = spans.iter().find(|s| s.layer == "plfs.api").unwrap();
        let ops: Vec<_> = spans.iter().filter(|s| s.layer == BACKING).collect();
        assert_eq!(
            ops.iter().map(|s| s.op).collect::<Vec<_>>(),
            ["create", "append", "stat"]
        );
        assert!(ops.iter().all(|s| s.parent == api.id));
        assert_eq!(ops[1].bytes, 5);
        let selfs = span::self_times(&spans);
        let children: u64 = ops.iter().map(|s| s.dur_ns()).sum();
        assert_eq!(selfs[&api.id], api.dur_ns() - children);
    }
}
