//! Replays an op list in-process against the two library entry points —
//! the `ldplfs` trait shim and the `plfs` API — with a span around every
//! application-level call. The same checks `posix_app` makes apply: a
//! failed or short call counts as failed, reads are checksummed.

use crate::oplist::{fold, now_ns, Op, OpList};
use crate::span::{self, Span};
use ldplfs::{OpenFlags, PosixLayer};
use plfs::{Plfs, PlfsFd};
use std::sync::Arc;

/// Where a replay sends its calls. Every method reports success; data
/// methods move exactly `buf.len()` bytes or fail.
pub trait Target {
    /// Span layer name.
    const LAYER: &'static str;
    /// Span op name for a call.
    fn op_name(op: &Op) -> &'static str;
    fn open(&mut self, name: &str, flags: u32) -> bool;
    fn close(&mut self) -> bool;
    fn pwrite(&mut self, data: &[u8], off: u64) -> bool;
    fn write(&mut self, data: &[u8]) -> bool;
    fn pread(&mut self, buf: &mut [u8], off: u64) -> bool;
    fn read(&mut self, buf: &mut [u8]) -> bool;
    fn fsync(&mut self) -> bool;
    /// Size of the named file, if it can be stat'ed.
    fn stat(&mut self, name: &str) -> Option<u64>;
    fn unlink(&mut self, name: &str) -> bool;
}

/// Entry (b): the trait shim, addressed like an application would.
pub struct ViaShim<'a> {
    pub shim: &'a dyn PosixLayer,
    /// Mount point the file names are under.
    pub mount: &'a str,
    pub fd: i32,
}

impl Target for ViaShim<'_> {
    const LAYER: &'static str = "ldplfs";
    fn op_name(op: &Op) -> &'static str {
        op.name()
    }
    fn open(&mut self, name: &str, flags: u32) -> bool {
        let path = format!("{}/{name}", self.mount);
        self.fd = self.shim.open(&path, OpenFlags(flags), 0o644).unwrap_or(-1);
        self.fd >= 0
    }
    fn close(&mut self) -> bool {
        self.shim.close(std::mem::replace(&mut self.fd, -1)).is_ok()
    }
    fn pwrite(&mut self, data: &[u8], off: u64) -> bool {
        self.shim.pwrite(self.fd, data, off) == Ok(data.len())
    }
    fn write(&mut self, data: &[u8]) -> bool {
        self.shim.write(self.fd, data) == Ok(data.len())
    }
    fn pread(&mut self, buf: &mut [u8], off: u64) -> bool {
        self.shim.pread(self.fd, buf, off) == Ok(buf.len())
    }
    fn read(&mut self, buf: &mut [u8]) -> bool {
        self.shim.read(self.fd, buf) == Ok(buf.len())
    }
    fn fsync(&mut self) -> bool {
        self.shim.fsync(self.fd).is_ok()
    }
    fn stat(&mut self, name: &str) -> Option<u64> {
        let path = format!("{}/{name}", self.mount);
        self.shim.stat(&path).ok().map(|st| st.size)
    }
    fn unlink(&mut self, name: &str) -> bool {
        self.shim.unlink(&format!("{}/{name}", self.mount)).is_ok()
    }
}

/// Entry (c): the plfs API called directly; the replay keeps the cursor
/// the shim would keep.
pub struct ViaApi<'a> {
    pub plfs: &'a Plfs,
    pub pid: u64,
    pub fd: Option<Arc<PlfsFd>>,
    pub cursor: u64,
}

impl ViaApi<'_> {
    fn with_fd<R>(&self, f: impl FnOnce(&PlfsFd) -> plfs::Result<R>) -> Option<R> {
        self.fd.as_deref().and_then(|fd| f(fd).ok())
    }
}

impl Target for ViaApi<'_> {
    const LAYER: &'static str = "plfs.api";
    fn op_name(op: &Op) -> &'static str {
        match op {
            Op::Pwrite { .. } | Op::Write { .. } => "write",
            Op::Pread { .. } | Op::Read { .. } => "read",
            Op::Stat { .. } => "getattr",
            Op::Fsync => "sync",
            other => other.name(),
        }
    }
    fn open(&mut self, name: &str, flags: u32) -> bool {
        self.cursor = 0;
        self.fd = self
            .plfs
            .open(&format!("/{name}"), OpenFlags(flags), self.pid)
            .ok();
        self.fd.is_some()
    }
    fn close(&mut self) -> bool {
        let fd = self.fd.take();
        fd.is_some_and(|fd| self.plfs.close(&fd, self.pid).is_ok())
    }
    fn pwrite(&mut self, data: &[u8], off: u64) -> bool {
        self.with_fd(|fd| self.plfs.write(fd, data, off, self.pid)) == Some(data.len())
    }
    fn write(&mut self, data: &[u8]) -> bool {
        let ok = self.pwrite(data, self.cursor);
        self.cursor += data.len() as u64;
        ok
    }
    fn pread(&mut self, buf: &mut [u8], off: u64) -> bool {
        let want = buf.len();
        self.with_fd(|fd| self.plfs.read(fd, buf, off)) == Some(want)
    }
    fn read(&mut self, buf: &mut [u8]) -> bool {
        let ok = self.pread(buf, self.cursor);
        self.cursor += buf.len() as u64;
        ok
    }
    fn fsync(&mut self) -> bool {
        self.with_fd(|fd| self.plfs.sync(fd, self.pid)).is_some()
    }
    fn stat(&mut self, name: &str) -> Option<u64> {
        self.plfs
            .getattr(&format!("/{name}"))
            .ok()
            .map(|st| st.size)
    }
    fn unlink(&mut self, name: &str) -> bool {
        self.plfs.unlink(&format!("/{name}")).is_ok()
    }
}

pub struct Replayed {
    pub calls: u64,
    pub failed: u64,
    pub read_bytes: u64,
    pub read_sum: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// This thread's spans, taken when the replay ended.
    pub spans: Vec<Span>,
}

/// Execute every op of `list` on `target`, one span and one `req` per op.
pub fn replay<T: Target>(target: &mut T, list: &OpList, payload: &[u8]) -> Replayed {
    let mut buf = vec![0u8; list.max_read_len()];
    let (mut failed, mut read_bytes, mut read_sum) = (0, 0, 0);
    let start_ns = now_ns();
    for (i, op) in list.ops.iter().enumerate() {
        span::next_req(i as u32 + 1);
        let g = span::enter(T::LAYER, T::op_name(op));
        let data = |src: u32, len: u32| &payload[src as usize..][..len as usize];
        let ok = match *op {
            Op::Open { path, flags } => target.open(&list.paths[path as usize], flags),
            Op::Close => target.close(),
            Op::Pwrite { off, len, src } => target.pwrite(data(src, len), off),
            Op::Write { len, src } => target.write(data(src, len)),
            Op::Pread { off, len } => target.pread(&mut buf[..len as usize], off),
            Op::Read { len } => target.read(&mut buf[..len as usize]),
            Op::Fsync => target.fsync(),
            Op::Stat { path, size } => target.stat(&list.paths[path as usize]) == Some(size),
            Op::Unlink { path } => target.unlink(&list.paths[path as usize]),
        };
        if let Op::Pwrite { len, .. }
        | Op::Write { len, .. }
        | Op::Pread { len, .. }
        | Op::Read { len } = *op
        {
            g.bytes(len as u64);
        }
        drop(g);
        if !ok {
            failed += 1;
        } else if let Op::Pread { len, .. } | Op::Read { len } = *op {
            read_bytes += len as u64;
            read_sum = fold(read_sum, &buf[..len as usize]);
        }
    }
    let end_ns = now_ns();
    Replayed {
        calls: list.ops.len() as u64,
        failed,
        read_bytes,
        read_sum,
        start_ns,
        end_ns,
        spans: span::take_thread(),
    }
}
