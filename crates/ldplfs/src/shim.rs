//! The LDPLFS shim: POSIX calls retargeted to PLFS.
//!
//! [`LdPlfs`] wraps an underlying [`PosixLayer`] (the stand-in for libc) and
//! a set of PLFS mounts. Any path falling inside a mount point is retargeted
//! to the PLFS API; everything else forwards untouched. Applications
//! written against `PosixLayer` cannot tell the difference — that is the
//! paper's whole point.
//!
//! What a call on a container does is [`crate::open`]'s, the dispatcher
//! the `LD_PRELOAD` library runs too; this type adds the trace events. As
//! in the paper (§III.A), every PLFS open reserves a genuine descriptor of
//! the underlying layer, so the application holds a number no other file
//! can take: here a `dup` of one template file, made and unlinked when the
//! shim is built. Unlike the paper, no state is kept through that
//! descriptor: the cursor is an atomic of the open's, and a `read`, `write`
//! or `lseek` on a container makes no call on the layer below.

use crate::open::Dispatcher;
use crate::posix::{Errno, Fd, OpenFlags, PosixDirent, PosixLayer, PosixResult, PosixStat, Whence};
use iotrace::{Layer, OpEvent, OpKind};
use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub use crate::open::ShimMount;

thread_local! {
    static VIRTUAL_PID: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Override the pid this thread's opens write under (real LDPLFS uses
/// `getpid()`; simulated ranks on threads each set their own).
pub fn set_virtual_pid(pid: u64) {
    VIRTUAL_PID.with(|c| c.set(Some(pid)));
}

/// Clear the thread's pid override.
pub fn clear_virtual_pid() {
    VIRTUAL_PID.with(|c| c.set(None));
}

/// The pid an open made on this thread writes under.
pub fn current_pid() -> u64 {
    VIRTUAL_PID
        .with(|c| c.get())
        .unwrap_or(std::process::id() as u64)
}

/// The interposing POSIX layer (the `libldplfs` analogue).
pub struct LdPlfs {
    under: Arc<dyn PosixLayer>,
    /// What `LdPlfs` keeps with an open is its cursor alone.
    opens: Dispatcher<AtomicU64>,
    /// The underlying fd every reserved fd duplicates.
    template: Mutex<Fd>,
}

/// The template: a file of the underlying layer, unlinked as soon as it is
/// open, so it leaves no name behind.
fn new_template(under: &dyn PosixLayer) -> PosixResult<Fd> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    // relaxed: a unique name suffix; only atomicity of the add matters
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = format!("/.ldplfs-template.{}.{seq}", std::process::id());
    let flags = OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::EXCL;
    let fd = under.open(&path, flags, 0o600)?;
    if let Err(e) = under.unlink(&path) {
        let _ = under.close(fd);
        return Err(e);
    }
    Ok(fd)
}

/// A call on the container `$found` finds: `$mine` on it, or `$theirs` on
/// the layer below. Traced as a `$kind` call either way ([`track`]).
macro_rules! call {
    ($found:expr, $kind:ident, $ev:expr, |$o:ident| $mine:expr, $theirs:expr) => {{
        let t0 = iotrace::global().start();
        let (r, hit) = match $found {
            Some($o) => ($mine, true),
            None => ($theirs, false),
        };
        track(OpKind::$kind, hit, t0, &r, $ev);
        r
    }};
}

/// The [`call!`]s on an open fd: each `name(fd, args) -> T: Kind.event()
/// => |o| body` is a method running `body` on the open `fd` names, or the
/// same call on the layer below.
macro_rules! on_fd {
    ($self:ident; $($name:ident($fd:ident $(, $arg:ident: $ty:ty)*) -> $ret:ty:
        $kind:ident $(.$ev:ident($evarg:expr))* => |$o:ident| $mine:expr;)*) => {$(
        fn $name(&$self, $fd: Fd $(, $arg: $ty)*) -> PosixResult<$ret> {
            call!($self.opens.get($fd), $kind, |e| e.fd($fd as i64)$(.$ev($evarg))*,
                |$o| $mine, $self.under.$name($fd $(, $arg)*))
        }
    )*};
}

/// The [`call!`]s on a path: `name(path, args) -> T: Kind.event() => |at|
/// body` runs `body` on the mount `path` is in, if any.
macro_rules! on_path {
    ($self:ident; $($name:ident($path:ident $(, $arg:ident: $ty:ty)*) -> $ret:ty:
        $kind:ident $(.$ev:ident($evarg:expr))* => |$at:ident| $mine:expr;)*) => {$(
        fn $name(&$self, $path: &str $(, $arg: $ty)*) -> PosixResult<$ret> {
            call!($self.opens.resolve($path), $kind, |e| e.path($path)$(.$ev($evarg))*,
                |$at| $mine, $self.under.$name($path $(, $arg)*))
        }
    )*};
}

/// What a call's value adds to its trace event.
trait Detail {
    fn detail<'a>(&self, e: OpEvent<'a>) -> OpEvent<'a> {
        e
    }
}

/// A byte count.
impl Detail for usize {
    fn detail<'a>(&self, e: OpEvent<'a>) -> OpEvent<'a> {
        e.bytes(*self as u64)
    }
}

/// An `lseek`'s new offset.
impl Detail for u64 {
    fn detail<'a>(&self, e: OpEvent<'a>) -> OpEvent<'a> {
        e.offset(*self)
    }
}

/// A new descriptor.
impl Detail for Fd {
    fn detail<'a>(&self, e: OpEvent<'a>) -> OpEvent<'a> {
        e.fd(*self as i64)
    }
}

impl Detail for () {}
impl Detail for PosixStat {}
impl Detail for Vec<PosixDirent> {}

/// When tracing was on at span start, close the span with the event `ev`
/// builds, completed from the result, stamped with the hit flag
/// (intercepted or forwarded) and the span's latency. Called after the
/// operation on both paths, so hit AND miss latencies land in the
/// shim-layer histograms.
fn track<'a, T: Detail>(
    kind: OpKind,
    hit: bool,
    t0: Option<Instant>,
    r: &PosixResult<T>,
    ev: impl FnOnce(OpEvent<'a>) -> OpEvent<'a>,
) {
    if let Some(t0) = t0 {
        let e = ev(OpEvent::new(Layer::Shim, kind));
        let e = match r {
            Ok(v) => v.detail(e),
            Err(_) => e,
        };
        iotrace::global().record(t0, e.hit(hit));
    }
}

impl LdPlfs {
    /// Build a shim over `under` with the given mounts, opening the
    /// template reserved fds duplicate.
    pub fn new(under: Arc<dyn PosixLayer>, mounts: Vec<ShimMount>) -> PosixResult<LdPlfs> {
        let template = Mutex::new(new_template(under.as_ref())?);
        Ok(LdPlfs {
            under,
            opens: Dispatcher::new(mounts),
            template,
        })
    }

    /// The underlying POSIX layer.
    pub fn underlying(&self) -> &Arc<dyn PosixLayer> {
        &self.under
    }

    /// The configured mounts.
    pub fn mounts(&self) -> &[ShimMount] {
        self.opens.mounts()
    }

    /// A new reserved fd: a `dup` of the template, remade if the
    /// application closed it.
    fn reserve(&self) -> PosixResult<Fd> {
        let mut template = self.template.lock();
        match self.under.dup(*template) {
            Err(Errno::EBADF) => {
                *template = new_template(self.under.as_ref())?;
                self.under.dup(*template)
            }
            reserved => reserved,
        }
    }
}

impl Drop for LdPlfs {
    fn drop(&mut self) {
        let _ = self.under.close(*self.template.get_mut());
    }
}

impl PosixLayer for LdPlfs {
    on_fd! { self;
        read(fd, buf: &mut [u8]) -> usize: Read => |o| o.read(buf);
        write(fd, buf: &[u8]) -> usize: Write => |o| o.write(buf);
        pread(fd, buf: &mut [u8], off: u64) -> usize: Read.offset(off) => |o| o.pread(buf, off);
        pwrite(fd, buf: &[u8], off: u64) -> usize:
            Write.offset(off) => |o| o.pwrite(buf, off);
        readv(fd, bufs: &mut [&mut [u8]]) -> usize: ListRead => |o| o.readv(bufs);
        writev(fd, bufs: &[&[u8]]) -> usize: ListWrite => |o| o.writev(bufs);
        preadv(fd, bufs: &mut [&mut [u8]], off: u64) -> usize:
            ListRead.offset(off) => |o| o.preadv(bufs, off);
        pwritev(fd, bufs: &[&[u8]], off: u64) -> usize:
            ListWrite.offset(off) => |o| o.pwritev(bufs, off);
        lseek(fd, offset: i64, whence: Whence) -> u64: Seek => |o| o.lseek(offset, whence);
        fsync(fd) -> (): Sync => |o| o.fsync();
        fstat(fd) -> PosixStat: Meta => |o| o.fstat();
        ftruncate(fd, len: u64) -> (): Trunc.bytes(len) => |o| self.opens.ftruncate(&o, len);
    }

    on_path! { self;
        stat(path) -> PosixStat: Meta => |at| self.opens.stat(at);
        unlink(path) -> (): Meta => |at| self.opens.unlink(at);
        mkdir(path, mode: u32) -> (): Meta => |at| self.opens.mkdir(at);
        rmdir(path) -> (): Meta => |at| self.opens.rmdir(at);
        access(path) -> (): Meta => |at| self.opens.access(at);
        truncate(path, len: u64) -> (): Trunc.bytes(len) => |at| self.opens.truncate(at, len);
        readdir(path) -> Vec<PosixDirent>: Meta => |at| self.opens.readdir(at);
    }

    fn open(&self, path: &str, flags: OpenFlags, mode: u32) -> PosixResult<Fd> {
        let reserve = || Ok((self.reserve()?, AtomicU64::new(0)));
        call!(
            self.opens.resolve(path),
            Open,
            |e| e.path(path),
            |at| self.opens.open(at, flags, current_pid(), reserve),
            self.under.open(path, flags, mode)
        )
    }

    fn close(&self, fd: Fd) -> PosixResult<()> {
        // Both halves are released whatever the other does; the first error
        // is reported.
        call!(
            self.opens.close(fd),
            Close,
            |e| e.fd(fd as i64),
            |o| o.close().and(self.under.close(fd)),
            self.under.close(fd)
        )
    }

    fn dup(&self, fd: Fd) -> PosixResult<Fd> {
        let dup = || {
            let new = self.reserve()?;
            self.opens.dup(fd, new);
            Ok(new)
        };
        call!(
            self.opens.get(fd),
            Meta,
            |e| e,
            |_o| dup(),
            self.under.dup(fd)
        )
    }

    fn rename(&self, from: &str, to: &str) -> PosixResult<()> {
        let ends = (self.opens.resolve(from), self.opens.resolve(to));
        let rename = |ends| match ends {
            (Some(src), Some(dst)) => self.opens.rename(src, dst),
            // Crossing the mount boundary is a different "device".
            _ => Err(Errno::EXDEV),
        };
        call!(
            (ends.0.is_some() || ends.1.is_some()).then_some(ends),
            Meta,
            |e| e.path(from),
            |ends| rename(ends),
            self.under.rename(from, to)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realposix::RealPosix;
    use plfs::{MemBacking, Plfs};

    const CREATE_RW: OpenFlags = OpenFlags(0o2 | 0o100);

    fn sandbox() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ldplfs-shim-{}-{}",
            std::process::id(),
            plfs::index::next_timestamp()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn mount(plfs: Plfs) -> Vec<ShimMount> {
        vec![ShimMount {
            mount_point: "/plfs".to_string(),
            plfs,
        }]
    }

    /// A shim with `plfs` at `/plfs`, over a `RealPosix` the caller keeps.
    fn shim_with(plfs: Plfs) -> (LdPlfs, Arc<RealPosix>) {
        let under = Arc::new(RealPosix::rooted(sandbox()).unwrap());
        (LdPlfs::new(under.clone(), mount(plfs)).unwrap(), under)
    }

    fn shim_over_real() -> (LdPlfs, Arc<RealPosix>) {
        shim_with(Plfs::new(Arc::new(MemBacking::new())))
    }

    fn shim() -> LdPlfs {
        shim_over_real().0
    }

    fn fault(op: plfs::FaultOp, path: &str) -> plfs::FaultRule {
        plfs::FaultRule {
            op,
            path_contains: path.to_string(),
            after: 0,
            times: u64::MAX,
            errno_like: plfs::FaultKind::Io,
        }
    }

    #[test]
    fn open_inside_mount_is_intercepted() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"via shim").unwrap();
        s.close(fd).unwrap();
        // The container lives on the PLFS backing, not the real FS.
        assert!(s.mounts()[0].plfs.is_container("/f"));
        // And the logical file stats correctly through the shim.
        assert_eq!(s.stat("/plfs/f").unwrap().size, 8);
    }

    #[test]
    fn open_outside_mount_passes_through() {
        let s = shim();
        let fd = s.open("/normal.txt", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"plain").unwrap();
        s.close(fd).unwrap();
        assert_eq!(s.underlying().stat("/normal.txt").unwrap().size, 5);
        assert!(!s.mounts()[0].plfs.is_container("/normal.txt"));
    }

    #[test]
    fn cursor_semantics_match_posix() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"0123456789").unwrap();
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 10);
        s.lseek(fd, 2, Whence::Set).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(s.read(fd, &mut buf).unwrap(), 4);
        assert_eq!(&buf, b"2345");
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 6);
        // SEEK_END uses the logical PLFS size.
        assert_eq!(s.lseek(fd, -3, Whence::End).unwrap(), 7);
        s.read(fd, &mut buf[..3]).unwrap();
        assert_eq!(&buf[..3], b"789");
        s.close(fd).unwrap();
    }

    #[test]
    fn interleaved_read_write_via_cursor() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"aaaa").unwrap();
        s.lseek(fd, 0, Whence::Set).unwrap();
        let mut b2 = [0u8; 2];
        s.read(fd, &mut b2).unwrap();
        s.write(fd, b"XX").unwrap(); // overwrite bytes 2..4
        s.lseek(fd, 0, Whence::Set).unwrap();
        let mut all = [0u8; 4];
        s.read(fd, &mut all).unwrap();
        assert_eq!(&all, b"aaXX");
        s.close(fd).unwrap();
    }

    #[test]
    fn pread_pwrite_do_not_move_cursor() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"base").unwrap();
        s.pwrite(fd, b"zz", 10).unwrap();
        let mut buf = [0u8; 2];
        s.pread(fd, &mut buf, 10).unwrap();
        assert_eq!(&buf, b"zz");
        assert_eq!(
            s.lseek(fd, 0, Whence::Cur).unwrap(),
            4,
            "cursor still after write"
        );
        s.close(fd).unwrap();
    }

    #[test]
    fn append_mode_writes_at_logical_eof() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"head").unwrap();
        s.close(fd).unwrap();
        let fd = s
            .open("/plfs/f", OpenFlags::WRONLY | OpenFlags::APPEND, 0o644)
            .unwrap();
        s.write(fd, b"+tail").unwrap();
        s.close(fd).unwrap();
        assert_eq!(s.stat("/plfs/f").unwrap().size, 9);
    }

    #[test]
    fn dup_shares_plfs_cursor() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"abcdef").unwrap();
        s.lseek(fd, 0, Whence::Set).unwrap();
        let fd2 = s.dup(fd).unwrap();
        let mut buf = [0u8; 2];
        s.read(fd, &mut buf).unwrap();
        assert_eq!(s.lseek(fd2, 0, Whence::Cur).unwrap(), 2, "shared cursor");
        s.close(fd).unwrap();
        s.read(fd2, &mut buf).unwrap();
        assert_eq!(&buf, b"cd", "fd2 alive after fd close");
        s.close(fd2).unwrap();
    }

    #[test]
    fn reserved_fds_are_released_on_last_close() {
        let (s, under) = shim_over_real();
        let before = under.open_fds();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        let fd2 = s.dup(fd).unwrap();
        assert_eq!(under.open_fds(), before + 2, "one reserved fd each");
        s.close(fd).unwrap();
        assert_eq!(s.fstat(fd2).unwrap().size, 0, "the open outlives a dup");
        s.close(fd2).unwrap();
        assert_eq!(under.open_fds(), before);
        // The template left no name on the layer below.
        assert!(under.readdir("/").unwrap().is_empty());
    }

    #[test]
    fn metadata_ops_route_by_mount() {
        let s = shim();
        s.mkdir("/plfs/dir", 0o755).unwrap();
        s.mkdir("/outside", 0o755).unwrap();
        assert!(s.mounts()[0].plfs.getattr("/dir").unwrap().is_dir);
        assert!(s.underlying().stat("/outside").unwrap().is_dir);
        assert!(
            s.underlying().stat("/plfs").is_err(),
            "mount dir not on real FS"
        );
        s.rmdir("/plfs/dir").unwrap();
        assert!(s.access("/plfs/dir").is_err());
    }

    #[test]
    fn rename_within_and_across_mounts() {
        let s = shim();
        let fd = s.open("/plfs/a", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"x").unwrap();
        s.close(fd).unwrap();
        s.rename("/plfs/a", "/plfs/b").unwrap();
        assert_eq!(s.stat("/plfs/b").unwrap().size, 1);
        assert_eq!(s.rename("/plfs/b", "/outside"), Err(Errno::EXDEV));
    }

    #[test]
    fn unlink_removes_container() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.close(fd).unwrap();
        s.unlink("/plfs/f").unwrap();
        assert_eq!(s.access("/plfs/f"), Err(Errno::ENOENT));
    }

    #[test]
    fn truncate_and_ftruncate() {
        let s = shim();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"0123456789").unwrap();
        s.ftruncate(fd, 4).unwrap();
        assert_eq!(s.fstat(fd).unwrap().size, 4);
        // Writes after ftruncate land in fresh droppings.
        s.pwrite(fd, b"ZZ", 4).unwrap();
        assert_eq!(s.fstat(fd).unwrap().size, 6);
        s.close(fd).unwrap();
        s.truncate("/plfs/f", 2).unwrap();
        assert_eq!(s.stat("/plfs/f").unwrap().size, 2);
    }

    #[test]
    fn readdir_mixes_containers_and_dirs() {
        let s = shim();
        s.mkdir("/plfs/sub", 0o755).unwrap();
        let fd = s.open("/plfs/file", CREATE_RW, 0o644).unwrap();
        s.close(fd).unwrap();
        let ents = s.readdir("/plfs").unwrap();
        let names: Vec<_> = ents.iter().map(|e| (e.name.as_str(), e.is_dir)).collect();
        assert!(
            names.contains(&("file", false)),
            "container looks like a file"
        );
        assert!(names.contains(&("sub", true)));
    }

    /// Each open writes under the pid of the thread that made it, whatever
    /// that thread's pid is by the time it writes.
    #[test]
    fn virtual_pids_separate_writers() {
        let s = shim();
        for (pid, data, off) in [(11, b"aa", 0), (22, b"bb", 2)] {
            set_virtual_pid(pid);
            let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
            set_virtual_pid(33);
            s.pwrite(fd, data, off).unwrap();
            s.close(fd).unwrap();
        }
        clear_virtual_pid();
        let fd = s.open("/plfs/f", OpenFlags::RDONLY, 0).unwrap();
        let mut buf = [0u8; 4];
        s.pread(fd, &mut buf, 0).unwrap();
        assert_eq!(&buf, b"aabb");
        s.close(fd).unwrap();
        // The creator's pair, and pid 22's: nothing of pid 33's.
        let b = s.mounts()[0].plfs.backing().clone();
        let d = plfs::container::list_droppings(b.as_ref(), "/f").unwrap();
        let data: Vec<_> = d.iter().map(|d| d.data_path.as_str()).collect();
        assert_eq!(data.len(), 2, "{data:?}");
        assert!(
            data.iter().any(|p| p.ends_with("/dropping.data.22.0")),
            "{data:?}"
        );
    }

    #[test]
    fn vectored_io_round_trips_through_plfs() {
        let s = shim();
        let fd = s.open("/plfs/v", CREATE_RW, 0o644).unwrap();
        assert_eq!(s.writev(fd, &[b"abc", b"", b"defgh"]).unwrap(), 8);
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 8, "cursor advanced");
        s.lseek(fd, 0, Whence::Set).unwrap();
        let mut a = [0u8; 2];
        let mut b = [0u8; 6];
        assert_eq!(s.readv(fd, &mut [&mut a[..], &mut b[..]]).unwrap(), 8);
        assert_eq!(&a, b"ab");
        assert_eq!(&b, b"cdefgh");
        // Positional variants leave the cursor alone.
        let mut c = [0u8; 3];
        assert_eq!(s.preadv(fd, &mut [&mut c[..]], 2).unwrap(), 3);
        assert_eq!(&c, b"cde");
        s.pwritev(fd, &[b"X", b"Y"], 0).unwrap();
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 8, "cursor untouched");
        let mut d = [0u8; 2];
        s.pread(fd, &mut d, 0).unwrap();
        assert_eq!(&d, b"XY");
        s.close(fd).unwrap();
    }

    #[test]
    fn writev_costs_one_index_record() {
        let s = shim();
        let fd = s.open("/plfs/one", CREATE_RW, 0o644).unwrap();
        s.writev(fd, &[b"aaaa", b"bbbb", b"cccc"]).unwrap();
        s.close(fd).unwrap();
        let b = s.mounts()[0].plfs.backing().clone();
        let d = plfs::container::list_droppings(b.as_ref(), "/one").unwrap();
        let idx_bytes: u64 = d
            .iter()
            .filter_map(|dr| dr.index_path.as_deref())
            .map(|p| b.stat(p).map(|st| st.size).unwrap_or(0))
            .sum();
        assert_eq!(
            idx_bytes,
            plfs::index::RECORD_SIZE as u64,
            "three iovecs gathered into a single index record"
        );
    }

    #[test]
    fn writev_in_append_mode_lands_at_logical_eof() {
        let s = shim();
        let fd = s.open("/plfs/ap", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"head").unwrap();
        s.close(fd).unwrap();
        let fd = s
            .open("/plfs/ap", OpenFlags::WRONLY | OpenFlags::APPEND, 0o644)
            .unwrap();
        assert_eq!(s.writev(fd, &[b"+t", b"ail"]).unwrap(), 5);
        s.close(fd).unwrap();
        assert_eq!(s.stat("/plfs/ap").unwrap().size, 9);
    }

    #[test]
    fn preadv2_pwritev2_follow_offset_convention() {
        let s = shim();
        let fd = s.open("/plfs/v2", CREATE_RW, 0o644).unwrap();
        // off = -1 means cursor semantics.
        assert_eq!(s.pwritev2(fd, &[b"01", b"23"], -1, 0).unwrap(), 4);
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 4);
        // Explicit offset does not move the cursor.
        assert_eq!(s.pwritev2(fd, &[b"45"], 4, 0).unwrap(), 2);
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 4);
        s.lseek(fd, 0, Whence::Set).unwrap();
        let mut a = [0u8; 6];
        assert_eq!(s.preadv2(fd, &mut [&mut a[..]], -1, 0).unwrap(), 6);
        assert_eq!(&a, b"012345");
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 6);
        let mut b = [0u8; 2];
        assert_eq!(s.preadv2(fd, &mut [&mut b[..]], 2, 0).unwrap(), 2);
        assert_eq!(&b, b"23");
        assert_eq!(s.lseek(fd, 0, Whence::Cur).unwrap(), 6, "cursor untouched");
        // Other negative offsets are EINVAL.
        assert_eq!(s.preadv2(fd, &mut [&mut b[..]], -2, 0), Err(Errno::EINVAL));
        assert_eq!(s.pwritev2(fd, &[b"x"], -2, 0), Err(Errno::EINVAL));
        s.close(fd).unwrap();
    }

    #[test]
    fn ebadf_on_unknown_fd_passthrough() {
        let s = shim();
        let mut buf = [0u8; 1];
        assert_eq!(s.read(424242, &mut buf), Err(Errno::EBADF));
    }

    #[test]
    fn failed_plfs_close_still_releases_fd() {
        // Regression: a PLFS-side close error used to `?`-return before the
        // reserved descriptor was closed, leaking it for the life of the
        // process.
        let faulty = Arc::new(plfs::Faulty::new(Arc::new(MemBacking::new())));
        let (s, under) = shim_with(Plfs::new(faulty.clone()));
        let before = under.open_fds();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"payload").unwrap();
        // Fail the data-dropping sync that PlfsFd::close performs.
        faulty.arm(fault(plfs::FaultOp::Meta, "dropping.data"));
        assert_eq!(s.close(fd), Err(Errno::EIO), "PLFS close error surfaces");
        // ...but nothing leaked: the fd is gone from the table and from the
        // underlying layer.
        let mut buf = [0u8; 1];
        assert_eq!(s.read(fd, &mut buf), Err(Errno::EBADF));
        assert_eq!(under.open_fds(), before);
    }

    /// `ftruncate` quiesces the open's writers first; when that flush fails
    /// the call fails with the flush's errno, not a made-up `EBADF`.
    #[test]
    fn ftruncate_reports_the_failed_flush_errno() {
        let faulty = Arc::new(plfs::Faulty::new(Arc::new(MemBacking::new())));
        let (s, _) = shim_with(Plfs::new(faulty.clone()));
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        s.write(fd, b"payload").unwrap();
        faulty.arm(fault(plfs::FaultOp::Write, "dropping.index"));
        assert_eq!(s.ftruncate(fd, 2), Err(Errno::EIO));
        faulty.disarm();
        let _ = s.close(fd);
    }

    /// A `PosixLayer` that counts the calls it forwards to a `RealPosix`.
    struct Counting(RealPosix, AtomicU64);

    macro_rules! counted {
        ($($name:ident($($arg:ident: $ty:ty),*) -> $ret:ty;)*) => {$(
            fn $name(&self, $($arg: $ty),*) -> PosixResult<$ret> {
                self.1.fetch_add(1, Ordering::Relaxed);
                self.0.$name($($arg),*)
            }
        )*};
    }

    impl PosixLayer for Counting {
        counted! {
            open(path: &str, flags: OpenFlags, mode: u32) -> Fd;
            close(fd: Fd) -> ();
            read(fd: Fd, buf: &mut [u8]) -> usize;
            write(fd: Fd, buf: &[u8]) -> usize;
            pread(fd: Fd, buf: &mut [u8], off: u64) -> usize;
            pwrite(fd: Fd, buf: &[u8], off: u64) -> usize;
            lseek(fd: Fd, offset: i64, whence: Whence) -> u64;
            fsync(fd: Fd) -> ();
            dup(fd: Fd) -> Fd;
            stat(path: &str) -> PosixStat;
            fstat(fd: Fd) -> PosixStat;
            unlink(path: &str) -> ();
            mkdir(path: &str, mode: u32) -> ();
            rmdir(path: &str) -> ();
            rename(from: &str, to: &str) -> ();
            access(path: &str) -> ();
            truncate(path: &str, len: u64) -> ();
            ftruncate(fd: Fd, len: u64) -> ();
            readdir(path: &str) -> Vec<PosixDirent>;
        }
    }

    /// The paper kept the cursor in the reserved fd: two `lseek`s on the
    /// layer below per cursor call. A container call now makes none.
    #[test]
    fn container_calls_make_no_call_below() {
        let under = Arc::new(Counting(
            RealPosix::rooted(sandbox()).unwrap(),
            AtomicU64::new(0),
        ));
        let plfs = Plfs::new(Arc::new(MemBacking::new()));
        let s = LdPlfs::new(under.clone(), mount(plfs)).unwrap();
        let fd = s.open("/plfs/f", CREATE_RW, 0o644).unwrap();
        let calls = || under.1.load(Ordering::Relaxed);
        let before = calls();
        let mut buf = [0u8; 4];
        assert_eq!(s.write(fd, b"abcdef").unwrap(), 6);
        assert_eq!(s.lseek(fd, 1, Whence::Set).unwrap(), 1);
        assert_eq!(s.read(fd, &mut buf).unwrap(), 4);
        assert_eq!(s.pwrite(fd, b"XY", 6).unwrap(), 2);
        assert_eq!(s.pread(fd, &mut buf, 4).unwrap(), 4);
        assert_eq!(&buf, b"efXY");
        assert_eq!(s.fstat(fd).unwrap().size, 8);
        assert_eq!(s.lseek(fd, -1, Whence::End).unwrap(), 7);
        assert_eq!(calls(), before, "container calls reached the layer below");
        s.close(fd).unwrap();
    }
}
