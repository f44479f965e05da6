//! # ldplfs-preload — the `LD_PRELOAD` artifact itself
//!
//! This is the deployment form the paper describes: a shared library that
//! overloads libc's file symbols through the dynamic loader, so *existing
//! binaries* (`cat`, `cp`, `grep`, `md5sum`, shells, applications) operate
//! on PLFS containers without recompilation. The container engine is this
//! repo's `plfs` crate over a real backend directory.
//!
//! ```sh
//! cargo build --release -p ldplfs-preload
//! export LDPLFS_MOUNT=/tmp/plfs LDPLFS_BACKEND=/tmp/plfs_backend
//! LD_PRELOAD=target/release/libldplfs_preload.so  cat  /tmp/plfs/file
//! LD_PRELOAD=target/release/libldplfs_preload.so  md5sum /tmp/plfs/file
//! ```
//!
//! Interposed symbols: `open`, `open64`, `openat`, `openat64`, `creat`,
//! `read`, `write`, `pread(64)`, `pwrite(64)` (and the fortified
//! `__read_chk`/`__pread(64)_chk`), `readv`, `writev`, `preadv(64)`,
//! `pwritev(64)`, `preadv2`/`pwritev2` (and their `64v2` aliases),
//! `lseek(64)`, `close`, `fsync`, `dup`, `dup2`, `unlink`, `access`,
//! `mkdir`, `rmdir`, `ftruncate(64)`, the `stat`/`lstat`/`fstat` family,
//! `fopen(64)`/`fdopen`, `mmap(64)`, and the in-kernel byte movers
//! `copy_file_range`, `sendfile(64)`, `splice`. Calls on paths outside
//! `LDPLFS_MOUNT` forward to the real libc via `dlsym(RTLD_NEXT, …)`,
//! exactly like the original.
//!
//! Faithful to the paper's design, the shim reserves a *genuine* kernel fd
//! per PLFS open (here via `memfd_create`, avoiding the litter of the
//! paper's `/dev/random` trick) and keeps the logical cursor in that fd via
//! real `lseek`s — so `dup(2)`'d descriptors share cursors exactly like
//! ordinary files.
//!
//! Every open, read-only ones included, is registered the same way: the
//! reserved fd holds *no data* and reads are served by `PlfsFd::read`
//! straight into the caller's buffer. For I/O that passes no interposed
//! symbol: stdio streams over the mount are `fopencookie` streams on the
//! shim's own read/seek/close (so `fileno()` is -1); `mmap` of a read-only
//! fd fills the reserved fd once, on demand (a writable fd fails `ENODEV`);
//! the kernel's fd-to-fd movers answer `EXDEV`/`EINVAL`. See DESIGN.md.
//!
//! Configuration rides the environment: `LDPLFS_MOUNT` and `LDPLFS_BACKEND`
//! (required), `LDPLFS_HOSTDIRS` (hostdirs per new container),
//! `LDPLFS_FAST_BACKEND` (the burst-buffer directory of a `tiered`
//! backend), plus the env aliases of the one knob table — see the
//! "Configuration" table in README.md, or `plfs-tools rccheck --knobs`.
//! An unparsable value keeps its default (the shim must never refuse to
//! start over tuning); an `LDPLFS_*` name nothing reads, or a tiered
//! request without a usable fast directory, is reported in one stderr line
//! at init.
//!
//! Known limitation (shared with the original): descriptors inherited
//! *across `execve`* lose their PLFS identity, so shell output redirection
//! `> /mount/file` feeding an exec'd child is not supported; tools that
//! open their own outputs (`cp`, applications) work.

#![allow(clippy::missing_safety_doc)]

use parking_lot::{Mutex, RwLock};
use plfs::{OpenFlags, Plfs, PlfsFd, RealBacking};
use std::collections::HashMap;
use std::ffi::CStr;
use std::os::raw::{c_char, c_int, c_long, c_uint, c_void};
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------------
// libc FFI (hand-rolled; this crate must not depend on the libc crate since
// it *is* the layer below it here).
// ---------------------------------------------------------------------------

pub(crate) type OffT = i64;
pub(crate) type SizeT = usize;
pub(crate) type SsizeT = isize;
pub(crate) type ModeT = c_uint;

const RTLD_NEXT: *mut c_void = -1isize as *mut c_void;
const AT_FDCWD: c_int = -100;

const O_ACCMODE: c_int = 0o3;
const O_CREAT: c_int = 0o100;
const O_EXCL: c_int = 0o200;
const O_TRUNC: c_int = 0o1000;
const O_APPEND: c_int = 0o2000;
const O_DIRECTORY: c_int = 0o200000;

const SEEK_SET: c_int = 0;
const SEEK_CUR: c_int = 1;
const SEEK_END: c_int = 2;
const MAP_FAILED: *mut c_void = -1isize as *mut c_void;

const EIO: c_int = 5;
const EBADF: c_int = 9;
const ENOMEM: c_int = 12;
const EXDEV: c_int = 18;
const ENODEV: c_int = 19;
const ENOTDIR: c_int = 20;
const EINVAL: c_int = 22;

extern "C" {
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn __errno_location() -> *mut c_int;
    fn syscall(num: c_long, ...) -> c_long;
    fn getpid() -> c_int;
    fn atexit(cb: extern "C" fn()) -> c_int;
    fn __chk_fail() -> !;
    fn fopencookie(cookie: *mut c_void, mode: *const c_char, io: CookieIo) -> *mut c_void;
}

const SYS_MEMFD_CREATE: c_long = 319; // x86_64

fn set_errno(e: c_int) {
    unsafe { *__errno_location() = e };
}

/// Panic barrier for every `extern "C"` entry point: unwinding across an
/// FFI boundary is undefined behavior and in practice aborts the host
/// application — the one thing an interposition shim must never do. Any
/// residual panic is caught here and converted to the POSIX failure shape,
/// `errno = EIO` plus the call's error sentinel (`-1`, null, …).
///
/// `AssertUnwindSafe` is sound because nothing is resumed after a catch:
/// the process-global shim state is lock-guarded (parking_lot poisons
/// nothing) and a torn `OpenState` at worst fails subsequent calls with
/// EBADF, never UB.
macro_rules! ffi_guard {
    ($err:expr, $body:expr) => {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| $body)) {
            Ok(v) => v,
            Err(_) => {
                set_errno(EIO);
                $err
            }
        }
    };
}

macro_rules! real {
    ($name:ident, $sig:ty) => {{
        static SLOT: OnceLock<usize> = OnceLock::new();
        let addr = *SLOT.get_or_init(|| {
            let sym = concat!(stringify!($name), "\0");
            unsafe { dlsym(RTLD_NEXT, sym.as_ptr() as *const c_char) as usize }
        });
        debug_assert!(addr != 0, concat!("dlsym failed for ", stringify!($name)));
        unsafe { std::mem::transmute::<usize, $sig>(addr) }
    }};
}

// ---------------------------------------------------------------------------
// Shim state.
// ---------------------------------------------------------------------------

/// One PLFS open; `dup`'d fds share it, as they share the reserved fd's
/// file description.
struct OpenState {
    plfs_fd: Arc<PlfsFd>,
    append: bool,
    /// `fake_ino` of the path opened, so fstat agrees with path-stat.
    ino: u64,
    /// Whether the reserved fd holds the container's bytes, for `mmap`.
    mapped: Mutex<bool>,
}

struct Shim {
    mount: String,
    plfs: Plfs,
    table: RwLock<HashMap<c_int, Arc<OpenState>>>,
}

static SHIM: OnceLock<Option<Shim>> = OnceLock::new();

/// The tiered backing, if the shim built one — kept so the atexit hook
/// can flush queued destages before a short-lived host process dies.
static TIERED: OnceLock<Arc<plfs::TieredBacking>> = OnceLock::new();

// plfs-lint: allow(ffi-barrier, "atexit callback returns (); has its own catch_unwind, errno is meaningless here")
extern "C" fn drain_tiered_at_exit() {
    // Never unwind into libc's exit machinery; a failed drain just leaves
    // droppings fast-resident, which the crash-safe read path tolerates.
    let _ = std::panic::catch_unwind(|| {
        if let Some(t) = TIERED.get() {
            t.drain();
        }
    });
}

thread_local! {
    /// Guards against re-entrant initialization: building the shim touches
    /// the file system (create_dir_all on the backend), which re-enters the
    /// interposed symbols on this same thread. Those nested calls must pass
    /// straight through to the real libc.
    static IN_INIT: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

// One-time init on the first interposed call; nested interposed calls made
// while init allocates re-enter through the IN_INIT latch above and fall
// straight through to real libc. After init this is a lock-free read.
// signal-safe: init's allocation cannot recurse into the shim (IN_INIT
// latch); every later call is a OnceLock read with no allocation.
fn shim() -> Option<&'static Shim> {
    if IN_INIT.with(|c| c.get()) {
        return None;
    }
    SHIM.get_or_init(|| {
        IN_INIT.with(|c| c.set(true));
        let out = init_shim();
        IN_INIT.with(|c| c.set(false));
        out
    })
    .as_ref()
}

/// Variables the shim itself reads; every other `LDPLFS_*` name must be a
/// [`plfs::conf::KNOBS`] env alias or it is reported at init.
const ENV_MOUNT: &str = "LDPLFS_MOUNT";
const ENV_BACKEND: &str = "LDPLFS_BACKEND";
const ENV_FAST_BACKEND: &str = "LDPLFS_FAST_BACKEND";
const ENV_HOSTDIRS: &str = "LDPLFS_HOSTDIRS";
const SHIM_ENV: [&str; 4] = [ENV_MOUNT, ENV_BACKEND, ENV_FAST_BACKEND, ENV_HOSTDIRS];

/// One line on the host's stderr, through the real `write(2)`: a
/// misconfiguration must be visible, but never through an interposed path.
fn warn(msg: &str) {
    let line = format!("ldplfs-preload: {msg}\n");
    let real_write = real!(
        write,
        unsafe extern "C" fn(c_int, *const c_void, SizeT) -> SsizeT
    );
    // Best effort: a closed stderr must not stop the shim from starting.
    let _ = unsafe { real_write(2, line.as_ptr() as *const c_void, line.len()) };
}

fn init_shim() -> Option<Shim> {
    let mount = std::env::var(ENV_MOUNT).ok()?;
    let backend = std::env::var(ENV_BACKEND).ok()?;
    let mount = mount.trim_end_matches('/').to_string();
    if mount.is_empty() {
        return None;
    }
    let primary: Arc<dyn plfs::Backing> = Arc::new(RealBacking::new(backend).ok()?);
    let env: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?)))
        .filter(|(k, _)| k.starts_with("LDPLFS_"))
        .collect();
    for (name, _) in &env {
        if !SHIM_ENV.contains(&name.as_str()) && plfs::conf::env_knob(name).is_none() {
            warn(&format!("unknown variable {name} ignored"));
        }
    }
    let mut conf = plfs::Conf::from_env(env);
    let fast = std::env::var(ENV_FAST_BACKEND)
        .ok()
        .and_then(|d| RealBacking::new(d).ok())
        .map(|f| Arc::new(f) as Arc<dyn plfs::Backing>);
    if conf.backend == plfs::BackendKind::Tiered && fast.is_none() {
        // Degrade rather than refuse to start, but say so.
        warn(&format!(
            "tiered backend needs a usable {ENV_FAST_BACKEND}; running direct"
        ));
        conf.backend = plfs::BackendKind::Direct;
    }
    let stack = plfs::build_stack(&conf, primary, fast).ok()?;
    if let Some(tiered) = stack.tiered {
        // Destage runs on background workers; short-lived hosts (dd, cp,
        // md5sum) would exit before the queue drains, leaving every
        // dropping fast-resident. Drain on normal exit; an actual crash
        // still has the copy→persist→unlink ordering to fall back on.
        let _ = TIERED.set(tiered);
        unsafe { atexit(drain_tiered_at_exit) };
    }
    let mut plfs = Plfs::new(stack.backing).with_conf(conf);
    if let Some(n) = std::env::var(ENV_HOSTDIRS)
        .ok()
        .and_then(|n| n.parse::<u32>().ok())
    {
        plfs = plfs.with_params(plfs::ContainerParams {
            num_hostdirs: n.max(1),
            mode: plfs::LayoutMode::Both,
        });
    }
    Some(Shim {
        mount,
        plfs,
        table: RwLock::new(HashMap::new()),
    })
}

/// Mount-relative logical path, if `path` is inside the mount.
fn logical(shim: &Shim, path: &str) -> Option<String> {
    let m = &shim.mount;
    if path == m {
        return Some("/".to_string());
    }
    let rest = path.strip_prefix(m.as_str())?;
    if !rest.starts_with('/') {
        return None;
    }
    Some(rest.to_string())
}

unsafe fn cstr<'a>(p: *const c_char) -> Option<&'a str> {
    if p.is_null() {
        return None;
    }
    CStr::from_ptr(p).to_str().ok()
}

fn reserve_fd() -> c_int {
    // A genuine kernel fd with a real file description (so lseek works and
    // dup shares cursors) but no filesystem presence. The name is a static
    // NUL-terminated literal — no CString allocation, nothing to unwrap.
    const NAME: &[u8] = b"ldplfs-cursor\0";
    let fd = unsafe {
        syscall(
            SYS_MEMFD_CREATE,
            NAME.as_ptr() as *const c_char,
            0 as c_long,
        )
    };
    fd as c_int
}

fn lookup(fd: c_int) -> Option<Arc<OpenState>> {
    let shim = shim()?;
    shim.table.read().get(&fd).cloned()
}

fn plfs_errno(e: &plfs::Error) -> c_int {
    e.errno()
}

/// Stable fake inode per logical path (FNV-1a), so path-stat and
/// fstat-after-open agree.
fn fake_ino(rel: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in rel.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h | 1
}

fn cursor_get(fd: c_int) -> OffT {
    let f = real!(lseek, unsafe extern "C" fn(c_int, OffT, c_int) -> OffT);
    unsafe { f(fd, 0, SEEK_CUR) }
}

fn cursor_set(fd: c_int, off: OffT) -> OffT {
    let f = real!(lseek, unsafe extern "C" fn(c_int, OffT, c_int) -> OffT);
    unsafe { f(fd, off, SEEK_SET) }
}

// ---------------------------------------------------------------------------
// open family.
// ---------------------------------------------------------------------------

unsafe fn do_open(path: *const c_char, flags: c_int, mode: ModeT) -> c_int {
    let real_open = real!(
        open,
        unsafe extern "C" fn(*const c_char, c_int, ModeT) -> c_int
    );
    let Some(sh) = shim() else {
        return real_open(path, flags, mode);
    };
    let Some(p) = cstr(path) else {
        return real_open(path, flags, mode);
    };
    let Some(rel) = logical(sh, p) else {
        return real_open(path, flags, mode);
    };
    // A container is a file: cp probes its destination with O_DIRECTORY
    // and takes anything but ENOTDIR to mean "copy into it".
    if flags & O_DIRECTORY != 0 && sh.plfs.is_container(&rel) {
        set_errno(ENOTDIR);
        return -1;
    }
    // Translate flags (numeric values match plfs::OpenFlags on Linux).
    let oflags = OpenFlags((flags & (O_ACCMODE | O_CREAT | O_EXCL | O_TRUNC | O_APPEND)) as u32);
    let pid = getpid() as u64;
    match sh.plfs.open(&rel, oflags, pid) {
        Ok(pfd) => {
            let fd = reserve_fd();
            if fd < 0 {
                let _ = pfd.close(pid);
                set_errno(ENOMEM);
                return -1;
            }
            sh.table.write().insert(
                fd,
                Arc::new(OpenState {
                    plfs_fd: pfd,
                    append: flags & O_APPEND != 0,
                    ino: fake_ino(&rel),
                    mapped: Mutex::new(false),
                }),
            );
            fd
        }
        Err(e) => {
            set_errno(plfs_errno(&e));
            -1
        }
    }
}

/// `open(2)`.
#[no_mangle]
pub unsafe extern "C" fn open(path: *const c_char, flags: c_int, mode: ModeT) -> c_int {
    ffi_guard!(-1, do_open(path, flags, mode))
}

/// `open64(2)` (LFS alias).
#[no_mangle]
pub unsafe extern "C" fn open64(path: *const c_char, flags: c_int, mode: ModeT) -> c_int {
    ffi_guard!(-1, do_open(path, flags, mode))
}

/// `creat(2)`.
#[no_mangle]
pub unsafe extern "C" fn creat(path: *const c_char, mode: ModeT) -> c_int {
    ffi_guard!(-1, do_open(path, 0o1 | O_CREAT | O_TRUNC, mode))
}

unsafe fn do_openat(dirfd: c_int, path: *const c_char, flags: c_int, mode: ModeT) -> c_int {
    let absolute = cstr(path).map(|p| p.starts_with('/')).unwrap_or(false);
    if dirfd == AT_FDCWD || absolute {
        return do_open(path, flags, mode);
    }
    let f = real!(
        openat,
        unsafe extern "C" fn(c_int, *const c_char, c_int, ModeT) -> c_int
    );
    f(dirfd, path, flags, mode)
}

/// `openat(2)` — handled for `AT_FDCWD` / absolute paths.
#[no_mangle]
pub unsafe extern "C" fn openat(
    dirfd: c_int,
    path: *const c_char,
    flags: c_int,
    mode: ModeT,
) -> c_int {
    ffi_guard!(-1, do_openat(dirfd, path, flags, mode))
}

/// `openat64(2)`.
#[no_mangle]
pub unsafe extern "C" fn openat64(
    dirfd: c_int,
    path: *const c_char,
    flags: c_int,
    mode: ModeT,
) -> c_int {
    ffi_guard!(-1, do_openat(dirfd, path, flags, mode))
}

// ---------------------------------------------------------------------------
// data plane.
// ---------------------------------------------------------------------------

unsafe fn do_read(fd: c_int, buf: *mut c_void, count: SizeT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                read,
                unsafe extern "C" fn(c_int, *mut c_void, SizeT) -> SsizeT
            );
            f(fd, buf, count)
        }
        Some(st) => {
            let slice = std::slice::from_raw_parts_mut(buf as *mut u8, count);
            let off = cursor_get(fd);
            match st.plfs_fd.read(slice, off as u64) {
                Ok(n) => {
                    cursor_set(fd, off + n as OffT);
                    n as SsizeT
                }
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
}

/// `read(2)`.
#[no_mangle]
pub unsafe extern "C" fn read(fd: c_int, buf: *mut c_void, count: SizeT) -> SsizeT {
    ffi_guard!(-1, do_read(fd, buf, count))
}

unsafe fn do_write(fd: c_int, buf: *const c_void, count: SizeT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                write,
                unsafe extern "C" fn(c_int, *const c_void, SizeT) -> SsizeT
            );
            f(fd, buf, count)
        }
        Some(st) => {
            let slice = std::slice::from_raw_parts(buf as *const u8, count);
            let pid = getpid() as u64;
            // O_APPEND resolves EOF atomically inside PlfsFd::append —
            // size()-then-write() would race concurrent appenders.
            let (off, n) = if st.append {
                match st.plfs_fd.append(slice, pid) {
                    Ok((off, n)) => (off as OffT, n),
                    Err(e) => {
                        set_errno(plfs_errno(&e));
                        return -1;
                    }
                }
            } else {
                let off = cursor_get(fd);
                match st.plfs_fd.write(slice, off as u64, pid) {
                    Ok(n) => (off, n),
                    Err(e) => {
                        set_errno(plfs_errno(&e));
                        return -1;
                    }
                }
            };
            cursor_set(fd, off + n as OffT);
            n as SsizeT
        }
    }
}

/// `write(2)`.
#[no_mangle]
pub unsafe extern "C" fn write(fd: c_int, buf: *const c_void, count: SizeT) -> SsizeT {
    ffi_guard!(-1, do_write(fd, buf, count))
}

unsafe fn do_pread(fd: c_int, buf: *mut c_void, count: SizeT, off: OffT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                pread,
                unsafe extern "C" fn(c_int, *mut c_void, SizeT, OffT) -> SsizeT
            );
            f(fd, buf, count, off)
        }
        Some(st) => {
            let slice = std::slice::from_raw_parts_mut(buf as *mut u8, count);
            match st.plfs_fd.read(slice, off as u64) {
                Ok(n) => n as SsizeT,
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
}

/// `pread(2)`.
#[no_mangle]
pub unsafe extern "C" fn pread(fd: c_int, buf: *mut c_void, count: SizeT, off: OffT) -> SsizeT {
    ffi_guard!(-1, do_pread(fd, buf, count, off))
}

/// `pread64(2)`.
#[no_mangle]
pub unsafe extern "C" fn pread64(fd: c_int, buf: *mut c_void, count: SizeT, off: OffT) -> SsizeT {
    ffi_guard!(-1, do_pread(fd, buf, count, off))
}

/// `__read_chk` — `read` as `_FORTIFY_SOURCE` builds spell it, destination
/// size last: abort on overflow as glibc does, otherwise the plain call.
#[no_mangle]
pub unsafe extern "C" fn __read_chk(fd: c_int, buf: *mut c_void, n: SizeT, len: SizeT) -> SsizeT {
    if n > len {
        __chk_fail();
    }
    ffi_guard!(-1, do_read(fd, buf, n))
}

/// `__pread_chk` — fortified `pread`.
#[no_mangle]
pub unsafe extern "C" fn __pread_chk(
    fd: c_int,
    buf: *mut c_void,
    n: SizeT,
    off: OffT,
    len: SizeT,
) -> SsizeT {
    if n > len {
        __chk_fail();
    }
    ffi_guard!(-1, do_pread(fd, buf, n, off))
}

/// `__pread64_chk` — fortified `pread64`.
#[no_mangle]
pub unsafe extern "C" fn __pread64_chk(
    fd: c_int,
    buf: *mut c_void,
    n: SizeT,
    off: OffT,
    len: SizeT,
) -> SsizeT {
    if n > len {
        __chk_fail();
    }
    ffi_guard!(-1, do_pread(fd, buf, n, off))
}

unsafe fn do_pwrite(fd: c_int, buf: *const c_void, count: SizeT, off: OffT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                pwrite,
                unsafe extern "C" fn(c_int, *const c_void, SizeT, OffT) -> SsizeT
            );
            f(fd, buf, count, off)
        }
        Some(st) => {
            let slice = std::slice::from_raw_parts(buf as *const u8, count);
            match st.plfs_fd.write(slice, off as u64, getpid() as u64) {
                Ok(n) => n as SsizeT,
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
}

/// `pwrite(2)`.
#[no_mangle]
pub unsafe extern "C" fn pwrite(fd: c_int, buf: *const c_void, count: SizeT, off: OffT) -> SsizeT {
    ffi_guard!(-1, do_pwrite(fd, buf, count, off))
}

/// `pwrite64(2)`.
#[no_mangle]
pub unsafe extern "C" fn pwrite64(
    fd: c_int,
    buf: *const c_void,
    count: SizeT,
    off: OffT,
) -> SsizeT {
    ffi_guard!(-1, do_pwrite(fd, buf, count, off))
}

// ---------------------------------------------------------------------------
// vectored I/O. On a tracked fd the iovecs are gathered (writes) or
// scattered (reads) around ONE PlfsFd list call, so an N-buffer vector
// costs one index record instead of N. Untracked fds forward to the real
// libc symbols.
// ---------------------------------------------------------------------------

/// `struct iovec` (uapi layout).
#[repr(C)]
pub struct IoVec {
    /// Buffer start.
    pub iov_base: *mut c_void,
    /// Buffer length in bytes.
    pub iov_len: SizeT,
}

/// Total byte count of an iovec array; `None` on invalid count/pointer or
/// length overflow (POSIX caps the sum at `SSIZE_MAX`).
unsafe fn iov_total(iov: *const IoVec, cnt: c_int) -> Option<usize> {
    if cnt < 0 || (cnt > 0 && iov.is_null()) {
        return None;
    }
    let mut total = 0usize;
    for v in std::slice::from_raw_parts(iov, cnt as usize) {
        total = total.checked_add(v.iov_len)?;
    }
    if total > isize::MAX as usize {
        return None;
    }
    Some(total)
}

unsafe fn gather_iov(iov: *const IoVec, cnt: c_int, total: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(total);
    for v in std::slice::from_raw_parts(iov, cnt as usize) {
        if v.iov_len != 0 {
            out.extend_from_slice(std::slice::from_raw_parts(
                v.iov_base as *const u8,
                v.iov_len,
            ));
        }
    }
    out
}

unsafe fn scatter_iov(iov: *const IoVec, cnt: c_int, data: &[u8]) {
    let mut pos = 0usize;
    for v in std::slice::from_raw_parts(iov, cnt as usize) {
        if pos >= data.len() {
            break;
        }
        let take = v.iov_len.min(data.len() - pos);
        std::ptr::copy_nonoverlapping(data[pos..].as_ptr(), v.iov_base as *mut u8, take);
        pos += take;
    }
}

unsafe fn do_readv(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                readv,
                unsafe extern "C" fn(c_int, *const IoVec, c_int) -> SsizeT
            );
            f(fd, iov, cnt)
        }
        Some(st) => {
            let Some(total) = iov_total(iov, cnt) else {
                set_errno(EINVAL);
                return -1;
            };
            if total == 0 {
                return 0;
            }
            let off = cursor_get(fd);
            let mut data = vec![0u8; total];
            match st
                .plfs_fd
                .read_list(&mut data, &[(off as u64, total as u64)])
            {
                Ok(n) => {
                    scatter_iov(iov, cnt, &data[..n]);
                    cursor_set(fd, off + n as OffT);
                    n as SsizeT
                }
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
}

/// `readv(2)`.
#[no_mangle]
pub unsafe extern "C" fn readv(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT {
    ffi_guard!(-1, do_readv(fd, iov, cnt))
}

unsafe fn do_writev(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                writev,
                unsafe extern "C" fn(c_int, *const IoVec, c_int) -> SsizeT
            );
            f(fd, iov, cnt)
        }
        Some(st) => {
            let Some(total) = iov_total(iov, cnt) else {
                set_errno(EINVAL);
                return -1;
            };
            if total == 0 {
                return 0;
            }
            let data = gather_iov(iov, cnt, total);
            let pid = getpid() as u64;
            let (off, n) = if st.append {
                match st.plfs_fd.append(&data, pid) {
                    Ok((off, n)) => (off as OffT, n),
                    Err(e) => {
                        set_errno(plfs_errno(&e));
                        return -1;
                    }
                }
            } else {
                let off = cursor_get(fd);
                match st
                    .plfs_fd
                    .write_list(&data, &[(off as u64, total as u64)], pid)
                {
                    Ok(n) => (off, n),
                    Err(e) => {
                        set_errno(plfs_errno(&e));
                        return -1;
                    }
                }
            };
            cursor_set(fd, off + n as OffT);
            n as SsizeT
        }
    }
}

/// `writev(2)`.
#[no_mangle]
pub unsafe extern "C" fn writev(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT {
    ffi_guard!(-1, do_writev(fd, iov, cnt))
}

unsafe fn do_preadv(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                preadv,
                unsafe extern "C" fn(c_int, *const IoVec, c_int, OffT) -> SsizeT
            );
            f(fd, iov, cnt, off)
        }
        Some(st) => {
            let total = match iov_total(iov, cnt) {
                Some(t) if off >= 0 => t,
                _ => {
                    set_errno(EINVAL);
                    return -1;
                }
            };
            if total == 0 {
                return 0;
            }
            let mut data = vec![0u8; total];
            match st
                .plfs_fd
                .read_list(&mut data, &[(off as u64, total as u64)])
            {
                Ok(n) => {
                    scatter_iov(iov, cnt, &data[..n]);
                    n as SsizeT
                }
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
}

/// `preadv(2)`.
#[no_mangle]
pub unsafe extern "C" fn preadv(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    ffi_guard!(-1, do_preadv(fd, iov, cnt, off))
}

/// `preadv64(2)`.
#[no_mangle]
pub unsafe extern "C" fn preadv64(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    ffi_guard!(-1, do_preadv(fd, iov, cnt, off))
}

unsafe fn do_pwritev(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(
                pwritev,
                unsafe extern "C" fn(c_int, *const IoVec, c_int, OffT) -> SsizeT
            );
            f(fd, iov, cnt, off)
        }
        Some(st) => {
            let total = match iov_total(iov, cnt) {
                Some(t) if off >= 0 => t,
                _ => {
                    set_errno(EINVAL);
                    return -1;
                }
            };
            if total == 0 {
                return 0;
            }
            let data = gather_iov(iov, cnt, total);
            match st
                .plfs_fd
                .write_list(&data, &[(off as u64, total as u64)], getpid() as u64)
            {
                Ok(n) => n as SsizeT,
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
}

/// `pwritev(2)`.
#[no_mangle]
pub unsafe extern "C" fn pwritev(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    ffi_guard!(-1, do_pwritev(fd, iov, cnt, off))
}

/// `pwritev64(2)`.
#[no_mangle]
pub unsafe extern "C" fn pwritev64(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    ffi_guard!(-1, do_pwritev(fd, iov, cnt, off))
}

/// `preadv2(2)` dispatch: offset `-1` means cursor (`readv`) semantics;
/// `RWF_*` flags are accepted and ignored on the PLFS path.
// plfs-lint: allow(errno-discipline, "pure dispatch: do_readv/do_preadv set errno on their own -1 returns")
unsafe fn do_preadv2(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT, flags: c_int) -> SsizeT {
    if lookup(fd).is_none() {
        let f = real!(
            preadv2,
            unsafe extern "C" fn(c_int, *const IoVec, c_int, OffT, c_int) -> SsizeT
        );
        return f(fd, iov, cnt, off, flags);
    }
    if off == -1 {
        do_readv(fd, iov, cnt)
    } else {
        do_preadv(fd, iov, cnt, off)
    }
}

/// `preadv2(2)`.
#[no_mangle]
pub unsafe extern "C" fn preadv2(
    fd: c_int,
    iov: *const IoVec,
    cnt: c_int,
    off: OffT,
    flags: c_int,
) -> SsizeT {
    ffi_guard!(-1, do_preadv2(fd, iov, cnt, off, flags))
}

/// `preadv64v2(2)`.
#[no_mangle]
pub unsafe extern "C" fn preadv64v2(
    fd: c_int,
    iov: *const IoVec,
    cnt: c_int,
    off: OffT,
    flags: c_int,
) -> SsizeT {
    ffi_guard!(-1, do_preadv2(fd, iov, cnt, off, flags))
}

// plfs-lint: allow(errno-discipline, "pure dispatch: do_writev/do_pwritev set errno on their own -1 returns")
unsafe fn do_pwritev2(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT, flags: c_int) -> SsizeT {
    if lookup(fd).is_none() {
        let f = real!(
            pwritev2,
            unsafe extern "C" fn(c_int, *const IoVec, c_int, OffT, c_int) -> SsizeT
        );
        return f(fd, iov, cnt, off, flags);
    }
    if off == -1 {
        do_writev(fd, iov, cnt)
    } else {
        do_pwritev(fd, iov, cnt, off)
    }
}

/// `pwritev2(2)`.
#[no_mangle]
pub unsafe extern "C" fn pwritev2(
    fd: c_int,
    iov: *const IoVec,
    cnt: c_int,
    off: OffT,
    flags: c_int,
) -> SsizeT {
    ffi_guard!(-1, do_pwritev2(fd, iov, cnt, off, flags))
}

/// `pwritev64v2(2)`.
#[no_mangle]
pub unsafe extern "C" fn pwritev64v2(
    fd: c_int,
    iov: *const IoVec,
    cnt: c_int,
    off: OffT,
    flags: c_int,
) -> SsizeT {
    ffi_guard!(-1, do_pwritev2(fd, iov, cnt, off, flags))
}

unsafe fn do_lseek(fd: c_int, offset: OffT, whence: c_int) -> OffT {
    match lookup(fd) {
        None => {
            let f = real!(lseek, unsafe extern "C" fn(c_int, OffT, c_int) -> OffT);
            f(fd, offset, whence)
        }
        Some(st) => {
            // SEEK_END needs the logical PLFS size; SET/CUR ride the
            // reserved fd's kernel cursor directly (the paper's trick).
            let target = match whence {
                SEEK_SET => offset,
                SEEK_CUR => cursor_get(fd) + offset,
                SEEK_END => match st.plfs_fd.size() {
                    Ok(size) => size as OffT + offset,
                    Err(e) => {
                        set_errno(plfs_errno(&e));
                        return -1;
                    }
                },
                _ => {
                    set_errno(EINVAL);
                    return -1;
                }
            };
            if target < 0 {
                set_errno(EINVAL);
                return -1;
            }
            cursor_set(fd, target)
        }
    }
}

/// `lseek(2)`.
#[no_mangle]
pub unsafe extern "C" fn lseek(fd: c_int, offset: OffT, whence: c_int) -> OffT {
    ffi_guard!(-1, do_lseek(fd, offset, whence))
}

/// `lseek64(2)`.
#[no_mangle]
pub unsafe extern "C" fn lseek64(fd: c_int, offset: OffT, whence: c_int) -> OffT {
    ffi_guard!(-1, do_lseek(fd, offset, whence))
}

unsafe fn do_close(fd: c_int) -> c_int {
    let real_close = real!(close, unsafe extern "C" fn(c_int) -> c_int);
    let Some(sh) = shim() else {
        return real_close(fd);
    };
    let state = sh.table.write().remove(&fd);
    // One PLFS reference per fd: a dup keeps the open alive. Both halves
    // are released whatever the other does; the first error is reported (a
    // failed index or meta flush at close is lost data).
    let plfs_res = state.map(|st| st.plfs_fd.close(getpid() as u64));
    let ret = real_close(fd);
    if let Some(Err(e)) = plfs_res {
        set_errno(plfs_errno(&e));
        return -1;
    }
    ret
}

/// `close(2)`.
#[no_mangle]
pub unsafe extern "C" fn close(fd: c_int) -> c_int {
    ffi_guard!(-1, do_close(fd))
}

unsafe fn do_fsync(fd: c_int) -> c_int {
    match lookup(fd) {
        None => {
            let f = real!(fsync, unsafe extern "C" fn(c_int) -> c_int);
            f(fd)
        }
        Some(st) => match st.plfs_fd.sync(getpid() as u64) {
            Ok(()) => 0,
            Err(e) => {
                set_errno(plfs_errno(&e));
                -1
            }
        },
    }
}

/// `fsync(2)`.
#[no_mangle]
pub unsafe extern "C" fn fsync(fd: c_int) -> c_int {
    ffi_guard!(-1, do_fsync(fd))
}

/// `fdatasync(2)` — containers have no metadata/data distinction the shim
/// could exploit, so it shares `do_fsync` (strictly stronger durability;
/// passthrough fds pay one real fsync instead of fdatasync).
#[no_mangle]
pub unsafe extern "C" fn fdatasync(fd: c_int) -> c_int {
    ffi_guard!(-1, do_fsync(fd))
}

unsafe fn do_dup(fd: c_int) -> c_int {
    let real_dup = real!(dup, unsafe extern "C" fn(c_int) -> c_int);
    let new = real_dup(fd);
    if new >= 0 {
        dup_bookkeeping(fd, new);
    }
    new
}

/// `dup(2)`.
#[no_mangle]
pub unsafe extern "C" fn dup(fd: c_int) -> c_int {
    ffi_guard!(-1, do_dup(fd))
}

/// Shared `dup`/`dup2`/`dup3` fd-table bookkeeping after the real call
/// succeeded: whatever open newfd was registered for is closed as `close`
/// would (the real call already closed its reserved fd), then newfd
/// inherits oldfd's container state. `dup2(fd, fd)` closed and duplicated
/// nothing.
unsafe fn dup_bookkeeping(oldfd: c_int, newfd: c_int) {
    let Some(sh) = shim() else {
        return;
    };
    if oldfd == newfd {
        return;
    }
    let (displaced, old_state) = {
        let mut t = sh.table.write();
        (t.remove(&newfd), t.get(&oldfd).cloned())
    };
    if let Some(st) = displaced {
        // Outside the table lock: releasing the open closes its droppings
        // through the interposed `close`, which takes that lock.
        // dup2(2): errors of the implied close are not reported.
        let _ = st.plfs_fd.close(getpid() as u64);
    }
    if let Some(st) = old_state {
        st.plfs_fd.add_ref(getpid() as u64);
        sh.table.write().insert(newfd, st);
    }
}

unsafe fn do_dup2(oldfd: c_int, newfd: c_int) -> c_int {
    let real_dup2 = real!(dup2, unsafe extern "C" fn(c_int, c_int) -> c_int);
    let ret = real_dup2(oldfd, newfd);
    if ret >= 0 {
        dup_bookkeeping(oldfd, newfd);
    }
    ret
}

/// `dup2(2)` — needed for shell redirection bookkeeping.
#[no_mangle]
pub unsafe extern "C" fn dup2(oldfd: c_int, newfd: c_int) -> c_int {
    ffi_guard!(-1, do_dup2(oldfd, newfd))
}

unsafe fn do_dup3(oldfd: c_int, newfd: c_int, flags: c_int) -> c_int {
    // The real call enforces dup3's contract (EINVAL on oldfd == newfd,
    // atomic O_CLOEXEC); the shim only mirrors the fd-table transfer.
    let real_dup3 = real!(dup3, unsafe extern "C" fn(c_int, c_int, c_int) -> c_int);
    let ret = real_dup3(oldfd, newfd, flags);
    if ret >= 0 {
        dup_bookkeeping(oldfd, newfd);
    }
    ret
}

/// `dup3(2)` — the O_CLOEXEC-capable dup2, used by modern shells.
#[no_mangle]
pub unsafe extern "C" fn dup3(oldfd: c_int, newfd: c_int, flags: c_int) -> c_int {
    ffi_guard!(-1, do_dup3(oldfd, newfd, flags))
}

/// Copy the container's logical bytes into the reserved fd, once per open,
/// so a mapping of it shows them. By `pwrite`: the fd's offset is the
/// application's cursor.
unsafe fn fill_for_mmap(fd: c_int, st: &OpenState) -> Result<(), c_int> {
    let real_pwrite = real!(
        pwrite,
        unsafe extern "C" fn(c_int, *const c_void, SizeT, OffT) -> SsizeT
    );
    let mut mapped = st.mapped.lock();
    if *mapped {
        return Ok(());
    }
    let mut buf = vec![0u8; 1 << 20];
    let mut off = 0usize;
    loop {
        // plfs-lint: allow(lock-across-io, "intentional: `mapped` is this fill's once-latch; a second mapper must wait for the bytes, not map a half-filled fd")
        let n = st
            .plfs_fd
            .read(&mut buf, off as u64)
            .map_err(|e| e.errno())?;
        if n == 0 {
            break;
        }
        let mut done = 0usize;
        while done < n {
            let src = buf.as_ptr().add(done) as *const c_void;
            let w = real_pwrite(fd, src, n - done, (off + done) as OffT);
            if w <= 0 {
                // A short write (ENOSPC/ENOMEM) must not pass for the file.
                return Err(ENOMEM);
            }
            done += w as usize;
        }
        off += n;
    }
    *mapped = true;
    Ok(())
}

unsafe fn do_mmap(
    addr: *mut c_void,
    len: SizeT,
    prot: c_int,
    flags: c_int,
    fd: c_int,
    off: OffT,
) -> *mut c_void {
    let f = real!(
        mmap,
        unsafe extern "C" fn(*mut c_void, SizeT, c_int, c_int, c_int, OffT) -> *mut c_void
    );
    if let Some(st) = lookup(fd) {
        // Stores through a map would land in the reserved fd, unseen by PLFS.
        if st.plfs_fd.flags().writable() {
            set_errno(ENODEV);
            return MAP_FAILED;
        }
        if let Err(e) = fill_for_mmap(fd, &st) {
            set_errno(e);
            return MAP_FAILED;
        }
    }
    f(addr, len, prot, flags, fd, off)
}

/// `mmap(2)` — read-only maps of a container; a writable one is `ENODEV`.
#[no_mangle]
pub unsafe extern "C" fn mmap(
    addr: *mut c_void,
    len: SizeT,
    prot: c_int,
    flags: c_int,
    fd: c_int,
    off: OffT,
) -> *mut c_void {
    ffi_guard!(MAP_FAILED, do_mmap(addr, len, prot, flags, fd, off))
}

/// `mmap64(2)`.
#[no_mangle]
pub unsafe extern "C" fn mmap64(
    addr: *mut c_void,
    len: SizeT,
    prot: c_int,
    flags: c_int,
    fd: c_int,
    off: OffT,
) -> *mut c_void {
    ffi_guard!(MAP_FAILED, do_mmap(addr, len, prot, flags, fd, off))
}

/// The in-kernel byte movers would copy from or into the reserved fd (`cp`
/// inside the mount "succeeded" with an empty destination). When either end
/// is the shim's they fail with the documented errno every caller follows
/// with a read/write loop.
unsafe fn either_owned(a: c_int, b: c_int) -> bool {
    lookup(a).is_some() || lookup(b).is_some()
}

type MoverFn = unsafe extern "C" fn(c_int, *mut OffT, c_int, *mut OffT, SizeT, c_uint) -> SsizeT;

/// `copy_file_range(2)` — `EXDEV` on a shim fd.
#[no_mangle]
pub unsafe extern "C" fn copy_file_range(
    src: c_int,
    off_src: *mut OffT,
    dst: c_int,
    off_dst: *mut OffT,
    len: SizeT,
    flags: c_uint,
) -> SsizeT {
    let f = real!(copy_file_range, MoverFn);
    if ffi_guard!(true, either_owned(src, dst)) {
        set_errno(EXDEV);
        return -1;
    }
    f(src, off_src, dst, off_dst, len, flags)
}

/// `splice(2)` — `EINVAL` on a shim fd.
#[no_mangle]
pub unsafe extern "C" fn splice(
    src: c_int,
    off_src: *mut OffT,
    dst: c_int,
    off_dst: *mut OffT,
    len: SizeT,
    flags: c_uint,
) -> SsizeT {
    let f = real!(splice, MoverFn);
    if ffi_guard!(true, either_owned(src, dst)) {
        set_errno(EINVAL);
        return -1;
    }
    f(src, off_src, dst, off_dst, len, flags)
}

unsafe fn do_sendfile(out_fd: c_int, in_fd: c_int, off: *mut OffT, count: SizeT) -> SsizeT {
    let f = real!(
        sendfile,
        unsafe extern "C" fn(c_int, c_int, *mut OffT, SizeT) -> SsizeT
    );
    if either_owned(out_fd, in_fd) {
        set_errno(EINVAL);
        return -1;
    }
    f(out_fd, in_fd, off, count)
}

/// `sendfile(2)` — `EINVAL` on a shim fd.
#[no_mangle]
pub unsafe extern "C" fn sendfile(o: c_int, i: c_int, off: *mut OffT, count: SizeT) -> SsizeT {
    ffi_guard!(-1, do_sendfile(o, i, off, count))
}

/// `sendfile64(2)`.
#[no_mangle]
pub unsafe extern "C" fn sendfile64(o: c_int, i: c_int, off: *mut OffT, count: SizeT) -> SsizeT {
    ffi_guard!(-1, do_sendfile(o, i, off, count))
}

// ---------------------------------------------------------------------------
// metadata plane.
// ---------------------------------------------------------------------------

/// Minimal glibc x86_64 `struct stat` layout.
#[repr(C)]
pub struct CStat {
    st_dev: u64,
    st_ino: u64,
    st_nlink: u64,
    st_mode: u32,
    st_uid: u32,
    st_gid: u32,
    __pad0: u32,
    st_rdev: u64,
    st_size: i64,
    st_blksize: i64,
    st_blocks: i64,
    st_atime: i64,
    st_atime_nsec: i64,
    st_mtime: i64,
    st_mtime_nsec: i64,
    st_ctime: i64,
    st_ctime_nsec: i64,
    __unused: [i64; 3],
}

const S_IFREG: u32 = 0o100000;
const S_IFDIR: u32 = 0o040000;

unsafe fn fill_stat(out: *mut CStat, size: u64, is_dir: bool, ino: u64) {
    std::ptr::write_bytes(out as *mut u8, 0, std::mem::size_of::<CStat>());
    let st = &mut *out;
    st.st_mode = if is_dir {
        S_IFDIR | 0o755
    } else {
        S_IFREG | 0o644
    };
    st.st_nlink = 1;
    st.st_size = size as i64;
    st.st_blksize = 4096;
    st.st_blocks = (size as i64 + 511) / 512;
    st.st_ino = ino;
}

unsafe fn do_stat(path: *const c_char, out: *mut CStat) -> c_int {
    let real_stat = real!(
        stat,
        unsafe extern "C" fn(*const c_char, *mut CStat) -> c_int
    );
    let Some(sh) = shim() else {
        return real_stat(path, out);
    };
    let Some(p) = cstr(path) else {
        return real_stat(path, out);
    };
    let Some(rel) = logical(sh, p) else {
        return real_stat(path, out);
    };
    if rel == "/" {
        fill_stat(out, 0, true, 1);
        return 0;
    }
    match sh.plfs.getattr(&rel) {
        Ok(st) => {
            fill_stat(out, st.size, st.is_dir, fake_ino(&rel));
            0
        }
        Err(e) => {
            set_errno(plfs_errno(&e));
            -1
        }
    }
}

/// `stat(2)`.
#[no_mangle]
pub unsafe extern "C" fn stat(path: *const c_char, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_stat(path, out))
}

/// `stat64(2)`.
#[no_mangle]
pub unsafe extern "C" fn stat64(path: *const c_char, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_stat(path, out))
}

unsafe fn do_lstat(path: *const c_char, out: *mut CStat) -> c_int {
    let real_lstat = real!(
        lstat,
        unsafe extern "C" fn(*const c_char, *mut CStat) -> c_int
    );
    let Some(sh) = shim() else {
        return real_lstat(path, out);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        Some(_) => do_stat(path, out),
        None => real_lstat(path, out),
    }
}

/// `lstat(2)` — containers have no symlinks; same as stat within the mount.
#[no_mangle]
pub unsafe extern "C" fn lstat(path: *const c_char, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_lstat(path, out))
}

/// `lstat64(2)`.
#[no_mangle]
pub unsafe extern "C" fn lstat64(path: *const c_char, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_lstat(path, out))
}

unsafe fn do_fstat(fd: c_int, out: *mut CStat) -> c_int {
    match lookup(fd) {
        None => {
            let f = real!(fstat, unsafe extern "C" fn(c_int, *mut CStat) -> c_int);
            f(fd, out)
        }
        Some(st) => match st.plfs_fd.size() {
            Ok(size) => {
                fill_stat(out, size, false, st.ino);
                0
            }
            Err(e) => {
                set_errno(plfs_errno(&e));
                -1
            }
        },
    }
}

/// `fstat(2)`.
#[no_mangle]
pub unsafe extern "C" fn fstat(fd: c_int, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_fstat(fd, out))
}

/// `fstat64(2)`.
#[no_mangle]
pub unsafe extern "C" fn fstat64(fd: c_int, out: *mut CStat) -> c_int {
    ffi_guard!(-1, do_fstat(fd, out))
}

unsafe fn do_fstatat(dirfd: c_int, path: *const c_char, out: *mut CStat, flags: c_int) -> c_int {
    // Resolve the next-in-chain symbol before the logical-path probe: the
    // probe allocates (logical returns an owned String), which is off the
    // table while this symbol is still unresolved.
    let f = real!(
        fstatat,
        unsafe extern "C" fn(c_int, *const c_char, *mut CStat, c_int) -> c_int
    );
    if flags & AT_EMPTY_PATH != 0 && cstr(path) == Some("") && lookup(dirfd).is_some() {
        return do_fstat(dirfd, out);
    }
    let absolute = cstr(path).map(|p| p.starts_with('/')).unwrap_or(false);
    if dirfd == AT_FDCWD || absolute {
        if let Some(sh) = shim() {
            if cstr(path).and_then(|p| logical(sh, p)).is_some() {
                return do_stat(path, out);
            }
        }
    }
    f(dirfd, path, out, flags)
}

/// `fstatat(2)` / `newfstatat` for `AT_FDCWD` and absolute paths.
#[no_mangle]
pub unsafe extern "C" fn fstatat(
    dirfd: c_int,
    path: *const c_char,
    out: *mut CStat,
    flags: c_int,
) -> c_int {
    ffi_guard!(-1, do_fstatat(dirfd, path, out, flags))
}

/// `newfstatat` (the syscall-name alias some libcs export).
#[no_mangle]
pub unsafe extern "C" fn newfstatat(
    dirfd: c_int,
    path: *const c_char,
    out: *mut CStat,
    flags: c_int,
) -> c_int {
    ffi_guard!(-1, do_fstatat(dirfd, path, out, flags))
}

unsafe fn do_unlink(path: *const c_char) -> c_int {
    let real_unlink = real!(unlink, unsafe extern "C" fn(*const c_char) -> c_int);
    let Some(sh) = shim() else {
        return real_unlink(path);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        None => real_unlink(path),
        Some(rel) => match sh.plfs.unlink(&rel) {
            Ok(()) => 0,
            Err(e) => {
                set_errno(plfs_errno(&e));
                -1
            }
        },
    }
}

/// `unlink(2)`.
#[no_mangle]
pub unsafe extern "C" fn unlink(path: *const c_char) -> c_int {
    ffi_guard!(-1, do_unlink(path))
}

const AT_REMOVEDIR: c_int = 0x200;

unsafe fn do_unlinkat(dirfd: c_int, path: *const c_char, flags: c_int) -> c_int {
    let f = real!(
        unlinkat,
        unsafe extern "C" fn(c_int, *const c_char, c_int) -> c_int
    );
    let absolute = cstr(path).map(|p| p.starts_with('/')).unwrap_or(false);
    if dirfd == AT_FDCWD || absolute {
        // unlinkat(AT_FDCWD, p, 0) ≡ unlink(p); with AT_REMOVEDIR it is
        // rmdir(p). Both helpers fall through to their own real symbol for
        // paths outside the mount, which matches the real unlinkat.
        return if flags & AT_REMOVEDIR != 0 {
            do_rmdir(path)
        } else {
            do_unlink(path)
        };
    }
    f(dirfd, path, flags)
}

/// `unlinkat(2)` for `AT_FDCWD` and absolute paths (the spellings modern
/// coreutils `rm` uses); directory-fd-relative paths pass through.
#[no_mangle]
pub unsafe extern "C" fn unlinkat(dirfd: c_int, path: *const c_char, flags: c_int) -> c_int {
    ffi_guard!(-1, do_unlinkat(dirfd, path, flags))
}

unsafe fn do_access(path: *const c_char, amode: c_int) -> c_int {
    let real_access = real!(access, unsafe extern "C" fn(*const c_char, c_int) -> c_int);
    let Some(sh) = shim() else {
        return real_access(path, amode);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        None => real_access(path, amode),
        Some(rel) => {
            if rel == "/" {
                return 0;
            }
            match sh.plfs.access(&rel) {
                Ok(()) => 0,
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
}

/// `access(2)`.
#[no_mangle]
pub unsafe extern "C" fn access(path: *const c_char, amode: c_int) -> c_int {
    ffi_guard!(-1, do_access(path, amode))
}

unsafe fn do_mkdir(path: *const c_char, mode: ModeT) -> c_int {
    let real_mkdir = real!(mkdir, unsafe extern "C" fn(*const c_char, ModeT) -> c_int);
    let Some(sh) = shim() else {
        return real_mkdir(path, mode);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        None => real_mkdir(path, mode),
        Some(rel) => match sh.plfs.mkdir(&rel) {
            Ok(()) => 0,
            Err(e) => {
                set_errno(plfs_errno(&e));
                -1
            }
        },
    }
}

/// `mkdir(2)`.
#[no_mangle]
pub unsafe extern "C" fn mkdir(path: *const c_char, mode: ModeT) -> c_int {
    ffi_guard!(-1, do_mkdir(path, mode))
}

unsafe fn do_rmdir(path: *const c_char) -> c_int {
    let real_rmdir = real!(rmdir, unsafe extern "C" fn(*const c_char) -> c_int);
    let Some(sh) = shim() else {
        return real_rmdir(path);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        None => real_rmdir(path),
        Some(rel) => match sh.plfs.rmdir(&rel) {
            Ok(()) => 0,
            Err(e) => {
                set_errno(plfs_errno(&e));
                -1
            }
        },
    }
}

/// `rmdir(2)`.
#[no_mangle]
pub unsafe extern "C" fn rmdir(path: *const c_char) -> c_int {
    ffi_guard!(-1, do_rmdir(path))
}

unsafe fn do_ftruncate(fd: c_int, len: OffT) -> c_int {
    match lookup(fd) {
        None => {
            let f = real!(ftruncate, unsafe extern "C" fn(c_int, OffT) -> c_int);
            f(fd, len)
        }
        Some(st) => {
            if len < 0 {
                set_errno(EINVAL);
                return -1;
            }
            // Quiesce, then rewrite via the container truncate path.
            if st.plfs_fd.reset_writers().is_err() {
                set_errno(EBADF);
                return -1;
            }
            let Some(sh) = shim() else {
                set_errno(EBADF);
                return -1;
            };
            // Container path is backend-relative == logical path here.
            let path = st.plfs_fd.container_path().to_string();
            match sh.plfs.trunc(&path, len as u64) {
                Ok(()) => 0,
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
}

unsafe fn do_truncate(path: *const c_char, len: OffT) -> c_int {
    let real_truncate = real!(truncate, unsafe extern "C" fn(*const c_char, OffT) -> c_int);
    let Some(sh) = shim() else {
        return real_truncate(path, len);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        None => real_truncate(path, len),
        Some(rel) => {
            if len < 0 {
                set_errno(EINVAL);
                return -1;
            }
            // Path-based truncate of a container. Unlike do_ftruncate
            // there is no fd whose writers need quiescing: an unopened (or
            // other-process) container is rewritten directly, same as the
            // kernel truncates a file nobody has open.
            match sh.plfs.trunc(&rel, len as u64) {
                Ok(()) => 0,
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    -1
                }
            }
        }
    }
}

/// `truncate(2)`.
#[no_mangle]
pub unsafe extern "C" fn truncate(path: *const c_char, len: OffT) -> c_int {
    ffi_guard!(-1, do_truncate(path, len))
}

/// `truncate64(2)` — the LFS twin.
#[no_mangle]
pub unsafe extern "C" fn truncate64(path: *const c_char, len: OffT) -> c_int {
    ffi_guard!(-1, do_truncate(path, len))
}

/// `ftruncate(2)`.
#[no_mangle]
pub unsafe extern "C" fn ftruncate(fd: c_int, len: OffT) -> c_int {
    ffi_guard!(-1, do_ftruncate(fd, len))
}

/// `ftruncate64(2)`.
#[no_mangle]
pub unsafe extern "C" fn ftruncate64(fd: c_int, len: OffT) -> c_int {
    ffi_guard!(-1, do_ftruncate(fd, len))
}

// ---------------------------------------------------------------------------
// stdio entry points: glibc's fopen does NOT route through the exported
// `open` symbol and a FILE's reads never pass `read`, so a stream over the
// mount is a `fopencookie` stream whose callbacks are the shim's own
// read/write/seek/close on a registered fd (the cookie). `fileno()` on one
// is -1, glibc's contract for cookie streams. fopen in a write mode is not
// supported and falls through to the real fopen (which fails cleanly, since
// the mount path does not exist on the real file system).
// ---------------------------------------------------------------------------

/// glibc `cookie_io_functions_t`.
#[repr(C)]
struct CookieIo {
    read: unsafe extern "C" fn(*mut c_void, *mut c_char, SizeT) -> SsizeT,
    write: unsafe extern "C" fn(*mut c_void, *const c_char, SizeT) -> SsizeT,
    seek: unsafe extern "C" fn(*mut c_void, *mut OffT, c_int) -> c_int,
    close: unsafe extern "C" fn(*mut c_void) -> c_int,
}

unsafe extern "C" fn cookie_read(fd: *mut c_void, buf: *mut c_char, n: SizeT) -> SsizeT {
    ffi_guard!(-1, do_read(fd as c_int, buf as *mut c_void, n))
}

/// A cookie write reports failure as 0, never a negative count.
unsafe extern "C" fn cookie_write(fd: *mut c_void, buf: *const c_char, n: SizeT) -> SsizeT {
    ffi_guard!(0, do_write(fd as c_int, buf as *const c_void, n).max(0))
}

unsafe extern "C" fn cookie_seek(fd: *mut c_void, off: *mut OffT, whence: c_int) -> c_int {
    ffi_guard!(-1, {
        *off = do_lseek(fd as c_int, *off, whence);
        -c_int::from(*off < 0)
    })
}

unsafe extern "C" fn cookie_close(fd: *mut c_void) -> c_int {
    ffi_guard!(-1, do_close(fd as c_int))
}

/// A stream over registered `fd`; on failure the fd stays the caller's.
unsafe fn cookie_stream(fd: c_int, mode: *const c_char) -> *mut c_void {
    let io = CookieIo {
        read: cookie_read,
        write: cookie_write,
        seek: cookie_seek,
        close: cookie_close,
    };
    fopencookie(fd as usize as *mut c_void, mode, io)
}

unsafe fn do_fopen(path: *const c_char, mode: *const c_char) -> *mut c_void {
    let real_fopen = real!(
        fopen,
        unsafe extern "C" fn(*const c_char, *const c_char) -> *mut c_void
    );
    let in_mount = shim().is_some_and(|sh| cstr(path).and_then(|p| logical(sh, p)).is_some());
    let read_only = cstr(mode).is_some_and(|m| m.starts_with('r') && !m.contains('+'));
    if !in_mount || !read_only {
        // Unsupported: stdio writes into the mount (see module docs).
        return real_fopen(path, mode);
    }
    let fd = do_open(path, 0, 0); // O_RDONLY
    if fd < 0 {
        return std::ptr::null_mut();
    }
    let stream = cookie_stream(fd, mode);
    if stream.is_null() {
        do_close(fd);
    }
    stream
}

/// `fopen(3)`.
#[no_mangle]
pub unsafe extern "C" fn fopen(path: *const c_char, mode: *const c_char) -> *mut c_void {
    ffi_guard!(std::ptr::null_mut(), do_fopen(path, mode))
}

/// `fopen64(3)`.
#[no_mangle]
pub unsafe extern "C" fn fopen64(path: *const c_char, mode: *const c_char) -> *mut c_void {
    ffi_guard!(std::ptr::null_mut(), do_fopen(path, mode))
}

unsafe fn do_fdopen(fd: c_int, mode: *const c_char) -> *mut c_void {
    let f = real!(
        fdopen,
        unsafe extern "C" fn(c_int, *const c_char) -> *mut c_void
    );
    if lookup(fd).is_some() {
        return cookie_stream(fd, mode);
    }
    f(fd, mode)
}

/// `fdopen(3)` — a real stream would read the (empty) reserved fd.
#[no_mangle]
pub unsafe extern "C" fn fdopen(fd: c_int, mode: *const c_char) -> *mut c_void {
    ffi_guard!(std::ptr::null_mut(), do_fdopen(fd, mode))
}

/// Kernel `struct statx` (uapi, fixed layout).
#[repr(C)]
pub struct CStatx {
    stx_mask: u32,
    stx_blksize: u32,
    stx_attributes: u64,
    stx_nlink: u32,
    stx_uid: u32,
    stx_gid: u32,
    stx_mode: u16,
    __spare0: u16,
    stx_ino: u64,
    stx_size: u64,
    stx_blocks: u64,
    stx_attributes_mask: u64,
    stx_atime: [u8; 16],
    stx_btime: [u8; 16],
    stx_ctime: [u8; 16],
    stx_mtime: [u8; 16],
    stx_rdev_major: u32,
    stx_rdev_minor: u32,
    stx_dev_major: u32,
    stx_dev_minor: u32,
    stx_mnt_id: u64,
    __spare2: [u64; 13],
}

const STATX_BASIC_STATS: u32 = 0x7ff;
const AT_EMPTY_PATH: c_int = 0x1000;

unsafe fn fill_statx(out: *mut CStatx, size: u64, is_dir: bool, ino: u64) {
    std::ptr::write_bytes(out as *mut u8, 0, std::mem::size_of::<CStatx>());
    let st = &mut *out;
    st.stx_mask = STATX_BASIC_STATS;
    st.stx_blksize = 4096;
    st.stx_nlink = 1;
    st.stx_mode = if is_dir {
        (S_IFDIR | 0o755) as u16
    } else {
        (S_IFREG | 0o644) as u16
    };
    st.stx_ino = ino;
    st.stx_size = size;
    st.stx_blocks = size.div_ceil(512);
}

unsafe fn do_statx(
    dirfd: c_int,
    path: *const c_char,
    flags: c_int,
    mask: c_uint,
    out: *mut CStatx,
) -> c_int {
    let real_statx = real!(
        statx,
        unsafe extern "C" fn(c_int, *const c_char, c_int, c_uint, *mut CStatx) -> c_int
    );
    let Some(sh) = shim() else {
        return real_statx(dirfd, path, flags, mask, out);
    };
    // AT_EMPTY_PATH: stat the fd itself (fstat spelling).
    if flags & AT_EMPTY_PATH != 0 {
        if let Some(st) = lookup(dirfd) {
            match st.plfs_fd.size() {
                Ok(size) => {
                    fill_statx(out, size, false, st.ino);
                    return 0;
                }
                Err(e) => {
                    set_errno(plfs_errno(&e));
                    return -1;
                }
            }
        }
        return real_statx(dirfd, path, flags, mask, out);
    }
    let absolute = cstr(path).map(|p| p.starts_with('/')).unwrap_or(false);
    if dirfd != AT_FDCWD && !absolute {
        return real_statx(dirfd, path, flags, mask, out);
    }
    let Some(rel) = cstr(path).and_then(|p| logical(sh, p)) else {
        return real_statx(dirfd, path, flags, mask, out);
    };
    if rel == "/" {
        fill_statx(out, 0, true, 1);
        return 0;
    }
    match sh.plfs.getattr(&rel) {
        Ok(st) => {
            fill_statx(out, st.size, st.is_dir, fake_ino(&rel));
            0
        }
        Err(e) => {
            set_errno(plfs_errno(&e));
            -1
        }
    }
}

/// `statx(2)` — the stat entry point modern glibc and coreutils use.
#[no_mangle]
pub unsafe extern "C" fn statx(
    dirfd: c_int,
    path: *const c_char,
    flags: c_int,
    mask: c_uint,
    out: *mut CStatx,
) -> c_int {
    ffi_guard!(-1, do_statx(dirfd, path, flags, mask, out))
}

/// How many fds the shim currently tracks (exposed for the smoke test).
pub fn tracked_fds() -> usize {
    shim().map(|s| s.table.read().len()).unwrap_or(0)
}
