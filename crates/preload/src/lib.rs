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
//! `lseek(64)`, `close`, `close_range`, `closefrom`, `fsync`, `dup`,
//! `dup2`, `dup3`, `fcntl(64)` (its
//! `F_DUPFD`/`F_DUPFD_CLOEXEC` commands; the rest pass untouched),
//! `unlink`, `access`,
//! `mkdir`, `rmdir`, `ftruncate(64)`, the `stat`/`lstat`/`fstat` family,
//! `fopen(64)`/`fdopen`, `mmap(64)`, and the in-kernel byte movers
//! `copy_file_range`, `sendfile(64)`, `splice`. Calls on paths outside
//! `LDPLFS_MOUNT` forward to the real libc via `dlsym(RTLD_NEXT, …)`,
//! exactly like the original; so do the calls PLFS itself makes on its
//! backing store, without even a lookup (the `InPlfs` latch; DESIGN.md
//! §13), which is also what lets the backend directory sit under the mount.
//!
//! As in the paper, every PLFS open reserves a *genuine* kernel fd, so the
//! application holds a descriptor number no other file can take. Unlike the
//! paper, the shim keeps no state through that fd: a call on a container
//! makes no syscall the container does not need (DESIGN.md §13).
//!
//! * The reserved fd is `fcntl(F_DUPFD)` — `F_DUPFD_CLOEXEC` when the open
//!   asked for `O_CLOEXEC` — of one process-private template memfd, made
//!   at the first open: one syscall and no new kernel file per open. (The
//!   paper opened `/dev/random`; the template is never a device node,
//!   because `fchmod`/`fchown` on a reserved fd reach the template.)
//! * The logical cursor is not the reserved fd's file offset moved by
//!   `lseek`, as in the paper, but an atomic in a slot of a
//!   `MAP_SHARED|MAP_ANONYMOUS` page. `dup`'d fds share one open and so one
//!   slot; a forked child shares the page: both share the cursor exactly as
//!   they shared the kernel's file offset.
//! * The pid PLFS writes under is read once, and forgotten in the child of
//!   a `fork`.
//!
//! Each backend directory is opened once, at the first call, and every
//! PLFS op resolves its path against that descriptor (so a relative
//! `LDPLFS_BACKEND` is fixed then). The shim guards those descriptors from
//! the application as it guards the template: `close` of one is `EBADF`,
//! `close_range`/`closefrom` close around them, and `dup2`/`dup3` onto one
//! move it to a new number first (DESIGN.md §11).
//!
//! `fork` (`pthread_atfork`): the parent first writes every writer's
//! buffered index records, so the child reads every byte written before
//! the fork. The child's handler waits on no lock — it forgets the pid,
//! counts the fork, moves the fd table to a fresh lock if a parent thread
//! was reading it, and takes cursor slots from a page of its own from then
//! on; a slot live at the fork is never handed out again on either side.
//! Each inherited open is adopted at the child's first call on it: its
//! references become the child's, its copies of the parent's writers are
//! dropped without writing a record, and it writes through droppings of
//! its own; one the child closes unused is let go without a PLFS call. A
//! child that moves and closes descriptors and `exec`s runs no PLFS code
//! at all. A child's writes reach the container when it closes the
//! descriptor: like any process, one that exits without `close` loses its
//! unwritten index records.
//!
//! Every open, read-only ones included, is registered the same way: the
//! reserved fd holds *no data* and reads are served by `PlfsFd::read`
//! straight into the caller's buffer. For I/O that passes no interposed
//! symbol: stdio streams over the mount are `fopencookie` streams on the
//! shim's own read/seek/close (so `fileno()` is -1); `mmap` of a read-only
//! fd fills a memfd of its own with the container's bytes once, on demand,
//! and maps that (a writable fd fails `ENODEV`); the kernel's fd-to-fd
//! movers answer `EXDEV`/`EINVAL`. See DESIGN.md.
//!
//! Configuration rides the environment: `LDPLFS_MOUNT` and `LDPLFS_BACKEND`
//! (required), `LDPLFS_HOSTDIRS` (hostdirs per new container), plus the
//! env aliases of the one knob table — see the "Configuration" table in
//! README.md, or `plfs-tools rccheck --knobs`. An unparsable value keeps
//! its default (the shim must never refuse to start over tuning); an
//! `LDPLFS_*` name nothing reads is reported in one stderr line at init.
//!
//! Known limitation (shared with the original): descriptors inherited
//! *across `execve`* lose their PLFS identity, so shell output redirection
//! `> /mount/file` feeding an exec'd child is not supported; tools that
//! open their own outputs (`cp`, applications) work.

#![allow(clippy::missing_safety_doc)]

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use plfs::meta::{Fnv, FnvBuild};
use plfs::{OpenFlags, Plfs, PlfsFd, RealBacking};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ffi::CStr;
use std::hash::Hasher;
use std::ops::Deref;
use std::os::raw::{c_char, c_int, c_uint, c_void};
use std::sync::atomic::{AtomicI32, AtomicPtr, AtomicU64, Ordering};
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
const O_CLOEXEC: c_int = 0o2000000;

const F_DUPFD: c_int = 0;
const F_DUPFD_CLOEXEC: c_int = 1030;
const MFD_CLOEXEC: c_uint = 1;
const PROT_READ: c_int = 1;
const PROT_WRITE: c_int = 2;
const MAP_SHARED: c_int = 1;
const MAP_ANONYMOUS: c_int = 0x20;

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
    fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
    fn getpid() -> c_int;
    fn pthread_atfork(
        prepare: extern "C" fn(),
        parent: extern "C" fn(),
        child: extern "C" fn(),
    ) -> c_int;
    fn __chk_fail() -> !;
    fn fopencookie(cookie: *mut c_void, mode: *const c_char, io: CookieIo) -> *mut c_void;
    fn setvbuf(stream: *mut c_void, buf: *mut c_char, mode: c_int, size: SizeT) -> c_int;
}

/// `setvbuf`'s full-buffering mode.
const IOFBF: c_int = 0;

fn set_errno(e: c_int) {
    unsafe { *__errno_location() = e };
}

fn errno() -> c_int {
    unsafe { *__errno_location() }
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
///
/// An interposed symbol names its next-in-chain twin, `name: Type(args)`:
/// a call made while this thread is inside PLFS ([`InPlfs`]) is PLFS's own
/// I/O on its backing store and goes straight there — no fd-table lookup,
/// no path classification, no panic barrier to set up.
macro_rules! ffi_guard {
    ($err:expr, $name:ident: $sig:ident($($arg:expr),*), $body:expr) => {
        if in_plfs() {
            real!($name, $sig)($($arg),*)
        } else {
            ffi_guard!($err, $body)
        }
    };
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

// Next-in-chain signatures, one per distinct C prototype.
type PathModeFn = unsafe extern "C" fn(*const c_char, ModeT) -> c_int;
type OpenFn = unsafe extern "C" fn(*const c_char, c_int, ModeT) -> c_int;
type OpenatFn = unsafe extern "C" fn(c_int, *const c_char, c_int, ModeT) -> c_int;
type ReadFn = unsafe extern "C" fn(c_int, *mut c_void, SizeT) -> SsizeT;
type WriteFn = unsafe extern "C" fn(c_int, *const c_void, SizeT) -> SsizeT;
type PreadFn = unsafe extern "C" fn(c_int, *mut c_void, SizeT, OffT) -> SsizeT;
type PwriteFn = unsafe extern "C" fn(c_int, *const c_void, SizeT, OffT) -> SsizeT;
type ReadChkFn = unsafe extern "C" fn(c_int, *mut c_void, SizeT, SizeT) -> SsizeT;
type PreadChkFn = unsafe extern "C" fn(c_int, *mut c_void, SizeT, OffT, SizeT) -> SsizeT;
type IovFn = unsafe extern "C" fn(c_int, *const IoVec, c_int) -> SsizeT;
type IovAtFn = unsafe extern "C" fn(c_int, *const IoVec, c_int, OffT) -> SsizeT;
type IovAt2Fn = unsafe extern "C" fn(c_int, *const IoVec, c_int, OffT, c_int) -> SsizeT;
type LseekFn = unsafe extern "C" fn(c_int, OffT, c_int) -> OffT;
type FdFn = unsafe extern "C" fn(c_int) -> c_int;
type Dup2Fn = unsafe extern "C" fn(c_int, c_int) -> c_int;
type Dup3Fn = unsafe extern "C" fn(c_int, c_int, c_int) -> c_int;
type FcntlFn = unsafe extern "C" fn(c_int, c_int, ...) -> c_int;
type CloseRangeFn = unsafe extern "C" fn(c_uint, c_uint, c_int) -> c_int;
type CloseFromFn = unsafe extern "C" fn(c_int);
type MmapFn = unsafe extern "C" fn(*mut c_void, SizeT, c_int, c_int, c_int, OffT) -> *mut c_void;
type MoverFn = unsafe extern "C" fn(c_int, *mut OffT, c_int, *mut OffT, SizeT, c_uint) -> SsizeT;
type SendfileFn = unsafe extern "C" fn(c_int, c_int, *mut OffT, SizeT) -> SsizeT;
type StatFn = unsafe extern "C" fn(*const c_char, *mut CStat) -> c_int;
type FstatFn = unsafe extern "C" fn(c_int, *mut CStat) -> c_int;
type FstatatFn = unsafe extern "C" fn(c_int, *const c_char, *mut CStat, c_int) -> c_int;
type StatxFn = unsafe extern "C" fn(c_int, *const c_char, c_int, c_uint, *mut CStatx) -> c_int;
type PathFn = unsafe extern "C" fn(*const c_char) -> c_int;
type UnlinkatFn = unsafe extern "C" fn(c_int, *const c_char, c_int) -> c_int;
type AccessFn = unsafe extern "C" fn(*const c_char, c_int) -> c_int;
type TruncateFn = unsafe extern "C" fn(*const c_char, OffT) -> c_int;
type FtruncateFn = unsafe extern "C" fn(c_int, OffT) -> c_int;
type FopenFn = unsafe extern "C" fn(*const c_char, *const c_char) -> *mut c_void;
type FdopenFn = unsafe extern "C" fn(c_int, *const c_char) -> *mut c_void;

// ---------------------------------------------------------------------------
// Shim state.
// ---------------------------------------------------------------------------

/// One PLFS open; `dup`'d fds share it, as they would share an ordinary
/// file's open file description.
struct OpenState {
    plfs_fd: Arc<PlfsFd>,
    append: bool,
    /// `fake_ino` of the path opened, so fstat agrees with path-stat.
    ino: u64,
    cursor: Cursor,
    /// The memfd a read-only `mmap` maps: made and filled with the
    /// container's bytes by the first one, once per open.
    map: Mutex<Option<c_int>>,
    /// The [`FORKS`] count this process's PLFS state of the open is for:
    /// lower, the open was inherited across a `fork` and is not adopted yet.
    forks: AtomicU64,
    /// Held by the one thread adopting the open.
    adopting: Mutex<()>,
}

/// Forks into this process: the child handler of each `fork` counts one.
static FORKS: AtomicU64 = AtomicU64::new(0);

impl OpenState {
    fn new(plfs_fd: Arc<PlfsFd>, append: bool, ino: u64, cursor: Cursor) -> OpenState {
        OpenState {
            plfs_fd,
            append,
            ino,
            cursor,
            map: Mutex::new(None),
            // relaxed: a count read in this process alone; see adopt
            forks: AtomicU64::new(FORKS.load(Ordering::Relaxed)),
            adopting: Mutex::new(()),
        }
    }

    /// Is the open's PLFS state this process's? Not while it is inherited
    /// across a `fork` and not yet adopted.
    fn ours(&self) -> bool {
        // acquire: pairs with adopt's release; relaxed: FORKS changes only in the child handler, before any other thread of the child exists
        self.forks.load(Ordering::Acquire) == FORKS.load(Ordering::Relaxed)
    }

    /// Adopt an open inherited across a `fork`, once, before anything else
    /// of this process uses it: its references become this pid's and the
    /// parent's writers are dropped unwritten ([`PlfsFd::forked`]). Done at
    /// the child's first call on the open, not in the fork's child handler:
    /// a child that only `exec`s takes no PLFS lock, any of which another of
    /// its parent's threads may have held at the fork. Called inside PLFS
    /// only ([`InPlfs`]).
    // signal-safe: every caller is inside PLFS, so a handler's interposed call goes straight to libc and never waits on `adopting`
    fn adopt(&self) {
        if self.ours() {
            return;
        }
        let _one = self.adopting.lock();
        // relaxed: see ours
        let now = FORKS.load(Ordering::Relaxed);
        // relaxed: `adopting` orders this against the adopter that stored it
        if self.forks.load(Ordering::Relaxed) != now {
            self.plfs_fd.forked(pid());
            // release: a thread that sees the count sees the adoption
            self.forks.store(now, Ordering::Release);
        }
    }
}

impl Drop for OpenState {
    fn drop(&mut self) {
        if let Some(fd) = *self.map.get_mut() {
            // A mapping holds its own reference to the file.
            let real_close = real!(close, FdFn);
            // SAFETY: `fd` is this open's own memfd, closed once, here.
            let _ = unsafe { real_close(fd) };
        }
    }
}

/// Registered fd → its open. Descriptors are the kernel's small numbers,
/// hashed with FNV: no random keys to draw.
type Table = HashMap<c_int, Arc<OpenState>, FnvBuild>;

struct Shim {
    mount: String,
    plfs: Plfs,
    /// The real backing under the mount. It holds its root directory's
    /// descriptor, which every PLFS op resolves its path against: the
    /// shim's own, like the template, guarded from the application
    /// ([`root_at`]).
    root: Arc<RealBacking>,
    /// The fd table, behind a pointer so that a fork's child can move it to
    /// a lock of its own ([`renew_table`]); a table left behind is leaked.
    table: AtomicPtr<RwLock<Table>>,
}

impl Shim {
    fn table(&self) -> &RwLock<Table> {
        // SAFETY: the pointer is always a leaked `Box`, never freed.
        // acquire: pairs with renew_table's release
        unsafe { &*self.table.load(Ordering::Acquire) }
    }

    /// Change the table under [`TABLE_MUTATION`]. What `f` returns — a
    /// replaced or removed open among it — is dropped by the caller, after
    /// both locks.
    fn mutate<R>(&self, f: impl FnOnce(&mut Table) -> R) -> R {
        let _one = TABLE_MUTATION.lock();
        f(&mut self.table().write())
    }
}

/// Held around every change to the fd table, and by a forking thread
/// across the `fork`: the child's copy of the table is never caught half
/// changed, whatever readers its lock shows.
static TABLE_MUTATION: Mutex<()> = Mutex::new(());

static SHIM: OnceLock<Option<Shim>> = OnceLock::new();

thread_local! {
    /// Set while this thread is inside PLFS: building the shim, or any call
    /// the shim makes into `Plfs`/`PlfsFd` (a cookie callback's included).
    /// PLFS's own I/O on its backing store reaches the interposed symbols
    /// again; [`ffi_guard!`] sends it straight to libc. Without the latch a
    /// backend directory under the mount recursed until the stack ran out.
    static IN_PLFS: Cell<bool> = const { Cell::new(false) };
}

fn in_plfs() -> bool {
    IN_PLFS.get()
}

/// This thread is inside PLFS while one of these lives. Restores what it
/// found, so holding one inside another is harmless.
struct InPlfs(bool);

impl InPlfs {
    fn enter() -> InPlfs {
        InPlfs(IN_PLFS.replace(true))
    }
}

impl Drop for InPlfs {
    fn drop(&mut self) {
        IN_PLFS.set(self.0);
    }
}

fn inside_plfs<T>(f: impl FnOnce() -> T) -> T {
    let _in_plfs = InPlfs::enter();
    f()
}

// One-time init on the first interposed call that is not PLFS's own; init
// runs inside PLFS, so the file-system calls it makes (create_dir_all on the
// backend) pass straight through. After init this is a lock-free read.
// signal-safe: init's allocation cannot recurse into the shim (InPlfs latch);
// every later call is a OnceLock read with no allocation.
fn shim() -> Option<&'static Shim> {
    SHIM.get_or_init(|| {
        let _in_plfs = InPlfs::enter();
        init_shim()
    })
    .as_ref()
}

/// Variables the shim itself reads; every other `LDPLFS_*` name must be a
/// [`plfs::conf::KNOBS`] env alias or it is reported at init.
const ENV_MOUNT: &str = "LDPLFS_MOUNT";
const ENV_BACKEND: &str = "LDPLFS_BACKEND";
const ENV_HOSTDIRS: &str = "LDPLFS_HOSTDIRS";
const SHIM_ENV: [&str; 3] = [ENV_MOUNT, ENV_BACKEND, ENV_HOSTDIRS];

/// One line on the host's stderr, through the real `write(2)`: a
/// misconfiguration must be visible, but never through an interposed path.
fn warn(msg: &str) {
    let line = format!("ldplfs-preload: {msg}\n");
    let real_write = real!(write, WriteFn);
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
    let root = Arc::new(RealBacking::new(backend).ok()?);
    let env: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| Some((k.into_string().ok()?, v.into_string().ok()?)))
        .filter(|(k, _)| k.starts_with("LDPLFS_"))
        .collect();
    for (name, _) in &env {
        if !SHIM_ENV.contains(&name.as_str()) && plfs::conf::env_knob(name).is_none() {
            warn(&format!("unknown variable {name} ignored"));
        }
    }
    let conf = plfs::Conf::from_env(env);
    let mut plfs = Plfs::new(Arc::clone(&root) as Arc<dyn plfs::Backing>).with_conf(conf);
    // SAFETY: the handlers are `extern "C" fn()`s that never unwind.
    unsafe { pthread_atfork(before_fork, after_fork_in_parent, after_fork_in_child) };
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
        root,
        table: AtomicPtr::new(Box::leak(Box::new(RwLock::new(Table::default())))),
    })
}

/// Mount-relative logical path, if `path` is inside the mount.
fn logical<'a>(shim: &Shim, path: &'a str) -> Option<&'a str> {
    let m = &shim.mount;
    if path == m {
        return Some("/");
    }
    let rest = path.strip_prefix(m.as_str())?;
    if !rest.starts_with('/') {
        return None;
    }
    Some(rest)
}

unsafe fn cstr<'a>(p: *const c_char) -> Option<&'a str> {
    if p.is_null() {
        return None;
    }
    CStr::from_ptr(p).to_str().ok()
}

/// The kernel file every reserved fd duplicates: a memfd private to this
/// process, with no filesystem presence and close-on-exec itself. -1 until
/// the first open makes it, and again once the application frees its
/// number — `close`, `close_range`, `closefrom` — or `dup2`s over it
/// ([`forget_template`]). A number freed under the shim (a raw `syscall`)
/// is not seen: the next file the application opens may take it.
static TEMPLATE: AtomicI32 = AtomicI32::new(NO_FD);

/// No descriptor: the template before it is made, an anonymous map's fd.
const NO_FD: c_int = -1;

/// A memfd named by the static NUL-terminated literal `name`.
fn new_memfd(name: &'static [u8]) -> c_int {
    // SAFETY: `name` is a NUL-terminated literal that outlives the call.
    unsafe { memfd_create(name.as_ptr() as *const c_char, MFD_CLOEXEC) }
}

/// A reserved fd: a duplicate of the template — one `fcntl`, and no new
/// kernel file — close-on-exec if the open asked for `O_CLOEXEC`.
fn reserve_fd(cloexec: bool) -> c_int {
    let dup = real!(fcntl, FcntlFn);
    let cmd = if cloexec { F_DUPFD_CLOEXEC } else { F_DUPFD };
    loop {
        // relaxed: the template's number is all this publishes; a stale -1 only makes a spare memfd
        let mut t = TEMPLATE.load(Ordering::Relaxed);
        if t < 0 {
            let made = new_memfd(b"ldplfs-reserved\0");
            if made < 0 {
                return made; // with memfd_create's errno
            }
            // relaxed: as above; the loser of a race closes its spare
            t = match TEMPLATE.compare_exchange(NO_FD, made, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => made,
                Err(theirs) => {
                    let real_close = real!(close, FdFn);
                    // SAFETY: `made` is this call's own memfd, used by nothing.
                    let _ = unsafe { real_close(made) };
                    theirs
                }
            };
        }
        // SAFETY: F_DUPFD[_CLOEXEC] takes one int argument.
        let fd = unsafe { dup(t, cmd, 0 as c_int) };
        if fd >= 0 || errno() != EBADF {
            return fd;
        }
        // The number was closed under the shim: make another template.
        forget_template(t);
    }
}

/// The application closes `fd` or makes it name another file: if it is
/// the template's number, the next open makes a new template.
fn forget_template(fd: c_int) {
    // relaxed: see reserve_fd
    let _ = TEMPLATE.compare_exchange(fd, NO_FD, Ordering::Relaxed, Ordering::Relaxed);
}

/// Cursor slots per page of [`Slots`].
const SLOTS_PER_PAGE: usize = 4096 / std::mem::size_of::<AtomicU64>();

/// Where cursors live: `AtomicU64` slots in pages mapped
/// `MAP_SHARED|MAP_ANONYMOUS`, so a forked child shares every slot with its
/// parent as the two would share an ordinary file's offset.
struct Slots {
    /// Bumped by every fork, on both sides: a slot taken in an earlier
    /// epoch is never handed out again, so one that was live at a fork is
    /// never reused under the other process's open.
    epoch: u64,
    /// Address of the page slots are carved from; 0 before the first, and
    /// in a child, whose slots come from pages of its own.
    page: usize,
    /// Slots of `page` handed out.
    used: usize,
    /// Released slots of this epoch, by address.
    free: Vec<usize>,
}

static SLOTS: Mutex<Slots> = Mutex::new(Slots {
    epoch: 0,
    page: 0,
    used: 0,
    free: Vec::new(),
});

/// A registered open's file offset: one slot, shared by every fd `dup`
/// made of the open and, across `fork`, by parent and child.
struct Cursor {
    at: &'static AtomicU64,
    epoch: u64,
}

impl Cursor {
    /// A fresh slot at offset 0; `None` if no page could be mapped.
    fn take() -> Option<Cursor> {
        let mut slots = SLOTS.lock();
        let addr = match slots.free.pop() {
            Some(addr) => addr,
            None => {
                if slots.page == 0 || slots.used == SLOTS_PER_PAGE {
                    let map = real!(mmap, MmapFn);
                    let prot = PROT_READ | PROT_WRITE;
                    // SAFETY: a fresh anonymous mapping; no memory of ours
                    // is named by the arguments.
                    let page = unsafe {
                        map(
                            std::ptr::null_mut(),
                            4096,
                            prot,
                            MAP_SHARED | MAP_ANONYMOUS,
                            NO_FD,
                            0,
                        )
                    };
                    if page == MAP_FAILED {
                        return None;
                    }
                    (slots.page, slots.used) = (page as usize, 0);
                }
                slots.used += 1;
                slots.page + (slots.used - 1) * std::mem::size_of::<AtomicU64>()
            }
        };
        // SAFETY: `addr` is an aligned slot of a page mapped read-write and
        // never unmapped, handed to this cursor alone.
        let at: &'static AtomicU64 = unsafe { &*(addr as *const AtomicU64) };
        // relaxed: the slot is this cursor's alone until the open is registered
        at.store(0, Ordering::Relaxed);
        Some(Cursor {
            at,
            epoch: slots.epoch,
        })
    }

    fn get(&self) -> OffT {
        // relaxed: a cursor orders nothing but itself; racing calls on one open may both see one offset, as with a kernel file offset read and set by lseek
        self.at.load(Ordering::Relaxed) as OffT
    }

    fn set(&self, off: OffT) {
        // relaxed: see Cursor::get
        self.at.store(off as u64, Ordering::Relaxed);
    }
}

impl Drop for Cursor {
    fn drop(&mut self) {
        let mut slots = SLOTS.lock();
        if slots.epoch == self.epoch {
            slots.free.push(self.at as *const AtomicU64 as usize);
        }
    }
}

/// This process's pid, read once: the child handler of a fork forgets it.
static PID: AtomicU64 = AtomicU64::new(0);

fn pid() -> u64 {
    // relaxed: a pid publishes nothing; a racing first read stores the same value
    match PID.load(Ordering::Relaxed) {
        0 => {
            // SAFETY: getpid has no preconditions.
            let p = unsafe { getpid() } as u64;
            PID.store(p, Ordering::Relaxed); // relaxed: as above
            p
        }
        p => p,
    }
}

/// What the forking thread holds across a `fork`.
type HeldAtFork = (
    MutexGuard<'static, ()>,
    MutexGuard<'static, Slots>,
    Option<RwLockWriteGuard<'static, ()>>,
);

thread_local! {
    /// [`TABLE_MUTATION`], [`SLOTS`] and the backing root's
    /// [`RealBacking::pause`], held by the forking thread from
    /// `pthread_atfork`'s prepare handler to its parent or child handler:
    /// neither side's copy of the fd table or the slot allocator can be
    /// caught half changed, nor a root's lock caught held by an op in
    /// flight.
    static HELD_AT_FORK: RefCell<Option<HeldAtFork>> = const { RefCell::new(None) };
}

/// `pthread_atfork` prepare: write the buffered index records of every
/// writer this process owns (the child drops its copies of them), then
/// hold [`HELD_AT_FORK`]'s locks across the fork.
// plfs-lint: allow(ffi-barrier, "pthread_atfork handler returns (); has its own catch_unwind, errno is meaningless here")
extern "C" fn before_fork() {
    let _ = std::panic::catch_unwind(|| {
        if let Some(Some(sh)) = SHIM.get() {
            let _in_plfs = InPlfs::enter();
            let opens: Vec<Arc<OpenState>> = sh.table().read().values().cloned().collect();
            // An open inherited and not adopted holds its parent's writers,
            // which are not this process's to write.
            for st in opens.iter().filter(|st| st.ours()) {
                // Best effort: a failed flush leaves the child unable to
                // read those bytes, never other bytes.
                let _ = st.plfs_fd.flush_index();
            }
        }
        let (one, slots) = (TABLE_MUTATION.lock(), SLOTS.lock());
        let root = match SHIM.get() {
            Some(Some(sh)) => Some(sh.root.pause()),
            _ => None,
        };
        HELD_AT_FORK.with(|h| *h.borrow_mut() = Some((one, slots, root)));
    });
}

/// Let go of what [`before_fork`] held, on either side, ending the slot
/// allocator's epoch: slots live at the fork are never reused.
fn release_at_fork(child: bool) {
    HELD_AT_FORK.with(|h| {
        if let Some((_one, mut slots, _root)) = h.borrow_mut().take() {
            slots.epoch += 1;
            if child {
                slots.page = 0;
                slots.free.clear();
            }
        }
    });
}

/// `pthread_atfork` parent.
// plfs-lint: allow(ffi-barrier, "pthread_atfork handler returns (); has its own catch_unwind, errno is meaningless here")
extern "C" fn after_fork_in_parent() {
    let _ = std::panic::catch_unwind(|| release_at_fork(false));
}

/// `pthread_atfork` child: a new pid; one more fork counted, so that each
/// inherited open is adopted at its first use ([`OpenState::adopt`]); the
/// fd table on a lock of its own if need be; slots from pages of its own.
/// Waits on no lock and makes no PLFS call: a child that only `exec`s
/// runs no PLFS code.
// plfs-lint: allow(ffi-barrier, "pthread_atfork handler returns (); has its own catch_unwind, errno is meaningless here")
extern "C" fn after_fork_in_child() {
    let _ = std::panic::catch_unwind(|| {
        PID.store(0, Ordering::Relaxed); // relaxed: this thread is the child's only one
        FORKS.fetch_add(1, Ordering::Relaxed); // relaxed: as above
        if let Some(Some(sh)) = SHIM.get() {
            renew_table(sh);
        }
        release_at_fork(true);
    });
}

/// In a fork's child, whose only thread this is: the fd table's lock is
/// as the parent's threads left it, and one that was reading the table at
/// the fork holds it forever here — the child's first `close` would wait
/// on it. Unless the lock is free, the table moves to a lock of its own. No
/// change to the table was under way ([`TABLE_MUTATION`] is held across
/// the fork), so the old lock still lets this thread read it.
fn renew_table(sh: &Shim) {
    let old = sh.table();
    if old.try_write().is_some() {
        return;
    }
    let copy = old.try_read().map(|t| t.clone()).unwrap_or_default();
    let fresh = Box::leak(Box::new(RwLock::new(copy)));
    // release: pairs with Shim::table's acquire
    sh.table.store(fresh, Ordering::Release);
}

/// A registered fd's open. This thread is inside PLFS while it lives:
/// everything done with one is a call into `PlfsFd`.
struct Registered {
    st: Arc<OpenState>,
    _in_plfs: InPlfs,
}

impl Deref for Registered {
    type Target = OpenState;

    fn deref(&self) -> &OpenState {
        &self.st
    }
}

fn lookup(fd: c_int) -> Option<Registered> {
    let shim = shim()?;
    let st = shim.table().read().get(&fd).cloned()?;
    let _in_plfs = InPlfs::enter();
    st.adopt();
    Some(Registered { st, _in_plfs })
}

fn plfs_errno(e: &plfs::Error) -> c_int {
    e.errno()
}

/// Stable fake inode per logical path (FNV-1a), so path-stat and
/// fstat-after-open agree.
fn fake_ino(rel: &str) -> u64 {
    let mut h = Fnv::default();
    h.write(rel.as_bytes());
    h.finish() | 1
}

// ---------------------------------------------------------------------------
// open family.
// ---------------------------------------------------------------------------

unsafe fn do_open(path: *const c_char, flags: c_int, mode: ModeT) -> c_int {
    let real_open = real!(open, OpenFn);
    let Some(sh) = shim() else {
        return real_open(path, flags, mode);
    };
    let Some(p) = cstr(path) else {
        return real_open(path, flags, mode);
    };
    let Some(rel) = logical(sh, p) else {
        return real_open(path, flags, mode);
    };
    let _in_plfs = InPlfs::enter();
    // A container is a file: cp probes its destination with O_DIRECTORY
    // and takes anything but ENOTDIR to mean "copy into it".
    if flags & O_DIRECTORY != 0 && sh.plfs.is_container(rel) {
        set_errno(ENOTDIR);
        return -1;
    }
    // Translate flags (numeric values match plfs::OpenFlags on Linux).
    let oflags = OpenFlags((flags & (O_ACCMODE | O_CREAT | O_EXCL | O_TRUNC | O_APPEND)) as u32);
    let pid = pid();
    match sh.plfs.open(rel, oflags, pid) {
        Ok(pfd) => {
            let Some(cursor) = Cursor::take() else {
                let _ = pfd.close(pid);
                set_errno(ENOMEM);
                return -1;
            };
            let fd = reserve_fd(flags & O_CLOEXEC != 0);
            if fd < 0 {
                // EMFILE and the like are the open's own errno.
                let e = errno();
                let _ = pfd.close(pid);
                set_errno(e);
                return -1;
            }
            let st = OpenState::new(pfd, flags & O_APPEND != 0, fake_ino(rel), cursor);
            sh.mutate(|t| t.insert(fd, Arc::new(st)));
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
    ffi_guard!(-1, open: OpenFn(path, flags, mode), do_open(path, flags, mode))
}

/// `open64(2)` (LFS alias).
#[no_mangle]
pub unsafe extern "C" fn open64(path: *const c_char, flags: c_int, mode: ModeT) -> c_int {
    ffi_guard!(-1, open64: OpenFn(path, flags, mode), do_open(path, flags, mode))
}

/// `creat(2)`.
#[no_mangle]
pub unsafe extern "C" fn creat(path: *const c_char, mode: ModeT) -> c_int {
    ffi_guard!(-1, creat: PathModeFn(path, mode), do_open(path, 0o1 | O_CREAT | O_TRUNC, mode))
}

unsafe fn do_openat(dirfd: c_int, path: *const c_char, flags: c_int, mode: ModeT) -> c_int {
    let absolute = cstr(path).map(|p| p.starts_with('/')).unwrap_or(false);
    if dirfd == AT_FDCWD || absolute {
        return do_open(path, flags, mode);
    }
    let f = real!(openat, OpenatFn);
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
    ffi_guard!(-1, openat: OpenatFn(dirfd, path, flags, mode), do_openat(dirfd, path, flags, mode))
}

/// `openat64(2)`.
#[no_mangle]
pub unsafe extern "C" fn openat64(
    dirfd: c_int,
    path: *const c_char,
    flags: c_int,
    mode: ModeT,
) -> c_int {
    ffi_guard!(
        -1,
        openat64: OpenatFn(dirfd, path, flags, mode),
        do_openat(dirfd, path, flags, mode)
    )
}

// ---------------------------------------------------------------------------
// data plane.
// ---------------------------------------------------------------------------

unsafe fn do_read(fd: c_int, buf: *mut c_void, count: SizeT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(read, ReadFn);
            f(fd, buf, count)
        }
        Some(st) => {
            let slice = std::slice::from_raw_parts_mut(buf as *mut u8, count);
            let off = st.cursor.get();
            match st.plfs_fd.read(slice, off as u64) {
                Ok(n) => {
                    st.cursor.set(off + n as OffT);
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
    ffi_guard!(-1, read: ReadFn(fd, buf, count), do_read(fd, buf, count))
}

unsafe fn do_write(fd: c_int, buf: *const c_void, count: SizeT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(write, WriteFn);
            f(fd, buf, count)
        }
        Some(st) => {
            let slice = std::slice::from_raw_parts(buf as *const u8, count);
            let pid = pid();
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
                let off = st.cursor.get();
                match st.plfs_fd.write(slice, off as u64, pid) {
                    Ok(n) => (off, n),
                    Err(e) => {
                        set_errno(plfs_errno(&e));
                        return -1;
                    }
                }
            };
            st.cursor.set(off + n as OffT);
            n as SsizeT
        }
    }
}

/// `write(2)`.
#[no_mangle]
pub unsafe extern "C" fn write(fd: c_int, buf: *const c_void, count: SizeT) -> SsizeT {
    ffi_guard!(-1, write: WriteFn(fd, buf, count), do_write(fd, buf, count))
}

unsafe fn do_pread(fd: c_int, buf: *mut c_void, count: SizeT, off: OffT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(pread, PreadFn);
            f(fd, buf, count, off)
        }
        // The kernel refuses a negative offset before anything else.
        Some(_) if off < 0 => {
            set_errno(EINVAL);
            -1
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
    ffi_guard!(-1, pread: PreadFn(fd, buf, count, off), do_pread(fd, buf, count, off))
}

/// `pread64(2)`.
#[no_mangle]
pub unsafe extern "C" fn pread64(fd: c_int, buf: *mut c_void, count: SizeT, off: OffT) -> SsizeT {
    ffi_guard!(-1, pread64: PreadFn(fd, buf, count, off), do_pread(fd, buf, count, off))
}

/// `__read_chk` — `read` as `_FORTIFY_SOURCE` builds spell it, destination
/// size last: abort on overflow as glibc does, otherwise the plain call.
#[no_mangle]
pub unsafe extern "C" fn __read_chk(fd: c_int, buf: *mut c_void, n: SizeT, len: SizeT) -> SsizeT {
    if n > len {
        __chk_fail();
    }
    ffi_guard!(-1, __read_chk: ReadChkFn(fd, buf, n, len), do_read(fd, buf, n))
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
    ffi_guard!(-1, __pread_chk: PreadChkFn(fd, buf, n, off, len), do_pread(fd, buf, n, off))
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
    ffi_guard!(-1, __pread64_chk: PreadChkFn(fd, buf, n, off, len), do_pread(fd, buf, n, off))
}

unsafe fn do_pwrite(fd: c_int, buf: *const c_void, count: SizeT, off: OffT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(pwrite, PwriteFn);
            f(fd, buf, count, off)
        }
        Some(_) if off < 0 => {
            set_errno(EINVAL);
            -1
        }
        Some(st) => {
            let slice = std::slice::from_raw_parts(buf as *const u8, count);
            match st.plfs_fd.write(slice, off as u64, pid()) {
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
    ffi_guard!(-1, pwrite: PwriteFn(fd, buf, count, off), do_pwrite(fd, buf, count, off))
}

/// `pwrite64(2)`.
#[no_mangle]
pub unsafe extern "C" fn pwrite64(
    fd: c_int,
    buf: *const c_void,
    count: SizeT,
    off: OffT,
) -> SsizeT {
    ffi_guard!(-1, pwrite64: PwriteFn(fd, buf, count, off), do_pwrite(fd, buf, count, off))
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
            let f = real!(readv, IovFn);
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
            let off = st.cursor.get();
            let mut data = vec![0u8; total];
            match st
                .plfs_fd
                .read_list(&mut data, &[(off as u64, total as u64)])
            {
                Ok(n) => {
                    scatter_iov(iov, cnt, &data[..n]);
                    st.cursor.set(off + n as OffT);
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
    ffi_guard!(-1, readv: IovFn(fd, iov, cnt), do_readv(fd, iov, cnt))
}

unsafe fn do_writev(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(writev, IovFn);
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
            let pid = pid();
            let (off, n) = if st.append {
                match st.plfs_fd.append(&data, pid) {
                    Ok((off, n)) => (off as OffT, n),
                    Err(e) => {
                        set_errno(plfs_errno(&e));
                        return -1;
                    }
                }
            } else {
                let off = st.cursor.get();
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
            st.cursor.set(off + n as OffT);
            n as SsizeT
        }
    }
}

/// `writev(2)`.
#[no_mangle]
pub unsafe extern "C" fn writev(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT {
    ffi_guard!(-1, writev: IovFn(fd, iov, cnt), do_writev(fd, iov, cnt))
}

unsafe fn do_preadv(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(preadv, IovAtFn);
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
    ffi_guard!(-1, preadv: IovAtFn(fd, iov, cnt, off), do_preadv(fd, iov, cnt, off))
}

/// `preadv64(2)`.
#[no_mangle]
pub unsafe extern "C" fn preadv64(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    ffi_guard!(-1, preadv64: IovAtFn(fd, iov, cnt, off), do_preadv(fd, iov, cnt, off))
}

unsafe fn do_pwritev(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    match lookup(fd) {
        None => {
            let f = real!(pwritev, IovAtFn);
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
                .write_list(&data, &[(off as u64, total as u64)], pid())
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
    ffi_guard!(-1, pwritev: IovAtFn(fd, iov, cnt, off), do_pwritev(fd, iov, cnt, off))
}

/// `pwritev64(2)`.
#[no_mangle]
pub unsafe extern "C" fn pwritev64(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT {
    ffi_guard!(-1, pwritev64: IovAtFn(fd, iov, cnt, off), do_pwritev(fd, iov, cnt, off))
}

/// `preadv2(2)` dispatch: offset `-1` means cursor (`readv`) semantics;
/// `RWF_*` flags are accepted and ignored on the PLFS path.
// plfs-lint: allow(errno-discipline, "pure dispatch: do_readv/do_preadv set errno on their own -1 returns")
unsafe fn do_preadv2(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT, flags: c_int) -> SsizeT {
    if lookup(fd).is_none() {
        let f = real!(preadv2, IovAt2Fn);
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
    ffi_guard!(
        -1,
        preadv2: IovAt2Fn(fd, iov, cnt, off, flags),
        do_preadv2(fd, iov, cnt, off, flags)
    )
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
    ffi_guard!(
        -1,
        preadv64v2: IovAt2Fn(fd, iov, cnt, off, flags),
        do_preadv2(fd, iov, cnt, off, flags)
    )
}

// plfs-lint: allow(errno-discipline, "pure dispatch: do_writev/do_pwritev set errno on their own -1 returns")
unsafe fn do_pwritev2(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT, flags: c_int) -> SsizeT {
    if lookup(fd).is_none() {
        let f = real!(pwritev2, IovAt2Fn);
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
    ffi_guard!(
        -1,
        pwritev2: IovAt2Fn(fd, iov, cnt, off, flags),
        do_pwritev2(fd, iov, cnt, off, flags)
    )
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
    ffi_guard!(
        -1,
        pwritev64v2: IovAt2Fn(fd, iov, cnt, off, flags),
        do_pwritev2(fd, iov, cnt, off, flags)
    )
}

unsafe fn do_lseek(fd: c_int, offset: OffT, whence: c_int) -> OffT {
    match lookup(fd) {
        None => {
            let f = real!(lseek, LseekFn);
            f(fd, offset, whence)
        }
        Some(st) => {
            // SEEK_END needs the logical PLFS size; SET/CUR are the
            // cursor's slot alone, no syscall (the paper lseek'd the
            // reserved fd).
            let target = match whence {
                SEEK_SET => offset,
                SEEK_CUR => st.cursor.get() + offset,
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
            st.cursor.set(target);
            target
        }
    }
}

/// `lseek(2)`.
#[no_mangle]
pub unsafe extern "C" fn lseek(fd: c_int, offset: OffT, whence: c_int) -> OffT {
    ffi_guard!(-1, lseek: LseekFn(fd, offset, whence), do_lseek(fd, offset, whence))
}

/// `lseek64(2)`.
#[no_mangle]
pub unsafe extern "C" fn lseek64(fd: c_int, offset: OffT, whence: c_int) -> OffT {
    ffi_guard!(-1, lseek64: LseekFn(fd, offset, whence), do_lseek(fd, offset, whence))
}

unsafe fn do_close(fd: c_int) -> c_int {
    let real_close = real!(close, FdFn);
    let Some(sh) = shim() else {
        return real_close(fd);
    };
    if root_at(sh, fd).is_some() {
        // Not the application's to close: as if it never was open.
        set_errno(EBADF);
        return -1;
    }
    forget_template(fd);
    let state = sh.mutate(|t| t.remove(&fd));
    // Both halves are released whatever the other does; the first error is
    // reported (a failed index or meta flush at close is lost data).
    let plfs_res = state.map(|st| release(&st));
    let ret = real_close(fd);
    if let Some(Err(e)) = plfs_res {
        set_errno(plfs_errno(&e));
        return -1;
    }
    ret
}

/// The PLFS half of closing one fd of `st`, after it left the table: one
/// PLFS reference per fd, so a dup keeps the open alive. An open inherited
/// across a `fork` and not used since is let go without a PLFS call: its
/// state is the parent's, and a child closing descriptors before `exec`
/// takes no PLFS lock.
fn release(st: &OpenState) -> plfs::Result<u32> {
    if !st.ours() {
        // Never dropped here: its copies of the parent's writers would
        // write the parent's buffered records.
        std::mem::forget(Arc::clone(&st.plfs_fd));
        return Ok(0);
    }
    inside_plfs(|| st.plfs_fd.close(pid()))
}

/// `close(2)`.
#[no_mangle]
pub unsafe extern "C" fn close(fd: c_int) -> c_int {
    ffi_guard!(-1, close: FdFn(fd), do_close(fd))
}

/// What [`do_close`] does before its real close, for every fd in `lo..=hi`
/// at once, before a call that frees those numbers: the template forgotten
/// if its number is among them, and every registered fd released. The
/// errno of the first failed release, if any.
fn release_range(lo: c_int, hi: c_int) -> Option<c_int> {
    let sh = shim()?;
    // relaxed: see reserve_fd
    let t = TEMPLATE.load(Ordering::Relaxed);
    if (lo..=hi).contains(&t) {
        forget_template(t);
    }
    let mut released = Vec::new();
    sh.mutate(|t| {
        t.retain(|fd, st| {
            let keep = !(lo..=hi).contains(fd);
            if !keep {
                released.push(Arc::clone(st));
            }
            keep
        })
    });
    released
        .iter()
        .filter_map(|st| release(st).err())
        .fold(None, |first, e| first.or(Some(e.errno())))
}

/// The one `close_range(2)` flag with which it still closes: unshare the
/// fd table first.
const CLOSE_RANGE_UNSHARE: c_int = 2;

unsafe fn do_close_range(first: c_uint, last: c_uint, flags: c_int) -> c_int {
    let real_close_range = real!(close_range, CloseRangeFn);
    // A call that closes nothing — `CLOSE_RANGE_CLOEXEC` only marks the
    // range; the kernel refuses an unknown flag or `first > last` — is
    // forwarded without bookkeeping.
    if flags & !CLOSE_RANGE_UNSHARE != 0 || first > last {
        return real_close_range(first, last, flags);
    }
    let fd_of = |n: c_uint| n.min(c_int::MAX as c_uint) as c_int;
    let failed = release_range(fd_of(first), fd_of(last));
    let ret = close_around_root(first, last, |lo, hi| real_close_range(lo, hi, flags));
    match failed {
        Some(e) if ret == 0 => {
            set_errno(e);
            -1
        }
        _ => ret,
    }
}

/// `close` each run of `first..=last` on either side of the backing root,
/// in order, stopping at the first that fails: its return, with its errno.
fn close_around_root(
    first: c_uint,
    last: c_uint,
    mut close: impl FnMut(c_uint, c_uint) -> c_int,
) -> c_int {
    let root = shim()
        .map(|sh| sh.root.root_fd() as c_uint)
        .filter(|r| (first..=last).contains(r));
    let Some(root) = root else {
        return close(first, last);
    };
    if first < root {
        let ret = close(first, root - 1);
        if ret != 0 {
            return ret;
        }
    }
    // A root is a file descriptor, so at most `c_int::MAX`.
    if root < last {
        close(root + 1, last)
    } else {
        0
    }
}

/// `close_range(2)`: every registered fd in the range is closed as `close`
/// would close it.
#[no_mangle]
pub unsafe extern "C" fn close_range(first: c_uint, last: c_uint, flags: c_int) -> c_int {
    ffi_guard!(
        -1,
        close_range: CloseRangeFn(first, last, flags),
        do_close_range(first, last, flags)
    )
}

// plfs-lint: allow(errno-discipline, "closefrom(3) returns nothing and reports no failure")
unsafe fn do_closefrom(lowfd: c_int) {
    let real_closefrom = real!(closefrom, CloseFromFn);
    let real_close_range = real!(close_range, CloseRangeFn);
    let lowfd = lowfd.max(0);
    let _ = release_range(lowfd, c_int::MAX);
    let _ = close_around_root(lowfd as c_uint, c_uint::MAX, |lo, hi| {
        if hi == c_uint::MAX {
            real_closefrom(lo as c_int);
            0
        } else {
            real_close_range(lo, hi, 0)
        }
    });
}

/// `closefrom(3)`: every registered fd from `lowfd` up is closed as
/// `close` would close it.
#[no_mangle]
pub unsafe extern "C" fn closefrom(lowfd: c_int) {
    ffi_guard!((), closefrom: CloseFromFn(lowfd), do_closefrom(lowfd))
}

/// `fsync`/`fdatasync`: containers have no metadata/data distinction the
/// shim could exploit, so both flush the same (strictly stronger
/// durability for `fdatasync`); any other fd gets the call it made.
unsafe fn do_fsync(fd: c_int, data_only: bool) -> c_int {
    match lookup(fd) {
        None if data_only => real!(fdatasync, FdFn)(fd),
        None => real!(fsync, FdFn)(fd),
        Some(st) => match st.plfs_fd.sync(pid()) {
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
    ffi_guard!(-1, fsync: FdFn(fd), do_fsync(fd, false))
}

/// `fdatasync(2)`.
#[no_mangle]
pub unsafe extern "C" fn fdatasync(fd: c_int) -> c_int {
    ffi_guard!(-1, fdatasync: FdFn(fd), do_fsync(fd, true))
}

unsafe fn do_dup(fd: c_int) -> c_int {
    let real_dup = real!(dup, FdFn);
    let new = real_dup(fd);
    if new >= 0 {
        dup_bookkeeping(fd, new);
    }
    new
}

/// `dup(2)`.
#[no_mangle]
pub unsafe extern "C" fn dup(fd: c_int) -> c_int {
    ffi_guard!(-1, dup: FdFn(fd), do_dup(fd))
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
    forget_template(newfd);
    let _in_plfs = InPlfs::enter();
    let (displaced, old_state) = sh.mutate(|t| (t.remove(&newfd), t.get(&oldfd).cloned()));
    if let Some(st) = displaced {
        // Outside the table lock: releasing the open closes its droppings
        // through the interposed `close`, which takes that lock.
        // dup2(2): errors of the implied close are not reported.
        let _ = release(&st);
    }
    if let Some(st) = old_state {
        st.adopt();
        st.plfs_fd.add_ref(pid());
        sh.mutate(|t| t.insert(newfd, st));
    }
}

unsafe fn do_dup2(oldfd: c_int, newfd: c_int) -> c_int {
    let real_dup2 = real!(dup2, Dup2Fn);
    dup_onto(oldfd, newfd, || real_dup2(oldfd, newfd))
}

/// The backing, if its root descriptor is `fd`.
fn root_at(sh: &Shim, fd: c_int) -> Option<&RealBacking> {
    Some(sh.root.as_ref()).filter(|r| r.root_fd() == fd)
}

/// `dup2`/`dup3` of `oldfd` onto `newfd` by `dup`, and its bookkeeping. A
/// backing root at `newfd` is first moved to a new number, once no PLFS op
/// is using it ([`RealBacking::renumber_root`]): the call then takes over
/// a number no op resolves against any more. The move is made inside
/// PLFS, so its `fcntl` is not taken for the application's.
unsafe fn dup_onto(oldfd: c_int, newfd: c_int, dup: impl FnOnce() -> c_int) -> c_int {
    let moved = match shim().and_then(|sh| root_at(sh, newfd)) {
        Some(root) if oldfd != newfd => match inside_plfs(|| root.renumber_root()) {
            Ok(old) => Some(old),
            Err(e) => {
                set_errno(e.raw_os_error().unwrap_or(EIO));
                return -1;
            }
        },
        _ => None,
    };
    let ret = dup();
    if ret >= 0 {
        dup_bookkeeping(oldfd, newfd);
    } else if let Some(old) = moved {
        // The root's old number is still open and nobody's: let it go.
        let e = errno();
        let _ = real!(close, FdFn)(old);
        set_errno(e);
    }
    ret
}

/// `dup2(2)` — needed for shell redirection bookkeeping.
#[no_mangle]
pub unsafe extern "C" fn dup2(oldfd: c_int, newfd: c_int) -> c_int {
    ffi_guard!(-1, dup2: Dup2Fn(oldfd, newfd), do_dup2(oldfd, newfd))
}

unsafe fn do_dup3(oldfd: c_int, newfd: c_int, flags: c_int) -> c_int {
    // The real call enforces dup3's contract (EINVAL on oldfd == newfd,
    // atomic O_CLOEXEC); the shim only mirrors the fd-table transfer.
    let real_dup3 = real!(dup3, Dup3Fn);
    dup_onto(oldfd, newfd, || real_dup3(oldfd, newfd, flags))
}

/// `dup3(2)` — the O_CLOEXEC-capable dup2, used by modern shells.
#[no_mangle]
pub unsafe extern "C" fn dup3(oldfd: c_int, newfd: c_int, flags: c_int) -> c_int {
    ffi_guard!(-1, dup3: Dup3Fn(oldfd, newfd, flags), do_dup3(oldfd, newfd, flags))
}

/// `fcntl`'s duplicating commands get `dup`'s bookkeeping (the new fd names
/// the same open; without it, reads through it saw EOF and writes vanished
/// into the reserved fd); every other command is forwarded untouched.
unsafe fn do_fcntl(fd: c_int, cmd: c_int, arg: usize) -> c_int {
    let real_fcntl = real!(fcntl, FcntlFn);
    let ret = real_fcntl(fd, cmd, arg);
    if ret >= 0 && (cmd == F_DUPFD || cmd == F_DUPFD_CLOEXEC) {
        dup_bookkeeping(fd, ret);
    }
    ret
}

/// `fcntl(2)`: C-variadic; every command's argument is an `int`, a `long`
/// or a pointer, one integer register on x86_64.
#[no_mangle]
pub unsafe extern "C" fn fcntl(fd: c_int, cmd: c_int, arg: usize) -> c_int {
    ffi_guard!(-1, fcntl: FcntlFn(fd, cmd, arg), do_fcntl(fd, cmd, arg))
}

/// `fcntl64(2)` (LFS alias).
#[no_mangle]
pub unsafe extern "C" fn fcntl64(fd: c_int, cmd: c_int, arg: usize) -> c_int {
    ffi_guard!(-1, fcntl64: FcntlFn(fd, cmd, arg), do_fcntl(fd, cmd, arg))
}

/// The memfd a read-only map of `st` maps: made and filled with the
/// container's logical bytes by the first map, once per open (`dup`'d fds
/// share it). The reserved fd stays empty.
unsafe fn map_fd(st: &OpenState) -> Result<c_int, c_int> {
    let real_pwrite = real!(pwrite, PwriteFn);
    let mut map = st.map.lock();
    if let Some(fd) = *map {
        return Ok(fd);
    }
    let fd = new_memfd(b"ldplfs-map\0");
    if fd < 0 {
        return Err(errno());
    }
    let mut buf = vec![0u8; 1 << 20];
    let mut off = 0usize;
    let filled = loop {
        // plfs-lint: allow(lock-across-io, "intentional: `map` is this fill's once-latch; a second mapper must wait for the bytes, not map a half-filled memfd")
        let n = match st.plfs_fd.read(&mut buf, off as u64) {
            Ok(0) => break Ok(()),
            Ok(n) => n,
            Err(e) => break Err(e.errno()),
        };
        let mut done = 0usize;
        while done < n {
            let src = buf.as_ptr().add(done) as *const c_void;
            let w = real_pwrite(fd, src, n - done, (off + done) as OffT);
            if w <= 0 {
                // A short write (ENOSPC/ENOMEM) must not pass for the file.
                break;
            }
            done += w as usize;
        }
        if done < n {
            break Err(ENOMEM);
        }
        off += n;
    };
    if let Err(e) = filled {
        let _ = real!(close, FdFn)(fd);
        return Err(e);
    }
    *map = Some(fd);
    Ok(fd)
}

unsafe fn do_mmap(
    addr: *mut c_void,
    len: SizeT,
    prot: c_int,
    flags: c_int,
    fd: c_int,
    off: OffT,
) -> *mut c_void {
    let f = real!(mmap, MmapFn);
    let Some(st) = lookup(fd) else {
        return f(addr, len, prot, flags, fd, off);
    };
    // Stores through a map would land in a memfd, unseen by PLFS.
    if st.plfs_fd.flags().writable() {
        set_errno(ENODEV);
        return MAP_FAILED;
    }
    match map_fd(&st) {
        Ok(map) => f(addr, len, prot, flags, map, off),
        Err(e) => {
            set_errno(e);
            MAP_FAILED
        }
    }
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
    ffi_guard!(
        MAP_FAILED,
        mmap: MmapFn(addr, len, prot, flags, fd, off),
        do_mmap(addr, len, prot, flags, fd, off)
    )
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
    ffi_guard!(
        MAP_FAILED,
        mmap64: MmapFn(addr, len, prot, flags, fd, off),
        do_mmap(addr, len, prot, flags, fd, off)
    )
}

/// The in-kernel byte movers would copy from or into the reserved fd (`cp`
/// inside the mount "succeeded" with an empty destination). When either end
/// is the shim's they fail with the documented errno every caller follows
/// with a read/write loop. Inside PLFS no fd is the shim's.
unsafe fn either_owned(a: c_int, b: c_int) -> bool {
    !in_plfs() && (lookup(a).is_some() || lookup(b).is_some())
}

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
    let f = real!(sendfile, SendfileFn);
    if either_owned(out_fd, in_fd) {
        set_errno(EINVAL);
        return -1;
    }
    f(out_fd, in_fd, off, count)
}

/// `sendfile(2)` — `EINVAL` on a shim fd.
#[no_mangle]
pub unsafe extern "C" fn sendfile(o: c_int, i: c_int, off: *mut OffT, count: SizeT) -> SsizeT {
    ffi_guard!(-1, sendfile: SendfileFn(o, i, off, count), do_sendfile(o, i, off, count))
}

/// `sendfile64(2)`.
#[no_mangle]
pub unsafe extern "C" fn sendfile64(o: c_int, i: c_int, off: *mut OffT, count: SizeT) -> SsizeT {
    ffi_guard!(-1, sendfile64: SendfileFn(o, i, off, count), do_sendfile(o, i, off, count))
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
    let real_stat = real!(stat, StatFn);
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
    match inside_plfs(|| sh.plfs.getattr(rel)) {
        Ok(st) => {
            fill_stat(out, st.size, st.is_dir, fake_ino(rel));
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
    ffi_guard!(-1, stat: StatFn(path, out), do_stat(path, out))
}

/// `stat64(2)`.
#[no_mangle]
pub unsafe extern "C" fn stat64(path: *const c_char, out: *mut CStat) -> c_int {
    ffi_guard!(-1, stat64: StatFn(path, out), do_stat(path, out))
}

unsafe fn do_lstat(path: *const c_char, out: *mut CStat) -> c_int {
    let real_lstat = real!(lstat, StatFn);
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
    ffi_guard!(-1, lstat: StatFn(path, out), do_lstat(path, out))
}

/// `lstat64(2)`.
#[no_mangle]
pub unsafe extern "C" fn lstat64(path: *const c_char, out: *mut CStat) -> c_int {
    ffi_guard!(-1, lstat64: StatFn(path, out), do_lstat(path, out))
}

unsafe fn do_fstat(fd: c_int, out: *mut CStat) -> c_int {
    match lookup(fd) {
        None => {
            let f = real!(fstat, FstatFn);
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
    ffi_guard!(-1, fstat: FstatFn(fd, out), do_fstat(fd, out))
}

/// `fstat64(2)`.
#[no_mangle]
pub unsafe extern "C" fn fstat64(fd: c_int, out: *mut CStat) -> c_int {
    ffi_guard!(-1, fstat64: FstatFn(fd, out), do_fstat(fd, out))
}

unsafe fn do_fstatat(dirfd: c_int, path: *const c_char, out: *mut CStat, flags: c_int) -> c_int {
    // Resolve the next-in-chain symbol before the logical-path probe: the
    // probe allocates (logical returns an owned String), which is off the
    // table while this symbol is still unresolved.
    let f = real!(fstatat, FstatatFn);
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
    ffi_guard!(-1, fstatat: FstatatFn(dirfd, path, out, flags), do_fstatat(dirfd, path, out, flags))
}

/// `newfstatat` (the syscall-name alias some libcs export).
#[no_mangle]
pub unsafe extern "C" fn newfstatat(
    dirfd: c_int,
    path: *const c_char,
    out: *mut CStat,
    flags: c_int,
) -> c_int {
    // glibc exports no `newfstatat`; `fstatat` is the call it spells.
    ffi_guard!(-1, fstatat: FstatatFn(dirfd, path, out, flags), do_fstatat(dirfd, path, out, flags))
}

unsafe fn do_unlink(path: *const c_char) -> c_int {
    let real_unlink = real!(unlink, PathFn);
    let Some(sh) = shim() else {
        return real_unlink(path);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        None => real_unlink(path),
        Some(rel) => match inside_plfs(|| sh.plfs.unlink(rel)) {
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
    ffi_guard!(-1, unlink: PathFn(path), do_unlink(path))
}

const AT_REMOVEDIR: c_int = 0x200;

unsafe fn do_unlinkat(dirfd: c_int, path: *const c_char, flags: c_int) -> c_int {
    let f = real!(unlinkat, UnlinkatFn);
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
    ffi_guard!(-1, unlinkat: UnlinkatFn(dirfd, path, flags), do_unlinkat(dirfd, path, flags))
}

unsafe fn do_access(path: *const c_char, amode: c_int) -> c_int {
    let real_access = real!(access, AccessFn);
    let Some(sh) = shim() else {
        return real_access(path, amode);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        None => real_access(path, amode),
        Some(rel) => {
            if rel == "/" {
                return 0;
            }
            match inside_plfs(|| sh.plfs.access(rel)) {
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
    ffi_guard!(-1, access: AccessFn(path, amode), do_access(path, amode))
}

unsafe fn do_mkdir(path: *const c_char, mode: ModeT) -> c_int {
    let real_mkdir = real!(mkdir, PathModeFn);
    let Some(sh) = shim() else {
        return real_mkdir(path, mode);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        None => real_mkdir(path, mode),
        Some(rel) => match inside_plfs(|| sh.plfs.mkdir(rel)) {
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
    ffi_guard!(-1, mkdir: PathModeFn(path, mode), do_mkdir(path, mode))
}

unsafe fn do_rmdir(path: *const c_char) -> c_int {
    let real_rmdir = real!(rmdir, PathFn);
    let Some(sh) = shim() else {
        return real_rmdir(path);
    };
    match cstr(path).and_then(|p| logical(sh, p)) {
        None => real_rmdir(path),
        Some(rel) => match inside_plfs(|| sh.plfs.rmdir(rel)) {
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
    ffi_guard!(-1, rmdir: PathFn(path), do_rmdir(path))
}

unsafe fn do_ftruncate(fd: c_int, len: OffT) -> c_int {
    match shim().zip(lookup(fd)) {
        None => {
            let f = real!(ftruncate, FtruncateFn);
            f(fd, len)
        }
        Some((sh, st)) => {
            if len < 0 {
                set_errno(EINVAL);
                return -1;
            }
            // Quiesce, then rewrite via the container truncate path.
            if st.plfs_fd.reset_writers().is_err() {
                set_errno(EBADF);
                return -1;
            }
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
    let real_truncate = real!(truncate, TruncateFn);
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
            match inside_plfs(|| sh.plfs.trunc(rel, len as u64)) {
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
    ffi_guard!(-1, truncate: TruncateFn(path, len), do_truncate(path, len))
}

/// `truncate64(2)` — the LFS twin.
#[no_mangle]
pub unsafe extern "C" fn truncate64(path: *const c_char, len: OffT) -> c_int {
    ffi_guard!(-1, truncate64: TruncateFn(path, len), do_truncate(path, len))
}

/// `ftruncate(2)`.
#[no_mangle]
pub unsafe extern "C" fn ftruncate(fd: c_int, len: OffT) -> c_int {
    ffi_guard!(-1, ftruncate: FtruncateFn(fd, len), do_ftruncate(fd, len))
}

/// `ftruncate64(2)`.
#[no_mangle]
pub unsafe extern "C" fn ftruncate64(fd: c_int, len: OffT) -> c_int {
    ffi_guard!(-1, ftruncate64: FtruncateFn(fd, len), do_ftruncate(fd, len))
}

// ---------------------------------------------------------------------------
// stdio entry points: glibc's fopen does NOT route through the exported
// `open` symbol and a FILE's reads never pass `read`, so a stream over the
// mount is a `fopencookie` stream whose callbacks are the shim's own
// read/write/seek/close on a registered fd (in the cookie). `fileno()` on one
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

/// Bytes of the buffer a stream over the mount reads through. glibc gives
/// a cookie stream `BUFSIZ` (8 KiB), there being no `st_blksize` to read,
/// and fills its buffer for every `fread` smaller than the buffer: a loop
/// of 32 KiB `fread`s (`md5sum`'s) made four 8 KiB container reads each,
/// where a flat stream reads each straight into the caller's buffer. An
/// `fread` at least this large is read straight into the caller's buffer
/// here too, as one container read, and leaves this buffer's pages
/// untouched; smaller ones share one container read per 32 KiB.
const STREAM_BUFFER: usize = 32 << 10;

/// A stream's cookie: the registered fd it reads, and the buffer the
/// stream reads through, the stream's until its close callback frees it.
struct Cookie {
    fd: c_int,
    buf: Box<[std::mem::MaybeUninit<u8>]>,
}

/// The fd of the stream whose cookie is `cookie`.
///
/// # Safety
/// `cookie` is one [`cookie_stream`] made and the close callback has not
/// freed.
unsafe fn cookie_fd(cookie: *mut c_void) -> c_int {
    (*(cookie as *const Cookie)).fd
}

unsafe extern "C" fn cookie_read(cookie: *mut c_void, buf: *mut c_char, n: SizeT) -> SsizeT {
    ffi_guard!(-1, do_read(cookie_fd(cookie), buf as *mut c_void, n))
}

/// A cookie write reports failure as 0, never a negative count.
unsafe extern "C" fn cookie_write(cookie: *mut c_void, buf: *const c_char, n: SizeT) -> SsizeT {
    ffi_guard!(
        0,
        do_write(cookie_fd(cookie), buf as *const c_void, n).max(0)
    )
}

unsafe extern "C" fn cookie_seek(cookie: *mut c_void, off: *mut OffT, whence: c_int) -> c_int {
    ffi_guard!(-1, {
        *off = do_lseek(cookie_fd(cookie), *off, whence);
        -c_int::from(*off < 0)
    })
}

/// glibc calls this once, last: it reads nothing of the buffer afterwards,
/// which it does not free either — it is the caller's (`setvbuf`).
unsafe extern "C" fn cookie_close(cookie: *mut c_void) -> c_int {
    // SAFETY: the cookie is the `Box` cookie_stream leaked, freed once here.
    let cookie = Box::from_raw(cookie as *mut Cookie);
    ffi_guard!(-1, do_close(cookie.fd))
}

/// A stream over registered `fd`, reading through a [`STREAM_BUFFER`];
/// on failure the fd stays the caller's.
unsafe fn cookie_stream(fd: c_int, mode: *const c_char) -> *mut c_void {
    let io = CookieIo {
        read: cookie_read,
        write: cookie_write,
        seek: cookie_seek,
        close: cookie_close,
    };
    let cookie = Box::into_raw(Box::new(Cookie {
        fd,
        buf: Box::new_uninit_slice(STREAM_BUFFER),
    }));
    let stream = fopencookie(cookie as *mut c_void, mode, io);
    if stream.is_null() {
        // SAFETY: no stream holds the cookie.
        drop(Box::from_raw(cookie));
        return stream;
    }
    // Before any I/O on the stream, as setvbuf requires. Failing, the
    // stream keeps glibc's own buffer, and the cookie this one.
    let buf = (*cookie).buf.as_mut_ptr() as *mut c_char;
    setvbuf(stream, buf, IOFBF, STREAM_BUFFER);
    stream
}

unsafe fn do_fopen(path: *const c_char, mode: *const c_char) -> *mut c_void {
    let real_fopen = real!(fopen, FopenFn);
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
    ffi_guard!(std::ptr::null_mut(), fopen: FopenFn(path, mode), do_fopen(path, mode))
}

/// `fopen64(3)`.
#[no_mangle]
pub unsafe extern "C" fn fopen64(path: *const c_char, mode: *const c_char) -> *mut c_void {
    ffi_guard!(std::ptr::null_mut(), fopen64: FopenFn(path, mode), do_fopen(path, mode))
}

unsafe fn do_fdopen(fd: c_int, mode: *const c_char) -> *mut c_void {
    let f = real!(fdopen, FdopenFn);
    if lookup(fd).is_some() {
        return cookie_stream(fd, mode);
    }
    f(fd, mode)
}

/// `fdopen(3)` — a real stream would read the (empty) reserved fd.
#[no_mangle]
pub unsafe extern "C" fn fdopen(fd: c_int, mode: *const c_char) -> *mut c_void {
    ffi_guard!(std::ptr::null_mut(), fdopen: FdopenFn(fd, mode), do_fdopen(fd, mode))
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
    let real_statx = real!(statx, StatxFn);
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
    match inside_plfs(|| sh.plfs.getattr(rel)) {
        Ok(st) => {
            fill_statx(out, st.size, st.is_dir, fake_ino(rel));
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
    ffi_guard!(
        -1,
        statx: StatxFn(dirfd, path, flags, mask, out),
        do_statx(dirfd, path, flags, mask, out)
    )
}

/// How many fds the shim currently tracks (exposed for the smoke test).
pub fn tracked_fds() -> usize {
    shim().map(|s| s.table().read().len()).unwrap_or(0)
}
