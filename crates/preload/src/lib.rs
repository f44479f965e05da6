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
//! The interposed symbols are the rows of one table, `interpose!`'s
//! invocation below: one row per alias family, with every spelling glibc
//! exports of it (`open64`, `__open_2`, `__read_chk`, …). Calls on paths
//! outside `LDPLFS_MOUNT` forward to the next definition of the same name
//! (`dlsym(RTLD_NEXT, …)`), exactly like the original; so do the calls PLFS
//! itself makes on its backing store, without even a lookup (the `InPlfs`
//! latch; DESIGN.md §13), which is also what lets the backend directory sit
//! under the mount.
//!
//! What a call on a container does — the fd table, the cursor, one body
//! per call — is `ldplfs::open`'s, the dispatcher `ldplfs::LdPlfs` runs
//! too. This crate is the C veneer around it: the table, which makes the
//! `extern "C"` symbols with their panic barrier, latch and passthrough (a
//! C pointer becomes a Rust slice only on a container call), and what only
//! a process-wide library has to give the dispatcher:
//!
//! * As in the paper, every PLFS open reserves a *genuine* kernel fd, so the
//!   application holds a descriptor number no other file can take. Unlike
//!   the paper, no state is kept through that fd: a call on a container
//!   makes no syscall the container does not need (DESIGN.md §13). The
//!   reserved fd is `fcntl(F_DUPFD)` — `F_DUPFD_CLOEXEC` when the open
//!   asked for `O_CLOEXEC` — of one process-private template memfd, made
//!   at the first open: one syscall and no new kernel file per open. (The
//!   paper opened `/dev/random`; the template is never a device node,
//!   because `fchmod`/`fchown` on a reserved fd reach the template.)
//! * The logical cursor is not the reserved fd's file offset moved by
//!   `lseek`, as in the paper, but an atomic in a slot of a
//!   `MAP_SHARED|MAP_ANONYMOUS` page. `dup`'d fds share one open and so one
//!   slot; a forked child shares the page: both share the cursor exactly as
//!   they shared the kernel's file offset.
//! * The pid an open writes under is read once, at the first open, and
//!   forgotten in the child of a `fork`.
//!
//! Each backend directory is opened once, at the first call, and every
//! PLFS op resolves its path against that descriptor (so a relative
//! `LDPLFS_BACKEND` is fixed then). The shim guards those descriptors from
//! the application as it guards the template: `close` of one is `EBADF`,
//! `close_range`/`closefrom` close around them, and `dup2`/`dup3` onto one
//! move it to a new number first (DESIGN.md §11).
//!
//! `fork` (`pthread_atfork`): the parent first writes every open's writer's
//! buffered index records, so the child reads every byte written before
//! the fork. The child's handler waits on no lock — it forgets the pid,
//! counts the fork, moves the fd table to a fresh lock if a parent thread
//! was reading it, and takes cursor slots from a page of its own from then
//! on; a slot live at the fork is never handed out again on either side.
//! Each inherited open is adopted at the child's first call on it: it
//! becomes the child's, its copy of the parent's writer is dropped without
//! writing a record, and it writes through droppings of
//! its own; one the child closes unused is let go without a PLFS call. A
//! child that moves and closes descriptors and `exec`s runs no PLFS code
//! at all. A child's writes reach the container when it closes the
//! descriptor: like any process, one that exits without `close` loses its
//! unwritten index records.
//!
//! Every open, read-only ones included, is registered the same way: the
//! reserved fd holds *no data* and reads are served by PLFS straight into
//! the caller's buffer. For I/O that passes no interposed symbol: stdio
//! streams over the mount are `fopencookie` streams on the shim's own
//! read/seek/close, whose large `fread`s the shim reads straight into the
//! caller's buffer and whose `fileno()` is the registered fd; `mmap` of a
//! read-only fd fills a memfd of its own with the container's bytes once,
//! on demand, and maps that (a writable fd fails `ENODEV`);
//! `copy_file_range` moves the bytes between the other end and the data
//! droppings in the kernel, and `sendfile`/`splice` answer `EINVAL`. See
//! DESIGN.md.
//!
//! Configuration is the environment alone, and it says only where the
//! mount is: `LDPLFS_MOUNT` and `LDPLFS_BACKEND`, both required
//! (`plfs::conf::SHIM_ENV`); every tuning value is a constant. An
//! `LDPLFS_*` name nothing reads is reported in one stderr line at init,
//! and so is a mount that is set but cannot start (a required variable
//! missing, a mount point of `/`, a backend that cannot be opened): the
//! process then runs with no PLFS mount.
//!
//! Known limitation (shared with the original): descriptors inherited
//! *across `execve`* lose their PLFS identity, so shell output redirection
//! `> /mount/file` feeding an exec'd child is not supported; tools that
//! open their own outputs (`cp`, applications) work.

#![allow(clippy::missing_safety_doc)]

use ldplfs::open::{At, Cursor, Dispatcher, Open, ShimMount};
use ldplfs::{Errno, OpenFlags, PosixResult, PosixStat, Whence};
use parking_lot::{Mutex, MutexGuard, RwLockWriteGuard};
use plfs::meta::Fnv;
use plfs::{Plfs, PlfsFd, RealBacking};
use std::cell::{Cell, RefCell};
use std::ffi::CStr;
use std::hash::Hasher;
use std::ops::Deref;
use std::os::raw::{c_char, c_int, c_uint, c_void};
use std::sync::atomic::{AtomicI32, AtomicU64, AtomicUsize, Ordering};
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
const AT_REMOVEDIR: c_int = 0x200;
const AT_EMPTY_PATH: c_int = 0x1000;

const O_RDONLY: c_int = 0;
const O_WRONLY: c_int = 1;
const O_CREAT: c_int = 0o100;
const O_TRUNC: c_int = 0o1000;
const O_CLOEXEC: c_int = 0o2000000;
const O_TMPFILE: c_int = 0o20200000;

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
    fn flockfile(stream: *mut c_void);
    fn funlockfile(stream: *mut c_void);
}

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
/// nothing) and a torn open at worst fails subsequent calls with
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

/// The C surface, declared once: one row per alias family.
///
/// ```text
/// fn NAME | NAME…(PARAMS) -> RET = ERR [, chk_fail if CHECK];
///     [via CLASS] => |BIND| BODY;
/// ```
///
/// For each NAME of a row the table makes `next::NAME`, the next definition
/// of NAME in the loader's chain (`dlsym(RTLD_NEXT)`, resolved at its first
/// call), and the `#[no_mangle] extern "C"` symbol NAME, which
/// 1. calls `__chk_fail` if CHECK holds: a `_FORTIFY_SOURCE` spelling's
///    abort, made before anything else, as glibc makes it;
/// 2. goes straight to `next::NAME` while this thread is inside PLFS
///    ([`InPlfs`]): that is PLFS's own I/O on its backing store;
/// 3. behind the panic barrier ([`ffi_guard!`], failing with ERR) evaluates
///    CLASS, an `Option` — [`lookup`] of a fd, [`resolve`] of a path, … —
///    and hands the call to `next::NAME` if it is `None`, or runs BODY with
///    its value bound to BIND. A row without a CLASS always runs BODY, with
///    `next::NAME` bound to BIND.
///
/// A parameter written `...arg` is C-variadic in the next definition. A
/// line `!NAME | … = "why";` lists spellings libc exports that the shim
/// leaves alone on purpose. An alias is one more NAME in its row. plfs-lint
/// reads this table (its rows are the roots of `signal-safety`,
/// `errno-clobber` and `symbol-coverage`), and
/// `preload_e2e::every_glibc_spelling_of_a_row_is_interposed` asks the
/// loader for the `64`, `__NAME`, `_chk`, `_2` and old-stat spellings of
/// every name.
macro_rules! interpose {
    (
        $(
            fn $($name:ident)|+ ($($params:tt)*) -> $ret:ty = $err:expr $(, chk_fail if $chk:expr)?;
                $(via $class:expr)? => |$bind:pat_param| $body:expr;
        )*
        $(! $($skip:ident)|+ = $why:literal;)*
    ) => {
        /// The next definition of each interposed name in the loader's chain:
        /// the C function of that name, with its contract.
        pub(crate) mod next {
            use super::*;
            $(interpose!(@next [$($name)+] ($($params)*) $ret);)*
        }
        $(interpose!(
            @row [$($name)+] ($($params)*) $ret, $err, [$($chk)?] [$($class)?] $bind, $body
        );)*
    };
    (@next [$($name:ident)+] $params:tt $ret:ty) => {
        $(interpose!(@next $name $params $ret);)+
    };
    (@next $name:ident ($($arg:ident: $ty:ty),* $(, ...$va:ident: $vty:ty)?) $ret:ty) => {
        pub unsafe fn $name($($arg: $ty),* $(, $va: $vty)?) -> $ret {
            static ADDR: OnceLock<usize> = OnceLock::new();
            let addr = *ADDR.get_or_init(|| {
                let sym = concat!(stringify!($name), "\0");
                dlsym(RTLD_NEXT, sym.as_ptr() as *const c_char) as usize
            });
            debug_assert!(addr != 0, concat!("dlsym failed for ", stringify!($name)));
            let next: interpose!(@sig ($($ty),* $(; $vty)?) $ret) = std::mem::transmute(addr);
            next($($arg),* $(, $va)?)
        }
    };
    (@sig ($($ty:ty),*) $ret:ty) => {
        unsafe extern "C" fn($($ty),*) -> $ret
    };
    (@sig ($($ty:ty),*; $va:ty) $ret:ty) => {
        unsafe extern "C" fn($($ty,)* ...) -> $ret
    };
    (@row [$($name:ident)+] $params:tt $ret:ty, $err:expr,
        $chk:tt $class:tt $bind:pat_param, $body:expr) => {
        $(interpose!(@fn $name $params $ret, $err, $chk $class $bind, $body);)+
    };
    (@fn $name:ident ($($arg:ident: $ty:ty),* $(, ...$va:ident: $vty:ty)?) $ret:ty, $err:expr,
        [$($chk:expr)?] $class:tt $bind:pat_param, $body:expr) => {
        #[no_mangle]
        pub unsafe extern "C" fn $name($($arg: $ty),* $(, $va: $vty)?) -> $ret {
            $(if $chk {
                __chk_fail();
            })?
            if in_plfs() {
                return next::$name($($arg),* $(, $va)?);
            }
            ffi_guard!($err, interpose!(@arm $class $bind, $body, $name($($arg),* $(, $va)?)))
        }
    };
    (@arm [] $bind:pat_param, $body:expr, $name:ident $args:tt) => {{
        let $bind = next::$name;
        $body
    }};
    (@arm [$class:expr] $bind:pat_param, $body:expr, $name:ident ($($a:expr),*)) => {
        match $class {
            None => next::$name($($a),*),
            Some($bind) => $body,
        }
    };
}

// ---------------------------------------------------------------------------
// Shim state.
// ---------------------------------------------------------------------------

/// What the shim keeps with a PLFS open (the rest is [`Open`]'s): `dup`'d
/// fds share it, as they would share an ordinary file's open file
/// description.
struct Own {
    slot: Slot,
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

impl Cursor for Own {
    fn offset(&self) -> &AtomicU64 {
        self.slot.at
    }
}

impl Own {
    fn new(slot: Slot) -> Own {
        Own {
            slot,
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

    /// Adopt `plfs`, an open inherited across a `fork`, once, before
    /// anything else of this process uses it: it becomes this pid's and the
    /// parent's writer is dropped unwritten
    /// ([`PlfsFd::forked`]). Done at the child's first call on the open,
    /// not in the fork's child handler: a child that only `exec`s takes no
    /// PLFS lock, any of which another of its parent's threads may have
    /// held at the fork. Called inside PLFS only ([`InPlfs`]).
    // signal-safe: every caller is inside PLFS, so a handler's interposed call goes straight to libc and never waits on `adopting`
    fn adopt(&self, plfs: &PlfsFd) {
        if self.ours() {
            return;
        }
        let _one = self.adopting.lock();
        // relaxed: see ours
        let now = FORKS.load(Ordering::Relaxed);
        // relaxed: `adopting` orders this against the adopter that stored it
        if self.forks.load(Ordering::Relaxed) != now {
            plfs.forked(pid());
            // release: a thread that sees the count sees the adoption
            self.forks.store(now, Ordering::Release);
        }
    }
}

impl Drop for Own {
    fn drop(&mut self) {
        if let Some(fd) = *self.map.get_mut() {
            // A mapping holds its own reference to the file.
            // SAFETY: `fd` is this open's own memfd, closed once, here.
            let _ = unsafe { next::close(fd) };
        }
    }
}

struct Shim {
    /// The mount and the fd table: what every container call runs.
    opens: Dispatcher<Own>,
    /// The real backing under the mount. It holds its root directory's
    /// descriptor, which every PLFS op resolves its path against: the
    /// shim's own, like the template, guarded from the application
    /// ([`root_at`]).
    root: Arc<RealBacking>,
}

static SHIM: OnceLock<Option<Shim>> = OnceLock::new();

thread_local! {
    /// Set while this thread is inside PLFS: building the shim, or any call
    /// the shim makes into `Plfs`/`PlfsFd` (a cookie callback's included).
    /// PLFS's own I/O on its backing store reaches the interposed symbols
    /// again; each sends it straight to the next definition of its name.
    /// Without the latch a backend directory under the mount recursed until
    /// the stack ran out. A count of the [`InPlfs`] alive on the thread.
    static IN_PLFS: Cell<u32> = const { Cell::new(0) };
}

fn in_plfs() -> bool {
    IN_PLFS.get() > 0
}

/// This thread is inside PLFS while one of these lives. They are counted,
/// so those held together may be let go in any order: a call that holds
/// two (`copy_file_range` between two containers) once left the latch set
/// for good when they were let go in the order they were taken, and every
/// later call of the process bypassed the shim.
struct InPlfs(());

impl InPlfs {
    fn enter() -> InPlfs {
        IN_PLFS.set(IN_PLFS.get() + 1);
        InPlfs(())
    }
}

impl Drop for InPlfs {
    fn drop(&mut self) {
        IN_PLFS.set(IN_PLFS.get() - 1);
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

/// One line on the host's stderr, through the real `write(2)`: a
/// misconfiguration must be visible, but never through an interposed path.
fn warn(msg: &str) {
    let line = format!("ldplfs-preload: {msg}\n");
    // Best effort: a closed stderr must not stop the shim from starting.
    let _ = unsafe { next::write(2, line.as_ptr() as *const c_void, line.len()) };
}

fn init_shim() -> Option<Shim> {
    let mut configured = false;
    for (name, _) in std::env::vars_os() {
        let name = name.to_string_lossy();
        if name.starts_with("LDPLFS_") {
            configured = true;
            if !plfs::conf::known_env(&name) {
                warn(&format!("unknown variable {name} ignored"));
            }
        }
    }
    let (mount, root) = match mount_from_env() {
        Ok(found) => found,
        Err(cause) => {
            // A process that set no `LDPLFS_*` variable asked for no mount.
            if configured {
                warn(&format!("no PLFS mount: {cause}"));
            }
            return None;
        }
    };
    let plfs = Plfs::new(Arc::clone(&root) as Arc<dyn plfs::Backing>);
    // SAFETY: the handlers are `extern "C" fn()`s that never unwind.
    unsafe { pthread_atfork(before_fork, after_fork_in_parent, after_fork_in_child) };
    let mount = ShimMount {
        mount_point: mount,
        plfs,
    };
    Some(Shim {
        opens: Dispatcher::new(vec![mount]),
        root,
    })
}

/// The mount point and the backing root the environment names, or why
/// they cannot be used.
fn mount_from_env() -> Result<(String, Arc<RealBacking>), String> {
    use plfs::conf::{BACKEND_ENV, MOUNT_ENV};
    let var = |name: &str| std::env::var(name).map_err(|e| format!("{name}: {e}"));
    let given = var(MOUNT_ENV)?;
    let backend = var(BACKEND_ENV)?;
    let mount = given.trim_end_matches('/');
    if mount.is_empty() {
        return Err(format!("{MOUNT_ENV}={given:?} is not a mount point"));
    }
    let root = RealBacking::new(&backend).map_err(|e| format!("{BACKEND_ENV}={backend}: {e}"))?;
    Ok((mount.to_string(), Arc::new(root)))
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
                    // SAFETY: `made` is this call's own memfd, used by nothing.
                    let _ = unsafe { next::close(made) };
                    theirs
                }
            };
        }
        // SAFETY: F_DUPFD[_CLOEXEC] takes one int argument.
        let fd = unsafe { next::fcntl(t, cmd, 0) };
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
struct Slot {
    at: &'static AtomicU64,
    epoch: u64,
}

impl Slot {
    /// A fresh slot at offset 0; `None` if no page could be mapped.
    fn take() -> Option<Slot> {
        let mut slots = SLOTS.lock();
        let addr = match slots.free.pop() {
            Some(addr) => addr,
            None => {
                if slots.page == 0 || slots.used == SLOTS_PER_PAGE {
                    let prot = PROT_READ | PROT_WRITE;
                    let flags = MAP_SHARED | MAP_ANONYMOUS;
                    // SAFETY: a fresh anonymous mapping; no memory of ours
                    // is named by the arguments.
                    let page =
                        unsafe { next::mmap(std::ptr::null_mut(), 4096, prot, flags, NO_FD, 0) };
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
        Some(Slot {
            at,
            epoch: slots.epoch,
        })
    }
}

impl Drop for Slot {
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
    Option<MutexGuard<'static, ()>>,
    MutexGuard<'static, Slots>,
    MutexGuard<'static, Vec<(usize, c_int)>>,
    Option<RwLockWriteGuard<'static, ()>>,
);

thread_local! {
    /// The fd table's [`Dispatcher::hold`], [`SLOTS`], [`STREAMS`] and the
    /// backing root's [`RealBacking::pause`], held by the forking thread
    /// from `pthread_atfork`'s prepare handler to its parent or child
    /// handler: neither side's copy of the fd table, the slot allocator or
    /// the stream list can be caught half changed (the child's first
    /// `fread` would wait on a lock no thread of it holds), nor a root's
    /// lock caught held by an op in flight.
    static HELD_AT_FORK: RefCell<Option<HeldAtFork>> = const { RefCell::new(None) };
}

/// `pthread_atfork` prepare: write the buffered index records of every
/// writer this process owns (the child drops its copies of them), then
/// hold [`HELD_AT_FORK`]'s locks across the fork.
// plfs-lint: allow(ffi-barrier, "pthread_atfork handler returns (); has its own catch_unwind, errno is meaningless here")
extern "C" fn before_fork() {
    let _ = std::panic::catch_unwind(|| {
        let sh = SHIM.get().and_then(Option::as_ref);
        if let Some(sh) = sh {
            let _in_plfs = InPlfs::enter();
            // An open inherited and not adopted holds its parent's writer,
            // whose records are not this process's to write.
            for st in sh.opens.opens().iter().filter(|st| st.own.ours()) {
                // Best effort: a failed flush leaves the child unable to
                // read those bytes, never other bytes.
                let _ = st.plfs().flush_index();
            }
        }
        let held = (
            sh.map(|sh| sh.opens.hold()),
            SLOTS.lock(),
            STREAMS.lock(),
            sh.map(|sh| sh.root.pause()),
        );
        HELD_AT_FORK.with(|h| *h.borrow_mut() = Some(held));
    });
}

/// Let go of what [`before_fork`] held, on either side, ending the slot
/// allocator's epoch: slots live at the fork are never reused.
fn release_at_fork(child: bool) {
    HELD_AT_FORK.with(|h| {
        if let Some((_one, mut slots, _streams, _root)) = h.borrow_mut().take() {
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
/// inherited open is adopted at its first use ([`Own::adopt`]); the
/// fd table on a lock of its own if need be; slots from pages of its own.
/// Waits on no lock and makes no PLFS call: a child that only `exec`s
/// runs no PLFS code.
// plfs-lint: allow(ffi-barrier, "pthread_atfork handler returns (); has its own catch_unwind, errno is meaningless here")
extern "C" fn after_fork_in_child() {
    let _ = std::panic::catch_unwind(|| {
        PID.store(0, Ordering::Relaxed); // relaxed: this thread is the child's only one
        FORKS.fetch_add(1, Ordering::Relaxed); // relaxed: as above
        if let Some(Some(sh)) = SHIM.get() {
            sh.opens.renew();
        }
        release_at_fork(true);
    });
}

// ---------------------------------------------------------------------------
// The classes a row routes by: what in its arguments makes a call the
// shim's. `None` sends the call to the next definition of its name.
// ---------------------------------------------------------------------------

/// A registered fd's open. This thread is inside PLFS while it lives:
/// everything done with one is a call into PLFS.
struct Registered {
    st: Arc<Open<Own>>,
    _in_plfs: InPlfs,
}

impl Deref for Registered {
    type Target = Open<Own>;

    fn deref(&self) -> &Open<Own> {
        &self.st
    }
}

/// The open registered for `fd`, adopted if it was inherited across a
/// `fork`.
fn lookup(fd: c_int) -> Option<Registered> {
    let st = shim()?.opens.get(fd)?;
    let _in_plfs = InPlfs::enter();
    st.own.adopt(st.plfs());
    Some(Registered { st, _in_plfs })
}

/// The shim, and where in the mount `path` is, if it is inside it.
///
/// # Safety
/// `path` is null or a NUL-terminated string that outlives `'a`.
unsafe fn resolve<'a>(path: *const c_char) -> Option<(&'static Shim, At<'a>)> {
    let sh = shim()?;
    Some((sh, sh.opens.resolve(cstr(path)?)?))
}

/// [`resolve`] for a `*at` call: a path relative to a directory fd other
/// than `AT_FDCWD` is not the shim's.
///
/// # Safety
/// As [`resolve`]'s.
unsafe fn resolve_at<'a>(dirfd: c_int, path: *const c_char) -> Option<(&'static Shim, At<'a>)> {
    let absolute = cstr(path).is_some_and(|p| p.starts_with('/'));
    if dirfd == AT_FDCWD || absolute {
        resolve(path)
    } else {
        None
    }
}

/// What a stat of a container names: an open of it, or a path to it.
enum Target<'a> {
    Open(Registered),
    Path(&'static Shim, At<'a>),
}

impl Target<'_> {
    /// The container's stat, and its fake inode.
    fn attrs(&self) -> PosixResult<(PosixStat, u64)> {
        match self {
            Target::Open(st) => st.fstat().map(|s| (s, fake_ino(st.path()))),
            Target::Path(sh, at) => inside_plfs(|| sh.opens.stat(*at)).map(|s| (s, fake_ino(at.1))),
        }
    }
}

/// A `*at` stat's target: with `AT_EMPTY_PATH` and an empty path, the open
/// at `dirfd` itself; otherwise what [`resolve_at`] finds.
///
/// # Safety
/// As [`resolve`]'s.
unsafe fn stat_at<'a>(dirfd: c_int, path: *const c_char, flags: c_int) -> Option<Target<'a>> {
    if flags & AT_EMPTY_PATH != 0 && (path.is_null() || *path == 0) {
        return lookup(dirfd).map(Target::Open);
    }
    resolve_at(dirfd, path).map(|(sh, at)| Target::Path(sh, at))
}

/// The ends of an in-kernel byte mover that are containers, if any is: the
/// kernel would move bytes from or into the (empty) reserved fd (`cp`
/// inside the mount once "succeeded" with an empty destination).
enum Ends {
    Src(Registered),
    Dst(Registered),
    Both,
}

fn mover_ends(src: c_int, dst: c_int) -> Option<Ends> {
    match (lookup(src), lookup(dst)) {
        (None, None) => None,
        (Some(src), None) => Some(Ends::Src(src)),
        (None, Some(dst)) => Some(Ends::Dst(dst)),
        (Some(_), Some(_)) => Some(Ends::Both),
    }
}

/// `Some` if either end of a mover the shim refuses is a container: it
/// fails with the documented errno every caller follows with a read/write
/// loop.
fn owned_pair(a: c_int, b: c_int) -> Option<()> {
    mover_ends(a, b).map(drop)
}

/// Whether `open` flags need a mode: the fortified `__open_2` family,
/// which takes none, aborts on them.
fn needs_mode(flags: c_int) -> bool {
    flags & O_CREAT != 0 || flags & O_TMPFILE == O_TMPFILE
}

/// A stream `mode` that only reads: stdio writes into the mount are not
/// supported (they fall through to the real `fopen`, which fails cleanly,
/// since the mount path does not exist on the real file system).
///
/// # Safety
/// `mode` is null or a NUL-terminated string.
unsafe fn read_only(mode: *const c_char) -> bool {
    cstr(mode).is_some_and(|m| m.starts_with('r') && !m.contains('+'))
}

// ---------------------------------------------------------------------------
// The table.
// ---------------------------------------------------------------------------

interpose! {
    // Opens. Flag values match plfs::OpenFlags on Linux.
    fn open | open64(path: *const c_char, flags: c_int, mode: ModeT) -> c_int = -1;
        via resolve(path) => |(sh, at)| open_in(sh, at, flags);
    fn creat | creat64(path: *const c_char, mode: ModeT) -> c_int = -1;
        via resolve(path) => |(sh, at)| open_in(sh, at, O_WRONLY | O_CREAT | O_TRUNC);
    fn openat | openat64(dirfd: c_int, path: *const c_char, flags: c_int, mode: ModeT)
        -> c_int = -1;
        via resolve_at(dirfd, path) => |(sh, at)| open_in(sh, at, flags);
    // `_FORTIFY_SOURCE`'s opens without a mode (`tar`, `install` and `perl`
    // call them): an open whose flags need one aborts, as in glibc.
    fn __open_2 | __open64_2(path: *const c_char, flags: c_int) -> c_int = -1,
        chk_fail if needs_mode(flags);
        via resolve(path) => |(sh, at)| open_in(sh, at, flags);
    fn __openat_2 | __openat64_2(dirfd: c_int, path: *const c_char, flags: c_int) -> c_int = -1,
        chk_fail if needs_mode(flags);
        via resolve_at(dirfd, path) => |(sh, at)| open_in(sh, at, flags);

    // Data. A `_chk` spelling is what `_FORTIFY_SOURCE` builds call: the
    // reserved fd holds no data, so a read that bypassed the shim saw EOF.
    fn read(fd: c_int, buf: *mut c_void, n: SizeT) -> SsizeT = -1;
        via lookup(fd) => |st| read_at(&st, buf, n, None);
    fn __read_chk(fd: c_int, buf: *mut c_void, n: SizeT, len: SizeT) -> SsizeT = -1,
        chk_fail if n > len;
        via lookup(fd) => |st| read_at(&st, buf, n, None);
    fn pread | pread64(fd: c_int, buf: *mut c_void, n: SizeT, off: OffT) -> SsizeT = -1;
        via lookup(fd) => |st| read_at(&st, buf, n, Some(off));
    fn __pread_chk | __pread64_chk(fd: c_int, buf: *mut c_void, n: SizeT, off: OffT, len: SizeT)
        -> SsizeT = -1, chk_fail if n > len;
        via lookup(fd) => |st| read_at(&st, buf, n, Some(off));
    fn write(fd: c_int, buf: *const c_void, n: SizeT) -> SsizeT = -1;
        via lookup(fd) => |st| write_at(&st, buf, n, None);
    fn pwrite | pwrite64(fd: c_int, buf: *const c_void, n: SizeT, off: OffT) -> SsizeT = -1;
        via lookup(fd) => |st| write_at(&st, buf, n, Some(off));
    // Vectored I/O: one PLFS list call, so N buffers cost one index record.
    // Offset -1 of the `v2` forms is the cursor; `RWF_*` flags are ignored.
    fn readv(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT = -1;
        via lookup(fd) => |st| read_vec(&st, iov, cnt, None);
    fn preadv | preadv64(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT = -1;
        via lookup(fd) => |st| read_vec(&st, iov, cnt, Some(off));
    fn preadv2 | preadv64v2(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT, flags: c_int)
        -> SsizeT = -1;
        via lookup(fd) => |st| read_vec(&st, iov, cnt, (off != -1).then_some(off));
    fn writev(fd: c_int, iov: *const IoVec, cnt: c_int) -> SsizeT = -1;
        via lookup(fd) => |st| write_vec(&st, iov, cnt, None);
    fn pwritev | pwritev64(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT) -> SsizeT = -1;
        via lookup(fd) => |st| write_vec(&st, iov, cnt, Some(off));
    fn pwritev2 | pwritev64v2(fd: c_int, iov: *const IoVec, cnt: c_int, off: OffT, flags: c_int)
        -> SsizeT = -1;
        via lookup(fd) => |st| write_vec(&st, iov, cnt, (off != -1).then_some(off));
    fn lseek | lseek64(fd: c_int, off: OffT, whence: c_int) -> OffT = -1;
        via lookup(fd) => |st| lseek_in(&st, off, whence);
    // A container has no metadata/data split to exploit: both flush all.
    fn fsync | fdatasync(fd: c_int) -> c_int = -1;
        via lookup(fd) => |st| status(st.fsync());
    fn ftruncate | ftruncate64(fd: c_int, len: OffT) -> c_int = -1;
        via shim().zip(lookup(fd)) => |(sh, st)| {
            status(unsigned(len).and_then(|len| sh.opens.ftruncate(&st, len)))
        };

    // Descriptors. `fcntl`'s duplicating commands are `dup`s (without the
    // bookkeeping, reads through the new fd saw EOF and writes vanished
    // into the reserved fd); every other command is the next definition's.
    fn close(fd: c_int) -> c_int = -1;
        => |_| close_fd(fd);
    fn close_range(first: c_uint, last: c_uint, flags: c_int) -> c_int = -1;
        => |_| close_fds(first, last, flags);
    fn closefrom(lowfd: c_int) -> () = ();
        => |_| close_from(lowfd);
    fn dup(fd: c_int) -> c_int = -1;
        => |next| duped(fd, next(fd));
    fn dup2(oldfd: c_int, newfd: c_int) -> c_int = -1;
        => |next| dup_onto(oldfd, newfd, || next(oldfd, newfd));
    fn dup3(oldfd: c_int, newfd: c_int, flags: c_int) -> c_int = -1;
        => |next| dup_onto(oldfd, newfd, || next(oldfd, newfd, flags));
    fn fcntl | fcntl64(fd: c_int, cmd: c_int, ...arg: usize) -> c_int = -1;
        => |next| match cmd {
            F_DUPFD | F_DUPFD_CLOEXEC => duped(fd, next(fd, cmd, arg)),
            _ => next(fd, cmd, arg),
        };

    // I/O the kernel would do on the (empty) reserved fd itself.
    fn mmap | mmap64(addr: *mut c_void, len: SizeT, prot: c_int, flags: c_int, fd: c_int, off: OffT)
        -> *mut c_void = MAP_FAILED;
        via lookup(fd) => |st| map_container(&st, addr, len, prot, flags, off);
    // The kernel moves the bytes between the other end and the data
    // droppings; two containers are `EXDEV`, and `cp` reads and writes.
    fn copy_file_range(
        src: c_int, off_src: *mut OffT, dst: c_int, off_dst: *mut OffT, len: SizeT, flags: c_uint
    ) -> SsizeT = -1;
        via mover_ends(src, dst) => |ends| copy_range(ends, src, off_src, dst, off_dst, len, flags);
    fn splice(
        src: c_int, off_src: *mut OffT, dst: c_int, off_dst: *mut OffT, len: SizeT, flags: c_uint
    ) -> SsizeT = -1;
        via owned_pair(src, dst) => |()| fail(EINVAL);
    fn sendfile | sendfile64(out: c_int, src: c_int, off: *mut OffT, n: SizeT) -> SsizeT = -1;
        via owned_pair(out, src) => |()| fail(EINVAL);

    // Metadata. Containers have no symlinks: `lstat` is `stat`.
    fn stat | stat64 | lstat | lstat64(path: *const c_char, out: *mut CStat) -> c_int = -1;
        via resolve(path) => |(sh, at)| fill_stat(out, Target::Path(sh, at));
    fn fstat | fstat64(fd: c_int, out: *mut CStat) -> c_int = -1;
        via lookup(fd) => |st| fill_stat(out, Target::Open(st));
    fn fstatat | fstatat64(dirfd: c_int, path: *const c_char, out: *mut CStat, flags: c_int)
        -> c_int = -1;
        via stat_at(dirfd, path, flags) => |t| fill_stat(out, t);
    fn statx(dirfd: c_int, path: *const c_char, flags: c_int, mask: c_uint, out: *mut CStatx)
        -> c_int = -1;
        via stat_at(dirfd, path, flags) => |t| fill_statx(out, t);
    // `euidaccess` is glibc's own call of `access` (`sort` checks its
    // inputs with it), which passes no interposed symbol.
    fn access | euidaccess | eaccess(path: *const c_char, amode: c_int) -> c_int = -1;
        via resolve(path) => |(sh, at)| status(inside_plfs(|| sh.opens.access(at)));
    fn faccessat(dirfd: c_int, path: *const c_char, amode: c_int, flags: c_int) -> c_int = -1;
        via resolve_at(dirfd, path) => |(sh, at)| status(inside_plfs(|| sh.opens.access(at)));
    fn unlink(path: *const c_char) -> c_int = -1;
        via resolve(path) => |(sh, at)| status(inside_plfs(|| sh.opens.unlink(at)));
    fn unlinkat(dirfd: c_int, path: *const c_char, flags: c_int) -> c_int = -1;
        via resolve_at(dirfd, path) => |(sh, at)| status(inside_plfs(|| match flags & AT_REMOVEDIR {
            0 => sh.opens.unlink(at),
            _ => sh.opens.rmdir(at),
        }));
    fn mkdir(path: *const c_char, mode: ModeT) -> c_int = -1;
        via resolve(path) => |(sh, at)| status(inside_plfs(|| sh.opens.mkdir(at)));
    fn rmdir(path: *const c_char) -> c_int = -1;
        via resolve(path) => |(sh, at)| status(inside_plfs(|| sh.opens.rmdir(at)));
    fn truncate | truncate64(path: *const c_char, len: OffT) -> c_int = -1;
        via resolve(path) => |(sh, at)| {
            status(unsigned(len).and_then(|len| inside_plfs(|| sh.opens.truncate(at, len))))
        };

    // stdio: glibc's `fopen` does not call the exported `open`, and a
    // FILE's reads never pass `read`. A large `fread` of a stream of the
    // shim's reads straight into the caller's buffer, as glibc's does on a
    // file; `fileno` of one is its registered fd.
    fn fopen | fopen64(path: *const c_char, mode: *const c_char)
        -> *mut c_void = std::ptr::null_mut();
        via resolve(path).filter(|_| read_only(mode)) => |(sh, at)| open_stream(sh, at, mode);
    fn fdopen(fd: c_int, mode: *const c_char) -> *mut c_void = std::ptr::null_mut();
        via lookup(fd) => |_| cookie_stream(fd, mode);
    fn fread | fread_unlocked(buf: *mut c_void, size: SizeT, n: SizeT, stream: *mut c_void)
        -> SizeT = 0;
        via stream_fd(stream) => |fd| fread_direct(buf, size, n, stream, fd);
    fn __fread_chk | __fread_unlocked_chk(
        buf: *mut c_void, len: SizeT, size: SizeT, n: SizeT, stream: *mut c_void
    ) -> SizeT = 0, chk_fail if size.checked_mul(n).is_none_or(|want| want > len);
        via stream_fd(stream) => |fd| fread_direct(buf, size, n, stream, fd);
    fn fileno | fileno_unlocked(stream: *mut c_void) -> c_int = -1;
        via stream_fd(stream) => |fd| fd;

    // fork: the `pthread_atfork` handlers do its part — the parent writes
    // its index buffers; the child, waiting on no lock, forgets the cached
    // pid, counts the fork, moves the fd table to a fresh lock if a parent
    // thread was reading it, takes cursor slots from a page of its own and
    // adopts each inherited open at its first call on it, while the
    // cursors, in MAP_SHARED pages, stay shared as kernel file offsets are.
    // vfork's child may only exec or _exit. exec* inheriting the shim is
    // environment policy, not interposition.
    !fork | vfork | execve = "the atfork handlers and the environment do their part";
    // The pre-2.33 stat ABI (`sqlite3` imports `__xstat64`, `__lxstat64`,
    // `__fxstat64`): a bypass on a container today, with the rest of the
    // unseen calls (ROADMAP items 5 and 6).
    !__xstat | __xstat64 | __lxstat | __lxstat64 | __fxstat | __fxstat64 | __fxstatat | __fxstatat64
        = "the old stat ABI, not interposed yet";
    // glibc's internal names for calls of the rows above, exported for
    // glibc's own libraries (`libc_malloc_debug` imports `__mmap`): no
    // header emits a call to them, so no program makes one.
    !__open | __open64 | __read | __write | __pread64 | __pwrite64 | __lseek | __close | __dup2
        | __fcntl | __mmap | __fstat64
        = "glibc-internal aliases, called by no program";
}

// ---------------------------------------------------------------------------
// The rows' bodies: what a call on a container does, as C returns it.
// ---------------------------------------------------------------------------

/// -1 with errno `e`.
fn fail<R: From<i8>>(e: c_int) -> R {
    set_errno(e);
    R::from(-1)
}

/// A container call's result as C returns it: `ok` of its value, or -1
/// with errno set.
fn ret<T, R: From<i8>>(r: PosixResult<T>, ok: impl FnOnce(T) -> R) -> R {
    match r {
        Ok(v) => ok(v),
        Err(Errno(e)) => fail(e),
    }
}

/// A byte count as `read(2)` returns it.
fn count(r: PosixResult<usize>) -> SsizeT {
    ret(r, |n| n as SsizeT)
}

/// 0, or -1 with errno set.
fn status(r: PosixResult<()>) -> c_int {
    ret(r, |()| 0)
}

/// A C offset or length as PLFS takes it: the kernel refuses a negative
/// one before anything else.
fn unsigned(off: OffT) -> PosixResult<u64> {
    u64::try_from(off).map_err(|_| Errno::EINVAL)
}

/// A C buffer as a slice; a zero-length one may be null.
///
/// # Safety
/// Unless `len` is 0, `buf` points to `len` readable bytes that outlive
/// `'a` and that nothing writes meanwhile.
unsafe fn bytes<'a>(buf: *const c_void, len: SizeT) -> &'a [u8] {
    match len {
        0 => &[],
        _ => std::slice::from_raw_parts(buf as *const u8, len),
    }
}

/// A C buffer as a mutable slice; a zero-length one may be null.
///
/// # Safety
/// Unless `len` is 0, `buf` points to `len` writable bytes that outlive
/// `'a` and that nothing else reads or writes meanwhile.
unsafe fn bytes_mut<'a>(buf: *mut c_void, len: SizeT) -> &'a mut [u8] {
    match len {
        0 => &mut [],
        _ => std::slice::from_raw_parts_mut(buf as *mut u8, len),
    }
}

/// Stable fake inode per logical path (FNV-1a), so path-stat and
/// fstat-after-open agree; the mount point's is 1.
fn fake_ino(rel: &str) -> u64 {
    if rel == "/" {
        return 1;
    }
    let mut h = Fnv::default();
    h.write(rel.as_bytes());
    h.finish() | 1
}

/// A container open: a reserved fd registered for `at`.
fn open_in(sh: &Shim, at: At, flags: c_int) -> c_int {
    let _in_plfs = InPlfs::enter();
    let reserve = || {
        let slot = Slot::take().ok_or(Errno(ENOMEM))?;
        match reserve_fd(flags & O_CLOEXEC != 0) {
            // EMFILE and the like are the open's own errno.
            fd if fd < 0 => Err(Errno(errno())),
            fd => Ok((fd, Own::new(slot))),
        }
    };
    ret(
        sh.opens.open(at, OpenFlags(flags as u32), pid(), reserve),
        |fd| fd,
    )
}

/// A read into the C buffer, at `off` or at the cursor.
///
/// # Safety
/// `buf` and `n` are as [`bytes_mut`] takes them.
unsafe fn read_at(st: &Open<Own>, buf: *mut c_void, n: SizeT, off: Option<OffT>) -> SsizeT {
    let buf = bytes_mut(buf, n);
    count(match off {
        None => st.read(buf),
        Some(off) => unsigned(off).and_then(|off| st.pread(buf, off)),
    })
}

/// A write of the C buffer, at `off` or at the cursor.
///
/// # Safety
/// `buf` and `n` are as [`bytes`] takes them.
unsafe fn write_at(st: &Open<Own>, buf: *const c_void, n: SizeT, off: Option<OffT>) -> SsizeT {
    let buf = bytes(buf, n);
    count(match off {
        None => st.write(buf),
        Some(off) => unsigned(off).and_then(|off| st.pwrite(buf, off)),
    })
}

/// `struct iovec` (uapi layout).
#[repr(C)]
pub struct IoVec {
    /// Buffer start.
    pub iov_base: *mut c_void,
    /// Buffer length in bytes.
    pub iov_len: SizeT,
}

/// The `cnt` iovecs at `iov`, checked as the kernel checks them: `EINVAL`
/// for a negative count or a total past `SSIZE_MAX`.
///
/// # Safety
/// A positive `cnt` is the number of `IoVec`s readable at `iov` for `'a`.
unsafe fn iovecs<'a>(iov: *const IoVec, cnt: c_int) -> PosixResult<&'a [IoVec]> {
    let vecs = match cnt {
        0 => &[],
        1.. if !iov.is_null() => std::slice::from_raw_parts(iov, cnt as usize),
        _ => return Err(Errno::EINVAL),
    };
    match vecs
        .iter()
        .try_fold(0usize, |t, v| t.checked_add(v.iov_len))
    {
        Some(total) if total <= isize::MAX as usize => Ok(vecs),
        _ => Err(Errno::EINVAL),
    }
}

/// A vectored read, scattered from one PLFS read, at `off` or at the
/// cursor.
///
/// # Safety
/// `iov` and `cnt` are as [`iovecs`] takes them, each a buffer as
/// [`bytes_mut`] takes it.
unsafe fn read_vec(st: &Open<Own>, iov: *const IoVec, cnt: c_int, off: Option<OffT>) -> SsizeT {
    count(iovecs(iov, cnt).and_then(|v| {
        let mut bufs: Vec<&mut [u8]> = v.iter().map(|v| bytes_mut(v.iov_base, v.iov_len)).collect();
        match off {
            None => st.readv(&mut bufs),
            Some(off) => st.preadv(&mut bufs, unsigned(off)?),
        }
    }))
}

/// A vectored write, gathered into one PLFS write, at `off` or at the
/// cursor.
///
/// # Safety
/// `iov` and `cnt` are as [`iovecs`] takes them, each a buffer as
/// [`bytes`] takes it.
unsafe fn write_vec(st: &Open<Own>, iov: *const IoVec, cnt: c_int, off: Option<OffT>) -> SsizeT {
    count(iovecs(iov, cnt).and_then(|v| {
        let bufs: Vec<&[u8]> = v.iter().map(|v| bytes(v.iov_base, v.iov_len)).collect();
        match off {
            None => st.writev(&bufs),
            Some(off) => st.pwritev(&bufs, unsigned(off)?),
        }
    }))
}

fn lseek_in(st: &Open<Own>, off: OffT, whence: c_int) -> OffT {
    let whence = match whence {
        SEEK_SET => Ok(Whence::Set),
        SEEK_CUR => Ok(Whence::Cur),
        SEEK_END => Ok(Whence::End),
        _ => Err(Errno::EINVAL),
    };
    ret(whence.and_then(|w| st.lseek(off, w)), |at| at as OffT)
}

/// The next `copy_file_range` as a `Result`: -1 is its errno.
///
/// # Safety
/// As `copy_file_range(2)`'s.
unsafe fn kernel_copy(
    src: c_int,
    off_src: *mut OffT,
    dst: c_int,
    off_dst: *mut OffT,
    len: SizeT,
) -> std::io::Result<usize> {
    match next::copy_file_range(src, off_src, dst, off_dst, len, 0) {
        n if n < 0 => Err(std::io::Error::last_os_error()),
        n => Ok(n as usize),
    }
}

/// A C offset pointer as [`Open::copy_in`]/[`Open::copy_out`] take it:
/// `None` for null (the cursor), else the offset, written back advanced.
///
/// # Safety
/// `off` is null or points to a readable, writable offset.
unsafe fn with_offset(
    off: *mut OffT,
    f: impl FnOnce(Option<&mut u64>) -> PosixResult<usize>,
) -> PosixResult<usize> {
    if off.is_null() {
        return f(None);
    }
    let mut at = unsigned(*off)?;
    let n = f(Some(&mut at))?;
    *off = at as OffT;
    Ok(n)
}

/// `copy_file_range` with a container at one end: the kernel moves the
/// bytes between the other end and the container's data droppings — out
/// of each slice the read view resolves, or into the writer's tail, one
/// write — so they are copied once, as between two files. A container at
/// each end is `EXDEV`, which `cp` follows with reads and writes.
///
/// # Safety
/// As `copy_file_range(2)`'s.
unsafe fn copy_range(
    ends: Ends,
    src: c_int,
    off_src: *mut OffT,
    dst: c_int,
    off_dst: *mut OffT,
    len: SizeT,
    flags: c_uint,
) -> SsizeT {
    if flags != 0 {
        return fail(EINVAL);
    }
    count(match ends {
        Ends::Both => Err(Errno(EXDEV)),
        Ends::Src(st) => with_offset(off_src, |off| {
            st.copy_out(off, len, |fd, at, n| {
                let mut at = at as OffT;
                kernel_copy(fd, &mut at, dst, off_dst, n)
            })
        }),
        Ends::Dst(st) => with_offset(off_dst, |off| {
            st.copy_in(off, len, |fd, at| {
                let mut at = at as OffT;
                kernel_copy(src, off_src, fd, &mut at, len)
            })
        }),
    })
}

/// `close`: a registered fd's two halves, the PLFS open and the reserved
/// fd, are released whatever the other does, and the first error is
/// reported (a failed index or meta flush at close is lost data). A backing
/// root is not the application's to close: as if it never was open.
fn close_fd(fd: c_int) -> c_int {
    let Some(sh) = shim() else {
        // SAFETY: close(2) takes any number.
        return unsafe { next::close(fd) };
    };
    if root_at(sh, fd).is_some() {
        return fail(EBADF);
    }
    forget_template(fd);
    let released = sh.opens.close(fd).map(|st| release(&st));
    // SAFETY: as above.
    let ret = unsafe { next::close(fd) };
    if let Some(Err(Errno(e))) = released {
        return fail(e);
    }
    ret
}

/// The PLFS half of closing one fd of `st`, after it left the table. An
/// open inherited across a `fork` and not used since is let go without a
/// PLFS call: its state is the parent's, and a child closing descriptors
/// before `exec` takes no PLFS lock.
fn release(st: &Open<Own>) -> PosixResult<()> {
    if !st.own.ours() {
        // Never dropped here: its copy of the parent's writer would
        // write the parent's buffered records.
        std::mem::forget(Arc::clone(st.plfs()));
        return Ok(());
    }
    inside_plfs(|| st.close())
}

/// What [`close_fd`] does before its real close, for every fd in `lo..=hi`
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
    let closed = sh.opens.close_range(lo, hi);
    closed
        .iter()
        .filter_map(|st| release(st).err())
        .fold(None, |first, Errno(e)| first.or(Some(e)))
}

/// The one `close_range(2)` flag with which it still closes: unshare the
/// fd table first.
const CLOSE_RANGE_UNSHARE: c_int = 2;

/// `close_range`: every registered fd in the range is closed as `close`
/// would close it.
fn close_fds(first: c_uint, last: c_uint, flags: c_int) -> c_int {
    // A call that closes nothing — `CLOSE_RANGE_CLOEXEC` only marks the
    // range; the kernel refuses an unknown flag or `first > last` — is
    // forwarded without bookkeeping.
    if flags & !CLOSE_RANGE_UNSHARE != 0 || first > last {
        // SAFETY: close_range(2) takes any range and flags.
        return unsafe { next::close_range(first, last, flags) };
    }
    let fd_of = |n: c_uint| n.min(c_int::MAX as c_uint) as c_int;
    let failed = release_range(fd_of(first), fd_of(last));
    // SAFETY: as above.
    let ret = close_around_root(first, last, |lo, hi| unsafe {
        next::close_range(lo, hi, flags)
    });
    match failed {
        Some(e) if ret == 0 => fail(e),
        _ => ret,
    }
}

/// `close` each run of `first..=last` on either side of the backing root,
/// in order, stopping at the first that fails: its return, with its errno.
fn close_around_root(
    first: c_uint,
    last: c_uint,
    mut run: impl FnMut(c_uint, c_uint) -> c_int,
) -> c_int {
    let root = shim()
        .map(|sh| sh.root.root_fd() as c_uint)
        .filter(|r| (first..=last).contains(r));
    let Some(root) = root else {
        return run(first, last);
    };
    if first < root {
        let ret = run(first, root - 1);
        if ret != 0 {
            return ret;
        }
    }
    // A root is a file descriptor, so at most `c_int::MAX`.
    if root < last {
        run(root + 1, last)
    } else {
        0
    }
}

/// `closefrom(3)`: every registered fd from `lowfd` up is closed as
/// `close` would close it.
fn close_from(lowfd: c_int) {
    let lowfd = lowfd.max(0);
    let _ = release_range(lowfd, c_int::MAX);
    // SAFETY: closefrom(3) and close_range(2) take any numbers.
    let _ = close_around_root(lowfd as c_uint, c_uint::MAX, |lo, hi| unsafe {
        if hi == c_uint::MAX {
            next::closefrom(lo as c_int);
            0
        } else {
            next::close_range(lo, hi, 0)
        }
    });
}

/// A duplicating call's result, with its bookkeeping if it made `new`.
fn duped(oldfd: c_int, new: c_int) -> c_int {
    if new >= 0 {
        dup_bookkeeping(oldfd, new);
    }
    new
}

/// Shared `dup`/`dup2`/`dup3` fd-table bookkeeping after the real call
/// succeeded: whatever open newfd was registered for is closed as `close`
/// would (the real call already closed its reserved fd), then newfd
/// inherits oldfd's container state. `dup2(fd, fd)` closed and duplicated
/// nothing.
fn dup_bookkeeping(oldfd: c_int, newfd: c_int) {
    let Some(sh) = shim() else {
        return;
    };
    if oldfd == newfd {
        return;
    }
    forget_template(newfd);
    let _in_plfs = InPlfs::enter();
    if let Some(st) = sh.opens.get(oldfd) {
        st.own.adopt(st.plfs());
    }
    if let Some(displaced) = sh.opens.dup(oldfd, newfd) {
        // Outside the table lock: releasing the open closes its droppings
        // through the interposed `close`, which takes that lock.
        // dup2(2): errors of the implied close are not reported.
        let _ = release(&displaced);
    }
}

/// The backing, if its root descriptor is `fd`.
fn root_at(sh: &Shim, fd: c_int) -> Option<&RealBacking> {
    Some(sh.root.as_ref()).filter(|r| r.root_fd() == fd)
}

/// `dup2`/`dup3` of `oldfd` onto `newfd` by `dup`, and its bookkeeping. A
/// backing root at `newfd` is first moved to a new number, once no PLFS op
/// is using it ([`RealBacking::renumber_root`]): the call then takes over
/// a number no op resolves against any more. The move is made inside
/// PLFS, so its `fcntl` is not taken for the application's. The real call
/// enforces dup3's contract (`EINVAL` on oldfd == newfd, atomic
/// `O_CLOEXEC`); the shim only mirrors the fd-table transfer.
fn dup_onto(oldfd: c_int, newfd: c_int, dup: impl FnOnce() -> c_int) -> c_int {
    let moved = match shim().and_then(|sh| root_at(sh, newfd)) {
        Some(root) if oldfd != newfd => match inside_plfs(|| root.renumber_root()) {
            Ok(old) => Some(old),
            Err(e) => return fail(e.raw_os_error().unwrap_or(EIO)),
        },
        _ => None,
    };
    let ret = dup();
    if ret >= 0 {
        dup_bookkeeping(oldfd, newfd);
    } else if let Some(old) = moved {
        // The root's old number is still open and nobody's: let it go.
        let e = errno();
        // SAFETY: `old` is the root's old number, closed once, here.
        let _ = unsafe { next::close(old) };
        set_errno(e);
    }
    ret
}

/// The memfd a read-only map of `st` maps: made and filled with the
/// container's logical bytes by the first map, once per open (`dup`'d fds
/// share it). The reserved fd stays empty.
unsafe fn map_fd(st: &Open<Own>) -> Result<c_int, c_int> {
    let mut map = st.own.map.lock();
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
        let n = match st.pread(&mut buf, off as u64) {
            Ok(0) => break Ok(()),
            Ok(n) => n,
            Err(Errno(e)) => break Err(e),
        };
        let mut done = 0usize;
        while done < n {
            let src = buf.as_ptr().add(done) as *const c_void;
            let w = next::pwrite(fd, src, n - done, (off + done) as OffT);
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
        let _ = next::close(fd);
        return Err(e);
    }
    *map = Some(fd);
    Ok(fd)
}

/// `mmap` of a container: a read-only fd maps its memfd ([`map_fd`]); a
/// writable one is `ENODEV`, since stores through the map would land in a
/// memfd, unseen by PLFS.
///
/// # Safety
/// As `mmap(2)`'s: a map at `addr` with `MAP_FIXED` replaces what was there.
unsafe fn map_container(
    st: &Open<Own>,
    addr: *mut c_void,
    len: SizeT,
    prot: c_int,
    flags: c_int,
    off: OffT,
) -> *mut c_void {
    let fd = match st.writable() {
        true => Err(ENODEV),
        false => map_fd(st),
    };
    match fd {
        Ok(fd) => next::mmap(addr, len, prot, flags, fd, off),
        Err(e) => {
            set_errno(e);
            MAP_FAILED
        }
    }
}

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

/// A container's `st_mode`.
fn mode_of(s: &PosixStat) -> u32 {
    match s.is_dir {
        true => S_IFDIR | 0o755,
        false => S_IFREG | 0o644,
    }
}

/// `what`'s stat in `out`, or -1 with errno set.
///
/// # Safety
/// `out` points to a writable [`CStat`].
unsafe fn fill_stat(out: *mut CStat, what: Target) -> c_int {
    ret(what.attrs(), |(s, ino)| {
        std::ptr::write_bytes(out as *mut u8, 0, std::mem::size_of::<CStat>());
        let st = &mut *out;
        st.st_mode = mode_of(&s);
        st.st_nlink = 1;
        st.st_size = s.size as i64;
        st.st_blksize = 4096;
        st.st_blocks = s.size.div_ceil(512) as i64;
        st.st_ino = ino;
        0
    })
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

/// `what`'s statx in `out`, or -1 with errno set.
///
/// # Safety
/// `out` points to a writable [`CStatx`].
unsafe fn fill_statx(out: *mut CStatx, what: Target) -> c_int {
    ret(what.attrs(), |(s, ino)| {
        std::ptr::write_bytes(out as *mut u8, 0, std::mem::size_of::<CStatx>());
        let st = &mut *out;
        st.stx_mask = STATX_BASIC_STATS;
        st.stx_blksize = 4096;
        st.stx_nlink = 1;
        st.stx_mode = mode_of(&s) as u16;
        st.stx_ino = ino;
        st.stx_size = s.size;
        st.stx_blocks = s.size.div_ceil(512);
        0
    })
}

// ---------------------------------------------------------------------------
// stdio: a stream over the mount is a `fopencookie` stream whose callbacks
// are the shim's own `read`/`write`/`lseek`/`close` on a registered fd (in
// the cookie), listed in [`STREAMS`] with that fd.
// ---------------------------------------------------------------------------

/// glibc `cookie_io_functions_t`.
#[repr(C)]
struct CookieIo {
    read: unsafe extern "C" fn(*mut c_void, *mut c_char, SizeT) -> SsizeT,
    write: unsafe extern "C" fn(*mut c_void, *const c_char, SizeT) -> SsizeT,
    seek: unsafe extern "C" fn(*mut c_void, *mut OffT, c_int) -> c_int,
    close: unsafe extern "C" fn(*mut c_void) -> c_int,
}

/// The streams of the shim's, by address, each with the registered fd it
/// reads. [`before_fork`] holds the lock across a `fork`, so that neither
/// side's copy is caught half changed.
static STREAMS: Mutex<Vec<(usize, c_int)>> = Mutex::new(Vec::new());

/// How many streams [`STREAMS`] lists: a process with none pays one load
/// per `fread`.
static STREAM_COUNT: AtomicUsize = AtomicUsize::new(0);

/// The registered fd `stream` reads, if it is one of the shim's.
fn stream_fd(stream: *mut c_void) -> Option<c_int> {
    // relaxed: a stream's registration happens before any call on it that another thread makes
    if STREAM_COUNT.load(Ordering::Relaxed) == 0 {
        return None;
    }
    STREAMS
        .lock()
        .iter()
        .find(|s| s.0 == stream as usize)
        .map(|s| s.1)
}

/// List `stream`, or (with `None`) take it off the list.
fn list_stream(stream: *mut c_void, fd: Option<c_int>) {
    let mut streams = STREAMS.lock();
    streams.retain(|s| s.0 != stream as usize);
    streams.extend(fd.map(|fd| (stream as usize, fd)));
    // relaxed: see stream_fd
    STREAM_COUNT.store(streams.len(), Ordering::Relaxed);
}

/// A stream's cookie: the registered fd it reads, and the stream, once
/// made.
struct Cookie {
    fd: c_int,
    stream: *mut c_void,
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
    ffi_guard!(-1, read(cookie_fd(cookie), buf as *mut c_void, n))
}

/// A cookie write reports failure as 0, never a negative count.
unsafe extern "C" fn cookie_write(cookie: *mut c_void, buf: *const c_char, n: SizeT) -> SsizeT {
    ffi_guard!(0, write(cookie_fd(cookie), buf as *const c_void, n).max(0))
}

unsafe extern "C" fn cookie_seek(cookie: *mut c_void, off: *mut OffT, whence: c_int) -> c_int {
    ffi_guard!(-1, {
        *off = lseek(cookie_fd(cookie), *off, whence);
        -c_int::from(*off < 0)
    })
}

/// glibc calls this once, last, from `fclose`.
unsafe extern "C" fn cookie_close(cookie: *mut c_void) -> c_int {
    // SAFETY: the cookie is the `Box` cookie_stream leaked, freed once here.
    let cookie = Box::from_raw(cookie as *mut Cookie);
    ffi_guard!(-1, {
        list_stream(cookie.stream, None);
        close(cookie.fd)
    })
}

/// A stream over registered `fd`, listed in [`STREAMS`]; on failure the fd
/// stays the caller's.
unsafe fn cookie_stream(fd: c_int, mode: *const c_char) -> *mut c_void {
    let io = CookieIo {
        read: cookie_read,
        write: cookie_write,
        seek: cookie_seek,
        close: cookie_close,
    };
    let cookie = Box::into_raw(Box::new(Cookie {
        fd,
        stream: std::ptr::null_mut(),
    }));
    let stream = fopencookie(cookie as *mut c_void, mode, io);
    if stream.is_null() {
        // SAFETY: no stream holds the cookie.
        drop(Box::from_raw(cookie));
        return stream;
    }
    (*cookie).stream = stream;
    list_stream(stream, Some(fd));
    stream
}

/// A read-only stream over the container at `at`.
///
/// # Safety
/// `mode` is a NUL-terminated stream mode.
unsafe fn open_stream(sh: &Shim, at: At, mode: *const c_char) -> *mut c_void {
    let fd = open_in(sh, at, O_RDONLY);
    if fd < 0 {
        return std::ptr::null_mut();
    }
    let stream = cookie_stream(fd, mode);
    if stream.is_null() {
        close(fd);
    }
    stream
}

/// glibc's `FILE` (`struct _IO_FILE`) as far as its buffer: the public
/// fields gnulib's `freadahead` reads too.
#[repr(C)]
struct IoFile {
    flags: c_int,
    read_ptr: *mut u8,
    read_end: *mut u8,
    read_base: *mut u8,
    write_base: *mut u8,
    write_ptr: *mut u8,
    write_end: *mut u8,
    buf_base: *mut u8,
    buf_end: *mut u8,
}

/// The states of a stream only glibc's `fread` reads in, setting its
/// flags: no reads (`_IO_NO_READS`), EOF or an error seen
/// (`_IO_EOF_SEEN`, `_IO_ERR_SEEN`), reading `ungetc`'s backup area
/// (`_IO_IN_BACKUP`) or writing (`_IO_CURRENTLY_PUTTING`).
const GLIBC_READS: c_int = 0x4 | 0x10 | 0x20 | 0x100 | 0x800;

/// glibc's buffer size for a stream that has not allocated one yet.
const BUFSIZ: usize = 8192;

/// The bytes of `want` at `dst` a read can fill without glibc: those the
/// stream holds buffered, then as many whole buffers as are left, read by
/// one `read` straight into `dst`. What is left — less than a buffer, or
/// what a short read did not fill — is glibc's `fread`'s, which fills the
/// buffer or sets the stream's EOF or error flag. Returns the bytes
/// filled, 0 in a state glibc must read in ([`GLIBC_READS`]). This is what
/// glibc's `fread` does on a file stream; on a cookie stream it copies
/// every byte through the buffer.
///
/// # Safety
/// `file` is a live stream, locked by this thread; `dst` has `want`
/// writable bytes; `read(p, n)` reads at most `n` bytes to `p`.
unsafe fn fill_direct(
    file: *mut IoFile,
    dst: *mut u8,
    want: usize,
    mut read: impl FnMut(*mut u8, usize) -> SsizeT,
) -> usize {
    let f = &mut *file;
    if f.flags & GLIBC_READS != 0 {
        return 0;
    }
    let held = (f.read_end as usize).saturating_sub(f.read_ptr as usize);
    let mut done = held.min(want);
    if done > 0 {
        std::ptr::copy_nonoverlapping(f.read_ptr, dst, done);
        f.read_ptr = f.read_ptr.add(done);
    }
    let block = match f.buf_base.is_null() {
        true => BUFSIZ,
        false => f.buf_end as usize - f.buf_base as usize,
    };
    let rest = want - done;
    if rest >= block {
        // The buffer is empty: glibc's own state after a direct read.
        if !f.buf_base.is_null() {
            (f.read_base, f.read_ptr, f.read_end) = (f.buf_base, f.buf_base, f.buf_base);
        }
        done += read(dst.add(done), rest - rest % block).max(0) as usize;
    }
    done
}

/// `fread` of a stream of the shim's, reading `fd`: [`fill_direct`]
/// through the shim's `read`, then glibc's `fread` of the rest, under the
/// stream's lock.
///
/// # Safety
/// As `fread(3)`'s.
unsafe fn fread_direct(
    buf: *mut c_void,
    size: SizeT,
    n: SizeT,
    stream: *mut c_void,
    fd: c_int,
) -> SizeT {
    let Some(want) = size.checked_mul(n).filter(|&want| want > 0) else {
        return next::fread(buf, size, n, stream);
    };
    let dst = buf as *mut u8;
    flockfile(stream);
    let done = fill_direct(stream as *mut IoFile, dst, want, |p, k| {
        read(fd, p as *mut c_void, k)
    });
    let rest = match want - done {
        0 => 0,
        rest => next::fread(dst.add(done) as *mut c_void, 1, rest, stream),
    };
    funlockfile(stream);
    (done + rest) / size
}

#[cfg(test)]
mod tests {
    use super::*;

    extern "C" {
        fn fgetc(stream: *mut c_void) -> c_int;
        fn ungetc(c: c_int, stream: *mut c_void) -> c_int;
        fn fclose(stream: *mut c_void) -> c_int;
    }

    /// An endless source of bytes `i % 251`, which notes where each of its
    /// reads was asked to put them.
    #[derive(Default)]
    struct Source {
        at: usize,
        reads: Vec<(usize, usize)>,
    }

    unsafe extern "C" fn source_read(cookie: *mut c_void, buf: *mut c_char, n: SizeT) -> SsizeT {
        let src = &mut *(cookie as *mut Source);
        src.reads.push((buf as usize, n));
        for i in 0..n {
            *buf.add(i) = ((src.at + i) % 251) as c_char;
        }
        src.at += n;
        n as SsizeT
    }

    unsafe extern "C" fn no_write(_: *mut c_void, _: *const c_char, _: SizeT) -> SsizeT {
        0
    }

    unsafe extern "C" fn no_seek(_: *mut c_void, _: *mut OffT, _: c_int) -> c_int {
        -1
    }

    unsafe extern "C" fn no_close(_: *mut c_void) -> c_int {
        0
    }

    fn pattern(from: usize, len: usize) -> Vec<u8> {
        (from..from + len).map(|i| (i % 251) as u8).collect()
    }

    /// A cookie stream of glibc's over `src`.
    fn stream(src: &mut Source) -> *mut c_void {
        let io = CookieIo {
            read: source_read,
            write: no_write,
            seek: no_seek,
            close: no_close,
        };
        let cookie = src as *mut Source as *mut c_void;
        let stream = unsafe { fopencookie(cookie, c"r".as_ptr(), io) };
        assert!(!stream.is_null());
        stream
    }

    /// The container read a large `fread` makes is handed the caller's
    /// buffer, after the bytes the stream held; glibc's own `fread` of a
    /// cookie stream hands the cookie its buffer and copies out of it.
    #[test]
    fn a_large_fread_reads_straight_into_the_callers_buffer() {
        let mut src = Source::default();
        let fp = stream(&mut src);
        // The first `fgetc` allocates the stream's buffer and fills it.
        assert_eq!(unsafe { fgetc(fp) }, 0);
        let file = fp as *mut IoFile;
        let (base, end) = unsafe { ((*file).buf_base as usize, (*file).buf_end as usize) };
        assert_eq!(src.reads, [(base, BUFSIZ)]);
        assert_eq!(
            (end - base, unsafe { (*file).read_ptr } as usize),
            (BUFSIZ, base + 1)
        );

        let mut buf = vec![0u8; 100_000];
        let dst = buf.as_mut_ptr();
        let mut reads = Vec::new();
        let done = unsafe {
            fill_direct(file, dst, buf.len(), |p, n| {
                reads.push((p as usize, n));
                source_read(&mut src as *mut Source as *mut c_void, p as *mut c_char, n)
            })
        };
        // 8191 held bytes, then the whole buffers of the rest: one read,
        // into the caller's buffer, right after them.
        let direct = (100_000 - (BUFSIZ - 1)) / BUFSIZ * BUFSIZ;
        assert_eq!(reads, [(dst as usize + BUFSIZ - 1, direct)]);
        assert_eq!(done, BUFSIZ - 1 + direct);
        assert!(buf[..done] == pattern(1, done));
        // The buffer is empty, as glibc leaves it after a direct read.
        let f = unsafe { &*file };
        assert_eq!((f.read_ptr, f.read_end), (f.buf_base, f.buf_base));

        // The rest is less than a buffer: glibc's, through its buffer.
        let rest = unsafe { next::fread(dst.add(done) as *mut c_void, 1, buf.len() - done, fp) };
        assert_eq!(done + rest, buf.len());
        assert!(buf == pattern(1, buf.len()));
        assert_eq!(*src.reads.last().unwrap(), (base, BUFSIZ));

        // glibc's own fread of 32 KiB: four reads into its buffer, none
        // into the caller's.
        let before = src.reads.len();
        let mut big = vec![0u8; 32 << 10];
        let got = unsafe { next::fread(big.as_mut_ptr() as *mut c_void, 1, big.len(), fp) };
        assert_eq!(got, big.len());
        assert!(src.reads[before..].iter().all(|&r| r == (base, BUFSIZ)));
        assert_eq!(unsafe { fclose(fp) }, 0);
    }

    /// A small read is served from the stream's buffer alone, and a stream
    /// reading `ungetc`'s backup area is left to glibc.
    #[test]
    fn small_reads_and_pushed_back_bytes_stay_with_the_buffer() {
        let mut src = Source::default();
        let fp = stream(&mut src);
        assert_eq!(unsafe { fgetc(fp) }, 0);
        let file = fp as *mut IoFile;
        let mut buf = [0u8; 100];
        let no_read = |_: *mut u8, _: usize| -> SsizeT { panic!("no read wanted") };
        let done = unsafe { fill_direct(file, buf.as_mut_ptr(), 100, no_read) };
        assert_eq!((done, buf.to_vec()), (100, pattern(1, 100)));
        assert_eq!(unsafe { ungetc(b'x' as c_int, fp) }, b'x' as c_int);
        let done = unsafe { fill_direct(file, buf.as_mut_ptr(), 100, no_read) };
        assert_eq!(done, 0, "the backup area is glibc's");
        assert_eq!(unsafe { fclose(fp) }, 0);
    }
}
