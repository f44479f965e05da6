//! Smoke-test binary for the LD_PRELOAD library.
//!
//! Run *under* the preload (`LD_PRELOAD=...libldplfs_preload.so`): its
//! plain `std::fs` calls route through libc and therefore through the
//! interposed symbols. With no argument it exits 0 after verifying a
//! write/read/seek/stat round-trip inside the mount and passthrough outside
//! it. `preload-smoke MODE CONTAINER TWIN` instead runs one check on an
//! existing container against its flat twin outside the mount (same
//! bytes): `fstat`, `movers`, `mmap`, `stdio`, `dup`, `dup2-writer`,
//! `dup2-self`, `close-error`, `truncate`, `cloexec`, `fcntl-dup`, `fork`,
//! `fork-exec`, `fork-first`, `close-range`, `chdir`, `backing-root`,
//! `negative-offset`, `seek-overflow`, `glibc-spellings` — see each
//! `check_*`. `preload-smoke
//! calls-KIND N [CONTAINER]` makes N calls of one kind and nothing else
//! that grows with N, for a syscall
//! counter to difference two runs of (`plfs-tools syscalls`): `write` (N
//! 4 KiB writes to a new file in the mount), `read` (N 4 KiB reads of
//! CONTAINER, one fragment each), `fread` (N 32 KiB `fread`s of FILE,
//! in the mount or not, through one stream) and `cycle` (N small-file
//! cycles).

use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::fd::AsRawFd;
use std::os::raw::{c_char, c_int, c_long, c_void};
use std::os::unix::fs::{FileExt, MetadataExt};
use std::sync::atomic::{AtomicBool, Ordering};

/// `struct iovec` (uapi layout) — declared locally so the binary calls the
/// genuine libc symbols, which the preload interposes.
#[repr(C)]
struct IoVec {
    iov_base: *mut c_void,
    iov_len: usize,
}

extern "C" {
    fn readv(fd: c_int, iov: *const IoVec, cnt: c_int) -> isize;
    fn writev(fd: c_int, iov: *const IoVec, cnt: c_int) -> isize;
    fn preadv(fd: c_int, iov: *const IoVec, cnt: c_int, off: i64) -> isize;
    fn pwritev(fd: c_int, iov: *const IoVec, cnt: c_int, off: i64) -> isize;
    fn pread(fd: c_int, buf: *mut c_void, n: usize, off: i64) -> isize;
    fn pread64(fd: c_int, buf: *mut c_void, n: usize, off: i64) -> isize;
    fn pwrite(fd: c_int, buf: *const c_void, n: usize, off: i64) -> isize;
    fn pwrite64(fd: c_int, buf: *const c_void, n: usize, off: i64) -> isize;
    fn __pread_chk(fd: c_int, buf: *mut c_void, n: usize, off: i64, len: usize) -> isize;
    fn fstat(fd: c_int, out: *mut [u64; 18]) -> c_int;
    fn copy_file_range(
        fd_in: c_int,
        off_in: *mut i64,
        fd_out: c_int,
        off_out: *mut i64,
        len: usize,
        flags: u32,
    ) -> isize;
    fn sendfile(out_fd: c_int, in_fd: c_int, off: *mut i64, count: usize) -> isize;
    fn splice(
        fd_in: c_int,
        off_in: *mut i64,
        fd_out: c_int,
        off_out: *mut i64,
        len: usize,
        flags: u32,
    ) -> isize;
    fn pipe(fds: *mut [c_int; 2]) -> c_int;
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        off: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn syscall(num: c_long, ...) -> c_long;
    fn fopen(path: *const c_char, mode: *const c_char) -> *mut c_void;
    fn fdopen(fd: c_int, mode: *const c_char) -> *mut c_void;
    fn fread(buf: *mut c_void, size: usize, n: usize, stream: *mut c_void) -> usize;
    fn fseek(stream: *mut c_void, off: c_long, whence: c_int) -> c_int;
    fn ftell(stream: *mut c_void) -> c_long;
    fn fileno(stream: *mut c_void) -> c_int;
    fn fclose(stream: *mut c_void) -> c_int;
    fn dup(fd: c_int) -> c_int;
    fn dup2(oldfd: c_int, newfd: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn lseek(fd: c_int, off: i64, whence: c_int) -> i64;
    fn open(path: *const c_char, flags: c_int, mode: u32) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, n: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, n: usize) -> isize;
    fn stat(path: *const c_char, out: *mut [u64; 18]) -> c_int;
    fn unlink(path: *const c_char) -> c_int;
    fn fcntl(fd: c_int, cmd: c_int, ...) -> c_int;
    fn fork() -> c_int;
    fn execv(path: *const c_char, argv: *const *const c_char) -> c_int;
    fn close_range(first: u32, last: u32, flags: c_int) -> c_int;
    fn closefrom(lowfd: c_int);
    fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
    fn _exit(code: c_int) -> !;
    fn setrlimit(resource: c_int, limit: *const [u64; 2]) -> c_int;
    fn creat64(path: *const c_char, mode: u32) -> c_int;
    fn fstatat64(dirfd: c_int, path: *const c_char, out: *mut [u64; 18], flags: c_int) -> c_int;
    fn __open_2(path: *const c_char, flags: c_int) -> c_int;
    fn __open64_2(path: *const c_char, flags: c_int) -> c_int;
    fn __openat_2(dirfd: c_int, path: *const c_char, flags: c_int) -> c_int;
    fn __openat64_2(dirfd: c_int, path: *const c_char, flags: c_int) -> c_int;
}

const O_RDONLY: c_int = 0;
const O_WRONLY: c_int = 1;
const O_CREAT: c_int = 0o100;
const O_TRUNC: c_int = 0o1000;
const O_CLOEXEC: c_int = 0o2000000;
const F_DUPFD: c_int = 0;
const F_GETFD: c_int = 1;
const F_DUPFD_CLOEXEC: c_int = 1030;
const FD_CLOEXEC: c_int = 1;

const ENOENT: i32 = 2;
const EIO: i32 = 5;
const EBADF: i32 = 9;
const EXDEV: i32 = 18;
const ENODEV: i32 = 19;
const EINVAL: i32 = 22;

fn errno() -> i32 {
    std::io::Error::last_os_error().raw_os_error().unwrap_or(0)
}

fn mount_dir() -> String {
    std::env::var("LDPLFS_MOUNT").expect("LDPLFS_MOUNT not set")
}

fn outside_dir() -> String {
    std::env::var("SMOKE_OUTSIDE").expect("SMOKE_OUTSIDE not set")
}

/// The backend directory, as the shim was given it.
fn backend_dir() -> String {
    std::env::var("LDPLFS_BACKEND").expect("LDPLFS_BACKEND not set")
}

/// `fstat`, `statx(AT_EMPTY_PATH)` (what `File::metadata` issues) and
/// path-stat agree on `(st_ino, st_size)` of an open container, read-only
/// or writable: `cp` compares them and refuses a file "replaced while
/// being copied".
fn check_fstat(container: &str, twin: &[u8]) {
    let by_path = fs::metadata(container).expect("stat container");
    let want = (by_path.ino(), by_path.len());
    assert_eq!(want.1 as usize, twin.len(), "path-stat size");
    let read_only = fs::File::open(container).expect("open container");
    let read_write = fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(container);
    for (tag, f) in [
        ("O_RDONLY", read_only),
        ("O_RDWR", read_write.expect("open O_RDWR")),
    ] {
        let by_statx = f.metadata().expect("statx on the fd");
        assert_eq!((by_statx.ino(), by_statx.len()), want, "{tag}: statx");
        let mut raw = [0u64; 18]; // x86_64 struct stat: st_ino at 8, st_size at 48
        assert_eq!(unsafe { fstat(f.as_raw_fd(), &mut raw) }, 0, "{tag}: fstat");
        assert_eq!((raw[1], raw[6]), want, "{tag}: fstat");
    }
}

/// The in-kernel byte movers refuse a shim fd with their "use read/write"
/// errno and move nothing; between two plain files they still work.
fn check_movers(container: &str, twin: &[u8]) {
    let null = std::ptr::null_mut::<i64>();
    let src = fs::File::open(container).expect("open container");
    let in_mount = format!("{}/movers.dst", mount_dir());
    let dst = fs::File::create(&in_mount).expect("create in mount");
    let plain_path = format!("{}/movers.plain", outside_dir());
    let plain = fs::File::create(&plain_path).expect("create outside");
    let (s, d, p) = (src.as_raw_fd(), dst.as_raw_fd(), plain.as_raw_fd());
    let n = twin.len();
    let mut fds = [0 as c_int; 2];
    assert_eq!(unsafe { pipe(&mut fds) }, 0);
    type Mover<'a> = &'a dyn Fn() -> isize;
    let movers: [(&str, Mover, i32); 6] = [
        (
            "copy_file_range mount->mount",
            &|| unsafe { copy_file_range(s, null, d, null, n, 0) },
            EXDEV,
        ),
        (
            "copy_file_range mount->plain",
            &|| unsafe { copy_file_range(s, null, p, null, n, 0) },
            EXDEV,
        ),
        (
            "copy_file_range plain->mount",
            &|| unsafe { copy_file_range(p, null, d, null, n, 0) },
            EXDEV,
        ),
        (
            "sendfile mount->plain",
            &|| unsafe { sendfile(p, s, null, n) },
            EINVAL,
        ),
        (
            "sendfile mount->mount",
            &|| unsafe { sendfile(d, s, null, n) },
            EINVAL,
        ),
        (
            "splice mount->pipe",
            &|| unsafe { splice(s, null, fds[1], null, n, 0) },
            EINVAL,
        ),
    ];
    for (what, call, want) in movers {
        assert_eq!((call(), errno()), (-1, want), "{what}");
    }
    drop((dst, plain));
    assert_eq!(
        fs::metadata(&in_mount).expect("stat").len(),
        0,
        "nothing written in the mount"
    );
    assert_eq!(
        fs::metadata(&plain_path).expect("stat").len(),
        0,
        "nothing written outside"
    );
    assert_eq!(cursor(&src), 0, "source cursor untouched");
    // Passthrough: plain -> plain still copies in the kernel.
    fs::write(&plain_path, b"kernel copy").expect("write outside");
    let a = fs::File::open(&plain_path).expect("reopen");
    let b_path = format!("{}/movers.copy", outside_dir());
    let b = fs::File::create(&b_path).expect("create copy");
    let n = unsafe { copy_file_range(a.as_raw_fd(), null, b.as_raw_fd(), null, 11, 0) };
    assert_eq!(n, 11, "copy_file_range outside the mount");
    assert_eq!(fs::read(&b_path).expect("read copy"), b"kernel copy");
}

/// `lseek(fd, 0, SEEK_CUR)`.
fn cursor(f: &fs::File) -> u64 {
    let mut f = f;
    f.stream_position().expect("lseek")
}

/// The memfds `mmap`s of containers map, that this process holds.
fn map_memfds() -> usize {
    let fds = fs::read_dir("/proc/self/fd").expect("list /proc/self/fd");
    let links = fds.filter_map(|e| fs::read_link(e.ok()?.path()).ok());
    links
        .filter(|l| l.to_string_lossy().contains("ldplfs-map"))
        .count()
}

/// A read-only map shows the container's bytes and leaves the cursor alone;
/// it maps a memfd of its own, filled once per open — a second map of the
/// open, through the fd or a `dup` of it, makes no new one — while the
/// reserved fd stays empty; a writable fd cannot be mapped.
fn check_mmap(container: &str, twin: &[u8]) {
    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    const SYS_PREAD64: c_long = 17; // x86_64
    let failed = -1isize as *mut c_void;
    let f = fs::File::open(container).expect("open container");
    let fd = f.as_raw_fd();
    let map = |fd: c_int, len: usize| unsafe {
        mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, fd, 0)
    };
    let maps_before = map_memfds();
    let first = map(fd, twin.len());
    assert_ne!(first, failed, "mmap failed: errno {}", errno());
    assert_eq!(map_memfds(), maps_before + 1, "the map's own memfd");
    let mapped = unsafe { std::slice::from_raw_parts(first as *const u8, twin.len()) };
    assert!(mapped == twin, "mapped bytes differ from the twin");
    let mut via_pread = vec![0u8; twin.len()];
    f.read_exact_at(&mut via_pread, 0)
        .expect("pread whole file");
    assert!(
        mapped == via_pread.as_slice(),
        "mapped bytes differ from pread"
    );
    assert_eq!(cursor(&f), 0, "filling the map moved the cursor");
    unsafe { munmap(first, twin.len()) };
    // Below the shim: the reserved fd holds no byte of the container.
    let mut b = [0u8; 1];
    let raw = unsafe { syscall(SYS_PREAD64, fd, b.as_mut_ptr(), 1usize, 0i64) };
    assert_eq!(raw, 0, "the reserved fd is empty");
    // Through a dup, after the original fd's mapping: the same memfd.
    let dup_fd = unsafe { dup(fd) };
    assert!(dup_fd >= 0, "dup");
    let second = map(dup_fd, twin.len());
    assert_ne!(
        second,
        failed,
        "mmap through the dup failed: errno {}",
        errno()
    );
    assert_eq!(map_memfds(), maps_before + 1, "no second memfd");
    let mapped = unsafe { std::slice::from_raw_parts(second as *const u8, twin.len()) };
    assert!(mapped == twin, "bytes mapped through the dup differ");
    drop(f);
    assert_eq!(unsafe { close(dup_fd) }, 0);
    assert_eq!(map_memfds(), maps_before, "closed with the open");
    assert!(
        unsafe { *(second as *const u8) } == twin[0],
        "the map outlives the open"
    );
    unsafe { munmap(second, twin.len()) };

    let w = fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(container)
        .expect("open container read-write");
    let got = map(w.as_raw_fd(), 1);
    assert_eq!((got, errno()), (failed, ENODEV), "mmap of a writable fd");
}

/// stdio over the mount: `fopen` and `fdopen` streams read, seek and tell
/// through the shim; `fileno` of a cookie stream is -1 by glibc's contract.
fn check_stdio(container: &str, twin: &[u8]) {
    const SEEK_SET: c_int = 0;
    const SEEK_END: c_int = 2;
    assert!(twin.len() > 100_000, "twin too small for the seek pattern");
    let cpath = std::ffi::CString::new(container).expect("path");
    let mode = c"r".as_ptr();
    let by_fopen = unsafe { fopen(cpath.as_ptr(), mode) };
    assert!(!by_fopen.is_null(), "fopen: errno {}", errno());
    assert_eq!(
        unsafe { fileno(by_fopen) },
        -1,
        "cookie streams have no fileno"
    );
    let file = fs::File::open(container).expect("open container");
    let fd = unsafe { dup(file.as_raw_fd()) };
    let by_fdopen = unsafe { fdopen(fd, mode) };
    assert!(!by_fdopen.is_null(), "fdopen: errno {}", errno());
    for (tag, stream) in [("fopen", by_fopen), ("fdopen", by_fdopen)] {
        let mut buf = vec![0u8; 70_000]; // > BUFSIZ: buffered and direct reads
        let n = unsafe { fread(buf.as_mut_ptr() as *mut c_void, 1, 10, stream) };
        assert_eq!((n, &buf[..10]), (10, &twin[..10]), "{tag}: first fread");
        assert_eq!(unsafe { ftell(stream) }, 10, "{tag}: ftell");
        let n = unsafe { fread(buf.as_mut_ptr() as *mut c_void, 1, buf.len(), stream) };
        assert_eq!(n, buf.len(), "{tag}: large fread");
        assert!(buf[..] == twin[10..10 + n], "{tag}: large fread bytes");
        assert_eq!(unsafe { fseek(stream, 4097, SEEK_SET) }, 0, "{tag}: fseek");
        let n = unsafe { fread(buf.as_mut_ptr() as *mut c_void, 1, 100, stream) };
        assert_eq!(
            (n, &buf[..100]),
            (100, &twin[4097..4197]),
            "{tag}: fread after fseek"
        );
        assert_eq!(
            unsafe { fseek(stream, -7, SEEK_END) },
            0,
            "{tag}: fseek from the end"
        );
        assert_eq!(
            unsafe { ftell(stream) } as usize,
            twin.len() - 7,
            "{tag}: ftell at the end"
        );
        let n = unsafe { fread(buf.as_mut_ptr() as *mut c_void, 1, 100, stream) };
        assert_eq!(
            (n, &buf[..7]),
            (7, &twin[twin.len() - 7..]),
            "{tag}: tail fread"
        );
        assert_eq!(unsafe { fclose(stream) }, 0, "{tag}: fclose");
    }
    // fclose of the fdopen stream closed `fd`, not the File it was dup'd from.
    let mut b = [0u8; 4];
    file.read_exact_at(&mut b, 0).expect("pread after fclose");
    assert_eq!(b, twin[..4]);
}

/// `dup`'d descriptors of a read-only open share one cursor, and the open
/// survives closing either.
fn check_dup(container: &str, twin: &[u8]) {
    let mut a = fs::File::open(container).expect("open container");
    let fd2 = unsafe { dup(a.as_raw_fd()) };
    assert!(fd2 >= 0, "dup");
    let mut b: fs::File = unsafe { std::os::fd::FromRawFd::from_raw_fd(fd2) };
    let mut buf = [0u8; 1000];
    a.read_exact(&mut buf).expect("read via a");
    assert_eq!(buf, twin[..1000]);
    b.read_exact(&mut buf).expect("read via b");
    assert_eq!(buf, twin[1000..2000], "b continues where a stopped");
    b.seek(SeekFrom::Start(5000)).expect("seek via b");
    assert_eq!(cursor(&a), 5000, "a sees b's seek");
    drop(b);
    a.read_exact(&mut buf).expect("read via a after closing b");
    assert_eq!(buf, twin[5000..6000]);
    let fd3 = unsafe { dup(a.as_raw_fd()) };
    drop(a);
    let mut c: fs::File = unsafe { std::os::fd::FromRawFd::from_raw_fd(fd3) };
    c.read_exact(&mut buf).expect("read via c after closing a");
    assert_eq!(buf, twin[6000..7000]);
}

/// `dup2` onto a descriptor that holds a writable open closes that open: a
/// second process reads what it wrote while this one still runs, and the
/// number then names the container it was pointed at.
fn check_dup2_writer(container: &str, twin: &[u8]) {
    let path = format!("{}/dup2.dst", mount_dir());
    let w = fs::File::create(&path).expect("create in mount");
    w.write_all_at(&twin[..5000], 0).expect("write in mount");
    let r = fs::File::open(container).expect("open container");
    let fd = w.as_raw_fd();
    assert_eq!(unsafe { dup2(r.as_raw_fd(), fd) }, fd, "dup2");
    let cat = std::process::Command::new("cat")
        .arg(&path)
        .output()
        .expect("spawn cat");
    assert!(cat.status.success(), "cat failed");
    assert!(
        cat.stdout == twin[..5000],
        "a second process read {} of the displaced writer's 5000 bytes",
        cat.stdout.len()
    );
    let mut b = [0u8; 100];
    w.read_exact_at(&mut b, 0)
        .expect("pread via the new number");
    assert_eq!(b, twin[..100], "the number names the container now");
}

/// `dup2(fd, fd)` closes nothing and duplicates nothing: the descriptor
/// still reads the container.
fn check_dup2_self(container: &str, twin: &[u8]) {
    let f = fs::File::open(container).expect("open container");
    let fd = f.as_raw_fd();
    assert_eq!(unsafe { dup2(fd, fd) }, fd, "dup2 onto itself");
    let mut b = [0u8; 1000];
    f.read_exact_at(&mut b, 4096)
        .expect("pread after dup2(fd, fd)");
    assert_eq!(b, twin[4096..5096]);
}

/// A PLFS error is the call's error: with the container's backend tree gone
/// under an open writer, `lseek(SEEK_END)` cannot learn the size and
/// `close` cannot leave its meta drop. Both report it; `close` still
/// releases the descriptor.
fn check_close_error() {
    const SEEK_END: c_int = 2;
    let backend = backend_dir();
    let f = fs::File::create(format!("{}/doomed.dat", mount_dir())).expect("create in mount");
    f.write_all_at(b"never indexed", 0).expect("write in mount");
    fs::remove_dir_all(format!("{backend}/doomed.dat")).expect("remove the backend tree");
    let fd = std::os::fd::IntoRawFd::into_raw_fd(f);
    assert_eq!(
        (unsafe { lseek(fd, 0, SEEK_END) }, errno()),
        (-1, EINVAL),
        "lseek(SEEK_END) on what is no container any more"
    );
    assert_eq!((unsafe { close(fd) }, errno()), (-1, ENOENT), "close");
    let mut raw = [0u64; 18];
    assert_eq!(
        (unsafe { fstat(fd, &mut raw) }, errno()),
        (-1, EBADF),
        "the failed close released the descriptor"
    );
}

/// Another process truncates the container under an open reader: every
/// later read returns the bytes of open time (a dropping it already holds
/// open) or fails with `EIO` (one it has not opened yet) — never other
/// bytes, never a silent EOF. CONTAINER must be two droppings, the second
/// starting at half the file.
fn check_truncate(container: &str, twin: &[u8]) {
    let f = fs::File::open(container).expect("open container");
    let mut buf = vec![0u8; 4096];
    f.read_exact_at(&mut buf, 0).expect("first read");
    assert!(buf[..] == twin[..4096]);
    let status = std::process::Command::new("truncate")
        .args(["-s", "0", container])
        .status()
        .expect("spawn truncate");
    assert!(status.success(), "truncate failed");
    assert_eq!(fs::metadata(container).expect("stat").len(), 0, "truncated");
    let (mut intact, mut eio) = (0, 0);
    for off in (0..twin.len() - 4096).step_by(4096) {
        match f.read_at(&mut buf, off as u64) {
            Ok(n) => {
                assert_eq!(n, 4096, "short read at {off} after the truncate");
                assert!(buf[..] == twin[off..off + 4096], "garbage at {off}");
                intact += 1;
            }
            Err(e) => {
                assert_eq!(e.raw_os_error(), Some(EIO), "read at {off}: {e}");
                eio += 1;
            }
        }
    }
    assert!(intact > 0 && eio > 0, "intact {intact}, EIO {eio}");
}

/// Every positional call refuses a negative offset with `EINVAL` on the
/// container, as on its flat twin, and changes nothing: the end `lseek`
/// and the bytes are still the twin's.
fn check_negative_offset(container: &str, twin_path: &str, twin: &[u8]) {
    for path in [container, twin_path] {
        let f = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .expect("open O_RDWR");
        let fd = f.as_raw_fd();
        let mut buf = *b"hello";
        let r = buf.as_mut_ptr() as *mut c_void;
        let w = r as *const c_void;
        let calls = [
            ("pread", unsafe { pread(fd, r, 5, -1) }, errno()),
            ("pread64", unsafe { pread64(fd, r, 5, -4096) }, errno()),
            (
                "__pread_chk",
                unsafe { __pread_chk(fd, r, 5, -1, 5) },
                errno(),
            ),
            ("pwrite", unsafe { pwrite(fd, w, 5, -1) }, errno()),
            ("pwrite64", unsafe { pwrite64(fd, w, 5, i64::MIN) }, errno()),
        ];
        for (call, ret, err) in calls {
            assert_eq!(
                (ret, err),
                (-1, EINVAL),
                "{call} at a negative offset on {path}"
            );
        }
        let end = unsafe { lseek(fd, 0, 2) };
        assert_eq!(end, twin.len() as i64, "lseek(SEEK_END) on {path}");
        drop(f);
        assert!(fs::read(path).expect("read back") == twin, "{path} changed");
    }
}

/// A seek past `off_t` is `EINVAL`, from the cursor and from the end
/// alike, and leaves the cursor where it was.
fn check_seek_overflow(container: &str) {
    const SEEK_CUR: c_int = 1;
    const SEEK_END: c_int = 2;
    let f = fs::File::open(container).expect("open container");
    let fd = f.as_raw_fd();
    assert_eq!(unsafe { lseek(fd, i64::MAX, 0) }, i64::MAX, "SEEK_SET");
    for (off, whence, name) in [(1, SEEK_CUR, "SEEK_CUR"), (i64::MAX, SEEK_END, "SEEK_END")] {
        assert_eq!(
            (unsafe { lseek(fd, off, whence) }, errno()),
            (-1, EINVAL),
            "{name} past off_t on {container}"
        );
        assert_eq!(unsafe { lseek(fd, 0, SEEK_CUR) }, i64::MAX, "{name}");
    }
}

/// The spellings LFS and `_FORTIFY_SOURCE` builds call in place of
/// `creat`, `fstatat`, `open` and `openat` (`tar`, `install` and `perl`
/// import the fortified opens) act on the container as on its flat twin:
/// each open reads the twin's bytes, `fstatat64` reports the path-stat's
/// inode and size, and `creat64` in the mount makes a container that reads
/// back what was written, as it makes a file outside. `__open_2` with
/// `O_CREAT` aborts, as glibc's does.
fn check_glibc_spellings(container: &str, twin_path: &str, twin: &[u8]) {
    const AT_FDCWD: c_int = -100;
    for path in [container, twin_path] {
        let c = std::ffi::CString::new(path).expect("path");
        let opens = [
            ("__open_2", unsafe { __open_2(c.as_ptr(), O_RDONLY) }),
            ("__open64_2", unsafe { __open64_2(c.as_ptr(), O_RDONLY) }),
            ("__openat_2", unsafe {
                __openat_2(AT_FDCWD, c.as_ptr(), O_RDONLY)
            }),
            ("__openat64_2", unsafe {
                __openat64_2(AT_FDCWD, c.as_ptr(), O_RDONLY)
            }),
        ];
        for (name, fd) in opens {
            assert!(fd >= 0, "{name}({path}): errno {}", errno());
            let mut f: fs::File = unsafe { std::os::fd::FromRawFd::from_raw_fd(fd) };
            let mut got = Vec::new();
            f.read_to_end(&mut got).expect(name);
            assert!(got == twin, "{name}({path}) read other bytes");
        }
        let mut st = [0u64; 18];
        let r = unsafe { fstatat64(AT_FDCWD, c.as_ptr(), &mut st, 0) };
        assert_eq!(r, 0, "fstatat64({path}): errno {}", errno());
        let md = fs::metadata(path).expect("stat");
        assert_eq!((st[1], st[6]), (md.ino(), md.len()), "fstatat64({path})");
    }
    let made: Vec<Vec<u8>> = [mount_dir(), outside_dir()]
        .iter()
        .map(|dir| {
            let path = format!("{dir}/creat64.out");
            let c = std::ffi::CString::new(path.as_str()).expect("path");
            let fd = unsafe { creat64(c.as_ptr(), 0o644) };
            assert!(fd >= 0, "creat64({path}): errno {}", errno());
            let mut f: fs::File = unsafe { std::os::fd::FromRawFd::from_raw_fd(fd) };
            f.write_all(&twin[..5000]).expect("write");
            drop(f);
            fs::read(&path).expect("read back")
        })
        .collect();
    assert!(
        made[0] == twin[..5000] && made[1] == twin[..5000],
        "creat64"
    );
    let container_dir = std::path::Path::new(&backend_dir()).join("creat64.out");
    assert!(container_dir.is_dir(), "creat64 made no container");
    let pid = unsafe { fork() };
    assert!(pid >= 0, "fork: errno {}", errno());
    if pid == 0 {
        // RLIMIT_CORE 0: the abort leaves no core file behind.
        unsafe { setrlimit(4, &[0, 0]) };
        let c = std::ffi::CString::new(container).expect("path");
        unsafe { __open_2(c.as_ptr(), O_CREAT) };
        unsafe { _exit(0) };
    }
    let mut status = 0;
    assert_eq!(unsafe { waitpid(pid, &mut status, 0) }, pid);
    assert_eq!(
        status & 0x7f,
        6,
        "__open_2(O_CREAT) did not abort: {status:#x}"
    );
}

/// `FD_CLOEXEC` of `fd`, as `fcntl(F_GETFD)` reports it.
fn cloexec(fd: c_int) -> bool {
    let flags = unsafe { fcntl(fd, F_GETFD) };
    assert!(flags >= 0, "F_GETFD: errno {}", errno());
    flags & FD_CLOEXEC != 0
}

/// Whether a child the shell `exec`s still holds `fd`.
fn inherited_by_exec(fd: c_int) -> bool {
    std::process::Command::new("sh")
        .arg("-c")
        .arg(format!("test -e /proc/self/fd/{fd}"))
        .status()
        .expect("spawn sh")
        .success()
}

/// `O_CLOEXEC` on a container open is kept: the descriptor is
/// close-on-exec, and an exec'd child does not inherit it; without the
/// flag it is neither.
fn check_cloexec(container: &str, twin: &[u8]) {
    let path = std::ffi::CString::new(container).expect("path");
    for (flags, want) in [(O_RDONLY | O_CLOEXEC, true), (O_RDONLY, false)] {
        let fd = unsafe { open(path.as_ptr(), flags, 0) };
        assert!(fd >= 0, "open: errno {}", errno());
        assert_eq!(cloexec(fd), want, "F_GETFD after open({flags:#o})");
        assert_eq!(
            inherited_by_exec(fd),
            !want,
            "exec'd child, open({flags:#o})"
        );
        let mut b = [0u8; 64];
        assert_eq!(unsafe { read(fd, b.as_mut_ptr() as *mut c_void, 64) }, 64);
        assert_eq!(b, twin[..64]);
        assert_eq!(unsafe { close(fd) }, 0);
    }
}

/// `fcntl(F_DUPFD)`, `fcntl(F_DUPFD_CLOEXEC)` and `File::try_clone` (which
/// is the latter) give a descriptor of the same open: it reads the
/// container, shares the cursor, outlives the original, and a write through
/// it lands in the container. Every other command passes through.
fn check_fcntl_dup(container: &str, twin: &[u8]) {
    let a = fs::File::open(container).expect("open container");
    let mut buf = [0u8; 1000];
    (&a).read_exact(&mut buf).expect("read via a");
    for (cmd, close_on_exec) in [(F_DUPFD, false), (F_DUPFD_CLOEXEC, true)] {
        let fd = unsafe { fcntl(a.as_raw_fd(), cmd, 10 as c_int) };
        assert!(fd >= 10, "fcntl({cmd}): {fd}, errno {}", errno());
        assert_eq!(cloexec(fd), close_on_exec, "fcntl({cmd})");
        let at = cursor(&a) as usize;
        let n = unsafe { read(fd, buf.as_mut_ptr() as *mut c_void, 1000) };
        assert_eq!(n, 1000, "read through fcntl({cmd})'s fd");
        assert_eq!(buf[..], twin[at..at + 1000], "fcntl({cmd}): shared cursor");
        assert_eq!(cursor(&a) as usize, at + 1000, "a sees the dup's read");
        assert_eq!(unsafe { close(fd) }, 0);
    }
    let b = a.try_clone().expect("try_clone");
    drop(a);
    let at = cursor(&b) as usize;
    (&b).read_exact(&mut buf)
        .expect("read via the clone after closing a");
    assert_eq!(buf[..], twin[at..at + 1000]);

    let in_mount = format!("{}/fcntl.dst", mount_dir());
    let w = fs::File::create(&in_mount).expect("create in mount");
    let fd = unsafe { fcntl(w.as_raw_fd(), F_DUPFD_CLOEXEC, 0 as c_int) };
    assert!(fd >= 0, "F_DUPFD_CLOEXEC of a writer");
    (&w).write_all(&twin[..3000])
        .expect("write via the original");
    let n = unsafe { write(fd, twin[3000..5000].as_ptr() as *const c_void, 2000) };
    assert_eq!(n, 2000, "write through the dup");
    drop(w);
    assert_eq!(unsafe { close(fd) }, 0);
    assert!(
        fs::read(&in_mount).expect("read back") == twin[..5000],
        "one stream"
    );
}

/// Run `child` in a forked child, which exits 0 if it returns; the
/// parent waits for it and fails if it failed.
fn in_child(child: impl FnOnce()) {
    let pid = unsafe { fork() };
    assert!(pid >= 0, "fork: errno {}", errno());
    if pid == 0 {
        let ok = std::panic::catch_unwind(std::panic::AssertUnwindSafe(child)).is_ok();
        unsafe { _exit(if ok { 0 } else { 1 }) };
    }
    let mut status = 0;
    assert_eq!(unsafe { waitpid(pid, &mut status, 0) }, pid);
    assert_eq!(status, 0, "the child failed");
}

/// A parent writes, forks, the child writes through the inherited fd and
/// exits, the parent writes again: what `dir/name` holds afterwards.
fn forked_writers(dir: &str, twin: &[u8]) -> Vec<u8> {
    let path = format!("{dir}/fork.stream");
    let f = fs::File::create(&path).expect("create");
    (&f).write_all(&twin[..3000]).expect("parent write");
    in_child(|| {
        (&f).write_all(&twin[3000..7000]).expect("child write");
        // The child's records reach the container at its close.
        assert_eq!(unsafe { close(f.as_raw_fd()) }, 0);
    });
    (&f).write_all(&twin[7000..12_000])
        .expect("parent write after the fork");
    drop(f);
    fs::read(&path).expect("read back")
}

/// A parent makes a file and forks before it writes a byte; the child
/// writes through the inherited fd and closes it, then the parent writes:
/// what `dir/fork.first` holds afterwards.
fn fork_before_the_first_write(dir: &str, twin: &[u8]) -> Vec<u8> {
    let path = format!("{dir}/fork.first");
    let f = fs::File::create(&path).expect("create");
    in_child(|| {
        (&f).write_all(&twin[..4000]).expect("child write");
        assert_eq!(unsafe { close(f.as_raw_fd()) }, 0);
    });
    (&f).write_all(&twin[4000..9000]).expect("parent write");
    drop(f);
    fs::read(&path).expect("read back")
}

/// [`fork_before_the_first_write`] in the mount and outside it: one stream,
/// byte for byte the same.
fn check_fork_first(twin: &[u8]) {
    let on_mount = fork_before_the_first_write(&mount_dir(), twin);
    assert!(
        on_mount == fork_before_the_first_write(&outside_dir(), twin),
        "fork before the first write"
    );
    assert!(on_mount == twin[..9000], "one stream");
}

/// A cursor live at a fork survives the parent closing that fd and opening
/// another file: what the child, and then the parent, read of `source`
/// through fds opened before and after the fork.
fn live_cursor_across_fork(source: &str) -> Vec<u8> {
    let a = fs::File::open(source).expect("open source");
    let mut got = vec![0u8; 1000];
    (&a).read_exact(&mut got).expect("read before the fork");
    let mut go = [0 as c_int; 2];
    assert_eq!(unsafe { pipe(&mut go) }, 0);
    let pid = unsafe { fork() };
    assert!(pid >= 0, "fork");
    if pid == 0 {
        // Wait for the parent to close its fd and open another file.
        let mut b = [0u8; 1];
        let ok = unsafe { read(go[0], b.as_mut_ptr() as *mut c_void, 1) } == 1 && {
            let mut buf = [0u8; 1000];
            (&a).read_exact(&mut buf).is_ok() && {
                let out = format!("{}/fork.child", outside_dir());
                fs::write(out, buf).is_ok()
            }
        };
        unsafe { _exit(if ok { 0 } else { 1 }) };
    }
    drop(a);
    let b = fs::File::open(source).expect("open another file");
    let mut buf = [0u8; 2000];
    (&b).read_exact(&mut buf).expect("read through the new fd");
    got.extend_from_slice(&buf);
    assert_eq!(
        unsafe { write(go[1], b"g".as_ptr() as *const c_void, 1) },
        1
    );
    let mut status = 0;
    assert_eq!(unsafe { waitpid(pid, &mut status, 0) }, pid);
    assert_eq!(status, 0, "the child failed");
    got.extend(fs::read(format!("{}/fork.child", outside_dir())).expect("child's bytes"));
    (&b).read_exact(&mut buf[..500])
        .expect("read after the child's");
    got.extend_from_slice(&buf[..500]);
    unsafe { close(go[0]) };
    unsafe { close(go[1]) };
    got
}

/// `dup`'d writers share one cursor: interleaved writes through two
/// descriptors of one open make one stream.
fn dup_writers(dir: &str, twin: &[u8]) -> Vec<u8> {
    let path = format!("{dir}/dup.stream");
    let a = fs::File::create(&path).expect("create");
    let b: fs::File = unsafe { std::os::fd::FromRawFd::from_raw_fd(dup(a.as_raw_fd())) };
    for (i, chunk) in twin[..10_000].chunks(1000).enumerate() {
        let mut f = if i % 2 == 0 { &a } else { &b };
        f.write_all(chunk).expect("write");
    }
    drop((a, b));
    fs::read(&path).expect("read back")
}

/// The fork and dup contracts, each checked byte for byte against the same
/// calls on flat files outside the mount: a child's writes through an
/// inherited fd land between its parent's, in one stream; a cursor live at
/// a fork survives the parent closing that fd and opening another file;
/// `dup`'d writers share one cursor.
fn check_fork(container: &str, twin_path: &str, twin: &[u8]) {
    let (mount, outside) = (mount_dir(), outside_dir());
    let on_mount = forked_writers(&mount, twin);
    assert!(on_mount == forked_writers(&outside, twin), "forked writers");
    assert!(on_mount == twin[..12_000], "forked writers: one stream");
    let on_mount = live_cursor_across_fork(container);
    assert!(
        on_mount == live_cursor_across_fork(twin_path),
        "cursor live at a fork"
    );
    assert!(on_mount[..1000] == twin[..1000] && on_mount[1000..3000] == twin[..2000]);
    assert!(
        on_mount[3000..4000] == twin[1000..2000],
        "the child's fd kept its offset"
    );
    assert!(
        on_mount[4000..] == twin[2000..2500],
        "the parent's new fd kept its own"
    );
    let on_mount = dup_writers(&mount, twin);
    assert!(on_mount == dup_writers(&outside, twin), "dup'd writers");
    assert!(on_mount == twin[..10_000]);
}

/// A child that only `exec`s runs no PLFS code and waits on no lock of the
/// shim's: fork, `dup2`, `close_range` and exec `true` over and over while
/// other threads write, each to a container of its own, then check that
/// every container holds exactly what its thread wrote. A fork handler
/// that took a lock a writer held at the fork hung the child, and this
/// process waiting for it; so did a `close` that found the fd table's lock
/// as a reading thread of the parent left it.
fn check_fork_exec(twin: &[u8]) {
    const FORKS: usize = 200;
    const WRITERS: usize = 3;
    const BLOCK: usize = 1000;
    const MAX_BLOCKS: usize = 8000;
    let block = |n: usize| {
        let at = n * 997 % (twin.len() - BLOCK);
        &twin[at..at + BLOCK]
    };
    let paths: Vec<String> = (0..WRITERS)
        .map(|i| format!("{}/forkexec.{i}", mount_dir()))
        .collect();
    let files: Vec<fs::File> = paths
        .iter()
        .map(|p| fs::File::create(p).expect("create"))
        .collect();
    // Everything the child touches is made before it exists.
    let prog = std::ffi::CString::new("/bin/true").expect("path");
    let argv = [prog.as_ptr(), std::ptr::null()];
    let stop = AtomicBool::new(false);
    let written: Vec<usize> = std::thread::scope(|s| {
        let writers: Vec<_> = files
            .iter()
            .map(|f| {
                s.spawn(|| {
                    // relaxed: a stop flag; the join orders what the writer did
                    let stopped = || stop.load(Ordering::Relaxed);
                    let mut n = 0;
                    while n < 2 || (n < MAX_BLOCKS && !stopped()) {
                        (&*f).write_all(block(n)).expect("write");
                        n += 1;
                    }
                    // Bounded: a child hung in a fork handler must not
                    // leave this writing until the test times out.
                    while !stopped() {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    n
                })
            })
            .collect();
        for _ in 0..FORKS {
            let pid = unsafe { fork() };
            assert!(pid >= 0, "fork: errno {}", errno());
            if pid == 0 {
                // What a launcher's child does before `exec`: move a
                // descriptor, then close every other one — containers
                // among them.
                unsafe {
                    dup2(2, 3);
                    close_range(4, u32::MAX, 0);
                    execv(prog.as_ptr(), argv.as_ptr());
                    _exit(127)
                };
            }
            let mut status = 0;
            assert_eq!(unsafe { waitpid(pid, &mut status, 0) }, pid);
            assert_eq!(status, 0, "the exec'd child failed");
        }
        stop.store(true, Ordering::Relaxed); // relaxed: as above
        writers
            .into_iter()
            .map(|w| w.join().expect("a writer"))
            .collect()
    });
    drop(files);
    for (path, n) in paths.iter().zip(written) {
        let want: Vec<u8> = (0..n).flat_map(block).copied().collect();
        assert!(
            fs::read(path).expect("read back") == want,
            "{path}: {n} blocks written across {FORKS} forks"
        );
    }
}

/// `close_range` and `closefrom` free what `close` frees. A container fd in
/// the range is released, not left registered for the next file to take
/// its number; the template reserved fds are duplicated from is forgotten
/// if its number is in the range, not duplicated once a pipe holds it.
fn check_close_range(container: &str, twin: &[u8]) {
    let path = std::ffi::CString::new(container).expect("path");
    for tag in ["close_range", "closefrom"] {
        let closer = |lo: c_int| match tag {
            "close_range" => assert_eq!(unsafe { close_range(lo as u32, u32::MAX, 0) }, 0),
            _ => unsafe { closefrom(lo) },
        };
        let lo = unsafe { dup(0) };
        assert!(
            lo >= 0 && unsafe { close(lo) } == 0,
            "{tag}: lowest free fd"
        );
        // The template, if this open makes it, and `a` are both ≥ lo.
        let a = unsafe { open(path.as_ptr(), O_RDONLY, 0) };
        assert!(a >= lo, "{tag}: open: errno {}", errno());
        closer(lo);
        let mut b = [0u8; 64];
        let n = unsafe { read(a, b.as_mut_ptr() as *mut c_void, 64) };
        assert_eq!((n, errno()), (-1, EBADF), "{tag}: read of the closed fd");
        let mut p = [0 as c_int; 2];
        assert_eq!(unsafe { pipe(&mut p) }, 0);
        let fd = unsafe { open(path.as_ptr(), O_RDONLY, 0) };
        assert!(fd >= 0, "{tag}: reopen: errno {}", errno());
        let names = fs::read_link(format!("/proc/self/fd/{fd}")).expect("readlink");
        assert!(
            names
                .to_string_lossy()
                .starts_with("/memfd:ldplfs-reserved"),
            "{tag}: the reserved fd is a duplicate of {names:?}"
        );
        assert_eq!(unsafe { write(p[1], b"x".as_ptr() as *const c_void, 1) }, 1);
        assert_eq!(unsafe { close(p[1]) }, 0);
        let n = unsafe { read(p[0], b.as_mut_ptr() as *mut c_void, 64) };
        assert_eq!((n, b[0]), (1, b'x'), "{tag}: the pipe's byte");
        let n = unsafe { read(p[0], b.as_mut_ptr() as *mut c_void, 64) };
        assert_eq!(n, 0, "{tag}: EOF once the write end is closed");
        let n = unsafe { read(fd, b.as_mut_ptr() as *mut c_void, 64) };
        assert_eq!(n, 64, "{tag}: read of the reopened container");
        assert_eq!(b, twin[..64]);
        assert_eq!(unsafe { close(fd) }, 0);
        assert_eq!(unsafe { close(p[0]) }, 0);
    }
}

/// Write `bytes` to a new container `name` in the mount, read it back
/// through the shim, and check that the backend holds it: the creator's
/// data dropping is the bytes written.
fn container_round_trip(name: &str, bytes: &[u8]) {
    let path = format!("{}/{name}", mount_dir());
    fs::write(&path, bytes).unwrap_or_else(|e| panic!("write {name}: {e}"));
    let back = fs::read(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
    assert!(back == bytes, "{name}: read back differs");
    let dir = format!("{}/{name}", backend_dir());
    let data: Vec<_> = fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("dropping.data.")
        })
        .collect();
    assert_eq!(data.len(), 1, "{dir}: {data:?}");
    assert!(
        fs::read(&data[0]).expect("the dropping") == bytes,
        "{dir}: the dropping differs"
    );
}

/// A relative `LDPLFS_BACKEND` is fixed at the shim's first call: after a
/// `chdir` the container written before still reads back, and one written
/// after lands beside it, not under the new working directory.
fn check_chdir(container: &str, twin: &[u8]) {
    fs::write(container, &twin[..20_000]).expect("write before the chdir");
    std::env::set_current_dir(outside_dir()).expect("chdir");
    let back = fs::read(container).expect("read back after the chdir");
    assert!(back == twin[..20_000], "the container written before");
    let after = format!("{container}.after");
    fs::write(&after, &twin[20_000..50_000]).expect("write after the chdir");
    assert!(fs::read(&after).expect("read back") == twin[20_000..50_000]);
}

/// The descriptor of the backend directory the shim holds, found by its
/// name in `/proc/self/fd`.
fn backing_root() -> c_int {
    let backend = fs::canonicalize(backend_dir()).expect("the backend");
    let fds = fs::read_dir("/proc/self/fd").expect("/proc/self/fd");
    let mut roots: Vec<c_int> = fds
        .map(|e| e.expect("entry").file_name())
        .filter(|fd| {
            fs::read_link(format!("/proc/self/fd/{}", fd.to_string_lossy()))
                .is_ok_and(|t| t == backend)
        })
        .map(|fd| fd.to_string_lossy().parse().expect("a number"))
        .collect();
    assert_eq!(roots.len(), 1, "descriptors of {backend:?}: {roots:?}");
    roots.pop().unwrap()
}

/// The backing root descriptor is the shim's own: `closefrom`,
/// `close_range` and `close` leave it open, and `dup2` onto its number
/// moves it first. After each, a container is created, written, closed and
/// read back, and checked against the backend byte for byte.
fn check_backing_root(twin: &[u8]) {
    let bytes = |i: usize| &twin[i * 10_000..(i + 5) * 10_000];
    container_round_trip("root.first", bytes(0));
    let root = backing_root();
    unsafe { closefrom(3) };
    assert_eq!(backing_root(), root, "closefrom closed around the root");
    container_round_trip("root.closefrom", bytes(1));
    assert_eq!(unsafe { close_range(3, u32::MAX, 0) }, 0);
    assert_eq!(backing_root(), root, "close_range closed around the root");
    container_round_trip("root.close_range", bytes(2));
    assert_eq!(
        (unsafe { close(root) }, errno()),
        (-1, EBADF),
        "close of the root"
    );
    assert_eq!(backing_root(), root, "the root stays open");
    container_round_trip("root.close", bytes(3));
    let mut p = [0 as c_int; 2];
    assert_eq!(unsafe { pipe(&mut p) }, 0);
    assert_eq!(
        unsafe { dup2(p[0], root) },
        root,
        "dup2 onto the root's number"
    );
    assert_ne!(backing_root(), root, "the root moved");
    assert_eq!(unsafe { write(p[1], b"x".as_ptr() as *const c_void, 1) }, 1);
    let mut b = [0u8; 1];
    let n = unsafe { read(root, b.as_mut_ptr() as *mut c_void, 1) };
    assert_eq!((n, b[0]), (1, b'x'), "the pipe at the root's old number");
    container_round_trip("root.dup2", bytes(4));
    for fd in [p[0], p[1], root] {
        assert_eq!(unsafe { close(fd) }, 0);
    }
}

/// N 4 KiB writes to a new file in the mount.
fn calls_write(n: usize) {
    let path = std::ffi::CString::new(format!("{}/calls.w", mount_dir())).expect("path");
    let fd = unsafe { open(path.as_ptr(), O_WRONLY | O_CREAT | O_TRUNC, 0o644) };
    assert!(fd >= 0, "open: errno {}", errno());
    let block = [7u8; 4096];
    for _ in 0..n {
        assert_eq!(
            unsafe { write(fd, block.as_ptr() as *const c_void, 4096) },
            4096
        );
    }
    assert_eq!(unsafe { close(fd) }, 0);
}

/// N 4 KiB reads of `container` at the cursor.
fn calls_read(n: usize, container: &str) {
    let path = std::ffi::CString::new(container).expect("path");
    let fd = unsafe { open(path.as_ptr(), O_RDONLY, 0) };
    assert!(fd >= 0, "open: errno {}", errno());
    let mut block = [0u8; 4096];
    for _ in 0..n {
        assert_eq!(
            unsafe { read(fd, block.as_mut_ptr() as *mut c_void, 4096) },
            4096
        );
    }
    assert_eq!(unsafe { close(fd) }, 0);
}

/// N small-file cycles, as the benchmark's `meta_storm` client makes them:
/// create, write ≈ 1 KiB, close, stat, open, read, close, unlink.
fn calls_cycle(n: usize) {
    let path = std::ffi::CString::new(format!("{}/calls.small", mount_dir())).expect("path");
    let (p, data) = (path.as_ptr(), [3u8; 1000]);
    let mut buf = [0u8; 1000];
    for _ in 0..n {
        let fd = unsafe { open(p, O_WRONLY | O_CREAT | O_TRUNC, 0o644) };
        assert!(fd >= 0, "create: errno {}", errno());
        assert_eq!(
            unsafe { write(fd, data.as_ptr() as *const c_void, 1000) },
            1000
        );
        assert_eq!(unsafe { close(fd) }, 0);
        let mut st = [0u64; 18];
        assert_eq!(unsafe { stat(p, &mut st) }, 0);
        assert_eq!(st[6], 1000, "st_size");
        let fd = unsafe { open(p, O_RDONLY, 0) };
        assert!(fd >= 0, "open: errno {}", errno());
        assert_eq!(
            unsafe { read(fd, buf.as_mut_ptr() as *mut c_void, 1000) },
            1000
        );
        assert_eq!(unsafe { close(fd) }, 0);
        assert_eq!(unsafe { unlink(p) }, 0);
    }
}

/// N 32 KiB `fread`s of FILE, in the mount or not, through one `fopen`
/// stream.
fn calls_fread(n: usize, file: &str) {
    let path = std::ffi::CString::new(file).expect("path");
    let stream = unsafe { fopen(path.as_ptr(), c"r".as_ptr()) };
    assert!(!stream.is_null(), "fopen: errno {}", errno());
    let mut buf = vec![0u8; 32 << 10];
    for _ in 0..n {
        let got = unsafe { fread(buf.as_mut_ptr() as *mut c_void, 1, buf.len(), stream) };
        assert_eq!(got, buf.len(), "a short fread");
    }
    assert_eq!(unsafe { fclose(stream) }, 0, "fclose");
}

fn iov(buf: &mut [u8]) -> IoVec {
    IoVec {
        iov_base: buf.as_mut_ptr() as *mut c_void,
        iov_len: buf.len(),
    }
}

/// Vectored round-trip on one already-open file: writev two buffers at the
/// cursor, pwritev a patch, then readv/preadv them back.
fn vectored_roundtrip(fd: c_int, tag: &str) {
    let mut a = *b"vector-head:";
    let mut b = *b"0123456789";
    let n = unsafe { writev(fd, [iov(&mut a), iov(&mut b)].as_ptr(), 2) };
    assert_eq!(n, 22, "writev short ({tag})");
    let mut patch = *b"XY";
    let n = unsafe { pwritev(fd, [iov(&mut patch)].as_ptr(), 1, 12) };
    assert_eq!(n, 2, "pwritev short ({tag})");

    let mut r1 = [0u8; 12];
    let mut r2 = [0u8; 10];
    let n = unsafe { preadv(fd, [iov(&mut r1), iov(&mut r2)].as_ptr(), 2, 0) };
    assert_eq!(n, 22, "preadv short ({tag})");
    assert_eq!(&r1, b"vector-head:", "head bytes ({tag})");
    assert_eq!(&r2, b"XY23456789", "patched tail ({tag})");

    let mut whole = [0u8; 22];
    let n = unsafe { readv(fd, [iov(&mut whole)].as_ptr(), 1) };
    assert_eq!(n, 0, "cursor at EOF after writev ({tag})");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(kind) = args.first().and_then(|m| m.strip_prefix("calls-")) {
        let n = args
            .get(1)
            .and_then(|n| n.parse().ok())
            .expect("calls-KIND N");
        match kind {
            "write" => calls_write(n),
            "read" => calls_read(n, args.get(2).expect("calls-read N CONTAINER")),
            "fread" => calls_fread(n, args.get(2).expect("calls-fread N FILE")),
            "cycle" => calls_cycle(n),
            other => panic!("unknown call kind {other}"),
        }
        return;
    }
    if let [mode, container, twin_path] = args.as_slice() {
        let twin = fs::read(twin_path).expect("read the flat twin");
        match mode.as_str() {
            "fstat" => check_fstat(container, &twin),
            "movers" => check_movers(container, &twin),
            "mmap" => check_mmap(container, &twin),
            "stdio" => check_stdio(container, &twin),
            "dup" => check_dup(container, &twin),
            "dup2-writer" => check_dup2_writer(container, &twin),
            "dup2-self" => check_dup2_self(container, &twin),
            "close-error" => check_close_error(),
            "truncate" => check_truncate(container, &twin),
            "cloexec" => check_cloexec(container, &twin),
            "fcntl-dup" => check_fcntl_dup(container, &twin),
            "fork" => check_fork(container, twin_path, &twin),
            "fork-exec" => check_fork_exec(&twin),
            "fork-first" => check_fork_first(&twin),
            "close-range" => check_close_range(container, &twin),
            "chdir" => check_chdir(container, &twin),
            "backing-root" => check_backing_root(&twin),
            "negative-offset" => check_negative_offset(container, twin_path, &twin),
            "seek-overflow" => check_seek_overflow(container),
            "glibc-spellings" => check_glibc_spellings(container, twin_path, &twin),
            other => panic!("unknown mode {other}"),
        }
        println!("preload smoke {mode} OK");
        return;
    }
    assert!(
        args.is_empty(),
        "usage: preload-smoke [MODE CONTAINER TWIN]"
    );
    let mount = mount_dir();
    let outside = outside_dir();

    // 1. Write/read/seek inside the mount (intercepted).
    let path = format!("{mount}/smoke.dat");
    let payload = b"interposed payload: 0123456789abcdef";
    {
        let mut f = fs::File::create(&path).expect("create in mount");
        f.write_all(payload).expect("write in mount");
    }
    {
        let mut f = fs::File::open(&path).expect("open in mount");
        let mut buf = Vec::new();
        f.read_to_end(&mut buf).expect("read in mount");
        assert_eq!(buf, payload, "roundtrip through the preload");
        let pos = f.seek(SeekFrom::End(-6)).expect("seek end");
        assert_eq!(pos as usize, payload.len() - 6);
        let mut tail = String::new();
        f.read_to_string(&mut tail).expect("tail read");
        assert_eq!(tail, "abcdef");
    }
    let md = fs::metadata(&path).expect("stat in mount");
    assert_eq!(md.len() as usize, payload.len(), "fstatat size");

    // 2. Passthrough outside the mount.
    let out_path = format!("{outside}/plain.dat");
    fs::write(&out_path, b"plain").expect("write outside");
    assert_eq!(fs::read(&out_path).expect("read outside"), b"plain");

    // 3. Unlink inside the mount.
    fs::remove_file(&path).expect("unlink in mount");
    assert!(fs::metadata(&path).is_err(), "gone after unlink");

    // 4. Vectored I/O: same round-trip on a tracked PLFS fd (routed into
    //    list I/O) and on a plain fd outside the mount (passthrough) —
    //    both must behave identically.
    {
        let f = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(format!("{mount}/vectored.dat"))
            .expect("create vectored file in mount");
        vectored_roundtrip(f.as_raw_fd(), "mount");
    }
    {
        let f = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(format!("{outside}/vectored.dat"))
            .expect("create vectored file outside");
        vectored_roundtrip(f.as_raw_fd(), "outside");
    }
    assert_eq!(
        fs::metadata(format!("{mount}/vectored.dat"))
            .expect("stat vectored")
            .len(),
        fs::metadata(format!("{outside}/vectored.dat"))
            .expect("stat plain vectored")
            .len(),
        "vectored writes produced the same logical size in and out of the mount"
    );

    println!("preload smoke OK");
}
