//! Smoke-test binary for the LD_PRELOAD library.
//!
//! Run *under* the preload (`LD_PRELOAD=...libldplfs_preload.so`): its
//! plain `std::fs` calls route through libc and therefore through the
//! interposed symbols. With no argument it exits 0 after verifying a
//! write/read/seek/stat round-trip inside the mount and passthrough outside
//! it. `preload-smoke MODE CONTAINER TWIN` instead runs one check of the
//! read path on an existing container against its flat twin outside the
//! mount (same bytes): `fstat`, `movers`, `mmap`, `stdio`, `dup`,
//! `dup2-writer`, `dup2-self`, `close-error`, `truncate` — see each
//! `check_*`.

use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::os::fd::AsRawFd;
use std::os::raw::{c_char, c_int, c_long, c_void};
use std::os::unix::fs::{FileExt, MetadataExt};

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
}

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

/// A read-only map shows the container's bytes and leaves the cursor alone;
/// the reserved fd is filled once (a byte scribbled into it by raw syscall
/// survives a second map); a writable fd cannot be mapped.
fn check_mmap(container: &str, twin: &[u8]) {
    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    const SYS_PWRITE64: c_long = 18; // x86_64
    let failed = -1isize as *mut c_void;
    let f = fs::File::open(container).expect("open container");
    let fd = f.as_raw_fd();
    let map =
        |len: usize| unsafe { mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, fd, 0) };
    let first = map(twin.len());
    assert_ne!(first, failed, "mmap failed: errno {}", errno());
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
    // Below the shim: mark the reserved fd itself.
    let mark = [!twin[0]];
    assert_eq!(
        unsafe { syscall(SYS_PWRITE64, fd, mark.as_ptr(), 1usize, 0i64) },
        1
    );
    let second = map(1);
    assert_ne!(second, failed, "second mmap failed: errno {}", errno());
    assert_eq!(
        unsafe { *(second as *const u8) },
        mark[0],
        "second map refilled the fd"
    );
    let mut b = [0u8; 1];
    f.read_exact_at(&mut b, 0).expect("pread");
    assert_eq!(b[0], twin[0], "pread never reads the reserved fd");

    let w = fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(container)
        .expect("open container read-write");
    let got = unsafe {
        mmap(
            std::ptr::null_mut(),
            1,
            PROT_READ,
            MAP_PRIVATE,
            w.as_raw_fd(),
            0,
        )
    };
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
    let backend = std::env::var("LDPLFS_BACKEND").expect("LDPLFS_BACKEND not set");
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
    if let [mode, container, twin] = args.as_slice() {
        let twin = fs::read(twin).expect("read the flat twin");
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
