//! Regression tests for shim robustness on hostile input — the bugs the
//! `plfs-lint` sweep surfaced (PR 4). An interposition shim runs inside
//! unsuspecting host processes, so a malformed `plfsrc` or an fd it never
//! tracked must come back as an error return, never a panic.

use ldplfs::{from_plfsrc, Errno, LdPlfs, OpenFlags, PosixLayer, RealPosix, Whence};
use plfs::{MemBacking, PlfsRc};
use std::sync::Arc;

fn shim(name: &str) -> LdPlfs {
    let dir = std::env::temp_dir().join(format!("ldplfs-robust-{}-{}", name, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let under = Arc::new(RealPosix::rooted(dir).unwrap());
    from_plfsrc(under, "mount_point /plfs\nbackends /be\n", |_| {
        Arc::new(MemBacking::new())
    })
    .unwrap()
}

// --- malformed plfsrc: every line below used to panic (debug overflow) or
// --- silently mis-parse; all must now be clean parse errors.

#[test]
fn num_hostdirs_truncation_is_an_error() {
    // 2^32 + 1 used to truncate through `as u32` to a silently-accepted 1.
    let rc = "mount_point /x\nbackends /be\nnum_hostdirs 4294967297\n";
    assert!(PlfsRc::parse(rc).is_err());
    // 2^32 exactly truncated to 0 and was caught only by the nonzero check;
    // now it is rejected as out of range up front.
    let rc = "mount_point /x\nbackends /be\nnum_hostdirs 4294967296\n";
    assert!(PlfsRc::parse(rc).is_err());
}

#[test]
fn malformed_plfsrc_maps_to_einval_through_the_shim() {
    for rc in [
        "mount_point\n",                                    // key without value
        "mount_point /x\nbackends /be\nnum_hostdirs zap\n", // non-numeric
        "mount_point /x\nbackends /be\nworkload never\n",   // bad enum
        "backends /be\n",                                   // key before any mount
        "mount_point /x\n",                                 // mount with no backends
        "mount_point /x\nbackends /be\nmeta_cache_entries 18446744073709551616\n", // past u64
    ] {
        let dir = std::env::temp_dir().join(format!("ldplfs-einval-{}", std::process::id()));
        let under = Arc::new(RealPosix::rooted(dir).unwrap());
        let err = from_plfsrc(under, rc, |_| Arc::new(MemBacking::new()))
            .err()
            .unwrap_or_else(|| panic!("plfsrc {rc:?} must be rejected"));
        assert_eq!(err, Errno::EINVAL, "{rc:?}");
    }
}

// --- untracked fds: operations on descriptors the shim never opened must
// --- come back as error returns from the under layer, never a panic.

#[test]
fn untracked_fd_ops_error_cleanly() {
    let s = shim("untracked");
    let bogus = 9_999;
    assert!(s.write(bogus, b"x").is_err());
    assert!(s.read(bogus, &mut [0u8; 8]).is_err());
    assert!(s.lseek(bogus, 0, Whence::Set).is_err());
    assert!(s.fstat(bogus).is_err());
    assert!(s.fsync(bogus).is_err());
    assert!(s.close(bogus).is_err());
    assert!(s.dup(bogus).is_err());
    assert!(s.ftruncate(bogus, 0).is_err());
}

#[test]
fn untracked_fd_vectored_ops_pass_through_not_panic() {
    let s = shim("untracked-vec");
    let bogus = 9_999;
    let mut a = [0u8; 4];
    let mut b = [0u8; 4];
    assert!(s.readv(bogus, &mut [&mut a[..], &mut b[..]]).is_err());
    assert!(s.writev(bogus, &[b"x", b"y"]).is_err());
    assert!(s.preadv(bogus, &mut [&mut a[..]], 0).is_err());
    assert!(s.pwritev(bogus, &[b"x"], 0).is_err());
    assert!(s.preadv2(bogus, &mut [&mut a[..]], -1, 0).is_err());
    assert!(s.pwritev2(bogus, &[b"x"], -1, 0).is_err());
    // An fd genuinely open on the UNDER layer (outside any mount) must be
    // served by the under layer, not mistaken for a PLFS fd: the regression
    // this guards is vectored calls on a tracked fd silently hitting the
    // reserved backing fd (and vice versa).
    let fd = s
        .open("/outside.bin", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
        .unwrap();
    assert_eq!(s.writev(fd, &[b"ab", b"cd"]).unwrap(), 4);
    s.lseek(fd, 0, Whence::Set).unwrap();
    let mut buf = [0u8; 4];
    assert_eq!(s.readv(fd, &mut [&mut buf[..]]).unwrap(), 4);
    assert_eq!(&buf, b"abcd");
    s.close(fd).unwrap();
    assert_eq!(s.underlying().stat("/outside.bin").unwrap().size, 4);
    assert!(
        !s.mounts()[0].plfs.is_container("/outside.bin"),
        "outside-the-mount vectored writes must not create a container"
    );
}

#[test]
fn tracked_fd_vectored_ops_route_to_plfs_not_backing() {
    let s = shim("tracked-vec");
    let fd = s
        .open("/plfs/vec.bin", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
        .unwrap();
    assert_eq!(s.writev(fd, &[b"1234", b"5678"]).unwrap(), 8);
    s.lseek(fd, 0, Whence::Set).unwrap();
    let mut a = [0u8; 3];
    let mut b = [0u8; 5];
    assert_eq!(s.readv(fd, &mut [&mut a[..], &mut b[..]]).unwrap(), 8);
    assert_eq!(&a, b"123");
    assert_eq!(&b, b"45678");
    s.close(fd).unwrap();
    // The bytes live in a PLFS container, not in the scratch/backing file:
    // before the shim grew vectored overrides, readv/writev fell through to
    // the reserved (empty) backing fd and silently returned its contents.
    assert!(s.mounts()[0].plfs.is_container("/vec.bin"));
    assert_eq!(s.stat("/plfs/vec.bin").unwrap().size, 8);
    assert!(
        s.underlying().stat("/plfs/vec.bin").is_err(),
        "no shadow file on the real FS"
    );
}

#[test]
fn close_is_not_double_closeable() {
    let s = shim("doubleclose");
    let fd = s
        .open("/plfs/f", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
        .unwrap();
    s.write(fd, b"payload").unwrap();
    s.close(fd).unwrap();
    // The fd is gone from the table; a second close must be a clean error
    // (and must not disturb other state).
    assert!(s.close(fd).is_err());
    assert_eq!(s.stat("/plfs/f").unwrap().size, 7);
}

#[test]
fn ops_straddling_the_mount_still_work_after_rejected_fds() {
    // A shim that has just served errors keeps serving normal traffic —
    // the error paths must not poison any internal lock or table.
    let s = shim("recover");
    let _ = s.write(12345, b"x");
    let _ = s.close(54321);
    let fd = s
        .open("/plfs/ok", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
        .unwrap();
    s.write(fd, b"still works").unwrap();
    s.lseek(fd, 0, Whence::Set).unwrap();
    let mut buf = [0u8; 11];
    assert_eq!(s.read(fd, &mut buf).unwrap(), 11);
    assert_eq!(&buf, b"still works");
    s.close(fd).unwrap();
}
