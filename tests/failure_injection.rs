//! Integration: storage failures propagate cleanly through the whole stack
//! (faulty backing → PLFS → shim → application code), and recovery tooling
//! restores service.

use ldplfs::{Errno, LdPlfsBuilder, OpenFlags, PosixLayer, RealPosix};
use plfs::{ContainerParams, FaultKind, FaultOp, FaultRule, Faulty, MemBacking, Plfs};
use std::sync::Arc;

fn stack(tag: &str) -> (Arc<Faulty>, ldplfs::LdPlfs) {
    stack_with(tag, ContainerParams::default())
}

/// [`stack`] over a mount whose new files get `params`.
fn stack_with(tag: &str, params: ContainerParams) -> (Arc<Faulty>, ldplfs::LdPlfs) {
    let dir = std::env::temp_dir().join(format!("ldplfs-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let under = Arc::new(RealPosix::rooted(dir).unwrap());
    let faulty = Arc::new(Faulty::new(Arc::new(MemBacking::new())));
    let shim = LdPlfsBuilder::new(under)
        .mount("/plfs", Plfs::new(faulty.clone()).with_params(params))
        .build()
        .unwrap();
    (faulty, shim)
}

fn rule(op: FaultOp, path: &str, after: u64, times: u64) -> FaultRule {
    FaultRule {
        op,
        path_contains: path.to_string(),
        after,
        times,
        errno_like: FaultKind::Io,
    }
}

#[test]
fn write_faults_reach_the_posix_caller_as_eio() {
    let (faulty, shim) = stack("eio");
    let fd = shim
        .open("/plfs/f", OpenFlags::WRONLY | OpenFlags::CREAT, 0o644)
        .unwrap();
    shim.write(fd, b"ok before fault").unwrap();
    faulty.arm(rule(FaultOp::Write, "dropping.data", 0, u64::MAX));
    let err = shim.write(fd, b"this fails").unwrap_err();
    assert_eq!(err, Errno::EIO, "EIO surfaces at the POSIX boundary");
    // Metadata ops unaffected by the data-path fault.
    assert!(shim.stat("/plfs/f").is_ok());
}

#[test]
fn transient_fault_heals_without_reopen() {
    let (faulty, shim) = stack("transient");
    let fd = shim
        .open("/plfs/f", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
        .unwrap();
    shim.write(fd, b"0123456789").unwrap();
    faulty.arm(rule(FaultOp::Read, "dropping.data", 0, 2));
    let mut buf = [0u8; 10];
    assert!(shim.pread(fd, &mut buf, 0).is_err());
    assert!(shim.pread(fd, &mut buf, 0).is_err());
    // Third attempt: the storage has "recovered"; same fd keeps working.
    assert_eq!(shim.pread(fd, &mut buf, 0).unwrap(), 10);
    assert_eq!(&buf, b"0123456789");
    shim.close(fd).unwrap();
}

#[test]
fn open_fault_leaves_no_half_container() {
    // The skeleton's last op: with the default params, the create of the
    // creator's data dropping; with others, the access file — its create,
    // then the write of its bytes.
    let other = ContainerParams {
        num_hostdirs: 8,
        ..ContainerParams::default()
    };
    let cases = [
        (
            ContainerParams::default(),
            "dropping.data",
            &[FaultOp::Create][..],
        ),
        (other, ".plfsaccess", &[FaultOp::Create, FaultOp::Write][..]),
    ];
    for (params, file, ops) in cases {
        let (faulty, shim) = stack_with(&format!("halfopen{}", params.num_hostdirs), params);
        let flags = OpenFlags::WRONLY | OpenFlags::CREAT;
        let backing: &dyn plfs::Backing = faulty.as_ref();
        for &op in ops {
            faulty.arm(FaultRule {
                op,
                path_contains: file.to_string(),
                after: 0,
                times: 1,
                errno_like: FaultKind::NoSpace,
            });
            assert_eq!(shim.open("/plfs/f", flags, 0o644).err(), Some(Errno(28)));
            // What the create made was rolled back — a bare directory would
            // read as a nascent container to every later create.
            assert!(
                !backing.exists("/f"),
                "{op:?} {file}: half-created skeleton left"
            );
        }
        // So the *same* path is creatable the moment storage recovers, with
        // no wait.
        let t0 = std::time::Instant::now();
        let fd = shim.open("/plfs/f", flags, 0o644).unwrap();
        assert!(t0.elapsed() < std::time::Duration::from_millis(500));
        shim.write(fd, b"fine").unwrap();
        shim.close(fd).unwrap();
        assert_eq!(shim.stat("/plfs/f").unwrap().size, 4);
    }
}

#[test]
fn torn_index_detected_then_repaired_through_tools() {
    let (faulty, shim) = stack("repairflow");
    let fd = shim
        .open("/plfs/ckpt", OpenFlags::WRONLY | OpenFlags::CREAT, 0o644)
        .unwrap();
    shim.write(fd, &[0xCD; 4096]).unwrap();
    shim.close(fd).unwrap();

    // Simulate a crash tearing the index mid-append.
    let backing: &dyn plfs::Backing = {
        // The Faulty wraps the MemBacking; go through it directly.
        faulty.as_ref()
    };
    let droppings = plfs::container::list_droppings(backing, "/ckpt").unwrap();
    let ip = droppings[0].index_path.clone().unwrap();
    let f = backing.open(&ip, true).unwrap();
    f.append(&[0xEE; 13]).unwrap();
    drop(f);

    let report = plfs::check(backing, "/ckpt").unwrap();
    assert!(!report.is_clean());
    let rep = plfs::repair(backing, "/ckpt", true).unwrap();
    assert_eq!(rep.indices_truncated, 1);

    // Post-repair, the shim reads the full checkpoint again.
    let fd = shim.open("/plfs/ckpt", OpenFlags::RDONLY, 0).unwrap();
    let mut buf = vec![0u8; 4096];
    assert_eq!(shim.pread(fd, &mut buf, 0).unwrap(), 4096);
    assert!(buf.iter().all(|&b| b == 0xCD));
    shim.close(fd).unwrap();
}

#[test]
fn enospc_during_checkpoint_reported_not_swallowed() {
    let (faulty, shim) = stack("enospc");
    let fd = shim
        .open("/plfs/big", OpenFlags::WRONLY | OpenFlags::CREAT, 0o644)
        .unwrap();
    // Storage fills after 3 successful data writes.
    faulty.arm(FaultRule {
        op: FaultOp::Write,
        path_contains: "dropping.data".to_string(),
        after: 3,
        times: u64::MAX,
        errno_like: FaultKind::NoSpace,
    });
    let chunk = [1u8; 1024];
    let mut written = 0usize;
    let mut failed_errno = None;
    for _ in 0..10 {
        match shim.write(fd, &chunk) {
            Ok(n) => written += n,
            Err(e) => {
                failed_errno = Some(e);
                break;
            }
        }
    }
    assert_eq!(written, 3 * 1024, "exactly the writes that fit");
    assert_eq!(failed_errno, Some(Errno(28)), "ENOSPC propagated verbatim");
}

/// Regression: every error opening the access file read as "no access
/// file, not a container". A cold `open(O_RDONLY)` answered `EINVAL`
/// (`NotContainer`), and a cold non-exclusive `open(O_CREAT)` took the
/// container for a nascent one, slept the whole create-race wait and
/// answered `EEXIST`. Only `ENOENT` means there is none: anything else is
/// returned as it is, with no wait.
#[test]
fn an_access_file_that_cannot_be_opened_keeps_its_errno() {
    let faulty = Arc::new(Faulty::new(Arc::new(MemBacking::new())));
    Plfs::new(faulty.clone()).create("/f", true).unwrap();
    faulty.arm(FaultRule {
        op: FaultOp::Open,
        path_contains: ".plfsaccess".to_string(),
        after: 0,
        times: u64::MAX,
        errno_like: FaultKind::Access,
    });
    let flags = [
        plfs::OpenFlags::RDONLY,
        plfs::OpenFlags::WRONLY | plfs::OpenFlags::CREAT,
    ];
    for flags in flags {
        // A cold mount: nothing cached about /f.
        let plfs = Plfs::new(faulty.clone());
        let t0 = std::time::Instant::now();
        let err = plfs
            .open("/f", flags, 1)
            .err()
            .expect("an unreadable access file");
        assert_eq!(err.errno(), 13, "{flags:?}: {err:?}");
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(500),
            "{flags:?}: waited {:?}",
            t0.elapsed()
        );
    }
}
