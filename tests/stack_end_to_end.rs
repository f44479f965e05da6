//! Integration: the full real-execution stack, wired the way a user would.
//!
//! A backing directory on the real file system → PLFS → LDPLFS shim →
//! plain POSIX calls. Spans the `plfs` and `ldplfs` crates.

use ldplfs::{LdPlfsBuilder, OpenFlags, PosixLayer, RealPosix, Whence};
use plfs::{Plfs, RealBacking};
use std::sync::Arc;

fn stack(tag: &str) -> (Arc<dyn PosixLayer>, std::path::PathBuf) {
    let root = std::env::temp_dir().join(format!("ldplfs-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let under = Arc::new(RealPosix::rooted(root.join("fs")).unwrap());
    let backing = Arc::new(RealBacking::new(root.join("backend")).unwrap());
    let plfs = Plfs::new(backing);
    let shim = LdPlfsBuilder::new(under)
        .mount("/plfs", plfs)
        .build()
        .unwrap();
    (Arc::new(shim), root)
}

#[test]
fn configured_stack_round_trips() {
    let (shim, root) = stack("rc");
    let fd = shim
        .open("/plfs/data", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
        .unwrap();
    let payload: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
    let mut written = 0;
    while written < payload.len() {
        written += shim.write(fd, &payload[written..]).unwrap();
    }
    shim.lseek(fd, 0, Whence::Set).unwrap();
    let mut back = vec![0u8; payload.len()];
    let mut read = 0;
    while read < back.len() {
        let n = shim.read(fd, &mut back[read..]).unwrap();
        assert!(n > 0);
        read += n;
    }
    shim.close(fd).unwrap();
    assert_eq!(back, payload);

    // The backend really holds a container (visible on the host FS), its
    // creator's data dropping marking it: the params are the defaults.
    let container = root.join("backend/data");
    assert!(container.join("dropping.data.creator.0").exists());
    assert!(!container.join(".plfsaccess").exists());
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn flatten_extracts_container_without_fuse() {
    let (shim, root) = stack("flatten");
    let data: Vec<u8> = (0..50_000u32).map(|i| (i * 7 % 256) as u8).collect();
    let fd = shim
        .open("/plfs/dump", OpenFlags::WRONLY | OpenFlags::CREAT, 0o644)
        .unwrap();
    assert_eq!(shim.write(fd, &data).unwrap(), data.len());
    shim.close(fd).unwrap();

    // Raw-data extraction via the library (the paper's "get data out of
    // PLFS structures" use case).
    let backing = RealBacking::new(root.join("backend")).unwrap();
    let flat = plfs::flatten::flatten_to_vec(&backing, "/dump").unwrap();
    assert_eq!(flat, data);

    // And the logical→physical map names real dropping files.
    let map = plfs::flatten::map(&backing, "/dump").unwrap();
    assert!(!map.is_empty());
    for e in &map {
        assert!(e.dropping.contains("dropping.data."));
    }
    let _ = std::fs::remove_dir_all(&root);
}
