//! Quickstart: transparent PLFS through LDPLFS in five minutes.
//!
//! Builds the paper's whole stack on a temp directory: a PLFS file system
//! over a real backing store, the LDPLFS shim over it, then an unmodified
//! "application" doing plain POSIX I/O that lands in a container.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use ldplfs::{LdPlfsBuilder, OpenFlags, PosixLayer, RealPosix, Whence};
use plfs::{Plfs, RealBacking};
use std::sync::Arc;

fn main() {
    let root = std::env::temp_dir().join(format!("ldplfs-quickstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // 1. The "system": a real POSIX layer (libc stand-in) and a PLFS
    //    backing directory, as `LDPLFS_BACKEND` would name.
    let under = Arc::new(RealPosix::rooted(root.join("fs")).unwrap());
    let backing = Arc::new(RealBacking::new(root.join("plfs_backend")).unwrap());

    // 2. Export "LD_PRELOAD": build the shim with a /plfs mount.
    let shim = LdPlfsBuilder::new(under)
        .mount("/plfs", Plfs::new(backing.clone()))
        .build()
        .unwrap();

    // 3. An unmodified application: ordinary open/write/lseek/read/close.
    let fd = shim
        .open(
            "/plfs/checkpoint.dat",
            OpenFlags::RDWR | OpenFlags::CREAT,
            0o644,
        )
        .unwrap();
    let payload = b"simulation state at t=42";
    shim.write(fd, payload).unwrap();
    shim.lseek(fd, 0, Whence::Set).unwrap();
    let mut buf = vec![0u8; payload.len()];
    shim.read(fd, &mut buf).unwrap();
    assert_eq!(&buf, payload);
    shim.close(fd).unwrap();

    println!("wrote and re-read {} bytes through the shim", payload.len());

    // 4. Proof it's a container, not a flat file: inspect the backend.
    println!("\nbackend layout under {:?}:", backing.root());
    print_tree(backing.root(), 1);

    // 5. And the flatten utility recovers the raw bytes without FUSE.
    let flat = plfs::flatten::flatten_to_vec(backing.as_ref(), "/checkpoint.dat").unwrap();
    assert_eq!(flat, payload);
    println!("\nflatten(checkpoint.dat) == original payload ✓");

    let _ = std::fs::remove_dir_all(&root);
}

fn print_tree(dir: &std::path::Path, depth: usize) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut names: Vec<_> = entries.filter_map(|e| e.ok()).collect();
    names.sort_by_key(|e| e.file_name());
    for e in names {
        println!("{}{}", "  ".repeat(depth), e.file_name().to_string_lossy());
        if e.file_type().map(|t| t.is_dir()).unwrap_or(false) {
            print_tree(&e.path(), depth + 1);
        }
    }
}
