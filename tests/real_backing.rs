//! `RealBacking` resolves every backend path against the root directory it
//! opened at construction: the root is `.` of every `*at` call, `..` is
//! refused, the process's working directory and a later rename of the root
//! change nothing, and the `*at` calls report errors as the path calls did.

use plfs::{Backing, Error, RealBacking};
use std::path::PathBuf;

/// A fresh directory under the system temp dir, gone first if it was there.
fn fresh(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("plfs-real-backing-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every op of the trait, once, on a backing whose root holds nothing yet.
fn exercise(b: &RealBacking) {
    b.mkdir("/c").unwrap();
    b.mkdir_all("/c/h/deep").unwrap();
    let f = b.create("/c/f", true).unwrap();
    f.pwrite(b"bytes", 0).unwrap();
    drop(f);
    let mut buf = [0u8; 5];
    assert_eq!(
        b.open("/c/f", false).unwrap().pread(&mut buf, 0).unwrap(),
        5
    );
    assert_eq!(&buf, b"bytes");
    assert_eq!(b.stat("/c/f").unwrap().size, 5);
    assert!(b.stat("/c/h").unwrap().is_dir);
    b.truncate("/c/f", 2).unwrap();
    b.rename("/c/f", "/c/g").unwrap();
    assert_eq!(b.readdir("/c").unwrap(), ["g", "h"]);
    assert_eq!(b.stat("/c/g").unwrap().size, 2);
    b.unlink("/c/g").unwrap();
    b.rmdir("/c/h/deep").unwrap();
    plfs::backing::remove_tree(b, "/c").unwrap();
    assert!(!b.exists("/c"));
}

#[test]
fn dot_dot_is_refused_everywhere() {
    let dir = fresh("escape");
    let b = RealBacking::new(&dir).unwrap();
    let escape = |r: Result<(), Error>| matches!(r, Err(Error::InvalidArg(_)));
    assert!(escape(b.create("/../evil", true).map(drop)));
    assert!(escape(b.open("/a/../../evil", false).map(drop)));
    assert!(escape(b.mkdir("/..")));
    assert!(escape(b.mkdir_all("/a/../b")));
    assert!(escape(b.readdir("/..").map(drop)));
    assert!(escape(b.unlink("/../evil")));
    assert!(escape(b.rmdir("/..")));
    assert!(escape(b.rename("/a", "/../a")));
    assert!(escape(b.stat("/..").map(drop)));
    assert!(escape(b.truncate("/../evil", 0)));
    assert!(!dir.parent().unwrap().join("evil").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_nul_byte_is_refused_everywhere() {
    let dir = fresh("nul");
    let b = RealBacking::new(&dir).unwrap();
    let nul = |r: Result<(), Error>| matches!(r, Err(Error::InvalidArg(_)));
    assert!(nul(b.create("/a\0b", true).map(drop)));
    assert!(nul(b.open("/a\0", false).map(drop)));
    assert!(nul(b.mkdir("/\0")));
    assert!(nul(b.readdir("/d\0/e").map(drop)));
    assert!(nul(b.unlink("/a\0b")));
    assert!(nul(b.rename("/a", "/a\0b")));
    assert!(nul(b.stat("/a\0b").map(drop)));
    // Past the stack buffer, the heap path refuses it too.
    let long = format!("/{}\0", "x".repeat(300));
    assert!(nul(b.create(&long, true).map(drop)));
    assert!(nul(b.stat(&long).map(drop)));
    assert!(b.readdir("/").unwrap().is_empty(), "nothing made");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_long_path_is_resolved_as_a_short_one() {
    let dir = fresh("long");
    let b = RealBacking::new(&dir).unwrap();
    let deep = format!("/{}", ["component"; 40].join("/"));
    b.mkdir_all(&deep).unwrap();
    let file = format!("{deep}/f");
    b.create(&file, true).unwrap().pwrite(b"long", 0).unwrap();
    assert_eq!(b.stat(&file).unwrap().size, 4);
    assert!(matches!(
        b.stat(&format!("{deep}/none")),
        Err(Error::NotFound(p)) if p.ends_with("/none")
    ));
    assert!(matches!(
        b.stat(&format!("{deep}/../../x")),
        Err(Error::InvalidArg(_))
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_root_is_slash_and_lists() {
    let dir = fresh("slash");
    let b = RealBacking::new(&dir).unwrap();
    b.create("/top", true).unwrap();
    b.mkdir("/sub").unwrap();
    assert_eq!(b.readdir("/").unwrap(), ["sub", "top"]);
    assert_eq!(b.readdir("").unwrap(), ["sub", "top"]);
    assert!(b.stat("/").unwrap().is_dir);
    b.mkdir_all("/").unwrap();
    // Empty and `.` components are the root's own.
    assert_eq!(b.stat("//sub/.").unwrap(), b.stat("/sub").unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The one test here that moves the working directory; every other test
/// names its root absolutely.
#[test]
fn a_relative_root_is_fixed_at_construction() {
    let home = fresh("cwd");
    let elsewhere = fresh("cwd-elsewhere");
    std::fs::create_dir_all(&home).unwrap();
    std::fs::create_dir_all(&elsewhere).unwrap();
    std::env::set_current_dir(&home).unwrap();
    let b = RealBacking::new("backend").unwrap();
    b.create("/before", true).unwrap();
    std::env::set_current_dir(&elsewhere).unwrap();
    assert!(b.exists("/before"), "what was made before the chdir");
    exercise(&b);
    b.create("/after", true).unwrap();
    let listed = |d: &PathBuf| std::fs::read_dir(d.join("backend")).map(|r| r.count());
    assert_eq!(listed(&home).unwrap(), 2, "both under the first cwd");
    assert!(listed(&elsewhere).is_err(), "nothing under the second");
    std::env::set_current_dir(std::env::temp_dir()).unwrap();
    std::fs::remove_dir_all(&home).unwrap();
    std::fs::remove_dir_all(&elsewhere).unwrap();
}

#[test]
fn a_root_renamed_after_construction_is_still_served() {
    let dir = fresh("renamed");
    let moved = fresh("renamed-to");
    let b = RealBacking::new(&dir).unwrap();
    b.create("/kept", true).unwrap();
    std::fs::rename(&dir, &moved).unwrap();
    assert!(b.exists("/kept"));
    exercise(&b);
    b.create("/new", true).unwrap();
    assert!(
        moved.join("new").exists(),
        "created under the root it holds"
    );
    assert!(!dir.exists());
    std::fs::remove_dir_all(&moved).unwrap();
}

#[test]
fn the_at_calls_keep_the_error_mapping() {
    let dir = fresh("errors");
    let b = RealBacking::new(&dir).unwrap();
    b.mkdir("/d").unwrap();
    b.create("/d/f", true).unwrap();
    assert!(matches!(b.mkdir("/d"), Err(Error::Exists(_))));
    assert!(matches!(b.mkdir("/d/f"), Err(Error::Exists(_))));
    assert!(matches!(b.create("/d/f", true), Err(Error::Exists(_))));
    assert!(matches!(b.mkdir_all("/d/f"), Err(Error::Exists(_))));
    assert!(b.mkdir_all("/d/f/under").is_err(), "a file in the way");
    assert!(matches!(b.unlink("/d/none"), Err(Error::NotFound(_))));
    assert!(matches!(b.open("/d/none", false), Err(Error::NotFound(_))));
    assert!(matches!(b.open("/none/f", true), Err(Error::NotFound(_))));
    assert!(matches!(b.stat("/d/none"), Err(Error::NotFound(_))));
    assert!(matches!(b.readdir("/none"), Err(Error::NotFound(_))));
    assert!(matches!(b.rename("/none", "/d/x"), Err(Error::NotFound(_))));
    assert!(b.rmdir("/d").is_err(), "rmdir of a non-empty directory");
    assert!(b.exists("/d/f"), "and nothing removed");
    assert!(b.unlink("/d").is_err(), "unlink of a directory");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Backing roots on the file systems this checkout can reach: the system
/// temp dir's, the checkout's (under the build's scratch directory) and
/// `/dev/shm`'s tmpfs, where there is one.
fn roots(tag: &str) -> Vec<PathBuf> {
    let pid = std::process::id();
    let mut parents = vec![
        std::env::temp_dir(),
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")),
    ];
    if std::path::Path::new("/dev/shm").is_dir() {
        parents.push(PathBuf::from("/dev/shm"));
    }
    parents
        .into_iter()
        .map(|p| p.join(format!("plfs-real-backing-{tag}-{pid}")))
        .inspect(|d| drop(std::fs::remove_dir_all(d)))
        .collect()
}

/// A listing names what the directory holds, however many `getdents64`
/// calls it takes: directories of 0 to 300 entries, names up to the
/// 255-byte limit so a listing takes many calls, list the same through the
/// backing as through `std::fs::read_dir`.
#[test]
fn a_listing_names_every_entry_however_many_calls_it_takes() {
    for root in roots("listing") {
        let b = RealBacking::new(&root).unwrap();
        for n in [0usize, 1, 2, 28, 29, 30, 31, 100, 300] {
            let dir = format!("/d{n}");
            b.mkdir(&dir).unwrap();
            for i in 0..n {
                let name = format!("{i}.{}", "x".repeat(i * 37 % 250));
                drop(b.create(&format!("{dir}/{name}"), true).unwrap());
            }
            let mut expected: Vec<String> = std::fs::read_dir(root.join(&dir[1..]))
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            expected.sort_unstable();
            assert_eq!(expected.len(), n, "{}", root.display());
            assert_eq!(b.readdir(&dir).unwrap(), expected, "{} {n}", root.display());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// On tmpfs, ext4 and xfs a directory's `stat` counts its subdirectories;
/// a file's counts nothing. Elsewhere nothing is counted.
#[test]
fn a_directory_stat_counts_its_subdirectories_where_the_file_system_does() {
    for root in roots("subdirs") {
        let b = RealBacking::new(&root).unwrap();
        b.mkdir("/c").unwrap();
        drop(b.create("/c/f", true).unwrap());
        let counted = b.stat("/c").unwrap().subdirs;
        assert!(counted.is_none_or(|n| n == 0), "{counted:?}");
        b.mkdir("/c/hostdir.0").unwrap();
        b.mkdir("/c/hostdir.1/").unwrap();
        let exact = counted.is_some();
        assert_eq!(b.stat("/c").unwrap().subdirs, exact.then_some(2));
        assert_eq!(b.stat("/c/f").unwrap().subdirs, None);
        let kind = std::process::Command::new("stat")
            .args(["-f", "-c", "%t"])
            .arg(&root)
            .output()
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string());
        if let Ok(kind) = kind {
            let known = ["1021994", "ef53", "58465342"].contains(&kind.as_str());
            assert_eq!(exact, known, "{} is {kind}", root.display());
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
