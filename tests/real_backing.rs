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
