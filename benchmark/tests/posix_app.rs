//! `posix_app` is the unmodified application: it must link nothing of the
//! repo, and the preload library must not change what it does outside the
//! mount.

use ldplfs_benchmark::oplist::{fold, Op, OpList, O_CREAT, O_RDONLY, O_TRUNC, O_WRONLY};
use std::path::{Path, PathBuf};
use std::process::Command;

const APP: &str = env!("CARGO_BIN_EXE_posix_app");
const REPO_CRATES: [&str; 5] = ["plfs", "ldplfs", "iotrace", "jsonlite", "ldplfs_benchmark"];

#[test]
fn source_and_binary_carry_no_repo_crate() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for file in ["bin/posix_app.rs", "oplist.rs"] {
        let src = std::fs::read_to_string(dir.join(file)).unwrap();
        for krate in REPO_CRATES {
            for form in [
                format!("{krate}::"),
                format!("use {krate}"),
                format!("extern crate {krate}"),
            ] {
                assert!(!src.contains(&form), "{file} mentions `{form}`");
            }
        }
    }
    // A linked crate leaves its source paths (panic locations) and symbol
    // names in the binary.
    let bin = std::fs::read(APP).unwrap();
    let has = |needle: &str| bin.windows(needle.len()).any(|w| w == needle.as_bytes());
    for needle in [
        "crates/plfs/",
        "crates/ldplfs/",
        "crates/iotrace/",
        "crates/jsonlite/",
        "RealBacking",
        "GlobalIndex",
    ] {
        assert!(!has(needle), "posix_app contains {needle:?}");
    }
}

/// The preload library, if it has been built (run.sh builds it; so does
/// `cargo build --release -p ldplfs-preload` at the repo root).
fn preload_lib() -> Option<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut dirs = vec![root.join("target/release"), root.join("target/debug")];
    if let Some(t) = std::env::var_os("CARGO_TARGET_DIR") {
        dirs.insert(0, Path::new(&t).join("release"));
    }
    dirs.into_iter()
        .map(|d| d.join("libldplfs_preload.so"))
        .find(|p| p.is_file())
}

#[test]
fn same_behaviour_with_and_without_preload_outside_the_mount() {
    let dir = std::env::temp_dir().join(format!("posix_app_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("files")).unwrap();
    let payload: Vec<u8> = (0..8192u32).map(|i| (i * 31 % 251) as u8).collect();
    let list = OpList {
        paths: vec!["a".into(), "gone".into()],
        ops: vec![
            Op::Open {
                path: 0,
                flags: O_WRONLY | O_CREAT | O_TRUNC,
            },
            Op::Write { len: 1000, src: 8 },
            Op::Pwrite {
                off: 4096,
                len: 512,
                src: 64,
            },
            Op::Fsync,
            Op::Close,
            Op::Stat {
                path: 0,
                size: 4608,
            },
            Op::Open {
                path: 0,
                flags: O_RDONLY,
            },
            Op::Read { len: 1000 },
            Op::Pread {
                off: 4096,
                len: 512,
            },
            Op::Close,
            Op::Unlink { path: 0 },
            Op::Unlink { path: 1 }, // fails on both sides: ENOENT
        ],
    };
    let expect_sum = fold(fold(0, &payload[8..1008]), &payload[64..576]);
    std::fs::write(dir.join("ops"), list.encode()).unwrap();
    std::fs::write(dir.join("payload"), &payload).unwrap();

    let run = |preload: Option<&Path>| {
        let mut cmd = Command::new(APP);
        cmd.arg("--ops").arg(dir.join("ops"));
        cmd.arg("--payload").arg(dir.join("payload"));
        cmd.arg("--base").arg(dir.join("files"));
        cmd.arg("--per-call").arg(dir.join("calls"));
        cmd.env_remove("LD_PRELOAD");
        if let Some(lib) = preload {
            cmd.env("LD_PRELOAD", lib);
            cmd.env("LDPLFS_MOUNT", dir.join("mnt"));
            cmd.env("LDPLFS_BACKEND", dir.join("backend"));
        }
        let out = cmd.output().unwrap();
        let calls = std::fs::read_to_string(dir.join("calls")).unwrap();
        let ops: Vec<String> = calls
            .lines()
            .map(|l| l.split(' ').next().unwrap().to_string())
            .collect();
        (
            out.status.code(),
            String::from_utf8(out.stdout).unwrap(),
            ops,
        )
    };

    let plain = run(None);
    assert_eq!(plain.0, Some(1), "one call (the second unlink) fails");
    assert_eq!(
        plain.1.trim(),
        format!("ops=12 failed=1 read_bytes=1512 read_sum={expect_sum:x}")
    );
    assert_eq!(plain.2.len(), 12);
    assert!(!dir.join("files/a").exists());

    match preload_lib() {
        Some(lib) => assert_eq!(
            run(Some(&lib)),
            plain,
            "preload changed behaviour outside the mount"
        ),
        None => {
            eprintln!("libldplfs_preload.so not built; the preload half of this test did not run")
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
