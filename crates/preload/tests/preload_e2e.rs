//! End-to-end tests of the LD_PRELOAD artifact: build the cdylib, then run
//! real processes under it — first our own smoke binary (std::fs →
//! interposed libc), then genuine system tools (`cat`, `md5sum`, `cp`) on
//! a PLFS container, which is exactly the paper's §III.D demonstration.

use std::path::PathBuf;
use std::process::Command;

fn target_dir() -> PathBuf {
    // The test binary lives in target/<profile>/deps; artifacts one up.
    let mut p = std::env::current_exe().unwrap();
    p.pop(); // deps
    p.pop(); // <profile>
    p
}

fn preload_lib() -> PathBuf {
    target_dir().join("libldplfs_preload.so")
}

fn smoke_bin() -> PathBuf {
    target_dir().join("preload-smoke")
}

/// Build the cdylib and the smoke binary once.
fn ensure_built() {
    let status = Command::new(env!("CARGO"))
        .args(["build", "-p", "ldplfs-preload"])
        .status()
        .expect("cargo build");
    assert!(status.success(), "building the preload crate failed");
    assert!(
        preload_lib().exists(),
        "cdylib missing at {:?}",
        preload_lib()
    );
    assert!(smoke_bin().exists(), "smoke binary missing");
}

struct Env {
    mount: PathBuf,
    backend: PathBuf,
    outside: PathBuf,
}

fn setup(tag: &str) -> Env {
    let root = std::env::temp_dir().join(format!("preload-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let env = Env {
        mount: root.join("plfs"),
        backend: root.join("backend"),
        outside: root.join("outside"),
    };
    // The mount point itself need not exist (paths are virtual), but the
    // outside dir must.
    std::fs::create_dir_all(&env.outside).unwrap();
    std::fs::create_dir_all(&env.backend).unwrap();
    env
}

fn run_preloaded(env: &Env, mut cmd: Command) -> std::process::Output {
    cmd.env("LD_PRELOAD", preload_lib())
        .env("LDPLFS_MOUNT", &env.mount)
        .env("LDPLFS_BACKEND", &env.backend)
        .env("SMOKE_OUTSIDE", &env.outside)
        .output()
        .expect("spawn preloaded process")
}

#[test]
fn smoke_binary_roundtrips_under_preload() {
    ensure_built();
    let env = setup("smoke");
    let out = run_preloaded(&env, Command::new(smoke_bin()));
    assert!(
        out.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("preload smoke OK"));
}

#[test]
fn container_structure_created_on_backend() {
    ensure_built();
    let env = setup("structure");
    let out = run_preloaded(&env, Command::new(smoke_bin()));
    assert!(out.status.success());
    // The smoke run unlinked its file; write one more via a shell `dd`.
    let mut dd = Command::new("dd");
    dd.arg("if=/dev/zero")
        .arg(format!("of={}/zeros.bin", env.mount.display()))
        .arg("bs=1024")
        .arg("count=64")
        .arg("status=none");
    let out = run_preloaded(&env, dd);
    assert!(
        out.status.success(),
        "dd failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Figure 1 structure visible on the host file system.
    let container = env.backend.join("zeros.bin");
    assert!(container.join(".plfsaccess").exists(), "container marker");
    let hostdirs: Vec<_> = std::fs::read_dir(&container)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("hostdir."))
        .collect();
    assert!(!hostdirs.is_empty(), "droppings live in hostdirs");
}

#[test]
fn real_unix_tools_read_containers() {
    ensure_built();
    let env = setup("tools");

    // Produce a container with dd (write path through the preload).
    let mut dd = Command::new("dd");
    dd.arg("if=/dev/urandom")
        .arg(format!("of={}/data.bin", env.mount.display()))
        .arg("bs=4096")
        .arg("count=32")
        .arg("status=none");
    let out = run_preloaded(&env, dd);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // cp the container out to a plain file (read path through the preload).
    let plain = env.outside.join("copy.bin");
    let mut cp = Command::new("cp");
    cp.arg(format!("{}/data.bin", env.mount.display()))
        .arg(&plain);
    let out = run_preloaded(&env, cp);
    assert!(
        out.status.success(),
        "cp failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::metadata(&plain).unwrap().len(), 4096 * 32);

    // md5sum inside the mount must equal md5sum of the plain copy.
    let mut md5_in = Command::new("md5sum");
    md5_in.arg(format!("{}/data.bin", env.mount.display()));
    let out_in = run_preloaded(&env, md5_in);
    assert!(
        out_in.status.success(),
        "md5sum (mount) failed: {}",
        String::from_utf8_lossy(&out_in.stderr)
    );
    let digest_in = String::from_utf8_lossy(&out_in.stdout)
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();

    let out_plain = Command::new("md5sum").arg(&plain).output().unwrap();
    let digest_plain = String::from_utf8_lossy(&out_plain.stdout)
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();
    assert_eq!(
        digest_in, digest_plain,
        "identical bytes through the preload"
    );

    // cat the container and pipe-count the bytes.
    let mut cat = Command::new("cat");
    cat.arg(format!("{}/data.bin", env.mount.display()));
    let out = run_preloaded(&env, cat);
    assert!(out.status.success());
    assert_eq!(out.stdout.len(), 4096 * 32, "cat streamed every byte");
}

/// A variable nothing reads, or a tiered request with no fast directory,
/// used to be accepted in silence; each is now one stderr line at init,
/// and the host still runs.
#[test]
fn misconfiguration_is_reported_once_on_stderr() {
    ensure_built();
    let env = setup("loud");
    let mut cmd = Command::new(smoke_bin());
    cmd.env("LDPLFS_META_CACHE_ENTRIES", "0") // the alias is LDPLFS_META_CACHE
        .env("LDPLFS_BACKEND_KIND", "tiered");
    let out = run_preloaded(&env, cmd);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let lines: Vec<_> = stderr
        .lines()
        .filter(|l| l.starts_with("ldplfs-preload: "))
        .collect();
    assert_eq!(lines.len(), 2, "{stderr}");
    assert!(lines
        .iter()
        .any(|l| l.contains("unknown variable LDPLFS_META_CACHE_ENTRIES")));
    assert!(lines
        .iter()
        .any(|l| l.contains("tiered") && l.contains("LDPLFS_FAST_BACKEND")));
    // A clean environment has nothing to say.
    let out = run_preloaded(&setup("quiet"), Command::new(smoke_bin()));
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).contains("ldplfs-preload: "));
}

/// Overlapping writes from different processes resolve newest-wins on a
/// fresh merge: process A `dd`s a file in, process B overwrites the middle
/// (`conv=notrunc`), process C `cat`s it. The write clock used to be a
/// per-process counter from 1, so B's records (stamped 1, 2) lost to A's
/// (stamped 5, 6) and C read A's bytes back.
#[test]
fn a_later_process_overwrite_wins() {
    ensure_built();
    let env = setup("overwrite");
    let (src, patch) = (env.outside.join("src.bin"), env.outside.join("patch.bin"));
    std::fs::write(&src, vec![b'A'; 16 * 4096]).unwrap();
    std::fs::write(&patch, vec![b'B'; 2 * 4096]).unwrap();
    let target = format!("of={}/f.bin", env.mount.display());
    let dd = |input: &PathBuf, extra: &[&str]| {
        let mut dd = Command::new("dd");
        dd.arg(format!("if={}", input.display()))
            .arg(&target)
            .args(["bs=4096", "status=none"])
            .args(extra);
        let out = run_preloaded(&env, dd);
        assert!(
            out.status.success(),
            "dd failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    dd(&src, &[]);
    dd(&patch, &["seek=4", "conv=notrunc"]);
    let mut cat = Command::new("cat");
    cat.arg(format!("{}/f.bin", env.mount.display()));
    let out = run_preloaded(&env, cat);
    assert!(out.status.success());
    let mut want = vec![b'A'; 16 * 4096];
    want[4 * 4096..6 * 4096].fill(b'B');
    assert!(
        out.stdout == want,
        "the second process's overwrite of blocks 4-5 must win; block 4 reads {:?}",
        out.stdout.get(4 * 4096).map(|&b| b as char)
    );
}
