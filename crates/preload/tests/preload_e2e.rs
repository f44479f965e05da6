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
    // The container visible on the host file system. `dd` made the file,
    // so its droppings are the top-level pair beside the access file: no
    // hostdir, and the closed index's name is the fast-stat drop.
    let container = env.backend.join("zeros.bin");
    assert!(container.join(".plfsaccess").exists(), "container marker");
    let names: Vec<String> = std::fs::read_dir(&container)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let has = |prefix: &str| names.iter().any(|n| n.starts_with(prefix));
    assert!(has("dropping.data."), "{names:?}");
    assert!(
        names
            .iter()
            .any(|n| n.starts_with("dropping.index.") && n.ends_with(".65536.65536")),
        "{names:?}"
    );
    assert!(
        !has("hostdir.") && !has("open.") && !has("meta."),
        "{names:?}"
    );
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

// ---------------------------------------------------------------------------
// The read path in its deployment form: containers built by real `dd`
// processes, read back by real tools and by `preload-smoke`'s check modes,
// always against a flat twin holding the same bytes.
// ---------------------------------------------------------------------------

/// Seeded bytes with newlines (so `grep -c` has lines to count) — no two
/// 4 KiB blocks alike.
fn payload(len: usize) -> Vec<u8> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            match (x >> 32) as u8 {
                b if b < 8 => b'\n',
                b => b,
            }
        })
        .collect()
}

fn ok(out: std::process::Output, what: &str) -> Vec<u8> {
    assert!(
        out.status.success(),
        "{what} failed: {}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

/// `dd` blocks `[skip, skip + count)` of `twin` to the same blocks of
/// `container`, as one process (one pid = one dropping).
fn dd_in(env: &Env, twin: &std::path::Path, container: &str, bs: usize, skip: usize, count: usize) {
    let mut dd = Command::new("dd");
    dd.arg(format!("if={}", twin.display()))
        .arg(format!("of={container}"))
        .arg(format!("bs={bs}"))
        .arg(format!("skip={skip}"))
        .arg(format!("seek={skip}"))
        .arg(format!("count={count}"))
        .args(["conv=notrunc", "status=none"]);
    ok(run_preloaded(env, dd), "dd into the mount");
}

const BLOCK: usize = 4096;
const BLOCKS: usize = 96;

/// A flat twin outside the mount and two containers with its bytes: one
/// dropping (a single `cp`), and thirteen (a `dd` process per run of 8
/// blocks, in an order that is not the logical one, and one for the tail).
fn twin_and_containers(env: &Env) -> (PathBuf, [String; 2]) {
    let twin = env.outside.join("twin.bin");
    std::fs::write(&twin, payload(BLOCK * BLOCKS + 1234)).unwrap();
    let single = format!("{}/single.bin", env.mount.display());
    let mut cp = Command::new("cp");
    cp.arg(&twin).arg(&single);
    ok(run_preloaded(env, cp), "cp into the mount");
    let multi = format!("{}/multi.bin", env.mount.display());
    const RUNS: usize = BLOCKS / 8;
    for run in (0..RUNS).map(|i| i * 5 % RUNS) {
        dd_in(env, &twin, &multi, BLOCK, run * 8, 8);
    }
    // The 1234-byte tail: "block" 1 at a block size of the whole body.
    dd_in(env, &twin, &multi, BLOCK * BLOCKS, 1, 1);
    // The process that made the file left its pair in the container
    // directory; every later one wrote into a hostdir.
    let droppings = |name: &str| {
        let data_in = |dir: &std::path::Path| {
            let names = std::fs::read_dir(dir).unwrap();
            names
                .filter(|e| {
                    let name = e.as_ref().unwrap().file_name();
                    name.to_string_lossy().starts_with("dropping.data.")
                })
                .count()
        };
        let container = env.backend.join(name);
        let hostdirs = std::fs::read_dir(&container).unwrap();
        let hostdirs = hostdirs.map(|e| e.unwrap().path()).filter(|p| p.is_dir());
        data_in(&container) + hostdirs.map(|hd| data_in(&hd)).sum::<usize>()
    };
    assert_eq!(droppings("single.bin"), 1);
    assert_eq!(droppings("multi.bin"), RUNS + 1);
    (twin, [single, multi])
}

/// Run `tool args.. FILE` on the container under the preload and on the
/// twin without it; stdout must match byte for byte.
fn same_stdout(env: &Env, twin: &std::path::Path, container: &str, tool: &str, args: &[&str]) {
    let mut on_mount = Command::new(tool);
    on_mount.args(args).arg(container);
    let got = ok(run_preloaded(env, on_mount), tool);
    let want = ok(
        Command::new(tool).args(args).arg(twin).output().unwrap(),
        tool,
    );
    assert!(!want.is_empty(), "{tool} {args:?} printed nothing");
    // md5sum prints the path after the digest: compare up to it.
    let cut = |v: &[u8]| match tool {
        "md5sum" => v[..32].to_vec(),
        _ => v.to_vec(),
    };
    assert!(
        cut(&got) == cut(&want),
        "{tool} {args:?} on {container} differs from the flat twin"
    );
}

#[test]
fn read_tools_match_a_flat_twin_on_one_and_many_droppings() {
    ensure_built();
    let env = setup("readtools");
    let (twin, containers) = twin_and_containers(&env);
    let want = std::fs::read(&twin).unwrap();
    for c in &containers {
        same_stdout(&env, &twin, c, "cat", &[]);
        same_stdout(&env, &twin, c, "grep", &["-c", "a"]);
        same_stdout(&env, &twin, c, "md5sum", &[]);
        same_stdout(&env, &twin, c, "head", &["-c", "5000"]);
        same_stdout(&env, &twin, c, "tail", &["-c", "5000"]);
        let mut cmp = Command::new("cmp");
        cmp.arg(c).arg(&twin);
        ok(run_preloaded(&env, cmp), "cmp");
        let out = env.outside.join("out.bin");
        let mut cp = Command::new("cp");
        cp.arg(c).arg(&out);
        ok(run_preloaded(&env, cp), "cp out of the mount");
        assert!(std::fs::read(&out).unwrap() == want, "cp out of {c}");
        let mut dd = Command::new("dd");
        dd.arg(format!("if={c}"))
            .arg(format!("of={}", out.display()))
            .args(["bs=4k", "status=none"]);
        ok(run_preloaded(&env, dd), "dd out of the mount");
        assert!(std::fs::read(&out).unwrap() == want, "dd bs=4k out of {c}");
    }
}

fn smoke_mode(env: &Env, mode: &str, container: &str, twin: &std::path::Path) {
    // Under `timeout`: a shim that deadlocks fails the test, not hangs it.
    let mut cmd = Command::new("timeout");
    cmd.arg("120").arg(smoke_bin());
    cmd.arg(mode).arg(container).arg(twin);
    ok(run_preloaded(env, cmd), &format!("preload-smoke {mode}"));
}

#[test]
fn mmap_stdio_and_dup_read_one_and_many_droppings() {
    ensure_built();
    let env = setup("smokemodes");
    let (twin, containers) = twin_and_containers(&env);
    for c in &containers {
        for mode in ["mmap", "stdio", "dup"] {
            smoke_mode(&env, mode, c, &twin);
        }
    }
}

/// `dup2` onto a registered fd used to drop its state under the table lock
/// without closing it — a writer's droppings then closed through the
/// interposed `close` and deadlocked on that lock; a reader's reference
/// leaked — and `dup2(fd, fd)` de-registered the fd (the next read hit the
/// empty reserved fd).
#[test]
fn dup2_closes_what_it_displaces_and_nothing_else() {
    ensure_built();
    let env = setup("dup2");
    let (twin, containers) = twin_and_containers(&env);
    for mode in ["dup2-writer", "dup2-self"] {
        smoke_mode(&env, mode, &containers[1], &twin);
    }
}

/// `close` used to return the real close's 0 over a failed PLFS close, and
/// `lseek(SEEK_END)` to seek as if the file were empty over a failed size.
#[test]
fn plfs_errors_at_close_and_seek_end_reach_the_caller() {
    ensure_built();
    let env = setup("closeerr");
    let twin = env.outside.join("twin.bin");
    std::fs::write(&twin, b"unused").unwrap();
    smoke_mode(&env, "close-error", "unused", &twin);
}

/// `fstat` on an open container used to say `st_ino = 1` while path-stat
/// said `fake_ino(path)`; with reads on the registered path that made
/// `cp /mount/f out` fail with "skipping file, as it was replaced while
/// being copied".
#[test]
fn fstat_agrees_with_path_stat() {
    ensure_built();
    let env = setup("fstat");
    let (twin, containers) = twin_and_containers(&env);
    smoke_mode(&env, "fstat", &containers[0], &twin);
}

/// `cp /mount/a /mount/b` used to exit 0 and leave `b` empty: coreutils'
/// `copy_file_range` moved the bytes between the two reserved fds, inside
/// the kernel, and PLFS never saw a write.
#[test]
fn cp_between_mount_and_outside_copies_the_bytes() {
    ensure_built();
    let env = setup("cp");
    let (twin, containers) = twin_and_containers(&env);
    let want = std::fs::read(&twin).unwrap();
    let read_back = |path: &str| {
        let mut cat = Command::new("cat");
        cat.arg(path);
        ok(run_preloaded(&env, cat), "cat")
    };
    for (i, src) in containers.iter().enumerate() {
        // mount -> mount
        let copy = format!("{}/copy{i}.bin", env.mount.display());
        let mut cp = Command::new("cp");
        cp.arg(src).arg(&copy);
        ok(run_preloaded(&env, cp), "cp mount->mount");
        assert!(read_back(&copy) == want, "cp {src} {copy}");
        // mount -> outside
        let out = env.outside.join("copy.bin");
        let mut cp = Command::new("cp");
        cp.arg(src).arg(&out);
        ok(run_preloaded(&env, cp), "cp mount->outside");
        assert!(std::fs::read(&out).unwrap() == want, "cp {src} out");
    }
    // outside -> mount is `twin_and_containers`' own cp.
    assert!(read_back(&containers[0]) == want);
    smoke_mode(&env, "movers", &containers[1], &twin);
}

/// `open(container, O_RDONLY|O_DIRECTORY|O_PATH)` — cp's probe of its
/// destination — used to succeed, so cp took an existing container for a
/// directory and failed with "cannot stat '/mount/existing/src': Not a
/// directory".
#[test]
fn cp_onto_an_existing_container_replaces_it() {
    ensure_built();
    let env = setup("cponto");
    let (first, second) = (env.outside.join("first"), env.outside.join("second"));
    std::fs::write(&first, payload(50_000)).unwrap();
    std::fs::write(&second, &payload(70_000)[20_000..]).unwrap();
    let dest = format!("{}/dest.bin", env.mount.display());
    for src in [&first, &second] {
        let mut cp = Command::new("cp");
        cp.arg(src).arg(&dest);
        ok(run_preloaded(&env, cp), "cp onto the mount");
    }
    let mut cat = Command::new("cat");
    cat.arg(&dest);
    let got = ok(run_preloaded(&env, cat), "cat");
    assert!(
        got == std::fs::read(&second).unwrap(),
        "the second copy wins"
    );
}

/// Another process truncates a container under an open reader: open-time
/// bytes or `EIO`, never anything else.
#[test]
fn a_reader_of_a_truncated_container_gets_old_bytes_or_eio() {
    ensure_built();
    let env = setup("truncate");
    let twin = env.outside.join("twin.bin");
    std::fs::write(&twin, payload(BLOCK * BLOCKS)).unwrap();
    let container = format!("{}/victim.bin", env.mount.display());
    dd_in(&env, &twin, &container, BLOCK, 0, BLOCKS / 2);
    dd_in(&env, &twin, &container, BLOCK, BLOCKS / 2, BLOCKS / 2);
    smoke_mode(&env, "truncate", &container, &twin);
}
