//! End-to-end tests of the LD_PRELOAD artifact: build the cdylib, then run
//! real processes under it — first our own smoke binary (std::fs →
//! interposed libc), then genuine system tools (`cat`, `md5sum`, `cp`) on
//! a PLFS container, which is exactly the paper's §III.D demonstration.

use std::ffi::{CStr, CString};
use std::os::raw::{c_char, c_int, c_void};
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

extern "C" {
    fn dlopen(file: *const c_char, mode: c_int) -> *mut c_void;
    fn dlsym(handle: *mut c_void, name: *const c_char) -> *mut c_void;
    fn dladdr(addr: *const c_void, info: *mut DlInfo) -> c_int;
}

/// glibc's `Dl_info`.
#[repr(C)]
struct DlInfo {
    fname: *const c_char,
    fbase: *mut c_void,
    sname: *const c_char,
    saddr: *mut c_void,
}

/// The file of the object in which the loader finds `name` from `handle`.
fn defined_in(handle: *mut c_void, name: &str) -> Option<String> {
    let name = CString::new(name).unwrap();
    let addr = unsafe { dlsym(handle, name.as_ptr()) };
    let mut info = DlInfo {
        fname: std::ptr::null(),
        fbase: std::ptr::null_mut(),
        sname: std::ptr::null(),
        saddr: std::ptr::null_mut(),
    };
    if addr.is_null() || unsafe { dladdr(addr, &mut info) } == 0 || info.fname.is_null() {
        return None;
    }
    Some(
        unsafe { CStr::from_ptr(info.fname) }
            .to_string_lossy()
            .into_owned(),
    )
}

/// The spellings glibc may export for the C name `name`: its LFS twin
/// (`NAME64`), its internal aliases (`__NAME`, `__NAME64`), its
/// `_FORTIFY_SOURCE` forms (`__NAME_chk`, `__NAME64_chk`, `__NAME_2`,
/// `__NAME64_2`) and, for a stat call, the pre-2.33 stat ABI's (`__xstat`
/// for `stat`, `__fxstatat64` for `fstatat64`, …).
fn spellings(name: &str) -> Vec<String> {
    let mut out = vec![format!("{name}64")];
    for suffix in ["", "64", "_chk", "64_chk", "_2", "64_2"] {
        out.push(format!("__{name}{suffix}"));
    }
    if name.contains("stat") {
        let old = name.replacen("stat", "xstat", 1);
        out.extend([format!("__{old}"), format!("__{old}64")]);
    }
    out
}

/// glibc is the oracle for alias families: for every name of the symbol
/// table (`interpose!` in `src/lib.rs`), each of its [`spellings`] that
/// libc exports is a symbol of the built library, unless the table lists
/// it as not interposed — and a listed one is libc's and not the
/// library's. A spelling missing here is a call an unmodified binary makes
/// past the shim (`creat64` wrote a plain file into the mount directory;
/// `tar`'s `__openat_2` found no such file).
#[test]
fn every_glibc_spelling_of_a_row_is_interposed() {
    ensure_built();
    let src = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/src/lib.rs")).unwrap();
    let table = plfs_lint::table::read_source(&src).expect("the symbol table");
    let lib = CString::new(preload_lib().to_str().unwrap()).unwrap();
    // RTLD_NOW, RTLD_LOCAL: nothing of this process binds to it.
    let handle = unsafe { dlopen(lib.as_ptr(), 2) };
    assert!(!handle.is_null(), "dlopen {:?}", preload_lib());
    let ours = |s: &str| defined_in(handle, s).is_some_and(|f| f.ends_with("libldplfs_preload.so"));
    let libc_has =
        |s: &str| defined_in(std::ptr::null_mut(), s).is_some_and(|f| f.contains("libc.so"));
    let skipped: Vec<&str> = table
        .not_interposed
        .iter()
        .flat_map(|s| s.names.iter().map(String::as_str))
        .collect();
    let names: Vec<&str> = table
        .rows
        .iter()
        .flat_map(|r| r.names.iter().map(String::as_str))
        .collect();
    assert!(
        names.len() > 60,
        "read {} names from the table",
        names.len()
    );
    let mut missing = Vec::new();
    for name in &names {
        assert!(
            ours(name),
            "the row name {name} is not a symbol of the library"
        );
        for s in spellings(name) {
            if libc_has(&s) && !ours(&s) && !skipped.contains(&s.as_str()) {
                missing.push(s);
            }
        }
    }
    missing.sort();
    missing.dedup();
    assert!(
        missing.is_empty(),
        "libc exports {missing:?}, spellings of the table's names the library does not define: \
         add each to its family's row"
    );
    for s in skipped {
        assert!(
            libc_has(s),
            "{s} is listed as not interposed, but libc does not export it"
        );
        assert!(
            !ours(s),
            "{s} is listed as not interposed, but the library defines it"
        );
    }
}

/// `tar` opens what it archives with `__openat_2`/`__open_2` (a fortified
/// build's `openat`/`open`) and stats it with `fstatat`: before those
/// spellings were interposed it failed "Cannot open" on a container.
#[test]
fn tar_archives_a_container_by_its_absolute_path() {
    ensure_built();
    let env = setup("tar");
    let (twin, containers) = twin_and_containers(&env);
    let want = std::fs::read(&twin).unwrap();
    for c in &containers {
        let mut tar = Command::new("sh");
        tar.arg("-c").arg(format!("tar cf - {c} | tar xOf -"));
        let got = ok(run_preloaded(&env, tar), "tar");
        assert!(got == want, "tar of {c} differs from the flat twin");
    }
}

/// The spellings LFS and `_FORTIFY_SOURCE` builds call in place of
/// `creat`, `fstatat`, `open` and `openat` reach the container.
#[test]
fn glibc_spellings_reach_the_container() {
    ensure_built();
    let env = setup("spellings");
    let (twin, containers) = twin_and_containers(&env);
    for c in &containers {
        smoke_mode(&env, "glibc-spellings", c, &twin);
    }
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
    // so its droppings are the top-level pair, the data dropping its
    // marker: no access file (the default params), no hostdir, and the
    // closed index's name is the fast-stat drop — in the identity
    // spelling, `dd` having written [0, 65536) in order.
    let container = env.backend.join("zeros.bin");
    assert!(!container.join(".plfsaccess").exists(), "no access file");
    let names: Vec<String> = std::fs::read_dir(&container)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let has = |prefix: &str| names.iter().any(|n| n.starts_with(prefix));
    assert!(has("dropping.data."), "{names:?}");
    assert!(
        names
            .iter()
            .any(|n| n.starts_with("dropping.index.creator.0.65536.i")),
        "{names:?}"
    );
    assert!(
        !has("hostdir.") && !has("open.") && !has("meta."),
        "{names:?}"
    );
}

/// A backend directory under the mount: PLFS's own `mkdir` and `open` of
/// its droppings reach the interposed symbols with paths inside the mount.
/// They are PLFS's I/O and must go straight to libc; retargeted into the
/// container namespace they recursed until the stack ran out (exit 139).
#[test]
fn a_backend_under_the_mount_holds_the_droppings() {
    ensure_built();
    let env = setup("nested");
    let backend = env.mount.join(".be");
    let file = env.mount.join("f");
    let run = |cmd: &mut Command| {
        let out = cmd
            .env("LD_PRELOAD", preload_lib())
            .env("LDPLFS_MOUNT", &env.mount)
            .env("LDPLFS_BACKEND", &backend)
            .output()
            .expect("spawn preloaded process");
        assert!(
            out.status.success(),
            "{cmd:?}: {:?}\nstderr: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    run(Command::new("sh")
        .arg("-c")
        .arg(format!("echo hello > {}", file.display())));
    assert_eq!(run(Command::new("cat").arg(&file)), b"hello\n");
    let names: Vec<String> = std::fs::read_dir(backend.join("f"))
        .expect("the container is a directory under the backend")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    for prefix in ["dropping.data.", "dropping.index."] {
        assert!(names.iter().any(|n| n.starts_with(prefix)), "{names:?}");
    }
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

/// A variable nothing reads used to be accepted in silence; it is now one
/// stderr line at init, and the host still runs. The variables of the
/// removed batched/tiered backends, of the removed hostdir count and of
/// the two former tuning options (the metadata cache's capacity, now a
/// constant, and the background compaction threshold, now gone) are such
/// variables: a former user's setting is loud, not applied.
#[test]
fn misconfiguration_is_reported_once_on_stderr() {
    ensure_built();
    let env = setup("loud");
    let unknown = [
        ("LDPLFS_META_CACHE_ENTRIES", "8"),
        ("LDPLFS_BACKEND_KIND", "8"),
        ("LDPLFS_SUBMIT_DEPTH", "8"),
        ("LDPLFS_FAST_BACKEND", "8"),
        ("LDPLFS_HOSTDIRS", "8"),
        ("LDPLFS_META_CACHE", "0"),
        ("LDPLFS_COMPACT_THRESHOLD", "1"),
    ];
    let mut cmd = Command::new(smoke_bin());
    cmd.envs(unknown);
    let out = run_preloaded(&env, cmd);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let lines: Vec<_> = stderr
        .lines()
        .filter(|l| l.starts_with("ldplfs-preload: "))
        .collect();
    assert_eq!(lines.len(), unknown.len(), "{stderr}");
    for (name, _) in unknown {
        let line = format!("ldplfs-preload: unknown variable {name} ignored");
        assert_eq!(lines.iter().filter(|l| **l == line).count(), 1, "{stderr}");
    }
    // A clean environment has nothing to say.
    let out = run_preloaded(&setup("quiet"), Command::new(smoke_bin()));
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).contains("ldplfs-preload: "));
}

/// A mount that is asked for but cannot be used says why in one line,
/// after any unknown-variable line, and the process runs on without PLFS:
/// a missing (here misspelled) variable, a mount point that trims to
/// nothing, a backend that cannot be opened. With no `LDPLFS_*` variable
/// set the library stays silent.
#[test]
fn a_mount_that_cannot_start_says_why_on_stderr() {
    ensure_built();
    let env = setup("unusable");
    let file = env.outside.join("regular");
    std::fs::write(&file, b"flat").unwrap();
    let (mount, backend) = (env.mount.to_str().unwrap(), env.backend.to_str().unwrap());
    let not_a_dir = file.to_str().unwrap();
    // The `ldplfs-preload:` lines of `cat FILE` under these variables alone.
    let said = |vars: &[(&str, &str)]| -> Vec<String> {
        let mut cat = Command::new("cat");
        cat.arg(&file).env("LD_PRELOAD", preload_lib());
        for (name, _) in std::env::vars_os() {
            if name.to_string_lossy().starts_with("LDPLFS_") {
                cat.env_remove(name);
            }
        }
        let out = cat.envs(vars.iter().copied()).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{vars:?}: {stderr}");
        assert_eq!(out.stdout, b"flat", "{vars:?}");
        let lines = stderr
            .lines()
            .filter_map(|l| l.strip_prefix("ldplfs-preload: "));
        lines.map(str::to_string).collect()
    };
    assert_eq!(
        said(&[("LDPLFS_MOUNT", mount), ("LDPLFS_BACKND", backend)]),
        [
            "unknown variable LDPLFS_BACKND ignored",
            "no PLFS mount: LDPLFS_BACKEND: environment variable not found",
        ]
    );
    assert_eq!(
        said(&[("LDPLFS_BACKEND", backend)]),
        ["no PLFS mount: LDPLFS_MOUNT: environment variable not found"]
    );
    assert_eq!(
        said(&[("LDPLFS_MOUNT", "/"), ("LDPLFS_BACKEND", backend)]),
        ["no PLFS mount: LDPLFS_MOUNT=\"/\" is not a mount point"]
    );
    assert_eq!(
        said(&[("LDPLFS_MOUNT", mount), ("LDPLFS_BACKEND", not_a_dir)]),
        [format!(
            "no PLFS mount: LDPLFS_BACKEND={not_a_dir}: I/O error: File exists (os error 17)"
        )]
    );
    assert!(said(&[]).is_empty());
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
    // md5sum and wc print the path after the digest or the counts: compare
    // up to it.
    let cut = |v: &[u8]| match tool {
        "md5sum" => v[..32].to_vec(),
        "wc" => v[..v.iter().rposition(|&b| b == b' ').unwrap()].to_vec(),
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
    let changed = env.outside.join("changed.bin");
    let mut bytes = want.clone();
    bytes[BLOCK * 50 + 17] ^= 1;
    std::fs::write(&changed, bytes).unwrap();
    for c in &containers {
        same_stdout(&env, &twin, c, "cat", &[]);
        same_stdout(&env, &twin, c, "grep", &["-c", "a"]);
        same_stdout(&env, &twin, c, "md5sum", &[]);
        same_stdout(&env, &twin, c, "head", &["-c", "5000"]);
        same_stdout(&env, &twin, c, "tail", &["-c", "5000"]);
        // `sort` checks its input with `euidaccess` and stats it by
        // `fstat(fileno(fp))`.
        same_stdout(&env, &twin, c, "sort", &[]);
        same_stdout(&env, &twin, c, "sort", &["-u", "-r", "-k2"]);
        same_stdout(&env, &twin, c, "wc", &[]);
        let mut cmp = Command::new("cmp");
        cmp.arg(c).arg(&twin);
        ok(run_preloaded(&env, cmp), "cmp");
        // Against a file that differs, cmp exits 1 and names the same byte
        // and line as on the twin.
        let first_difference = |out: std::process::Output| {
            assert_eq!(out.status.code(), Some(1), "cmp of {c} and a changed copy");
            let out = String::from_utf8(out.stdout).unwrap();
            out.split_once(" differ: ").unwrap().1.to_string()
        };
        let flat = Command::new("cmp").arg(&twin).arg(&changed).output();
        let mut cmp = Command::new("cmp");
        cmp.arg(c).arg(&changed);
        let on_mount = run_preloaded(&env, cmp);
        assert_eq!(first_difference(on_mount), first_difference(flat.unwrap()));
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

/// `O_CLOEXEC` on a container open used to be dropped: the reserved fd was
/// made with no flags, so it leaked into `exec`'d children and `F_GETFD`
/// showed no `FD_CLOEXEC`.
#[test]
fn o_cloexec_on_a_container_open_is_kept() {
    ensure_built();
    let env = setup("cloexec");
    let (twin, containers) = twin_and_containers(&env);
    smoke_mode(&env, "cloexec", &containers[0], &twin);
}

/// `fcntl(F_DUPFD | F_DUPFD_CLOEXEC)` — and so `File::try_clone` — of a
/// registered fd used to return an unregistered descriptor: reads through
/// it saw EOF and writes vanished into the reserved fd.
#[test]
fn fcntl_dupfd_gives_a_descriptor_of_the_same_open() {
    ensure_built();
    let env = setup("fcntldup");
    let (twin, containers) = twin_and_containers(&env);
    for c in &containers {
        smoke_mode(&env, "fcntl-dup", c, &twin);
    }
}

/// The fork and dup contracts against a flat twin: a parent writes, forks,
/// the child writes through the inherited fd and exits, the parent writes
/// again — one stream; a cursor live at a fork survives the parent closing
/// that fd and opening another file; `dup`'d fds share one cursor; and
/// (in `mmap`) a map through a `dup`'d fd after the original's works.
#[test]
fn fork_and_dup_behave_as_on_a_flat_file() {
    ensure_built();
    let env = setup("fork");
    let (twin, containers) = twin_and_containers(&env);
    for c in &containers {
        smoke_mode(&env, "fork", c, &twin);
    }
}

/// A child that writes through a descriptor whose open made the file,
/// inherited before its parent's first write, gets a dropping pair of its
/// own: the creator's data dropping the open made stays the parent's, for
/// the parent's first write (the child writing into it at the tail it
/// tracks would overwrite the parent's bytes, or the parent the child's).
#[test]
fn a_child_that_writes_before_its_parent_gets_a_pair_of_its_own() {
    ensure_built();
    let env = setup("forkfirst");
    let (twin, containers) = twin_and_containers(&env);
    smoke_mode(&env, "fork-first", &containers[0], &twin);
    let names: Vec<String> = std::fs::read_dir(env.backend.join("fork.first"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let one = |what: &str, f: &dyn Fn(&str) -> bool| {
        let n = names.iter().filter(|n| f(n)).count();
        assert_eq!(n, 1, "{what}: {names:?}");
    };
    // The parent's top-level pair: bytes [4000, 9000).
    one("parent's pair", &|n| {
        n.starts_with("dropping.index.") && n.ends_with(".9000.5000")
    });
    one("parent's data", &|n| n.starts_with("dropping.data."));
    // The child's hostdir pair: bytes [0, 4000).
    one("child's drop", &|n| n.starts_with("meta.4000.4000."));
    one("child's hostdir", &|n| n.starts_with("hostdir."));
}

/// A fork's child handler used to adopt every open at once, taking PLFS
/// locks that another thread of the parent — a writer mid-`write` — may
/// have held at the fork: a child that only meant to `exec` hung.
#[test]
fn a_child_that_only_execs_runs_no_plfs_code() {
    ensure_built();
    let env = setup("forkexec");
    let (twin, containers) = twin_and_containers(&env);
    smoke_mode(&env, "fork-exec", &containers[0], &twin);
}

/// `close_range` and `closefrom` used to bypass the shim: a container fd
/// they freed stayed registered, and the template's number, taken by the
/// next file, was duplicated as the next open's reserved fd.
#[test]
fn close_range_and_closefrom_close_containers_and_the_template() {
    ensure_built();
    let env = setup("closerange");
    let (twin, containers) = twin_and_containers(&env);
    smoke_mode(&env, "close-range", &containers[0], &twin);
}

/// A relative `LDPLFS_BACKEND` used to be resolved against the working
/// directory at every PLFS op: after a `chdir` the process lost the
/// containers it had written, and wrote new ones under the new directory.
#[test]
fn a_relative_backend_is_fixed_at_the_first_call() {
    ensure_built();
    let env = setup("chdir");
    let twin = env.outside.join("twin.bin");
    std::fs::write(&twin, payload(50_000)).unwrap();
    let container = format!("{}/rel.bin", env.mount.display());
    let root = env.backend.parent().unwrap();
    let mut cmd = Command::new("timeout");
    cmd.arg("120")
        .arg(smoke_bin())
        .args(["chdir", &container])
        .arg(&twin)
        .current_dir(root)
        .env("LD_PRELOAD", preload_lib())
        .env("LDPLFS_MOUNT", &env.mount)
        .env("LDPLFS_BACKEND", "backend")
        .env("SMOKE_OUTSIDE", &env.outside);
    ok(cmd.output().expect("spawn"), "preload-smoke chdir");
    for name in ["rel.bin", "rel.bin.after"] {
        let marker = std::fs::read_dir(env.backend.join(name)).is_ok_and(|mut names| {
            names.any(|n| {
                let name = n.unwrap().file_name();
                name.to_string_lossy().starts_with("dropping.data.")
            })
        });
        assert!(
            marker,
            "{name} is not under the backend named at the first call"
        );
    }
    assert!(
        !env.outside.join("backend").exists(),
        "a backend under the new cwd"
    );
}

/// The backing root's descriptor is the shim's own: `closefrom`,
/// `close_range` and `close` leave it open, `close` of it is `EBADF`, and a
/// `dup2` onto its number moves it first; after each, containers work.
#[test]
fn the_backing_root_descriptor_survives_the_application() {
    ensure_built();
    let env = setup("rootfd");
    let twin = env.outside.join("twin.bin");
    std::fs::write(&twin, payload(100_000)).unwrap();
    smoke_mode(&env, "backing-root", "unused", &twin);
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

/// `pwrite(fd, buf, 5, -1)` on a container used to return 5, writing at
/// offset 2^64 - 1, after which `lseek(SEEK_END)` failed; `pread` at a
/// negative offset failed with `EIO`. A flat file says `EINVAL` to both.
#[test]
fn a_negative_offset_is_einval_as_on_a_flat_file() {
    ensure_built();
    let env = setup("negoff");
    let (twin, containers) = twin_and_containers(&env);
    for c in &containers {
        smoke_mode(&env, "negative-offset", c, &twin);
    }
}

/// `lseek` on a container added the offset to the cursor or the size in an
/// unchecked `off_t`: in a debug build the overflow panicked, and the
/// panic barrier turned it into `EIO`. Past `off_t` is `EINVAL`.
#[test]
fn a_seek_past_off_t_is_einval_without_a_panic() {
    ensure_built();
    let env = setup("seekoverflow");
    let (twin, containers) = twin_and_containers(&env);
    let mut cmd = Command::new(smoke_bin());
    cmd.arg("seek-overflow").arg(&containers[0]).arg(&twin);
    let out = run_preloaded(&env, cmd);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    ok(out, "preload-smoke seek-overflow");
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

/// The release builds of the preload, the smoke binary and `plfs-tools`.
/// Counts are a release build's: a debug build's std checks every fd it
/// closes with one more `fcntl`.
fn release_bins() -> [PathBuf; 3] {
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "-p",
            "ldplfs-preload",
            "-p",
            "plfs-tools",
        ])
        .status()
        .expect("cargo build");
    assert!(status.success(), "building the release binaries failed");
    let release = target_dir().with_file_name("release");
    ["libldplfs_preload.so", "preload-smoke", "plfs-tools"].map(|f| release.join(f))
}

/// Syscalls `preload-smoke ARGS` enters under the preload, counted by
/// `plfs-tools syscalls`; `None` where this system refuses ptrace.
fn syscalls_of(env: &Env, [lib, smoke, tools]: &[PathBuf; 3], args: &[&str]) -> Option<u64> {
    let out = Command::new(tools)
        .args(["syscalls", "--"])
        .arg(smoke)
        .args(args)
        .env("LD_PRELOAD", lib)
        .env("LDPLFS_MOUNT", &env.mount)
        .env("LDPLFS_BACKEND", &env.backend)
        .env("SMOKE_OUTSIDE", &env.outside)
        .output()
        .expect("spawn plfs-tools");
    let stderr = String::from_utf8_lossy(&out.stderr);
    if stderr.contains("ptrace refused") {
        return None;
    }
    assert!(out.status.success(), "syscalls -- {args:?}: {stderr}");
    let header = stderr
        .lines()
        .find(|l| l.starts_with("# "))
        .expect("a histogram");
    Some(header[2..].split(' ').next().unwrap().parse().unwrap())
}

/// The per-call syscall counts of DESIGN.md §13, from the tool: a smoke
/// mode at N and at 2N calls, differenced. A container `write` is 1 (its
/// `pwrite`), a cursor `read` resolving to one fragment is 1 (its `pread`),
/// and the small-file cycle is at most 24.
#[test]
fn per_call_syscalls_are_pinned() {
    let bins = release_bins();
    let env = setup("syscalls");
    let per_call = |args: &[&str], n: u64| -> Option<f64> {
        let at = |k: u64| {
            let k = k.to_string();
            let mut args = args.to_vec();
            args.insert(1, &k);
            syscalls_of(&env, &bins, &args)
        };
        let (once, twice) = (at(n)?, at(2 * n)?);
        Some((twice - once) as f64 / n as f64)
    };
    let Some(write) = per_call(&["calls-write"], 1000) else {
        eprintln!("per_call_syscalls_are_pinned: skipped, this system refuses ptrace");
        return;
    };
    // Allocator growth adds a few syscalls per doubling, not per call.
    assert!(
        (write - 1.0).abs() < 0.05,
        "a container write: {write} syscalls"
    );
    let container = format!("{}/calls.r", env.mount.display());
    let mut dd = Command::new("dd");
    dd.args(["if=/dev/zero", "bs=4096", "count=2000", "status=none"])
        .arg(format!("of={container}"));
    ok(run_preloaded(&env, dd), "dd into the mount");
    let read = per_call(&["calls-read", &container], 1000).unwrap();
    assert!(
        (read - 1.0).abs() < 0.05,
        "a one-fragment read: {read} syscalls"
    );
    let cycle = per_call(&["calls-cycle"], 200).unwrap();
    assert!(
        cycle.round() <= 24.0,
        "the small-file cycle: {cycle} syscalls"
    );
}

/// A loop of 32 KiB `fread`s costs no more syscalls per `fread` over the
/// mount than over the flat twin, whose stream reads each straight into
/// the caller's buffer: the shim reads each straight into it too, one
/// container read. glibc's `fread` of a cookie stream made four 8 KiB
/// container reads of each, into its buffer. (That the read lands in the
/// caller's buffer, which no count shows, is the preload's unit test
/// `a_large_fread_reads_straight_into_the_callers_buffer`.)
#[test]
fn stdio_freads_cost_what_they_cost_on_a_flat_file() {
    const N: u64 = 64;
    ensure_built();
    let bins = release_bins();
    let env = setup("fread");
    let twin = env.outside.join("flat");
    let bytes: Vec<u8> = (0..2 * N as usize * (32 << 10))
        .map(|i| (i % 251) as u8)
        .collect();
    std::fs::write(&twin, &bytes).unwrap();
    let container = format!("{}/freads", env.mount.display());
    let mut dd = Command::new("dd");
    dd.args(["bs=65536", "status=none"])
        .arg(format!("if={}", twin.display()))
        .arg(format!("of={container}"));
    ok(run_preloaded(&env, dd), "dd into the mount");
    let per_fread = |file: &str| -> Option<f64> {
        let at = |k: u64| syscalls_of(&env, &bins, &["calls-fread", &k.to_string(), file]);
        let (once, twice) = (at(N)?, at(2 * N)?);
        Some((twice - once) as f64 / N as f64)
    };
    let Some(flat) = per_fread(twin.to_str().unwrap()) else {
        eprintln!("stdio_freads_cost_what_they_cost_on_a_flat_file: skipped, no ptrace");
        return;
    };
    let plfs = per_fread(&container).unwrap();
    assert!(
        plfs <= flat + 0.05,
        "a 32 KiB fread: {plfs} syscalls on a container, {flat} on a flat file"
    );
}

/// The per-syscall histogram `plfs-tools syscalls` prints for `CMD ARGS`
/// run under the preload; `None` where this system refuses ptrace.
fn histogram(
    env: &Env,
    [lib, _, tools]: &[PathBuf; 3],
    cmd: &str,
    args: &[&std::path::Path],
) -> Option<std::collections::HashMap<String, u64>> {
    let out = Command::new(tools)
        .args(["syscalls", "--", cmd])
        .args(args)
        .env("LD_PRELOAD", lib)
        .env("LDPLFS_MOUNT", &env.mount)
        .env("LDPLFS_BACKEND", &env.backend)
        .output()
        .expect("spawn plfs-tools");
    let stderr = String::from_utf8_lossy(&out.stderr);
    if stderr.contains("ptrace refused") {
        return None;
    }
    assert!(out.status.success(), "syscalls -- {cmd} {args:?}: {stderr}");
    let counts = stderr
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (n, name) = l.trim().split_once(' ')?;
            Some((name.trim().to_string(), n.parse().ok()?))
        });
    Some(counts.collect())
}

/// `cp` into and out of the mount moves the file's bytes in the kernel,
/// as a flat `cp` does: it enters `copy_file_range`, and no `read`,
/// `pread64`, `write` or `pwrite64` carries the bytes. When the shim refused
/// `copy_file_range`, 64 MiB out of the mount took 1,068 syscalls, 450
/// of them `pread64`s and 446 `write`s.
#[test]
fn cp_moves_a_containers_bytes_in_the_kernel() {
    let bins = release_bins();
    let env = setup("cpkernel");
    let twin = env.outside.join("twin.bin");
    let bytes = payload(4 << 20);
    std::fs::write(&twin, &bytes).unwrap();
    let container = env.mount.join("copied.bin");
    let (flat, out) = (env.outside.join("flat.bin"), env.outside.join("out.bin"));
    let Some(flat_cp) = histogram(&env, &bins, "cp", &[&twin, &flat]) else {
        eprintln!("cp_moves_a_containers_bytes_in_the_kernel: skipped, no ptrace");
        return;
    };
    let into = histogram(&env, &bins, "cp", &[&twin, &container]).unwrap();
    let out_of = histogram(&env, &bins, "cp", &[&container, &out]).unwrap();
    let byte_calls = |h: &std::collections::HashMap<String, u64>| {
        ["read", "pread64", "write", "pwrite64"]
            .iter()
            .map(|c| h.get(*c).copied().unwrap_or(0))
            .sum::<u64>()
    };
    // 4 MiB through cp's 128 KiB buffer would be 32 reads and 32 writes;
    // an index dropping costs a `pread64` or a `pwrite64`.
    for (what, h) in [("into", &into), ("out of", &out_of)] {
        assert!(
            h.get("copy_file_range").is_some_and(|&n| n >= 1),
            "cp {what} the mount: {h:?}"
        );
        assert!(
            byte_calls(h) <= byte_calls(&flat_cp) + 4,
            "cp {what} the mount: {h:?}, a flat cp: {flat_cp:?}"
        );
    }
    assert!(
        std::fs::read(&out).unwrap() == bytes,
        "the bytes made the round trip"
    );
}

/// The deployment form of the merged index: four processes under the
/// release preload write one file, each a shuffled stride of 4096 1 KiB
/// records — a full index buffer each — and the last one's close leaves
/// `merged` beside the droppings, which readers load. A fifth process
/// then appends: readers load the file and the fifth's one index dropping
/// on top, no other `merged*` name is left, and `md5sum` and `cmp` match
/// the flat twin throughout.
#[test]
fn the_last_of_four_writers_leaves_a_merged_index_readers_load() {
    use plfs::container::{self, MergedState};
    use plfs::Backing;
    const RANKS: u64 = 4;
    let [lib, smoke, _] = release_bins();
    let env = setup("merged");
    let file = format!("{}/ckpt.bin", env.mount.display());
    let twin = env.outside.join("ckpt.twin");
    let preloaded = |cmd: &mut Command| {
        cmd.env("LD_PRELOAD", &lib)
            .env("LDPLFS_MOUNT", &env.mount)
            .env("LDPLFS_BACKEND", &env.backend);
    };
    let stride = |rank: u64, records: u64| {
        let mut cmd = Command::new(&smoke);
        cmd.arg("stride")
            .arg(rank.to_string())
            .arg(RANKS.to_string());
        cmd.arg(records.to_string()).arg(&file).arg(&twin);
        preloaded(&mut cmd);
        cmd
    };
    // Rank 0 makes the file, as an MPI job's does before the barrier.
    ok(stride(0, 0).output().unwrap(), "stride create");
    let ranks: Vec<_> = (0..RANKS)
        .map(|rank| stride(rank, 4096).spawn().expect("spawn a rank"))
        .collect();
    for rank in ranks {
        ok(rank.wait_with_output().unwrap(), "stride rank");
    }
    let backing = std::sync::Arc::new(plfs::RealBacking::new(&env.backend).unwrap());
    // The merged index's state, its names, and the files a reader's view
    // opens.
    let state = || {
        let mut names = backing.readdir("/ckpt.bin").unwrap();
        names.retain(|n| n.starts_with(container::MERGED_FILE));
        let metered = plfs::MeterBacking::new(backing.clone());
        let before = metered.snapshot();
        container::build_global_index(&metered, "/ckpt.bin").unwrap();
        let opened = metered.snapshot().delta(&before).open;
        let state = container::merged_state(backing.as_ref(), "/ckpt.bin").unwrap();
        (state, names, opened)
    };
    let merged = vec![container::MERGED_FILE.to_string()];
    assert_eq!(
        state(),
        (MergedState::Valid, merged.clone(), 1),
        "after the last close: the merged index alone"
    );
    let same_as_twin = |what: &str| {
        let mut md5 = Command::new("md5sum");
        md5.arg(&file);
        preloaded(&mut md5);
        let got = ok(md5.output().unwrap(), "md5sum");
        let want = ok(
            Command::new("md5sum").arg(&twin).output().unwrap(),
            "md5sum",
        );
        assert_eq!(got[..32], want[..32], "md5sum {what}");
        let mut cmp = Command::new("cmp");
        cmp.arg(&file).arg(&twin);
        preloaded(&mut cmp);
        ok(cmp.output().unwrap(), &format!("cmp {what}"));
    };
    same_as_twin("of the merged index");
    let tail = env.outside.join("tail.bin");
    std::fs::write(&tail, payload(5000)).unwrap();
    let mut dd = Command::new("dd");
    dd.arg(format!("if={}", tail.display()))
        .arg(format!("of={file}"))
        .args(["oflag=append", "conv=notrunc", "status=none"]);
    preloaded(&mut dd);
    ok(dd.output().unwrap(), "dd append");
    let mut flat = std::fs::OpenOptions::new()
        .append(true)
        .open(&twin)
        .unwrap();
    std::io::Write::write_all(&mut flat, &std::fs::read(&tail).unwrap()).unwrap();
    same_as_twin("after the append");
    assert_eq!(
        state(),
        (MergedState::Valid, merged, 2),
        "after the fifth writer: the merged index and its index dropping"
    );
}
