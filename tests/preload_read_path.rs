//! The deployment-form read path under tier-1 `cargo test`: twelve real
//! `dd` processes under `LD_PRELOAD` (one dropping each, written out of
//! logical order) build one container; real `cat`, `md5sum` and `cp` then
//! read it back through the shim and must produce the bytes of a flat
//! twin. (The full matrix is `crates/preload/tests/preload_e2e.rs`.)

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn target_dir() -> PathBuf {
    // The test binary lives in target/<profile>/deps; artifacts one up.
    let mut p = std::env::current_exe().unwrap();
    p.pop();
    p.pop();
    p
}

struct Shim {
    lib: PathBuf,
    mount: PathBuf,
    backend: PathBuf,
}

impl Shim {
    fn run(&self, tool: &str, args: &[&str]) -> Output {
        let out = Command::new(tool)
            .args(args)
            .env("LD_PRELOAD", &self.lib)
            .env("LDPLFS_MOUNT", &self.mount)
            .env("LDPLFS_BACKEND", &self.backend)
            .output()
            .unwrap_or_else(|e| panic!("spawn {tool}: {e}"));
        assert!(
            out.status.success(),
            "{tool} {args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        out
    }
}

fn digest(md5sum_stdout: &[u8]) -> String {
    String::from_utf8_lossy(&md5sum_stdout[..32]).into_owned()
}

#[test]
fn unmodified_tools_read_a_many_dropping_container_like_a_flat_file() {
    let built = Command::new(env!("CARGO"))
        .args(["build", "--offline", "-p", "ldplfs-preload"])
        .status()
        .expect("cargo build");
    assert!(built.success(), "building the preload crate failed");
    let root = std::env::temp_dir().join(format!("preload-read-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let shim = Shim {
        lib: target_dir().join("libldplfs_preload.so"),
        mount: root.join("plfs"),
        backend: root.join("backend"),
    };
    std::fs::create_dir_all(&shim.backend).unwrap();

    const BLOCK: usize = 4096;
    const BLOCKS: usize = 48;
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let bytes: Vec<u8> = (0..BLOCK * BLOCKS)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect();
    let twin = root.join("twin.bin");
    std::fs::write(&twin, &bytes).unwrap();

    // Runs of 4 blocks, one process (pid, hence dropping) each, in an
    // order that is not the logical one.
    const RUNS: usize = BLOCKS / 4;
    let container = shim.mount.join("f.bin").display().to_string();
    for run in (0..RUNS).map(|i| i * 5 % RUNS) {
        let at = (run * 4).to_string();
        shim.run(
            "dd",
            &[
                &format!("if={}", twin.display()),
                &format!("of={container}"),
                "bs=4096",
                "count=4",
                &format!("skip={at}"),
                &format!("seek={at}"),
                "conv=notrunc",
                "status=none",
            ],
        );
    }

    assert!(shim.run("cat", &[&container]).stdout == bytes, "cat");
    let flat = Command::new("md5sum").arg(&twin).output().unwrap();
    assert_eq!(
        digest(&shim.run("md5sum", &[&container]).stdout),
        digest(&flat.stdout),
        "md5sum"
    );
    let copy: &Path = &root.join("copy.bin");
    shim.run("cp", &[&container, &copy.display().to_string()]);
    assert!(std::fs::read(copy).unwrap() == bytes, "cp out of the mount");
    let _ = std::fs::remove_dir_all(&root);
}
