//! Integration: `plfs-tools` maintenance commands against containers
//! produced by the real shim on a real backend directory — the full
//! operator workflow (write through LDPLFS, inspect/repair with the tools).

use ldplfs::{CFile, LdPlfsBuilder, PosixLayer, RealPosix};
use plfs::{Plfs, RealBacking};
use std::sync::Arc;

fn stack(tag: &str) -> (Arc<dyn PosixLayer>, RealBacking, std::path::PathBuf) {
    let root = std::env::temp_dir().join(format!("ldplfs-toolse2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let under = Arc::new(RealPosix::rooted(root.join("fs")).unwrap());
    let backend_dir = root.join("backend");
    let backing = Arc::new(RealBacking::new(&backend_dir).unwrap());
    let shim: Arc<dyn PosixLayer> = Arc::new(
        LdPlfsBuilder::new(under)
            .mount("/plfs", Plfs::new(backing))
            .build()
            .unwrap(),
    );
    let tool_backing = RealBacking::new(&backend_dir).unwrap();
    (shim, tool_backing, root)
}

fn write_via_shim(shim: &Arc<dyn PosixLayer>, path: &str, data: &[u8]) {
    let mut f = CFile::open(shim.clone(), path, "w").unwrap();
    f.write(data).unwrap();
    f.close().unwrap();
}

#[test]
fn stat_map_flatten_on_shim_written_container() {
    let (shim, backing, root) = stack("smf");
    let data: Vec<u8> = (0..60_000u32).map(|i| (i % 253) as u8).collect();
    write_via_shim(&shim, "/plfs/ckpt", &data);

    let stat = plfs_tools::stat(&backing, "/ckpt").unwrap();
    assert!(stat.contains("logical size:   60000 bytes"), "{stat}");

    let map = plfs_tools::map(&backing, "/ckpt").unwrap();
    assert!(map.contains("dropping.data."), "{map}");

    let out = plfs_tools::flatten(&backing, "/ckpt", "/extracted").unwrap();
    assert!(out.contains("wrote 60000 bytes"));
    // The flat file is a plain host file with identical bytes.
    let host = root.join("backend/extracted");
    assert_eq!(std::fs::read(&host).unwrap(), data);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn check_repair_cycle_on_real_backend() {
    let (shim, backing, root) = stack("repair");
    write_via_shim(&shim, "/plfs/f", &vec![9u8; 10_000]);
    assert!(plfs_tools::check(&backing, "/f").unwrap().contains("clean"));

    // Crash-tear the index on the host file system directly.
    let container = root.join("backend/f");
    // The shim made the file: its index is the top-level one.
    let index = std::fs::read_dir(&container)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with("dropping.index.")
        })
        .expect("index dropping");
    use std::io::Write;
    let mut fh = std::fs::OpenOptions::new()
        .append(true)
        .open(index.path())
        .unwrap();
    fh.write_all(&[0xBA; 7]).unwrap();
    drop(fh);

    let report = plfs_tools::check(&backing, "/f").unwrap();
    assert!(report.contains("torn index"), "{report}");
    let repair = plfs_tools::repair(&backing, "/f", true).unwrap();
    assert!(repair.contains("indices truncated:      1"), "{repair}");
    assert!(plfs_tools::check(&backing, "/f").unwrap().contains("clean"));

    // And the shim still reads the full data afterwards.
    let mut f = CFile::open(shim.clone(), "/plfs/f", "r").unwrap();
    let mut buf = vec![0u8; 10_000];
    let mut got = 0;
    while got < buf.len() {
        let n = f.read(&mut buf[got..]).unwrap();
        if n == 0 {
            break;
        }
        got += n;
    }
    assert_eq!(got, 10_000);
    assert!(buf.iter().all(|&b| b == 9));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn ls_and_version_and_rm() {
    let (shim, backing, root) = stack("lsrm");
    write_via_shim(&shim, "/plfs/a", b"aaa");
    write_via_shim(&shim, "/plfs/b", b"bbbbbb");
    let ls = plfs_tools::ls(&backing, "/").unwrap();
    assert!(ls.contains("container"), "{ls}");
    assert!(ls.contains(" a"), "{ls}");
    assert!(ls.contains(" b"), "{ls}");

    let ver = plfs_tools::version(&backing, "/a").unwrap();
    assert!(ver.contains("plfs-container v1"));

    plfs_tools::rm(&backing, "/a").unwrap();
    assert!(plfs_tools::stat(&backing, "/a").is_err());
    // /b untouched.
    assert!(plfs_tools::stat(&backing, "/b")
        .unwrap()
        .contains("6 bytes"));
    let _ = std::fs::remove_dir_all(&root);
}
