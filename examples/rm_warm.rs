//! `rm` over a warm directory: N small containers made and stat'ed through
//! one mount, so the metadata cache holds a verdict for each, then removed
//! one by one as `rm` removes them — a stat, an unlink. Prints, as one
//! JSON line, the removal's backing metadata ops and its wall time.
//!
//! ```sh
//! cargo run --release --example rm_warm -- [N] [DIR]
//! ```
//!
//! `N` defaults to 4096, the metadata cache's default capacity; `DIR`
//! (the backing directory, made and removed) to one under the temp dir.

use plfs::{Backing, MeterBacking, OpenFlags, Plfs, RealBacking};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map_or(4096, |a| a.parse().expect("N: a count"));
    let root = args.next().map_or_else(
        || std::env::temp_dir().join(format!("ldplfs-rm-warm-{}", std::process::id())),
        Into::into,
    );
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    let meter = Arc::new(MeterBacking::new(Arc::new(
        RealBacking::new(&root).unwrap(),
    )));
    let plfs = Plfs::new(meter.clone() as Arc<dyn Backing>);

    plfs.mkdir("/d").unwrap();
    let paths: Vec<String> = (0..n).map(|i| format!("/d/f{i}")).collect();
    let flags = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
    for p in &paths {
        let fd = plfs.open(p, flags, 1).unwrap();
        plfs.write(&fd, &[7u8; 1024], 0, 1).unwrap();
        plfs.close(&fd, 1).unwrap();
    }
    for p in &paths {
        plfs.getattr(p).unwrap();
    }

    let before = meter.snapshot();
    let t0 = Instant::now();
    for p in &paths {
        plfs.getattr(p).unwrap();
        plfs.unlink(p).unwrap();
    }
    let wall = t0.elapsed().as_secs_f64();
    let ops = meter.snapshot().delta(&before).metadata_ops();
    println!(
        "{{\"files\": {n}, \"meta_ops\": {ops}, \"meta_ops_per_file\": {:.3}, \"wall_s\": {wall:.6}}}",
        ops as f64 / n.max(1) as f64
    );
    std::fs::remove_dir_all(&root).unwrap();
}
