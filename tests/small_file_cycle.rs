//! Container lifecycle names: writer markers (`open.<pid>.<seq>`) and
//! fast-stat drops (`meta.<eof>.<bytes>.<pid>.<seq>`) are names in the
//! container directory, so one `readdir` of it is the only question the
//! metadata path asks. Pins what the benchmark's `meta_storm` cycle costs
//! the backing store per call, and that maintenance leaves no stray names.

use plfs::container::{self, ContainerParams, LayoutMode};
use plfs::{
    Backing, Conf, MemBacking, MeterBacking, MeterSnapshot, OpenFlags, Plfs, SpreadBacking,
    TieredBacking, WriteFile,
};
use std::sync::Arc;

fn lifecycle_names(b: &dyn Backing, path: &str) -> Vec<String> {
    let mut names = b.readdir(path).unwrap();
    names.retain(|n| n.starts_with("open.") || n.starts_with("meta."));
    names
}

/// `f`'s result and what it cost the backing store.
fn cost<T>(meter: &MeterBacking, f: impl FnOnce() -> T) -> (T, MeterSnapshot) {
    let before = meter.snapshot();
    let out = f();
    (out, meter.snapshot().delta(&before))
}

/// One `meta_storm` cycle of a 1 KiB file — create, write, close, stat,
/// open, read, close, unlink — with the backing ops of each call. Upper
/// bounds (the inline small-file form may lower them); what no call may do
/// is `stat` something the listing or an error already told it.
#[test]
fn small_file_cycle_costs_at_most_24_backing_metadata_ops() {
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let plfs = Plfs::new(meter.clone() as Arc<dyn Backing>);
    // Twice over one path: the second cycle starts from the first's
    // unlink, as the storm's does, and must cost the same.
    for cycle in 0..2u64 {
        let pid = 40 + cycle;
        let flags = OpenFlags::WRONLY | OpenFlags::CREAT;
        let (wfd, create) = cost(&meter, || plfs.open("/small", flags, pid).unwrap());
        let (n, write) = cost(&meter, || plfs.write(&wfd, &[7u8; 1024], 0, pid).unwrap());
        assert_eq!(n, 1024);
        let (refs, close) = cost(&meter, || plfs.close(&wfd, pid).unwrap());
        assert_eq!(refs, 0);
        let (st, stat) = cost(&meter, || plfs.getattr("/small").unwrap());
        assert_eq!((st.size, st.physical_bytes), (1024, 1024));
        let (rfd, open) = cost(&meter, || {
            plfs.open("/small", OpenFlags::RDONLY, pid).unwrap()
        });
        let mut buf = [0u8; 1024];
        let (n, read) = cost(&meter, || plfs.read(&rfd, &mut buf, 0).unwrap());
        assert_eq!((n, buf), (1024, [7u8; 1024]));
        let (_, close_rd) = cost(&meter, || plfs.close(&rfd, pid).unwrap());
        let ((), unlink) = cost(&meter, || plfs.unlink("/small").unwrap());
        assert!(!meter.exists("/small"));

        // create: the cache-miss probe, mkdir, the access file.
        assert_eq!(create.stat, 1, "{create:?}");
        assert!(create.metadata_ops() <= 3, "create: {create:?}");
        // first write: hostdir mkdir, data + index droppings, the marker.
        assert!(write.metadata_ops() <= 4, "first write: {write:?}");
        // close: both droppings synced, the marker renamed into the drop.
        assert_eq!((close.sync, close.rename), (2, 1), "{close:?}");
        assert!(close.metadata_ops() <= 3, "close: {close:?}");
        // stat after a local close: one listing, writers and drops both.
        assert_eq!(stat.readdir, stat.metadata_ops(), "{stat:?}");
        assert!(stat.metadata_ops() <= 1, "stat: {stat:?}");
        assert_eq!(open.metadata_ops(), 0, "warm open: {open:?}");
        // first read: container + hostdir listings, index open + size,
        // data open.
        assert!(read.metadata_ops() <= 5, "first read: {read:?}");
        assert_eq!(close_rd.metadata_ops(), 0, "{close_rd:?}");
        // unlink: one listing each of container and hostdir, four files
        // (access, drop, data, index), two rmdirs.
        assert!(unlink.metadata_ops() <= 8, "unlink: {unlink:?}");
        let calls = [create, write, close, stat, open, read, close_rd, unlink];
        let probes: u64 = calls.iter().map(|c| c.stat + c.exists).sum();
        assert_eq!(probes, 1, "only the create's cache-miss probe");
        let total: u64 = calls.iter().map(MeterSnapshot::metadata_ops).sum();
        assert!(total <= 24, "cycle {cycle}: {total} metadata ops");
    }
}

/// A container in the paper's Fig. 1 shape — `openhosts/` and `meta/`
/// subdirectories — still opens, stats to the right size and unlinks. No
/// compatibility reader: its subdirectories are never read, so `getattr`
/// merges the index, whatever a legacy drop says.
#[test]
fn legacy_shape_container_opens_stats_and_unlinks() {
    let b = Arc::new(MemBacking::new());
    let params = ContainerParams::default();
    container::create_container(b.as_ref(), "/old", &params, true).unwrap();
    b.mkdir("/old/openhosts").unwrap();
    b.mkdir("/old/meta").unwrap();
    b.create("/old/meta/999.999.7", true).unwrap();
    let mut w = WriteFile::open(b.as_ref(), "/old", &params, 7, 64).unwrap();
    w.write(b"written before this layout", 0).unwrap();
    w.sync().unwrap();
    drop(w);

    let plfs = Plfs::new(b.clone());
    assert_eq!(plfs.getattr("/old").unwrap().size, 26);
    let fd = plfs.open("/old", OpenFlags::RDONLY, 1).unwrap();
    let mut buf = [0u8; 26];
    assert_eq!(plfs.read(&fd, &mut buf, 0).unwrap(), 26);
    assert_eq!(&buf, b"written before this layout");
    plfs.close(&fd, 1).unwrap();
    plfs.unlink("/old").unwrap();
    assert!(!b.exists("/old"));
    assert!(plfs.access("/old").is_err());
}

/// check, repair --clear-markers, compact and trunc(0) keep the lifecycle
/// names exact: no stray marker, never more drops than describe the
/// droppings.
#[test]
fn maintenance_leaves_no_stray_lifecycle_names() {
    let b = Arc::new(MemBacking::new());
    let plfs = Plfs::new(b.clone());
    let fd = plfs
        .open("/c", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    for pid in 0..3u64 {
        if pid > 0 {
            fd.add_ref(pid);
        }
        plfs.write(&fd, &[pid as u8 + 1; 100], pid * 100, pid)
            .unwrap();
    }
    for pid in 0..3 {
        plfs.close(&fd, pid).unwrap();
    }
    let mut drops = lifecycle_names(b.as_ref(), "/c");
    drops.sort();
    assert_eq!(
        drops,
        ["meta.100.100.0.0", "meta.200.100.1.0", "meta.300.100.2.0"]
    );

    // A writer that crashed left its marker behind.
    container::mark_open(b.as_ref(), "/c", 77, 0).unwrap();
    let report = plfs::check(b.as_ref(), "/c").unwrap();
    assert_eq!(
        report.findings,
        [plfs::Finding::OpenWriters { count: 1 }],
        "check reads, never writes"
    );
    assert_eq!(lifecycle_names(b.as_ref(), "/c").len(), 4);
    let rep = plfs::repair(b.as_ref(), "/c", true).unwrap();
    assert_eq!(rep.markers_cleared, 1);
    assert_eq!(lifecycle_names(b.as_ref(), "/c"), ["meta.300.0.0.0"]);
    assert!(plfs::check(b.as_ref(), "/c").unwrap().is_clean());

    let stats = plfs.compact("/c").unwrap();
    assert_eq!((stats.droppings_before, stats.droppings_after), (3, 1));
    assert_eq!(lifecycle_names(b.as_ref(), "/c"), ["meta.300.300.0.1"]);
    assert_eq!(plfs.getattr("/c").unwrap().size, 300);

    plfs.trunc("/c", 0).unwrap();
    assert_eq!(b.readdir("/c").unwrap(), [".plfsaccess"]);
    assert_eq!(plfs.getattr("/c").unwrap().size, 0);
}

/// Regression (root-package copy of `plfs::fd`'s test): two fds of one pid
/// on one container used to share a marker and a drop name, so the first
/// close hid the writer still open from every other process. In log mode
/// too, where every writer shares dropping pair 0.
#[test]
fn two_fds_of_one_pid_keep_their_own_marker_and_drop() {
    for mode in [LayoutMode::Both, LayoutMode::LogStructured] {
        let b = Arc::new(MemBacking::new());
        let plfs = Plfs::new(b.clone()).with_params(ContainerParams {
            mode,
            ..Default::default()
        });
        let flags = OpenFlags::RDWR | OpenFlags::CREAT;
        let a = plfs.open("/f", flags, 9).unwrap();
        let other = plfs.open("/f", flags, 9).unwrap();
        plfs.write(&a, b"aaaa", 0, 9).unwrap();
        plfs.write(&other, &[b'b'; 24], 0, 9).unwrap();
        plfs.sync(&other, 9).unwrap();
        plfs.close(&a, 9).unwrap();
        assert_eq!(
            lifecycle_names(b.as_ref(), "/f"),
            ["meta.4.4.9.0", "open.9.1"],
            "{mode:?}"
        );
        // A fresh process: one writer still open, so no fast stat off A's
        // drop.
        assert_eq!(container::open_writers(b.as_ref(), "/f").unwrap(), 1);
        assert_eq!(Plfs::new(b.clone()).getattr("/f").unwrap().size, 24);
        plfs.close(&other, 9).unwrap();
        let st = Plfs::new(b.clone()).getattr("/f").unwrap();
        assert_eq!((st.size, st.physical_bytes), (24, 28), "{mode:?}");
        // A later writer of the pid, same eof and bytes as A's: its drop
        // lands beside A's, not on it.
        let again = plfs.open("/f", flags, 9).unwrap();
        plfs.write(&again, b"cccc", 0, 9).unwrap();
        plfs.close(&again, 9).unwrap();
        let st = Plfs::new(b.clone()).getattr("/f").unwrap();
        assert_eq!((st.size, st.physical_bytes), (24, 32), "{mode:?}");
    }
}

/// Creating over a container through a tiered mount whose fast tier is
/// fresh must answer from what is there and touch none of it: the container
/// only the slow tier holds is there, not half-made by this create.
#[test]
fn create_over_a_container_only_the_slow_tier_holds_keeps_it() {
    let slow = Arc::new(MemBacking::new());
    let params = ContainerParams {
        num_hostdirs: 3,
        ..Default::default()
    };
    container::create_container(slow.as_ref(), "/c", &params, true).unwrap();
    let tiered = TieredBacking::new(Arc::new(MemBacking::new()), slow.clone(), &Conf::default());
    let excl = container::create_container(&tiered, "/c", &ContainerParams::default(), true);
    assert!(matches!(excl, Err(plfs::Error::Exists(_))), "{excl:?}");
    let joined = container::create_container(&tiered, "/c", &ContainerParams::default(), false);
    assert_eq!(joined.unwrap().num_hostdirs, 3, "the stored params");
    assert!(slow.exists("/c/.plfsaccess"), "access file survives");
}

/// On a spread mount the lifecycle names live on backend 0, and a close
/// costs it alone: the rename is routed like any other file op, not
/// broadcast to every backend.
#[test]
fn close_on_a_spread_mount_touches_only_the_canonical_backend() {
    let meters: Vec<Arc<MeterBacking>> = (0..3)
        .map(|_| Arc::new(MeterBacking::new(Arc::new(MemBacking::new()))))
        .collect();
    let backends = meters.iter().map(|m| m.clone() as Arc<dyn Backing>);
    let spread = SpreadBacking::new(backends.collect()).unwrap();
    let plfs = Plfs::new(Arc::new(spread));
    let fd = plfs
        .open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, 5)
        .unwrap();
    plfs.write(&fd, &[1u8; 512], 0, 5).unwrap();
    let before: Vec<MeterSnapshot> = meters.iter().map(|m| m.snapshot()).collect();
    plfs.close(&fd, 5).unwrap();
    let cost: Vec<MeterSnapshot> = meters
        .iter()
        .zip(&before)
        .map(|(m, b)| m.snapshot().delta(b))
        .collect();
    // One rename, after one stat that tells a file from a directory tree.
    assert_eq!((cost[0].rename, cost[0].stat), (1, 1), "{:?}", cost[0]);
    assert!(cost[1..].iter().all(|c| c.rename == 0), "{cost:?}");
    let total: u64 = cost.iter().map(MeterSnapshot::metadata_ops).sum();
    assert!(total <= 4, "two syncs, the stat, the rename: {cost:?}");
    assert_eq!(plfs.getattr("/f").unwrap().size, 512);
}
