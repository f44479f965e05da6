//! Container lifecycle names and the creator's top-level dropping pair.
//! Writer markers (`open.<pid>.<seq>`) and fast-stat drops
//! (`meta.<eof>.<bytes>.<pid>.<seq>`) are names in the container directory;
//! the writer that made the container keeps its two droppings there too,
//! its index dropping's name doing both jobs. One `readdir` of the
//! container is the only question the metadata path asks. Pins what the
//! benchmark's `meta_storm` cycle costs the backing store per call, who
//! gets which pair shape, and that maintenance accepts both.

use plfs::container::{self, ContainerParams, LayoutMode};
use plfs::{
    Backing, Conf, MemBacking, MeterBacking, MeterSnapshot, OpenFlags, Plfs, SpreadBacking,
    TieredBacking, WriteFile,
};
use std::sync::Arc;

const CREATE_RW: OpenFlags = OpenFlags(0o2 | 0o100); // RDWR|CREAT

/// Every name in the container directory that says a writer is open or
/// has closed.
fn lifecycle_names(b: &dyn Backing, path: &str) -> Vec<String> {
    let mut names = b.readdir(path).unwrap();
    names.retain(|n| {
        ["open.", "meta.", "dropping.index."]
            .iter()
            .any(|p| n.starts_with(p))
    });
    names.sort();
    names
}

/// Data droppings in the container directory itself: top-level pairs.
fn toplevel_pairs(b: &dyn Backing, path: &str) -> usize {
    let names = b.readdir(path).unwrap();
    names
        .iter()
        .filter(|n| n.starts_with("dropping.data."))
        .count()
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
/// is probe for something a listing or an error already told it.
#[test]
fn small_file_cycle_costs_at_most_17_backing_metadata_ops() {
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let plfs = Plfs::new(meter.clone() as Arc<dyn Backing>);
    // Twice over one path: the second cycle starts from the first's
    // unlink, as the storm's does, and must cost the same.
    for cycle in 0..2u64 {
        let pid = 40 + cycle;
        let flags = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
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

        // create: mkdir (its answer is the probe), the access file.
        assert_eq!((create.mkdir, create.create), (1, 1), "{create:?}");
        assert!(create.metadata_ops() <= 2, "create: {create:?}");
        // first write: the data and index droppings, beside the access file.
        assert_eq!(write.create, write.metadata_ops(), "{write:?}");
        assert!(write.metadata_ops() <= 2, "first write: {write:?}");
        // close: both droppings synced, the index renamed to its suffix.
        assert_eq!((close.sync, close.rename), (2, 1), "{close:?}");
        assert!(close.metadata_ops() <= 3, "close: {close:?}");
        // stat after a local close: one listing, writers and drops both.
        assert_eq!(stat.readdir, stat.metadata_ops(), "{stat:?}");
        assert!(stat.metadata_ops() <= 1, "stat: {stat:?}");
        assert_eq!(open.metadata_ops(), 0, "warm open: {open:?}");
        // first read: the container listing, index open + size, data open.
        assert_eq!(read.readdir, 1, "{read:?}");
        assert!(read.metadata_ops() <= 4, "first read: {read:?}");
        assert_eq!(close_rd.metadata_ops(), 0, "{close_rd:?}");
        // unlink: one listing, three files (access, data, index), one rmdir.
        assert_eq!((unlink.readdir, unlink.rmdir), (1, 1), "{unlink:?}");
        assert!(unlink.metadata_ops() <= 5, "unlink: {unlink:?}");
        let calls = [create, write, close, stat, open, read, close_rd, unlink];
        let probes: u64 = calls.iter().map(|c| c.stat + c.exists).sum();
        assert_eq!(probes, 0, "nothing is probed");
        let total: u64 = calls.iter().map(MeterSnapshot::metadata_ops).sum();
        assert!(total <= 17, "cycle {cycle}: {total} metadata ops");
    }
}

/// Who gets which pair is what the code observed: the writer whose open
/// made the container gets the top-level pair; one that joined it, one
/// that reopened it and every further rank of the creating fd get hostdir
/// pairs — an N-writer container holds exactly one top-level pair.
#[test]
fn only_the_creators_first_writer_gets_the_toplevel_pair() {
    let b = Arc::new(MemBacking::new());
    let plfs = Plfs::new(b.clone());
    let creator = plfs.open("/f", CREATE_RW, 1).unwrap();
    // Another process joins before the creator has written a byte.
    let joiner_mount = Plfs::new(b.clone());
    let joiner = joiner_mount.open("/f", CREATE_RW, 2).unwrap();
    joiner_mount.write(&joiner, b"joiner", 10, 2).unwrap();
    assert_eq!(toplevel_pairs(b.as_ref(), "/f"), 0, "a joiner never");
    assert_eq!(lifecycle_names(b.as_ref(), "/f"), ["open.2.0"]);

    for rank in [1u64, 3, 4] {
        if rank != 1 {
            creator.add_ref(rank);
        }
        plfs.write(&creator, &[rank as u8; 10], rank * 20, rank)
            .unwrap();
    }
    assert_eq!(toplevel_pairs(b.as_ref(), "/f"), 1, "the first writer only");
    assert_eq!(
        lifecycle_names(b.as_ref(), "/f"),
        ["dropping.index.1.0", "open.2.0", "open.3.0", "open.4.0"]
    );
    for rank in [1u64, 3, 4] {
        plfs.close(&creator, rank).unwrap();
    }
    joiner_mount.close(&joiner, 2).unwrap();
    assert_eq!(
        lifecycle_names(b.as_ref(), "/f"),
        [
            "dropping.index.1.0.30.10",
            "meta.16.6.2.0",
            "meta.70.10.3.0",
            "meta.90.10.4.0"
        ]
    );

    // The creating mount reopens its own file: a reopener, not a creator —
    // with O_CREAT on a cached verdict and on none.
    for mount in [&plfs, &Plfs::new(b.clone())] {
        let again = mount.open("/f", CREATE_RW, 1).unwrap();
        mount.write(&again, b"again", 0, 1).unwrap();
        mount.close(&again, 1).unwrap();
    }
    assert_eq!(toplevel_pairs(b.as_ref(), "/f"), 1);
    assert_eq!(
        container::list_droppings(b.as_ref(), "/f").unwrap().len(),
        6
    );
    let st = Plfs::new(b.clone()).getattr("/f").unwrap();
    assert_eq!(
        (st.size, st.physical_bytes),
        (90, 46),
        "fast stat sums both shapes"
    );

    // Log mode shares one pair among all writers: no top-level pair at all.
    let log = Plfs::new(b.clone()).with_params(ContainerParams {
        mode: LayoutMode::LogStructured,
        ..Default::default()
    });
    let fd = log.open("/log", CREATE_RW, 1).unwrap();
    log.write(&fd, b"shared", 0, 1).unwrap();
    log.close(&fd, 1).unwrap();
    assert_eq!(toplevel_pairs(b.as_ref(), "/log"), 0);
    assert_eq!(lifecycle_names(b.as_ref(), "/log"), ["meta.6.6.1.0"]);
}

/// A creator that died left its index dropping un-suffixed: to everyone
/// else that is one writer still open — no fast stat, no compaction — and
/// its flushed records still read.
#[test]
fn a_killed_creators_unsuffixed_index_reads_as_one_open_writer() {
    let b = Arc::new(MemBacking::new());
    let plfs = Plfs::new(b.clone());
    let fd = plfs.open("/f", CREATE_RW, 6).unwrap();
    plfs.write(&fd, &[3u8; 48], 0, 6).unwrap();
    plfs.sync(&fd, 6).unwrap();
    std::mem::forget(fd);
    assert_eq!(lifecycle_names(b.as_ref(), "/f"), ["dropping.index.6.0"]);

    let other = Plfs::new(b.clone());
    assert_eq!(container::open_writers(b.as_ref(), "/f").unwrap(), 1);
    let st = other.getattr("/f").unwrap();
    assert_eq!((st.size, st.physical_bytes), (48, 48), "slow path");
    assert!(matches!(
        other.compact("/f"),
        Err(plfs::Error::InvalidArg(_))
    ));
    let report = plfs::check(b.as_ref(), "/f").unwrap();
    assert_eq!(report.findings, [plfs::Finding::OpenWriters { count: 1 }]);
    let rfd = other.open("/f", OpenFlags::RDONLY, 1).unwrap();
    let mut buf = [0u8; 48];
    assert_eq!(other.read(&rfd, &mut buf, 0).unwrap(), 48);
    assert_eq!(buf, [3u8; 48]);
}

/// The contract `benchmark/src/layers.rs::probe_reader` — frozen with the
/// rest of the harness — holds every container to: each
/// `ReadFile::droppings()[i].index_path` is `Some` file that
/// `IndexEntry::decode_all` accepts whole, and the `from_sorted_runs` merge
/// of those runs ends at the file's eof. Whatever the top-level pair does
/// to names, an index dropping stays a whole file of 48-byte records; this
/// is why the single-dropping inline form (records inside the data
/// dropping, ≤ 15 ops a cycle) waits for a `[benchmark]` PR.
#[test]
fn every_listed_index_is_a_whole_file_of_records_merging_to_eof() {
    fn probe(b: &dyn Backing, container: &str, eof: u64) {
        let reader = plfs::ReadFile::open(b, container).unwrap();
        let mut runs = Vec::new();
        for (id, d) in reader.droppings().iter().enumerate() {
            let ip = d.index_path.as_ref().expect("every dropping has an index");
            let f = b.open(ip, false).unwrap();
            let mut raw = vec![0u8; f.size().unwrap() as usize];
            assert_eq!(f.pread(&mut raw, 0).unwrap(), raw.len());
            let mut run = plfs::IndexEntry::decode_all(&raw).unwrap();
            for e in &mut run {
                e.dropping_id = id as u32;
            }
            runs.push(run);
        }
        let merged = plfs::GlobalIndex::from_sorted_runs(runs);
        assert_eq!((merged.eof(), reader.eof()), (eof, eof), "{container}");
    }
    let b = Arc::new(MemBacking::new());
    let conf = Conf {
        index_buffer_entries: 8,
        ..Conf::default()
    };
    let plfs = Plfs::new(b.clone()).with_conf(conf);

    // A small creator, open and closed.
    let fd = plfs.open("/small", CREATE_RW, 1).unwrap();
    plfs.write(&fd, &[1u8; 1000], 0, 1).unwrap();
    plfs.sync(&fd, 1).unwrap();
    probe(b.as_ref(), "/small", 1000);
    plfs.close(&fd, 1).unwrap();
    probe(b.as_ref(), "/small", 1000);

    // A creator that flushed its index mid-stream (irregular offsets, so
    // no run compresses away), then joiners from this mount and another.
    let fd = plfs.open("/big", CREATE_RW, 1).unwrap();
    let offsets = (0..50u64).map(|i| (i * 7919) % 4000);
    for off in offsets.clone() {
        plfs.write(&fd, &[2u8; 7], off, 1).unwrap();
    }
    plfs.close(&fd, 1).unwrap();
    probe(b.as_ref(), "/big", offsets.max().unwrap() + 7);
    let other = Plfs::new(b.clone());
    for (mount, pid) in [(&plfs, 2u64), (&other, 3)] {
        let fd = mount.open("/big", CREATE_RW, pid).unwrap();
        mount
            .write(&fd, &[pid as u8; 100], 4096 + pid * 100, pid)
            .unwrap();
        mount.close(&fd, pid).unwrap();
    }
    assert_eq!(toplevel_pairs(b.as_ref(), "/big"), 1);
    probe(b.as_ref(), "/big", 4496);

    // A compaction, then a nonzero truncate.
    plfs.compact("/big").unwrap();
    probe(b.as_ref(), "/big", 4496);
    plfs.trunc("/big", 3000).unwrap();
    probe(b.as_ref(), "/big", 3000);
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

/// A container in the shape every writer had before the top-level pair —
/// hostdir pairs only, `open.*`/`meta.*` names — is simply a container no
/// creator wrote to: it opens, fast-stats, reads and unlinks.
#[test]
fn hostdir_only_container_opens_stats_and_unlinks() {
    let b = Arc::new(MemBacking::new());
    let params = ContainerParams::default();
    container::create_container(b.as_ref(), "/pr21", &params, true).unwrap();
    for (pid, byte) in [(3u64, b'a'), (4, b'b')] {
        let mut w = WriteFile::open(b.as_ref(), "/pr21", &params, pid, 64).unwrap();
        container::mark_open(b.as_ref(), "/pr21", pid, 0).unwrap();
        w.write(&[byte; 8], (pid - 3) * 8).unwrap();
        w.sync().unwrap();
        container::close_writer(b.as_ref(), "/pr21", w.max_eof(), 8, pid, 0).unwrap();
    }
    assert_eq!(
        lifecycle_names(b.as_ref(), "/pr21"),
        ["meta.16.8.4.0", "meta.8.8.3.0"]
    );
    let plfs = Plfs::new(b.clone());
    let st = plfs.getattr("/pr21").unwrap();
    assert_eq!((st.size, st.physical_bytes), (16, 16));
    let fd = plfs.open("/pr21", OpenFlags::RDONLY, 1).unwrap();
    let mut buf = [0u8; 16];
    assert_eq!(plfs.read(&fd, &mut buf, 0).unwrap(), 16);
    assert_eq!(&buf, b"aaaaaaaabbbbbbbb");
    plfs.close(&fd, 1).unwrap();
    plfs.unlink("/pr21").unwrap();
    assert!(!b.exists("/pr21"));
}

/// A container holding both shapes: the creator's top-level pair
/// (`[0, 100)`) and two more ranks' hostdir pairs, all closed.
fn mixed_shape_container() -> (Arc<MemBacking>, Plfs, Vec<u8>) {
    let b = Arc::new(MemBacking::new());
    let plfs = Plfs::new(b.clone());
    let fd = plfs.open("/c", CREATE_RW, 0).unwrap();
    let mut model = Vec::new();
    for pid in 0..3u64 {
        if pid > 0 {
            fd.add_ref(pid);
        }
        plfs.write(&fd, &[pid as u8 + 1; 100], pid * 100, pid)
            .unwrap();
        model.extend_from_slice(&[pid as u8 + 1; 100]);
    }
    for pid in 0..3 {
        plfs.close(&fd, pid).unwrap();
    }
    assert_eq!(
        lifecycle_names(b.as_ref(), "/c"),
        [
            "dropping.index.0.0.100.100",
            "meta.200.100.1.0",
            "meta.300.100.2.0"
        ]
    );
    (b, plfs, model)
}

/// check, repair --clear-markers, compact and trunc(0) over a mixed-shape
/// container keep the lifecycle names exact: no stray marker, never more
/// drops than describe the droppings.
#[test]
fn maintenance_leaves_no_stray_lifecycle_names() {
    let (b, plfs, model) = mixed_shape_container();
    assert_eq!(
        plfs::flatten::flatten_to_vec(b.as_ref(), "/c").unwrap(),
        model
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
    // The creator's index keeps its records and its drop; the hostdir
    // pairs' two drops fold into one.
    assert_eq!(
        lifecycle_names(b.as_ref(), "/c"),
        ["dropping.index.0.0.100.100", "meta.300.200.0.0"]
    );
    assert!(plfs::check(b.as_ref(), "/c").unwrap().is_clean());
    let st = Plfs::new(b.clone()).getattr("/c").unwrap();
    assert_eq!((st.size, st.physical_bytes), (300, 300));

    let stats = plfs.compact("/c").unwrap();
    assert_eq!((stats.droppings_before, stats.droppings_after), (3, 1));
    assert_eq!(lifecycle_names(b.as_ref(), "/c"), ["meta.300.300.0.0"]);
    assert_eq!(toplevel_pairs(b.as_ref(), "/c"), 0, "folded with the rest");
    assert_eq!(plfs.getattr("/c").unwrap().size, 300);
    assert_eq!(
        plfs::flatten::flatten_to_vec(b.as_ref(), "/c").unwrap(),
        model
    );

    plfs.trunc("/c", 0).unwrap();
    assert_eq!(b.readdir("/c").unwrap(), [".plfsaccess"]);
    assert_eq!(plfs.getattr("/c").unwrap().size, 0);
}

/// Truncation over both shapes: `trunc(0)` removes the top-level pair
/// with the hostdirs, `trunc(len)` rewrites the kept prefix into one hostdir
/// pair, and an `ftruncate` through the creating fd closes its top-level
/// pair by rename first — what it then writes goes to a hostdir.
#[test]
fn truncate_accepts_both_shapes() {
    let (b, plfs, _) = mixed_shape_container();
    plfs.trunc("/c", 0).unwrap();
    assert_eq!(b.readdir("/c").unwrap(), [".plfsaccess"]);

    let (b, plfs, model) = mixed_shape_container();
    plfs.trunc("/c", 150).unwrap();
    assert_eq!(lifecycle_names(b.as_ref(), "/c"), ["meta.150.150.0.0"]);
    assert_eq!(toplevel_pairs(b.as_ref(), "/c"), 0);
    assert_eq!(
        plfs::flatten::flatten_to_vec(b.as_ref(), "/c").unwrap(),
        model[..150]
    );
    assert!(plfs::check(b.as_ref(), "/c").unwrap().is_clean());

    // ftruncate(fd, 0) as the shim does it, through the creating fd.
    let b = Arc::new(MemBacking::new());
    let plfs = Plfs::new(b.clone());
    let fd = plfs.open("/f", CREATE_RW, 8).unwrap();
    plfs.write(&fd, &[1u8; 64], 0, 8).unwrap();
    assert_eq!(lifecycle_names(b.as_ref(), "/f"), ["dropping.index.8.0"]);
    fd.reset_writers().unwrap();
    assert_eq!(
        lifecycle_names(b.as_ref(), "/f"),
        ["dropping.index.8.0.64.64"],
        "closed by rename: the marker is also the index"
    );
    plfs.trunc("/f", 0).unwrap();
    assert_eq!(b.readdir("/f").unwrap(), [".plfsaccess"]);
    plfs.write(&fd, b"after", 0, 8).unwrap();
    let mut buf = [0u8; 5];
    assert_eq!(plfs.read(&fd, &mut buf, 0).unwrap(), 5);
    assert_eq!(&buf, b"after");
    plfs.close(&fd, 8).unwrap();
    assert_eq!(
        toplevel_pairs(b.as_ref(), "/f"),
        0,
        "the pair is not handed out twice"
    );
    assert_eq!(lifecycle_names(b.as_ref(), "/f"), ["meta.5.5.8.0"]);
    let st = Plfs::new(b.clone()).getattr("/f").unwrap();
    assert_eq!((st.size, st.physical_bytes), (5, 5));

    // O_TRUNC on a container another mount made and closed.
    let (b, _, _) = mixed_shape_container();
    let other = Plfs::new(b.clone());
    let flags = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
    let fd = other.open("/c", flags, 5).unwrap();
    assert_eq!(b.readdir("/c").unwrap(), [".plfsaccess"]);
    other.write(&fd, b"new", 0, 5).unwrap();
    other.close(&fd, 5).unwrap();
    assert_eq!(
        toplevel_pairs(b.as_ref(), "/c"),
        0,
        "it joined, it did not create"
    );
    assert_eq!(other.getattr("/c").unwrap().size, 3);
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
        // A made the container: outside log mode its names are its
        // top-level index's, and pair (9, 0) exists once in each place.
        let expect = match mode {
            LayoutMode::LogStructured => ["meta.4.4.9.0", "open.9.1"],
            _ => ["dropping.index.9.0.4.4", "open.9.0"],
        };
        assert_eq!(lifecycle_names(b.as_ref(), "/f"), expect, "{mode:?}");
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
    let (stored, how) = joined.unwrap();
    assert_eq!(stored.num_hostdirs, 3, "the stored params");
    assert_eq!(how, container::Creation::Joined);
    assert!(slow.exists("/c/.plfsaccess"), "access file survives");
}

/// On a spread mount the lifecycle names — and with them the creator's
/// top-level pair — live on backend 0, and a close costs it alone: the
/// rename is routed like any other file op, not broadcast to every backend.
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
    assert_eq!(toplevel_pairs(meters[0].as_ref(), "/f"), 1);
    assert_eq!(
        lifecycle_names(meters[0].as_ref(), "/f"),
        ["dropping.index.5.0.512.512"]
    );
    for other in &meters[1..] {
        assert!(!other.exists("/f"), "no hostdir: nothing to spread");
    }
}
