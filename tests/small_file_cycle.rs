//! Container lifecycle names and the creator's top-level dropping pair.
//! Writer markers (`open.<pid>.<seq>`) and fast-stat drops
//! (`meta.<eof>.<bytes>.<pid>.<seq>`) are names in the container directory;
//! the writer that made the container keeps its two droppings there too,
//! its index dropping's name doing both jobs — created at close under its
//! closed name unless something needed it earlier, so an open creator is
//! its data dropping alone or its index under the un-suffixed name. One
//! `readdir` of the container is the only question the metadata path asks.
//! Pins what the benchmark's `meta_storm` cycle costs the backing store per
//! call, who gets which pair shape, and that maintenance accepts every
//! spelling.

use plfs::container::{self, hostdir_for_pid, HOSTDIRS};
use plfs::{
    BackStat, Backing, BackingFile, MemBacking, MeterBacking, MeterSnapshot, OpenFlags, Plfs,
    WriteFile,
};
use std::sync::Arc;

const CREATE_RW: OpenFlags = OpenFlags(0o2 | 0o100); // RDWR|CREAT

/// Every name in the container directory that says a writer is open or
/// has closed, an identity spelling's stamp (a clock reading) shown as
/// `i*`.
fn lifecycle_names(b: &dyn Backing, path: &str) -> Vec<String> {
    let mut names = b.readdir(path).unwrap();
    names.retain(|n| {
        ["open.", "meta.", "dropping.index."]
            .iter()
            .any(|p| n.starts_with(p))
    });
    for n in &mut names {
        if let Some((_, Some(c))) = container::parse_index_name(n) {
            if let Some(stamp) = c.identity {
                *n = n.replace(&format!(".i{stamp}"), ".i*");
            }
        }
    }
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
/// is probe for something a listing, an error or its own close already
/// told it, or list for names the close already knew.
#[test]
fn small_file_cycle_costs_at_most_11_backing_metadata_ops() {
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

        // create: mkdir (its answer is the probe), the creator's data
        // dropping — no access file: the params are the defaults.
        assert_eq!((create.mkdir, create.create), (1, 1), "{create:?}");
        assert!(create.metadata_ops() <= 2, "create: {create:?}");
        // first write: into the dropping the open made.
        assert_eq!(write.metadata_ops(), 0, "{write:?}");
        // close: the index created under its closed name, both droppings
        // synced, nothing renamed, and one stat of the container, which
        // has no subdirectory: no other writer, so the close's own names
        // are the verdict.
        assert_eq!(
            (close.create, close.sync, close.rename, close.stat),
            (1, 2, 0, 1),
            "{close:?}"
        );
        assert!(close.metadata_ops() <= 4, "close: {close:?}");
        // stat after the close: what the close installed.
        assert_eq!(stat.metadata_ops(), 0, "stat: {stat:?}");
        assert_eq!(open.metadata_ops(), 0, "warm open: {open:?}");
        // first read: the container listing and the data open — the
        // creator wrote [0, 1024) in place, so its index's identity name is
        // the whole index, and the index is not opened.
        assert_eq!((read.readdir, read.size), (1, 0), "{read:?}");
        assert!(read.metadata_ops() <= 2, "first read: {read:?}");
        assert_eq!(close_rd.metadata_ops(), 0, "{close_rd:?}");
        // unlink: the two names the close knew, one rmdir.
        assert_eq!((unlink.readdir, unlink.rmdir), (0, 1), "{unlink:?}");
        assert!(unlink.metadata_ops() <= 3, "unlink: {unlink:?}");
        let calls = [create, write, close, stat, open, read, close_rd, unlink];
        let probes: u64 = calls.iter().map(|c| c.stat + c.exists).sum();
        assert_eq!(probes, 1, "nothing is probed but the close's container");
        let total: u64 = calls.iter().map(MeterSnapshot::metadata_ops).sum();
        assert!(total <= 11, "cycle {cycle}: {total} metadata ops");
    }
}

/// Another mount stands for another process. Its writer joined the
/// container and wrote before the creator's close — it closed, or it is
/// open with its records synced: the container has a subdirectory, so the
/// close installs nothing, and the next `stat` lists and reports the
/// joiner's eof.
#[test]
fn a_joiner_that_wrote_before_the_creators_close_is_listed_by_the_next_stat() {
    for joiner_open in [false, true] {
        let b = Arc::new(MemBacking::new());
        let (mine, other) = (Plfs::new(b.clone()), Plfs::new(b.clone()));
        let fd = mine.open("/f", CREATE_RW, 1).unwrap();
        mine.write(&fd, &[1u8; 100], 0, 1).unwrap();
        let joined = other.open("/f", OpenFlags::RDWR, 2).unwrap();
        other.write(&joined, &[2u8; 50], 300, 2).unwrap();
        if joiner_open {
            other.sync(&joined, 2).unwrap();
        } else {
            other.close(&joined, 2).unwrap();
        }
        mine.close(&fd, 1).unwrap();
        let st = mine.getattr("/f").unwrap();
        assert_eq!((st.size, st.physical_bytes), (350, 150), "{joiner_open}");
        if joiner_open {
            other.close(&joined, 2).unwrap();
        }
        mine.unlink("/f").unwrap();
        assert!(!b.exists("/f"), "{joiner_open}");
    }
}

/// Another mount's writer opened the file before this mount's creator
/// closed it but wrote only after the close, as an N-to-1 checkpoint's
/// other ranks may after rank 0 wrote a header. The close found no
/// subdirectory and installed its own `(eof, bytes)`, so this mount's next
/// `stat` answers that without listing: it misses the joiner's write, as a
/// warm `getattr` misses any other process's (README, "container metadata
/// cache"). A mount that has cached no verdict lists and sees it.
#[test]
fn a_joiner_that_writes_only_after_the_creators_close_is_missed_by_the_next_stat() {
    let b = Arc::new(MemBacking::new());
    let (mine, other) = (Plfs::new(b.clone()), Plfs::new(b.clone()));
    let fd = mine.open("/f", CREATE_RW, 1).unwrap();
    mine.write(&fd, &[1u8; 100], 0, 1).unwrap();
    let joined = other.open("/f", OpenFlags::RDWR, 2).unwrap();
    mine.close(&fd, 1).unwrap();
    other.write(&joined, &[2u8; 50], 300, 2).unwrap();
    other.close(&joined, 2).unwrap();
    let st = mine.getattr("/f").unwrap();
    assert_eq!(
        (st.size, st.physical_bytes),
        (100, 100),
        "the close's answer"
    );
    let fresh = Plfs::new(b.clone()).getattr("/f").unwrap();
    assert_eq!((fresh.size, fresh.physical_bytes), (350, 150));
}

/// A metered backing whose directory `stat` counts no subdirectories
/// (`subdirs: None`), as `RealBacking`'s does off tmpfs, ext4 and xfs.
struct Uncounted(Arc<MeterBacking>);

impl Backing for Uncounted {
    fn create(&self, path: &str, excl: bool) -> plfs::Result<Box<dyn BackingFile>> {
        self.0.create(path, excl)
    }
    fn open(&self, path: &str, write: bool) -> plfs::Result<Box<dyn BackingFile>> {
        self.0.open(path, write)
    }
    fn mkdir(&self, path: &str) -> plfs::Result<()> {
        self.0.mkdir(path)
    }
    fn mkdir_all(&self, path: &str) -> plfs::Result<()> {
        self.0.mkdir_all(path)
    }
    fn readdir(&self, path: &str) -> plfs::Result<Vec<String>> {
        self.0.readdir(path)
    }
    fn unlink(&self, path: &str) -> plfs::Result<()> {
        self.0.unlink(path)
    }
    fn rmdir(&self, path: &str) -> plfs::Result<()> {
        self.0.rmdir(path)
    }
    fn rename(&self, from: &str, to: &str) -> plfs::Result<()> {
        self.0.rename(from, to)
    }
    fn stat(&self, path: &str) -> plfs::Result<BackStat> {
        let st = self.0.stat(path)?;
        Ok(BackStat {
            subdirs: None,
            ..st
        })
    }
    fn exists(&self, path: &str) -> bool {
        self.0.exists(path)
    }
    fn truncate(&self, path: &str, len: u64) -> plfs::Result<()> {
        self.0.truncate(path, len)
    }
}

/// Where the backing does not count subdirectories, the first creator's
/// close asks once, learns it, and installs nothing: the next `stat` lists.
/// Later closes do not ask again.
#[test]
fn a_backing_that_counts_no_subdirectories_is_asked_once_and_then_listed() {
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let plfs = Plfs::new(Arc::new(Uncounted(meter.clone())));
    for cycle in 0..3u64 {
        let path = format!("/f{cycle}");
        let fd = plfs.open(&path, CREATE_RW, 1).unwrap();
        plfs.write(&fd, &[1u8; 64], 0, 1).unwrap();
        let (_, close) = cost(&meter, || plfs.close(&fd, 1).unwrap());
        assert_eq!(
            close.stat,
            u64::from(cycle == 0),
            "cycle {cycle}: {close:?}"
        );
        let (st, stat) = cost(&meter, || plfs.getattr(&path).unwrap());
        assert_eq!((st.size, st.physical_bytes), (64, 64), "cycle {cycle}");
        assert_eq!(stat.readdir, 1, "cycle {cycle}: {stat:?}");
    }
}

/// Another mount unlinks the file and makes it again, the same size,
/// between this mount's creator's close and its read: the verdict that
/// close installed does not stand for the read, which lists, opens the new
/// data dropping and returns the new bytes.
#[test]
fn a_read_after_another_mount_made_the_file_again_reads_the_new_bytes() {
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let (mine, other) = (Plfs::new(meter.clone()), Plfs::new(meter.clone()));
    let fd = mine.open("/f", CREATE_RW, 1).unwrap();
    mine.write(&fd, &[1u8; 64], 0, 1).unwrap();
    mine.close(&fd, 1).unwrap();
    other.unlink("/f").unwrap();
    let fd = other.open("/f", CREATE_RW, 2).unwrap();
    other.write(&fd, &[2u8; 64], 0, 2).unwrap();
    other.close(&fd, 2).unwrap();
    let rfd = mine.open("/f", OpenFlags::RDONLY, 1).unwrap();
    let mut buf = [0u8; 64];
    let (n, read) = cost(&meter, || mine.read(&rfd, &mut buf, 0).unwrap());
    assert_eq!((n, buf), (64, [2u8; 64]));
    assert_eq!((read.readdir, read.open), (1, 1), "{read:?}");
}

/// A temporary file: create, write, close, unlink, with no `stat` between.
/// The close knew the pair was alone, so the unlink removes it by name.
#[test]
fn an_unlink_after_the_creators_close_removes_by_name_without_a_stat() {
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let plfs = Plfs::new(meter.clone());
    let fd = plfs.open("/tmp.1", CREATE_RW, 3).unwrap();
    plfs.write(&fd, &[3u8; 200], 0, 3).unwrap();
    plfs.close(&fd, 3).unwrap();
    let ((), unlink) = cost(&meter, || plfs.unlink("/tmp.1").unwrap());
    assert_eq!(
        (unlink.readdir, unlink.unlink, unlink.rmdir),
        (0, 2, 1),
        "{unlink:?}"
    );
    assert!(!meter.exists("/tmp.1"));
}

/// Through the shim a 1 KiB file made with `writev` costs the backing store
/// what one made with `write` does: a vectored call is a plain one.
#[test]
fn a_small_file_made_with_writev_costs_what_one_made_with_write_does() {
    use ldplfs::{LdPlfsBuilder, PosixLayer, RealPosix};
    let dir = std::env::temp_dir().join(format!("small-file-writev-{}", std::process::id()));
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let shim = LdPlfsBuilder::new(Arc::new(RealPosix::rooted(&dir).unwrap()))
        .mount("/plfs", Plfs::new(meter.clone()))
        .build()
        .unwrap();
    let data = [7u8; 1024];
    let make = |path: &str, vectored: bool| {
        let flags = ldplfs::OpenFlags::WRONLY | ldplfs::OpenFlags::CREAT;
        cost(&meter, || {
            let fd = shim.open(path, flags, 0o644).unwrap();
            let n = match vectored {
                true => shim.writev(fd, &[&data[..100], &data[100..]]),
                false => shim.write(fd, &data),
            };
            assert_eq!(n.unwrap(), data.len());
            shim.close(fd).unwrap();
        })
        .1
    };
    let written = make("/plfs/written", false);
    assert_eq!(make("/plfs/gathered", true), written);
    assert_eq!(make("/plfs/written.again", false), written);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `rm` over a warm directory — a stat and an unlink per file — asks the
/// backing store nothing but the unlinks, however many containers the
/// cache remembers removing: each removal leaves the others' verdicts warm.
#[test]
fn an_rm_over_a_warm_directory_probes_nothing_again() {
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let plfs = Plfs::new(meter.clone() as Arc<dyn Backing>);
    // Half the cache's default capacity, past any fixed bound on the
    // removed trees it remembers below that.
    let paths: Vec<String> = (0..2048).map(|i| format!("/d/f{i}")).collect();
    plfs.mkdir("/d").unwrap();
    for p in &paths {
        let fd = plfs.open(p, CREATE_RW, 1).unwrap();
        plfs.write(&fd, b"x", 0, 1).unwrap();
        plfs.close(&fd, 1).unwrap();
        plfs.getattr(p).unwrap();
    }
    for (i, p) in paths.iter().enumerate() {
        let (_, stat) = cost(&meter, || plfs.getattr(p).unwrap());
        assert_eq!(
            stat.metadata_ops(),
            0,
            "stat {i} after {i} unlinks: {stat:?}"
        );
        let (_, unlink) = cost(&meter, || plfs.unlink(p).unwrap());
        let probes = unlink.stat + unlink.exists;
        assert_eq!(probes, 0, "unlink {i}: {unlink:?}");
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
    assert_eq!(
        toplevel_pairs(b.as_ref(), "/f"),
        1,
        "the creator's, made by its open; a joiner's never"
    );
    assert_eq!(lifecycle_names(b.as_ref(), "/f"), ["open.2.0"]);

    // More ranks of the creating process, an fd each.
    let ranks = [
        (1u64, creator),
        (3, plfs.open("/f", CREATE_RW, 3).unwrap()),
        (4, plfs.open("/f", CREATE_RW, 4).unwrap()),
    ];
    for (rank, fd) in &ranks {
        plfs.write(fd, &[*rank as u8; 10], rank * 20, *rank)
            .unwrap();
    }
    assert_eq!(
        toplevel_pairs(b.as_ref(), "/f"),
        1,
        "the creating fd's only"
    );
    // The creator's index waits for its close.
    assert_eq!(
        lifecycle_names(b.as_ref(), "/f"),
        ["open.2.0", "open.3.0", "open.4.0"]
    );
    assert_eq!(container::open_writers(b.as_ref(), "/f").unwrap(), 4);
    for (rank, fd) in &ranks {
        plfs.close(fd, *rank).unwrap();
    }
    joiner_mount.close(&joiner, 2).unwrap();
    assert_eq!(
        lifecycle_names(b.as_ref(), "/f"),
        [
            "dropping.index.creator.0.30.10",
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
}

/// A creator that died after a sync left its index dropping un-suffixed:
/// to everyone else that is one writer still open — no fast stat, no
/// compaction — and its flushed records still read.
#[test]
fn a_killed_creators_unsuffixed_index_reads_as_one_open_writer() {
    let b = Arc::new(MemBacking::new());
    let plfs = Plfs::new(b.clone());
    let fd = plfs.open("/f", CREATE_RW, 6).unwrap();
    plfs.write(&fd, &[3u8; 48], 0, 6).unwrap();
    plfs.sync(&fd, 6).unwrap();
    std::mem::forget(fd);
    assert_eq!(
        lifecycle_names(b.as_ref(), "/f"),
        ["dropping.index.creator.0"]
    );

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

/// A creator killed before anything needed its index left its data
/// dropping alone: one writer still open, whose unflushed records died
/// with it; `repair --clear-markers` gives it an empty closed index.
#[test]
fn a_killed_creators_data_dropping_alone_reads_as_one_open_writer() {
    let b = Arc::new(MemBacking::new());
    let plfs = Plfs::new(b.clone());
    let fd = plfs.open("/f", CREATE_RW, 6).unwrap();
    plfs.write(&fd, &[3u8; 48], 0, 6).unwrap();
    std::mem::forget(fd);
    assert_eq!(lifecycle_names(b.as_ref(), "/f"), [] as [&str; 0]);
    assert_eq!(toplevel_pairs(b.as_ref(), "/f"), 1);

    let other = Plfs::new(b.clone());
    assert_eq!(container::open_writers(b.as_ref(), "/f").unwrap(), 1);
    let st = other.getattr("/f").unwrap();
    assert_eq!((st.size, st.physical_bytes), (0, 48), "slow path");
    assert!(matches!(
        other.compact("/f"),
        Err(plfs::Error::InvalidArg(_))
    ));
    let report = plfs::check(b.as_ref(), "/f").unwrap();
    assert_eq!(report.findings, [plfs::Finding::OpenWriters { count: 1 }]);
    let rep = plfs::repair(b.as_ref(), "/f", true).unwrap();
    assert_eq!(rep.markers_cleared, 1);
    assert_eq!(
        lifecycle_names(b.as_ref(), "/f"),
        ["dropping.index.creator.0.0.48", "meta.0.0.0.0"]
    );
    assert!(plfs::check(b.as_ref(), "/f").unwrap().is_clean());
    let st = Plfs::new(b.clone()).getattr("/f").unwrap();
    assert_eq!((st.size, st.physical_bytes), (0, 48), "fast path");
}

/// An `fsync` needs the creator's index before close: it is created under
/// its open name, and close renames it — the path every creator took
/// before the index waited for close.
#[test]
fn fsync_before_close_keeps_the_unsuffixed_then_rename_path() {
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let plfs = Plfs::new(meter.clone() as Arc<dyn Backing>);
    let fd = plfs.open("/f", CREATE_RW, 3).unwrap();
    plfs.write(&fd, &[1u8; 100], 0, 3).unwrap();
    let ((), sync) = cost(&meter, || plfs.sync(&fd, 3).unwrap());
    assert_eq!((sync.create, sync.sync, sync.rename), (1, 2, 0), "{sync:?}");
    assert_eq!(
        lifecycle_names(meter.as_ref(), "/f"),
        ["dropping.index.creator.0"]
    );
    plfs.write(&fd, &[2u8; 100], 100, 3).unwrap();
    let (_, close) = cost(&meter, || plfs.close(&fd, 3).unwrap());
    assert_eq!(
        (close.create, close.sync, close.rename),
        (0, 2, 1),
        "{close:?}"
    );
    assert_eq!(
        lifecycle_names(meter.as_ref(), "/f"),
        ["dropping.index.creator.0.200.i*"]
    );
    let rfd = plfs.open("/f", OpenFlags::RDONLY, 3).unwrap();
    let mut buf = [0u8; 200];
    assert_eq!(plfs.read(&rfd, &mut buf, 0).unwrap(), 200);
    assert!(buf[..100].iter().all(|&b| b == 1) && buf[100..].iter().all(|&b| b == 2));
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
    let plfs = Plfs::new(b.clone());

    // A small creator, open and closed.
    let fd = plfs.open("/small", CREATE_RW, 1).unwrap();
    plfs.write(&fd, &[1u8; 1000], 0, 1).unwrap();
    plfs.sync(&fd, 1).unwrap();
    probe(b.as_ref(), "/small", 1000);
    plfs.close(&fd, 1).unwrap();
    probe(b.as_ref(), "/small", 1000);

    // A creator that flushed its index mid-stream, every 8 writes
    // (irregular offsets, so no run compresses away), then joiners from
    // this mount and another.
    let fd = plfs.open("/big", CREATE_RW, 1).unwrap();
    let offsets = (0..50u64).map(|i| (i * 7919) % 4000);
    for (i, off) in offsets.clone().enumerate() {
        plfs.write(&fd, &[2u8; 7], off, 1).unwrap();
        if i % 8 == 7 {
            plfs.sync(&fd, 1).unwrap();
        }
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
    container::create_container(b.as_ref(), "/old", true).unwrap();
    b.mkdir("/old/openhosts").unwrap();
    b.mkdir("/old/meta").unwrap();
    b.create("/old/meta/999.999.7", true).unwrap();
    let mut w = WriteFile::create(b.as_ref(), "/old", 7, 64).unwrap();
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
    container::create_container(b.as_ref(), "/pr21", true).unwrap();
    for (pid, byte) in [(3u64, b'a'), (4, b'b')] {
        let mut w = WriteFile::create(b.as_ref(), "/pr21", pid, 64).unwrap();
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

/// How the creator of [`mixed_shape_container_with`] ended: each leaves
/// its top-level pair in one of the three spellings.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Creator {
    /// Closed: its index under the closed name.
    Closed,
    /// Killed after a sync: its index under the open name.
    KilledAfterSync,
    /// Killed before anything needed its index: its data dropping alone.
    KilledBeforeIndex,
}

/// A container holding both shapes: the creator's top-level pair
/// (`[0, 100)`) and two more ranks' hostdir pairs, all closed.
fn mixed_shape_container() -> (Arc<MemBacking>, Plfs, Vec<u8>) {
    mixed_shape_container_with(Creator::Closed)
}

/// [`mixed_shape_container`] with the creator ending as `creator` says;
/// the model holds what the container reads, a dead creator's unwritten
/// records read as a hole.
fn mixed_shape_container_with(creator: Creator) -> (Arc<MemBacking>, Plfs, Vec<u8>) {
    let b = Arc::new(MemBacking::new());
    let plfs = Plfs::new(b.clone());
    let fd = plfs.open("/c", CREATE_RW, 0).unwrap();
    plfs.write(&fd, &[1; 100], 0, 0).unwrap();
    let mut model = vec![1; 100];
    for pid in 1..3u64 {
        let rank = plfs.open("/c", CREATE_RW, pid).unwrap();
        plfs.write(&rank, &[pid as u8 + 1; 100], pid * 100, pid)
            .unwrap();
        plfs.close(&rank, pid).unwrap();
        model.extend_from_slice(&[pid as u8 + 1; 100]);
    }
    let creator_name = match creator {
        Creator::Closed => {
            plfs.close(&fd, 0).unwrap();
            vec!["dropping.index.creator.0.100.i*"]
        }
        Creator::KilledAfterSync => {
            plfs.sync(&fd, 0).unwrap();
            std::mem::forget(fd);
            vec!["dropping.index.creator.0"]
        }
        Creator::KilledBeforeIndex => {
            std::mem::forget(fd);
            model[..100].fill(0);
            vec![]
        }
    };
    let mut names = creator_name;
    names.extend(["meta.200.100.1.0", "meta.300.100.2.0"]);
    assert_eq!(lifecycle_names(b.as_ref(), "/c"), names, "{creator:?}");
    assert_eq!(toplevel_pairs(b.as_ref(), "/c"), 1);
    (b, plfs, model)
}

/// check, repair --clear-markers, compact and trunc(0) over a mixed-shape
/// container keep the lifecycle names exact whichever spelling its creator
/// left: no stray marker, never more drops than describe the droppings.
#[test]
fn maintenance_leaves_no_stray_lifecycle_names() {
    use Creator::{Closed, KilledAfterSync, KilledBeforeIndex};
    for creator in [Closed, KilledAfterSync, KilledBeforeIndex] {
        let (b, _, model) = mixed_shape_container_with(creator);
        let plfs = Plfs::new(b.clone());
        assert_eq!(
            plfs::flatten::flatten_to_vec(b.as_ref(), "/c").unwrap(),
            model,
            "{creator:?}"
        );

        // A writer that crashed left its marker behind.
        container::mark_open(b.as_ref(), "/c", 77, 0).unwrap();
        let dead = usize::from(creator != Closed);
        let report = plfs::check(b.as_ref(), "/c").unwrap();
        assert_eq!(
            report.findings,
            [plfs::Finding::OpenWriters { count: 1 + dead }],
            "check reads, never writes ({creator:?})"
        );
        let rep = plfs::repair(b.as_ref(), "/c", true).unwrap();
        assert_eq!(rep.markers_cleared, 1 + dead, "{creator:?}");
        // The creator's index keeps its records (a dead creator's unwritten
        // ones are gone) and carries its drop — under the identity spelling
        // its records earn, [0, 100) where it lies; the hostdir pairs' two
        // drops fold into one.
        let creator_drop = match creator {
            KilledBeforeIndex => "dropping.index.creator.0.0.100",
            _ => "dropping.index.creator.0.100.i*",
        };
        assert_eq!(
            lifecycle_names(b.as_ref(), "/c"),
            [creator_drop, "meta.300.200.0.0"],
            "{creator:?}"
        );
        assert!(plfs::check(b.as_ref(), "/c").unwrap().is_clean());
        let st = Plfs::new(b.clone()).getattr("/c").unwrap();
        assert_eq!((st.size, st.physical_bytes), (300, 300), "{creator:?}");

        let stats = plfs.compact("/c").unwrap();
        assert_eq!((stats.droppings_before, stats.droppings_after), (3, 1));
        assert_eq!(lifecycle_names(b.as_ref(), "/c"), ["meta.300.300.0.0"]);
        assert_eq!(toplevel_pairs(b.as_ref(), "/c"), 0, "folded with the rest");
        assert_eq!(plfs.getattr("/c").unwrap().size, 300);
        assert_eq!(
            plfs::flatten::flatten_to_vec(b.as_ref(), "/c").unwrap(),
            model,
            "{creator:?}"
        );

        plfs.trunc("/c", 0).unwrap();
        assert_eq!(b.readdir("/c").unwrap(), [".plfsaccess"]);
        assert_eq!(plfs.getattr("/c").unwrap().size, 0);
    }
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
    assert_eq!(lifecycle_names(b.as_ref(), "/f"), [] as [&str; 0]);
    fd.reset_writers().unwrap();
    assert_eq!(
        lifecycle_names(b.as_ref(), "/f"),
        ["dropping.index.creator.0.64.64"],
        "synced under its open name, closed by rename"
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

/// A truncate to a nonzero length leaves one hostdir, the rewrite's own:
/// the hostdirs its old droppings emptied go with them, so a cold read
/// open of the truncated container lists the container and that hostdir.
#[test]
fn a_truncated_four_writer_container_lists_two_directories_on_a_cold_open() {
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let plfs = Plfs::new(meter.clone() as Arc<dyn Backing>);
    for pid in 0..4u64 {
        let fd = plfs.open("/f", CREATE_RW, pid).unwrap();
        plfs.write(&fd, &[pid as u8; 100], pid * 100, pid).unwrap();
        plfs.close(&fd, pid).unwrap();
    }
    plfs.trunc("/f", 250).unwrap();
    let cold = Plfs::new(meter.clone() as Arc<dyn Backing>);
    let mut buf = [0u8; 250];
    let (_, ops) = cost(&meter, || {
        let fd = cold.open("/f", OpenFlags::RDONLY, 9).unwrap();
        assert_eq!(cold.read(&fd, &mut buf, 0).unwrap(), 250);
    });
    assert!(ops.readdir <= 2, "{ops:?}");
    assert_eq!(&buf[100..200], &[1u8; 100]);
    assert_eq!(&buf[200..], &[2u8; 50]);
}

/// Regression (root-package copy of `plfs::fd`'s test): two fds of one pid
/// on one container used to share a marker and a drop name, so the first
/// close hid the writer still open from every other process.
#[test]
fn two_fds_of_one_pid_keep_their_own_marker_and_drop() {
    let b = Arc::new(MemBacking::new());
    let plfs = Plfs::new(b.clone());
    let flags = OpenFlags::RDWR | OpenFlags::CREAT;
    let a = plfs.open("/f", flags, 9).unwrap();
    let other = plfs.open("/f", flags, 9).unwrap();
    plfs.write(&a, b"aaaa", 0, 9).unwrap();
    plfs.write(&other, &[b'b'; 24], 0, 9).unwrap();
    plfs.sync(&other, 9).unwrap();
    plfs.close(&a, 9).unwrap();
    // A made the container: its names are its top-level index's, and the
    // other fd's are pair (9, 0)'s.
    assert_eq!(
        lifecycle_names(b.as_ref(), "/f"),
        ["dropping.index.creator.0.4.i*", "open.9.0"]
    );
    // A fresh process: one writer still open, so no fast stat off A's
    // drop.
    assert_eq!(container::open_writers(b.as_ref(), "/f").unwrap(), 1);
    assert_eq!(Plfs::new(b.clone()).getattr("/f").unwrap().size, 24);
    plfs.close(&other, 9).unwrap();
    let st = Plfs::new(b.clone()).getattr("/f").unwrap();
    assert_eq!((st.size, st.physical_bytes), (24, 28));
    // A later writer of the pid, same eof and bytes as A's: its drop
    // lands beside A's, not on it.
    let again = plfs.open("/f", flags, 9).unwrap();
    plfs.write(&again, b"cccc", 0, 9).unwrap();
    plfs.close(&again, 9).unwrap();
    let st = Plfs::new(b.clone()).getattr("/f").unwrap();
    assert_eq!((st.size, st.physical_bytes), (24, 32));
}

/// The creator's close costs one create: its index is created under its
/// closed name, so there is no rename. Its one stat, of the container
/// directory (the op it took from the `stat` that follows, which lists
/// nothing now), tells it no other writer has a subdirectory there.
#[test]
fn close_of_the_creator_is_one_create_and_no_rename() {
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let plfs = Plfs::new(meter.clone());
    let fd = plfs
        .open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, 5)
        .unwrap();
    plfs.write(&fd, &[1u8; 512], 0, 5).unwrap();
    let before = meter.snapshot();
    plfs.close(&fd, 5).unwrap();
    let cost = meter.snapshot().delta(&before);
    assert_eq!((cost.create, cost.rename, cost.stat), (1, 0, 1), "{cost:?}");
    assert!(
        cost.metadata_ops() <= 4,
        "the create, two syncs, the stat: {cost:?}"
    );
    assert_eq!(plfs.getattr("/f").unwrap().size, 512);
    assert_eq!(toplevel_pairs(meter.as_ref(), "/f"), 1);
    assert_eq!(
        lifecycle_names(meter.as_ref(), "/f"),
        ["dropping.index.creator.0.512.i*"]
    );
}

/// The marker rule's cold half: a plain directory holding an application's
/// file named like a dropping — any, or the creator's own name — holds a
/// container of that name, a directory, so it is no container itself, to
/// a mount that knows nothing of it (`getattr`, `open`, `unlink`) and to
/// `plfs-tools ls`.
#[test]
fn a_plain_directory_holding_a_file_named_like_a_dropping_stays_a_directory() {
    for name in ["dropping.data.1.0", container::CREATOR_DATA] {
        let b = Arc::new(MemBacking::new());
        let plfs = Plfs::new(b.clone());
        plfs.mkdir("/d").unwrap();
        let file = format!("/d/{name}");
        let fd = plfs.open(&file, CREATE_RW, 1).unwrap();
        plfs.write(&fd, b"app", 0, 1).unwrap();
        plfs.close(&fd, 1).unwrap();
        assert_eq!(b.readdir("/d").unwrap(), [name]);

        let cold = || Plfs::new(b.clone());
        assert!(cold().getattr("/d").unwrap().is_dir, "{name}");
        for flags in [OpenFlags::RDONLY, CREATE_RW] {
            let r = cold().open("/d", flags, 2);
            assert!(
                matches!(r, Err(plfs::Error::IsDir(_))),
                "{name}: {:?}",
                r.err()
            );
        }
        let r = cold().unlink("/d");
        assert!(
            matches!(r, Err(plfs::Error::IsDir(_))),
            "{name}: {:?}",
            r.err()
        );
        assert!(!container::is_container(b.as_ref(), "/d"), "{name}");
        assert_eq!(
            plfs::check(b.as_ref(), "/d").unwrap().findings,
            [plfs::Finding::NotAContainer]
        );
        let ls = plfs_tools::ls(b.as_ref(), "/").unwrap();
        assert_eq!(ls.split_whitespace().collect::<Vec<_>>(), ["dir", "0", "d"]);
        let ls = plfs_tools::ls(b.as_ref(), "/d").unwrap();
        assert_eq!(
            ls.split_whitespace().collect::<Vec<_>>(),
            ["container", "3", name]
        );
        // The file in it is the container it always was.
        let names = cold().readdir("/d").unwrap();
        assert_eq!((names.len(), names[0].is_dir), (1, false), "{name}");
        assert_eq!(cold().getattr(&file).unwrap().size, 3, "{name}");
    }
}

/// Give the container at `path` the access file an older build wrote with
/// 8 hostdirs, a count that places no writer of this one.
fn write_old_access_file(b: &dyn Backing, path: &str) {
    let f = b.create(&format!("{path}/.plfsaccess"), true).unwrap();
    f.pwrite(b"plfs-container v1\nnum_hostdirs 8\n", 0).unwrap();
}

/// Does `pid`'s first dropping pair sit in the hostdir the library places
/// it in, `hostdir_for_pid(pid, HOSTDIRS)`?
fn placed(b: &dyn Backing, path: &str, pid: u64) -> bool {
    let hd = hostdir_for_pid(pid, HOSTDIRS);
    b.exists(&format!("{path}/hostdir.{hd}/dropping.data.{pid}.0"))
}

/// A container in the layout every earlier writer's create left — the
/// access file beside the creator's pair, here with 8 hostdirs as an older
/// build could write, or made by `Plfs::create` — reads back byte for
/// byte, places a writer that joins it among the library's hostdirs, checks
/// clean and unlinks to nothing.
#[test]
fn a_container_in_the_access_file_layout_reads_back_and_unlinks_to_nothing() {
    let b = Arc::new(MemBacking::new());
    let mount = Plfs::new(b.clone());
    let fd = mount.open("/f", CREATE_RW, 1).unwrap();
    write_old_access_file(b.as_ref(), "/f");
    // The creator's later ranks join from another process, as the old
    // build's would have: they check the access file.
    let other = Plfs::new(b.clone());
    mount.create("/g", true).unwrap();
    let mut model = Vec::new();
    let mut fds = Vec::new();
    for pid in 1..4u64 {
        let f = match pid {
            1 => fd.clone(),
            _ => other.open("/f", CREATE_RW, pid).unwrap(),
        };
        let g = mount.open("/g", CREATE_RW, pid).unwrap();
        let bytes = vec![pid as u8; 700];
        for fd in [&f, &g] {
            mount.write(fd, &bytes, (pid - 1) * 700, pid).unwrap();
        }
        model.extend_from_slice(&bytes);
        fds.push((pid, f, g));
    }
    for (pid, f, g) in &fds {
        mount.close(f, *pid).unwrap();
        mount.close(g, *pid).unwrap();
    }
    let names = b.readdir("/f").unwrap();
    assert!(names.iter().any(|n| n == ".plfsaccess"), "{names:?}");
    assert_eq!(toplevel_pairs(b.as_ref(), "/f"), 1);
    assert!([2, 3].iter().all(|&pid| placed(b.as_ref(), "/f", pid)));
    assert!(b.exists("/g/.plfsaccess"));
    assert_eq!(
        toplevel_pairs(b.as_ref(), "/g"),
        0,
        "it joined what create made"
    );

    let cold = Plfs::new(b.clone());
    for path in ["/f", "/g"] {
        assert_eq!(cold.getattr(path).unwrap().size, 2100, "{path}");
        let rfd = cold.open(path, OpenFlags::RDONLY, 9).unwrap();
        let mut buf = vec![0u8; 2200];
        assert_eq!(cold.read(&rfd, &mut buf, 0).unwrap(), 2100, "{path}");
        assert!(buf[..2100] == model[..], "{path}");
        cold.close(&rfd, 9).unwrap();
        let wfd = cold.open(path, CREATE_RW, 9).unwrap();
        cold.write(&wfd, b"tail", 2100, 9).unwrap();
        cold.close(&wfd, 9).unwrap();
        assert!(placed(b.as_ref(), path, 9), "{path}");
        assert!(plfs::check(b.as_ref(), path).unwrap().is_clean(), "{path}");
        assert_eq!(Plfs::new(b.clone()).getattr(path).unwrap().size, 2104);
        cold.unlink(path).unwrap();
        assert!(!b.exists(path), "{path}");
    }
    assert_eq!(b.readdir("/").unwrap(), [] as [&str; 0]);
}

/// `touch`: `O_CREAT`, no write, `close`. The open made the creator's data
/// dropping; the close, with no writer to take it, publishes its empty
/// closed index, so the file is closed to everyone — it stats as size 0
/// on the fast path, reads 0 bytes, checks clean and unlinks to nothing.
#[test]
fn touch_stats_as_empty_reads_nothing_and_unlinks_to_nothing() {
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let plfs = Plfs::new(meter.clone() as Arc<dyn Backing>);
    let flags = OpenFlags::WRONLY | OpenFlags::CREAT;
    let (fd, create) = cost(&meter, || plfs.open("/t", flags, 5).unwrap());
    assert_eq!((create.mkdir, create.create), (1, 1), "{create:?}");
    let (_, close) = cost(&meter, || plfs.close(&fd, 5).unwrap());
    assert_eq!((close.create, close.metadata_ops()), (1, 1), "{close:?}");
    assert_eq!(
        meter.readdir("/t").unwrap(),
        ["dropping.data.creator.0", "dropping.index.creator.0.0.0"]
    );
    assert_eq!(
        container::read_lifecycle(meter.as_ref(), "/t").unwrap(),
        (0, Some((0, 0)))
    );
    for mount in [&plfs, &Plfs::new(meter.clone())] {
        let st = mount.getattr("/t").unwrap();
        assert_eq!((st.size, st.physical_bytes, st.is_dir), (0, 0, false));
        let rfd = mount.open("/t", OpenFlags::RDONLY, 6).unwrap();
        let mut buf = [0u8; 16];
        assert_eq!(mount.read(&rfd, &mut buf, 0).unwrap(), 0);
        mount.close(&rfd, 6).unwrap();
    }
    assert!(plfs::check(meter.as_ref(), "/t").unwrap().is_clean());
    plfs.unlink("/t").unwrap();
    assert!(!meter.exists("/t"));
    assert!(plfs.access("/t").is_err());
}

/// Only an unlink leaves a container's directory unmarked: a `trunc(0)`
/// or a `compact` that removes the creator's data dropping — the only
/// marker a container made with the defaults has — writes the access file
/// first, and the container stays one, to a cold mount too.
#[test]
fn trunc_and_compact_of_a_container_marked_by_its_dropping_keep_it_a_container() {
    let b = Arc::new(MemBacking::new());
    let plfs = Plfs::new(b.clone());
    for path in ["/c", "/t"] {
        let fd = plfs.open(path, CREATE_RW, 1).unwrap();
        plfs.write(&fd, &[1u8; 100], 0, 1).unwrap();
        plfs.close(&fd, 1).unwrap();
        // A second writer, on a cold mount: it joins without writing the
        // access file.
        let joiner = Plfs::new(b.clone());
        let fd = joiner.open(path, CREATE_RW, 2).unwrap();
        joiner.write(&fd, &[2u8; 50], 100, 2).unwrap();
        joiner.close(&fd, 2).unwrap();
        assert!(!b.exists(&format!("{path}/.plfsaccess")), "{path}");
    }
    let stats = plfs.compact("/c").unwrap();
    assert_eq!((stats.droppings_before, stats.droppings_after), (2, 1));
    assert_eq!(toplevel_pairs(b.as_ref(), "/c"), 0, "folded into a hostdir");
    plfs.trunc("/t", 0).unwrap();
    assert_eq!(b.readdir("/t").unwrap(), [".plfsaccess"]);
    for (path, size) in [("/c", 150), ("/t", 0)] {
        assert!(b.exists(&format!("{path}/.plfsaccess")), "{path}");
        assert!(container::is_container(b.as_ref(), path), "{path}");
        let cold = Plfs::new(b.clone());
        assert_eq!(cold.getattr(path).unwrap().size, size, "{path}");
        let rfd = cold.open(path, OpenFlags::RDONLY, 3).unwrap();
        assert_eq!(rfd.size().unwrap(), size, "{path}");
        assert!(plfs::check(b.as_ref(), path).unwrap().is_clean(), "{path}");
    }
    let mut model = vec![1u8; 100];
    model.extend([2u8; 50]);
    assert_eq!(
        plfs::flatten::flatten_to_vec(b.as_ref(), "/c").unwrap(),
        model
    );
}

/// Regression: the creator's data dropping exists from its `open` on, and
/// a `trunc(0)` between that open and its first write — a second
/// `open(O_TRUNC)` (two `fopen(path, "w")`), or a `truncate(path, 0)`, on
/// the creator's mount or another — used to unlink it, so the creator's
/// writes went into an unlinked file. A data dropping with no index and no
/// bytes holds nothing to truncate: it stays, and takes the writes — a
/// truncate to a nonzero length, whose rewrite retires the rest, keeps it
/// too.
#[test]
fn a_truncate_before_the_creators_first_write_keeps_what_it_writes() {
    for other_mount in [false, true] {
        for by_open in [None, Some(0), Some(5)] {
            let b = Arc::new(MemBacking::new());
            let creator = Plfs::new(b.clone());
            let cold = Plfs::new(b.clone());
            let other = if other_mount { &cold } else { &creator };
            let fd1 = creator
                .open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, 1)
                .unwrap();
            let fd2 = match by_open {
                None => {
                    let flags = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
                    Some(other.open("/f", flags, 2).unwrap())
                }
                Some(len) => other.trunc("/f", len).map(|()| None).unwrap(),
            };
            let case = format!("other mount {other_mount}, truncated to {by_open:?}");
            let mut names = b.readdir("/f").unwrap();
            names.retain(|n| !n.starts_with("hostdir.") && !n.starts_with("meta."));
            assert_eq!(
                names,
                [container::CREATOR_DATA],
                "{case}: still marked by the creator's dropping"
            );
            creator.write(&fd1, b"written after", 0, 1).unwrap();
            creator.close(&fd1, 1).unwrap();
            if let Some(fd2) = fd2 {
                other.close(&fd2, 2).unwrap();
            }
            for mount in [&creator, &cold, &Plfs::new(b.clone())] {
                assert_eq!(mount.getattr("/f").unwrap().size, 13, "{case}");
                let rfd = mount.open("/f", OpenFlags::RDONLY, 3).unwrap();
                let mut buf = [0u8; 32];
                assert_eq!(mount.read(&rfd, &mut buf, 0).unwrap(), 13, "{case}");
                assert_eq!(&buf[..13], b"written after", "{case}");
                mount.close(&rfd, 3).unwrap();
            }
            assert!(plfs::check(b.as_ref(), "/f").unwrap().is_clean(), "{case}");
        }
    }
}

/// A container as the access-file layout left it: the access file and the
/// creator's pair under the creator's pid, `dropping.{data,index}.7.0`.
/// It stats on the fast path, reads back, takes a joiner, truncates and
/// unlinks to nothing on a mount that names the creator's pair otherwise.
#[test]
fn a_creators_pair_under_its_pid_beside_the_access_file_reads_as_any_pair() {
    let b = Arc::new(MemBacking::new());
    let plfs = Plfs::new(b.clone());
    let fd = plfs.open("/f", CREATE_RW, 7).unwrap();
    plfs.write(&fd, b"written by pid 7", 0, 7).unwrap();
    plfs.close(&fd, 7).unwrap();
    write_old_access_file(b.as_ref(), "/f");
    // Its index under the `<eof>.<bytes>` spelling, the one the layout had.
    let index = container::list_droppings(b.as_ref(), "/f").unwrap()[0]
        .index_path
        .clone()
        .unwrap();
    b.rename("/f/dropping.data.creator.0", "/f/dropping.data.7.0")
        .unwrap();
    b.rename(&index, "/f/dropping.index.7.0.16.16").unwrap();
    assert_eq!(
        b.readdir("/f").unwrap(),
        [
            ".plfsaccess",
            "dropping.data.7.0",
            "dropping.index.7.0.16.16"
        ]
    );

    let cold = Plfs::new(b.clone());
    assert_eq!(cold.getattr("/f").unwrap().size, 16);
    let rfd = cold.open("/f", OpenFlags::RDONLY, 1).unwrap();
    let mut buf = [0u8; 32];
    assert_eq!(cold.read(&rfd, &mut buf, 0).unwrap(), 16);
    assert_eq!(&buf[..16], b"written by pid 7");
    cold.close(&rfd, 1).unwrap();
    let wfd = cold.open("/f", CREATE_RW, 2).unwrap();
    cold.write(&wfd, b"!", 16, 2).unwrap();
    cold.close(&wfd, 2).unwrap();
    assert!(placed(b.as_ref(), "/f", 2));
    assert_eq!(Plfs::new(b.clone()).getattr("/f").unwrap().size, 17);
    assert!(plfs::check(b.as_ref(), "/f").unwrap().is_clean());
    cold.trunc("/f", 0).unwrap();
    assert_eq!(b.readdir("/f").unwrap(), [".plfsaccess"]);
    assert_eq!(Plfs::new(b.clone()).getattr("/f").unwrap().size, 0);
    cold.unlink("/f").unwrap();
    assert!(!b.exists("/f"));
}

/// The Lamport step of a read by name. A process whose clock was seeded
/// before the creator's — its stamps run behind every record the creator
/// wrote — reads an identity-named file, then overwrites part of it
/// through a new fd. The read stepped its clock past the stamp the name
/// carries, as a merge of the records would have, so its write wins a
/// fresh merge.
#[test]
fn a_read_by_name_steps_the_clock_so_a_later_write_wins_a_fresh_merge() {
    let b = Arc::new(MemBacking::new());
    // The creator's pair as a process whose clock runs far ahead left it.
    let ahead = plfs::index::write_clock() + (1 << 40);
    b.mkdir("/f").unwrap();
    let data = b.create(&format!("/f/{}", container::CREATOR_DATA), true);
    data.unwrap().pwrite(&[1u8; 64], 0).unwrap();
    let mut record = Vec::new();
    plfs::IndexEntry {
        logical_offset: 0,
        length: 64,
        physical_offset: 0,
        dropping_id: 0,
        timestamp: ahead,
        pid: 9,
    }
    .encode(&mut record);
    let index = container::creator_closed_index_path("/f", container::Closed::identity(64, ahead));
    b.create(&index, true).unwrap().pwrite(&record, 0).unwrap();
    assert!(plfs::check(b.as_ref(), "/f").unwrap().is_clean());

    let plfs = Plfs::new(b.clone());
    let rfd = plfs.open("/f", OpenFlags::RDONLY, 3).unwrap();
    let mut buf = [0u8; 64];
    assert_eq!(
        (plfs.read(&rfd, &mut buf, 0).unwrap(), buf),
        (64, [1u8; 64])
    );
    plfs.close(&rfd, 3).unwrap();
    let wfd = plfs.open("/f", OpenFlags::RDWR, 3).unwrap();
    plfs.write(&wfd, &[2u8; 16], 8, 3).unwrap();
    plfs.close(&wfd, 3).unwrap();

    let fresh = plfs::ReadFile::open(b.as_ref(), "/f").unwrap();
    let mut want = [1u8; 64];
    want[8..24].fill(2);
    assert_eq!(fresh.read_all(b.as_ref()).unwrap(), want);
}

/// An unlink by the names a `stat`'s listing showed, when another mount
/// changed the container between the two: it joined as a writer — still
/// open, or closed since — or truncated it. The unlink removes everything
/// there is and succeeds.
#[test]
fn an_unlink_by_name_after_another_mount_changed_the_container_removes_it_all() {
    #[derive(Debug, Clone, Copy)]
    enum Change {
        JoinedOpen,
        JoinedClosed,
        Truncated(u64),
    }
    for change in [
        Change::JoinedOpen,
        Change::JoinedClosed,
        Change::Truncated(0),
        Change::Truncated(100),
    ] {
        let b = Arc::new(MemBacking::new());
        let plfs = Plfs::new(b.clone());
        let fd = plfs.open("/f", CREATE_RW, 1).unwrap();
        plfs.write(&fd, &[7u8; 1024], 0, 1).unwrap();
        plfs.close(&fd, 1).unwrap();
        assert_eq!(plfs.getattr("/f").unwrap().size, 1024);
        let other = Plfs::new(b.clone());
        match change {
            Change::JoinedOpen | Change::JoinedClosed => {
                let jfd = other.open("/f", CREATE_RW, 2).unwrap();
                other.write(&jfd, b"joiner", 2000, 2).unwrap();
                if let Change::JoinedClosed = change {
                    other.close(&jfd, 2).unwrap();
                }
            }
            Change::Truncated(len) => other.trunc("/f", len).unwrap(),
        }
        plfs.unlink("/f").unwrap();
        assert!(!b.exists("/f"), "{change:?}");
    }
}

/// A creator's index under the two-number spelling, as every creator
/// closed before the identity spelling, reads, stats, checks and unlinks as
/// before: a read opens the index and merges its records, and the unlink
/// removes the two names its `stat`'s listing showed.
#[test]
fn a_two_number_creator_index_reads_stats_checks_and_unlinks_as_before() {
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let plfs = Plfs::new(meter.clone() as Arc<dyn Backing>);
    let fd = plfs.open("/f", CREATE_RW, 1).unwrap();
    plfs.write(&fd, &[7u8; 1024], 0, 1).unwrap();
    plfs.close(&fd, 1).unwrap();
    let index = container::list_droppings(meter.as_ref(), "/f").unwrap()[0]
        .index_path
        .clone()
        .unwrap();
    let sized = container::closed_index_path(&index, container::Closed::sized(1024, 1024));
    meter.rename(&index, &sized.unwrap()).unwrap();
    assert_eq!(
        lifecycle_names(meter.as_ref(), "/f"),
        ["dropping.index.creator.0.1024.1024"]
    );

    let cold = Plfs::new(meter.clone() as Arc<dyn Backing>);
    let (st, _) = cost(&meter, || cold.getattr("/f").unwrap());
    assert_eq!((st.size, st.physical_bytes), (1024, 1024));
    let rfd = cold.open("/f", OpenFlags::RDONLY, 2).unwrap();
    let mut buf = [0u8; 1024];
    let (n, read) = cost(&meter, || cold.read(&rfd, &mut buf, 0).unwrap());
    assert_eq!((n, buf), (1024, [7u8; 1024]));
    assert_eq!(
        (read.readdir, read.open),
        (1, 2),
        "the index is read: {read:?}"
    );
    cold.close(&rfd, 2).unwrap();
    assert!(plfs::check(meter.as_ref(), "/f").unwrap().is_clean());
    let ((), unlink) = cost(&meter, || cold.unlink("/f").unwrap());
    assert_eq!(
        (unlink.readdir, unlink.unlink, unlink.rmdir),
        (0, 2, 1),
        "{unlink:?}"
    );
    assert!(!meter.exists("/f"));
}
