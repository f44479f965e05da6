//! Property tests: the container's logical-file semantics against a
//! byte-vector reference model.

use plfs::{GlobalIndex, IndexEntry, MemBacking, OpenFlags, Plfs, ReadFile};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A write in a generated workload: pid picks the writer, the data lands at
/// `offset`.
#[derive(Debug, Clone)]
struct W {
    pid: u64,
    offset: u64,
    data: Vec<u8>,
}

fn writes(max_writes: usize, max_off: u64, max_len: usize) -> impl Strategy<Value = Vec<W>> {
    prop::collection::vec(
        (
            0u64..6,
            0u64..max_off,
            prop::collection::vec(any::<u8>(), 1..max_len),
        ),
        1..max_writes,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(pid, offset, data)| W { pid, offset, data })
            .collect()
    })
}

/// Apply the workload to a plain byte vector: the reference semantics
/// (later writes win).
fn reference(ws: &[W]) -> Vec<u8> {
    let mut out = Vec::new();
    for w in ws {
        let end = w.offset as usize + w.data.len();
        if out.len() < end {
            out.resize(end, 0);
        }
        out[w.offset as usize..end].copy_from_slice(&w.data);
    }
    out
}

/// Write `ws` as separate processes would: pid 0 opens (and so makes) the
/// file, every other pid opens an fd of its own at its first write, and
/// every fd closes once all writes are done.
fn write_through_fds(plfs: &Plfs, ws: &[W]) {
    let open = |pid| {
        plfs.open("/f", OpenFlags::RDWR | OpenFlags::CREAT, pid)
            .unwrap()
    };
    let mut fds = BTreeMap::from([(0, open(0))]);
    for w in ws {
        let fd = fds.entry(w.pid).or_insert_with(|| open(w.pid));
        plfs.write(fd, &w.data, w.offset, w.pid).unwrap();
    }
    for (pid, fd) in fds {
        plfs.close(&fd, pid).unwrap();
    }
}

fn run_against_plfs(ws: &[W]) -> Vec<u8> {
    let plfs = Plfs::new(Arc::new(MemBacking::new()));
    write_through_fds(&plfs, ws);
    let fd = plfs.open("/f", OpenFlags::RDONLY, 0).unwrap();
    let size = fd.size().unwrap() as usize;
    let mut buf = vec![0u8; size];
    if size > 0 {
        let n = plfs.read(&fd, &mut buf, 0).unwrap();
        assert_eq!(n, size, "full read returns the whole file");
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of writers and offsets reads back byte-identical
    /// to the reference model.
    #[test]
    fn roundtrip_matches_reference(ws in writes(24, 4096, 256)) {
        let got = run_against_plfs(&ws);
        prop_assert_eq!(got, reference(&ws));
    }

    /// Flatten produces exactly the logical bytes.
    #[test]
    fn flatten_equals_logical(ws in writes(16, 2048, 128)) {
        let backing = Arc::new(MemBacking::new());
        let plfs = Plfs::new(backing.clone());
        write_through_fds(&plfs, &ws);
        let flat = plfs::flatten::flatten_to_vec(backing.as_ref(), "/f").unwrap();
        prop_assert_eq!(flat, reference(&ws));
    }

    /// getattr's size equals the reference length once all writers closed,
    /// through the fast meta path or the index path alike.
    #[test]
    fn stat_size_matches(ws in writes(12, 1024, 64)) {
        let plfs = Plfs::new(Arc::new(MemBacking::new()));
        write_through_fds(&plfs, &ws);
        let st = plfs.getattr("/f").unwrap();
        prop_assert_eq!(st.size as usize, reference(&ws).len());
    }

    /// Arbitrary reads (offset, length) agree with the reference slice.
    #[test]
    fn random_reads_match(
        ws in writes(12, 1024, 64),
        reads in prop::collection::vec((0u64..2048, 1usize..256), 1..8)
    ) {
        let rf = reference(&ws);
        let plfs = Plfs::new(Arc::new(MemBacking::new()));
        write_through_fds(&plfs, &ws);
        let fd = plfs.open("/f", OpenFlags::RDONLY, 0).unwrap();
        for (off, len) in reads {
            let mut buf = vec![0xA5u8; len];
            let n = plfs.read(&fd, &mut buf, off).unwrap();
            let expect: &[u8] = if (off as usize) < rf.len() {
                &rf[off as usize..(off as usize + len).min(rf.len())]
            } else {
                &[]
            };
            prop_assert_eq!(&buf[..n], expect);
        }
    }

    /// The run merge behind every read-open produces a `GlobalIndex`
    /// indistinguishable from the reference `from_entries(concat)` — same
    /// EOF, same raw-entry count, same segment map, same resolution of
    /// arbitrary ranges — for any entry set (overlaps, timestamp ties, zero
    /// lengths) and any partition of it into runs.
    #[test]
    fn parallel_run_merge_identical_to_serial(
        raw in prop::collection::vec(
            (0u64..2048, 0u64..128, 0u64..4096, 0u32..8, 0u64..48, 0u64..8),
            0..80,
        ),
        cuts in prop::collection::vec(0usize..81, 0..6),
        reads in prop::collection::vec((0u64..4096, 1u64..512), 1..6),
    ) {
        let entries: Vec<IndexEntry> = raw
            .iter()
            .map(|&(lo, len, phys, id, ts, pid)| IndexEntry {
                logical_offset: lo,
                length: len,
                physical_offset: phys,
                dropping_id: id,
                timestamp: ts,
                pid,
            })
            .collect();
        // Split the concatenation order at arbitrary points: the runs'
        // concatenation must equal the serial input for the tie-break
        // equivalence to be meaningful.
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (entries.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut runs = Vec::new();
        let mut prev = 0;
        for c in cuts {
            runs.push(entries[prev..c].to_vec());
            prev = c;
        }
        runs.push(entries[prev..].to_vec());

        let serial = GlobalIndex::from_entries(entries);
        let merged = GlobalIndex::from_sorted_runs(runs);
        prop_assert_eq!(merged.eof(), serial.eof());
        prop_assert_eq!(merged.raw_entries(), serial.raw_entries());
        prop_assert_eq!(
            merged.iter_segments().collect::<Vec<_>>(),
            serial.iter_segments().collect::<Vec<_>>()
        );
        for (off, len) in reads {
            prop_assert_eq!(merged.resolve(off, len), serial.resolve(off, len));
        }
    }

    /// Truncation to an arbitrary length behaves like Vec::resize.
    #[test]
    fn truncate_matches_resize(ws in writes(8, 512, 64), new_len in 0u64..1024) {
        let mut rf = reference(&ws);
        let plfs = Plfs::new(Arc::new(MemBacking::new()));
        write_through_fds(&plfs, &ws);
        plfs.trunc("/f", new_len).unwrap();
        rf.resize(new_len as usize, 0);
        let got = {
            let fd = plfs.open("/f", OpenFlags::RDONLY, 0).unwrap();
            let mut buf = vec![0u8; new_len as usize];
            let n = if new_len > 0 { plfs.read(&fd, &mut buf, 0).unwrap() } else { 0 };
            buf.truncate(n);
            buf
        };
        prop_assert_eq!(got, rf);
    }
}

/// One step of a run over the merged index's life: a write by a pid (a
/// join, if the pid has no fd open), a close, and — each after every fd
/// closed — a publish of the merged index, an `O_TRUNC` open, a truncate
/// and a `compact`.
#[derive(Debug, Clone)]
enum Step {
    Write(W),
    Close(u64),
    Publish,
    OTrunc,
    Trunc(u64),
    Compact,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let write = || {
        (
            0u64..4,
            0u64..2048,
            prop::collection::vec(any::<u8>(), 1..48),
        )
            .prop_map(|(pid, offset, data)| Step::Write(W { pid, offset, data }))
    };
    // Writes listed six times, publishes twice: the choice is uniform over
    // the arms, and a merged index is smaller than the index droppings it
    // summarises only past a few records.
    prop::collection::vec(
        prop_oneof![
            write(),
            write(),
            write(),
            write(),
            write(),
            write(),
            (0u64..4).prop_map(Step::Close),
            Just(Step::Publish),
            Just(Step::Publish),
            Just(Step::OTrunc),
            (0u64..2560).prop_map(Step::Trunc),
            Just(Step::Compact),
        ],
        1..64,
    )
}

/// Run `steps` on one container, the reference model beside it; after
/// every step that closes all fds, a fresh open must read the model, and
/// where a merged index is current its view must equal a fresh merge of
/// the index droppings. Returns how many views were loaded from a merged
/// index.
fn run_steps(steps: &[Step]) -> u64 {
    use plfs::container::{self, MergedState};
    let backing = Arc::new(MemBacking::new());
    let plfs = Plfs::new(backing.clone());
    let mut fds = BTreeMap::new();
    let mut model: Vec<u8> = Vec::new();
    let mut loaded = 0;
    for step in steps {
        let close_all = |fds: &mut BTreeMap<u64, Arc<plfs::PlfsFd>>| {
            for (pid, fd) in std::mem::take(fds) {
                plfs.close(&fd, pid).unwrap();
            }
        };
        match step {
            Step::Write(w) => {
                let fd = fds.entry(w.pid).or_insert_with(|| {
                    plfs.open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, w.pid)
                        .unwrap()
                });
                plfs.write(fd, &w.data, w.offset, w.pid).unwrap();
                model = reference(&[
                    W {
                        data: model.clone(),
                        offset: 0,
                        pid: 0,
                    },
                    w.clone(),
                ]);
                continue;
            }
            Step::Close(pid) => {
                if let Some(fd) = fds.remove(pid) {
                    plfs.close(&fd, *pid).unwrap();
                }
                continue;
            }
            Step::Publish => {
                close_all(&mut fds);
                if plfs.is_container("/f") {
                    container::publish_merged(backing.as_ref(), "/f").unwrap();
                }
            }
            Step::OTrunc => {
                close_all(&mut fds);
                let fd = plfs
                    .open(
                        "/f",
                        OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC,
                        9,
                    )
                    .unwrap();
                plfs.close(&fd, 9).unwrap();
                model.clear();
            }
            Step::Trunc(len) => {
                close_all(&mut fds);
                if plfs.is_container("/f") {
                    plfs.trunc("/f", *len).unwrap();
                    model.resize(*len as usize, 0);
                }
            }
            Step::Compact => {
                close_all(&mut fds);
                if plfs.is_container("/f") {
                    plfs.compact("/f").unwrap();
                }
            }
        }
        if !plfs.is_container("/f") {
            continue;
        }
        let files = container::merged_files(backing.as_ref(), "/f").unwrap();
        assert!(
            files.iter().all(|(_, s)| *s != MergedState::Corrupt),
            "a merged index that is not a fresh merge: {files:?}"
        );
        let fresh = ReadFile::open(backing.as_ref(), "/f").unwrap();
        assert_eq!(fresh.read_all(backing.as_ref()).unwrap(), model);
        if files.iter().any(|(_, s)| *s == MergedState::Valid) {
            loaded += 1;
            let runs = container::read_index_runs(backing.as_ref(), fresh.droppings()).unwrap();
            let merged = GlobalIndex::from_sorted_runs(runs);
            assert_eq!(fresh.eof(), merged.eof());
            assert_eq!(fresh.index().raw_entries(), merged.raw_entries());
            assert_eq!(fresh.index().max_timestamp(), merged.max_timestamp());
            assert!(fresh.index().iter_segments().eq(merged.iter_segments()));
        }
    }
    loaded
}

/// The view loaded from a merged index equals a fresh merge and the byte
/// model over joins, closes, publishes, `O_TRUNC`, truncates and
/// `compact`. (Cases are drawn by hand, so the run can count the views
/// loaded from a merged index: the suite must have made some.)
#[test]
fn a_merged_index_reads_as_a_fresh_merge_and_the_model() {
    use proptest::test_runner::Rng;
    const CASES: u32 = 192;
    let strategy = steps();
    let mut rng = Rng::from_name(concat!(
        module_path!(),
        "::a_merged_index_reads_as_a_fresh_merge_and_the_model"
    ));
    let mut loaded = 0;
    for case in 1..=CASES {
        let steps = strategy.generate(&mut rng);
        match std::panic::catch_unwind(|| run_steps(&steps)) {
            Ok(n) => loaded += n,
            Err(panic) => {
                eprintln!("case {case}/{CASES} failed: steps = {steps:?}");
                std::panic::resume_unwind(panic);
            }
        }
    }
    eprintln!("{loaded} views loaded from a merged index over {CASES} cases");
    assert!(
        loaded > 0,
        "{CASES} cases loaded no view from a merged index"
    );
}
