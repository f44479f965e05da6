//! Property tests: the container's logical-file semantics against a
//! byte-vector reference model.

use plfs::{GlobalIndex, IndexEntry, MemBacking, OpenFlags, Plfs};
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
