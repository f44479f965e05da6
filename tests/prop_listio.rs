//! Property tests: list I/O (`write_list`/`read_list`) against the
//! single-extent path. The batched vector calls must be observationally
//! identical to issuing the extents one by one — including overlapping and
//! out-of-order extents (later extents win) and short reads at EOF — with
//! the batching visible only in the index-record accounting.

use plfs::fd::LIST_BATCH_EXTENTS;
use plfs::{MemBacking, OpenFlags, Plfs};
use proptest::prelude::*;
use std::sync::Arc;

/// One generated list call: each extent carries its own payload; the
/// `write_list` data blob is the concatenation in extent order.
#[derive(Debug, Clone)]
struct ListCall {
    extents: Vec<(u64, Vec<u8>)>,
}

fn list_calls(max_calls: usize, max_extents: usize) -> impl Strategy<Value = Vec<ListCall>> {
    prop::collection::vec(
        prop::collection::vec(
            // Offsets deliberately overlap (0..512 with lengths to 96) and
            // arrive unsorted, so extents within one call collide too.
            (0u64..512, prop::collection::vec(any::<u8>(), 1..96)),
            1..max_extents,
        ),
        1..max_calls,
    )
    .prop_map(|calls| {
        calls
            .into_iter()
            .map(|extents| ListCall { extents })
            .collect()
    })
}

/// One call of one-byte extents spanning two full internal batches and a
/// tail, so both batch boundaries of `write_list` are crossed.
fn long_call() -> impl Strategy<Value = ListCall> {
    let n = 2 * LIST_BATCH_EXTENTS + 1;
    prop::collection::vec(
        (0u64..512, prop::collection::vec(any::<u8>(), 1..2)),
        n..n + 32,
    )
    .prop_map(|extents| ListCall { extents })
}

fn blob_and_extents(call: &ListCall) -> (Vec<u8>, Vec<(u64, u64)>) {
    let mut blob = Vec::new();
    let mut extents = Vec::with_capacity(call.extents.len());
    for (off, data) in &call.extents {
        extents.push((*off, data.len() as u64));
        blob.extend_from_slice(data);
    }
    (blob, extents)
}

fn mem_plfs() -> Plfs {
    Plfs::new(Arc::new(MemBacking::new()))
}

/// Read the whole logical file back through plain reads.
fn read_back(plfs: &Plfs, fd: &plfs::PlfsFd) -> Vec<u8> {
    let size = fd.size().unwrap() as usize;
    let mut buf = vec![0u8; size];
    if size > 0 {
        let n = plfs.read(fd, &mut buf, 0).unwrap();
        assert_eq!(n, size);
    }
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `write_list` is byte-identical to the equivalent sequence of
    /// single-extent writes, for any extent vector — overlapping,
    /// out-of-order, repeated offsets, longer than an internal batch.
    #[test]
    fn write_list_equals_single_extent_writes(
        calls in list_calls(6, 8),
        long in long_call(),
    ) {
        let listed = mem_plfs();
        let fd_l = listed.open("/f", OpenFlags::RDWR | OpenFlags::CREAT, 0).unwrap();
        let single = mem_plfs();
        let fd_s = single.open("/f", OpenFlags::RDWR | OpenFlags::CREAT, 0).unwrap();
        for (pid, call) in calls.iter().chain([&long]).enumerate() {
            let pid = pid as u64;
            fd_l.add_ref(pid);
            fd_s.add_ref(pid);
            let (blob, extents) = blob_and_extents(call);
            let n = listed.write_list(&fd_l, &blob, &extents, pid).unwrap();
            prop_assert_eq!(n as u64, extents.iter().map(|&(_, l)| l).sum::<u64>());
            let mut pos = 0usize;
            for (off, data) in &call.extents {
                single.write(&fd_s, data, *off, pid).unwrap();
                pos += data.len();
            }
            prop_assert_eq!(pos, blob.len());
        }
        prop_assert_eq!(read_back(&listed, &fd_l), read_back(&single, &fd_s));
    }

    /// `read_list` scatters exactly what a sequence of single-extent reads
    /// would return, including part-filled extents at EOF.
    #[test]
    fn read_list_equals_single_extent_reads(
        calls in list_calls(4, 6),
        reads in prop::collection::vec((0u64..1024, 1u64..128), 1..6),
    ) {
        let plfs = mem_plfs();
        let fd = plfs.open("/f", OpenFlags::RDWR | OpenFlags::CREAT, 0).unwrap();
        for (pid, call) in calls.iter().enumerate() {
            let pid = pid as u64;
            fd.add_ref(pid);
            let (blob, extents) = blob_and_extents(call);
            plfs.write_list(&fd, &blob, &extents, pid).unwrap();
        }
        let total: u64 = reads.iter().map(|&(_, l)| l).sum();
        let mut listed = vec![0xA5u8; total as usize];
        let n_list = plfs.read_list(&fd, &mut listed, &reads).unwrap();

        let mut singles = vec![0xA5u8; total as usize];
        let mut n_single = 0usize;
        let mut pos = 0usize;
        for &(off, len) in &reads {
            n_single += plfs.read(&fd, &mut singles[pos..pos + len as usize], off).unwrap();
            pos += len as usize;
        }
        prop_assert_eq!(n_list, n_single);
        prop_assert_eq!(listed, singles);
    }
}
