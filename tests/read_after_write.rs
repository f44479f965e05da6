//! Integration: what a read-after-write on one `O_RDWR` fd costs.
//!
//! The fd keeps one read view and patches it in place, so a write→read
//! pair must cost O(log n) in the resident index and no backing metadata
//! ops at all: no reopen of the data dropping, no `readdir`, no forced
//! index append.

use plfs::{Backing, MemBacking, MeterBacking, OpenFlags, Plfs, ReadFile};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[test]
fn thousand_write_read_pairs_reopen_nothing() {
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let plfs = Plfs::new(meter.clone() as Arc<dyn Backing>);
    let fd = plfs
        .open("/f", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    let opened = meter.snapshot();
    let mut buf = [0u8; 64];
    let pair = |i: u64, buf: &mut [u8; 64]| {
        let off = (i * 7919) % 4096;
        plfs.write(&fd, &[i as u8; 64], off, 0).unwrap();
        assert_eq!(plfs.read(&fd, buf, off).unwrap(), 64);
        assert_eq!(*buf, [i as u8; 64]);
    };
    pair(0, &mut buf); // builds the view: the one merge
    let first = meter.snapshot();
    for i in 1..1000 {
        pair(i, &mut buf);
    }
    let rest = meter.snapshot().delta(&first);
    assert_eq!(rest.readdir, 0, "no dropping census after the first read");
    assert_eq!(rest.open, 0, "the data dropping's handle is kept: {rest:?}");
    assert_eq!(
        (rest.pwrite, rest.append),
        (999, 0),
        "one data pwrite per write; index records wait for buffer-full, sync or close: {rest:?}"
    );
    let all = meter.snapshot().delta(&opened);
    assert!(
        all.open <= 2,
        "1000 pairs: one index open for the merge, one data open: {all:?}"
    );
}

/// What the one read path costs on the shape the benchmark's `restart_read`
/// reads: 8 pids, 4 KiB records in a shuffled order, so neighbouring records
/// sit in different droppings. Upper bounds — coalescing adjacent fragments
/// of one dropping may lower them.
#[test]
fn cold_open_and_scan_of_a_shuffled_eight_writer_container() {
    const PIDS: u64 = 8;
    const RECORD: usize = 4096;
    const RECORDS: u64 = 512;
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let plfs = Plfs::new(meter.clone() as Arc<dyn Backing>);
    let fd = plfs
        .open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, 0)
        .unwrap();
    for pid in 1..PIDS {
        fd.add_ref(pid);
    }
    // 211 is coprime to 512: every record once, in no logical order, and
    // a pid that does not follow from the record's position.
    for i in 0..RECORDS {
        let rec = i * 211 % RECORDS;
        let pid = (rec * 5 + rec / 8) % PIDS;
        plfs.write(&fd, &[rec as u8; RECORD], rec * RECORD as u64, pid)
            .unwrap();
    }
    for pid in 0..PIDS {
        plfs.close(&fd, pid).unwrap();
    }

    let before = meter.snapshot();
    let r = ReadFile::open(meter.as_ref(), "/f").unwrap();
    let open = meter.snapshot().delta(&before);
    assert_eq!(r.droppings().len(), PIDS as usize);
    assert!(
        open.open <= PIDS && open.size <= PIDS && open.pread <= PIDS,
        "one open, one size, one pread per index dropping: {open:?}"
    );
    assert_eq!(open.data_ops(), open.pread, "an open writes nothing");

    let before = meter.snapshot();
    let mut buf = vec![0u8; 16 * RECORD];
    assert_eq!(
        r.pread(meter.as_ref(), &mut buf, 64 << 10).unwrap(),
        buf.len()
    );
    for (k, rec) in buf.chunks(RECORD).enumerate() {
        assert!(rec.iter().all(|&b| b == (16 + k) as u8), "record {k}");
    }
    let read = meter.snapshot().delta(&before);
    assert!(
        read.pread <= 16 && read.open <= PIDS,
        "one data pread per 4 KiB fragment, one open per dropping touched: {read:?}"
    );
    assert_eq!(
        read.readdir + read.stat + read.exists + read.size,
        0,
        "{read:?}"
    );
}

/// Seconds per write→read cycle (best of three runs of `cycles`) on a fd
/// whose view holds `segments` segments that cannot coalesce. Each cycle
/// writes its block as the pid that did not write it last, so it appends
/// and the read patches the view: an overwrite of the writer's own bytes
/// would go in place and patch nothing.
fn cycle_secs(segments: u64, cycles: u64) -> f64 {
    let plfs = Plfs::new(Arc::new(MemBacking::new()));
    let fd = plfs
        .open("/f", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    fd.add_ref(1);
    // Neighbouring blocks come from different droppings: one segment each.
    for i in 0..segments {
        plfs.write(&fd, &[i as u8; 16], i * 16, i % 2).unwrap();
    }
    let mut buf = [0u8; 16];
    plfs.read(&fd, &mut buf, 0).unwrap();
    assert_eq!(
        fd.with_view(|v| v.index().segments()).unwrap(),
        segments as usize
    );
    let mut owner: Vec<u64> = (0..segments).map(|k| k % 2).collect();
    let mut best = Duration::MAX;
    let mut rng = 0x2545F4914F6CDD1Du64;
    for _ in 0..3 {
        let t0 = Instant::now();
        for i in 0..cycles {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let k = (rng % segments) as usize;
            owner[k] = 1 - owner[k];
            let off = k as u64 * 16;
            plfs.write(&fd, &[i as u8; 16], off, owner[k]).unwrap();
            plfs.read(&fd, &mut buf, off).unwrap();
            assert_eq!(buf, [i as u8; 16]);
        }
        best = best.min(t0.elapsed());
    }
    best.as_secs_f64() / cycles as f64
}

/// The clone-and-rebuild refresh cost O(index) per read-after-write (≈ 256×
/// between these two sizes); the in-place patch is O(log n).
#[test]
fn refresh_cost_does_not_scale_with_the_resident_index() {
    let small = cycle_secs(1 << 10, 4000);
    let large = cycle_secs(1 << 18, 4000);
    assert!(
        large < 4.0 * small,
        "read-after-write with 256k segments resident: {:.2} us, with 1k: {:.2} us",
        large * 1e6,
        small * 1e6
    );
}
