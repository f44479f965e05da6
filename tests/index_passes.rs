//! How a read-open reads its index droppings: each through one window of
//! 1,344 whole records (64,512 bytes), once when no two writes overlap —
//! the restart shape — and twice when some do, the second pass keeping
//! what newest-wins needs. Either way the view is the reference merge's.

use plfs::container::read_index_runs;
use plfs::{Backing, GlobalIndex, MemBacking, MeterBacking, OpenFlags, Plfs, ReadFile};
use std::sync::Arc;

const WINDOW: u64 = 1344 * 48;
const RECORD: u64 = 8;

/// `0..n` in a shuffled order: consecutive writes at these records have no
/// constant stride, so none compress into a pattern record.
fn shuffled(n: u64, mut rng: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (0..n).collect();
    for i in (1..order.len()).rev() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        order.swap(i, (rng % (i as u64 + 1)) as usize);
    }
    order
}

/// A metered container from `writes`, `(pid, record)` each: write `i`
/// puts `i` in that 8-byte record. Returns it and the bytes it must read as.
fn container(pids: u64, writes: &[(u64, u64)]) -> (Arc<MeterBacking>, Vec<u8>) {
    let meter = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
    let plfs = Plfs::new(meter.clone() as Arc<dyn Backing>);
    let open = |pid| plfs.open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, pid);
    let fds: Vec<_> = (0..pids).map(|pid| open(pid).unwrap()).collect();
    let mut model = Vec::new();
    for (i, &(pid, rec)) in (0u64..).zip(writes) {
        let at = (rec * RECORD) as usize;
        model.resize(model.len().max(at + RECORD as usize), 0);
        model[at..at + RECORD as usize].copy_from_slice(&i.to_le_bytes());
        plfs.write(&fds[pid as usize], &i.to_le_bytes(), rec * RECORD, pid)
            .unwrap();
    }
    for (pid, fd) in (0..).zip(&fds) {
        plfs.close(fd, pid).unwrap();
    }
    (meter, model)
}

/// Opens the reader and checks it against the model and the reference
/// merge. Returns its backing opens and preads, and the preads one pass
/// over every index dropping takes.
fn open_checked(meter: &MeterBacking, model: &[u8]) -> (ReadFile, u64, u64, u64) {
    let before = meter.snapshot();
    let r = ReadFile::open(meter, "/f").unwrap();
    let cost = meter.snapshot().delta(&before);
    let one_pass: u64 = r
        .droppings()
        .iter()
        .filter_map(|d| d.index_path.as_deref())
        .map(|ip| meter.stat(ip).unwrap().size.div_ceil(WINDOW))
        .sum();
    let runs = read_index_runs(meter, r.droppings()).unwrap();
    let reference = GlobalIndex::from_entries(runs.concat());
    assert_eq!(
        r.index().iter_segments().collect::<Vec<_>>(),
        reference.iter_segments().collect::<Vec<_>>(),
        "the open's view is the reference merge's"
    );
    assert_eq!(
        (r.eof(), r.index().raw_entries()),
        (reference.eof(), reference.raw_entries())
    );
    assert_eq!(r.read_all(meter).unwrap(), model);
    (r, cost.open, cost.pread, one_pass)
}

#[test]
fn a_restart_shaped_open_reads_each_index_dropping_once_a_window_at_a_time() {
    // 8 pids, every record once in a shuffled order, record k by pid k % 8:
    // nothing overlaps, and each dropping spans three windows.
    const PIDS: u64 = 8;
    let writes: Vec<_> = shuffled(PIDS * 3000, 0x2545_F491_4F6C_DD1D)
        .into_iter()
        .map(|rec| (rec % PIDS, rec))
        .collect();
    let (meter, model) = container(PIDS, &writes);
    let (r, opens, preads, one_pass) = open_checked(&meter, &model);
    assert_eq!(r.droppings().len(), PIDS as usize);
    assert_eq!(one_pass, 3 * PIDS, "three windows per dropping");
    assert_eq!((opens, preads), (PIDS, one_pass), "one pass");
}

#[test]
fn an_open_that_meets_an_overwrite_reads_each_index_dropping_twice() {
    // Pid 0 writes 4,000 records in a shuffled order; pid 1 then
    // overwrites every third record from 1,000 on, 500 of them.
    let mut writes: Vec<_> = shuffled(4000, 0x9E37_79B9_7F4A_7C15)
        .into_iter()
        .map(|rec| (0, rec))
        .collect();
    writes.extend((0..500).map(|j| (1, 1000 + 3 * j)));
    let (meter, model) = container(2, &writes);
    let (r, opens, preads, one_pass) = open_checked(&meter, &model);
    assert_eq!(r.droppings().len(), 2);
    assert!(one_pass >= 3, "pid 0's dropping spans windows");
    assert_eq!((opens, preads), (4, 2 * one_pass), "two passes");
}
