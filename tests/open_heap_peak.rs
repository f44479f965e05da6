//! What a read-open holds on the heap at its highest point. A reader
//! merges every index dropping of a container before its first byte comes
//! back; that merge must cost little more than the index it keeps — 24
//! bytes per extent — and one window of a dropping's bytes: not the
//! decoded runs, a sort order, a whole dropping or a second copy of the
//! result. A counting global allocator (this binary's only) tracks live
//! heap bytes.

use plfs::{Backing, MemBacking, OpenFlags, Plfs, ReadFile, RealBacking};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    /// Per thread: the harness's own threads allocate beside the test.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn charge(bytes: i64) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        charge(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// `f`'s result, and the most live heap bytes this thread held above its
/// starting point while `f` ran.
fn high_water<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let out = f();
    (out, PEAK.with(Cell::get) - start)
}

/// `restart_read`'s shape at a quarter of its record count, with 8-byte
/// records: 8 pids, every record once in a shuffled order, record `k`
/// written by pid `k % 8`, so no two neighbours share a dropping and
/// nothing coalesces.
#[test]
fn a_read_open_holds_the_index_plus_one_window() {
    const PIDS: u64 = 8;
    const RECORDS: u64 = 65_536;
    const RECORD: u64 = 8;
    let backing = Arc::new(MemBacking::new());
    let plfs = Plfs::new(backing.clone() as Arc<dyn Backing>);
    let open = |pid| plfs.open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, pid);
    let fds: Vec<_> = (0..PIDS).map(|pid| open(pid).unwrap()).collect();
    let mut order: Vec<u64> = (0..RECORDS).collect();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..order.len()).rev() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        order.swap(i, (rng % (i as u64 + 1)) as usize);
    }
    for rec in order {
        let pid = rec % PIDS;
        plfs.write(&fds[pid as usize], &rec.to_le_bytes(), rec * RECORD, pid)
            .unwrap();
    }
    for (pid, fd) in (0..).zip(&fds) {
        plfs.close(fd, pid).unwrap();
    }

    let (reader, peak) = high_water(|| ReadFile::open(backing.as_ref(), "/f").unwrap());
    assert_eq!(reader.droppings().len(), PIDS as usize);
    assert_eq!(reader.index().raw_entries(), RECORDS as usize);
    assert_eq!(
        reader.index().segments(),
        RECORDS as usize,
        "nothing coalesces"
    );
    let records = RECORDS as i64;
    let index = reader.index_resident_bytes() as i64;
    assert!(
        index <= 24 * records,
        "the index keeps {index} B: over 24 B for each of {records} extents"
    );
    let bound = 26 * records + (128 << 10);
    assert!(
        peak <= bound,
        "the open peaked at {peak} B live: {:.2}x the {index} B index it keeps \
         (bound {bound} B: 26 B per record and 128 KiB)",
        peak as f64 / index as f64
    );

    let mut buf = [0u8; 8];
    for rec in [0, 1, 4099, RECORDS - 1] {
        assert_eq!(
            reader
                .pread(backing.as_ref(), &mut buf, rec * RECORD)
                .unwrap(),
            8
        );
        assert_eq!(u64::from_le_bytes(buf), rec);
    }
}

/// The same shape, its last close leaving the merged index: an open loads
/// the extents straight into the index it keeps, so it holds 24 bytes per
/// extent and a constant — no window, no sort order, no second copy. With
/// the merged index gone, the open merges within the bound above.
#[test]
fn a_read_open_of_a_merged_index_holds_the_index_alone() {
    use plfs::container::{self, MergedState};
    const PIDS: u64 = 8;
    const RECORDS: u64 = 65_536;
    let backing = Arc::new(MemBacking::new());
    let plfs = Plfs::new(backing.clone() as Arc<dyn Backing>);
    let fds: Vec<_> = (0..PIDS)
        .map(|pid| plfs.open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, pid))
        .collect::<Result<_, _>>()
        .unwrap();
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let mut order: Vec<u64> = (0..RECORDS).collect();
    for i in (1..order.len()).rev() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        order.swap(i, (rng % (i as u64 + 1)) as usize);
    }
    for rec in order {
        let pid = rec % PIDS;
        plfs.write(&fds[pid as usize], &rec.to_le_bytes(), rec * 8, pid)
            .unwrap();
    }
    for (pid, fd) in (0..).zip(&fds) {
        plfs.close(fd, pid).unwrap();
    }
    let files = container::merged_files(backing.as_ref(), "/f").unwrap();
    assert!(
        matches!(files[..], [(_, MergedState::Valid)]),
        "the last close left {files:?}"
    );

    let (reader, peak) = high_water(|| ReadFile::open(backing.as_ref(), "/f").unwrap());
    assert_eq!(reader.index().raw_entries(), RECORDS as usize);
    assert_eq!(reader.index().segments(), RECORDS as usize);
    let bound = 24 * RECORDS as i64 + (16 << 10);
    assert!(
        peak <= bound,
        "the open of a merged index peaked at {peak} B live (bound {bound} B: \
         24 B per extent and 16 KiB)"
    );
    let mut buf = [0u8; 8];
    for rec in [0, 1, 4099, RECORDS - 1] {
        reader.pread(backing.as_ref(), &mut buf, rec * 8).unwrap();
        assert_eq!(u64::from_le_bytes(buf), rec);
    }
    drop(reader);

    let names = backing.readdir("/f").unwrap();
    assert_eq!(
        container::remove_merged(backing.as_ref(), "/f", &names).unwrap(),
        1
    );
    let (merged, peak) = high_water(|| ReadFile::open(backing.as_ref(), "/f").unwrap());
    assert_eq!(merged.index().segments(), RECORDS as usize);
    let bound = 26 * RECORDS as i64 + (128 << 10);
    assert!(peak <= bound, "the merge peaked at {peak} B live");
}

/// A truncate to a nonzero length streams the bytes it keeps through one
/// chunk: truncating a 32 MiB container to 24 MiB holds under 8 MiB of
/// heap at its highest point, not the 24 MiB it keeps.
#[test]
fn a_truncate_holds_one_chunk_not_the_bytes_it_keeps() {
    const MIB: u64 = 1 << 20;
    let dir = std::env::temp_dir().join(format!("plfs-trunc-heap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let backing = Arc::new(RealBacking::new(&dir).unwrap());
    let plfs = Plfs::new(backing as Arc<dyn Backing>);
    let fd = plfs
        .open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, 1)
        .unwrap();
    let block = vec![7u8; MIB as usize];
    for i in 0..32 {
        plfs.write(&fd, &block, i * MIB, 1).unwrap();
    }
    plfs.close(&fd, 1).unwrap();
    drop(block);

    let ((), peak) = high_water(|| plfs.trunc("/f", 24 * MIB).unwrap());
    assert!(
        peak < 8 * MIB as i64,
        "the truncate peaked at {peak} B live"
    );
    assert_eq!(plfs.getattr("/f").unwrap().size, 24 * MIB);
    std::fs::remove_dir_all(&dir).unwrap();
}
