//! What the small-file cycle asks of the allocator. `meta_storm`'s cycle
//! — create, write, close, stat, open, read, close, unlink of a 1 KiB file
//! — is a dozen backing syscalls, and every heap call around them is CPU
//! the flat file does not spend. A counting global allocator (this
//! binary's only) tallies, per thread, the calls that reach it: `alloc`
//! (zeroed or not) and `realloc`. The bounds are a ratchet: lower one when
//! a change lowers its count, never raise one.

use plfs::{Backing, OpenFlags, Plfs, RealBacking};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    /// Per thread: the harness's own threads allocate beside the test.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&REALLOCS);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocator calls, `(alloc, realloc)`, summed over the cycles run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Calls(u64, u64);

/// `f`'s result and the allocator calls this thread made while it ran.
fn counted<T>(total: &mut Calls, f: impl FnOnce() -> T) -> T {
    let (a, r) = (ALLOCS.with(Cell::get), REALLOCS.with(Cell::get));
    let out = f();
    total.0 += ALLOCS.with(Cell::get) - a;
    total.1 += REALLOCS.with(Cell::get) - r;
    out
}

/// Cycles measured, after one that warms what a process sets up once (the
/// thread's index window, lazily built statics).
const CYCLES: u64 = 32;

/// Per call kind, the most `alloc + realloc` calls one cycle may make, and
/// what each of them is for.
const BOUNDS: [(&str, u64); 8] = [
    // The fd's container path, the creator's data dropping's path and its
    // handle, the cached verdict's key, the fd.
    ("create", 5),
    // The writer's index buffer, the container's key in the in-process
    // writer counts.
    ("write", 2),
    // The closed index's path and its handle.
    ("close (writer)", 2),
    // What the close installed: no listing.
    ("stat", 0),
    // The fd's container path, the fd.
    ("open (reader)", 2),
    // The listing (3); the dropping table and two paths (3); the extents
    // the index's identity name stands for, the view's handle table, the
    // data dropping's handle — no index handle: the index is not opened.
    ("read", 9),
    ("close (reader)", 0),
    // The two paths the close knew: no listing.
    ("unlink", 2),
];

/// Most allocator calls a whole cycle may make.
const CYCLE_BOUND: u64 = 22;

#[test]
fn the_small_file_cycle_allocates_at_most_its_bound() {
    let dir = std::env::temp_dir().join(format!("plfs-alloc-cycle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plfs = Plfs::new(Arc::new(RealBacking::new(&dir).unwrap()) as Arc<dyn Backing>);
    let pid = 7;
    let data = [7u8; 1024];
    let mut buf = [0u8; 1024];
    let mut calls = [Calls::default(); 8];
    for cycle in 0..=CYCLES {
        let mut c = [Calls::default(); 8];
        let flags = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
        let wfd = counted(&mut c[0], || plfs.open("/small.07", flags, pid).unwrap());
        let n = counted(&mut c[1], || plfs.write(&wfd, &data, 0, pid).unwrap());
        assert_eq!(n, 1024);
        counted(&mut c[2], || plfs.close(&wfd, pid).unwrap());
        drop(wfd);
        let st = counted(&mut c[3], || plfs.getattr("/small.07").unwrap());
        assert_eq!(st.size, 1024);
        let rfd = counted(&mut c[4], || {
            plfs.open("/small.07", OpenFlags::RDONLY, pid).unwrap()
        });
        let n = counted(&mut c[5], || plfs.read(&rfd, &mut buf, 0).unwrap());
        assert_eq!((n, buf), (1024, data));
        counted(&mut c[6], || plfs.close(&rfd, pid).unwrap());
        drop(rfd);
        counted(&mut c[7], || plfs.unlink("/small.07").unwrap());
        if cycle > 0 {
            for (sum, one) in calls.iter_mut().zip(c) {
                sum.0 += one.0;
                sum.1 += one.1;
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();

    let mut report = String::new();
    let mut cycle = 0;
    for ((name, bound), Calls(a, r)) in BOUNDS.iter().zip(calls) {
        let per = (a + r).div_ceil(CYCLES);
        report += &format!(
            "{name}: {} + {} = {per} (bound {bound})\n",
            a as f64 / CYCLES as f64,
            r as f64 / CYCLES as f64
        );
        cycle += a + r;
    }
    let cycle = cycle.div_ceil(CYCLES);
    report += &format!("cycle: {cycle} (bound {CYCLE_BOUND})");
    println!("{report}");
    for ((name, bound), Calls(a, r)) in BOUNDS.iter().zip(calls) {
        assert!(
            (a + r).div_ceil(CYCLES) <= *bound,
            "{name} over its bound\n{report}"
        );
    }
    assert!(cycle <= CYCLE_BOUND, "the cycle over its bound\n{report}");
}
