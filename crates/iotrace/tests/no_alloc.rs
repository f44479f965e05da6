//! Disabled tracing must not allocate on the hot path: the whole point of
//! runtime-off-by-default observability is that production code can leave
//! the instrumentation in place. A counting global allocator proves it —
//! and proves that a sink nobody enables never builds its record ring,
//! which every process under the preload would otherwise pay for in
//! resident memory at its first call into PLFS.

use iotrace::{global, Layer, OpEvent, OpKind, TraceSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Per thread: the tests and the harness's own bookkeeping run on
    /// parallel threads, and a process-wide count charges each test with
    /// the others' allocations (it failed one run in a dozen).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// (allocations, bytes) made by this thread so far.
fn allocs() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// (allocations, bytes) that `f` makes on this thread.
fn allocated_by(f: impl FnOnce()) -> (u64, u64) {
    let (n0, b0) = allocs();
    f();
    let (n1, b1) = allocs();
    (n1 - n0, b1 - b0)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn hot_loop(sink: &TraceSink, n: u64) {
    for i in 0..n {
        // The instrumented-code pattern: start() gates everything.
        if let Some(t0) = sink.start() {
            sink.record(
                t0,
                OpEvent::new(Layer::Shim, OpKind::Write)
                    .path("/plfs/hot")
                    .bytes(i),
            );
        }
    }
}

/// The only test that touches [`global`], so its first touch is this
/// thread's to measure.
#[test]
fn the_global_sink_costs_nothing_until_enabled() {
    let (_, bytes) = allocated_by(|| {
        let _ = global();
    });
    assert!(
        bytes < 64 << 10,
        "the first global() allocated {bytes} B; the ring must wait for set_enabled(true)"
    );
    let (n, _) = allocated_by(|| {
        for i in 0..10_000u64 {
            if let Some(t0) = global().start() {
                global().record(t0, OpEvent::new(Layer::Plfs, OpKind::Read).bytes(i));
            }
        }
    });
    assert_eq!(n, 0, "disabled global tracing allocated {n} times");
}

#[test]
fn disabled_hot_path_does_not_allocate() {
    let (n, bytes) = allocated_by(|| {
        let sink = TraceSink::new(1 << 10);
        hot_loop(&sink, 10_000);
    });
    assert_eq!(
        (n, bytes),
        (0, 0),
        "a never-enabled sink allocated {n} times ({bytes} B)"
    );
}

#[test]
fn enabling_allocates_the_ring_once_and_records_round_trip() {
    let sink = TraceSink::new(1 << 10);
    let (n, bytes) = allocated_by(|| sink.set_enabled(true));
    assert_eq!(n, 1, "the first enable builds the ring in one allocation");
    assert!(bytes >= 1 << 10, "a 1Ki-record ring in {bytes} B");
    let (n, _) = allocated_by(|| {
        sink.set_enabled(false);
        sink.set_enabled(true);
    });
    assert_eq!(n, 0, "re-enabling reuses the ring");

    let t0 = sink.start().expect("enabled");
    sink.record(
        t0,
        OpEvent::new(Layer::Plfs, OpKind::Write)
            .path("/plfs/x")
            .offset(7)
            .bytes(42),
    );
    let recs = sink.drain();
    assert_eq!(recs.len(), 1);
    assert_eq!((recs[0].offset, recs[0].bytes), (7, 42));
    assert_eq!(sink.path_name(recs[0].path_id).as_deref(), Some("/plfs/x"));
    assert_eq!(sink.dropped(), 0);

    // Switched off again: the ring stays, the hot path is silent.
    sink.set_enabled(false);
    let (n, _) = allocated_by(|| hot_loop(&sink, 10_000));
    assert_eq!(n, 0, "disabled after enabling allocated {n} times");
    assert_eq!(sink.recorded(), 1);
}

#[test]
fn enabled_steady_state_does_not_allocate_after_interning() {
    let sink = TraceSink::new(1 << 10);
    sink.set_enabled(true);
    // Warm-up: interns the path (allocates once) and touches the ring.
    hot_loop(&sink, 4);
    sink.drain();

    let (n, _) = allocated_by(|| hot_loop(&sink, 256));
    assert_eq!(n, 0, "steady-state enabled tracing allocated {n} times");
}
