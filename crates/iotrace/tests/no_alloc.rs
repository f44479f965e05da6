//! Disabled tracing must not allocate on the hot path: the whole point of
//! runtime-off-by-default observability is that production code can leave
//! the instrumentation in place. A counting global allocator proves it.

use iotrace::{global, Layer, OpEvent, OpKind, TraceSink};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Per thread: the two tests and the harness's own bookkeeping run on
    /// parallel threads, and a process-wide count charges each test with
    /// the others' allocations (it failed one run in a dozen).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator outlives a thread's locals.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn disabled_hot_path_does_not_allocate() {
    // Construction allocates (ring buffer); that's setup, not hot path.
    let sink = TraceSink::new(1 << 10);
    let _ = global(); // force one-time global init outside the window

    let before = allocs();
    for i in 0..10_000u64 {
        // The instrumented-code pattern: start() gates everything.
        if let Some(t0) = sink.start() {
            sink.record(
                t0,
                OpEvent::new(Layer::Shim, OpKind::Write)
                    .path("/plfs/hot")
                    .bytes(i),
            );
        }
        if let Some(t0) = global().start() {
            global().record(t0, OpEvent::new(Layer::Plfs, OpKind::Read).bytes(i));
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "disabled tracing allocated {} times on the hot path",
        after - before
    );
}

#[test]
fn enabled_steady_state_does_not_allocate_after_interning() {
    let sink = TraceSink::new(1 << 10);
    sink.set_enabled(true);
    // Warm-up: interns the path (allocates once) and touches the ring.
    for _ in 0..4 {
        if let Some(t0) = sink.start() {
            sink.record(
                t0,
                OpEvent::new(Layer::Shim, OpKind::Write).path("/plfs/hot"),
            );
        }
    }
    sink.drain();

    let before = allocs();
    for _ in 0..256 {
        if let Some(t0) = sink.start() {
            sink.record(
                t0,
                OpEvent::new(Layer::Shim, OpKind::Write).path("/plfs/hot"),
            );
        }
    }
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state enabled tracing allocated {} times",
        after - before
    );
}
