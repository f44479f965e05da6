//! Outside-in spans: recorded by benchmark code around calls into each
//! layer's public functions, kept in memory, written out once at the end.
//!
//! A span is `{id, parent, req, layer, op, start_ns, end_ns, bytes}`; one
//! `req` per application-level call. Every thread records into its own
//! buffer (registered globally, so spans from threads the product spawns
//! are collected too). A layer's *self time* is its span's duration minus
//! the part of that interval its child spans cover.

use crate::oplist::now_ns;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within one [`collect`]; 0 is "no span".
    pub id: u32,
    pub parent: u32,
    pub req: u32,
    pub layer: &'static str,
    pub op: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Default)]
struct ThreadBuf {
    spans: Vec<Span>,
    /// Indices into `spans` of the spans currently open on this thread.
    open: Vec<usize>,
    req: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static BUFS: Mutex<Vec<Arc<Mutex<ThreadBuf>>>> = Mutex::new(Vec::new());

/// The recorder is process-global, so tests that record take this first.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

thread_local! {
    static BUF: RefCell<Option<Arc<Mutex<ThreadBuf>>>> = const { RefCell::new(None) };
}

fn with_buf<R>(f: impl FnOnce(&mut ThreadBuf) -> R) -> R {
    BUF.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let b = Arc::new(Mutex::new(ThreadBuf::default()));
            BUFS.lock().expect("span registry poisoned").push(b.clone());
            b
        });
        let mut g = buf.lock().expect("span buffer poisoned");
        f(&mut g)
    })
}

/// Switch recording on or off; off makes [`enter`] free, which is what the
/// paired untraced replay behind `trace.overhead_ratio` runs with.
pub fn set_enabled(on: bool) {
    // SeqCst: flipped only between replays, never on a hot path.
    ENABLED.store(on, Ordering::SeqCst);
}

/// Start the next application-level request on this thread.
pub fn next_req(req: u32) {
    if ENABLED.load(Ordering::Relaxed) {
        with_buf(|b| b.req = req);
    }
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

impl Guard {
    /// Record the bytes the call moved.
    pub fn bytes(&self, n: u64) {
        if let Some(i) = self.0 {
            with_buf(|b| b.spans[i].bytes = n);
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(i) = self.0 {
            let end = now_ns();
            with_buf(|b| {
                b.spans[i].end_ns = end;
                b.open.retain(|&o| o != i);
            });
        }
    }
}

/// Open a span on this thread; its parent is the innermost open span.
pub fn enter(layer: &'static str, op: &'static str) -> Guard {
    // relaxed: a statistic-style flag; see set_enabled
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let i = with_buf(|b| {
        let i = b.spans.len();
        let parent = b.open.last().map_or(0, |&p| p as u32 + 1);
        b.spans.push(Span {
            id: i as u32 + 1,
            parent,
            req: b.req,
            layer,
            op,
            start_ns: 0,
            end_ns: 0,
            bytes: 0,
        });
        b.open.push(i);
        // Stamp the start last so the bookkeeping above is outside the span.
        b.spans[i].start_ns = now_ns();
        i
    });
    Guard(Some(i))
}

/// Take the spans this thread recorded so far (ids local to the thread).
pub fn take_thread() -> Vec<Span> {
    with_buf(|b| {
        b.open.clear();
        std::mem::take(&mut b.spans)
    })
}

/// Concatenate span lists, renumbering so that ids stay unique.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len() as u32;
        for mut s in list {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            out.push(s);
        }
    }
    out
}

/// Take every thread's spans recorded so far, with ids made unique.
pub fn collect() -> Vec<Span> {
    let bufs = BUFS.lock().expect("span registry poisoned");
    merge(
        bufs.iter()
            .map(|buf| {
                let mut g = buf.lock().expect("span buffer poisoned");
                g.open.clear();
                std::mem::take(&mut g.spans)
            })
            .collect(),
    )
}

/// Length of the union of `[start, end)` intervals.
pub fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur_end) = (0u64, 0u64);
    for (s, e) in iv {
        let s = s.max(cur_end);
        if e > s {
            total += e - s;
            cur_end = e;
        }
    }
    total
}

/// Self time of every span, by id: duration minus the union of its
/// children's intervals clipped to the span.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            let iv = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            children.entry(s.parent).or_default().push(iv);
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.remove(&s.id).map_or(0, union_ns);
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Self time summed per layer.
pub fn self_by_layer(spans: &[Span]) -> HashMap<&'static str, u64> {
    let selfs = self_times(spans);
    let mut out = HashMap::new();
    for s in spans {
        *out.entry(s.layer).or_insert(0) += selfs[&s.id];
    }
    out
}

/// Part of the window `[start, end)` that no root span of `spans` covers.
/// For one thread's spans, `Σ self + unattributed = end − start`.
pub fn unattributed_ns(spans: &[Span], start: u64, end: u64) -> u64 {
    let roots = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.start_ns.max(start), s.end_ns.min(end)))
        .collect();
    (end - start).saturating_sub(union_ns(roots))
}

/// One JSON object per line, in the schema the README documents.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120);
    for s in spans {
        let v = jsonlite::Value::object()
            .with("id", s.id as u64)
            .with("parent", s.parent as u64)
            .with("req", s.req as u64)
            .with("layer", s.layer)
            .with("op", s.op)
            .with("start_ns", s.start_ns)
            .with("end_ns", s.end_ns)
            .with("bytes", s.bytes);
        out.push_str(&v.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            layer,
            op: "x",
            start_ns,
            end_ns,
            bytes: 0,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // api [0,100) > backing [10,40) > (grandchild) file [20,30)
        let spans = vec![
            span(1, 0, "api", 0, 100),
            span(2, 1, "backing", 10, 40),
            span(3, 2, "file", 20, 30),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 70); // the grandchild is not subtracted twice
        assert_eq!(selfs[&2], 20);
        assert_eq!(selfs[&3], 10);
    }

    #[test]
    fn overlapping_children_are_covered_by_their_union() {
        // Two children overlapping in [30,40), one sticking out past the parent.
        let spans = vec![
            span(1, 0, "api", 0, 100),
            span(2, 1, "backing", 10, 40),
            span(3, 1, "backing", 30, 60),
            span(4, 1, "backing", 90, 120),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - (50 + 10));
    }

    #[test]
    fn self_plus_unattributed_is_wall() {
        // One thread's timeline: calls follow each other, children nest.
        let spans = vec![
            span(1, 0, "ldplfs", 5, 50),
            span(2, 1, "backing", 10, 30),
            span(3, 1, "under", 30, 45),
            span(4, 0, "ldplfs", 60, 90),
            span(5, 4, "backing", 61, 70),
        ];
        let (start, end) = (0, 100);
        let by_layer = self_by_layer(&spans);
        assert_eq!(by_layer["ldplfs"], (45 - 35) + (30 - 9));
        assert_eq!(by_layer["backing"], 20 + 9);
        assert_eq!(unattributed_ns(&spans, start, end), 5 + 10 + 10);
        let total_self: u64 = by_layer.values().sum();
        assert_eq!(
            total_self + unattributed_ns(&spans, start, end),
            end - start
        );
    }

    #[test]
    fn recorder_links_parents_and_collect_renumbers() {
        let _serial = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        collect();
        set_enabled(true);
        next_req(7);
        {
            let outer = enter("api", "write");
            outer.bytes(4096);
            let _inner = enter("backing", "append");
        }
        let other = std::thread::spawn(|| {
            let _g = enter("backing", "stat");
        });
        other.join().unwrap();
        set_enabled(false);
        let _off = enter("api", "ignored");
        let spans = collect();
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.op == "write").unwrap();
        let inner = spans.iter().find(|s| s.op == "append").unwrap();
        let stat = spans.iter().find(|s| s.op == "stat").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!((outer.parent, outer.req, outer.bytes), (0, 7, 4096));
        assert_eq!(stat.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let ids: std::collections::HashSet<u32> = spans.iter().map(|s| s.id).collect();
        assert_eq!(ids.len(), 3);
    }
}
