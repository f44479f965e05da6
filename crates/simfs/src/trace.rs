//! Operation tracing: every simulated op, mirrored into an [`iotrace`]
//! sink under layer `sim`.
//!
//! The related work the paper builds on (its ref [10] is the authors' own
//! I/O tracer) characterises applications by their op streams. `paperbench
//! --emit-json` enables [`iotrace::global`] around each figure, and every
//! op the simulator serves lands there — how the emitted per-layer
//! counters see `SimFs` without touching each instance. Simulated time
//! (f64 seconds since sim start) is mapped onto the schema's nanosecond
//! fields. Nothing is recorded while the sink is off.

use iotrace::{Layer, OpEvent, OpKind, TraceSink};

/// One traced operation, in simulator terms (seconds).
#[derive(Debug, Clone)]
pub(crate) struct TraceRecord {
    /// Operation class: read, write or meta.
    pub op: OpKind,
    /// Issuing node (`None` for metadata ops).
    pub node: Option<usize>,
    /// Byte offset (0 for metadata).
    pub offset: u64,
    /// Byte count (0 for metadata).
    pub len: u64,
    /// Arrival time (s).
    pub start: f64,
    /// Completion time (s).
    pub end: f64,
    /// Whether a write was absorbed by the client cache.
    pub cached: bool,
}

fn secs_to_ns(s: f64) -> u64 {
    if s <= 0.0 {
        0
    } else {
        (s * 1e9).round() as u64
    }
}

/// Record `rec` into `sink` if it is enabled.
pub(crate) fn record_into(sink: &TraceSink, rec: TraceRecord) {
    if !sink.is_enabled() {
        return;
    }
    let start_ns = secs_to_ns(rec.start);
    let mut ev = OpEvent::new(Layer::Sim, rec.op)
        .offset(rec.offset)
        .bytes(rec.len)
        .hit(rec.cached);
    if let Some(node) = rec.node {
        ev = ev.node(node as u32);
    }
    sink.record_at(start_ns, secs_to_ns(rec.end).saturating_sub(start_ns), ev);
}

/// Record `rec` into the process-wide sink.
pub(crate) fn record(rec: TraceRecord) {
    record_into(iotrace::global(), rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(op: OpKind, len: u64, start: f64, end: f64) -> TraceRecord {
        TraceRecord {
            op,
            node: Some(0),
            offset: 0,
            len,
            start,
            end,
            cached: false,
        }
    }

    fn sim_op(sink: &TraceSink, op: OpKind) -> Option<iotrace::OpMetrics> {
        let snap = sink.snapshot();
        snap.entries
            .into_iter()
            .find(|e| e.layer == Layer::Sim && e.op == op)
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let sink = TraceSink::new(16);
        record_into(&sink, rec(OpKind::Write, 100, 0.0, 1.0));
        assert!(sink.snapshot().entries.is_empty());
    }

    #[test]
    fn summary_aggregates_per_kind() {
        let sink = TraceSink::new(16);
        sink.set_enabled(true);
        record_into(&sink, rec(OpKind::Write, 100, 0.0, 1.0));
        record_into(&sink, rec(OpKind::Write, 200, 1.0, 1.5));
        record_into(&sink, rec(OpKind::Read, 50, 0.0, 0.25));
        let w = sim_op(&sink, OpKind::Write).unwrap();
        assert_eq!((w.ops, w.bytes), (2, 300));
        assert_eq!(sim_op(&sink, OpKind::Read).unwrap().ops, 1);
        assert!(sim_op(&sink, OpKind::Meta).is_none());
    }

    #[test]
    fn jsonl_round_trips_fields() {
        let sink = TraceSink::new(16);
        sink.set_enabled(true);
        record_into(&sink, rec(OpKind::Read, 42, 1.0, 2.0));
        let line = sink.drain_jsonl();
        // Unified schema: layer/op tags plus byte counts.
        assert!(line.contains("\"layer\":\"sim\""), "line: {line}");
        assert!(line.contains("\"op\":\"read\""), "line: {line}");
        assert!(line.contains("\"bytes\":42"), "line: {line}");
        let (back, _) = iotrace::record_from_json(&jsonlite::parse(&line).unwrap()).unwrap();
        assert_eq!(
            (back.layer, back.op, back.bytes),
            (Layer::Sim, OpKind::Read, 42)
        );
        // Sim seconds land on the schema's nanoseconds.
        assert_eq!(
            (back.start_ns, back.latency_ns),
            (1_000_000_000, 1_000_000_000)
        );
    }

    #[test]
    fn latency_histogram_uses_log2_ns_buckets() {
        let sink = TraceSink::new(16);
        sink.set_enabled(true);
        // 1s latency = 1e9 ns -> bucket floor(log2(1e9)) = 29.
        record_into(&sink, rec(OpKind::Write, 8, 0.0, 1.0));
        let h = sim_op(&sink, OpKind::Write).unwrap().hist;
        assert_eq!(h[29], 1);
        assert_eq!(h.iter().sum::<u64>(), 1);
    }
}
