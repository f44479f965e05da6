//! Interception counters and the shim's hook into the unified trace layer.
//!
//! LDPLFS's value proposition is transparency; these counters let tests and
//! users verify *what* was intercepted versus passed through to the real
//! POSIX layer (the paper's Figure 2 control flow, made observable). The
//! counters stay relaxed atomics so the hot path is a couple of adds; the
//! richer per-op records (path, bytes, latency) go through
//! [`iotrace::global`] under the [`iotrace::Layer::Shim`] layer, using the
//! [`OpClass::kind`] mapping below, and cost nothing while tracing is off.

use std::sync::atomic::{AtomicU64, Ordering};

/// Classes of POSIX operations the shim counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// `open`
    Open,
    /// `read`/`pread`
    Read,
    /// `write`/`pwrite`
    Write,
    /// `lseek`
    Seek,
    /// `close`
    Close,
    /// Everything else (stat, unlink, mkdir, …)
    Meta,
}

impl OpClass {
    /// The unified trace-schema op kind this class maps to (what shim
    /// records are tagged with in JSONL output and `snapshot()` aggregates).
    pub fn kind(self) -> iotrace::OpKind {
        match self {
            OpClass::Open => iotrace::OpKind::Open,
            OpClass::Read => iotrace::OpKind::Read,
            OpClass::Write => iotrace::OpKind::Write,
            OpClass::Seek => iotrace::OpKind::Seek,
            OpClass::Close => iotrace::OpKind::Close,
            OpClass::Meta => iotrace::OpKind::Meta,
        }
    }
}

const CLASSES: usize = 6;

/// Per-class intercepted/passthrough counters. Cheap (relaxed atomics) and
/// shared by reference from the shim.
#[derive(Debug, Default)]
pub struct ShimStats {
    intercepted: [AtomicU64; CLASSES],
    passthrough: [AtomicU64; CLASSES],
}

impl ShimStats {
    /// Record an operation retargeted to PLFS.
    pub fn hit(&self, op: OpClass) {
        // relaxed: monotonic op counters; totals are read statistically, never for synchronization
        self.intercepted[op as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Record an operation forwarded to the underlying layer.
    pub fn miss(&self, op: OpClass) {
        // relaxed: monotonic op counters; totals are read statistically, never for synchronization
        self.passthrough[op as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Count of intercepted operations of a class.
    pub fn intercepted(&self, op: OpClass) -> u64 {
        // relaxed: statistical read of a monotonic counter
        self.intercepted[op as usize].load(Ordering::Relaxed)
    }

    /// Count of passed-through operations of a class.
    pub fn passthrough(&self, op: OpClass) -> u64 {
        // relaxed: statistical read of a monotonic counter
        self.passthrough[op as usize].load(Ordering::Relaxed)
    }

    /// Total intercepted operations.
    pub fn total_intercepted(&self) -> u64 {
        self.intercepted
            .iter()
            // relaxed: summing a snapshot; torn cross-counter views are acceptable
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }

    /// Total passed-through operations.
    pub fn total_passthrough(&self) -> u64 {
        self.passthrough
            .iter()
            // relaxed: summing a snapshot; torn cross-counter views are acceptable
            .map(|a| a.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_independently() {
        let s = ShimStats::default();
        s.hit(OpClass::Open);
        s.hit(OpClass::Write);
        s.hit(OpClass::Write);
        s.miss(OpClass::Open);
        assert_eq!(s.intercepted(OpClass::Open), 1);
        assert_eq!(s.intercepted(OpClass::Write), 2);
        assert_eq!(s.passthrough(OpClass::Open), 1);
        assert_eq!(s.total_intercepted(), 3);
        assert_eq!(s.total_passthrough(), 1);
    }
}
