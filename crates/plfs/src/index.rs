//! Index records and the global index.
//!
//! PLFS turns every application `write()` into a log append plus an *index
//! record* describing where the bytes logically belong. Each writer process
//! owns an index dropping; reading the container back requires merging every
//! index dropping into a *global index* that maps logical byte ranges to
//! `(dropping, physical offset)` pairs, resolving overlaps so that the most
//! recent write wins.
//!
//! On-disk record format (little-endian, 48 bytes):
//!
//! ```text
//! magic: u32 | dropping_id: u32 | logical_offset: u64 | length: u64
//! physical_offset: u64 | timestamp: u64 | pid: u64
//! ```

use crate::error::{Error, Result};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Once;

/// Size of one serialized index record in bytes.
pub const RECORD_SIZE: usize = 48;
/// Magic prefix of a plain index record.
pub const RECORD_MAGIC: u32 = 0x504c_4653; // "PLFS"
/// Magic prefix of a pattern record (a compressed run of strided writes).
pub const PATTERN_MAGIC: u32 = 0x504c_4650; // "PLFP"

/// Highest valid file offset (POSIX `off_t` is a signed 64-bit quantity).
/// Decode rejects any record whose logical or physical span crosses this —
/// unchecked arithmetic on such a record would wrap in release builds and
/// silently corrupt newest-wins overlap resolution.
pub const OFFSET_MAX: u64 = i64::MAX as u64;

/// Upper bound on `PatternRecord::count` accepted at decode time. A run of
/// a million writes from one flush is far beyond anything the writer emits
/// (index buffers cap runs first); without the bound, a single corrupt
/// 48-byte record claiming `count == u32::MAX` would make the eager
/// expansion path allocate ~200 GB.
pub const MAX_PATTERN_COUNT: u32 = 1 << 20;

/// Both the logical and physical span of `e` stay within `off_t` range.
fn fits_off_t(e: &IndexEntry) -> bool {
    e.logical_offset
        .checked_add(e.length)
        .is_some_and(|end| end <= OFFSET_MAX)
        && e.physical_offset
            .checked_add(e.length)
            .is_some_and(|end| end <= OFFSET_MAX)
}

/// Process-wide write timestamp source: overlapping writes resolve
/// newest-stamp-wins at merge time, across processes too.
///
/// Seeded once, on first use, from `CLOCK_REALTIME` nanoseconds (what the C
/// library stamps records with), then `+1` per write — so a process that
/// starts writing after another finished stamps above everything the
/// earlier one wrote, while stamps inside one process stay dense and
/// deterministic (the consecutive-stamp rule of [`encode_compressed`]).
/// [`observe_timestamp`] is the Lamport step that covers a clock stepped
/// backwards or skewed between hosts.
static WRITE_CLOCK: AtomicU64 = AtomicU64::new(1);
static WRITE_CLOCK_SEED: Once = Once::new();

/// Largest stamp the Lamport step will chase. A stamp beyond this is no
/// plausible wall-clock reading (year 2262); following a corrupt record
/// there would leave the clock one write away from wrapping to zero.
const TIMESTAMP_MAX: u64 = i64::MAX as u64;

/// Take the next write timestamp.
pub fn next_timestamp() -> u64 {
    WRITE_CLOCK_SEED.call_once(|| {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos().min(TIMESTAMP_MAX as u128) as u64);
        observe_timestamp(now);
    });
    // relaxed: logical write clock: only uniqueness/monotonicity of the atomic add matters, never cross-thread ordering
    WRITE_CLOCK.fetch_add(1, Ordering::Relaxed)
}

/// Lamport step: advance the write clock past `seen`, the largest stamp of
/// a merged view just built, so that this process's later writes win over
/// everything the view holds on the *next* fresh merge as well — which is
/// what an in-place patched view (insertion order) already shows.
pub fn observe_timestamp(seen: u64) {
    // relaxed: a monotonic max on the logical clock; no other data is published through it
    WRITE_CLOCK.fetch_max(seen.min(TIMESTAMP_MAX) + 1, Ordering::Relaxed);
}

/// One write, as recorded in an index dropping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// Offset of the write in the logical file.
    pub logical_offset: u64,
    /// Number of bytes written.
    pub length: u64,
    /// Offset of the bytes within the data dropping.
    pub physical_offset: u64,
    /// Which data dropping holds the bytes (index into the container's
    /// dropping table, assigned at merge time or by the writer).
    pub dropping_id: u32,
    /// Monotonic stamp used to resolve overlapping writes.
    pub timestamp: u64,
    /// Writer pid (diagnostic; preserved on disk like the C library does).
    pub pid: u64,
}

impl IndexEntry {
    /// Logical end offset (exclusive).
    pub fn logical_end(&self) -> u64 {
        self.logical_offset + self.length
    }

    /// Serialize into the fixed on-disk representation.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.dropping_id.to_le_bytes());
        out.extend_from_slice(&self.logical_offset.to_le_bytes());
        out.extend_from_slice(&self.length.to_le_bytes());
        out.extend_from_slice(&self.physical_offset.to_le_bytes());
        out.extend_from_slice(&self.timestamp.to_le_bytes());
        out.extend_from_slice(&self.pid.to_le_bytes());
    }

    /// Parse one record from a 48-byte slice.
    pub fn decode(buf: &[u8]) -> Result<IndexEntry> {
        if buf.len() < RECORD_SIZE {
            return Err(Error::Corrupt(format!(
                "short index record: {} bytes",
                buf.len()
            )));
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if magic != RECORD_MAGIC {
            return Err(Error::Corrupt(format!("bad index magic {magic:#x}")));
        }
        let e = IndexEntry {
            dropping_id: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            logical_offset: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            length: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            physical_offset: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
            timestamp: u64::from_le_bytes(buf[32..40].try_into().unwrap()),
            pid: u64::from_le_bytes(buf[40..48].try_into().unwrap()),
        };
        if !fits_off_t(&e) {
            return Err(Error::Corrupt(format!(
                "index record span out of off_t range: logical {} + {} bytes",
                e.logical_offset, e.length
            )));
        }
        Ok(e)
    }

    /// Parse a whole index dropping, expanding pattern records.
    pub fn decode_all(buf: &[u8]) -> Result<Vec<IndexEntry>> {
        if !buf.len().is_multiple_of(RECORD_SIZE) {
            return Err(Error::Corrupt(format!(
                "index dropping length {} not a record multiple",
                buf.len()
            )));
        }
        let mut out = Vec::with_capacity(buf.len() / RECORD_SIZE);
        for rec in buf.chunks_exact(RECORD_SIZE) {
            let magic = u32::from_le_bytes(rec[0..4].try_into().unwrap());
            match magic {
                RECORD_MAGIC => out.push(IndexEntry::decode(rec)?),
                PATTERN_MAGIC => PatternRecord::decode(rec)?.expand_into(&mut out),
                other => return Err(Error::Corrupt(format!("bad index magic {other:#x}"))),
            }
        }
        Ok(out)
    }
}

/// A compressed run of `count` strided writes: write `i` covers
/// `[logical_start + i·stride, +length)` from physically contiguous log
/// bytes at `physical_start + i·length`, with consecutive timestamps
/// `ts_start + i`. Detected at index-flush time (see `writer`); this is the
/// core idea of Pattern-PLFS, and it keeps strided checkpoint indices
/// (BT/FLASH shapes) O(1) per writer instead of O(writes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternRecord {
    /// Data dropping (local id; renumbered at merge like plain records).
    pub dropping_id: u32,
    /// Logical offset of the first write.
    pub logical_start: u64,
    /// Physical offset of the first write.
    pub physical_start: u64,
    /// Timestamp of the first write.
    pub ts_start: u64,
    /// Bytes per write.
    pub length: u32,
    /// Logical distance between consecutive write starts.
    pub stride: u32,
    /// Number of writes in the run.
    pub count: u32,
    /// Writer pid.
    pub pid: u32,
}

impl PatternRecord {
    /// Serialize (48 bytes, same framing as plain records).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&PATTERN_MAGIC.to_le_bytes());
        out.extend_from_slice(&self.dropping_id.to_le_bytes());
        out.extend_from_slice(&self.logical_start.to_le_bytes());
        out.extend_from_slice(&self.physical_start.to_le_bytes());
        out.extend_from_slice(&self.ts_start.to_le_bytes());
        out.extend_from_slice(&self.length.to_le_bytes());
        out.extend_from_slice(&self.stride.to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.pid.to_le_bytes());
    }

    /// Parse one pattern record.
    pub fn decode(buf: &[u8]) -> Result<PatternRecord> {
        if buf.len() < RECORD_SIZE {
            return Err(Error::Corrupt("short pattern record".into()));
        }
        let magic = u32::from_le_bytes(buf[0..4].try_into().unwrap());
        if magic != PATTERN_MAGIC {
            return Err(Error::Corrupt(format!("bad pattern magic {magic:#x}")));
        }
        let rec = PatternRecord {
            dropping_id: u32::from_le_bytes(buf[4..8].try_into().unwrap()),
            logical_start: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            physical_start: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
            ts_start: u64::from_le_bytes(buf[24..32].try_into().unwrap()),
            length: u32::from_le_bytes(buf[32..36].try_into().unwrap()),
            stride: u32::from_le_bytes(buf[36..40].try_into().unwrap()),
            count: u32::from_le_bytes(buf[40..44].try_into().unwrap()),
            pid: u32::from_le_bytes(buf[44..48].try_into().unwrap()),
        };
        if rec.count == 0 || rec.length == 0 {
            return Err(Error::Corrupt("degenerate pattern record".into()));
        }
        if rec.count > MAX_PATTERN_COUNT {
            return Err(Error::Corrupt(format!(
                "pattern count {} exceeds the {} expansion cap",
                rec.count, MAX_PATTERN_COUNT
            )));
        }
        // Every expanded entry must stay inside off_t range, and none of the
        // expansion arithmetic may wrap: check the *last* write of the run,
        // which has the largest logical, physical, and timestamp values.
        let (count, stride, length) = (rec.count as u64, rec.stride as u64, rec.length as u64);
        let logical_span_ok = (count - 1)
            .checked_mul(stride)
            .and_then(|span| span.checked_add(rec.logical_start))
            .and_then(|last| last.checked_add(length))
            .is_some_and(|end| end <= OFFSET_MAX);
        let physical_span_ok = count
            .checked_mul(length)
            .and_then(|span| span.checked_add(rec.physical_start))
            .is_some_and(|end| end <= OFFSET_MAX);
        let stride_span_ok = count
            .checked_mul(stride)
            .is_some_and(|span| span <= OFFSET_MAX);
        let ts_ok = rec.ts_start.checked_add(count - 1).is_some();
        if !(logical_span_ok && physical_span_ok && stride_span_ok && ts_ok) {
            return Err(Error::Corrupt(format!(
                "pattern record span out of off_t range: start {} stride {} count {} length {}",
                rec.logical_start, rec.stride, rec.count, rec.length
            )));
        }
        Ok(rec)
    }

    /// The `i`-th write of the run as a plain entry (`i < count`; decode
    /// validation guarantees none of this arithmetic wraps).
    pub fn entry_at(&self, i: u64) -> IndexEntry {
        IndexEntry {
            logical_offset: self.logical_start + i * self.stride as u64,
            length: self.length as u64,
            physical_offset: self.physical_start + i * self.length as u64,
            dropping_id: self.dropping_id,
            timestamp: self.ts_start + i,
            pid: self.pid as u64,
        }
    }

    /// Expand into the equivalent plain entries.
    pub fn expand_into(&self, out: &mut Vec<IndexEntry>) {
        out.reserve(self.count as usize);
        for i in 0..self.count as u64 {
            out.push(self.entry_at(i));
        }
    }
}

/// Encode a batch of entries, pattern-compressing maximal strided runs
/// (≥ `min_run` entries with equal lengths, constant logical stride,
/// physically contiguous log positions, and consecutive timestamps — the
/// exact conditions under which expansion is lossless). Returns the number
/// of on-disk records emitted.
pub fn encode_compressed(entries: &[IndexEntry], min_run: usize, out: &mut Vec<u8>) -> usize {
    let mut records = 0;
    let mut i = 0;
    while i < entries.len() {
        let base = &entries[i];
        // Grow the run while the pattern conditions hold. The off_t-range
        // guards keep every emitted pattern decodable: decode rejects spans
        // past OFFSET_MAX, so an entry outside that range must stay plain.
        let mut run = 1usize;
        let mut stride: Option<u64> = None;
        while i + run < entries.len() && run < MAX_PATTERN_COUNT as usize {
            let prev = &entries[i + run - 1];
            let next = &entries[i + run];
            let this_stride = next.logical_offset.wrapping_sub(prev.logical_offset);
            let ok = next.length == base.length
                && next.dropping_id == base.dropping_id
                && next.pid == base.pid
                && base.pid <= u32::MAX as u64
                && next.timestamp == prev.timestamp + 1
                && next.physical_offset == prev.physical_offset + prev.length
                && this_stride <= u32::MAX as u64
                && base.length <= u32::MAX as u64
                && next.logical_offset >= prev.logical_offset
                && fits_off_t(base)
                && fits_off_t(next)
                && stride.is_none_or(|s| s == this_stride);
            if !ok {
                break;
            }
            stride = Some(this_stride);
            run += 1;
        }
        // A 1-entry "run" is never a pattern — it used to be emitted with
        // stride 0 when min_run <= 1, which decode rightly treats as
        // suspect; a single write is byte-identical cost as a plain record.
        if run >= min_run.max(2) {
            PatternRecord {
                dropping_id: base.dropping_id,
                logical_start: base.logical_offset,
                physical_start: base.physical_offset,
                ts_start: base.timestamp,
                length: base.length as u32,
                stride: stride.expect("a run of >= 2 entries fixes the stride") as u32,
                count: run as u32,
                pid: base.pid as u32,
            }
            .encode(out);
            records += 1;
            i += run;
        } else {
            base.encode(out);
            records += 1;
            i += 1;
        }
    }
    records
}

/// A contiguous logical extent resolved to one data dropping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSlice {
    /// Logical start offset of this slice.
    pub logical_offset: u64,
    /// Length of the slice in bytes.
    pub length: u64,
    /// Data dropping that holds the slice, or `None` for a hole (zeros).
    pub dropping_id: Option<u32>,
    /// Physical offset within the dropping (meaningless for holes).
    pub physical_offset: u64,
}

/// Segment stored in the interval map: the winning entry for a logical range.
#[derive(Debug, Clone, Copy)]
struct Segment {
    end: u64,
    dropping_id: u32,
    // Physical offset corresponding to the segment *start*.
    physical_offset: u64,
    timestamp: u64,
}

/// The merged, overlap-resolved view of every index dropping in a container.
///
/// Internally a `BTreeMap<start, Segment>` of disjoint extents. Entries are
/// inserted newest-wins: an entry only claims the parts of its range not
/// already claimed by a newer entry.
///
/// # Residency
///
/// A `GlobalIndex` is O(expanded writes) resident: building one expands
/// every pattern record back into plain entries.
#[derive(Debug, Default, Clone)]
pub struct GlobalIndex {
    map: BTreeMap<u64, Segment>,
    eof: u64,
    entries: usize,
    max_ts: u64,
}

impl GlobalIndex {
    /// Build from raw entries in any order, one newest-wins insert at a
    /// time. The reference [`GlobalIndex::from_sorted_runs`] is tested
    /// against; every open in this crate goes through that one.
    pub fn from_entries(mut entries: Vec<IndexEntry>) -> GlobalIndex {
        // Sort oldest-first so later inserts (newer writes) overwrite earlier.
        entries.sort_by_key(|e| e.timestamp);
        let mut idx = GlobalIndex::default();
        for e in entries {
            idx.insert(e);
        }
        idx
    }

    /// Build from per-dropping entry runs, producing a result identical to
    /// `from_entries(runs.concat())`.
    ///
    /// When no two entries overlap — the common case for N-1 checkpoints,
    /// where each rank owns disjoint ranges — the result does not depend on
    /// timestamp order at all, so the bulk build is tried on the runs as
    /// they come. Only on overlap is the order paid for: `from_entries`
    /// stable-sorts the concatenation by timestamp, so ties resolve in
    /// concatenation order (run index, then position within the run), and
    /// the fallback reproduces that exactly with a k-way merge — each run
    /// is stable-sorted on its own (a no-op for writer-produced droppings,
    /// whose timestamps are already non-decreasing), then merged through a
    /// min-heap whose tie-break is the run index — feeding the incremental
    /// newest-wins insert.
    pub fn from_sorted_runs(runs: Vec<Vec<IndexEntry>>) -> GlobalIndex {
        if let Some(idx) = GlobalIndex::bulk_build(runs.iter().flatten()) {
            return idx;
        }
        let mut idx = GlobalIndex::default();
        for e in merge_runs_by_timestamp(runs) {
            idx.insert(e);
        }
        idx
    }

    /// Try to build directly from entries in any order without the
    /// per-insert overlap machinery. Succeeds only when no two entries
    /// overlap logically, in which case the segment map is just the entries
    /// sorted by logical offset with adjacent contiguous extents coalesced —
    /// byte-identical to what incremental insertion would produce, built in
    /// one linear pass instead of O(log n) map surgery per entry.
    fn bulk_build<'a>(entries: impl Iterator<Item = &'a IndexEntry>) -> Option<GlobalIndex> {
        let mut order: Vec<&IndexEntry> = entries.filter(|e| e.length > 0).collect();
        // Unstable sort is fine: equal offsets with nonzero lengths overlap,
        // which sends us to the fallback before order matters.
        order.sort_unstable_by_key(|e| e.logical_offset);
        if order
            .windows(2)
            .any(|w| w[1].logical_offset < w[0].logical_end())
        {
            return None;
        }
        let raw = order.len();
        let mut segs: Vec<(u64, Segment)> = Vec::new();
        let mut eof = 0u64;
        let mut max_ts = 0u64;
        for e in order {
            eof = eof.max(e.logical_end());
            max_ts = max_ts.max(e.timestamp);
            if let Some((s, seg)) = segs.last_mut() {
                let contiguous = seg.end == e.logical_offset
                    && seg.dropping_id == e.dropping_id
                    && seg.physical_offset + (seg.end - *s) == e.physical_offset;
                if contiguous {
                    seg.end = e.logical_end();
                    seg.timestamp = seg.timestamp.max(e.timestamp);
                    continue;
                }
            }
            segs.push((
                e.logical_offset,
                Segment {
                    end: e.logical_end(),
                    dropping_id: e.dropping_id,
                    physical_offset: e.physical_offset,
                    timestamp: e.timestamp,
                },
            ));
        }
        Some(GlobalIndex {
            // Sorted input: the map is built in one pass, not key by key.
            map: segs.into_iter().collect(),
            eof,
            entries: raw,
            max_ts,
        })
    }

    /// Number of raw entries merged in.
    pub fn raw_entries(&self) -> usize {
        self.entries
    }

    /// Number of disjoint segments after merging.
    pub fn segments(&self) -> usize {
        self.map.len()
    }

    /// Logical end-of-file: one past the highest byte ever written.
    pub fn eof(&self) -> u64 {
        self.eof
    }

    /// Largest timestamp merged in (0 for an empty index): what
    /// [`observe_timestamp`] must pass for later writes to win a re-merge.
    pub fn max_timestamp(&self) -> u64 {
        self.max_ts
    }

    /// Approximate resident heap footprint of the segment map.
    pub fn approx_resident_bytes(&self) -> usize {
        self.map.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<Segment>())
    }

    /// Insert one entry, letting it overwrite any older overlapping extents.
    ///
    /// Entries must be inserted in non-decreasing timestamp order (the write
    /// path appends monotonically; [`GlobalIndex::from_entries`] sorts).
    pub fn insert(&mut self, e: IndexEntry) {
        if e.length == 0 {
            return;
        }
        self.entries += 1;
        self.eof = self.eof.max(e.logical_end());
        self.max_ts = self.max_ts.max(e.timestamp);
        let (start, end) = (e.logical_offset, e.logical_end());

        // Find segments overlapping [start, end) and cut them.
        // Candidates begin at the last segment starting at or before `start`.
        let mut to_fix: Vec<(u64, Segment)> = Vec::new();
        if let Some((&s, seg)) = self.map.range(..=start).next_back() {
            if seg.end > start {
                to_fix.push((s, *seg));
            }
        }
        for (&s, seg) in self.map.range(start..end) {
            if !to_fix.iter().any(|(ts, _)| *ts == s) {
                to_fix.push((s, *seg));
            }
        }
        for (s, seg) in to_fix {
            self.map.remove(&s);
            if s < start {
                // Keep the left remnant.
                self.map.insert(s, Segment { end: start, ..seg });
            }
            if seg.end > end {
                // Keep the right remnant, adjusting its physical offset.
                let delta = end - s;
                self.map.insert(
                    end,
                    Segment {
                        end: seg.end,
                        dropping_id: seg.dropping_id,
                        physical_offset: seg.physical_offset + delta,
                        timestamp: seg.timestamp,
                    },
                );
            }
        }
        self.map.insert(
            start,
            Segment {
                end,
                dropping_id: e.dropping_id,
                physical_offset: e.physical_offset,
                timestamp: e.timestamp,
            },
        );
        self.coalesce_around(start);
    }

    /// Merge physically- and logically-adjacent segments from the same
    /// dropping, which keeps the map compact for sequential writes.
    fn coalesce_around(&mut self, start: u64) {
        let seg = match self.map.get(&start) {
            Some(s) => *s,
            None => return,
        };
        // Try to merge with the predecessor.
        if let Some((&ps, pseg)) = self.map.range(..start).next_back() {
            let contiguous = pseg.end == start
                && pseg.dropping_id == seg.dropping_id
                && pseg.physical_offset + (start - ps) == seg.physical_offset;
            if contiguous {
                let merged = Segment {
                    end: seg.end,
                    dropping_id: pseg.dropping_id,
                    physical_offset: pseg.physical_offset,
                    timestamp: seg.timestamp.max(pseg.timestamp),
                };
                self.map.remove(&start);
                self.map.insert(ps, merged);
                self.coalesce_around(ps);
                return;
            }
        }
        // Try to merge with the successor.
        if let Some((&ns, nseg)) = self.map.range(seg.end..).next() {
            let contiguous = ns == seg.end
                && nseg.dropping_id == seg.dropping_id
                && seg.physical_offset + (seg.end - start) == nseg.physical_offset;
            if contiguous {
                let nend = nseg.end;
                let nts = nseg.timestamp;
                self.map.remove(&ns);
                let entry = self.map.get_mut(&start).unwrap();
                entry.end = nend;
                entry.timestamp = entry.timestamp.max(nts);
            }
        }
    }

    /// Resolve a logical byte range into dropping slices, in logical order.
    /// Holes inside EOF come back as `dropping_id: None` (read as zeros);
    /// the returned slices stop at EOF.
    pub fn resolve(&self, offset: u64, length: u64) -> Vec<ChunkSlice> {
        let mut out = Vec::new();
        let end = (offset + length).min(self.eof);
        if offset >= end {
            return out;
        }
        let mut cursor = offset;
        // Start from the last segment beginning at or before the cursor.
        let mut iter_start = cursor;
        if let Some((&s, seg)) = self.map.range(..=cursor).next_back() {
            if seg.end > cursor {
                iter_start = s;
            }
        }
        for (&s, seg) in self.map.range(iter_start..end) {
            if seg.end <= cursor {
                continue;
            }
            if s > cursor {
                // Hole before this segment.
                let hole_end = s.min(end);
                out.push(ChunkSlice {
                    logical_offset: cursor,
                    length: hole_end - cursor,
                    dropping_id: None,
                    physical_offset: 0,
                });
                cursor = hole_end;
                if cursor >= end {
                    break;
                }
            }
            let slice_start = cursor.max(s);
            let slice_end = seg.end.min(end);
            out.push(ChunkSlice {
                logical_offset: slice_start,
                length: slice_end - slice_start,
                dropping_id: Some(seg.dropping_id),
                physical_offset: seg.physical_offset + (slice_start - s),
            });
            cursor = slice_end;
            if cursor >= end {
                break;
            }
        }
        if cursor < end {
            out.push(ChunkSlice {
                logical_offset: cursor,
                length: end - cursor,
                dropping_id: None,
                physical_offset: 0,
            });
        }
        out
    }

    /// Iterate the disjoint segments as index-entry-like tuples
    /// `(logical_offset, length, dropping_id, physical_offset)`.
    pub fn iter_segments(&self) -> impl Iterator<Item = (u64, u64, u32, u64)> + '_ {
        self.map
            .iter()
            .map(|(&s, seg)| (s, seg.end - s, seg.dropping_id, seg.physical_offset))
    }

    /// Truncate the index to `len` logical bytes, dropping or cutting
    /// segments beyond it.
    pub fn truncate(&mut self, len: u64) {
        let cut: Vec<u64> = self.map.range(len..).map(|(&s, _)| s).collect();
        for s in cut {
            self.map.remove(&s);
        }
        if let Some((&s, seg)) = self.map.range_mut(..len).next_back() {
            let _ = s;
            if seg.end > len {
                seg.end = len;
            }
        }
        self.eof = self.eof.min(len);
    }
}

/// Merge per-run entry vectors into one timestamp-sorted stream whose order
/// is identical to stable-sorting the concatenation by timestamp.
///
/// Runs that are not already timestamp-sorted (pattern records interleaved
/// with plain ones can expand out of order) are stable-sorted first; the
/// heap then tie-breaks equal timestamps on the run index, which matches
/// concatenation order.
fn merge_runs_by_timestamp(mut runs: Vec<Vec<IndexEntry>>) -> Vec<IndexEntry> {
    for run in &mut runs {
        if !run.is_sorted_by_key(|e| e.timestamp) {
            run.sort_by_key(|e| e.timestamp);
        }
    }
    if runs.len() == 1 {
        return runs.pop().unwrap();
    }
    let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
    let mut cursors = vec![0usize; runs.len()];
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = runs
        .iter()
        .enumerate()
        .filter(|(_, r)| !r.is_empty())
        .map(|(i, r)| Reverse((r[0].timestamp, i)))
        .collect();
    while let Some(Reverse((_, i))) = heap.pop() {
        let c = cursors[i];
        out.push(runs[i][c]);
        cursors[i] = c + 1;
        if let Some(next) = runs[i].get(c + 1) {
            heap.push(Reverse((next.timestamp, i)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(lo: u64, len: u64, phys: u64, drop_id: u32, ts: u64) -> IndexEntry {
        IndexEntry {
            logical_offset: lo,
            length: len,
            physical_offset: phys,
            dropping_id: drop_id,
            timestamp: ts,
            pid: 7,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let e = entry(10, 20, 30, 4, 55);
        let mut buf = Vec::new();
        e.encode(&mut buf);
        assert_eq!(buf.len(), RECORD_SIZE);
        assert_eq!(IndexEntry::decode(&buf).unwrap(), e);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut buf = Vec::new();
        entry(0, 1, 0, 0, 1).encode(&mut buf);
        buf[0] ^= 0xff;
        assert!(IndexEntry::decode(&buf).is_err());
    }

    #[test]
    fn decode_all_rejects_partial_record() {
        let mut buf = Vec::new();
        entry(0, 1, 0, 0, 1).encode(&mut buf);
        buf.pop();
        assert!(IndexEntry::decode_all(&buf).is_err());
    }

    #[test]
    fn simple_sequential_writes_coalesce() {
        let mut idx = GlobalIndex::default();
        idx.insert(entry(0, 100, 0, 1, 1));
        idx.insert(entry(100, 100, 100, 1, 2));
        assert_eq!(idx.segments(), 1);
        assert_eq!(idx.eof(), 200);
        let slices = idx.resolve(50, 100);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].physical_offset, 50);
        assert_eq!(slices[0].length, 100);
    }

    #[test]
    fn newer_write_shadows_older() {
        let mut idx = GlobalIndex::default();
        idx.insert(entry(0, 100, 0, 1, 1));
        idx.insert(entry(25, 50, 0, 2, 2));
        let slices = idx.resolve(0, 100);
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[0].dropping_id, Some(1));
        assert_eq!(slices[0].length, 25);
        assert_eq!(slices[1].dropping_id, Some(2));
        assert_eq!(slices[1].length, 50);
        assert_eq!(slices[2].dropping_id, Some(1));
        assert_eq!(slices[2].length, 25);
        // Right remnant's physical offset is shifted by the cut.
        assert_eq!(slices[2].physical_offset, 75);
    }

    #[test]
    fn from_entries_sorts_by_timestamp() {
        // Insert newest first; from_entries must still let it win.
        let idx = GlobalIndex::from_entries(vec![entry(0, 10, 0, 2, 9), entry(0, 10, 0, 1, 1)]);
        let slices = idx.resolve(0, 10);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].dropping_id, Some(2));
    }

    #[test]
    fn holes_resolve_as_none() {
        let mut idx = GlobalIndex::default();
        idx.insert(entry(100, 50, 0, 1, 1));
        let slices = idx.resolve(0, 200);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].dropping_id, None);
        assert_eq!(slices[0].length, 100);
        assert_eq!(slices[1].dropping_id, Some(1));
        // Resolution never extends past EOF.
        assert_eq!(slices[1].logical_offset + slices[1].length, 150);
    }

    #[test]
    fn resolve_past_eof_is_empty() {
        let mut idx = GlobalIndex::default();
        idx.insert(entry(0, 10, 0, 1, 1));
        assert!(idx.resolve(10, 5).is_empty());
        assert!(idx.resolve(100, 5).is_empty());
        assert!(idx.resolve(5, 0).is_empty());
    }

    #[test]
    fn overwrite_spanning_many_segments() {
        let mut idx = GlobalIndex::default();
        for i in 0..10 {
            idx.insert(entry(i * 10, 10, i * 10, (i % 3) as u32, i + 1));
        }
        idx.insert(entry(5, 90, 0, 9, 100));
        let slices = idx.resolve(0, 100);
        assert_eq!(slices.len(), 3);
        assert_eq!(slices[1].dropping_id, Some(9));
        assert_eq!(slices[1].length, 90);
        assert_eq!(idx.eof(), 100);
    }

    #[test]
    fn truncate_cuts_and_caps_eof() {
        let mut idx = GlobalIndex::default();
        idx.insert(entry(0, 100, 0, 1, 1));
        idx.insert(entry(200, 50, 100, 1, 2));
        idx.truncate(60);
        assert_eq!(idx.eof(), 60);
        let slices = idx.resolve(0, 1000);
        assert_eq!(slices.len(), 1);
        assert_eq!(slices[0].length, 60);
    }

    #[test]
    fn zero_length_entries_ignored() {
        let mut idx = GlobalIndex::default();
        idx.insert(entry(10, 0, 0, 1, 1));
        assert_eq!(idx.segments(), 0);
        assert_eq!(idx.eof(), 0);
    }

    #[test]
    fn pattern_record_roundtrip() {
        let pr = PatternRecord {
            dropping_id: 3,
            logical_start: 1000,
            physical_start: 0,
            ts_start: 50,
            length: 64,
            stride: 256,
            count: 10,
            pid: 42,
        };
        let mut buf = Vec::new();
        pr.encode(&mut buf);
        assert_eq!(buf.len(), RECORD_SIZE);
        assert_eq!(PatternRecord::decode(&buf).unwrap(), pr);
        let mut entries = Vec::new();
        pr.expand_into(&mut entries);
        assert_eq!(entries.len(), 10);
        assert_eq!(entries[0].logical_offset, 1000);
        assert_eq!(entries[9].logical_offset, 1000 + 9 * 256);
        assert_eq!(entries[9].physical_offset, 9 * 64);
        assert_eq!(entries[9].timestamp, 59);
    }

    #[test]
    fn encode_compressed_losslessly_roundtrips() {
        // A strided run sandwiched between irregular writes.
        let mut entries = vec![entry(5000, 13, 0, 1, 1)];
        for i in 0..20u64 {
            entries.push(IndexEntry {
                logical_offset: i * 300,
                length: 100,
                physical_offset: 13 + i * 100,
                dropping_id: 1,
                timestamp: 2 + i,
                pid: 7,
            });
        }
        entries.push(entry(9000, 5, 2013, 1, 22));
        let mut buf = Vec::new();
        let records = encode_compressed(&entries, 3, &mut buf);
        assert_eq!(records, 3, "plain + pattern + plain");
        assert_eq!(buf.len(), 3 * RECORD_SIZE);
        let back = IndexEntry::decode_all(&buf).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn short_runs_stay_plain() {
        let entries = vec![entry(0, 10, 0, 1, 1), entry(100, 10, 10, 1, 2)];
        let mut buf = Vec::new();
        let records = encode_compressed(&entries, 3, &mut buf);
        assert_eq!(records, 2);
        assert_eq!(IndexEntry::decode_all(&buf).unwrap(), entries);
    }

    #[test]
    fn pattern_decode_rejects_degenerate() {
        let pr = PatternRecord {
            dropping_id: 0,
            logical_start: 0,
            physical_start: 0,
            ts_start: 0,
            length: 0,
            stride: 0,
            count: 1,
            pid: 0,
        };
        let mut buf = Vec::new();
        pr.encode(&mut buf);
        assert!(PatternRecord::decode(&buf).is_err());
    }

    #[test]
    fn timestamps_are_monotonic() {
        let a = next_timestamp();
        let b = next_timestamp();
        assert!(b > a);
    }

    /// Full structural equality, including the timestamps the public
    /// iterator hides.
    fn assert_identical(a: &GlobalIndex, b: &GlobalIndex) {
        assert_eq!(a.eof, b.eof, "eof");
        assert_eq!(a.entries, b.entries, "raw entry count");
        let dump = |g: &GlobalIndex| {
            g.map
                .iter()
                .map(|(&s, seg)| {
                    (
                        s,
                        seg.end,
                        seg.dropping_id,
                        seg.physical_offset,
                        seg.timestamp,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(dump(a), dump(b), "segment maps differ");
    }

    #[test]
    fn sorted_runs_match_concat_on_disjoint_entries() {
        // Disjoint ranges: exercises the bulk-build fast path.
        let runs: Vec<Vec<IndexEntry>> = (0..4u64)
            .map(|r| {
                (0..8u64)
                    .map(|i| entry(r * 1000 + i * 100, 100, i * 100, r as u32, r * 8 + i + 1))
                    .collect()
            })
            .collect();
        let serial = GlobalIndex::from_entries(runs.concat());
        let merged = GlobalIndex::from_sorted_runs(runs);
        assert_identical(&merged, &serial);
        assert_eq!(merged.segments(), 4, "per-run entries coalesce");
    }

    #[test]
    fn sorted_runs_match_concat_on_overlaps() {
        // Later run overwrites earlier ranges: forces the incremental path.
        let runs = vec![
            vec![entry(0, 100, 0, 0, 1), entry(100, 100, 100, 0, 2)],
            vec![entry(50, 100, 0, 1, 3)],
            vec![entry(25, 10, 0, 2, 4), entry(180, 40, 10, 2, 5)],
        ];
        let serial = GlobalIndex::from_entries(runs.concat());
        let merged = GlobalIndex::from_sorted_runs(runs);
        assert_identical(&merged, &serial);
    }

    #[test]
    fn sorted_runs_tie_break_matches_stable_sort() {
        // Equal timestamps across runs: stable sort of the concatenation
        // keeps run 0 before run 1, so run 1 (inserted later) wins the range.
        let runs = vec![
            vec![entry(0, 10, 0, 0, 5), entry(0, 10, 64, 0, 5)],
            vec![entry(0, 10, 0, 1, 5)],
        ];
        let serial = GlobalIndex::from_entries(runs.concat());
        let merged = GlobalIndex::from_sorted_runs(runs);
        assert_identical(&merged, &serial);
        assert_eq!(merged.resolve(0, 10)[0].dropping_id, Some(1));
    }

    #[test]
    fn sorted_runs_sort_unsorted_input_runs() {
        // A run with out-of-order timestamps (as pattern interleaving can
        // produce) must behave exactly like the concatenated sort.
        let runs = vec![
            vec![entry(0, 50, 0, 0, 9), entry(0, 50, 50, 0, 2)],
            vec![entry(20, 10, 0, 1, 5)],
        ];
        let serial = GlobalIndex::from_entries(runs.concat());
        let merged = GlobalIndex::from_sorted_runs(runs);
        assert_identical(&merged, &serial);
        // ts 9 wins over ts 5 in the overlap.
        assert_eq!(merged.resolve(20, 10)[0].dropping_id, Some(0));
    }

    #[test]
    fn sorted_runs_handle_empty_and_zero_length() {
        let runs = vec![
            vec![],
            vec![entry(10, 0, 0, 0, 1), entry(100, 10, 0, 0, 2)],
            vec![],
            vec![entry(0, 10, 0, 1, 3)],
        ];
        let serial = GlobalIndex::from_entries(runs.concat());
        let merged = GlobalIndex::from_sorted_runs(runs);
        assert_identical(&merged, &serial);
        assert_eq!(merged.raw_entries(), 2, "zero-length entries don't count");
        let empty = GlobalIndex::from_sorted_runs(Vec::new());
        assert_identical(&empty, &GlobalIndex::default());
    }

    #[test]
    fn decode_rejects_off_t_overflow_entry() {
        // Regression: logical_offset + length wraps u64 / exceeds i64::MAX.
        for (lo, len, phys) in [
            (u64::MAX - 8, 16, 0),   // logical end wraps u64
            (OFFSET_MAX - 4, 16, 0), // logical end past off_t
            (OFFSET_MAX, 1, 0),      // start at off_t limit
            (0, 16, u64::MAX - 8),   // physical end wraps
            (0, 16, OFFSET_MAX - 4), // physical end past off_t
        ] {
            let e = IndexEntry {
                logical_offset: lo,
                length: len,
                physical_offset: phys,
                dropping_id: 1,
                timestamp: 1,
                pid: 7,
            };
            let mut buf = Vec::new();
            e.encode(&mut buf);
            let err = IndexEntry::decode(&buf).unwrap_err();
            assert!(
                matches!(err, Error::Corrupt(_)),
                "({lo}, {len}, {phys}) must be Corrupt, got {err:?}"
            );
        }
        // The boundary itself is fine: end == OFFSET_MAX.
        let mut buf = Vec::new();
        entry(OFFSET_MAX - 16, 16, 0, 1, 1).encode(&mut buf);
        assert!(IndexEntry::decode(&buf).is_ok());
    }

    #[test]
    fn pattern_decode_rejects_hostile_counts_and_spans() {
        let base = PatternRecord {
            dropping_id: 0,
            logical_start: 0,
            physical_start: 0,
            ts_start: 1,
            length: 64,
            stride: 256,
            count: 4,
            pid: 7,
        };
        let reject = |p: PatternRecord| {
            let mut buf = Vec::new();
            p.encode(&mut buf);
            let err = PatternRecord::decode(&buf).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{p:?} → {err:?}");
        };
        // A single corrupt record claiming u32::MAX writes must not trigger
        // a ~200 GB expansion allocation.
        reject(PatternRecord {
            count: u32::MAX,
            ..base
        });
        reject(PatternRecord {
            count: MAX_PATTERN_COUNT + 1,
            ..base
        });
        // Logical span past off_t.
        reject(PatternRecord {
            logical_start: OFFSET_MAX - 100,
            ..base
        });
        // Logical span that wraps u64 via (count-1)*stride.
        reject(PatternRecord {
            stride: u32::MAX,
            count: MAX_PATTERN_COUNT,
            logical_start: u64::MAX - 1000,
            ..base
        });
        // Physical span past off_t.
        reject(PatternRecord {
            physical_start: OFFSET_MAX - 10,
            ..base
        });
        // Timestamp wrap.
        reject(PatternRecord {
            ts_start: u64::MAX - 1,
            ..base
        });
        // And the unmodified base record is accepted.
        let mut buf = Vec::new();
        base.encode(&mut buf);
        assert_eq!(PatternRecord::decode(&buf).unwrap(), base);
    }

    #[test]
    fn decode_all_survives_corrupt_pattern_without_alloc() {
        // decode_all on a hostile pattern record must error, not OOM/panic.
        let mut buf = Vec::new();
        PatternRecord {
            dropping_id: 0,
            logical_start: 0,
            physical_start: 0,
            ts_start: 1,
            length: 1,
            stride: 1,
            count: u32::MAX,
            pid: 7,
        }
        .encode(&mut buf);
        assert!(matches!(
            IndexEntry::decode_all(&buf),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn min_run_one_single_entry_stays_plain() {
        // Regression: min_run <= 1 used to emit a 1-entry zero-stride
        // pattern (stride.unwrap_or(0)); a lone write must encode exactly
        // like IndexEntry::encode.
        let e = entry(100, 10, 0, 1, 1);
        let mut compressed = Vec::new();
        assert_eq!(encode_compressed(&[e], 1, &mut compressed), 1);
        let mut plain = Vec::new();
        e.encode(&mut plain);
        assert_eq!(compressed, plain, "single entry must be a plain record");
        assert_eq!(IndexEntry::decode_all(&compressed).unwrap(), vec![e]);
    }

    #[test]
    fn zero_stride_multi_entry_pattern_roundtrips() {
        // Repeated overwrites of the same extent are a legal stride-0 run.
        let entries: Vec<IndexEntry> = (0..5u64)
            .map(|i| entry(64, 32, i * 32, 1, 10 + i))
            .collect();
        let mut buf = Vec::new();
        assert_eq!(encode_compressed(&entries, 3, &mut buf), 1);
        assert_eq!(IndexEntry::decode_all(&buf).unwrap(), entries);
    }

    #[test]
    fn encode_compressed_keeps_out_of_range_entries_plain() {
        // Entries whose spans exceed off_t can't be emitted (decode would
        // reject them); encode_compressed must not fold them into patterns.
        let hostile: Vec<IndexEntry> = (0..4u64)
            .map(|i| entry(u64::MAX - 1000 + i * 100, 50, i * 50, 1, 1 + i))
            .collect();
        let mut buf = Vec::new();
        let records = encode_compressed(&hostile, 3, &mut buf);
        assert_eq!(records, 4, "out-of-range entries stay plain");
    }
}
