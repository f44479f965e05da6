//! Index records and the global index.
//!
//! PLFS turns every application `write()` into a log append plus an *index
//! record* describing where the bytes logically belong. Each writer process
//! owns an index dropping; reading the container back requires merging every
//! index dropping into a *global index* that maps logical byte ranges to
//! `(dropping, physical offset)` pairs, resolving overlaps so that the most
//! recent write wins.
//!
//! The global index is a sorted vector of 24-byte extents built in place
//! from the droppings' records, plus a small overlay of newer extents; see
//! [`GlobalIndex`]. One canonical rule keeps an extent's length in 32 bits
//! and makes every way of building a view agree segment for segment: no
//! extent crosses a multiple of 2 GiB in the logical file. Entries are cut
//! there as they enter (decode, [`GlobalIndex::insert`]), and two pieces
//! never join across one.
//!
//! On-disk record format (little-endian, 48 bytes):
//!
//! ```text
//! magic: u32 | dropping_id: u32 | logical_offset: u64 | length: u64
//! physical_offset: u64 | timestamp: u64 | pid: u64
//! ```

use crate::backing::BackingFile;
use crate::error::{Error, Result};
use std::collections::{btree_map, BTreeMap};
use std::iter::Peekable;
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

/// No extent of the merged index crosses a multiple of this logical offset
/// (module docs), so an extent's length fits its `u32`.
const CUT: u64 = 1 << 31;

/// Longest plain record a build accepts: cut at every [`CUT`], a longer one
/// would become more extents than a pattern record may expand into.
const MAX_RECORD_SPAN: u64 = MAX_PATTERN_COUNT as u64 * CUT;

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

/// The write clock, seeded on first use.
fn seeded_clock() -> &'static AtomicU64 {
    WRITE_CLOCK_SEED.call_once(|| {
        let now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos().min(TIMESTAMP_MAX as u128) as u64);
        observe_timestamp(now);
    });
    &WRITE_CLOCK
}

/// Take the next write timestamp.
pub fn next_timestamp() -> u64 {
    // relaxed: logical write clock: only uniqueness/monotonicity of the atomic add matters, never cross-thread ordering
    seeded_clock().fetch_add(1, Ordering::Relaxed)
}

/// The stamp the next write will take, taking none: a stamp equal to a
/// reading taken earlier proves no stamp was taken (nor the clock stepped)
/// in between.
pub fn write_clock() -> u64 {
    // relaxed: a reading of the logical clock; the caller compares it with a later fetch_add's result, which the clock's single modification order makes exact
    seeded_clock().load(Ordering::Relaxed)
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

/// One extent of the merged index: logical `[start, start + len)` is held
/// by data dropping `dropping_id` from `physical_offset` on. 24 bytes; it
/// never crosses a multiple of [`CUT`]. Laid out as a merged index file
/// holds it ([`EXTENT_BYTES`]), so a load reads the file's extents straight
/// into the base.
#[derive(Debug, Default, Clone, Copy)]
#[repr(C)]
struct Extent {
    start: u64,
    physical_offset: u64,
    len: u32,
    dropping_id: u32,
}

/// Bytes of one extent in a merged index file: `start` and
/// `physical_offset` (`u64`), then `len` and `dropping_id` (`u32`),
/// little-endian, with no padding — [`Extent`]'s own layout.
pub(crate) const EXTENT_BYTES: usize = 24;

const _: () = assert!(std::mem::size_of::<Extent>() == EXTENT_BYTES);

impl Extent {
    /// `e` as extents of `dropping_id`, cut at every multiple of [`CUT`] it
    /// crosses: one extent unless it spans a cut.
    fn pieces(e: &IndexEntry, dropping_id: u32) -> impl Iterator<Item = Extent> {
        let (e, end) = (*e, e.logical_end());
        let mut at = e.logical_offset;
        std::iter::from_fn(move || {
            (at < end).then(|| {
                let to = end.min((at | (CUT - 1)).saturating_add(1));
                let x = Extent {
                    start: at,
                    physical_offset: e.physical_offset + (at - e.logical_offset),
                    len: (to - at) as u32,
                    dropping_id,
                };
                at = to;
                x
            })
        })
    }

    /// Logical end (exclusive).
    fn end(&self) -> u64 {
        self.start + self.len as u64
    }

    /// The part of `self` before logical offset `at`, which is past its
    /// start and not past its end.
    fn head_to(self, at: u64) -> Extent {
        Extent {
            len: (at - self.start) as u32,
            ..self
        }
    }

    /// The part of `self` from logical offset `at` on, if `at` is past its
    /// start (and before its end).
    fn tail_from(self, at: u64) -> Extent {
        let cut = at.max(self.start) - self.start;
        Extent {
            start: self.start + cut,
            physical_offset: self.physical_offset + cut,
            len: self.len - cut as u32,
            ..self
        }
    }

    /// Does `next` carry on, byte for byte, where `self` ends — and not
    /// across a cut? The one join test: the builder's coalesce and the
    /// [`Walk`] both use it, so every view is cut in the same places.
    fn continued_by(&self, next: &Extent) -> bool {
        self.end() == next.start
            && !next.start.is_multiple_of(CUT)
            && self.dropping_id == next.dropping_id
            && self.physical_offset + self.len as u64 == next.physical_offset
    }
}

/// The overlay folds into the base past this many extents and an eighth of
/// the base: an insert costs O(log k) plus an amortized O(1) share of a fold.
const FOLD_MIN: usize = 64;

/// The merged, overlap-resolved view of every index dropping in a container.
///
/// The *base* is a vector of disjoint extents sorted by logical offset,
/// built in place by `IndexBuilder` and binary-searched by `resolve`. The
/// *overlay* is a small map that `insert` adds to; all of it is newer than
/// the base, so it wins where the two overlap, and past `max(FOLD_MIN,
/// base / 8)` extents it is folded into the base. Readers of both share one
/// walk that coalesces contiguous pieces, so a patched view and a fresh
/// build compare equal segment for segment.
///
/// # Residency
///
/// O(expanded writes): building one expands every pattern record back into
/// plain entries. A base extent is 24 bytes. A fresh build without overlap
/// keeps the very vector its extents were decoded, sorted and coalesced
/// in; one with overlap grows its base by folds, as a patched view does.
/// The overlay costs an extent and its key per patched extent until it
/// folds.
#[derive(Debug, Default, Clone)]
pub struct GlobalIndex {
    base: Vec<Extent>,
    overlay: BTreeMap<u64, Extent>,
    eof: u64,
    entries: usize,
    max_ts: u64,
}

/// The one way a [`GlobalIndex`] is built from index droppings, in one
/// pass or two. [`IndexBuilder::build`]'s caller feeds a builder every
/// entry, run by run in concatenation order — decoded straight from a
/// dropping's bytes, a window at a time, or taken from a decoded run.
/// Pass 1 keeps each entry as bare 24-byte extents; only when those
/// overlap are they dropped and the entries fed again, as 40-byte items
/// that keep the stamp and order newest-wins needs.
pub(crate) struct IndexBuilder {
    /// Pass 1: the entries' extents.
    extents: Vec<Extent>,
    /// Pass 2: each extent, its entry's stamp and the entry's place in the
    /// concatenation of runs (the stable sort's tie-break).
    items: Vec<(Extent, u64, u32)>,
    /// Pass 2 fills `items`; pass 1 `extents`.
    stamped: bool,
    eof: u64,
    entries: usize,
    max_ts: u64,
}

impl IndexBuilder {
    fn pass(stamped: bool) -> IndexBuilder {
        IndexBuilder {
            extents: Vec::new(),
            items: Vec::new(),
            stamped,
            eof: 0,
            entries: 0,
            max_ts: 0,
        }
    }

    /// Room for exactly `n` more entries (a dropping's or run's record
    /// count), so the vector ends no larger than what it holds. A count no
    /// allocation can cover is not reserved: a dropping that claims it is
    /// corrupt, and its first bad record ends the build.
    pub(crate) fn reserve(&mut self, n: usize) {
        let _ = match self.stamped {
            true => self.items.try_reserve_exact(n),
            false => self.extents.try_reserve_exact(n),
        };
    }

    fn push(&mut self, e: &IndexEntry, dropping_id: u32) -> Result<()> {
        if e.length == 0 {
            return Ok(());
        }
        let Ok(position) = u32::try_from(self.entries) else {
            return Err(Error::Corrupt("more than 2^32 index entries".into()));
        };
        self.entries += 1;
        self.eof = self.eof.max(e.logical_end());
        self.max_ts = self.max_ts.max(e.timestamp);
        let pieces = Extent::pieces(e, dropping_id);
        match self.stamped {
            true => self
                .items
                .extend(pieces.map(|x| (x, e.timestamp, position))),
            false => self.extents.extend(pieces),
        }
        Ok(())
    }

    /// Decode whole index records into the builder, their entries numbered
    /// `dropping_id` (writers store a local id): what
    /// [`IndexEntry::decode_all`] reads, without the vector it returns.
    pub(crate) fn decode(&mut self, buf: &[u8], dropping_id: u32) -> Result<()> {
        let records = buf.chunks_exact(RECORD_SIZE);
        if !records.remainder().is_empty() {
            let n = buf.len();
            return Err(Error::Corrupt(format!(
                "index dropping length {n} not a record multiple"
            )));
        }
        for rec in records {
            match u32::from_le_bytes(rec[0..4].try_into().unwrap()) {
                RECORD_MAGIC => {
                    let e = IndexEntry::decode(rec)?;
                    if e.length > MAX_RECORD_SPAN {
                        return Err(Error::Corrupt(format!(
                            "index record of {} bytes: longer than {MAX_RECORD_SPAN}",
                            e.length
                        )));
                    }
                    self.push(&e, dropping_id)?;
                }
                PATTERN_MAGIC => {
                    let p = PatternRecord::decode(rec)?;
                    for i in 0..p.count as u64 {
                        self.push(&p.entry_at(i), dropping_id)?;
                    }
                }
                other => return Err(Error::Corrupt(format!("bad index magic {other:#x}"))),
            }
        }
        Ok(())
    }

    /// Build a [`GlobalIndex`] from what `feed` pushes into a builder:
    /// once, or twice when the first pass finds overlap.
    ///
    /// Pass 1 sorts the extents by logical offset, in place. Without
    /// overlap the order of the writes does not matter: contiguous extents
    /// coalesce in place and the vector becomes the base. With overlap it
    /// is dropped, and pass 2's items are sorted by `(timestamp, position)`
    /// — exactly the stable timestamp sort of the concatenation that
    /// [`GlobalIndex::from_entries`] defines — and inserted newest-wins.
    /// Each pass counts `eof`, entries and the largest stamp as it is fed.
    pub(crate) fn build(
        mut feed: impl FnMut(&mut IndexBuilder) -> Result<()>,
    ) -> Result<GlobalIndex> {
        let mut pass = IndexBuilder::pass(false);
        feed(&mut pass)?;
        let mut extents = std::mem::take(&mut pass.extents);
        extents.sort_unstable_by_key(|x| x.start);
        if !extents.windows(2).any(|w| w[1].start < w[0].end()) {
            extents.dedup_by(|next, prev| {
                let joined = prev.continued_by(next);
                if joined {
                    prev.len += next.len;
                }
                joined
            });
            extents.shrink_to_fit();
            return Ok(pass.into_index(extents));
        }
        drop(extents);
        let mut pass = IndexBuilder::pass(true);
        feed(&mut pass)?;
        let mut items = std::mem::take(&mut pass.items);
        items.sort_unstable_by_key(|&(_, ts, position)| (ts, position));
        let mut idx = pass.into_index(Vec::new());
        items.into_iter().for_each(|(x, ..)| idx.put(x));
        idx.fold();
        idx.base.shrink_to_fit();
        Ok(idx)
    }

    fn into_index(self, base: Vec<Extent>) -> GlobalIndex {
        GlobalIndex {
            base,
            overlay: BTreeMap::new(),
            eof: self.eof,
            entries: self.entries,
            max_ts: self.max_ts,
        }
    }
}

impl GlobalIndex {
    /// Build from raw entries in any order, one newest-wins insert at a
    /// time. The reference [`GlobalIndex::from_sorted_runs`] is tested
    /// against; every open in this crate goes through the builder.
    pub fn from_entries(mut entries: Vec<IndexEntry>) -> GlobalIndex {
        // Sort oldest-first so later inserts (newer writes) overwrite earlier.
        entries.sort_by_key(|e| e.timestamp);
        let mut idx = GlobalIndex::default();
        for e in entries {
            idx.insert(e);
        }
        idx
    }

    /// Build from per-dropping entry runs through the one builder, producing
    /// a result identical to `from_entries(runs.concat())`.
    pub fn from_sorted_runs(runs: Vec<Vec<IndexEntry>>) -> GlobalIndex {
        let built = IndexBuilder::build(|builder| {
            for run in &runs {
                builder.reserve(run.len());
                run.iter()
                    .try_for_each(|e| builder.push(e, e.dropping_id))?;
            }
            Ok(())
        });
        built.expect("fewer than 2^32 entries in memory")
    }

    /// The view an index of identity records stands for: logical
    /// `[0, eof)` at physical 0 of dropping 0, newest stamp `stamp` — what
    /// merging them builds, counted as one entry. `None` past one record's
    /// span, which only a merge of the records themselves may build.
    pub(crate) fn identity(eof: u64, stamp: u64) -> Option<GlobalIndex> {
        if eof > MAX_RECORD_SPAN {
            return None;
        }
        let e = IndexEntry {
            logical_offset: 0,
            length: eof,
            physical_offset: 0,
            dropping_id: 0,
            timestamp: stamp,
            pid: 0,
        };
        let mut idx = IndexBuilder::pass(false);
        idx.push(&e, 0).ok()?;
        let base = std::mem::take(&mut idx.extents);
        Some(GlobalIndex {
            max_ts: stamp,
            ..idx.into_index(base)
        })
    }

    /// Extents of the base, which is the whole view once the overlay is
    /// empty (a fresh build's is).
    pub(crate) fn base_extents(&self) -> usize {
        self.base.len()
    }

    /// Append the base's extents to `out`, [`EXTENT_BYTES`] each in a
    /// merged index file's layout. Only a view with an empty overlay (a
    /// fresh build) is written.
    pub(crate) fn encode_extents(&self, out: &mut Vec<u8>) {
        debug_assert!(self.overlay.is_empty(), "a fresh build has no overlay");
        out.reserve(self.base.len() * EXTENT_BYTES);
        for x in &self.base {
            out.extend_from_slice(&x.start.to_le_bytes());
            out.extend_from_slice(&x.physical_offset.to_le_bytes());
            out.extend_from_slice(&x.len.to_le_bytes());
            out.extend_from_slice(&x.dropping_id.to_le_bytes());
        }
    }

    /// The view a merged index file holds: its `n` extents, read from `f`
    /// at `at` with one `pread` straight into the vector that keeps them,
    /// each one's dropping number mapped through `ids`, and the counts its
    /// header gives. Checked as it is read: every extent non-empty, inside
    /// `off_t` and one [`CUT`] span, after the one before it, its number in
    /// `ids`; the last ending at `eof`. Anything else — a short read
    /// included — is corrupt.
    pub(crate) fn read_extents(
        f: &dyn BackingFile,
        at: u64,
        n: usize,
        (eof, entries, max_ts): (u64, usize, u64),
        ids: &[u32],
    ) -> Result<GlobalIndex> {
        let corrupt = |what: &str| Error::Corrupt(format!("merged index: {what}"));
        let mut base: Vec<Extent> = Vec::new();
        base.try_reserve_exact(n)
            .map_err(|_| corrupt("extent count past memory"))?;
        base.resize(n, Extent::default());
        // SAFETY: `Extent` is `repr(C)`, 24 bytes of integers with no
        // padding, so its vector is `n * EXTENT_BYTES` initialized bytes
        // and any bytes written there are a valid `Extent`.
        let bytes = unsafe {
            std::slice::from_raw_parts_mut(base.as_mut_ptr().cast::<u8>(), n * EXTENT_BYTES)
        };
        if f.pread(bytes, at)? != bytes.len() {
            return Err(corrupt("short read of its extents"));
        }
        let mut end = 0u64;
        for x in &mut base {
            // No-ops on a little-endian host.
            x.start = u64::from_le(x.start);
            x.physical_offset = u64::from_le(x.physical_offset);
            x.len = u32::from_le(x.len);
            x.dropping_id = *ids
                .get(u32::from_le(x.dropping_id) as usize)
                .ok_or_else(|| corrupt("dropping number out of range"))?;
            let e = IndexEntry {
                logical_offset: x.start,
                length: x.len as u64,
                physical_offset: x.physical_offset,
                dropping_id: x.dropping_id,
                timestamp: 0,
                pid: 0,
            };
            let one_span = x.start / CUT == (x.end().max(1) - 1) / CUT;
            if x.len == 0 || x.start < end || !fits_off_t(&e) || !one_span {
                return Err(corrupt("extents out of order, empty or out of range"));
            }
            end = x.end();
        }
        if end != eof {
            return Err(corrupt("extents do not end at its eof"));
        }
        Ok(GlobalIndex {
            base,
            overlay: BTreeMap::new(),
            eof,
            entries,
            max_ts,
        })
    }

    /// Number of raw entries merged in.
    pub fn raw_entries(&self) -> usize {
        self.entries
    }

    /// Number of disjoint segments after merging.
    pub fn segments(&self) -> usize {
        self.extents(0).count()
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

    /// Approximate resident heap footprint: base allocation plus overlay.
    pub fn approx_resident_bytes(&self) -> usize {
        let extent = std::mem::size_of::<Extent>();
        self.base.capacity() * extent + self.overlay.len() * (std::mem::size_of::<u64>() + extent)
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
        for x in Extent::pieces(&e, e.dropping_id) {
            self.put(x);
        }
    }

    /// Add `x` to the overlay over everything there, then fold if the
    /// overlay has outgrown its bound.
    fn put(&mut self, x: Extent) {
        // The extent that starts before `x` and reaches into it keeps what
        // lies outside `x` on either side.
        let end = x.end();
        if let Some((_, &o)) = self.overlay.range(..x.start).next_back() {
            if o.end() > x.start {
                self.overlay.insert(o.start, o.head_to(x.start));
                if o.end() > end {
                    self.overlay.insert(end, o.tail_from(end));
                }
            }
        }
        // Those starting inside `x` keep only what reaches past its end.
        while let Some((_, &o)) = self.overlay.range(x.start..end).next() {
            self.overlay.remove(&o.start);
            if o.end() > end {
                self.overlay.insert(end, o.tail_from(end));
            }
        }
        self.overlay.insert(x.start, x);
        if self.overlay.len() > FOLD_MIN.max(self.base.len() / 8) {
            self.fold();
        }
    }

    /// Merge the overlay into the base in one linear pass, in place: the
    /// base moves up by twice the overlay's length (each overlay extent adds
    /// at most itself and one cut), and the walk writes from the front,
    /// never past what it has read.
    fn fold(&mut self) {
        let overlay = std::mem::take(&mut self.overlay);
        let (n, slack) = (self.base.len(), 2 * overlay.len());
        self.base.resize(n + slack, Extent::default());
        self.base.copy_within(..n, slack);
        let mut walk = Walk::new(overlay.range(..), slack);
        let mut written = 0;
        while let Some(x) = walk.next(&self.base) {
            debug_assert!(written < walk.next_base, "the fold overtook its input");
            self.base[written] = x;
            written += 1;
        }
        self.base.truncate(written);
    }

    /// The merged walk from logical offset `from` on: every byte from
    /// `from` on is right; extents may begin (even end) before it.
    fn extents(&self, from: u64) -> impl Iterator<Item = Extent> + '_ {
        let first = self.overlay.range(..=from).next_back();
        let first = first.map_or(from, |(&s, _)| s);
        let next_base = self.base.partition_point(|x| x.end() <= from);
        let mut walk = Walk::new(self.overlay.range(first..), next_base);
        std::iter::from_fn(move || walk.next(&self.base))
    }

    /// Resolve a logical byte range into dropping slices, in logical order.
    /// Holes inside EOF come back as `dropping_id: None` (read as zeros);
    /// the returned slices stop at EOF.
    pub fn resolve(&self, offset: u64, length: u64) -> Vec<ChunkSlice> {
        let mut out = Vec::new();
        let Ok(()) = self.for_each_slice(offset, length, |s| {
            out.push(s);
            Ok::<(), std::convert::Infallible>(())
        });
        out
    }

    /// [`GlobalIndex::resolve`] without the list: `f` on each slice in
    /// logical order, stopping at its first error.
    pub(crate) fn for_each_slice<E>(
        &self,
        offset: u64,
        length: u64,
        f: impl FnMut(ChunkSlice) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let end = offset.saturating_add(length).min(self.eof);
        if offset >= end {
            return Ok(());
        }
        if self.overlay.is_empty() {
            // The direct path: the base alone, from one binary search.
            let first = self.base.partition_point(|x| x.end() <= offset);
            slices(self.base[first..].iter().copied(), offset, end, f)
        } else {
            slices(self.extents(offset), offset, end, f)
        }
    }

    /// Iterate the disjoint segments as index-entry-like tuples
    /// `(logical_offset, length, dropping_id, physical_offset)`.
    pub fn iter_segments(&self) -> impl Iterator<Item = (u64, u64, u32, u64)> + '_ {
        self.extents(0)
            .map(|x| (x.start, x.len as u64, x.dropping_id, x.physical_offset))
    }
}

/// Cut sorted, disjoint `extents` to `[offset, end)`, holes included: `f`
/// on each slice in logical order, stopping at its first error.
fn slices<E>(
    extents: impl Iterator<Item = Extent>,
    offset: u64,
    end: u64,
    mut f: impl FnMut(ChunkSlice) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    let hole = |from: u64, to: u64| ChunkSlice {
        logical_offset: from,
        length: to - from,
        dropping_id: None,
        physical_offset: 0,
    };
    let mut cursor = offset;
    for x in extents.take_while(|x| x.start < end) {
        if x.end() <= cursor {
            continue;
        }
        if x.start > cursor {
            f(hole(cursor, x.start))?;
            cursor = x.start;
        }
        let slice_end = x.end().min(end);
        f(ChunkSlice {
            logical_offset: cursor,
            length: slice_end - cursor,
            dropping_id: Some(x.dropping_id),
            physical_offset: x.physical_offset + (cursor - x.start),
        })?;
        cursor = slice_end;
    }
    if cursor < end {
        f(hole(cursor, end))?;
    }
    Ok(())
}

/// The overlay over the base, in logical order, adjacent contiguous pieces
/// coalesced. It holds no borrow of the base — each step is handed it — so
/// the fold can write the base while it walks it.
struct Walk<'a> {
    overlay: Peekable<btree_map::Range<'a, u64, Extent>>,
    /// The next base extent to read; every one before it has been read.
    next_base: usize,
    /// The base extent being walked, its front already cut by the overlay.
    cur: Option<Extent>,
    pending: Option<Extent>,
}

impl<'a> Walk<'a> {
    fn new(overlay: btree_map::Range<'a, u64, Extent>, next_base: usize) -> Walk<'a> {
        Walk {
            overlay: overlay.peekable(),
            next_base,
            cur: None,
            pending: None,
        }
    }

    fn next(&mut self, base: &[Extent]) -> Option<Extent> {
        while let Some(piece) = self.piece(base) {
            if let Some(p) = &mut self.pending {
                if p.continued_by(&piece) {
                    p.len += piece.len;
                    continue;
                }
            }
            if let Some(done) = self.pending.replace(piece) {
                return Some(done);
            }
        }
        self.pending.take()
    }

    fn read_base(&mut self, base: &[Extent]) -> Option<Extent> {
        let x = base.get(self.next_base).copied();
        self.next_base += usize::from(x.is_some());
        x
    }

    /// The next piece, uncoalesced: an overlay extent whole, or the part of
    /// a base extent up to the next overlay extent.
    fn piece(&mut self, base: &[Extent]) -> Option<Extent> {
        if self.cur.is_none() {
            self.cur = self.read_base(base);
        }
        let next = self.overlay.peek().map(|(_, &o)| o);
        match (self.cur, next) {
            (Some(b), _) if next.is_none_or(|o| b.start < o.start) => {
                let to = next.map_or(u64::MAX, |o| o.start);
                self.cur = (b.end() > to).then(|| b.tail_from(to));
                Some(b.head_to(b.end().min(to)))
            }
            (_, Some(o)) => {
                self.overlay.next();
                // Drop the base the overlay extent covers; cut what it
                // covers of the next.
                while let Some(b) = self.cur {
                    if b.end() > o.end() {
                        self.cur = Some(b.tail_from(o.end()));
                        break;
                    }
                    self.cur = self.read_base(base);
                }
                Some(o)
            }
            _ => None,
        }
    }
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
    fn sequential_inserts_keep_the_overlay_within_its_bound() {
        let mut idx = GlobalIndex::default();
        for i in 0..100_000u64 {
            idx.insert(entry(i * 8, 8, i * 8, 1, i + 1));
            assert!(
                idx.overlay.len() <= FOLD_MIN.max(idx.base.len() / 8),
                "insert {i}"
            );
        }
        assert_eq!(
            idx.base.len(),
            1,
            "each fold coalesces the log into one extent"
        );
        assert_eq!(idx.segments(), 1);
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

    /// Equality of everything a caller can observe.
    fn assert_identical(a: &GlobalIndex, b: &GlobalIndex) {
        assert_eq!(a.eof, b.eof, "eof");
        assert_eq!(a.entries, b.entries, "raw entry count");
        assert_eq!(a.max_ts, b.max_ts, "largest stamp");
        assert_eq!(
            a.iter_segments().collect::<Vec<_>>(),
            b.iter_segments().collect::<Vec<_>>(),
            "segments differ"
        );
    }

    /// The builder against the one-insert-at-a-time reference, per shape.
    fn built_like_the_reference(runs: Vec<Vec<IndexEntry>>) -> GlobalIndex {
        let serial = GlobalIndex::from_entries(runs.concat());
        let merged = GlobalIndex::from_sorted_runs(runs);
        assert_identical(&merged, &serial);
        merged
    }

    #[test]
    fn sorted_runs_match_concat() {
        // Disjoint ranges coalesce in place, run by run.
        let disjoint = (0..4u64).map(|r| {
            let at = |i: u64| entry(r * 1000 + i * 100, 100, i * 100, r as u32, r * 8 + i + 1);
            (0..8u64).map(at).collect()
        });
        assert_eq!(built_like_the_reference(disjoint.collect()).segments(), 4);
        // Later runs overwrite earlier ranges: the newest-wins path.
        built_like_the_reference(vec![
            vec![entry(0, 100, 0, 0, 1), entry(100, 100, 100, 0, 2)],
            vec![entry(50, 100, 0, 1, 3)],
            vec![entry(25, 10, 0, 2, 4), entry(180, 40, 10, 2, 5)],
        ]);
        // Equal stamps across runs: the stable sort keeps run 0 before run
        // 1, so run 1 (inserted later) wins the range.
        let tie = vec![
            vec![entry(0, 10, 0, 0, 5), entry(0, 10, 64, 0, 5)],
            vec![entry(0, 10, 0, 1, 5)],
        ];
        assert_eq!(
            built_like_the_reference(tie).resolve(0, 10)[0].dropping_id,
            Some(1)
        );
        // A run whose stamps are out of order (as pattern interleaving can
        // produce): stamp 9 wins over stamp 5 in the overlap.
        let unsorted = vec![
            vec![entry(0, 50, 0, 0, 9), entry(0, 50, 50, 0, 2)],
            vec![entry(20, 10, 0, 1, 5)],
        ];
        let idx = built_like_the_reference(unsorted);
        assert_eq!(idx.resolve(20, 10)[0].dropping_id, Some(0));
        // Empty runs and zero-length entries, which do not count.
        let sparse = vec![
            vec![],
            vec![entry(10, 0, 0, 0, 1), entry(100, 10, 0, 0, 2)],
            vec![],
            vec![entry(0, 10, 0, 1, 3)],
        ];
        assert_eq!(built_like_the_reference(sparse).raw_entries(), 2);
        assert_identical(
            &GlobalIndex::from_sorted_runs(Vec::new()),
            &GlobalIndex::default(),
        );
    }

    const GIB: u64 = 1 << 30;

    #[test]
    fn an_entry_spanning_a_cut_is_two_extents() {
        let e = entry(2 * GIB - 100, 300, 5000, 3, 1);
        let idx = built_like_the_reference(vec![vec![e]]);
        assert_eq!(
            idx.iter_segments().collect::<Vec<_>>(),
            [(2 * GIB - 100, 100, 3, 5000), (2 * GIB, 200, 3, 5100)]
        );
        assert_eq!((idx.raw_entries(), idx.eof()), (1, 2 * GIB + 200));
        // Resolve across the cut: two slices, physically contiguous.
        let s = idx.resolve(2 * GIB - 10, 20);
        assert_eq!(
            s.iter()
                .map(|s| (s.logical_offset, s.length, s.physical_offset))
                .collect::<Vec<_>>(),
            [(2 * GIB - 10, 10, 5090), (2 * GIB, 10, 5100)]
        );
    }

    #[test]
    fn sequential_writes_across_cuts_coalesce_between_them() {
        // Ten 1 GiB-minus-a-bit writes, log-contiguous, from offset 7.
        let len = GIB - 3;
        let writes: Vec<IndexEntry> = (0..10u64)
            .map(|i| entry(7 + i * len, len, i * len, 1, i + 1))
            .collect();
        let end = 7 + 10 * len;
        let fresh = built_like_the_reference(vec![writes[..4].to_vec(), writes[4..].to_vec()]);
        let segs: Vec<_> = fresh.iter_segments().collect();
        // One extent per 2 GiB block the writes touch, each ending at a cut.
        assert_eq!(segs.len(), end.div_ceil(2 * GIB) as usize);
        for (k, &(lo, n, id, phys)) in segs.iter().enumerate() {
            let k = k as u64;
            assert_eq!(lo, (k * 2 * GIB).max(7));
            assert_eq!(lo + n, ((k + 1) * 2 * GIB).min(end));
            assert_eq!((id, phys), (1, lo - 7));
        }
        // The same writes patched in one by one over a view of the first
        // three: segment for segment what the fresh build has.
        let mut patched = GlobalIndex::from_sorted_runs(vec![writes[..3].to_vec()]);
        writes[3..].iter().for_each(|&e| patched.insert(e));
        assert_identical(&patched, &fresh);
        patched.fold();
        assert_identical(&patched, &fresh);
    }

    #[test]
    fn an_overwrite_straddling_a_cut_stays_cut_there() {
        let base = vec![entry(0, 4 * GIB, 0, 0, 1)];
        let over = entry(2 * GIB - 50, 100, 0, 1, 2);
        let fresh = built_like_the_reference(vec![base.clone(), vec![over]]);
        assert_eq!(
            fresh.iter_segments().collect::<Vec<_>>(),
            [
                (0, 2 * GIB - 50, 0, 0),
                (2 * GIB - 50, 50, 1, 0),
                (2 * GIB, 50, 1, 50),
                (2 * GIB + 50, 2 * GIB - 50, 0, 2 * GIB + 50),
            ]
        );
        let mut patched = GlobalIndex::from_sorted_runs(vec![base]);
        patched.insert(over);
        assert_identical(&patched, &fresh);
        let s = patched.resolve(2 * GIB - 60, 120);
        assert_eq!(
            s.iter()
                .map(|s| (s.length, s.dropping_id, s.physical_offset))
                .collect::<Vec<_>>(),
            [
                (10, Some(0), 2 * GIB - 60),
                (50, Some(1), 0),
                (50, Some(1), 50),
                (10, Some(0), 2 * GIB + 50)
            ]
        );
    }

    #[test]
    fn a_build_decodes_records_too_long_to_cut_as_corrupt() {
        let mut buf = Vec::new();
        entry(0, MAX_RECORD_SPAN + 1, 0, 0, 1).encode(&mut buf);
        let built = IndexBuilder::build(|b| b.decode(&buf, 0));
        assert!(matches!(built, Err(Error::Corrupt(_))));
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
