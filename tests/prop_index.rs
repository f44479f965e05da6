//! Property tests: the global index against a brute-force byte map.

use plfs::index::{encode_compressed, OFFSET_MAX};
use plfs::{Error, GlobalIndex, IndexEntry};
use proptest::prelude::*;
use std::collections::HashMap;

fn entries(max: usize) -> impl Strategy<Value = Vec<(u64, u64, u64, u32)>> {
    // (logical_offset, length, physical_offset, dropping)
    prop::collection::vec((0u64..2000, 1u64..300, 0u64..10_000, 0u32..5), 1..max)
}

/// Brute force: per byte, remember (dropping, physical byte) of the last
/// write covering it.
fn byte_map(es: &[(u64, u64, u64, u32)]) -> HashMap<u64, (u32, u64)> {
    let mut map = HashMap::new();
    for &(lo, len, phys, drop_id) in es {
        for i in 0..len {
            map.insert(lo + i, (drop_id, phys + i));
        }
    }
    map
}

fn build(es: &[(u64, u64, u64, u32)]) -> GlobalIndex {
    let mut idx = GlobalIndex::default();
    for (ts, &(lo, len, phys, drop_id)) in es.iter().enumerate() {
        idx.insert(IndexEntry {
            logical_offset: lo,
            length: len,
            physical_offset: phys,
            dropping_id: drop_id,
            timestamp: ts as u64 + 1,
            pid: 0,
        });
    }
    idx
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every byte resolves to the dropping and physical position of the
    /// most recent write covering it; bytes never written resolve as holes.
    #[test]
    fn resolution_matches_byte_map(es in entries(24)) {
        let idx = build(&es);
        let map = byte_map(&es);
        let eof = es.iter().map(|&(lo, len, ..)| lo + len).max().unwrap();
        prop_assert_eq!(idx.eof(), eof);

        let slices = idx.resolve(0, eof);
        // Slices must tile [0, eof) exactly, in order, without overlap.
        let mut cursor = 0;
        for s in &slices {
            prop_assert_eq!(s.logical_offset, cursor);
            prop_assert!(s.length > 0);
            for i in 0..s.length {
                let byte = s.logical_offset + i;
                match (s.dropping_id, map.get(&byte)) {
                    (None, None) => {}
                    (Some(d), Some(&(md, mp))) => {
                        prop_assert_eq!(d, md, "byte {} dropping", byte);
                        prop_assert_eq!(s.physical_offset + i, mp, "byte {} phys", byte);
                    }
                    (got, want) => prop_assert!(
                        false,
                        "byte {}: slice says {:?}, map says {:?}",
                        byte, got, want
                    ),
                }
            }
            cursor += s.length;
        }
        prop_assert_eq!(cursor, eof);
    }

    /// Sub-range resolution agrees with full-range resolution.
    #[test]
    fn subrange_consistent(es in entries(16), off in 0u64..2500, len in 1u64..500) {
        let idx = build(&es);
        let map = byte_map(&es);
        for s in idx.resolve(off, len) {
            prop_assert!(s.logical_offset >= off);
            prop_assert!(s.logical_offset + s.length <= (off + len).min(idx.eof()));
            if let Some(d) = s.dropping_id {
                let &(md, mp) = map.get(&s.logical_offset).expect("mapped byte");
                prop_assert_eq!(d, md);
                prop_assert_eq!(s.physical_offset, mp);
            }
        }
    }

    /// Encode/decode round-trips every record whose logical and physical
    /// spans stay inside off_t range (the only records the writer emits).
    #[test]
    fn record_codec_roundtrip(
        lo in 0u64..1 << 62, len in 0u64..1 << 61,
        phys in 0u64..1 << 62, drop_id in any::<u32>(),
        ts in any::<u64>(), pid in any::<u64>()
    ) {
        let e = IndexEntry {
            logical_offset: lo,
            length: len,
            physical_offset: phys,
            dropping_id: drop_id,
            timestamp: ts,
            pid,
        };
        let mut buf = Vec::new();
        e.encode(&mut buf);
        prop_assert_eq!(IndexEntry::decode(&buf).unwrap(), e);
    }

    /// Records whose spans leave off_t range never decode — a hostile
    /// 48-byte record cannot smuggle a wrapping extent past the reader.
    #[test]
    fn record_decode_rejects_off_t_overflow(
        lo in (1u64 << 62)..u64::MAX, len in (1u64 << 62)..u64::MAX,
        phys in any::<u64>(), drop_id in any::<u32>(),
        ts in any::<u64>(), pid in any::<u64>()
    ) {
        let e = IndexEntry {
            logical_offset: lo,
            length: len,
            physical_offset: phys,
            dropping_id: drop_id,
            timestamp: ts,
            pid,
        };
        prop_assert!(lo.checked_add(len).is_none_or(|end| end > OFFSET_MAX));
        let mut buf = Vec::new();
        e.encode(&mut buf);
        let err = IndexEntry::decode(&buf).unwrap_err();
        prop_assert!(matches!(err, Error::Corrupt(_)), "{:?}", err);
    }

    /// The segment count never exceeds the entry count (coalescing only
    /// merges; splitting is bounded by insert count with cuts).
    #[test]
    fn segments_bounded(es in entries(32)) {
        let idx = build(&es);
        // Each insert can add at most 2 net segments (its own + one cut).
        prop_assert!(idx.segments() <= es.len() * 2);
        prop_assert_eq!(idx.raw_entries(), es.len());
    }

    /// Pattern compression is lossless: encode_compressed → decode_all
    /// reproduces any entry sequence with consecutive timestamps (the
    /// writer's actual output shape) — and never yields MORE records.
    #[test]
    fn compression_is_lossless(
        raw in entries(40),
        min_run in 2usize..6,
    ) {
        // Give the entries consecutive timestamps and log-contiguous
        // physical offsets, like the write path produces.
        let mut phys = 0u64;
        let entries: Vec<IndexEntry> = raw
            .iter()
            .enumerate()
            .map(|(i, &(lo, len, _, d))| {
                let e = IndexEntry {
                    logical_offset: lo,
                    length: len,
                    physical_offset: phys,
                    dropping_id: d,
                    timestamp: i as u64 + 1,
                    pid: 9,
                };
                phys += len;
                e
            })
            .collect();
        let mut buf = Vec::new();
        let records = encode_compressed(&entries, min_run, &mut buf);
        prop_assert!(records <= entries.len());
        prop_assert_eq!(buf.len(), records * plfs::index::RECORD_SIZE);
        let back = IndexEntry::decode_all(&buf).unwrap();
        prop_assert_eq!(back, entries);
    }

    /// Perfectly strided batches compress to a single record.
    #[test]
    fn strided_batches_compress_fully(
        start in 0u64..10_000,
        len in 1u64..4096,
        gap in 0u64..4096,
        count in 3usize..200,
    ) {
        let stride = len + gap;
        let entries: Vec<IndexEntry> = (0..count as u64)
            .map(|i| IndexEntry {
                logical_offset: start + i * stride,
                length: len,
                physical_offset: i * len,
                dropping_id: 0,
                timestamp: i + 1,
                pid: 1,
            })
            .collect();
        let mut buf = Vec::new();
        let records = encode_compressed(&entries, 3, &mut buf);
        prop_assert_eq!(records, 1);
        prop_assert_eq!(IndexEntry::decode_all(&buf).unwrap(), entries);
    }

    /// Overlapping strides (stride < length, each write shadowing part of
    /// the previous one) still round-trip losslessly through pattern
    /// compression: newest-wins resolution depends on exact timestamps,
    /// so the expansion must reproduce them bit-for-bit.
    #[test]
    fn overlapping_stride_runs_roundtrip(
        start in 0u64..10_000,
        len in 2u64..2048,
        stride in 1u64..2048,
        count in 3usize..100,
    ) {
        let stride = stride.min(len - 1); // force overlap
        let entries: Vec<IndexEntry> = (0..count as u64)
            .map(|i| IndexEntry {
                logical_offset: start + i * stride,
                length: len,
                physical_offset: i * len,
                dropping_id: 0,
                timestamp: i + 1,
                pid: 1,
            })
            .collect();
        let mut buf = Vec::new();
        let records = encode_compressed(&entries, 3, &mut buf);
        prop_assert_eq!(records, 1);
        prop_assert_eq!(IndexEntry::decode_all(&buf).unwrap(), entries);
    }

}

/// Inserts enough to fold the index's overlay into its base several times:
/// the overlay folds past 64 extents while the base is this small.
fn fold_crossing() -> impl Strategy<Value = Vec<(u64, u64, u64, u32)>> {
    prop::collection::vec(
        (0u64..2000, 1u64..300, 0u64..10_000, 0u32..5),
        4 * 64..6 * 64,
    )
}

/// `idx.resolve(off, len)` tiles the range up to EOF, and every byte of it
/// is where the model says.
fn check_resolve(idx: &GlobalIndex, model: &[Option<(u32, u64)>], off: u64, len: u64) {
    let end = off.saturating_add(len).min(idx.eof());
    let mut cursor = off;
    for s in idx.resolve(off, len) {
        assert_eq!(s.logical_offset, cursor, "resolve({off}, {len}) tiles");
        assert!(s.length > 0);
        for i in 0..s.length {
            let byte = s.logical_offset + i;
            let got = s.dropping_id.map(|d| (d, s.physical_offset + i));
            assert_eq!(got, model[byte as usize], "byte {byte}");
        }
        cursor += s.length;
    }
    assert_eq!(cursor, end.max(off), "resolve({off}, {len}) stops at EOF");
}

/// Regression: `resolve` added `offset + length` unchecked, which panicked
/// in debug builds near the top of `u64`.
#[test]
fn resolve_near_the_top_of_u64_does_not_overflow() {
    let mut idx = build(&[(0, 10, 0, 1)]);
    assert!(idx.resolve(u64::MAX - 1, 10).is_empty());
    assert_eq!(idx.resolve(5, u64::MAX).len(), 1);
    let model: Vec<_> = (0..10).map(|i| Some((1, i))).collect();
    check_resolve(&idx, &model, 5, u64::MAX);
    idx.insert(IndexEntry {
        logical_offset: 4,
        length: 2,
        physical_offset: 0,
        dropping_id: 2,
        timestamp: 9,
        pid: 0,
    });
    assert!(
        idx.resolve(u64::MAX - 1, 10).is_empty(),
        "through the overlay"
    );
    assert_eq!(idx.resolve(5, u64::MAX).len(), 2);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Across several folds, resolution interleaved with the inserts
    /// agrees with the byte map after every insert.
    #[test]
    fn folds_keep_resolution_on_the_byte_map(es in fold_crossing()) {
        let mut idx = GlobalIndex::default();
        let mut model = vec![None; 2300];
        for (ts, &(lo, len, phys, drop_id)) in es.iter().enumerate() {
            idx.insert(IndexEntry {
                logical_offset: lo,
                length: len,
                physical_offset: phys,
                dropping_id: drop_id,
                timestamp: ts as u64 + 1,
                pid: 0,
            });
            for i in 0..len {
                model[(lo + i) as usize] = Some((drop_id, phys + i));
            }
            check_resolve(&idx, &model, lo.saturating_sub(64), len + 128);
        }
        check_resolve(&idx, &model, 0, u64::MAX);
        prop_assert_eq!(idx.raw_entries(), es.len());
    }

    /// The read-open's builder equals the one-insert-at-a-time reference on
    /// entry sets large enough that the reference folds several times
    /// (and so does the builder, which inserts when entries overlap).
    #[test]
    fn sorted_runs_equal_from_entries_across_folds(
        es in fold_crossing(),
        stamps in prop::collection::vec(0u64..64, 6 * 64..6 * 64 + 1),
        cuts in prop::collection::vec(0usize..6 * 64, 0..8),
        reads in prop::collection::vec((0u64..2400, 1u64..600), 1..8),
    ) {
        let entries: Vec<IndexEntry> = es
            .iter()
            .zip(&stamps)
            .map(|(&(lo, len, phys, drop_id), &ts)| IndexEntry {
                logical_offset: lo,
                length: len,
                physical_offset: phys,
                dropping_id: drop_id,
                timestamp: ts,
                pid: 0,
            })
            .collect();
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (entries.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.push(entries.len());
        let mut prev = 0;
        let runs: Vec<Vec<IndexEntry>> = cuts
            .iter()
            .map(|&c| {
                let run = entries[prev..c].to_vec();
                prev = c;
                run
            })
            .collect();
        let serial = GlobalIndex::from_entries(entries);
        let merged = GlobalIndex::from_sorted_runs(runs);
        prop_assert_eq!(merged.eof(), serial.eof());
        prop_assert_eq!(merged.raw_entries(), serial.raw_entries());
        prop_assert_eq!(merged.segments(), serial.segments());
        prop_assert_eq!(
            merged.iter_segments().collect::<Vec<_>>(),
            serial.iter_segments().collect::<Vec<_>>()
        );
        for (off, len) in reads {
            prop_assert_eq!(merged.resolve(off, len), serial.resolve(off, len));
        }
    }
}

/// Writes within a few hundred bytes of the first three multiples of 2 GiB,
/// where no extent of the index may cross: `(offset, length, physical,
/// dropping)`.
fn near_cuts() -> impl Strategy<Value = Vec<(u64, u64, u64, u32)>> {
    prop::collection::vec(
        (1u64..4, 0u64..600, 1u64..300, 0u64..10_000, 0u32..3),
        1..40,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(k, d, len, phys, drop_id)| ((k << 31) - 300 + d, len, phys, drop_id))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Around the 2 GiB cuts, the read-open's builder, a view patched
    /// write by write and the reference agree segment for segment; no
    /// segment crosses a cut, and every byte resolves as the byte map says.
    #[test]
    fn views_agree_and_stay_cut_around_2_gib(es in near_cuts(), split in 0usize..40) {
        let entries: Vec<IndexEntry> = (1u64..)
            .zip(&es)
            .map(|(ts, &(lo, len, phys, drop_id))| IndexEntry {
                logical_offset: lo,
                length: len,
                physical_offset: phys,
                dropping_id: drop_id,
                timestamp: ts,
                pid: 0,
            })
            .collect();
        let split = split.min(entries.len());
        let reference = GlobalIndex::from_entries(entries.clone());
        let runs = vec![entries[..split].to_vec(), entries[split..].to_vec()];
        let built = GlobalIndex::from_sorted_runs(runs);
        let mut patched = GlobalIndex::from_sorted_runs(vec![entries[..split].to_vec()]);
        entries[split..].iter().for_each(|&e| patched.insert(e));
        let want: Vec<_> = reference.iter_segments().collect();
        prop_assert_eq!(built.iter_segments().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(patched.iter_segments().collect::<Vec<_>>(), want.clone());
        prop_assert_eq!(
            (built.eof(), built.raw_entries()),
            (reference.eof(), reference.raw_entries())
        );
        for &(lo, len, ..) in &want {
            prop_assert_eq!(lo >> 31, (lo + len - 1) >> 31, "segment at {} crosses a cut", lo);
        }
        let map = byte_map(&es);
        for k in 1u64..4 {
            let (off, len) = ((k << 31) - 400, 800);
            let mut cursor = off;
            for s in built.resolve(off, len) {
                prop_assert_eq!(s.logical_offset, cursor);
                for i in 0..s.length {
                    let got = s.dropping_id.map(|d| (d, s.physical_offset + i));
                    prop_assert_eq!(got, map.get(&(cursor + i)).copied(), "byte {}", cursor + i);
                }
                cursor += s.length;
            }
            prop_assert_eq!(cursor, (off + len).min(built.eof()).max(off));
        }
    }
}
