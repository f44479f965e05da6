//! Property tests: file-view arithmetic, job-clock invariants, and the
//! list-I/O lowering of noncontiguous views against the sieving fallback.

use mpiio::{FileView, Job, Method, MpiFile, MpiInfo};
use proptest::prelude::*;
use simfs::{presets, SimFs};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// map_region tiles the requested view range exactly: lengths sum to
    /// the request and physical offsets are strictly increasing extents.
    #[test]
    fn view_regions_tile_exactly(
        rank in 0usize..8,
        ranks in 1usize..9,
        block in 1u64..4096,
        view_off in 0u64..100_000,
        len in 1u64..50_000,
    ) {
        let rank = rank % ranks;
        let v = FileView::interleaved(rank, ranks, block);
        let regions = v.map_region(view_off, len);
        let total: u64 = regions.iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(total, len);
        // Extents ordered and non-overlapping.
        let mut prev_end = 0u64;
        for (i, &(off, l)) in regions.iter().enumerate() {
            prop_assert!(l > 0);
            if i > 0 {
                prop_assert!(off >= prev_end, "overlap at extent {i}");
            }
            prev_end = off + l;
        }
        // Endpoint arithmetic agrees with physical().
        prop_assert_eq!(regions[0].0, v.physical(view_off));
        let last = regions.last().unwrap();
        prop_assert_eq!(last.0 + last.1 - 1, v.physical(view_off + len - 1));
    }

    /// Byte-level check on small cases: every view byte maps to the extent
    /// list exactly where physical() says.
    #[test]
    fn view_bytes_match_physical(
        ranks in 1usize..5,
        block in 1u64..32,
        len in 1u64..200,
    ) {
        for rank in 0..ranks {
            let v = FileView::interleaved(rank, ranks, block);
            let regions = v.map_region(0, len);
            let mut flat = Vec::new();
            for (off, l) in regions {
                for i in 0..l {
                    flat.push(off + i);
                }
            }
            for (i, &phys) in flat.iter().enumerate() {
                prop_assert_eq!(phys, v.physical(i as u64));
            }
        }
    }

    /// Distinct ranks' views never overlap physically.
    #[test]
    fn rank_views_are_disjoint(
        ranks in 2usize..6,
        block in 1u64..64,
        len in 1u64..500,
    ) {
        let mut seen = std::collections::HashSet::new();
        for rank in 0..ranks {
            let v = FileView::interleaved(rank, ranks, block);
            for (off, l) in v.map_region(0, len) {
                for b in off..off + l {
                    prop_assert!(seen.insert(b), "byte {b} claimed twice");
                }
            }
        }
    }

    /// List-I/O lowering of a random noncontiguous datatype is logically
    /// equivalent to the sieving fallback: every rank's extents land, the
    /// list path moves exactly the logical bytes, and sieving never moves
    /// fewer — it only amplifies.
    #[test]
    fn list_lowering_covers_same_bytes_as_sieving(
        ranks in 1usize..5,
        ppn in 1usize..3,
        block in 1u64..(64 << 10),
        len in 1u64..(256 << 10),
    ) {
        let run = |method: Method, list_io: bool| -> (u64, u64, u64) {
            let mut fs = SimFs::new(presets::toy());
            let mut job = Job::new(ranks, ppn);
            let info = MpiInfo { list_io, ..Default::default() };
            let mut f =
                MpiFile::open(&mut fs, &mut job, "/out", true, method, info, 4).unwrap();
            for r in 0..ranks {
                f.set_view(r, FileView::interleaved(r, ranks, block));
            }
            for r in 0..ranks {
                f.write_view(&mut fs, &mut job, r, 0, len).unwrap();
            }
            let s = fs.stats();
            (s.bytes_written, s.bytes_read, s.write_ops)
        };
        let logical = ranks as u64 * len;
        let (listed_w, listed_r, listed_ops) = run(Method::Romio, true);
        let (sieved_w, _sieved_r, sieved_ops) = run(Method::MpiIo, true);
        let (lowered_w, _, lowered_ops) = run(Method::Romio, false);

        // The list path moves exactly the logical bytes, no RMW reads, and
        // at most one write op per rank's write_view call.
        prop_assert_eq!(listed_w, logical);
        prop_assert_eq!(listed_r, 0);
        prop_assert!(listed_ops <= ranks as u64);
        // Sieving writes at least the logical volume (RMW amplification),
        // in at least as many ops.
        prop_assert!(sieved_w >= logical);
        prop_assert!(sieved_ops >= listed_ops);
        // Hint off: same logical bytes, per-extent ops.
        prop_assert_eq!(lowered_w, logical);
        prop_assert!(lowered_ops >= listed_ops);
    }

    /// Barriers align all clocks to at least the prior maximum, and
    /// collective latency grows monotonically with scale.
    #[test]
    fn barrier_invariants(
        ranks in 1usize..64,
        ppn in 1usize..13,
        bumps in prop::collection::vec((0usize..64, 0.0f64..10.0), 1..16),
    ) {
        let mut j = Job::new(ranks, ppn);
        for (r, dt) in bumps {
            j.compute(r % ranks, dt);
        }
        let before_max = j.max_time();
        let release = j.barrier();
        prop_assert!(release >= before_max);
        for r in 0..ranks {
            prop_assert_eq!(j.time(r), release);
        }
        prop_assert_eq!(j.nodes(), ranks.div_ceil(ppn));
    }
}
