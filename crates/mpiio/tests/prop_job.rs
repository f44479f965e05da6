//! Property tests of the simulated job's clocks.

use mpiio::Job;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Barriers align all clocks to at least the prior maximum, and ranks
    /// pack `ppn` to a node.
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
