//! MDS create-storm projection: what a per-open metadata-op profile costs
//! at scale.
//!
//! `paperbench metadata` measures — with the plfs crate's `MeterBacking` —
//! how many backing metadata ops one logical `open()` fans out into, before
//! and after the metadata fast path. This module replays that profile for N
//! simultaneous processes against the [`MetadataService`] model (the same
//! dedicated-MDS queue that reproduces the paper's Figure 5 collapse) and
//! reports the time until the storm drains: the projected time-to-open.
//!
//! The interesting comparison is not absolute seconds but the *shape*:
//! every directory-modifying op (dropping and marker creates, the
//! close-time rename) feeds the superlinear contention term, so a profile
//! with fewer of them keeps the MDS in its flat regime to much higher
//! process counts; probes and listings only add to the linear term.

use crate::config::MdsConfig;
use crate::mds::{dir_hash, MetaOp, MetadataService};

/// How many of each MDS op one logical `open()` issues — measured, not
/// assumed (see module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenProfile {
    /// Entry creations (container skeleton — directory and access file —
    /// hostdirs, droppings, open markers).
    pub creates: u64,
    /// Lookups/opens of existing entries (access file reads).
    pub opens: u64,
    /// Attribute reads (exists/stat probes).
    pub stats: u64,
    /// Entry removals and renames (a close renames the writer's open
    /// marker into its fast-stat drop).
    pub removes: u64,
    /// Directory listings (the container directory: markers, drops and
    /// hostdirs are all names in it).
    pub readdirs: u64,
}

impl OpenProfile {
    /// Total metadata ops per open.
    pub fn total(&self) -> u64 {
        self.creates + self.opens + self.stats + self.removes + self.readdirs
    }

    fn ops(&self) -> Vec<MetaOp> {
        let mut v = Vec::with_capacity(self.total() as usize);
        v.extend(std::iter::repeat_n(MetaOp::Create, self.creates as usize));
        v.extend(std::iter::repeat_n(MetaOp::Open, self.opens as usize));
        v.extend(std::iter::repeat_n(MetaOp::Stat, self.stats as usize));
        v.extend(std::iter::repeat_n(MetaOp::Remove, self.removes as usize));
        v.extend(std::iter::repeat_n(MetaOp::Readdir, self.readdirs as usize));
        v
    }
}

/// Outcome of replaying one storm.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormOutcome {
    /// Processes opening simultaneously.
    pub procs: u64,
    /// Total metadata ops the storm issued.
    pub ops: u64,
    /// Time until the MDS drains every op: the projected time for the
    /// slowest process to finish its open (seconds).
    pub time_to_open: f64,
}

/// Replay `procs` processes simultaneously opening one shared file at t=0,
/// each issuing `profile`'s ops, against a fresh metadata service.
///
/// Processes proceed in lockstep (round-robin over the op list), which is
/// how a synchronised MPI job arrives at the MDS; per-process hostdir paths
/// spread the ops when the metadata service is distributed.
pub fn create_storm(cfg: &MdsConfig, procs: u64, profile: &OpenProfile) -> StormOutcome {
    let mut mds = MetadataService::new(cfg);
    let ops = profile.ops();
    for op in &ops {
        for p in 0..procs {
            // Creates land in the process's hostdir; probes hit the shared
            // container directory itself.
            let h = match op {
                MetaOp::Create | MetaOp::Remove => dir_hash(&format!("/shared/hostdir.{p}")),
                _ => dir_hash("/shared"),
            };
            mds.op(0.0, *op, h);
        }
    }
    StormOutcome {
        procs,
        ops: mds.ops_served(),
        time_to_open: mds.drained_at(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn eager() -> OpenProfile {
        OpenProfile {
            creates: 3,
            opens: 1,
            stats: 2,
            removes: 1,
            readdirs: 1,
        }
    }

    fn cached() -> OpenProfile {
        OpenProfile {
            creates: 1,
            ..OpenProfile::default()
        }
    }

    fn mds() -> MdsConfig {
        presets::sierra().fs.mds
    }

    #[test]
    fn cheaper_profile_opens_faster_at_every_scale() {
        for procs in [64, 256, 1024, 4096] {
            let e = create_storm(&mds(), procs, &eager());
            let c = create_storm(&mds(), procs, &cached());
            assert!(
                c.time_to_open < e.time_to_open,
                "{procs} procs: cached {} !< eager {}",
                c.time_to_open,
                e.time_to_open
            );
            assert_eq!(e.ops, procs * eager().total());
        }
    }

    #[test]
    fn eager_storms_collapse_superlinearly() {
        let small = create_storm(&mds(), 256, &eager());
        let big = create_storm(&mds(), 4096, &eager());
        // 16x the processes must cost much more than 16x the time on a
        // dedicated MDS — that is the Figure 5 mechanism.
        assert!(
            big.time_to_open > 16.0 * 4.0 * small.time_to_open,
            "no collapse: {} vs {}",
            big.time_to_open,
            small.time_to_open
        );
    }

    #[test]
    fn storms_are_deterministic() {
        let a = create_storm(&mds(), 512, &eager());
        let b = create_storm(&mds(), 512, &eager());
        assert_eq!(a, b);
    }

    #[test]
    fn more_processes_never_open_faster() {
        let out = [2, 4, 8].map(|n| create_storm(&mds(), n, &cached()));
        assert!(out
            .windows(2)
            .all(|w| w[0].time_to_open <= w[1].time_to_open));
    }
}
