//! # simfs — a discrete-event parallel storage simulator
//!
//! The substitute for the paper's two testbeds (Minerva/GPFS and
//! Sierra/Lustre, Table I), which we obviously cannot schedule time on.
//! Rather than replaying measured curves, the simulator models the four
//! mechanisms the paper's analysis attributes its results to, and lets the
//! shapes emerge:
//!
//! 1. **shared-file lock serialisation** ([`locks`]) — keeps N-to-1 MPI-IO
//!    flat while file-per-process scales;
//! 2. **stripe/server parallelism** ([`fs`]) — PLFS's many droppings spread
//!    over many servers;
//! 3. **client write-back caching** ([`cache`]) — BT's small-write
//!    "bandwidths" above storage speed, and the class-D cache cliff;
//! 4. **metadata service queueing** ([`mds`]) — the dedicated-MDS create
//!    storm that collapses PLFS at scale on Lustre (Fig 5) but not on
//!    GPFS's distributed metadata.
//!
//! Time is explicit: every operation takes an arrival time and returns a
//! completion time; the MPI-IO layer (crate `mpiio`) threads per-rank
//! clocks through. All queueing is deterministic FIFO — identical inputs
//! reproduce identical timings.

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod fs;
pub mod locks;
pub mod mds;
pub mod mdstorm;
pub mod presets;
pub mod queue;
pub mod trace;

pub use config::{CacheConfig, ClusterConfig, FsConfig, LockConfig, MdsConfig, Platform};
pub use fs::{FileId, FsStats, SimError, SimFs, SimResult};
pub use mds::{MetaOp, MetadataService};
pub use mdstorm::{create_storm, storm_sweep, OpenProfile, StormOutcome};
pub use queue::{MultiQueue, SingleQueue};
pub use trace::{Trace, TraceKind, TraceRecord};
