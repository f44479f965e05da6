//! # plfs — a Rust reimplementation of the Parallel Log-structured File System
//!
//! PLFS (Bent et al., SC'09) is a virtual file system that rewrites N-to-1
//! parallel writes into N-to-N: each writing process appends its data
//! sequentially to its own *data dropping* inside a *container* directory,
//! recording where the bytes logically belong in an *index dropping*.
//! Reading merges every index into a global index and reassembles the
//! logical file.
//!
//! This crate is the substrate for the LDPLFS reproduction (Wright et al.,
//! IPDPS Workshops 2012): it provides the container format, the
//! positional/pid-based API that the LDPLFS shim retargets POSIX calls to
//! (see Listing 1 of the paper).
//!
//! ## Quick start
//!
//! ```
//! use std::sync::Arc;
//! use plfs::{Plfs, OpenFlags, MemBacking};
//!
//! let plfs = Plfs::new(Arc::new(MemBacking::new()));
//! let fd = plfs.open("/dump", OpenFlags::RDWR | OpenFlags::CREAT, 0).unwrap();
//! plfs.write(&fd, b"checkpoint", 0, 0).unwrap();
//! let mut buf = [0u8; 10];
//! plfs.read(&fd, &mut buf, 0).unwrap();
//! assert_eq!(&buf, b"checkpoint");
//! plfs.close(&fd, 0).unwrap();
//! ```
//!
//! ## Module map
//!
//! * [`backing`] — the storage trait ([`RealBacking`] over `std::fs`,
//!   [`MemBacking`] in memory; `simfs` provides a simulated one).
//! * [`container`] — the on-backing directory layout (paper Figure 1).
//! * [`index`] — index records and the overlap-resolving global index.
//! * [`writer`] / [`reader`] — the log-structured write path and the
//!   reassembling read path.
//! * [`fd`] / [`api`] — `Plfs_fd` and the `plfs_*` API surface.
//! * [`flatten`] — extracting raw data from containers.
//! * [`check`] — container integrity checking and repair.
//! * [`hooked`] — the forwarding base of the backing decorators.
//! * [`faults`] — failure injection for error-path testing.
//! * [`meta`] — the container metadata cache (the metadata fast path).
//! * [`meter`] — a counting backing decorator for op-cost measurement.

#![warn(missing_docs)]

pub mod api;
pub mod backing;
pub mod check;
pub mod conf;
pub mod container;
pub mod error;
pub mod faults;
pub mod fd;
pub mod flags;
pub mod flatten;
pub mod hooked;
pub mod index;
pub mod meta;
pub mod meter;
pub mod reader;
pub mod writer;

pub use api::{Dirent, Plfs, Stat};
pub use backing::{BackStat, Backing, BackingFile, MemBacking, RealBacking};
pub use check::{check, repair, CheckReport, Finding, RepairReport, Severity};
pub use error::{Error, Result};
pub use faults::{FaultKind, FaultOp, FaultRule, Faulty};
pub use fd::PlfsFd;
pub use flags::OpenFlags;
pub use flatten::CompactStats;
pub use index::{ChunkSlice, GlobalIndex, IndexEntry};
pub use meta::{MetaCache, MetaEntry};
pub use meter::{MeterBacking, MeterSnapshot};
pub use reader::ReadFile;
pub use writer::WriteFile;
