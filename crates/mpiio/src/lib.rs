//! # mpiio — a simulated MPI-IO layer with ROMIO-style machinery
//!
//! Models the MPI-IO stack the paper's experiments run through: simulated
//! ranks with clocks ([`comm`]), two-phase collective buffering and data
//! sieving ([`file`], paper §II), and one ADIO driver per compared I/O path
//! ([`adio`]): plain POSIX (`MPI-IO`), the patched-ROMIO PLFS driver
//! (`ROMIO`), the LDPLFS shim (`LDPLFS`), and the FUSE mount (`FUSE`).
//!
//! Workloads (crate `apps`) drive an [`MpiFile`] against a
//! [`simfs::SimFs`]; achieved bandwidth falls out of the rank clocks.

#![warn(missing_docs)]

pub mod adio;
pub mod comm;
pub mod file;
pub mod writeops;

pub use adio::{AdioDriver, FuseDriver, IoReq, LdplfsDriver, Method, PlfsRomioDriver, UfsDriver};
pub use comm::{CommCosts, Job};
pub use file::MpiFile;
pub use writeops::{Access, RankIo};
