//! # apps — the paper's workloads
//!
//! Models of every benchmark in the evaluation over the simulated file
//! systems of `simfs` and the MPI-IO layer of `mpiio` — the paper's
//! workloads and nothing beyond them:
//!
//! * [`mpi_io_test`] — LANL MPI-IO Test (Figure 3's workload);
//! * [`nas_bt`] — NAS BT I/O, classes C and D (Figure 4);
//! * [`flash_io`] — FLASH-IO weak-scaled checkpointing (Figure 5);
//! * [`unix_tools`] — the `cp`/`cat`/`grep`/`md5sum` timing model on the
//!   simulated login node (Table II).

#![warn(missing_docs)]

pub mod flash_io;
pub mod mpi_io_test;
pub mod nas_bt;
pub mod result;
pub mod unix_tools;

pub use result::{BenchPoint, IoTimer};
