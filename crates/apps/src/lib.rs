//! # apps — the paper's workloads
//!
//! Generators for every benchmark in the evaluation, plus the serial UNIX
//! tools — the paper's workloads and nothing beyond them:
//!
//! * [`mpi_io_test`] — LANL MPI-IO Test (Figure 3's workload);
//! * [`nas_bt`] — NAS BT I/O, classes C and D (Figure 4);
//! * [`flash_io`] — FLASH-IO weak-scaled checkpointing (Figure 5);
//! * [`unix_tools`] — `cp`/`cat`/`grep`/`md5sum` over the POSIX layer
//!   (Table II), with a simulated-login-node timing model;
//! * [`hdf5lite`] — an HDF5-like container format for the real-execution
//!   FLASH demos;
//! * [`md5`] — RFC 1321, used by `md5sum`.

#![warn(missing_docs)]

pub mod flash_io;
pub mod hdf5lite;
pub mod md5;
pub mod mpi_io_test;
pub mod nas_bt;
pub mod result;
pub mod unix_tools;

pub use result::{BenchPoint, IoTimer};
