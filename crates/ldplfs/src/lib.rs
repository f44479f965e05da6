//! # ldplfs — POSIX interposition shim retargeting file operations to PLFS
//!
//! The Rust reproduction of *LDPLFS: Improving I/O Performance Without
//! Application Modification* (Wright et al., 2012). The original is a
//! dynamic library loaded via `LD_PRELOAD` that overloads POSIX file symbols
//! and retargets calls on paths inside PLFS mount points to the PLFS API.
//! Here the interposition seam is the [`PosixLayer`] trait: applications
//! written against it run identically over the real OS
//! ([`RealPosix`]) or over the interposing shim ([`LdPlfs`]) — switching
//! the layer is this crate's equivalent of exporting `LD_PRELOAD`.
//!
//! The shim reproduces the paper's two bookkeeping mechanisms exactly
//! (§III.A): POSIX descriptor synthesis by opening a scratch file, and PLFS
//! file-pointer maintenance through `lseek` on that descriptor. See
//! [`shim`] for details.
//!
//! ```
//! use std::sync::Arc;
//! use ldplfs::{LdPlfsBuilder, PosixLayer, OpenFlags, RealPosix};
//! use plfs::{Plfs, MemBacking};
//!
//! let tmp = std::env::temp_dir().join(format!("ldplfs-doc-{}", std::process::id()));
//! let under = Arc::new(RealPosix::rooted(tmp).unwrap());
//! let shim = LdPlfsBuilder::new(under)
//!     .mount("/plfs", Plfs::new(Arc::new(MemBacking::new())))
//!     .build()
//!     .unwrap();
//!
//! // An unmodified "application": plain POSIX calls.
//! let fd = shim.open("/plfs/ckpt", OpenFlags::WRONLY | OpenFlags::CREAT, 0o644).unwrap();
//! shim.write(fd, b"transparent!").unwrap();
//! shim.close(fd).unwrap();
//! assert_eq!(shim.stat("/plfs/ckpt").unwrap().size, 12);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod posix;
pub mod realposix;
pub mod shim;
pub mod stats;
pub mod stdio;

pub use config::{from_plfsrc, plfs_for_spec, LdPlfsBuilder};
pub use posix::{Errno, Fd, OpenFlags, PosixDirent, PosixLayer, PosixResult, PosixStat, Whence};
pub use realposix::RealPosix;
pub use shim::{clear_virtual_pid, current_pid, set_virtual_pid, LdPlfs, ShimMount};
pub use stats::{OpClass, ShimStats};
pub use stdio::CFile;
