//! `MeterBacking`: a counting [`Backing`] decorator.
//!
//! Wraps any backing store and tallies every call by kind, split into
//! *metadata* ops (path resolution, directory listing, stat, create,
//! unlink — the ops a dedicated MDS serves) and *data* ops (pread, pwrite,
//! append — the ops that go to storage servers). The split is exactly the
//! one the paper's Sierra/Lustre analysis needs: PLFS's collapse is an MDS
//! overload, so what matters is how many metadata ops each logical
//! operation fans out into.
//!
//! Tests and `paperbench metadata` measure a call site by snapshotting the
//! counters before and after it ([`MeterBacking::snapshot`] /
//! [`MeterSnapshot::delta`]) — e.g. "a reopen of a warm container costs N
//! backing metadata ops".

use crate::backing::Backing;
use crate::error::Result;
use crate::hooked::{Call, Hook, Hooked};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

macro_rules! meter_fields {
    ($($call:ident => $name:ident),* $(,)?) => {
        /// [`MeterBacking`]'s hook: one counter per [`Call`].
        #[derive(Default)]
        pub struct Tally {
            $($name: AtomicU64,)*
        }

        /// A point-in-time copy of every per-op counter.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub struct MeterSnapshot {
            $(pub $name: u64,)*
        }

        impl Hook for Tally {
            fn before(&self, call: Call, _: &str) -> Result<()> {
                let n = match call {
                    $(Call::$call => &self.$name,)*
                };
                // relaxed: statistics counter, read between call sites
                n.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }

        impl Tally {
            fn snapshot(&self) -> MeterSnapshot {
                MeterSnapshot {
                    // relaxed: statistics counters read between call sites
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }
        }

        impl MeterSnapshot {
            /// Counter-wise difference `self - earlier` (what one call
            /// site cost).
            pub fn delta(&self, earlier: &MeterSnapshot) -> MeterSnapshot {
                MeterSnapshot {
                    $($name: self.$name - earlier.$name,)*
                }
            }
        }
    };
}

meter_fields!(
    Create => create,
    Open => open,
    Mkdir => mkdir,
    MkdirAll => mkdir_all,
    Readdir => readdir,
    Unlink => unlink,
    Rmdir => rmdir,
    Rename => rename,
    Stat => stat,
    Exists => exists,
    Truncate => truncate,
    Size => size,
    Sync => sync,
    Pread => pread,
    Pwrite => pwrite,
    Append => append,
);

impl MeterSnapshot {
    /// Ops a dedicated metadata server would absorb: every path-level call
    /// plus handle-level `size`/`sync` (stat and flush land on the MDS in
    /// Lustre's model).
    pub fn metadata_ops(&self) -> u64 {
        self.create
            + self.open
            + self.mkdir
            + self.mkdir_all
            + self.readdir
            + self.unlink
            + self.rmdir
            + self.rename
            + self.stat
            + self.exists
            + self.truncate
            + self.size
            + self.sync
    }

    /// Ops that go to storage servers: positional reads/writes/appends.
    pub fn data_ops(&self) -> u64 {
        self.pread + self.pwrite + self.append
    }
}

/// A [`Backing`] decorator that counts every call (see module docs); an
/// `exists` counts as itself, not as the `stat` it may stand on.
pub type MeterBacking = Hooked<Tally>;

impl MeterBacking {
    /// Wrap `inner`, counting every call that passes through.
    pub fn new(inner: Arc<dyn Backing>) -> MeterBacking {
        Hooked::with_hook(inner, Tally::default())
    }

    /// Copy out the current counters.
    pub fn snapshot(&self) -> MeterSnapshot {
        self.hook().snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;

    #[test]
    fn tallies_split_metadata_from_data() {
        let m = MeterBacking::new(Arc::new(MemBacking::new()));
        let f = m.create("/f", true).unwrap();
        f.pwrite(b"abc", 0).unwrap();
        let mut buf = [0u8; 3];
        let f2 = m.open("/f", false).unwrap();
        f2.pread(&mut buf, 0).unwrap();
        assert!(m.exists("/f"));
        let s = m.snapshot();
        assert_eq!(s.create, 1);
        assert_eq!(s.open, 1);
        assert_eq!(s.exists, 1);
        assert_eq!(s.pwrite, 1);
        assert_eq!(s.pread, 1);
        assert_eq!(s.metadata_ops(), 3);
        assert_eq!(s.data_ops(), 2);
    }

    #[test]
    fn delta_isolates_one_call_site() {
        let m = MeterBacking::new(Arc::new(MemBacking::new()));
        m.mkdir("/d").unwrap();
        let before = m.snapshot();
        let _ = m.readdir("/d").unwrap();
        assert!(m.stat("/d").is_ok());
        let d = m.snapshot().delta(&before);
        assert_eq!(d.mkdir, 0, "earlier ops excluded");
        assert_eq!(d.readdir, 1);
        assert_eq!(d.stat, 1);
        assert_eq!(d.metadata_ops(), 2);
    }
}
