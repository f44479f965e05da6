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

use crate::backing::{BackStat, Backing, BackingFile};
use crate::error::Result;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

macro_rules! meter_fields {
    ($($name:ident),* $(,)?) => {
        #[derive(Default)]
        struct MeterShared {
            $($name: AtomicU64,)*
        }

        /// A point-in-time copy of every per-op counter.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        #[allow(missing_docs)]
        pub struct MeterSnapshot {
            $(pub $name: u64,)*
        }

        impl MeterShared {
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
    create, open, mkdir, mkdir_all, readdir, unlink, rmdir, rename, stat, exists, truncate, size,
    sync, pread, pwrite, append,
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

/// A [`Backing`] decorator that counts every call (see module docs).
pub struct MeterBacking {
    inner: Arc<dyn Backing>,
    shared: Arc<MeterShared>,
}

impl MeterBacking {
    /// Wrap `inner`, counting every call that passes through.
    pub fn new(inner: Arc<dyn Backing>) -> MeterBacking {
        MeterBacking {
            inner,
            shared: Arc::new(MeterShared::default()),
        }
    }

    /// Copy out the current counters.
    pub fn snapshot(&self) -> MeterSnapshot {
        self.shared.snapshot()
    }
}

// relaxed everywhere below: per-op tallies are statistics read between
// call sites; no cross-counter ordering is needed.
macro_rules! tally {
    ($self:ident, $field:ident) => {
        // relaxed: statistics counter, read between call sites
        $self.shared.$field.fetch_add(1, Ordering::Relaxed)
    };
}

struct MeterFile {
    inner: Box<dyn BackingFile>,
    owner: Arc<MeterShared>,
}

impl BackingFile for MeterFile {
    fn pread(&self, buf: &mut [u8], off: u64) -> Result<usize> {
        // relaxed: statistics counter, read between call sites
        self.owner.pread.fetch_add(1, Ordering::Relaxed);
        self.inner.pread(buf, off)
    }

    fn pwrite(&self, buf: &[u8], off: u64) -> Result<usize> {
        // relaxed: statistics counter, read between call sites
        self.owner.pwrite.fetch_add(1, Ordering::Relaxed);
        self.inner.pwrite(buf, off)
    }

    fn append(&self, buf: &[u8]) -> Result<u64> {
        // relaxed: statistics counter, read between call sites
        self.owner.append.fetch_add(1, Ordering::Relaxed);
        self.inner.append(buf)
    }

    fn size(&self) -> Result<u64> {
        // relaxed: statistics counter, read between call sites
        self.owner.size.fetch_add(1, Ordering::Relaxed);
        self.inner.size()
    }

    fn sync(&self) -> Result<()> {
        // relaxed: statistics counter, read between call sites
        self.owner.sync.fetch_add(1, Ordering::Relaxed);
        self.inner.sync()
    }
}

impl Backing for MeterBacking {
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
        tally!(self, create);
        Ok(Box::new(MeterFile {
            inner: self.inner.create(path, excl)?,
            owner: Arc::clone(&self.shared),
        }))
    }

    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
        tally!(self, open);
        Ok(Box::new(MeterFile {
            inner: self.inner.open(path, write)?,
            owner: Arc::clone(&self.shared),
        }))
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        tally!(self, mkdir);
        self.inner.mkdir(path)
    }

    fn mkdir_all(&self, path: &str) -> Result<()> {
        tally!(self, mkdir_all);
        self.inner.mkdir_all(path)
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>> {
        tally!(self, readdir);
        self.inner.readdir(path)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        tally!(self, unlink);
        self.inner.unlink(path)
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        tally!(self, rmdir);
        self.inner.rmdir(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        tally!(self, rename);
        self.inner.rename(from, to)
    }

    fn stat(&self, path: &str) -> Result<BackStat> {
        tally!(self, stat);
        self.inner.stat(path)
    }

    // The default trait impl would route through stat() and double-count;
    // forward explicitly and tally it as its own kind.
    fn exists(&self, path: &str) -> bool {
        tally!(self, exists);
        self.inner.exists(path)
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        tally!(self, truncate);
        self.inner.truncate(path, len)
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
