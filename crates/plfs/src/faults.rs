//! Fault injection for testing error paths.
//!
//! [`Faulty`] wraps any [`Backing`] and fails selected operations on
//! a schedule: after N successes, on matching paths, once or persistently.
//! Checkpointing systems live or die by their behaviour under partial
//! failure; this hook lets the test suites (and downstream users) drive
//! every error path of the container, shim and tool layers without
//! touching real hardware.

use crate::backing::{BackStat, Backing, BackingFile};
use crate::error::{Error, Result};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Which operation class a rule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// File creates.
    Create,
    /// File opens.
    Open,
    /// Positional/append writes.
    Write,
    /// Positional reads.
    Read,
    /// Directory creation.
    Mkdir,
    /// Unlink/rmdir.
    Remove,
    /// Everything else (stat, readdir, rename, truncate, sync).
    Meta,
}

/// One injection rule.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Operation class the rule matches.
    pub op: FaultOp,
    /// Substring the path must contain (empty = any path).
    pub path_contains: String,
    /// Successful matches to allow before failing.
    pub after: u64,
    /// How many times to fail once triggered (`u64::MAX` = forever).
    pub times: u64,
    /// The error to return (regenerated per failure).
    pub errno_like: FaultKind,
}

/// The flavour of injected failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Generic I/O error (disk fault).
    Io,
    /// Out of space.
    NoSpace,
    /// Permission denied.
    Access,
}

impl FaultKind {
    fn to_error(self, path: &str) -> Error {
        let (code, msg) = match self {
            FaultKind::Io => (5, "injected I/O error"),
            FaultKind::NoSpace => (28, "injected ENOSPC"),
            FaultKind::Access => (13, "injected EACCES"),
        };
        // from_raw_os_error preserves the errno for Error::errno().
        let _ = (msg, path);
        Error::Io(std::io::Error::from_raw_os_error(code))
    }
}

struct RuleState {
    rule: FaultRule,
    matched: AtomicU64,
    fired: AtomicU64,
}

/// File wrapper that re-checks write/read rules per call.
struct FaultyFile {
    inner: Box<dyn BackingFile>,
    owner: Arc<FaultyShared>,
    path: String,
}

/// Shared rule state reachable from file handles.
struct FaultyShared {
    rules: Mutex<Vec<Arc<RuleState>>>,
    injected: AtomicU64,
}

impl FaultyShared {
    fn maybe_fail(&self, op: FaultOp, path: &str) -> Result<()> {
        let rules = self.rules.lock();
        for state in rules.iter() {
            let r = &state.rule;
            if r.op != op {
                continue;
            }
            if !r.path_contains.is_empty() && !path.contains(&r.path_contains) {
                continue;
            }
            // relaxed: atomic increment decides which matching call trips the fault; no other data rides on it
            let seen = state.matched.fetch_add(1, Ordering::Relaxed);
            if seen < r.after {
                continue;
            }
            // relaxed: fire-count bound needs atomicity only
            let fired = state.fired.fetch_add(1, Ordering::Relaxed);
            if fired >= r.times {
                continue;
            }
            // relaxed: injected tally is statistical
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Err(r.errno_like.to_error(path));
        }
        Ok(())
    }
}

/// A backing decorator that injects failures per the configured rules;
/// file handles opened through it share the rule state.
pub struct Faulty {
    inner: Arc<dyn Backing>,
    shared: Arc<FaultyShared>,
}

impl Faulty {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Backing>) -> Faulty {
        Faulty {
            inner,
            shared: Arc::new(FaultyShared {
                rules: Mutex::new(Vec::new()),
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// Arm an injection rule.
    pub fn arm(&self, rule: FaultRule) {
        self.shared.rules.lock().push(Arc::new(RuleState {
            rule,
            matched: AtomicU64::new(0),
            fired: AtomicU64::new(0),
        }));
    }

    /// Remove all rules.
    pub fn disarm(&self) {
        self.shared.rules.lock().clear();
    }

    /// Failures injected so far.
    pub fn injected(&self) -> u64 {
        // relaxed: statistical read of the injected tally
        self.shared.injected.load(Ordering::Relaxed)
    }
}

impl BackingFile for FaultyFile {
    fn pread(&self, buf: &mut [u8], off: u64) -> Result<usize> {
        self.owner.maybe_fail(FaultOp::Read, &self.path)?;
        self.inner.pread(buf, off)
    }

    fn pwrite(&self, buf: &[u8], off: u64) -> Result<usize> {
        self.owner.maybe_fail(FaultOp::Write, &self.path)?;
        self.inner.pwrite(buf, off)
    }

    fn append(&self, buf: &[u8]) -> Result<u64> {
        self.owner.maybe_fail(FaultOp::Write, &self.path)?;
        self.inner.append(buf)
    }

    fn size(&self) -> Result<u64> {
        self.inner.size()
    }

    fn sync(&self) -> Result<()> {
        self.owner.maybe_fail(FaultOp::Meta, &self.path)?;
        self.inner.sync()
    }
}

impl Backing for Faulty {
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
        self.shared.maybe_fail(FaultOp::Create, path)?;
        let inner = self.inner.create(path, excl)?;
        Ok(Box::new(FaultyFile {
            inner,
            owner: self.shared.clone(),
            path: path.to_string(),
        }))
    }

    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
        self.shared.maybe_fail(FaultOp::Open, path)?;
        let inner = self.inner.open(path, write)?;
        Ok(Box::new(FaultyFile {
            inner,
            owner: self.shared.clone(),
            path: path.to_string(),
        }))
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        self.shared.maybe_fail(FaultOp::Mkdir, path)?;
        self.inner.mkdir(path)
    }

    fn mkdir_all(&self, path: &str) -> Result<()> {
        self.shared.maybe_fail(FaultOp::Mkdir, path)?;
        self.inner.mkdir_all(path)
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>> {
        self.shared.maybe_fail(FaultOp::Meta, path)?;
        self.inner.readdir(path)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.shared.maybe_fail(FaultOp::Remove, path)?;
        self.inner.unlink(path)
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        self.shared.maybe_fail(FaultOp::Remove, path)?;
        self.inner.rmdir(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.shared.maybe_fail(FaultOp::Meta, from)?;
        self.inner.rename(from, to)
    }

    fn stat(&self, path: &str) -> Result<BackStat> {
        self.inner.stat(path)
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        self.shared.maybe_fail(FaultOp::Meta, path)?;
        self.inner.truncate(path, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Plfs;
    use crate::backing::MemBacking;
    use crate::flags::OpenFlags;

    fn rule(op: FaultOp, path: &str, after: u64, times: u64) -> FaultRule {
        FaultRule {
            op,
            path_contains: path.to_string(),
            after,
            times,
            errno_like: FaultKind::Io,
        }
    }

    #[test]
    fn unarmed_is_transparent() {
        let f = Faulty::new(Arc::new(MemBacking::new()));
        let h = f.create("/x", true).unwrap();
        h.pwrite(b"ok", 0).unwrap();
        assert_eq!(f.injected(), 0);
    }

    #[test]
    fn write_failure_surfaces_through_plfs_api() {
        let faulty = Arc::new(Faulty::new(Arc::new(MemBacking::new())));
        faulty.arm(rule(FaultOp::Write, "dropping.data", 1, u64::MAX));
        let plfs = Plfs::new(faulty.clone());
        let fd = plfs
            .open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, 0)
            .unwrap();
        // First data write succeeds, second hits the injected disk fault.
        plfs.write(&fd, b"fine", 0, 0).unwrap();
        let err = plfs.write(&fd, b"boom", 4, 0).unwrap_err();
        assert!(matches!(err, Error::Io(_)), "{err}");
        assert!(faulty.injected() >= 1);
    }

    /// The create after the `mkdir`: a writer's creator dropping, or the
    /// access file of a read-only `O_CREAT`.
    #[test]
    fn create_failure_fails_open_cleanly() {
        for (flags, file) in [
            (OpenFlags::WRONLY | OpenFlags::CREAT, "dropping.data"),
            (OpenFlags::RDONLY | OpenFlags::CREAT, ".plfsaccess"),
        ] {
            let faulty = Arc::new(Faulty::new(Arc::new(MemBacking::new())));
            faulty.arm(rule(FaultOp::Create, file, 0, u64::MAX));
            let plfs = Plfs::new(faulty.clone());
            let err = match plfs.open("/f", flags, 0) {
                Err(e) => e,
                Ok(_) => panic!("open should fail on injected create error"),
            };
            assert!(matches!(err, Error::Io(_)), "{file}");
            assert!(!faulty.exists("/f"), "{file}: rolled back");
        }
    }

    #[test]
    fn transient_read_failure_then_recovery() {
        let faulty = Arc::new(Faulty::new(Arc::new(MemBacking::new())));
        let plfs = Plfs::new(faulty.clone());
        let fd = plfs
            .open("/f", OpenFlags::RDWR | OpenFlags::CREAT, 0)
            .unwrap();
        plfs.write(&fd, b"payload", 0, 0).unwrap();
        plfs.sync(&fd, 0).unwrap();
        // One read failure, then the storage "recovers".
        faulty.arm(rule(FaultOp::Read, "dropping.data", 0, 1));
        let mut buf = [0u8; 7];
        assert!(plfs.read(&fd, &mut buf, 0).is_err());
        assert_eq!(plfs.read(&fd, &mut buf, 0).unwrap(), 7);
        assert_eq!(&buf, b"payload");
        assert_eq!(faulty.injected(), 1);
    }

    #[test]
    fn path_filter_scopes_injection() {
        let faulty = Arc::new(Faulty::new(Arc::new(MemBacking::new())));
        faulty.arm(rule(FaultOp::Write, "dropping.index", 0, u64::MAX));
        let plfs = Plfs::new(faulty.clone()).with_conf(crate::Conf {
            index_buffer_entries: 1,
            ..Default::default()
        });
        let fd = plfs
            .open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, 0)
            .unwrap();
        // Data write succeeds; the index flush (buffer size 1) fails.
        let err = plfs.write(&fd, b"x", 0, 0).unwrap_err();
        assert!(matches!(err, Error::Io(_)));
    }

    #[test]
    fn enospc_kind_carries_through() {
        let faulty = Faulty::new(Arc::new(MemBacking::new()));
        faulty.arm(FaultRule {
            op: FaultOp::Create,
            path_contains: String::new(),
            after: 0,
            times: 1,
            errno_like: FaultKind::NoSpace,
        });
        let err = match faulty.create("/x", true) {
            Err(e) => e,
            Ok(_) => panic!("create should fail"),
        };
        assert_eq!(err.errno(), 28);
    }

    #[test]
    fn disarm_restores_normal_operation() {
        let faulty = Faulty::new(Arc::new(MemBacking::new()));
        faulty.arm(rule(FaultOp::Create, "", 0, u64::MAX));
        assert!(faulty.create("/x", true).is_err());
        faulty.disarm();
        faulty.create("/x", true).unwrap();
    }
}
