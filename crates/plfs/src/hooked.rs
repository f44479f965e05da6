//! The one forwarding base of the [`Backing`] decorators.
//!
//! [`Hooked`] forwards every [`Backing`] and [`BackingFile`] call to the
//! backing it wraps, after running its [`Hook`] on the call; the handles
//! it opens do the same. A decorator is a hook: [`crate::Faulty`] fails a
//! call by its rules, [`crate::MeterBacking`] counts it.

use crate::backing::{BackStat, Backing, BackingFile};
use crate::error::Result;
use std::sync::Arc;

/// A call a [`Hooked`] backing forwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Call {
    Create,
    Open,
    Mkdir,
    MkdirAll,
    Readdir,
    Unlink,
    Rmdir,
    Rename,
    Stat,
    Exists,
    Truncate,
    Pread,
    Pwrite,
    Append,
    Size,
    Sync,
}

/// What a decorator adds to the calls it forwards.
pub trait Hook: Send + Sync + 'static {
    /// Runs before `call` on `path` (a handle's path for a handle's call;
    /// a rename's source) is forwarded. An error is the call's result, and
    /// the call is not forwarded; a failed `exists` answers false.
    fn before(&self, call: Call, path: &str) -> Result<()>;
}

/// A [`Backing`] that runs its hook on every call, then forwards it.
pub struct Hooked<H> {
    inner: Arc<dyn Backing>,
    hook: Arc<H>,
}

/// A handle of a [`Hooked`] backing.
struct HookedFile<H> {
    inner: Box<dyn BackingFile>,
    hook: Arc<H>,
    path: String,
}

impl<H: Hook> Hooked<H> {
    /// Wrap `inner` with `hook`.
    pub(crate) fn with_hook(inner: Arc<dyn Backing>, hook: H) -> Hooked<H> {
        Hooked {
            inner,
            hook: Arc::new(hook),
        }
    }

    /// The hook, shared with every handle opened through this backing.
    pub(crate) fn hook(&self) -> &H {
        &self.hook
    }

    fn file(
        &self,
        call: Call,
        path: &str,
        open: impl FnOnce() -> Result<Box<dyn BackingFile>>,
    ) -> Result<Box<dyn BackingFile>> {
        self.hook.before(call, path)?;
        Ok(Box::new(HookedFile {
            inner: open()?,
            hook: Arc::clone(&self.hook),
            path: path.to_string(),
        }))
    }
}

impl<H: Hook> BackingFile for HookedFile<H> {
    fn pread(&self, buf: &mut [u8], off: u64) -> Result<usize> {
        self.hook.before(Call::Pread, &self.path)?;
        self.inner.pread(buf, off)
    }

    fn pwrite(&self, buf: &[u8], off: u64) -> Result<usize> {
        self.hook.before(Call::Pwrite, &self.path)?;
        self.inner.pwrite(buf, off)
    }

    fn append(&self, buf: &[u8]) -> Result<u64> {
        self.hook.before(Call::Append, &self.path)?;
        self.inner.append(buf)
    }

    fn size(&self) -> Result<u64> {
        self.hook.before(Call::Size, &self.path)?;
        self.inner.size()
    }

    fn sync(&self) -> Result<()> {
        self.hook.before(Call::Sync, &self.path)?;
        self.inner.sync()
    }
}

impl<H: Hook> Backing for Hooked<H> {
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
        self.file(Call::Create, path, || self.inner.create(path, excl))
    }

    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
        self.file(Call::Open, path, || self.inner.open(path, write))
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        self.hook.before(Call::Mkdir, path)?;
        self.inner.mkdir(path)
    }

    fn mkdir_all(&self, path: &str) -> Result<()> {
        self.hook.before(Call::MkdirAll, path)?;
        self.inner.mkdir_all(path)
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>> {
        self.hook.before(Call::Readdir, path)?;
        self.inner.readdir(path)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.hook.before(Call::Unlink, path)?;
        self.inner.unlink(path)
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        self.hook.before(Call::Rmdir, path)?;
        self.inner.rmdir(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.hook.before(Call::Rename, from)?;
        self.inner.rename(from, to)
    }

    fn stat(&self, path: &str) -> Result<BackStat> {
        self.hook.before(Call::Stat, path)?;
        self.inner.stat(path)
    }

    // Forwarded, not the trait's default through `stat`: an `exists` is a
    // call of its own to the hook.
    fn exists(&self, path: &str) -> bool {
        self.hook.before(Call::Exists, path).is_ok() && self.inner.exists(path)
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        self.hook.before(Call::Truncate, path)?;
        self.inner.truncate(path, len)
    }
}
