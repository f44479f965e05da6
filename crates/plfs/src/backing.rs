//! The backing-store abstraction.
//!
//! A PLFS container is a directory tree of ordinary files ("droppings") that
//! live on some underlying file system. The C library talks to that file
//! system through POSIX; we abstract it behind [`Backing`] so the identical
//! container logic can run over the real OS file system
//! ([`RealBacking`]) or over the `simfs` timing simulator.
//!
//! All paths handed to a backing are *backend-relative*, forward-slash
//! separated, and absolute within the backend (they start with `/`).

use crate::error::{Error, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fs;
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Metadata returned by [`Backing::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackStat {
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// Whether the path is a directory.
    pub is_dir: bool,
    /// Modification stamp; backing-defined units, only compared for ordering.
    pub mtime: u64,
}

/// An open file on a backing store.
///
/// Handles are `Send + Sync`; positional reads and writes take explicit
/// offsets so concurrent use never races on a shared cursor, and
/// [`BackingFile::append`] provides the atomic end-of-log append that the
/// log-structured write path depends on.
pub trait BackingFile: Send + Sync {
    /// Read up to `buf.len()` bytes at `off`; returns bytes read (0 at EOF).
    fn pread(&self, buf: &mut [u8], off: u64) -> Result<usize>;
    /// Write all of `buf` at `off`.
    fn pwrite(&self, buf: &[u8], off: u64) -> Result<usize>;
    /// Atomically append `buf` to the end of the file, returning the offset
    /// the data landed at.
    fn append(&self, buf: &[u8]) -> Result<u64>;
    /// Current size in bytes.
    fn size(&self) -> Result<u64>;
    /// Flush to stable storage.
    fn sync(&self) -> Result<()>;
}

/// A backing store: the slice of POSIX that the container layer needs.
pub trait Backing: Send + Sync {
    /// Create a file. With `excl`, fail if it already exists; otherwise
    /// truncate any existing file.
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>>;
    /// Open an existing file. `write` requests write permission.
    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>>;
    /// Create a directory; parent must exist. `Exists` whenever `stat`
    /// would find anything at `path` — `create_container` probes with it.
    fn mkdir(&self, path: &str) -> Result<()>;
    /// Create a directory and any missing ancestors.
    fn mkdir_all(&self, path: &str) -> Result<()>;
    /// List the names (not paths) of entries in a directory.
    fn readdir(&self, path: &str) -> Result<Vec<String>>;
    /// Remove a file.
    fn unlink(&self, path: &str) -> Result<()>;
    /// Remove an empty directory.
    fn rmdir(&self, path: &str) -> Result<()>;
    /// Rename a file or directory tree.
    fn rename(&self, from: &str, to: &str) -> Result<()>;
    /// Stat a path.
    fn stat(&self, path: &str) -> Result<BackStat>;
    /// Whether a path exists at all.
    fn exists(&self, path: &str) -> bool {
        self.stat(path).is_ok()
    }
    /// Truncate (or extend with zeros) a file by path.
    fn truncate(&self, path: &str, len: u64) -> Result<()>;
    /// Notify the backing that `path` is sealed: its writer has closed and
    /// the file is immutable from here on. A hint, not a barrier — plain
    /// backings ignore it; [`crate::TieredBacking`] uses it to schedule a
    /// background destage to the slow tier.
    fn seal(&self, path: &str) -> Result<()> {
        let _ = path;
        Ok(())
    }
}

/// Recursively delete a directory tree through any backing.
///
/// Tolerates children vanishing concurrently (a racing destage, unlink, or
/// background compaction): a `NotFound` on any step means someone else
/// already removed that piece, which is exactly the goal state.
pub fn remove_tree(b: &dyn Backing, path: &str) -> Result<()> {
    let st = match b.stat(path) {
        Ok(st) => st,
        Err(Error::NotFound(_)) => return Ok(()),
        Err(e) => return Err(e),
    };
    let not_found_ok = |r: Result<()>| match r {
        Err(Error::NotFound(_)) => Ok(()),
        other => other,
    };
    if !st.is_dir {
        return not_found_ok(b.unlink(path));
    }
    let names = match b.readdir(path) {
        Ok(names) => names,
        Err(Error::NotFound(_)) => return Ok(()),
        Err(e) => return Err(e),
    };
    for name in names {
        let child = join(path, &name);
        remove_tree(b, &child)?;
    }
    not_found_ok(b.rmdir(path))
}

/// Join a backend-relative directory path and an entry name.
pub fn join(dir: &str, name: &str) -> String {
    if dir.ends_with('/') {
        format!("{dir}{name}")
    } else {
        format!("{dir}/{name}")
    }
}

// ---------------------------------------------------------------------------
// RealBacking: std::fs implementation rooted at a host directory.
// ---------------------------------------------------------------------------

/// Backing store over the real OS file system, rooted at a directory.
///
/// Backend-relative paths are resolved strictly underneath `root`; `..`
/// components are rejected so a container can never escape its backend.
pub struct RealBacking {
    root: PathBuf,
    mtime_counter: AtomicU64,
}

impl RealBacking {
    /// Create a backing rooted at `root`, creating the directory if needed.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(Error::Io)?;
        Ok(RealBacking {
            root,
            mtime_counter: AtomicU64::new(1),
        })
    }

    /// The host directory this backing is rooted at.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn resolve(&self, path: &str) -> Result<PathBuf> {
        let mut out = self.root.clone();
        for comp in path.split('/') {
            match comp {
                "" | "." => {}
                ".." => return Err(Error::InvalidArg("path escapes backend root")),
                c => out.push(c),
            }
        }
        Ok(out)
    }
}

struct RealFile {
    file: fs::File,
    /// Serialises [`BackingFile::append`]'s seek-to-end + write, the only
    /// use of the shared cursor; positional I/O is one lock-free syscall.
    append: Mutex<()>,
    writable: bool,
}

impl RealFile {
    fn boxed(file: fs::File, writable: bool) -> Box<dyn BackingFile> {
        Box::new(RealFile {
            file,
            append: Mutex::new(()),
            writable,
        })
    }
}

impl BackingFile for RealFile {
    fn pread(&self, buf: &mut [u8], off: u64) -> Result<usize> {
        let mut total = 0;
        while total < buf.len() {
            match self.file.read_at(&mut buf[total..], off + total as u64) {
                Ok(0) => break,
                Ok(n) => total += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(Error::Io(e)),
            }
        }
        Ok(total)
    }

    fn pwrite(&self, buf: &[u8], off: u64) -> Result<usize> {
        if !self.writable {
            return Err(Error::BadMode("file opened read-only"));
        }
        self.file.write_all_at(buf, off).map_err(Error::Io)?;
        Ok(buf.len())
    }

    fn append(&self, buf: &[u8]) -> Result<u64> {
        if !self.writable {
            return Err(Error::BadMode("file opened read-only"));
        }
        let _cursor = self.append.lock();
        let mut f = &self.file;
        let off = f.seek(SeekFrom::End(0)).map_err(Error::Io)?;
        f.write_all(buf).map_err(Error::Io)?;
        Ok(off)
    }

    fn size(&self) -> Result<u64> {
        Ok(self.file.metadata().map_err(Error::Io)?.len())
    }

    fn sync(&self) -> Result<()> {
        self.file.sync_data().map_err(Error::Io)
    }
}

impl Backing for RealBacking {
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
        let p = self.resolve(path)?;
        let mut opts = fs::OpenOptions::new();
        opts.read(true).write(true);
        if excl {
            opts.create_new(true);
        } else {
            opts.create(true).truncate(true);
        }
        let file = opts.open(&p).map_err(|e| annotate(e, path))?;
        // relaxed: MemBacking mtime is a logical clock; the atomic add alone gives distinct, increasing stamps
        self.mtime_counter.fetch_add(1, Ordering::Relaxed);
        Ok(RealFile::boxed(file, true))
    }

    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
        let p = self.resolve(path)?;
        let file = fs::OpenOptions::new()
            .read(true)
            .write(write)
            .open(&p)
            .map_err(|e| annotate(e, path))?;
        Ok(RealFile::boxed(file, write))
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        fs::create_dir(self.resolve(path)?).map_err(|e| annotate(e, path))
    }

    fn mkdir_all(&self, path: &str) -> Result<()> {
        fs::create_dir_all(self.resolve(path)?).map_err(|e| annotate(e, path))
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>> {
        let mut names = Vec::new();
        for ent in fs::read_dir(self.resolve(path)?).map_err(|e| annotate(e, path))? {
            names.push(
                ent.map_err(Error::Io)?
                    .file_name()
                    .to_string_lossy()
                    .into_owned(),
            );
        }
        names.sort_unstable();
        Ok(names)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        fs::remove_file(self.resolve(path)?).map_err(|e| annotate(e, path))
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        fs::remove_dir(self.resolve(path)?).map_err(|e| annotate(e, path))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        fs::rename(self.resolve(from)?, self.resolve(to)?).map_err(|e| annotate(e, from))
    }

    fn stat(&self, path: &str) -> Result<BackStat> {
        let md = fs::metadata(self.resolve(path)?).map_err(|e| annotate(e, path))?;
        let mtime = md
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        Ok(BackStat {
            size: md.len(),
            is_dir: md.is_dir(),
            mtime,
        })
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        let f = fs::OpenOptions::new()
            .write(true)
            .open(self.resolve(path)?)
            .map_err(|e| annotate(e, path))?;
        f.set_len(len).map_err(Error::Io)
    }
}

fn annotate(e: std::io::Error, path: &str) -> Error {
    match e.kind() {
        std::io::ErrorKind::NotFound => Error::NotFound(path.to_string()),
        std::io::ErrorKind::AlreadyExists => Error::Exists(path.to_string()),
        _ => Error::Io(e),
    }
}

// ---------------------------------------------------------------------------
// MemBacking: an in-memory backing used heavily by unit and property tests.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct MemNode {
    data: Vec<u8>,
}

/// A purely in-memory [`Backing`], used by tests and as the reference model
/// in property tests. Directories are tracked explicitly so `mkdir`/`rmdir`
/// semantics match a real file system.
#[derive(Default)]
pub struct MemBacking {
    inner: Mutex<MemInner>,
}

#[derive(Default)]
struct MemInner {
    files: HashMap<String, std::sync::Arc<Mutex<MemNode>>>,
    dirs: std::collections::BTreeSet<String>,
    clock: u64,
}

impl MemBacking {
    /// Create an empty in-memory backing with just the root directory.
    pub fn new() -> Self {
        let b = MemBacking::default();
        b.inner.lock().dirs.insert("/".to_string());
        b
    }

    fn norm(path: &str) -> String {
        let mut parts: Vec<&str> = Vec::new();
        for c in path.split('/') {
            match c {
                "" | "." => {}
                ".." => {
                    parts.pop();
                }
                c => parts.push(c),
            }
        }
        if parts.is_empty() {
            "/".to_string()
        } else {
            format!("/{}", parts.join("/"))
        }
    }

    fn parent(path: &str) -> String {
        match path.rfind('/') {
            Some(0) => "/".to_string(),
            Some(i) => path[..i].to_string(),
            None => "/".to_string(),
        }
    }
}

struct MemFile {
    node: std::sync::Arc<Mutex<MemNode>>,
    writable: bool,
}

impl BackingFile for MemFile {
    fn pread(&self, buf: &mut [u8], off: u64) -> Result<usize> {
        let node = self.node.lock();
        let len = node.data.len() as u64;
        if off >= len {
            return Ok(0);
        }
        let n = ((len - off) as usize).min(buf.len());
        buf[..n].copy_from_slice(&node.data[off as usize..off as usize + n]);
        Ok(n)
    }

    fn pwrite(&self, buf: &[u8], off: u64) -> Result<usize> {
        if !self.writable {
            return Err(Error::BadMode("file opened read-only"));
        }
        let mut node = self.node.lock();
        let end = off as usize + buf.len();
        if node.data.len() < end {
            node.data.resize(end, 0);
        }
        node.data[off as usize..end].copy_from_slice(buf);
        Ok(buf.len())
    }

    fn append(&self, buf: &[u8]) -> Result<u64> {
        if !self.writable {
            return Err(Error::BadMode("file opened read-only"));
        }
        let mut node = self.node.lock();
        let off = node.data.len() as u64;
        node.data.extend_from_slice(buf);
        Ok(off)
    }

    fn size(&self) -> Result<u64> {
        Ok(self.node.lock().data.len() as u64)
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

impl Backing for MemBacking {
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
        let path = Self::norm(path);
        let mut inner = self.inner.lock();
        if !inner.dirs.contains(&Self::parent(&path)) {
            return Err(Error::NotFound(path));
        }
        if inner.dirs.contains(&path) {
            return Err(Error::IsDir(path));
        }
        if inner.files.contains_key(&path) {
            if excl {
                return Err(Error::Exists(path));
            }
            inner.files.get(&path).unwrap().lock().data.clear();
        } else {
            inner.files.insert(
                path.clone(),
                std::sync::Arc::new(Mutex::new(MemNode::default())),
            );
        }
        inner.clock += 1;
        let node = inner.files.get(&path).unwrap().clone();
        Ok(Box::new(MemFile {
            node,
            writable: true,
        }))
    }

    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
        let path = Self::norm(path);
        let inner = self.inner.lock();
        if inner.dirs.contains(&path) {
            return Err(Error::IsDir(path));
        }
        let node = inner
            .files
            .get(&path)
            .ok_or_else(|| Error::NotFound(path.clone()))?
            .clone();
        Ok(Box::new(MemFile {
            node,
            writable: write,
        }))
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        let path = Self::norm(path);
        let mut inner = self.inner.lock();
        if inner.dirs.contains(&path) || inner.files.contains_key(&path) {
            return Err(Error::Exists(path));
        }
        if !inner.dirs.contains(&Self::parent(&path)) {
            return Err(Error::NotFound(Self::parent(&path)));
        }
        inner.dirs.insert(path);
        inner.clock += 1;
        Ok(())
    }

    fn mkdir_all(&self, path: &str) -> Result<()> {
        let path = Self::norm(path);
        let mut inner = self.inner.lock();
        let mut cur = String::new();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            cur.push('/');
            cur.push_str(comp);
            if inner.files.contains_key(&cur) {
                return Err(Error::NotDir(cur));
            }
            inner.dirs.insert(cur.clone());
        }
        inner.clock += 1;
        Ok(())
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>> {
        let path = Self::norm(path);
        let inner = self.inner.lock();
        if !inner.dirs.contains(&path) {
            return Err(if inner.files.contains_key(&path) {
                Error::NotDir(path)
            } else {
                Error::NotFound(path)
            });
        }
        let prefix = if path == "/" {
            "/".to_string()
        } else {
            format!("{path}/")
        };
        let mut names: Vec<String> = inner
            .dirs
            .iter()
            .map(|d| d.as_str())
            .chain(inner.files.keys().map(|f| f.as_str()))
            .filter_map(|p| {
                let rest = p.strip_prefix(&prefix)?;
                if rest.is_empty() || rest.contains('/') {
                    None
                } else {
                    Some(rest.to_string())
                }
            })
            .collect();
        names.sort_unstable();
        names.dedup();
        Ok(names)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        let path = Self::norm(path);
        let mut inner = self.inner.lock();
        if inner.dirs.contains(&path) {
            return Err(Error::IsDir(path));
        }
        inner
            .files
            .remove(&path)
            .map(|_| ())
            .ok_or(Error::NotFound(path))
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        let path = Self::norm(path);
        let mut inner = self.inner.lock();
        if !inner.dirs.contains(&path) {
            return Err(Error::NotFound(path));
        }
        let prefix = format!("{path}/");
        let occupied = inner.dirs.iter().any(|d| d.starts_with(&prefix))
            || inner.files.keys().any(|f| f.starts_with(&prefix));
        if occupied {
            return Err(Error::NotEmpty(path));
        }
        inner.dirs.remove(&path);
        Ok(())
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let from = Self::norm(from);
        let to = Self::norm(to);
        let mut inner = self.inner.lock();
        if let Some(node) = inner.files.remove(&from) {
            inner.files.insert(to, node);
            return Ok(());
        }
        if inner.dirs.contains(&from) {
            let prefix = format!("{from}/");
            let moved_dirs: Vec<String> = inner
                .dirs
                .iter()
                .filter(|d| **d == from || d.starts_with(&prefix))
                .cloned()
                .collect();
            for d in moved_dirs {
                inner.dirs.remove(&d);
                let new = format!("{to}{}", &d[from.len()..]);
                inner.dirs.insert(new);
            }
            let moved_files: Vec<String> = inner
                .files
                .keys()
                .filter(|f| f.starts_with(&prefix))
                .cloned()
                .collect();
            for f in moved_files {
                let node = inner.files.remove(&f).unwrap();
                let new = format!("{to}{}", &f[from.len()..]);
                inner.files.insert(new, node);
            }
            return Ok(());
        }
        Err(Error::NotFound(from))
    }

    fn stat(&self, path: &str) -> Result<BackStat> {
        let path = Self::norm(path);
        let inner = self.inner.lock();
        if inner.dirs.contains(&path) {
            return Ok(BackStat {
                size: 0,
                is_dir: true,
                mtime: inner.clock,
            });
        }
        if let Some(node) = inner.files.get(&path) {
            return Ok(BackStat {
                size: node.lock().data.len() as u64,
                is_dir: false,
                mtime: inner.clock,
            });
        }
        Err(Error::NotFound(path))
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        let path = Self::norm(path);
        let inner = self.inner.lock();
        let node = inner
            .files
            .get(&path)
            .ok_or_else(|| Error::NotFound(path.clone()))?;
        node.lock().data.resize(len as usize, 0);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backings() -> Vec<(&'static str, Box<dyn Backing>)> {
        // One directory per call: tests run on parallel threads.
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "plfs-backing-test-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        vec![
            ("mem", Box::new(MemBacking::new()) as Box<dyn Backing>),
            ("real", Box::new(RealBacking::new(dir).unwrap())),
        ]
    }

    #[test]
    fn create_write_read_roundtrip() {
        for (name, b) in backings() {
            let f = b.create("/a", true).unwrap();
            f.pwrite(b"hello world", 0).unwrap();
            let mut buf = [0u8; 5];
            assert_eq!(f.pread(&mut buf, 6).unwrap(), 5, "{name}");
            assert_eq!(&buf, b"world", "{name}");
        }
    }

    #[test]
    fn append_returns_prior_size() {
        for (name, b) in backings() {
            let f = b.create("/log", true).unwrap();
            assert_eq!(f.append(b"aaaa").unwrap(), 0, "{name}");
            assert_eq!(f.append(b"bb").unwrap(), 4, "{name}");
            assert_eq!(f.size().unwrap(), 6, "{name}");
        }
    }

    #[test]
    fn excl_create_fails_on_existing() {
        for (name, b) in backings() {
            b.create("/x", true).unwrap();
            assert!(
                matches!(b.create("/x", true), Err(Error::Exists(_))),
                "{name}"
            );
            // Non-exclusive create truncates.
            let f = b.create("/x", false).unwrap();
            assert_eq!(f.size().unwrap(), 0, "{name}");
        }
    }

    #[test]
    fn open_missing_is_not_found() {
        for (name, b) in backings() {
            assert!(
                matches!(b.open("/nope", false), Err(Error::NotFound(_))),
                "{name}"
            );
        }
    }

    #[test]
    fn readdir_lists_sorted_names() {
        for (name, b) in backings() {
            b.mkdir("/d").unwrap();
            b.create("/d/z", true).unwrap();
            b.create("/d/a", true).unwrap();
            b.mkdir("/d/sub").unwrap();
            assert_eq!(b.readdir("/d").unwrap(), vec!["a", "sub", "z"], "{name}");
        }
    }

    #[test]
    fn mkdir_requires_parent() {
        for (name, b) in backings() {
            assert!(b.mkdir("/no/parent").is_err(), "{name}");
            b.mkdir_all("/no/parent").unwrap();
            assert!(b.stat("/no/parent").unwrap().is_dir, "{name}");
        }
    }

    #[test]
    fn rmdir_refuses_non_empty() {
        for (name, b) in backings() {
            b.mkdir("/d").unwrap();
            b.create("/d/f", true).unwrap();
            assert!(b.rmdir("/d").is_err(), "{name}");
            b.unlink("/d/f").unwrap();
            b.rmdir("/d").unwrap();
            assert!(!b.exists("/d"), "{name}");
        }
    }

    #[test]
    fn rename_moves_directory_trees() {
        for (name, b) in backings() {
            b.mkdir_all("/t/sub").unwrap();
            let f = b.create("/t/sub/f", true).unwrap();
            f.pwrite(b"data", 0).unwrap();
            drop(f);
            b.rename("/t", "/renamed").unwrap();
            assert!(!b.exists("/t"), "{name}");
            let f = b.open("/renamed/sub/f", false).unwrap();
            let mut buf = [0u8; 4];
            f.pread(&mut buf, 0).unwrap();
            assert_eq!(&buf, b"data", "{name}");
        }
    }

    #[test]
    fn truncate_shrinks_and_extends() {
        for (name, b) in backings() {
            let f = b.create("/t", true).unwrap();
            f.pwrite(b"abcdef", 0).unwrap();
            drop(f);
            b.truncate("/t", 3).unwrap();
            assert_eq!(b.stat("/t").unwrap().size, 3, "{name}");
            b.truncate("/t", 10).unwrap();
            assert_eq!(b.stat("/t").unwrap().size, 10, "{name}");
            let f = b.open("/t", false).unwrap();
            let mut buf = [0u8; 10];
            f.pread(&mut buf, 0).unwrap();
            assert_eq!(&buf[..3], b"abc", "{name}");
            assert_eq!(&buf[3..], &[0u8; 7], "{name}");
        }
    }

    #[test]
    fn remove_tree_deletes_recursively() {
        for (name, b) in backings() {
            b.mkdir_all("/c/h1").unwrap();
            b.create("/c/h1/d1", true).unwrap();
            b.create("/c/access", true).unwrap();
            remove_tree(b.as_ref(), "/c").unwrap();
            assert!(!b.exists("/c"), "{name}");
        }
    }

    /// A backing whose readdir reports one phantom child that no longer
    /// exists — the shape a concurrent destage/unlink race leaves behind.
    struct PhantomChild(MemBacking);

    impl Backing for PhantomChild {
        fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
            self.0.create(path, excl)
        }
        fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
            self.0.open(path, write)
        }
        fn mkdir(&self, path: &str) -> Result<()> {
            self.0.mkdir(path)
        }
        fn mkdir_all(&self, path: &str) -> Result<()> {
            self.0.mkdir_all(path)
        }
        fn readdir(&self, path: &str) -> Result<Vec<String>> {
            let mut names = self.0.readdir(path)?;
            names.push("vanished-by-destage".to_string());
            Ok(names)
        }
        fn unlink(&self, path: &str) -> Result<()> {
            self.0.unlink(path)
        }
        fn rmdir(&self, path: &str) -> Result<()> {
            self.0.rmdir(path)
        }
        fn rename(&self, from: &str, to: &str) -> Result<()> {
            self.0.rename(from, to)
        }
        fn stat(&self, path: &str) -> Result<BackStat> {
            self.0.stat(path)
        }
        fn truncate(&self, path: &str, len: u64) -> Result<()> {
            self.0.truncate(path, len)
        }
    }

    #[test]
    fn remove_tree_tolerates_vanishing_children() {
        let b = PhantomChild(MemBacking::new());
        b.mkdir_all("/c/h1").unwrap();
        b.create("/c/h1/d1", true).unwrap();
        // Every readdir reports a child that stat/unlink will miss; the
        // removal must shrug and still take the tree down.
        remove_tree(&b, "/c").unwrap();
        assert!(!b.exists("/c"));
        // Removing an already-gone tree is a no-op, not an error.
        remove_tree(&b, "/c").unwrap();
    }

    #[test]
    fn real_backing_rejects_escape() {
        let dir = std::env::temp_dir().join(format!("plfs-escape-{}", std::process::id()));
        let b = RealBacking::new(&dir).unwrap();
        assert!(b.create("/../evil", true).is_err());
    }

    #[test]
    fn mem_pread_past_eof_returns_zero() {
        let b = MemBacking::new();
        let f = b.create("/f", true).unwrap();
        f.pwrite(b"xy", 0).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(f.pread(&mut buf, 2).unwrap(), 0);
        assert_eq!(f.pread(&mut buf, 100).unwrap(), 0);
    }
}
