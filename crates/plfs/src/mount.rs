//! Mount configuration: the `plfsrc` file and backend spreading.
//!
//! Real PLFS is configured by a `plfsrc` file naming mount points, backend
//! directories, and layout knobs. We parse the same line-oriented format:
//!
//! ```text
//! # checkpoint mount
//! mount_point /plfs
//! backends /panfs/vol1/be,/panfs/vol2/be
//! num_hostdirs 32
//! index_buffer_entries 4096
//! workload shared_file
//! ```
//!
//! Multiple `mount_point` lines start new mounts. When a mount lists several
//! backends, containers keep their skeleton on the first (canonical) backend
//! and hostdirs are spread across all of them — [`SpreadBacking`] implements
//! that routing as a [`Backing`] decorator, so the container layer is
//! oblivious.

use crate::backing::{BackStat, Backing, BackingFile};
use crate::conf::{self, Conf};
use crate::container::{ContainerParams, LayoutMode, HOSTDIR_PREFIX};
use crate::error::{Error, Result};
use crate::writer::DEFAULT_INDEX_BUFFER_ENTRIES;
use std::sync::Arc;

/// Configuration of one PLFS mount.
#[derive(Debug, Clone)]
pub struct MountSpec {
    /// Logical mount point prefix (e.g. `/plfs`).
    pub mount_point: String,
    /// Backend directories (host paths for a real backing).
    pub backends: Vec<String>,
    /// Container parameters for files created under this mount.
    pub params: ContainerParams,
    /// Index write-buffer threshold in entries.
    pub index_buffer_entries: usize,
}

/// Parsed `plfsrc` contents: the mounts plus the one global [`Conf`].
#[derive(Debug, Clone)]
pub struct PlfsRc {
    /// All configured mounts, in file order.
    pub mounts: Vec<MountSpec>,
    /// The global knobs ([`conf::KNOBS`] keys), over [`Conf::default`].
    pub conf: Conf,
}

impl PlfsRc {
    /// Parse the line-oriented `plfsrc` format. Unknown keys are ignored
    /// (like the C parser; [`PlfsRc::parse_with_warnings`] names them);
    /// malformed values are errors.
    pub fn parse(text: &str) -> Result<PlfsRc> {
        PlfsRc::parse_with_warnings(text).map(|(rc, _)| rc)
    }

    /// [`PlfsRc::parse`], plus one line-numbered warning per key that is
    /// neither a [`conf::KNOBS`] row nor a per-mount key — a typo there
    /// would otherwise disable a mechanism without a word.
    pub fn parse_with_warnings(text: &str) -> Result<(PlfsRc, Vec<String>)> {
        let mut rc = PlfsRc {
            mounts: Vec::new(),
            conf: Conf::default(),
        };
        let mut warnings = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once(char::is_whitespace) else {
                return Err(config_error("plfsrc line missing value", lineno));
            };
            let value = value.trim();
            if key == "mount_point" {
                rc.mounts.push(MountSpec {
                    mount_point: value.trim_end_matches('/').to_string(),
                    backends: Vec::new(),
                    params: ContainerParams::default(),
                    index_buffer_entries: DEFAULT_INDEX_BUFFER_ENTRIES,
                });
                continue;
            }
            if let Some(knob) = conf::knob(key) {
                knob.set(&mut rc.conf, value).map_err(|e| match e {
                    Error::Config(m) => config_error(&m, lineno),
                    other => other,
                })?;
                continue;
            }
            // Per-mount keys need a mount; an unknown key is only ever a
            // warning, wherever it sits (a global key this parser no longer
            // has usually sits above the first mount).
            let m = rc
                .mounts
                .last_mut()
                .ok_or_else(|| config_error("plfsrc key appears before any mount_point", lineno));
            match key {
                "backends" => {
                    m?.backends = value
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                }
                "num_hostdirs" => {
                    // Checked: `as u32` would truncate 2^32+1 to a
                    // silently-accepted 1.
                    m?.params.num_hostdirs = u32::try_from(parse_num(value, lineno)?)
                        .map_err(|_| config_error("num_hostdirs out of range", lineno))?;
                }
                "index_buffer_entries" => {
                    m?.index_buffer_entries = usize::try_from(parse_num(value, lineno)?)
                        .map_err(|_| config_error("index_buffer_entries out of range", lineno))?;
                }
                "workload" | "mode" => {
                    m?.params.mode = match value {
                        "shared_file" | "n-1" | "both" => LayoutMode::Both,
                        "file_per_proc" | "n-n" | "partitioned" => LayoutMode::PartitionedOnly,
                        "log" => LayoutMode::LogStructured,
                        _ => return Err(config_error("unknown workload mode", lineno)),
                    };
                }
                // Keys the real plfsrc has and this one does not: accepted,
                // but never silently.
                _ => warnings.push(format!("line {}: unknown key `{key}` ignored", lineno + 1)),
            }
        }
        for m in &rc.mounts {
            if m.backends.is_empty() {
                return Err(Error::InvalidArg("mount_point with no backends"));
            }
            if m.params.num_hostdirs == 0 {
                return Err(Error::InvalidArg("num_hostdirs must be nonzero"));
            }
        }
        rc.conf = rc.conf.validated();
        Ok((rc, warnings))
    }

    /// Find the mount whose mount point prefixes `path` (longest match).
    pub fn mount_for(&self, path: &str) -> Option<&MountSpec> {
        self.mounts
            .iter()
            .filter(|m| path_has_prefix(path, &m.mount_point))
            .max_by_key(|m| m.mount_point.len())
    }
}

fn parse_num(v: &str, lineno: usize) -> Result<u64> {
    v.parse()
        .map_err(|_| config_error("bad numeric value in plfsrc", lineno))
}

/// A malformed-plfsrc error naming the offending (1-based) line, so a bad
/// knob in a 300-line site config is findable. Stays EINVAL like every
/// other config error.
fn config_error(msg: &str, lineno: usize) -> Error {
    Error::Config(format!("{msg}, line {}", lineno + 1))
}

/// True if `path` is `prefix` or lives underneath it.
pub fn path_has_prefix(path: &str, prefix: &str) -> bool {
    if prefix == "/" {
        return path.starts_with('/');
    }
    path == prefix || (path.starts_with(prefix) && path.as_bytes().get(prefix.len()) == Some(&b'/'))
}

// ---------------------------------------------------------------------------
// SpreadBacking: hostdir spreading across multiple backends.
// ---------------------------------------------------------------------------

/// Routes container paths across several backings: `hostdir.N` (and anything
/// under it) goes to backend `N % k`; everything else (the access file
/// and the lifecycle names) lives on the canonical backend 0. `readdir` of a container
/// directory unions the canonical listing with the hostdirs of the others.
pub struct SpreadBacking {
    backends: Vec<Arc<dyn Backing>>,
}

impl SpreadBacking {
    /// Build from at least one backend.
    pub fn new(backends: Vec<Arc<dyn Backing>>) -> Result<SpreadBacking> {
        if backends.is_empty() {
            return Err(Error::InvalidArg(
                "SpreadBacking needs at least one backend",
            ));
        }
        Ok(SpreadBacking { backends })
    }

    /// Number of backends spread over.
    pub fn fan_out(&self) -> usize {
        self.backends.len()
    }

    fn route(&self, path: &str) -> &dyn Backing {
        self.backends[self.route_idx(path)].as_ref()
    }

    fn route_idx(&self, path: &str) -> usize {
        // Find a `/hostdir.N` component and route on N.
        for comp in path.split('/') {
            if let Some(n) = comp.strip_prefix(HOSTDIR_PREFIX) {
                if let Ok(n) = n.parse::<u64>() {
                    return (n % self.backends.len() as u64) as usize;
                }
            }
        }
        0
    }
}

impl Backing for SpreadBacking {
    fn create(&self, path: &str, excl: bool) -> Result<Box<dyn BackingFile>> {
        self.route(path).create(path, excl)
    }

    fn open(&self, path: &str, write: bool) -> Result<Box<dyn BackingFile>> {
        self.route(path).open(path, write)
    }

    fn mkdir(&self, path: &str) -> Result<()> {
        let idx = self.route_idx(path);
        if idx != 0 {
            // Ensure ancestors exist on the non-canonical backend.
            if let Some(parent) = path.rfind('/') {
                if parent > 0 {
                    self.backends[idx].mkdir_all(&path[..parent])?;
                }
            }
        }
        self.backends[idx].mkdir(path)
    }

    fn mkdir_all(&self, path: &str) -> Result<()> {
        self.route(path).mkdir_all(path)
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>> {
        let idx = self.route_idx(path);
        if idx != 0 {
            return self.backends[idx].readdir(path);
        }
        let mut names = self.backends[0].readdir(path)?;
        if self.backends.len() > 1 {
            for be in &self.backends[1..] {
                if let Ok(extra) = be.readdir(path) {
                    names.extend(extra.into_iter().filter(|n| n.starts_with(HOSTDIR_PREFIX)));
                }
            }
            names.sort_unstable();
            names.dedup();
        }
        Ok(names)
    }

    fn unlink(&self, path: &str) -> Result<()> {
        self.route(path).unlink(path)
    }

    fn rmdir(&self, path: &str) -> Result<()> {
        self.route(path).rmdir(path)
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        // A file (a close's marker → drop) lives on one backend; only a
        // directory rename must move every backend's piece of the tree.
        let home = self.route(from);
        if home.stat(from).is_ok_and(|st| !st.is_dir) {
            return home.rename(from, to);
        }
        let mut renamed_any = false;
        for be in &self.backends {
            match be.rename(from, to) {
                Ok(()) => renamed_any = true,
                Err(Error::NotFound(_)) => {}
                Err(e) => return Err(e),
            }
        }
        if renamed_any {
            Ok(())
        } else {
            Err(Error::NotFound(from.to_string()))
        }
    }

    fn stat(&self, path: &str) -> Result<BackStat> {
        self.route(path).stat(path)
    }

    fn truncate(&self, path: &str, len: u64) -> Result<()> {
        self.route(path).truncate(path, len)
    }

    fn seal(&self, path: &str) -> Result<()> {
        self.route(path).seal(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Plfs;
    use crate::backing::MemBacking;
    use crate::flags::OpenFlags;

    #[test]
    fn parse_full_plfsrc() {
        let rc = PlfsRc::parse(
            "# comment\n\
             submit_depth 8\n\
             mount_point /plfs\n\
             backends /be1,/be2\n\
             num_hostdirs 16\n\
             index_buffer_entries 128\n\
             workload shared_file\n\
             mount_point /plfs2/\n\
             backends /other\n",
        )
        .unwrap();
        assert_eq!(rc.conf.submit_depth, 8);
        assert_eq!(rc.mounts.len(), 2);
        let m = &rc.mounts[0];
        assert_eq!(m.mount_point, "/plfs");
        assert_eq!(m.backends, vec!["/be1", "/be2"]);
        assert_eq!(m.params.num_hostdirs, 16);
        assert_eq!(m.index_buffer_entries, 128);
        assert_eq!(rc.mounts[1].mount_point, "/plfs2");
    }

    /// Every `KNOBS` row parses from a plfsrc line into its field, defaults
    /// when absent, and fails naming the line on garbage.
    #[test]
    fn every_knob_row_parses_from_a_plfsrc_line() {
        use crate::conf::{sample, Kind, KNOBS};
        let mount = "mount_point /p\nbackends /b\n";
        let default = PlfsRc::parse(mount).unwrap().conf;
        assert_eq!(default, Conf::default(), "a bare mount is the default conf");
        for k in KNOBS {
            let sample = sample(k);
            let rc = PlfsRc::parse(&format!("{} {sample}\n{mount}", k.key)).unwrap();
            assert_ne!(rc.conf, default, "{} must reach a field", k.key);
            assert_eq!(k.render(&rc.conf), sample, "{}", k.key);
            // Global keys may also follow a mount; the error names line 4.
            for junk in ["-1", "lots", "18446744073709551616"] {
                let err = PlfsRc::parse(&format!("# c\n{mount}{} {junk}\n", k.key)).unwrap_err();
                let msg = err.to_string();
                assert!(msg.contains("line 4") && msg.contains(k.key), "{msg}");
                assert_eq!(err.errno(), 22, "malformed plfsrc stays EINVAL");
            }
            if matches!(k.kind, Kind::Num { .. }) {
                PlfsRc::parse(&format!("{} 18446744073709551615\n{mount}", k.key)).unwrap();
            }
        }
    }

    #[test]
    fn knob_semantics_survive_the_file() {
        // Aliases parse; `backend batched` alone turns the queue on.
        let rc = PlfsRc::parse("backend burst_buffer\nmount_point /p\nbackends /a,/b\n").unwrap();
        assert_eq!(rc.conf.backend, crate::conf::BackendKind::Tiered);
        let rc = PlfsRc::parse("backend batched\nmount_point /p\nbackends /a\n").unwrap();
        assert!(rc.conf.batching());
        // The strict-stat escape hatch.
        let rc = PlfsRc::parse("meta_cache_entries 0\nmount_point /p\nbackends /b\n").unwrap();
        assert!(!rc.conf.meta_cache_enabled());
    }

    #[test]
    fn unknown_keys_are_ignored_but_named() {
        let (rc, warnings) = PlfsRc::parse_with_warnings(
            "mount_point /p\nbackends /b\nglobal_summary_dir /x\nthreadpool_sise 8\n",
        )
        .unwrap();
        assert_eq!(rc.mounts.len(), 1);
        assert_eq!(rc.conf, Conf::default(), "the typo reached nothing");
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("line 3") && warnings[0].contains("global_summary_dir"));
        assert!(warnings[1].contains("line 4") && warnings[1].contains("threadpool_sise"));
        // A key this parser used to have, where global keys sit: the same.
        let (rc, warnings) =
            PlfsRc::parse_with_warnings("threadpool_size 4\nmount_point /p\nbackends /b\n")
                .unwrap();
        assert_eq!(rc.conf, Conf::default());
        assert_eq!(warnings, ["line 1: unknown key `threadpool_size` ignored"]);
        // A clean file has nothing to say.
        let (_, warnings) = PlfsRc::parse_with_warnings("mount_point /p\nbackends /b\n").unwrap();
        assert!(warnings.is_empty());
    }

    #[test]
    fn errors_report_plfsrc_line_number() {
        // The bad number sits on (1-based) line 3.
        let err = PlfsRc::parse("# header\nmount_point /p\nnum_hostdirs pony\nbackends /b\n")
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 3"), "error must name the line: {msg}");
        assert_eq!(err.errno(), 22, "malformed plfsrc stays EINVAL");
        // Every in-loop error site carries its line.
        let err = PlfsRc::parse("backend never\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = PlfsRc::parse("mount_point /p\nbackends /b\nworkload strange\n").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        let err = PlfsRc::parse("submit_depth\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = PlfsRc::parse("backends /b\n").unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = PlfsRc::parse("mount_point /p\nsubmit_depth maybe\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn parse_rejects_mount_without_backends() {
        assert!(PlfsRc::parse("mount_point /plfs\n").is_err());
    }

    #[test]
    fn parse_rejects_keys_before_mount() {
        assert!(PlfsRc::parse("backends /be\n").is_err());
    }

    #[test]
    fn mount_for_picks_longest_prefix() {
        let rc =
            PlfsRc::parse("mount_point /plfs\nbackends /a\nmount_point /plfs/deep\nbackends /b\n")
                .unwrap();
        assert_eq!(rc.mount_for("/plfs/deep/f").unwrap().backends, vec!["/b"]);
        assert_eq!(rc.mount_for("/plfs/f").unwrap().backends, vec!["/a"]);
        assert!(
            rc.mount_for("/plfsx/f").is_none(),
            "no partial-component match"
        );
        assert!(rc.mount_for("/elsewhere").is_none());
    }

    #[test]
    fn path_prefix_respects_components() {
        assert!(path_has_prefix("/plfs/a", "/plfs"));
        assert!(path_has_prefix("/plfs", "/plfs"));
        assert!(!path_has_prefix("/plfsfoo", "/plfs"));
        assert!(path_has_prefix("/any/thing", "/"));
    }

    #[test]
    fn spread_backing_spreads_hostdirs() {
        let b1 = Arc::new(MemBacking::new());
        let b2 = Arc::new(MemBacking::new());
        let spread = SpreadBacking::new(vec![b1.clone(), b2.clone()]).unwrap();
        let plfs = Plfs::new(Arc::new(spread)).with_params(ContainerParams {
            num_hostdirs: 8,
            mode: LayoutMode::Both,
        });
        let flags = OpenFlags::RDWR | OpenFlags::CREAT;
        let fd = plfs.open("/f", flags, 0).unwrap();
        for pid in 1..16u64 {
            fd.add_ref(pid);
        }
        for pid in 0..16u64 {
            plfs.write(&fd, &[pid as u8; 10], pid * 10, pid).unwrap();
        }
        for pid in 0..16u64 {
            plfs.close(&fd, pid).unwrap();
        }
        // Skeleton only on canonical backend.
        assert!(b1.exists("/f/.plfsaccess"));
        assert!(!b2.exists("/f/.plfsaccess"));
        // Odd hostdirs landed on backend 2.
        let on_b2 = (0..8u32).any(|n| b2.exists(&format!("/f/hostdir.{n}")));
        assert!(on_b2, "no hostdir spread to second backend");
        // And the file reads back correctly through the spread.
        let fd = plfs.open("/f", OpenFlags::RDONLY, 99).unwrap();
        let mut buf = vec![0u8; 160];
        assert_eq!(plfs.read(&fd, &mut buf, 0).unwrap(), 160);
        for pid in 0..16usize {
            assert!(buf[pid * 10..pid * 10 + 10].iter().all(|&x| x == pid as u8));
        }
    }

    #[test]
    fn spread_backing_requires_a_backend() {
        assert!(SpreadBacking::new(vec![]).is_err());
    }
}
