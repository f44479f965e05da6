//! Shim construction helpers.
//!
//! The real LDPLFS is configured by exporting a single environment variable
//! and reading the system `plfsrc`. [`LdPlfsBuilder`] is the programmatic
//! equivalent; [`from_plfsrc`] wires a parsed `plfsrc` to backing stores
//! produced by a caller-supplied factory (real directories, in-memory, or
//! simulated).

use crate::posix::{Errno, PosixLayer, PosixResult};
use crate::shim::{LdPlfs, ShimMount};
use plfs::{Backing, Conf, MountSpec, Plfs, PlfsRc, SpreadBacking};
use std::sync::Arc;

/// Incremental builder for an [`LdPlfs`] shim.
pub struct LdPlfsBuilder {
    under: Arc<dyn PosixLayer>,
    mounts: Vec<ShimMount>,
}

impl LdPlfsBuilder {
    /// Start from the underlying ("real libc") layer.
    pub fn new(under: Arc<dyn PosixLayer>) -> LdPlfsBuilder {
        LdPlfsBuilder {
            under,
            mounts: Vec::new(),
        }
    }

    /// Add a mount serving `mount_point` with an existing [`Plfs`].
    pub fn mount(mut self, mount_point: impl Into<String>, plfs: Plfs) -> LdPlfsBuilder {
        self.mounts.push(ShimMount {
            mount_point: mount_point.into().trim_end_matches('/').to_string(),
            plfs,
        });
        self
    }

    /// Finish, opening the template reserved fds duplicate on the
    /// underlying layer.
    pub fn build(self) -> PosixResult<LdPlfs> {
        if self.mounts.is_empty() {
            return Err(Errno::EINVAL);
        }
        LdPlfs::new(self.under, self.mounts)
    }
}

/// Resolve a run of backend paths into one backing: a single path maps
/// directly, several become a [`SpreadBacking`].
fn spread(
    paths: &[String],
    backing_for: &mut dyn FnMut(&str) -> Arc<dyn Backing>,
) -> PosixResult<Arc<dyn Backing>> {
    if paths.len() == 1 {
        Ok(backing_for(&paths[0]))
    } else {
        let backends: Vec<Arc<dyn Backing>> = paths.iter().map(|b| backing_for(b)).collect();
        Ok(Arc::new(SpreadBacking::new(backends).map_err(Errno::from)?))
    }
}

/// Build a [`Plfs`] instance for one parsed [`MountSpec`] under the global
/// `conf`, resolving backend paths through `backing_for` and spreading the
/// mount over all of them.
pub fn plfs_for_spec(
    spec: &MountSpec,
    conf: &Conf,
    backing_for: &mut dyn FnMut(&str) -> Arc<dyn Backing>,
) -> PosixResult<Plfs> {
    Ok(Plfs::new(spread(&spec.backends, backing_for)?)
        .with_params(spec.params)
        .with_conf(Conf {
            index_buffer_entries: spec.index_buffer_entries,
            ..*conf
        }))
}

/// Build a shim from `plfsrc` text. `backing_for` maps each backend path in
/// the file to a backing store.
pub fn from_plfsrc(
    under: Arc<dyn PosixLayer>,
    plfsrc: &str,
    mut backing_for: impl FnMut(&str) -> Arc<dyn Backing>,
) -> PosixResult<LdPlfs> {
    let rc = PlfsRc::parse(plfsrc).map_err(Errno::from)?;
    let mut builder = LdPlfsBuilder::new(under);
    for spec in &rc.mounts {
        let plfs = plfs_for_spec(spec, &rc.conf, &mut backing_for)?;
        builder = builder.mount(spec.mount_point.clone(), plfs);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::posix::{OpenFlags, PosixLayer};
    use crate::realposix::RealPosix;
    use plfs::MemBacking;

    fn under(name: &str) -> Arc<dyn PosixLayer> {
        let dir =
            std::env::temp_dir().join(format!("ldplfs-config-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(RealPosix::rooted(dir).unwrap())
    }

    #[test]
    fn builder_requires_a_mount() {
        assert!(LdPlfsBuilder::new(under("empty")).build().is_err());
    }

    #[test]
    fn builder_trims_trailing_slash() {
        let s = LdPlfsBuilder::new(under("trim"))
            .mount("/plfs/", Plfs::new(Arc::new(MemBacking::new())))
            .build()
            .unwrap();
        assert_eq!(s.mounts()[0].mount_point, "/plfs");
        let fd = s
            .open("/plfs/f", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
            .unwrap();
        s.close(fd).unwrap();
        assert!(s.mounts()[0].plfs.is_container("/f"));
    }

    #[test]
    fn from_plfsrc_builds_all_mounts() {
        let rc = "mount_point /ckpt\nbackends /be1\nnum_hostdirs 4\n\
                  mount_point /viz\nbackends /be2,/be3\n";
        let s = from_plfsrc(under("rc"), rc, |_| Arc::new(MemBacking::new())).unwrap();
        assert_eq!(s.mounts().len(), 2);
        assert_eq!(s.mounts()[0].plfs.defaults().num_hostdirs, 4);
        // The two-backend mount got a spread backing; writing works.
        let fd = s
            .open("/viz/dump", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
            .unwrap();
        s.write(fd, b"spread").unwrap();
        s.close(fd).unwrap();
        assert_eq!(s.stat("/viz/dump").unwrap().size, 6);
    }

    /// One hop: whatever the file's global keys parse to is, field for
    /// field, what each mount's `Plfs` runs with — plus the mount's own
    /// index buffer depth. (That every key reaches its field is `plfs`'s
    /// table-driven parser test.)
    #[test]
    fn from_plfsrc_hands_the_parsed_conf_to_every_mount() {
        let rc = "compact_droppings_threshold 8\nmeta_cache_entries 0\n\
                  mount_point /a\nbackends /f,/s\nindex_buffer_entries 99\n\
                  mount_point /b\nbackends /f2,/s2\n";
        let parsed = PlfsRc::parse(rc).unwrap();
        assert_ne!(parsed.conf, Conf::default());
        let s = from_plfsrc(under("hop"), rc, |_| Arc::new(MemBacking::new())).unwrap();
        for (m, depth) in s
            .mounts()
            .iter()
            .zip([99, parsed.conf.index_buffer_entries])
        {
            let expect = Conf {
                index_buffer_entries: depth,
                ..parsed.conf
            };
            assert_eq!(*m.plfs.conf(), expect, "{}", m.mount_point);
        }
        // The spread mount still round-trips data end to end.
        let fd = s
            .open("/a/dump", OpenFlags::RDWR | OpenFlags::CREAT, 0o644)
            .unwrap();
        s.write(fd, b"staged bytes").unwrap();
        s.lseek(fd, 0, crate::posix::Whence::Set).unwrap();
        let mut buf = [0u8; 12];
        assert_eq!(s.read(fd, &mut buf).unwrap(), 12);
        assert_eq!(&buf, b"staged bytes");
        s.close(fd).unwrap();
        assert_eq!(s.stat("/a/dump").unwrap().size, 12);
    }

    #[test]
    fn defaults_have_one_source() {
        let from_file = PlfsRc::parse("mount_point /m\nbackends /b\n").unwrap().conf;
        let from_env = Conf::from_env(Vec::<(String, String)>::new());
        let from_new = *Plfs::new(Arc::new(MemBacking::new())).conf();
        let s = from_plfsrc(under("one"), "mount_point /m\nbackends /b\n", |_| {
            Arc::new(MemBacking::new())
        })
        .unwrap();
        for c in [from_file, from_env, from_new, *s.mounts()[0].plfs.conf()] {
            assert_eq!(c, Conf::default());
        }
    }

    #[test]
    fn from_plfsrc_rejects_bad_config() {
        assert!(from_plfsrc(under("bad"), "mount_point /x\n", |_| {
            Arc::new(MemBacking::new())
        })
        .is_err());
    }
}
