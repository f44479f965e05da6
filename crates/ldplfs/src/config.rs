//! Shim construction.
//!
//! The real LDPLFS is configured by exporting a single environment variable
//! and reading the system `plfsrc`; the `LD_PRELOAD` library here reads its
//! environment alone (`plfs::conf`). [`LdPlfsBuilder`] is the programmatic
//! equivalent, over any backing store (real directories, in-memory, or
//! simulated).

use crate::posix::{Errno, PosixLayer, PosixResult};
use crate::shim::{LdPlfs, ShimMount};
use plfs::Plfs;
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
    fn defaults_have_one_source() {
        use plfs::Conf;
        let (from_env, _) = Conf::from_env(Vec::<(String, String)>::new());
        let s = LdPlfsBuilder::new(under("one"))
            .mount("/m", Plfs::new(Arc::new(MemBacking::new())))
            .build()
            .unwrap();
        for c in [from_env, *s.mounts()[0].plfs.conf()] {
            assert_eq!(c, Conf::default());
        }
    }
}
