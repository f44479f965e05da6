//! Where the mount is: the only configuration.
//!
//! The paper's LDPLFS is configured by one exported variable plus PLFS's
//! `plfsrc`; here the environment is the only way to configure a mount, and
//! it says only where the mount is. [`SHIM_ENV`] names the variables the
//! preload reads — one mount and one backend per process. Every tuning
//! value of the stack is a constant beside the code that uses it:
//! [`crate::writer::DEFAULT_INDEX_BUFFER_ENTRIES`] index entries a writer
//! buffers, `api::META_CACHE_ENTRIES` verdicts in the metadata
//! cache, and the [`crate::container::HOSTDIRS`] hostdirs of every
//! container.

/// The mount point the preload serves (required).
pub const MOUNT_ENV: &str = "LDPLFS_MOUNT";
/// The backend directory holding the mount's containers (required).
pub const BACKEND_ENV: &str = "LDPLFS_BACKEND";
/// The variables the preload reads.
pub const SHIM_ENV: &[&str] = &[MOUNT_ENV, BACKEND_ENV];

/// Does the preload read the variable `name`?
pub fn known_env(name: &str) -> bool {
    SHIM_ENV.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variable_names_are_unique() {
        for (i, name) in SHIM_ENV.iter().enumerate() {
            assert!(name.starts_with("LDPLFS_"), "{name}");
            assert!(!SHIM_ENV[i + 1..].contains(name), "{name}");
        }
    }

    /// Ratchet. Each option doubles the configurations tests and
    /// benchmarks must cover, and none is left that a measurement keeps:
    /// the preload reads where the mount is and nothing else. A new
    /// variable needs two callers that exist today and want different
    /// values — then raise the bound in the same change.
    #[test]
    fn the_option_count_only_goes_down() {
        assert_eq!(SHIM_ENV.len(), 2, "one mount and one backend");
        assert_eq!(SHIM_ENV, [MOUNT_ENV, BACKEND_ENV]);
        for name in SHIM_ENV {
            assert!(known_env(name), "{name}");
        }
        for former in [
            "LDPLFS_META_CACHE",
            "LDPLFS_COMPACT_THRESHOLD",
            "LDPLFS_HOSTDIRS",
            "LDPLFS_MOUNT_",
            "ldplfs_mount",
            "",
        ] {
            assert!(!known_env(former), "{former}");
        }
    }
}
