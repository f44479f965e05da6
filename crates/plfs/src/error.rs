//! Error type shared by the PLFS crate.
//!
//! The real PLFS C library reports errors as negated `errno` values; we keep a
//! structured enum but provide an [`Error::errno`] projection so the LDPLFS
//! shim can hand faithful error codes back to POSIX callers.

use std::fmt;

/// Errors produced by container and API operations.
#[derive(Debug)]
pub enum Error {
    /// Path does not exist (`ENOENT`).
    NotFound(String),
    /// Path already exists (`EEXIST`).
    Exists(String),
    /// Operated on a directory where a file was required (`EISDIR`).
    IsDir(String),
    /// Operated on a file where a directory was required (`ENOTDIR`).
    NotDir(String),
    /// The path exists but is not a PLFS container.
    NotContainer(String),
    /// File not opened in a mode permitting the operation (`EBADF`).
    BadMode(&'static str),
    /// Invalid argument (`EINVAL`).
    InvalidArg(&'static str),
    /// Directory not empty (`ENOTEMPTY`).
    NotEmpty(String),
    /// On-disk structure failed validation.
    Corrupt(String),
    /// Error from the backing store.
    Io(std::io::Error),
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    /// The bytes cannot move in the kernel (`EXDEV`): a caller of
    /// `copy_file_range` moves them with reads and writes instead.
    pub(crate) fn no_kernel_copy() -> Error {
        Error::Io(std::io::Error::from_raw_os_error(libc_errno::EXDEV))
    }

    /// Map to the closest POSIX `errno`, as the C library would return.
    pub fn errno(&self) -> i32 {
        match self {
            Error::NotFound(_) => libc_errno::ENOENT,
            Error::Exists(_) => libc_errno::EEXIST,
            Error::IsDir(_) => libc_errno::EISDIR,
            Error::NotDir(_) => libc_errno::ENOTDIR,
            Error::NotContainer(_) => libc_errno::EINVAL,
            Error::BadMode(_) => libc_errno::EBADF,
            Error::InvalidArg(_) => libc_errno::EINVAL,
            Error::NotEmpty(_) => libc_errno::ENOTEMPTY,
            Error::Corrupt(_) => libc_errno::EIO,
            Error::Io(e) => e.raw_os_error().unwrap_or(libc_errno::EIO),
        }
    }
}

/// The handful of `errno` constants we need, kept dependency-free.
#[allow(missing_docs)]
pub mod libc_errno {
    pub const ENOENT: i32 = 2;
    pub const EIO: i32 = 5;
    pub const EBADF: i32 = 9;
    pub const EEXIST: i32 = 17;
    pub const EXDEV: i32 = 18;
    pub const ENOTDIR: i32 = 20;
    pub const EISDIR: i32 = 21;
    pub const EINVAL: i32 = 22;
    pub const ENOTEMPTY: i32 = 39;
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NotFound(p) => write!(f, "no such file or directory: {p}"),
            Error::Exists(p) => write!(f, "file exists: {p}"),
            Error::IsDir(p) => write!(f, "is a directory: {p}"),
            Error::NotDir(p) => write!(f, "not a directory: {p}"),
            Error::NotContainer(p) => write!(f, "not a PLFS container: {p}"),
            Error::BadMode(m) => write!(f, "bad file mode: {m}"),
            Error::InvalidArg(m) => write!(f, "invalid argument: {m}"),
            Error::NotEmpty(p) => write!(f, "directory not empty: {p}"),
            Error::Corrupt(m) => write!(f, "corrupt container: {m}"),
            Error::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::NotFound => Error::NotFound(String::new()),
            std::io::ErrorKind::AlreadyExists => Error::Exists(String::new()),
            _ => Error::Io(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_mapping_matches_posix() {
        assert_eq!(Error::NotFound("x".into()).errno(), 2);
        assert_eq!(Error::Exists("x".into()).errno(), 17);
        assert_eq!(Error::IsDir("x".into()).errno(), 21);
        assert_eq!(Error::BadMode("r").errno(), 9);
        assert_eq!(Error::NotEmpty("d".into()).errno(), 39);
    }

    #[test]
    fn io_error_kind_translates_to_structured_variant() {
        let not_found = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        assert!(matches!(Error::from(not_found), Error::NotFound(_)));
        let exists = std::io::Error::new(std::io::ErrorKind::AlreadyExists, "there");
        assert!(matches!(Error::from(exists), Error::Exists(_)));
    }

    #[test]
    fn display_is_informative() {
        let msg = Error::NotContainer("/plfs/f".into()).to_string();
        assert!(msg.contains("/plfs/f"));
    }
}
