//! Container layout: the on-backing directory structure of a PLFS file.
//!
//! A logical file `/mnt/foo` maps to a *container* directory on the backend:
//!
//! ```text
//! foo/                                        container directory
//!   .plfsaccess                               marker of one fixed text; absent if a writer's open made foo
//!   dropping.data.creator.0                   the creator's data dropping, made by its open; alone: it is open
//!   dropping.index.creator.0                  its index, if needed before close; the creator is open
//!   dropping.index.creator.0.<eof>.<bytes>    its index once it closed; fast-stat info
//!   dropping.index.creator.0.<eof>.i<stamp>   the same, its records all logical == physical
//!   open.<pid>.<n>                            empty: hostdir writer (pid, n) is open
//!   meta.<eof>.<bytes>.<pid>.<n>              empty: that writer closed; fast-stat info
//!   merged                                    the merged index, left by the last writer's close
//!   hostdir.0/ … hostdir.K-1/                 subdirectories holding everyone else's droppings
//!     dropping.data.<pid>.<n>                 log-structured data
//!     dropping.index.<pid>.<n>                index records for that data
//! ```
//!
//! **The marker rule.** A directory is a container when it holds the
//! access file or the creator's data dropping, [`CREATOR_DATA`] (a regular
//! file: an application's container of that name is a directory). The
//! access file is a marker and nothing more: [`ACCESS_TEXT`], checked
//! ([`validate_marker`]) and otherwise unread. A writable `open(O_CREAT)`
//! makes a container with its creator's data dropping in place of the
//! access file (`create_container_as`); every other create writes the
//! access file. The creator's pair has one name
//! in every container, so a cold probe `stat`s it instead of listing for
//! it. Only an unlink leaves the directory unmarked: whatever else removes
//! the creator's data dropping of a container it alone marks publishes the
//! access file before it ([`publish_access_file`]).
//!
//! Droppings mirror Figure 1 of the paper (and the real PLFS layout): n
//! writers produce at least n data droppings and n index droppings, spread
//! over [`HOSTDIRS`] subdirectories. Two departures, both so that one
//! `readdir` of the container directory answers every metadata question
//! (is it a container, who is writing, how big is it, where are the
//! droppings) and a small file costs no directory of its own:
//!
//! * Lifecycle state — the paper's `openhosts/` and `meta/` subdirectories
//!   — is *names* in the container directory, and close is at most one
//!   `rename`.
//! * The writer that *made* the container (its `open`'s `mkdir` succeeded:
//!   [`Creation::Made`]) keeps a **top-level pair**, [`CREATOR_PAIR`]: its
//!   two droppings sit in the container directory, with no hostdir and no
//!   empty marker — the index dropping's own name is its lifecycle. The
//!   data dropping is made by the open, for the first writer opened
//!   through its fd (one that never writes publishes an empty closed index
//!   at close). Close creates the index under its closed name, carrying
//!   `<eof>.<bytes>` — or, when every record maps a logical offset to the
//!   same physical offset, `<eof>.i<stamp>`, a name that *is* the index
//!   ([`Closed`]): the fast-stat drop. Until
//!   then the data dropping alone says the creator is open — or, if a full
//!   buffer, a sync or a truncate needed the index first, the index under
//!   its un-suffixed name, which close renames. (A name apart from
//!   `meta.*`, so clearing the drops can never delete records.) Every
//!   other writer — one that joined an existing container, a reopener, a
//!   bare [`crate::WriteFile::create`] — keeps the hostdir pair with its
//!   `open.*`/`meta.*` names. Which shape a writer gets is what the code
//!   observed, never a knob.
//!
//! **The merged index.** The close that leaves no writer open, having
//! logged at least a full index buffer of records itself, publishes the
//! view as [`MERGED_FILE`] ([`publish_merged`]) when that is smaller than
//! the index droppings it summarises; a creator's pair alone never gets
//! one. The file names the data droppings it covers: a reader builds its
//! view on it and merges on top the index droppings of the rest, open
//! writers' included ([`build_global_index`]). That rests on one
//! invariant: **a data dropping the file names is never written again
//! under that name** — every writer creates its pair exclusively, and a
//! truncate, `O_TRUNC`, `compact` or `repair` deletes the file first. Any
//! other `merged.*` name is stray, never read.
//!
//! A container made before the creator's pair had a name of its own holds
//! it as `dropping.{data,index}.<pid>.0` beside the access file, and reads
//! as any other pair. A legacy container still opens, stats (slow path: no
//! drops) and unlinks; its subdirectories are never read. A legacy access
//! file's `mode` line must say `both`, the one layout there is, and its
//! `num_hostdirs` line must be a nonzero count, which places no writer:
//! readers list the hostdirs there are, and a writer joining any container
//! goes to `hostdir.{hostdir_for_pid(pid, HOSTDIRS)}`.

use crate::backing::{join, remove_tree, Backing, BackingFile};
use crate::error::{Error, Result};
use crate::index::{
    observe_timestamp, GlobalIndex, IndexBuilder, IndexEntry, EXTENT_BYTES, RECORD_SIZE,
};
use std::borrow::Cow;
use std::cell::Cell;
use std::fmt::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Name of the marker file that identifies a container.
pub const ACCESS_FILE: &str = ".plfsaccess";
/// Prefix of open-writer markers.
pub const OPEN_PREFIX: &str = "open.";
/// Prefix of fast-stat drops left at close time.
pub const META_PREFIX: &str = "meta.";
/// Prefix of hostdir subdirectories.
pub const HOSTDIR_PREFIX: &str = "hostdir.";
/// Prefix of data droppings.
pub const DATA_PREFIX: &str = "dropping.data.";
/// Prefix of index droppings.
pub const INDEX_PREFIX: &str = "dropping.index.";
/// Name of the merged index file.
pub const MERGED_FILE: &str = "merged";
/// Prefix of a stray merged-index name, never read: a publisher's leftover
/// temporary, or an older build's `merged.<fingerprint>`.
pub const MERGED_PREFIX: &str = "merged.";

/// Number of `hostdir.N` subdirectories writers are spread over, in every
/// container: the real PLFS default.
pub const HOSTDIRS: u32 = 32;

/// Which of `num_hostdirs` hostdirs a pid's droppings land in (the
/// library's writers: of [`HOSTDIRS`]).
pub fn hostdir_for_pid(pid: u64, num_hostdirs: u32) -> u32 {
    // Real PLFS hashes the hostname; we hash the pid with a splitmix step so
    // consecutive pids spread evenly.
    let mut x = pid.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((x ^ (x >> 31)) % num_hostdirs as u64) as u32
}

/// `dir/<name>`, `name` formatted straight into the path: one allocation.
fn path_of(dir: &str, name: std::fmt::Arguments) -> String {
    // Room for any name this module makes, two `u64`s included.
    let mut path = String::with_capacity(dir.len() + 80);
    path.push_str(dir);
    if !dir.ends_with('/') {
        path.push('/');
    }
    path.write_fmt(name)
        .expect("formatting into a String cannot fail");
    path
}

/// Path of the dropping named `prefix` + the `<pid>.<seq>` of `(pid, seq)`
/// in its hostdir.
fn hostdir_dropping_path(container: &str, prefix: &str, pid: u64, seq: u32) -> String {
    let hd = hostdir_for_pid(pid, HOSTDIRS);
    path_of(
        container,
        format_args!("{HOSTDIR_PREFIX}{hd}/{prefix}{pid}.{seq}"),
    )
}

/// Path of a data dropping for `(pid, seq)`.
pub fn data_dropping_path(container: &str, pid: u64, seq: u32) -> String {
    hostdir_dropping_path(container, DATA_PREFIX, pid, seq)
}

/// Path of an index dropping for `(pid, seq)`.
pub fn index_dropping_path(container: &str, pid: u64, seq: u32) -> String {
    hostdir_dropping_path(container, INDEX_PREFIX, pid, seq)
}

/// The `<pid>.<seq>` place of the creator's pair: one per container, as
/// only one open makes it, so its names need no pid — and a probe can
/// `stat` the data dropping without listing.
pub const CREATOR_PAIR: &str = "creator.0";

/// Name of the creator's data dropping in the container directory.
pub const CREATOR_DATA: &str = "dropping.data.creator.0";

/// Name of the creator's index dropping under its open (un-suffixed) name.
pub const CREATOR_INDEX: &str = "dropping.index.creator.0";

/// What a closed top-level index's name carries past its pair: its
/// fast-stat drop, in one of two spellings.
///
/// * `<eof>.<bytes>`: the writer's records end at `eof`, and its data
///   dropping holds `bytes`.
/// * `<eof>.i<stamp>`, the **identity spelling**: every record maps a
///   logical offset to the same physical offset, so the records say no
///   more than "logical `[0, eof)` is physical `[0, eof)`" (`bytes` is
///   `eof`), and the newest is stamped `stamp`. The name is then the whole
///   index: a reader that lists the pair alone builds its view from the
///   name ([`build_global_index`]). The records are written all the same.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed {
    /// Logical end of the writer's records.
    pub eof: u64,
    /// Bytes of its data dropping.
    pub bytes: u64,
    /// The identity spelling's stamp; `None` for `<eof>.<bytes>`.
    pub identity: Option<u64>,
}

impl Closed {
    /// The `<eof>.<bytes>` spelling.
    pub fn sized(eof: u64, bytes: u64) -> Closed {
        Closed {
            eof,
            bytes,
            identity: None,
        }
    }

    /// The identity spelling of records that end at `eof`, the newest
    /// stamped `stamp`.
    pub fn identity(eof: u64, stamp: u64) -> Closed {
        Closed {
            eof,
            bytes: eof,
            identity: Some(stamp),
        }
    }
}

impl std::fmt::Display for Closed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.identity {
            Some(stamp) => write!(f, "{}.i{stamp}", self.eof),
            None => write!(f, "{}.{}", self.eof, self.bytes),
        }
    }
}

/// The creator's index dropping under its closed name: the fast-stat drop
/// of a top-level pair.
pub fn creator_closed_index_path(container: &str, closed: Closed) -> String {
    path_of(container, format_args!("{CREATOR_INDEX}.{closed}"))
}

/// An index dropping's name taken apart: the `<pid>.<seq>` it shares with
/// its data dropping and — on a top-level index whose writer closed — what
/// its name carries, in either spelling.
pub fn parse_index_name(name: &str) -> Option<(&str, Option<Closed>)> {
    let rest = name.strip_prefix(INDEX_PREFIX)?;
    let mut dots = rest.match_indices('.').map(|(i, _)| i);
    match (dots.next()?, dots.next(), dots.next(), dots.next()) {
        (_, None, ..) => Some((rest, None)),
        (_, Some(b), Some(c), None) => {
            let eof = rest[b + 1..c].parse().ok()?;
            let last = &rest[c + 1..];
            let closed = match last.strip_prefix('i') {
                Some(stamp) => Closed::identity(eof, stamp.parse().ok()?),
                None => Closed::sized(eof, last.parse().ok()?),
            };
            Some((&rest[..b], Some(closed)))
        }
        _ => None,
    }
}

/// Is the backend path a PLFS container? The marker rule for a path
/// nothing is known about (`probe`).
pub fn is_container(b: &dyn Backing, path: &str) -> bool {
    probe(b, path).marker.is_some()
}

/// What marks a directory as a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Marker {
    /// The access file, checked lazily ([`validate_marker`]).
    AccessFile,
    /// The creator's data dropping and no access file: nothing to check.
    Dropping,
}

/// The marker rule over one directory's listing, trusting names: the
/// access file or the creator's data dropping. What a caller that already
/// has a verdict (or was handed a container) reads off a listing.
fn marked(names: &[String]) -> bool {
    names.iter().any(|n| n == ACCESS_FILE || n == CREATOR_DATA)
}

/// What a cold [`probe`] of a backend path found.
#[derive(Debug, Default)]
pub(crate) struct Probe {
    /// Is there anything at the path?
    pub(crate) exists: bool,
    /// Is it a directory (containers are directories too)?
    pub(crate) is_dir: bool,
    /// What marks it a container, if anything does.
    pub(crate) marker: Option<Marker>,
    /// The directory's listing, when the probe took one: of a container
    /// its creator's dropping marks, the lifecycle names a `stat` reads.
    pub(crate) names: Option<Vec<String>>,
}

/// The marker rule for a path nothing is known about. One `exists` of the
/// access file: there, the path is a container. Failing it, the path's
/// listing, which also says it is a directory; and if that names the
/// creator's data dropping, one `stat` confirming it is a regular file — a
/// plain directory holding an application's file of that name holds a
/// container, which is a directory. Only a path that cannot be listed for
/// a reason other than its absence costs a `stat` of its own.
pub(crate) fn probe(b: &dyn Backing, path: &str) -> Probe {
    if b.exists(&join(path, ACCESS_FILE)) {
        return Probe {
            exists: true,
            is_dir: true,
            marker: Some(Marker::AccessFile),
            names: None,
        };
    }
    match b.readdir(path) {
        Ok(names) => {
            let marker = (names.iter().any(|n| n == CREATOR_DATA) && creator_marks(b, path))
                .then_some(Marker::Dropping);
            Probe {
                exists: true,
                is_dir: true,
                marker,
                names: Some(names),
            }
        }
        Err(e) if e.errno() == crate::error::libc_errno::ENOENT => Probe::default(),
        // A file, or something in the way of listing: a failed stat means
        // "missing".
        Err(_) => match b.stat(path) {
            Ok(st) => Probe {
                exists: true,
                is_dir: st.is_dir,
                ..Probe::default()
            },
            Err(_) => Probe::default(),
        },
    }
}

/// Is `e` what a path that is missing, or no directory, answers
/// (`ENOENT`, `ENOTDIR`)?
fn no_such_dir(e: &Error) -> bool {
    use crate::error::libc_errno::{ENOENT, ENOTDIR};
    [ENOENT, ENOTDIR].contains(&e.errno())
}

/// Is the creator's data dropping of `dir` there, and a regular file?
fn creator_marks(b: &dyn Backing, dir: &str) -> bool {
    b.stat(&join(dir, CREATOR_DATA)).is_ok_and(|st| !st.is_dir)
}

/// What every access file this build writes holds: the header and the
/// hostdir count an older build's reader wants, [`HOSTDIRS`].
pub const ACCESS_TEXT: &[u8] = b"plfs-container v1\nnum_hostdirs 32\n";

/// Check an access file's text: the header, then lines an older build may
/// have written — a nonzero `num_hostdirs` (placing no writer) and the
/// classic layout's `mode both`; any other layout is corrupt, as no reader
/// here knows where its droppings put data.
fn validate_access_text(data: &[u8]) -> Result<()> {
    let text =
        std::str::from_utf8(data).map_err(|_| Error::Corrupt("access file is not UTF-8".into()))?;
    if !text.starts_with("plfs-container v1") {
        return Err(Error::Corrupt("bad access file header".into()));
    }
    for line in text.lines().skip(1) {
        let mut it = line.split_whitespace();
        match (it.next(), it.next()) {
            (Some("num_hostdirs"), Some(v)) if !v.parse::<u32>().is_ok_and(|n| n > 0) => {
                return Err(Error::Corrupt(format!(
                    "num_hostdirs {v} is not a nonzero count"
                )))
            }
            (Some("mode"), Some(other)) if other != "both" => {
                return Err(Error::Corrupt(format!("unsupported layout mode {other}")))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Whether a [`create_container`] call made the container or found it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Creation {
    /// This call's `mkdir` succeeded: the container is new and the caller
    /// its creator, entitled to the top-level dropping pair.
    Made,
    /// The container was already there, or a concurrent creator won the
    /// `mkdir`.
    Joined,
}

/// A new container's first data dropping, [`CREATOR_DATA`] in the
/// container directory: made by the open that made the container, for the
/// first writer opened through its fd ([`crate::WriteFile`]'s top-level
/// pair).
pub(crate) struct CreatorDropping {
    /// The data dropping, open for writing.
    pub(crate) file: Box<dyn BackingFile>,
    /// Its path, made once for the create and kept for the writer.
    pub(crate) path: String,
}

impl CreatorDropping {
    /// Create it, exclusively, in `container`.
    pub(crate) fn create(b: &dyn Backing, container: &str) -> Result<CreatorDropping> {
        let path = join(container, CREATOR_DATA);
        let file = b.create(&path, true)?;
        Ok(CreatorDropping { file, path })
    }
}

/// Create a container directory at `path`: the directory and its access
/// file, nothing else — hostdirs are made by writers, lifecycle names by
/// open and close. Says whether this call made it or found it (checking
/// the marker of one it found).
pub fn create_container(b: &dyn Backing, path: &str, excl: bool) -> Result<Creation> {
    create_container_as(b, path, excl, false).map(|(how, _)| how)
}

/// [`create_container`] for an open that will write: a container it makes
/// gets its [`CreatorDropping`] in place of the access file — the dropping
/// marks it. With `writer` false this is [`create_container`].
pub(crate) fn create_container_as(
    b: &dyn Backing,
    path: &str,
    excl: bool,
    writer: bool,
) -> Result<(Creation, Option<CreatorDropping>)> {
    match b.mkdir(path) {
        Ok(()) => {}
        // Already there, or lost the mkdir to a concurrent creator.
        Err(Error::Exists(_)) if !excl => {
            await_creator(b, path)?;
            return Ok((Creation::Joined, None));
        }
        Err(e) => return Err(e),
    }
    // A bare directory would read as nascent to every later creator: on
    // failure take back down what this call made (best effort), and only
    // that — a marker whose exclusive create failed is not ours, and
    // `rmdir` refuses a directory that holds anything.
    let made = match writer {
        true => CreatorDropping::create(b, path).map(Some),
        false => write_access_file(b, path).map(|()| None),
    };
    match made {
        Ok(dropping) => Ok((Creation::Made, dropping)),
        Err(e) => {
            let _ = b.rmdir(path);
            Err(e)
        }
    }
}

/// Create the access file of the container at `path`, exclusively, and
/// write [`ACCESS_TEXT`] into it; a failed write takes the file back down.
fn write_access_file(b: &dyn Backing, path: &str) -> Result<()> {
    let access = join(path, ACCESS_FILE);
    let f = b.create(&access, true)?;
    if let Err(e) = f.pwrite(ACCESS_TEXT, 0) {
        let _ = b.unlink(&access);
        return Err(e);
    }
    Ok(())
}

/// Give the container at `path`, which has no access file, one — written
/// whole and renamed into place ([`publish_file`]), so no reader of a
/// container that already exists ever sees it empty. What anything but an
/// unlink does before it removes the creator's data dropping of a
/// container that dropping alone marks (two racing publishers write the
/// same bytes).
pub fn publish_access_file(b: &dyn Backing, path: &str) -> Result<()> {
    publish_file(b, path, ACCESS_FILE, ACCESS_TEXT)
}

/// Write `bytes` into `dir` as `name`, whole: under a temporary name of
/// its own, `<name>.tmp.<pid>.<n>`, renamed into place. A failure takes
/// the temporary name back down.
fn publish_file(b: &dyn Backing, dir: &str, name: &str, bytes: &[u8]) -> Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // relaxed: only uniqueness of the number matters
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let tmp = path_of(dir, format_args!("{name}.tmp.{}.{n}", std::process::id()));
    let written = b.create(&tmp, true).and_then(|f| f.pwrite(bytes, 0));
    let published = written.and_then(|_| b.rename(&tmp, &join(dir, name)));
    if published.is_err() {
        let _ = b.unlink(&tmp);
    }
    published
}

/// How long a non-exclusive creator waits for a concurrent creator of the
/// same container to finish its skeleton.
const CREATE_RACE_WAIT: Duration = Duration::from_secs(1);

/// Wait for the marker of the container at `path`, which exists but may
/// still be mid-creation by another process: the skeleton is `mkdir` then
/// the access file (create, then its bytes) or the creator's data
/// dropping, and a creator that merely lost the race must not fail a
/// *non*-exclusive create with `EEXIST`. Checks the marker, retrying
/// (bounded) while neither is there or the access file is still empty —
/// but only while `path` looks like a nascent container; anything else in
/// the way is `Exists` at once, and an error other than a missing marker
/// is returned as it is.
fn await_creator(b: &dyn Backing, path: &str) -> Result<()> {
    let deadline = Instant::now() + CREATE_RACE_WAIT;
    let mut pause = Duration::from_micros(50);
    loop {
        let err = match validate_marker(b, path) {
            Ok(()) => return Ok(()),
            Err(e @ Error::Corrupt(_)) => e,
            Err(Error::NotContainer(_)) => Error::Exists(path.to_string()),
            Err(e) => return Err(e),
        };
        if Instant::now() >= deadline || !nascent(b, path) {
            // Not a skeleton — or no longer one: a creator that finished
            // between the two probes (and a writer that already made a
            // hostdir) left a marker.
            return validate_marker(b, path).map_err(|_| err);
        }
        std::thread::sleep(pause);
        pause = (pause * 2).min(Duration::from_millis(10));
    }
}

/// Could `path` be a container skeleton under construction — a directory
/// holding nothing yet, or nothing but the access file?
fn nascent(b: &dyn Backing, path: &str) -> bool {
    b.readdir(path)
        .is_ok_and(|names| names.iter().all(|n| n == ACCESS_FILE))
}

/// Largest access file [`validate_marker`] reads; [`ACCESS_TEXT`] is a few
/// dozen bytes.
const ACCESS_FILE_MAX: usize = 4096;

/// Read the container's access file into `buf`: how many bytes it holds,
/// `None` if it has none (`ENOENT`; or `ENOTDIR`, `path` being no
/// directory). Any other error is returned as it is. One `pread`, so no
/// `size` first.
fn read_access_file(b: &dyn Backing, path: &str, buf: &mut [u8]) -> Result<Option<usize>> {
    match b.open(&join(path, ACCESS_FILE), false) {
        Ok(f) => f.pread(buf, 0).map(Some),
        Err(e) if no_such_dir(&e) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Check the marker of `path` by the marker rule for a path nothing is
/// known about: its access file's text, or — with none — that the
/// creator's data dropping marks the directory. `NotContainer` when
/// neither marks it. The access file is read with one `pread` of up to one
/// byte past [`ACCESS_FILE_MAX`]; one longer than that is corrupt, and so
/// is an empty one (a creator between its create and its write, or one
/// that died there).
pub fn validate_marker(b: &dyn Backing, path: &str) -> Result<()> {
    let mut buf = [0u8; ACCESS_FILE_MAX + 1];
    match read_access_file(b, path, &mut buf)? {
        Some(n) if n > ACCESS_FILE_MAX => Err(Error::Corrupt(format!(
            "access file of {path} is over {ACCESS_FILE_MAX} bytes"
        ))),
        Some(n) => validate_access_text(&buf[..n]),
        None if creator_marks(b, path) => Ok(()),
        None => Err(Error::NotContainer(path.to_string())),
    }
}

/// Ensure the hostdir a pid writes into exists.
pub fn ensure_hostdir(b: &dyn Backing, container: &str, pid: u64) -> Result<()> {
    let hd = hostdir_for_pid(pid, HOSTDIRS);
    match b.mkdir(&path_of(container, format_args!("{HOSTDIR_PREFIX}{hd}"))) {
        Ok(()) | Err(Error::Exists(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

/// The container directory's listing: the one question the metadata path
/// asks. "Is a container" is read off it by the marker rule (no directory
/// to list is the same answer), so nothing that lists probes first; the
/// names are trusted, as the caller holds a verdict or was handed a
/// container.
pub(crate) fn list_container(b: &dyn Backing, container: &str) -> Result<Vec<String>> {
    match b.readdir(container) {
        Ok(names) if marked(&names) => Ok(names),
        Err(e) if !no_such_dir(&e) => Err(e),
        _ => Err(Error::NotContainer(container.to_string())),
    }
}

/// An index dropping's name, with what a closed top-level index's name
/// carries.
pub type IndexName<'a> = (&'a str, Option<Closed>);

/// A data dropping in one directory's listing, with its index dropping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairNames<'a> {
    /// The `<pid>.<seq>` the two names share.
    pub pair: &'a str,
    /// The data dropping's name.
    pub data: &'a str,
    /// The index dropping's name, if there is one.
    pub index: Option<IndexName<'a>>,
}

impl PairNames<'_> {
    /// In the container directory, where a pair's names are its writer's
    /// lifecycle: is the creator still open? Its index is not there yet
    /// (nothing has needed it before close) or is under its open name.
    pub fn creator_open(&self) -> bool {
        self.index.is_none_or(|(_, closed)| closed.is_none())
    }
}

/// Every data dropping among `names` (one directory's listing) paired with
/// its index dropping in the same listing, under any spelling of its name.
/// An index dropping whose data dropping is gone is in no pair. Paired in
/// place: each data dropping's index is found by scanning the listing for
/// names that start with its index prefix, and nothing is collected.
pub fn dropping_pairs(names: &[String]) -> impl Iterator<Item = PairNames<'_>> {
    names.iter().filter_map(|n| {
        let pair = n.strip_prefix(DATA_PREFIX)?;
        let index = names.iter().find_map(|i| {
            let rest = i.strip_prefix(INDEX_PREFIX)?.strip_prefix(pair)?;
            if !rest.is_empty() && !rest.starts_with('.') {
                return None;
            }
            let (of, closed) = parse_index_name(i)?;
            (of == pair).then_some((i.as_str(), closed))
        });
        Some(PairNames {
            pair,
            data: n,
            index,
        })
    })
}

/// Does `names`, the container directory's listing, hold the creator's
/// pair alone, closed — its data dropping and its index under a closed
/// name, and nothing else? What that name carries. Such a container has
/// one writer, closed, and no other name: a read builds its view from the
/// identity spelling, and an unlink removes the two names it knows.
pub(crate) fn creator_alone(names: &[String]) -> Option<Closed> {
    let [a, b] = names else { return None };
    let index = match (a.as_str(), b.as_str()) {
        (CREATOR_DATA, index) | (index, CREATOR_DATA) => index,
        _ => return None,
    };
    match parse_index_name(index)? {
        (CREATOR_PAIR, closed) => closed,
        _ => None,
    }
}

/// A discovered dropping pair (data + index) in a container.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DroppingRef {
    /// Backend path of the data dropping.
    pub data_path: String,
    /// Backend path of the index dropping, if present.
    pub index_path: Option<String>,
}

/// The [`dropping_pairs`] of `names`, the listing of `dir`, as paths.
fn pair_droppings(dir: &str, names: &[String], out: &mut Vec<DroppingRef>) {
    out.extend(dropping_pairs(names).map(|p| DroppingRef {
        data_path: join(dir, p.data),
        index_path: p.index.map(|(n, _)| join(dir, n)),
    }));
}

/// Enumerate all data droppings (with their index droppings) in a container,
/// in a deterministic order: the top-level pair off the container's own
/// listing, then hostdir by hostdir (those the listing shows; a container
/// holding only its creator's pair costs the one `readdir`). The position in
/// the returned vector is the `dropping_id` used by the global index.
pub fn list_droppings(b: &dyn Backing, container: &str) -> Result<Vec<DroppingRef>> {
    droppings_listed(b, container, &list_container(b, container)?)
}

/// [`list_droppings`] off `names`, the container directory's listing.
fn droppings_listed(
    b: &dyn Backing,
    container: &str,
    names: &[String],
) -> Result<Vec<DroppingRef>> {
    let mut out = Vec::new();
    pair_droppings(container, names, &mut out);
    let mut hostdirs: Vec<&String> = names
        .iter()
        .filter(|n| n.starts_with(HOSTDIR_PREFIX))
        .collect();
    hostdirs.sort_by_key(|n| n[HOSTDIR_PREFIX.len()..].parse::<u32>().unwrap_or(u32::MAX));
    for hd in hostdirs {
        let hd_path = join(container, hd);
        pair_droppings(&hd_path, &b.readdir(&hd_path)?, &mut out);
    }
    Ok(out)
}

/// Whole records per read of an index dropping: 64,512 bytes, all an open
/// holds of any dropping's bytes at once.
const WINDOW_RECORDS: usize = 1344;

/// Bytes of one window.
const WINDOW_BYTES: usize = WINDOW_RECORDS * RECORD_SIZE;

thread_local! {
    /// The window this thread reads index droppings through. Kept, so it
    /// is zeroed once per thread: a dropping's first read asks for a whole
    /// window, and zeroing 64 KiB per read-open cost more than the `size`
    /// it saves.
    static WINDOW: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// `f` with this thread's window, one window long.
fn with_window<T>(f: impl FnOnce(&mut [u8]) -> T) -> T {
    let mut window = WINDOW.take();
    if window.is_empty() {
        // Zeroed by the allocator: pages fresh from the system stay
        // untouched until a read fills them.
        window = vec![0u8; WINDOW_BYTES];
    }
    let out = f(&mut window);
    WINDOW.set(window);
    out
}

/// An index dropping open for reading, a window of whole records at a time.
struct IndexFile<'p> {
    path: &'p str,
    f: Box<dyn BackingFile>,
    size: u64,
    /// Bytes of the dropping read into the window so far.
    read: u64,
    /// Bytes of the window [`IndexFile::open`] filled, not yet handed out.
    first: usize,
}

impl<'p> IndexFile<'p> {
    /// Open the dropping and read its first window. A short one is the
    /// whole dropping; only one that comes back full costs a `size`.
    fn open(b: &dyn Backing, path: &'p str, window: &mut [u8]) -> Result<IndexFile<'p>> {
        let f = b.open(path, false)?;
        let first = f.pread(window, 0)?;
        let size = if first < window.len() {
            first as u64
        } else {
            f.size()?
        };
        if !size.is_multiple_of(RECORD_SIZE as u64) || size < first as u64 {
            return Err(Error::Corrupt(format!(
                "index dropping {path} length {size} not a record multiple"
            )));
        }
        Ok(IndexFile {
            path,
            f,
            size,
            read: first as u64,
            first,
        })
    }

    /// Records the dropping holds.
    fn records(&self) -> usize {
        (self.size / RECORD_SIZE as u64) as usize
    }

    /// The next window's records, read into `window`; `None` past the last.
    fn next<'w>(&mut self, window: &'w mut [u8]) -> Result<Option<&'w [u8]>> {
        if self.first > 0 {
            let n = std::mem::take(&mut self.first);
            return Ok(Some(&window[..n]));
        }
        let n = (self.size - self.read).min(window.len() as u64) as usize;
        if n == 0 {
            return Ok(None);
        }
        let bytes = &mut window[..n];
        if self.f.pread(bytes, self.read)? != n {
            return Err(Error::Corrupt(format!("short read of index {}", self.path)));
        }
        self.read += n as u64;
        Ok(Some(bytes))
    }
}

/// Decode every index dropping of `droppings` into a run of its own,
/// entries numbered by the dropping's position in the slice (writers store
/// a local id).
pub fn read_index_runs(b: &dyn Backing, droppings: &[DroppingRef]) -> Result<Vec<Vec<IndexEntry>>> {
    with_window(|window| {
        let mut runs = Vec::new();
        for (id, d) in droppings.iter().enumerate() {
            let Some(ip) = &d.index_path else { continue };
            let mut file = IndexFile::open(b, ip, window)?;
            let mut run = Vec::new();
            while let Some(bytes) = file.next(window)? {
                run.append(&mut IndexEntry::decode_all(bytes)?);
            }
            for e in &mut run {
                e.dropping_id = id as u32;
            }
            runs.push(run);
        }
        Ok(runs)
    })
}

/// How often [`build_global_index`] lists again when an index dropping or
/// a hostdir it was shown is gone by the time it opens it: often enough to
/// outlast compactions run back to back beside the reader.
const RELIST_ATTEMPTS: usize = 16;

/// Load and merge every index dropping into a [`GlobalIndex`], numbering
/// droppings by their position in [`list_droppings`] order: each dropping
/// read through one reused window of whole records and decoded straight
/// into the builder — twice, if the first pass finds overlapping writes —
/// which is equivalent to [`GlobalIndex::from_sorted_runs`] of
/// [`read_index_runs`] without holding the runs or any dropping whole.
/// Steps the process write clock past what was merged (see
/// [`observe_timestamp`]).
///
/// A listing that holds the creator's pair alone, closed under the
/// identity spelling ([`Closed`]), needs no index read: its view is one
/// extent, logical `[0, eof)` at physical 0 of the creator's data dropping,
/// and the clock steps past the stamp the name carries, as past a merge of
/// the records. The index dropping is still listed in the droppings.
///
/// A listing that holds the merged index, [`MERGED_FILE`], builds the view
/// on that file and merges on top only the index droppings of data
/// droppings it does not cover, open writers' included: the same view, as
/// none it covers is written again. One that fails to load, or a record on
/// top no newer than its newest, leaves the reader merging them all.
///
/// A top-level index dropping is renamed once in its life, when its writer
/// closes, and a rewrite retires droppings and the hostdirs they leave
/// empty; a reader that listed the container just before finds a name gone
/// and lists again (bounded).
pub fn build_global_index(
    b: &dyn Backing,
    container: &str,
) -> Result<(GlobalIndex, Vec<DroppingRef>)> {
    let mut attempt = 1;
    let (index, droppings) = loop {
        let names = list_container(b, container)?;
        let built = droppings_listed(b, container, &names)
            .and_then(|d| Ok((view_of(b, container, &names, &d)?.0, d)));
        match built {
            Err(Error::NotFound(_)) if attempt < RELIST_ATTEMPTS => attempt += 1,
            built => break built?,
        }
    };
    observe_timestamp(index.max_timestamp());
    Ok((index, droppings))
}

/// The view of `droppings`, listed off `names` ([`build_global_index`]):
/// the identity name's; or built on the merged index, if it loads and all
/// put on top is newer ([`GlobalIndex::extend_newer`]); else a merge. With
/// it, the index bytes it summarises and, if built on the merged index,
/// the bytes put on top.
fn view_of(
    b: &dyn Backing,
    container: &str,
    names: &[String],
    droppings: &[DroppingRef],
) -> Result<(GlobalIndex, u64, Option<u64>)> {
    let named = creator_alone(names).and_then(|c| GlobalIndex::identity(c.eof, c.identity?));
    if let Some(index) = named {
        return Ok((index, 0, None));
    }
    if names.iter().any(|n| n == MERGED_FILE) {
        if let Ok((mut index, covered, summarised)) = read_merged(b, container, droppings) {
            let mut delta = 0;
            let newer = index.extend_newer(|builder| {
                delta = feed_indexes(b, droppings, |id| !covered[id], builder)?;
                Ok(())
            })?;
            if newer {
                return Ok((index, summarised + delta, Some(delta)));
            }
        }
    }
    let (index, summarised) = merge_droppings(b, droppings)?;
    Ok((index, summarised, None))
}

/// Merge the index droppings of `droppings` (see [`build_global_index`]):
/// the view, and the bytes of index droppings it was built from.
fn merge_droppings(b: &dyn Backing, droppings: &[DroppingRef]) -> Result<(GlobalIndex, u64)> {
    let mut index_bytes = 0;
    let index = IndexBuilder::build(|builder| {
        index_bytes = feed_indexes(b, droppings, |_| true, builder)?;
        Ok(())
    })?;
    Ok((index, index_bytes))
}

/// Decode into `builder`, through this thread's window, the index
/// dropping of each data dropping of `droppings` whose position `wanted`
/// picks, its entries numbered by that position. The bytes read.
fn feed_indexes(
    b: &dyn Backing,
    droppings: &[DroppingRef],
    wanted: impl Fn(usize) -> bool,
    builder: &mut IndexBuilder,
) -> Result<u64> {
    with_window(|window| {
        let mut bytes = 0;
        for (id, d) in (0u32..).zip(droppings) {
            let Some(ip) = d.index_path.as_deref().filter(|_| wanted(id as usize)) else {
                continue;
            };
            let mut file = IndexFile::open(b, ip, window)?;
            bytes += file.size;
            builder.reserve(file.records());
            while let Some(records) = file.next(window)? {
                builder.decode(records, id)?;
            }
        }
        Ok(bytes)
    })
}

/// First bytes of a merged index file.
const MERGED_MAGIC: &[u8; 8] = b"PLFSMRG2";

/// Bytes of a merged index file's fixed header: [`MERGED_MAGIC`], then
/// `eof`, the entry count, the newest stamp, the extent count, the bytes
/// of index droppings the file summarises, and the [`checksum`] of all
/// else in the file, each a little-endian `u64`.
const MERGED_HEADER: usize = 56;

/// Bytes of a merged index file a load reads first: the header, and the
/// paths of a container with fewer than about a hundred data droppings.
const MERGED_HEAD_READ: usize = 4096;

/// The merged index file's checksum of `bytes`, carried on from `sum`:
/// four lanes of 8-byte words, each step `(lane ^ word) · K` rotated — a
/// bijection, so one changed word always changes the sum — then the length
/// and the lanes folded by the same step. 0.09 ms for 1.5 MB.
fn checksum(sum: u64, bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let step = |lane: u64, word: u64| (lane ^ word).wrapping_mul(K).rotate_left(31);
    let word = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 bytes"));
    let block = |l: [u64; 4], b: &[u8]| std::array::from_fn(|i| step(l[i], word(b, 8 * i)));
    let mut lanes = [sum, sum ^ K, sum.rotate_left(16) ^ 1, !sum];
    let mut blocks = bytes.chunks_exact(32);
    for b in &mut blocks {
        lanes = block(lanes, b);
    }
    let rest = blocks.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 32];
        last[..rest.len()].copy_from_slice(rest);
        lanes = block(lanes, &last);
    }
    lanes.into_iter().fold(bytes.len() as u64, step)
}

/// `path` relative to `container`, which holds it.
fn relative<'a>(container: &str, path: &'a str) -> &'a str {
    path.strip_prefix(container)
        .map_or(path, |rest| rest.trim_start_matches('/'))
}

/// A merged index file of `index`, a view with an empty overlay of
/// `droppings` that summarises `summarised` bytes of index droppings: the
/// header, the data droppings' paths relative to `container` in dropping
/// order (a `u32` count, then each a `u16` length and its bytes), then the
/// extents, whose dropping numbers are positions in that list.
fn encode_merged(
    container: &str,
    index: &GlobalIndex,
    summarised: u64,
    droppings: &[DroppingRef],
) -> Vec<u8> {
    let paths = droppings.iter().map(|d| relative(container, &d.data_path));
    let path_bytes: usize = paths.clone().map(|p| 2 + p.len()).sum();
    let extents = index.base_extents();
    let mut out = Vec::with_capacity(MERGED_HEADER + 4 + path_bytes + extents * EXTENT_BYTES);
    out.extend_from_slice(MERGED_MAGIC);
    let (eof, entries, max_ts) = (index.eof(), index.raw_entries(), index.max_timestamp());
    for field in [eof, entries as u64, max_ts, extents as u64, summarised, 0] {
        out.extend_from_slice(&field.to_le_bytes());
    }
    out.extend_from_slice(&(droppings.len() as u32).to_le_bytes());
    for p in paths {
        out.extend_from_slice(&(p.len() as u16).to_le_bytes());
        out.extend_from_slice(p.as_bytes());
    }
    let at = out.len();
    index.encode_extents(&mut out);
    let sum = checksum(
        checksum(0, &out[..MERGED_HEADER - 8]),
        &out[MERGED_HEADER..at],
    );
    let sum = checksum(sum, &out[at..]).to_le_bytes();
    out[MERGED_HEADER - 8..MERGED_HEADER].copy_from_slice(&sum);
    out
}

/// Read `container`'s merged index file as a view over `droppings`, the
/// listed droppings — its paths mapped to positions there by name, its
/// extents read straight into the base ([`GlobalIndex::read_extents`]):
/// the view, which droppings it covers, and the index bytes it summarises.
/// Corrupt unless it parses, passes its checksum and names listed ones.
fn read_merged(
    b: &dyn Backing,
    container: &str,
    droppings: &[DroppingRef],
) -> Result<(GlobalIndex, Vec<bool>, u64)> {
    let path = join(container, MERGED_FILE);
    let corrupt = |what: &str| Error::Corrupt(format!("merged index {path}: {what}"));
    let f = b.open(&path, false)?;
    let mut head = [0u8; MERGED_HEAD_READ];
    let got = f.pread(&mut head, 0)?;
    if got < MERGED_HEADER || &head[..8] != MERGED_MAGIC {
        return Err(corrupt("bad header"));
    }
    let field = |i: usize| u64::from_le_bytes(head[8 * i..8 * i + 8].try_into().unwrap());
    let (eof, entries, max_ts, extents) = (field(1), field(2), field(3), field(4));
    let (summarised, sum) = (field(5), field(6));
    // The extents fill the file's tail: the head is what comes before.
    let at = extents
        .checked_mul(EXTENT_BYTES as u64)
        .and_then(|bytes| f.size().ok()?.checked_sub(bytes))
        .filter(|&at| at >= MERGED_HEADER as u64 + 4)
        .ok_or_else(|| corrupt("extents do not fit the file"))?;
    let len = usize::try_from(at).map_err(|_| corrupt("paths past memory"))?;
    let mut long = Vec::new();
    let paths = match len <= got {
        true => &head[MERGED_HEADER..len],
        false => {
            long.try_reserve_exact(len)
                .map_err(|_| corrupt("paths past memory"))?;
            long.resize(len, 0);
            if f.pread(&mut long, 0)? != len {
                return Err(corrupt("short read of its paths"));
            }
            &long[MERGED_HEADER..]
        }
    };
    let ids = dropping_ids(container, paths, droppings).ok_or_else(|| corrupt("bad paths"))?;
    let summed = checksum(checksum(0, &head[..MERGED_HEADER - 8]), paths);
    let verify = |extents: &[u8]| checksum(summed, extents) == sum;
    let counts = (eof, usize::try_from(entries).unwrap_or(usize::MAX), max_ts);
    let index = GlobalIndex::read_extents(f.as_ref(), at, extents as usize, counts, &ids, verify)?;
    let mut covered = vec![false; droppings.len()];
    ids.into_iter().for_each(|id| covered[id as usize] = true);
    Ok((index, covered, summarised))
}

/// The position in `droppings` of each data dropping `paths` names (a
/// `u32` count, then each a `u16` length and its bytes, relative to
/// `container`), matched by name; `None` unless `paths` parses exactly and
/// every one is there.
fn dropping_ids(container: &str, paths: &[u8], droppings: &[DroppingRef]) -> Option<Vec<u32>> {
    let (count, mut rest) = paths.split_first_chunk::<4>()?;
    let count = u32::from_le_bytes(*count) as usize;
    let mut ids = Vec::with_capacity(count.min(droppings.len()));
    for _ in 0..count {
        let (len, tail) = rest.split_first_chunk::<2>()?;
        let len = u16::from_le_bytes(*len) as usize;
        let name = std::str::from_utf8(tail.get(..len)?).ok()?;
        rest = &tail[len..];
        let id = droppings
            .iter()
            .position(|d| relative(container, &d.data_path) == name)?;
        ids.push(id as u32);
    }
    rest.is_empty().then_some(ids)
}

/// Publish the merged index of `container` when its listing shows no open
/// writer — the file names only droppings no one writes again — and a
/// writer beside its creator: the view a reader builds, unless that is the
/// merged index with nothing on top, over [`MERGED_FILE`] when smaller than
/// the index droppings it summarises. Says whether it published; a failure
/// leaves readers as they were.
pub fn publish_merged(b: &dyn Backing, container: &str) -> Result<bool> {
    let names = list_container(b, container)?;
    if lifecycle(&names).0 > 0 || !names.iter().any(|n| n.starts_with(HOSTDIR_PREFIX)) {
        return Ok(false);
    }
    let droppings = droppings_listed(b, container, &names)?;
    let (mut index, summarised, delta) = view_of(b, container, &names, &droppings)?;
    if delta == Some(0) {
        return Ok(false);
    }
    index.fold();
    let bytes = encode_merged(container, &index, summarised, &droppings);
    if bytes.len() as u64 >= summarised {
        return Ok(false);
    }
    publish_file(b, container, MERGED_FILE, &bytes).map(|()| true)
}

/// Remove every name among `names`, the container directory's listing,
/// that starts with [`MERGED_FILE`] — the merged index and stray names —
/// as a path that rewrites or removes droppings does first. How many.
pub fn remove_merged(b: &dyn Backing, container: &str, names: &[String]) -> Result<usize> {
    let mut removed = 0;
    for n in names.iter().filter(|n| n.starts_with(MERGED_FILE)) {
        match b.unlink(&join(container, n)) {
            Ok(()) => removed += 1,
            Err(Error::NotFound(_)) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(removed)
}

/// What a container's merged index is to a reader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MergedState {
    /// The container has none.
    #[default]
    Absent,
    /// A reader builds its view on it, and that is the view a fresh merge
    /// of every index dropping builds.
    Valid,
    /// It fails its checks, a record put on top of it is no newer than its
    /// newest, or the view differs: readers merge around it.
    Corrupt,
}

impl std::fmt::Display for MergedState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MergedState::Absent => "absent",
            MergedState::Valid => "valid",
            MergedState::Corrupt => "corrupt",
        })
    }
}

/// The [`MergedState`] of `container`'s merged index: the view a reader
/// builds on it against a fresh merge, extent for extent.
pub fn merged_state(b: &dyn Backing, container: &str) -> Result<MergedState> {
    let names = list_container(b, container)?;
    if !names.iter().any(|n| n == MERGED_FILE) {
        return Ok(MergedState::Absent);
    }
    let droppings = droppings_listed(b, container, &names)?;
    let based = view_of(b, container, &names, &droppings).ok();
    let based = based.and_then(|(view, _, delta)| delta.map(|_| view));
    let fresh = merge_droppings(b, &droppings).ok().map(|(view, _)| view);
    Ok(match based.is_some() && based == fresh {
        true => MergedState::Valid,
        false => MergedState::Corrupt,
    })
}

fn marker_path(container: &str, pid: u64, seq: u32) -> String {
    path_of(container, format_args!("{OPEN_PREFIX}{pid}.{seq}"))
}

fn meta_path(container: &str, eof: u64, bytes: u64, pid: u64, seq: u32) -> String {
    path_of(
        container,
        format_args!("{META_PREFIX}{eof}.{bytes}.{pid}.{seq}"),
    )
}

/// Leave the fast-stat drop `meta.<eof>.<bytes>.<pid>.<seq>` of a closed
/// writer, `(pid, seq)` being its dropping pair — unique in the container,
/// so no two drops (or markers) ever share a name. A `stat` takes the max
/// eof and the byte sum over the drops instead of merging indices (the real
/// PLFS fast-stat path). Returns the drop's path.
pub fn drop_meta(
    b: &dyn Backing,
    container: &str,
    eof: u64,
    bytes: u64,
    pid: u64,
    seq: u32,
) -> Result<String> {
    let path = meta_path(container, eof, bytes, pid, seq);
    b.create(&path, false)?;
    Ok(path)
}

/// Unlink every lifecycle name starting with `prefix` ([`META_PREFIX`]:
/// the drops no longer describe the droppings; [`OPEN_PREFIX`]: crash
/// recovery, no process holds the container open). Returns how many.
pub fn clear_names(b: &dyn Backing, container: &str, prefix: &str) -> Result<usize> {
    let mut cleared = 0;
    for n in list_container(b, container)? {
        if n.starts_with(prefix) {
            b.unlink(&join(container, &n))?;
            cleared += 1;
        }
    }
    Ok(cleared)
}

/// Both lifecycle answers from one listing of the container directory:
/// the count of open writers — `open.*` markers, un-suffixed top-level
/// index droppings, and top-level data droppings with no index yet — and
/// the fast-stat `(max eof, total bytes)` over all drops, `meta.*` names and
/// suffixed top-level index droppings alike (`None` if no writer has closed
/// yet). A top-level index whose data dropping is gone (a truncate under its
/// open writer) describes nothing and counts as neither.
pub fn read_lifecycle(b: &dyn Backing, container: &str) -> Result<(usize, Option<(u64, u64)>)> {
    Ok(lifecycle(&list_container(b, container)?))
}

/// [`read_lifecycle`] off `names`, the container directory's listing.
pub(crate) fn lifecycle(names: &[String]) -> (usize, Option<(u64, u64)>) {
    // Every name is an open writer (`None`), a closed one's drop, or neither.
    let hostdir_writers = names.iter().filter_map(|n| {
        if n.starts_with(OPEN_PREFIX) {
            return Some(None);
        }
        let mut it = n
            .strip_prefix(META_PREFIX)?
            .split('.')
            .map(str::parse::<u64>);
        let (Some(Ok(eof)), Some(Ok(bytes))) = (it.next(), it.next()) else {
            return None;
        };
        Some(Some((eof, bytes)))
    });
    let creators = dropping_pairs(names).map(|p| {
        let (_, closed) = p.index?;
        closed.map(|c| (c.eof, c.bytes))
    });
    let mut writers = 0;
    let mut best: Option<(u64, u64)> = None;
    for closed in hostdir_writers.chain(creators) {
        match closed {
            None => writers += 1,
            Some((eof, bytes)) => {
                let cur = best.get_or_insert((0, 0));
                cur.0 = cur.0.max(eof);
                cur.1 += bytes;
            }
        }
    }
    (writers, best)
}

/// Count of writers currently holding the container open.
pub fn open_writers(b: &dyn Backing, container: &str) -> Result<usize> {
    Ok(read_lifecycle(b, container)?.0)
}

/// Record that a writer of `pid` has the container open, under the first
/// free marker name from `seq` (its dropping pair's number) up: the create
/// is exclusive, so a writer never shares a marker — one left standing by
/// another fd across a truncate bumps the number. Returns the number the
/// writer's names carry.
pub fn mark_open(b: &dyn Backing, container: &str, pid: u64, mut seq: u32) -> Result<u32> {
    loop {
        match b.create(&marker_path(container, pid, seq), true) {
            Ok(_) => return Ok(seq),
            Err(Error::Exists(_)) => seq += 1,
            Err(e) => return Err(e),
        }
    }
}

/// Remove the open marker of `(pid, seq)` (ignores a missing marker).
pub fn mark_closed(b: &dyn Backing, container: &str, pid: u64, seq: u32) -> Result<()> {
    match b.unlink(&marker_path(container, pid, seq)) {
        Ok(()) | Err(Error::NotFound(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

/// Close of writer `(pid, seq)`: its open marker *becomes* its fast-stat
/// drop in one `rename` (the drop is created when the marker is gone).
pub fn close_writer(
    b: &dyn Backing,
    container: &str,
    eof: u64,
    bytes: u64,
    pid: u64,
    seq: u32,
) -> Result<()> {
    let drop = meta_path(container, eof, bytes, pid, seq);
    match b.rename(&marker_path(container, pid, seq), &drop) {
        Err(Error::NotFound(_)) => drop_meta(b, container, eof, bytes, pid, seq).map(|_| ()),
        r => r,
    }
}

/// Close of a top-level pair's writer: its index dropping takes the
/// suffix `closed` spells in one `rename`, which drops its open marker and
/// leaves its fast-stat drop at once (a suffix it already carries is
/// replaced: repair). Returns the path the index now has — the one it had
/// when a truncate took the pair away under its writer, which then has
/// nothing to publish; with the whole container gone that is an error, as
/// it is for a hostdir writer.
pub fn close_toplevel<'a>(
    b: &dyn Backing,
    index_path: &'a str,
    closed: Closed,
) -> Result<Cow<'a, str>> {
    let name = index_path.rsplit_once('/').map_or("", |(_, n)| n);
    if parse_index_name(name).and_then(|(_, now)| now) == Some(closed) {
        return Ok(Cow::Borrowed(index_path));
    }
    let closed = closed_index_path(index_path, closed)?;
    match b.rename(index_path, &closed) {
        Ok(()) => Ok(Cow::Owned(closed)),
        Err(Error::NotFound(_)) if b.exists(parent(index_path)) => Ok(Cow::Borrowed(index_path)),
        Err(e) => Err(e),
    }
}

/// The closed name of a top-level index dropping, given any of its names:
/// `dropping.index.<pid>.<seq>.` and the suffix `closed` spells, beside it.
pub fn closed_index_path(index_path: &str, closed: Closed) -> Result<String> {
    let parsed = index_path
        .rsplit_once('/')
        .and_then(|(dir, name)| Some((dir, parse_index_name(name)?.0)));
    let Some((dir, pair)) = parsed else {
        return Err(Error::InvalidArg("not the path of an index dropping"));
    };
    Ok(path_of(dir, format_args!("{INDEX_PREFIX}{pair}.{closed}")))
}

/// The directory `path` names an entry of.
pub(crate) fn parent(path: &str) -> &str {
    path.rsplit_once('/').map_or("/", |(dir, _)| dir)
}

/// Delete a container and everything inside it, by layout: every entry but
/// a `hostdir.*` is a file and a hostdir holds only files, so nothing is
/// probed before it is removed. An entry that says otherwise (a legacy
/// `openhosts/`, a foreign subdirectory) falls back to [`remove_tree`].
/// Like it, tolerates pieces vanishing under a racing removal.
pub fn remove_container(b: &dyn Backing, path: &str) -> Result<()> {
    remove_listed(b, path, list_container(b, path)?)
}

/// [`remove_container`] of `names`, the container directory's listing.
fn remove_listed(b: &dyn Backing, path: &str, names: Vec<String>) -> Result<()> {
    let gone_ok = |r: Result<()>| match r {
        Err(Error::NotFound(_)) => Ok(()),
        r => r,
    };
    // One buffer for every child's path: the container's, then a name.
    let mut child = String::with_capacity(path.len() + 64);
    child.push_str(path);
    if !path.ends_with('/') {
        child.push('/');
    }
    let dir = child.len();
    for name in names {
        child.truncate(dir);
        child.push_str(&name);
        let by_layout = if name.starts_with(HOSTDIR_PREFIX) {
            b.readdir(&child).and_then(|files| {
                for f in files {
                    gone_ok(b.unlink(&join(&child, &f)))?;
                }
                b.rmdir(&child)
            })
        } else {
            b.unlink(&child)
        };
        if gone_ok(by_layout).is_err() {
            remove_tree(b, &child)?;
        }
    }
    gone_ok(b.rmdir(path))
}

/// Delete a container whose last listing held its creator's pair alone,
/// closed under `closed` ([`creator_alone`]), by the names that listing
/// showed: the index, then the data dropping — the marker last — then the
/// directory, whose `rmdir` proves nothing else was there. No listing.
/// What changed since falls back to a removal of what is there now: a name
/// gone (a truncate, a repair) to [`remove_container`], and a directory not
/// empty (a writer that joined) to the removal of its listing.
pub fn remove_creator_alone(b: &dyn Backing, path: &str, closed: Closed) -> Result<()> {
    use crate::error::libc_errno::{EEXIST, ENOTEMPTY};
    let index = creator_closed_index_path(path, closed);
    match b
        .unlink(&index)
        .and_then(|()| b.unlink(&join(path, CREATOR_DATA)))
    {
        Ok(()) => {}
        Err(e) if no_such_dir(&e) => return remove_container(b, path),
        Err(e) => return Err(e),
    }
    match b.rmdir(path) {
        // The marker went with the pair: what is left is listed as it is.
        Err(e) if [ENOTEMPTY, EEXIST].contains(&e.errno()) => match b.readdir(path) {
            Ok(names) => remove_listed(b, path, names),
            Err(Error::NotFound(_)) => Ok(()),
            Err(e) => Err(e),
        },
        r => r,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;

    fn mem() -> MemBacking {
        MemBacking::new()
    }

    /// Paths of a top-level pair `(pid, seq)`, its index under its open
    /// name: how a container made before the creator's pair had a name of
    /// its own holds its creator's pair.
    fn toplevel_pair_paths(container: &str, pid: u64, seq: u32) -> (String, String) {
        (
            join(container, &format!("{DATA_PREFIX}{pid}.{seq}")),
            join(container, &format!("{INDEX_PREFIX}{pid}.{seq}")),
        )
    }

    #[test]
    fn create_makes_skeleton() {
        let b = mem();
        create_container(&b, "/f", true).unwrap();
        assert!(is_container(&b, "/f"));
        assert_eq!(b.readdir("/f").unwrap(), [ACCESS_FILE], "two-op skeleton");
    }

    /// A create says whether its `mkdir` made the container; one that
    /// joined checks the marker it found with one read of the access file.
    #[test]
    fn create_says_whether_it_made_the_container() {
        use crate::meter::MeterBacking;
        let b = MeterBacking::new(std::sync::Arc::new(mem()));
        assert_eq!(create_container(&b, "/f", true).unwrap(), Creation::Made);
        let before = b.snapshot();
        assert_eq!(create_container(&b, "/f", false).unwrap(), Creation::Joined);
        let d = b.snapshot().delta(&before);
        assert_eq!((d.mkdir, d.open, d.pread, d.metadata_ops()), (1, 1, 1, 2));
    }

    /// Every access file this build writes is [`ACCESS_TEXT`]; an older
    /// build's, with another hostdir count, checks as well.
    #[test]
    fn the_access_file_is_one_fixed_text() {
        let b = mem();
        create_container(&b, "/f", true).unwrap();
        let f = b.open(&join("/f", ACCESS_FILE), false).unwrap();
        let mut text = [0u8; 64];
        let n = f.pread(&mut text, 0).unwrap();
        assert_eq!(&text[..n], ACCESS_TEXT);
        validate_marker(&b, "/f").unwrap();
        b.mkdir("/old").unwrap();
        let old = b.create(&join("/old", ACCESS_FILE), true).unwrap();
        old.pwrite(b"plfs-container v1\nnum_hostdirs 7\n", 0)
            .unwrap();
        validate_marker(&b, "/old").unwrap();
    }

    #[test]
    fn excl_create_fails_if_present() {
        let b = mem();
        create_container(&b, "/f", true).unwrap();
        assert!(matches!(
            create_container(&b, "/f", true),
            Err(Error::Exists(_))
        ));
        // Non-exclusive open of an existing container succeeds.
        create_container(&b, "/f", false).unwrap();
    }

    /// An access file still empty is a creator between its create and its
    /// write, or one that died there: corrupt, as nothing publishes one
    /// empty into a container that exists.
    #[test]
    fn an_empty_access_file_is_corrupt_and_a_published_one_is_whole() {
        let b = mem();
        b.mkdir("/nascent").unwrap();
        b.create("/nascent/.plfsaccess", true).unwrap();
        assert!(matches!(
            validate_marker(&b, "/nascent"),
            Err(Error::Corrupt(_))
        ));
        let (how, dropping) = create_container_as(&b, "/c", true, true).unwrap();
        assert_eq!(
            (how, b.readdir("/c").unwrap()),
            (Creation::Made, vec![CREATOR_DATA.to_string()])
        );
        drop(dropping);
        validate_marker(&b, "/c").unwrap();
        // Written under a name of its own, then renamed into place.
        publish_access_file(&b, "/c").unwrap();
        assert_eq!(b.readdir("/c").unwrap(), [ACCESS_FILE, CREATOR_DATA]);
        validate_marker(&b, "/c").unwrap();
    }

    /// The cold probe: the access file's `exists`; failing it, the listing
    /// and a `stat` of the creator's dropping it names — which a plain
    /// directory may hold as an application's container, a directory.
    #[test]
    fn the_probe_reads_either_marker_and_nothing_else() {
        let b = mem();
        create_container(&b, "/g", true).unwrap();
        create_container_as(&b, "/f", true, true).unwrap();
        b.mkdir("/d").unwrap();
        b.mkdir(&join("/d", CREATOR_DATA)).unwrap();
        drop(b.create("/file", true).unwrap());
        let seen = |path| {
            let p = probe(&b, path);
            (p.exists, p.is_dir, p.marker, p.names.is_some())
        };
        assert_eq!(seen("/g"), (true, true, Some(Marker::AccessFile), false));
        assert_eq!(seen("/f"), (true, true, Some(Marker::Dropping), true));
        assert_eq!(seen("/d"), (true, true, None, true));
        assert_eq!(seen("/file"), (true, false, None, false));
        assert_eq!(seen("/missing"), (false, false, None, false));
        assert!(matches!(
            validate_marker(&b, "/d"),
            Err(Error::NotContainer(_))
        ));
    }

    #[test]
    fn plain_dir_is_not_container() {
        let b = mem();
        b.mkdir("/d").unwrap();
        assert!(!is_container(&b, "/d"));
        let f = b.create("/file", true).unwrap();
        drop(f);
        assert!(!is_container(&b, "/file"));
    }

    #[test]
    fn hostdir_hash_spreads_and_is_stable() {
        let k = HOSTDIRS;
        let mut seen = std::collections::HashSet::new();
        for pid in 0..256u64 {
            let h = hostdir_for_pid(pid, k);
            assert!(h < k);
            assert_eq!(h, hostdir_for_pid(pid, k), "stable");
            seen.insert(h);
        }
        // 256 pids over 32 dirs should touch most of them.
        assert!(seen.len() >= 24, "poor spread: {}", seen.len());
    }

    #[test]
    fn dropping_paths_follow_figure_1() {
        let d = data_dropping_path("/c", 42, 0);
        assert!(d.starts_with("/c/hostdir."));
        assert!(d.ends_with("/dropping.data.42.0"));
        let i = index_dropping_path("/c", 42, 0);
        assert!(i.ends_with("/dropping.index.42.0"));
        // Data and index for one pid share a hostdir.
        let dh = d.split('/').nth(2).unwrap().to_string();
        let ih = i.split('/').nth(2).unwrap().to_string();
        assert_eq!(dh, ih);
    }

    #[test]
    fn list_droppings_pairs_data_with_index() {
        let b = mem();
        create_container(&b, "/c", true).unwrap();
        for pid in [3u64, 9, 12] {
            ensure_hostdir(&b, "/c", pid).unwrap();
            b.create(&data_dropping_path("/c", pid, 0), true).unwrap();
            b.create(&index_dropping_path("/c", pid, 0), true).unwrap();
        }
        let d = list_droppings(&b, "/c").unwrap();
        assert_eq!(d.len(), 3);
        for dr in &d {
            assert!(dr.index_path.is_some());
        }
    }

    #[test]
    fn list_droppings_rejects_non_container() {
        let b = mem();
        b.mkdir("/d").unwrap();
        b.create("/file", true).unwrap();
        for path in ["/d", "/file", "/missing"] {
            assert!(matches!(
                list_droppings(&b, path),
                Err(Error::NotContainer(_))
            ));
        }
    }

    #[test]
    fn meta_fast_stat_takes_max_eof_and_sums_bytes() {
        let b = mem();
        create_container(&b, "/c", true).unwrap();
        assert_eq!(read_lifecycle(&b, "/c").unwrap().1, None);
        drop_meta(&b, "/c", 100, 60, 1, 0).unwrap();
        drop_meta(&b, "/c", 80, 40, 2, 0).unwrap();
        assert_eq!(read_lifecycle(&b, "/c").unwrap().1, Some((100, 100)));
        assert_eq!(clear_names(&b, "/c", META_PREFIX).unwrap(), 2);
        assert_eq!(read_lifecycle(&b, "/c").unwrap().1, None);
    }

    #[test]
    fn open_markers_track_writers() {
        let b = mem();
        create_container(&b, "/c", true).unwrap();
        mark_open(&b, "/c", 1, 0).unwrap();
        mark_open(&b, "/c", 2, 0).unwrap();
        assert_eq!(open_writers(&b, "/c").unwrap(), 2);
        mark_closed(&b, "/c", 1, 0).unwrap();
        assert_eq!(open_writers(&b, "/c").unwrap(), 1);
        // Closing twice is harmless.
        mark_closed(&b, "/c", 1, 0).unwrap();
        // A close turns the marker into the drop; with the marker already
        // gone the drop is created all the same.
        close_writer(&b, "/c", 10, 10, 2, 0).unwrap();
        close_writer(&b, "/c", 30, 5, 1, 0).unwrap();
        assert_eq!(read_lifecycle(&b, "/c").unwrap(), (0, Some((30, 15))));
    }

    #[test]
    fn toplevel_pair_lists_under_either_index_spelling_and_is_its_own_lifecycle() {
        let b = mem();
        create_container(&b, "/c", true).unwrap();
        let (dp, ip) = toplevel_pair_paths("/c", 7, 0);
        b.create(&dp, true).unwrap();
        b.create(&ip, true).unwrap();
        ensure_hostdir(&b, "/c", 9).unwrap();
        b.create(&data_dropping_path("/c", 9, 0), true).unwrap();
        b.create(&index_dropping_path("/c", 9, 0), true).unwrap();
        mark_open(&b, "/c", 9, 0).unwrap();
        let listed = |b: &MemBacking| {
            let d = list_droppings(b, "/c").unwrap();
            assert_eq!(d.len(), 2);
            assert_eq!(d[0].data_path, dp, "the top-level pair lists first");
            d[0].index_path.clone().unwrap()
        };
        // Un-suffixed, the index is its writer's open marker.
        assert_eq!(listed(&b), ip);
        assert_eq!(read_lifecycle(&b, "/c").unwrap(), (2, None));
        // Closed, the same file is the fast-stat drop.
        let closed = close_toplevel(&b, &ip, Closed::sized(100, 60)).unwrap();
        assert_eq!(closed, "/c/dropping.index.7.0.100.60");
        assert_eq!(listed(&b), closed);
        close_writer(&b, "/c", 80, 40, 9, 0).unwrap();
        assert_eq!(read_lifecycle(&b, "/c").unwrap(), (0, Some((100, 100))));
        // Clearing the `meta.*` drops never takes index records with it.
        assert_eq!(clear_names(&b, "/c", META_PREFIX).unwrap(), 1);
        assert_eq!(listed(&b), closed);
        // The pair gone under its writer: close has nothing to publish.
        b.unlink(&closed).unwrap();
        assert_eq!(close_toplevel(&b, &ip, Closed::sized(1, 1)).unwrap(), ip);
    }

    /// The third spelling: a creator whose index nothing has needed yet is
    /// its data dropping alone — open, listed with no index. A top-level
    /// index whose data dropping is gone describes nothing.
    #[test]
    fn an_open_creator_may_be_its_data_dropping_alone() {
        let b = mem();
        create_container(&b, "/c", true).unwrap();
        let (dp, _) = toplevel_pair_paths("/c", 7, 0);
        b.create(&dp, true).unwrap();
        assert_eq!(read_lifecycle(&b, "/c").unwrap(), (1, None));
        let d = list_droppings(&b, "/c").unwrap();
        assert_eq!(
            (d[0].data_path.as_str(), d[0].index_path.as_deref()),
            (dp.as_str(), None)
        );
        let closed = closed_index_path("/c/dropping.index.7.0", Closed::sized(100, 60)).unwrap();
        assert_eq!(closed, "/c/dropping.index.7.0.100.60");
        b.create(&closed, true).unwrap();
        assert_eq!(read_lifecycle(&b, "/c").unwrap(), (0, Some((100, 60))));
        b.unlink(&dp).unwrap();
        assert_eq!(
            read_lifecycle(&b, "/c").unwrap(),
            (0, None),
            "an orphan index"
        );
    }

    /// One pairing of names, all three spellings of a creator among them.
    #[test]
    fn dropping_pairs_read_each_spelling() {
        let names: Vec<String> = [
            ".plfsaccess",
            "dropping.data.1.0",
            "dropping.data.2.0",
            "dropping.index.2.0",
            "dropping.index.3.0.100.60",
            "dropping.data.3.0",
            "dropping.index.4.0",
            "open.5.0",
        ]
        .map(String::from)
        .into();
        let pairs: Vec<_> = dropping_pairs(&names).collect();
        let seen: Vec<_> = pairs
            .iter()
            .map(|p| (p.pair, p.index, p.creator_open()))
            .collect();
        assert_eq!(
            seen,
            [
                ("1.0", None, true),
                ("2.0", Some(("dropping.index.2.0", None)), true),
                (
                    "3.0",
                    Some(("dropping.index.3.0.100.60", Some(Closed::sized(100, 60)))),
                    false
                ),
            ],
            "4.0 has no data dropping"
        );
        assert_eq!(pairs[2].data, "dropping.data.3.0");
        // A name that only starts like a pair's index is not its index.
        let names: Vec<String> = [
            "dropping.data.1.0",
            "dropping.index.1.00",
            "dropping.index.1.0.5",
        ]
        .map(String::from)
        .into();
        let pairs: Vec<_> = dropping_pairs(&names).collect();
        assert_eq!((pairs.len(), pairs[0].index), (1, None));
    }

    #[test]
    fn index_names_parse_into_pair_and_suffix() {
        assert_eq!(parse_index_name("dropping.index.7.0"), Some(("7.0", None)));
        assert_eq!(
            parse_index_name("dropping.index.7.12.4096.512"),
            Some(("7.12", Some(Closed::sized(4096, 512))))
        );
        assert_eq!(
            parse_index_name("dropping.index.creator.0.4096.i77"),
            Some(("creator.0", Some(Closed::identity(4096, 77))))
        );
        for closed in [Closed::sized(9, 3), Closed::identity(9, 12345)] {
            let name = creator_closed_index_path("/c", closed);
            let name = name.strip_prefix("/c/").unwrap();
            assert_eq!(parse_index_name(name), Some((CREATOR_PAIR, Some(closed))));
        }
        for junk in [
            "dropping.index.7",
            "dropping.index.7.0.1",
            "dropping.index.7.0.x.1",
            "dropping.index.7.0.1.2.3",
            "dropping.index.7.0.1.i",
            "dropping.index.7.0.1.ix",
            "dropping.index.7.0.x.i1",
            "dropping.data.7.0",
            "meta.1.2.7.0",
        ] {
            assert_eq!(parse_index_name(junk), None, "{junk}");
        }
    }

    /// The creator's pair alone, closed, is exactly two names; anything
    /// beside it, or an open creator, is not.
    #[test]
    fn the_creator_alone_is_its_closed_pair_and_nothing_else() {
        let names = |ns: &[&str]| ns.iter().map(|n| n.to_string()).collect::<Vec<_>>();
        let identity = "dropping.index.creator.0.10.i5";
        assert_eq!(
            creator_alone(&names(&[CREATOR_DATA, identity])),
            Some(Closed::identity(10, 5))
        );
        assert_eq!(
            creator_alone(&names(&["dropping.index.creator.0.10.4", CREATOR_DATA])),
            Some(Closed::sized(10, 4))
        );
        for other in [
            &[CREATOR_DATA][..],
            &[CREATOR_DATA, CREATOR_INDEX],
            &[CREATOR_DATA, identity, ACCESS_FILE],
            &[CREATOR_DATA, identity, "hostdir.3"],
            &["dropping.data.7.0", "dropping.index.7.0.10.i5"],
            &[ACCESS_FILE, identity],
        ] {
            assert_eq!(creator_alone(&names(other)), None, "{other:?}");
        }
    }

    /// The pair alone under the identity spelling is read by its name: one
    /// extent over the data dropping, no index opened, the clock stepped
    /// past the name's stamp. Under the other spelling the records are read.
    #[test]
    fn an_identity_name_alone_is_the_view_and_the_index_is_not_opened() {
        use crate::meter::MeterBacking;
        let b = MeterBacking::new(std::sync::Arc::new(mem()));
        b.mkdir("/c").unwrap();
        let data = b.create(&join("/c", CREATOR_DATA), true).unwrap();
        data.pwrite(&[5u8; 300], 0).unwrap();
        let stamp = crate::index::write_clock() + 1000;
        let index = creator_closed_index_path("/c", Closed::identity(300, stamp));
        b.create(&index, true).unwrap();
        let before = b.snapshot();
        let (view, droppings) = build_global_index(&b, "/c").unwrap();
        let cost = b.snapshot().delta(&before);
        assert_eq!((cost.readdir, cost.open, cost.metadata_ops()), (1, 0, 1));
        assert_eq!(
            view.iter_segments().collect::<Vec<_>>(),
            [(0, 300, 0, 0)],
            "[0, eof) at physical 0"
        );
        assert_eq!(droppings[0].index_path.as_deref(), Some(index.as_str()));
        assert!(crate::index::write_clock() > stamp, "Lamport step");
        // The same pair under `<eof>.<bytes>`: its (empty) index is read.
        let sized = creator_closed_index_path("/c", Closed::sized(300, 300));
        b.rename(&index, &sized).unwrap();
        let before = b.snapshot();
        let (view, _) = build_global_index(&b, "/c").unwrap();
        assert_eq!(b.snapshot().delta(&before).open, 1);
        assert_eq!(view.eof(), 0, "the records, not the name");
    }

    /// An unlink by the names a listing showed: two unlinks and an
    /// `rmdir`; what changed since falls back to removing what is there.
    #[test]
    fn the_creator_alone_unlinks_by_name_and_falls_back_on_change() {
        use crate::meter::MeterBacking;
        let make = |b: &MeterBacking, closed: Closed| {
            b.mkdir("/c").unwrap();
            b.create(&join("/c", CREATOR_DATA), true).unwrap();
            b.create(&creator_closed_index_path("/c", closed), true)
                .unwrap();
        };
        let b = MeterBacking::new(std::sync::Arc::new(mem()));
        let closed = Closed::identity(4, 9);
        make(&b, closed);
        let before = b.snapshot();
        remove_creator_alone(&b, "/c", closed).unwrap();
        let cost = b.snapshot().delta(&before);
        assert_eq!((cost.unlink, cost.rmdir, cost.metadata_ops()), (2, 1, 3));
        assert!(!b.exists("/c"));
        // A writer joined since: the rmdir finds its names.
        make(&b, closed);
        ensure_hostdir(&b, "/c", 3).unwrap();
        mark_open(&b, "/c", 3, 0).unwrap();
        remove_creator_alone(&b, "/c", closed).unwrap();
        assert!(!b.exists("/c"));
        // Re-spelled since (a repair): the marker is still there to list.
        make(&b, Closed::sized(4, 4));
        remove_creator_alone(&b, "/c", closed).unwrap();
        assert!(!b.exists("/c"));
    }

    #[test]
    fn remove_container_deletes_everything() {
        let b = mem();
        create_container(&b, "/c", true).unwrap();
        ensure_hostdir(&b, "/c", 5).unwrap();
        b.create(&data_dropping_path("/c", 5, 0), true).unwrap();
        // Entries the layout does not predict take the remove_tree path.
        b.mkdir_all("/c/openhosts/nested").unwrap();
        b.mkdir("/c/hostdir.9").unwrap();
        b.mkdir("/c/hostdir.9/sub").unwrap();
        remove_container(&b, "/c").unwrap();
        assert!(!b.exists("/c"));
    }

    /// A container three writers filled with 16-byte records in a
    /// shuffled order, every fd closed: small enough that no close
    /// publishes, so a test calls [`publish_merged`] itself. Returns the
    /// mount and the bytes it holds.
    fn scattered(b: &std::sync::Arc<MemBacking>) -> (crate::api::Plfs, Vec<u8>) {
        use crate::flags::OpenFlags;
        const RECORDS: u64 = 96;
        let plfs = crate::api::Plfs::new(b.clone());
        let fds: Vec<_> = (0..3u64)
            .map(|pid| plfs.open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, pid))
            .collect::<Result<_>>()
            .unwrap();
        let mut bytes = vec![0u8; RECORDS as usize * 16];
        for k in 0..RECORDS {
            let rec = k * 37 % RECORDS;
            let data = [rec as u8 ^ 0x5a; 16];
            plfs.write(&fds[(k % 3) as usize], &data, rec * 16, k % 3)
                .unwrap();
            bytes[rec as usize * 16..][..16].copy_from_slice(&data);
        }
        for (pid, fd) in (0..).zip(&fds) {
            plfs.close(fd, pid).unwrap();
        }
        (plfs, bytes)
    }

    /// The listing's merged index names, stray ones included.
    fn merged_names(b: &dyn Backing) -> Vec<String> {
        let mut names = b.readdir("/f").unwrap();
        names.retain(|n| n.starts_with(MERGED_FILE));
        names
    }

    /// A reader's view of `/f` and what building it opened.
    fn metered_view(b: &std::sync::Arc<MemBacking>) -> (GlobalIndex, u64) {
        let m = crate::meter::MeterBacking::new(b.clone());
        let before = m.snapshot();
        let (view, _) = build_global_index(&m, "/f").unwrap();
        (view, m.snapshot().delta(&before).open)
    }

    /// A reader of a container with a valid merged index opens that one
    /// file and no index dropping, and its view is a fresh merge's; the
    /// index droppings stay listed with the data droppings.
    #[test]
    fn a_published_merged_index_is_what_readers_load() {
        let b = std::sync::Arc::new(mem());
        let (_plfs, bytes) = scattered(&b);
        assert!(
            merged_names(b.as_ref()).is_empty(),
            "too few records to publish at close"
        );
        let (fresh, droppings) = build_global_index(b.as_ref(), "/f").unwrap();
        assert!(publish_merged(b.as_ref(), "/f").unwrap());
        assert!(!publish_merged(b.as_ref(), "/f").unwrap(), "nothing new");
        assert_eq!(merged_names(b.as_ref()), [MERGED_FILE]);
        assert_eq!(merged_state(b.as_ref(), "/f").unwrap(), MergedState::Valid);
        let (loaded, opened) = metered_view(&b);
        assert_eq!(opened, 1, "the merged index alone is opened");
        assert_eq!(list_droppings(b.as_ref(), "/f").unwrap(), droppings);
        assert!(loaded == fresh);
        let r = crate::reader::ReadFile::open(b.as_ref(), "/f").unwrap();
        assert_eq!(r.read_all(b.as_ref()).unwrap(), bytes);
    }

    /// The merged file names its droppings, and a load maps them by name:
    /// a data dropping listed ahead of the joiners' (in a hostdir of a
    /// lower number; with no index, it adds no record) shifts their
    /// positions and leaves the view right.
    #[test]
    fn a_load_maps_droppings_by_name_not_position() {
        let b = std::sync::Arc::new(mem());
        let (_plfs, bytes) = scattered(&b);
        publish_merged(b.as_ref(), "/f").unwrap();
        let first = hostdir_for_pid(1, HOSTDIRS).min(hostdir_for_pid(2, HOSTDIRS));
        let pid = (3..)
            .find(|&p| hostdir_for_pid(p, HOSTDIRS) < first)
            .unwrap();
        ensure_hostdir(b.as_ref(), "/f", pid).unwrap();
        let stray = data_dropping_path("/f", pid, 7);
        drop(b.create(&stray, true).unwrap());
        let r = crate::reader::ReadFile::open(b.as_ref(), "/f").unwrap();
        assert_eq!(
            r.droppings()[1].data_path,
            stray,
            "listed ahead of the joiners"
        );
        assert_eq!(r.read_all(b.as_ref()).unwrap(), bytes);
        assert_eq!(merged_state(b.as_ref(), "/f").unwrap(), MergedState::Valid);
    }

    /// A writer that joins after the publish is a delta: open (its index
    /// synced) or closed, a reader opens the merged index and its index
    /// dropping alone, and reads its bytes. The next publish loads the
    /// file and that one dropping, not every index, and covers it.
    #[test]
    fn a_joiner_after_the_publish_is_read_as_a_delta() {
        use crate::flags::OpenFlags;
        let b = std::sync::Arc::new(mem());
        let (plfs, mut bytes) = scattered(&b);
        publish_merged(b.as_ref(), "/f").unwrap();
        let fd = plfs.open("/f", OpenFlags::WRONLY, 9).unwrap();
        plfs.write(&fd, b"joined", 40, 9).unwrap();
        bytes[40..46].copy_from_slice(b"joined");
        plfs.sync(&fd, 9).unwrap();
        let read = || {
            let r = crate::reader::ReadFile::open(b.as_ref(), "/f").unwrap();
            r.read_all(b.as_ref()).unwrap()
        };
        let fresh = || merge_droppings(b.as_ref(), &list_droppings(b.as_ref(), "/f").unwrap());
        for what in ["an open writer", "a closed writer"] {
            assert_eq!(read(), bytes, "{what}");
            let (view, opened) = metered_view(&b);
            assert_eq!(opened, 2, "{what}: the merged index and one index dropping");
            assert!(view == fresh().unwrap().0);
            assert_eq!(merged_state(b.as_ref(), "/f").unwrap(), MergedState::Valid);
            assert!(crate::check::check(b.as_ref(), "/f")
                .unwrap()
                .findings
                .iter()
                .all(|f| !matches!(f, crate::check::Finding::CorruptMerged { .. })));
            if what == "an open writer" {
                assert!(
                    !publish_merged(b.as_ref(), "/f").unwrap(),
                    "a writer is open"
                );
                plfs.close(&fd, 9).unwrap();
            }
        }
        let m = crate::meter::MeterBacking::new(b.clone());
        let before = m.snapshot();
        assert!(publish_merged(&m, "/f").unwrap());
        assert_eq!(
            m.snapshot().delta(&before).open,
            2,
            "the file and the delta"
        );
        assert_eq!(merged_names(b.as_ref()), [MERGED_FILE]);
        let (view, opened) = metered_view(&b);
        assert_eq!(opened, 1, "the new file covers the joiner");
        assert!(view == fresh().unwrap().0);
        assert_eq!(read(), bytes);
    }

    /// A data dropping the merged index names is never written again under
    /// that name: writers that reopen after the publish, the creator's pid
    /// among them, each make a pair of their own, and every covered
    /// dropping keeps its bytes.
    #[test]
    fn a_dropping_the_merged_index_names_is_never_written_again() {
        use crate::flags::OpenFlags;
        let b = std::sync::Arc::new(mem());
        let (plfs, mut bytes) = scattered(&b);
        assert!(publish_merged(b.as_ref(), "/f").unwrap());
        let droppings = list_droppings(b.as_ref(), "/f").unwrap();
        let (_, covered, _) = read_merged(b.as_ref(), "/f", &droppings).unwrap();
        assert!(covered.iter().all(|&c| c), "it covers every dropping");
        let contents = |b: &MemBacking| -> Vec<Vec<u8>> {
            droppings
                .iter()
                .map(|d| {
                    let f = b.open(&d.data_path, false).unwrap();
                    let mut v = vec![0u8; f.size().unwrap() as usize];
                    f.pread(&mut v, 0).unwrap();
                    v
                })
                .collect()
        };
        let before = contents(b.as_ref());
        assert!(droppings
            .iter()
            .any(|d| d.data_path.ends_with(CREATOR_DATA)));
        for pid in 0..3u64 {
            let fd = plfs
                .open("/f", OpenFlags::WRONLY | OpenFlags::CREAT, pid)
                .unwrap();
            let data = [pid as u8 + 1; 16];
            plfs.write(&fd, &data, pid * 100, pid).unwrap();
            bytes[pid as usize * 100..][..16].copy_from_slice(&data);
            plfs.close(&fd, pid).unwrap();
        }
        assert_eq!(contents(b.as_ref()), before);
        assert_eq!(
            list_droppings(b.as_ref(), "/f").unwrap().len(),
            covered.len() + 3
        );
        let r = crate::reader::ReadFile::open(b.as_ref(), "/f").unwrap();
        assert_eq!(r.read_all(b.as_ref()).unwrap(), bytes);
        assert_eq!(merged_state(b.as_ref(), "/f").unwrap(), MergedState::Valid);
    }

    /// An index dropping on top of the merged index whose records are no
    /// newer than its newest stamp cannot be ordered after it: the reader
    /// merges every index dropping, and the older record loses to the
    /// newer bytes it overlaps (the one at the newest stamp goes where the
    /// merge's order puts it). `check` calls the file corrupt; the next
    /// publish replaces it.
    #[test]
    fn a_delta_no_newer_than_the_merged_index_falls_back_to_the_merge() {
        let b = std::sync::Arc::new(mem());
        let (_plfs, bytes) = scattered(&b);
        assert!(publish_merged(b.as_ref(), "/f").unwrap());
        let (base, _) = build_global_index(b.as_ref(), "/f").unwrap();
        // A closed hostdir writer, written by hand: 16 bytes at 0, stamped
        // at and below the merged index's newest.
        let pid = 77;
        ensure_hostdir(b.as_ref(), "/f", pid).unwrap();
        let data = b.create(&data_dropping_path("/f", pid, 0), true).unwrap();
        data.pwrite(&[0xee; 32], 0).unwrap();
        let mut records = Vec::new();
        for (k, stamp) in [1, base.max_timestamp()].into_iter().enumerate() {
            let k = k as u64;
            IndexEntry {
                logical_offset: k * 16,
                length: 16,
                physical_offset: k * 16,
                dropping_id: 0,
                timestamp: stamp,
                pid,
            }
            .encode(&mut records);
        }
        let index = b.create(&index_dropping_path("/f", pid, 0), true).unwrap();
        index.pwrite(&records, 0).unwrap();
        drop_meta(b.as_ref(), "/f", 32, 32, pid, 0).unwrap();
        let droppings = list_droppings(b.as_ref(), "/f").unwrap();
        let (fresh, _) = merge_droppings(b.as_ref(), &droppings).unwrap();
        let (view, _) = build_global_index(b.as_ref(), "/f").unwrap();
        assert!(view == fresh);
        let read = || {
            let r = crate::reader::ReadFile::open(b.as_ref(), "/f").unwrap();
            r.read_all(b.as_ref()).unwrap()
        };
        let merged = read();
        assert_eq!(merged[..16], bytes[..16], "the older record loses");
        assert_eq!(
            merged_state(b.as_ref(), "/f").unwrap(),
            MergedState::Corrupt
        );
        assert!(publish_merged(b.as_ref(), "/f").unwrap());
        assert_eq!(merged_state(b.as_ref(), "/f").unwrap(), MergedState::Valid);
        assert_eq!(read(), merged);
    }

    /// A merged file that fails its checks is merged around, and the
    /// reader's bytes are right — one whose extent maps other bytes too,
    /// as the checksum fails. `check` calls the file corrupt, `repair`
    /// removes it, and stray names beside it go the same way.
    #[test]
    fn a_corrupt_merged_index_falls_back_to_the_merge() {
        let b = std::sync::Arc::new(mem());
        let (_plfs, bytes) = scattered(&b);
        publish_merged(b.as_ref(), "/f").unwrap();
        let path = join("/f", MERGED_FILE);
        let size = b.stat(&path).unwrap().size;
        let f = b.open(&path, true).unwrap();
        let good = {
            let mut v = vec![0u8; size as usize];
            f.pread(&mut v, 0).unwrap();
            v
        };
        // A physical offset moved: it parses, and maps the wrong bytes.
        let mut moved = good.clone();
        moved[size as usize - 16] ^= 1;
        let cut = &good[..size as usize - 5];
        for bad in [&b"garbage"[..], cut, &moved] {
            let f = b.create(&path, false).unwrap();
            f.pwrite(bad, 0).unwrap();
            let r = crate::reader::ReadFile::open(b.as_ref(), "/f").unwrap();
            assert_eq!(r.read_all(b.as_ref()).unwrap(), bytes);
            let report = crate::check::check(b.as_ref(), "/f").unwrap();
            assert_eq!(report.merged, MergedState::Corrupt);
            assert_eq!(
                report.findings,
                [crate::check::Finding::CorruptMerged { path: path.clone() }]
            );
        }
        let strays = ["/f/merged.tmp.7.0", "/f/merged.0123456789abcdef"];
        for stray in strays {
            drop(b.create(stray, true).unwrap());
        }
        let report = crate::check::check(b.as_ref(), "/f").unwrap();
        let mut found: Vec<String> = report.findings.iter().map(|f| f.to_string()).collect();
        found.sort();
        assert_eq!(
            found,
            [
                "corrupt merged index /f/merged",
                "stray merged index name /f/merged.0123456789abcdef",
                "stray merged index name /f/merged.tmp.7.0",
            ]
        );
        let repaired = crate::check::repair(b.as_ref(), "/f", false).unwrap();
        assert_eq!(repaired.merged_removed, 3);
        assert!(merged_names(b.as_ref()).is_empty());
        assert!(crate::check::check(b.as_ref(), "/f").unwrap().is_clean());
    }

    /// The checksum sees one changed word anywhere, and where the bytes
    /// are cut between calls.
    #[test]
    fn the_checksum_sees_every_word_and_the_length() {
        let bytes: Vec<u8> = (0..100u8).collect();
        let sum = checksum(0, &bytes);
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= 0x80;
            assert_ne!(checksum(0, &flipped), sum, "byte {i}");
        }
        assert_ne!(checksum(0, &bytes[..99]), sum);
        assert_ne!(checksum(checksum(0, &bytes[..40]), &bytes[40..]), sum);
        assert_ne!(checksum(0, &[0; 32]), checksum(0, &[0; 64]));
    }

    /// Every path that rewrites or removes droppings deletes the merged
    /// index before it retires them — a truncate to 0, an `O_TRUNC` open, a
    /// truncate to another length, `compact`, `repair` — and an unlink takes
    /// it with the container. A stray name goes the same way.
    #[test]
    fn every_path_that_rewrites_droppings_deletes_the_merged_index() {
        use crate::flags::OpenFlags;
        type Path = fn(&crate::api::Plfs, &MemBacking);
        let paths: [(&str, Path); 6] = [
            ("trunc 0", |p, _| p.trunc("/f", 0).unwrap()),
            ("O_TRUNC", |p, _| {
                let fd = p
                    .open("/f", OpenFlags::WRONLY | OpenFlags::TRUNC, 1)
                    .unwrap();
                p.close(&fd, 1).unwrap();
            }),
            ("trunc 100", |p, _| p.trunc("/f", 100).unwrap()),
            ("compact", |p, _| {
                p.compact("/f").unwrap();
            }),
            ("repair", |_, b| {
                crate::check::repair(b, "/f", false).unwrap();
            }),
            ("unlink", |p, _| p.unlink("/f").unwrap()),
        ];
        for (what, path) in paths {
            let b = std::sync::Arc::new(mem());
            let (plfs, _) = scattered(&b);
            assert!(publish_merged(b.as_ref(), "/f").unwrap(), "{what}");
            drop(b.create("/f/merged.tmp.1.1", true).unwrap());
            path(&plfs, b.as_ref());
            if b.exists("/f") {
                assert!(
                    merged_names(b.as_ref()).is_empty(),
                    "{what} left the merged index"
                );
                let report = crate::check::check(b.as_ref(), "/f").unwrap();
                assert_eq!(report.merged, MergedState::Absent, "{what}");
            }
        }
    }
}
