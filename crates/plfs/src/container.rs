//! Container layout: the on-backing directory structure of a PLFS file.
//!
//! A logical file `/mnt/foo` maps to a *container* directory on the backend:
//!
//! ```text
//! foo/                                        container directory
//!   .plfsaccess                               marker and params; absent if a writer's open made foo with the defaults
//!   dropping.data.creator.0                   the creator's data dropping, made by its open; alone: it is open
//!   dropping.index.creator.0                  its index, if needed before close; the creator is open
//!   dropping.index.creator.0.<eof>.<bytes>    its index once it closed; fast-stat info
//!   dropping.index.creator.0.<eof>.i<stamp>   the same, its records all logical == physical
//!   open.<pid>.<n>                            empty: hostdir writer (pid, n) is open
//!   meta.<eof>.<bytes>.<pid>.<n>              empty: that writer closed; fast-stat info
//!   hostdir.0/ … hostdir.K-1/                 subdirectories holding everyone else's droppings
//!     dropping.data.<pid>.<n>                 log-structured data
//!     dropping.index.<pid>.<n>                index records for that data
//! ```
//!
//! **The marker rule.** A directory is a container when it holds the
//! access file or the creator's data dropping, [`CREATOR_DATA`] (a regular
//! file: an application's container of that name is a directory). No
//! access file means [`ContainerParams::default`]. A writable
//! `open(O_CREAT)` makes a container with the defaults and its creator's
//! data dropping in place of the access file (`create_container_as`);
//! every other create writes the access file. The creator's pair has one name
//! in every container, so a cold probe `stat`s it instead of listing for
//! it. Only an unlink leaves the directory unmarked: whatever else removes
//! the creator's data dropping of a container it alone marks publishes the
//! access file before it ([`publish_access_file`]).
//!
//! Droppings mirror Figure 1 of the paper (and the real PLFS layout): n
//! writers produce at least n data droppings and n index droppings, spread
//! over `num_hostdirs` subdirectories. Two departures, both so that one
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
//!   bare [`crate::WriteFile::open`] — keeps the hostdir pair with its
//!   `open.*`/`meta.*` names. Which shape a writer gets is what the code
//!   observed, never a knob.
//!
//! A container made before the creator's pair had a name of its own holds
//! it as `dropping.{data,index}.<pid>.0` beside the access file, and reads
//! as any other pair. A legacy container still opens, stats (slow path: no
//! drops) and unlinks; its subdirectories are never read. A legacy access
//! file's `mode` line must say `both`, the one layout there is.

use crate::backing::{join, remove_tree, Backing, BackingFile};
use crate::error::{Error, Result};
use crate::index::{observe_timestamp, GlobalIndex, IndexBuilder, IndexEntry, RECORD_SIZE};
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

/// Static parameters of a container, fixed at create time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContainerParams {
    /// Number of `hostdir.N` subdirectories writers are spread over.
    pub num_hostdirs: u32,
}

impl Default for ContainerParams {
    fn default() -> Self {
        // 32 hostdirs is the real PLFS default.
        ContainerParams { num_hostdirs: 32 }
    }
}

/// Which hostdir a pid's droppings land in.
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

/// Path of hostdir `n` within the container.
pub fn hostdir_path(container: &str, n: u32) -> String {
    path_of(container, format_args!("{HOSTDIR_PREFIX}{n}"))
}

/// Path of the dropping named `prefix` + the `<pid>.<seq>` of `(pid, seq)`
/// in its hostdir.
fn hostdir_dropping_path(
    container: &str,
    params: &ContainerParams,
    prefix: &str,
    pid: u64,
    seq: u32,
) -> String {
    let hd = hostdir_for_pid(pid, params.num_hostdirs);
    path_of(
        container,
        format_args!("{HOSTDIR_PREFIX}{hd}/{prefix}{pid}.{seq}"),
    )
}

/// Path of a data dropping for `(pid, seq)`.
pub fn data_dropping_path(container: &str, params: &ContainerParams, pid: u64, seq: u32) -> String {
    hostdir_dropping_path(container, params, DATA_PREFIX, pid, seq)
}

/// Path of an index dropping for `(pid, seq)`.
pub fn index_dropping_path(
    container: &str,
    params: &ContainerParams,
    pid: u64,
    seq: u32,
) -> String {
    hostdir_dropping_path(container, params, INDEX_PREFIX, pid, seq)
}

/// The `<pid>.<seq>` place of the creator's pair: one per container, as
/// only one open makes it, so its names need no pid — and a probe can
/// `stat` the data dropping without listing.
pub const CREATOR_PAIR: &str = "creator.0";

/// Name of the creator's data dropping in the container directory.
pub const CREATOR_DATA: &str = "dropping.data.creator.0";

/// Name of the creator's index dropping under its open (un-suffixed) name.
pub const CREATOR_INDEX: &str = "dropping.index.creator.0";

/// Paths of the creator's pair: its data dropping and its index dropping
/// under its open (un-suffixed) name.
pub fn creator_pair_paths(container: &str) -> (String, String) {
    (
        join(container, CREATOR_DATA),
        join(container, CREATOR_INDEX),
    )
}

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
    /// The access file, which holds the params.
    AccessFile,
    /// The creator's data dropping and no access file: the default params.
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

/// Serialized container parameters stored in the access file.
fn encode_params(p: &ContainerParams) -> Vec<u8> {
    format!("plfs-container v1\nnum_hostdirs {}\n", p.num_hostdirs).into_bytes()
}

fn decode_params(data: &[u8]) -> Result<ContainerParams> {
    let text =
        std::str::from_utf8(data).map_err(|_| Error::Corrupt("access file is not UTF-8".into()))?;
    let mut p = ContainerParams::default();
    if !text.starts_with("plfs-container v1") {
        return Err(Error::Corrupt("bad access file header".into()));
    }
    for line in text.lines().skip(1) {
        let mut it = line.split_whitespace();
        match (it.next(), it.next()) {
            (Some("num_hostdirs"), Some(v)) => {
                p.num_hostdirs = v
                    .parse()
                    .map_err(|_| Error::Corrupt("bad num_hostdirs".into()))?;
            }
            // Written by older versions, which had other layouts: only
            // classic PLFS's reads as what it says.
            (Some("mode"), Some("both")) => {}
            (Some("mode"), Some(other)) => {
                return Err(Error::Corrupt(format!("unsupported layout mode {other}")))
            }
            (None, _) => {}
            _ => {}
        }
    }
    if p.num_hostdirs == 0 {
        return Err(Error::Corrupt("num_hostdirs must be nonzero".into()));
    }
    Ok(p)
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
/// open and close.
///
/// Returns the parameters the container now has — the ones just written on
/// a fresh create, or the ones read back from the access file when the
/// container already existed, so callers never re-read what they just
/// wrote — and which of the two happened.
pub fn create_container(
    b: &dyn Backing,
    path: &str,
    params: &ContainerParams,
    excl: bool,
) -> Result<(ContainerParams, Creation)> {
    let (p, how, _) = create_container_as(b, path, params, excl, false)?;
    Ok((p, how))
}

/// [`create_container`] for an open that will write: a container it makes
/// gets its [`CreatorDropping`] in place of the access file — the dropping
/// marks it, and no file records params, so a writer passes the defaults.
/// With `writer` false this is [`create_container`].
pub(crate) fn create_container_as(
    b: &dyn Backing,
    path: &str,
    params: &ContainerParams,
    excl: bool,
    writer: bool,
) -> Result<(ContainerParams, Creation, Option<CreatorDropping>)> {
    match b.mkdir(path) {
        Ok(()) => {}
        // Already there, or lost the mkdir to a concurrent creator.
        Err(Error::Exists(_)) if !excl => {
            return Ok((await_creator(b, path)?, Creation::Joined, None));
        }
        Err(e) => return Err(e),
    }
    // A bare directory would read as nascent to every later creator: on
    // failure take back down what this call made (best effort), and only
    // that — a marker whose exclusive create failed is not ours, and
    // `rmdir` refuses a directory that holds anything.
    let made = match writer {
        true => CreatorDropping::create(b, path).map(Some),
        false => write_access_file(b, path, params).map(|()| None),
    };
    match made {
        Ok(dropping) => Ok((*params, Creation::Made, dropping)),
        Err(e) => {
            let _ = b.rmdir(path);
            Err(e)
        }
    }
}

/// Create the access file of the container at `path`, exclusively, and
/// write `params` into it; a failed write takes the file back down.
fn write_access_file(b: &dyn Backing, path: &str, params: &ContainerParams) -> Result<()> {
    let access = join(path, ACCESS_FILE);
    let f = b.create(&access, true)?;
    if let Err(e) = f.pwrite(&encode_params(params), 0) {
        let _ = b.unlink(&access);
        return Err(e);
    }
    Ok(())
}

/// Give the container at `path`, which has no access file, one holding
/// `params` — written whole under a name of its own and renamed into
/// place, so no reader of a container that already exists ever sees it
/// empty. What anything but an unlink does before it removes the creator's
/// data dropping of a container that dropping alone marks (whose params
/// are the defaults, so two racing publishers write the same bytes).
pub fn publish_access_file(b: &dyn Backing, path: &str, params: &ContainerParams) -> Result<()> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    // relaxed: only uniqueness of the number matters
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let tmp = path_of(
        path,
        format_args!("{ACCESS_FILE}.{}.{n}", std::process::id()),
    );
    let written = b
        .create(&tmp, true)
        .and_then(|f| f.pwrite(&encode_params(params), 0));
    let published = written.and_then(|_| b.rename(&tmp, &join(path, ACCESS_FILE)));
    if published.is_err() {
        let _ = b.unlink(&tmp);
    }
    published
}

/// [`publish_access_file`] unless the container has an access file.
pub fn ensure_access_file(b: &dyn Backing, path: &str, params: &ContainerParams) -> Result<()> {
    if b.exists(&join(path, ACCESS_FILE)) {
        return Ok(());
    }
    publish_access_file(b, path, params)
}

/// How long a non-exclusive creator waits for a concurrent creator of the
/// same container to finish its skeleton.
const CREATE_RACE_WAIT: Duration = Duration::from_secs(1);

/// The parameters of the container at `path`, which exists but may still be
/// mid-creation by another process: the skeleton is `mkdir` then the access
/// file (create, then its bytes) and/or the creator's data dropping, and a
/// creator that merely lost the race must not fail a *non*-exclusive create
/// with `EEXIST`. Reads the params, retrying (bounded) while neither marker
/// is there or the access file is still empty — but only while `path`
/// looks like a nascent container; anything else in the way is `Exists` at
/// once, and an error other than a missing marker is returned as it is.
fn await_creator(b: &dyn Backing, path: &str) -> Result<ContainerParams> {
    let deadline = Instant::now() + CREATE_RACE_WAIT;
    let mut pause = Duration::from_micros(50);
    loop {
        let err = match read_params(b, path) {
            Ok(found) => return Ok(found),
            Err(e @ Error::Corrupt(_)) => e,
            Err(Error::NotContainer(_)) => Error::Exists(path.to_string()),
            Err(e) => return Err(e),
        };
        if Instant::now() >= deadline || !nascent(b, path) {
            // Not a skeleton — or no longer one: a creator that finished
            // between the two probes (and a writer that already made a
            // hostdir) left a marker.
            return read_params(b, path).map_err(|_| err);
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

/// Largest access file [`read_params`] reads; what [`encode_params`]
/// writes is a few dozen bytes.
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

/// Read back the parameters a container was created with, by the marker
/// rule for a path nothing is known about: the access file's, or — with
/// none, and the creator's data dropping marking the directory — the
/// defaults. `NotContainer` when neither marks it. The access file is read
/// with one `pread` of up to one byte past [`ACCESS_FILE_MAX`]; one longer
/// than that is corrupt, and so is an empty one (a creator between its
/// create and its write, or one that died there).
pub fn read_params(b: &dyn Backing, path: &str) -> Result<ContainerParams> {
    let mut buf = [0u8; ACCESS_FILE_MAX + 1];
    match read_access_file(b, path, &mut buf)? {
        Some(n) if n > ACCESS_FILE_MAX => Err(Error::Corrupt(format!(
            "access file of {path} is over {ACCESS_FILE_MAX} bytes"
        ))),
        Some(n) => decode_params(&buf[..n]),
        None if creator_marks(b, path) => Ok(ContainerParams::default()),
        None => Err(Error::NotContainer(path.to_string())),
    }
}

/// Ensure the hostdir a pid writes into exists.
pub fn ensure_hostdir(
    b: &dyn Backing,
    container: &str,
    params: &ContainerParams,
    pid: u64,
) -> Result<()> {
    let hd = hostdir_for_pid(pid, params.num_hostdirs);
    match b.mkdir(&hostdir_path(container, hd)) {
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

/// How often [`build_global_index`] lists again when an index dropping it
/// was shown is gone by the time it opens it.
const RELIST_ATTEMPTS: usize = 4;

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
/// A top-level index dropping is renamed once in its life, when its writer
/// closes; a reader that listed the container just before finds the old
/// name gone and lists again (bounded) for the new one.
pub fn build_global_index(
    b: &dyn Backing,
    container: &str,
) -> Result<(GlobalIndex, Vec<DroppingRef>)> {
    let mut attempt = 1;
    let (index, droppings) = loop {
        let names = list_container(b, container)?;
        let droppings = droppings_listed(b, container, &names)?;
        let named = creator_alone(&names).and_then(|c| GlobalIndex::identity(c.eof, c.identity?));
        if let Some(index) = named {
            break (index, droppings);
        }
        let built = with_window(|window| {
            IndexBuilder::build(|builder| {
                for (id, d) in (0u32..).zip(&droppings) {
                    let Some(ip) = &d.index_path else { continue };
                    let mut file = IndexFile::open(b, ip, window)?;
                    builder.reserve(file.records());
                    while let Some(bytes) = file.next(window)? {
                        builder.decode(bytes, id)?;
                    }
                }
                Ok(())
            })
        });
        match built {
            Ok(index) => break (index, droppings),
            Err(Error::NotFound(_)) if attempt < RELIST_ATTEMPTS => attempt += 1,
            Err(e) => return Err(e),
        }
    };
    observe_timestamp(index.max_timestamp());
    Ok((index, droppings))
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
/// PLFS fast-stat path).
pub fn drop_meta(
    b: &dyn Backing,
    container: &str,
    eof: u64,
    bytes: u64,
    pid: u64,
    seq: u32,
) -> Result<()> {
    b.create(&meta_path(container, eof, bytes, pid, seq), false)?;
    Ok(())
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
        Err(Error::NotFound(_)) => drop_meta(b, container, eof, bytes, pid, seq),
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

fn parent(path: &str) -> &str {
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
        create_container(&b, "/f", &ContainerParams::default(), true).unwrap();
        assert!(is_container(&b, "/f"));
        assert_eq!(b.readdir("/f").unwrap(), [ACCESS_FILE], "two-op skeleton");
    }

    #[test]
    fn create_returns_params_without_reread() {
        let b = mem();
        let p = ContainerParams { num_hostdirs: 5 };
        let (got, how) = create_container(&b, "/f", &p, true).unwrap();
        assert_eq!((got.num_hostdirs, how), (5, Creation::Made));
        // Reopening an existing container hands back the *stored* params,
        // not the caller's defaults.
        let other = ContainerParams { num_hostdirs: 9 };
        let (got, how) = create_container(&b, "/f", &other, false).unwrap();
        assert_eq!((got.num_hostdirs, how), (5, Creation::Joined));
    }

    #[test]
    fn params_roundtrip_through_access_file() {
        let b = mem();
        let p = ContainerParams { num_hostdirs: 7 };
        create_container(&b, "/f", &p, true).unwrap();
        assert_eq!(read_params(&b, "/f").unwrap(), p);
    }

    #[test]
    fn excl_create_fails_if_present() {
        let b = mem();
        create_container(&b, "/f", &ContainerParams::default(), true).unwrap();
        assert!(matches!(
            create_container(&b, "/f", &ContainerParams::default(), true),
            Err(Error::Exists(_))
        ));
        // Non-exclusive open of an existing container succeeds.
        create_container(&b, "/f", &ContainerParams::default(), false).unwrap();
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
            read_params(&b, "/nascent"),
            Err(Error::Corrupt(_))
        ));
        let p = ContainerParams::default();
        let (_, how, dropping) = create_container_as(&b, "/c", &p, true, true).unwrap();
        assert_eq!(
            (how, b.readdir("/c").unwrap()),
            (Creation::Made, vec![CREATOR_DATA.to_string()])
        );
        drop(dropping);
        assert_eq!(read_params(&b, "/c").unwrap(), p);
        // Written under a name of its own, then renamed into place.
        ensure_access_file(&b, "/c", &p).unwrap();
        assert_eq!(b.readdir("/c").unwrap(), [ACCESS_FILE, CREATOR_DATA]);
        assert_eq!(read_params(&b, "/c").unwrap(), p);
        // One that is there is left as it is.
        let nine = ContainerParams { num_hostdirs: 9 };
        create_container(&b, "/g", &nine, true).unwrap();
        ensure_access_file(&b, "/g", &p).unwrap();
        assert_eq!(read_params(&b, "/g").unwrap(), nine);
    }

    /// The cold probe: the access file's `exists`; failing it, the listing
    /// and a `stat` of the creator's dropping it names — which a plain
    /// directory may hold as an application's container, a directory.
    #[test]
    fn the_probe_reads_either_marker_and_nothing_else() {
        let b = mem();
        create_container(&b, "/g", &ContainerParams::default(), true).unwrap();
        create_container_as(&b, "/f", &ContainerParams::default(), true, true).unwrap();
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
        assert!(matches!(read_params(&b, "/d"), Err(Error::NotContainer(_))));
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
        let k = 32;
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
        let p = ContainerParams { num_hostdirs: 4 };
        let d = data_dropping_path("/c", &p, 42, 0);
        assert!(d.starts_with("/c/hostdir."));
        assert!(d.ends_with("/dropping.data.42.0"));
        let i = index_dropping_path("/c", &p, 42, 0);
        assert!(i.ends_with("/dropping.index.42.0"));
        // Data and index for one pid share a hostdir.
        let dh = d.split('/').nth(2).unwrap().to_string();
        let ih = i.split('/').nth(2).unwrap().to_string();
        assert_eq!(dh, ih);
    }

    #[test]
    fn list_droppings_pairs_data_with_index() {
        let b = mem();
        let p = ContainerParams::default();
        create_container(&b, "/c", &p, true).unwrap();
        for pid in [3u64, 9, 12] {
            ensure_hostdir(&b, "/c", &p, pid).unwrap();
            b.create(&data_dropping_path("/c", &p, pid, 0), true)
                .unwrap();
            b.create(&index_dropping_path("/c", &p, pid, 0), true)
                .unwrap();
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
        create_container(&b, "/c", &ContainerParams::default(), true).unwrap();
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
        create_container(&b, "/c", &ContainerParams::default(), true).unwrap();
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
        let p = ContainerParams::default();
        create_container(&b, "/c", &p, true).unwrap();
        let (dp, ip) = toplevel_pair_paths("/c", 7, 0);
        b.create(&dp, true).unwrap();
        b.create(&ip, true).unwrap();
        ensure_hostdir(&b, "/c", &p, 9).unwrap();
        b.create(&data_dropping_path("/c", &p, 9, 0), true).unwrap();
        b.create(&index_dropping_path("/c", &p, 9, 0), true)
            .unwrap();
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
        create_container(&b, "/c", &ContainerParams::default(), true).unwrap();
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
        ensure_hostdir(&b, "/c", &ContainerParams::default(), 3).unwrap();
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
        let p = ContainerParams::default();
        create_container(&b, "/c", &p, true).unwrap();
        ensure_hostdir(&b, "/c", &p, 5).unwrap();
        b.create(&data_dropping_path("/c", &p, 5, 0), true).unwrap();
        // Entries the layout does not predict take the remove_tree path.
        b.mkdir_all("/c/openhosts/nested").unwrap();
        b.mkdir("/c/hostdir.9").unwrap();
        b.mkdir("/c/hostdir.9/sub").unwrap();
        remove_container(&b, "/c").unwrap();
        assert!(!b.exists("/c"));
    }
}
