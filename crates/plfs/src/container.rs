//! Container layout: the on-backing directory structure of a PLFS file.
//!
//! A logical file `/mnt/foo` maps to a *container* directory on the backend:
//!
//! ```text
//! foo/                                      container directory
//!   .plfsaccess                             marker: "this directory is a container"
//!   dropping.data.<pid>.<n>                 the creator's data dropping
//!   dropping.index.<pid>.<n>                its index; this name: the creator is open
//!   dropping.index.<pid>.<n>.<eof>.<bytes>  the same file once it closed; fast-stat info
//!   open.<pid>.<n>                          empty: hostdir writer (pid, n) is open
//!   meta.<eof>.<bytes>.<pid>.<n>            empty: that writer closed; fast-stat info
//!   hostdir.0/ … hostdir.K-1/               subdirectories holding everyone else's droppings
//!     dropping.data.<pid>.<n>               log-structured data
//!     dropping.index.<pid>.<n>              index records for that data
//! ```
//!
//! Droppings mirror Figure 1 of the paper (and the real PLFS layout): n
//! writers produce at least n data droppings and n index droppings, spread
//! over `num_hostdirs` subdirectories. Two departures, both so that one
//! `readdir` of the container directory answers every metadata question
//! (is it a container, who is writing, how big is it, where are the
//! droppings) and a small file costs no directory of its own:
//!
//! * Lifecycle state — the paper's `openhosts/` and `meta/` subdirectories
//!   — is *names* in the container directory, and close is one `rename`.
//! * The writer that *made* the container (its `open`'s `mkdir` succeeded:
//!   [`Creation::Made`]) keeps a **top-level pair**: its two droppings sit
//!   beside the access file, with no hostdir and no empty marker — the
//!   index dropping's own name is its lifecycle. Un-suffixed it is the open
//!   marker; close renames it to carry `<eof>.<bytes>`, which is the
//!   fast-stat drop. (A name apart from `meta.*`, so clearing the drops can
//!   never delete records.) Every other writer — one that joined an
//!   existing container, a reopener, a bare [`crate::WriteFile::open`], all
//!   of log mode — keeps the hostdir pair with its `open.*`/`meta.*` names.
//!   Which shape a writer gets is what the code observed, never a knob.
//!
//! (In log mode, where every writer shares pair 0, `n` is the first number
//! free among its pid's names.) A legacy container still opens, stats (slow
//! path: no drops) and unlinks; its subdirectories are never read.

use crate::backing::{join, remove_tree, Backing};
use crate::error::{Error, Result};
use crate::index::{observe_timestamp, GlobalIndex, IndexEntry};
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

/// How the container lays data out. `Both` is classic PLFS. The other two
/// modes exist to study the paper's future-work question — log structure and
/// file partitioning in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LayoutMode {
    /// Log-structured writes into per-pid partitioned droppings (PLFS).
    #[default]
    Both,
    /// Per-pid droppings, but data written *at its logical offset* within
    /// the pid's dropping (partitioning without the log).
    PartitionedOnly,
    /// A single shared log dropping for all pids (log without partitioning).
    LogStructured,
}

/// Static parameters of a container, fixed at create time.
#[derive(Debug, Clone, Copy)]
pub struct ContainerParams {
    /// Number of `hostdir.N` subdirectories writers are spread over.
    pub num_hostdirs: u32,
    /// Layout mode (see [`LayoutMode`]).
    pub mode: LayoutMode,
}

impl Default for ContainerParams {
    fn default() -> Self {
        // 32 hostdirs is the real PLFS default.
        ContainerParams {
            num_hostdirs: 32,
            mode: LayoutMode::Both,
        }
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

/// Path of hostdir `n` within the container.
pub fn hostdir_path(container: &str, n: u32) -> String {
    join(container, &format!("{HOSTDIR_PREFIX}{n}"))
}

/// Path of a data dropping for `(pid, seq)`.
pub fn data_dropping_path(container: &str, params: &ContainerParams, pid: u64, seq: u32) -> String {
    let hd = match params.mode {
        LayoutMode::LogStructured => 0,
        _ => hostdir_for_pid(pid, params.num_hostdirs),
    };
    let name = match params.mode {
        LayoutMode::LogStructured => format!("{DATA_PREFIX}shared.{seq}"),
        _ => format!("{DATA_PREFIX}{pid}.{seq}"),
    };
    join(&hostdir_path(container, hd), &name)
}

/// Path of an index dropping for `(pid, seq)`.
pub fn index_dropping_path(
    container: &str,
    params: &ContainerParams,
    pid: u64,
    seq: u32,
) -> String {
    let hd = match params.mode {
        LayoutMode::LogStructured => 0,
        _ => hostdir_for_pid(pid, params.num_hostdirs),
    };
    // In log-structured mode the shared data dropping pairs with a shared
    // index dropping (records are self-describing, so interleaved appends
    // from many pids are fine).
    let name = match params.mode {
        LayoutMode::LogStructured => format!("{INDEX_PREFIX}shared.{seq}"),
        _ => format!("{INDEX_PREFIX}{pid}.{seq}"),
    };
    join(&hostdir_path(container, hd), &name)
}

/// Paths of the top-level dropping pair `(pid, seq)`: the data dropping and
/// the index dropping under its open (un-suffixed) name, in the container
/// directory itself.
pub fn toplevel_pair_paths(container: &str, pid: u64, seq: u32) -> (String, String) {
    (
        join(container, &format!("{DATA_PREFIX}{pid}.{seq}")),
        join(container, &format!("{INDEX_PREFIX}{pid}.{seq}")),
    )
}

/// An index dropping's name taken apart: the `<pid>.<seq>` it shares with
/// its data dropping and — on a top-level index whose writer closed — the
/// `(eof, bytes)` its name carries.
pub fn parse_index_name(name: &str) -> Option<(&str, Option<(u64, u64)>)> {
    let rest = name.strip_prefix(INDEX_PREFIX)?;
    let mut dots = rest.match_indices('.').map(|(i, _)| i);
    match (dots.next()?, dots.next(), dots.next(), dots.next()) {
        (_, None, ..) => Some((rest, None)),
        (_, Some(b), Some(c), None) => {
            let closed = (rest[b + 1..c].parse().ok()?, rest[c + 1..].parse().ok()?);
            Some((&rest[..b], Some(closed)))
        }
        _ => None,
    }
}

/// Is the backend path a PLFS container?
pub fn is_container(b: &dyn Backing, path: &str) -> bool {
    match b.stat(path) {
        Ok(st) if st.is_dir => b.exists(&join(path, ACCESS_FILE)),
        _ => false,
    }
}

/// Serialized container parameters stored in the access file.
fn encode_params(p: &ContainerParams) -> Vec<u8> {
    let mode = match p.mode {
        LayoutMode::Both => "both",
        LayoutMode::PartitionedOnly => "partitioned",
        LayoutMode::LogStructured => "log",
    };
    format!(
        "plfs-container v1\nnum_hostdirs {}\nmode {}\n",
        p.num_hostdirs, mode
    )
    .into_bytes()
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
            (Some("mode"), Some(v)) => {
                p.mode = match v {
                    "both" => LayoutMode::Both,
                    "partitioned" => LayoutMode::PartitionedOnly,
                    "log" => LayoutMode::LogStructured,
                    other => return Err(Error::Corrupt(format!("bad mode {other}"))),
                };
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
    match b.mkdir(path) {
        Ok(()) => {}
        // Already there, or lost the mkdir to a concurrent creator.
        Err(Error::Exists(_)) if !excl => {
            return Ok((await_creator(b, path)?, Creation::Joined));
        }
        Err(e) => return Err(e),
    }
    // A bare directory would read as nascent to every later creator: on
    // failure take back down what this call made (best effort), and only
    // that — an access file whose exclusive create failed is not ours, and
    // `rmdir` refuses a directory that holds anything.
    let access = join(path, ACCESS_FILE);
    let made = b.create(&access, true).and_then(|f| {
        let wrote = f.pwrite(&encode_params(params), 0);
        if wrote.is_err() {
            let _ = b.unlink(&access);
        }
        wrote
    });
    if let Err(e) = made {
        let _ = b.rmdir(path);
        return Err(e);
    }
    Ok((*params, Creation::Made))
}

/// How long a non-exclusive creator waits for a concurrent creator of the
/// same container to finish its skeleton.
const CREATE_RACE_WAIT: Duration = Duration::from_secs(1);

/// The parameters of the container at `path`, which exists but may still be
/// mid-creation by another process: the skeleton is `mkdir` then the access
/// file (create, then its bytes), and a creator that merely lost the race
/// must not fail a *non*-exclusive create with `EEXIST`. Reads the access
/// file, retrying (bounded) while it is missing or still empty — but only
/// while `path` looks like a nascent container; anything else in the way is
/// `Exists` at once.
fn await_creator(b: &dyn Backing, path: &str) -> Result<ContainerParams> {
    let deadline = Instant::now() + CREATE_RACE_WAIT;
    let mut pause = Duration::from_micros(50);
    loop {
        let err = match read_params(b, path) {
            Ok(p) => return Ok(p),
            Err(e @ Error::Corrupt(_)) => e,
            Err(Error::NotContainer(_)) => Error::Exists(path.to_string()),
            Err(e) => return Err(e),
        };
        if Instant::now() >= deadline || !nascent(b, path) {
            // Not a skeleton — or no longer one: a creator that finished
            // between the two probes (and a writer that already made a
            // hostdir) left a readable access file.
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

/// Read back the parameters a container was created with.
pub fn read_params(b: &dyn Backing, path: &str) -> Result<ContainerParams> {
    let f = b
        .open(&join(path, ACCESS_FILE), false)
        .map_err(|_| Error::NotContainer(path.to_string()))?;
    let size = f.size()? as usize;
    let mut buf = vec![0u8; size];
    f.pread(&mut buf, 0)?;
    decode_params(&buf)
}

/// Ensure the hostdir a pid writes into exists.
pub fn ensure_hostdir(
    b: &dyn Backing,
    container: &str,
    params: &ContainerParams,
    pid: u64,
) -> Result<()> {
    let hd = match params.mode {
        LayoutMode::LogStructured => 0,
        _ => hostdir_for_pid(pid, params.num_hostdirs),
    };
    match b.mkdir(&hostdir_path(container, hd)) {
        Ok(()) | Err(Error::Exists(_)) => Ok(()),
        Err(e) => Err(e),
    }
}

/// The container directory's listing: the one question the metadata path
/// asks. "Is a container" is read off it (the access file is among the
/// names, and no directory to list is the same answer), so nothing that
/// lists probes first.
fn list_container(b: &dyn Backing, container: &str) -> Result<Vec<String>> {
    use crate::error::libc_errno::{ENOENT, ENOTDIR};
    match b.readdir(container) {
        Ok(names) if names.iter().any(|n| n == ACCESS_FILE) => Ok(names),
        Err(e) if ![ENOENT, ENOTDIR].contains(&e.errno()) => Err(e),
        _ => Err(Error::NotContainer(container.to_string())),
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

/// Pair every data dropping among `names` (the listing of `dir`) with its
/// index dropping in the same listing, under either spelling of its name.
fn pair_droppings(dir: &str, names: &[String], out: &mut Vec<DroppingRef>) {
    let indices: Vec<(&str, &String)> = names
        .iter()
        .filter_map(|n| Some((parse_index_name(n)?.0, n)))
        .collect();
    for name in names {
        let Some(pair) = name.strip_prefix(DATA_PREFIX) else {
            continue;
        };
        let index = indices.iter().find(|(p, _)| *p == pair);
        out.push(DroppingRef {
            data_path: join(dir, name),
            index_path: index.map(|(_, n)| join(dir, n)),
        });
    }
}

/// Enumerate all data droppings (with their index droppings) in a container,
/// in a deterministic order: the top-level pair off the container's own
/// listing, then hostdir by hostdir (those the listing shows; a container
/// holding only its creator's pair costs the one `readdir`). The position in
/// the returned vector is the `dropping_id` used by the global index.
pub fn list_droppings(b: &dyn Backing, container: &str) -> Result<Vec<DroppingRef>> {
    let mut out = Vec::new();
    let names = list_container(b, container)?;
    pair_droppings(container, &names, &mut out);
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

/// Read, decode and expand one index dropping, renumbering its entries to
/// the global dropping id (writers store a local id).
fn read_index_dropping(b: &dyn Backing, id: u32, ip: &str) -> Result<Vec<IndexEntry>> {
    let f = b.open(ip, false)?;
    let size = f.size()? as usize;
    let mut buf = vec![0u8; size];
    let n = f.pread(&mut buf, 0)?;
    if n != size {
        return Err(Error::Corrupt(format!("short read of index {ip}")));
    }
    let mut entries = IndexEntry::decode_all(&buf)?;
    for e in &mut entries {
        e.dropping_id = id;
    }
    Ok(entries)
}

/// Decode every index dropping of `droppings` into a run of its own,
/// entries numbered by the dropping's position in the slice.
pub fn read_index_runs(b: &dyn Backing, droppings: &[DroppingRef]) -> Result<Vec<Vec<IndexEntry>>> {
    let mut runs = Vec::new();
    for (id, d) in droppings.iter().enumerate() {
        let Some(ip) = &d.index_path else { continue };
        runs.push(read_index_dropping(b, id as u32, ip)?);
    }
    Ok(runs)
}

/// How often [`build_global_index`] lists again when an index dropping it
/// was shown is gone by the time it opens it.
const RELIST_ATTEMPTS: usize = 4;

/// Load and merge every index dropping into a [`GlobalIndex`], numbering
/// droppings by their position in [`list_droppings`] order: the runs of
/// [`read_index_runs`] merged by [`GlobalIndex::from_sorted_runs`]. Steps
/// the process write clock past what was merged (see
/// [`observe_timestamp`]).
///
/// A top-level index dropping is renamed once in its life, when its writer
/// closes; a reader that listed the container just before finds the old
/// name gone and lists again (bounded) for the new one.
pub fn build_global_index(
    b: &dyn Backing,
    container: &str,
) -> Result<(GlobalIndex, Vec<DroppingRef>)> {
    let mut attempt = 1;
    let (runs, droppings) = loop {
        let droppings = list_droppings(b, container)?;
        match read_index_runs(b, &droppings) {
            Ok(runs) => break (runs, droppings),
            Err(Error::NotFound(_)) if attempt < RELIST_ATTEMPTS => attempt += 1,
            Err(e) => return Err(e),
        }
    };
    let index = GlobalIndex::from_sorted_runs(runs);
    observe_timestamp(index.max_timestamp());
    Ok((index, droppings))
}

fn marker_path(container: &str, pid: u64, seq: u32) -> String {
    join(container, &format!("{OPEN_PREFIX}{pid}.{seq}"))
}

fn meta_path(container: &str, eof: u64, bytes: u64, pid: u64, seq: u32) -> String {
    join(
        container,
        &format!("{META_PREFIX}{eof}.{bytes}.{pid}.{seq}"),
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
/// the count of open writers — `open.*` markers and un-suffixed top-level
/// index droppings — and the fast-stat `(max eof, total bytes)` over all
/// drops, `meta.*` names and suffixed top-level index droppings alike
/// (`None` if no writer has closed yet).
pub fn read_lifecycle(b: &dyn Backing, container: &str) -> Result<(usize, Option<(u64, u64)>)> {
    let mut writers = 0;
    let mut best: Option<(u64, u64)> = None;
    for n in list_container(b, container)? {
        // A name is an open writer (`None`), a closed one's drop, or neither.
        let closed = if n.starts_with(OPEN_PREFIX) {
            None
        } else if let Some(rest) = n.strip_prefix(META_PREFIX) {
            let mut it = rest.split('.').map(str::parse::<u64>);
            let (Some(Ok(eof)), Some(Ok(bytes))) = (it.next(), it.next()) else {
                continue;
            };
            Some((eof, bytes))
        } else if let Some((_, closed)) = parse_index_name(&n) {
            closed
        } else {
            continue;
        };
        match closed {
            None => writers += 1,
            Some((eof, bytes)) => {
                let cur = best.get_or_insert((0, 0));
                cur.0 = cur.0.max(eof);
                cur.1 += bytes;
            }
        }
    }
    Ok((writers, best))
}

/// Count of writers currently holding the container open.
pub fn open_writers(b: &dyn Backing, container: &str) -> Result<usize> {
    Ok(read_lifecycle(b, container)?.0)
}

/// The first number no lifecycle name of `pid` in the listing carries:
/// what a log-mode writer — every one of which shares dropping pair 0 —
/// starts its names from, so that no two share a marker or a drop.
pub fn free_writer_number(b: &dyn Backing, container: &str, pid: u64) -> Result<u32> {
    let taken = |name: &String| {
        let mut it = name.rsplit('.');
        let n = it.next()?.parse::<u32>().ok()?;
        (it.next()?.parse() == Ok(pid)).then_some(n + 1)
    };
    let names = list_container(b, container)?;
    Ok(names.iter().filter_map(taken).max().unwrap_or(0))
}

/// Record that a writer of `pid` has the container open, under the first
/// free marker name from `seq` (its dropping pair's number) up: the create
/// is exclusive, so a writer never shares a marker — one racing it in log
/// mode, or left standing by another fd across a truncate, bumps the
/// number. Returns the number the writer's names carry.
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
/// `<eof>.<bytes>` suffix in one `rename`, which drops its open marker and
/// leaves its fast-stat drop at once (a suffix it already carries is
/// replaced: repair). Returns the path the index now has — the one it had
/// when a truncate took the pair away under its writer, which then has
/// nothing to publish; with the whole container gone that is an error, as
/// it is for a hostdir writer.
pub fn close_toplevel(b: &dyn Backing, index_path: &str, eof: u64, bytes: u64) -> Result<String> {
    let parsed = index_path
        .rsplit_once('/')
        .and_then(|(dir, name)| Some((dir, parse_index_name(name)?.0)));
    let Some((dir, pair)) = parsed else {
        return Err(Error::InvalidArg("not the path of an index dropping"));
    };
    let closed = join(dir, &format!("{INDEX_PREFIX}{pair}.{eof}.{bytes}"));
    if closed == index_path {
        return Ok(closed);
    }
    match b.rename(index_path, &closed) {
        Ok(()) => Ok(closed),
        Err(Error::NotFound(_)) if b.exists(dir) => Ok(index_path.to_string()),
        Err(e) => Err(e),
    }
}

/// Delete a container and everything inside it, by layout: every entry but
/// a `hostdir.*` is a file and a hostdir holds only files, so nothing is
/// probed before it is removed. An entry that says otherwise (a legacy
/// `openhosts/`, a foreign subdirectory) falls back to [`remove_tree`].
/// Like it, tolerates pieces vanishing under a racing removal.
pub fn remove_container(b: &dyn Backing, path: &str) -> Result<()> {
    let gone_ok = |r: Result<()>| match r {
        Err(Error::NotFound(_)) => Ok(()),
        r => r,
    };
    for name in list_container(b, path)? {
        let child = join(path, &name);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backing::MemBacking;

    fn mem() -> MemBacking {
        MemBacking::new()
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
        let p = ContainerParams {
            num_hostdirs: 5,
            mode: LayoutMode::Both,
        };
        let (got, how) = create_container(&b, "/f", &p, true).unwrap();
        assert_eq!((got.num_hostdirs, how), (5, Creation::Made));
        // Reopening an existing container hands back the *stored* params,
        // not the caller's defaults.
        let other = ContainerParams {
            num_hostdirs: 9,
            mode: LayoutMode::Both,
        };
        let (got, how) = create_container(&b, "/f", &other, false).unwrap();
        assert_eq!((got.num_hostdirs, how), (5, Creation::Joined));
    }

    #[test]
    fn params_roundtrip_through_access_file() {
        let b = mem();
        let p = ContainerParams {
            num_hostdirs: 7,
            mode: LayoutMode::PartitionedOnly,
        };
        create_container(&b, "/f", &p, true).unwrap();
        let got = read_params(&b, "/f").unwrap();
        assert_eq!(got.num_hostdirs, 7);
        assert_eq!(got.mode, LayoutMode::PartitionedOnly);
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
        let p = ContainerParams {
            num_hostdirs: 4,
            mode: LayoutMode::Both,
        };
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
    fn log_structured_mode_shares_one_data_dropping() {
        let p = ContainerParams {
            num_hostdirs: 8,
            mode: LayoutMode::LogStructured,
        };
        assert_eq!(
            data_dropping_path("/c", &p, 1, 0),
            data_dropping_path("/c", &p, 2, 0)
        );
        // The shared data dropping pairs with a shared index dropping.
        assert_eq!(
            index_dropping_path("/c", &p, 1, 0),
            index_dropping_path("/c", &p, 2, 0)
        );
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
        let closed = close_toplevel(&b, &ip, 100, 60).unwrap();
        assert_eq!(closed, "/c/dropping.index.7.0.100.60");
        assert_eq!(listed(&b), closed);
        close_writer(&b, "/c", 80, 40, 9, 0).unwrap();
        assert_eq!(read_lifecycle(&b, "/c").unwrap(), (0, Some((100, 100))));
        // Clearing the `meta.*` drops never takes index records with it.
        assert_eq!(clear_names(&b, "/c", META_PREFIX).unwrap(), 1);
        assert_eq!(listed(&b), closed);
        // The pair gone under its writer: close has nothing to publish.
        b.unlink(&closed).unwrap();
        assert_eq!(close_toplevel(&b, &ip, 1, 1).unwrap(), ip);
    }

    #[test]
    fn index_names_parse_into_pair_and_suffix() {
        assert_eq!(parse_index_name("dropping.index.7.0"), Some(("7.0", None)));
        assert_eq!(
            parse_index_name("dropping.index.7.12.4096.512"),
            Some(("7.12", Some((4096, 512))))
        );
        assert_eq!(
            parse_index_name("dropping.index.shared.0"),
            Some(("shared.0", None))
        );
        for junk in [
            "dropping.index.7",
            "dropping.index.7.0.1",
            "dropping.index.7.0.x.1",
            "dropping.index.7.0.1.2.3",
            "dropping.data.7.0",
            "meta.1.2.7.0",
        ] {
            assert_eq!(parse_index_name(junk), None, "{junk}");
        }
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
