//! Container integrity checking and repair (`plfs_check` analogue).
//!
//! Real PLFS ships recovery tooling because a container is many files whose
//! mutual consistency can break: an index dropping can be torn by a crash
//! mid-append, data droppings can be shorter than their index claims,
//! droppings can be orphaned, and the fast-stat metadata can go stale.
//! [`check`] diagnoses all of these; [`repair`] fixes what can be fixed
//! mechanically (truncating torn indices to whole records, trimming index
//! entries that overrun their data, rebuilding the `meta.*` drops, removing
//! a merged index readers would not load), and reports what cannot
//! (missing data).

use crate::backing::{join, Backing};
use crate::container::{self, DroppingRef, MergedState};
use crate::error::{Error, Result};
use crate::index::{IndexEntry, PatternRecord, PATTERN_MAGIC, RECORD_SIZE};
use std::fmt;

/// Severity of a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational (e.g. stale meta cache); no data at risk.
    Note,
    /// Repairable inconsistency.
    Repairable,
    /// Data loss has occurred or cannot be ruled out.
    DataLoss,
}

/// One finding from a container check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Finding {
    /// The path is not a container at all.
    NotAContainer,
    /// An index dropping's size is not a whole number of records; the tail
    /// was torn (crash mid-append). Repair truncates to whole records.
    TornIndex {
        /// Index dropping path.
        path: String,
        /// Bytes beyond the last whole record.
        excess: u64,
    },
    /// An index record has a bad magic number (corruption, not tearing).
    CorruptIndexRecord {
        /// Index dropping path.
        path: String,
        /// Record position within the dropping.
        record: u64,
    },
    /// A data dropping without a paired index: its bytes are unreachable.
    OrphanData {
        /// Data dropping path.
        path: String,
    },
    /// An index dropping without a paired data dropping.
    OrphanIndex {
        /// Index dropping path.
        path: String,
    },
    /// Index entries reference bytes beyond the end of the data dropping
    /// (data lost or never flushed). Repair trims the entries.
    IndexOverrun {
        /// Data dropping path.
        path: String,
        /// Entries affected.
        entries: u64,
    },
    /// The `meta.*` fast-stat drops disagree with the merged index.
    StaleMeta {
        /// Size according to meta drops.
        cached: u64,
        /// Size according to the merged index.
        actual: u64,
    },
    /// Writers appear to still hold the container open (`open.*` markers).
    /// Expected during use; suspicious after a crash.
    OpenWriters {
        /// Marker count.
        count: usize,
    },
    /// A closed index's identity name disagrees with its records: not
    /// every one maps a logical offset to the same physical offset, or they
    /// end elsewhere, or their newest stamp is another. A reader of the
    /// pair alone builds its view from the name. Repair re-spells it.
    MisnamedIndex {
        /// Index dropping path.
        path: String,
    },
    /// A merged index readers ignore: not the one of the closed writers, a
    /// writer is open, or it is a temporary name left behind. Repair
    /// removes it.
    StaleMerged {
        /// Its path.
        path: String,
    },
    /// The merged index of the closed writers does not read as a fresh
    /// merge of the index droppings; readers merge around it. Repair
    /// removes it.
    CorruptMerged {
        /// Its path.
        path: String,
    },
}

impl Finding {
    /// Severity classification.
    pub fn severity(&self) -> Severity {
        match self {
            Finding::NotAContainer => Severity::DataLoss,
            Finding::TornIndex { .. } => Severity::Repairable,
            Finding::CorruptIndexRecord { .. } => Severity::DataLoss,
            Finding::OrphanData { .. } => Severity::DataLoss,
            Finding::OrphanIndex { .. } => Severity::Repairable,
            Finding::IndexOverrun { .. } => Severity::DataLoss,
            Finding::StaleMeta { .. } => Severity::Note,
            Finding::OpenWriters { .. } => Severity::Note,
            Finding::MisnamedIndex { .. } => Severity::Repairable,
            Finding::StaleMerged { .. } | Finding::CorruptMerged { .. } => Severity::Repairable,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Finding::NotAContainer => write!(f, "not a PLFS container"),
            Finding::TornIndex { path, excess } => {
                write!(f, "torn index {path}: {excess} trailing bytes")
            }
            Finding::CorruptIndexRecord { path, record } => {
                write!(f, "corrupt record {record} in {path}")
            }
            Finding::OrphanData { path } => write!(f, "orphan data dropping {path}"),
            Finding::OrphanIndex { path } => write!(f, "orphan index dropping {path}"),
            Finding::IndexOverrun { path, entries } => {
                write!(f, "{entries} index entries overrun data in {path}")
            }
            Finding::StaleMeta { cached, actual } => {
                write!(f, "stale meta cache: cached size {cached}, actual {actual}")
            }
            Finding::OpenWriters { count } => write!(f, "{count} open-writer markers"),
            Finding::MisnamedIndex { path } => {
                write!(f, "identity name of {path} disagrees with its records")
            }
            Finding::StaleMerged { path } => write!(f, "stale merged index {path}"),
            Finding::CorruptMerged { path } => write!(f, "corrupt merged index {path}"),
        }
    }
}

/// Report from [`check`].
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// All findings, in discovery order.
    pub findings: Vec<Finding>,
    /// Droppings examined.
    pub droppings: usize,
    /// Index records validated.
    pub records: u64,
    /// The merged index readers see: valid if one is, else corrupt, stale
    /// or absent, in that order.
    pub merged: MergedState,
}

impl CheckReport {
    /// The worst severity present (None if the container is clean).
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity()).max()
    }

    /// True if nothing at all was found.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

fn read_all(b: &dyn Backing, path: &str) -> Result<Vec<u8>> {
    let f = b.open(path, false)?;
    let size = f.size()? as usize;
    let mut buf = vec![0u8; size];
    let n = f.pread(&mut buf, 0)?;
    buf.truncate(n);
    Ok(buf)
}

fn index_path_of(d: &DroppingRef) -> Option<&str> {
    d.index_path.as_deref()
}

/// One on-disk index record, pattern runs left unexpanded.
enum IndexRecord {
    Plain(IndexEntry),
    Pattern(PatternRecord),
}

/// Decode one on-disk record of either kind, applying the same bounds
/// validation as the read path (hostile counts, off_t overflow, bad magic
/// all land in `Err`). A record that fails here would make `ReadFile::open`
/// refuse the container.
fn decode_record(rec: &[u8]) -> Result<IndexRecord> {
    let magic = u32::from_le_bytes(rec[0..4].try_into().unwrap());
    if magic == PATTERN_MAGIC {
        Ok(IndexRecord::Pattern(PatternRecord::decode(rec)?))
    } else {
        Ok(IndexRecord::Plain(IndexEntry::decode(rec)?))
    }
}

/// How many leading writes of a pattern run fit entirely inside a data
/// dropping of `data_size` bytes. Write `i` occupies physical bytes
/// `[physical_start + i·length, +length)`.
fn pattern_fit(p: &PatternRecord, data_size: u64) -> u64 {
    if data_size <= p.physical_start {
        return 0;
    }
    ((data_size - p.physical_start) / p.length as u64).min(p.count as u64)
}

/// Examine a container and report inconsistencies. Read-only.
pub fn check(b: &dyn Backing, path: &str) -> Result<CheckReport> {
    let mut report = CheckReport::default();
    // The marker rule for a path nothing is known about, then open-writer
    // markers and fast-stat drops off one listing.
    let lifecycle = if container::is_container(b, path) {
        container::read_lifecycle(b, path)
    } else {
        Err(Error::NotContainer(path.to_string()))
    };
    let (writers, meta) = match lifecycle {
        Ok(lifecycle) => lifecycle,
        Err(Error::NotContainer(_)) => {
            report.findings.push(Finding::NotAContainer);
            return Ok(report);
        }
        Err(e) => return Err(e),
    };
    if writers > 0 {
        report
            .findings
            .push(Finding::OpenWriters { count: writers });
    }

    // The container directory's pairs (the creator's), then each hostdir's.
    let top = b.readdir(path)?;
    let hostdirs: Vec<String> = top
        .iter()
        .filter(|n| n.starts_with(container::HOSTDIR_PREFIX))
        .map(|hd| join(path, hd))
        .collect();
    let mut dirs = vec![(path.to_string(), top)];
    for hd_path in hostdirs {
        let names = b.readdir(&hd_path)?;
        dirs.push((hd_path, names));
    }
    let mut eof = 0u64;

    for (dir, names) in &dirs {
        let pairs: Vec<_> = container::dropping_pairs(names).collect();
        report.droppings += pairs.len();
        for p in &pairs {
            let data_path = join(dir, p.data);
            let Some((index, closed)) = p.index else {
                // A creator's data dropping alone is a writer still open
                // (its index comes at close): `read_lifecycle` counted it.
                if dir != path {
                    report
                        .findings
                        .push(Finding::OrphanData { path: data_path });
                }
                continue;
            };
            let ip = join(dir, index);
            let raw = check_index(b, &ip, &data_path, &mut eof, &mut report)?;
            if let Some(c) = closed.filter(|c| c.identity.is_some()) {
                if identity_of(&raw) != Some(c) {
                    report.findings.push(Finding::MisnamedIndex { path: ip });
                }
            }
        }
        // Index droppings with no data partner.
        for n in names {
            if let Some((pair, _)) = container::parse_index_name(n) {
                if !pairs.iter().any(|p| p.pair == pair) {
                    let path = join(dir, n);
                    report.findings.push(Finding::OrphanIndex { path });
                }
            }
        }
    }

    for (path, state) in container::merged_files(b, path)? {
        report.merged = report.merged.max(state);
        match state {
            MergedState::Stale => report.findings.push(Finding::StaleMerged { path }),
            MergedState::Corrupt => report.findings.push(Finding::CorruptMerged { path }),
            _ => {}
        }
    }

    // Meta cache consistency (only meaningful with no open writers).
    if writers == 0 {
        if let Some((cached_eof, _)) = meta {
            if cached_eof != eof {
                report.findings.push(Finding::StaleMeta {
                    cached: cached_eof,
                    actual: eof,
                });
            }
        }
    }

    Ok(report)
}

/// The identity name records `raw` earn ([`container::Closed`]): `None`
/// unless there is one at least, each decodes, and each maps a logical
/// offset to the same physical offset.
fn identity_of(raw: &[u8]) -> Option<container::Closed> {
    let entries = IndexEntry::decode_all(raw).ok()?;
    if !entries
        .iter()
        .all(|e| e.logical_offset == e.physical_offset)
    {
        return None;
    }
    let eof = entries.iter().map(IndexEntry::logical_end).max()?;
    let newest = entries.iter().map(|e| e.timestamp).max()?;
    Some(container::Closed::identity(eof, newest))
}

/// Examine the index dropping `ip` against its data dropping `data_path`,
/// raising `eof` to the end of every record whose bytes are there. Returns
/// its whole records.
fn check_index(
    b: &dyn Backing,
    ip: &str,
    data_path: &str,
    eof: &mut u64,
    report: &mut CheckReport,
) -> Result<Vec<u8>> {
    let mut raw = read_all(b, ip)?;
    let whole = (raw.len() / RECORD_SIZE) * RECORD_SIZE;
    if whole != raw.len() {
        report.findings.push(Finding::TornIndex {
            path: ip.to_string(),
            excess: (raw.len() - whole) as u64,
        });
    }
    let data_size = b.stat(data_path)?.size;
    let mut overruns = 0u64;
    for (i, rec) in raw[..whole].chunks_exact(RECORD_SIZE).enumerate() {
        match decode_record(rec) {
            Ok(IndexRecord::Plain(e)) => {
                report.records += 1;
                if e.physical_offset + e.length > data_size {
                    overruns += 1;
                } else {
                    *eof = (*eof).max(e.logical_end());
                }
            }
            Ok(IndexRecord::Pattern(p)) => {
                report.records += 1;
                // Overrun accounting is per expanded write, so a torn
                // run reports how many writes actually lost bytes.
                let fit = pattern_fit(&p, data_size);
                overruns += p.count as u64 - fit;
                if fit > 0 {
                    *eof = (*eof).max(p.entry_at(fit - 1).logical_end());
                }
            }
            Err(_) => {
                report.findings.push(Finding::CorruptIndexRecord {
                    path: ip.to_string(),
                    record: i as u64,
                });
            }
        }
    }
    if overruns > 0 {
        report.findings.push(Finding::IndexOverrun {
            path: data_path.to_string(),
            entries: overruns,
        });
    }
    raw.truncate(whole);
    Ok(raw)
}

/// Actions taken by [`repair`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Index droppings truncated to whole records.
    pub indices_truncated: usize,
    /// Overrunning index entries dropped (rewritten without them).
    pub entries_dropped: u64,
    /// Orphan index droppings removed.
    pub orphan_indices_removed: usize,
    /// Stale open-writer markers cleared.
    pub markers_cleared: usize,
    /// Whether the meta cache was rebuilt.
    pub meta_rebuilt: bool,
    /// Merged index names removed: every one, as the rebuilt drops give
    /// the closed writers names of their own.
    pub merged_removed: usize,
    /// Findings that could not be repaired (data loss).
    pub unrepairable: Vec<Finding>,
}

/// Repair what can be repaired. `clear_markers` also removes open-writer
/// markers (only safe when no process holds the container open): `open.*`
/// names are unlinked, an un-suffixed top-level index dropping — it holds
/// its dead writer's records — is renamed to its suffix, and a top-level
/// data dropping with no index at all (its writer died before close wrote
/// one) gets an empty closed index.
///
/// Afterwards the fast-stat drops are exact: every closed top-level index
/// carries its own records' eof and its data dropping's size — under the
/// identity spelling exactly when its records earn it and its data
/// dropping holds `[0, eof)` and no more — and one `meta.*` drop carries
/// the merged eof and the hostdir droppings' bytes, so `getattr`'s fast
/// path reports what its slow path would.
pub fn repair(b: &dyn Backing, path: &str, clear_markers: bool) -> Result<RepairReport> {
    let before = check(b, path)?;
    if before.findings.contains(&Finding::NotAContainer) {
        return Err(Error::NotContainer(path.to_string()));
    }
    // First, as it rewrites droppings and drops: no merged index describes
    // what it leaves.
    let mut report = RepairReport {
        merged_removed: container::remove_merged(b, path, &container::list_container(b, path)?)?,
        ..RepairReport::default()
    };

    for finding in &before.findings {
        match finding {
            Finding::TornIndex { path: ip, .. } => {
                let size = b.stat(ip)?.size;
                b.truncate(ip, (size / RECORD_SIZE as u64) * RECORD_SIZE as u64)?;
                report.indices_truncated += 1;
            }
            Finding::OrphanIndex { path: ip } => {
                b.unlink(ip)?;
                report.orphan_indices_removed += 1;
            }
            Finding::OpenWriters { .. } if clear_markers => {
                report.markers_cleared += container::clear_names(b, path, container::OPEN_PREFIX)?;
            }
            Finding::CorruptIndexRecord { .. } | Finding::OrphanData { .. } => {
                report.unrepairable.push(finding.clone());
            }
            _ => {}
        }
    }

    // Drop overrunning entries by rewriting affected index droppings.
    let droppings = container::list_droppings(b, path)?;
    for d in &droppings {
        let Some(ip) = index_path_of(d) else { continue };
        let raw = read_all(b, ip)?;
        let data_size = b.stat(&d.data_path)?.size;
        let mut kept = Vec::with_capacity(raw.len());
        let mut dropped = 0u64;
        for rec in raw.chunks_exact(RECORD_SIZE) {
            match decode_record(rec) {
                Ok(IndexRecord::Plain(e)) if e.physical_offset + e.length > data_size => {
                    dropped += 1
                }
                Ok(IndexRecord::Plain(_)) => kept.extend_from_slice(rec),
                Ok(IndexRecord::Pattern(p)) => {
                    let fit = pattern_fit(&p, data_size);
                    if fit == p.count as u64 {
                        kept.extend_from_slice(rec);
                    } else {
                        // Re-encode the surviving prefix of the run; the
                        // overrunning tail writes are the lost ones.
                        dropped += p.count as u64 - fit;
                        if fit > 0 {
                            let mut q = p;
                            q.count = fit as u32;
                            q.encode(&mut kept);
                        }
                    }
                }
                // Corrupt records are unrepairable; keep them out of the
                // rewritten index so readers stop tripping on them.
                Err(_) => dropped += 1,
            }
        }
        if dropped > 0 {
            let f = b.create(ip, false)?;
            if !kept.is_empty() {
                f.pwrite(&kept, 0)?;
            }
            report.entries_dropped += dropped;
        }
    }

    // Rebuild the fast-stat drops from the repaired indices.
    container::clear_names(b, path, container::META_PREFIX)?;
    let (idx, droppings) = container::build_global_index(b, path)?;
    // What the one `meta.*` drop answers for: every data dropping's bytes,
    // less those a top-level index's own name carries.
    let mut hostdir_bytes = 0;
    for d in &droppings {
        hostdir_bytes += b.stat(&d.data_path)?.size;
    }
    let top = b.readdir(path)?;
    for p in container::dropping_pairs(&top) {
        let data_size = b.stat(&join(path, p.data))?.size;
        hostdir_bytes -= data_size;
        if p.creator_open() {
            if !clear_markers {
                // Its writer may be alive: the names are its to make.
                continue;
            }
            report.markers_cleared += 1;
        }
        let Some((index, _)) = p.index else {
            let empty = format!("{}{}.0.{data_size}", container::INDEX_PREFIX, p.pair);
            b.create(&join(path, &empty), true)?;
            continue;
        };
        let ip = join(path, index);
        let raw = read_all(b, &ip)?;
        let closed = match identity_of(&raw) {
            Some(c) if c.eof == data_size => c,
            _ => {
                let entries = IndexEntry::decode_all(&raw)?;
                let eof = entries.iter().map(IndexEntry::logical_end).max();
                container::Closed::sized(eof.unwrap_or(0), data_size)
            }
        };
        container::close_toplevel(b, &ip, closed)?;
    }
    container::drop_meta(b, path, idx.eof(), hostdir_bytes, 0, 0)?;
    report.meta_rebuilt = true;

    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Plfs;
    use crate::backing::MemBacking;
    use crate::flags::OpenFlags;
    use std::sync::Arc;

    fn written_container() -> Arc<MemBacking> {
        let backing = Arc::new(MemBacking::new());
        let plfs = Plfs::new(backing.clone());
        for pid in 0..3u64 {
            let fd = plfs
                .open("/c", OpenFlags::RDWR | OpenFlags::CREAT, pid)
                .unwrap();
            plfs.write(&fd, &[pid as u8 + 1; 100], pid * 100, pid)
                .unwrap();
            plfs.close(&fd, pid).unwrap();
        }
        backing
    }

    fn first_index(b: &dyn Backing) -> String {
        container::list_droppings(b, "/c").unwrap()[0]
            .index_path
            .clone()
            .unwrap()
    }

    #[test]
    fn clean_container_checks_clean() {
        let b = written_container();
        let r = check(b.as_ref(), "/c").unwrap();
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.droppings, 3);
        assert!(r.records >= 3);
    }

    #[test]
    fn non_container_is_flagged() {
        let b = MemBacking::new();
        b.mkdir("/d").unwrap();
        let r = check(&b, "/d").unwrap();
        assert_eq!(r.findings, vec![Finding::NotAContainer]);
        assert_eq!(r.worst(), Some(Severity::DataLoss));
    }

    #[test]
    fn torn_index_detected_and_repaired() {
        let b = written_container();
        let ip = first_index(b.as_ref());
        // Tear: append half a record.
        let f = b.open(&ip, true).unwrap();
        f.append(&[0xde; RECORD_SIZE / 2]).unwrap();
        drop(f);
        let r = check(b.as_ref(), "/c").unwrap();
        assert!(r.findings.iter().any(
            |f| matches!(f, Finding::TornIndex { excess, .. } if *excess == RECORD_SIZE as u64 / 2)
        ));

        let rep = repair(b.as_ref(), "/c", false).unwrap();
        assert_eq!(rep.indices_truncated, 1);
        assert!(check(b.as_ref(), "/c").unwrap().is_clean());
        // Content still reads back.
        let flat = crate::flatten::flatten_to_vec(b.as_ref(), "/c").unwrap();
        assert_eq!(flat.len(), 300);
    }

    #[test]
    fn index_overrun_detected_and_trimmed() {
        let b = written_container();
        let d = &container::list_droppings(b.as_ref(), "/c").unwrap()[0];
        // Truncate the data dropping so its index overruns.
        b.truncate(&d.data_path, 10).unwrap();
        let r = check(b.as_ref(), "/c").unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::IndexOverrun { entries: 1, .. })));
        assert_eq!(r.worst(), Some(Severity::DataLoss));

        let rep = repair(b.as_ref(), "/c", false).unwrap();
        assert_eq!(rep.entries_dropped, 1);
        // The remaining 200 bytes from the other writers survive.
        let after = check(b.as_ref(), "/c").unwrap();
        assert!(after.is_clean(), "{:?}", after.findings);
    }

    #[test]
    fn corrupt_record_is_unrepairable_but_quarantined() {
        let b = written_container();
        let ip = first_index(b.as_ref());
        let f = b.open(&ip, true).unwrap();
        f.pwrite(&[0xff; 4], 0).unwrap(); // smash the magic
        drop(f);
        let r = check(b.as_ref(), "/c").unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::CorruptIndexRecord { record: 0, .. })));
        let rep = repair(b.as_ref(), "/c", false).unwrap();
        assert!(!rep.unrepairable.is_empty());
        // After repair the bad record is gone and reads work again.
        assert!(crate::reader::ReadFile::open(b.as_ref(), "/c").is_ok());
    }

    fn pattern_container() -> Arc<MemBacking> {
        let backing = Arc::new(MemBacking::new());
        container::create_container(backing.as_ref(), "/c", true).unwrap();
        // Strided writes with a large index buffer flush as pattern records.
        let mut w = crate::writer::WriteFile::create(backing.as_ref(), "/c", 1, 4096).unwrap();
        for i in 0..16u64 {
            w.write(&[7u8; 32], i * 64).unwrap();
        }
        w.sync().unwrap();
        backing
    }

    /// Regression: valid pattern records must not be misdiagnosed as
    /// corruption (and then deleted by repair — silent data loss).
    #[test]
    fn pattern_records_check_clean() {
        let b = pattern_container();
        let raw = {
            let ip = first_index(b.as_ref());
            let f = b.open(&ip, false).unwrap();
            let mut v = vec![0u8; f.size().unwrap() as usize];
            f.pread(&mut v, 0).unwrap();
            v
        };
        // Sanity: the container actually holds a pattern record.
        assert!(raw
            .chunks_exact(RECORD_SIZE)
            .any(|r| u32::from_le_bytes(r[0..4].try_into().unwrap()) == PATTERN_MAGIC));
        let r = check(b.as_ref(), "/c").unwrap();
        assert!(r.is_clean(), "{:?}", r.findings);
        let rep = repair(b.as_ref(), "/c", false).unwrap();
        assert_eq!(rep.entries_dropped, 0);
        assert_eq!(
            crate::flatten::flatten_to_vec(b.as_ref(), "/c")
                .unwrap()
                .len(),
            15 * 64 + 32
        );
    }

    #[test]
    fn pattern_overrun_trimmed_by_reencoding_prefix() {
        let b = pattern_container();
        let d = &container::list_droppings(b.as_ref(), "/c").unwrap()[0];
        // Cut the data dropping mid-run: 10 of 16 writes (32 B each) survive.
        b.truncate(&d.data_path, 10 * 32).unwrap();
        let r = check(b.as_ref(), "/c").unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::IndexOverrun { entries: 6, .. })));
        let rep = repair(b.as_ref(), "/c", false).unwrap();
        assert_eq!(rep.entries_dropped, 6);
        assert!(check(b.as_ref(), "/c").unwrap().is_clean());
        // The surviving prefix still reads back.
        let flat = crate::flatten::flatten_to_vec(b.as_ref(), "/c").unwrap();
        assert_eq!(flat.len(), 9 * 64 + 32);
        assert!(flat[9 * 64..].iter().all(|&x| x == 7));
    }

    #[test]
    fn hostile_pattern_count_is_corrupt_not_expanded() {
        let b = pattern_container();
        let ip = first_index(b.as_ref());
        // Smash the count field to u32::MAX: a naive checker would try to
        // expand four billion entries; ours must flag the record instead.
        let f = b.open(&ip, true).unwrap();
        f.pwrite(&u32::MAX.to_le_bytes(), 40).unwrap();
        drop(f);
        let r = check(b.as_ref(), "/c").unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::CorruptIndexRecord { record: 0, .. })));
        assert_eq!(r.worst(), Some(Severity::DataLoss));
        let rep = repair(b.as_ref(), "/c", false).unwrap();
        assert!(!rep.unrepairable.is_empty());
        assert!(crate::reader::ReadFile::open(b.as_ref(), "/c").is_ok());
    }

    #[test]
    fn orphan_index_removed() {
        let b = written_container();
        let d = &container::list_droppings(b.as_ref(), "/c").unwrap()[0];
        let hd = d.data_path.rsplit_once('/').unwrap().0.to_string();
        b.create(&format!("{hd}/dropping.index.999.0"), true)
            .unwrap();
        let r = check(b.as_ref(), "/c").unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::OrphanIndex { .. })));
        let rep = repair(b.as_ref(), "/c", false).unwrap();
        assert_eq!(rep.orphan_indices_removed, 1);
        assert!(check(b.as_ref(), "/c").unwrap().is_clean());
    }

    /// A hostdir data dropping without its index is data loss; the
    /// creator's top-level one is a writer still open (its index comes at
    /// close).
    #[test]
    fn orphan_data_is_data_loss() {
        let b = written_container();
        let d = &container::list_droppings(b.as_ref(), "/c").unwrap()[1];
        b.unlink(d.index_path.as_ref().unwrap()).unwrap();
        let r = check(b.as_ref(), "/c").unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::OrphanData { .. })));
        assert_eq!(r.worst(), Some(Severity::DataLoss));
        let b = written_container();
        let d = &container::list_droppings(b.as_ref(), "/c").unwrap()[0];
        b.unlink(d.index_path.as_ref().unwrap()).unwrap();
        assert_eq!(
            check(b.as_ref(), "/c").unwrap().findings,
            [Finding::OpenWriters { count: 1 }]
        );
    }

    /// `--clear-markers` on a creator killed before anything needed its
    /// index: the data dropping alone gets an empty closed index.
    #[test]
    fn dead_creators_data_alone_gets_an_empty_closed_index() {
        let backing = Arc::new(MemBacking::new());
        let plfs = Plfs::new(backing.clone());
        let fd = plfs
            .open("/c", OpenFlags::WRONLY | OpenFlags::CREAT, 4)
            .unwrap();
        plfs.write(&fd, &[9u8; 64], 0, 4).unwrap();
        std::mem::forget(fd); // killed: no close ever runs
        let b = backing.as_ref();
        assert_eq!(b.readdir("/c").unwrap(), ["dropping.data.creator.0"]);
        assert_eq!(
            check(b, "/c").unwrap().findings,
            [Finding::OpenWriters { count: 1 }]
        );
        repair(b, "/c", false).unwrap();
        assert!(
            !b.exists("/c/dropping.index.creator.0.0.64"),
            "it may be alive"
        );
        assert_eq!(repair(b, "/c", true).unwrap().markers_cleared, 1);
        assert_eq!(b.stat("/c/dropping.index.creator.0.0.64").unwrap().size, 0);
        assert!(check(b, "/c").unwrap().is_clean());
        let st = Plfs::new(backing.clone()).getattr("/c").unwrap();
        assert_eq!((st.size, st.physical_bytes), slow_stat(b));
        assert_eq!(
            (st.size, st.physical_bytes),
            (0, 64),
            "its records died with it"
        );
    }

    /// A creator killed between its `open(O_CREAT)` and any write leaves
    /// its data dropping alone, which reads as a writer still open — the
    /// dropping is the container's only marker, so nothing but its closed
    /// index can say otherwise: `--clear-markers` gives it one.
    #[test]
    fn a_creator_killed_before_its_first_write_is_closed_by_clear_markers() {
        let backing = Arc::new(MemBacking::new());
        let plfs = Plfs::new(backing.clone());
        let fd = plfs
            .open("/c", OpenFlags::WRONLY | OpenFlags::CREAT, 4)
            .unwrap();
        std::mem::forget(fd); // killed: no write, no close
        let b = backing.as_ref();
        assert_eq!(b.readdir("/c").unwrap(), ["dropping.data.creator.0"]);
        assert_eq!(
            check(b, "/c").unwrap().findings,
            [Finding::OpenWriters { count: 1 }]
        );
        assert_eq!(repair(b, "/c", true).unwrap().markers_cleared, 1);
        assert!(b.exists("/c/dropping.index.creator.0.0.0"));
        assert!(check(b, "/c").unwrap().is_clean());
        let cold = Plfs::new(backing.clone());
        let st = cold.getattr("/c").unwrap();
        assert_eq!((st.size, st.physical_bytes), (0, 0));
        cold.unlink("/c").unwrap();
        assert!(!b.exists("/c"));
    }

    #[test]
    fn stale_markers_cleared_on_request() {
        let b = written_container();
        container::mark_open(b.as_ref(), "/c", 77, 0).unwrap();
        let r = check(b.as_ref(), "/c").unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::OpenWriters { count: 1 })));
        let rep = repair(b.as_ref(), "/c", true).unwrap();
        assert_eq!(rep.markers_cleared, 1);
        assert!(check(b.as_ref(), "/c").unwrap().is_clean());
    }

    /// What the creator's closed index name in `/c` carries, if it is
    /// closed.
    fn creator_closed(b: &dyn Backing) -> Option<container::Closed> {
        let names = b.readdir("/c").unwrap();
        names
            .iter()
            .find_map(|n| match container::parse_index_name(n)? {
                (container::CREATOR_PAIR, closed) => closed,
                _ => None,
            })
    }

    /// An identity name its records do not earn is reported, and repair
    /// gives the index the name they do earn: the identity one with their
    /// own stamp, or `<eof>.<bytes>`.
    #[test]
    fn an_identity_name_its_records_disagree_with_is_reported_and_respelled() {
        let b = written_container();
        let good = creator_closed(b.as_ref()).unwrap();
        let stamp = good.identity.expect("[0, 100) written in place: identity");
        let ip = |c| container::creator_closed_index_path("/c", c);
        // The wrong stamp: a reader would step its clock short of the records.
        let wrong = container::Closed::identity(100, stamp - 1);
        b.rename(&ip(good), &ip(wrong)).unwrap();
        let r = check(b.as_ref(), "/c").unwrap();
        assert_eq!(r.findings, [Finding::MisnamedIndex { path: ip(wrong) }]);
        assert_eq!(r.worst(), Some(Severity::Repairable));
        repair(b.as_ref(), "/c", false).unwrap();
        assert_eq!(creator_closed(b.as_ref()), Some(good));
        assert!(check(b.as_ref(), "/c").unwrap().is_clean());
        // Records that map elsewhere, under an identity name.
        let backing = Arc::new(MemBacking::new());
        let plfs = Plfs::new(backing.clone());
        let fd = plfs
            .open("/c", OpenFlags::WRONLY | OpenFlags::CREAT, 4)
            .unwrap();
        plfs.write(&fd, &[1u8; 10], 10, 4).unwrap();
        plfs.write(&fd, &[2u8; 10], 0, 4).unwrap();
        plfs.close(&fd, 4).unwrap();
        let b = backing.as_ref();
        let sized = creator_closed(b).unwrap();
        assert_eq!(sized, container::Closed::sized(20, 20));
        let claimed = container::Closed::identity(20, 1);
        b.rename(&ip(sized), &ip(claimed)).unwrap();
        let r = check(b, "/c").unwrap();
        assert_eq!(r.findings, [Finding::MisnamedIndex { path: ip(claimed) }]);
        repair(b, "/c", false).unwrap();
        assert_eq!(creator_closed(b), Some(sized));
        assert_eq!(
            crate::flatten::flatten_to_vec(b, "/c").unwrap(),
            [[2u8; 10], [1u8; 10]].concat()
        );
    }

    /// What `getattr`'s slow path would report: the merged eof and the data
    /// droppings' sizes.
    fn slow_stat(b: &dyn Backing) -> (u64, u64) {
        let (idx, droppings) = container::build_global_index(b, "/c").unwrap();
        let sizes = droppings.iter().map(|d| b.stat(&d.data_path).unwrap().size);
        (idx.eof(), sizes.sum())
    }

    /// Regression: repair rebuilt the drop as `(eof, 0)`, so `getattr`
    /// reported `physical_bytes` 0 ever after.
    #[test]
    fn fast_stat_equals_slow_stat_after_repair() {
        let fast_stat = |b: &Arc<MemBacking>| {
            let st = Plfs::new(b.clone()).getattr("/c").unwrap();
            assert_eq!(container::open_writers(b.as_ref(), "/c").unwrap(), 0);
            (st.size, st.physical_bytes)
        };
        // Nothing wrong with it: the drops come back as they were.
        let b = written_container();
        repair(b.as_ref(), "/c", false).unwrap();
        assert_eq!(fast_stat(&b), (300, 300));
        assert_eq!(fast_stat(&b), slow_stat(b.as_ref()));
        // The creator's data dropping cut short: its one record goes, and
        // its index is re-suffixed to what is left of the pair.
        let top = container::list_droppings(b.as_ref(), "/c").unwrap()[0].clone();
        assert_eq!(top.data_path, "/c/dropping.data.creator.0");
        b.truncate(&top.data_path, 10).unwrap();
        assert_eq!(repair(b.as_ref(), "/c", false).unwrap().entries_dropped, 1);
        assert!(b.exists("/c/dropping.index.creator.0.0.10"));
        assert_eq!(fast_stat(&b), (300, 210));
        assert_eq!(fast_stat(&b), slow_stat(b.as_ref()));
        // A hostdir writer's records lost instead.
        let b = written_container();
        let last = container::list_droppings(b.as_ref(), "/c").unwrap()[2].clone();
        b.truncate(&last.data_path, 0).unwrap();
        repair(b.as_ref(), "/c", false).unwrap();
        assert_eq!(fast_stat(&b), slow_stat(b.as_ref()));
        assert_eq!(fast_stat(&b).1, 200);
    }

    /// `--clear-markers` on a dead creator: its un-suffixed index holds its
    /// records, so it is renamed to its suffix, never unlinked.
    #[test]
    fn dead_creators_index_is_closed_by_rename_not_unlinked() {
        let backing = Arc::new(MemBacking::new());
        let plfs = Plfs::new(backing.clone());
        let fd = plfs
            .open("/c", OpenFlags::WRONLY | OpenFlags::CREAT, 4)
            .unwrap();
        plfs.write(&fd, &[9u8; 64], 0, 4).unwrap();
        plfs.sync(&fd, 4).unwrap();
        std::mem::forget(fd); // killed: no close ever runs
        let b = backing.as_ref();
        assert!(b.exists("/c/dropping.index.creator.0"));
        assert_eq!(
            check(b, "/c").unwrap().findings,
            [Finding::OpenWriters { count: 1 }]
        );
        // Without the flag the writer may be alive: its name is left alone.
        repair(b, "/c", false).unwrap();
        assert!(b.exists("/c/dropping.index.creator.0"));
        let rep = repair(b, "/c", true).unwrap();
        assert_eq!(rep.markers_cleared, 1);
        // Its one record maps [0, 64) where it lies: the identity spelling.
        let closed = creator_closed(b).expect("closed by repair");
        assert_eq!((closed.eof, closed.bytes), (64, 64));
        assert!(closed.identity.is_some(), "{closed:?}");
        assert!(check(b, "/c").unwrap().is_clean());
        let st = Plfs::new(backing.clone()).getattr("/c").unwrap();
        assert_eq!((st.size, st.physical_bytes), slow_stat(b));
        assert_eq!((st.size, st.physical_bytes), (64, 64));
    }

    #[test]
    fn repair_rebuilds_meta() {
        let b = written_container();
        // Poison the meta cache.
        container::clear_names(b.as_ref(), "/c", container::META_PREFIX).unwrap();
        container::drop_meta(b.as_ref(), "/c", 999_999, 1, 0, 0).unwrap();
        let r = check(b.as_ref(), "/c").unwrap();
        assert!(r
            .findings
            .iter()
            .any(|f| matches!(f, Finding::StaleMeta { .. })));
        let rep = repair(b.as_ref(), "/c", false).unwrap();
        assert!(rep.meta_rebuilt);
        let mut drops = b.readdir("/c").unwrap();
        drops.retain(|n| n.starts_with("meta."));
        assert_eq!(
            (drops, creator_closed(b.as_ref()).map(|c| (c.eof, c.bytes))),
            (vec!["meta.300.200.0.0".to_string()], Some((100, 100))),
            "the creator's index keeps its own drop; one rebuilt drop for the hostdirs"
        );
        let plfs = Plfs::new(b.clone());
        assert_eq!(plfs.getattr("/c").unwrap().size, 300);
    }
}
