//! # plfs-tools — container maintenance utilities
//!
//! The command-line companions real PLFS ships (`plfs_flatten`,
//! `plfs_map`/`plfs_query`, `plfs_check`, `plfs_recover`, `plfs_version`),
//! reimplemented over this repo's container code. All commands operate on
//! a *backend directory* on the host file system (the directory
//! `LDPLFS_BACKEND` names) — no mount, no FUSE, no MPI.
//!
//! The library half exists so the commands are callable (and tested)
//! programmatically; `main.rs` is a thin argument parser over it.

#![warn(missing_docs)]

use plfs::backing::join;
use plfs::{Backing, RealBacking};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

mod syscalls;
pub use syscalls::syscalls;

/// Tool errors: a container-layer error, a usage problem, or a system that
/// refuses what a command needs.
#[derive(Debug)]
pub enum ToolError {
    /// Underlying PLFS error.
    Plfs(plfs::Error),
    /// Bad invocation.
    Usage(String),
    /// This system refuses what the command needs (ptrace).
    Unsupported(String),
}

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolError::Plfs(e) => write!(f, "{e}"),
            ToolError::Usage(m) => write!(f, "usage error: {m}"),
            ToolError::Unsupported(m) => write!(f, "unsupported here: {m}"),
        }
    }
}

impl std::error::Error for ToolError {}

impl From<plfs::Error> for ToolError {
    fn from(e: plfs::Error) -> Self {
        ToolError::Plfs(e)
    }
}

/// Result alias for tool commands.
pub type ToolResult = Result<String, ToolError>;

/// Split a host path into (backend root, container path inside it): the
/// container is the deepest ancestor that is a PLFS container.
pub fn locate(host_path: &str) -> Result<(RealBacking, String), ToolError> {
    let p = Path::new(host_path);
    let file = p
        .file_name()
        .ok_or_else(|| ToolError::Usage(format!("{host_path}: no file component")))?
        .to_string_lossy()
        .into_owned();
    let parent = p.parent().unwrap_or(Path::new("."));
    let backing = RealBacking::new(parent)?;
    Ok((backing, format!("/{file}")))
}

/// `stat`: logical size and structure summary of a container.
pub fn stat(b: &dyn Backing, container: &str) -> ToolResult {
    let (idx, droppings) = plfs::container::build_global_index(b, container)?;
    let mut hostdirs: Vec<String> = b.readdir(container)?;
    hostdirs.retain(|n| n.starts_with(plfs::container::HOSTDIR_PREFIX));
    let mut phys = 0u64;
    for d in &droppings {
        phys += b.stat(&d.data_path)?.size;
    }
    let mut out = String::new();
    let _ = writeln!(out, "container:      {container}");
    let _ = writeln!(out, "logical size:   {} bytes", idx.eof());
    let _ = writeln!(out, "physical bytes: {phys}");
    let _ = writeln!(out, "droppings:      {}", droppings.len());
    let _ = writeln!(out, "index entries:  {}", idx.raw_entries());
    let _ = writeln!(out, "index segments: {}", idx.segments());
    let _ = writeln!(out, "hostdirs:       {} {hostdirs:?}", hostdirs.len());
    Ok(out)
}

/// `map`: the logical→physical layout, one line per extent (plfs_query).
pub fn map(b: &dyn Backing, container: &str) -> ToolResult {
    let entries = plfs::flatten::map(b, container)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>12} {:>10} {:>12}  dropping",
        "logical", "length", "physical"
    );
    for e in &entries {
        let _ = writeln!(
            out,
            "{:>12} {:>10} {:>12}  {}",
            e.logical_offset, e.length, e.physical_offset, e.dropping
        );
    }
    let _ = writeln!(out, "{} extents", entries.len());
    Ok(out)
}

/// `flatten`: materialise the logical bytes as a plain file next to the
/// container (or at `dest` within the same backend).
pub fn flatten(b: &dyn Backing, container: &str, dest: &str) -> ToolResult {
    let n = plfs::flatten::flatten(b, container, dest)?;
    Ok(format!("wrote {n} bytes to {dest}\n"))
}

/// `compact`: fold a container's droppings into one flattened pair in
/// place. Refuses while writers hold the container open.
pub fn compact(b: &dyn Backing, container: &str) -> ToolResult {
    let stats = plfs::flatten::compact_container(b, container)?;
    if stats.droppings_before == stats.droppings_after {
        Ok(format!(
            "already compact: {} dropping(s), {} logical bytes\n",
            stats.droppings_after, stats.bytes
        ))
    } else {
        Ok(format!(
            "compacted {} droppings into 1 ({} logical bytes)\n",
            stats.droppings_before, stats.bytes
        ))
    }
}

/// `check`: integrity report.
pub fn check(b: &dyn Backing, container: &str) -> ToolResult {
    let report = plfs::check(b, container)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "checked {} droppings, {} index records",
        report.droppings, report.records
    );
    let _ = writeln!(out, "merged index: {}", report.merged);
    if report.is_clean() {
        let _ = writeln!(out, "clean");
    } else {
        for f in &report.findings {
            let _ = writeln!(out, "[{:?}] {f}", f.severity());
        }
    }
    Ok(out)
}

/// `repair`: fix repairable findings; `clear_markers` also clears stale
/// open-writer markers.
pub fn repair(b: &dyn Backing, container: &str, clear_markers: bool) -> ToolResult {
    let rep = plfs::repair(b, container, clear_markers)?;
    let mut out = String::new();
    let _ = writeln!(out, "indices truncated:      {}", rep.indices_truncated);
    let _ = writeln!(out, "overrun entries dropped: {}", rep.entries_dropped);
    let _ = writeln!(
        out,
        "orphan indices removed: {}",
        rep.orphan_indices_removed
    );
    let _ = writeln!(out, "markers cleared:        {}", rep.markers_cleared);
    let _ = writeln!(out, "meta cache rebuilt:     {}", rep.meta_rebuilt);
    let _ = writeln!(out, "merged files removed:   {}", rep.merged_removed);
    for f in &rep.unrepairable {
        let _ = writeln!(out, "UNREPAIRABLE: {f}");
    }
    Ok(out)
}

/// `ls`: list a backend directory, tagging containers.
pub fn ls(b: &dyn Backing, dir: &str) -> ToolResult {
    let mut out = String::new();
    for name in b.readdir(dir)? {
        let child = join(dir, &name);
        let st = b.stat(&child)?;
        let tag = if st.is_dir {
            if plfs::container::is_container(b, &child) {
                "container"
            } else {
                "dir"
            }
        } else {
            "file"
        };
        let size = if tag == "container" {
            plfs::container::build_global_index(b, &child)
                .map(|(i, _)| i.eof())
                .unwrap_or(0)
        } else {
            st.size
        };
        let _ = writeln!(out, "{tag:>10} {size:>12}  {name}");
    }
    Ok(out)
}

/// `du`: logical vs physical usage for every container under `dir` —
/// log-structured overwrites make the two diverge, and this is how an
/// operator spots containers worth re-flattening.
pub fn du(b: &dyn Backing, dir: &str) -> ToolResult {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>14} {:>14} {:>8}  container",
        "logical", "physical", "ratio"
    );
    let mut total_logical = 0u64;
    let mut total_physical = 0u64;
    for name in b.readdir(dir)? {
        let child = join(dir, &name);
        if !plfs::container::is_container(b, &child) {
            continue;
        }
        let (idx, droppings) = plfs::container::build_global_index(b, &child)?;
        let mut phys = 0u64;
        for d in &droppings {
            phys += b.stat(&d.data_path)?.size;
        }
        total_logical += idx.eof();
        total_physical += phys;
        let ratio = if idx.eof() > 0 {
            phys as f64 / idx.eof() as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:>14} {:>14} {:>7.2}x  {}",
            idx.eof(),
            phys,
            ratio,
            name
        );
    }
    let _ = writeln!(
        out,
        "{total_logical:>14} {total_physical:>14}           total"
    );
    Ok(out)
}

/// `rm`: delete a container (refuses non-containers).
pub fn rm(b: &dyn Backing, container: &str) -> ToolResult {
    plfs::container::remove_container(b, container)?;
    Ok(format!("removed {container}\n"))
}

/// `version`: check the container's marker and say what it is: the
/// access file's header, or the creator's data dropping, which marks a
/// container its writer made without an access file.
pub fn version(b: &dyn Backing, container: &str) -> ToolResult {
    use plfs::container::{ACCESS_FILE, CREATOR_DATA};
    plfs::container::validate_marker(b, container)?;
    Ok(if b.exists(&plfs::backing::join(container, ACCESS_FILE)) {
        format!("plfs-container v1 ({ACCESS_FILE})\n")
    } else {
        format!("no {ACCESS_FILE}: marked by its creator's data dropping, {CREATOR_DATA}\n")
    })
}

/// Parse a JSONL trace (as written by `paperbench --emit-json`, the shim,
/// or the simulator) into records. Blank lines are skipped; a malformed
/// line is a usage error naming its line number.
fn parse_trace(jsonl: &str) -> Result<Vec<(iotrace::TraceRecord, Option<String>)>, ToolError> {
    let mut out = Vec::new();
    for (i, line) in jsonl.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v = jsonlite::parse(line)
            .map_err(|e| ToolError::Usage(format!("trace line {}: {}", i + 1, e.message)))?;
        let rec = iotrace::record_from_json(&v)
            .ok_or_else(|| ToolError::Usage(format!("trace line {}: not a trace record", i + 1)))?;
        out.push(rec);
    }
    Ok(out)
}

/// `trace dump`: pretty-print a recorded JSONL trace, one op per line in
/// issue order.
pub fn trace_dump(jsonl: &str) -> ToolResult {
    let recs = parse_trace(jsonl)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>12} {:<6} {:<12} {:>10} {:>12} {:>12}  target",
        "start_us", "layer", "op", "bytes", "offset", "latency_ns"
    );
    for (r, path) in &recs {
        let target = match (path, r.fd) {
            (Some(p), _) => p.clone(),
            (None, fd) if fd >= 0 => format!("fd {fd}"),
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:>12} {:<6} {:<12} {:>10} {:>12} {:>12}  {}{}",
            r.start_ns / 1_000,
            r.layer.as_str(),
            r.op.as_str(),
            r.bytes,
            r.offset,
            r.latency_ns,
            target,
            if r.hit { " [hit]" } else { "" },
        );
    }
    let _ = writeln!(out, "{} records", recs.len());
    Ok(out)
}

/// `trace summary`: aggregate a recorded JSONL trace per (layer, op):
/// counts, bytes, hit ratio and latency percentiles from the log2-ns
/// histograms — the offline counterpart of a live sink snapshot.
pub fn trace_summary(jsonl: &str) -> ToolResult {
    let recs = parse_trace(jsonl)?;
    let mut metrics: Vec<iotrace::OpMetrics> = Vec::new();
    for (r, _path) in &recs {
        let m = match metrics
            .iter_mut()
            .find(|m| m.layer == r.layer && m.op == r.op)
        {
            Some(m) => m,
            None => {
                metrics.push(iotrace::OpMetrics {
                    layer: r.layer,
                    op: r.op,
                    ops: 0,
                    bytes: 0,
                    hits: 0,
                    hist: [0; iotrace::NBUCKETS],
                });
                metrics.last_mut().unwrap()
            }
        };
        m.ops += 1;
        m.bytes += r.bytes;
        m.hits += r.hit as u64;
        m.hist[iotrace::bucket_of(r.latency_ns)] += 1;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:<12} {:>8} {:>14} {:>8} {:>12} {:>12}",
        "layer", "op", "ops", "bytes", "hits", "p50_ns", "p99_ns"
    );
    for m in &metrics {
        let _ = writeln!(
            out,
            "{:<6} {:<12} {:>8} {:>14} {:>8} {:>12} {:>12}",
            m.layer.as_str(),
            m.op.as_str(),
            m.ops,
            m.bytes,
            m.hits,
            m.percentile_ns(0.5),
            m.percentile_ns(0.99),
        );
    }
    // Metadata-vs-data breakout: how much of the trace is the half a
    // metadata service would see, and how well the container cache
    // absorbed it.
    let data_ops: u64 = recs.iter().filter(|(r, _)| r.op.is_data()).count() as u64;
    let meta_ops = recs.len() as u64 - data_ops;
    let cache_hits = recs
        .iter()
        .filter(|(r, _)| r.op == iotrace::OpKind::MetaCacheHit)
        .count() as u64;
    let cache_misses = recs
        .iter()
        .filter(|(r, _)| r.op == iotrace::OpKind::MetaCacheMiss)
        .count() as u64;
    let pct = |n: u64| 100.0 * n as f64 / (recs.len() as f64).max(1.0);
    let _ = writeln!(
        out,
        "metadata ops {} ({:.1}%), data ops {} ({:.1}%)",
        meta_ops,
        pct(meta_ops),
        data_ops,
        pct(data_ops)
    );
    if cache_hits + cache_misses > 0 {
        let _ = writeln!(
            out,
            "meta-cache: {} hits, {} misses ({:.1}% hit rate)",
            cache_hits,
            cache_misses,
            100.0 * cache_hits as f64 / (cache_hits + cache_misses) as f64
        );
    }
    let _ = writeln!(out, "{} records total", recs.len());
    Ok(out)
}

// ---------------------------------------------------------------------------
// Paired benchmark runs (`scripts/bench_pairs.sh`).
// ---------------------------------------------------------------------------

/// First quartile, median and third quartile of a non-empty sample,
/// linearly interpolated between ranks.
fn quartiles(mut v: Vec<f64>) -> [f64; 3] {
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// `pairs`: summarise parent-vs-change benchmark runs given as JSONL, one
/// run per line: `{"side": "parent"|"change", "workload", "pair", "result":
/// <the JSON object benchmark/run.sh prints last>}`. For each (workload,
/// metric) it prints each side's median and quartiles, how many pairs the
/// change won (ties count for neither side), and whether a gain may be
/// claimed: at least ten pairs, the change wins at least nine tenths of
/// them, and its median beats the parent's by more than the parent's
/// interquartile range (`holds`; `few` below ten pairs). Every end-to-end
/// metric of the benchmark is lower-is-better. A run that is not `correct`
/// or failed operations is counted at the end.
pub fn pairs(jsonl: &str) -> ToolResult {
    // (workload, metric) → pair → [parent, change].
    type ByPair = BTreeMap<u64, [Option<f64>; 2]>;
    let mut table: BTreeMap<(String, String), ByPair> = BTreeMap::new();
    let (mut runs, mut bad) = (0usize, 0usize);
    for (i, line) in jsonl
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let malformed = |what: &str| ToolError::Usage(format!("line {}: {what}", i + 1));
        let v = jsonlite::parse(line).map_err(|e| malformed(&format!("not JSON: {e:?}")))?;
        let side = match v.get("side").and_then(|s| s.as_str()) {
            Some("parent") => 0,
            Some("change") => 1,
            _ => return Err(malformed("\"side\" must be parent or change")),
        };
        let workload = v.get("workload").and_then(|w| w.as_str());
        let pair = v.get("pair").and_then(|p| p.as_u64());
        let result = v.get("result");
        let metrics = result.and_then(|r| r.get("metrics")?.as_object());
        let (Some(workload), Some(pair), Some(result), Some(metrics)) =
            (workload, pair, result, metrics)
        else {
            return Err(malformed("needs workload, pair and result.metrics"));
        };
        runs += 1;
        let correct = result.get("correct").and_then(|c| c.as_bool()) == Some(true);
        let failed = result.get("failed").and_then(|f| f.as_u64()).unwrap_or(0);
        if !correct || failed > 0 {
            bad += 1;
        }
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(|x| x.as_f64()) {
                let row = table
                    .entry((workload.to_string(), name.clone()))
                    .or_default();
                row.entry(pair).or_default()[side] = Some(x);
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<14} {:>28} {:>28} {:>8} {:>6}  gain",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "Δ", "wins"
    );
    for ((workload, metric), by_pair) in &table {
        let both: Vec<(f64, f64)> = by_pair
            .values()
            .filter_map(|[p, c]| Some(((*p)?, (*c)?)))
            .collect();
        if both.is_empty() {
            continue;
        }
        let [pq1, pm, pq3] = quartiles(both.iter().map(|b| b.0).collect());
        let [cq1, cm, cq3] = quartiles(both.iter().map(|b| b.1).collect());
        let wins = both.iter().filter(|(p, c)| c < p).count();
        let claim = if both.len() < 10 {
            "few"
        } else if wins * 10 >= both.len() * 9 && pm - cm > pq3 - pq1 {
            "holds"
        } else {
            "no"
        };
        let delta = if pm == 0.0 {
            0.0
        } else {
            (cm - pm) / pm * 100.0
        };
        let _ = writeln!(
            out,
            "{workload:<13} {metric:<14} {:>28} {:>28} {delta:>+7.1}% {:>6}  {claim}",
            format!("{pm:.4} [{pq1:.4}, {pq3:.4}]"),
            format!("{cm:.4} [{cq1:.4}, {cq3:.4}]"),
            format!("{wins}/{}", both.len()),
        );
    }
    let _ = writeln!(out, "{runs} runs, {bad} not correct or with failed ops");
    Ok(out)
}

/// Output format for [`lint`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LintFormat {
    /// Human-readable `file:line: [rule] message` report.
    Text,
    /// `{"findings": […], "count": N}` via jsonlite.
    Json,
    /// SARIF 2.1.0 for code-scanning upload.
    Sarif,
}

/// `lint`: run the project's static-analysis rules (`plfs-lint`) over the
/// workspace rooted at `root` — the per-file line rules plus the four
/// call-graph passes. Returns the rendered report and the finding count —
/// the CLI turns a nonzero count into exit 1, so the report itself still
/// reaches stdout for every format.
pub fn lint(root: &str, format: LintFormat) -> Result<(String, usize), ToolError> {
    let findings = plfs_lint::lint_workspace(Path::new(root))
        .map_err(|e| ToolError::Usage(format!("lint {root}: {e}")))?;
    let report = match format {
        LintFormat::Json => plfs_lint::render_json(&findings) + "\n",
        LintFormat::Sarif => plfs_lint::render_sarif(&findings) + "\n",
        LintFormat::Text => plfs_lint::render_text(&findings),
    };
    Ok((report, findings.len()))
}

/// `sarifcheck`: independently re-parse a SARIF document and verify the
/// invariants `lint --sarif` promises (version, single run, rule-index
/// back references, 1-based locations). Returns a one-line summary.
pub fn sarifcheck(text: &str, path: &str) -> ToolResult {
    match plfs_lint::check_sarif(text) {
        Ok(n) => Ok(format!("{path}: valid SARIF 2.1.0, {n} result(s)\n")),
        Err(e) => Err(ToolError::Usage(format!("{path}: invalid SARIF: {e}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plfs::{MemBacking, OpenFlags, Plfs};
    use std::sync::Arc;

    fn container() -> Arc<MemBacking> {
        let backing = Arc::new(MemBacking::new());
        let plfs = Plfs::new(backing.clone());
        for pid in 0..2u64 {
            let fd = plfs
                .open("/c", OpenFlags::RDWR | OpenFlags::CREAT, pid)
                .unwrap();
            plfs.write(&fd, &[7u8; 64], pid * 64, pid).unwrap();
            plfs.close(&fd, pid).unwrap();
        }
        backing
    }

    #[test]
    fn stat_reports_structure() {
        let b = container();
        let out = stat(b.as_ref(), "/c").unwrap();
        assert!(out.contains("logical size:   128 bytes"));
        assert!(out.contains("droppings:      2"));
    }

    #[test]
    fn map_lists_extents() {
        let b = container();
        let out = map(b.as_ref(), "/c").unwrap();
        assert!(out.contains("dropping.data.creator.0"));
        assert!(out.contains("dropping.data.1.0"));
        assert!(out.contains("2 extents"));
    }

    #[test]
    fn flatten_writes_plain_file() {
        let b = container();
        let out = flatten(b.as_ref(), "/c", "/flat").unwrap();
        assert!(out.contains("wrote 128 bytes"));
        assert_eq!(b.stat("/flat").unwrap().size, 128);
    }

    #[test]
    fn compact_folds_droppings_and_reports() {
        let b = container();
        let out = compact(b.as_ref(), "/c").unwrap();
        assert!(out.contains("compacted 2 droppings into 1"), "{out}");
        assert!(out.contains("128 logical bytes"), "{out}");
        let d = plfs::container::list_droppings(b.as_ref(), "/c").unwrap();
        assert_eq!(d.len(), 1);
        // A second run is a no-op and says so.
        let out = compact(b.as_ref(), "/c").unwrap();
        assert!(out.contains("already compact"), "{out}");
        assert!(flatten(b.as_ref(), "/c", "/flat").unwrap().contains("128"));
    }

    #[test]
    fn check_and_repair_flow() {
        let b = container();
        assert!(check(b.as_ref(), "/c").unwrap().contains("clean"));
        // Tear an index.
        let d = plfs::container::list_droppings(b.as_ref(), "/c").unwrap();
        let ip = d[0].index_path.clone().unwrap();
        let f = b.open(&ip, true).unwrap();
        f.append(&[1, 2, 3]).unwrap();
        drop(f);
        assert!(check(b.as_ref(), "/c").unwrap().contains("torn index"));
        let out = repair(b.as_ref(), "/c", true).unwrap();
        assert!(out.contains("indices truncated:      1"));
        assert!(check(b.as_ref(), "/c").unwrap().contains("clean"));
    }

    /// `check` says what the merged index is — absent, valid or corrupt —
    /// and names a stray `merged.*` name; `repair` removes a corrupt file
    /// and the strays. A writer that joins after a publish is read on top
    /// of the file, which stays valid.
    #[test]
    fn check_reports_the_merged_index_and_repair_removes_a_bad_one() {
        let b = Arc::new(MemBacking::new());
        let plfs = Plfs::new(b.clone());
        for pid in 0..2u64 {
            let fd = plfs
                .open("/c", OpenFlags::WRONLY | OpenFlags::CREAT, pid)
                .unwrap();
            for k in 0..32u64 {
                let slot = (k * 13 % 32) * 2 + pid;
                plfs.write(&fd, &[k as u8; 16], slot * 16, pid).unwrap();
            }
            plfs.close(&fd, pid).unwrap();
        }
        let state = |b: &MemBacking| check(b, "/c").unwrap();
        assert!(state(&b).contains("merged index: absent"));
        assert!(plfs::container::publish_merged(b.as_ref(), "/c").unwrap());
        let out = state(&b);
        assert!(
            out.contains("merged index: valid") && out.contains("clean"),
            "{out}"
        );
        let path = format!("/c/{}", plfs::container::MERGED_FILE);
        b.create(&path, false).unwrap().pwrite(b"torn", 0).unwrap();
        let out = state(&b);
        assert!(out.contains("merged index: corrupt"), "{out}");
        assert!(
            out.contains(&format!("corrupt merged index {path}")),
            "{out}"
        );
        // A temporary name left by a publisher that died, beside it.
        drop(b.create(&format!("{path}.tmp.7.0"), true).unwrap());
        assert!(state(&b).contains(&format!("stray merged index name {path}.tmp.7.0")));
        let out = repair(b.as_ref(), "/c", false).unwrap();
        assert!(out.contains("merged files removed:   2"), "{out}");
        let out = state(&b);
        assert!(
            out.contains("merged index: absent") && out.contains("clean"),
            "{out}"
        );
        // A writer that joins after a publish is a delta on top of it.
        assert!(plfs::container::publish_merged(b.as_ref(), "/c").unwrap());
        let fd = plfs.open("/c", OpenFlags::WRONLY, 5).unwrap();
        plfs.write(&fd, b"late", 0, 5).unwrap();
        plfs.close(&fd, 5).unwrap();
        assert!(state(&b).contains("merged index: valid"));
    }

    #[test]
    fn ls_tags_containers() {
        let b = container();
        b.mkdir("/plain_dir").unwrap();
        b.create("/plain_file", true).unwrap();
        let out = ls(b.as_ref(), "/").unwrap();
        assert!(out.contains("container"));
        assert!(out.contains("dir"));
        assert!(out.contains("file"));
        assert!(out.contains("128"), "container logical size shown: {out}");
    }

    #[test]
    fn du_reports_overwrite_amplification() {
        let b = container();
        // Overwrite the same region repeatedly: physical grows, logical
        // stays put (the log keeps every version).
        let plfs = Plfs::new(b.clone());
        let fd = plfs.open("/c", OpenFlags::WRONLY, 9).unwrap();
        for _ in 0..4 {
            plfs.write(&fd, &[1u8; 64], 0, 9).unwrap();
        }
        plfs.close(&fd, 9).unwrap();
        let out = du(b.as_ref(), "/").unwrap();
        assert!(out.contains(" c"), "{out}");
        // logical 128, physical 128 + 4*64 = 384 -> ratio 3.00x
        assert!(out.contains("3.00x"), "{out}");
    }

    #[test]
    fn rm_refuses_plain_dirs() {
        let b = container();
        b.mkdir("/plain").unwrap();
        assert!(rm(b.as_ref(), "/plain").is_err());
        rm(b.as_ref(), "/c").unwrap();
        assert!(!b.exists("/c"));
    }

    #[test]
    fn version_reads_access_file() {
        let b = container();
        let out = version(b.as_ref(), "/c").unwrap();
        assert!(
            out.contains("marked by its creator's data dropping"),
            "{out}"
        );
        plfs::container::publish_access_file(b.as_ref(), "/c").unwrap();
        let out = version(b.as_ref(), "/c").unwrap();
        assert_eq!(out, "plfs-container v1 (.plfsaccess)\n");
    }

    #[test]
    fn locate_splits_host_paths() {
        let dir = std::env::temp_dir().join(format!("plfs-tools-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let target = dir.join("cont");
        let (b, inner) = locate(target.to_str().unwrap()).unwrap();
        assert_eq!(inner, "/cont");
        assert!(b.root().ends_with(dir.file_name().unwrap()));
    }

    fn sample_trace() -> String {
        use iotrace::{Layer, OpKind, TraceRecord, NO_NODE, NO_PATH};
        let mk = |op, bytes, latency_ns, hit| TraceRecord {
            layer: Layer::Shim,
            op,
            path_id: NO_PATH,
            node: NO_NODE,
            fd: 3,
            offset: 0,
            bytes,
            start_ns: 1_000,
            latency_ns,
            hit,
        };
        [
            (mk(OpKind::Write, 100, 1_000, true), Some("/m/f")),
            (mk(OpKind::Write, 50, 2_000, true), None),
            (mk(OpKind::Read, 25, 500, false), None),
        ]
        .iter()
        .map(|(r, p)| iotrace::record_to_json(r, *p).to_json())
        .collect::<Vec<_>>()
        .join("\n")
    }

    #[test]
    fn trace_dump_lists_every_record() {
        let out = trace_dump(&sample_trace()).unwrap();
        assert!(out.contains("3 records"), "{out}");
        assert!(out.contains("/m/f"), "path resolved: {out}");
        assert!(out.contains("fd 3"), "fd fallback: {out}");
        assert!(out.contains("[hit]"), "{out}");
    }

    #[test]
    fn trace_summary_aggregates_per_layer_op() {
        let out = trace_summary(&sample_trace()).unwrap();
        // Two writes collapse to one row: 2 ops, 150 bytes, 2 hits.
        let writes = out.lines().find(|l| l.contains(" write ")).unwrap();
        assert!(writes.contains("2"), "{writes}");
        assert!(writes.contains("150"), "{writes}");
        let reads = out.lines().find(|l| l.contains(" read ")).unwrap();
        assert!(reads.contains("25"), "{reads}");
        assert!(out.contains("3 records total"), "{out}");
    }

    #[test]
    fn trace_summary_recognizes_write_path_ops() {
        use iotrace::{Layer, OpKind, TraceRecord, NO_NODE, NO_PATH};
        let jsonl = [OpKind::AppendFastpath, OpKind::IndexPatch]
            .iter()
            .map(|&op| {
                let r = TraceRecord {
                    layer: Layer::Plfs,
                    op,
                    path_id: NO_PATH,
                    node: NO_NODE,
                    fd: -1,
                    offset: 0,
                    bytes: 64,
                    start_ns: 0,
                    latency_ns: 100,
                    hit: false,
                };
                iotrace::record_to_json(&r, Some("/m/f")).to_json()
            })
            .collect::<Vec<_>>()
            .join("\n");
        let out = trace_summary(&jsonl).unwrap();
        for name in ["append_fastpath", "index_patch"] {
            assert!(out.contains(name), "summary lost {name}: {out}");
        }
        assert!(out.contains("2 records total"), "{out}");
    }

    #[test]
    fn trace_summary_breaks_out_metadata_and_cache_rate() {
        use iotrace::{Layer, OpKind, TraceRecord, NO_NODE, NO_PATH};
        let jsonl = [
            (OpKind::Write, false),
            (OpKind::MetaCacheHit, true),
            (OpKind::MetaCacheHit, true),
            (OpKind::MetaCacheMiss, false),
        ]
        .iter()
        .map(|&(op, hit)| {
            let r = TraceRecord {
                layer: Layer::Plfs,
                op,
                path_id: NO_PATH,
                node: NO_NODE,
                fd: -1,
                offset: 0,
                bytes: 0,
                start_ns: 0,
                latency_ns: 50,
                hit,
            };
            iotrace::record_to_json(&r, Some("/m/f")).to_json()
        })
        .collect::<Vec<_>>()
        .join("\n");
        let out = trace_summary(&jsonl).unwrap();
        assert!(
            out.contains("metadata ops 3 (75.0%), data ops 1 (25.0%)"),
            "{out}"
        );
        assert!(
            out.contains("meta-cache: 2 hits, 1 misses (66.7% hit rate)"),
            "{out}"
        );
    }

    #[test]
    fn pairs_applies_the_gain_rule_per_workload_and_metric() {
        let out = pairs(include_str!("../fixtures/pairs.jsonl")).unwrap();
        let row = |workload: &str, metric: &str| {
            out.lines()
                .find(|l| l.starts_with(&format!("{workload:<13} {metric:<14} ")))
                .unwrap_or_else(|| panic!("no {workload}/{metric} row in\n{out}"))
                .to_string()
        };
        // 10 of 10 wins, medians 4 MB apart against a 0.02 MB parent IQR.
        let rss = row("unix_tools", "peak_rss_MB");
        assert!(rss.contains("7.5000 [7.4900, 7.5075]"), "{rss}");
        assert!(rss.ends_with("10/10  holds"), "{rss}");
        // Wins 7 of 10: not nine tenths.
        assert!(row("unix_tools", "wall_s").ends_with("7/10  no"));
        // Wins 9 of 10, but by 0.01 s inside a 0.175 s parent IQR.
        assert!(row("unix_tools", "cpu_s").ends_with("9/10  no"));
        // Ties count for neither side.
        assert!(row("unix_tools", "space_amp").ends_with("0/10  no"));
        // meta_storm's pair 2 has no change run: one pair is too few.
        assert!(row("meta_storm", "peak_rss_MB").ends_with("1/1  few"));
        assert!(
            out.ends_with("23 runs, 1 not correct or with failed ops\n"),
            "{out}"
        );
    }

    #[test]
    fn pairs_rejects_malformed_lines() {
        assert!(matches!(
            pairs("{\"side\":\"left\"}"),
            Err(ToolError::Usage(_))
        ));
        assert!(matches!(
            pairs("{\"side\":\"parent\",\"workload\":\"w\"}"),
            Err(ToolError::Usage(_))
        ));
        assert!(matches!(pairs("not json"), Err(ToolError::Usage(_))));
    }

    #[test]
    fn trace_parse_rejects_malformed_lines() {
        let err = trace_dump("{\"layer\":\"shim\",\"op\":\"read\"}\nnot json\n").unwrap_err();
        assert!(
            matches!(err, ToolError::Usage(ref m) if m.contains("line 2")),
            "{err:?}"
        );
        let err = trace_summary("{\"nope\":1}\n").unwrap_err();
        assert!(
            matches!(err, ToolError::Usage(ref m) if m.contains("not a trace record")),
            "{err:?}"
        );
    }
}
