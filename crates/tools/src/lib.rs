//! # plfs-tools — container maintenance utilities
//!
//! The command-line companions real PLFS ships (`plfs_flatten`,
//! `plfs_map`/`plfs_query`, `plfs_check`, `plfs_recover`, `plfs_version`),
//! reimplemented over this repo's container code. All commands operate on
//! a *backend directory* on the host file system (the directory named in a
//! `plfsrc` `backends` line) — no mount, no FUSE, no MPI.
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

/// Tool errors: a container-layer error, a usage problem, or a failed
/// benchmark gate.
#[derive(Debug)]
pub enum ToolError {
    /// Underlying PLFS error.
    Plfs(plfs::Error),
    /// Bad invocation.
    Usage(String),
    /// A `benchgate` comparison found a regression.
    Gate(String),
    /// This system refuses what the command needs (ptrace).
    Unsupported(String),
}

impl std::fmt::Display for ToolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ToolError::Plfs(e) => write!(f, "{e}"),
            ToolError::Usage(m) => write!(f, "usage error: {m}"),
            ToolError::Gate(m) => write!(f, "bench gate: {m}"),
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
    let params = plfs::container::read_params(b, container)?;
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
    let _ = writeln!(out, "hostdirs:       {}", params.num_hostdirs);
    let _ = writeln!(out, "layout mode:    {:?}", params.mode);
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

/// `version`: print the container format version from the access file.
pub fn version(b: &dyn Backing, container: &str) -> ToolResult {
    let params = plfs::container::read_params(b, container)?;
    Ok(format!(
        "plfs-container v1 (num_hostdirs {}, mode {:?})\n",
        params.num_hostdirs, params.mode
    ))
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

/// `rccheck`: validate a plfsrc file, printing the parsed mounts, the
/// effective value of every knob (and whether the file set it), and a
/// line-numbered warning for every key nothing reads.
pub fn rccheck(text: &str) -> ToolResult {
    let (rc, warnings) = plfs::PlfsRc::parse_with_warnings(text)?;
    let mut out = String::new();
    let _ = writeln!(out, "ok: {} mount(s)", rc.mounts.len());
    for m in &rc.mounts {
        let _ = writeln!(
            out,
            "  {} -> {} ({} hostdirs, {:?}, index_buffer_entries {})",
            m.mount_point,
            m.backends.join(","),
            m.params.num_hostdirs,
            m.params.mode,
            m.index_buffer_entries
        );
    }
    let default = plfs::Conf::default();
    for k in plfs::conf::KNOBS {
        let (value, was) = (k.render(&rc.conf), k.render(&default));
        let origin = if value == was { "default" } else { "set" };
        let _ = writeln!(out, "  {} {value} ({origin})", k.key);
    }
    for w in warnings {
        let _ = writeln!(out, "warning: {w}");
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// BENCH_*.json checking and gating (CI).
// ---------------------------------------------------------------------------

/// `benchcheck`: parse one emitted `BENCH_*.json` and verify its shape —
/// a `figure` name, a `data` payload, and a `trace` section. The CI smoke
/// stage round-trips every file `paperbench --emit-json` wrote through
/// this to catch emitter/schema drift.
pub fn benchcheck(text: &str, name: &str) -> ToolResult {
    let doc = jsonlite::parse(text)
        .map_err(|e| ToolError::Usage(format!("{name}: not valid JSON: {e:?}")))?;
    let figure = doc
        .get("figure")
        .and_then(|f| f.as_str())
        .ok_or_else(|| ToolError::Usage(format!("{name}: missing \"figure\"")))?;
    if doc.get("data").is_none() {
        return Err(ToolError::Usage(format!("{name}: missing \"data\"")));
    }
    let trace_rows = doc
        .get("trace")
        .and_then(|t| t.get("layers"))
        .and_then(|l| l.as_object())
        .map(|layers| {
            layers
                .iter()
                .filter_map(|(_, v)| v.get("per_op").and_then(|p| p.as_object()))
                .map(<[(String, jsonlite::Value)]>::len)
                .sum::<usize>()
        });
    let gated = gate_metrics(&doc).map(|m| m.len()).unwrap_or(0);
    Ok(format!(
        "ok: {name}: figure {figure}, {} trace op rows, {gated} gated metric(s)\n",
        trace_rows.map_or("no".to_string(), |n| n.to_string()),
    ))
}

/// The metrics `benchgate` compares for a figure: `(name, value,
/// higher_is_better)`. Only ratios that are stable across runner speeds
/// are gated — the shim-overhead ratios of Table II and the modelled or
/// algorithmic ratios of the later figures — not raw wall-clock numbers.
fn gate_metrics(doc: &jsonlite::Value) -> Result<Vec<(String, f64, bool)>, ToolError> {
    let figure = doc.get("figure").and_then(|f| f.as_str()).unwrap_or("");
    let data = doc
        .get("data")
        .ok_or_else(|| ToolError::Usage("missing \"data\"".to_string()))?;
    let mut out = Vec::new();
    match figure {
        "writepath" => {
            // refresh_growth (patch cost at the largest resident index over
            // the smallest; held to GATE_CEILINGS) is an algorithmic ratio,
            // stable across core counts. Throughputs and latencies depend
            // on the runner, so they are reported, not gated.
            if let Some(g) = data.get("refresh_growth").and_then(|v| v.as_f64()) {
                out.push(("refresh_growth".to_string(), g, false));
            }
        }
        "metadata" => {
            // Op-count ratios and the projected storm seconds are pure
            // algorithm/model quantities — identical on any runner. The
            // microsecond latencies are not gated.
            for row in data
                .get("measured")
                .and_then(|m| m.as_array())
                .unwrap_or(&[])
            {
                let Some(phase) = row.get("phase").and_then(|v| v.as_str()) else {
                    continue;
                };
                if let Some(r) = row.get("ops_reduction").and_then(|v| v.as_f64()) {
                    out.push((format!("ops_reduction[{phase}]"), r, true));
                }
                // The counts themselves: exact on any runner, and the
                // open+write+close pair is held to GATE_CEILINGS.
                for arm in ["eager_ops", "cached_ops"] {
                    if let Some(n) = row.get(arm).and_then(|v| v.as_f64()) {
                        out.push((format!("{arm}[{phase}]"), n, false));
                    }
                }
            }
            // The small-file cycle's count is held to GATE_CEILINGS; its
            // modeled storm gates like the checkpoint cycle's.
            let small = data.get("small_file");
            if let Some(n) = small.and_then(|s| s.get("total_ops")?.as_f64()) {
                out.push(("small_file_cycle_ops".to_string(), n, false));
            }
            let storms = [
                ("storm_secs", data.get("storm")),
                ("small_file_storm_secs", small.and_then(|s| s.get("storm"))),
            ];
            for (name, rows) in storms {
                for row in rows.and_then(|m| m.as_array()).unwrap_or(&[]) {
                    if let (Some(p), Some(s)) = (
                        row.get("procs").and_then(|v| v.as_u64()),
                        row.get("secs").and_then(|v| v.as_f64()),
                    ) {
                        out.push((format!("{name}[{p} procs]"), s, false));
                    }
                }
            }
        }
        "noncontig" => {
            // Both ratios come from simulated clocks — identical on any
            // runner — so they gate directly. listio_vs_sieving is the
            // headline: list I/O must stay ≥2x over data sieving, and the
            // committed baseline holds that bar.
            for name in ["listio_vs_sieving", "listio_vs_per_extent"] {
                if let Some(v) = data.get(name).and_then(|v| v.as_f64()) {
                    out.push((name.to_string(), v, true));
                }
            }
        }
        "table2" => {
            for row in data.as_array().unwrap_or(&[]) {
                if let (Some(tool), Some(plfs), Some(std_)) = (
                    row.get("tool").and_then(|v| v.as_str()),
                    row.get("plfs_secs").and_then(|v| v.as_f64()),
                    row.get("standard_secs").and_then(|v| v.as_f64()),
                ) {
                    out.push((
                        format!("shim_overhead[{tool}]"),
                        plfs / std_.max(1e-12),
                        false,
                    ));
                }
            }
        }
        _ => {}
    }
    Ok(out)
}

/// Gated metrics held to an absolute bar instead of the baseline-relative
/// threshold. `writepath`'s `refresh_growth` spans a 256x sweep of the
/// resident index: in-place patching reads 1-2x (run-to-run spread wider
/// than any useful relative threshold), anything that copies or rebuilds
/// the index per read-after-write reads ~256x.
/// `metadata`'s `open+write+close` counts are exact: four ranks through one
/// fd onto an existing container, with the cache off (`eager`) and on; so is
/// its small-file cycle (create, write, close, stat, open, read, close,
/// unlink of a 1 KiB file with the defaults).
const GATE_CEILINGS: [(&str, f64); 4] = [
    ("refresh_growth", 4.0),
    ("eager_ops[open+write+close]", 31.0),
    ("cached_ops[open+write+close]", 28.0),
    ("small_file_cycle_ops", 13.0),
];

/// `benchgate`: compare a fresh `BENCH_*.json` against the committed
/// baseline and fail if any gated metric regressed by more than
/// `threshold` (a fraction, e.g. 0.30), or broke its [`GATE_CEILINGS`] bar.
/// Figures with no gated metrics pass trivially.
pub fn benchgate(baseline: &str, fresh: &str, threshold: f64) -> ToolResult {
    let base = jsonlite::parse(baseline)
        .map_err(|e| ToolError::Usage(format!("baseline: not valid JSON: {e:?}")))?;
    let new = jsonlite::parse(fresh)
        .map_err(|e| ToolError::Usage(format!("fresh: not valid JSON: {e:?}")))?;
    let bf = base.get("figure").and_then(|f| f.as_str()).unwrap_or("?");
    let nf = new.get("figure").and_then(|f| f.as_str()).unwrap_or("?");
    if bf != nf {
        return Err(ToolError::Usage(format!(
            "figure mismatch: baseline {bf}, fresh {nf}"
        )));
    }
    let base_metrics = gate_metrics(&base)?;
    let new_metrics = gate_metrics(&new)?;
    let mut out = String::new();
    let mut regressions = Vec::new();
    for (name, old, higher_is_better) in &base_metrics {
        let Some((_, fresh_v, _)) = new_metrics.iter().find(|(n, _, _)| n == name) else {
            regressions.push(format!("{name}: missing from fresh snapshot"));
            continue;
        };
        let regressed = match GATE_CEILINGS.iter().find(|(n, _)| n == name) {
            Some((_, ceiling)) => fresh_v > ceiling,
            None if *higher_is_better => *fresh_v < old * (1.0 - threshold),
            None => *fresh_v > old * (1.0 + threshold),
        };
        let _ = writeln!(
            out,
            "{:<34} baseline {:>8.3}  fresh {:>8.3}  {}",
            name,
            old,
            fresh_v,
            if regressed { "REGRESSED" } else { "ok" }
        );
        if regressed {
            regressions.push(format!(
                "{name}: baseline {old:.3}, fresh {fresh_v:.3} (>{:.0}% worse)",
                threshold * 100.0
            ));
        }
    }
    let _ = writeln!(
        out,
        "{} gated metric(s), {} regression(s)",
        base_metrics.len(),
        regressions.len()
    );
    if regressions.is_empty() {
        Ok(out)
    } else {
        Err(ToolError::Gate(format!(
            "{}\n{}",
            out.trim_end(),
            regressions.join("\n")
        )))
    }
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
        let fd = plfs
            .open("/c", OpenFlags::RDWR | OpenFlags::CREAT, 0)
            .unwrap();
        for pid in 0..2u64 {
            fd.add_ref(pid);
            plfs.write(&fd, &[7u8; 64], pid * 64, pid).unwrap();
            plfs.close(&fd, pid).unwrap_or(0);
        }
        plfs.close(&fd, 0).unwrap();
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
        assert!(out.contains("plfs-container v1"));
    }

    #[test]
    fn rccheck_prints_effective_conf_and_names_typos() {
        let out = rccheck(
            "compact_droppings_threshold 8\nmount_point /p\nbackends /b\nthreadpool_sise 9\n\
             backend tiered\nsubmit_depth 8\n",
        )
        .unwrap();
        assert!(out.contains("compact_droppings_threshold 8 (set)"), "{out}");
        assert!(out.contains("meta_cache_entries 4096 (default)"), "{out}");
        // A typo and the keys of the removed batched/tiered backends are
        // all ordinary unknown keys.
        for (line, key) in [(4, "threadpool_sise"), (5, "backend"), (6, "submit_depth")] {
            assert!(
                out.contains(&format!(
                    "warning: line {line}: unknown key `{key}` ignored"
                )),
                "{out}"
            );
        }
        assert_eq!(
            out.lines().count(),
            2 + plfs::conf::KNOBS.len() + 3,
            "header, one mount, every knob row, three warnings:\n{out}"
        );
    }

    #[test]
    fn rccheck_accepts_and_rejects() {
        assert!(rccheck("mount_point /p\nbackends /b\n")
            .unwrap()
            .contains("ok: 1"));
        assert!(rccheck("backends /b\n").is_err());
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
    fn benchgate_metadata_gates_ratios() {
        let cycle = |reduction: f64, secs: f64, cached_ops: u64| {
            format!(
                "{{\"figure\":\"metadata\",\"data\":{{\
                 \"measured\":[{{\"phase\":\"reopen\",\"eager_us\":1.5,\
                 \"ops_reduction\":{reduction}}},\
                 {{\"phase\":\"open+write+close\",\"cached_ops\":{cached_ops}}}],\
                 \"storm\":[{{\"procs\":1024,\"secs\":{secs}}}]}},\
                 \"trace\":{{}}}}"
            )
        };
        let doc = |reduction: f64, secs: f64| cycle(reduction, secs, 28);
        let out = benchcheck(&doc(4.0, 2.0), "BENCH_metadata.json").unwrap();
        assert!(out.contains("3 gated metric"), "{out}");
        // The cycle's op count is held to its absolute ceiling, whatever
        // the baseline says.
        assert!(benchgate(&cycle(4.0, 2.0, 40), &doc(4.0, 2.0), 0.30).is_ok());
        let err = benchgate(&doc(4.0, 2.0), &cycle(4.0, 2.0, 29), 0.30).unwrap_err();
        assert!(
            matches!(err, ToolError::Gate(ref m) if m.contains("cached_ops[open+write+close]")),
            "{err:?}"
        );
        // Ratios within threshold pass; a collapsed ops_reduction fails.
        assert!(benchgate(&doc(4.0, 2.0), &doc(3.5, 2.2), 0.30).is_ok());
        let err = benchgate(&doc(4.0, 2.0), &doc(1.0, 2.2), 0.30).unwrap_err();
        assert!(
            matches!(err, ToolError::Gate(ref m) if m.contains("ops_reduction[reopen]")),
            "{err:?}"
        );
        // So is the small-file cycle's, and its modeled storm gates too.
        let small = |ops: u64, secs: f64| {
            let tail = format!(
                ",\"small_file\":{{\"total_ops\":{ops},\
                 \"storm\":[{{\"procs\":256,\"secs\":{secs}}}]}}}},\"trace\":{{}}}}"
            );
            doc(4.0, 2.0).replace("},\"trace\":{}}", &tail)
        };
        let out = benchcheck(&small(13, 9.0), "BENCH_metadata.json").unwrap();
        assert!(out.contains("5 gated metric"), "{out}");
        assert!(benchgate(&small(24, 9.0), &small(13, 9.0), 0.30).is_ok());
        let err = benchgate(&small(13, 9.0), &small(14, 9.0), 0.30).unwrap_err();
        assert!(
            matches!(err, ToolError::Gate(ref m) if m.contains("small_file_cycle_ops")),
            "{err:?}"
        );
        let err = benchgate(&small(13, 9.0), &small(13, 12.0), 0.30).unwrap_err();
        assert!(
            matches!(err, ToolError::Gate(ref m) if m.contains("small_file_storm_secs[256 procs]")),
            "{err:?}"
        );
        // The projected storm gates on its seconds: lower is better.
        assert!(benchgate(&doc(4.0, 2.0), &doc(4.0, 1.0), 0.30).is_ok());
        let err = benchgate(&doc(4.0, 2.0), &doc(4.0, 3.0), 0.30).unwrap_err();
        assert!(
            matches!(err, ToolError::Gate(ref m) if m.contains("storm_secs[1024 procs]")),
            "{err:?}"
        );
    }

    #[test]
    fn benchcheck_validates_shape() {
        let doc = "{\"figure\":\"writepath\",\"data\":{\"refresh_growth\":1.5},\
                   \"trace\":{\"layers\":{\"plfs\":{\"per_op\":{\"open\":{},\"read\":{}}}}}}";
        let out = benchcheck(doc, "BENCH_writepath.json").unwrap();
        assert!(out.contains("figure writepath"), "{out}");
        assert!(out.contains("2 trace op rows"), "{out}");
        assert!(out.contains("1 gated metric"), "{out}");
        assert!(benchcheck("not json", "x").is_err());
        assert!(benchcheck("{\"data\":1}", "x").is_err(), "missing figure");
        assert!(
            benchcheck("{\"figure\":\"f\"}", "x").is_err(),
            "missing data"
        );
    }

    #[test]
    fn benchgate_writepath_gates_refresh_growth() {
        let doc = |growth: f64| {
            format!(
                "{{\"figure\":\"writepath\",\"data\":{{\"rows\":[\
                 {{\"writers\":8,\"mbps\":200.0}}],\
                 \"refresh_sweep\":[],\"refresh_growth\":{growth}}},\
                 \"trace\":{{}}}}"
            )
        };
        let out = benchcheck(&doc(1.5), "BENCH_writepath.json").unwrap();
        assert!(out.contains("1 gated metric"), "{out}");
        // Growth is held to its absolute 4x bar, whatever the baseline:
        // noise around 1-2x passes, anything near linear fails.
        assert!(benchgate(&doc(1.0), &doc(2.5), 0.30).is_ok());
        let err = benchgate(&doc(3.9), &doc(4.1), 0.30).unwrap_err();
        assert!(
            matches!(err, ToolError::Gate(ref m) if m.contains("refresh_growth")),
            "{err:?}"
        );
    }

    #[test]
    fn benchgate_table2_overhead_is_lower_is_better() {
        let doc = |plfs: f64| {
            format!(
                "{{\"figure\":\"table2\",\"data\":[\
                 {{\"tool\":\"cat\",\"plfs_secs\":{plfs},\"standard_secs\":10.0}}],\
                 \"trace\":{{}}}}"
            )
        };
        assert!(benchgate(&doc(10.0), &doc(11.0), 0.30).is_ok());
        let err = benchgate(&doc(10.0), &doc(14.0), 0.30).unwrap_err();
        assert!(matches!(err, ToolError::Gate(_)), "{err:?}");
    }

    #[test]
    fn benchgate_noncontig_gates_listio_ratios() {
        let doc = |sieve: f64, per_ext: f64| {
            format!(
                "{{\"figure\":\"noncontig\",\"data\":{{\"rows\":[],\
                 \"listio_vs_sieving\":{sieve},\"listio_vs_per_extent\":{per_ext}}},\
                 \"trace\":{{}}}}"
            )
        };
        let out = benchcheck(&doc(3.0, 1.5), "BENCH_noncontig.json").unwrap();
        assert!(out.contains("2 gated metric"), "{out}");
        // Higher is better: a small dip passes, a collapse of either ratio
        // fails on that metric.
        assert!(benchgate(&doc(3.0, 1.5), &doc(2.5, 1.4), 0.30).is_ok());
        let err = benchgate(&doc(3.0, 1.5), &doc(1.5, 1.4), 0.30).unwrap_err();
        assert!(
            matches!(err, ToolError::Gate(ref m) if m.contains("listio_vs_sieving")),
            "{err:?}"
        );
        let err = benchgate(&doc(3.0, 1.5), &doc(3.0, 0.5), 0.30).unwrap_err();
        assert!(
            matches!(err, ToolError::Gate(ref m) if m.contains("listio_vs_per_extent")),
            "{err:?}"
        );
    }

    #[test]
    fn benchgate_rejects_figure_mismatch_and_unknown_passes() {
        let a = "{\"figure\":\"fig3\",\"data\":[],\"trace\":{}}";
        let b = "{\"figure\":\"fig5\",\"data\":[],\"trace\":{}}";
        assert!(matches!(
            benchgate(a, b, 0.3).unwrap_err(),
            ToolError::Usage(_)
        ));
        // Ungated figures compare trivially clean.
        let out = benchgate(a, a, 0.3).unwrap();
        assert!(out.contains("0 gated metric(s), 0 regression(s)"), "{out}");
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
