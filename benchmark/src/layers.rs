//! The traced pass: per-layer metrics, measured from outside only.
//!
//! Four entry points replay the workload's seeded op lists:
//! (a) `preload` — `posix_app --per-call` under the real `LD_PRELOAD`;
//! (b) `ldplfs`  — the trait shim over `TimedPosix`/`TimedBacking`, one
//!     thread per client;
//! (c) `plfs.api` — the plfs API over `TimedBacking`, once untraced and once
//!     traced (their ratio is the tracing overhead);
//! (d) direct calls on the components (`WriteFile`, `ReadFile`,
//!     `IndexEntry`, `GlobalIndex`) against the container (c) left behind.
//!
//! Only default constructors are used: what a layer costs by default is
//! what is reported.

use crate::e2e::{run_clients, Env};
use crate::oplist::{now_ns, Op, O_CREAT};
use crate::replay::{replay, Replayed, Target, ViaApi, ViaShim};
use crate::span::{self, Span};
use crate::stage::{build_container, Arm, Stage};
use crate::timed::{TimedBacking, TimedPosix, BACKING, BACKING_DATA_OPS, UNDER};
use crate::workloads::{Rng, Workload};
use ldplfs::{set_virtual_pid, LdPlfsBuilder, RealPosix};
use plfs::{Backing, GlobalIndex, IndexEntry, Plfs, ReadFile, RealBacking, WriteFile};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::Arc;

/// Samples for the direct index/reader probes.
const PROBES: u64 = 4096;
const PROBE_BYTES: u64 = 4096;

pub struct Traced {
    /// Metric name → (value, unit), in the order of `BENCHMARK.json`.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

/// Exact percentile of a sample (nearest rank); 0 when there is none.
fn pct(mut ns: Vec<u64>, q: f64) -> f64 {
    if ns.is_empty() {
        return 0.0;
    }
    ns.sort_unstable();
    let rank = ((ns.len() as f64 * q).ceil() as usize).clamp(1, ns.len());
    ns[rank - 1] as f64
}

fn durs<'a>(spans: impl Iterator<Item = &'a Span>) -> Vec<u64> {
    spans.map(Span::dur_ns).collect()
}

/// Total time the root spans of `layer` cover.
fn busy_ns(spans: &[Span], layer: &str) -> u64 {
    let roots = spans.iter().filter(|s| s.layer == layer && s.parent == 0);
    roots.map(Span::dur_ns).sum()
}

/// Every per-layer metric: (name, unit, better). `BENCHMARK.json` repeats
/// this table (a test keeps the two equal) and the traced pass must produce
/// exactly these, so a metric cannot be dropped or renamed by accident.
pub const PER_LAYER: [(&str, &str, &str); 69] = [
    ("preload.open_creat_us", "us", "lower"),
    ("preload.open_rdonly_ms", "ms", "lower"),
    ("preload.pwrite_us_p50", "us", "lower"),
    ("preload.pwrite_us_p99", "us", "lower"),
    ("preload.pread_us_p50", "us", "lower"),
    ("preload.pread_us_p99", "us", "lower"),
    ("preload.close_us", "us", "lower"),
    ("preload.stat_us", "us", "lower"),
    ("preload.unlink_us", "us", "lower"),
    ("preload.excl_us_per_call", "us", "lower"),
    ("preload.passthrough_ns", "ns", "lower"),
    ("ldplfs.call_us", "us", "lower"),
    ("ldplfs.excl_us_per_call", "us", "lower"),
    ("ldplfs.under_calls_per_call", "count", "lower"),
    ("ldplfs.under_us_per_call", "us", "lower"),
    ("plfs.api.open_us", "us", "lower"),
    ("plfs.api.write_us", "us", "lower"),
    ("plfs.api.read_us", "us", "lower"),
    ("plfs.api.close_us", "us", "lower"),
    ("plfs.api.getattr_us", "us", "lower"),
    ("plfs.api.unlink_us", "us", "lower"),
    ("plfs.api.self_us_per_call", "us", "lower"),
    ("plfs.writer.write_us", "us", "lower"),
    ("plfs.writer.index_records", "count", "lower"),
    ("plfs.writer.index_flushes", "count", "lower"),
    ("plfs.writer.data_flushes", "count", "lower"),
    ("plfs.index.entries", "count", "lower"),
    ("plfs.index.segments", "count", "lower"),
    ("plfs.index.resident_bytes", "B", "lower"),
    ("plfs.index.decode_ms", "ms", "lower"),
    ("plfs.index.merge_ms", "ms", "lower"),
    ("plfs.index.resolve_ns", "ns", "lower"),
    ("plfs.index.insert_ns", "ns", "lower"),
    ("plfs.index.merges", "count", "lower"),
    ("plfs.index.patches", "count", "higher"),
    ("plfs.reader.open_ms", "ms", "lower"),
    ("plfs.reader.pread_us", "us", "lower"),
    ("plfs.reader.scan_MBps", "MB/s", "higher"),
    ("plfs.reader.droppings", "count", "lower"),
    ("plfs.reader.fanouts", "count", "lower"),
    ("plfs.cache.hits", "count", "higher"),
    ("plfs.cache.misses", "count", "lower"),
    ("plfs.cache.readaheads", "count", "higher"),
    ("plfs.cache.evictions", "count", "lower"),
    ("plfs.meta.hits", "count", "higher"),
    ("plfs.meta.misses", "count", "lower"),
    ("plfs.backing.ops_per_call", "count", "lower"),
    ("plfs.backing.us_per_call", "us", "lower"),
    ("plfs.backing.meta_ops_per_cycle", "count", "lower"),
    ("plfs.backing.data_us", "us", "lower"),
    ("plfs.backing.meta_us", "us", "lower"),
    ("plfs.backing.bytes_written", "B", "lower"),
    ("plfs.backing.bytes_read", "B", "lower"),
    ("plfs.backing.create_count", "count", "lower"),
    ("plfs.backing.open_count", "count", "lower"),
    ("plfs.backing.mkdir_count", "count", "lower"),
    ("plfs.backing.readdir_count", "count", "lower"),
    ("plfs.backing.unlink_count", "count", "lower"),
    ("plfs.backing.rmdir_count", "count", "lower"),
    ("plfs.backing.rename_count", "count", "lower"),
    ("plfs.backing.stat_count", "count", "lower"),
    ("plfs.backing.append_count", "count", "lower"),
    ("plfs.backing.pwrite_count", "count", "lower"),
    ("plfs.backing.pread_count", "count", "lower"),
    ("plfs.backing.size_count", "count", "lower"),
    ("plfs.backing.sync_count", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.budget_vs_wall", "ratio", "lower"),
];

#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.to_string(), value);
    }

    /// The values in table order; an error if the pass produced other
    /// names than the table has.
    fn in_order(mut self) -> Result<Vec<(String, f64, &'static str)>, String> {
        let mut out = Vec::new();
        for (name, unit, _) in PER_LAYER {
            let v = self
                .0
                .remove(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            out.push((name.to_string(), v, unit));
        }
        match self.0.keys().next() {
            Some(extra) => Err(format!("metric {extra} is not in the PER_LAYER table")),
            None => Ok(out),
        }
    }
}

/// Parse one client's `--per-call` dump into root spans of layer `preload`.
fn read_calls(path: &Path) -> Result<Vec<(Span, u32)>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let f: Vec<&str> = line.split(' ').collect();
        let bad = || format!("{}:{}: malformed span line", path.display(), i + 1);
        let [op, flags, t0, t1, bytes] = f[..] else {
            return Err(bad());
        };
        let op = *crate::oplist::OP_NAMES
            .iter()
            .find(|n| **n == op)
            .ok_or_else(bad)?;
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad());
        let span = Span {
            id: i as u32 + 1,
            parent: 0,
            req: i as u32 + 1,
            layer: "preload",
            op,
            start_ns: num(t0)?,
            end_ns: num(t1)?,
            bytes: num(bytes)?,
        };
        out.push((span, num(flags)? as u32));
    }
    Ok(out)
}

/// Entry (a). Returns the spans (with open flags) of all clients.
fn entry_preload(env: &Env, stage: &Stage, t: &mut Traced) -> Result<Vec<(Span, u32)>, String> {
    stage.reset(Arm::Plfs, false)?;
    let sec = run_clients(env, stage, Arm::Plfs, Some(&stage.inputs))?;
    t.attempted += sec.attempted;
    t.failed += sec.failed;
    let mut calls = Vec::new();
    for i in 0..stage.ops_files.len() {
        calls.extend(read_calls(&stage.inputs.join(format!("client{i}.calls")))?);
    }
    for (i, (s, _)) in calls.iter_mut().enumerate() {
        s.id = i as u32 + 1; // unique across clients
    }
    Ok(calls)
}

/// Added cost of a call the shim only forwards: client 0's list on flat
/// files, median call with the library preloaded minus median call without.
/// The first, discarded run makes both measured runs write to memory the
/// system has touched before.
fn passthrough_ns(env: &Env, stage: &Stage, t: &mut Traced) -> Result<f64, String> {
    let mut median = [0.0f64; 3];
    for (slot, preload) in [(0, false), (1, false), (2, true)] {
        stage.reset(Arm::Flat, false)?;
        let calls = stage.inputs.join("passthrough.calls");
        // Mounted elsewhere: every call of this client is outside the mount.
        let arm = if preload { Arm::Plfs } else { Arm::Flat };
        let cmd = env.client(&env.app, stage, arm);
        let cmd = cmd.arg("--ops").arg(&stage.ops_files[0]);
        let cmd = cmd.arg("--payload").arg(&stage.payload_file);
        let cmd = cmd.arg("--base").arg(&stage.flat);
        let cmd = cmd.arg("--per-call").arg(&calls);
        let batch = env.spawner.borrow_mut().run(&[cmd])?;
        t.attempted += 1;
        t.failed += u64::from(!batch.done[0].ok);
        median[slot] = pct(durs(read_calls(&calls)?.iter().map(|(s, _)| s)), 0.5);
    }
    Ok(median[2] - median[1])
}

/// What one in-process pass ((b) or (c)) recorded.
struct Pass {
    /// Sum of the client threads' wall-clock windows.
    wall_ns: u64,
    /// Part of those windows in no span: the replay loop itself.
    unattributed_ns: u64,
    spans: Vec<Span>,
    calls: u64,
}

/// Replay every client's list, one thread per client as the workload has
/// them, each against the target `make` builds for it.
fn replay_clients<T: Target>(
    stage: &Stage,
    entry: &str,
    t: &mut Traced,
    make: impl Fn(usize) -> T + Sync,
) -> Pass {
    let results: Vec<Replayed> = std::thread::scope(|s| {
        let handles: Vec<_> = (stage.plan.clients.iter().enumerate())
            .map(|(i, list)| {
                let make = &make;
                s.spawn(move || {
                    set_virtual_pid(i as u64 + 1);
                    replay(&mut make(i), list, &stage.plan.payload)
                })
            })
            .collect();
        let joined = handles
            .into_iter()
            .map(|h| h.join().expect("replay thread panicked"));
        joined.collect()
    });
    let mut pass = Pass {
        wall_ns: 0,
        unattributed_ns: 0,
        spans: Vec::new(),
        calls: 0,
    };
    let mut lists = Vec::new();
    for (i, r) in results.into_iter().enumerate() {
        t.attempted += r.calls + 1;
        t.failed += r.failed;
        if (r.read_bytes, r.read_sum) != stage.model.reads[i] {
            t.failed += 1;
            eprintln!("failed: entry {entry} client {i} read other bytes than the model");
        }
        pass.wall_ns += r.end_ns - r.start_ns;
        pass.unattributed_ns += span::unattributed_ns(&r.spans, r.start_ns, r.end_ns);
        pass.calls += r.calls;
        lists.push(r.spans);
    }
    lists.push(span::collect()); // spans from threads the product started
    pass.spans = span::merge(lists);
    pass
}

struct ApiPass {
    pass: Pass,
    iocounts: BTreeMap<String, u64>,
    meta: (u64, u64),
    backing: Arc<dyn Backing>,
}

/// Entry (c): the plfs API on a fresh backend.
fn entry_api(stage: &Stage, dir: &Path, traced: bool, t: &mut Traced) -> Result<ApiPass, String> {
    let _ = fs::remove_dir_all(dir);
    let real: Arc<dyn Backing> = Arc::new(RealBacking::new(dir).map_err(|e| e.to_string())?);
    let backing: Arc<dyn Backing> = Arc::new(TimedBacking(real));
    let plfs = Plfs::new(backing.clone());
    for pf in &stage.plan.prefiles {
        build_container(&plfs, pf, &stage.plan.payload)?;
    }
    let io = iotrace::global();
    io.reset();
    io.set_enabled(traced);
    span::set_enabled(traced);
    let pass = replay_clients(stage, "(c)", t, |i| ViaApi {
        plfs: &plfs,
        pid: i as u64 + 1,
        fd: None,
        cursor: 0,
    });
    span::set_enabled(false);
    io.set_enabled(false);
    let mut iocounts = BTreeMap::new();
    for e in io.snapshot().entries {
        *iocounts.entry(e.op.as_str().to_string()).or_insert(0) += e.ops;
    }
    Ok(ApiPass {
        pass,
        iocounts,
        meta: plfs.meta_cache_counters(),
        backing,
    })
}

/// Entry (b): the trait shim, over a timed "libc" and a timed backing.
fn entry_shim(stage: &Stage, dir: &Path, t: &mut Traced) -> Result<Pass, String> {
    let _ = fs::remove_dir_all(dir);
    let real: Arc<dyn Backing> =
        Arc::new(RealBacking::new(dir.join("backend")).map_err(|e| e.to_string())?);
    let plfs = Plfs::new(Arc::new(TimedBacking(real)));
    for pf in &stage.plan.prefiles {
        build_container(&plfs, pf, &stage.plan.payload)?;
    }
    let under = RealPosix::rooted(dir.join("under")).map_err(|e| e.to_string())?;
    let shim = LdPlfsBuilder::new(Arc::new(TimedPosix(Arc::new(under))))
        .mount("/plfs", plfs)
        .build()
        .map_err(|e| format!("build shim: {e}"))?;
    span::set_enabled(true);
    let pass = replay_clients(stage, "(b)", t, |_| ViaShim {
        shim: &shim,
        mount: "/plfs",
        fd: -1,
    });
    span::set_enabled(false);
    Ok(pass)
}

/// The write calls of the workload's first writer, as (offset, len, src).
fn first_writer(stage: &Stage) -> Vec<(u64, u32, u32)> {
    let mut out = Vec::new();
    let mut cursor = 0;
    for op in &stage.plan.clients[0].ops {
        match *op {
            Op::Open { .. } => cursor = 0,
            Op::Pwrite { off, len, src } => out.push((off, len, src)),
            Op::Write { len, src } => {
                out.push((cursor, len, src));
                cursor += len as u64;
            }
            _ => {}
        }
    }
    if out.is_empty() {
        if let Some(pf) = stage.plan.prefiles.first() {
            let pid = pf.writes[0].pid;
            let own = pf.writes.iter().filter(|w| w.pid == pid);
            out.extend(own.map(|w| (w.off, w.len, w.src)));
        }
    }
    out
}

/// Entry (d), write side: `WriteFile` on a container of its own.
fn probe_writer(stage: &Stage, api: &ApiPass, m: &mut Metrics) -> Result<(), String> {
    let b = api.backing.as_ref();
    let plfs = Plfs::new(api.backing.clone());
    plfs.create("/writer_probe", false)
        .map_err(|e| e.to_string())?;
    let limit = plfs::writer::DEFAULT_INDEX_BUFFER_ENTRIES;
    let mut wf = WriteFile::open(b, "/writer_probe", &plfs.defaults(), 1, limit)
        .map_err(|e| format!("WriteFile::open: {e}"))?;
    let mut ns = Vec::new();
    for (off, len, src) in first_writer(stage) {
        let data = &stage.plan.payload[src as usize..][..len as usize];
        let t0 = now_ns();
        wf.write(data, off)
            .map_err(|e| format!("WriteFile::write: {e}"))?;
        ns.push(now_ns() - t0);
    }
    wf.sync().map_err(|e| e.to_string())?;
    m.put("plfs.writer.write_us", pct(ns, 0.5) / 1e3);
    m.put("plfs.writer.index_records", wf.index_records() as f64);
    m.put("plfs.writer.index_flushes", wf.index_flushes() as f64);
    m.put("plfs.writer.data_flushes", wf.data_flushes() as f64);
    Ok(())
}

/// Entry (d), read side, on the largest container pass (c) left behind.
fn probe_reader(stage: &Stage, api: &ApiPass, seed: u64, m: &mut Metrics) -> Result<(), String> {
    let b = api.backing.as_ref();
    let files = stage.model.final_files();
    let (name, data) = files
        .iter()
        .max_by_key(|(_, d)| d.len())
        .ok_or("workload leaves no file behind")?;
    let container = format!("/{name}");
    let size = data.len() as u64;

    let t0 = now_ns();
    let reader = ReadFile::open(b, &container).map_err(|e| format!("ReadFile::open: {e}"))?;
    let open_ns = now_ns() - t0;
    let index = reader.index().into_owned();
    m.put("plfs.index.entries", index.raw_entries() as f64);
    m.put("plfs.index.segments", index.segments() as f64);
    m.put(
        "plfs.index.resident_bytes",
        reader.index_resident_bytes() as f64,
    );

    // Decode and merge, timed apart from the backing reads that feed them.
    let mut runs = Vec::new();
    let mut decode_ns = 0;
    for (id, d) in reader.droppings().iter().enumerate() {
        let Some(ip) = &d.index_path else { continue };
        let f = b.open(ip, false).map_err(|e| e.to_string())?;
        let mut raw = vec![0u8; f.size().map_err(|e| e.to_string())? as usize];
        f.pread(&mut raw, 0).map_err(|e| e.to_string())?;
        let t0 = now_ns();
        let mut run = IndexEntry::decode_all(&raw).map_err(|e| format!("decode_all: {e}"))?;
        decode_ns += now_ns() - t0;
        for e in &mut run {
            e.dropping_id = id as u32;
        }
        runs.push(run);
    }
    let t0 = now_ns();
    let merged = GlobalIndex::from_sorted_runs(runs);
    let merge_ns = now_ns() - t0;
    if merged.eof() != size {
        return Err(format!(
            "direct merge of {container} ends at {}, not {size}",
            merged.eof()
        ));
    }
    m.put("plfs.index.decode_ms", decode_ns as f64 / 1e6);
    m.put("plfs.index.merge_ms", merge_ns as f64 / 1e6);

    let mut rng = Rng::new(seed, 3);
    let blocks = (size / PROBE_BYTES).max(1);
    let offsets: Vec<u64> = (0..PROBES)
        .map(|_| PROBE_BYTES * rng.below(blocks))
        .collect();
    let resolve_ns = offsets.iter().map(|&off| {
        let t0 = now_ns();
        std::hint::black_box(index.resolve(off, PROBE_BYTES));
        now_ns() - t0
    });
    m.put("plfs.index.resolve_ns", pct(resolve_ns.collect(), 0.5));
    let mut patched: GlobalIndex = index.clone();
    let insert_ns = offsets.iter().enumerate().map(|(i, &off)| {
        let e = IndexEntry {
            logical_offset: off,
            length: PROBE_BYTES.min(size - off),
            physical_offset: i as u64 * PROBE_BYTES,
            dropping_id: 0,
            timestamp: u64::MAX / 2 + i as u64,
            pid: 1,
        };
        let t0 = now_ns();
        patched.insert(e);
        now_ns() - t0
    });
    m.put("plfs.index.insert_ns", pct(insert_ns.collect(), 0.5));

    m.put("plfs.reader.open_ms", open_ns as f64 / 1e6);
    let mut buf = vec![0u8; 1 << 20];
    let pread_ns = offsets.iter().map(|&off| {
        let want = PROBE_BYTES.min(size - off) as usize;
        let t0 = now_ns();
        let n = reader.pread(b, &mut buf[..want], off);
        let dt = now_ns() - t0;
        (
            dt,
            n.is_ok_and(|n| n == want && buf[..want] == data[off as usize..][..want]),
        )
    });
    let (pread_ns, right): (Vec<u64>, Vec<bool>) = pread_ns.unzip();
    m.put("plfs.reader.pread_us", pct(pread_ns, 0.5) / 1e3);
    let t0 = now_ns();
    let mut scanned_right = true;
    for (i, chunk) in data.chunks(buf.len()).enumerate() {
        let n = reader.pread(b, &mut buf[..chunk.len()], (i << 20) as u64);
        scanned_right &= n.is_ok_and(|n| n == chunk.len()) && buf[..chunk.len()] == *chunk;
    }
    let scan_s = (now_ns() - t0) as f64 / 1e9;
    m.put("plfs.reader.scan_MBps", size as f64 / 1e6 / scan_s);
    m.put("plfs.reader.droppings", reader.droppings().len() as f64);
    if !scanned_right || right.contains(&false) {
        return Err(format!(
            "ReadFile::pread on {container} returned other bytes than the model"
        ));
    }
    Ok(())
}

/// Run the traced pass of one workload and derive every per-layer metric.
pub fn run(env: &Env, w: &'static Workload, seed: u64, trace_out: &Path) -> Result<Traced, String> {
    let dir = env.dir.join(w.name);
    let stage = Stage::set_up(&dir, w, seed)?;
    let mut t = Traced {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut m = Metrics::default();

    // Every pass frees its files before the next one writes. On a VM, memory
    // the guest touches for the first time costs a fault per page in the
    // host; a pass that paid that would not compare with one that reused
    // pages. Pass (a) pays it for all of them.
    let pre = entry_preload(env, &stage, &mut t)?;
    stage.reset(Arm::Plfs, false)?;
    let passthrough = passthrough_ns(env, &stage, &mut t)?;
    stage.reset(Arm::Flat, false)?;
    let untraced = entry_api(&stage, &dir.join("backend_c"), false, &mut t)?;
    let api = entry_api(&stage, &dir.join("backend_c"), true, &mut t)?;
    probe_writer(&stage, &api, &mut m)?;
    probe_reader(&stage, &api, seed, &mut m)?;
    let _ = fs::remove_dir_all(dir.join("backend_c"));
    let shim = entry_shim(&stage, &dir.join("entry_b"), &mut t)?;

    // preload
    let busy_a: u64 = pre.iter().map(|(s, _)| s.dur_ns()).sum();
    let busy_c = busy_ns(&api.pass.spans, "plfs.api");
    let of = |ops: &[&str]| durs(pre.iter().map(|(s, _)| s).filter(|s| ops.contains(&s.op)));
    let opens = |creat: bool| {
        let sel = pre
            .iter()
            .filter(move |(s, f)| s.op == "open" && (f & O_CREAT != 0) == creat);
        durs(sel.map(|(s, _)| s))
    };
    m.put("preload.open_creat_us", pct(opens(true), 0.5) / 1e3);
    m.put("preload.open_rdonly_ms", pct(opens(false), 0.5) / 1e6);
    m.put(
        "preload.pwrite_us_p50",
        pct(of(&["pwrite", "write"]), 0.5) / 1e3,
    );
    m.put(
        "preload.pwrite_us_p99",
        pct(of(&["pwrite", "write"]), 0.99) / 1e3,
    );
    m.put(
        "preload.pread_us_p50",
        pct(of(&["pread", "read"]), 0.5) / 1e3,
    );
    m.put(
        "preload.pread_us_p99",
        pct(of(&["pread", "read"]), 0.99) / 1e3,
    );
    m.put("preload.close_us", pct(of(&["close"]), 0.5) / 1e3);
    m.put("preload.stat_us", pct(of(&["stat"]), 0.5) / 1e3);
    m.put("preload.unlink_us", pct(of(&["unlink"]), 0.5) / 1e3);
    let calls = api.pass.calls as f64;
    m.put(
        "preload.excl_us_per_call",
        (busy_a as f64 - busy_c as f64) / calls / 1e3,
    );
    m.put("preload.passthrough_ns", passthrough);

    // ldplfs
    let busy_b = busy_ns(&shim.spans, "ldplfs");
    let shim_self = span::self_by_layer(&shim.spans);
    let under: Vec<&Span> = shim.spans.iter().filter(|s| s.layer == UNDER).collect();
    let ldplfs_excl = busy_b as f64 - busy_c as f64;
    m.put(
        "ldplfs.call_us",
        pct(durs(shim.spans.iter().filter(|s| s.layer == "ldplfs")), 0.5) / 1e3,
    );
    m.put("ldplfs.excl_us_per_call", ldplfs_excl / calls / 1e3);
    m.put("ldplfs.under_calls_per_call", under.len() as f64 / calls);
    m.put(
        "ldplfs.under_us_per_call",
        shim_self.get(UNDER).copied().unwrap_or(0) as f64 / calls / 1e3,
    );

    // plfs.api
    let api_self = span::self_by_layer(&api.pass.spans);
    let api_op = |op: &str| {
        durs(
            api.pass
                .spans
                .iter()
                .filter(|s| s.layer == "plfs.api" && s.op == op),
        )
    };
    for op in ["open", "write", "read", "close", "getattr", "unlink"] {
        m.put(&format!("plfs.api.{op}_us"), pct(api_op(op), 0.5) / 1e3);
    }
    let api_self_ns = api_self.get("plfs.api").copied().unwrap_or(0);
    m.put(
        "plfs.api.self_us_per_call",
        api_self_ns as f64 / calls / 1e3,
    );

    // plfs.writer, plfs.index, plfs.reader come from the direct probes
    // above; their counters from pass (c)'s iotrace harvest
    let io = |name: &str| api.iocounts.get(name).copied().unwrap_or(0) as f64;
    m.put(
        "plfs.index.merges",
        io("index_merge") + io("index_merge_par"),
    );
    m.put("plfs.index.patches", io("index_patch"));
    m.put("plfs.reader.fanouts", io("read_fanout"));
    m.put("plfs.cache.hits", io("cache_hit"));
    m.put("plfs.cache.misses", io("cache_miss"));
    m.put("plfs.cache.readaheads", io("readahead"));
    m.put("plfs.cache.evictions", io("cache_evict"));
    m.put("plfs.meta.hits", api.meta.0 as f64);
    m.put("plfs.meta.misses", api.meta.1 as f64);

    // plfs.backing, from pass (c): serial, so its counts repeat exactly
    let selfs = span::self_times(&api.pass.spans);
    let backing: Vec<&Span> = api
        .pass
        .spans
        .iter()
        .filter(|s| s.layer == BACKING)
        .collect();
    let is_data = |s: &Span| BACKING_DATA_OPS.contains(&s.op);
    let self_us = |pick: &dyn Fn(&Span) -> bool| {
        let picked = backing.iter().filter(|s| pick(s));
        picked.map(|s| selfs[&s.id]).sum::<u64>() as f64 / 1e3
    };
    let bytes = |ops: &[&str]| {
        let picked = backing.iter().filter(|s| ops.contains(&s.op));
        picked.map(|s| s.bytes).sum::<u64>() as f64
    };
    let meta_ops = backing.iter().filter(|s| !is_data(s)).count();
    m.put("plfs.backing.ops_per_call", backing.len() as f64 / calls);
    m.put("plfs.backing.us_per_call", self_us(&|_| true) / calls);
    m.put(
        "plfs.backing.meta_ops_per_cycle",
        meta_ops as f64 / stage.plan.cycles as f64,
    );
    m.put("plfs.backing.data_us", self_us(&is_data));
    m.put("plfs.backing.meta_us", self_us(&|s| !is_data(s)));
    m.put("plfs.backing.bytes_written", bytes(&["append", "pwrite"]));
    m.put("plfs.backing.bytes_read", bytes(&["pread"]));
    for op in [
        "create", "open", "mkdir", "readdir", "unlink", "rmdir", "rename", "stat", "append",
        "pwrite", "pread", "size", "sync",
    ] {
        let n = backing.iter().filter(|s| s.op == op).count();
        m.put(&format!("plfs.backing.{op}_count"), n as f64);
    }

    // harness: tracing overhead, and the entry-(b) budget against its wall
    let backing_b = shim_self.get(BACKING).copied().unwrap_or(0) as f64;
    let budget = ldplfs_excl + api_self_ns as f64 + backing_b + shim.unattributed_ns as f64;
    m.put(
        "trace.overhead_ratio",
        api.pass.wall_ns as f64 / untraced.pass.wall_ns as f64,
    );
    m.put(
        "trace.unattributed_share",
        shim.unattributed_ns as f64 / shim.wall_ns as f64,
    );
    m.put("trace.budget_vs_wall", budget / shim.wall_ns as f64);
    debug_assert_eq!(shim.calls, api.pass.calls);

    // Spans stayed in memory until here; write them out once.
    let pre_spans = pre.into_iter().map(|(s, _)| s).collect();
    let all = span::merge(vec![pre_spans, shim.spans, api.pass.spans]);
    if let Some(parent) = trace_out.parent() {
        fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
    }
    fs::write(trace_out, span::to_jsonl(&all))
        .map_err(|e| format!("{}: {e}", trace_out.display()))?;

    t.metrics = m.in_order()?;
    Ok(t)
}
