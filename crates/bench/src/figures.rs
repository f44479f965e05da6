//! The figure registry: every table and figure `paperbench` regenerates is
//! one row of [`FIGURES`] — its name, whether its numbers are measured or
//! modeled, how it runs and renders, and, for the gated ones, which
//! metrics the bench gate compares and at what scale it may regenerate
//! them. The binary's subcommands, `all`, `--help` and `gated`, the
//! `paper_figures` bench and the gate itself all read this one list, so
//! adding a figure is one row plus its run function.

use crate::gate::Metric;
use crate::*;
use apps::nas_bt::BtClass;
use jsonlite::{ToJson, Value};
use simfs::presets;
use std::fmt::Write as _;
use std::path::Path;

/// What a figure's numbers are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Timed or counted on this host, through the real PLFS code over an
    /// in-memory backing.
    Measured,
    /// Computed by the `simfs` model of the paper's testbeds.
    Modeled,
}

impl Kind {
    /// The `kind` value of a `BENCH_*.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Measured => "measured",
            Kind::Modeled => "modeled",
        }
    }

    /// Inverse of [`Kind::as_str`].
    pub fn parse(s: &str) -> Option<Kind> {
        [Kind::Measured, Kind::Modeled]
            .into_iter()
            .find(|k| k.as_str() == s)
    }
}

/// The knobs of one `paperbench` run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Paper-scale or reduced volumes.
    pub scale: Scale,
    /// Table II file size (GB).
    pub gb: u64,
    /// Figure 4's BT class; `None` runs both.
    pub class: Option<BtClass>,
    /// Figure 5's PLFS hostdir count.
    pub subdirs: u32,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            scale: Scale::Paper,
            gb: 4,
            class: None,
            subdirs: 32,
        }
    }
}

/// How a gated figure is gated.
pub struct Gate {
    /// The gated metrics of one emitted `data` section.
    pub metrics: fn(&Value) -> Vec<Metric>,
    /// The smallest scale whose gated metrics match the committed
    /// baseline's: `Quick` where they are scale-stable and deterministic.
    pub scale: Scale,
}

/// One row of the registry.
pub struct Figure {
    /// Subcommand name; emitted files are `BENCH_<name>…json`.
    pub name: &'static str,
    /// Measured or modeled.
    pub kind: Kind,
    /// `--help` text: flags the figure reads and what it regenerates.
    pub help: &'static str,
    /// Run at `opts`, handing each emitted output to the [`Emitter`];
    /// returns the text rendering.
    pub run: fn(&Opts, &Emitter) -> String,
    /// The bench gate, for the gated figures.
    pub gate: Option<Gate>,
}

impl Figure {
    /// Run the figure, writing its `BENCH_*.json` files into `dir` if
    /// given; returns the text rendering.
    pub fn regenerate(&self, opts: &Opts, dir: Option<&Path>) -> String {
        (self.run)(
            opts,
            &Emitter {
                dir,
                kind: self.kind,
            },
        )
    }
}

/// Every table and figure, in `paperbench all` order.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "table1",
        kind: Kind::Modeled,
        help: "machine specs (Table I inputs)",
        run: run_table1,
        gate: None,
    },
    Figure {
        name: "fig3",
        kind: Kind::Modeled,
        help: "[--quick]  MPI-IO Test on Minerva (6 panels)",
        run: run_fig3,
        gate: None,
    },
    Figure {
        name: "table2",
        kind: Kind::Modeled,
        help: "[--gb N]  UNIX tools on the login node",
        run: run_table2,
        gate: Some(Gate {
            metrics: gate_table2,
            scale: Scale::Paper,
        }),
    },
    Figure {
        name: "fig4",
        kind: Kind::Modeled,
        help: "[--class C|D]  NAS BT on Sierra",
        run: run_fig4,
        gate: None,
    },
    Figure {
        name: "fig5",
        kind: Kind::Modeled,
        help: "[--subdirs N]  FLASH-IO on Sierra",
        run: run_fig5,
        gate: None,
    },
    Figure {
        name: "crossover",
        kind: Kind::Modeled,
        help: "where PLFS starts to hurt (future work)",
        run: run_crossover,
        gate: None,
    },
    Figure {
        name: "ior",
        kind: Kind::Modeled,
        help: "IOR layouts/APIs/transfer sizes on Sierra",
        run: run_ior,
        gate: None,
    },
    Figure {
        name: "staging",
        kind: Kind::Modeled,
        help: "Zest-style staging vs PLFS vs plain Lustre",
        run: run_staging,
        gate: None,
    },
    Figure {
        name: "writepath",
        kind: Kind::Measured,
        help: "[--quick]  racing writers, an fd each; appends, read-after-write patches",
        run: run_writepath,
        gate: Some(Gate {
            metrics: gate_writepath,
            scale: Scale::Paper,
        }),
    },
    Figure {
        name: "metadata",
        kind: Kind::Measured,
        help: "[--quick]  per-open and small-file-cycle metadata ops + MDS-storm projection",
        run: run_metadata,
        gate: Some(Gate {
            metrics: gate_metadata,
            scale: Scale::Quick,
        }),
    },
    Figure {
        name: "noncontig",
        kind: Kind::Modeled,
        help: "[--quick]  list I/O vs data sieving on strided views",
        run: run_noncontig,
        gate: Some(Gate {
            metrics: gate_noncontig,
            scale: Scale::Quick,
        }),
    },
];

/// The row named `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The row that emitted the output `figure` (`fig4C` is `fig4`'s,
/// `crossover_<platform>` is `crossover`'s): the longest row name it
/// starts with.
pub fn figure_of(figure: &str) -> Option<&'static Figure> {
    FIGURES
        .iter()
        .filter(|f| figure.starts_with(f.name))
        .max_by_key(|f| f.name.len())
}

/// Hands a figure's outputs to `--emit-json`: each is computed in a fresh
/// window of the global trace sink and written as `BENCH_<name>.json` —
/// `{figure, kind, generated_by, data, trace}` — when a directory is set.
pub struct Emitter<'a> {
    dir: Option<&'a Path>,
    kind: Kind,
}

impl Emitter<'_> {
    /// Compute the output `name` with `f`, emit it, and return it.
    pub fn output<T: ToJson>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let Some(dir) = self.dir else { return f() };
        let sink = iotrace::global();
        sink.reset();
        sink.set_enabled(true);
        let out = f();
        sink.set_enabled(false);
        let doc = Value::object()
            .with("figure", name)
            .with("kind", self.kind.as_str())
            .with("generated_by", "paperbench")
            .with("data", out.to_json_value())
            .with("trace", sink.snapshot().to_json());
        sink.reset();
        // Keep file names shell-friendly whatever the figure label.
        let file: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("BENCH_{file}.json"));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.to_json_pretty()));
        if let Err(e) = written {
            eprintln!("paperbench: writing {}: {e}", path.display());
        }
        out
    }
}

fn run_table1(_: &Opts, _: &Emitter) -> String {
    let mut out = "# Table I: benchmarking platforms\n\n".to_string();
    for p in [presets::minerva(), presets::sierra()] {
        let mds = match p.fs.mds {
            simfs::MdsConfig::Dedicated { .. } => "dedicated MDS (Lustre)",
            simfs::MdsConfig::Distributed { .. } => "distributed (GPFS)",
        };
        let _ = writeln!(out, "{}", p.fs.name);
        let _ = writeln!(out, "  nodes                 {}", p.cluster.nodes);
        let _ = writeln!(out, "  cores per node        {}", p.cluster.cores_per_node);
        let _ = writeln!(out, "  I/O servers           {}", p.fs.servers);
        let _ = writeln!(out, "  lanes per server      {}", p.fs.lanes_per_server);
        let _ = writeln!(
            out,
            "  effective storage bw  {:.1} MB/s (calibrated; theoretical peaks 4/30 GB/s)",
            p.peak_storage_bw() / 1e6
        );
        let _ = writeln!(out, "  metadata              {mds:?}\n");
    }
    out
}

fn run_fig3(o: &Opts, e: &Emitter) -> String {
    let panels = e.output("fig3", || fig3(o.scale));
    let mut out = "# Figure 3: MPI-IO Test bandwidths on Minerva (MB/s)\n\n".to_string();
    for p in &panels {
        let _ = writeln!(out, "{}", render_panel(p));
    }
    out
}

fn run_table2(o: &Opts, e: &Emitter) -> String {
    let rows = e.output("table2", || table2(o.gb * 1_000_000_000));
    format!(
        "# Table II: UNIX tool times on a {} GB file (seconds)\n\n{}\n",
        o.gb,
        render_table2(&rows)
    )
}

fn run_fig4(o: &Opts, e: &Emitter) -> String {
    let mut out = String::new();
    for class in o.class.map_or(vec![BtClass::C, BtClass::D], |c| vec![c]) {
        let p = e.output(&format!("fig4{}", class.label()), || fig4(class, o.scale));
        let panel = match class {
            BtClass::C => "a",
            BtClass::D => "b",
        };
        let _ = writeln!(
            out,
            "# Figure 4{panel}: BT class {} on Sierra (MB/s)\n\n{}",
            class.label(),
            render_panel(&p)
        );
    }
    out
}

fn run_fig5(o: &Opts, e: &Emitter) -> String {
    let p = e.output("fig5", || fig5_with(o.subdirs, o.scale));
    format!(
        "# Figure 5: FLASH-IO on Sierra (MB/s), {} hostdirs\n\n{}\n",
        o.subdirs,
        render_panel(&p)
    )
}

fn run_crossover(_: &Opts, e: &Emitter) -> String {
    let mut out = "# PLFS benefit crossover (FLASH-IO, LDPLFS vs MPI-IO)\n\n".to_string();
    for (platform, label) in [
        (presets::sierra(), "Sierra (Lustre, dedicated MDS)"),
        (presets::minerva(), "Minerva (GPFS, distributed metadata)"),
    ] {
        let c = e.output(&format!("crossover_{label}"), || {
            crossover(&platform, label)
        });
        let _ = writeln!(out, "{label}\n{:>8}{:>12}", "Cores", "Speedup");
        for (cores, s) in c.cores.iter().zip(&c.speedup) {
            let _ = writeln!(out, "{cores:>8}{s:>12.2}");
        }
        match c.harmful_at {
            Some(at) => out += &format!("  -> PLFS harmful from {at} cores\n\n"),
            None => out += "  -> PLFS never harmful in this sweep\n\n",
        }
    }
    out
}

fn run_ior(_: &Opts, e: &Emitter) -> String {
    let rows = e.output("ior", || ior_sweep(96));
    format!(
        "# IOR parameter sweep on Sierra (write, 96 processes)\n\n{}\n",
        render_ior(&rows)
    )
}

fn run_staging(_: &Opts, e: &Emitter) -> String {
    let rows = e.output("staging", staging_comparison);
    format!(
        "# Zest-style staging vs PLFS vs plain Lustre (FLASH-IO)\n\n{}\n\
         (per-node staging lanes scale linearly with node count and dodge\n          \
         shared-FS contention entirely — but the data still needs a later\n          \
         copy-out to the real file system, which PLFS does not)\n\n",
        render_staging(&rows)
    )
}

fn run_writepath(o: &Opts, e: &Emitter) -> String {
    let report = e.output("writepath", || writepath_comparison(o.scale));
    format!(
        "# Write path: racing writers, an fd each; appends, read-after-write patches\n\n\
         ## Measured (in-memory backing, this host)\n\n{}\n",
        render_writepath(&report)
    )
}

fn run_metadata(o: &Opts, e: &Emitter) -> String {
    let report = e.output("metadata", || metadata_comparison(o.scale));
    format!(
        "# Metadata fast path: per-open backing ops, eager vs cached\n\n\
         ## Measured (in-memory backing, this host) + MDS-storm projection\n\n{}\n\
         (storm rows replay the measured open+write+close profile for N\n          \
         simultaneous processes through Sierra's dedicated-MDS model: the\n          \
         projected time for the slowest to finish its open; the small-file\n          \
         rows replay the measured whole-cycle profile the same way, every\n          \
         process cycling a file of its own)\n\n",
        render_metadata(&report)
    )
}

fn run_noncontig(o: &Opts, e: &Emitter) -> String {
    let report = e.output("noncontig", || noncontig_comparison(o.scale));
    format!(
        "# Noncontiguous I/O: list I/O vs data sieving vs per-extent lowering\n\n\
         ## Simulated block-cyclic checkpoint (write + read back)\n\n{}\n\
         (sieving pays a 512 KiB read-modify-write per strided extent; the\n          \
         PLFS ROMIO driver's list I/O batches every extent of a view access\n          \
         into one op and one index record; per-extent is LDPLFS, whose shim\n          \
         has no list call — the two PLFS columns isolate the batching win)\n\n",
        render_noncontig(&report)
    )
}

// Only ratios that are stable across runner speeds and exact counts are
// gated — Table II's shim-overhead ratios and the modeled or algorithmic
// ratios of the later figures — not raw wall-clock numbers.

/// Table II: each tool's container time over its flat-file time.
fn gate_table2(data: &Value) -> Vec<Metric> {
    let mut out = Vec::new();
    for row in data.as_array().unwrap_or(&[]) {
        if let (Some(tool), Some(plfs), Some(std_)) = (
            row.get("tool").and_then(|v| v.as_str()),
            row.get("plfs_secs").and_then(|v| v.as_f64()),
            row.get("standard_secs").and_then(|v| v.as_f64()),
        ) {
            out.push(Metric::lower(
                format!("shim_overhead[{tool}]"),
                plfs / std_.max(1e-12),
            ));
        }
    }
    out
}

/// `refresh_growth`, the patch cost at the largest resident index over the
/// smallest, is an algorithmic ratio stable across core counts; the
/// throughputs and latencies depend on the runner and are not gated. It is
/// held to an absolute bar: the sweep spans 256x of resident index, and
/// in-place patching reads 1-2x (run-to-run spread wider than any useful
/// relative threshold) where anything that copies or rebuilds the index per
/// read-after-write reads ~256x.
fn gate_writepath(data: &Value) -> Vec<Metric> {
    data.get("refresh_growth")
        .and_then(|v| v.as_f64())
        .map(|g| Metric::lower("refresh_growth".to_string(), g).ceiling(4.0))
        .into_iter()
        .collect()
}

/// Op-count ratios, the exact counts and the projected storm seconds are
/// algorithm/model quantities, identical on any runner; the microsecond
/// latencies are not gated. The `open+write+close` counts (four ranks
/// through one fd onto an existing container, cold and warm) and the
/// small-file cycle's (create, write, close, stat, open, read, close,
/// unlink of a 1 KiB file with the defaults) are held to absolute ceilings.
fn gate_metadata(data: &Value) -> Vec<Metric> {
    let mut out = Vec::new();
    for row in data
        .get("measured")
        .and_then(|m| m.as_array())
        .unwrap_or(&[])
    {
        let Some(phase) = row.get("phase").and_then(|v| v.as_str()) else {
            continue;
        };
        if let Some(r) = row.get("ops_reduction").and_then(|v| v.as_f64()) {
            out.push(Metric::higher(format!("ops_reduction[{phase}]"), r));
        }
        for (arm, ceiling) in [("eager_ops", 31.0), ("cached_ops", 28.0)] {
            if let Some(n) = row.get(arm).and_then(|v| v.as_f64()) {
                let m = Metric::lower(format!("{arm}[{phase}]"), n);
                out.push(if phase == "open+write+close" {
                    m.ceiling(ceiling)
                } else {
                    m
                });
            }
        }
    }
    let small = data.get("small_file");
    if let Some(n) = small.and_then(|s| s.get("total_ops")?.as_f64()) {
        out.push(Metric::lower("small_file_cycle_ops".to_string(), n).ceiling(11.0));
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
                out.push(Metric::lower(format!("{name}[{p} procs]"), s));
            }
        }
    }
    out
}

/// Both ratios come from simulated clocks, identical on any runner.
/// `listio_vs_sieving` is the headline: list I/O must stay ≥ 2x over data
/// sieving, and the committed baseline holds that bar.
fn gate_noncontig(data: &Value) -> Vec<Metric> {
    ["listio_vs_sieving", "listio_vs_per_extent"]
        .into_iter()
        .filter_map(|name| {
            let v = data.get(name)?.as_f64()?;
            Some(Metric::higher(name.to_string(), v))
        })
        .collect()
}
