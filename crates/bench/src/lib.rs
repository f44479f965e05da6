//! # bench — the figure/table regeneration harness
//!
//! Library behind the `paperbench` binary: one function per table/figure of
//! the paper, each returning structured data that the binary renders as
//! aligned text tables (and optionally JSON for EXPERIMENTS.md).
//!
//! Every experiment can run at `Scale::Paper` (the exact sweep of the
//! paper) or `Scale::Quick` (same shapes, smaller volumes — used by CI and
//! the criterion benches).

#![warn(missing_docs)]

use apps::flash_io::{self, FlashConfig};
use apps::mpi_io_test::{self, MpiIoTestConfig, Phase};
use apps::nas_bt::{self, BtClass, BtConfig};
use apps::unix_tools::sim::{tool_time, FileKind, Tool};
use jsonlite::{ToJson, Value};
use mpiio::{FileView, Job, Method, MpiFile, MpiInfo};
use rayon::prelude::*;
use simfs::{presets, Platform, SimFs};

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's exact volumes and sweeps.
    Paper,
    /// Reduced volumes (same process sweeps) for fast iteration.
    Quick,
}

impl Scale {
    fn divide(self, bytes: u64, by: u64) -> u64 {
        match self {
            Scale::Paper => bytes,
            Scale::Quick => (bytes / by).max(1 << 20),
        }
    }
}

/// One plotted series: method label plus (x, MB/s) points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x, bandwidth MB/s)` points; x is nodes or cores per the figure.
    pub points: Vec<(usize, f64)>,
}

/// A whole panel (one sub-figure).
#[derive(Debug, Clone)]
pub struct Panel {
    /// Panel title, e.g. "Write (1 Proc/Node)".
    pub title: String,
    /// X-axis label.
    pub xlabel: String,
    /// The series, in legend order.
    pub series: Vec<Series>,
}

// ---------------------------------------------------------------------------
// Figure 3: MPI-IO Test on Minerva.
// ---------------------------------------------------------------------------

/// Node counts of Figure 3.
pub const FIG3_NODES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];
/// Processes-per-node variants of Figure 3.
pub const FIG3_PPN: [usize; 3] = [1, 2, 4];

/// Regenerate Figure 3: 6 panels (write/read × 1/2/4 ppn), 4 methods each.
pub fn fig3(scale: Scale) -> Vec<Panel> {
    let platform = presets::minerva();
    let phases = [Phase::Write, Phase::Read];
    let mut jobs = Vec::new();
    for &phase in &phases {
        for &ppn in &FIG3_PPN {
            jobs.push((phase, ppn));
        }
    }
    jobs.par_iter()
        .map(|&(phase, ppn)| {
            let series = Method::ALL
                .iter()
                .map(|&m| {
                    let points = FIG3_NODES
                        .iter()
                        .map(|&nodes| {
                            let mut cfg = MpiIoTestConfig::paper(nodes, ppn);
                            cfg.bytes_per_proc = scale.divide(cfg.bytes_per_proc, 16);
                            let b = mpi_io_test::run(&platform, &cfg, m, phase).expect("fig3 run");
                            (nodes, b.bandwidth_mbs())
                        })
                        .collect();
                    Series {
                        label: m.label().to_string(),
                        points,
                    }
                })
                .collect();
            Panel {
                title: format!(
                    "{} ({} Proc/Node)",
                    match phase {
                        Phase::Write => "Write",
                        Phase::Read => "Read",
                    },
                    ppn
                ),
                xlabel: "Nodes".to_string(),
                series,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table II: serial UNIX tools.
// ---------------------------------------------------------------------------

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Tool label.
    pub tool: String,
    /// Seconds on the PLFS container (through LDPLFS).
    pub plfs_secs: f64,
    /// Seconds on a standard flat file.
    pub standard_secs: f64,
}

/// Regenerate Table II at `size` bytes (the paper uses 4 GB) on the
/// simulated login node. The container carries 16 droppings, a typical
/// parallel-job output.
pub fn table2(size: u64) -> Vec<Table2Row> {
    let platform = presets::login_node();
    Tool::ALL
        .iter()
        .map(|&tool| {
            let plfs = tool_time(
                &platform,
                tool,
                FileKind::PlfsContainer { droppings: 16 },
                size,
            )
            .expect("table2 plfs");
            let std_ = tool_time(&platform, tool, FileKind::Standard, size).expect("table2 std");
            Table2Row {
                tool: tool.label().to_string(),
                plfs_secs: plfs,
                standard_secs: std_,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 4: NAS BT on Sierra.
// ---------------------------------------------------------------------------

/// Methods shown in Figures 4 and 5 (no FUSE on Sierra — the paper could
/// not install the kernel module there, which is LDPLFS's selling point).
pub const SIERRA_METHODS: [Method; 3] = [Method::MpiIo, Method::Romio, Method::Ldplfs];

/// Regenerate one Figure 4 panel (class C or D).
pub fn fig4(class: BtClass, scale: Scale) -> Panel {
    let platform = presets::sierra();
    let series: Vec<Series> = SIERRA_METHODS
        .par_iter()
        .map(|&m| {
            let points = class
                .core_sweep()
                .iter()
                .map(|&cores| {
                    let cfg = BtConfig::paper(class, cores);
                    let _ = scale; // BT volumes are fixed by problem class
                    let b = nas_bt::run(&platform, &cfg, m).expect("fig4 run");
                    (cores, b.bandwidth_mbs())
                })
                .collect();
            Series {
                label: m.label().to_string(),
                points,
            }
        })
        .collect();
    Panel {
        title: format!("BT Problem Class {}", class.label()),
        xlabel: "Cores".to_string(),
        series,
    }
}

// ---------------------------------------------------------------------------
// Figure 5: FLASH-IO on Sierra.
// ---------------------------------------------------------------------------

/// Regenerate Figure 5, optionally overriding the PLFS hostdir count (the
/// paper's future-work knob for taming the MDS storm).
pub fn fig5_with(num_hostdirs: u32, scale: Scale) -> Panel {
    let platform = presets::sierra();
    let series: Vec<Series> = SIERRA_METHODS
        .par_iter()
        .map(|&m| {
            let points = FlashConfig::core_sweep()
                .iter()
                .map(|&cores| {
                    let mut cfg = FlashConfig::paper(cores);
                    cfg.num_hostdirs = num_hostdirs;
                    let _ = scale;
                    let b = flash_io::run(&platform, &cfg, m).expect("fig5 run");
                    (cores, b.bandwidth_mbs())
                })
                .collect();
            Series {
                label: m.label().to_string(),
                points,
            }
        })
        .collect();
    Panel {
        title: "FLASH-IO (weak scaled, 24³ blocks)".to_string(),
        xlabel: "Cores".to_string(),
        series,
    }
}

/// Figure 5 with the paper's default 32 hostdirs.
pub fn fig5(scale: Scale) -> Panel {
    fig5_with(32, scale)
}

// ---------------------------------------------------------------------------
// Beyond the paper: the crossover finder it proposes as future work.
// ---------------------------------------------------------------------------

/// Result of the PLFS-benefit crossover search on a platform.
#[derive(Debug, Clone)]
pub struct Crossover {
    /// Platform name.
    pub platform: String,
    /// Core counts examined.
    pub cores: Vec<usize>,
    /// LDPLFS-over-MPI-IO speedup at each core count.
    pub speedup: Vec<f64>,
    /// First core count where PLFS hurts (speedup < 1), if any.
    pub harmful_at: Option<usize>,
}

/// Sweep FLASH-IO on a platform and report where PLFS stops helping — the
/// performance-model use the paper's §V.A proposes ("highlight systems
/// where PLFS may have a negative effect").
pub fn crossover(platform: &Platform, label: &str) -> Crossover {
    let cores: Vec<usize> = FlashConfig::core_sweep()
        .iter()
        .copied()
        .filter(|&c| c <= platform.cluster.nodes * platform.cluster.cores_per_node)
        .collect();
    let speedup: Vec<f64> = cores
        .par_iter()
        .map(|&c| {
            let cfg = FlashConfig::paper(c);
            let base = flash_io::run(platform, &cfg, Method::MpiIo).expect("crossover base");
            let plfs = flash_io::run(platform, &cfg, Method::Ldplfs).expect("crossover plfs");
            plfs.bandwidth_mbs() / base.bandwidth_mbs()
        })
        .collect();
    let harmful_at = cores
        .iter()
        .zip(&speedup)
        .find(|(_, &s)| s < 1.0)
        .map(|(&c, _)| c);
    Crossover {
        platform: label.to_string(),
        cores,
        speedup,
        harmful_at,
    }
}

// ---------------------------------------------------------------------------
// Beyond the paper: Zest-style staging tier (related work, §II).
// ---------------------------------------------------------------------------

/// One row of the staging comparison.
#[derive(Debug, Clone)]
pub struct StagingRow {
    /// Core count.
    pub cores: usize,
    /// Plain MPI-IO on Lustre (MB/s).
    pub lustre_mpiio: f64,
    /// LDPLFS/PLFS on Lustre (MB/s).
    pub lustre_plfs: f64,
    /// MPI-IO over the Zest-style staging tier (MB/s, as the *application*
    /// observes — durability drains later, like Zest's delayed copy-out).
    pub staging: f64,
}

/// Compare FLASH-IO on plain Lustre, PLFS, and a Zest-style staging tier
/// (the related-work design the paper contrasts PLFS against: log-writes
/// to a no-read-back staging area, drained at non-critical times).
pub fn staging_comparison() -> Vec<StagingRow> {
    let lustre = presets::sierra();
    let zest = presets::zest_staging();
    FlashConfig::core_sweep()
        .iter()
        .take(7) // up to 768 cores keeps this quick
        .map(|&cores| {
            let cfg = FlashConfig::paper(cores);
            let lustre_mpiio = flash_io::run(&lustre, &cfg, Method::MpiIo)
                .expect("staging base")
                .bandwidth_mbs();
            let lustre_plfs = flash_io::run(&lustre, &cfg, Method::Ldplfs)
                .expect("staging plfs")
                .bandwidth_mbs();
            let staging = flash_io::run(&zest, &cfg, Method::MpiIo)
                .expect("staging zest")
                .bandwidth_mbs();
            StagingRow {
                cores,
                lustre_mpiio,
                lustre_plfs,
                staging,
            }
        })
        .collect()
}

/// Render the staging comparison.
pub fn render_staging(rows: &[StagingRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8}{:>14}{:>14}{:>16}
",
        "Cores", "Lustre MPI-IO", "Lustre PLFS", "Zest staging"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8}{:>14.1}{:>14.1}{:>16.1}
",
            r.cores, r.lustre_mpiio, r.lustre_plfs, r.staging
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Beyond the paper: IOR parameter sweep.
// ---------------------------------------------------------------------------

/// One row of the IOR exploration table.
#[derive(Debug, Clone)]
pub struct IorRow {
    /// Layout label.
    pub layout: String,
    /// API label.
    pub api: String,
    /// Transfer size (bytes).
    pub transfer: u64,
    /// Plain POSIX bandwidth (MB/s).
    pub mpiio: f64,
    /// LDPLFS bandwidth (MB/s).
    pub ldplfs: f64,
}

/// Sweep IOR layouts/APIs/transfer-sizes on Sierra, comparing plain MPI-IO
/// with LDPLFS — the generalisation of the paper's fixed workloads.
pub fn ior_sweep(procs: usize) -> Vec<IorRow> {
    use apps::ior::{run_write, ApiMode, FileLayout, IorConfig};
    let platform = presets::sierra();
    let mut rows = Vec::new();
    let layouts = [
        ("shared-segmented", FileLayout::SharedSegmented),
        ("shared-strided", FileLayout::SharedStrided),
        ("file-per-process", FileLayout::FilePerProcess),
    ];
    let apis = [
        ("independent", ApiMode::Independent),
        ("collective", ApiMode::Collective),
    ];
    for &(lname, layout) in &layouts {
        for &(aname, api) in &apis {
            if layout == FileLayout::FilePerProcess && api == ApiMode::Collective {
                continue; // no collective over per-process files
            }
            for transfer in [64 << 10u64, 1 << 20, 8 << 20] {
                let cfg = IorConfig {
                    procs,
                    ppn: 12,
                    transfer,
                    transfers_per_block: 8,
                    layout,
                    api,
                    num_hostdirs: 32,
                };
                let mpiio = run_write(&platform, &cfg, Method::MpiIo)
                    .expect("ior mpiio")
                    .bandwidth_mbs();
                let ldplfs = run_write(&platform, &cfg, Method::Ldplfs)
                    .expect("ior ldplfs")
                    .bandwidth_mbs();
                rows.push(IorRow {
                    layout: lname.to_string(),
                    api: aname.to_string(),
                    transfer,
                    mpiio,
                    ldplfs,
                });
            }
        }
    }
    rows
}

/// Render the IOR sweep.
pub fn render_ior(rows: &[IorRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<18}{:<13}{:>10}{:>12}{:>12}{:>10}
",
        "layout", "api", "transfer", "MPI-IO", "LDPLFS", "speedup"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18}{:<13}{:>10}{:>12.1}{:>12.1}{:>9.2}x
",
            r.layout,
            r.api,
            r.transfer,
            r.mpiio,
            r.ldplfs,
            r.ldplfs / r.mpiio
        ));
    }
    out
}

fn best_of<F: FnMut() -> u64>(times: usize, mut f: F) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut out = 0;
    for _ in 0..times {
        let t0 = std::time::Instant::now();
        out = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, out)
}

// ---------------------------------------------------------------------------
// Beyond the paper: the parallel write path (per-pid writer sharding,
// atomic-EOF appends, the read view patched in place).
// ---------------------------------------------------------------------------

/// One measured row of the write-path figure: `writers` racing pids
/// pushing a strided checkpoint through ONE fd at the default
/// configuration, plus the append and read-after-write latencies. Absolute
/// numbers on this host's memory backing — there is no comparison arm.
#[derive(Debug, Clone)]
pub struct WritePathRow {
    /// Concurrent writer threads (= pids) sharing the fd.
    pub writers: usize,
    /// Blocks written per writer.
    pub writes_per_writer: usize,
    /// Block size (bytes).
    pub block: usize,
    /// Multi-writer throughput (MB/s).
    pub write_mbs: f64,
    /// Mean `O_APPEND` write latency on the atomic-EOF fast path (ns).
    pub append_ns: f64,
    /// Interleaved cycles of one append per writer then one read, which
    /// patches the fd's read view (ms total).
    pub patch_cycles_ms: f64,
}

/// Writer counts swept by the measured write-path comparison.
pub const WRITEPATH_WRITERS: [usize; 3] = [1, 4, 8];

/// One point of the refresh-cost sweep: a write→read cycle on an fd whose
/// read view already holds `segments` segments. Measured, this host.
#[derive(Debug, Clone)]
pub struct RefreshSweepRow {
    /// Segments resident in the fd's merged index (none can coalesce).
    pub segments: usize,
    /// Mean microseconds per overwrite + read-back (patch) cycle.
    pub patch_us_per_cycle: f64,
}

/// The write-path figure: the per-writer-count rows plus the
/// refresh-cost-vs-resident-index sweep.
#[derive(Debug, Clone)]
pub struct WritePathReport {
    /// One row per entry of [`WRITEPATH_WRITERS`].
    pub rows: Vec<WritePathRow>,
    /// Read-after-write patch cost at growing resident index sizes.
    pub refresh_sweep: Vec<RefreshSweepRow>,
}

impl WritePathReport {
    /// Refresh cost at the largest resident index over the smallest: ≈ 1
    /// for an in-place O(log n) patch, ≈ the size ratio for anything that
    /// copies or rebuilds the index per read-after-write.
    pub fn refresh_growth(&self) -> f64 {
        match (self.refresh_sweep.first(), self.refresh_sweep.last()) {
            (Some(a), Some(b)) => b.patch_us_per_cycle / a.patch_us_per_cycle.max(1e-9),
            _ => 1.0,
        }
    }
}

/// An `O_RDWR` fd on an in-memory container whose read view is built and
/// holds `segments` segments: pids 0 and 1 own alternating 16-byte blocks,
/// so no two neighbours coalesce. Shared by the `writepath` refresh sweep
/// and the `read_after_write` criterion group.
pub fn fragmented_fd(segments: u64) -> (plfs::Plfs, std::sync::Arc<plfs::PlfsFd>) {
    use plfs::{MemBacking, OpenFlags, Plfs};
    let plfs = Plfs::new(std::sync::Arc::new(MemBacking::new()));
    let fd = plfs
        .open("/s", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    fd.add_ref(1);
    for i in 0..segments {
        plfs.write(&fd, &[i as u8; 16], i * 16, i % 2).unwrap();
    }
    plfs.read(&fd, &mut [0u8; 16], 0).unwrap();
    (plfs, fd)
}

/// Seconds per write→read cycle (best of three) on a [`fragmented_fd`]:
/// each cycle overwrites one random block and reads it back, which patches
/// the view.
fn refresh_cycle_secs(segments: usize, cycles: usize) -> f64 {
    let (plfs, fd) = fragmented_fd(segments as u64);
    let mut buf = [0u8; 16];
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let (secs, _) = best_of(3, || {
        for i in 0..cycles {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let off = (rng % segments as u64) * 16;
            plfs.write(&fd, &[i as u8; 16], off, 0).unwrap();
            plfs.read(&fd, &mut buf, off).unwrap();
        }
        cycles as u64
    });
    secs / cycles as f64
}

/// Wall time for `writers` threads to push a strided checkpoint (and sync)
/// through one fd.
fn multiwriter_secs(writers: usize, rows: usize, block: usize) -> f64 {
    use plfs::{MemBacking, OpenFlags, Plfs};
    use std::sync::Arc;
    let (secs, _) = best_of(3, || {
        let plfs = Plfs::new(Arc::new(MemBacking::new()));
        let fd = plfs
            .open("/w", OpenFlags::RDWR | OpenFlags::CREAT, 0)
            .unwrap();
        for p in 1..writers as u64 {
            fd.add_ref(p);
        }
        std::thread::scope(|s| {
            for w in 0..writers {
                let plfs = &plfs;
                let fd = fd.clone();
                s.spawn(move || {
                    let pid = w as u64;
                    let data = vec![w as u8; block];
                    for r in 0..rows {
                        let off = ((r * writers + w) * block) as u64;
                        plfs.write(&fd, &data, off, pid).unwrap();
                    }
                    plfs.sync(&fd, pid).unwrap();
                });
            }
        });
        (writers * rows * block) as u64
    });
    secs
}

/// Measure the write path across [`WRITEPATH_WRITERS`]. Runs through the
/// public `plfs::Plfs` API so the `append_fastpath`/`index_patch` trace ops
/// land in the emitted BENCH json.
pub fn writepath_comparison(scale: Scale) -> WritePathReport {
    use plfs::{MemBacking, OpenFlags, Plfs};
    use std::sync::Arc;

    let (rows, block, appends, cycles) = match scale {
        Scale::Paper => (512usize, 4096usize, 4096usize, 64usize),
        Scale::Quick => (96, 512, 512, 16),
    };
    let (sweep, sweep_cycles): ([usize; 3], usize) = match scale {
        Scale::Paper => ([1 << 10, 1 << 14, 1 << 18], 4096),
        Scale::Quick => ([1 << 10, 1 << 12, 1 << 14], 1024),
    };
    let refresh_sweep = sweep
        .iter()
        .map(|&segments| RefreshSweepRow {
            segments,
            patch_us_per_cycle: refresh_cycle_secs(segments, sweep_cycles) * 1e6,
        })
        .collect();
    let rows = WRITEPATH_WRITERS
        .iter()
        .map(|&writers| {
            let write_secs = multiwriter_secs(writers, rows, block);
            let volume = (writers * rows * block) as f64;

            // O_APPEND latency on the atomic-EOF fast path.
            let chunk = vec![7u8; 64];
            let (append_secs, _) = best_of(3, || {
                let plfs = Plfs::new(Arc::new(MemBacking::new()));
                let fd = plfs
                    .open("/a", OpenFlags::RDWR | OpenFlags::CREAT, 0)
                    .unwrap();
                for _ in 0..appends {
                    fd.append(&chunk, 0).unwrap();
                }
                plfs.close(&fd, 0).unwrap();
                appends as u64
            });

            // Interleaved append+read cycles: every read patches the fd's
            // read view with what the writers appended since the last one.
            let (patch_secs, _) = best_of(3, || {
                let plfs = Plfs::new(Arc::new(MemBacking::new()));
                let fd = plfs
                    .open("/r", OpenFlags::RDWR | OpenFlags::CREAT, 0)
                    .unwrap();
                for p in 1..writers as u64 {
                    fd.add_ref(p);
                }
                let mut one = [0u8; 1];
                for c in 0..cycles {
                    for p in 0..writers as u64 {
                        fd.append(&chunk, p).unwrap();
                    }
                    plfs.read(&fd, &mut one, (c * chunk.len()) as u64).unwrap();
                }
                cycles as u64
            });

            WritePathRow {
                writers,
                writes_per_writer: rows,
                block,
                write_mbs: volume / write_secs.max(1e-9) / 1e6,
                append_ns: append_secs * 1e9 / appends as f64,
                patch_cycles_ms: patch_secs * 1e3,
            }
        })
        .collect();
    WritePathReport {
        rows,
        refresh_sweep,
    }
}

/// Render the measured write-path figure.
pub fn render_writepath(report: &WritePathReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8}{:>13}{:>11}{:>15}\n",
        "Writers", "write", "append", "patch cycles"
    ));
    for r in &report.rows {
        out.push_str(&format!(
            "{:>8}{:>8.0} MB/s{:>9.0}ns{:>13.2}ms\n",
            r.writers, r.write_mbs, r.append_ns, r.patch_cycles_ms
        ));
    }
    out.push_str(
        "\nRead-after-write patch vs resident index (measured, us per write+read cycle)\n",
    );
    for s in &report.refresh_sweep {
        out.push_str(&format!(
            "{:>10} segments{:>9.2} us\n",
            s.segments, s.patch_us_per_cycle
        ));
    }
    out.push_str(&format!(
        "growth largest/smallest: {:.2}x\n",
        report.refresh_growth()
    ));
    out
}

// ---------------------------------------------------------------------------
// Metadata fast path: measured ops-per-open + MDS create-storm projection.
// ---------------------------------------------------------------------------

/// One measured phase of the metadata comparison: backing metadata ops and
/// wall latency, eager/uncached path vs the cached fast path (steady
/// state, in-memory backing).
#[derive(Debug, Clone)]
pub struct MetadataRow {
    /// Phase label: `reopen`, `getattr`, or `open+write+close`.
    pub phase: String,
    /// Backing metadata ops with `meta_cache_entries: 0` (the pre-fast-path
    /// behaviour: every lookup probes the backing store).
    pub eager_ops: u64,
    /// Backing metadata ops with the defaults (cache on).
    pub cached_ops: u64,
    /// Mean wall latency, eager path (µs).
    pub eager_us: f64,
    /// Mean wall latency, cached path (µs).
    pub cached_us: f64,
}

impl MetadataRow {
    /// Backing-metadata-op reduction factor (eager over cached; zero cached
    /// ops count as one so the ratio stays finite).
    pub fn ops_reduction(&self) -> f64 {
        self.eager_ops as f64 / self.cached_ops.max(1) as f64
    }
}

/// One projected row: N processes simultaneously running the measured
/// open+write+close profile of the defaults against the Sierra
/// dedicated-MDS model. One profile, absolute seconds: the model's
/// superlinear term is fed by directory-modifying ops only, which the cache
/// arm does not change, so an eager-over-cached ratio would read 1.0.
#[derive(Debug, Clone)]
pub struct MetadataStormRow {
    /// Processes opening at once.
    pub procs: u64,
    /// Metadata ops per open.
    pub ops_per_open: u64,
    /// Projected time for the storm to drain (s).
    pub secs: f64,
}

/// One call of the small-file cycle and the backing metadata ops it cost.
#[derive(Debug, Clone)]
pub struct SmallFileCall {
    /// The call, as the application makes it.
    pub call: &'static str,
    /// Backing metadata ops, measured over `MeterBacking`.
    pub ops: u64,
}

/// The small-file cycle — create, write 1 KiB, close, stat, open, read,
/// close, unlink, the benchmark's `meta_storm` — measured call by call with
/// the defaults, and that measured profile replayed as N processes each
/// cycling a file of its own at once through the Sierra dedicated-MDS
/// model.
#[derive(Debug, Clone)]
pub struct SmallFileCycle {
    /// Measured ops per call, in cycle order.
    pub calls: Vec<SmallFileCall>,
    /// Modeled drain time of the measured profile across
    /// [`METADATA_STORM_PROCS`].
    pub storm: Vec<MetadataStormRow>,
}

impl SmallFileCycle {
    /// Backing metadata ops of one whole cycle.
    pub fn total_ops(&self) -> u64 {
        self.calls.iter().map(|c| c.ops).sum()
    }
}

/// Everything `paperbench metadata` reports.
#[derive(Debug, Clone)]
pub struct MetadataReport {
    /// Measured per-phase op counts and latencies.
    pub measured: Vec<MetadataRow>,
    /// Projected create storms across [`METADATA_STORM_PROCS`].
    pub storm: Vec<MetadataStormRow>,
    /// The small-file cycle, measured and modeled.
    pub small_file: SmallFileCycle,
    /// Metadata-cache hits over the cached measurement run.
    pub cache_hits: u64,
    /// Metadata-cache misses over the cached measurement run.
    pub cache_misses: u64,
}

impl MetadataReport {
    /// Cache hit rate over the cached measurement run.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }
}

/// Process counts for the projected create storm — Figure 5 territory:
/// Sierra absorbs hundreds of clients and collapses past a few thousand.
pub const METADATA_STORM_PROCS: [u64; 4] = [256, 1024, 4096, 8192];

/// Fresh metered mount with the given metadata configuration.
fn metered(conf: plfs::Conf) -> (std::sync::Arc<plfs::MeterBacking>, plfs::Plfs) {
    use std::sync::Arc;
    let meter = Arc::new(plfs::MeterBacking::new(Arc::new(plfs::MemBacking::new())));
    let p = plfs::Plfs::new(meter.clone() as Arc<dyn plfs::Backing>).with_conf(conf);
    (meter, p)
}

/// Map a metered op delta onto the simulator's per-open MDS profile.
fn storm_profile(d: &plfs::MeterSnapshot) -> simfs::OpenProfile {
    simfs::OpenProfile {
        creates: d.create + d.mkdir + d.mkdir_all,
        opens: d.open,
        stats: d.stat + d.exists + d.size + d.sync + d.truncate,
        removes: d.unlink + d.rmdir + d.rename,
        readdirs: d.readdir,
    }
}

/// Writer ranks sharing one process's fd in the checkpoint cycle — the
/// shape the LDPLFS shim presents: one fd per process, every rank/thread of
/// the process writing through it with its own pid.
const META_CYCLE_RANKS: u64 = 4;

/// One process's checkpoint cycle: open the shared container for write,
/// every rank appends its block, every rank closes. `base_pid` must be
/// fresh per cycle — reusing a pid makes the writer's exclusive-create
/// dropping probe walk every dropping that pid ever left (which is the
/// realistic shape: storm processes are distinct).
fn meta_cycle(p: &plfs::Plfs, base_pid: u64) {
    use plfs::OpenFlags;
    let fd = p
        .open("/storm", OpenFlags::RDWR | OpenFlags::CREAT, base_pid)
        .unwrap();
    for r in 1..META_CYCLE_RANKS {
        fd.add_ref(base_pid + r);
    }
    for r in 0..META_CYCLE_RANKS {
        p.write(&fd, &[7u8; 512], 8192 + r * 512, base_pid + r)
            .unwrap();
    }
    for r in 0..META_CYCLE_RANKS {
        p.close(&fd, base_pid + r).unwrap();
    }
}

/// Per-conf measurement: `(ops, µs)` for each phase plus the storm profile
/// and cache counters.
struct MetaSide {
    reopen: (u64, f64),
    getattr: (u64, f64),
    cycle: (u64, f64),
    cycle_profile: simfs::OpenProfile,
    hits: u64,
    misses: u64,
}

fn measure_meta_side(conf: plfs::Conf, iters: usize) -> MetaSide {
    use plfs::OpenFlags;
    let flags = OpenFlags::RDWR | OpenFlags::CREAT;
    let (meter, p) = metered(conf);
    // Warm up: create the container, write, close, and stat it once — the
    // comparison is steady-state cost, not cold-cache cost.
    let fd = p.open("/storm", flags, 0).unwrap();
    p.write(&fd, &[7u8; 4096], 0, 0).unwrap();
    p.close(&fd, 0).unwrap();
    let _ = p.getattr("/storm").unwrap();

    // Backing metadata ops per phase (single steady-state delta).
    let before = meter.snapshot();
    let fd = p.open("/storm", OpenFlags::RDONLY, 1).unwrap();
    p.close(&fd, 1).unwrap();
    let reopen_ops = meter.snapshot().delta(&before).metadata_ops();

    let before = meter.snapshot();
    let _ = p.getattr("/storm").unwrap();
    let getattr_ops = meter.snapshot().delta(&before).metadata_ops();

    let before = meter.snapshot();
    meta_cycle(&p, 2);
    let cycle_delta = meter.snapshot().delta(&before);
    let cycle_ops = cycle_delta.metadata_ops();
    let cycle_profile = storm_profile(&cycle_delta);

    // Wall latencies over `iters` iterations, best of 3 rounds.
    let (secs, _) = best_of(3, || {
        for _ in 0..iters {
            let fd = p.open("/storm", OpenFlags::RDONLY, 3).unwrap();
            p.close(&fd, 3).unwrap();
        }
        iters as u64
    });
    let reopen_us = secs * 1e6 / iters as f64;
    let (secs, _) = best_of(3, || {
        for _ in 0..iters {
            p.getattr("/storm").unwrap();
        }
        iters as u64
    });
    let getattr_us = secs * 1e6 / iters as f64;
    let mut next_pid = 100u64;
    let (secs, _) = best_of(3, || {
        for _ in 0..iters {
            meta_cycle(&p, next_pid);
            next_pid += META_CYCLE_RANKS;
        }
        iters as u64
    });
    let cycle_us = secs * 1e6 / iters as f64;

    let (hits, misses) = p.meta_cache_counters();
    MetaSide {
        reopen: (reopen_ops, reopen_us),
        getattr: (getattr_ops, getattr_us),
        cycle: (cycle_ops, cycle_us),
        cycle_profile,
        hits,
        misses,
    }
}

/// Project `profile` as a storm of [`METADATA_STORM_PROCS`] processes
/// through the Sierra dedicated-MDS model.
fn sierra_storm(profile: &simfs::OpenProfile) -> Vec<MetadataStormRow> {
    let mds = presets::sierra().fs.mds;
    METADATA_STORM_PROCS
        .iter()
        .map(|&n| MetadataStormRow {
            procs: n,
            ops_per_open: profile.total(),
            secs: simfs::create_storm(&mds, n, profile).time_to_open,
        })
        .collect()
}

/// Run one small-file cycle on a fresh default mount, metering each call.
fn small_file_cycle() -> SmallFileCycle {
    use plfs::OpenFlags;
    let (meter, p) = metered(plfs::Conf::default());
    let start = meter.snapshot();
    let mut calls = Vec::new();
    // `f`'s result; its backing metadata ops go on the list under `call`.
    fn metered_call<T>(
        meter: &plfs::MeterBacking,
        calls: &mut Vec<SmallFileCall>,
        call: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let before = meter.snapshot();
        let out = f();
        let ops = meter.snapshot().delta(&before).metadata_ops();
        calls.push(SmallFileCall { call, ops });
        out
    }
    let create = OpenFlags::WRONLY | OpenFlags::CREAT | OpenFlags::TRUNC;
    let mut buf = [0u8; 1024];
    let wfd = metered_call(&meter, &mut calls, "open(O_CREAT)", || {
        p.open("/small", create, 1).unwrap()
    });
    metered_call(&meter, &mut calls, "write 1 KiB", || {
        p.write(&wfd, &[7u8; 1024], 0, 1).unwrap()
    });
    metered_call(&meter, &mut calls, "close", || p.close(&wfd, 1).unwrap());
    let st = metered_call(&meter, &mut calls, "stat", || p.getattr("/small").unwrap());
    let rfd = metered_call(&meter, &mut calls, "open(O_RDONLY)", || {
        p.open("/small", OpenFlags::RDONLY, 1).unwrap()
    });
    let n = metered_call(&meter, &mut calls, "read 1 KiB", || {
        p.read(&rfd, &mut buf, 0).unwrap()
    });
    assert_eq!((st.size, n), (1024, 1024));
    metered_call(&meter, &mut calls, "close", || p.close(&rfd, 1).unwrap());
    metered_call(&meter, &mut calls, "unlink", || p.unlink("/small").unwrap());
    let storm = sierra_storm(&storm_profile(&meter.snapshot().delta(&start)));
    SmallFileCycle { calls, storm }
}

/// Measure the metadata fast path (eager vs cached, in-memory backing),
/// then project the defaults' measured open+write+close profile as an
/// N-process create storm through the Sierra dedicated-MDS model.
pub fn metadata_comparison(scale: Scale) -> MetadataReport {
    let iters = match scale {
        Scale::Paper => 5_000,
        Scale::Quick => 500,
    };
    let eager = measure_meta_side(
        plfs::Conf {
            meta_cache_entries: 0,
            ..Default::default()
        },
        iters,
    );
    let cached = measure_meta_side(plfs::Conf::default(), iters);
    let row = |phase: &str, e: (u64, f64), c: (u64, f64)| MetadataRow {
        phase: phase.to_string(),
        eager_ops: e.0,
        cached_ops: c.0,
        eager_us: e.1,
        cached_us: c.1,
    };
    let measured = vec![
        row("reopen", eager.reopen, cached.reopen),
        row("getattr", eager.getattr, cached.getattr),
        row("open+write+close", eager.cycle, cached.cycle),
    ];
    MetadataReport {
        measured,
        storm: sierra_storm(&cached.cycle_profile),
        small_file: small_file_cycle(),
        cache_hits: cached.hits,
        cache_misses: cached.misses,
    }
}

/// Render the metadata comparison: measured phases, then the storm.
pub fn render_metadata(r: &MetadataReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>18}{:>12}{:>12}{:>11}{:>12}{:>12}\n",
        "Phase", "eager ops", "cached ops", "reduction", "eager", "cached"
    ));
    for m in &r.measured {
        out.push_str(&format!(
            "{:>18}{:>12}{:>12}{:>10.1}x{:>10.2}us{:>10.2}us\n",
            m.phase,
            m.eager_ops,
            m.cached_ops,
            m.ops_reduction(),
            m.eager_us,
            m.cached_us
        ));
    }
    out.push_str(&format!(
        "\ncache hit rate over the cached run: {:.1}% ({} hits, {} misses)\n\n",
        r.cache_hit_rate() * 100.0,
        r.cache_hits,
        r.cache_misses
    ));
    out.push_str(&format!(
        "{:>8}{:>14}{:>16}\n",
        "Procs", "ops per open", "time to open"
    ));
    for s in &r.storm {
        out.push_str(&format!(
            "{:>8}{:>14}{:>15.2}s\n",
            s.procs, s.ops_per_open, s.secs
        ));
    }
    // The small-file cycle: measured counts on the left, the same profile
    // modeled at scale on the right.
    let sf = &r.small_file;
    out.push_str(&format!(
        "\nSmall-file cycle, 1 KiB (measured ops | modeled on Sierra)\n{:>18}{:>6}   |{:>8}{:>15}{:>16}\n",
        "Call", "ops", "Procs", "ops per cycle", "time to drain"
    ));
    let total = SmallFileCall {
        call: "cycle",
        ops: sf.total_ops(),
    };
    let mut storm = sf.storm.iter();
    for c in sf.calls.iter().chain([&total]) {
        out.push_str(&format!("{:>18}{:>6}   |", c.call, c.ops));
        if let Some(s) = storm.next() {
            out.push_str(&format!(
                "{:>8}{:>15}{:>15.2}s",
                s.procs, s.ops_per_open, s.secs
            ));
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Beyond the paper: noncontiguous I/O — list I/O vs data sieving vs the
// per-extent lowering (romio_plfs_listio in spirit).
// ---------------------------------------------------------------------------

/// One row of the noncontiguous-I/O sweep: a block-cyclic strided
/// checkpoint (every rank writes then reads its interleaved view) run
/// three ways — data sieving on plain UFS, PLFS with the list-I/O hint
/// off (per-extent lowering), and PLFS list I/O (one batched op per
/// `write_view`/`read_view` call).
#[derive(Debug, Clone)]
pub struct NoncontigRow {
    /// MPI ranks in the job.
    pub ranks: usize,
    /// Ranks per node.
    pub ppn: usize,
    /// Block-cyclic block size (bytes).
    pub block: u64,
    /// Strided extents each `write_view`/`read_view` call lowers to.
    pub extents_per_call: usize,
    /// Simulated job completion (write + read + close), sieving on UFS.
    pub sieving_secs: f64,
    /// Same, PLFS with `list_io` off: one op per extent.
    pub per_extent_secs: f64,
    /// Same, PLFS list I/O: one batched op per call.
    pub listio_secs: f64,
    /// Bytes the storage system moved under sieving (RMW-amplified).
    pub sieving_bytes: u64,
    /// Bytes moved under list I/O (exactly the logical volume, twice —
    /// once written, once read back).
    pub listio_bytes: u64,
}

impl NoncontigRow {
    /// Sieving time over list-I/O time at this scale.
    pub fn listio_speedup(&self) -> f64 {
        self.sieving_secs / self.listio_secs.max(1e-12)
    }
}

/// The sweep plus its gated summary ratios (taken at the largest job).
#[derive(Debug, Clone)]
pub struct NoncontigReport {
    /// One row per [`NONCONTIG_JOBS`] entry.
    pub rows: Vec<NoncontigRow>,
    /// Sieving time over list-I/O time at the largest job — the paper-style
    /// headline: list I/O must beat sieving by ≥2× on strided checkpoints.
    pub listio_vs_sieving: f64,
    /// Per-extent-lowering time over list-I/O time at the largest job:
    /// what batching alone buys once sieving's RMW is already gone.
    pub listio_vs_per_extent: f64,
}

/// `(ranks, ppn)` pairs swept, smallest to largest.
pub const NONCONTIG_JOBS: [(usize, usize); 3] = [(4, 2), (8, 4), (16, 4)];

/// Run the block-cyclic checkpoint one way and report
/// `(completion secs, bytes moved, data ops)`. Everything is simulated
/// (simfs clocks), so the numbers are deterministic across runners.
fn noncontig_run(
    method: Method,
    list_io: bool,
    ranks: usize,
    ppn: usize,
    block: u64,
    calls: usize,
    len_per_call: u64,
) -> (f64, u64, u64) {
    let mut fs = SimFs::new(presets::toy());
    let mut job = Job::new(ranks, ppn);
    let info = MpiInfo {
        list_io,
        ..Default::default()
    };
    let mut f =
        MpiFile::open(&mut fs, &mut job, "/ckpt", true, method, info, 4).expect("noncontig open");
    for r in 0..ranks {
        f.set_view(r, FileView::interleaved(r, ranks, block));
    }
    for c in 0..calls as u64 {
        for r in 0..ranks {
            f.write_view(&mut fs, &mut job, r, c * len_per_call, len_per_call)
                .expect("noncontig write_view");
        }
    }
    job.barrier();
    for c in 0..calls as u64 {
        for r in 0..ranks {
            f.read_view(&mut fs, &mut job, r, c * len_per_call, len_per_call)
                .expect("noncontig read_view");
        }
    }
    let done = f.close(&mut fs, &mut job).expect("noncontig close");
    let s = fs.stats();
    (
        done,
        s.bytes_written + s.bytes_read,
        s.write_ops + s.read_ops,
    )
}

/// Sweep [`NONCONTIG_JOBS`] over the three lowering strategies. Each call
/// covers 16 block-cyclic extents (64 KiB blocks at paper scale, 16 KiB at
/// quick), well under the 512 KiB sieve buffer, so the sieving arm pays a
/// full buffer-sized read-modify-write per extent while list I/O moves the
/// logical bytes in one batched op per call.
pub fn noncontig_comparison(scale: Scale) -> NoncontigReport {
    let block = match scale {
        Scale::Paper => 64u64 << 10,
        Scale::Quick => 16 << 10,
    };
    let extents_per_call = 16usize;
    let calls = match scale {
        Scale::Paper => 4usize,
        Scale::Quick => 2,
    };
    let len_per_call = block * extents_per_call as u64;

    let rows: Vec<NoncontigRow> = NONCONTIG_JOBS
        .iter()
        .map(|&(ranks, ppn)| {
            let (sieving_secs, sieving_bytes, _) =
                noncontig_run(Method::MpiIo, true, ranks, ppn, block, calls, len_per_call);
            let (per_extent_secs, _, _) = noncontig_run(
                Method::Ldplfs,
                false,
                ranks,
                ppn,
                block,
                calls,
                len_per_call,
            );
            let (listio_secs, listio_bytes, _) =
                noncontig_run(Method::Ldplfs, true, ranks, ppn, block, calls, len_per_call);
            NoncontigRow {
                ranks,
                ppn,
                block,
                extents_per_call,
                sieving_secs,
                per_extent_secs,
                listio_secs,
                sieving_bytes,
                listio_bytes,
            }
        })
        .collect();

    let last = rows.last().unwrap();
    NoncontigReport {
        listio_vs_sieving: last.listio_speedup(),
        listio_vs_per_extent: last.per_extent_secs / last.listio_secs.max(1e-12),
        rows,
    }
}

/// Render the noncontiguous-I/O sweep.
pub fn render_noncontig(r: &NoncontigReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8}{:>6}{:>10}{:>14}{:>14}{:>12}{:>10}\n",
        "Ranks", "PPN", "ext/call", "sieving", "per-extent", "list I/O", "speedup"
    ));
    for row in &r.rows {
        out.push_str(&format!(
            "{:>8}{:>6}{:>10}{:>12.3}s{:>12.3}s{:>10.3}s{:>9.2}x\n",
            row.ranks,
            row.ppn,
            row.extents_per_call,
            row.sieving_secs,
            row.per_extent_secs,
            row.listio_secs,
            row.listio_speedup()
        ));
    }
    out.push_str(&format!(
        "\nlist I/O vs sieving {:.2}x, vs per-extent lowering {:.2}x (largest job)\n",
        r.listio_vs_sieving, r.listio_vs_per_extent
    ));
    out
}

// ---------------------------------------------------------------------------
// staging2: tiered burst-buffer + batched submission vs direct-to-slow.
// ---------------------------------------------------------------------------

/// One rank-count row of the staging2 figure: the same N-rank, multi-phase
/// checkpoint workload run through the real container engine over two
/// backend stacks, with the job time modelled analytically from the
/// measured backing op/byte counts and the simfs tier presets.
#[derive(Debug, Clone)]
pub struct Staging2Row {
    /// Writing ranks in the job.
    pub ranks: usize,
    /// Checkpoint + compute phases.
    pub phases: usize,
    /// Checkpoint bytes written by the application (all ranks, all phases).
    pub ckpt_bytes: u64,
    /// Backing ops the direct arm issued (all of them hit the slow tier).
    pub direct_ops: u64,
    /// Ops the tiered arm sent the fast tier (foreground writes plus the
    /// destage read-back — everything the NVMe absorbs).
    pub fast_ops: u64,
    /// Ops the tiered arm sent the slow tier (background destage puts and
    /// tier-map persists only).
    pub slow_ops: u64,
    /// Sealed droppings destaged fast → slow.
    pub destages: u64,
    /// Bytes moved fast → slow in the background.
    pub destaged_bytes: u64,
    /// Deferred-op batches the submission layer drained.
    pub batch_submits: u64,
    /// Modelled job time writing straight to the slow tier.
    pub direct_secs: f64,
    /// Modelled job time on the tiered + batched stack.
    pub tiered_secs: f64,
    /// Total compute-window time (identical in both arms).
    pub compute_secs: f64,
    /// Modelled background destage time (overlaps the compute windows).
    pub destage_secs: f64,
}

impl Staging2Row {
    /// Direct-to-slow job time over tiered job time at this scale.
    pub fn overlap_speedup(&self) -> f64 {
        self.direct_secs / self.tiered_secs.max(1e-12)
    }
}

/// The staging2 sweep plus its gated headline ratio and the tier model
/// constants the times were derived from.
#[derive(Debug, Clone)]
pub struct Staging2Report {
    /// One row per swept rank count.
    pub rows: Vec<Staging2Row>,
    /// [`Staging2Row::overlap_speedup`] at the largest job — the gated
    /// headline: landing checkpoints on the fast tier and destaging during
    /// compute must beat direct-to-slow by ≥2×.
    pub destage_overlap_speedup: f64,
    /// Fast-tier streaming bandwidth (bytes/s) from [`presets::tier_fast`].
    pub fast_bw: f64,
    /// Slow-tier streaming bandwidth (bytes/s) from [`presets::tier_slow`].
    pub slow_bw: f64,
    /// Fast-tier per-op latency (seconds).
    pub fast_op_lat: f64,
    /// Slow-tier per-op latency (seconds).
    pub slow_op_lat: f64,
}

/// Rank counts swept, smallest to largest.
pub const STAGING2_RANKS: [usize; 3] = [2, 4, 8];

/// Run the N-rank strided checkpoint workload through `plfs`: per phase,
/// every rank opens the shared file, appends `writes` chunks of `chunk`
/// bytes at rank-strided offsets, and closes (sealing its dropping pair).
/// Returns the application bytes written.
fn staging2_workload(
    plfs: &plfs::Plfs,
    ranks: usize,
    phases: usize,
    writes: usize,
    chunk: u64,
) -> u64 {
    use plfs::OpenFlags;
    let phase_bytes = ranks as u64 * writes as u64 * chunk;
    let buf = vec![0xA5u8; chunk as usize];
    for phase in 0..phases as u64 {
        let base = phase * phase_bytes;
        let fds: Vec<_> = (0..ranks as u64)
            .map(|r| {
                plfs.open("/ckpt", OpenFlags::WRONLY | OpenFlags::CREAT, r)
                    .expect("staging2 open")
            })
            .collect();
        for w in 0..writes as u64 {
            for (r, fd) in fds.iter().enumerate() {
                let off = base + (w * ranks as u64 + r as u64) * chunk;
                plfs.write(fd, &buf, off, r as u64).expect("staging2 write");
            }
        }
        for (r, fd) in fds.iter().enumerate() {
            plfs.close(fd, r as u64).expect("staging2 close");
        }
    }
    phases as u64 * phase_bytes
}

/// Sweep [`STAGING2_RANKS`] (the first two at quick scale) over the direct
/// and tiered+batched stacks. Both arms run the identical workload through
/// the real engine over in-memory tiers; the op and byte counts are
/// measured with per-tier meters, then costed against the
/// [`presets::tier_fast`]/[`presets::tier_slow`] bandwidth and per-op
/// latency — so the figure is deterministic across runners.
///
/// Model: each phase's compute window equals one phase checkpoint at slow
/// streaming rate. The direct arm pays bytes and per-op latency on the
/// slow tier in the critical path; the tiered arm pays the fast tier in
/// the foreground while destage — whole sealed droppings, few large ops —
/// proceeds in the background, so only `max(compute, destage)` remains.
pub fn staging2_comparison(scale: Scale) -> Staging2Report {
    use plfs::{Backing, BatchedBacking, Conf, MemBacking, MeterBacking, TieredBacking};
    use std::sync::Arc;

    // Many small strided writes per rank — the N-1 checkpoint pattern the
    // paper targets — so the direct arm pays the slow tier's per-op latency
    // once per application write, while destage moves each sealed dropping
    // in a handful of large background ops.
    let (ranks_swept, phases, writes, chunk) = match scale {
        Scale::Paper => (&STAGING2_RANKS[..], 3usize, 64usize, 32u64 << 10),
        Scale::Quick => (&STAGING2_RANKS[..2], 2, 48, 16 << 10),
    };
    let fast_p = presets::tier_fast();
    let slow_p = presets::tier_slow();
    let fast_bw = fast_p.peak_storage_bw();
    let slow_bw = slow_p.peak_storage_bw();
    let fast_op_lat = fast_p.fs.per_op_latency;
    let slow_op_lat = slow_p.fs.per_op_latency;

    let conf = Conf {
        submit_depth: 32,
        ..Conf::default()
    };

    let rows: Vec<Staging2Row> = ranks_swept
        .iter()
        .map(|&ranks| {
            // Direct arm: every backing op lands on the slow tier.
            let direct_m = Arc::new(MeterBacking::new(Arc::new(MemBacking::new())));
            let direct = plfs::Plfs::new(Arc::clone(&direct_m) as Arc<dyn Backing>);
            let ckpt_bytes = staging2_workload(&direct, ranks, phases, writes, chunk);
            let d = direct_m.snapshot();
            let direct_ops = d.data_ops() + d.metadata_ops();

            // Tiered arm: batched submission over a metered tier pair.
            let (tiered, fast_m, slow_m) = TieredBacking::new_metered(
                Arc::new(MemBacking::new()),
                Arc::new(MemBacking::new()),
                &conf,
            );
            let tiered = Arc::new(tiered);
            let batched = Arc::new(BatchedBacking::new(
                Arc::clone(&tiered) as Arc<dyn Backing>,
                &conf,
            ));
            let plfs_t = plfs::Plfs::new(Arc::clone(&batched) as Arc<dyn Backing>);
            let bytes2 = staging2_workload(&plfs_t, ranks, phases, writes, chunk);
            assert_eq!(bytes2, ckpt_bytes, "arms must run the same workload");
            batched.drain().expect("batched drain");
            tiered.drain();
            let stats = tiered.tier_stats();
            // A silent destage break must fail figure generation, not
            // produce a flattering row: every checkpoint byte (plus index
            // droppings) must have moved to the slow tier, cleanly.
            assert!(
                stats.destaged_bytes >= ckpt_bytes,
                "destage moved {} of {} checkpoint bytes",
                stats.destaged_bytes,
                ckpt_bytes
            );
            assert_eq!(stats.destage_errors, 0, "destage errors");
            let f = fast_m.snapshot();
            let s = slow_m.snapshot();
            let fast_ops = f.data_ops() + f.metadata_ops();
            let slow_ops = s.data_ops() + s.metadata_ops();

            // Cost the measured counts against the tier presets.
            let compute_secs = ckpt_bytes as f64 / slow_bw;
            let direct_secs =
                ckpt_bytes as f64 / slow_bw + direct_ops as f64 * slow_op_lat + compute_secs;
            let fast_bytes = ckpt_bytes + stats.destaged_bytes; // written, then read back out
            let foreground = fast_bytes as f64 / fast_bw + fast_ops as f64 * fast_op_lat;
            let destage_secs =
                stats.destaged_bytes as f64 / slow_bw + slow_ops as f64 * slow_op_lat;
            let tiered_secs = foreground + compute_secs.max(destage_secs);

            Staging2Row {
                ranks,
                phases,
                ckpt_bytes,
                direct_ops,
                fast_ops,
                slow_ops,
                destages: stats.destages,
                destaged_bytes: stats.destaged_bytes,
                batch_submits: batched.batches(),
                direct_secs,
                tiered_secs,
                compute_secs,
                destage_secs,
            }
        })
        .collect();

    let last = rows.last().unwrap();
    Staging2Report {
        destage_overlap_speedup: last.overlap_speedup(),
        rows,
        fast_bw,
        slow_bw,
        fast_op_lat,
        slow_op_lat,
    }
}

/// Render the staging2 sweep.
pub fn render_staging2(r: &Staging2Report) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>6}{:>10}{:>12}{:>12}{:>11}{:>11}{:>11}{:>9}\n",
        "Ranks", "MiB", "direct ops", "slow ops", "direct", "tiered", "destage", "speedup"
    ));
    for row in &r.rows {
        out.push_str(&format!(
            "{:>6}{:>10.1}{:>12}{:>12}{:>10.3}s{:>10.3}s{:>10.3}s{:>8.2}x\n",
            row.ranks,
            row.ckpt_bytes as f64 / (1 << 20) as f64,
            row.direct_ops,
            row.slow_ops,
            row.direct_secs,
            row.tiered_secs,
            row.destage_secs,
            row.overlap_speedup()
        ));
    }
    out.push_str(&format!(
        "\ndestage overlap speedup {:.2}x (largest job; fast {:.1} GB/s / {:.0} us, slow {:.0} MB/s / {:.1} ms)\n",
        r.destage_overlap_speedup,
        r.fast_bw / 1e9,
        r.fast_op_lat * 1e6,
        r.slow_bw / 1e6,
        r.slow_op_lat * 1e3,
    ));
    out
}

// ---------------------------------------------------------------------------
// Rendering helpers.
// ---------------------------------------------------------------------------

/// Render a panel as an aligned text table (methods as columns).
pub fn render_panel(p: &Panel) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {}\n", p.title));
    out.push_str(&format!("{:>8}", p.xlabel));
    for s in &p.series {
        out.push_str(&format!("{:>12}", s.label));
    }
    out.push('\n');
    let xs: Vec<usize> = p.series[0].points.iter().map(|&(x, _)| x).collect();
    for (i, x) in xs.iter().enumerate() {
        out.push_str(&format!("{x:>8}"));
        for s in &p.series {
            out.push_str(&format!("{:>12.1}", s.points[i].1));
        }
        out.push('\n');
    }
    out
}

/// Render Table II in the paper's layout.
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12}{:>16}{:>20}\n",
        "", "PLFS Container", "Standard UNIX File"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12}{:>16.3}{:>20.3}\n",
            r.tool, r.plfs_secs, r.standard_secs
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// JSON output (paperbench --json / --emit-json).
// ---------------------------------------------------------------------------

impl ToJson for Series {
    fn to_json_value(&self) -> Value {
        let points: Vec<Value> = self
            .points
            .iter()
            .map(|&(x, y)| Value::Array(vec![Value::from(x as u64), Value::from(y)]))
            .collect();
        Value::object()
            .with("label", self.label.as_str())
            .with("points", Value::Array(points))
    }
}

impl ToJson for Panel {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("title", self.title.as_str())
            .with("xlabel", self.xlabel.as_str())
            .with("series", self.series.to_json_value())
    }
}

impl ToJson for Table2Row {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("tool", self.tool.as_str())
            .with("plfs_secs", self.plfs_secs)
            .with("standard_secs", self.standard_secs)
    }
}

impl ToJson for Crossover {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("platform", self.platform.as_str())
            .with(
                "cores",
                Value::Array(self.cores.iter().map(|&c| Value::from(c as u64)).collect()),
            )
            .with(
                "speedup",
                Value::Array(self.speedup.iter().map(|&s| Value::from(s)).collect()),
            )
            .with("harmful_at", self.harmful_at.map(|c| c as u64))
    }
}

impl ToJson for StagingRow {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("cores", self.cores as u64)
            .with("lustre_mpiio", self.lustre_mpiio)
            .with("lustre_plfs", self.lustre_plfs)
            .with("staging", self.staging)
    }
}

impl ToJson for WritePathRow {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("writers", self.writers as u64)
            .with("writes_per_writer", self.writes_per_writer as u64)
            .with("block", self.block as u64)
            .with("write_mbs", self.write_mbs)
            .with("append_ns", self.append_ns)
            .with("patch_cycles_ms", self.patch_cycles_ms)
    }
}

impl ToJson for RefreshSweepRow {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("segments", self.segments as u64)
            .with("patch_us_per_cycle", self.patch_us_per_cycle)
            .with("kind", "measured")
    }
}

impl ToJson for WritePathReport {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("rows", self.rows.to_json_value())
            .with("refresh_sweep", self.refresh_sweep.to_json_value())
            .with("refresh_growth", self.refresh_growth())
    }
}

impl ToJson for MetadataRow {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("phase", self.phase.as_str())
            .with("eager_ops", self.eager_ops)
            .with("cached_ops", self.cached_ops)
            .with("ops_reduction", self.ops_reduction())
            .with("eager_us", self.eager_us)
            .with("cached_us", self.cached_us)
            .with("kind", "measured")
    }
}

impl ToJson for MetadataStormRow {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("procs", self.procs)
            .with("ops_per_open", self.ops_per_open)
            .with("secs", self.secs)
            .with("kind", "modeled")
    }
}

impl ToJson for SmallFileCall {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("call", self.call)
            .with("ops", self.ops)
            .with("kind", "measured")
    }
}

impl ToJson for SmallFileCycle {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("calls", self.calls.to_json_value())
            .with("total_ops", self.total_ops())
            .with("storm", self.storm.to_json_value())
    }
}

impl ToJson for MetadataReport {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("measured", self.measured.to_json_value())
            .with("storm", self.storm.to_json_value())
            .with("small_file", self.small_file.to_json_value())
            .with("cache_hits", self.cache_hits)
            .with("cache_misses", self.cache_misses)
            .with("cache_hit_rate", self.cache_hit_rate())
    }
}

impl ToJson for NoncontigRow {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("ranks", self.ranks as u64)
            .with("ppn", self.ppn as u64)
            .with("block", self.block)
            .with("extents_per_call", self.extents_per_call as u64)
            .with("sieving_secs", self.sieving_secs)
            .with("per_extent_secs", self.per_extent_secs)
            .with("listio_secs", self.listio_secs)
            .with("sieving_bytes", self.sieving_bytes)
            .with("listio_bytes", self.listio_bytes)
            .with("listio_speedup", self.listio_speedup())
    }
}

impl ToJson for NoncontigReport {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("rows", self.rows.to_json_value())
            .with("listio_vs_sieving", self.listio_vs_sieving)
            .with("listio_vs_per_extent", self.listio_vs_per_extent)
    }
}

impl ToJson for Staging2Row {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("ranks", self.ranks as u64)
            .with("phases", self.phases as u64)
            .with("ckpt_bytes", self.ckpt_bytes)
            .with("direct_ops", self.direct_ops)
            .with("fast_ops", self.fast_ops)
            .with("slow_ops", self.slow_ops)
            .with("destages", self.destages)
            .with("destaged_bytes", self.destaged_bytes)
            .with("batch_submits", self.batch_submits)
            .with("direct_secs", self.direct_secs)
            .with("tiered_secs", self.tiered_secs)
            .with("compute_secs", self.compute_secs)
            .with("destage_secs", self.destage_secs)
            .with("overlap_speedup", self.overlap_speedup())
    }
}

impl ToJson for Staging2Report {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("rows", self.rows.to_json_value())
            .with("destage_overlap_speedup", self.destage_overlap_speedup)
            .with("fast_bw", self.fast_bw)
            .with("slow_bw", self.slow_bw)
            .with("fast_op_lat", self.fast_op_lat)
            .with("slow_op_lat", self.slow_op_lat)
    }
}

impl ToJson for IorRow {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("layout", self.layout.as_str())
            .with("api", self.api.as_str())
            .with("transfer", self.transfer)
            .with("mpiio", self.mpiio)
            .with("ldplfs", self.ldplfs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_fig3_has_all_panels_and_methods() {
        let panels = fig3(Scale::Quick);
        assert_eq!(panels.len(), 6);
        for p in &panels {
            assert_eq!(p.series.len(), 4);
            for s in &p.series {
                assert_eq!(s.points.len(), FIG3_NODES.len());
                for &(_, bw) in &s.points {
                    assert!(bw.is_finite() && bw > 0.0);
                }
            }
        }
    }

    #[test]
    fn quick_fig3_headline_claims() {
        let panels = fig3(Scale::Quick);
        // On the 4-ppn write panel at 16+ nodes: LDPLFS ≈ ROMIO, both beat
        // FUSE, and PLFS beats plain MPI-IO (the paper's ~2×).
        let write4 = panels
            .iter()
            .find(|p| p.title == "Write (4 Proc/Node)")
            .unwrap();
        let get = |label: &str| {
            write4
                .series
                .iter()
                .find(|s| s.label == label)
                .unwrap()
                .points
                .iter()
                .find(|&&(x, _)| x == 16)
                .unwrap()
                .1
        };
        let (mpiio, fuse, romio, ldplfs) =
            (get("MPI-IO"), get("FUSE"), get("ROMIO"), get("LDPLFS"));
        assert!(
            ldplfs > mpiio,
            "PLFS should beat MPI-IO: {ldplfs} vs {mpiio}"
        );
        assert!(ldplfs > fuse, "LDPLFS should beat FUSE: {ldplfs} vs {fuse}");
        let ratio = ldplfs / romio;
        assert!((0.85..1.15).contains(&ratio), "LDPLFS≈ROMIO, got {ratio}");
    }

    #[test]
    fn table2_rows_and_relationships() {
        let rows = table2(1 << 30); // 1 GB keeps the test quick
        assert_eq!(rows.len(), 5);
        let by = |name: &str| rows.iter().find(|r| r.tool == name).unwrap();
        // CPU-bound tools: layout-independent.
        let grep = by("grep");
        assert!((grep.plfs_secs / grep.standard_secs - 1.0).abs() < 0.05);
        // grep much slower than cat (31 MB/s vs ~160 MB/s).
        assert!(grep.standard_secs > by("cat").standard_secs * 2.0);
        // cp write-bound: slower than cat.
        assert!(by("cp (read)").standard_secs > by("cat").standard_secs);
        // PLFS never catastrophically slower serially.
        for r in &rows {
            assert!(r.plfs_secs < r.standard_secs * 1.2, "{:?}", r);
        }
    }

    #[test]
    fn quick_writepath_measures() {
        let report = writepath_comparison(Scale::Quick);
        let rows = &report.rows;
        assert_eq!(rows.len(), WRITEPATH_WRITERS.len());
        for r in rows {
            assert!(r.write_mbs > 0.0 && r.patch_cycles_ms > 0.0);
            assert!(r.append_ns > 0.0 && r.append_ns.is_finite());
        }
        // The patch is in place: 16x the resident index must not cost
        // anywhere near 16x per read-after-write (the gate's bar is 4x).
        assert_eq!(report.refresh_sweep.len(), 3);
        assert!(
            report.refresh_growth() < 4.0,
            "refresh cost grew with the resident index: {:?}",
            report.refresh_sweep
        );
        let txt = render_writepath(&report);
        assert!(txt.contains("Writers") && txt.contains("append") && txt.contains("segments"));
    }

    #[test]
    fn quick_metadata_measures_and_projects() {
        let r = metadata_comparison(Scale::Quick);
        assert_eq!(r.measured.len(), 3);
        let reopen = &r.measured[0];
        assert_eq!(reopen.phase, "reopen");
        // The tentpole claim: warm reopen costs zero backing metadata ops,
        // and the eager path pays at least a 3x multiple.
        assert_eq!(reopen.cached_ops, 0, "warm reopen should be free: {r:?}");
        assert!(reopen.ops_reduction() >= 3.0, "reduction too small: {r:?}");
        for m in &r.measured {
            assert!(
                m.cached_ops <= m.eager_ops,
                "cache must never add ops: {m:?}"
            );
            assert!(m.eager_us > 0.0 && m.cached_us > 0.0);
        }
        assert_eq!(r.storm.len(), METADATA_STORM_PROCS.len());
        // The Fig. 5 shape: past the flat regime the drain time grows
        // faster than the process count.
        for w in r.storm.windows(2) {
            let (procs, secs) = (w[1].procs / w[0].procs, w[1].secs / w[0].secs);
            assert!(secs > procs as f64, "storm must be superlinear: {w:?}");
        }
        assert!(r.cache_hits > 0 && r.cache_hit_rate() > 0.5);
        // The small-file cycle: eight calls, 17 ops, and its storm cheaper
        // per process than the four-rank checkpoint cycle's.
        let per_call: Vec<u64> = r.small_file.calls.iter().map(|c| c.ops).collect();
        assert_eq!(per_call, [2, 2, 3, 1, 0, 4, 0, 5], "{:?}", r.small_file);
        assert_eq!(r.small_file.total_ops(), 17);
        for (small, ckpt) in r.small_file.storm.iter().zip(&r.storm) {
            assert_eq!((small.procs, small.ops_per_open), (ckpt.procs, 17));
            assert!(small.secs < ckpt.secs, "{small:?} vs {ckpt:?}");
        }
        let txt = render_metadata(&r);
        assert!(txt.contains("reopen") && txt.contains("Procs") && txt.contains("time to open"));
        assert!(txt.contains("Small-file cycle") && txt.contains("time to drain"));
    }

    #[test]
    fn quick_noncontig_listio_beats_sieving() {
        let r = noncontig_comparison(Scale::Quick);
        assert_eq!(r.rows.len(), NONCONTIG_JOBS.len());
        for row in &r.rows {
            assert!(row.sieving_secs > 0.0 && row.per_extent_secs > 0.0 && row.listio_secs > 0.0);
            // List I/O never loses to either fallback at any scale, and
            // sieving always moves more bytes (buffer-sized RMW per extent).
            assert!(
                row.listio_secs <= row.per_extent_secs,
                "batching must not slow the PLFS path: {row:?}"
            );
            assert!(
                row.listio_secs < row.sieving_secs,
                "list I/O must beat sieving: {row:?}"
            );
            assert!(
                row.sieving_bytes > row.listio_bytes,
                "sieving must show RMW amplification: {row:?}"
            );
        }
        // The acceptance bar (same ratio the committed baseline gates):
        // ≥2x over sieving on the largest job, deterministic because both
        // times come from the simulated clocks.
        assert!(
            r.listio_vs_sieving >= 2.0,
            "list I/O should be >=2x sieving: {r:?}"
        );
        assert!(r.listio_vs_per_extent >= 1.0, "{r:?}");
        let txt = render_noncontig(&r);
        assert!(txt.contains("Ranks") && txt.contains("sieving") && txt.contains("speedup"));
    }

    #[test]
    fn quick_staging2_overlap_beats_direct() {
        let r = staging2_comparison(Scale::Quick);
        assert_eq!(r.rows.len(), 2, "quick sweeps the first two rank counts");
        for row in &r.rows {
            // The workload really ran: droppings sealed and destaged, the
            // submission layer drained batches, and the direct arm issued
            // strictly more slow-tier ops than the background destage.
            assert!(
                row.destages > 0 && row.destaged_bytes >= row.ckpt_bytes,
                "{row:?}"
            );
            assert!(row.batch_submits > 0, "{row:?}");
            assert!(row.direct_ops > row.slow_ops, "{row:?}");
            assert!(row.tiered_secs < row.direct_secs, "{row:?}");
        }
        // The acceptance bar (same ratio the committed baseline gates):
        // deterministic because the times are modelled from measured op
        // counts and fixed preset rates, not wall clocks.
        assert!(
            r.destage_overlap_speedup >= 2.0,
            "tiered+batched should be >=2x direct-to-slow: {r:?}"
        );
        let txt = render_staging2(&r);
        assert!(txt.contains("Ranks") && txt.contains("destage") && txt.contains("speedup"));
    }

    #[test]
    fn render_helpers_produce_tables() {
        let rows = table2(64 << 20);
        let txt = render_table2(&rows);
        assert!(txt.contains("md5sum"));
        assert!(txt.contains("PLFS Container"));
        let p = Panel {
            title: "T".into(),
            xlabel: "Nodes".into(),
            series: vec![Series {
                label: "A".into(),
                points: vec![(1, 10.0), (2, 20.0)],
            }],
        };
        let txt = render_panel(&p);
        assert!(txt.contains("Nodes"));
        assert!(txt.contains("10.0"));
    }
}
