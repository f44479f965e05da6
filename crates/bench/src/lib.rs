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

// ---------------------------------------------------------------------------
// Beyond the paper: the parallel read path (concurrent index merge +
// sharded handle cache + pread fan-out).
// ---------------------------------------------------------------------------

/// One measured row of the read-path comparison: a strided container with
/// `droppings` writer streams, opened and read serially vs in parallel.
#[derive(Debug, Clone)]
pub struct ReadPathRow {
    /// Index/data dropping pairs in the container (= writer processes).
    pub droppings: usize,
    /// Total index entries merged at open.
    pub entries: usize,
    /// First-byte latency, serial open (ms): sequential dropping reads,
    /// insert-based merge.
    pub serial_open_ms: f64,
    /// First-byte latency, parallel open (ms): concurrent dropping reads,
    /// k-way run merge + bulk build.
    pub parallel_open_ms: f64,
    /// 4 MiB pread bandwidth through the serial slice loop (MB/s).
    pub serial_read_mbs: f64,
    /// Same pread through the threshold-gated fan-out (MB/s).
    pub fanout_read_mbs: f64,
}

impl ReadPathRow {
    /// Serial-over-parallel open speedup.
    pub fn open_speedup(&self) -> f64 {
        self.serial_open_ms / self.parallel_open_ms.max(1e-9)
    }
}

/// One projected row: the simfs model's estimate of the same comparison at
/// paper scale, where dropping fetches cost real metadata round-trips.
#[derive(Debug, Clone)]
pub struct ReadPathProjection {
    /// Platform label.
    pub platform: String,
    /// Dropping count.
    pub droppings: usize,
    /// Modelled serial open (s).
    pub serial_open_secs: f64,
    /// Modelled parallel open (s).
    pub parallel_open_secs: f64,
}

/// Dropping counts swept by the measured comparison.
pub const READPATH_DROPPINGS: [usize; 3] = [16, 64, 256];

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

/// Measure serial vs parallel open/read on in-memory containers across
/// [`READPATH_DROPPINGS`]. Runs through the public `plfs::Plfs` API so the
/// `index_merge`/`index_merge_par`/`read_fanout` trace ops land in the
/// emitted BENCH json.
pub fn readpath_comparison(scale: Scale) -> Vec<ReadPathRow> {
    use plfs::{Conf, MemBacking, OpenFlags, Plfs};
    use std::sync::Arc;

    let rows_per_writer = match scale {
        Scale::Paper => 256usize,
        Scale::Quick => 64,
    };
    let block = 512usize;
    READPATH_DROPPINGS
        .iter()
        .map(|&droppings| {
            let backing = Arc::new(MemBacking::new());
            let writer = Plfs::new(backing.clone());
            let fd = writer
                .open("/c", OpenFlags::RDWR | OpenFlags::CREAT, 0)
                .unwrap();
            for p in 0..droppings as u64 {
                fd.add_ref(p);
                let data = vec![p as u8; block];
                for r in 0..rows_per_writer as u64 {
                    writer
                        .write(&fd, &data, (r * droppings as u64 + p) * block as u64, p)
                        .unwrap();
                }
            }
            for p in 0..droppings as u64 {
                let _ = writer.close(&fd, p);
            }
            writer.close(&fd, 0).unwrap();

            let par_conf = Conf {
                threads: 4,
                parallel_merge_min_droppings: 1,
                ..Conf::default()
            };
            let serial = Plfs::new(backing.clone());
            let parallel = Plfs::new(backing.clone()).with_conf(par_conf);

            // First-byte latency: open + 1-byte read forces the index build.
            let mut one = [0u8; 1];
            let (serial_open, _) = best_of(3, || {
                let fd = serial.open("/c", OpenFlags::RDONLY, 0).unwrap();
                serial.read(&fd, &mut one, 0).unwrap() as u64
            });
            let (parallel_open, _) = best_of(3, || {
                let fd = parallel.open("/c", OpenFlags::RDONLY, 0).unwrap();
                parallel.read(&fd, &mut one, 0).unwrap() as u64
            });

            // Steady-state large reads on warm fds.
            let read = (1 << 22).min(droppings * rows_per_writer * block);
            let mut buf = vec![0u8; read];
            let sfd = serial.open("/c", OpenFlags::RDONLY, 0).unwrap();
            let (serial_read, n) = best_of(3, || serial.read(&sfd, &mut buf, 0).unwrap() as u64);
            assert_eq!(n as usize, read);
            let pfd = parallel.open("/c", OpenFlags::RDONLY, 0).unwrap();
            let (fanout_read, n) = best_of(3, || parallel.read(&pfd, &mut buf, 0).unwrap() as u64);
            assert_eq!(n as usize, read);

            ReadPathRow {
                droppings,
                entries: droppings * rows_per_writer,
                serial_open_ms: serial_open * 1e3,
                parallel_open_ms: parallel_open * 1e3,
                serial_read_mbs: read as f64 / serial_read.max(1e-9) / 1e6,
                fanout_read_mbs: read as f64 / fanout_read.max(1e-9) / 1e6,
            }
        })
        .collect()
}

/// Project the open-time comparison to paper scale with the simfs model,
/// where each dropping fetch pays a platform metadata round-trip.
pub fn readpath_projection(threads: usize) -> Vec<ReadPathProjection> {
    let mut out = Vec::new();
    for (platform, label) in [
        (presets::sierra(), "Sierra (Lustre)"),
        (presets::minerva(), "Minerva (GPFS)"),
    ] {
        for &droppings in &READPATH_DROPPINGS {
            let e = simfs::readpath::open_time(&platform, droppings, 256, threads);
            out.push(ReadPathProjection {
                platform: label.to_string(),
                droppings,
                serial_open_secs: e.serial_secs,
                parallel_open_secs: e.parallel_secs,
            });
        }
    }
    out
}

/// Render the measured read-path comparison.
pub fn render_readpath(rows: &[ReadPathRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>10}{:>9}{:>14}{:>14}{:>9}{:>13}{:>13}\n",
        "Droppings", "Entries", "serial open", "par open", "speedup", "serial read", "fanout read"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>10}{:>9}{:>12.2}ms{:>12.2}ms{:>8.2}x{:>9.0} MB/s{:>9.0} MB/s\n",
            r.droppings,
            r.entries,
            r.serial_open_ms,
            r.parallel_open_ms,
            r.open_speedup(),
            r.serial_read_mbs,
            r.fanout_read_mbs
        ));
    }
    out
}

/// Render the simulated at-scale projection.
pub fn render_readpath_projection(rows: &[ReadPathProjection]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<22}{:>10}{:>14}{:>14}{:>9}\n",
        "Platform", "Droppings", "serial open", "par open", "speedup"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<22}{:>10}{:>13.3}s{:>13.3}s{:>8.2}x\n",
            r.platform,
            r.droppings,
            r.serial_open_secs,
            r.parallel_open_secs,
            r.serial_open_secs / r.parallel_open_secs.max(1e-12)
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Beyond the paper: the parallel write path (per-pid writer sharding,
// atomic-EOF appends, write-behind buffering, incremental reader refresh).
// ---------------------------------------------------------------------------

/// One measured row of the write-path comparison: `writers` racing pids
/// pushing a strided checkpoint through ONE fd, serial path vs sharded +
/// write-behind-buffered path, plus the append/refresh latencies the PR 3
/// fast paths target.
#[derive(Debug, Clone)]
pub struct WritePathRow {
    /// Concurrent writer threads (= pids) sharing the fd.
    pub writers: usize,
    /// Blocks written per writer.
    pub writes_per_writer: usize,
    /// Block size (bytes).
    pub block: usize,
    /// Multi-writer throughput, serial path: one writer-table lock, no
    /// data buffering (MB/s).
    pub serial_write_mbs: f64,
    /// Same workload through id-hashed writer shards with write-behind
    /// data buffering (MB/s).
    pub sharded_write_mbs: f64,
    /// Mean `O_APPEND` write latency on the atomic-EOF fast path (ns).
    pub append_ns: f64,
    /// Interleaved append+read cycles with a full index re-merge on every
    /// post-write read (ms total).
    pub full_refresh_ms: f64,
    /// Same cycles patching the cached merged index incrementally (ms).
    pub incremental_refresh_ms: f64,
}

impl WritePathRow {
    /// Sharded-over-serial multi-writer throughput ratio.
    pub fn write_speedup(&self) -> f64 {
        self.sharded_write_mbs / self.serial_write_mbs.max(1e-9)
    }

    /// Full-re-merge-over-incremental refresh time ratio.
    pub fn refresh_speedup(&self) -> f64 {
        self.full_refresh_ms / self.incremental_refresh_ms.max(1e-9)
    }
}

/// Writer counts swept by the measured write-path comparison.
pub const WRITEPATH_WRITERS: [usize; 3] = [1, 4, 8];

/// One point of the refresh-cost sweep: a write→read cycle on an fd whose
/// read view already holds `segments` segments. Measured, this host.
#[derive(Debug, Clone)]
pub struct RefreshSweepRow {
    /// Segments resident in the fd's merged index (none can coalesce).
    pub segments: usize,
    /// Mean microseconds per overwrite + read-back cycle.
    pub incremental_refresh_us_per_cycle: f64,
}

/// The write-path figure: the per-writer-count rows plus the
/// refresh-cost-vs-resident-index sweep.
#[derive(Debug, Clone)]
pub struct WritePathReport {
    /// One row per entry of [`WRITEPATH_WRITERS`].
    pub rows: Vec<WritePathRow>,
    /// Incremental refresh cost at growing resident index sizes.
    pub refresh_sweep: Vec<RefreshSweepRow>,
}

impl WritePathReport {
    /// Refresh cost at the largest resident index over the smallest: ≈ 1
    /// for an in-place O(log n) patch, ≈ the size ratio for anything that
    /// copies or rebuilds the index per read-after-write.
    pub fn refresh_growth(&self) -> f64 {
        match (self.refresh_sweep.first(), self.refresh_sweep.last()) {
            (Some(a), Some(b)) => {
                b.incremental_refresh_us_per_cycle / a.incremental_refresh_us_per_cycle.max(1e-9)
            }
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
/// through one fd under `conf`.
fn multiwriter_secs(conf: plfs::Conf, writers: usize, rows: usize, block: usize) -> f64 {
    use plfs::{MemBacking, OpenFlags, Plfs};
    use std::sync::Arc;
    let (secs, _) = best_of(3, || {
        let plfs = Plfs::new(Arc::new(MemBacking::new())).with_conf(conf);
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
/// public `plfs::Plfs` API so the `append_fastpath`/`data_buffer_flush`/
/// `index_patch` trace ops land in the emitted BENCH json.
pub fn writepath_comparison(scale: Scale) -> WritePathReport {
    use plfs::{Conf, MemBacking, OpenFlags, Plfs};
    use std::sync::Arc;

    let (rows, block, appends, cycles) = match scale {
        Scale::Paper => (512usize, 4096usize, 4096usize, 64usize),
        Scale::Quick => (96, 512, 512, 16),
    };
    let (sweep, sweep_cycles): ([usize; 3], usize) = match scale {
        Scale::Paper => ([1 << 10, 1 << 14, 1 << 18], 4096),
        Scale::Quick => ([1 << 10, 1 << 12, 1 << 14], 1024),
    };
    let sharded = Conf {
        data_buffer_bytes: 64 << 10,
        ..Conf::default()
    };
    let refresh_sweep = sweep
        .iter()
        .map(|&segments| RefreshSweepRow {
            segments,
            incremental_refresh_us_per_cycle: refresh_cycle_secs(segments, sweep_cycles) * 1e6,
        })
        .collect();
    let rows = WRITEPATH_WRITERS
        .iter()
        .map(|&writers| {
            let serial_secs = multiwriter_secs(
                Conf {
                    lock_shards: 1,
                    incremental_refresh: false,
                    ..Conf::default()
                },
                writers,
                rows,
                block,
            );
            let sharded_secs = multiwriter_secs(sharded, writers, rows, block);
            let volume = (writers * rows * block) as f64;

            // O_APPEND latency on the atomic-EOF fast path.
            let chunk = vec![7u8; 64];
            let (append_secs, _) = best_of(3, || {
                let plfs = Plfs::new(Arc::new(MemBacking::new())).with_conf(sharded);
                let fd = plfs
                    .open("/a", OpenFlags::RDWR | OpenFlags::CREAT, 0)
                    .unwrap();
                for _ in 0..appends {
                    fd.append(&chunk, 0).unwrap();
                }
                plfs.close(&fd, 0).unwrap();
                appends as u64
            });

            // Interleaved append+read cycles: every read refreshes the
            // cached reader — by a full re-merge or an incremental patch.
            let refresh_secs = |incremental: bool| {
                let conf = Conf {
                    incremental_refresh: incremental,
                    ..Conf::default()
                };
                let (secs, _) = best_of(3, || {
                    let plfs = Plfs::new(Arc::new(MemBacking::new())).with_conf(conf);
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
                secs
            };
            let full = refresh_secs(false);
            let incr = refresh_secs(true);

            WritePathRow {
                writers,
                writes_per_writer: rows,
                block,
                serial_write_mbs: volume / serial_secs.max(1e-9) / 1e6,
                sharded_write_mbs: volume / sharded_secs.max(1e-9) / 1e6,
                append_ns: append_secs * 1e9 / appends as f64,
                full_refresh_ms: full * 1e3,
                incremental_refresh_ms: incr * 1e3,
            }
        })
        .collect();
    WritePathReport {
        rows,
        refresh_sweep,
    }
}

/// Render the measured write-path comparison.
pub fn render_writepath(report: &WritePathReport) -> String {
    let rows = &report.rows;
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8}{:>13}{:>13}{:>9}{:>11}{:>13}{:>13}{:>9}\n",
        "Writers", "serial", "sharded", "speedup", "append", "full refr", "incr refr", "speedup"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:>8}{:>8.0} MB/s{:>8.0} MB/s{:>8.2}x{:>9.0}ns{:>11.2}ms{:>11.2}ms{:>8.2}x\n",
            r.writers,
            r.serial_write_mbs,
            r.sharded_write_mbs,
            r.write_speedup(),
            r.append_ns,
            r.full_refresh_ms,
            r.incremental_refresh_ms,
            r.refresh_speedup()
        ));
    }
    out.push_str("\nIncremental refresh vs resident index (measured, us per write+read cycle)\n");
    for s in &report.refresh_sweep {
        out.push_str(&format!(
            "{:>10} segments{:>9.2} us\n",
            s.segments, s.incremental_refresh_us_per_cycle
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
    /// behaviour: cache off, eager markers).
    pub eager_ops: u64,
    /// Backing metadata ops with the cache on and lazy markers.
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
/// open+write+close profile against the Sierra dedicated-MDS model.
#[derive(Debug, Clone)]
pub struct MetadataStormRow {
    /// Processes opening at once.
    pub procs: u64,
    /// Metadata ops per open, eager profile.
    pub eager_ops_per_open: u64,
    /// Metadata ops per open, cached profile.
    pub cached_ops_per_open: u64,
    /// Projected time for the storm to drain, eager profile (s).
    pub eager_secs: f64,
    /// Projected time for the storm to drain, cached profile (s).
    pub cached_secs: f64,
}

impl MetadataStormRow {
    /// Eager-over-cached time-to-open ratio.
    pub fn speedup(&self) -> f64 {
        self.eager_secs / self.cached_secs.max(1e-12)
    }
}

/// Everything `paperbench metadata` reports.
#[derive(Debug, Clone)]
pub struct MetadataReport {
    /// Measured per-phase op counts and latencies.
    pub measured: Vec<MetadataRow>,
    /// Projected create storms across [`METADATA_STORM_PROCS`].
    pub storm: Vec<MetadataStormRow>,
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

/// Measure the metadata fast path (eager vs cached, in-memory backing),
/// then project the measured open+write+close profiles as an N-process
/// create storm through the Sierra dedicated-MDS model.
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
    let cached = measure_meta_side(
        plfs::Conf {
            open_markers: plfs::OpenMarkers::Lazy,
            ..Default::default()
        },
        iters,
    );
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
    let mds = presets::sierra().fs.mds;
    let storm = METADATA_STORM_PROCS
        .iter()
        .map(|&n| {
            let e = simfs::create_storm(&mds, n, &eager.cycle_profile);
            let c = simfs::create_storm(&mds, n, &cached.cycle_profile);
            MetadataStormRow {
                procs: n,
                eager_ops_per_open: eager.cycle_profile.total(),
                cached_ops_per_open: cached.cycle_profile.total(),
                eager_secs: e.time_to_open,
                cached_secs: c.time_to_open,
            }
        })
        .collect();
    MetadataReport {
        measured,
        storm,
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
        "{:>8}{:>12}{:>12}{:>13}{:>13}{:>9}\n",
        "Procs", "eager o/o", "cached o/o", "eager", "cached", "speedup"
    ));
    for s in &r.storm {
        out.push_str(&format!(
            "{:>8}{:>12}{:>12}{:>12.2}s{:>12.2}s{:>8.2}x\n",
            s.procs,
            s.eager_ops_per_open,
            s.cached_ops_per_open,
            s.eager_secs,
            s.cached_secs,
            s.speedup()
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// Beyond the paper: merged-index residency (compact records + partial
// loading under an index_memory_bytes budget).
// ---------------------------------------------------------------------------

/// One row of the index-residency sweep: the same strided checkpoint shape
/// with `factor`× the writes, opened eagerly (fully-expanded `GlobalIndex`)
/// vs bounded (`CompactIndex` + windowed views under a byte budget).
#[derive(Debug, Clone)]
pub struct IndexScaleRow {
    /// Entry-count multiplier over the base container.
    pub factor: usize,
    /// Total expanded index entries in the container.
    pub entries: usize,
    /// Resident index bytes, eager open.
    pub eager_resident_bytes: usize,
    /// Resident index bytes, bounded open (records + cached views).
    pub compact_resident_bytes: usize,
    /// Cold open + 128 KiB read at offset 0, eager (ms).
    pub eager_open_read_ms: f64,
    /// Same, through the bounded index (ms).
    pub compact_open_read_ms: f64,
}

/// The sweep plus its two gated summary ratios.
#[derive(Debug, Clone)]
pub struct IndexScaleReport {
    /// One row per [`INDEXSCALE_FACTORS`] entry.
    pub rows: Vec<IndexScaleRow>,
    /// Bounded-path resident bytes at the largest factor over the smallest:
    /// ≈1 when the compact index is truly O(writers), not O(writes).
    pub memory_ratio: f64,
    /// Bounded-path cold open+read latency at the largest factor over the
    /// smallest: flat when partial loading only pays for the read's window.
    pub latency_ratio: f64,
}

/// Entry-count multipliers swept (1× to 100× the base container).
pub const INDEXSCALE_FACTORS: [usize; 3] = [1, 10, 100];

/// Budget handed to the bounded opens: small enough that the eager index
/// blows through it at every factor, large enough to hold one window view.
pub const INDEXSCALE_BUDGET_BYTES: usize = 256 << 10;

/// Measure eager vs bounded index residency and cold-read latency while the
/// entry count scales 100×. Four pattern-friendly strided writers with a
/// deep index buffer, so the on-disk index stays a handful of pattern
/// records at every factor — the eager open expands them all, the bounded
/// open only the 128 KiB the read touches. The checkpoint is sparse
/// (stride ≫ block, like a real strided dump with per-rank gaps): the
/// smallest container already spans several 4 MiB index windows, so the
/// bounded path is at its steady state at every factor and the memory
/// ratio isolates entry-count scaling from window fill.
pub fn indexscale_comparison(scale: Scale) -> IndexScaleReport {
    use plfs::{Conf, MemBacking, OpenFlags, Plfs, ReadFile};
    use std::sync::Arc;

    let writers = 4usize;
    let base_writes = match scale {
        Scale::Paper => 256usize,
        Scale::Quick => 64,
    };
    let block = 512usize;
    // Logical gap multiplier: each write covers `block` bytes of a
    // `block * SPARSITY` slot, so 256 writes already span 8 MiB of logical
    // space (two index windows) while staying 128 KiB of physical data.
    const SPARSITY: u64 = 64;
    let read_len = 128 << 10;

    let rows: Vec<IndexScaleRow> = INDEXSCALE_FACTORS
        .iter()
        .map(|&factor| {
            let backing = Arc::new(MemBacking::new());
            // A deep index buffer keeps each writer's flush one pattern
            // record regardless of factor.
            let writer = Plfs::new(backing.clone()).with_conf(Conf {
                index_buffer_entries: 1 << 20,
                ..Conf::default()
            });
            let fd = writer
                .open("/c", OpenFlags::RDWR | OpenFlags::CREAT, 0)
                .unwrap();
            let writes = base_writes * factor;
            for p in 0..writers as u64 {
                fd.add_ref(p);
                let data = vec![p as u8; block];
                for r in 0..writes as u64 {
                    writer
                        .write(
                            &fd,
                            &data,
                            (r * writers as u64 + p) * block as u64 * SPARSITY,
                            p,
                        )
                        .unwrap();
                }
            }
            for p in 0..writers as u64 {
                let _ = writer.close(&fd, p);
            }
            writer.close(&fd, 0).unwrap();

            let bounded_conf = Conf {
                index_memory_bytes: INDEXSCALE_BUDGET_BYTES,
                ..Conf::default()
            };
            let mut buf = vec![0u8; read_len];
            let (eager_t, eager_resident) = best_of(3, || {
                let r = ReadFile::open(backing.as_ref(), "/c").unwrap();
                r.pread(backing.as_ref(), &mut buf, 0).unwrap();
                r.index_resident_bytes() as u64
            });
            // A bounded open+read is tens of µs — single-shot timing is
            // clock noise, and latency_ratio is a gated metric that must
            // be stable across runs. Time batches of cold opens and
            // report the per-open mean of the best batch.
            const BATCH: u64 = 32;
            let (compact_batch_t, compact_resident) = best_of(5, || {
                let mut resident = 0;
                for _ in 0..BATCH {
                    let r = ReadFile::open_with(backing.as_ref(), "/c", &bounded_conf).unwrap();
                    r.pread(backing.as_ref(), &mut buf, 0).unwrap();
                    resident = r.index_resident_bytes() as u64;
                }
                resident
            });
            let compact_t = compact_batch_t / BATCH as f64;

            IndexScaleRow {
                factor,
                entries: writers * writes,
                eager_resident_bytes: eager_resident as usize,
                compact_resident_bytes: compact_resident as usize,
                eager_open_read_ms: eager_t * 1e3,
                compact_open_read_ms: compact_t * 1e3,
            }
        })
        .collect();

    let first = rows.first().unwrap();
    let last = rows.last().unwrap();
    IndexScaleReport {
        memory_ratio: last.compact_resident_bytes as f64
            / (first.compact_resident_bytes as f64).max(1.0),
        latency_ratio: last.compact_open_read_ms / first.compact_open_read_ms.max(1e-9),
        rows,
    }
}

/// Render the index-residency sweep.
pub fn render_indexscale(r: &IndexScaleReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>8}{:>10}{:>14}{:>14}{:>13}{:>13}\n",
        "Factor", "Entries", "eager bytes", "bounded", "eager o+r", "bounded o+r"
    ));
    for row in &r.rows {
        out.push_str(&format!(
            "{:>8}{:>10}{:>14}{:>14}{:>11.2}ms{:>11.2}ms\n",
            row.factor,
            row.entries,
            row.eager_resident_bytes,
            row.compact_resident_bytes,
            row.eager_open_read_ms,
            row.compact_open_read_ms
        ));
    }
    out.push_str(&format!(
        "\nbounded residency {}x entries -> {:.2}x memory, {:.2}x cold-read latency\n",
        r.rows.last().map_or(1, |row| row.factor),
        r.memory_ratio,
        r.latency_ratio
    ));
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
        submit_workers: 2,
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
// readcache: data block cache + adaptive readahead vs direct reads.
// ---------------------------------------------------------------------------

/// One read-size row of the readcache figure: a sequential whole-file scan
/// in `read_bytes` calls, run through the real engine four ways — direct
/// (cache disabled), cached without readahead, cached with readahead
/// (cold), and the warm re-read — with backing preads measured per arm and
/// times modelled from the measured counts and the slow-tier preset.
#[derive(Debug, Clone)]
pub struct ReadCacheRow {
    /// Bytes per application read call.
    pub read_bytes: u64,
    /// Logical file size scanned (a multiple of the cache block size, so
    /// each byte crosses the device exactly once on any cold scan).
    pub file_bytes: u64,
    /// Backing preads with the cache disabled: one device op per call.
    pub uncached_preads: u64,
    /// Backing preads with the cache on but readahead off: one per block.
    pub nora_preads: u64,
    /// Backing preads with cache + readahead: coalesced prefetch runs.
    pub ra_preads: u64,
    /// Backing preads on the warm re-read (must be zero: every block is
    /// resident).
    pub warm_preads: u64,
    /// Readahead windows issued during the cold cached scan.
    pub readaheads: u64,
    /// Modelled scan time with the cache disabled.
    pub uncached_secs: f64,
    /// Modelled scan time, cached, readahead off.
    pub nora_secs: f64,
    /// Modelled cold scan time, cached, readahead on.
    pub cold_secs: f64,
    /// Modelled warm re-read time (memory bandwidth only).
    pub warm_secs: f64,
}

impl ReadCacheRow {
    /// Cold cached scan over the warm re-read.
    pub fn warm_speedup(&self) -> f64 {
        self.cold_secs / self.warm_secs.max(1e-12)
    }

    /// Cache-without-readahead over cache-with-readahead: what prefetch
    /// coalescing alone buys on top of block caching.
    pub fn readahead_speedup(&self) -> f64 {
        self.nora_secs / self.cold_secs.max(1e-12)
    }

    /// Uncached scan over the cold cached scan: the whole-stack win.
    pub fn cache_speedup(&self) -> f64 {
        self.uncached_secs / self.cold_secs.max(1e-12)
    }
}

/// The readcache sweep plus its two gated headline ratios and the device
/// model constants the times were derived from.
#[derive(Debug, Clone)]
pub struct ReadCacheReport {
    /// One row per swept read size.
    pub rows: Vec<ReadCacheRow>,
    /// [`ReadCacheRow::warm_speedup`] at the smallest read size — gated:
    /// a warm re-read must beat the cold scan by ≥3×.
    pub warm_vs_cold: f64,
    /// [`ReadCacheRow::readahead_speedup`] at the smallest read size —
    /// gated: readahead coalescing must beat unprefetched caching by ≥2×.
    pub readahead_speedup: f64,
    /// Cache block size used by the cached arms (bytes).
    pub block_bytes: u64,
    /// Device streaming bandwidth (bytes/s) from [`presets::tier_slow`].
    pub dev_bw: f64,
    /// Device per-op latency (seconds) from [`presets::tier_slow`].
    pub dev_op_lat: f64,
    /// Client memory bandwidth (bytes/s) — what a cache hit pays.
    pub mem_bw: f64,
}

/// Read sizes swept by the readcache figure, smallest first (the smallest
/// is the gated headline row — small reads are where per-op latency
/// dominates and the cache matters most).
pub const READCACHE_READS: [usize; 3] = [4 << 10, 16 << 10, 64 << 10];

/// Write the `/scan` container once: one writer appending sequential
/// `chunk`-byte records, so the data dropping is physically contiguous and
/// prefetch runs can coalesce.
fn readcache_file(base: &std::sync::Arc<plfs::MemBacking>, bytes: u64, chunk: usize) {
    use plfs::OpenFlags;
    use std::sync::Arc;
    let plfs = plfs::Plfs::new(Arc::clone(base) as Arc<dyn plfs::Backing>);
    let fd = plfs
        .open("/scan", OpenFlags::WRONLY | OpenFlags::CREAT, 0)
        .expect("readcache create");
    let buf: Vec<u8> = (0..chunk).map(|i| (i % 251) as u8).collect();
    let mut off = 0u64;
    while off < bytes {
        plfs.write(&fd, &buf, off, 0).expect("readcache write");
        off += chunk as u64;
    }
    plfs.close(&fd, 0).expect("readcache close-write");
}

/// One measured arm: open `/scan` read-only through a fresh meter with the
/// given cache configuration, warm the index merge with a 1-byte probe,
/// drop the block the probe populated so the measured pass starts truly
/// cold, then scan the whole file twice in `read`-byte calls. Returns the
/// backing preads of the cold pass, of the warm pass, and the readahead
/// windows issued during the cold pass.
fn readcache_arm(
    base: &std::sync::Arc<plfs::MemBacking>,
    conf: plfs::Conf,
    read: usize,
    file_bytes: u64,
) -> (u64, u64, u64) {
    use plfs::{Backing, MeterBacking, OpenFlags};
    use std::sync::Arc;
    let meter = Arc::new(MeterBacking::new(Arc::clone(base) as Arc<dyn Backing>));
    let plfs = plfs::Plfs::new(Arc::clone(&meter) as Arc<dyn Backing>).with_conf(conf);
    let fd = plfs
        .open("/scan", OpenFlags::RDONLY, 0)
        .expect("readcache open");
    let mut probe = [0u8; 1];
    plfs.read(&fd, &mut probe, 0).expect("readcache probe");
    if let Some(c) = fd.block_cache() {
        c.clear();
    }
    let scan = |label: &str| -> u64 {
        let before = meter.snapshot();
        let mut buf = vec![0u8; read];
        let mut off = 0u64;
        while off < file_bytes {
            let n = plfs.read(&fd, &mut buf, off).expect(label);
            assert!(n > 0, "short read at {off} during {label} scan");
            off += n as u64;
        }
        meter.snapshot().delta(&before).pread
    };
    let ra_before = fd.block_cache().map(|c| c.stats().readaheads).unwrap_or(0);
    let cold = scan("cold");
    let ra_cold = fd.block_cache().map(|c| c.stats().readaheads).unwrap_or(0) - ra_before;
    let warm = scan("warm");
    plfs.close(&fd, 0).expect("readcache close");
    (cold, warm, ra_cold)
}

/// Sweep [`READCACHE_READS`] (the first two at quick scale) over the four
/// read arms. Every arm runs the identical sequential scan through the
/// real engine over the same in-memory container; backing preads are
/// measured per arm, then costed against the [`presets::tier_slow`] per-op
/// latency and bandwidth plus the client memory rate — so the figure is
/// deterministic across runners.
///
/// Model: a scan pays one device op per backing pread, device bandwidth
/// for every byte it fetches (each byte exactly once on any cold scan —
/// the file is block-aligned), and memory bandwidth for every byte it
/// returns. The warm re-read fetches nothing, so it pays memory only.
pub fn readcache_comparison(scale: Scale) -> ReadCacheReport {
    use plfs::{Conf, MemBacking};
    use std::sync::Arc;

    let (file_bytes, reads): (u64, &[usize]) = match scale {
        Scale::Paper => (8 << 20, &READCACHE_READS[..]),
        Scale::Quick => (2 << 20, &READCACHE_READS[..2]),
    };
    let ra_conf = Conf {
        data_cache_bytes: 2 * file_bytes as usize,
        ..Conf::default()
    };
    let nora_conf = Conf {
        readahead_max: 0,
        ..ra_conf
    };
    let block_bytes = ra_conf.data_cache_block_bytes as u64;
    assert_eq!(file_bytes % block_bytes, 0, "file must be block-aligned");

    let dev = presets::tier_slow();
    let dev_bw = dev.peak_storage_bw();
    let dev_op_lat = dev.fs.per_op_latency;
    let mem_bw = dev.cluster.mem_bw;
    // Cost the measured counts: device ops + device bytes + memory copy.
    let cost = |preads: u64, dev_bytes: u64| {
        preads as f64 * dev_op_lat + dev_bytes as f64 / dev_bw + file_bytes as f64 / mem_bw
    };

    let base = Arc::new(MemBacking::new());
    readcache_file(&base, file_bytes, block_bytes as usize);

    let rows: Vec<ReadCacheRow> = reads
        .iter()
        .map(|&read| {
            let (uncached_preads, _, _) = readcache_arm(&base, Conf::default(), read, file_bytes);
            let (nora_preads, nora_warm, _) = readcache_arm(&base, nora_conf, read, file_bytes);
            let (ra_preads, warm_preads, readaheads) =
                readcache_arm(&base, ra_conf, read, file_bytes);
            // A silently disabled cache or readahead path must fail figure
            // generation, not produce a flat row.
            assert_eq!(nora_warm, 0, "unprefetched warm re-read hit the device");
            assert_eq!(warm_preads, 0, "warm re-read hit the device");
            assert!(
                ra_preads < nora_preads,
                "readahead must coalesce device ops: {ra_preads} vs {nora_preads}"
            );
            ReadCacheRow {
                read_bytes: read as u64,
                file_bytes,
                uncached_preads,
                nora_preads,
                ra_preads,
                warm_preads,
                readaheads,
                uncached_secs: cost(uncached_preads, file_bytes),
                nora_secs: cost(nora_preads, file_bytes),
                cold_secs: cost(ra_preads, file_bytes),
                warm_secs: cost(warm_preads, 0),
            }
        })
        .collect();

    let head = &rows[0];
    ReadCacheReport {
        warm_vs_cold: head.warm_speedup(),
        readahead_speedup: head.readahead_speedup(),
        rows,
        block_bytes,
        dev_bw,
        dev_op_lat,
        mem_bw,
    }
}

/// Render the readcache sweep.
pub fn render_readcache(r: &ReadCacheReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>9}{:>12}{:>10}{:>9}{:>9}{:>11}{:>11}{:>11}{:>9}{:>9}\n",
        "Read KiB",
        "direct ops",
        "noRA ops",
        "RA ops",
        "warm ops",
        "direct",
        "noRA",
        "cold",
        "RA x",
        "warm x"
    ));
    for row in &r.rows {
        out.push_str(&format!(
            "{:>9}{:>12}{:>10}{:>9}{:>9}{:>10.3}s{:>10.3}s{:>10.3}s{:>8.1}x{:>8.1}x\n",
            row.read_bytes >> 10,
            row.uncached_preads,
            row.nora_preads,
            row.ra_preads,
            row.warm_preads,
            row.uncached_secs,
            row.nora_secs,
            row.cold_secs,
            row.readahead_speedup(),
            row.warm_speedup(),
        ));
    }
    out.push_str(&format!(
        "\nwarm re-read {:.1}x cold, readahead {:.1}x unprefetched ({} KiB reads; {} KiB blocks, device {:.0} MB/s / {:.1} ms, mem {:.0} GB/s)\n",
        r.warm_vs_cold,
        r.readahead_speedup,
        r.rows[0].read_bytes >> 10,
        r.block_bytes >> 10,
        r.dev_bw / 1e6,
        r.dev_op_lat * 1e3,
        r.mem_bw / 1e9,
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

impl ToJson for ReadPathRow {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("droppings", self.droppings as u64)
            .with("entries", self.entries as u64)
            .with("serial_open_ms", self.serial_open_ms)
            .with("parallel_open_ms", self.parallel_open_ms)
            .with("open_speedup", self.open_speedup())
            .with("serial_read_mbs", self.serial_read_mbs)
            .with("fanout_read_mbs", self.fanout_read_mbs)
    }
}

impl ToJson for WritePathRow {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("writers", self.writers as u64)
            .with("writes_per_writer", self.writes_per_writer as u64)
            .with("block", self.block as u64)
            .with("serial_write_mbs", self.serial_write_mbs)
            .with("sharded_write_mbs", self.sharded_write_mbs)
            .with("write_speedup", self.write_speedup())
            .with("append_ns", self.append_ns)
            .with("full_refresh_ms", self.full_refresh_ms)
            .with("incremental_refresh_ms", self.incremental_refresh_ms)
            .with("refresh_speedup", self.refresh_speedup())
    }
}

impl ToJson for RefreshSweepRow {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("segments", self.segments as u64)
            .with(
                "incremental_refresh_us_per_cycle",
                self.incremental_refresh_us_per_cycle,
            )
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

impl ToJson for ReadPathProjection {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("platform", self.platform.as_str())
            .with("droppings", self.droppings as u64)
            .with("serial_open_secs", self.serial_open_secs)
            .with("parallel_open_secs", self.parallel_open_secs)
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
    }
}

impl ToJson for MetadataStormRow {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("procs", self.procs)
            .with("eager_ops_per_open", self.eager_ops_per_open)
            .with("cached_ops_per_open", self.cached_ops_per_open)
            .with("eager_secs", self.eager_secs)
            .with("cached_secs", self.cached_secs)
            .with("speedup", self.speedup())
    }
}

impl ToJson for MetadataReport {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("measured", self.measured.to_json_value())
            .with("storm", self.storm.to_json_value())
            .with("cache_hits", self.cache_hits)
            .with("cache_misses", self.cache_misses)
            .with("cache_hit_rate", self.cache_hit_rate())
    }
}

impl ToJson for IndexScaleRow {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("factor", self.factor as u64)
            .with("entries", self.entries as u64)
            .with("eager_resident_bytes", self.eager_resident_bytes as u64)
            .with("compact_resident_bytes", self.compact_resident_bytes as u64)
            .with("eager_open_read_ms", self.eager_open_read_ms)
            .with("compact_open_read_ms", self.compact_open_read_ms)
    }
}

impl ToJson for IndexScaleReport {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("rows", self.rows.to_json_value())
            .with("memory_ratio", self.memory_ratio)
            .with("latency_ratio", self.latency_ratio)
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

impl ToJson for ReadCacheRow {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("read_bytes", self.read_bytes)
            .with("file_bytes", self.file_bytes)
            .with("uncached_preads", self.uncached_preads)
            .with("nora_preads", self.nora_preads)
            .with("ra_preads", self.ra_preads)
            .with("warm_preads", self.warm_preads)
            .with("readaheads", self.readaheads)
            .with("uncached_secs", self.uncached_secs)
            .with("nora_secs", self.nora_secs)
            .with("cold_secs", self.cold_secs)
            .with("warm_secs", self.warm_secs)
            .with("warm_speedup", self.warm_speedup())
            .with("readahead_speedup", self.readahead_speedup())
            .with("cache_speedup", self.cache_speedup())
    }
}

impl ToJson for ReadCacheReport {
    fn to_json_value(&self) -> Value {
        Value::object()
            .with("rows", self.rows.to_json_value())
            .with("warm_vs_cold", self.warm_vs_cold)
            .with("readahead_speedup", self.readahead_speedup)
            .with("block_bytes", self.block_bytes)
            .with("dev_bw", self.dev_bw)
            .with("dev_op_lat", self.dev_op_lat)
            .with("mem_bw", self.mem_bw)
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
    use std::sync::{RwLock, RwLockReadGuard};

    /// The write clock is process-wide and these tests run on parallel
    /// threads: another figure's writes split the pattern runs that
    /// `indexscale`'s bounded-index residency depends on (it failed two
    /// runs in three). It takes this lock exclusively; the other figures
    /// that write through `plfs` share it.
    static WRITE_CLOCK: RwLock<()> = RwLock::new(());

    fn shares_write_clock() -> RwLockReadGuard<'static, ()> {
        WRITE_CLOCK.read().unwrap_or_else(|e| e.into_inner())
    }

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
    fn quick_readpath_measures_and_projects() {
        let _clock = shares_write_clock();
        let rows = readpath_comparison(Scale::Quick);
        assert_eq!(rows.len(), READPATH_DROPPINGS.len());
        for r in &rows {
            assert!(r.serial_open_ms > 0.0 && r.parallel_open_ms > 0.0);
            assert!(r.serial_read_mbs > 0.0 && r.fanout_read_mbs > 0.0);
        }
        // The biggest container is where the merge dominates: the parallel
        // open must win there (the acceptance bar is checked in micro_plfs).
        let big = rows.last().unwrap();
        assert!(
            big.open_speedup() > 1.0,
            "parallel open should beat serial at 256 droppings: {big:?}"
        );
        let txt = render_readpath(&rows);
        assert!(txt.contains("Droppings") && txt.contains("speedup"));

        let proj = readpath_projection(16);
        assert_eq!(proj.len(), 2 * READPATH_DROPPINGS.len());
        assert!(proj
            .iter()
            .all(|p| p.serial_open_secs > p.parallel_open_secs));
        let txt = render_readpath_projection(&proj);
        assert!(txt.contains("Sierra"));
    }

    #[test]
    fn quick_writepath_measures() {
        let _clock = shares_write_clock();
        let report = writepath_comparison(Scale::Quick);
        let rows = &report.rows;
        assert_eq!(rows.len(), WRITEPATH_WRITERS.len());
        for r in rows {
            assert!(r.serial_write_mbs > 0.0 && r.sharded_write_mbs > 0.0);
            assert!(r.append_ns > 0.0 && r.append_ns.is_finite());
            assert!(r.full_refresh_ms > 0.0 && r.incremental_refresh_ms > 0.0);
        }
        // The algorithmic win is core-count independent: patching the
        // cached index must beat a full re-merge per read once several
        // writers keep appending.
        let big = rows.last().unwrap();
        assert!(
            big.refresh_speedup() > 1.0,
            "incremental refresh should beat full re-merge at 8 writers: {big:?}"
        );
        // The patch is in place: 16x the resident index must not cost
        // anywhere near 16x per read-after-write (the gate's bar is 4x).
        assert_eq!(report.refresh_sweep.len(), 3);
        assert!(
            report.refresh_growth() < 4.0,
            "refresh cost grew with the resident index: {:?}",
            report.refresh_sweep
        );
        let txt = render_writepath(&report);
        assert!(txt.contains("Writers") && txt.contains("speedup") && txt.contains("segments"));
    }

    #[test]
    fn quick_metadata_measures_and_projects() {
        let _clock = shares_write_clock();
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
        for s in &r.storm {
            assert!(
                s.cached_secs < s.eager_secs,
                "cached open must beat eager at {} procs: {s:?}",
                s.procs
            );
        }
        assert!(r.cache_hits > 0 && r.cache_hit_rate() > 0.5);
        let txt = render_metadata(&r);
        assert!(txt.contains("reopen") && txt.contains("Procs") && txt.contains("speedup"));
    }

    #[test]
    fn quick_indexscale_memory_stays_bounded() {
        let _alone = WRITE_CLOCK.write().unwrap_or_else(|e| e.into_inner());
        let r = indexscale_comparison(Scale::Quick);
        assert_eq!(r.rows.len(), INDEXSCALE_FACTORS.len());
        for row in &r.rows {
            assert!(row.eager_resident_bytes > 0 && row.compact_resident_bytes > 0);
            assert!(row.eager_open_read_ms > 0.0 && row.compact_open_read_ms > 0.0);
        }
        // At 1x the read extent covers the whole file, so the bounded view
        // holds everything the eager index does; the win appears once the
        // file outgrows the read. At 100x the bounded open must hold far
        // less than the fully-expanded index.
        let big = r.rows.last().unwrap();
        assert!(
            big.compact_resident_bytes * 4 < big.eager_resident_bytes,
            "bounded open should hold a fraction of eager at {}x: {big:?}",
            big.factor
        );
        // The acceptance bar: 100x the entries, at most 2x the resident
        // bytes (the compact records are O(writers), the cached view is
        // O(read extent)).
        assert!(
            r.memory_ratio <= 2.0,
            "bounded residency must not scale with entries: {r:?}"
        );
        // Latency flatness is asserted loosely here (timing noise at quick
        // scale); the committed paper-scale baseline gates the real ratio.
        assert!(r.latency_ratio.is_finite() && r.latency_ratio > 0.0);
        let txt = render_indexscale(&r);
        assert!(txt.contains("Factor") && txt.contains("memory"));
    }

    #[test]
    fn quick_noncontig_listio_beats_sieving() {
        let _clock = shares_write_clock();
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
        let _clock = shares_write_clock();
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
    fn quick_readcache_cache_and_readahead_win() {
        let _clock = shares_write_clock();
        let r = readcache_comparison(Scale::Quick);
        assert_eq!(r.rows.len(), 2, "quick sweeps the first two read sizes");
        for row in &r.rows {
            // The workload really ran: the direct arm paid one device op
            // per call, caching cut that to one per block at most, the
            // warm re-read never touched the device, and readahead
            // windows actually fired.
            assert_eq!(row.warm_preads, 0, "{row:?}");
            assert!(row.nora_preads <= row.uncached_preads, "{row:?}");
            assert!(row.ra_preads < row.nora_preads, "{row:?}");
            assert!(row.readaheads > 0, "{row:?}");
            assert!(
                row.warm_secs > 0.0 && row.cold_secs > row.warm_secs,
                "{row:?}"
            );
        }
        // Small reads are where per-op latency dominates: the cache must
        // cut device ops by the block/read ratio there.
        let small = &r.rows[0];
        assert!(
            small.nora_preads * 4 < small.uncached_preads,
            "block caching should collapse small-read device ops: {small:?}"
        );
        // The acceptance bars (same ratios the committed baseline gates):
        // deterministic because the times are modelled from measured op
        // counts and fixed preset rates, not wall clocks.
        assert!(
            r.warm_vs_cold >= 3.0,
            "warm re-read should be >=3x cold: {r:?}"
        );
        assert!(
            r.readahead_speedup >= 2.0,
            "readahead should be >=2x unprefetched: {r:?}"
        );
        let txt = render_readcache(&r);
        assert!(txt.contains("Read KiB") && txt.contains("warm re-read"));
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
