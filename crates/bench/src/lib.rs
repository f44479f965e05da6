//! # bench — the figure/table regeneration harness
//!
//! Library behind the `paperbench` binary: one function per table/figure of
//! the paper, each returning structured data that renders as aligned text
//! tables and as the `data` of its emitted `BENCH_*.json`. The
//! [`figures`] registry declares each figure once; [`gate`] checks and
//! gates what it emits.
//!
//! Every experiment can run at `Scale::Paper` (the exact sweep of the
//! paper) or `Scale::Quick` (same shapes, smaller volumes — used by CI and
//! the criterion benches).

#![warn(missing_docs)]

pub mod figures;
pub mod gate;

use apps::flash_io::{self, FlashConfig};
use apps::mpi_io_test::{self, MpiIoTestConfig, Phase};
use apps::nas_bt::{self, BtClass, BtConfig};
use apps::unix_tools::sim::{tool_time, FileKind, Tool};
use jsonlite::{ToJson, Value};
use mpiio::{FileView, Job, Method, MpiFile, MpiInfo};
use simfs::{presets, Platform, SimFs};

/// How big to run the experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's exact volumes and sweeps.
    Paper,
    /// Reduced volumes (same process sweeps) for fast iteration.
    Quick,
}

/// `f` over `items`, one scoped thread each, results in input order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let f = &f;
        let workers: Vec<_> = items.iter().map(|x| s.spawn(move || f(x))).collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    })
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
    par_map(&jobs, |&(phase, ppn)| {
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
    let series = par_map(&SIERRA_METHODS, |&m| {
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
    });
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
    let series = par_map(&SIERRA_METHODS, |&m| {
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
    });
    Panel {
        title: "FLASH-IO (weak scaled, 24³ blocks)".to_string(),
        xlabel: "Cores".to_string(),
        series,
    }
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
    let speedup = par_map(&cores, |&c| {
        let cfg = FlashConfig::paper(c);
        let base = flash_io::run(platform, &cfg, Method::MpiIo).expect("crossover base");
        let plfs = flash_io::run(platform, &cfg, Method::Ldplfs).expect("crossover plfs");
        plfs.bandwidth_mbs() / base.bandwidth_mbs()
    });
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
// Beyond the paper: the parallel write path (one fd per writer,
// atomic-EOF appends, the read view patched in place).
// ---------------------------------------------------------------------------

/// One measured row of the write-path figure: `writers` racing pids
/// pushing a strided checkpoint into one container, each through its own
/// fd, plus the append and read-after-write latencies. Absolute
/// numbers on this host's memory backing — there is no comparison arm.
#[derive(Debug, Clone)]
pub struct WritePathRow {
    /// Concurrent writer threads (= pids), one fd each.
    pub writers: usize,
    /// Blocks written per writer.
    pub writes_per_writer: usize,
    /// Block size (bytes).
    pub block: usize,
    /// Multi-writer throughput (MB/s).
    pub write_mbs: f64,
    /// Mean `O_APPEND` write latency on the atomic-EOF fast path (ns).
    pub append_ns: f64,
    /// Interleaved cycles of `writers` appends through one fd then one
    /// read, which patches the fd's read view (ms total).
    pub patch_cycles_ms: f64,
}

/// Writer counts swept by the measured write-path comparison.
pub const WRITEPATH_WRITERS: [usize; 3] = [1, 4, 8];

/// One point of the refresh-cost sweep: a write→read cycle on an fd whose
/// read view already holds `segments` segments. Measured, this host.
#[derive(Debug, Clone)]
pub struct RefreshSweepRow {
    /// Segments resident in the fd's merged index before the cycles (none
    /// can coalesce).
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
/// holds `segments` segments: 16-byte blocks, the even ones written before
/// the odd ones, so no two neighbours lie side by side in the data
/// dropping and none coalesce. Shared by the `writepath` refresh sweep and
/// the `read_after_write` criterion group.
pub fn fragmented_fd(segments: u64) -> (plfs::Plfs, std::sync::Arc<plfs::PlfsFd>) {
    use plfs::{MemBacking, OpenFlags, Plfs};
    let plfs = Plfs::new(std::sync::Arc::new(MemBacking::new()));
    let fd = plfs
        .open("/s", OpenFlags::RDWR | OpenFlags::CREAT, 0)
        .unwrap();
    for i in (0..segments).step_by(2).chain((1..segments).step_by(2)) {
        plfs.write(&fd, &[i as u8; 16], i * 16, 0).unwrap();
    }
    plfs.read(&fd, &mut [0u8; 16], 0).unwrap();
    (plfs, fd)
}

/// One write→read cycle on a [`fragmented_fd`] of `shift.len() + 1`
/// blocks: 16 bytes of `fill` written over blocks `k` and `k + 1`, then
/// read back, which patches the view. The write starts 4 or 12 bytes into
/// block `k`, the other of the two than the pair's last one (`shift[k]`),
/// so it always straddles two slices: a write the view holds as one slice
/// of the writer's own bytes would go in place and patch nothing.
pub fn straddling_cycle(
    plfs: &plfs::Plfs,
    fd: &plfs::PlfsFd,
    shift: &mut [u64],
    k: usize,
    fill: u8,
) -> usize {
    shift[k] = 16 - shift[k];
    let off = k as u64 * 16 + shift[k];
    plfs.write(fd, &[fill; 16], off, fd.pid()).unwrap();
    plfs.read(fd, &mut [0u8; 16], off).unwrap()
}

/// Seconds per [`straddling_cycle`] (best of three) over random pairs of
/// a [`fragmented_fd`] of `segments` blocks.
fn refresh_cycle_secs(segments: usize, cycles: usize) -> f64 {
    let (plfs, fd) = fragmented_fd(segments as u64);
    let mut shift = vec![12u64; segments - 1];
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    let (secs, _) = best_of(3, || {
        for i in 0..cycles {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let k = (rng % shift.len() as u64) as usize;
            straddling_cycle(&plfs, &fd, &mut shift, k, i as u8);
        }
        cycles as u64
    });
    secs / cycles as f64
}

/// Wall time for `writers` threads to push a strided checkpoint (and sync)
/// into one container, each through an fd of its own pid.
fn multiwriter_secs(writers: usize, rows: usize, block: usize) -> f64 {
    use plfs::{MemBacking, OpenFlags, Plfs};
    use std::sync::Arc;
    let (secs, _) = best_of(3, || {
        let plfs = Plfs::new(Arc::new(MemBacking::new()));
        let open = |pid| plfs.open("/w", OpenFlags::RDWR | OpenFlags::CREAT, pid);
        let fds: Vec<_> = (0..writers as u64).map(|pid| open(pid).unwrap()).collect();
        std::thread::scope(|s| {
            for (w, fd) in fds.iter().enumerate() {
                let plfs = &plfs;
                s.spawn(move || {
                    let pid = w as u64;
                    let data = vec![w as u8; block];
                    for r in 0..rows {
                        let off = ((r * writers + w) * block) as u64;
                        plfs.write(fd, &data, off, pid).unwrap();
                    }
                    plfs.sync(fd, pid).unwrap();
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
                    fd.append(&chunk).unwrap();
                }
                plfs.close(&fd, 0).unwrap();
                appends as u64
            });

            // Interleaved append+read cycles: every read patches the fd's
            // read view with what was appended since the last one.
            let (patch_secs, _) = best_of(3, || {
                let plfs = Plfs::new(Arc::new(MemBacking::new()));
                let fd = plfs
                    .open("/r", OpenFlags::RDWR | OpenFlags::CREAT, 0)
                    .unwrap();
                let mut one = [0u8; 1];
                for c in 0..cycles {
                    for _ in 0..writers {
                        fd.append(&chunk).unwrap();
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
/// wall latency, a fresh mount per operation vs one warm mount (steady
/// state, in-memory backing).
#[derive(Debug, Clone)]
pub struct MetadataRow {
    /// Phase label: `reopen`, `getattr`, or `open+write+close`.
    pub phase: String,
    /// Backing metadata ops on a fresh mount per operation (the
    /// pre-fast-path behaviour, and what another process pays: every lookup
    /// probes the backing store).
    pub eager_ops: u64,
    /// Backing metadata ops on one warm mount.
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

/// Fresh metered mount.
fn metered() -> (std::sync::Arc<plfs::MeterBacking>, plfs::Plfs) {
    use std::sync::Arc;
    let meter = Arc::new(plfs::MeterBacking::new(Arc::new(plfs::MemBacking::new())));
    let p = plfs::Plfs::new(meter.clone() as Arc<dyn plfs::Backing>);
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

/// Writer ranks of the checkpoint cycle, each with its own pid and its own
/// fd on the shared container, as ranks are processes under the LDPLFS
/// shim.
const META_CYCLE_RANKS: u64 = 4;

/// One checkpoint cycle on one mount: every rank opens the shared
/// container for write, every rank writes its block, every rank closes.
/// `base_pid` must be fresh per cycle — reusing a pid makes the writer's
/// exclusive-create dropping probe walk every dropping that pid ever left
/// (which is the realistic shape: storm processes are distinct).
fn meta_cycle(p: &plfs::Plfs, base_pid: u64) {
    use plfs::OpenFlags;
    let pids = base_pid..base_pid + META_CYCLE_RANKS;
    let fds: Vec<_> = pids
        .map(|pid| {
            let fd = p.open("/storm", OpenFlags::RDWR | OpenFlags::CREAT, pid);
            (pid, fd.unwrap())
        })
        .collect();
    for (r, (pid, fd)) in (0..).zip(&fds) {
        p.write(fd, &[7u8; 512], 8192 + r * 512, *pid).unwrap();
    }
    for (pid, fd) in &fds {
        p.close(fd, *pid).unwrap();
    }
}

/// Per-arm measurement: `(ops, µs)` for each phase plus the storm profile
/// and cache counters.
struct MetaSide {
    reopen: (u64, f64),
    getattr: (u64, f64),
    cycle: (u64, f64),
    cycle_profile: simfs::OpenProfile,
    hits: u64,
    misses: u64,
}

/// One arm of the comparison. `eager` runs every operation on a fresh
/// mount over the same backing — nothing cached, as another process sees
/// the container — and the cached arm runs them all on one warm mount.
fn measure_meta_side(eager: bool, iters: usize) -> MetaSide {
    use plfs::OpenFlags;
    let flags = OpenFlags::RDWR | OpenFlags::CREAT;
    let (meter, warm) = metered();
    let on = |op: &dyn Fn(&plfs::Plfs)| {
        if eager {
            op(&plfs::Plfs::new(meter.clone()))
        } else {
            op(&warm)
        }
    };
    // Warm up: create the container, write, close, and stat it once — the
    // comparison is steady-state cost, not cold-cache cost.
    let fd = warm.open("/storm", flags, 0).unwrap();
    warm.write(&fd, &[7u8; 4096], 0, 0).unwrap();
    warm.close(&fd, 0).unwrap();
    let _ = warm.getattr("/storm").unwrap();
    let reopen = |p: &plfs::Plfs| {
        let fd = p.open("/storm", OpenFlags::RDONLY, 1).unwrap();
        p.close(&fd, 1).unwrap();
    };
    let getattr = |p: &plfs::Plfs| {
        p.getattr("/storm").unwrap();
    };

    // Backing metadata ops per phase (single steady-state delta).
    let before = meter.snapshot();
    on(&reopen);
    let reopen_ops = meter.snapshot().delta(&before).metadata_ops();

    let before = meter.snapshot();
    on(&getattr);
    let getattr_ops = meter.snapshot().delta(&before).metadata_ops();

    let before = meter.snapshot();
    on(&|p| meta_cycle(p, 2));
    let cycle_delta = meter.snapshot().delta(&before);
    let cycle_ops = cycle_delta.metadata_ops();
    let cycle_profile = storm_profile(&cycle_delta);

    // Wall latencies over `iters` iterations, best of 3 rounds.
    let (secs, _) = best_of(3, || {
        for _ in 0..iters {
            on(&reopen);
        }
        iters as u64
    });
    let reopen_us = secs * 1e6 / iters as f64;
    let (secs, _) = best_of(3, || {
        for _ in 0..iters {
            on(&getattr);
        }
        iters as u64
    });
    let getattr_us = secs * 1e6 / iters as f64;
    let mut next_pid = 100u64;
    let (secs, _) = best_of(3, || {
        for _ in 0..iters {
            on(&|p| meta_cycle(p, next_pid));
            next_pid += META_CYCLE_RANKS;
        }
        iters as u64
    });
    let cycle_us = secs * 1e6 / iters as f64;

    let (hits, misses) = warm.meta_cache_counters();
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
    let (meter, p) = metered();
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
    let eager = measure_meta_side(true, iters);
    let cached = measure_meta_side(false, iters);
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
/// three ways — data sieving on plain UFS, PLFS through LDPLFS (one plain
/// write per extent: the shim has no list call), and list I/O through the
/// PLFS ROMIO driver (one batched op per `write_view`/`read_view` call).
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
    /// Same, PLFS through LDPLFS: one op per extent.
    pub per_extent_secs: f64,
    /// Same, PLFS ROMIO list I/O: one batched op per call.
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

/// Sweep [`NONCONTIG_JOBS`] over the three lowering strategies: data
/// sieving on UFS, one plain write per extent through LDPLFS (the shim has
/// no list call), and list I/O through the PLFS ROMIO driver. Each call
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
                noncontig_run(Method::Romio, true, ranks, ppn, block, calls, len_per_call);
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
// JSON output (the `data` of paperbench --emit-json).
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
        // The small-file cycle: eight calls, 11 ops, and its storm cheaper
        // per process than the four-rank checkpoint cycle's.
        let per_call: Vec<u64> = r.small_file.calls.iter().map(|c| c.ops).collect();
        assert_eq!(per_call, [2, 0, 4, 0, 0, 2, 0, 3], "{:?}", r.small_file);
        assert_eq!(r.small_file.total_ops(), 11);
        for (small, ckpt) in r.small_file.storm.iter().zip(&r.storm) {
            assert_eq!((small.procs, small.ops_per_open), (ckpt.procs, 11));
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
