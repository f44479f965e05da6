//! The NAS BT I/O workload (paper §IV, Figure 4).
//!
//! Strong-scaled: the global problem is fixed per class and divided over
//! the processes; the solution is dumped in 20 write steps. Per-process
//! write sizes therefore shrink as the core count grows — the driver of the
//! paper's write-caching analysis:
//!
//! * class C (162³): 6.4 GB total → ~300 KB per process-step at 1,024 cores
//!   (absorbed by the client cache through PLFS);
//! * class D (408³): 136 GB total → ~7 MB per process-step at 1,024 cores
//!   (misses the cache) but <2 MB at 4,096 (absorbed again).
//!
//! Each process's cells are interleaved through the solution array, so the
//! shared-file path sees strided writes (sieving + locks); PLFS paths see
//! plain log appends.

use crate::result::{BenchPoint, IoTimer};
use mpiio::{Access, Job, Method, MpiFile, MpiInfo};
use simfs::{Platform, SimFs, SimResult};

/// NAS problem classes used in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BtClass {
    /// 162³ grid, 6.4 GB of I/O.
    C,
    /// 408³ grid, 136 GB of I/O.
    D,
}

impl BtClass {
    /// Total bytes written during a run (paper §IV).
    pub fn total_bytes(self) -> u64 {
        match self {
            BtClass::C => 64 * (100 << 20),   // 6.4 GB
            BtClass::D => 136 * (1000 << 20), // 136 GB
        }
    }

    /// The paper's core-count sweep for this class.
    pub fn core_sweep(self) -> &'static [usize] {
        match self {
            BtClass::C => &[4, 16, 64, 256, 1024],
            BtClass::D => &[64, 256, 1024, 4096],
        }
    }

    /// Label ("C"/"D").
    pub fn label(self) -> &'static str {
        match self {
            BtClass::C => "C",
            BtClass::D => "D",
        }
    }
}

/// Number of solution dumps in a run.
pub const BT_WRITE_STEPS: u64 = 20;

/// Configuration of one BT run.
#[derive(Debug, Clone, Copy)]
pub struct BtConfig {
    /// Problem class.
    pub class: BtClass,
    /// Total processes (BT requires a square count; the paper uses powers
    /// of 4).
    pub procs: usize,
    /// Processes per node.
    pub ppn: usize,
    /// PLFS hostdirs.
    pub num_hostdirs: u32,
}

impl BtConfig {
    /// Paper configuration at a core count (12 cores per node on Sierra).
    pub fn paper(class: BtClass, procs: usize) -> BtConfig {
        BtConfig {
            class,
            procs,
            ppn: 12,
            num_hostdirs: 32,
        }
    }

    /// Bytes one process writes in one step.
    pub fn bytes_per_proc_step(&self) -> u64 {
        self.class.total_bytes() / BT_WRITE_STEPS / self.procs as u64
    }

    /// Occupied nodes.
    pub fn nodes(&self) -> usize {
        self.procs.div_ceil(self.ppn)
    }
}

/// Run BT's I/O phases; returns the write measurement: data over the
/// summed write-phase time plus the final close (the checkpoint is not
/// durable until the cached dirty data drains, and including it is what
/// keeps cached "bandwidths" finite).
pub fn run(platform: &Platform, cfg: &BtConfig, method: Method) -> SimResult<BenchPoint> {
    let mut fs = SimFs::new(platform.clone());
    let mut job = Job::new(cfg.procs, cfg.ppn);
    let mut timer = IoTimer::new(cfg.procs);

    let mut file = MpiFile::open(
        &mut fs,
        &mut job,
        "/btio.out",
        true,
        method,
        MpiInfo::default(),
        cfg.num_hostdirs,
    )?;

    let per_step = cfg.bytes_per_proc_step();
    let step_bytes = per_step * cfg.procs as u64;
    for step in 0..BT_WRITE_STEPS {
        for r in 0..cfg.procs {
            let t0 = job.time(r);
            // Rank r's cells from this step, interleaved through the
            // solution array region of the step.
            let offset = step * step_bytes + r as u64 * per_step;
            let c = file.write_at(&mut fs, &mut job, r, offset, per_step, Access::Strided)?;
            timer.add(r, t0, c);
        }
        // Solver phase between dumps synchronises the ranks.
        job.barrier();
    }
    let t0 = job.max_time();
    file.close(&mut fs, &mut job)?;
    timer.add_all(t0, job.max_time());

    Ok(BenchPoint {
        method: method.label().to_string(),
        procs: cfg.procs,
        nodes: cfg.nodes(),
        bytes: cfg.class.total_bytes(),
        seconds: timer.max(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::presets;

    #[test]
    fn per_proc_step_sizes_match_paper() {
        // ~300 KB per process-step for class C at 1,024 cores.
        let c = BtConfig::paper(BtClass::C, 1024);
        let kb = c.bytes_per_proc_step() as f64 / 1e3;
        assert!((250.0..400.0).contains(&kb), "{kb} KB");
        // ~7 MB at 1,024 cores class D.
        let d = BtConfig::paper(BtClass::D, 1024);
        let mb = d.bytes_per_proc_step() as f64 / 1e6;
        assert!((6.0..8.0).contains(&mb), "{mb} MB");
        // <2 MB at 4,096 cores class D; ~34 MB per process total.
        let d4 = BtConfig::paper(BtClass::D, 4096);
        assert!(d4.bytes_per_proc_step() < 2_000_000);
        let total_per_proc = d4.bytes_per_proc_step() * BT_WRITE_STEPS;
        assert!((30_000_000..40_000_000).contains(&total_per_proc));
    }

    #[test]
    fn class_c_small_scale_runs() {
        // Scaled-down class C so the unit test stays fast: 16 cores.
        let p = presets::sierra();
        let cfg = BtConfig::paper(BtClass::C, 16);
        let mpiio = run(&p, &cfg, Method::MpiIo).unwrap();
        let ldplfs = run(&p, &cfg, Method::Ldplfs).unwrap();
        assert!(mpiio.seconds > 0.0 && ldplfs.seconds > 0.0);
        assert!(
            ldplfs.bandwidth_mbs() > mpiio.bandwidth_mbs(),
            "PLFS should win BT: {} vs {}",
            ldplfs.bandwidth_mbs(),
            mpiio.bandwidth_mbs()
        );
    }

    #[test]
    fn small_writes_hit_cache_through_plfs() {
        let p = presets::sierra();
        // 256 cores class C: ~1.25 MB per proc-step, cacheable.
        let cfg = BtConfig::paper(BtClass::C, 256);
        let mut fs = SimFs::new(p.clone());
        let mut job = Job::new(cfg.procs, cfg.ppn);
        let mut file = MpiFile::open(
            &mut fs,
            &mut job,
            "/bt",
            true,
            Method::Romio,
            MpiInfo::default(),
            32,
        )
        .unwrap();
        for r in 0..cfg.procs {
            file.write_at(
                &mut fs,
                &mut job,
                r,
                r as u64 * cfg.bytes_per_proc_step(),
                cfg.bytes_per_proc_step(),
                Access::Strided,
            )
            .unwrap();
        }
        assert!(fs.stats().cache_hits > 0, "class C writes should cache");
    }

    #[test]
    fn sweeps_are_the_papers() {
        assert_eq!(BtClass::C.core_sweep(), &[4, 16, 64, 256, 1024]);
        assert_eq!(BtClass::D.core_sweep(), &[64, 256, 1024, 4096]);
    }
}
