//! The FLASH-IO checkpoint workload (paper §IV, Figure 5).
//!
//! FLASH-IO recreates the checkpointing of the FLASH astrophysics code
//! through HDF5: every process holds a fixed 24³ local problem and writes
//! ~205 MB per checkpoint, so the run is *weak-scaled* — total output grows
//! with the core count. Variables are laid out dataset-by-dataset: for
//! unknown `v`, process `r` writes a contiguous slab at
//! `v·(procs·slab) + r·slab`, independently (HDF5 independent transfer
//! mode). Rank 0 additionally writes small dataset headers.
//!
//! Through PLFS every process creates its own dropping pair inside the
//! container — the metadata storm that collapses the dedicated Lustre MDS
//! at scale (Figure 5), while plain MPI-IO creates one file and climbs
//! slowly under shared-file locks.

use crate::result::{BenchPoint, IoTimer};
use mpiio::{Access, Job, Method, MpiFile};
use simfs::{Platform, SimFs, SimResult};

/// Number of FLASH "unknowns" checkpointed (24 mesh variables).
pub const FLASH_NVARS: u64 = 24;
/// Bytes each process contributes per checkpoint (~205 MB, §IV).
pub const FLASH_BYTES_PER_PROC: u64 = 205 * 1_000_000;
/// HDF5 dataset header written by rank 0 before each variable.
pub const FLASH_HEADER_BYTES: u64 = 2048;

/// Configuration of one FLASH-IO run.
#[derive(Debug, Clone, Copy)]
pub struct FlashConfig {
    /// Total processes (the paper runs 12 per node, 1–256 nodes).
    pub procs: usize,
    /// Processes per node.
    pub ppn: usize,
    /// PLFS hostdirs.
    pub num_hostdirs: u32,
}

impl FlashConfig {
    /// Paper configuration at a core count.
    pub fn paper(procs: usize) -> FlashConfig {
        FlashConfig {
            procs,
            ppn: 12,
            num_hostdirs: 32,
        }
    }

    /// The paper's core sweep: 12 to 3,072 cores doubling by nodes.
    pub fn core_sweep() -> &'static [usize] {
        &[12, 24, 48, 96, 192, 384, 768, 1536, 3072]
    }

    /// Contiguous slab one process writes per variable.
    pub fn slab(&self) -> u64 {
        FLASH_BYTES_PER_PROC / FLASH_NVARS
    }

    /// Occupied nodes.
    pub fn nodes(&self) -> usize {
        self.procs.div_ceil(self.ppn)
    }
}

/// Run one FLASH-IO checkpoint; bandwidth is total bytes over the slowest
/// rank's summed I/O time, including open and close (checkpoint completion
/// is what FLASH times — this is why the MDS storm shows up).
pub fn run(platform: &Platform, cfg: &FlashConfig, method: Method) -> SimResult<BenchPoint> {
    let mut fs = SimFs::new(platform.clone());
    let mut job = Job::new(cfg.procs, cfg.ppn);
    let mut timer = IoTimer::new(cfg.procs);

    let t_open0 = job.max_time();
    let mut file = MpiFile::open(
        &mut fs,
        &mut job,
        "/flash_hdf5_chk_0001",
        true,
        method,
        cfg.num_hostdirs,
    )?;
    let t_open1 = job.max_time();
    timer.add_all(t_open0, t_open1);

    let slab = cfg.slab();
    let var_section = slab * cfg.procs as u64;
    for v in 0..FLASH_NVARS {
        let base = v * (var_section + FLASH_HEADER_BYTES);
        // Rank 0 writes the dataset header.
        {
            let t0 = job.time(0);
            let c = file.write_at(
                &mut fs,
                &mut job,
                0,
                base,
                FLASH_HEADER_BYTES,
                Access::Strided,
            )?;
            timer.add(0, t0, c);
        }
        // Every rank writes its contiguous slab, independently.
        for r in 0..cfg.procs {
            let t0 = job.time(r);
            let offset = base + FLASH_HEADER_BYTES + r as u64 * slab;
            let c = file.write_at(&mut fs, &mut job, r, offset, slab, Access::Contiguous)?;
            timer.add(r, t0, c);
        }
    }

    let t_close0 = job.max_time();
    file.close(&mut fs, &mut job)?;
    let t_close1 = job.max_time();
    timer.add_all(t_close0, t_close1);

    Ok(BenchPoint {
        method: method.label().to_string(),
        procs: cfg.procs,
        nodes: cfg.nodes(),
        bytes: FLASH_BYTES_PER_PROC * cfg.procs as u64,
        seconds: timer.max(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::presets;

    #[test]
    fn weak_scaling_grows_output() {
        let small = FlashConfig::paper(12);
        let big = FlashConfig::paper(24);
        assert_eq!(
            FLASH_BYTES_PER_PROC * 12,
            small.procs as u64 * FLASH_BYTES_PER_PROC
        );
        assert!(big.procs > small.procs);
        // ~8.5 MB slabs.
        let mb = small.slab() as f64 / 1e6;
        assert!((7.0..10.0).contains(&mb), "{mb}");
    }

    #[test]
    fn plfs_beats_mpiio_at_moderate_scale() {
        let p = presets::sierra();
        let cfg = FlashConfig::paper(24);
        let mpiio = run(&p, &cfg, Method::MpiIo).unwrap();
        let ldplfs = run(&p, &cfg, Method::Ldplfs).unwrap();
        assert!(
            ldplfs.bandwidth_mbs() > mpiio.bandwidth_mbs(),
            "{} vs {}",
            ldplfs.bandwidth_mbs(),
            mpiio.bandwidth_mbs()
        );
    }

    #[test]
    fn plfs_loads_the_mds_per_process() {
        let p = presets::sierra();
        let cfg = FlashConfig {
            procs: 24,
            ppn: 12,
            num_hostdirs: 8,
        };
        // Count metadata ops for PLFS vs plain MPI-IO.
        let mut fs = SimFs::new(p.clone());
        let mut job = Job::new(cfg.procs, cfg.ppn);
        let mut f = MpiFile::open(&mut fs, &mut job, "/c", true, Method::Romio, 8).unwrap();
        for r in 0..cfg.procs {
            f.write_at(
                &mut fs,
                &mut job,
                r,
                r as u64 * 1024,
                1024,
                Access::Contiguous,
            )
            .unwrap();
        }
        let plfs_meta = fs.stats().meta_ops;

        let mut fs2 = SimFs::new(p.clone());
        let mut job2 = Job::new(cfg.procs, cfg.ppn);
        let mut f2 = MpiFile::open(&mut fs2, &mut job2, "/c", true, Method::MpiIo, 8).unwrap();
        for r in 0..cfg.procs {
            f2.write_at(
                &mut fs2,
                &mut job2,
                r,
                r as u64 * 1024,
                1024,
                Access::Contiguous,
            )
            .unwrap();
        }
        let ufs_meta = fs2.stats().meta_ops;
        assert!(
            plfs_meta > ufs_meta + cfg.procs as u64,
            "PLFS must create per-process droppings: {plfs_meta} vs {ufs_meta}"
        );
    }
}
