//! The LANL MPI-IO Test workload (paper §III.C, Figure 3).
//!
//! "Writing a total of 1 GB per process in 8 MB blocks. Collective blocking
//! MPI-IO operations are employed" — an N-to-1 strided pattern: in step
//! `b`, rank `r` owns the block at offset `(b · procs + r) · block_size`.
//! The union of a step is contiguous, so collective buffering turns each
//! step into one large aggregator write per node.

use crate::result::{BenchPoint, IoTimer};
use mpiio::{Job, Method, MpiFile, RankIo};
use simfs::{Platform, SimFs, SimResult};

/// Parameters of one MPI-IO Test run.
#[derive(Debug, Clone, Copy)]
pub struct MpiIoTestConfig {
    /// Processes per node.
    pub ppn: usize,
    /// Number of nodes (procs = nodes × ppn).
    pub nodes: usize,
    /// Bytes written per process over the whole run.
    pub bytes_per_proc: u64,
    /// Block size of each write call.
    pub block_size: u64,
    /// PLFS hostdir count for the PLFS-backed methods.
    pub num_hostdirs: u32,
}

impl MpiIoTestConfig {
    /// The paper's configuration at a given scale: 1 GB per process in
    /// 8 MB blocks.
    pub fn paper(nodes: usize, ppn: usize) -> MpiIoTestConfig {
        MpiIoTestConfig {
            ppn,
            nodes,
            bytes_per_proc: 1 << 30,
            block_size: 8 << 20,
            num_hostdirs: 32,
        }
    }

    /// Total processes.
    pub fn procs(&self) -> usize {
        self.nodes * self.ppn
    }

    /// Write steps per process.
    pub fn steps(&self) -> u64 {
        self.bytes_per_proc / self.block_size
    }
}

/// Direction of the measured phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// N-to-1 write.
    Write,
    /// Read the file back on the same ranks.
    Read,
}

/// Run MPI-IO Test on a fresh file system; returns the benchmark's write or
/// read measurement.
pub fn run(
    platform: &Platform,
    cfg: &MpiIoTestConfig,
    method: Method,
    phase: Phase,
) -> SimResult<BenchPoint> {
    let mut fs = SimFs::new(platform.clone());
    let procs = cfg.procs();
    let mut job = Job::new(procs, cfg.ppn);
    let mut timer = IoTimer::new(procs);

    let mut file = MpiFile::open(
        &mut fs,
        &mut job,
        "/mpiio_test.out",
        true,
        method,
        cfg.num_hostdirs,
    )?;

    // Write phase always happens (reads need data); only the requested
    // phase is timed.
    let steps = cfg.steps();
    for step in 0..steps {
        let ios: Vec<RankIo> = (0..procs)
            .map(|r| RankIo {
                offset: (step * procs as u64 + r as u64) * cfg.block_size,
                len: cfg.block_size,
            })
            .collect();
        let t0 = job.max_time();
        let release = file.write_at_all(&mut fs, &mut job, &ios)?;
        if phase == Phase::Write {
            timer.add_all(t0, release);
        }
    }

    if phase == Phase::Read {
        for step in 0..steps {
            let ios: Vec<RankIo> = (0..procs)
                .map(|r| RankIo {
                    offset: (step * procs as u64 + r as u64) * cfg.block_size,
                    len: cfg.block_size,
                })
                .collect();
            let t0 = job.max_time();
            let release = file.read_at_all(&mut fs, &mut job, &ios)?;
            timer.add_all(t0, release);
        }
    }

    file.close(&mut fs, &mut job)?;
    let bytes = cfg.bytes_per_proc * procs as u64;
    Ok(BenchPoint {
        method: method.label().to_string(),
        procs,
        nodes: cfg.nodes,
        bytes,
        seconds: timer.max(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::presets;

    fn small() -> MpiIoTestConfig {
        MpiIoTestConfig {
            ppn: 2,
            nodes: 2,
            bytes_per_proc: 32 << 20,
            block_size: 8 << 20,
            num_hostdirs: 8,
        }
    }

    #[test]
    fn write_produces_finite_bandwidth() {
        let p = presets::minerva();
        let b = run(&p, &small(), Method::Ldplfs, Phase::Write).unwrap();
        assert_eq!(b.procs, 4);
        assert_eq!(b.bytes, 128 << 20);
        assert!(b.seconds > 0.0);
        assert!(b.bandwidth_mbs().is_finite());
    }

    #[test]
    fn plfs_beats_shared_file_on_minerva() {
        let p = presets::minerva();
        let cfg = MpiIoTestConfig {
            ppn: 1,
            nodes: 8,
            bytes_per_proc: 64 << 20,
            block_size: 8 << 20,
            num_hostdirs: 8,
        };
        let mpiio = run(&p, &cfg, Method::MpiIo, Phase::Write).unwrap();
        let ldplfs = run(&p, &cfg, Method::Ldplfs, Phase::Write).unwrap();
        assert!(
            ldplfs.bandwidth_mbs() > mpiio.bandwidth_mbs(),
            "PLFS {} <= MPI-IO {}",
            ldplfs.bandwidth_mbs(),
            mpiio.bandwidth_mbs()
        );
    }

    #[test]
    fn ldplfs_close_to_romio() {
        let p = presets::minerva();
        let cfg = small();
        let romio = run(&p, &cfg, Method::Romio, Phase::Write).unwrap();
        let ldplfs = run(&p, &cfg, Method::Ldplfs, Phase::Write).unwrap();
        let ratio = ldplfs.bandwidth_mbs() / romio.bandwidth_mbs();
        assert!((0.9..1.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn fuse_slowest_of_plfs_paths() {
        let p = presets::minerva();
        let cfg = small();
        let fuse = run(&p, &cfg, Method::Fuse, Phase::Write).unwrap();
        let romio = run(&p, &cfg, Method::Romio, Phase::Write).unwrap();
        assert!(fuse.bandwidth_mbs() < romio.bandwidth_mbs());
    }

    #[test]
    fn read_phase_measures_reads() {
        let p = presets::minerva();
        let b = run(&p, &small(), Method::Romio, Phase::Read).unwrap();
        assert!(b.seconds > 0.0);
        assert!(b.bandwidth_mbs().is_finite());
    }

    #[test]
    fn node_scaling_is_monotone_for_plfs_at_small_scale() {
        // More nodes, more aggregators, more parallel droppings — PLFS
        // bandwidth should not fall over this range on Minerva.
        let p = presets::minerva();
        let mut prev = 0.0;
        for nodes in [1usize, 2, 4] {
            let cfg = MpiIoTestConfig {
                ppn: 1,
                nodes,
                bytes_per_proc: 32 << 20,
                block_size: 8 << 20,
                num_hostdirs: 8,
            };
            let b = run(&p, &cfg, Method::Ldplfs, Phase::Write).unwrap();
            assert!(
                b.bandwidth_mbs() >= prev * 0.9,
                "dropped at {nodes} nodes: {} < {prev}",
                b.bandwidth_mbs()
            );
            prev = b.bandwidth_mbs();
        }
    }
}
