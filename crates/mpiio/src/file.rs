//! `MpiFile`: the MPI-IO file interface over an ADIO driver.
//!
//! Implements independent (`write_at`/`read_at`) and collective
//! (`write_at_all`/`read_at_all`) operations. Collective calls run ROMIO's
//! two-phase scheme: synchronise, exchange data to one aggregator per node
//! over the node links, aggregators issue large contiguous file requests,
//! synchronise again. This is the "collective buffering enabled in its
//! default configuration" of the paper's §III.C.

use crate::adio::{AdioDriver, IoReq, Method};
use crate::comm::Job;
use crate::hints::MpiInfo;
use crate::writeops::{Access, RankIo};
use simfs::{SimFs, SimResult};

/// An open MPI file.
pub struct MpiFile {
    driver: Box<dyn AdioDriver>,
    info: MpiInfo,
    path: String,
    views: Vec<Option<crate::view::FileView>>,
}

fn rank_tuples(job: &Job) -> Vec<(usize, usize, f64)> {
    (0..job.ranks())
        .map(|r| (r, job.node_of(r), job.time(r)))
        .collect()
}

impl MpiFile {
    /// Collective open (all ranks participate), creating if requested.
    pub fn open(
        fs: &mut SimFs,
        job: &mut Job,
        path: &str,
        create: bool,
        method: Method,
        info: MpiInfo,
        num_hostdirs: u32,
    ) -> SimResult<MpiFile> {
        let mut driver = method.driver(num_hostdirs);
        job.barrier();
        let completions = driver.open(fs, path, create, &rank_tuples(job))?;
        for (r, c) in completions.into_iter().enumerate() {
            job.set_time(r, c.max(job.time(r)));
        }
        job.barrier();
        Ok(MpiFile {
            driver,
            info,
            path: path.to_string(),
            views: vec![None; job.ranks()],
        })
    }

    /// The file's path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// `MPI_File_set_view` for one rank: subsequent `write_view` /
    /// `read_view` offsets are interpreted through the view.
    pub fn set_view(&mut self, rank: usize, view: crate::view::FileView) {
        self.views[rank] = Some(view);
    }

    /// Independent write at a *view-relative* offset: the view's strided
    /// extents are lowered onto the file. A non-contiguous lowering is the
    /// pattern data sieving targets, so extents are issued as strided
    /// accesses.
    pub fn write_view(
        &mut self,
        fs: &mut SimFs,
        job: &mut Job,
        rank: usize,
        view_off: u64,
        len: u64,
    ) -> SimResult<f64> {
        let Some(view) = self.views[rank] else {
            return self.write_at(fs, job, rank, view_off, len, Access::Contiguous);
        };
        let extents = view.map_region(view_off, len);
        let node = job.node_of(rank);
        // Noncontiguous lowering: hand the whole extent vector to the
        // driver's list path when it has one — otherwise extent-by-extent,
        // which on UFS is the data-sieving fallback.
        if extents.len() > 1 && self.info.list_io && self.driver.supports_list_io() {
            let t0 = iotrace::global().start();
            let c = self
                .driver
                .write_list(fs, job.time(rank), rank, node, &extents)?;
            if let Some(t0) = t0 {
                iotrace::global().record(
                    t0,
                    iotrace::OpEvent::new(iotrace::Layer::Mpi, iotrace::OpKind::ListWrite)
                        .path(&self.path)
                        .offset(extents[0].0)
                        .bytes(len),
                );
            }
            job.set_time(rank, c);
            return Ok(c);
        }
        let access = if extents.len() > 1 {
            Access::Strided
        } else {
            Access::Contiguous
        };
        if access == Access::Strided {
            if let Some(t0) = iotrace::global().start() {
                iotrace::global().record(
                    t0,
                    iotrace::OpEvent::new(iotrace::Layer::Mpi, iotrace::OpKind::SieveFallback)
                        .path(&self.path)
                        .offset(extents[0].0)
                        .bytes(len),
                );
            }
        }
        let mut c = job.time(rank);
        for (off, elen) in extents {
            let req = IoReq {
                rank,
                node,
                offset: off,
                len: elen,
                access,
            };
            c = self.driver.write_at(fs, c, req)?;
        }
        job.set_time(rank, c);
        Ok(c)
    }

    /// Independent read at a view-relative offset.
    pub fn read_view(
        &mut self,
        fs: &mut SimFs,
        job: &mut Job,
        rank: usize,
        view_off: u64,
        len: u64,
    ) -> SimResult<f64> {
        let Some(view) = self.views[rank] else {
            return self.read_at(fs, job, rank, view_off, len, Access::Contiguous);
        };
        let extents = view.map_region(view_off, len);
        let node = job.node_of(rank);
        if extents.len() > 1 && self.info.list_io && self.driver.supports_list_io() {
            let t0 = iotrace::global().start();
            let c = self
                .driver
                .read_list(fs, job.time(rank), rank, node, &extents)?;
            if let Some(t0) = t0 {
                iotrace::global().record(
                    t0,
                    iotrace::OpEvent::new(iotrace::Layer::Mpi, iotrace::OpKind::ListRead)
                        .path(&self.path)
                        .offset(extents[0].0)
                        .bytes(len),
                );
            }
            job.set_time(rank, c);
            return Ok(c);
        }
        let access = if extents.len() > 1 {
            Access::Strided
        } else {
            Access::Contiguous
        };
        if access == Access::Strided {
            if let Some(t0) = iotrace::global().start() {
                iotrace::global().record(
                    t0,
                    iotrace::OpEvent::new(iotrace::Layer::Mpi, iotrace::OpKind::SieveFallback)
                        .path(&self.path)
                        .offset(extents[0].0)
                        .bytes(len),
                );
            }
        }
        let mut c = job.time(rank);
        for (off, elen) in extents {
            let req = IoReq {
                rank,
                node,
                offset: off,
                len: elen,
                access,
            };
            c = self.driver.read_at(fs, c, req)?;
        }
        job.set_time(rank, c);
        Ok(c)
    }

    /// Independent positional write from `rank`; advances the rank clock
    /// and returns the completion time.
    pub fn write_at(
        &mut self,
        fs: &mut SimFs,
        job: &mut Job,
        rank: usize,
        offset: u64,
        len: u64,
        access: Access,
    ) -> SimResult<f64> {
        let req = IoReq {
            rank,
            node: job.node_of(rank),
            offset,
            len,
            access,
        };
        let c = self.driver.write_at(fs, job.time(rank), req)?;
        job.set_time(rank, c);
        Ok(c)
    }

    /// Independent positional read from `rank`.
    pub fn read_at(
        &mut self,
        fs: &mut SimFs,
        job: &mut Job,
        rank: usize,
        offset: u64,
        len: u64,
        access: Access,
    ) -> SimResult<f64> {
        let req = IoReq {
            rank,
            node: job.node_of(rank),
            offset,
            len,
            access,
        };
        let c = self.driver.read_at(fs, job.time(rank), req)?;
        job.set_time(rank, c);
        Ok(c)
    }

    /// Collective write: one [`RankIo`] per rank. Returns the release time
    /// (all clocks aligned to it).
    pub fn write_at_all(
        &mut self,
        fs: &mut SimFs,
        job: &mut Job,
        ios: &[RankIo],
    ) -> SimResult<f64> {
        self.collective(fs, job, ios, true)
    }

    /// Collective read: two-phase in reverse (aggregators read, scatter).
    pub fn read_at_all(&mut self, fs: &mut SimFs, job: &mut Job, ios: &[RankIo]) -> SimResult<f64> {
        self.collective(fs, job, ios, false)
    }

    fn collective(
        &mut self,
        fs: &mut SimFs,
        job: &mut Job,
        ios: &[RankIo],
        is_write: bool,
    ) -> SimResult<f64> {
        assert_eq!(ios.len(), job.ranks(), "one RankIo per rank");
        let t0 = job.barrier();
        let volume: u64 = ios.iter().map(|io| io.len).sum();
        if volume == 0 {
            return Ok(job.barrier());
        }

        if !self.info.cb_enable {
            // Degenerate: independent transfers plus barriers.
            for (r, io) in ios.iter().enumerate() {
                if io.len == 0 {
                    continue;
                }
                let req = IoReq {
                    rank: r,
                    node: job.node_of(r),
                    offset: io.offset,
                    len: io.len,
                    access: Access::Strided,
                };
                let c = if is_write {
                    self.driver.write_at(fs, t0, req)?
                } else {
                    self.driver.read_at(fs, t0, req)?
                };
                job.set_time(r, c);
            }
            return Ok(job.barrier());
        }

        // Two-phase: shuffle to aggregators, then large contiguous file ops.
        let aggs: Vec<usize> = job
            .aggregator_ranks()
            .into_iter()
            .flat_map(|lead| (0..self.info.cb_aggregators_per_node.max(1)).map(move |i| lead + i))
            .filter(|&r| r < job.ranks())
            .collect();
        let nagg = aggs.len() as u64;

        let lo = ios
            .iter()
            .filter(|io| io.len > 0)
            .map(|io| io.offset)
            .min()
            .unwrap_or(0);
        let hi = ios.iter().map(|io| io.offset + io.len).max().unwrap_or(0);
        let span = hi - lo;
        let region = span.div_ceil(nagg);

        // Exchange: each aggregator gathers (or scatters) its region's bytes
        // over its node link; charged as volume/aggregator at link speed
        // plus one collective latency.
        let link_bw = fs.platform().cluster.link_bw;
        let exchange = (volume as f64 / nagg as f64) / link_bw + job.collective_latency();

        // Rounds bounded by the collective buffer size.
        let rounds = region.div_ceil(self.info.cb_buffer_size.max(1));
        let mut t = t0;
        let mut release = t0;
        for round in 0..rounds {
            let t_round = t + exchange / rounds as f64;
            let mut round_done = t_round;
            for (i, &agg) in aggs.iter().enumerate() {
                let a_lo = lo + i as u64 * region + round * self.info.cb_buffer_size;
                let a_hi = (lo + (i as u64 + 1) * region)
                    .min(hi)
                    .min(a_lo + self.info.cb_buffer_size);
                if a_lo >= a_hi {
                    continue;
                }
                let req = IoReq {
                    rank: agg,
                    node: job.node_of(agg),
                    offset: a_lo,
                    len: a_hi - a_lo,
                    access: Access::Contiguous,
                };
                let c = if is_write {
                    self.driver.write_at(fs, t_round, req)?
                } else {
                    self.driver.read_at(fs, t_round, req)?
                };
                round_done = round_done.max(c);
            }
            t = round_done;
            release = round_done;
        }
        for r in 0..job.ranks() {
            job.set_time(r, release);
        }
        Ok(job.barrier())
    }

    /// Collective close.
    pub fn close(mut self, fs: &mut SimFs, job: &mut Job) -> SimResult<f64> {
        job.barrier();
        let completions = self.driver.close(fs, &rank_tuples(job))?;
        for (r, c) in completions.into_iter().enumerate() {
            job.set_time(r, c.max(job.time(r)));
        }
        Ok(job.barrier())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::presets;

    const MIB: u64 = 1 << 20;

    fn setup(ranks: usize, ppn: usize) -> (SimFs, Job) {
        (SimFs::new(presets::toy()), Job::new(ranks, ppn))
    }

    fn open(fs: &mut SimFs, job: &mut Job, method: Method) -> MpiFile {
        MpiFile::open(fs, job, "/out", true, method, MpiInfo::default(), 4).unwrap()
    }

    #[test]
    fn collective_write_moves_all_bytes() {
        let (mut fs, mut job) = setup(4, 2);
        let mut f = open(&mut fs, &mut job, Method::MpiIo);
        let ios: Vec<RankIo> = (0..4)
            .map(|r| RankIo {
                offset: r as u64 * 2 * MIB,
                len: 2 * MIB,
            })
            .collect();
        let release = f.write_at_all(&mut fs, &mut job, &ios).unwrap();
        assert!(release > 0.0);
        assert_eq!(fs.stats().bytes_written, 8 * MIB);
        // All clocks aligned.
        for r in 0..4 {
            assert_eq!(job.time(r), release);
        }
        f.close(&mut fs, &mut job).unwrap();
    }

    #[test]
    fn collective_uses_one_aggregator_per_node() {
        let (mut fs, mut job) = setup(4, 2);
        let mut f = open(&mut fs, &mut job, Method::Romio);
        let ios: Vec<RankIo> = (0..4)
            .map(|r| RankIo {
                offset: r as u64 * MIB,
                len: MIB,
            })
            .collect();
        f.write_at_all(&mut fs, &mut job, &ios).unwrap();
        f.close(&mut fs, &mut job).unwrap();
        // 2 nodes => 2 aggregators => 2 data droppings, not 4. Count the
        // write ops against dropping files via stats: 2 data writes (+2
        // index flushes + meta at close).
        let s = fs.stats();
        assert_eq!(
            s.bytes_written,
            4 * MIB + 2 * 48,
            "2 aggregator index flushes"
        );
    }

    #[test]
    fn independent_write_advances_only_issuer() {
        let (mut fs, mut job) = setup(4, 2);
        let mut f = open(&mut fs, &mut job, Method::Ldplfs);
        let before = job.time(1);
        f.write_at(&mut fs, &mut job, 0, 0, 4 * MIB, Access::Contiguous)
            .unwrap();
        assert!(job.time(0) > before);
        assert_eq!(job.time(1), before, "rank 1 clock untouched");
    }

    #[test]
    fn zero_volume_collective_is_cheap() {
        let (mut fs, mut job) = setup(2, 2);
        let mut f = open(&mut fs, &mut job, Method::MpiIo);
        let ios = vec![RankIo { offset: 0, len: 0 }; 2];
        let release = f.write_at_all(&mut fs, &mut job, &ios).unwrap();
        assert!(release < 0.01, "no data: barrier cost only, got {release}");
    }

    #[test]
    fn cb_disabled_falls_back_to_independent() {
        let (mut fs, mut job) = setup(4, 2);
        let info = MpiInfo {
            cb_enable: false,
            ..Default::default()
        };
        let mut f = MpiFile::open(&mut fs, &mut job, "/out", true, Method::MpiIo, info, 4).unwrap();
        let ios: Vec<RankIo> = (0..4)
            .map(|r| RankIo {
                offset: r as u64 * MIB,
                len: MIB,
            })
            .collect();
        f.write_at_all(&mut fs, &mut job, &ios).unwrap();
        assert!(fs.stats().bytes_written + fs.stats().bytes_read >= 4 * MIB);
    }

    #[test]
    fn collective_read_after_write() {
        let (mut fs, mut job) = setup(4, 2);
        let mut f = open(&mut fs, &mut job, Method::Romio);
        let ios: Vec<RankIo> = (0..4)
            .map(|r| RankIo {
                offset: r as u64 * MIB,
                len: MIB,
            })
            .collect();
        f.write_at_all(&mut fs, &mut job, &ios).unwrap();
        let t_before = job.time(0);
        f.read_at_all(&mut fs, &mut job, &ios).unwrap();
        assert!(job.time(0) > t_before);
        assert_eq!(fs.stats().bytes_read, 4 * MIB);
    }

    #[test]
    fn views_lower_to_strided_writes() {
        let (mut fs, mut job) = setup(4, 2);
        let mut f = open(&mut fs, &mut job, Method::MpiIo);
        // Each rank writes "contiguously" through an interleaved view.
        for r in 0..4 {
            f.set_view(r, crate::view::FileView::interleaved(r, 4, 64 * 1024));
        }
        for r in 0..4 {
            f.write_view(&mut fs, &mut job, r, 0, 256 * 1024).unwrap();
        }
        // Each 64 KiB strided extent triggers a 512 KiB sieve
        // read-modify-write on the POSIX path: amplification is the point.
        let s = fs.stats();
        assert!(
            s.bytes_written >= 4 * 256 * 1024,
            "at least the logical bytes: {}",
            s.bytes_written
        );
        assert!(s.bytes_read > 0, "sieve RMW reads");
        assert!(s.write_ops >= 16, "one op per strided extent");
    }

    #[test]
    fn views_on_plfs_route_to_list_io() {
        // Same interleaved views as above, but on the list-capable driver:
        // one batched append per write_view call, no sieve reads, and one
        // index record per call rather than one per extent.
        let (mut fs, mut job) = setup(4, 2);
        let mut f = open(&mut fs, &mut job, Method::Romio);
        for r in 0..4 {
            f.set_view(r, crate::view::FileView::interleaved(r, 4, 64 * 1024));
        }
        for r in 0..4 {
            f.write_view(&mut fs, &mut job, r, 0, 256 * 1024).unwrap();
        }
        let s = fs.stats();
        assert_eq!(s.bytes_written, 4 * 256 * 1024, "no sieve amplification");
        assert_eq!(s.bytes_read, 0, "no RMW reads on the list path");
        f.close(&mut fs, &mut job).unwrap();
        // Close flushes exactly one buffered index record per rank.
        assert_eq!(
            fs.stats().bytes_written,
            4 * 256 * 1024 + 4 * 48,
            "one index record per write_view batch"
        );
    }

    #[test]
    fn list_io_hint_off_restores_per_extent_lowering() {
        let run = |list_io: bool| -> u64 {
            let (mut fs, mut job) = setup(2, 2);
            let info = MpiInfo {
                list_io,
                ..Default::default()
            };
            let mut f =
                MpiFile::open(&mut fs, &mut job, "/out", true, Method::Romio, info, 4).unwrap();
            f.set_view(0, crate::view::FileView::interleaved(0, 2, 64 * 1024));
            f.write_view(&mut fs, &mut job, 0, 0, 256 * 1024).unwrap();
            fs.stats().write_ops
        };
        let listed = run(true);
        let fallback = run(false);
        assert!(
            fallback > listed,
            "hint off must pay one write op per extent: {fallback} vs {listed}"
        );
    }

    #[test]
    fn list_read_serves_noncontiguous_views_in_one_op() {
        let (mut fs, mut job) = setup(2, 2);
        let mut f = open(&mut fs, &mut job, Method::Romio);
        f.set_view(0, crate::view::FileView::interleaved(0, 2, 64 * 1024));
        f.write_view(&mut fs, &mut job, 0, 0, 256 * 1024).unwrap();
        let ops_before = fs.stats().read_ops;
        f.read_view(&mut fs, &mut job, 0, 0, 256 * 1024).unwrap();
        let s = fs.stats();
        assert_eq!(s.bytes_read, 256 * 1024);
        assert_eq!(s.read_ops - ops_before, 1, "one fan-out read per batch");
    }

    #[test]
    fn contiguous_view_behaves_like_write_at() {
        let (mut fs, mut job) = setup(2, 2);
        let mut f = open(&mut fs, &mut job, Method::Romio);
        f.set_view(0, crate::view::FileView::contiguous(1024));
        f.write_view(&mut fs, &mut job, 0, 0, 4096).unwrap();
        assert_eq!(fs.stats().bytes_written, 4096, "no sieving when contiguous");
        // Reading back through the view charges reads.
        f.read_view(&mut fs, &mut job, 0, 0, 4096).unwrap();
        assert_eq!(fs.stats().bytes_read, 4096);
    }

    #[test]
    fn large_collectives_split_into_rounds() {
        let (mut fs, mut job) = setup(2, 2);
        let info = MpiInfo {
            cb_buffer_size: MIB,
            ..Default::default()
        };
        let mut f = MpiFile::open(&mut fs, &mut job, "/out", true, Method::MpiIo, info, 4).unwrap();
        // 8 MiB through a 1 MiB collective buffer: must still all land.
        let ios = vec![
            RankIo {
                offset: 0,
                len: 4 * MIB,
            },
            RankIo {
                offset: 4 * MIB,
                len: 4 * MIB,
            },
        ];
        f.write_at_all(&mut fs, &mut job, &ios).unwrap();
        assert_eq!(fs.stats().bytes_written, 8 * MIB);
        assert!(
            fs.stats().write_ops >= 8,
            "several rounds of buffer-size writes"
        );
    }
}
