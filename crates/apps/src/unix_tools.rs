//! The UNIX tools of Table II (paper §III.D) on the simulated login node.
//!
//! The paper's point: because LDPLFS interposes at the POSIX level,
//! ordinary serial tools work on PLFS containers unmodified. The measured
//! form of that claim runs the real `cp`, `cat`, `grep` and `md5sum` under
//! the `LD_PRELOAD` library (the benchmark's `unix_tools` workload,
//! `scripts/tools_account.sh`, `ldplfs-preload`'s `preload_e2e`). [`sim`] is
//! the timing model that regenerates Table II at the paper's 4 GB scale.

/// The Table II timing model on the simulated login node.
pub mod sim {
    use simfs::{FileId, Platform, SimFs, SimResult};

    /// Which file layout a tool operates on.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum FileKind {
        /// A PLFS container previously written by `droppings` processes.
        PlfsContainer {
            /// Dropping count (the paper's 4 GB container came from a
            /// parallel job).
            droppings: usize,
        },
        /// An ordinary flat file.
        Standard,
    }

    /// The tools of Table II.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Tool {
        /// `cp` reading this file into a standard file.
        CpRead,
        /// `cp` writing this file from a standard file.
        CpWrite,
        /// `cat > /dev/null`.
        Cat,
        /// `grep` (CPU-bound scan).
        Grep,
        /// `md5sum` (CPU-bound digest).
        Md5,
    }

    impl Tool {
        /// CPU cost per byte (s) on the login node, calibrated from the
        /// paper's CPU-bound rows (grep ≈ 31 MB/s, md5sum ≈ 150 MB/s).
        pub fn cpu_per_byte(self) -> f64 {
            match self {
                Tool::Grep => 1.0 / 31.0e6,
                Tool::Md5 => 1.0 / 151.0e6,
                Tool::CpRead | Tool::CpWrite | Tool::Cat => 1.0 / 2.0e9,
            }
        }

        /// All five rows of Table II.
        pub const ALL: [Tool; 5] = [
            Tool::CpRead,
            Tool::CpWrite,
            Tool::Cat,
            Tool::Grep,
            Tool::Md5,
        ];

        /// Row label as in Table II.
        pub fn label(self) -> &'static str {
            match self {
                Tool::CpRead => "cp (read)",
                Tool::CpWrite => "cp (write)",
                Tool::Cat => "cat",
                Tool::Grep => "grep",
                Tool::Md5 => "md5sum",
            }
        }
    }

    /// Prepare the on-FS file(s) a serial tool will touch, without timing.
    fn prepare(fs: &mut SimFs, kind: FileKind, size: u64) -> SimResult<Vec<(FileId, u64)>> {
        match kind {
            FileKind::Standard => {
                let (_, id) = fs.create(0.0, "/flat.dat", None)?;
                Ok(vec![(id, size)])
            }
            FileKind::PlfsContainer { droppings } => {
                fs.mkdir(0.0, "/container")?;
                let per = size / droppings as u64;
                let mut out = Vec::new();
                for d in 0..droppings {
                    let (_, id) =
                        fs.create(0.0, &format!("/container/dropping.data.{d}"), Some(1))?;
                    out.push((id, per));
                }
                Ok(out)
            }
        }
    }

    /// Seconds for one tool over one file layout at `size` bytes.
    ///
    /// Model: a serial tool issues 128 KiB requests. Reads benefit from
    /// kernel readahead (two outstanding requests, so link and server
    /// service overlap). `cp`'s read and write streams are decoupled by
    /// the page cache, so each side is timed on its own queue state and
    /// the tool finishes at the slower of the two; writes are synchronous
    /// per request (no write delegation on the shared login volume), which
    /// is what keeps the paper's cp rows near 36 MB/s against ~160 MB/s
    /// reads.
    pub fn tool_time(platform: &Platform, tool: Tool, kind: FileKind, size: u64) -> SimResult<f64> {
        const CHUNK: u64 = 128 << 10;
        const READAHEAD: usize = 2;

        // The measured file(s).
        let mut fs = SimFs::new(platform.clone());
        let pieces = prepare(&mut fs, kind, size)?;

        // Read side: which pieces are read, and on which fs instance.
        // For cp (write into the measured file) the read source is a
        // standard flat file of the same size.
        let read_pieces: Vec<(FileId, u64)> = if tool == Tool::CpWrite {
            let (_, src) = fs.create(0.0, "/cp.src", None)?;
            vec![(src, size)]
        } else {
            pieces.clone()
        };

        let mut window = std::collections::VecDeque::with_capacity(READAHEAD);
        window.push_back(0.0f64);
        let mut last_read = 0.0f64;
        let mut cpu_backlog = 0.0f64;
        let mut read_completions = Vec::new();
        for &(fid, bytes) in &read_pieces {
            let mut off = 0u64;
            while off < bytes {
                let n = CHUNK.min(bytes - off);
                let issue = if window.len() >= READAHEAD {
                    window.pop_front().unwrap()
                } else {
                    *window.front().unwrap_or(&0.0)
                };
                let r = fs.read(issue, 0, fid, off, n)?;
                window.push_back(r);
                last_read = last_read.max(r);
                read_completions.push((off, n, r));
                cpu_backlog += n as f64 * tool.cpu_per_byte();
                off += n;
            }
        }

        // Write side (cp only): synchronous chained writes on a fresh
        // queue state (the page cache decouples the two streams); each
        // write can start no earlier than its data was read.
        let mut last_write = 0.0f64;
        if tool == Tool::CpRead || tool == Tool::CpWrite {
            let mut wfs = SimFs::new(platform.clone());
            let targets: Vec<(FileId, u64)> = if tool == Tool::CpRead {
                let (_, dst) = wfs.create(0.0, "/cp.out", None)?;
                wfs.add_writer(dst)?;
                vec![(dst, size)]
            } else {
                // cp into the measured layout: recreate it on the write fs.
                let t = prepare(&mut wfs, kind, size)?;
                for &(fid, _) in &t {
                    wfs.add_writer(fid)?;
                }
                t
            };
            let mut t = 0.0f64;
            let mut ri = 0usize;
            for &(fid, bytes) in &targets {
                let mut off = 0u64;
                while off < bytes {
                    let n = CHUNK.min(bytes - off);
                    let data_ready = read_completions.get(ri).map(|&(_, _, r)| r).unwrap_or(t);
                    ri += 1;
                    t = wfs.write(t.max(data_ready), 0, fid, off, n)?;
                    last_write = last_write.max(t);
                    off += n;
                }
            }
        }

        Ok(last_read.max(last_write).max(cpu_backlog))
    }
}

#[cfg(test)]
mod tests {
    use super::sim::*;

    #[test]
    fn sim_table2_shapes() {
        let p = simfs::presets::login_node();
        let size = 256 << 20; // scaled-down for test speed; harness uses 4 GB
        let plfs = FileKind::PlfsContainer { droppings: 16 };
        let std_ = FileKind::Standard;
        // cat: roughly equal either way (within 15%).
        let cat_p = tool_time(&p, Tool::Cat, plfs, size).unwrap();
        let cat_s = tool_time(&p, Tool::Cat, std_, size).unwrap();
        assert!((cat_p / cat_s - 1.0).abs() < 0.15, "{cat_p} vs {cat_s}");
        // grep & md5sum: CPU-bound, so layout-independent (within 5%).
        let g_p = tool_time(&p, Tool::Grep, plfs, size).unwrap();
        let g_s = tool_time(&p, Tool::Grep, std_, size).unwrap();
        assert!((g_p / g_s - 1.0).abs() < 0.05);
        // cp read: PLFS no slower than standard (the paper's small win).
        let cp_p = tool_time(&p, Tool::CpRead, plfs, size).unwrap();
        let cp_s = tool_time(&p, Tool::CpRead, std_, size).unwrap();
        assert!(cp_p <= cp_s * 1.05, "{cp_p} vs {cp_s}");
        // cp is write-bound, so much slower than cat.
        assert!(cp_s > cat_s * 1.5);
    }
}
