//! UNIX tools over the POSIX layer (paper §III.D, Table II).
//!
//! The paper's point: because LDPLFS interposes at the POSIX level,
//! ordinary serial tools work on PLFS containers unmodified. Here are
//! faithful reimplementations of the four tools the paper times — written
//! against [`PosixLayer`], so the *same code* runs on plain files (via
//! `RealPosix`) and on containers (via the `LdPlfs` shim), exactly the
//! comparison of Table II.
//!
//! [`sim`] contains the timing model that regenerates Table II at the
//! paper's 4 GB scale on the simulated login node.

use ldplfs::{CFile, Errno, PosixLayer, PosixResult, Whence};
use std::sync::Arc;

/// stdio buffer multiple used by the tools (matches GNU coreutils' 128 KiB
/// advice for bulk copies).
pub const TOOL_BUF: usize = 128 << 10;

/// `cp src dst`: byte-faithful copy. Returns bytes copied.
pub fn cp(layer: &Arc<dyn PosixLayer>, src: &str, dst: &str) -> PosixResult<u64> {
    let mut from = CFile::open(layer.clone(), src, "r")?;
    let mut to = CFile::open(layer.clone(), dst, "w")?;
    let mut buf = vec![0u8; TOOL_BUF];
    let mut total = 0u64;
    loop {
        let n = from.read(&mut buf)?;
        if n == 0 {
            break;
        }
        to.write(&buf[..n])?;
        total += n as u64;
    }
    to.close()?;
    from.close()?;
    Ok(total)
}

/// `cat path` into a sink; returns bytes read (output is discarded, the
/// benchmark's `> /dev/null`).
pub fn cat(layer: &Arc<dyn PosixLayer>, path: &str) -> PosixResult<u64> {
    let mut f = CFile::open(layer.clone(), path, "r")?;
    let mut buf = vec![0u8; TOOL_BUF];
    let mut total = 0u64;
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        total += n as u64;
    }
    f.close()?;
    Ok(total)
}

/// `grep pattern path`: count lines containing the byte pattern.
pub fn grep(layer: &Arc<dyn PosixLayer>, pattern: &[u8], path: &str) -> PosixResult<u64> {
    if pattern.is_empty() {
        return Err(Errno::EINVAL);
    }
    let mut f = CFile::open(layer.clone(), path, "r")?;
    let mut line = Vec::new();
    let mut hits = 0u64;
    while f.read_line(&mut line)? {
        if contains(&line, pattern) {
            hits += 1;
        }
    }
    f.close()?;
    Ok(hits)
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// `md5sum path`: digest of the file contents.
pub fn md5sum(layer: &Arc<dyn PosixLayer>, path: &str) -> PosixResult<[u8; 16]> {
    let mut f = CFile::open(layer.clone(), path, "r")?;
    let mut buf = vec![0u8; TOOL_BUF];
    let mut h = crate::md5::Md5::new();
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        h.update(&buf[..n]);
    }
    f.close()?;
    Ok(h.finalize())
}

/// `wc`: (lines, words, bytes).
pub fn wc(layer: &Arc<dyn PosixLayer>, path: &str) -> PosixResult<(u64, u64, u64)> {
    let mut f = CFile::open(layer.clone(), path, "r")?;
    let mut buf = vec![0u8; TOOL_BUF];
    let (mut lines, mut words, mut bytes) = (0u64, 0u64, 0u64);
    let mut in_word = false;
    loop {
        let n = f.read(&mut buf)?;
        if n == 0 {
            break;
        }
        bytes += n as u64;
        for &b in &buf[..n] {
            if b == b'\n' {
                lines += 1;
            }
            if b.is_ascii_whitespace() {
                in_word = false;
            } else if !in_word {
                in_word = true;
                words += 1;
            }
        }
    }
    f.close()?;
    Ok((lines, words, bytes))
}

/// `head -c n`: the first `n` bytes.
pub fn head(layer: &Arc<dyn PosixLayer>, path: &str, n: usize) -> PosixResult<Vec<u8>> {
    let mut f = CFile::open(layer.clone(), path, "r")?;
    let mut out = vec![0u8; n];
    let mut got = 0;
    while got < n {
        let r = f.read(&mut out[got..])?;
        if r == 0 {
            break;
        }
        got += r;
    }
    out.truncate(got);
    f.close()?;
    Ok(out)
}

/// `tail -c n`: the last `n` bytes, found via `lseek(END)` — the access
/// pattern that most stresses LDPLFS's logical-EOF handling.
pub fn tail(layer: &Arc<dyn PosixLayer>, path: &str, n: u64) -> PosixResult<Vec<u8>> {
    let fd = layer.open(path, ldplfs::OpenFlags::RDONLY, 0)?;
    let size = layer.lseek(fd, 0, Whence::End)?;
    let start = size.saturating_sub(n);
    layer.lseek(fd, start as i64, Whence::Set)?;
    let mut out = vec![0u8; (size - start) as usize];
    let mut got = 0;
    while got < out.len() {
        let r = layer.read(fd, &mut out[got..])?;
        if r == 0 {
            break;
        }
        got += r;
    }
    out.truncate(got);
    layer.close(fd)?;
    Ok(out)
}

/// `cmp`: offset of the first differing byte, or `None` if identical
/// (files of different length differ at the shorter one's end).
pub fn cmp(layer: &Arc<dyn PosixLayer>, a: &str, b: &str) -> PosixResult<Option<u64>> {
    let mut fa = CFile::open(layer.clone(), a, "r")?;
    let mut fb = CFile::open(layer.clone(), b, "r")?;
    let mut ba = vec![0u8; TOOL_BUF];
    let mut bb = vec![0u8; TOOL_BUF];
    let mut off = 0u64;
    loop {
        let na = fa.read(&mut ba)?;
        let mut nb = 0;
        while nb < na {
            let r = fb.read(&mut bb[nb..na])?;
            if r == 0 {
                break;
            }
            nb += r;
        }
        if na == 0 {
            // a exhausted: identical iff b is too.
            let extra = fb.read(&mut bb[..1])?;
            return Ok(if extra == 0 { None } else { Some(off) });
        }
        if nb < na {
            return Ok(Some(off + nb as u64));
        }
        if let Some(i) = ba[..na].iter().zip(&bb[..na]).position(|(x, y)| x != y) {
            return Ok(Some(off + i as u64));
        }
        off += na as u64;
    }
}

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
    use super::*;
    use crate::md5::hex;
    use ldplfs::{LdPlfsBuilder, RealPosix};
    use plfs::{MemBacking, Plfs};

    fn shim(name: &str) -> Arc<dyn PosixLayer> {
        let dir = std::env::temp_dir().join(format!("apps-tools-{}-{}", name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let under = Arc::new(RealPosix::rooted(dir).unwrap());
        Arc::new(
            LdPlfsBuilder::new(under)
                .mount("/plfs", Plfs::new(Arc::new(MemBacking::new())))
                .build()
                .unwrap(),
        )
    }

    fn write_file(layer: &Arc<dyn PosixLayer>, path: &str, data: &[u8]) {
        let mut f = CFile::open(layer.clone(), path, "w").unwrap();
        f.write(data).unwrap();
        f.close().unwrap();
    }

    #[test]
    fn cp_between_plfs_and_plain() {
        let l = shim("cp");
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 256) as u8).collect();
        write_file(&l, "/plfs/src", &data);
        // PLFS -> plain.
        assert_eq!(cp(&l, "/plfs/src", "/out.dat").unwrap(), data.len() as u64);
        assert_eq!(md5sum(&l, "/out.dat").unwrap(), crate::md5::md5(&data));
        // plain -> PLFS.
        cp(&l, "/out.dat", "/plfs/back").unwrap();
        assert_eq!(md5sum(&l, "/plfs/back").unwrap(), crate::md5::md5(&data));
    }

    #[test]
    fn cat_counts_all_bytes() {
        let l = shim("cat");
        write_file(&l, "/plfs/f", &vec![9u8; 300_001]);
        assert_eq!(cat(&l, "/plfs/f").unwrap(), 300_001);
    }

    #[test]
    fn grep_finds_lines_in_container() {
        let l = shim("grep");
        let text = b"error: one\nok\nanother error here\nfin\n";
        write_file(&l, "/plfs/log", text);
        assert_eq!(grep(&l, b"error", "/plfs/log").unwrap(), 2);
        assert_eq!(grep(&l, b"absent", "/plfs/log").unwrap(), 0);
        assert_eq!(grep(&l, b"", "/plfs/log"), Err(Errno::EINVAL));
    }

    #[test]
    fn md5_identical_across_layouts() {
        let l = shim("md5");
        let data: Vec<u8> = (0..77_777u32).map(|i| (i * 31 % 256) as u8).collect();
        write_file(&l, "/plfs/a", &data);
        write_file(&l, "/plain", &data);
        let a = md5sum(&l, "/plfs/a").unwrap();
        let b = md5sum(&l, "/plain").unwrap();
        assert_eq!(hex(&a), hex(&b), "same bytes, same digest, either layout");
    }

    #[test]
    fn file_size_via_lseek_end() {
        let l = shim("size");
        write_file(&l, "/plfs/f", &[1u8; 4242]);
        let fd = l.open("/plfs/f", ldplfs::OpenFlags::RDONLY, 0).unwrap();
        assert_eq!(l.lseek(fd, 0, Whence::End).unwrap(), 4242);
        l.close(fd).unwrap();
    }

    #[test]
    fn wc_counts_match_content() {
        let l = shim("wc");
        write_file(&l, "/plfs/t", b"one two\nthree\n\nfour five six\n");
        let (lines, words, bytes) = wc(&l, "/plfs/t").unwrap();
        assert_eq!(lines, 4);
        assert_eq!(words, 6);
        assert_eq!(bytes, 29);
    }

    #[test]
    fn head_and_tail_slice_correctly() {
        let l = shim("ht");
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        write_file(&l, "/plfs/d", &data);
        assert_eq!(head(&l, "/plfs/d", 100).unwrap(), &data[..100]);
        assert_eq!(tail(&l, "/plfs/d", 100).unwrap(), &data[data.len() - 100..]);
        // Requests larger than the file clamp.
        assert_eq!(head(&l, "/plfs/d", 1 << 20).unwrap(), data);
        assert_eq!(tail(&l, "/plfs/d", 1 << 20).unwrap(), data);
    }

    #[test]
    fn cmp_finds_first_difference() {
        let l = shim("cmp");
        write_file(&l, "/plfs/a", b"identical prefix XX tail");
        write_file(&l, "/plfs/b", b"identical prefix YY tail");
        write_file(&l, "/same", b"identical prefix XX tail");
        assert_eq!(cmp(&l, "/plfs/a", "/plfs/b").unwrap(), Some(17));
        assert_eq!(cmp(&l, "/plfs/a", "/same").unwrap(), None);
        write_file(&l, "/short", b"identical");
        assert_eq!(cmp(&l, "/plfs/a", "/short").unwrap(), Some(9));
    }

    #[test]
    fn sim_table2_shapes() {
        use super::sim::*;
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
