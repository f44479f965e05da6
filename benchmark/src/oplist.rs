//! The op-list format shared by the harness (which generates it) and
//! `posix_app` (which executes it). Dependency-free: `posix_app` pulls this
//! file in with `#[path]` so that it links no crate of the repo.
//!
//! File layout, little-endian: magic `OPL1`, `u32` path count, each path as
//! `u32` length + bytes, `u64` op count, then four `u64` words per op
//! (kind, a, b, c). Paths are names relative to a base directory the client
//! is given, so one file drives both arms.

pub const O_RDONLY: u32 = 0o0;
pub const O_WRONLY: u32 = 0o1;
pub const O_RDWR: u32 = 0o2;
pub const O_CREAT: u32 = 0o100;
pub const O_TRUNC: u32 = 0o1000;

const MAGIC: &[u8; 4] = b"OPL1";

/// One application-level call. A client has one descriptor at a time:
/// `Open` sets it, `Close` releases it, the data ops use it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Open {
        path: u32,
        flags: u32,
    },
    Close,
    /// Write `len` bytes of the payload buffer starting at `src`.
    Pwrite {
        off: u64,
        len: u32,
        src: u32,
    },
    Pread {
        off: u64,
        len: u32,
    },
    Write {
        len: u32,
        src: u32,
    },
    Read {
        len: u32,
    },
    Fsync,
    /// `stat` the path and expect this size.
    Stat {
        path: u32,
        size: u64,
    },
    Unlink {
        path: u32,
    },
}

/// Names used in span dumps and metric names, indexed by [`Op::kind`].
pub const OP_NAMES: [&str; 9] = [
    "open", "close", "pwrite", "pread", "write", "read", "fsync", "stat", "unlink",
];

impl Op {
    pub fn kind(&self) -> usize {
        match self {
            Op::Open { .. } => 0,
            Op::Close => 1,
            Op::Pwrite { .. } => 2,
            Op::Pread { .. } => 3,
            Op::Write { .. } => 4,
            Op::Read { .. } => 5,
            Op::Fsync => 6,
            Op::Stat { .. } => 7,
            Op::Unlink { .. } => 8,
        }
    }

    pub fn name(&self) -> &'static str {
        OP_NAMES[self.kind()]
    }

    fn words(&self) -> [u64; 4] {
        let k = self.kind() as u64;
        match *self {
            Op::Open { path, flags } => [k, path as u64, flags as u64, 0],
            Op::Close | Op::Fsync => [k, 0, 0, 0],
            Op::Pwrite { off, len, src } => [k, off, len as u64, src as u64],
            Op::Pread { off, len } => [k, off, len as u64, 0],
            Op::Write { len, src } => [k, 0, len as u64, src as u64],
            Op::Read { len } => [k, 0, len as u64, 0],
            Op::Stat { path, size } => [k, path as u64, size, 0],
            Op::Unlink { path } => [k, path as u64, 0, 0],
        }
    }

    fn from_words(w: [u64; 4]) -> Result<Op, String> {
        let n = |v: u64| u32::try_from(v).map_err(|_| format!("op field {v} out of range"));
        Ok(match w[0] {
            0 => Op::Open {
                path: n(w[1])?,
                flags: n(w[2])?,
            },
            1 => Op::Close,
            2 => Op::Pwrite {
                off: w[1],
                len: n(w[2])?,
                src: n(w[3])?,
            },
            3 => Op::Pread {
                off: w[1],
                len: n(w[2])?,
            },
            4 => Op::Write {
                len: n(w[2])?,
                src: n(w[3])?,
            },
            5 => Op::Read { len: n(w[2])? },
            6 => Op::Fsync,
            7 => Op::Stat {
                path: n(w[1])?,
                size: w[2],
            },
            8 => Op::Unlink { path: n(w[1])? },
            k => return Err(format!("unknown op kind {k}")),
        })
    }
}

/// One client's whole call sequence.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OpList {
    pub paths: Vec<String>,
    pub ops: Vec<Op>,
}

impl OpList {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.ops.len() * 32);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.paths.len() as u32).to_le_bytes());
        for p in &self.paths {
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(p.as_bytes());
        }
        out.extend_from_slice(&(self.ops.len() as u64).to_le_bytes());
        for op in &self.ops {
            for w in op.words() {
                out.extend_from_slice(&w.to_le_bytes());
            }
        }
        out
    }

    /// Decode and validate: every path index is in the table and every
    /// payload range lies inside a payload of `payload_len` bytes.
    pub fn decode(buf: &[u8], payload_len: usize) -> Result<OpList, String> {
        let mut pos = 0usize;
        let mut take = |n: usize| -> Result<&[u8], String> {
            let end = pos.checked_add(n).filter(|&e| e <= buf.len());
            let end = end.ok_or_else(|| "op list truncated".to_string())?;
            let s = &buf[pos..end];
            pos = end;
            Ok(s)
        };
        if take(4)? != MAGIC {
            return Err("not an op list (bad magic)".into());
        }
        let npaths = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
        let mut paths = Vec::new();
        for _ in 0..npaths {
            let len = u32::from_le_bytes(take(4)?.try_into().unwrap()) as usize;
            let s = std::str::from_utf8(take(len)?).map_err(|e| e.to_string())?;
            paths.push(s.to_string());
        }
        let nops = u64::from_le_bytes(take(8)?.try_into().unwrap());
        let nops = usize::try_from(nops)
            .ok()
            .filter(|n| n.checked_mul(32).is_some_and(|b| b <= buf.len()))
            .ok_or_else(|| "op count exceeds file size".to_string())?;
        let mut ops = Vec::with_capacity(nops);
        for _ in 0..nops {
            let raw = take(32)?;
            let mut w = [0u64; 4];
            for (i, c) in raw.chunks_exact(8).enumerate() {
                w[i] = u64::from_le_bytes(c.try_into().unwrap());
            }
            let op = Op::from_words(w)?;
            match op {
                Op::Open { path, .. } | Op::Stat { path, .. } | Op::Unlink { path }
                    if path as usize >= paths.len() =>
                {
                    return Err(format!("path index {path} out of range"));
                }
                Op::Pwrite { len, src, .. } | Op::Write { len, src }
                    if src as usize + len as usize > payload_len =>
                {
                    return Err(format!("payload range {src}+{len} out of range"));
                }
                _ => {}
            }
            ops.push(op);
        }
        Ok(OpList { paths, ops })
    }

    /// Longest buffer any read op needs.
    pub fn max_read_len(&self) -> usize {
        let lens = self.ops.iter().map(|op| match *op {
            Op::Pread { len, .. } | Op::Read { len } => len as usize,
            _ => 0,
        });
        lens.max().unwrap_or(0)
    }
}

/// Order-sensitive checksum of everything a client read; the harness folds
/// the same function over its model to check the client's answer.
pub fn fold(mut acc: u64, bytes: &[u8]) -> u64 {
    // Rotate-and-add: two cycles per word, so checking costs the clients
    // far less than the reads it checks.
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        acc = acc
            .rotate_left(5)
            .wrapping_add(u64::from_le_bytes(c.try_into().unwrap()));
    }
    for &b in chunks.remainder() {
        acc = acc.rotate_left(5).wrapping_add(b as u64);
    }
    acc
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_MONOTONIC` in nanoseconds: one clock for the harness and every
/// client process, so spans from different processes line up.
pub fn now_ns() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec; clock id 1 is CLOCK_MONOTONIC.
    unsafe { clock_gettime(1, &mut ts) };
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}
