//! The paper's "unmodified application": a client that executes an op list
//! with plain libc calls and knows nothing of PLFS. It links no crate of the
//! repo (the op-list format is pulled in as a source file), so running it
//! with and without `LD_PRELOAD` compares exactly the shim.
//!
//! ```text
//! posix_app --ops FILE --payload FILE --base DIR [--per-call FILE]
//! ```
//!
//! Prints `ops=<n> failed=<n> read_bytes=<n> read_sum=<hex>` and exits 1 if
//! any call failed, came back short, or a `stat` size was wrong. With
//! `--per-call` every call is timed and the spans
//! (`<op> <flags> <start_ns> <end_ns> <bytes>`, one per line, kept in memory
//! until the last call returned) are written to the given file.

#[path = "../oplist.rs"]
#[allow(dead_code)]
mod oplist;

use oplist::{fold, now_ns, Op, OpList};
use std::ffi::CString;
use std::fmt::Write as _;
use std::os::raw::{c_char, c_int, c_void};
use std::process::ExitCode;

/// `struct stat` on 64-bit Linux is 144 bytes with `st_size` at byte 48.
#[repr(C)]
struct CStat([i64; 18]);

extern "C" {
    fn open(path: *const c_char, flags: c_int, ...) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn pread(fd: c_int, buf: *mut c_void, count: usize, off: i64) -> isize;
    fn pwrite(fd: c_int, buf: *const c_void, count: usize, off: i64) -> isize;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn fsync(fd: c_int) -> c_int;
    fn stat(path: *const c_char, out: *mut CStat) -> c_int;
    fn unlink(path: *const c_char) -> c_int;
}

struct Args {
    ops: String,
    payload: String,
    base: String,
    per_call: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut ops = None;
    let mut payload = None;
    let mut base = None;
    let mut per_call = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--ops" => ops = Some(value),
            "--payload" => payload = Some(value),
            "--base" => base = Some(value),
            "--per-call" => per_call = Some(value),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        ops: ops.ok_or("--ops is required")?,
        payload: payload.ok_or("--payload is required")?,
        base: base.ok_or("--base is required")?,
        per_call,
    })
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let payload = std::fs::read(&args.payload).map_err(|e| format!("{}: {e}", args.payload))?;
    let raw = std::fs::read(&args.ops).map_err(|e| format!("{}: {e}", args.ops))?;
    let list = OpList::decode(&raw, payload.len())?;
    let paths: Vec<CString> = list
        .paths
        .iter()
        .map(|p| CString::new(format!("{}/{p}", args.base)).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut buf = vec![0u8; list.max_read_len()];
    let mut spans: Vec<(Op, u64, u64, u64)> = Vec::with_capacity(if args.per_call.is_some() {
        list.ops.len()
    } else {
        0
    });

    let mut fd: c_int = -1;
    let (mut failed, mut read_bytes, mut read_sum) = (0u64, 0u64, 0u64);
    for &op in &list.ops {
        let t0 = if args.per_call.is_some() { now_ns() } else { 0 };
        // Each arm returns (succeeded, bytes moved).
        // SAFETY (all arms): pointers come from live CStrings / Vecs whose
        // lengths bound the counts passed; `fd` is whatever open returned.
        let (ok, bytes) = match op {
            Op::Open { path, flags } => {
                fd = unsafe { open(paths[path as usize].as_ptr(), flags as c_int, 0o644) };
                (fd >= 0, 0)
            }
            Op::Close => {
                let rc = unsafe { close(fd) };
                fd = -1;
                (rc == 0, 0)
            }
            Op::Pwrite { off, len, src } => {
                let s = &payload[src as usize..][..len as usize];
                let n = unsafe { pwrite(fd, s.as_ptr().cast(), s.len(), off as i64) };
                (n == len as isize, len as u64)
            }
            Op::Write { len, src } => {
                let s = &payload[src as usize..][..len as usize];
                let n = unsafe { write(fd, s.as_ptr().cast(), s.len()) };
                (n == len as isize, len as u64)
            }
            Op::Pread { off, len } => {
                let b = &mut buf[..len as usize];
                let n = unsafe { pread(fd, b.as_mut_ptr().cast(), b.len(), off as i64) };
                (n == len as isize, len as u64)
            }
            Op::Read { len } => {
                let b = &mut buf[..len as usize];
                let n = unsafe { read(fd, b.as_mut_ptr().cast(), b.len()) };
                (n == len as isize, len as u64)
            }
            Op::Fsync => (unsafe { fsync(fd) } == 0, 0),
            Op::Stat { path, size } => {
                let mut st = CStat([0; 18]);
                let rc = unsafe { stat(paths[path as usize].as_ptr(), &mut st) };
                (rc == 0 && st.0[6] as u64 == size, 0)
            }
            Op::Unlink { path } => (unsafe { unlink(paths[path as usize].as_ptr()) } == 0, 0),
        };
        if args.per_call.is_some() {
            spans.push((op, t0, now_ns(), bytes));
        }
        if !ok {
            if failed == 0 {
                // Read errno before anything else can overwrite it.
                let err = std::io::Error::last_os_error();
                eprintln!("posix_app: first failure: {op:?}: {err}");
            }
            failed += 1;
        } else if let Op::Pread { len, .. } | Op::Read { len } = op {
            read_bytes += len as u64;
            read_sum = fold(read_sum, &buf[..len as usize]);
        }
    }

    if let Some(path) = &args.per_call {
        let mut out = String::with_capacity(spans.len() * 48);
        for (op, t0, t1, bytes) in &spans {
            let flags = match op {
                Op::Open { flags, .. } => *flags,
                _ => 0,
            };
            let _ = writeln!(out, "{} {flags} {t0} {t1} {bytes}", op.name());
        }
        std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))?;
    }
    println!(
        "ops={} failed={failed} read_bytes={read_bytes} read_sum={read_sum:x}",
        list.ops.len()
    );
    Ok(failed == 0)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("posix_app: {e}");
            ExitCode::from(2)
        }
    }
}
