//! Client processes. They are started by a *spawner*: a copy of this binary
//! launched before the harness has allocated anything, which starts the
//! clients it is told to, reaps them with `wait4`, and reports the kernel's
//! accounting (CPU time, peak RSS).
//!
//! The detour is what makes `peak_rss_MB` a client's own: `ru_maxrss`
//! survives `exec`, so a client started directly by the harness would
//! report at least the harness's peak (models of hundreds of MiB).

use crate::oplist::now_ns;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// One client to start: program and arguments, its whole environment.
pub struct Cmd {
    pub argv: Vec<String>,
    pub env: Vec<(String, String)>,
    /// Return the client's stdout (otherwise it goes to `/dev/null`).
    pub capture: bool,
}

impl Cmd {
    /// The harness environment minus everything that could configure the
    /// shim, which [`Cmd::under_preload`] then sets explicitly. Defaults
    /// are what is measured.
    pub fn new(program: &Path) -> Cmd {
        let keep = |k: &str| !(k.starts_with("LDPLFS_") || k == "LD_PRELOAD" || k == "PLFSRC");
        Cmd {
            argv: vec![program.to_string_lossy().into_owned()],
            env: std::env::vars().filter(|(k, _)| keep(k)).collect(),
            capture: false,
        }
    }

    pub fn arg(mut self, a: impl AsRef<Path>) -> Cmd {
        self.argv.push(a.as_ref().to_string_lossy().into_owned());
        self
    }

    /// Put the client under the real preload library, mounted on `mount`
    /// with containers in `backend`. No other `LDPLFS_*` variable is set.
    pub fn under_preload(mut self, lib: &Path, mount: &Path, backend: &Path) -> Cmd {
        for (k, v) in [
            ("LD_PRELOAD", lib),
            ("LDPLFS_MOUNT", mount),
            ("LDPLFS_BACKEND", backend),
        ] {
            self.env.push((k.into(), v.to_string_lossy().into_owned()));
        }
        self
    }

    pub fn capture(mut self, on: bool) -> Cmd {
        self.capture = on;
        self
    }
}

pub struct Finished {
    /// Exited with status 0.
    pub ok: bool,
    pub stdout: String,
    pub cpu_s: f64,
    pub maxrss_kb: u64,
}

/// Clients started together: wall is first spawn to last exit.
pub struct Batch {
    pub wall_s: f64,
    pub done: Vec<Finished>,
}

// Wire format between harness and spawner: little-endian u64s and
// length-prefixed byte strings, nothing else.

fn put_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn put_str(w: &mut impl Write, s: &str) -> io::Result<()> {
    put_u64(w, s.len() as u64)?;
    w.write_all(s.as_bytes())
}

fn get_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

fn get_str(r: &mut impl Read) -> io::Result<String> {
    let len = get_u64(r)?;
    if len > 1 << 24 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "oversized string",
        ));
    }
    let mut b = vec![0u8; len as usize];
    r.read_exact(&mut b)?;
    String::from_utf8(b).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// The harness's handle on its spawner process.
pub struct Spawner {
    child: Child,
    to: Option<BufWriter<ChildStdin>>,
    from: BufReader<ChildStdout>,
}

impl Spawner {
    /// Start the spawner. Call this before allocating anything large.
    pub fn start() -> Result<Spawner, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("spawner")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("start spawner: {e}"))?;
        let to = child.stdin.take().map(BufWriter::new);
        let from = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Spawner { child, to, from })
    }

    /// Start all `cmds` at once and wait for all of them.
    pub fn run(&mut self, cmds: &[Cmd]) -> Result<Batch, String> {
        self.exchange(cmds).map_err(|e| format!("spawner: {e}"))
    }

    fn exchange(&mut self, cmds: &[Cmd]) -> io::Result<Batch> {
        let to = self.to.as_mut().expect("spawner stdin open until drop");
        put_u64(to, cmds.len() as u64)?;
        for c in cmds {
            put_u64(to, c.capture as u64)?;
            put_u64(to, c.argv.len() as u64)?;
            c.argv.iter().try_for_each(|a| put_str(to, a))?;
            put_u64(to, c.env.len() as u64)?;
            for (k, v) in &c.env {
                put_str(to, k)?;
                put_str(to, v)?;
            }
        }
        to.flush()?;
        let from = &mut self.from;
        let error = get_str(from)?;
        if !error.is_empty() {
            return Err(io::Error::other(error));
        }
        let wall_s = get_u64(from)? as f64 / 1e9;
        let mut done = Vec::new();
        for _ in cmds {
            done.push(Finished {
                ok: get_u64(from)? == 1,
                cpu_s: get_u64(from)? as f64 / 1e6,
                maxrss_kb: get_u64(from)?,
                stdout: get_str(from)?,
            });
        }
        Ok(Batch { wall_s, done })
    }
}

impl Drop for Spawner {
    fn drop(&mut self) {
        // End of input is the spawner's signal to exit; then reap it.
        self.to = None;
        let _ = self.child.wait();
    }
}

fn reap(mut child: Child) -> io::Result<Finished> {
    // Clients print one short line, so draining after the fact cannot
    // deadlock on a full pipe.
    let mut stdout = String::new();
    if let Some(mut out) = child.stdout.take() {
        out.read_to_string(&mut stdout)?;
    }
    let mut status = 0i32;
    let mut ru = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: both out-pointers are valid for writes; the pid is our own
    // unreaped child, which nothing else waits for (`Child` only reaps when
    // asked to).
    if unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) } < 0 {
        return Err(io::Error::last_os_error());
    }
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
    Ok(Finished {
        // WIFEXITED && WEXITSTATUS == 0
        ok: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        stdout,
        cpu_s: secs(ru.utime) + secs(ru.stime),
        maxrss_kb: ru.maxrss.max(0) as u64,
    })
}

fn serve_batch(from: &mut impl Read, n: u64) -> io::Result<(u64, Vec<Finished>)> {
    let mut cmds = Vec::new();
    for _ in 0..n {
        let capture = get_u64(from)? == 1;
        let argv: Vec<String> = (0..get_u64(from)?)
            .map(|_| get_str(from))
            .collect::<Result<_, _>>()?;
        let mut cmd = Command::new(argv.first().ok_or_else(|| io::Error::other("empty argv"))?);
        cmd.args(&argv[1..]).env_clear().stdin(Stdio::null());
        cmd.stdout(if capture {
            Stdio::piped()
        } else {
            Stdio::null()
        });
        for _ in 0..get_u64(from)? {
            cmd.env(get_str(from)?, get_str(from)?);
        }
        cmds.push(cmd);
    }
    let start = now_ns();
    let mut children = Vec::new();
    for cmd in &mut cmds {
        match cmd.spawn() {
            Ok(c) => children.push(c),
            Err(e) => {
                // Leave no client behind when a later one cannot start.
                for mut c in children {
                    let _ = c.kill();
                    let _ = c.wait();
                }
                return Err(io::Error::other(format!("{:?}: {e}", cmd.get_program())));
            }
        }
    }
    let done: Vec<Finished> = children.into_iter().map(reap).collect::<Result<_, _>>()?;
    Ok((now_ns() - start, done))
}

/// The spawner's main loop: serve batches until the harness closes the pipe.
pub fn serve() -> io::Result<()> {
    let mut from = BufReader::new(io::stdin().lock());
    let mut to = BufWriter::new(io::stdout().lock());
    loop {
        let n = match get_u64(&mut from) {
            Ok(n) => n,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        match serve_batch(&mut from, n) {
            Ok((wall_ns, done)) => {
                put_str(&mut to, "")?;
                put_u64(&mut to, wall_ns)?;
                for d in done {
                    put_u64(&mut to, d.ok as u64)?;
                    put_u64(&mut to, (d.cpu_s * 1e6).round() as u64)?;
                    put_u64(&mut to, d.maxrss_kb)?;
                    put_str(&mut to, &d.stdout)?;
                }
            }
            Err(e) => put_str(&mut to, &format!("{e}"))?,
        }
        to.flush()?;
    }
}
