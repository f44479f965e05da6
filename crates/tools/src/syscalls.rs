//! `plfs-tools syscalls -- CMD…`: how many syscalls a command enters, by
//! name — the per-call counts of DESIGN.md §13 are differences of two such
//! runs, at N and 2N calls.
//!
//! The command runs under `ptrace` (x86_64): every syscall-entry stop of it
//! and of every process and thread it starts is one count. Nothing else is
//! traced, so the counts include the command's own start-up and exit; take
//! differences to isolate a call.

use crate::ToolError;
use std::collections::{BTreeMap, HashMap};
use std::ffi::CString;
use std::fmt::Write as _;
use std::os::raw::{c_char, c_int, c_long, c_void};

extern "C" {
    fn fork() -> c_int;
    fn execvp(file: *const c_char, argv: *const *const c_char) -> c_int;
    fn ptrace(request: c_int, ...) -> c_long;
    fn waitpid(pid: c_int, status: *mut c_int, options: c_int) -> c_int;
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, n: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, n: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn _exit(code: c_int) -> !;
    fn __errno_location() -> *mut c_int;
}

const PTRACE_TRACEME: c_int = 0;
const PTRACE_PEEKUSER: c_int = 3;
const PTRACE_SYSCALL: c_int = 24;
const PTRACE_SETOPTIONS: c_int = 0x4200;
const PTRACE_O_TRACESYSGOOD: usize = 0x1;
const PTRACE_O_TRACEFORK: usize = 0x2;
const PTRACE_O_TRACEVFORK: usize = 0x4;
const PTRACE_O_TRACECLONE: usize = 0x8;
const PTRACE_O_TRACEEXEC: usize = 0x10;
const PTRACE_O_EXITKILL: usize = 0x10_0000;
/// Byte offset of `orig_rax` — the syscall number — in `user_regs_struct`.
const ORIG_RAX: usize = 15 * 8;
const WALL: c_int = 0x4000_0000;
const O_CLOEXEC: c_int = 0o2000000;
const SIGTRAP: c_int = 5;
const SIGSTOP: c_int = 19;
const EINTR: c_int = 4;

/// x86_64 syscall names, for the ones a file-system command is likely to
/// make; any other prints as `syscall_<nr>`.
const NAMES: &[(u64, &str)] = &[
    (0, "read"),
    (1, "write"),
    (2, "open"),
    (3, "close"),
    (4, "stat"),
    (5, "fstat"),
    (6, "lstat"),
    (7, "poll"),
    (8, "lseek"),
    (9, "mmap"),
    (10, "mprotect"),
    (11, "munmap"),
    (12, "brk"),
    (13, "rt_sigaction"),
    (14, "rt_sigprocmask"),
    (15, "rt_sigreturn"),
    (16, "ioctl"),
    (17, "pread64"),
    (18, "pwrite64"),
    (19, "readv"),
    (20, "writev"),
    (21, "access"),
    (22, "pipe"),
    (24, "sched_yield"),
    (25, "mremap"),
    (28, "madvise"),
    (32, "dup"),
    (33, "dup2"),
    (35, "nanosleep"),
    (39, "getpid"),
    (40, "sendfile"),
    (56, "clone"),
    (57, "fork"),
    (58, "vfork"),
    (59, "execve"),
    (60, "exit"),
    (61, "wait4"),
    (62, "kill"),
    (63, "uname"),
    (72, "fcntl"),
    (73, "flock"),
    (74, "fsync"),
    (75, "fdatasync"),
    (76, "truncate"),
    (77, "ftruncate"),
    (78, "getdents"),
    (79, "getcwd"),
    (80, "chdir"),
    (82, "rename"),
    (83, "mkdir"),
    (84, "rmdir"),
    (85, "creat"),
    (86, "link"),
    (87, "unlink"),
    (89, "readlink"),
    (90, "chmod"),
    (91, "fchmod"),
    (95, "umask"),
    (96, "gettimeofday"),
    (97, "getrlimit"),
    (102, "getuid"),
    (104, "getgid"),
    (107, "geteuid"),
    (108, "getegid"),
    (110, "getppid"),
    (131, "sigaltstack"),
    (137, "statfs"),
    (138, "fstatfs"),
    (157, "prctl"),
    (158, "arch_prctl"),
    (186, "gettid"),
    (202, "futex"),
    (204, "sched_getaffinity"),
    (217, "getdents64"),
    (218, "set_tid_address"),
    (221, "fadvise64"),
    (228, "clock_gettime"),
    (230, "clock_nanosleep"),
    (231, "exit_group"),
    (257, "openat"),
    (258, "mkdirat"),
    (262, "newfstatat"),
    (263, "unlinkat"),
    (264, "renameat"),
    (269, "faccessat"),
    (273, "set_robust_list"),
    (275, "splice"),
    (285, "fallocate"),
    (292, "dup3"),
    (293, "pipe2"),
    (295, "preadv"),
    (296, "pwritev"),
    (302, "prlimit64"),
    (316, "renameat2"),
    (318, "getrandom"),
    (319, "memfd_create"),
    (326, "copy_file_range"),
    (327, "preadv2"),
    (328, "pwritev2"),
    (332, "statx"),
    (334, "rseq"),
    (435, "clone3"),
    (436, "close_range"),
    (439, "faccessat2"),
];

/// The name of syscall `nr`.
fn syscall_name(nr: u64) -> String {
    match NAMES.iter().find(|(n, _)| *n == nr) {
        Some((_, name)) => name.to_string(),
        None => format!("syscall_{nr}"),
    }
}

fn errno() -> c_int {
    unsafe { *__errno_location() }
}

/// Run `cmd` to completion under ptrace. Returns the histogram report —
/// a `#` header with the total and the command's wait status, then one
/// `<count> <name>` line per syscall, most frequent first — and whether
/// the command exited 0. [`ToolError::Unsupported`] if this system refuses
/// ptrace.
pub fn syscalls(cmd: &[String]) -> Result<(String, bool), ToolError> {
    let (status, counts) = trace(cmd)?;
    let total: u64 = counts.values().sum();
    let mut rows: Vec<(u64, String)> = counts
        .into_iter()
        .map(|(nr, n)| (n, syscall_name(nr)))
        .collect();
    rows.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {total} syscalls entered by `{}` (wait status {status})",
        cmd.join(" ")
    );
    for (n, name) in rows {
        let _ = writeln!(out, "{n:>10} {name}");
    }
    Ok((out, status == 0))
}

/// The command's wait status and its syscall-entry counts by number.
fn trace(cmd: &[String]) -> Result<(c_int, BTreeMap<u64, u64>), ToolError> {
    let usage = || ToolError::Usage("syscalls -- CMD [ARGS...]".to_string());
    if cmd.is_empty() {
        return Err(usage());
    }
    let args: Vec<CString> = cmd
        .iter()
        .map(|a| CString::new(a.as_str()).map_err(|_| usage()))
        .collect::<Result<_, _>>()?;
    let mut argv: Vec<*const c_char> = args.iter().map(|a| a.as_ptr()).collect();
    argv.push(std::ptr::null());
    // The child reports a failed TRACEME or exec through this pipe; a
    // successful exec closes it.
    let mut fds = [0 as c_int; 2];
    if unsafe { pipe2(fds.as_mut_ptr(), O_CLOEXEC) } != 0 {
        return Err(ToolError::Usage(format!(
            "pipe: {}",
            std::io::Error::last_os_error()
        )));
    }
    let child = unsafe { fork() };
    if child < 0 {
        return Err(ToolError::Usage(format!(
            "fork: {}",
            std::io::Error::last_os_error()
        )));
    }
    if child == 0 {
        // Only async-signal-safe calls until exec.
        unsafe {
            let (stage, err) = if ptrace(PTRACE_TRACEME, 0 as c_int, 0usize, 0usize) != 0 {
                (b'p', errno())
            } else {
                execvp(argv[0], argv.as_ptr());
                (b'e', errno())
            };
            let report = [stage, err as u8];
            write(fds[1], report.as_ptr() as *const c_void, 2);
            _exit(127);
        }
    }
    unsafe { close(fds[1]) };
    let mut status = 0;
    let first = unsafe { waitpid(child, &mut status, 0) };
    let mut report = [0u8; 2];
    let n = unsafe { read(fds[0], report.as_mut_ptr() as *mut c_void, 2) };
    unsafe { close(fds[0]) };
    if first != child || n == 2 {
        let err = std::io::Error::from_raw_os_error(report[1] as i32);
        return Err(match report[0] {
            b'p' => ToolError::Unsupported(format!("ptrace refused: {err}")),
            _ => ToolError::Usage(format!("{}: {err}", cmd[0])),
        });
    }
    let options = PTRACE_O_TRACESYSGOOD
        | PTRACE_O_TRACEFORK
        | PTRACE_O_TRACEVFORK
        | PTRACE_O_TRACECLONE
        | PTRACE_O_TRACEEXEC
        | PTRACE_O_EXITKILL;
    if unsafe { ptrace(PTRACE_SETOPTIONS, child, 0usize, options) } != 0 {
        let err = std::io::Error::last_os_error();
        return Err(ToolError::Unsupported(format!("ptrace refused: {err}")));
    }
    // Per task: is it between a syscall-entry stop and its exit stop?
    let mut in_syscall: HashMap<c_int, bool> = HashMap::from([(child, false)]);
    let mut counts = BTreeMap::new();
    let mut exit_status = 0;
    let mut resume = Some((child, 0usize));
    loop {
        if let Some((pid, sig)) = resume.take() {
            unsafe { ptrace(PTRACE_SYSCALL, pid, 0usize, sig) };
        }
        let pid = unsafe { waitpid(-1, &mut status, WALL) };
        if pid < 0 {
            if errno() == EINTR {
                continue;
            }
            break; // every task is gone
        }
        if status & 0xff != 0x7f {
            // Exited or killed: no stop to resume.
            in_syscall.remove(&pid);
            if pid == child {
                exit_status = status;
            }
            continue;
        }
        let sig = (status >> 8) & 0xff;
        let mut inject = 0;
        if sig == SIGTRAP | 0x80 {
            let entering = !in_syscall.get(&pid).copied().unwrap_or(false);
            in_syscall.insert(pid, entering);
            if entering {
                let nr = unsafe { ptrace(PTRACE_PEEKUSER, pid, ORIG_RAX, 0usize) };
                *counts.entry(nr as u64).or_insert(0u64) += 1;
            }
        } else if status >> 16 != 0 {
            // A fork, clone or exec event: a new task reports itself.
        } else if sig == SIGSTOP && !in_syscall.contains_key(&pid) {
            in_syscall.insert(pid, false); // a new task's first stop
        } else {
            inject = sig as usize;
        }
        resume = Some((pid, inject));
    }
    Ok((exit_status, counts))
}
