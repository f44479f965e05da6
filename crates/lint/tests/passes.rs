//! Fixture triples for the PR 9 call-graph passes: each pass must fire on
//! a violating snippet, stay quiet on a clean one, and stay quiet when
//! suppressed (or, for signal-safety, annotated) with a justification —
//! the same contract the PR 4 per-line rules are held to in fixtures.rs.
//!
//! Fixture symbols are chosen from single-member alias families (`close`,
//! `write`, `readv`, …) unless the symbol-coverage matrix itself is under
//! test, so the coverage pass stays quiet in everyone else's fixtures.

use plfs_lint::{lint_files, lint_source, Finding};

const PRELOAD: &str = "crates/preload/src/lib.rs";
const PLFS: &str = "crates/plfs/src/fd.rs";

fn rules(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

// ------------------------------------------------------------- deadlock-cycle

#[test]
fn deadlock_cycle_fires_on_ab_ba_inversion() {
    let src = "impl S {\n\
               \x20   fn a(&self) {\n\
               \x20       let g = self.alpha.lock();\n\
               \x20       let h = self.beta.lock();\n\
               \x20       drop(h);\n\
               \x20       drop(g);\n\
               \x20   }\n\
               \x20   fn b(&self) {\n\
               \x20       let g = self.beta.lock();\n\
               \x20       let h = self.alpha.lock();\n\
               \x20       drop(h);\n\
               \x20       drop(g);\n\
               \x20   }\n\
               }\n";
    let findings = lint_source(PLFS, src);
    assert_eq!(rules(&findings), ["deadlock-cycle"]);
    assert!(findings[0].message.contains("alpha"));
    assert!(findings[0].message.contains("beta"));
}

#[test]
fn deadlock_cycle_quiet_on_consistent_order_and_self_edges() {
    // Same two classes, same order in both functions: no inversion.
    let consistent = "impl S {\n\
                      \x20   fn a(&self) {\n\
                      \x20       let g = self.alpha.lock();\n\
                      \x20       let h = self.beta.lock();\n\
                      \x20   }\n\
                      \x20   fn b(&self) {\n\
                      \x20       let g = self.alpha.lock();\n\
                      \x20       let h = self.beta.lock();\n\
                      \x20   }\n\
                      }\n";
    assert!(lint_source(PLFS, consistent).is_empty());
    // Sharded same-class reacquisition (index-ordered by convention).
    let sharded = "impl S {\n\
                   \x20   fn a(&self, pid: u64) {\n\
                   \x20       let g = self.shard(pid).lock();\n\
                   \x20       let h = self.shard(pid + 1).lock();\n\
                   \x20   }\n\
                   }\n";
    assert!(lint_source(PLFS, sharded).is_empty());
}

#[test]
fn deadlock_cycle_quiet_when_suppressed_with_reason() {
    let src = "impl S {\n\
               \x20   fn a(&self) {\n\
               \x20       let g = self.alpha.lock();\n\
               \x20       // plfs-lint: allow(deadlock-cycle, \"b() only runs at startup before a() exists\")\n\
               \x20       let h = self.beta.lock();\n\
               \x20   }\n\
               \x20   fn b(&self) {\n\
               \x20       let g = self.beta.lock();\n\
               \x20       let h = self.alpha.lock();\n\
               \x20   }\n\
               }\n";
    assert!(lint_source(PLFS, src).is_empty());
}

// --------------------------------------------------- transitive lock-across-io

#[test]
fn lock_across_io_fires_transitively_through_a_callee() {
    let src = "impl S {\n\
               \x20   fn caller(&self) {\n\
               \x20       let g = self.map.lock();\n\
               \x20       self.helper();\n\
               \x20   }\n\
               \x20   fn helper(&self) {\n\
               \x20       self.backing.write_at(0);\n\
               \x20   }\n\
               }\n";
    let findings = lint_source(PLFS, src);
    assert_eq!(rules(&findings), ["lock-across-io"]);
    assert!(findings[0].message.contains("helper"));
    assert!(findings[0].message.contains("transitively"));
}

#[test]
fn lock_across_io_transitive_spans_files_via_lint_files() {
    // The whole point of the workspace graph: the guard is in one file,
    // the backing I/O two files away.
    let a = "pub fn caller(s: &S) {\n\
             \x20   let g = s.map.lock();\n\
             \x20   middle(s);\n\
             }\n";
    let b = "pub fn middle(s: &S) {\n\
             \x20   deep(s);\n\
             }\n\
             pub fn deep(s: &S) {\n\
             \x20   s.backing.write_at(0);\n\
             }\n";
    let findings = lint_files(&[
        ("crates/plfs/src/a.rs".to_string(), a.to_string()),
        ("crates/plfs/src/b.rs".to_string(), b.to_string()),
    ]);
    assert_eq!(rules(&findings), ["lock-across-io"]);
    assert_eq!(findings[0].file, "crates/plfs/src/a.rs");
}

#[test]
fn lock_across_io_transitive_quiet_when_guard_dropped_or_suppressed() {
    let dropped = "impl S {\n\
                   \x20   fn caller(&self) {\n\
                   \x20       let g = self.map.lock();\n\
                   \x20       drop(g);\n\
                   \x20       self.helper();\n\
                   \x20   }\n\
                   \x20   fn helper(&self) {\n\
                   \x20       self.backing.write_at(0);\n\
                   \x20   }\n\
                   }\n";
    assert!(lint_source(PLFS, dropped).is_empty());
    let suppressed = "impl S {\n\
                      \x20   fn caller(&self) {\n\
                      \x20       let g = self.map.lock();\n\
                      \x20       // plfs-lint: allow(lock-across-io, \"single-writer during recovery\")\n\
                      \x20       self.helper();\n\
                      \x20   }\n\
                      \x20   fn helper(&self) {\n\
                      \x20       self.backing.write_at(0);\n\
                      \x20   }\n\
                      }\n";
    assert!(lint_source(PLFS, suppressed).is_empty());
}

// -------------------------------------------------------------- signal-safety

#[test]
fn signal_safety_fires_on_allocation_before_resolution() {
    let src = "#[no_mangle]\n\
               pub unsafe extern \"C\" fn close(fd: c_int) -> c_int {\n\
               \x20   ffi_guard!(-1, do_close(fd))\n\
               }\n\
               unsafe fn do_close(fd: c_int) -> c_int {\n\
               \x20   let tag = String::from(\"x\");\n\
               \x20   let f = real!(close, unsafe extern \"C\" fn(c_int) -> c_int);\n\
               \x20   f(fd)\n\
               }\n";
    let findings = lint_source(PRELOAD, src);
    assert_eq!(rules(&findings), ["signal-safety"]);
    assert!(findings[0].message.contains("before dlsym-next resolution"));
}

#[test]
fn signal_safety_fires_on_reentry_and_guard_binding() {
    // Calling back into an interposed symbol pre-resolution.
    let reenter = "#[no_mangle]\n\
                   pub unsafe extern \"C\" fn write(fd: c_int) -> c_int {\n\
                   \x20   ffi_guard!(-1, do_write(fd))\n\
                   }\n\
                   unsafe fn do_write(fd: c_int) -> c_int {\n\
                   \x20   write(fd)\n\
                   }\n";
    let findings = lint_source(PRELOAD, reenter);
    assert_eq!(rules(&findings), ["signal-safety"]);
    assert!(findings[0].message.contains("recurses"));
    // Binding a lock guard pre-resolution.
    let locked = "#[no_mangle]\n\
                  pub unsafe extern \"C\" fn readv(fd: c_int) -> c_int {\n\
                  \x20   ffi_guard!(-1, do_closev(fd))\n\
                  }\n\
                  unsafe fn do_closev(fd: c_int) -> c_int {\n\
                  \x20   let t = table.lock();\n\
                  \x20   let f = real!(readv, unsafe extern \"C\" fn(c_int) -> c_int);\n\
                  \x20   f(fd)\n\
                  }\n";
    assert_eq!(rules(&lint_source(PRELOAD, locked)), ["signal-safety"]);
}

#[test]
fn signal_safety_quiet_when_resolution_comes_first() {
    let src = "#[no_mangle]\n\
               pub unsafe extern \"C\" fn close(fd: c_int) -> c_int {\n\
               \x20   ffi_guard!(-1, do_close(fd))\n\
               }\n\
               unsafe fn do_close(fd: c_int) -> c_int {\n\
               \x20   let f = real!(close, unsafe extern \"C\" fn(c_int) -> c_int);\n\
               \x20   let tag = String::from(\"x\");\n\
               \x20   f(fd)\n\
               }\n";
    assert!(lint_source(PRELOAD, src).is_empty());
}

#[test]
fn signal_safety_quiet_with_signal_safe_annotation() {
    let src = "#[no_mangle]\n\
               pub unsafe extern \"C\" fn close(fd: c_int) -> c_int {\n\
               \x20   ffi_guard!(-1, do_close(fd))\n\
               }\n\
               // signal-safe: init latch makes nested calls fall through to libc\n\
               unsafe fn do_close(fd: c_int) -> c_int {\n\
               \x20   let tag = String::from(\"x\");\n\
               \x20   let f = real!(close, unsafe extern \"C\" fn(c_int) -> c_int);\n\
               \x20   f(fd)\n\
               }\n";
    assert!(lint_source(PRELOAD, src).is_empty());
    // A bare `signal-safe:` with no justification does not count.
    let bare = src.replace(
        "// signal-safe: init latch makes nested calls fall through to libc",
        "// signal-safe:",
    );
    assert_eq!(rules(&lint_source(PRELOAD, &bare)), ["signal-safety"]);
}

// --------------------------------------------------------------- errno-clobber

#[test]
fn errno_clobber_fires_between_set_errno_and_minus_one() {
    let src = "unsafe fn do_x(fd: c_int) -> c_int {\n\
               \x20   let f = real!(close, unsafe extern \"C\" fn(c_int) -> c_int);\n\
               \x20   set_errno(9);\n\
               \x20   f(fd);\n\
               \x20   -1\n\
               }\n";
    let findings = lint_source(PRELOAD, src);
    assert_eq!(rules(&findings), ["errno-clobber"]);
    assert!(findings[0].message.contains("set_errno"));
}

#[test]
fn errno_clobber_fires_between_real_return_capture_and_return() {
    let src = "unsafe fn do_y(fd: c_int) -> c_int {\n\
               \x20   let f = real!(close, unsafe extern \"C\" fn(c_int) -> c_int);\n\
               \x20   let ret = f(fd);\n\
               \x20   cleanup();\n\
               \x20   ret\n\
               }\n\
               unsafe fn cleanup() {\n\
               \x20   set_errno(0);\n\
               }\n";
    let findings = lint_source(PRELOAD, src);
    assert_eq!(rules(&findings), ["errno-clobber"]);
    assert!(findings[0].message.contains("ret"));
}

#[test]
fn errno_clobber_quiet_on_adjacent_return_and_success_path_bookkeeping() {
    // set_errno immediately followed by the -1 return.
    let adjacent = "unsafe fn do_x(fd: c_int) -> c_int {\n\
                    \x20   set_errno(9);\n\
                    \x20   -1\n\
                    }\n";
    assert!(lint_source(PRELOAD, adjacent).is_empty());
    // Bookkeeping nested under the success check runs when errno is dead.
    let success = "unsafe fn do_y(fd: c_int) -> c_int {\n\
                   \x20   let f = real!(close, unsafe extern \"C\" fn(c_int) -> c_int);\n\
                   \x20   let ret = f(fd);\n\
                   \x20   if ret >= 0 {\n\
                   \x20       cleanup();\n\
                   \x20   }\n\
                   \x20   ret\n\
                   }\n\
                   unsafe fn cleanup() {\n\
                   \x20   set_errno(0);\n\
                   }\n";
    assert!(lint_source(PRELOAD, success).is_empty());
}

#[test]
fn errno_clobber_quiet_when_suppressed_with_reason() {
    let src = "unsafe fn do_x(fd: c_int) -> c_int {\n\
               \x20   let f = real!(close, unsafe extern \"C\" fn(c_int) -> c_int);\n\
               \x20   set_errno(9);\n\
               \x20   // plfs-lint: allow(errno-clobber, \"f is a pure syscall-free stub in this build\")\n\
               \x20   f(fd);\n\
               \x20   -1\n\
               }\n";
    assert!(lint_source(PRELOAD, src).is_empty());
}

// ------------------------------------------------------------- symbol-coverage

#[test]
fn symbol_coverage_catches_removed_open64() {
    // The acceptance-criterion fixture: open interposed, its 64/at twins
    // missing — an LFS-built application would silently bypass the shim.
    let src = "#[no_mangle]\n\
               pub unsafe extern \"C\" fn open(p: *const c_char) -> c_int {\n\
               \x20   ffi_guard!(-1, do_open(p))\n\
               }\n\
               unsafe fn do_open(p: *const c_char) -> c_int {\n\
               \x20   0\n\
               }\n";
    let findings = lint_source(PRELOAD, src);
    assert_eq!(rules(&findings), ["symbol-coverage"]);
    assert!(findings[0].message.contains("open64"));
    assert!(findings[0].message.contains("openat64"));
}

#[test]
fn symbol_coverage_catches_unknown_symbol_and_twin_drift() {
    // A symbol missing from the matrix entirely.
    let unknown = "#[no_mangle]\n\
                   pub unsafe extern \"C\" fn bogus_sym(fd: c_int) -> c_int {\n\
                   \x20   ffi_guard!(-1, do_bogus(fd))\n\
                   }\n\
                   unsafe fn do_bogus(fd: c_int) -> c_int {\n\
                   \x20   0\n\
                   }\n";
    let findings = lint_source(PRELOAD, unknown);
    assert_eq!(rules(&findings), ["symbol-coverage"]);
    assert!(findings[0].message.contains("bogus_sym"));
    // Twins drifting to different dispatchers.
    let drift = "#[no_mangle]\n\
                 pub unsafe extern \"C\" fn open(p: *const c_char) -> c_int {\n\
                 \x20   ffi_guard!(-1, do_open(p))\n\
                 }\n\
                 #[no_mangle]\n\
                 pub unsafe extern \"C\" fn open64(p: *const c_char) -> c_int {\n\
                 \x20   ffi_guard!(-1, do_open64(p))\n\
                 }\n\
                 #[no_mangle]\n\
                 pub unsafe extern \"C\" fn openat(d: c_int, p: *const c_char) -> c_int {\n\
                 \x20   ffi_guard!(-1, do_openat(d, p))\n\
                 }\n\
                 #[no_mangle]\n\
                 pub unsafe extern \"C\" fn openat64(d: c_int, p: *const c_char) -> c_int {\n\
                 \x20   ffi_guard!(-1, do_openat(d, p))\n\
                 }\n\
                 unsafe fn do_open(p: *const c_char) -> c_int {\n\
                 \x20   0\n\
                 }\n\
                 unsafe fn do_open64(p: *const c_char) -> c_int {\n\
                 \x20   0\n\
                 }\n\
                 unsafe fn do_openat(d: c_int, p: *const c_char) -> c_int {\n\
                 \x20   0\n\
                 }\n";
    let findings = lint_source(PRELOAD, drift);
    assert_eq!(rules(&findings), ["symbol-coverage"]);
    assert!(findings[0].message.contains("do_open64"));
}

#[test]
fn symbol_coverage_quiet_on_complete_family() {
    let src = "#[no_mangle]\n\
               pub unsafe extern \"C\" fn open(p: *const c_char) -> c_int {\n\
               \x20   ffi_guard!(-1, do_open(p))\n\
               }\n\
               #[no_mangle]\n\
               pub unsafe extern \"C\" fn open64(p: *const c_char) -> c_int {\n\
               \x20   ffi_guard!(-1, do_open(p))\n\
               }\n\
               #[no_mangle]\n\
               pub unsafe extern \"C\" fn openat(d: c_int, p: *const c_char) -> c_int {\n\
               \x20   ffi_guard!(-1, do_openat(d, p))\n\
               }\n\
               #[no_mangle]\n\
               pub unsafe extern \"C\" fn openat64(d: c_int, p: *const c_char) -> c_int {\n\
               \x20   ffi_guard!(-1, do_openat(d, p))\n\
               }\n\
               unsafe fn do_open(p: *const c_char) -> c_int {\n\
               \x20   0\n\
               }\n\
               unsafe fn do_openat(d: c_int, p: *const c_char) -> c_int {\n\
               \x20   0\n\
               }\n";
    assert!(lint_source(PRELOAD, src).is_empty());
}

#[test]
fn symbol_coverage_quiet_when_suppressed_with_reason() {
    let src = "#[no_mangle] // plfs-lint: allow(symbol-coverage, \"prototype build: LFS twins land with the next batch\")\n\
               pub unsafe extern \"C\" fn open(p: *const c_char) -> c_int {\n\
               \x20   ffi_guard!(-1, do_open(p))\n\
               }\n\
               unsafe fn do_open(p: *const c_char) -> c_int {\n\
               \x20   0\n\
               }\n";
    assert!(lint_source(PRELOAD, src).is_empty());
}

#[test]
fn symbol_coverage_catches_read_without_its_fortified_twin() {
    // `_FORTIFY_SOURCE` builds call `__read_chk`; since the reserved fd
    // holds no data, a read that bypasses the shim returns EOF.
    let src = "#[no_mangle]\n\
               pub unsafe extern \"C\" fn read(fd: c_int) -> c_int {\n\
               \x20   ffi_guard!(-1, do_read(fd))\n\
               }\n\
               unsafe fn do_read(fd: c_int) -> c_int {\n\
               \x20   0\n\
               }\n";
    let findings = lint_source(PRELOAD, src);
    assert_eq!(rules(&findings), ["symbol-coverage"]);
    assert!(findings[0].message.contains("__read_chk"));
}

#[test]
fn symbol_coverage_knows_the_kernel_side_families() {
    // mmap without mmap64, fopen pair without fdopen: incomplete families.
    let partial = "#[no_mangle]\n\
                   pub unsafe extern \"C\" fn mmap(fd: c_int) -> c_int {\n\
                   \x20   ffi_guard!(-1, do_mmap(fd))\n\
                   }\n\
                   #[no_mangle]\n\
                   pub unsafe extern \"C\" fn fopen(p: *const c_char) -> c_int {\n\
                   \x20   ffi_guard!(-1, do_fopen(p))\n\
                   }\n\
                   #[no_mangle]\n\
                   pub unsafe extern \"C\" fn fopen64(p: *const c_char) -> c_int {\n\
                   \x20   ffi_guard!(-1, do_fopen(p))\n\
                   }\n\
                   unsafe fn do_mmap(fd: c_int) -> c_int {\n\
                   \x20   0\n\
                   }\n\
                   unsafe fn do_fopen(p: *const c_char) -> c_int {\n\
                   \x20   0\n\
                   }\n";
    let findings = lint_source(PRELOAD, partial);
    assert_eq!(rules(&findings), ["symbol-coverage", "symbol-coverage"]);
    assert!(findings.iter().any(|f| f.message.contains("mmap64")));
    assert!(findings.iter().any(|f| f.message.contains("fdopen")));
    // The byte movers are in the matrix; sendfile's twin must not drift.
    let movers = "#[no_mangle]\n\
                  pub unsafe extern \"C\" fn copy_file_range(i: c_int, o: c_int) -> c_int {\n\
                  \x20   ffi_guard!(-1, do_copy_file_range(i, o))\n\
                  }\n\
                  #[no_mangle]\n\
                  pub unsafe extern \"C\" fn splice(i: c_int, o: c_int) -> c_int {\n\
                  \x20   ffi_guard!(-1, do_splice(i, o))\n\
                  }\n\
                  #[no_mangle]\n\
                  pub unsafe extern \"C\" fn sendfile(o: c_int, i: c_int) -> c_int {\n\
                  \x20   ffi_guard!(-1, do_sendfile(o, i))\n\
                  }\n\
                  #[no_mangle]\n\
                  pub unsafe extern \"C\" fn sendfile64(o: c_int, i: c_int) -> c_int {\n\
                  \x20   ffi_guard!(-1, do_sendfile64(o, i))\n\
                  }\n\
                  unsafe fn do_copy_file_range(i: c_int, o: c_int) -> c_int {\n\
                  \x20   0\n\
                  }\n\
                  unsafe fn do_splice(i: c_int, o: c_int) -> c_int {\n\
                  \x20   0\n\
                  }\n\
                  unsafe fn do_sendfile(o: c_int, i: c_int) -> c_int {\n\
                  \x20   0\n\
                  }\n\
                  unsafe fn do_sendfile64(o: c_int, i: c_int) -> c_int {\n\
                  \x20   0\n\
                  }\n";
    let findings = lint_source(PRELOAD, movers);
    assert_eq!(rules(&findings), ["symbol-coverage"]);
    assert!(findings[0].message.contains("do_sendfile64"));
}
