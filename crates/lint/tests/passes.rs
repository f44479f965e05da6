//! Fixture triples for the PR 9 call-graph passes: each pass must fire on
//! a violating snippet, stay quiet on a clean one, and stay quiet when
//! suppressed (or, for signal-safety, annotated) with a justification —
//! the same contract the PR 4 per-line rules are held to in fixtures.rs.
//!
//! Interposed symbols are declared as rows of an `interpose!` table, as
//! `crates/preload` declares them: a hand-written `#[no_mangle]` function
//! is itself a symbol-coverage finding.

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

/// A preload source: the symbol table `rows`, then `rest`.
fn preload(rows: &str, rest: &str) -> String {
    format!("interpose! {{\n{rows}}}\n{rest}")
}

#[test]
fn signal_safety_fires_on_allocation_before_resolution() {
    // In a helper the row's body calls before it resolves the next symbol.
    let helper = preload(
        "    fn close(fd: c_int) -> c_int = -1;\n\
         \x20       => |_| do_close(fd);\n",
        "unsafe fn do_close(fd: c_int) -> c_int {\n\
         \x20   let tag = String::from(\"x\");\n\
         \x20   next::close(fd)\n\
         }\n",
    );
    let findings = lint_source(PRELOAD, &helper);
    assert_eq!(rules(&findings), ["signal-safety"]);
    assert!(findings[0].message.contains("before dlsym-next resolution"));
    assert!(findings[0].snippet.contains("String::from"));
    // In the row's own body, before its `next` call.
    let body = preload(
        "    fn close(fd: c_int) -> c_int = -1;\n\
         \x20       => |next| {\n\
         \x20           let tag = format!(\"{fd}\");\n\
         \x20           next(fd)\n\
         \x20       };\n",
        "",
    );
    let findings = lint_source(PRELOAD, &body);
    assert_eq!(rules(&findings), ["signal-safety"]);
    assert!(findings[0].snippet.contains("format!"));
    // In a class, which runs before the passthrough.
    let class = preload(
        "    fn read(fd: c_int, buf: *mut c_void, n: usize) -> isize = -1;\n\
         \x20       via lookup(fd) => |st| read_at(&st, buf, n);\n",
        "fn lookup(fd: c_int) -> Option<Open> {\n\
         \x20   let key = fd.to_string();\n\
         \x20   table().get(&key)\n\
         }\n",
    );
    let findings = lint_source(PRELOAD, &class);
    assert_eq!(rules(&findings), ["signal-safety"]);
    assert!(findings[0].snippet.contains("to_string"));
}

#[test]
fn signal_safety_fires_on_reentry_and_guard_binding() {
    // Calling back into an interposed symbol pre-resolution.
    let reenter = preload(
        "    fn write(fd: c_int) -> c_int = -1;\n\
         \x20       => |_| do_write(fd);\n",
        "unsafe fn do_write(fd: c_int) -> c_int {\n\
         \x20   write(fd)\n\
         }\n",
    );
    let findings = lint_source(PRELOAD, &reenter);
    assert_eq!(rules(&findings), ["signal-safety"]);
    assert!(findings[0].message.contains("recurses"));
    // Binding a lock guard pre-resolution.
    let locked = preload(
        "    fn readv(fd: c_int) -> c_int = -1;\n\
         \x20       => |_| do_readv(fd);\n",
        "unsafe fn do_readv(fd: c_int) -> c_int {\n\
         \x20   let t = table.lock();\n\
         \x20   next::readv(fd)\n\
         }\n",
    );
    assert_eq!(rules(&lint_source(PRELOAD, &locked)), ["signal-safety"]);
}

#[test]
fn signal_safety_quiet_when_resolution_comes_first() {
    let helper = preload(
        "    fn close(fd: c_int) -> c_int = -1;\n\
         \x20       => |_| do_close(fd);\n",
        "unsafe fn do_close(fd: c_int) -> c_int {\n\
         \x20   let ret = next::close(fd);\n\
         \x20   let tag = String::from(\"x\");\n\
         \x20   ret\n\
         }\n",
    );
    assert!(lint_source(PRELOAD, &helper).is_empty());
    // A class row's body runs past the passthrough.
    let body = preload(
        "    fn read(fd: c_int, buf: *mut c_void, n: usize) -> isize = -1;\n\
         \x20       via lookup(fd) => |st| read_at(&st, buf, n);\n",
        "unsafe fn read_at(st: &Open, buf: *mut c_void, n: usize) -> isize {\n\
         \x20   let staging = vec![0u8; n];\n\
         \x20   st.copy(staging, buf)\n\
         }\n",
    );
    assert!(lint_source(PRELOAD, &body).is_empty());
}

#[test]
fn signal_safety_quiet_with_signal_safe_annotation_or_suppression() {
    let rows = "    fn close(fd: c_int) -> c_int = -1;\n\
                \x20       => |_| do_close(fd);\n";
    let src = preload(
        rows,
        "// signal-safe: init latch makes nested calls fall through to libc\n\
         unsafe fn do_close(fd: c_int) -> c_int {\n\
         \x20   let tag = String::from(\"x\");\n\
         \x20   next::close(fd)\n\
         }\n",
    );
    assert!(lint_source(PRELOAD, &src).is_empty());
    // A bare `signal-safe:` with no justification does not count.
    let bare = src.replace(
        "// signal-safe: init latch makes nested calls fall through to libc",
        "// signal-safe:",
    );
    assert_eq!(rules(&lint_source(PRELOAD, &bare)), ["signal-safety"]);
    // A suppressed row stays quiet.
    let suppressed = preload(
        "    fn close(fd: c_int) -> c_int = -1;\n\
         \x20       => |next| {\n\
         \x20           // plfs-lint: allow(signal-safety, \"runs once, before any handler is installed\")\n\
         \x20           let tag = format!(\"{fd}\");\n\
         \x20           next(fd)\n\
         \x20       };\n",
        "",
    );
    assert!(lint_source(PRELOAD, &suppressed).is_empty());
}

// --------------------------------------------------------------- errno-clobber

#[test]
fn errno_clobber_fires_between_set_errno_and_minus_one() {
    let src = "unsafe fn do_x(fd: c_int) -> c_int {\n\
               \x20   set_errno(9);\n\
               \x20   next::close(fd);\n\
               \x20   -1\n\
               }\n";
    let findings = lint_source(PRELOAD, src);
    assert_eq!(rules(&findings), ["errno-clobber"]);
    assert!(findings[0].message.contains("set_errno"));
}

#[test]
fn errno_clobber_fires_between_real_return_capture_and_return() {
    let src = "unsafe fn do_y(fd: c_int) -> c_int {\n\
               \x20   let ret = next::close(fd);\n\
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
                   \x20   let ret = next::close(fd);\n\
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
fn errno_clobber_fires_in_a_row_body() {
    let src = preload(
        "    fn close(fd: c_int) -> c_int = -1;\n\
         \x20       => |next| {\n\
         \x20           set_errno(9);\n\
         \x20           next(fd);\n\
         \x20           -1\n\
         \x20       };\n",
        "",
    );
    let findings = lint_source(PRELOAD, &src);
    assert_eq!(rules(&findings), ["errno-clobber"]);
    assert!(findings[0].snippet.contains("next(fd)"));
    assert!(findings[0].message.contains("a next-definition call"));
}

#[test]
fn errno_clobber_quiet_when_suppressed_with_reason() {
    let src = "unsafe fn do_x(fd: c_int) -> c_int {\n\
               \x20   set_errno(9);\n\
               \x20   // plfs-lint: allow(errno-clobber, \"the next close is a syscall-free stub in this build\")\n\
               \x20   next::close(fd);\n\
               \x20   -1\n\
               }\n";
    assert!(lint_source(PRELOAD, src).is_empty());
}

// ------------------------------------------------------------- symbol-coverage

// Whether a family is complete — every `64`, `__NAME`, `_chk` and `_2` spelling
// glibc exports — is the dynamic loader's to say: the preload's
// `every_glibc_spelling_of_a_row_is_interposed` test asks it.

/// Two rows and the helper their bodies call.
const ROWS: &str = "    fn open | open64(p: *const c_char, flags: c_int) -> c_int = -1;\n\
                    \x20       via resolve(p) => |at| open_in(at, flags);\n\
                    \x20   fn close(fd: c_int) -> c_int = -1;\n\
                    \x20       => |next| next(fd);\n";
const HELPER: &str = "fn open_in(at: At, flags: c_int) -> c_int {\n\
                      \x20   0\n\
                      }\n";

#[test]
fn symbol_coverage_catches_a_hand_written_symbol() {
    let src = preload(
        ROWS,
        &format!(
            "{HELPER}#[no_mangle]\n\
             pub unsafe extern \"C\" fn creat64(p: *const c_char) -> c_int {{\n\
             \x20   ffi_guard!(-1, open_in(p, 0))\n\
             }}\n"
        ),
    );
    let findings = lint_source(PRELOAD, &src);
    assert_eq!(rules(&findings), ["symbol-coverage"]);
    assert!(findings[0].message.contains("creat64"));
    assert!(findings[0].message.contains("row"));
}

#[test]
fn symbol_coverage_quiet_when_every_symbol_is_a_row() {
    assert!(lint_source(PRELOAD, &preload(ROWS, HELPER)).is_empty());
}

#[test]
fn symbol_coverage_quiet_when_suppressed_with_reason() {
    let src = preload(
        ROWS,
        &format!(
            "{HELPER}#[no_mangle] // plfs-lint: allow(symbol-coverage, \"prototype: joins the table with its family\")\n\
             pub unsafe extern \"C\" fn creat64(p: *const c_char) -> c_int {{\n\
             \x20   ffi_guard!(-1, open_in(p, 0))\n\
             }}\n"
        ),
    );
    assert!(lint_source(PRELOAD, &src).is_empty());
}

#[test]
fn the_table_reader_reads_names_and_the_not_interposed_list() {
    let rows =
        format!("{ROWS}    !fork | vfork\n        = \"the atfork handlers do their part\";\n");
    let table = plfs_lint::table::read_source(&preload(&rows, HELPER)).expect("a table");
    let names: Vec<&[String]> = table.rows.iter().map(|r| r.names.as_slice()).collect();
    assert_eq!(names, [&["open", "open64"][..], &["close"][..]]);
    assert_eq!((table.rows[0].line, table.rows[1].line), (1, 3));
    let skip = &table.not_interposed[0];
    assert_eq!(skip.names, ["fork", "vfork"]);
    assert_eq!(skip.reason, "the atfork handlers do their part");
    // No table, no rows: a file without the invocation has none.
    assert!(plfs_lint::table::read_source(HELPER).is_none());
}
