//! Fixture tests: every rule must fire on a violating snippet, stay quiet
//! on a clean one, and stay quiet when suppressed with a justification.
//! Plus lexer edge cases (raw strings, nested comments, char literals).

use plfs_lint::{lint_source, Finding};

const PRELOAD: &str = "crates/preload/src/lib.rs";
const LDPLFS: &str = "crates/ldplfs/src/shim.rs";
const PLFS: &str = "crates/plfs/src/fd.rs";

fn rules(findings: &[Finding]) -> Vec<&str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- panic-in-ffi

#[test]
fn panic_in_ffi_fires_on_unwrap_in_shim_code() {
    let src = "fn helper() { let x = foo().unwrap(); }\n";
    assert_eq!(rules(&lint_source(PRELOAD, src)), ["panic-in-ffi"]);
    assert_eq!(rules(&lint_source(LDPLFS, src)), ["panic-in-ffi"]);
    // Same code outside the shim crates is not this rule's business.
    assert!(lint_source(PLFS, src).is_empty());
}

#[test]
fn panic_in_ffi_fires_on_each_panic_family_macro() {
    for call in [
        "panic!(\"x\")",
        "unreachable!()",
        "todo!()",
        "unimplemented!()",
        "x.expect(\"y\")",
    ] {
        let src = format!("fn f() {{ {call}; }}\n");
        assert_eq!(
            rules(&lint_source(PRELOAD, &src)),
            ["panic-in-ffi"],
            "{call}"
        );
    }
}

#[test]
fn panic_in_ffi_allows_debug_assert_and_test_code() {
    let clean = "fn f() { debug_assert!(x != 0, \"msg\"); }\n";
    assert!(lint_source(PRELOAD, clean).is_empty());
    let test_mod = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { foo().unwrap(); }\n}\n";
    assert!(lint_source(PRELOAD, test_mod).is_empty());
}

#[test]
fn panic_in_ffi_is_quiet_when_suppressed_with_reason() {
    let src = "// plfs-lint: allow(panic-in-ffi, \"checked non-null above\")\n\
               fn f() { let x = foo().unwrap(); }\n";
    assert!(lint_source(PRELOAD, src).is_empty());
}

#[test]
fn suppression_without_reason_is_itself_a_finding() {
    let src = "// plfs-lint: allow(panic-in-ffi)\nfn f() { let x = foo().unwrap(); }\n";
    let f = lint_source(PRELOAD, src);
    assert!(f.iter().any(|f| f.rule == "bad-suppression"), "{f:?}");
    // And the bare allow() does NOT suppress the underlying finding.
    assert!(f.iter().any(|f| f.rule == "panic-in-ffi"), "{f:?}");
}

#[test]
fn panic_in_ffi_flags_indexing_only_inside_extern_c() {
    let bad = "#[no_mangle]\npub unsafe extern \"C\" fn read(fd: i32) -> i32 {\n    buf[0]\n}\n";
    let f = lint_source(PRELOAD, bad);
    assert!(
        f.iter()
            .any(|f| f.rule == "panic-in-ffi" && f.snippet.contains("buf[0]")),
        "{f:?}"
    );
    let ok = "fn helper(buf: &[u8]) -> u8 { buf[0] }\n";
    assert!(lint_source(PRELOAD, ok).is_empty());
}

// ----------------------------------------------------------------- ffi-barrier

#[test]
fn ffi_barrier_fires_on_unguarded_extern_fn() {
    let src = "#[no_mangle]\npub unsafe extern \"C\" fn close(fd: i32) -> i32 {\n    0\n}\n";
    assert!(rules(&lint_source(PRELOAD, src)).contains(&"ffi-barrier"));
    // Guarded version is clean (a callback: an interposed symbol would be
    // a symbol-table row, not a hand-written function).
    let ok = "pub unsafe extern \"C\" fn cookie_close(fd: i32) -> i32 {\n    ffi_guard!(-1, do_close(fd))\n}\n";
    assert!(lint_source(PRELOAD, ok).is_empty());
}

#[test]
fn ffi_barrier_ignores_foreign_block_declarations() {
    let src = "extern \"C\" {\n    fn getpid() -> i32;\n    fn dlsym(h: *mut u8) -> *mut u8;\n}\n";
    assert!(lint_source(PRELOAD, src).is_empty());
}

#[test]
fn ffi_barrier_only_applies_to_preload() {
    let src = "pub unsafe extern \"C\" fn cb(x: i32) -> i32 { x }\n";
    assert!(!rules(&lint_source(LDPLFS, src)).contains(&"ffi-barrier"));
}

#[test]
fn ffi_barrier_respects_suppression() {
    let src = "// plfs-lint: allow(ffi-barrier, \"pure arithmetic, cannot panic\")\n\
               pub unsafe extern \"C\" fn ident(x: i32) -> i32 { x }\n";
    assert!(!rules(&lint_source(PRELOAD, src)).contains(&"ffi-barrier"));
}

// ------------------------------------------------------------ errno-discipline

#[test]
fn errno_discipline_fires_on_bare_minus_one_return() {
    let src = "unsafe fn do_thing(fd: i32) -> i32 {\n    if fd < 0 {\n        return -1;\n    }\n    0\n}\n";
    assert_eq!(rules(&lint_source(PRELOAD, src)), ["errno-discipline"]);
}

#[test]
fn errno_discipline_satisfied_by_set_errno_or_guard() {
    let a = "unsafe fn do_thing(fd: i32) -> i32 {\n    set_errno(9);\n    -1\n}\n";
    assert!(lint_source(PRELOAD, a).is_empty());
    let b = "pub unsafe extern \"C\" fn f(fd: i32) -> i32 {\n    ffi_guard!(-1, do_f(fd))\n}\n";
    assert!(lint_source(PRELOAD, b).is_empty());
}

// ----------------------------------------------------- relaxed-ordering-audit

#[test]
fn relaxed_audit_fires_without_justification() {
    let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
    for path in [PRELOAD, LDPLFS, PLFS, "crates/iotrace/src/lib.rs"] {
        assert_eq!(
            rules(&lint_source(path, src)),
            ["relaxed-ordering-audit"],
            "{path}"
        );
    }
}

#[test]
fn relaxed_audit_accepts_annotation_same_or_previous_line() {
    let same =
        "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); // relaxed: counter only\n}\n";
    assert!(lint_source(PLFS, same).is_empty());
    let prev = "fn f(c: &AtomicU64) {\n    // relaxed: statistical counter, no ordering carried\n    c.fetch_add(1, Ordering::Relaxed);\n}\n";
    assert!(lint_source(PLFS, prev).is_empty());
}

#[test]
fn relaxed_audit_rejects_empty_justification() {
    let src = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); // relaxed:\n}\n";
    assert_eq!(rules(&lint_source(PLFS, src)), ["relaxed-ordering-audit"]);
}

// ----------------------------------------------------------- lock-across-io

#[test]
fn lock_across_io_fires_on_guard_held_over_backing_call() {
    let src =
        "fn f(&self) {\n    let guard = self.reader.lock();\n    self.backing.open(path);\n}\n";
    assert_eq!(rules(&lint_source(PLFS, src)), ["lock-across-io"]);
    // Only crates/plfs is in scope.
    assert!(lint_source("crates/iotrace/src/lib.rs", src).is_empty());
}

#[test]
fn lock_across_io_respects_drop_and_block_end() {
    let dropped = "fn f(&self) {\n    let guard = self.reader.lock();\n    drop(guard);\n    self.backing.open(path);\n}\n";
    assert!(lint_source(PLFS, dropped).is_empty());
    let scoped = "fn f(&self) {\n    {\n        let guard = self.reader.lock();\n        guard.push(1);\n    }\n    self.backing.open(path);\n}\n";
    assert!(lint_source(PLFS, scoped).is_empty());
}

#[test]
fn lock_across_io_ignores_read_with_arguments() {
    // `.read(buf)` is file I/O, not a lock guard; only `.read();` binds one.
    let src = "fn f(&self) {\n    let n = file.read(buf);\n    self.backing.open(path);\n}\n";
    assert!(lint_source(PLFS, src).is_empty());
}

#[test]
fn lock_across_io_respects_suppression() {
    let src = "fn f(&self) {\n    let guard = self.reader.lock();\n    // plfs-lint: allow(lock-across-io, \"seed once under the latch\")\n    self.backing.open(path);\n}\n";
    assert!(lint_source(PLFS, src).is_empty());
}

// ------------------------------------------------------- no-direct-backing-io

#[test]
fn no_direct_backing_io_fires_on_std_fs() {
    for line in [
        "std::fs::read(p)",
        "fs::File::open(p)",
        "OpenOptions::new()",
    ] {
        let src = format!("fn f() {{ let x = {line}; }}\n");
        assert!(
            rules(&lint_source(PLFS, &src)).contains(&"no-direct-backing-io"),
            "{line}"
        );
    }
}

#[test]
fn no_direct_backing_io_exempts_backing_rs_and_own_types() {
    let src = "fn f() { let x = std::fs::read(p); }\n";
    assert!(lint_source("crates/plfs/src/backing.rs", src).is_empty());
    // The container layer's own ReadFile/WriteFile are fine anywhere.
    let own = "fn f(b: &dyn Backing) { let r = ReadFile::open(b, c); let w = WriteFile::open(b, c, p, 1, 64); }\n";
    assert!(lint_source(PLFS, own).is_empty());
}

// ------------------------------------------------------------- lexer edge cases

#[test]
fn lexer_ignores_panics_inside_strings_and_comments() {
    let src = concat!(
        "fn f() {\n",
        "    let a = \"calls .unwrap() inside a string\";\n",
        "    // a comment mentioning .unwrap() and panic!(...)\n",
        "    /* block comment .expect(\"x\") */\n",
        "    let b = a;\n",
        "}\n"
    );
    assert!(lint_source(PRELOAD, src).is_empty());
}

#[test]
fn lexer_handles_raw_strings_with_hashes() {
    let src = "fn f() {\n    let re = r#\"quoted \".unwrap()\" inside raw\"#;\n    let re2 = r\"also .expect( here\";\n}\n";
    assert!(lint_source(PRELOAD, src).is_empty());
    // …but code after the raw string on the same line is still scanned.
    let bad = "fn f() { let x = (r#\"s\"#, y.unwrap()); }\n";
    assert_eq!(rules(&lint_source(PRELOAD, bad)), ["panic-in-ffi"]);
}

#[test]
fn lexer_handles_nested_block_comments() {
    let src = "fn f() {\n    /* outer /* nested .unwrap() */ still comment panic!() */\n    let x = 1;\n}\n";
    assert!(lint_source(PRELOAD, src).is_empty());
    // Code resumes after the outermost close.
    let bad = "fn f() { /* /* x */ */ y.unwrap(); }\n";
    assert_eq!(rules(&lint_source(PRELOAD, bad)), ["panic-in-ffi"]);
}

#[test]
fn lexer_distinguishes_char_literals_from_lifetimes() {
    // A char literal containing a quote-ish payload must not derail the
    // string state machine into hiding real code.
    let src = "fn f<'a>(x: &'a str) { let c = '\"'; let d = '\\''; y.unwrap(); }\n";
    assert_eq!(rules(&lint_source(PRELOAD, src)), ["panic-in-ffi"]);
}

#[test]
fn scrubbed_extern_c_is_still_detectable() {
    // String contents are blanked but delimiters stay, so `extern "C" fn`
    // survives scrubbing well enough for the extern-fn scanner.
    let src = "pub unsafe extern \"C\" fn f(b: *const u8) -> i32 {\n    args[0]\n}\n";
    let f = lint_source(PRELOAD, src);
    assert!(f.iter().any(|f| f.rule == "ffi-barrier"), "{f:?}");
    assert!(f.iter().any(|f| f.rule == "panic-in-ffi"), "{f:?}");
}

// ------------------------------------------------------------------ rendering

#[test]
fn json_output_round_trips_through_jsonlite() {
    let src = "fn f() { x.unwrap(); }\n";
    let findings = lint_source(PRELOAD, src);
    let doc = jsonlite::parse(&plfs_lint::render_json(&findings)).unwrap();
    assert_eq!(doc.get("count").and_then(|v| v.as_u64()), Some(1));
    let items = doc.get("findings").and_then(|v| v.as_array()).unwrap();
    assert_eq!(items.len(), 1);
    let item = &items[0];
    assert_eq!(
        item.get("rule").and_then(|v| v.as_str()),
        Some("panic-in-ffi")
    );
    assert_eq!(item.get("file").and_then(|v| v.as_str()), Some(PRELOAD));
    assert_eq!(item.get("line").and_then(|v| v.as_u64()), Some(1));
    assert!(item
        .get("snippet")
        .and_then(|v| v.as_str())
        .unwrap()
        .contains("unwrap"));
}
