#!/bin/sh
# Tier-1 verification: build, full test suite, lint, bench smoke.
# Run from the repo root.
set -eu

cargo build --release --offline
# --workspace includes the root package (what tier-1 `cargo test -q` runs):
# prop_read_view (patched view == fresh merge == byte model), prop_listio
# (list call == per-extent loop), prop_backend (batched/tiered == direct),
# read_after_write (op counts and refresh scaling) and the concurrent_*
# suites live there.
cargo test --workspace -q --offline
# The benchmark harness is a workspace of its own: compile and test it
# against the product crates here, so an API break under benchmark/ shows
# up in CI and not only when the benchmark is next run.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo clippy --workspace --offline --all-targets -- -D warnings

# plfs-lint gate: the workspace must be clean under the project's own
# static rules — the per-line set (panic-in-ffi, ffi-barrier,
# errno-discipline, relaxed-ordering-audit, lock-across-io,
# no-direct-backing-io) plus the call-graph passes (deadlock-cycle,
# signal-safety, errno-clobber, symbol-coverage).
# Exit code 1 + a findings listing on any hit.
cargo run --offline --release -q -p plfs-tools -- lint .

# SARIF round-trip: the --sarif renderer's output must satisfy the
# independent sarifcheck validator (version, driver, ruleIndex
# back-references, 1-based regions). Catches renderer schema drift.
sarif_tmp=$(mktemp)
cargo run --offline --release -q -p plfs-tools -- lint . --sarif > "$sarif_tmp" || true
cargo run --offline --release -q -p plfs-tools -- sarifcheck "$sarif_tmp"
rm -f "$sarif_tmp"

# Configuration table drift: README's block must be the knob table
# (`crates/plfs/src/conf.rs` KNOBS) verbatim.
knobs_tmp=$(mktemp)
sed -n '/<!-- knobs:begin -->/,/<!-- knobs:end -->/p' README.md | sed '1d;$d' > "$knobs_tmp"
cargo run --offline --release -q -p plfs-tools -- rccheck --knobs | diff -u "$knobs_tmp" - || {
    echo "README.md Configuration table differs from 'plfs-tools rccheck --knobs'" >&2
    rm -f "$knobs_tmp"
    exit 1
}
rm -f "$knobs_tmp"

# Bench smoke: a fast pass through the micro benches (CRITERION_QUICK
# shrinks the measurement budget; benches still execute every group).
CRITERION_QUICK=1 cargo bench --offline -p bench --bench micro_plfs
CRITERION_QUICK=1 cargo bench --offline -p bench --bench micro_shim

# paperbench --emit-json round-trip: the emitted BENCH_*.json must parse
# back through jsonlite (schema drift in the emitter fails here).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cargo run --offline --release -q -p bench --bin paperbench -- \
    writepath --quick --emit-json "$tmp" > /dev/null
cargo run --offline --release -q -p bench --bin paperbench -- \
    table2 --gb 1 --emit-json "$tmp" > /dev/null
cargo run --offline --release -q -p bench --bin paperbench -- \
    metadata --quick --emit-json "$tmp" > /dev/null
cargo run --offline --release -q -p bench --bin paperbench -- \
    noncontig --quick --emit-json "$tmp" > /dev/null
cargo run --offline --release -q -p bench --bin paperbench -- \
    staging2 --quick --emit-json "$tmp" > /dev/null
cargo run --offline --release -q -p plfs-tools -- benchcheck "$tmp"/BENCH_*.json

# The harness build above rewrites benchmark/Cargo.lock (it prunes entries
# the product crates no longer pull in). benchmark/ is frozen between
# [benchmark] PRs: put the lock file back, then nothing under it — nor
# BENCHMARK.json — may differ from the commit.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    git checkout -- benchmark/Cargo.lock
    dirty=$(git status --porcelain benchmark BENCHMARK.json)
    if [ -n "$dirty" ]; then
        echo "verify: the frozen benchmark differs from the commit:" >&2
        echo "$dirty" >&2
        exit 1
    fi
fi

echo "verify: OK"
