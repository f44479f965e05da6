#!/bin/sh
# Tier-1 verification: build, full test suite, lint, bench smoke.
# Run from the repo root.
set -eu

# Formatting, as the CI verify job checks it.
cargo fmt --all -- --check
cargo build --release --offline
# Tier-1's bare `cargo test -q` already runs every crate's suite through
# `default-members`; --workspace adds the vendored stand-ins'. The root
# package's suites: prop_read_view (patched view == fresh merge == byte
# model), prop_backend (real backing == in-memory), prop_index and
# prop_container (the merged index against byte maps and its reference
# builder; prop_container's a_merged_index_reads_as_a_fresh_merge_and_the_model
# also holds the view loaded from a published merged index file to a fresh
# merge and the byte model over joins, closes, O_TRUNC, truncates and
# compact), open_heap_peak (the read-open's heap high-water mark, with and
# without a merged index file, and a truncate's: one chunk, not the bytes
# it keeps), read_after_write (op
# counts and refresh scaling), corrupt_index (hostile index droppings and
# access files are Corrupt: every text the marker validator rejects, on a
# cold open), create_race (racing creators of one container; joiners
# placed by container::HOSTDIRS), real_backing (an extending truncate's
# fast stat counts what its droppings hold), failure_injection (a failed
# truncate rewrite keeps the old bytes), small_file_cycle (lifecycle op
# counts; a truncated container keeps only the rewrite's hostdir),
# prop_meta (one warm mount == a fresh mount per operation) and the
# concurrent_* suites (readers never fail beside back-to-back compactions).
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

# The pair summariser must read its fixture (the unit tests pin its
# verdicts on it).
cargo run --offline --release -q -p plfs-tools -- pairs crates/tools/fixtures/pairs.jsonl > /dev/null

# The per-tool account of `unix_tools`, one round on a 2 MiB file as a
# smoke test: it fails only if a tool fails under the release preload or
# the container arm's `grep -c`, `md5sum` or `cp` out differs from the flat
# arm's. Its timings are for reading; nothing gates them.
SIZE_MB=2 scripts/tools_account.sh 1 > /dev/null

# Bench smoke: a fast pass through the micro benches (CRITERION_QUICK
# shrinks the measurement budget; benches still execute every group).
CRITERION_QUICK=1 cargo bench --offline -p bench --bench micro_plfs
CRITERION_QUICK=1 cargo bench --offline -p bench --bench micro_shim

# paperbench --emit-json round-trip: every figure of the registry, at
# quick scale; each emitted BENCH_*.json must pass `paperbench check`
# (schema drift in the emitter fails here).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cargo run --offline --release -q -p bench --bin paperbench -- \
    all --quick --emit-json "$tmp" > /dev/null
cargo run --offline --release -q -p bench --bin paperbench -- check "$tmp"/BENCH_*.json

# The committed baselines: each must be a figure of the registry (`check`
# fails on one that is not, so a deleted figure cannot leave its file
# behind), and each modeled one must be what the figure code regenerates
# at paper scale, byte for byte. Which files are modeled is what `check`
# reads from the registry.
cargo run --offline --release -q -p bench --bin paperbench -- check results/BENCH_*.json \
    > "$tmp/committed"
cargo run --offline --release -q -p bench --bin paperbench -- \
    all --emit-json "$tmp/paper" > /dev/null
# Emitted file names are shell words: the emitter maps every other
# character to `_`.
for f in $(sed -n 's/^ok: \([^:]*\): .*, modeled, .*/\1/p' "$tmp/committed"); do
    cmp "$f" "$tmp/paper/${f##*/}"
done

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
