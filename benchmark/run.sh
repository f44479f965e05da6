#!/usr/bin/env bash
# The benchmark's one command. Builds libldplfs_preload.so and the harness
# in release mode from the commit this script sits in, then runs the harness.
#
#   benchmark/run.sh [--seed N] [--out FILE] [--dir DIR] [--seconds S]
#       all five workloads: end-to-end pass (tracing off), then traced pass;
#       prints every metric by name with its unit; exit 1 if a check failed.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload, one pass; the last line of stdout is the result as one
#       JSON object (the form BENCHMARK.json's driver calls).
#
# --dir is the scratch directory, used as it is. By default the scratch
# directory is benchmark/out/scratch-<pid>, inside the checkout, with a tmpfs
# mounted on it that only this run can see (needs CAP_SYS_ADMIN; without it
# the directory's own file system is used and the numbers are noisier).
# Either way it is removed on exit.
set -euo pipefail

HERE=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
ROOT=$(dirname "$HERE")

# A relative CARGO_TARGET_DIR means relative to where we were called from.
TARGET=${CARGO_TARGET_DIR:-$ROOT/target}
case $TARGET in /*) ;; *) TARGET=$PWD/$TARGET ;; esac
export CARGO_TARGET_DIR=$TARGET

cd "$ROOT"
for need in Cargo.toml crates/preload/Cargo.toml crates/plfs/Cargo.toml crates/ldplfs/Cargo.toml; do
    if [ ! -f "$need" ]; then
        echo "run.sh: $ROOT is not a checkout of the repository (no $need)" >&2
        exit 2
    fi
done
command -v cargo >/dev/null || { echo "run.sh: cargo is not on PATH" >&2; exit 2; }

DIR=$HERE/out/scratch-$$
TMPFS=yes
ARGS=()
while [ $# -gt 0 ]; do
    case $1 in
        --dir) DIR=${2:?--dir needs a value}; TMPFS=no; shift 2 ;;
        *) ARGS+=("$1"); shift ;;
    esac
done
# The harness removes its scratch directory itself; this covers its being killed.
trap 'rm -rf "$DIR"' EXIT

now() { date +%s.%N; }
T0=$(now)
# Build output goes to stderr: stdout's last line belongs to the result.
cargo build --release --offline -p ldplfs-preload >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
BUILD_S=$(awk -v a="$T0" -v b="$(now)" 'BEGIN { printf "%.3f", b - a }')

BIN=$TARGET/release
"$BIN/benchmark" run \
    --lib "$BIN/libldplfs_preload.so" --app "$BIN/posix_app" \
    --dir "$DIR" --private-tmpfs "$TMPFS" --trace-dir "$HERE/out" --build-s "$BUILD_S" \
    ${ARGS[@]+"${ARGS[@]}"}
