#!/usr/bin/env bash
# Paired benchmark runs of two checkouts, for judging a change against its
# parent with identical benchmark code and settings.
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR N SECONDS WORKLOAD... >> runs.jsonl
#   cargo run --release -p plfs-tools -- pairs runs.jsonl
#
# N is a pair count (pairs 1..N) or a range FIRST-LAST, e.g. 11-20 for
# seeds not used before. For each workload and each pair i, runs
#   benchmark/run.sh --workload W --seed i --seconds SECONDS --trace 0
# in both checkouts, in ABBA order: odd pairs run the parent first, even
# pairs the change first, so neither side always runs on the warmer
# machine. Each checkout builds into its own target/ directory. One JSONL
# line per run goes to stdout:
#   {"side":"parent"|"change","workload":W,"pair":i,"result":<run.sh's last line>}
# Build output and progress go to stderr. A run that exits non-zero still
# prints its line (its result says correct:false); a run that prints no
# result stops the script.
#
# BENCH_DIR (optional) is a directory to run in, made if missing, e.g.
#   BENCH_DIR=/dev/shm/pairs scripts/bench_pairs.sh ...
# Each run then gets run.sh --dir "$BENCH_DIR/parent" or "$BENCH_DIR/change"
# (made and removed by the run) instead of a private tmpfs mounted under its
# checkout, which needs CAP_SYS_ADMIN: without that capability every run
# falls back to the checkout's own disk. An existing tmpfs such as /dev/shm
# gives both sides RAM-backed files with no mount.
set -euo pipefail

if [ $# -lt 5 ]; then
    sed -n '2,26p' "$0" >&2
    exit 2
fi
if [ -n "${BENCH_DIR:-}" ]; then
    mkdir -p "$BENCH_DIR"
    BENCH_DIR=$(cd "$BENCH_DIR" && pwd)
fi
PARENT=$(cd "$1" && pwd)
CHANGE=$(cd "$2" && pwd)
case $3 in
    *-*) FIRST=${3%-*} LAST=${3#*-} ;;
    *) FIRST=1 LAST=$3 ;;
esac
SECONDS_PER_RUN=$4
shift 4

run() { # side dir workload pair
    local out line dir_args=()
    echo "bench_pairs: $1 $3 pair $4" >&2
    if [ -n "${BENCH_DIR:-}" ]; then
        dir_args=(--dir "$BENCH_DIR/$1")
    fi
    out=$(env -u CARGO_TARGET_DIR bash "$2/benchmark/run.sh" --workload "$3" --seed "$4" \
        --seconds "$SECONDS_PER_RUN" --trace 0 ${dir_args[@]+"${dir_args[@]}"}) || true
    line=$(printf '%s\n' "$out" | tail -n 1)
    case $line in
        '{'*) printf '{"side":"%s","workload":"%s","pair":%d,"result":%s}\n' "$1" "$3" "$4" "$line" ;;
        *) echo "bench_pairs: $1 $3 pair $4 printed no result" >&2; exit 1 ;;
    esac
}

# Building the harness rewrites each checkout's benchmark/Cargo.lock; put
# them back, as scripts/verify.sh does.
restore() {
    for dir in "$PARENT" "$CHANGE"; do
        git -C "$dir" checkout -- benchmark/Cargo.lock 2>/dev/null || true
    done
}
trap restore EXIT

for workload in "$@"; do
    for i in $(seq "$FIRST" "$LAST"); do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$PARENT" "$workload" "$i"
            run change "$CHANGE" "$workload" "$i"
        else
            run change "$CHANGE" "$workload" "$i"
            run parent "$PARENT" "$workload" "$i"
        fi
    done
done
