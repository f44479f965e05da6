#!/usr/bin/env bash
# The per-tool account of the benchmark's `unix_tools` workload: the seven
# steps its timed section runs (benchmark/src/e2e.rs, `run_tools`), one
# process at a time, on a container under the release preload and on a
# flat twin, the two arms alternating each round. Prints each step's median
# wall time on either arm and the difference.
#
#   scripts/tools_account.sh [ROUNDS] [DIR]
#
# ROUNDS defaults to 11. DIR is the scratch directory, made if missing;
# without it one is made under /dev/shm (or $TMPDIR). The files the script
# makes there are removed on exit. SIZE_MB (default 64, the workload's
# size) sizes the source text. Exit 1 if a tool fails, or if the arms'
# `grep -c`/`md5sum` outputs differ or a `cp` back out differs from the
# source. There is no timing gate: the medians are for reading.
set -euo pipefail

ROUNDS=${1:-11}
ROOT=$(cd "$(dirname "$0")/.." && pwd)
SIZE_MB=${SIZE_MB:-64}
if [ $# -ge 2 ]; then
    mkdir -p "$2"
    DIR=$(mktemp -d "$(cd "$2" && pwd)/tools_account.XXXXXX")
else
    base=/dev/shm
    [ -d "$base" ] && [ -w "$base" ] || base=${TMPDIR:-/tmp}
    DIR=$(mktemp -d "$base/tools_account.XXXXXX")
fi
trap 'rm -rf "$DIR"' EXIT

(cd "$ROOT" && cargo build --release --offline -q -p ldplfs-preload)
LIB=$ROOT/target/release/libldplfs_preload.so

# Lines of lowercase words, as the workload's text; the pattern is the
# first three letters of the second line.
SRC=$DIR/source.txt
head -c $((SIZE_MB * 1048576 * 3 / 4)) /dev/urandom | base64 -w 76 | tr '0-9+/A-Z=' 'a-z a-z' > "$SRC"
truncate -s $((SIZE_MB * 1048576)) "$SRC"
PATTERN=$(sed -n 2p "$SRC" | cut -c1-3)

MOUNT=$DIR/mnt BACKEND=$DIR/backend FLAT=$DIR/flat
TIMES=$DIR/times
: > "$TIMES"

now() { date +%s%N; }

# arm step command... : run one step on one arm, its wall time appended
# to $TIMES. grep's and md5sum's stdout is kept in $DIR/out.<arm>.<step>;
# the others' goes to /dev/null, as the harness sends it (`cat` into a
# file would move its bytes by copy_file_range, which it does not there).
step() {
    local arm=$1 name=$2 out=/dev/null t0 t1
    shift 2
    case $name in grep | md5sum) out=$DIR/out.$arm.$name ;; esac
    t0=$(now)
    if [ "$arm" = plfs ]; then
        LD_PRELOAD=$LIB LDPLFS_MOUNT=$MOUNT LDPLFS_BACKEND=$BACKEND "$@" > "$out"
    else
        "$@" > "$out"
    fi
    t1=$(now)
    echo "$arm $name $(((t1 - t0) / 1000))" >> "$TIMES"
}

arm() { # arm: one pass of the seven steps, from an empty directory
    local a=$1 at
    rm -rf "$BACKEND" "$FLAT" "$DIR/cp_out.$a"
    mkdir -p "$BACKEND" "$FLAT"
    case $a in plfs) at=$MOUNT ;; *) at=$FLAT ;; esac
    step "$a" cp_in cp "$SRC" "$at/cp_in"
    step "$a" dd_4k dd if="$SRC" of="$at/dd_4k" bs=4k status=none
    step "$a" dd_1m dd if="$SRC" of="$at/dd_1m" bs=1M status=none
    step "$a" cat cat "$at/cp_in"
    step "$a" grep grep -c "$PATTERN" "$at/dd_4k"
    step "$a" md5sum md5sum "$at/dd_1m"
    step "$a" cp_out cp "$at/cp_in" "$DIR/cp_out.$a"
    cmp -s "$SRC" "$DIR/cp_out.$a" || { echo "tools_account: cp out of the $a arm differs" >&2; exit 1; }
}

for r in $(seq 1 "$ROUNDS"); do
    if [ $((r % 2)) -eq 1 ]; then arm plfs; arm flat; else arm flat; arm plfs; fi
    for s in grep md5sum; do
        a=$(cut -d' ' -f1 "$DIR/out.plfs.$s") b=$(cut -d' ' -f1 "$DIR/out.flat.$s")
        [ "$a" = "$b" ] || { echo "tools_account: $s differs: $a vs $b" >&2; exit 1; }
    done
done

echo "# $ROUNDS rounds, ${SIZE_MB} MiB, $DIR; median wall ms per step"
printf '%-8s %12s %12s %10s\n' step container flat diff
awk '
    { t[$1 " " $2, ++n[$1 " " $2]] = $3 / 1000; if (!($2 in seen)) { seen[$2] = 1; order[++k] = $2 } }
    function median(key,   i, j, m, v, tmp) {
        m = n[key]
        for (i = 1; i <= m; i++) v[i] = t[key, i]
        for (i = 2; i <= m; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { tmp = v[j]; v[j] = v[j - 1]; v[j - 1] = tmp }
        return m % 2 ? v[(m + 1) / 2] : (v[m / 2] + v[m / 2 + 1]) / 2
    }
    END {
        for (i = 1; i <= k; i++) {
            p = median("plfs " order[i]); f = median("flat " order[i])
            sp += p; sf += f
            printf "%-8s %12.2f %12.2f %+10.2f\n", order[i], p, f, p - f
        }
        printf "%-8s %12.2f %12.2f %+10.2f\n", "sum", sp, sf, sp - sf
    }' "$TIMES"
