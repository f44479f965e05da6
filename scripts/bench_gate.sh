#!/bin/sh
# Benchmark regression gate: regenerate the gated paperbench figures and
# diff them against the committed baselines in results/. Fails when a
# gated metric (write-path patch-cost growth across the resident-index
# sweep — absolute bar 4x, Table II shim-overhead ratio,
# metadata ops-per-open reduction, per-phase op counts — the
# open+write+close cycle held to absolute ceilings, 31 ops cache-off and
# 28 default, the small-file cycle to 15 — and the projected MDS-storm
# seconds of both measured profiles,
# list-I/O vs sieving/per-extent speedups, burst-buffer destage overlap
# speedup) regresses by more than the threshold.
# Only runner-speed-independent ratios and exact counts are gated, so the
# comparison is meaningful across machines; CI runs this as a blocking job.
#
#   BENCH_GATE_THRESHOLD=0.30 scripts/bench_gate.sh
#   BENCH_GATE_QUICK=1 scripts/bench_gate.sh    # reduced volumes where the
#       gated ratios are scale-stable and deterministic (metadata,
#       noncontig); writepath/table2 always run at paper scale — their
#       measured ratios get noisy or volume-dependent at quick scale
set -eu

threshold=${BENCH_GATE_THRESHOLD:-0.30}
quick=""
[ "${BENCH_GATE_QUICK:-0}" = "1" ] && quick="--quick"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Regenerate the gated figures at the same scale as the committed files
# (or --quick where the gated ratios do not depend on volume).
cargo run --offline --release -q -p bench --bin paperbench -- \
    writepath --emit-json "$tmp" > /dev/null
cargo run --offline --release -q -p bench --bin paperbench -- \
    table2 --emit-json "$tmp" > /dev/null
cargo run --offline --release -q -p bench --bin paperbench -- \
    metadata $quick --emit-json "$tmp" > /dev/null
cargo run --offline --release -q -p bench --bin paperbench -- \
    noncontig $quick --emit-json "$tmp" > /dev/null
# staging2 always runs at paper scale: its gated ratio is costed from op
# counts at fixed preset rates (deterministic, sub-second even at paper
# scale) but its value shifts with workload volume, so the regen must match
# the committed baseline's scale.
cargo run --offline --release -q -p bench --bin paperbench -- \
    staging2 --emit-json "$tmp" > /dev/null

status=0
for fig in writepath table2 metadata noncontig staging2; do
    base="results/BENCH_${fig}.json"
    fresh="$tmp/BENCH_${fig}.json"
    if [ ! -f "$base" ]; then
        echo "bench_gate: no committed baseline $base, skipping"
        continue
    fi
    echo "== $fig (threshold ${threshold}) =="
    if cargo run --offline --release -q -p plfs-tools -- \
        benchgate "$base" "$fresh" --threshold "$threshold"; then
        echo "bench_gate: $fig ok"
    else
        echo "bench_gate: $fig REGRESSED"
        status=1
    fi
done
exit $status
