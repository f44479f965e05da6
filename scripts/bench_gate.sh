#!/bin/sh
# Benchmark regression gate: regenerate every gated paperbench figure and
# compare it against its committed baseline results/BENCH_<figure>.json.
# Which figures are gated, which metrics each gates (with their direction
# and any absolute ceiling) and at which scale each may be regenerated are
# rows of the figure registry (crates/bench/src/figures.rs); `paperbench
# gated` lists them. Only runner-speed-independent ratios and exact counts
# are gated, so the comparison is meaningful across machines; CI runs this
# as a blocking job.
#
#   BENCH_GATE_THRESHOLD=0.30 scripts/bench_gate.sh
#   BENCH_GATE_QUICK=1 scripts/bench_gate.sh    # reduced volumes for the
#       figures whose gated metrics are scale-stable and deterministic
set -eu

threshold=${BENCH_GATE_THRESHOLD:-0.30}
quick=""
[ "${BENCH_GATE_QUICK:-0}" = "1" ] && quick="--quick"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

paperbench() {
    cargo run --offline --release -q -p bench --bin paperbench -- "$@" < /dev/null
}
paperbench gated $quick > "$tmp/gated"

status=0
while read -r fig flags; do
    # $flags is zero or more words: leave it unquoted.
    paperbench "$fig" $flags --emit-json "$tmp" > /dev/null
    echo "== $fig (threshold ${threshold}) =="
    if paperbench gate "results/BENCH_${fig}.json" "$tmp/BENCH_${fig}.json" \
        --threshold "$threshold"; then
        echo "bench_gate: $fig ok"
    else
        echo "bench_gate: $fig REGRESSED"
        status=1
    fi
done < "$tmp/gated"
exit $status
