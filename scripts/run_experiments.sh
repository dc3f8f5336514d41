#!/usr/bin/env bash
# Regenerates every evaluation artifact into results/.
#
# Usage: scripts/run_experiments.sh [extra table2/fig flags...]
# e.g.:  scripts/run_experiments.sh --full --procs 1,4,8,16,64
#
# Every artifact name is prefixed with a per-run id (override with
# PARCSR_RUN_ID=... for stable names), so consecutive runs land side by
# side instead of silently overwriting each other.
set -euo pipefail
cd "$(dirname "$0")/.."

RUN_ID="${PARCSR_RUN_ID:-$(date +%Y%m%d-%H%M%S)}"
OUT="results/${RUN_ID}"

mkdir -p results
echo "== building release binaries (obs feature: tracing + metrics + mem) =="
cargo build --release -p parcsr-bench --features obs

# Every run records metrics, and with them heap accounting; the stage
# summaries on stderr (including the `== mem ==` section) are archived next
# to the tables so memory regressions are diffable across runs.
echo "== Table II (run ${RUN_ID}) =="
cargo run --release -q -p parcsr-bench --features obs --bin table2 -- \
  --metrics --trace "${OUT}.table2.trace.json" "$@" \
  2> >(tee "${OUT}.table2.stages.txt" >&2) \
  | tee "${OUT}.table2.md"
echo "== Figure 6 =="
cargo run --release -q -p parcsr-bench --features obs --bin fig6 -- \
  --metrics --trace "${OUT}.fig6.trace.json" "$@" \
  2> >(tee "${OUT}.fig6.stages.txt" >&2) \
  | tee "${OUT}.fig6.txt"
echo "== Figure 7 =="
cargo run --release -q -p parcsr-bench --features obs --bin fig7 -- \
  --metrics --trace "${OUT}.fig7.trace.json" "$@" \
  2> >(tee "${OUT}.fig7.stages.txt" >&2) \
  | tee "${OUT}.fig7.txt"

# Machine-readable per-stage breakdown per (dataset, p): the bench JSON
# schema carries a `stages` array (with `mem_peak_bytes`) and a `mem`
# object on every processor sample. Compare two of these with
# `cargo xtask stage-diff <baseline> <current>`; the per-stage utilization
# and chunk statistics are the trace analysis below.
echo "== Table II (JSON, per-stage breakdown + memory) =="
cargo run --release -q -p parcsr-bench --features obs --bin table2 -- \
  --json --metrics "$@" > "${OUT}.table2.stages.json"

# Closed-loop serving run: sustained qps + per-query call latency
# percentiles per window, per query kind, and per degree class on the
# 2M-edge hub graph — plus per-window tail exemplars — archived as a
# *.slo.json summary (`cargo xtask slo-check <file> --p99-ns N --min-qps Q`
# to gate a run; compare two runs' overall blocks for serving drift).
echo "== closed-loop serving (qps + latency percentiles + SLO summary) =="
for clients in 1 2 8; do
  cargo run --release -q -p parcsr-bench --features obs --bin queries_closed_loop -- \
    --graph hub --clients "$clients" --duration-ms 2000 --window-ms 250 --json \
    2> >(tee "${OUT}.closed_loop.c${clients}.txt" >&2) \
    > "${OUT}.closed_loop.c${clients}.slo.json"
done

# Worker-utilization / chunk-imbalance analysis of each Chrome trace
# (cargo xtask trace-analyze <trace> for the human-readable report).
echo "== trace analysis (worker utilization + chunk imbalance) =="
for trace in "${OUT}".*.trace.json; do
  cargo xtask trace-analyze "$trace" --json "${trace%.trace.json}.imbalance.json" \
    > "${trace%.trace.json}.imbalance.txt"
done

echo "results written to results/ with prefix ${RUN_ID} (incl. *.trace.json Chrome traces, *.stages.* breakdowns with memory sections, *.imbalance.json analyzer output and *.slo.json serving summaries with exemplar blocks)"
