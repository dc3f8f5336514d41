#!/usr/bin/env bash
# Regenerates every evaluation artifact into results/.
#
# Usage: scripts/run_experiments.sh [extra table2 flags...]
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
# One sweep prints Table II, then Figure 6, then Figure 7.
echo "== Table II, Figure 6, Figure 7 (run ${RUN_ID}) =="
cargo run --release -q -p parcsr-bench --features obs --bin table2 -- \
  --metrics --trace "${OUT}.table2.trace.json" "$@" \
  2> >(tee "${OUT}.table2.stages.txt" >&2) \
  | tee "${OUT}.table2.md"

# Machine-readable per-stage breakdown per (dataset, p): the bench JSON
# schema carries a `stages` array (with `mem_peak_bytes`) and a `mem`
# object on every processor sample. Compare two of these with
# `cargo xtask stage-diff <baseline> <current>` (each stage's share within
# ±25 pp and peak heap within ±25 %).
echo "== Table II (JSON, per-stage breakdown + memory) =="
cargo run --release -q -p parcsr-bench --features obs --bin table2 -- \
  --json --metrics "$@" > "${OUT}.table2.stages.json"

# Closed-loop serving run: sustained qps + per-query call latency
# percentiles overall, per query kind, and per degree class on the
# 2M-edge hub graph — plus the run's slowest queries — archived as a
# *.slo.json summary (`cargo xtask slo-check <file> [baseline]` grades a
# run: p99 at most 1 ms and qps at least 10 kq/s, tightened to 1.5× / 0.5×
# the baseline's when one is given). CI's gated smokes are
# `cargo xtask smoke stages` and `cargo xtask smoke serving`.
echo "== closed-loop serving (qps + latency percentiles + SLO summary) =="
for clients in 1 2 8; do
  cargo run --release -q -p parcsr-bench --features obs --bin queries_closed_loop -- \
    --clients "$clients" --duration-ms 2000 --json \
    2> >(tee "${OUT}.closed_loop.c${clients}.txt" >&2) \
    > "${OUT}.closed_loop.c${clients}.slo.json"
done

# Validate each Chrome trace: well-typed, time-ordered events, and the
# stage rules (positive stage durations, worker spans inside stages,
# every planned chunk present).
echo "== trace check =="
for trace in "${OUT}".*.trace.json; do
  cargo xtask check-trace "$trace"
done

echo "results written to results/ with prefix ${RUN_ID} (incl. *.trace.json Chrome traces, *.stages.* breakdowns with memory sections and *.slo.json serving summaries with tail exemplars)"
