#!/usr/bin/env bash
# Regenerates results/<figure>.txt with the release figure driver; a
# figure's stdout is its record:
#   scripts/run_figs.sh            # every figure of the plain build
#   scripts/run_figs.sh fig10_latency_cdfs fig15_fault_tolerance
# Build first: cargo build --release --offline (`lfsfig list` names the
# figures). fig08d_million_scale and bench_store are regenerated on the
# counting-allocator build instead, because their recorded numbers were
# taken under its huge-page advice (see crates/bench/src/lfsfig/main.rs) and fig08d
# needs its byte counters:
#   cargo build --release --offline -p lambda-bench --features alloc-stats
#   scripts/run_figs.sh fig08d_million_scale bench_store
# Runs every figure named even if one fails (unknown name, panic, or the
# 1 800 s timeout), then exits 1 naming the failures.
set -u
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
  set -- tab01_loc fig08a_industrial_25k fig08b_industrial_50k fig08c_perf_per_cost \
         fig09_cumulative_cost fig10_latency_cdfs fig11_client_scaling \
         fig12_resource_scaling fig13_perf_per_cost_micro fig14_autoscaling_ablation \
         tab03_subtree_mv fig15_fault_tolerance fig15b_chaos fig15c_durability \
         fig16_indexfs ablation_knobs
fi
mkdir -p results
failed=()
for fig in "$@"; do
  echo "=== RUNNING $fig $(date +%T) ==="
  out="$(mktemp)"
  timeout 1800 ./target/release/lfsfig "$fig" > "$out" 2>&1
  rc=$?
  echo "=== DONE $fig rc=$rc $(date +%T) ==="
  # Only a complete run replaces results/<figure>.txt; keep going either
  # way so the other files are still regenerated.
  if [ "$rc" -eq 0 ]; then
    mv "$out" "results/$fig.txt"
  else
    echo "$fig failed; its truncated output is kept in $out" >&2
    failed+=("$fig")
  fi
done
if [ ${#failed[@]} -gt 0 ]; then
  echo "FIGS_FAILED: ${failed[*]}" >&2
  exit 1
fi
echo FIGS_DONE
