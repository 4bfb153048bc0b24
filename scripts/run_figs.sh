#!/usr/bin/env bash
# Regenerates results/<bin>.txt from the release figure binaries:
#   scripts/run_figs.sh            # every figure and table
#   scripts/run_figs.sh fig10_latency_cdfs fig15_fault_tolerance
# Build first: cargo build --release --offline
set -u
cd "$(dirname "$0")/.."
if [ $# -eq 0 ]; then
  set -- tab01_loc fig08a_industrial_25k fig08b_industrial_50k fig08c_perf_per_cost \
         fig09_cumulative_cost fig10_latency_cdfs fig11_client_scaling \
         fig12_resource_scaling fig13_perf_per_cost_micro fig14_autoscaling_ablation \
         tab03_subtree_mv fig15_fault_tolerance fig16_indexfs ablation_knobs
fi
mkdir -p results
for bin in "$@"; do
  echo "=== RUNNING $bin $(date +%T) ==="
  timeout 1800 "./target/release/$bin" > "results/$bin.txt" 2>&1
  echo "=== DONE $bin rc=$? $(date +%T) ==="
done
echo FIGS_DONE
