#!/usr/bin/env bash
# Samples one benchmark workload with the SIGPROF sampler (sigprof.c), or
# with --alloc the allocation-site sampler (allocsample.c), and prints
# where the time or the allocations went (symbolize.py):
#
#   scripts/prof/run.sh <workload> [--alloc] [reps] [seed] [-- --root NAME]
#   scripts/prof/run.sh tree_10m 4 1 -- --root peek_chain_ids
#   scripts/prof/run.sh write_mix --alloc 1 1 -- --by-module
#
# Builds `lfsbench` with frame pointers into its own target directory
# (target/prof, so neither the benchmark's nor the workspace's build is
# disturbed), runs `lfsbench rep <workload> <seed>` `reps` times under the
# sampler, and keeps the captures in target/prof/captures/ for further
# symbolize.py runs. SIGPROF samples at 250 Hz. --alloc samples every
# 61st allocation and prints two reports: the sampled allocations by
# stack, then the bytes of sampled blocks still live at the heap's peak.
# It measures; it gates nothing.
set -euo pipefail

usage="usage: run.sh <workload> [--alloc] [reps] [seed] [-- symbolize.py options]"
workload="${1:?$usage}"
shift
alloc=0
positional=()
while [[ $# -gt 0 && "$1" != "--" ]]; do
    case "$1" in
        --alloc) alloc=1 ;;
        *) positional+=("$1") ;;
    esac
    shift
done
[[ "${1:-}" == "--" ]] && shift
reps="${positional[0]:-4}"
seed="${positional[1]:-1}"

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(cd "$here/../.." && pwd)"
target="$repo/target/prof"
captures="$target/captures"
mkdir -p "$captures"

RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$target" \
    cargo build --release --offline --quiet --manifest-path "$repo/benchmark/Cargo.toml" --bin lfsbench

if [[ "$alloc" == 1 ]]; then
    gcc -O2 -fno-omit-frame-pointer -shared -fPIC -o "$target/liballocsample.so" "$here/allocsample.c"
    rm -f "$captures/$workload".alloc.*
    for _ in $(seq "$reps"); do
        ALLOCSAMPLE_OUT="$captures/$workload.alloc" LD_PRELOAD="$target/liballocsample.so" \
            "$target/release/lfsbench" rep "$workload" "$seed" > /dev/null
    done
    echo "#### allocation sites: every 61st allocation, by stack"
    python3 "$here/symbolize.py" "$@" "$captures/$workload".alloc.[0-9]*
    echo
    echo "#### live at the heap's peak: bytes of sampled blocks, by stack"
    python3 "$here/symbolize.py" "$@" "$captures/$workload".alloc.peak.*
    exit 0
fi

gcc -O2 -shared -fPIC -o "$target/libsigprof.so" "$here/sigprof.c"
rm -f "$captures/$workload".[0-9]*
for _ in $(seq "$reps"); do
    SIGPROF_OUT="$captures/$workload" LD_PRELOAD="$target/libsigprof.so" \
        "$target/release/lfsbench" rep "$workload" "$seed" > /dev/null
done
python3 "$here/symbolize.py" "$@" "$captures/$workload".[0-9]*
