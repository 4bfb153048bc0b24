#!/usr/bin/env bash
# Samples one benchmark workload with the SIGPROF sampler (sigprof.c) and
# prints where the time went (symbolize.py):
#
#   scripts/prof/run.sh <workload> [reps] [seed] [-- --root NAME]
#   scripts/prof/run.sh tree_10m 4 1 -- --root peek_chain_ids
#
# Builds `lfsbench` with frame pointers into its own target directory
# (target/prof, so neither the benchmark's nor the workspace's build is
# disturbed), runs `lfsbench rep <workload> <seed>` `reps` times under the
# sampler at 250 Hz, and keeps the captures in target/prof/captures/ for
# further symbolize.py runs. It measures; it gates nothing.
set -euo pipefail

workload="${1:?usage: run.sh <workload> [reps] [seed] [-- --root NAME]}"
reps="${2:-4}"
seed="${3:-1}"
shift $(( $# < 3 ? $# : 3 ))
[[ "${1:-}" == "--" ]] && shift

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(cd "$here/../.." && pwd)"
target="$repo/target/prof"
captures="$target/captures"
mkdir -p "$captures"

gcc -O2 -shared -fPIC -o "$target/libsigprof.so" "$here/sigprof.c"
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR="$target" \
    cargo build --release --offline --quiet --manifest-path "$repo/benchmark/Cargo.toml" --bin lfsbench

rm -f "$captures/$workload".*
for _ in $(seq "$reps"); do
    SIGPROF_OUT="$captures/$workload" LD_PRELOAD="$target/libsigprof.so" \
        "$target/release/lfsbench" rep "$workload" "$seed" > /dev/null
done
python3 "$here/symbolize.py" "$@" "$captures/$workload".*
