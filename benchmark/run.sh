#!/usr/bin/env bash
# Builds the benchmark from source (offline, into $CARGO_TARGET_DIR or
# .bench_build) and runs it with the arguments given:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --smoke
#   bash benchmark/run.sh compare <result file or dir> <the same>
#
# Run it from the root of the checkout. `--trace 1` runs the build that
# registers the counting allocator (`lfsbench-traced`); everything else
# runs `lfsbench`, whose numbers are the end-to-end ones.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
manifest="$here/Cargo.toml"

traced=0
prev=""
for arg in "$@"; do
    if [[ "$prev" == "--trace" && "$arg" == "1" ]] || [[ "$arg" == "--trace=1" ]]; then
        traced=1
    fi
    prev="$arg"
done

# Cargo's progress goes to stderr; stdout carries only the benchmark's own
# output, the result line last.
cargo build --release --offline --quiet --manifest-path "$manifest" --bin lfsbench >&2
bin="$CARGO_TARGET_DIR/release/lfsbench"
if [[ "$traced" == 1 ]]; then
    cargo build --release --offline --quiet --manifest-path "$manifest" \
        --features trace --bin lfsbench-traced >&2
    bin="$CARGO_TARGET_DIR/release/lfsbench-traced"
fi
exec "$bin" "$@"
