#!/usr/bin/env bash
# One entry point for correctness + perf verification of a PR:
#   1. tier-1: release build + full test suite (quiet). The root manifest
#      lists the root package and every crate as default members, so this
#      builds the bench binaries and runs the ~410 crate-level tests too.
#   2. lint: clippy across the workspace, warnings denied
#   3. kernel bench smoke: a fast liveness run of the DES-kernel
#      throughput microbench (slab/wheel engine vs boxed baseline)
#   4. metadata bench smoke: same for the metadata-plane microbench
#      (interned paths / arena cache / zero-clone store vs baselines)
#   5. faas bench smoke: same for the FaaS control-plane microbench
#      (slab instance table / ready heaps / pooled invocations vs the
#      retained faas::baseline)
#   6. fig10 golden check: the seeded latency-CDF figure must be
#      byte-identical to results/golden/fig10_latency_cdfs.txt (modulo
#      the wall-clock line) — the end-to-end determinism contract the
#      hot-path overhauls must not break.
#   7. fig15 golden check: same contract for the fault-tolerance figure —
#      with no fault plan installed, the fault plane must not perturb a
#      single event (results/golden/fig15_fault_tolerance.txt).
#   8. chaos smoke: fig15b_chaos --smoke runs every fault class against a
#      small system and exits nonzero if any post-run invariant audit
#      (leaked locks/txns/invocations, namespace↔store divergence,
#      op-count conservation) fails.
#   9. parallel DES smoke: bench_parallel --smoke runs the sharded
#      cluster at N in {1,2,4,8} worker threads and asserts every thread
#      count produces a bit-identical ClusterReport fingerprint.
#  10. fig10 at --threads=4: the figure sweep re-run on four worker
#      threads must still match the golden capture byte-for-byte —
#      sweep-level parallelism must never reach the simulated results.
#  11. memory sweep smoke: fig08d_million_scale --smoke --phase-timings
#      exercises the footprint instrumentation and the per-phase
#      wall-clock breakdown end-to-end (small scales, exact bytes/inode +
#      bytes/client accounting via the counting allocator).
#  12. alloc-stats feature build: the counting-allocator feature must
#      keep compiling in release mode (it is off by default, so only
#      this step catches bit-rot).
#  13. bootstrap budget regression: the streaming tree loader must keep
#      loading fresh trees at >=500k inodes/sec and stay at least as
#      dense per inode as insert+repack (crates/bench/tests/
#      bootstrap_budget.rs, release + alloc-stats).
#  14. store engine bench smoke: bench_store --smoke runs the arena B+
#      tree vs std-BTreeMap microbench at small scales (liveness; the
#      full-scale numbers live in results/BENCH_store.json). The engine's
#      observational equivalence is pinned by the differential proptests
#      in crates/store/tests/engine_differential.rs, which tier-1
#      `cargo test` runs since the crates became default members (until
#      then only `cargo test --workspace` did).
#  15. per-op allocation regression (crates/bench/tests/alloc_per_op.rs,
#      release + alloc-stats): lean reads (point gets + visitor scans)
#      against a 250k-inode tree must make zero heap allocations; through
#      a warmed λFS, a cached ls of 8 and of 512 children must allocate
#      equally often and a Stat/ReadFile/Ls mix at most 16 times per op.
#  16. LSM crash/replay differential: the lambda-lsm proptests (random
#      put/delete/flush interleavings crashed at arbitrary points; WAL
#      replay must reconstruct the exact pre-crash visible state) run
#      explicitly in release mode.
#  17. durable chaos smoke: fig15b_chaos --smoke --durable re-runs every
#      fault class on the WAL-backed durable store backend — shard
#      failovers recover by WAL replay, and the audit adds the
#      post-crash shadow↔table consistency check.
#  18. durability sweep smoke: fig15c_durability --smoke runs the
#      flush-interval x crash-rate grid (recovery time, write
#      amplification, lost-window aborts) and exits nonzero on any
#      audit failure. Full-scale numbers: results/BENCH_durability.json.
#  19. the benchmark (BENCHMARK.json): `benchmark/run.sh --smoke` builds
#      the standalone package and runs all four workloads at 1/20 size
#      with every correctness check; then the package's own tests.
#
# The smoke benches write results/BENCH_*_smoke.json and are
# informational at that scale; the recorded full-size numbers live in
# results/BENCH_kernel.json, results/BENCH_metadata.json, and
# results/BENCH_faas.json (regenerate with `bench_kernel --scale=25` /
# `bench_metadata` / `bench_faas`).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: cargo build --release =="
cargo build --release --offline
# The memory sweep smoke needs its binary built with the counting allocator.
cargo build --release --offline -p lambda-bench --bin fig08d_million_scale --features alloc-stats

echo "== tier-1: cargo test -q =="
cargo test -q --offline

echo "== lint: cargo clippy (deny warnings) =="
cargo clippy --workspace --offline -- -D warnings

echo "== kernel bench smoke =="
./target/release/bench_kernel --smoke

echo "== metadata bench smoke =="
./target/release/bench_metadata --smoke

echo "== faas bench smoke =="
./target/release/bench_faas --smoke

echo "== fig10 golden check (byte-identical modulo wall-clock) =="
./target/release/fig10_latency_cdfs > results/fig10_latency_cdfs.txt
diff <(grep -v wall-clock results/golden/fig10_latency_cdfs.txt) \
     <(grep -v wall-clock results/fig10_latency_cdfs.txt)
echo "fig10 output matches the golden capture"

echo "== fig15 golden check (fault plane off => byte-identical) =="
./target/release/fig15_fault_tolerance > results/fig15_fault_tolerance.txt
diff <(grep -v wall-clock results/golden/fig15_fault_tolerance.txt) \
     <(grep -v wall-clock results/fig15_fault_tolerance.txt)
echo "fig15 output matches the golden capture"

echo "== chaos smoke (fault classes + invariant audits) =="
./target/release/fig15b_chaos --smoke

echo "== parallel DES smoke (N=1..8 fingerprints must match) =="
./target/release/bench_parallel --smoke

echo "== fig10 golden check at --threads=4 =="
./target/release/fig10_latency_cdfs --threads=4 > results/fig10_latency_cdfs_t4.txt
diff <(grep -v wall-clock results/golden/fig10_latency_cdfs.txt) \
     <(grep -v wall-clock results/fig10_latency_cdfs_t4.txt)
rm -f results/fig10_latency_cdfs_t4.txt
echo "fig10 output matches the golden capture at 4 threads"

echo "== memory sweep smoke (fig08d, counting allocator, phase timings) =="
./target/release/fig08d_million_scale --smoke --phase-timings

echo "== memory budget regression (bytes/inode at scale 25) =="
cargo test -q --release --offline -p lambda-bench --features alloc-stats --test mem_budget

echo "== bootstrap budget regression (throughput floor + bulk density) =="
cargo test -q --release --offline -p lambda-bench --features alloc-stats --test bootstrap_budget

echo "== store engine bench smoke (arena B+ tree vs std BTreeMap) =="
./target/release/bench_store --smoke

echo "== per-op allocation regression (lean reads zero; warmed reads per event) =="
cargo test -q --release --offline -p lambda-bench --features alloc-stats --test alloc_per_op

echo "== LSM crash/replay differential proptests =="
cargo test -q --release --offline -p lambda-lsm --test crash_replay

echo "== durable chaos smoke (WAL replay recovery + shadow check) =="
./target/release/fig15b_chaos --smoke --durable

echo "== durability sweep smoke (flush interval x crash rate) =="
./target/release/fig15c_durability --smoke

echo "== benchmark smoke (four workloads at 1/20 size) + its own tests =="
bash benchmark/run.sh --smoke
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "verify.sh: all checks passed"
