#!/usr/bin/env bash
# One entry point for correctness + perf verification of a PR. Every figure
# step runs `./target/release/lfsfig <figure> …`; the steps that need the
# plain build come first, because step 14 rebuilds that one binary with the
# counting allocator for the step after it.
#   1. tier-1: release build + full test suite (quiet). The root manifest
#      lists the root package, every crate and the stub crates (stubs/*)
#      as default members, so this builds `lfsfig` and runs the ~400
#      crate-level tests too (crates/bench/tests/driver.rs among them:
#      figure lookup, flag rejection, and that every figure named below is
#      registered; the allocation gates of step 12, in a debug build; and
#      the stubs' own unit tests).
#   2. lint: clippy across the workspace, every target (tests, benches,
#      examples) included, warnings denied; rustdoc across the workspace,
#      warnings denied (a doc link to a deleted or private item fails
#      here).
#   3. fig10 golden check: the seeded latency-CDF figure must be
#      byte-identical to results/golden/fig10_latency_cdfs.txt (modulo
#      the wall-clock line) — the end-to-end determinism contract the
#      hot-path overhauls must not break.
#   4. fig15 and tab03 golden checks: same contract for the
#      fault-tolerance figure — with no fault plan installed, the fault
#      plane must not perturb a single event
#      (results/golden/fig15_fault_tolerance.txt) — and for Table 3, the
#      one golden whose runs go through the subtree protocol (flag, batched
#      quiesce, relink with its prefix INV under its locks;
#      results/golden/tab03_subtree_mv.txt, ~0.5 s).
#   5. chaos golden check: fig15b_chaos --smoke runs every fault class
#      against a small system, exits nonzero if any post-run invariant
#      audit (leaked locks/txns/invocations, namespace↔store divergence,
#      op-count conservation) fails, and must be byte-identical to
#      results/golden/fig15b_chaos.txt — the one golden whose runs drop,
#      duplicate and delay messages on every client↔NameNode leg and
#      partition them, so it pins the client's fault paths (retries,
#      backoff, timeouts).
#   6. fig10 at --threads=4: the figure sweep re-run on four worker
#      threads must still match the golden capture byte-for-byte —
#      sweep-level parallelism (whole independent simulations per
#      thread, the only kind there is) must never reach the results.
#   7. store engine bench smoke: bench_store --smoke runs the engine
#      microbench — arena B+ tree vs std BTreeMap, and the id-addressed
#      pages under the inode table — at small scales (liveness; the
#      full-scale numbers are results/bench_store.txt). Both engines'
#      observational equivalence to the std map is pinned by the
#      differential proptests in crates/store/tests/engine_differential.rs,
#      which step 1 runs.
#   8. durable chaos golden check: fig15b_chaos --smoke --durable re-runs
#      every fault class on the WAL-backed durable store backend — shard
#      failovers recover by WAL replay, and the audit adds the
#      post-crash shadow↔table consistency check — and must be
#      byte-identical to results/golden/fig15b_chaos_durable.txt.
#   9. fig15c smoke golden check: fig15c_durability --smoke runs the
#      flush-interval x crash-rate grid (recovery time, write
#      amplification, lost-window aborts), exits nonzero on any audit
#      failure, and must be byte-identical to
#      results/golden/fig15c_durability.txt (modulo the wall-clock
#      lines). It is the one figure check that sees the simulated WAL
#      bytes, so a row type whose host layout leaks into the logged row
#      size fails here. Full-scale numbers: results/fig15c_durability.txt.
#  10. ablation golden check: ablation_knobs --scale=50 runs every
#      design-knob row of the ablation figure (~2 s), exits nonzero if a
#      row equals the baseline row in every column (a knob that moves
#      nothing), and must be byte-identical to
#      results/golden/ablation_knobs.txt (modulo the wall-clock line).
#  11. LSM crash/replay differential: the lambda-lsm proptests (random
#      put/delete/flush interleavings crashed at arbitrary points; WAL
#      replay must reconstruct the exact pre-crash visible state) run
#      explicitly in release mode.
#  12. allocation gates in release (each test file registers the counting
#      allocator itself): bytes/inode (rows excluded) of the fig08a λFS
#      tree at scale 25 under budget (mem_budget.rs); the streaming tree
#      loader at >=500k inodes/sec — release only — under a bytes/inode
#      budget on a 98k-inode tree whose rows span 24 inode-table pages,
#      and at least as dense per inode as insert+repack
#      (bootstrap_budget.rs); lean reads (point gets + visitor scans)
#      against a 250k-inode tree with zero heap allocations, a cached ls of 8 and of 512 children allocating
#      equally often, a warmed Stat/ReadFile/Ls mix at most 16 times per
#      op, a first-touch Stat/ReadFile at most 21 and a warmed
#      create/delete mix with INV rounds to peers at most 36
#      (alloc_per_op.rs); a dropped system — never started, driven and
#      drained, or dropped with work in flight — and every baseline leave
#      < 1 KB live each over 200 systems, and a dropped system's loops end
#      (teardown.rs); and the store's lock-batch and charge-plan pools
#      never hold more buffers than were in flight (a lambda-store unit
#      test).
#  13. examples: each of examples/*.rs runs to completion and must exit
#      zero (step 1's `cargo test` only compiles them). They run in the
#      debug build that step 1 already made, which adds about 21 s on
#      2 cores, most of it compare_systems and elastic_burst.
#  14. alloc-stats build: `lfsfig` rebuilt with the counting allocator
#      registered. The feature is off by default, so only this step
#      catches its bit-rot; step 15 needs it.
#  15. memory sweep smoke: fig08d_million_scale --smoke exercises the
#      footprint instrumentation and the per-phase wall-clock breakdown
#      end-to-end (small scales, exact bytes/inode + bytes/client
#      accounting via the counting allocator), and exits nonzero if the
#      post-run audit of either point finds a violation.
#  16. the benchmark (BENCHMARK.json): `benchmark/run.sh --smoke` builds
#      the standalone package and runs all four workloads at 1/20 size
#      with every correctness check; then the package's own tests.
#
# The smoke runs print to the terminal only and are informational at that
# scale; the recorded full-size numbers are results/<figure>.txt, which
# scripts/run_figs.sh regenerates. Host-side cost per layer is the
# benchmark's to measure (step 16 runs it at smoke size).
set -euo pipefail
cd "$(dirname "$0")/.."

# golden_check <figure> [args…]: the figure's output must equal
# results/golden/<figure>.txt except for the [wall-clock] lines. Captured
# to a temp file so a passing run leaves the tracked results/ untouched.
golden_check() { golden_check_as "$1" "$@"; }

# golden_check_as <golden> <figure> [args…]: the same against
# results/golden/<golden>.txt, for a second run of one figure.
golden_check_as() {
    local golden="$1" out
    shift
    out="$(mktemp)"
    ./target/release/lfsfig "$@" > "$out"
    diff <(grep -v wall-clock "results/golden/$golden.txt") <(grep -v wall-clock "$out") \
        || { echo "$* differs from the golden capture (output kept in $out)"; return 1; }
    rm -f "$out"
    echo "$* matches the golden capture"
}

echo "== tier-1: cargo build --release =="
cargo build --release --offline

echo "== tier-1: cargo test -q =="
cargo test -q --offline

echo "== lint: cargo clippy + cargo doc (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

echo "== fig10 golden check (byte-identical modulo wall-clock) =="
golden_check fig10_latency_cdfs

echo "== fig15 golden check (fault plane off => byte-identical) =="
golden_check fig15_fault_tolerance

echo "== tab03 golden check (subtree mv protocol => byte-identical) =="
golden_check tab03_subtree_mv

echo "== chaos golden check (fault classes + invariant audits => byte-identical) =="
golden_check fig15b_chaos --smoke

echo "== fig10 golden check at --threads=4 =="
golden_check fig10_latency_cdfs --threads=4

echo "== store engine bench smoke (B+ tree, std BTreeMap, id-addressed pages) =="
./target/release/lfsfig bench_store --smoke

echo "== durable chaos golden check (WAL replay recovery + shadow check => byte-identical) =="
golden_check_as fig15b_chaos_durable fig15b_chaos --smoke --durable

echo "== durability sweep smoke golden check (flush interval x crash rate) =="
golden_check fig15c_durability --smoke

echo "== ablation golden check (every design-knob row moves => byte-identical) =="
golden_check ablation_knobs --scale=50

echo "== LSM crash/replay differential proptests =="
cargo test -q --release --offline -p lambda-lsm --test crash_replay

echo "== allocation gates in release (bytes/inode, bootstrap floor + density, allocs per op, teardown, store pools) =="
cargo test -q --release --offline -p lambda-bench --test mem_budget --test bootstrap_budget --test alloc_per_op --test teardown
cargo test -q --release --offline -p lambda-store --lib lock_and_plan_pools_hold_no_more_buffers_than_were_in_flight

echo "== examples (each must run to completion and exit 0) =="
for example in examples/*.rs; do
    name="$(basename "$example" .rs)"
    cargo run --offline --quiet --example "$name" > /dev/null \
        || { echo "example $name exited non-zero"; exit 1; }
    echo "example $name ran"
done

echo "== alloc-stats build (lfsfig with the counting allocator) =="
cargo build --release --offline -p lambda-bench --features alloc-stats

echo "== memory sweep smoke (fig08d, counting allocator, phase timings) =="
./target/release/lfsfig fig08d_million_scale --smoke

echo "== benchmark smoke (four workloads at 1/20 size) + its own tests =="
bash benchmark/run.sh --smoke
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "verify.sh: all checks passed"
