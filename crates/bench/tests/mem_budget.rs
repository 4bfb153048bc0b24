//! Memory-budget regression test for the footprint overhaul.
//!
//! Registers the counting allocator as this test binary's global
//! allocator and re-measures bytes/inode on the exact fig08a λFS system
//! at scale 25 — the acceptance point of `fig08d_million_scale`. The row
//! layout was paid for in DESIGN.md §3.6 (295.0 → ~113 bytes/inode); a
//! change that drifts back above budget fails here instead of silently
//! eroding the sweep.

use lambda_allocstats as mem;
use lambda_bench::{lambda_config, IndustrialParams};
use lambda_fs::LambdaFs;
use lambda_namespace::DfsPath;
use lambda_sim::Sim;

#[global_allocator]
static COUNTING_ALLOC: mem::CountingAlloc = mem::CountingAlloc;

/// Budget for live-heap bytes per inode created by `bootstrap_tree` on
/// the scale-25 industrial tree (3 969 inodes). Measured 112.8 after the
/// overhaul, 295.0 before; the headroom allows allocator jitter and
/// modest row growth, while still failing long before the old layout's
/// footprint. Measures 37.3 since the inode table became id-addressed:
/// its first 4 096-row page is allocated with the root inode, before this
/// scope opens, and holds every inode of this tree, so what is counted
/// here is the children index and the rest of the per-inode state. The
/// row itself is gated on a tree that spans many pages, in
/// `bootstrap_budget.rs`.
const BYTES_PER_INODE_BUDGET: f64 = 150.0;

#[test]
fn scale25_bytes_per_inode_stays_under_budget() {
    assert!(mem::active(), "counting allocator must be registered");
    let seed = 11;
    let params = IndustrialParams::spotify(25_000.0, 25.0, seed);
    let spotify = params.spotify_config();
    let mut sim = Sim::new(seed);
    let fs = LambdaFs::build(&mut sim, lambda_config(&params, false));
    let inodes_before = fs.schema().inode_count(fs.db());
    let scope = mem::GLOBAL.scope();
    fs.schema().bootstrap_tree(fs.db(), &DfsPath::root(), spotify.dirs, spotify.files_per_dir);
    let grown = scope.grown();
    let created = fs.schema().inode_count(fs.db()) - inodes_before;
    assert!(created > 1_000, "reference tree unexpectedly small: {created} inodes");
    let bytes_per_inode = grown as f64 / created as f64;
    assert!(
        bytes_per_inode > 0.0,
        "bootstrap allocated nothing — the counting hook is not seeing allocations"
    );
    assert!(
        bytes_per_inode < BYTES_PER_INODE_BUDGET,
        "bytes/inode regressed: {bytes_per_inode:.1} >= budget {BYTES_PER_INODE_BUDGET} \
         (the compact-row layout of DESIGN.md §3.6 was 112.8)"
    );
}
