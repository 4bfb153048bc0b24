//! Bootstrap-throughput and bulk-build-density regression tests.
//!
//! The streaming tree loader (DESIGN.md §3.7) took the fig08d 500k-client
//! bootstrap from 151 s to ~6 s (≥1.7M inodes/sec at 10M inodes). These
//! tests pin the two properties that matter going forward:
//!
//! * **throughput** — a fresh 1M-inode tree must load at ≥500k inodes/sec
//!   (measured ~4M/sec; the generous floor absorbs CI-host jitter while
//!   still failing hard on any return of per-entry path resolution);
//! * **density** — the streaming path's live heap per inode must stay
//!   under a bytes/inode budget on a tree whose inode rows span 24 pages,
//!   and the children index's heap per row at its peak during a bulk load
//!   must stay under a budget the std `BTreeMap` fails. Contents and
//!   iteration order are pinned by the differential proptest in
//!   `crates/store/tests/bulk_build.rs`; node occupancy and row size are
//!   only observable through the allocator, so they are pinned here.
//!
//! The file registers the counting global allocator itself. The density
//! test runs in any build; the throughput floor is calibrated for release
//! and is ignored in debug builds.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use lambda_allocstats as mem;
use lambda_namespace::{DfsPath, InodeId, MetadataSchema, TreeLayout, ROOT_INODE_ID};
use lambda_sim::params::StoreParams;
use lambda_sim::SimDuration;
use lambda_store::{Db, NameKey};

#[global_allocator]
static COUNTING_ALLOC: mem::CountingAlloc = mem::CountingAlloc;

/// Floor on fresh-tree bootstrap throughput, inodes per wall-second.
const INODES_PER_SEC_FLOOR: f64 = 500_000.0;

/// Budget for the streaming path's live-heap bytes per inode on the
/// 98 000-inode density tree. Its rows span 24 inode-table pages, 23 of
/// them allocated inside the measurement, so the row is counted (the
/// scale-25 tree of `mem_budget.rs` fits in the page `install` allocates
/// for the root). Measured 94.3 with 64-byte rows, 78.9 with 48-byte
/// rows, 71.2 with the 40-byte slots that leave out the id and 56.0 with
/// the 24-byte slots that also leave out permissions, owner, group and
/// size (57.5 in release, where the 1M-inode throughput test runs first
/// in the same process); a slot 8 bytes larger (65.2) fails.
const BYTES_PER_INODE_BUDGET: f64 = 60.0;

/// Budget for the children index's heap bytes per row at its peak during
/// a bulk load of the density tree's 98 000 rows (`(parent id, name)` →
/// id, 32 bytes raw). The B+ tree's bulk build, full leaves in arenas
/// reserved once, measured 33.4. A std `BTreeMap` in its place measured
/// 66.2: its `collect()` holds every row in a `Vec` beside the tree it
/// builds. On the 10M-inode benchmark tree that swap peaked 213 MB higher.
const CHILDREN_BYTES_PER_ROW_BUDGET: f64 = 40.0;

/// The allocation counter is process-wide and the harness runs tests on
/// parallel threads: every test here holds this, so a density test is
/// never charged for the throughput test's 1M-inode tree.
static COUNTER_IN_USE: Mutex<()> = Mutex::new(());

fn exclusive_counter() -> MutexGuard<'static, ()> {
    // A test that failed while holding it leaves nothing half-updated.
    COUNTER_IN_USE.lock().unwrap_or_else(PoisonError::into_inner)
}

fn fresh_schema() -> (Db, MetadataSchema) {
    let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
    let schema = MetadataSchema::install(&db);
    (db, schema)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "wall-clock floor is calibrated for release")]
fn fresh_tree_bootstrap_meets_throughput_floor() {
    let _counting = exclusive_counter();
    let (db, schema) = fresh_schema();
    // 20 409 dirs × 48 files ≈ the fig08d 100k-client point (1.0M inodes):
    // large enough that the rate is timing-jitter-free, small enough for CI.
    let (dirs, files_per_dir) = (20_409, 48);
    let before = schema.inode_count(&db);
    let t = Instant::now();
    schema.bootstrap_tree(&db, &DfsPath::root(), dirs, files_per_dir);
    let secs = t.elapsed().as_secs_f64();
    let created = schema.inode_count(&db) - before;
    assert_eq!(created, dirs * (files_per_dir + 1));
    let rate = created as f64 / secs.max(1e-9);
    assert!(
        rate >= INODES_PER_SEC_FLOOR,
        "bootstrap throughput regressed: {rate:.0} inodes/sec < floor \
         {INODES_PER_SEC_FLOOR:.0} ({created} inodes in {secs:.2}s; the streaming \
         loader measured ~4M/sec)"
    );
}

#[test]
fn streaming_path_meets_the_bytes_per_inode_budget() {
    let _counting = exclusive_counter();
    assert!(mem::active(), "counting allocator must be registered");
    let layout = TreeLayout { dirs: 2_000, files_per_dir: 48 };
    // Intern every name up front so the measurement does not pay the
    // process-global interner's arena growth.
    let _ = (layout.dir_names(), layout.file_names());

    let (db, schema) = fresh_schema();
    let scope = mem::GLOBAL.scope();
    schema.bootstrap_tree(&db, &DfsPath::root(), layout.dirs, layout.files_per_dir);
    let grown = scope.grown();

    let inodes = layout.dirs * (layout.files_per_dir + 1);
    assert_eq!(schema.inode_count(&db), inodes + 1);
    let bytes_per_inode = grown as f64 / inodes as f64;
    assert!(
        bytes_per_inode < BYTES_PER_INODE_BUDGET,
        "bytes/inode regressed: {bytes_per_inode:.1} >= budget {BYTES_PER_INODE_BUDGET}"
    );
}

#[test]
fn children_index_meets_the_bytes_per_row_budget() {
    let _counting = exclusive_counter();
    let layout = TreeLayout { dirs: 2_000, files_per_dir: 48 };
    // The density tree's children rows, `(parent id, name) → id`, with ids
    // handed out as the loader does under `/` (each directory's, then its
    // files').
    let root = ROOT_INODE_ID;
    let (dir_names, file_names) = (layout.dir_names(), layout.file_names());
    let stride = file_names.len() as u64 + 1;
    let mut rows: Vec<((InodeId, NameKey), InodeId)> = Vec::new();
    for (d, dname) in dir_names.iter().enumerate() {
        let did = root + 1 + d as u64 * stride;
        rows.push(((root, dname.key()), did));
        for (f, fname) in file_names.iter().enumerate() {
            rows.push(((did, fname.key()), did + 1 + f as u64));
        }
    }
    rows.sort_unstable_by_key(|&(key, _)| key);
    let count = rows.len();
    assert_eq!(count, layout.dirs * (layout.files_per_dir + 1));

    let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
    let children = db.create_table::<(InodeId, NameKey), InodeId>("children");
    let base = mem::live_bytes();
    mem::reset_peak();
    // Streamed from a borrowed `Vec`, as the loader streams an iterator
    // chain: the `Vec`'s own `into_iter` would let an engine's `collect()`
    // reuse its buffer in place and hide a copy the real load pays for.
    db.bootstrap_bulk_load(children, rows.iter().copied());
    let peak = mem::peak_bytes() - base;
    assert_eq!(db.table_len(children), count);

    let bytes_per_row = peak as f64 / count as f64;
    assert!(
        bytes_per_row < CHILDREN_BYTES_PER_ROW_BUDGET,
        "children-index bytes/row regressed: {bytes_per_row:.1} >= budget \
         {CHILDREN_BYTES_PER_ROW_BUDGET}"
    );
}
