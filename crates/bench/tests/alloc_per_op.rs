//! Per-op allocation regression gates: the store's lean-read paths, and
//! warmed and first-touch reads through the whole system.
//!
//! The arena-backed store engine exists so that steady-state metadata
//! reads do no heap work: point gets walk arena indices, and listings
//! fold rows through a visitor instead of cloning them into a `Vec`
//! (DESIGN.md §3.8). This test pins that property with the counting
//! allocator's *event* counter ([`MemScope::allocs`]): over thousands of
//! lean-read operations against the fig08d 250k-inode tree, the store
//! layer must allocate **zero** times. A byte-delta pin would miss
//! transient alloc+free pairs; the event counter does not.
//!
//! One lean read here is what a warmed `ReadFile`/`Stat` asks of the
//! store: resolve `/dirXXXXX/fileYYYYY` by component (two children-index
//! probes, two inode fetches), plus the listing-shaped visitor scan and
//! range count the directory paths use.
//!
//! The end-to-end gate drives cached `Stat` / `ReadFile` / `Ls` through a
//! warmed, prewarmed [`LambdaFs`] — client library, TCP dispatch,
//! NameNode, cache hit, reply (a read never enters the NameNode's result
//! cache, which keeps final write replies only) — and pins the request
//! path's two properties (DESIGN.md §3.2, "Request path"): a cached `ls`
//! reply costs the same number of allocations whatever the directory's
//! size (it shares the cache's interned names), and a warmed read costs
//! one boxed continuation per simulated event plus its reply, not copies
//! of chains and listings.
//!
//! The first-touch gate drives `Stat` / `ReadFile` of files (and
//! directories) no NameNode has seen: the cache-miss path — id hints from
//! the children index, one shared-locked batch read of the uncached
//! suffix, a read-only commit, the cache fill — which is every operation
//! of a tree far larger than the caches.
//!
//! The write-path gate drives creates and deletes through a started system
//! whose every deployment has a warm NameNode, so each write takes its
//! exclusive row locks, runs an INV/ACK round to its peers and commits
//! (DESIGN.md §3.2, "Write path").
//!
//! [`MemScope::allocs`]: lambda_allocstats::MemScope::allocs

use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard, PoisonError};

use lambda_allocstats as mem;
use lambda_fs::{LambdaFs, LambdaFsConfig};
use lambda_namespace::{DfsPath, FsOp, InodeName, MetadataSchema, OpOutcome, ROOT_INODE_ID};
use lambda_sim::params::StoreParams;
use lambda_sim::{Sim, SimDuration, SimRng};
use lambda_store::{Db, NameKey};

#[global_allocator]
static COUNTING_ALLOC: mem::CountingAlloc = mem::CountingAlloc;

/// The allocation counter is process-wide and the harness runs tests on
/// parallel threads: each test holds this for as long as it counts.
static COUNTER_IN_USE: Mutex<()> = Mutex::new(());

fn exclusive_counter() -> MutexGuard<'static, ()> {
    // A test that failed while counting leaves nothing half-updated.
    COUNTER_IN_USE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The fig08d 250k-inode point: 5103 directories of 48 files.
const DIRS: usize = 5_103;
const FILES_PER_DIR: usize = 48;
/// Lean-read ops measured under the zero-alloc scope.
const OPS: usize = 10_000;

#[test]
fn lean_reads_do_not_allocate_at_250k_inodes() {
    let _counting = exclusive_counter();
    assert!(mem::active(), "counting allocator must be registered");
    let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
    let schema = MetadataSchema::install(&db);
    schema.bootstrap_tree(&db, &DfsPath::root(), DIRS, FILES_PER_DIR);

    // Pre-intern the probe keys: the interner is shared namespace
    // infrastructure, not per-op work.
    let dir_keys: Vec<NameKey> =
        (0..DIRS).map(|d| InodeName::new(&format!("dir{d:05}")).key()).collect();
    let file_keys: Vec<NameKey> =
        (0..FILES_PER_DIR).map(|f| InodeName::new(&format!("file{f:05}")).key()).collect();

    let mut rng = SimRng::new(0x250_0000);
    let lean_read = |rng: &mut SimRng, rows_seen: &mut usize| {
        let dname = dir_keys[rng.pick_index(dir_keys.len())];
        let fname = file_keys[rng.pick_index(file_keys.len())];
        // Component-wise resolution, exactly as `peek_chain` probes.
        let dir_id = db.peek(schema.children, &(ROOT_INODE_ID, dname)).expect("dir exists");
        let dir = db.peek(schema.inodes, &dir_id).expect("dir inode");
        assert!(dir.is_dir());
        let file_id = db.peek(schema.children, &(dir_id, fname)).expect("file exists");
        let file = db.peek(schema.inodes, &file_id).expect("file inode");
        assert_eq!(file.parent, dir_id);
        // The listing shape: visitor scan + header-only count, no `Vec`.
        let listing = (dir_id, NameKey::MIN)..(dir_id + 1, NameKey::MIN);
        let mut in_dir = 0usize;
        db.peek_range_with(schema.children, listing.clone(), |_, _| in_dir += 1);
        assert_eq!(in_dir, FILES_PER_DIR);
        assert_eq!(db.peek_count_range(schema.children, listing), FILES_PER_DIR);
        *rows_seen += in_dir;
    };

    // Warm once outside the scope (first-touch effects, if any, are not
    // per-op costs).
    let mut rows_seen = 0usize;
    for _ in 0..16 {
        lean_read(&mut rng, &mut rows_seen);
    }

    let scope = mem::GLOBAL.scope();
    for _ in 0..OPS {
        lean_read(&mut rng, &mut rows_seen);
    }
    let allocs = scope.allocs();
    assert_eq!(
        allocs, 0,
        "lean reads allocated: {allocs} allocation events over {OPS} ops \
         (point gets and visitor scans must stay heap-free)"
    );
    assert!(rows_seen > 0);
}

/// Allocation events of one operation, submit to reply, and what it
/// returned. The simulation advances only until the reply arrives.
fn allocs_of(sim: &mut Sim, fs: &LambdaFs, op: FsOp) -> (u64, OpOutcome) {
    let reply = Rc::new(Cell::new(None));
    let slot = Rc::clone(&reply);
    let scope = mem::GLOBAL.scope();
    fs.submit(sim, 0, op, Box::new(move |_sim, result| slot.set(Some(result))));
    while sim.step() {
        if let Some(result) = reply.take() {
            return (scope.allocs(), result.expect("read succeeds"));
        }
    }
    panic!("the event queue drained before the reply arrived");
}

fn median(mut counts: Vec<u64>) -> u64 {
    counts.sort_unstable();
    counts[counts.len() / 2]
}

#[test]
fn warmed_reads_allocate_per_event_not_per_reply_byte() {
    let _counting = exclusive_counter();
    assert!(mem::active(), "counting allocator must be registered");
    const OPS: usize = 400;
    let mut sim = Sim::new(0x15);
    // No HTTP replacement: every measured operation takes the TCP path.
    let config = LambdaFsConfig { clients: 4, http_replace_prob: 0.0, ..Default::default() };
    let fs = LambdaFs::build(&mut sim, config);
    let small = fs.schema().bootstrap_tree(fs.db(), &DfsPath::root(), 1, 8).remove(0);
    let large_root = DfsPath::root().join("large").expect("valid name");
    fs.schema().bootstrap_mkdir(fs.db(), &large_root);
    let large = fs.schema().bootstrap_tree(fs.db(), &large_root, 1, 512).remove(0);
    fs.start(&mut sim);
    fs.prewarm_with(&mut sim, &[small.clone(), large.clone()]);
    sim.run_for(SimDuration::from_secs(5));

    let file = |dir: &DfsPath, f: usize| dir.join(&format!("file{f:05}")).expect("valid name");
    let mix = |i: usize| match i % 4 {
        0 => FsOp::Stat(file(&small, i % 8)),
        1 => FsOp::ReadFile(file(&large, i % 512)),
        2 => FsOp::Ls(small.clone()),
        _ => FsOp::Ls(large.clone()),
    };
    // Fill the caches (every file of both directories is touched once the
    // mix has gone round 512 times) and register the connections.
    for i in 0..4 * 512 {
        allocs_of(&mut sim, &fs, mix(i));
    }
    let hits_before = fs.cache_stats();

    let ls = |sim: &mut Sim, dir: &DfsPath, children: usize| {
        let counts = (0..OPS).map(|_| {
            let (allocs, outcome) = allocs_of(sim, &fs, FsOp::Ls(dir.clone()));
            assert!(matches!(outcome, OpOutcome::Listing(names) if names.len() == children));
            allocs
        });
        median(counts.collect())
    };
    let (ls_small, ls_large) = (ls(&mut sim, &small, 8), ls(&mut sim, &large, 512));
    assert_eq!(
        ls_small, ls_large,
        "a cached ls of 512 children allocated {ls_large} times, of 8 children {ls_small} times: \
         the reply must share the cached names, not copy them"
    );

    let total: u64 = (0..OPS).map(|i| allocs_of(&mut sim, &fs, mix(i)).0).sum();
    let per_op = total as f64 / OPS as f64;
    let stats = fs.cache_stats();
    assert_eq!(stats.misses, hits_before.misses, "the measured operations must all be hits");
    assert_eq!(stats.listing_misses, hits_before.listing_misses);
    assert!(
        per_op <= 16.0,
        "a warmed Stat/ReadFile/Ls mix allocated {per_op:.1} times per operation (budget 16): \
         something on the request path copies again"
    );
    eprintln!("allocs/op: ls of 8 {ls_small}, ls of 512 {ls_large}, read mix {per_op:.2}");
}

#[test]
fn first_touch_reads_allocate_per_event_not_per_chain_copy() {
    let _counting = exclusive_counter();
    assert!(mem::active(), "counting allocator must be registered");
    const DIRS: usize = 1_024;
    let mut sim = Sim::new(0x20);
    let config = LambdaFsConfig { clients: 4, http_replace_prob: 0.0, ..Default::default() };
    let fs = LambdaFs::build(&mut sim, config);
    let dirs = fs.schema().bootstrap_tree(fs.db(), &DfsPath::root(), DIRS, 2);
    fs.start(&mut sim);
    sim.run_for(SimDuration::from_secs(5));

    let file = |d: usize, f: usize| dirs[d].join(&format!("file{f:05}")).expect("valid name");
    // Register the connections and cache the root on every deployment; the
    // measured operations then take the TCP path to a cold directory.
    let (warm, measured) = (DIRS / 4, DIRS - DIRS / 4);
    for d in 0..warm {
        allocs_of(&mut sim, &fs, FsOp::Stat(file(d, 0)));
    }
    let before = fs.cache_stats();
    let total: u64 = (warm..DIRS)
        .map(|d| {
            let path = file(d, d % 2);
            let op = if d % 4 < 2 { FsOp::Stat(path) } else { FsOp::ReadFile(path) };
            allocs_of(&mut sim, &fs, op).0
        })
        .sum();
    let per_op = total as f64 / measured as f64;
    let misses = fs.cache_stats().misses - before.misses;
    assert_eq!(misses, measured as u64, "the measured operations must all be first touches");
    assert!(
        per_op <= 21.0,
        "a first-touch Stat/ReadFile allocated {per_op:.1} times per operation (budget 21): \
         something on the miss path copies again"
    );
    eprintln!("allocs/op: first-touch read {per_op:.2}");
}

#[test]
fn warmed_writes_allocate_per_event_not_per_recipient() {
    let _counting = exclusive_counter();
    assert!(mem::active(), "counting allocator must be registered");
    const DIRS: usize = 16;
    const OPS: usize = 800;
    let mut sim = Sim::new(0x39);
    let config = LambdaFsConfig { clients: 4, http_replace_prob: 0.0, ..Default::default() };
    let fs = LambdaFs::build(&mut sim, config);
    let dirs = fs.schema().bootstrap_tree(fs.db(), &DfsPath::root(), DIRS, 4);
    fs.start(&mut sim);
    fs.prewarm_with(&mut sim, &dirs);
    sim.run_for(SimDuration::from_secs(5));
    assert!(fs.active_namenodes() >= fs.config().deployments as usize, "a NameNode per deployment");

    // Op `i` creates `new{i/2}` in directory `i/2 % DIRS` or deletes it
    // again, so the namespace returns to its bootstrap shape every two ops.
    let op = |i: usize| {
        let path = dirs[i / 2 % DIRS].join(&format!("new{:05}", i / 2)).expect("valid name");
        if i.is_multiple_of(2) { FsOp::CreateFile(path) } else { FsOp::Delete(path) }
    };
    // Warm the write path: connections, lock-table and pool buffers.
    for i in 0..4 * DIRS {
        allocs_of(&mut sim, &fs, op(i));
    }
    let (delivered_before, _) = fs.coordinator().message_stats();
    let total: u64 = (4 * DIRS..4 * DIRS + OPS).map(|i| allocs_of(&mut sim, &fs, op(i)).0).sum();
    let per_op = total as f64 / OPS as f64;
    let (delivered, _) = fs.coordinator().message_stats();
    assert!(
        delivered - delivered_before >= OPS as u64,
        "only {} coherence messages for {OPS} writes: the INV rounds must reach peers",
        delivered - delivered_before
    );
    // Measured on this mix: 45.7 allocations per op when every INV
    // recipient got its own copy of the round's vectors, a write's store
    // transaction allocated its undo log, write set and held-row list
    // afresh and its lock batch stayed in the store's key pool for good;
    // 29.7 with one shared INV payload and store-owned, recycled buffers.
    assert!(
        per_op <= 36.0,
        "a warmed create/delete mix allocated {per_op:.1} times per operation (budget 36): \
         the write path copies per recipient or per write again"
    );
    eprintln!("allocs/op: create/delete mix {per_op:.2}");
}
