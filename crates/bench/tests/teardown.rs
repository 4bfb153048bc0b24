//! Teardown gate: a dropped system frees what it allocated.
//!
//! λFS's NameNodes come and go, and so must a whole simulated system: a
//! process that builds one system after another (the benchmark's untimed
//! warm-up before its measured run, a figure's sweep cells, a checker's
//! thousands of small systems) must not keep the earlier ones alive. The
//! platform, the Coordinator and the NameNodes point at one another, and
//! parked work points back at whoever parked it, so `LambdaFs`'s `Drop`
//! cuts those edges (DESIGN.md §3.10); these cases pin the result with
//! the counting allocator.
//!
//! Each case runs one untimed cycle first — it interns the names the ops
//! use in the process-wide name interner, which keeps names by design —
//! and then [`CYCLES`] more, each of which must leave less than
//! [`BUDGET_PER_SYSTEM`] bytes live. Every cycle uses the same seed and
//! the same operations, so the warm-up interns every name the measured
//! cycles use.

use std::cell::Cell;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard, PoisonError};

use lambda_allocstats as mem;
use lambda_baselines::{
    CephFs, CephFsConfig, HopsFs, HopsFsConfig, IndexFs, IndexFsConfig, InfiniCacheStyle,
    LambdaIndexFs, LambdaIndexFsConfig, TreeOp,
};
use lambda_fs::{DfsService, LambdaFs, LambdaFsConfig};
use lambda_namespace::{DfsPath, FsOp};
use lambda_sim::{Sim, SimDuration};

#[global_allocator]
static COUNTING_ALLOC: mem::CountingAlloc = mem::CountingAlloc;

/// The allocation counter is process-wide and the harness runs tests on
/// parallel threads: each test holds this for as long as it counts.
static COUNTER_IN_USE: Mutex<()> = Mutex::new(());

fn exclusive_counter() -> MutexGuard<'static, ()> {
    COUNTER_IN_USE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Measured cycles per case. In a debug build the whole file runs in
/// about 8 s on a 2-core Xeon @ 2.10 GHz, so no case needs fewer.
const CYCLES: usize = 200;
/// Live bytes one system may leave behind. A leaked system keeps 275 KB
/// (never started) to 595 KB (dropped with work in flight).
const BUDGET_PER_SYSTEM: f64 = 1024.0;
const SEED: u64 = 7;

/// Runs `cycle` once untimed, then [`CYCLES`] times under the counter,
/// and returns the live bytes each measured cycle left behind.
fn growth_per_system(cycle: impl Fn()) -> f64 {
    let _counting = exclusive_counter();
    assert!(mem::active(), "counting allocator must be registered");
    cycle();
    let scope = mem::GLOBAL.scope();
    for _ in 0..CYCLES {
        cycle();
    }
    scope.delta() as f64 / CYCLES as f64
}

fn assert_frees(case: &str, cycle: impl Fn()) {
    let grown = growth_per_system(cycle);
    assert!(
        grown < BUDGET_PER_SYSTEM,
        "{case}: each dropped system left {grown:.0} bytes live (budget {BUDGET_PER_SYSTEM})"
    );
}

fn small_config() -> LambdaFsConfig {
    LambdaFsConfig { deployments: 4, clients: 4, ..Default::default() }
}

/// Loads a small bootstrap tree and warms every deployment over it.
fn load_and_prewarm(sim: &mut Sim, fs: &LambdaFs) {
    let dirs = fs.bootstrap_tree(&DfsPath::root(), 8, 1);
    fs.prewarm_with(sim, &dirs);
}

/// 40 `mkdir`s and a `stat` of each, spread over the clients; counts the
/// completions in `done`.
fn submit_ops(sim: &mut Sim, fs: &dyn DfsService, done: &Rc<Cell<usize>>) {
    for i in 0..40 {
        let path: DfsPath = format!("/d{i}").parse().expect("valid path");
        for op in [FsOp::Mkdir(path.clone()), FsOp::Stat(path)] {
            let done = Rc::clone(done);
            let client = i % fs.client_count();
            fs.submit_op(sim, client, op, Box::new(move |_sim, _r| done.set(done.get() + 1)));
        }
    }
}

/// Drives a started service through [`submit_ops`] and a drain long
/// enough for every warm instance to be reclaimed (the benchmark's drain).
fn drive_and_drain(sim: &mut Sim, fs: &dyn DfsService) {
    let done = Rc::new(Cell::new(0));
    submit_ops(sim, fs, &done);
    sim.run_for(SimDuration::from_secs(45));
    assert_eq!(done.get(), 80, "{}: every operation completes", fs.service_name());
}

#[test]
fn a_built_and_dropped_system_frees_its_heap() {
    assert_frees("build, drop", || {
        let mut sim = Sim::new(SEED);
        let fs = LambdaFs::build(&mut sim, small_config());
        drop(fs);
    });
}

#[test]
fn a_started_driven_and_stopped_system_frees_its_heap() {
    assert_frees("build, start, prewarm, ops, drained stop, drop", || {
        let mut sim = Sim::new(SEED);
        let fs = LambdaFs::build(&mut sim, small_config());
        fs.start(&mut sim);
        load_and_prewarm(&mut sim, &fs);
        drive_and_drain(&mut sim, &fs);
        fs.stop(&mut sim);
        sim.run();
        drop(fs);
    });
}

/// Builds a started system and leaves it with work parked everywhere a
/// system parks it: jobs waiting for a NameNode's CPU and for store
/// shards, lock sequences waiting for row locks, coherence rounds waiting
/// for ACKs, and subtree moves in progress.
fn system_with_operations_in_flight(sim: &mut Sim) -> LambdaFs {
    let fs = LambdaFs::build(sim, small_config());
    fs.start(sim);
    load_and_prewarm(sim, &fs);
    let done = Rc::new(Cell::new(0));
    let submit = |sim: &mut Sim, client: usize, op: FsOp| {
        let done = Rc::clone(&done);
        fs.submit(sim, client, op, Box::new(move |_sim, _r| done.set(done.get() + 1)));
    };
    let path = |s: String| -> DfsPath { s.parse().expect("valid path") };
    for i in 0..4 {
        submit(sim, i, FsOp::Mkdir(path(format!("/m{i}"))));
    }
    sim.run_for(SimDuration::from_secs(2));
    for i in 0..4 {
        for j in 0..10 {
            submit(sim, i, FsOp::CreateFile(path(format!("/m{i}/f{j}"))));
        }
    }
    sim.run_for(SimDuration::from_secs(1));
    for i in 0..4 {
        submit(sim, i, FsOp::Mv(path(format!("/m{i}")), path(format!("/n{i}"))));
    }
    submit_ops(sim, &fs, &done);
    sim.run_for(SimDuration::from_millis(5));
    assert!(done.get() < 128 && sim.events_pending() > 0, "operations are in flight");
    fs
}

#[test]
fn a_system_dropped_with_operations_in_flight_frees_its_heap() {
    assert_frees("drop with operations in flight, the system first", || {
        let mut sim = Sim::new(SEED);
        let fs = system_with_operations_in_flight(&mut sim);
        drop(fs);
        drop(sim);
    });
    assert_frees("drop with operations in flight, the simulation first", || {
        let mut sim = Sim::new(SEED);
        let fs = system_with_operations_in_flight(&mut sim);
        drop(sim);
        drop(fs);
    });
}

#[test]
fn dropping_a_system_ends_its_periodic_loops() {
    // Not a count, but its allocations would land in another test's.
    let _counting = exclusive_counter();
    let mut sim = Sim::new(SEED);
    let fs = LambdaFs::build(&mut sim, small_config());
    fs.start(&mut sim);
    load_and_prewarm(&mut sim, &fs);
    sim.run_for(SimDuration::from_secs(2));
    assert!(fs.active_namenodes() > 0, "the prewarm left warm NameNodes");
    drop(fs);
    sim.run_for(SimDuration::from_secs(120));
    assert_eq!(sim.events_pending(), 0, "a dropped system schedules nothing more");
}

/// Every other system `lfsfig` builds, started, driven, drained and
/// dropped. Only the InfiniCache-style comparator, λFS with three knobs
/// turned, kept itself alive before `LambdaFs` tore itself down; this
/// keeps the others from starting to.
#[test]
fn dropped_baselines_free_their_heap() {
    let lambda_base = LambdaFsConfig { clients: 4, ..Default::default() };
    assert_frees("infinicache-style", || {
        let mut sim = Sim::new(SEED);
        let fs = InfiniCacheStyle::build(&mut sim, lambda_base.clone());
        fs.start(&mut sim);
        drive_and_drain(&mut sim, &fs);
        fs.stop(&mut sim);
        sim.run();
    });
    for cache in [false, true] {
        assert_frees(if cache { "hopsfs+cache" } else { "hopsfs" }, || {
            let mut sim = Sim::new(SEED);
            let cfg =
                if cache { HopsFsConfig::with_cache(32, 4) } else { HopsFsConfig::vanilla(32, 4) };
            let fs = HopsFs::build(&mut sim, cfg);
            fs.start(&mut sim);
            drive_and_drain(&mut sim, &fs);
            fs.stop(&mut sim);
            sim.run();
        });
    }
    assert_frees("cephfs", || {
        let mut sim = Sim::new(SEED);
        let fs = CephFs::build(&mut sim, CephFsConfig::sized(32, 4));
        fs.start(&mut sim);
        drive_and_drain(&mut sim, &fs);
        fs.stop(&mut sim);
        sim.run();
    });
    assert_frees("indexfs", || {
        let mut sim = Sim::new(SEED);
        let fs = IndexFs::build(&mut sim, IndexFsConfig { clients: 4, ..Default::default() });
        let done = Rc::new(Cell::new(0));
        for (i, op) in tree_ops().into_iter().enumerate() {
            let done = Rc::clone(&done);
            fs.submit(&mut sim, i % 4, op, Box::new(move |_sim, _ok| done.set(done.get() + 1)));
        }
        sim.run();
        assert_eq!(done.get(), 80);
    });
    assert_frees("lambda-indexfs", || {
        let mut sim = Sim::new(SEED);
        let config = LambdaIndexFsConfig { clients: 4, ..Default::default() };
        let fs = LambdaIndexFs::build(&mut sim, config);
        fs.start(&mut sim);
        let done = Rc::new(Cell::new(0));
        for (i, op) in tree_ops().into_iter().enumerate() {
            let done = Rc::clone(&done);
            fs.submit(&mut sim, i % 4, op, Box::new(move |_sim, _ok| done.set(done.get() + 1)));
        }
        sim.run_for(SimDuration::from_secs(45));
        assert_eq!(done.get(), 80);
        fs.stop(&mut sim);
        sim.run();
    });
}

/// 40 `mknod`s and a `getattr` of each, for the tree-test systems.
fn tree_ops() -> Vec<TreeOp> {
    (0..40)
        .flat_map(|i| {
            let path: DfsPath = format!("/t{}/f{i}", i % 4).parse().expect("valid path");
            [TreeOp::Mknod(path.clone()), TreeOp::Getattr(path)]
        })
        .collect()
}

