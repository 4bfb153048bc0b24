//! The subtree protocol's two guards (Appendix D), driven on one stateless
//! engine: subtree isolation, under which a subtree operation refuses to
//! start while any overlapping flag has a live holder, and the write guard,
//! under which no create, mkdir, delete or mv runs inside a subtree whose
//! flag is held. The write guard reads only the flag rows of the write's
//! own resolved chain, so its reach (every ancestor, the target itself)
//! and its cost (one unlocked read, no scan) are pinned here too.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_fs::{OpEngine, SubtreeSettings};
use lambda_namespace::{DfsPath, FsError, FsOp, InodeId, MetadataSchema, OpOutcome, OpResult};
use lambda_namespace::SubtreeLockRow;
use lambda_sim::params::{CpuParams, StoreParams};
use lambda_sim::{Sim, SimDuration, Station};
use lambda_store::{Db, DbStats, LockMode};

/// The holder tag the liveness oracle calls dead; every other is alive.
const DEAD: u64 = 13;
/// A live NameNode other than the engine's own.
const OTHER: u64 = 7;

fn p(s: &str) -> DfsPath {
    s.parse().unwrap()
}

fn engine() -> OpEngine {
    let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
    let schema = MetadataSchema::install(&db);
    let mut engine = OpEngine::stateless(db, schema, Station::new("nn", 4), CpuParams::default());
    engine.subtree = SubtreeSettings {
        holder_tag: 1,
        holder_alive: Some(Rc::new(|tag| tag != DEAD)),
        ..SubtreeSettings::default()
    };
    engine
}

/// Starts `op` on the engine; the slot fills when it completes.
fn submit(sim: &mut Sim, engine: &OpEngine, op: FsOp) -> Rc<RefCell<Option<OpResult>>> {
    let slot = Rc::new(RefCell::new(None));
    let out = Rc::clone(&slot);
    engine.execute(sim, op, true, Box::new(move |_sim, r| *out.borrow_mut() = Some(r)));
    slot
}

fn run(sim: &mut Sim, engine: &OpEngine, op: FsOp) -> OpResult {
    let slot = submit(sim, engine, op);
    sim.run();
    let result = slot.borrow_mut().take();
    result.expect("the operation completed")
}

/// Persists a subtree-lock flag on `root` held by `holder`, through an
/// ordinary store transaction.
fn take_flag(sim: &mut Sim, engine: &OpEngine, root: InodeId, path: &str, holder: u64) {
    let (db, table) = (engine.db.clone(), engine.schema.subtree_locks);
    let txn = db.begin();
    let key = db.lock_key(table, &root);
    let path = p(path).as_str();
    db.clone().lock(sim, txn, [key], LockMode::Exclusive, move |sim, r| {
        r.expect("flag row free");
        let row = SubtreeLockRow { holder, acquired_nanos: 0, path, op: "mv" };
        db.upsert(txn, table, root, row).expect("locked");
        db.commit(sim, txn, |_sim, r| r.expect("committed"));
    });
}

#[test]
fn a_live_overlapping_flag_refuses_a_subtree_op_even_behind_a_stale_one() {
    let mut sim = Sim::new(5);
    let e = engine();
    e.schema.bootstrap_mkdir(&e.db, &p("/p"));
    let a = e.schema.bootstrap_mkdir(&e.db, &p("/p/a"));
    let b = e.schema.bootstrap_mkdir(&e.db, &p("/p/b"));
    assert!(a < b, "the stale flag comes first in root-id order");
    let mv = submit(&mut sim, &e, FsOp::Mv(p("/p"), p("/q")));
    // Past the write guard (no flag yet), the mv resolves its root. Two
    // other NameNodes take overlapping flags meanwhile: the holder of
    // /p/a's has crashed, the holder of /p/b's lives.
    sim.step();
    take_flag(&mut sim, &e, a, "/p/a", DEAD);
    take_flag(&mut sim, &e, b, "/p/b", OTHER);
    sim.run();
    let result = mv.borrow_mut().take().expect("the mv completed");
    assert_eq!(result, Err(FsError::SubtreeLocked("/p/b".into())));
    assert!(e.schema.peek_chain(&e.db, &p("/p/b")).is_some(), "nothing moved");
    // The refused mv left both flags as they were.
    assert_eq!(e.db.table_len(e.schema.subtree_locks), 2);
}

#[test]
fn stale_overlapping_flags_are_reclaimed_by_the_next_subtree_op() {
    let mut sim = Sim::new(6);
    let e = engine();
    e.schema.bootstrap_mkdir(&e.db, &p("/p"));
    let a = e.schema.bootstrap_mkdir(&e.db, &p("/p/a"));
    let b = e.schema.bootstrap_mkdir(&e.db, &p("/p/b"));
    let mv = submit(&mut sim, &e, FsOp::Mv(p("/p"), p("/q")));
    sim.step();
    take_flag(&mut sim, &e, a, "/p/a", DEAD);
    take_flag(&mut sim, &e, b, "/p/b", DEAD);
    sim.run();
    let result = mv.borrow_mut().take().expect("the mv completed");
    assert_eq!(result, Ok(OpOutcome::Moved(3)));
    assert_eq!(e.db.table_len(e.schema.subtree_locks), 0, "every stale flag reclaimed");
    assert!(e.schema.check_consistency(&e.db).is_empty());
}

#[test]
fn writes_inside_a_flagged_subtree_are_refused_until_the_flag_goes() {
    let mut sim = Sim::new(7);
    let e = engine();
    e.schema.bootstrap_mkdir(&e.db, &p("/d"));
    for i in 0..2000 {
        e.schema.bootstrap_create(&e.db, &p(&format!("/d/f{i:04}")));
    }
    let mv = submit(&mut sim, &e, FsOp::Mv(p("/d"), p("/e")));
    while e.db.table_len(e.schema.subtree_locks) == 0 {
        assert!(sim.step(), "the subtree mv never took its flag");
    }
    let inside = |root: &str| {
        vec![
            FsOp::CreateFile(p(&format!("{root}/x"))),
            FsOp::Mkdir(p(&format!("{root}/y"))),
            FsOp::Mv(p(&format!("{root}/f0000")), p(&format!("{root}/g"))),
        ]
    };
    let blocked: Vec<_> = inside("/d").into_iter().map(|op| submit(&mut sim, &e, op)).collect();
    while blocked.iter().any(|slot| slot.borrow().is_none()) {
        assert!(sim.step());
    }
    assert!(mv.borrow().is_none(), "the subtree mv still holds its flag");
    for slot in &blocked {
        assert_eq!(slot.borrow_mut().take(), Some(Err(FsError::SubtreeLocked("/d".into()))));
    }
    sim.run();
    assert_eq!(mv.borrow_mut().take(), Some(Ok(OpOutcome::Moved(2001))));
    assert_eq!(e.db.table_len(e.schema.subtree_locks), 0);
    for op in inside("/e") {
        let result = run(&mut sim, &e, op.clone());
        assert!(result.is_ok(), "{op:?} after the flag went: {result:?}");
    }
    assert!(e.schema.check_consistency(&e.db).is_empty());
}

/// Flags `path`'s inode as a subtree root held by a live NameNode, before
/// any transaction runs.
fn flag(e: &OpEngine, path: &str) {
    let root = e.schema.peek_chain(&e.db, &p(path)).expect("flagged path exists").last().unwrap().id;
    let row = SubtreeLockRow { holder: OTHER, acquired_nanos: 0, path: p(path).as_str(), op: "mv" };
    e.db.bootstrap_insert(e.schema.subtree_locks, root, row);
}

/// `/g/m` holding the files `f` and `h`, the empty directory `/e` and the
/// empty sibling directory `/s`.
fn tree() -> OpEngine {
    let e = engine();
    for dir in ["/g", "/g/m", "/e", "/s"] {
        e.schema.bootstrap_mkdir(&e.db, &p(dir));
    }
    for file in ["/g/m/f", "/g/m/h"] {
        e.schema.bootstrap_create(&e.db, &p(file));
    }
    e
}

/// The store counters the guard may move: `(scans, unlocked reads)`.
fn guard_counters(stats: DbStats) -> (u64, u64) {
    (stats.scans, stats.unlocked_reads)
}

#[test]
fn a_flag_on_a_grandparent_refuses_every_single_inode_write_below_it() {
    let mut sim = Sim::new(8);
    let e = tree();
    flag(&e, "/g");
    let below = [
        FsOp::CreateFile(p("/g/m/x")),
        FsOp::Mkdir(p("/g/m/y")),
        FsOp::Delete(p("/g/m/f")),
        FsOp::Mv(p("/g/m/h"), p("/g/m/h2")),
    ];
    for op in below {
        let result = run(&mut sim, &e, op.clone());
        assert_eq!(result, Err(FsError::SubtreeLocked("/g".into())), "{op:?}");
    }
    assert!(e.schema.peek_chain(&e.db, &p("/g/m/f")).is_some(), "nothing deleted");
    assert!(e.schema.peek_chain(&e.db, &p("/g/m/h")).is_some(), "nothing moved");
    assert!(e.schema.check_consistency(&e.db).is_empty());
}

#[test]
fn a_flagged_empty_directory_cannot_be_deleted_by_the_single_inode_path() {
    let mut sim = Sim::new(9);
    let e = tree();
    flag(&e, "/e");
    assert_eq!(run(&mut sim, &e, FsOp::Delete(p("/e"))), Err(FsError::SubtreeLocked("/e".into())));
    assert!(e.schema.peek_chain(&e.db, &p("/e")).is_some());
}

#[test]
fn a_write_beside_a_held_flag_pays_one_unlocked_read_and_no_scan() {
    let mut sim = Sim::new(10);
    let e = tree();
    flag(&e, "/g");
    let (scans, unlocked) = guard_counters(e.db.stats());
    assert!(run(&mut sim, &e, FsOp::CreateFile(p("/s/x"))).is_ok());
    assert_eq!(guard_counters(e.db.stats()), (scans, unlocked + 1));
}

#[test]
fn with_no_flag_anywhere_the_guard_reads_nothing() {
    let mut sim = Sim::new(11);
    let e = tree();
    let before = guard_counters(e.db.stats());
    let writes = [
        FsOp::CreateFile(p("/g/m/x")),
        FsOp::Mkdir(p("/s/y")),
        FsOp::Delete(p("/g/m/f")),
        FsOp::Mv(p("/g/m/h"), p("/s/h")),
    ];
    for op in writes {
        let result = run(&mut sim, &e, op.clone());
        assert!(result.is_ok(), "{op:?}: {result:?}");
    }
    assert_eq!(guard_counters(e.db.stats()), before);
}

/// The guard runs after resolution and reads flags by inode id, so a path
/// that does not resolve answers `NotFound` before any flag is consulted,
/// and a create whose target exists answers `AlreadyExists` even when a
/// flagged subtree lies below it.
#[test]
fn resolution_errors_come_before_the_guard() {
    let mut sim = Sim::new(12);
    let e = tree();
    flag(&e, "/g/m");
    let missing_parent = run(&mut sim, &e, FsOp::CreateFile(p("/g/m/none/x")));
    assert_eq!(missing_parent, Err(FsError::NotFound("/g/m/none".into())));
    let ancestor = run(&mut sim, &e, FsOp::Mkdir(p("/g")));
    assert_eq!(ancestor, Err(FsError::AlreadyExists("/g".into())));
    let inside = run(&mut sim, &e, FsOp::CreateFile(p("/g/m/x")));
    assert_eq!(inside, Err(FsError::SubtreeLocked("/g/m".into())));
}
