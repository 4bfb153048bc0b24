//! The subtree protocol's two guards (Appendix D), driven on one stateless
//! engine: subtree isolation, under which a subtree operation refuses to
//! start while any overlapping flag has a live holder, and the write guard,
//! under which no create, mkdir or mv runs inside a subtree whose flag is
//! held.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_fs::{OpEngine, SubtreeSettings};
use lambda_namespace::{DfsPath, FsError, FsOp, InodeId, MetadataSchema, OpOutcome, OpResult};
use lambda_namespace::SubtreeLockRow;
use lambda_sim::params::{CpuParams, StoreParams};
use lambda_sim::{Sim, SimDuration, Station};
use lambda_store::{Db, LockMode};

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
