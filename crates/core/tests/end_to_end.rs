//! End-to-end tests of the assembled λFS system: every operation type,
//! cache behavior, coherence, subtree operations, fault tolerance, and
//! determinism.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_coord::{Coordinator, GroupEvent};
use lambda_fs::{
    deployment_group, CoherenceMsg, CoordCoherence, DfsService, LambdaFs, LambdaFsConfig, OpEngine,
};
use lambda_namespace::{
    DfsPath, FsError, FsOp, MetadataCache, MetadataSchema, OpOutcome, OpResult, Partitioner,
};
use lambda_sim::params::{CpuParams, NetParams, StoreParams};
use lambda_sim::{
    FaultPlan, FaultWindow, NetFault, NetFaultKind, Sim, SimDuration, SimTime, Station,
};
use lambda_store::Db;

fn p(s: &str) -> DfsPath {
    s.parse().unwrap()
}

fn small_config() -> LambdaFsConfig {
    LambdaFsConfig { deployments: 4, clients: 8, client_vms: 2, datanodes: 2, ..Default::default() }
}

/// Submits `op` and runs the simulation until its callback fires,
/// returning the result. Panics if the op does not complete within 60 s of
/// simulated time.
fn run_op(sim: &mut Sim, fs: &LambdaFs, client: usize, op: FsOp) -> OpResult {
    let slot: Rc<RefCell<Option<OpResult>>> = Rc::new(RefCell::new(None));
    let out = Rc::clone(&slot);
    fs.submit(sim, client, op, Box::new(move |_sim, r| *out.borrow_mut() = Some(r)));
    let deadline = sim.now() + SimDuration::from_secs(60);
    while slot.borrow().is_none() && sim.now() < deadline {
        if !sim.step() {
            break;
        }
    }
    let result = slot.borrow_mut().take();
    result.expect("operation did not complete within 60s of simulated time")
}

#[test]
fn full_lifecycle_of_every_operation_type() {
    let mut sim = Sim::new(42);
    let fs = LambdaFs::build(&mut sim, small_config());
    fs.start(&mut sim);

    assert!(matches!(
        run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/projects"))).unwrap(),
        OpOutcome::Created(_)
    ));
    assert!(matches!(
        run_op(&mut sim, &fs, 1, FsOp::Mkdir(p("/projects/lambda"))).unwrap(),
        OpOutcome::Created(_)
    ));
    let created = run_op(&mut sim, &fs, 2, FsOp::CreateFile(p("/projects/lambda/paper.pdf")))
        .unwrap();
    let OpOutcome::Created(inode) = created else { panic!("expected Created") };
    assert!(!inode.is_dir());

    // Read and stat see the file.
    let meta = run_op(&mut sim, &fs, 3, FsOp::ReadFile(p("/projects/lambda/paper.pdf"))).unwrap();
    let OpOutcome::Meta(read_inode) = meta else { panic!("expected Meta") };
    assert_eq!(read_inode.id, inode.id);
    assert!(matches!(
        run_op(&mut sim, &fs, 4, FsOp::Stat(p("/projects/lambda"))).unwrap(),
        OpOutcome::Meta(_)
    ));

    // Ls lists the child.
    let OpOutcome::Listing(names) =
        run_op(&mut sim, &fs, 5, FsOp::Ls(p("/projects/lambda"))).unwrap()
    else {
        panic!("expected Listing")
    };
    assert_eq!(*names, ["paper.pdf"]);

    // Mv relocates it; the old path disappears.
    assert!(matches!(
        run_op(
            &mut sim,
            &fs,
            6,
            FsOp::Mv(p("/projects/lambda/paper.pdf"), p("/projects/final.pdf"))
        )
        .unwrap(),
        OpOutcome::Moved(1)
    ));
    assert!(matches!(
        run_op(&mut sim, &fs, 7, FsOp::ReadFile(p("/projects/lambda/paper.pdf"))),
        Err(FsError::NotFound(_))
    ));
    assert!(matches!(
        run_op(&mut sim, &fs, 0, FsOp::ReadFile(p("/projects/final.pdf"))).unwrap(),
        OpOutcome::Meta(_)
    ));

    // Delete the file, then the (now empty) directory.
    assert!(matches!(
        run_op(&mut sim, &fs, 1, FsOp::Delete(p("/projects/final.pdf"))).unwrap(),
        OpOutcome::Deleted(1)
    ));
    assert!(matches!(
        run_op(&mut sim, &fs, 2, FsOp::Delete(p("/projects/lambda"))).unwrap(),
        OpOutcome::Deleted(1)
    ));

    assert!(fs.check_consistency().is_empty());
    fs.stop(&mut sim);
}

#[test]
fn duplicate_create_fails_and_missing_paths_are_not_found() {
    let mut sim = Sim::new(7);
    let fs = LambdaFs::build(&mut sim, small_config());
    fs.start(&mut sim);

    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/d"))).unwrap();
    run_op(&mut sim, &fs, 0, FsOp::CreateFile(p("/d/f"))).unwrap();
    assert!(matches!(
        run_op(&mut sim, &fs, 1, FsOp::CreateFile(p("/d/f"))),
        Err(FsError::AlreadyExists(_))
    ));
    assert!(matches!(
        run_op(&mut sim, &fs, 2, FsOp::Stat(p("/nope/x"))),
        Err(FsError::NotFound(_))
    ));
    // Creating under a file is rejected.
    assert!(matches!(
        run_op(&mut sim, &fs, 3, FsOp::CreateFile(p("/d/f/sub"))),
        Err(FsError::NotADirectory(_)) | Err(FsError::NotFound(_))
    ));
    fs.stop(&mut sim);
}

#[test]
fn repeated_reads_hit_the_serverless_cache() {
    let mut sim = Sim::new(11);
    let fs = LambdaFs::build(&mut sim, small_config());
    fs.start(&mut sim);
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/hot"))).unwrap();
    run_op(&mut sim, &fs, 0, FsOp::CreateFile(p("/hot/file"))).unwrap();

    let store_reads_before = fs.db().stats().locked_reads;
    // Same client so the request routes to the same deployment over TCP.
    for _ in 0..50 {
        run_op(&mut sim, &fs, 0, FsOp::ReadFile(p("/hot/file"))).unwrap();
    }
    let store_reads_after = fs.db().stats().locked_reads;
    // The first read may fill the cache; the rest must be hits. Retries
    // and stragglers can add a couple of fills, but 50 reads must not
    // cause anywhere near 50 store round trips.
    assert!(
        store_reads_after - store_reads_before <= 5,
        "cache ineffective: {} store reads for 50 repeats",
        store_reads_after - store_reads_before
    );
    fs.stop(&mut sim);
}

#[test]
fn writes_invalidate_caches_everywhere_no_stale_reads() {
    let mut sim = Sim::new(13);
    let fs = LambdaFs::build(&mut sim, small_config());
    fs.start(&mut sim);
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/shared"))).unwrap();
    run_op(&mut sim, &fs, 0, FsOp::CreateFile(p("/shared/doc"))).unwrap();

    // Warm caches on several NameNodes via different clients.
    for c in 0..8 {
        run_op(&mut sim, &fs, c, FsOp::Ls(p("/shared"))).unwrap();
    }
    // Now delete the file. Afterward *every* client must see it gone.
    run_op(&mut sim, &fs, 0, FsOp::Delete(p("/shared/doc"))).unwrap();
    for c in 0..8 {
        assert!(
            matches!(
                run_op(&mut sim, &fs, c, FsOp::ReadFile(p("/shared/doc"))),
                Err(FsError::NotFound(_))
            ),
            "client {c} read a deleted file (stale cache)"
        );
        let OpOutcome::Listing(names) = run_op(&mut sim, &fs, c, FsOp::Ls(p("/shared"))).unwrap()
        else {
            panic!("expected Listing")
        };
        assert!(names.is_empty(), "client {c} saw stale listing {names:?}");
    }
    fs.stop(&mut sim);
}

#[test]
fn subtree_delete_removes_everything_atomically() {
    let mut sim = Sim::new(17);
    let fs = LambdaFs::build(&mut sim, small_config());
    fs.start(&mut sim);

    // Build /tree with nested children through the API.
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/tree"))).unwrap();
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/tree/sub"))).unwrap();
    for i in 0..10 {
        run_op(&mut sim, &fs, 0, FsOp::CreateFile(p(&format!("/tree/f{i}")))).unwrap();
        run_op(&mut sim, &fs, 0, FsOp::CreateFile(p(&format!("/tree/sub/g{i}")))).unwrap();
    }
    let inodes_before = fs.schema().inode_count(fs.db());

    let OpOutcome::Deleted(n) = run_op(&mut sim, &fs, 1, FsOp::Delete(p("/tree"))).unwrap()
    else {
        panic!("expected Deleted")
    };
    // /tree + /tree/sub + 20 files.
    assert_eq!(n, 22);
    assert_eq!(fs.schema().inode_count(fs.db()), inodes_before - 22);
    assert!(matches!(
        run_op(&mut sim, &fs, 2, FsOp::Stat(p("/tree"))),
        Err(FsError::NotFound(_))
    ));
    assert!(matches!(
        run_op(&mut sim, &fs, 3, FsOp::Stat(p("/tree/sub/g3"))),
        Err(FsError::NotFound(_))
    ));
    assert!(fs.check_consistency().is_empty());
    // The subtree lock was released.
    assert_eq!(fs.db().table_len(fs.schema().subtree_locks), 0);
    fs.stop(&mut sim);
}

#[test]
fn impossible_operations_fail_on_the_first_attempt() {
    let mut sim = Sim::new(29);
    let fs = LambdaFs::build(&mut sim, small_config());
    fs.start(&mut sim);
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/a"))).unwrap();
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/a/b"))).unwrap();
    let retries_before = fs.metrics().borrow().retries;
    for op in [
        FsOp::Mv(p("/a"), p("/a/b/c")),
        FsOp::Mv(p("/a"), p("/a")),
        FsOp::Mv(p("/"), p("/x")),
        FsOp::Delete(p("/")),
    ] {
        let result = run_op(&mut sim, &fs, 1, op.clone());
        assert!(matches!(result, Err(FsError::InvalidArgument(_))), "{op:?}: {result:?}");
    }
    assert_eq!(fs.metrics().borrow().retries, retries_before, "a final error was retried");
    assert!(fs.check_consistency().is_empty());
    fs.stop(&mut sim);
}

#[test]
fn subtree_mv_relocates_the_whole_tree() {
    let mut sim = Sim::new(19);
    let fs = LambdaFs::build(&mut sim, small_config());
    fs.start(&mut sim);

    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/src"))).unwrap();
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/src/inner"))).unwrap();
    run_op(&mut sim, &fs, 0, FsOp::CreateFile(p("/src/inner/deep"))).unwrap();
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/dst"))).unwrap();

    let OpOutcome::Moved(n) =
        run_op(&mut sim, &fs, 1, FsOp::Mv(p("/src"), p("/dst/moved"))).unwrap()
    else {
        panic!("expected Moved")
    };
    assert_eq!(n, 3); // inner + deep + the root itself
    assert!(matches!(
        run_op(&mut sim, &fs, 2, FsOp::ReadFile(p("/dst/moved/inner/deep"))).unwrap(),
        OpOutcome::Meta(_)
    ));
    assert!(matches!(
        run_op(&mut sim, &fs, 3, FsOp::Stat(p("/src"))),
        Err(FsError::NotFound(_))
    ));
    assert!(fs.check_consistency().is_empty());
    assert_eq!(fs.db().table_len(fs.schema().subtree_locks), 0);
    fs.stop(&mut sim);
}

/// The names `ls` answers, sorted.
fn listing(result: OpResult) -> Vec<&'static str> {
    let OpOutcome::Listing(names) = result.unwrap() else { panic!("expected Listing") };
    let mut names = names.to_vec();
    names.sort_unstable();
    names
}

#[test]
fn subtree_writes_leave_no_stale_cache_at_one_instance_per_deployment() {
    // One instance per deployment: the instance that ran a subtree write
    // is the one that serves its deployment's next reads, so its own
    // cache must forget the subtree just as its peers' do.
    for deployments in [1, 4, 8] {
        let mut sim = Sim::new(31);
        let config =
            LambdaFsConfig { deployments, max_instances_per_deployment: 1, ..small_config() };
        let fs = LambdaFs::build(&mut sim, config);
        fs.start(&mut sim);
        for dir in ["/p", "/p/d", "/p/m", "/q"] {
            run_op(&mut sim, &fs, 0, FsOp::Mkdir(p(dir))).unwrap();
        }
        for file in ["/p/d/f", "/p/m/g"] {
            run_op(&mut sim, &fs, 0, FsOp::CreateFile(p(file))).unwrap();
        }
        let old = ["/p/d", "/p/d/f", "/p/m", "/p/m/g"];
        for c in 0..8 {
            for path in old {
                run_op(&mut sim, &fs, c, FsOp::Stat(p(path))).unwrap();
            }
            assert_eq!(listing(run_op(&mut sim, &fs, c, FsOp::Ls(p("/p")))), ["d", "m"]);
            assert!(listing(run_op(&mut sim, &fs, c, FsOp::Ls(p("/q")))).is_empty());
        }
        let deleted = run_op(&mut sim, &fs, 1, FsOp::Delete(p("/p/d"))).unwrap();
        assert!(matches!(deleted, OpOutcome::Deleted(2)), "d={deployments}: {deleted:?}");
        let moved = run_op(&mut sim, &fs, 2, FsOp::Mv(p("/p/m"), p("/q/m"))).unwrap();
        assert!(matches!(moved, OpOutcome::Moved(2)), "d={deployments}: {moved:?}");
        for c in 0..8 {
            for path in old {
                let stat = run_op(&mut sim, &fs, c, FsOp::Stat(p(path)));
                assert!(
                    matches!(stat, Err(FsError::NotFound(_))),
                    "d={deployments}, client {c}: stat {path} answered {stat:?}"
                );
            }
            let moved = run_op(&mut sim, &fs, c, FsOp::Stat(p("/q/m/g"))).unwrap();
            assert!(matches!(moved, OpOutcome::Meta(_)), "d={deployments}, client {c}");
            let ls_p = listing(run_op(&mut sim, &fs, c, FsOp::Ls(p("/p"))));
            assert!(ls_p.is_empty(), "d={deployments}, client {c}: ls /p answered {ls_p:?}");
            let ls_q = listing(run_op(&mut sim, &fs, c, FsOp::Ls(p("/q"))));
            assert_eq!(ls_q, ["m"], "d={deployments}, client {c}");
        }
        assert!(fs.check_consistency().is_empty());
        fs.stop(&mut sim);
    }
}

#[test]
fn a_subtree_mv_onto_a_taken_name_leaves_every_cached_listing_intact() {
    // A plain user error: the move fails and the store is unchanged, so
    // every client — whichever deployment serves it — must still list
    // both parents as they were.
    for deployments in [1, 4, 8] {
        let mut sim = Sim::new(41);
        let config =
            LambdaFsConfig { deployments, max_instances_per_deployment: 1, ..small_config() };
        let fs = LambdaFs::build(&mut sim, config);
        fs.start(&mut sim);
        for dir in ["/p", "/p/m", "/q", "/q/x"] {
            run_op(&mut sim, &fs, 0, FsOp::Mkdir(p(dir))).unwrap();
        }
        run_op(&mut sim, &fs, 0, FsOp::CreateFile(p("/p/m/g"))).unwrap();
        for c in 0..8 {
            run_op(&mut sim, &fs, c, FsOp::Stat(p("/p/m/g"))).unwrap();
            assert_eq!(listing(run_op(&mut sim, &fs, c, FsOp::Ls(p("/p")))), ["m"]);
            assert_eq!(listing(run_op(&mut sim, &fs, c, FsOp::Ls(p("/q")))), ["x"]);
        }
        let moved = run_op(&mut sim, &fs, 2, FsOp::Mv(p("/p/m"), p("/q/x")));
        assert!(matches!(moved, Err(FsError::AlreadyExists(_))), "d={deployments}: {moved:?}");
        for c in 0..8 {
            let ls_p = listing(run_op(&mut sim, &fs, c, FsOp::Ls(p("/p"))));
            assert_eq!(ls_p, ["m"], "d={deployments}, client {c}");
            let ls_q = listing(run_op(&mut sim, &fs, c, FsOp::Ls(p("/q"))));
            assert_eq!(ls_q, ["x"], "d={deployments}, client {c}");
            let stat = run_op(&mut sim, &fs, c, FsOp::Stat(p("/p/m/g"))).unwrap();
            assert!(matches!(stat, OpOutcome::Meta(_)), "d={deployments}, client {c}");
        }
        assert!(fs.check_consistency().is_empty());
        fs.stop(&mut sim);
    }
}

#[test]
fn a_parent_listed_while_a_subtree_delete_runs_loses_the_deleted_name() {
    // The followers list the parent after the delete's first row batch
    // committed and before its root step: they cache a listing that still
    // names `d`, and the root step's own INV round, which runs under its
    // locks, must take the name out of every one of them.
    let mut sim = Sim::new(43);
    let config = LambdaFsConfig { max_instances_per_deployment: 1, ..small_config() };
    let fs = LambdaFs::build(&mut sim, config);
    fs.schema().bootstrap_mkdir(fs.db(), &p("/p"));
    fs.schema().bootstrap_mkdir(fs.db(), &p("/p/d"));
    fs.schema().bootstrap_create(fs.db(), &p("/p/keep"));
    for i in 0..3_000 {
        fs.schema().bootstrap_create(fs.db(), &p(&format!("/p/d/f{i:04}")));
    }
    fs.start(&mut sim);
    for c in 0..8 {
        assert_eq!(listing(run_op(&mut sim, &fs, c, FsOp::Ls(p("/p")))), ["d", "keep"]);
    }
    let inodes_before = fs.schema().inode_count(fs.db());
    let slot: Rc<RefCell<Option<OpResult>>> = Rc::new(RefCell::new(None));
    let out = Rc::clone(&slot);
    fs.submit(&mut sim, 1, FsOp::Delete(p("/p/d")), Box::new(move |_, r| *out.borrow_mut() = Some(r)));
    while fs.schema().inode_count(fs.db()) == inodes_before {
        assert!(sim.step(), "the delete removed no row");
    }
    for c in 0..8 {
        run_op(&mut sim, &fs, c, FsOp::Ls(p("/p"))).unwrap();
    }
    assert!(slot.borrow().is_none(), "the delete ended before the parent was listed again");
    while slot.borrow().is_none() {
        assert!(sim.step(), "the delete never ended");
    }
    let deleted = slot.borrow_mut().take().unwrap();
    assert!(matches!(deleted, Ok(OpOutcome::Deleted(3_001))), "{deleted:?}");
    for c in 0..8 {
        let ls = listing(run_op(&mut sim, &fs, c, FsOp::Ls(p("/p"))));
        assert_eq!(ls, ["keep"], "client {c}");
    }
    assert!(fs.check_consistency().is_empty());
    fs.stop(&mut sim);
}

#[test]
fn an_empty_directory_delete_reaches_every_deployment_that_cached_it() {
    // `/e/g` is cached as an ancestor by the deployment that owns `/e/g/x`,
    // which neither its path nor its parent names: a delete that INVs only
    // those two deployments leaves it there, and the create below then
    // fails its parent's validation on every retry.
    let mut sim = Sim::new(47);
    let config = LambdaFsConfig { max_instances_per_deployment: 1, ..small_config() };
    let fs = LambdaFs::build(&mut sim, config);
    fs.start(&mut sim);
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/e"))).unwrap();
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/e/g"))).unwrap();
    run_op(&mut sim, &fs, 0, FsOp::CreateFile(p("/e/g/x"))).unwrap();
    assert!(matches!(run_op(&mut sim, &fs, 0, FsOp::Delete(p("/e/g/x"))), Ok(OpOutcome::Deleted(1))));
    assert!(matches!(run_op(&mut sim, &fs, 0, FsOp::Delete(p("/e/g"))), Ok(OpOutcome::Deleted(1))));
    let create = run_op(&mut sim, &fs, 0, FsOp::CreateFile(p("/e/g/z")));
    assert!(matches!(create, Err(FsError::NotFound(_))), "{create:?}");
    assert!(fs.check_consistency().is_empty());
    fs.stop(&mut sim);
}

#[test]
fn a_write_served_without_caching_still_patches_the_writers_listing() {
    // `allow_cache = false` (a foreign deployment serving under
    // anti-thrashing) forbids fills, not invalidations: the writer's own
    // cached listing of the parent loses the deleted name.
    let mut sim = Sim::new(37);
    let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
    let schema = MetadataSchema::install(&db);
    let mut engine = OpEngine::stateless(db, schema, Station::new("nn", 4), CpuParams::default());
    let cache = Rc::new(RefCell::new(MetadataCache::new(1024)));
    engine.cache = Some(Rc::clone(&cache));
    let dir = engine.schema.bootstrap_mkdir(&engine.db, &p("/dir"));
    for file in ["/dir/a", "/dir/b"] {
        engine.schema.bootstrap_create(&engine.db, &p(file));
    }
    let mut run = |op: FsOp, allow_cache: bool| -> OpResult {
        let slot = Rc::new(RefCell::new(None));
        let out = Rc::clone(&slot);
        let done = Box::new(move |_sim: &mut Sim, r| *out.borrow_mut() = Some(r));
        engine.execute(&mut sim, op, allow_cache, done);
        sim.run();
        let result = slot.borrow_mut().take();
        result.expect("the operation completed")
    };
    assert_eq!(listing(run(FsOp::Ls(p("/dir")), true)), ["a", "b"]);
    assert!(matches!(run(FsOp::Delete(p("/dir/a")), false).unwrap(), OpOutcome::Deleted(1)));
    let cached = cache.borrow_mut().listing(dir).expect("the listing stays cached");
    assert_eq!(*cached, ["b"]);
    assert_eq!(listing(run(FsOp::Ls(p("/dir")), true)), ["b"]);
}

#[test]
fn a_write_whose_writer_session_ends_mid_round_aborts_and_releases_its_locks() {
    // One follower never ACKs (it has no inbox); the writer's session then
    // ends, so the round's ACKs could only reach a closed inbox. The write
    // must abort rather than hold its row locks for ever. The other
    // follower answers: it has `ls /dir` cached and patches it from the
    // INV before the write's fate is known.
    let mut sim = Sim::new(41);
    let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
    let schema = MetadataSchema::install(&db);
    let mut engine = OpEngine::stateless(db, schema, Station::new("nn", 4), CpuParams::default());
    let coord: Coordinator<CoherenceMsg> =
        Coordinator::new(&NetParams::default(), SimDuration::from_secs(60));
    let sessions: Vec<_> = (0..3).map(|_| coord.create_session(&mut sim)).collect();
    let (writer, reader) = (sessions[0], sessions[2]);
    for &session in &sessions {
        coord.join_group(&mut sim, session, &deployment_group(0));
    }
    let endpoint_of = |session| {
        let cache = Rc::new(RefCell::new(MetadataCache::new(1024)));
        let partitioner = Rc::new(Partitioner::new(1));
        let endpoint = CoordCoherence::new(coord.clone(), session, partitioner, Rc::clone(&cache));
        let watcher = endpoint.clone();
        coord.watch_group(
            &deployment_group(0),
            Rc::new(move |sim, event| {
                if let GroupEvent::Left(member) = event {
                    watcher.on_member_left(sim, member);
                }
            }),
        );
        (endpoint, cache)
    };
    let (endpoint, _) = endpoint_of(writer);
    let (inbox, follower_cache) = endpoint_of(reader);
    coord.register_inbox(reader, Box::new(move |sim, msg| inbox.handle(sim, msg)));
    engine.coherence = Some(Rc::new(endpoint));
    let dir = engine.schema.bootstrap_mkdir(&engine.db, &p("/dir"));
    follower_cache.borrow_mut().cache_listing(dir, Rc::new(Vec::new()));

    let slot: Rc<RefCell<Option<OpResult>>> = Rc::new(RefCell::new(None));
    let out = Rc::clone(&slot);
    let done = Box::new(move |_: &mut Sim, r| *out.borrow_mut() = Some(r));
    engine.execute(&mut sim, FsOp::CreateFile(p("/dir/f")), true, done);
    sim.run_for(SimDuration::from_secs(1));
    assert!(slot.borrow().is_none(), "the round ended without an ACK");
    assert_eq!(engine.db.active_txn_count(), 1, "the write is not waiting in its round");
    assert_eq!(follower_cache.borrow_mut().listing(dir), Some(Rc::new(vec!["f"])));

    coord.close_session(&mut sim, writer);
    sim.run_for(SimDuration::from_secs(1));
    let result = slot.borrow_mut().take().expect("the write never ended");
    assert!(result.as_ref().is_err_and(FsError::is_transient), "{result:?}");
    assert_eq!(engine.db.active_txn_count(), 0);
    assert_eq!(engine.db.locked_rows(), 0);
    assert!(engine.schema.check_consistency(&engine.db).is_empty());
    let created = engine.schema.peek_chain_ids(&engine.db, &p("/dir/f"));
    assert!(created.is_none(), "the create committed");
    // Known gap (ROADMAP 1(d)): nothing tells the follower that the write
    // it patched its listing for never committed, so it keeps listing
    // the name until something else drops the listing. A mend turns this
    // into `None`.
    let listed = follower_cache.borrow_mut().listing(dir);
    assert_eq!(listed, Some(Rc::new(vec!["f"])), "the stale listing went away");
}

#[test]
fn namenode_kill_is_survivable_and_leaves_namespace_consistent() {
    let mut sim = Sim::new(23);
    let fs = LambdaFs::build(&mut sim, small_config());
    fs.start(&mut sim);
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/ft"))).unwrap();

    // Issue a stream of creates while killing NameNodes round-robin.
    let completed = Rc::new(RefCell::new(0u32));
    for i in 0..40 {
        let c = Rc::clone(&completed);
        fs.submit(
            &mut sim,
            i % 8,
            FsOp::CreateFile(p(&format!("/ft/file{i}"))),
            Box::new(move |_s, r| {
                if r.is_ok() {
                    *c.borrow_mut() += 1;
                }
            }),
        );
        if i % 10 == 5 {
            // Kill a NameNode from whichever deployment currently has one
            // warm (round-robin preference).
            for k in 0..4u32 {
                if fs.kill_one_namenode(&mut sim, (i as u32 + k) % 4).is_some() {
                    break;
                }
            }
        }
        sim.run_for(SimDuration::from_millis(100));
    }
    sim.run_until(SimTime::from_secs(120));
    assert!(fs.platform().stats().kills >= 1, "no kill actually happened");
    // Clients retried through crashes: the vast majority completed.
    assert!(
        *completed.borrow() >= 35,
        "only {}/40 creates completed despite retries",
        completed.borrow()
    );
    assert!(fs.check_consistency().is_empty());
    fs.stop(&mut sim);
}

#[test]
fn hybrid_rpc_uses_tcp_after_bootstrap() {
    let mut sim = Sim::new(29);
    let fs = LambdaFs::build(&mut sim, small_config());
    fs.start(&mut sim);
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/rpc"))).unwrap();
    for i in 0..200 {
        run_op(&mut sim, &fs, 0, FsOp::Stat(p("/rpc"))).unwrap();
        let _ = i;
    }
    let m = fs.metrics();
    let m = m.borrow();
    assert!(m.tcp_rpcs > 0, "no TCP RPCs at all");
    // With a 1% replacement probability, TCP must dominate heavily once
    // connections exist.
    assert!(
        m.tcp_rpcs > 10 * m.http_rpcs.max(1) || m.http_rpcs < 20,
        "tcp {} vs http {}",
        m.tcp_rpcs,
        m.http_rpcs
    );
    fs.stop(&mut sim);
}

#[test]
fn identical_seeds_produce_identical_runs() {
    fn run_once(seed: u64) -> (u64, u64, f64, usize) {
        let mut sim = Sim::new(seed);
        let fs = LambdaFs::build(&mut sim, small_config());
        fs.start(&mut sim);
        run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/det"))).unwrap();
        for i in 0..30 {
            run_op(&mut sim, &fs, i % 8, FsOp::CreateFile(p(&format!("/det/f{i}")))).unwrap();
            run_op(&mut sim, &fs, (i + 1) % 8, FsOp::ReadFile(p(&format!("/det/f{i}")))).unwrap();
        }
        fs.stop(&mut sim);
        let m = fs.metrics();
        let m = m.borrow();
        (m.completed, m.tcp_rpcs, m.mean_latency().as_secs_f64(), fs.active_namenodes())
    }
    assert_eq!(run_once(777), run_once(777));
}

#[test]
fn coherence_disabled_is_faster_but_unsafe_knob_exists() {
    // The ablation knob: with coherence off, writes skip INV/ACK rounds.
    let mut config = small_config();
    config.coherence_enabled = false;
    let mut sim = Sim::new(31);
    let fs = LambdaFs::build(&mut sim, config);
    fs.start(&mut sim);
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/unsafe"))).unwrap();
    run_op(&mut sim, &fs, 0, FsOp::CreateFile(p("/unsafe/f"))).unwrap();
    let (invs, _acks) = {
        // No INV traffic at all.
        fs.coordinator().message_stats()
    };
    assert_eq!(invs, 0, "coherence traffic despite ablation");
    fs.stop(&mut sim);
}

#[test]
fn crashed_subtree_lock_holder_is_swept_by_the_leader() {
    let mut config = small_config();
    config.client_timeout = SimDuration::from_secs(600);
    config.straggler_threshold = f64::INFINITY;
    let mut sim = Sim::new(37);
    let fs = LambdaFs::build(&mut sim, config);
    fs.start(&mut sim);
    // A directory big enough that its recursive delete spans real time.
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/victim"))).unwrap();
    for i in 0..400 {
        fs.bootstrap_file(&p(&format!("/victim/f{i:04}")));
    }
    // Ensure every deployment is warm so the op starts promptly.
    let dirs: Vec<lambda_namespace::DfsPath> = vec![p("/victim")];
    fs.prewarm_with(&mut sim, &dirs);
    sim.run_for(SimDuration::from_secs(8));

    let done: Rc<RefCell<Option<OpResult>>> = Rc::new(RefCell::new(None));
    let out = Rc::clone(&done);
    fs.submit(&mut sim, 0, FsOp::Delete(p("/victim")), Box::new(move |_s, r| {
        *out.borrow_mut() = Some(r);
    }));
    // Let the subtree operation take its persistent lock flag, then crash
    // every NameNode so the holder definitely dies mid-protocol.
    sim.run_for(SimDuration::from_millis(80));
    assert_eq!(fs.db().table_len(fs.schema().subtree_locks), 1, "flag not yet taken");
    for d in 0..fs.config().deployments {
        while fs.kill_one_namenode(&mut sim, d).is_some() {}
    }
    // New NameNodes spin up (the retried delete re-warms the platform), a
    // leader emerges, and the stale flag is swept, letting the retried
    // operation finish.
    sim.run_for(SimDuration::from_secs(120));
    assert_eq!(
        fs.db().table_len(fs.schema().subtree_locks),
        0,
        "stale subtree lock was never swept"
    );
    assert!(fs.check_consistency().is_empty());
    fs.stop(&mut sim);
}

#[test]
fn connection_sharing_borrows_sibling_servers_connections() {
    // One client per TCP server: with 8 clients on 2 VMs there are 4
    // servers per VM, so most lookups must borrow a sibling server's
    // connection (Fig. 4's sharing path).
    let mut config = small_config();
    config.clients_per_tcp_server = 1;
    let mut sim = Sim::new(61);
    let fs = LambdaFs::build(&mut sim, config);
    fs.start(&mut sim);
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/shared-conn"))).unwrap();
    run_op(&mut sim, &fs, 0, FsOp::CreateFile(p("/shared-conn/f"))).unwrap();
    // Client 0 established the connection; clients 2, 4, 6 live on the
    // same VM (clients are striped over VMs) but own different servers.
    for c in [2usize, 4, 6] {
        run_op(&mut sim, &fs, c, FsOp::ReadFile(p("/shared-conn/f"))).unwrap();
    }
    let m = fs.metrics();
    let m = m.borrow();
    assert!(
        m.connection_shares > 0,
        "no request ever borrowed a sibling server's connection"
    );
    fs.stop(&mut sim);
}

#[test]
fn result_cache_deduplicates_resubmitted_creates() {
    // Force a straggler resubmission of a create by making the straggler
    // threshold trivially aggressive... creates are exempt from straggler
    // mitigation, so instead exercise the dedup path directly: a timeout
    // retry of a create that actually completed must not yield
    // AlreadyExists. We simulate that by a very short client timeout.
    let mut config = small_config();
    config.client_timeout = SimDuration::from_millis(8); // below write latency
    config.max_retries = 10;
    let mut sim = Sim::new(67);
    let fs = LambdaFs::build(&mut sim, config);
    fs.start(&mut sim);
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/dedup"))).unwrap();
    // The create takes ~10-15ms (store writes + coherence); the client
    // resubmits at 8ms. The first execution completes and the resubmitted
    // copy must be answered from the NameNode's result cache — the final
    // outcome is success, not AlreadyExists.
    let r = run_op(&mut sim, &fs, 0, FsOp::CreateFile(p("/dedup/once")));
    assert!(
        matches!(r, Ok(OpOutcome::Created(_))),
        "resubmitted create was re-executed instead of deduplicated: {r:?}"
    );
    let m = fs.metrics();
    assert!(m.borrow().retries > 0, "the timeout retry never fired");
    fs.stop(&mut sim);
}


#[test]
fn a_create_that_met_a_down_store_runs_again_when_resubmitted() {
    // A transient reply is no answer: were the NameNode to retain it, every
    // resubmission reaching the same instance (one per deployment here)
    // would replay it until the client gave up with RetriesExhausted.
    let mut config = small_config();
    config.max_instances_per_deployment = 1;
    let mut sim = Sim::new(71);
    let fs = LambdaFs::build(&mut sim, config);
    fs.start(&mut sim);
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/down"))).unwrap();
    let retries_before = fs.metrics().borrow().retries;
    for shard in 0..fs.db().shard_count() as u32 {
        fs.db().crash_shard(&mut sim, shard, SimDuration::from_millis(150));
    }
    let r = run_op(&mut sim, &fs, 0, FsOp::CreateFile(p("/down/f")));
    assert!(matches!(r, Ok(OpOutcome::Created(_))), "resubmitted create never ran again: {r:?}");
    assert!(fs.metrics().borrow().retries > retries_before, "the create never met the outage");
    assert!(fs.check_consistency().is_empty());
    fs.stop(&mut sim);
}

/// Metadata-cache lookups over every NameNode so far.
fn cache_lookups(fs: &LambdaFs) -> u64 {
    let s = fs.cache_stats();
    s.hits + s.misses
}

/// Client 0 reads `path` while every reply to its VM is dropped, so the
/// NameNode's answer is lost and the client resubmits after its timeout to
/// the same instance. `between` runs after the first copy was answered and
/// before the second arrives. Returns the read's result and the cache
/// lookups of its first and of its second copy.
fn read_whose_reply_is_lost(
    path: &str,
    between: impl FnOnce(&mut Sim, &LambdaFs),
) -> (OpResult, u64, u64) {
    let mut config = small_config();
    config.max_instances_per_deployment = 1;
    config.client_timeout = SimDuration::from_secs(1);
    // No early (straggler) resubmission: the one resubmission is the
    // timeout's, after `between` has run. (An infinite threshold would not
    // do: its deadline falls back to the 50 ms straggler floor.)
    config.straggler_threshold = 1e6;
    let mut sim = Sim::new(73);
    let fs = LambdaFs::build(&mut sim, config);
    fs.start(&mut sim);
    run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/lost"))).unwrap();
    run_op(&mut sim, &fs, 0, FsOp::CreateFile(p(path))).unwrap();
    run_op(&mut sim, &fs, 0, FsOp::ReadFile(p(path))).unwrap();
    // Cold starts outlast the timeout: let the copies they caused finish.
    sim.run_for(SimDuration::from_secs(10));

    let now = sim.now();
    let drop_replies_to_vm0 = NetFault {
        kind: NetFaultKind::Drop,
        prob: 1.0,
        window: FaultWindow::new(now, now + SimDuration::from_millis(500)),
        src: None,
        dst: Some(0),
    };
    let plan = FaultPlan { net: vec![drop_replies_to_vm0], ..Default::default() };
    fs.install_fault_plan(&mut sim, &plan);
    let (start, retries_before) = (cache_lookups(&fs), fs.metrics().borrow().retries);
    let slot: Rc<RefCell<Option<OpResult>>> = Rc::new(RefCell::new(None));
    let out = Rc::clone(&slot);
    let done = Box::new(move |_: &mut Sim, r| *out.borrow_mut() = Some(r));
    fs.submit(&mut sim, 0, FsOp::ReadFile(p(path)), done);
    sim.run_for(SimDuration::from_millis(200));
    assert!(slot.borrow().is_none(), "the first reply was not lost");
    let first = cache_lookups(&fs) - start;
    between(&mut sim, &fs);
    let resubmitted_from = cache_lookups(&fs);
    let deadline = sim.now() + SimDuration::from_secs(60);
    while slot.borrow().is_none() && sim.now() < deadline && sim.step() {}
    let second = cache_lookups(&fs) - resubmitted_from;
    assert!(fs.metrics().borrow().retries > retries_before, "the read was never resubmitted");
    fs.stop(&mut sim);
    let result = slot.borrow_mut().take().expect("the read never completed");
    (result, first, second)
}

#[test]
fn a_resubmitted_read_runs_again_on_the_instance_that_answered_it() {
    let (r, first, second) = read_whose_reply_is_lost("/lost/f", |_, _| {});
    assert!(matches!(r, Ok(OpOutcome::Meta(_))), "{r:?}");
    assert!(first > 0, "the first copy never reached the cache");
    assert_eq!(second, first, "the resubmitted read was answered without running");
}

#[test]
fn a_resubmitted_read_sees_a_delete_made_after_its_first_copy() {
    let (r, ..) = read_whose_reply_is_lost("/lost/f", |sim, fs| {
        run_op(sim, fs, 1, FsOp::Delete(p("/lost/f"))).unwrap();
    });
    assert!(matches!(r, Err(FsError::NotFound(_))), "a stale reply was replayed: {r:?}");
}
