//! Coherence stress: randomized concurrent writers and readers across
//! many clients and NameNodes. The invariant under test is the paper's
//! §3.5 guarantee — once a write completes, **no** subsequent read
//! observes the pre-write state, regardless of which NameNode's cache
//! serves it. The first test writes files; the second writes directories
//! through the subtree protocol (Appendix D's prefix invalidation).

use lambda_fs::{DfsService, LambdaFs, LambdaFsConfig};
use lambda_namespace::{DfsPath, FsError, FsOp, OpOutcome, OpResult};
use lambda_sim::{Sim, SimDuration, SimRng};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

/// The oracle: which files exist according to *completed* operations.
#[derive(Default)]
struct Oracle {
    /// path → (exists, version at last completed write)
    files: HashMap<String, bool>,
    violations: Vec<String>,
}

fn stress(seed: u64) {
    let mut sim = Sim::new(seed);
    let fs = Rc::new(LambdaFs::build(
        &mut sim,
        LambdaFsConfig { deployments: 6, clients: 12, client_vms: 3, ..Default::default() },
    ));
    fs.start(&mut sim);
    let dirs = fs.bootstrap_tree(&"/".parse().unwrap(), 6, 2);
    fs.prewarm_with(&mut sim, &dirs);
    sim.run_for(SimDuration::from_secs(8));

    let oracle = Rc::new(RefCell::new(Oracle::default()));
    let mut gen = SimRng::new(seed ^ 0xDEAD);
    let candidates: Vec<DfsPath> = dirs
        .iter()
        .flat_map(|d| (0..3).map(move |i| d.join(&format!("s{i}")).unwrap()))
        .collect();

    // Interleave creates, deletes, and reads of a small set of paths, with
    // *serialized* phases per path: we only assert about reads issued
    // strictly after a write completed, which the per-tick serialization
    // below guarantees.
    for round in 0..60 {
        let path = candidates[gen.pick_index(candidates.len())].clone();
        let client = gen.pick_index(12);
        let exists_now = {
            let o = oracle.borrow();
            o.files.get(path.as_str()).copied().unwrap_or(false)
        };
        let op = if exists_now { FsOp::Delete(path.clone()) } else { FsOp::CreateFile(path.clone()) };
        // Run the write to completion.
        let done = Rc::new(RefCell::new(false));
        {
            let done = Rc::clone(&done);
            let oracle = Rc::clone(&oracle);
            let path = path.clone();
            let creating = !exists_now;
            fs.submit(&mut sim, client, op, Box::new(move |_s, r| {
                match r {
                    Ok(_) => {
                        oracle.borrow_mut().files.insert(path.as_str().to_string(), creating);
                    }
                    Err(FsError::AlreadyExists(_)) => {
                        oracle.borrow_mut().files.insert(path.as_str().to_string(), true);
                    }
                    Err(FsError::NotFound(_)) => {
                        oracle.borrow_mut().files.insert(path.as_str().to_string(), false);
                    }
                    Err(_) => {}
                }
                *done.borrow_mut() = true;
            }));
        }
        while !*done.borrow() {
            assert!(sim.step(), "drained mid-write");
        }
        // Now read the path from EVERY client: all must agree with the
        // oracle (no stale cache anywhere).
        for c in 0..12 {
            let expect = oracle.borrow().files.get(path.as_str()).copied().unwrap_or(false);
            let done = Rc::new(RefCell::new(false));
            let d2 = Rc::clone(&done);
            let oracle2 = Rc::clone(&oracle);
            let path2 = path.clone();
            fs.submit(&mut sim, c, FsOp::ReadFile(path.clone()), Box::new(move |_s, r| {
                let saw = match r {
                    Ok(OpOutcome::Meta(_)) => true,
                    Err(FsError::NotFound(_)) => false,
                    Ok(other) => panic!("unexpected outcome {other:?}"),
                    Err(e) => panic!("read failed hard: {e}"),
                };
                if saw != expect {
                    oracle2.borrow_mut().violations.push(format!(
                        "round {round}: client {c} saw exists={saw}, expected {expect} for {path2}"
                    ));
                }
                *d2.borrow_mut() = true;
            }));
            while !*done.borrow() {
                assert!(sim.step(), "drained mid-read");
            }
        }
    }
    fs.stop(&mut sim);
    let o = oracle.borrow();
    assert!(o.violations.is_empty(), "stale reads: {:?}", o.violations);
    assert!(fs.check_consistency().is_empty());
}

#[test]
fn no_client_ever_sees_a_stale_read() {
    for seed in [3, 17, 71, 2024] {
        stress(seed);
    }
}

/// Runs `op` as `client` to completion.
fn run(sim: &mut Sim, fs: &LambdaFs, client: usize, op: FsOp) -> OpResult {
    let slot = Rc::new(RefCell::new(None));
    let out = Rc::clone(&slot);
    fs.submit(sim, client, op, Box::new(move |_s, r| *out.borrow_mut() = Some(r)));
    while slot.borrow().is_none() {
        assert!(sim.step(), "drained mid-operation");
    }
    let result = slot.borrow_mut().take();
    result.expect("completed")
}

/// The directory oracle: each directory's names according to completed
/// operations.
type Dirs = BTreeMap<String, BTreeSet<String>>;

/// Whether the oracle says `path` exists.
fn exists(dirs: &Dirs, path: &DfsPath) -> bool {
    let parent = path.parent().expect("non-root");
    let name = path.file_name().expect("non-root");
    dirs.get(parent.as_str()).is_some_and(|names| names.contains(name))
}

fn f_in(dir: &DfsPath) -> DfsPath {
    dir.join("f").unwrap()
}

fn stress_dirs(seed: u64) {
    let mut sim = Sim::new(seed);
    let fs = LambdaFs::build(
        &mut sim,
        LambdaFsConfig { deployments: 6, clients: 12, client_vms: 3, ..Default::default() },
    );
    fs.start(&mut sim);
    let bootstrap = fs.bootstrap_tree(&"/".parse().unwrap(), 6, 2);
    fs.prewarm_with(&mut sim, &bootstrap);
    sim.run_for(SimDuration::from_secs(8));

    let mut dirs = Dirs::new();
    for dir in &bootstrap {
        let Ok(OpOutcome::Listing(names)) = run(&mut sim, &fs, 0, FsOp::Ls(dir.clone())) else {
            panic!("ls {dir} failed before any write");
        };
        dirs.insert(dir.as_str().to_string(), names.iter().map(|n| n.to_string()).collect());
    }
    let mut gen = SimRng::new(seed ^ 0xD1E5);
    // Directories this test made, each holding one file `f`.
    let mut made: Vec<DfsPath> = Vec::new();
    let mut violations = Vec::new();
    for round in 0..24 {
        let action = if made.is_empty() { 0 } else { gen.pick_index(3) };
        // The write's paths: what every client then stats and lists.
        let (stats, parents): (Vec<DfsPath>, Vec<DfsPath>) = match action {
            0 => {
                let parent = bootstrap[gen.pick_index(bootstrap.len())].clone();
                let dir = parent.join(&format!("t{round}")).unwrap();
                let r = run(&mut sim, &fs, gen.pick_index(12), FsOp::Mkdir(dir.clone()));
                assert!(matches!(r, Ok(OpOutcome::Created(_))), "round {round}: {dir}: {r:?}");
                dirs.get_mut(parent.as_str()).unwrap().insert(format!("t{round}"));
                dirs.insert(dir.as_str().to_string(), BTreeSet::new());
                let stats = std::slice::from_ref(&dir);
                check(&mut sim, &fs, &dirs, round, stats, &[parent], &mut violations);
                let file = f_in(&dir);
                let r = run(&mut sim, &fs, gen.pick_index(12), FsOp::CreateFile(file.clone()));
                assert!(matches!(r, Ok(OpOutcome::Created(_))), "round {round}: {file}: {r:?}");
                dirs.get_mut(dir.as_str()).unwrap().insert("f".into());
                made.push(dir.clone());
                (vec![file], vec![dir])
            }
            1 => {
                let src = made.swap_remove(gen.pick_index(made.len()));
                let src_parent = src.parent().unwrap();
                let others: Vec<&DfsPath> =
                    bootstrap.iter().filter(|d| **d != src_parent).collect();
                let dst_parent = others[gen.pick_index(others.len())].clone();
                let dst = dst_parent.join(&format!("t{round}")).unwrap();
                let op = FsOp::Mv(src.clone(), dst.clone());
                let r = run(&mut sim, &fs, gen.pick_index(12), op);
                assert!(matches!(r, Ok(OpOutcome::Moved(2))), "round {round}: {src}: {r:?}");
                dirs.get_mut(src_parent.as_str()).unwrap().remove(src.file_name().unwrap());
                dirs.get_mut(dst_parent.as_str()).unwrap().insert(format!("t{round}"));
                let names = dirs.remove(src.as_str()).unwrap();
                dirs.insert(dst.as_str().to_string(), names);
                made.push(dst.clone());
                (vec![f_in(&src), f_in(&dst), src, dst], vec![src_parent, dst_parent])
            }
            _ => {
                let dir = made.swap_remove(gen.pick_index(made.len()));
                let parent = dir.parent().unwrap();
                let r = run(&mut sim, &fs, gen.pick_index(12), FsOp::Delete(dir.clone()));
                assert!(matches!(r, Ok(OpOutcome::Deleted(2))), "round {round}: {dir}: {r:?}");
                dirs.get_mut(parent.as_str()).unwrap().remove(dir.file_name().unwrap());
                dirs.remove(dir.as_str());
                (vec![f_in(&dir), dir], vec![parent])
            }
        };
        check(&mut sim, &fs, &dirs, round, &stats, &parents, &mut violations);
    }
    fs.stop(&mut sim);
    assert!(violations.is_empty(), "stale reads: {violations:#?}");
    assert!(fs.check_consistency().is_empty());
}

/// Every client stats `stats` and lists `parents`; each answer must
/// match the oracle.
fn check(
    sim: &mut Sim,
    fs: &LambdaFs,
    dirs: &Dirs,
    round: usize,
    stats: &[DfsPath],
    parents: &[DfsPath],
    violations: &mut Vec<String>,
) {
    for c in 0..12 {
        for path in stats {
            let saw = match run(sim, fs, c, FsOp::Stat(path.clone())) {
                Ok(OpOutcome::Meta(_)) => true,
                Err(FsError::NotFound(_)) => false,
                other => panic!("round {round}: client {c}: stat {path}: {other:?}"),
            };
            if saw != exists(dirs, path) {
                violations.push(format!("round {round}: client {c} saw exists={saw} for {path}"));
            }
        }
        for dir in parents {
            let Ok(OpOutcome::Listing(names)) = run(sim, fs, c, FsOp::Ls(dir.clone())) else {
                panic!("round {round}: client {c}: ls {dir} failed");
            };
            let saw: BTreeSet<String> = names.iter().map(|n| n.to_string()).collect();
            if saw != dirs[dir.as_str()] {
                violations.push(format!("round {round}: client {c} listed {dir} as {saw:?}"));
            }
        }
    }
}

#[test]
fn no_client_ever_sees_a_stale_directory() {
    for seed in [3, 17, 71, 2024] {
        stress_dirs(seed);
    }
}
