//! Subtree operations: recursive `mv` and `delete` over a directory tree,
//! exercising the three-phase subtree protocol: batched quiesce, then a
//! root step whose one INV round carries the subtree's prefix (paper
//! Appendix D).
//!
//! ```sh
//! cargo run --release --example subtree_ops
//! ```

use lambdafs_repro::fs::{DfsService, LambdaFs, LambdaFsConfig};
use lambdafs_repro::namespace::{FsOp, OpOutcome};
use lambdafs_repro::sim::{Sim, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

fn run_op(sim: &mut Sim, fs: &LambdaFs, op: FsOp) -> OpOutcome {
    let slot = Rc::new(RefCell::new(None));
    let out = Rc::clone(&slot);
    fs.submit(sim, 0, op, Box::new(move |_sim, r| *out.borrow_mut() = Some(r)));
    while slot.borrow().is_none() {
        assert!(sim.step(), "drained early");
    }
    let r = slot.borrow_mut().take().expect("completed");
    r.expect("operation failed")
}

fn main() {
    let mut sim = Sim::new(99);
    let fs = LambdaFs::build(
        &mut sim,
        LambdaFsConfig {
            deployments: 6,
            clients: 4,
            client_vms: 2,
            // Subtree ops outlive normal request timeouts.
            client_timeout: SimDuration::from_secs(600),
            ..Default::default()
        },
    );
    fs.start(&mut sim);

    // Bulk-load a project tree: /proj with 64 directories x 32 files.
    let dirs = fs.bootstrap_tree(&"/proj".parse().unwrap(), 64, 32);
    fs.prewarm_with(&mut sim, &dirs);
    sim.run_for(SimDuration::from_secs(8));
    println!("loaded {} inodes", fs.schema().inode_count(fs.db()));

    // Recursive move: /proj -> /archive (one relink + quiesce + prefix INV).
    let t0 = sim.now();
    let moved = run_op(&mut sim, &fs, FsOp::Mv("/proj".parse().unwrap(), "/archive".parse().unwrap()));
    println!(
        "mv /proj /archive: {moved:?} in {}",
        sim.now().saturating_since(t0)
    );

    // The tree is reachable at its new path...
    let meta = run_op(&mut sim, &fs, FsOp::Stat("/archive/dir00032/file00007".parse().unwrap()));
    println!("stat under the new root: {meta:?}");

    // ... and a recursive delete removes every inode, leaf-first.
    let t0 = sim.now();
    let deleted = run_op(&mut sim, &fs, FsOp::Delete("/archive".parse().unwrap()));
    println!(
        "rm -rf /archive: {deleted:?} in {}",
        sim.now().saturating_since(t0)
    );

    println!("inodes remaining: {}", fs.schema().inode_count(fs.db()));
    assert_eq!(fs.schema().inode_count(fs.db()), 1, "only the root should remain");
    assert!(fs.check_consistency().is_empty());
    assert_eq!(fs.db().table_len(fs.schema().subtree_locks), 0, "subtree lock released");
    fs.stop(&mut sim);
    println!("namespace consistent, subtree locks released.");
}
