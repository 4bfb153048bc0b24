//! Fault tolerance: kill active NameNodes while clients keep issuing
//! operations (paper §5.6). Clients resubmit transparently; crashed
//! NameNodes' Coordinator sessions expire, in-flight coherence rounds
//! stop waiting for them, and the namespace stays consistent.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use lambdafs_repro::fs::{DfsService, LambdaFs, LambdaFsConfig};
use lambdafs_repro::namespace::{FsOp, TreeLayout};
use lambdafs_repro::sim::{Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let mut sim = Sim::new(13);
    let fs = Rc::new(LambdaFs::build(
        &mut sim,
        LambdaFsConfig { deployments: 6, clients: 12, client_vms: 3, ..Default::default() },
    ));
    fs.start(&mut sim);
    let dirs = fs.bootstrap_tree(&"/".parse().unwrap(), 24, 8);
    fs.prewarm_with(&mut sim, &dirs);
    sim.run_for(SimDuration::from_secs(8));

    let completed = Rc::new(RefCell::new(0u32));
    let failed = Rc::new(RefCell::new(0u32));
    let mut kills = 0u32;

    for i in 0..120u32 {
        // A mixed stream: creates and reads against the pre-built tree.
        let dir = &dirs[i as usize % dirs.len()];
        let op = if i % 3 == 0 {
            FsOp::CreateFile(dir.join(&format!("crash-test-{i}")).unwrap())
        } else {
            FsOp::ReadFile(dir.join_interned(TreeLayout::file_name(i as usize % 8)))
        };
        let c = Rc::clone(&completed);
        let f = Rc::clone(&failed);
        fs.submit(&mut sim, (i % 12) as usize, op, Box::new(move |_s, r| {
            if r.is_ok() {
                *c.borrow_mut() += 1;
            } else {
                *f.borrow_mut() += 1;
            }
        }));
        // Every 15 ops, murder a NameNode (round-robin over deployments).
        if i % 15 == 7 {
            for k in 0..6u32 {
                if let Some(victim) = fs.kill_one_namenode(&mut sim, (i + k) % 6) {
                    kills += 1;
                    println!("t={:>7}: killed {victim}", sim.now().to_string());
                    break;
                }
            }
        }
        sim.run_for(SimDuration::from_millis(250));
    }
    // Let retries and session expirations settle.
    sim.run_until(SimTime::from_secs(120));
    fs.stop(&mut sim);

    println!("\nkilled {kills} NameNodes mid-run");
    println!("operations: {} ok, {} failed", completed.borrow(), failed.borrow());
    println!("platform: {:?}", fs.platform().stats());
    let problems = fs.check_consistency();
    println!("namespace consistent after the carnage: {}", problems.is_empty());
    for p in &problems {
        println!("  violation: {p}");
    }
    assert!(problems.is_empty());
    assert!(*completed.borrow() >= 110, "too many operations lost");
}
