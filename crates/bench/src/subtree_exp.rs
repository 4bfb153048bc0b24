//! Subtree-operation experiment runner behind Table 3.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_baselines::{HopsFs, HopsFsConfig};
use lambda_fs::{DfsService, LambdaFs, LambdaFsConfig};
use lambda_namespace::{DfsPath, FsOp};
use lambda_sim::params::StoreParams;
use lambda_sim::{Sim, SimDuration};

use crate::industrial::SystemKind;

/// Result of one subtree `mv`.
#[derive(Debug, Clone, Copy)]
pub struct SubtreeMvResult {
    /// Directory size in files.
    pub dir_size: usize,
    /// End-to-end latency of the `mv`, milliseconds.
    pub latency_ms: f64,
    /// Inodes the operation reported as moved.
    pub moved: u64,
}

/// Moves a flat directory of `dir_size` files and reports the end-to-end
/// latency (Table 3's measurement).
#[must_use]
pub fn run_subtree_mv(kind: SystemKind, dir_size: usize, seed: u64) -> SubtreeMvResult {
    let mut sim = Sim::new(seed);
    let store = StoreParams::default();
    let result: Rc<RefCell<Option<(f64, u64)>>> = Rc::new(RefCell::new(None));
    let src: DfsPath = "/bulk/victim".parse().expect("valid");
    let dst: DfsPath = "/bulk/renamed".parse().expect("valid");

    match kind {
        SystemKind::Lambda | SystemKind::LambdaReducedCache => {
            let fs = Rc::new(LambdaFs::build(
                &mut sim,
                LambdaFsConfig {
                    deployments: 10,
                    cluster_vcpus: 512,
                    clients: 8,
                    client_vms: 2,
                    // Subtree operations outlive ordinary request
                    // timeouts by orders of magnitude.
                    client_timeout: SimDuration::from_secs(600),
                    store,
                    ..Default::default()
                },
            ));
            fs.start(&mut sim);
            bootstrap_flat_dir(fs.as_ref(), &src, dir_size);
            // Warm the deployments involved (λFS in the paper runs against
            // a warm platform; a cold start would otherwise dominate the
            // smaller directory sizes).
            let parent = src.parent().expect("non-root");
            fs.prewarm_with(&mut sim, &[src.clone(), parent, dst.clone()]);
            sim.run_for(SimDuration::from_secs(6));
            issue_mv(&mut sim, fs.as_ref(), &src, &dst, &result);
            fs.stop(&mut sim);
            sim.run_for(SimDuration::from_secs(5));
        }
        _ => {
            let fs = Rc::new(HopsFs::build(
                &mut sim,
                HopsFsConfig { store, ..HopsFsConfig::vanilla(512, 8) },
            ));
            fs.start(&mut sim);
            bootstrap_flat_dir(fs.as_ref(), &src, dir_size);
            issue_mv(&mut sim, fs.as_ref(), &src, &dst, &result);
            fs.stop(&mut sim);
            sim.run_for(SimDuration::from_secs(5));
        }
    }
    let (latency_ms, moved) = result.borrow().expect("mv completed");
    SubtreeMvResult { dir_size, latency_ms, moved }
}

fn bootstrap_flat_dir<S: DfsService>(fs: &S, dir: &DfsPath, files: usize) {
    // One directory holding `files` files, via the service's bulk loader.
    // bootstrap_tree creates dirs under a root; for a single flat dir we
    // create the parent then one directory with all the files.
    let parent = dir.parent().expect("non-root");
    let _ = fs.bootstrap_tree(&parent, 0, 0);
    // The victim directory itself, with its files, via a second call that
    // creates exactly one directory named dir00000 — then rename is
    // unnecessary: instead bootstrap under the victim path directly.
    let _ = fs.bootstrap_tree(dir, 0, 0);
    for i in 0..files {
        let f = dir.join(&format!("f{i:07}")).expect("valid");
        fs.bootstrap_file(&f);
    }
}

fn issue_mv<S: DfsService>(
    sim: &mut Sim,
    fs: &S,
    src: &DfsPath,
    dst: &DfsPath,
    result: &Rc<RefCell<Option<(f64, u64)>>>,
) {
    let started = sim.now();
    let out = Rc::clone(result);
    fs.submit_op(
        sim,
        0,
        FsOp::Mv(src.clone(), dst.clone()),
        Box::new(move |sim, r| {
            let moved = match r.expect("mv succeeded") {
                lambda_namespace::OpOutcome::Moved(n) => n,
                other => panic!("unexpected outcome {other:?}"),
            };
            let latency = sim.now().saturating_since(started).as_millis_f64();
            *out.borrow_mut() = Some((latency, moved));
        }),
    );
    // Run until the mv completes (bounded by an hour of simulated time).
    let deadline = sim.now() + SimDuration::from_secs(3600);
    while result.borrow().is_none() && sim.now() < deadline {
        if !sim.step() {
            break;
        }
    }
}
