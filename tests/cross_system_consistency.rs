//! Cross-crate integration: every metadata service reaches the same final
//! namespace when driven with the same operation sequence, and every
//! store-backed service's namespace remains well-formed.

use lambdafs_repro::baselines::{CephFs, CephFsConfig, HopsFs, HopsFsConfig, InfiniCacheStyle};
use lambdafs_repro::fs::{DfsService, LambdaFs, LambdaFsConfig};
use lambdafs_repro::namespace::{DfsPath, FsOp, OpOutcome, OpResult};
use lambdafs_repro::sim::{Sim, SimDuration};
use std::cell::RefCell;
use std::rc::Rc;

fn p(s: &str) -> DfsPath {
    s.parse().unwrap()
}

fn run_op(sim: &mut Sim, svc: &dyn DfsService, client: usize, op: FsOp) -> OpResult {
    let slot: Rc<RefCell<Option<OpResult>>> = Rc::new(RefCell::new(None));
    let out = Rc::clone(&slot);
    svc.submit_op(sim, client, op, Box::new(move |_s, r| *out.borrow_mut() = Some(r)));
    let deadline = sim.now() + SimDuration::from_secs(120);
    while slot.borrow().is_none() && sim.now() < deadline {
        if !sim.step() {
            break;
        }
    }
    let r = slot.borrow_mut().take();
    r.expect("operation did not complete")
}

/// The shared script: a deterministic mixed sequence over a small tree.
fn script() -> Vec<FsOp> {
    let mut ops = vec![FsOp::Mkdir(p("/base"))];
    for d in 0..4 {
        ops.push(FsOp::Mkdir(p(&format!("/base/d{d}"))));
        for f in 0..6 {
            ops.push(FsOp::CreateFile(p(&format!("/base/d{d}/f{f}"))));
        }
    }
    for d in 0..4 {
        ops.push(FsOp::Ls(p(&format!("/base/d{d}"))));
        ops.push(FsOp::Stat(p(&format!("/base/d{d}/f0"))));
        ops.push(FsOp::ReadFile(p(&format!("/base/d{d}/f1"))));
    }
    ops.push(FsOp::Mv(p("/base/d0/f2"), p("/base/d1/moved")));
    ops.push(FsOp::Delete(p("/base/d2/f3")));
    ops.push(FsOp::Delete(p("/base/d3"))); // subtree delete (6 files)
    ops
}

/// Executes the script and returns the sorted listing fingerprint.
fn fingerprint(sim: &mut Sim, svc: &dyn DfsService) -> Vec<String> {
    for (i, op) in script().into_iter().enumerate() {
        run_op(sim, svc, i % 4, op).expect("scripted op failed");
    }
    let mut out = Vec::new();
    let OpOutcome::Listing(top) = run_op(sim, svc, 0, FsOp::Ls(p("/base"))).unwrap() else {
        panic!("expected listing")
    };
    for name in top.iter() {
        let dir = format!("/base/{name}");
        out.push(dir.clone());
        if let Ok(OpOutcome::Listing(children)) = run_op(sim, svc, 1, FsOp::Ls(p(&dir))) {
            for c in children.iter() {
                out.push(format!("{dir}/{c}"));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn all_systems_agree_on_the_final_namespace() {
    let lambda = {
        let mut sim = Sim::new(11);
        let fs = LambdaFs::build(
            &mut sim,
            LambdaFsConfig { deployments: 4, clients: 4, client_vms: 2, ..Default::default() },
        );
        fs.start(&mut sim);
        let fp = fingerprint(&mut sim, &fs);
        assert!(fs.check_consistency().is_empty(), "λFS namespace corrupt");
        fs.stop(&mut sim);
        fp
    };
    let hops = {
        let mut sim = Sim::new(11);
        let fs = HopsFs::build(&mut sim, HopsFsConfig::vanilla(64, 4));
        fs.start(&mut sim);
        let fp = fingerprint(&mut sim, &fs);
        assert!(fs.check_consistency().is_empty(), "HopsFS namespace corrupt");
        fs.stop(&mut sim);
        fp
    };
    let hops_cache = {
        let mut sim = Sim::new(11);
        let fs = HopsFs::build(&mut sim, HopsFsConfig::with_cache(64, 4));
        fs.start(&mut sim);
        let fp = fingerprint(&mut sim, &fs);
        fs.stop(&mut sim);
        fp
    };
    let ceph = {
        let mut sim = Sim::new(11);
        let fs = CephFs::build(&mut sim, CephFsConfig::sized(64, 4));
        fs.start(&mut sim);
        let fp = fingerprint(&mut sim, &fs);
        fs.stop(&mut sim);
        fp
    };
    let infini = {
        let mut sim = Sim::new(11);
        let base = LambdaFsConfig {
            deployments: 4,
            clients: 4,
            client_vms: 2,
            ..Default::default()
        };
        let fs = InfiniCacheStyle::build(&mut sim, base);
        fs.start(&mut sim);
        let fp = fingerprint(&mut sim, &fs);
        fs.stop(&mut sim);
        fp
    };
    assert!(!lambda.is_empty());
    assert_eq!(lambda, hops, "λFS vs HopsFS namespace divergence");
    assert_eq!(lambda, hops_cache, "λFS vs HopsFS+Cache namespace divergence");
    assert_eq!(lambda, ceph, "λFS vs CephFS namespace divergence");
    assert_eq!(lambda, infini, "λFS vs InfiniCache-style namespace divergence");
    // The subtree delete removed d3 entirely.
    assert!(!lambda.iter().any(|p| p.contains("/d3")));
    // The mv moved f2 into d1.
    assert!(lambda.contains(&"/base/d1/moved".to_string()));
    assert!(!lambda.contains(&"/base/d0/f2".to_string()));
}
