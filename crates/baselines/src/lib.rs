//! # lambda-baselines
//!
//! Every comparator system of the λFS evaluation (paper §5.1),
//! re-implemented against the same substrates (store, DES, network
//! model) so the figures compare *architectures*, not measurement
//! artifacts:
//!
//! * [`HopsFs`] — vanilla HopsFS (stateless NameNodes over NDB) and
//!   HopsFS+Cache (serverful caching + peer coherence), including the
//!   cost-normalized variant;
//! * [`CephFs`] — a CephFS-style in-memory MDS cluster with journaling
//!   and capability-efficient writes;
//! * [`InfiniCacheStyle`] — λFS constrained to a fixed deployment with
//!   per-operation HTTP invocations;
//! * [`IndexFs`] / [`LambdaIndexFs`] — the §5.7 portability pair over the
//!   real LSM-tree substrate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cephfs;
mod hopsfs;
mod indexfs;
mod infinicache;
mod serverful;

pub use cephfs::{CephFs, CephFsConfig};
pub use hopsfs::{HopsFs, HopsFsConfig};
pub use indexfs::{
    IndexFs, IndexFsConfig, LambdaIndexFs, LambdaIndexFsConfig, TreeDone, TreeOp, TreeResp,
};
pub use infinicache::InfiniCacheStyle;
pub use serverful::{PeerCoherence, Routing, ServerNode, ServerfulCluster};

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_fs::DfsService;
    use lambda_namespace::{DfsPath, FsError, FsOp, OpOutcome, OpResult};
    use lambda_sim::{Sim, SimDuration};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn p(s: &str) -> DfsPath {
        s.parse().unwrap()
    }

    fn run_op(sim: &mut Sim, svc: &dyn DfsService, client: usize, op: FsOp) -> OpResult {
        let slot: Rc<RefCell<Option<OpResult>>> = Rc::new(RefCell::new(None));
        let out = Rc::clone(&slot);
        svc.submit_op(sim, client, op, Box::new(move |_s, r| *out.borrow_mut() = Some(r)));
        let deadline = sim.now() + SimDuration::from_secs(60);
        while slot.borrow().is_none() && sim.now() < deadline {
            if !sim.step() {
                break;
            }
        }
        let r = slot.borrow_mut().take();
        r.expect("op did not complete")
    }

    fn lifecycle(sim: &mut Sim, svc: &dyn DfsService) {
        assert!(matches!(
            run_op(sim, svc, 0, FsOp::Mkdir(p("/a"))).unwrap(),
            OpOutcome::Created(_)
        ));
        run_op(sim, svc, 1, FsOp::CreateFile(p("/a/f"))).unwrap();
        assert!(matches!(
            run_op(sim, svc, 2, FsOp::ReadFile(p("/a/f"))).unwrap(),
            OpOutcome::Meta(_)
        ));
        let OpOutcome::Listing(names) = run_op(sim, svc, 3, FsOp::Ls(p("/a"))).unwrap() else {
            panic!("expected Listing")
        };
        assert_eq!(*names, ["f"]);
        run_op(sim, svc, 0, FsOp::Mv(p("/a/f"), p("/a/g"))).unwrap();
        assert!(matches!(
            run_op(sim, svc, 1, FsOp::ReadFile(p("/a/f"))),
            Err(FsError::NotFound(_))
        ));
        run_op(sim, svc, 2, FsOp::Delete(p("/a/g"))).unwrap();
        run_op(sim, svc, 3, FsOp::Delete(p("/a"))).unwrap();
        assert!(matches!(
            run_op(sim, svc, 0, FsOp::Stat(p("/a"))),
            Err(FsError::NotFound(_))
        ));
    }

    #[test]
    fn hopsfs_serves_the_full_lifecycle() {
        let mut sim = Sim::new(1);
        let fs = HopsFs::build(&mut sim, HopsFsConfig::vanilla(64, 8));
        fs.start(&mut sim);
        lifecycle(&mut sim, &fs);
        assert!(fs.check_consistency().is_empty());
        fs.stop(&mut sim);
        // Stateless NameNodes: every read hit the store.
        assert!(fs.db().stats().locked_reads > 0);
    }

    #[test]
    fn hopsfs_cache_avoids_store_reads_on_repeats() {
        let mut sim = Sim::new(2);
        let fs = HopsFs::build(&mut sim, HopsFsConfig::with_cache(64, 8));
        fs.start(&mut sim);
        run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/hot"))).unwrap();
        run_op(&mut sim, &fs, 0, FsOp::CreateFile(p("/hot/f"))).unwrap();
        run_op(&mut sim, &fs, 0, FsOp::ReadFile(p("/hot/f"))).unwrap();
        let before = fs.db().stats().locked_reads;
        for _ in 0..30 {
            run_op(&mut sim, &fs, 0, FsOp::ReadFile(p("/hot/f"))).unwrap();
        }
        let after = fs.db().stats().locked_reads;
        assert!(after - before <= 2, "cache ineffective: {} store reads", after - before);
        fs.stop(&mut sim);
    }

    #[test]
    fn hopsfs_cache_peer_invalidation_prevents_stale_reads() {
        let mut sim = Sim::new(3);
        let fs = HopsFs::build(&mut sim, HopsFsConfig::with_cache(64, 8));
        fs.start(&mut sim);
        run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/s"))).unwrap();
        run_op(&mut sim, &fs, 0, FsOp::CreateFile(p("/s/doc"))).unwrap();
        for c in 0..8 {
            run_op(&mut sim, &fs, c, FsOp::ReadFile(p("/s/doc"))).unwrap();
        }
        run_op(&mut sim, &fs, 0, FsOp::Delete(p("/s/doc"))).unwrap();
        for c in 0..8 {
            assert!(matches!(
                run_op(&mut sim, &fs, c, FsOp::ReadFile(p("/s/doc"))),
                Err(FsError::NotFound(_))
            ));
        }
        fs.stop(&mut sim);
    }

    #[test]
    fn cephfs_serves_the_full_lifecycle_fast_reads() {
        let mut sim = Sim::new(4);
        let fs = CephFs::build(&mut sim, CephFsConfig::sized(128, 8));
        fs.start(&mut sim);
        lifecycle(&mut sim, &fs);
        // Reads are in-memory: sub-millisecond is typical.
        run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/q"))).unwrap();
        run_op(&mut sim, &fs, 0, FsOp::Stat(p("/q"))).unwrap();
        let m = fs.run_metrics();
        let mut m = m.borrow_mut();
        let stat = m.latency.get_mut(&lambda_namespace::OpClass::Stat).unwrap();
        assert!(stat.percentile(0.5) < SimDuration::from_millis(2));
        fs.stop(&mut sim);
    }

    #[test]
    fn infinicache_style_only_speaks_http() {
        let mut sim = Sim::new(5);
        let base = lambda_fs::LambdaFsConfig {
            deployments: 4,
            clients: 8,
            client_vms: 2,
            datanodes: 2,
            ..Default::default()
        };
        let fs = InfiniCacheStyle::build(&mut sim, base);
        fs.start(&mut sim);
        run_op(&mut sim, &fs, 0, FsOp::Mkdir(p("/ic"))).unwrap();
        for i in 0..20 {
            run_op(&mut sim, &fs, i % 8, FsOp::Stat(p("/ic"))).unwrap();
        }
        let m = fs.run_metrics();
        let m = m.borrow();
        assert_eq!(m.tcp_rpcs, 0, "InfiniCache-style must never use TCP RPCs");
        assert!(m.http_rpcs >= 21);
        // Fixed deployment: at most one instance per deployment.
        assert!(fs.system().active_namenodes() <= 4);
        fs.stop(&mut sim);
    }

    #[test]
    fn indexfs_tree_test_round_trip() {
        let mut sim = Sim::new(6);
        let fs = IndexFs::build(&mut sim, IndexFsConfig::default());
        let found = Rc::new(RefCell::new(Vec::new()));
        for i in 0..50 {
            let out = Rc::clone(&found);
            fs.submit(
                &mut sim,
                i % 4,
                TreeOp::Mknod(p(&format!("/d{}/f{i}", i % 3))),
                Box::new(move |_s, ok| out.borrow_mut().push(ok)),
            );
        }
        sim.run();
        for i in 0..50 {
            let out = Rc::clone(&found);
            fs.submit(
                &mut sim,
                i % 4,
                TreeOp::Getattr(p(&format!("/d{}/f{i}", i % 3))),
                Box::new(move |_s, ok| out.borrow_mut().push(ok)),
            );
        }
        sim.run();
        assert_eq!(found.borrow().len(), 100);
        assert!(found.borrow().iter().all(|ok| *ok), "getattr missed a created node");
        // Misses on never-created paths.
        let missing = Rc::new(RefCell::new(None));
        let out = Rc::clone(&missing);
        fs.submit(&mut sim, 0, TreeOp::Getattr(p("/nope/x")), Box::new(move |_s, ok| {
            *out.borrow_mut() = Some(ok);
        }));
        sim.run();
        assert_eq!(*missing.borrow(), Some(false));
    }

    #[test]
    fn lambda_indexfs_scales_and_caches() {
        let mut sim = Sim::new(7);
        let fs = LambdaIndexFs::build(&mut sim, LambdaIndexFsConfig::default());
        fs.start(&mut sim);
        let done = Rc::new(RefCell::new(0u32));
        for i in 0..100 {
            let d = Rc::clone(&done);
            fs.submit(
                &mut sim,
                i % 8,
                TreeOp::Mknod(p(&format!("/dir{}/f{i}", i % 4))),
                Box::new(move |_s, ok| {
                    assert!(ok);
                    *d.borrow_mut() += 1;
                }),
            );
        }
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(*done.borrow(), 100);
        // Reads after writes: every node is found.
        let hits = Rc::new(RefCell::new(0u32));
        for i in 0..100 {
            let h = Rc::clone(&hits);
            fs.submit(
                &mut sim,
                i % 8,
                TreeOp::Getattr(p(&format!("/dir{}/f{i}", i % 4))),
                Box::new(move |_s, ok| {
                    assert!(ok, "stale or missing read");
                    *h.borrow_mut() += 1;
                }),
            );
        }
        sim.run_for(SimDuration::from_secs(30));
        assert_eq!(*hits.borrow(), 100);
        assert!(fs.platform().total_instances() >= 1);
        let m = fs.metrics();
        let m = m.borrow();
        assert!(m.tcp_rpcs > 0, "hybrid RPC never used TCP");
        fs.stop(&mut sim);
    }
}
