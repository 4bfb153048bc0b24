//! # lambda-workload
//!
//! The workload generators and drivers of the λFS evaluation:
//!
//! * [`run_spotify`] — the §5.2 industrial workload: the Table 2
//!   operation mix under a Pareto(α = 2) burst process with rollover;
//! * [`run_micro`] — the §5.3 per-operation micro-benchmarks behind the
//!   client-driven and resource scaling figures;
//! * [`run_tree_test`] — IndexFS's `tree-test` (§5.7), fixed- and
//!   variable-sized.
//!
//! All drivers speak to systems through
//! [`DfsService`](lambda_fs::DfsService) (or the local
//! [`TreeService`] for the §5.7 pair), so every system sees byte-identical
//! load.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod micro;
mod spotify;
mod treetest;

pub use micro::{run_micro, MicroConfig, MicroRun};
pub use spotify::{run_spotify, SpotifyConfig, SpotifyRun};
pub use treetest::{run_tree_test, TreeService, TreeTestConfig, TreeTestRun};

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_baselines::{HopsFs, HopsFsConfig, IndexFs, IndexFsConfig};
    use lambda_fs::{DfsService, LambdaFs, LambdaFsConfig};
    use lambda_namespace::OpClass;
    use lambda_sim::Sim;
    use std::rc::Rc;

    #[test]
    fn spotify_drives_lambda_fs_to_its_target() {
        let mut sim = Sim::new(101);
        let fs = LambdaFs::build(
            &mut sim,
            LambdaFsConfig { deployments: 4, clients: 16, client_vms: 2, ..Default::default() },
        );
        fs.start(&mut sim);
        let fs = Rc::new(fs);
        let cfg = SpotifyConfig {
            base_throughput: 500.0,
            duration: lambda_sim::SimDuration::from_secs(20),
            dirs: 16,
            files_per_dir: 16,
            ..Default::default()
        };
        let dirs = cfg.load(fs.as_ref());
        fs.prewarm_with(&mut sim, &dirs);
        let run = run_spotify(&mut sim, Rc::clone(&fs), cfg);
        assert!(run.generated > 8_000, "generated only {}", run.generated);
        let m = fs.run_metrics();
        let m = m.borrow();
        // The system kept up: nearly everything completed.
        assert!(
            m.completed as f64 >= 0.97 * run.generated as f64,
            "completed {} of {}",
            m.completed,
            run.generated
        );
        // The mix hit every class.
        assert!(m.latency.contains_key(&OpClass::Read));
        assert!(m.latency.contains_key(&OpClass::Create));
        fs.stop(&mut sim);
        assert!(fs.check_consistency().is_empty());
    }

    #[test]
    fn spotify_targets_follow_the_pareto_process() {
        let mut sim = Sim::new(102);
        let fs = HopsFs::build(&mut sim, HopsFsConfig::vanilla(64, 16));
        fs.start(&mut sim);
        let fs = Rc::new(fs);
        let cfg = SpotifyConfig {
            base_throughput: 400.0,
            duration: lambda_sim::SimDuration::from_secs(60),
            dirs: 16,
            files_per_dir: 8,
            ..Default::default()
        };
        cfg.load(fs.as_ref());
        let run = run_spotify(&mut sim, Rc::clone(&fs), cfg);
        assert_eq!(run.targets.len(), 4); // one per 15s interval
        for t in &run.targets {
            assert!(*t >= 400.0 && *t <= 2800.0, "target {t} outside [x_t, 7x_t]");
        }
        fs.stop(&mut sim);
    }

    #[test]
    fn micro_closed_loop_completes_every_op() {
        let mut sim = Sim::new(103);
        let fs = LambdaFs::build(
            &mut sim,
            LambdaFsConfig { deployments: 4, clients: 8, client_vms: 2, ..Default::default() },
        );
        fs.start(&mut sim);
        let fs = Rc::new(fs);
        let cfg = MicroConfig {
            op: OpClass::Read,
            ops_per_client: 100,
            dirs: 8,
            files_per_dir: 8,
            ..Default::default()
        };
        let dirs = cfg.load(fs.as_ref());
        fs.prewarm_with(&mut sim, &dirs);
        let run = run_micro(&mut sim, Rc::clone(&fs), cfg);
        assert_eq!(run.completed, 800);
        assert_eq!(run.succeeded, 800);
        assert!(run.throughput > 0.0);
        fs.stop(&mut sim);
    }

    #[test]
    fn micro_create_throughput_is_below_read_throughput() {
        // The §5.3 shape: writes are store-bound, reads are cache-bound.
        fn tp(op: OpClass) -> f64 {
            let mut sim = Sim::new(104);
            let fs = LambdaFs::build(
                &mut sim,
                LambdaFsConfig { deployments: 4, clients: 16, client_vms: 2, ..Default::default() },
            );
            fs.start(&mut sim);
            let fs = Rc::new(fs);
            let cfg =
                MicroConfig { op, ops_per_client: 150, dirs: 8, files_per_dir: 16, ..Default::default() };
            let dirs = cfg.load(fs.as_ref());
            fs.prewarm_with(&mut sim, &dirs);
            let run = run_micro(&mut sim, Rc::clone(&fs), cfg);
            fs.stop(&mut sim);
            run.throughput
        }
        let read = tp(OpClass::Read);
        let create = tp(OpClass::Create);
        assert!(
            read > 1.5 * create,
            "reads ({read:.0}/s) should outpace creates ({create:.0}/s)"
        );
    }

    #[test]
    fn tree_test_reads_find_all_written_nodes() {
        let mut sim = Sim::new(105);
        let fs =
            Rc::new(IndexFs::build(&mut sim, IndexFsConfig { clients: 4, ..Default::default() }));
        let cfg = TreeTestConfig { ops_per_client: 200, ..TreeTestConfig::variable() };
        let run = run_tree_test(&mut sim, Rc::clone(&fs), cfg);
        assert_eq!(run.read_hits, 800, "some getattrs missed");
        assert!(run.write_throughput > 0.0);
        assert!(run.read_throughput > 0.0);
        assert!(run.aggregate_throughput > 0.0);
    }
}
