//! Whole-stack determinism: identical seeds reproduce identical runs —
//! down to every latency sample — and different seeds genuinely differ.

use lambdafs_repro::fs::{DfsService, LambdaFs, LambdaFsConfig};
use lambdafs_repro::sim::{Sim, SimDuration};
use lambdafs_repro::workload::{run_spotify, SpotifyConfig};
use std::rc::Rc;

fn run(seed: u64) -> (u64, u64, u64, u64, f64, f64, usize) {
    let mut sim = Sim::new(seed);
    let fs = Rc::new(LambdaFs::build(
        &mut sim,
        LambdaFsConfig { deployments: 4, clients: 8, client_vms: 2, ..Default::default() },
    ));
    fs.start(&mut sim);
    let cfg = SpotifyConfig {
        base_throughput: 300.0,
        duration: SimDuration::from_secs(20),
        dirs: 12,
        files_per_dir: 8,
        ..Default::default()
    };
    let dirs = cfg.load(fs.as_ref());
    fs.prewarm_with(&mut sim, &dirs);
    sim.run_for(SimDuration::from_secs(8));
    let run = run_spotify(&mut sim, Rc::clone(&fs), cfg);
    fs.stop(&mut sim);
    let metrics = fs.run_metrics();
    let m = metrics.borrow();
    (
        run.generated,
        m.completed,
        m.tcp_rpcs,
        m.http_rpcs,
        m.mean_latency().as_secs_f64(),
        fs.pay_meter().total(),
        fs.active_namenodes(),
    )
}

#[test]
fn identical_seeds_reproduce_bit_identical_runs() {
    let a = run(31337);
    let b = run(31337);
    assert_eq!(a, b, "same seed must reproduce the same run exactly");
}

#[test]
fn different_seeds_produce_different_runs() {
    let a = run(1);
    let b = run(2);
    // The burst process differs, so at minimum the latency profile and
    // request counts move.
    assert_ne!(a, b, "different seeds produced identical runs");
}
