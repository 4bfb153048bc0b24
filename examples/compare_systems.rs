//! Head-to-head: the same workload driven through λFS, HopsFS,
//! HopsFS+Cache, and the CephFS-style MDS — the four architectures the
//! paper contrasts — using the shared `DfsService` driver interface.
//!
//! ```sh
//! cargo run --release --example compare_systems
//! ```

use lambdafs_repro::baselines::{CephFs, CephFsConfig, HopsFs, HopsFsConfig};
use lambdafs_repro::fs::{DfsService, LambdaFs, LambdaFsConfig};
use lambdafs_repro::namespace::OpClass;
use lambdafs_repro::sim::params::StoreParams;
use lambdafs_repro::sim::{Sim, SimDuration};
use lambdafs_repro::workload::{run_micro, MicroConfig};
use std::rc::Rc;

/// Shrink factor: the store's capacity is scaled down with the cluster so
/// the compute-to-store ratio matches the paper's testbed.
const SCALE: f64 = 8.0;
const CLIENTS: u32 = 256;

/// The read micro-benchmark every system runs.
fn micro() -> MicroConfig {
    MicroConfig {
        op: OpClass::Read,
        ops_per_client: 400,
        dirs: 32,
        files_per_dir: 16,
        ..Default::default()
    }
}

/// Runs [`micro`] against a started service that holds its tree.
fn drive<S: DfsService + 'static>(sim: &mut Sim, svc: Rc<S>) -> (String, f64, f64) {
    let run = run_micro(sim, Rc::clone(&svc), micro());
    let metrics = svc.run_metrics();
    let mut m = metrics.borrow_mut();
    let p50 = m
        .latency
        .get_mut(&OpClass::Read)
        .map(|r| r.percentile(0.5).as_millis_f64())
        .unwrap_or(0.0);
    (svc.service_name().to_string(), run.throughput, p50)
}

fn main() {
    let mut rows = Vec::new();

    {
        let mut sim = Sim::new(3);
        let fs = Rc::new(LambdaFs::build(
            &mut sim,
            LambdaFsConfig {
                deployments: 8,
                cluster_vcpus: 128,
                clients: CLIENTS,
                store: StoreParams::default().slowed(SCALE),
                ..Default::default()
            },
        ));
        fs.start(&mut sim);
        let dirs = micro().load(fs.as_ref());
        fs.prewarm_with(&mut sim, &dirs);
        sim.run_for(SimDuration::from_secs(8));
        rows.push(drive(&mut sim, Rc::clone(&fs)));
        fs.stop(&mut sim);
    }
    {
        let mut sim = Sim::new(3);
        let mut cfg = HopsFsConfig::vanilla(128, CLIENTS);
        cfg.store = StoreParams::default().slowed(SCALE);
        let fs = Rc::new(HopsFs::build(&mut sim, cfg));
        fs.start(&mut sim);
        micro().load(fs.as_ref());
        rows.push(drive(&mut sim, Rc::clone(&fs)));
        fs.stop(&mut sim);
    }
    {
        let mut sim = Sim::new(3);
        let mut cfg = HopsFsConfig::with_cache(128, CLIENTS);
        cfg.store = StoreParams::default().slowed(SCALE);
        let fs = Rc::new(HopsFs::build(&mut sim, cfg));
        fs.start(&mut sim);
        micro().load(fs.as_ref());
        rows.push(drive(&mut sim, Rc::clone(&fs)));
        fs.stop(&mut sim);
    }
    {
        let mut sim = Sim::new(3);
        let fs = Rc::new(CephFs::build(&mut sim, CephFsConfig::sized(128, CLIENTS)));
        fs.start(&mut sim);
        micro().load(fs.as_ref());
        rows.push(drive(&mut sim, Rc::clone(&fs)));
        fs.stop(&mut sim);
    }

    println!("{:<20} {:>14} {:>12}", "system", "read ops/sec", "read p50");
    for (name, tp, p50) in &rows {
        println!("{name:<20} {tp:>14.0} {p50:>10.2}ms");
    }
    // The architectural ordering the paper's figures show: caching systems
    // far above stateless HopsFS for reads.
    let lambda = rows[0].1;
    let hops = rows[1].1;
    assert!(lambda > 2.0 * hops, "λFS should dominate stateless HopsFS on reads");
}
