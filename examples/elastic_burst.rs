//! Elastic scaling under a bursty industrial workload — the scenario the
//! paper's introduction motivates: a DFS metadata service whose load
//! spikes 7× without warning.
//!
//! Runs a scaled-down Spotify-style workload against λFS and prints the
//! offered load, achieved throughput, and active-NameNode count per
//! second: watch the platform scale out at the bursts and back in after.
//!
//! ```sh
//! cargo run --release --example elastic_burst
//! ```

use lambdafs_repro::fs::{DfsService, LambdaFs, LambdaFsConfig};
use lambdafs_repro::sim::params::StoreParams;
use lambdafs_repro::sim::{every, Sim, SimDuration};
use lambdafs_repro::workload::{run_spotify, SpotifyConfig};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    let mut sim = Sim::new(7);
    let scale = 10.0; // 1/10 of the paper's 25k ops/sec experiment
    let fs = Rc::new(LambdaFs::build(
        &mut sim,
        LambdaFsConfig {
            deployments: 10,
            cluster_vcpus: 64,
            clients: 102,
            client_vms: 8,
            store: StoreParams::default().slowed(scale),
            ..Default::default()
        },
    ));
    fs.start(&mut sim);

    let spotify = SpotifyConfig {
        base_throughput: 25_000.0 / scale,
        duration: SimDuration::from_secs(120),
        dirs: 205,
        files_per_dir: 48,
        ..Default::default()
    };
    let dirs = spotify.load(fs.as_ref());
    fs.prewarm_with(&mut sim, &dirs);
    sim.run_for(SimDuration::from_secs(8));
    println!("warm start: {} NameNodes active", fs.active_namenodes());

    // Sample the NameNode count each second while the workload runs.
    let nn_series = Rc::new(RefCell::new(Vec::new()));
    let sink = Rc::clone(&nn_series);
    let fs2 = Rc::clone(&fs);
    let horizon = sim.now() + SimDuration::from_secs(200);
    let start_at = sim.now();
    every(&mut sim, start_at, SimDuration::from_secs(1), move |sim| {
        sink.borrow_mut().push(fs2.active_namenodes() as f64);
        sim.now() < horizon
    });

    let run = run_spotify(&mut sim, Rc::clone(&fs), spotify);
    fs.stop(&mut sim);

    let metrics = fs.run_metrics();
    let m = metrics.borrow();
    let offered = run.offered.buckets();
    let achieved = m.throughput.buckets();
    let nns = nn_series.borrow();
    println!("\n{:>5}  {:>9}  {:>9}  {:>4}", "t(s)", "offered", "achieved", "NNs");
    for t in (0..offered.len()).step_by(5) {
        println!(
            "{:>5}  {:>9.0}  {:>9.0}  {:>4.0}",
            t,
            offered.get(t).copied().unwrap_or(0.0),
            achieved.get(t).copied().unwrap_or(0.0),
            nns.get(t).copied().unwrap_or(0.0),
        );
    }
    println!("\nburst targets drawn from Pareto(α=2): {:?}", run.targets.iter().map(|t| *t as u64).collect::<Vec<_>>());
    println!("completed {}/{} ops, mean latency {}", m.completed, run.generated, m.mean_latency());
    println!("pay-per-use cost: ${:.4} (vs ${:.4} under the provisioned model)",
        fs.pay_meter().total(), fs.simplified_meter().total());
}
