//! Beyond-paper ablations of λFS's own design knobs, as called out in
//! DESIGN.md: the HTTP-TCP replacement probability, the per-instance
//! `ConcurrencyLevel`, the cache capacity, and the coherence protocol
//! itself (unsafe ablation measuring its write overhead).

use lambda_bench::*;
use lambda_fs::{DfsService, LambdaFs, LambdaFsConfig};
use lambda_sim::params::StoreParams;
use lambda_sim::{Sim, SimDuration};
use lambda_workload::{run_spotify, SpotifyConfig};
use std::rc::Rc;

/// One design knob moved off its default.
type Knob = fn(&mut LambdaFsConfig);

struct Ablation {
    label: String,
    avg_tp: f64,
    avg_latency_ms: f64,
    peak_nn: f64,
    write_p50_ms: f64,
    cost: f64,
}

fn run_one(label: &str, scale: f64, seed: u64, mutate: Knob) -> Ablation {
    let mut sim = Sim::new(seed);
    let mut config = LambdaFsConfig {
        deployments: 10,
        cluster_vcpus: ((512.0 / scale) as u32).max(64),
        clients: ((1024.0 / scale) as u32).max(16),
        client_vms: 8,
        store: StoreParams::default().slowed(scale),
        ..Default::default()
    };
    mutate(&mut config);
    let fs = Rc::new(LambdaFs::build(&mut sim, config));
    fs.start(&mut sim);
    let spotify = SpotifyConfig {
        base_throughput: 25_000.0 / scale,
        duration: SimDuration::from_secs((300.0 / scale.sqrt()) as u64),
        dirs: ((2048.0 / scale) as usize).max(64),
        files_per_dir: 48,
        ..Default::default()
    };
    let dirs = fs.bootstrap_tree(&"/".parse().unwrap(), spotify.dirs, spotify.files_per_dir);
    fs.prewarm_with(&mut sim, &dirs);
    sim.run_for(SimDuration::from_secs(8));
    let _run = run_spotify(&mut sim, Rc::clone(&fs), spotify);
    fs.stop(&mut sim);
    let metrics = fs.run_metrics();
    let mut m = metrics.borrow_mut();
    let write_p50 = m
        .latency
        .get_mut(&lambda_namespace::OpClass::Create)
        .map(|r| r.percentile(0.5).as_millis_f64())
        .unwrap_or(0.0);
    Ablation {
        label: label.to_string(),
        avg_tp: m.mean_throughput(),
        avg_latency_ms: m.mean_latency().as_millis_f64(),
        peak_nn: fs.namenode_gauge().peak(),
        write_p50_ms: write_p50,
        cost: fs.pay_meter().total(),
    }
}

pub fn run(args: &Args) {
    let scale = args.scale();
    let seed = args.u64("seed", 54);
    let knobs: [(&str, Knob); 9] = [
        ("baseline (p=1%, CL=4, coherence on)", |_| {}),
        ("replacement p=0 (no autoscale signal)", |c| c.http_replace_prob = 0.0),
        ("replacement p=5%", |c| c.http_replace_prob = 0.05),
        ("replacement p=100% (per-op HTTP)", |c| c.http_replace_prob = 1.0),
        ("ConcurrencyLevel=1", |c| c.concurrency_level = 1),
        ("ConcurrencyLevel=16", |c| c.concurrency_level = 16),
        ("reduced cache (< WSS)", |c| c.cache_capacity = 4_000),
        ("coherence OFF (unsafe)", |c| c.coherence_enabled = false),
        ("NDB coordinator (10ms epochs)", |c| c.coordinator = lambda_coord::CoordinatorKind::Ndb),
    ];
    let jobs: Vec<_> =
        knobs.into_iter().map(|(label, mutate)| move || run_one(label, scale, seed, mutate)).collect();
    let results = run_parallel(args.threads(), jobs);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|a| {
            vec![
                a.label.clone(),
                fmt_ops(a.avg_tp * scale),
                fmt_ms(a.avg_latency_ms),
                format!("{:.0}", a.peak_nn),
                fmt_ms(a.write_p50_ms),
                format!("${:.4}", a.cost),
            ]
        })
        .collect();
    print_table(
        &format!("Design-knob ablations on the 25k industrial workload (scale 1/{scale})"),
        &["configuration", "avg tp (≈full)", "avg latency", "peak NNs", "create p50", "cost"],
        &rows,
    );
}
