//! The headline shapes of the paper's evaluation, asserted end-to-end on
//! a scaled-down industrial workload:
//!
//! * λFS sustains higher throughput than vanilla HopsFS;
//! * λFS's read latency is far below HopsFS's;
//! * λFS costs less than the provisioned HopsFS cluster;
//! * λFS's pay-per-use cost is below its own provisioned-model cost;
//! * caches actually serve the read traffic (high hit ratio).

use lambdafs_repro::baselines::{HopsFs, HopsFsConfig};
use lambdafs_repro::fs::{DfsService, LambdaFs, LambdaFsConfig};
use lambdafs_repro::namespace::OpClass;
use lambdafs_repro::sim::params::StoreParams;
use lambdafs_repro::sim::{Sim, SimDuration};
use lambdafs_repro::workload::{run_spotify, SpotifyConfig};
use std::rc::Rc;

const SCALE: f64 = 10.0;

fn spotify() -> SpotifyConfig {
    SpotifyConfig {
        base_throughput: 25_000.0 / SCALE,
        duration: SimDuration::from_secs(125),
        dirs: 205,
        files_per_dir: 24,
        ..Default::default()
    }
}

struct Outcome {
    avg_tp: f64,
    peak15: f64,
    read_p50_ms: f64,
    cost: f64,
    completed: u64,
    generated: u64,
}

fn run_lambda(seed: u64) -> (Outcome, f64, f64) {
    let mut sim = Sim::new(seed);
    let fs = Rc::new(LambdaFs::build(
        &mut sim,
        LambdaFsConfig {
            deployments: 8,
            cluster_vcpus: 64,
            clients: 102,
            client_vms: 8,
            store: StoreParams::default().slowed(SCALE),
            ..Default::default()
        },
    ));
    fs.start(&mut sim);
    let cfg = spotify();
    let dirs = cfg.load(fs.as_ref());
    fs.prewarm_with(&mut sim, &dirs);
    sim.run_for(SimDuration::from_secs(8));
    let run = run_spotify(&mut sim, Rc::clone(&fs), cfg);
    fs.stop(&mut sim);
    assert!(fs.check_consistency().is_empty());
    let stats = fs.cache_stats();
    let hit_ratio = stats.hit_ratio();
    let simplified = fs.simplified_meter().total();
    let metrics = fs.run_metrics();
    let mut m = metrics.borrow_mut();
    (
        Outcome {
            avg_tp: m.completed as f64 / 125.0,
            peak15: m.peak_sustained_throughput(15),
            read_p50_ms: m
                .latency
                .get_mut(&OpClass::Read)
                .map(|r| r.percentile(0.5).as_millis_f64())
                .unwrap_or(f64::MAX),
            cost: fs.pay_meter().total(),
            completed: m.completed,
            generated: run.generated,
        },
        hit_ratio,
        simplified,
    )
}

fn run_hops(seed: u64) -> Outcome {
    let mut sim = Sim::new(seed);
    let mut cfg = HopsFsConfig::vanilla(64, 102);
    cfg.store = StoreParams::default().slowed(SCALE);
    let fs = Rc::new(HopsFs::build(&mut sim, cfg));
    fs.start(&mut sim);
    let cfg = spotify();
    cfg.load(fs.as_ref());
    let run = run_spotify(&mut sim, Rc::clone(&fs), cfg);
    fs.stop(&mut sim);
    assert!(fs.check_consistency().is_empty());
    let cost = fs.cost_meter().total();
    let metrics = fs.run_metrics();
    let mut m = metrics.borrow_mut();
    Outcome {
        avg_tp: m.completed as f64 / 125.0,
        peak15: m.peak_sustained_throughput(15),
        read_p50_ms: m
            .latency
            .get_mut(&OpClass::Read)
            .map(|r| r.percentile(0.5).as_millis_f64())
            .unwrap_or(f64::MAX),
        cost,
        completed: m.completed,
        generated: run.generated,
    }
}

#[test]
fn lambda_beats_hopsfs_on_the_industrial_workload() {
    let (lambda, hit_ratio, simplified) = run_lambda(42);
    let hops = run_hops(42);

    // Both systems were offered the same load (deterministic generator).
    assert_eq!(lambda.generated, hops.generated);

    // λFS keeps up with the offered load.
    assert!(
        lambda.completed as f64 >= 0.98 * lambda.generated as f64,
        "λFS completed only {}/{}",
        lambda.completed,
        lambda.generated
    );
    // Throughput: λFS at least matches HopsFS on average (paper: 1.19x —
    // the gap comes from HopsFS falling behind at bursts, which the next
    // assertion pins down directly)...
    assert!(
        lambda.avg_tp >= 0.97 * hops.avg_tp,
        "λFS tp {} < HopsFS tp {}",
        lambda.avg_tp,
        hops.avg_tp
    );
    // ... and λFS's peak *sustained* throughput rides the bursts that cap
    // HopsFS at its store ceiling (paper: 4.3x).
    assert!(
        lambda.peak15 > 1.3 * hops.peak15,
        "λFS peak15 {} vs HopsFS {}",
        lambda.peak15,
        hops.peak15
    );
    // Read latency: λFS's median read is a cache hit (1-2ms TCP); HopsFS
    // medians include the slowed store round trip (paper: 6.9x-20x lower
    // for λFS). Medians are robust to the lock-wait tail that the store
    // slow-down magnifies at reduced scale.
    assert!(
        lambda.read_p50_ms < 3.0,
        "λFS read p50 {}ms is not cache-hit territory",
        lambda.read_p50_ms
    );
    assert!(
        lambda.read_p50_ms * 3.0 < hops.read_p50_ms,
        "λFS read p50 {}ms vs HopsFS {}ms",
        lambda.read_p50_ms,
        hops.read_p50_ms
    );
    // Cost: λFS cheaper than the provisioned cluster (paper: 7.14x).
    assert!(
        lambda.cost * 2.0 < hops.cost,
        "λFS ${} vs HopsFS ${}",
        lambda.cost,
        hops.cost
    );
    // Pay-per-use beats λFS's own provisioned accounting (Fig. 9's
    // "simplified" curve sits above the real one).
    assert!(lambda.cost < simplified, "pay-per-use ${} >= simplified ${simplified}", lambda.cost);
    // The cache is doing the work (paper's reads rarely touch NDB).
    assert!(hit_ratio > 0.75, "cache hit ratio only {hit_ratio:.2}");
}
