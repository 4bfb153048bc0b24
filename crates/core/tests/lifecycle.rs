//! Lifecycle property: stopping and restarting a system before it serves
//! anything is invisible to clients.
//!
//! For k ∈ {0, 1, 3}, start → (stop → start)×k → a random small operation
//! sequence → drain must give results identical to k = 0 in every
//! `OpResult` (in completion order), the `RunMetrics`, both cost meters
//! (compared bit for bit) and the audit.
//!
//! The property is stated on what clients and the bill observe, not on the
//! event trace: `stop` does not cancel the ticks it has already scheduled,
//! so each restart leaves its predecessors' maintenance and reporting
//! ticks to fire once and do nothing (DESIGN.md §3.10). Those no-op
//! events change the executed-event count, and nothing else.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_fs::{AuditReport, LambdaFs, LambdaFsConfig};
use lambda_namespace::{DfsPath, FsOp, OpResult};
use lambda_sim::{CostMeter, Sim, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

/// Everything a run shows to its clients and to whoever pays for it.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `(op index, result)` in completion order.
    results: Vec<(usize, OpResult)>,
    /// `RunMetrics`, rendered with `{:?}`: every float prints in its
    /// shortest round-trip form, so equal text means equal bits.
    metrics: String,
    pay: (Vec<u64>, u64),
    provisioned: (Vec<u64>, u64),
    audit: AuditReport,
}

fn meter_bits(meter: &CostMeter) -> (Vec<u64>, u64) {
    (meter.per_second().iter().map(|usd| usd.to_bits()).collect(), meter.requests())
}

fn path(s: &str) -> DfsPath {
    s.parse().expect("valid path")
}

/// `n` operations over a small vocabulary, so that they collide: creates
/// and deletes of the same names, moves of directories with children,
/// reads of paths that may or may not exist. Each comes with its client
/// and its submission instant in the first 3 s.
fn random_ops(rng: &mut SimRng, n: usize) -> Vec<(SimTime, usize, FsOp)> {
    const DIRS: [&str; 3] = ["/a", "/b", "/a/c"];
    const NAMES: [&str; 3] = ["x", "y", "z"];
    let mut ops: Vec<(SimTime, usize, FsOp)> = (0..n)
        .map(|_| {
            let dir = DIRS[rng.pick_index(DIRS.len())];
            let file = path(&format!("{dir}/{}", NAMES[rng.pick_index(NAMES.len())]));
            let op = match rng.gen_range(0..7u32) {
                0 => FsOp::Mkdir(path(dir)),
                1 => FsOp::CreateFile(file),
                2 => FsOp::Stat(file),
                3 => FsOp::ReadFile(file),
                4 => FsOp::Ls(path(dir)),
                5 => FsOp::Delete(if rng.gen_bool(0.5) { file } else { path(dir) }),
                _ => FsOp::Mv(path(dir), path(DIRS[rng.pick_index(DIRS.len())])),
            };
            let at = SimTime::ZERO + SimDuration::from_millis(rng.gen_range(0..3_000u64));
            (at, rng.pick_index(4), op)
        })
        .collect();
    ops.sort_by_key(|(at, _, _)| *at);
    ops
}

/// Builds a system, starts it, stops and restarts it `restarts` times at
/// the same instant, runs `ops`, then drains the way the benchmark does:
/// past the idle reclaim, then `stop` and run the queue dry.
fn run(seed: u64, ops: &[(SimTime, usize, FsOp)], restarts: usize) -> Observed {
    let mut sim = Sim::new(seed);
    let config = LambdaFsConfig { deployments: 3, clients: 4, ..Default::default() };
    let fs = Rc::new(LambdaFs::build(&mut sim, config));
    fs.start(&mut sim);
    for _ in 0..restarts {
        fs.stop(&mut sim);
        fs.start(&mut sim);
    }
    let results = Rc::new(RefCell::new(Vec::new()));
    for (i, (at, client, op)) in ops.iter().cloned().enumerate() {
        let (fs, results) = (Rc::clone(&fs), Rc::clone(&results));
        sim.schedule_at(at, move |sim| {
            fs.submit(
                sim,
                client,
                op,
                Box::new(move |_sim, r| results.borrow_mut().push((i, r))),
            );
        });
    }
    sim.run_for(SimDuration::from_secs(60));
    fs.stop(&mut sim);
    sim.run();
    let results = results.borrow().clone();
    assert_eq!(results.len(), ops.len(), "every operation completes");
    Observed {
        results,
        metrics: format!("{:?}", fs.metrics().borrow()),
        pay: meter_bits(&fs.pay_meter()),
        provisioned: meter_bits(&fs.simplified_meter()),
        audit: fs.audit(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn restarts_before_serving_are_invisible_to_clients(case_seed in 0u64..1 << 48) {
        let mut rng = SimRng::new(case_seed);
        let ops = random_ops(&mut rng, 32);
        let once = run(case_seed, &ops, 0);
        prop_assert!(once.audit.is_clean(), "audit: {}", once.audit);
        for restarts in [1, 3] {
            let restarted = run(case_seed, &ops, restarts);
            prop_assert_eq!(&restarted, &once, "{} restarts changed what clients saw", restarts);
        }
    }
}
