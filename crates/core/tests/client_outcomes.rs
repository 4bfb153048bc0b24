//! The client library's three ways to give up on an operation (§3.2), each
//! with the counters it moves: a timeout when every try dies on the wire,
//! `RetriesExhausted` when the service keeps answering "try again", and a
//! load shed when the retry budget's circuit breaker is open.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_fs::{LambdaFs, LambdaFsConfig, RunMetrics};
use lambda_namespace::{DfsPath, FsError, FsOp, OpResult, SubtreeLockRow};
use lambda_sim::fault::FaultPlan;
use lambda_sim::{Sim, SimDuration};

/// Every client↔NameNode message is lost for the whole run (one client
/// VM, endpoint 0; one deployment, endpoint 1000).
const STANDING_PARTITION: &str = "part@0s-1000s:a=0,b=1000";

fn p(s: &str) -> DfsPath {
    s.parse().unwrap()
}

/// One deployment, one client VM, `clients` clients.
fn system(sim: &mut Sim, clients: u32) -> LambdaFs {
    let config = LambdaFsConfig { deployments: 1, clients, client_vms: 1, ..Default::default() };
    LambdaFs::build(sim, config)
}

/// Submits every op on client 0 at once, runs `secs` of simulated time and
/// returns the results in completion order with the run's counters.
fn run(sim: &mut Sim, fs: &LambdaFs, ops: Vec<FsOp>, secs: u64) -> (Vec<OpResult>, RunMetrics) {
    let results = Rc::new(RefCell::new(Vec::new()));
    for op in ops {
        let out = Rc::clone(&results);
        fs.submit(sim, 0, op, Box::new(move |_sim, r| out.borrow_mut().push(r)));
    }
    sim.run_for(SimDuration::from_secs(secs));
    let results = results.borrow().clone();
    (results, fs.metrics().borrow().clone())
}

#[test]
fn every_try_lost_on_the_wire_ends_in_a_timeout() {
    let mut sim = Sim::new(3);
    let fs = system(&mut sim, 1);
    fs.start(&mut sim);
    fs.install_fault_plan(&mut sim, &FaultPlan::parse(STANDING_PARTITION).unwrap());
    let (results, m) = run(&mut sim, &fs, vec![FsOp::Stat(p("/"))], 100);
    assert_eq!(results, vec![Err(FsError::Timeout)]);
    let max_retries = u64::from(fs.config().max_retries);
    // The first try and every retry were dropped; the try past the limit
    // is counted, then given up.
    assert_eq!(m.retries, max_retries + 1);
    assert_eq!(fs.client_lib().fault_stats(), (max_retries + 1, 0, 0));
    assert_eq!((m.timeouts, m.retries_exhausted, m.load_sheds), (1, 0, 0));
    assert_eq!(m.accounted(), m.issued);
}

#[test]
fn a_service_that_keeps_saying_try_again_ends_in_retries_exhausted() {
    let mut sim = Sim::new(4);
    let fs = system(&mut sim, 1);
    // A subtree operation's flag on /d refuses every write inside it. Its
    // holder is no live NameNode, but the maintenance sweep that would
    // reclaim it first runs 20 s after a NameNode starts, long after the
    // client has given up.
    let d = fs.schema().bootstrap_mkdir(fs.db(), &p("/d"));
    let flag = SubtreeLockRow { holder: 0, acquired_nanos: 0, path: p("/d").as_str(), op: "mv" };
    fs.db().bootstrap_insert(fs.schema().subtree_locks, d, flag);
    fs.start(&mut sim);
    let (results, m) = run(&mut sim, &fs, vec![FsOp::CreateFile(p("/d/x"))], 10);
    assert_eq!(results, vec![Err(FsError::RetriesExhausted)]);
    assert_eq!(m.retries, u64::from(fs.config().max_retries) + 1);
    assert_eq!((m.timeouts, m.retries_exhausted, m.load_sheds), (0, 1, 0));
    assert_eq!(m.accounted(), m.issued);
}

#[test]
fn an_empty_retry_budget_sheds_instead_of_resending() {
    let mut sim = Sim::new(5);
    let fs = system(&mut sim, 1);
    fs.start(&mut sim);
    fs.install_fault_plan(&mut sim, &FaultPlan::parse(STANDING_PARTITION).unwrap());
    // More lost requests than the budget holds tokens, all timing out at
    // the same instant: the breaker opens on the first retry round.
    let ops = (0..60).map(|_| FsOp::Stat(p("/"))).collect();
    let (results, m) = run(&mut sim, &fs, ops, 200);
    assert_eq!(results.len(), 60, "every operation reached a terminal state");
    assert!(m.load_sheds > 0, "the breaker never opened");
    // Nothing ever answered, so every RetriesExhausted is a shed.
    assert_eq!(m.retries_exhausted, m.load_sheds);
    assert_eq!(m.timeouts + m.retries_exhausted, 60);
    let shed = results.iter().filter(|r| **r == Err(FsError::RetriesExhausted)).count();
    assert_eq!(shed as u64, m.load_sheds);
    assert_eq!(m.accounted(), m.issued);
}
