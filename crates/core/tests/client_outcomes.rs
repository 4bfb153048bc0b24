//! The client library's two ways to give up on an operation (§3.2), each
//! with the counters it moves: a timeout when every try dies on the wire,
//! and `RetriesExhausted` when the service keeps answering "try again".
//! Then when a lost try is resent: a read at its straggler deadline
//! (Appendix B), a write only at the full client timeout.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_fs::{LambdaFs, LambdaFsConfig, RunMetrics};
use lambda_namespace::{DfsPath, FsError, FsOp, OpOutcome, OpResult, SubtreeLockRow};
use lambda_sim::fault::{FaultPlan, FaultWindow, NetFault, NetFaultKind};
use lambda_sim::params::NetParams;
use lambda_sim::{Dist, Sim, SimDuration};

/// Every client↔NameNode message is lost for the whole run (one client
/// VM, endpoint 0; one deployment, endpoint 1000).
const STANDING_PARTITION: &str = "part@0s-1000s:a=0,b=1000";
/// Tries past the first before the library gives up.
const MAX_RETRIES: u64 = 6;

fn p(s: &str) -> DfsPath {
    s.parse().unwrap()
}

/// One deployment, one client VM, one client.
fn system(sim: &mut Sim, net: NetParams) -> LambdaFs {
    let config =
        LambdaFsConfig { deployments: 1, clients: 1, client_vms: 1, net, ..Default::default() };
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
    let fs = system(&mut sim, NetParams::default());
    fs.start(&mut sim);
    fs.install_fault_plan(&mut sim, &FaultPlan::parse(STANDING_PARTITION).unwrap());
    let (results, m) = run(&mut sim, &fs, vec![FsOp::Stat(p("/"))], 100);
    assert_eq!(results, vec![Err(FsError::Timeout)]);
    // The first try and every retry were dropped; the try past the limit
    // is counted, then given up.
    assert_eq!(m.retries, MAX_RETRIES + 1);
    assert_eq!(fs.client_lib().fault_stats(), (MAX_RETRIES + 1, 0, 0));
    assert_eq!((m.timeouts, m.retries_exhausted), (1, 0));
    assert_eq!(m.accounted(), m.issued);
}

#[test]
fn a_service_that_keeps_saying_try_again_ends_in_retries_exhausted() {
    let mut sim = Sim::new(4);
    let fs = system(&mut sim, NetParams::default());
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
    assert_eq!(m.retries, MAX_RETRIES + 1);
    assert_eq!((m.timeouts, m.retries_exhausted), (0, 1));
    assert_eq!(m.accounted(), m.issued);
}

/// A lost try of `op` from a client with read history. Client 0 warms the
/// one deployment with a mkdir (writes do not feed the moving average),
/// finishes eight stats of `/` one after another, then submits `op` while
/// every reply to its VM is dropped for `lost`. Returns the moving average
/// of client 0's read latencies (in seconds, summed oldest first as the
/// library sums them), how long after submission the first resubmission
/// came, `op`'s result and the counters.
fn resubmission_of_a_lost_try(
    net: NetParams,
    op: FsOp,
    lost: SimDuration,
) -> (f64, SimDuration, OpResult, RunMetrics) {
    let mut sim = Sim::new(11);
    let fs = system(&mut sim, net);
    fs.start(&mut sim);
    let (results, _) = run(&mut sim, &fs, vec![FsOp::Mkdir(p("/warm"))], 10);
    assert!(results[0].is_ok(), "{results:?}");

    let latencies = Rc::new(RefCell::new(Vec::new()));
    for _ in 0..8 {
        let (start, out) = (sim.now(), Rc::clone(&latencies));
        let done = move |sim: &mut Sim, r: OpResult| {
            assert!(r.is_ok(), "{r:?}");
            out.borrow_mut().push(sim.now().saturating_since(start).as_secs_f64());
        };
        fs.submit(&mut sim, 0, FsOp::Stat(p("/")), Box::new(done));
        sim.run_for(SimDuration::from_secs(1));
    }
    let latencies = latencies.borrow();
    assert_eq!(latencies.len(), 8);
    let avg = latencies.iter().fold(0.0, |sum, l| sum + l) / latencies.len() as f64;

    let now = sim.now();
    let drop_replies_to_vm0 = NetFault {
        kind: NetFaultKind::Drop,
        prob: 1.0,
        window: FaultWindow::new(now, now + lost),
        src: None,
        dst: Some(0),
    };
    let plan = FaultPlan { net: vec![drop_replies_to_vm0], ..Default::default() };
    fs.install_fault_plan(&mut sim, &plan);
    let retries_before = fs.metrics().borrow().retries;
    let slot: Rc<RefCell<Option<OpResult>>> = Rc::new(RefCell::new(None));
    let out = Rc::clone(&slot);
    fs.submit(&mut sim, 0, op, Box::new(move |_, r| *out.borrow_mut() = Some(r)));
    while fs.metrics().borrow().retries == retries_before {
        assert!(slot.borrow().is_none(), "the reply was not lost");
        assert!(sim.step(), "drained before the resubmission");
    }
    let resent_after = sim.now().saturating_since(now);
    sim.run_for(SimDuration::from_secs(20));
    let result = slot.borrow_mut().take().expect("the operation never completed");
    let m = fs.metrics().borrow().clone();
    fs.stop(&mut sim);
    (avg, resent_after, result, m)
}

#[test]
fn a_lost_read_is_resent_at_its_straggler_deadline() {
    let timeout = LambdaFsConfig::default().client_timeout;
    // TCP reads of 1-2 ms put ten times the average below the 50 ms floor;
    // 5 ms hops put it above.
    let slow = NetParams { tcp_one_way: Dist::uniform_ms(5.0, 6.0), ..NetParams::default() };
    for (net, floor_binds) in [(NetParams::default(), true), (slow, false)] {
        let lost = SimDuration::from_millis(40);
        let (avg, resent_after, result, m) =
            resubmission_of_a_lost_try(net, FsOp::Stat(p("/")), lost);
        let deadline = SimDuration::from_secs_f64(avg * 10.0);
        let floor = SimDuration::from_millis(50);
        assert_eq!(deadline < floor, floor_binds, "average {avg}");
        assert_eq!(resent_after, deadline.max(floor));
        assert!(resent_after * 10 < timeout);
        assert_eq!((m.retries, m.straggler_resubmits), (1, 1));
        assert!(matches!(result, Ok(OpOutcome::Meta(_))), "{result:?}");
    }
}

#[test]
fn a_lost_write_waits_the_full_client_timeout() {
    let timeout = LambdaFsConfig::default().client_timeout;
    let lost = SimDuration::from_secs(1);
    let (_, resent_after, result, m) =
        resubmission_of_a_lost_try(NetParams::default(), FsOp::CreateFile(p("/warm/f")), lost);
    assert_eq!(resent_after, timeout);
    assert_eq!((m.retries, m.straggler_resubmits), (1, 0));
    // The resubmitted copy is answered from the NameNode's result cache.
    assert!(matches!(result, Ok(OpOutcome::Created(_))), "{result:?}");
}
