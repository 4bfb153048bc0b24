//! # lambda-faas
//!
//! A serverless-platform emulator — the reproduction's stand-in for the
//! Apache OpenWhisk deployment that hosts λFS's NameNodes (paper §4), with
//! the extensions the paper made to it (per-instance HTTP concurrency
//! control) and the behaviors its evaluation depends on:
//!
//! * **Deployments** of a user-supplied [`Function`] type, each with its own
//!   resource configuration and auto-scaling bounds;
//! * an **API gateway / invoker** path: HTTP invocations pay the gateway
//!   overhead, are routed to a warm instance with a free concurrency slot,
//!   or trigger a **cold start** when capacity allows (this is the
//!   platform-side half of λFS's agile auto-scaling policy, §3.4);
//! * **direct TCP delivery** to a specific warm instance — the fast path of
//!   λFS's hybrid RPC (§3.2) — which deliberately bypasses the gateway and
//!   therefore never triggers scale-out;
//! * **idle reclamation** (scale-in), **forceful kills** (fault injection,
//!   §5.6), a **cluster vCPU cap** (the evaluation's fairness control), and
//!   **pay-per-use + provisioned billing** (§5.2.5, Fig. 9).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod platform;

pub use platform::{
    DeploymentId, Function, FunctionConfig, InstanceCtx, InstanceId, Platform, PlatformConfig,
    PlatformStats, Responder,
};

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_sim::{Sim, SimDuration, SimTime, Station};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A trivial function: replies `req + 1` after `work` CPU time.
    struct Echo {
        work: SimDuration,
        started: Rc<RefCell<u32>>,
        terminated: Rc<RefCell<Vec<bool>>>,
    }

    impl Function for Echo {
        type Req = u64;
        type Resp = u64;

        fn on_start(&mut self, _sim: &mut Sim, _ctx: &InstanceCtx) {
            *self.started.borrow_mut() += 1;
        }

        fn on_request(
            &mut self,
            sim: &mut Sim,
            ctx: &InstanceCtx,
            req: u64,
            respond: Responder<u64>,
        ) {
            Station::submit(&ctx.cpu, sim, self.work, move |sim| respond.send(sim, req + 1));
        }

        fn on_terminate(&mut self, _sim: &mut Sim, _ctx: &InstanceCtx, graceful: bool) {
            self.terminated.borrow_mut().push(graceful);
        }
    }

    struct Harness {
        platform: Platform<Echo>,
        deployment: DeploymentId,
        started: Rc<RefCell<u32>>,
        terminated: Rc<RefCell<Vec<bool>>>,
    }

    fn echo_config(concurrency: u32, max_instances: u32, min_instances: u32) -> FunctionConfig {
        FunctionConfig { vcpus: 4, mem_gb: 6.0, concurrency, max_instances, min_instances }
    }

    /// An Echo factory whose instances count into `started` / `terminated`.
    fn echo(
        started: &Rc<RefCell<u32>>,
        terminated: &Rc<RefCell<Vec<bool>>>,
    ) -> Box<dyn Fn(&InstanceCtx) -> Echo> {
        let (started, terminated) = (Rc::clone(started), Rc::clone(terminated));
        Box::new(move |_ctx| Echo {
            work: SimDuration::from_millis(1),
            started: Rc::clone(&started),
            terminated: Rc::clone(&terminated),
        })
    }

    fn harness_with(cluster_vcpus: u32, config: FunctionConfig) -> Harness {
        let cfg = PlatformConfig { cluster_vcpus, ..PlatformConfig::default() };
        let platform = Platform::new(&cfg);
        let started = Rc::new(RefCell::new(0));
        let terminated = Rc::new(RefCell::new(Vec::new()));
        let deployment = platform.register_deployment("echo", config, echo(&started, &terminated));
        Harness { platform, deployment, started, terminated }
    }

    fn harness(cluster_vcpus: u32, concurrency: u32, max_instances: u32) -> Harness {
        harness_with(cluster_vcpus, echo_config(concurrency, max_instances, 0))
    }

    #[test]
    fn http_invocation_cold_starts_and_responds() {
        let mut sim = Sim::new(1);
        let h = harness(64, 4, u32::MAX);
        let got = Rc::new(RefCell::new(None));
        let out = Rc::clone(&got);
        h.platform.invoke_http(&mut sim, h.deployment, 41, Responder::new(move |sim, resp| {
            *out.borrow_mut() = Some((sim.now(), resp));
        }));
        sim.run();
        let (at, resp) = got.borrow().expect("response arrived");
        assert_eq!(resp, 42);
        // Gateway overhead + cold start + 1ms work: comfortably > 0.6s.
        assert!(at > SimTime::from_nanos(600_000_000), "responded at {at}");
        assert_eq!(*h.started.borrow(), 1);
        assert_eq!(h.platform.stats().cold_starts, 1);
        assert_eq!(h.platform.warm_instances(h.deployment).len(), 1);
    }

    #[test]
    fn warm_instances_are_reused_not_restarted() {
        let mut sim = Sim::new(2);
        let h = harness(64, 4, u32::MAX);
        let count = Rc::new(RefCell::new(0u32));
        for _ in 0..10 {
            let c = Rc::clone(&count);
            h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(move |_s, _r| {
                *c.borrow_mut() += 1;
            }));
            sim.run();
        }
        assert_eq!(*count.borrow(), 10);
        // Sequential requests fit in one instance's concurrency.
        assert_eq!(h.platform.stats().cold_starts, 1);
    }

    #[test]
    fn load_beyond_concurrency_scales_out() {
        let mut sim = Sim::new(3);
        let h = harness(64, 1, u32::MAX);
        let count = Rc::new(RefCell::new(0u32));
        // 8 concurrent requests, concurrency 1 -> up to 8 instances, but
        // capped by vCPUs: 64/4 = 16, so all 8 can start.
        for _ in 0..8 {
            let c = Rc::clone(&count);
            h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(move |_s, _r| {
                *c.borrow_mut() += 1;
            }));
        }
        sim.run();
        assert_eq!(*count.borrow(), 8);
        assert!(h.platform.stats().cold_starts >= 2, "no scale-out happened");
        assert!(h.platform.stats().cold_starts <= 8);
    }

    #[test]
    fn vcpu_cap_limits_scale_out_and_queues_requests() {
        let mut sim = Sim::new(4);
        // Cap allows exactly 2 instances of 4 vCPUs.
        let h = harness(8, 1, u32::MAX);
        let count = Rc::new(RefCell::new(0u32));
        for _ in 0..6 {
            let c = Rc::clone(&count);
            h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(move |_s, _r| {
                *c.borrow_mut() += 1;
            }));
        }
        sim.run();
        assert_eq!(*count.borrow(), 6, "queued requests must still complete");
        assert_eq!(h.platform.stats().cold_starts, 2);
        assert!(h.platform.peak_vcpus_used() <= 8);
    }

    #[test]
    fn max_instances_bounds_autoscaling() {
        let mut sim = Sim::new(5);
        let h = harness(64, 1, 1); // auto-scaling disabled: 1 instance
        for _ in 0..5 {
            h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(|_s, _r| {}));
        }
        sim.run();
        assert_eq!(h.platform.stats().cold_starts, 1);
    }

    #[test]
    fn idle_instances_are_reclaimed_gracefully() {
        let mut sim = Sim::new(6);
        let h = harness(64, 4, u32::MAX);
        h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(|_s, _r| {}));
        sim.run();
        assert_eq!(h.platform.warm_instances(h.deployment).len(), 1);
        // Default idle reclaim is 30s; run well past it.
        h.platform.run_maintenance(&mut sim);
        sim.run_until(SimTime::from_secs(120));
        assert!(h.platform.warm_instances(h.deployment).is_empty(), "instance not reclaimed");
        assert_eq!(*h.terminated.borrow(), vec![true]);
        assert_eq!(h.platform.stats().reclaims, 1);
    }

    #[test]
    fn tcp_delivery_bypasses_gateway_and_keeps_instances_warm() {
        let mut sim = Sim::new(7);
        let h = harness(64, 4, u32::MAX);
        h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(|_s, _r| {}));
        sim.run();
        let instance = h.platform.warm_instances(h.deployment)[0];
        let http_invocations = h.platform.stats().http_invocations;
        let got = Rc::new(RefCell::new(None));
        let out = Rc::clone(&got);
        let t0 = sim.now();
        assert!(h.platform.deliver_tcp(&mut sim, instance, 10, Responder::new(move |sim, resp| {
            *out.borrow_mut() = Some((sim.now(), resp));
        })));
        sim.run();
        let (at, resp) = got.borrow().expect("tcp response");
        assert_eq!(resp, 11);
        // No gateway overhead: just ~1ms of work.
        assert!(at.saturating_since(t0) < SimDuration::from_millis(5));
        assert_eq!(h.platform.stats().http_invocations, http_invocations);
    }

    #[test]
    fn killed_instances_drop_in_flight_responses() {
        let mut sim = Sim::new(8);
        let h = harness(64, 4, u32::MAX);
        h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(|_s, _r| {}));
        sim.run();
        let instance = h.platform.warm_instances(h.deployment)[0];
        let responded = Rc::new(RefCell::new(false));
        let out = Rc::clone(&responded);
        assert!(h.platform.deliver_tcp(&mut sim, instance, 5, Responder::new(move |_s, _r| {
            *out.borrow_mut() = true;
        })));
        // Kill before the 1ms of work completes.
        h.platform.kill_instance(&mut sim, instance);
        sim.run();
        assert!(!*responded.borrow(), "dead instance responded");
        // A crash is not graceful termination: no on_terminate callback.
        assert!(h.terminated.borrow().is_empty());
        assert_eq!(h.platform.stats().kills, 1);
        // Delivery to the dead instance is refused thereafter.
        assert!(!h.platform.deliver_tcp(&mut sim, instance, 6, Responder::new(|_s, _r| {})));
    }

    #[test]
    fn kill_during_cold_start_discards_the_starting_instance() {
        let mut sim = Sim::new(16);
        let h = harness(64, 4, u32::MAX);
        let responded = Rc::new(RefCell::new(false));
        let out = Rc::clone(&responded);
        h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(move |_s, _r| {
            *out.borrow_mut() = true;
        }));
        // Past the gateway overhead (the cold start has begun) but well
        // before the ~600ms cold start completes.
        sim.run_until(SimTime::from_nanos(100_000_000));
        let starting: Vec<_> =
            h.platform.instance_slots().into_iter().filter(|(_, _, _, _, warm)| !warm).collect();
        assert_eq!(starting.len(), 1, "one instance should be mid-cold-start");
        h.platform.kill_instance(&mut sim, starting[0].0);
        sim.run();
        // `finish_cold_start` found the slot gone: the factory never ran,
        // `on_start` never fired, and the request is still queued.
        assert_eq!(*h.started.borrow(), 0);
        assert_eq!(h.platform.stats().kills, 1);
        assert!(h.platform.warm_instances(h.deployment).is_empty());
        assert_eq!(h.platform.queued_requests(), 1);
        assert_eq!(h.platform.total_instances(), 0, "the starting instance must leave the table");
        assert!(!*responded.borrow());
        // The maintenance rescue pass restarts capacity and drains the
        // queued request — the platform-side half of timeout recovery.
        h.platform.run_maintenance(&mut sim);
        sim.run_until(SimTime::from_secs(10));
        h.platform.stop_maintenance();
        assert!(*responded.borrow(), "queued request never completed after the kill");
        assert_eq!(*h.started.borrow(), 1);
        assert_eq!(h.platform.queued_requests(), 0);
        assert_eq!(h.platform.total_instances(), 1, "one replacement instance");
        assert_eq!(h.platform.pending_invocations(), 0);
    }

    /// A function that kills its own instance from `on_start` — the
    /// narrowest window in the cold-start path.
    struct KillSelf {
        platform: Rc<RefCell<Option<Platform<KillSelf>>>>,
        started: Rc<RefCell<u32>>,
    }

    impl Function for KillSelf {
        type Req = u64;
        type Resp = u64;

        fn on_start(&mut self, sim: &mut Sim, ctx: &InstanceCtx) {
            *self.started.borrow_mut() += 1;
            let p = self.platform.borrow().clone().expect("platform installed");
            p.kill_instance(sim, ctx.instance);
        }

        fn on_request(
            &mut self,
            sim: &mut Sim,
            _ctx: &InstanceCtx,
            req: u64,
            respond: Responder<u64>,
        ) {
            respond.send(sim, req);
        }

        fn on_terminate(&mut self, _sim: &mut Sim, _ctx: &InstanceCtx, _graceful: bool) {
            unreachable!("killed instances never terminate gracefully");
        }
    }

    #[test]
    fn kill_during_on_start_drops_the_leftover_function() {
        let mut sim = Sim::new(17);
        let cfg = PlatformConfig { cluster_vcpus: 64, ..PlatformConfig::default() };
        let platform = Platform::new(&cfg);
        let handle: Rc<RefCell<Option<Platform<KillSelf>>>> = Rc::new(RefCell::new(None));
        let started = Rc::new(RefCell::new(0));
        let (h2, s2) = (Rc::clone(&handle), Rc::clone(&started));
        let deployment = platform.register_deployment(
            "suicidal",
            FunctionConfig { vcpus: 4, mem_gb: 6.0, concurrency: 4, max_instances: 1, min_instances: 0 },
            Box::new(move |_ctx| KillSelf { platform: Rc::clone(&h2), started: Rc::clone(&s2) }),
        );
        *handle.borrow_mut() = Some(platform.clone());
        let responded = Rc::new(RefCell::new(false));
        let out = Rc::clone(&responded);
        platform.invoke_http(&mut sim, deployment, 1, Responder::new(move |_s, _r| {
            *out.borrow_mut() = true;
        }));
        sim.run();
        // `on_start` ran, the kill landed inside it, and `finish_cold_start`
        // dropped the leftover function without installing it.
        assert_eq!(*started.borrow(), 1);
        assert_eq!(platform.stats().kills, 1);
        assert!(platform.warm_instances(deployment).is_empty());
        assert_eq!(platform.total_instances(), 0);
        assert_eq!(platform.pending_invocations(), 0);
        assert!(!*responded.borrow(), "request to a never-warm instance cannot complete");
        *handle.borrow_mut() = None; // break the Rc cycle
    }

    #[test]
    fn kill_mid_call_frees_parked_responders_and_recovers() {
        let mut sim = Sim::new(18);
        let h = harness(64, 4, u32::MAX);
        h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(|_s, _r| {}));
        sim.run();
        let instance = h.platform.warm_instances(h.deployment)[0];
        // Three in-flight TCP calls hold three dispatched responders.
        let responded = Rc::new(RefCell::new(0u32));
        for i in 0..3 {
            let out = Rc::clone(&responded);
            assert!(h.platform.deliver_tcp(&mut sim, instance, i, Responder::new(move |_s, _r| {
                *out.borrow_mut() += 1;
            })));
        }
        assert_eq!(h.platform.pending_invocations(), 3);
        h.platform.kill_instance(&mut sim, instance);
        assert_eq!(h.platform.total_instances(), 0);
        assert_eq!(h.platform.pending_invocations(), 3, "the CPU still holds the three calls");
        sim.run();
        assert_eq!(*responded.borrow(), 0, "dead instance must not respond");
        // Each in-flight responder hit the dead instance and was released
        // without calling back — none may leak.
        assert_eq!(h.platform.pending_invocations(), 0);
        assert_eq!(h.platform.stats().kills, 1);
        // The caller's timeout path retries over HTTP: the platform cold
        // starts a replacement and serves it.
        let recovered = Rc::new(RefCell::new(false));
        let out = Rc::clone(&recovered);
        h.platform.invoke_http(&mut sim, h.deployment, 9, Responder::new(move |_s, _r| {
            *out.borrow_mut() = true;
        }));
        sim.run();
        assert!(*recovered.borrow());
        assert_eq!(h.platform.total_instances(), 1, "one replacement instance");
        assert_eq!(h.platform.pending_invocations(), 0);
        assert_eq!(*h.started.borrow(), 2);
    }

    #[test]
    fn kill_warm_burst_respects_deployment_filter_and_count() {
        let mut sim = Sim::new(19);
        let (platform, deps) = multi_harness(64, 2);
        // Warm 3 instances on deployment 0 and 1 on deployment 1.
        for _ in 0..3 {
            platform.invoke_http(&mut sim, deps[0], 1, Responder::new(|_s, _r| {}));
        }
        platform.invoke_http(&mut sim, deps[1], 1, Responder::new(|_s, _r| {}));
        sim.run();
        assert_eq!(platform.warm_instances(deps[0]).len(), 3);
        assert_eq!(platform.warm_instances(deps[1]).len(), 1);
        // Burst of 2 pinned to deployment 0.
        assert_eq!(platform.kill_warm_burst(&mut sim, Some(deps[0]), 2), 2);
        assert_eq!(platform.warm_instances(deps[0]).len(), 1);
        assert_eq!(platform.warm_instances(deps[1]).len(), 1);
        // Unpinned burst larger than the fleet kills what's there.
        assert_eq!(platform.kill_warm_burst(&mut sim, None, 10), 2);
        assert_eq!(platform.warm_instances(deps[0]).len(), 0);
        assert_eq!(platform.warm_instances(deps[1]).len(), 0);
        assert_eq!(platform.stats().kills, 4);
    }

    #[test]
    fn cold_start_storm_stretches_cold_starts_inside_the_window() {
        // Same seed, same schedule; the storm run must cold-start strictly
        // later, and a run whose storm window never overlaps must be
        // identical to a storm-free run (the sample is drawn either way).
        let warm_at = |storm: Option<(u64, u64, f64)>| -> SimTime {
            let mut sim = Sim::new(33);
            let h = harness(64, 4, u32::MAX);
            if let Some((from, until, factor)) = storm {
                h.platform.cold_start_storm(
                    &mut sim,
                    SimTime::from_secs(from),
                    SimTime::from_secs(until),
                    factor,
                );
            }
            let done = Rc::new(RefCell::new(None));
            let out = Rc::clone(&done);
            h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(move |sim, _r| {
                *out.borrow_mut() = Some(sim.now());
            }));
            sim.run();
            let at = done.borrow().expect("request completed");
            at
        };
        let baseline = warm_at(None);
        let stormed = warm_at(Some((0, 30, 5.0)));
        let missed = warm_at(Some((100, 130, 5.0)));
        assert_eq!(missed, baseline, "a non-overlapping storm must not perturb the run");
        assert!(
            stormed > baseline,
            "storm did not stretch the cold start: {stormed} vs {baseline}"
        );
    }

    #[test]
    fn billing_pay_per_use_is_cheaper_than_provisioned() {
        let mut sim = Sim::new(9);
        let h = harness(64, 4, u32::MAX);
        h.platform.run_maintenance(&mut sim);
        h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(|_s, _r| {}));
        sim.run_until(SimTime::from_secs(20));
        let pay = h.platform.pay_meter().total();
        let prov = h.platform.prov_meter().total();
        assert!(pay > 0.0);
        assert!(prov > pay, "provisioned {prov} <= pay-per-use {pay}");
    }

    #[test]
    fn maintenance_restarted_before_its_next_tick_runs_once() {
        // Provisioned cost of one warm instance over 10 s of maintenance,
        // armed once or re-armed by start → stop → start in one instant:
        // the first arming's ticks must stop, not run beside the second's.
        let provisioned = |restart: bool| -> u64 {
            let mut sim = Sim::new(20);
            let h = harness(64, 4, u32::MAX);
            h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(|_s, _r| {}));
            sim.run();
            h.platform.run_maintenance(&mut sim);
            if restart {
                h.platform.stop_maintenance();
                h.platform.run_maintenance(&mut sim);
            }
            let until = sim.now() + SimDuration::from_secs(10);
            sim.run_until(until);
            h.platform.stop_maintenance();
            assert_eq!(h.platform.total_instances(), 1);
            h.platform.prov_meter().total().to_bits()
        };
        assert_ne!(provisioned(false), 0.0f64.to_bits());
        assert_eq!(provisioned(true), provisioned(false));
    }

    /// Forwards each request, responder included, to deployment `.1` over
    /// HTTP, or answers `req + 1` when there is none.
    struct Relay(Rc<RefCell<Option<Platform<Relay>>>>, Option<DeploymentId>);

    impl Function for Relay {
        type Req = u64;
        type Resp = u64;

        fn on_start(&mut self, _sim: &mut Sim, _ctx: &InstanceCtx) {}

        fn on_request(&mut self, sim: &mut Sim, _: &InstanceCtx, req: u64, reply: Responder<u64>) {
            match (self.0.borrow().clone(), self.1) {
                (Some(platform), Some(next)) => platform.invoke_http(sim, next, req + 1, reply),
                _ => reply.send(sim, req + 1),
            }
        }

        fn on_terminate(&mut self, _sim: &mut Sim, _ctx: &InstanceCtx, _graceful: bool) {}
    }

    #[test]
    fn forwarded_responder_releases_both_slots() {
        let mut sim = Sim::new(21);
        let platform = Platform::new(&PlatformConfig::default());
        let handle = Rc::new(RefCell::new(None));
        let config = FunctionConfig { concurrency: 1, ..FunctionConfig::default() };
        let relay = |next| {
            let handle = Rc::clone(&handle);
            Box::new(move |_: &InstanceCtx| Relay(Rc::clone(&handle), next))
        };
        let back = platform.register_deployment("back", config.clone(), relay(None));
        let front = platform.register_deployment("front", config, relay(Some(back)));
        *handle.borrow_mut() = Some(platform.clone());
        let got = Rc::new(RefCell::new(Vec::new()));
        for req in [10, 20] {
            let out = Rc::clone(&got);
            platform.invoke_http(&mut sim, front, req, Responder::new(move |_s, resp| {
                out.borrow_mut().push(resp);
            }));
            sim.run();
        }
        // Both hops answered, and the second request found each
        // deployment's one instance free again (concurrency 1): both slots
        // were released. No dispatched responder is left.
        assert_eq!(*got.borrow(), vec![12, 22]);
        assert_eq!(platform.stats().cold_starts, 2);
        assert_eq!(platform.pending_invocations(), 0);
        *handle.borrow_mut() = None; // break the Rc cycle
    }

    #[test]
    fn min_instances_floor_survives_reclamation() {
        let mut sim = Sim::new(11);
        let Harness { platform, deployment, .. } = harness_with(64, echo_config(1, u32::MAX, 2));
        platform.run_maintenance(&mut sim);
        // Scale out to 4 instances with a burst of concurrent requests.
        for _ in 0..4 {
            platform.invoke_http(&mut sim, deployment, 1, Responder::new(|_s, _r| {}));
        }
        sim.run_until(SimTime::from_secs(5));
        assert!(platform.warm_instances(deployment).len() >= 3);
        // Long idle: reclamation shrinks to the floor, not to zero.
        sim.run_until(SimTime::from_secs(180));
        assert_eq!(
            platform.warm_instances(deployment).len(),
            2,
            "idle reclamation must respect min_instances"
        );
    }

    /// Registers `n` Echo deployments on one platform.
    fn multi_harness(cluster_vcpus: u32, n: usize) -> (Platform<Echo>, Vec<DeploymentId>) {
        let h = harness_with(cluster_vcpus, echo_config(1, u32::MAX, 0));
        let mut deployments = vec![h.deployment];
        for i in 1..n {
            let factory = echo(&h.started, &h.terminated);
            deployments.push(h.platform.register_deployment(
                format!("echo{i}"),
                echo_config(1, u32::MAX, 0),
                factory,
            ));
        }
        (h.platform, deployments)
    }

    #[test]
    fn starved_deployment_evicts_an_idle_instance_under_pressure() {
        let mut sim = Sim::new(12);
        // Room for exactly one 4-vCPU instance; two deployments.
        let (platform, deps) = multi_harness(4, 2);
        let count = Rc::new(RefCell::new(0u32));
        let c = Rc::clone(&count);
        platform.invoke_http(&mut sim, deps[0], 1, Responder::new(move |_s, _r| {
            *c.borrow_mut() += 1;
        }));
        sim.run();
        assert_eq!(platform.warm_instances(deps[0]).len(), 1);
        // Let the instance age past the eviction grace, then hit the
        // other deployment: it must evict deployment 0's idle instance
        // rather than queue until the request TTL.
        sim.run_until(sim.now() + SimDuration::from_secs(5));
        let c = Rc::clone(&count);
        let t0 = sim.now();
        platform.invoke_http(&mut sim, deps[1], 2, Responder::new(move |_s, _r| {
            *c.borrow_mut() += 1;
        }));
        sim.run();
        assert_eq!(*count.borrow(), 2, "second deployment's request must complete");
        assert_eq!(platform.stats().evictions, 1);
        assert!(platform.warm_instances(deps[0]).is_empty());
        assert_eq!(platform.warm_instances(deps[1]).len(), 1);
        // Served after one eviction + cold start, not after a TTL expiry.
        assert!(sim.now().saturating_since(t0) < SimDuration::from_secs(5));
        assert!(platform.peak_vcpus_used() <= 4);
    }

    #[test]
    fn eviction_grace_prevents_slot_ping_pong() {
        let mut sim = Sim::new(13);
        let (platform, deps) = multi_harness(4, 2);
        // Warm deployment 0 and age it past the grace.
        platform.invoke_http(&mut sim, deps[0], 1, Responder::new(|_s, _r| {}));
        sim.run();
        sim.run_until(sim.now() + SimDuration::from_secs(5));
        // Deployment 1 takes the slot by eviction; deployment 0's
        // immediate retaliation finds only a too-young instance and must
        // wait instead of evicting right back.
        platform.invoke_http(&mut sim, deps[1], 2, Responder::new(|_s, _r| {}));
        sim.run();
        assert_eq!(platform.stats().evictions, 1);
        platform.invoke_http(&mut sim, deps[0], 3, Responder::new(|_s, _r| {}));
        let before = sim.now();
        sim.run_until(before + SimDuration::from_millis(500));
        assert_eq!(
            platform.stats().evictions,
            1,
            "young instance must be protected by the grace period"
        );
    }

    #[test]
    fn eviction_is_reserved_for_instanceless_deployments() {
        let mut sim = Sim::new(14);
        let (platform, deps) = multi_harness(8, 2);
        // Both deployments own one instance each: the cluster is full.
        for (i, &d) in deps.iter().enumerate() {
            platform.invoke_http(&mut sim, d, i as u64, Responder::new(|_s, _r| {}));
            sim.run();
        }
        sim.run_until(sim.now() + SimDuration::from_secs(5));
        // Concurrent burst on deployment 0 wants a second instance, but a
        // deployment that already has one never evicts others.
        for _ in 0..6 {
            platform.invoke_http(&mut sim, deps[0], 9, Responder::new(|_s, _r| {}));
        }
        sim.run();
        assert_eq!(platform.stats().evictions, 0);
        assert_eq!(platform.warm_instances(deps[1]).len(), 1);
    }

    /// Randomized starvation-freedom: five deployments time-share a
    /// cluster with room for only two instances. Every invocation — at
    /// pseudo-random arrival times spread far enough apart for eviction
    /// grace to elapse — must complete; none may expire at its TTL. The
    /// maintenance rescue pass covers arrivals whose eviction attempt
    /// found only grace-protected victims.
    #[test]
    fn no_deployment_starves_on_a_tiny_cluster() {
        let mut sim = Sim::new(15);
        let (platform, deps) = multi_harness(8, 5);
        platform.run_maintenance(&mut sim);
        let completed = Rc::new(RefCell::new(0u32));
        // A fixed pseudo-random schedule (splitmix-style constants) of 30
        // invocations over ~150 s across the five deployments.
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut at = SimTime::ZERO;
        let mut sent = 0;
        for _ in 0..30 {
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            let dep = deps[(x % 5) as usize];
            at += SimDuration::from_millis(2_000 + (x >> 32) % 8_000);
            let c = Rc::clone(&completed);
            let p2 = platform.clone();
            sim.schedule_at(at, move |sim| {
                p2.invoke_http(sim, dep, 1, Responder::new(move |_s, _r| {
                    *c.borrow_mut() += 1;
                }));
            });
            sent += 1;
        }
        sim.run_until(at + SimDuration::from_secs(60));
        platform.stop_maintenance();
        assert_eq!(*completed.borrow(), sent, "an invocation starved");
        assert_eq!(platform.stats().expired_requests, 0);
        assert!(platform.stats().evictions > 0, "time-sharing never happened");
        assert!(platform.peak_vcpus_used() <= 8);
    }

    #[test]
    fn instance_gauge_tracks_scale_out_and_in() {
        let mut sim = Sim::new(10);
        let h = harness(64, 1, u32::MAX);
        h.platform.run_maintenance(&mut sim);
        for _ in 0..4 {
            h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(|_s, _r| {}));
        }
        sim.run_until(SimTime::from_secs(120));
        let gauge = h.platform.instance_gauge();
        assert!(gauge.peak() >= 2.0);
        // After reclamation the gauge returns to zero.
        assert_eq!(gauge.points().last().map(|(_, v)| *v), Some(0.0));
    }

    #[test]
    fn a_torn_down_platform_ends_its_instances_and_refuses_work() {
        let mut sim = Sim::new(11);
        let h = harness(64, 1, u32::MAX);
        h.platform.run_maintenance(&mut sim);
        let replies = Rc::new(RefCell::new(0));
        for _ in 0..3 {
            let replies = Rc::clone(&replies);
            h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(move |_s, _r| {
                *replies.borrow_mut() += 1;
            }));
        }
        sim.run_until(SimTime::from_secs(5));
        let instance = h.platform.warm_instances(h.deployment)[0];
        assert!(h.platform.total_instances() > 0);
        // One request still on its way to the gateway when the platform goes.
        h.platform.invoke_http(&mut sim, h.deployment, 1, Responder::new(|_s, _r| {}));
        h.platform.tear_down();
        assert_eq!(h.platform.total_instances(), 0);
        assert!(h.platform.warm_instances(h.deployment).is_empty());
        assert!(!h.platform.deliver_tcp(&mut sim, instance, 1, Responder::new(|_s, _r| {})));
        sim.run();
        assert_eq!(*replies.borrow(), 3);
        assert_eq!(h.platform.queued_requests(), 0);
        assert_eq!(h.platform.pending_invocations(), 0);
        assert!(h.terminated.borrow().is_empty(), "teardown runs no on_terminate");
        assert_eq!(h.platform.stats().reclaims, 0, "maintenance stopped with the platform");
    }
}
