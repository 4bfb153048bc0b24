//! The pre-overhaul platform, retained verbatim for differential testing
//! and nothing else: a `BTreeMap` instance table, full-table scans for
//! routing/reclamation/billing, a boxed wrapper closure per dispatched
//! request, and per-invocation config clones. Behavior is the contract:
//! `tests/platform_differential.rs` drives this and [`crate::Platform`]
//! with identical schedules and requires identical observables. Nothing
//! outside tests should use this module (`scripts/verify.sh` fails if any
//! other `.rs` file names it).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use lambda_sim::{CostMeter, GaugeSeries, Sim, SimDuration, SimTime, Station};

use crate::platform::{
    DeploymentId, Function, FunctionConfig, InstanceCtx, InstanceId, PlatformConfig,
    PlatformStats, Responder,
};

struct Queued<F: Function> {
    req: F::Req,
    respond: Responder<F::Resp>,
    enqueued: SimTime,
}

struct DeploymentState<F: Function> {
    name: String,
    config: FunctionConfig,
    factory: Box<dyn Fn(&InstanceCtx) -> F>,
    /// Starting + warm instances, in creation order.
    instances: Vec<InstanceId>,
    queue: VecDeque<Queued<F>>,
}

struct InstanceState<F: Function> {
    ctx: InstanceCtx,
    /// `None` while cold-starting or while a call into the function is on
    /// the stack (taken out to allow re-entrancy).
    function: Option<F>,
    warm: bool,
    active_http: u32,
    active_total: u32,
    active_since: Option<SimTime>,
    last_activity: SimTime,
    /// When the cold start began; protects young instances from
    /// capacity-pressure eviction.
    created: SimTime,
}

struct Inner<F: Function> {
    cfg: PlatformConfig,
    deployments: Vec<DeploymentState<F>>,
    instances: BTreeMap<InstanceId, InstanceState<F>>,
    next_instance: u64,
    used_vcpus: u32,
    peak_vcpus: u32,
    pay_meter: CostMeter,
    prov_meter: CostMeter,
    gauge: GaugeSeries,
    stats: PlatformStats,
    maintenance_running: bool,
    maintenance_stopped: bool,
}

/// A shared handle to the serverless platform hosting instances of `F`.
///
/// See the crate-level docs for the role this plays in the reproduced
/// system and the crate tests for end-to-end usage.
pub struct Platform<F: Function> {
    inner: Rc<RefCell<Inner<F>>>,
}

impl<F: Function> Clone for Platform<F> {
    fn clone(&self) -> Self {
        Platform { inner: Rc::clone(&self.inner) }
    }
}

impl<F: Function> fmt::Debug for Platform<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Platform")
            .field("deployments", &inner.deployments.len())
            .field("instances", &inner.instances.len())
            .field("used_vcpus", &inner.used_vcpus)
            .finish()
    }
}

impl<F: Function> Platform<F> {
    /// Creates a platform with no deployments.
    #[must_use]
    pub fn new(cfg: &PlatformConfig) -> Self {
        Platform {
            inner: Rc::new(RefCell::new(Inner {
                cfg: cfg.clone(),
                deployments: Vec::new(),
                instances: BTreeMap::new(),
                next_instance: 0,
                used_vcpus: 0,
                peak_vcpus: 0,
                pay_meter: CostMeter::new(),
                prov_meter: CostMeter::new(),
                gauge: GaugeSeries::new(),
                stats: PlatformStats::default(),
                maintenance_running: false,
                maintenance_stopped: false,
            })),
        }
    }

    /// Registers a uniquely named function deployment; `factory` builds
    /// the function body for each new instance.
    pub fn register_deployment(
        &self,
        name: impl Into<String>,
        config: FunctionConfig,
        factory: Box<dyn Fn(&InstanceCtx) -> F>,
    ) -> DeploymentId {
        let mut inner = self.inner.borrow_mut();
        let id = DeploymentId::from_raw(inner.deployments.len() as u32);
        inner.deployments.push(DeploymentState {
            name: name.into(),
            config,
            factory,
            instances: Vec::new(),
            queue: VecDeque::new(),
        });
        id
    }

    /// The name a deployment was registered under.
    #[must_use]
    pub fn deployment_name(&self, deployment: DeploymentId) -> String {
        self.inner.borrow().deployments[deployment.raw() as usize].name.clone()
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> PlatformStats {
        self.inner.borrow().stats
    }

    /// Highest vCPU allocation observed.
    #[must_use]
    pub fn peak_vcpus_used(&self) -> u32 {
        self.inner.borrow().peak_vcpus
    }

    /// vCPUs currently allocated.
    #[must_use]
    pub fn vcpus_used(&self) -> u32 {
        self.inner.borrow().used_vcpus
    }

    /// Total pay-per-use (AWS-Lambda-model) cost so far.
    #[must_use]
    pub fn pay_per_use_cost(&self) -> f64 {
        self.inner.borrow().pay_meter.total()
    }

    /// Total cost under the "simplified" model (instances billed while
    /// provisioned; Fig. 9's `λFS (Simplified)` curve). Only accumulates
    /// while maintenance is running (it is sampled by the billing tick).
    #[must_use]
    pub fn provisioned_cost(&self) -> f64 {
        self.inner.borrow().prov_meter.total()
    }

    /// Snapshot of the pay-per-use cost meter (per-second series).
    #[must_use]
    pub fn pay_meter(&self) -> CostMeter {
        self.inner.borrow().pay_meter.clone()
    }

    /// Snapshot of the provisioned-cost meter.
    #[must_use]
    pub fn prov_meter(&self) -> CostMeter {
        self.inner.borrow().prov_meter.clone()
    }

    /// Time series of provisioned (starting + warm) instance counts.
    #[must_use]
    pub fn instance_gauge(&self) -> GaugeSeries {
        self.inner.borrow().gauge.clone()
    }

    /// Warm instances of `deployment`, in creation order.
    #[must_use]
    pub fn warm_instances(&self, deployment: DeploymentId) -> Vec<InstanceId> {
        let inner = self.inner.borrow();
        inner.deployments[deployment.raw() as usize]
            .instances
            .iter()
            .copied()
            .filter(|id| inner.instances.get(id).is_some_and(|i| i.warm))
            .collect()
    }

    /// Total provisioned instances (starting + warm) across deployments.
    #[must_use]
    pub fn total_instances(&self) -> usize {
        self.inner.borrow().instances.len()
    }

    /// Per-instance request-slot occupancy (diagnostics): `(instance,
    /// deployment, active_http, active_total, warm)`.
    #[must_use]
    pub fn instance_slots(&self) -> Vec<(InstanceId, DeploymentId, u32, u32, bool)> {
        let inner = self.inner.borrow();
        inner
            .instances
            .iter()
            .map(|(id, st)| (*id, st.ctx.deployment, st.active_http, st.active_total, st.warm))
            .collect()
    }

    /// HTTP load (active requests + queue depth) of a deployment.
    #[must_use]
    pub fn deployment_load(&self, deployment: DeploymentId) -> usize {
        let inner = self.inner.borrow();
        let dep = &inner.deployments[deployment.raw() as usize];
        let active: u32 = dep
            .instances
            .iter()
            .filter_map(|id| inner.instances.get(id))
            .map(|i| i.active_http)
            .sum();
        active as usize + dep.queue.len()
    }

    /// Starts the periodic reclamation + billing ticks. Idempotent. The
    /// ticks run until [`Platform::stop_maintenance`]; drive the simulation
    /// with `run_until`/`run_for` while they are armed.
    pub fn run_maintenance(&self, sim: &mut Sim) {
        {
            let mut inner = self.inner.borrow_mut();
            if inner.maintenance_running {
                return;
            }
            inner.maintenance_running = true;
            inner.maintenance_stopped = false;
        }
        let scan = self.inner.borrow().cfg.faas.reclaim_scan_every;
        let this = self.clone();
        lambda_sim::every(sim, sim.now() + scan, scan, move |sim| {
            if this.inner.borrow().maintenance_stopped {
                return false;
            }
            this.reclaim_idle(sim);
            true
        });
        let this = self.clone();
        let tick = SimDuration::from_secs(1);
        lambda_sim::every(sim, sim.now() + tick, tick, move |sim| {
            if this.inner.borrow().maintenance_stopped {
                return false;
            }
            this.billing_tick(sim, tick);
            // Rescue pass: a deployment whose queued work could not scale
            // out earlier (e.g. every eviction victim was inside its
            // grace period) gets another chance as victims age.
            let deployments = this.inner.borrow().deployments.len();
            for d in 0..deployments {
                let id = DeploymentId::from_raw(d as u32);
                if this.inner.borrow().deployments[d].queue.is_empty() {
                    continue;
                }
                this.drain_queue(sim, id);
                this.maybe_scale_out(sim, id);
            }
            true
        });
    }

    /// Stops the maintenance ticks at their next firing.
    pub fn stop_maintenance(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.maintenance_running = false;
        inner.maintenance_stopped = true;
    }

    /// Submits an HTTP invocation through the API gateway. This is the
    /// path that can trigger auto-scaling.
    pub fn invoke_http(
        &self,
        sim: &mut Sim,
        deployment: DeploymentId,
        req: F::Req,
        respond: Responder<F::Resp>,
    ) {
        let (overhead, pricing) = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.http_invocations += 1;
            (inner.cfg.net.http_overhead, inner.cfg.pricing)
        };
        let now = sim.now();
        self.inner.borrow_mut().pay_meter.charge_lambda_request(now, &pricing);
        let delay = sim.rng().sample_duration(&overhead);
        let this = self.clone();
        sim.schedule(delay, move |sim| this.route_http(sim, deployment, req, respond));
    }

    fn route_http(
        &self,
        sim: &mut Sim,
        deployment: DeploymentId,
        req: F::Req,
        respond: Responder<F::Resp>,
    ) {
        // Always enqueue, then drain: arrivals must not overtake requests
        // already waiting (FIFO fairness — and a bypassed queue would only
        // drain on the next HTTP completion, which may never come on a
        // TCP-dominated deployment).
        {
            let mut inner = self.inner.borrow_mut();
            let enqueued = sim.now();
            inner.deployments[deployment.raw() as usize]
                .queue
                .push_back(Queued { req, respond, enqueued });
        }
        self.drain_queue(sim, deployment);
        self.maybe_scale_out(sim, deployment);
    }

    /// If the queue still has waiters after draining, every warm slot
    /// is busy: scale out when capacity allows — but governed: never
    /// start more instances than the backlog justifies, counting the
    /// concurrency the instances already cold-starting will add. An
    /// ungoverned invoker spawns one container per queued request and
    /// can exhaust the cluster cap before every deployment has its
    /// first instance.
    fn maybe_scale_out(&self, sim: &mut Sim, deployment: DeploymentId) {
        let (wants_cold, has_capacity, starving) = {
            let inner = self.inner.borrow();
            let dep = &inner.deployments[deployment.raw() as usize];
            let queue_len = dep.queue.len() as u32;
            if queue_len == 0 {
                (false, false, false)
            } else {
                let starting = dep
                    .instances
                    .iter()
                    .filter(|id| inner.instances.get(id).is_some_and(|st| !st.warm))
                    .count() as u32;
                let dep_count = dep.instances.len() as u32;
                let wants = dep_count < dep.config.max_instances
                    && queue_len > starting * dep.config.concurrency.max(1);
                let capacity =
                    inner.used_vcpus + dep.config.vcpus <= inner.cfg.cluster_vcpus;
                (wants, capacity, dep_count == 0)
            }
        };
        if wants_cold && has_capacity {
            self.begin_cold_start(sim, deployment);
        } else if wants_cold && starving && self.evict_for(sim, deployment) {
            // Room was freed by terminating another deployment's warm
            // instance; re-check the cap (instance sizes may differ).
            let fits = {
                let inner = self.inner.borrow();
                let dep = &inner.deployments[deployment.raw() as usize];
                inner.used_vcpus + dep.config.vcpus <= inner.cfg.cluster_vcpus
            };
            if fits {
                self.begin_cold_start(sim, deployment);
            }
        }
    }

    /// Capacity-pressure eviction (OpenWhisk-style): `deployment` has
    /// queued work and no instance at all, but the cluster is at its vCPU
    /// cap. Terminate the least-recently-active warm instance of another
    /// deployment — preferring deployments that hold several instances —
    /// so no deployment starves forever on a cluster smaller than the
    /// deployment count. Instances younger than a grace period are
    /// protected, which bounds the churn rate when many starved
    /// deployments must time-share too few slots: each slot changes hands
    /// at most once per grace period instead of on every request.
    fn evict_for(&self, sim: &mut Sim, deployment: DeploymentId) -> bool {
        const EVICTION_GRACE: SimDuration = SimDuration::from_millis(2_000);
        let victim = {
            let inner = self.inner.borrow();
            let now = sim.now();
            inner
                .instances
                .iter()
                .filter(|(_, st)| {
                    st.warm
                        && st.ctx.deployment != deployment
                        && st.active_http == 0
                        && now.saturating_since(st.created) >= EVICTION_GRACE
                })
                .max_by_key(|(id, st)| {
                    let dep_size =
                        inner.deployments[st.ctx.deployment.raw() as usize].instances.len();
                    (dep_size, std::cmp::Reverse(st.last_activity), std::cmp::Reverse(**id))
                })
                .map(|(id, _)| *id)
        };
        let Some(victim) = victim else { return false };
        let removed = {
            let mut inner = self.inner.borrow_mut();
            let Some(state) = inner.instances.remove(&victim) else { return false };
            state.ctx.alive.set(false);
            if let Some(since) = state.active_since {
                let (pricing, now) = (inner.cfg.pricing, sim.now());
                inner.pay_meter.charge_lambda_execution(
                    now,
                    &pricing,
                    now.saturating_since(since),
                    state.ctx.mem_gb,
                );
            }
            inner.used_vcpus = inner.used_vcpus.saturating_sub(state.ctx.vcpus);
            let dep = state.ctx.deployment.raw() as usize;
            inner.deployments[dep].instances.retain(|id| *id != victim);
            inner.stats.evictions += 1;
            let count = inner.instances.len() as f64;
            let now = sim.now();
            inner.gauge.observe(now, count);
            state
        };
        let InstanceState { mut function, ctx, .. } = removed;
        if let Some(f) = function.as_mut() {
            f.on_terminate(sim, &ctx, true);
        }
        true
    }

    /// The warm instance of `deployment` with a free HTTP slot and the
    /// least load, if any.
    fn pick_free_instance(&self, deployment: DeploymentId) -> Option<InstanceId> {
        let inner = self.inner.borrow();
        let dep = &inner.deployments[deployment.raw() as usize];
        dep.instances
            .iter()
            .copied()
            .filter_map(|id| inner.instances.get(&id).map(|st| (id, st)))
            .filter(|(_, st)| st.warm && st.active_http < dep.config.concurrency)
            .min_by_key(|(id, st)| (st.active_http, *id))
            .map(|(id, _)| id)
    }

    fn begin_cold_start(&self, sim: &mut Sim, deployment: DeploymentId) {
        let (instance, cold_start) = {
            let mut inner = self.inner.borrow_mut();
            inner.next_instance += 1;
            let id = InstanceId::from_raw(inner.next_instance);
            let dep = &mut inner.deployments[deployment.raw() as usize];
            let config = dep.config.clone();
            dep.instances.push(id);
            let ctx = InstanceCtx {
                instance: id,
                deployment,
                cpu: Station::new(format!("{}-{}", dep.name, id.raw()), config.vcpus.max(1)),
                vcpus: config.vcpus,
                mem_gb: config.mem_gb,
                alive: Rc::new(Cell::new(true)),
            };
            inner.instances.insert(
                id,
                InstanceState {
                    ctx,
                    function: None,
                    warm: false,
                    active_http: 0,
                    active_total: 0,
                    active_since: None,
                    last_activity: sim.now(),
                    created: sim.now(),
                },
            );
            inner.used_vcpus += config.vcpus;
            inner.peak_vcpus = inner.peak_vcpus.max(inner.used_vcpus);
            inner.stats.cold_starts += 1;
            let count = inner.instances.len() as f64;
            let now = sim.now();
            inner.gauge.observe(now, count);
            (id, inner.cfg.faas.cold_start)
        };
        let delay = sim.rng().sample_duration(&cold_start);
        let this = self.clone();
        sim.schedule(delay, move |sim| this.finish_cold_start(sim, deployment, instance));
    }

    fn finish_cold_start(&self, sim: &mut Sim, deployment: DeploymentId, instance: InstanceId) {
        let built = {
            let inner = self.inner.borrow();
            if !inner.instances.contains_key(&instance) {
                return; // killed while starting
            }
            let dep = &inner.deployments[deployment.raw() as usize];
            let ctx = inner.instances[&instance].ctx.clone();
            let function = (dep.factory)(&ctx);
            Some((function, ctx))
        };
        let Some((mut function, ctx)) = built else { return };
        function.on_start(sim, &ctx);
        {
            let mut inner = self.inner.borrow_mut();
            let Some(state) = inner.instances.get_mut(&instance) else { return };
            state.function = Some(function);
            state.warm = true;
            state.last_activity = sim.now();
        }
        self.drain_queue(sim, deployment);
    }

    fn drain_queue(&self, sim: &mut Sim, deployment: DeploymentId) {
        loop {
            let next = {
                let mut inner = self.inner.borrow_mut();
                let ttl = inner.cfg.request_ttl;
                let now = sim.now();
                let dep = &mut inner.deployments[deployment.raw() as usize];
                // Drop expired invocations first.
                let mut expired = 0;
                while dep
                    .queue
                    .front()
                    .is_some_and(|q| now.saturating_since(q.enqueued) > ttl)
                {
                    dep.queue.pop_front();
                    expired += 1;
                }
                inner.stats.expired_requests += expired;
                if inner.deployments[deployment.raw() as usize].queue.is_empty() {
                    None
                } else {
                    Some(())
                }
            };
            if next.is_none() {
                return;
            }
            let Some(instance) = self.pick_free_instance(deployment) else { return };
            let queued = {
                let mut inner = self.inner.borrow_mut();
                inner.deployments[deployment.raw() as usize].queue.pop_front()
            };
            let Some(queued) = queued else { return };
            self.start_request(sim, instance, queued.req, queued.respond, true);
        }
    }

    /// Delivers a request directly to a warm instance over an established
    /// TCP connection, bypassing the gateway. Returns `false` (delivering
    /// nothing) if the instance is dead or not yet warm — the caller's
    /// connection is broken.
    pub fn deliver_tcp(
        &self,
        sim: &mut Sim,
        instance: InstanceId,
        req: F::Req,
        respond: Responder<F::Resp>,
    ) -> bool {
        let ok = {
            let inner = self.inner.borrow();
            inner.instances.get(&instance).is_some_and(|i| i.warm)
        };
        if !ok {
            return false;
        }
        self.inner.borrow_mut().stats.tcp_deliveries += 1;
        self.start_request(sim, instance, req, respond, false);
        true
    }

    fn start_request(
        &self,
        sim: &mut Sim,
        instance: InstanceId,
        req: F::Req,
        respond: Responder<F::Resp>,
        is_http: bool,
    ) {
        let prepared = {
            let mut inner = self.inner.borrow_mut();
            match inner.instances.get_mut(&instance) {
                None => None,
                Some(state) => {
                    if is_http {
                        state.active_http += 1;
                    }
                    state.active_total += 1;
                    if state.active_total == 1 {
                        state.active_since = Some(sim.now());
                    }
                    state.last_activity = sim.now();
                    state.function.take().map(|f| (f, state.ctx.clone()))
                }
            }
        };
        let Some((mut function, ctx)) = prepared else {
            // Instance dead (drop the request; the client times out), or the
            // function is mid-call (re-entrant dispatch) — the latter cannot
            // happen because dispatch always returns the function before
            // yielding to the event loop.
            return;
        };
        let this = self.clone();
        let wrapped: Responder<F::Resp> = Responder::new(move |sim, resp| {
            if this.finish_request(sim, instance, is_http) {
                respond.send(sim, resp);
            }
        });
        function.on_request(sim, &ctx, req, wrapped);
        let mut inner = self.inner.borrow_mut();
        if let Some(state) = inner.instances.get_mut(&instance) {
            state.function = Some(function);
        }
        // else: killed during the call; the function is dropped here.
    }

    /// Releases a request slot. Returns whether the instance is still
    /// alive (dead instances' responses are suppressed).
    fn finish_request(&self, sim: &mut Sim, instance: InstanceId, is_http: bool) -> bool {
        let deployment = {
            let mut inner = self.inner.borrow_mut();
            let pricing = inner.cfg.pricing;
            let Some(state) = inner.instances.get_mut(&instance) else { return false };
            if is_http {
                state.active_http = state.active_http.saturating_sub(1);
            }
            state.active_total = state.active_total.saturating_sub(1);
            state.last_activity = sim.now();
            let mut charge = None;
            if state.active_total == 0 {
                if let Some(since) = state.active_since.take() {
                    charge = Some((sim.now().saturating_since(since), state.ctx.mem_gb));
                }
            }
            let deployment = state.ctx.deployment;
            if let Some((active, mem)) = charge {
                let now = sim.now();
                inner.pay_meter.charge_lambda_execution(now, &pricing, active, mem);
            }
            Some(deployment)
        };
        match deployment {
            Some(dep) => {
                if is_http {
                    self.drain_queue(sim, dep);
                }
                true
            }
            None => false,
        }
    }

    /// Forcefully kills an instance (fault injection, §5.6). No graceful
    /// cleanup runs: in-flight responses are dropped and the function's
    /// coordinator session is left to expire on its own.
    pub fn kill_instance(&self, sim: &mut Sim, instance: InstanceId) {
        let mut inner = self.inner.borrow_mut();
        let Some(state) = inner.instances.remove(&instance) else { return };
        let pricing = inner.cfg.pricing;
        state.ctx.alive.set(false);
        if let Some(since) = state.active_since {
            let now = sim.now();
            inner.pay_meter.charge_lambda_execution(
                now,
                &pricing,
                now.saturating_since(since),
                state.ctx.mem_gb,
            );
        }
        inner.used_vcpus = inner.used_vcpus.saturating_sub(state.ctx.vcpus);
        let dep = state.ctx.deployment.raw() as usize;
        inner.deployments[dep].instances.retain(|id| *id != instance);
        inner.stats.kills += 1;
        let count = inner.instances.len() as f64;
        let now = sim.now();
        inner.gauge.observe(now, count);
    }

    fn reclaim_idle(&self, sim: &mut Sim) {
        let victims: Vec<InstanceId> = {
            let inner = self.inner.borrow();
            let idle_after = inner.cfg.faas.idle_reclaim_after;
            // Candidates, grouped so per-deployment floors can be applied.
            let mut remaining: Vec<usize> =
                inner.deployments.iter().map(|d| d.instances.len()).collect();
            inner
                .instances
                .iter()
                .filter(|(_, st)| {
                    st.warm
                        && st.active_total == 0
                        && sim.now().saturating_since(st.last_activity) >= idle_after
                })
                .filter_map(|(id, st)| {
                    let dep = st.ctx.deployment.raw() as usize;
                    let floor = inner.deployments[dep].config.min_instances as usize;
                    if remaining[dep] > floor {
                        remaining[dep] -= 1;
                        Some(*id)
                    } else {
                        None
                    }
                })
                .collect()
        };
        for instance in victims {
            let removed = {
                let mut inner = self.inner.borrow_mut();
                let Some(state) = inner.instances.remove(&instance) else { continue };
                state.ctx.alive.set(false);
                inner.used_vcpus = inner.used_vcpus.saturating_sub(state.ctx.vcpus);
                let dep = state.ctx.deployment.raw() as usize;
                inner.deployments[dep].instances.retain(|id| *id != instance);
                inner.stats.reclaims += 1;
                let count = inner.instances.len() as f64;
                let now = sim.now();
                inner.gauge.observe(now, count);
                state
            };
            let InstanceState { mut function, ctx, .. } = removed;
            if let Some(f) = function.as_mut() {
                f.on_terminate(sim, &ctx, true);
            }
        }
    }

    fn billing_tick(&self, sim: &mut Sim, tick: SimDuration) {
        let mut inner = self.inner.borrow_mut();
        let pricing = inner.cfg.pricing;
        let now = sim.now();
        // Provisioned model: every live instance pays for the whole tick.
        let provisioned_gb: f64 = inner.instances.values().map(|st| st.ctx.mem_gb).sum();
        if provisioned_gb > 0.0 {
            inner.prov_meter.charge_lambda_execution(now, &pricing, tick, provisioned_gb);
        }
        // Pay-per-use model: flush open active intervals so the per-second
        // cost series stays smooth.
        let mut flush = 0.0f64;
        for state in inner.instances.values_mut() {
            if let Some(since) = state.active_since {
                let span = now.saturating_since(since);
                flush += pricing.execution_cost(span, state.ctx.mem_gb);
                state.active_since = Some(now);
            }
        }
        if flush > 0.0 {
            inner.pay_meter.charge(now, flush);
        }
    }
}
