//! Platform implementation: deployments, instances, routing, billing.
//!
//! The state is one `BTreeMap` of instances keyed by their sequential ids,
//! plus each deployment's roster and gateway queue. Routing, reclamation,
//! eviction, kill bursts and billing are plain scans in ascending id order.
//! The vCPU cap bounds the table (20 NameNodes at most on every benchmark
//! workload), so a scan is cheaper than an index kept up to date on every
//! request. The order is part of the contract: billing sums in it, because
//! floating-point summation order is observable, and reclamation spends
//! `min_instances` budgets in it.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

use lambda_sim::params::{FaasParams, NetParams};
use lambda_sim::{
    CostMeter, GaugeSeries, LambdaPricing, Sim, SimDuration, SimTime, Station, StationRef,
};

/// Identifies a function deployment registered with the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeploymentId(u32);

impl DeploymentId {
    /// The raw deployment index (used by partitioners).
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for DeploymentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deployment#{}", self.0)
    }
}

/// Identifies one running (or starting) function instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstanceId(u64);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instance#{}", self.0)
    }
}

/// A boxed caller-supplied completion closure.
type CompletionFn<Resp> = Box<dyn FnOnce(&mut Sim, Resp)>;

/// The completion callback handed to [`Function::on_request`]; calling
/// [`Responder::send`] delivers the response (unless the instance has died
/// in the meantime) and releases the request's concurrency slot. Dropping a
/// responder without sending leaks the caller's wait (the client-side
/// timeout handles that, as it does for real crashes).
pub struct Responder<Resp> {
    f: CompletionFn<Resp>,
    /// Set when the platform dispatches the responder to an instance: the
    /// request slot `send` releases before `f` runs.
    slot: Option<Slot>,
}

impl<Resp> Responder<Resp> {
    /// Wraps a completion closure into a responder.
    pub fn new(f: impl FnOnce(&mut Sim, Resp) + 'static) -> Self {
        Responder { f: Box::new(f), slot: None }
    }

    /// Delivers the response. Consumes the responder, so it is sent at
    /// most once.
    pub fn send(self, sim: &mut Sim, resp: Resp) {
        if let Some(slot) = self.slot {
            let live = Rc::clone(&slot.platform).release(sim, slot.instance, slot.is_http);
            if !live {
                return; // a dead instance's response is suppressed
            }
        }
        (self.f)(sim, resp);
    }
}

impl<Resp: 'static> Responder<Resp> {
    /// Ties the responder to `instance`'s request slot. One already tied to
    /// a slot (a function forwarding its own responder into another
    /// invocation) is wrapped, so `send` releases both, outer first.
    fn dispatched(self, platform: Rc<dyn Release>, instance: InstanceId, is_http: bool) -> Self {
        let mut tagged = match self.slot {
            Some(_) => Responder::new(move |sim, resp| self.send(sim, resp)),
            None => self,
        };
        let pending = platform.pending();
        pending.set(pending.get() + 1);
        tagged.slot = Some(Slot { platform, instance, is_http });
        tagged
    }
}

impl<Resp> fmt::Debug for Responder<Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let instance = self.slot.as_ref().map(|slot| slot.instance);
        f.debug_struct("Responder").field("instance", &instance).finish()
    }
}

/// The request slot a dispatched responder holds. Dropping it (sent or
/// not) only decrements the platform's pending count, which lives outside
/// the platform's `RefCell`: a responder's `Drop` never borrows the
/// platform, so functions and queues may drop responders anywhere.
struct Slot {
    platform: Rc<dyn Release>,
    instance: InstanceId,
    is_http: bool,
}

impl Drop for Slot {
    fn drop(&mut self) {
        let pending = self.platform.pending();
        pending.set(pending.get() - 1);
    }
}

/// The platform as a dispatched responder sees it, whatever its function
/// type.
trait Release {
    /// Responders dispatched and not yet sent or dropped.
    fn pending(&self) -> &Cell<usize>;
    /// Releases `instance`'s request slot; whether the instance is alive.
    fn release(self: Rc<Self>, sim: &mut Sim, instance: InstanceId, is_http: bool) -> bool;
}

impl<F: Function> Release for Core<F> {
    fn pending(&self) -> &Cell<usize> {
        &self.pending
    }

    fn release(self: Rc<Self>, sim: &mut Sim, instance: InstanceId, is_http: bool) -> bool {
        Platform { core: self }.finish_request(sim, instance, is_http)
    }
}

/// User code executed inside function instances (the NameNode, in λFS).
///
/// Implementations must not call back into the platform from their
/// constructor (the factory); platform interaction belongs in `on_start`
/// and later.
pub trait Function: 'static {
    /// Request payload type.
    type Req: 'static;
    /// Response payload type.
    type Resp: 'static;

    /// Called once when the instance finishes cold-starting.
    fn on_start(&mut self, sim: &mut Sim, ctx: &InstanceCtx);

    /// Called for each request routed to this instance (HTTP or TCP).
    ///
    /// The implementation owns `respond` and must call it exactly once for
    /// the request to complete; dropping it leaks the caller's wait (the
    /// client-side timeout handles that, as it does for real crashes).
    fn on_request(&mut self, sim: &mut Sim, ctx: &InstanceCtx, req: Self::Req, respond: Responder<Self::Resp>);

    /// Called on graceful termination (idle reclamation). **Not** called
    /// when the instance is killed — a crash runs no cleanup.
    fn on_terminate(&mut self, sim: &mut Sim, ctx: &InstanceCtx, graceful: bool);
}

/// The environment an instance runs in.
#[derive(Debug, Clone)]
pub struct InstanceCtx {
    /// This instance's id.
    pub instance: InstanceId,
    /// The owning deployment.
    pub deployment: DeploymentId,
    /// The instance's CPU: one queueing station with `vcpus` servers.
    pub cpu: StationRef,
    /// vCPUs allocated to the instance.
    pub vcpus: u32,
    /// Memory allocated to the instance, in GB.
    pub mem_gb: f64,
    pub(crate) alive: Rc<Cell<bool>>,
}

impl InstanceCtx {
    /// Whether the instance is still alive. Periodic tasks owned by the
    /// function must check this and stop when it turns false.
    #[must_use]
    pub fn is_alive(&self) -> bool {
        self.alive.get()
    }
}

/// Per-deployment resource configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionConfig {
    /// vCPUs per instance (λFS default: 5–6.25 vCPU NameNodes).
    pub vcpus: u32,
    /// Memory per instance in GB (λFS used 6–30 GB).
    pub mem_gb: f64,
    /// `ConcurrencyLevel`: concurrent HTTP requests one instance may serve
    /// (the paper's OpenWhisk extension, §3.4). TCP requests are not
    /// gated by this — they bypass the platform entirely.
    pub concurrency: u32,
    /// Upper bound on instances of this deployment (`u32::MAX` = platform
    /// limits only). Fig. 14's "limited"/"disabled" auto-scaling ablations
    /// set this to 2–3 / 1.
    pub max_instances: u32,
    /// Lower bound kept warm: idle reclamation never shrinks the
    /// deployment below this. This is the "provisioned concurrency"
    /// mitigation for warm-function reclamation that the paper leaves as
    /// future work (§4 "Porting λFS to Commercial FaaS Platforms").
    pub min_instances: u32,
}

impl Default for FunctionConfig {
    fn default() -> Self {
        FunctionConfig {
            vcpus: 6,
            mem_gb: 6.0,
            concurrency: 4,
            max_instances: u32::MAX,
            min_instances: 0,
        }
    }
}

/// Platform-wide configuration.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Total vCPUs the platform may allocate across all instances (the
    /// evaluation's fairness cap; nearly unbounded in a public cloud).
    pub cluster_vcpus: u32,
    /// Cold start, reclamation, and scan-interval behavior.
    pub faas: FaasParams,
    /// Network latency model (gateway overhead).
    pub net: NetParams,
    /// Pay-per-use prices.
    pub pricing: LambdaPricing,
    /// Queued HTTP invocations older than this are dropped (the client
    /// will have timed out and resubmitted anyway).
    pub request_ttl: SimDuration,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            cluster_vcpus: 512,
            faas: FaasParams::default(),
            net: NetParams::default(),
            pricing: LambdaPricing::default(),
            request_ttl: SimDuration::from_secs(10),
        }
    }
}

/// Cumulative platform counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlatformStats {
    /// HTTP invocations accepted at the gateway.
    pub http_invocations: u64,
    /// Direct TCP deliveries.
    pub tcp_deliveries: u64,
    /// Instances cold-started.
    pub cold_starts: u64,
    /// Idle instances reclaimed (graceful scale-in).
    pub reclaims: u64,
    /// Instances forcefully killed (fault injection).
    pub kills: u64,
    /// Queued invocations dropped after exceeding the request TTL.
    pub expired_requests: u64,
    /// Warm instances of other deployments terminated to make room for a
    /// deployment that had queued work but no instance (capacity-pressure
    /// eviction).
    pub evictions: u64,
}

struct Queued<F: Function> {
    req: F::Req,
    respond: Responder<F::Resp>,
    enqueued: SimTime,
}

struct DeploymentState<F: Function> {
    name: String,
    config: FunctionConfig,
    factory: Box<dyn Fn(&InstanceCtx) -> F>,
    /// Starting + warm instances, in creation (= ascending id) order.
    instances: Vec<InstanceId>,
    queue: VecDeque<Queued<F>>,
}

struct InstanceState<F: Function> {
    ctx: Rc<InstanceCtx>,
    /// `None` while cold-starting or while a call into the function is on
    /// the stack (taken out to allow re-entrancy).
    function: Option<F>,
    warm: bool,
    active_http: u32,
    active_total: u32,
    /// Start of the open billed interval; `Some` exactly while
    /// `active_total > 0`.
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
    /// Maintenance generation, odd while the ticks run. Starting and
    /// stopping each advance it, and a tick keeps running only while the
    /// generation it was armed in is current — so start → stop → start
    /// before the next tick never leaves the first ticks running beside
    /// the second.
    maintenance: u64,
    /// Cold-start latency multiplier (fault injection). Exactly `1.0`
    /// outside storm windows, in which case the sampled delay is used
    /// untouched — so an idle injector cannot perturb the event trace.
    cold_start_factor: f64,
}

impl<F: Function> Inner<F> {
    /// Takes `id` out of the table, bills its open active interval and
    /// records the new instance count. The caller counts the removal and
    /// drops (or terminates) the returned state outside the borrow: the
    /// function inside is user code.
    fn remove(&mut self, now: SimTime, id: InstanceId) -> Option<InstanceState<F>> {
        let state = self.instances.remove(&id)?;
        state.ctx.alive.set(false);
        if let Some(since) = state.active_since {
            let (span, mem) = (now.saturating_since(since), state.ctx.mem_gb);
            self.pay_meter.charge_lambda_execution(now, &self.cfg.pricing, span, mem);
        }
        self.used_vcpus = self.used_vcpus.saturating_sub(state.ctx.vcpus);
        let dep = state.ctx.deployment.0 as usize;
        self.deployments[dep].instances.retain(|i| *i != id);
        self.gauge.observe(now, self.instances.len() as f64);
        Some(state)
    }

    /// The warm instance of `deployment` with a free HTTP slot and the
    /// least load (lowest id among equals), if any.
    fn pick_free_instance(&self, deployment: DeploymentId) -> Option<InstanceId> {
        let conc = self.deployments[deployment.0 as usize].config.concurrency;
        self.roster(deployment, |st| st.warm && st.active_http < conc)
            .min_by_key(|(id, st)| (st.active_http, *id))
            .map(|(id, _)| id)
    }

    /// `deployment`'s instances that pass `keep`, in ascending id order.
    fn roster(
        &self,
        deployment: DeploymentId,
        keep: impl Fn(&InstanceState<F>) -> bool,
    ) -> impl Iterator<Item = (InstanceId, &InstanceState<F>)> {
        // No deployment at all once the platform is torn down.
        let ids = self.deployments.get(deployment.0 as usize).map_or(&[][..], |d| &d.instances);
        ids.iter()
            .filter_map(|id| self.instances.get(id).map(|st| (*id, st)))
            .filter(move |(_, st)| keep(st))
    }
}

/// The shared platform state and the count of dispatched responders,
/// which is kept outside the `RefCell` (see [`Slot`]).
struct Core<F: Function> {
    pending: Cell<usize>,
    inner: RefCell<Inner<F>>,
}

/// A shared handle to the serverless platform hosting instances of `F`.
///
/// See the crate-level docs for the role this plays in the reproduced
/// system and the crate tests for end-to-end usage.
pub struct Platform<F: Function> {
    core: Rc<Core<F>>,
}

impl<F: Function> Clone for Platform<F> {
    fn clone(&self) -> Self {
        Platform { core: Rc::clone(&self.core) }
    }
}

impl<F: Function> fmt::Debug for Platform<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.core.inner.borrow();
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
        let inner = Inner {
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
            maintenance: 0,
            cold_start_factor: 1.0,
        };
        Platform { core: Rc::new(Core { pending: Cell::new(0), inner: RefCell::new(inner) }) }
    }

    /// Registers a uniquely named function deployment; `factory` builds
    /// the function body for each new instance.
    pub fn register_deployment(
        &self,
        name: impl Into<String>,
        config: FunctionConfig,
        factory: Box<dyn Fn(&InstanceCtx) -> F>,
    ) -> DeploymentId {
        let mut inner = self.core.inner.borrow_mut();
        let id = DeploymentId(inner.deployments.len() as u32);
        inner.deployments.push(DeploymentState {
            name: name.into(),
            config,
            factory,
            instances: Vec::new(),
            queue: VecDeque::new(),
        });
        id
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> PlatformStats {
        self.core.inner.borrow().stats
    }

    /// Highest vCPU allocation observed.
    #[must_use]
    pub fn peak_vcpus_used(&self) -> u32 {
        self.core.inner.borrow().peak_vcpus
    }

    /// Snapshot of the pay-per-use (AWS-Lambda-model) cost meter
    /// (per-second series).
    #[must_use]
    pub fn pay_meter(&self) -> CostMeter {
        self.core.inner.borrow().pay_meter.clone()
    }

    /// Snapshot of the provisioned-cost meter: instances billed while
    /// provisioned (Fig. 9's `λFS (Simplified)` curve). It accumulates only
    /// while maintenance runs, because the billing tick samples it.
    #[must_use]
    pub fn prov_meter(&self) -> CostMeter {
        self.core.inner.borrow().prov_meter.clone()
    }

    /// Time series of provisioned (starting + warm) instance counts.
    #[must_use]
    pub fn instance_gauge(&self) -> GaugeSeries {
        self.core.inner.borrow().gauge.clone()
    }

    /// Warm instances of `deployment`, in creation order.
    #[must_use]
    pub fn warm_instances(&self, deployment: DeploymentId) -> Vec<InstanceId> {
        self.core.inner.borrow().roster(deployment, |st| st.warm).map(|(id, _)| id).collect()
    }

    /// Total provisioned instances (starting + warm) across deployments.
    #[must_use]
    pub fn total_instances(&self) -> usize {
        self.core.inner.borrow().instances.len()
    }

    /// Per-instance request-slot occupancy (diagnostics): `(instance,
    /// deployment, active_http, active_total, warm)`, in ascending
    /// instance-id order.
    #[must_use]
    pub fn instance_slots(&self) -> Vec<(InstanceId, DeploymentId, u32, u32, bool)> {
        let inner = self.core.inner.borrow();
        inner
            .instances
            .iter()
            .map(|(id, st)| (*id, st.ctx.deployment, st.active_http, st.active_total, st.warm))
            .collect()
    }

    /// Starts the periodic reclamation + billing ticks. Idempotent. The
    /// ticks run until [`Platform::stop_maintenance`]; drive the simulation
    /// with `run_until`/`run_for` while they are armed.
    pub fn run_maintenance(&self, sim: &mut Sim) {
        let (generation, scan) = {
            let mut inner = self.core.inner.borrow_mut();
            if inner.maintenance % 2 == 1 {
                return;
            }
            inner.maintenance += 1;
            (inner.maintenance, inner.cfg.faas.reclaim_scan_every)
        };
        let this = self.clone();
        lambda_sim::every(sim, sim.now() + scan, scan, move |sim| {
            if this.core.inner.borrow().maintenance != generation {
                return false;
            }
            this.reclaim_idle(sim);
            true
        });
        let this = self.clone();
        let tick = SimDuration::from_secs(1);
        lambda_sim::every(sim, sim.now() + tick, tick, move |sim| {
            if this.core.inner.borrow().maintenance != generation {
                return false;
            }
            this.billing_tick(sim, tick);
            // Rescue pass: a deployment whose queued work could not scale
            // out earlier (e.g. every eviction victim was inside its
            // grace period) gets another chance as victims age.
            let deployments = this.core.inner.borrow().deployments.len();
            for d in 0..deployments {
                let id = DeploymentId(d as u32);
                if this.core.inner.borrow().deployments[d].queue.is_empty() {
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
        let mut inner = self.core.inner.borrow_mut();
        inner.maintenance += inner.maintenance % 2;
    }

    /// Ends the platform's life, for the `Drop` of the system that owns
    /// it: stops maintenance, marks every instance dead (so the loops its
    /// function armed end at their next tick) and drops the instance table,
    /// the jobs waiting for each instance's CPU, the deployments' factories
    /// and their queued invocations. Functions and factories usually hold
    /// a handle to the platform, so without this the platform would keep
    /// itself alive.
    ///
    /// It schedules nothing, draws no random number, calls no
    /// [`Function::on_terminate`] and bills nothing. Afterwards the platform
    /// has no deployments: an invocation still on its way to a gateway is
    /// dropped, a TCP delivery is refused, and the meters and counters keep
    /// their final values.
    pub fn tear_down(&self) {
        let (instances, deployments) = {
            let mut inner = self.core.inner.borrow_mut();
            inner.maintenance += inner.maintenance % 2;
            (std::mem::take(&mut inner.instances), std::mem::take(&mut inner.deployments))
        };
        // Functions, factories and the jobs waiting for an instance's CPU
        // are user code: they drop unborrowed.
        for st in instances.values() {
            st.ctx.alive.set(false);
            Station::abandon_waiting(&st.ctx.cpu);
        }
        drop((instances, deployments));
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
        let overhead = {
            let mut guard = self.core.inner.borrow_mut();
            let inner = &mut *guard;
            inner.stats.http_invocations += 1;
            inner.pay_meter.charge_lambda_request(sim.now(), &inner.cfg.pricing);
            inner.cfg.net.http_overhead
        };
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
            let mut inner = self.core.inner.borrow_mut();
            let enqueued = sim.now();
            let Some(dep) = inner.deployments.get_mut(deployment.0 as usize) else {
                return; // the platform was torn down while the request travelled
            };
            dep.queue.push_back(Queued { req, respond, enqueued });
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
            let inner = self.core.inner.borrow();
            let dep = &inner.deployments[deployment.0 as usize];
            let queue_len = dep.queue.len() as u32;
            if queue_len == 0 {
                (false, false, false)
            } else {
                let starting = inner.roster(deployment, |st| !st.warm).count() as u32;
                let dep_count = dep.instances.len() as u32;
                let wants = dep_count < dep.config.max_instances
                    && queue_len > starting * dep.config.concurrency.max(1);
                let capacity = inner.used_vcpus + dep.config.vcpus <= inner.cfg.cluster_vcpus;
                (wants, capacity, dep_count == 0)
            }
        };
        if wants_cold && has_capacity {
            self.begin_cold_start(sim, deployment);
        } else if wants_cold && starving && self.evict_for(sim, deployment) {
            // Room was freed by terminating another deployment's warm
            // instance; re-check the cap (instance sizes may differ).
            let fits = {
                let inner = self.core.inner.borrow();
                let dep = &inner.deployments[deployment.0 as usize];
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
        let now = sim.now();
        let removed = {
            let mut inner = self.core.inner.borrow_mut();
            let victim = inner
                .instances
                .iter()
                .filter(|(_, st)| {
                    st.warm
                        && st.ctx.deployment != deployment
                        && st.active_http == 0
                        && now.saturating_since(st.created) >= EVICTION_GRACE
                })
                .max_by_key(|(id, st)| {
                    let dep_size = inner.deployments[st.ctx.deployment.0 as usize].instances.len();
                    (dep_size, std::cmp::Reverse(st.last_activity), std::cmp::Reverse(**id))
                })
                .map(|(id, _)| *id);
            let Some(state) = victim.and_then(|id| inner.remove(now, id)) else { return false };
            inner.stats.evictions += 1;
            state
        };
        let InstanceState { mut function, ctx, .. } = removed;
        if let Some(f) = function.as_mut() {
            f.on_terminate(sim, &ctx, true);
        }
        true
    }

    fn begin_cold_start(&self, sim: &mut Sim, deployment: DeploymentId) {
        let (instance, cold_start, factor) = {
            let mut guard = self.core.inner.borrow_mut();
            let inner = &mut *guard;
            inner.next_instance += 1;
            let id = InstanceId(inner.next_instance);
            let dep = &mut inner.deployments[deployment.0 as usize];
            dep.instances.push(id);
            let vcpus = dep.config.vcpus;
            let ctx = Rc::new(InstanceCtx {
                instance: id,
                deployment,
                cpu: Station::new(format!("{}-{}", dep.name, id.0), vcpus.max(1)),
                vcpus,
                mem_gb: dep.config.mem_gb,
                alive: Rc::new(Cell::new(true)),
            });
            let now = sim.now();
            let state = InstanceState {
                ctx,
                function: None,
                warm: false,
                active_http: 0,
                active_total: 0,
                active_since: None,
                last_activity: now,
                created: now,
            };
            inner.instances.insert(id, state);
            inner.used_vcpus += vcpus;
            inner.peak_vcpus = inner.peak_vcpus.max(inner.used_vcpus);
            inner.stats.cold_starts += 1;
            inner.gauge.observe(now, inner.instances.len() as f64);
            (id, inner.cfg.faas.cold_start, inner.cold_start_factor)
        };
        let mut delay = sim.rng().sample_duration(&cold_start);
        if factor != 1.0 {
            // Cold-start storm: stretch the sampled delay. The sample above
            // is drawn unconditionally so a storm never shifts the RNG
            // stream relative to a storm-free run.
            delay = delay.mul_f64(factor);
        }
        let this = self.clone();
        sim.schedule(delay, move |sim| this.finish_cold_start(sim, deployment, instance));
    }

    fn finish_cold_start(&self, sim: &mut Sim, deployment: DeploymentId, instance: InstanceId) {
        let (mut function, ctx) = {
            let inner = self.core.inner.borrow();
            let Some(state) = inner.instances.get(&instance) else {
                return; // killed while starting
            };
            let ctx = Rc::clone(&state.ctx);
            ((inner.deployments[deployment.0 as usize].factory)(&ctx), ctx)
        };
        function.on_start(sim, &ctx);
        {
            let mut inner = self.core.inner.borrow_mut();
            // Killed during `on_start`: the function drops after the borrow.
            let Some(state) = inner.instances.get_mut(&instance) else { return };
            state.function = Some(function);
            state.warm = true;
            state.last_activity = sim.now();
        }
        self.drain_queue(sim, deployment);
    }

    fn drain_queue(&self, sim: &mut Sim, deployment: DeploymentId) {
        loop {
            let mut guard = self.core.inner.borrow_mut();
            let inner = &mut *guard;
            let (ttl, now) = (inner.cfg.request_ttl, sim.now());
            let queue = &mut inner.deployments[deployment.0 as usize].queue;
            // Drop expired invocations first.
            while queue.front().is_some_and(|q| now.saturating_since(q.enqueued) > ttl) {
                queue.pop_front();
                inner.stats.expired_requests += 1;
            }
            if queue.is_empty() {
                return;
            }
            let Some(instance) = inner.pick_free_instance(deployment) else { return };
            let queue = &mut inner.deployments[deployment.0 as usize].queue;
            let queued = queue.pop_front().expect("queue checked non-empty");
            drop(guard);
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
        self.start_request(sim, instance, req, respond, false)
    }

    /// Occupies a request slot on a warm `instance` and hands the request
    /// to its function, with `respond` tied to the slot. Returns `false`,
    /// dispatching nothing, if the instance is gone or still starting.
    fn start_request(
        &self,
        sim: &mut Sim,
        instance: InstanceId,
        req: F::Req,
        respond: Responder<F::Resp>,
        is_http: bool,
    ) -> bool {
        let taken = {
            let mut guard = self.core.inner.borrow_mut();
            let inner = &mut *guard;
            let Some(st) = inner.instances.get_mut(&instance).filter(|st| st.warm) else {
                return false;
            };
            if is_http {
                st.active_http += 1;
            } else {
                inner.stats.tcp_deliveries += 1;
            }
            st.active_total += 1;
            if st.active_total == 1 {
                st.active_since = Some(sim.now());
            }
            st.last_activity = sim.now();
            st.function.take().map(|f| (f, Rc::clone(&st.ctx)))
        };
        // `None`: the function is mid-call (re-entrant dispatch), which
        // cannot happen because dispatch always returns the function
        // before yielding to the event loop.
        let Some((mut function, ctx)) = taken else { return true };
        let platform: Rc<dyn Release> = Rc::clone(&self.core) as _;
        let respond = respond.dispatched(platform, instance, is_http);
        function.on_request(sim, &ctx, req, respond);
        let mut inner = self.core.inner.borrow_mut();
        if let Some(state) = inner.instances.get_mut(&instance) {
            state.function = Some(function);
        }
        // else: killed during the call; the function drops after the borrow.
        true
    }

    /// Releases a request slot. Returns whether the instance is still
    /// alive (dead instances' responses are suppressed).
    fn finish_request(&self, sim: &mut Sim, instance: InstanceId, is_http: bool) -> bool {
        let deployment = {
            let mut guard = self.core.inner.borrow_mut();
            let inner = &mut *guard;
            let Some(st) = inner.instances.get_mut(&instance) else { return false };
            let now = sim.now();
            if is_http {
                st.active_http = st.active_http.saturating_sub(1);
            }
            st.active_total = st.active_total.saturating_sub(1);
            st.last_activity = now;
            if st.active_total == 0 {
                if let Some(since) = st.active_since.take() {
                    let (span, mem) = (now.saturating_since(since), st.ctx.mem_gb);
                    inner.pay_meter.charge_lambda_execution(now, &inner.cfg.pricing, span, mem);
                }
            }
            st.ctx.deployment
        };
        if is_http {
            self.drain_queue(sim, deployment);
        }
        true
    }

    /// Forcefully kills an instance (fault injection, §5.6). No graceful
    /// cleanup runs: in-flight responses are dropped and the function's
    /// coordinator session is left to expire on its own.
    pub fn kill_instance(&self, sim: &mut Sim, instance: InstanceId) {
        let mut inner = self.core.inner.borrow_mut();
        let Some(_state) = inner.remove(sim.now(), instance) else { return };
        inner.stats.kills += 1;
        drop(inner); // the function in `_state` is user code: it drops unborrowed
    }

    /// Kills up to `count` warm instances at once (correlated failure /
    /// fault injection), in ascending instance-id order. `deployment`
    /// restricts the burst to one deployment; `None` strikes across all of
    /// them. Returns how many instances were actually killed.
    pub fn kill_warm_burst(
        &self,
        sim: &mut Sim,
        deployment: Option<DeploymentId>,
        count: u32,
    ) -> u32 {
        let victims: Vec<InstanceId> = self
            .core
            .inner
            .borrow()
            .instances
            .iter()
            .filter(|(_, st)| st.warm && deployment.is_none_or(|d| st.ctx.deployment == d))
            .take(count as usize)
            .map(|(id, _)| *id)
            .collect();
        for &id in &victims {
            self.kill_instance(sim, id);
        }
        victims.len() as u32
    }

    /// Sets the cold-start latency multiplier; `1.0` restores normal
    /// behavior.
    fn set_cold_start_factor(&self, factor: f64) {
        self.core.inner.borrow_mut().cold_start_factor = factor;
    }

    /// Schedules a cold-start storm (fault injection): from `from` to
    /// `until` every cold start takes `factor`× its sampled latency.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn cold_start_storm(&self, sim: &mut Sim, from: SimTime, until: SimTime, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "cold-start factor must be positive");
        let this = self.clone();
        sim.schedule_at(from, move |_sim| this.set_cold_start_factor(factor));
        let this = self.clone();
        sim.schedule_at(until, move |_sim| this.set_cold_start_factor(1.0));
    }

    /// Number of dispatched responders neither sent nor dropped yet
    /// (auditor aid: must be zero after a run drains).
    #[must_use]
    pub fn pending_invocations(&self) -> usize {
        self.core.pending.get()
    }

    /// Number of HTTP requests still queued at deployment gateways
    /// (auditor aid: must be zero after a run drains).
    #[must_use]
    pub fn queued_requests(&self) -> usize {
        self.core.inner.borrow().deployments.iter().map(|d| d.queue.len()).sum()
    }

    /// Scale-in: terminate warm instances idle past the threshold, never
    /// shrinking a deployment below its floor. Candidates are taken in
    /// ascending id order, so a floor keeps the newest idle instances.
    fn reclaim_idle(&self, sim: &mut Sim) {
        let now = sim.now();
        let victims: Vec<InstanceId> = {
            let inner = self.core.inner.borrow();
            let idle_after = inner.cfg.faas.idle_reclaim_after;
            let mut remaining: Vec<usize> =
                inner.deployments.iter().map(|d| d.instances.len()).collect();
            inner
                .instances
                .iter()
                .filter(|(_, st)| {
                    st.warm
                        && st.active_total == 0
                        && now.saturating_since(st.last_activity) >= idle_after
                })
                .filter_map(|(id, st)| {
                    let dep = st.ctx.deployment.0 as usize;
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
                let mut inner = self.core.inner.borrow_mut();
                let Some(state) = inner.remove(now, instance) else { continue };
                inner.stats.reclaims += 1;
                state
            };
            let InstanceState { mut function, ctx, .. } = removed;
            if let Some(f) = function.as_mut() {
                f.on_terminate(sim, &ctx, true);
            }
        }
    }

    fn billing_tick(&self, sim: &mut Sim, tick: SimDuration) {
        let mut guard = self.core.inner.borrow_mut();
        let inner = &mut *guard;
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
        for st in inner.instances.values_mut() {
            if let Some(since) = st.active_since {
                flush += pricing.execution_cost(now.saturating_since(since), st.ctx.mem_gb);
                st.active_since = Some(now);
            }
        }
        if flush > 0.0 {
            inner.pay_meter.charge(now, flush);
        }
    }
}
