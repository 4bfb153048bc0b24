//! Platform implementation: deployments, instances, routing, billing.
//!
//! # Hot-path layout
//!
//! This is the overhauled control plane (the pre-overhaul version lives in
//! [`crate::baseline`] and must stay observably identical — see
//! `tests/platform_differential.rs`):
//!
//! * **Slab instance table.** Instances live in `slots: Vec<Option<..>>`
//!   recycled through a freelist; `id_to_slot` maps the stable, public
//!   [`InstanceId`] (still allocated 1, 2, 3, … exactly as before) to its
//!   current slot in O(1). `live_ids` keeps the live ids sorted ascending so
//!   every place the old `BTreeMap` iteration order was observable — billing
//!   flush (floating-point summation order!), eviction scans, diagnostics —
//!   walks instances in the identical order.
//! * **Per-deployment ready heaps.** Routing an HTTP request no longer scans
//!   the deployment's instances: a lazy min-heap of `(active_http, id)` keys
//!   is maintained on every slot-count change, and stale entries are popped
//!   on inspection. The first entry that matches the instance's *current*
//!   state is exactly the `min_by_key((active_http, id))` the old scan chose.
//! * **Per-deployment idle lists.** Warm instances with no in-flight work
//!   sit on an intrusive doubly-linked list ordered by `last_activity`
//!   (insertion at the tail keeps it sorted because simulation time is
//!   monotone), so a reclamation scan touches only the idle prefix instead
//!   of the whole table. The scan *cadence* deliberately stays on the
//!   periodic `every()` tick: moving each instance onto its own timing-wheel
//!   timer would reclaim at different instants and change the seeded figure
//!   outputs.
//! * **Pooled invocation records.** Dispatch used to box a wrapper closure
//!   per request; now the caller's [`Responder`] is parked in a slab of
//!   invocation records and the function receives a pooled responder — two
//!   words plus an `Rc` bump, no allocation — that completes or abandons the
//!   record by index.
//! * **Config snapshot.** The per-request constants (gateway overhead
//!   distribution, pricing, TTL) are copied into a `Copy` snapshot at
//!   construction so the invoke path never clones config.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::mem;
use std::rc::{Rc, Weak};

use lambda_sim::params::{FaasParams, NetParams};
use lambda_sim::{
    CostMeter, Dist, GaugeSeries, LambdaPricing, Sim, SimDuration, SimTime, Station, StationRef,
};

/// Sentinel slot index for "not linked" (idle list) / "not live" (id map).
const NIL: u32 = u32::MAX;

/// Identifies a function deployment registered with the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeploymentId(u32);

impl DeploymentId {
    /// The raw deployment index (used by partitioners).
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Builds a deployment id from its raw index.
    #[must_use]
    pub const fn from_raw(raw: u32) -> Self {
        DeploymentId(raw)
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

impl InstanceId {
    pub(crate) const fn from_raw(raw: u64) -> Self {
        InstanceId(raw)
    }

    pub(crate) const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instance#{}", self.0)
    }
}

/// Where a pooled responder delivers its response: the platform core, which
/// owns the parked invocation record. Object-safe so `Responder` need not be
/// generic over the function type.
trait CompletionSink<Resp> {
    /// Deliver `resp` for the invocation parked in `slot`.
    fn complete(&self, sim: &mut Sim, slot: u32, resp: Resp);
    /// Free the record without completing (the function dropped the
    /// responder; the caller's wait leaks, as with a real crash).
    fn abandon(&self, slot: u32);
}

/// A boxed caller-supplied completion closure.
type CompletionFn<Resp> = Box<dyn FnOnce(&mut Sim, Resp)>;

enum ResponderInner<Resp> {
    /// A caller-supplied completion closure.
    Fn(CompletionFn<Resp>),
    /// A platform-pooled invocation record (no per-dispatch allocation).
    Pooled { sink: Rc<dyn CompletionSink<Resp>>, slot: u32 },
    /// Already sent (or abandoned).
    Consumed,
}

/// The completion callback handed to [`Function::on_request`]; calling
/// [`Responder::send`] delivers the response (unless the instance has died
/// in the meantime) and releases the request's concurrency slot. Dropping a
/// responder without sending leaks the caller's wait (the client-side
/// timeout handles that, as it does for real crashes).
pub struct Responder<Resp> {
    inner: ResponderInner<Resp>,
}

impl<Resp> Responder<Resp> {
    /// Wraps a completion closure into a responder.
    pub fn new(f: impl FnOnce(&mut Sim, Resp) + 'static) -> Self {
        Responder { inner: ResponderInner::Fn(Box::new(f)) }
    }

    fn pooled(sink: Rc<dyn CompletionSink<Resp>>, slot: u32) -> Self {
        Responder { inner: ResponderInner::Pooled { sink, slot } }
    }

    /// Delivers the response. Consumes the responder; each responder must
    /// be sent at most once.
    pub fn send(mut self, sim: &mut Sim, resp: Resp) {
        match mem::replace(&mut self.inner, ResponderInner::Consumed) {
            ResponderInner::Fn(f) => f(sim, resp),
            ResponderInner::Pooled { sink, slot } => sink.complete(sim, slot, resp),
            ResponderInner::Consumed => {}
        }
    }
}

impl<Resp> Drop for Responder<Resp> {
    fn drop(&mut self) {
        if let ResponderInner::Pooled { sink, slot } =
            mem::replace(&mut self.inner, ResponderInner::Consumed)
        {
            sink.abandon(slot);
        }
    }
}

impl<Resp> fmt::Debug for Responder<Resp> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match &self.inner {
            ResponderInner::Fn(_) => "fn",
            ResponderInner::Pooled { .. } => "pooled",
            ResponderInner::Consumed => "consumed",
        };
        f.debug_struct("Responder").field("kind", &kind).finish()
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

/// The `Copy` subset of [`PlatformConfig`] read on every request, hoisted
/// out so the hot path never touches (or clones from) the full config.
#[derive(Clone, Copy)]
struct ConfigSnapshot {
    cluster_vcpus: u32,
    pricing: LambdaPricing,
    request_ttl: SimDuration,
    http_overhead: Dist,
    cold_start: Dist,
    idle_after: SimDuration,
    scan_every: SimDuration,
}

impl ConfigSnapshot {
    fn of(cfg: &PlatformConfig) -> Self {
        ConfigSnapshot {
            cluster_vcpus: cfg.cluster_vcpus,
            pricing: cfg.pricing,
            request_ttl: cfg.request_ttl,
            http_overhead: cfg.net.http_overhead,
            cold_start: cfg.faas.cold_start,
            idle_after: cfg.faas.idle_reclaim_after,
            scan_every: cfg.faas.reclaim_scan_every,
        }
    }
}

struct Queued<F: Function> {
    req: F::Req,
    respond: Responder<F::Resp>,
    enqueued: SimTime,
}

struct DeploymentState<F: Function> {
    name: Rc<str>,
    config: FunctionConfig,
    factory: Box<dyn Fn(&InstanceCtx) -> F>,
    /// Starting + warm instances, in creation order.
    instances: Vec<InstanceId>,
    queue: VecDeque<Queued<F>>,
    /// Instances currently cold-starting (O(1) scale-out governor).
    starting: u32,
    /// Lazy min-heap of `(active_http, instance id)` over possibly-ready
    /// warm instances; stale entries are discarded when inspected.
    ready: BinaryHeap<Reverse<(u32, u64)>>,
    /// Intrusive list (slot indices) of warm instances with no in-flight
    /// work, ordered by `last_activity` ascending: head is the coldest.
    idle_head: u32,
    idle_tail: u32,
}

struct InstanceState<F: Function> {
    ctx: Rc<InstanceCtx>,
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
    idle_prev: u32,
    idle_next: u32,
    in_idle: bool,
}

/// A dispatched-but-uncompleted request parked in the invocation slab.
struct Invocation<F: Function> {
    instance: InstanceId,
    is_http: bool,
    respond: Responder<F::Resp>,
}

struct Inner<F: Function> {
    snap: ConfigSnapshot,
    deployments: Vec<DeploymentState<F>>,
    /// Slab of instance states; `free_slots` recycles vacancies.
    slots: Vec<Option<InstanceState<F>>>,
    free_slots: Vec<u32>,
    /// Raw instance id → slot (`NIL` once dead). Ids are sequential, so
    /// this grows by one u32 per instance ever created.
    id_to_slot: Vec<u32>,
    /// Live instance ids, ascending — the replacement for the old
    /// `BTreeMap` iteration order everywhere that order is observable.
    live_ids: Vec<InstanceId>,
    /// Invocation-record slab + freelist: dispatch/completion recycle
    /// records instead of boxing a wrapper closure per request.
    invocations: Vec<Option<Invocation<F>>>,
    free_invocations: Vec<u32>,
    next_instance: u64,
    used_vcpus: u32,
    peak_vcpus: u32,
    pay_meter: CostMeter,
    prov_meter: CostMeter,
    gauge: GaugeSeries,
    stats: PlatformStats,
    maintenance_running: bool,
    maintenance_stopped: bool,
    victims_scratch: Vec<InstanceId>,
    remaining_scratch: Vec<usize>,
    /// Cold-start latency multiplier (fault injection). Exactly `1.0`
    /// outside storm windows, in which case the sampled delay is used
    /// untouched — so an idle injector cannot perturb the event trace.
    cold_start_factor: f64,
}

impl<F: Function> Inner<F> {
    fn slot_of(&self, id: InstanceId) -> Option<u32> {
        match self.id_to_slot.get(id.raw() as usize).copied() {
            Some(slot) if slot != NIL => Some(slot),
            _ => None,
        }
    }

    fn state(&self, slot: u32) -> &InstanceState<F> {
        self.slots[slot as usize].as_ref().expect("live slot")
    }

    fn state_mut(&mut self, slot: u32) -> &mut InstanceState<F> {
        self.slots[slot as usize].as_mut().expect("live slot")
    }

    fn alloc_slot(&mut self, state: InstanceState<F>) -> u32 {
        match self.free_slots.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(state);
                slot
            }
            None => {
                self.slots.push(Some(state));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn alloc_invocation(&mut self, inv: Invocation<F>) -> u32 {
        match self.free_invocations.pop() {
            Some(slot) => {
                self.invocations[slot as usize] = Some(inv);
                slot
            }
            None => {
                self.invocations.push(Some(inv));
                (self.invocations.len() - 1) as u32
            }
        }
    }

    /// Adds a ready-heap entry for the instance's current state if it can
    /// accept another HTTP request.
    fn push_ready(&mut self, slot: u32) {
        let st = self.state(slot);
        let dep = st.ctx.deployment.raw() as usize;
        if st.warm && st.active_http < self.deployments[dep].config.concurrency {
            let key = Reverse((st.active_http, st.ctx.instance.raw()));
            self.deployments[dep].ready.push(key);
        }
    }

    /// Appends `slot` to its deployment's idle list. `last_activity` was
    /// just set to the current simulation time, which is ≥ every entry
    /// already on the list, so tail insertion keeps the list sorted.
    fn idle_push_back(&mut self, slot: u32) {
        let dep_idx;
        {
            let st = self.state_mut(slot);
            debug_assert!(!st.in_idle);
            st.in_idle = true;
            st.idle_next = NIL;
            dep_idx = st.ctx.deployment.raw() as usize;
        }
        let tail = self.deployments[dep_idx].idle_tail;
        self.state_mut(slot).idle_prev = tail;
        if tail != NIL {
            self.state_mut(tail).idle_next = slot;
        } else {
            self.deployments[dep_idx].idle_head = slot;
        }
        self.deployments[dep_idx].idle_tail = slot;
    }

    fn idle_unlink(&mut self, slot: u32) {
        let (prev, next, dep_idx);
        {
            let st = self.state_mut(slot);
            if !st.in_idle {
                return;
            }
            st.in_idle = false;
            prev = st.idle_prev;
            next = st.idle_next;
            st.idle_prev = NIL;
            st.idle_next = NIL;
            dep_idx = st.ctx.deployment.raw() as usize;
        }
        if prev != NIL {
            self.state_mut(prev).idle_next = next;
        } else {
            self.deployments[dep_idx].idle_head = next;
        }
        if next != NIL {
            self.state_mut(next).idle_prev = prev;
        } else {
            self.deployments[dep_idx].idle_tail = prev;
        }
    }

    /// Removes an instance from every index (slab, id map, live list, idle
    /// list, deployment roster) and returns its state. The caller applies
    /// the removal-specific accounting and **must drop the returned state
    /// outside the `RefCell` borrow**: the function inside may hold pooled
    /// responders whose `Drop` re-enters the platform.
    fn detach(&mut self, slot: u32) -> InstanceState<F> {
        self.idle_unlink(slot);
        let state = self.slots[slot as usize].take().expect("live slot");
        self.free_slots.push(slot);
        let id = state.ctx.instance;
        self.id_to_slot[id.raw() as usize] = NIL;
        if let Ok(pos) = self.live_ids.binary_search(&id) {
            self.live_ids.remove(pos);
        }
        state.ctx.alive.set(false);
        self.used_vcpus = self.used_vcpus.saturating_sub(state.ctx.vcpus);
        let dep = state.ctx.deployment.raw() as usize;
        self.deployments[dep].instances.retain(|i| *i != id);
        if !state.warm {
            self.deployments[dep].starting -= 1;
        }
        state
    }
}

/// The shared platform state plus a self-reference so pooled responders
/// (which hold `Rc<dyn CompletionSink>` pointing here) can rebuild a
/// [`Platform`] handle when they complete.
struct Core<F: Function> {
    weak: Weak<Core<F>>,
    inner: RefCell<Inner<F>>,
}

impl<F: Function> Core<F> {
    fn platform(&self) -> Platform<F> {
        Platform { core: self.weak.upgrade().expect("platform core alive") }
    }
}

impl<F: Function> CompletionSink<F::Resp> for Core<F> {
    fn complete(&self, sim: &mut Sim, slot: u32, resp: F::Resp) {
        let inv = {
            let mut inner = self.inner.borrow_mut();
            let inv = inner.invocations[slot as usize].take();
            if inv.is_some() {
                inner.free_invocations.push(slot);
            }
            inv
        };
        let Some(inv) = inv else { return };
        let this = self.platform();
        if this.finish_request(sim, inv.instance, inv.is_http) {
            inv.respond.send(sim, resp);
        }
    }

    fn abandon(&self, slot: u32) {
        let inv = {
            let mut inner = self.inner.borrow_mut();
            let inv = inner.invocations[slot as usize].take();
            if inv.is_some() {
                inner.free_invocations.push(slot);
            }
            inv
        };
        // Dropped here, outside the borrow: the parked responder may itself
        // be pooled (a function can forward its responder into another
        // invocation), and its Drop re-enters `abandon`.
        drop(inv);
    }
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
            .field("instances", &inner.live_ids.len())
            .field("used_vcpus", &inner.used_vcpus)
            .finish()
    }
}

impl<F: Function> Platform<F> {
    /// Creates a platform with no deployments.
    #[must_use]
    pub fn new(cfg: &PlatformConfig) -> Self {
        let core = Rc::new_cyclic(|weak| Core {
            weak: weak.clone(),
            inner: RefCell::new(Inner {
                snap: ConfigSnapshot::of(cfg),
                deployments: Vec::new(),
                slots: Vec::new(),
                free_slots: Vec::new(),
                id_to_slot: Vec::new(),
                live_ids: Vec::new(),
                invocations: Vec::new(),
                free_invocations: Vec::new(),
                next_instance: 0,
                used_vcpus: 0,
                peak_vcpus: 0,
                pay_meter: CostMeter::new(),
                prov_meter: CostMeter::new(),
                gauge: GaugeSeries::new(),
                stats: PlatformStats::default(),
                maintenance_running: false,
                maintenance_stopped: false,
                victims_scratch: Vec::new(),
                remaining_scratch: Vec::new(),
                cold_start_factor: 1.0,
            }),
        });
        Platform { core }
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
            name: Rc::from(name.into()),
            config,
            factory,
            instances: Vec::new(),
            queue: VecDeque::new(),
            starting: 0,
            ready: BinaryHeap::new(),
            idle_head: NIL,
            idle_tail: NIL,
        });
        id
    }

    /// The name a deployment was registered under. Cheap: a shared handle,
    /// not a fresh `String`.
    #[must_use]
    pub fn deployment_name(&self, deployment: DeploymentId) -> Rc<str> {
        Rc::clone(&self.core.inner.borrow().deployments[deployment.0 as usize].name)
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

    /// vCPUs currently allocated.
    #[must_use]
    pub fn vcpus_used(&self) -> u32 {
        self.core.inner.borrow().used_vcpus
    }

    /// Total pay-per-use (AWS-Lambda-model) cost so far.
    #[must_use]
    pub fn pay_per_use_cost(&self) -> f64 {
        self.core.inner.borrow().pay_meter.total()
    }

    /// Total cost under the "simplified" model (instances billed while
    /// provisioned; Fig. 9's `λFS (Simplified)` curve). Only accumulates
    /// while maintenance is running (it is sampled by the billing tick).
    #[must_use]
    pub fn provisioned_cost(&self) -> f64 {
        self.core.inner.borrow().prov_meter.total()
    }

    /// Snapshot of the pay-per-use cost meter (per-second series).
    #[must_use]
    pub fn pay_meter(&self) -> CostMeter {
        self.core.inner.borrow().pay_meter.clone()
    }

    /// Snapshot of the provisioned-cost meter.
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
        let inner = self.core.inner.borrow();
        inner.deployments[deployment.0 as usize]
            .instances
            .iter()
            .copied()
            .filter(|id| inner.slot_of(*id).is_some_and(|slot| inner.state(slot).warm))
            .collect()
    }

    /// The earliest-created warm instance of `deployment`, if any — the
    /// O(1)-ish replacement for `warm_instances(d).first()` (it stops at
    /// the first warm instance instead of materializing the whole list).
    #[must_use]
    pub fn first_warm_instance(&self, deployment: DeploymentId) -> Option<InstanceId> {
        let inner = self.core.inner.borrow();
        inner.deployments[deployment.0 as usize]
            .instances
            .iter()
            .copied()
            .find(|id| inner.slot_of(*id).is_some_and(|slot| inner.state(slot).warm))
    }

    /// Total provisioned instances (starting + warm) across deployments.
    #[must_use]
    pub fn total_instances(&self) -> usize {
        self.core.inner.borrow().live_ids.len()
    }

    /// Per-instance request-slot occupancy (diagnostics): `(instance,
    /// deployment, active_http, active_total, warm)`, in ascending
    /// instance-id order.
    #[must_use]
    pub fn instance_slots(&self) -> Vec<(InstanceId, DeploymentId, u32, u32, bool)> {
        let inner = self.core.inner.borrow();
        inner
            .live_ids
            .iter()
            .map(|id| {
                let st = inner.state(inner.slot_of(*id).expect("live id"));
                (*id, st.ctx.deployment, st.active_http, st.active_total, st.warm)
            })
            .collect()
    }

    /// HTTP load (active requests + queue depth) of a deployment.
    #[must_use]
    pub fn deployment_load(&self, deployment: DeploymentId) -> usize {
        let inner = self.core.inner.borrow();
        let dep = &inner.deployments[deployment.0 as usize];
        let active: u32 = dep
            .instances
            .iter()
            .filter_map(|id| inner.slot_of(*id))
            .map(|slot| inner.state(slot).active_http)
            .sum();
        active as usize + dep.queue.len()
    }

    /// Starts the periodic reclamation + billing ticks. Idempotent. The
    /// ticks run until [`Platform::stop_maintenance`]; drive the simulation
    /// with `run_until`/`run_for` while they are armed.
    pub fn run_maintenance(&self, sim: &mut Sim) {
        {
            let mut inner = self.core.inner.borrow_mut();
            if inner.maintenance_running {
                return;
            }
            inner.maintenance_running = true;
            inner.maintenance_stopped = false;
        }
        let scan = self.core.inner.borrow().snap.scan_every;
        let this = self.clone();
        lambda_sim::every(sim, sim.now() + scan, scan, move |sim| {
            if this.core.inner.borrow().maintenance_stopped {
                return false;
            }
            this.reclaim_idle(sim);
            true
        });
        let this = self.clone();
        let tick = SimDuration::from_secs(1);
        lambda_sim::every(sim, sim.now() + tick, tick, move |sim| {
            if this.core.inner.borrow().maintenance_stopped {
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
            let mut inner = self.core.inner.borrow_mut();
            inner.stats.http_invocations += 1;
            (inner.snap.http_overhead, inner.snap.pricing)
        };
        let now = sim.now();
        self.core.inner.borrow_mut().pay_meter.charge_lambda_request(now, &pricing);
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
            inner.deployments[deployment.0 as usize]
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
            let inner = self.core.inner.borrow();
            let dep = &inner.deployments[deployment.0 as usize];
            let queue_len = dep.queue.len() as u32;
            if queue_len == 0 {
                (false, false, false)
            } else {
                let dep_count = dep.instances.len() as u32;
                let wants = dep_count < dep.config.max_instances
                    && queue_len > dep.starting * dep.config.concurrency.max(1);
                let capacity =
                    inner.used_vcpus + dep.config.vcpus <= inner.snap.cluster_vcpus;
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
                inner.used_vcpus + dep.config.vcpus <= inner.snap.cluster_vcpus
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
    ///
    /// Cold path (only runs when a deployment is starving at the cap), so
    /// it keeps the straightforward full scan — over `live_ids`, which
    /// matches the old `BTreeMap` iteration order exactly.
    fn evict_for(&self, sim: &mut Sim, deployment: DeploymentId) -> bool {
        const EVICTION_GRACE: SimDuration = SimDuration::from_millis(2_000);
        let victim = {
            let inner = self.core.inner.borrow();
            let now = sim.now();
            inner
                .live_ids
                .iter()
                .map(|id| (*id, inner.state(inner.slot_of(*id).expect("live id"))))
                .filter(|(_, st)| {
                    st.warm
                        && st.ctx.deployment != deployment
                        && st.active_http == 0
                        && now.saturating_since(st.created) >= EVICTION_GRACE
                })
                .max_by_key(|(id, st)| {
                    let dep_size =
                        inner.deployments[st.ctx.deployment.0 as usize].instances.len();
                    (dep_size, std::cmp::Reverse(st.last_activity), std::cmp::Reverse(*id))
                })
                .map(|(id, _)| id)
        };
        let Some(victim) = victim else { return false };
        let removed = {
            let mut inner = self.core.inner.borrow_mut();
            let Some(slot) = inner.slot_of(victim) else { return false };
            let state = inner.detach(slot);
            if let Some(since) = state.active_since {
                let (pricing, now) = (inner.snap.pricing, sim.now());
                inner.pay_meter.charge_lambda_execution(
                    now,
                    &pricing,
                    now.saturating_since(since),
                    state.ctx.mem_gb,
                );
            }
            inner.stats.evictions += 1;
            let count = inner.live_ids.len() as f64;
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
    /// least load, if any: the first ready-heap entry that still matches
    /// its instance's current `(active_http, id)` — stale entries are
    /// popped on the way. Matching entries were pushed while eligible, so
    /// a match is exactly the old scan's `min_by_key((active_http, id))`.
    fn pick_free_instance(&self, deployment: DeploymentId) -> Option<InstanceId> {
        let mut guard = self.core.inner.borrow_mut();
        let inner = &mut *guard;
        let d = deployment.0 as usize;
        let conc = inner.deployments[d].config.concurrency;
        loop {
            let Reverse((h, raw)) = *inner.deployments[d].ready.peek()?;
            let valid = match inner.slot_of(InstanceId(raw)) {
                Some(slot) => {
                    let st = inner.state(slot);
                    st.warm && st.active_http == h && h < conc
                }
                None => false,
            };
            if valid {
                return Some(InstanceId(raw));
            }
            inner.deployments[d].ready.pop();
        }
    }

    fn begin_cold_start(&self, sim: &mut Sim, deployment: DeploymentId) {
        let (instance, cold_start, factor) = {
            let mut guard = self.core.inner.borrow_mut();
            let inner = &mut *guard;
            inner.next_instance += 1;
            let id = InstanceId(inner.next_instance);
            let dep = &mut inner.deployments[deployment.0 as usize];
            let config = dep.config.clone();
            dep.instances.push(id);
            dep.starting += 1;
            let ctx = Rc::new(InstanceCtx {
                instance: id,
                deployment,
                cpu: Station::new(format!("{}-{}", dep.name, id.0), config.vcpus.max(1)),
                vcpus: config.vcpus,
                mem_gb: config.mem_gb,
                alive: Rc::new(Cell::new(true)),
            });
            let state = InstanceState {
                ctx,
                function: None,
                warm: false,
                active_http: 0,
                active_total: 0,
                active_since: None,
                last_activity: sim.now(),
                created: sim.now(),
                idle_prev: NIL,
                idle_next: NIL,
                in_idle: false,
            };
            let slot = inner.alloc_slot(state);
            let raw = id.raw() as usize;
            if inner.id_to_slot.len() <= raw {
                inner.id_to_slot.resize(raw + 1, NIL);
            }
            inner.id_to_slot[raw] = slot;
            inner.live_ids.push(id); // new id is the max: stays sorted
            inner.used_vcpus += config.vcpus;
            inner.peak_vcpus = inner.peak_vcpus.max(inner.used_vcpus);
            inner.stats.cold_starts += 1;
            let count = inner.live_ids.len() as f64;
            let now = sim.now();
            inner.gauge.observe(now, count);
            (id, inner.snap.cold_start, inner.cold_start_factor)
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
        let built = {
            let inner = self.core.inner.borrow();
            let Some(slot) = inner.slot_of(instance) else {
                return; // killed while starting
            };
            let dep = &inner.deployments[deployment.0 as usize];
            let ctx = Rc::clone(&inner.state(slot).ctx);
            let function = (dep.factory)(&ctx);
            (function, ctx)
        };
        let (mut function, ctx) = built;
        function.on_start(sim, &ctx);
        let leftover = {
            let mut guard = self.core.inner.borrow_mut();
            let inner = &mut *guard;
            match inner.slot_of(instance) {
                Some(slot) => {
                    {
                        let st = inner.state_mut(slot);
                        st.function = Some(function);
                        st.warm = true;
                        st.last_activity = sim.now();
                    }
                    inner.deployments[deployment.0 as usize].starting -= 1;
                    inner.idle_push_back(slot); // just warmed: no in-flight work
                    inner.push_ready(slot);
                    None
                }
                None => Some(function), // killed during on_start
            }
        };
        if leftover.is_some() {
            drop(leftover); // outside the borrow
            return;
        }
        self.drain_queue(sim, deployment);
    }

    fn drain_queue(&self, sim: &mut Sim, deployment: DeploymentId) {
        // Expired requests are popped under the borrow but dropped outside
        // it (their responders may be pooled and re-enter on Drop). The
        // vec allocates only when something actually expired.
        let mut expired: Vec<Queued<F>> = Vec::new();
        loop {
            let has_work = {
                let mut inner = self.core.inner.borrow_mut();
                let ttl = inner.snap.request_ttl;
                let now = sim.now();
                let dep = &mut inner.deployments[deployment.0 as usize];
                // Drop expired invocations first.
                let mut n = 0;
                while dep
                    .queue
                    .front()
                    .is_some_and(|q| now.saturating_since(q.enqueued) > ttl)
                {
                    expired.push(dep.queue.pop_front().expect("front exists"));
                    n += 1;
                }
                inner.stats.expired_requests += n;
                !inner.deployments[deployment.0 as usize].queue.is_empty()
            };
            expired.clear();
            if !has_work {
                return;
            }
            let Some(instance) = self.pick_free_instance(deployment) else { return };
            let queued = {
                let mut inner = self.core.inner.borrow_mut();
                inner.deployments[deployment.0 as usize].queue.pop_front()
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
            let inner = self.core.inner.borrow();
            inner.slot_of(instance).is_some_and(|slot| inner.state(slot).warm)
        };
        if !ok {
            return false;
        }
        self.core.inner.borrow_mut().stats.tcp_deliveries += 1;
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
        let mut respond = Some(respond);
        let prepared = {
            let mut guard = self.core.inner.borrow_mut();
            let inner = &mut *guard;
            match inner.slot_of(instance) {
                None => None,
                Some(slot) => {
                    {
                        let st = inner.state_mut(slot);
                        if is_http {
                            st.active_http += 1;
                        }
                        st.active_total += 1;
                        if st.active_total == 1 {
                            st.active_since = Some(sim.now());
                        }
                        st.last_activity = sim.now();
                    }
                    inner.idle_unlink(slot); // no longer idle (no-op if it wasn't)
                    if is_http {
                        inner.push_ready(slot); // re-key under the new active_http
                    }
                    match inner.state_mut(slot).function.take() {
                        Some(function) => {
                            let ctx = Rc::clone(&inner.state(slot).ctx);
                            let inv = Invocation {
                                instance,
                                is_http,
                                respond: respond.take().expect("unconsumed"),
                            };
                            let inv_slot = inner.alloc_invocation(inv);
                            Some((function, ctx, inv_slot))
                        }
                        None => None,
                    }
                }
            }
        };
        let Some((mut function, ctx, inv_slot)) = prepared else {
            // Instance dead (drop the request; the client times out), or the
            // function is mid-call (re-entrant dispatch) — the latter cannot
            // happen because dispatch always returns the function before
            // yielding to the event loop. `respond`/`req` drop here, outside
            // the borrow.
            return;
        };
        let sink: Rc<dyn CompletionSink<F::Resp>> = Rc::clone(&self.core) as _;
        let wrapped = Responder::pooled(sink, inv_slot);
        function.on_request(sim, &ctx, req, wrapped);
        let leftover = {
            let mut inner = self.core.inner.borrow_mut();
            match inner.slot_of(instance) {
                Some(slot) => {
                    inner.state_mut(slot).function = Some(function);
                    None
                }
                // Killed during the call; the function is dropped below,
                // outside the borrow.
                None => Some(function),
            }
        };
        drop(leftover);
    }

    /// Releases a request slot. Returns whether the instance is still
    /// alive (dead instances' responses are suppressed).
    fn finish_request(&self, sim: &mut Sim, instance: InstanceId, is_http: bool) -> bool {
        let deployment = {
            let mut guard = self.core.inner.borrow_mut();
            let inner = &mut *guard;
            let pricing = inner.snap.pricing;
            let Some(slot) = inner.slot_of(instance) else { return false };
            let (charge, deployment, now_idle);
            {
                let st = inner.state_mut(slot);
                if is_http {
                    st.active_http = st.active_http.saturating_sub(1);
                }
                st.active_total = st.active_total.saturating_sub(1);
                st.last_activity = sim.now();
                charge = if st.active_total == 0 {
                    st.active_since
                        .take()
                        .map(|since| (sim.now().saturating_since(since), st.ctx.mem_gb))
                } else {
                    None
                };
                deployment = st.ctx.deployment;
                now_idle = st.warm && st.active_total == 0;
            }
            if now_idle {
                inner.idle_push_back(slot);
            }
            if is_http {
                inner.push_ready(slot); // a slot freed up: re-key
            }
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
        let removed = {
            let mut guard = self.core.inner.borrow_mut();
            let inner = &mut *guard;
            let Some(slot) = inner.slot_of(instance) else { return };
            let state = inner.detach(slot);
            let pricing = inner.snap.pricing;
            if let Some(since) = state.active_since {
                let now = sim.now();
                inner.pay_meter.charge_lambda_execution(
                    now,
                    &pricing,
                    now.saturating_since(since),
                    state.ctx.mem_gb,
                );
            }
            inner.stats.kills += 1;
            let count = inner.live_ids.len() as f64;
            let now = sim.now();
            inner.gauge.observe(now, count);
            state
        };
        // The killed function may hold pooled responders whose Drop
        // re-enters the platform: drop it outside the borrow.
        drop(removed);
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
        let victims: Vec<InstanceId> = {
            let inner = self.core.inner.borrow();
            inner
                .live_ids
                .iter()
                .filter(|id| {
                    let slot = inner.slot_of(**id).expect("live id has a slot");
                    let st = inner.state(slot);
                    st.warm && deployment.is_none_or(|d| st.ctx.deployment == d)
                })
                .take(count as usize)
                .copied()
                .collect()
        };
        for &id in &victims {
            self.kill_instance(sim, id);
        }
        victims.len() as u32
    }

    /// Sets the cold-start latency multiplier (fault injection). `1.0`
    /// restores normal behavior.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    pub fn set_cold_start_factor(&self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "cold-start factor must be positive");
        self.core.inner.borrow_mut().cold_start_factor = factor;
    }

    /// Schedules a cold-start storm: from `from` to `until` every cold
    /// start takes `factor`× its sampled latency.
    pub fn cold_start_storm(&self, sim: &mut Sim, from: SimTime, until: SimTime, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "cold-start factor must be positive");
        let this = self.clone();
        sim.schedule_at(from, move |_sim| this.set_cold_start_factor(factor));
        let this = self.clone();
        sim.schedule_at(until, move |_sim| this.set_cold_start_factor(1.0));
    }

    /// Number of dispatched-but-uncompleted invocations parked in the
    /// platform (auditor aid: must be zero after a run drains).
    #[must_use]
    pub fn pending_invocations(&self) -> usize {
        self.core.inner.borrow().invocations.iter().filter(|i| i.is_some()).count()
    }

    /// Number of HTTP requests still queued at deployment gateways
    /// (auditor aid: must be zero after a run drains).
    #[must_use]
    pub fn queued_requests(&self) -> usize {
        self.core.inner.borrow().deployments.iter().map(|d| d.queue.len()).sum()
    }

    /// Instance-slab occupancy as `(total slots, free slots)` — a killed
    /// instance's slot must return to the freelist and be reused by the
    /// next cold start.
    #[must_use]
    pub fn instance_slab(&self) -> (usize, usize) {
        let inner = self.core.inner.borrow();
        (inner.slots.len(), inner.free_slots.len())
    }

    /// Scale-in: terminate warm instances idle past the threshold, never
    /// shrinking a deployment below its floor. Walks only the per-
    /// deployment idle lists (candidates), then replays the old full-scan
    /// selection exactly: candidates sorted ascending by id, floors applied
    /// in that order, victims terminated one by one.
    fn reclaim_idle(&self, sim: &mut Sim) {
        let victims = {
            let mut guard = self.core.inner.borrow_mut();
            let inner = &mut *guard;
            let mut victims = mem::take(&mut inner.victims_scratch);
            victims.clear();
            let idle_after = inner.snap.idle_after;
            let now = sim.now();
            // Candidates: the idle-past-threshold prefix of each list
            // (sorted by last_activity, so the walk stops at the first
            // still-fresh instance).
            for d in 0..inner.deployments.len() {
                let mut slot = inner.deployments[d].idle_head;
                while slot != NIL {
                    let st = inner.state(slot);
                    if now.saturating_since(st.last_activity) < idle_after {
                        break;
                    }
                    victims.push(st.ctx.instance);
                    slot = st.idle_next;
                }
            }
            victims.sort_unstable();
            // Per-deployment floors, applied in ascending-id order as the
            // old whole-table scan did.
            let mut remaining = mem::take(&mut inner.remaining_scratch);
            remaining.clear();
            remaining.extend(inner.deployments.iter().map(|d| d.instances.len()));
            victims.retain(|id| {
                let slot = inner.slot_of(*id).expect("idle candidate is live");
                let dep = inner.state(slot).ctx.deployment.0 as usize;
                let floor = inner.deployments[dep].config.min_instances as usize;
                if remaining[dep] > floor {
                    remaining[dep] -= 1;
                    true
                } else {
                    false
                }
            });
            inner.remaining_scratch = remaining;
            victims
        };
        for &instance in &victims {
            let removed = {
                let mut guard = self.core.inner.borrow_mut();
                let inner = &mut *guard;
                let Some(slot) = inner.slot_of(instance) else { continue };
                let state = inner.detach(slot);
                inner.stats.reclaims += 1;
                let count = inner.live_ids.len() as f64;
                let now = sim.now();
                inner.gauge.observe(now, count);
                state
            };
            let InstanceState { mut function, ctx, .. } = removed;
            if let Some(f) = function.as_mut() {
                f.on_terminate(sim, &ctx, true);
            }
        }
        let mut victims = victims;
        victims.clear();
        self.core.inner.borrow_mut().victims_scratch = victims;
    }

    fn billing_tick(&self, sim: &mut Sim, tick: SimDuration) {
        let mut guard = self.core.inner.borrow_mut();
        let inner = &mut *guard;
        let pricing = inner.snap.pricing;
        let now = sim.now();
        // Provisioned model: every live instance pays for the whole tick.
        // Both sums run in ascending-id order — the old `BTreeMap` order —
        // because floating-point accumulation order is observable.
        let mut provisioned_gb = 0.0f64;
        for id in &inner.live_ids {
            let slot = inner.id_to_slot[id.raw() as usize];
            provisioned_gb += inner.slots[slot as usize].as_ref().expect("live slot").ctx.mem_gb;
        }
        if provisioned_gb > 0.0 {
            inner.prov_meter.charge_lambda_execution(now, &pricing, tick, provisioned_gb);
        }
        // Pay-per-use model: flush open active intervals so the per-second
        // cost series stays smooth.
        let mut flush = 0.0f64;
        for i in 0..inner.live_ids.len() {
            let slot = inner.id_to_slot[inner.live_ids[i].raw() as usize];
            let state = inner.slots[slot as usize].as_mut().expect("live slot");
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
