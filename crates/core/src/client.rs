//! The λFS client library (paper §3.2, Appendices B and C).
//!
//! Clients submit metadata RPCs through a hybrid transport:
//!
//! * **TCP** whenever a connection to the owning deployment exists — one
//!   network hop, 1–2 ms end-to-end;
//! * **HTTP** through the FaaS API gateway otherwise — 8–20 ms, but
//!   FaaS-visible, so it is also the auto-scaling trigger. Each TCP RPC is
//!   probabilistically *replaced* by an HTTP RPC (≤ 1 %) so bursts keep
//!   scaling out (§3.4).
//!
//! The library also implements:
//!
//! * **connection registration**: a NameNode that serves a request
//!   "establishes a TCP connection back" — modeled by recording the
//!   serving instance against the client's TCP server;
//! * **connection sharing** (Fig. 4): a client with no connection of its
//!   own borrows one from another TCP server on its VM;
//! * **retries with exponential backoff + jitter** on timeout, avoiding
//!   the request storms of §3.2;
//! * **straggler mitigation** (Appendix B): requests outliving
//!   `threshold ×` the moving-average latency are resubmitted early;
//! * **anti-thrashing mode** (Appendix C): when latency blows past `T ×`
//!   the moving average — the thrashing signature — the client stops
//!   issuing HTTP invocations entirely, reusing any live TCP connection
//!   (even to a foreign deployment, which then serves without caching).
//!
//! # One request's lifecycle
//!
//! `submit` parks the request in the slab and calls `try_send`, which
//! routes it (TCP or HTTP) and arms its timer. Every network leg — request
//! and reply, on either transport — crosses the fault plane through one
//! [`NetDecision::carry`]. A retryable answer, or a timer that fires before
//! any answer, goes to `resubmit`: the one place a try is counted and then
//! given up, shed, or resent after backoff. A final answer goes to
//! `complete`.
//!
//! # Memory layout
//!
//! The library is sized for the `fig08d_million_scale` sweep: a million
//! simulated clients must fit comfortably. Per-client state is 40 bytes —
//! a client's VM and TCP-server indices are *derived* from its id (the
//! placement is a fixed formula) rather than stored, and the moving
//! latency window is boxed on the client's first completed read and grows
//! with the samples it holds up to [`LATENCY_WINDOW`], where it becomes a
//! ring: at that scale the average client completes less than one read,
//! so neither an eager `VecDeque` nor a zeroed full-size ring per client
//! is affordable. In-flight requests live in a [`Slab`]: completion frees
//! the record at once, and timers and responders hold a 12-byte `Copy` key
//! that goes stale with it.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_faas::{DeploymentId, InstanceId, Platform, Responder};
use lambda_namespace::{FsError, FsOp, Partitioner};
use lambda_sim::fault::{FaultInjector, NetDecision};
use lambda_sim::{Sim, SimDuration, SimTime, Slab, SlabKey};

use crate::config::LambdaFsConfig;
use crate::fsops::OpDone;
use crate::messages::{ClientId, NnRequest, NnResponse, RequestId};
use crate::metrics::RunMetrics;
use crate::namenode::NameNode;

/// Floor for the straggler-resubmission deadline (the paper observes 1–5 ms
/// TCP RPCs and resubmits at ≥ 50 ms with the default threshold of 10).
const STRAGGLER_FLOOR: SimDuration = SimDuration::from_millis(50);
/// Floor for entering anti-thrashing mode: thrash manifests as
/// cold-start-scale latencies, not single-digit-millisecond jitter.
const ANTI_THRASH_FLOOR_SECS: f64 = 0.025;
/// Base delay for exponential backoff after a timeout.
const BACKOFF_BASE: SimDuration = SimDuration::from_millis(20);
/// Fault-plane network addressing: client VMs use their VM index as the
/// endpoint id; NameNode deployment `d` is endpoint `NN_ENDPOINT_BASE + d`.
const NN_ENDPOINT_BASE: u32 = 1000;
/// Retry-budget circuit breaker (token bucket, one token per retry). The
/// capacity is deliberately generous: a healthy client retries a handful
/// of times per run and never notices the breaker; only a client cut off
/// by a network partition burns through it and starts shedding.
const RETRY_BUDGET_CAPACITY: f64 = 50.0;
/// Tokens regained per simulated second of calm.
const RETRY_BUDGET_REFILL_PER_SEC: f64 = 10.0;
/// Latency samples in a client's moving average; anti-thrashing waits for
/// half of them.
const LATENCY_WINDOW: usize = 64;

/// A client-VM TCP server's connection table (generic over the instance
/// id type only so unit tests can drive it with plain integers).
#[derive(Debug)]
struct TcpServer<I = InstanceId> {
    /// (deployment index, connected instances), sorted by deployment. A
    /// server sees a handful of deployments, so a sorted vec beats a
    /// `HashMap`'s table allocation at a million-client scale and makes
    /// "first connected deployment" a linear prefix scan.
    connections: Vec<(u32, Vec<I>)>,
    /// Round-robin cursor so a server spreads load over every connected
    /// instance of a deployment rather than funneling into the first.
    next: std::cell::Cell<usize>,
}

impl<I> Default for TcpServer<I> {
    fn default() -> Self {
        TcpServer { connections: Vec::new(), next: std::cell::Cell::new(0) }
    }
}

impl<I: Copy + Eq> TcpServer<I> {
    fn connection_to(&self, deployment: u32) -> Option<I> {
        let idx = self.connections.binary_search_by_key(&deployment, |(d, _)| *d).ok()?;
        let conns = &self.connections[idx].1;
        if conns.is_empty() {
            return None;
        }
        let cursor = self.next.get();
        self.next.set(cursor.wrapping_add(1));
        Some(conns[cursor % conns.len()])
    }

    /// The lowest-numbered deployment with a live connection (the sorted
    /// order makes "lowest" the first hit).
    fn any_connection(&self) -> Option<(u32, I)> {
        self.connections.iter().find(|(_, v)| !v.is_empty()).map(|(d, v)| (*d, v[0]))
    }

    fn register(&mut self, deployment: u32, instance: I) {
        let conns = match self.connections.binary_search_by_key(&deployment, |(d, _)| *d) {
            Ok(idx) => &mut self.connections[idx].1,
            Err(idx) => {
                self.connections.insert(idx, (deployment, Vec::new()));
                &mut self.connections[idx].1
            }
        };
        if !conns.contains(&instance) {
            conns.push(instance);
        }
    }

    fn remove(&mut self, deployment: u32, instance: I) {
        if let Ok(idx) = self.connections.binary_search_by_key(&deployment, |(d, _)| *d) {
            self.connections[idx].1.retain(|i| *i != instance);
        }
    }
}

#[derive(Debug)]
struct Vm {
    servers: Vec<TcpServer>,
}

/// Ring of the most recent read latencies (seconds), summed
/// oldest-to-newest whichever way the ring has wrapped, so the moving
/// average is one well-defined float.
///
/// The buffer grows by pushing until it holds `cap` samples and only then
/// wraps: most clients of a million-client run finish a handful of reads,
/// and a zeroed full-size ring apiece was most of that run's heap growth.
#[derive(Debug)]
struct LatencyWindow {
    buf: Vec<f64>,
    /// Index of the oldest sample (0 until the buffer is full).
    head: usize,
    /// Samples held before the ring starts overwriting.
    cap: usize,
}

impl LatencyWindow {
    fn boxed(cap: usize) -> Box<LatencyWindow> {
        Box::new(LatencyWindow { buf: Vec::new(), head: 0, cap })
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    /// Appends a sample, dropping the oldest once full.
    fn push(&mut self, v: f64) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head = (self.head + 1) % self.cap;
        }
    }

    fn avg(&self) -> Option<f64> {
        if self.buf.is_empty() {
            return None;
        }
        // Oldest to newest is at most two contiguous runs: from `head` to
        // the end of the buffer, then the wrapped-around front.
        let (front, tail) = self.buf.split_at(self.head);
        let mut sum = 0.0;
        for v in tail.iter().chain(front) {
            sum += v;
        }
        Some(sum / self.buf.len() as f64)
    }
}

/// Per-client resident state: 40 bytes. The client's id, VM, and TCP
/// server are all derived from its index (see [`LibInner::placement`]),
/// and the latency window is allocated only once the client completes its
/// first read.
#[derive(Debug)]
struct ClientState {
    next_seq: u64,
    /// Remaining retry-budget tokens (circuit breaker).
    retry_tokens: f64,
    /// When the token bucket was last refilled.
    last_refill: SimTime,
    /// Moving window of recent end-to-end latencies (seconds), allocated
    /// on the first read and grown on demand up to [`LATENCY_WINDOW`].
    window: Option<Box<LatencyWindow>>,
    anti_thrash: bool,
}

impl ClientState {
    fn new() -> ClientState {
        ClientState {
            next_seq: 0,
            retry_tokens: RETRY_BUDGET_CAPACITY,
            last_refill: SimTime::ZERO,
            window: None,
            anti_thrash: false,
        }
    }

    fn avg_latency(&self) -> Option<f64> {
        self.window.as_ref().and_then(|w| w.avg())
    }

    fn window_len(&self) -> usize {
        self.window.as_ref().map_or(0, |w| w.len())
    }

    /// Refills the retry budget for the calm since the last refill, then
    /// tries to spend one token. `false` means the budget is gone and the
    /// retry must be shed instead of sent.
    fn take_retry_token(&mut self, now: SimTime) -> bool {
        let calm = now.saturating_since(self.last_refill).as_secs_f64();
        self.last_refill = now;
        self.retry_tokens =
            (self.retry_tokens + calm * RETRY_BUDGET_REFILL_PER_SEC).min(RETRY_BUDGET_CAPACITY);
        if self.retry_tokens >= 1.0 {
            self.retry_tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// One in-flight request record. Completion removes it from the slab, so
/// a record lives exactly as long as the request is outstanding — not
/// until the last retry timer referencing it fires.
struct Attempt {
    op: FsOp,
    id: RequestId,
    started: SimTime,
    tries: u32,
    done: Option<OpDone>,
}

/// `Copy` handle to an in-flight request: its slab key, stale once the
/// request completed, so timers and duplicate responses check liveness
/// with one compare. Carries the issuing client's index so connection
/// registration works even after completion — a duplicate response's
/// connection-back is still worth recording.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AttemptKey {
    slot: SlabKey,
    client: u32,
}

struct LibInner {
    config: Rc<LambdaFsConfig>,
    platform: Platform<NameNode>,
    deployments: Vec<DeploymentId>,
    partitioner: Rc<Partitioner>,
    vms: Vec<Vm>,
    clients: Vec<ClientState>,
    /// Client-placement constants (see [`LibInner::placement`]).
    vm_count: usize,
    per_server: usize,
    attempts: Slab<Attempt>,
    metrics: Rc<RefCell<RunMetrics>>,
    /// Network fault injector, when a fault plan is installed. `None`
    /// delivers every hop without a draw, so fault-free runs replay
    /// bit-identically.
    injector: Option<FaultInjector>,
}

impl LibInner {
    /// A client's `(vm, tcp server)` placement, derived from its index:
    /// clients round-robin over VMs, then fill each VM's servers
    /// `per_server` at a time. Storing these per client would be 16 dead
    /// bytes × a million clients.
    fn placement(&self, client: usize) -> (usize, usize) {
        let vm = client % self.vm_count;
        let index_on_vm = client / self.vm_count;
        (vm, index_on_vm / self.per_server)
    }
}

/// The client library handle; one instance serves all simulated clients.
#[derive(Clone)]
pub struct ClientLib {
    inner: Rc<RefCell<LibInner>>,
}

impl std::fmt::Debug for ClientLib {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("ClientLib")
            .field("clients", &inner.clients.len())
            .field("vms", &inner.vms.len())
            .field("in_flight", &inner.attempts.len())
            .finish()
    }
}

impl ClientLib {
    /// Builds the library for `config.clients` clients spread over
    /// `config.client_vms` VMs.
    #[must_use]
    pub fn new(
        config: Rc<LambdaFsConfig>,
        platform: Platform<NameNode>,
        deployments: Vec<DeploymentId>,
        partitioner: Rc<Partitioner>,
        metrics: Rc<RefCell<RunMetrics>>,
    ) -> Self {
        let vm_count = config.client_vms.max(1) as usize;
        let per_server = config.clients_per_tcp_server.max(1) as usize;
        let n = config.clients.max(1) as usize;
        let clients: Vec<ClientState> = (0..n).map(|_| ClientState::new()).collect();
        let mut vms: Vec<Vm> = (0..vm_count).map(|_| Vm { servers: Vec::new() }).collect();
        for i in 0..n {
            let vm = i % vm_count;
            let server = (i / vm_count) / per_server;
            while vms[vm].servers.len() <= server {
                vms[vm].servers.push(TcpServer::default());
            }
        }
        ClientLib {
            inner: Rc::new(RefCell::new(LibInner {
                config,
                platform,
                deployments,
                partitioner,
                vms,
                clients,
                vm_count,
                per_server,
                attempts: Slab::default(),
                metrics,
                injector: None,
            })),
        }
    }

    /// Number of simulated clients.
    #[must_use]
    pub fn client_count(&self) -> usize {
        self.inner.borrow().clients.len()
    }

    /// Installs a network fault injector; every client↔NameNode hop
    /// consults it from now on. Without one (the default) every hop is
    /// delivered without a draw, so fault-free goldens stay byte-identical.
    pub fn install_fault_injector(&self, injector: FaultInjector) {
        self.inner.borrow_mut().injector = Some(injector);
    }

    /// Network-fault counters `(dropped, duplicated, delayed)` from the
    /// installed injector; zeros when none is installed.
    #[must_use]
    pub fn fault_stats(&self) -> (u64, u64, u64) {
        let inner = self.inner.borrow();
        inner
            .injector
            .as_ref()
            .map_or((0, 0, 0), |i| (i.dropped(), i.duplicated(), i.delayed()))
    }

    /// One fault-plane routing decision; `Deliver` (with zero RNG drawn)
    /// when no injector is installed.
    fn net_decide(&self, now: SimTime, src: u32, dst: u32) -> NetDecision {
        let mut inner = self.inner.borrow_mut();
        match inner.injector.as_mut() {
            Some(inj) => inj.decide(now, src, dst),
            None => NetDecision::Deliver,
        }
    }

    /// Submits `op` on behalf of client `client`, calling `done` with the
    /// final result after transparent retries.
    ///
    /// # Panics
    ///
    /// Panics if `client` is out of range.
    pub fn submit(&self, sim: &mut Sim, client: usize, op: FsOp, done: OpDone) {
        let key = {
            let mut inner = self.inner.borrow_mut();
            inner.metrics.borrow_mut().issued += 1;
            let state = &mut inner.clients[client];
            state.next_seq += 1;
            let id = RequestId { client: ClientId(client as u32), seq: state.next_seq };
            let rec = Attempt { op, id, started: sim.now(), tries: 0, done: Some(done) };
            AttemptKey { slot: inner.attempts.insert(rec), client: client as u32 }
        };
        self.try_send(sim, key);
    }

    /// Routing decision + dispatch for one (re)try.
    fn try_send(&self, sim: &mut Sim, key: AttemptKey) {
        let client = key.client as usize;
        // `tcp` is the connection to use and whether it was borrowed;
        // `None` sends through the HTTP gateway.
        let (deployment, tcp, request, timeout, src, tries_at_send) = {
            let inner = self.inner.borrow();
            let Some(a) = inner.attempts.get(key.slot) else {
                return; // completed while a timer was in flight
            };
            let state = &inner.clients[client];
            // Probabilistic HTTP replacement keeps auto-scaling alive (§3.4);
            // suspended in anti-thrashing mode (Appendix C).
            let replace = !state.anti_thrash && sim.rng().gen_bool(inner.config.http_replace_prob);
            let target = inner.partitioner.deployment_for_path(a.op.primary_path());
            let (vm_idx, server) = inner.placement(client);
            let servers = &inner.vms[vm_idx].servers;
            // A connection from the client's own TCP server, else one
            // borrowed from a sibling server (connection sharing, Fig. 4).
            let conn = servers[server].connection_to(target).map(|i| (i, false)).or_else(|| {
                servers
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != server)
                    .find_map(|(_, s)| s.connection_to(target))
                    .map(|i| (i, true))
            });
            let (deployment, tcp) = match conn {
                Some(conn) if !replace => (target, Some(conn)),
                Some(_) => {
                    inner.metrics.borrow_mut().http_replaced += 1;
                    (target, None)
                }
                // TCP-only mode: reuse *any* live connection rather than
                // invoking HTTP (which would add containers).
                None => match state
                    .anti_thrash
                    .then(|| servers.iter().find_map(TcpServer::any_connection))
                    .flatten()
                {
                    Some((dep, instance)) => (dep, Some((instance, true))),
                    None => {
                        let mut m = inner.metrics.borrow_mut();
                        m.http_no_connection += 1;
                        m.no_conn_timeline.add(sim.now(), 1.0);
                        (target, None) // bootstrap
                    }
                },
            };
            let request = NnRequest {
                id: a.id,
                op: a.op.clone(),
                via_http: tcp.is_none(),
                owned: deployment == target,
            };
            // Straggler mitigation (Appendix B): resubmit early when the
            // request outlives threshold × the moving average. The moving
            // average tracks read-class latency, so early resubmission is
            // applied to read-class operations only — duplicating a slow
            // (store-bound) write wastes store capacity for no benefit.
            let is_read = !a.op.is_write();
            let straggler = if is_read {
                state.avg_latency().map(|avg| {
                    SimDuration::from_secs_f64(avg * inner.config.straggler_threshold)
                        .max(STRAGGLER_FLOOR)
                })
            } else {
                None
            };
            let full = inner.config.client_timeout;
            let timeout = straggler.map_or(full, |s| s.min(full));
            (deployment, tcp, request, timeout, vm_idx as u32, a.tries)
        };
        // Dispatch: the request leg.
        let this = self.clone();
        let verdict = self.net_decide(sim.now(), src, NN_ENDPOINT_BASE + deployment);
        match tcp {
            Some((instance, shared)) => {
                {
                    let inner = self.inner.borrow();
                    let mut m = inner.metrics.borrow_mut();
                    m.tcp_rpcs += 1;
                    if shared {
                        m.connection_shares += 1;
                    }
                }
                // One network hop to the NameNode (and one back, charged in
                // `arrive_tcp`).
                let hop = {
                    let dist = self.inner.borrow().config.net.tcp_one_way;
                    sim.rng().sample_duration(&dist)
                };
                verdict.carry(sim, Some(hop), request, move |sim, request| {
                    this.arrive_tcp(sim, deployment, instance, request, key, src);
                });
            }
            None => {
                self.inner.borrow().metrics.borrow_mut().http_rpcs += 1;
                verdict.carry(sim, None, request, move |sim, request| {
                    this.send_http(sim, deployment, request, key, src);
                });
            }
        }
        // Arm the (re)submission timer.
        let this = self.clone();
        let straggler = timeout < self.inner.borrow().config.client_timeout;
        sim.schedule(timeout, move |sim| {
            let tries = this.inner.borrow().attempts.get(key.slot).map(|a| a.tries);
            if tries == Some(tries_at_send) {
                // Every attempt so far died on the wire: a true timeout.
                this.resubmit(sim, key, FsError::Timeout, straggler);
            }
        });
    }

    /// A TCP request arriving at `instance`: delivery, with the reply leg
    /// one sampled hop long.
    fn arrive_tcp(
        &self,
        sim: &mut Sim,
        deployment: u32,
        instance: InstanceId,
        request: NnRequest,
        key: AttemptKey,
        src: u32,
    ) {
        let (platform, dist) = {
            let inner = self.inner.borrow();
            (inner.platform.clone(), inner.config.net.tcp_one_way)
        };
        let back = sim.rng().sample_duration(&dist);
        let reply = self.reply(Some(back), deployment, key, src);
        if !platform.deliver_tcp(sim, instance, request, reply) {
            // Dead connection: forget it and reroute now
            // (§3.2's transparent TCP-failure handling).
            self.remove_connection(deployment, instance);
            self.try_send(sim, key);
        }
    }

    /// Ships `request` through the FaaS gateway, which charges both legs'
    /// latency itself.
    fn send_http(
        &self,
        sim: &mut Sim,
        deployment: u32,
        request: NnRequest,
        key: AttemptKey,
        src: u32,
    ) {
        let (platform, dep_id) = {
            let inner = self.inner.borrow();
            (inner.platform.clone(), inner.deployments[deployment as usize])
        };
        platform.invoke_http(sim, dep_id, request, self.reply(None, deployment, key, src));
    }

    /// The reply leg from `deployment` back to `on_response`, `base` long
    /// (see [`NetDecision::carry`]).
    fn reply(
        &self,
        base: Option<SimDuration>,
        deployment: u32,
        key: AttemptKey,
        src: u32,
    ) -> Responder<NnResponse> {
        let this = self.clone();
        Responder::new(move |sim, resp| {
            let verdict = this.net_decide(sim.now(), NN_ENDPOINT_BASE + deployment, src);
            verdict.carry(sim, base, resp, move |sim, resp| this.on_response(sim, key, resp));
        })
    }

    fn on_response(&self, sim: &mut Sim, key: AttemptKey, resp: NnResponse) {
        let NnResponse { result, served_by, deployment, .. } = resp;
        // Register the NameNode's connection-back even for duplicate
        // responses to a completed request — more routes is strictly
        // better (the key carries the client index precisely for this).
        {
            let mut inner = self.inner.borrow_mut();
            let (vm, server) = inner.placement(key.client as usize);
            inner.vms[vm].servers[server].register(deployment, served_by);
        }
        match result {
            // The service answered, just not with a final result: running
            // out of retries this way is not a timeout.
            Err(e) if e.is_transient() => {
                self.resubmit(sim, key, FsError::RetriesExhausted, false);
            }
            other => self.complete(sim, key, other),
        }
    }

    /// One failed try of a live request: counts it, then gives up with
    /// `exhausted` once past `max_retries`, or spends a retry-budget token
    /// and resends after jittered exponential backoff (anti-request-storm,
    /// §3.2). An empty budget sheds the request as
    /// [`FsError::RetriesExhausted`] instead (the circuit breaker).
    /// `straggler` marks an early resubmission (Appendix B). A completed
    /// request (a duplicate response) is left alone.
    fn resubmit(&self, sim: &mut Sim, key: AttemptKey, exhausted: FsError, straggler: bool) {
        let verdict = {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            let Some(a) = inner.attempts.get_mut(key.slot) else { return };
            a.tries += 1;
            let tries = a.tries;
            let mut m = inner.metrics.borrow_mut();
            m.retries += 1;
            if straggler {
                m.straggler_resubmits += 1;
            }
            if tries > inner.config.max_retries {
                Err(exhausted)
            } else if inner.clients[key.client as usize].take_retry_token(sim.now()) {
                Ok(tries)
            } else {
                m.load_sheds += 1;
                Err(FsError::RetriesExhausted)
            }
        };
        match verdict {
            Err(e) => self.complete(sim, key, Err(e)),
            Ok(tries) => {
                let factor = (1u64 << tries.min(6)) as f64 * sim.rng().gen_range(0.5..1.5);
                let this = self.clone();
                sim.schedule(BACKOFF_BASE.mul_f64(factor), move |sim| this.try_send(sim, key));
            }
        }
    }

    fn complete(&self, sim: &mut Sim, key: AttemptKey, result: lambda_namespace::OpResult) {
        let done = {
            let mut inner = self.inner.borrow_mut();
            // Removing the record frees the slot now and stales every
            // outstanding key.
            let Some(mut a) = inner.attempts.remove(key.slot) else {
                return;
            };
            let latency = sim.now().saturating_since(a.started);
            let metrics = Rc::clone(&inner.metrics);
            match &result {
                Ok(_) => {
                    metrics.borrow_mut().record_success(sim.now(), a.op.class(), latency);
                }
                Err(e) => {
                    metrics.borrow_mut().record_error(e);
                }
            }
            // Moving-average window + anti-thrashing transitions
            // (Appendix C). Only read-class latencies feed the window:
            // writes are store-bound and 10-100× slower by design, so
            // mixing them in would flap anti-thrashing on every write.
            if !a.op.is_write() {
                let thresh = inner.config.anti_thrash_threshold;
                let state = &mut inner.clients[key.client as usize];
                let avg = state.avg_latency();
                let lat = latency.as_secs_f64();
                if let Some(avg) = avg {
                    if state.window_len() >= LATENCY_WINDOW / 2 {
                        if !state.anti_thrash
                            && lat > (thresh * avg).max(ANTI_THRASH_FLOOR_SECS)
                        {
                            state.anti_thrash = true;
                            metrics.borrow_mut().anti_thrash_entries += 1;
                        } else if state.anti_thrash && lat <= 1.2 * avg {
                            state.anti_thrash = false;
                        }
                    }
                }
                state.window.get_or_insert_with(|| LatencyWindow::boxed(LATENCY_WINDOW)).push(lat);
            }
            a.done.take()
        };
        if let Some(done) = done {
            done(sim, result);
        }
    }

    fn remove_connection(&self, deployment: u32, instance: InstanceId) {
        let mut inner = self.inner.borrow_mut();
        for vm in &mut inner.vms {
            for server in &mut vm.servers {
                server.remove(deployment, instance);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_state_stays_compact() {
        // The fig08d sweep holds a million of these; placement fields and
        // an eager deque would double it.
        assert_eq!(std::mem::size_of::<ClientState>(), 40);
        assert_eq!(std::mem::size_of::<AttemptKey>(), 12);
    }

    #[test]
    fn latency_window_matches_deque_semantics() {
        use std::collections::VecDeque;
        // Fewer samples than capacity, then several times around.
        for cap in [4, 64] {
            let mut ring = LatencyWindow::boxed(cap);
            let mut deque: VecDeque<f64> = VecDeque::new();
            for i in 0..cap as u32 * 3 + 3 {
                let v = f64::from(i) * 0.25 + 0.001;
                ring.push(v);
                deque.push_back(v);
                if deque.len() > cap {
                    deque.pop_front();
                }
                assert_eq!(ring.len(), deque.len());
                let deque_avg = if deque.is_empty() {
                    None
                } else {
                    Some(deque.iter().sum::<f64>() / deque.len() as f64)
                };
                // Bit-identical, not approximately equal: the ring must sum
                // in the deque's oldest-first order.
                assert_eq!(ring.avg(), deque_avg);
            }
            assert_eq!(ring.buf.len(), cap);
        }
        // A client that stops after one read never pays for the whole
        // window.
        let mut ring = LatencyWindow::boxed(64);
        ring.push(0.002);
        assert!(ring.buf.capacity() < 64);
    }

    #[test]
    fn latency_window_sums_in_the_order_of_the_per_element_modulo_loop() {
        // The loop `avg` used before it summed two slices.
        fn avg_by_modulo(w: &LatencyWindow) -> Option<f64> {
            if w.buf.is_empty() {
                return None;
            }
            let mut sum = 0.0;
            for k in 0..w.buf.len() {
                sum += w.buf[(w.head + k) % w.cap];
            }
            Some(sum / w.buf.len() as f64)
        }
        let mut rng = lambda_sim::SimRng::new(0xA7);
        for cap in [1, 2, 3, 7, 64] {
            let mut ring = LatencyWindow::boxed(cap);
            assert_eq!(ring.avg(), None);
            // Several times around the ring, values spanning nine decades
            // so that the order of additions shows in the low bits.
            for _ in 0..cap * 5 + 3 {
                ring.push(10f64.powf(rng.gen_range(-6.0..3.0)));
                assert_eq!(ring.avg().map(f64::to_bits), avg_by_modulo(&ring).map(f64::to_bits));
            }
        }
    }

    #[test]
    fn tcp_server_keeps_connections_sorted() {
        let mut s: TcpServer<u64> = TcpServer::default();
        s.register(7, 70);
        s.register(2, 20);
        s.register(5, 50);
        s.register(2, 21);
        s.register(2, 20); // duplicate: ignored
        let deps: Vec<u32> = s.connections.iter().map(|(d, _)| *d).collect();
        assert_eq!(deps, vec![2, 5, 7]);
        assert_eq!(s.any_connection(), Some((2, 20)));
        s.remove(2, 20);
        s.remove(2, 21);
        assert_eq!(s.any_connection(), Some((5, 50)), "empty entries are skipped");
        assert!(s.connection_to(2).is_none());
        assert!(s.connection_to(5).is_some());
    }
}
