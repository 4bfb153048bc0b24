//! Shared machinery for serverful (VM-cluster) metadata services: a fixed
//! set of NameNode servers, a simple always-TCP client, per-second VM
//! billing, and fixed-membership cache coherence.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use lambda_fs::{CoherenceHook, InvalidationSet, OpDone, RoundDone, RunMetrics};
use lambda_namespace::{FsError, FsOp, MetadataCache, Partitioner};
use lambda_sim::params::NetParams;
use lambda_sim::{every, CostMeter, Sim, SimDuration, StationRef, VmPricing};

/// Transparent retries of a `Retryable` or `SubtreeLocked` reply.
const MAX_RETRIES: u32 = 6;

/// How client requests are spread over the server cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Routing {
    /// Round-robin per client — vanilla HopsFS (any stateless NameNode
    /// can serve any request).
    RoundRobin,
    /// Consistent-hash on the parent directory — HopsFS+Cache clients
    /// route to the caching NameNode that owns the partition (and hot
    /// directories can bottleneck a single server, §5.3.1).
    HashParent,
}

/// One serverful metadata node.
pub struct ServerNode {
    /// The node's CPU.
    pub cpu: StationRef,
    /// Its operation engine (cache/coherence as configured).
    pub engine: lambda_fs::OpEngine,
}

/// A fixed cluster of metadata servers with a TCP client library and VM
/// billing — the substrate for the HopsFS-family baselines. Cloning is
/// cheap; clones share the nodes, meters and metrics.
#[derive(Clone)]
pub struct ServerfulCluster {
    nodes: Rc<[ServerNode]>,
    routing: Routing,
    partitioner: Rc<Partitioner>,
    net: NetParams,
    vcpus_total: u32,
    pricing: VmPricing,
    meter: Rc<RefCell<CostMeter>>,
    metrics: Rc<RefCell<RunMetrics>>,
    clients: u32,
    next_rr: Rc<RefCell<usize>>,
    /// Billing generation, odd while billing. Starting and stopping each
    /// advance it, and a tick keeps running only while the generation it
    /// was armed in is current — so start → stop → start before the next
    /// tick never leaves the first tick running beside the second.
    billing: Rc<Cell<u64>>,
}

impl std::fmt::Debug for ServerfulCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerfulCluster")
            .field("nodes", &self.nodes.len())
            .field("routing", &self.routing)
            .field("vcpus", &self.vcpus_total)
            .finish()
    }
}

impl ServerfulCluster {
    /// Assembles a cluster from prebuilt nodes.
    #[must_use]
    pub fn new(
        nodes: Vec<ServerNode>,
        routing: Routing,
        partitioner: Rc<Partitioner>,
        net: NetParams,
        vcpus_total: u32,
        clients: u32,
    ) -> Self {
        ServerfulCluster {
            nodes: nodes.into(),
            routing,
            partitioner,
            net,
            vcpus_total,
            pricing: VmPricing::default(),
            meter: Rc::new(RefCell::new(CostMeter::new())),
            metrics: Rc::new(RefCell::new(RunMetrics::new())),
            clients: clients.max(1),
            next_rr: Rc::new(RefCell::new(0)),
            billing: Rc::new(Cell::new(0)),
        }
    }

    /// Total provisioned vCPUs (billed whether busy or idle).
    #[must_use]
    pub fn vcpus_total(&self) -> u32 {
        self.vcpus_total
    }

    /// Number of clients.
    #[must_use]
    pub fn clients(&self) -> u32 {
        self.clients
    }

    /// The client-observed metrics.
    #[must_use]
    pub fn metrics(&self) -> Rc<RefCell<RunMetrics>> {
        Rc::clone(&self.metrics)
    }

    /// The VM cost meter (per-second series; the Fig. 9 HopsFS curve).
    #[must_use]
    pub fn cost_meter(&self) -> CostMeter {
        self.meter.borrow().clone()
    }

    /// Total dollars billed so far.
    #[must_use]
    pub fn cost_total(&self) -> f64 {
        self.meter.borrow().total()
    }

    /// Starts per-second VM billing: the whole provisioned cluster is
    /// billed every second, idle or not (§5.2.5). Idempotent.
    pub fn start_billing(&self, sim: &mut Sim) {
        let epoch = self.billing.get() + 1;
        if epoch.is_multiple_of(2) {
            return; // already billing
        }
        self.billing.set(epoch);
        let meter = Rc::clone(&self.meter);
        let pricing = self.pricing;
        let vcpus = f64::from(self.vcpus_total);
        let billing = Rc::clone(&self.billing);
        every(sim, sim.now() + SimDuration::from_secs(1), SimDuration::from_secs(1), move |sim| {
            if billing.get() != epoch {
                return false;
            }
            meter.borrow_mut().charge_vm(sim.now(), &pricing, vcpus, SimDuration::from_secs(1));
            true
        });
    }

    /// Stops billing at its next tick.
    pub fn stop_billing(&self) {
        let epoch = self.billing.get();
        self.billing.set(epoch + epoch % 2);
    }

    fn pick_node(&self, client: usize, op: &FsOp) -> usize {
        match self.routing {
            Routing::RoundRobin => {
                let mut rr = self.next_rr.borrow_mut();
                *rr = (*rr + client) % self.nodes.len().max(1);
                *rr
            }
            Routing::HashParent => {
                self.partitioner.deployment_for_path(op.primary_path()) as usize
                    % self.nodes.len().max(1)
            }
        }
    }

    /// Submits `op` with transparent retry of transient failures.
    pub fn submit(&self, sim: &mut Sim, client: usize, op: FsOp, done: OpDone) {
        self.metrics.borrow_mut().issued += 1;
        self.attempt(sim, client, op, 0, sim.now(), done);
    }

    fn attempt(
        &self,
        sim: &mut Sim,
        client: usize,
        op: FsOp,
        tries: u32,
        started: lambda_sim::SimTime,
        done: OpDone,
    ) {
        let node = self.pick_node(client, &op);
        let engine = self.nodes[node].engine.clone();
        let hop = sim.rng().sample_duration(&self.net.tcp_one_way);
        let net = self.net.clone();
        let metrics = Rc::clone(&self.metrics);
        metrics.borrow_mut().tcp_rpcs += 1;
        let this = self.clone();
        sim.schedule(hop, move |sim| {
            let op2 = op.clone();
            engine.execute(
                sim,
                op,
                true,
                Box::new(move |sim, result| {
                    let back = sim.rng().sample_duration(&net.tcp_one_way);
                    sim.schedule(back, move |sim| match result {
                        Err(e) if e.is_transient() && tries < MAX_RETRIES => {
                            metrics.borrow_mut().retries += 1;
                            let delay =
                                SimDuration::from_millis(20).mul_f64((1 << tries.min(6)) as f64);
                            let this2 = this.clone();
                            sim.schedule(delay, move |sim| {
                                this2.attempt(sim, client, op2, tries + 1, started, done);
                            });
                        }
                        result => {
                            let latency = sim.now().saturating_since(started);
                            match &result {
                                Ok(_) => metrics.borrow_mut().record_success(
                                    sim.now(),
                                    op2.class(),
                                    latency,
                                ),
                                Err(e) => metrics
                                    .borrow_mut()
                                    .record_failure(matches!(e, FsError::Timeout)),
                            }
                            done(sim, result);
                        }
                    });
                }),
            );
        });
    }
}

/// Fixed-membership cache coherence for a serverful caching cluster
/// (HopsFS+Cache): the writer sends INVs directly to every peer NameNode
/// over TCP and proceeds once all round trips complete.
pub struct PeerCoherence {
    peers: Vec<Rc<RefCell<MetadataCache>>>,
    own: usize,
    net: NetParams,
}

impl PeerCoherence {
    /// Creates the hook for node `own` with the given peer caches.
    #[must_use]
    pub fn new(peers: Vec<Rc<RefCell<MetadataCache>>>, own: usize, net: NetParams) -> Self {
        PeerCoherence { peers, own, net }
    }
}

impl CoherenceHook for PeerCoherence {
    fn invalidate(&self, sim: &mut Sim, inv: Rc<InvalidationSet>, done: RoundDone) {
        let targets: Vec<Rc<RefCell<MetadataCache>>> = self
            .peers
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.own)
            .map(|(_, c)| Rc::clone(c))
            .collect();
        if targets.is_empty() {
            sim.schedule(SimDuration::ZERO, move |sim| done(sim, Ok(())));
            return;
        }
        let remaining = Rc::new(Cell::new(targets.len()));
        let done = Rc::new(RefCell::new(Some(done)));
        for cache in targets {
            // One round trip per peer: INV there, ACK back. The peers share
            // the writer's one set.
            let rtt = sim.rng().sample_duration(&self.net.tcp_one_way)
                + sim.rng().sample_duration(&self.net.tcp_one_way);
            let inv = Rc::clone(&inv);
            let remaining = Rc::clone(&remaining);
            let done = Rc::clone(&done);
            sim.schedule(rtt, move |sim| {
                inv.apply(&mut cache.borrow_mut());
                remaining.set(remaining.get() - 1);
                if remaining.get() == 0 {
                    if let Some(d) = done.borrow_mut().take() {
                        d(sim, Ok(()));
                    }
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_sim::SimTime;

    #[test]
    fn billing_restarted_before_its_next_tick_bills_once() {
        // VM cost of 10 s, billing started once or by start → stop → start
        // in one instant: the first start's tick must stop, not bill
        // beside the second's.
        let billed = |restart: bool| -> u64 {
            let mut sim = Sim::new(1);
            let cluster = ServerfulCluster::new(
                Vec::new(),
                Routing::RoundRobin,
                Rc::new(Partitioner::new(1)),
                NetParams::default(),
                16,
                1,
            );
            cluster.start_billing(&mut sim);
            if restart {
                cluster.stop_billing();
                cluster.start_billing(&mut sim);
            }
            sim.run_until(SimTime::from_secs(10));
            cluster.stop_billing();
            cluster.cost_total().to_bits()
        };
        assert_ne!(billed(false), 0.0f64.to_bits());
        assert_eq!(billed(true), billed(false));
    }
}
