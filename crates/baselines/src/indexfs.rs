//! IndexFS and λIndexFS (paper §4 "Porting λFS to IndexFS" and §5.7).
//!
//! **IndexFS** is a layered metadata middleware: a fixed set of servers
//! co-located with the clients (its co-location principle), each packing
//! metadata into LevelDB SSTables. The reproduction gives every server a
//! real [`LsmTree`]: point lookups pay for the tables they actually probe,
//! and writes pay for the flush/compaction bytes they actually cause — so
//! write throughput degrades as compaction debt grows, exactly the
//! behavior λIndexFS's elasticity escapes.
//!
//! **λIndexFS** decouples in-memory metadata handling from LevelDB by
//! packaging it into serverless functions (one deployment per LevelDB
//! instance, directories partitioned by name hash — the simplified scheme
//! developed with the IndexFS authors), keeping LevelDB only as the
//! persistent store. Functions cache metadata, siblings are invalidated on
//! writes, and the FaaS platform scales instances with load.
//!
//! Both are driven by the `tree-test` workload (`mknod` writes followed by
//! random `getattr` reads), reproduced in `lambda-workload`.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use lambda_faas::{
    DeploymentId, Function, FunctionConfig, InstanceCtx, InstanceId, Platform, PlatformConfig,
    Responder,
};
use lambda_fs::RunMetrics;
use lambda_lsm::{LsmConfig, LsmTree};
use lambda_namespace::{DfsPath, OpClass};
use lambda_sim::params::{FaasParams, NetParams};
use lambda_sim::{Dist, Sim, SimDuration, Station, StationRef};

/// The two tree-test operations (IndexFS's built-in benchmark).
#[derive(Debug, Clone, PartialEq)]
pub enum TreeOp {
    /// Create a file node.
    Mknod(DfsPath),
    /// Read a node's attributes.
    Getattr(DfsPath),
}

impl TreeOp {
    /// The path targeted by the operation.
    #[must_use]
    pub fn path(&self) -> &DfsPath {
        match self {
            TreeOp::Mknod(p) | TreeOp::Getattr(p) => p,
        }
    }

    /// The reporting class: `mknod` ≈ create, `getattr` ≈ stat.
    #[must_use]
    pub fn class(&self) -> OpClass {
        match self {
            TreeOp::Mknod(_) => OpClass::Create,
            TreeOp::Getattr(_) => OpClass::Stat,
        }
    }
}

/// Completion callback: whether the target existed.
pub type TreeDone = Box<dyn FnOnce(&mut Sim, bool)>;

fn dir_hash(path: &DfsPath) -> u64 {
    // Partition directories across LevelDB instances by directory name
    // (the simplified scheme of §4).
    let parent = path.parent().unwrap_or_else(DfsPath::root);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in parent.as_str().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One LevelDB-backed metadata partition: a CPU station plus a real LSM
/// tree.
pub struct LevelDbBackend {
    cpu: StationRef,
    lsm: RefCell<LsmTree>,
    base_read: Dist,
    probe_cost: Dist,
    base_write: Dist,
    /// Bytes of compaction work one second of station time absorbs.
    compaction_bw: f64,
}

impl std::fmt::Debug for LevelDbBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LevelDbBackend").finish_non_exhaustive()
    }
}

impl LevelDbBackend {
    fn new(name: &str, width: u32, lsm: LsmConfig) -> Rc<Self> {
        Rc::new(LevelDbBackend {
            cpu: Station::new(name, width.max(1)),
            lsm: RefCell::new(LsmTree::new(lsm)),
            base_read: Dist::uniform_ms(0.08, 0.15),
            probe_cost: Dist::uniform_ms(0.04, 0.08),
            base_write: Dist::uniform_ms(0.10, 0.20),
            compaction_bw: 48.0 * 1024.0 * 1024.0,
        })
    }

    /// Executes a get: real LSM lookup costed by the tables probed.
    fn get(self: &Rc<Self>, sim: &mut Sim, key: &DfsPath, done: TreeDone) {
        let (found, probes) = {
            let mut lsm = self.lsm.borrow_mut();
            let before = lsm.stats().tables_probed;
            let found = lsm.get(key.as_str().as_bytes()).is_some();
            (found, lsm.stats().tables_probed - before)
        };
        let service = sim.rng().sample_duration(&self.base_read)
            + sim.rng().sample_duration(&self.probe_cost) * probes;
        Station::submit(&self.cpu, sim, service, move |sim| done(sim, found));
    }

    /// Executes a put: real LSM insert costed by the flush/compaction
    /// bytes it triggered.
    fn put(self: &Rc<Self>, sim: &mut Sim, key: &DfsPath, done: TreeDone) {
        let compacted = self.insert_local(key);
        let service = sim.rng().sample_duration(&self.base_write)
            + SimDuration::from_secs_f64(compacted as f64 / self.compaction_bw);
        Station::submit(&self.cpu, sim, service, move |sim| done(sim, true));
    }

    /// Applies the LSM insert only, returning the compaction bytes it
    /// triggered; the caller decides where the CPU cost lands (λIndexFS
    /// runs the memtable/WAL work on the function instance).
    fn insert_local(&self, key: &DfsPath) -> u64 {
        let mut lsm = self.lsm.borrow_mut();
        let before = lsm.stats().bytes_compacted;
        lsm.put(key.as_str().as_bytes(), &[0u8; 64]);
        lsm.stats().bytes_compacted - before
    }

    /// Occupies this partition's store with `compacted` bytes of
    /// background compaction work.
    fn charge_compaction(self: &Rc<Self>, sim: &mut Sim, compacted: u64) {
        if compacted == 0 {
            return;
        }
        let busy = SimDuration::from_secs_f64(compacted as f64 / self.compaction_bw);
        Station::submit(&self.cpu, sim, busy, |_sim| {});
    }
}

/// Number of IndexFS servers (deployed on the 4 BeeGFS client VMs).
const SERVERS: u32 = 4;
/// Effective parallel width per server (shares the client VM's CPU).
const SERVER_WIDTH: u32 = 8;

/// Configuration for vanilla IndexFS.
#[derive(Debug, Clone)]
pub struct IndexFsConfig {
    /// Number of clients.
    pub clients: u32,
    /// LevelDB tuning.
    pub lsm: LsmConfig,
    /// Network model.
    pub net: NetParams,
}

impl Default for IndexFsConfig {
    fn default() -> Self {
        IndexFsConfig {
            clients: 64,
            lsm: LsmConfig::default(),
            net: NetParams::default(),
        }
    }
}

/// Vanilla IndexFS: a fixed middleware cluster over LevelDB.
pub struct IndexFs {
    config: IndexFsConfig,
    backends: Vec<Rc<LevelDbBackend>>,
    metrics: Rc<RefCell<RunMetrics>>,
}

impl std::fmt::Debug for IndexFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexFs").field("servers", &self.backends.len()).finish()
    }
}

impl IndexFs {
    /// Builds the cluster.
    #[must_use]
    pub fn build(sim: &mut Sim, config: IndexFsConfig) -> Self {
        let _ = &sim;
        let backends = (0..SERVERS)
            .map(|i| LevelDbBackend::new(&format!("indexfs-{i}"), SERVER_WIDTH, config.lsm.clone()))
            .collect();
        IndexFs { config, backends, metrics: Rc::new(RefCell::new(RunMetrics::new())) }
    }

    /// The client-observed metrics.
    #[must_use]
    pub fn metrics(&self) -> Rc<RefCell<RunMetrics>> {
        Rc::clone(&self.metrics)
    }

    /// Number of clients configured.
    #[must_use]
    pub fn client_count(&self) -> usize {
        self.config.clients as usize
    }

    /// Submits one tree-test operation.
    pub fn submit(&self, sim: &mut Sim, _client: usize, op: TreeOp, done: TreeDone) {
        self.metrics.borrow_mut().issued += 1;
        self.metrics.borrow_mut().tcp_rpcs += 1;
        let backend =
            Rc::clone(&self.backends[(dir_hash(op.path()) % self.backends.len() as u64) as usize]);
        let hop = sim.rng().sample_duration(&self.config.net.tcp_one_way);
        let net = self.config.net.clone();
        let metrics = Rc::clone(&self.metrics);
        let started = sim.now();
        sim.schedule(hop, move |sim| {
            let class = op.class();
            let wrapped: TreeDone = Box::new(move |sim, found| {
                let back = sim.rng().sample_duration(&net.tcp_one_way);
                sim.schedule(back, move |sim| {
                    let latency = sim.now().saturating_since(started);
                    metrics.borrow_mut().record_success(sim.now(), class, latency);
                    done(sim, found);
                });
            });
            match op {
                TreeOp::Mknod(path) => backend.put(sim, &path, wrapped),
                TreeOp::Getattr(path) => backend.get(sim, &path, wrapped),
            }
        });
    }
}

// ---------------------------------------------------------------------
// λIndexFS
// ---------------------------------------------------------------------

/// Per-deployment registry of live instance caches (for sibling
/// invalidation on writes).
type CacheRegistry = Rc<RefCell<Vec<(InstanceId, Rc<RefCell<HashMap<String, bool>>>)>>>;

/// The serverless function body of λIndexFS: an in-memory metadata cache
/// in front of one LevelDB partition.
pub struct IndexFn {
    backend: Rc<LevelDbBackend>,
    registry: CacheRegistry,
    cache: Rc<RefCell<HashMap<String, bool>>>,
    coord_rtt: Dist,
    instance: Cell<Option<InstanceId>>,
}

/// λIndexFS responses carry the serving instance so clients can keep TCP
/// connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeResp {
    /// Whether the target existed.
    pub found: bool,
    /// The serving instance.
    pub served_by: InstanceId,
}

impl Function for IndexFn {
    type Req = TreeOp;
    type Resp = TreeResp;

    fn on_start(&mut self, _sim: &mut Sim, ctx: &InstanceCtx) {
        self.instance.set(Some(ctx.instance));
        self.registry.borrow_mut().push((ctx.instance, Rc::clone(&self.cache)));
    }

    fn on_request(
        &mut self,
        sim: &mut Sim,
        ctx: &InstanceCtx,
        req: TreeOp,
        respond: Responder<TreeResp>,
    ) {
        let instance = ctx.instance;
        match req {
            TreeOp::Getattr(path) => {
                let cached = self.cache.borrow().get(path.as_str()).copied();
                if let Some(found) = cached {
                    // Cache hit: function CPU only, no LevelDB.
                    let service = SimDuration::from_micros(sim.rng().gen_range(60..140));
                    Station::submit(&ctx.cpu, sim, service, move |sim| {
                        respond.send(sim, TreeResp { found, served_by: instance });
                    });
                    return;
                }
                let cache = Rc::clone(&self.cache);
                let key = path.as_str().to_string();
                self.backend.get(
                    sim,
                    &path,
                    Box::new(move |sim, found| {
                        let mut c = cache.borrow_mut();
                        if c.len() >= FN_CACHE_CAPACITY {
                            c.clear();
                        }
                        c.insert(key, found);
                        drop(c);
                        respond.send(sim, TreeResp { found, served_by: instance });
                    }),
                );
            }
            TreeOp::Mknod(path) => {
                // IndexFS invalidation is lease-precise: the partition's
                // (deployment-shared) lease table knows which instances
                // hold the entry, and a freshly created path is held by
                // nobody — the common tree-test case — so no round trip
                // is paid. When sharers exist, two concurrent legs run:
                // (1) their invalidation via the coordinator, (2) the
                // memtable/WAL insert, which runs on *this function's*
                // CPU — the decoupling that lets write capacity scale
                // with instances (§5.7) — while compaction debt still
                // lands on the deployment's shared LevelDB store.
                let sharers: Vec<_> = self
                    .registry
                    .borrow()
                    .iter()
                    .filter(|(id, cache)| {
                        *id != instance && cache.borrow().contains_key(path.as_str())
                    })
                    .map(|(_, cache)| Rc::clone(cache))
                    .collect();
                let legs = if sharers.is_empty() { 1 } else { 2 };
                let remaining = Rc::new(Cell::new(legs));
                let respond = Rc::new(RefCell::new(Some(respond)));
                let own = Rc::clone(&self.cache);
                let key = path.as_str().to_string();
                let join = move |sim: &mut Sim,
                                 remaining: &Rc<Cell<u32>>,
                                 respond: &Rc<RefCell<Option<Responder<TreeResp>>>>| {
                    remaining.set(remaining.get() - 1);
                    if remaining.get() == 0 {
                        own.borrow_mut().insert(key.clone(), true);
                        if let Some(r) = respond.borrow_mut().take() {
                            r.send(sim, TreeResp { found: true, served_by: instance });
                        }
                    }
                };
                if !sharers.is_empty() {
                    let rtt = sim.rng().sample_duration(&self.coord_rtt)
                        + sim.rng().sample_duration(&self.coord_rtt);
                    let inv_path = path.clone();
                    let (rem, resp, j) =
                        (Rc::clone(&remaining), Rc::clone(&respond), join.clone());
                    sim.schedule(rtt, move |sim| {
                        for sibling in &sharers {
                            sibling.borrow_mut().remove(inv_path.as_str());
                        }
                        j(sim, &rem, &resp);
                    });
                }
                let compacted = self.backend.insert_local(&path);
                self.backend.charge_compaction(sim, compacted);
                let service = sim.rng().sample_duration(&self.backend.base_write);
                let (rem, resp) = (remaining, respond);
                Station::submit(&ctx.cpu, sim, service, move |sim| {
                    join(sim, &rem, &resp);
                });
            }
        }
    }

    fn on_terminate(&mut self, _sim: &mut Sim, ctx: &InstanceCtx, _graceful: bool) {
        self.registry.borrow_mut().retain(|(id, _)| *id != ctx.instance);
    }
}

/// λIndexFS function deployments (one per LevelDB instance; the
/// evaluation ran 4 LevelDB instances).
const FN_DEPLOYMENTS: u32 = 4;
/// vCPUs per λIndexFS function instance.
const FN_VCPUS: u32 = 4;
/// Per-instance HTTP concurrency.
const FN_CONCURRENCY: u32 = 4;
/// OpenWhisk cluster vCPUs (the evaluation used 64).
const CLUSTER_VCPUS: u32 = 64;
/// Per-instance cache entries.
const FN_CACHE_CAPACITY: usize = 500_000;
/// HTTP-TCP replacement probability.
const HTTP_REPLACE_PROB: f64 = 0.01;
/// Client request timeout before retry.
const CLIENT_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// Configuration for λIndexFS.
#[derive(Debug, Clone)]
pub struct LambdaIndexFsConfig {
    /// Number of clients.
    pub clients: u32,
    /// LevelDB tuning.
    pub lsm: LsmConfig,
    /// Network model.
    pub net: NetParams,
}

impl Default for LambdaIndexFsConfig {
    fn default() -> Self {
        LambdaIndexFsConfig {
            clients: 64,
            lsm: LsmConfig::default(),
            net: NetParams::default(),
        }
    }
}

/// λIndexFS: IndexFS's metadata handling repackaged into auto-scaling
/// serverless functions over LevelDB. Cloning is cheap; clones share the
/// system.
#[derive(Clone)]
pub struct LambdaIndexFs {
    config: Rc<LambdaIndexFsConfig>,
    platform: Platform<IndexFn>,
    deployments: Rc<[DeploymentId]>,
    metrics: Rc<RefCell<RunMetrics>>,
    /// client → (deployment → connected instance).
    connections: Rc<RefCell<Vec<HashMap<u32, InstanceId>>>>,
}

impl std::fmt::Debug for LambdaIndexFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LambdaIndexFs").field("deployments", &self.deployments.len()).finish()
    }
}

impl LambdaIndexFs {
    /// Builds the system.
    #[must_use]
    pub fn build(sim: &mut Sim, config: LambdaIndexFsConfig) -> Self {
        let _ = &sim;
        let platform: Platform<IndexFn> = Platform::new(&PlatformConfig {
            cluster_vcpus: CLUSTER_VCPUS,
            faas: FaasParams::default(),
            net: config.net.clone(),
            pricing: lambda_sim::LambdaPricing::default(),
            request_ttl: CLIENT_TIMEOUT * 2,
        });
        let deployments: Rc<[DeploymentId]> = (0..FN_DEPLOYMENTS)
            .map(|d| {
                let backend = LevelDbBackend::new(
                    &format!("leveldb-{d}"),
                    4,
                    config.lsm.clone(),
                );
                let registry: CacheRegistry = Rc::new(RefCell::new(Vec::new()));
                let coord_rtt = config.net.coord_one_way;
                platform.register_deployment(
                    format!("lambda-indexfs-{d}"),
                    FunctionConfig {
                        vcpus: FN_VCPUS,
                        mem_gb: 4.0,
                        concurrency: FN_CONCURRENCY,
                        max_instances: u32::MAX,
                        min_instances: 0,
                    },
                    Box::new(move |_ctx| IndexFn {
                        backend: Rc::clone(&backend),
                        registry: Rc::clone(&registry),
                        cache: Rc::new(RefCell::new(HashMap::new())),
                        coord_rtt,
                        instance: Cell::new(None),
                    }),
                )
            })
            .collect();
        let connections =
            Rc::new(RefCell::new(vec![HashMap::new(); config.clients.max(1) as usize]));
        LambdaIndexFs {
            config: Rc::new(config),
            platform,
            deployments,
            metrics: Rc::new(RefCell::new(RunMetrics::new())),
            connections,
        }
    }

    /// Starts platform maintenance.
    pub fn start(&self, sim: &mut Sim) {
        self.platform.run_maintenance(sim);
    }

    /// Stops platform maintenance.
    pub fn stop(&self, _sim: &mut Sim) {
        self.platform.stop_maintenance();
    }

    /// The client-observed metrics.
    #[must_use]
    pub fn metrics(&self) -> Rc<RefCell<RunMetrics>> {
        Rc::clone(&self.metrics)
    }

    /// Number of clients configured.
    #[must_use]
    pub fn client_count(&self) -> usize {
        self.config.clients as usize
    }

    /// The hosting platform (scale observation).
    #[must_use]
    pub fn platform(&self) -> &Platform<IndexFn> {
        &self.platform
    }

    /// Submits one tree-test operation with the hybrid TCP/HTTP scheme.
    pub fn submit(&self, sim: &mut Sim, client: usize, op: TreeOp, done: TreeDone) {
        self.metrics.borrow_mut().issued += 1;
        let started = sim.now();
        self.attempt(sim, client, op, 0, started, Rc::new(RefCell::new(Some(done))));
    }

    fn attempt(
        &self,
        sim: &mut Sim,
        client: usize,
        op: TreeOp,
        tries: u32,
        started: lambda_sim::SimTime,
        done: Rc<RefCell<Option<TreeDone>>>,
    ) {
        if done.borrow().is_none() {
            return;
        }
        let dep = (dir_hash(op.path()) % u64::from(FN_DEPLOYMENTS)) as u32;
        let conn = self.connections.borrow()[client].get(&dep).copied();
        let replace = sim.rng().gen_bool(HTTP_REPLACE_PROB);
        let class = op.class();
        let metrics = Rc::clone(&self.metrics);
        let respond: Responder<TreeResp> = {
            let done = Rc::clone(&done);
            let connections = Rc::clone(&self.connections);
            Responder::new(move |sim, resp: TreeResp| {
                connections.borrow_mut()[client].insert(dep, resp.served_by);
                if let Some(d) = done.borrow_mut().take() {
                    let latency = sim.now().saturating_since(started);
                    metrics.borrow_mut().record_success(sim.now(), class, latency);
                    d(sim, resp.found);
                }
            })
        };
        let dispatched = match conn {
            Some(instance) if !replace => {
                self.metrics.borrow_mut().tcp_rpcs += 1;
                let ok = self.platform.deliver_tcp(sim, instance, op.clone(), respond);
                if !ok {
                    self.connections.borrow_mut()[client].remove(&dep);
                }
                ok
            }
            _ => {
                self.metrics.borrow_mut().http_rpcs += 1;
                self.platform.invoke_http(sim, self.deployments[dep as usize], op.clone(), respond);
                true
            }
        };
        if !dispatched {
            // Broken connection: immediate reroute.
            self.attempt(sim, client, op, tries, started, done);
            return;
        }
        // Timeout + retry.
        let this = self.clone();
        sim.schedule(CLIENT_TIMEOUT, move |sim| {
            if done.borrow().is_none() {
                return;
            }
            if tries >= 4 {
                if let Some(d) = done.borrow_mut().take() {
                    this.metrics.borrow_mut().record_failure(true);
                    d(sim, false);
                }
                return;
            }
            this.metrics.borrow_mut().retries += 1;
            this.attempt(sim, client, op, tries + 1, started, done);
        });
    }
}
