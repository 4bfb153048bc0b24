//! System assembly: one call builds the whole λFS stack inside a
//! simulation — store, Coordinator, FaaS platform, `n` NameNode
//! deployments, DataNode fleet, and the client library.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_coord::Coordinator;
use lambda_faas::{DeploymentId, FunctionConfig, InstanceId, Platform, PlatformConfig};
use lambda_namespace::{DataNodeFleet, DfsPath, FsOp, MetadataSchema, Partitioner, TreeLayout};
use lambda_sim::fault::{FaultInjector, FaultPlan};
use lambda_sim::{CostMeter, GaugeSeries, Sim, SimDuration};
use lambda_store::Db;

use crate::audit::AuditReport;
use crate::client::ClientLib;
use crate::coherence::CoordCoherence;
use crate::config::LambdaFsConfig;
use crate::fsops::OpDone;
use crate::messages::CoherenceMsg;
use crate::metrics::RunMetrics;
use crate::namenode::{NameNode, NnServices, DATANODES};
use crate::service::DfsService;

/// Instances kept warm per deployment: none. Provisioned concurrency
/// against warm-function reclamation is future work in the paper.
const MIN_WARM_PER_DEPLOYMENT: u32 = 0;
/// Coordinator session timeout (crash-detection latency).
const SESSION_TIMEOUT: SimDuration = SimDuration::from_secs(4);
/// Interval between DataNode reports.
const DATANODE_REPORT_EVERY: SimDuration = SimDuration::from_secs(10);
/// Store lock-wait timeout (aborts the waiter).
const LOCK_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// A fully assembled λFS system.
///
/// # Examples
///
/// Building a small system and creating a file end-to-end:
///
/// ```
/// use lambda_fs::{LambdaFs, LambdaFsConfig};
/// use lambda_namespace::FsOp;
/// use lambda_sim::Sim;
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new(7);
/// let config = LambdaFsConfig { deployments: 4, clients: 4, ..Default::default() };
/// let fs = LambdaFs::build(&mut sim, config);
/// fs.start(&mut sim);
///
/// let ok = Rc::new(Cell::new(false));
/// let flag = Rc::clone(&ok);
/// fs.submit(&mut sim, 0, FsOp::Mkdir("/data".parse().unwrap()), Box::new(move |_sim, r| {
///     r.unwrap();
///     flag.set(true);
/// }));
/// sim.run_for(lambda_sim::SimDuration::from_secs(30));
/// assert!(ok.get());
/// fs.stop(&mut sim);
/// ```
pub struct LambdaFs {
    endpoints: Rc<RefCell<Vec<CoordCoherence>>>,
    config: Rc<LambdaFsConfig>,
    db: Db,
    schema: MetadataSchema,
    coord: Coordinator<CoherenceMsg>,
    platform: Platform<NameNode>,
    deployments: Vec<DeploymentId>,
    partitioner: Rc<Partitioner>,
    clients: ClientLib,
    fleet: DataNodeFleet,
    metrics: Rc<RefCell<RunMetrics>>,
}

impl std::fmt::Debug for LambdaFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LambdaFs")
            .field("deployments", &self.deployments.len())
            .field("instances", &self.platform.total_instances())
            .finish()
    }
}

impl LambdaFs {
    /// Builds the system (no background activity yet; see
    /// [`LambdaFs::start`]).
    #[must_use]
    pub fn build(sim: &mut Sim, config: LambdaFsConfig) -> Self {
        let _ = &sim; // future: seed-forked sub-streams per component
        let config = Rc::new(config);
        let db = match &config.durability {
            None => Db::new(&config.store, LOCK_TIMEOUT),
            Some(d) => Db::new_durable(&config.store, LOCK_TIMEOUT, d.clone()),
        };
        let schema = MetadataSchema::install(&db);
        let coord: Coordinator<CoherenceMsg> = Coordinator::new(&config.net, SESSION_TIMEOUT);
        let partitioner = Rc::new(Partitioner::new(config.deployments));
        let platform: Platform<NameNode> = Platform::new(&PlatformConfig {
            cluster_vcpus: config.cluster_vcpus,
            faas: config.faas.clone(),
            net: config.net.clone(),
            pricing: config.pricing,
            request_ttl: config.client_timeout * 2,
        });
        let services = NnServices {
            db: db.clone(),
            schema: schema.clone(),
            coord: coord.clone(),
            partitioner: Rc::clone(&partitioner),
            config: Rc::clone(&config),
            endpoints: Rc::new(RefCell::new(Vec::new())),
        };
        let deployments: Vec<DeploymentId> = (0..config.deployments)
            .map(|d| {
                let services = services.clone();
                platform.register_deployment(
                    format!("namenode-{d}"),
                    FunctionConfig {
                        vcpus: config.nn_vcpus,
                        mem_gb: config.nn_mem_gb,
                        concurrency: config.concurrency_level,
                        max_instances: config.max_instances_per_deployment,
                        min_instances: MIN_WARM_PER_DEPLOYMENT,
                    },
                    Box::new(move |_ctx| NameNode::new(services.clone(), d)),
                )
            })
            .collect();

        let fleet = DataNodeFleet::new(&db, &schema, DATANODES, DATANODE_REPORT_EVERY);
        let metrics = Rc::new(RefCell::new(RunMetrics::new()));
        let clients = ClientLib::new(
            Rc::clone(&config),
            platform.clone(),
            deployments.clone(),
            Rc::clone(&partitioner),
            Rc::clone(&metrics),
        );
        LambdaFs {
            endpoints: Rc::clone(&services.endpoints),
            config,
            db,
            schema,
            coord,
            platform,
            deployments,
            partitioner,
            clients,
            fleet,
            metrics,
        }
    }

    /// Starts background activity: platform maintenance (reclamation +
    /// billing) and DataNode reporting. Drive the simulation with
    /// `run_until`/`run_for` afterwards.
    pub fn start(&self, sim: &mut Sim) {
        self.platform.run_maintenance(sim);
        self.fleet.start(sim);
    }

    /// Stops platform maintenance (reclamation and billing) and DataNode
    /// reporting at their next tick.
    ///
    /// It does not stop the loops a warm NameNode runs — heartbeat every
    /// 1 s, subtree-lock sweep every 20 s, DataNode discovery every 30 s.
    /// They end with their instance, and with maintenance stopped no idle
    /// instance is reclaimed, so `stop` followed by [`Sim::run`] does not
    /// return while a NameNode is warm. To drain a run, run past the idle
    /// reclaim (30 s by default) before `stop`, as the benchmark's drain
    /// does. Dropping the system ends every loop at its next tick.
    pub fn stop(&self, _sim: &mut Sim) {
        self.platform.stop_maintenance();
        self.fleet.stop();
    }

    /// Warms **every** deployment and registers a TCP connection on
    /// **every** client VM before the workload starts — the evaluation's
    /// warm steady state (Fig. 8(a) begins with 22 NameNodes already
    /// active, not a cold platform).
    ///
    /// `paths` should cover the namespace (e.g. the bootstrap tree's
    /// directories): for each deployment the first owned path among them
    /// and their first files ([`TreeLayout::file_name`]) is stat'ed once
    /// from a client on each VM.
    pub fn prewarm_with(&self, sim: &mut Sim, paths: &[DfsPath]) {
        let vm_count = self.config.client_vms.max(1) as usize;
        // Directory paths all hash to the root's deployment (partitioning
        // keys on the parent), so probe both each path and a child of it.
        let mut candidates: Vec<DfsPath> = Vec::with_capacity(paths.len() * 2);
        for p in paths {
            candidates.push(p.clone());
            candidates.push(p.join_interned(TreeLayout::file_name(0)));
        }
        for d in 0..self.config.deployments {
            let Some(path) =
                candidates.iter().find(|p| self.partitioner.deployment_for_path(p) == d)
            else {
                continue;
            };
            for vm in 0..vm_count {
                // Client `vm` lives on VM `vm` (clients are striped over
                // VMs round-robin).
                let client = vm % self.clients.client_count();
                self.submit(sim, client, FsOp::Stat(path.clone()), Box::new(|_sim, _r| {}));
            }
        }
    }

    /// Submits `op` as client `client`; `done` receives the final result
    /// (after transparent retries).
    pub fn submit(&self, sim: &mut Sim, client: usize, op: FsOp, done: OpDone) {
        self.clients.submit(sim, client, op, done);
    }

    /// The persistent store (for bootstrap loading and verification).
    #[must_use]
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// The store schema.
    #[must_use]
    pub fn schema(&self) -> &MetadataSchema {
        &self.schema
    }

    /// The FaaS platform (for fault injection and scale observation).
    #[must_use]
    pub fn platform(&self) -> &Platform<NameNode> {
        &self.platform
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &LambdaFsConfig {
        &self.config
    }

    /// The coordination service (liveness, membership, INV/ACK traffic).
    #[must_use]
    pub fn coordinator(&self) -> &Coordinator<CoherenceMsg> {
        &self.coord
    }

    /// The namespace partitioner.
    #[must_use]
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Client-observed metrics.
    #[must_use]
    pub fn metrics(&self) -> Rc<RefCell<RunMetrics>> {
        Rc::clone(&self.metrics)
    }

    /// The client library (diagnostics).
    #[must_use]
    pub fn client_lib(&self) -> &ClientLib {
        &self.clients
    }

    /// Aggregate metadata-cache statistics over every NameNode this
    /// system ever ran (including reclaimed ones).
    #[must_use]
    pub fn cache_stats(&self) -> lambda_namespace::CacheStats {
        let mut total = lambda_namespace::CacheStats::default();
        for endpoint in self.endpoints.borrow().iter() {
            let s = endpoint.cache().borrow().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.insertions += s.insertions;
            total.evictions += s.evictions;
            total.invalidations += s.invalidations;
            total.prefix_invalidations += s.prefix_invalidations;
            total.listing_hits += s.listing_hits;
            total.listing_misses += s.listing_misses;
        }
        total
    }

    /// Number of currently provisioned NameNodes.
    #[must_use]
    pub fn active_namenodes(&self) -> usize {
        self.platform.total_instances()
    }

    /// Time series of provisioned NameNode counts (Fig. 8's secondary
    /// axis).
    #[must_use]
    pub fn namenode_gauge(&self) -> GaugeSeries {
        self.platform.instance_gauge()
    }

    /// Pay-per-use cost meter (Fig. 9's λFS curve).
    #[must_use]
    pub fn pay_meter(&self) -> CostMeter {
        self.platform.pay_meter()
    }

    /// Provisioned-cost meter (Fig. 9's "λFS (Simplified)" curve).
    #[must_use]
    pub fn simplified_meter(&self) -> CostMeter {
        self.platform.prov_meter()
    }

    /// Kills one active NameNode of the given deployment index, if any —
    /// the §5.6 fault-injection primitive. Returns the victim.
    pub fn kill_one_namenode(&self, sim: &mut Sim, deployment: u32) -> Option<InstanceId> {
        let dep = *self.deployments.get(deployment as usize)?;
        let victim = *self.platform.warm_instances(dep).first()?;
        self.platform.kill_instance(sim, victim);
        Some(victim)
    }

    /// Namespace well-formedness violations (empty = consistent).
    #[must_use]
    pub fn check_consistency(&self) -> Vec<String> {
        self.schema.check_consistency(&self.db)
    }

    /// Installs a deterministic fault plan: shard outages on the store,
    /// NameNode kill bursts and cold-start storms on the platform, and
    /// message-level network faults on every client↔NameNode hop.
    ///
    /// An empty plan is a strict no-op — no RNG is drawn, no event is
    /// scheduled — so a plan-free run replays bit-identically to builds
    /// without a fault plane. The same `(sim seed, plan)` pair always
    /// replays the same trace.
    pub fn install_fault_plan(&self, sim: &mut Sim, plan: &FaultPlan) {
        if plan.is_empty() {
            return;
        }
        self.db.schedule_outages(sim, &plan.shards);
        for burst in plan.kills.iter().copied() {
            let platform = self.platform.clone();
            let deployments = self.deployments.clone();
            sim.schedule_at(burst.at, move |sim| {
                let dep = burst.deployment.and_then(|d| deployments.get(d as usize).copied());
                if burst.deployment.is_some() && dep.is_none() {
                    return; // burst aimed at a deployment that doesn't exist
                }
                platform.kill_warm_burst(sim, dep, burst.count);
            });
        }
        for storm in &plan.storms {
            self.platform.cold_start_storm(sim, storm.window.from, storm.window.until, storm.factor);
        }
        if !plan.net.is_empty() || !plan.partitions.is_empty() {
            // The injector gets a forked seed so its draws never perturb
            // the main event stream mid-run.
            let seed: u64 = sim.rng().gen_range(0..u64::MAX);
            self.clients.install_fault_injector(FaultInjector::new(plan, seed));
        }
    }

    /// Audits the quiesced system: namespace↔store consistency, no leaked
    /// locks or transactions, no orphaned invocations, and op-count
    /// conservation (issued = completed + failed + timeouts +
    /// retries-exhausted). Run it after the event queue has drained; a
    /// mid-flight audit will report in-progress work as violations.
    #[must_use]
    pub fn audit(&self) -> AuditReport {
        let mut report = AuditReport::default();
        report.checks += 1;
        report.violations.extend(
            self.schema.check_consistency(&self.db).into_iter().map(|v| format!("namespace: {v}")),
        );
        let txns = self.db.active_txn_count();
        report.check(txns == 0, || format!("store: {txns} transactions never terminated"));
        let locked = self.db.locked_rows();
        report.check(locked == 0, || format!("store: {locked} row locks leaked"));
        let seqs = self.db.pending_seq_count();
        report.check(seqs == 0, || format!("store: {seqs} lock-wait sequences still parked"));
        let dv = self.db.durability_violations();
        report.check(dv.is_empty(), || {
            format!("durability: {} post-crash divergence(s): {}", dv.len(), dv.join("; "))
        });
        let invocations = self.platform.pending_invocations();
        report
            .check(invocations == 0, || format!("faas: {invocations} invocation records leaked"));
        let queued = self.platform.queued_requests();
        report.check(queued == 0, || format!("faas: {queued} requests still queued"));
        let m = self.metrics.borrow();
        let (issued, accounted) = (m.issued, m.accounted());
        report.check(accounted == issued, || {
            format!(
                "conservation: issued {issued} != accounted {accounted} \
                 (completed {} + failed {} + timeouts {} + retries-exhausted {})",
                m.completed, m.failed, m.timeouts, m.retries_exhausted
            )
        });
        report
    }
}

/// The last owner of a system tears down what [`LambdaFs::build`] wired
/// together. The platform's instances and factories, the coordinator's
/// inboxes and watches, and the work parked in coherence rounds, station
/// queues and lock queues hold handles back to their owners, so without
/// this a dropped system would never be freed (DESIGN.md §3.10). Nothing
/// here schedules an event, draws a random number or bills; operations in
/// flight never complete, and loops still queued in the simulation end at
/// their next tick.
impl Drop for LambdaFs {
    fn drop(&mut self) {
        self.fleet.stop();
        self.platform.tear_down();
        self.coord.tear_down();
        for endpoint in self.endpoints.borrow().iter() {
            endpoint.tear_down();
        }
        self.db.tear_down();
    }
}

impl DfsService for LambdaFs {
    fn service_name(&self) -> &'static str {
        "lambda-fs"
    }

    fn submit_op(&self, sim: &mut Sim, client: usize, op: FsOp, done: OpDone) {
        self.submit(sim, client, op, done);
    }

    fn client_count(&self) -> usize {
        self.clients.client_count()
    }

    fn run_metrics(&self) -> Rc<RefCell<RunMetrics>> {
        self.metrics()
    }

    fn bootstrap_tree(&self, root: &DfsPath, dirs: usize, files_per_dir: usize) -> Vec<DfsPath> {
        self.schema.bootstrap_tree(&self.db, root, dirs, files_per_dir)
    }

    fn bootstrap_file(&self, path: &DfsPath) {
        self.schema.bootstrap_create(&self.db, path);
    }
}

