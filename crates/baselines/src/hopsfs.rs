//! The HopsFS baselines (paper §2, Fig. 1(b); evaluated throughout §5):
//!
//! * **Vanilla HopsFS** — a statically fixed cluster of *stateless*
//!   NameNodes in front of MySQL Cluster NDB. Every metadata operation
//!   goes to the store, so throughput is capped by the NDB cluster and
//!   the NameNodes behave as proxies (the paper observes ≈70 % CPU
//!   utilization with no way to use the rest).
//! * **HopsFS+Cache** — the paper's serverful, cache-based baseline: the
//!   same cluster with each NameNode holding a λFS-style metadata cache,
//!   kept coherent by direct peer INV/ACK round trips; clients route by
//!   consistent hashing on the parent directory so caches actually hit.
//! * **CN HopsFS+Cache** — the cost-normalized variant (§5.2.2): the same
//!   system provisioned with only as many vCPUs as λFS's dollars buy.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_fs::{DfsService, OpDone, OpEngine, RunMetrics, SubtreeSettings};
use lambda_namespace::{
    DataNodeFleet, FsOp, MetadataCache, MetadataSchema, Partitioner,
};
use lambda_sim::params::{CpuParams, NetParams, StoreParams};
use lambda_sim::{CostMeter, Sim, SimDuration, Station};
use lambda_store::Db;

use crate::serverful::{PeerCoherence, Routing, ServerNode, ServerfulCluster};

/// vCPUs per NameNode (the evaluation used 16-vCPU r5.4xlarge).
const VCPUS_PER_NN: u32 = 16;
/// Cache capacity per NameNode, in inodes (HopsFS+Cache).
const CACHE_CAPACITY: usize = 2_000_000;
/// Concurrent in-flight subtree batches (HopsFS runs sub-operations in
/// parallel on the coordinating NameNode).
const SUBTREE_PARALLELISM: usize = 7;
/// Number of DataNodes publishing reports.
const DATANODES: u32 = 8;
/// Store lock-wait timeout.
const LOCK_TIMEOUT: SimDuration = SimDuration::from_secs(5);

/// Configuration for a HopsFS-family deployment.
#[derive(Debug, Clone)]
pub struct HopsFsConfig {
    /// Number of NameNode servers.
    pub namenodes: u32,
    /// Whether NameNodes cache metadata (HopsFS+Cache).
    pub cache_enabled: bool,
    /// Number of simulated clients.
    pub clients: u32,
    /// Network model.
    pub net: NetParams,
    /// NameNode CPU model.
    pub cpu: CpuParams,
    /// NDB capacity model.
    pub store: StoreParams,
}

impl Default for HopsFsConfig {
    fn default() -> Self {
        HopsFsConfig {
            namenodes: 32,
            cache_enabled: false,
            clients: 64,
            net: NetParams::default(),
            cpu: CpuParams::default(),
            store: StoreParams::default(),
        }
    }
}

impl HopsFsConfig {
    /// Vanilla HopsFS with `total_vcpus` split over 16-vCPU NameNodes.
    #[must_use]
    pub fn vanilla(total_vcpus: u32, clients: u32) -> Self {
        let namenodes = (total_vcpus / VCPUS_PER_NN).max(1);
        HopsFsConfig { namenodes, clients, ..Default::default() }
    }

    /// HopsFS+Cache with `total_vcpus` split over 16-vCPU NameNodes.
    #[must_use]
    pub fn with_cache(total_vcpus: u32, clients: u32) -> Self {
        HopsFsConfig { cache_enabled: true, ..Self::vanilla(total_vcpus, clients) }
    }
}

/// A HopsFS deployment (vanilla or +Cache).
pub struct HopsFs {
    config: HopsFsConfig,
    cluster: ServerfulCluster,
    db: Db,
    schema: MetadataSchema,
    fleet: DataNodeFleet,
}

impl std::fmt::Debug for HopsFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HopsFs")
            .field("namenodes", &self.config.namenodes)
            .field("cached", &self.config.cache_enabled)
            .finish()
    }
}

impl HopsFs {
    /// Builds the deployment.
    #[must_use]
    pub fn build(sim: &mut Sim, config: HopsFsConfig) -> Self {
        let _ = &sim;
        let db = Db::new(&config.store, LOCK_TIMEOUT);
        let schema = MetadataSchema::install(&db);
        let partitioner = Rc::new(Partitioner::new(config.namenodes.max(1)));
        // Build caches first so every node's coherence hook can see all
        // peers.
        let caches: Vec<Rc<RefCell<MetadataCache>>> = (0..config.namenodes)
            .map(|_| Rc::new(RefCell::new(MetadataCache::new(CACHE_CAPACITY))))
            .collect();
        let nodes: Vec<ServerNode> = (0..config.namenodes as usize)
            .map(|i| {
                let cpu = Station::new(format!("hops-nn-{i}"), VCPUS_PER_NN);
                let engine = OpEngine {
                    db: db.clone(),
                    schema: schema.clone(),
                    cpu: Rc::clone(&cpu),
                    cpu_params: config.cpu.clone(),
                    cache: config.cache_enabled.then(|| Rc::clone(&caches[i])),
                    coherence: config.cache_enabled.then(|| {
                        Rc::new(PeerCoherence::new(caches.clone(), i, config.net.clone()))
                            as Rc<dyn lambda_fs::CoherenceHook>
                    }),
                    subtree: SubtreeSettings {
                        parallelism: SUBTREE_PARALLELISM,
                        holder_tag: i as u64 + 1,
                        holder_alive: None,
                    },
                };
                ServerNode { cpu, engine }
            })
            .collect();
        let routing =
            if config.cache_enabled { Routing::HashParent } else { Routing::RoundRobin };
        let cluster = ServerfulCluster::new(
            nodes,
            routing,
            partitioner,
            config.net.clone(),
            config.namenodes * VCPUS_PER_NN,
            config.clients,
        );
        let fleet = DataNodeFleet::new(&db, &schema, DATANODES, SimDuration::from_secs(10));
        HopsFs { config, cluster, db, schema, fleet }
    }

    /// Starts billing and DataNode reporting.
    pub fn start(&self, sim: &mut Sim) {
        self.cluster.start_billing(sim);
        self.fleet.start(sim);
    }

    /// Stops background activity so the event queue can drain.
    pub fn stop(&self, _sim: &mut Sim) {
        self.cluster.stop_billing();
        self.fleet.stop();
    }

    /// Submits an operation.
    pub fn submit(&self, sim: &mut Sim, client: usize, op: FsOp, done: OpDone) {
        self.cluster.submit(sim, client, op, done);
    }

    /// The persistent store.
    #[must_use]
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// The store schema.
    #[must_use]
    pub fn schema(&self) -> &MetadataSchema {
        &self.schema
    }

    /// The configuration this deployment was built with.
    #[must_use]
    pub fn config(&self) -> &HopsFsConfig {
        &self.config
    }

    /// Cumulative VM cost (Fig. 9's HopsFS curve: $2.50 for the 25 k run).
    #[must_use]
    pub fn cost_meter(&self) -> CostMeter {
        self.cluster.cost_meter()
    }

    /// Total vCPUs provisioned.
    #[must_use]
    pub fn vcpus_total(&self) -> u32 {
        self.cluster.vcpus_total()
    }

    /// Namespace consistency violations (empty = consistent).
    #[must_use]
    pub fn check_consistency(&self) -> Vec<String> {
        self.schema.check_consistency(&self.db)
    }
}

impl DfsService for HopsFs {
    fn service_name(&self) -> &'static str {
        if self.config.cache_enabled {
            "hopsfs+cache"
        } else {
            "hopsfs"
        }
    }

    fn submit_op(&self, sim: &mut Sim, client: usize, op: FsOp, done: OpDone) {
        self.submit(sim, client, op, done);
    }

    fn client_count(&self) -> usize {
        self.cluster.clients() as usize
    }

    fn run_metrics(&self) -> Rc<RefCell<RunMetrics>> {
        self.cluster.metrics()
    }

    fn bootstrap_tree(
        &self,
        root: &lambda_namespace::DfsPath,
        dirs: usize,
        files_per_dir: usize,
    ) -> Vec<lambda_namespace::DfsPath> {
        self.schema.bootstrap_tree(&self.db, root, dirs, files_per_dir)
    }

    fn bootstrap_file(&self, path: &lambda_namespace::DfsPath) {
        self.schema.bootstrap_create(&self.db, path);
    }
}
