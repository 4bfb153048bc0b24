//! A CephFS-style metadata service (paper §5.3's third serverful
//! comparator).
//!
//! CephFS keeps the namespace in the memory of a Metadata Server (MDS)
//! cluster, partitioned by (dynamic) subtree assignment, durably journaled
//! to RADOS; its *capabilities* system lets clients complete many write
//! paths with fewer round trips than a store-backed design (§5.3.1's
//! explanation for CephFS's strong `create`/`mkdir` numbers).
//!
//! The model, calibrated to the behaviors Figs. 11/12 show:
//!
//! * reads are answered from MDS memory — the lowest small-scale latency
//!   of any system, so CephFS wins the first problem sizes;
//! * each MDS dispatches from an effectively narrow thread pool (the real
//!   MDS is largely single-threaded), so the cluster's aggregate
//!   throughput plateaus well below its nominal vCPU count — CephFS
//!   "fails to scale" at large client counts;
//! * writes pay a RADOS journal append on a per-MDS journal station whose
//!   bandwidth exceeds an NDB-backed commit path (capabilities), giving
//!   CephFS the best write throughput.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use lambda_fs::{DfsService, OpDone, RunMetrics};
use lambda_namespace::{
    interned, DfsPath, FsError, FsOp, Inode, InodeId, OpOutcome, OpResult, Partitioner,
    TreeLayout, ROOT_INODE_ID,
};
use lambda_sim::params::NetParams;
use lambda_sim::{every, CostMeter, Dist, Sim, SimDuration, Station, StationRef, VmPricing};

/// vCPUs provisioned per MDS host (billed; mostly idle, reflecting the
/// MDS's narrow dispatch).
const VCPUS_PER_MDS: u32 = 16;
/// Effective parallel dispatch per MDS.
const DISPATCH_WIDTH: u32 = 2;
/// Parallel journal writers per MDS.
const JOURNAL_WIDTH: u32 = 1;
/// CPU service per read-class op, in seconds (0.10–0.20 ms).
const READ_SERVICE: Dist = Dist::Uniform { lo: 0.10 / 1e3, hi: 0.20 / 1e3 };
/// CPU service per write-class op, excluding the journal (0.15–0.30 ms).
const WRITE_SERVICE: Dist = Dist::Uniform { lo: 0.15 / 1e3, hi: 0.30 / 1e3 };
/// Journal append service per write (0.9–1.4 ms).
const JOURNAL_SERVICE: Dist = Dist::Uniform { lo: 0.9 / 1e3, hi: 1.4 / 1e3 };

/// Configuration for the CephFS-style MDS cluster.
#[derive(Debug, Clone)]
pub struct CephFsConfig {
    /// Number of MDS daemons.
    pub mds_count: u32,
    /// Number of clients.
    pub clients: u32,
    /// Network model.
    pub net: NetParams,
}

impl Default for CephFsConfig {
    fn default() -> Self {
        CephFsConfig {
            mds_count: 32,
            clients: 64,
            net: NetParams::default(),
        }
    }
}

impl CephFsConfig {
    /// A cluster sized from a total vCPU budget (16 vCPUs per MDS host).
    #[must_use]
    pub fn sized(total_vcpus: u32, clients: u32) -> Self {
        let mds_count = (total_vcpus / VCPUS_PER_MDS).max(1);
        CephFsConfig { mds_count, clients, ..Default::default() }
    }
}

/// The in-memory namespace shared by the MDS cluster (authoritative state
/// lives in MDS memory; the journal provides durability).
#[derive(Debug, Default)]
struct MemNamespace {
    inodes: BTreeMap<InodeId, Inode>,
    children: BTreeMap<(InodeId, String), InodeId>,
    next_id: InodeId,
}

impl MemNamespace {
    fn new() -> Self {
        let mut ns = MemNamespace {
            inodes: BTreeMap::new(),
            children: BTreeMap::new(),
            next_id: ROOT_INODE_ID + 1,
        };
        ns.inodes.insert(ROOT_INODE_ID, Inode::root());
        ns
    }

    fn alloc(&mut self) -> InodeId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn resolve(&self, path: &DfsPath) -> Result<Inode, FsError> {
        let mut current = ROOT_INODE_ID;
        for comp in path.components() {
            let parent = &self.inodes[&current];
            if !parent.is_dir() {
                return Err(FsError::NotADirectory(path.to_string()));
            }
            current = *self
                .children
                .get(&(current, comp.to_string()))
                .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        }
        Ok(self.inodes[&current].clone())
    }

    fn add(&mut self, path: &DfsPath, dir: bool, now_nanos: u64) -> OpResult {
        let parent_path = path.parent().ok_or_else(|| FsError::AlreadyExists("/".into()))?;
        let parent = self.resolve(&parent_path)?;
        if !parent.is_dir() {
            return Err(FsError::NotADirectory(parent_path.to_string()));
        }
        let name = path.file_name().expect("non-root").to_string();
        if self.children.contains_key(&(parent.id, name.clone())) {
            return Err(FsError::AlreadyExists(path.to_string()));
        }
        let id = self.alloc();
        let mut inode = if dir {
            Inode::directory(id, parent.id, name.clone())
        } else {
            Inode::file(id, parent.id, name.clone())
        };
        inode.mtime_nanos = now_nanos;
        self.inodes.insert(id, inode.clone());
        self.children.insert((parent.id, name), id);
        Ok(OpOutcome::Created(Box::new(inode)))
    }

    fn subtree_ids(&self, root: InodeId) -> Vec<InodeId> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(dir) = stack.pop() {
            let kids: Vec<InodeId> = self
                .children
                .range((dir, String::new())..(dir + 1, String::new()))
                .map(|(_, id)| *id)
                .collect();
            for id in kids {
                if self.inodes[&id].is_dir() {
                    stack.push(id);
                }
                out.push(id);
            }
        }
        out
    }

    fn delete(&mut self, path: &DfsPath) -> Result<(OpOutcome, u64), FsError> {
        let target = self.resolve(path)?;
        let descendants = if target.is_dir() { self.subtree_ids(target.id) } else { Vec::new() };
        for id in &descendants {
            let inode = self.inodes.remove(id).expect("collected");
            self.children.remove(&(inode.parent, inode.name.to_string()));
        }
        self.inodes.remove(&target.id);
        self.children.remove(&(target.parent, target.name.to_string()));
        let n = descendants.len() as u64 + 1;
        Ok((OpOutcome::Deleted(n), n))
    }

    fn mv(&mut self, src: &DfsPath, dst: &DfsPath) -> Result<(OpOutcome, u64), FsError> {
        if src.is_root() || dst.starts_with(src) {
            return Err(FsError::InvalidArgument("mv into its own subtree".into()));
        }
        let target = self.resolve(src)?;
        let dst_parent_path = dst.parent().ok_or_else(|| FsError::AlreadyExists("/".into()))?;
        let dst_parent = self.resolve(&dst_parent_path)?;
        if !dst_parent.is_dir() {
            return Err(FsError::NotADirectory(dst_parent_path.to_string()));
        }
        let dst_name = dst.file_name().expect("non-root").to_string();
        if self.children.contains_key(&(dst_parent.id, dst_name.clone())) {
            return Err(FsError::AlreadyExists(dst.to_string()));
        }
        let moved_count =
            if target.is_dir() { self.subtree_ids(target.id).len() as u64 + 1 } else { 1 };
        self.children.remove(&(target.parent, target.name.to_string()));
        self.children.insert((dst_parent.id, dst_name.clone()), target.id);
        let inode = self.inodes.get_mut(&target.id).expect("resolved");
        inode.parent = dst_parent.id;
        inode.name = dst_name.into();
        Ok((OpOutcome::Moved(moved_count), moved_count))
    }

    fn ls(&self, path: &DfsPath) -> OpResult {
        let target = self.resolve(path)?;
        if !target.is_dir() {
            return Ok(OpOutcome::Listing(Rc::new(vec![target.name.as_str()])));
        }
        let names = self
            .children
            .range((target.id, String::new())..(target.id + 1, String::new()))
            .map(|((_, name), _)| interned(name))
            .collect();
        Ok(OpOutcome::Listing(Rc::new(names)))
    }
}

struct Mds {
    cpu: StationRef,
    journal: StationRef,
}

/// The CephFS-style MDS cluster.
pub struct CephFs {
    config: CephFsConfig,
    mds: Vec<Rc<Mds>>,
    namespace: Rc<RefCell<MemNamespace>>,
    partitioner: Rc<Partitioner>,
    metrics: Rc<RefCell<RunMetrics>>,
    meter: Rc<RefCell<CostMeter>>,
    billing_on: Rc<std::cell::Cell<bool>>,
}

impl std::fmt::Debug for CephFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CephFs").field("mds", &self.mds.len()).finish()
    }
}

impl CephFs {
    /// Builds the cluster.
    #[must_use]
    pub fn build(sim: &mut Sim, config: CephFsConfig) -> Self {
        let _ = &sim;
        let mds = (0..config.mds_count)
            .map(|i| {
                Rc::new(Mds {
                    cpu: Station::new(format!("mds-{i}"), DISPATCH_WIDTH),
                    journal: Station::new(format!("mds-journal-{i}"), JOURNAL_WIDTH),
                })
            })
            .collect();
        CephFs {
            partitioner: Rc::new(Partitioner::new(config.mds_count.max(1))),
            mds,
            namespace: Rc::new(RefCell::new(MemNamespace::new())),
            metrics: Rc::new(RefCell::new(RunMetrics::new())),
            meter: Rc::new(RefCell::new(CostMeter::new())),
            billing_on: Rc::new(std::cell::Cell::new(false)),
            config,
        }
    }

    /// Starts per-second VM billing. Idempotent.
    pub fn start(&self, sim: &mut Sim) {
        if self.billing_on.replace(true) {
            return;
        }
        let meter = Rc::clone(&self.meter);
        let vcpus = f64::from(self.config.mds_count * VCPUS_PER_MDS);
        let on = Rc::clone(&self.billing_on);
        every(sim, sim.now() + SimDuration::from_secs(1), SimDuration::from_secs(1), move |sim| {
            if !on.get() {
                return false;
            }
            meter.borrow_mut().charge_vm(
                sim.now(),
                &VmPricing::default(),
                vcpus,
                SimDuration::from_secs(1),
            );
            true
        });
    }

    /// Stops billing at its next tick.
    pub fn stop(&self, _sim: &mut Sim) {
        self.billing_on.set(false);
    }

    /// Cumulative cost meter.
    #[must_use]
    pub fn cost_meter(&self) -> CostMeter {
        self.meter.borrow().clone()
    }

    /// Submits an operation.
    pub fn submit(&self, sim: &mut Sim, _client: usize, op: FsOp, done: OpDone) {
        self.metrics.borrow_mut().issued += 1;
        self.metrics.borrow_mut().tcp_rpcs += 1;
        let mds_idx =
            self.partitioner.deployment_for_path(op.primary_path()) as usize % self.mds.len();
        let mds = Rc::clone(&self.mds[mds_idx]);
        let hop = sim.rng().sample_duration(&self.config.net.tcp_one_way);
        let namespace = Rc::clone(&self.namespace);
        let net = self.config.net.clone();
        let metrics = Rc::clone(&self.metrics);
        let started = sim.now();
        sim.schedule(hop, move |sim| {
            let is_write = op.is_write();
            let class = op.class();
            let cpu_service =
                sim.rng().sample_duration(if is_write { &WRITE_SERVICE } else { &READ_SERVICE });
            let journal_append = sim.rng().sample_duration(&JOURNAL_SERVICE);
            let mds2 = Rc::clone(&mds);
            Station::submit(&mds.cpu, sim, cpu_service, move |sim| {
                let finish = move |sim: &mut Sim, result: OpResult| {
                    let back = sim.rng().sample_duration(&net.tcp_one_way);
                    sim.schedule(back, move |sim| {
                        let latency = sim.now().saturating_since(started);
                        match &result {
                            Ok(_) => metrics.borrow_mut().record_success(
                                sim.now(),
                                class,
                                latency,
                            ),
                            Err(e) => {
                                metrics.borrow_mut().record_failure(matches!(e, FsError::Timeout));
                            }
                        }
                        done(sim, result);
                    });
                };
                if is_write {
                    // Journal first (durability), then apply in memory.
                    let namespace = Rc::clone(&namespace);
                    Station::submit(&mds2.journal, sim, journal_append, move |sim| {
                        let now_nanos = sim.now().as_nanos();
                        let result = {
                            let mut ns = namespace.borrow_mut();
                            match &op {
                                FsOp::CreateFile(p) => ns.add(p, false, now_nanos),
                                FsOp::Mkdir(p) => ns.add(p, true, now_nanos),
                                FsOp::Delete(p) => ns.delete(p).map(|(o, _)| o),
                                FsOp::Mv(s, d) => ns.mv(s, d).map(|(o, _)| o),
                                _ => unreachable!("read op on write path"),
                            }
                        };
                        finish(sim, result);
                    });
                } else {
                    let result = {
                        let ns = namespace.borrow();
                        match &op {
                            FsOp::ReadFile(p) | FsOp::Stat(p) => {
                                ns.resolve(p).map(|i| OpOutcome::Meta(Rc::new(i)))
                            }
                            FsOp::Ls(p) => ns.ls(p),
                            _ => unreachable!("write op on read path"),
                        }
                    };
                    finish(sim, result);
                }
            });
        });
    }
}

impl DfsService for CephFs {
    fn service_name(&self) -> &'static str {
        "cephfs"
    }

    fn submit_op(&self, sim: &mut Sim, client: usize, op: FsOp, done: OpDone) {
        self.submit(sim, client, op, done);
    }

    fn client_count(&self) -> usize {
        self.config.clients as usize
    }

    fn run_metrics(&self) -> Rc<RefCell<RunMetrics>> {
        Rc::clone(&self.metrics)
    }

    fn bootstrap_tree(&self, root: &DfsPath, dirs: usize, files_per_dir: usize) -> Vec<DfsPath> {
        let mut ns = self.namespace.borrow_mut();
        if !root.is_root() && ns.resolve(root).is_err() {
            ns.add(root, true, 0).expect("bootstrap root");
        }
        let layout = TreeLayout { dirs, files_per_dir };
        let file_names = layout.file_names();
        let out = layout.dir_paths(root);
        for dir in &out {
            ns.add(dir, true, 0).expect("bootstrap dir");
            for &name in &file_names {
                ns.add(&dir.join_interned(name), false, 0).expect("bootstrap file");
            }
        }
        out
    }

    fn bootstrap_file(&self, path: &DfsPath) {
        self.namespace.borrow_mut().add(path, false, 0).expect("bootstrap file");
    }
}
