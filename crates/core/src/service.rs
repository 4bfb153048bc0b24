//! The uniform driver interface every metadata service implements.
//!
//! The workload generators (industrial workload, micro-benchmarks,
//! tree-test) drive λFS and every baseline through this one trait, so any
//! throughput/latency difference between systems comes from the systems
//! themselves, never from the driver.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_namespace::{DfsPath, FsOp};
use lambda_sim::Sim;

use crate::fsops::OpDone;
use crate::metrics::RunMetrics;

/// A drivable DFS metadata service.
pub trait DfsService {
    /// Short system name for reports ("lambda-fs", "hopsfs", …).
    fn service_name(&self) -> &'static str;

    /// Submits `op` as client `client`; the implementation owns retries
    /// and calls `done` exactly once with the final result.
    fn submit_op(&self, sim: &mut Sim, client: usize, op: FsOp, done: OpDone);

    /// Number of simulated client processes.
    fn client_count(&self) -> usize;

    /// The client-observed metrics this service records into.
    fn run_metrics(&self) -> Rc<RefCell<RunMetrics>>;

    /// Bulk-loads the benchmark's pre-existing directory tree (§5.3:
    /// "all operations target random files and directories across an
    /// existing directory tree"), laid out by
    /// [`TreeLayout`](lambda_namespace::TreeLayout), once, before the
    /// workload starts. Returns the created directory paths.
    fn bootstrap_tree(&self, root: &DfsPath, dirs: usize, files_per_dir: usize) -> Vec<DfsPath>;

    /// Bulk-loads a single file (parents must exist). Pre-run loading
    /// only, like [`DfsService::bootstrap_tree`].
    fn bootstrap_file(&self, path: &DfsPath);
}
