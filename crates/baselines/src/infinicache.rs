//! The InfiniCache-style comparator (paper §5.1):
//!
//! > "InfiniCache uses a static, fixed-size deployment of cloud functions
//! > to serve I/O operations via short TCP connections that require
//! > invoking functions for every operation. InfiniCache thus serves as
//! > an approximation of λFS with no auto-scaling or long-lived TCP-RPC
//! > request mechanism."
//!
//! The comparator is therefore λFS itself with three knobs turned:
//! every RPC goes through the FaaS gateway (`http_replace_prob = 1`),
//! each deployment is pinned to a single instance (no intra-deployment
//! scale-out), and anti-thrashing is disabled (it would suppress the
//! HTTP-per-op behavior being measured). The evaluation's observation —
//! the platform drowning in HTTP invocations under load (§5.2.2) —
//! emerges from exactly these settings.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_fs::{DfsService, LambdaFs, LambdaFsConfig, OpDone, RunMetrics};
use lambda_namespace::{DfsPath, FsOp};
use lambda_sim::Sim;

/// The InfiniCache-style fixed FaaS deployment.
pub struct InfiniCacheStyle {
    inner: LambdaFs,
}

impl std::fmt::Debug for InfiniCacheStyle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InfiniCacheStyle").finish_non_exhaustive()
    }
}

impl InfiniCacheStyle {
    /// Builds the comparator from a λFS base configuration, applying the
    /// InfiniCache constraints.
    #[must_use]
    pub fn build(sim: &mut Sim, base: LambdaFsConfig) -> Self {
        let config = LambdaFsConfig {
            // Per-op function invocation: every RPC is HTTP.
            http_replace_prob: 1.0,
            // Static fixed-size deployment: no intra-deployment scaling.
            max_instances_per_deployment: 1,
            // Anti-thrashing would fall back to TCP, defeating the model.
            anti_thrashing: false,
            ..base
        };
        InfiniCacheStyle { inner: LambdaFs::build(sim, config) }
    }

    /// Starts background activity.
    pub fn start(&self, sim: &mut Sim) {
        self.inner.start(sim);
    }

    /// Stops background activity.
    pub fn stop(&self, sim: &mut Sim) {
        self.inner.stop(sim);
    }

    /// The wrapped system (metrics, platform, store access).
    #[must_use]
    pub fn system(&self) -> &LambdaFs {
        &self.inner
    }
}

impl DfsService for InfiniCacheStyle {
    fn service_name(&self) -> &'static str {
        "infinicache-style"
    }

    fn submit_op(&self, sim: &mut Sim, client: usize, op: FsOp, done: OpDone) {
        self.inner.submit(sim, client, op, done);
    }

    fn client_count(&self) -> usize {
        self.inner.client_count()
    }

    fn run_metrics(&self) -> Rc<RefCell<RunMetrics>> {
        self.inner.metrics()
    }

    fn bootstrap_tree(&self, root: &DfsPath, dirs: usize, files_per_dir: usize) -> Vec<DfsPath> {
        self.inner.bootstrap_tree(root, dirs, files_per_dir)
    }

    fn bootstrap_file(&self, path: &DfsPath) {
        self.inner.bootstrap_file(path);
    }
}
