//! Micro-benchmarks (paper §5.3): per-operation scaling tests.
//!
//! Each client executes a fixed number of operations of one type
//! (3 072 in the paper) in a closed loop against an existing directory
//! tree; the reported number is the achieved throughput. The same driver
//! runs both scaling dimensions:
//!
//! * **client-driven scaling** (Fig. 11): vCPUs fixed, client count swept
//!   8 → 1 024;
//! * **resource scaling** (Fig. 12): client count fixed per problem size,
//!   vCPUs swept 16 → 512.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_fs::DfsService;
use lambda_namespace::{interned, DfsPath, FsOp, OpClass, TreeLayout};
use lambda_sim::{Sim, SimDuration, SimRng, SimTime};

/// Configuration for one micro-benchmark run.
#[derive(Debug, Clone)]
pub struct MicroConfig {
    /// The operation type under test.
    pub op: OpClass,
    /// Operations per client (3 072 in the paper).
    pub ops_per_client: usize,
    /// Pre-created directories in the target tree.
    pub dirs: usize,
    /// Pre-created files per directory.
    pub files_per_dir: usize,
    /// Hard wall-clock cap on the run (simulated time).
    pub deadline: SimDuration,
    /// Seed of the generator's own RNG stream (same offered targets for
    /// every system at a given seed).
    pub gen_seed: u64,
    /// Unmeasured warm-up operations per client, issued before the timed
    /// phase (scaled-down runs would otherwise be dominated by cold-cache
    /// misses that the paper's much longer runs amortize away).
    pub warmup_ops_per_client: usize,
}

impl Default for MicroConfig {
    fn default() -> Self {
        MicroConfig {
            op: OpClass::Read,
            ops_per_client: 3072,
            dirs: 128,
            files_per_dir: 32,
            deadline: SimDuration::from_secs(3600),
            gen_seed: 0x5EED,
            warmup_ops_per_client: 256,
        }
    }
}

impl MicroConfig {
    /// The pre-created tree: a multi-rooted one, with the directories
    /// spread over eight top-level parents `/bench0` … `/bench7` so that
    /// directory-keyed operations (ls, stat-dir) partition across
    /// deployments like a real (nested) namespace, instead of all hashing
    /// to the root's owner. Each root's layout holds its share of `dirs`.
    fn roots(&self) -> impl Iterator<Item = (DfsPath, TreeLayout)> + '_ {
        const ROOTS: usize = 8;
        (0..ROOTS).map(move |r| {
            let root: DfsPath = format!("/bench{r}").parse().expect("valid");
            let dirs = self.dirs / ROOTS + usize::from(r < self.dirs % ROOTS);
            (root, TreeLayout { dirs, files_per_dir: self.files_per_dir })
        })
    }

    /// Loads the pre-created tree into `svc` and returns its directories.
    /// Call it once, before [`run_micro`].
    pub fn load<S: DfsService + ?Sized>(&self, svc: &S) -> Vec<DfsPath> {
        self.roots()
            .flat_map(|(root, layout)| {
                svc.bootstrap_tree(&root, layout.dirs, layout.files_per_dir)
            })
            .collect()
    }
}

/// Result of one micro-benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct MicroRun {
    /// Operations completed (success or terminal failure).
    pub completed: u64,
    /// Operations that ultimately succeeded.
    pub succeeded: u64,
    /// Makespan: first submission to last completion.
    pub makespan: SimDuration,
    /// Achieved throughput in ops/sec over the makespan.
    pub throughput: f64,
}

struct MicroDriver<S: DfsService + 'static> {
    svc: Rc<S>,
    cfg: MicroConfig,
    dirs: Vec<DfsPath>,
    files: Vec<DfsPath>,
    remaining: RefCell<Vec<usize>>,
    completed: RefCell<u64>,
    succeeded: RefCell<u64>,
    last_completion: RefCell<SimTime>,
    next_name: RefCell<u64>,
    /// Reused name-rendering buffer (see the same field on the Spotify
    /// driver): fresh names are handed out interned, no `format!` per op.
    name_scratch: RefCell<String>,
    rng: RefCell<SimRng>,
}

impl<S: DfsService + 'static> MicroDriver<S> {
    fn fresh_name(&self, kind: char, client: usize) -> &'static str {
        use std::fmt::Write as _;
        let n = {
            let mut n = self.next_name.borrow_mut();
            *n += 1;
            *n
        };
        let mut buf = self.name_scratch.borrow_mut();
        buf.clear();
        write!(buf, "{kind}{client}_{n:08}").expect("write to String");
        interned(&buf)
    }

    fn next_op(self: &Rc<Self>, _sim: &mut Sim, client: usize) -> FsOp {
        let mut rng = self.rng.borrow_mut();
        match self.cfg.op {
            OpClass::Read => {
                FsOp::ReadFile(self.files[rng.pick_index(self.files.len())].clone())
            }
            OpClass::Stat => FsOp::Stat(self.files[rng.pick_index(self.files.len())].clone()),
            OpClass::Ls => FsOp::Ls(self.dirs[rng.pick_index(self.dirs.len())].clone()),
            OpClass::Create => {
                let dir = self.dirs[rng.pick_index(self.dirs.len())].clone();
                FsOp::CreateFile(dir.join(self.fresh_name('c', client)).expect("valid"))
            }
            OpClass::Mkdir => {
                let dir = self.dirs[rng.pick_index(self.dirs.len())].clone();
                FsOp::Mkdir(dir.join(self.fresh_name('d', client)).expect("valid"))
            }
            // Micro-benchmarks cover the five §5.3 operations; mv/delete
            // fall back to stat to keep the driver total-op invariant.
            OpClass::Delete | OpClass::Mv => {
                FsOp::Stat(self.files[rng.pick_index(self.files.len())].clone())
            }
        }
    }

    fn issue(self: &Rc<Self>, sim: &mut Sim, client: usize) {
        {
            let mut remaining = self.remaining.borrow_mut();
            if remaining[client] == 0 {
                return;
            }
            remaining[client] -= 1;
        }
        let op = self.next_op(sim, client);
        let this = Rc::clone(self);
        self.svc.submit_op(
            sim,
            client,
            op,
            Box::new(move |sim, result| {
                *this.completed.borrow_mut() += 1;
                if result.is_ok() {
                    *this.succeeded.borrow_mut() += 1;
                }
                *this.last_completion.borrow_mut() = sim.now();
                this.issue(sim, client);
            }),
        );
    }
}

/// Runs the micro-benchmark against a started service that holds `cfg`'s
/// tree ([`MicroConfig::load`]), returning the achieved-throughput record.
pub fn run_micro<S: DfsService + 'static>(sim: &mut Sim, svc: Rc<S>, cfg: MicroConfig) -> MicroRun {
    let (mut dirs, mut files) = (Vec::new(), Vec::new());
    for (root, layout) in cfg.roots() {
        let under_root = layout.dir_paths(&root);
        files.extend(layout.file_paths(&under_root));
        dirs.extend(under_root);
    }
    let clients = svc.client_count().max(1);
    let warmup = cfg.warmup_ops_per_client;
    let driver = Rc::new(MicroDriver {
        svc,
        dirs,
        files,
        remaining: RefCell::new(vec![warmup; clients]),
        completed: RefCell::new(0),
        succeeded: RefCell::new(0),
        last_completion: RefCell::new(sim.now()),
        next_name: RefCell::new(0),
        name_scratch: RefCell::new(String::new()),
        rng: RefCell::new(SimRng::new(cfg.gen_seed)),
        cfg,
    });
    // Unmeasured warm-up phase.
    if warmup > 0 {
        for client in 0..clients {
            driver.issue(sim, client);
        }
        let total = (warmup * clients) as u64;
        let deadline = sim.now() + driver.cfg.deadline;
        while *driver.completed.borrow() < total && sim.now() < deadline {
            if !sim.step() {
                break;
            }
        }
    }
    // Timed phase.
    {
        let mut d = driver.remaining.borrow_mut();
        *d = vec![driver.cfg.ops_per_client; clients];
        *driver.completed.borrow_mut() = 0;
        *driver.succeeded.borrow_mut() = 0;
    }
    let started = sim.now();
    *driver.last_completion.borrow_mut() = started;
    for client in 0..clients {
        driver.issue(sim, client);
    }
    let total = (driver.cfg.ops_per_client * clients) as u64;
    let deadline = started + driver.cfg.deadline;
    while *driver.completed.borrow() < total && sim.now() < deadline {
        if !sim.step() {
            break;
        }
    }
    let completed = *driver.completed.borrow();
    let succeeded = *driver.succeeded.borrow();
    let makespan = driver.last_completion.borrow().saturating_since(started);
    let throughput = if makespan.is_zero() {
        0.0
    } else {
        completed as f64 / makespan.as_secs_f64()
    };
    MicroRun { completed, succeeded, makespan, throughput }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_parameters() {
        let cfg = MicroConfig::default();
        assert_eq!(cfg.ops_per_client, 3072);
        assert_eq!(cfg.op, OpClass::Read);
    }
}
