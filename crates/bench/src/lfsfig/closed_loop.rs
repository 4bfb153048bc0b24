//! The closed-loop mixed workload under a fault plan that `fig15b_chaos`
//! and `fig15c_durability` both drive before auditing the system, and the
//! drain every audited λFS figure ends its runs with.

use std::cell::Cell;
use std::rc::Rc;

use lambda_fs::{AuditReport, DfsService, LambdaFs, LambdaFsConfig};
use lambda_namespace::{DfsPath, FsOp, TreeLayout};
use lambda_sim::fault::FaultPlan;
use lambda_sim::{Sim, SimDuration, SimTime};

/// Operation mix as cumulative shares: below `stat` a stat, below `read` a
/// read, below `ls` a listing, the rest create `<create_prefix>NNNNNN`.
pub struct Mix {
    pub stat: f64,
    pub read: f64,
    pub ls: f64,
    pub create_prefix: &'static str,
}

/// Closed-loop driver: every client keeps exactly one op in flight until
/// the measured window closes, so the run terminates by construction.
struct Driver {
    fs: Rc<LambdaFs>,
    dirs: Vec<DfsPath>,
    until: SimTime,
    mix: Mix,
    fresh: Cell<u64>,
}

impl Driver {
    fn pick(&self, sim: &mut Sim) -> FsOp {
        let dir = self.dirs[sim.rng().pick_index(self.dirs.len())].clone();
        let r = sim.rng().gen_unit();
        if r < self.mix.stat {
            FsOp::Stat(dir.join_interned(TreeLayout::file_name(0)))
        } else if r < self.mix.read {
            FsOp::ReadFile(dir.join_interned(TreeLayout::file_name(1)))
        } else if r < self.mix.ls {
            FsOp::Ls(dir)
        } else {
            self.fresh.set(self.fresh.get() + 1);
            let name = format!("{}{:06}", self.mix.create_prefix, self.fresh.get());
            FsOp::CreateFile(dir.join(&name).expect("valid"))
        }
    }

    fn kick(self: &Rc<Self>, sim: &mut Sim, client: usize) {
        if sim.now() >= self.until {
            return;
        }
        let op = self.pick(sim);
        let this = Rc::clone(self);
        self.fs.submit(sim, client, op, Box::new(move |sim, _result| this.kick(sim, client)));
    }
}

/// Builds the system, installs `plan`, drives `mix` over a 16 × 8 tree
/// under `root` for `secs` simulated seconds, drains and stops. Returns the
/// stopped system for its audit and counters.
pub fn run_closed_loop(
    seed: u64,
    config: LambdaFsConfig,
    plan: &FaultPlan,
    root: &str,
    mix: Mix,
    secs: u64,
) -> Rc<LambdaFs> {
    let mut sim = Sim::new(seed);
    let fs = Rc::new(LambdaFs::build(&mut sim, config));
    fs.start(&mut sim);
    fs.install_fault_plan(&mut sim, plan);
    let root: DfsPath = root.parse().expect("valid");
    let dirs = DfsService::bootstrap_tree(fs.as_ref(), &root, 16, 8);
    fs.prewarm_with(&mut sim, &dirs);
    sim.run_for(SimDuration::from_secs(3));

    let until = sim.now() + SimDuration::from_secs(secs);
    let driver = Rc::new(Driver { fs: Rc::clone(&fs), dirs, until, mix, fresh: Cell::new(0) });
    for client in 0..fs.client_count() {
        driver.kick(&mut sim, client);
    }
    sim.run_for(SimDuration::from_secs(secs));
    drain_and_stop(&mut sim, &fs);
    fs
}

/// Readies a system whose measured window has closed for its audit.
/// Drains first: outstanding retries/timeouts resolve within
/// max_retries × client_timeout, and the platform's request TTL expires
/// anything still queued — all while maintenance keeps ticking. Then stops
/// the system and runs until nothing is left to happen.
pub fn drain_and_stop(sim: &mut Sim, fs: &LambdaFs) {
    sim.run_for(SimDuration::from_secs(45));
    fs.stop(sim);
    sim.run();
}

/// The audit column of both figures' tables.
pub fn audit_cell(audit: &AuditReport) -> String {
    if audit.is_clean() {
        format!("clean ({})", audit.checks)
    } else {
        format!("FAILED ({})", audit.violations.len())
    }
}

/// Prints every failed audit under its label and, if there was one, exits 1
/// (the figures double as CI gates).
pub fn exit_on_violations<'a>(audits: impl Iterator<Item = (String, &'a AuditReport)>) {
    let mut failed = false;
    for (label, audit) in audits.filter(|(_, audit)| !audit.is_clean()) {
        failed = true;
        println!("\n{label} audit violations:");
        print!("{audit}");
    }
    if failed {
        std::process::exit(1);
    }
}
