//! The industrial ("Spotify") workload — paper §5.2.
//!
//! The paper's benchmark was generated from statistics of Spotify's
//! 1600-node HDFS cluster (the trace itself is proprietary; the published
//! operation mix in Table 2 and the §5.2.1 burst process are what we
//! reproduce):
//!
//! * operation mix: 69.22 % read, 17 % stat, 9.01 % ls, 2.7 % create,
//!   1.3 % mv, 0.75 % delete, 0.02 % mkdir (95.23 % reads overall);
//! * every 15 s the target throughput Δ is redrawn from a Pareto
//!   distribution with shape α = 2 and scale `x_t` (the base throughput),
//!   producing bursts of up to 7× the base;
//! * each client sustains Δ/n ops/sec; work not completed in a second
//!   **rolls over** (so a system that falls behind accumulates backlog —
//!   exactly how HopsFS "spent the duration of the workload attempting to
//!   catch up").

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use lambda_fs::DfsService;
use lambda_namespace::{interned, DfsPath, FsOp, OpClass, TreeLayout};
use lambda_sim::{every, Dist, Sim, SimDuration, SimRng, SimTime, Timeline};

/// The Table 2 operation mix as cumulative thresholds over a unit draw.
const MIX: [(OpClass, f64); 7] = [
    (OpClass::Read, 0.6922),
    (OpClass::Stat, 0.8622),
    (OpClass::Ls, 0.9523),
    (OpClass::Create, 0.9793),
    (OpClass::Mv, 0.9923),
    (OpClass::Delete, 0.9998),
    (OpClass::Mkdir, 1.0),
];

/// Configuration for one industrial-workload run.
#[derive(Debug, Clone)]
pub struct SpotifyConfig {
    /// Base throughput `x_t` in ops/sec (25 000 and 50 000 in §5.2).
    pub base_throughput: f64,
    /// Burst cap as a multiple of the base (the paper observed up to 7×).
    pub burst_cap: f64,
    /// Throughput-resample interval (15 s in the paper).
    pub resample_every: SimDuration,
    /// Workload duration (5 minutes in the paper).
    pub duration: SimDuration,
    /// Pre-created directories.
    pub dirs: usize,
    /// Pre-created files per directory.
    pub files_per_dir: usize,
    /// Maximum in-flight operations per client. hammer-bench clients are
    /// single-threaded issuers — one outstanding operation each, with the
    /// 1 024 clients providing the concurrency — so excess generated work
    /// queues as backlog (the paper's rollover).
    pub max_outstanding_per_client: usize,
    /// How long after generation stops to wait for the backlog to drain.
    pub drain_grace: SimDuration,
    /// Seed of the workload generator's own RNG stream, kept separate
    /// from the system's stream so every system sees the *same* offered
    /// load at a given seed.
    pub gen_seed: u64,
    /// Fraction of read-class operations targeting the hot 20 % of
    /// directories. Real MDS traces are heavily skewed ([35, 46] in the
    /// paper); 0.8 approximates an 80/20 concentration. Set to 0.2 for a
    /// uniform workload.
    pub read_hot_fraction: f64,
}

impl Default for SpotifyConfig {
    fn default() -> Self {
        SpotifyConfig {
            base_throughput: 25_000.0,
            burst_cap: 7.0,
            resample_every: SimDuration::from_secs(15),
            duration: SimDuration::from_secs(300),
            dirs: 2048,
            files_per_dir: 48,
            max_outstanding_per_client: 1,
            drain_grace: SimDuration::from_secs(60),
            gen_seed: 0x5EED,
            read_hot_fraction: 0.8,
        }
    }
}

impl SpotifyConfig {
    /// A scaled-down configuration for tests and quick runs: everything
    /// shrunk by `factor` (≥ 1).
    #[must_use]
    pub fn scaled_down(mut self, factor: f64) -> Self {
        let factor = factor.max(1.0);
        self.base_throughput /= factor;
        self.duration = self.duration.mul_f64(1.0 / factor);
        self.dirs = ((self.dirs as f64 / factor) as usize).max(8);
        self
    }

    /// Loads the pre-created tree, `dirs` directories under `/` each
    /// holding `files_per_dir` files, into `svc` and returns its
    /// directories. Call it once, before [`run_spotify`].
    pub fn load<S: DfsService + ?Sized>(&self, svc: &S) -> Vec<DfsPath> {
        svc.bootstrap_tree(&DfsPath::root(), self.dirs, self.files_per_dir)
    }
}

/// Driver-side record of one run.
#[derive(Debug, Clone)]
pub struct SpotifyRun {
    /// Offered load per second (the workload curve the system must chase).
    pub offered: Timeline,
    /// Operations generated.
    pub generated: u64,
    /// The per-interval throughput targets drawn from the Pareto process.
    pub targets: Vec<f64>,
}

struct ClientState {
    tokens: f64,
    outstanding: usize,
    backlog: VecDeque<FsOp>,
}

struct Driver<S: DfsService + 'static> {
    svc: Rc<S>,
    cfg: SpotifyConfig,
    dirs: Vec<DfsPath>,
    clients: RefCell<Vec<ClientState>>,
    /// Files created during the run, available for mv/delete.
    created_pool: RefCell<Vec<DfsPath>>,
    /// Bootstrap files for read/stat targets.
    files: Vec<DfsPath>,
    next_name: RefCell<u64>,
    /// Reused buffer for rendering fresh file/dir names; the rendered name
    /// is handed out interned, so the hot generation loop allocates only
    /// the one unavoidable interner copy per *distinct* name.
    name_scratch: RefCell<String>,
    rate_per_client: RefCell<f64>,
    offered: RefCell<Timeline>,
    generated: RefCell<u64>,
    targets: RefCell<Vec<f64>>,
    stop_generation_at: SimTime,
    /// Op-mix draws (diverges across systems as completions feed the
    /// mv/delete pool — statistically identical mixes).
    rng: RefCell<SimRng>,
    /// Burst-process draws, kept on their own stream so the offered-load
    /// *targets* are bit-identical across systems at one seed.
    target_rng: RefCell<SimRng>,
}

impl<S: DfsService + 'static> Driver<S> {
    /// A uniformly random directory (write targets).
    fn pick_dir(&self, _sim: &mut Sim) -> DfsPath {
        let idx = self.rng.borrow_mut().pick_index(self.dirs.len());
        self.dirs[idx].clone()
    }

    /// A read-target directory: hot 20 % with probability
    /// `read_hot_fraction`.
    fn pick_read_dir_index(&self) -> usize {
        let mut rng = self.rng.borrow_mut();
        let hot = (self.dirs.len() / 5).max(1);
        if rng.gen_bool(self.cfg.read_hot_fraction) {
            rng.pick_index(hot)
        } else {
            rng.pick_index(self.dirs.len())
        }
    }

    fn pick_read_dir(&self, _sim: &mut Sim) -> DfsPath {
        self.dirs[self.pick_read_dir_index()].clone()
    }

    /// A read-target file, skewed like [`Driver::pick_read_dir`].
    fn pick_file(&self, _sim: &mut Sim) -> DfsPath {
        let dir = self.pick_read_dir_index();
        let within = self.rng.borrow_mut().pick_index(self.cfg.files_per_dir.max(1));
        self.files[dir * self.cfg.files_per_dir + within].clone()
    }

    fn fresh_name(&self, prefix: &str) -> &'static str {
        use std::fmt::Write as _;
        let n = {
            let mut n = self.next_name.borrow_mut();
            *n += 1;
            *n
        };
        let mut buf = self.name_scratch.borrow_mut();
        buf.clear();
        write!(buf, "{prefix}{n:08}").expect("write to String");
        interned(&buf)
    }

    fn generate_op(self: &Rc<Self>, sim: &mut Sim) -> FsOp {
        let draw = self.rng.borrow_mut().gen_unit();
        let class = MIX
            .iter()
            .find(|(_, threshold)| draw < *threshold)
            .map(|(c, _)| *c)
            .unwrap_or(OpClass::Read);
        match class {
            OpClass::Read => FsOp::ReadFile(self.pick_file(sim)),
            OpClass::Stat => {
                // "stat file/dir": mostly files, some directories.
                let file = self.rng.borrow_mut().gen_bool(0.8);
                if file {
                    FsOp::Stat(self.pick_file(sim))
                } else {
                    FsOp::Stat(self.pick_read_dir(sim))
                }
            }
            OpClass::Ls => FsOp::Ls(self.pick_read_dir(sim)),
            OpClass::Create => {
                let dir = self.pick_dir(sim);
                let name = self.fresh_name("w");
                FsOp::CreateFile(dir.join(name).expect("valid name"))
            }
            OpClass::Mkdir => {
                let dir = self.pick_dir(sim);
                let name = self.fresh_name("d");
                FsOp::Mkdir(dir.join(name).expect("valid name"))
            }
            OpClass::Mv => {
                // Prefer files this run created (keeps the bootstrap
                // working set stable for the read mix).
                let src = self.created_pool.borrow_mut().pop();
                match src {
                    Some(src) => {
                        let dst_dir = self.pick_dir(sim);
                        let name = self.fresh_name("m");
                        FsOp::Mv(src, dst_dir.join(name).expect("valid name"))
                    }
                    None => FsOp::Stat(self.pick_file(sim)), // degenerate: nothing to move
                }
            }
            OpClass::Delete => {
                let victim = self.created_pool.borrow_mut().pop();
                match victim {
                    Some(victim) => FsOp::Delete(victim),
                    None => FsOp::Stat(self.pick_file(sim)),
                }
            }
        }
    }

    /// Issues queued work up to the outstanding cap for `client`.
    fn pump(self: &Rc<Self>, sim: &mut Sim, client: usize) {
        loop {
            let op = {
                let mut clients = self.clients.borrow_mut();
                let st = &mut clients[client];
                if st.outstanding >= self.cfg.max_outstanding_per_client {
                    return;
                }
                match st.backlog.pop_front() {
                    Some(op) => {
                        st.outstanding += 1;
                        op
                    }
                    None => return,
                }
            };
            let this = Rc::clone(self);
            let op_for_pool = op.clone();
            self.svc.submit_op(
                sim,
                client,
                op,
                Box::new(move |sim, result| {
                    if result.is_ok() {
                        // Successful creations/moves feed the mv/delete pool.
                        match &op_for_pool {
                            FsOp::CreateFile(p) => this.created_pool.borrow_mut().push(p.clone()),
                            FsOp::Mv(_, dst) => this.created_pool.borrow_mut().push(dst.clone()),
                            _ => {}
                        }
                    }
                    this.clients.borrow_mut()[client].outstanding -= 1;
                    this.pump(sim, client);
                }),
            );
        }
    }
}

/// Runs the industrial workload against `svc`, which must already be
/// started and hold `cfg`'s tree ([`SpotifyConfig::load`]), returning the
/// driver-side record. The service's own
/// [`RunMetrics`](lambda_fs::RunMetrics) hold the measured side.
pub fn run_spotify<S: DfsService + 'static>(
    sim: &mut Sim,
    svc: Rc<S>,
    cfg: SpotifyConfig,
) -> SpotifyRun {
    let layout = TreeLayout { dirs: cfg.dirs, files_per_dir: cfg.files_per_dir };
    let dirs = layout.dir_paths(&DfsPath::root());
    let files = layout.file_paths(&dirs);
    let n_clients = svc.client_count().max(1);
    let driver = Rc::new(Driver {
        svc,
        dirs,
        files,
        clients: RefCell::new(
            (0..n_clients)
                .map(|_| ClientState { tokens: 0.0, outstanding: 0, backlog: VecDeque::new() })
                .collect(),
        ),
        created_pool: RefCell::new(Vec::new()),
        next_name: RefCell::new(0),
        name_scratch: RefCell::new(String::new()),
        rate_per_client: RefCell::new(cfg.base_throughput / n_clients as f64),
        offered: RefCell::new(Timeline::new(SimDuration::from_secs(1))),
        generated: RefCell::new(0),
        targets: RefCell::new(Vec::new()),
        stop_generation_at: sim.now() + cfg.duration,
        rng: RefCell::new(SimRng::new(cfg.gen_seed)),
        target_rng: RefCell::new(SimRng::new(cfg.gen_seed ^ 0x007A_46E7)),
        cfg,
    });

    // Throughput resampling: Δ ~ bounded Pareto(α=2, x_t, cap·x_t).
    let pareto = Dist::ParetoBounded {
        alpha: 2.0,
        x_m: driver.cfg.base_throughput,
        cap: driver.cfg.base_throughput * driver.cfg.burst_cap,
    };
    {
        let driver = Rc::clone(&driver);
        every(sim, sim.now(), driver.cfg.resample_every, move |sim| {
            if sim.now() >= driver.stop_generation_at {
                return false;
            }
            let _ = &sim;
            let delta = driver.target_rng.borrow_mut().sample(&pareto);
            driver.targets.borrow_mut().push(delta);
            *driver.rate_per_client.borrow_mut() =
                delta / driver.clients.borrow().len() as f64;
            true
        });
    }
    // Generation tick: 10 Hz token refill per client, with rollover.
    {
        let driver = Rc::clone(&driver);
        every(sim, sim.now(), SimDuration::from_millis(100), move |sim| {
            if sim.now() >= driver.stop_generation_at {
                return false;
            }
            let rate = *driver.rate_per_client.borrow();
            let n = driver.clients.borrow().len();
            for client in 0..n {
                let to_issue = {
                    let mut clients = driver.clients.borrow_mut();
                    let st = &mut clients[client];
                    st.tokens += rate / 10.0;
                    let whole = st.tokens.floor() as u64;
                    st.tokens -= whole as f64;
                    whole
                };
                if to_issue == 0 {
                    continue;
                }
                *driver.generated.borrow_mut() += to_issue;
                driver.offered.borrow_mut().add(sim.now(), to_issue as f64);
                for _ in 0..to_issue {
                    let op = driver.generate_op(sim);
                    // Spread arrivals uniformly over the tick: open-loop
                    // load is a point process, not a slug of simultaneous
                    // submissions at each tick boundary.
                    let offset_ns =
                        driver.rng.borrow_mut().gen_range(0..100_000_000u64);
                    let driver2 = Rc::clone(&driver);
                    sim.schedule(SimDuration::from_nanos(offset_ns), move |sim| {
                        driver2.clients.borrow_mut()[client].backlog.push_back(op);
                        driver2.pump(sim, client);
                    });
                }
            }
            true
        });
    }
    // Run generation plus drain grace.
    let deadline = driver.stop_generation_at + driver.cfg.drain_grace;
    sim.run_until(deadline);
    let run = SpotifyRun {
        offered: driver.offered.borrow().clone(),
        generated: *driver.generated.borrow(),
        targets: driver.targets.borrow().clone(),
    };
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_a_valid_cdf() {
        let mut prev = 0.0;
        for (_, threshold) in MIX {
            assert!(threshold > prev);
            prev = threshold;
        }
        assert!((MIX.last().unwrap().1 - 1.0).abs() < 1e-12);
        // 95.23% reads, per Table 2.
        assert!((MIX[2].1 - 0.9523).abs() < 1e-12);
    }

    #[test]
    fn scaled_down_shrinks_sanely() {
        let cfg = SpotifyConfig::default().scaled_down(10.0);
        assert!((cfg.base_throughput - 2500.0).abs() < 1e-9);
        assert_eq!(cfg.duration, SimDuration::from_secs(30));
        assert!(cfg.dirs >= 8);
    }
}
