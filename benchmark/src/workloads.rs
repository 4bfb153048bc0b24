//! The four workloads: how each system is sized and built, and the
//! drivers that feed it operations. The program under test only ever sees
//! generated `FsOp`s. `--seed` seeds the simulated system and the two
//! drivers this file owns; the industrial driver keeps its library's fixed
//! trace (see `drive_industrial`).

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;

use lambda_fs::{DfsService, LambdaFs, LambdaFsConfig, OpDone};
use lambda_namespace::{DfsPath, FsError, FsOp, InodeName, OpClass, OpOutcome};
use lambda_sim::fault::FaultPlan;
use lambda_sim::params::StoreParams;
use lambda_sim::{every, Sim, SimDuration, SimRng, SimTime};
use lambda_store::DurabilityConfig;
use lambda_workload::{run_spotify, SpotifyConfig};

use crate::trace::Tracer;

/// Files per bootstrap directory on the three 48-file workloads (the
/// industrial tree layout; `write_mix` uses the micro-benchmark's 32).
const FILES_PER_DIR: usize = 48;

/// The fixed fault plan of `elastic_faults`, in absolute simulated time.
/// The workload window is ≈[8 s, 8 s + duration): every class of the fault
/// plane fires inside it — NameNode kill bursts every 10 s, two shard
/// crashes (WAL replay on the durable backend), a lossy and a slow network
/// window, a client-VM↔deployment partition and a cold-start storm.
pub const ELASTIC_FAULT_PLAN: &str = "kill@15s:count=2;kill@25s:count=2;shard@30s:shard=1,down=3s;\
kill@35s:count=2;drop@40s-46s:p=0.15;kill@45s:count=2;storm@50s-70s:x=4;kill@55s:count=3;\
shard@62s:shard=2,down=2s;kill@65s:count=2;part@70s-74s:a=0,b=1000;kill@75s:count=2;\
delay@80s-90s:p=0.3,ms=30;kill@85s:count=2";

/// Simulated settle time between prewarm and the timed window.
const SETTLE: SimDuration = SimDuration::from_secs(8);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Spotify25k,
    Tree10m,
    WriteMix,
    ElasticFaults,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Spotify25k,
        Workload::Tree10m,
        Workload::WriteMix,
        Workload::ElasticFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Spotify25k => "spotify_25k",
            Workload::Tree10m => "tree_10m",
            Workload::WriteMix => "write_mix",
            Workload::ElasticFaults => "elastic_faults",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether operations are offered on a schedule (open loop) or each
    /// client waits for its previous reply (closed loop).
    pub fn open_loop(self) -> bool {
        self != Workload::WriteMix
    }

    /// Whether the namespace is small enough to copy out and walk after
    /// the run without moving `host_peak_rss_mb`.
    pub fn small_namespace(self) -> bool {
        self != Workload::Tree10m
    }
}

/// Sizing of one industrial (Table-2 mix, Pareto bursts) cell; the
/// arithmetic is `lambda_bench::industrial::lambda_config`'s, copied so
/// the benchmark does not depend on the figure binaries' crate.
struct Industrial {
    /// Full-scale base rate in ops/s (25 000 / 50 000 in the paper).
    base_throughput: f64,
    /// Shrink factor of the cell (fig08a runs at 5, fig08b here at 10).
    scale: f64,
    /// Offered-load duration in simulated seconds.
    sim_secs: u64,
    reduced_cache: bool,
    concurrency_level: u32,
    durable: bool,
}

impl Industrial {
    fn dirs(&self) -> usize {
        ((2048.0 / self.scale) as usize).max(64)
    }

    fn spotify(&self, shrink: f64) -> SpotifyConfig {
        SpotifyConfig {
            // Smoke runs offer 1/shrink of the rate over the same
            // duration, so burst schedule and fault plan keep their shape.
            base_throughput: self.base_throughput / self.scale / shrink,
            duration: SimDuration::from_secs(self.sim_secs),
            dirs: self.dirs(),
            files_per_dir: FILES_PER_DIR,
            ..Default::default()
        }
    }

    fn config(&self) -> LambdaFsConfig {
        let per_nn_wss = self.dirs() * (FILES_PER_DIR + 1) / 10;
        LambdaFsConfig {
            deployments: 10,
            nn_vcpus: 5,
            nn_mem_gb: 6.0,
            concurrency_level: self.concurrency_level,
            cluster_vcpus: ((512.0 / self.scale) as u32).max(64),
            clients: ((1024.0 / self.scale) as u32).max(16),
            client_vms: 8,
            cache_capacity: if self.reduced_cache {
                (per_nn_wss / 3).max(64)
            } else {
                2_000_000
            },
            store: StoreParams::default().slowed(self.scale),
            durability: self.durable.then(DurabilityConfig::default),
            ..Default::default()
        }
    }
}

const SPOTIFY_25K: Industrial = Industrial {
    base_throughput: 25_000.0,
    scale: 5.0,
    sim_secs: 55,
    reduced_cache: false,
    concurrency_level: 4,
    durable: false,
};

const ELASTIC_FAULTS: Industrial = Industrial {
    base_throughput: 30_000.0,
    scale: 10.0,
    sim_secs: 94,
    reduced_cache: true,
    concurrency_level: 1,
    durable: true,
};

/// `tree_10m` sizing: the fig08d acceptance point.
const TREE_CLIENTS: u32 = 500_000;
const TREE_DIRS: usize = 204_082;
const TREE_OPS: u64 = 320_000;
const TREE_RATE: f64 = 4_000.0;

/// `write_mix` sizing.
const MIX_CLIENTS: u32 = 256;
const MIX_OPS_PER_CLIENT: u64 = 1_280;
const MIX_DIRS: usize = 128;
const MIX_FILES_PER_DIR: usize = 32;

/// What the benchmark itself observes of every operation it submits:
/// counts, exact client-observed latencies and outcome shapes. Measured
/// outside the system, so a change to the system's own metrics code cannot
/// move an end-to-end number.
///
/// An operation is the application's: it is handed to the client library,
/// and where the library gives up on it (`elastic_faults` only) the
/// application recovers it — see [`Observed`]. `submitted`, `succeeded` and
/// `abandoned` count operations; `timeouts`, `retries_exhausted` and
/// `ambiguous_replies` count calls into the library that ended in an error.
#[derive(Debug, Default)]
pub struct Recorder {
    pub submitted: u64,
    pub succeeded: u64,
    /// Successes whose first call into the client library succeeded.
    pub first_try: u64,
    /// Operations that ended in an error no recovery applies to.
    pub abandoned: u64,
    pub timeouts: u64,
    pub retries_exhausted: u64,
    /// `AlreadyExists` / `NotFound` replies to a retried copy of an
    /// operation whose earlier copy had taken effect.
    pub ambiguous_replies: u64,
    /// Successful replies whose payload did not fit the request.
    pub wrong_outcomes: u64,
    /// Latency of every successful call into the client library in ns,
    /// per class in `OpClass::ALL` order.
    pub lat_ns: [Vec<u64>; 7],
    /// Successes that completed before `credit_until` (open loop: the end
    /// of the offered window; backlog drained later earns no credit).
    pub credited: u64,
    pub credit_until: Option<SimTime>,
    pub first_submit: Option<SimTime>,
    pub last_done: Option<SimTime>,
}

impl Recorder {
    fn succeed(&mut self, now: SimTime, first_call: bool) {
        self.succeeded += 1;
        self.first_try += u64::from(first_call);
        if self.credit_until.is_none_or(|until| now < until) {
            self.credited += 1;
        }
    }
}

fn class_index(class: OpClass) -> usize {
    OpClass::ALL
        .iter()
        .position(|c| *c == class)
        .expect("class listed in OpClass::ALL")
}

/// Whether a successful reply has the shape and the name the request
/// implies — the per-operation output check.
fn outcome_fits(op: &FsOp, outcome: &OpOutcome) -> bool {
    let named = |inode: &lambda_namespace::Inode, path: &DfsPath| {
        path.file_name()
            .is_none_or(|name| inode.name.as_str() == name)
    };
    match (op, outcome) {
        (FsOp::ReadFile(p) | FsOp::Stat(p), OpOutcome::Meta(inode)) => named(inode, p),
        (FsOp::Ls(_), OpOutcome::Listing(_)) => true,
        (FsOp::CreateFile(p) | FsOp::Mkdir(p), OpOutcome::Created(inode)) => named(inode, p),
        (FsOp::Delete(_), OpOutcome::Deleted(n)) | (FsOp::Mv(..), OpOutcome::Moved(n)) => *n >= 1,
        _ => false,
    }
}

/// How long the application waits before it hands an operation the client
/// library gave up on back to it.
const RESUBMIT_AFTER: SimDuration = SimDuration::from_millis(200);

/// The system as the drivers see it: every submission passes through the
/// [`Recorder`] on its way in and out.
///
/// It is also the application's own recovery, so that every operation of
/// every workload ends in success. The client library retries at least
/// once, and under injected faults it can (a) give up — `Timeout`,
/// `RetriesExhausted`, or a transient error passed through — and (b) answer
/// `AlreadyExists` / `NotFound` to the retried copy of a create, delete or
/// move whose first copy took effect and lost its reply. The application
/// resubmits (a) after [`RESUBMIT_AFTER`] until the operation ends, and
/// settles (b) against the committed namespace: every name the drivers
/// create or move to is fresh, every name they delete or move from is used
/// once, so only a copy of the same operation can have caused the reply.
/// `success_share` is the share of operations that needed neither.
pub struct Observed {
    pub fs: Rc<LambdaFs>,
    pub rec: Rc<RefCell<Recorder>>,
}

/// The outcome of `op` if the committed namespace shows that an earlier
/// copy of it took effect, given that a later copy was answered `err`.
fn took_effect(fs: &LambdaFs, op: &FsOp, err: &FsError) -> Option<OpOutcome> {
    let (schema, db) = (fs.schema(), fs.db());
    let inode_at = |path: &DfsPath| {
        let id = *schema.peek_chain_ids(db, path)?.last()?;
        db.peek(schema.inodes, &id)
    };
    match (op, err) {
        (FsOp::CreateFile(p) | FsOp::Mkdir(p), FsError::AlreadyExists(_)) => {
            inode_at(p).map(|inode| OpOutcome::Created(Box::new(inode)))
        }
        (FsOp::Delete(p), FsError::NotFound(_)) => {
            inode_at(p).is_none().then_some(OpOutcome::Deleted(1))
        }
        (FsOp::Mv(src, dst), FsError::NotFound(_)) => {
            (inode_at(src).is_none() && inode_at(dst).is_some()).then_some(OpOutcome::Moved(1))
        }
        _ => None,
    }
}

/// One call into the client library for `op`, and what follows from its
/// reply: completion, settlement or resubmission (see [`Observed`]).
fn call_library(
    fs: Rc<LambdaFs>,
    rec: Rc<RefCell<Recorder>>,
    sim: &mut Sim,
    client: usize,
    op: FsOp,
    done: OpDone,
    first_call: bool,
) {
    let started = sim.now();
    let asked = op.clone();
    let library = Rc::clone(&fs);
    library.submit(
        sim,
        client,
        op,
        Box::new(move |sim, result| {
            let now = sim.now();
            let err = match result {
                Ok(outcome) => {
                    {
                        let mut rec = rec.borrow_mut();
                        rec.last_done = Some(now);
                        rec.succeed(now, first_call);
                        if !outcome_fits(&asked, &outcome) {
                            rec.wrong_outcomes += 1;
                        }
                        rec.lat_ns[class_index(asked.class())]
                            .push(now.saturating_since(started).as_nanos());
                    }
                    return done(sim, Ok(outcome));
                }
                Err(err) => err,
            };
            let resubmit = match &err {
                FsError::Timeout => {
                    rec.borrow_mut().timeouts += 1;
                    true
                }
                FsError::RetriesExhausted => {
                    rec.borrow_mut().retries_exhausted += 1;
                    true
                }
                FsError::Retryable(_) | FsError::SubtreeLocked(_) => true,
                _ => false,
            };
            if resubmit {
                sim.schedule(RESUBMIT_AFTER, move |sim| {
                    call_library(fs, rec, sim, client, asked, done, false);
                });
                return;
            }
            let settled = took_effect(&fs, &asked, &err);
            {
                let mut rec = rec.borrow_mut();
                rec.last_done = Some(now);
                match settled {
                    Some(_) => {
                        rec.ambiguous_replies += 1;
                        rec.succeed(now, false);
                    }
                    None => rec.abandoned += 1,
                }
            }
            done(sim, settled.ok_or(err));
        }),
    );
}

impl DfsService for Observed {
    fn service_name(&self) -> &'static str {
        "lambda-fs (observed)"
    }

    fn submit_op(&self, sim: &mut Sim, client: usize, op: FsOp, done: OpDone) {
        {
            let mut rec = self.rec.borrow_mut();
            rec.submitted += 1;
            rec.first_submit.get_or_insert(sim.now());
        }
        let (fs, rec) = (Rc::clone(&self.fs), Rc::clone(&self.rec));
        call_library(fs, rec, sim, client, op, done, true);
    }

    fn client_count(&self) -> usize {
        self.fs.client_count()
    }

    fn run_metrics(&self) -> Rc<RefCell<lambda_fs::RunMetrics>> {
        self.fs.metrics()
    }

    fn bootstrap_tree(&self, root: &DfsPath, dirs: usize, files_per_dir: usize) -> Vec<DfsPath> {
        self.fs.bootstrap_tree(root, dirs, files_per_dir)
    }

    fn bootstrap_file(&self, path: &DfsPath) {
        self.fs.bootstrap_file(path);
    }
}

/// A built, warmed and settled system, ready for its timed window.
pub struct Built {
    pub sim: Sim,
    pub fs: Rc<LambdaFs>,
    pub dirs: Vec<DfsPath>,
    /// Inodes in the store when the window opens.
    pub inodes_at_start: usize,
}

/// Builds the workload's system, loads its tree, starts it, installs the
/// fault plan (if any), prewarms (unless the workload starts cold) and
/// settles. Everything here is the `setup_s` metric.
pub fn setup(w: Workload, seed: u64, shrink: f64, tracer: &mut Tracer) -> Built {
    let mut sim = Sim::new(seed);
    let (config, root_dirs, files) = match w {
        Workload::Spotify25k => (SPOTIFY_25K.config(), SPOTIFY_25K.dirs(), FILES_PER_DIR),
        Workload::ElasticFaults => (
            ELASTIC_FAULTS.config(),
            ELASTIC_FAULTS.dirs(),
            FILES_PER_DIR,
        ),
        Workload::Tree10m => (
            LambdaFsConfig {
                clients: (f64::from(TREE_CLIENTS) / shrink) as u32,
                ..Default::default()
            },
            (TREE_DIRS as f64 / shrink) as usize,
            FILES_PER_DIR,
        ),
        Workload::WriteMix => (
            LambdaFsConfig {
                deployments: 10,
                clients: MIX_CLIENTS,
                cluster_vcpus: 128,
                store: StoreParams::default().slowed(4.0),
                ..Default::default()
            },
            MIX_DIRS,
            MIX_FILES_PER_DIR,
        ),
    };
    let fs = tracer.span("build", || Rc::new(LambdaFs::build(&mut sim, config)));
    let dirs = tracer.span("bootstrap", || {
        fs.bootstrap_tree(&DfsPath::root(), root_dirs, files)
    });
    tracer.span("start", || {
        fs.start(&mut sim);
        if w == Workload::ElasticFaults {
            let plan = FaultPlan::parse(ELASTIC_FAULT_PLAN).expect("the fixed plan parses");
            fs.install_fault_plan(&mut sim, &plan);
        }
    });
    if w != Workload::ElasticFaults {
        // The first few dozen directories cover all ten partitions.
        tracer.span("prewarm", || {
            fs.prewarm_with(&mut sim, &dirs[..dirs.len().min(64)])
        });
    }
    tracer.span("settle", || sim.run_for(SETTLE));
    let inodes_at_start = fs.schema().inode_count(fs.db());
    Built {
        sim,
        fs,
        dirs,
        inodes_at_start,
    }
}

/// What a driver reports about the load it offered.
#[derive(Debug, Clone, Default)]
pub struct Offered {
    /// Operations the generator produced (≥ submitted: open-loop backlog
    /// that was never sent still counts as generated, and as failed).
    pub generated: u64,
    /// Length of the offered window in simulated seconds (open loop).
    pub offered_secs: f64,
    /// Highest per-second offered rate (open loop; 0 for closed loop).
    pub offered_peak_ops_s: f64,
    /// Mean number of pending kernel events and of live NameNodes, sampled
    /// once per simulated second while load was offered (they size the
    /// kernel and the platform probes).
    pub mean_pending_events: f64,
    pub mean_instances: f64,
    /// Violations of the workload's own output model (write_mix only).
    pub model_violations: Vec<String>,
}

/// Samples the kernel's pending-event depth and the NameNode count once
/// per simulated second until `stop` is set.
fn sample_depths(built: &mut Built, stop: &Rc<Cell<bool>>) -> Rc<RefCell<Vec<(usize, usize)>>> {
    let samples = Rc::new(RefCell::new(Vec::new()));
    let (out, stop, fs) = (Rc::clone(&samples), Rc::clone(stop), Rc::clone(&built.fs));
    let sim = &mut built.sim;
    every(sim, sim.now(), SimDuration::from_secs(1), move |sim| {
        out.borrow_mut()
            .push((sim.events_pending(), fs.active_namenodes()));
        !stop.get()
    });
    samples
}

fn mean(values: impl ExactSizeIterator<Item = usize>) -> f64 {
    let n = values.len();
    if n == 0 {
        0.0
    } else {
        values.sum::<usize>() as f64 / n as f64
    }
}

/// Runs the workload's timed window: offers the load and runs the
/// simulation until the offered window and its drain grace have passed.
pub fn drive(
    w: Workload,
    seed: u64,
    shrink: f64,
    built: &mut Built,
    obs: &Rc<Observed>,
) -> Offered {
    let stop = Rc::new(Cell::new(false));
    let depths = sample_depths(built, &stop);
    let mut offered = match w {
        Workload::Spotify25k => drive_industrial(&SPOTIFY_25K, shrink, built, obs, &stop),
        Workload::ElasticFaults => drive_industrial(&ELASTIC_FAULTS, shrink, built, obs, &stop),
        Workload::Tree10m => drive_lean_reads(seed, shrink, built, obs, &stop),
        Workload::WriteMix => drive_write_mix(seed, shrink, built, obs, &stop),
    };
    stop.set(true);
    offered.mean_pending_events = mean(depths.borrow().iter().map(|d| d.0));
    offered.mean_instances = mean(depths.borrow().iter().map(|d| d.1));
    offered
}

/// Industrial driver: `lambda_workload::run_spotify` (Table-2 mix, bounded
/// Pareto(α=2) rate resampled every 15 s, single-outstanding clients with
/// backlog rollover). The generator keeps the library's fixed `gen_seed`,
/// as every figure does: the offered trace — burst schedule and operation
/// stream — is part of the workload's definition, because `run_spotify`
/// derives both from that one seed and a seed-dependent burst schedule
/// alone moves the op count ±50 % between seeds. `--seed` seeds the
/// simulated system: network and service times, cold starts, routing.
fn drive_industrial(
    cell: &Industrial,
    shrink: f64,
    built: &mut Built,
    obs: &Rc<Observed>,
    stop: &Rc<Cell<bool>>,
) -> Offered {
    let cfg = cell.spotify(shrink);
    let offered_secs = cfg.duration.as_secs_f64();
    obs.rec.borrow_mut().credit_until = Some(built.sim.now() + cfg.duration);
    // Stop sampling when generation stops; the drain grace is idle time.
    let stop_at = Rc::clone(stop);
    built.sim.schedule(cfg.duration, move |_| stop_at.set(true));
    let run = run_spotify(&mut built.sim, Rc::clone(obs), cfg);
    Offered {
        generated: run.generated,
        offered_secs,
        offered_peak_ops_s: run.offered.peak(),
        ..Default::default()
    }
}

/// Lean uniform reads (70 % read / 30 % stat) over every file of the
/// tree at a fixed rate from uniformly random clients — fig08d's driver.
/// Paths are joined on the fly: a materialised 10M-entry file list would
/// outweigh the namespace under test.
fn drive_lean_reads(
    seed: u64,
    shrink: f64,
    built: &mut Built,
    obs: &Rc<Observed>,
    stop: &Rc<Cell<bool>>,
) -> Offered {
    let total_ops = (TREE_OPS as f64 / shrink) as u64;
    let file_names: Vec<InodeName> = (0..FILES_PER_DIR)
        .map(|f| InodeName::new(&format!("file{f:05}")))
        .collect();
    let sim = &mut built.sim;
    let offered_secs = total_ops as f64 / TREE_RATE;
    obs.rec.borrow_mut().credit_until = Some(sim.now() + SimDuration::from_secs_f64(offered_secs));
    let issued = Rc::new(Cell::new(0u64));
    let n_clients = obs.client_count();
    let per_tick = (TREE_RATE / 10.0).ceil() as u64;
    {
        let mut rng = SimRng::new(seed ^ 0x00F1_608D);
        let (obs, issued, stop) = (Rc::clone(obs), Rc::clone(&issued), Rc::clone(stop));
        let dirs: Rc<[DfsPath]> = built.dirs.as_slice().into();
        every(sim, sim.now(), SimDuration::from_millis(100), move |sim| {
            for _ in 0..per_tick {
                if issued.get() >= total_ops {
                    stop.set(true);
                    return false;
                }
                let client = rng.pick_index(n_clients);
                let path = dirs[rng.pick_index(dirs.len())]
                    .join_interned(file_names[rng.pick_index(file_names.len())]);
                let op = if rng.gen_bool(0.7) {
                    FsOp::ReadFile(path)
                } else {
                    FsOp::Stat(path)
                };
                issued.set(issued.get() + 1);
                obs.submit_op(sim, client, op, Box::new(|_sim, _result| {}));
            }
            true
        });
    }
    sim.run_for(SimDuration::from_secs_f64(offered_secs.ceil() + 10.0));
    Offered {
        generated: issued.get(),
        offered_secs,
        offered_peak_ops_s: per_tick as f64 * 10.0,
        ..Default::default()
    }
}

/// One `write_mix` client's operation stream and the model of what it
/// owns. Every name a client deletes or moves is one it created itself and
/// its operations are issued one after another, so each operation is valid
/// against a sequential model whatever the other 255 clients do.
pub struct WriteMixGen {
    client: usize,
    rng: SimRng,
    dirs: Rc<[DfsPath]>,
    files_per_dir: usize,
    fresh: u64,
    scratch: String,
    /// Files / directories this client created and has not deleted, under
    /// their current names.
    pub own_files: Vec<DfsPath>,
    pub own_dirs: Vec<DfsPath>,
}

impl WriteMixGen {
    pub fn new(seed: u64, client: usize, dirs: Rc<[DfsPath]>, files_per_dir: usize) -> Self {
        let stream = seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        WriteMixGen {
            client,
            rng: SimRng::new(stream),
            dirs,
            files_per_dir,
            fresh: 0,
            scratch: String::new(),
            own_files: Vec::new(),
            own_dirs: Vec::new(),
        }
    }

    fn fresh_path(&mut self, kind: char) -> DfsPath {
        self.fresh += 1;
        self.scratch.clear();
        write!(self.scratch, "{kind}{}_{:06}", self.client, self.fresh).expect("write to String");
        let dir = &self.dirs[self.rng.pick_index(self.dirs.len())];
        dir.join(&self.scratch).expect("generated names are valid")
    }

    /// The next operation: 35 % create, 10 % mkdir, 15 % delete, 10 % mv
    /// (1 in 50 of a directory), 30 % stat/read of bootstrap files in the
    /// same directories. Deletes and moves with nothing to act on yet fall
    /// back to a create.
    pub fn next_op(&mut self) -> FsOp {
        let draw = self.rng.gen_unit();
        if (0.35..0.45).contains(&draw) {
            let path = self.fresh_path('d');
            self.own_dirs.push(path.clone());
            return FsOp::Mkdir(path);
        }
        if (0.45..0.60).contains(&draw) && !self.own_files.is_empty() {
            let victim = self.rng.pick_index(self.own_files.len());
            return FsOp::Delete(self.own_files.swap_remove(victim));
        }
        if (0.60..0.70).contains(&draw) {
            let subtree = self.rng.gen_range(0..50u32) == 0;
            let pool = if subtree {
                &mut self.own_dirs
            } else {
                &mut self.own_files
            };
            if !pool.is_empty() {
                let src = pool.swap_remove(self.rng.pick_index(pool.len()));
                let dst = self.fresh_path(if subtree { 'r' } else { 'm' });
                let pool = if subtree {
                    &mut self.own_dirs
                } else {
                    &mut self.own_files
                };
                pool.push(dst.clone());
                return FsOp::Mv(src, dst);
            }
        }
        if draw >= 0.70 {
            let dir = &self.dirs[self.rng.pick_index(self.dirs.len())];
            self.scratch.clear();
            write!(
                self.scratch,
                "file{:05}",
                self.rng.pick_index(self.files_per_dir)
            )
            .expect("write to String");
            let path = dir.join(&self.scratch).expect("bootstrap names are valid");
            return if self.rng.gen_bool(0.5) {
                FsOp::Stat(path)
            } else {
                FsOp::ReadFile(path)
            };
        }
        let path = self.fresh_path('c');
        self.own_files.push(path.clone());
        FsOp::CreateFile(path)
    }
}

struct MixDriver {
    obs: Rc<Observed>,
    gens: RefCell<Vec<WriteMixGen>>,
    remaining: RefCell<Vec<u64>>,
    in_flight: Cell<usize>,
}

impl MixDriver {
    fn issue(self: &Rc<Self>, sim: &mut Sim, client: usize) {
        {
            let mut remaining = self.remaining.borrow_mut();
            if remaining[client] == 0 {
                return;
            }
            remaining[client] -= 1;
        }
        let op = self.gens.borrow_mut()[client].next_op();
        self.in_flight.set(self.in_flight.get() + 1);
        let this = Rc::clone(self);
        self.obs.submit_op(
            sim,
            client,
            op,
            Box::new(move |sim, _result| {
                this.in_flight.set(this.in_flight.get() - 1);
                this.issue(sim, client);
            }),
        );
    }
}

/// Closed-loop mixed writes: every client keeps one operation in flight
/// until it has issued its share. Afterwards the store is checked against
/// the clients' own models: every name a client still owns resolves, and
/// the inode count equals bootstrap + everything still owned.
fn drive_write_mix(
    seed: u64,
    shrink: f64,
    built: &mut Built,
    obs: &Rc<Observed>,
    stop: &Rc<Cell<bool>>,
) -> Offered {
    let ops_per_client = ((MIX_OPS_PER_CLIENT as f64 / shrink) as u64).max(1);
    let clients = obs.client_count();
    let dirs: Rc<[DfsPath]> = built.dirs.as_slice().into();
    let driver = Rc::new(MixDriver {
        obs: Rc::clone(obs),
        gens: RefCell::new(
            (0..clients)
                .map(|c| WriteMixGen::new(seed, c, Rc::clone(&dirs), MIX_FILES_PER_DIR))
                .collect(),
        ),
        remaining: RefCell::new(vec![ops_per_client; clients]),
        in_flight: Cell::new(0),
    });
    let sim = &mut built.sim;
    for client in 0..clients {
        driver.issue(sim, client);
    }
    let total = ops_per_client * clients as u64;
    // The client library ends every operation within its retry budget, so
    // the loop terminates; the deadline only bounds a broken build.
    let deadline = sim.now() + SimDuration::from_secs(3_600);
    while driver.in_flight.get() > 0 && sim.now() < deadline {
        if !sim.step() {
            break;
        }
    }
    stop.set(true);

    let mut violations = Vec::new();
    let mut owned = 0usize;
    for gen in driver.gens.borrow().iter() {
        for path in gen.own_files.iter().chain(&gen.own_dirs) {
            owned += 1;
            if built
                .fs
                .schema()
                .peek_chain_ids(built.fs.db(), path)
                .is_none()
            {
                violations.push(format!(
                    "client {}: {} does not resolve",
                    gen.client,
                    path.as_str()
                ));
            }
        }
    }
    let inodes = built.fs.schema().inode_count(built.fs.db());
    if inodes != built.inodes_at_start + owned {
        violations.push(format!(
            "store holds {inodes} inodes, model expects {} + {owned}",
            built.inodes_at_start
        ));
    }
    violations.truncate(8);
    Offered {
        generated: total,
        model_violations: violations,
        ..Default::default()
    }
}

/// Lets outstanding retries resolve and the platform reclaim every idle
/// NameNode (30 s idle + one 5 s scan; their heartbeats would otherwise
/// keep the queue alive for ever), then stops background activity and
/// runs the event queue dry.
pub fn drain(built: &mut Built) {
    built.sim.run_for(SimDuration::from_secs(45));
    built.fs.stop(&mut built.sim);
    built.sim.run();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn elastic_fault_plan_parses_and_covers_every_fault_class() {
        let plan = FaultPlan::parse(ELASTIC_FAULT_PLAN).expect("plan parses");
        assert_eq!(plan.kills.len(), 8);
        assert_eq!(plan.kills.iter().map(|k| k.count).sum::<u32>(), 17);
        assert_eq!(plan.shards.len(), 2);
        assert_eq!(plan.net.len(), 2);
        assert_eq!(plan.partitions.len(), 1);
        assert_eq!(plan.storms.len(), 1);
        // Everything fires inside the ≈[8 s, 102 s] window.
        let window = SimTime::ZERO + SETTLE..SimTime::ZERO + SETTLE + SimDuration::from_secs(94);
        assert!(plan.kills.iter().all(|k| window.contains(&k.at)));
        assert!(plan.shards.iter().all(|s| window.contains(&s.at)));
    }

    /// An error reply settles as success only where the committed
    /// namespace shows that the operation took effect.
    #[test]
    fn ambiguous_replies_settle_against_the_committed_namespace() {
        let mut sim = Sim::new(1);
        let fs = LambdaFs::build(&mut sim, LambdaFsConfig::default());
        let dirs = fs.bootstrap_tree(&DfsPath::root(), 2, 2);
        let present = dirs[0].join("file00000").unwrap();
        let absent = dirs[1].join("nothing").unwrap();
        let exists = FsError::AlreadyExists(String::new());
        let missing = FsError::NotFound(String::new());
        let settle = |op: FsOp, err: &FsError| took_effect(&fs, &op, err);

        let created = settle(FsOp::CreateFile(present.clone()), &exists);
        assert!(created
            .as_ref()
            .is_some_and(|o| outcome_fits(&FsOp::CreateFile(present.clone()), o)));
        assert_eq!(settle(FsOp::CreateFile(absent.clone()), &exists), None);
        assert_eq!(
            settle(FsOp::Delete(absent.clone()), &missing),
            Some(OpOutcome::Deleted(1))
        );
        assert_eq!(settle(FsOp::Delete(present.clone()), &missing), None);
        assert_eq!(
            settle(FsOp::Mv(absent.clone(), present.clone()), &missing),
            Some(OpOutcome::Moved(1))
        );
        assert_eq!(
            settle(FsOp::Mv(present.clone(), absent.clone()), &missing),
            None
        );
        // Reads have no earlier copy that could explain an error.
        assert_eq!(settle(FsOp::Stat(absent), &missing), None);
        assert_eq!(settle(FsOp::CreateFile(present), &FsError::Timeout), None);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    /// Replays generated streams against a plain set of names: creates and
    /// move destinations must be absent, deletes and move sources present
    /// and owned by the issuing client, reads must hit bootstrap files.
    #[test]
    fn write_mix_streams_are_valid_against_a_sequential_model() {
        let dirs: Rc<[DfsPath]> = (0..8)
            .map(|d| format!("/dir{d:05}").parse().unwrap())
            .collect::<Vec<DfsPath>>()
            .into();
        let bootstrap: HashSet<String> = dirs
            .iter()
            .flat_map(|d| (0..4).map(move |f| format!("{}/file{f:05}", d.as_str())))
            .collect();
        let mut live: HashSet<String> = HashSet::new();
        let mut gens: Vec<WriteMixGen> = (0..5)
            .map(|c| WriteMixGen::new(9, c, Rc::clone(&dirs), 4))
            .collect();
        let mut seen = [0usize; 5];
        // Interleave clients round-robin: validity must not depend on order.
        for step in 0..20_000 {
            let gen = &mut gens[step % 5];
            let own = format!("{}_", gen.client);
            match gen.next_op() {
                FsOp::CreateFile(p) | FsOp::Mkdir(p) => {
                    assert!(p.file_name().unwrap()[1..].starts_with(&own));
                    assert!(
                        live.insert(p.as_str().to_string()),
                        "{} created twice",
                        p.as_str()
                    );
                    seen[0] += 1;
                }
                FsOp::Delete(p) => {
                    assert!(p.file_name().unwrap()[1..].starts_with(&own));
                    assert!(live.remove(p.as_str()), "{} deleted but absent", p.as_str());
                    seen[1] += 1;
                }
                FsOp::Mv(src, dst) => {
                    assert!(src.file_name().unwrap()[1..].starts_with(&own));
                    assert!(
                        live.remove(src.as_str()),
                        "{} moved but absent",
                        src.as_str()
                    );
                    assert!(live.insert(dst.as_str().to_string()));
                    seen[if dst.file_name().unwrap().starts_with('r') {
                        3
                    } else {
                        2
                    }] += 1;
                }
                FsOp::ReadFile(p) | FsOp::Stat(p) => {
                    assert!(
                        bootstrap.contains(p.as_str()),
                        "{} is not a bootstrap file",
                        p.as_str()
                    );
                    seen[4] += 1;
                }
                FsOp::Ls(_) => panic!("write_mix issues no ls"),
            }
        }
        assert!(
            seen.iter().all(|n| *n > 0),
            "every op kind occurs: {seen:?}"
        );
        // The generators' own models agree with the replayed set.
        let owned: usize = gens
            .iter()
            .map(|g| g.own_files.len() + g.own_dirs.len())
            .sum();
        assert_eq!(owned, live.len());
    }

    #[test]
    fn write_mix_streams_repeat_for_a_seed_and_differ_across_seeds() {
        let dirs: Rc<[DfsPath]> = vec!["/a".parse::<DfsPath>().unwrap()].into();
        let stream = |seed| {
            let mut g = WriteMixGen::new(seed, 3, Rc::clone(&dirs), 4);
            (0..200)
                .map(|_| format!("{:?}", g.next_op()))
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(1), stream(1));
        assert_ne!(stream(1), stream(2));
    }
}
