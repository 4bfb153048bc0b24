//! The industrial-workload experiment runner behind Figures 8, 9, 10,
//! and 15.

use std::rc::Rc;

use lambda_baselines::{CephFs, CephFsConfig, HopsFs, HopsFsConfig, InfiniCacheStyle};
use lambda_fs::{DfsService, LambdaFs, LambdaFsConfig};
use lambda_namespace::OpClass;
use lambda_sim::params::StoreParams;
use lambda_sim::{every, Sim, SimDuration, SimTime};
use lambda_workload::{run_spotify, SpotifyConfig, SpotifyRun};

/// Which system an industrial run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// λFS with default knobs.
    Lambda,
    /// λFS with the cache capped below the working-set size (§5.2.3).
    LambdaReducedCache,
    /// Vanilla HopsFS.
    Hops,
    /// HopsFS+Cache.
    HopsCache,
    /// Cost-normalized HopsFS+Cache (vCPUs matched to λFS's dollars).
    HopsCacheCostNormalized,
    /// The InfiniCache-style fixed FaaS deployment.
    InfiniCache,
    /// The CephFS-style MDS cluster.
    Ceph,
}

impl SystemKind {
    /// Display label matching the paper's figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Lambda => "lambda-fs",
            SystemKind::LambdaReducedCache => "lambda-fs (reduced cache)",
            SystemKind::Hops => "hopsfs",
            SystemKind::HopsCache => "hopsfs+cache",
            SystemKind::HopsCacheCostNormalized => "cn hopsfs+cache",
            SystemKind::InfiniCache => "infinicache-style",
            SystemKind::Ceph => "cephfs",
        }
    }
}

/// Parameters of one industrial run, already scaled.
#[derive(Debug, Clone)]
pub struct IndustrialParams {
    /// Full-scale base throughput (e.g. 25 000); the runner divides by
    /// `scale`.
    pub base_throughput: f64,
    /// Full-scale workload duration in seconds.
    pub duration_secs: u64,
    /// The shrink factor (1.0 = paper scale).
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Kill one NameNode this often, round-robin over deployments
    /// (§5.6's fault-injection schedule), if set.
    pub kill_every: Option<SimDuration>,
    /// Override the total vCPU budget (used by the cost-normalized
    /// variant).
    pub vcpus_override: Option<u32>,
}

impl IndustrialParams {
    /// The §5.2 configuration at the given scale and seed.
    #[must_use]
    pub fn spotify(base_throughput: f64, scale: f64, seed: u64) -> Self {
        IndustrialParams {
            base_throughput,
            duration_secs: 300,
            scale: scale.max(1.0),
            seed,
            kill_every: None,
            vcpus_override: None,
        }
    }

    fn vcpus(&self) -> u32 {
        // Floor: every λFS deployment must be able to host one 5-vCPU
        // instance, and HopsFS at least two 16-vCPU NameNodes.
        let full = self.vcpus_override.unwrap_or(512);
        ((f64::from(full) / self.scale) as u32).max(64)
    }

    fn clients(&self) -> u32 {
        ((1024.0 / self.scale) as u32).max(16)
    }

    fn store(&self) -> StoreParams {
        StoreParams::default().slowed(self.scale)
    }

    /// The workload configuration at this scale (public so the memory
    /// bench can bootstrap the exact tree the industrial figures use).
    #[must_use]
    pub fn spotify_config(&self) -> SpotifyConfig {
        SpotifyConfig {
            base_throughput: self.base_throughput / self.scale,
            duration: SimDuration::from_secs((self.duration_secs as f64 / self.scale.sqrt()) as u64),
            dirs: ((2048.0 / self.scale) as usize).max(64),
            files_per_dir: 48,
            ..Default::default()
        }
    }
}

/// Everything a figure needs from one run.
#[derive(Debug, Clone)]
pub struct IndustrialReport {
    /// The system's label.
    pub system: String,
    /// Offered load per second (identical across systems at one seed).
    pub offered_per_sec: Vec<f64>,
    /// Completed operations per second (the Fig. 8 curve).
    pub throughput_per_sec: Vec<f64>,
    /// Mean achieved throughput.
    pub avg_throughput: f64,
    /// Peak throughput sustained over a full 15 s burst interval.
    pub peak_sustained: f64,
    /// Mean end-to-end latency, ms.
    pub avg_latency_ms: f64,
    /// Per-class `(class, mean ms, p50 ms, p99 ms)`.
    pub latency_by_class: Vec<(String, f64, f64, f64)>,
    /// Per-class latency CDFs `(class, Vec<(ms, fraction)>)` (Fig. 10).
    pub cdf_by_class: Vec<(String, Vec<(f64, f64)>)>,
    /// Operations generated / completed / timed out.
    pub generated: u64,
    /// Completed operations.
    pub completed: u64,
    /// Operations that exhausted retries.
    pub timeouts: u64,
    /// Active NameNodes sampled each second (λFS family; empty
    /// otherwise).
    pub namenodes_per_sec: Vec<f64>,
    /// Cumulative dollars at each second (pay-per-use for FaaS systems,
    /// VM billing for serverful ones) — the Fig. 9 curves.
    pub cost_cumulative: Vec<f64>,
    /// Cumulative dollars under the "simplified" provisioned model (λFS
    /// family; empty otherwise).
    pub cost_simplified_cumulative: Vec<f64>,
    /// Total cost.
    pub cost_total: f64,
    /// Performance-per-cost per second (ops/sec per dollar/sec) —
    /// Fig. 8(c).
    pub perf_per_cost_per_sec: Vec<f64>,
    /// vCPUs provisioned (serverful) or capped (FaaS).
    pub vcpus: u32,
    /// Retry attempts.
    pub retries: u64,
    /// Straggler-mitigation resubmissions.
    pub straggler_resubmits: u64,
    /// Times a client entered anti-thrashing mode.
    pub anti_thrash_entries: u64,
    /// HTTP RPCs issued.
    pub http_rpcs: u64,
    /// TCP RPCs issued.
    pub tcp_rpcs: u64,
}

/// The report of a finished run. The λFS-only series (`namenodes_per_sec`,
/// `cost_simplified_cumulative`) are left empty for the caller to fill.
fn collect_report<S: DfsService>(
    system: &S,
    kind: SystemKind,
    run: &SpotifyRun,
    workload_secs: f64,
    vcpus: u32,
    cost_cumulative: Vec<f64>,
) -> IndustrialReport {
    let offered = run.offered.buckets();
    let metrics = system.run_metrics();
    let mut metrics = metrics.borrow_mut();
    let throughput = metrics.throughput.buckets();
    // Average over the workload window only (from the first offered-load
    // bucket, for the workload duration): backlog drained after the
    // workload ends does not count toward average throughput, exactly as
    // the paper reports HopsFS "catching up" without credit.
    let window_start = offered.iter().position(|v| *v > 0.0).unwrap_or(0);
    let window_end = (window_start + workload_secs as usize).min(throughput.len());
    let avg_throughput = if window_end > window_start {
        throughput[window_start..window_end].iter().sum::<f64>()
            / (window_end - window_start) as f64
    } else {
        0.0
    };
    let peak_sustained = metrics.peak_sustained_throughput(15);
    let avg_latency_ms = metrics.mean_latency().as_millis_f64();
    let mut latency_by_class = Vec::new();
    let mut cdf_by_class = Vec::new();
    for class in OpClass::ALL {
        if let Some(rec) = metrics.latency.get_mut(&class) {
            latency_by_class.push((
                class.to_string(),
                rec.mean().as_millis_f64(),
                rec.percentile(0.5).as_millis_f64(),
                rec.percentile(0.99).as_millis_f64(),
            ));
            cdf_by_class.push((
                class.to_string(),
                rec.cdf(20).into_iter().map(|(d, f)| (d.as_millis_f64(), f)).collect(),
            ));
        }
    }
    let cost_total = cost_cumulative.last().copied().unwrap_or(0.0);
    let per_sec_cost: Vec<f64> = cost_cumulative
        .iter()
        .scan(0.0, |prev, c| {
            let delta = c - *prev;
            *prev = *c;
            Some(delta)
        })
        .collect();
    let perf_per_cost_per_sec = throughput
        .iter()
        .zip(per_sec_cost.iter())
        .map(|(tp, c)| if *c > 1e-12 { tp / c } else { 0.0 })
        .collect();
    IndustrialReport {
        system: kind.label().to_string(),
        offered_per_sec: offered,
        throughput_per_sec: throughput,
        avg_throughput,
        peak_sustained,
        avg_latency_ms,
        latency_by_class,
        cdf_by_class,
        generated: run.generated,
        completed: metrics.completed,
        timeouts: metrics.timeouts,
        namenodes_per_sec: Vec::new(),
        cost_cumulative,
        cost_simplified_cumulative: Vec::new(),
        cost_total,
        perf_per_cost_per_sec,
        vcpus,
        retries: metrics.retries,
        straggler_resubmits: metrics.straggler_resubmits,
        anti_thrash_entries: metrics.anti_thrash_entries,
        http_rpcs: metrics.http_rpcs,
        tcp_rpcs: metrics.tcp_rpcs,
    }
}

/// Samples a λFS system's NameNode count every second into a shared
/// vector.
fn sample_namenodes(sim: &mut Sim, fs: &Rc<LambdaFs>, until: SimTime) -> Rc<std::cell::RefCell<Vec<f64>>> {
    let series = Rc::new(std::cell::RefCell::new(Vec::new()));
    let out = Rc::clone(&series);
    let fs = Rc::clone(fs);
    every(sim, sim.now(), SimDuration::from_secs(1), move |sim| {
        out.borrow_mut().push(fs.active_namenodes() as f64);
        sim.now() < until
    });
    series
}

/// The λFS configuration the industrial figures run (public so the
/// memory-footprint bench can measure the *same* system the performance
/// figures use, rather than a bespoke lookalike).
#[must_use]
pub fn lambda_config(p: &IndustrialParams, reduced_cache: bool) -> LambdaFsConfig {
    let spotify = p.spotify_config();
    // Working-set size *per NameNode*: each deployment caches ~1/n of the
    // tree; "reduced" caps each NameNode cache well below its partition's
    // share (§5.2.3: "less than half the working set size").
    let wss = spotify.dirs * (spotify.files_per_dir + 1);
    let per_nn_wss = wss / 10;
    LambdaFsConfig {
        deployments: 10,
        nn_vcpus: 5,
        nn_mem_gb: 6.0,
        cluster_vcpus: p.vcpus(),
        clients: p.clients(),
        client_vms: 8,
        cache_capacity: if reduced_cache { (per_nn_wss / 3).max(64) } else { 2_000_000 },
        store: p.store(),
        ..Default::default()
    }
}

/// Runs the industrial workload on one system, returning the report.
#[must_use]
pub fn run_industrial(kind: SystemKind, params: &IndustrialParams) -> IndustrialReport {
    let mut sim = Sim::new(params.seed);
    let spotify = params.spotify_config();
    let workload_secs = spotify.duration.as_secs_f64();
    let run_secs = workload_secs as usize + spotify.drain_grace.as_secs_f64() as usize;
    match kind {
        SystemKind::Lambda | SystemKind::LambdaReducedCache => {
            let fs = Rc::new(LambdaFs::build(
                &mut sim,
                lambda_config(params, kind == SystemKind::LambdaReducedCache),
            ));
            fs.start(&mut sim);
            // Pre-load the tree and warm every deployment from every VM:
            // the paper's runs start against a warm, connected system.
            let dirs = spotify.load(fs.as_ref());
            fs.prewarm_with(&mut sim, &dirs);
            sim.run_for(SimDuration::from_secs(8));
            let sample_until = sim.now() + SimDuration::from_secs(run_secs as u64);
            let nn = sample_namenodes(&mut sim, &fs, sample_until);
            if let Some(kill_every) = params.kill_every {
                let fs2 = Rc::clone(&fs);
                let stop = sim.now() + spotify.duration;
                let first_kill = sim.now() + kill_every;
                let victim_dep = std::cell::Cell::new(0u32);
                every(&mut sim, first_kill, kill_every, move |sim| {
                    if sim.now() >= stop {
                        return false;
                    }
                    let d = victim_dep.get();
                    victim_dep.set((d + 1) % fs2.config().deployments);
                    fs2.kill_one_namenode(sim, d);
                    true
                });
            }
            let run = run_spotify(&mut sim, Rc::clone(&fs), spotify);
            fs.stop(&mut sim);
            let pay = fs.pay_meter().cumulative_per_second();
            let namenodes_per_sec = nn.borrow().clone();
            IndustrialReport {
                namenodes_per_sec,
                cost_simplified_cumulative: fs.simplified_meter().cumulative_per_second(),
                ..collect_report(fs.as_ref(), kind, &run, workload_secs, params.vcpus(), pay)
            }
        }
        SystemKind::InfiniCache => {
            let fs = Rc::new(InfiniCacheStyle::build(&mut sim, lambda_config(params, false)));
            fs.start(&mut sim);
            spotify.load(fs.as_ref());
            let run = run_spotify(&mut sim, Rc::clone(&fs), spotify);
            fs.stop(&mut sim);
            let pay = fs.system().pay_meter().cumulative_per_second();
            collect_report(fs.as_ref(), kind, &run, workload_secs, params.vcpus(), pay)
        }
        SystemKind::Hops | SystemKind::HopsCache | SystemKind::HopsCacheCostNormalized => {
            let vcpus = params.vcpus();
            let mut cfg = match kind {
                SystemKind::Hops => HopsFsConfig::vanilla(vcpus, params.clients()),
                _ => HopsFsConfig::with_cache(vcpus, params.clients()),
            };
            cfg.store = params.store();
            let fs = Rc::new(HopsFs::build(&mut sim, cfg));
            fs.start(&mut sim);
            spotify.load(fs.as_ref());
            let run = run_spotify(&mut sim, Rc::clone(&fs), spotify);
            fs.stop(&mut sim);
            let cost = fs.cost_meter().cumulative_per_second();
            collect_report(fs.as_ref(), kind, &run, workload_secs, fs.vcpus_total(), cost)
        }
        SystemKind::Ceph => {
            let fs = Rc::new(CephFs::build(
                &mut sim,
                CephFsConfig::sized(params.vcpus(), params.clients()),
            ));
            fs.start(&mut sim);
            spotify.load(fs.as_ref());
            let run = run_spotify(&mut sim, Rc::clone(&fs), spotify);
            fs.stop(&mut sim);
            let cost = fs.cost_meter().cumulative_per_second();
            collect_report(fs.as_ref(), kind, &run, workload_secs, params.vcpus(), cost)
        }
    }
}

/// Runs one whole industrial simulation per `(system, parameters)` pair on
/// `threads` sweep threads ([`crate::report::Args::threads`]), reports in
/// the order given.
#[must_use]
pub fn run_industrial_sweep(
    threads: usize,
    runs: impl IntoIterator<Item = (SystemKind, IndustrialParams)>,
) -> Vec<IndustrialReport> {
    let jobs = runs.into_iter().map(|(kind, p)| move || run_industrial(kind, &p)).collect();
    crate::report::run_parallel_ops(threads, jobs, |r| r.completed)
}

/// The §5.2.2 cost-normalized vCPU budget: 72 vCPUs for the 25 k workload
/// and 144 for the 50 k workload (full scale).
#[must_use]
pub fn cost_normalized_vcpus(base_throughput: f64) -> u32 {
    if base_throughput >= 40_000.0 {
        144
    } else {
        72
    }
}
