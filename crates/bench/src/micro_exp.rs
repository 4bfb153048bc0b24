//! Micro-benchmark sweep runner behind Figures 11, 12, 13, and 14.

use std::rc::Rc;

use lambda_baselines::{CephFs, CephFsConfig, HopsFs, HopsFsConfig, InfiniCacheStyle};
use lambda_fs::{LambdaFs, LambdaFsConfig};
use lambda_namespace::OpClass;
use lambda_sim::params::StoreParams;
use lambda_sim::{Sim, SimDuration, VmPricing};
use lambda_workload::{run_micro, MicroConfig};

use crate::industrial::SystemKind;
use crate::report::{print_table, run_parallel};

/// One point in a scaling sweep.
#[derive(Debug, Clone)]
pub struct MicroPoint {
    /// System label.
    pub system: String,
    /// The operation under test.
    pub op: OpClass,
    /// Number of clients.
    pub clients: u32,
    /// vCPU budget.
    pub vcpus: u32,
    /// Achieved throughput, ops/sec.
    pub throughput: f64,
    /// Run duration, seconds.
    pub makespan_secs: f64,
    /// Dollars spent over the run (pay-per-use for FaaS, VM for
    /// serverful).
    pub cost: f64,
    /// `throughput / (cost per second)` — the Fig. 13 metric.
    pub perf_per_cost: f64,
    /// Peak NameNodes provisioned (λFS family; 0 otherwise).
    pub peak_namenodes: f64,
}

/// Sweep-point parameters.
#[derive(Debug, Clone, Copy)]
pub struct MicroParams {
    /// λFS deployments (`n`); default 10. Fig. 14 shrinks this with the
    /// scale factor so the gap between the deployment floor and the vCPU
    /// budget — the head-room auto-scaling exploits — is preserved.
    pub deployments: u32,
    /// The operation under test.
    pub op: OpClass,
    /// Client count.
    pub clients: u32,
    /// Total vCPU budget.
    pub vcpus: u32,
    /// Operations per client (3 072 at the paper's scale).
    pub ops_per_client: usize,
    /// Store slow-down factor (shrinks the experiment; 1.0 = paper).
    pub store_slowdown: f64,
    /// RNG seed.
    pub seed: u64,
    /// Cap instances per deployment (Fig. 14: `Some(1)` disables
    /// auto-scaling, `Some(2)` limits it).
    pub autoscale_limit: Option<u32>,
    /// Per-instance HTTP `ConcurrencyLevel` — the paper's coarse-grained
    /// scaling knob (§3.4, Fig. 6): lower values scale out more
    /// aggressively. Figs. 11-13 run the default (4); Fig. 14 runs the
    /// agile setting (1).
    pub concurrency_level: u32,
}

impl MicroParams {
    /// The §5.3 set-up at `scale`: 10 deployments under a 512-vCPU budget
    /// (÷ `scale`), the paper's 3 072 operations per client at scale 1 (512
    /// at any other), the default `ConcurrencyLevel`, unbounded
    /// auto-scaling. Figures override the axis they sweep by struct update.
    #[must_use]
    pub fn paper(op: OpClass, clients: u32, scale: f64, seed: u64) -> Self {
        MicroParams {
            deployments: 10,
            op,
            clients,
            vcpus: ((512.0 / scale) as u32).max(64),
            ops_per_client: if scale == 1.0 { 3072 } else { 512 },
            store_slowdown: scale,
            seed,
            autoscale_limit: None,
            concurrency_level: 4,
        }
    }
}

fn micro_config(p: &MicroParams) -> MicroConfig {
    MicroConfig {
        op: p.op,
        ops_per_client: p.ops_per_client,
        dirs: 128,
        files_per_dir: 32,
        deadline: SimDuration::from_secs(3600),
        gen_seed: p.seed ^ 0x5EED,
        warmup_ops_per_client: (p.ops_per_client / 2).max(128),
    }
}

/// Runs one sweep point.
#[must_use]
pub fn run_micro_point(kind: SystemKind, p: &MicroParams) -> MicroPoint {
    let mut sim = Sim::new(p.seed);
    let store = StoreParams::default().slowed(p.store_slowdown);
    let lambda_base = |store| LambdaFsConfig {
        deployments: 10,
        nn_vcpus: 5,
        cluster_vcpus: p.vcpus,
        clients: p.clients,
        client_vms: 8,
        store,
        ..Default::default()
    };
    // `faas_cost`: pay-per-use dollars, metered by the FaaS systems only.
    let (run, faas_cost, peak_nn) = match kind {
        SystemKind::Lambda | SystemKind::LambdaReducedCache => {
            let fs = Rc::new(LambdaFs::build(
                &mut sim,
                LambdaFsConfig {
                    deployments: p.deployments.max(1),
                    max_instances_per_deployment: p.autoscale_limit.unwrap_or(u32::MAX),
                    concurrency_level: p.concurrency_level.max(1),
                    ..lambda_base(store)
                },
            ));
            fs.start(&mut sim);
            // Load the micro tree and warm every deployment from every VM.
            let cfg = micro_config(p);
            let dirs = cfg.load(fs.as_ref());
            fs.prewarm_with(&mut sim, &dirs);
            sim.run_for(SimDuration::from_secs(8));
            let run = run_micro(&mut sim, Rc::clone(&fs), cfg);
            fs.stop(&mut sim);
            (run, Some(fs.pay_meter().total()), fs.namenode_gauge().peak())
        }
        SystemKind::InfiniCache => {
            let fs = Rc::new(InfiniCacheStyle::build(&mut sim, lambda_base(store)));
            fs.start(&mut sim);
            let micro = micro_config(p);
            micro.load(fs.as_ref());
            let run = run_micro(&mut sim, Rc::clone(&fs), micro);
            fs.stop(&mut sim);
            (run, Some(fs.system().pay_meter().total()), 0.0)
        }
        SystemKind::Hops | SystemKind::HopsCache | SystemKind::HopsCacheCostNormalized => {
            let mut cfg = match kind {
                SystemKind::Hops => HopsFsConfig::vanilla(p.vcpus, p.clients),
                _ => HopsFsConfig::with_cache(p.vcpus, p.clients),
            };
            cfg.store = store;
            let fs = Rc::new(HopsFs::build(&mut sim, cfg));
            fs.start(&mut sim);
            let micro = micro_config(p);
            micro.load(fs.as_ref());
            let run = run_micro(&mut sim, Rc::clone(&fs), micro);
            fs.stop(&mut sim);
            (run, None, 0.0)
        }
        SystemKind::Ceph => {
            let fs = Rc::new(CephFs::build(&mut sim, CephFsConfig::sized(p.vcpus, p.clients)));
            fs.start(&mut sim);
            let micro = micro_config(p);
            micro.load(fs.as_ref());
            let run = run_micro(&mut sim, Rc::clone(&fs), micro);
            fs.stop(&mut sim);
            (run, None, 0.0)
        }
    };
    // Serverful cost: the paper's HopsFS deployments are statically
    // provisioned, so the whole *rented* vCPU budget is billed for the
    // whole makespan regardless of how many NameNodes the system chose to
    // run on it.
    let cost = faas_cost
        .unwrap_or_else(|| VmPricing::default().cost(f64::from(p.vcpus), run.makespan));
    let (throughput, makespan) = (run.throughput, run.makespan.as_secs_f64());
    let perf_per_cost = if cost > 1e-12 && makespan > 0.0 {
        throughput / (cost / makespan)
    } else {
        0.0
    };
    MicroPoint {
        system: kind.label().to_string(),
        op: p.op,
        clients: p.clients,
        vcpus: p.vcpus,
        throughput,
        makespan_secs: makespan,
        cost,
        perf_per_cost,
        peak_namenodes: peak_nn,
    }
}

/// The five operations of Figs. 11/12/14.
pub const MICRO_OPS: [OpClass; 5] =
    [OpClass::Read, OpClass::Ls, OpClass::Stat, OpClass::Create, OpClass::Mkdir];

/// The systems Figs. 11 and 12 compare, in column order.
const SWEEP_SYSTEMS: [SystemKind; 5] = [
    SystemKind::Lambda,
    SystemKind::Hops,
    SystemKind::HopsCache,
    SystemKind::InfiniCache,
    SystemKind::Ceph,
];

/// Figs. 11 and 12: for each of [`MICRO_OPS`], runs every system at every
/// value of one swept axis (`params(op, value)`) and prints a table with a
/// row per value and a `cell` per system.
pub fn print_scaling_sweep(
    threads: usize,
    axis: &str,
    values: &[u32],
    params: impl Fn(OpClass, u32) -> MicroParams,
    cell: impl Fn(&MicroPoint) -> String,
    title: impl Fn(OpClass) -> String,
) {
    let mut headers = vec![axis];
    headers.extend(SWEEP_SYSTEMS.iter().map(|s| s.label()));
    for op in MICRO_OPS {
        let jobs = SWEEP_SYSTEMS
            .iter()
            .flat_map(|&kind| values.iter().map(move |&v| (kind, v)))
            .map(|(kind, v)| {
                let p = params(op, v);
                move || run_micro_point(kind, &p)
            })
            .collect();
        let points = run_parallel(threads, jobs);
        let rows: Vec<Vec<String>> = values
            .iter()
            .enumerate()
            .map(|(vi, v)| {
                let column = points.iter().skip(vi).step_by(values.len());
                std::iter::once(v.to_string()).chain(column.map(&cell)).collect()
            })
            .collect();
        print_table(&title(op), &headers, &rows);
    }
}
