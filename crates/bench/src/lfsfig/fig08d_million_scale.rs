//! Beyond-paper memory-footprint sweep: λFS metadata service at
//! 25k–1M clients over namespaces up to 12M inodes.
//!
//! The paper evaluates λFS at 25k/50k-op throughput against a ~100k-inode
//! tree; this bench asks what the *reproduction's* resident footprint does
//! when the namespace and client population grow by two orders of
//! magnitude. Two numbers matter:
//!
//! * **bytes/inode** — live-heap growth across [`DfsService::bootstrap_tree`]
//!   divided by the inodes created (store rows + children index + interner);
//! * **bytes/client** — live-heap growth across [`LambdaFs::build`] divided
//!   by the client count. The delta includes the system's fixed build cost
//!   (store, platform, deployments), so it over-reports slightly at small
//!   client counts and converges to the true per-client figure at 25k+.
//!
//! Byte accounting needs the counting global allocator, so the figure
//! refuses to run (exit 2) unless built with `--features alloc-stats`.
//!
//! A scale-25 reference replays the fig08a λFS configuration at scale 25
//! (the exact system the performance figures run, via [`lambda_config`])
//! and prints its bytes/inode, the figure `mem_budget.rs` gates. Its 3 969
//! inodes fit in the inode-table page allocated with the root, so that
//! figure excludes the rows. The reductions against the values measured
//! *before* the footprint overhaul are stated at the 25k-client point,
//! whose tree spans 62 pages, so its bytes/inode counts the rows as the
//! pre-overhaul B-tree capture did.
//!
//! Every point also prints a wall-clock breakdown of build / bootstrap /
//! start / prewarm / warmup / issue / drain — the profile that directs
//! scale-cliff work.
//!
//! The points run one at a time whatever `--threads` says: the allocator
//! counters are process-wide, so a byte delta is exact only when nothing
//! else allocates beside it.
//!
//! Every point ends in the full post-run audit ([`LambdaFs::audit`]:
//! namespace↔store consistency, leaked locks, transactions and
//! invocations, op-count conservation), taken after the measurements; the
//! figure exits 1 on a violation.
//!
//! Flags: `--smoke` (tiny points for CI), `--seed=N`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Instant;

use lambda_allocstats as mem;
use lambda_bench::*;
use lambda_fs::{AuditReport, DfsService, LambdaFs, LambdaFsConfig};
use lambda_namespace::{DfsPath, FsOp, TreeLayout};
use lambda_sim::{every, Sim, SimDuration, SimRng};

use crate::closed_loop::{audit_cell, exit_on_violations};

/// Bytes/inode measured at the 25k-client sweep point before the
/// footprint overhaul (the commit introducing this bench), with
/// `--features alloc-stats` on a sequential sweep. The figure prints the
/// reductions against these.
const PRE_PR_BYTES_PER_INODE_25K: f64 = 295.3;
/// Bytes/client measured at the same point (same capture protocol as
/// [`PRE_PR_BYTES_PER_INODE_25K`]).
const PRE_PR_BYTES_PER_CLIENT_25K: f64 = 81.4;

/// Directory fan-out of the sweep trees: 48 files per directory, matching
/// the industrial workload's layout, so each directory accounts for 49
/// inodes.
const FILES_PER_DIR: usize = 48;

/// Wall-clock phases of one sweep point, in execution order. `issue` is
/// the steady-state window (warmed system, reads in flight) — the phase
/// the scale-cliff acceptance ratio is computed from.
const PHASES: &[&str] = &["build", "bootstrap", "start", "prewarm", "warmup", "issue", "drain"];

struct PointResult {
    clients: u32,
    inodes_created: usize,
    peak_bytes: u64,
    bytes_per_client: f64,
    bytes_per_inode: f64,
    bootstrap_wall_secs: f64,
    run_wall_secs: f64,
    /// Seconds per phase, parallel to [`PHASES`].
    phase_secs: Vec<f64>,
    sim_ops: u64,
    /// The post-run audit, taken after the measurements.
    audit: AuditReport,
}

fn sweep_config(clients: u32) -> LambdaFsConfig {
    LambdaFsConfig {
        clients,
        // The evaluation's client fleet: 8 VMs, 128 clients per TCP
        // server. Caches keep their industrial sizing — the sweep's read
        // load touches a bounded slice of the tree, so cache growth is
        // bounded by the ops issued, not the namespace size.
        ..Default::default()
    }
}

/// Issues `total_ops` read-class operations (70 % read / 30 % stat) at
/// `rate` ops/sec from uniformly random clients against uniformly random
/// bootstrap files, building each target path on the fly — at 10M+ inodes,
/// materializing the full file list (as the industrial driver does) would
/// cost more memory than the namespace under measurement.
fn run_lean_reads(
    sim: &mut Sim,
    fs: &Rc<LambdaFs>,
    dirs: &[DfsPath],
    total_ops: u64,
    rate: f64,
    seed: u64,
) -> u64 {
    let file_names = TreeLayout { dirs: dirs.len(), files_per_dir: FILES_PER_DIR }.file_names();
    let issued = Rc::new(Cell::new(0u64));
    let rng = RefCell::new(SimRng::new(seed ^ 0x00F1_608D));
    let n_clients = fs.client_lib().client_count();
    let per_tick = (rate / 10.0).ceil().max(1.0) as u64;
    {
        let fs = Rc::clone(fs);
        let issued = Rc::clone(&issued);
        let dirs: Rc<[DfsPath]> = dirs.into();
        every(sim, sim.now(), SimDuration::from_millis(100), move |sim| {
            for _ in 0..per_tick {
                if issued.get() >= total_ops {
                    return false;
                }
                let (client, d, f, read) = {
                    let mut rng = rng.borrow_mut();
                    (
                        rng.pick_index(n_clients),
                        rng.pick_index(dirs.len()),
                        rng.pick_index(file_names.len()),
                        rng.gen_bool(0.7),
                    )
                };
                let path = dirs[d].join_interned(file_names[f]);
                let op = if read { FsOp::ReadFile(path) } else { FsOp::Stat(path) };
                issued.set(issued.get() + 1);
                fs.submit(sim, client, op, Box::new(|_sim, _result| {}));
            }
            true
        });
    }
    let run_secs = (total_ops as f64 / rate).ceil() as u64 + 10;
    sim.run_for(SimDuration::from_secs(run_secs));
    issued.get()
}

fn run_point(clients: u32, dirs: usize, total_ops: u64, rate: f64, seed: u64) -> PointResult {
    let mut sim = Sim::new(seed);
    let t_build = Instant::now();
    let build_scope = mem::GLOBAL.scope();
    let fs = Rc::new(LambdaFs::build(&mut sim, sweep_config(clients)));
    let build_bytes = build_scope.grown();
    let build_wall_secs = t_build.elapsed().as_secs_f64();

    let inodes_before = fs.schema().inode_count(fs.db());
    let t_boot = Instant::now();
    let boot_scope = mem::GLOBAL.scope();
    let dir_paths = fs.bootstrap_tree(&DfsPath::root(), dirs, FILES_PER_DIR);
    let bootstrap_bytes = boot_scope.grown();
    let bootstrap_wall_secs = t_boot.elapsed().as_secs_f64();
    let inodes_created = fs.schema().inode_count(fs.db()) - inodes_before;

    mem::reset_peak();
    let t_run = Instant::now();
    let mut t_phase = Instant::now();
    let mut lap = || {
        let s = t_phase.elapsed().as_secs_f64();
        t_phase = Instant::now();
        s
    };
    fs.start(&mut sim);
    let start_secs = lap();
    // Warm every deployment from every VM, as the figures do. The first
    // few dozen directories cover all ten partitions.
    fs.prewarm_with(&mut sim, &dir_paths[..dir_paths.len().min(64)]);
    let prewarm_secs = lap();
    sim.run_for(SimDuration::from_secs(8));
    let warmup_secs = lap();
    let sim_ops = run_lean_reads(&mut sim, &fs, &dir_paths, total_ops, rate, seed);
    let issue_secs = lap();
    fs.stop(&mut sim);
    sim.run_for(SimDuration::from_secs(5));
    let drain_secs = lap();
    let run_wall_secs = t_run.elapsed().as_secs_f64();
    let peak_bytes = mem::peak_bytes();
    let phase_secs = vec![
        build_wall_secs,
        bootstrap_wall_secs,
        start_secs,
        prewarm_secs,
        warmup_secs,
        issue_secs,
        drain_secs,
    ];

    // The audit walks both tables once with a point get per cross
    // reference and copies neither: 1.4 s at 10M inodes on a 2-core Xeon
    // 2.10 GHz.
    let audit = fs.audit();

    PointResult {
        clients,
        inodes_created,
        peak_bytes,
        bytes_per_client: build_bytes as f64 / f64::from(clients.max(1)),
        bytes_per_inode: bootstrap_bytes as f64 / inodes_created.max(1) as f64,
        bootstrap_wall_secs,
        run_wall_secs,
        phase_secs,
        sim_ops,
        audit,
    }
}

struct Scale25Reference {
    clients: u32,
    dirs: usize,
    inodes_created: usize,
    bytes_per_inode: f64,
    bootstrap_wall_secs: f64,
}

/// Bootstraps the exact fig08a λFS system at scale 25 and measures its
/// bytes/inode — the acceptance point the pre-PR constant was captured at.
fn scale25_reference(seed: u64) -> Scale25Reference {
    let params = IndustrialParams::spotify(25_000.0, 25.0, seed);
    let spotify = params.spotify_config();
    let cfg = lambda_config(&params, false);
    let clients = cfg.clients;
    let mut sim = Sim::new(seed);
    let fs = LambdaFs::build(&mut sim, cfg);
    let inodes_before = fs.schema().inode_count(fs.db());
    let t_boot = Instant::now();
    let boot_scope = mem::GLOBAL.scope();
    spotify.load(&fs);
    let bootstrap_bytes = boot_scope.grown();
    let inodes_created = fs.schema().inode_count(fs.db()) - inodes_before;
    Scale25Reference {
        clients,
        dirs: spotify.dirs,
        inodes_created,
        bytes_per_inode: bootstrap_bytes as f64 / inodes_created.max(1) as f64,
        bootstrap_wall_secs: t_boot.elapsed().as_secs_f64(),
    }
}

fn fmt_bytes(b: f64) -> String {
    if b >= 1e9 {
        format!("{:.2}GB", b / 1e9)
    } else if b >= 1e6 {
        format!("{:.1}MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1}kB", b / 1e3)
    } else {
        format!("{b:.0}B")
    }
}

pub fn run(args: &Args) {
    if !mem::active() {
        eprintln!(
            "fig08d_million_scale measures heap bytes and needs the counting allocator: \
             cargo build --release -p lambda-bench --features alloc-stats"
        );
        std::process::exit(2);
    }
    let seed = args.u64("seed", 11);
    let smoke = args.flag("smoke");

    // (clients, directories): each directory holds 48 files, so the full
    // sweep tops out at 1M clients over a 12.0M-inode namespace and the
    // acceptance point (500k clients / 10.0M inodes) is the third entry.
    let points: &[(u32, usize)] = if smoke {
        &[(512, 100), (2_048, 500)]
    } else {
        &[(25_000, 5_103), (100_000, 20_409), (500_000, 204_082), (1_000_000, 244_898)]
    };
    let (total_ops, rate) = if smoke { (1_500, 500.0) } else { (20_000, 4_000.0) };

    println!("scale-25 reference (fig08a λFS system):");
    let reference = scale25_reference(seed);
    println!(
        "  {} clients, {} dirs, {} inodes: {:.1} bytes/inode, rows excluded ({:.2}s bootstrap)",
        reference.clients,
        reference.dirs,
        reference.inodes_created,
        reference.bytes_per_inode,
        reference.bootstrap_wall_secs,
    );

    let jobs: Vec<_> = points
        .iter()
        .map(|&(clients, dirs)| move || run_point(clients, dirs, total_ops, rate, seed))
        .collect();
    let results = run_parallel_ops(1, jobs, |p| p.sim_ops);

    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|p| {
            vec![
                p.clients.to_string(),
                p.inodes_created.to_string(),
                format!("{:.1}", p.bytes_per_inode),
                format!("{:.0}", p.bytes_per_client),
                fmt_bytes(p.peak_bytes as f64),
                format!("{:.2}s", p.bootstrap_wall_secs),
                format!("{:.2}s", p.run_wall_secs),
                fmt_ops(p.sim_ops as f64 / p.run_wall_secs.max(1e-9)),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Million-scale memory sweep: seed {seed}{}",
            if smoke { ", smoke" } else { "" }
        ),
        &["clients", "inodes", "B/inode", "B/client", "peak", "boot", "run", "ops/wsec"],
        &rows,
    );

    let mut header = vec!["clients", "inodes/s"];
    header.extend(PHASES);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|p| {
            let mut row = vec![
                p.clients.to_string(),
                fmt_ops(p.inodes_created as f64 / p.bootstrap_wall_secs.max(1e-9)),
            ];
            row.extend(p.phase_secs.iter().map(|s| format!("{s:.3}s")));
            row
        })
        .collect();
    print_table("Phase wall-clock breakdown", &header, &rows);

    for p in &results {
        println!("audit at {} clients: {}", p.clients, audit_cell(&p.audit));
    }
    exit_on_violations(results.iter().map(|p| (format!("{} clients", p.clients), &p.audit)));

    if let Some(p) = results.iter().find(|p| p.clients == 25_000) {
        println!(
            "\nbytes/inode at 25k clients: {:.2}x reduction vs pre-overhaul",
            PRE_PR_BYTES_PER_INODE_25K / p.bytes_per_inode
        );
        println!(
            "bytes/client at 25k clients: {:.2}x reduction vs pre-overhaul",
            PRE_PR_BYTES_PER_CLIENT_25K / p.bytes_per_client
        );
    }
}
