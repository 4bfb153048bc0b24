//! Fig. 11: client-driven scaling — achieved throughput per operation type
//! as the client count sweeps (8 → 1024 at full scale) with vCPUs fixed at
//! 512, for λFS, HopsFS, HopsFS+Cache, InfiniCache-style, and CephFS.

use lambda_bench::*;

/// The client counts swept: the paper's 8 → 1024 at scale 1, 8 → 256 at
/// any other.
pub fn clients(scale: f64) -> &'static [u32] {
    if scale == 1.0 {
        &[8, 16, 32, 64, 128, 256, 512, 1024]
    } else {
        &[8, 16, 32, 64, 128, 256]
    }
}

pub fn run(args: &Args) {
    let scale = args.scale();
    let seed = args.u64("seed", 47);
    print_scaling_sweep(
        args.threads(),
        "clients",
        clients(scale),
        |op, c| MicroParams::paper(op, c, scale, seed),
        |p| format!("{} ({:.0}NN)", fmt_ops(p.throughput * scale), p.peak_namenodes),
        |op| format!("Fig. 11 [{op}] throughput (≈full-scale ops/sec) vs clients (scale 1/{scale})"),
    );
    println!("\npaper: λFS averages 28.9x/8.2x/20.5x HopsFS for read/stat/ls; create 1.49x;");
    println!("       mkdir ≈ equal; CephFS wins small scales then flattens; λFS scaled 20→74 NNs.");
}
