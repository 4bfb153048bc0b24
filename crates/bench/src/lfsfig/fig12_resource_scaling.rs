//! Fig. 12: resource scaling — achieved throughput per operation type as
//! the vCPU budget sweeps 16 → 512 (full scale), clients fixed per size.

use lambda_bench::*;

pub fn run(args: &Args) {
    let scale = args.scale();
    let seed = args.u64("seed", 48);
    let vcpus_sweep: &[u32] =
        if scale == 1.0 { &[16, 32, 64, 128, 256, 512] } else { &[32, 64, 128, 256] };
    let clients = ((1024.0 / scale) as u32).max(32);
    print_scaling_sweep(
        args.threads(),
        "vcpus",
        vcpus_sweep,
        |op, vcpus| MicroParams { vcpus, ..MicroParams::paper(op, clients, scale, seed) },
        |p| fmt_ops(p.throughput * scale),
        |op| format!("Fig. 12 [{op}] throughput (≈full ops/sec) vs vCPUs (scale 1/{scale}, {clients} clients)"),
    );
    println!("\npaper: at 512 vCPU λFS reaches 30.7x/9.3x/20.7x HopsFS for read/stat/ls;");
    println!("       λFS grows 34.6x/34.8x/72.1x across the sweep; writes stay store-bound.");
}
