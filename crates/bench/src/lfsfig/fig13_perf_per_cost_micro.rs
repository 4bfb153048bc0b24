//! Fig. 13: performance-per-cost vs client count for read-class operations
//! (read / ls / stat), λFS vs HopsFS+Cache.

use lambda_bench::*;
use lambda_namespace::OpClass;

pub fn run(args: &Args) {
    let scale = args.scale();
    let seed = args.u64("seed", 49);
    let clients: Vec<u32> =
        if scale == 1.0 { vec![8, 16, 32, 64, 128, 256, 512, 1024] } else { vec![8, 32, 128, 256] };
    for op in [OpClass::Read, OpClass::Ls, OpClass::Stat] {
        let jobs: Vec<_> = clients
            .iter()
            .map(|&c| {
                move || {
                    let p = MicroParams::paper(op, c, scale, seed);
                    (run_micro_point(SystemKind::Lambda, &p),
                     run_micro_point(SystemKind::HopsCache, &p))
                }
            })
            .collect();
        let points = run_parallel(args.threads(), jobs);
        let rows: Vec<Vec<String>> = clients
            .iter()
            .zip(points.iter())
            .map(|(c, (l, h))| {
                vec![
                    c.to_string(),
                    fmt_ops(l.perf_per_cost),
                    fmt_ops(h.perf_per_cost),
                    format!("{:.2}x", l.perf_per_cost / h.perf_per_cost.max(1e-9)),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 13 [{op}] perf-per-cost (ops/sec per $/sec) vs clients"),
            &["clients", "lambda-fs", "hopsfs+cache", "ratio"],
            &rows,
        );
    }
    println!("\npaper: λFS wins perf-per-cost for read and ls at every size (e.g. ls 32.74%");
    println!("       higher throughput with fewer resources); stat equal-or-better; overall 3.33x.");
}
