//! Fig. 10: end-to-end latency CDFs per operation class for λFS, HopsFS,
//! and HopsFS+Cache, for both industrial workload bases.

use lambda_bench::*;

pub fn run(args: &Args) {
    let scale = args.scale();
    let seed = args.u64("seed", 46);
    for base in [25_000.0, 50_000.0] {
        let reports = run_industrial_sweep(
            args.threads(),
            [SystemKind::Lambda, SystemKind::Hops, SystemKind::HopsCache]
                .map(|kind| (kind, IndustrialParams::spotify(base, scale, seed))),
        );
        for r in &reports {
            let rows: Vec<Vec<String>> = r
                .latency_by_class
                .iter()
                .map(|(class, mean, p50, p99)| {
                    vec![class.clone(), fmt_ms(*mean), fmt_ms(*p50), fmt_ms(*p99)]
                })
                .collect();
            print_table(
                &format!("Fig. 10 [{} @ base {}]", r.system, fmt_ops(base)),
                &["class", "mean", "p50", "p99"],
                &rows,
            );
            for (class, cdf) in &r.cdf_by_class {
                let points: Vec<String> = cdf
                    .iter()
                    .step_by(4)
                    .map(|(ms, f)| format!("{:.0}%≤{}", f * 100.0, fmt_ms(*ms)))
                    .collect();
                println!("  {class:<7} CDF: {}", points.join("  "));
            }
        }
    }
    println!("\npaper: λFS read latencies 6.93x-20.13x lower than HopsFS; HopsFS writes");
    println!("       1.5x-5.5x faster than λFS (coherence overhead); λFS ~3.3x lower than H+C.");
}
