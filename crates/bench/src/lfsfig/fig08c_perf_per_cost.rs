//! Fig. 8(c): performance-per-cost (ops/sec per $/sec) over time for λFS
//! vs HopsFS+Cache at both workload bases.

use lambda_bench::*;

pub fn run(args: &Args) {
    let scale = args.scale();
    let seed = args.u64("seed", 44);
    let runs = [
        ("lambda-fs 25k", SystemKind::Lambda, 25_000.0),
        ("hopsfs+cache 25k", SystemKind::HopsCache, 25_000.0),
        ("lambda-fs 50k", SystemKind::Lambda, 50_000.0),
        ("hopsfs+cache 50k", SystemKind::HopsCache, 50_000.0),
    ];
    let reports = run_industrial_sweep(
        args.threads(),
        runs.map(|(_, kind, base)| (kind, IndustrialParams::spotify(base, scale, seed))),
    );
    let results: Vec<(&str, IndustrialReport)> =
        runs.iter().map(|(label, ..)| *label).zip(reports).collect();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(label, r)| {
            let avg_ppc = if r.cost_total > 1e-12 {
                r.avg_throughput * r.throughput_per_sec.len() as f64 / r.cost_total
            } else {
                0.0
            };
            vec![label.to_string(), fmt_ops(r.avg_throughput * scale), format!("${:.4}", r.cost_total),
                 fmt_ops(avg_ppc)]
        })
        .collect();
    print_table(
        &format!("Fig. 8(c) summary (scale 1/{scale})"),
        &["run", "avg tp (≈full)", "total cost (scaled)", "avg perf-per-cost (ops/$)"],
        &rows,
    );
    let labels: Vec<&str> = results.iter().map(|(l, _)| *l).collect();
    let series: Vec<Vec<f64>> =
        results.iter().map(|(_, r)| r.perf_per_cost_per_sec.clone()).collect();
    print_series("Fig. 8(c): ops/sec per $/sec over time", &labels, &series, 10);
    println!("\npaper: λFS's per-second performance-per-cost is a large multiple of");
    println!("       HopsFS+Cache's throughout both workloads (Fig. 8(c)).");
}
