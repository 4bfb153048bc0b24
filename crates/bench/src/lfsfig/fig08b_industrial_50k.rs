//! Fig. 8(b): the industrial workload at a 50,000 ops/sec base.

use lambda_bench::*;

pub fn run(args: &Args) {
    let scale = args.scale();
    let seed = args.u64("seed", 43);
    let kinds = [
        (SystemKind::Lambda, None),
        (SystemKind::Hops, None),
        (SystemKind::HopsCache, None),
        (SystemKind::HopsCacheCostNormalized, Some(cost_normalized_vcpus(50_000.0))),
    ];
    let reports = run_industrial_sweep(
        args.threads(),
        kinds.map(|(kind, vcpus_override)| {
            (kind, IndustrialParams { vcpus_override, ..IndustrialParams::spotify(50_000.0, scale, seed) })
        }),
    );
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.system.clone(),
                fmt_ops(r.avg_throughput * scale),
                fmt_ops(r.peak_sustained * scale),
                fmt_ms(r.avg_latency_ms),
                format!("{}/{}", r.completed, r.generated),
            ]
        })
        .collect();
    print_table(
        &format!("Fig. 8(b) summary (scale 1/{scale}; throughput rescaled to full)"),
        &["system", "avg tp", "peak 15s tp", "avg latency", "done/gen"],
        &rows,
    );
    let labels: Vec<&str> = std::iter::once("offered")
        .chain(reports.iter().map(|r| r.system.as_str()))
        .collect();
    let mut series = vec![reports[0].offered_per_sec.clone()];
    series.extend(reports.iter().map(|r| r.throughput_per_sec.clone()));
    print_series("Fig. 8(b): ops/sec over time (scaled)", &labels, &series, 10);
    println!("\npaper: λFS avg 90,876 @4.31ms vs HopsFS 44,956 @22.40ms (2.02x tp, 5.19x latency);");
    println!("       λFS sustained ~250k ops/s at the burst (5.56x HopsFS peak).");
}
