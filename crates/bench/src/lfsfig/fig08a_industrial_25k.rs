//! Fig. 8(a): the industrial (Spotify) workload at a 25,000 ops/sec base —
//! throughput over time for λFS, HopsFS, HopsFS+Cache, cost-normalized
//! HopsFS+Cache, and reduced-cache λFS, with λFS's active-NameNode count.
//! Also prints the Table 2 operation mix driving the run.

use lambda_bench::*;

pub fn run(args: &Args) {
    let scale = args.scale();
    let seed = args.u64("seed", 42);
    print_table(
        "Table 2: operation mix (relative frequency)",
        &["operation", "share"],
        &[
            vec!["read file".into(), "69.22%".into()],
            vec!["stat file/dir".into(), "17.00%".into()],
            vec!["ls file/dir".into(), "9.01%".into()],
            vec!["create file".into(), "2.70%".into()],
            vec!["mv file/dir".into(), "1.30%".into()],
            vec!["delete file/dir".into(), "0.75%".into()],
            vec!["mkdirs".into(), "0.02%".into()],
        ],
    );
    let kinds = [
        (SystemKind::Lambda, None),
        (SystemKind::LambdaReducedCache, None),
        (SystemKind::Hops, None),
        (SystemKind::HopsCache, None),
        (SystemKind::HopsCacheCostNormalized, Some(cost_normalized_vcpus(25_000.0))),
    ];
    let reports = run_industrial_sweep(
        args.threads(),
        kinds.map(|(kind, vcpus_override)| {
            (kind, IndustrialParams { vcpus_override, ..IndustrialParams::spotify(25_000.0, scale, seed) })
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
                format!("${:.3}", r.cost_total * scale),
                r.vcpus.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Fig. 8(a) summary (scale 1/{scale}; throughput/cost rescaled to full)"),
        &["system", "avg tp", "peak 15s tp", "avg latency", "done/gen", "cost(≈full)", "vcpus(scaled)"],
        &rows,
    );
    let labels: Vec<&str> = std::iter::once("offered")
        .chain(reports.iter().map(|r| r.system.as_str()))
        .collect();
    let mut series = vec![reports[0].offered_per_sec.clone()];
    series.extend(reports.iter().map(|r| r.throughput_per_sec.clone()));
    print_series("Fig. 8(a): ops/sec over time (scaled)", &labels, &series, 10);
    print_series(
        "Fig. 8(a) secondary axis: active λFS NameNodes",
        &["lambda-fs NNs"],
        &[reports[0].namenodes_per_sec.clone()],
        10,
    );
    println!("\npaper: λFS avg 45,690 ops/s @1.02ms; HopsFS 38,134 @10.58ms; H+C 45,945 @3.35ms;");
    println!("       λFS completed the 163,996 ops/s burst; peak sustained 4.3x HopsFS.");
}
