//! Fig. 9: cumulative monetary cost of the 25k industrial workload — λFS
//! pay-per-use, λFS under the simplified (billed-while-provisioned) model,
//! HopsFS, and HopsFS+Cache.

use lambda_bench::*;

pub fn run(args: &Args) {
    let scale = args.scale();
    let seed = args.u64("seed", 45);
    let reports = run_industrial_sweep(
        args.threads(),
        [SystemKind::Lambda, SystemKind::Hops, SystemKind::HopsCache]
            .map(|kind| (kind, IndustrialParams::spotify(25_000.0, scale, seed))),
    );
    let lambda = &reports[0];
    let rows = vec![
        vec!["lambda-fs (pay-per-use)".to_string(), format!("${:.4}", lambda.cost_total)],
        vec![
            "lambda-fs (simplified)".to_string(),
            format!("${:.4}", lambda.cost_simplified_cumulative.last().copied().unwrap_or(0.0)),
        ],
        vec![reports[1].system.clone(), format!("${:.4}", reports[1].cost_total)],
        vec![reports[2].system.clone(), format!("${:.4}", reports[2].cost_total)],
    ];
    print_table(&format!("Fig. 9 totals (scale 1/{scale}; costs scale ~1/{scale})"), &["system", "total"], &rows);
    let series = [lambda.cost_cumulative.clone(),
        lambda.cost_simplified_cumulative.clone(),
        reports[1].cost_cumulative.clone(),
        reports[2].cost_cumulative.clone()];
    let labels = ["λ pay-per-use", "λ simplified", "hopsfs", "hopsfs+cache"];
    // Costs are small; print cents.
    let cents: Vec<Vec<f64>> =
        series.iter().map(|s| s.iter().map(|v| v * 100.0).collect()).collect();
    print_series("Fig. 9: cumulative cost over time (CENTS)", &labels, &cents, 10);
    let ratio = reports[1].cost_total / lambda.cost_total.max(1e-12);
    println!("\nmeasured: HopsFS / λFS cost ratio = {ratio:.2}x");
    println!("paper: $2.50 vs $0.35 => 7.14x (85.99% cheaper); simplified model ~2x pay-per-use.");
}
