//! Fig. 16: λIndexFS vs IndexFS on BeeGFS under the tree-test workload —
//! fixed-size (1M writes + 1M reads total) and variable-size (10k + 10k
//! per client), clients swept 2 → 256.

use lambda_bench::*;

pub fn run(args: &Args) {
    let scale = args.scale();
    let seed = args.u64("seed", 53);
    let clients: Vec<u32> =
        if scale == 1.0 { vec![2, 4, 8, 16, 32, 64, 128, 256] } else { vec![2, 8, 32, 64] };
    let per_client = (10_000.0 / scale) as usize;
    let fixed_total = (1_000_000.0 / scale) as usize;
    for (title, ops) in
        [("variable-sized (per-client constant)", Some(per_client)), ("fixed-sized (total constant)", None)]
    {
        let jobs: Vec<_> = clients
            .iter()
            .map(|&c| {
                move || {
                    (
                        run_tree_point(TreeSystem::IndexFs, c, ops, fixed_total, seed),
                        run_tree_point(TreeSystem::LambdaIndexFs, c, ops, fixed_total, seed),
                    )
                }
            })
            .collect();
        let results = run_parallel(args.threads(), jobs);
        let rows: Vec<Vec<String>> = clients
            .iter()
            .zip(results.iter())
            .map(|(c, (ix, lx))| {
                vec![
                    c.to_string(),
                    fmt_ops(ix.read_throughput),
                    fmt_ops(lx.read_throughput),
                    fmt_ops(ix.write_throughput),
                    fmt_ops(lx.write_throughput),
                    fmt_ops(ix.aggregate_throughput),
                    fmt_ops(lx.aggregate_throughput),
                ]
            })
            .collect();
        print_table(
            &format!("Fig. 16 [{title}]"),
            &["clients", "ix read", "λix read", "ix write", "λix write", "ix agg", "λix agg"],
            &rows,
        );
    }
    println!("\npaper: λIndexFS reads consistently above IndexFS (function-side caching);");
    println!("       writes significantly higher (auto-scaling), dipping past 2^6 clients");
    println!("       as the 64-vCPU OpenWhisk cluster saturates — but still above IndexFS.");
}
