//! Table 3: end-to-end latency of subtree `mv` on directories of 2^18,
//! 2^19, and 2^20 files, λFS vs HopsFS.
//!
//! Scaled runs shrink the directory sizes by the scale factor (the cost is
//! linear in size); `--scale=1` uses the paper's sizes.

use lambda_bench::*;

pub fn run(args: &Args) {
    let scale = args.scale();
    let seed = args.u64("seed", 51);
    let sizes: Vec<usize> = [1usize << 18, 1 << 19, 1 << 20]
        .iter()
        .map(|s| ((*s as f64 / scale) as usize).max(1 << 12))
        .collect();
    let jobs: Vec<_> = sizes
        .iter()
        .map(|&size| {
            move || {
                (
                    run_subtree_mv(SystemKind::Hops, size, seed),
                    run_subtree_mv(SystemKind::Lambda, size, seed),
                )
            }
        })
        .collect();
    let results = run_parallel(args.threads(), jobs);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|(h, l)| {
            vec![
                format!("{} files", h.dir_size),
                format!("{:.1}ms", h.latency_ms),
                format!("{:.1}ms", l.latency_ms),
                format!("{:.1}%", (1.0 - l.latency_ms / h.latency_ms.max(1e-9)) * 100.0),
                l.moved.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!("Table 3: subtree mv latency (dir sizes scaled 1/{scale})"),
        &["directory size", "hopsfs", "lambda-fs", "λ faster by", "inodes moved"],
        &rows,
    );
    println!("\npaper (full sizes): 2^18: 7511.6 vs 6455.8ms (16.35% faster); 2^19: 14184.8 vs");
    println!("       12509.2ms (13.39%); 2^20: 25137.0 vs 25220.8ms (≈equal, store-bound).");
}
