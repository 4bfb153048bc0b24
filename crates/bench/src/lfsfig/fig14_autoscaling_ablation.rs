//! Fig. 14: the impact of intra-deployment auto-scaling on λFS throughput —
//! enabled (unbounded), limited (≤2 instances/deployment), and disabled
//! (1 instance/deployment) — across the five micro-benchmark operations.
//! Runs λFS's agile configuration (`ConcurrencyLevel = 1`, §3.4): scaled
//! runs also raise offered concurrency 2.5× so the Fig. 6 desired-scale
//! surplus clears the *limited* cap — with the deployment floor shrunk
//! 10 → 2 by scaling, paper-proportional load would park all three modes
//! at indistinguishable instance counts.

use lambda_bench::*;

/// The paper's 1024 clients at scale 1; 2.5× the scaled population at any
/// other (see the module doc).
pub fn clients(scale: f64) -> u32 {
    if scale == 1.0 {
        1024
    } else {
        ((1024.0 / scale * 2.5) as u32).max(64)
    }
}

pub fn run(args: &Args) {
    let scale = args.scale();
    let seed = args.u64("seed", 50);
    let clients = clients(scale);
    // Preserve the head-room ratio between the deployment floor and the
    // vCPU budget (10 deployments vs ~100 possible NameNodes at full
    // scale) so the ablation's effect survives scaling.
    let deployments = ((10.0 / scale).round() as u32).max(2);
    let modes: [(&str, Option<u32>); 3] =
        [("auto-scaling", None), ("limited (≤2)", Some(2)), ("disabled (1)", Some(1))];
    let jobs: Vec<_> = MICRO_OPS
        .iter()
        .flat_map(|&op| {
            modes.iter().map(move |&(_, autoscale_limit)| {
                move || {
                    run_micro_point(
                        SystemKind::Lambda,
                        &MicroParams {
                            deployments,
                            autoscale_limit,
                            concurrency_level: 1,
                            ..MicroParams::paper(op, clients, scale, seed)
                        },
                    )
                }
            })
        })
        .collect();
    let points = run_parallel(args.threads(), jobs);
    let rows: Vec<Vec<String>> = MICRO_OPS
        .iter()
        .enumerate()
        .map(|(oi, op)| {
            let base = &points[oi * 3];
            let limited = &points[oi * 3 + 1];
            let disabled = &points[oi * 3 + 2];
            vec![
                op.to_string(),
                format!("{} ({:.0}NN)", fmt_ops(base.throughput * scale), base.peak_namenodes),
                format!("{} ({:.0}NN)", fmt_ops(limited.throughput * scale), limited.peak_namenodes),
                format!("{} ({:.0}NN)", fmt_ops(disabled.throughput * scale), disabled.peak_namenodes),
                format!("{:.2}x", base.throughput / limited.throughput.max(1e-9)),
                format!("{:.2}x", base.throughput / disabled.throughput.max(1e-9)),
            ]
        })
        .collect();
    print_table(
        &format!("Fig. 14: λFS throughput vs auto-scaling mode ({clients} clients, scale 1/{scale})"),
        &["op", "AS", "limited", "disabled", "AS/limited", "AS/disabled"],
        &rows,
    );
    println!("\npaper: read 2.85-3.17x / 3.53-3.80x (vs limited / disabled); stat similar;");
    println!("       ls 3.07x / 14.37x; writes barely move (store-bound).");
}
