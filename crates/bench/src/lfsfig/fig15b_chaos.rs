//! Fig. 15(b) — beyond-paper: deterministic chaos sweep over the unified
//! fault plane, one fault class per run, each followed by a post-run
//! invariant audit.
//!
//! Every run builds a small λFS system, installs one [`FaultPlan`],
//! drives a closed-loop mixed read/write workload, drains the event
//! queue, and audits (namespace↔store consistency, no leaked locks or
//! transactions, no orphaned invocations, op-count conservation). The
//! figure exits nonzero if any audit fails, so it doubles as a CI gate.
//!
//! `--smoke` shortens the measured window; `--seed=N` reseeds every run;
//! `--durable` swaps in the WAL-backed durable store backend, so shard
//! failovers recover by WAL replay and the audit additionally checks
//! post-crash shadow↔table agreement.

use lambda_bench::*;
use lambda_fs::{AuditReport, LambdaFsConfig};
use lambda_sim::fault::FaultPlan;

use crate::closed_loop::{audit_cell, exit_on_violations, run_closed_loop, Mix};

/// One chaos run's summary.
struct ChaosReport {
    label: &'static str,
    throughput: f64,
    mean_latency_ms: f64,
    issued: u64,
    completed: u64,
    retries: u64,
    timeouts: u64,
    retries_exhausted: u64,
    load_sheds: u64,
    net_dropped: u64,
    net_duplicated: u64,
    net_delayed: u64,
    shard_crashes: u64,
    kills: u64,
    audit: AuditReport,
}

fn run_chaos(seed: u64, label: &'static str, spec: &str, secs: u64, durable: bool) -> ChaosReport {
    let plan = FaultPlan::parse(spec).expect("valid fault spec");
    let config = LambdaFsConfig {
        deployments: 4,
        clients: 16,
        client_vms: 4,
        cluster_vcpus: 64,
        durability: durable.then(lambda_store::DurabilityConfig::default),
        ..Default::default()
    };
    let mix = Mix { stat: 0.45, read: 0.65, ls: 0.75, create_prefix: "chaos" };
    let fs = run_closed_loop(seed, config, &plan, "/chaos", mix, secs);

    let audit = fs.audit();
    let m = fs.metrics().borrow().clone();
    let (net_dropped, net_duplicated, net_delayed) = fs.client_lib().fault_stats();
    ChaosReport {
        label,
        throughput: m.mean_throughput(),
        mean_latency_ms: m.mean_latency().as_secs_f64() * 1e3,
        issued: m.issued,
        completed: m.completed,
        retries: m.retries,
        timeouts: m.timeouts,
        retries_exhausted: m.retries_exhausted,
        load_sheds: m.load_sheds,
        net_dropped,
        net_duplicated,
        net_delayed,
        shard_crashes: fs.db().stats().shard_crashes,
        kills: fs.platform().stats().kills,
        audit,
    }
}

pub fn run(args: &Args) {
    let seed = args.u64("seed", 52);
    let secs = if args.flag("smoke") { 5 } else { 20 };
    let durable = args.flag("durable");
    // Windows are absolute sim times; the workload occupies roughly
    // [3s, 3s + secs], so every class lands inside the measured window.
    let classes: Vec<(&'static str, String)> = vec![
        ("baseline", String::new()),
        ("net-drop", "drop@4s-10s:p=0.25".into()),
        ("net-delay", "delay@4s-10s:p=0.5,ms=40".into()),
        ("net-dup", "dup@4s-10s:p=0.25".into()),
        ("partition", "part@4s-8s:a=0,b=1000".into()),
        ("shard-failover", "shard@6s:shard=1,down=3s".into()),
        ("kill-burst", "kill@6s:count=3".into()),
        ("cold-storm", "kill@6s:count=3;storm@5s-15s:x=6".into()),
        (
            "combined",
            "drop@4s-8s:p=0.15;delay@6s-12s:p=0.3,ms=30;part@5s-7s:a=1,b=1002;\
             shard@7s:shard=2,down=2s;kill@9s:count=2;storm@8s-14s:x=4"
                .into(),
        ),
    ];
    let jobs: Vec<_> = classes
        .into_iter()
        .map(|(label, spec)| move || run_chaos(seed, label, &spec, secs, durable))
        .collect();
    let reports = run_parallel_ops(args.threads(), jobs, |r| r.completed);

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.label.to_string(),
                fmt_ops(r.throughput),
                fmt_ms(r.mean_latency_ms),
                format!("{}/{}", r.completed, r.issued),
                r.retries.to_string(),
                format!("{}/{}/{}", r.timeouts, r.retries_exhausted, r.load_sheds),
                format!("{}/{}/{}", r.net_dropped, r.net_duplicated, r.net_delayed),
                format!("{}/{}", r.shard_crashes, r.kills),
                audit_cell(&r.audit),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fig. 15(b): deterministic chaos sweep (seed {seed}, {secs}s window{})",
            if durable { ", durable backend" } else { "" }
        ),
        &[
            "fault class",
            "avg tp",
            "avg latency",
            "done/gen",
            "retries",
            "to/exh/shed",
            "drop/dup/delay",
            "crash/kill",
            "audit",
        ],
        &rows,
    );

    exit_on_violations(reports.iter().map(|r| (r.label.to_string(), &r.audit)));
    println!("\nall {} fault classes audited clean: every op reached a terminal state,", reports.len());
    println!("no lock/txn/invocation leaked, and the namespace matches the store.");
}
