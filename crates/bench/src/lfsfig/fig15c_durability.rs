//! Fig. 15(c) — beyond-paper: durability sweep over the WAL-backed store
//! backend. Each cell of a flush-interval × crash-rate grid runs a
//! closed-loop mixed workload against the durable backend, crashes data
//! shards on a fixed cadence, and reports how recovery behaves: recovery
//! time (the costed WAL-replay window), write amplification from the
//! LSM shadow, group-commit sync counts, and the lost-window abort rate
//! (commits whose WAL records had not yet reached a group-commit
//! boundary when their shard died).
//!
//! Every run ends in the PR 5 invariant audit — namespace↔store
//! consistency, zero leaked transactions/locks, op-count conservation,
//! plus the durable backend's post-crash shadow↔table check — and the
//! figure exits nonzero if any cell fails, so it doubles as a CI gate.
//!
//! `--smoke` shrinks the grid and the measured window; `--seed=N`
//! reseeds every run.

use lambda_bench::*;
use lambda_fs::{AuditReport, LambdaFsConfig};
use lambda_sim::fault::{FaultPlan, ShardOutage};
use lambda_sim::{SimDuration, SimTime};
use lambda_store::{DurabilityConfig, DurabilityStats, LsmStats};

use crate::closed_loop::{audit_cell, exit_on_violations, run_closed_loop, Mix};

/// One grid cell's summary.
struct Cell {
    flush_ms: f64,
    crash_label: &'static str,
    crashes_planned: usize,
    throughput: f64,
    completed: u64,
    issued: u64,
    durability: DurabilityStats,
    lsm: LsmStats,
    audit: AuditReport,
}

/// Builds the crash schedule for one cell: starting at 6 s, one shard
/// outage every `spacing`, rotating over the data shards, until the
/// measured window closes. The `takeover` field is what the *in-memory*
/// backend would charge; the durable backend ignores it and costs the
/// WAL replay instead — which is exactly what this figure measures.
fn crash_plan(spacing: Option<SimDuration>, secs: u64, shards: u32) -> FaultPlan {
    let mut plan = FaultPlan::default();
    let Some(spacing) = spacing else { return plan };
    let mut at = SimTime::ZERO + SimDuration::from_secs(6);
    let end = SimTime::ZERO + SimDuration::from_secs(3 + secs);
    let mut i = 0u32;
    while at < end {
        plan.shards.push(ShardOutage {
            shard: i % shards,
            at,
            takeover: SimDuration::from_secs(30),
        });
        at += spacing;
        i += 1;
    }
    plan
}

fn run_cell(
    seed: u64,
    flush_ms: f64,
    crash_label: &'static str,
    spacing: Option<SimDuration>,
    secs: u64,
) -> Cell {
    let config = LambdaFsConfig {
        deployments: 4,
        clients: 16,
        client_vms: 4,
        cluster_vcpus: 64,
        durability: Some(DurabilityConfig {
            flush_interval: SimDuration::from_millis_f64(flush_ms),
        }),
        ..Default::default()
    };
    let shards = config.store.shards;
    let plan = crash_plan(spacing, secs, shards);
    let crashes_planned = plan.shards.len();
    // A write-heavy tail keeps the WAL and the commit window busy so
    // crashes actually have in-flight commits to threaten.
    let mix = Mix { stat: 0.40, read: 0.60, ls: 0.70, create_prefix: "dur" };
    let fs = run_closed_loop(seed, config, &plan, "/durability", mix, secs);

    let audit = fs.audit();
    let m = fs.metrics().borrow().clone();
    Cell {
        flush_ms,
        crash_label,
        crashes_planned,
        throughput: m.mean_throughput(),
        completed: m.completed,
        issued: m.issued,
        durability: fs.db().durability_stats().expect("durable backend"),
        lsm: fs.db().lsm_stats().expect("durable backend"),
        audit,
    }
}

pub fn run(args: &Args) {
    let seed = args.u64("seed", 53);
    let smoke = args.flag("smoke");
    let secs = if smoke { 5 } else { 20 };
    let flush_intervals: &[f64] = if smoke { &[2.0] } else { &[0.5, 2.0, 8.0] };
    let crash_rates: &[(&'static str, Option<u64>)] = if smoke {
        &[("none", None), ("every-4s", Some(4))]
    } else {
        &[("none", None), ("every-8s", Some(8)), ("every-4s", Some(4))]
    };

    let mut cells: Vec<(f64, &'static str, Option<u64>)> = Vec::new();
    for &f in flush_intervals {
        for &(label, spacing) in crash_rates {
            cells.push((f, label, spacing));
        }
    }
    let jobs: Vec<_> = cells
        .into_iter()
        .map(|(f, label, spacing)| {
            move || run_cell(seed, f, label, spacing.map(SimDuration::from_secs), secs)
        })
        .collect();
    let reports = run_parallel_ops(args.threads(), jobs, |c| c.completed);

    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|c| {
            let d = &c.durability;
            let mean_recovery_ms = if d.recoveries == 0 {
                0.0
            } else {
                d.recovery_nanos_total as f64 / d.recoveries as f64 / 1e6
            };
            vec![
                fmt_ms(c.flush_ms),
                c.crash_label.to_string(),
                fmt_ops(c.throughput),
                format!("{}/{}", c.completed, c.issued),
                format!("{}/{}", d.recoveries, c.crashes_planned),
                format!(
                    "{}/{}",
                    fmt_ms(mean_recovery_ms),
                    fmt_ms(d.recovery_nanos_max as f64 / 1e6)
                ),
                d.replayed_records.to_string(),
                format!("{}/{}", d.lost_window_aborts, d.lost_records),
                format!("{}/{}", d.wal_appends, d.group_syncs),
                format!("{:.2}x", c.lsm.write_amplification()),
                format!("{}/{}", c.lsm.flushes, c.lsm.compactions),
                audit_cell(&c.audit),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fig. 15(c): durability sweep — flush interval x crash rate (seed {seed}, {secs}s window)"
        ),
        &[
            "flush",
            "crashes",
            "avg tp",
            "done/gen",
            "recov/plan",
            "recovery avg/max",
            "replayed",
            "lost ab/rec",
            "wal/syncs",
            "write amp",
            "lsm fl/cmp",
            "audit",
        ],
        &rows,
    );

    exit_on_violations(
        reports.iter().map(|c| (format!("flush={} crashes={}", c.flush_ms, c.crash_label), &c.audit)),
    );
    println!(
        "\nall {} cells audited clean: every crash recovered by WAL replay,",
        reports.len()
    );
    println!("lost-window commits aborted and compensated, shadow and tables agree.");
}
