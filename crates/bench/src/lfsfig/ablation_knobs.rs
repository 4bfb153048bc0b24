//! Beyond-paper ablations of λFS's own design knobs, as called out in
//! DESIGN.md: the HTTP-TCP replacement probability, the per-instance
//! `ConcurrencyLevel`, the cache capacity, and the coherence protocol
//! itself (unsafe ablation measuring its write overhead).
//!
//! Every cell ends in the full post-run audit ([`LambdaFs::audit`]), taken
//! after its row is collected and the system drained; the figure exits 1
//! on a violation.

use lambda_bench::*;
use lambda_fs::{AuditReport, DfsService, LambdaFs, LambdaFsConfig};
use lambda_sim::{Sim, SimDuration};
use lambda_workload::run_spotify;
use std::rc::Rc;

use crate::closed_loop::{drain_and_stop, exit_on_violations};

/// One design knob moved off its default, given the run's parameters.
type Knob = fn(&mut LambdaFsConfig, &IndustrialParams);

struct Ablation {
    label: String,
    avg_tp: f64,
    avg_latency_ms: f64,
    peak_nn: f64,
    write_p50_ms: f64,
    cost: f64,
    audit: AuditReport,
}

fn run_one(label: &str, params: &IndustrialParams, mutate: Knob) -> Ablation {
    let mut sim = Sim::new(params.seed);
    let mut config = lambda_config(params, false);
    mutate(&mut config, params);
    let fs = Rc::new(LambdaFs::build(&mut sim, config));
    fs.start(&mut sim);
    let spotify = params.spotify_config();
    let dirs = spotify.load(fs.as_ref());
    fs.prewarm_with(&mut sim, &dirs);
    sim.run_for(SimDuration::from_secs(8));
    let _run = run_spotify(&mut sim, Rc::clone(&fs), spotify);
    let metrics = fs.run_metrics();
    let (avg_tp, avg_latency_ms, write_p50_ms) = {
        let mut m = metrics.borrow_mut();
        let write_p50 = m
            .latency
            .get_mut(&lambda_namespace::OpClass::Create)
            .map(|r| r.percentile(0.5).as_millis_f64())
            .unwrap_or(0.0);
        (m.mean_throughput(), m.mean_latency().as_millis_f64(), write_p50)
    };
    let (peak_nn, cost) = (fs.namenode_gauge().peak(), fs.pay_meter().total());
    // Every printed cell is taken: drain, then audit.
    drain_and_stop(&mut sim, &fs);
    Ablation {
        label: label.to_string(),
        avg_tp,
        avg_latency_ms,
        peak_nn,
        write_p50_ms,
        cost,
        audit: fs.audit(),
    }
}

/// The labels of the rows after the first (the baseline) that equal it in
/// every column but the label: knobs whose row moves nothing.
fn rows_like_the_baseline(rows: &[Vec<String>]) -> Vec<&str> {
    let Some((baseline, knobs)) = rows.split_first() else { return Vec::new() };
    knobs.iter().filter(|row| row[1..] == baseline[1..]).map(|row| row[0].as_str()).collect()
}

pub fn run(args: &Args) {
    let scale = args.scale();
    let params = IndustrialParams::spotify(25_000.0, scale, args.u64("seed", 54));
    let knobs: [(&str, Knob); 8] = [
        ("baseline (p=1%, CL=4, coherence on)", |_, _| {}),
        ("replacement p=0 (no autoscale signal)", |c, _| c.http_replace_prob = 0.0),
        ("replacement p=5%", |c, _| c.http_replace_prob = 0.05),
        ("replacement p=100% (per-op HTTP)", |c, _| c.http_replace_prob = 1.0),
        ("ConcurrencyLevel=1", |c, _| c.concurrency_level = 1),
        ("ConcurrencyLevel=16", |c, _| c.concurrency_level = 16),
        ("reduced cache (< WSS)", |c, p| c.cache_capacity = lambda_config(p, true).cache_capacity),
        ("coherence OFF (unsafe)", |c, _| c.coherence_enabled = false),
    ];
    let jobs: Vec<_> = knobs
        .into_iter()
        .map(|(label, mutate)| {
            let params = params.clone();
            move || run_one(label, &params, mutate)
        })
        .collect();
    let results = run_parallel(args.threads(), jobs);
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|a| {
            vec![
                a.label.clone(),
                fmt_ops(a.avg_tp * scale),
                fmt_ms(a.avg_latency_ms),
                format!("{:.0}", a.peak_nn),
                fmt_ms(a.write_p50_ms),
                format!("${:.4}", a.cost),
            ]
        })
        .collect();
    print_table(
        &format!("Design-knob ablations on the 25k industrial workload (scale 1/{scale})"),
        &["configuration", "avg tp (≈full)", "avg latency", "peak NNs", "create p50", "cost"],
        &rows,
    );
    exit_on_violations(results.iter().map(|a| (a.label.clone(), &a.audit)));
    println!("\nevery cell audited clean ({} checks each)", results[0].audit.checks);
    // A row equal to the baseline measures nothing: fail like a dirty audit.
    let dead = rows_like_the_baseline(&rows);
    if !dead.is_empty() {
        println!("
rows equal to the baseline in every column:");
        dead.iter().for_each(|label| println!("  {label}"));
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::rows_like_the_baseline;

    fn row(cells: &[&str]) -> Vec<String> {
        cells.iter().map(|c| (*c).to_string()).collect()
    }

    #[test]
    fn a_row_equal_to_the_baseline_in_every_column_is_named() {
        let baseline = row(&["baseline", "52.6k", "2.33ms", "20", "12.62ms", "$0.1101"]);
        let same = row(&["same", "52.6k", "2.33ms", "20", "12.62ms", "$0.1101"]);
        let cost_only = row(&["cost only", "52.6k", "2.33ms", "20", "12.62ms", "$0.1100"]);
        assert_eq!(rows_like_the_baseline(&[baseline.clone(), same, cost_only.clone()]), ["same"]);
        assert!(rows_like_the_baseline(&[baseline, cost_only]).is_empty());
    }
}
