//! Reporting utilities: ASCII tables, series printers, argument parsing,
//! machine-readable result files, and a bounded parallel runner for
//! experiment sweeps.

use std::path::PathBuf;
use std::str::FromStr;
use std::thread;
use std::time::Instant;

/// Formats an ops/sec magnitude compactly ("45.7k", "1.2M").
#[must_use]
pub fn fmt_ops(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

/// Formats milliseconds with sensible precision.
#[must_use]
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 100.0 {
        format!("{ms:.0}ms")
    } else if ms >= 1.0 {
        format!("{ms:.2}ms")
    } else {
        format!("{:.0}us", ms * 1000.0)
    }
}

/// Prints an aligned ASCII table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (i, cell) in cells.iter().enumerate() {
            out.push_str(&format!("{:<width$}  ", cell, width = widths.get(i).copied().unwrap_or(8)));
        }
        println!("{}", out.trim_end());
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Prints one or more aligned per-second series, sampling every
/// `stride` buckets.
pub fn print_series(title: &str, labels: &[&str], series: &[Vec<f64>], stride: usize) {
    let stride = stride.max(1);
    let len = series.iter().map(Vec::len).max().unwrap_or(0);
    let mut headers = vec!["t(s)"];
    headers.extend_from_slice(labels);
    let rows: Vec<Vec<String>> = (0..len)
        .step_by(stride)
        .map(|t| {
            let mut row = vec![t.to_string()];
            for s in series {
                row.push(s.get(t).map_or("-".to_string(), |v| fmt_ops(*v)));
            }
            row
        })
        .collect();
    print_table(title, &headers, &rows);
}

/// `--name=value` parsed out of `args`: `Ok(default)` when absent, and on a
/// present-but-malformed value `Err` with the message the binaries exit on.
fn parse_arg<T: FromStr>(
    mut args: impl Iterator<Item = String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    let prefix = format!("--{name}=");
    match args.find_map(|a| a.strip_prefix(&prefix).map(str::to_owned)) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for --{name}: {v}")),
    }
}

/// [`parse_arg`] over the process arguments. A malformed value exits 2: a
/// typo (`--seed=1O`) must not silently run the default.
fn arg<T: FromStr>(name: &str, default: T) -> T {
    parse_arg(std::env::args(), name, default).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2)
    })
}

/// Reads `--name=value` from the process arguments, with a default.
#[must_use]
pub fn arg_f64(name: &str, default: f64) -> f64 {
    arg(name, default)
}

/// Reads an integer `--name=value` (e.g. a seed) from the process
/// arguments, with a default. Unlike going through [`arg_f64`] and
/// casting, large seeds survive without losing low bits to the `f64`
/// mantissa.
#[must_use]
pub fn arg_u64(name: &str, default: u64) -> u64 {
    arg(name, default)
}

/// Reads a `--flag` boolean from the process arguments.
#[must_use]
pub fn arg_flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

/// Reads a `usize` `--name=value` (a count: threads, clients) from the
/// process arguments, with a default.
#[must_use]
pub fn arg_usize(name: &str, default: usize) -> usize {
    arg(name, default)
}

/// The sweep thread width every benchmark binary uses: `--threads=N`,
/// else the machine's available parallelism.
///
/// Thread width never changes any simulated result — each sweep job is a
/// whole independent simulation and job order is preserved — so this knob
/// only trades wall-clock time for cores.
#[must_use]
pub fn bench_threads() -> usize {
    let fallback = thread::available_parallelism().map(usize::from).unwrap_or(4);
    arg_usize("threads", fallback).max(1)
}

/// The number of hardware threads on the machine running the bench, as
/// reported by [`std::thread::available_parallelism`]. Recorded beside
/// `threads` in bench JSON that reports wall-clock numbers, so they stay
/// interpretable off-host.
#[must_use]
pub fn host_cores() -> usize {
    thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// The experiment scale factor: 1.0 = the paper's full scale. Defaults to
/// a 5× reduction (load, resources, and store capacity shrink together, so
/// the figures' shapes are preserved); `--full` forces 1.0.
#[must_use]
pub fn scale_from_args() -> f64 {
    if arg_flag("full") {
        1.0
    } else {
        arg_f64("scale", 5.0).max(1.0)
    }
}

/// Runs jobs on up to [`bench_threads`] threads, preserving order, and
/// prints a wall-clock summary of the sweep when it finishes.
///
/// Each job builds its own simulation, so jobs are fully independent.
pub fn run_parallel<T, F>(jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_parallel_on(bench_threads(), jobs)
}

/// [`run_parallel`] at an explicit thread width.
fn run_parallel_on<T, F>(width: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n_jobs = jobs.len();
    let started = Instant::now();
    let mut results: Vec<Option<T>> = Vec::new();
    results.resize_with(jobs.len(), || None);
    let mut jobs: Vec<Option<F>> = jobs.into_iter().map(Some).collect();
    let next = std::sync::atomic::AtomicUsize::new(0);
    let jobs_ref = std::sync::Mutex::new(&mut jobs);
    let results_ref = std::sync::Mutex::new(&mut results);
    thread::scope(|scope| {
        for _ in 0..width {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                let job = {
                    let mut jobs = jobs_ref.lock().expect("jobs lock");
                    match jobs.get_mut(idx) {
                        Some(slot) => slot.take(),
                        None => return,
                    }
                };
                let Some(job) = job else { return };
                let out = job();
                results_ref.lock().expect("results lock")[idx] = Some(out);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "[wall-clock] {n_jobs} simulation{} on {width} thread{} in {elapsed:.2}s",
        if n_jobs == 1 { "" } else { "s" },
        if width == 1 { "" } else { "s" },
    );
    results.into_iter().map(|r| r.expect("job completed")).collect()
}

/// Like [`run_parallel`], plus a per-job wall-clock productivity line:
/// each job's simulated-operation count (extracted by `ops` from its
/// result) divided by the wall time that job took on its worker thread.
///
/// Every line is prefixed `[wall-clock]` so golden-output diffs can
/// filter the runtime-dependent part, exactly like [`run_parallel`]'s
/// sweep summary.
pub fn run_parallel_ops<T, F>(jobs: Vec<F>, ops: impl Fn(&T) -> u64) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let timed: Vec<_> = jobs
        .into_iter()
        .map(|job| {
            move || {
                let started = Instant::now();
                let out = job();
                (out, started.elapsed().as_secs_f64())
            }
        })
        .collect();
    let results = run_parallel(timed);
    results
        .into_iter()
        .enumerate()
        .map(|(i, (out, wall))| {
            let n = ops(&out);
            let rate = if wall > 0.0 { n as f64 / wall } else { 0.0 };
            println!(
                "[wall-clock] job {i}: {n} sim-ops in {wall:.2}s ({} sim-ops/wall-sec)",
                fmt_ops(rate),
            );
            out
        })
        .collect()
}

/// Writes a machine-readable result file to `results/<name>.json`
/// (creating the directory if needed) and returns its path.
///
/// # Panics
///
/// Panics if the file cannot be written — a benchmark whose results vanish
/// silently is worse than one that fails.
pub fn write_json(name: &str, json: &str) -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, json).expect("write results file");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_picks_units() {
        assert_eq!(fmt_ops(532.0), "532");
        assert_eq!(fmt_ops(45_690.0), "45.7k");
        assert_eq!(fmt_ops(1_230_000.0), "1.23M");
        assert_eq!(fmt_ms(0.5), "500us");
        assert_eq!(fmt_ms(10.58), "10.58ms");
        assert_eq!(fmt_ms(163.0), "163ms");
    }

    #[test]
    fn parallel_runner_preserves_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> =
            (0..32usize).map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>).collect();
        let out = run_parallel(jobs);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_ops_runner_preserves_order_and_results() {
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> =
            (0..8u64).map(|i| Box::new(move || i + 100) as Box<dyn FnOnce() -> u64 + Send>).collect();
        let out = run_parallel_ops(jobs, |r| *r);
        assert_eq!(out, (0..8).map(|i| i + 100).collect::<Vec<_>>());
    }

    #[test]
    fn parse_arg_reads_defaults_and_rejects_malformed_values() {
        let args = || ["bin", "--seed=17", "--scale=abc"].into_iter().map(String::from);
        assert_eq!(parse_arg(args(), "seed", 42u64), Ok(17));
        assert_eq!(parse_arg(args(), "threads", 4usize), Ok(4));
        assert_eq!(parse_arg(args(), "scale", 5.0f64), Err("bad value for --scale: abc".to_string()));
    }

    #[test]
    fn sweep_results_do_not_depend_on_thread_width() {
        use crate::industrial::{run_industrial, IndustrialParams, SystemKind};
        // Whole simulations per job, so paths interned on one worker thread
        // are read back on another.
        let sweep = |width| {
            let jobs: Vec<_> = [
                (SystemKind::Lambda, 1u64),
                (SystemKind::Hops, 2),
                (SystemKind::HopsCache, 3),
                (SystemKind::Ceph, 4),
                (SystemKind::Lambda, 5),
            ]
            .into_iter()
            .map(|(kind, seed)| {
                move || format!("{:?}", run_industrial(kind, &IndustrialParams::spotify(25_000.0, 200.0, seed)))
            })
            .collect();
            run_parallel_on(width, jobs)
        };
        assert_eq!(sweep(1), sweep(4));
    }
}
