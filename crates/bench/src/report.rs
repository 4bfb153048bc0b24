//! Reporting utilities: ASCII tables, series printers, argument parsing,
//! and a bounded parallel runner for experiment sweeps.

use std::str::FromStr;
use std::sync::Mutex;
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
/// present-but-malformed value `Err` with the message the driver exits on.
fn parse_arg<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    let prefix = format!("--{name}=");
    match args.iter().find_map(|a| a.strip_prefix(&prefix)) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad value for --{name}: {v}")),
    }
}

/// The flags every figure accepts. `name=` takes a value (`--seed=7`),
/// `name` is a switch (`--smoke`); figures declare theirs the same way.
pub const COMMON_FLAGS: [&str; 3] = ["scale=", "seed=", "threads="];

/// Flags as typed on a command line: `--scale= --smoke`.
#[must_use]
pub fn flag_list(flags: &[&str]) -> String {
    flags.iter().map(|f| format!("--{f}")).collect::<Vec<_>>().join(" ")
}

/// The flags of one `lfsfig <figure> …` invocation, checked against the
/// ones the figure declares: a typo (`--sead=7`, `--durabel`) must not
/// silently run the default.
#[derive(Debug)]
pub struct Args {
    given: Vec<String>,
    accepted: Vec<&'static str>,
}

impl Args {
    /// Checks every argument after the figure name against
    /// [`COMMON_FLAGS`] plus `figure_flags`.
    ///
    /// # Errors
    ///
    /// The first argument that is not an accepted `--name` / `--name=value`,
    /// named in a message that lists the accepted ones.
    pub fn parse(given: Vec<String>, figure_flags: &[&'static str]) -> Result<Args, String> {
        let accepted: Vec<&str> = COMMON_FLAGS.iter().chain(figure_flags).copied().collect();
        for arg in &given {
            let key = arg.strip_prefix("--").and_then(|f| f.split_inclusive('=').next());
            if !key.is_some_and(|k| accepted.contains(&k)) {
                return Err(format!("unknown flag {arg} (accepted: {})", flag_list(&accepted)));
            }
        }
        Ok(Args { given, accepted })
    }

    /// A figure that reads a flag its table entry does not declare would
    /// have that flag rejected on every command line: a bug, not a default.
    fn assert_declared(&self, key: &str) {
        assert!(self.accepted.contains(&key), "--{key} is read but not declared by this figure");
    }

    /// `--name=value`, or `default` when absent. A malformed value exits 2
    /// (`--seed=1O` must not silently run the default either).
    fn value<T: FromStr>(&self, name: &str, default: T) -> T {
        self.assert_declared(&format!("{name}="));
        parse_arg(&self.given, name, default).unwrap_or_else(|msg| {
            eprintln!("{msg}");
            std::process::exit(2)
        })
    }

    /// Reads an integer `--name=value` (a seed, a count), with a default.
    #[must_use]
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        self.value(name, default)
    }

    /// Reads a `--name` switch.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.assert_declared(name);
        self.given.iter().any(|a| a.strip_prefix("--") == Some(name))
    }

    /// The sweep thread width: `--threads=N`, else the machine's available
    /// parallelism.
    ///
    /// Thread width never changes any simulated result — each sweep job is a
    /// whole independent simulation and job order is preserved — so this knob
    /// only trades wall-clock time for cores.
    #[must_use]
    pub fn threads(&self) -> usize {
        let cores = thread::available_parallelism().map(usize::from).unwrap_or(1);
        self.value("threads", cores).max(1)
    }

    /// The experiment scale factor: 1.0 = the paper's full scale, where the
    /// micro-benchmark figures also run the paper's sweeps and op counts.
    /// Defaults to a 5× reduction (load, resources, and store capacity
    /// shrink together, so the figures' shapes are preserved).
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.value("scale", 5.0_f64).max(1.0)
    }
}

/// Runs jobs on `width` threads ([`Args::threads`]), preserving order, and
/// prints a wall-clock summary of the sweep when it finishes.
///
/// Each job builds its own simulation, so jobs are fully independent.
pub fn run_parallel<T, F>(width: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n_jobs = jobs.len();
    let started = Instant::now();
    let queue = Mutex::new(jobs.into_iter().enumerate());
    let results = Mutex::new((0..n_jobs).map(|_| None).collect::<Vec<Option<T>>>());
    thread::scope(|scope| {
        for _ in 0..width {
            scope.spawn(|| loop {
                let Some((idx, job)) = queue.lock().expect("queue lock").next() else { return };
                let out = job();
                results.lock().expect("results lock")[idx] = Some(out);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    println!(
        "[wall-clock] {n_jobs} simulation{} on {width} thread{} in {elapsed:.2}s",
        if n_jobs == 1 { "" } else { "s" },
        if width == 1 { "" } else { "s" },
    );
    let results = results.into_inner().expect("results lock");
    results.into_iter().map(|r| r.expect("job completed")).collect()
}

/// Like [`run_parallel`], plus a per-job wall-clock productivity line:
/// each job's simulated-operation count (extracted by `ops` from its
/// result) divided by the wall time that job took on its worker thread.
///
/// Every line is prefixed `[wall-clock]` so golden-output diffs can
/// filter the runtime-dependent part, exactly like [`run_parallel`]'s
/// sweep summary.
pub fn run_parallel_ops<T, F>(width: usize, jobs: Vec<F>, ops: impl Fn(&T) -> u64) -> Vec<T>
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
    let results = run_parallel(width, timed);
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
        let out = run_parallel(4, jobs);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_ops_runner_preserves_order_and_results() {
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> =
            (0..8u64).map(|i| Box::new(move || i + 100) as Box<dyn FnOnce() -> u64 + Send>).collect();
        let out = run_parallel_ops(4, jobs, |r| *r);
        assert_eq!(out, (0..8).map(|i| i + 100).collect::<Vec<_>>());
    }

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn parse_arg_reads_defaults_and_rejects_malformed_values() {
        let args = strings(&["--seed=17", "--scale=abc"]);
        assert_eq!(parse_arg(&args, "seed", 42u64), Ok(17));
        assert_eq!(parse_arg(&args, "threads", 4usize), Ok(4));
        assert_eq!(parse_arg(&args, "scale", 5.0f64), Err("bad value for --scale: abc".to_string()));
    }

    #[test]
    fn args_accept_common_and_declared_flags_only() {
        let args = Args::parse(strings(&["--scale=50", "--seed=7", "--smoke"]), &["smoke", "rows="])
            .expect("all declared");
        assert_eq!((args.scale(), args.u64("seed", 52), args.u64("rows", 0)), (50.0, 7, 0));
        assert!(args.flag("smoke"));
        assert_eq!(Args::parse(strings(&["--threads=3"]), &[]).expect("common").threads(), 3);

        // Misspelt, undeclared, positional, and switch/value mix-ups.
        for bad in ["--sead=7", "--smokee", "--durable", "seed=7", "--", "--seed", "--smoke=1"] {
            let err = Args::parse(strings(&["--scale=50", bad]), &["smoke"]).expect_err(bad);
            assert_eq!(
                err,
                format!("unknown flag {bad} (accepted: --scale= --seed= --threads= --smoke)")
            );
        }
    }

    #[test]
    #[should_panic(expected = "--rows= is read but not declared")]
    fn args_panic_on_reading_an_undeclared_flag() {
        let _ = Args::parse(Vec::new(), &["smoke"]).expect("no flags given").u64("rows", 0);
    }

    #[test]
    fn sweep_results_do_not_depend_on_thread_width() {
        use crate::industrial::{run_industrial_sweep, IndustrialParams, SystemKind};
        // Whole simulations per job, so paths interned on one worker thread
        // are read back on another.
        let sweep = |width| {
            let runs = [
                (SystemKind::Lambda, 1u64),
                (SystemKind::Hops, 2),
                (SystemKind::HopsCache, 3),
                (SystemKind::Ceph, 4),
                (SystemKind::Lambda, 5),
            ];
            let params = |seed| IndustrialParams::spotify(25_000.0, 200.0, seed);
            format!("{:?}", run_industrial_sweep(width, runs.map(|(kind, seed)| (kind, params(seed)))))
        };
        assert_eq!(sweep(1), sweep(4));
    }
}
