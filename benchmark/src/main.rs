//! `lfsbench`: the repository's standalone benchmark. See README.md.
//!
//! ```text
//! lfsbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lfsbench --smoke [--seed <n>]
//! lfsbench compare <a> <b>
//! ```
//!
//! The process started with these arguments only orchestrates: every
//! repetition runs in a process of its own (`lfsbench rep …`, see
//! `rep.rs`), the traced one in the sibling `lfsbench-traced` binary.

mod checks;
mod compare;
mod json;
mod layers;
mod probes;
mod rep;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use json::{obj, Json};
use layers::{sanity_warnings, MetricList};
use rep::{RepDoc, SMOKE_SHRINK};
use report::{Clock, Measured, END_TO_END};
use stats::{median, Summary};
use workloads::Workload;

/// The traced build counts every allocation; end-to-end numbers come from
/// the build without it.
#[cfg(feature = "trace")]
#[global_allocator]
static COUNTING_ALLOC: lambda_allocstats::CountingAlloc = lambda_allocstats::CountingAlloc;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = match inline {
            Some(v) => v,
            None => it
                .next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))?,
        };
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag {
            "--workload" => {
                args.workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of {})", names.join(", "))
                })?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(0.0..=3600.0).contains(&args.seconds) {
                    return Err(bad("between 0 and 3600"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(args)
}

/// Runs one repetition in a process of its own and waits for it.
/// `binary` is `lfsbench` or `lfsbench-traced`, next to this executable.
fn spawn_repetition(binary: &str, w: Workload, seed: u64, smoke: bool) -> Result<RepDoc, String> {
    let exe = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name(binary);
    let mut command = Command::new(&exe);
    command.args(["rep", w.name(), &seed.to_string()]);
    if smoke {
        command.arg("--smoke");
    }
    let out = command
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "{} rep {} ended with {}: {}",
            exe.display(),
            w.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let line = stdout.lines().last().ok_or("repetition printed nothing")?;
    RepDoc::from_json(&Json::parse(line)?)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Host, commit and toolchain: a number counts only with these beside it.
fn ledger(w: Workload, args: &Args, reps: usize) -> Json {
    obj([
        ("workload", w.name().into()),
        ("seed", args.seed.into()),
        ("seconds", args.seconds.into()),
        ("reps", (reps as u64).into()),
        ("traced", args.trace.into()),
        ("smoke", args.smoke.into()),
        (
            "nproc",
            (std::thread::available_parallelism().map_or(0, |n| n.get()) as u64).into(),
        ),
        (
            "commit",
            command_line("git", &["rev-parse", "--short", "HEAD"]).into(),
        ),
        ("rustc", command_line("rustc", &["-V"]).into()),
    ])
}

fn write_file(dir: &Path, name: &str, doc: &Json) {
    if dir.as_os_str().is_empty() {
        return;
    }
    let path = dir.join(name);
    let result = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, doc.to_pretty()));
    match result {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

fn print_table(title: &str, rows: &[(String, String)]) {
    println!("\n{title}");
    let width = rows.iter().map(|(k, _)| k.len()).max().unwrap_or(0);
    for (k, v) in rows {
        println!("  {k:<width$}  {v}");
    }
}

/// The seed of repetition `index`: repetition 0 runs `--seed` itself, the
/// others seeds derived from it, so that simulated metrics are medians over
/// independent samples and not one sample measured several times.
fn repetition_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add(1_000_003u64.wrapping_mul(index as u64))
}

/// Host seconds the timed window of one full-size repetition is sized to
/// on the reference host (2 cores, 2.1 GHz), whatever the workload.
const NOMINAL_WINDOW_S: f64 = 5.0;

/// How many repetitions fill `--seconds`. The count follows from the
/// sizing and not from the clock, so that a fast and a slow host — or one
/// host on two days — run the same seeds and count the same operations.
fn repetition_count(seconds: f64) -> usize {
    (seconds / NOMINAL_WINDOW_S).round().max(1.0) as usize
}

/// The repetitions of one invocation. A traced invocation is one untraced
/// reference repetition and one traced repetition, both of `--seed`; any
/// other runs [`repetition_count`] of them (`--smoke` runs one).
fn repetitions(w: Workload, args: &Args) -> Result<(Vec<RepDoc>, Option<RepDoc>), String> {
    if args.trace {
        let reference = spawn_repetition("lfsbench", w, args.seed, args.smoke)?;
        let traced = spawn_repetition("lfsbench-traced", w, args.seed, args.smoke)?;
        return Ok((vec![traced], Some(reference)));
    }
    let count = if args.smoke {
        1
    } else {
        repetition_count(args.seconds)
    };
    let reps = (0..count)
        .map(|i| spawn_repetition("lfsbench", w, repetition_seed(args.seed, i), args.smoke))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((reps, None))
}

/// Runs one workload as the contract asks and prints the result line.
/// Returns whether every correctness check held.
fn run_workload(w: Workload, args: &Args) -> Result<bool, String> {
    let (mut reps, reference) = repetitions(w, args)?;
    let mut violations: Vec<String> = reps
        .iter()
        .flat_map(|r| r.violations.iter().cloned())
        .collect();
    if let Some(reference) = &reference {
        violations.extend(reference.violations.iter().cloned());
        let traced = reps.last_mut().expect("the traced repetition");
        if !traced.traced {
            violations.push("lfsbench-traced was built without the `trace` feature".to_string());
        }
        // Same seed, two builds: a deterministic simulator must agree.
        if traced.fingerprint != reference.fingerprint {
            violations.push(
                "traced and untraced runs of one seed simulated different things".to_string(),
            );
        }
        let overhead = reference.host_ops_per_s() / traced.host_ops_per_s() - 1.0;
        for m in traced
            .layers
            .iter_mut()
            .filter(|m| m.name == "trace.overhead_share")
        {
            (m.value, m.defined) = (overhead, true);
        }
    }
    let correct = violations.is_empty();
    // Per-layer numbers are those of `--seed` itself, so a traced and an
    // untraced invocation of one seed report the same counts.
    let layers = MetricList(reps[0].layers.clone());
    let mut fingerprint = report::Fingerprint::new();
    for r in &reps {
        fingerprint.u64(u64::from_str_radix(&r.fingerprint, 16).unwrap_or(0));
    }
    let fingerprint = format!("{:016x}", fingerprint.finish());

    let measured: Vec<Measured> = END_TO_END
        .iter()
        .map(|def| {
            let values: Vec<f64> = reps
                .iter()
                .map(|r| match def.name {
                    "setup_s" => r.setup_s,
                    "host_ops_per_s" => r.host_ops_per_s(),
                    "host_peak_rss_mb" => r.peak_rss_mb,
                    sim => {
                        r.sim
                            .iter()
                            .find(|(name, _)| name == sim)
                            .unwrap_or_else(|| panic!("end-to-end metric {sim} has no measurement"))
                            .1
                    }
                })
                .collect();
            Measured {
                def,
                value: median(&values),
                spread: Summary::of(&values),
            }
        })
        .collect();
    let warnings = sanity_warnings(&layers);
    let sum = |f: &dyn Fn(&RepDoc) -> u64| reps.iter().map(f).sum::<u64>();
    let attempted = sum(&|r| r.generated);
    let failed = attempted - sum(&|r| r.succeeded);

    // Human-readable report, then the documents, then the result line.
    let ledger = ledger(w, args, reps.len());
    println!("ledger: {}", ledger.to_line());
    print_table(
        &format!(
            "end to end — {} (seed {}, median of {} repetitions)",
            w.name(),
            args.seed,
            reps.len()
        ),
        &measured
            .iter()
            .map(|m| {
                let s = &m.spread;
                let clock = if m.def.clock == Clock::Sim {
                    "sim"
                } else {
                    "host"
                };
                (
                    m.def.name.to_string(),
                    format!(
                        "{:.6} {} ({clock})  [q1 {:.6} q3 {:.6} min {:.6} max {:.6}]",
                        m.value, m.def.unit, s.q1, s.q3, s.min, s.max
                    ),
                )
            })
            .collect::<Vec<_>>(),
    );
    print_table(
        &format!(
            "per layer (window deltas of the repetition of seed {})",
            args.seed
        ),
        &layers
            .0
            .iter()
            .map(|m| {
                let value = if m.defined {
                    format!("{:.6} {}", m.value, m.unit)
                } else {
                    "—".to_string()
                };
                (m.name.clone(), value)
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\noperations: generated {attempted} submitted {} succeeded {} failed {failed}; {} succeeded \
         at the first call into the client library, the rest after recovery (library calls ended \
         in: timeout {}, retries exhausted {}, ambiguous reply {}); simulated {:.1} s; \
         sim_fingerprint {fingerprint}",
        sum(&|r| r.submitted),
        sum(&|r| r.succeeded),
        sum(&|r| r.first_try),
        sum(&|r| r.timeouts),
        sum(&|r| r.retries_exhausted),
        sum(&|r| r.ambiguous_replies),
        reps.iter().map(|r| r.sim_secs).sum::<f64>(),
    );
    for warning in &warnings {
        println!("warning: {warning}");
    }
    for violation in &violations {
        println!("VIOLATION: {violation}");
    }

    let doc = obj([
        ("ledger", ledger),
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("sim_fingerprint", fingerprint.as_str().into()),
        (
            "end_to_end",
            Json::Obj(
                measured
                    .iter()
                    .map(|m| (m.def.name.to_string(), m.to_json()))
                    .collect(),
            ),
        ),
        ("per_layer", report::layers_to_json(&layers)),
        (
            "warnings",
            Json::Arr(warnings.iter().map(|w| w.as_str().into()).collect()),
        ),
        (
            "violations",
            Json::Arr(violations.iter().map(|v| v.as_str().into()).collect()),
        ),
    ]);
    let kind = if args.trace { "traced" } else { "result" };
    write_file(&args.out, &format!("{kind}_{}.json", w.name()), &doc);
    if args.trace {
        write_file(
            &args.out,
            &format!("trace_{}.json", w.name()),
            &reps[0].trace,
        );
    }

    let metrics = if args.trace {
        report::metrics_line(
            layers
                .0
                .iter()
                .map(|m| (m.name.as_str(), m.value, m.unit.as_str())),
        )
    } else {
        report::metrics_line(measured.iter().map(|m| (m.def.name, m.value, m.def.unit)))
    };
    let line = obj([
        ("correct", correct.into()),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        ("metrics", metrics),
    ]);
    println!("{}", line.to_line());
    Ok(correct)
}

/// `lfsbench rep <workload> <seed> [--smoke]`: the body of a repetition
/// process. Prints the repetition's document as its last line.
fn repetition_main(argv: &[String]) -> ExitCode {
    let parsed = match argv {
        [w, seed, rest @ ..] if rest.iter().all(|a| a == "--smoke") => Workload::from_name(w)
            .zip(seed.parse::<u64>().ok())
            .map(|(w, s)| (w, s, !rest.is_empty())),
        _ => None,
    };
    let Some((w, seed, smoke)) = parsed else {
        eprintln!("usage: lfsbench rep <workload> <seed> [--smoke]");
        return ExitCode::from(2);
    };
    let shrink = if smoke { SMOKE_SHRINK } else { 1.0 };
    // Smoke runs hold the linear checks to the repository's own audit.
    let doc = rep::repetition_process(w, seed, shrink, smoke && w.small_namespace());
    println!("{}", doc.to_json().to_line());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("rep") => return repetition_main(&argv[1..]),
        Some("compare") => {
            return match argv.as_slice() {
                [_, a, b] => compare::run(Path::new(a), Path::new(b)),
                _ => {
                    eprintln!("usage: lfsbench compare <result file or directory> <the same>");
                    ExitCode::from(2)
                }
            }
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lfsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<Workload> = match (args.workload, args.smoke) {
        (Some(w), _) => vec![w],
        (None, true) => Workload::ALL.to_vec(),
        (None, false) => {
            eprintln!("lfsbench: --workload is required (or --smoke for all four at 1/20 size)");
            return ExitCode::from(2);
        }
    };
    let mut all_correct = true;
    for w in workloads {
        match run_workload(w, &args) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("lfsbench: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::Tracer;

    #[test]
    fn arguments_follow_the_contract() {
        let argv = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload tree_10m --seed 9 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace, a.smoke),
            (Some(Workload::Tree10m), 9, 12.0, true, false)
        );
        let b = parse_args(&argv("--smoke --seed=3 --trace=0")).unwrap();
        assert_eq!(
            (b.workload, b.seed, b.trace, b.smoke),
            (None, 3, false, true)
        );
        assert_eq!([0.0, 4.0, 15.0, 60.0].map(repetition_count), [1, 1, 3, 12]);
        for bad in [
            "--workload nope",
            "--seed x",
            "--trace 2",
            "--seconds -1",
            "--frobnicate 1",
            "--seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} accepted");
        }
    }

    /// BENCHMARK.json is what the driver reads; the binary is what prints.
    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_prints() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("BENCHMARK.json has no array `{key}`"),
        };
        let text = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string()
        };

        let workloads: Vec<String> = list("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_string()));

        let declared: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let printed: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    better.to_string(),
                    m.bound,
                )
            })
            .collect();
        assert_eq!(declared, printed);

        let rep = rep::run_rep(Workload::WriteMix, 1, 256.0, false, &mut Tracer::new());
        let simulated: Vec<&str> = rep.sim.iter().map(|(name, _)| name.as_str()).collect();
        let declared_sim: Vec<&str> = END_TO_END
            .iter()
            .filter(|m| m.clock == Clock::Sim)
            .map(|m| m.name)
            .collect();
        assert_eq!(simulated, declared_sim);
        let declared: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        let printed: Vec<(String, String)> = rep
            .layers
            .0
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect();
        assert_eq!(declared, printed);
        assert!(printed.len() <= 128);
        for item in list("per_layer") {
            assert!(
                matches!(text(&item, "better").as_str(), "higher" | "lower"),
                "{item:?}"
            );
        }
    }
}
