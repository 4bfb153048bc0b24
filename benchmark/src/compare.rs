//! `lfsbench compare <a> <b>`: judges run `b` against run `a` with each
//! end-to-end metric's own bound.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::json::Json;
use crate::layers::is_host_clock;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Better,
    Worse,
    /// The runs' own spread, or a difference in what was simulated, is too
    /// large for the bound to decide.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub value: f64,
    /// Interquartile range of the repetitions as a share of their median
    /// (0 for single readings).
    pub spread: f64,
}

/// `b` against `a`: beyond the bound in the bad direction is `worse`, in
/// the good direction `better`; inside it `same` — unless either side's
/// spread exceeds the bound or the two runs did not simulate the same
/// thing, in which case nothing can be concluded.
pub fn judge(
    a: Reading,
    b: Reading,
    higher_is_better: bool,
    bound: f64,
    same_simulation: bool,
) -> Verdict {
    if a.spread > bound || b.spread > bound {
        return Verdict::Unresolved;
    }
    let change = if a.value == 0.0 {
        0.0
    } else {
        (b.value - a.value) / a.value.abs()
    };
    let gain = if higher_is_better { change } else { -change };
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else if same_simulation {
        Verdict::Same
    } else {
        Verdict::Unresolved
    }
}

fn reading(metric: &Json) -> Option<Reading> {
    let value = metric.get("value")?.as_f64()?;
    let f = |key: &str| metric.get(key).and_then(Json::as_f64);
    let spread = match (f("q1"), f("q3")) {
        (Some(q1), Some(q3)) if value != 0.0 => (q3 - q1) / value.abs(),
        _ => 0.0,
    };
    Some(Reading { value, spread })
}

/// The result documents under `path`: the file itself, or every
/// `result_*.json` of a directory, sorted by name.
fn result_files(path: &Path) -> Result<Vec<PathBuf>, String> {
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files: Vec<PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("result_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    Ok(files)
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workload_of(doc: &Json) -> Option<&str> {
    doc.get("ledger")?.get("workload")?.as_str()
}

/// Compares two result documents of one workload, printing one row per
/// end-to-end metric. Returns the verdicts.
fn compare_docs(a: &Json, b: &Json) -> Vec<Verdict> {
    let workload = workload_of(a).unwrap_or("?");
    let fingerprint = |doc: &Json| {
        doc.get("sim_fingerprint")
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    let same_simulation = fingerprint(a).is_some() && fingerprint(a) == fingerprint(b);
    let mut verdicts = Vec::new();
    let empty = Json::Obj(vec![]);
    let metrics_a = a.get("end_to_end").unwrap_or(&empty);
    let metrics_b = b.get("end_to_end").unwrap_or(&empty);
    for (name, metric_a) in metrics_a.members() {
        let (Some(ra), Some(rb)) = (reading(metric_a), metrics_b.get(name).and_then(reading))
        else {
            println!("{workload:<16} {name:<18} missing on one side");
            verdicts.push(Verdict::Unresolved);
            continue;
        };
        let higher = metric_a.get("better").and_then(Json::as_str) == Some("higher");
        let bound = metric_a.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
        // The repetitions of a simulated metric differ by seed, not by
        // noise: when both sides simulated the same thing their medians
        // compare exactly, whatever the spread between sub-seeds.
        let exact = same_simulation && metric_a.get("clock").and_then(Json::as_str) == Some("sim");
        let noise = |r: Reading| Reading {
            spread: if exact { 0.0 } else { r.spread },
            ..r
        };
        let verdict = judge(noise(ra), noise(rb), higher, bound, same_simulation);
        let change = if ra.value == 0.0 {
            0.0
        } else {
            (rb.value - ra.value) / ra.value.abs()
        };
        println!(
            "{workload:<16} {name:<18} {:<10} {:>14.6} -> {:>14.6}  {:+8.3}%  bound {:.1}%  spread {:.1}%/{:.1}%",
            verdict.label(),
            ra.value,
            rb.value,
            change * 100.0,
            bound * 100.0,
            ra.spread * 100.0,
            rb.spread * 100.0,
        );
        verdicts.push(verdict);
    }
    // Simulated layer counts repeat exactly for a seed: list any that moved.
    let layers_a = a.get("per_layer").unwrap_or(&empty);
    let layers_b = b.get("per_layer").unwrap_or(&empty);
    let simulated: Vec<&(String, Json)> = layers_a
        .members()
        .iter()
        .filter(|(name, _)| !is_host_clock(name))
        .collect();
    let counted = simulated.len();
    let moved: Vec<&str> = simulated
        .into_iter()
        .filter(|(name, metric)| {
            layers_b.get(name).and_then(|m| m.get("value")) != metric.get("value")
        })
        .map(|(name, _)| name.as_str())
        .collect();
    println!(
        "{workload:<16} per-layer counts   {} of {counted} identical; sim_fingerprint {}{}",
        counted - moved.len(),
        if same_simulation {
            "identical"
        } else {
            "differs"
        },
        if moved.is_empty() {
            String::new()
        } else {
            format!("; moved: {}", moved.join(", "))
        },
    );
    verdicts
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let outcome = (|| -> Result<Vec<Verdict>, String> {
        let (files_a, files_b) = (result_files(a)?, result_files(b)?);
        let docs_b: Vec<Json> = files_b.iter().map(|p| load(p)).collect::<Result<_, _>>()?;
        let mut verdicts = Vec::new();
        for file in &files_a {
            let doc_a = load(file)?;
            let workload = workload_of(&doc_a)
                .ok_or_else(|| format!("{}: no ledger.workload", file.display()))?;
            match docs_b.iter().find(|d| workload_of(d) == Some(workload)) {
                Some(doc_b) => verdicts.extend(compare_docs(&doc_a, doc_b)),
                None => return Err(format!("{}: no result for {workload}", b.display())),
            }
        }
        if verdicts.is_empty() {
            return Err("nothing to compare".to_string());
        }
        Ok(verdicts)
    })();
    match outcome {
        Ok(verdicts) => {
            let count = |v: Verdict| verdicts.iter().filter(|x| **x == v).count();
            println!(
                "same {} better {} worse {} unresolved {}",
                count(Verdict::Same),
                count(Verdict::Better),
                count(Verdict::Worse),
                count(Verdict::Unresolved)
            );
            if count(Verdict::Worse) > 0 {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("lfsbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, spread: f64) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn direction_and_bound_decide_the_verdict() {
        // Lower is better, 10 % bound.
        assert_eq!(
            judge(r(100.0, 0.0), r(105.0, 0.0), false, 0.1, true),
            Verdict::Same
        );
        assert_eq!(
            judge(r(100.0, 0.0), r(111.0, 0.0), false, 0.1, true),
            Verdict::Worse
        );
        assert_eq!(
            judge(r(100.0, 0.0), r(85.0, 0.0), false, 0.1, true),
            Verdict::Better
        );
        // Higher is better flips it.
        assert_eq!(
            judge(r(100.0, 0.0), r(85.0, 0.0), true, 0.1, true),
            Verdict::Worse
        );
        assert_eq!(
            judge(r(100.0, 0.0), r(115.0, 0.0), true, 0.1, true),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_or_a_different_simulation_is_unresolved() {
        assert_eq!(
            judge(r(100.0, 0.2), r(150.0, 0.0), false, 0.1, true),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(r(100.0, 0.0), r(100.0, 0.11), false, 0.1, true),
            Verdict::Unresolved
        );
        // Inside the bound, `same` needs identical simulated results …
        assert_eq!(
            judge(r(100.0, 0.0), r(101.0, 0.0), false, 0.1, false),
            Verdict::Unresolved
        );
        // … but a change beyond the bound is reported either way.
        assert_eq!(
            judge(r(100.0, 0.0), r(120.0, 0.0), false, 0.1, false),
            Verdict::Worse
        );
    }

    #[test]
    fn readings_take_spread_from_quartiles() {
        let m = Json::parse(r#"{"value": 10, "q1": 9, "q3": 11}"#).unwrap();
        let got = reading(&m).unwrap();
        assert_eq!((got.value, got.spread), (10.0, 0.2));
        let single = Json::parse(r#"{"value": 3.5}"#).unwrap();
        assert_eq!(reading(&single).unwrap().spread, 0.0);
        assert!(reading(&Json::parse("{}").unwrap()).is_none());
    }
}
