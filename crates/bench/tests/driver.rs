//! The `lfsfig` driver end to end (debug build, seconds): figure lookup,
//! flag checking before anything runs, and that every figure name the
//! scripts and goldens use is one the driver registers.

use std::path::Path;
use std::process::Command;

/// Runs `lfsfig args…`; returns (exit code, stdout, stderr).
fn lfsfig(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lfsfig")).args(args).output().expect("spawn lfsfig");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

fn registered() -> Vec<String> {
    let (code, stdout, _) = lfsfig(&["list"]);
    assert_eq!(code, Some(0));
    stdout.lines().map(str::to_owned).collect()
}

#[test]
fn list_names_the_eighteen_figures() {
    let names = registered();
    assert_eq!(names.len(), 18, "{names:?}");
    for name in ["tab01_loc", "fig08d_million_scale", "fig15b_chaos", "bench_store"] {
        assert_eq!(names.iter().filter(|n| *n == name).count(), 1, "{name} in {names:?}");
    }
}

#[test]
fn a_figure_runs_and_an_unknown_one_lists_the_rest() {
    let (code, stdout, stderr) = lfsfig(&["tab01_loc"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("TOTAL"));

    let (code, stdout, stderr) = lfsfig(&["fig10_latency_cdf"]);
    assert_eq!((code, stdout.as_str()), (Some(2), ""));
    for name in registered() {
        assert!(stderr.contains(&name), "usage omits {name}");
    }
}

#[test]
fn bad_flags_exit_2_before_anything_runs() {
    let common = "--scale= --seed= --threads=";
    for (args, message) in [
        (["fig10_latency_cdfs", "--sead=1"], format!("unknown flag --sead=1 (accepted: {common})")),
        (["fig15b_chaos", "--durabel"], format!("unknown flag --durabel (accepted: {common} --smoke --durable)")),
        (["fig10_latency_cdfs", "--seed=1O"], "bad value for --seed: 1O".to_string()),
        (["fig10_latency_cdfs", "--full"], format!("unknown flag --full (accepted: {common})")),
        (["bench_store", "--rows=5"], format!("unknown flag --rows=5 (accepted: {common} --smoke)")),
    ] {
        let (code, stdout, stderr) = lfsfig(&args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stderr.contains(&message), "{args:?}: {stderr}");
        assert_eq!(stdout, "", "{args:?} printed a figure");
    }
}

/// fig08d's record is heap bytes: without the counting allocator it would
/// print zeros, so it refuses before building anything.
#[test]
#[cfg(not(feature = "alloc-stats"))]
fn fig08d_refuses_to_run_without_the_counting_allocator() {
    let (code, stdout, stderr) = lfsfig(&["fig08d_million_scale", "--smoke"]);
    assert_eq!((code, stdout.as_str()), (Some(2), ""));
    assert!(stderr.contains("--features alloc-stats"), "{stderr}");
}

/// A rename must not leave a script or a golden pointing at nothing.
#[test]
fn scripts_and_goldens_name_registered_figures() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);

    // run_figs.sh: the words of its default list, `set -- a b \` … up to `fi`.
    let run_figs = read("scripts/run_figs.sh");
    let list = run_figs.split_once("set -- ").expect("default list").1;
    let list = list.split_once("\nfi").expect("end of default list").0;
    let mut used: Vec<String> =
        list.split_whitespace().filter(|w| *w != "\\").map(str::to_owned).collect();
    assert!(used.len() >= 14, "run_figs.sh default list not found: {used:?}");

    // verify.sh: the word after `lfsfig` or `golden_check` on a command line,
    // and the two after `golden_check_as`: a golden, then its figure.
    let verify = read("scripts/verify.sh");
    let words_after = |marker: &'static str| {
        verify
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .filter_map(move |l| l.split_once(marker))
            .map(|(_, rest)| rest.split_whitespace().collect::<Vec<_>>())
            .filter(|words| words[0].starts_with(|c: char| c.is_ascii_alphabetic()))
    };
    let before = used.len();
    for marker in ["target/release/lfsfig ", "golden_check "] {
        used.extend(words_after(marker).map(|words| words[0].to_owned()));
    }
    let mut goldens_of_variants = Vec::new();
    for words in words_after("golden_check_as ") {
        goldens_of_variants.push(words[0].to_owned());
        used.push(words[1].to_owned());
    }
    assert!(used.len() >= before + 8, "verify.sh figure runs not found: {:?}", &used[before..]);

    // Goldens that verify.sh compares by their path rather than through a
    // figure run (the benchmark smoke's fingerprints).
    goldens_of_variants.extend(
        verify
            .lines()
            .filter(|l| !l.trim_start().starts_with('#'))
            .flat_map(str::split_whitespace)
            .filter_map(|w| w.strip_prefix("results/golden/")?.strip_suffix(".txt"))
            .map(str::to_owned),
    );

    // A golden is named after its figure, or is the golden of a variant
    // run or a direct comparison that verify.sh checks.
    let mut stems = Vec::new();
    for entry in std::fs::read_dir(root.join("results/golden")).expect("results/golden") {
        let path = entry.expect("dir entry").path();
        stems.push(path.file_stem().expect("stem").to_string_lossy().into_owned());
    }
    for golden in &goldens_of_variants {
        assert!(stems.contains(golden), "verify.sh checks a missing golden {golden}");
    }
    used.extend(stems.into_iter().filter(|stem| !goldens_of_variants.contains(stem)));
    let names = registered();
    for name in used {
        assert!(names.contains(&name), "{name} is not a figure `lfsfig list` prints");
    }
}
