//! `lfsfig <figure> [flags]`: the one driver behind every table and figure
//! of the evaluation. `lfsfig list` prints the figure names.

#![forbid(unsafe_code)]

use lambda_bench::report::{flag_list, Args, COMMON_FLAGS};

// With `--features alloc-stats` the counting allocator is live (fig08d's
// byte columns; fig08d refuses to run without it), which also turns on its
// huge-page advice for the arena tables — the configuration the recorded
// fig08d numbers run under, so bench_store's engine comparison matches it
// (`scripts/run_figs.sh` regenerates both on that build). Its counters are
// process-wide atomics that slow a two-thread figure sweep 1.6×: off by
// default.
#[cfg(feature = "alloc-stats")]
#[global_allocator]
static COUNTING_ALLOC: lambda_allocstats::CountingAlloc = lambda_allocstats::CountingAlloc;

/// One row of the figure table.
struct Figure {
    name: &'static str,
    reproduces: &'static str,
    /// Flags accepted beyond [`COMMON_FLAGS`], spelt the same way.
    flags: &'static [&'static str],
    run: fn(&Args),
}

/// Declares each figure's module and its row of [`FIGURES`] from one list.
macro_rules! figures {
    ($($name:ident: $reproduces:literal, $flags:expr;)*) => {
        $(mod $name;)*
        const FIGURES: &[Figure] = &[$(Figure {
            name: stringify!($name),
            reproduces: $reproduces,
            flags: &$flags,
            run: $name::run,
        }),*];
    };
}

mod closed_loop;

figures! {
    tab01_loc: "Table 1 (implementation inventory)", [];
    fig08a_industrial_25k: "Fig. 8(a) + Table 2", [];
    fig08b_industrial_50k: "Fig. 8(b)", [];
    fig08c_perf_per_cost: "Fig. 8(c)", [];
    fig08d_million_scale: "beyond-paper: memory footprint at 25k-1M clients, 10M+ inodes", ["smoke"];
    fig09_cumulative_cost: "Fig. 9", [];
    fig10_latency_cdfs: "Fig. 10", [];
    fig11_client_scaling: "Fig. 11", [];
    fig12_resource_scaling: "Fig. 12", [];
    fig13_perf_per_cost_micro: "Fig. 13", [];
    fig14_autoscaling_ablation: "Fig. 14", [];
    tab03_subtree_mv: "Table 3", [];
    fig15_fault_tolerance: "Fig. 15", [];
    fig15b_chaos: "beyond-paper: deterministic chaos + invariant audit", ["smoke", "durable"];
    fig15c_durability: "beyond-paper: flush interval x crash rate on the durable backend", ["smoke"];
    fig16_indexfs: "Fig. 16", [];
    ablation_knobs: "beyond-paper: design-choice ablations", [];
    bench_store: "beyond-paper: store engines (arena B+ tree, std BTreeMap, id-addressed pages)", ["smoke"];
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    if name == "list" {
        FIGURES.iter().for_each(|f| println!("{}", f.name));
        return;
    }
    let Some(figure) = FIGURES.iter().find(|f| f.name == name) else {
        eprintln!("unknown figure {name:?}\nusage: lfsfig <figure> [--flag …] | lfsfig list");
        eprintln!("every figure takes: {}", flag_list(&COMMON_FLAGS));
        for f in FIGURES {
            let row = format!("  {:<27} {}  {}", f.name, f.reproduces, flag_list(f.flags));
            eprintln!("{}", row.trim_end());
        }
        std::process::exit(2)
    };
    let args = Args::parse(argv.collect(), figure.flags).unwrap_or_else(|msg| {
        eprintln!("{name}: {msg}");
        std::process::exit(2)
    });
    (figure.run)(&args);
}

#[cfg(test)]
mod tests {
    use lambda_bench::MicroParams;
    use lambda_namespace::OpClass;

    use super::{fig11_client_scaling, fig14_autoscaling_ablation};

    /// `--scale=1` is the paper's experiment; any other scale the reduced one.
    #[test]
    fn scale_1_selects_the_paper_sweeps() {
        let ops = |scale| MicroParams::paper(OpClass::Read, 8, scale, 7).ops_per_client;
        assert_eq!((ops(1.0), ops(5.0)), (3072, 512));
        assert_eq!(fig14_autoscaling_ablation::clients(1.0), 1024);
        for scale in [2.0, 5.0, 50.0] {
            let reduced = ((1024.0 / scale * 2.5) as u32).max(64);
            assert_eq!(fig14_autoscaling_ablation::clients(scale), reduced);
        }
        assert_eq!(fig11_client_scaling::clients(1.0).last(), Some(&1024));
        assert_eq!(fig11_client_scaling::clients(5.0).last(), Some(&256));
    }
}
