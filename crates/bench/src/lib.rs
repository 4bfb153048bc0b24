//! # lambda-bench
//!
//! The experiment harness that regenerates **every table and figure** of
//! the λFS evaluation. Each binary under `src/bin/` reproduces one
//! figure/table; `DESIGN.md` maps them (the experiment index), and
//! `EXPERIMENTS.md` records paper-vs-measured numbers.
//!
//! All binaries take `--scale=N` (default 5): load, resources, and store
//! capacity shrink together by `N`, preserving the figures' *shapes*
//! while keeping run times laptop-friendly. `--full` runs at the paper's
//! scale. `--seed=N` changes the deterministic seed.
//!
//! | Binary | Reproduces |
//! |---|---|
//! | `tab01_loc` | Table 1 (implementation inventory) |
//! | `fig08a_industrial_25k` | Fig. 8(a) + Table 2 |
//! | `fig08b_industrial_50k` | Fig. 8(b) |
//! | `fig08c_perf_per_cost` | Fig. 8(c) |
//! | `fig08d_million_scale` | beyond-paper: memory footprint at 25k–1M clients, 10M+ inodes |
//! | `fig09_cumulative_cost` | Fig. 9 |
//! | `fig10_latency_cdfs` | Fig. 10 |
//! | `fig11_client_scaling` | Fig. 11 |
//! | `fig12_resource_scaling` | Fig. 12 |
//! | `fig13_perf_per_cost_micro` | Fig. 13 |
//! | `fig14_autoscaling_ablation` | Fig. 14 |
//! | `tab03_subtree_mv` | Table 3 |
//! | `fig15_fault_tolerance` | Fig. 15 |
//! | `fig15b_chaos` | beyond-paper: deterministic chaos + invariant audit |
//! | `fig16_indexfs` | Fig. 16 |
//! | `ablation_knobs` | beyond-paper design-choice ablations |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod industrial;
pub mod loc;
pub mod micro_exp;
pub mod report;
pub mod subtree_exp;
pub mod tree_exp;

pub use industrial::{
    cost_normalized_vcpus, lambda_config, run_industrial, IndustrialParams, IndustrialReport,
    SystemKind,
};
pub use micro_exp::{run_micro_point, MicroParams, MicroPoint, MICRO_OPS};
pub use report::{
    arg_f64, arg_flag, arg_u64, arg_usize, bench_threads, fmt_ms, fmt_ops, host_cores,
    print_series, print_table, run_parallel, run_parallel_ops, scale_from_args, write_json,
};
pub use subtree_exp::{run_subtree_mv, SubtreeMvResult};
pub use tree_exp::{run_tree_point, TreePoint, TreeSystem};
