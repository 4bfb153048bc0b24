//! # lambda-bench
//!
//! The experiment harness that regenerates **every table and figure** of
//! the λFS evaluation through one binary: `lfsfig <figure> [flags]`
//! reproduces one figure/table, `lfsfig list` names them. The table in
//! `src/lfsfig/main.rs` is the only list of figures (name, what it
//! reproduces, the flags it takes); `DESIGN.md` §4 maps them to the paper,
//! and `EXPERIMENTS.md` records paper-vs-measured numbers.
//!
//! Every figure takes `--scale=N` (default 5): load, resources, and store
//! capacity shrink together by `N`, preserving the figures' *shapes*
//! while keeping run times laptop-friendly. `--scale=1` is the paper's
//! experiment, sweeps and op counts included; `--seed=N` changes the
//! deterministic seed, `--threads=N` the sweep width. Any other flag must
//! be one the figure declares ([`report::Args`]); a misspelt one exits 2
//! before anything runs. A figure's record is its stdout, which
//! `scripts/run_figs.sh` keeps as `results/<figure>.txt`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod industrial;
pub mod loc;
pub mod micro_exp;
pub mod report;
pub mod subtree_exp;
pub mod tree_exp;

pub use industrial::{
    cost_normalized_vcpus, lambda_config, run_industrial, run_industrial_sweep, IndustrialParams,
    IndustrialReport, SystemKind,
};
pub use micro_exp::{print_scaling_sweep, run_micro_point, MicroParams, MicroPoint, MICRO_OPS};
pub use report::{
    fmt_ms, fmt_ops, print_series, print_table, run_parallel, run_parallel_ops, Args,
};
pub use subtree_exp::{run_subtree_mv, SubtreeMvResult};
pub use tree_exp::{run_tree_point, TreePoint, TreeSystem};
