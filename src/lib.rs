//! # lambdafs-repro
//!
//! A from-scratch Rust reproduction of **λFS** (Carver, Han, Zhang, Zheng,
//! Cheng — *λFS: A Scalable and Elastic Distributed File System Metadata
//! Service using Serverless Functions*, ASPLOS 2023).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`sim`] | deterministic discrete-event simulation substrate |
//! | [`store`] | sharded transactional metadata store (MySQL Cluster NDB analog) |
//! | [`lsm`] | LSM-tree storage engine (LevelDB analog) |
//! | [`coord`] | coordination service (ZooKeeper analog) |
//! | [`faas`] | serverless platform emulator (OpenWhisk analog) |
//! | [`namespace`] | paths, inodes, partitioner, metadata cache, DataNodes |
//! | [`fs`] | **λFS itself**: serverless NameNodes, hybrid RPC, coherence |
//! | [`baselines`] | HopsFS(+Cache), CephFS-style, InfiniCache-style, (λ)IndexFS |
//! | [`workload`] | the industrial workload, micro-benchmarks, tree-test |
//!
//! See `README.md` for a quickstart, `DESIGN.md` for the system inventory
//! and experiment index, and `EXPERIMENTS.md` for paper-vs-measured
//! results. Runnable entry points live in `examples/` and in one figure
//! driver, `lfsfig <figure>` (`crates/bench/src/lfsfig/`; `lfsfig list`
//! names every figure and table it reproduces).
//!
//! ```
//! use lambdafs_repro::fs::{LambdaFs, LambdaFsConfig};
//! use lambdafs_repro::namespace::FsOp;
//! use lambdafs_repro::sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(1);
//! let fs = LambdaFs::build(&mut sim, LambdaFsConfig {
//!     deployments: 4,
//!     clients: 8,
//!     ..Default::default()
//! });
//! fs.start(&mut sim);
//! fs.submit(&mut sim, 0, FsOp::Mkdir("/hello".parse().unwrap()), Box::new(|_s, r| {
//!     assert!(r.is_ok());
//! }));
//! sim.run_for(SimDuration::from_secs(30));
//! fs.stop(&mut sim);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lambda_baselines as baselines;
pub use lambda_coord as coord;
pub use lambda_faas as faas;
pub use lambda_fs as fs;
pub use lambda_lsm as lsm;
pub use lambda_namespace as namespace;
pub use lambda_sim as sim;
pub use lambda_store as store;
pub use lambda_workload as workload;
