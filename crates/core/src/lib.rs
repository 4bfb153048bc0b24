//! # lambda-fs
//!
//! λFS: a scalable, elastic distributed-file-system metadata service built
//! on serverless functions — the core library of this
//! [ASPLOS '23 paper](https://doi.org/10.1145/3623278.3624765)
//! reproduction.
//!
//! λFS replaces the serverful NameNode tier of a HopsFS-style DFS with a
//! fleet of serverless functions whose collective memory forms an
//! **elastic metadata cache** in front of a persistent, strongly
//! consistent metadata store:
//!
//! * the namespace is partitioned over `n` function **deployments** by
//!   consistently hashing each file's parent directory (§3.1/§3.3);
//! * clients use a **hybrid TCP/HTTP RPC** scheme: fast direct TCP once
//!   connections exist, HTTP through the FaaS gateway otherwise — and a
//!   ≤ 1 % random HTTP replacement keeps the platform's **auto-scaling**
//!   responsive (§3.2/§3.4);
//! * a **serverless coherence protocol** (INV/ACK through a Coordinator,
//!   under the store's exclusive row locks) keeps the arbitrary, dynamic
//!   set of cached replicas strongly consistent (§3.5);
//! * **subtree operations** run the three-phase HopsFS protocol with a
//!   single prefix invalidation, sent by the root step under its locks
//!   (Appendix D); **straggler mitigation** and **anti-thrashing** guard
//!   the tail (Appendices B–C).
//!
//! Build a whole system with [`LambdaFs::build`]; drive it with
//! [`LambdaFs::submit`] or through the [`DfsService`] trait the workload
//! generators use.
//!
//! ```
//! use lambda_fs::{LambdaFs, LambdaFsConfig};
//! use lambda_namespace::FsOp;
//! use lambda_sim::{Sim, SimDuration};
//!
//! let mut sim = Sim::new(1);
//! let fs = LambdaFs::build(&mut sim, LambdaFsConfig {
//!     deployments: 4,
//!     clients: 8,
//!     ..Default::default()
//! });
//! fs.start(&mut sim);
//! fs.submit(&mut sim, 0, FsOp::Mkdir("/w".parse().unwrap()), Box::new(|_s, r| {
//!     assert!(r.is_ok());
//! }));
//! sim.run_for(SimDuration::from_secs(30));
//! fs.stop(&mut sim);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod client;
mod coherence;
mod config;
mod fsops;
mod messages;
mod metrics;
mod namenode;
mod result_cache;
mod service;
mod subtree;
mod system;

pub use audit::AuditReport;
pub use client::ClientLib;
pub use coherence::{deployment_group, CoordCoherence};
pub use config::LambdaFsConfig;
pub use fsops::{CoherenceHook, InvalidationSet, OpDone, OpEngine, RoundDone, SubtreeSettings};
pub use messages::{ClientId, CoherenceMsg, NnRequest, NnResponse, RequestId};
pub use metrics::RunMetrics;
pub use namenode::{NameNode, NnServices};
pub use result_cache::ResultCache;
pub use service::DfsService;
pub use system::LambdaFs;
