//! # lambda-sim
//!
//! Deterministic discrete-event simulation (DES) substrate for the
//! [λFS (ASPLOS '23)](https://doi.org/10.1145/3623278.3624765) reproduction.
//!
//! The original system runs across AWS: EC2 client VMs, an OpenWhisk
//! cluster, a MySQL Cluster NDB deployment, and ZooKeeper. This crate
//! replaces that distributed environment with a single-threaded,
//! reproducible virtual-time engine on which the *real* protocol
//! implementations (metadata caching, coherence, auto-scaling, transactions)
//! execute under a calibrated performance model.
//!
//! ## What lives here
//!
//! * [`Sim`] — the event engine: virtual clock, FIFO-stable event queue,
//!   seeded RNG ([`SimRng`]).
//! * [`Station`] — multi-server FIFO queueing stations modeling CPUs and
//!   storage shards; saturation and queueing delay emerge from these.
//! * [`LatencyRecorder`], [`Timeline`], [`GaugeSeries`] — the instruments
//!   behind every figure in the reproduced evaluation.
//! * [`CostMeter`], [`LambdaPricing`], [`VmPricing`] — the two pricing
//!   models of §5.2.5 / Fig. 9.
//! * [`params`] — every shared calibration constant, in one auditable
//!   place.
//! * [`Slab`] — generation-tagged records behind `Copy` [`SlabKey`]s, for
//!   state that scheduled callbacks refer to after it may be gone.
//!
//! ## Example
//!
//! ```
//! use lambda_sim::{Sim, SimDuration, Station};
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let mut sim = Sim::new(42);
//! let cpu = Station::new("namenode-cpu", 4);
//! let served = Rc::new(Cell::new(0u64));
//!
//! for _ in 0..100 {
//!     let served = Rc::clone(&served);
//!     let service = SimDuration::from_micros(sim.rng().gen_range(100..200));
//!     Station::submit(&cpu, &mut sim, service, move |_| {
//!         served.set(served.get() + 1);
//!     });
//! }
//! sim.run();
//! assert_eq!(served.get(), 100);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod engine;
pub mod fault;
mod metrics;
pub mod params;
mod rng;
mod slab;
mod station;
mod time;
mod wheel;

pub use cost::{CostMeter, LambdaPricing, VmPricing};
pub use engine::{every, Event, Sim};
pub use fault::{
    ColdStartStorm, FaultInjector, FaultPlan, FaultWindow, KillBurst, NetDecision, NetFault,
    NetFaultKind, Partition, ShardOutage,
};
pub use metrics::{GaugeSeries, LatencyRecorder, Timeline};
pub use rng::{Dist, SimRng};
pub use slab::{Slab, SlabKey};
pub use station::{Station, StationRef, StationStats};
pub use time::{SimDuration, SimTime};
