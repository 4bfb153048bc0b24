//! Shared calibration constants.
//!
//! All performance-model constants that more than one system depends on live
//! here, in one place, so the calibration is auditable. Defaults reproduce
//! the magnitudes reported in the paper:
//!
//! * TCP RPC end-to-end ≈ 1–2 ms, HTTP (API-gateway) RPC ≈ 8–20 ms (§3.2);
//! * cold starts take "a non-negligible amount of time" — modeled ≈ 0.6–1.5 s;
//! * the NDB-backed metadata store saturates at tens of thousands of
//!   round-trip-bearing operations per second for a 4-data-node deployment
//!   (§5.2 reports HopsFS capping around 38–45 k ops/s with 512 NN vCPUs).

use crate::rng::Dist;
use crate::time::SimDuration;

/// Network latency model shared by λFS and all baselines.
#[derive(Debug, Clone, PartialEq)]
pub struct NetParams {
    /// One-way latency of a direct TCP hop between a client and a server
    /// (NameNode, MDS, …) inside one region/VPC.
    pub tcp_one_way: Dist,
    /// Extra end-to-end overhead of routing an invocation through the FaaS
    /// API gateway + invoker instead of a direct TCP hop.
    pub http_overhead: Dist,
    /// One-way latency to the Coordinator (ZooKeeper/NDB) for liveness and
    /// INV/ACK traffic.
    pub coord_one_way: Dist,
}

impl Default for NetParams {
    fn default() -> Self {
        NetParams {
            // TCP RPC end-to-end read latency is 1-2 ms in the paper; a read
            // is two hops plus service, so ~0.35-0.7 ms per hop.
            tcp_one_way: Dist::uniform_ms(0.35, 0.7),
            // HTTP RPCs are 8-20 ms end-to-end: gateway + invoker + routing.
            http_overhead: Dist::uniform_ms(6.5, 17.0),
            coord_one_way: Dist::uniform_ms(0.2, 0.45),
        }
    }
}

/// Service-time model for metadata work on a NameNode-class CPU.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuParams {
    /// CPU time to execute a cached (hit) read-class metadata op on one
    /// core.
    pub read_hit: Dist,
    /// CPU time for the NameNode-side portion of a miss/write op (excludes
    /// store round trips, which are charged separately).
    pub op_overhead: Dist,
    /// CPU time to serialize/deserialize and process one HTTP invocation
    /// (on top of the op itself).
    pub http_handling: Dist,
}

impl Default for CpuParams {
    fn default() -> Self {
        CpuParams {
            // ~0.5 ms of NameNode CPU per cached read: a 5-vCPU NameNode
            // then serves ≈ 10 k cached reads/sec, which is the per-NN
            // ceiling Figs. 11/14 imply (≈ 800 k reads/sec across ≈ 100
            // NameNodes at 512 vCPUs).
            read_hit: Dist::uniform_ms(0.25, 0.42),
            op_overhead: Dist::uniform_ms(0.08, 0.15),
            http_handling: Dist::uniform_ms(0.15, 0.35),
        }
    }
}

/// Capacity/service model for the persistent metadata store (the NDB
/// analog).
#[derive(Debug, Clone, PartialEq)]
pub struct StoreParams {
    /// Number of data shards (NDB data nodes). The evaluation used 4.
    pub shards: u32,
    /// Worker threads per shard able to execute row operations in parallel.
    pub workers_per_shard: u32,
    /// Service time of a primary-key row read on a shard worker.
    pub pk_read: Dist,
    /// Service time of a batched path-resolution read (one batch hits each
    /// involved shard once; HopsFS's INode-hint cache makes resolution one
    /// batch).
    pub batch_read: Dist,
    /// Incremental service time per additional row in a batch or scan.
    pub batch_row_extra: Dist,
    /// Service time of a row write (redo logging + replication included).
    pub row_write: Dist,
    /// Service time of taking-and-releasing a row write lock without
    /// modifying the row — the quiesce step of subtree operations
    /// (Appendix D, Phase 2).
    pub lock_round: Dist,
    /// Additional commit overhead per transaction.
    pub commit: Dist,
}

impl StoreParams {
    /// A store slowed down by `factor`: all service times multiplied, so
    /// total capacity divides by `factor`. Used to shrink experiments
    /// while preserving the load-to-capacity ratio (and therefore the
    /// figures' *shapes*).
    #[must_use]
    pub fn slowed(&self, factor: f64) -> StoreParams {
        StoreParams {
            shards: self.shards,
            workers_per_shard: self.workers_per_shard,
            pk_read: self.pk_read.scaled(factor),
            batch_read: self.batch_read.scaled(factor),
            batch_row_extra: self.batch_row_extra.scaled(factor),
            row_write: self.row_write.scaled(factor),
            lock_round: self.lock_round.scaled(factor),
            commit: self.commit.scaled(factor),
        }
    }
}

impl Default for StoreParams {
    fn default() -> Self {
        StoreParams {
            shards: 4,
            workers_per_shard: 10,
            // Calibrated so a 4-shard NDB saturates in the mid tens of
            // thousands of FS write ops/sec and low hundreds of thousands of
            // pk reads/sec, matching the ceilings visible in Figs. 8/11/12.
            pk_read: Dist::uniform_ms(0.10, 0.20),
            batch_read: Dist::uniform_ms(0.10, 0.20),
            batch_row_extra: Dist::uniform_ms(0.02, 0.04),
            row_write: Dist::uniform_ms(0.7, 1.2),
            lock_round: Dist::uniform_ms(0.6, 0.9),
            commit: Dist::uniform_ms(0.4, 0.7),
        }
    }
}

/// FaaS platform behavior constants (the OpenWhisk analog).
#[derive(Debug, Clone, PartialEq)]
pub struct FaasParams {
    /// Cold-start delay: container provisioning + JVM/NameNode boot.
    pub cold_start: Dist,
    /// Idle time after which a warm instance is reclaimed (scale-in).
    pub idle_reclaim_after: SimDuration,
    /// Interval at which the platform re-evaluates reclamation.
    pub reclaim_scan_every: SimDuration,
}

impl Default for FaasParams {
    fn default() -> Self {
        FaasParams {
            cold_start: Dist::uniform(0.6, 1.5),
            idle_reclaim_after: SimDuration::from_secs(30),
            reclaim_scan_every: SimDuration::from_secs(5),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn default_net_params_reproduce_paper_latency_bands() {
        let mut rng = SimRng::new(5);
        let net = NetParams::default();
        let cpu = CpuParams::default();
        for _ in 0..1000 {
            // TCP read: two hops + hit service => ~1-2 ms.
            let tcp = rng.sample(&net.tcp_one_way) * 2.0 + rng.sample(&cpu.read_hit);
            assert!((0.0007..0.0021).contains(&tcp), "tcp e2e {tcp}");
            // HTTP read: the same plus gateway overhead => ~8-20 ms.
            let http = tcp + rng.sample(&net.http_overhead) + rng.sample(&cpu.http_handling);
            assert!((0.007..0.021).contains(&http), "http e2e {http}");
        }
    }

    #[test]
    fn store_defaults_have_expected_shape() {
        let s = StoreParams::default();
        assert_eq!(s.shards, 4);
        // Writes are several times slower than reads, which is what caps
        // write throughput in Figs. 11/12.
        assert!(s.row_write.mean() > 4.0 * s.pk_read.mean());
    }

    #[test]
    fn cold_start_is_slow_relative_to_rpc() {
        let f = FaasParams::default();
        let n = NetParams::default();
        assert!(f.cold_start.mean() > 20.0 * n.http_overhead.mean());
    }
}
