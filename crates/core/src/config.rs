//! λFS system configuration.

use lambda_sim::params::{CpuParams, FaasParams, NetParams, StoreParams};
use lambda_sim::{LambdaPricing, SimDuration};

/// Complete configuration for a [`LambdaFs`](crate::LambdaFs) system.
///
/// Defaults reproduce the evaluation's common setup: 10 NameNode
/// deployments, 5-vCPU / 6 GB NameNodes, `ConcurrencyLevel` 4, 1 %
/// HTTP-TCP replacement, 512-vCPU cluster cap.
#[derive(Debug, Clone)]
pub struct LambdaFsConfig {
    /// Number of serverless NameNode deployments (`n` in §3.1). Fixed at
    /// registration time; determines the namespace partitioning.
    pub deployments: u32,
    /// vCPUs per NameNode instance.
    pub nn_vcpus: u32,
    /// Memory per NameNode instance (GB).
    pub nn_mem_gb: f64,
    /// `ConcurrencyLevel`: simultaneous HTTP requests per instance (§3.4,
    /// coarse-grained auto-scaling control).
    pub concurrency_level: u32,
    /// Maximum instances per deployment (`u32::MAX` = platform limits;
    /// Fig. 14's ablations lower this).
    pub max_instances_per_deployment: u32,
    /// Cluster-wide vCPU cap for the FaaS platform (the evaluation's
    /// fairness control; 512 in most experiments).
    pub cluster_vcpus: u32,
    /// Metadata-cache capacity per NameNode, in inodes. The
    /// "reduced-cache λFS" run (§5.2.3) sets this below the working-set
    /// size.
    pub cache_capacity: usize,
    /// Probability that a client replaces a TCP RPC with an HTTP RPC
    /// (fine-grained auto-scaling control; §3.4 finds ≤ 1 % works best).
    pub http_replace_prob: f64,
    /// Client-side request timeout before resubmission.
    pub client_timeout: SimDuration,
    /// Anti-thrashing (Appendix C): a client whose read latency blows past
    /// `T ×` its moving average stops issuing HTTP invocations until its
    /// latency recovers. The InfiniCache baseline, which only speaks HTTP,
    /// turns it off.
    pub anti_thrashing: bool,
    /// Run the cache-coherence protocol on writes. Disabling this is an
    /// *unsafe ablation* used to measure the protocol's overhead.
    pub coherence_enabled: bool,
    /// Number of client VMs (TCP-server hosts); the evaluation used 8.
    pub client_vms: u32,
    /// Total client processes across the VMs.
    pub clients: u32,
    /// Network latency model.
    pub net: NetParams,
    /// NameNode CPU service-time model.
    pub cpu: CpuParams,
    /// Persistent metadata store capacity model.
    pub store: StoreParams,
    /// FaaS platform behavior (cold starts, reclamation).
    pub faas: FaasParams,
    /// Pay-per-use prices.
    pub pricing: LambdaPricing,
    /// Store persistence model: `None` (default) runs the volatile
    /// in-memory backend with fixed-takeover crash semantics; `Some`
    /// selects the WAL-backed durable backend, whose shard crashes run
    /// deterministic WAL-replay recovery (see
    /// [`lambda_store::DurabilityConfig`]).
    pub durability: Option<lambda_store::DurabilityConfig>,
}

impl Default for LambdaFsConfig {
    fn default() -> Self {
        LambdaFsConfig {
            deployments: 10,
            nn_vcpus: 5,
            nn_mem_gb: 6.0,
            concurrency_level: 4,
            max_instances_per_deployment: u32::MAX,
            cluster_vcpus: 512,
            cache_capacity: 2_000_000,
            http_replace_prob: 0.01,
            client_timeout: SimDuration::from_secs(5),
            anti_thrashing: true,
            coherence_enabled: true,
            client_vms: 8,
            clients: 64,
            net: NetParams::default(),
            cpu: CpuParams::default(),
            store: StoreParams::default(),
            faas: FaasParams::default(),
            pricing: LambdaPricing::default(),
            durability: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_papers_setup() {
        let c = LambdaFsConfig::default();
        assert_eq!(c.cluster_vcpus, 512);
        assert!(c.http_replace_prob <= 0.01);
        assert_eq!(crate::namenode::SUBTREE_BATCH_SIZE, 512);
        assert!(c.anti_thrashing);
        assert!((2.0..=3.0).contains(&crate::client::ANTI_THRASH_THRESHOLD));
        assert_eq!(crate::client::ANTI_THRASH_FLOOR_SECS, 0.025);
        assert_eq!(crate::client::STRAGGLER_THRESHOLD, 10.0);
    }
}
