//! The agile auto-scaling model (paper §3.4, Fig. 6).
//!
//! λFS does not run its own scaling controller: it *reuses the FaaS
//! platform's* scale-out machinery and steers it with two knobs —
//!
//! * **fine-grained**: the probability that a client replaces a TCP RPC
//!   with an HTTP RPC (only HTTP RPCs are FaaS-visible and can trigger
//!   scale-out);
//! * **coarse-grained**: the per-instance `ConcurrencyLevel` (how many
//!   HTTP RPCs one instance absorbs before the platform provisions
//!   another).
//!
//! This module implements Fig. 6's closed-form model of the expected
//! scale, used for configuration reasoning. Its unit tests pin the
//! formula; no test compares it with the scale the full system reaches.

/// Inputs to the Fig. 6 scale model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleModel {
    /// Number of function deployments (`NumDeployments`).
    pub deployments: u32,
    /// HTTP-TCP replacement probability (`TcpHttpReplace%`).
    pub replace_prob: f64,
    /// Load level `α`: requests per second times mean request latency
    /// (i.e. offered concurrency, by Little's law).
    pub alpha: f64,
    /// Per-instance HTTP concurrency (`ConcurrencyLevel ≥ 1`).
    pub concurrency_level: u32,
    /// Cluster vCPUs available to the platform.
    pub cluster_vcpus: u32,
    /// vCPUs per NameNode.
    pub per_nn_vcpus: u32,
    /// Cluster RAM (GB) available to the platform.
    pub cluster_ram_gb: f64,
    /// RAM per NameNode (GB).
    pub per_nn_ram_gb: f64,
}

impl ScaleModel {
    /// `DesiredScale = NumDeployments + TcpHttpReplace% × α /
    /// ConcurrencyLevel` — the expected number of NameNodes, before the
    /// resource upper bound.
    #[must_use]
    pub fn desired_scale(&self) -> f64 {
        let cl = f64::from(self.concurrency_level.max(1));
        f64::from(self.deployments) + self.replace_prob * self.alpha / cl
    }

    /// The resource upper bound: `MIN(ClusterCPU / PerNameNodeCPU,
    /// ClusterRAM / PerNameNodeRAM)`.
    #[must_use]
    pub fn resource_bound(&self) -> f64 {
        let by_cpu = f64::from(self.cluster_vcpus) / f64::from(self.per_nn_vcpus.max(1));
        let by_ram = self.cluster_ram_gb / self.per_nn_ram_gb.max(1e-9);
        by_cpu.min(by_ram)
    }

    /// The expected steady-state NameNode count: the desired scale capped
    /// by resources, and never below one instance per deployment.
    #[must_use]
    pub fn expected_namenodes(&self) -> f64 {
        self.desired_scale().min(self.resource_bound()).max(f64::from(self.deployments))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> ScaleModel {
        ScaleModel {
            deployments: 10,
            replace_prob: 0.01,
            alpha: 4000.0,
            concurrency_level: 4,
            cluster_vcpus: 512,
            per_nn_vcpus: 5,
            cluster_ram_gb: 4096.0,
            per_nn_ram_gb: 6.0,
        }
    }

    #[test]
    fn desired_scale_matches_fig6_formula() {
        let m = base();
        // 10 + 0.01 * 4000 / 4 = 20.
        assert!((m.desired_scale() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn smaller_concurrency_scales_out_more() {
        let mut m = base();
        let loose = m.desired_scale();
        m.concurrency_level = 1;
        assert!(m.desired_scale() > loose, "ConcurrencyLevel→1 must increase scale");
    }

    #[test]
    fn replacement_probability_is_the_fine_grained_knob() {
        let mut m = base();
        m.replace_prob = 0.0;
        // Pure-TCP traffic never scales past the deployment floor.
        assert!((m.desired_scale() - 10.0).abs() < 1e-12);
        m.replace_prob = 0.02;
        assert!(m.desired_scale() > 10.0);
    }

    #[test]
    fn resource_bound_caps_the_scale() {
        let mut m = base();
        m.alpha = 1e9;
        // 512 / 5 = 102.4 NameNodes by CPU; RAM allows more.
        assert!((m.resource_bound() - 102.4).abs() < 1e-9);
        assert!((m.expected_namenodes() - 102.4).abs() < 1e-9);
    }

    #[test]
    fn ram_can_be_the_binding_constraint() {
        let mut m = base();
        m.cluster_ram_gb = 60.0; // only 10 NameNodes by RAM
        assert!((m.resource_bound() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn floor_is_one_instance_per_deployment() {
        let mut m = base();
        m.alpha = 0.0;
        assert!((m.expected_namenodes() - 10.0).abs() < 1e-12);
    }
}
