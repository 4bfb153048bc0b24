//! Namespace partitioning across serverless function deployments.
//!
//! λFS registers a fixed number `n` of uniquely named NameNode deployments
//! and partitions the file-system namespace among them by **consistently
//! hashing the parent of each file/directory** (paper §3.1/§3.3). All
//! metadata of one directory's children therefore lands on one deployment
//! (good for locality, like LocoFS), while FaaS auto-scaling *within* the
//! deployment absorbs hot directories (unlike LocoFS, §6).
//!
//! The paper names two keys ("parent directory path" in §3.1, "parent
//! INode ID" in §3.3); the path is the one provided, since the client
//! library routes a request before it knows any inode id.

use crate::path::DfsPath;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a_step(mut h: u64, data: &[u8]) -> u64 {
    for b in data {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer: decorrelates sequential ids.
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A consistent-hash ring mapping keys to one of `n` deployments, with
/// virtual nodes for balance.
///
/// # Examples
///
/// ```
/// use lambda_namespace::Partitioner;
///
/// let ring = Partitioner::new(8);
/// let path = "/data/logs/app.log".parse().unwrap();
/// let d = ring.deployment_for_path(&path);
/// // Deterministic: same path, same deployment.
/// assert_eq!(d, ring.deployment_for_path(&path));
/// assert!(d < 8);
/// ```
#[derive(Debug, Clone)]
pub struct Partitioner {
    /// Sorted `(point, deployment)` ring.
    ring: Vec<(u64, u32)>,
    deployments: u32,
}

impl Partitioner {
    /// Virtual nodes per deployment.
    const VNODES: u32 = 64;

    /// Builds a ring over `deployments` deployments.
    ///
    /// # Panics
    ///
    /// Panics if `deployments == 0`.
    #[must_use]
    pub fn new(deployments: u32) -> Self {
        assert!(deployments > 0, "need at least one deployment");
        let mut ring = Vec::with_capacity((deployments * Self::VNODES) as usize);
        for d in 0..deployments {
            for v in 0..Self::VNODES {
                ring.push((mix64((u64::from(d) << 32) | u64::from(v)), d));
            }
        }
        ring.sort_unstable();
        Partitioner { ring, deployments }
    }

    /// Number of deployments on the ring.
    #[must_use]
    pub fn deployments(&self) -> u32 {
        self.deployments
    }

    fn owner_of_hash(&self, h: u64) -> u32 {
        let idx = self.ring.partition_point(|(p, _)| *p < h);
        let idx = if idx == self.ring.len() { 0 } else { idx };
        self.ring[idx].1
    }

    /// The deployment responsible for a file/directory, keyed by its
    /// **parent directory's path** (§3.1: hash of the parent directory
    /// path; the root is keyed by itself).
    ///
    /// FNV's upper bits avalanche poorly on short, similar strings, so the
    /// raw hash is finalized with splitmix64 before the (order-sensitive)
    /// ring lookup.
    #[must_use]
    pub fn deployment_for_path(&self, path: &DfsPath) -> u32 {
        // Hash the parent's rendered bytes without materializing it: feed
        // `/component` per parent component (the root hashes as a lone
        // `/`, both for root-keyed top-level items and for the root path
        // itself, which the paper keys by itself).
        let parent_comps = path.depth().saturating_sub(1);
        let mut h = FNV_OFFSET;
        if parent_comps == 0 {
            h = fnv1a_step(h, b"/");
        } else {
            for comp in path.components().take(parent_comps) {
                h = fnv1a_step(h, b"/");
                h = fnv1a_step(h, comp.as_bytes());
            }
        }
        self.owner_of_hash(mix64(h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeLayout;

    fn p(s: &str) -> DfsPath {
        s.parse().unwrap()
    }

    /// A file in the `i`-th of many distinct directories: each key names a
    /// different parent, the input the ring balances.
    fn key(i: u64) -> DfsPath {
        p(&format!("/d{i}/f"))
    }

    #[test]
    fn deterministic_across_instances() {
        let a = Partitioner::new(16);
        let b = Partitioner::new(16);
        for i in 0..100 {
            let path = key(i);
            assert_eq!(a.deployment_for_path(&path), b.deployment_for_path(&path));
        }
    }

    #[test]
    fn siblings_share_a_deployment() {
        let ring = Partitioner::new(8);
        let d1 = ring.deployment_for_path(&p("/data/a.txt"));
        let d2 = ring.deployment_for_path(&p("/data/b.txt"));
        assert_eq!(d1, d2, "children of one directory must co-locate");
    }

    #[test]
    fn partitions_are_reasonably_balanced() {
        let ring = Partitioner::new(10);
        let mut counts = vec![0u32; 10];
        for i in 0..10_000u64 {
            counts[ring.deployment_for_path(&key(i)) as usize] += 1;
        }
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*min > 0, "unused deployment");
        assert!(
            f64::from(*max) / f64::from(*min) < 4.0,
            "imbalance {counts:?}"
        );
    }

    #[test]
    fn all_deployments_reachable() {
        let ring = Partitioner::new(32);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..50_000u64 {
            seen.insert(ring.deployment_for_path(&key(i)));
        }
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn consistency_under_growth() {
        // Consistent hashing: growing the ring moves only a fraction of
        // keys.
        let small = Partitioner::new(8);
        let large = Partitioner::new(9);
        let moved = (0..10_000u64)
            .filter(|&i| {
                let a = small.deployment_for_path(&key(i));
                let b = large.deployment_for_path(&key(i));
                a != b && b != 8
            })
            .count();
        // Keys that changed owner without moving to the new deployment
        // should be rare (only ring-boundary shifts).
        assert!(moved < 1500, "moved {moved} of 10000");
    }

    #[test]
    fn path_keys_spread_over_all_deployments() {
        // Regression: FNV without finalization clustered similar paths
        // ("/dir00000", "/dir00001", …) onto one or two deployments.
        let ring = Partitioner::new(10);
        let layout = TreeLayout { dirs: 128, files_per_dir: 1 };
        let files = layout.file_paths(&layout.dir_paths(&DfsPath::root()));
        let seen: std::collections::BTreeSet<u32> =
            files.iter().map(|file| ring.deployment_for_path(file)).collect();
        assert_eq!(seen.len(), 10, "path hashing uses {} of 10 deployments", seen.len());
    }

    #[test]
    fn root_items_are_keyed_by_root() {
        let ring = Partitioner::new(4);
        let d1 = ring.deployment_for_path(&p("/top1"));
        let d2 = ring.deployment_for_path(&p("/top2"));
        assert_eq!(d1, d2);
    }
}
