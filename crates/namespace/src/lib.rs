//! # lambda-namespace
//!
//! The DFS namespace model shared by λFS and every baseline in the
//! ASPLOS '23 reproduction:
//!
//! * [`DfsPath`] — validated absolute paths;
//! * [`Inode`], [`DataNodeInfo`] — the metadata row types;
//! * [`FsOp`] / [`OpOutcome`] / [`FsError`] — the seven operation types of
//!   the evaluation (Table 2) and their results;
//! * [`MetadataSchema`] — the store schema (inodes, children index,
//!   DataNodes, subtree locks) plus bulk loading and a consistency checker;
//! * [`TreeLayout`] — the names and paths of the bootstrap tree every
//!   experiment runs against;
//! * [`Partitioner`] — consistent hashing of parents onto function
//!   deployments (paper §3.1/§3.3);
//! * [`MetadataCache`] — the per-NameNode trie cache with LRU bounds and
//!   single-INode / prefix invalidation (§3.3, Appendix D);
//! * [`DataNodeFleet`] — DataNodes publishing block reports through the
//!   persistent store (the serverless-compatible maintenance path).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod datanode;
mod inode;
mod layout;
mod ops;
mod partition;
mod path;
mod schema;

pub use cache::{CacheStats, MetadataCache};
pub use datanode::DataNodeFleet;
pub use lambda_store::MixBuild;
pub use inode::{DataNodeId, DataNodeInfo, Inode, InodeId, InodeKind, StoredInode, ROOT_INODE_ID};
pub use layout::TreeLayout;
pub use ops::{FsError, FsOp, Listing, OpClass, OpOutcome, OpResult};
pub use partition::Partitioner;
pub use path::{interned, Ancestors, DfsPath, InodeName, ParsePathError};
pub use schema::{MetadataSchema, SubtreeLockRow};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn comp_strategy() -> impl Strategy<Value = String> {
        "[a-d]{1,2}".prop_map(|s| s)
    }

    fn path_strategy() -> impl Strategy<Value = DfsPath> {
        proptest::collection::vec(comp_strategy(), 1..5).prop_map(|comps| {
            let mut p = DfsPath::root();
            for c in comps {
                p = p.join(&c).expect("valid component");
            }
            p
        })
    }

    #[derive(Debug, Clone)]
    enum CacheOp {
        Insert(DfsPath),
        InvalidateInode(DfsPath),
        InvalidatePrefix(DfsPath),
        Lookup(DfsPath),
    }

    fn cache_op() -> impl Strategy<Value = CacheOp> {
        prop_oneof![
            4 => path_strategy().prop_map(CacheOp::Insert),
            2 => path_strategy().prop_map(CacheOp::InvalidateInode),
            1 => path_strategy().prop_map(CacheOp::InvalidatePrefix),
            3 => path_strategy().prop_map(CacheOp::Lookup),
        ]
    }

    /// A reference model: one entry per cached path node (ids are a
    /// deterministic function of the path, so path ≡ inode id). A lookup
    /// hits iff every prefix — root included — has an entry; single-inode
    /// invalidation drops exactly one entry; prefix invalidation drops all
    /// entries at or under the prefix.
    #[derive(Default)]
    struct Model {
        entries: HashMap<String, Inode>,
    }

    impl Model {
        fn lookup(&self, path: &DfsPath) -> Option<Vec<Inode>> {
            let all = path.ancestors().chain(std::iter::once(path.clone()));
            all.map(|p| self.entries.get(p.as_str()).cloned()).collect()
        }
    }

    /// Deterministic inode ids per path so the model and the cache agree.
    fn chain_for(path: &DfsPath) -> Vec<Inode> {
        fn id_of(p: &str) -> u64 {
            if p == "/" {
                return ROOT_INODE_ID;
            }
            let mut h: u64 = 0xcbf29ce484222325;
            for b in p.bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100000001b3);
            }
            (h | 1).max(2)
        }
        let mut chain = vec![Inode::root()];
        for p in path.ancestors().skip(1).chain(std::iter::once(path.clone())) {
            let p = &p;
            let parent = id_of(p.parent().expect("non-root").as_str());
            chain.push(Inode::directory(id_of(p.as_str()), parent, p.file_name().unwrap()));
        }
        chain
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// With unbounded capacity the trie cache agrees with a flat-map
        /// model under inserts, lookups, and both invalidation flavors.
        #[test]
        fn cache_matches_model(ops in proptest::collection::vec(cache_op(), 1..120)) {
            let mut cache = MetadataCache::new(1_000_000);
            let mut model = Model::default();
            for op in &ops {
                match op {
                    CacheOp::Insert(path) => {
                        let chain = chain_for(path);
                        cache.insert_chain(path, &chain);
                        let all = path.ancestors().chain(std::iter::once(path.clone()));
                        for (i, p) in all.enumerate() {
                            model.entries.insert(p.as_str().to_string(), chain[i].clone());
                        }
                    }
                    CacheOp::InvalidateInode(path) => {
                        let id = chain_for(path).last().unwrap().id;
                        cache.invalidate_inode(id);
                        model.entries.remove(path.as_str());
                    }
                    CacheOp::InvalidatePrefix(path) => {
                        cache.invalidate_prefix(path);
                        model.entries.retain(|p, _| {
                            let p: DfsPath = p.parse().unwrap();
                            !p.starts_with(path)
                        });
                    }
                    CacheOp::Lookup(path) => {
                        let got = cache.lookup(path);
                        let want = model.lookup(path);
                        prop_assert_eq!(got, want, "path {}", path);
                    }
                }
            }
        }

        /// Path parsing round-trips through Display.
        #[test]
        fn path_round_trips(path in path_strategy()) {
            let s = path.to_string();
            let back: DfsPath = s.parse().unwrap();
            prop_assert_eq!(back, path);
        }

        /// The partitioner always co-locates siblings and spreads
        /// different directories over the ring deterministically.
        #[test]
        fn partitioner_colocates_siblings(dir in path_strategy(), n in 1u32..64) {
            let ring = Partitioner::new(n);
            let a = dir.join("child-a").unwrap();
            let b = dir.join("child-b").unwrap();
            prop_assert_eq!(ring.deployment_for_path(&a), ring.deployment_for_path(&b));
            prop_assert!(ring.deployment_for_path(&a) < n);
        }
    }
}
