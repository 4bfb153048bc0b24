//! Property-based tests of the namespace substrate: the path algebra,
//! the metadata-cache trie against a flat reference model, unlocked path
//! resolution against a path → id map, listing deltas against set
//! semantics, and partitioner determinism.

use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

use lambda_namespace::{
    interned, DfsPath, Inode, InodeId, MetadataCache, MetadataSchema, Partitioner, ROOT_INODE_ID,
};
use lambda_sim::params::StoreParams;
use lambda_sim::SimDuration;
use lambda_store::Db;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------

/// A path component from a deliberately tiny alphabet, so generated
/// paths collide and nest often.
fn component() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["a", "b", "c", "dd", "ee", "f0", "g1", "x"])
        .prop_map(str::to_string)
}

/// An absolute path of 1..=4 components.
fn path() -> impl Strategy<Value = DfsPath> {
    prop::collection::vec(component(), 1..=4)
        .prop_map(|comps| format!("/{}", comps.join("/")).parse().expect("valid path"))
}

// ---------------------------------------------------------------------
// Path algebra
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn parse_display_roundtrip(p in path()) {
        let reparsed: DfsPath = p.as_str().parse().expect("display output re-parses");
        prop_assert_eq!(&reparsed, &p);
    }

    #[test]
    fn join_then_parent_is_identity(p in path(), name in component()) {
        let child = p.join(&name).expect("component is valid");
        prop_assert_eq!(child.parent().expect("child has a parent"), p);
        prop_assert_eq!(child.file_name(), Some(name.as_str()));
    }

    #[test]
    fn depth_counts_components(p in path()) {
        prop_assert_eq!(p.depth(), p.components().count());
    }

    #[test]
    fn ancestors_are_orderly_prefixes(p in path()) {
        // Root first, the parent last (exclusive of `p`), depth
        // increasing by one.
        prop_assert_eq!(p.ancestors().len(), p.depth());
        prop_assert_eq!(p.ancestors().next(), Some(DfsPath::root()));
        let parent = p.parent();
        prop_assert_eq!(p.ancestors().next_back(), parent);
        for (i, a) in p.ancestors().enumerate() {
            prop_assert_eq!(a.depth(), i);
            prop_assert!(p.starts_with(&a));
        }
    }

    #[test]
    fn starts_with_agrees_with_ancestor_set(p in path(), q in path()) {
        // `starts_with` means "is `q` or descends from `q`".
        let is_ancestor_or_self = p == q || p.ancestors().any(|a| a == q);
        prop_assert_eq!(p.starts_with(&q), is_ancestor_or_self);
    }
}

// ---------------------------------------------------------------------
// Cache trie vs a flat reference model
// ---------------------------------------------------------------------

/// Interns every distinct absolute prefix as a directory inode with a
/// stable id, so chains agree across inserts.
struct Interner {
    ids: HashMap<String, InodeId>,
}

impl Interner {
    fn new() -> Self {
        let mut ids = HashMap::new();
        ids.insert("/".to_string(), 1);
        Interner { ids }
    }

    fn id(&mut self, path: &DfsPath) -> InodeId {
        let next = self.ids.len() as InodeId + 1;
        *self.ids.entry(path.as_str().to_string()).or_insert(next)
    }

    /// The root-through-target inode chain for `path`.
    fn chain(&mut self, path: &DfsPath) -> Vec<Inode> {
        let full: Vec<DfsPath> =
            path.ancestors().chain(std::iter::once(path.clone())).collect();
        let mut chain = vec![Inode::root()];
        for pair in full.windows(2) {
            let parent = self.id(&pair[0]);
            let id = self.id(&pair[1]);
            chain.push(Inode::directory(id, parent, pair[1].file_name().expect("non-root")));
        }
        chain
    }
}

#[derive(Debug, Clone)]
enum CacheOp {
    Insert(usize),
    Lookup(usize),
    InvalidatePrefix(usize),
    InvalidateInode(usize),
}

fn cache_ops(universe: usize) -> impl Strategy<Value = Vec<CacheOp>> {
    prop::collection::vec(
        prop_oneof![
            (0..universe).prop_map(CacheOp::Insert),
            (0..universe).prop_map(CacheOp::Lookup),
            (0..universe).prop_map(CacheOp::InvalidatePrefix),
            (0..universe).prop_map(CacheOp::InvalidateInode),
        ],
        1..80,
    )
}

proptest! {
    /// Drives the trie and a flat "set of cached paths" model through the
    /// same operation sequence; a full-chain lookup must hit exactly when
    /// the model holds every prefix of the path.
    #[test]
    fn trie_agrees_with_flat_model(
        paths in prop::collection::vec(path(), 4..10),
        ops in cache_ops(10),
    ) {
        // Capacity large enough that eviction never fires: the model has
        // no eviction.
        let mut cache = MetadataCache::new(10_000);
        let mut intern = Interner::new();
        let mut model: BTreeSet<String> = BTreeSet::new();
        for op in ops {
            match op {
                CacheOp::Insert(i) => {
                    let p = &paths[i % paths.len()];
                    let chain = intern.chain(p);
                    cache.insert_chain(p, &chain);
                    for a in p.ancestors() {
                        model.insert(a.as_str().to_string());
                    }
                    model.insert(p.as_str().to_string());
                }
                CacheOp::Lookup(i) => {
                    let p = &paths[i % paths.len()];
                    let model_hit = model.contains(p.as_str())
                        && p.ancestors().all(|a| model.contains(a.as_str()));
                    let got = cache.lookup(p);
                    prop_assert_eq!(got.is_some(), model_hit, "lookup({}) disagrees", p);
                    if let Some(chain) = got {
                        // The returned chain is the interned one.
                        let expect = intern.chain(p);
                        let got_ids: Vec<InodeId> = chain.iter().map(|n| n.id).collect();
                        let expect_ids: Vec<InodeId> = expect.iter().map(|n| n.id).collect();
                        prop_assert_eq!(got_ids, expect_ids);
                    }
                }
                CacheOp::InvalidatePrefix(i) => {
                    let p = &paths[i % paths.len()];
                    cache.invalidate_prefix(p);
                    model.retain(|q| {
                        let q: DfsPath = q.parse().expect("interned paths are valid");
                        !q.starts_with(p)
                    });
                }
                CacheOp::InvalidateInode(i) => {
                    let p = &paths[i % paths.len()];
                    // Only meaningful for ids the interner has assigned.
                    let id = intern.id(p);
                    cache.invalidate_inode(id);
                    model.remove(p.as_str());
                }
            }
        }
    }

    /// The cache never exceeds its capacity, whatever the op sequence.
    #[test]
    fn capacity_is_respected(
        paths in prop::collection::vec(path(), 4..12),
        ops in cache_ops(12),
        capacity in 1usize..12,
    ) {
        let mut cache = MetadataCache::new(capacity);
        let mut intern = Interner::new();
        for op in ops {
            match op {
                CacheOp::Insert(i) | CacheOp::Lookup(i) => {
                    let p = &paths[i % paths.len()];
                    if matches!(op, CacheOp::Insert(_)) {
                        let chain = intern.chain(p);
                        cache.insert_chain(p, &chain);
                    } else {
                        let _ = cache.lookup(p);
                    }
                }
                CacheOp::InvalidatePrefix(i) => {
                    cache.invalidate_prefix(&paths[i % paths.len()]);
                }
                CacheOp::InvalidateInode(i) => {
                    let id = intern.id(&paths[i % paths.len()]);
                    cache.invalidate_inode(id);
                }
            }
            prop_assert!(cache.len() <= cache.capacity().max(1) + 4,
                "len {} exceeded capacity {}", cache.len(), cache.capacity());
        }
    }

    /// `lookup_prefix` returns a true prefix of the chain `lookup` would
    /// return, and is never shorter than what full lookups could use.
    #[test]
    fn lookup_prefix_is_a_chain_prefix(p in path()) {
        let mut cache = MetadataCache::new(1_000);
        let mut intern = Interner::new();
        let chain = intern.chain(&p);
        cache.insert_chain(&p, &chain);
        // Invalidate the leaf: the prefix lookup must still return all
        // ancestors.
        let leaf = intern.id(&p);
        cache.invalidate_inode(leaf);
        let got = cache.lookup_prefix(&p);
        prop_assert_eq!(got.len(), chain.len() - 1);
        for (g, c) in got.iter().zip(chain.iter()) {
            prop_assert_eq!(g.id, c.id);
        }
        prop_assert!(cache.lookup(&p).is_none());
    }
}

// ---------------------------------------------------------------------
// Unlocked resolution vs a path → id map
// ---------------------------------------------------------------------

/// A component drawn to collide where the children index's name keys
/// compare by an inline eight-byte prefix: numbered names sharing it,
/// names shorter than it and exactly as long, zero-padded look-alikes and
/// multi-byte UTF-8 across the boundary.
fn colliding_component() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => "file0001[0-9]",
        2 => "[ab]{1,7}",
        1 => "[ab]{8}",
        2 => "aaaaaa[ab\u{0}é]{1,5}",
        1 => "[a\u{0}]{1,10}",
    ]
}

fn colliding_paths() -> impl Strategy<Value = Vec<DfsPath>> {
    let path = prop::collection::vec(colliding_component(), 1..=3).prop_map(|comps| {
        comps.iter().fold(DfsPath::root(), |p, c| p.join(c).expect("valid component"))
    });
    prop::collection::vec(path, 1..24)
}

/// The root, every ancestor, then `p` itself.
fn lineage(p: &DfsPath) -> impl Iterator<Item = DfsPath> + '_ {
    p.ancestors().chain(std::iter::once(p.clone()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `peek_chain_ids` resolves exactly the paths that were created, to
    /// the ids they were created with, and `peek_chain` returns those
    /// ids' rows — for present paths and for near-miss absent ones.
    #[test]
    fn peek_chain_ids_match_peek_chain_and_a_path_map(
        created in colliding_paths(),
        probes in colliding_paths(),
    ) {
        let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
        let schema = MetadataSchema::install(&db);
        let root = DfsPath::root().as_str();
        let mut ids: HashMap<&str, InodeId> = HashMap::from([(root, ROOT_INODE_ID)]);
        for p in &created {
            for dir in lineage(p) {
                ids.entry(dir.as_str()).or_insert_with(|| schema.bootstrap_mkdir(&db, &dir));
            }
        }
        for p in created.iter().chain(&probes) {
            let want: Option<Vec<InodeId>> =
                lineage(p).map(|a| ids.get(a.as_str()).copied()).collect();
            prop_assert_eq!(&schema.peek_chain_ids(&db, p), &want, "ids of {}", p);
            let chain = schema.peek_chain(&db, p);
            let chain_ids = chain.as_ref().map(|c| c.iter().map(|i| i.id).collect::<Vec<_>>());
            prop_assert_eq!(&chain_ids, &want, "chain of {}", p);
            for (inode, name) in chain.iter().flatten().skip(1).zip(p.components()) {
                prop_assert_eq!(inode.name.as_str(), name);
            }
        }
        prop_assert!(schema.check_consistency(&db).is_empty());
    }
}

// ---------------------------------------------------------------------
// Listing deltas vs set semantics
// ---------------------------------------------------------------------

proptest! {
    /// Applying `(name, present)` deltas to a cached listing matches a
    /// BTreeSet maintained with the same updates — i.e. deltas are
    /// equivalent to invalidate-then-refill.
    #[test]
    fn listing_deltas_match_set_semantics(
        initial in prop::collection::btree_set(component(), 0..6),
        updates in prop::collection::vec((component(), any::<bool>()), 0..24),
    ) {
        let mut cache = MetadataCache::new(100);
        let dir: InodeId = 7;
        cache.cache_listing(dir, Rc::new(initial.iter().map(|n| interned(n)).collect()));
        let mut model = initial;
        for (name, present) in updates {
            cache.update_listing(dir, interned(&name), present);
            if present {
                model.insert(name);
            } else {
                model.remove(&name);
            }
            let got = cache.listing(dir).expect("listing stays cached");
            prop_assert!(got.iter().eq(model.iter()), "{:?} != {:?}", got, model);
        }
    }
}

// ---------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------

proptest! {
    /// Deployment choice is deterministic and in range; a path and its
    /// sibling under the same parent land on the same deployment
    /// (partitioning is by parent directory).
    #[test]
    fn partitioner_is_deterministic_and_parent_keyed(
        p in path(),
        a in component(),
        b in component(),
        n in 1u32..16,
    ) {
        let part = Partitioner::new(n);
        let child_a = p.join(&a).expect("valid");
        let child_b = p.join(&b).expect("valid");
        let da = part.deployment_for_path(&child_a);
        prop_assert!(da < n);
        prop_assert_eq!(da, part.deployment_for_path(&child_a), "must be deterministic");
        prop_assert_eq!(da, part.deployment_for_path(&child_b),
            "siblings share the parent's deployment");
    }
}

/// Ten deployments must all receive work from a realistic directory
/// population (regression for the FNV clustering bug, DESIGN.md §4.1.6).
#[test]
fn partitioner_spreads_realistic_directories() {
    let part = Partitioner::new(10);
    let mut seen = BTreeSet::new();
    for i in 0..2048 {
        let dir: DfsPath = format!("/dir{i:05}/file00000").parse().expect("valid");
        seen.insert(part.deployment_for_path(&dir));
    }
    assert_eq!(seen.len(), 10, "only deployments {seen:?} received work");
}
