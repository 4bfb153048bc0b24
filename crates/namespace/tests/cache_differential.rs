//! Differential property test: the arena-trie [`MetadataCache`] against
//! the retained pre-overhaul implementation
//! ([`lambda_namespace::cache_baseline::MetadataCache`]).
//!
//! Identical operation sequences — inserts, lookups, prefix lookups,
//! LRU-pressured evictions (tiny capacity), inode and prefix
//! invalidations, and listing-cache traffic — must produce identical
//! return values, identical [`CacheStats`], and the same surviving-entry
//! set. The overhaul changed the representation (slab nodes, symbol keys,
//! intrusive LRU links); it must not have changed a single observable.
//!
//! The arena cache hands out listings as shared slices of interned names
//! where the baseline hands out fresh `Vec<String>`s. Sharing must not be
//! observable either: every listing ever handed out is kept and must still
//! read what the baseline's private copy read, whatever updates,
//! invalidations and flushes the cache saw afterwards.

use std::collections::HashMap;
use std::rc::Rc;

use lambda_namespace::cache_baseline::MetadataCache as BaselineCache;
use lambda_namespace::{interned, DfsPath, Inode, InodeId, Listing, MetadataCache, ROOT_INODE_ID};
use proptest::prelude::*;

/// One cache operation, path-addressed; ids are assigned deterministically
/// by the driver so both caches see byte-identical arguments.
#[derive(Debug, Clone)]
enum Op {
    InsertChain(DfsPath),
    Lookup(DfsPath),
    LookupPrefix(DfsPath),
    InvalidateInode(DfsPath),
    InvalidatePrefix(DfsPath),
    CacheListing(DfsPath, Vec<String>),
    Listing(DfsPath),
    UpdateListing(DfsPath, String, bool),
    InvalidateListing(DfsPath),
}

/// Tiny component alphabet so sequences revisit, nest, and collide.
fn component() -> impl Strategy<Value = String> {
    prop::sample::select(vec!["a", "b", "c", "dd", "e"]).prop_map(str::to_string)
}

fn path() -> impl Strategy<Value = DfsPath> {
    prop::collection::vec(component(), 1..=4)
        .prop_map(|comps| format!("/{}", comps.join("/")).parse().expect("valid path"))
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => path().prop_map(Op::InsertChain),
        3 => path().prop_map(Op::Lookup),
        2 => path().prop_map(Op::LookupPrefix),
        1 => path().prop_map(Op::InvalidateInode),
        1 => path().prop_map(Op::InvalidatePrefix),
        1 => (path(), prop::collection::vec(component(), 0..3))
            .prop_map(|(p, names)| Op::CacheListing(p, names)),
        1 => path().prop_map(Op::Listing),
        1 => (path(), component(), any::<bool>())
            .prop_map(|(p, n, present)| Op::UpdateListing(p, n, present)),
        1 => path().prop_map(Op::InvalidateListing),
    ]
}

/// Assigns stable inode ids per path (first-use order) and builds the
/// root-to-target directory chain `insert_chain` expects. All inodes are
/// directories so any path can later appear as an ancestor.
struct IdSpace {
    ids: HashMap<DfsPath, InodeId>,
    next: InodeId,
}

impl IdSpace {
    fn new() -> Self {
        IdSpace { ids: HashMap::new(), next: ROOT_INODE_ID + 1 }
    }

    fn id_of(&mut self, path: &DfsPath) -> InodeId {
        if path.is_root() {
            return ROOT_INODE_ID;
        }
        if let Some(&id) = self.ids.get(path) {
            return id;
        }
        let id = self.next;
        self.next += 1;
        self.ids.insert(path.clone(), id);
        id
    }

    fn chain_for(&mut self, path: &DfsPath) -> Vec<Inode> {
        let mut chain = vec![Inode::root()];
        let mut parent_id = ROOT_INODE_ID;
        let ancestors: Vec<DfsPath> = path.ancestors().collect();
        for node in ancestors.into_iter().skip(1).chain(std::iter::once(path.clone())) {
            let id = self.id_of(&node);
            let name = node.file_name().expect("non-root").to_string();
            chain.push(Inode::directory(id, parent_id, name));
            parent_id = id;
        }
        chain
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every op returns the same value from both caches, and the final
    /// stats, sizes, and surviving-entry sets are identical.
    #[test]
    fn arena_cache_matches_baseline(ops in prop::collection::vec(op(), 1..80)) {
        // Capacity far below the reachable path universe so the LRU is
        // constantly evicting; a small listing cache for the same reason.
        let mut arena = MetadataCache::with_listing_capacity(5, 3);
        let mut baseline = BaselineCache::with_listing_capacity(5, 3);
        let mut ids = IdSpace::new();
        let mut handed_out: Vec<(Listing, Vec<String>)> = Vec::new();

        for op in &ops {
            match op {
                Op::InsertChain(p) => {
                    let chain = ids.chain_for(p);
                    arena.insert_chain(p, &chain);
                    baseline.insert_chain(p, &chain);
                }
                Op::Lookup(p) => {
                    prop_assert_eq!(arena.lookup(p), baseline.lookup(p));
                }
                Op::LookupPrefix(p) => {
                    prop_assert_eq!(arena.lookup_prefix(p), baseline.lookup_prefix(p));
                }
                Op::InvalidateInode(p) => {
                    let id = ids.id_of(p);
                    prop_assert_eq!(arena.invalidate_inode(id), baseline.invalidate_inode(id));
                }
                Op::InvalidatePrefix(p) => {
                    prop_assert_eq!(arena.invalidate_prefix(p), baseline.invalidate_prefix(p));
                }
                Op::CacheListing(p, names) => {
                    let dir = ids.id_of(p);
                    arena.cache_listing(dir, Rc::new(names.iter().map(|n| interned(n)).collect()));
                    baseline.cache_listing(dir, names.clone());
                }
                Op::Listing(p) => {
                    let dir = ids.id_of(p);
                    let (shared, owned) = (arena.listing(dir), baseline.listing(dir));
                    prop_assert_eq!(shared.is_some(), owned.is_some());
                    handed_out.extend(shared.zip(owned));
                }
                Op::UpdateListing(p, name, present) => {
                    let dir = ids.id_of(p);
                    arena.update_listing(dir, interned(name), *present);
                    baseline.update_listing(dir, name, *present);
                }
                Op::InvalidateListing(p) => {
                    let dir = ids.id_of(p);
                    arena.invalidate_listing(dir);
                    baseline.invalidate_listing(dir);
                }
            }
            // Size must track op-by-op, not just at the end: a transient
            // divergence (say, an over-eager eviction that a later
            // invalidation masks) would hide otherwise.
            prop_assert_eq!(arena.len(), baseline.len());
            for (shared, owned) in &handed_out {
                prop_assert!(shared.iter().eq(owned.iter()), "{:?} != {:?}", shared, owned);
            }
        }

        prop_assert_eq!(arena.stats(), baseline.stats());
        // Surviving-entry set: every id ever assigned is cached in one
        // iff it is cached in the other. `contains_inode` takes `&self`,
        // so probing does not perturb LRU order or the counters.
        let assigned: Vec<(DfsPath, InodeId)> =
            ids.ids.iter().map(|(p, &id)| (p.clone(), id)).collect();
        for (p, id) in assigned {
            prop_assert_eq!(
                arena.contains_inode(id),
                baseline.contains_inode(id),
                "surviving-entry sets diverge at {} (inode {})", p, id
            );
        }
    }
}

/// A reply handed out before `update_listing` / `invalidate_listing` keeps
/// reading what it read, while the cache moves on.
#[test]
fn a_listing_reply_does_not_observe_later_cache_changes() {
    let mut cache = MetadataCache::new(16);
    cache.cache_listing(7, Rc::new(vec!["a", "c"]));
    let before = cache.listing(7).expect("cached");

    cache.update_listing(7, "b", true);
    cache.update_listing(7, "a", false);
    let after = cache.listing(7).expect("still cached");
    assert_eq!(*before, ["a", "c"]);
    assert_eq!(*after, ["b", "c"]);

    cache.invalidate_listing(7);
    assert_eq!(cache.listing(7), None);
    assert_eq!(*before, ["a", "c"]);
    assert_eq!(*after, ["b", "c"]);
}
