//! Executable model of the NameNode metadata cache (§3.3, Appendix D).
//!
//! [`MetadataCache`] is a trie in a slab with an intrusive LRU list, an
//! id index and a listing map. What it must do is written down here as a
//! path-keyed model:
//!
//! * an entry is an [`Inode`] cached at a path; an inode id is cached at
//!   one path at a time, and caching it elsewhere drops the old entry;
//! * recency is a queue of cached paths, least recently used first: an
//!   insert or a hit moves each path of the chain to the back, root first,
//!   and while more than `capacity` entries are cached the front one is
//!   evicted;
//! * a lookup hits only when every path from the root to the target is
//!   cached; a prefix lookup returns the cached run from the root and
//!   refreshes it without counting;
//! * dropping an entry, whatever the reason, drops the listing cached
//!   under its inode id; a listing is the set of child names, and caching
//!   one when `listing_capacity` listings are cached flushes them all first.
//!
//! Random operation sequences at random capacities run on both. Every
//! return value, the size, the statistics and the set of cached inode ids
//! must agree after every operation. Every listing the cache hands out is
//! kept and must read, after every later operation, what the model's
//! listing read when it was handed out.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::rc::Rc;

use lambda_namespace::{
    interned, CacheStats, DfsPath, Inode, InodeId, Listing, MetadataCache, ROOT_INODE_ID,
};
use proptest::prelude::*;

struct Model {
    capacity: usize,
    listing_capacity: usize,
    entries: HashMap<DfsPath, Inode>,
    paths: HashMap<InodeId, DfsPath>,
    /// Cached paths, least recently used first.
    lru: VecDeque<DfsPath>,
    listings: HashMap<InodeId, BTreeSet<&'static str>>,
    stats: CacheStats,
}

/// The paths of `path`'s chain, root first.
fn chain_paths(path: &DfsPath) -> impl Iterator<Item = DfsPath> + '_ {
    path.ancestors().chain(std::iter::once(path.clone()))
}

impl Model {
    fn new(capacity: usize, listing_capacity: usize) -> Self {
        Model {
            capacity,
            listing_capacity,
            entries: HashMap::new(),
            paths: HashMap::new(),
            lru: VecDeque::new(),
            listings: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    fn touch(&mut self, path: &DfsPath) {
        self.lru.retain(|p| p != path);
        self.lru.push_back(path.clone());
    }

    fn remove(&mut self, path: &DfsPath) {
        if let Some(inode) = self.entries.remove(path) {
            self.paths.remove(&inode.id);
            self.listings.remove(&inode.id);
            self.lru.retain(|p| p != path);
        }
    }

    fn insert_chain(&mut self, path: &DfsPath, chain: &[Inode]) {
        for (p, inode) in chain_paths(path).zip(chain) {
            if let Some(old) = self.paths.get(&inode.id).filter(|old| **old != p).cloned() {
                self.remove(&old);
            }
            if self.entries.insert(p.clone(), inode.clone()).is_none() {
                self.stats.insertions += 1;
            }
            self.paths.insert(inode.id, p.clone());
            self.touch(&p);
        }
        while self.entries.len() > self.capacity {
            let victim = self.lru.front().cloned().expect("over capacity");
            self.remove(&victim);
            self.stats.evictions += 1;
        }
    }

    fn lookup(&mut self, path: &DfsPath) -> Option<Vec<Inode>> {
        let chain: Option<Vec<Inode>> =
            chain_paths(path).map(|p| self.entries.get(&p).cloned()).collect();
        if chain.is_some() {
            self.stats.hits += 1;
            for p in chain_paths(path) {
                self.touch(&p);
            }
        } else {
            self.stats.misses += 1;
        }
        chain
    }

    fn lookup_prefix(&mut self, path: &DfsPath) -> Vec<Inode> {
        let run: Vec<(DfsPath, Inode)> = chain_paths(path)
            .map_while(|p| self.entries.get(&p).cloned().map(|inode| (p, inode)))
            .collect();
        for (p, _) in &run {
            self.touch(p);
        }
        run.into_iter().map(|(_, inode)| inode).collect()
    }

    fn invalidate_inode(&mut self, id: InodeId) -> bool {
        let Some(path) = self.paths.get(&id).cloned() else { return false };
        self.remove(&path);
        self.stats.invalidations += 1;
        true
    }

    fn invalidate_prefix(&mut self, prefix: &DfsPath) -> u64 {
        let doomed: Vec<DfsPath> =
            self.entries.keys().filter(|p| p.starts_with(prefix)).cloned().collect();
        for p in &doomed {
            self.remove(p);
        }
        self.stats.prefix_invalidations += doomed.len() as u64;
        doomed.len() as u64
    }

    fn cache_listing(&mut self, dir: InodeId, names: &[&'static str]) {
        if self.listings.len() >= self.listing_capacity {
            self.listings.clear();
        }
        self.listings.insert(dir, names.iter().copied().collect());
    }

    fn listing(&mut self, dir: InodeId) -> Option<Vec<&'static str>> {
        let names = self.listings.get(&dir).map(|names| names.iter().copied().collect());
        match names {
            Some(_) => self.stats.listing_hits += 1,
            None => self.stats.listing_misses += 1,
        }
        names
    }

    fn update_listing(&mut self, dir: InodeId, name: &'static str, present: bool) {
        if let Some(names) = self.listings.get_mut(&dir) {
            if present {
                names.insert(name);
            } else {
                names.remove(name);
            }
        }
    }
}

/// One cache operation, path-addressed; the driver assigns inode ids.
#[derive(Debug, Clone)]
enum Op {
    InsertChain(DfsPath),
    Lookup(DfsPath),
    LookupTarget(DfsPath),
    LookupPrefix(DfsPath),
    InvalidateInode(DfsPath),
    InvalidatePrefix(DfsPath),
    CacheListing(DfsPath, Vec<&'static str>),
    Listing(DfsPath),
    UpdateListing(DfsPath, &'static str, bool),
    InvalidateListing(DfsPath),
}

/// A tiny component alphabet, so that sequences revisit, nest and collide.
fn component() -> impl Strategy<Value = &'static str> {
    prop::sample::select(vec!["a", "b", "c", "dd", "e"]).prop_map(interned)
}

/// The root now and then; otherwise one to four components.
fn path() -> impl Strategy<Value = DfsPath> {
    prop_oneof![
        1 => Just(DfsPath::root()),
        9 => prop::collection::vec(component(), 1..=4)
            .prop_map(|comps| format!("/{}", comps.join("/")).parse().expect("valid path")),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => path().prop_map(Op::InsertChain),
        2 => path().prop_map(Op::Lookup),
        2 => path().prop_map(Op::LookupTarget),
        2 => path().prop_map(Op::LookupPrefix),
        1 => path().prop_map(Op::InvalidateInode),
        1 => path().prop_map(Op::InvalidatePrefix),
        1 => (path(), prop::collection::vec(component(), 0..4))
            .prop_map(|(p, names)| Op::CacheListing(p, names)),
        1 => path().prop_map(Op::Listing),
        1 => (path(), component(), any::<bool>())
            .prop_map(|(p, name, present)| Op::UpdateListing(p, name, present)),
        1 => path().prop_map(Op::InvalidateListing),
    ]
}

/// Stable inode ids per path, in first-use order, and the root-to-target
/// directory chains `insert_chain` takes. Every inode is a directory, so
/// any path can later appear as an ancestor.
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
        let next = &mut self.next;
        *self.ids.entry(path.clone()).or_insert_with(|| {
            *next += 1;
            *next - 1
        })
    }

    fn chain_for(&mut self, path: &DfsPath) -> Vec<Inode> {
        let mut chain = vec![Inode::root()];
        for p in chain_paths(path).skip(1) {
            let parent = chain.last().expect("root first").id;
            let name = p.file_name().expect("non-root");
            chain.push(Inode::directory(self.id_of(&p), parent, name));
        }
        chain
    }
}

/// Runs `ops` on the cache and the model, comparing them after every op.
fn check(capacity: usize, listing_capacity: usize, ops: &[Op]) {
    let mut cache = MetadataCache::with_listing_capacity(capacity, listing_capacity);
    let mut model = Model::new(capacity, listing_capacity);
    let mut ids = IdSpace::new();
    let mut handed_out: Vec<(Listing, Vec<&'static str>)> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::InsertChain(p) => {
                let chain = ids.chain_for(p);
                cache.insert_chain(p, &chain);
                model.insert_chain(p, &chain);
            }
            Op::Lookup(p) => assert_eq!(cache.lookup(p), model.lookup(p), "step {step}"),
            Op::LookupTarget(p) => {
                let want = model.lookup(p).and_then(|mut chain| chain.pop());
                assert_eq!(cache.lookup_target(p), want, "step {step}");
            }
            Op::LookupPrefix(p) => {
                assert_eq!(cache.lookup_prefix(p), model.lookup_prefix(p), "step {step}");
            }
            Op::InvalidateInode(p) => {
                let id = ids.id_of(p);
                assert_eq!(cache.invalidate_inode(id), model.invalidate_inode(id), "step {step}");
            }
            Op::InvalidatePrefix(p) => {
                assert_eq!(cache.invalidate_prefix(p), model.invalidate_prefix(p), "step {step}");
            }
            Op::CacheListing(p, names) => {
                let dir = ids.id_of(p);
                let mut unique = BTreeSet::new();
                let names: Vec<&'static str> =
                    names.iter().copied().filter(|name| unique.insert(*name)).collect();
                cache.cache_listing(dir, Rc::new(names.clone()));
                model.cache_listing(dir, &names);
            }
            Op::Listing(p) => {
                let dir = ids.id_of(p);
                let (got, want) = (cache.listing(dir), model.listing(dir));
                assert_eq!(got.as_deref(), want.as_ref(), "step {step}");
                handed_out.extend(got.zip(want));
            }
            Op::UpdateListing(p, name, present) => {
                let dir = ids.id_of(p);
                cache.update_listing(dir, name, *present);
                model.update_listing(dir, name, *present);
            }
            Op::InvalidateListing(p) => {
                let dir = ids.id_of(p);
                cache.invalidate_listing(dir);
                model.listings.remove(&dir);
            }
        }
        assert_eq!(cache.len(), model.entries.len(), "len after step {step}");
        assert_eq!(cache.stats(), model.stats, "stats after step {step}");
        for (shared, read) in &handed_out {
            assert_eq!(**shared, *read, "a listing handed out changed at step {step}");
        }
        // `contains_inode` takes `&self`: probing moves neither recency
        // nor the counters.
        for id in ids.ids.values().copied().chain([ROOT_INODE_ID]) {
            let cached = model.paths.contains_key(&id);
            assert_eq!(cache.contains_inode(id), cached, "inode {id} after step {step}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn cache_matches_the_path_keyed_model(
        capacity in 1usize..=8,
        listing_capacity in 1usize..=4,
        ops in prop::collection::vec(op(), 1..100),
    ) {
        check(capacity, listing_capacity, &ops);
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
