//! The **pre-overhaul** metadata cache trie, retained verbatim as the
//! reference of a differential test.
//!
//! PR 3 replaced this `HashMap<String, usize>`-child, `BTreeSet`-LRU trie
//! with the arena/symbol-keyed trie in [`crate::MetadataCache`]. The two
//! implementations must stay observationally equivalent: the differential
//! proptest in `tests/cache_differential.rs` drives identical operation
//! sequences through both and asserts equal statistics and surviving-entry
//! sets. Do not "improve" this module — its value is standing still — and
//! use it nowhere outside tests (`scripts/verify.sh` fails if any other
//! `.rs` file names it).

use std::collections::{BTreeSet, HashMap};

use crate::cache::CacheStats;
use crate::inode::{Inode, InodeId};
use crate::path::DfsPath;

#[derive(Debug)]
struct Node {
    name: String,
    parent: Option<usize>,
    children: HashMap<String, usize>,
    entry: Option<Inode>,
    last_used: u64,
}

/// A bounded, LRU-evicting metadata trie.
///
/// # Examples
///
/// ```
/// use lambda_namespace::Inode;
/// use lambda_namespace::cache_baseline::MetadataCache;
///
/// let mut cache = MetadataCache::new(1024);
/// let path = "/a/b".parse().unwrap();
/// let chain = vec![
///     Inode::root(),
///     Inode::directory(2, 1, "a"),
///     Inode::file(3, 2, "b"),
/// ];
/// cache.insert_chain(&path, &chain);
/// assert_eq!(cache.lookup(&path).unwrap()[2].id, 3);
/// cache.invalidate_inode(3);
/// assert!(cache.lookup(&path).is_none());
/// ```
#[derive(Debug)]
pub struct MetadataCache {
    nodes: Vec<Option<Node>>,
    free: Vec<usize>,
    root: usize,
    by_id: HashMap<InodeId, usize>,
    lru: BTreeSet<(u64, usize)>,
    tick: u64,
    capacity: usize,
    len: usize,
    listings: HashMap<InodeId, Vec<String>>,
    listing_capacity: usize,
    stats: CacheStats,
}

impl MetadataCache {
    /// Creates a cache bounded at `capacity` cached inodes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_listing_capacity(capacity, (capacity / 4).max(1))
    }

    /// Creates a cache with an explicit directory-listing bound.
    ///
    /// # Panics
    ///
    /// Panics if either capacity is zero.
    #[must_use]
    pub fn with_listing_capacity(capacity: usize, listing_capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(listing_capacity > 0, "listing capacity must be positive");
        let root = Node {
            name: String::new(),
            parent: None,
            children: HashMap::new(),
            entry: None,
            last_used: 0,
        };
        MetadataCache {
            nodes: vec![Some(root)],
            free: Vec::new(),
            root: 0,
            by_id: HashMap::new(),
            lru: BTreeSet::new(),
            tick: 0,
            capacity,
            len: 0,
            listings: HashMap::new(),
            listing_capacity,
            stats: CacheStats::default(),
        }
    }

    /// Caches a directory's child names (kept sorted so in-place updates
    /// can binary-search). When the listing bound is hit the listing cache
    /// is flushed wholesale (coarse but sufficient: λFS's benefit comes
    /// from repeated `ls` of hot directories).
    pub fn cache_listing(&mut self, dir: InodeId, mut names: Vec<String>) {
        if self.listings.len() >= self.listing_capacity {
            self.listings.clear();
        }
        names.sort_unstable();
        self.listings.insert(dir, names);
    }

    /// Looks up a cached listing, recording hit/miss statistics.
    pub fn listing(&mut self, dir: InodeId) -> Option<Vec<String>> {
        match self.listings.get(&dir) {
            Some(names) => {
                self.stats.listing_hits += 1;
                Some(names.clone())
            }
            None => {
                self.stats.listing_misses += 1;
                None
            }
        }
    }

    /// Drops a cached listing (a child was created/deleted/moved).
    pub fn invalidate_listing(&mut self, dir: InodeId) {
        self.listings.remove(&dir);
    }

    /// Applies an in-place listing delta: a coherence INV that *names* the
    /// created/deleted child lets caches update their listing instead of
    /// dropping it (equivalent to invalidate-then-refill, without the
    /// store round trip). No-op when the listing is not cached.
    pub fn update_listing(&mut self, dir: InodeId, name: &str, present: bool) {
        if let Some(names) = self.listings.get_mut(&dir) {
            match (names.binary_search_by(|n| n.as_str().cmp(name)), present) {
                (Ok(_), true) => {}
                (Ok(idx), false) => {
                    names.remove(idx);
                }
                (Err(idx), true) => names.insert(idx, name.to_string()),
                (Err(_), false) => {}
            }
        }
    }

    /// Number of cached inodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn node(&self, idx: usize) -> &Node {
        self.nodes[idx].as_ref().expect("live node")
    }

    fn node_mut(&mut self, idx: usize) -> &mut Node {
        self.nodes[idx].as_mut().expect("live node")
    }

    fn touch(&mut self, idx: usize) {
        self.tick += 1;
        let tick = self.tick;
        let node = self.node_mut(idx);
        let had_entry = node.entry.is_some();
        let old = node.last_used;
        node.last_used = tick;
        if had_entry {
            self.lru.remove(&(old, idx));
            self.lru.insert((tick, idx));
        }
    }

    /// Finds the trie node for `path`, if present.
    fn find(&self, path: &DfsPath) -> Option<usize> {
        let mut idx = self.root;
        for comp in path.components() {
            idx = *self.node(idx).children.get(comp)?;
        }
        Some(idx)
    }

    /// Looks up the full inode chain (root → target) for `path`.
    ///
    /// Returns `Some(chain)` only when **every** component — including the
    /// root inode — is cached (a hit serves the whole permission-check
    /// walk); otherwise records a miss.
    pub fn lookup(&mut self, path: &DfsPath) -> Option<Vec<Inode>> {
        let mut idxs = vec![self.root];
        let mut idx = self.root;
        for comp in path.components() {
            match self.node(idx).children.get(comp) {
                Some(child) => {
                    idx = *child;
                    idxs.push(idx);
                }
                None => {
                    self.stats.misses += 1;
                    return None;
                }
            }
        }
        let mut chain = Vec::with_capacity(idxs.len());
        for i in &idxs {
            match &self.node(*i).entry {
                Some(inode) => chain.push(inode.clone()),
                None => {
                    self.stats.misses += 1;
                    return None;
                }
            }
        }
        for i in idxs {
            self.touch(i);
        }
        self.stats.hits += 1;
        Some(chain)
    }

    /// The longest cached prefix of `path`'s chain, starting at the root
    /// inode (so the result is never empty unless the root itself is
    /// uncached). Used for partial fills: a miss only fetches the suffix
    /// the trie does not hold — in particular, the root and hot ancestor
    /// directories are almost never re-read from the store.
    ///
    /// Does not count hit/miss statistics (the caller records the miss)
    /// but does refresh the prefix's LRU position.
    pub fn lookup_prefix(&mut self, path: &DfsPath) -> Vec<Inode> {
        let mut idxs = vec![self.root];
        let mut idx = self.root;
        for comp in path.components() {
            match self.node(idx).children.get(comp) {
                Some(child) => {
                    idx = *child;
                    idxs.push(idx);
                }
                None => break,
            }
        }
        let mut chain = Vec::new();
        for i in idxs {
            match &self.node(i).entry {
                Some(inode) => chain.push(inode.clone()),
                None => break,
            }
        }
        // Touch after the immutable walk.
        let len = chain.len();
        let mut idx = self.root;
        let mut touched = 0;
        if len > 0 {
            self.touch(idx);
            touched += 1;
        }
        for comp in path.components() {
            if touched >= len {
                break;
            }
            match self.node(idx).children.get(comp).copied() {
                Some(child) => {
                    idx = child;
                    self.touch(idx);
                    touched += 1;
                }
                None => break,
            }
        }
        chain
    }

    /// Caches the resolved chain for `path` (root inode first).
    ///
    /// # Panics
    ///
    /// Panics if `chain.len() != path.depth() + 1`.
    pub fn insert_chain(&mut self, path: &DfsPath, chain: &[Inode]) {
        assert_eq!(chain.len(), path.depth() + 1, "chain must cover root through target");
        let mut idx = self.root;
        self.set_entry(idx, chain[0].clone());
        for (comp, inode) in path.components().zip(&chain[1..]) {
            let child = match self.node(idx).children.get(comp) {
                Some(c) => *c,
                None => {
                    let c = self.alloc(Node {
                        name: comp.to_string(),
                        parent: Some(idx),
                        children: HashMap::new(),
                        entry: None,
                        last_used: 0,
                    });
                    self.node_mut(idx).children.insert(comp.to_string(), c);
                    c
                }
            };
            self.set_entry(child, inode.clone());
            idx = child;
        }
        while self.len > self.capacity {
            self.evict_one();
        }
    }

    fn alloc(&mut self, node: Node) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = Some(node);
                idx
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        }
    }

    fn set_entry(&mut self, idx: usize, inode: Inode) {
        // An inode id may move (mv); drop any stale placement first.
        if let Some(&old_idx) = self.by_id.get(&inode.id) {
            if old_idx != idx {
                self.clear_entry(old_idx);
                self.prune(old_idx);
            }
        }
        let node = self.node_mut(idx);
        let fresh = node.entry.is_none();
        node.entry = Some(inode.clone());
        if fresh {
            self.len += 1;
            self.stats.insertions += 1;
        }
        self.by_id.insert(inode.id, idx);
        self.touch(idx);
    }

    /// Clears an entry without pruning; updates `len`, `by_id`, `lru`.
    fn clear_entry(&mut self, idx: usize) -> bool {
        let node = self.node_mut(idx);
        match node.entry.take() {
            Some(inode) => {
                let last = node.last_used;
                self.lru.remove(&(last, idx));
                self.by_id.remove(&inode.id);
                self.listings.remove(&inode.id);
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Removes childless, entryless nodes from `idx` upward.
    fn prune(&mut self, mut idx: usize) {
        while idx != self.root {
            let node = self.node(idx);
            if node.entry.is_some() || !node.children.is_empty() {
                break;
            }
            let parent = node.parent.expect("non-root has a parent");
            let name = node.name.clone();
            self.node_mut(parent).children.remove(&name);
            self.nodes[idx] = None;
            self.free.push(idx);
            idx = parent;
        }
    }

    fn evict_one(&mut self) {
        if let Some(&(tick, idx)) = self.lru.iter().next() {
            self.lru.remove(&(tick, idx));
            // clear_entry re-removes from lru (no-op) and fixes len/by_id.
            let node = self.node_mut(idx);
            if let Some(inode) = node.entry.take() {
                self.by_id.remove(&inode.id);
                self.listings.remove(&inode.id);
                self.len -= 1;
                self.stats.evictions += 1;
            }
            self.prune(idx);
        }
    }

    /// Drops the entry for `id`, wherever it is cached (single-INode INV).
    /// Returns whether anything was dropped.
    pub fn invalidate_inode(&mut self, id: InodeId) -> bool {
        match self.by_id.get(&id).copied() {
            Some(idx) => {
                if self.clear_entry(idx) {
                    self.stats.invalidations += 1;
                }
                self.prune(idx);
                true
            }
            None => false,
        }
    }

    /// Drops every cached entry at or under `prefix` (subtree INV,
    /// Appendix D). Returns the number of entries dropped.
    pub fn invalidate_prefix(&mut self, prefix: &DfsPath) -> u64 {
        let Some(start) = self.find(prefix) else { return 0 };
        // Collect the subtree, then clear.
        let mut stack = vec![start];
        let mut subtree = Vec::new();
        while let Some(idx) = stack.pop() {
            subtree.push(idx);
            stack.extend(self.node(idx).children.values().copied());
        }
        let mut dropped = 0;
        for idx in &subtree {
            if self.clear_entry(*idx) {
                dropped += 1;
            }
        }
        self.stats.prefix_invalidations += dropped;
        // Remove subtree nodes bottom-up (children were pushed after
        // parents, so reverse order is safe), then prune upward from the
        // prefix node.
        for idx in subtree.into_iter().rev() {
            if idx == self.root {
                continue;
            }
            let node = self.node(idx);
            if node.children.is_empty() {
                let parent = node.parent.expect("non-root");
                let name = node.name.clone();
                self.node_mut(parent).children.remove(&name);
                self.nodes[idx] = None;
                self.free.push(idx);
            }
        }
        if self.nodes[start].is_some() {
            self.prune(start);
        }
        dropped
    }

    /// Whether an inode id is currently cached.
    #[must_use]
    pub fn contains_inode(&self, id: InodeId) -> bool {
        self.by_id.contains_key(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> DfsPath {
        s.parse().unwrap()
    }

    fn chain_for(path: &str, ids: &[InodeId]) -> (DfsPath, Vec<Inode>) {
        let path: DfsPath = path.parse().unwrap();
        let comps: Vec<&str> = path.components().collect();
        assert_eq!(ids.len(), comps.len() + 1);
        let mut chain = vec![Inode::root()];
        for (i, comp) in comps.iter().enumerate() {
            let parent = ids[i];
            let id = ids[i + 1];
            let inode = if i + 1 == comps.len() {
                Inode::file(id, parent, *comp)
            } else {
                Inode::directory(id, parent, *comp)
            };
            chain.push(inode);
        }
        (path, chain)
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let mut cache = MetadataCache::new(100);
        let (path, chain) = chain_for("/a/b", &[1, 2, 3]);
        assert!(cache.lookup(&path).is_none());
        cache.insert_chain(&path, &chain);
        let got = cache.lookup(&path).unwrap();
        assert_eq!(got.len(), 3);
        assert_eq!(got[2].id, 3);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn partial_chain_is_a_miss() {
        let mut cache = MetadataCache::new(100);
        let (path, chain) = chain_for("/a/b", &[1, 2, 3]);
        cache.insert_chain(&path, &chain);
        // Invalidate the middle component: the full chain is broken.
        assert!(cache.invalidate_inode(2));
        assert!(cache.lookup(&path).is_none());
        // But a sibling chain sharing only the root still works once
        // reinserted.
        let (p2, c2) = chain_for("/x", &[1, 9]);
        cache.insert_chain(&p2, &c2);
        assert!(cache.lookup(&p2).is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used_entry() {
        let mut cache = MetadataCache::new(3);
        let (pa, ca) = chain_for("/a", &[1, 2]);
        let (pb, cb) = chain_for("/b", &[1, 3]);
        cache.insert_chain(&pa, &ca); // root + a = 2 entries
        cache.insert_chain(&pb, &cb); // + b = 3 entries
        assert!(cache.lookup(&pa).is_some()); // a is now MRU
        let (pc, cc) = chain_for("/c", &[1, 4]);
        cache.insert_chain(&pc, &cc); // over capacity: evict LRU = b
        assert!(cache.lookup(&pb).is_none(), "b should be evicted");
        assert!(cache.lookup(&pa).is_some());
        assert!(cache.lookup(&pc).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.len() <= 3);
    }

    #[test]
    fn prefix_invalidation_drops_whole_subtree() {
        let mut cache = MetadataCache::new(100);
        let (p1, c1) = chain_for("/dir/sub/f1", &[1, 2, 3, 4]);
        let (p2, c2) = chain_for("/dir/sub/f2", &[1, 2, 3, 5]);
        let (p3, c3) = chain_for("/other/g", &[1, 6, 7]);
        cache.insert_chain(&p1, &c1);
        cache.insert_chain(&p2, &c2);
        cache.insert_chain(&p3, &c3);
        let dropped = cache.invalidate_prefix(&p("/dir"));
        assert_eq!(dropped, 4); // dir, sub, f1, f2
        assert!(cache.lookup(&p1).is_none());
        assert!(cache.lookup(&p2).is_none());
        assert!(cache.lookup(&p3).is_some(), "unrelated subtree survived");
        assert!(!cache.contains_inode(3));
    }

    #[test]
    fn prefix_invalidation_of_missing_path_is_noop() {
        let mut cache = MetadataCache::new(10);
        assert_eq!(cache.invalidate_prefix(&p("/nope")), 0);
    }

    #[test]
    fn reinsert_after_invalidation_works() {
        let mut cache = MetadataCache::new(100);
        let (path, chain) = chain_for("/a/b", &[1, 2, 3]);
        cache.insert_chain(&path, &chain);
        cache.invalidate_prefix(&p("/a"));
        assert!(cache.lookup(&path).is_none());
        cache.insert_chain(&path, &chain);
        assert!(cache.lookup(&path).is_some());
    }

    #[test]
    fn moved_inode_id_relocates_its_entry() {
        let mut cache = MetadataCache::new(100);
        let (p1, c1) = chain_for("/a/f", &[1, 2, 7]);
        cache.insert_chain(&p1, &c1);
        assert!(cache.contains_inode(7));
        // The same inode id reappears at a new path (after a mv).
        let (p2, mut c2) = chain_for("/b/f", &[1, 3, 7]);
        c2[2].parent = 3;
        cache.insert_chain(&p2, &c2);
        assert!(cache.lookup(&p2).is_some());
        // The old placement no longer serves hits.
        assert!(cache.lookup(&p1).is_none());
        assert_eq!(cache.len(), 4); // root, a, b, f
    }

    #[test]
    fn capacity_bound_is_never_exceeded() {
        let mut cache = MetadataCache::new(16);
        for i in 0..200u64 {
            let (path, chain) = chain_for(&format!("/d{i}/f{i}"), &[1, 1000 + i, 2000 + i]);
            cache.insert_chain(&path, &chain);
            assert!(cache.len() <= 16, "len {} at i={i}", cache.len());
        }
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn deep_chains_cache_all_ancestors() {
        let mut cache = MetadataCache::new(100);
        let (path, chain) = chain_for("/a/b/c/d/e", &[1, 2, 3, 4, 5, 6]);
        cache.insert_chain(&path, &chain);
        // Any ancestor path should now be a full hit too.
        let (anc, anc_chain) = chain_for("/a/b/c", &[1, 2, 3, 4]);
        let got = cache.lookup(&anc).unwrap();
        assert_eq!(got.len(), anc_chain.len());
        assert_eq!(got[3].id, 4);
    }
}

#[cfg(test)]
mod listing_tests {
    use super::*;

    fn p(s: &str) -> DfsPath {
        s.parse().unwrap()
    }

    #[test]
    fn listing_cache_round_trip_and_stats() {
        let mut cache = MetadataCache::new(100);
        assert_eq!(cache.listing(7), None);
        cache.cache_listing(7, vec!["b".into(), "a".into()]);
        // Stored sorted for in-place updates.
        assert_eq!(cache.listing(7), Some(vec!["a".to_string(), "b".to_string()]));
        assert_eq!(cache.stats().listing_hits, 1);
        assert_eq!(cache.stats().listing_misses, 1);
    }

    #[test]
    fn update_listing_inserts_and_removes_in_order() {
        let mut cache = MetadataCache::new(100);
        cache.cache_listing(7, vec!["b".into(), "d".into()]);
        cache.update_listing(7, "c", true);
        cache.update_listing(7, "a", true);
        cache.update_listing(7, "d", false);
        assert_eq!(
            cache.listing(7),
            Some(vec!["a".to_string(), "b".to_string(), "c".to_string()])
        );
        // Idempotent in both directions.
        cache.update_listing(7, "a", true);
        cache.update_listing(7, "zz", false);
        assert_eq!(cache.listing(7).unwrap().len(), 3);
    }

    #[test]
    fn update_listing_on_uncached_dir_is_a_noop() {
        let mut cache = MetadataCache::new(100);
        cache.update_listing(9, "ghost", true);
        assert_eq!(cache.listing(9), None);
    }

    #[test]
    fn invalidating_a_dir_inode_drops_its_listing() {
        let mut cache = MetadataCache::new(100);
        let path = p("/d");
        let chain = vec![Inode::root(), Inode::directory(2, 1, "d")];
        cache.insert_chain(&path, &chain);
        cache.cache_listing(2, vec!["x".into()]);
        cache.invalidate_inode(2);
        assert_eq!(cache.listing(2), None, "listing survived its inode's invalidation");
    }

    #[test]
    fn listing_capacity_flushes_wholesale() {
        let mut cache = MetadataCache::with_listing_capacity(100, 2);
        cache.cache_listing(1, vec!["a".into()]);
        cache.cache_listing(2, vec!["b".into()]);
        cache.cache_listing(3, vec!["c".into()]); // exceeds bound: flush
        assert_eq!(cache.listing(1), None);
        assert_eq!(cache.listing(2), None);
        assert_eq!(cache.listing(3), Some(vec!["c".to_string()]));
    }

    #[test]
    fn lookup_prefix_returns_longest_cached_run() {
        let mut cache = MetadataCache::new(100);
        let path = p("/a/b/c");
        let chain = vec![
            Inode::root(),
            Inode::directory(2, 1, "a"),
            Inode::directory(3, 2, "b"),
            Inode::file(4, 3, "c"),
        ];
        cache.insert_chain(&path, &chain);
        // Full chain cached: the prefix is the whole chain.
        assert_eq!(cache.lookup_prefix(&path).len(), 4);
        // Knock out the middle: the prefix stops before it.
        cache.invalidate_inode(3);
        let prefix = cache.lookup_prefix(&path);
        assert_eq!(prefix.len(), 2);
        assert_eq!(prefix[1].id, 2);
        // Empty cache: empty prefix.
        let mut empty = MetadataCache::new(10);
        assert!(empty.lookup_prefix(&path).is_empty());
        // Prefix lookups do not skew hit/miss statistics.
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn lookup_prefix_of_unrelated_path_is_root_only() {
        let mut cache = MetadataCache::new(100);
        let (pa, ca) = (p("/a"), vec![Inode::root(), Inode::directory(2, 1, "a")]);
        cache.insert_chain(&pa, &ca);
        let prefix = cache.lookup_prefix(&p("/zzz/deep"));
        assert_eq!(prefix.len(), 1);
        assert_eq!(prefix[0].id, crate::inode::ROOT_INODE_ID);
    }
}
