//! The in-memory metadata cache trie.
//!
//! Each λFS NameNode keeps cached metadata "stored in a trie data structure
//! maintained in-memory" (paper §3.3): a node per path component, holding
//! the [`Inode`] for that component when cached. NameNodes cache *all*
//! INodes along a resolved path, so a hit serves the whole permission-check
//! chain without touching the store.
//!
//! The trie supports the two invalidation granularities of the coherence
//! protocol: single-INode invalidation (§3.5) and **prefix (subtree)
//! invalidation** (Appendix D), which drops an entire cached subtree in one
//! traversal.
//!
//! Capacity is bounded (entries), with LRU eviction — the
//! "reduced-cache λFS" experiment (§5.2.3) shrinks this bound below the
//! workload's working-set size.
//!
//! ## Layout
//!
//! Nodes live in a slab (`Vec<Node>` plus a free list of recycled slots)
//! and refer to each other by `u32` index. Children are found through one
//! flat `HashMap` keyed by `(parent index, component symbol)` packed into a
//! `u64` — path components arrive pre-interned from [`DfsPath`], so a trie
//! descent hashes one integer per component and never touches component
//! strings. Recency is an **intrusive doubly-linked LRU list** threaded
//! through the nodes (`lru_prev`/`lru_next`): touch and evict are O(1)
//! pointer splices, with no ordered set and no timestamp scans. A node is
//! on the LRU list iff it holds an entry; interior nodes whose entry was
//! invalidated stay in the trie (they still route lookups) but cost no LRU
//! bookkeeping.
//!
//! `tests/cache_model.rs` states what the cache must do as a path-keyed
//! model (a `HashMap` of entries, a `VecDeque` LRU) and holds the trie to
//! it under random operation sequences at random capacities.

use std::collections::HashMap;
use std::rc::Rc;

use lambda_store::MixBuild;

use crate::inode::{Inode, InodeId};
use crate::ops::Listing;
use crate::path::{DfsPath, Sym};

/// Cache effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Full-chain lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to go to the store.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Entries dropped by single-INode invalidations.
    pub invalidations: u64,
    /// Entries dropped by prefix invalidations.
    pub prefix_invalidations: u64,
    /// Directory listings served from the cache.
    pub listing_hits: u64,
    /// Directory listings that had to scan the store.
    pub listing_misses: u64,
}

impl CacheStats {
    /// Hit ratio over all lookups, or 0 when none occurred.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Sentinel for "no node" in the slab's intrusive lists.
const NIL: u32 = u32::MAX;
/// The root's slab slot (never freed).
const ROOT: u32 = 0;

fn child_key(parent: u32, sym: Sym) -> u64 {
    (u64::from(parent) << 32) | u64::from(sym.0)
}

#[derive(Debug)]
struct Node {
    /// Component symbol naming this node under its parent.
    name: Sym,
    parent: u32,
    /// Head of this node's sibling-linked child list.
    first_child: u32,
    next_sib: u32,
    prev_sib: u32,
    /// Intrusive LRU links; on the list iff `entry.is_some()`.
    lru_prev: u32,
    lru_next: u32,
    entry: Option<Inode>,
}

impl Node {
    fn new(name: Sym, parent: u32) -> Node {
        Node {
            name,
            parent,
            first_child: NIL,
            next_sib: NIL,
            prev_sib: NIL,
            lru_prev: NIL,
            lru_next: NIL,
            entry: None,
        }
    }
}

/// A bounded, LRU-evicting metadata trie.
///
/// # Examples
///
/// ```
/// use lambda_namespace::{Inode, MetadataCache};
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
    nodes: Vec<Node>,
    free: Vec<u32>,
    children: HashMap<u64, u32, MixBuild>,
    by_id: HashMap<InodeId, u32, MixBuild>,
    /// Most recently used entry.
    lru_head: u32,
    /// Least recently used entry — the next eviction victim.
    lru_tail: u32,
    capacity: usize,
    len: usize,
    listings: HashMap<InodeId, Listing, MixBuild>,
    listing_capacity: usize,
    stats: CacheStats,
    /// Reusable scratch for the node indices of a path walk.
    walk: Vec<u32>,
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
        MetadataCache {
            nodes: vec![Node::new(Sym(0), NIL)],
            free: Vec::new(),
            children: HashMap::default(),
            by_id: HashMap::default(),
            lru_head: NIL,
            lru_tail: NIL,
            capacity,
            len: 0,
            listings: HashMap::default(),
            listing_capacity,
            stats: CacheStats::default(),
            walk: Vec::new(),
        }
    }

    /// Caches a directory's child names (kept sorted so in-place updates
    /// can binary-search). The cache keeps `names` itself — a store scan
    /// arrives in key order, so the reply that filled the cache and the
    /// cache share one allocation — and sorts a private copy only if it
    /// must. When the listing bound is hit the listing cache is flushed
    /// wholesale (coarse but sufficient: λFS's benefit comes from repeated
    /// `ls` of hot directories).
    pub fn cache_listing(&mut self, dir: InodeId, mut names: Listing) {
        if self.listings.len() >= self.listing_capacity {
            self.listings.clear();
        }
        if !names.is_sorted() {
            Rc::make_mut(&mut names).sort_unstable();
        }
        self.listings.insert(dir, names);
    }

    /// Looks up a cached listing, recording hit/miss statistics. A hit
    /// shares the cached names (a reference-count bump); later updates to
    /// the cache never show through a listing already handed out.
    pub fn listing(&mut self, dir: InodeId) -> Option<Listing> {
        match self.listings.get(&dir) {
            Some(names) => {
                self.stats.listing_hits += 1;
                Some(Rc::clone(names))
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
    /// store round trip). Copy-on-write: the names are copied first if a
    /// reply still shares them. No-op when the listing is not cached.
    pub fn update_listing(&mut self, dir: InodeId, name: &'static str, present: bool) {
        if let Some(names) = self.listings.get_mut(&dir) {
            match (names.binary_search(&name), present) {
                (Ok(idx), false) => {
                    Rc::make_mut(names).remove(idx);
                }
                (Err(idx), true) => Rc::make_mut(names).insert(idx, name),
                (Ok(_), true) | (Err(_), false) => {}
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

    fn child(&self, parent: u32, sym: Sym) -> Option<u32> {
        self.children.get(&child_key(parent, sym)).copied()
    }

    fn lru_unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &mut self.nodes[idx as usize];
            let links = (n.lru_prev, n.lru_next);
            n.lru_prev = NIL;
            n.lru_next = NIL;
            links
        };
        if prev == NIL {
            self.lru_head = next;
        } else {
            self.nodes[prev as usize].lru_next = next;
        }
        if next == NIL {
            self.lru_tail = prev;
        } else {
            self.nodes[next as usize].lru_prev = prev;
        }
    }

    fn lru_push_front(&mut self, idx: u32) {
        let head = self.lru_head;
        {
            let n = &mut self.nodes[idx as usize];
            n.lru_prev = NIL;
            n.lru_next = head;
        }
        if head == NIL {
            self.lru_tail = idx;
        } else {
            self.nodes[head as usize].lru_prev = idx;
        }
        self.lru_head = idx;
    }

    /// Moves a cached node to the MRU end; no-op for entryless nodes
    /// (which are not on the LRU list).
    fn touch(&mut self, idx: u32) {
        if self.nodes[idx as usize].entry.is_some() {
            self.lru_unlink(idx);
            self.lru_push_front(idx);
        }
    }

    /// Finds the trie node for `path`, if present.
    fn find(&self, path: &DfsPath) -> Option<u32> {
        let mut idx = ROOT;
        for &sym in path.comp_syms() {
            idx = self.child(idx, sym)?;
        }
        Some(idx)
    }

    /// Walks `path` into `self.walk` (root first) and reports whether
    /// **every** component — including the root inode — is cached. A full
    /// hit refreshes the chain's LRU positions root-first and counts a
    /// hit; anything else counts a miss.
    fn walk_full_chain(&mut self, path: &DfsPath) -> bool {
        let mut idxs = std::mem::take(&mut self.walk);
        idxs.clear();
        idxs.push(ROOT);
        let mut idx = ROOT;
        let mut hit = true;
        for &sym in path.comp_syms() {
            match self.child(idx, sym) {
                Some(child) => {
                    idx = child;
                    idxs.push(child);
                }
                None => {
                    hit = false;
                    break;
                }
            }
        }
        hit = hit && idxs.iter().all(|&i| self.nodes[i as usize].entry.is_some());
        if hit {
            for &i in &idxs {
                self.touch(i);
            }
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        self.walk = idxs;
        hit
    }

    /// Looks up the full inode chain (root → target) for `path`.
    ///
    /// Returns `Some(chain)` only when **every** component — including the
    /// root inode — is cached (a hit serves the whole permission-check
    /// walk); otherwise records a miss.
    pub fn lookup(&mut self, path: &DfsPath) -> Option<Vec<Inode>> {
        if !self.walk_full_chain(path) {
            return None;
        }
        let entry = |&i: &u32| self.nodes[i as usize].entry.clone().expect("full-chain hit");
        Some(self.walk.iter().map(entry).collect())
    }

    /// [`MetadataCache::lookup`] for a caller that needs only the target
    /// inode: the same hit condition, statistics and LRU refresh, without
    /// materializing the chain.
    pub fn lookup_target(&mut self, path: &DfsPath) -> Option<Inode> {
        if !self.walk_full_chain(path) {
            return None;
        }
        let target = *self.walk.last().expect("walk holds the root");
        self.nodes[target as usize].entry.clone()
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
        let mut idxs = std::mem::take(&mut self.walk);
        idxs.clear();
        idxs.push(ROOT);
        let mut idx = ROOT;
        for &sym in path.comp_syms() {
            match self.child(idx, sym) {
                Some(child) => {
                    idx = child;
                    idxs.push(child);
                }
                None => break,
            }
        }
        let mut chain = Vec::new();
        for &i in &idxs {
            match &self.nodes[i as usize].entry {
                Some(inode) => chain.push(inode.clone()),
                None => break,
            }
        }
        for &i in &idxs[..chain.len()] {
            self.touch(i);
        }
        self.walk = idxs;
        chain
    }

    /// Caches the resolved chain for `path` (root inode first).
    ///
    /// # Panics
    ///
    /// Panics if `chain.len() != path.depth() + 1`.
    pub fn insert_chain(&mut self, path: &DfsPath, chain: &[Inode]) {
        assert_eq!(chain.len(), path.depth() + 1, "chain must cover root through target");
        let mut idx = ROOT;
        self.set_entry(idx, &chain[0]);
        for (&sym, inode) in path.comp_syms().iter().zip(&chain[1..]) {
            let child = match self.child(idx, sym) {
                Some(c) => c,
                None => self.alloc_child(idx, sym),
            };
            self.set_entry(child, inode);
            idx = child;
        }
        while self.len > self.capacity {
            self.evict_one();
        }
    }

    /// Allocates a fresh child of `parent` named `sym` and links it into
    /// the parent's sibling list and the child map.
    fn alloc_child(&mut self, parent: u32, sym: Sym) -> u32 {
        let idx = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Node::new(sym, parent);
                slot
            }
            None => {
                self.nodes.push(Node::new(sym, parent));
                u32::try_from(self.nodes.len() - 1).expect("trie slab overflow")
            }
        };
        let first = self.nodes[parent as usize].first_child;
        self.nodes[idx as usize].next_sib = first;
        if first != NIL {
            self.nodes[first as usize].prev_sib = idx;
        }
        self.nodes[parent as usize].first_child = idx;
        self.children.insert(child_key(parent, sym), idx);
        idx
    }

    /// Unlinks `idx` from its parent's child map and sibling list and
    /// recycles the slot. The node must be entryless and childless.
    fn detach(&mut self, idx: u32) {
        let (parent, name, prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.parent, n.name, n.prev_sib, n.next_sib)
        };
        self.children.remove(&child_key(parent, name));
        if prev == NIL {
            self.nodes[parent as usize].first_child = next;
        } else {
            self.nodes[prev as usize].next_sib = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev_sib = prev;
        }
        self.free.push(idx);
    }

    fn set_entry(&mut self, idx: u32, inode: &Inode) {
        // An inode id may move (mv); drop any stale placement first.
        if let Some(&old_idx) = self.by_id.get(&inode.id) {
            if old_idx != idx {
                self.clear_entry(old_idx);
                self.prune(old_idx);
            }
        }
        let node = &mut self.nodes[idx as usize];
        let fresh = node.entry.is_none();
        node.entry = Some(inode.clone());
        if fresh {
            self.len += 1;
            self.stats.insertions += 1;
        } else {
            self.lru_unlink(idx);
        }
        self.lru_push_front(idx);
        self.by_id.insert(inode.id, idx);
    }

    /// Clears an entry without pruning; updates `len`, `by_id`, the LRU
    /// list, and any cached listing for the inode.
    fn clear_entry(&mut self, idx: u32) -> bool {
        match self.nodes[idx as usize].entry.take() {
            Some(inode) => {
                self.lru_unlink(idx);
                self.by_id.remove(&inode.id);
                self.listings.remove(&inode.id);
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// Removes childless, entryless nodes from `idx` upward.
    fn prune(&mut self, mut idx: u32) {
        while idx != ROOT {
            let node = &self.nodes[idx as usize];
            if node.entry.is_some() || node.first_child != NIL {
                break;
            }
            let parent = node.parent;
            self.detach(idx);
            idx = parent;
        }
    }

    fn evict_one(&mut self) {
        let idx = self.lru_tail;
        if idx == NIL {
            return;
        }
        self.lru_unlink(idx);
        if let Some(inode) = self.nodes[idx as usize].entry.take() {
            self.by_id.remove(&inode.id);
            self.listings.remove(&inode.id);
            self.len -= 1;
            self.stats.evictions += 1;
        }
        self.prune(idx);
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
            let mut child = self.nodes[idx as usize].first_child;
            while child != NIL {
                stack.push(child);
                child = self.nodes[child as usize].next_sib;
            }
        }
        let mut dropped = 0;
        for &idx in &subtree {
            if self.clear_entry(idx) {
                dropped += 1;
            }
        }
        self.stats.prefix_invalidations += dropped;
        // Remove subtree nodes bottom-up (children were pushed after
        // parents, so reverse order detaches leaves first), then prune
        // upward from the prefix node if it survived.
        let mut start_alive = true;
        for &idx in subtree.iter().rev() {
            if idx == ROOT {
                continue;
            }
            if self.nodes[idx as usize].first_child == NIL {
                self.detach(idx);
                if idx == start {
                    start_alive = false;
                }
            }
        }
        if start_alive {
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
    fn trie_node_stays_compact() {
        // Every cached inode is one node: seven u32 links and the 32-byte
        // `Inode` of `inode_row_stays_compact`, id included (the store's
        // id-addressed slots hold 24 bytes without it). A row that regrows
        // shows up here once per cache, not only in the store.
        assert_eq!(std::mem::size_of::<Node>(), 64);
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

    fn names(names: &[&'static str]) -> Listing {
        Rc::new(names.to_vec())
    }

    #[test]
    fn listing_cache_round_trip_and_stats() {
        let mut cache = MetadataCache::new(100);
        assert_eq!(cache.listing(7), None);
        cache.cache_listing(7, names(&["b", "a"]));
        // Stored sorted for in-place updates.
        assert_eq!(cache.listing(7), Some(names(&["a", "b"])));
        assert_eq!(cache.stats().listing_hits, 1);
        assert_eq!(cache.stats().listing_misses, 1);
    }

    #[test]
    fn update_listing_inserts_and_removes_in_order() {
        let mut cache = MetadataCache::new(100);
        cache.cache_listing(7, names(&["b", "d"]));
        cache.update_listing(7, "c", true);
        cache.update_listing(7, "a", true);
        cache.update_listing(7, "d", false);
        assert_eq!(cache.listing(7), Some(names(&["a", "b", "c"])));
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
    fn a_sorted_fill_and_every_hit_share_one_allocation() {
        let mut cache = MetadataCache::new(100);
        let filled = names(&["a", "b"]);
        cache.cache_listing(7, Rc::clone(&filled));
        let hit = cache.listing(7).unwrap();
        assert!(Rc::ptr_eq(&filled, &hit), "a hit must not copy the names");
        // An update while replies are out copies once, for the cache only.
        cache.update_listing(7, "c", true);
        assert_eq!(hit, names(&["a", "b"]));
        assert_eq!(cache.listing(7), Some(names(&["a", "b", "c"])));
        // With no reply outstanding the update is in place.
        drop((filled, hit));
        let before = Rc::as_ptr(&cache.listing(7).unwrap());
        cache.update_listing(7, "d", true);
        assert_eq!(Rc::as_ptr(&cache.listing(7).unwrap()), before);
    }

    #[test]
    fn lookup_target_is_lookup_without_the_chain() {
        let path = p("/a/b");
        let chain = vec![Inode::root(), Inode::directory(2, 1, "a"), Inode::file(3, 2, "b")];
        let (mut full, mut lean) = (MetadataCache::new(3), MetadataCache::new(3));
        assert_eq!(full.lookup(&path), None);
        assert_eq!(lean.lookup_target(&path), None);
        for cache in [&mut full, &mut lean] {
            cache.insert_chain(&path, &chain);
            cache.insert_chain(&p("/a"), &chain[..2]); // b is now the LRU entry
        }
        let target = lean.lookup_target(&path);
        assert_eq!(target.as_ref().map(|inode| inode.id), Some(3));
        assert_eq!(full.lookup(&path).unwrap().pop(), target);
        // The hit refreshed root, a, b in that order, so the next insertion
        // (which re-touches the root) evicts a, not b.
        for cache in [&mut full, &mut lean] {
            cache.insert_chain(&p("/x"), &[Inode::root(), Inode::file(9, 1, "x")]);
            assert!(cache.contains_inode(3) && !cache.contains_inode(2));
        }
        // A broken chain misses in both.
        assert_eq!(full.lookup(&path), None);
        assert_eq!(lean.lookup_target(&path), None);
        assert_eq!(full.stats(), lean.stats());
        assert_eq!((lean.stats().hits, lean.stats().misses), (1, 2));
    }

    #[test]
    fn invalidating_a_dir_inode_drops_its_listing() {
        let mut cache = MetadataCache::new(100);
        let path = p("/d");
        let chain = vec![Inode::root(), Inode::directory(2, 1, "d")];
        cache.insert_chain(&path, &chain);
        cache.cache_listing(2, names(&["x"]));
        cache.invalidate_inode(2);
        assert_eq!(cache.listing(2), None, "listing survived its inode's invalidation");
    }

    #[test]
    fn listing_capacity_flushes_wholesale() {
        let mut cache = MetadataCache::with_listing_capacity(100, 2);
        cache.cache_listing(1, names(&["a"]));
        cache.cache_listing(2, names(&["b"]));
        cache.cache_listing(3, names(&["c"])); // exceeds bound: flush
        assert_eq!(cache.listing(1), None);
        assert_eq!(cache.listing(2), None);
        assert_eq!(cache.listing(3), Some(names(&["c"])));
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
