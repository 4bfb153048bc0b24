//! Arena-backed B+ tree — the ordered engine under every `TypedTable`
//! whose keys are not sequence ids (the children index, blocks,
//! DataNodes, subtree locks). The inode table is id-addressed instead
//! ([`IdRows`](crate::idrows::IdRows)): its keys come from a sequence, so
//! a get needs no search at all.
//!
//! `std::collections::BTreeMap` spends the store's entire steady-state
//! budget at the fig08d scales on pointer-chasing: a 10M-inode table is
//! ~720 MB of individually boxed nodes holding at most 11 entries each, so
//! every point get walks ~7 levels of scattered heap, and each hop is a
//! DRAM *and* TLB miss. [`BpTree`] replaces it with a B+ tree whose nodes
//! live in flat per-tree arenas addressed by `u32` indices **with fixed
//! strides** — node `i`'s keys occupy `keys[i * CAP .. i * CAP + len[i]]`
//! of one contiguous buffer:
//!
//! * **No pointers, no per-node buffers.** Child references are arena
//!   indices and every key of every branch lives in one `Vec<K>`
//!   (`bkeys`), every leaf key in another (`lkeys`), values in a third.
//!   A descent level is therefore *one* dependent load (the key run at a
//!   computed offset), not two (node header, then its heap-allocated key
//!   buffer) — and a 10M-row table is a handful of giant allocations the
//!   allocator can back with huge pages, instead of hundreds of thousands
//!   of small ones each costing their own TLB entry.
//! * **High fanout.** Branches hold up to [`BRANCH_CAP`] = 128 separator
//!   keys (a 1 KiB key run for `u64` keys) and leaves hold
//!   [`LEAF_CAP`] = 64 entries, so a 10M-row tree is 4 levels deep where
//!   the std map needs 7. Node lengths live in their own dense arrays
//!   (4 bytes/node — L1/L2-resident even for million-node trees).
//! * **Struct-of-arrays nodes.** Keys and values live in separate
//!   buffers, so the binary search per node runs over one dense key run
//!   (512 B for `u64` leaf keys — 3–4 probed cache lines) instead of
//!   striding over 72-byte `(key, value)` pairs; the value buffer is
//!   touched exactly once, on the hit.
//! * **Leaf sibling links.** Range scans seek once and then walk `next`
//!   links leaf-by-leaf — no per-scan allocation, no re-descent, and the
//!   end bound is checked per *leaf* (one last-key compare), not per row
//!   ([`BpTree::scan_with`], [`BpTree::range`]). [`BpTree::count_range`]
//!   never touches interior rows at all: full middle leaves contribute
//!   `len()` by header.
//! * **Dense bulk build.** [`BpTree::from_ascending`] streams a sorted
//!   stream straight into the flat buffers at 100% fill, bottom-up: the
//!   bootstrap tree is loaded this way, never row by row.
//!
//! Observable behavior is identical to `BTreeMap`: same insert/remove
//! results, same sorted iteration order, and the same panics on inverted
//! ranges. `crates/store/tests/engine_differential.rs` pins the
//! equivalence against the std map over randomized interleavings.
//!
//! Three deliberate deviations from a textbook B+ tree, all invisible to
//! callers:
//!
//! * **Preemptive splits.** Inserts split any full node on the way down
//!   (the parent is then guaranteed non-full), so nodes never overflow and
//!   no split ever propagates upward. Worst-case occupancy is the usual
//!   50%.
//! * **Lazy deletion.** Removal never rebalances; a node that empties is
//!   unlinked and returned to the free list. Heavy churn can therefore
//!   leave nodes sparse. [`BpTree::repack`] rebuilds at 100% occupancy;
//!   the store never calls it, and the engine's tests use it as the dense
//!   reference a bulk build must match.
//! * **Slack slots hold stale clones.** Fixed strides mean the slots past
//!   `len` still contain *values* (old entries, or clones made when the
//!   node was materialized) rather than nothing. They are never observable
//!   — every read is bounded by `len` — and hold at most one row's memory
//!   per slot, the same order as the buffer slack any B-tree carries.

use std::fmt;
use std::ops::{Bound, RangeBounds};

/// Maximum entries per leaf. 64 keys are a 512-byte run for `u64` keys
/// (3–4 probed cache lines per search) while cutting tree height ~2× vs
/// the std map's fanout of 11.
pub const LEAF_CAP: usize = 64;

/// Maximum separator keys per branch (kids = keys + 1). 128 `u64` keys
/// are a 1 KiB contiguous run (~7 binary-search probes, all in adjacent
/// lines), and give a 10M-row tree only 3 branch levels — every level
/// shaved is one fewer dependent DRAM + TLB miss per descent.
pub const BRANCH_CAP: usize = 128;

/// Niche index value meaning "no node".
const NONE: u32 = u32::MAX;

/// Upper bound on tree height (root..leaf). Fanout ≥ 2 per level makes 24
/// levels unreachable (2^24 leaves ≫ any table here); descent scratch
/// lives in a fixed array of this size so no walk ever allocates.
const MAX_HEIGHT: usize = 24;

/// Panics on a range `BTreeMap::range` panics on: start above end, or
/// both ends excluded at one key. Both engines check ranges here.
pub(crate) fn check_range<K: Ord, R: RangeBounds<K>>(range: &R) {
    match (range.start_bound(), range.end_bound()) {
        (Bound::Included(s) | Bound::Excluded(s), Bound::Included(e) | Bound::Excluded(e))
            if s > e =>
        {
            panic!("range start is greater than range end")
        }
        (Bound::Excluded(s), Bound::Excluded(e)) if s == e => {
            panic!("range start and end are equal and sides are excluded")
        }
        _ => {}
    }
}

/// Per-leaf header: live entry count plus doubly-linked sibling indices.
/// 12 bytes — the header array stays cache-resident while the key/value
/// payloads live in the big stride buffers.
#[derive(Debug, Clone, Copy)]
struct LeafMeta {
    len: u32,
    prev: u32,
    next: u32,
}

/// Occupancy snapshot of a [`BpTree`], for tests and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStats {
    /// Live leaf nodes.
    pub leaves: usize,
    /// Live branch nodes.
    pub branches: usize,
    /// Entries stored.
    pub len: usize,
    /// Levels from root to leaf inclusive (1 for a root-leaf tree).
    pub height: u32,
}

impl NodeStats {
    /// Mean leaf fill as a fraction of [`LEAF_CAP`].
    #[must_use]
    pub fn leaf_occupancy(&self) -> f64 {
        if self.leaves == 0 {
            return 0.0;
        }
        self.len as f64 / (self.leaves * LEAF_CAP) as f64
    }
}

/// An ordered map from `K` to `V` backed by a stride-addressed arena B+
/// tree.
///
/// See the [module docs](self) for the layout rationale. The API mirrors
/// the slice of `BTreeMap` the store uses: [`get`](BpTree::get),
/// [`insert`](BpTree::insert), [`remove`](BpTree::remove),
/// [`range`](BpTree::range), [`scan_with`](BpTree::scan_with),
/// [`count_range`](BpTree::count_range), plus the bulk operations
/// [`from_ascending`](BpTree::from_ascending) and
/// [`repack`](BpTree::repack).
#[derive(Debug)]
pub struct BpTree<K, V> {
    /// Leaf keys, stride [`LEAF_CAP`] per leaf.
    lkeys: Vec<K>,
    /// Leaf values, stride [`LEAF_CAP`] per leaf, parallel to `lkeys`.
    lvals: Vec<V>,
    /// Leaf headers (len + sibling links).
    lmeta: Vec<LeafMeta>,
    /// Branch separator keys, stride [`BRANCH_CAP`] per branch.
    bkeys: Vec<K>,
    /// Branch children, stride [`BRANCH_CAP`] + 1 per branch.
    bkids: Vec<u32>,
    /// Branch separator counts (a branch with `n` keys has `n + 1` kids).
    blen: Vec<u32>,
    free_leaves: Vec<u32>,
    free_branches: Vec<u32>,
    /// Root node: a leaf index if `height == 1`, else a branch index.
    root: u32,
    /// Levels from root to leaf inclusive; never 0.
    height: u32,
    len: usize,
}

impl<K, V> Default for BpTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> BpTree<K, V> {
    /// An empty tree (a single empty root leaf; the key/value buffers are
    /// materialized lazily by the first insert, so an empty tree costs
    /// nothing).
    #[must_use]
    pub fn new() -> Self {
        BpTree {
            lkeys: Vec::new(),
            lvals: Vec::new(),
            lmeta: vec![LeafMeta { len: 0, prev: NONE, next: NONE }],
            bkeys: Vec::new(),
            bkids: Vec::new(),
            blen: Vec::new(),
            free_leaves: Vec::new(),
            free_branches: Vec::new(),
            root: 0,
            height: 1,
            len: 0,
        }
    }

    #[inline]
    fn lbase(i: u32) -> usize {
        i as usize * LEAF_CAP
    }

    #[inline]
    fn bbase(i: u32) -> usize {
        i as usize * BRANCH_CAP
    }

    #[inline]
    fn kbase(i: u32) -> usize {
        i as usize * (BRANCH_CAP + 1)
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Node counts and height, for occupancy pins and benches.
    #[must_use]
    pub fn node_stats(&self) -> NodeStats {
        NodeStats {
            leaves: self.lmeta.len() - self.free_leaves.len(),
            branches: self.blen.len() - self.free_branches.len(),
            len: self.len,
            height: self.height,
        }
    }

    /// In-range slice `[lo, hi)` of leaf `i`'s keys.
    #[inline]
    fn leaf_keys(&self, i: u32) -> &[K] {
        let base = Self::lbase(i);
        &self.lkeys[base..base + self.lmeta[i as usize].len as usize]
    }

    #[inline]
    fn branch_keys(&self, i: u32) -> &[K] {
        let base = Self::bbase(i);
        &self.bkeys[base..base + self.blen[i as usize] as usize]
    }

    /// The leftmost leaf (head of the sibling chain).
    fn head_leaf(&self) -> u32 {
        let mut node = self.root;
        for _ in 1..self.height {
            node = self.bkids[Self::kbase(node)];
        }
        node
    }
}

impl<K: Ord + Clone, V: Clone> BpTree<K, V> {
    /// Grows the leaf buffers to cover every header slot, filling slack
    /// with clones of `k`/`v`. Only the pristine root leaf of a fresh tree
    /// can be uncovered, so this is a one-shot branch on the insert path.
    #[inline]
    fn ensure_leaf_storage(&mut self, k: &K, v: &V) {
        let want = self.lmeta.len() * LEAF_CAP;
        if self.lkeys.len() < want {
            let (k, v) = (k.clone(), v.clone());
            self.lkeys.resize_with(want, || k.clone());
            self.lvals.resize_with(want, || v.clone());
        }
    }

    /// Allocates a leaf slot (recycling freed slots first; fresh slots
    /// materialize their key/value stride with clones of `fk`/`fv`).
    fn alloc_leaf(&mut self, fk: &K, fv: &V, prev: u32, next: u32) -> u32 {
        let meta = LeafMeta { len: 0, prev, next };
        if let Some(i) = self.free_leaves.pop() {
            self.lmeta[i as usize] = meta;
            return i;
        }
        let i = u32::try_from(self.lmeta.len()).expect("leaf arena overflow");
        assert!(i != NONE, "leaf arena overflow");
        self.lmeta.push(meta);
        let (fk, fv) = (fk.clone(), fv.clone());
        self.lkeys.resize_with(self.lmeta.len() * LEAF_CAP, || fk.clone());
        self.lvals.resize_with(self.lmeta.len() * LEAF_CAP, || fv.clone());
        i
    }

    /// Allocates an empty branch slot (fresh slots materialize their key
    /// stride with clones of `fk`, children with [`NONE`]).
    fn alloc_branch(&mut self, fk: &K) -> u32 {
        if let Some(i) = self.free_branches.pop() {
            self.blen[i as usize] = 0;
            return i;
        }
        let i = u32::try_from(self.blen.len()).expect("branch arena overflow");
        assert!(i != NONE, "branch arena overflow");
        self.blen.push(0);
        let fk = fk.clone();
        self.bkeys.resize_with(self.blen.len() * BRANCH_CAP, || fk.clone());
        self.bkids.resize(self.blen.len() * (BRANCH_CAP + 1), NONE);
        i
    }

    /// Child slot of `key` in branch `b`: the number of separators
    /// `<= key` (separator `i` routes keys `>= keys[i]` to kid `i + 1`).
    #[inline]
    fn child_slot(&self, b: u32, key: &K) -> usize {
        self.branch_keys(b).partition_point(|s| s <= key)
    }

    /// The leaf whose key range covers `key`.
    #[inline]
    fn leaf_for(&self, key: &K) -> u32 {
        let mut node = self.root;
        for _ in 1..self.height {
            let ci = self.child_slot(node, key);
            node = self.bkids[Self::kbase(node) + ci];
        }
        node
    }

    /// Looks up `key`.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<&V> {
        let leaf = self.leaf_for(key);
        match self.leaf_keys(leaf).binary_search(key) {
            Ok(i) => Some(&self.lvals[Self::lbase(leaf) + i]),
            Err(_) => None,
        }
    }

    /// Inserts `key → value`, returning the value it replaced, if any.
    ///
    /// Full nodes on the descent path are split preemptively, so the walk
    /// never backtracks; steady-state inserts into materialized nodes do
    /// not allocate at all.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.ensure_leaf_storage(&key, &value);
        if self.root_full() {
            let r = self.alloc_branch(&key);
            self.bkids[Self::kbase(r)] = self.root;
            self.root = r;
            self.height += 1;
        }
        let mut node = self.root;
        for level in (1..self.height).rev() {
            let mut ci = self.child_slot(node, &key);
            let child = self.bkids[Self::kbase(node) + ci];
            let child_full = if level == 1 {
                self.lmeta[child as usize].len as usize >= LEAF_CAP
            } else {
                self.blen[child as usize] as usize >= BRANCH_CAP
            };
            if child_full {
                self.split_child(node, ci, level == 1);
                if key >= self.bkeys[Self::bbase(node) + ci] {
                    ci += 1;
                }
            }
            node = self.bkids[Self::kbase(node) + ci];
        }
        let base = Self::lbase(node);
        let n = self.lmeta[node as usize].len as usize;
        match self.lkeys[base..base + n].binary_search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.lvals[base + i], value)),
            Err(i) => {
                self.lkeys[base + n] = key;
                self.lvals[base + n] = value;
                self.lkeys[base + i..=base + n].rotate_right(1);
                self.lvals[base + i..=base + n].rotate_right(1);
                self.lmeta[node as usize].len = (n + 1) as u32;
                self.len += 1;
                None
            }
        }
    }

    fn root_full(&self) -> bool {
        if self.height == 1 {
            self.lmeta[self.root as usize].len as usize >= LEAF_CAP
        } else {
            self.blen[self.root as usize] as usize >= BRANCH_CAP
        }
    }

    /// Splits the full child at kid slot `ci` of `parent` in half,
    /// installing the separator and right node into `parent` (which has
    /// room, by the preemptive-split invariant). Entry moves are swaps
    /// into the new slot's stride — no buffer allocation beyond a fresh
    /// slot's one-time materialization.
    fn split_child(&mut self, parent: u32, ci: usize, child_is_leaf: bool) {
        let child = self.bkids[Self::kbase(parent) + ci];
        let (sep, right) = if child_is_leaf {
            let LeafMeta { len, next, .. } = self.lmeta[child as usize];
            let n = len as usize;
            let mid = n / 2;
            let cb = Self::lbase(child);
            let fk = self.lkeys[cb + mid].clone();
            let fv = self.lvals[cb + mid].clone();
            let ri = self.alloc_leaf(&fk, &fv, child, next);
            let rb = Self::lbase(ri);
            let cb = Self::lbase(child);
            for j in 0..n - mid {
                self.lkeys.swap(rb + j, cb + mid + j);
                self.lvals.swap(rb + j, cb + mid + j);
            }
            self.lmeta[ri as usize].len = (n - mid) as u32;
            self.lmeta[child as usize].len = mid as u32;
            self.lmeta[child as usize].next = ri;
            if next != NONE {
                self.lmeta[next as usize].prev = ri;
            }
            // `fk` is the right half's minimum — exactly the separator.
            (fk, ri)
        } else {
            let n = self.blen[child as usize] as usize;
            let mid = n / 2;
            let cb = Self::bbase(child);
            let fk = self.bkeys[cb + mid].clone();
            let ri = self.alloc_branch(&fk);
            let rb = Self::bbase(ri);
            let cb = Self::bbase(child);
            for j in 0..n - mid - 1 {
                self.bkeys.swap(rb + j, cb + mid + 1 + j);
            }
            let (rk, ck) = (Self::kbase(ri), Self::kbase(child));
            for j in 0..n - mid {
                self.bkids.swap(rk + j, ck + mid + 1 + j);
            }
            self.blen[ri as usize] = (n - mid - 1) as u32;
            self.blen[child as usize] = mid as u32;
            // The promoted middle separator (its slot in `child` becomes
            // slack past the new len).
            (fk, ri)
        };
        let pb = Self::bbase(parent);
        let pk = Self::kbase(parent);
        let pn = self.blen[parent as usize] as usize;
        self.bkeys[pb + pn] = sep;
        self.bkeys[pb + ci..=pb + pn].rotate_right(1);
        self.bkids[pk + pn + 1] = right;
        self.bkids[pk + ci + 1..=pk + pn + 1].rotate_right(1);
        self.blen[parent as usize] = (pn + 1) as u32;
    }

    /// Removes `key`, returning its value, if present.
    ///
    /// No rebalancing: a leaf (or branch) that empties is unlinked and
    /// freed, and the root collapses when it has a single child. Sparse
    /// nodes left by churn are re-densified by [`repack`](BpTree::repack).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let mut stack = [(0u32, 0u16); MAX_HEIGHT];
        let mut depth = 0usize;
        let mut node = self.root;
        for _ in 1..self.height {
            let ci = self.child_slot(node, key);
            stack[depth] = (node, ci as u16);
            depth += 1;
            node = self.bkids[Self::kbase(node) + ci];
        }
        let base = Self::lbase(node);
        let n = self.lmeta[node as usize].len as usize;
        let i = match self.lkeys[base..base + n].binary_search(key) {
            Ok(i) => i,
            Err(_) => return None,
        };
        // The removed entry rotates into the slack past `len`; the clone
        // is what the caller gets (equal value, same as BTreeMap's move).
        let value = self.lvals[base + i].clone();
        self.lkeys[base + i..base + n].rotate_left(1);
        self.lvals[base + i..base + n].rotate_left(1);
        self.lmeta[node as usize].len = (n - 1) as u32;
        self.len -= 1;
        if n == 1 && depth > 0 {
            let LeafMeta { prev, next, .. } = self.lmeta[node as usize];
            if prev != NONE {
                self.lmeta[prev as usize].next = next;
            }
            if next != NONE {
                self.lmeta[next as usize].prev = prev;
            }
            self.free_leaves.push(node);
            // Cascade: drop the empty child from its parent; a branch that
            // loses its last child is itself dropped one level up.
            while depth > 0 {
                depth -= 1;
                let (b, ci) = stack[depth];
                let ci = ci as usize;
                let bn = self.blen[b as usize] as usize;
                if bn == 0 {
                    // Removing the only child empties the branch too.
                    self.free_branches.push(b);
                    continue;
                }
                let kb = Self::kbase(b);
                self.bkids[kb + ci..kb + bn + 1].rotate_left(1);
                let bb = Self::bbase(b);
                let kpos = ci.saturating_sub(1);
                self.bkeys[bb + kpos..bb + bn].rotate_left(1);
                self.blen[b as usize] = (bn - 1) as u32;
                break;
            }
            if depth == 0 {
                // The cascade reached the root.
                if self.free_branches.last() == Some(&self.root) {
                    // Even the root emptied: recycle a freed leaf slot as
                    // the fresh empty root (the cascade just freed one).
                    let i = self.free_leaves.pop().expect("cascade freed a leaf");
                    self.lmeta[i as usize] = LeafMeta { len: 0, prev: NONE, next: NONE };
                    self.root = i;
                    self.height = 1;
                } else {
                    while self.height > 1 && self.blen[self.root as usize] == 0 {
                        let only = self.bkids[Self::kbase(self.root)];
                        self.free_branches.push(self.root);
                        self.root = only;
                        self.height -= 1;
                    }
                }
            }
        }
        Some(value)
    }

    /// First position `>=`/`>` the start bound: `(leaf, index)`, possibly
    /// one past the end of a leaf (walkers normalize that by following the
    /// sibling link).
    fn seek(&self, start: Bound<&K>) -> (u32, usize) {
        match start {
            Bound::Unbounded => (self.head_leaf(), 0),
            Bound::Included(k) => {
                let leaf = self.leaf_for(k);
                (leaf, self.leaf_keys(leaf).partition_point(|ek| ek < k))
            }
            Bound::Excluded(k) => {
                let leaf = self.leaf_for(k);
                (leaf, self.leaf_keys(leaf).partition_point(|ek| ek <= k))
            }
        }
    }

    /// Positions *within one leaf's key run* where the end bound cuts off:
    /// the in-range suffix is `[pos, hi)` and `done` says whether the walk
    /// stops at this leaf. One last-key compare decides "whole leaf in
    /// range" without a search.
    #[inline]
    fn leaf_end(keys: &[K], end: Bound<&K>) -> (usize, bool) {
        match end {
            Bound::Unbounded => (keys.len(), false),
            Bound::Included(e) => match keys.last() {
                Some(last) if last <= e => (keys.len(), false),
                _ => (keys.partition_point(|k| k <= e), true),
            },
            Bound::Excluded(e) => match keys.last() {
                Some(last) if last < e => (keys.len(), false),
                _ => (keys.partition_point(|k| k < e), true),
            },
        }
    }

    /// Visits every `(key, value)` in `range` in ascending key order.
    ///
    /// One descent to the start bound, then a sibling-link walk with the
    /// end bound checked per leaf (a single last-key compare for interior
    /// leaves), so per-row work is exactly the visitor call. The hot
    /// listing paths use this to fold rows without materializing a `Vec`.
    ///
    /// # Panics
    ///
    /// Panics on an inverted or empty-excluded range, like
    /// `BTreeMap::range`.
    pub fn scan_with<R: RangeBounds<K>>(&self, range: &R, mut visit: impl FnMut(&K, &V)) {
        check_range(range);
        let (mut leaf, mut pos) = self.seek(range.start_bound());
        let end = range.end_bound();
        loop {
            let keys = self.leaf_keys(leaf);
            let (hi, done) = Self::leaf_end(keys, end);
            let base = Self::lbase(leaf);
            for i in pos..hi {
                visit(&self.lkeys[base + i], &self.lvals[base + i]);
            }
            let next = self.lmeta[leaf as usize].next;
            if done || next == NONE {
                return;
            }
            leaf = next;
            pos = 0;
        }
    }

    /// Number of entries in `range`.
    ///
    /// Walks the leaf chain by header: interior leaves contribute their
    /// `len` with no row access at all; only the two boundary leaves are
    /// searched. O(height + leaves-in-range), vs
    /// `BTreeMap::range(..).count()` touching every entry.
    #[must_use]
    pub fn count_range<R: RangeBounds<K>>(&self, range: &R) -> usize {
        check_range(range);
        let (mut leaf, mut pos) = self.seek(range.start_bound());
        let end = range.end_bound();
        let mut count = 0usize;
        loop {
            let (hi, done) = Self::leaf_end(self.leaf_keys(leaf), end);
            count += hi.saturating_sub(pos);
            let next = self.lmeta[leaf as usize].next;
            if done || next == NONE {
                return count;
            }
            leaf = next;
            pos = 0;
        }
    }

    /// Iterates the entries in `range` in ascending key order.
    ///
    /// One descent to the start bound, then a sibling-link walk over
    /// per-leaf key/value slices: no allocation, no re-descent. `range` is
    /// taken by reference so the iterator can borrow its bounds.
    ///
    /// # Panics
    ///
    /// Panics on an inverted or empty-excluded range, like
    /// `BTreeMap::range`.
    pub fn range<'a, R: RangeBounds<K>>(&'a self, range: &'a R) -> RangeIter<'a, K, V> {
        check_range(range);
        let (leaf, pos) = self.seek(range.start_bound());
        let end = range.end_bound();
        RangeIter::start(self, leaf, pos, end)
    }

    /// Iterates all entries in ascending key order.
    #[must_use]
    pub fn iter(&self) -> RangeIter<'_, K, V> {
        RangeIter::start(self, self.head_leaf(), 0, Bound::Unbounded)
    }

    /// Builds a tree from a stream already in strictly ascending key
    /// order, streaming the rows straight into the flat buffers at 100%
    /// fill and building the branch levels bottom-up.
    ///
    /// The caller owns the ascent check (the table layer asserts it with
    /// its table-name panic); out-of-order input here produces an
    /// inconsistent tree, not UB.
    #[must_use]
    pub fn from_ascending(rows: impl Iterator<Item = (K, V)>) -> Self {
        // An honest lower bound reserves the arenas in one allocation:
        // no doubling reallocs (each one recopies the whole arena), and
        // — because the allocator's huge-page advice only affects pages
        // faulted *after* it — the whole buffer gets huge-page coverage
        // instead of just the post-final-realloc tail. Rounded up to a
        // full stride so the tail-leaf padding below fits too.
        let hint = rows.size_hint().0.div_ceil(LEAF_CAP) * LEAF_CAP;
        let mut t = BpTree {
            lkeys: Vec::with_capacity(hint),
            lvals: Vec::with_capacity(hint),
            lmeta: Vec::new(),
            bkeys: Vec::new(),
            bkids: Vec::new(),
            blen: Vec::new(),
            free_leaves: Vec::new(),
            free_branches: Vec::new(),
            root: 0,
            height: 1,
            len: 0,
        };
        for (k, v) in rows {
            t.lkeys.push(k);
            t.lvals.push(v);
        }
        t.len = t.lkeys.len();
        if t.len == 0 {
            t.lmeta.push(LeafMeta { len: 0, prev: NONE, next: NONE });
            return t;
        }
        // Pad the tail leaf's slack with clones of the last row, then trim
        // the growth slack the streaming pushes left behind (the arenas
        // must be exactly sized — the slack of a doubling `Vec` would show
        // up as bytes/inode).
        let leaves = t.len.div_ceil(LEAF_CAP);
        let fk = t.lkeys[t.len - 1].clone();
        let fv = t.lvals[t.len - 1].clone();
        t.lkeys.resize_with(leaves * LEAF_CAP, || fk.clone());
        t.lvals.resize_with(leaves * LEAF_CAP, || fv.clone());
        t.lkeys.shrink_to_fit();
        t.lvals.shrink_to_fit();
        let tail_len = t.len - (leaves - 1) * LEAF_CAP;
        for i in 0..leaves {
            t.lmeta.push(LeafMeta {
                len: if i + 1 < leaves { LEAF_CAP as u32 } else { tail_len as u32 },
                prev: if i == 0 { NONE } else { (i - 1) as u32 },
                next: if i + 1 == leaves { NONE } else { (i + 1) as u32 },
            });
        }
        assert!(leaves <= NONE as usize, "leaf arena overflow");

        // Branch levels: chunks of BRANCH_CAP + 1 kids, separators = each
        // non-first kid's subtree minimum.
        let mut level: Vec<(K, u32)> =
            (0..leaves).map(|i| (t.lkeys[i * LEAF_CAP].clone(), i as u32)).collect();
        while level.len() > 1 {
            let mut next_level: Vec<(K, u32)> =
                Vec::with_capacity(level.len() / (BRANCH_CAP + 1) + 1);
            for chunk in level.chunks(BRANCH_CAP + 1) {
                let bi = u32::try_from(t.blen.len()).expect("branch arena overflow");
                t.blen.push((chunk.len() - 1) as u32);
                t.bkeys.extend(chunk.iter().skip(1).map(|(k, _)| k.clone()));
                let fk = chunk[0].0.clone();
                t.bkeys.resize_with(t.blen.len() * BRANCH_CAP, || fk.clone());
                t.bkids.extend(chunk.iter().map(|(_, i)| *i));
                t.bkids.resize(t.blen.len() * (BRANCH_CAP + 1), NONE);
                next_level.push((chunk[0].0.clone(), bi));
            }
            level = next_level;
            t.height += 1;
        }
        t.bkeys.shrink_to_fit();
        t.bkids.shrink_to_fit();
        t.root = level[0].1;
        t
    }

    /// Rebuilds the tree at 100% node occupancy (contents and iteration
    /// order unchanged). The store does not call it: the engine's tests
    /// use it as the reference a bulk build must match.
    pub fn repack(&mut self) {
        let old = std::mem::take(self);
        *self = Self::from_ascending(old.into_entries());
    }

    /// Consumes the tree into an ascending entry stream.
    ///
    /// The stride layout cannot move entries out of the middle of a
    /// buffer, so the stream yields clones — equal values, lazily, without
    /// materializing a second copy of the table.
    pub fn into_entries(self) -> impl Iterator<Item = (K, V)> {
        let leaf = self.head_leaf();
        let remaining = self.len;
        IntoEntries { tree: self, leaf, pos: 0, remaining }
    }
}

impl<K: Ord + Clone + fmt::Debug, V: Clone> BpTree<K, V> {
    /// Asserts the structural invariants (sorted leaves, stride coverage,
    /// consistent sibling links, len agreement). Test aid — O(n), never
    /// called on hot paths.
    pub fn check_invariants(&self) {
        assert!(
            self.lkeys.len() == self.lvals.len(),
            "key/value buffers diverged: {} vs {}",
            self.lkeys.len(),
            self.lvals.len()
        );
        let mut count = 0usize;
        let mut prev_key: Option<&K> = None;
        let mut prev_leaf = NONE;
        let mut leaf = self.head_leaf();
        while leaf != NONE {
            let m = &self.lmeta[leaf as usize];
            assert_eq!(m.prev, prev_leaf, "broken prev link at leaf {leaf}");
            assert!(
                Self::lbase(leaf) + m.len as usize <= self.lkeys.len(),
                "leaf {leaf} stride not covered"
            );
            for k in self.leaf_keys(leaf) {
                if let Some(p) = prev_key {
                    assert!(p < k, "keys out of order: {p:?} !< {k:?}");
                }
                prev_key = Some(k);
                count += 1;
            }
            prev_leaf = leaf;
            leaf = m.next;
        }
        assert_eq!(count, self.len, "len does not match leaf contents");
    }
}

/// Consuming ascending iterator over a [`BpTree`] (see
/// [`BpTree::into_entries`]).
struct IntoEntries<K, V> {
    tree: BpTree<K, V>,
    leaf: u32,
    pos: usize,
    remaining: usize,
}

impl<K: Ord + Clone, V: Clone> Iterator for IntoEntries<K, V> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        loop {
            let m = &self.tree.lmeta[self.leaf as usize];
            if self.pos < m.len as usize {
                let i = BpTree::<K, V>::lbase(self.leaf) + self.pos;
                self.pos += 1;
                self.remaining -= 1;
                return Some((self.tree.lkeys[i].clone(), self.tree.lvals[i].clone()));
            }
            if m.next == NONE {
                return None;
            }
            self.leaf = m.next;
            self.pos = 0;
        }
    }

    // Exact: the tree knows its length, and the walk yields every entry.
    // Downstream bulk builds size their arenas off this.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// Borrowing ascending iterator over a key range of a [`BpTree`].
///
/// Holds the current leaf's key/value slices directly, so `next()` is a
/// slice index plus an end-bound compare; the tree is only consulted again
/// when a leaf is exhausted.
#[derive(Debug)]
pub struct RangeIter<'a, K, V> {
    tree: &'a BpTree<K, V>,
    /// In-range suffix of the current leaf.
    keys: &'a [K],
    vals: &'a [V],
    pos: usize,
    /// Next sibling to walk into, [`NONE`] when the current leaf is last
    /// or the end bound cut the walk short.
    next: u32,
    end: Bound<&'a K>,
}

impl<'a, K: Ord + Clone, V: Clone> RangeIter<'a, K, V> {
    fn start(tree: &'a BpTree<K, V>, leaf: u32, pos: usize, end: Bound<&'a K>) -> Self {
        let keys = tree.leaf_keys(leaf);
        let (hi, done) = BpTree::<K, V>::leaf_end(keys, end);
        let base = BpTree::<K, V>::lbase(leaf);
        let lo = pos.min(hi);
        RangeIter {
            tree,
            keys: &tree.lkeys[base + lo..base + hi],
            vals: &tree.lvals[base + lo..base + hi],
            pos: 0,
            next: if done { NONE } else { tree.lmeta[leaf as usize].next },
            end,
        }
    }
}

impl<'a, K: Ord + Clone, V: Clone> Iterator for RangeIter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<(&'a K, &'a V)> {
        loop {
            if self.pos < self.keys.len() {
                let i = self.pos;
                self.pos += 1;
                return Some((&self.keys[i], &self.vals[i]));
            }
            if self.next == NONE {
                return None;
            }
            let leaf = self.next;
            let keys = self.tree.leaf_keys(leaf);
            let (hi, done) = BpTree::<K, V>::leaf_end(keys, self.end);
            let base = BpTree::<K, V>::lbase(leaf);
            self.keys = &self.tree.lkeys[base..base + hi];
            self.vals = &self.tree.lvals[base..base + hi];
            self.pos = 0;
            self.next = if done { NONE } else { self.tree.lmeta[leaf as usize].next };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn assert_matches_model(tree: &BpTree<u64, u64>, model: &BTreeMap<u64, u64>) {
        assert_eq!(tree.len(), model.len());
        let got: Vec<(u64, u64)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
        tree.check_invariants();
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = BpTree::new();
        assert_eq!(t.insert(5u64, 50u64), None);
        assert_eq!(t.insert(5, 51), Some(50));
        assert_eq!(t.get(&5), Some(&51));
        assert_eq!(t.remove(&5), Some(51));
        assert_eq!(t.remove(&5), None);
        assert!(t.is_empty());
    }

    #[test]
    fn grows_through_many_splits_and_stays_sorted() {
        let mut t = BpTree::new();
        let mut model = BTreeMap::new();
        // Interleaved ascending/descending/stride inserts force splits on
        // left, right, and middle edges.
        for i in 0..50_000u64 {
            let k = (i * 2_654_435_761) % 100_003;
            t.insert(k, i);
            model.insert(k, i);
        }
        assert!(t.node_stats().height > 2, "tree should have branch levels");
        assert_matches_model(&t, &model);
    }

    #[test]
    fn removal_shrinks_back_to_empty() {
        let mut t = BpTree::new();
        let keys: Vec<u64> = (0..2_000).map(|i| (i * 37) % 4_001).collect();
        for &k in &keys {
            t.insert(k, k + 1);
        }
        let mut uniq: Vec<u64> = keys.clone();
        uniq.sort_unstable();
        uniq.dedup();
        for &k in uniq.iter().rev() {
            assert_eq!(t.remove(&k), Some(k + 1), "key {k}");
        }
        assert!(t.is_empty());
        assert_eq!(t.node_stats().height, 1);
        t.check_invariants();
        // The tree stays usable after collapsing to empty.
        t.insert(9, 9);
        assert_eq!(t.get(&9), Some(&9));
    }

    #[test]
    fn range_bounds_match_btreemap() {
        let mut t = BpTree::new();
        let mut model = BTreeMap::new();
        for i in (0..400u64).step_by(3) {
            t.insert(i, i);
            model.insert(i, i);
        }
        let ranges: Vec<(Bound<u64>, Bound<u64>)> = vec![
            (Bound::Unbounded, Bound::Unbounded),
            (Bound::Included(30), Bound::Excluded(90)),
            (Bound::Excluded(30), Bound::Included(90)),
            (Bound::Included(31), Bound::Included(31)),
            (Bound::Included(500), Bound::Unbounded),
            (Bound::Unbounded, Bound::Excluded(0)),
        ];
        for r in ranges {
            let got: Vec<u64> = t.range(&r).map(|(k, _)| *k).collect();
            let want: Vec<u64> = model.range(r).map(|(k, _)| *k).collect();
            assert_eq!(got, want, "range {r:?}");
            assert_eq!(t.count_range(&r), want.len());
            let mut visited = Vec::new();
            t.scan_with(&r, |k, _| visited.push(*k));
            assert_eq!(visited, want, "scan_with over {r:?}");
        }
    }

    #[test]
    #[should_panic(expected = "range start is greater than range end")]
    #[allow(clippy::reversed_empty_ranges, reason = "the inverted range is what this test is for")]
    fn inverted_range_panics() {
        let t: BpTree<u64, u64> = BpTree::new();
        let _ = t.count_range(&(10..5));
    }

    #[test]
    #[should_panic(expected = "equal and sides are excluded")]
    fn excluded_empty_range_panics() {
        let t: BpTree<u64, u64> = BpTree::new();
        let r = (Bound::Excluded(7u64), Bound::Excluded(7u64));
        let _ = t.count_range(&r);
    }

    #[test]
    fn bulk_build_is_dense_and_ordered() {
        let rows = (0..10_000u64).map(|i| (i, i * 2));
        let t = BpTree::from_ascending(rows);
        assert_eq!(t.len(), 10_000);
        t.check_invariants();
        let stats = t.node_stats();
        // Every leaf except possibly the last is 100% full.
        assert!(
            stats.leaves <= 10_000 / LEAF_CAP + 1,
            "bulk build left sparse leaves: {stats:?}"
        );
        assert!(stats.leaf_occupancy() > 0.99, "occupancy {:.3}", stats.leaf_occupancy());
        let got: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, (0..10_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn bulk_build_arenas_are_exactly_sized() {
        let t = BpTree::from_ascending((0..100_000u64).map(|i| (i, i)));
        // The streaming build must not leave doubling slack behind — the
        // arenas are the table's entire footprint.
        assert_eq!(t.lkeys.capacity(), t.lkeys.len(), "leaf key slack");
        assert_eq!(t.lvals.capacity(), t.lvals.len(), "leaf value slack");
        assert_eq!(t.lkeys.len(), t.lmeta.len() * LEAF_CAP);
    }

    #[test]
    fn bulk_build_empty_and_tiny() {
        let t: BpTree<u64, u64> = BpTree::from_ascending(std::iter::empty());
        assert!(t.is_empty());
        assert_eq!(t.iter().count(), 0);
        let mut t = BpTree::from_ascending([(3u64, 4u64)].into_iter());
        assert_eq!(t.get(&3), Some(&4));
        t.insert(1, 1);
        t.check_invariants();
    }

    #[test]
    fn repack_densifies_after_churn() {
        let mut t = BpTree::new();
        for i in 0..16_384u64 {
            t.insert(i, i);
        }
        for i in (0..16_384u64).filter(|i| i % 3 != 0) {
            t.remove(&i);
        }
        let sparse = t.node_stats();
        t.repack();
        let dense = t.node_stats();
        assert_eq!(dense.len, sparse.len);
        assert!(dense.leaves < sparse.leaves, "{sparse:?} -> {dense:?}");
        assert!(dense.leaf_occupancy() > 0.99);
        t.check_invariants();
        let got: Vec<u64> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(got, (0..16_384u64).filter(|i| i % 3 == 0).collect::<Vec<_>>());
    }

    #[test]
    fn freed_nodes_are_recycled() {
        let mut t = BpTree::new();
        for round in 0..4 {
            for i in 0..512u64 {
                t.insert(i, round);
            }
            for i in 0..512u64 {
                t.remove(&i);
            }
        }
        // Churn must not grow the arenas round over round.
        assert!(t.lmeta.len() <= 64, "leaf arena grew unbounded: {}", t.lmeta.len());
        t.check_invariants();
    }

    #[test]
    fn scan_with_visits_in_order_without_alloc() {
        let t = BpTree::from_ascending((0..200u64).map(|i| (i, i)));
        let mut seen = Vec::new();
        t.scan_with(&(50u64..60), |k, v| seen.push((*k, *v)));
        assert_eq!(seen, (50..60u64).map(|i| (i, i)).collect::<Vec<_>>());
    }

    #[test]
    fn count_range_matches_walks_after_churn() {
        let mut t = BpTree::new();
        let mut model = BTreeMap::new();
        for i in 0..3_000u64 {
            let k = (i * 7_919) % 5_003;
            t.insert(k, k);
            model.insert(k, k);
        }
        for i in 0..2_000u64 {
            let k = (i * 6_007) % 5_003;
            t.remove(&k);
            model.remove(&k);
        }
        for lo in (0..5_000u64).step_by(613) {
            for hi in [lo, lo + 100, lo + 2_500] {
                assert_eq!(
                    t.count_range(&(lo..hi)),
                    model.range(lo..hi).count(),
                    "count_range({lo}..{hi})"
                );
            }
        }
    }
}
