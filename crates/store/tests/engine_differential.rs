//! Differential property tests: the store's two engines — the arena-backed
//! B+ tree ([`lambda_store::bptree::BpTree`]) and the id-addressed pages
//! under the inode table ([`lambda_store::idrows::IdRows`]) — against a
//! `std::collections::BTreeMap` oracle.
//!
//! The engines under [`TypedTable`] are only sound if each map is
//! observationally identical — same insert/remove return values, same
//! sorted iteration order, same range contents under every bound shape,
//! same counts — under *arbitrary interleavings*, not just the clean
//! streams the bootstrap uses. These tests drive randomized op scripts
//! over both engines and compare after every step, on both `u64` keys
//! (the inodes table) and composite `(u64, NameKey)` keys (the children
//! index, where ordering mixes integer and string comparison). `NameKey`
//! orders by an inline prefix before it looks at the text, so its own
//! `Ord`/`Eq` are first pinned against `str`'s, and the composite oracle
//! is keyed by `(u64, String)` — never by the type under test.
//!
//! Occupancy pins mirror `bulk_build.rs`: a bulk-built tree must be dense
//! (≈100% full leaves) and a churned-then-repacked tree must return to
//! density without changing contents.
//!
//! The id engine is held to the same oracle on ids drawn around its page
//! boundaries — the key 0, holes, whole unallocated pages, ids past the
//! last page — under every bound shape, and through the [`Db`] surface the
//! inode table uses: bulk loads merged with existing rows, unbounded scans
//! of a table whose last id is past 2^20, and the encoded-key walk the
//! durable backend checks after a crash. It runs on `u64` rows, which
//! store themselves, and on [`Keyed`] rows, which drop their id in the
//! slot the way the inode row does: a row that names another id than its
//! slot's is kept whole beside the pages, and the map must not notice.
//!
//! [`Db`]: lambda_store::Db
//! [`TypedTable`]: lambda_store::Db

use lambda_sim::params::StoreParams;
use lambda_sim::{Sim, SimDuration};
use lambda_store::bptree::{BpTree, LEAF_CAP};
use lambda_store::idrows::{IdRows, PAGE_ROWS};
use lambda_store::{Db, DurabilityConfig, IdRow, NameEntry, NameKey};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::ops::Bound;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One scripted engine operation. Keys are drawn from a small space so
/// scripts revisit keys (exercising replace, remove-hit, and remove-miss).
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Remove(u64),
    /// Compare `scan_with`, `range`, and `count_range` over `[lo, hi)`.
    Scan(u64, u64),
}

fn op_strategy(key_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..key_space, any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        3 => (0..key_space).prop_map(Op::Remove),
        1 => (0..key_space, 0..key_space).prop_map(|(a, b)| Op::Scan(a.min(b), a.max(b))),
    ]
}

/// Keys a test name: differential scripts generate names dynamically, so
/// each gets a leaked entry of its own (test-only; the real store's come
/// from the component interner).
fn name(s: &str) -> NameKey {
    NameEntry::leak(s).key()
}

/// Names drawn to collide where `NameKey` is cleverest: around its
/// eight-byte inline prefix. Numbered names sharing the first eight bytes
/// (`file00010`…`file00019`), names shorter than eight bytes (the empty
/// one included) and exactly eight, zero-padded look-alikes (`"a"` vs
/// `"a\0"`), and multi-byte UTF-8 straddling the boundary.
fn colliding_name() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => "file0001[0-9]",
        3 => "[ab]{0,7}",
        2 => "[ab]{8}",
        3 => "aaaaaa[ab\u{0}é]{0,5}",
        2 => "[a\u{0}]{0,10}",
    ]
}

fn assert_same_u64(tree: &BpTree<u64, u64>, model: &BTreeMap<u64, u64>) {
    assert_eq!(tree.len(), model.len(), "len diverged");
    let got: Vec<(u64, u64)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
    let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(got, want, "iteration order diverged");
    tree.check_invariants();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary insert/remove/scan interleavings on `u64` keys: every
    /// individual return value and every range view matches the oracle.
    #[test]
    fn u64_scripts_match_btreemap(ops in proptest::collection::vec(op_strategy(512), 1..400)) {
        let mut tree: BpTree<u64, u64> = BpTree::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    prop_assert_eq!(tree.insert(k, v), model.insert(k, v), "insert({})", k);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(tree.remove(&k), model.remove(&k), "remove({})", k);
                    prop_assert_eq!(tree.get(&k), None);
                }
                Op::Scan(lo, hi) => {
                    let got: Vec<(u64, u64)> =
                        tree.range(&(lo..hi)).map(|(k, v)| (*k, *v)).collect();
                    let want: Vec<(u64, u64)> =
                        model.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                    prop_assert_eq!(&got, &want, "range {}..{}", lo, hi);
                    let mut visited = Vec::new();
                    tree.scan_with(&(lo..hi), |k, v| visited.push((*k, *v)));
                    prop_assert_eq!(&visited, &want, "scan_with {}..{}", lo, hi);
                    prop_assert_eq!(tree.count_range(&(lo..hi)), want.len());
                }
            }
        }
        assert_same_u64(&tree, &model);
    }

    /// Every bound shape (inclusive/exclusive/unbounded on either side)
    /// yields exactly `BTreeMap::range`'s view, after churn has left
    /// routing separators that no longer exist in any leaf.
    #[test]
    fn range_bounds_match_after_churn(
        seed_keys in proptest::collection::btree_set(0u64..2_048, 32..256),
        remove_stride in 2u64..7,
        lo in 0u64..2_048,
        span in 0u64..1_024,
    ) {
        let mut tree: BpTree<u64, u64> = BpTree::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for &k in &seed_keys {
            tree.insert(k, k ^ 0xA5A5);
            model.insert(k, k ^ 0xA5A5);
        }
        for &k in seed_keys.iter().filter(|k| *k % remove_stride == 0) {
            tree.remove(&k);
            model.remove(&k);
        }
        let hi = lo + span;
        let bounds = [
            (Bound::Included(lo), Bound::Excluded(hi)),
            (Bound::Included(lo), Bound::Included(hi)),
            (Bound::Excluded(lo), Bound::Unbounded),
            (Bound::Unbounded, Bound::Included(hi)),
            (Bound::Unbounded, Bound::Unbounded),
        ];
        for r in bounds {
            let got: Vec<u64> = tree.range(&r).map(|(k, _)| *k).collect();
            let want: Vec<u64> = model.range(r).map(|(k, _)| *k).collect();
            prop_assert_eq!(&got, &want, "bounds {:?}", r);
            prop_assert_eq!(tree.count_range(&r), want.len(), "count over {:?}", r);
        }
        assert_same_u64(&tree, &model);
    }

    /// `NameKey` compares, equates and hashes exactly as its text does —
    /// whichever entries the two keys came from, the same one included.
    #[test]
    fn name_key_order_and_equality_match_str(
        names in proptest::collection::vec(colliding_name(), 2..24),
    ) {
        let keys: Vec<NameKey> = names.iter().map(|n| name(n)).collect();
        let twins: Vec<NameKey> = names.iter().map(|n| name(n)).collect();
        for (a, ka) in names.iter().zip(&keys) {
            prop_assert_eq!(ka.as_str(), a.as_str());
            prop_assert_eq!(ka.cmp(&NameKey::MIN), a.as_str().cmp(""), "{:?} vs MIN", a);
            for ((b, kb), tb) in names.iter().zip(&keys).zip(&twins) {
                for other in [kb, tb] {
                    prop_assert_eq!(ka.cmp(other), a.cmp(b), "{:?} vs {:?}", a, b);
                    prop_assert_eq!(ka == other, a == b, "{:?} vs {:?}", a, b);
                }
            }
        }
        let distinct: std::collections::HashSet<&str> = names.iter().map(String::as_str).collect();
        let hashed: std::collections::HashSet<NameKey> =
            keys.iter().chain(&twins).copied().collect();
        prop_assert_eq!(hashed.len(), distinct.len());
    }

    /// Composite `(u64, NameKey)` keys — the children index's shape, where
    /// ordering falls through an integer compare into a string compare and
    /// per-directory blocks sit back to back. Scans slice one parent's
    /// block the way `ls` does. The oracle is keyed by `(u64, String)`: a
    /// `BTreeMap` keyed by `NameKey` would share a wrong `Ord` with the
    /// tree it checks.
    #[test]
    fn composite_key_scripts_match_btreemap(
        parents in proptest::collection::btree_set(0u64..24, 1..6),
        names in proptest::collection::btree_set(colliding_name(), 1..24),
        remove_mask in any::<u64>(),
        ls_parent in 0u64..24,
    ) {
        let names: Vec<(NameKey, &str)> = names.iter().map(|n| (name(n), n.as_str())).collect();
        let mut tree: BpTree<(u64, NameKey), u64> = BpTree::new();
        let mut model: BTreeMap<(u64, String), u64> = BTreeMap::new();
        for &p in &parents {
            for (i, &(n, text)) in names.iter().enumerate() {
                let v = p << 8 | i as u64;
                prop_assert_eq!(tree.insert((p, n), v), model.insert((p, text.to_string()), v));
            }
        }
        for (i, &p) in parents.iter().enumerate() {
            for (j, &(n, text)) in names.iter().enumerate() {
                if remove_mask >> ((i * 7 + j) % 64) & 1 == 1 {
                    // Probe with a key from a fresh entry: lookups must not
                    // depend on pointing at the stored key's entry.
                    let removed = tree.remove(&(p, name(text)));
                    prop_assert_eq!(removed, model.remove(&(p, text.to_string())));
                    prop_assert_eq!(tree.get(&(p, n)), None);
                }
            }
        }
        prop_assert_eq!(tree.len(), model.len());
        let got: Vec<(u64, &str)> = tree.iter().map(|((p, n), _)| (*p, n.as_str())).collect();
        let want: Vec<(u64, &str)> = model.keys().map(|(p, n)| (*p, n.as_str())).collect();
        prop_assert_eq!(got, want, "composite iteration order diverged");
        tree.check_invariants();

        // One directory's listing: the per-parent block slice.
        let r = (ls_parent, NameKey::MIN)..(ls_parent + 1, NameKey::MIN);
        let got: Vec<&str> = tree.range(&r).map(|((_, n), _)| n.as_str()).collect();
        let want: Vec<&str> = model
            .range((ls_parent, String::new())..(ls_parent + 1, String::new()))
            .map(|((_, n), _)| n.as_str())
            .collect();
        prop_assert_eq!(&got, &want, "listing of parent {}", ls_parent);
        prop_assert_eq!(tree.count_range(&r), want.len());
    }

    /// `from_ascending` equals insert-then-repack observationally *and*
    /// structurally: same contents and order, and both sit at ≈100% leaf
    /// occupancy (the bulk build's reason to exist).
    #[test]
    fn bulk_build_matches_inserts_and_is_dense(
        keys in proptest::collection::btree_set(0u64..100_000, 1..1_500),
    ) {
        let bulk: BpTree<u64, u64> =
            BpTree::from_ascending(keys.iter().map(|&k| (k, k * 3)));
        let mut serial: BpTree<u64, u64> = BpTree::new();
        for &k in &keys {
            serial.insert(k, k * 3);
        }
        serial.repack();

        let got: Vec<(u64, u64)> = bulk.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u64, u64)> = serial.iter().map(|(k, v)| (*k, *v)).collect();
        prop_assert_eq!(got, want);
        bulk.check_invariants();

        // Occupancy pin, mirroring bulk_build.rs: every leaf except
        // possibly the last is full.
        for t in [&bulk, &serial] {
            let stats = t.node_stats();
            prop_assert!(
                stats.leaves <= keys.len() / LEAF_CAP + 1,
                "sparse leaves after dense build: {:?}",
                stats
            );
        }
    }
}

/// Deterministic worst-case churn: drain the tree through every removal
/// order a script is unlikely to hit (ascending, descending, inside-out)
/// and make sure it collapses to a usable empty tree each time.
#[test]
fn drain_orders_collapse_cleanly() {
    let n = 3 * 1024u64;
    let orders: [Box<dyn Fn(u64) -> u64>; 3] = [
        Box::new(|i| i),
        Box::new(move |i| n - 1 - i),
        Box::new(move |i| if i % 2 == 0 { n / 2 + i / 2 } else { n / 2 - 1 - i / 2 }),
    ];
    for order in orders {
        let mut t: BpTree<u64, u64> = BpTree::from_ascending((0..n).map(|k| (k, k)));
        for i in 0..n {
            assert_eq!(t.remove(&order(i)), Some(order(i)));
        }
        assert!(t.is_empty());
        assert_eq!(t.node_stats().height, 1);
        t.insert(7, 7);
        assert_eq!(t.get(&7), Some(&7));
        t.check_invariants();
    }
}

const PAGE: u64 = PAGE_ROWS as u64;

/// One scripted id-engine operation.
#[derive(Debug, Clone)]
enum IdOp {
    Insert(u64, u64),
    Remove(u64),
    Get(u64),
    /// Compare `range`, `scan_with` and `count_range` over these bounds
    /// (inverted and excluded-empty ones included: both sides must panic).
    Range(Bound<u64>, Bound<u64>),
}

/// Ids that stress the page arithmetic: clustered at 0 and around the
/// first page boundary so scripts revisit them, sparse in page 3 (pages 1
/// and 2 stay unallocated unless the boundary cluster reaches them), and
/// past every page a script inserts into.
fn page_id() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(0u64),
        4 => 0..48u64,
        4 => PAGE - 24..PAGE + 24,
        2 => 3 * PAGE..3 * PAGE + 16,
        1 => 5 * PAGE..6 * PAGE,
    ]
}

fn id_bound() -> impl Strategy<Value = Bound<u64>> {
    prop_oneof![
        1 => Just(Bound::Unbounded),
        3 => page_id().prop_map(Bound::Included),
        3 => page_id().prop_map(Bound::Excluded),
    ]
}

fn id_op() -> impl Strategy<Value = IdOp> {
    prop_oneof![
        4 => (page_id(), any::<u64>()).prop_map(|(k, v)| IdOp::Insert(k, v)),
        2 => page_id().prop_map(IdOp::Remove),
        2 => prop_oneof![3 => page_id(), 1 => 6 * PAGE..1 << 21].prop_map(IdOp::Get),
        1 => (id_bound(), id_bound()).prop_map(|(lo, hi)| IdOp::Range(lo, hi)),
    ]
}

/// Whether `BTreeMap::range` panics on these bounds. It is asked with one
/// row in the map: an empty `BTreeMap` returns before it looks at the
/// bounds, where both engines check them on every call.
fn range_panics(r: &(Bound<u64>, Bound<u64>)) -> bool {
    catch_unwind(|| BTreeMap::from([(0u64, 0u64)]).range(*r).count()).is_err()
}

/// A row that names its own id, as the inode row does. Its slot form is
/// the payload alone; a row naming another id than its slot's cannot drop
/// its id, so `store` hands it back and the engine spills it whole.
#[derive(Debug, Clone, PartialEq)]
struct Keyed {
    id: u64,
    payload: u64,
}

impl IdRow for Keyed {
    type Stored = u64;

    fn store(self, id: u64) -> Result<u64, Keyed> {
        if self.id == id {
            Ok(self.payload)
        } else {
            Err(self)
        }
    }

    fn load(id: u64, payload: &u64) -> Keyed {
        Keyed { id, payload: *payload }
    }
}

/// The `Keyed` row an `Insert(k, v)` writes: one in three names the id
/// after its slot's, so scripts that revisit an id move it between its
/// slot and the spill in both directions.
fn keyed(k: u64, v: u64) -> Keyed {
    Keyed { id: if v.is_multiple_of(3) { k + 1 } else { k }, payload: v }
}

fn assert_same_ids<V: IdRow + PartialEq + Debug>(rows: &IdRows<V>, model: &BTreeMap<u64, V>) {
    assert_eq!(rows.len(), model.len(), "len diverged");
    let got: Vec<(u64, V)> = rows.iter().collect();
    let want: Vec<(u64, V)> = model.iter().map(|(k, v)| (*k, v.clone())).collect();
    assert_eq!(got, want, "iteration order diverged");
    assert_eq!(rows.count_range(&(..)), model.len(), "count of every row diverged");
}

/// Runs `ops` on the id engine and on the oracle, with `row(k, v)` as the
/// value an `Insert(k, v)` writes: every return value and every range
/// view — bounded, open, unbounded, empty — matches, and the ranges the
/// oracle refuses panic on both sides.
fn id_script_matches_btreemap<V: IdRow + PartialEq + Debug>(
    ops: &[IdOp],
    row: impl Fn(u64, u64) -> V,
) {
    let mut rows: IdRows<V> = IdRows::new();
    let mut model: BTreeMap<u64, V> = BTreeMap::new();
    for op in ops {
        match *op {
            IdOp::Insert(k, v) => {
                let v = row(k, v);
                assert_eq!(rows.insert(k, v.clone()), model.insert(k, v), "insert({k})");
            }
            IdOp::Remove(k) => {
                assert_eq!(rows.remove(k), model.remove(&k), "remove({k})");
                assert_eq!(rows.get(k), None);
            }
            IdOp::Get(k) => assert_eq!(rows.get(k), model.get(&k).cloned(), "get({k})"),
            IdOp::Range(lo, hi) => {
                let r = (lo, hi);
                if range_panics(&r) {
                    assert!(catch_unwind(AssertUnwindSafe(|| rows.range(&r).count())).is_err());
                    assert!(catch_unwind(AssertUnwindSafe(|| rows.count_range(&r))).is_err());
                    assert!(catch_unwind(AssertUnwindSafe(|| rows.scan_with(&r, |_, _| {}))).is_err());
                    continue;
                }
                let want: Vec<(u64, V)> = model.range(r).map(|(k, v)| (*k, v.clone())).collect();
                let got: Vec<(u64, V)> = rows.range(&r).collect();
                assert_eq!(&got, &want, "range {r:?}");
                let mut visited = Vec::new();
                rows.scan_with(&r, |k, v| visited.push((*k, v.clone())));
                assert_eq!(&visited, &want, "scan_with {r:?}");
                assert_eq!(rows.count_range(&r), want.len(), "count {r:?}");
            }
        }
    }
    assert_same_ids(&rows, &model);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary insert/remove/get/range interleavings on `u64` rows,
    /// which store themselves.
    #[test]
    fn id_scripts_match_btreemap(ops in proptest::collection::vec(id_op(), 1..300)) {
        id_script_matches_btreemap(&ops, |_, v| v);
    }

    /// The same scripts on rows that drop their id in the slot, with a
    /// third of them mis-keyed: the spill keeps the engine an exact map.
    #[test]
    fn id_scripts_of_rows_that_drop_their_id_match_btreemap(
        ops in proptest::collection::vec(id_op(), 1..300),
    ) {
        id_script_matches_btreemap(&ops, keyed);
    }

    /// Through the `Db` surface the inode table uses: a bulk load merged
    /// with rows already present gives the B+ tree table's contents and
    /// order, and both equal the oracle.
    #[test]
    fn id_table_bulk_load_merges_like_the_tree_table(
        existing in proptest::collection::btree_set(page_id(), 0..40),
        streamed in proptest::collection::btree_set(page_id(), 1..80),
    ) {
        let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
        let ids = db.create_id_table::<u64>("ids", Db::WORD_ROW_BYTES);
        let tree = db.create_table::<u64, u64>("tree");
        let mut model = BTreeMap::new();
        for &k in &existing {
            db.bootstrap_insert(ids, k, k ^ 1);
            db.bootstrap_insert(tree, k, k ^ 1);
            model.insert(k, k ^ 1);
        }
        let fresh: Vec<u64> = streamed.difference(&existing).copied().collect();
        db.bootstrap_bulk_load(ids, fresh.iter().map(|&k| (k, k * 7)));
        db.bootstrap_bulk_load(tree, fresh.iter().map(|&k| (k, k * 7)));
        model.extend(fresh.iter().map(|&k| (k, k * 7)));
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        prop_assert_eq!(&db.peek_range(ids, ..), &want);
        prop_assert_eq!(&db.peek_range(tree, ..), &want);
        prop_assert_eq!(db.table_len(ids), want.len());
    }
}

#[test]
#[should_panic(expected = "range start is greater than range end")]
fn id_engine_inverted_range_panics() {
    let _ = IdRows::<u64>::new().count_range(&(Bound::Included(10u64), Bound::Excluded(5u64)));
}

#[test]
#[should_panic(expected = "equal and sides are excluded")]
fn id_engine_excluded_empty_range_panics() {
    let _ = IdRows::<u64>::new().count_range(&(Bound::Excluded(7u64), Bound::Excluded(7u64)));
}

#[test]
#[should_panic(expected = "bulk_build key collision in table ids")]
fn id_table_bulk_load_rejects_keys_already_present() {
    let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
    let ids = db.create_id_table::<u64>("ids", Db::WORD_ROW_BYTES);
    db.bootstrap_insert(ids, 3, 0);
    db.bootstrap_bulk_load(ids, [(1, 1), (3, 3), (4, 4)].into_iter());
}

/// `peek_range(inodes, ..)` — what the audit and the benchmark's checks
/// call — on a table whose last id is past 2^20: every row, in order, and
/// the walk stops at the last page instead of at `u64::MAX`.
#[test]
fn unbounded_scan_of_a_sparse_id_table_returns_every_row() {
    let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
    let ids = db.create_id_table::<u64>("inodes", Db::WORD_ROW_BYTES);
    let keys = [0, 1, PAGE - 1, PAGE, (1 << 20) + 5];
    for k in keys {
        db.bootstrap_insert(ids, k, k + 1);
    }
    let want: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k + 1)).collect();
    assert_eq!(db.peek_range(ids, ..), want);
    assert_eq!(db.peek_range(ids, (1 << 20)..), want[4..]);
    assert_eq!(db.peek_count_range(ids, ..), keys.len());
    assert_eq!(db.peek(ids, &(1 << 20)), None);
}

/// The durable backend's post-crash check compares every table's encoded
/// keys (`for_each_encoded_key`) with what WAL replay recovered: an id
/// table with holes, whole empty pages and a key at 0 must come back
/// clean, as a B+ tree table with the same rows does.
#[test]
fn id_table_keys_survive_the_post_crash_check() {
    let mut sim = Sim::new(41);
    let params = StoreParams { shards: 1, ..StoreParams::default() };
    let db = Db::new_durable(&params, SimDuration::from_secs(5), DurabilityConfig::default());
    let ids = db.create_id_table::<u64>("ids", Db::WORD_ROW_BYTES);
    let tree = db.create_table::<u64, u64>("tree");
    let keys: Vec<u64> = [0, 2, 5, PAGE + 1, 3 * PAGE + 7].into();
    db.bootstrap_bulk_load(ids, keys.iter().map(|&k| (k, k)));
    db.bootstrap_bulk_load(tree, keys.iter().map(|&k| (k, k)));
    db.crash_shard(&mut sim, 0, SimDuration::from_millis(1));
    sim.run();
    assert_eq!(db.durability_violations(), Vec::<String>::new());
    assert_eq!(db.durability_stats().unwrap().replayed_records, 2 * keys.len() as u64);
}

/// A row moves from its slot to the spill and back as overwrites change
/// whether it names its slot's id; gets, ranges, counts and removes see
/// exactly the last row written, wherever it lives. The spilled ids sit
/// in an allocated page, a hole and a page of their own.
#[test]
fn overwrites_move_a_row_between_its_slot_and_the_spill() {
    let mut rows: IdRows<Keyed> = IdRows::new();
    let mut model: BTreeMap<u64, Keyed> = BTreeMap::new();
    let mut put = |rows: &mut IdRows<Keyed>, k: u64, id: u64, payload: u64| {
        let v = Keyed { id, payload };
        assert_eq!(rows.insert(k, v.clone()), model.insert(k, v), "insert({k})");
        assert_same_ids(rows, &model);
    };
    put(&mut rows, 5, 5, 1); // slot
    put(&mut rows, 5, 6, 2); // slot -> spill
    assert_eq!(rows.get(5), Some(Keyed { id: 6, payload: 2 }));
    put(&mut rows, 5, 7, 3); // spill -> spill
    put(&mut rows, 5, 5, 4); // spill -> slot
    put(&mut rows, 9, 1, 5); // fresh id straight into the spill
    put(&mut rows, 3 * PAGE, 0, 6); // in a page only the spill reaches
    assert_eq!(rows.count_range(&(6..=9)), 1);
    assert_eq!(rows.count_range(&(PAGE..)), 1);
    let tail: Vec<u64> = rows.range(&(6..)).map(|(k, _)| k).collect();
    assert_eq!(tail, vec![9, 3 * PAGE]);
    assert_eq!(rows.remove(9), Some(Keyed { id: 1, payload: 5 }));
    assert_eq!(rows.remove(9), None);
    assert_eq!(rows.get(9), None);
    assert_eq!(rows.remove(5), Some(Keyed { id: 5, payload: 4 }));
    assert_eq!(rows.len(), 1);
}

/// Through the `Db` surface, on rows shaped like the inode row: a
/// mis-keyed bootstrap row reads back exactly as written, and an aborted
/// transactional overwrite restores the row its slot rebuilt and the row
/// the spill kept whole, through the undo log.
#[test]
fn id_table_undo_restores_rebuilt_and_spilled_rows() {
    use lambda_store::LockMode;
    let mut sim = Sim::new(5);
    let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
    let ids = db.create_id_table::<Keyed>("ids", Db::WORD_ROW_BYTES);
    let (good, bad) = (Keyed { id: 2, payload: 20 }, Keyed { id: 30, payload: 3 });
    db.bootstrap_insert(ids, 2, good.clone());
    db.bootstrap_insert(ids, 3, bad.clone());
    assert_eq!(db.peek(ids, &3), Some(bad.clone()));
    assert_eq!(db.peek_range(ids, ..), vec![(2, good.clone()), (3, bad.clone())]);
    let txn = db.begin();
    let keys = [db.lock_key(ids, &2), db.lock_key(ids, &3)];
    let db2 = db.clone();
    db.lock(&mut sim, txn, keys, LockMode::Exclusive, move |sim, locked| {
        locked.unwrap();
        db2.upsert(txn, ids, 2, Keyed { id: 9, payload: 21 }).unwrap();
        db2.upsert(txn, ids, 3, Keyed { id: 3, payload: 4 }).unwrap();
        assert_eq!(db2.peek(ids, &2), Some(Keyed { id: 9, payload: 21 }));
        assert_eq!(db2.peek(ids, &3), Some(Keyed { id: 3, payload: 4 }));
        db2.abort(sim, txn);
    });
    sim.run();
    assert_eq!(db.peek_range(ids, ..), vec![(2, good), (3, bad)]);
    assert_eq!(db.table_len(ids), 2);
}
