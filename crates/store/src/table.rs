//! Typed tables behind a type-erased registry.
//!
//! The [`Db`](crate::Db) owns a heterogeneous set of tables (inodes,
//! children index, DataNodes, subtree locks, …). Each is a
//! [`TypedTable`] over one of two engines, fixed when the table is
//! created: an arena-backed [`BpTree`] for
//! [`Db::create_table`](crate::Db::create_table) and
//! [`Db::create_sized_table`](crate::Db::create_sized_table), or
//! id-addressed pages ([`IdRows`]) for
//! [`Db::create_id_table`](crate::Db::create_id_table), whose `u64` keys
//! come from a sequence (the inode table). The registry stores tables as
//! `dyn AnyTable` and hands callers a typed, copyable
//! [`TableHandle<K, V>`] that restores the concrete type on access.
//!
//! Which engine is underneath is invisible at this layer: `TypedTable`
//! keeps one surface and the semantics of a `BTreeMap<K, V>` on either,
//! and `tests/engine_differential.rs` pins both engines against the std
//! map. Reads hand out owned rows on both engines, because the id engine
//! rebuilds each row from its slot ([`IdRow`]); it sits behind the
//! object-safe `IdEngine`, so only [`Db::create_id_table`] names a row's
//! stored form and the rest of the store needs no `IdRow` bound.
//!
//! [`Db::create_id_table`]: crate::Db::create_id_table

use std::any::Any;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Bound, RangeBounds};
use std::rc::Rc;

use crate::bptree::BpTree;
use crate::idrows::{IdRow, IdRows};
use crate::key::KeyCodec;

/// Identifies a table within one [`Db`](crate::Db).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableId(u32);

impl TableId {
    /// Builds a table id from its raw index.
    #[must_use]
    pub const fn new(raw: u32) -> Self {
        TableId(raw)
    }

    /// The raw index.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "table#{}", self.0)
    }
}

/// A typed, copyable reference to a table created by
/// [`Db::create_table`](crate::Db::create_table).
pub struct TableHandle<K, V> {
    id: TableId,
    _marker: PhantomData<fn() -> (K, V)>,
}

impl<K, V> TableHandle<K, V> {
    pub(crate) fn new(id: TableId) -> Self {
        TableHandle { id, _marker: PhantomData }
    }

    /// The underlying table id.
    #[must_use]
    pub fn id(&self) -> TableId {
        self.id
    }
}

impl<K, V> Clone for TableHandle<K, V> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<K, V> Copy for TableHandle<K, V> {}
impl<K, V> fmt::Debug for TableHandle<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TableHandle({})", self.id)
    }
}

/// Object-safe view of a table, for the registry.
pub(crate) trait AnyTable {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Visits every row's encoded key in ascending order — the durable
    /// backend's post-crash consistency check compares these against the
    /// recovered shadow key set.
    fn for_each_encoded_key(&self, visit: &mut dyn FnMut(&[u8]));
}

/// A concrete table: an ordered map from `K` to `V`.
pub(crate) struct TypedTable<K, V> {
    name: Rc<str>,
    /// Bytes the durable backend logs per row value: the modeled row size
    /// the table was created with, never the host layout of `V`.
    row_bytes: u32,
    rows: Rows<K, V>,
}

/// The engine under a table, chosen once when the table is created.
enum Rows<K, V> {
    /// Ordered by key.
    Tree(BpTree<K, V>),
    /// Addressed by sequence id; `K` is `u64`.
    Ids(Box<dyn IdEngine<V>>),
}

/// What a table asks of its id engine, with rows by value.
trait IdEngine<V> {
    fn len(&self) -> usize;
    fn get(&self, id: u64) -> Option<V>;
    fn insert(&mut self, id: u64, value: V) -> Option<V>;
    fn remove(&mut self, id: u64) -> Option<V>;
    fn scan_with(&self, range: (Bound<u64>, Bound<u64>), visit: &mut dyn FnMut(u64, &V));
    fn count_range(&self, range: (Bound<u64>, Bound<u64>)) -> usize;
}

impl<V: IdRow> IdEngine<V> for IdRows<V> {
    fn len(&self) -> usize {
        IdRows::len(self)
    }
    fn get(&self, id: u64) -> Option<V> {
        IdRows::get(self, id)
    }
    fn insert(&mut self, id: u64, value: V) -> Option<V> {
        IdRows::insert(self, id, value)
    }
    fn remove(&mut self, id: u64) -> Option<V> {
        IdRows::remove(self, id)
    }
    fn scan_with(&self, range: (Bound<u64>, Bound<u64>), visit: &mut dyn FnMut(u64, &V)) {
        IdRows::scan_with(self, &range, |id, v| visit(*id, v));
    }
    fn count_range(&self, range: (Bound<u64>, Bound<u64>)) -> usize {
        IdRows::count_range(self, &range)
    }
}

/// The id of a key in an id-addressed table.
#[inline]
fn id_of<K: KeyCodec>(key: &K) -> u64 {
    key.row_id().expect("id-addressed tables are keyed by u64")
}

/// The key of an id in an id-addressed table.
#[inline]
fn key_of<K: KeyCodec>(id: u64) -> K {
    K::from_row_id(id).expect("id-addressed tables are keyed by u64")
}

/// `range` with its bounds mapped to ids.
fn id_range<K: KeyCodec, R: RangeBounds<K>>(range: &R) -> (Bound<u64>, Bound<u64>) {
    (range.start_bound().map(id_of), range.end_bound().map(id_of))
}

impl<K: KeyCodec, V: Clone + 'static> TypedTable<K, V> {
    /// A table over the B+ tree.
    pub(crate) fn new(name: impl Into<String>, row_bytes: u32) -> Self {
        TypedTable { name: name.into().into(), row_bytes, rows: Rows::Tree(BpTree::new()) }
    }

    /// Bytes the durable backend logs per row value.
    pub(crate) fn row_bytes(&self) -> u32 {
        self.row_bytes
    }

    pub(crate) fn len(&self) -> usize {
        match &self.rows {
            Rows::Tree(t) => t.len(),
            Rows::Ids(t) => t.len(),
        }
    }

    pub(crate) fn get(&self, key: &K) -> Option<V> {
        match &self.rows {
            Rows::Tree(t) => t.get(key).cloned(),
            Rows::Ids(t) => t.get(id_of(key)),
        }
    }

    pub(crate) fn insert(&mut self, key: K, value: V) -> Option<V> {
        match &mut self.rows {
            Rows::Tree(t) => t.insert(key, value),
            Rows::Ids(t) => t.insert(id_of(&key), value),
        }
    }

    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        match &mut self.rows {
            Rows::Tree(t) => t.remove(key),
            Rows::Ids(t) => t.remove(id_of(key)),
        }
    }

    pub(crate) fn scan<R: RangeBounds<K>>(&self, range: R) -> Vec<(K, V)> {
        let mut rows = Vec::new();
        self.scan_with(range, |k, v| rows.push((k.clone(), v.clone())));
        rows
    }

    /// Visits every row in `range` in ascending key order without
    /// materializing anything — the allocation-free sibling of
    /// [`scan`](TypedTable::scan) for the hot listing/read paths.
    pub(crate) fn scan_with<R: RangeBounds<K>>(&self, range: R, mut visit: impl FnMut(&K, &V)) {
        match &self.rows {
            Rows::Tree(t) => t.scan_with(&range, visit),
            Rows::Ids(t) => t.scan_with(id_range(&range), &mut |id, v| visit(&key_of(id), v)),
        }
    }

    pub(crate) fn count_range<R: RangeBounds<K>>(&self, range: R) -> usize {
        match &self.rows {
            Rows::Tree(t) => t.count_range(&range),
            Rows::Ids(t) => t.count_range(id_range(&range)),
        }
    }

    /// Builds the table directly from a strictly ascending stream of fresh
    /// rows, merged with whatever the table already holds.
    ///
    /// Instead of pushing every row through `insert` (rightmost-edge
    /// splits, half-full nodes), the sorted stream goes straight into the
    /// engine's dense bulk build. The resulting table holds the same
    /// contents in the same iteration order as inserting the rows one by
    /// one — which `tests/bulk_build.rs` pins differentially — in full
    /// nodes. An id-addressed table takes the rows into their slots one by
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is not strictly ascending by key or contains a key
    /// the table already holds (bootstrap streams are collision-free by
    /// construction; a violation here is a loader bug, mirroring
    /// `bootstrap_add`'s name-collision panic).
    pub(crate) fn bulk_build(&mut self, rows: impl Iterator<Item = (K, V)>) {
        let name = Rc::clone(&self.name);
        let mut last: Option<K> = None;
        let rows = rows.inspect(move |(k, _)| {
            if let Some(prev) = &last {
                assert!(
                    prev < k,
                    "bulk_build stream for table {name} is not strictly ascending"
                );
            }
            last = Some(k.clone());
        });
        let name = Rc::clone(&self.name);
        let tree = match &mut self.rows {
            Rows::Tree(t) => t,
            Rows::Ids(t) => {
                for (k, v) in rows {
                    if t.insert(id_of(&k), v).is_some() {
                        panic!("bulk_build key collision in table {name}");
                    }
                }
                return;
            }
        };
        let old = std::mem::take(tree);
        *tree = if old.is_empty() {
            BpTree::from_ascending(rows)
        } else {
            BpTree::from_ascending(MergeAscending {
                old: old.into_entries().peekable(),
                new: rows.peekable(),
                name,
            })
        };
    }
}

impl<V: IdRow> TypedTable<u64, V> {
    /// A table over id-addressed pages.
    pub(crate) fn new_id(name: impl Into<String>, row_bytes: u32) -> Self {
        let rows = Rows::Ids(Box::new(IdRows::<V>::new()));
        TypedTable { name: name.into().into(), row_bytes, rows }
    }
}

/// Merges two ascending `(key, value)` streams into one, panicking on a
/// key present in both (bulk loads must not overwrite existing rows).
struct MergeAscending<K, V, A: Iterator<Item = (K, V)>, B: Iterator<Item = (K, V)>> {
    old: std::iter::Peekable<A>,
    new: std::iter::Peekable<B>,
    name: Rc<str>,
}

impl<K: Ord, V, A: Iterator<Item = (K, V)>, B: Iterator<Item = (K, V)>> Iterator
    for MergeAscending<K, V, A, B>
{
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        match (self.old.peek(), self.new.peek()) {
            (Some((a, _)), Some((b, _))) => match a.cmp(b) {
                std::cmp::Ordering::Less => self.old.next(),
                std::cmp::Ordering::Greater => self.new.next(),
                std::cmp::Ordering::Equal => {
                    panic!("bulk_build key collision in table {}", self.name)
                }
            },
            (Some(_), None) => self.old.next(),
            (None, _) => self.new.next(),
        }
    }

    // Collisions panic rather than merge, so the output length is the sum
    // of the inputs'. An exact hint here lets the bulk build reserve its
    // arenas in one allocation.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let (al, ah) = self.old.size_hint();
        let (bl, bh) = self.new.size_hint();
        (al + bl, ah.zip(bh).map(|(a, b)| a + b))
    }
}

impl<K: KeyCodec, V: Clone + 'static> AnyTable for TypedTable<K, V> {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn for_each_encoded_key(&self, visit: &mut dyn FnMut(&[u8])) {
        let mut buf = Vec::new();
        self.scan_with(.., |k: &K, _| {
            buf.clear();
            k.encode_into(&mut buf);
            visit(&buf);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_table_basic_crud() {
        let mut t: TypedTable<u64, String> = TypedTable::new("t", 8);
        assert_eq!(t.insert(1, "a".into()), None);
        assert_eq!(t.insert(1, "b".into()), Some("a".into()));
        assert_eq!(t.get(&1), Some("b".to_string()));
        assert_eq!(t.remove(&1), Some("b".into()));
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn scan_returns_ordered_range() {
        let mut t: TypedTable<(u64, String), u64> = TypedTable::new("children", 8);
        t.insert((1, "c".into()), 10);
        t.insert((1, "a".into()), 11);
        t.insert((2, "b".into()), 12);
        t.insert((1, "b".into()), 13);
        let rows = t.scan((1, String::new())..(2, String::new()));
        let names: Vec<&str> = rows.iter().map(|((_, n), _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(t.count_range((1, String::new())..(2, String::new())), 3);
    }

    #[test]
    fn encoded_keys_come_in_ascending_order_on_both_engines() {
        let keys = [9u64, 0, 4_097, 3, 70_000];
        let mut tree: TypedTable<u64, u64> = TypedTable::new("tree", 8);
        let mut ids: TypedTable<u64, u64> = TypedTable::new_id("ids", 8);
        for k in keys {
            tree.insert(k, k);
            ids.insert(k, k);
        }
        let mut want: Vec<Vec<u8>> = keys.iter().map(KeyCodec::encode).collect();
        want.sort();
        for t in [&tree as &dyn AnyTable, &ids] {
            let mut got = Vec::new();
            t.for_each_encoded_key(&mut |k| got.push(k.to_vec()));
            assert_eq!(got, want);
        }
    }

    #[test]
    fn any_table_round_trips_through_registry_types() {
        let t: Box<dyn AnyTable> = Box::new(TypedTable::<u64, u64>::new("x", 8));
        assert!(t.as_any().downcast_ref::<TypedTable<u64, u64>>().is_some());
        assert!(t.as_any().downcast_ref::<TypedTable<u64, String>>().is_none());
    }

    #[test]
    fn handles_are_copy_and_debuggable() {
        let h: TableHandle<u64, u64> = TableHandle::new(TableId::new(3));
        let h2 = h;
        assert_eq!(h.id(), h2.id());
        assert_eq!(format!("{h:?}"), "TableHandle(table#3)");
    }
}
