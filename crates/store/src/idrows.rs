//! Id-addressed rows — the engine under tables keyed by sequence ids.
//!
//! The inode table's keys are handed out by a sequence
//! (`MetadataSchema::next_id`), so they are dense from 1 up. NDB answers a
//! primary-key read from a hash index; an ordered engine ([`BpTree`])
//! answers it with four dependent levels of key search at 10M rows.
//! [`IdRows`] answers it with the id itself as the address: rows live in
//! fixed pages of [`PAGE_ROWS`] slots, and page `id / PAGE_ROWS` holds slot
//! `id % PAGE_ROWS`.
//!
//! * **A get is two loads.** The page directory entry (16 bytes per page:
//!   39 KB for a 10M-row table, cache-resident) and the row itself.
//! * **No keys are stored, in the slot or in the row.** A slot's position
//!   is its id, so a row costs `size_of::<Option<V::Stored>>()`: the row's
//!   [`IdRow::Stored`] form leaves out the id the position gives, and a
//!   niche keeps the `Option` tag out of it. The inode row is 32 bytes as
//!   `Inode` and 24 in its slot. Reads rebuild the row from the slot's id
//!   and hand it out owned. The 8-byte leaf keys and the branch arenas a
//!   B+ tree keeps beside the rows are gone too.
//! * **A mis-keyed row is kept whole.** A row that names another id than
//!   its slot's cannot drop its id, so [`IdRow::store`] hands it back and
//!   the table keeps it in a side map, which a get consults only when the
//!   slot is empty and the map is not. The table stays an exact map, so a
//!   consistency check still sees an inode stored under the wrong key.
//!   Only corruption tests write such rows.
//! * **Growth never moves a row.** A page is allocated by the first insert
//!   into it and never reallocated; only the directory grows. (A flat
//!   doubling `Vec` would copy a 240 MB table on the first insert after a
//!   10M-row bulk load.)
//! * **Removal leaves a hole.** The slot empties and the page stays.
//!   Sequence ids are not reused, so memory follows the highest id ever
//!   inserted, not the live row count — right for a sequence, wrong for
//!   arbitrary keys, which is why only
//!   [`Db::create_id_table`](crate::Db::create_id_table) picks this engine.
//!
//! Ordered iteration walks ids upwards, clamped to the allocated pages: an
//! unbounded range ends at the last page, not at `u64::MAX`. Observable
//! behaviour — insert/remove results, iteration order, range contents and
//! counts, the panics on inverted ranges — is a `BTreeMap<u64, V>`'s,
//! mis-keyed rows included, pinned by
//! `crates/store/tests/engine_differential.rs`.
//!
//! [`BpTree`]: crate::bptree::BpTree

use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

use crate::bptree::check_range;

/// Rows per page. A page of 24-byte stored inode rows is 96 KiB, and a
/// 10M-row table needs 2 442 of them.
pub const PAGE_ROWS: usize = 4096;

const PAGE_BITS: u32 = PAGE_ROWS.trailing_zeros();

/// Ids from here up are refused: the directory is dense up to the highest
/// page, so one stray huge id would allocate all of it.
const MAX_ID: u64 = 1 << 36;

/// A row type an id-addressed table can hold without the id its slot
/// position already gives.
///
/// [`IdRows`] keeps each row as [`Stored`](IdRow::Stored) and rebuilds
/// the row from its slot's id on every read, so `load(id, &stored)` must
/// give back the row that `store(id)` took. A row that drops nothing
/// (`u64`, a payload with no id in it) stores itself.
pub trait IdRow: Clone + 'static {
    /// The row as a slot holds it.
    type Stored;

    /// The stored form of a row kept in slot `id`, or the row itself when
    /// it names another id and so cannot drop its own.
    ///
    /// # Errors
    ///
    /// Returns the row unchanged when it cannot be rebuilt from `id`.
    fn store(self, id: u64) -> Result<Self::Stored, Self>;

    /// The row slot `id` holds as `stored`.
    fn load(id: u64, stored: &Self::Stored) -> Self;
}

impl IdRow for u64 {
    type Stored = u64;

    fn store(self, _id: u64) -> Result<u64, u64> {
        Ok(self)
    }

    fn load(_id: u64, stored: &u64) -> u64 {
        *stored
    }
}

/// A map from `u64` ids to `V`, stored by id in fixed pages.
///
/// See the [module docs](self). The API mirrors the slice of
/// [`BpTree`](crate::bptree::BpTree)'s the store uses, with ids by value
/// and rows handed out owned, rebuilt from their slots.
#[derive(Debug)]
pub struct IdRows<V: IdRow> {
    /// Page `p` holds ids `p * PAGE_ROWS ..`; a page no insert has reached
    /// is an empty slice, which owns no heap.
    pages: Vec<Box<[Option<V::Stored>]>>,
    /// Rows whose [`IdRow::store`] refused their slot, kept whole. An id
    /// is in its slot or here, never both, and its page is allocated.
    spilled: BTreeMap<u64, V>,
    len: usize,
}

impl<V: IdRow> Default for IdRows<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: IdRow> IdRows<V> {
    /// An empty table (no pages).
    #[must_use]
    pub fn new() -> Self {
        IdRows { pages: Vec::new(), spilled: BTreeMap::new(), len: 0 }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up `id`.
    #[inline]
    #[must_use]
    pub fn get(&self, id: u64) -> Option<V> {
        match self.slot(id) {
            Some(stored) => Some(V::load(id, stored)),
            None if self.spilled.is_empty() => None,
            None => self.spilled.get(&id).cloned(),
        }
    }

    /// Inserts `id → value`, returning the value it replaced, if any.
    ///
    /// # Panics
    ///
    /// Panics if `id` is 2^36 or more.
    pub fn insert(&mut self, id: u64, value: V) -> Option<V> {
        let old = match value.store(id) {
            Ok(stored) => {
                let old = self.slot_mut(id).replace(stored);
                old.map(|s| V::load(id, &s)).or_else(|| self.spilled.remove(&id))
            }
            Err(value) => {
                let old = self.slot_mut(id).take();
                let spilled = self.spilled.insert(id, value);
                old.map(|s| V::load(id, &s)).or(spilled)
            }
        };
        self.len += usize::from(old.is_none());
        old
    }

    /// Removes `id`, returning its value, if present. The slot becomes a
    /// hole; its page stays allocated.
    pub fn remove(&mut self, id: u64) -> Option<V> {
        let page = self.pages.get_mut((id >> PAGE_BITS) as usize)?;
        let old = match page.get_mut(id as usize % PAGE_ROWS)?.take() {
            Some(stored) => Some(V::load(id, &stored)),
            None => self.spilled.remove(&id),
        };
        self.len -= usize::from(old.is_some());
        old
    }

    /// The stored row in the slot of `id`, if any.
    #[inline]
    fn slot(&self, id: u64) -> Option<&V::Stored> {
        let page = self.pages.get((id >> PAGE_BITS) as usize)?;
        page.get(id as usize % PAGE_ROWS)?.as_ref()
    }

    /// The slot of `id`, allocating its page (and growing the directory to
    /// reach it) on first use.
    fn slot_mut(&mut self, id: u64) -> &mut Option<V::Stored> {
        assert!(id < MAX_ID, "id {id} is past the id engine's range (ids < 2^36)");
        let p = (id >> PAGE_BITS) as usize;
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, Box::default);
        }
        let page = &mut self.pages[p];
        if page.is_empty() {
            *page = std::iter::repeat_with(|| None).take(PAGE_ROWS).collect();
        }
        &mut page[id as usize % PAGE_ROWS]
    }

    /// The ids `range` names, as a half-open span clamped to the allocated
    /// pages, so `..` walks the ids this table can hold rather than the
    /// whole `u64` space. Every spilled id lies inside the clamp.
    ///
    /// # Panics
    ///
    /// Panics on an inverted or empty-excluded range, like
    /// `BTreeMap::range`.
    fn span<R: RangeBounds<u64>>(&self, range: &R) -> std::ops::Range<u64> {
        check_range(range);
        let limit = (self.pages.len() as u64) << PAGE_BITS;
        let lo = match range.start_bound() {
            Bound::Unbounded => 0,
            Bound::Included(&s) => s,
            Bound::Excluded(&s) => s.saturating_add(1),
        };
        let hi = match range.end_bound() {
            Bound::Unbounded => limit,
            Bound::Included(&e) => e.saturating_add(1).min(limit),
            Bound::Excluded(&e) => e.min(limit),
        };
        lo..hi.max(lo)
    }

    /// Iterates the rows with ids in `range`, ascending.
    ///
    /// # Panics
    ///
    /// Panics on an inverted or empty-excluded range, like
    /// `BTreeMap::range`.
    pub fn range<R: RangeBounds<u64>>(&self, range: &R) -> impl Iterator<Item = (u64, V)> + '_ {
        self.span(range).filter_map(move |id| Some((id, self.get(id)?)))
    }

    /// Visits every row in `range` in ascending id order.
    ///
    /// # Panics
    ///
    /// Panics on an inverted or empty-excluded range, like
    /// `BTreeMap::range`.
    pub fn scan_with<R: RangeBounds<u64>>(&self, range: &R, mut visit: impl FnMut(&u64, &V)) {
        for (id, v) in self.range(range) {
            visit(&id, &v);
        }
    }

    /// Number of rows in `range`: occupied slots and spilled ids, with no
    /// row rebuilt.
    ///
    /// # Panics
    ///
    /// Panics on an inverted or empty-excluded range, like
    /// `BTreeMap::range`.
    #[must_use]
    pub fn count_range<R: RangeBounds<u64>>(&self, range: &R) -> usize {
        let span = self.span(range);
        let spilled = self.spilled.range(span.clone()).count();
        spilled + span.filter(|&id| self.slot(id).is_some()).count()
    }

    /// Iterates all rows in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, V)> + '_ {
        self.range(&(..))
    }
}

/// Builds a table from rows in any order; a repeated id keeps its last
/// value, as inserting them one by one would.
impl<V: IdRow> FromIterator<(u64, V)> for IdRows<V> {
    fn from_iter<I: IntoIterator<Item = (u64, V)>>(rows: I) -> Self {
        let mut t = IdRows::new();
        for (id, v) in rows {
            t.insert(id, v);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut t = IdRows::new();
        assert_eq!(t.insert(5, 50u64), None);
        assert_eq!(t.insert(5, 51), Some(50));
        assert_eq!(t.get(5), Some(51));
        assert_eq!(t.remove(5), Some(51));
        assert_eq!(t.remove(5), None);
        assert_eq!(t.get(5), None);
        assert!(t.is_empty());
    }

    #[test]
    fn pages_are_allocated_on_first_insert_and_never_moved() {
        let mut t = IdRows::new();
        t.insert(3 * PAGE_ROWS as u64 + 7, 1u64);
        assert_eq!(t.pages.len(), 4);
        assert_eq!(t.pages.iter().filter(|p| !p.is_empty()).count(), 1, "only the touched page");
        let row = t.slot(3 * PAGE_ROWS as u64 + 7).unwrap() as *const u64;
        for id in 0..10 * PAGE_ROWS as u64 {
            t.insert(id, id);
        }
        let moved = t.slot(3 * PAGE_ROWS as u64 + 7).unwrap() as *const u64;
        assert_eq!(row, moved, "growth moved a row");
        // Ids past the last page, and in an unallocated page's span, miss.
        assert_eq!(t.get(10 * PAGE_ROWS as u64), None);
        assert_eq!(t.get(u64::MAX), None);
        assert_eq!(t.remove(u64::MAX), None);
    }

    #[test]
    fn unbounded_ranges_stop_at_the_last_page() {
        let t: IdRows<u64> = [(0, 0), (2, 2), (PAGE_ROWS as u64 + 1, 9)].into_iter().collect();
        let all: Vec<u64> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(all, vec![0, 2, PAGE_ROWS as u64 + 1]);
        assert_eq!(t.count_range(&(1..)), 2);
        assert_eq!(t.count_range(&(..=u64::MAX)), 3);
        let tail = (Bound::Excluded(u64::MAX), Bound::Unbounded);
        assert_eq!(t.count_range(&tail), 0);
    }

    #[test]
    #[should_panic(expected = "past the id engine's range")]
    fn huge_ids_are_refused() {
        IdRows::new().insert(MAX_ID, 0u64);
    }
}
