//! A generation-tagged slab: records addressed by small `Copy` keys that go
//! stale when their record is removed.
//!
//! Callbacks scheduled on the event queue (a retry timer, a lock-wait
//! timeout, a granted lock waiter) outlive the records they refer to. Each
//! such callback holds a [`SlabKey`] — a slot index plus that slot's
//! generation — instead of a refcounted pointer. Removing a record frees
//! its slot and moves the slot's generation on, so every outstanding key
//! to it stops resolving; the callback sees `None` and does nothing.
//!
//! Freed slots are reused last-freed-first, and iteration runs in slot
//! order. Both are part of the contract: callers that walk the slab (or
//! whose keys feed a deterministic schedule) depend on them.

/// `Copy` handle to a [`Slab`] record, stale once the record is removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabKey {
    slot: u32,
    gen: u32,
}

/// Generation-tagged slab of `T` records; see the module docs.
#[derive(Debug)]
pub struct Slab<T> {
    /// `(generation, record)` per slot; `None` while the slot is free.
    slots: Vec<(u32, Option<T>)>,
    /// Free slots, the most recently freed last.
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { slots: Vec::new(), free: Vec::new() }
    }
}

impl<T> Slab<T> {
    /// Stores `value` in the most recently freed slot (or a new one) and
    /// returns its key.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX` slots.
    pub fn insert(&mut self, value: T) -> SlabKey {
        match self.free.pop() {
            Some(slot) => {
                let (gen, cell) = &mut self.slots[slot as usize];
                debug_assert!(cell.is_none());
                *cell = Some(value);
                SlabKey { slot, gen: *gen }
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("slab overflow");
                self.slots.push((0, Some(value)));
                SlabKey { slot, gen: 0 }
            }
        }
    }

    /// The record behind `key`, unless it was removed.
    #[must_use]
    pub fn get(&self, key: SlabKey) -> Option<&T> {
        match self.slots.get(key.slot as usize)? {
            (gen, value) if *gen == key.gen => value.as_ref(),
            _ => None,
        }
    }

    /// Mutable access to the record behind `key`, unless it was removed.
    pub fn get_mut(&mut self, key: SlabKey) -> Option<&mut T> {
        match self.slots.get_mut(key.slot as usize)? {
            (gen, value) if *gen == key.gen => value.as_mut(),
            _ => None,
        }
    }

    /// Takes the record out and frees its slot; every key to it goes stale.
    pub fn remove(&mut self, key: SlabKey) -> Option<T> {
        let (gen, cell) = self.slots.get_mut(key.slot as usize)?;
        if *gen != key.gen {
            return None;
        }
        let value = cell.take()?;
        *gen = gen.wrapping_add(1);
        self.free.push(key.slot);
        Some(value)
    }

    /// Number of live records.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether no record is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live records with their keys, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (SlabKey, &T)> {
        self.slots.iter().zip(0u32..).filter_map(|((gen, value), slot)| {
            value.as_ref().map(|v| (SlabKey { slot, gen: *gen }, v))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_slots_and_stales_keys() {
        let mut slab = Slab::default();
        let k1 = slab.insert("a");
        assert_eq!(slab.get(k1), Some(&"a"));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.remove(k1), Some("a"));
        assert_eq!(slab.get(k1), None, "a removed key must go stale");
        assert_eq!(slab.remove(k1), None, "a second remove must fail");
        assert!(slab.is_empty());
        // The slot comes back under a new generation: the old key still
        // resolves to nothing.
        let k2 = slab.insert("b");
        assert_eq!(k2.slot, k1.slot, "the slot must be reused");
        assert_ne!(k2.gen, k1.gen, "the generation must move on");
        assert_eq!(slab.get(k1), None);
        assert_eq!(slab.get_mut(k1), None);
        *slab.get_mut(k2).unwrap() = "c";
        assert_eq!(slab.get(k2), Some(&"c"));
    }

    #[test]
    fn the_last_freed_slot_is_reused_first() {
        let mut slab = Slab::default();
        let keys: Vec<SlabKey> = (0..4).map(|i| slab.insert(i)).collect();
        slab.remove(keys[1]);
        slab.remove(keys[3]);
        slab.remove(keys[0]);
        assert_eq!(slab.insert(10).slot, keys[0].slot);
        assert_eq!(slab.insert(11).slot, keys[3].slot);
        assert_eq!(slab.insert(12).slot, keys[1].slot);
        assert_eq!(slab.insert(13).slot, 4, "a full slab grows");
    }

    #[test]
    fn iteration_is_in_slot_order() {
        let mut slab = Slab::default();
        let keys: Vec<SlabKey> = (0..5).map(|i| slab.insert(i * 10)).collect();
        slab.remove(keys[0]);
        slab.remove(keys[2]);
        let k = slab.insert(99); // lands in slot 2
        let seen: Vec<(SlabKey, i32)> = slab.iter().map(|(k, v)| (k, *v)).collect();
        assert_eq!(seen, vec![(keys[1], 10), (k, 99), (keys[3], 30), (keys[4], 40)]);
        assert_eq!(k.slot, 2);
    }
}
