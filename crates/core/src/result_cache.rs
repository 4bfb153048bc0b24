//! The NameNode's retry-deduplication cache (paper §3.2): the most recent
//! replies, keyed by request id, so a resubmitted request is answered
//! without re-executing a non-idempotent operation. The NameNode retains
//! final write replies only (`NameNode::handle_op`); the ring itself is
//! agnostic of what it holds.
//!
//! A ring of `(id, reply)` slots plus a compact `id → slot` index. Inserts
//! of new ids claim slots in ring order, so the slot about to be reused
//! always holds the id that entered first: eviction is FIFO by first
//! insertion. Re-inserting a live id overwrites its reply where it sits —
//! it does not move to the back of the queue. Replacing the evicted pair
//! in place costs one index removal and one index insertion on integer
//! keys; nothing is allocated once the ring is full.

use std::collections::HashMap;

use lambda_namespace::MixBuild;

use crate::messages::RequestId;

/// A bounded FIFO map from [`RequestId`] to the reply sent for it.
#[derive(Debug)]
pub struct ResultCache<V> {
    /// Live entries; grows to `capacity`, then is overwritten in place.
    slots: Vec<(RequestId, V)>,
    /// Slot of each live id.
    index: HashMap<RequestId, u32, MixBuild>,
    /// Once the ring is full: the slot holding the oldest id.
    oldest: usize,
    capacity: usize,
}

impl<V> ResultCache<V> {
    /// An empty cache retaining at most `capacity` replies.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit a `u32` slot index.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "result cache capacity must be positive");
        assert!(u32::try_from(capacity).is_ok(), "result cache capacity exceeds u32 slots");
        ResultCache { slots: Vec::new(), index: HashMap::default(), oldest: 0, capacity }
    }

    /// The reply retained for `id`, if it has not been evicted.
    #[must_use]
    pub fn get(&self, id: &RequestId) -> Option<&V> {
        self.index.get(id).map(|&slot| &self.slots[slot as usize].1)
    }

    /// Retains `reply` for `id`. A new id evicts the id that was first
    /// inserted longest ago once `capacity` ids are live; a live id keeps
    /// its place in that order and only its reply changes.
    pub fn insert(&mut self, id: RequestId, reply: V) {
        if let Some(&slot) = self.index.get(&id) {
            self.slots[slot as usize].1 = reply;
        } else if self.slots.len() < self.capacity {
            self.index.insert(id, self.slots.len() as u32);
            self.slots.push((id, reply));
        } else {
            let slot = self.oldest;
            self.oldest = (slot + 1) % self.capacity;
            let (evicted, _) = std::mem::replace(&mut self.slots[slot], (id, reply));
            self.index.remove(&evicted);
            self.index.insert(id, slot as u32);
        }
    }
}
