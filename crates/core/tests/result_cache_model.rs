//! Executable model of the NameNode's retry-deduplication cache (§3.2).
//!
//! [`ResultCache`] is a slot ring with an id → slot index. What it must do
//! is what the `HashMap` + `VecDeque` pair it replaced did, written down
//! here as the specification: at most `capacity` replies; a new id evicts
//! the id that was first inserted longest ago; re-inserting a live id
//! replaces its reply and leaves its age alone. Random sequences of
//! inserts, duplicate inserts and lookups over several capacities' worth
//! of ids must get the same hit, miss and reply from both at every step.

use std::collections::{HashMap, VecDeque};

use lambda_fs::{ClientId, RequestId, ResultCache};
use lambda_sim::SimRng;
use proptest::prelude::*;

struct Reference {
    capacity: usize,
    results: HashMap<RequestId, u32>,
    order: VecDeque<RequestId>,
}

impl Reference {
    fn new(capacity: usize) -> Self {
        Reference { capacity, results: HashMap::new(), order: VecDeque::new() }
    }

    fn insert(&mut self, id: RequestId, reply: u32) {
        if self.results.insert(id, reply).is_none() {
            self.order.push_back(id);
            if self.order.len() > self.capacity {
                let oldest = self.order.pop_front().expect("just pushed");
                self.results.remove(&oldest);
            }
        }
    }

    fn get(&self, id: &RequestId) -> Option<&u32> {
        self.results.get(id)
    }
}

/// The `n`-th id of a universe that varies both fields of a [`RequestId`].
fn id(n: u64) -> RequestId {
    RequestId { client: ClientId((n % 3) as u32), seq: n / 3 }
}

/// Drives both caches through `steps` — `(insert?, id, reply)` — and
/// compares them at every step and over the whole universe at the end.
fn check(capacity: usize, universe: u64, steps: impl IntoIterator<Item = (bool, u64, u32)>) {
    let mut ring = ResultCache::new(capacity);
    let mut reference = Reference::new(capacity);
    for (step, (insert, n, reply)) in steps.into_iter().enumerate() {
        let id = id(n % universe);
        if insert {
            ring.insert(id, reply);
            reference.insert(id, reply);
        }
        assert_eq!(ring.get(&id), reference.get(&id), "step {step}, {id:?}, capacity {capacity}");
    }
    for n in 0..universe {
        assert_eq!(ring.get(&id(n)), reference.get(&id(n)), "{:?}, capacity {capacity}", id(n));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn ring_matches_map_and_queue(
        capacity in 1usize..10,
        capacities_of_ids in 1u64..5,
        steps in prop::collection::vec((prop::bool::weighted(0.7), any::<u64>(), any::<u32>()), 1..400),
    ) {
        check(capacity, capacity as u64 * capacities_of_ids, steps);
    }
}

/// The same at the capacity NameNodes run with, over three capacities'
/// worth of ids: long enough for the ring to wrap many times.
#[test]
fn ring_matches_map_and_queue_at_namenode_capacity() {
    let mut rng = SimRng::new(0x4096);
    let steps: Vec<(bool, u64, u32)> = (0..60_000u32)
        .map(|reply| (rng.gen_bool(0.8), rng.gen_range(0..u64::MAX), reply))
        .collect();
    check(4096, 3 * 4096, steps);
}
