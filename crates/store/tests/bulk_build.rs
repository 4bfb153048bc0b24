//! Differential property tests for the streaming bulk build:
//! [`Db::bootstrap_bulk_load`] must be observationally identical to
//! per-row [`Db::bootstrap_insert`].
//!
//! Contents and iteration order are compared exhaustively over randomized
//! key sets, both into an empty table and merged over pre-existing rows.
//! Node occupancy needs allocator introspection: the bytes/inode budget in
//! `crates/bench/tests/bootstrap_budget.rs` pins it, and
//! `engine_differential.rs` checks the engine's bulk build is dense.

use lambda_sim::params::StoreParams;
use lambda_sim::SimDuration;
use lambda_store::Db;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn fresh_db() -> Db {
    Db::new(&StoreParams::default(), SimDuration::from_secs(5))
}

/// Disjoint (existing, streamed) key sets: every key carries a value
/// derived from it so value mismatches are also detectable.
fn key_sets() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    (
        proptest::collection::btree_set(0u64..10_000, 0..200),
        proptest::collection::btree_set(0u64..10_000, 0..200),
    )
        .prop_map(|(existing, streamed): (BTreeSet<u64>, BTreeSet<u64>)| {
            let streamed: Vec<u64> = streamed.difference(&existing).copied().collect();
            (existing.into_iter().collect(), streamed)
        })
}

fn value_of(k: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1F5
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bulk-loading an ascending stream over pre-existing rows yields
    /// exactly the table that per-row insertion yields: same rows, same
    /// order, same values.
    #[test]
    fn bulk_build_matches_per_row_inserts((existing, streamed) in key_sets()) {
        let bulk = fresh_db();
        let bulk_t = bulk.create_table::<u64, u64>("rows");
        let serial = fresh_db();
        let serial_t = serial.create_table::<u64, u64>("rows");

        for &k in &existing {
            bulk.bootstrap_insert(bulk_t, k, value_of(k));
            serial.bootstrap_insert(serial_t, k, value_of(k));
        }
        bulk.bootstrap_bulk_load(bulk_t, streamed.iter().map(|&k| (k, value_of(k))));
        for &k in &streamed {
            serial.bootstrap_insert(serial_t, k, value_of(k));
        }

        let got = bulk.peek_range(bulk_t, ..);
        let want = serial.peek_range(serial_t, ..);
        prop_assert_eq!(got, want);
    }

    /// The same equivalence on composite `(u64, u64)` keys — the shape of
    /// the children index, where per-parent blocks are streamed back to
    /// back and ordering mistakes would land between blocks.
    #[test]
    fn bulk_build_matches_on_composite_keys(
        parents in proptest::collection::btree_set(0u64..40, 1..8),
        names in proptest::collection::btree_set(0u64..40, 1..8),
    ) {
        let bulk = fresh_db();
        let bulk_t = bulk.create_table::<(u64, u64), u64>("children");
        let serial = fresh_db();
        let serial_t = serial.create_table::<(u64, u64), u64>("children");

        let rows: Vec<((u64, u64), u64)> = parents
            .iter()
            .flat_map(|&p| names.iter().map(move |&n| ((p, n), value_of(p ^ n))))
            .collect();
        bulk.bootstrap_bulk_load(bulk_t, rows.iter().cloned());
        for ((p, n), v) in rows {
            serial.bootstrap_insert(serial_t, (p, n), v);
        }

        let got = bulk.peek_range(bulk_t, ..);
        let want = serial.peek_range(serial_t, ..);
        prop_assert_eq!(got, want);
    }
}

#[test]
#[should_panic(expected = "not strictly ascending")]
fn bulk_build_rejects_unsorted_streams() {
    let db = fresh_db();
    let t = db.create_table::<u64, u64>("rows");
    db.bootstrap_bulk_load(t, [(2u64, 0u64), (1, 0)].into_iter());
}

#[test]
#[should_panic(expected = "key collision")]
fn bulk_build_rejects_keys_already_present() {
    let db = fresh_db();
    let t = db.create_table::<u64, u64>("rows");
    db.bootstrap_insert(t, 7, 1);
    db.bootstrap_bulk_load(t, [(7u64, 2u64)].into_iter());
}
