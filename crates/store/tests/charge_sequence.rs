//! The store's charge sequence, pinned as literals.
//!
//! Two seeded transaction scripts run on [`Db`] and must finish at an
//! exact simulated instant with exact [`DbStats`]. What that pins is the
//! order in which the store draws from the simulator's RNG and the
//! per-shard service charges it plans for locked reads and commits — the
//! property DESIGN.md §3.2 relies on to keep the seeded figures (fig10)
//! byte-identical across rewrites of the hot path. One extra draw in
//! `Db::commit` moves every literal here; a changed per-row cost in the
//! locked-read charge moves the two closed-loop ones.
//!
//! The literals were captured at commit `92e78a7`, before this crate's
//! `baseline` module (a verbatim copy of the pre-overhaul store) was
//! deleted, by running these scripts on both engines: `baseline::Db` and
//! `Db` produced the same clock and the same stats for all three. They
//! replace the equality checks that went with that module — its own
//! `baseline_matches_current_store_on_a_txn_script` test and the
//! `store_txn` agreement assert of the metadata micro-benchmark
//! (EXPERIMENTS.md "Micro-benchmarks against retained baselines").

use lambda_sim::params::StoreParams;
use lambda_sim::{Sim, SimDuration};
use lambda_store::{Db, DbStats, LockMode, TableHandle};

fn fresh_db() -> Db {
    Db::new(&StoreParams::default(), SimDuration::from_secs(5))
}

/// Lock → upsert → commit → peek on one key, seed 11.
#[test]
fn one_key_script_ends_at_the_pinned_instant() {
    let mut sim = Sim::new(11);
    let db = fresh_db();
    let t = db.create_table::<u64, String>("inodes");
    let txn = db.begin();
    let db2 = db.clone();
    db.lock(&mut sim, txn, vec![db.lock_key(t, &7u64)], LockMode::Exclusive, move |sim, r| {
        r.unwrap();
        db2.upsert(txn, t, 7, "v".to_string()).unwrap();
        let db3 = db2.clone();
        db2.commit(sim, txn, move |_sim, r| {
            r.unwrap();
            assert_eq!(db3.peek(t, &7), Some("v".to_string()));
        });
    });
    sim.run();
    assert_eq!(sim.now().as_nanos(), 1_771_831);
    assert_eq!(db.stats(), DbStats { rows_written: 1, commits: 1, ..DbStats::default() });
}

/// Closed loop, seed 42: each transaction exclusively locks rows
/// `17·i mod rows` and `(31·i + 7) mod rows`, reads both under the locks,
/// rewrites the first and commits; the commit continuation starts the
/// next. Returns the final clock in nanoseconds and the stats.
fn closed_loop(rows: u64, txns: u64) -> (u64, DbStats) {
    fn pump(db: &Db, table: TableHandle<u64, u64>, sim: &mut Sim, rows: u64, i: u64, left: u64) {
        if left == 0 {
            return;
        }
        let a = (i * 17) % rows;
        let b = (i * 31 + 7) % rows;
        let txn = db.begin();
        let mut keys = vec![db.lock_key(table, &a), db.lock_key(table, &b)];
        keys.sort();
        keys.dedup();
        let db2 = db.clone();
        db.lock(sim, txn, keys, LockMode::Exclusive, move |sim, r| {
            r.expect("uncontended");
            let db3 = db2.clone();
            db2.read_locked(sim, txn, table, vec![a, b], LockMode::Exclusive, move |sim, values| {
                let sum = values
                    .expect("locked")
                    .iter()
                    .fold(0u64, |sum, v| sum.wrapping_add(v.unwrap_or(0)));
                db3.upsert(txn, table, a, sum).expect("locked");
                let db4 = db3.clone();
                db3.commit(sim, txn, move |sim, r| {
                    r.expect("commit");
                    pump(&db4, table, sim, rows, i + 1, left - 1);
                });
            });
        });
    }

    let mut sim = Sim::new(42);
    let db = fresh_db();
    let table = db.create_table::<u64, u64>("inodes");
    for i in 0..rows {
        db.bootstrap_insert(table, i, i * 10);
    }
    pump(&db, table, &mut sim, rows, 0, txns);
    sim.run();
    (sim.now().as_nanos(), db.stats())
}

fn closed_loop_stats(txns: u64) -> DbStats {
    DbStats { locked_reads: txns, rows_written: txns, commits: txns, ..DbStats::default() }
}

#[test]
fn closed_loop_of_2k_txns_over_64_rows_ends_at_the_pinned_instant() {
    assert_eq!(closed_loop(64, 2_000), (3_327_319_650, closed_loop_stats(2_000)));
}

#[test]
fn closed_loop_of_40k_txns_over_512_rows_ends_at_the_pinned_instant() {
    assert_eq!(closed_loop(512, 40_000), (66_946_115_791, closed_loop_stats(40_000)));
}
