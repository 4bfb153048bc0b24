//! # lambda-store
//!
//! A sharded, transactional, in-memory row store — the reproduction's stand-in
//! for the MySQL Cluster NDB deployment that backs both HopsFS and λFS in
//! the ASPLOS '23 paper.
//!
//! The store combines two roles:
//!
//! 1. **Logical correctness**: typed tables with strict two-phase row
//!    locking, ACID transactions, undo-log rollback, batched primary-key
//!    reads, and range scans. The λFS coherence protocol's safety argument
//!    ("the leader holds exclusive write-locks, so no NameNode can
//!    read-and-cache stale metadata", §3.5) rests on these locks actually
//!    existing, and here they do.
//! 2. **Performance model**: every row operation charges service time on
//!    the queueing station of the shard that owns the row, so the store has
//!    a real, saturable capacity — the bottleneck that caps HopsFS in the
//!    paper's evaluation and caps *write* throughput for every system.
//!
//! See [`Db`] for the API and an end-to-end example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bptree;
mod db;
mod error;
pub mod idrows;
mod key;
mod lock;
mod table;
mod txn;

pub use backend::{DurabilityConfig, DurabilityStats};
pub use db::{Db, DbStats};
pub use lambda_lsm::{LsmConfig, LsmStats};
pub use error::{StoreError, StoreResult};
pub use idrows::IdRow;
pub use key::{EncodedKey, KeyCodec, MixBuild, MixHasher, NameEntry, NameKey};
pub use lock::{LockKey, LockMode};
pub use table::{TableHandle, TableId};
pub use txn::TxnId;

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_sim::params::StoreParams;
    use lambda_sim::{Sim, SimDuration};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    fn new_db() -> Db {
        Db::new(&StoreParams::default(), SimDuration::from_secs(5))
    }

    #[test]
    fn read_locked_returns_values_in_key_order_given() {
        let mut sim = Sim::new(1);
        let db = new_db();
        let t = db.create_table::<u64, u64>("t");
        let txn = db.begin();
        let db2 = db.clone();
        let done = Rc::new(Cell::new(false));
        let done2 = Rc::clone(&done);
        db.lock(
            &mut sim,
            txn,
            vec![db.lock_key(t, &1), db.lock_key(t, &2)],
            LockMode::Exclusive,
            move |sim, r| {
                r.unwrap();
                db2.upsert(txn, t, 1, 100).unwrap();
                db2.upsert(txn, t, 2, 200).unwrap();
                let db3 = db2.clone();
                db2.commit(sim, txn, move |sim, r| {
                    r.unwrap();
                    let txn2 = db3.begin();
                    let db4 = db3.clone();
                    db3.read_locked(
                        sim,
                        txn2,
                        t,
                        vec![2, 1, 3],
                        LockMode::Shared,
                        move |sim, values| {
                            assert_eq!(values.unwrap(), vec![Some(200), Some(100), None]);
                            db4.commit(sim, txn2, move |_sim, r| r.unwrap());
                            done2.set(true);
                        },
                    );
                });
            },
        );
        sim.run();
        assert!(done.get());
        let stats = db.stats();
        assert_eq!(stats.commits, 2);
        assert_eq!(stats.rows_written, 2);
    }

    #[test]
    fn a_write_commits_its_rows_or_aborts_on_the_first_failed_one() {
        let mut sim = Sim::new(1);
        let db = new_db();
        let t = db.create_table::<u64, u64>("t");
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        // Writes row 1, then fails on row 2, which it did not lock: the
        // whole write aborts and row 1 is undone.
        let (db2, out) = (db.clone(), Rc::clone(&outcomes));
        let rows = move |txn, _| {
            db2.upsert(txn, t, 1, 10)?;
            db2.upsert(txn, t, 2, 20)
        };
        db.write(&mut sim, [db.lock_key(t, &1)], rows, move |_sim, r| out.borrow_mut().push(r));
        sim.run();
        let (db2, out) = (db.clone(), Rc::clone(&outcomes));
        let rows = move |txn, _| db2.upsert(txn, t, 1, 11);
        db.write(&mut sim, [db.lock_key(t, &1)], rows, move |_sim, r| out.borrow_mut().push(r));
        sim.run();
        let outcomes = outcomes.borrow();
        assert!(matches!(outcomes[0], Err(StoreError::LockNotHeld { .. })));
        assert_eq!(outcomes[1], Ok(()));
        assert_eq!(db.peek(t, &1), Some(11));
        assert_eq!(db.peek(t, &2), None);
        let stats = db.stats();
        assert_eq!((stats.commits, stats.aborts), (1, 1));
        assert_eq!(db.active_txn_count(), 0);
        assert_eq!(db.locked_rows(), 0);
    }

    #[test]
    fn write_without_lock_is_rejected() {
        let db = new_db();
        let t = db.create_table::<u64, u64>("t");
        let txn = db.begin();
        let err = db.upsert(txn, t, 1, 1).unwrap_err();
        assert!(matches!(err, StoreError::LockNotHeld { .. }));
    }

    #[test]
    fn abort_rolls_back_all_writes_in_reverse() {
        let mut sim = Sim::new(2);
        let db = new_db();
        let t = db.create_table::<u64, String>("t");
        // Seed a committed row.
        let txn = db.begin();
        let db2 = db.clone();
        db.lock(&mut sim, txn, vec![db.lock_key(t, &1)], LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            db2.upsert(txn, t, 1, "committed".into()).unwrap();
            db2.commit(sim, txn, |_s, r| r.unwrap());
        });
        sim.run();
        // Now mutate it twice plus create a row, then abort.
        let txn2 = db.begin();
        let db3 = db.clone();
        let keys = {
            let mut k = vec![db.lock_key(t, &1), db.lock_key(t, &2)];
            k.sort();
            k
        };
        db.lock(&mut sim, txn2, keys, LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            db3.upsert(txn2, t, 1, "dirty-1".into()).unwrap();
            db3.upsert(txn2, t, 1, "dirty-2".into()).unwrap();
            db3.upsert(txn2, t, 2, "new".into()).unwrap();
            db3.abort(sim, txn2);
        });
        sim.run();
        assert_eq!(db.peek(t, &1), Some("committed".to_string()));
        assert_eq!(db.peek(t, &2), None);
        assert_eq!(db.stats().aborts, 1);
    }

    #[test]
    fn exclusive_lock_blocks_reader_until_commit() {
        let mut sim = Sim::new(3);
        let db = new_db();
        let t = db.create_table::<u64, u64>("t");
        let observed = Rc::new(RefCell::new(Vec::new()));

        // Writer takes the lock at t=0, holds it for 100ms, then commits.
        let wtxn = db.begin();
        let db_w = db.clone();
        db.lock(&mut sim, wtxn, vec![db.lock_key(t, &9)], LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            db_w.upsert(wtxn, t, 9, 42).unwrap();
            let db_w2 = db_w.clone();
            sim.schedule(SimDuration::from_millis(100), move |sim| {
                db_w2.commit(sim, wtxn, |_s, r| r.unwrap());
            });
        });
        // Reader arrives at t=10ms; must not observe the row until commit.
        let db_r = db.clone();
        let obs = Rc::clone(&observed);
        sim.schedule(SimDuration::from_millis(10), move |sim| {
            let rtxn = db_r.begin();
            let db_r2 = db_r.clone();
            db_r.read_locked(sim, rtxn, t, vec![9], LockMode::Shared, move |sim, values| {
                obs.borrow_mut().push((sim.now().as_millis_f64(), values.unwrap()[0]));
                db_r2.commit(sim, rtxn, |_s, r| r.unwrap());
            });
        });
        sim.run();
        let observed = observed.borrow();
        assert_eq!(observed.len(), 1);
        let (at_ms, value) = observed[0];
        assert!(at_ms >= 100.0, "reader finished at {at_ms}ms, before the writer committed");
        assert_eq!(value, Some(42));
    }

    #[test]
    fn lock_timeout_aborts_the_waiter_not_the_holder() {
        let mut sim = Sim::new(4);
        let db = Db::new(&StoreParams::default(), SimDuration::from_millis(50));
        let t = db.create_table::<u64, u64>("t");
        let result = Rc::new(RefCell::new(None));

        let holder = db.begin();
        let db1 = db.clone();
        db.lock(&mut sim, holder, vec![db.lock_key(t, &1)], LockMode::Exclusive, move |_s, r| {
            r.unwrap();
            // Never released: the waiter must time out.
            let _ = db1;
        });
        let waiter = db.begin();
        let db2 = db.clone();
        let out = Rc::clone(&result);
        sim.schedule(SimDuration::from_millis(1), move |sim| {
            let lk = db2.lock_key(t, &1);
            db2.lock(sim, waiter, vec![lk], LockMode::Exclusive, move |_s, r| {
                *out.borrow_mut() = Some(r);
            });
        });
        sim.run();
        let r = result.borrow().clone().expect("waiter continuation ran");
        assert_eq!(r, Err(StoreError::LockTimeout { txn: waiter }));
        assert_eq!(db.stats().lock_timeouts, 1);
        // Holder still owns the lock.
        assert!(db.holds(holder, &db.lock_key(t, &1), LockMode::Exclusive));
    }

    #[test]
    fn scan_sees_committed_rows_in_order() {
        let mut sim = Sim::new(5);
        let db = new_db();
        let t = db.create_table::<(u64, String), u64>("children");
        let txn = db.begin();
        let db2 = db.clone();
        let mut keys: Vec<LockKey> =
            ["b", "a", "c"].iter().map(|n| db.lock_key(t, &(7u64, n.to_string()))).collect();
        keys.sort();
        db.lock(&mut sim, txn, keys, LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            for (i, n) in ["b", "a", "c"].iter().enumerate() {
                db2.upsert(txn, t, (7, n.to_string()), i as u64).unwrap();
            }
            db2.commit(sim, txn, |_s, r| r.unwrap());
        });
        sim.run();
        let rows = Rc::new(RefCell::new(Vec::new()));
        let out = Rc::clone(&rows);
        let range = (7u64, String::new())..(8u64, String::new());
        let names = |names: &mut Vec<String>, (_, n): &(u64, String), _: &u64| {
            names.push(n.clone());
        };
        db.scan_with(&mut sim, t, range, Vec::new, names, move |_s, names| {
            *out.borrow_mut() = names;
        });
        sim.run();
        assert_eq!(*rows.borrow(), vec!["a", "b", "c"]);
        assert_eq!(db.stats().scans, 1);
    }

    #[test]
    fn store_capacity_saturates_under_load() {
        // Submit far more locked reads than the shards can absorb
        // instantly; total time must scale with load (the station model is
        // actually charging).
        let mut sim = Sim::new(6);
        let db = new_db();
        let t = db.create_table::<u64, u64>("t");
        let completions = Rc::new(Cell::new(0u32));
        let n = 2000u64;
        for i in 0..n {
            let db2 = db.clone();
            let c = Rc::clone(&completions);
            sim.schedule(SimDuration::ZERO, move |sim| {
                let txn = db2.begin();
                let db3 = db2.clone();
                db2.read_locked(sim, txn, t, vec![i], LockMode::Shared, move |sim, r| {
                    r.unwrap();
                    db3.commit(sim, txn, move |_s, r| {
                        r.unwrap();
                    });
                    c.set(c.get() + 1);
                });
            });
        }
        sim.run();
        assert_eq!(completions.get(), n as u32);
        // 2000 batch reads over 4 shards x 10 workers at >=0.1ms each
        // cannot finish faster than ~5ms of simulated time.
        assert!(
            sim.now() > lambda_sim::SimTime::from_nanos(5_000_000),
            "finished suspiciously fast: {}",
            sim.now()
        );
    }

    #[test]
    fn operations_on_finished_txns_fail_cleanly() {
        let mut sim = Sim::new(7);
        let db = new_db();
        let t = db.create_table::<u64, u64>("t");
        let txn = db.begin();
        let db2 = db.clone();
        db.lock(&mut sim, txn, vec![db.lock_key(t, &1)], LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            db2.upsert(txn, t, 1, 1).unwrap();
            let db3 = db2.clone();
            db2.commit(sim, txn, move |sim, r| {
                r.unwrap();
                // Txn is gone: further use fails.
                assert!(matches!(
                    db3.upsert(txn, t, 2, 2),
                    Err(StoreError::UnknownTxn { .. }) | Err(StoreError::LockNotHeld { .. })
                ));
                let db4 = db3.clone();
                db3.commit(sim, txn, move |_s, r| {
                    assert_eq!(r, Err(StoreError::UnknownTxn { txn }));
                    let _ = db4;
                });
            });
        });
        sim.run();
    }

    /// A store with a single shard, so every key maps to shard 0 and
    /// crash tests don't depend on the key hash.
    fn one_shard_db(lock_timeout: SimDuration) -> Db {
        let params = StoreParams { shards: 1, ..StoreParams::default() };
        Db::new(&params, lock_timeout)
    }

    #[test]
    fn crashed_shard_rejects_locked_reads_until_takeover() {
        let mut sim = Sim::new(20);
        let db = one_shard_db(SimDuration::from_secs(5));
        let t = db.create_table::<u64, u64>("t");
        db.crash_shard(&mut sim, 0, SimDuration::from_millis(100));
        let results = Rc::new(RefCell::new(Vec::new()));
        for (at_ms, _) in [(10u64, ()), (200, ())] {
            let db2 = db.clone();
            let out = Rc::clone(&results);
            sim.schedule(SimDuration::from_millis(at_ms), move |sim| {
                let txn = db2.begin();
                let db3 = db2.clone();
                db2.read_locked(sim, txn, t, vec![1], LockMode::Shared, move |sim, r| {
                    out.borrow_mut().push(r.map(|_| ()));
                    db3.commit(sim, txn, |_s, _r| {});
                });
            });
        }
        sim.run();
        assert_eq!(
            *results.borrow(),
            vec![Err(StoreError::ShardUnavailable { shard: 0 }), Ok(())]
        );
        let stats = db.stats();
        assert_eq!(stats.shard_crashes, 1);
        assert_eq!(stats.unavailable_errors, 1);
        // The rejected reader's transaction was aborted, not leaked.
        assert_eq!(db.active_txn_count(), 0);
        assert_eq!(db.locked_rows(), 0);
    }

    #[test]
    fn shard_crash_aborts_inflight_writers_through_the_undo_log() {
        let mut sim = Sim::new(21);
        let db = one_shard_db(SimDuration::from_secs(5));
        let t = db.create_table::<u64, String>("t");
        // Seed a committed row.
        let seed = db.begin();
        let dbs = db.clone();
        db.lock(&mut sim, seed, vec![db.lock_key(t, &1)], LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            dbs.upsert(seed, t, 1, "committed".into()).unwrap();
            dbs.commit(sim, seed, |_s, r| r.unwrap());
        });
        sim.run();
        // A writer dirties the row, then the shard crashes under it.
        let txn = db.begin();
        let db2 = db.clone();
        db.lock(&mut sim, txn, vec![db.lock_key(t, &1)], LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            db2.upsert(txn, t, 1, "dirty".into()).unwrap();
            let db3 = db2.clone();
            sim.schedule(SimDuration::from_millis(5), move |sim| {
                db3.crash_shard(sim, 0, SimDuration::from_millis(50));
            });
        });
        sim.run();
        assert_eq!(db.peek(t, &1), Some("committed".to_string()));
        let stats = db.stats();
        assert_eq!(stats.failover_aborts, 1);
        assert_eq!(stats.aborts, 1);
        assert_eq!(db.active_txn_count(), 0);
        assert_eq!(db.locked_rows(), 0);
    }

    #[test]
    fn commit_to_a_down_shard_fails_and_rolls_back() {
        let mut sim = Sim::new(22);
        let db = one_shard_db(SimDuration::from_secs(5));
        let t = db.create_table::<u64, u64>("t");
        let result = Rc::new(RefCell::new(None));
        let txn = db.begin();
        let db2 = db.clone();
        let out = Rc::clone(&result);
        // Raw lock + upsert succeed (the lock manager is not the shard);
        // the crash lands before commit, which must then fail.
        db.lock(&mut sim, txn, vec![db.lock_key(t, &1)], LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            db2.upsert(txn, t, 1, 7).unwrap();
            db2.crash_shard(sim, 0, SimDuration::from_secs(1));
            // crash_shard already aborted the writer; a fresh writer that
            // slips a write in via a stale txn id sees UnknownTxn, so use a
            // second txn that writes while the shard is down.
            let db3 = db2.clone();
            let txn2 = db3.begin();
            let db4 = db3.clone();
            let out2 = Rc::clone(&out);
            db3.lock(sim, txn2, vec![db3.lock_key(t, &2)], LockMode::Exclusive, move |sim, r| {
                r.unwrap();
                db4.upsert(txn2, t, 2, 9).unwrap();
                db4.commit(sim, txn2, move |_s, r| {
                    *out2.borrow_mut() = Some(r);
                });
            });
        });
        sim.run();
        assert_eq!(*result.borrow(), Some(Err(StoreError::ShardUnavailable { shard: 0 })));
        assert_eq!(db.peek(t, &1), None, "first writer rolled back by the crash");
        assert_eq!(db.peek(t, &2), None, "second writer rolled back by the failed commit");
        assert_eq!(db.active_txn_count(), 0);
        assert_eq!(db.locked_rows(), 0);
        assert_eq!(db.stats().unavailable_errors, 1);
    }

    #[test]
    fn shard_crash_cancels_victims_pending_lock_sequences() {
        let mut sim = Sim::new(23);
        let db = one_shard_db(SimDuration::from_secs(5));
        let t = db.create_table::<u64, u64>("t");
        // H holds k2 forever.
        let holder = db.begin();
        let dbh = db.clone();
        db.lock(&mut sim, holder, vec![db.lock_key(t, &2)], LockMode::Exclusive, move |_s, r| {
            r.unwrap();
            let _ = dbh;
        });
        sim.run();
        // V writes k1 (so the crash victimizes it), then parks on k2.
        let victim = db.begin();
        let dbv = db.clone();
        let seq_result = Rc::new(RefCell::new(None));
        let out = Rc::clone(&seq_result);
        db.lock(&mut sim, victim, vec![db.lock_key(t, &1)], LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            dbv.upsert(victim, t, 1, 1).unwrap();
            let lk = dbv.lock_key(t, &2);
            let out2 = Rc::clone(&out);
            dbv.lock(sim, victim, vec![lk], LockMode::Exclusive, move |_s, r| {
                *out2.borrow_mut() = Some(r);
            });
            let dbc = dbv.clone();
            sim.schedule(SimDuration::from_millis(1), move |sim| {
                dbc.crash_shard(sim, 0, SimDuration::from_millis(10));
            });
        });
        sim.run();
        assert_eq!(
            *seq_result.borrow(),
            Some(Err(StoreError::ShardUnavailable { shard: 0 })),
            "the parked sequence was cancelled by the crash, not left to time out"
        );
        assert_eq!(db.pending_seq_count(), 0);
        assert!(db.holds(holder, &db.lock_key(t, &2), LockMode::Exclusive));
        assert!(!db.holds(victim, &db.lock_key(t, &1), LockMode::Exclusive));
        assert_eq!(db.peek(t, &1), None, "victim's write rolled back");
        assert_eq!(db.stats().failover_aborts, 1);
    }

    #[test]
    fn scheduled_outages_fire_at_their_instants() {
        use lambda_sim::fault::ShardOutage;
        let mut sim = Sim::new(24);
        let db = one_shard_db(SimDuration::from_secs(5));
        let _t = db.create_table::<u64, u64>("t");
        db.schedule_outages(
            &mut sim,
            &[ShardOutage {
                shard: 0,
                at: lambda_sim::SimTime::from_secs(1),
                takeover: SimDuration::from_millis(100),
            }],
        );
        sim.run();
        assert_eq!(db.stats().shard_crashes, 1);
    }

    /// A single-shard store on the durable (WAL-backed) backend.
    fn one_shard_durable_db(flush_ms: u64) -> Db {
        let params = StoreParams { shards: 1, ..StoreParams::default() };
        Db::new_durable(
            &params,
            SimDuration::from_secs(5),
            DurabilityConfig { flush_interval: SimDuration::from_millis(flush_ms) },
        )
    }

    #[test]
    fn backend_kind_reflects_the_constructor() {
        assert!(new_db().durability_stats().is_none());
        assert!(new_db().lsm_stats().is_none());
        assert!(one_shard_durable_db(2).durability_stats().is_some());
    }

    #[test]
    fn durable_commit_survives_a_crash_via_wal_replay() {
        let mut sim = Sim::new(30);
        let db = one_shard_durable_db(2);
        let t = db.create_table::<u64, u64>("t");
        let txn = db.begin();
        let db2 = db.clone();
        db.lock(&mut sim, txn, vec![db.lock_key(t, &1)], LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            db2.upsert(txn, t, 1, 7).unwrap();
            db2.commit(sim, txn, |_s, r| r.unwrap());
        });
        sim.run();
        let ds = db.durability_stats().unwrap();
        assert_eq!(ds.wal_appends, 1);
        assert_eq!(ds.group_syncs, 1, "commit waited for its group-commit boundary");
        // Crash after the records are durable: recovery replays them and
        // the committed row survives.
        db.crash_shard(&mut sim, 0, SimDuration::from_secs(1));
        sim.run();
        assert_eq!(db.peek(t, &1), Some(7));
        let ds = db.durability_stats().unwrap();
        assert_eq!(ds.recoveries, 1);
        assert_eq!(ds.lost_records, 0);
        assert_eq!(ds.replayed_records, 1);
        assert_eq!(ds.lost_window_aborts, 0);
        assert_eq!(db.durability_violations(), Vec::<String>::new());
        assert_eq!(db.stats().failover_aborts, 0);
    }

    #[test]
    fn durable_crash_in_the_commit_window_loses_the_commit() {
        let mut sim = Sim::new(31);
        // Huge flush interval: the commit's sync leg is far in the future,
        // so a crash shortly after commit lands in the lost window.
        let db = one_shard_durable_db(10_000);
        let t = db.create_table::<u64, u64>("t");
        let result = Rc::new(RefCell::new(None));
        let txn = db.begin();
        let db2 = db.clone();
        let out = Rc::clone(&result);
        db.lock(&mut sim, txn, vec![db.lock_key(t, &1)], LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            db2.upsert(txn, t, 1, 7).unwrap();
            let out2 = Rc::clone(&out);
            db2.commit(sim, txn, move |_s, r| {
                *out2.borrow_mut() = Some(r);
            });
            let db3 = db2.clone();
            sim.schedule(SimDuration::from_millis(5), move |sim| {
                db3.crash_shard(sim, 0, SimDuration::from_millis(1));
            });
        });
        sim.run();
        assert_eq!(*result.borrow(), Some(Err(StoreError::ShardUnavailable { shard: 0 })));
        assert_eq!(db.peek(t, &1), None, "lost commit rolled back through the undo log");
        let ds = db.durability_stats().unwrap();
        assert_eq!(ds.lost_window_aborts, 1);
        assert_eq!(ds.lost_records, 1);
        assert_eq!(ds.recoveries, 1);
        assert_eq!(db.durability_violations(), Vec::<String>::new());
        let stats = db.stats();
        assert_eq!(stats.failover_aborts, 1);
        assert_eq!(stats.unavailable_errors, 1);
        assert_eq!(stats.commits, 0);
        assert_eq!(db.active_txn_count(), 0);
        assert_eq!(db.locked_rows(), 0);
    }

    #[test]
    fn durable_recovery_takes_the_costed_replay_window_not_takeover() {
        let mut sim = Sim::new(32);
        let db = one_shard_durable_db(2);
        let t = db.create_table::<u64, u64>("t");
        // The takeover argument is ignored by the durable backend: the
        // shard is down for DETECT_RESTART (500ms) + replay costs instead.
        db.crash_shard(&mut sim, 0, SimDuration::from_secs(30));
        let results = Rc::new(RefCell::new(Vec::new()));
        for at_ms in [100u64, 700] {
            let db2 = db.clone();
            let out = Rc::clone(&results);
            sim.schedule(SimDuration::from_millis(at_ms), move |sim| {
                let txn = db2.begin();
                let db3 = db2.clone();
                db2.read_locked(sim, txn, t, vec![1], LockMode::Shared, move |sim, r| {
                    out.borrow_mut().push(r.map(|_| ()));
                    db3.commit(sim, txn, |_s, _r| {});
                });
            });
        }
        sim.run();
        assert_eq!(
            *results.borrow(),
            vec![Err(StoreError::ShardUnavailable { shard: 0 }), Ok(())],
            "shard back after ~500ms recovery, long before the 30s takeover"
        );
    }

    #[test]
    fn durable_crash_right_after_bulk_load_keeps_the_namespace_and_aborts_writers() {
        let mut sim = Sim::new(33);
        let db = one_shard_durable_db(2);
        let t = db.create_table::<u64, u64>("t");
        db.bootstrap_bulk_load(t, (0..100u64).map(|k| (k, k * 10)));
        // A writer dirties a fresh row; the crash lands before its commit.
        let txn = db.begin();
        let db2 = db.clone();
        db.lock(&mut sim, txn, vec![db.lock_key(t, &1000)], LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            db2.upsert(txn, t, 1000, 1).unwrap();
            let db3 = db2.clone();
            sim.schedule(SimDuration::from_millis(1), move |sim| {
                db3.crash_shard(sim, 0, SimDuration::from_millis(50));
            });
        });
        sim.run();
        assert_eq!(db.peek(t, &1000), None, "in-flight write rolled back");
        assert_eq!(db.table_len(t), 100, "bootstrap rows intact");
        let ds = db.durability_stats().unwrap();
        assert_eq!(ds.wal_appends, 100);
        assert_eq!(ds.lost_records, 0, "bootstrap rows are durable by definition");
        assert_eq!(ds.replayed_records, 100);
        assert_eq!(db.durability_violations(), Vec::<String>::new());
        assert_eq!(db.stats().failover_aborts, 1);
        assert_eq!(db.active_txn_count(), 0);
        assert_eq!(db.locked_rows(), 0);
    }

    #[test]
    fn a_lost_commit_is_compensated_on_every_shard_it_wrote() {
        let mut sim = Sim::new(34);
        let params = StoreParams { shards: 2, ..StoreParams::default() };
        let flush = DurabilityConfig { flush_interval: SimDuration::from_secs(10) };
        let db = Db::new_durable(&params, SimDuration::from_secs(5), flush);
        let t = db.create_table::<u64, u64>("t");
        let shard = |k: &u64| db::shard_of(2, db.lock_key(t, k).key.as_slice());
        let a = (0u64..).find(|k| shard(k) == 0).unwrap();
        let b = (0u64..).find(|k| shard(k) == 1).unwrap();
        db.bootstrap_insert(t, a, 1);
        // One commit overwrites `a` on shard 0 and creates `b` on shard 1;
        // its records sit in the 10 s group-commit window.
        let result = Rc::new(RefCell::new(None));
        let out = Rc::clone(&result);
        let db2 = db.clone();
        let txn = db.begin();
        let keys = vec![db.lock_key(t, &a), db.lock_key(t, &b)];
        db.lock(&mut sim, txn, keys, LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            db2.upsert(txn, t, a, 2).unwrap();
            db2.upsert(txn, t, b, 2).unwrap();
            db2.commit(sim, txn, move |_s, r| *out.borrow_mut() = Some(r));
        });
        // Shard 0 loses the commit's record on it; shard 1 crashes after
        // the commit's sync leg made its record durable, so only the
        // compensation written at the first crash keeps `b` out of its
        // replay.
        for (shard, at) in [(0, SimDuration::from_millis(5)), (1, SimDuration::from_secs(11))] {
            let db3 = db.clone();
            sim.schedule(at, move |sim| db3.crash_shard(sim, shard, SimDuration::ZERO));
        }
        sim.run();
        assert_eq!(*result.borrow(), Some(Err(StoreError::ShardUnavailable { shard: 0 })));
        assert_eq!((db.peek(t, &a), db.peek(t, &b)), (Some(1), None));
        let ds = db.durability_stats().unwrap();
        assert_eq!((ds.recoveries, ds.lost_window_aborts), (2, 1));
        assert_eq!(db.durability_violations(), Vec::<String>::new());
    }

    #[test]
    fn a_crash_during_the_commit_charge_spares_the_committing_transaction() {
        let mut sim = Sim::new(35);
        let db = one_shard_db(SimDuration::from_secs(5));
        let t = db.create_table::<u64, u64>("t");
        let result = Rc::new(RefCell::new(None));
        let out = Rc::clone(&result);
        let db2 = db.clone();
        let txn = db.begin();
        db.lock(&mut sim, txn, [db.lock_key(t, &1)], LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            db2.upsert(txn, t, 1, 7).unwrap();
            db2.commit(sim, txn, move |_s, r| *out.borrow_mut() = Some(r));
            // The commit's charge is in flight: its writes are no longer
            // the crash's to roll back.
            db2.crash_shard(sim, 0, SimDuration::from_millis(50));
        });
        sim.run();
        assert_eq!(*result.borrow(), Some(Ok(())));
        assert_eq!(db.peek(t, &1), Some(7));
        let stats = db.stats();
        assert_eq!((stats.commits, stats.failover_aborts, stats.aborts), (1, 0, 0));
    }

    #[test]
    fn a_shard_crash_spares_writers_that_wrote_only_other_shards() {
        let mut sim = Sim::new(36);
        let params = StoreParams { shards: 2, ..StoreParams::default() };
        let db = Db::new(&params, SimDuration::from_secs(5));
        let t = db.create_table::<u64, u64>("t");
        let k = (0u64..).find(|k| db::shard_of(2, db.lock_key(t, k).key.as_slice()) == 1).unwrap();
        let result = Rc::new(RefCell::new(None));
        let out = Rc::clone(&result);
        let db2 = db.clone();
        let txn = db.begin();
        db.lock(&mut sim, txn, [db.lock_key(t, &k)], LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            db2.upsert(txn, t, k, 7).unwrap();
            db2.crash_shard(sim, 0, SimDuration::from_millis(50));
            db2.commit(sim, txn, move |_s, r| *out.borrow_mut() = Some(r));
        });
        sim.run();
        assert_eq!(*result.borrow(), Some(Ok(())));
        assert_eq!(db.peek(t, &k), Some(7));
        assert_eq!(db.stats().failover_aborts, 0);
    }

    #[test]
    fn writers_serialize_on_the_same_row() {
        // Two writers increment the same counter concurrently; with 2PL the
        // final value must reflect both increments (no lost update).
        let mut sim = Sim::new(8);
        let db = new_db();
        let t = db.create_table::<u64, u64>("counter");
        // Seed.
        let seed = db.begin();
        let dbs = db.clone();
        db.lock(&mut sim, seed, vec![db.lock_key(t, &0)], LockMode::Exclusive, move |sim, r| {
            r.unwrap();
            dbs.upsert(seed, t, 0, 0).unwrap();
            dbs.commit(sim, seed, |_s, r| r.unwrap());
        });
        sim.run();
        for _ in 0..2 {
            let db2 = db.clone();
            sim.schedule(SimDuration::ZERO, move |sim| {
                let txn = db2.begin();
                let db3 = db2.clone();
                db2.read_locked(sim, txn, t, vec![0], LockMode::Exclusive, move |sim, values| {
                    let v = values.unwrap()[0].unwrap();
                    db3.upsert(txn, t, 0, v + 1).unwrap();
                    db3.commit(sim, txn, |_s, r| r.unwrap());
                });
            });
        }
        sim.run();
        assert_eq!(db.peek(t, &0), Some(2));
    }

    #[test]
    fn lock_and_plan_pools_hold_no_more_buffers_than_were_in_flight() {
        // 10 000 one-row write transactions and 1 000 locked reads, one at
        // a time: at most one lock batch and one charge plan are ever in
        // use, so neither pool may hold more. The writers hand the store
        // vectors of their own; the store must not keep those.
        let mut sim = Sim::new(9);
        let db = new_db();
        let t = db.create_table::<u64, u64>("t");
        let mut most = (0, 0);
        for i in 0..10_000u64 {
            let txn = db.begin();
            let db2 = db.clone();
            let key = i % 64;
            db.lock(&mut sim, txn, vec![db.lock_key(t, &key)], LockMode::Exclusive, move |sim, r| {
                r.unwrap();
                db2.upsert(txn, t, key, i).unwrap();
                db2.commit(sim, txn, |_s, r| r.unwrap());
            });
            sim.run();
            if i % 10 == 0 {
                let reader = db.begin();
                let db2 = db.clone();
                db.read_locked(&mut sim, reader, t, vec![key], LockMode::Shared, move |sim, r| {
                    assert_eq!(r.unwrap(), vec![Some(i)]);
                    db2.commit(sim, reader, |_s, r| r.unwrap());
                });
                sim.run();
            }
            let (keys, plans) = db.pool_lens();
            most = (most.0.max(keys), most.1.max(plans));
        }
        assert!(most.0 <= 1 && most.1 <= 1, "pools reached {most:?} (lock batches, plans)");
        assert_eq!(db.stats().commits, 11_000);
    }
}
