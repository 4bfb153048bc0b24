//! Simulated DataNode fleet.
//!
//! λFS "re-implements many DFS maintenance features, such as block reports
//! and DataNode discovery, in a serverless-compatible way by publishing
//! information to the persistent metadata store on a regular interval"
//! (paper §1). This module provides that fleet: each DataNode periodically
//! writes its heartbeat/block-report row into the `datanodes` table using
//! an ordinary store transaction, so NameNodes — serverless or not —
//! discover DataNodes by reading the store rather than by holding
//! long-lived connections.

use std::cell::Cell;
use std::rc::Rc;

use lambda_sim::{every, Sim, SimDuration, SimTime};
use lambda_store::Db;

use crate::inode::{DataNodeId, DataNodeInfo};
use crate::schema::MetadataSchema;

/// A fleet of DataNodes publishing heartbeats and block reports.
#[derive(Debug, Clone)]
pub struct DataNodeFleet {
    db: Db,
    schema: MetadataSchema,
    ids: Vec<DataNodeId>,
    interval: SimDuration,
    /// Reporting generation, odd while reporting. Starting and stopping
    /// each advance it, and a tick keeps running only while the generation
    /// it was armed in is current — so start → stop → start before the next
    /// tick never leaves the first ticks running beside the second.
    epoch: Rc<Cell<u64>>,
}

impl DataNodeFleet {
    /// Registers `n` DataNodes (bulk-loaded rows) reporting every
    /// `interval`.
    #[must_use]
    pub fn new(db: &Db, schema: &MetadataSchema, n: u32, interval: SimDuration) -> Self {
        let ids: Vec<DataNodeId> = (1..=u64::from(n)).collect();
        for &id in &ids {
            db.bootstrap_insert(
                schema.datanodes,
                id,
                DataNodeInfo {
                    id,
                    last_heartbeat_nanos: 0,
                    capacity: 12 * 1024 * 1024 * 1024 * 1024, // 12 TB
                    used: 0,
                    reported_blocks: 0,
                },
            );
        }
        DataNodeFleet {
            db: db.clone(),
            schema: schema.clone(),
            ids,
            interval,
            epoch: Rc::new(Cell::new(0)),
        }
    }

    /// The registered DataNode ids.
    #[must_use]
    pub fn ids(&self) -> &[DataNodeId] {
        &self.ids
    }

    /// Starts periodic reporting, staggered across the interval so the
    /// fleet does not thunder against the store. Idempotent.
    pub fn start(&self, sim: &mut Sim) {
        let epoch = self.epoch.get() + 1;
        if epoch.is_multiple_of(2) {
            return; // already reporting
        }
        self.epoch.set(epoch);
        for (i, &id) in self.ids.iter().enumerate() {
            let offset = self.interval.div_u64(self.ids.len() as u64) * i as u64;
            let fleet = self.clone();
            every(sim, sim.now() + offset, self.interval, move |sim| {
                if fleet.epoch.get() != epoch {
                    return false;
                }
                fleet.publish_report(sim, id);
                true
            });
        }
    }

    /// Stops reporting at each DataNode's next tick.
    pub fn stop(&self) {
        let epoch = self.epoch.get();
        self.epoch.set(epoch + epoch % 2);
    }

    /// Writes one heartbeat/block-report row through a real store
    /// transaction (exclusive row lock, commit charge). Contention on the
    /// row skips this round.
    fn publish_report(&self, sim: &mut Sim, id: DataNodeId) {
        let db = self.db.clone();
        let table = self.schema.datanodes;
        let report = move |txn, now: SimTime| {
            let Some(mut info) = db.peek(table, &id) else { return Ok(()) };
            info.last_heartbeat_nanos = now.as_nanos();
            info.reported_blocks += 1;
            info.used = info.used.saturating_add(64 * 1024 * 1024);
            db.upsert(txn, table, id, info)
        };
        self.db.write(sim, [self.db.lock_key(table, &id)], report, |_sim, _res| {});
    }

    /// DataNodes whose last heartbeat is within `staleness` of `now`
    /// (DataNode discovery, as a NameNode would perform it via the store).
    #[must_use]
    pub fn live_datanodes(&self, now: SimTime, staleness: SimDuration) -> Vec<DataNodeId> {
        self.db
            .peek_range(self.schema.datanodes, ..)
            .into_iter()
            .filter(|(_, info)| {
                now.saturating_since(SimTime::from_nanos(info.last_heartbeat_nanos)) <= staleness
            })
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_sim::params::StoreParams;

    #[test]
    fn fleet_publishes_heartbeats_through_the_store() {
        let mut sim = Sim::new(1);
        let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
        let schema = MetadataSchema::install(&db);
        let fleet = DataNodeFleet::new(&db, &schema, 4, SimDuration::from_secs(10));
        fleet.start(&mut sim);
        sim.run_until(SimTime::from_secs(35));
        fleet.stop();
        sim.run_until(SimTime::from_secs(50));
        for id in fleet.ids() {
            let info = db.peek(schema.datanodes, id).unwrap();
            assert!(info.reported_blocks >= 3, "dn {id} reported {}", info.reported_blocks);
            assert!(info.last_heartbeat_nanos > 0);
        }
        // Reports are real transactions: commits were charged.
        assert!(db.stats().commits >= 12);
    }

    #[test]
    fn discovery_filters_stale_datanodes() {
        let mut sim = Sim::new(2);
        let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
        let schema = MetadataSchema::install(&db);
        let fleet = DataNodeFleet::new(&db, &schema, 3, SimDuration::from_secs(5));
        fleet.start(&mut sim);
        sim.run_until(SimTime::from_secs(12));
        fleet.stop();
        sim.run_until(SimTime::from_secs(13));
        let live = fleet.live_datanodes(sim.now(), SimDuration::from_secs(10));
        assert_eq!(live.len(), 3);
        // Far in the future, everyone is stale.
        sim.run_until(SimTime::from_secs(100));
        let live = fleet.live_datanodes(sim.now(), SimDuration::from_secs(10));
        assert!(live.is_empty());
    }

    #[test]
    fn start_is_idempotent() {
        let mut sim = Sim::new(3);
        let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
        let schema = MetadataSchema::install(&db);
        let fleet = DataNodeFleet::new(&db, &schema, 2, SimDuration::from_secs(5));
        fleet.start(&mut sim);
        fleet.start(&mut sim);
        sim.run_until(SimTime::from_secs(6));
        fleet.stop();
        sim.run_until(SimTime::from_secs(20));
        // One report per node per tick — not doubled.
        let info = db.peek(schema.datanodes, &1).unwrap();
        assert!(info.reported_blocks <= 2);
    }

    #[test]
    fn restart_before_the_next_tick_reports_once() {
        // Reports after 12 s, started once or by start → stop → start in
        // one instant: the first start's ticks must stop, not run beside
        // the second's.
        let reports = |restart: bool| -> Vec<u64> {
            let mut sim = Sim::new(4);
            let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
            let schema = MetadataSchema::install(&db);
            let fleet = DataNodeFleet::new(&db, &schema, 2, SimDuration::from_secs(5));
            fleet.start(&mut sim);
            if restart {
                fleet.stop();
                fleet.start(&mut sim);
            }
            sim.run_until(SimTime::from_secs(12));
            fleet.stop();
            sim.run_until(SimTime::from_secs(20));
            let report = |id| db.peek(schema.datanodes, id).unwrap().reported_blocks;
            fleet.ids().iter().map(report).collect()
        };
        // Node 1 ticks at 0, 5 and 10 s; node 2, staggered, at 2.5 and 7.5 s.
        assert_eq!(reports(false), vec![3, 2]);
        assert_eq!(reports(true), reports(false));
    }
}
