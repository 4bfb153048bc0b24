//! The durable store backend.
//!
//! A [`Db`](crate::Db) built by [`Db::new_durable`](crate::Db::new_durable)
//! routes every durability-relevant event — bulk loads, commit write sets,
//! shard crashes — through a `DurableBackend`; one built by
//! [`Db::new`](crate::Db::new) has none, keeps volatile tables, and models a
//! shard crash as a fixed takeover window with no event, charge, or RNG
//! draw added anywhere.
//!
//! Under the durable backend every committed transaction's writes are
//! appended to a per-shard `lambda-lsm` write-ahead log *before* the commit
//! completes (WAL-ordered commit), made durable by group-commit syncs on a
//! tunable flush interval, and a shard crash triggers deterministic WAL
//! replay into rebuilt memtable/SSTable state instead of waiting out a
//! modeled takeover constant. Commits whose WAL records were still in the
//! lost window abort through the undo log, mirroring what a real redo-log
//! store loses on power failure. The backend keeps no copy of a commit's
//! rows: its WAL records are written from the transaction's own write log,
//! and so is the compensation that undoes a lost commit's durable traces.
//!
//! ## The shadow model
//!
//! The durable backend does not replace the in-memory tables — they stay
//! the authoritative row store (values included). Instead it maintains a
//! per-shard **shadow** LSM tree keyed by `table-id ‖ encoded-key` with
//! synthetic fixed-size values, which is exactly the part of a persistent
//! store that matters for crash semantics: which keys exist, in what
//! order writes became durable, and how much log/compaction work recovery
//! must redo. After every crash the backend checks the recovered shadow's
//! key set against the authoritative tables (restricted to the crashed
//! shard) and records any divergence as a violation for the invariant
//! auditor.

use lambda_lsm::{LsmConfig, LsmStats, LsmTree};
use lambda_sim::{SimDuration, SimTime};

use crate::db::shard_of;
use crate::key::EncodedKey;
use crate::table::{AnyTable, TableId};
use crate::txn::{RowWrite, TxnId};

/// Fixed crash-to-replay-start cost: failure detection plus process
/// restart of the shard's store node.
const DETECT_RESTART: SimDuration = SimDuration::from_millis(500);
/// Replay cost per surviving WAL record.
const REPLAY_PER_RECORD: SimDuration = SimDuration::from_micros(2);
/// Replay cost per byte of WAL payload replayed plus SSTable bytes written
/// by replay-triggered flushes/compactions.
const REPLAY_PER_BYTE: SimDuration = SimDuration::from_nanos(20);

/// Tuning for the durable backend. Each shard's shadow LSM runs
/// [`LsmConfig::default`], whose memtable size governs flush-induced
/// checkpointing.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Group-commit boundary: a commit's WAL records become durable at the
    /// next multiple of this interval (the `fsync` batching knob).
    pub flush_interval: SimDuration,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig { flush_interval: SimDuration::from_millis(2) }
    }
}

/// Cumulative counters kept by the durable backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// WAL records appended (commit writes + bootstrap rows).
    pub wal_appends: u64,
    /// Group-commit syncs that made at least one record durable.
    pub group_syncs: u64,
    /// Commits aborted because a crash lost their WAL records.
    pub lost_window_aborts: u64,
    /// Crash recoveries performed.
    pub recoveries: u64,
    /// WAL records replayed across all recoveries.
    pub replayed_records: u64,
    /// WAL records lost across all recoveries (the lost windows).
    pub lost_records: u64,
    /// Total simulated recovery downtime, in nanoseconds.
    pub recovery_nanos_total: u64,
    /// Longest single recovery, in nanoseconds.
    pub recovery_nanos_max: u64,
}

/// A commit whose WAL records are appended but whose completion callback
/// has not run yet — the window in which a crash can lose it.
struct PendingCommit {
    txn: TxnId,
    /// Highest WAL sequence number this commit appended per shard.
    marks: Vec<(u32, u64)>,
    /// Set when a crash lost the commit's records on that shard.
    lost: Option<u32>,
}

/// WAL-backed persistence: per-shard shadow LSM trees fed in commit order.
pub(crate) struct DurableBackend {
    config: DurabilityConfig,
    shards: Vec<LsmTree>,
    pending: Vec<PendingCommit>,
    stats: DurabilityStats,
    violations: Vec<String>,
    key_scratch: Vec<u8>,
    val_scratch: Vec<u8>,
}

impl DurableBackend {
    pub(crate) fn new(config: DurabilityConfig, shard_count: usize) -> Self {
        DurableBackend {
            shards: (0..shard_count).map(|_| LsmTree::new(LsmConfig::default())).collect(),
            config,
            pending: Vec::new(),
            stats: DurabilityStats::default(),
            violations: Vec::new(),
            key_scratch: Vec::new(),
            val_scratch: Vec::new(),
        }
    }

    /// Shadow row key: table id (big-endian) followed by the encoded row
    /// key — injective because the prefix is fixed-width.
    fn shadow_key<'a>(scratch: &'a mut Vec<u8>, table: TableId, enc: &[u8]) -> &'a [u8] {
        scratch.clear();
        scratch.extend_from_slice(&table.raw().to_be_bytes());
        scratch.extend_from_slice(enc);
        scratch
    }

    /// Appends one row write to its shard's WAL (a put of the modeled row
    /// size, or a tombstone), returning the record's sequence number.
    fn append(
        &mut self,
        txn: TxnId,
        table: TableId,
        shard: u32,
        key: &EncodedKey,
        put: Option<u32>,
    ) -> u64 {
        let key = Self::shadow_key(&mut self.key_scratch, table, key.as_slice());
        let tree = &mut self.shards[shard as usize];
        let Some(row_bytes) = put else {
            return tree.delete(key);
        };
        self.val_scratch.clear();
        self.val_scratch.extend_from_slice(&txn.raw().to_le_bytes());
        self.val_scratch.resize((row_bytes as usize).max(8), 0);
        tree.put(key, &self.val_scratch)
    }

    /// Undoes the shadow effect of a lost commit's writes (`writes`, the
    /// transaction's own log): each key's first write carries the
    /// pre-transaction existence, so restoring it mirrors what the undo log
    /// does to the authoritative tables. New compensation records are
    /// synced immediately — the failover coordinator durably records the
    /// abort.
    pub(crate) fn compensate_lost(&mut self, txn: TxnId, writes: &[RowWrite]) {
        for (i, w) in writes.iter().enumerate() {
            let first_for_key = writes[..i]
                .iter()
                .all(|p| !(p.table == w.table && p.key == w.key && p.shard == w.shard));
            if first_for_key {
                let put = w.prior_exists.then_some(w.row_bytes);
                self.append(txn, w.table, w.shard, &w.key, put);
                self.shards[w.shard as usize].sync_wal();
            }
        }
    }

    /// Records one pre-run bootstrap row (already durable by definition).
    pub(crate) fn bootstrap_row(&mut self, table: TableId, shard: u32, enc: &[u8], val_len: u32) {
        let key = Self::shadow_key(&mut self.key_scratch, table, enc);
        let tree = &mut self.shards[shard as usize];
        self.val_scratch.clear();
        self.val_scratch.resize((val_len as usize).max(8), 0);
        tree.put(key, &self.val_scratch);
        // Bulk loads land durable: the loader syncs before the run starts.
        tree.sync_wal();
        self.stats.wal_appends += 1;
    }

    /// Appends a committing transaction's writes to the WAL (commit order =
    /// log order). Returns the sim-time instant at which the records become
    /// durable (the next group-commit boundary), or `None` if there are no
    /// writes to log.
    pub(crate) fn begin_commit(
        &mut self,
        now: SimTime,
        txn: TxnId,
        writes: &[RowWrite],
    ) -> Option<SimTime> {
        if writes.is_empty() {
            return None;
        }
        let mut marks: Vec<(u32, u64)> = Vec::new();
        for w in writes {
            self.stats.wal_appends += 1;
            let seq =
                self.append(txn, w.table, w.shard, &w.key, (!w.tombstone).then_some(w.row_bytes));
            match marks.iter_mut().find(|(s, _)| *s == w.shard) {
                Some(m) => m.1 = seq,
                None => marks.push((w.shard, seq)),
            }
        }
        self.pending.push(PendingCommit { txn, marks, lost: None });
        let interval = self.config.flush_interval.as_nanos().max(1);
        Some(SimTime::from_nanos((now.as_nanos() / interval + 1) * interval))
    }

    /// Group-commit boundary reached: everything appended so far becomes
    /// durable.
    pub(crate) fn sync_boundary(&mut self) {
        let mut any = false;
        for tree in &mut self.shards {
            if tree.last_seq() > tree.durable_seq() {
                any = true;
            }
            tree.sync_wal();
        }
        if any {
            self.stats.group_syncs += 1;
        }
    }

    /// Resolves a finishing commit against any crash that happened since
    /// [`Self::begin_commit`]: the shard whose crash lost the commit's WAL
    /// records, if any. A lost commit was already rolled back and must
    /// report failure; a commit that logged nothing is never lost.
    pub(crate) fn finish_commit(&mut self, txn: TxnId) -> Option<u32> {
        let pos = self.pending.iter().position(|p| p.txn == txn)?;
        // `remove`, not `swap_remove`: pending order is log order and must
        // stay deterministic for crash processing.
        let lost = self.pending.remove(pos).lost;
        if lost.is_some() {
            self.stats.lost_window_aborts += 1;
        }
        lost
    }

    /// Crashes `shard`: volatile state is lost and the surviving WAL prefix
    /// replays. Returns the deterministically costed recovery downtime and
    /// the mid-commit transactions whose WAL records on the shard were
    /// still in the lost window, in log order. The caller passes each one's
    /// write log to [`Self::compensate_lost`] (on this shard a flush may
    /// have checkpointed a prefix of the commit's records; on other shards
    /// they may be fully durable), then aborts them through their undo
    /// logs.
    pub(crate) fn crash_shard(&mut self, shard: u32) -> (SimDuration, Vec<TxnId>) {
        // A commit is lost iff any of its records on the crashed shard sits
        // above the durable horizon. Group commits sync whole WAL prefixes,
        // so a commit's records there are all-durable or all-lost — except
        // when a flush checkpointed part of the run, which compensation
        // repairs.
        let durable = self.shards[shard as usize].durable_seq();
        let mut lost_txns = Vec::new();
        for p in &mut self.pending {
            let lost_here =
                p.lost.is_none() && p.marks.iter().any(|&(s, seq)| s == shard && seq > durable);
            if lost_here {
                p.lost = Some(shard);
                lost_txns.push(p.txn);
            }
        }
        // Discard volatile state and replay the surviving WAL prefix.
        let report = self.shards[shard as usize].crash_and_recover();
        let down_for = DETECT_RESTART
            + REPLAY_PER_RECORD * report.replayed_records
            + REPLAY_PER_BYTE * (report.replayed_bytes + report.bytes_compacted);
        self.stats.recoveries += 1;
        self.stats.replayed_records += report.replayed_records;
        self.stats.lost_records += report.lost_records;
        self.stats.recovery_nanos_total += down_for.as_nanos();
        self.stats.recovery_nanos_max = self.stats.recovery_nanos_max.max(down_for.as_nanos());
        (down_for, lost_txns)
    }

    /// After the caller has aborted every crash victim: checks the
    /// recovered shadow state against the authoritative tables, recording
    /// divergence as violations.
    pub(crate) fn post_crash_check(
        &mut self,
        shard: u32,
        shard_count: usize,
        tables: &[Box<dyn AnyTable>],
    ) {
        // Authoritative key set of the crashed shard, shadow-key encoded.
        let mut expect: Vec<Vec<u8>> = Vec::new();
        for (tid, table) in tables.iter().enumerate() {
            let prefix = (tid as u32).to_be_bytes();
            table.for_each_encoded_key(&mut |enc| {
                if shard_of(shard_count, enc) == shard as usize {
                    let mut k = Vec::with_capacity(4 + enc.len());
                    k.extend_from_slice(&prefix);
                    k.extend_from_slice(enc);
                    expect.push(k);
                }
            });
        }
        expect.sort_unstable();
        let got: Vec<Vec<u8>> = self.shards[shard as usize]
            .scan_all()
            .into_iter()
            .map(|(k, _)| k.to_vec())
            .collect();
        if expect != got {
            let missing = expect.iter().filter(|k| !got.contains(k)).count();
            let extra = got.iter().filter(|k| !expect.contains(k)).count();
            self.violations.push(format!(
                "shard {shard} post-recovery divergence: tables hold {} keys, shadow holds {} \
                 ({missing} missing from shadow, {extra} extra)",
                expect.len(),
                got.len(),
            ));
        }
    }

    /// Accumulated consistency violations (auditor feed; empty = healthy).
    pub(crate) fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Durability counters.
    pub(crate) fn stats(&self) -> DurabilityStats {
        self.stats
    }

    /// Shadow-LSM counters summed over the shards.
    pub(crate) fn lsm_stats(&self) -> LsmStats {
        let mut total = LsmStats::default();
        for tree in &self.shards {
            let s = tree.stats();
            total.user_writes += s.user_writes;
            total.user_reads += s.user_reads;
            total.bytes_compacted += s.bytes_compacted;
            total.bytes_ingested += s.bytes_ingested;
            total.flushes += s.flushes;
            total.compactions += s.compactions;
            total.bloom_skips += s.bloom_skips;
            total.tables_probed += s.tables_probed;
        }
        total
    }
}
