//! The leveled LSM tree.
//!
//! Structure, after LevelDB:
//!
//! * a mutable **memtable** (ordered map) fronted by the [`Wal`];
//! * **level 0**: flushed memtables, newest first, with overlapping key
//!   ranges;
//! * **levels 1+**: runs of non-overlapping SSTables; each level targets
//!   `level_multiplier ×` the size of the previous one.
//!
//! Reads consult memtable → L0 (newest first) → L1+ (at most one table per
//! level, found by range + Bloom filter). Writes go to WAL + memtable;
//! exceeding `memtable_bytes` flushes to L0; L0 reaching
//! `l0_compaction_trigger` tables (or a level exceeding its size target)
//! triggers compaction into the next level.
//!
//! The tree also keeps the read/write-amplification counters that the
//! λIndexFS experiment (paper §5.7) uses to cost IndexFS-side operations.

use std::collections::BTreeMap;
use std::ops::Bound;

use bytes::Bytes;

use crate::sstable::{Entry, SsTable};
use crate::wal::{Wal, WalRecord};

/// Tuning knobs for an [`LsmTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsmConfig {
    /// Flush the memtable when it reaches this many bytes.
    pub memtable_bytes: usize,
    /// Compact L0 into L1 when it holds this many tables.
    pub l0_compaction_trigger: usize,
    /// Each level targets this multiple of the previous level's size.
    pub level_multiplier: usize,
    /// Base size target of L1 in bytes.
    pub l1_target_bytes: usize,
    /// Sparse-index anchor interval for built SSTables.
    pub index_interval: usize,
    /// Bloom filter bits per key.
    pub bloom_bits_per_key: usize,
}

impl Default for LsmConfig {
    fn default() -> Self {
        LsmConfig {
            memtable_bytes: 64 * 1024,
            l0_compaction_trigger: 4,
            level_multiplier: 10,
            l1_target_bytes: 256 * 1024,
            index_interval: 16,
            bloom_bits_per_key: 10,
        }
    }
}

/// Cumulative counters for amplification accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsmStats {
    /// User-level put/delete operations.
    pub user_writes: u64,
    /// User-level get operations.
    pub user_reads: u64,
    /// Bytes written to SSTables (flushes + compactions) — the numerator
    /// of write amplification.
    pub bytes_compacted: u64,
    /// Bytes accepted from users — the denominator of write amplification.
    pub bytes_ingested: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions performed.
    pub compactions: u64,
    /// SSTables whose Bloom filter rejected a lookup.
    pub bloom_skips: u64,
    /// SSTables actually probed during lookups.
    pub tables_probed: u64,
}

impl LsmStats {
    /// Write amplification: SSTable bytes written per ingested byte.
    #[must_use]
    pub fn write_amplification(&self) -> f64 {
        if self.bytes_ingested == 0 {
            0.0
        } else {
            self.bytes_compacted as f64 / self.bytes_ingested as f64
        }
    }
}

/// What a crash-recovery pass did: how much of the WAL was lost vs
/// replayed, and the SSTable work the replay itself triggered. The durable
/// store backend costs recovery sim-time from these counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Unsynced WAL records dropped by the crash (the lost window).
    pub lost_records: u64,
    /// Bytes of dropped WAL records.
    pub lost_bytes: u64,
    /// Surviving WAL records replayed into the rebuilt memtable.
    pub replayed_records: u64,
    /// Bytes of replayed WAL records.
    pub replayed_bytes: u64,
    /// Memtable flushes the replay triggered.
    pub flushes: u64,
    /// Compactions the replay triggered.
    pub compactions: u64,
    /// SSTable bytes written during the replay (flushes + compactions).
    pub bytes_compacted: u64,
}

/// A log-structured merge tree (LevelDB analog).
///
/// # Examples
///
/// ```
/// use lambda_lsm::{LsmConfig, LsmTree};
///
/// let mut tree = LsmTree::new(LsmConfig::default());
/// tree.put(b"/dir/file", b"inode-metadata");
/// assert_eq!(tree.get(b"/dir/file").as_deref(), Some(&b"inode-metadata"[..]));
/// tree.delete(b"/dir/file");
/// assert_eq!(tree.get(b"/dir/file"), None);
/// ```
#[derive(Debug)]
pub struct LsmTree {
    config: LsmConfig,
    wal: Wal,
    memtable: BTreeMap<Bytes, Entry>,
    memtable_bytes: usize,
    /// `levels[0]` is L0 (newest table first); `levels[i>=1]` are sorted,
    /// non-overlapping runs.
    levels: Vec<Vec<SsTable>>,
    /// WAL sequence number of the newest record applied to the memtable.
    /// Normally equals `wal.last_seq()` (every append is applied
    /// immediately); during crash-replay it trails behind, and it is the
    /// flush checkpoint — a flush covers exactly the applied prefix, so
    /// [`Wal::truncate_upto`] must not discard anything above it.
    applied_seq: u64,
    stats: LsmStats,
}

impl LsmTree {
    /// Creates an empty tree.
    #[must_use]
    pub fn new(config: LsmConfig) -> Self {
        LsmTree {
            config,
            wal: Wal::new(),
            memtable: BTreeMap::new(),
            memtable_bytes: 0,
            levels: vec![Vec::new()],
            applied_seq: 0,
            stats: LsmStats::default(),
        }
    }

    /// Replaces the tuning knobs in place (e.g. recovering under a smaller
    /// memory budget than the writer ran with). Takes effect lazily: an
    /// over-threshold memtable flushes on the next write.
    pub fn reconfigure(&mut self, config: LsmConfig) {
        self.config = config;
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> LsmStats {
        self.stats
    }

    /// The write-ahead log (inspection aid).
    #[must_use]
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Inserts or replaces a key. Returns the mutation's WAL sequence
    /// number (the write is volatile until that sequence is synced or
    /// flushed; see [`LsmTree::sync_wal`]).
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> u64 {
        let key = Bytes::copy_from_slice(key);
        let value = Bytes::copy_from_slice(value);
        let seq = self.wal.append(WalRecord::Put { key: key.clone(), value: value.clone() });
        self.applied_seq = seq;
        self.stats.user_writes += 1;
        self.stats.bytes_ingested += (key.len() + value.len()) as u64;
        self.apply(key, Entry::Put(value));
        seq
    }

    /// Deletes a key (writes a tombstone). Returns the mutation's WAL
    /// sequence number, like [`LsmTree::put`].
    pub fn delete(&mut self, key: &[u8]) -> u64 {
        let key = Bytes::copy_from_slice(key);
        let seq = self.wal.append(WalRecord::Delete { key: key.clone() });
        self.applied_seq = seq;
        self.stats.user_writes += 1;
        self.stats.bytes_ingested += key.len() as u64;
        self.apply(key, Entry::Tombstone);
        seq
    }

    /// Makes every appended WAL record durable — one group-commit `fsync`.
    /// A subsequent crash cannot lose anything at or below the returned
    /// sequence number.
    pub fn sync_wal(&mut self) -> u64 {
        self.wal.mark_synced();
        self.wal.synced_seq()
    }

    /// Newest durable WAL sequence number: records above it would be lost
    /// by a crash right now. Advanced by [`LsmTree::sync_wal`] and by
    /// flushes (an SSTable persists the records it covers).
    #[must_use]
    pub fn durable_seq(&self) -> u64 {
        self.wal.synced_seq()
    }

    /// Sequence number of the newest mutation ever accepted.
    #[must_use]
    pub fn last_seq(&self) -> u64 {
        self.wal.last_seq()
    }

    fn apply(&mut self, key: Bytes, entry: Entry) {
        let added = key.len() + entry.size_bytes();
        let removed = self
            .memtable
            .insert(key, entry)
            .map_or(0, |old| old.size_bytes());
        self.memtable_bytes = self.memtable_bytes + added - removed.min(self.memtable_bytes);
        if self.memtable_bytes >= self.config.memtable_bytes {
            self.flush();
        }
    }

    /// Point lookup.
    #[must_use]
    pub fn get(&mut self, key: &[u8]) -> Option<Bytes> {
        self.stats.user_reads += 1;
        if let Some(entry) = self.memtable.get(key) {
            return entry.value().cloned();
        }
        // L0: newest table first; ranges overlap, so check each.
        for table in &self.levels[0] {
            if !table.key_in_range(key) {
                continue;
            }
            if !table.may_contain(key) {
                self.stats.bloom_skips += 1;
                continue;
            }
            self.stats.tables_probed += 1;
            if let Some(entry) = table.get(key) {
                return entry.value().cloned();
            }
        }
        // L1+: at most one candidate table per level.
        for level in &self.levels[1..] {
            let idx = level.partition_point(|t| {
                t.last_key().is_some_and(|last| last.as_ref() < key)
            });
            let Some(table) = level.get(idx) else { continue };
            if !table.key_in_range(key) {
                continue;
            }
            if !table.may_contain(key) {
                self.stats.bloom_skips += 1;
                continue;
            }
            self.stats.tables_probed += 1;
            if let Some(entry) = table.get(key) {
                return entry.value().cloned();
            }
        }
        None
    }

    /// Ordered scan of live keys in `[lo, hi)`.
    #[must_use]
    pub fn scan(&self, lo: &[u8], hi: &[u8]) -> Vec<(Bytes, Bytes)> {
        // Merge all sources newest-first into a map: first writer wins.
        let mut merged: BTreeMap<Bytes, Entry> = BTreeMap::new();
        let mem_range = self.memtable.range::<[u8], _>((Bound::Included(lo), Bound::Excluded(hi)));
        for (k, e) in mem_range {
            merged.entry(k.clone()).or_insert_with(|| e.clone());
        }
        for table in &self.levels[0] {
            for (k, e) in table.range(lo, hi) {
                merged.entry(k.clone()).or_insert_with(|| e.clone());
            }
        }
        for level in &self.levels[1..] {
            for table in level {
                if !table.overlaps(lo, hi) {
                    continue;
                }
                for (k, e) in table.range(lo, hi) {
                    merged.entry(k.clone()).or_insert_with(|| e.clone());
                }
            }
        }
        merged
            .into_iter()
            .filter_map(|(k, e)| e.value().cloned().map(|v| (k, v)))
            .collect()
    }

    /// Flushes the memtable into a new L0 table and truncates the WAL up
    /// to the flush checkpoint (`applied_seq` — the newest mutation the
    /// memtable actually holds). During normal operation that equals the
    /// newest WAL record; during crash replay it trails, and the
    /// checkpoint keeps the unreplayed tail retained.
    ///
    /// No-op when the memtable is empty.
    pub fn flush(&mut self) {
        if self.memtable.is_empty() {
            return;
        }
        let rows: Vec<(Bytes, Entry)> = std::mem::take(&mut self.memtable).into_iter().collect();
        self.memtable_bytes = 0;
        let table =
            SsTable::build(rows, self.config.index_interval, self.config.bloom_bits_per_key);
        self.stats.bytes_compacted += table.size_bytes() as u64;
        self.stats.flushes += 1;
        self.levels[0].insert(0, table);
        self.wal.truncate_upto(self.applied_seq);
        self.maybe_compact();
    }

    /// Ordered scan of **all** live keys — [`LsmTree::scan`] without range
    /// bounds. Used by the durable store backend's post-crash consistency
    /// check (shadow state ↔ authoritative tables).
    #[must_use]
    pub fn scan_all(&self) -> Vec<(Bytes, Bytes)> {
        let mut merged: BTreeMap<Bytes, Entry> = BTreeMap::new();
        for (k, e) in &self.memtable {
            merged.entry(k.clone()).or_insert_with(|| e.clone());
        }
        for table in &self.levels[0] {
            for (k, e) in table.rows() {
                merged.entry(k.clone()).or_insert_with(|| e.clone());
            }
        }
        for level in &self.levels[1..] {
            for table in level {
                for (k, e) in table.rows() {
                    merged.entry(k.clone()).or_insert_with(|| e.clone());
                }
            }
        }
        merged
            .into_iter()
            .filter_map(|(k, e)| e.value().cloned().map(|v| (k, v)))
            .collect()
    }

    /// Simulates a crash and runs recovery: the unsynced WAL tail and all
    /// volatile state (memtable) are discarded, then the surviving WAL
    /// prefix is replayed in sequence order on top of the persisted
    /// SSTables. Returns what recovery cost — the caller converts the
    /// record/byte counts into simulated downtime.
    ///
    /// Replay re-executes only the memtable application, not the original
    /// write: records are **not** re-appended to the WAL and user-facing
    /// ingest stats don't double-count. Auto-flushes triggered mid-replay
    /// are safe because [`LsmTree::flush`] truncates only up to the replay
    /// cursor (`applied_seq`).
    pub fn crash_and_recover(&mut self) -> RecoveryReport {
        let before = self.stats;
        let (lost_records, lost_bytes) = self.wal.drop_unsynced_tail();
        self.memtable.clear();
        self.memtable_bytes = 0;
        // Nothing replayed yet: the flush checkpoint starts at the durable
        // horizon and advances with the replay cursor below.
        self.applied_seq = self.wal.synced_seq();
        let replay: Vec<(u64, WalRecord)> =
            self.wal.entries().map(|(s, r)| (s, r.clone())).collect();
        let mut replayed = 0u64;
        let mut replayed_bytes = 0u64;
        for (seq, record) in replay {
            self.applied_seq = seq;
            replayed += 1;
            replayed_bytes += record.size_bytes() as u64;
            match record {
                WalRecord::Put { key, value } => self.apply(key, Entry::Put(value)),
                WalRecord::Delete { key } => self.apply(key, Entry::Tombstone),
            }
        }
        RecoveryReport {
            lost_records,
            lost_bytes,
            replayed_records: replayed,
            replayed_bytes,
            flushes: self.stats.flushes - before.flushes,
            compactions: self.stats.compactions - before.compactions,
            bytes_compacted: self.stats.bytes_compacted - before.bytes_compacted,
        }
    }

    fn level_target_bytes(&self, level: usize) -> usize {
        debug_assert!(level >= 1);
        let mut target = self.config.l1_target_bytes;
        for _ in 1..level {
            target = target.saturating_mul(self.config.level_multiplier);
        }
        target
    }

    fn level_size_bytes(&self, level: usize) -> usize {
        self.levels.get(level).map_or(0, |ts| ts.iter().map(SsTable::size_bytes).sum())
    }

    fn maybe_compact(&mut self) {
        // Cascade: compacting into level i may overflow level i.
        loop {
            if self.levels[0].len() >= self.config.l0_compaction_trigger {
                self.compact_level(0);
                continue;
            }
            let mut compacted = false;
            for level in 1..self.levels.len() {
                if self.level_size_bytes(level) > self.level_target_bytes(level) {
                    self.compact_level(level);
                    compacted = true;
                    break;
                }
            }
            if !compacted {
                break;
            }
        }
    }

    /// Merges all of `level` (L0) or its oldest table (L1+) into the next
    /// level.
    fn compact_level(&mut self, level: usize) {
        if self.levels.len() <= level + 1 {
            self.levels.push(Vec::new());
        }
        // Inputs from the source level.
        let sources: Vec<SsTable> = if level == 0 {
            std::mem::take(&mut self.levels[0])
        } else if self.levels[level].is_empty() {
            return;
        } else {
            vec![self.levels[level].remove(0)]
        };
        if sources.is_empty() {
            return;
        }
        let lo = sources.iter().filter_map(SsTable::first_key).min().cloned();
        let hi = sources.iter().filter_map(SsTable::last_key).max().cloned();
        let (Some(lo), Some(hi)) = (lo, hi) else { return };
        // Pull in every overlapping table from the target level.
        let target = &mut self.levels[level + 1];
        let mut overlapping = Vec::new();
        let mut i = 0;
        while i < target.len() {
            if target[i].overlaps(&lo, &hi) {
                overlapping.push(target.remove(i));
            } else {
                i += 1;
            }
        }
        // Merge newest-first: L0 order within `sources` is newest first, and
        // sources shadow the (older) overlapping target tables.
        let mut merged: BTreeMap<Bytes, Entry> = BTreeMap::new();
        for table in sources.iter().chain(overlapping.iter()) {
            for (k, e) in table.rows() {
                merged.entry(k.clone()).or_insert_with(|| e.clone());
            }
        }
        // Dropping tombstones is safe only at the bottom level.
        let bottom = self.levels.len() == level + 2 && self.levels[level + 1].is_empty();
        let rows: Vec<(Bytes, Entry)> = merged
            .into_iter()
            .filter(|(_, e)| !(bottom && *e == Entry::Tombstone))
            .collect();
        self.stats.compactions += 1;
        if rows.is_empty() {
            return;
        }
        let table =
            SsTable::build(rows, self.config.index_interval, self.config.bloom_bits_per_key);
        self.stats.bytes_compacted += table.size_bytes() as u64;
        // Insert keeping the level sorted by first key (non-overlapping).
        let target = &mut self.levels[level + 1];
        let pos = target.partition_point(|t| t.first_key() < table.first_key());
        target.insert(pos, table);
        debug_assert!(
            target.windows(2).all(|w| w[0].last_key() < w[1].first_key()),
            "L{} tables overlap after compaction",
            level + 1
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> LsmConfig {
        LsmConfig {
            memtable_bytes: 256,
            l0_compaction_trigger: 3,
            level_multiplier: 4,
            l1_target_bytes: 1024,
            index_interval: 4,
            bloom_bits_per_key: 10,
        }
    }

    #[test]
    fn put_get_delete_round_trip() {
        let mut t = LsmTree::new(LsmConfig::default());
        t.put(b"a", b"1");
        t.put(b"b", b"2");
        assert_eq!(t.get(b"a").as_deref(), Some(&b"1"[..]));
        t.put(b"a", b"1x");
        assert_eq!(t.get(b"a").as_deref(), Some(&b"1x"[..]));
        t.delete(b"a");
        assert_eq!(t.get(b"a"), None);
        assert_eq!(t.get(b"b").as_deref(), Some(&b"2"[..]));
    }

    #[test]
    fn reads_survive_flushes_and_compactions() {
        let mut t = LsmTree::new(small_config());
        for i in 0..500 {
            t.put(format!("key{i:05}").as_bytes(), format!("value{i}").as_bytes());
        }
        // Small thresholds force many flushes + compactions.
        assert!(t.stats().flushes > 3);
        assert!(t.stats().compactions > 0);
        for i in 0..500 {
            let got = t.get(format!("key{i:05}").as_bytes());
            assert_eq!(got.as_deref(), Some(format!("value{i}").as_bytes()), "key{i:05}");
        }
    }

    #[test]
    fn newest_version_wins_across_levels() {
        let mut t = LsmTree::new(small_config());
        for round in 0..6 {
            for i in 0..50 {
                t.put(format!("k{i:03}").as_bytes(), format!("r{round}").as_bytes());
            }
            t.flush();
        }
        for i in 0..50 {
            assert_eq!(t.get(format!("k{i:03}").as_bytes()).as_deref(), Some(&b"r5"[..]));
        }
    }

    #[test]
    fn tombstones_shadow_older_versions_across_flushes() {
        let mut t = LsmTree::new(small_config());
        t.put(b"doomed", b"v");
        t.flush();
        t.delete(b"doomed");
        t.flush();
        assert_eq!(t.get(b"doomed"), None);
        // Force compactions; the tombstone must keep shadowing or be
        // dropped together with the value.
        for i in 0..300 {
            t.put(format!("fill{i:04}").as_bytes(), b"x");
        }
        assert_eq!(t.get(b"doomed"), None);
    }

    #[test]
    fn scan_merges_all_sources_in_order() {
        let mut t = LsmTree::new(small_config());
        t.put(b"c", b"3");
        t.flush();
        t.put(b"a", b"1");
        t.flush();
        t.put(b"b", b"2");
        t.delete(b"c");
        let rows = t.scan(b"a", b"z");
        let keys: Vec<&[u8]> = rows.iter().map(|(k, _)| k.as_ref()).collect();
        assert_eq!(keys, vec![&b"a"[..], &b"b"[..]]);
    }

    #[test]
    fn scan_range_bounds_are_half_open() {
        let mut t = LsmTree::new(LsmConfig::default());
        for k in ["a", "b", "c", "d"] {
            t.put(k.as_bytes(), b"v");
        }
        let rows = t.scan(b"b", b"d");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0.as_ref(), b"b");
        assert_eq!(rows[1].0.as_ref(), b"c");
    }

    #[test]
    fn wal_truncates_on_flush() {
        let mut t = LsmTree::new(LsmConfig::default());
        t.put(b"k", b"v");
        assert_eq!(t.wal().len(), 1);
        t.flush();
        assert!(t.wal().is_empty());
        assert_eq!(t.wal().total_appends(), 1);
    }

    #[test]
    fn amplification_counters_move() {
        let mut t = LsmTree::new(small_config());
        for i in 0..400 {
            t.put(format!("k{i:04}").as_bytes(), b"vvvvvvvvvvvvvvvv");
        }
        let s = t.stats();
        assert!(s.write_amplification() >= 1.0, "wamp {}", s.write_amplification());
        let _ = t.get(b"k0001");
        assert!(t.stats().user_reads >= 1);
    }

    #[test]
    fn levels_stay_sorted_and_disjoint() {
        let mut t = LsmTree::new(small_config());
        for i in (0..600).rev() {
            t.put(format!("k{i:05}").as_bytes(), b"payload-payload");
        }
        t.flush();
        for level in 1..t.levels.len() {
            let tables = &t.levels[level];
            for w in tables.windows(2) {
                assert!(w[0].last_key() < w[1].first_key(), "L{level} overlap");
            }
        }
    }
}
