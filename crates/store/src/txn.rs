//! Transaction identity and per-transaction bookkeeping.

use std::fmt;

/// Identifies one transaction within a [`Db`](crate::Db).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(u64);

impl TxnId {
    /// Builds a transaction id from its raw counter value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        TxnId(raw)
    }

    /// The raw counter value.
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn#{}", self.0)
    }
}

/// An undo action restoring one row to its pre-transaction state.
pub(crate) type UndoOp = Box<dyn FnOnce(&mut Vec<Box<dyn crate::table::AnyTable>>)>;

/// Lifecycle of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxnPhase {
    Active,
    Aborted,
}

/// Per-transaction state tracked by the [`Db`](crate::Db). A finished
/// transaction's state is cleared and handed to a later one, so its
/// buffers are allocated once, not per transaction.
pub(crate) struct TxnState {
    pub(crate) phase: TxnPhase,
    /// Undo log, applied in reverse on abort.
    pub(crate) undo: Vec<UndoOp>,
    /// Rows written per shard, `(shard, rows)` in ascending shard order
    /// (drives the commit capacity charge).
    pub(crate) writes_per_shard: Vec<(u32, u32)>,
    /// Write set in program order, handed to the durable backend's WAL at
    /// commit time. Stays empty under the in-memory backend.
    pub(crate) shadow_log: Vec<crate::backend::ShadowWrite>,
}

impl TxnState {
    pub(crate) fn new() -> Self {
        TxnState {
            phase: TxnPhase::Active,
            undo: Vec::new(),
            writes_per_shard: Vec::new(),
            shadow_log: Vec::new(),
        }
    }

    /// Counts one row written on `shard`.
    pub(crate) fn note_write(&mut self, shard: u32) {
        match self.writes_per_shard.binary_search_by_key(&shard, |&(s, _)| s) {
            Ok(i) => self.writes_per_shard[i].1 += 1,
            Err(i) => self.writes_per_shard.insert(i, (shard, 1)),
        }
    }

    /// Whether the transaction has written `shard` (and not yet started
    /// to commit).
    pub(crate) fn wrote(&self, shard: u32) -> bool {
        self.writes_per_shard.binary_search_by_key(&shard, |&(s, _)| s).is_ok()
    }

    /// Empties the state for a later transaction, keeping its buffers.
    /// Undo entries still present are dropped unrun: the writes stand.
    pub(crate) fn clear(&mut self) {
        self.phase = TxnPhase::Active;
        self.undo.clear();
        self.writes_per_shard.clear();
        self.shadow_log.clear();
    }
}

impl fmt::Debug for TxnState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnState")
            .field("phase", &self.phase)
            .field("undo_entries", &self.undo.len())
            .field("writes_per_shard", &self.writes_per_shard)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_ids_order_by_creation() {
        assert!(TxnId::new(1) < TxnId::new(2));
        assert_eq!(TxnId::new(7).raw(), 7);
        assert_eq!(TxnId::new(7).to_string(), "txn#7");
    }

    #[test]
    fn txn_state_counts_writes() {
        let mut st = TxnState::new();
        for shard in [3, 0, 0] {
            st.note_write(shard);
        }
        assert_eq!(st.writes_per_shard, vec![(0, 2), (3, 1)]);
        assert!(st.wrote(3) && !st.wrote(1));
        assert_eq!(st.phase, TxnPhase::Active);
        st.clear();
        assert!(st.writes_per_shard.is_empty() && !st.wrote(0));
    }
}
