//! Transaction identity and per-transaction bookkeeping.

use std::collections::BTreeMap;
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

/// Per-transaction state tracked by the [`Db`](crate::Db).
pub(crate) struct TxnState {
    pub(crate) phase: TxnPhase,
    /// Undo log, applied in reverse on abort.
    pub(crate) undo: Vec<UndoOp>,
    /// Rows written per shard (drives the commit capacity charge).
    pub(crate) writes_per_shard: BTreeMap<u32, u32>,
    /// Write set in program order, handed to the durable backend's WAL at
    /// commit time. Stays empty under the in-memory backend.
    pub(crate) shadow_log: Vec<crate::backend::ShadowWrite>,
}

impl TxnState {
    pub(crate) fn new() -> Self {
        TxnState {
            phase: TxnPhase::Active,
            undo: Vec::new(),
            writes_per_shard: BTreeMap::new(),
            shadow_log: Vec::new(),
        }
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
        *st.writes_per_shard.entry(0).or_default() += 2;
        *st.writes_per_shard.entry(3).or_default() += 1;
        assert_eq!(st.writes_per_shard.values().sum::<u32>(), 3);
        assert_eq!(st.phase, TxnPhase::Active);
    }
}
