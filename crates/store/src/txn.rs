//! Transaction identity and per-transaction bookkeeping.

use std::fmt;

use crate::key::EncodedKey;
use crate::table::TableId;

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

/// One row a transaction wrote: the only per-row record the store keeps.
/// The commit's capacity charge, its WAL records, crash-victim selection
/// and lost-commit compensation are all read from the transaction's log of
/// these; abort runs the undo closures in reverse.
pub(crate) struct RowWrite {
    pub(crate) table: TableId,
    pub(crate) shard: u32,
    pub(crate) key: EncodedKey,
    /// The table's modeled row size, as the WAL logs it.
    pub(crate) row_bytes: u32,
    pub(crate) tombstone: bool,
    /// Whether the row existed before this write — what compensation must
    /// restore if the commit is lost to a crash.
    pub(crate) prior_exists: bool,
    pub(crate) undo: UndoOp,
}

/// Per-transaction state tracked by the [`Db`](crate::Db). A finished
/// transaction's state is cleared and handed to a later one, so its
/// buffers are allocated once, not per transaction.
#[derive(Default)]
pub(crate) struct TxnState {
    /// Set once the commit has logged the writes; a committing
    /// transaction is no longer a crash victim.
    pub(crate) committing: bool,
    /// The rows written, in program order.
    pub(crate) writes: Vec<RowWrite>,
}

impl TxnState {
    /// Whether the transaction has written `shard` and not yet started to
    /// commit.
    pub(crate) fn wrote(&self, shard: u32) -> bool {
        !self.committing && self.writes.iter().any(|w| w.shard == shard)
    }

    /// Empties the state for a later transaction, keeping its buffer.
    /// Undo entries still present are dropped unrun: the writes stand.
    pub(crate) fn clear(&mut self) {
        self.committing = false;
        self.writes.clear();
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
}
