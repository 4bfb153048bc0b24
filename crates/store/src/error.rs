//! Error types for the metadata store.

use std::error::Error;
use std::fmt;

use crate::txn::TxnId;

/// Errors returned by store operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StoreError {
    /// The transaction waited too long for a lock and was aborted.
    ///
    /// Callers (NameNodes) treat this like HopsFS treats a deadlock-victim
    /// abort: release everything and retry the operation.
    LockTimeout {
        /// The aborted transaction.
        txn: TxnId,
    },
    /// The transaction id is unknown (already committed/aborted, or never
    /// begun).
    UnknownTxn {
        /// The offending transaction id.
        txn: TxnId,
    },
    /// A write was attempted on a row whose exclusive lock is not held by
    /// the writing transaction — a 2PL discipline violation by the caller.
    LockNotHeld {
        /// The offending transaction.
        txn: TxnId,
        /// Human-readable description of the row.
        row: String,
    },
    /// The operation touched a shard that is down and waiting for its
    /// node-group replica to finish taking over (fault injection).
    ///
    /// The transaction involved (if any) has been aborted; callers retry
    /// the whole operation, as NDB clients do after a data-node failure.
    ShardUnavailable {
        /// The crashed shard.
        shard: u32,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::LockTimeout { txn } => {
                write!(f, "transaction {txn} timed out waiting for a lock")
            }
            StoreError::UnknownTxn { txn } => write!(f, "unknown transaction {txn}"),
            StoreError::LockNotHeld { txn, row } => {
                write!(f, "transaction {txn} wrote row {row} without an exclusive lock")
            }
            StoreError::ShardUnavailable { shard } => {
                write!(f, "shard {shard} is unavailable (failover in progress)")
            }
        }
    }
}

impl Error for StoreError {}

/// Convenience result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;
