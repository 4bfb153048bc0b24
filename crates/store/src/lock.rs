//! The lock manager: strict two-phase row locking.
//!
//! Both HopsFS and λFS rely on the metadata store's row locks for
//! correctness — in λFS the coherence protocol's guarantee (§3.5) is that a
//! writer holds **exclusive** row locks while invalidating caches, so no
//! other NameNode can read-and-cache the row until the new value commits.
//!
//! This module is a pure data structure: it decides grants and returns the
//! tokens of waiters that become runnable. A waiter's token is the
//! [`SlabKey`] of the [`Db`](crate::Db)'s pending lock sequence it belongs
//! to, so a granted token leads straight back to its continuation — and a
//! token whose sequence was cancelled meanwhile no longer resolves.
//!
//! Grant policy: readers share; writers are exclusive; queued writers block
//! later readers (no writer starvation); lock requests are re-entrant; a
//! sole shared holder may upgrade to exclusive.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use lambda_sim::SlabKey;

use crate::key::{EncodedKey, MixBuild};
use crate::table::TableId;
use crate::txn::TxnId;

/// Lock strength.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockMode {
    /// Shared (read) lock: compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock: compatible with nothing.
    Exclusive,
}

/// The canonical identity of a lockable row: table plus encoded key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockKey {
    /// Owning table.
    pub table: TableId,
    /// Order-preserving encoded primary key (inline for small keys, so
    /// cloning into the lock table is a memcpy, not a heap allocation).
    pub key: EncodedKey,
}

impl fmt::Display for LockKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{:02x?}]", self.table, self.key.as_slice())
    }
}

/// Result of an acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Acquire {
    /// The lock is held by `txn` on return.
    Granted,
    /// The request was queued; its token will be reported by a later
    /// [`LockManager::release_all`].
    Wait,
}

#[derive(Debug)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
    token: SlabKey,
}

/// The holders of one row. Invariant: either any number of `Shared`
/// entries or exactly one `Exclusive` entry. The first holder sits inline,
/// so a row with one holder — every exclusive lock — allocates nothing.
#[derive(Debug, Default)]
struct Holders {
    first: Option<(TxnId, LockMode)>,
    /// Co-holders of a shared lock; empty while `first` is `None`.
    rest: Vec<(TxnId, LockMode)>,
}

impl Holders {
    fn iter(&self) -> impl Iterator<Item = &(TxnId, LockMode)> {
        self.first.iter().chain(&self.rest)
    }

    fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// Whether nobody but `txn` holds the row.
    fn none_but(&self, txn: TxnId) -> bool {
        self.rest.is_empty() && self.first.is_none_or(|(t, _)| t == txn)
    }

    /// Makes `txn` a holder in at least `mode`.
    fn grant(&mut self, txn: TxnId, mode: LockMode) {
        match self.first.iter_mut().chain(&mut self.rest).find(|(t, _)| *t == txn) {
            Some(entry) => entry.1 = entry.1.max(mode),
            None => match self.first {
                None => self.first = Some((txn, mode)),
                Some(_) => self.rest.push((txn, mode)),
            },
        }
    }

    fn remove(&mut self, txn: TxnId) {
        if self.first.is_some_and(|(t, _)| t == txn) {
            self.first = self.rest.pop();
        } else {
            self.rest.retain(|(t, _)| *t != txn);
        }
    }
}

#[derive(Debug, Default)]
struct LockState {
    holders: Holders,
    waiters: VecDeque<Waiter>,
}

impl LockState {
    fn holder_mode(&self, txn: TxnId) -> Option<LockMode> {
        self.holders.iter().find(|(t, _)| *t == txn).map(|(_, m)| *m)
    }

    /// Compatibility with the current holders only (ignores the queue).
    /// This is the test for the waiter at the *front* of the queue.
    fn compatible_with_holders(&self, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Exclusive => self.holders.none_but(txn),
            LockMode::Shared => self.holders.iter().all(|(_, m)| *m == LockMode::Shared),
        }
    }

    fn grantable(&self, txn: TxnId, mode: LockMode) -> bool {
        match mode {
            LockMode::Exclusive => self.holders.none_but(txn),
            LockMode::Shared => {
                let no_x_holder =
                    self.holders.iter().all(|(_, m)| *m == LockMode::Shared);
                // Don't starve queued writers — unless this txn already
                // holds the lock (re-entrancy must not self-deadlock).
                let no_queued_writer = self
                    .waiters
                    .iter()
                    .all(|w| w.mode != LockMode::Exclusive)
                    || self.holder_mode(txn).is_some();
                no_x_holder && no_queued_writer
            }
        }
    }
}

/// Which rows each transaction holds, for [`LockManager::release_all`].
#[derive(Debug, Default)]
struct HeldBy {
    rows: HashMap<TxnId, Vec<LockKey>, MixBuild>,
    /// Cleared row lists of finished transactions, handed to the next
    /// ones: never more lists than transactions ever held locks at once.
    spare: Vec<Vec<LockKey>>,
}

impl HeldBy {
    fn note(&mut self, txn: TxnId, key: &LockKey) {
        let spare = &mut self.spare;
        self.rows.entry(txn).or_insert_with(|| spare.pop().unwrap_or_default()).push(key.clone());
    }
}

/// Tracks all row locks and waiter queues.
#[derive(Debug, Default)]
pub struct LockManager {
    locks: HashMap<LockKey, LockState, MixBuild>,
    held_by: HeldBy,
}

impl LockManager {
    /// Creates an empty manager.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `txn` holds `key` with at least `mode` strength.
    #[must_use]
    pub fn holds(&self, txn: TxnId, key: &LockKey, mode: LockMode) -> bool {
        self.locks
            .get(key)
            .and_then(|s| s.holder_mode(txn))
            .is_some_and(|held| held >= mode)
    }

    /// Number of rows with at least one holder or waiter (diagnostics).
    #[must_use]
    pub fn active_rows(&self) -> usize {
        self.locks.len()
    }

    /// Attempts to acquire `key` in `mode` for `txn`, queueing `token` if
    /// it has to wait.
    ///
    /// Re-entrant: if `txn` already holds the lock at `mode` or stronger,
    /// the call is a no-op returning [`Acquire::Granted`]. A sole shared
    /// holder requesting exclusive is upgraded in place; a non-sole holder
    /// queues an upgrade waiter at the *front* of the queue.
    pub fn acquire(
        &mut self,
        txn: TxnId,
        key: &LockKey,
        mode: LockMode,
        token: SlabKey,
    ) -> Acquire {
        let state = self.locks.entry(key.clone()).or_default();
        if state.holder_mode(txn).is_some_and(|held| held >= mode) {
            return Acquire::Granted;
        }
        if state.grantable(txn, mode) {
            let newly = state.holder_mode(txn).is_none();
            state.holders.grant(txn, mode);
            if newly {
                self.held_by.note(txn, key);
            }
            Acquire::Granted
        } else {
            let waiter = Waiter { txn, mode, token };
            if state.holder_mode(txn).is_some() {
                // Upgrade request: jump the queue so a sole-holder upgrade
                // resolves as soon as co-holders drain.
                state.waiters.push_front(waiter);
            } else {
                state.waiters.push_back(waiter);
            }
            Acquire::Wait
        }
    }

    /// Removes a queued waiter (e.g. its transaction timed out). Returns
    /// `true` if the token was found; grants that become possible are
    /// reported like a release.
    pub fn cancel_waiter(
        &mut self,
        key: &LockKey,
        token: SlabKey,
        granted: &mut Vec<SlabKey>,
    ) -> bool {
        let Some(state) = self.locks.get_mut(key) else { return false };
        let before = state.waiters.len();
        state.waiters.retain(|w| w.token != token);
        let removed = state.waiters.len() != before;
        if removed {
            Self::pump(state, &mut self.held_by, key, granted);
            if state.holders.is_empty() && state.waiters.is_empty() {
                self.locks.remove(key);
            }
        }
        removed
    }

    /// Releases every lock held by `txn`, returning the tokens of waiters
    /// that are granted as a result (in grant order).
    pub fn release_all(&mut self, txn: TxnId) -> Vec<SlabKey> {
        let mut granted = Vec::new();
        let Some(mut keys) = self.held_by.rows.remove(&txn) else { return granted };
        for key in keys.drain(..) {
            if let Some(state) = self.locks.get_mut(&key) {
                state.holders.remove(txn);
                Self::pump(state, &mut self.held_by, &key, &mut granted);
                if state.holders.is_empty() && state.waiters.is_empty() {
                    self.locks.remove(&key);
                }
            }
        }
        self.held_by.spare.push(keys);
        granted
    }

    /// Grants as many queued waiters as compatibility allows.
    fn pump(
        state: &mut LockState,
        held_by: &mut HeldBy,
        key: &LockKey,
        granted: &mut Vec<SlabKey>,
    ) {
        while let Some(front) = state.waiters.front() {
            // The front of the queue only needs holder compatibility; the
            // queue-aware rule (writers block later readers) applies to new
            // arrivals in `acquire`, not to the waiter whose turn it is.
            if !state.compatible_with_holders(front.txn, front.mode) {
                break;
            }
            let w = state.waiters.pop_front().expect("front exists");
            let newly = state.holder_mode(w.txn).is_none();
            state.holders.grant(w.txn, w.mode);
            if newly {
                held_by.note(w.txn, key);
            }
            granted.push(w.token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_sim::Slab;

    /// Eight distinct waiter tokens; the tests give txn `n` token `n`.
    fn tokens() -> Vec<SlabKey> {
        let mut slab = Slab::default();
        (0..8).map(|_| slab.insert(())).collect()
    }
    fn key(n: u8) -> LockKey {
        LockKey { table: TableId::new(0), key: EncodedKey::from_slice(&[n]) }
    }
    fn txn(n: u64) -> TxnId {
        TxnId::new(n)
    }

    #[test]
    fn shared_locks_coexist() {
        let (mut lm, t) = (LockManager::new(), tokens());
        assert_eq!(lm.acquire(txn(1), &key(1), LockMode::Shared, t[1]), Acquire::Granted);
        assert_eq!(lm.acquire(txn(2), &key(1), LockMode::Shared, t[2]), Acquire::Granted);
        assert!(lm.holds(txn(1), &key(1), LockMode::Shared));
        assert!(lm.holds(txn(2), &key(1), LockMode::Shared));
    }

    #[test]
    fn exclusive_excludes_everyone() {
        let (mut lm, t) = (LockManager::new(), tokens());
        assert_eq!(lm.acquire(txn(1), &key(1), LockMode::Exclusive, t[1]), Acquire::Granted);
        assert_eq!(lm.acquire(txn(2), &key(1), LockMode::Shared, t[2]), Acquire::Wait);
        assert_eq!(lm.acquire(txn(3), &key(1), LockMode::Exclusive, t[3]), Acquire::Wait);
        assert!(!lm.holds(txn(2), &key(1), LockMode::Shared));
    }

    #[test]
    fn release_grants_fifo_with_shared_batching() {
        let (mut lm, t) = (LockManager::new(), tokens());
        lm.acquire(txn(1), &key(1), LockMode::Exclusive, t[1]);
        lm.acquire(txn(2), &key(1), LockMode::Shared, t[2]);
        lm.acquire(txn(3), &key(1), LockMode::Shared, t[3]);
        lm.acquire(txn(4), &key(1), LockMode::Exclusive, t[4]);
        let granted = lm.release_all(txn(1));
        // Both shared waiters are granted together; the writer still waits.
        assert_eq!(granted, vec![t[2], t[3]]);
        let granted = lm.release_all(txn(2));
        assert!(granted.is_empty());
        let granted = lm.release_all(txn(3));
        assert_eq!(granted, vec![t[4]]);
        assert!(lm.holds(txn(4), &key(1), LockMode::Exclusive));
    }

    #[test]
    fn queued_writer_blocks_later_readers() {
        let (mut lm, t) = (LockManager::new(), tokens());
        lm.acquire(txn(1), &key(1), LockMode::Shared, t[1]);
        lm.acquire(txn(2), &key(1), LockMode::Exclusive, t[2]);
        // Reader arriving after a queued writer must wait (no starvation).
        assert_eq!(lm.acquire(txn(3), &key(1), LockMode::Shared, t[3]), Acquire::Wait);
        let granted = lm.release_all(txn(1));
        assert_eq!(granted, vec![t[2]]);
    }

    #[test]
    fn reentrant_acquire_is_a_noop() {
        let (mut lm, t) = (LockManager::new(), tokens());
        lm.acquire(txn(1), &key(1), LockMode::Exclusive, t[1]);
        assert_eq!(lm.acquire(txn(1), &key(1), LockMode::Exclusive, t[1]), Acquire::Granted);
        assert_eq!(lm.acquire(txn(1), &key(1), LockMode::Shared, t[1]), Acquire::Granted);
        // Still a single release.
        assert!(lm.release_all(txn(1)).is_empty());
        assert_eq!(lm.active_rows(), 0);
    }

    #[test]
    fn reentrant_shared_ignores_queued_writer() {
        let (mut lm, t) = (LockManager::new(), tokens());
        lm.acquire(txn(1), &key(1), LockMode::Shared, t[1]);
        lm.acquire(txn(2), &key(1), LockMode::Exclusive, t[2]);
        // txn 1 already holds S; re-acquiring S must not self-deadlock.
        assert_eq!(lm.acquire(txn(1), &key(1), LockMode::Shared, t[1]), Acquire::Granted);
    }

    #[test]
    fn sole_holder_upgrades_in_place() {
        let (mut lm, t) = (LockManager::new(), tokens());
        lm.acquire(txn(1), &key(1), LockMode::Shared, t[1]);
        assert_eq!(lm.acquire(txn(1), &key(1), LockMode::Exclusive, t[1]), Acquire::Granted);
        assert!(lm.holds(txn(1), &key(1), LockMode::Exclusive));
    }

    #[test]
    fn non_sole_upgrade_waits_then_wins() {
        let (mut lm, t) = (LockManager::new(), tokens());
        lm.acquire(txn(1), &key(1), LockMode::Shared, t[1]);
        lm.acquire(txn(2), &key(1), LockMode::Shared, t[2]);
        assert_eq!(lm.acquire(txn(1), &key(1), LockMode::Exclusive, t[1]), Acquire::Wait);
        let granted = lm.release_all(txn(2));
        assert_eq!(granted, vec![t[1]]);
        assert!(lm.holds(txn(1), &key(1), LockMode::Exclusive));
    }

    #[test]
    fn cancel_waiter_unblocks_queue() {
        let (mut lm, t) = (LockManager::new(), tokens());
        lm.acquire(txn(1), &key(1), LockMode::Shared, t[1]);
        lm.acquire(txn(2), &key(1), LockMode::Exclusive, t[2]);
        lm.acquire(txn(3), &key(1), LockMode::Shared, t[3]);
        let mut granted = Vec::new();
        assert!(lm.cancel_waiter(&key(1), t[2], &mut granted));
        // With the writer gone, the shared waiter is compatible with the
        // shared holder and is granted immediately.
        assert_eq!(granted, vec![t[3]]);
        assert!(lm.holds(txn(3), &key(1), LockMode::Shared));
        assert!(!lm.cancel_waiter(&key(1), t[2], &mut granted));
    }

    #[test]
    fn release_all_spans_multiple_rows() {
        let (mut lm, t) = (LockManager::new(), tokens());
        lm.acquire(txn(1), &key(1), LockMode::Exclusive, t[1]);
        lm.acquire(txn(1), &key(2), LockMode::Exclusive, t[1]);
        lm.acquire(txn(2), &key(1), LockMode::Shared, t[2]);
        lm.acquire(txn(3), &key(2), LockMode::Shared, t[3]);
        // Rows are released in the order txn 1 took them.
        assert_eq!(lm.release_all(txn(1)), vec![t[2], t[3]]);
    }

    #[test]
    fn lock_table_garbage_collects_idle_rows() {
        let (mut lm, t) = (LockManager::new(), tokens());
        lm.acquire(txn(1), &key(7), LockMode::Exclusive, t[1]);
        assert_eq!(lm.active_rows(), 1);
        lm.release_all(txn(1));
        assert_eq!(lm.active_rows(), 0);
    }
}
