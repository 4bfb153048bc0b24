//! The transactional metadata store (MySQL Cluster NDB analog).
//!
//! A [`Db`] hosts typed tables sharded (by key hash) across a set of
//! queueing stations that model NDB data nodes. Operations that touch rows
//! charge simulated service time on the owning shards, which is what makes
//! the store a *capacity-limited* resource — the bottleneck behind HopsFS's
//! throughput ceiling in the paper's Figures 8, 11, and 12.
//!
//! ## Concurrency model
//!
//! * Strict two-phase locking via [`LockManager`]: locked reads take shared
//!   locks; every write requires an exclusive lock acquired through
//!   [`Db::lock`] first. Locks are held until commit/abort.
//! * To stay deadlock-free, callers acquire lock sets in sorted
//!   [`LockKey`] order — the same "predefined total ordering" HopsFS uses
//!   (paper, Appendix D). [`Db::lock`] sorts and deduplicates each batch
//!   itself; cross-batch ordering is the caller's contract, backed by a
//!   lock-wait timeout that aborts the victim so a violation degrades to a
//!   retry rather than a hang.
//! * Writes apply immediately under their exclusive lock. Each row written
//!   is logged once in the transaction's write log: its undo (abort rolls
//!   back), the commit's per-shard charge, its WAL record on the durable
//!   backend, and crash-victim selection all read that one log. Locked
//!   readers can never observe uncommitted state because the writer still
//!   holds the exclusive lock. (Unlocked [`Db::read_committed`] reads and
//!   [`Db::scan_with`] scans are dirty-read "monitoring" reads used only
//!   for maintenance paths, as documented there.)
//!
//! ## Hot-path allocation discipline
//!
//! The lock/read/commit paths are the store's per-operation hot path and
//! stay (almost) allocation-free in steady state:
//!
//! * Row keys are encoded once into a reusable scratch buffer and carried
//!   as [`EncodedKey`]s (inline up to 23 bytes), so handing keys to the
//!   lock manager and the shard router copies bytes, not heap blocks.
//! * Pending lock sequences live in a [`Slab`]. A sequence's [`SlabKey`]
//!   is everything that refers to it: its timeout event, and the waiter
//!   token the lock manager queues and later grants. Once the sequence
//!   ends the key goes stale, so a late timeout or grant is a no-op.
//! * The store owns every lock batch: [`Db::lock`] copies the caller's
//!   keys (an array, usually) into a `Vec<LockKey>` taken from the store's
//!   pool, and the batch goes back to that pool when its sequence ends.
//!   Batches enter the pool only from the pool, so it never holds more
//!   than the most sequences that were ever in flight at once.
//! * Batched reads and commits pre-compute a per-shard `(shard, rows)`
//!   charge plan in a buffer from a second pool of the same kind, instead
//!   of cloning every encoded key into a `Vec<Vec<u8>>` and re-hashing it
//!   at charge time.
//! * A finished transaction's state (its write log) is cleared and kept
//!   for the next [`Db::begin`], and the lock manager does the same with
//!   each transaction's list of held rows; a row with one holder keeps it
//!   inline.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::ops::RangeBounds;
use std::rc::Rc;

use lambda_lsm::LsmStats;
use lambda_sim::fault::ShardOutage;
use lambda_sim::params::StoreParams;
use lambda_sim::{Sim, SimDuration, SimTime, Slab, SlabKey, Station, StationRef};

use crate::backend::{DurabilityConfig, DurabilityStats, DurableBackend};
use crate::error::{StoreError, StoreResult};
use crate::idrows::IdRow;
use crate::key::{EncodedKey, KeyCodec, MixBuild};
use crate::lock::{Acquire, LockKey, LockManager, LockMode};
use crate::table::{AnyTable, TableHandle, TableId, TypedTable};
use crate::txn::{RowWrite, TxnId, TxnState, UndoOp};

/// Cumulative operation counters for a [`Db`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Locked batch reads served.
    pub locked_reads: u64,
    /// Read-committed (unlocked) reads served.
    pub unlocked_reads: u64,
    /// Range scans served.
    pub scans: u64,
    /// Rows written (upserts + removes).
    pub rows_written: u64,
    /// Transactions committed.
    pub commits: u64,
    /// Transactions aborted (including lock-timeout victims).
    pub aborts: u64,
    /// Lock acquisitions that timed out.
    pub lock_timeouts: u64,
    /// Injected shard crashes ([`Db::crash_shard`]).
    pub shard_crashes: u64,
    /// Transactions aborted because a shard they wrote crashed under them.
    pub failover_aborts: u64,
    /// Operations rejected with [`StoreError::ShardUnavailable`].
    pub unavailable_errors: u64,
}

/// Continuation receiving the outcome of a lock acquisition.
type LockCont = Box<dyn FnOnce(&mut Sim, StoreResult<()>)>;

/// A per-shard charge plan: `(shard, rows)` pairs in ascending shard
/// order. Buffers are recycled through `DbInner::plan_pool`.
type ChargePlan = Vec<(u32, u32)>;

/// A lock acquisition in progress: `keys` taken in order, one at a time.
/// Between events a sequence in the slab is always queued in the lock
/// manager for `keys[next_idx]`, under its own slab key.
struct PendingSeq {
    txn: TxnId,
    keys: Vec<LockKey>,
    next_idx: usize,
    mode: LockMode,
    cont: LockCont,
}

struct DbInner {
    tables: Vec<Box<dyn AnyTable>>,
    locks: LockManager,
    txns: HashMap<TxnId, TxnState, MixBuild>,
    /// Cleared states of finished transactions, for [`Db::begin`].
    txn_pool: Vec<TxnState>,
    next_txn: u64,
    shards: Rc<[StationRef]>,
    params: Rc<StoreParams>,
    lock_timeout: SimDuration,
    /// Pending lock sequences.
    pending: Slab<PendingSeq>,
    /// Cleared lock batches. Only batches taken from here come back, so
    /// it holds at most as many as were ever in flight at once.
    key_pool: Vec<Vec<LockKey>>,
    /// Cleared charge-plan buffers, bounded the same way.
    plan_pool: Vec<ChargePlan>,
    /// Per-shard row counters used while building a plan; all-zero between
    /// operations.
    shard_rows: Vec<u32>,
    /// Reusable key-encoding staging buffer.
    enc_scratch: Vec<u8>,
    /// Per-shard failover deadline: `Some(t)` means the shard is down until
    /// its node-group replica finishes taking over at `t` (fault
    /// injection). All-`None` in a healthy run.
    down_until: Vec<Option<SimTime>>,
    stats: DbStats,
    /// The WAL-backed persistence model, if the store is durable. `None`
    /// keeps volatile tables: no shadow log is captured, commits wait for
    /// no sync, and a shard crash costs the caller's takeover window.
    durable: Option<DurableBackend>,
}

impl DbInner {
    /// Returns a finished sequence's key batch to the pool it came from.
    fn recycle_keys(&mut self, mut keys: Vec<LockKey>) {
        keys.clear();
        self.key_pool.push(keys);
    }

    /// Returns a charge plan to the pool it came from.
    fn recycle_plan(&mut self, mut plan: ChargePlan) {
        plan.clear();
        self.plan_pool.push(plan);
    }

    /// Keeps a finished transaction's state for a later [`Db::begin`].
    fn retire(&mut self, mut state: TxnState) {
        state.clear();
        self.txn_pool.push(state);
    }

    /// Fails with [`StoreError::UnknownTxn`] once `txn` has finished.
    fn live(&self, txn: TxnId) -> StoreResult<()> {
        if self.txns.contains_key(&txn) {
            Ok(())
        } else {
            Err(StoreError::UnknownTxn { txn })
        }
    }

    /// Fails if a shard of `plan` is down (failover in progress) and aborts
    /// `txn`, as an NDB client does after a data-node loss.
    fn fail_if_down(
        &mut self,
        now: SimTime,
        txn: TxnId,
        plan: &ChargePlan,
        granted: &mut Vec<SlabKey>,
    ) -> StoreResult<()> {
        let down = plan
            .iter()
            .map(|&(s, _)| s)
            .find(|&s| matches!(self.down_until[s as usize], Some(t) if now < t));
        let Some(shard) = down else { return Ok(()) };
        self.stats.unavailable_errors += 1;
        Db::abort_in(self, txn, granted);
        Err(StoreError::ShardUnavailable { shard })
    }
}

/// Runs a continuation once a fixed number of parallel parts (shard
/// charges, a sync leg) have completed.
struct Join<F> {
    remaining: Cell<usize>,
    done: Cell<Option<F>>,
}

impl<F: FnOnce(&mut Sim)> Join<F> {
    fn new(parts: usize, done: F) -> Rc<Self> {
        Rc::new(Join { remaining: Cell::new(parts), done: Cell::new(Some(done)) })
    }

    /// One part completed; the last one runs the continuation.
    fn arrive(&self, sim: &mut Sim) {
        self.remaining.set(self.remaining.get() - 1);
        if self.remaining.get() == 0 {
            if let Some(done) = self.done.take() {
                done(sim);
            }
        }
    }
}

/// Routes an encoded key to its owning shard (FNV-1a over the key bytes).
pub(crate) fn shard_of(shards: usize, enc: &[u8]) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in enc {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards as u64) as usize
}

/// Records one encoded key in an under-construction charge plan.
fn plan_note(shard_rows: &mut [u32], plan: &mut ChargePlan, shard: usize) {
    if shard_rows[shard] == 0 {
        plan.push((shard as u32, 0));
    }
    shard_rows[shard] += 1;
}

/// Finalizes a plan: fills in row counts, re-zeroes the counters, and sorts
/// by shard so capacity charges sample shards in ascending order.
fn plan_seal(shard_rows: &mut [u32], plan: &mut ChargePlan) {
    for (shard, rows) in plan.iter_mut() {
        *rows = shard_rows[*shard as usize];
        shard_rows[*shard as usize] = 0;
    }
    plan.sort_unstable();
}

/// A shared handle to the store. Cloning is cheap and refers to the same
/// underlying database.
///
/// # Examples
///
/// ```
/// use lambda_sim::{params::StoreParams, Sim, SimDuration};
/// use lambda_store::{Db, LockMode};
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new(1);
/// let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
/// let inodes = db.create_table::<u64, String>("inodes");
///
/// let txn = db.begin();
/// let result = Rc::new(RefCell::new(None));
/// let out = Rc::clone(&result);
/// let db2 = db.clone();
/// db.lock(&mut sim, txn, [db.lock_key(inodes, &7u64)], LockMode::Exclusive, move |sim, r| {
///     r.unwrap();
///     db2.upsert(txn, inodes, 7, "hello".to_string()).unwrap();
///     let out = Rc::clone(&out);
///     let db3 = db2.clone();
///     db2.commit(sim, txn, move |_sim, r| {
///         r.unwrap();
///         *out.borrow_mut() = db3.peek(inodes, &7);
///     });
/// });
/// sim.run();
/// assert_eq!(*result.borrow(), Some("hello".to_string()));
/// ```
#[derive(Clone)]
pub struct Db {
    inner: Rc<RefCell<DbInner>>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Db")
            .field("tables", &inner.tables.len())
            .field("shards", &inner.shards.len())
            .field("active_txns", &inner.txns.len())
            .finish()
    }
}

impl Db {
    /// Bytes the durable backend logs per row of a [`Db::create_table`]
    /// table: one word (an id, a counter).
    pub const WORD_ROW_BYTES: u32 = 8;

    /// Creates a store with the capacity model in `params`; lock waits
    /// longer than `lock_timeout` abort the waiting transaction.
    ///
    /// The store keeps volatile tables; see [`Db::new_durable`] for the
    /// WAL-backed alternative.
    #[must_use]
    pub fn new(params: &StoreParams, lock_timeout: SimDuration) -> Self {
        Self::with_durability(params, lock_timeout, None)
    }

    /// Creates a store on the WAL-backed durable backend: committed writes
    /// are appended to per-shard write-ahead logs before the commit
    /// completes, made durable at `durability.flush_interval`
    /// group-commit boundaries, and a [`Db::crash_shard`] triggers WAL
    /// replay recovery (costed deterministically from replay volume)
    /// instead of a fixed takeover window.
    #[must_use]
    pub fn new_durable(
        params: &StoreParams,
        lock_timeout: SimDuration,
        durability: DurabilityConfig,
    ) -> Self {
        let shard_count = params.shards.max(1) as usize;
        let durable = DurableBackend::new(durability, shard_count);
        Self::with_durability(params, lock_timeout, Some(durable))
    }

    fn with_durability(
        params: &StoreParams,
        lock_timeout: SimDuration,
        durable: Option<DurableBackend>,
    ) -> Self {
        let shards: Rc<[StationRef]> = (0..params.shards.max(1))
            .map(|i| Station::new(format!("ndb-shard-{i}"), params.workers_per_shard.max(1)))
            .collect();
        let shard_count = shards.len();
        Db {
            inner: Rc::new(RefCell::new(DbInner {
                tables: Vec::new(),
                locks: LockManager::new(),
                txns: HashMap::default(),
                txn_pool: Vec::new(),
                next_txn: 0,
                shards,
                params: Rc::new(params.clone()),
                lock_timeout,
                pending: Slab::default(),
                key_pool: Vec::new(),
                plan_pool: Vec::new(),
                shard_rows: vec![0; shard_count],
                enc_scratch: Vec::new(),
                down_until: vec![None; shard_count],
                stats: DbStats::default(),
                durable,
            })),
        }
    }

    /// Durability counters, if the store runs on the durable backend.
    #[must_use]
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.inner.borrow().durable.as_ref().map(DurableBackend::stats)
    }

    /// Aggregated shadow-LSM counters (WAL/flush/compaction volume), if the
    /// store runs on the durable backend.
    #[must_use]
    pub fn lsm_stats(&self) -> Option<LsmStats> {
        self.inner.borrow().durable.as_ref().map(DurableBackend::lsm_stats)
    }

    /// Durable-backend consistency violations found by post-crash checks
    /// (auditor feed; empty = healthy, always empty in-memory).
    #[must_use]
    pub fn durability_violations(&self) -> Vec<String> {
        self.inner.borrow().durable.as_ref().map_or_else(Vec::new, |d| d.violations().to_vec())
    }

    /// Registers a new, empty table, ordered by key (a B+ tree), logged
    /// as [`Db::WORD_ROW_BYTES`] per row.
    pub fn create_table<K: KeyCodec, V: Clone + 'static>(
        &self,
        name: impl Into<String>,
    ) -> TableHandle<K, V> {
        self.create_sized_table(name, Self::WORD_ROW_BYTES)
    }

    /// Like [`Db::create_table`], but the durable backend logs each row as
    /// `row_bytes`: the schema's modeled row size, which the WAL, flushes
    /// and replays count, never the host layout of `V`.
    pub fn create_sized_table<K: KeyCodec, V: Clone + 'static>(
        &self,
        name: impl Into<String>,
        row_bytes: u32,
    ) -> TableHandle<K, V> {
        self.register(TypedTable::<K, V>::new(name, row_bytes))
    }

    /// Registers a new, empty table whose keys are ids from a sequence
    /// (the inode table's `next_id`), logged like
    /// [`Db::create_sized_table`]'s. Its rows live in id-indexed pages
    /// ([`IdRows`](crate::idrows::IdRows)), so a primary-key get is one
    /// row load — NDB's hash-index read — where an ordered table descends
    /// a tree. Range reads still see rows in id order. Memory follows the
    /// highest id inserted, so keys must be dense, not arbitrary. A slot
    /// holds the row's [`IdRow::Stored`] form, without the id its position
    /// gives, and every read rebuilds the row.
    pub fn create_id_table<V: IdRow>(
        &self,
        name: impl Into<String>,
        row_bytes: u32,
    ) -> TableHandle<u64, V> {
        self.register(TypedTable::<u64, V>::new_id(name, row_bytes))
    }

    fn register<K: KeyCodec, V: Clone + 'static>(
        &self,
        table: TypedTable<K, V>,
    ) -> TableHandle<K, V> {
        let mut inner = self.inner.borrow_mut();
        let id = TableId::new(inner.tables.len() as u32);
        inner.tables.push(Box::new(table));
        TableHandle::new(id)
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> DbStats {
        self.inner.borrow().stats
    }

    /// Drops every parked lock sequence and every job waiting for a shard,
    /// continuations included, without running them — for the `Drop` of
    /// the system that owns the store. A continuation usually holds a
    /// handle to the store, so a store dropped with work parked would keep
    /// itself alive. Schedules nothing; the transactions and row locks of
    /// the dropped work stay as they are.
    pub fn tear_down(&self) {
        let (seqs, shards) = {
            let mut inner = self.inner.borrow_mut();
            (std::mem::take(&mut inner.pending), Rc::clone(&inner.shards))
        };
        drop(seqs);
        for shard in shards.iter() {
            Station::abandon_waiting(shard);
        }
    }

    /// The shard stations (for utilization reporting).
    #[must_use]
    pub fn shards(&self) -> Vec<StationRef> {
        self.inner.borrow().shards.to_vec()
    }

    /// The configured capacity parameters, as a shared handle (the
    /// parameter set itself is not copied per call).
    #[must_use]
    pub fn params(&self) -> Rc<StoreParams> {
        Rc::clone(&self.inner.borrow().params)
    }

    /// Number of rows in `table` right now (no capacity charge; test and
    /// reporting aid).
    #[must_use]
    pub fn table_len<K: KeyCodec, V: Clone + 'static>(&self, table: TableHandle<K, V>) -> usize {
        self.with_table(table, TypedTable::len)
    }

    /// Builds the canonical lock key for a row.
    #[must_use]
    pub fn lock_key<K: KeyCodec, V>(&self, table: TableHandle<K, V>, key: &K) -> LockKey {
        let mut inner = self.inner.borrow_mut();
        let enc = EncodedKey::encode(key, &mut inner.enc_scratch);
        LockKey { table: table.id(), key: enc }
    }

    /// Starts a transaction.
    #[must_use]
    pub fn begin(&self) -> TxnId {
        let mut inner = self.inner.borrow_mut();
        inner.next_txn += 1;
        let id = TxnId::new(inner.next_txn);
        let state = inner.txn_pool.pop().unwrap_or_default();
        inner.txns.insert(id, state);
        id
    }

    /// Begins a transaction holding `keys` exclusively: the first step of
    /// every write. `cont` receives the transaction, or the lock error once
    /// the transaction has been aborted.
    pub fn begin_exclusive<K, F>(&self, sim: &mut Sim, keys: K, cont: F)
    where
        K: IntoIterator<Item = LockKey>,
        F: FnOnce(&mut Sim, StoreResult<TxnId>) + 'static,
    {
        let txn = self.begin();
        let db = self.clone();
        self.lock(sim, txn, keys, LockMode::Exclusive, move |sim, res| match res {
            Ok(()) => cont(sim, Ok(txn)),
            Err(e) => {
                db.abort(sim, txn);
                cont(sim, Err(e));
            }
        });
    }

    /// The last step of every write: commits `txn` if its writes succeeded,
    /// else aborts it. `cont` receives `written`'s value once committed, or
    /// the first error — the caller's own, or the commit's converted.
    pub fn commit_after<T, E, F>(&self, sim: &mut Sim, txn: TxnId, written: Result<T, E>, cont: F)
    where
        T: 'static,
        E: From<StoreError> + 'static,
        F: FnOnce(&mut Sim, Result<T, E>) + 'static,
    {
        match written {
            Ok(value) => {
                self.commit(sim, txn, move |sim, r| cont(sim, r.map(|()| value).map_err(E::from)));
            }
            Err(e) => {
                self.abort(sim, txn);
                cont(sim, Err(e));
            }
        }
    }

    /// A write with nothing to wait for between its locks and its rows:
    /// [`Db::begin_exclusive`], `writes` (given the transaction and the
    /// time the locks were granted), then [`Db::commit_after`].
    pub fn write<K, W, F>(&self, sim: &mut Sim, keys: K, writes: W, cont: F)
    where
        K: IntoIterator<Item = LockKey>,
        W: FnOnce(TxnId, SimTime) -> StoreResult<()> + 'static,
        F: FnOnce(&mut Sim, StoreResult<()>) + 'static,
    {
        let db = self.clone();
        self.begin_exclusive(sim, keys, move |sim, txn| match txn {
            Ok(txn) => db.commit_after(sim, txn, writes(txn, sim.now()), cont),
            Err(e) => cont(sim, Err(e)),
        });
    }

    /// Whether `txn` currently holds `key` at `mode` or stronger.
    #[must_use]
    pub fn holds(&self, txn: TxnId, key: &LockKey, mode: LockMode) -> bool {
        self.inner.borrow().locks.holds(txn, key, mode)
    }

    /// Acquires `keys` in `mode` for `txn`, then calls `cont`.
    ///
    /// The keys may come in any order and repeat: the store copies them
    /// into a batch of its own and takes them in sorted [`LockKey`] order,
    /// each once (the lock-order discipline). Callers pass an array.
    ///
    /// `cont` receives `Err(StoreError::LockTimeout)` if the wait exceeded
    /// the store's lock timeout, in which case the transaction has been
    /// aborted (all its locks released, all its writes undone).
    pub fn lock<F>(
        &self,
        sim: &mut Sim,
        txn: TxnId,
        keys: impl IntoIterator<Item = LockKey>,
        mode: LockMode,
        cont: F,
    ) where
        F: FnOnce(&mut Sim, StoreResult<()>) + 'static,
    {
        // The borrow ends before `keys` runs: it may build keys with
        // `Db::lock_key`.
        let mut batch = self.inner.borrow_mut().key_pool.pop().unwrap_or_default();
        batch.extend(keys);
        batch.sort_unstable();
        batch.dedup();
        self.lock_batch(sim, txn, batch, mode, cont);
    }

    /// [`Db::lock`] for a sorted, deduplicated batch from `key_pool`.
    fn lock_batch<F>(&self, sim: &mut Sim, txn: TxnId, keys: Vec<LockKey>, mode: LockMode, cont: F)
    where
        F: FnOnce(&mut Sim, StoreResult<()>) + 'static,
    {
        let live = self.inner.borrow().live(txn);
        if let Err(e) = live {
            self.inner.borrow_mut().recycle_keys(keys);
            sim.schedule(SimDuration::ZERO, move |sim| cont(sim, Err(e)));
            return;
        }
        let seq = self.inner.borrow_mut().pending.insert(PendingSeq {
            txn,
            keys,
            next_idx: 0,
            mode,
            cont: Box::new(cont),
        });
        self.drive_seq(sim, seq);
        // Arm the timeout for the whole sequence; it is a no-op if the
        // sequence finished by then (its key has gone stale).
        if self.inner.borrow().pending.get(seq).is_some() {
            let timeout = self.inner.borrow().lock_timeout;
            let db = self.clone();
            sim.schedule(timeout, move |sim| db.timeout_seq(sim, seq));
        }
    }

    /// Advances a pending acquisition sequence as far as possible, queueing
    /// its key as the waiter token where it has to wait.
    fn drive_seq(&self, sim: &mut Sim, key: SlabKey) {
        let cont = {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            let Some(seq) = inner.pending.get_mut(key) else { return };
            while seq.next_idx < seq.keys.len() {
                let row = &seq.keys[seq.next_idx];
                if inner.locks.acquire(seq.txn, row, seq.mode, key) == Acquire::Wait {
                    return; // `on_grant` resumes it
                }
                seq.next_idx += 1;
            }
            let seq = inner.pending.remove(key).expect("driven above");
            inner.recycle_keys(seq.keys);
            seq.cont
        };
        sim.schedule(SimDuration::ZERO, move |sim| cont(sim, Ok(())));
    }

    /// Called when the lock a sequence waited for is granted. A sequence
    /// cancelled after the grant was decided has a stale key: its abort
    /// already released everything.
    fn on_grant(&self, sim: &mut Sim, key: SlabKey) {
        {
            let mut inner = self.inner.borrow_mut();
            let Some(seq) = inner.pending.get_mut(key) else { return };
            seq.next_idx += 1;
        }
        self.drive_seq(sim, key);
    }

    /// Fires when a lock sequence's timeout elapses.
    fn timeout_seq(&self, sim: &mut Sim, key: SlabKey) {
        let victim = {
            let mut inner = self.inner.borrow_mut();
            let Some(seq) = inner.pending.remove(key) else { return };
            inner.stats.lock_timeouts += 1;
            let mut granted = Vec::new();
            inner.locks.cancel_waiter(&seq.keys[seq.next_idx], key, &mut granted);
            // Abort the victim: undo its writes, release all its locks.
            Self::abort_in(&mut inner, seq.txn, &mut granted);
            inner.recycle_keys(seq.keys);
            (seq.txn, seq.cont, granted)
        };
        let (txn, cont, granted) = victim;
        self.dispatch_grants(sim, granted);
        sim.schedule(SimDuration::ZERO, move |sim| {
            cont(sim, Err(StoreError::LockTimeout { txn }));
        });
    }

    fn dispatch_grants(&self, sim: &mut Sim, granted: Vec<SlabKey>) {
        for key in granted {
            let db = self.clone();
            sim.schedule(SimDuration::ZERO, move |sim| db.on_grant(sim, key));
        }
    }

    /// Rolls back and deregisters `txn`; newly grantable waiters are
    /// appended to `granted`.
    fn abort_in(inner: &mut DbInner, txn: TxnId, granted: &mut Vec<SlabKey>) {
        if let Some(mut state) = inner.txns.remove(&txn) {
            inner.stats.aborts += 1;
            for w in state.writes.drain(..).rev() {
                (w.undo)(&mut inner.tables);
            }
            inner.retire(state);
        }
        granted.extend(inner.locks.release_all(txn));
    }

    /// Aborts `txn` immediately: undoes its writes and releases its locks.
    ///
    /// Safe to call for an already-finished transaction (no-op).
    pub fn abort(&self, sim: &mut Sim, txn: TxnId) {
        let granted = {
            let mut inner = self.inner.borrow_mut();
            let mut granted = Vec::new();
            Self::abort_in(&mut inner, txn, &mut granted);
            granted
        };
        self.dispatch_grants(sim, granted);
    }

    /// Cancels every pending lock sequence owned by `txn`, collecting the
    /// continuations to fail and any newly grantable waiters.
    fn cancel_seqs_of(
        inner: &mut DbInner,
        txn: TxnId,
        granted: &mut Vec<SlabKey>,
        conts: &mut Vec<LockCont>,
    ) {
        // In slot order, as the schedule of the failed continuations must
        // not depend on anything else.
        loop {
            let Some((key, _)) = inner.pending.iter().find(|(_, s)| s.txn == txn) else { break };
            let seq = inner.pending.remove(key).expect("found above");
            inner.locks.cancel_waiter(&seq.keys[seq.next_idx], key, granted);
            inner.recycle_keys(seq.keys);
            conts.push(seq.cont);
        }
    }

    /// Crashes `shard` (fault injection), discarding the node's volatile
    /// state.
    ///
    /// How long the shard stays unavailable depends on the backend: with
    /// volatile tables ([`Db::new`]) a node-group replica takes over after
    /// the modeled `takeover` window; on the durable backend
    /// ([`Db::new_durable`]) the `takeover` argument is ignored and the
    /// shard is down while WAL replay rebuilds its state (a deterministic
    /// cost derived from the surviving log volume), after which a
    /// post-crash consistency check compares the recovered shadow state
    /// against the tables.
    ///
    /// Every in-flight transaction that has written the shard is aborted
    /// through its undo log (it would lose those writes with the node), as
    /// is every mid-commit transaction whose WAL records on the shard were
    /// still in the lost (unsynced) window; their pending lock sequences
    /// are cancelled and their continuations observe
    /// [`StoreError::ShardUnavailable`]. Unlocked reads and scans keep
    /// being served (read replicas survive the node failure); locked reads
    /// and commits touching the shard fail until the shard is back.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn crash_shard(&self, sim: &mut Sim, shard: u32, takeover: SimDuration) {
        let (granted, conts) = {
            let mut inner = self.inner.borrow_mut();
            assert!((shard as usize) < inner.down_until.len(), "shard {shard} out of range");
            inner.stats.shard_crashes += 1;
            let (down_for, mut lost_txns) = match inner.durable.as_mut() {
                Some(durable) => durable.crash_shard(shard),
                None => (takeover, Vec::new()),
            };
            inner.down_until[shard as usize] = Some(sim.now() + down_for);
            let mut granted = Vec::new();
            let mut conts = Vec::new();
            // Mid-commit transactions whose redo records the crash lost:
            // their commits can no longer stand. Their own write logs undo
            // the records' durable traces (in log order), then roll them
            // back before the victim scan below.
            let DbInner { durable, txns, .. } = &mut *inner;
            if let Some(durable) = durable.as_mut() {
                for txn in &lost_txns {
                    if let Some(state) = txns.get(txn) {
                        durable.compensate_lost(*txn, &state.writes);
                    }
                }
            }
            lost_txns.sort_unstable();
            for txn in lost_txns {
                inner.stats.failover_aborts += 1;
                Self::abort_in(&mut inner, txn, &mut granted);
                Self::cancel_seqs_of(&mut inner, txn, &mut granted, &mut conts);
            }
            // Victims in TxnId order: HashMap iteration order must not leak
            // into the (deterministic) event schedule.
            let mut victims: Vec<TxnId> = inner
                .txns
                .iter()
                .filter(|(_, s)| s.wrote(shard))
                .map(|(id, _)| *id)
                .collect();
            victims.sort_unstable();
            for txn in victims {
                inner.stats.failover_aborts += 1;
                Self::abort_in(&mut inner, txn, &mut granted);
                Self::cancel_seqs_of(&mut inner, txn, &mut granted, &mut conts);
            }
            // With every victim rolled back, recovered shadow state and
            // authoritative tables must agree on the crashed shard.
            let inner = &mut *inner;
            if let Some(durable) = inner.durable.as_mut() {
                durable.post_crash_check(shard, inner.shards.len(), &inner.tables);
            }
            (granted, conts)
        };
        self.dispatch_grants(sim, granted);
        for cont in conts {
            sim.schedule(SimDuration::ZERO, move |sim| {
                cont(sim, Err(StoreError::ShardUnavailable { shard }));
            });
        }
    }

    /// Schedules every [`ShardOutage`] in `outages` against this store.
    pub fn schedule_outages(&self, sim: &mut Sim, outages: &[ShardOutage]) {
        for o in outages {
            let db = self.clone();
            let (shard, takeover) = (o.shard, o.takeover);
            sim.schedule_at(o.at, move |sim| db.crash_shard(sim, shard, takeover));
        }
    }

    /// Number of transactions currently alive (auditor aid).
    #[must_use]
    pub fn active_txn_count(&self) -> usize {
        self.inner.borrow().txns.len()
    }

    /// Number of rows with at least one holder or waiter (auditor aid).
    #[must_use]
    pub fn locked_rows(&self) -> usize {
        self.inner.borrow().locks.active_rows()
    }

    /// Number of parked lock-acquisition sequences (auditor aid).
    #[must_use]
    pub fn pending_seq_count(&self) -> usize {
        self.inner.borrow().pending.len()
    }

    /// `(lock batches, charge plans)` held in the store's pools.
    #[cfg(test)]
    pub(crate) fn pool_lens(&self) -> (usize, usize) {
        let inner = self.inner.borrow();
        (inner.key_pool.len(), inner.plan_pool.len())
    }

    /// Number of shards in the store.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.inner.borrow().shards.len()
    }

    fn with_table<K: KeyCodec, V: Clone + 'static, R>(
        &self,
        table: TableHandle<K, V>,
        f: impl FnOnce(&TypedTable<K, V>) -> R,
    ) -> R {
        let inner = self.inner.borrow();
        let t = inner.tables[table.id().raw() as usize]
            .as_any()
            .downcast_ref::<TypedTable<K, V>>()
            .expect("table handle type mismatch");
        f(t)
    }

    /// Inserts a row with no transaction, no locks, and no capacity
    /// charge.
    ///
    /// This is **pre-run bulk loading only** — the evaluation pre-creates
    /// directory trees of up to 2^20 files (Table 3) that would be
    /// pointless to simulate writing. Protocol code paths must use
    /// [`Db::upsert`] inside a transaction.
    ///
    /// # Panics
    ///
    /// Panics if any transaction is active (loading must happen before the
    /// workload starts).
    pub fn bootstrap_insert<K, V>(&self, table: TableHandle<K, V>, key: K, value: V)
    where
        K: KeyCodec,
        V: Clone + 'static,
    {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        assert!(
            inner.txns.is_empty(),
            "bootstrap_insert is only allowed before any transaction starts"
        );
        let t = inner.tables[table.id().raw() as usize]
            .as_any_mut()
            .downcast_mut::<TypedTable<K, V>>()
            .expect("table handle type mismatch");
        if let Some(durable) = inner.durable.as_mut() {
            let enc = EncodedKey::encode(&key, &mut inner.enc_scratch);
            let shard = shard_of(inner.shards.len(), enc.as_slice()) as u32;
            durable.bootstrap_row(table.id(), shard, enc.as_slice(), t.row_bytes());
        }
        t.insert(key, value);
    }

    /// Bulk-loads a strictly ascending stream of fresh rows into `table`,
    /// merging with any rows already present, with no transaction, no
    /// locks, and no capacity charge.
    ///
    /// The streaming counterpart of [`Db::bootstrap_insert`]: the sorted
    /// stream feeds the B-tree's dense bulk build directly, so the table
    /// holds the rows that inserting them one by one would, in nodes that
    /// are full instead of half full. Pre-run bulk loading only, like
    /// `bootstrap_insert`.
    ///
    /// # Panics
    ///
    /// Panics if any transaction is active, if the stream is not strictly
    /// ascending by key, or if a streamed key already exists in the table.
    pub fn bootstrap_bulk_load<K, V>(
        &self,
        table: TableHandle<K, V>,
        rows: impl Iterator<Item = (K, V)>,
    ) where
        K: KeyCodec,
        V: Clone + 'static,
    {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        assert!(
            inner.txns.is_empty(),
            "bootstrap_bulk_load is only allowed before any transaction starts"
        );
        let DbInner { tables, durable, shards, .. } = inner;
        let t = tables[table.id().raw() as usize]
            .as_any_mut()
            .downcast_mut::<TypedTable<K, V>>()
            .expect("table handle type mismatch");
        if let Some(durable) = durable.as_mut() {
            // Mirror every streamed row into the backend without breaking
            // the stream (the table build stays single-pass).
            let (shard_count, row_bytes) = (shards.len(), t.row_bytes());
            let mut scratch = Vec::new();
            t.bulk_build(rows.inspect(move |(k, _)| {
                scratch.clear();
                k.encode_into(&mut scratch);
                let shard = shard_of(shard_count, &scratch) as u32;
                durable.bootstrap_row(table.id(), shard, &scratch, row_bytes);
            }));
        } else {
            t.bulk_build(rows);
        }
    }

    /// Reads a row with **no** lock and **no** capacity charge. This is the
    /// test/reporting peephole; protocol code paths must use [`Db::read`]
    /// or [`Db::read_committed`].
    #[must_use]
    pub fn peek<K: KeyCodec, V: Clone + 'static>(
        &self,
        table: TableHandle<K, V>,
        key: &K,
    ) -> Option<V> {
        self.with_table(table, |t| t.get(key))
    }

    /// Scans a range with no lock and no capacity charge (test/reporting
    /// peephole).
    #[must_use]
    pub fn peek_range<K: KeyCodec, V: Clone + 'static, R: RangeBounds<K>>(
        &self,
        table: TableHandle<K, V>,
        range: R,
    ) -> Vec<(K, V)> {
        self.with_table(table, |t| t.scan(range))
    }

    /// Visits a range in ascending key order with no lock, no capacity
    /// charge, and no allocation — the visitor sibling of
    /// [`Db::peek_range`] for guard checks on hot paths (directory
    /// emptiness, lock-overlap probes) that only need to look at rows, not
    /// own them.
    pub fn peek_range_with<K, V, R>(
        &self,
        table: TableHandle<K, V>,
        range: R,
        visit: impl FnMut(&K, &V),
    ) where
        K: KeyCodec,
        V: Clone + 'static,
        R: RangeBounds<K>,
    {
        self.with_table(table, |t| t.scan_with(range, visit));
    }

    /// Number of rows in `range` with no lock and no capacity charge
    /// (guard-check peephole; allocation-free).
    #[must_use]
    pub fn peek_count_range<K, V, R>(&self, table: TableHandle<K, V>, range: R) -> usize
    where
        K: KeyCodec,
        V: Clone + 'static,
        R: RangeBounds<K>,
    {
        self.with_table(table, |t| t.count_range(range))
    }

    fn recycle_plan(&self, plan: ChargePlan) {
        self.inner.borrow_mut().recycle_plan(plan);
    }

    /// Submits one capacity charge per `(shard, rows)` part, in part
    /// order, its service time drawn by `service`; each completion arrives
    /// at `join`. Every multi-shard charge of the store runs through here.
    fn charge<F, P, S>(&self, sim: &mut Sim, parts: P, mut service: S, join: &Rc<Join<F>>)
    where
        F: FnOnce(&mut Sim) + 'static,
        P: IntoIterator<Item = (u32, u64)>,
        S: FnMut(&mut Sim, &StoreParams, u32, u64) -> SimDuration,
    {
        let (shards, params) = {
            let inner = self.inner.borrow();
            (Rc::clone(&inner.shards), Rc::clone(&inner.params))
        };
        for (shard, rows) in parts {
            let service = service(sim, &params, shard, rows);
            let join = Rc::clone(join);
            Station::submit(&shards[shard as usize], sim, service, move |sim| join.arrive(sim));
        }
    }

    /// Charges one batched read according to `plan` (ascending shard
    /// order), then calls `done`. The plan buffer returns to the pool.
    fn charge_batch_read<F>(&self, sim: &mut Sim, plan: ChargePlan, done: F)
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        let service = |sim: &mut Sim, params: &StoreParams, _: u32, rows: u64| {
            sim.rng().sample_duration(&params.batch_read)
                + sim.rng().sample_duration(&params.batch_row_extra) * rows.saturating_sub(1)
        };
        match plan.len() {
            0 => {
                self.recycle_plan(plan);
                sim.schedule(SimDuration::ZERO, done);
            }
            1 => {
                // Single-shard fast path: no join bookkeeping at all.
                let (shard, rows) = plan[0];
                self.recycle_plan(plan);
                let (station, params) = {
                    let inner = self.inner.borrow();
                    (Rc::clone(&inner.shards[shard as usize]), Rc::clone(&inner.params))
                };
                let service = service(sim, &params, shard, u64::from(rows));
                Station::submit(&station, sim, service, done);
            }
            n => {
                let parts = plan.iter().map(|&(shard, rows)| (shard, u64::from(rows)));
                self.charge(sim, parts, service, &Join::new(n, done));
                self.recycle_plan(plan);
            }
        }
    }

    /// Charges the *quiesce* cost of taking-and-releasing write locks on
    /// `rows` rows, spread evenly over all shards, then calls `done`.
    ///
    /// This is the capacity model for Phase 2 of the subtree protocol
    /// (Appendix D): every INode in the subtree is write-locked and
    /// released in a total order, which costs a lock round trip per row
    /// without modifying anything.
    pub fn charge_quiesce<F>(&self, sim: &mut Sim, rows: u64, done: F)
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        if rows == 0 {
            sim.schedule(SimDuration::ZERO, done);
            return;
        }
        let n = self.shard_count() as u32;
        let parts = (0..n).map(|shard| (shard, rows.div_ceil(u64::from(n))));
        let service = |sim: &mut Sim, p: &StoreParams, _, rows| {
            sim.rng().sample_duration(&p.lock_round) * rows
        };
        self.charge(sim, parts, service, &Join::new(n as usize, done));
    }

    /// Acquires `mode` locks on `keys` (sorted and deduplicated
    /// internally), charges one batched read, and delivers the row values.
    ///
    /// The values are read *after* the locks are held, so the batch is a
    /// consistent snapshot under 2PL. On lock timeout the transaction is
    /// aborted and `cont` receives the error. Duplicate keys are permitted
    /// and each position of `keys` gets its value in order.
    pub fn read_locked<K, V, F>(
        &self,
        sim: &mut Sim,
        txn: TxnId,
        table: TableHandle<K, V>,
        keys: Vec<K>,
        mode: LockMode,
        cont: F,
    ) where
        K: KeyCodec,
        V: Clone + 'static,
        F: FnOnce(&mut Sim, StoreResult<Vec<Option<V>>>) + 'static,
    {
        let (lock_keys, plan) = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.locked_reads += 1;
            let mut lock_keys = inner.key_pool.pop().unwrap_or_default();
            for k in &keys {
                let enc = EncodedKey::encode(k, &mut inner.enc_scratch);
                lock_keys.push(LockKey { table: table.id(), key: enc });
            }
            lock_keys.sort_unstable();
            lock_keys.dedup();
            let mut plan = inner.plan_pool.pop().unwrap_or_default();
            let shard_count = inner.shards.len();
            for lk in &lock_keys {
                let shard = shard_of(shard_count, lk.key.as_slice());
                plan_note(&mut inner.shard_rows, &mut plan, shard);
            }
            plan_seal(&mut inner.shard_rows, &mut plan);
            // A primary we need is mid-failover: fail fast.
            let mut granted = Vec::new();
            if let Err(e) = inner.fail_if_down(sim.now(), txn, &plan, &mut granted) {
                inner.recycle_keys(lock_keys);
                inner.recycle_plan(plan);
                drop(inner);
                self.dispatch_grants(sim, granted);
                sim.schedule(SimDuration::ZERO, move |sim| cont(sim, Err(e)));
                return;
            }
            (lock_keys, plan)
        };
        let db = self.clone();
        self.lock_batch(sim, txn, lock_keys, mode, move |sim, res| match res {
            Err(e) => {
                db.recycle_plan(plan);
                cont(sim, Err(e));
            }
            Ok(()) => {
                let db2 = db.clone();
                db.charge_batch_read(sim, plan, move |sim| {
                    let values =
                        db2.with_table(table, |t| keys.iter().map(|k| t.get(k)).collect());
                    cont(sim, Ok(values));
                });
            }
        });
    }

    /// A read-only transaction, the read-side twin of [`Db::write`]: begins,
    /// reads `keys` under shared locks ([`Db::read_locked`]), commits, then
    /// hands `cont` the values. On an error the transaction has already
    /// been aborted.
    pub fn read<K, V, F>(&self, sim: &mut Sim, table: TableHandle<K, V>, keys: Vec<K>, cont: F)
    where
        K: KeyCodec,
        V: Clone + 'static,
        F: FnOnce(&mut Sim, StoreResult<Vec<Option<V>>>) + 'static,
    {
        let (txn, db) = (self.begin(), self.clone());
        let read = move |sim: &mut Sim, values: StoreResult<Vec<Option<V>>>| match values {
            Ok(values) => db.commit(sim, txn, move |sim, r| cont(sim, r.map(|()| values))),
            Err(e) => cont(sim, Err(e)),
        };
        self.read_locked(sim, txn, table, keys, LockMode::Shared, read);
    }

    /// Reads rows **without locks** (read-committed-at-best: a concurrent
    /// uncommitted write *is* visible), charged as one batch read per shard
    /// the keys touch. Used where staleness/dirtiness is acceptable:
    /// maintenance paths (DataNode reports, liveness polling) and the
    /// subtree-lock guard of a write, which the subtree protocol's own
    /// locks back up; reads that must see a stable row use [`Db::read`].
    pub fn read_committed<K, V, F>(
        &self,
        sim: &mut Sim,
        table: TableHandle<K, V>,
        keys: Vec<K>,
        cont: F,
    ) where
        K: KeyCodec,
        V: Clone + 'static,
        F: FnOnce(&mut Sim, Vec<Option<V>>) + 'static,
    {
        let plan = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.unlocked_reads += 1;
            let mut plan = inner.plan_pool.pop().unwrap_or_default();
            let shard_count = inner.shards.len();
            // Duplicate keys each count one row: the batch fetches every
            // requested position.
            for k in &keys {
                inner.enc_scratch.clear();
                k.encode_into(&mut inner.enc_scratch);
                let shard = shard_of(shard_count, &inner.enc_scratch);
                plan_note(&mut inner.shard_rows, &mut plan, shard);
            }
            plan_seal(&mut inner.shard_rows, &mut plan);
            plan
        };
        let db = self.clone();
        self.charge_batch_read(sim, plan, move |sim| {
            let values = db.with_table(table, |t| keys.iter().map(|k| t.get(k)).collect());
            cont(sim, values);
        });
    }

    /// Range-scans `table` without row locks, folding the rows through a
    /// visitor instead of materializing a `Vec<(K, V)>` of clones.
    ///
    /// Capacity is charged in proportion to the result size: the rows of a
    /// range are spread over all shards by hash, so every shard pays one
    /// batch read plus its share of the rows. `init` builds the accumulator
    /// once that charge has drained, `step` is called per row in ascending
    /// key order under the table borrow, and `cont` receives the finished
    /// accumulator.
    ///
    /// Isolation contract: callers serialize scans against writers via a
    /// coarser lock (e.g. `ls` holds a shared lock on the directory inode
    /// while writers to that directory hold it exclusively), mirroring
    /// HopsFS's parent-lock discipline.
    pub fn scan_with<K, V, R, T, I, S, F>(
        &self,
        sim: &mut Sim,
        table: TableHandle<K, V>,
        range: R,
        init: I,
        mut step: S,
        cont: F,
    ) where
        K: KeyCodec,
        V: Clone + 'static,
        R: RangeBounds<K> + 'static,
        T: 'static,
        I: FnOnce() -> T + 'static,
        S: FnMut(&mut T, &K, &V) + 'static,
        F: FnOnce(&mut Sim, T) + 'static,
    {
        self.inner.borrow_mut().stats.scans += 1;
        let n = self.with_table(table, |t| {
            t.count_range((range.start_bound().cloned(), range.end_bound().cloned()))
        });
        let db = self.clone();
        let finish = move |sim: &mut Sim| {
            let acc = db.with_table(table, |t| {
                let mut acc = init();
                t.scan_with(range, |k, v| step(&mut acc, k, v));
                acc
            });
            cont(sim, acc);
        };
        let shards = self.shard_count() as u32;
        let parts = (0..shards).map(|shard| (shard, (n as u64).div_ceil(u64::from(shards))));
        let service = |sim: &mut Sim, p: &StoreParams, _, rows| {
            sim.rng().sample_duration(&p.batch_read)
                + sim.rng().sample_duration(&p.batch_row_extra) * rows
        };
        self.charge(sim, parts, service, &Join::new(shards as usize, finish));
    }

    /// Inserts or replaces a row. Requires `txn` to hold the row's
    /// exclusive lock.
    ///
    /// The write applies immediately (protected by the lock) and is undone
    /// if the transaction aborts. Capacity is charged at commit.
    ///
    /// # Errors
    ///
    /// [`StoreError::LockNotHeld`] if the exclusive lock is missing;
    /// [`StoreError::UnknownTxn`] for a finished transaction.
    pub fn upsert<K, V>(
        &self,
        txn: TxnId,
        table: TableHandle<K, V>,
        key: K,
        value: V,
    ) -> StoreResult<()>
    where
        K: KeyCodec,
        V: Clone + 'static,
    {
        self.write_row(txn, table, key, Some(value)).map(drop)
    }

    /// Deletes a row, returning the previous value. Requires the exclusive
    /// lock, like [`Db::upsert`].
    ///
    /// # Errors
    ///
    /// Same contract as [`Db::upsert`].
    pub fn remove<K, V>(
        &self,
        txn: TxnId,
        table: TableHandle<K, V>,
        key: K,
    ) -> StoreResult<Option<V>>
    where
        K: KeyCodec,
        V: Clone + 'static,
    {
        self.write_row(txn, table, key, None)
    }

    /// Writes `value` to a row (`None` deletes it) and logs the write in
    /// `txn`'s write log. Returns the removed row of a delete.
    fn write_row<K, V>(
        &self,
        txn: TxnId,
        table: TableHandle<K, V>,
        key: K,
        value: Option<V>,
    ) -> StoreResult<Option<V>>
    where
        K: KeyCodec,
        V: Clone + 'static,
    {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        inner.live(txn)?;
        let lk =
            LockKey { table: table.id(), key: EncodedKey::encode(&key, &mut inner.enc_scratch) };
        if !inner.locks.holds(txn, &lk, LockMode::Exclusive) {
            return Err(StoreError::LockNotHeld { txn, row: lk.to_string() });
        }
        let tombstone = value.is_none();
        let (old, row_bytes) = {
            let t = inner.tables[table.id().raw() as usize]
                .as_any_mut()
                .downcast_mut::<TypedTable<K, V>>()
                .expect("table handle type mismatch");
            let old = match value {
                Some(value) => t.insert(key.clone(), value),
                None => t.remove(&key),
            };
            (old, t.row_bytes())
        };
        inner.stats.rows_written += 1;
        let removed = if tombstone { old.clone() } else { None };
        let prior_exists = old.is_some();
        let undo: UndoOp = Box::new(move |tables| {
            let t = tables[table.id().raw() as usize]
                .as_any_mut()
                .downcast_mut::<TypedTable<K, V>>()
                .expect("table handle type mismatch");
            match old {
                Some(old) => t.insert(key, old),
                None => t.remove(&key),
            };
        });
        inner.txns.get_mut(&txn).expect("live").writes.push(RowWrite {
            table: table.id(),
            shard: shard_of(inner.shards.len(), lk.key.as_slice()) as u32,
            key: lk.key,
            row_bytes,
            tombstone,
            prior_exists,
            undo,
        });
        Ok(removed)
    }

    /// Commits `txn`: charges write + commit service on the written shards,
    /// then discards the write log and releases all locks.
    ///
    /// Read-only transactions release their locks with no capacity charge.
    pub fn commit<F>(&self, sim: &mut Sim, txn: TxnId, cont: F)
    where
        F: FnOnce(&mut Sim, StoreResult<()>) + 'static,
    {
        // Plan the charge from the write log; the log stays in place until
        // `finish`, so a lost commit can still be compensated and rolled
        // back.
        let (plan, sync_at, granted) = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let now = sim.now();
            let mut granted = Vec::new();
            let mut sync_at = None;
            let plan = inner.live(txn).and_then(|()| {
                let mut plan = inner.plan_pool.pop().unwrap_or_default();
                for w in &inner.txns[&txn].writes {
                    plan_note(&mut inner.shard_rows, &mut plan, w.shard as usize);
                }
                plan_seal(&mut inner.shard_rows, &mut plan);
                // A written shard the coordinator cannot reach fails the
                // commit, and the write log rolls the transaction back.
                if let Err(e) = inner.fail_if_down(now, txn, &plan, &mut granted) {
                    inner.recycle_plan(plan);
                    return Err(e);
                }
                // WAL-ordered commit: the redo records go to the log now;
                // they become durable at the group-commit boundary returned
                // here.
                let state = inner.txns.get_mut(&txn).expect("live");
                state.committing = true;
                sync_at =
                    inner.durable.as_mut().and_then(|d| d.begin_commit(now, txn, &state.writes));
                Ok(plan)
            });
            (plan, sync_at, granted)
        };
        self.dispatch_grants(sim, granted);
        let plan = match plan {
            Err(e) => {
                sim.schedule(SimDuration::ZERO, move |sim| cont(sim, Err(e)));
                return;
            }
            Ok(plan) => plan,
        };
        let db = self.clone();
        let finish = move |sim: &mut Sim| {
            let (granted, lost) = {
                let mut inner = db.inner.borrow_mut();
                let lost = inner.durable.as_mut().and_then(|d| d.finish_commit(txn));
                if lost.is_some() {
                    // A crash lost this commit's WAL records while the
                    // capacity charge was in flight; the crash path already
                    // rolled the transaction back through its write log, so
                    // only the error delivery is left.
                    inner.stats.unavailable_errors += 1;
                } else if let Some(state) = inner.txns.remove(&txn) {
                    // Write log dropped with the state: the writes are
                    // durable.
                    inner.stats.commits += 1;
                    inner.retire(state);
                }
                (inner.locks.release_all(txn), lost)
            };
            db.dispatch_grants(sim, granted);
            match lost {
                Some(shard) => cont(sim, Err(StoreError::ShardUnavailable { shard })),
                None => cont(sim, Ok(())),
            }
        };
        if plan.is_empty() {
            self.recycle_plan(plan);
            finish(sim);
            return;
        }
        // Charge each written shard; commit overhead lands on the
        // transaction-coordinator shard (chosen per transaction so the
        // coordination load spreads evenly across data nodes, as NDB's
        // round-robin transaction coordinators do). Under the durable
        // backend the commit additionally waits for its group-commit sync
        // leg, so completion implies the redo records are durable.
        let coordinator = plan[(txn.raw() % plan.len() as u64) as usize].0;
        let join = Join::new(plan.len() + usize::from(sync_at.is_some()), finish);
        let parts = plan.iter().map(|&(shard, rows)| (shard, u64::from(rows)));
        let service = |sim: &mut Sim, p: &StoreParams, shard, rows| {
            let mut service = sim.rng().sample_duration(&p.row_write) * rows;
            if shard == coordinator {
                service += sim.rng().sample_duration(&p.commit);
            }
            service
        };
        self.charge(sim, parts, service, &join);
        self.recycle_plan(plan);
        if let Some(at) = sync_at {
            let db = self.clone();
            sim.schedule_at(at, move |sim| {
                db.inner
                    .borrow_mut()
                    .durable
                    .as_mut()
                    .expect("only a durable store syncs")
                    .sync_boundary();
                join.arrive(sim);
            });
        }
    }
}
