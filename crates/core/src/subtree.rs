//! Subtree operations (recursive `delete` and `mv`) — the three-phase
//! HopsFS protocol augmented with λFS's subtree coherence and serverless
//! offloading (paper §3.5 "subtree coherence protocol" and Appendix D).
//!
//! Phases:
//!
//! 1. **Lock**: persist a subtree-lock flag on the subtree root after
//!    checking that no overlapping subtree operation is active (subtree
//!    isolation). Stale flags left by crashed holders are reclaimed using
//!    the Coordinator's liveness oracle.
//! 2. **Quiesce + collect**: walk the subtree through the children index,
//!    building the in-memory item list, then take-and-release write locks
//!    on every INode in batches (charged against the store — this is what
//!    makes Table 3's latency scale with directory size). Batches run with
//!    bounded parallelism and are offloaded to helper NameNodes when an
//!    [`Offloader`](crate::fsops::Offloader) is available.
//! 3. **Execute**: a single **prefix invalidation** replaces per-INode
//!    coherence rounds; then the actual mutation runs — for `mv`, one
//!    transaction relinking the subtree root; for `delete`, leaf-first
//!    batched row removals (so a crash mid-way never orphans an inode).
//!
//! Cleanup removes the subtree-lock flag even on failure paths.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use lambda_namespace::{DfsPath, FsError, InodeId, OpOutcome, SubtreeLockRow};
use lambda_sim::{Sim, SimDuration};
use lambda_store::{LockMode, NameKey};

use crate::fsops::{InvalidationSet, OpDone, OpEngine};
use crate::messages::{SubtreeBatch, SubtreeBatchKind, SubtreeItem};

/// Continuation fired when a batch (or batch set) completes.
type BatchDone = Box<dyn FnOnce(&mut Sim)>;
/// Continuation receiving the collected subtree items.
type CollectDone = Box<dyn FnOnce(&mut Sim, Vec<SubtreeItem>)>;

/// Executes subtree operations on top of an [`OpEngine`].
#[derive(Clone)]
pub struct SubtreeExecutor {
    engine: OpEngine,
}

impl SubtreeExecutor {
    /// Wraps an engine.
    #[must_use]
    pub fn new(engine: OpEngine) -> Self {
        SubtreeExecutor { engine }
    }

    /// Recursive delete of the directory at `path`.
    pub fn delete(&self, sim: &mut Sim, path: DfsPath, done: OpDone) {
        let this = self.clone();
        self.with_subtree_lock(sim, path.clone(), "delete", move |sim, root_id, finish| {
            let this2 = this.clone();
            let path2 = path.clone();
            this.collect_subtree(sim, root_id, move |sim, mut items| {
                // Leaf-first: reverse the BFS (parents-before-children)
                // order so partial execution keeps the tree well-formed.
                items.reverse();
                let count = items.len() as u64;
                let quiesce = make_batches(&items, this2.engine.subtree.batch_size, SubtreeBatchKind::Quiesce);
                let this3 = this2.clone();
                let path3 = path2.clone();
                this2.run_batches(sim, quiesce, move |sim| {
                    // Subtree coherence: one prefix INV for the whole tree
                    // (instead of thousands of per-INode rounds).
                    let parent_path = path3.parent().expect("subtree root is not /");
                    let inv = InvalidationSet {
                        inodes: vec![root_id],
                        listings: vec![root_id],
                        listing_updates: Vec::new(),
                        prefix: Some(path3.clone()),
                        paths: vec![path3.clone(), parent_path],
                    };
                    let this4 = this3.clone();
                    let path4 = path3.clone();
                    this3.engine.with_coherence(sim, inv, move |sim| {
                        let deletes = make_batches(
                            &items,
                            this4.engine.subtree.batch_size,
                            SubtreeBatchKind::DeleteRows,
                        );
                        let this5 = this4.clone();
                        this4.run_batches(sim, deletes, move |sim| {
                            // Finally remove the (now empty) root itself,
                            // without a second coherence round.
                            let mut engine = this5.engine.clone();
                            engine.coherence = None;
                            let root_now = engine.db.peek(engine.schema.inodes, &root_id);
                            match root_now {
                                None => finish(
                                    sim,
                                    Err(FsError::Retryable("subtree root vanished".into())),
                                ),
                                Some(root) => {
                                    engine.delete_root_for_subtree(
                                        sim,
                                        path4.clone(),
                                        root,
                                        Box::new(move |sim, r| match r {
                                            Ok(_) => {
                                                finish(sim, Ok(OpOutcome::Deleted(count + 1)));
                                            }
                                            Err(e) => finish(sim, Err(e)),
                                        }),
                                    );
                                }
                            }
                        });
                    });
                });
            });
        }, done);
    }

    /// Recursive move of the directory at `src` to `dst`.
    pub fn mv(&self, sim: &mut Sim, src: DfsPath, dst: DfsPath, done: OpDone) {
        let this = self.clone();
        let dst2 = dst.clone();
        self.with_subtree_lock(sim, src.clone(), "mv", move |sim, root_id, finish| {
            let this2 = this.clone();
            let src2 = src.clone();
            let dst3 = dst2.clone();
            this.collect_subtree(sim, root_id, move |sim, items| {
                let count = items.len() as u64;
                let quiesce =
                    make_batches(&items, this2.engine.subtree.batch_size, SubtreeBatchKind::Quiesce);
                let this3 = this2.clone();
                this2.run_batches(sim, quiesce, move |sim| {
                    let src_parent = src2.parent().expect("subtree root is not /");
                    let dst_parent = dst3.parent().unwrap_or_else(DfsPath::root);
                    let inv = InvalidationSet {
                        inodes: vec![root_id],
                        listings: vec![root_id],
                        listing_updates: Vec::new(),
                        prefix: Some(src2.clone()),
                        paths: vec![src2.clone(), dst3.clone(), src_parent, dst_parent],
                    };
                    let this4 = this3.clone();
                    let (src3, dst4) = (src2.clone(), dst3.clone());
                    this3.engine.with_coherence(sim, inv, move |sim| {
                        // The actual relink is a single small transaction:
                        // descendants key off the root's id and need no
                        // rewriting.
                        let mut engine = this4.engine.clone();
                        engine.coherence = None;
                        let root_now = engine.db.peek(engine.schema.inodes, &root_id);
                        match root_now {
                            None => finish(
                                sim,
                                Err(FsError::Retryable("subtree root vanished".into())),
                            ),
                            Some(root) => engine.mv_single(
                                sim,
                                src3,
                                dst4,
                                root,
                                false,
                                Box::new(move |sim, r| match r {
                                    Ok(_) => finish(sim, Ok(OpOutcome::Moved(count + 1))),
                                    Err(e) => finish(sim, Err(e)),
                                }),
                            ),
                        }
                    });
                });
            });
        }, done);
    }

    // ------------------------------------------------------------------
    // Phase 1: the subtree lock
    // ------------------------------------------------------------------

    /// Resolves the subtree root, takes the persistent subtree-lock flag,
    /// runs `body`, and guarantees the flag is released before `done`
    /// fires. `body` receives a `finish` continuation it must call exactly
    /// once.
    fn with_subtree_lock<B>(
        &self,
        sim: &mut Sim,
        path: DfsPath,
        op_name: &'static str,
        body: B,
        done: OpDone,
    ) where
        B: FnOnce(&mut Sim, InodeId, OpDone) + 'static,
    {
        let this = self.clone();
        self.engine.resolve_chain(sim, path.clone(), false, move |sim, chain| {
            let chain = match chain {
                Err(e) => return done(sim, Err(e)),
                Ok(c) => c,
            };
            let root = chain.last().expect("non-empty").clone();
            if !root.is_dir() {
                return done(sim, Err(FsError::NotADirectory(path.to_string())));
            }
            let engine = this.engine.clone();
            let txn = engine.db.begin();
            let lock_key = engine.db.lock_key(engine.schema.subtree_locks, &root.id);
            let this2 = this.clone();
            let path2 = path.clone();
            engine.db.lock(sim, txn, [lock_key], LockMode::Exclusive, move |sim, res| {
                if res.is_err() {
                    this2.engine.db.abort(sim, txn);
                    return done(sim, Err(FsError::Retryable("subtree lock wait".into())));
                }
                // Subtree isolation: no overlapping active subtree op.
                let mut overlap = None;
                this2.engine.db.peek_range_with(
                    this2.engine.schema.subtree_locks,
                    ..,
                    |locked_root, row| {
                        if overlap.is_none()
                            && row
                                .path
                                .parse::<DfsPath>()
                                .map(|p| p.starts_with(&path2) || path2.starts_with(&p))
                                .unwrap_or(false)
                        {
                            overlap = Some((*locked_root, *row));
                        }
                    },
                );
                if let Some((locked_root, row)) = overlap {
                    let holder_alive = this2
                        .engine
                        .subtree
                        .holder_alive
                        .as_ref()
                        .is_none_or(|alive| alive(row.holder));
                    if holder_alive {
                        this2.engine.db.abort(sim, txn);
                        return done(sim, Err(FsError::SubtreeLocked(row.path.to_string())));
                    }
                    // Stale flag from a crashed NameNode: reclaim it
                    // (paper §3.6 — the Coordinator detects crashes,
                    // "enabling the easy removal of locks held by crashed
                    // NameNodes").
                    let _ = this2.engine.db.remove(txn, this2.engine.schema.subtree_locks, locked_root);
                }
                let row = SubtreeLockRow {
                    holder: this2.engine.subtree.holder_tag,
                    acquired_nanos: sim.now().as_nanos(),
                    path: path2.as_str(),
                    op: op_name,
                };
                if this2.engine.db.upsert(txn, this2.engine.schema.subtree_locks, root.id, row).is_err() {
                    this2.engine.db.abort(sim, txn);
                    return done(sim, Err(FsError::Retryable("subtree flag write".into())));
                }
                let this3 = this2.clone();
                this2.engine.db.commit(sim, txn, move |sim, r| {
                    if r.is_err() {
                        return done(sim, Err(FsError::Retryable("subtree flag commit".into())));
                    }
                    // Wrap `done` so the flag is always released first.
                    let this4 = this3.clone();
                    let finish: OpDone = Box::new(move |sim, result| {
                        this4.release_subtree_lock(sim, root.id, move |sim: &mut Sim| {
                            done(sim, result);
                        });
                    });
                    body(sim, root.id, finish);
                });
            });
        });
    }

    fn release_subtree_lock<F>(&self, sim: &mut Sim, root_id: InodeId, done: F)
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        let engine = self.engine.clone();
        let txn = engine.db.begin();
        let key = engine.db.lock_key(engine.schema.subtree_locks, &root_id);
        let engine2 = engine.clone();
        engine.db.lock(sim, txn, [key], LockMode::Exclusive, move |sim, res| {
            if res.is_err() {
                engine2.db.abort(sim, txn);
                return done(sim);
            }
            let _ = engine2.db.remove(txn, engine2.schema.subtree_locks, root_id);
            engine2.db.commit(sim, txn, move |sim, _r| done(sim));
        });
    }

    // ------------------------------------------------------------------
    // Phase 2: collection and quiesce
    // ------------------------------------------------------------------

    /// Walks the subtree (excluding the root) through charged children
    /// scans, BFS order. Directories are expanded breadth-first.
    fn collect_subtree<F>(&self, sim: &mut Sim, root: InodeId, done: F)
    where
        F: FnOnce(&mut Sim, Vec<SubtreeItem>) + 'static,
    {
        let mut queue = VecDeque::new();
        queue.push_back(root);
        self.collect_step(sim, queue, Vec::new(), Box::new(done));
    }

    fn collect_step(
        &self,
        sim: &mut Sim,
        mut queue: VecDeque<InodeId>,
        acc: Vec<SubtreeItem>,
        done: CollectDone,
    ) {
        let Some(dir) = queue.pop_front() else {
            if std::env::var_os("LFS_SUBTREE_TRACE").is_some() {
                eprintln!("[subtree] t={} collected {} items", sim.now(), acc.len());
            }
            return done(sim, acc);
        };
        let this = self.clone();
        let walker = self.clone();
        self.engine.db.scan_with(
            sim,
            self.engine.schema.children,
            (dir, NameKey::MIN)..(dir + 1, NameKey::MIN),
            move || (queue, acc),
            move |(queue, acc), &(parent, name), &id| {
                let is_dir = walker
                    .engine
                    .db
                    .peek(walker.engine.schema.inodes, &id)
                    .is_some_and(|i| i.is_dir());
                if is_dir {
                    queue.push_back(id);
                }
                acc.push(SubtreeItem { id, parent, name });
            },
            move |sim, (queue, acc)| {
                this.collect_step(sim, queue, acc, done);
            },
        );
    }

    /// Runs batches with the configured parallelism, offloading when
    /// possible; `done` fires when all complete.
    fn run_batches<F>(&self, sim: &mut Sim, batches: Vec<SubtreeBatch>, done: F)
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        if batches.is_empty() {
            sim.schedule(SimDuration::ZERO, done);
            return;
        }
        struct Pool {
            queue: VecDeque<SubtreeBatch>,
            in_flight: usize,
            done: Option<BatchDone>,
        }
        let pool = Rc::new(RefCell::new(Pool {
            queue: batches.into(),
            in_flight: 0,
            done: Some(Box::new(done)),
        }));
        let parallelism = self.engine.subtree.parallelism.max(1);
        enum Next {
            Run(SubtreeBatch),
            Done(BatchDone),
            Wait,
        }
        fn pump(this: &SubtreeExecutor, sim: &mut Sim, pool: &Rc<RefCell<Pool>>, parallelism: usize) {
            loop {
                let next = {
                    let mut p = pool.borrow_mut();
                    if p.in_flight >= parallelism {
                        Next::Wait
                    } else if let Some(batch) = p.queue.pop_front() {
                        p.in_flight += 1;
                        Next::Run(batch)
                    } else if p.in_flight == 0 {
                        match p.done.take() {
                            Some(d) => Next::Done(d),
                            None => Next::Wait,
                        }
                    } else {
                        Next::Wait
                    }
                };
                match next {
                    Next::Wait => return,
                    Next::Done(d) => {
                        d(sim);
                        return;
                    }
                    Next::Run(batch) => {
                        let this2 = this.clone();
                        let pool2 = Rc::clone(pool);
                        this.run_one_batch(
                            sim,
                            batch,
                            Box::new(move |sim| {
                                pool2.borrow_mut().in_flight -= 1;
                                pump(&this2, sim, &pool2, parallelism);
                            }),
                        );
                    }
                }
            }
        }
        if std::env::var_os("LFS_SUBTREE_TRACE").is_some() {
            eprintln!(
                "[subtree] t={} run_batches: {} batches, parallelism {}",
                sim.now(),
                pool.borrow().queue.len(),
                parallelism
            );
        }
        pump(self, sim, &pool, parallelism);
    }

    /// Executes one batch: offloaded if a helper accepts it, locally
    /// otherwise.
    pub(crate) fn run_one_batch(
        &self,
        sim: &mut Sim,
        batch: SubtreeBatch,
        done: Box<dyn FnOnce(&mut Sim)>,
    ) {
        if let Some(offloader) = self.engine.subtree.offloader.clone() {
            let this = self.clone();
            let local_copy = batch.clone();
            // Guard against a helper dying mid-batch: if the offload never
            // completes, re-run locally (batches are idempotent).
            let fired = Rc::new(std::cell::Cell::new(false));
            let fired2 = Rc::clone(&fired);
            let done = Rc::new(RefCell::new(Some(done)));
            let done2 = Rc::clone(&done);
            let wrapped: Box<dyn FnOnce(&mut Sim)> = Box::new(move |sim| {
                fired2.set(true);
                if let Some(d) = done2.borrow_mut().take() {
                    d(sim);
                }
            });
            if offloader.offload(sim, batch, wrapped) {
                let this2 = this.clone();
                sim.schedule(SimDuration::from_secs(10), move |sim| {
                    if !fired.get() {
                        if let Some(d) = done.borrow_mut().take() {
                            this2.run_batch_local(sim, local_copy, d);
                        }
                    }
                });
                return;
            }
            // Offload refused: run locally with the original callback.
            let d = done.borrow_mut().take().expect("unused");
            self.run_batch_local(sim, local_copy, d);
            return;
        }
        self.run_batch_local(sim, batch, done);
    }

    /// Executes one batch against the local engine's store handle.
    pub(crate) fn run_batch_local(
        &self,
        sim: &mut Sim,
        batch: SubtreeBatch,
        done: Box<dyn FnOnce(&mut Sim)>,
    ) {
        match batch.kind {
            SubtreeBatchKind::Quiesce => {
                self.engine.db.charge_quiesce(sim, batch.items.len() as u64, done);
            }
            SubtreeBatchKind::DeleteRows => {
                let engine = self.engine.clone();
                let txn = engine.db.begin();
                let mut keys = Vec::with_capacity(batch.items.len() * 2);
                for item in &batch.items {
                    keys.push(engine.db.lock_key(engine.schema.inodes, &item.id));
                    let child_key = (item.parent, item.name);
                    keys.push(engine.db.lock_key(engine.schema.children, &child_key));
                }
                let engine2 = engine.clone();
                engine.db.lock(sim, txn, keys, LockMode::Exclusive, move |sim, res| {
                    if res.is_err() {
                        engine2.db.abort(sim, txn);
                        // Retried by the leader's timeout guard; charge
                        // nothing more here.
                        return done(sim);
                    }
                    for item in &batch.items {
                        let _ = engine2.db.remove(txn, engine2.schema.inodes, item.id);
                        let _ = engine2.db.remove(
                            txn,
                            engine2.schema.children,
                            (item.parent, item.name),
                        );
                    }
                    engine2.db.commit(sim, txn, move |sim, _r| done(sim));
                });
            }
        }
    }
}

impl OpEngine {
    /// Deletes the emptied subtree root (no coherence — the prefix INV
    /// already covered it).
    fn delete_root_for_subtree(&self, sim: &mut Sim, path: DfsPath, root: lambda_namespace::Inode, done: OpDone) {
        // delete_single is private to fsops; replicate the minimal txn
        // here via the same locking discipline.
        let keys = [
            self.db.lock_key(self.schema.inodes, &root.parent),
            self.db.lock_key(self.schema.inodes, &root.id),
            self.db.lock_key(self.schema.children, &(root.parent, root.name.key())),
        ];
        let txn = self.db.begin();
        let this = self.clone();
        self.db.lock(sim, txn, keys, LockMode::Exclusive, move |sim, res| {
            if res.is_err() {
                this.db.abort(sim, txn);
                return done(sim, Err(FsError::Retryable("subtree root delete lock".into())));
            }
            let parent_now = this.db.peek(this.schema.inodes, &root.parent);
            let Some(mut parent_now) = parent_now else {
                this.db.abort(sim, txn);
                return done(sim, Err(FsError::Retryable("subtree parent vanished".into())));
            };
            parent_now.mtime_nanos = sim.now().as_nanos();
            let writes = this
                .db
                .remove(txn, this.schema.children, (root.parent, root.name.key()))
                .map(|_| ())
                .and_then(|()| this.db.remove(txn, this.schema.inodes, root.id).map(|_| ()))
                .and_then(|()| this.db.upsert(txn, this.schema.inodes, root.parent, parent_now));
            if writes.is_err() {
                this.db.abort(sim, txn);
                return done(sim, Err(FsError::Retryable("subtree root delete".into())));
            }
            let this2 = this.clone();
            this.db.commit(sim, txn, move |sim, r| {
                if r.is_err() {
                    return done(sim, Err(FsError::Retryable("subtree root commit".into())));
                }
                if let Some(cache) = &this2.cache {
                    let mut cache = cache.borrow_mut();
                    cache.invalidate_prefix(&path);
                    cache.invalidate_inode(root.parent);
                    cache.invalidate_listing(root.parent);
                }
                done(sim, Ok(OpOutcome::Deleted(1)));
            });
        });
    }
}

/// Splits items into batches of `batch_size` with the given kind.
fn make_batches(items: &[SubtreeItem], batch_size: usize, kind: SubtreeBatchKind) -> Vec<SubtreeBatch> {
    items
        .chunks(batch_size.max(1))
        .map(|chunk| SubtreeBatch { kind: kind.clone(), items: chunk.to_vec() })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_namespace::InodeName;

    #[test]
    fn batching_covers_all_items() {
        let items: Vec<SubtreeItem> = (0..1000)
            .map(|i| SubtreeItem { id: i, parent: 0, name: InodeName::new(&format!("f{i}")).key() })
            .collect();
        let batches = make_batches(&items, 512, SubtreeBatchKind::Quiesce);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].items.len(), 512);
        assert_eq!(batches[1].items.len(), 488);
        let total: usize = batches.iter().map(|b| b.items.len()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn zero_batch_size_is_clamped() {
        let items =
            vec![SubtreeItem { id: 1, parent: 0, name: InodeName::new("x").key() }];
        let batches = make_batches(&items, 0, SubtreeBatchKind::DeleteRows);
        assert_eq!(batches.len(), 1);
    }
}
