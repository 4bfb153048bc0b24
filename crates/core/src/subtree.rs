//! Subtree operations (recursive `delete` and `mv`) — the three-phase
//! HopsFS protocol augmented with λFS's subtree coherence (paper §3.5
//! "subtree coherence protocol" and Appendix D), as a block of
//! [`OpEngine`] methods.
//!
//! Phases:
//!
//! 1. **Lock**: persist a subtree-lock flag on the subtree root after
//!    checking that no overlapping subtree operation is active (subtree
//!    isolation): every overlapping flag counts, a live holder refuses,
//!    and the flags of crashed holders (the Coordinator's liveness oracle
//!    tells) are reclaimed in the same write.
//! 2. **Quiesce + collect**: walk the subtree through the children index,
//!    building the in-memory item list, then take-and-release write locks
//!    on every INode in batches (charged against the store — this is what
//!    makes Table 3's latency scale with directory size). Batches run
//!    `parallelism` at a time: that bound is how the model expresses the
//!    extra concurrency Appendix D gets from helper NameNodes.
//! 3. **Execute**: the root step is the ordinary single-inode write of
//!    `fsops` — for `mv`, one transaction relinking the subtree root; for
//!    `delete`, the emptied root, after leaf-first batched row removals
//!    (so a crash mid-way never orphans an inode). Its set carries the
//!    root's **prefix**, so its one INV round replaces per-INode rounds,
//!    and that round runs after `validate`, under the root step's locks,
//!    as every other write's does.
//!
//! A recursive delete runs one earlier, drop-only prefix round before its
//! row batches, because those commit outside the root step's locks; the
//! writer applies that set itself when the round ends.
//!
//! The flag's acquire and the root step are [`OpEngine::write`]s; the
//! flag's release and the row batches are the store's
//! [`Db::write`](lambda_store::Db::write). Cleanup removes the
//! subtree-lock flag even on failure paths.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use lambda_namespace::{DfsPath, FsError, Inode, InodeId, OpOutcome, SubtreeLockRow};
use lambda_sim::{Sim, SimDuration, SimTime};
use lambda_store::NameKey;

use crate::fsops::{InvalidationSet, OpDone, OpEngine};

/// Sub-operation batch size of every subtree operation, λFS's and
/// HopsFS's alike (Appendix D).
pub(crate) const SUBTREE_BATCH_SIZE: usize = 512;

/// One item of subtree work: an inode plus its `children`-index key.
#[derive(Clone, Copy)]
struct SubtreeItem {
    /// The inode id.
    id: InodeId,
    /// Its parent directory id.
    parent: InodeId,
    /// Its name within the parent, as the `children` index keys it.
    name: NameKey,
}

/// The kind of work in a subtree batch.
#[derive(Clone, Copy)]
enum SubtreeBatchKind {
    /// Phase 2: write-lock and release each inode (quiesce).
    Quiesce,
    /// Phase 3 of a recursive delete: remove the rows.
    DeleteRows,
}

/// A batch of subtree sub-operations.
struct SubtreeBatch {
    /// What to do with the items.
    kind: SubtreeBatchKind,
    /// The items, leaf-first for a delete (so partial execution keeps the
    /// tree well-formed).
    items: Vec<SubtreeItem>,
}

/// Continuation fired when a batch (or batch set) completes.
type BatchDone = Box<dyn FnOnce(&mut Sim)>;
/// Continuation receiving the collected subtree items.
type CollectDone = Box<dyn FnOnce(&mut Sim, Vec<SubtreeItem>)>;

impl OpEngine {
    /// Recursive delete of the directory at `path`.
    pub(crate) fn delete_subtree(&self, sim: &mut Sim, path: DfsPath, done: OpDone) {
        let this = self.clone();
        self.with_subtree_lock(sim, path.clone(), "delete", move |sim, root, finish| {
            let this2 = this.clone();
            let root_id = root.id;
            this.quiesce(sim, root_id, move |sim, mut items| {
                // The row batches commit outside the root step's locks, so
                // every cache drops the subtree before the first of them.
                let drop = Rc::new(InvalidationSet {
                    prefix: Some(path.clone()),
                    ..InvalidationSet::default()
                });
                let this3 = this2.clone();
                this2.with_coherence(sim, Rc::clone(&drop), move |sim, round| {
                    if let Err(e) = round {
                        return finish(sim, Err(e));
                    }
                    this3.update_cache(true, |cache| drop.apply(cache));
                    // Leaf-first: reverse the BFS (parents-before-children)
                    // order so partial execution keeps the tree well-formed.
                    items.reverse();
                    let deleted = OpOutcome::Deleted(items.len() as u64 + 1);
                    let deletes = make_batches(&items, SubtreeBatchKind::DeleteRows);
                    let this4 = this3.clone();
                    this3.run_batches(sim, deletes, move |sim| {
                        // Finally the (now empty) root itself.
                        this4.on_root(sim, root_id, deleted, finish, |sim, root, done| {
                            this4.delete_single(sim, root, path, done);
                        });
                    });
                });
            });
        }, done);
    }

    /// Recursive move of the directory at `src` to `dst`. The destination
    /// parent is resolved and the name checked free once, before the flag,
    /// so a move onto a taken name quiesces nothing; the root step
    /// re-validates both under its locks.
    pub(crate) fn mv_subtree(&self, sim: &mut Sim, src: DfsPath, dst: DfsPath, done: OpDone) {
        let this = self.clone();
        self.resolve_dst_parent(sim, dst.parent(), false, move |sim, dst_parent| {
            let dst_parent = match dst_parent {
                Err(e) => return done(sim, Err(e)),
                Ok(p) => p,
            };
            let dst_name = dst.file_name_interned().expect("non-root");
            if this.db.peek(this.schema.children, &(dst_parent.id, dst_name.key())).is_some() {
                return done(sim, Err(FsError::AlreadyExists(dst.to_string())));
            }
            let this2 = this.clone();
            this.with_subtree_lock(sim, src.clone(), "mv", move |sim, root, finish| {
                let this3 = this2.clone();
                let root_id = root.id;
                this2.quiesce(sim, root_id, move |sim, items| {
                    // The actual relink is a single small transaction:
                    // descendants key off the root's id and need no rewriting.
                    let moved = OpOutcome::Moved(items.len() as u64 + 1);
                    this3.on_root(sim, root_id, moved, finish, |sim, root, done| {
                        this3.mv_single(sim, src, dst, root, dst_parent, done);
                    });
                });
            }, done);
        });
    }

    /// Phase 2: collects the subtree under `root`, then quiesces it in
    /// batches before `then`.
    fn quiesce<F>(&self, sim: &mut Sim, root: InodeId, then: F)
    where
        F: FnOnce(&mut Sim, Vec<SubtreeItem>) + 'static,
    {
        let this = self.clone();
        self.collect_subtree(sim, root, move |sim, items| {
            let quiesce = make_batches(&items, SubtreeBatchKind::Quiesce);
            this.run_batches(sim, quiesce, move |sim| then(sim, items));
        });
    }

    /// Phase 3's last step, on the subtree root as the store holds it now:
    /// `step` runs the single-inode write, and `finish` receives its
    /// success as `outcome` (every inode the operation covered).
    fn on_root<S>(&self, sim: &mut Sim, root: InodeId, outcome: OpOutcome, finish: OpDone, step: S)
    where
        S: FnOnce(&mut Sim, Inode, OpDone),
    {
        let Some(root) = self.db.peek(self.schema.inodes, &root) else {
            return finish(sim, Err(FsError::Retryable("subtree root vanished".into())));
        };
        step(sim, root, Box::new(move |sim, r| finish(sim, r.map(|_| outcome))));
    }

    // ------------------------------------------------------------------
    // Phase 1: the subtree lock
    // ------------------------------------------------------------------

    /// Resolves the subtree root, takes the persistent subtree-lock flag,
    /// runs `body` on the root, and guarantees the flag is released before
    /// `done` fires. `body` receives a `finish` continuation it must call
    /// exactly once.
    ///
    /// Subtree isolation: every flag overlapping `path` counts. One whose
    /// holder is alive answers [`FsError::SubtreeLocked`]; the stale ones
    /// left by crashed holders are locked and reclaimed with the flag's
    /// write (paper §3.6 — the Coordinator detects crashes, "enabling the
    /// easy removal of locks held by crashed NameNodes").
    fn with_subtree_lock<B>(
        &self,
        sim: &mut Sim,
        path: DfsPath,
        op_name: &'static str,
        body: B,
        done: OpDone,
    ) where
        B: FnOnce(&mut Sim, Inode, OpDone) + 'static,
    {
        let this = self.clone();
        self.resolve_chain(sim, path.clone(), false, move |sim, chain| {
            let root = match chain {
                Err(e) => return done(sim, Err(e)),
                Ok(mut chain) => chain.pop().expect("non-empty"),
            };
            if !root.is_dir() {
                return done(sim, Err(FsError::NotADirectory(path.to_string())));
            }
            let table = this.schema.subtree_locks;
            let stale = this.overlapping_flags(&path, false);
            let keys: Vec<_> = std::iter::once(root.id)
                .chain(stale.iter().map(|&(flag, _)| flag))
                .map(|flag| this.db.lock_key(table, &flag))
                .collect();
            let validate = move |e: &OpEngine| match e.overlapping_flags(&path, true).first() {
                Some((_, live)) => Err(FsError::SubtreeLocked(live.path.to_string())),
                None => Ok(((stale, path), None)),
            };
            let apply = move |e: &OpEngine, txn, (stale, path): (Vec<_>, DfsPath), now: SimTime| {
                for (flag, _) in stale {
                    e.db.remove(txn, table, flag)?;
                }
                let row = SubtreeLockRow {
                    holder: e.subtree.holder_tag,
                    acquired_nanos: now.as_nanos(),
                    path: path.as_str(),
                    op: op_name,
                };
                e.db.upsert(txn, table, root.id, row)
            };
            let this2 = this.clone();
            this.write(sim, keys, validate, apply, |_, ()| (), move |sim, r| {
                if let Err(e) = r {
                    return done(sim, Err(e));
                }
                // Wrap `done` so the flag is always released first.
                let finish: OpDone = Box::new(move |sim, result| {
                    let db = this2.db.clone();
                    let release = move |txn, _| db.remove(txn, table, root.id).map(drop);
                    let key = this2.db.lock_key(table, &root.id);
                    this2.db.write(sim, [key], release, move |sim, _| done(sim, result));
                });
                body(sim, root, finish);
            });
        });
    }

    /// The subtree-lock flags overlapping `path` whose holders are alive
    /// (`alive`) or dead, by root id. Without a liveness oracle every
    /// holder is alive.
    fn overlapping_flags(&self, path: &DfsPath, alive: bool) -> Vec<(InodeId, SubtreeLockRow)> {
        let mut flags = Vec::new();
        self.db.peek_range_with(self.schema.subtree_locks, .., |&root, row| {
            if row.overlaps(path)
                && self.subtree.holder_alive.as_ref().is_none_or(|f| f(row.holder)) == alive
            {
                flags.push((root, *row));
            }
        });
        flags
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
            return done(sim, acc);
        };
        let this = self.clone();
        let walker = self.clone();
        self.db.scan_with(
            sim,
            self.schema.children,
            (dir, NameKey::MIN)..(dir + 1, NameKey::MIN),
            move || (queue, acc),
            move |(queue, acc), &(parent, name), &id| {
                let is_dir = walker.db.peek(walker.schema.inodes, &id)
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

    /// Runs batches with the configured parallelism; `done` fires when all
    /// complete.
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
        let parallelism = self.subtree.parallelism.max(1);
        enum Next {
            Run(SubtreeBatch),
            Done(BatchDone),
            Wait,
        }
        fn pump(this: &OpEngine, sim: &mut Sim, pool: &Rc<RefCell<Pool>>, parallelism: usize) {
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
                        this.run_batch(
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
        pump(self, sim, &pool, parallelism);
    }

    /// Executes one batch against this engine's store handle.
    fn run_batch(&self, sim: &mut Sim, batch: SubtreeBatch, done: BatchDone) {
        match batch.kind {
            SubtreeBatchKind::Quiesce => {
                self.db.charge_quiesce(sim, batch.items.len() as u64, done);
            }
            SubtreeBatchKind::DeleteRows => {
                let (inodes, children) = (self.schema.inodes, self.schema.children);
                let mut keys = Vec::with_capacity(batch.items.len() * 2);
                for item in &batch.items {
                    keys.push(self.db.lock_key(inodes, &item.id));
                    keys.push(self.db.lock_key(children, &(item.parent, item.name)));
                }
                let db = self.db.clone();
                let rows = move |txn, _| {
                    for item in &batch.items {
                        db.remove(txn, inodes, item.id)?;
                        db.remove(txn, children, (item.parent, item.name))?;
                    }
                    Ok(())
                };
                // A failed batch charges nothing more here.
                self.db.write(sim, keys, rows, move |sim, _| done(sim));
            }
        }
    }
}

/// Splits items into batches of [`SUBTREE_BATCH_SIZE`] with the given kind.
fn make_batches(items: &[SubtreeItem], kind: SubtreeBatchKind) -> Vec<SubtreeBatch> {
    items
        .chunks(SUBTREE_BATCH_SIZE)
        .map(|chunk| SubtreeBatch { kind, items: chunk.to_vec() })
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
        let batches = make_batches(&items, SubtreeBatchKind::Quiesce);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].items.len(), 512);
        assert_eq!(batches[1].items.len(), 488);
        let total: usize = batches.iter().map(|b| b.items.len()).sum();
        assert_eq!(total, 1000);
    }
}
