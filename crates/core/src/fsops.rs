//! The metadata-operation engine.
//!
//! [`OpEngine`] executes the seven DFS metadata operations against the
//! persistent store, optionally through a local [`MetadataCache`]
//! (λFS / HopsFS+Cache) and optionally guarded by a cache-coherence hook
//! (§3.5). The same engine drives:
//!
//! * λFS serverless NameNodes — cache + Coordinator-based coherence;
//! * HopsFS stateless NameNodes — no cache, no coherence (every operation
//!   hits the store, the behavior whose cost Figs. 8/11/12 expose);
//! * HopsFS+Cache — cache + fixed-membership coherence;
//! * the InfiniCache-style baseline — cache + coherence, but only ever
//!   invoked per-operation over HTTP.
//!
//! ## Locking discipline (deadlock-free by construction + timeout net)
//!
//! 1. Path resolution takes **shared** locks on the existing chain, in one
//!    sorted batch, and releases them at the end of the read: one
//!    [`Db::read`] (the single-batch resolution that HopsFS's INode-hint
//!    cache enables). `ls` checks its directory the same way.
//! 2. A write's resolved chain then passes the subtree-lock guard
//!    (`OpEngine::check_subtree_locks`): one **unlocked** batch read of
//!    the flag rows keyed by the chain's ids, skipped while no subtree
//!    operation holds a flag anywhere. The read is read-committed, so a
//!    flag taken between it and the write's own locks goes unseen by the
//!    guard (DESIGN.md §4.1).
//! 3. Write operations then take **exclusive** locks on their write set in
//!    one sorted batch (never upgrading a held shared lock — resolution
//!    and write-set locking use separate transactions), re-validate under
//!    the locks, run the coherence hook, apply, and commit. One skeleton,
//!    [`OpEngine::write`], runs these steps for every exclusive-lock write
//!    — the single-inode operations here and the subtree protocol's flag
//!    and root steps — so each write supplies only its data.
//! 4. Any residual cross-operation ordering violation is caught by the
//!    store's lock-wait timeout and surfaces as a retryable error, which
//!    the client library resubmits — exactly HopsFS's deadlock-victim
//!    behavior.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_namespace::{
    DfsPath, FsError, FsOp, Inode, InodeId, MetadataCache, MetadataSchema, OpOutcome, OpResult,
};
use lambda_sim::params::CpuParams;
use lambda_sim::{Sim, SimDuration, SimTime, Station, StationRef};
use lambda_store::{Db, LockKey, NameKey, StoreResult, TxnId};

/// Completion callback for one operation.
pub type OpDone = Box<dyn FnOnce(&mut Sim, OpResult)>;

/// A write's whole cache effect: what every cache the write reaches —
/// its peers' before it commits, the writer's own after — drops or
/// patches, plus the paths that determine which deployments must be told
/// (§3.5: `D` is the set of deployments caching at least one piece of
/// affected metadata).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InvalidationSet {
    /// Inodes whose cached copies — and, for a directory, its cached
    /// listing — must be dropped.
    pub inodes: Vec<InodeId>,
    /// In-place listing deltas `(dir, child name, present-after-write)` —
    /// an INV that names the changed child lets caches patch their
    /// listing instead of dropping it. Names are interned `&'static str`,
    /// so building the set copies no string; the round shares one set
    /// among all its recipients.
    pub listing_updates: Vec<(InodeId, &'static str, bool)>,
    /// Subtree prefix invalidation (Appendix D), if any.
    pub prefix: Option<DfsPath>,
    /// Paths whose owning deployments must receive the INV.
    pub paths: Vec<DfsPath>,
}

impl InvalidationSet {
    /// Whether there is nothing to invalidate.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inodes.is_empty() && self.listing_updates.is_empty() && self.prefix.is_none()
    }

    /// A delete's set: `target`'s inode, its name leaving its parent's
    /// listing and, for a directory, everything cached at or under `path`
    /// (Appendix D's prefix, which reaches every deployment: a directory
    /// is cached as an ancestor wherever its descendants are).
    pub(crate) fn delete(target: &Inode, path: DfsPath) -> Self {
        InvalidationSet {
            inodes: vec![target.id],
            listing_updates: vec![(target.parent, target.name.as_str(), false)],
            prefix: target.is_dir().then(|| path.clone()),
            paths: vec![path.parent().expect("non-root"), path],
        }
    }

    /// A move's set: `target`'s inode, its name leaving the source
    /// parent's listing and joining `dst_parent`'s and, for a directory,
    /// everything cached at or under `src`.
    pub(crate) fn mv(target: &Inode, src: DfsPath, dst: DfsPath, dst_parent: InodeId) -> Self {
        InvalidationSet {
            inodes: vec![target.id],
            listing_updates: vec![
                (target.parent, target.name.as_str(), false),
                (dst_parent, dst.file_name().expect("non-root"), true),
            ],
            prefix: target.is_dir().then(|| src.clone()),
            paths: vec![src.parent().expect("non-root"), dst.parent().expect("non-root"), src, dst],
        }
    }

    /// Applies the set to one cache, in the order every cache uses:
    /// inodes, listing deltas, then the prefix.
    pub fn apply(&self, cache: &mut MetadataCache) {
        for &id in &self.inodes {
            cache.invalidate_inode(id);
        }
        for &(dir, name, present) in &self.listing_updates {
            cache.update_listing(dir, name, present);
        }
        if let Some(prefix) = &self.prefix {
            cache.invalidate_prefix(prefix);
        }
    }
}

/// Continuation fired when an invalidation round ends: `Ok` once every
/// required ACK arrived, `Err` (transient) when they never can, because the
/// writer's own coordinator session ended and the ACKs address its closed
/// inbox. The write then aborts and releases its locks.
pub type RoundDone = Box<dyn FnOnce(&mut Sim, Result<(), FsError>)>;

/// The coherence protocol entry point a write calls **after** taking its
/// exclusive store locks and **before** persisting anything (§3.5,
/// Algorithm 1). `done` fires once the round ends (see [`RoundDone`]). The
/// round reaches every cache but the writer's, which applies the same set
/// once the write commits.
pub trait CoherenceHook {
    /// Runs one invalidation round.
    fn invalidate(&self, sim: &mut Sim, inv: Rc<InvalidationSet>, done: RoundDone);
}

/// Subtree-operation settings (Appendix D). Every executor splits its
/// work into batches of the same size (`SUBTREE_BATCH_SIZE`, 512).
#[derive(Clone)]
pub struct SubtreeSettings {
    /// Concurrent in-flight batches.
    pub parallelism: usize,
    /// Tag identifying this executor as a subtree-lock holder (λFS uses
    /// the NameNode's coordinator-session id).
    pub holder_tag: u64,
    /// Liveness oracle for subtree-lock holders: stale locks left by
    /// crashed NameNodes are reclaimed (paper §3.6). `None` = assume
    /// alive.
    pub holder_alive: Option<Rc<dyn Fn(u64) -> bool>>,
}

impl Default for SubtreeSettings {
    fn default() -> Self {
        SubtreeSettings {
            parallelism: 8,
            holder_tag: 0,
            holder_alive: None,
        }
    }
}

impl std::fmt::Debug for SubtreeSettings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubtreeSettings")
            .field("parallelism", &self.parallelism)
            .finish()
    }
}

/// The shared metadata-operation engine. Cloning is cheap; clones share
/// the cache and stats.
#[derive(Clone)]
pub struct OpEngine {
    /// The persistent metadata store.
    pub db: Db,
    /// Table handles.
    pub schema: MetadataSchema,
    /// The CPU this engine runs on (a NameNode instance's station).
    pub cpu: StationRef,
    /// CPU service-time model.
    pub cpu_params: CpuParams,
    /// The local metadata cache, if this service has one.
    pub cache: Option<Rc<RefCell<MetadataCache>>>,
    /// The coherence hook, if this service caches and shares metadata.
    pub coherence: Option<Rc<dyn CoherenceHook>>,
    /// Subtree-operation settings.
    pub subtree: SubtreeSettings,
}

impl std::fmt::Debug for OpEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpEngine")
            .field("cached", &self.cache.is_some())
            .field("coherent", &self.coherence.is_some())
            .finish()
    }
}

/// Outcome of path resolution: the inode chain root→target.
type ChainResult = Result<Vec<Inode>, FsError>;

impl OpEngine {
    /// Builds an engine without cache or coherence (a stateless HopsFS
    /// NameNode).
    #[must_use]
    pub fn stateless(db: Db, schema: MetadataSchema, cpu: StationRef, cpu_params: CpuParams) -> Self {
        OpEngine {
            db,
            schema,
            cpu,
            cpu_params,
            cache: None,
            coherence: None,
            subtree: SubtreeSettings::default(),
        }
    }

    /// Executes `op`, charging NameNode CPU, store capacity, and (for
    /// writes) the coherence protocol. `allow_cache` is false when a
    /// foreign deployment serves the request under anti-thrashing
    /// (Appendix C) — it must not cache metadata it does not own. It gates
    /// fills only: a write's invalidations reach this cache regardless.
    pub fn execute(&self, sim: &mut Sim, op: FsOp, allow_cache: bool, done: OpDone) {
        let overhead = sim.rng().sample_duration(&self.cpu_params.op_overhead);
        let this = self.clone();
        Station::submit(&self.cpu, sim, overhead, move |sim| {
            match op {
                FsOp::ReadFile(path) | FsOp::Stat(path) => {
                    this.execute_read(sim, path, allow_cache, done);
                }
                FsOp::Ls(path) => this.execute_ls(sim, path, allow_cache, done),
                FsOp::CreateFile(path) => this.execute_add(sim, path, false, allow_cache, done),
                FsOp::Mkdir(path) => this.execute_add(sim, path, true, allow_cache, done),
                FsOp::Delete(path) => this.execute_delete(sim, path, allow_cache, done),
                FsOp::Mv(src, dst) => this.execute_mv(sim, src, dst, allow_cache, done),
            }
        });
    }

    // ------------------------------------------------------------------
    // Resolution
    // ------------------------------------------------------------------

    /// Resolves `path` to its inode chain.
    ///
    /// Cache hit: zero store round trips (§3.3). Miss: one shared-locked
    /// batch read of the hinted chain (the INode-hint-cache single-batch
    /// resolution), after which the chain is cached (when permitted).
    pub fn resolve_chain<F>(&self, sim: &mut Sim, path: DfsPath, allow_cache: bool, done: F)
    where
        F: FnOnce(&mut Sim, ChainResult) + 'static,
    {
        let hit = self.cache.as_ref().and_then(|cache| cache.borrow_mut().lookup(&path));
        match hit {
            Some(chain) => self.serve_hit(sim, move |sim| done(sim, Ok(chain))),
            None => self.resolve_miss(sim, path, allow_cache, done),
        }
    }

    /// [`OpEngine::resolve_chain`] for the operations that only need the
    /// target inode — the same cache traffic, store traffic and events,
    /// but a hit copies one inode instead of the chain.
    pub fn resolve_target<F>(&self, sim: &mut Sim, path: DfsPath, allow_cache: bool, done: F)
    where
        F: FnOnce(&mut Sim, Result<Inode, FsError>) + 'static,
    {
        let hit = self.cache.as_ref().and_then(|cache| cache.borrow_mut().lookup_target(&path));
        match hit {
            Some(target) => self.serve_hit(sim, move |sim| done(sim, Ok(target))),
            None => self.resolve_miss(sim, path, allow_cache, move |sim, chain| {
                done(sim, chain.map(|mut chain| chain.pop().expect("chain non-empty")));
            }),
        }
    }

    /// Serving from NameNode memory: a small CPU charge, no store
    /// interaction.
    fn serve_hit(&self, sim: &mut Sim, done: impl FnOnce(&mut Sim) + 'static) {
        let hit = sim.rng().sample_duration(&self.cpu_params.read_hit);
        Station::submit(&self.cpu, sim, hit, done);
    }

    fn resolve_miss<F>(&self, sim: &mut Sim, path: DfsPath, allow_cache: bool, done: F)
    where
        F: FnOnce(&mut Sim, ChainResult) + 'static,
    {
        // Miss: hint the ids (client INode-hint-cache model), then fetch
        // and validate the *uncached suffix* of the chain in one
        // shared-locked batch. The cached prefix (the root and hot
        // ancestor directories) is served from memory — a partial fill —
        // which keeps the store shard holding the root row from becoming
        // a hotspot.
        let Some(hinted) = self.schema.peek_chain_ids(&self.db, &path) else {
            done(sim, Err(FsError::NotFound(path.to_string())));
            return;
        };
        let prefix: Vec<Inode> = match (&self.cache, allow_cache) {
            (Some(cache), true) => {
                let prefix = cache.borrow_mut().lookup_prefix(&path);
                // The prefix is only usable if it agrees with the hints
                // (a concurrent mv may have relinked an ancestor).
                let agrees = prefix.iter().zip(hinted.iter()).all(|(c, &h)| c.id == h);
                if agrees {
                    prefix
                } else {
                    Vec::new()
                }
            }
            _ => Vec::new(),
        };
        let mut missing_ids = hinted;
        missing_ids.drain(..prefix.len());
        debug_assert!(!missing_ids.is_empty(), "full hits are handled above");
        let this = self.clone();
        self.db.read(sim, self.schema.inodes, missing_ids, move |sim, rows| {
            let rows = match rows {
                Ok(rows) => rows,
                Err(e) => return done(sim, Err(e.into())),
            };
            let chain = rows.into_iter().collect::<Option<Vec<Inode>>>().map(|suffix| {
                let mut chain = prefix;
                chain.extend(suffix);
                chain
            });
            match chain {
                Some(chain) if chain_matches(&chain, &path) => {
                    this.update_cache(allow_cache, |c| c.insert_chain(&path, &chain));
                    done(sim, Ok(chain));
                }
                // The path changed between hint and lock (concurrent
                // mv/delete): retry with fresh hints.
                _ => done(sim, Err(FsError::Retryable("stale path hint".into()))),
            }
        });
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    fn execute_read(&self, sim: &mut Sim, path: DfsPath, allow_cache: bool, done: OpDone) {
        self.resolve_target(sim, path, allow_cache, move |sim, target| {
            done(sim, target.map(|target| OpOutcome::Meta(Rc::new(target))));
        });
    }

    fn execute_ls(&self, sim: &mut Sim, path: DfsPath, allow_cache: bool, done: OpDone) {
        let this = self.clone();
        self.resolve_target(sim, path, allow_cache, move |sim, target| {
            let target = match target {
                Err(e) => return done(sim, Err(e)),
                Ok(t) => t,
            };
            if !target.is_dir() {
                // `ls` of a file lists the file itself.
                let itself = Rc::new(vec![target.name.as_str()]);
                return done(sim, Ok(OpOutcome::Listing(itself)));
            }
            if allow_cache {
                if let Some(cache) = &this.cache {
                    if let Some(names) = cache.borrow_mut().listing(target.id) {
                        this.serve_hit(sim, move |sim| done(sim, Ok(OpOutcome::Listing(names))));
                        return;
                    }
                }
            }
            // Store path: validate the directory under a short shared
            // lock, release it, then scan read-committed. Holding the
            // lock across the scan would convoy writers behind large
            // listings; HDFS's relaxed (non-POSIX) semantics permit a
            // listing concurrent with inserts (§2: "POSIX semantics are
            // relaxed").
            let this2 = this.clone();
            let dir = target.id;
            this.db.read(sim, this.schema.inodes, vec![dir], move |sim, rows| {
                if rows.is_err() {
                    return done(sim, Err(FsError::Retryable("ls lock timeout".into())));
                }
                let this3 = this2.clone();
                this2.db.scan_with(
                    sim,
                    this2.schema.children,
                    (dir, NameKey::MIN)..(dir + 1, NameKey::MIN),
                    Vec::new,
                    |names: &mut Vec<&'static str>, (_, name), _| names.push(name.as_str()),
                    move |sim, names| {
                        let names = Rc::new(names);
                        this3.update_cache(allow_cache, |c| {
                            c.cache_listing(dir, Rc::clone(&names));
                        });
                        done(sim, Ok(OpOutcome::Listing(names)));
                    },
                );
            });
        });
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// `create file` / `mkdirs`.
    fn execute_add(&self, sim: &mut Sim, path: DfsPath, dir: bool, allow_cache: bool, done: OpDone) {
        let Some(parent_path) = path.parent() else {
            return done(sim, Err(FsError::AlreadyExists("/".into())));
        };
        let name = path.file_name_interned().expect("non-root");
        let this = self.clone();
        self.resolve_for_write(sim, parent_path.clone(), allow_cache, move |sim, chain| {
            let chain = match chain {
                Err(e) => return done(sim, Err(e)),
                Ok(c) => c,
            };
            let parent = chain.last().expect("non-empty").clone();
            if !parent.is_dir() {
                return done(sim, Err(FsError::NotADirectory(parent_path.to_string())));
            }
            let new_id = this.schema.next_id();
            // Exclusive write set: parent row, the (parent, name)
            // children slot, and the new inode row.
            let child_key = (parent.id, name.key());
            let keys = [
                this.db.lock_key(this.schema.inodes, &parent.id),
                this.db.lock_key(this.schema.inodes, &new_id),
                this.db.lock_key(this.schema.children, &child_key),
            ];
            let validate = move |e: &OpEngine| {
                let parent_now = match e.db.peek(e.schema.inodes, &parent.id) {
                    None => return Err(FsError::Retryable("parent vanished".into())),
                    Some(p) if !p.is_dir() => {
                        return Err(FsError::NotADirectory(parent_path.to_string()));
                    }
                    Some(p) => p,
                };
                if e.db.peek(e.schema.children, &child_key).is_some() {
                    return Err(FsError::AlreadyExists(path.to_string()));
                }
                // Structural change: the parent's *listing* gains a
                // name. The parent inode row is rewritten too (mtime),
                // but attribute-only updates deliberately do not
                // invalidate cached ancestors: every create would
                // otherwise invalidate its parent on every caching
                // NameNode, collapsing the hit rates the paper's read
                // latencies demonstrate. Cached mtimes are therefore
                // at-most-briefly stale; namespace *structure* stays
                // strongly consistent.
                let inv = InvalidationSet {
                    listing_updates: vec![(parent.id, name.as_str(), true)],
                    paths: vec![path.clone(), parent_path],
                    ..InvalidationSet::default()
                };
                Ok(((parent_now, path), Some(inv)))
            };
            let apply = move |e: &OpEngine, txn, state: (Inode, DfsPath), now: SimTime| {
                let (mut parent_now, path) = state;
                parent_now.mtime_nanos = now.as_nanos();
                let inode = if dir {
                    Inode::directory(new_id, parent.id, name)
                } else {
                    Inode::file(new_id, parent.id, name)
                };
                e.db.upsert(txn, e.schema.inodes, parent.id, parent_now)?;
                e.db.upsert(txn, e.schema.inodes, new_id, inode.clone())?;
                e.db.upsert(txn, e.schema.children, child_key, new_id)?;
                Ok((inode, path))
            };
            let committed = move |e: &OpEngine, (inode, path): (Inode, DfsPath)| {
                e.update_cache(allow_cache, |cache| {
                    let mut chain = chain;
                    chain.push(inode.clone());
                    cache.insert_chain(&path, &chain);
                });
                OpOutcome::Created(Box::new(inode))
            };
            this.write(sim, keys, validate, apply, committed, done);
        });
    }

    /// `delete file/dir`. Non-empty directories take the subtree path
    /// (Appendix D).
    fn execute_delete(&self, sim: &mut Sim, path: DfsPath, allow_cache: bool, done: OpDone) {
        if path.is_root() {
            return done(sim, Err(FsError::InvalidArgument("cannot delete /".into())));
        }
        let this = self.clone();
        self.resolve_for_write(sim, path.clone(), allow_cache, move |sim, chain| {
            let target = match chain {
                Err(e) => return done(sim, Err(e)),
                Ok(mut c) => c.pop().expect("non-empty"),
            };
            if target.is_dir() && this.has_children(target.id) {
                return this.delete_subtree(sim, path, done);
            }
            this.delete_single(sim, target, path, done);
        });
    }

    /// Deletes one file or empty directory, the one at `path`, under
    /// exclusive locks; a recursive delete's root step is this write too.
    pub(crate) fn delete_single(&self, sim: &mut Sim, target: Inode, path: DfsPath, done: OpDone) {
        let inv = InvalidationSet::delete(&target, path);
        let child_key = (target.parent, target.name.key());
        let keys = [
            self.db.lock_key(self.schema.inodes, &target.parent),
            self.db.lock_key(self.schema.inodes, &target.id),
            self.db.lock_key(self.schema.children, &child_key),
        ];
        let validate = move |e: &OpEngine| {
            // Re-validate: target still present, still leaf.
            let parent_now = e.db.peek(e.schema.inodes, &target.parent);
            let leaf = e.db.peek(e.schema.inodes, &target.id).is_some() && !e.has_children(target.id);
            let Some(parent_now) = parent_now.filter(|_| leaf) else {
                return Err(FsError::Retryable("delete target changed".into()));
            };
            Ok((parent_now, Some(inv)))
        };
        let apply = move |e: &OpEngine, txn, mut parent_now: Inode, now: SimTime| {
            parent_now.mtime_nanos = now.as_nanos();
            e.db.remove(txn, e.schema.children, child_key)?;
            e.db.remove(txn, e.schema.inodes, target.id)?;
            e.db.upsert(txn, e.schema.inodes, target.parent, parent_now)
        };
        self.write(sim, keys, validate, apply, |_, ()| OpOutcome::Deleted(1), done);
    }

    /// `mv file/dir`. Directories take the subtree path.
    fn execute_mv(&self, sim: &mut Sim, src: DfsPath, dst: DfsPath, allow_cache: bool, done: OpDone) {
        if dst.starts_with(&src) {
            return done(sim, Err(FsError::InvalidArgument("mv into its own subtree".into())));
        }
        let this = self.clone();
        self.resolve_for_write(sim, src.clone(), allow_cache, move |sim, chain| {
            let target = match chain {
                Err(e) => return done(sim, Err(e)),
                Ok(mut c) => c.pop().expect("non-empty"),
            };
            if target.is_dir() {
                return this.mv_subtree(sim, src, dst, done);
            }
            let this2 = this.clone();
            this.resolve_dst_parent(sim, dst.parent(), allow_cache, move |sim, dst_parent| {
                match dst_parent {
                    Ok(dst_parent) => this2.mv_single(sim, src, dst, target, dst_parent, done),
                    Err(e) => done(sim, Err(e)),
                }
            });
        });
    }

    /// Resolves `parent_path`, the parent of a move's destination, to the
    /// directory the move lands in (`None`: the destination is `/`).
    pub(crate) fn resolve_dst_parent<F>(
        &self,
        sim: &mut Sim,
        parent_path: Option<DfsPath>,
        allow_cache: bool,
        done: F,
    ) where
        F: FnOnce(&mut Sim, Result<Inode, FsError>) + 'static,
    {
        let Some(parent_path) = parent_path else {
            return done(sim, Err(FsError::AlreadyExists("/".into())));
        };
        self.resolve_target(sim, parent_path.clone(), allow_cache, move |sim, parent| {
            let not_dir = || FsError::NotADirectory(parent_path.to_string());
            done(sim, parent.and_then(|p| if p.is_dir() { Ok(p) } else { Err(not_dir()) }));
        });
    }

    /// Moves the inode at `src` to `dst`, in the resolved `dst_parent`,
    /// under exclusive locks, re-validating the parent there; a recursive
    /// move's root step is this write too.
    pub(crate) fn mv_single(
        &self,
        sim: &mut Sim,
        src: DfsPath,
        dst: DfsPath,
        target: Inode,
        dst_parent: Inode,
        done: OpDone,
    ) {
        let inv = InvalidationSet::mv(&target, src, dst.clone(), dst_parent.id);
        let dst_name = dst.file_name_interned().expect("non-root");
        let src_key = (target.parent, target.name.key());
        let dst_key = (dst_parent.id, dst_name.key());
        // The store takes each key once: a rename within one directory
        // locks its parent row once.
        let keys = [
            self.db.lock_key(self.schema.inodes, &target.parent),
            self.db.lock_key(self.schema.inodes, &target.id),
            self.db.lock_key(self.schema.children, &src_key),
            self.db.lock_key(self.schema.children, &dst_key),
            self.db.lock_key(self.schema.inodes, &dst_parent.id),
        ];
        let validate = move |e: &OpEngine| {
            let still_there = e.db.peek(e.schema.children, &src_key) == Some(target.id);
            let dst_parent_now = e.db.peek(e.schema.inodes, &dst_parent.id);
            if !still_there || dst_parent_now.is_none_or(|p| !p.is_dir()) {
                return Err(FsError::Retryable("mv source/dest changed".into()));
            }
            if e.db.peek(e.schema.children, &dst_key).is_some() {
                return Err(FsError::AlreadyExists(dst.to_string()));
            }
            Ok(((), Some(inv)))
        };
        let apply = move |e: &OpEngine, txn, (), now: SimTime| {
            let mut moved = target;
            moved.parent = dst_parent.id;
            moved.name = dst_name;
            moved.mtime_nanos = now.as_nanos();
            e.db.remove(txn, e.schema.children, src_key)?;
            e.db.upsert(txn, e.schema.children, dst_key, moved.id)?;
            e.db.upsert(txn, e.schema.inodes, moved.id, moved)
        };
        self.write(sim, keys, validate, apply, |_, ()| OpOutcome::Moved(1), done);
    }

    // ------------------------------------------------------------------
    // Shared machinery
    // ------------------------------------------------------------------

    /// The one write transaction: every exclusive-lock write of the engine
    /// runs Alg. 1's order here (§3.5), each supplying only its data.
    ///
    /// 1. Begin and take `keys` exclusively; a lock failure has aborted
    ///    the transaction and answers retryable.
    /// 2. `validate` re-reads under the locks; an error aborts. It returns
    ///    the state `apply` needs and the write's cache effect: `None` has
    ///    none, a set runs [`OpEngine::with_coherence`] for every other
    ///    cache.
    /// 3. `apply` writes the rows; a failed write aborts.
    /// 4. Commit; then the writer's own cache applies the same set,
    ///    whatever `allow_cache` says, and `committed` makes the outcome
    ///    (and fills the cache, where allowed); `done` receives it.
    pub(crate) fn write<S, T, R, V, A, C, D>(
        &self,
        sim: &mut Sim,
        keys: impl IntoIterator<Item = LockKey>,
        validate: V,
        apply: A,
        committed: C,
        done: D,
    ) where
        S: 'static,
        T: 'static,
        V: FnOnce(&OpEngine) -> Result<(S, Option<InvalidationSet>), FsError> + 'static,
        A: FnOnce(&OpEngine, TxnId, S, SimTime) -> StoreResult<T> + 'static,
        C: FnOnce(&OpEngine, T) -> R + 'static,
        D: FnOnce(&mut Sim, Result<R, FsError>) + 'static,
    {
        let this = self.clone();
        self.db.begin_exclusive(sim, keys, move |sim, txn| {
            let txn = match txn {
                Ok(txn) => txn,
                Err(e) => return done(sim, Err(e.into())),
            };
            // A failed validation runs no INV round and aborts at commit.
            let (state, inv) = match validate(&this) {
                Ok((state, inv)) => (Ok(state), inv.map(Rc::new)),
                Err(e) => (Err(e), None),
            };
            let engine = this.clone();
            let own = inv.clone();
            let write = move |sim: &mut Sim, round: Result<(), FsError>| {
                let written = round
                    .and(state)
                    .and_then(|state| apply(&this, txn, state, sim.now()).map_err(FsError::from));
                let db = this.db.clone();
                db.commit_after(sim, txn, written, move |sim, r| {
                    if let (Ok(_), Some(inv)) = (&r, own) {
                        this.update_cache(true, |cache| inv.apply(cache));
                    }
                    done(sim, r.map(|out| committed(&this, out)));
                });
            };
            match inv {
                Some(inv) => engine.with_coherence(sim, inv, write),
                None => write(sim, Ok(())),
            }
        });
    }

    /// Runs `effect` on the local cache, if there is one and `allow` holds.
    pub(crate) fn update_cache(&self, allow: bool, effect: impl FnOnce(&mut MetadataCache)) {
        if let (true, Some(cache)) = (allow, &self.cache) {
            effect(&mut cache.borrow_mut());
        }
    }

    /// Whether directory `dir` has at least one child row (a free peek).
    fn has_children(&self, dir: InodeId) -> bool {
        let children = (dir, NameKey::MIN)..(dir + 1, NameKey::MIN);
        self.db.peek_count_range(self.schema.children, children) > 0
    }

    /// Runs the coherence hook if configured, else proceeds immediately.
    pub(crate) fn with_coherence<F>(&self, sim: &mut Sim, inv: Rc<InvalidationSet>, done: F)
    where
        F: FnOnce(&mut Sim, Result<(), FsError>) + 'static,
    {
        match &self.coherence {
            Some(hook) if !inv.is_empty() => hook.invalidate(sim, inv, Box::new(done)),
            _ => sim.schedule(SimDuration::ZERO, move |sim| done(sim, Ok(()))),
        }
    }

    /// [`OpEngine::resolve_chain`] for a write, whose resolved chain must
    /// then pass [`OpEngine::check_subtree_locks`].
    fn resolve_for_write<F>(&self, sim: &mut Sim, path: DfsPath, allow_cache: bool, done: F)
    where
        F: FnOnce(&mut Sim, ChainResult) + 'static,
    {
        let this = self.clone();
        self.resolve_chain(sim, path, allow_cache, move |sim, chain| match chain {
            Ok(chain) => this.check_subtree_locks(sim, chain, done),
            Err(e) => done(sim, Err(e)),
        });
    }

    /// The write guard of the subtree protocol (Appendix D): refuses a
    /// write whose resolved `chain` runs through a flagged subtree root,
    /// and passes the chain on otherwise. It reads the flag rows keyed by
    /// the chain's ids in one read-committed batch, the root's excepted
    /// (`/` is never flagged: a move or delete of it is refused); any row
    /// found answers [`FsError::SubtreeLocked`] with its subtree's path. A
    /// NameNode keeps no copy of the flags, so the read is charged to the
    /// store; only an empty table (no subtree operation anywhere) makes the
    /// check free.
    fn check_subtree_locks<F>(&self, sim: &mut Sim, chain: Vec<Inode>, done: F)
    where
        F: FnOnce(&mut Sim, ChainResult) + 'static,
    {
        if chain.len() < 2 || self.db.table_len(self.schema.subtree_locks) == 0 {
            done(sim, Ok(chain));
            return;
        }
        let ids = chain[1..].iter().map(|inode| inode.id).collect();
        self.db.read_committed(sim, self.schema.subtree_locks, ids, move |sim, flags| {
            match flags.into_iter().flatten().next() {
                Some(flag) => done(sim, Err(FsError::SubtreeLocked(flag.path.to_string()))),
                None => done(sim, Ok(chain)),
            }
        });
    }
}

/// Whether a fetched chain matches the path's names and parent links.
fn chain_matches(chain: &[Inode], path: &DfsPath) -> bool {
    if chain.len() != path.depth() + 1 {
        return false;
    }
    let mut prev_id = chain[0].id;
    if chain[0].id != lambda_namespace::ROOT_INODE_ID {
        return false;
    }
    for (inode, comp) in chain[1..].iter().zip(path.components()) {
        if inode.name != comp || inode.parent != prev_id {
            return false;
        }
        prev_id = inode.id;
    }
    // Every non-terminal component must be a directory.
    chain[..chain.len() - 1].iter().all(Inode::is_dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_matching_validates_names_parents_and_kinds() {
        let path: DfsPath = "/a/b".parse().unwrap();
        let good = vec![
            Inode::root(),
            Inode::directory(2, 1, "a"),
            Inode::file(3, 2, "b"),
        ];
        assert!(chain_matches(&good, &path));
        // Wrong name.
        let mut bad = good.clone();
        bad[2].name = "x".into();
        assert!(!chain_matches(&bad, &path));
        // Broken parent link.
        let mut bad = good.clone();
        bad[2].parent = 9;
        assert!(!chain_matches(&bad, &path));
        // Non-terminal file.
        let mut bad = good.clone();
        bad[1] = Inode::file(2, 1, "a");
        assert!(!chain_matches(&bad, &path));
        // Wrong length.
        assert!(!chain_matches(&good[..2], &path));
    }

    #[test]
    fn invalidation_set_emptiness() {
        assert!(InvalidationSet::default().is_empty());
        let inv = InvalidationSet { inodes: vec![1], ..Default::default() };
        assert!(!inv.is_empty());
        let inv = InvalidationSet {
            prefix: Some("/x".parse().unwrap()),
            ..Default::default()
        };
        assert!(!inv.is_empty());
    }

    #[test]
    fn a_directorys_delete_and_mv_sets_carry_its_prefix_and_a_files_do_not() {
        // A directory is cached as an ancestor by whichever deployments
        // cache its descendants, so its writes must reach them all.
        let p = |s: &str| -> DfsPath { s.parse().unwrap() };
        let dir = Inode::directory(5, 2, "m");
        let file = Inode::file(6, 2, "m");
        for (target, prefix) in [(&dir, Some(p("/p/m"))), (&file, None)] {
            let inv = InvalidationSet::delete(target, p("/p/m"));
            assert_eq!(inv.inodes, [target.id]);
            assert_eq!(inv.listing_updates, [(2, "m", false)]);
            assert_eq!(inv.prefix, prefix);
            let inv = InvalidationSet::mv(target, p("/p/m"), p("/q/x"), 3);
            assert_eq!(inv.inodes, [target.id]);
            assert_eq!(inv.listing_updates, [(2, "m", false), (3, "x", true)]);
            assert_eq!(inv.prefix, prefix);
        }
    }
}
