//! The metadata store schema shared by λFS and the HopsFS-family
//! baselines, plus bulk-loading helpers.
//!
//! Tables (mirroring HopsFS's NDB schema at the granularity the
//! reproduction needs):
//!
//! * `inodes`: inode id → [`Inode`], addressed by id
//!   ([`Db::create_id_table`]: ids come from [`MetadataSchema::next_id`]);
//! * `children`: `(parent id, name)` → child inode id (the lookup index
//!   used for path resolution and `ls` range scans);
//! * `datanodes`: DataNode id → [`DataNodeInfo`] (heartbeats/reports);
//! * `subtree_locks`: subtree-root inode id → [`SubtreeLockRow`] (the
//!   application-level subtree locking protocol of Appendix D). Keyed by
//!   id so that a write's guard reads only the rows of its own chain; the
//!   subtree operations compare the rows' paths with each other.
//!
//! Each table declares the bytes the durable backend's WAL logs per row
//! (`*_ROW_BYTES`), so a row type's layout never moves a simulated byte.

use std::cell::Cell;
use std::rc::Rc;

use lambda_store::{Db, NameKey, TableHandle};

use crate::inode::{DataNodeId, DataNodeInfo, Inode, InodeId, ROOT_INODE_ID};
use crate::layout::TreeLayout;
use crate::path::{DfsPath, InodeName};

/// Bytes the WAL logs per inode row: the 64-byte HopsFS row the durable
/// backend was calibrated with, a block-list reference, permissions,
/// owner, group and size included. The host holds only the fields an
/// operation reads: [`Inode`] is 32 bytes, and the id-addressed table's
/// slot 24 ([`StoredInode`](crate::StoredInode)).
const INODE_ROW_BYTES: u32 = 64;
/// Bytes the WAL logs per `datanodes` row: five 8-byte counters.
const DATANODE_ROW_BYTES: u32 = 40;
/// Bytes the WAL logs per `subtree_locks` row: two words, two `&str`s.
const SUBTREE_LOCK_ROW_BYTES: u32 = 48;

/// The subtree-lock flag persisted on a subtree root (Appendix D, Phase 1).
///
/// Both strings are `&'static str`: the path borrows the interner arena
/// ([`DfsPath::as_str`] strings live forever) and the op description is a
/// literal, so the row is `Copy`-cheap and holds no heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubtreeLockRow {
    /// Which NameNode (coordinator session raw id) holds the lock.
    pub holder: u64,
    /// When the lock was taken, nanoseconds of simulated time.
    pub acquired_nanos: u64,
    /// The locked subtree's root path (used for overlap checks: two
    /// subtree operations may not run on overlapping trees).
    pub path: &'static str,
    /// The operation description (for diagnostics).
    pub op: &'static str,
}

impl SubtreeLockRow {
    /// Whether the locked subtree and `path` overlap: one contains the
    /// other. Subtree isolation uses this test; the write guard needs none,
    /// as it reads only the flags keyed by its own chain's ids.
    #[must_use]
    pub fn overlaps(&self, path: &DfsPath) -> bool {
        self.path
            .parse::<DfsPath>()
            .is_ok_and(|locked| path.starts_with(&locked) || locked.starts_with(path))
    }
}

/// Typed handles to every table, plus the inode-id allocator.
#[derive(Debug, Clone)]
pub struct MetadataSchema {
    /// inode id → inode.
    pub inodes: TableHandle<InodeId, Inode>,
    /// (parent id, child name) → child inode id. The name suffix is a
    /// [`NameKey`] — the name's first eight bytes plus a `Copy` pointer to
    /// its entry in the component interner arena — with an encoding
    /// byte-identical to the `(u64, String)` key it replaced, so shard
    /// routing and lock ordering are unchanged.
    pub children: TableHandle<(InodeId, NameKey), InodeId>,
    /// DataNode id → liveness/capacity record.
    pub datanodes: TableHandle<DataNodeId, DataNodeInfo>,
    /// subtree-root inode id → subtree lock flag.
    pub subtree_locks: TableHandle<InodeId, SubtreeLockRow>,
    next_id: Rc<Cell<u64>>,
}

impl MetadataSchema {
    /// Creates the tables in `db`, each with its modeled WAL row size,
    /// and installs the root inode.
    #[must_use]
    pub fn install(db: &Db) -> Self {
        let schema = MetadataSchema {
            inodes: db.create_id_table("inodes", INODE_ROW_BYTES),
            children: db.create_table("children"),
            datanodes: db.create_sized_table("datanodes", DATANODE_ROW_BYTES),
            subtree_locks: db.create_sized_table("subtree_locks", SUBTREE_LOCK_ROW_BYTES),
            next_id: Rc::new(Cell::new(ROOT_INODE_ID + 1)),
        };
        db.bootstrap_insert(schema.inodes, ROOT_INODE_ID, Inode::root());
        schema
    }

    /// Allocates a fresh inode id. (NDB serves this from an atomic
    /// sequence; the allocation itself is not a charged row operation.)
    #[must_use]
    pub fn next_id(&self) -> InodeId {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// Resolves `path` against the committed state **without** locks or
    /// capacity charges.
    ///
    /// This is (a) the model of the client-side "INode Hint Cache" — the
    /// ids a client predicts so the server can validate them in a single
    /// batched query — and (b) the test oracle. Returns the inode chain
    /// from the root to the target inclusive, or `None` if any component
    /// is missing.
    #[must_use]
    pub fn peek_chain(&self, db: &Db, path: &DfsPath) -> Option<Vec<Inode>> {
        self.peek_chain_ids(db, path)?.into_iter().map(|id| db.peek(self.inodes, &id)).collect()
    }

    /// The id chain for `path` (root inclusive) against the committed
    /// state — the same hints as [`MetadataSchema::peek_chain`] without
    /// materializing inode rows: one children-table probe per component,
    /// no inode-table touches. Committed state is transactionally
    /// consistent (children and inode rows change together), so a
    /// resolving id chain implies the rows exist; callers that need the
    /// rows re-read them under locks anyway, which is why hinting fetches
    /// them only to drop them.
    #[must_use]
    pub fn peek_chain_ids(&self, db: &Db, path: &DfsPath) -> Option<Vec<InodeId>> {
        // Components are interned symbols, so each probe key is a table
        // read away — no text, no hashing.
        let comps = path.comp_syms();
        let mut ids = Vec::with_capacity(comps.len() + 1);
        ids.push(ROOT_INODE_ID);
        let mut parent = ROOT_INODE_ID;
        for comp in comps {
            parent = db.peek(self.children, &(parent, comp.key()))?;
            ids.push(parent);
        }
        Some(ids)
    }

    /// Bulk-loads a directory at `path` (parents must exist), returning
    /// its id. Pre-run loading only; see [`Db::bootstrap_insert`].
    ///
    /// # Panics
    ///
    /// Panics if the parent chain does not resolve or the name is taken.
    pub fn bootstrap_mkdir(&self, db: &Db, path: &DfsPath) -> InodeId {
        self.bootstrap_add(db, path, true)
    }

    /// Bulk-loads a file at `path` (parents must exist), returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the parent chain does not resolve or the name is taken.
    pub fn bootstrap_create(&self, db: &Db, path: &DfsPath) -> InodeId {
        self.bootstrap_add(db, path, false)
    }

    fn bootstrap_add(&self, db: &Db, path: &DfsPath, dir: bool) -> InodeId {
        let parent_path = path.parent().expect("cannot create the root");
        let parent = self
            .peek_chain(db, &parent_path)
            .unwrap_or_else(|| panic!("bootstrap parent missing: {parent_path}"))
            .pop()
            .expect("chain non-empty");
        assert!(parent.is_dir(), "bootstrap parent is a file: {parent_path}");
        // The path interned its components already; the inode row and the
        // children key both reuse that symbol.
        let name = path.file_name_interned().expect("non-root");
        assert!(
            db.peek(self.children, &(parent.id, name.key())).is_none(),
            "bootstrap name collision: {path}"
        );
        let id = self.next_id();
        let inode = if dir {
            Inode::directory(id, parent.id, name)
        } else {
            Inode::file(id, parent.id, name)
        };
        db.bootstrap_insert(self.inodes, id, inode);
        db.bootstrap_insert(self.children, (parent.id, name.key()), id);
        id
    }

    /// Bulk-loads a fresh balanced tree under `root`: `dirs` directories
    /// each holding `files_per_dir` files, named by [`TreeLayout`].
    /// Creates `root` (whose parent must exist) if it is missing. Returns
    /// the directory paths, [`TreeLayout::dir_paths`] of `root`.
    ///
    /// This is the "existing directory tree" every micro-benchmark
    /// targets (§5.3: "all operations target random files and directories
    /// across an existing directory tree"). It is loaded once, before the
    /// workload starts.
    ///
    /// The tree is *streamed*: inode ids are laid out arithmetically (each
    /// directory's id followed by its files', the order per-entry
    /// allocation would produce) and both tables are built through
    /// [`Db::bootstrap_bulk_load`]'s dense bulk build, with no per-entry
    /// path resolution or B-tree insert.
    ///
    /// # Panics
    ///
    /// Panics if `root` does not resolve to a directory once created, or if
    /// one of the tree's directory names is already taken under it (the
    /// bulk load's key-collision check).
    pub fn bootstrap_tree(
        &self,
        db: &Db,
        root: &DfsPath,
        dirs: usize,
        files_per_dir: usize,
    ) -> Vec<DfsPath> {
        if !root.is_root() && self.peek_chain(db, root).is_none() {
            self.bootstrap_mkdir(db, root);
        }
        if dirs == 0 {
            return Vec::new();
        }
        let root_inode = self
            .peek_chain(db, root)
            .unwrap_or_else(|| panic!("bootstrap parent missing: {root}"))
            .pop()
            .expect("chain non-empty");
        assert!(root_inode.is_dir(), "bootstrap parent is a file: {root}");

        let layout = TreeLayout { dirs, files_per_dir };
        // The children-index key rides along, built once per name (not once
        // per row that carries it).
        let keyed = |names: Vec<InodeName>| -> Vec<(InodeName, NameKey)> {
            names.into_iter().map(|name| (name, name.key())).collect()
        };
        let dir_names = keyed(layout.dir_names());
        self.stream_tree(db, root_inode.id, &dir_names, &keyed(layout.file_names()));
        dir_names.iter().map(|&(name, _)| root.join_interned(name)).collect()
    }

    /// Streams a fresh `dirs × files_per_dir` tree into the store through
    /// the dense bulk build.
    ///
    /// Ids are allocated arithmetically in exactly the order per-entry
    /// loading would produce (each directory's id, then its files'), so
    /// the tables — and every later allocation — are those of
    /// [`MetadataSchema::bootstrap_mkdir`] and
    /// [`MetadataSchema::bootstrap_create`] called entry by entry. Each name
    /// comes with its children-index key.
    fn stream_tree(
        &self,
        db: &Db,
        root_id: InodeId,
        dir_names: &[(InodeName, NameKey)],
        file_names: &[(InodeName, NameKey)],
    ) {
        let base = self.next_id.get();
        assert!(root_id < base, "tree root must predate the ids of its children");
        let stride = file_names.len() as u64 + 1;
        let dir_id = |d: usize| base + d as u64 * stride;
        self.next_id.set(base + dir_names.len() as u64 * stride);

        // The inodes stream ascends by construction: ids are handed out in
        // generation order.
        let inode_rows = dir_names.iter().enumerate().flat_map(|(d, &(dname, _))| {
            let did = dir_id(d);
            std::iter::once((did, Inode::directory(did, root_id, dname))).chain(
                file_names.iter().enumerate().map(move |(f, &(fname, _))| {
                    let fid = did + 1 + f as u64;
                    (fid, Inode::file(fid, did, fname))
                }),
            )
        });
        db.bootstrap_bulk_load(self.inodes, inode_rows);

        // The children stream must ascend by (parent id, name). Generation
        // order is not name order once numbered names grow a digit
        // ("dir100000" < "dir99999"), so each name block goes through a
        // sorted index; the root block (all keyed by `root_id`) precedes
        // every per-directory block (keyed by the strictly larger fresh
        // directory ids), which ascend in generation order.
        let mut dir_order: Vec<u32> = (0..dir_names.len() as u32).collect();
        dir_order.sort_unstable_by_key(|&d| dir_names[d as usize].1);
        let mut file_order: Vec<u32> = (0..file_names.len() as u32).collect();
        file_order.sort_unstable_by_key(|&f| file_names[f as usize].1);
        let root_block =
            dir_order.iter().map(|&d| ((root_id, dir_names[d as usize].1), dir_id(d as usize)));
        let file_blocks = (0..dir_names.len()).flat_map(|d| {
            let did = dir_id(d);
            file_order
                .iter()
                .map(move |&f| ((did, file_names[f as usize].1), did + 1 + u64::from(f)))
        });
        // `flat_map` erases the stream length; it is known arithmetically,
        // and an exact hint lets the B+ tree's bulk build reserve its
        // arenas in one allocation (single huge-page-advised fault-in
        // instead of doubling reallocs — see BpTree::from_ascending).
        let rows = dir_names.len() * (file_names.len() + 1);
        db.bootstrap_bulk_load(
            self.children,
            KnownLen { inner: root_block.chain(file_blocks), remaining: rows },
        );
    }

    /// Total number of inodes currently stored.
    #[must_use]
    pub fn inode_count(&self, db: &Db) -> usize {
        db.table_len(self.inodes)
    }

    /// Verifies namespace well-formedness against the committed state:
    /// every inode's parent exists, is a directory, and indexes the inode
    /// under its name; every children row points at a live inode; ids are
    /// unique. Returns a list of violations (empty = consistent).
    ///
    /// Used by the integration tests after crash-injection runs (paper
    /// §3.6: "failures cannot leave the namespace in an inconsistent
    /// state").
    #[must_use]
    pub fn check_consistency(&self, db: &Db) -> Vec<String> {
        let mut problems = Vec::new();
        // Both tables are walked in ascending key order without a copy;
        // every cross reference is a point get (one load for an inode, a
        // tree descent for a children row).
        db.peek_range_with(self.inodes, .., |&id, inode| {
            if id != inode.id {
                problems.push(format!("inode {} stored under key {}", inode.id, id));
            }
            if id == ROOT_INODE_ID {
                return;
            }
            match db.peek(self.inodes, &inode.parent) {
                None => problems.push(format!("inode {} has dangling parent {}", id, inode.parent)),
                Some(parent) => {
                    if !parent.is_dir() {
                        problems.push(format!("inode {} parent {} is a file", id, parent.id));
                    }
                }
            }
            if db.peek(self.children, &(inode.parent, inode.name.key())) != Some(id) {
                problems.push(format!("inode {id} missing from children index"));
            }
        });
        db.peek_range_with(self.children, .., |(pid, name), cid| {
            if db.peek(self.inodes, cid).is_none() {
                problems.push(format!("children row ({pid},{name}) -> dangling inode {cid}"));
            }
        });
        problems
    }
}

/// Iterator adapter pinning an exact `size_hint` onto a stream whose
/// length is known arithmetically but erased by `flat_map`/`chain`
/// (their lower bounds are 0); the bulk build reserves arenas off the
/// hint, so losing it means doubling reallocs over a gigabyte-scale
/// buffer.
struct KnownLen<I> {
    inner: I,
    remaining: usize,
}

impl<I: Iterator> Iterator for KnownLen<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.inner.next();
        if item.is_some() {
            self.remaining = self.remaining.saturating_sub(1);
        }
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_sim::params::StoreParams;
    use lambda_sim::SimDuration;

    fn db_and_schema() -> (Db, MetadataSchema) {
        let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
        let schema = MetadataSchema::install(&db);
        (db, schema)
    }

    fn p(s: &str) -> DfsPath {
        s.parse().unwrap()
    }

    #[test]
    fn subtree_lock_rows_overlap_their_ancestors_and_descendants_only() {
        let row = SubtreeLockRow { holder: 1, acquired_nanos: 0, path: "/p/a", op: "mv" };
        for path in ["/", "/p", "/p/a", "/p/a/x/y"] {
            assert!(row.overlaps(&p(path)), "{path}");
        }
        for path in ["/p/b", "/p/ab", "/q/a"] {
            assert!(!row.overlaps(&p(path)), "{path}");
        }
    }

    #[test]
    fn install_creates_root() {
        let (db, schema) = db_and_schema();
        let chain = schema.peek_chain(&db, &DfsPath::root()).unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].id, ROOT_INODE_ID);
        assert!(schema.check_consistency(&db).is_empty());
    }

    #[test]
    fn bootstrap_builds_resolvable_paths() {
        let (db, schema) = db_and_schema();
        schema.bootstrap_mkdir(&db, &p("/a"));
        schema.bootstrap_mkdir(&db, &p("/a/b"));
        let f = schema.bootstrap_create(&db, &p("/a/b/c.txt"));
        let chain = schema.peek_chain(&db, &p("/a/b/c.txt")).unwrap();
        assert_eq!(chain.len(), 4);
        assert_eq!(chain[3].id, f);
        assert!(!chain[3].is_dir());
        assert!(schema.peek_chain(&db, &p("/a/x")).is_none());
        assert!(schema.check_consistency(&db).is_empty());
    }

    #[test]
    fn bootstrap_tree_creates_expected_shape() {
        let (db, schema) = db_and_schema();
        let dirs = schema.bootstrap_tree(&db, &p("/bench"), 4, 8);
        assert_eq!(dirs.len(), 4);
        // 1 root + 1 bench + 4 dirs + 32 files.
        assert_eq!(schema.inode_count(&db), 38);
        assert!(schema.check_consistency(&db).is_empty());
    }

    /// The one layout: the paths [`TreeLayout`] names are exactly the
    /// directories `bootstrap_tree` returns and the entries the store
    /// resolves, ids in load order.
    #[test]
    fn the_layout_names_exactly_the_loaded_tree() {
        let (db, schema) = db_and_schema();
        let root = p("/bench");
        let layout = TreeLayout { dirs: 3, files_per_dir: 2 };
        let dirs = schema.bootstrap_tree(&db, &root, layout.dirs, layout.files_per_dir);
        assert_eq!(dirs, layout.dir_paths(&root));
        assert_eq!(dirs[2], p("/bench/dir00002"));
        let files = layout.file_paths(&dirs);
        assert_eq!(files.len(), 6);
        assert_eq!(files[3], p("/bench/dir00001/file00001"));
        assert_eq!(dirs[0].join_interned(TreeLayout::file_name(1)), files[1]);
        let mut ids = Vec::new();
        for (d, dir) in dirs.iter().enumerate() {
            let chain = schema.peek_chain(&db, dir).expect("directory loaded");
            assert!(chain.last().unwrap().is_dir());
            ids.push(chain.last().unwrap().id);
            for file in &files[d * layout.files_per_dir..][..layout.files_per_dir] {
                let chain = schema.peek_chain(&db, file).expect("file loaded");
                assert!(!chain.last().unwrap().is_dir());
                ids.push(chain.last().unwrap().id);
            }
        }
        let root_id = schema.peek_chain(&db, &root).unwrap().pop().unwrap().id;
        assert_eq!(ids, (root_id + 1..=root_id + 9).collect::<Vec<_>>());
        // Nothing else was loaded: root, /bench and the 9 entries.
        assert_eq!(schema.inode_count(&db), 11);
    }

    #[test]
    #[should_panic(expected = "key collision")]
    fn a_tree_is_loaded_once() {
        let (db, schema) = db_and_schema();
        schema.bootstrap_tree(&db, &p("/bench"), 4, 2);
        schema.bootstrap_tree(&db, &p("/bench"), 4, 2);
    }

    #[test]
    #[should_panic(expected = "name collision")]
    fn bootstrap_rejects_duplicates() {
        let (db, schema) = db_and_schema();
        schema.bootstrap_mkdir(&db, &p("/a"));
        schema.bootstrap_mkdir(&db, &p("/a"));
    }

    #[test]
    fn ids_are_monotonic_and_unique() {
        let (_db, schema) = db_and_schema();
        let a = schema.next_id();
        let b = schema.next_id();
        assert!(b > a);
    }

    #[test]
    fn consistency_checker_names_every_kind_of_corruption() {
        let (db, schema) = db_and_schema();
        let a = schema.bootstrap_mkdir(&db, &p("/a"));
        let f = schema.bootstrap_create(&db, &p("/a/f"));
        assert!(schema.check_consistency(&db).is_empty());
        // An orphan stored under a key that is not its id; a child hanging
        // off a file, indexed; a children row pointing nowhere.
        db.bootstrap_insert(schema.inodes, 999, Inode::file(998, 12345, "orphan"));
        db.bootstrap_insert(schema.inodes, 1000, Inode::file(1000, f, "under-file"));
        db.bootstrap_insert(schema.children, (f, InodeName::new("under-file").key()), 1000);
        db.bootstrap_insert(schema.children, (a, InodeName::new("ghost").key()), 4242);
        assert_eq!(
            schema.check_consistency(&db),
            [
                "inode 998 stored under key 999".to_string(),
                "inode 999 has dangling parent 12345".to_string(),
                "inode 999 missing from children index".to_string(),
                format!("inode 1000 parent {f} is a file"),
                format!("children row ({a},ghost) -> dangling inode 4242"),
            ]
        );
    }

    /// The simulated WAL logs the schema's modeled inode row, 64 bytes,
    /// whatever `size_of::<Inode>()` is: bootstrap rows, a transactional
    /// upsert and a remove (a tombstone: key only) all count against it.
    #[test]
    fn wal_logs_the_modeled_inode_row_not_the_host_layout() {
        use lambda_sim::Sim;
        use lambda_store::{DurabilityConfig, LockMode};
        const N: u64 = 100;
        // Table id (4 bytes) + big-endian inode id (8 bytes).
        const KEY_BYTES: u64 = 12;
        let mut sim = Sim::new(3);
        let db = Db::new_durable(
            &StoreParams::default(),
            SimDuration::from_secs(5),
            DurabilityConfig::default(),
        );
        let schema = MetadataSchema::install(&db);
        for id in 2..=N {
            db.bootstrap_insert(schema.inodes, id, Inode::file(id, ROOT_INODE_ID, "f"));
        }
        let txn = db.begin();
        let keys = [db.lock_key(schema.inodes, &2), db.lock_key(schema.inodes, &3)];
        let (db2, inodes) = (db.clone(), schema.inodes);
        db.lock(&mut sim, txn, keys, LockMode::Exclusive, move |sim, locked| {
            locked.unwrap();
            let mut grown = db2.peek(inodes, &2).unwrap();
            grown.mtime_nanos = 4096;
            db2.upsert(txn, inodes, 2, grown).unwrap();
            db2.remove(txn, inodes, 3).unwrap().unwrap();
            db2.commit(sim, txn, |_sim, committed| committed.unwrap());
        });
        sim.run();
        assert_eq!(db.durability_stats().unwrap().wal_appends, N + 2);
        let ingested = db.lsm_stats().unwrap().bytes_ingested;
        let value_bytes = ingested - (N + 2) * KEY_BYTES;
        assert_eq!(value_bytes, N * 64 + 64, "N bootstrap rows plus one upsert and a tombstone");
    }

    #[test]
    fn consistency_check_of_200k_inodes_is_not_quadratic() {
        let (db, schema) = db_and_schema();
        schema.bootstrap_tree(&db, &DfsPath::root(), 4_000, 49);
        assert_eq!(schema.inode_count(&db), 200_001);
        let started = std::time::Instant::now();
        let problems = schema.check_consistency(&db);
        let took = started.elapsed();
        assert!(problems.is_empty(), "{problems:?}");
        assert!(took.as_secs_f64() < 2.0, "audit of 200k inodes took {took:?}");
    }
}
