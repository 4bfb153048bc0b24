//! INodes and DataNode descriptors — the row types of the persistent
//! metadata store.
//!
//! The [`Inode`] row is deliberately compact (32 bytes, down from 104 with
//! an owned `String` name, a `Vec` block list and permission, owner, group
//! and size fields): the store and every NameNode's cache keep rows
//! resident and clone them on every read, so at the 10M-inode scale of
//! `fig08d_million_scale` each row byte is ~10MB of resident memory and
//! each per-clone allocation is measurable wall-clock. A field enters the
//! row with the operation that reads it. No operation reads data blocks,
//! permissions, ownership or sizes, so the row carries none; the bytes the
//! simulated WAL logs per row are the schema's modeled size, not this
//! layout (see `MetadataSchema::install`).
//!
//! The store holds 24 bytes per row: the inode table is id-addressed, so
//! its slots keep a [`StoredInode`], every field but the id that the
//! slot's position gives, and rebuild the `Inode` on each read
//! ([`IdRow`]).

use lambda_store::IdRow;

use crate::path::InodeName;

/// Identifier of an inode. The root directory is always
/// [`ROOT_INODE_ID`].
pub type InodeId = u64;

/// The well-known id of `/`.
pub const ROOT_INODE_ID: InodeId = 1;

/// Whether an inode is a file or a directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InodeKind {
    /// A regular file with data blocks.
    File,
    /// A directory containing named children.
    Directory,
}

/// File-system metadata for one file or directory.
///
/// The fields of the HopsFS `INode` row that an operation here reads:
/// identity, tree position, kind, and the modification time a parent's
/// rewrite on create, delete and `mv` sets. (HopsFS keeps block locations
/// in tables of their own.)
#[derive(Debug, Clone, PartialEq)]
pub struct Inode {
    /// This inode's id.
    pub id: InodeId,
    /// Parent directory id (the root is its own parent).
    pub parent: InodeId,
    /// Name within the parent directory (`""` for the root), as a 4-byte
    /// interned symbol.
    pub name: InodeName,
    /// File or directory.
    pub kind: InodeKind,
    /// Modification time, nanoseconds of simulated time.
    pub mtime_nanos: u64,
}

impl Inode {
    /// Builds a directory inode.
    #[must_use]
    pub fn directory(id: InodeId, parent: InodeId, name: impl Into<InodeName>) -> Self {
        Inode {
            id,
            parent,
            name: name.into(),
            kind: InodeKind::Directory,
            mtime_nanos: 0,
        }
    }

    /// Builds a file inode.
    #[must_use]
    pub fn file(id: InodeId, parent: InodeId, name: impl Into<InodeName>) -> Self {
        Inode {
            id,
            parent,
            name: name.into(),
            kind: InodeKind::File,
            mtime_nanos: 0,
        }
    }

    /// The root inode.
    #[must_use]
    pub fn root() -> Self {
        Inode::directory(ROOT_INODE_ID, ROOT_INODE_ID, "")
    }

    /// Whether this inode is a directory.
    #[must_use]
    pub fn is_dir(&self) -> bool {
        self.kind == InodeKind::Directory
    }
}

/// An [`Inode`] as the id-addressed inode table's slot holds it: every
/// field but the id, which is the slot's position. 24 bytes, and an empty
/// slot costs no more (the kind byte's niche holds the `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredInode {
    parent: InodeId,
    name: InodeName,
    kind: InodeKind,
    mtime_nanos: u64,
}

impl IdRow for Inode {
    type Stored = StoredInode;

    /// Drops the id, unless the row names another one than its slot's.
    fn store(self, id: u64) -> Result<StoredInode, Inode> {
        if self.id != id {
            return Err(self);
        }
        let Inode { id: _, parent, name, kind, mtime_nanos } = self;
        Ok(StoredInode { parent, name, kind, mtime_nanos })
    }

    fn load(id: u64, s: &StoredInode) -> Inode {
        Inode { id, parent: s.parent, name: s.name, kind: s.kind, mtime_nanos: s.mtime_nanos }
    }
}

/// Identifier of a DataNode.
pub type DataNodeId = u64;

/// Liveness and capacity record a DataNode publishes to the metadata store
/// (λFS re-implements block reports and DataNode discovery by publishing to
/// the persistent store on an interval — paper §1/§3).
#[derive(Debug, Clone, PartialEq)]
pub struct DataNodeInfo {
    /// This DataNode's id.
    pub id: DataNodeId,
    /// Last heartbeat, nanoseconds of simulated time.
    pub last_heartbeat_nanos: u64,
    /// Total capacity in bytes.
    pub capacity: u64,
    /// Bytes in use.
    pub used: u64,
    /// Number of blocks reported in the last block report.
    pub reported_blocks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_sane_defaults() {
        let d = Inode::directory(5, 1, "data");
        assert!(d.is_dir());
        assert_eq!(d.mtime_nanos, 0);
        let f = Inode::file(6, 5, "x.bin");
        assert!(!f.is_dir());
        assert_eq!(f.mtime_nanos, 0);
    }

    #[test]
    fn root_is_its_own_parent() {
        let r = Inode::root();
        assert_eq!(r.id, ROOT_INODE_ID);
        assert_eq!(r.parent, ROOT_INODE_ID);
        assert!(r.is_dir());
        assert_eq!(r.name, "");
    }

    #[test]
    fn inode_row_stays_compact() {
        // The point of the interned name and the absent block list,
        // permissions, ownership and size: the row is 32 bytes, and 24 in
        // the store. A change that grows it shows up here, not as a silent
        // regression in the fig08d memory sweep.
        assert_eq!(std::mem::size_of::<Inode>(), 32);
        assert_eq!(std::mem::size_of::<InodeName>(), 4);
        // The inode table stores `Option<StoredInode>` slots by id: the
        // slot's position is the id, so the row drops it, and a niche keeps
        // the tag out of the row, so a hole costs one row and no tag word.
        assert_eq!(std::mem::size_of::<StoredInode>(), 24);
        assert_eq!(std::mem::size_of::<Option<StoredInode>>(), 24);
    }

    #[test]
    fn stored_inode_round_trips_and_refuses_another_id() {
        let mut f = Inode::file(6, 5, "x.bin");
        f.mtime_nanos = 77;
        let stored = f.clone().store(6).unwrap();
        assert_eq!(Inode::load(6, &stored), f);
        assert_eq!(f.clone().store(7), Err(f));
    }

    #[test]
    fn inode_names_compare_like_strings() {
        let a = InodeName::new("alpha");
        let b = InodeName::new("beta");
        assert!(a < b);
        assert_eq!(a, InodeName::new("alpha"));
        assert_eq!(a.as_str(), "alpha");
        assert_eq!(a, "alpha");
        assert_eq!("alpha", a);
        assert!(!a.is_empty());
        assert!(InodeName::new("").is_empty());
    }
}
