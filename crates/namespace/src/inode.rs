//! INodes, blocks, and DataNode descriptors — the row types of the
//! persistent metadata store.
//!
//! The [`Inode`] row is deliberately compact (64 bytes, down from 104 with
//! an owned `String` name and `Vec` block list): the store keeps every row
//! resident and clones rows on every read, so at the 10M-inode scale of
//! `fig08d_million_scale` each row byte is ~10MB of resident memory and
//! each per-clone allocation is measurable wall-clock.

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

/// An inode's ordered data-block ids, inline up to one block.
///
/// Directories and empty files — the overwhelming majority of rows in the
/// simulated namespaces — pay 0 heap bytes; a `Vec<u64>` spent 24 bytes of
/// row plus an allocation per non-empty list. The canonical form is
/// maintained by [`BlockList::push`]: `Many` always holds ≥ 2 blocks, so
/// derived equality agrees with slice equality.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum BlockList {
    /// No blocks (directories, empty files).
    #[default]
    Empty,
    /// Exactly one block, stored inline.
    One(BlockId),
    /// Two or more blocks (boxed twice-indirect: the spill case is rare
    /// enough that keeping the enum at 16 bytes wins).
    Many(Box<Vec<BlockId>>),
}

impl BlockList {
    /// Whether the list is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        matches!(self, BlockList::Empty)
    }

    /// Number of blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            BlockList::Empty => 0,
            BlockList::One(_) => 1,
            BlockList::Many(v) => v.len(),
        }
    }

    /// The blocks, in order.
    #[must_use]
    pub fn as_slice(&self) -> &[BlockId] {
        match self {
            BlockList::Empty => &[],
            BlockList::One(b) => std::slice::from_ref(b),
            BlockList::Many(v) => v,
        }
    }

    /// Appends a block id.
    pub fn push(&mut self, block: BlockId) {
        match self {
            BlockList::Empty => *self = BlockList::One(block),
            BlockList::One(first) => *self = BlockList::Many(Box::new(vec![*first, block])),
            BlockList::Many(v) => v.push(block),
        }
    }

    /// Iterates over the block ids.
    pub fn iter(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.as_slice().iter().copied()
    }
}

impl FromIterator<BlockId> for BlockList {
    fn from_iter<I: IntoIterator<Item = BlockId>>(iter: I) -> BlockList {
        let mut list = BlockList::Empty;
        for b in iter {
            list.push(b);
        }
        list
    }
}

/// File-system metadata for one file or directory.
///
/// This mirrors the HopsFS `INode` row: identity, tree position,
/// permissions, and (for files) the block list.
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
    /// POSIX-style permission bits.
    pub perm: u16,
    /// Owner uid.
    pub owner: u32,
    /// Group gid.
    pub group: u32,
    /// File size in bytes (0 for directories).
    pub size: u64,
    /// Modification time, nanoseconds of simulated time.
    pub mtime_nanos: u64,
    /// Ids of the file's data blocks, in order.
    pub blocks: BlockList,
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
            perm: 0o755,
            owner: 0,
            group: 0,
            size: 0,
            mtime_nanos: 0,
            blocks: BlockList::Empty,
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
            perm: 0o644,
            owner: 0,
            group: 0,
            size: 0,
            mtime_nanos: 0,
            blocks: BlockList::Empty,
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

/// Identifier of a data block.
pub type BlockId = u64;

/// Location and length of one data block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockInfo {
    /// This block's id.
    pub id: BlockId,
    /// Owning file inode.
    pub inode: InodeId,
    /// Generation stamp (bumped on re-replication).
    pub generation: u64,
    /// Bytes in the block.
    pub len: u64,
    /// DataNodes currently holding replicas.
    pub locations: Vec<DataNodeId>,
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
        assert_eq!(d.perm, 0o755);
        let f = Inode::file(6, 5, "x.bin");
        assert!(!f.is_dir());
        assert_eq!(f.perm, 0o644);
        assert!(f.blocks.is_empty());
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
        // The point of the interned name + inline block list: the resident
        // row is 64 bytes. A change that grows it shows up here, not as a
        // silent regression in the fig08d memory sweep.
        assert_eq!(std::mem::size_of::<Inode>(), 64);
        assert_eq!(std::mem::size_of::<BlockList>(), 16);
        assert_eq!(std::mem::size_of::<InodeName>(), 4);
        // The inode table stores `Option<Inode>` slots by id: a niche keeps
        // the tag out of the row, so a hole costs one row and no tag word.
        assert_eq!(std::mem::size_of::<Option<Inode>>(), 64);
    }

    #[test]
    fn block_list_keeps_canonical_form() {
        let mut b = BlockList::Empty;
        assert_eq!(b.len(), 0);
        assert_eq!(b.as_slice(), &[] as &[u64]);
        b.push(7);
        assert_eq!(b, BlockList::One(7));
        b.push(9);
        assert_eq!(b.as_slice(), &[7, 9]);
        assert_eq!(b.len(), 2);
        b.push(11);
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![7, 9, 11]);
        let again: BlockList = b.iter().collect();
        assert_eq!(again, b);
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
