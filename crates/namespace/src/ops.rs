//! The file-system metadata operations and their results.
//!
//! These are the seven operation types of the evaluation's industrial
//! workload (Table 2) and micro-benchmarks (Figs. 11, 12, 14): `create
//! file`, `mkdirs`, `delete file/dir`, `mv file/dir`, `read file`,
//! `stat file/dir`, and `ls file/dir`.

use std::error::Error;
use std::fmt;
use std::rc::Rc;

use lambda_store::StoreError;

use crate::inode::Inode;
use crate::path::DfsPath;

/// A metadata request submitted by a DFS client.
#[derive(Debug, Clone, PartialEq)]
pub enum FsOp {
    /// Create an (empty) file; fails if it exists.
    CreateFile(DfsPath),
    /// Create a directory; parents must exist; fails if it exists.
    Mkdir(DfsPath),
    /// Delete a file, or recursively delete a directory (subtree op).
    Delete(DfsPath),
    /// Rename/move a file or directory (subtree op for directories).
    Mv(DfsPath, DfsPath),
    /// Open-for-read: resolve the path, check permissions, return the
    /// inode and block locations.
    ReadFile(DfsPath),
    /// Stat: resolve and return the inode's attributes.
    Stat(DfsPath),
    /// List a directory's children (or the file itself).
    Ls(DfsPath),
}

/// Operation categories used to aggregate latency/throughput (Fig. 10's
/// CDFs, Figs. 11/12's per-op panels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OpClass {
    /// `read file`.
    Read,
    /// `stat file/dir`.
    Stat,
    /// `ls file/dir`.
    Ls,
    /// `create file`.
    Create,
    /// `mkdirs`.
    Mkdir,
    /// `delete file/dir`.
    Delete,
    /// `mv file/dir`.
    Mv,
}

impl OpClass {
    /// All classes, in the order the figures report them.
    pub const ALL: [OpClass; 7] = [
        OpClass::Read,
        OpClass::Stat,
        OpClass::Ls,
        OpClass::Create,
        OpClass::Mkdir,
        OpClass::Delete,
        OpClass::Mv,
    ];

    /// Whether operations of this class mutate the namespace.
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, OpClass::Create | OpClass::Mkdir | OpClass::Delete | OpClass::Mv)
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::Read => "read",
            OpClass::Stat => "stat",
            OpClass::Ls => "ls",
            OpClass::Create => "create",
            OpClass::Mkdir => "mkdir",
            OpClass::Delete => "delete",
            OpClass::Mv => "mv",
        };
        f.write_str(s)
    }
}

impl FsOp {
    /// This operation's reporting class.
    #[must_use]
    pub fn class(&self) -> OpClass {
        match self {
            FsOp::CreateFile(_) => OpClass::Create,
            FsOp::Mkdir(_) => OpClass::Mkdir,
            FsOp::Delete(_) => OpClass::Delete,
            FsOp::Mv(..) => OpClass::Mv,
            FsOp::ReadFile(_) => OpClass::Read,
            FsOp::Stat(_) => OpClass::Stat,
            FsOp::Ls(_) => OpClass::Ls,
        }
    }

    /// Whether the operation mutates the namespace.
    #[must_use]
    pub fn is_write(&self) -> bool {
        self.class().is_write()
    }

    /// The path whose **parent directory** determines the owning
    /// deployment under λFS's partitioning (§3.1: consistent hashing on
    /// the parent of the target).
    #[must_use]
    pub fn primary_path(&self) -> &DfsPath {
        match self {
            FsOp::CreateFile(p)
            | FsOp::Mkdir(p)
            | FsOp::Delete(p)
            | FsOp::Mv(p, _)
            | FsOp::ReadFile(p)
            | FsOp::Stat(p)
            | FsOp::Ls(p) => p,
        }
    }
}

/// A directory's child names in order, as a shared slice of interned
/// names: the listing cache and every reply served from it hold the same
/// allocation, so handing one out is a reference-count bump whatever the
/// directory's size.
pub type Listing = Rc<Vec<&'static str>>;

/// Successful result of a metadata operation.
///
/// Each payload is a pointer or a count, so a reply is two words wide. A
/// `Listing` shares the listing cache's allocation. A NameNode retains a
/// copy of write replies only, for retry deduplication (§3.2).
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutcome {
    /// Attributes (and, for reads, block list) of the resolved inode.
    Meta(Rc<Inode>),
    /// Directory listing: child names in order.
    Listing(Listing),
    /// The inode created by `create`/`mkdir`.
    Created(Box<Inode>),
    /// A delete completed, removing this many inodes.
    Deleted(u64),
    /// A move completed, relocating this many inodes.
    Moved(u64),
}

/// Failure of a metadata operation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FsError {
    /// A path component does not exist.
    NotFound(String),
    /// Create/mkdir target already exists.
    AlreadyExists(String),
    /// A non-final path component is not a directory.
    NotADirectory(String),
    /// The service aborted the operation (lock timeout, crash); the client
    /// library retries these transparently.
    Retryable(String),
    /// The request timed out at the client and exhausted its retries.
    Timeout,
    /// The service kept answering with transient errors until the client
    /// ran out of retry budget. Distinct from [`FsError::Timeout`]: the
    /// service was reachable, it just never produced a final answer.
    RetriesExhausted,
    /// A concurrent subtree operation owns this part of the namespace.
    SubtreeLocked(String),
    /// The operation can never succeed as asked (moving a directory into
    /// its own subtree, moving or deleting `/`). Final: the client library
    /// does not retry it.
    InvalidArgument(String),
}

impl FsError {
    /// Whether this is not a final answer: the service aborted the attempt
    /// ([`FsError::Retryable`]) or a subtree operation held the namespace
    /// ([`FsError::SubtreeLocked`]), so running the operation again may
    /// succeed. A client retries these; a NameNode does not retain them
    /// for retry deduplication.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, FsError::Retryable(_) | FsError::SubtreeLocked(_))
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "no such file or directory: {p}"),
            FsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::Retryable(why) => write!(f, "transient failure: {why}"),
            FsError::Timeout => write!(f, "request timed out"),
            FsError::RetriesExhausted => write!(f, "retry budget exhausted"),
            FsError::SubtreeLocked(p) => write!(f, "subtree operation in progress on {p}"),
            FsError::InvalidArgument(why) => write!(f, "invalid argument: {why}"),
        }
    }
}

impl Error for FsError {}

/// A store failure (lock timeout, crashed shard) is transient: the client
/// library retries the operation.
impl From<StoreError> for FsError {
    fn from(e: StoreError) -> Self {
        FsError::Retryable(e.to_string())
    }
}

/// Result alias for metadata operations.
pub type OpResult = Result<OpOutcome, FsError>;

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> DfsPath {
        s.parse().unwrap()
    }

    #[test]
    fn classes_partition_reads_and_writes() {
        assert!(!FsOp::ReadFile(p("/f")).is_write());
        assert!(!FsOp::Stat(p("/f")).is_write());
        assert!(!FsOp::Ls(p("/d")).is_write());
        assert!(FsOp::CreateFile(p("/f")).is_write());
        assert!(FsOp::Mkdir(p("/d")).is_write());
        assert!(FsOp::Delete(p("/f")).is_write());
        assert!(FsOp::Mv(p("/a"), p("/b")).is_write());
    }

    #[test]
    fn all_classes_listed_once() {
        let mut sorted = OpClass::ALL.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 7);
    }

    #[test]
    fn primary_path_is_the_source_for_mv() {
        let op = FsOp::Mv(p("/src/x"), p("/dst/x"));
        assert_eq!(op.primary_path(), &p("/src/x"));
    }

    #[test]
    fn only_aborts_and_subtree_locks_are_transient() {
        assert!(FsError::Retryable("lock timeout".into()).is_transient());
        assert!(FsError::SubtreeLocked("/d".into()).is_transient());
        for e in [
            FsError::NotFound("/x".into()),
            FsError::AlreadyExists("/x".into()),
            FsError::NotADirectory("/x".into()),
            FsError::Timeout,
            FsError::RetriesExhausted,
            FsError::InvalidArgument("mv / /x".into()),
        ] {
            assert!(!e.is_transient(), "{e}");
        }
    }

    #[test]
    fn errors_display_lowercase_and_concise() {
        let e = FsError::NotFound("/x".into());
        assert_eq!(e.to_string(), "no such file or directory: /x");
    }
}
