//! Wire types: client↔NameNode RPC payloads and the coherence-protocol
//! messages exchanged through the Coordinator.

use std::rc::Rc;

use lambda_coord::SessionId;
use lambda_faas::InstanceId;
use lambda_namespace::{FsOp, InodeId, OpResult};
use lambda_store::NameKey;

use crate::fsops::InvalidationSet;

/// Identifies one client process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

impl std::fmt::Display for ClientId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "client#{}", self.0)
    }
}

/// Uniquely identifies one client-issued operation across retries, so a
/// NameNode can serve a resubmitted request from its result cache instead
/// of re-executing it (§3.2: "NameNodes temporarily cache results returned
/// to clients …").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId {
    /// The issuing client.
    pub client: ClientId,
    /// The client's operation sequence number.
    pub seq: u64,
}

/// One item of subtree work: an inode plus its `children`-index key.
/// `Copy`: the name is the index's own interned [`NameKey`], so batch
/// cloning for offload fan-out is a memcpy instead of per-item `String`
/// allocations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubtreeItem {
    /// The inode id.
    pub id: InodeId,
    /// Its parent directory id.
    pub parent: InodeId,
    /// Its name within the parent, as the `children` index keys it.
    pub name: NameKey,
}

/// The kind of work in an offloaded subtree batch (Appendix D).
#[derive(Debug, Clone, PartialEq)]
pub enum SubtreeBatchKind {
    /// Phase 2: write-lock and release each inode (quiesce).
    Quiesce,
    /// Phase 3 of a recursive delete: remove the rows.
    DeleteRows,
}

/// A batch of subtree sub-operations, executable locally or on a helper
/// NameNode.
#[derive(Debug, Clone, PartialEq)]
pub struct SubtreeBatch {
    /// What to do with the items.
    pub kind: SubtreeBatchKind,
    /// The items, leaf-first (so partial execution keeps the tree
    /// well-formed).
    pub items: Vec<SubtreeItem>,
}

/// A request delivered to a NameNode (via HTTP invocation or TCP).
#[derive(Debug, Clone, PartialEq)]
pub enum NnRequest {
    /// A client metadata operation.
    Op {
        /// Retry-stable request identity.
        id: RequestId,
        /// The operation.
        op: FsOp,
        /// Whether this arrived through the API gateway (HTTP) rather
        /// than a direct TCP connection.
        via_http: bool,
        /// Whether the client believes this NameNode's deployment owns
        /// the metadata (false when anti-thrashing routed the request to a
        /// foreign deployment, which must then skip caching).
        owned: bool,
    },
    /// A subtree batch offloaded by a leader NameNode (Appendix D).
    Offload {
        /// The work.
        batch: SubtreeBatch,
    },
}

/// A NameNode's reply.
#[derive(Debug, Clone, PartialEq)]
pub enum NnResponse {
    /// Reply to [`NnRequest::Op`].
    Op {
        /// Echoed request identity.
        id: RequestId,
        /// The operation's result.
        result: OpResult,
        /// Which instance served it (lets the client register the TCP
        /// connection the NameNode established back to it, §3.2 step 3).
        served_by: InstanceId,
        /// The serving instance's deployment index (so anti-thrashing
        /// responses from foreign deployments are filed correctly).
        deployment: u32,
    },
    /// Reply to [`NnRequest::Offload`].
    OffloadDone,
}

/// Coherence-protocol traffic, delivered by the Coordinator (§3.5,
/// Algorithm 1 and Appendix D's subtree variant).
#[derive(Debug, Clone, PartialEq)]
pub enum CoherenceMsg {
    /// Invalidate cached metadata, then ACK.
    Inv {
        /// The leader's protocol-round identity.
        round: u64,
        /// The leader's session (ACK destination).
        from: SessionId,
        /// What to invalidate: built once per round and shared by every
        /// recipient, so a broadcast to n members allocates one payload,
        /// not n copies of its vectors.
        inv: Rc<InvalidationSet>,
    },
    /// Acknowledgement of an `Inv`.
    Ack {
        /// The round being acknowledged.
        round: u64,
        /// The acknowledging session.
        from: SessionId,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_namespace::InodeName;

    #[test]
    fn request_ids_are_copyable_map_keys() {
        let a = RequestId { client: ClientId(1), seq: 9 };
        let b = a;
        assert_eq!(a, b);
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }

    #[test]
    fn subtree_batches_carry_leaf_first_items() {
        let batch = SubtreeBatch {
            kind: SubtreeBatchKind::DeleteRows,
            items: vec![
                SubtreeItem { id: 9, parent: 3, name: InodeName::new("leaf").key() },
                SubtreeItem { id: 3, parent: 1, name: InodeName::new("mid").key() },
            ],
        };
        assert_eq!(batch.items.len(), 2);
        assert_eq!(batch.kind, SubtreeBatchKind::DeleteRows);
    }
}
