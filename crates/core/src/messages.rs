//! Wire types: client↔NameNode RPC payloads and the coherence-protocol
//! messages exchanged through the Coordinator.

use std::rc::Rc;

use lambda_coord::SessionId;
use lambda_faas::InstanceId;
use lambda_namespace::{FsOp, OpResult};

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
/// NameNode can serve a resubmitted write from its result cache instead
/// of re-executing it (§3.2: "NameNodes temporarily cache results returned
/// to clients …").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId {
    /// The issuing client.
    pub client: ClientId,
    /// The client's operation sequence number.
    pub seq: u64,
}

/// A client metadata operation delivered to a NameNode (via HTTP
/// invocation or TCP).
#[derive(Debug, Clone, PartialEq)]
pub struct NnRequest {
    /// Retry-stable request identity.
    pub id: RequestId,
    /// The operation.
    pub op: FsOp,
    /// Whether this arrived through the API gateway (HTTP) rather than a
    /// direct TCP connection.
    pub via_http: bool,
    /// Whether the client believes this NameNode's deployment owns the
    /// metadata (false when anti-thrashing routed the request to a foreign
    /// deployment, which must then skip caching).
    pub owned: bool,
}

/// A NameNode's reply to an [`NnRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct NnResponse {
    /// Echoed request identity.
    pub id: RequestId,
    /// The operation's result.
    pub result: OpResult,
    /// Which instance served it (lets the client register the TCP
    /// connection the NameNode established back to it, §3.2 step 3).
    pub served_by: InstanceId,
    /// The serving instance's deployment index (so anti-thrashing
    /// responses from foreign deployments are filed correctly).
    pub deployment: u32,
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

    #[test]
    fn request_ids_are_copyable_map_keys() {
        let a = RequestId { client: ClientId(1), seq: 9 };
        let b = a;
        assert_eq!(a, b);
        let mut set = std::collections::HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
    }
}
