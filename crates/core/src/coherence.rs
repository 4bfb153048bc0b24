//! The λFS serverless cache-coherence protocol (§3.5, Algorithm 1).
//!
//! A writer ("leader") NameNode, already holding its exclusive store
//! locks, must ensure every other NameNode instance that might cache the
//! affected metadata has invalidated it before anything is persisted:
//!
//! 1. The leader computes the deployment set `D` — the deployments that
//!    can cache at least one affected piece of metadata (by the namespace
//!    partitioning, the deployments owning the affected paths; a subtree
//!    prefix INV targets every deployment, since descendants hash by
//!    their own parents).
//! 2. It snapshots the live members of those deployments through the
//!    Coordinator, sends each an INV, and waits for ACKs. **ACKs are not
//!    required from members that terminate mid-protocol** — membership
//!    watches remove dead sessions from every outstanding round.
//! 3. When the round drains, the write proceeds to persist and commit.
//!    If the leader's own session ends first, the ACKs address its closed
//!    inbox and can never arrive: the round fails and the write aborts,
//!    releasing its locks.
//!
//! Safety: an instance that joins after the snapshot starts with an empty
//! cache, and any cache *fill* takes shared store locks that block on the
//! leader's exclusive locks — so nobody can read-and-cache stale metadata
//! between INV and commit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use lambda_coord::{Coordinator, SessionId};
use lambda_namespace::{FsError, MetadataCache, Partitioner};
use lambda_sim::{Sim, SimDuration};

use crate::fsops::{CoherenceHook, InvalidationSet, RoundDone};
use crate::messages::CoherenceMsg;

/// The Coordinator group name for a deployment's NameNode instances.
#[must_use]
pub fn deployment_group(deployment: u32) -> String {
    format!("nn-deployment-{deployment}")
}

struct Round {
    /// Members whose ACK is outstanding, in send order.
    waiting: Vec<SessionId>,
    done: Option<RoundDone>,
}

struct CoherenceInner {
    next_round: u64,
    /// Open rounds in id order: rounds that drain together (one member
    /// leaving) fire in the order they were opened, on every run.
    rounds: BTreeMap<u64, Round>,
    /// The deployment set `D` of the round being opened; empty between
    /// rounds, kept for its buffer.
    deployments: Vec<u32>,
    invs_sent: u64,
    acks_received: u64,
}

/// The per-NameNode coherence endpoint: issues INV rounds as a leader and
/// answers INVs as a follower.
#[derive(Clone)]
pub struct CoordCoherence {
    coord: Coordinator<CoherenceMsg>,
    session: SessionId,
    partitioner: Rc<Partitioner>,
    /// [`deployment_group`] of every deployment, by index: a round looks
    /// its target groups up by name and must not build the names each time.
    groups: Rc<[String]>,
    cache: Rc<RefCell<MetadataCache>>,
    inner: Rc<RefCell<CoherenceInner>>,
}

impl std::fmt::Debug for CoordCoherence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("CoordCoherence")
            .field("session", &self.session)
            .field("open_rounds", &inner.rounds.len())
            .finish()
    }
}

impl CoordCoherence {
    /// Creates the endpoint for a NameNode with the given session and
    /// local cache.
    #[must_use]
    pub fn new(
        coord: Coordinator<CoherenceMsg>,
        session: SessionId,
        partitioner: Rc<Partitioner>,
        cache: Rc<RefCell<MetadataCache>>,
    ) -> Self {
        CoordCoherence {
            coord,
            session,
            groups: (0..partitioner.deployments()).map(deployment_group).collect(),
            partitioner,
            cache,
            inner: Rc::new(RefCell::new(CoherenceInner {
                next_round: 0,
                rounds: BTreeMap::new(),
                deployments: Vec::new(),
                invs_sent: 0,
                acks_received: 0,
            })),
        }
    }

    /// The NameNode's metadata cache this endpoint invalidates.
    #[must_use]
    pub(crate) fn cache(&self) -> &Rc<RefCell<MetadataCache>> {
        &self.cache
    }

    /// Drops every open round without completing it, for the teardown of
    /// the system: a round's continuation holds the writer's engine, which
    /// holds this endpoint, so an open round keeps itself alive.
    pub(crate) fn tear_down(&self) {
        let rounds = std::mem::take(&mut self.inner.borrow_mut().rounds);
        drop(rounds);
    }

    /// `(INVs sent, ACKs received)` so far — protocol-overhead reporting.
    #[must_use]
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (inner.invs_sent, inner.acks_received)
    }

    /// Handles an incoming coherence message (wired to the NameNode's
    /// Coordinator inbox).
    pub fn handle(&self, sim: &mut Sim, msg: CoherenceMsg) {
        match msg {
            CoherenceMsg::Inv { round, from, inv } => {
                inv.apply(&mut self.cache.borrow_mut());
                // ACK after invalidating (Algorithm 1, step 2).
                self.coord.send(
                    sim,
                    self.session,
                    from,
                    CoherenceMsg::Ack { round, from: self.session },
                );
            }
            CoherenceMsg::Ack { round, from } => self.on_ack(sim, round, from),
        }
    }

    fn on_ack(&self, sim: &mut Sim, round: u64, from: SessionId) {
        let fire = {
            let mut inner = self.inner.borrow_mut();
            inner.acks_received += 1;
            match inner.rounds.get_mut(&round) {
                Some(r) => {
                    r.waiting.retain(|m| *m != from);
                    if r.waiting.is_empty() {
                        inner.rounds.remove(&round).and_then(|r| r.done)
                    } else {
                        None
                    }
                }
                None => None,
            }
        };
        if let Some(done) = fire {
            done(sim, Ok(()));
        }
    }

    /// Removes a dead member from every outstanding round (wired to the
    /// NameNode's membership watches). Completed rounds fire, in round
    /// order. When the member is this endpoint's own session, every open
    /// round fails: its ACKs can no longer be delivered.
    pub fn on_member_left(&self, sim: &mut Sim, member: SessionId) {
        let own = member == self.session;
        let fired: Vec<RoundDone> = {
            let mut inner = self.inner.borrow_mut();
            let completed: Vec<u64> = inner
                .rounds
                .iter_mut()
                .filter_map(|(id, r)| {
                    r.waiting.retain(|m| *m != member);
                    (own || r.waiting.is_empty()).then_some(*id)
                })
                .collect();
            completed
                .into_iter()
                .filter_map(|id| inner.rounds.remove(&id).and_then(|r| r.done))
                .collect()
        };
        for done in fired {
            let round = if own {
                Err(FsError::Retryable("the writer's coordinator session ended".into()))
            } else {
                Ok(())
            };
            done(sim, round);
        }
    }
}

impl CoherenceHook for CoordCoherence {
    fn invalidate(&self, sim: &mut Sim, inv: Rc<InvalidationSet>, done: RoundDone) {
        // Step 1: the deployment set D, ascending. Then snapshot its live
        // members, excluding ourselves (the leader's own cache applies the
        // same set once the write commits).
        let mut members = Vec::new();
        {
            let mut inner = self.inner.borrow_mut();
            let deployments = &mut inner.deployments;
            if inv.prefix.is_some() {
                deployments.extend(0..self.partitioner.deployments());
            } else {
                deployments
                    .extend(inv.paths.iter().map(|p| self.partitioner.deployment_for_path(p)));
                deployments.sort_unstable();
                deployments.dedup();
            }
            for &d in deployments.iter() {
                self.coord.extend_members(&self.groups[d as usize], &mut members);
            }
            deployments.clear();
        }
        members.retain(|m| *m != self.session);
        if members.is_empty() {
            sim.schedule(SimDuration::ZERO, move |sim| done(sim, Ok(())));
            return;
        }
        let round = {
            let mut inner = self.inner.borrow_mut();
            inner.next_round += 1;
            inner.next_round
        };
        // Step 2: one payload for the whole round, shared with the writer.
        // A member already dead is sent nothing and owes no ACK.
        members.retain(|&member| {
            let msg = CoherenceMsg::Inv { round, from: self.session, inv: Rc::clone(&inv) };
            self.coord.send(sim, self.session, member, msg)
        });
        self.inner.borrow_mut().invs_sent += members.len() as u64;
        if members.is_empty() {
            // All targets were dead: complete immediately.
            sim.schedule(SimDuration::ZERO, move |sim| done(sim, Ok(())));
        } else {
            let round_state = Round { waiting: members, done: Some(done) };
            self.inner.borrow_mut().rounds.insert(round, round_state);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_namespace::DfsPath;
    use lambda_sim::params::NetParams;

    /// Opens two rounds towards one follower, then lets the follower leave
    /// before any INV lands: both rounds drain in the same call.
    fn drained_round_order() -> Vec<u32> {
        let mut sim = Sim::new(1);
        let coord: Coordinator<CoherenceMsg> =
            Coordinator::new(&NetParams::default(), SimDuration::from_secs(60));
        let (leader, follower) = (coord.create_session(&mut sim), coord.create_session(&mut sim));
        coord.join_group(&mut sim, follower, &deployment_group(0));
        let endpoint = CoordCoherence::new(
            coord,
            leader,
            Rc::new(Partitioner::new(1)),
            Rc::new(RefCell::new(MetadataCache::new(16))),
        );
        let fired = Rc::new(RefCell::new(Vec::new()));
        for round in 1..=2 {
            let fired = Rc::clone(&fired);
            let inv = Rc::new(InvalidationSet {
                inodes: vec![7],
                paths: vec![DfsPath::root()],
                ..InvalidationSet::default()
            });
            let done: RoundDone = Box::new(move |_, _| fired.borrow_mut().push(round));
            endpoint.invalidate(&mut sim, inv, done);
        }
        endpoint.on_member_left(&mut sim, follower);
        let order = fired.borrow().clone();
        order
    }

    #[test]
    fn rounds_drained_by_one_leaving_member_fire_in_round_order() {
        // Each endpoint's round table is built afresh: an order that came
        // from a per-map hash seed would differ between them.
        for endpoint in 0..64 {
            assert_eq!(drained_round_order(), vec![1, 2], "endpoint {endpoint}");
        }
    }
}
