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
//!
//! Safety: an instance that joins after the snapshot starts with an empty
//! cache, and any cache *fill* takes shared store locks that block on the
//! leader's exclusive locks — so nobody can read-and-cache stale metadata
//! between INV and commit.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;

use lambda_coord::{Coordinator, SessionId};
use lambda_namespace::{MetadataCache, Partitioner};
use lambda_sim::{Sim, SimDuration};

use crate::fsops::{CoherenceHook, InvalidationSet};
use crate::messages::CoherenceMsg;

/// The Coordinator group name for a deployment's NameNode instances.
#[must_use]
pub fn deployment_group(deployment: u32) -> String {
    format!("nn-deployment-{deployment}")
}

/// Continuation fired when a coherence round drains.
type RoundDone = Box<dyn FnOnce(&mut Sim)>;

struct Round {
    waiting: HashSet<SessionId>,
    done: Option<RoundDone>,
}

struct CoherenceInner {
    next_round: u64,
    rounds: HashMap<u64, Round>,
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
                rounds: HashMap::new(),
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
            CoherenceMsg::Inv { round, from, inodes, listings, listing_updates, prefix } => {
                {
                    let mut cache = self.cache.borrow_mut();
                    for id in inodes {
                        cache.invalidate_inode(id);
                    }
                    for dir in listings {
                        cache.invalidate_listing(dir);
                    }
                    for (dir, name, present) in listing_updates {
                        cache.update_listing(dir, name, present);
                    }
                    if let Some(prefix) = prefix {
                        cache.invalidate_prefix(&prefix);
                    }
                }
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
                    r.waiting.remove(&from);
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
            done(sim);
        }
    }

    /// Removes a dead member from every outstanding round (wired to the
    /// NameNode's membership watches). Completed rounds fire.
    pub fn on_member_left(&self, sim: &mut Sim, member: SessionId) {
        let fired: Vec<RoundDone> = {
            let mut inner = self.inner.borrow_mut();
            let completed: Vec<u64> = inner
                .rounds
                .iter_mut()
                .filter_map(|(id, r)| {
                    r.waiting.remove(&member);
                    r.waiting.is_empty().then_some(*id)
                })
                .collect();
            completed
                .into_iter()
                .filter_map(|id| inner.rounds.remove(&id).and_then(|r| r.done))
                .collect()
        };
        for done in fired {
            done(sim);
        }
    }
}

impl CoherenceHook for CoordCoherence {
    fn invalidate(&self, sim: &mut Sim, inv: InvalidationSet, done: Box<dyn FnOnce(&mut Sim)>) {
        // Step 1: the deployment set D.
        let deployments: BTreeSet<u32> = if inv.prefix.is_some() {
            (0..self.partitioner.deployments()).collect()
        } else {
            inv.paths.iter().map(|p| self.partitioner.deployment_for_path(p)).collect()
        };
        // Snapshot live members, excluding ourselves (the leader's own
        // cache is updated inline by the write path).
        let members: Vec<SessionId> = deployments
            .iter()
            .flat_map(|d| self.coord.members(&self.groups[*d as usize]))
            .filter(|m| *m != self.session)
            .collect();
        if members.is_empty() {
            sim.schedule(SimDuration::ZERO, done);
            return;
        }
        let round = {
            let mut inner = self.inner.borrow_mut();
            inner.next_round += 1;
            let id = inner.next_round;
            inner.rounds.insert(
                id,
                Round { waiting: members.iter().copied().collect(), done: Some(done) },
            );
            id
        };
        let mut delivered_none = true;
        for member in members {
            let sent = self.coord.send(
                sim,
                self.session,
                member,
                CoherenceMsg::Inv {
                    round,
                    from: self.session,
                    inodes: inv.inodes.clone(),
                    listings: inv.listings.clone(),
                    listing_updates: inv.listing_updates.clone(),
                    prefix: inv.prefix.clone(),
                },
            );
            let mut inner = self.inner.borrow_mut();
            if sent {
                inner.invs_sent += 1;
                delivered_none = false;
            } else {
                // Already dead: no ACK required.
                if let Some(r) = inner.rounds.get_mut(&round) {
                    r.waiting.remove(&member);
                }
            }
        }
        // All targets were dead: complete immediately.
        let fire = {
            let mut inner = self.inner.borrow_mut();
            let empty = inner.rounds.get(&round).is_some_and(|r| r.waiting.is_empty());
            if empty || delivered_none {
                inner.rounds.remove(&round).and_then(|r| r.done)
            } else {
                None
            }
        };
        if let Some(done) = fire {
            sim.schedule(SimDuration::ZERO, done);
        }
    }
}
