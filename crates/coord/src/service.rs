//! Coordinator implementation: sessions, groups, watches, messaging.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;

use lambda_sim::params::{NetParams, StoreParams};
use lambda_sim::{Dist, Sim, SimDuration, SimTime, Station, StationRef};

/// Identifies one coordinator session (≈ one connected process).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u64);

impl SessionId {
    /// The raw session number (used as a compact holder tag in persisted
    /// lock rows).
    #[must_use]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a session id from its raw number.
    #[must_use]
    pub const fn from_raw(raw: u64) -> Self {
        SessionId(raw)
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// Which Coordinator implementation a λFS deployment runs (paper §3.5:
/// the Coordinator is pluggable, with ZooKeeper and MySQL Cluster NDB
/// supported). Selects between [`Coordinator::new`] and
/// [`Coordinator::over_ndb`] at system build time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoordinatorKind {
    /// A dedicated ZooKeeper ensemble (the evaluation's configuration).
    #[default]
    ZooKeeper,
    /// MySQL Cluster NDB's event API: no extra service to run, but
    /// coordination traffic shares the metadata store's shards and pays
    /// epoch-batched event latency.
    Ndb,
}

/// A membership change in a watched group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupEvent {
    /// A session joined the group.
    Joined(SessionId),
    /// A session left the group (gracefully or by expiry).
    Left(SessionId),
}

/// A persistent group watch callback.
pub type GroupWatch = Rc<dyn Fn(&mut Sim, GroupEvent)>;

/// A registered message handler for one session.
pub type Inbox<M> = Box<dyn FnMut(&mut Sim, M)>;

struct SessionState {
    expires_at: SimTime,
    groups: Vec<String>,
}

/// How coordinator traffic reaches its recipients.
///
/// λFS's Coordinator is pluggable (paper §3.5): the default deployment
/// runs ZooKeeper, but "λFS currently supports both ZooKeeper and MySQL
/// Cluster NDB" — the latter implements watches and member-to-member
/// messages over NDB's event API, so coordination traffic *shares the
/// metadata store's capacity* and pays its epoch-batched event latency.
enum Transport {
    /// ZooKeeper-style dedicated ensemble: point-to-point hops sampled
    /// from `coord_one_way`, no interaction with the metadata store.
    InMemory { one_way: Dist },
    /// NDB event API: a message is a row write on the recipient's shard,
    /// delivered at the next event epoch, then read back by the
    /// subscriber. Every leg occupies real shard capacity.
    Ndb { shards: Vec<StationRef>, row_write: Dist, pk_read: Dist, epoch: SimDuration },
}

struct CoordInner<M> {
    next_session: u64,
    session_timeout: SimDuration,
    transport: Transport,
    sessions: HashMap<SessionId, SessionState>,
    /// Group → members in join order.
    groups: BTreeMap<String, Vec<SessionId>>,
    watches: HashMap<String, Vec<GroupWatch>>,
    inboxes: HashMap<SessionId, Inbox<M>>,
    messages_delivered: u64,
    messages_dropped: u64,
    /// Store operations charged by the NDB transport (0 for ZooKeeper).
    store_ops: u64,
}

/// A shared handle to the coordination service, generic over the message
/// type `M` exchanged between members (λFS uses its coherence-protocol
/// message enum).
///
/// See the crate docs for the role this plays in the reproduced system and
/// the crate tests for usage examples of every primitive.
pub struct Coordinator<M> {
    inner: Rc<RefCell<CoordInner<M>>>,
}

impl<M> Clone for Coordinator<M> {
    fn clone(&self) -> Self {
        Coordinator { inner: Rc::clone(&self.inner) }
    }
}

impl<M> fmt::Debug for Coordinator<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Coordinator")
            .field("sessions", &inner.sessions.len())
            .field("groups", &inner.groups.len())
            .finish()
    }
}

impl<M: Clone + 'static> Coordinator<M> {
    /// Creates a coordinator whose RPC latency comes from
    /// `net.coord_one_way` and whose sessions expire after
    /// `session_timeout` without a heartbeat.
    #[must_use]
    pub fn new(net: &NetParams, session_timeout: SimDuration) -> Self {
        Self::with_transport(
            Transport::InMemory { one_way: net.coord_one_way },
            session_timeout,
        )
    }

    /// Creates a coordinator backed by MySQL Cluster NDB's event API (the
    /// paper's alternative Coordinator, §3.5): watches and messages ride
    /// the metadata store's own shards (`shards`, priced by `store`) and
    /// are batched into event epochs of `epoch`. Compared to ZooKeeper
    /// this adds epoch latency to every coherence round *and* steals
    /// capacity from metadata transactions — the trade the `ablation_knobs`
    /// bench quantifies.
    #[must_use]
    pub fn over_ndb(
        shards: Vec<StationRef>,
        store: &StoreParams,
        epoch: SimDuration,
        session_timeout: SimDuration,
    ) -> Self {
        assert!(!shards.is_empty(), "NDB transport needs at least one shard");
        Self::with_transport(
            Transport::Ndb {
                shards,
                row_write: store.row_write,
                pk_read: store.pk_read,
                epoch,
            },
            session_timeout,
        )
    }

    fn with_transport(transport: Transport, session_timeout: SimDuration) -> Self {
        Coordinator {
            inner: Rc::new(RefCell::new(CoordInner {
                next_session: 0,
                session_timeout,
                transport,
                sessions: HashMap::new(),
                groups: BTreeMap::new(),
                watches: HashMap::new(),
                inboxes: HashMap::new(),
                messages_delivered: 0,
                messages_dropped: 0,
                store_ops: 0,
            })),
        }
    }

    /// Store operations the NDB transport has charged against the
    /// metadata store's shards (always 0 under ZooKeeper).
    #[must_use]
    pub fn store_ops(&self) -> u64 {
        self.inner.borrow().store_ops
    }

    /// Occupies the shard that owns `salt`'s row for one store operation
    /// of `service` length, then runs `then`.
    fn charge_shard<F: FnOnce(&mut Sim) + 'static>(
        &self,
        sim: &mut Sim,
        salt: u64,
        service: SimDuration,
        then: F,
    ) {
        let shard = {
            let mut inner = self.inner.borrow_mut();
            inner.store_ops += 1;
            let Transport::Ndb { shards, .. } = &inner.transport else {
                unreachable!("charge_shard is only called by the NDB transport")
            };
            Rc::clone(&shards[(salt % shards.len() as u64) as usize])
        };
        Station::submit(&shard, sim, service, then);
    }

    /// The delay until the next NDB event epoch flushes, jittered.
    fn epoch_delay(sim: &mut Sim, epoch: SimDuration) -> SimDuration {
        SimDuration::from_secs_f64(epoch.as_secs_f64() * sim.rng().gen_range(0.5..1.5))
    }

    /// Messages delivered and dropped so far.
    #[must_use]
    pub fn message_stats(&self) -> (u64, u64) {
        let inner = self.inner.borrow();
        (inner.messages_delivered, inner.messages_dropped)
    }

    /// Opens a session and arms its expiry timer.
    pub fn create_session(&self, sim: &mut Sim) -> SessionId {
        let (id, timeout) = {
            let mut inner = self.inner.borrow_mut();
            inner.next_session += 1;
            let id = SessionId(inner.next_session);
            let timeout = inner.session_timeout;
            inner.sessions.insert(
                id,
                SessionState {
                    expires_at: sim.now() + timeout,
                    groups: Vec::new(),
                },
            );
            (id, timeout)
        };
        self.arm_expiry_check(sim, id, sim.now() + timeout);
        id
    }

    fn arm_expiry_check(&self, sim: &mut Sim, id: SessionId, at: SimTime) {
        let this = self.clone();
        sim.schedule_at(at, move |sim| {
            let expires_at = this.inner.borrow().sessions.get(&id).map(|s| s.expires_at);
            match expires_at {
                None => {} // already closed
                Some(expiry) if expiry <= sim.now() => this.expire(sim, id),
                Some(expiry) => this.arm_expiry_check(sim, id, expiry),
            }
        });
    }

    /// Extends the session's lease; a no-op for dead sessions.
    ///
    /// Under the NDB transport the lease is a row, so every heartbeat
    /// also occupies its shard for one row write.
    pub fn heartbeat(&self, sim: &mut Sim, id: SessionId) {
        let charge = {
            let mut inner = self.inner.borrow_mut();
            let timeout = inner.session_timeout;
            let Some(s) = inner.sessions.get_mut(&id) else { return };
            s.expires_at = sim.now() + timeout;
            match &inner.transport {
                Transport::InMemory { .. } => None,
                Transport::Ndb { row_write, .. } => Some(*row_write),
            }
        };
        if let Some(row_write) = charge {
            let service = sim.rng().sample_duration(&row_write);
            self.charge_shard(sim, id.0, service, |_sim| {});
        }
    }

    /// Whether the session is currently alive.
    #[must_use]
    pub fn is_alive(&self, id: SessionId) -> bool {
        self.inner.borrow().sessions.contains_key(&id)
    }

    /// Gracefully closes a session, leaving its groups. Idempotent.
    pub fn close_session(&self, sim: &mut Sim, id: SessionId) {
        self.expire(sim, id);
    }

    fn expire(&self, sim: &mut Sim, id: SessionId) {
        let left_groups = {
            let mut inner = self.inner.borrow_mut();
            let Some(state) = inner.sessions.remove(&id) else { return };
            inner.inboxes.remove(&id);
            for group in &state.groups {
                if let Some(members) = inner.groups.get_mut(group) {
                    members.retain(|m| *m != id);
                }
            }
            state.groups
        };
        for group in left_groups {
            self.notify(sim, &group, GroupEvent::Left(id));
        }
    }

    /// Adds the session to `group` (ephemeral membership), firing
    /// `Joined` watches.
    pub fn join_group(&self, sim: &mut Sim, id: SessionId, group: &str) {
        {
            let mut inner = self.inner.borrow_mut();
            if !inner.sessions.contains_key(&id) {
                return;
            }
            let members = inner.groups.entry(group.to_string()).or_default();
            if members.contains(&id) {
                return;
            }
            members.push(id);
            inner.sessions.get_mut(&id).expect("checked").groups.push(group.to_string());
        }
        self.notify(sim, group, GroupEvent::Joined(id));
    }

    /// Removes the session from `group`, firing `Left` watches.
    pub fn leave_group(&self, sim: &mut Sim, id: SessionId, group: &str) {
        let was_member = {
            let mut inner = self.inner.borrow_mut();
            let removed = inner
                .groups
                .get_mut(group)
                .map(|members| {
                    let before = members.len();
                    members.retain(|m| *m != id);
                    members.len() != before
                })
                .unwrap_or(false);
            if let Some(s) = inner.sessions.get_mut(&id) {
                s.groups.retain(|g| g != group);
            }
            removed
        };
        if was_member {
            self.notify(sim, group, GroupEvent::Left(id));
        }
    }

    /// Current live members of `group`, in join order.
    #[must_use]
    pub fn members(&self, group: &str) -> Vec<SessionId> {
        let mut members = Vec::new();
        self.extend_members(group, &mut members);
        members
    }

    /// Appends the current live members of `group`, in join order, to
    /// `out` (a caller gathering several groups builds one vector).
    pub fn extend_members(&self, group: &str, out: &mut Vec<SessionId>) {
        if let Some(members) = self.inner.borrow().groups.get(group) {
            out.extend_from_slice(members);
        }
    }

    /// The group's leader: its longest-lived member (ZooKeeper-style
    /// lowest-sequence election), or `None` for an empty group.
    #[must_use]
    pub fn leader(&self, group: &str) -> Option<SessionId> {
        self.inner.borrow().groups.get(group)?.iter().min().copied()
    }

    /// Registers a persistent watch on `group` membership changes.
    ///
    /// Watch callbacks fire after the coordinator's one-way notification
    /// latency.
    pub fn watch_group(&self, group: &str, watch: GroupWatch) {
        self.inner.borrow_mut().watches.entry(group.to_string()).or_default().push(watch);
    }

    fn notify(&self, sim: &mut Sim, group: &str, event: GroupEvent) {
        let watches = self
            .inner
            .borrow()
            .watches
            .get(group)
            .map(|w| w.to_vec())
            .unwrap_or_default();
        if watches.is_empty() {
            return;
        }
        enum Plan {
            Direct(Dist),
            Epoch(SimDuration),
        }
        let plan = match &self.inner.borrow().transport {
            Transport::InMemory { one_way } => Plan::Direct(*one_way),
            Transport::Ndb { epoch, .. } => Plan::Epoch(*epoch),
        };
        for watch in watches {
            let delay = match &plan {
                Plan::Direct(one_way) => sim.rng().sample_duration(one_way),
                // Watch events ride the event API: visible at the next
                // epoch flush. The membership row write itself was paid
                // by the session operation that caused the event.
                Plan::Epoch(epoch) => Self::epoch_delay(sim, *epoch),
            };
            sim.schedule(delay, move |sim| watch(sim, event));
        }
    }

    /// Drops every inbox and watch, for the `Drop` of the system that owns
    /// the coordinator. Handlers usually hold a handle to the coordinator,
    /// so without this it would keep itself alive. Sessions and groups stay
    /// as they are; a message or membership event still in flight finds no
    /// handler and is dropped. Schedules nothing and draws no random number.
    pub fn tear_down(&self) {
        let (inboxes, watches) = {
            let mut inner = self.inner.borrow_mut();
            (std::mem::take(&mut inner.inboxes), std::mem::take(&mut inner.watches))
        };
        // Handlers are user code: they drop unborrowed.
        drop((inboxes, watches));
    }

    /// Installs the message handler for `id`, replacing any previous one.
    pub fn register_inbox(&self, id: SessionId, inbox: Inbox<M>) {
        self.inner.borrow_mut().inboxes.insert(id, inbox);
    }

    /// Sends `msg` from `from` to `to` through the coordinator (two hops).
    ///
    /// Returns `false` — and sends nothing — if either end is already
    /// dead. A recipient dying while the message is in flight drops the
    /// message silently, exactly the failure the coherence protocol must
    /// tolerate.
    pub fn send(&self, sim: &mut Sim, from: SessionId, to: SessionId, msg: M) -> bool {
        enum Plan {
            Direct(Dist),
            Ndb { row_write: Dist, pk_read: Dist, epoch: SimDuration },
        }
        let plan = {
            let inner = self.inner.borrow();
            if !inner.sessions.contains_key(&from) || !inner.sessions.contains_key(&to) {
                return false;
            }
            match &inner.transport {
                Transport::InMemory { one_way } => Plan::Direct(*one_way),
                Transport::Ndb { row_write, pk_read, epoch, .. } => Plan::Ndb {
                    row_write: *row_write,
                    pk_read: *pk_read,
                    epoch: *epoch,
                },
            }
        };
        let this = self.clone();
        match plan {
            Plan::Direct(one_way) => {
                let delay =
                    sim.rng().sample_duration(&one_way) + sim.rng().sample_duration(&one_way);
                sim.schedule(delay, move |sim| this.deliver(sim, to, msg));
            }
            Plan::Ndb { row_write, pk_read, epoch } => {
                // Three legs, each on the recipient's shard row: the
                // sender writes the message row, the event API flushes it
                // at the next epoch, the subscriber reads the payload.
                let write = sim.rng().sample_duration(&row_write);
                let this2 = self.clone();
                self.charge_shard(sim, to.0, write, move |sim| {
                    let flush = Self::epoch_delay(sim, epoch);
                    sim.schedule(flush, move |sim| {
                        let read = sim.rng().sample_duration(&pk_read);
                        let this3 = this2.clone();
                        this2.charge_shard(sim, to.0, read, move |sim| {
                            this3.deliver(sim, to, msg);
                        });
                    });
                });
            }
        }
        true
    }

    /// Hands `msg` to `to`'s inbox, tolerating a recipient that died in
    /// flight.
    fn deliver(&self, sim: &mut Sim, to: SessionId, msg: M) {
        // Temporarily take the inbox out so the handler can re-enter
        // the coordinator (e.g. to send an ACK).
        let inbox = self.inner.borrow_mut().inboxes.remove(&to);
        match inbox {
            Some(mut inbox) => {
                self.inner.borrow_mut().messages_delivered += 1;
                inbox(sim, msg);
                // Put it back unless the session died inside the handler.
                let mut inner = self.inner.borrow_mut();
                if inner.sessions.contains_key(&to) {
                    inner.inboxes.insert(to, inbox);
                }
            }
            None => {
                self.inner.borrow_mut().messages_dropped += 1;
            }
        }
    }
}
