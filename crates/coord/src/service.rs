//! Coordinator implementation: sessions, groups, watches, messaging.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::rc::Rc;

use lambda_sim::params::NetParams;
use lambda_sim::{Dist, Sim, SimDuration, SimTime};

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

struct CoordInner<M> {
    next_session: u64,
    session_timeout: SimDuration,
    /// One coordinator hop (a message takes two, a watch event one).
    one_way: Dist,
    sessions: HashMap<SessionId, SessionState>,
    /// Group → members in join order.
    groups: BTreeMap<String, Vec<SessionId>>,
    watches: HashMap<String, Vec<GroupWatch>>,
    inboxes: HashMap<SessionId, Inbox<M>>,
    messages_delivered: u64,
    messages_dropped: u64,
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
        Coordinator {
            inner: Rc::new(RefCell::new(CoordInner {
                next_session: 0,
                session_timeout,
                one_way: net.coord_one_way,
                sessions: HashMap::new(),
                groups: BTreeMap::new(),
                watches: HashMap::new(),
                inboxes: HashMap::new(),
                messages_delivered: 0,
                messages_dropped: 0,
            })),
        }
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
    pub fn heartbeat(&self, sim: &mut Sim, id: SessionId) {
        let mut inner = self.inner.borrow_mut();
        let timeout = inner.session_timeout;
        if let Some(s) = inner.sessions.get_mut(&id) {
            s.expires_at = sim.now() + timeout;
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
        let one_way = self.inner.borrow().one_way;
        for watch in watches {
            let delay = sim.rng().sample_duration(&one_way);
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
        let one_way = {
            let inner = self.inner.borrow();
            if !inner.sessions.contains_key(&from) || !inner.sessions.contains_key(&to) {
                return false;
            }
            inner.one_way
        };
        let delay = sim.rng().sample_duration(&one_way) + sim.rng().sample_duration(&one_way);
        let this = self.clone();
        sim.schedule(delay, move |sim| this.deliver(sim, to, msg));
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
