//! The discrete-event simulation engine.
//!
//! [`Sim`] owns a virtual clock and a priority queue of pending events.
//! Simulation components live outside the engine as `Rc<RefCell<_>>` handles
//! captured by event closures, which keeps the engine generic and the whole
//! run single-threaded and deterministic.
//!
//! Events scheduled for the same instant fire in scheduling order (FIFO),
//! which — together with the seeded [`SimRng`] — makes runs reproducible
//! bit-for-bit.
//!
//! # Queue internals
//!
//! The pending-event store is a hierarchical timing wheel (see
//! [`wheel`](crate::wheel)) ordering 24-byte plain-old-data [`Entry`]
//! records — `(at, seq, packed action)` — rather than boxed closures:
//! O(1) pushes and near-O(1) pops in place of heap sifts. The [`Action`]
//! payload, bit-packed into one `u64`, is one of three variants:
//!
//! * **`Closure(slot)`** — a one-shot `FnOnce` parked in a slab
//!   (`Vec<Option<Event>>` plus a free list). The slot index is recycled the
//!   moment the event fires, so a steady-state workload touches the same few
//!   cache-hot slab cells instead of fresh heap allocations.
//! * **`Timer(slot)`** — a periodic `FnMut` tick (see [`every`]). The
//!   closure is boxed **once** at registration; every subsequent tick is
//!   re-armed by pushing a heap entry, with no allocation at all.
//! * **`Station { station, slot }`** — a queueing-station job completion
//!   (see [`crate::Station`]). The station is named by its index in the
//!   engine's station registry, so entries stay `Copy` — no `Rc`, no drop
//!   glue anywhere in the heap, and the sift loops compile to straight
//!   word moves. Firing is two slab lookups; no allocation on the
//!   completion path.
//!
//! The closure slab still boxes each one-shot closure (they are
//! heterogeneous types and this crate forbids `unsafe`), but the two hot
//! paths of a metadata-service simulation — station job completions and
//! periodic timers — never allocate per event.

use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

use crate::rng::SimRng;
use crate::station::{Station, StationRef};
use crate::time::{SimDuration, SimTime};
use crate::wheel::{Entry, EventWheel};

/// A scheduled one-shot action.
pub type Event = Box<dyn FnOnce(&mut Sim)>;

/// Process-wide counter handing each [`Sim`] a distinct identity, so a
/// station can tell whether its cached registry index belongs to the engine
/// it is being scheduled on (see [`Sim::register_station`]).
static SIM_IDS: AtomicU64 = AtomicU64::new(0);

/// What to do when an [`Entry`] fires. Bit-packed into a single `u64` (see
/// [`Action::pack`]) so heap entries stay 24 bytes of `Copy` data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Action {
    /// Run and free the one-shot closure parked in this slab slot.
    Closure(u32),
    /// Tick the periodic timer parked in this slab slot; re-arm if it
    /// returns `true`.
    Timer(u32),
    /// Complete the job in `slot` of the job slab of the station at
    /// `station` in the engine's registry.
    Station { station: u32, slot: u32 },
}

const TAG_CLOSURE: u64 = 0;
const TAG_TIMER: u64 = 1;
const TAG_STATION: u64 = 2;

impl Action {
    /// Packs the action into one word: a 2-bit tag, then the payload.
    /// Station entries carry two 31-bit indices, which bounds one engine at
    /// ~2 billion registered stations and in-flight jobs per station — far
    /// beyond anything a single-process simulation can hold anyway.
    #[inline]
    fn pack(self) -> u64 {
        match self {
            Action::Closure(slot) => TAG_CLOSURE | u64::from(slot) << 2,
            Action::Timer(slot) => TAG_TIMER | u64::from(slot) << 2,
            Action::Station { station, slot } => {
                debug_assert!(station < (1 << 31) && slot < (1 << 31));
                TAG_STATION | u64::from(station) << 2 | u64::from(slot) << 33
            }
        }
    }

    #[inline]
    fn unpack(word: u64) -> Self {
        match word & 0b11 {
            TAG_CLOSURE => Action::Closure((word >> 2) as u32),
            TAG_TIMER => Action::Timer((word >> 2) as u32),
            _ => Action::Station {
                station: (word >> 2 & ((1 << 31) - 1)) as u32,
                slot: (word >> 33) as u32,
            },
        }
    }
}

/// A registered periodic event (see [`every`]).
struct Timer {
    period: SimDuration,
    tick: Box<dyn FnMut(&mut Sim) -> bool>,
}

/// The discrete-event simulation engine: a virtual clock, an event queue,
/// and the run's random-number generator.
///
/// # Examples
///
/// ```
/// use lambda_sim::{Sim, SimDuration, SimTime};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new(0xC0FFEE);
/// let fired = Rc::new(Cell::new(false));
/// let flag = Rc::clone(&fired);
/// sim.schedule(SimDuration::from_millis(10), move |sim| {
///     assert_eq!(sim.now(), SimTime::from_nanos(10_000_000));
///     flag.set(true);
/// });
/// sim.run();
/// assert!(fired.get());
/// ```
pub struct Sim {
    now: SimTime,
    queue: EventWheel,
    next_seq: u64,
    rng: SimRng,
    executed: u64,
    /// Distinct per-engine identity (see [`SIM_IDS`]).
    id: u64,
    /// One-shot closure slab; indices are recycled through `free_closures`.
    closures: Vec<Option<Event>>,
    free_closures: Vec<u32>,
    /// Periodic-timer slab; indices are recycled through `free_timers`.
    timers: Vec<Option<Timer>>,
    free_timers: Vec<u32>,
    /// Stations that have scheduled completions on this engine; heap
    /// entries name them by index here so they stay `Copy`.
    stations: Vec<StationRef>,
}

impl fmt::Debug for Sim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl Sim {
    /// Creates an engine with an empty queue, the clock at
    /// [`SimTime::ZERO`], and an RNG seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Sim {
            now: SimTime::ZERO,
            queue: EventWheel::new(),
            next_seq: 0,
            rng: SimRng::new(seed),
            executed: 0,
            id: SIM_IDS.fetch_add(1, AtomicOrdering::Relaxed),
            closures: Vec::new(),
            free_closures: Vec::new(),
            timers: Vec::new(),
            free_timers: Vec::new(),
            stations: Vec::new(),
        }
    }

    /// This engine's process-unique identity; stations use it to detect a
    /// stale cached registry index when reused across engines.
    pub(crate) fn instance_id(&self) -> u64 {
        self.id
    }

    /// Adds `station` to the registry and returns its index, which the
    /// station caches (keyed by [`Self::instance_id`]) and passes to
    /// [`Self::schedule_station`]. Registration is not an event: it consumes
    /// no sequence number and cannot perturb firing order.
    pub(crate) fn register_station(&mut self, station: StationRef) -> u32 {
        let id = u32::try_from(self.stations.len()).expect("station registry overflow");
        self.stations.push(station);
        id
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The run's random-number generator.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Number of events executed so far.
    #[must_use]
    pub fn events_executed(&self) -> u64 {
        self.executed
    }

    /// Number of events still pending.
    #[must_use]
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Pushes a heap entry at `at` (clamped to now), consuming one sequence
    /// number. All scheduling funnels through here so same-instant FIFO
    /// order is exactly the order of scheduling calls, whatever the variant.
    #[inline]
    fn push_entry(&mut self, at: SimTime, action: Action) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Entry { at, seq, action: action.pack() });
    }

    /// Parks a one-shot closure in the slab and returns its slot.
    fn park_closure(&mut self, event: Event) -> u32 {
        match self.free_closures.pop() {
            Some(slot) => {
                debug_assert!(self.closures[slot as usize].is_none());
                self.closures[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.closures.len()).expect("closure slab overflow");
                self.closures.push(Some(event));
                slot
            }
        }
    }

    /// Parks a periodic timer in the slab and returns its slot.
    fn park_timer(&mut self, timer: Timer) -> u32 {
        match self.free_timers.pop() {
            Some(slot) => {
                debug_assert!(self.timers[slot as usize].is_none());
                self.timers[slot as usize] = Some(timer);
                slot
            }
            None => {
                let slot = u32::try_from(self.timers.len()).expect("timer slab overflow");
                self.timers.push(Some(timer));
                slot
            }
        }
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    ///
    /// Instants in the past are clamped to "now" (the event fires next, in
    /// FIFO order with other events at the current instant).
    pub fn schedule_at<F>(&mut self, at: SimTime, event: F)
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        let slot = self.park_closure(Box::new(event));
        self.push_entry(at, Action::Closure(slot));
    }

    /// Schedules `event` to fire `after` from now.
    pub fn schedule<F>(&mut self, after: SimDuration, event: F)
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        self.schedule_at(self.now + after, event);
    }

    /// Schedules completion of the job in `slot` of the registered station
    /// `station` after `service`. The allocation-free fast path used by
    /// [`Station::submit`](crate::Station::submit).
    #[inline]
    pub(crate) fn schedule_station(&mut self, service: SimDuration, station: u32, slot: u32) {
        self.push_entry(self.now + service, Action::Station { station, slot });
    }

    /// Executes the next pending event, advancing the clock to its instant.
    ///
    /// Returns `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        let Some(entry) = self.queue.pop() else {
            return false;
        };
        debug_assert!(entry.at >= self.now, "event queue time went backwards");
        self.now = entry.at;
        self.executed += 1;
        match Action::unpack(entry.action) {
            Action::Closure(slot) => {
                let event = self.closures[slot as usize]
                    .take()
                    .expect("closure slot fired twice");
                self.free_closures.push(slot);
                event(self);
            }
            Action::Timer(slot) => {
                // Move the timer out while it runs so the tick can freely
                // register new timers without aliasing its own slot.
                let mut timer =
                    self.timers[slot as usize].take().expect("timer slot fired twice");
                if (timer.tick)(self) {
                    let next = self.now + timer.period;
                    self.timers[slot as usize] = Some(timer);
                    self.push_entry(next, Action::Timer(slot));
                } else {
                    self.free_timers.push(slot);
                }
            }
            Action::Station { station, slot } => {
                let station = Rc::clone(&self.stations[station as usize]);
                Station::complete(&station, self, slot);
            }
        }
        true
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs all events scheduled at or before `deadline`, then advances the
    /// clock to `deadline` (even if the queue drained earlier).
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(at) = self.queue.peek_at() {
            if at > deadline {
                break;
            }
            self.step();
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Runs for `span` of virtual time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now + span;
        self.run_until(deadline);
    }
}

/// Schedules a closure to fire every `period`, starting at `first`, until it
/// returns `false` or the simulation ends.
///
/// This is the idiom for heartbeats, block reports, and workload-rate
/// resampling. The closure is boxed once at registration; each tick re-arms
/// by pushing a small heap entry with no further allocation.
///
/// # Examples
///
/// ```
/// use lambda_sim::{every, Sim, SimDuration, SimTime};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new(1);
/// let ticks = Rc::new(Cell::new(0u32));
/// let counter = Rc::clone(&ticks);
/// every(&mut sim, SimTime::ZERO, SimDuration::from_secs(1), move |_sim| {
///     counter.set(counter.get() + 1);
///     counter.get() < 5
/// });
/// sim.run();
/// assert_eq!(ticks.get(), 5);
/// ```
pub fn every<F>(sim: &mut Sim, first: SimTime, period: SimDuration, tick: F)
where
    F: FnMut(&mut Sim) -> bool + 'static,
{
    assert!(!period.is_zero(), "periodic event with zero period would not advance time");
    let slot = sim.park_timer(Timer { period, tick: Box::new(tick) });
    sim.push_entry(first, Action::Timer(slot));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for (delay_ms, label) in [(30u64, "c"), (10, "a"), (20, "b")] {
            let log = Rc::clone(&log);
            sim.schedule(SimDuration::from_millis(delay_ms), move |_| {
                log.borrow_mut().push(label);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec!["a", "b", "c"]);
    }

    #[test]
    fn same_instant_events_fire_fifo() {
        let mut sim = Sim::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10 {
            let log = Rc::clone(&log);
            sim.schedule(SimDuration::from_millis(5), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(0);
        let hits = Rc::new(RefCell::new(0u32));
        let h = Rc::clone(&hits);
        sim.schedule(SimDuration::from_secs(1), move |sim| {
            *h.borrow_mut() += 1;
            let h2 = Rc::clone(&h);
            sim.schedule(SimDuration::from_secs(1), move |sim| {
                assert_eq!(sim.now(), SimTime::from_secs(2));
                *h2.borrow_mut() += 1;
            });
        });
        sim.run();
        assert_eq!(*hits.borrow(), 2);
        assert_eq!(sim.events_executed(), 2);
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut sim = Sim::new(0);
        let order = Rc::new(RefCell::new(Vec::new()));
        let o = Rc::clone(&order);
        sim.schedule(SimDuration::from_secs(1), move |sim| {
            let o2 = Rc::clone(&o);
            sim.schedule_at(SimTime::ZERO, move |sim| {
                assert_eq!(sim.now(), SimTime::from_secs(1));
                o2.borrow_mut().push("clamped");
            });
            o.borrow_mut().push("outer");
        });
        sim.run();
        assert_eq!(*order.borrow(), vec!["outer", "clamped"]);
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Sim::new(0);
        let fired = Rc::new(RefCell::new(Vec::new()));
        for s in [1u64, 2, 3, 4] {
            let fired = Rc::clone(&fired);
            sim.schedule(SimDuration::from_secs(s), move |_| fired.borrow_mut().push(s));
        }
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(*fired.borrow(), vec![1, 2]);
        assert_eq!(sim.now(), SimTime::from_secs(2));
        assert_eq!(sim.events_pending(), 2);
        // Queue drains before a later deadline: the clock still lands on it.
        sim.run_until(SimTime::from_secs(100));
        assert_eq!(sim.now(), SimTime::from_secs(100));
    }

    #[test]
    fn periodic_events_tick_until_cancelled() {
        let mut sim = Sim::new(0);
        let times = Rc::new(RefCell::new(Vec::new()));
        let t = Rc::clone(&times);
        every(&mut sim, SimTime::from_secs(1), SimDuration::from_secs(2), move |sim| {
            t.borrow_mut().push(sim.now().as_secs_f64() as u64);
            t.borrow().len() < 3
        });
        sim.run();
        assert_eq!(*times.borrow(), vec![1, 3, 5]);
    }

    #[test]
    fn determinism_across_identical_runs() {
        fn run_once() -> Vec<u64> {
            let mut sim = Sim::new(777);
            let log = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..100 {
                let delay = SimDuration::from_nanos(sim.rng().gen_range(0..1_000_000));
                let log = Rc::clone(&log);
                sim.schedule(delay, move |sim| log.borrow_mut().push(sim.now().as_nanos()));
            }
            sim.run();
            let v = log.borrow().clone();
            v
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn closure_slots_are_recycled() {
        let mut sim = Sim::new(0);
        // Schedule-and-fire in a chain: at any instant only one closure is
        // parked, so the slab should stay at a single slot.
        fn chain(sim: &mut Sim, left: u32) {
            if left > 0 {
                sim.schedule(SimDuration::from_millis(1), move |sim| chain(sim, left - 1));
            }
        }
        chain(&mut sim, 1000);
        sim.run();
        assert_eq!(sim.events_executed(), 1000);
        assert_eq!(sim.closures.len(), 1, "chained one-shot events should reuse one slot");
    }

    #[test]
    fn timer_slots_are_recycled_after_cancellation() {
        let mut sim = Sim::new(0);
        for round in 0..5u32 {
            let mut left = 3;
            every(
                &mut sim,
                SimTime::from_secs(u64::from(round) * 100),
                SimDuration::from_secs(1),
                move |_| {
                    left -= 1;
                    left > 0
                },
            );
            sim.run();
        }
        assert_eq!(sim.timers.len(), 1, "sequential timers should reuse one slot");
    }

    #[test]
    fn timer_tick_can_register_new_timers() {
        let mut sim = Sim::new(0);
        let ticks = Rc::new(RefCell::new(Vec::new()));
        let outer_log = Rc::clone(&ticks);
        every(&mut sim, SimTime::ZERO, SimDuration::from_secs(10), move |sim| {
            outer_log.borrow_mut().push("outer");
            let inner_log = Rc::clone(&outer_log);
            let mut inner_left = 2;
            every(sim, sim.now() + SimDuration::from_secs(1), SimDuration::from_secs(1), move |_| {
                inner_log.borrow_mut().push("inner");
                inner_left -= 1;
                inner_left > 0
            });
            outer_log.borrow().iter().filter(|s| **s == "outer").count() < 2
        });
        sim.run();
        assert_eq!(
            *ticks.borrow(),
            vec!["outer", "inner", "inner", "outer", "inner", "inner"]
        );
    }
}
