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
//! The kernel schedules exactly one kind of event: a boxed `FnOnce`
//! ([`Event`]) parked in a slab (`Vec<Option<Event>>` plus a free list).
//! The pending-event store is a hierarchical timing wheel (see
//! [`wheel`](crate::wheel)) ordering small `Copy` [`Entry`] records —
//! `(at, seq, slot)` — so pushes are O(1), pops near-O(1), and bucket
//! moves never run destructors. A slot is recycled the moment its event
//! fires, so a steady-state workload touches the same few slab cells.
//!
//! Everything else is built on [`Sim::schedule`]: [`every`] re-arms a
//! periodic tick by scheduling the next one as an ordinary event, and a
//! [`Station`](crate::Station) job's completion is an ordinary event that
//! owns the station handle, the service time and the caller's callback.

use std::fmt;

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::wheel::{Entry, EventWheel};

/// A scheduled one-shot action.
pub type Event = Box<dyn FnOnce(&mut Sim)>;

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
    /// Pending events, named by slot from the wheel's entries; indices are
    /// recycled through `free_slots`.
    events: Vec<Option<Event>>,
    free_slots: Vec<u32>,
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
            events: Vec::new(),
            free_slots: Vec::new(),
        }
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

    /// Parks `event` in the slab and queues it at `at` (clamped to now),
    /// consuming one sequence number. All scheduling funnels through here,
    /// so same-instant FIFO order is exactly the order of scheduling calls.
    #[inline]
    pub(crate) fn schedule_event(&mut self, at: SimTime, event: Event) {
        let slot = match self.free_slots.pop() {
            Some(slot) => {
                debug_assert!(self.events[slot as usize].is_none());
                self.events[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.events.len()).expect("event slab overflow");
                self.events.push(Some(event));
                slot
            }
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Entry { at: at.max(self.now), seq, slot });
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    ///
    /// Instants in the past are clamped to "now" (the event fires next, in
    /// FIFO order with other events at the current instant).
    pub fn schedule_at<F>(&mut self, at: SimTime, event: F)
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        self.schedule_event(at, Box::new(event));
    }

    /// Schedules `event` to fire `after` from now.
    pub fn schedule<F>(&mut self, after: SimDuration, event: F)
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        self.schedule_at(self.now + after, event);
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
        let event = self.events[entry.slot as usize].take().expect("event slot fired twice");
        self.free_slots.push(entry.slot);
        event(self);
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
/// resampling. Each tick is an ordinary event; a tick that returns `true`
/// schedules the next one `period` later.
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
    fn arm<F>(sim: &mut Sim, at: SimTime, period: SimDuration, mut tick: F)
    where
        F: FnMut(&mut Sim) -> bool + 'static,
    {
        sim.schedule_at(at, move |sim| {
            if tick(sim) {
                let next = sim.now() + period;
                arm(sim, next, period, tick);
            }
        });
    }
    arm(sim, first, period, tick);
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
        assert_eq!(sim.events.len(), 1, "chained one-shot events should reuse one slot");
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
        assert_eq!(sim.events.len(), 1, "sequential timers' ticks should reuse one slot");
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
