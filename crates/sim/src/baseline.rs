//! The pre-slab DES kernel, preserved verbatim as a reference
//! implementation.
//!
//! [`BoxedSim`] is the engine this crate shipped before the slab/enum
//! event-store rewrite (see the [`engine`](crate::engine) docs): every
//! scheduled event is a `Box<dyn FnOnce>` carried *inside* the binary-heap
//! entry, station completions box a fresh closure per job, and periodic
//! events re-box their tick closure every period. It exists for one
//! purpose, differential testing: the property tests in
//! `crates/sim/tests/differential.rs` drive [`BoxedSim`] and
//! [`Sim`](crate::Sim) with identical schedules and require identical
//! firing orders, clocks, and station statistics.
//!
//! Nothing outside tests should use this module (`scripts/verify.sh`
//! fails if any other `.rs` file names it).

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::rc::Rc;

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A scheduled one-shot action (boxed per event).
pub type BoxedEvent = Box<dyn FnOnce(&mut BoxedSim)>;

struct Entry {
    at: SimTime,
    seq: u64,
    event: BoxedEvent,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The boxed-closure reference engine. API mirrors [`Sim`](crate::Sim).
pub struct BoxedSim {
    now: SimTime,
    queue: BinaryHeap<Entry>,
    next_seq: u64,
    rng: SimRng,
    executed: u64,
}

impl fmt::Debug for BoxedSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoxedSim")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

impl BoxedSim {
    /// Creates an engine with an empty queue, the clock at
    /// [`SimTime::ZERO`], and an RNG seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        BoxedSim {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            next_seq: 0,
            rng: SimRng::new(seed),
            executed: 0,
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

    /// Schedules `event` to fire at the absolute instant `at` (clamped to
    /// now).
    pub fn schedule_at<F>(&mut self, at: SimTime, event: F)
    where
        F: FnOnce(&mut BoxedSim) + 'static,
    {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Entry { at, seq, event: Box::new(event) });
    }

    /// Schedules `event` to fire `after` from now.
    pub fn schedule<F>(&mut self, after: SimDuration, event: F)
    where
        F: FnOnce(&mut BoxedSim) + 'static,
    {
        self.schedule_at(self.now + after, event);
    }

    /// Executes the next pending event; `false` if the queue was empty.
    pub fn step(&mut self) -> bool {
        match self.queue.pop() {
            Some(entry) => {
                debug_assert!(entry.at >= self.now, "event queue time went backwards");
                self.now = entry.at;
                self.executed += 1;
                (entry.event)(self);
                true
            }
            None => false,
        }
    }

    /// Runs until the event queue drains.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs all events at or before `deadline`, then advances the clock to
    /// it.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(entry) = self.queue.peek() {
            if entry.at > deadline {
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

/// Periodic events on the boxed engine: re-boxes `tick` every period, the
/// way [`every`](crate::every) used to.
pub fn boxed_every<F>(sim: &mut BoxedSim, first: SimTime, period: SimDuration, tick: F)
where
    F: FnMut(&mut BoxedSim) -> bool + 'static,
{
    assert!(!period.is_zero(), "periodic event with zero period would not advance time");
    fn arm<F>(sim: &mut BoxedSim, at: SimTime, period: SimDuration, mut tick: F)
    where
        F: FnMut(&mut BoxedSim) -> bool + 'static,
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

/// A shared handle to a [`BoxedStation`].
pub type BoxedStationRef = Rc<RefCell<BoxedStation>>;

struct BoxedJob {
    service: SimDuration,
    enqueued_at: SimTime,
    done: BoxedEvent,
}

/// The boxed-closure reference station: each completion schedules a freshly
/// boxed closure on [`BoxedSim`]. Statistics match
/// [`StationStats`](crate::StationStats) field-for-field.
#[derive(Debug)]
pub struct BoxedStation {
    servers: u32,
    busy: u32,
    waiting: VecDeque<BoxedJob>,
    stats: crate::StationStats,
}

impl fmt::Debug for BoxedJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BoxedJob").field("service", &self.service).finish()
    }
}

impl BoxedStation {
    /// Creates a station with `servers` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    #[must_use]
    pub fn new(servers: u32) -> BoxedStationRef {
        assert!(servers > 0, "a station needs at least one server");
        Rc::new(RefCell::new(BoxedStation {
            servers,
            busy: 0,
            waiting: VecDeque::new(),
            stats: crate::StationStats::default(),
        }))
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> crate::StationStats {
        self.stats
    }

    /// Resizes the station (shrinking drains naturally).
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn set_servers(&mut self, servers: u32) {
        assert!(servers > 0, "a station needs at least one server");
        self.servers = servers;
    }

    /// Submits a job requiring `service` time; `done` fires at completion.
    pub fn submit<F>(this: &BoxedStationRef, sim: &mut BoxedSim, service: SimDuration, done: F)
    where
        F: FnOnce(&mut BoxedSim) + 'static,
    {
        let job = BoxedJob { service, enqueued_at: sim.now(), done: Box::new(done) };
        let start = {
            let mut st = this.borrow_mut();
            st.stats.arrivals += 1;
            if st.busy < st.servers {
                st.busy += 1;
                Some(job)
            } else {
                st.waiting.push_back(job);
                None
            }
        };
        if let Some(job) = start {
            Self::run_job(this, sim, job);
        }
    }

    fn run_job(this: &BoxedStationRef, sim: &mut BoxedSim, job: BoxedJob) {
        let wait = sim.now().saturating_since(job.enqueued_at);
        this.borrow_mut().stats.wait_time += wait;
        let handle = Rc::clone(this);
        let BoxedJob { service, done, .. } = job;
        sim.schedule(service, move |sim| {
            let next = {
                let mut st = handle.borrow_mut();
                st.stats.completions += 1;
                st.stats.busy_time += service;
                st.busy -= 1;
                if st.busy < st.servers {
                    let next = st.waiting.pop_front();
                    if next.is_some() {
                        st.busy += 1;
                    }
                    next
                } else {
                    None
                }
            };
            done(sim);
            if let Some(next) = next {
                BoxedStation::run_job(&handle, sim, next);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn boxed_engine_matches_documented_semantics() {
        let mut sim = BoxedSim::new(0);
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let log = Rc::clone(&log);
            sim.schedule(SimDuration::from_millis(5), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..5).collect::<Vec<_>>());
        assert_eq!(sim.events_executed(), 5);
    }

    #[test]
    fn boxed_station_serializes_jobs() {
        let mut sim = BoxedSim::new(0);
        let station = BoxedStation::new(1);
        let done = Rc::new(Cell::new(0u32));
        for _ in 0..3 {
            let done = Rc::clone(&done);
            BoxedStation::submit(&station, &mut sim, SimDuration::from_millis(10), move |_| {
                done.set(done.get() + 1);
            });
        }
        sim.run();
        assert_eq!(done.get(), 3);
        assert_eq!(sim.now().as_millis_f64(), 30.0);
        assert_eq!(station.borrow().stats().completions, 3);
    }

    #[test]
    fn boxed_every_ticks_until_cancelled() {
        let mut sim = BoxedSim::new(0);
        let ticks = Rc::new(Cell::new(0u32));
        let t = Rc::clone(&ticks);
        boxed_every(&mut sim, SimTime::ZERO, SimDuration::from_secs(1), move |_| {
            t.set(t.get() + 1);
            t.get() < 4
        });
        sim.run();
        assert_eq!(ticks.get(), 4);
    }
}
