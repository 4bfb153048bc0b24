//! Multi-server FIFO queueing stations.
//!
//! A [`Station`] models a compute resource with `k` parallel servers (≈
//! vCPUs): a NameNode instance, one NDB shard, a CephFS MDS, an IndexFS
//! server. Work is submitted with a service time; if a server is free the
//! job starts immediately, otherwise it waits in FIFO order. Saturation,
//! queueing delay, and throughput ceilings in the reproduced experiments all
//! emerge from these stations.
//!
//! # Completions
//!
//! Submitting boxes one completion [`Event`] that owns a handle to the
//! station, the service time and the caller's `done` callback. A job that
//! starts at once hands it straight to [`Sim`]; a job that must wait parks
//! it in the station's FIFO until a completion frees a server. The engine
//! keeps no record of stations: an in-flight completion is what keeps its
//! station alive, so a station whose other handles are gone is freed when
//! its last job ends. A waiting job's completion holds the station too, so
//! a `Sim` dropped while jobs still wait leaves their station allocated
//! unless its owner drops them with [`Station::abandon_waiting`].

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;

use crate::engine::{Event, Sim};
use crate::time::{SimDuration, SimTime};

/// A shared handle to a station.
pub type StationRef = Rc<RefCell<Station>>;

/// A job waiting for a server, with the completion to schedule once it
/// starts.
struct Waiting {
    service: SimDuration,
    enqueued_at: SimTime,
    completion: Event,
}

impl fmt::Debug for Waiting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Waiting").field("service", &self.service).finish()
    }
}

/// Cumulative occupancy statistics for a station.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StationStats {
    /// Jobs submitted.
    pub arrivals: u64,
    /// Jobs completed.
    pub completions: u64,
    /// Total server-busy time integrated over the run.
    pub busy_time: SimDuration,
    /// Total time jobs spent waiting in the queue (excludes service).
    pub wait_time: SimDuration,
}

impl StationStats {
    /// Mean queueing delay per completed job.
    #[must_use]
    pub fn mean_wait(&self) -> SimDuration {
        if self.completions == 0 {
            SimDuration::ZERO
        } else {
            self.wait_time.div_u64(self.completions)
        }
    }

    /// Average utilization of the station's servers over `elapsed` with
    /// `servers` servers, in `[0, 1]`.
    #[must_use]
    pub fn utilization(&self, servers: u32, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() || servers == 0 {
            0.0
        } else {
            (self.busy_time.as_secs_f64() / (servers as f64 * elapsed.as_secs_f64())).min(1.0)
        }
    }
}

/// A `k`-server FIFO queueing station.
///
/// # Examples
///
/// ```
/// use lambda_sim::{Sim, SimDuration, Station};
/// use std::cell::Cell;
/// use std::rc::Rc;
///
/// let mut sim = Sim::new(0);
/// let station = Station::new("worker", 1);
/// let done = Rc::new(Cell::new(0u32));
/// for _ in 0..3 {
///     let done = Rc::clone(&done);
///     Station::submit(&station, &mut sim, SimDuration::from_millis(10), move |_| {
///         done.set(done.get() + 1);
///     });
/// }
/// sim.run();
/// assert_eq!(done.get(), 3);
/// // One server, three 10ms jobs: finishes at t = 30ms.
/// assert_eq!(sim.now().as_millis_f64(), 30.0);
/// ```
#[derive(Debug)]
pub struct Station {
    name: String,
    servers: u32,
    busy: u32,
    /// Jobs waiting for a server, in arrival order.
    waiting: VecDeque<Waiting>,
    stats: StationStats,
}

impl Station {
    /// Creates a station with `servers` parallel servers.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    #[must_use]
    pub fn new(name: impl Into<String>, servers: u32) -> StationRef {
        assert!(servers > 0, "a station needs at least one server");
        Rc::new(RefCell::new(Station {
            name: name.into(),
            servers,
            busy: 0,
            waiting: VecDeque::new(),
            stats: StationStats::default(),
        }))
    }

    /// The station's name (for diagnostics).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The number of parallel servers.
    #[must_use]
    pub fn servers(&self) -> u32 {
        self.servers
    }

    /// Servers currently busy.
    #[must_use]
    pub fn busy(&self) -> u32 {
        self.busy
    }

    /// Jobs waiting for a server.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        self.waiting.len()
    }

    /// In-flight load: busy servers plus queued jobs.
    #[must_use]
    pub fn load(&self) -> usize {
        self.busy as usize + self.waiting.len()
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> StationStats {
        self.stats
    }

    /// Resizes the station. Shrinking never interrupts running jobs; excess
    /// busy servers drain naturally as their jobs complete.
    ///
    /// # Panics
    ///
    /// Panics if `servers == 0`.
    pub fn set_servers(&mut self, servers: u32) {
        assert!(servers > 0, "a station needs at least one server");
        self.servers = servers;
    }

    /// Drops every waiting job, completion and `done` callback included,
    /// without running it; jobs already in service are untouched. For the
    /// teardown of a system whose simulation will not run them.
    pub fn abandon_waiting(this: &StationRef) {
        let waiting = std::mem::take(&mut this.borrow_mut().waiting);
        drop(waiting);
    }

    /// Submits a job requiring `service` time; `done` fires at completion.
    pub fn submit<F>(this: &StationRef, sim: &mut Sim, service: SimDuration, done: F)
    where
        F: FnOnce(&mut Sim) + 'static,
    {
        let station = Rc::clone(this);
        let completion: Event =
            Box::new(move |sim| Station::complete(&station, sim, service, done));
        let mut st = this.borrow_mut();
        st.stats.arrivals += 1;
        if st.busy < st.servers {
            // Immediate start: the job never waits, so the wait-time
            // accounting a queued start needs is skipped entirely.
            st.busy += 1;
            drop(st);
            sim.schedule_event(sim.now() + service, completion);
        } else {
            st.waiting.push_back(Waiting { service, enqueued_at: sim.now(), completion });
        }
    }

    /// Completes a job of `service`: accounting, the `done` callback, then
    /// starting the next queued job with the time it waited charged (in
    /// that order — callbacks observe the free server, and the next job's
    /// completion is scheduled after any events the callback itself
    /// schedules at this instant).
    fn complete<F>(this: &StationRef, sim: &mut Sim, service: SimDuration, done: F)
    where
        F: FnOnce(&mut Sim),
    {
        let next = {
            let mut st = this.borrow_mut();
            st.stats.completions += 1;
            st.stats.busy_time += service;
            st.busy -= 1;
            let next = if st.busy < st.servers { st.waiting.pop_front() } else { None };
            if next.is_some() {
                st.busy += 1;
            }
            next
        };
        done(sim);
        if let Some(job) = next {
            this.borrow_mut().stats.wait_time += sim.now().saturating_since(job.enqueued_at);
            sim.schedule_event(sim.now() + job.service, job.completion);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn count_jobs(station: &StationRef, sim: &mut Sim, n: u32, service_ms: u64) -> Rc<Cell<u32>> {
        let done = Rc::new(Cell::new(0u32));
        for _ in 0..n {
            let done = Rc::clone(&done);
            Station::submit(station, sim, SimDuration::from_millis(service_ms), move |_| {
                done.set(done.get() + 1);
            });
        }
        done
    }

    #[test]
    fn serial_station_serializes_jobs() {
        let mut sim = Sim::new(0);
        let station = Station::new("s", 1);
        let done = count_jobs(&station, &mut sim, 5, 10);
        sim.run();
        assert_eq!(done.get(), 5);
        assert_eq!(sim.now().as_millis_f64(), 50.0);
        let stats = station.borrow().stats();
        assert_eq!(stats.completions, 5);
        assert_eq!(stats.busy_time, SimDuration::from_millis(50));
        // Jobs 2..5 waited 10, 20, 30, 40 ms respectively.
        assert_eq!(stats.wait_time, SimDuration::from_millis(100));
    }

    #[test]
    fn parallel_servers_run_concurrently() {
        let mut sim = Sim::new(0);
        let station = Station::new("s", 4);
        let done = count_jobs(&station, &mut sim, 4, 10);
        sim.run();
        assert_eq!(done.get(), 4);
        assert_eq!(sim.now().as_millis_f64(), 10.0);
        assert_eq!(station.borrow().stats().wait_time, SimDuration::ZERO);
    }

    #[test]
    fn mixed_load_queues_in_fifo_order() {
        let mut sim = Sim::new(0);
        let station = Station::new("s", 2);
        let order = Rc::new(RefCell::new(Vec::new()));
        for (i, ms) in [(0, 30u64), (1, 10), (2, 5), (3, 5)] {
            let order = Rc::clone(&order);
            Station::submit(&station, &mut sim, SimDuration::from_millis(ms), move |sim| {
                order.borrow_mut().push((i, sim.now().as_millis_f64() as u64));
            });
        }
        sim.run();
        // Servers: job0 (0-30), job1 (0-10); job2 starts at 10 (10-15);
        // job3 starts at 15 (15-20).
        assert_eq!(*order.borrow(), vec![(1, 10), (2, 15), (3, 20), (0, 30)]);
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let mut sim = Sim::new(0);
        let station = Station::new("s", 2);
        let _ = count_jobs(&station, &mut sim, 2, 10);
        sim.run_until(SimTime::from_nanos(40_000_000));
        let stats = station.borrow().stats();
        // 2 servers busy for 10 of 40 ms -> 25% utilization.
        let util = stats.utilization(2, SimDuration::from_millis(40));
        assert!((util - 0.25).abs() < 1e-9, "utilization {util}");
    }

    #[test]
    fn shrinking_drains_gracefully() {
        let mut sim = Sim::new(0);
        let station = Station::new("s", 2);
        let done = count_jobs(&station, &mut sim, 4, 10);
        station.borrow_mut().set_servers(1);
        sim.run();
        assert_eq!(done.get(), 4);
        // Two jobs started immediately (t=10); the remaining two ran serially
        // on the single remaining server: t=20, t=30.
        assert_eq!(sim.now().as_millis_f64(), 30.0);
    }

    #[test]
    fn growing_mid_run_admits_queued_work_as_jobs_complete() {
        let mut sim = Sim::new(0);
        let station = Station::new("s", 1);
        let done = count_jobs(&station, &mut sim, 3, 10);
        // Grow after the first job completes; the pop-on-completion path
        // admits one queued job per completion, so the backlog still drains.
        let grown = Rc::clone(&station);
        sim.schedule(SimDuration::from_millis(1), move |_| {
            grown.borrow_mut().set_servers(4);
        });
        sim.run();
        assert_eq!(done.get(), 3);
        assert!(sim.now().as_millis_f64() <= 30.0);
    }

    #[test]
    fn mean_wait_is_zero_for_unloaded_station() {
        let stats = StationStats::default();
        assert_eq!(stats.mean_wait(), SimDuration::ZERO);
        assert_eq!(stats.utilization(4, SimDuration::ZERO), 0.0);
    }

    #[test]
    fn in_flight_jobs_keep_a_dropped_station_alive_until_the_last_ends() {
        let mut sim = Sim::new(0);
        let station = Station::new("s", 1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..3u32 {
            let order = Rc::clone(&order);
            Station::submit(&station, &mut sim, SimDuration::from_millis(10), move |sim| {
                order.borrow_mut().push((i, sim.now().as_millis_f64() as u64));
            });
        }
        // One job runs and two wait; the last outside handle goes away.
        let weak = Rc::downgrade(&station);
        drop(station);
        sim.run();
        assert_eq!(*order.borrow(), vec![(0, 10), (1, 20), (2, 30)]);
        assert!(weak.upgrade().is_none(), "the engine must not keep a finished station alive");
    }

    #[test]
    fn abandoned_waiting_jobs_never_run_and_free_their_station() {
        let station = Station::new("s", 1);
        let weak = Rc::downgrade(&station);
        let done = {
            let mut sim = Sim::new(0);
            let done = count_jobs(&station, &mut sim, 3, 10);
            Station::abandon_waiting(&station);
            assert_eq!(station.borrow().queue_len(), 0);
            sim.run();
            done
        };
        assert_eq!(done.get(), 1, "only the job in service completes");
        drop(station);
        assert!(weak.upgrade().is_none(), "no abandoned job keeps the station alive");

        // Without abandoning, a simulation dropped while two jobs wait
        // leaves the station alive through their completions.
        let station = Station::new("s", 1);
        let weak = Rc::downgrade(&station);
        let mut sim = Sim::new(0);
        let _ = count_jobs(&station, &mut sim, 3, 10);
        drop(sim);
        drop(station);
        let leaked = weak.upgrade().expect("waiting jobs hold their station");
        Station::abandon_waiting(&leaked);
        drop(leaked);
        assert!(weak.upgrade().is_none());
    }
}
