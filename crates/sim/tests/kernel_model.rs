//! Executable model of the event kernel and its queueing stations.
//!
//! [`Sim`] keeps its pending events in a hierarchical timing wheel and
//! their closures in a slab; a [`Station`] parks each waiting job's
//! completion in a FIFO. What the two must do is written down here as a
//! plain future-event list: a `BinaryHeap` of `(at, seq)` keys with the
//! actions in a map, and two k-server FIFO stations. The contract it
//! states:
//!
//! * events fire in ascending `(at, seq)` order, where `seq` is the order
//!   of scheduling calls, and an instant in the past is clamped to now;
//! * an `every` tick schedules its successor one period after it fires;
//! * a job starts at submission if a server is free and otherwise waits
//!   in arrival order; a completion frees its server, runs the job's
//!   `done` and only then starts the next waiting job (one per
//!   completion, so a grown station admits its backlog as jobs finish),
//!   and charges that job the time it waited.
//!
//! Random programs of nested closures (children and grandchildren, some
//! scheduled into the past), timers, jobs on a 1-server and a 2-server
//! station and station resizes, mixed or of one kind each, at a tick of 1 ns to 30 ms so that their
//! events reach every level of the wheel and its overflow list, run as
//! closures on the kernel and are interpreted by the model. Every job's
//! `done` schedules a same-instant follow-up, so the order of `done` and
//! the next job's start shows up in the log. Both runs must give the same
//! firing log (virtual time and label of every firing), final clock,
//! executed-event count and statistics of both stations.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::rc::Rc;

use lambda_sim::{every, Sim, SimDuration, SimTime, Station, StationStats};
use proptest::prelude::*;

/// Label bit of a job's same-instant follow-up event.
const FOLLOW_UP: u32 = 1 << 31;
/// Servers of the two stations at the start of every program.
const SERVERS: [u32; 2] = [1, 2];

/// A one-shot event: fires `delay` units after the instant it is
/// scheduled from (before it, clamped to now, when `past`), logs `id` and
/// schedules its children.
#[derive(Debug, Clone)]
struct Closure {
    id: u32,
    delay: u64,
    past: bool,
    children: Vec<Closure>,
}

/// One top-level statement of a program, scheduled at time zero in
/// program order. Times are in units of the program's tick.
#[derive(Debug, Clone)]
enum Item {
    Closure(Closure),
    /// `every(first, period)` logging `id`, firing `ticks` times.
    Timer {
        id: u32,
        first: u64,
        period: u64,
        ticks: u32,
    },
    /// A job of `service` submitted at `submit_at`; its `done` logs `id`.
    Job {
        id: u32,
        submit_at: u64,
        service: u64,
        station: usize,
    },
    Resize {
        at: u64,
        station: usize,
        servers: u32,
    },
}

fn closure(children: impl Strategy<Value = Vec<Closure>>) -> impl Strategy<Value = Closure> {
    (0..8u64, any::<bool>(), children).prop_map(|(delay, past, children)| Closure {
        id: 0,
        delay,
        past,
        children,
    })
}

fn closure_item() -> impl Strategy<Value = Item> {
    let grandchild = closure(Just(Vec::new()));
    let child = closure(prop::collection::vec(grandchild, 0..3));
    closure(prop::collection::vec(child, 0..4)).prop_map(Item::Closure)
}

fn timer_item() -> impl Strategy<Value = Item> {
    (0..6u64, 1..5u64, 1..6u32)
        .prop_map(|(first, period, ticks)| Item::Timer { id: 0, first, period, ticks })
}

fn job_item() -> impl Strategy<Value = Item> {
    (0..12u64, 0..10u64, 0..2usize)
        .prop_map(|(submit_at, service, station)| Item::Job { id: 0, submit_at, service, station })
}

fn resize_item() -> impl Strategy<Value = Item> {
    (0..12u64, 0..2usize, 1..4u32)
        .prop_map(|(at, station, servers)| Item::Resize { at, station, servers })
}

/// A program of up to 40 statements drawn from `item`, at a random tick.
/// Program times come from tiny ranges, so same-instant collisions are
/// common; the tick spreads them over the wheel's levels and overflow.
fn program(item: impl Strategy<Value = Item>) -> impl Strategy<Value = (u64, Vec<Item>)> {
    let tick = prop::sample::select(vec![1, 1_000, 100_000, 30_000_000]);
    (tick, prop::collection::vec(item, 0..40)).prop_map(|(tick, mut items)| {
        label(&mut items);
        (tick, items)
    })
}

/// Gives every event of `program` that logs a distinct label.
fn label(program: &mut [Item]) {
    fn closure(c: &mut Closure, next: &mut u32) {
        *next += 1;
        c.id = *next;
        c.children.iter_mut().for_each(|child| closure(child, next));
    }
    let mut next = 0;
    for item in program {
        match item {
            Item::Closure(c) => closure(c, &mut next),
            Item::Timer { id, .. } | Item::Job { id, .. } => {
                next += 1;
                *id = next;
            }
            Item::Resize { .. } => {}
        }
    }
}

/// What a run shows: the firing log `(ns, label)`, the final clock, the
/// executed-event count and both stations' statistics.
type Outcome = (Vec<(u64, u32)>, u64, u64, [StationStats; 2]);

type Log = Rc<RefCell<Vec<(u64, u32)>>>;

fn record(log: &Log, sim: &Sim, label: u32) {
    log.borrow_mut().push((sim.now().as_nanos(), label));
}

fn arm(sim: &mut Sim, log: &Log, tick: u64, closure: Closure) {
    let Closure { id, delay, past, children } = closure;
    let log = Rc::clone(log);
    let fire = move |sim: &mut Sim| {
        record(&log, sim, id);
        for child in children {
            arm(sim, &log, tick, child);
        }
    };
    if past {
        let at = sim.now().as_nanos().saturating_sub(delay * tick);
        sim.schedule_at(SimTime::from_nanos(at), fire);
    } else {
        sim.schedule(SimDuration::from_nanos(delay * tick), fire);
    }
}

/// Runs `program` as closures on [`Sim`] and [`Station`].
fn run_kernel(tick: u64, program: &[Item]) -> Outcome {
    let units = move |n: u64| SimDuration::from_nanos(n * tick);
    let log: Log = Rc::default();
    let mut sim = Sim::new(7);
    let stations = SERVERS.map(|servers| Station::new("s", servers));
    for item in program.iter().cloned() {
        match item {
            Item::Closure(closure) => arm(&mut sim, &log, tick, closure),
            Item::Timer { id, first, period, ticks } => {
                let log = Rc::clone(&log);
                let mut left = ticks;
                every(&mut sim, SimTime::ZERO + units(first), units(period), move |sim| {
                    record(&log, sim, id);
                    left -= 1;
                    left > 0
                });
            }
            Item::Job { id, submit_at, service, station } => {
                let log = Rc::clone(&log);
                let station = Rc::clone(&stations[station]);
                sim.schedule(units(submit_at), move |sim| {
                    Station::submit(&station, sim, units(service), move |sim| {
                        record(&log, sim, id);
                        sim.schedule(SimDuration::ZERO, move |sim| {
                            record(&log, sim, id | FOLLOW_UP)
                        });
                    });
                });
            }
            Item::Resize { at, station, servers } => {
                let station = Rc::clone(&stations[station]);
                sim.schedule(units(at), move |_| station.borrow_mut().set_servers(servers));
            }
        }
    }
    sim.run();
    let stats = stations.map(|station| station.borrow().stats());
    let log = Rc::try_unwrap(log).expect("run complete").into_inner();
    (log, sim.now().as_nanos(), sim.events_executed(), stats)
}

/// A scheduled action of the model. Durations are in ticks.
enum Action {
    Fire(Closure),
    Tick { id: u32, period: u64, left: u32 },
    Submit { id: u32, service: u64, station: usize },
    Complete { id: u32, service: u64, station: usize },
    FollowUp(u32),
    Resize { station: usize, servers: u32 },
}

/// A k-server FIFO station: waiting jobs are `(id, service, enqueued_at)`.
#[derive(Default)]
struct ModelStation {
    servers: u32,
    busy: u32,
    waiting: VecDeque<(u32, u64, u64)>,
    stats: StationStats,
}

/// The future-event list; the clock is in nanoseconds.
#[derive(Default)]
struct Model {
    tick: u64,
    now: u64,
    next_seq: u64,
    queue: BinaryHeap<Reverse<(u64, u64)>>,
    actions: HashMap<u64, Action>,
    executed: u64,
    stations: [ModelStation; 2],
    log: Vec<(u64, u32)>,
}

impl Model {
    fn schedule(&mut self, at: u64, action: Action) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse((at.max(self.now), seq)));
        self.actions.insert(seq, action);
    }

    /// Schedules `action` `ticks` ticks from now.
    fn after(&mut self, ticks: u64, action: Action) {
        self.schedule(self.now + ticks * self.tick, action);
    }

    fn schedule_closure(&mut self, closure: Closure) {
        let offset = closure.delay * self.tick;
        let at = if closure.past { self.now.saturating_sub(offset) } else { self.now + offset };
        self.schedule(at, Action::Fire(closure));
    }

    fn fire(&mut self, action: Action) {
        let now = self.now;
        match action {
            Action::Fire(closure) => {
                self.log.push((now, closure.id));
                for child in closure.children {
                    self.schedule_closure(child);
                }
            }
            Action::Tick { id, period, left } => {
                self.log.push((now, id));
                if left > 1 {
                    self.after(period, Action::Tick { id, period, left: left - 1 });
                }
            }
            Action::Submit { id, service, station } => {
                let st = &mut self.stations[station];
                st.stats.arrivals += 1;
                if st.busy < st.servers {
                    st.busy += 1;
                    self.after(service, Action::Complete { id, service, station });
                } else {
                    st.waiting.push_back((id, service, now));
                }
            }
            Action::Complete { id, service, station } => {
                let st = &mut self.stations[station];
                st.stats.completions += 1;
                st.stats.busy_time += SimDuration::from_nanos(service * self.tick);
                st.busy -= 1;
                let next = if st.busy < st.servers { st.waiting.pop_front() } else { None };
                if next.is_some() {
                    st.busy += 1;
                }
                // `done` runs first: its follow-up takes the next sequence
                // number at this instant, ahead of the next job's start.
                self.log.push((now, id));
                self.schedule(now, Action::FollowUp(id));
                if let Some((id, service, enqueued_at)) = next {
                    self.stations[station].stats.wait_time +=
                        SimDuration::from_nanos(now - enqueued_at);
                    self.after(service, Action::Complete { id, service, station });
                }
            }
            Action::FollowUp(id) => self.log.push((now, id | FOLLOW_UP)),
            Action::Resize { station, servers } => self.stations[station].servers = servers,
        }
    }
}

/// Interprets `program` on the model.
fn run_model(tick: u64, program: &[Item]) -> Outcome {
    let mut model = Model { tick, ..Model::default() };
    for (station, servers) in model.stations.iter_mut().zip(SERVERS) {
        station.servers = servers;
    }
    for item in program.iter().cloned() {
        match item {
            Item::Closure(closure) => model.schedule_closure(closure),
            Item::Timer { id, first, period, ticks } => {
                model.after(first, Action::Tick { id, period, left: ticks });
            }
            Item::Job { id, submit_at, service, station } => {
                model.after(submit_at, Action::Submit { id, service, station });
            }
            Item::Resize { at, station, servers } => {
                model.after(at, Action::Resize { station, servers });
            }
        }
    }
    while let Some(Reverse((at, seq))) = model.queue.pop() {
        model.now = at;
        model.executed += 1;
        let action = model.actions.remove(&seq).expect("every key has its action");
        model.fire(action);
    }
    let stats = model.stations.map(|station| station.stats);
    (model.log, model.now, model.executed, stats)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn kernel_matches_the_future_event_list_model((tick, program) in program(prop_oneof![
        4 => closure_item(),
        2 => timer_item(),
        6 => job_item(),
        1 => resize_item(),
    ])) {
        prop_assert_eq!(run_kernel(tick, &program), run_model(tick, &program));
    }
}

// Programs of one kind of event each, so a failure points at the rule
// that broke: nested and past-clamped closures; timers interleaved with
// one-shot closures; jobs and resizes on the two stations.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn closure_programs_match_the_model((tick, program) in program(closure_item())) {
        prop_assert_eq!(run_kernel(tick, &program), run_model(tick, &program));
    }

    #[test]
    fn timer_programs_match_the_model((tick, program) in program(prop_oneof![
        2 => timer_item(),
        1 => closure_item(),
    ])) {
        prop_assert_eq!(run_kernel(tick, &program), run_model(tick, &program));
    }

    #[test]
    fn station_programs_match_the_model((tick, program) in program(prop_oneof![
        6 => job_item(),
        1 => resize_item(),
    ])) {
        prop_assert_eq!(run_kernel(tick, &program), run_model(tick, &program));
    }
}

/// A fixed program that exercises every rule at once: same-instant
/// closures, a timer, zero-service jobs queued behind each other on both
/// stations, a grow while jobs wait, and clamped past schedules.
#[test]
fn kernel_matches_the_model_on_a_mixed_program() {
    fn at(delay: u64, past: bool, children: Vec<Closure>) -> Closure {
        Closure { id: 0, delay, past, children }
    }
    let job = |submit_at, service, station| Item::Job { id: 0, submit_at, service, station };
    let mut program = vec![
        Item::Timer { id: 0, first: 0, period: 3, ticks: 5 },
        Item::Closure(at(
            2,
            false,
            vec![
                at(1, true, vec![at(0, true, vec![]), at(2, false, vec![])]),
                at(0, false, vec![]),
            ],
        )),
        job(0, 2, 0),
        job(0, 0, 0),
        job(0, 0, 0),
        job(1, 4, 1),
        job(1, 4, 1),
        job(1, 0, 1),
        Item::Resize { at: 1, station: 0, servers: 3 },
        job(1, 1, 0),
        Item::Closure(at(0, false, vec![at(3, true, vec![])])),
    ];
    label(&mut program);
    assert_eq!(run_kernel(1_000, &program), run_model(1_000, &program));
}
