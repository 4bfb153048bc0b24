//! Layer probes: the host cost of one unit of each layer's work, measured
//! by driving the layer's public functions in isolation, sized from what
//! the timed window itself counted.
//!
//! Probes run hot (tight loop, warm caches, no interleaving with the rest
//! of the simulation), so each unit cost — and every `*.host_share` built
//! from it — is a **lower bound** on what the layer costs inside a run.
//! Probes that need the event kernel to make progress (faas, store
//! transactions, coord) subtract the kernel's own cost for the events they
//! executed, so a layer's share does not count the kernel twice.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use lambda_coord::Coordinator;
use lambda_faas::{Function, FunctionConfig, InstanceCtx, Platform, PlatformConfig, Responder};
use lambda_lsm::{LsmConfig, LsmTree};
use lambda_namespace::{DfsPath, Inode, InodeName, MetadataCache, ROOT_INODE_ID};
use lambda_sim::params::{NetParams, StoreParams};
use lambda_sim::{Sim, SimDuration, SimRng, Station};
use lambda_store::{Db, LockMode};

use crate::trace::Tracer;
use crate::workloads::Built;

/// Host nanoseconds per unit of each layer's work.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    pub sim_ns_per_event: f64,
    pub faas_ns_per_tcp: f64,
    pub faas_ns_per_http: f64,
    pub ns_lookup_hit: f64,
    pub ns_resolve_miss: f64,
    pub store_ns_per_get: f64,
    pub store_ns_per_txn: f64,
    pub coord_ns_per_send: f64,
    pub lsm_ns_per_put: f64,
}

/// What the window counted that sizes the probes.
#[derive(Debug, Clone, Copy)]
pub struct ProbeSizing {
    pub pending_events: usize,
    pub instances: usize,
    pub cached_inodes_per_instance: usize,
}

/// Paths each path-taking probe cycles through: enough that the targets do
/// not all sit in the host's caches, few enough to build quickly.
const PROBE_PATHS: usize = 1 << 16;

/// Requests in flight at once in the probes that need the event kernel.
const PROBE_BATCH: usize = 256;

pub fn run_probes(built: &Built, sizing: ProbeSizing, seed: u64, tracer: &mut Tracer) -> Probes {
    let sim_ns_per_event = tracer.span("probe:sim", || probe_sim(sizing.pending_events, seed));
    // What the kernel costs per event inside the probes below, whose own
    // queues hold one batch, not the window's depth.
    let kernel = tracer.span("probe:sim.shallow", || probe_sim(PROBE_BATCH, seed));
    let (faas_ns_per_tcp, faas_ns_per_http) =
        tracer.span("probe:faas", || probe_faas(sizing.instances, kernel, seed));
    Probes {
        sim_ns_per_event,
        faas_ns_per_tcp,
        faas_ns_per_http,
        ns_lookup_hit: tracer.span("probe:namespace.lookup_hit", || {
            probe_cache(sizing.cached_inodes_per_instance, seed)
        }),
        ns_resolve_miss: tracer.span("probe:namespace.resolve_miss", || {
            probe_resolve(built, seed)
        }),
        store_ns_per_get: tracer.span("probe:store.get", || probe_get(built, seed)),
        store_ns_per_txn: tracer.span("probe:store.txn", || probe_txn(kernel, seed)),
        coord_ns_per_send: tracer.span("probe:coord", || probe_coord(kernel, seed)),
        lsm_ns_per_put: tracer.span("probe:lsm", || probe_lsm(seed)),
    }
}

fn per_unit(elapsed_ns: f64, kernel_ns: f64, units: u64) -> f64 {
    ((elapsed_ns - kernel_ns) / units as f64).max(0.0)
}

/// `schedule` + `step` at the pending depth the window held.
fn probe_sim(depth: usize, seed: u64) -> f64 {
    const EVENTS: u64 = 2_000_000;
    let mut sim = Sim::new(seed);
    let mut rng = SimRng::new(seed ^ 0x51);
    let fired = Rc::new(Cell::new(0u64));
    let mut push = |sim: &mut Sim| {
        let fired = Rc::clone(&fired);
        let delay = SimDuration::from_nanos(rng.gen_range(1..1_000_000_000u64));
        sim.schedule(delay, move |_| fired.set(fired.get() + 1));
    };
    for _ in 0..depth.max(1) {
        push(&mut sim);
    }
    let started = Instant::now();
    for _ in 0..EVENTS {
        push(&mut sim);
        sim.step();
    }
    let ns = started.elapsed().as_nanos() as f64;
    assert_eq!(black_box(fired.get()), EVENTS);
    ns / EVENTS as f64
}

/// The smallest function that still goes through the whole request
/// lifecycle: one station job, then the reply.
struct Worker;

impl Function for Worker {
    type Req = u64;
    type Resp = u64;

    fn on_start(&mut self, _sim: &mut Sim, _ctx: &InstanceCtx) {}

    fn on_request(&mut self, sim: &mut Sim, ctx: &InstanceCtx, req: u64, respond: Responder<u64>) {
        Station::submit(&ctx.cpu, sim, SimDuration::from_micros(50), move |sim| {
            respond.send(sim, req)
        });
    }

    fn on_terminate(&mut self, _sim: &mut Sim, _ctx: &InstanceCtx, _graceful: bool) {}
}

/// `deliver_tcp` and `invoke_http` against as many warm instances as the
/// window ran, net of the kernel's share. Returns `(tcp, http)`.
fn probe_faas(instances: usize, kernel_ns: f64, seed: u64) -> (f64, f64) {
    const REQUESTS: u64 = 200_000;
    const CONCURRENCY: u32 = 4;
    let instances = instances.max(1);
    let mut sim = Sim::new(seed);
    let platform: Platform<Worker> = Platform::new(&PlatformConfig {
        cluster_vcpus: instances as u32 * 2,
        ..PlatformConfig::default()
    });
    let dep = platform.register_deployment(
        "probe",
        FunctionConfig {
            vcpus: 1,
            mem_gb: 1.0,
            concurrency: CONCURRENCY,
            max_instances: instances as u32,
            min_instances: 0,
        },
        Box::new(|_ctx| Worker),
    );
    let done = Rc::new(Cell::new(0u64));
    let responder = |done: &Rc<Cell<u64>>| {
        let done = Rc::clone(done);
        Responder::new(move |_sim: &mut Sim, _resp: u64| done.set(done.get() + 1))
    };
    // A saturating burst cold-starts the whole pool.
    let burst = instances as u64 * u64::from(CONCURRENCY);
    for req in 0..burst {
        platform.invoke_http(&mut sim, dep, req, responder(&done));
    }
    sim.run();
    let warm = platform.warm_instances(dep);
    assert!(!warm.is_empty(), "probe pool failed to warm");

    let mut timed = |http: bool| {
        done.set(0);
        let (events_before, started) = (sim.events_executed(), Instant::now());
        let mut sent = 0u64;
        while sent < REQUESTS {
            for i in 0..burst.min(REQUESTS - sent) {
                if http {
                    platform.invoke_http(&mut sim, dep, sent, responder(&done));
                } else {
                    let target = warm[(i % warm.len() as u64) as usize];
                    assert!(platform.deliver_tcp(&mut sim, target, sent, responder(&done)));
                }
                sent += 1;
            }
            sim.run();
        }
        let ns = started.elapsed().as_nanos() as f64;
        assert_eq!(black_box(done.get()), REQUESTS);
        per_unit(
            ns,
            kernel_ns * (sim.events_executed() - events_before) as f64,
            REQUESTS,
        )
    };
    let tcp = timed(false);
    let http = timed(true);
    (tcp, http)
}

/// Full-chain `MetadataCache::lookup` hits on a cache holding as many
/// inodes as one NameNode's cache held.
fn probe_cache(inodes: usize, seed: u64) -> f64 {
    const LOOKUPS: u64 = 2_000_000;
    const FILES: usize = 48;
    let dirs = (inodes / (FILES + 1)).max(1);
    let mut cache = MetadataCache::new(inodes.max(FILES + 2) * 2);
    let file_names: Vec<InodeName> = (0..FILES)
        .map(|f| InodeName::new(&format!("file{f:05}")))
        .collect();
    let mut paths = Vec::with_capacity(dirs * FILES);
    let mut next_id = ROOT_INODE_ID + 1;
    for d in 0..dirs {
        let dir_name = format!("probe{d:07}");
        let dir_path = DfsPath::root().join(&dir_name).expect("valid name");
        let dir = Inode::directory(next_id, ROOT_INODE_ID, dir_name.as_str());
        next_id += 1;
        for name in &file_names {
            let path = dir_path.join_interned(*name);
            let file = Inode::file(next_id, dir.id, *name);
            next_id += 1;
            cache.insert_chain(&path, &[Inode::root(), dir.clone(), file]);
            paths.push(path);
        }
    }
    let mut rng = SimRng::new(seed ^ 0xCA);
    let picks: Vec<DfsPath> = (0..PROBE_PATHS)
        .map(|_| paths[rng.pick_index(paths.len())].clone())
        .collect();
    let started = Instant::now();
    let mut hits = 0u64;
    for i in 0..LOOKUPS as usize {
        hits += u64::from(black_box(cache.lookup(&picks[i % PROBE_PATHS])).is_some());
    }
    let ns = started.elapsed().as_nanos() as f64;
    assert_eq!(hits, LOOKUPS);
    ns / LOOKUPS as f64
}

fn random_file_paths(built: &Built, seed: u64) -> Vec<DfsPath> {
    let mut rng = SimRng::new(seed ^ 0x9A);
    (0..PROBE_PATHS)
        .map(|_| {
            built.dirs[rng.pick_index(built.dirs.len())]
                .join("file00000")
                .expect("bootstrap name is valid")
        })
        .collect()
}

/// `MetadataSchema::peek_chain_ids` — the store-side path resolution a
/// cache miss starts with — over uniformly random bootstrap files, against
/// the run's own tables at their real size.
fn probe_resolve(built: &Built, seed: u64) -> f64 {
    const RESOLVES: u64 = 400_000;
    let paths = random_file_paths(built, seed);
    let (schema, db) = (built.fs.schema(), built.fs.db());
    let started = Instant::now();
    let mut found = 0u64;
    for i in 0..RESOLVES as usize {
        found += u64::from(black_box(schema.peek_chain_ids(db, &paths[i % PROBE_PATHS])).is_some());
    }
    let ns = started.elapsed().as_nanos() as f64;
    assert_eq!(found, RESOLVES, "bootstrap files resolve");
    ns / RESOLVES as f64
}

/// `Db::peek` of uniformly random inode rows of the run's own inode table.
fn probe_get(built: &Built, seed: u64) -> f64 {
    const GETS: u64 = 400_000;
    let (schema, db) = (built.fs.schema(), built.fs.db());
    let rows = built.inodes_at_start.max(2) as u64;
    let mut rng = SimRng::new(seed ^ 0x6E);
    let ids: Vec<u64> = (0..PROBE_PATHS)
        .map(|_| rng.gen_range(ROOT_INODE_ID..rows))
        .collect();
    let started = Instant::now();
    let mut found = 0u64;
    for i in 0..GETS as usize {
        found += u64::from(black_box(db.peek(schema.inodes, &ids[i % PROBE_PATHS])).is_some());
    }
    let ns = started.elapsed().as_nanos() as f64;
    black_box(found);
    ns / GETS as f64
}

/// One-row write transactions (`begin`, exclusive `lock`, `upsert`,
/// `commit`) on an isolated in-memory `Db`, net of the kernel's share.
fn probe_txn(kernel_ns: f64, seed: u64) -> f64 {
    const TXNS: u64 = 100_000;
    const ROWS: u64 = 100_000;
    let mut sim = Sim::new(seed);
    let db = Db::new(&StoreParams::default(), SimDuration::from_secs(5));
    let table = db.create_table::<u64, u64>("probe");
    for key in 0..ROWS {
        db.bootstrap_insert(table, key, 0);
    }
    let committed = Rc::new(Cell::new(0u64));
    let mut rng = SimRng::new(seed ^ 0x7C);
    let (events_before, started) = (sim.events_executed(), Instant::now());
    let mut issued = 0u64;
    while issued < TXNS {
        // Distinct keys within a batch: no lock waits, only the lock,
        // write and commit paths themselves.
        let base = rng.gen_range(0..ROWS - PROBE_BATCH as u64);
        for key in base..base + (PROBE_BATCH as u64).min(TXNS - issued) {
            let txn = db.begin();
            let (db2, committed) = (db.clone(), Rc::clone(&committed));
            db.lock(
                &mut sim,
                txn,
                vec![db.lock_key(table, &key)],
                LockMode::Exclusive,
                move |sim, locked| {
                    locked.expect("uncontended lock");
                    db2.upsert(txn, table, key, issued).expect("lock held");
                    db2.commit(sim, txn, move |_sim, result| {
                        result.expect("commit");
                        committed.set(committed.get() + 1);
                    });
                },
            );
            issued += 1;
        }
        sim.run();
    }
    let ns = started.elapsed().as_nanos() as f64;
    assert_eq!(black_box(committed.get()), TXNS);
    per_unit(
        ns,
        kernel_ns * (sim.events_executed() - events_before) as f64,
        TXNS,
    )
}

/// `Coordinator::send` between two live sessions, net of the kernel.
fn probe_coord(kernel_ns: f64, seed: u64) -> f64 {
    const SENDS: u64 = 200_000;
    let mut sim = Sim::new(seed);
    let coord: Coordinator<u64> =
        Coordinator::new(&NetParams::default(), SimDuration::from_secs(86_400));
    let (from, to) = (
        coord.create_session(&mut sim),
        coord.create_session(&mut sim),
    );
    let received = Rc::new(Cell::new(0u64));
    {
        let received = Rc::clone(&received);
        coord.register_inbox(
            to,
            Box::new(move |_sim, _msg| received.set(received.get() + 1)),
        );
    }
    let (events_before, started) = (sim.events_executed(), Instant::now());
    let mut sent = 0u64;
    while sent < SENDS {
        for _ in 0..(PROBE_BATCH as u64).min(SENDS - sent) {
            assert!(coord.send(&mut sim, from, to, sent));
            sent += 1;
        }
        // Long enough for both hops, far shorter than the session lease.
        sim.run_for(SimDuration::from_millis(100));
    }
    let ns = started.elapsed().as_nanos() as f64;
    assert_eq!(black_box(received.get()), SENDS);
    per_unit(
        ns,
        kernel_ns * (sim.events_executed() - events_before) as f64,
        SENDS,
    )
}

/// `LsmTree::put` of shadow-row-sized records, flushes and compactions
/// included as they fall.
fn probe_lsm(seed: u64) -> f64 {
    const PUTS: u64 = 50_000;
    let mut tree = LsmTree::new(LsmConfig::default());
    let mut rng = SimRng::new(seed ^ 0x15);
    let value = [0u8; 64];
    let started = Instant::now();
    for _ in 0..PUTS {
        let mut key = [0u8; 24];
        key[..8].copy_from_slice(&rng.gen_range(0..u64::MAX).to_be_bytes());
        black_box(tree.put(&key, &value));
    }
    let ns = started.elapsed().as_nanos() as f64;
    ns / PUTS as f64
}
