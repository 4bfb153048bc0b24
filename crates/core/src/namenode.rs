//! The serverless NameNode: the λFS function body (paper §2
//! "Terminology": one NameNode runs per function instance).
//!
//! On cold start a NameNode opens a Coordinator session, joins its
//! deployment's membership group, wires its coherence endpoint, and starts
//! its heartbeat and DataNode-discovery loops. Per request it runs the
//! shared [`OpEngine`], serving reads from its metadata-cache trie when
//! possible and running the coherence protocol before any write persists.
//!
//! NameNodes also keep a small **result cache** keyed by client request id
//! (§3.2): when a client resubmits a write after a timeout, the NameNode
//! returns the cached result instead of re-executing the operation — this
//! is what makes client retries safe for non-idempotent operations such as
//! `create`. It keeps final write replies only: a read is idempotent, so a
//! resubmitted read runs again and answers from the state at that moment,
//! and a transient error is no answer, so a resubmitted write that got one
//! runs again too.

use std::cell::RefCell;
use std::rc::Rc;

use lambda_coord::{Coordinator, SessionId};
use lambda_faas::{Function, InstanceCtx, Responder};
use lambda_namespace::{DataNodeId, FsError, MetadataCache, MetadataSchema, OpResult, Partitioner};
use lambda_sim::{every, Sim, SimDuration, Station};
use lambda_store::Db;

use crate::coherence::{deployment_group, CoordCoherence};
use crate::config::LambdaFsConfig;
use crate::fsops::{OpEngine, SubtreeSettings};
use crate::messages::{CoherenceMsg, NnRequest, NnResponse, RequestId};
use crate::result_cache::ResultCache;

/// How many recent final write replies a NameNode retains for retry
/// deduplication.
const RESULT_CACHE_CAPACITY: usize = 4096;
/// Directory-listing cache capacity per NameNode, in directories.
const LISTING_CACHE_CAPACITY: usize = 100_000;
/// Maximum concurrent in-flight subtree batches per executor. Appendix D's
/// helper NameNodes run batches beside the leader; more than twice
/// HopsFS's 7 is all of λFS's lead in Table 3. Only a subtree of more than
/// one batch reaches the bound.
const SUBTREE_PARALLELISM: usize = 16;
/// Number of simulated DataNodes publishing reports.
pub(crate) const DATANODES: u32 = 8;

/// Shared services a NameNode needs; cheap to clone per instance.
#[derive(Clone)]
pub struct NnServices {
    /// The persistent metadata store.
    pub db: Db,
    /// Table handles.
    pub schema: MetadataSchema,
    /// The Coordinator.
    pub coord: Coordinator<CoherenceMsg>,
    /// The namespace partitioner.
    pub partitioner: Rc<Partitioner>,
    /// System configuration.
    pub config: Rc<LambdaFsConfig>,
    /// Every coherence endpoint a NameNode of this system ever opened,
    /// dead instances' included, each with its cache: for aggregate cache
    /// statistics, and so that teardown reaches the rounds a killed
    /// instance left open.
    pub endpoints: Rc<RefCell<Vec<CoordCoherence>>>,
}

impl std::fmt::Debug for NnServices {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NnServices").finish_non_exhaustive()
    }
}

struct NnState {
    session: Option<SessionId>,
    engine: Option<OpEngine>,
    results: ResultCache<OpResult>,
}

/// One serverless NameNode (the λFS function body).
pub struct NameNode {
    services: NnServices,
    deployment_index: u32,
    state: Rc<RefCell<NnState>>,
}

impl std::fmt::Debug for NameNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NameNode").field("deployment", &self.deployment_index).finish()
    }
}

impl NameNode {
    /// Builds the function body for an instance of deployment
    /// `deployment_index`. Called by the platform's factory; does not
    /// touch the platform.
    #[must_use]
    pub fn new(services: NnServices, deployment_index: u32) -> Self {
        NameNode {
            services,
            deployment_index,
            state: Rc::new(RefCell::new(NnState {
                session: None,
                engine: None,
                results: ResultCache::new(RESULT_CACHE_CAPACITY),
            })),
        }
    }

    /// This instance's Coordinator session, once started.
    #[must_use]
    pub fn session(&self) -> Option<SessionId> {
        self.state.borrow().session
    }

    fn handle_op(
        &self,
        sim: &mut Sim,
        ctx: &InstanceCtx,
        id: RequestId,
        op: lambda_namespace::FsOp,
        owned: bool,
        respond: Responder<NnResponse>,
    ) {
        // Retry deduplication (§3.2): a resubmitted write is answered from
        // the result cache without re-executing. Reads never enter it.
        let instance = ctx.instance;
        let deployment = self.deployment_index;
        let is_write = op.is_write();
        let replay = if is_write { self.state.borrow().results.get(&id).cloned() } else { None };
        if let Some(result) = replay {
            let cached = NnResponse { id, result, served_by: instance, deployment };
            sim.schedule(SimDuration::ZERO, move |sim| respond.send(sim, cached));
            return;
        }
        let engine = self.state.borrow().engine.clone();
        let Some(engine) = engine else {
            // Not fully started (should not happen: the platform only
            // routes to warm instances). Drop; the client retries.
            return;
        };
        let state = Rc::clone(&self.state);
        engine.execute(
            sim,
            op,
            owned,
            Box::new(move |sim, result| {
                // Only a write's final reply is worth replaying; the rest
                // of the response is this instance's own identity.
                if is_write && !result.as_ref().is_err_and(FsError::is_transient) {
                    state.borrow_mut().results.insert(id, result.clone());
                }
                respond.send(sim, NnResponse { id, result, served_by: instance, deployment });
            }),
        );
    }
}

impl Function for NameNode {
    type Req = NnRequest;
    type Resp = NnResponse;

    fn on_start(&mut self, sim: &mut Sim, ctx: &InstanceCtx) {
        let services = self.services.clone();
        let config = Rc::clone(&services.config);
        let session = services.coord.create_session(sim);
        services.coord.join_group(sim, session, &deployment_group(self.deployment_index));

        // The metadata cache and coherence endpoint.
        let cache = Rc::new(RefCell::new(MetadataCache::with_listing_capacity(
            config.cache_capacity,
            LISTING_CACHE_CAPACITY,
        )));
        let coherence = CoordCoherence::new(
            services.coord.clone(),
            session,
            Rc::clone(&services.partitioner),
            Rc::clone(&cache),
        );
        services.endpoints.borrow_mut().push(coherence.clone());
        // Incoming INV/ACK traffic.
        let inbox_coherence = coherence.clone();
        services.coord.register_inbox(
            session,
            Box::new(move |sim, msg| inbox_coherence.handle(sim, msg)),
        );
        // Membership watches feed death notifications into open rounds.
        for d in 0..services.partitioner.deployments() {
            let watch_coherence = coherence.clone();
            services.coord.watch_group(
                &deployment_group(d),
                Rc::new(move |sim, event| {
                    if let lambda_coord::GroupEvent::Left(member) = event {
                        watch_coherence.on_member_left(sim, member);
                    }
                }),
            );
        }
        // Heartbeats keep the session alive while the instance lives; a
        // crash stops them and the session expires (crash detection).
        let hb_coord = services.coord.clone();
        let hb_ctx = ctx.clone();
        every(sim, sim.now() + SimDuration::from_secs(1), SimDuration::from_secs(1), move |sim| {
            if !hb_ctx.is_alive() {
                return false;
            }
            hb_coord.heartbeat(sim, session);
            true
        });
        // Leader-elected maintenance: the longest-lived NameNode sweeps
        // subtree-lock flags abandoned by crashed holders ("the easy
        // removal of locks held by crashed NameNodes", §3.6). Every
        // NameNode is a candidate; the Coordinator's election picks one.
        services.coord.join_group(sim, session, "nn-all");
        let sweep_coord = services.coord.clone();
        let sweep_db = services.db.clone();
        let sweep_schema = services.schema.clone();
        let sweep_ctx = ctx.clone();
        every(
            sim,
            sim.now() + SimDuration::from_secs(20),
            SimDuration::from_secs(20),
            move |sim| {
                if !sweep_ctx.is_alive() {
                    return false;
                }
                if sweep_coord.leader("nn-all") != Some(session) {
                    return true;
                }
                if sweep_db.table_len(sweep_schema.subtree_locks) == 0 {
                    return true;
                }
                let db = sweep_db.clone();
                let table = sweep_schema.subtree_locks;
                let coord = sweep_coord.clone();
                sweep_db.scan_with(
                    sim,
                    sweep_schema.subtree_locks,
                    ..,
                    Vec::new,
                    move |dead: &mut Vec<_>, &root, row| {
                        if !coord.is_alive(SessionId::from_raw(row.holder)) {
                            dead.push(root);
                        }
                    },
                    move |sim, dead| {
                        for root in dead {
                            let key = db.lock_key(table, &root);
                            let db2 = db.clone();
                            let reclaim = move |txn, _| db2.remove(txn, table, root).map(drop);
                            db.write(sim, [key], reclaim, |_sim, _r| {});
                        }
                    },
                );
                true
            },
        );
        // Periodic DataNode discovery through the store (§1: maintenance
        // via the persistent store).
        let dn_db = services.db.clone();
        let dn_schema = services.schema.clone();
        let dn_ctx = ctx.clone();
        every(
            sim,
            sim.now() + SimDuration::from_secs(30),
            SimDuration::from_secs(30),
            move |sim| {
                if !dn_ctx.is_alive() {
                    return false;
                }
                let ids: Vec<DataNodeId> = (1..=u64::from(DATANODES)).collect();
                dn_db.read_committed(sim, dn_schema.datanodes, ids, |_sim, _rows| {});
                true
            },
        );

        let coord_for_alive = services.coord.clone();
        let engine = OpEngine {
            db: services.db.clone(),
            schema: services.schema.clone(),
            cpu: Rc::clone(&ctx.cpu),
            cpu_params: config.cpu.clone(),
            cache: Some(Rc::clone(&cache)),
            coherence: config
                .coherence_enabled
                .then(|| Rc::new(coherence) as Rc<dyn crate::fsops::CoherenceHook>),
            subtree: SubtreeSettings {
                parallelism: SUBTREE_PARALLELISM,
                holder_tag: session.raw(),
                holder_alive: Some(Rc::new(move |tag| {
                    coord_for_alive.is_alive(SessionId::from_raw(tag))
                })),
            },
        };
        let mut st = self.state.borrow_mut();
        st.session = Some(session);
        st.engine = Some(engine);
    }

    fn on_request(
        &mut self,
        sim: &mut Sim,
        ctx: &InstanceCtx,
        req: NnRequest,
        respond: Responder<NnResponse>,
    ) {
        let NnRequest { id, op, via_http, owned } = req;
        if via_http {
            // HTTP (de)serialization burns extra NameNode CPU.
            let handling = sim.rng().sample_duration(&self.services.config.cpu.http_handling);
            let this = self.clone_handle();
            let ctx = ctx.clone();
            Station::submit(&ctx.cpu.clone(), sim, handling, move |sim| {
                this.handle_op(sim, &ctx, id, op, owned, respond);
            });
        } else {
            self.handle_op(sim, ctx, id, op, owned, respond);
        }
    }

    fn on_terminate(&mut self, sim: &mut Sim, _ctx: &InstanceCtx, graceful: bool) {
        if graceful {
            if let Some(session) = self.state.borrow().session {
                self.services.coord.close_session(sim, session);
            }
        }
        // A crash closes nothing: the session expires on its own and the
        // Coordinator's watches clean up (paper §3.6).
    }
}

impl NameNode {
    /// A cheap handle to the same NameNode state, for continuations.
    fn clone_handle(&self) -> NameNode {
        NameNode {
            services: self.services.clone(),
            deployment_index: self.deployment_index,
            state: Rc::clone(&self.state),
        }
    }
}
