//! Deterministic fault-injection plans and the network fault injector.
//!
//! The λFS evaluation argues fault tolerance (§5.6 / Fig. 15) with a single
//! fault: kill a NameNode every 30 s. Real deployments also survive lossy
//! networks, NDB node-group failovers, and cold-start storms. This module
//! defines a declarative, seed-deterministic [`FaultPlan`] covering all of
//! those fault classes, plus the [`FaultInjector`] that adjudicates
//! per-message network faults.
//!
//! ## Determinism contract
//!
//! The injector owns a private [`SimRng`] stream, separate from the engine
//! RNG, and draws from it **only while a fault window is active for the
//! message being adjudicated**. Outside every window, [`FaultInjector::decide`]
//! is a pure time comparison: a run with an empty (or never-matching) plan
//! produces a bit-identical event trace to a run with no injector at all,
//! and the same `(seed, plan)` pair always replays the same decisions.
//!
//! Windows are half-open `[from, until)` intervals of simulated time.
//! Endpoints are small integer ids chosen by the embedding system (λFS uses
//! client VM ids and `1000 + deployment` for NameNode deployments).

use crate::engine::Sim;
use crate::rng::{Dist, SimRng};
use crate::time::{SimDuration, SimTime};

/// A half-open window `[from, until)` of simulated time during which a
/// fault is active.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct FaultWindow {
    /// Inclusive start of the window.
    pub from: SimTime,
    /// Exclusive end of the window.
    pub until: SimTime,
}

impl FaultWindow {
    /// Builds a window from two instants.
    ///
    /// # Panics
    ///
    /// Panics if `from > until`.
    #[must_use]
    pub fn new(from: SimTime, until: SimTime) -> Self {
        assert!(from <= until, "fault window out of order: {from} > {until}");
        FaultWindow { from, until }
    }

    /// Whether `t` falls inside the window.
    #[must_use]
    pub fn contains(self, t: SimTime) -> bool {
        t >= self.from && t < self.until
    }

    /// The window translated later in time by `by`.
    #[must_use]
    pub fn shifted(self, by: SimDuration) -> Self {
        FaultWindow { from: self.from + by, until: self.until + by }
    }
}

/// What a matching [`NetFault`] does to a message.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum NetFaultKind {
    /// Silently discard the message; the sender's timeout path recovers.
    Drop,
    /// Add extra one-way latency sampled from the distribution (seconds).
    Delay(Dist),
    /// Deliver the message twice; receivers must deduplicate.
    Duplicate,
}

/// A probabilistic per-message network fault, active inside a window and
/// optionally filtered to a `(src, dst)` endpoint pair.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct NetFault {
    /// What happens to a message the fault fires on.
    pub kind: NetFaultKind,
    /// Probability in `[0, 1]` that the fault fires on a matching message.
    pub prob: f64,
    /// When the fault is armed.
    pub window: FaultWindow,
    /// Source endpoint filter; `None` matches any source.
    pub src: Option<u32>,
    /// Destination endpoint filter; `None` matches any destination.
    pub dst: Option<u32>,
}

impl NetFault {
    fn matches(&self, now: SimTime, src: u32, dst: u32) -> bool {
        self.window.contains(now)
            && self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
    }
}

/// A pairwise network partition: every message between the two endpoints
/// (in either direction) is dropped while the window is active.
///
/// Partitions are deterministic — no random draw is involved.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Partition {
    /// One side of the partition.
    pub a: u32,
    /// The other side.
    pub b: u32,
    /// When the partition holds.
    pub window: FaultWindow,
}

/// An NDB-style shard crash: the shard is unavailable from `at` until a
/// replica in the node group finishes taking over, `takeover` later.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ShardOutage {
    /// Index of the store shard that crashes.
    pub shard: u32,
    /// Crash instant.
    pub at: SimTime,
    /// Replica promotion delay; the shard serves again at `at + takeover`.
    pub takeover: SimDuration,
}

/// A correlated kill burst: `count` warm NameNode instances are killed at
/// once, optionally pinned to one deployment.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct KillBurst {
    /// When the burst strikes.
    pub at: SimTime,
    /// Deployment to target; `None` spreads the kills round-robin.
    pub deployment: Option<u32>,
    /// How many warm instances to kill.
    pub count: u32,
}

/// A cold-start storm: while the window is active every cold start takes
/// `factor`× its sampled latency (modeling pool exhaustion / image-pull
/// contention in the FaaS substrate).
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct ColdStartStorm {
    /// When the storm rages.
    pub window: FaultWindow,
    /// Multiplier applied to sampled cold-start latencies (must be ≥ 1
    /// to be meaningful, but any positive factor is accepted).
    pub factor: f64,
}

/// A complete, declarative fault schedule for one simulation run.
///
/// Build one programmatically or parse the compact spec format with
/// [`FaultPlan::parse`]. An empty plan (the [`Default`]) injects nothing
/// and leaves runs bit-identical to an uninstrumented simulation.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Probabilistic per-message network faults.
    pub net: Vec<NetFault>,
    /// Deterministic pairwise partitions.
    pub partitions: Vec<Partition>,
    /// Store shard crash/failover events.
    pub shards: Vec<ShardOutage>,
    /// Correlated NameNode kill bursts.
    pub kills: Vec<KillBurst>,
    /// Cold-start latency storms.
    pub storms: Vec<ColdStartStorm>,
}

impl FaultPlan {
    /// Whether the plan injects nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.net.is_empty()
            && self.partitions.is_empty()
            && self.shards.is_empty()
            && self.kills.is_empty()
            && self.storms.is_empty()
    }

    /// The plan with every window and instant translated later by `by`.
    ///
    /// Harnesses that bootstrap/prewarm before the measured workload use
    /// this to author plans relative to the workload start.
    #[must_use]
    pub fn shifted(&self, by: SimDuration) -> FaultPlan {
        FaultPlan {
            net: self
                .net
                .iter()
                .map(|f| NetFault { window: f.window.shifted(by), ..*f })
                .collect(),
            partitions: self
                .partitions
                .iter()
                .map(|p| Partition { window: p.window.shifted(by), ..*p })
                .collect(),
            shards: self
                .shards
                .iter()
                .map(|s| ShardOutage { at: s.at + by, ..*s })
                .collect(),
            kills: self.kills.iter().map(|k| KillBurst { at: k.at + by, ..*k }).collect(),
            storms: self
                .storms
                .iter()
                .map(|s| ColdStartStorm { window: s.window.shifted(by), ..*s })
                .collect(),
        }
    }

    /// Parses the compact fault-spec format.
    ///
    /// The spec is a `;`-separated list of clauses, each
    /// `kind@start[-end][:key=value,...]`. Times accept `s` or `ms`
    /// suffixes (`2.5s`, `80ms`). Supported clauses:
    ///
    /// | clause | example | meaning |
    /// |---|---|---|
    /// | `drop` | `drop@10s-20s:p=0.3` | drop messages w.p. `p` |
    /// | `delay` | `delay@5s-15s:p=0.5,ms=80` | add `ms` extra latency w.p. `p` |
    /// | `dup` | `dup@2s-9s:p=0.2` | duplicate messages w.p. `p` |
    /// | `part` | `part@10s-30s:a=0,b=1000` | partition endpoints `a`/`b` |
    /// | `shard` | `shard@30s:shard=2,down=5s` | crash shard, takeover `down` |
    /// | `kill` | `kill@60s:count=2,dep=3` | kill burst (`dep` optional) |
    /// | `storm` | `storm@60s-90s:x=4` | cold starts take `x`× longer |
    ///
    /// `drop`/`delay`/`dup` also accept optional `src=`/`dst=` endpoint
    /// filters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed clause: one with a key
    /// its kind does not take, a value that does not parse as its key's
    /// type (`p=30%`, `dep=x`), or a value out of range (`p` outside
    /// `[0, 1]`, a negative or non-finite `ms`).
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            let (head, params) = match clause.split_once(':') {
                Some((h, p)) => (h, p),
                None => (clause, ""),
            };
            let (kind, when) = head
                .split_once('@')
                .ok_or_else(|| format!("clause `{clause}`: missing `@start`"))?;
            let (from, until) = parse_when(when)?;
            let window = || -> Result<FaultWindow, String> {
                let until =
                    until.ok_or_else(|| format!("clause `{clause}`: needs `start-end` window"))?;
                if from > until {
                    return Err(format!("clause `{clause}`: window out of order"));
                }
                Ok(FaultWindow { from, until })
            };
            let kind = kind.trim();
            let kv = parse_params(params, clause)?;
            let need = |key: &str| format!("clause `{clause}`: {kind} needs {key}=");
            match kind {
                "drop" | "delay" | "dup" => {
                    let keys: &[&str] = match kind {
                        "delay" => &["p", "ms", "src", "dst"],
                        _ => &["p", "src", "dst"],
                    };
                    kv.only(keys)?;
                    let net_kind = match kind {
                        "drop" => NetFaultKind::Drop,
                        "dup" => NetFaultKind::Duplicate,
                        _ => {
                            let ms: f64 = kv.get("ms")?.ok_or_else(|| need("ms"))?;
                            if !(ms.is_finite() && ms >= 0.0) {
                                return Err(format!("clause `{clause}`: ms must be non-negative"));
                            }
                            NetFaultKind::Delay(Dist::constant_ms(ms))
                        }
                    };
                    let prob = kv.get("p")?.unwrap_or(1.0);
                    if !(0.0..=1.0).contains(&prob) {
                        return Err(format!("clause `{clause}`: p must be in [0,1]"));
                    }
                    plan.net.push(NetFault {
                        kind: net_kind,
                        prob,
                        window: window()?,
                        src: kv.get("src")?,
                        dst: kv.get("dst")?,
                    });
                }
                "part" => {
                    kv.only(&["a", "b"])?;
                    let a = kv.get("a")?.ok_or_else(|| need("a"))?;
                    let b = kv.get("b")?.ok_or_else(|| need("b"))?;
                    plan.partitions.push(Partition { a, b, window: window()? });
                }
                "shard" => {
                    kv.only(&["shard", "down"])?;
                    let shard = kv.get("shard")?.ok_or_else(|| need("shard"))?;
                    let down = kv.duration("down")?.ok_or_else(|| need("down"))?;
                    plan.shards.push(ShardOutage { shard, at: from, takeover: down });
                }
                "kill" => {
                    kv.only(&["count", "dep"])?;
                    let count = kv.get("count")?.unwrap_or(1);
                    plan.kills.push(KillBurst { at: from, deployment: kv.get("dep")?, count });
                }
                "storm" => {
                    kv.only(&["x"])?;
                    let factor: f64 = kv.get("x")?.ok_or_else(|| need("x"))?;
                    if !(factor.is_finite() && factor > 0.0) {
                        return Err(format!("clause `{clause}`: x must be positive"));
                    }
                    plan.storms.push(ColdStartStorm { window: window()?, factor });
                }
                other => return Err(format!("clause `{clause}`: unknown fault kind `{other}`")),
            }
        }
        Ok(plan)
    }
}

/// Parses `start` or `start-end` into instants.
fn parse_when(when: &str) -> Result<(SimTime, Option<SimTime>), String> {
    let to_time = |s: &str| parse_time(s).map(|d| SimTime::ZERO + d);
    match when.split_once('-') {
        Some((a, b)) => Ok((to_time(a)?, Some(to_time(b)?))),
        None => Ok((to_time(when)?, None)),
    }
}

/// Parses a duration literal with an `s` or `ms` suffix.
fn parse_time(s: &str) -> Result<SimDuration, String> {
    let s = s.trim();
    let (num, scale) = if let Some(ms) = s.strip_suffix("ms") {
        (ms, 1e-3)
    } else if let Some(secs) = s.strip_suffix('s') {
        (secs, 1.0)
    } else {
        (s, 1.0)
    };
    let v: f64 = num.trim().parse().map_err(|_| format!("bad time literal `{s}`"))?;
    if !(v.is_finite() && v >= 0.0) {
        return Err(format!("time literal `{s}` must be non-negative"));
    }
    Ok(SimDuration::from_secs_f64(v * scale))
}

/// Parsed `key=value` parameters of one clause.
struct Params<'a> {
    clause: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl Params<'_> {
    fn raw(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// `key`'s value, if given; an error if it does not parse as a `T`.
    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let bad = |v| format!("clause `{}`: bad value `{v}` for {key}=", self.clause);
        self.raw(key).map(|v| v.parse().map_err(|_| bad(v))).transpose()
    }

    fn duration(&self, key: &str) -> Result<Option<SimDuration>, String> {
        self.raw(key).map(parse_time).transpose()
    }

    /// An error naming the first key not in `allowed`.
    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.pairs.iter().find(|(k, _)| !allowed.contains(k)) {
            Some((k, _)) => Err(format!("clause `{}`: unknown param `{k}=`", self.clause)),
            None => Ok(()),
        }
    }
}

fn parse_params<'a>(params: &'a str, clause: &'a str) -> Result<Params<'a>, String> {
    let mut pairs = Vec::new();
    for pair in params.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("clause `{clause}`: bad param `{pair}`"))?;
        pairs.push((k.trim(), v.trim()));
    }
    Ok(Params { clause, pairs })
}

/// The injector's verdict for one message hop.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum NetDecision {
    /// Deliver normally.
    Deliver,
    /// Discard the message.
    Drop,
    /// Deliver two copies.
    Duplicate,
    /// Deliver after the given extra delay.
    Delay(SimDuration),
}

impl NetDecision {
    /// Carries `msg` across one network leg under this verdict: `deliver`
    /// runs after the leg's `base` latency, or at once when `base` is
    /// `None` (a leg whose latency the receiver charges itself).
    ///
    /// `Drop` delivers nothing, `Delay(extra)` delivers after
    /// `base + extra`, and `Duplicate` delivers twice, the copy first.
    pub fn carry<M, F>(self, sim: &mut Sim, base: Option<SimDuration>, msg: M, deliver: F)
    where
        M: Clone + 'static,
        F: FnOnce(&mut Sim, M) + Clone + 'static,
    {
        match (self, base) {
            (NetDecision::Drop, _) => {}
            (NetDecision::Deliver, None) => deliver(sim, msg),
            (NetDecision::Deliver, Some(after)) => {
                sim.schedule(after, move |sim| deliver(sim, msg));
            }
            (NetDecision::Delay(extra), _) => {
                let after = base.map_or(extra, |b| b + extra);
                sim.schedule(after, move |sim| deliver(sim, msg));
            }
            (NetDecision::Duplicate, _) => {
                NetDecision::Deliver.carry(sim, base, msg.clone(), deliver.clone());
                NetDecision::Deliver.carry(sim, base, msg, deliver);
            }
        }
    }
}

/// Adjudicates per-message network faults for a [`FaultPlan`].
///
/// Holds its own RNG stream so that installing an injector whose plan
/// never matches leaves the host simulation's event trace bit-identical
/// (see the module docs for the full determinism contract).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    net: Vec<NetFault>,
    partitions: Vec<Partition>,
    rng: SimRng,
    dropped: u64,
    duplicated: u64,
    delayed: u64,
}

impl FaultInjector {
    /// Builds an injector for the network portion of `plan`, with a
    /// dedicated RNG seeded by `seed`.
    #[must_use]
    pub fn new(plan: &FaultPlan, seed: u64) -> Self {
        FaultInjector {
            net: plan.net.clone(),
            partitions: plan.partitions.clone(),
            rng: SimRng::new(seed),
            dropped: 0,
            duplicated: 0,
            delayed: 0,
        }
    }

    /// Decides the fate of one message hop from `src` to `dst` at `now`.
    ///
    /// Partitions are checked first (deterministically); then armed
    /// probabilistic faults are evaluated in plan order, first hit wins.
    /// No RNG draw happens unless a fault window is active for this hop.
    pub fn decide(&mut self, now: SimTime, src: u32, dst: u32) -> NetDecision {
        for p in &self.partitions {
            if p.window.contains(now)
                && ((p.a == src && p.b == dst) || (p.a == dst && p.b == src))
            {
                self.dropped += 1;
                return NetDecision::Drop;
            }
        }
        for i in 0..self.net.len() {
            let f = self.net[i];
            if !f.matches(now, src, dst) {
                continue;
            }
            if !self.rng.gen_bool(f.prob) {
                continue;
            }
            return match f.kind {
                NetFaultKind::Drop => {
                    self.dropped += 1;
                    NetDecision::Drop
                }
                NetFaultKind::Duplicate => {
                    self.duplicated += 1;
                    NetDecision::Duplicate
                }
                NetFaultKind::Delay(dist) => {
                    self.delayed += 1;
                    NetDecision::Delay(self.rng.sample_duration(&dist))
                }
            };
        }
        NetDecision::Deliver
    }

    /// Messages dropped so far (faults plus partitions).
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Messages duplicated so far.
    #[must_use]
    pub fn duplicated(&self) -> u64 {
        self.duplicated
    }

    /// Messages delayed so far.
    #[must_use]
    pub fn delayed(&self) -> u64 {
        self.delayed
    }
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn windows_are_half_open() {
        let w = FaultWindow::new(secs(10), secs(20));
        assert!(!w.contains(secs(9)));
        assert!(w.contains(secs(10)));
        assert!(w.contains(secs(19)));
        assert!(!w.contains(secs(20)));
    }

    #[test]
    fn empty_plan_is_empty_and_injects_nothing() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        let mut inj = FaultInjector::new(&plan, 7);
        for t in 0..100 {
            assert_eq!(inj.decide(secs(t), 0, 1000), NetDecision::Deliver);
        }
        assert_eq!(inj.dropped() + inj.duplicated() + inj.delayed(), 0);
    }

    #[test]
    fn out_of_window_decisions_consume_no_rng() {
        let plan = FaultPlan {
            net: vec![NetFault {
                kind: NetFaultKind::Drop,
                prob: 0.5,
                window: FaultWindow::new(secs(100), secs(200)),
                src: None,
                dst: None,
            }],
            ..FaultPlan::default()
        };
        let mut idle = FaultInjector::new(&plan, 99);
        let mut fresh = FaultInjector::new(&plan, 99);
        // Burn many out-of-window decisions on one injector.
        for t in 0..50 {
            assert_eq!(idle.decide(secs(t), 0, 1000), NetDecision::Deliver);
        }
        // Both injectors must now agree on every in-window decision: the
        // idle one made zero draws outside the window.
        for t in 100..160 {
            assert_eq!(idle.decide(secs(t), 0, 1000), fresh.decide(secs(t), 0, 1000));
        }
    }

    #[test]
    fn same_seed_replays_identical_decisions() {
        let plan = FaultPlan::parse("drop@0s-60s:p=0.3;delay@0s-60s:p=0.4,ms=25").unwrap();
        let mut a = FaultInjector::new(&plan, 42);
        let mut b = FaultInjector::new(&plan, 42);
        for t in 0..500u64 {
            let now = SimTime::from_nanos(t * 123_456_789);
            assert_eq!(a.decide(now, 3, 1001), b.decide(now, 3, 1001));
        }
    }

    #[test]
    fn partitions_block_both_directions_without_rng() {
        let plan = FaultPlan {
            partitions: vec![Partition { a: 2, b: 1001, window: FaultWindow::new(secs(5), secs(10)) }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(&plan, 1);
        assert_eq!(inj.decide(secs(6), 2, 1001), NetDecision::Drop);
        assert_eq!(inj.decide(secs(6), 1001, 2), NetDecision::Drop);
        assert_eq!(inj.decide(secs(6), 3, 1001), NetDecision::Deliver);
        assert_eq!(inj.decide(secs(11), 2, 1001), NetDecision::Deliver);
        assert_eq!(inj.dropped(), 2);
    }

    #[test]
    fn endpoint_filters_restrict_matches() {
        let plan = FaultPlan {
            net: vec![NetFault {
                kind: NetFaultKind::Drop,
                prob: 1.0,
                window: FaultWindow::new(secs(0), secs(100)),
                src: Some(4),
                dst: None,
            }],
            ..FaultPlan::default()
        };
        let mut inj = FaultInjector::new(&plan, 5);
        assert_eq!(inj.decide(secs(1), 4, 1000), NetDecision::Drop);
        assert_eq!(inj.decide(secs(1), 5, 1000), NetDecision::Deliver);
    }

    /// A message that knows whether it is a copy.
    #[derive(Debug, PartialEq)]
    struct Msg(&'static str);

    impl Clone for Msg {
        fn clone(&self) -> Self {
            Msg("copy")
        }
    }

    /// Carries `Msg("original")` under `verdict` from t = 1 s. Returns the
    /// log in order: each delivery as `(ms after 1 s, message)`, and
    /// `"returned"` when `carry` itself returned.
    fn carried(verdict: NetDecision, base: Option<SimDuration>) -> Vec<(u64, &'static str)> {
        let mut sim = Sim::new(1);
        let log = Rc::new(RefCell::new(Vec::new()));
        let at = |sim: &Sim| sim.now().saturating_since(secs(1)).as_nanos() / 1_000_000;
        let out = Rc::clone(&log);
        sim.schedule_at(secs(1), move |sim| {
            let deliveries = Rc::clone(&out);
            verdict.carry(sim, base, Msg("original"), move |sim, msg| {
                deliveries.borrow_mut().push((at(sim), msg.0));
            });
            out.borrow_mut().push((at(sim), "returned"));
        });
        sim.run();
        let log = log.borrow().clone();
        log
    }

    #[test]
    fn carry_delivers_each_verdict_at_once_without_a_base() {
        assert_eq!(carried(NetDecision::Drop, None), vec![(0, "returned")]);
        assert_eq!(carried(NetDecision::Deliver, None), vec![(0, "original"), (0, "returned")]);
        let delay = NetDecision::Delay(SimDuration::from_millis(7));
        assert_eq!(carried(delay, None), vec![(0, "returned"), (7, "original")]);
        assert_eq!(
            carried(NetDecision::Duplicate, None),
            vec![(0, "copy"), (0, "original"), (0, "returned")]
        );
    }

    #[test]
    fn carry_delivers_each_verdict_after_its_base() {
        let base = Some(SimDuration::from_millis(3));
        assert_eq!(carried(NetDecision::Drop, base), vec![(0, "returned")]);
        assert_eq!(carried(NetDecision::Deliver, base), vec![(0, "returned"), (3, "original")]);
        let delay = NetDecision::Delay(SimDuration::from_millis(7));
        assert_eq!(carried(delay, base), vec![(0, "returned"), (10, "original")]);
        assert_eq!(
            carried(NetDecision::Duplicate, base),
            vec![(0, "returned"), (3, "copy"), (3, "original")]
        );
    }

    #[test]
    fn parse_covers_every_clause_kind() {
        let plan = FaultPlan::parse(
            "drop@10s-20s:p=0.3; delay@5s-15s:p=0.5,ms=80,src=1,dst=1002; dup@2s-9s:p=0.2; \
             part@10s-30s:a=0,b=1000; shard@30s:shard=2,down=5s; kill@60s:count=2,dep=3; \
             storm@60s-90s:x=4",
        )
        .unwrap();
        assert_eq!(plan.net.len(), 3);
        assert_eq!(plan.net[0].kind, NetFaultKind::Drop);
        assert_eq!(plan.net[1].kind, NetFaultKind::Delay(Dist::constant_ms(80.0)));
        assert_eq!(plan.net[1].src, Some(1));
        assert_eq!(plan.net[1].dst, Some(1002));
        assert_eq!(plan.net[2].kind, NetFaultKind::Duplicate);
        assert_eq!(plan.partitions, vec![Partition {
            a: 0,
            b: 1000,
            window: FaultWindow::new(secs(10), secs(30)),
        }]);
        assert_eq!(plan.shards, vec![ShardOutage {
            shard: 2,
            at: secs(30),
            takeover: SimDuration::from_secs(5),
        }]);
        assert_eq!(plan.kills, vec![KillBurst { at: secs(60), deployment: Some(3), count: 2 }]);
        assert_eq!(plan.storms, vec![ColdStartStorm {
            window: FaultWindow::new(secs(60), secs(90)),
            factor: 4.0,
        }]);
    }

    #[test]
    fn parse_accepts_ms_and_fractional_times() {
        let plan = FaultPlan::parse("drop@500ms-2.5s:p=1").unwrap();
        assert_eq!(plan.net[0].window.from, SimTime::ZERO + SimDuration::from_millis(500));
        assert_eq!(plan.net[0].window.until, SimTime::ZERO + SimDuration::from_millis(2500));
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        assert!(FaultPlan::parse("drop:p=0.5").is_err()); // no window
        assert!(FaultPlan::parse("drop@10s:p=0.5").is_err()); // missing end
        assert!(FaultPlan::parse("drop@20s-10s:p=0.5").is_err()); // reversed
        assert!(FaultPlan::parse("drop@0s-1s:p=1.5").is_err()); // bad prob
        assert!(FaultPlan::parse("delay@0s-1s:p=0.5").is_err()); // missing ms
        assert!(FaultPlan::parse("part@0s-1s:a=1").is_err()); // missing b
        assert!(FaultPlan::parse("shard@0s:shard=1").is_err()); // missing down
        assert!(FaultPlan::parse("storm@0s-1s:x=-2").is_err()); // bad factor
        assert!(FaultPlan::parse("quake@0s-1s").is_err()); // unknown kind
    }

    #[test]
    fn parse_rejects_bad_values_and_foreign_keys() {
        for spec in [
            "drop@0s-10s:p=30%",           // not a number: was p = 1.0
            "drop@0s-10s:prob=0.3",        // not a drop key: was p = 1.0
            "kill@1s:count=2,dep=x",       // not a deployment: was every one
            "drop@0s-10s:p=0.5,src=vm1",   // not an endpoint: was every source
            "dup@0s-10s:p=0.5,dst=-1",     // not an endpoint
            "delay@0s-10s:p=0.5,ms=-5",    // negative delay
            "delay@0s-10s:p=0.5,ms=inf",   // non-finite delay
            "delay@0s-10s:p=0.5,ms=NaN",   // non-finite delay
            "drop@0s-10s:p=0.5,ms=5",      // ms belongs to delay only
            "part@0s-1s:a=0,b=1000,c=2",   // unknown key
            "shard@1s:shard=1,down=2s,p=1", // unknown key
            "shard@1s:shard=one,down=2s",  // not a shard
            "kill@1s:count=two",           // not a count
            "storm@0s-1s:x=4,dep=1",       // unknown key
        ] {
            assert!(FaultPlan::parse(spec).is_err(), "`{spec}` must not parse");
        }
    }

    #[test]
    fn shifted_translates_every_component() {
        let plan = FaultPlan::parse(
            "drop@1s-2s:p=0.5; part@3s-4s:a=0,b=1; shard@5s:shard=0,down=1s; \
             kill@6s:count=1; storm@7s-8s:x=2",
        )
        .unwrap();
        let by = SimDuration::from_secs(10);
        let s = plan.shifted(by);
        assert_eq!(s.net[0].window, FaultWindow::new(secs(11), secs(12)));
        assert_eq!(s.partitions[0].window, FaultWindow::new(secs(13), secs(14)));
        assert_eq!(s.shards[0].at, secs(15));
        assert_eq!(s.kills[0].at, secs(16));
        assert_eq!(s.storms[0].window, FaultWindow::new(secs(17), secs(18)));
        assert!(!s.is_empty());
    }
}
