//! One repetition: a whole system built, warmed, driven through its timed
//! window, drained, checked and (in the traced build) probed — and the
//! document a repetition process hands back to the process that started it.
//!
//! Every repetition runs in a process of its own. `LambdaFs` holds `Rc`
//! cycles, so a dropped system is never freed: repeating in one process
//! would make `VmHWM` grow with the repetition count (3.5 GB after three
//! `tree_10m` repetitions instead of 1.3 GB) and hand later repetitions a
//! different heap than the first.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use lambda_allocstats as heap;

use crate::checks;
use crate::json::{obj, Json};
use crate::layers::{layer_metrics, Counters, HeapWindow, LayerInputs, Metric, MetricList};
use crate::probes::{self, ProbeSizing};
use crate::report::{self, SimEndToEnd};
use crate::trace::Tracer;
use crate::workloads::{self, Observed, Offered, Recorder, Workload};

/// Size divisor of `--smoke` runs and of the untimed warm-up.
pub const SMOKE_SHRINK: f64 = 20.0;

/// Everything one in-process repetition measured.
pub struct Rep {
    pub setup_s: f64,
    pub window_s: f64,
    pub rec: Recorder,
    pub offered: Offered,
    pub sim_secs: f64,
    pub sim: SimEndToEnd,
    pub layers: MetricList,
    pub fingerprint: u64,
    pub violations: Vec<String>,
}

/// One full repetition: set-up, timed window, drain, correctness checks
/// (`audit` adds the repository's own O(n²) `LambdaFs::audit`). In the
/// traced build, allocator figures are read around the window and the
/// layer probes run against the drained system.
pub fn run_rep(w: Workload, seed: u64, shrink: f64, audit: bool, tracer: &mut Tracer) -> Rep {
    let traced = heap::active();
    let rep_span = tracer.enter("repetition");
    let setup_started = Instant::now();
    let setup_span = tracer.enter("setup");
    let heap_before_setup = heap::GLOBAL.scope();
    let mut built = workloads::setup(w, seed, shrink, tracer);
    tracer.exit(setup_span);
    let setup_s = setup_started.elapsed().as_secs_f64();
    let bootstrap_bytes = heap_before_setup.grown();

    let rec = Rc::new(RefCell::new(Recorder::default()));
    let obs = Rc::new(Observed {
        fs: Rc::clone(&built.fs),
        rec: Rc::clone(&rec),
    });
    let before = Counters::read(&built);
    heap::reset_peak();
    let heap_window = heap::GLOBAL.scope();
    let window_started = Instant::now();
    let window_span = tracer.enter("window");
    let offered = workloads::drive(w, seed, shrink, &mut built, &obs);
    tracer.exit(window_span);
    tracer.span("drain", || workloads::drain(&mut built));
    let window_s = window_started.elapsed().as_secs_f64();
    let after = Counters::read(&built);
    let heap = traced.then(|| HeapWindow {
        allocs: heap_window.allocs(),
        live_growth_bytes: heap_window.delta(),
        peak_bytes: heap::peak_bytes(),
        bootstrap_bytes,
        bootstrap_inodes: built.inodes_at_start,
    });
    drop(obs);
    let rec = Rc::try_unwrap(rec)
        .expect("drivers released the recorder")
        .into_inner();

    let mut violations = offered.model_violations.clone();
    tracer.span("checks", || {
        violations.extend(checks::integrity_violations(&built.fs, w.small_namespace()));
        if audit {
            violations.extend(
                built
                    .fs
                    .audit()
                    .violations
                    .into_iter()
                    .map(|v| format!("audit: {v}")),
            );
        }
    });
    if rec.wrong_outcomes > 0 {
        violations.push(format!(
            "{} replies did not fit their request",
            rec.wrong_outcomes
        ));
    }
    let unaccounted = rec.submitted - rec.succeeded - rec.abandoned;
    if unaccounted > 0 {
        violations.push(format!(
            "{unaccounted} submitted operations never completed"
        ));
    }
    if rec.succeeded > offered.generated {
        violations.push(format!(
            "{} succeeded of {} generated",
            rec.succeeded, offered.generated
        ));
    }
    // Every workload is chosen so that every operation ends in success;
    // only under injected faults may one need the application's recovery.
    if rec.succeeded != offered.generated {
        violations.push(format!(
            "{} of {} operations failed",
            offered.generated - rec.succeeded,
            offered.generated
        ));
    }
    if w != Workload::ElasticFaults && rec.first_try != offered.generated {
        violations.push(format!(
            "{} of {} operations needed recovery on a workload without faults",
            offered.generated - rec.first_try,
            offered.generated
        ));
    }

    let probes = traced.then(|| {
        let ever_started = after.platform.cold_starts.max(1) as usize;
        let cached = (after.cache.insertions
            - after.cache.evictions
            - after.cache.invalidations
            - after.cache.prefix_invalidations) as usize;
        let sizing = ProbeSizing {
            pending_events: offered.mean_pending_events.round() as usize,
            instances: offered.mean_instances.round().max(1.0) as usize,
            cached_inodes_per_instance: cached / ever_started,
        };
        let probe_span = tracer.enter("probes");
        let probes = probes::run_probes(&built, sizing, seed, tracer);
        tracer.exit(probe_span);
        probes
    });

    let gauge = built.fs.namenode_gauge();
    let layers = layer_metrics(&LayerInputs {
        before: &before,
        after: &after,
        rec: &rec,
        offered: &offered,
        gauge: &gauge,
        vcpus_peak: built.fs.platform().peak_vcpus_used(),
        window_wall_ns: window_s * 1e9,
        heap,
        probes: probes.as_ref(),
    });
    let sim = report::sim_end_to_end(w, &rec, &offered, &before, &after);
    let fingerprint = report::fingerprint(&rec, &offered, &layers);
    tracer.exit(rep_span);
    Rep {
        setup_s,
        window_s,
        rec,
        offered,
        sim_secs: (after.at - before.at).as_secs_f64(),
        sim,
        layers,
        fingerprint,
        violations,
    }
}

/// Peak resident set of this process so far, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What a repetition process reports: one line of JSON, the last it prints.
#[derive(Debug, Clone, PartialEq)]
pub struct RepDoc {
    /// Untimed warm-up plus build, bootstrap, start, prewarm and settle.
    pub setup_s: f64,
    pub window_s: f64,
    pub peak_rss_mb: f64,
    pub generated: u64,
    pub submitted: u64,
    pub succeeded: u64,
    pub first_try: u64,
    pub timeouts: u64,
    pub retries_exhausted: u64,
    pub ambiguous_replies: u64,
    pub sim_secs: f64,
    pub traced: bool,
    pub fingerprint: String,
    pub violations: Vec<String>,
    pub sim: SimEndToEnd,
    pub layers: Vec<Metric>,
    pub trace: Json,
}

impl RepDoc {
    pub fn host_ops_per_s(&self) -> f64 {
        self.succeeded as f64 / self.window_s
    }

    pub fn to_json(&self) -> Json {
        let layers = self
            .layers
            .iter()
            .map(|m| {
                obj([
                    ("name", m.name.as_str().into()),
                    ("unit", m.unit.as_str().into()),
                    ("value", m.value.into()),
                    ("defined", m.defined.into()),
                ])
            })
            .collect();
        obj([
            ("setup_s", self.setup_s.into()),
            ("window_s", self.window_s.into()),
            ("peak_rss_mb", self.peak_rss_mb.into()),
            ("generated", self.generated.into()),
            ("submitted", self.submitted.into()),
            ("succeeded", self.succeeded.into()),
            ("first_try", self.first_try.into()),
            ("timeouts", self.timeouts.into()),
            ("retries_exhausted", self.retries_exhausted.into()),
            ("ambiguous_replies", self.ambiguous_replies.into()),
            ("sim_secs", self.sim_secs.into()),
            ("traced", self.traced.into()),
            ("fingerprint", self.fingerprint.as_str().into()),
            (
                "violations",
                Json::Arr(self.violations.iter().map(|v| v.as_str().into()).collect()),
            ),
            (
                "sim",
                Json::Obj(
                    self.sim
                        .iter()
                        .map(|(name, value)| (name.clone(), (*value).into()))
                        .collect(),
                ),
            ),
            ("layers", Json::Arr(layers)),
            ("trace", self.trace.clone()),
        ])
    }

    pub fn from_json(doc: &Json) -> Result<RepDoc, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("repetition result lacks `{key}`"))
        };
        let strings = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|i| i.as_str().map(str::to_string))
                .collect(),
            _ => Vec::new(),
        };
        let sim: SimEndToEnd = doc
            .get("sim")
            .ok_or("repetition result lacks `sim`")?
            .members()
            .iter()
            .map(|(name, value)| Some((name.clone(), value.as_f64()?)))
            .collect::<Option<_>>()
            .ok_or("repetition result has a malformed `sim` table")?;
        let layers = match doc.get("layers") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|item| {
                    Some(Metric {
                        name: item.get("name")?.as_str()?.to_string(),
                        unit: item.get("unit")?.as_str()?.to_string(),
                        value: item.get("value")?.as_f64()?,
                        defined: item.get("defined")? == &Json::Bool(true),
                    })
                })
                .collect::<Option<Vec<Metric>>>()
                .ok_or("repetition result has a malformed layer metric")?,
            _ => return Err("repetition result lacks `layers`".to_string()),
        };
        Ok(RepDoc {
            setup_s: num("setup_s")?,
            window_s: num("window_s")?,
            peak_rss_mb: num("peak_rss_mb")?,
            generated: num("generated")? as u64,
            submitted: num("submitted")? as u64,
            succeeded: num("succeeded")? as u64,
            first_try: num("first_try")? as u64,
            timeouts: num("timeouts")? as u64,
            retries_exhausted: num("retries_exhausted")? as u64,
            ambiguous_replies: num("ambiguous_replies")? as u64,
            sim_secs: num("sim_secs")?,
            traced: doc.get("traced") == Some(&Json::Bool(true)),
            fingerprint: doc
                .get("fingerprint")
                .and_then(Json::as_str)
                .ok_or("repetition result lacks `fingerprint`")?
                .to_string(),
            violations: strings("violations"),
            sim,
            layers,
            trace: doc.get("trace").cloned().unwrap_or(Json::Null),
        })
    }
}

/// The body of a repetition process: an untimed warm-up at smoke scale
/// (it faults in pages and fills the allocator's pools and the path
/// interner; its cost is set-up, work done before measuring starts), then
/// one repetition at `shrink`.
pub fn repetition_process(w: Workload, seed: u64, shrink: f64, audit: bool) -> RepDoc {
    let mut tracer = Tracer::new();
    let started = Instant::now();
    if shrink < SMOKE_SHRINK {
        tracer.span("warm-up", || {
            run_rep(w, seed, SMOKE_SHRINK, false, &mut Tracer::new());
        });
    }
    let warm_up_s = started.elapsed().as_secs_f64();
    let rep = run_rep(w, seed, shrink, audit, &mut tracer);
    RepDoc {
        setup_s: warm_up_s + rep.setup_s,
        window_s: rep.window_s,
        peak_rss_mb: peak_rss_mb(),
        generated: rep.offered.generated,
        submitted: rep.rec.submitted,
        succeeded: rep.rec.succeeded,
        first_try: rep.rec.first_try,
        timeouts: rep.rec.timeouts,
        retries_exhausted: rep.rec.retries_exhausted,
        ambiguous_replies: rep.rec.ambiguous_replies,
        sim_secs: rep.sim_secs,
        traced: heap::active(),
        fingerprint: format!("{:016x}", rep.fingerprint),
        violations: rep.violations,
        sim: rep.sim,
        layers: rep.layers.0,
        trace: tracer.to_json(&format!("{}-seed{seed}", w.name())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::sanity_warnings;

    fn tiny(w: Workload, seed: u64, shrink: f64) -> Rep {
        run_rep(w, seed, shrink, w.small_namespace(), &mut Tracer::new())
    }

    fn success_share(rep: &Rep) -> f64 {
        rep.sim
            .iter()
            .find(|(name, _)| name == "success_share")
            .expect("success_share")
            .1
    }

    fn metric<'a>(rep: &'a Rep, name: &str) -> &'a Metric {
        rep.layers
            .0
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("no {name}"))
    }

    #[test]
    fn write_mix_is_valid_end_to_end_and_every_lsm_metric_reads_zero_without_the_durable_backend() {
        let rep = tiny(Workload::WriteMix, 3, 64.0);
        assert_eq!(rep.violations, Vec::<String>::new());
        assert_eq!(rep.offered.generated, 256 * 20);
        assert_eq!(rep.rec.succeeded, rep.offered.generated);
        assert_eq!(success_share(&rep), 1.0);
        for m in rep.layers.0.iter().filter(|m| m.name.starts_with("lsm.")) {
            assert_eq!(m.value, 0.0, "{} without the durable backend", m.name);
        }
        assert_eq!(metric(&rep, "faas.kills").value, 0.0);
        assert!(metric(&rep, "store.rows_written_per_op").value > 0.5);
        assert!(metric(&rep, "coord.msgs_per_write").value > 0.0);
        assert!(
            sanity_warnings(&rep.layers).is_empty(),
            "{:?}",
            sanity_warnings(&rep.layers)
        );
    }

    #[test]
    fn elastic_faults_runs_the_fault_plane_and_the_durable_backend() {
        let rep = tiny(Workload::ElasticFaults, 3, 100.0);
        assert_eq!(rep.violations, Vec::<String>::new());
        assert_eq!(metric(&rep, "faas.kills").value, 17.0);
        assert!(metric(&rep, "faas.cold_starts").value > 0.0);
        assert!(metric(&rep, "lsm.wal_appends_per_commit").value > 0.0);
        assert!(metric(&rep, "lsm.group_syncs").value > 0.0);
        // Every operation ends in success, some only after recovery.
        assert_eq!(rep.rec.succeeded, rep.offered.generated);
        assert_eq!(rep.rec.abandoned, 0);
        assert!(rep.rec.first_try < rep.rec.succeeded);
        assert!(success_share(&rep) > 0.9 && success_share(&rep) < 1.0);
    }

    #[test]
    fn a_seed_repeats_bit_exactly_and_seeds_differ() {
        let a = tiny(Workload::Tree10m, 11, 400.0);
        let b = tiny(Workload::Tree10m, 11, 400.0);
        let c = tiny(Workload::Tree10m, 12, 400.0);
        assert_eq!(a.violations, Vec::<String>::new());
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.sim, b.sim);
        assert_ne!(a.fingerprint, c.fingerprint);
        // No namespace writes: nothing for the coordinator to carry (the
        // only rows the store writes are the DataNodes' periodic reports).
        assert!(!metric(&a, "coord.msgs_per_write").defined);
        assert!(!metric(&a, "core.lat_write_p99_ms").defined);
        assert_eq!(metric(&a, "namespace.cache_invalidations").value, 0.0);
    }

    #[test]
    fn repetition_documents_round_trip_through_json() {
        let doc = repetition_process(Workload::WriteMix, 2, 256.0, false);
        assert!(doc.violations.is_empty(), "{:?}", doc.violations);
        assert!(doc.setup_s > 0.0 && doc.window_s > 0.0 && doc.peak_rss_mb > 0.0);
        let line = doc.to_json().to_line();
        assert!(!line.contains('\n'));
        let back = RepDoc::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, doc);
        assert!(RepDoc::from_json(&Json::parse("{}").unwrap()).is_err());
    }
}
