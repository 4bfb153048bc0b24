//! Per-layer counters read through each crate's public getters, as deltas
//! over the timed window, and the per-layer metrics derived from them.

use lambda_faas::PlatformStats;
use lambda_namespace::{CacheStats, OpClass};
use lambda_sim::{GaugeSeries, SimTime, StationStats};
use lambda_store::{DbStats, DurabilityStats, LsmStats};

use crate::probes::Probes;
use crate::stats::percentile_sorted;
use crate::workloads::{Built, Offered, Recorder};

/// The scalar counters of `lambda_fs::RunMetrics` the `core` layer reports.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientCounters {
    pub retries: u64,
    pub timeouts: u64,
    pub retries_exhausted: u64,
    pub load_sheds: u64,
    pub straggler_resubmits: u64,
    pub anti_thrash_entries: u64,
    pub connection_shares: u64,
    pub http_no_connection: u64,
    pub http_replaced: u64,
}

/// One reading of every cumulative counter the layers expose.
#[derive(Debug, Clone)]
pub struct Counters {
    pub at: SimTime,
    pub events: u64,
    pub platform: PlatformStats,
    pub pay_usd: f64,
    pub cache: CacheStats,
    pub db: DbStats,
    pub shards: Vec<(u32, StationStats)>,
    pub durability: DurabilityStats,
    pub lsm: LsmStats,
    pub coord_delivered: u64,
    pub coord_dropped: u64,
    pub client: ClientCounters,
}

impl Counters {
    pub fn read(built: &Built) -> Counters {
        let fs = &built.fs;
        let (coord_delivered, coord_dropped) = fs.coordinator().message_stats();
        let client = {
            let m = fs.metrics();
            let m = m.borrow();
            ClientCounters {
                retries: m.retries,
                timeouts: m.timeouts,
                retries_exhausted: m.retries_exhausted,
                load_sheds: m.load_sheds,
                straggler_resubmits: m.straggler_resubmits,
                anti_thrash_entries: m.anti_thrash_entries,
                connection_shares: m.connection_shares,
                http_no_connection: m.http_no_connection,
                http_replaced: m.http_replaced,
            }
        };
        Counters {
            at: built.sim.now(),
            events: built.sim.events_executed(),
            platform: fs.platform().stats(),
            pay_usd: fs.pay_meter().total(),
            cache: fs.cache_stats(),
            db: fs.db().stats(),
            shards: fs
                .db()
                .shards()
                .iter()
                .map(|s| {
                    let s = s.borrow();
                    (s.servers(), s.stats())
                })
                .collect(),
            // Absent without the durable backend: every lsm.* reads 0.
            durability: fs.db().durability_stats().unwrap_or_default(),
            lsm: fs.db().lsm_stats().unwrap_or_default(),
            coord_delivered,
            coord_dropped,
            client,
        }
    }
}

/// A named metric value with its unit. `defined` is false where the
/// quantity has no meaning on this workload (a ratio with a zero
/// denominator, an allocator count in an untraced build); such values
/// print as 0.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub defined: bool,
}

#[derive(Default)]
pub struct MetricList(pub Vec<Metric>);

impl MetricList {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.0.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            defined: true,
        });
    }

    /// `num / den`, undefined (and 0) when `den` is 0.
    pub fn ratio(&mut self, name: &str, unit: &'static str, num: f64, den: f64) {
        let defined = den != 0.0;
        let value = if defined { num / den } else { 0.0 };
        self.0.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            defined,
        });
    }

    pub fn optional(&mut self, name: &str, unit: &'static str, value: Option<f64>) {
        self.0.push(Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value: value.unwrap_or(0.0),
            defined: value.is_some(),
        });
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// Time-weighted mean and peak of a step gauge over `[from, to]`.
fn gauge_over(gauge: &GaugeSeries, from: SimTime, to: SimTime) -> (f64, f64) {
    let mut value = gauge.value_at(from).unwrap_or(0.0);
    let (mut at, mut area, mut peak) = (from, 0.0, value);
    for &(t, v) in gauge.points().iter().filter(|(t, _)| *t > from && *t <= to) {
        area += value * (t - at).as_secs_f64();
        (at, value) = (t, v);
        peak = peak.max(v);
    }
    area += value * (to - at).as_secs_f64();
    let span = (to - from).as_secs_f64();
    (if span > 0.0 { area / span } else { value }, peak)
}

/// Whether a layer metric reads the host's clock or allocator rather than
/// the simulation: such values are not part of the simulated state a
/// fingerprint covers or `compare` expects to repeat exactly.
pub fn is_host_clock(name: &str) -> bool {
    name.contains(".host_")
        || name.starts_with("alloc.")
        || name.starts_with("trace.")
        || name == "namespace.bytes_per_inode"
}

/// Sorted latencies of the given classes merged.
pub fn merged_sorted(rec: &Recorder, classes: &[OpClass]) -> Vec<u64> {
    let mut all: Vec<u64> = OpClass::ALL
        .iter()
        .zip(&rec.lat_ns)
        .filter(|(class, _)| classes.contains(class))
        .flat_map(|(_, lat)| lat.iter().copied())
        .collect();
    all.sort_unstable();
    all
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Heap figures of the window, from the counting allocator (traced
/// builds only).
#[derive(Debug, Clone, Copy, Default)]
pub struct HeapWindow {
    pub allocs: u64,
    pub live_growth_bytes: i64,
    pub peak_bytes: u64,
    pub bootstrap_bytes: u64,
    pub bootstrap_inodes: usize,
}

/// Everything one repetition measured that the per-layer table needs.
pub struct LayerInputs<'a> {
    pub before: &'a Counters,
    pub after: &'a Counters,
    pub rec: &'a Recorder,
    pub offered: &'a Offered,
    pub gauge: &'a GaugeSeries,
    pub vcpus_peak: u32,
    pub window_wall_ns: f64,
    pub heap: Option<HeapWindow>,
    pub probes: Option<&'a Probes>,
}

/// The per-layer metrics, in the order BENCHMARK.json lists them.
pub fn layer_metrics(inp: &LayerInputs<'_>) -> MetricList {
    let (a, b, rec) = (inp.before, inp.after, inp.rec);
    let d = |after: u64, before: u64| (after - before) as f64;
    let ops = rec.succeeded as f64;
    let wall = inp.window_wall_ns;
    let probes = inp.probes;
    let mut m = MetricList::default();
    // Share of the window's wall time a probe's unit cost accounts for.
    let share = |unit_ns: f64, units: f64| {
        if wall > 0.0 {
            unit_ns * units / wall
        } else {
            0.0
        }
    };

    // sim
    let events = d(b.events, a.events);
    m.ratio("sim.events_per_op", "count", events, ops);
    m.optional(
        "sim.host_ns_per_event",
        "ns",
        probes.map(|p| p.sim_ns_per_event),
    );
    let sim_share = probes.map(|p| share(p.sim_ns_per_event, events));
    m.optional("sim.host_share", "share", sim_share);

    // faas
    let (http, tcp) = (
        d(b.platform.http_invocations, a.platform.http_invocations),
        d(b.platform.tcp_deliveries, a.platform.tcp_deliveries),
    );
    m.ratio("faas.http_share", "share", http, http + tcp);
    m.push(
        "faas.cold_starts",
        "count",
        d(b.platform.cold_starts, a.platform.cold_starts),
    );
    m.push(
        "faas.reclaims",
        "count",
        d(b.platform.reclaims, a.platform.reclaims),
    );
    m.push("faas.kills", "count", d(b.platform.kills, a.platform.kills));
    m.push(
        "faas.evictions",
        "count",
        d(b.platform.evictions, a.platform.evictions),
    );
    m.push(
        "faas.expired_requests",
        "count",
        d(b.platform.expired_requests, a.platform.expired_requests),
    );
    let active_until = rec.last_done.unwrap_or(b.at).max(a.at);
    let (nn_mean, nn_peak) = gauge_over(inp.gauge, a.at, active_until);
    m.push("faas.namenodes_peak", "count", nn_peak);
    m.push("faas.namenodes_mean", "count", nn_mean);
    m.push("faas.vcpus_peak", "count", f64::from(inp.vcpus_peak));
    m.optional(
        "faas.host_ns_per_tcp_deliver",
        "ns",
        probes.map(|p| p.faas_ns_per_tcp),
    );
    m.optional(
        "faas.host_ns_per_http_invoke",
        "ns",
        probes.map(|p| p.faas_ns_per_http),
    );
    let faas_share =
        probes.map(|p| share(p.faas_ns_per_tcp, tcp) + share(p.faas_ns_per_http, http));
    m.optional("faas.host_share", "share", faas_share);

    // namespace
    let (hits, misses) = (
        d(b.cache.hits, a.cache.hits),
        d(b.cache.misses, a.cache.misses),
    );
    let (lhits, lmisses) = (
        d(b.cache.listing_hits, a.cache.listing_hits),
        d(b.cache.listing_misses, a.cache.listing_misses),
    );
    m.ratio("namespace.cache_hit_ratio", "share", hits, hits + misses);
    m.ratio(
        "namespace.listing_hit_ratio",
        "share",
        lhits,
        lhits + lmisses,
    );
    m.push(
        "namespace.cache_insertions",
        "count",
        d(b.cache.insertions, a.cache.insertions),
    );
    m.push(
        "namespace.cache_evictions",
        "count",
        d(b.cache.evictions, a.cache.evictions),
    );
    m.push(
        "namespace.cache_invalidations",
        "count",
        d(b.cache.invalidations, a.cache.invalidations)
            + d(b.cache.prefix_invalidations, a.cache.prefix_invalidations),
    );
    m.optional(
        "namespace.bytes_per_inode",
        "B",
        inp.heap
            .filter(|h| h.bootstrap_inodes > 0)
            .map(|h| h.bootstrap_bytes as f64 / h.bootstrap_inodes as f64),
    );
    m.optional(
        "namespace.host_ns_per_lookup_hit",
        "ns",
        probes.map(|p| p.ns_lookup_hit),
    );
    m.optional(
        "namespace.host_ns_per_resolve_miss",
        "ns",
        probes.map(|p| p.ns_resolve_miss),
    );
    let ns_share = probes.map(|p| share(p.ns_lookup_hit, hits) + share(p.ns_resolve_miss, misses));
    m.optional("namespace.host_share", "share", ns_share);

    // store
    let reads =
        d(b.db.locked_reads, a.db.locked_reads) + d(b.db.unlocked_reads, a.db.unlocked_reads);
    let (commits, aborts) = (d(b.db.commits, a.db.commits), d(b.db.aborts, a.db.aborts));
    m.ratio(
        "store.locked_reads_per_op",
        "count",
        d(b.db.locked_reads, a.db.locked_reads),
        ops,
    );
    m.ratio(
        "store.unlocked_reads_per_op",
        "count",
        d(b.db.unlocked_reads, a.db.unlocked_reads),
        ops,
    );
    m.ratio(
        "store.scans_per_op",
        "count",
        d(b.db.scans, a.db.scans),
        ops,
    );
    m.ratio(
        "store.rows_written_per_op",
        "count",
        d(b.db.rows_written, a.db.rows_written),
        ops,
    );
    m.ratio("store.commits_per_op", "count", commits, ops);
    m.ratio("store.abort_share", "share", aborts, commits + aborts);
    m.push(
        "store.lock_timeouts",
        "count",
        d(b.db.lock_timeouts, a.db.lock_timeouts),
    );
    m.push(
        "store.unavailable_errors",
        "count",
        d(b.db.unavailable_errors, a.db.unavailable_errors),
    );
    m.push(
        "store.failover_aborts",
        "count",
        d(b.db.failover_aborts, a.db.failover_aborts),
    );
    let active_secs = (active_until - a.at).as_secs_f64();
    let utils: Vec<f64> = a
        .shards
        .iter()
        .zip(&b.shards)
        .map(|((servers, before), (_, after))| {
            let busy = (after.busy_time - before.busy_time).as_secs_f64();
            if active_secs > 0.0 {
                busy / (f64::from(*servers) * active_secs)
            } else {
                0.0
            }
        })
        .collect();
    m.push(
        "store.shard_util_max",
        "share",
        utils.iter().copied().fold(0.0, f64::max),
    );
    m.ratio(
        "store.shard_util_mean",
        "share",
        utils.iter().sum(),
        utils.len() as f64,
    );
    let (wait, done) = a.shards.iter().zip(&b.shards).fold(
        (0.0, 0.0),
        |(wait, done), ((_, before), (_, after))| {
            (
                wait + (after.wait_time - before.wait_time).as_millis_f64(),
                done + d(after.completions, before.completions),
            )
        },
    );
    m.ratio("store.shard_wait_ms_mean", "ms", wait, done);
    m.optional(
        "store.host_ns_per_get",
        "ns",
        probes.map(|p| p.store_ns_per_get),
    );
    m.optional(
        "store.host_ns_per_txn",
        "ns",
        probes.map(|p| p.store_ns_per_txn),
    );
    let store_share =
        probes.map(|p| share(p.store_ns_per_get, reads) + share(p.store_ns_per_txn, commits));
    m.optional("store.host_share", "share", store_share);

    // lsm (durable backend only)
    let appends = d(b.durability.wal_appends, a.durability.wal_appends);
    m.ratio("lsm.wal_appends_per_commit", "count", appends, commits);
    m.push(
        "lsm.group_syncs",
        "count",
        d(b.durability.group_syncs, a.durability.group_syncs),
    );
    m.ratio(
        "lsm.write_amp",
        "ratio",
        d(b.lsm.bytes_compacted, a.lsm.bytes_compacted),
        d(b.lsm.bytes_ingested, a.lsm.bytes_ingested),
    );
    m.push(
        "lsm.replayed_records",
        "count",
        d(b.durability.replayed_records, a.durability.replayed_records),
    );
    m.push(
        "lsm.lost_records",
        "count",
        d(b.durability.lost_records, a.durability.lost_records),
    );
    m.push(
        "lsm.lost_window_aborts",
        "count",
        d(
            b.durability.lost_window_aborts,
            a.durability.lost_window_aborts,
        ),
    );
    m.push(
        "lsm.recovery_ms_max",
        "ms",
        b.durability.recovery_nanos_max as f64 / 1e6,
    );
    m.push(
        "lsm.recovery_ms_total",
        "ms",
        d(
            b.durability.recovery_nanos_total,
            a.durability.recovery_nanos_total,
        ) / 1e6,
    );
    m.optional(
        "lsm.host_ns_per_put",
        "ns",
        probes.map(|p| p.lsm_ns_per_put),
    );
    let lsm_share = probes.map(|p| share(p.lsm_ns_per_put, appends));
    m.optional("lsm.host_share", "share", lsm_share);

    // coord
    let writes: f64 = OpClass::ALL
        .iter()
        .zip(&rec.lat_ns)
        .filter(|(c, _)| c.is_write())
        .map(|(_, l)| l.len() as f64)
        .sum();
    let delivered = d(b.coord_delivered, a.coord_delivered);
    let dropped = d(b.coord_dropped, a.coord_dropped);
    m.ratio("coord.msgs_per_write", "count", delivered, writes);
    m.push("coord.msgs_dropped", "count", dropped);
    m.optional(
        "coord.host_ns_per_send",
        "ns",
        probes.map(|p| p.coord_ns_per_send),
    );
    let coord_share = probes.map(|p| share(p.coord_ns_per_send, delivered + dropped));
    m.optional("coord.host_share", "share", coord_share);

    // core
    let (ca, cb) = (&a.client, &b.client);
    m.ratio(
        "core.retries_per_kop",
        "count",
        d(cb.retries, ca.retries) * 1e3,
        ops,
    );
    m.push("core.timeouts", "count", d(cb.timeouts, ca.timeouts));
    m.push(
        "core.retries_exhausted",
        "count",
        d(cb.retries_exhausted, ca.retries_exhausted),
    );
    m.push("core.load_sheds", "count", d(cb.load_sheds, ca.load_sheds));
    m.push(
        "core.straggler_resubmits",
        "count",
        d(cb.straggler_resubmits, ca.straggler_resubmits),
    );
    m.push(
        "core.anti_thrash_entries",
        "count",
        d(cb.anti_thrash_entries, ca.anti_thrash_entries),
    );
    m.push(
        "core.connection_shares",
        "count",
        d(cb.connection_shares, ca.connection_shares),
    );
    m.push(
        "core.http_no_connection",
        "count",
        d(cb.http_no_connection, ca.http_no_connection),
    );
    m.push(
        "core.http_replaced",
        "count",
        d(cb.http_replaced, ca.http_replaced),
    );
    for (name, lat) in OpClass::ALL.iter().zip(&rec.lat_ns) {
        let mut sorted = lat.clone();
        sorted.sort_unstable();
        for (tag, p) in [("p50", 0.5), ("p99", 0.99)] {
            m.optional(
                &format!("core.lat_{name}_{tag}_ms"),
                "ms",
                (!sorted.is_empty()).then(|| ms(percentile_sorted(&sorted, p))),
            );
        }
    }
    let write_classes: Vec<OpClass> = OpClass::ALL.into_iter().filter(|c| c.is_write()).collect();
    let write_lat = merged_sorted(rec, &write_classes);
    m.optional(
        "core.lat_write_p99_ms",
        "ms",
        (!write_lat.is_empty()).then(|| ms(percentile_sorted(&write_lat, 0.99))),
    );
    // The 99th percentiles are layer metrics, not end-to-end ones: where
    // about 1 % of operations take the HTTP path (`tree_10m`), p99 sits on
    // the gap between the TCP and the HTTP population and flips between
    // them from seed to seed.
    let all_lat = merged_sorted(rec, &OpClass::ALL);
    m.optional(
        "core.lat_all_p99_ms",
        "ms",
        (!all_lat.is_empty()).then(|| ms(percentile_sorted(&all_lat, 0.99))),
    );
    let generated = inp.offered.generated as f64;
    // The share the client library did not complete at the first call.
    m.ratio(
        "core.failed_share",
        "share",
        generated - rec.first_try as f64,
        generated,
    );
    // What the probed layers' shares leave unexplained: client library and
    // NameNode logic cannot be driven in isolation from outside.
    let probed: f64 = (m.0.iter())
        .filter(|x| x.name.ends_with(".host_share"))
        .map(|x| x.value)
        .sum();
    m.optional(
        "core.host_share_residual",
        "share",
        probes.map(|_| 1.0 - probed),
    );

    // workload
    m.push("workload.generated", "count", generated);
    m.optional(
        "workload.offered_peak_ops_s",
        "1/s",
        (inp.offered.offered_peak_ops_s > 0.0).then_some(inp.offered.offered_peak_ops_s),
    );

    // allocstats (traced builds only)
    m.optional(
        "alloc.allocs_per_op",
        "count",
        inp.heap.map(|h| h.allocs as f64 / ops.max(1.0)),
    );
    m.optional(
        "alloc.bytes_per_op",
        "B",
        inp.heap.map(|h| h.live_growth_bytes as f64 / ops.max(1.0)),
    );
    m.optional(
        "alloc.peak_heap_mb",
        "MB",
        inp.heap.map(|h| h.peak_bytes as f64 / 1e6),
    );
    // Filled in by the process that also ran the untraced reference.
    m.optional("trace.overhead_share", "share", None);
    m
}

/// Warnings (never failures) for layer values that cannot be physically
/// right — the ROADMAP's durability anomaly should be visible here, not
/// fixed here.
pub fn sanity_warnings(m: &MetricList) -> Vec<String> {
    // Differences that may legitimately be negative.
    const SIGNED: [&str; 2] = ["trace.overhead_share", "alloc.bytes_per_op"];
    m.0.iter()
        .filter(|metric| metric.defined)
        .filter_map(|metric| {
            let (name, v) = (metric.name.as_str(), metric.value);
            let fraction = (name.ends_with("_ratio")
                || name.ends_with("_share")
                || name.ends_with("_residual"))
                && !SIGNED.contains(&name);
            let problem = if !v.is_finite() {
                "is not a finite number"
            } else if name == "lsm.write_amp" && v > 0.0 && v < 1.0 {
                "is below 1: fewer bytes reached SSTables than were ingested"
            } else if fraction && !(-1e-9..=1.0 + 1e-9).contains(&v) {
                "lies outside [0, 1]"
            } else if v < 0.0 && !fraction && !SIGNED.contains(&name) {
                "is negative"
            } else {
                return None;
            };
            Some(format!("{name} = {v} {problem}"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lambda_sim::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn gauge_mean_is_time_weighted_inside_the_window() {
        let mut g = GaugeSeries::new();
        g.observe(t(0), 10.0);
        g.observe(t(4), 20.0);
        g.observe(t(6), 40.0);
        g.observe(t(20), 99.0);
        // [2, 10]: 10 for 2 s, 20 for 2 s, 40 for 4 s.
        let (mean, peak) = gauge_over(&g, t(2), t(10));
        assert!((mean - (20.0 + 40.0 + 160.0) / 8.0).abs() < 1e-12);
        assert_eq!(peak, 40.0);
        // A window before the first observation reads zero.
        assert_eq!(gauge_over(&GaugeSeries::new(), t(1), t(2)), (0.0, 0.0));
    }

    #[test]
    fn undefined_ratios_print_as_zero_and_say_so() {
        let mut m = MetricList::default();
        m.ratio("coord.msgs_per_write", "count", 5.0, 0.0);
        m.ratio("store.abort_share", "share", 1.0, 4.0);
        assert_eq!(
            m.get("coord.msgs_per_write").map(|x| (x.value, x.defined)),
            Some((0.0, false))
        );
        assert_eq!(
            m.get("store.abort_share").map(|x| (x.value, x.defined)),
            Some((0.25, true))
        );
    }

    #[test]
    fn impossible_values_warn() {
        let mut m = MetricList::default();
        m.push("lsm.write_amp", "ratio", 0.86);
        m.push("namespace.cache_hit_ratio", "share", 1.2);
        m.push("store.abort_share", "share", 0.5);
        m.push("faas.kills", "count", -1.0);
        m.push("trace.overhead_share", "share", -0.1);
        m.push("core.host_share_residual", "share", -0.2);
        let w = sanity_warnings(&m);
        assert_eq!(w.len(), 4, "{w:?}");
        assert!(w[0].contains("lsm.write_amp"));
        assert!(w[1].contains("cache_hit_ratio"));
        assert!(w[2].contains("faas.kills"));
        assert!(w[3].contains("host_share_residual"));
    }
}
