//! End-to-end metrics, the simulated-statistics fingerprint, and the
//! result document every run writes.

use lambda_namespace::OpClass;

use crate::json::{obj, Json};
use crate::layers::{is_host_clock, merged_sorted, ms, Counters, MetricList};
use crate::stats::{percentile_sorted, Summary};
use crate::workloads::{Offered, Recorder, Workload};

/// Which clock a metric is read from. `Sim` metrics are simulated time —
/// what a λFS client would see; they repeat bit-exactly for a seed and a
/// repetition count. `Host` metrics are what the simulator costs to run,
/// subject to sandbox noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Sim,
    Host,
}

/// Definition of one end-to-end metric; `bound` is the share of the
/// parent's median by which it may worsen (BENCHMARK.json carries the
/// same numbers).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
    pub clock: Clock,
}

pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "host_ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.25,
        clock: Clock::Host,
    },
    EndToEnd {
        name: "sim_tput_ops_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.03,
        clock: Clock::Sim,
    },
    EndToEnd {
        name: "sim_lat_p50_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.05,
        clock: Clock::Sim,
    },
    EndToEnd {
        name: "sim_lat_mean_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.1,
        clock: Clock::Sim,
    },
    EndToEnd {
        name: "sim_lat_p999_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.25,
        clock: Clock::Sim,
    },
    EndToEnd {
        name: "sim_read_mean_ms",
        unit: "ms",
        higher_is_better: false,
        bound: 0.15,
        clock: Clock::Sim,
    },
    EndToEnd {
        name: "sim_usd_per_mop",
        unit: "usd/Mop",
        higher_is_better: false,
        bound: 0.15,
        clock: Clock::Sim,
    },
    EndToEnd {
        name: "success_share",
        unit: "share",
        higher_is_better: true,
        bound: 0.001,
        clock: Clock::Sim,
    },
];

/// The simulated end-to-end numbers of one repetition, under their
/// metric names: every `Clock::Sim` entry of [`END_TO_END`], in its order.
pub type SimEndToEnd = Vec<(String, f64)>;

fn mean_ms(sorted: &[u64]) -> f64 {
    if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().map(|&ns| ns as f64).sum::<f64>() / sorted.len() as f64 / 1e6
    }
}

pub fn sim_end_to_end(
    w: Workload,
    rec: &Recorder,
    offered: &Offered,
    before: &Counters,
    after: &Counters,
) -> SimEndToEnd {
    let all = merged_sorted(rec, &OpClass::ALL);
    let reads = merged_sorted(rec, &[OpClass::Read, OpClass::Stat, OpClass::Ls]);
    let tput_ops_s = if w.open_loop() {
        // Averaged over the offered window only: backlog drained later
        // earns no credit.
        rec.credited as f64 / offered.offered_secs.max(f64::MIN_POSITIVE)
    } else {
        match (rec.first_submit, rec.last_done) {
            (Some(first), Some(last)) if last > first => {
                rec.succeeded as f64 / (last - first).as_secs_f64()
            }
            _ => 0.0,
        }
    };
    let named = [
        ("sim_tput_ops_s", tput_ops_s),
        ("sim_lat_p50_ms", ms(percentile_sorted(&all, 0.5))),
        ("sim_lat_mean_ms", mean_ms(&all)),
        ("sim_lat_p999_ms", ms(percentile_sorted(&all, 0.999))),
        ("sim_read_mean_ms", mean_ms(&reads)),
        // Growth of the pay-per-use meter over the window (Fig. 8c/9).
        (
            "sim_usd_per_mop",
            (after.pay_usd - before.pay_usd) / (rec.succeeded.max(1) as f64) * 1e6,
        ),
        // 1 − the share the client library failed, timed out, shed or
        // answered ambiguously, and the application had to recover.
        (
            "success_share",
            rec.first_try as f64 / offered.generated.max(1) as f64,
        ),
    ];
    named
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect()
}

/// FNV-1a over every simulated count and latency the benchmark reports.
/// A change that only makes the simulator faster must leave it unchanged.
pub struct Fingerprint(u64);

impl Fingerprint {
    pub fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

pub fn fingerprint(rec: &Recorder, offered: &Offered, layers: &MetricList) -> u64 {
    let mut fp = Fingerprint::new();
    for v in [
        offered.generated,
        rec.submitted,
        rec.succeeded,
        rec.first_try,
        rec.abandoned,
        rec.timeouts,
        rec.retries_exhausted,
        rec.ambiguous_replies,
        rec.wrong_outcomes,
        rec.credited,
    ] {
        fp.u64(v);
    }
    // Order-sensitive over every latency: any change to any operation's
    // simulated completion shows.
    for class in &rec.lat_ns {
        fp.u64(class.len() as u64);
        for &ns in class {
            fp.u64(ns);
        }
    }
    // Simulated layer counts; host-clock probes and allocator figures are
    // not part of the simulated state.
    for m in layers.0.iter().filter(|m| !is_host_clock(&m.name)) {
        fp.f64(m.value);
    }
    fp.finish()
}

/// One end-to-end metric as measured: the median of the repetitions and
/// their spread.
pub struct Measured {
    pub def: &'static EndToEnd,
    pub value: f64,
    pub spread: Summary,
}

impl Measured {
    pub fn to_json(&self) -> Json {
        let s = &self.spread;
        obj([
            ("value", self.value.into()),
            ("unit", self.def.unit.into()),
            (
                "better",
                (if self.def.higher_is_better {
                    "higher"
                } else {
                    "lower"
                })
                .into(),
            ),
            ("bound", self.def.bound.into()),
            (
                "clock",
                (if self.def.clock == Clock::Sim {
                    "sim"
                } else {
                    "host"
                })
                .into(),
            ),
            ("n", (s.n as u64).into()),
            ("q1", s.q1.into()),
            ("q3", s.q3.into()),
            ("min", s.min.into()),
            ("max", s.max.into()),
        ])
    }
}

pub fn layers_to_json(layers: &MetricList) -> Json {
    Json::Obj(
        layers
            .0
            .iter()
            .map(|m| {
                let value = if m.defined {
                    Json::from(m.value)
                } else {
                    Json::Null
                };
                (
                    m.name.clone(),
                    obj([("value", value), ("unit", m.unit.as_str().into())]),
                )
            })
            .collect(),
    )
}

/// The `{"value", "unit"}` table of the final output line.
pub fn metrics_line<'a>(items: impl Iterator<Item = (&'a str, f64, &'a str)>) -> Json {
    Json::Obj(
        items
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    obj([("value", value.into()), ("unit", unit.into())]),
                )
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_contract_charset_and_are_unique() {
        let ok = |name: &str| {
            !name.is_empty()
                && name.len() <= 64
                && name.chars().next().unwrap().is_ascii_alphanumeric()
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        assert!(names.iter().all(|n| ok(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len());
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher_is_better));
    }

    #[test]
    fn fingerprint_sees_every_latency() {
        let mut rec = Recorder::default();
        rec.lat_ns[0] = vec![1_000, 2_000];
        let offered = Offered::default();
        let base = fingerprint(&rec, &offered, &MetricList::default());
        assert_eq!(base, fingerprint(&rec, &offered, &MetricList::default()));
        rec.lat_ns[0][1] += 1;
        assert_ne!(base, fingerprint(&rec, &offered, &MetricList::default()));
    }

    #[test]
    fn fingerprint_ignores_host_clock_metrics() {
        let (rec, offered) = (Recorder::default(), Offered::default());
        let mut a = MetricList::default();
        a.push("sim.host_ns_per_event", "ns", 80.0);
        a.push("alloc.peak_heap_mb", "MB", 5.0);
        let mut b = MetricList::default();
        b.push("sim.host_ns_per_event", "ns", 95.0);
        b.push("alloc.peak_heap_mb", "MB", 6.0);
        assert_eq!(
            fingerprint(&rec, &offered, &a),
            fingerprint(&rec, &offered, &b)
        );
        b.push("faas.kills", "count", 1.0);
        assert_ne!(
            fingerprint(&rec, &offered, &a),
            fingerprint(&rec, &offered, &b)
        );
    }
}
