//! Client-observed run metrics: the numbers every reproduced figure is
//! built from.

use std::collections::BTreeMap;

use lambda_namespace::OpClass;
use lambda_sim::{LatencyRecorder, SimDuration, SimTime, Timeline};

/// Aggregated client-side measurements for one run.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// End-to-end latency per operation class (Fig. 10's CDFs).
    pub latency: BTreeMap<OpClass, LatencyRecorder>,
    /// Operations completed per second (the Fig. 8/15 curves).
    pub throughput: Timeline,
    /// Operations submitted.
    pub issued: u64,
    /// Operations completed successfully.
    pub completed: u64,
    /// Operations that failed with a non-retryable error.
    pub failed: u64,
    /// Operations whose every attempt timed out on the wire.
    pub timeouts: u64,
    /// Operations the service kept answering with transient errors until
    /// the client's retries ran out ([`lambda_namespace::FsError::RetriesExhausted`]).
    pub retries_exhausted: u64,
    /// Retry attempts (timeouts + transient failures).
    pub retries: u64,
    /// Always zero: the client library sheds no retries. It stays only
    /// because the benchmark reports it, and goes with the benchmark's
    /// next change.
    pub load_sheds: u64,
    /// Requests issued over HTTP (the FaaS-visible, auto-scaling path).
    pub http_rpcs: u64,
    /// Requests issued over TCP (the fast path).
    pub tcp_rpcs: u64,
    /// Straggler-mitigation resubmissions (Appendix B).
    pub straggler_resubmits: u64,
    /// Times a client entered anti-thrashing mode (Appendix C).
    pub anti_thrash_entries: u64,
    /// Requests routed through another client's TCP server (connection
    /// sharing, Fig. 4).
    pub connection_shares: u64,
    /// HTTP RPCs caused by the probabilistic replacement knob.
    pub http_replaced: u64,
    /// HTTP RPCs caused by having no TCP connection to the target.
    pub http_no_connection: u64,
}

impl Default for RunMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl RunMetrics {
    /// Creates empty metrics with one-second throughput buckets.
    #[must_use]
    pub fn new() -> Self {
        RunMetrics {
            latency: BTreeMap::new(),
            throughput: Timeline::new(SimDuration::from_secs(1)),
            issued: 0,
            completed: 0,
            failed: 0,
            timeouts: 0,
            retries_exhausted: 0,
            retries: 0,
            load_sheds: 0,
            http_rpcs: 0,
            tcp_rpcs: 0,
            straggler_resubmits: 0,
            anti_thrash_entries: 0,
            connection_shares: 0,
            http_replaced: 0,
            http_no_connection: 0,
        }
    }

    /// Records a successful completion.
    pub fn record_success(&mut self, at: SimTime, class: OpClass, latency: SimDuration) {
        self.completed += 1;
        self.throughput.add(at, 1.0);
        self.latency.entry(class).or_default().record(latency);
    }

    /// Records a terminal failure.
    pub fn record_failure(&mut self, timed_out: bool) {
        if timed_out {
            self.timeouts += 1;
        } else {
            self.failed += 1;
        }
    }

    /// Records a terminal failure classified by error kind: timeouts,
    /// retry-budget exhaustion, and genuine errors are tallied apart.
    pub fn record_error(&mut self, error: &lambda_namespace::FsError) {
        use lambda_namespace::FsError;
        match error {
            FsError::Timeout => self.timeouts += 1,
            FsError::RetriesExhausted => self.retries_exhausted += 1,
            _ => self.failed += 1,
        }
    }

    /// Every operation that reached a terminal state. Conservation — the
    /// auditor's billing check — demands this equals [`RunMetrics::issued`]
    /// once the run has drained.
    #[must_use]
    pub fn accounted(&self) -> u64 {
        self.completed + self.failed + self.timeouts + self.retries_exhausted
    }

    /// Mean latency across all classes, or zero when empty.
    #[must_use]
    pub fn mean_latency(&self) -> SimDuration {
        let (mut total, mut n) = (0.0f64, 0usize);
        for rec in self.latency.values() {
            total += rec.mean().as_secs_f64() * rec.count() as f64;
            n += rec.count();
        }
        if n == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_secs_f64(total / n as f64)
        }
    }

    /// Mean throughput over the populated run, in ops/sec.
    #[must_use]
    pub fn mean_throughput(&self) -> f64 {
        self.throughput.mean()
    }

    /// Peak per-second throughput.
    #[must_use]
    pub fn peak_throughput(&self) -> f64 {
        self.throughput.peak()
    }

    /// Peak throughput sustained over `window_secs` consecutive seconds.
    #[must_use]
    pub fn peak_sustained_throughput(&self, window_secs: usize) -> f64 {
        self.throughput.peak_sustained(window_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_aggregate_by_class() {
        let mut m = RunMetrics::new();
        m.record_success(SimTime::from_secs(1), OpClass::Read, SimDuration::from_millis(1));
        m.record_success(SimTime::from_secs(1), OpClass::Read, SimDuration::from_millis(3));
        m.record_success(SimTime::from_secs(2), OpClass::Create, SimDuration::from_millis(10));
        assert_eq!(m.completed, 3);
        assert_eq!(m.latency[&OpClass::Read].count(), 2);
        assert_eq!(m.mean_latency(), SimDuration::from_millis_f64(14.0 / 3.0));
        assert_eq!(m.throughput.buckets(), vec![0.0, 2.0, 1.0]);
        assert_eq!(m.peak_throughput(), 2.0);
    }

    #[test]
    fn failures_split_timeouts_from_errors() {
        let mut m = RunMetrics::new();
        m.record_failure(true);
        m.record_failure(false);
        assert_eq!(m.timeouts, 1);
        assert_eq!(m.failed, 1);
        assert_eq!(m.completed, 0);
        assert_eq!(m.mean_latency(), SimDuration::ZERO);
    }
}
