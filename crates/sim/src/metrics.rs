//! Measurement instruments: latency recorders, per-second timelines, and
//! gauge series.
//!
//! These are the instruments the experiment harness reads to regenerate the
//! paper's figures: throughput-over-time curves (Fig. 8, 15), latency CDFs
//! (Fig. 10), active-NameNode counts (Fig. 8's secondary axis), and the
//! per-second cost series behind Fig. 8(c) and Fig. 9.

use crate::time::{SimDuration, SimTime};

/// Sub-bucket resolution of the latency histogram: 2^7 = 128 log-spaced
/// buckets per octave, giving a worst-case relative quantile error of
/// 1/256 ≈ 0.39% (the spec budget is 1%).
const SUB_BITS: u32 = 7;

/// Biased exponent of the smallest distinguishable latency (2⁻⁴⁰ s ≈ 1 ps);
/// everything smaller — including zero — collapses into bucket 0.
const MIN_BIASED: u64 = 983;

/// Histogram index of a non-negative latency in seconds. Exploits the IEEE
/// 754 layout: the top bits of a positive double are `biased_exponent ||
/// mantissa`, so a shift yields a log-spaced bucket index directly.
fn bucket_index(seconds: f64) -> usize {
    debug_assert!(seconds >= 0.0, "latencies are non-negative");
    let raw = (seconds.to_bits() >> (52 - SUB_BITS)) as i64;
    let origin = (MIN_BIASED << SUB_BITS) as i64;
    usize::try_from((raw - origin).max(0)).expect("bucket index fits usize")
}

/// Representative latency (seconds) of a bucket: the geometric middle of its
/// `[low, low·(1 + 2⁻⁷))` span, so any sample in the bucket is within
/// 2⁻⁸ ≈ 0.39% of the value reported for it.
fn bucket_value(index: usize) -> f64 {
    let raw = index as u64 + (MIN_BIASED << SUB_BITS);
    let low = f64::from_bits(raw << (52 - SUB_BITS));
    low * (1.0 + 1.0 / (1u64 << (SUB_BITS + 1)) as f64)
}

/// Records latency samples and answers distribution queries from a
/// streaming, HDR-style log-bucketed histogram.
///
/// Recording is O(1): one array increment plus exact running count, sum,
/// min, and max. Quantile queries walk the bucket array (`&self`, no sort,
/// no cached state), so records and queries interleave freely. `count`,
/// `mean`, and `max` are exact; `percentile` and `cdf` are accurate to
/// 1/256 ≈ 0.39% relative error (`p = 0` and `p = 1` return the exact min
/// and max).
///
/// # Examples
///
/// ```
/// use lambda_sim::{LatencyRecorder, SimDuration};
///
/// let mut rec = LatencyRecorder::new();
/// for ms in [1u64, 2, 3, 4, 100] {
///     rec.record(SimDuration::from_millis(ms));
/// }
/// assert_eq!(rec.count(), 5);
/// assert_eq!(rec.mean().as_millis_f64(), 22.0);
/// let p50 = rec.percentile(0.5).as_millis_f64();
/// assert!((p50 - 3.0).abs() / 3.0 < 0.01);
/// assert_eq!(rec.percentile(1.0).as_millis_f64(), 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct LatencyRecorder {
    /// Bucket occupancy counts, grown lazily to the largest index seen.
    buckets: Vec<u64>,
    count: u64,
    sum: f64, // seconds
    min_seen: f64,
    max_seen: f64,
}

impl Default for LatencyRecorder {
    fn default() -> Self {
        LatencyRecorder {
            buckets: Vec::new(),
            count: 0,
            sum: 0.0,
            min_seen: f64::INFINITY,
            max_seen: f64::NEG_INFINITY,
        }
    }
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample. O(1); never invalidates concurrent query state.
    pub fn record(&mut self, latency: SimDuration) {
        let seconds = latency.as_secs_f64();
        let idx = bucket_index(seconds);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += seconds;
        self.min_seen = self.min_seen.min(seconds);
        self.max_seen = self.max_seen.max(seconds);
    }

    /// Number of samples recorded (exact).
    #[must_use]
    pub fn count(&self) -> usize {
        usize::try_from(self.count).expect("sample count fits usize")
    }

    /// Whether no samples have been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean (exact, from the running sum), or zero when empty.
    #[must_use]
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(self.sum / self.count as f64)
    }

    /// The latency at nearest-rank `rank` (1-based), from the histogram.
    fn value_at_rank(&self, rank: u64) -> f64 {
        debug_assert!(rank >= 1 && rank <= self.count);
        // The extreme ranks are tracked exactly; everything between them is
        // answered from the bucket walk to within the error bound.
        if rank == 1 {
            return self.min_seen;
        }
        if rank == self.count {
            return self.max_seen;
        }
        let mut cumulative = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return bucket_value(idx).clamp(self.min_seen, self.max_seen);
            }
        }
        self.max_seen
    }

    /// The `p`-quantile (`p` in `[0, 1]`) by nearest rank; zero when empty.
    /// `p = 0` and `p = 1` are the exact min and max; interior quantiles
    /// carry at most 0.39% relative error. O(buckets), `&self`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        SimDuration::from_secs_f64(self.value_at_rank(rank))
    }

    /// Maximum sample (exact), or zero when empty.
    #[must_use]
    pub fn max(&self) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_secs_f64(self.max_seen)
    }

    /// An empirical CDF with `points` evenly spaced probability levels:
    /// `(latency, cumulative_fraction)` pairs suitable for plotting Fig. 10.
    /// One interleaved walk over the buckets serves every level:
    /// O(buckets + points), `&self`.
    #[must_use]
    pub fn cdf(&self, points: usize) -> Vec<(SimDuration, f64)> {
        if self.count == 0 || points == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(points);
        let mut cumulative = 0u64;
        let mut idx = 0usize;
        for i in 1..=points {
            let frac = i as f64 / points as f64;
            let rank = ((frac * self.count as f64).ceil() as u64).clamp(1, self.count);
            // Ranks are non-decreasing in `i`, so the bucket cursor only
            // ever moves forward.
            while cumulative < rank {
                cumulative += self.buckets[idx];
                idx += 1;
            }
            let value = if rank == 1 {
                self.min_seen
            } else if rank == self.count {
                self.max_seen
            } else {
                bucket_value(idx - 1).clamp(self.min_seen, self.max_seen)
            };
            out.push((SimDuration::from_secs_f64(value), frac));
        }
        out
    }
}

/// A per-bucket accumulator over simulated time (e.g. ops completed per
/// second, dollars charged per second).
///
/// # Examples
///
/// ```
/// use lambda_sim::{SimDuration, SimTime, Timeline};
///
/// let mut ops = Timeline::new(SimDuration::from_secs(1));
/// ops.add(SimTime::from_secs(0) + SimDuration::from_millis(300), 1.0);
/// ops.add(SimTime::from_secs(2), 5.0);
/// assert_eq!(ops.buckets(), vec![1.0, 0.0, 5.0]);
/// assert_eq!(ops.total(), 6.0);
/// ```
#[derive(Debug, Clone)]
pub struct Timeline {
    bucket: SimDuration,
    values: Vec<f64>,
}

impl Timeline {
    /// Creates a timeline with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket` is zero.
    #[must_use]
    pub fn new(bucket: SimDuration) -> Self {
        assert!(!bucket.is_zero(), "timeline bucket must be positive");
        Timeline { bucket, values: Vec::new() }
    }

    /// Adds `value` to the bucket containing instant `at`.
    pub fn add(&mut self, at: SimTime, value: f64) {
        let idx = (at.as_nanos() / self.bucket.as_nanos()) as usize;
        if idx >= self.values.len() {
            self.values.resize(idx + 1, 0.0);
        }
        self.values[idx] += value;
    }

    /// The accumulated buckets, from `t = 0`.
    #[must_use]
    pub fn buckets(&self) -> Vec<f64> {
        self.values.clone()
    }

    /// Borrowed view of the buckets.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Sum over all buckets.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Running (prefix-sum) series: cumulative totals at each bucket end.
    #[must_use]
    pub fn cumulative(&self) -> Vec<f64> {
        self.values
            .iter()
            .scan(0.0, |acc, v| {
                *acc += v;
                Some(*acc)
            })
            .collect()
    }

    /// Maximum bucket value, or zero when empty.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.values.iter().copied().fold(0.0, f64::max)
    }

    /// Mean bucket value over the populated range, or zero when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.total() / self.values.len() as f64
        }
    }

    /// Peak value of the moving sum over `window` consecutive buckets
    /// (peak *sustained* rate; zero when fewer than `window` buckets exist).
    #[must_use]
    pub fn peak_sustained(&self, window: usize) -> f64 {
        if window == 0 || self.values.len() < window {
            return 0.0;
        }
        let mut sum: f64 = self.values[..window].iter().sum();
        let mut best = sum;
        for i in window..self.values.len() {
            sum += self.values[i] - self.values[i - window];
            best = best.max(sum);
        }
        best / window as f64
    }
}

/// A sampled gauge: `(time, value)` observations of an instantaneous
/// quantity such as the number of active NameNodes.
#[derive(Debug, Clone, Default)]
pub struct GaugeSeries {
    points: Vec<(SimTime, f64)>,
}

impl GaugeSeries {
    /// Creates an empty series.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an observation. Observations must be appended in
    /// non-decreasing time order (the simulator guarantees this naturally).
    pub fn observe(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.points.last().is_none_or(|(t, _)| *t <= at),
            "gauge observed out of order"
        );
        self.points.push((at, value));
    }

    /// All observations.
    #[must_use]
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// The most recent value at or before `at` (step interpolation), or
    /// `None` before the first observation.
    #[must_use]
    pub fn value_at(&self, at: SimTime) -> Option<f64> {
        let idx = self.points.partition_point(|(t, _)| *t <= at);
        idx.checked_sub(1).map(|i| self.points[i].1)
    }

    /// Maximum observed value, or zero when empty.
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|(_, v)| *v).fold(0.0, f64::max)
    }

    /// Time-weighted average over the observed span, or zero when fewer than
    /// two observations exist.
    #[must_use]
    pub fn time_weighted_mean(&self) -> f64 {
        if self.points.len() < 2 {
            return self.points.first().map_or(0.0, |(_, v)| *v);
        }
        let mut area = 0.0;
        for pair in self.points.windows(2) {
            let (t0, v0) = pair[0];
            let (t1, _) = pair[1];
            area += v0 * (t1 - t0).as_secs_f64();
        }
        let span = (self.points[self.points.len() - 1].0 - self.points[0].0).as_secs_f64();
        if span == 0.0 {
            self.points[0].1
        } else {
            area / span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Relative error of the histogram answer vs the exact value.
    fn rel_err(approx: f64, exact: f64) -> f64 {
        if exact == 0.0 {
            approx.abs()
        } else {
            (approx - exact).abs() / exact
        }
    }

    #[test]
    fn percentiles_match_nearest_rank_within_error_bound() {
        let mut rec = LatencyRecorder::new();
        for ms in 1..=100u64 {
            rec.record(SimDuration::from_millis(ms));
        }
        // Interior quantiles carry the log-bucket error (≤ 0.39%, budget 1%).
        assert!(rel_err(rec.percentile(0.50).as_millis_f64(), 50.0) < 0.01);
        assert!(rel_err(rec.percentile(0.99).as_millis_f64(), 99.0) < 0.01);
        // The extremes are exact.
        assert_eq!(rec.percentile(1.0).as_millis_f64(), 100.0);
        assert_eq!(rec.percentile(0.0).as_millis_f64(), 1.0);
        assert_eq!(rec.max().as_millis_f64(), 100.0);
    }

    #[test]
    fn quantiles_stay_within_one_percent_across_magnitudes() {
        // Samples spanning 7 decades (1µs .. 10s), recorded in a scrambled
        // order; every nearest-rank quantile must agree with a sorted
        // reference within the 1% budget.
        let mut exact: Vec<f64> = (0..5_000u64)
            .map(|i| 1e-6 * (10f64).powf(i as f64 * 7.0 / 5_000.0))
            .collect();
        let mut rec = LatencyRecorder::new();
        for i in 0..exact.len() {
            let j = (i * 2_654_435_761) % exact.len(); // scrambled insert order
            rec.record(SimDuration::from_secs_f64(exact[j]));
        }
        exact.sort_by(f64::total_cmp);
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let rank = ((p * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let reference = exact[rank - 1];
            let answer = rec.percentile(p).as_secs_f64();
            assert!(
                rel_err(answer, reference) < 0.01,
                "p{p}: histogram {answer} vs exact {reference}"
            );
        }
    }

    #[test]
    fn empty_recorder_answers_zero() {
        let rec = LatencyRecorder::new();
        assert!(rec.is_empty());
        assert_eq!(rec.mean(), SimDuration::ZERO);
        assert_eq!(rec.percentile(0.5), SimDuration::ZERO);
        assert_eq!(rec.max(), SimDuration::ZERO);
        assert!(rec.cdf(10).is_empty());
    }

    #[test]
    fn zero_latencies_are_representable() {
        let mut rec = LatencyRecorder::new();
        rec.record(SimDuration::ZERO);
        rec.record(SimDuration::ZERO);
        assert_eq!(rec.percentile(0.5), SimDuration::ZERO);
        assert_eq!(rec.max(), SimDuration::ZERO);
        assert_eq!(rec.mean(), SimDuration::ZERO);
    }

    #[test]
    fn cdf_is_monotone() {
        let mut rec = LatencyRecorder::new();
        for ms in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 10] {
            rec.record(SimDuration::from_millis(ms));
        }
        let cdf = rec.cdf(10);
        assert_eq!(cdf.len(), 10);
        for pair in cdf.windows(2) {
            assert!(pair[0].0 <= pair[1].0);
            assert!(pair[0].1 < pair[1].1);
        }
        assert_eq!(cdf[9].0.as_millis_f64(), 10.0);
        assert_eq!(cdf[9].1, 1.0);
    }

    #[test]
    fn cdf_agrees_with_percentile_at_every_level() {
        let mut rec = LatencyRecorder::new();
        for us in (1..2_000u64).map(|i| i * 37 % 50_000 + 1) {
            rec.record(SimDuration::from_micros(us));
        }
        let points = 40;
        let cdf = rec.cdf(points);
        for (i, (latency, frac)) in cdf.iter().enumerate() {
            assert_eq!(*frac, (i + 1) as f64 / points as f64);
            assert_eq!(*latency, rec.percentile(*frac), "level {frac}");
        }
    }

    #[test]
    fn interleaved_records_and_queries_stay_consistent() {
        // Regression test for the streaming rewrite: the old recorder
        // re-sorted its sample vector on every query after a record, making
        // record/query interleavings O(n log n) each. The histogram must
        // answer queries mid-stream, cheaply, and without perturbing later
        // answers.
        let mut rec = LatencyRecorder::new();
        for ms in 1..=50u64 {
            rec.record(SimDuration::from_millis(ms));
        }
        let mid = rec.percentile(0.5).as_millis_f64();
        assert!(rel_err(mid, 25.0) < 0.01, "p50 of 1..=50 was {mid}");
        // Queries are &self and leave no cached state: ask again, same answer.
        assert_eq!(rec.percentile(0.5).as_millis_f64(), mid);
        let _ = rec.cdf(10);
        for ms in 51..=100u64 {
            rec.record(SimDuration::from_millis(ms));
        }
        let full = rec.percentile(0.5).as_millis_f64();
        assert!(rel_err(full, 50.0) < 0.01, "p50 of 1..=100 was {full}");
        assert_eq!(rec.count(), 100);
        assert_eq!(rec.max().as_millis_f64(), 100.0);
    }

    #[test]
    fn timeline_buckets_and_cumulative() {
        let mut t = Timeline::new(SimDuration::from_secs(1));
        t.add(SimTime::from_nanos(500_000_000), 2.0);
        t.add(SimTime::from_secs(1), 3.0);
        t.add(SimTime::from_secs(3), 1.0);
        assert_eq!(t.buckets(), vec![2.0, 3.0, 0.0, 1.0]);
        assert_eq!(t.cumulative(), vec![2.0, 5.0, 5.0, 6.0]);
        assert_eq!(t.peak(), 3.0);
        assert_eq!(t.mean(), 1.5);
    }

    #[test]
    fn peak_sustained_window() {
        let mut t = Timeline::new(SimDuration::from_secs(1));
        for (sec, v) in [(0u64, 1.0), (1, 10.0), (2, 10.0), (3, 1.0)] {
            t.add(SimTime::from_secs(sec), v);
        }
        assert_eq!(t.peak_sustained(2), 10.0);
        assert_eq!(t.peak_sustained(4), 5.5);
        assert_eq!(t.peak_sustained(0), 0.0);
        assert_eq!(t.peak_sustained(10), 0.0);
    }

    #[test]
    fn gauge_step_interpolation() {
        let mut g = GaugeSeries::new();
        g.observe(SimTime::from_secs(1), 10.0);
        g.observe(SimTime::from_secs(3), 20.0);
        assert_eq!(g.value_at(SimTime::ZERO), None);
        assert_eq!(g.value_at(SimTime::from_secs(1)), Some(10.0));
        assert_eq!(g.value_at(SimTime::from_secs(2)), Some(10.0));
        assert_eq!(g.value_at(SimTime::from_secs(5)), Some(20.0));
        assert_eq!(g.peak(), 20.0);
    }

    #[test]
    fn gauge_time_weighted_mean() {
        let mut g = GaugeSeries::new();
        g.observe(SimTime::from_secs(0), 0.0);
        g.observe(SimTime::from_secs(1), 10.0);
        g.observe(SimTime::from_secs(3), 0.0);
        // 0 for 1s, then 10 for 2s over a 3s span => 20/3.
        assert!((g.time_weighted_mean() - 20.0 / 3.0).abs() < 1e-9);
    }
}
