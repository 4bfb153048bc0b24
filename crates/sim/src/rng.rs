//! Seeded randomness and the latency/throughput distributions used by the
//! performance models.
//!
//! Every run of the simulator is driven by a single [`SimRng`] seeded by the
//! experiment harness, so identical seeds reproduce identical runs
//! bit-for-bit. Components that need an independent stream call
//! [`SimRng::fork`], which derives a child seed without perturbing the parent
//! stream's future output more than one draw.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// A deterministic random-number generator for one simulation run.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// # Examples
    ///
    /// ```
    /// use lambda_sim::SimRng;
    ///
    /// let mut a = SimRng::new(7);
    /// let mut b = SimRng::new(7);
    /// assert_eq!(a.gen_range(0..100), b.gen_range(0..100));
    /// ```
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SimRng { inner: StdRng::seed_from_u64(seed) }
    }

    /// Derives an independent child generator.
    ///
    /// Consumes exactly one draw from `self`, so sibling forks are
    /// decorrelated and the parent stays deterministic.
    #[must_use]
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.inner.gen())
    }

    /// Uniformly samples from a range, like [`rand::Rng::gen_range`].
    pub fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: rand::distributions::uniform::SampleUniform,
        R: rand::distributions::uniform::SampleRange<T>,
    {
        self.inner.gen_range(range)
    }

    /// A uniform draw in `[0, 1)`.
    #[must_use]
    pub fn gen_unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    #[must_use]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen_bool(p)
        }
    }

    /// Picks a uniformly random index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[must_use]
    pub fn pick_index(&mut self, len: usize) -> usize {
        assert!(len > 0, "pick_index on empty range");
        self.inner.gen_range(0..len)
    }

    /// Samples a value from `dist`.
    #[must_use]
    pub fn sample(&mut self, dist: &Dist) -> f64 {
        dist.sample_with(|| self.gen_unit())
    }

    /// Samples a duration (in seconds) from `dist`, clamping negatives to
    /// zero.
    #[must_use]
    pub fn sample_duration(&mut self, dist: &Dist) -> SimDuration {
        SimDuration::from_secs_f64(self.sample(dist))
    }
}

/// A parametric one-dimensional distribution, used for latencies and
/// workload intensities.
///
/// Values are in the caller's unit of choice (the performance models use
/// seconds). Sampling uses inverse-transform methods on a uniform draw, so
/// no external distribution crate is needed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Always the same value.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Exponential with the given mean.
    Exp {
        /// Mean of the distribution (1/rate).
        mean: f64,
    },
    /// Pareto with shape `alpha` and scale `x_m`, truncated at `cap`.
    ///
    /// This is the burst model of the industrial workload (§5.2.1 of the
    /// paper): `alpha = 2`, `x_m` = the base throughput, and `cap` bounds
    /// spikes (the paper reports bursts up to 7× the base).
    ParetoBounded {
        /// Tail index; smaller means heavier tails.
        alpha: f64,
        /// Scale (minimum value), a.k.a. `x_t` in the paper.
        x_m: f64,
        /// Upper truncation bound.
        cap: f64,
    },
}

impl Dist {
    /// A point mass at `v`.
    #[must_use]
    pub const fn constant(v: f64) -> Dist {
        Dist::Constant(v)
    }

    /// Uniform over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    #[must_use]
    pub fn uniform(lo: f64, hi: f64) -> Dist {
        assert!(lo <= hi, "uniform bounds out of order: {lo} > {hi}");
        Dist::Uniform { lo, hi }
    }

    /// Uniform over `[lo_ms, hi_ms)` interpreted in milliseconds, returned
    /// in seconds. Convenience for latency configs quoted in ms.
    #[must_use]
    pub fn uniform_ms(lo_ms: f64, hi_ms: f64) -> Dist {
        Dist::uniform(lo_ms / 1e3, hi_ms / 1e3)
    }

    /// A point mass at `ms` milliseconds, in seconds.
    #[must_use]
    pub fn constant_ms(ms: f64) -> Dist {
        Dist::Constant(ms / 1e3)
    }

    /// The distribution scaled by a positive factor (e.g. to slow a
    /// capacity model down proportionally when shrinking an experiment).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive and finite.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Dist {
        assert!(factor.is_finite() && factor > 0.0, "scale factor must be positive");
        match *self {
            Dist::Constant(v) => Dist::Constant(v * factor),
            Dist::Uniform { lo, hi } => Dist::Uniform { lo: lo * factor, hi: hi * factor },
            Dist::Exp { mean } => Dist::Exp { mean: mean * factor },
            Dist::ParetoBounded { alpha, x_m, cap } => {
                Dist::ParetoBounded { alpha, x_m: x_m * factor, cap: cap * factor }
            }
        }
    }

    /// The mean of the distribution.
    #[must_use]
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => (lo + hi) / 2.0,
            Dist::Exp { mean } => mean,
            Dist::ParetoBounded { alpha, x_m, cap } => {
                // Mean of a Pareto truncated at `cap` (alpha != 1).
                if alpha == 1.0 {
                    x_m * (cap / x_m).ln() / (1.0 - x_m / cap)
                } else {
                    let num = 1.0 - (x_m / cap).powf(alpha - 1.0);
                    let den = 1.0 - (x_m / cap).powf(alpha);
                    (alpha * x_m / (alpha - 1.0)) * num / den
                }
            }
        }
    }

    fn sample_with<F: FnMut() -> f64>(&self, mut unit: F) -> f64 {
        match *self {
            Dist::Constant(v) => v,
            Dist::Uniform { lo, hi } => lo + (hi - lo) * unit(),
            Dist::Exp { mean } => {
                let u = (1.0 - unit()).max(f64::MIN_POSITIVE);
                -mean * u.ln()
            }
            Dist::ParetoBounded { alpha, x_m, cap } => {
                // Inverse CDF of a Pareto truncated at `cap`:
                // F(x) = (1 - (x_m/x)^a) / (1 - (x_m/cap)^a).
                let tail = 1.0 - (x_m / cap).powf(alpha);
                let u = unit() * tail;
                let x = x_m / (1.0 - u).powf(1.0 / alpha);
                x.min(cap)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_seeds_reproduce_streams() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.gen_unit().to_bits(), b.gen_unit().to_bits());
        }
    }

    #[test]
    fn forks_are_decorrelated_but_deterministic() {
        let mut parent1 = SimRng::new(1);
        let mut parent2 = SimRng::new(1);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        assert_eq!(c1.gen_unit().to_bits(), c2.gen_unit().to_bits());
        // The fork consumed one parent draw; parents remain in lockstep.
        assert_eq!(parent1.gen_unit().to_bits(), parent2.gen_unit().to_bits());
    }

    #[test]
    fn bernoulli_edge_cases() {
        let mut rng = SimRng::new(3);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
        assert!(!rng.gen_bool(-0.5));
        assert!(rng.gen_bool(2.0));
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = SimRng::new(9);
        let d = Dist::uniform(2.0, 5.0);
        for _ in 0..1000 {
            let v = rng.sample(&d);
            assert!((2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::new(11);
        let d = Dist::Exp { mean: 0.01 };
        let n = 50_000;
        let total: f64 = (0..n).map(|_| rng.sample(&d)).sum();
        let mean = total / n as f64;
        assert!((mean - 0.01).abs() < 0.0005, "mean was {mean}");
    }

    #[test]
    fn pareto_respects_scale_and_cap() {
        let mut rng = SimRng::new(13);
        let d = Dist::ParetoBounded { alpha: 2.0, x_m: 25_000.0, cap: 175_000.0 };
        let mut max = 0.0f64;
        for _ in 0..20_000 {
            let v = rng.sample(&d);
            assert!(v >= 25_000.0);
            assert!(v <= 175_000.0);
            max = max.max(v);
        }
        // With 20k draws the 7x cap region is essentially always reached.
        assert!(max > 100_000.0, "max draw {max} suspiciously small");
    }

    #[test]
    fn pareto_bounded_mean_matches_analytic_value() {
        let mut rng = SimRng::new(17);
        let d = Dist::ParetoBounded { alpha: 2.0, x_m: 1.0, cap: 7.0 };
        let n = 200_000;
        let total: f64 = (0..n).map(|_| rng.sample(&d)).sum();
        let mean = total / n as f64;
        assert!((mean - d.mean()).abs() < 0.02, "sample {mean} vs analytic {}", d.mean());
    }

    #[test]
    fn sample_duration_clamps_negative() {
        let mut rng = SimRng::new(1);
        let d = Dist::Constant(-3.0);
        assert_eq!(rng.sample_duration(&d), SimDuration::ZERO);
    }

    #[test]
    fn millisecond_helpers() {
        assert_eq!(Dist::constant_ms(5.0), Dist::Constant(0.005));
        assert_eq!(Dist::uniform_ms(8.0, 20.0), Dist::Uniform { lo: 0.008, hi: 0.020 });
    }
}
