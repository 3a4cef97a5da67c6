//! Weighted streaming moments: the crate's one accumulator.
//!
//! Every estimate this workspace reports is built from [`WeightedStats`].
//! Plain replications push each observation at weight `1.0`; importance
//! splitting (RESTART) pushes observations that carry likelihood weights —
//! a branch that survived `k` splits of factor `R` contributes its value
//! with weight `R^-k`. The accumulator runs a weighted Welford recurrence
//! and reports the weighted mean, the reliability-weights sample variance,
//! and the effective sample size `n_eff = (Σw)² / Σw²` used for
//! t-intervals.
//!
//! At unit weights this *is* the classic count-based Welford estimator,
//! bit for bit: `Σw` and `Σw²` are the exact integer `n`, `w * delta / Σw`
//! multiplies by an exact `1.0` and divides by `n`, the variance
//! denominator `Σw − Σw²/Σw` is exactly `n − 1`, and `n_eff = n·n/n` is
//! exactly `n` as long as `n² < 2⁵³` (every replication count in use is at
//! most `2¹⁷`). So the mean, variance, standard error, t-quantile and
//! half-width of a plain run are the same floating-point operations as
//! the textbook count-based formulas.

/// Streaming weighted mean/variance/min/max accumulator.
///
/// # Example
///
/// ```
/// use itua_stats::weighted::WeightedStats;
///
/// let mut s = WeightedStats::new();
/// s.push(1.0, 0.25);
/// s.push(0.0, 0.75);
/// assert!((s.mean() - 0.25).abs() < 1e-15);
///
/// // Unit weights: the plain count-based mean and variance.
/// let mut u = WeightedStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     u.push(x, 1.0);
/// }
/// assert_eq!(u.mean(), 5.0);
/// assert_eq!(u.n_eff(), 8.0);
/// assert!((u.sample_variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedStats {
    count: u64,
    w1: f64,
    w2: f64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl WeightedStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        WeightedStats {
            count: 0,
            w1: 0.0,
            w2: 0.0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation of `x` carrying weight `w`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN or `w` is not a finite positive number (a bad
    /// observation or weight silently corrupts every later statistic, so it
    /// is rejected loudly).
    pub fn push(&mut self, x: f64, w: f64) {
        assert!(!x.is_nan(), "NaN observation");
        assert!(
            w.is_finite() && w > 0.0,
            "weight must be finite and > 0, got {w}"
        );
        self.count += 1;
        self.w1 += w;
        self.w2 += w * w;
        let delta = x - self.mean;
        self.mean += w * delta / self.w1;
        let delta2 = x - self.mean;
        self.m2 += w * delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations pushed so far (unweighted count).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total weight `Σw`.
    pub fn total_weight(&self) -> f64 {
        self.w1
    }

    /// Effective sample size `(Σw)² / Σw²` (0 when empty). Equals
    /// [`WeightedStats::count`] when every weight is identical.
    pub fn n_eff(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.w1 * self.w1 / self.w2
        }
    }

    /// Weighted sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased (reliability-weights) sample variance
    /// `Σw(x-mean)² / (Σw − Σw²/Σw)`; `None` with fewer than two
    /// observations. At unit weights the denominator is exactly `n − 1`.
    pub fn sample_variance(&self) -> Option<f64> {
        if self.count < 2 {
            None
        } else {
            Some(self.m2 / (self.w1 - self.w2 / self.w1))
        }
    }

    /// Standard error of the weighted mean, `sqrt(variance / n_eff)`;
    /// `None` with fewer than two observations.
    pub fn std_error(&self) -> Option<f64> {
        self.sample_variance().map(|v| (v / self.n_eff()).sqrt())
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl Default for WeightedStats {
    fn default() -> Self {
        // Careful: a derived Default would set min/max to 0.0 rather than
        // the identity elements of min/max.
        WeightedStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = WeightedStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.total_weight(), 0.0);
        assert_eq!(s.n_eff(), 0.0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn weighted_mean_matches_direct_computation() {
        let data = [(2.0, 0.5), (4.0, 1.5), (10.0, 0.25), (-1.0, 3.0)];
        let mut s = WeightedStats::new();
        for (x, w) in data {
            s.push(x, w);
        }
        let wsum: f64 = data.iter().map(|(_, w)| w).sum();
        let mean = data.iter().map(|(x, w)| x * w).sum::<f64>() / wsum;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert_eq!(s.total_weight(), wsum);
        let m2 = data
            .iter()
            .map(|(x, w)| w * (x - mean).powi(2))
            .sum::<f64>();
        let w2: f64 = data.iter().map(|(_, w)| w * w).sum();
        let var = m2 / (wsum - w2 / wsum);
        assert!((s.sample_variance().unwrap() - var).abs() < 1e-12);
    }

    #[test]
    fn n_eff_equals_count_for_equal_weights() {
        let mut s = WeightedStats::new();
        for i in 0..100 {
            s.push(i as f64, 0.25);
        }
        assert!((s.n_eff() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn single_observation() {
        let mut s = WeightedStats::new();
        s.push(3.5, 1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.n_eff(), 1.0);
        assert_eq!(s.sample_variance(), None);
        assert_eq!(s.std_error(), None);
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn stable_for_large_offset() {
        // Classic catastrophic-cancellation case for naive algorithms.
        let offset = 1e9;
        let mut s = WeightedStats::new();
        for x in [offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0] {
            s.push(x, 1.0);
        }
        assert!((s.sample_variance().unwrap() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn unit_weights_give_the_count_based_moments_exactly() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() * 1e3).collect();
        let mut s = WeightedStats::new();
        for &x in &xs {
            s.push(x, 1.0);
        }
        let n = xs.len() as f64;
        assert_eq!(s.total_weight(), n);
        assert_eq!(s.n_eff(), n);
        // The textbook count-based Welford recurrence, step for step.
        let (mut mean, mut m2) = (0.0f64, 0.0f64);
        for (i, &x) in xs.iter().enumerate() {
            let delta = x - mean;
            mean += delta / (i + 1) as f64;
            m2 += delta * (x - mean);
        }
        let var = m2 / (n - 1.0);
        assert_eq!(s.mean().to_bits(), mean.to_bits());
        assert_eq!(s.sample_variance().unwrap().to_bits(), var.to_bits());
        assert_eq!(s.std_error().unwrap().to_bits(), (var / n).sqrt().to_bits());
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        WeightedStats::new().push(f64::NAN, 1.0);
    }

    #[test]
    #[should_panic]
    fn zero_weight_rejected() {
        WeightedStats::new().push(1.0, 0.0);
    }

    #[test]
    #[should_panic]
    fn negative_weight_rejected() {
        WeightedStats::new().push(1.0, -0.5);
    }

    #[test]
    #[should_panic]
    fn infinite_weight_rejected() {
        WeightedStats::new().push(1.0, f64::INFINITY);
    }
}
