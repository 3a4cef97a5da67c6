//! Numerically stable streaming moments (Welford's algorithm).

/// Streaming mean/variance/min/max accumulator.
///
/// Uses Welford's online algorithm, which is numerically stable for long
/// streams of nearly equal values (unlike the naive sum-of-squares method).
///
/// # Example
///
/// ```
/// use itua_stats::online::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_variance().unwrap() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN (a NaN observation silently poisons every later
    /// statistic, so it is rejected loudly).
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "NaN observation");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance; `None` with fewer than two observations.
    pub fn sample_variance(&self) -> Option<f64> {
        if self.count < 2 {
            None
        } else {
            Some(self.m2 / (self.count - 1) as f64)
        }
    }

    /// Population (biased) variance; `None` when empty.
    pub fn population_variance(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.m2 / self.count as f64)
        }
    }

    /// Standard error of the mean; `None` with fewer than two observations.
    pub fn std_error(&self) -> Option<f64> {
        self.sample_variance()
            .map(|v| (v / self.count as f64).sqrt())
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    ///
    /// The result is identical (up to floating-point rounding) to having
    /// pushed all observations into a single accumulator.
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for OnlineStats {
    fn default() -> Self {
        // Careful: a derived Default would set min/max to 0.0 rather than
        // the identity elements of min/max.
        OnlineStats::new()
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_observation() {
        let s: OnlineStats = [3.5].into_iter().collect();
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.sample_variance(), None);
        assert_eq!(s.population_variance(), Some(0.0));
        assert_eq!(s.min(), Some(3.5));
        assert_eq!(s.max(), Some(3.5));
    }

    #[test]
    fn matches_naive_two_pass() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).sin() + 10.0).collect();
        let s: OnlineStats = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.sample_variance().unwrap() - var).abs() < 1e-12);
    }

    #[test]
    fn stable_for_large_offset() {
        // Classic catastrophic-cancellation case for naive algorithms.
        let offset = 1e9;
        let s: OnlineStats = [offset + 4.0, offset + 7.0, offset + 13.0, offset + 16.0]
            .into_iter()
            .collect();
        assert!((s.sample_variance().unwrap() - 30.0).abs() < 1e-6);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..500).map(|i| (i as f64).sqrt()).collect();
        let (a_xs, b_xs) = xs.split_at(123);
        let mut a: OnlineStats = a_xs.iter().copied().collect();
        let b: OnlineStats = b_xs.iter().copied().collect();
        a.merge(&b);
        let all: OnlineStats = xs.iter().copied().collect();
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.sample_variance().unwrap() - all.sample_variance().unwrap()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty() {
        let mut a: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    #[should_panic]
    fn nan_rejected() {
        let mut s = OnlineStats::new();
        s.push(f64::NAN);
    }

    #[test]
    fn std_error_shrinks_with_n() {
        let mut s = OnlineStats::new();
        for i in 0..100 {
            s.push((i % 2) as f64);
        }
        let se100 = s.std_error().unwrap();
        for i in 0..900 {
            s.push((i % 2) as f64);
        }
        let se1000 = s.std_error().unwrap();
        assert!(se1000 < se100);
    }
}
