//! Replication-based estimation of many measures at once.
//!
//! Möbius estimates every reward variable of a study from `n` independent
//! simulation replications and reports mean ± t-interval. The
//! [`ReplicationEstimator`] does the same: each replication produces one
//! observation per named measure (or none, for event-conditioned measures
//! such as "fraction of corrupt hosts in an excluded domain", which produce
//! an observation only if the triggering event happened).

use crate::ci::{CiError, ConfidenceInterval};
use crate::online::OnlineStats;
use crate::weighted::WeightedStats;
use std::collections::BTreeMap;

/// Whether an estimator accumulates plain per-replication observations or
/// weight-carrying importance-splitting observations.
///
/// The two modes use different variance estimators (`n` vs. effective
/// sample size), so they must never be mixed: an unweighted estimator that
/// silently absorbed weighted splitting samples would report intervals with
/// the wrong width. [`ReplicationEstimator::merge`] enforces compatibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Weighting {
    /// Every observation counts once; intervals use `n - 1` degrees of
    /// freedom ([`OnlineStats`] underneath).
    Unweighted,
    /// Observations carry likelihood weights; intervals use the effective
    /// sample size ([`WeightedStats`] underneath).
    Weighted,
}

/// A finished estimate for one measure.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Measure name.
    pub name: String,
    /// Point estimate and interval.
    pub ci: ConfidenceInterval,
    /// Smallest observation seen.
    pub min: f64,
    /// Largest observation seen.
    pub max: f64,
}

/// Collects per-replication observations for a set of named measures.
///
/// # Example
///
/// ```
/// use itua_stats::replication::ReplicationEstimator;
///
/// let mut est = ReplicationEstimator::new(0.95);
/// for rep in 0..100 {
///     est.record("throughput", 10.0 + (rep % 5) as f64);
/// }
/// let estimate = est.estimate("throughput").unwrap();
/// assert!((estimate.ci.mean - 12.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct ReplicationEstimator {
    level: f64,
    weighting: Weighting,
    measures: BTreeMap<String, OnlineStats>,
    weighted_measures: BTreeMap<String, WeightedStats>,
}

impl ReplicationEstimator {
    /// Creates an unweighted estimator that reports intervals at `level`
    /// confidence (e.g. `0.95`).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < level < 1`.
    pub fn new(level: f64) -> Self {
        assert!(level > 0.0 && level < 1.0, "confidence level in (0,1)");
        ReplicationEstimator {
            level,
            weighting: Weighting::Unweighted,
            measures: BTreeMap::new(),
            weighted_measures: BTreeMap::new(),
        }
    }

    /// Creates a weighted estimator for importance-splitting observations;
    /// observations go through [`ReplicationEstimator::record_weighted`].
    ///
    /// # Panics
    ///
    /// Panics unless `0 < level < 1`.
    pub fn new_weighted(level: f64) -> Self {
        ReplicationEstimator {
            weighting: Weighting::Weighted,
            ..ReplicationEstimator::new(level)
        }
    }

    /// The estimator's weighting mode.
    pub fn weighting(&self) -> Weighting {
        self.weighting
    }

    /// Records one observation of `measure`.
    ///
    /// # Panics
    ///
    /// Panics on a [`Weighting::Weighted`] estimator — use
    /// [`ReplicationEstimator::record_weighted`] there.
    pub fn record(&mut self, measure: &str, value: f64) {
        assert!(
            self.weighting == Weighting::Unweighted,
            "record() on a weighted estimator; use record_weighted()"
        );
        self.measures
            .entry(measure.to_owned())
            .or_default()
            .push(value);
    }

    /// Records one observation of `measure` carrying likelihood `weight`.
    ///
    /// # Panics
    ///
    /// Panics on a [`Weighting::Unweighted`] estimator, or when `weight` is
    /// not a finite positive number.
    pub fn record_weighted(&mut self, measure: &str, value: f64, weight: f64) {
        assert!(
            self.weighting == Weighting::Weighted,
            "record_weighted() on an unweighted estimator; use record()"
        );
        self.weighted_measures
            .entry(measure.to_owned())
            .or_default()
            .push(value, weight);
    }

    /// Records an exact (zero-variance) value for `measure`, as produced by
    /// an analytic solver rather than a stochastic replication.
    ///
    /// The value is recorded twice: [`ConfidenceInterval`] requires n ≥ 2,
    /// and a repeated observation makes Welford's variance accumulator
    /// exactly zero, so the estimate comes out as `value ± 0` with
    /// `min == max == value` bitwise. Downstream consumers need no special
    /// case — the degenerate `n == 2` sample flags the estimate as exact.
    pub fn record_exact(&mut self, measure: &str, value: f64) {
        self.record(measure, value);
        self.record(measure, value);
    }

    /// Number of observations recorded for `measure`.
    pub fn count(&self, measure: &str) -> u64 {
        match self.weighting {
            Weighting::Unweighted => self.measures.get(measure).map_or(0, OnlineStats::count),
            Weighting::Weighted => self
                .weighted_measures
                .get(measure)
                .map_or(0, WeightedStats::count),
        }
    }

    /// Computes the estimate for one measure.
    ///
    /// # Errors
    ///
    /// Returns [`CiError::TooFewObservations`] if the measure has fewer than
    /// two observations (or none at all).
    pub fn estimate(&self, measure: &str) -> Result<Estimate, CiError> {
        match self.weighting {
            Weighting::Unweighted => {
                let stats = self
                    .measures
                    .get(measure)
                    .ok_or(CiError::TooFewObservations)?;
                let ci = ConfidenceInterval::from_stats(stats, self.level)?;
                Ok(Estimate {
                    name: measure.to_owned(),
                    ci,
                    min: stats.min().expect("n >= 2"),
                    max: stats.max().expect("n >= 2"),
                })
            }
            Weighting::Weighted => {
                let stats = self
                    .weighted_measures
                    .get(measure)
                    .ok_or(CiError::TooFewObservations)?;
                let ci = ConfidenceInterval::from_weighted_stats(stats, self.level)?;
                Ok(Estimate {
                    name: measure.to_owned(),
                    ci,
                    min: stats.min().expect("n >= 2"),
                    max: stats.max().expect("n >= 2"),
                })
            }
        }
    }

    /// Computes estimates for every measure with at least two observations,
    /// sorted by name.
    pub fn estimates(&self) -> Vec<Estimate> {
        let names: Vec<&String> = match self.weighting {
            Weighting::Unweighted => self.measures.keys().collect(),
            Weighting::Weighted => self.weighted_measures.keys().collect(),
        };
        names
            .into_iter()
            .filter_map(|name| self.estimate(name).ok())
            .collect()
    }

    /// The confidence level used for all intervals.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Merges another estimator's observations into this one.
    ///
    /// The result is equivalent (up to floating-point rounding of the
    /// underlying parallel-Welford merge) to having recorded every
    /// observation of `other` into `self`; measures present in only one of
    /// the two appear unchanged. Intended for parallel reduction: each
    /// worker accumulates locally and the shards are merged in a fixed
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the two estimators use different confidence levels or
    /// different [`Weighting`] modes (merging those would silently
    /// misreport intervals — an unweighted estimator must never absorb
    /// weighted splitting samples unnoticed).
    pub fn merge(&mut self, other: &ReplicationEstimator) {
        assert!(
            self.level == other.level,
            "cannot merge estimators at different confidence levels ({} vs {})",
            self.level,
            other.level
        );
        debug_assert_eq!(
            self.weighting, other.weighting,
            "cannot merge estimators with different weighting modes"
        );
        match (self.weighting, other.weighting) {
            (Weighting::Unweighted, Weighting::Unweighted) => {
                for (name, stats) in &other.measures {
                    self.measures.entry(name.clone()).or_default().merge(stats);
                }
            }
            (Weighting::Weighted, Weighting::Weighted) => {
                for (name, stats) in &other.weighted_measures {
                    self.weighted_measures
                        .entry(name.clone())
                        .or_default()
                        .merge(stats);
                }
            }
            (a, b) => {
                panic!("cannot merge estimators with different weighting modes ({a:?} vs {b:?})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_estimates() {
        let mut est = ReplicationEstimator::new(0.95);
        for x in [1.0, 2.0, 3.0] {
            est.record("m", x);
        }
        let e = est.estimate("m").unwrap();
        assert_eq!(e.ci.mean, 2.0);
        assert_eq!(e.min, 1.0);
        assert_eq!(e.max, 3.0);
        assert_eq!(e.ci.n, 3);
    }

    #[test]
    fn record_exact_yields_zero_width_interval() {
        let mut est = ReplicationEstimator::new(0.95);
        let value = 0.123_456_789_012_345f64;
        est.record_exact("exact", value);
        let e = est.estimate("exact").unwrap();
        assert_eq!(e.ci.mean, value);
        assert_eq!(e.ci.half_width, 0.0);
        assert_eq!(e.min, value);
        assert_eq!(e.max, value);
        assert_eq!(e.ci.n, 2);
    }

    #[test]
    fn missing_measure_errors() {
        let est = ReplicationEstimator::new(0.95);
        assert!(est.estimate("nope").is_err());
        assert_eq!(est.count("nope"), 0);
    }

    #[test]
    fn conditional_measures_can_have_fewer_observations() {
        let mut est = ReplicationEstimator::new(0.95);
        for i in 0..10 {
            est.record("always", i as f64);
            if i % 3 == 0 {
                est.record("sometimes", 1.0);
            }
        }
        assert_eq!(est.count("always"), 10);
        assert_eq!(est.count("sometimes"), 4);
    }

    #[test]
    fn estimates_sorted_by_name() {
        let mut est = ReplicationEstimator::new(0.9);
        for x in [1.0, 2.0] {
            est.record("zeta", x);
            est.record("alpha", x);
        }
        let all = est.estimates();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].name, "alpha");
        assert_eq!(all[1].name, "zeta");
    }

    #[test]
    #[should_panic]
    fn bad_level_panics() {
        let _ = ReplicationEstimator::new(1.0);
    }

    #[test]
    fn merge_matches_sequential_recording() {
        let mut whole = ReplicationEstimator::new(0.95);
        let mut left = ReplicationEstimator::new(0.95);
        let mut right = ReplicationEstimator::new(0.95);
        for i in 0..40 {
            let x = (i as f64 * 0.7).sin();
            whole.record("m", x);
            if i < 17 {
                left.record("m", x);
            } else {
                right.record("m", x);
            }
            if i % 3 == 0 {
                whole.record("cond", i as f64);
                right.record("cond", i as f64);
            }
        }
        left.merge(&right);
        assert_eq!(left.count("m"), whole.count("m"));
        assert_eq!(left.count("cond"), whole.count("cond"));
        let (a, b) = (left.estimate("m").unwrap(), whole.estimate("m").unwrap());
        assert!((a.ci.mean - b.ci.mean).abs() < 1e-12);
        assert!((a.ci.half_width - b.ci.half_width).abs() < 1e-12);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
    }

    #[test]
    fn merge_with_disjoint_measures_keeps_both() {
        let mut a = ReplicationEstimator::new(0.9);
        let mut b = ReplicationEstimator::new(0.9);
        a.record("only_a", 1.0);
        b.record("only_b", 2.0);
        a.merge(&b);
        assert_eq!(a.count("only_a"), 1);
        assert_eq!(a.count("only_b"), 1);
    }

    #[test]
    #[should_panic]
    fn merge_level_mismatch_panics() {
        let mut a = ReplicationEstimator::new(0.9);
        let b = ReplicationEstimator::new(0.95);
        a.merge(&b);
    }

    #[test]
    fn weighted_estimator_records_and_estimates() {
        let mut est = ReplicationEstimator::new_weighted(0.95);
        assert_eq!(est.weighting(), Weighting::Weighted);
        est.record_weighted("m", 1.0, 0.5);
        est.record_weighted("m", 2.0, 1.0);
        est.record_weighted("m", 3.0, 0.5);
        let e = est.estimate("m").unwrap();
        assert_eq!(e.ci.mean, 2.0);
        assert_eq!(e.min, 1.0);
        assert_eq!(e.max, 3.0);
        assert_eq!(e.ci.n, 3);
        assert_eq!(est.count("m"), 3);
        assert_eq!(est.estimates().len(), 1);
    }

    #[test]
    fn weighted_merge_matches_sequential_recording() {
        let mut whole = ReplicationEstimator::new_weighted(0.95);
        let mut left = ReplicationEstimator::new_weighted(0.95);
        let mut right = ReplicationEstimator::new_weighted(0.95);
        for i in 0..40 {
            let x = (i as f64 * 0.7).sin();
            let w = 1.0 + (i % 4) as f64 * 0.25;
            whole.record_weighted("m", x, w);
            if i < 17 {
                left.record_weighted("m", x, w);
            } else {
                right.record_weighted("m", x, w);
            }
        }
        left.merge(&right);
        assert_eq!(left.count("m"), whole.count("m"));
        let (a, b) = (left.estimate("m").unwrap(), whole.estimate("m").unwrap());
        assert!((a.ci.mean - b.ci.mean).abs() < 1e-12);
        assert!((a.ci.half_width - b.ci.half_width).abs() < 1e-12);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
    }

    #[test]
    #[should_panic]
    fn record_on_weighted_estimator_panics() {
        let mut est = ReplicationEstimator::new_weighted(0.95);
        est.record("m", 1.0);
    }

    #[test]
    #[should_panic]
    fn record_weighted_on_unweighted_estimator_panics() {
        let mut est = ReplicationEstimator::new(0.95);
        est.record_weighted("m", 1.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn merge_weighting_mismatch_panics() {
        let mut a = ReplicationEstimator::new(0.95);
        let b = ReplicationEstimator::new_weighted(0.95);
        a.merge(&b);
    }
}
