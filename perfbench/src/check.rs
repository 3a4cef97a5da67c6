//! Correctness checks on a pass's estimates.
//!
//! * `exact-figures`: every measure within 1e-9 relative of the committed
//!   reference.
//! * `des-figures`, `san-figures`: every estimate agrees with the committed
//!   reference (made at the default seed) within the two confidence
//!   intervals combined, so a run on any seed is checked.
//! * `tail-split`: the confidence interval of the unreliability covers the
//!   exact value, solved outside the timed region.
//!
//! A 95% interval misses one time in twenty by design, and a figures pass
//! makes a few hundred comparisons, so the statistical checks widen the
//! intervals to a family-wise false-alarm rate of [`FAMILY_ALPHA`] per
//! run (Bonferroni over the run's comparisons): the standard errors
//! behind the two half-widths are combined in quadrature and compared at
//! the matching normal quantile.

use crate::pass::PointOutcome;
use crate::workload::Workload;
use itua_runner::store::StoredEstimate;
use itua_stats::special::normal_quantile;
use itua_stats::tdist::t_quantile;
use std::fmt::Write as _;

/// Probability that a correct run fails its statistical check.
pub const FAMILY_ALPHA: f64 = 1e-4;

/// Fewest observations behind an estimate for its interval to be
/// compared; smaller samples (a conditional measure seen a handful of
/// times) carry no usable interval.
pub const MIN_OBSERVATIONS: u64 = 30;

/// Relative tolerance of the exact workload.
pub const EXACT_REL_TOL: f64 = 1e-9;

/// Confidence level of the stored half-widths.
const LEVEL: f64 = 0.95;

/// One committed reference estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct RefEntry {
    /// Sweep id.
    pub sweep: String,
    /// Point index within the sweep.
    pub index: usize,
    /// The stored estimate.
    pub estimate: StoredEstimate,
}

/// The committed reference of a workload (none for the tail, which is
/// checked against its exact solution).
pub fn reference(workload: Workload) -> Vec<RefEntry> {
    let text = match workload {
        Workload::DesFigures => include_str!("../reference/des-figures.tsv"),
        Workload::SanFigures => include_str!("../reference/san-figures.tsv"),
        Workload::ExactFigures => include_str!("../reference/exact-figures.tsv"),
        Workload::TailSplit => "",
    };
    parse(text)
}

/// Parses reference lines `sweep, index, measure, mean, half_width, n`
/// (tab-separated; `#` starts a comment line).
///
/// # Panics
///
/// On a malformed line: the reference is committed with the benchmark.
pub fn parse(text: &str) -> Vec<RefEntry> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 6, "malformed reference line: {line}");
            let num = |s: &str| -> f64 { s.parse().expect("reference number") };
            RefEntry {
                sweep: f[0].to_owned(),
                index: f[1].parse().expect("reference point index"),
                estimate: StoredEstimate {
                    name: f[2].to_owned(),
                    mean: num(f[3]),
                    half_width: num(f[4]),
                    n: f[5].parse().expect("reference observation count"),
                    min: f64::NAN,
                    max: f64::NAN,
                },
            }
        })
        .collect()
}

/// Writes a pass's estimates in the reference format. Floats print in
/// their shortest round-trip form, so parsing gives the same bits.
pub fn to_reference(points: &[PointOutcome]) -> String {
    let mut out = String::from("# sweep\tindex\tmeasure\tmean\thalf_width\tn\n");
    for p in points {
        for e in &p.estimates {
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                p.sweep, p.index, e.name, e.mean, e.half_width, e.n
            );
        }
    }
    out
}

/// Standard error behind a stored half-width.
fn std_error(e: &StoredEstimate) -> f64 {
    e.half_width / t_quantile(1.0 - (1.0 - LEVEL) / 2.0, (e.n - 1) as f64)
}

/// Whether two estimates of one measure agree at normal quantile `z`.
fn agree(run: &StoredEstimate, reference: &StoredEstimate, z: f64) -> bool {
    let tol = z * std_error(run).hypot(std_error(reference));
    (run.mean - reference.mean).abs() <= tol
}

/// Which points of a pass fail the workload's check (`true` = failed).
/// `exact_tail` is the exact unreliability of the tail point.
pub fn failed_points(workload: Workload, points: &[PointOutcome], exact_tail: f64) -> Vec<bool> {
    match workload {
        Workload::TailSplit => points
            .iter()
            .map(|p| {
                let z = normal_quantile(1.0 - FAMILY_ALPHA / 2.0);
                crate::pass::unreliability(p)
                    .is_none_or(|e| (e.mean - exact_tail).abs() > z * std_error(e))
            })
            .collect(),
        Workload::ExactFigures => {
            let reference = reference(workload);
            points
                .iter()
                .map(|p| {
                    let refs = entries_of(&reference, p);
                    refs.len() != p.estimates.len()
                        || refs.iter().any(|r| {
                            p.estimate(&r.name).is_none_or(|e| {
                                (e.mean - r.mean).abs()
                                    > EXACT_REL_TOL * e.mean.abs().max(r.mean.abs())
                            })
                        })
                })
                .collect()
        }
        Workload::DesFigures | Workload::SanFigures => {
            let reference = reference(workload);
            let comparisons = reference
                .iter()
                .filter(|r| r.estimate.n >= MIN_OBSERVATIONS)
                .count()
                .max(1);
            let z = normal_quantile(1.0 - FAMILY_ALPHA / (2.0 * comparisons as f64));
            points
                .iter()
                .map(|p| {
                    let refs = entries_of(&reference, p);
                    let names = refs
                        .iter()
                        .map(|r| r.name.as_str())
                        .chain(p.estimates.iter().map(|e| e.name.as_str()));
                    names.into_iter().any(|name| {
                        let r_any = refs.iter().copied().find(|r| r.name == name);
                        let e_any = p.estimate(name);
                        match (usable(e_any), usable(r_any)) {
                            (Some(e), Some(r)) => !agree(e, r, z),
                            // One side saw the measure often and the other
                            // never saw it at all.
                            (Some(_), None) => r_any.is_none(),
                            (None, Some(_)) => e_any.is_none(),
                            (None, None) => false,
                        }
                    })
                })
                .collect()
        }
    }
}

/// `e` when it rests on enough observations to compare.
fn usable(e: Option<&StoredEstimate>) -> Option<&StoredEstimate> {
    e.filter(|e| e.n >= MIN_OBSERVATIONS)
}

/// Reference estimates of the point `p`.
fn entries_of<'a>(reference: &'a [RefEntry], p: &PointOutcome) -> Vec<&'a StoredEstimate> {
    reference
        .iter()
        .filter(|r| r.sweep == p.sweep && r.index == p.index)
        .map(|r| &r.estimate)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est(name: &str, mean: f64, half_width: f64, n: u64) -> StoredEstimate {
        StoredEstimate {
            name: name.to_owned(),
            mean,
            half_width,
            n,
            min: 0.0,
            max: 1.0,
        }
    }

    #[test]
    fn reference_round_trips_bit_for_bit() {
        let points = vec![PointOutcome {
            sweep: "figure3".to_owned(),
            index: 4,
            estimates: vec![est("unreliability", 0.1 + 0.2, 1.0 / 3.0, 2000)],
            resumed: false,
            error: None,
        }];
        let parsed = parse(&to_reference(&points));
        assert_eq!(parsed.len(), 1);
        let e = &parsed[0].estimate;
        assert_eq!(e.mean.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(e.half_width.to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!((parsed[0].index, e.n), (4, 2000));
    }

    #[test]
    fn agreement_uses_both_standard_errors() {
        let r = est("m", 1.0, 0.1, 2000);
        // Standard errors ~0.051 each, combined ~0.072.
        assert!(agree(&est("m", 1.2, 0.1, 2000), &r, 3.0));
        assert!(!agree(&est("m", 1.3, 0.1, 2000), &r, 3.0));
        // Zero-width intervals must match exactly.
        let exact = est("m", 0.0, 0.0, 2000);
        assert!(agree(&exact, &exact, 5.0));
        assert!(!agree(&est("m", 1e-9, 0.0, 2000), &exact, 5.0));
    }
}
