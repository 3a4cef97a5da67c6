//! Declarative experiment layer for the ITUA reproduction.
//!
//! Scenario diversity — the paper's whole point being parametric
//! validation of the ITUA design space — should not be gated on
//! recompiling. This crate makes *configurations* first-class inputs to
//! one evaluation engine, and [`Scenario::run`] is the one way a study
//! is run:
//!
//! * [`Scenario`] — the trait every runnable experiment implements:
//!   name, description, sweep points (including the analytic-backend
//!   micro-variant substitution), measures, renderer, and the identity
//!   parts folded into result-store fingerprints.
//! * [`registry`] — the shipped studies (Figures 3–5, the sensitivity
//!   study, and the `all-figures` composite) as built-in scenarios,
//!   each a thin declarative wrapper over an
//!   [`itua_studies::study::Study`] descriptor. Built-ins contribute no
//!   extra fingerprint parts, so their stores are byte-identical to a
//!   plain `run_sweep_stored` over the descriptor.
//! * [`file`] — a dependency-free `key = value` parser for user-authored
//!   `.scn` scenario files (topology counts, rates, management scheme,
//!   sweep axis, replications/horizon, split levels) that compose into
//!   [`SweepPoint`]s without recompiling. A file scenario's normalized
//!   content hash enters the store fingerprint, so editing the file
//!   invalidates checkpointed results instead of silently resuming them.
//!
//! The `itua` binary (in `itua-bench`) fronts this crate:
//! `itua list`, `itua run <scenario|file.scn>`, `itua check <scenario>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assert;
pub mod file;
pub mod keys;
pub mod registry;

use itua_rare::SplitSpec;
use itua_runner::backend::BackendKind;
use itua_studies::sweep::{
    run_sweep_stored, FigureResult, RunOpts, Series, SweepConfig, SweepPoint,
};
use std::io;

/// A runnable experiment: a named sweep with measures and a renderer.
///
/// The provided [`Scenario::run`] covers the common single-sweep shape
/// (one stored sweep, one rendered figure); composite scenarios such as
/// `all-figures` override it.
pub trait Scenario {
    /// Unique scenario name (`itua run <name>`).
    fn name(&self) -> &str;

    /// One-line description shown by `itua list`.
    fn description(&self) -> &str;

    /// Sweep/store identifier; defaults to the scenario name. The
    /// result store file is `<sweep id>.json` with the backend/split
    /// suffixes applied by the sweep layer.
    fn sweep_id(&self) -> String {
        self.name().to_owned()
    }

    /// The sweep points the scenario runs on `backend`. Implementations
    /// with an exact-solvable micro variant substitute it for
    /// [`BackendKind::Analytic`] (Figure 3); everything else ignores the
    /// backend.
    fn points(&self, backend: BackendKind) -> Vec<SweepPoint>;

    /// Measure keys extracted from the sweep (possibly `@t`-suffixed).
    fn measures(&self) -> Vec<String>;

    /// Renders extracted series into the scenario's figure.
    fn render(&self, series: &[Series]) -> FigureResult;

    /// Marking assertions the scenario claims hold in *every* reachable
    /// marking of its model, proved by `itua check --exhaustive`.
    /// Built-ins claim nothing beyond the analyzer's own conservation
    /// families; `.scn` files contribute their `assert =` lines.
    fn asserts(&self) -> Vec<crate::assert::MarkingAssert> {
        Vec::new()
    }

    /// Identity parts folded into the result-store fingerprint after
    /// the sweep-configuration parts. Built-ins return nothing (their
    /// identity is fully carried by their points), keeping their
    /// stores byte-identical to a plain `run_sweep_stored` over the
    /// study; file scenarios return their normalized
    /// content hash so resume stays sound across scenario edits.
    fn fingerprint_parts(&self) -> Vec<String> {
        Vec::new()
    }

    /// Folds the scenario's *pinned* execution settings into the
    /// CLI-derived configuration. Built-ins pin nothing; a `.scn` file
    /// that specifies `reps` / `seed` / `confidence` / `split-levels`
    /// is authoritative for those settings (the file declares the
    /// experiment; flags fill what it leaves open).
    fn configure(&self, cfg: &mut SweepConfig, split: &mut Option<SplitSpec>) {
        let _ = (cfg, split);
    }

    /// Runs the scenario: one stored sweep under [`Scenario::sweep_id`]
    /// with the scenario's [`Scenario::fingerprint_parts`] appended to
    /// the store fingerprint, rendered to one figure.
    ///
    /// # Errors
    ///
    /// Propagates backend failures and result-store write errors.
    fn run(&self, cfg: &SweepConfig, opts: &RunOpts<'_>) -> io::Result<Vec<FigureResult>> {
        let points = self.points(opts.backend);
        let measures = self.measures();
        let refs: Vec<&str> = measures.iter().map(String::as_str).collect();
        let opts = with_extra(opts, self.fingerprint_parts());
        let all = run_sweep_stored(&self.sweep_id(), &points, cfg, &refs, &opts)?;
        Ok(vec![self.render(&all)])
    }
}

/// Rebuilds `opts` with `extra` appended to its fingerprint parts
/// (everything else carried over; the progress observer is shared).
fn with_extra<'a>(opts: &RunOpts<'a>, extra: Vec<String>) -> RunOpts<'a> {
    let mut fingerprint_extra = opts.fingerprint_extra.clone();
    fingerprint_extra.extend(extra);
    RunOpts {
        backend: opts.backend,
        backend_opts: opts.backend_opts,
        runner: opts.runner,
        progress: opts.progress,
        results_dir: opts.results_dir.clone(),
        check: opts.check,
        split: opts.split.clone(),
        fingerprint_extra,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_extra_appends_without_mutating_the_original() {
        let base = RunOpts {
            fingerprint_extra: vec!["a=1".into()],
            ..RunOpts::default()
        };
        let combined = with_extra(&base, vec!["scn=abc".into()]);
        assert_eq!(combined.fingerprint_extra, vec!["a=1", "scn=abc"]);
        assert_eq!(base.fingerprint_extra, vec!["a=1"]);
        assert_eq!(combined.backend, base.backend);
    }
}
