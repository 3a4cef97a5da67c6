//! One benchmark run: time-boxed passes, the correctness check, and the
//! end-to-end (untraced) or per-layer (traced) metrics.

use crate::calib::{Calibrator, REFERENCE_SECONDS};
use crate::check;
use crate::cpu;
use crate::pass::{self, Pass};
use crate::probe::{self, ChainCounts, SanFirings};
use crate::report::{median, peak_rss_mb, ratio, Metric};
use crate::trace::{self, Span, Tracer};
use crate::workload::{Inputs, Workload};
use itua_runner::backend::BackendError;
use itua_runner::store::StoredEstimate;
use itua_studies::sweep::SweepPoint;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Fewest set-up samples of each point a run takes the median of.
pub const MIN_SETUP_SAMPLES: usize = 5;

/// Set-up sampling continues until it has spent this long (seconds), so
/// the medians of set-ups that take microseconds are steady too.
pub const MIN_SETUP_SECONDS: f64 = 1.5;

/// Seconds of set-up sampling before each pass (at least one round).
pub const SETUP_SECONDS_PER_PASS: f64 = 0.3;

/// A point's set-up shorter than this (CPU seconds) is timed in batches,
/// so that the clock's own cost (about 10 µs a reading) stays out of it.
pub const SETUP_BATCH_SECONDS: f64 = 5e-3;

/// Upper bound on the repetitions in one set-up batch.
pub const MAX_SETUP_BATCH: usize = 1_000_000;

/// Upper bound on set-up rounds.
pub const MAX_SETUP_ROUNDS: usize = 1000;

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed (the sweep's base seed).
    pub seed: u64,
    /// Seconds of passes to measure.
    pub seconds: f64,
    /// Whether to report the per-layer metrics of a traced run.
    pub trace: bool,
    /// Worker threads.
    pub threads: usize,
    /// Scratch directory for result stores and the span file.
    pub work_dir: PathBuf,
}

/// A finished run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Points attempted, over every pass.
    pub attempted: u64,
    /// Points that errored, were resumed, or failed the check.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Untraced passes.
    pub untraced: Vec<Pass>,
    /// Traced passes with their spans.
    pub traced: Vec<(Pass, Vec<Span>)>,
}

/// Runs passes in fresh directories `<dir>/<tag>-<k>` for about `budget`
/// seconds: a pass starts while the run would end closer to the budget
/// with it than without it, and there is always one. With a set-up
/// sampler, set-up samples are taken before each pass.
fn run_passes(
    inputs: &Inputs,
    dir: &Path,
    tag: &str,
    budget: f64,
    traced: bool,
    mut setup: Option<&mut SetupSampler>,
) -> io::Result<Vec<(Pass, Vec<Span>)>> {
    let mut passes = Vec::new();
    let mut measured = 0.0;
    loop {
        if let Some(sampler) = setup.as_deref_mut() {
            sampler.between_passes(inputs)?;
        }
        let started = Instant::now();
        let tracer = traced.then(Tracer::new);
        let pass = pass::run(
            inputs,
            &dir.join(format!("{tag}-{}", passes.len())),
            tracer.as_ref(),
        )?;
        passes.push((pass, tracer.map(|t| t.spans()).unwrap_or_default()));
        measured += started.elapsed().as_secs_f64();
        if measured + measured / passes.len() as f64 / 2.0 >= budget {
            return Ok(passes);
        }
    }
}

/// Whether two estimate lists are equal bit for bit.
pub fn same_bits(a: &[StoredEstimate], b: &[StoredEstimate]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.name == y.name
                && x.n == y.n
                && [x.mean, x.half_width, x.min, x.max]
                    .iter()
                    .zip([y.mean, y.half_width, y.min, y.max])
                    .all(|(u, v)| u.to_bits() == v.to_bits())
        })
}

/// Failed points over every pass: the first pass is checked against the
/// reference, and every pass (traced ones included) must reproduce it bit
/// for bit, since all passes run the same seed.
fn count_failed(workload: Workload, passes: &[&Pass], exact_tail: f64) -> u64 {
    let first = passes[0];
    let checked = check::failed_points(workload, &first.points, exact_tail);
    let mut failed = 0;
    for pass in passes {
        for (i, point) in pass.points.iter().enumerate() {
            let reproduced = first
                .points
                .get(i)
                .is_some_and(|f| same_bits(&f.estimates, &point.estimates));
            let bad = point.error.is_some()
                || point.resumed
                || checked.get(i).copied().unwrap_or(true)
                || !reproduced;
            failed += u64::from(bad);
        }
    }
    failed
}

/// Set-up samples of a run: backend construction and self-check of each
/// point on its own, on the CPU clock scaled to the reference speed by
/// the mean factor of calibration samples right before and after it (see
/// [`crate::calib`]). They are taken in rounds over every point, one
/// round or more before each pass and the rest after the last. A point's
/// set-up shorter than [`SETUP_BATCH_SECONDS`] is timed in batches of
/// repetitions, so the clock's own cost and jitter stay out of its
/// samples. The run's set-up
/// time is the sum over points of each point's median, so a stall of the
/// host moves one sample of one point, not the figure.
struct SetupSampler {
    calibrator: Calibrator,
    points: Vec<SweepPoint>,
    batch: Vec<usize>,
    samples: Vec<Vec<f64>>,
    rounds: usize,
    spent: f64,
}

impl SetupSampler {
    /// Takes a first set-up of every point, which sizes its batches. A
    /// point whose set-up is shorter than [`SETUP_BATCH_SECONDS`] is run
    /// in batches ten times longer each until one takes that long, so
    /// that the batch is sized by a time the clock's own cost (about
    /// 10 µs) does not dominate.
    fn new(inputs: &Inputs) -> Result<Self, BackendError> {
        let points: Vec<SweepPoint> = inputs
            .sweeps
            .iter()
            .flat_map(|s| s.points.iter().cloned())
            .collect();
        let mut sampler = SetupSampler {
            calibrator: Calibrator::new(),
            batch: Vec::with_capacity(points.len()),
            samples: vec![Vec::new(); points.len()],
            rounds: 0,
            spent: 0.0,
            points,
        };
        for (i, point) in sampler.points.iter().enumerate() {
            let mut repeats = 1;
            let (mut seconds, scale) = timed_setup(&mut sampler.calibrator, inputs, point, 1)?;
            sampler.spent += seconds;
            if seconds >= SETUP_BATCH_SECONDS {
                sampler.samples[i].push(seconds * scale);
            }
            while seconds < SETUP_BATCH_SECONDS && repeats < MAX_SETUP_BATCH {
                repeats = (repeats * 10).min(MAX_SETUP_BATCH);
                seconds = timed_setup(&mut sampler.calibrator, inputs, point, repeats)?.0;
                sampler.spent += seconds;
            }
            let batch = repeats as f64 * SETUP_BATCH_SECONDS / seconds;
            sampler
                .batch
                .push(batch.clamp(1.0, MAX_SETUP_BATCH as f64).ceil() as usize);
        }
        Ok(sampler)
    }

    /// Samples every point's set-up once.
    fn round(&mut self, inputs: &Inputs) -> Result<(), BackendError> {
        for (i, point) in self.points.iter().enumerate() {
            let (s, scale) = timed_setup(&mut self.calibrator, inputs, point, self.batch[i])?;
            self.spent += s;
            self.samples[i].push(s * scale / self.batch[i] as f64);
        }
        self.rounds += 1;
        Ok(())
    }

    /// Takes rounds for [`SETUP_SECONDS_PER_PASS`], and at least one.
    fn between_passes(&mut self, inputs: &Inputs) -> Result<(), BackendError> {
        let until = self.spent + SETUP_SECONDS_PER_PASS;
        loop {
            self.round(inputs)?;
            if self.spent >= until || self.rounds >= MAX_SETUP_ROUNDS {
                return Ok(());
            }
        }
    }

    /// Tops the samples up to [`MIN_SETUP_SAMPLES`] per point and
    /// [`MIN_SETUP_SECONDS`] in all, and returns the set-up time of one
    /// pass: the sum over points of each point's median.
    fn finish(mut self, inputs: &Inputs) -> Result<f64, BackendError> {
        let fewest = |s: &Self| s.samples.iter().map(Vec::len).min().unwrap_or(0);
        while self.rounds < MAX_SETUP_ROUNDS
            && (fewest(&self) < MIN_SETUP_SAMPLES || self.spent < MIN_SETUP_SECONDS)
        {
            self.round(inputs)?;
        }
        Ok(self.samples.iter().map(|s| median(s)).sum())
    }
}

/// CPU seconds of `repeats` set-ups of `point`, and the mean of the
/// factors to the reference speed sampled right before and after them.
fn timed_setup(
    calibrator: &mut Calibrator,
    inputs: &Inputs,
    point: &SweepPoint,
    repeats: usize,
) -> Result<(f64, f64), BackendError> {
    let before = REFERENCE_SECONDS / calibrator.sample();
    let seconds = pass::setup_point(inputs, point, repeats)?;
    let after = REFERENCE_SECONDS / calibrator.sample();
    Ok((seconds, (before + after) / 2.0))
}

/// Runs the benchmark.
///
/// # Errors
///
/// Store-directory failures, or a failure of a probe or the set-up that
/// leaves no result to report.
pub fn run(opts: &Options) -> io::Result<Outcome> {
    cpu::check()?;
    let inputs = opts.workload.inputs(opts.seed, opts.threads);
    // The exact tail value is solved before any timing starts.
    let exact_tail = if opts.workload == Workload::TailSplit {
        probe::exact_tail_unreliability(&inputs)?
    } else {
        f64::NAN
    };
    let mut setup = if opts.trace {
        None
    } else {
        Some(SetupSampler::new(&inputs)?)
    };
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let untraced = run_passes(
        &inputs,
        &opts.work_dir,
        "untraced",
        budget,
        false,
        setup.as_mut(),
    )?;
    let traced = if opts.trace {
        run_passes(&inputs, &opts.work_dir, "traced", budget, true, None)?
    } else {
        Vec::new()
    };
    let all: Vec<&Pass> = untraced.iter().chain(&traced).map(|(p, _)| p).collect();
    let attempted: u64 = all.iter().map(|p| p.points.len() as u64).sum();
    let failed = count_failed(opts.workload, &all, exact_tail);

    let metrics = if opts.trace {
        layer_metrics(&inputs, &untraced, &traced)?
    } else {
        let setup = setup
            .expect("an untraced run samples its set-up")
            .finish(&inputs)?;
        end_to_end_metrics(&untraced, setup)
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        untraced: untraced.into_iter().map(|(p, _)| p).collect(),
        traced,
    })
}

/// Median over passes of `f`.
fn per_pass(passes: &[(Pass, Vec<Span>)], f: impl Fn(&Pass, &[Span]) -> f64) -> f64 {
    let values: Vec<f64> = passes.iter().map(|(p, s)| f(p, s)).collect();
    median(&values)
}

/// Work-normalised variance of a tail pass: the squared unreliability
/// half-width times the pass's raw CPU seconds (calibration samples left
/// out), which are those of its tree loop and the trees' reduction (the
/// set-up takes microseconds, the store write a fraction of a
/// millisecond). It is 0 when the pass has no unreliability interval to
/// speak of.
fn work_norm_var(pass: &Pass) -> f64 {
    match pass.points.as_slice() {
        [point] => {
            pass::unreliability(point).map_or(0.0, |e| e.half_width * e.half_width * pass.times.cpu)
        }
        _ => 0.0,
    }
}

/// The end-to-end metrics of untraced passes, given the set-up time of
/// one pass; every time is CPU time at the reference speed.
fn end_to_end_metrics(passes: &[(Pass, Vec<Span>)], setup_s: f64) -> Vec<Metric> {
    vec![
        Metric::new("cpu_s", per_pass(passes, |p, _| p.times.cpu_ref), "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new(
            "reps_per_s",
            per_pass(passes, |p, _| {
                let replication_loop = p.times.compute_ref - setup_s;
                if replication_loop > 0.0 {
                    p.units as f64 / replication_loop
                } else {
                    f64::NAN
                }
            }),
            "1/s",
        ),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

/// The per-layer metrics of a traced run.
fn layer_metrics(
    inputs: &Inputs,
    untraced: &[(Pass, Vec<Span>)],
    traced: &[(Pass, Vec<Span>)],
) -> io::Result<Vec<Metric>> {
    let backend = inputs.workload.backend();
    let firings = if backend == itua_runner::backend::BackendKind::San {
        probe::san_firings(inputs)?
    } else {
        SanFirings::default()
    };
    let chains = if backend == itua_runner::backend::BackendKind::Analytic {
        probe::chains(inputs)?
    } else {
        ChainCounts::default()
    };
    let wnv = per_pass(untraced, |p, _| work_norm_var(p));
    let wnv_gain = if inputs.split.is_some() {
        let (hw, seconds) = probe::plain_arm(inputs)?;
        ratio(hw * hw * seconds, wnv)
    } else {
        0.0
    };
    let threads = inputs.runner.effective_threads() as f64;
    let reps = |p: &Pass| p.units as f64;
    let busy = |name: &'static str| move |_: &Pass, s: &[Span]| trace::total(s, name);
    let per_rep = |name: &'static str| {
        move |p: &Pass, s: &[Span]| ratio(trace::total(s, name) * 1e9, reps(p))
    };
    let replicate =
        |s: &[Span]| trace::total(s, "runner.replicate") + trace::total(s, "rare.trees");
    let t = traced;
    let rare = traced[0].0.rare;
    Ok(vec![
        Metric::new(
            "core.des.busy_s",
            per_pass(t, busy("core.des.run_batch")),
            "s",
        ),
        Metric::new(
            "core.des.ns_per_rep",
            per_pass(t, per_rep("core.des.run_batch")),
            "ns",
        ),
        Metric::new(
            "core.san_exec.busy_s",
            per_pass(t, busy("core.san_exec.run_batch")),
            "s",
        ),
        Metric::new(
            "core.san_exec.ns_per_rep",
            per_pass(t, per_rep("core.san_exec.run_batch")),
            "ns",
        ),
        Metric::new(
            "san.sim.timed_firings_per_rep",
            ratio(firings.timed as f64, firings.reps as f64),
            "count",
        ),
        Metric::new(
            "san.sim.inst_firings_per_rep",
            ratio(firings.instantaneous as f64, firings.reps as f64),
            "count",
        ),
        Metric::new(
            "san.sim.ns_per_firing",
            ratio(
                firings.seconds * 1e9,
                (firings.timed + firings.instantaneous) as f64,
            ),
            "ns",
        ),
        Metric::new(
            "core.model_build_s",
            per_pass(t, busy("backend.build")),
            "s",
        ),
        Metric::new(
            "core.self_check_s",
            per_pass(t, busy("core.self_check")),
            "s",
        ),
        Metric::new("san.statespace.gen_s", chains.gen_s, "s"),
        Metric::new("san.statespace.orbits", chains.orbits as f64, "count"),
        Metric::new(
            "san.statespace.full_states",
            chains.full_states as f64,
            "count",
        ),
        Metric::new(
            "san.statespace.transitions",
            chains.transitions as f64,
            "count",
        ),
        Metric::new(
            "san.statespace.orbits_per_s",
            ratio(chains.orbits as f64, chains.gen_s),
            "1/s",
        ),
        Metric::new("markov.csr_build_s", chains.csr_build_s, "s"),
        Metric::new("markov.nnz", chains.nnz as f64, "count"),
        Metric::new("markov.csr_bytes", chains.csr_bytes as f64, "B"),
        Metric::new("markov.qT_max", chains.qt_max, "count"),
        Metric::new("markov.qT_sum", chains.qt_sum, "count"),
        Metric::new("markov.matvecs", chains.matvecs as f64, "count"),
        Metric::new("markov.solve_s", per_pass(t, busy("markov.solve")), "s"),
        Metric::new(
            "markov.ns_per_nnz",
            per_pass(t, |_, s| {
                ratio(trace::total(s, "markov.solve") * 1e9, chains.nnz_matvecs)
            }),
            "ns",
        ),
        Metric::new("runner.replicate_s", per_pass(t, |_, s| replicate(s)), "s"),
        Metric::new(
            "runner.self_s",
            per_pass(t, |_, s| trace::self_time(s, "runner.replicate")),
            "s",
        ),
        Metric::new(
            "runner.parallel_eff",
            per_pass(t, |_, s| {
                let batches = trace::total(s, "core.des.run_batch")
                    + trace::total(s, "core.san_exec.run_batch");
                ratio(batches, threads * trace::total(s, "runner.replicate"))
            }),
            "ratio",
        ),
        Metric::new(
            "runner.store.write_s",
            per_pass(t, |p, _| p.times.store),
            "s",
        ),
        Metric::new("runner.store.bytes", traced[0].0.store_bytes as f64, "B"),
        Metric::new("stats.record_s", per_pass(t, busy("stats.record")), "s"),
        Metric::new("rare.trees", rare.trees as f64, "count"),
        Metric::new("rare.steps", rare.steps as f64, "count"),
        Metric::new("rare.branches", rare.branches as f64, "count"),
        Metric::new("rare.leaves", rare.leaves as f64, "count"),
        Metric::new("rare.killed", rare.killed as f64, "count"),
        Metric::new(
            "rare.leaf_ratio",
            ratio(rare.leaves as f64, rare.branches as f64),
            "ratio",
        ),
        Metric::new(
            "rare.ns_per_step",
            per_pass(t, |p, s| {
                ratio(trace::total(s, "rare.trees") * 1e9, p.rare.steps as f64)
            }),
            "ns",
        ),
        Metric::new("work_norm_var", wnv, "s"),
        Metric::new("rare.wnv_gain_vs_plain", wnv_gain, "ratio"),
        Metric::new("wall_s", per_pass(untraced, |p, _| p.times.wall), "s"),
        Metric::new("cpu_raw_s", per_pass(untraced, |p, _| p.times.cpu), "s"),
        Metric::new(
            "calib.speed",
            per_pass(untraced, |p, _| ratio(p.times.cpu_ref, p.times.cpu)),
            "ratio",
        ),
        Metric::new("trace.wall_s", per_pass(t, |p, _| p.times.wall), "s"),
        // On the CPU clock: an untraced pass's wall time also holds its
        // calibration samples, which a traced pass does not take.
        Metric::new(
            "trace.overhead_s",
            per_pass(t, |p, _| p.times.cpu) - per_pass(untraced, |p, _| p.times.cpu),
            "s",
        ),
    ])
}

/// Writes every traced span, with its pass number, as tab-separated lines.
///
/// # Errors
///
/// File-system failures.
pub fn write_spans(path: &Path, traced: &[(Pass, Vec<Span>)]) -> io::Result<()> {
    let mut out = String::new();
    for (k, (_, spans)) in traced.iter().enumerate() {
        out.push_str(&format!("# pass {k}\n"));
        out.push_str(&trace::to_tsv(spans));
    }
    std::fs::write(path, out)
}
