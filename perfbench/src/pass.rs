//! One pass over a workload's points, with the stores opened in a fresh
//! directory.
//!
//! An untraced pass is the user path itself: every sweep goes through
//! [`run_sweep_stored`], as `itua run` does, with a [`Progress`] observer
//! that collects each point's estimates, notes resumed points, and reads
//! the wall and CPU clocks when a point starts and when its replications
//! (or its exact solve) are done.
//!
//! A traced pass makes the same public calls one layer at a time, so that
//! each gets its own span: [`ItuaBackend::for_params_with`], the
//! self-check, and `run_measures_checked` (or `run_measures_split`) on the
//! backend wrapped in [`Timed`], which records every `run_batch` and exact
//! solve. Its points go through a [`SweepRunner`] with a result store of
//! their own. A benchmark test proves both passes give the same estimates
//! bit for bit.

use crate::calib::{Calibrator, REFERENCE_SECONDS};
use crate::cpu;
use crate::trace::{Timed, Tracer};
use crate::workload::Inputs;
use itua_core::measures::names;
use itua_runner::backend::{
    run_measures_checked, Backend, BackendError, BackendKind, ItuaBackend, ModelCheck,
};
use itua_runner::progress::Progress;
use itua_runner::split::{run_measures_split, SplitTotals};
use itua_runner::store::{fingerprint_iter, ResultStore, StoredEstimate};
use itua_runner::sweep::{PointSpec, SweepRunner};
use itua_sim::rng::stream_seed;
use itua_studies::sweep::{run_sweep_stored, RunOpts, SweepPoint};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// What one point produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PointOutcome {
    /// Sweep the point belongs to.
    pub sweep: String,
    /// Index of the point within its sweep.
    pub index: usize,
    /// Stored estimates (empty when the point failed).
    pub estimates: Vec<StoredEstimate>,
    /// Whether the store reported the point as resumed instead of run.
    pub resumed: bool,
    /// The error that stopped the point, if any.
    pub error: Option<String>,
}

impl PointOutcome {
    /// The estimate of `measure`, if the point has one.
    pub fn estimate(&self, measure: &str) -> Option<&StoredEstimate> {
        self.estimates.iter().find(|e| e.name == measure)
    }
}

/// Clock totals of one pass, in seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PassTimes {
    /// The whole pass, wall clock.
    pub wall: f64,
    /// The whole pass, CPU clock ([`cpu::now`]), calibration left out.
    pub cpu: f64,
    /// [`PassTimes::cpu`] at the reference speed, segment by segment (see
    /// `Watch` and [`crate::calib`]); equal to `cpu` on a pass without
    /// calibration.
    pub cpu_ref: f64,
    /// From each point's start to the end of its replications or exact
    /// solve (backend construction and self-check included), summed over
    /// points; wall clock.
    pub compute: f64,
    /// [`PassTimes::compute`] on the CPU clock, at the reference speed.
    pub compute_ref: f64,
    /// From the end of each point's replications to the store's
    /// `on_point_done` callback, summed over points: the reduction into a
    /// `MeasureSet` and the store write on an untraced pass, the store
    /// write alone on a traced one; wall clock.
    pub store: f64,
}

/// Everything one pass produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Clock totals.
    pub times: PassTimes,
    /// One outcome per point, in sweep order.
    pub points: Vec<PointOutcome>,
    /// Units of work completed: replications, RESTART trees, or exact
    /// solves (one per point).
    pub units: u64,
    /// Bytes of store file written, summed over every write (traced
    /// passes only).
    pub store_bytes: u64,
    /// RESTART work totals (traced passes of the tail workload only).
    pub rare: SplitTotals,
}

/// Wall seconds between calibration samples within a point.
pub const CALIBRATE_EVERY: f64 = 0.01;

/// Progress observer of one sweep: collects the points as the store
/// reports them and reads the clocks at each point's start, at the end of
/// its replications and when the store has recorded it.
///
/// It cuts the sweep's CPU time into segments at those three events and,
/// within a point, at the first `on_replications` call after each
/// [`CALIBRATE_EVERY`]. On an untraced pass the calibration kernel is
/// sampled at every cut, and a segment is scaled to the reference speed
/// by the mean of the factors sampled at its two ends; the kernel's own
/// time is left out.
struct Watch<'a> {
    state: Mutex<WatchState>,
    /// Untraced passes: the calibration kernel.
    calibrator: Option<&'a Mutex<Calibrator>>,
    /// Traced passes: where the store write spans go, and the store file.
    traced: Option<(&'a Tracer, u64, PathBuf)>,
}

#[derive(Default)]
struct WatchState {
    /// Wall clock at the point's start.
    started: Option<Instant>,
    /// Wall clock at the end of the point's replications, and the
    /// point's scaled CPU seconds until then.
    replicated: Option<(Instant, f64)>,
    /// CPU clock at the start of the open segment, and the factor to the
    /// reference speed sampled there; none before the sweep's first point.
    segment: Option<(f64, f64)>,
    /// Wall clock of the last cut.
    cut: Option<Instant>,
    /// The current point's scaled CPU seconds so far.
    point_ref: f64,
    /// CPU seconds of every segment, raw and scaled.
    segments_raw: f64,
    segments_ref: f64,
    /// CPU seconds of calibration.
    calib_cpu_s: f64,
    /// When a traced point handed its estimates to the store.
    simulated: Option<Instant>,
    compute_s: f64,
    compute_ref_s: f64,
    store_s: f64,
    store_bytes: u64,
    /// Index, estimates and whether it was resumed, for every point the
    /// store reported.
    done: Vec<(usize, Vec<StoredEstimate>, bool)>,
}

impl<'a> Watch<'a> {
    fn new(
        traced: Option<(&'a Tracer, u64, PathBuf)>,
        calibrator: Option<&'a Mutex<Calibrator>>,
    ) -> Self {
        Watch {
            state: Mutex::new(WatchState::default()),
            calibrator,
            traced,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WatchState> {
        self.state.lock().expect("progress observer lock")
    }

    /// Closes the open segment, adding it to the current point when
    /// `in_point`, samples the kernel (untraced passes) and opens the
    /// next segment.
    fn cut(&self, state: &mut WatchState, in_point: bool) {
        let closed = cpu::now();
        let scale = match self.calibrator {
            Some(calibrator) => {
                REFERENCE_SECONDS / calibrator.lock().expect("calibrator lock").sample()
            }
            None => 1.0,
        };
        let opened = cpu::now();
        state.calib_cpu_s += opened - closed;
        if let Some((start, opening_scale)) = state.segment {
            let raw = closed - start;
            let scaled = raw * (opening_scale + scale) / 2.0;
            state.segments_raw += raw;
            state.segments_ref += scaled;
            if in_point {
                state.point_ref += scaled;
            }
        }
        state.segment = Some((opened, scale));
        state.cut = Some(Instant::now());
    }
}

impl Progress for Watch<'_> {
    fn on_point_start(&self, _index: usize, _total: usize, _label: &str) {
        let mut state = self.lock();
        self.cut(&mut state, false);
        state.point_ref = 0.0;
        state.started = Some(Instant::now());
        state.replicated = None;
    }

    fn on_replications(&self, done: u32, total: u32) {
        let mut state = self.lock();
        if done == total {
            self.cut(&mut state, true);
            state.replicated = Some((Instant::now(), state.point_ref));
        } else if state
            .cut
            .is_some_and(|t| t.elapsed().as_secs_f64() >= CALIBRATE_EVERY)
        {
            self.cut(&mut state, true);
        }
    }

    fn on_point_done(
        &self,
        index: usize,
        _total: usize,
        _label: &str,
        estimates: &[StoredEstimate],
        resumed: bool,
    ) {
        let mut state = self.lock();
        self.cut(&mut state, true);
        let now = Instant::now();
        if !resumed {
            if let (Some(start), Some((end, compute_ref))) =
                (state.started.take(), state.replicated.take())
            {
                state.compute_s += end.duration_since(start).as_secs_f64();
                state.compute_ref_s += compute_ref;
                let written_from = state.simulated.take().unwrap_or(end);
                state.store_s += now.duration_since(written_from).as_secs_f64();
                if let Some((tracer, parent, path)) = &self.traced {
                    tracer.record("runner.store.write", Some(*parent), written_from, now);
                    // Every write rewrites the whole file.
                    state.store_bytes += std::fs::metadata(path).map_or(0, |m| m.len());
                }
            }
        }
        state.done.push((index, estimates.to_vec(), resumed));
    }
}

/// What one sweep of a pass left behind.
struct SweepRun {
    state: WatchState,
    /// The error that stopped the sweep, if any.
    error: Option<String>,
    /// RESTART work totals (traced sweeps only).
    rare: SplitTotals,
}

/// Runs one pass of `inputs` with its stores under `dir`, which must not
/// exist yet. With a tracer, the pass is traced and its spans recorded
/// under a `pass` span; without one, the calibration kernel is sampled
/// through the pass.
///
/// # Errors
///
/// Fails when `dir` already exists or cannot be created, or when the user
/// path runs without its store; point failures are reported in the
/// outcomes instead.
pub fn run(inputs: &Inputs, dir: &Path, tracer: Option<&Tracer>) -> io::Result<Pass> {
    if dir.exists() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!("store directory {} is not fresh", dir.display()),
        ));
    }
    std::fs::create_dir_all(dir)?;
    run_in(inputs, dir, tracer)
}

/// [`run`] without the freshness check: stores already in `dir` are
/// resumed from.
fn run_in(inputs: &Inputs, dir: &Path, tracer: Option<&Tracer>) -> io::Result<Pass> {
    let pass_id = tracer.map(Tracer::reserve);
    let calibrator = tracer.is_none().then(|| Mutex::new(Calibrator::new()));
    let started = Instant::now();
    let started_cpu = cpu::now();
    let mut pass = Pass::default();
    let mut stored = 0;
    let (mut calib_cpu, mut segments_raw, mut segments_ref) = (0.0, 0.0, 0.0);
    for sweep in &inputs.sweeps {
        let SweepRun {
            state,
            mut error,
            rare,
        } = match tracer {
            Some(t) => run_sweep_traced(inputs, &sweep.id, &sweep.points, dir, t, pass_id)?,
            None => run_sweep(inputs, &sweep.id, &sweep.points, dir, calibrator.as_ref())?,
        };
        // The user path only warns when a store cannot be opened; a pass
        // without one would not be comparable, so it stops the run. Every
        // sweep that recorded a point leaves one store file.
        stored += usize::from(!state.done.is_empty());
        if std::fs::read_dir(dir)?.count() < stored {
            return Err(io::Error::other(format!(
                "sweep {} left no result store in {}",
                sweep.id,
                dir.display()
            )));
        }
        pass.times.compute += state.compute_s;
        pass.times.compute_ref += state.compute_ref_s;
        calib_cpu += state.calib_cpu_s;
        segments_raw += state.segments_raw;
        segments_ref += state.segments_ref;
        pass.times.store += state.store_s;
        pass.store_bytes += state.store_bytes;
        pass.rare = add_totals(pass.rare, rare);
        for i in 0..sweep.points.len() {
            let outcome = match state.done.iter().find(|d| d.0 == i) {
                Some((_, estimates, resumed)) => {
                    if !resumed {
                        pass.units += units(inputs);
                    }
                    (estimates.clone(), *resumed, None)
                }
                // The first point the store never reported is the one that
                // failed; a failing point stops its sweep.
                None => (
                    Vec::new(),
                    false,
                    Some(
                        error
                            .take()
                            .unwrap_or_else(|| "not run: an earlier point failed".to_owned()),
                    ),
                ),
            };
            pass.points.push(PointOutcome {
                sweep: sweep.id.clone(),
                index: i,
                estimates: outcome.0,
                resumed: outcome.1,
                error: outcome.2,
            });
        }
    }
    pass.times.cpu = cpu::now() - started_cpu - calib_cpu;
    pass.times.wall = started.elapsed().as_secs_f64();
    // The little CPU time outside every segment (before a sweep's first
    // point, which opens its store) is scaled by the segments' mean factor.
    let mean_scale = if segments_raw > 0.0 {
        segments_ref / segments_raw
    } else {
        1.0
    };
    pass.times.cpu_ref = segments_ref + (pass.times.cpu - segments_raw) * mean_scale;
    if let (Some(t), Some(id)) = (tracer, pass_id) {
        t.record_as(id, "pass", None, started, Instant::now());
    }
    Ok(pass)
}

fn add_totals(a: SplitTotals, b: SplitTotals) -> SplitTotals {
    SplitTotals {
        trees: a.trees + b.trees,
        steps: a.steps + b.steps,
        branches: a.branches + b.branches,
        leaves: a.leaves + b.leaves,
        killed: a.killed + b.killed,
    }
}

/// Work units one point completes: its replications (RESTART trees on the
/// tail workload), or one exact solve.
fn units(inputs: &Inputs) -> u64 {
    match inputs.workload.backend() {
        BackendKind::Analytic => 1,
        _ => u64::from(inputs.cfg.replications),
    }
}

/// One sweep on the user path, [`run_sweep_stored`], as `itua run` makes
/// it.
fn run_sweep(
    inputs: &Inputs,
    id: &str,
    points: &[SweepPoint],
    dir: &Path,
    calibrator: Option<&Mutex<Calibrator>>,
) -> io::Result<SweepRun> {
    let watch = Watch::new(None, calibrator);
    let result = run_sweep_stored(
        id,
        points,
        &inputs.cfg,
        &[],
        &RunOpts {
            backend: inputs.workload.backend(),
            backend_opts: inputs.backend_opts,
            runner: inputs.runner,
            progress: &watch,
            results_dir: Some(dir.to_owned()),
            check: ModelCheck::Quick,
            split: inputs.split.clone(),
            fingerprint_extra: Vec::new(),
        },
    );
    Ok(SweepRun {
        state: watch.state.into_inner().expect("progress observer lock"),
        error: result.err().map(|e| e.to_string()),
        rare: SplitTotals::default(),
    })
}

/// One traced sweep: a [`SweepRunner`] with a store of its own, named
/// after the sweep, and each point run by [`run_point_traced`].
fn run_sweep_traced(
    inputs: &Inputs,
    id: &str,
    points: &[SweepPoint],
    dir: &Path,
    tracer: &Tracer,
    pass_span: Option<u64>,
) -> io::Result<SweepRun> {
    let sweep_span = tracer.reserve();
    let started = Instant::now();
    let store = ResultStore::open(dir, id, &fingerprint_iter([id]))?;
    let watch = Watch::new(Some((tracer, sweep_span, store.path().to_owned())), None);
    let specs: Vec<PointSpec> = points
        .iter()
        .enumerate()
        .map(|(i, p)| PointSpec::new(i, &p.series, p.x))
        .collect();
    let mut rare = SplitTotals::default();
    let result = SweepRunner::with_store(&watch, store).run(&specs, |_, i| {
        let origin = stream_seed(inputs.cfg.base_seed, i as u64);
        let (estimates, totals) =
            run_point_traced(inputs, &points[i], origin, tracer, sweep_span, &watch)
                .map_err(io::Error::from)?;
        rare = add_totals(rare, totals);
        watch.lock().simulated = Some(Instant::now());
        Ok(estimates)
    });
    tracer.record_as(sweep_span, "sweep", pass_span, started, Instant::now());
    Ok(SweepRun {
        state: watch.state.into_inner().expect("progress observer lock"),
        error: result.err().map(|e| e.to_string()),
        rare,
    })
}

/// The traced point: the calls `run_point_backend_split` makes, one at a
/// time. The self-check runs on its own, as `ModelCheck::Quick` would run
/// it first, so the loop that follows is timed without it.
fn run_point_traced(
    inputs: &Inputs,
    point: &SweepPoint,
    origin: u64,
    tracer: &Tracer,
    sweep_span: u64,
    watch: &Watch<'_>,
) -> Result<(Vec<StoredEstimate>, SplitTotals), BackendError> {
    let cfg = &inputs.cfg;
    let point_span = tracer.reserve();
    let loop_span = tracer.reserve();
    let t0 = Instant::now();
    let backend = tracer.time("backend.build", Some(point_span), || {
        ItuaBackend::for_params_with(
            inputs.workload.backend(),
            &point.params,
            &inputs.backend_opts,
        )
    })?;
    let timed = Timed {
        inner: &backend,
        tracer,
        parent: point_span,
        batch_parent: loop_span,
        batch_span: match backend.kind() {
            BackendKind::San => "core.san_exec.run_batch",
            _ => "core.des.run_batch",
        },
    };
    timed.self_check()?;
    let loop_start = Instant::now();
    let (measures, totals) = match &inputs.split {
        Some(spec) => {
            let run = run_measures_split(
                &backend,
                cfg.replications,
                cfg.confidence,
                origin,
                point.horizon,
                &point.sample_times,
                spec,
                &inputs.runner,
                watch,
                ModelCheck::Off,
            )?;
            (run.measures, run.totals)
        }
        None => (
            run_measures_checked(
                &timed,
                cfg.replications,
                cfg.confidence,
                origin,
                point.horizon,
                &point.sample_times,
                &inputs.runner,
                watch,
                ModelCheck::Off,
            )?,
            SplitTotals::default(),
        ),
    };
    let end = Instant::now();
    if backend.kind() != BackendKind::Analytic {
        let replicated = watch.lock().replicated.map_or(end, |(wall, _)| wall);
        let name = if inputs.split.is_some() {
            "rare.trees"
        } else {
            "runner.replicate"
        };
        tracer.record_as(loop_span, name, Some(point_span), loop_start, replicated);
        tracer.record("stats.record", Some(point_span), replicated, end);
    }
    tracer.record_as(point_span, "point", Some(sweep_span), t0, end);
    let estimates = measures
        .estimates()
        .iter()
        .map(StoredEstimate::from)
        .collect();
    Ok((estimates, totals))
}

/// Builds `point`'s backend and runs its self-check, as a pass does,
/// `repeats` times over, and returns the CPU seconds spent.
///
/// # Errors
///
/// The first construction or self-check failure.
pub fn setup_point(
    inputs: &Inputs,
    point: &SweepPoint,
    repeats: usize,
) -> Result<f64, BackendError> {
    let start = cpu::now();
    for _ in 0..repeats {
        let backend = ItuaBackend::for_params_with(
            inputs.workload.backend(),
            &point.params,
            &inputs.backend_opts,
        )?;
        backend.self_check()?;
        std::hint::black_box(&backend);
    }
    Ok(cpu::now() - start)
}

/// Unreliability estimate of a point, the measure the tail workload
/// reports its precision on.
pub fn unreliability(point: &PointOutcome) -> Option<&StoredEstimate> {
    point.estimate(names::UNRELIABILITY)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn a_stale_store_is_reported_as_resumed() {
        let mut inputs = Workload::DesFigures.inputs(1, 1);
        inputs.cfg.replications = 8;
        inputs.sweeps.truncate(1);
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("stale-store-test");
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = run(&inputs, &dir, None).expect("first pass");
        assert!(fresh.points.iter().all(|p| !p.resumed && p.error.is_none()));
        let stale = run_in(&inputs, &dir, None).expect("second pass");
        assert_eq!(stale.points.len(), fresh.points.len());
        assert!(stale.points.iter().all(|p| p.resumed));
        assert_eq!(stale.units, 0);
        assert!(
            run(&inputs, &dir, None).is_err(),
            "a used directory is refused"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
