//! Per-layer probes that run outside the timed passes of a traced run:
//! they call one layer's public functions directly on the workload's
//! inputs and report the layer's counts, which repeat exactly for a given
//! workload and thread count.

use crate::cpu;
use crate::workload::Inputs;
use itua_core::analysis::symmetry_spec;
use itua_core::san_model;
use itua_markov::ctmc::Ctmc;
use itua_markov::poisson::PoissonWeights;
use itua_rare::SplitSpec;
use itua_runner::backend::{BackendError, ItuaBackend, ModelCheck};
use itua_runner::progress::NullProgress;
use itua_runner::split::run_measures_split;
use itua_san::simulator::SanSimulator;
use itua_san::statespace::StateSpace;
use itua_sim::rng::stream_seed;
use std::time::Instant;

/// Replications per SAN point whose firings the SAN probe counts: the
/// first ones of each point, on the seeds the pass gives them.
pub const SAN_PROBE_REPS: u32 = 64;

/// Truncation error of the uniformization passes (the analytic backend's).
pub const UNIFORMIZATION_EPSILON: f64 = 1e-10;

/// Firings of the SAN simulator, from `SanSimulator::run_with_scratch`'s
/// run statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SanFirings {
    /// Replications simulated.
    pub reps: u64,
    /// Timed activity firings.
    pub timed: u64,
    /// Instantaneous activity firings.
    pub instantaneous: u64,
    /// Seconds spent simulating.
    pub seconds: f64,
}

/// Simulates the first [`SAN_PROBE_REPS`] replications of every point on
/// the bare SAN simulator, without measure observers.
///
/// # Errors
///
/// Model construction or simulation failures.
pub fn san_firings(inputs: &Inputs) -> Result<SanFirings, BackendError> {
    let mut out = SanFirings::default();
    for sweep in &inputs.sweeps {
        for (i, point) in sweep.points.iter().enumerate() {
            let model = san_model::build(&point.params)
                .map_err(|e| BackendError::new(format!("SAN build failed: {e}")))?;
            let sim = SanSimulator::new(model.san.clone());
            let mut scratch = sim.scratch();
            let origin = stream_seed(inputs.cfg.base_seed, i as u64);
            let start = Instant::now();
            for rep in 0..SAN_PROBE_REPS.min(inputs.cfg.replications) {
                let stats = sim.run_with_scratch(
                    stream_seed(origin, u64::from(rep)),
                    point.horizon,
                    &mut [],
                    &mut scratch,
                )?;
                out.reps += 1;
                out.timed += stats.timed_firings;
                out.instantaneous += stats.instantaneous_firings;
            }
            out.seconds += start.elapsed().as_secs_f64();
        }
    }
    Ok(out)
}

/// State-space and CTMC figures of the analytic backend, summed over the
/// workload's points.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ChainCounts {
    /// Seconds generating the (lumped) tangible state spaces.
    pub gen_s: f64,
    /// Generated states (orbits when lumped).
    pub orbits: u64,
    /// Tangible states the generated ones stand for.
    pub full_states: u128,
    /// Generated transitions.
    pub transitions: u64,
    /// Seconds building the CSR chains: the base chain and one absorbing
    /// chain per application.
    pub csr_build_s: f64,
    /// Nonzeros of the base chains.
    pub nnz: u64,
    /// Bytes of every chain's two CSR matrices and exit-rate vector,
    /// computed from their sizes.
    pub csr_bytes: u64,
    /// Largest uniformization rate × horizon.
    pub qt_max: f64,
    /// Sum of uniformization rate × horizon.
    pub qt_sum: f64,
    /// Matrix-vector products of the solves, computed as
    /// (2 + applications) × the Poisson right truncation point.
    pub matvecs: u64,
    /// Sum over points of matvecs × base-chain nonzeros.
    pub nnz_matvecs: f64,
}

/// Bytes of one chain's CSR structures: the rate matrix and its transpose
/// (row pointers, column indices and values) plus the exit rates.
fn chain_bytes(chain: &Ctmc) -> u64 {
    let n = chain.num_states() as u64;
    let nnz = chain.rates().nnz() as u64;
    let word = std::mem::size_of::<usize>() as u64;
    let csr = (n + 1) * word + nnz * (word + 8);
    2 * csr + n * 8
}

/// Generates and builds every point's chain the way the analytic backend
/// does, timing generation and CSR construction apart.
///
/// # Errors
///
/// Model construction, generation or CTMC failures.
pub fn chains(inputs: &Inputs) -> Result<ChainCounts, BackendError> {
    let opts = inputs.backend_opts.analytic_options();
    let mut out = ChainCounts::default();
    for sweep in &inputs.sweeps {
        for point in &sweep.points {
            let model = san_model::build(&point.params)
                .map_err(|e| BackendError::new(format!("model build failed: {e}")))?;
            let start = Instant::now();
            let ss = if opts.lump {
                StateSpace::generate_lumped(&model.san, &symmetry_spec(&model), opts.max_states)
            } else {
                StateSpace::generate(&model.san, opts.max_states)
            }?;
            out.gen_s += start.elapsed().as_secs_f64();
            out.orbits += ss.num_states() as u64;
            out.full_states += ss.full_state_total().unwrap_or(ss.num_states() as u128);
            out.transitions += ss.transitions().len() as u64;

            let ctmc_err = |e| BackendError::new(format!("CTMC build failed: {e}"));
            let start = Instant::now();
            let base = ss.to_ctmc().map_err(ctmc_err)?;
            let byz = (0..point.params.num_apps)
                .map(|a| ss.absorbing_ctmc(|m| model.places.byzantine(m, a)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(ctmc_err)?;
            out.csr_build_s += start.elapsed().as_secs_f64();

            let nnz = base.rates().nnz() as u64;
            out.nnz += nnz;
            out.csr_bytes +=
                chain_bytes(&base) + byz.iter().map(|(c, _)| chain_bytes(c)).sum::<u64>();
            let qt = base.uniformization_rate() * point.horizon;
            out.qt_max = out.qt_max.max(qt);
            out.qt_sum += qt;
            let right = PoissonWeights::new(qt, UNIFORMIZATION_EPSILON).right as u64;
            let matvecs = (2 + point.params.num_apps as u64) * right;
            out.matvecs += matvecs;
            out.nnz_matvecs += (matvecs * nnz) as f64;
        }
    }
    Ok(out)
}

/// The plain arm of the tail comparison: the same trees without
/// splitting. Returns the unreliability half-width and the loop's CPU
/// seconds, on the clock the split arm's passes are timed with.
///
/// # Errors
///
/// Backend construction or simulation failures.
pub fn plain_arm(inputs: &Inputs) -> Result<(f64, f64), BackendError> {
    let point = &inputs.sweeps[0].points[0];
    let backend = ItuaBackend::for_params_with(
        inputs.workload.backend(),
        &point.params,
        &inputs.backend_opts,
    )?;
    let start = cpu::now();
    let run = run_measures_split(
        &backend,
        inputs.cfg.replications,
        inputs.cfg.confidence,
        stream_seed(inputs.cfg.base_seed, 0),
        point.horizon,
        &point.sample_times,
        &SplitSpec::none(),
        &inputs.runner,
        &NullProgress,
        ModelCheck::Off,
    )?;
    let seconds = cpu::now() - start;
    let hw = run
        .measures
        .estimates()
        .into_iter()
        .find(|e| e.name == itua_core::measures::names::UNRELIABILITY)
        .map_or(f64::NAN, |e| e.ci.half_width);
    Ok((hw, seconds))
}

/// The exact unreliability of the tail point, from the analytic backend.
///
/// # Errors
///
/// Model construction or solver failures.
pub fn exact_tail_unreliability(inputs: &Inputs) -> Result<f64, BackendError> {
    use itua_runner::backend::{Backend, BackendKind};
    let point = &inputs.sweeps[0].points[0];
    let backend =
        ItuaBackend::for_params_with(BackendKind::Analytic, &point.params, &inputs.backend_opts)?;
    let exact = backend
        .exact_measures(point.horizon, &point.sample_times, inputs.cfg.confidence)
        .expect("the analytic backend is exact")?;
    exact
        .mean(itua_core::measures::names::UNRELIABILITY)
        .ok_or_else(|| BackendError::new("no exact unreliability"))
}
