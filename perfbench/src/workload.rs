//! The four workloads and the inputs each one runs.

use itua_core::params::Params;
use itua_rare::SplitSpec;
use itua_runner::backend::{BackendKind, BackendOptions};
use itua_runner::engine::RunnerConfig;
use itua_studies::study;
use itua_studies::sweep::{SweepConfig, SweepPoint};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `all-figures` on the DES backend at default replications.
    DesFigures,
    /// `all-figures` on the SAN backend at [`SAN_REPLICATIONS`].
    SanFigures,
    /// `all-figures` on the analytic backend (lumped chains).
    ExactFigures,
    /// The RESTART tail point on the DES backend.
    TailSplit,
}

/// RESTART levels of the tail workload: split 10-for-1 at the first and
/// at the second corrupt domain.
pub const TAIL_SPLIT_LEVELS: &str = "1x10,2x10";

/// Mission time of the tail point (hours).
pub const TAIL_HORIZON: f64 = 5.0;

/// Trees per tail pass: enough for the unreliability interval to be a
/// tenth of the exact value of 2.0e-4, while every tree's leaves still fit
/// in a few hundred MiB until the reduction.
pub const TAIL_TREES: u32 = 1 << 17;

/// Worker threads of every run, for the runner and the analytic kernel
/// alike. On a host whose cores are shared with other machines, runs on
/// both of a two-core machine's cores varied from run to run by up to 2.5×
/// (the analytic kernel joins its threads after every uniformization
/// step, so one stalled core stalls the solve); one thread, which the
/// scheduler can move to whichever core is free, varied by a few percent.
pub const THREADS: usize = 1;

/// Replications per SAN point. A SAN replication costs ten times a DES
/// one: at 500 a pass took 11.5 s on one core of a 2-vCPU virtual
/// machine, so a run measured one or two passes. At 200 a run of 20 s
/// fits about four, and reports their median.
pub const SAN_REPLICATIONS: u32 = 200;

/// Whether an analytic point is the one the exact workload leaves out:
/// Figure 3's two-application micro point with one host per domain
/// (21 276 orbits at q·T ≈ 5 100). Its solve alone is 70% of the
/// analytic `all-figures` time (about 15 s on two idle cores, over a
/// minute on a loaded host), so with it one traced run could outlast its
/// time limit. The one-application point of the same shape keeps that
/// solve-bound regime in the workload.
pub fn is_long_solve(p: &SweepPoint) -> bool {
    p.params.hosts_per_domain == 1 && p.params.num_domains == 2 && p.params.num_apps == 2
}

/// One stored sweep of a workload: the store id and its points.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Sweep id; the store file name is derived from it.
    pub id: String,
    /// Points in sweep order (the point index seeds the point's stream).
    pub points: Vec<SweepPoint>,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::DesFigures,
        Workload::SanFigures,
        Workload::ExactFigures,
        Workload::TailSplit,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DesFigures => "des-figures",
            Workload::SanFigures => "san-figures",
            Workload::ExactFigures => "exact-figures",
            Workload::TailSplit => "tail-split",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The backend the workload runs on.
    pub fn backend(self) -> BackendKind {
        match self {
            Workload::DesFigures | Workload::TailSplit => BackendKind::Des,
            Workload::SanFigures => BackendKind::San,
            Workload::ExactFigures => BackendKind::Analytic,
        }
    }

    /// The RESTART specification, for the tail workload only.
    pub fn split(self) -> Option<SplitSpec> {
        (self == Workload::TailSplit).then(|| {
            TAIL_SPLIT_LEVELS
                .parse()
                .expect("the tail split levels are well formed")
        })
    }

    /// The stored sweeps: Figures 3, 4 and 5 as `itua run all-figures`
    /// runs them, or the single tail point. The analytic workload leaves
    /// out [`is_long_solve`] points.
    pub fn sweeps(self) -> Vec<Sweep> {
        if self == Workload::TailSplit {
            return vec![Sweep {
                id: "tail-split".to_owned(),
                points: vec![SweepPoint {
                    x: 0.0,
                    series: "tail".to_owned(),
                    params: tail_params(),
                    horizon: TAIL_HORIZON,
                    sample_times: vec![TAIL_HORIZON],
                }],
            }];
        }
        ["figure3", "figure4", "figure5"]
            .into_iter()
            .map(|id| Sweep {
                id: id.to_owned(),
                points: study::by_id(id)
                    .expect("shipped figure study")
                    .points_for(self.backend())
                    .into_iter()
                    .filter(|p| self != Workload::ExactFigures || !is_long_solve(p))
                    .collect(),
            })
            .collect()
    }

    /// Replications per point (trees on the tail workload).
    pub fn replications(self) -> u32 {
        match self {
            Workload::DesFigures | Workload::ExactFigures => SweepConfig::default().replications,
            Workload::SanFigures => SAN_REPLICATIONS,
            Workload::TailSplit => TAIL_TREES,
        }
    }

    /// Everything a pass needs, for `seed` on `threads` worker threads.
    pub fn inputs(self, seed: u64, threads: usize) -> Inputs {
        // The CLI drives the analytic matvec kernel with the runner's
        // thread count too.
        let backend_opts = BackendOptions {
            analytic_threads: threads,
            ..BackendOptions::default()
        };
        Inputs {
            workload: self,
            sweeps: self.sweeps(),
            cfg: SweepConfig {
                replications: self.replications(),
                base_seed: seed,
                ..SweepConfig::default()
            },
            split: self.split(),
            runner: RunnerConfig::default().with_threads(threads),
            backend_opts,
        }
    }
}

/// The inputs of one pass: what the CLI would assemble from its flags.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which workload these are.
    pub workload: Workload,
    /// The stored sweeps, run in order.
    pub sweeps: Vec<Sweep>,
    /// Replications, seed and confidence level.
    pub cfg: SweepConfig,
    /// RESTART levels, when the workload splits.
    pub split: Option<SplitSpec>,
    /// Worker threads and batching.
    pub runner: RunnerConfig,
    /// Backend construction options.
    pub backend_opts: BackendOptions,
}

impl Inputs {
    /// Points across every sweep.
    pub fn num_points(&self) -> usize {
        self.sweeps.iter().map(|s| s.points.len()).sum()
    }
}

/// The figure-4 tail point of the rare-event benchmark: four single-host
/// domains, one application with four replicas, no corruption spread and
/// no IDS exclusion, so a Byzantine failure needs two host corruptions in
/// a row. Its exact unreliability at 5 h is 1.998e-4.
pub fn tail_params() -> Params {
    let mut p = Params::default().with_domains(4, 1).with_applications(1, 4);
    p.spread_rate_domain = 0.0;
    p.spread_rate_system = 0.0;
    p.attack_weight_replica = 0.0;
    p.attack_weight_manager = 0.0;
    p.base_attack_rate = 0.4;
    p.host_corruption_multiplier = 12.0;
    p.misbehave_rate = 0.2;
    p.false_alarm_rate = 0.0;
    p.attack_mix.detect_script = 0.0;
    p.attack_mix.detect_exploratory = 0.0;
    p.attack_mix.detect_innovative = 0.0;
    p.detect_replica = 0.0;
    p.detect_manager = 0.0;
    p
}
