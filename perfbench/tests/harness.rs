//! The benchmark's own tests, on shrunken inputs (run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`):
//!
//! * an untraced pass writes the same store files as the user path;
//! * a traced pass reproduces the untraced estimates bit for bit;
//! * the deterministic counts repeat across runs and thread counts.

use itua_core::measures::names;
use itua_perfbench::bench::same_bits;
use itua_perfbench::pass::{self, Pass};
use itua_perfbench::probe;
use itua_perfbench::trace::{self, Tracer};
use itua_perfbench::workload::{Inputs, Workload};
use itua_runner::backend::ModelCheck;
use itua_runner::progress::NullProgress;
use itua_scenario::registry;
use itua_studies::sweep::{run_sweep_stored, RunOpts};
use std::path::{Path, PathBuf};

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `workload`'s inputs with fewer replications; the analytic workload
/// keeps only the cheap Figure 5 domain-exclusion points.
fn small(workload: Workload, threads: usize) -> Inputs {
    let mut inputs = workload.inputs(20030622, threads);
    inputs.cfg.replications = match workload {
        Workload::TailSplit => 512,
        _ => 24,
    };
    if workload == Workload::ExactFigures {
        inputs.sweeps.retain(|s| s.id == "figure5");
        for s in &mut inputs.sweeps {
            s.points
                .retain(|p| p.series.starts_with("Domain exclusion"));
        }
    }
    inputs
}

/// Files of a directory, sorted by name, with their bytes.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("store directory")
        .map(|e| {
            let e = e.expect("directory entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("store file"),
            )
        })
        .collect();
    out.sort();
    out
}

fn user_opts(inputs: &Inputs, dir: &Path) -> RunOpts<'static> {
    RunOpts {
        backend: inputs.workload.backend(),
        backend_opts: inputs.backend_opts,
        runner: inputs.runner,
        progress: &NullProgress,
        results_dir: Some(dir.to_owned()),
        check: ModelCheck::Quick,
        split: inputs.split.clone(),
        fingerprint_extra: Vec::new(),
    }
}

#[test]
fn untraced_pass_writes_the_same_stores_as_the_user_path() {
    for workload in Workload::ALL {
        let inputs = small(workload, 2);
        let ours = scratch(&format!("ours-{}", workload.name()));
        let theirs = scratch(&format!("theirs-{}", workload.name()));
        let p = pass::run(&inputs, &ours, None).expect("pass");
        assert!(
            p.points.iter().all(|p| p.error.is_none() && !p.resumed),
            "{}",
            workload.name()
        );
        let opts = user_opts(&inputs, &theirs);
        match workload {
            Workload::DesFigures | Workload::SanFigures => {
                registry::find("all-figures")
                    .expect("built-in scenario")
                    .run(&inputs.cfg, &opts)
                    .expect("itua run all-figures");
            }
            Workload::ExactFigures | Workload::TailSplit => {
                for sweep in &inputs.sweeps {
                    run_sweep_stored(
                        &sweep.id,
                        &sweep.points,
                        &inputs.cfg,
                        &[names::UNRELIABILITY],
                        &opts,
                    )
                    .expect("stored sweep");
                }
            }
        }
        assert_eq!(files(&ours), files(&theirs), "{}", workload.name());
        let _ = std::fs::remove_dir_all(&ours);
        let _ = std::fs::remove_dir_all(&theirs);
    }
}

#[test]
fn traced_pass_reproduces_untraced_estimates_bit_for_bit() {
    for workload in Workload::ALL {
        let inputs = small(workload, 2);
        let dir = scratch(&format!("trace-{}", workload.name()));
        let plain = pass::run(&inputs, &dir.join("plain"), None).expect("pass");
        let tracer = Tracer::new();
        let traced = pass::run(&inputs, &dir.join("traced"), Some(&tracer)).expect("pass");
        assert_eq!(plain.points.len(), inputs.num_points());
        assert_eq!(plain.points.len(), traced.points.len());
        for (a, b) in plain.points.iter().zip(&traced.points) {
            assert!(!a.estimates.is_empty());
            assert!(
                same_bits(&a.estimates, &b.estimates),
                "{}: {} point {} differs",
                workload.name(),
                a.sweep,
                a.index
            );
        }
        assert_eq!(plain.units, traced.units);
        if workload == Workload::TailSplit {
            assert_eq!(traced.rare.trees, plain.units);
        }
        let spans = tracer.spans();
        assert_eq!(trace::count(&spans, "pass"), 1);
        assert_eq!(trace::count(&spans, "point"), inputs.num_points());
        assert_eq!(
            trace::count(&spans, "runner.store.write"),
            inputs.num_points()
        );
        let layer = match workload {
            Workload::DesFigures => "core.des.run_batch",
            Workload::SanFigures => "core.san_exec.run_batch",
            Workload::ExactFigures => "markov.solve",
            Workload::TailSplit => "rare.trees",
        };
        assert!(trace::total(&spans, layer) > 0.0, "{layer}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The counts a traced run reports as exact.
fn counts(inputs: &Inputs, pass: &Pass) -> Vec<u64> {
    let firings = if inputs.workload == Workload::SanFigures {
        probe::san_firings(inputs).expect("SAN probe")
    } else {
        probe::SanFirings::default()
    };
    let chains = if inputs.workload == Workload::ExactFigures {
        probe::chains(inputs).expect("chain probe")
    } else {
        probe::ChainCounts::default()
    };
    vec![
        firings.reps,
        firings.timed,
        firings.instantaneous,
        chains.orbits,
        u64::try_from(chains.full_states).expect("state count fits"),
        chains.transitions,
        chains.nnz,
        chains.csr_bytes,
        chains.qt_max.to_bits(),
        chains.qt_sum.to_bits(),
        chains.matvecs,
        pass.units,
        pass.store_bytes,
        pass.rare.trees,
        pass.rare.steps,
        pass.rare.branches,
        pass.rare.leaves,
        pass.rare.killed,
    ]
}

#[test]
fn deterministic_counts_repeat_across_runs_and_thread_counts() {
    for workload in Workload::ALL {
        let dir = scratch(&format!("counts-{}", workload.name()));
        let mut seen = Vec::new();
        for (k, threads) in [1, 2, 2].into_iter().enumerate() {
            let inputs = small(workload, threads);
            // The traced pass is the one that counts store bytes and
            // RESTART work.
            let tracer = Tracer::new();
            let p = pass::run(&inputs, &dir.join(k.to_string()), Some(&tracer)).expect("pass");
            seen.push(counts(&inputs, &p));
        }
        assert!(
            seen.iter().all(|c| c == &seen[0]),
            "{}: {seen:?}",
            workload.name()
        );
        let c = &seen[0];
        match workload {
            Workload::SanFigures => assert!(c[1] > 0 && c[2] > 0),
            Workload::ExactFigures => assert!(c[3] > 0 && c[6] > 0 && c[10] > 0),
            Workload::TailSplit => assert!(c[13] == 512 && c[15] > c[13]),
            Workload::DesFigures => assert!(c[11] > 0 && c[12] > 0),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
