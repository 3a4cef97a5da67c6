//! The scenario layer's contract with the study sweeps it wraps:
//! identical stores, stable `.scn` round-trips.

use itua_bench::driver;
use itua_runner::backend::BackendKind;
use itua_runner::progress::NullProgress;
use itua_scenario::file::FileScenario;
use itua_scenario::registry;
use itua_studies::study;
use itua_studies::sweep::{run_sweep_stored, RunOpts, SweepConfig};
use std::fs;
use std::path::{Path, PathBuf};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itua-scn-eq-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_cfg() -> SweepConfig {
    SweepConfig {
        replications: 2,
        ..SweepConfig::default()
    }
}

fn opts_into(dir: &Path, threads: usize) -> RunOpts<'static> {
    let mut opts = RunOpts::default();
    opts.runner = opts.runner.with_threads(threads);
    opts.progress = &NullProgress;
    opts.results_dir = Some(dir.to_path_buf());
    opts
}

/// Every built-in study, run through the scenario registry, writes the
/// store byte for byte that a direct `run_sweep_stored` call over the
/// study descriptor writes — the scenario layer adds no fingerprint part
/// and no reordering — and the store does not depend on the thread count.
#[test]
fn scenario_stores_are_byte_identical_to_the_study_sweep_stores() {
    let cfg = small_cfg();
    for study in study::all() {
        let direct_dir = temp_dir(&format!("{}-direct", study.id));
        let measures = (study.measures)();
        let refs: Vec<&str> = measures.iter().map(String::as_str).collect();
        let points = study.points_for(BackendKind::Des);
        run_sweep_stored(study.id, &points, &cfg, &refs, &opts_into(&direct_dir, 1)).unwrap();

        let scenario = registry::find(study.id).unwrap();
        let scn_dir = temp_dir(&format!("{}-scenario", study.id));
        scenario.run(&cfg, &opts_into(&scn_dir, 1)).unwrap();
        let scn_dir_t2 = temp_dir(&format!("{}-scenario-t2", study.id));
        scenario.run(&cfg, &opts_into(&scn_dir_t2, 2)).unwrap();

        let file = format!("{}.json", study.id);
        let direct_bytes = fs::read(direct_dir.join(&file)).unwrap();
        assert!(!direct_bytes.is_empty(), "{}", study.id);
        assert_eq!(
            direct_bytes,
            fs::read(scn_dir.join(&file)).unwrap(),
            "{}",
            study.id
        );
        assert_eq!(
            direct_bytes,
            fs::read(scn_dir_t2.join(&file)).unwrap(),
            "{}",
            study.id
        );
        for dir in [direct_dir, scn_dir, scn_dir_t2] {
            fs::remove_dir_all(dir).unwrap();
        }
    }
}

fn example_files() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios");
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("examples/scenarios exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "scn"))
        .collect();
    files.sort();
    files
}

#[test]
fn every_shipped_scenario_file_round_trips_parse_hash_parse() {
    let files = example_files();
    assert!(
        files.len() >= 3,
        "expected the shipped examples, got {files:?}"
    );
    for path in files {
        let text = fs::read_to_string(&path).unwrap();
        let parsed = FileScenario::parse(&text, "stem").unwrap_or_else(|e| {
            panic!("{}: {e}", path.display());
        });
        let reparsed = FileScenario::parse(&parsed.to_string(), "other-stem").unwrap();
        assert_eq!(parsed, reparsed, "{}", path.display());
        assert_eq!(
            parsed.content_hash(),
            reparsed.content_hash(),
            "{}",
            path.display()
        );
    }
}

#[test]
fn shipped_scenario_files_resolve_and_compose() {
    for path in example_files() {
        let scenario = driver::resolve(path.to_str().unwrap()).unwrap_or_else(|e| {
            panic!("{e}");
        });
        let points = scenario.points(BackendKind::Des);
        assert!(!points.is_empty(), "{}", path.display());
        for p in &points {
            p.params.validate().unwrap();
        }
        // File scenarios must contribute their identity to the store
        // fingerprint, unlike built-ins.
        let parts = scenario.fingerprint_parts();
        assert_eq!(parts.len(), 1, "{}", path.display());
        assert!(parts[0].starts_with("scn="), "{}", path.display());
    }
}

#[test]
fn tail_split_example_pins_its_execution_settings() {
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/scenarios/tail-split.scn");
    let scenario = driver::resolve(path.to_str().unwrap()).unwrap();
    let mut cfg = SweepConfig::default();
    let mut split = None;
    scenario.configure(&mut cfg, &mut split);
    assert_eq!(cfg.replications, 400);
    assert_eq!(split.unwrap().to_string(), "1x8,2x4");
}
