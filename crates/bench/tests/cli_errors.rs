//! The `itua` binary reports solver failures as structured errors: a
//! non-zero exit with an `error:` line on stderr, never a panic.

use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("itua-cli-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A horizon so long that `Λ·T` overflows cannot be uniformized: the
/// analytic backend must say so instead of panicking in the Poisson
/// weights.
#[test]
fn analytic_run_with_an_overflowing_horizon_is_an_error_not_a_panic() {
    let dir = temp_dir("horizon");
    let scn = dir.join("huge-horizon.scn");
    std::fs::write(
        &scn,
        "domains = 2\nhosts-per-domain = 1\napps = 1\nreps-per-app = 2\n\
         sweep = false-alarm-rate\nvalues = 1\nhorizon = 1e308\n\
         measures = unavailability, unreliability\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_itua"))
        .arg("run")
        .arg(&scn)
        .args(["--backend", "analytic", "--no-resume"])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("the itua binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{stderr}");
    assert_ne!(out.status.code(), Some(101), "panicked: {stderr}");
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(stderr.contains("more than 2^53"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("stack backtrace"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}
