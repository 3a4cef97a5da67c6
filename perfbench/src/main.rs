//! `itua-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`:
//! runs one benchmark workload on [`THREADS`] worker threads and prints
//! every metric by name and unit, then one JSON result line.
//!
//! `itua-perfbench --write-reference NAME` prints one pass of the workload
//! at the default seed in the committed reference format instead.

use itua_perfbench::bench::{self, Options};
use itua_perfbench::check;
use itua_perfbench::pass;
use itua_perfbench::report::result_json;
use itua_perfbench::workload::{Workload, THREADS};
use itua_studies::sweep::SweepConfig;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: itua-perfbench --workload des-figures|san-figures|exact-figures|tail-split \
                     [--seed N] [--seconds S] [--trace 0|1] | --write-reference NAME";

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::DesFigures,
        seed: SweepConfig::default().base_seed,
        seconds: 10.0,
        trace: false,
        write_reference: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" | "--write-reference" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
                args.write_reference = flag == "--write-reference";
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let threads = THREADS.min(nproc);
    let name = args.workload.name();
    let work_dir = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));

    if args.write_reference {
        let inputs = args.workload.inputs(args.seed, threads);
        return match pass::run(&inputs, &work_dir, None) {
            Ok(p) => {
                let _ = std::fs::remove_dir_all(&work_dir);
                print!("{}", check::to_reference(&p.points));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let host = std::env::var("HOSTNAME").unwrap_or_else(|_| "unknown".to_owned());
    println!(
        "# workload={name} seed={} seconds={} trace={} host={host} nproc={nproc} threads={threads}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let opts = Options {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        threads,
        work_dir: work_dir.clone(),
    };
    let result = bench::run(&opts);
    let _ = std::fs::remove_dir_all(&work_dir);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = PathBuf::from(".bench_work").join(format!("spans-{name}.tsv"));
        match bench::write_spans(&path, &outcome.traced) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("warning: spans not written: {e}"),
        }
    }
    println!(
        "# passes: {} untraced, {} traced; points attempted {}, failed {}",
        outcome.untraced.len(),
        outcome.traced.len(),
        outcome.attempted,
        outcome.failed
    );
    let walls = |passes: &mut dyn Iterator<Item = f64>| {
        passes
            .map(|w| format!("{w:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "# pass wall seconds: untraced [{}] traced [{}]",
        walls(&mut outcome.untraced.iter().map(|p| p.times.wall)),
        walls(&mut outcome.traced.iter().map(|(p, _)| p.times.wall))
    );
    println!(
        "# pass CPU seconds: untraced [{}] traced [{}]; at the reference speed [{}]",
        walls(&mut outcome.untraced.iter().map(|p| p.times.cpu)),
        walls(&mut outcome.traced.iter().map(|(p, _)| p.times.cpu)),
        walls(&mut outcome.untraced.iter().map(|p| p.times.cpu_ref))
    );
    for m in &outcome.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    // A non-finite value is a fault of the run, not a measurement.
    let broken: Vec<&str> = outcome
        .metrics
        .iter()
        .filter(|m| !m.value.is_finite())
        .map(|m| m.name)
        .collect();
    if !broken.is_empty() {
        eprintln!("error: no finite value for {}", broken.join(", "));
        return ExitCode::FAILURE;
    }
    println!(
        "{}",
        result_json(
            outcome.failed == 0,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    if outcome.failed > 0 {
        eprintln!(
            "error: {} of {} points failed",
            outcome.failed, outcome.attempted
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
