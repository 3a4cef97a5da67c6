//! The clock the end-to-end timings are read from: the calling thread's
//! time on a CPU, as the kernel's scheduler counts it
//! (`/proc/thread-self/schedstat`, nanoseconds).
//!
//! On a virtual machine that shares its host's cores, wall time also
//! counts the time the host gives the virtual CPU to someone else (steal)
//! and the turns of other processes on the same virtual CPU. Both come
//! and go over tens of seconds, so wall times of the same code differ
//! from run to run by far more than a code change should be judged by.
//! On-CPU time leaves both out (a kernel with paravirtual steal
//! accounting does not charge stolen time to the running task); on a
//! core the process has to itself it reads the same as wall time.
//!
//! Every pass runs on the calling thread: the benchmark uses one worker
//! thread, which the runner and the analytic kernel run inline.

use std::io;

const SCHEDSTAT: &str = "/proc/thread-self/schedstat";

/// Seconds the calling thread has spent on a CPU, or NaN where the
/// kernel does not report it (so that a metric made from it is refused
/// as non-finite rather than reported wrong). [`check`] tells apart.
pub fn now() -> f64 {
    // The kernel brings the running thread's total up to date only at a
    // scheduler event; a yield is one, so the reading is exact instead
    // of up to a scheduler tick (4 ms at 250 Hz) behind.
    std::thread::yield_now();
    std::fs::read_to_string(SCHEDSTAT)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(f64::NAN, |ns| ns as f64 * 1e-9)
}

/// Fails when the kernel does not report per-thread CPU time.
///
/// # Errors
///
/// `/proc/thread-self/schedstat` is missing or unreadable.
pub fn check() -> io::Result<()> {
    if now().is_finite() {
        Ok(())
    } else {
        Err(io::Error::other(format!(
            "no per-thread CPU time in {SCHEDSTAT} (Linux with CONFIG_SCHED_INFO needed)"
        )))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts_work_and_not_sleep() {
        super::check().expect("per-thread CPU time");
        let start = super::now();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = super::now() - start;
        let start = super::now();
        let spin = std::time::Instant::now();
        let mut x = 0u64;
        while spin.elapsed().as_secs_f64() < 0.05 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let worked = super::now() - start;
        assert!(slept < 0.01, "sleep counted as {slept} s");
        assert!(worked > 0.01, "work counted as {worked} s");
    }
}
