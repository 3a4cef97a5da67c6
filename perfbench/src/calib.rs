//! The host-speed reference the end-to-end timings are scaled by.
//!
//! A virtual CPU of a shared host does not run at one speed: the cores
//! and caches it shares with other machines' work make the same
//! instructions take a third longer or shorter from one moment to the
//! next, and the mix moves over tens of seconds. The CPU clock cannot
//! see that: on a 2-vCPU Xeon virtual machine the median pass CPU time
//! of `san-figures` varied by 28% (IQR over median) across five runs of
//! the same code.
//!
//! The benchmark therefore samples a fixed piece of its own work, the
//! [`Calibrator`] kernel, every 10 ms or so between the runner's chunks
//! and at each point's start and end, and scales the CPU time between two
//! samples by how much slower than [`REFERENCE_SECONDS`] the kernel ran
//! at them: a reported second is a second at the reference speed. The
//! kernel is the benchmark's code, not the program's, so a change to the
//! program moves the scaled time as much as the raw one. It is a small
//! discrete-event loop, like the simulators: a binary heap of pending
//! events, exponential delays from a xorshift generator and a dependent
//! read in a 32 KiB table per event. Of the kernels tried (this one, a
//! pointer chase through 16 MiB, and this loop over a 1 MiB table left
//! cold), this one tracked the simulations best: across those five runs
//! the spread fell to 10% on `san-figures`, 9% on `tail-split` and 2% on
//! `des-figures`. The analytic solve is one call with no chunks to sample
//! between, so there the kernel is sampled only at a point's ends.

use crate::cpu;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Events one timed kernel run handles.
pub const KERNEL_EVENTS: u32 = 2_000;

/// Events of the untimed run before it, which brings the kernel's table
/// and heap back into the cache after the workload pushed them out.
pub const WARM_UP_EVENTS: u32 = 500;

/// CPU seconds of one timed kernel run at the reference speed: about its
/// time between the points of a pass on a 2-vCPU Xeon virtual machine at
/// that host's quieter moments, so that a scaled second reads close to a
/// CPU second there.
pub const REFERENCE_SECONDS: f64 = 2.5e-4;

/// Pending events kept in the kernel's heap.
const PENDING: usize = 1024;

/// Words in the kernel's table (32 KiB).
const TABLE_WORDS: usize = 1 << 12;

/// The calibration kernel and its state.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibrator {
    /// A calibrator with its table filled.
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        Calibrator {
            table,
            heap: BinaryHeap::with_capacity(PENDING + 1),
        }
    }

    /// Runs the kernel once and returns its CPU seconds. CPU seconds
    /// measured next are scaled to the reference speed by multiplying
    /// them by [`REFERENCE_SECONDS`] ÷ that.
    pub fn sample(&mut self) -> f64 {
        std::hint::black_box(self.kernel(WARM_UP_EVENTS));
        let start = cpu::now();
        std::hint::black_box(self.kernel(KERNEL_EVENTS));
        cpu::now() - start
    }

    /// Handles `events` events; the result only keeps the work alive.
    fn kernel(&mut self, events: u32) -> u64 {
        let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
        let mut now = 0.0_f64;
        self.heap.clear();
        for id in 0..PENDING as u32 {
            rng = xorshift(rng);
            self.heap.push(Reverse((exp_delay(rng).to_bits(), id)));
        }
        let mut slot = rng as usize % TABLE_WORDS;
        let mut acc = 0_u64;
        for _ in 0..events {
            let Reverse((at, id)) = self.heap.pop().expect("the heap is never empty");
            now = now.max(f64::from_bits(at));
            // A dependent read: the next slot depends on this one's word.
            let word = self.table[slot];
            slot = (word ^ u64::from(id)) as usize % TABLE_WORDS;
            acc = acc.wrapping_add(word);
            rng = xorshift(rng ^ word);
            self.heap
                .push(Reverse(((now + exp_delay(rng)).to_bits(), id)));
        }
        acc
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// An exponential delay of rate 1 from the top 53 bits of `bits`.
fn exp_delay(bits: u64) -> f64 {
    let u = ((bits >> 11) as f64 + 0.5) / (1_u64 << 53) as f64;
    -u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_fixed_work() {
        let mut c = Calibrator::new();
        assert_eq!(c.kernel(1000), c.kernel(1000));
        let s = c.sample();
        assert!(s.is_finite() && s > 0.0);
    }
}
