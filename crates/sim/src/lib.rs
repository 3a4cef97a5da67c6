//! Discrete-event simulation kernel for the ITUA reproduction.
//!
//! This crate provides the low-level machinery every stochastic model in the
//! workspace is built on:
//!
//! * [`rng`] — a deterministic, seedable pseudo-random number generator
//!   (xoshiro256\*\* seeded through splitmix64) with support for independent
//!   sub-streams, so that every replication of an experiment is exactly
//!   reproducible from a single `u64` seed on every platform.
//! * [`queue`] — a pending-event set: a time-ordered priority queue with
//!   deterministic FIFO tie-breaking and O(log n) cancellation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
pub mod rng;

pub use queue::{EventKey, EventQueue};
pub use rng::Rng;
