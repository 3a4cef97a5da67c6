//! End-to-end and per-layer benchmark of the ITUA figure runs.
//!
//! Every workload drives the same path the `itua` CLI takes for a sweep:
//! each point builds its backend with [`ItuaBackend::for_params_with`],
//! passes the backend's self-check, runs its replications (or its exact
//! solve, or its RESTART trees) through the runner, and is recorded in a
//! result store opened in a fresh directory. An untraced pass is that
//! path itself, timed through its progress callbacks; a traced pass makes
//! the same calls one at a time and records a span around every call into
//! a layer (see [`trace`]). It is reported separately, so the difference
//! between the two is the tracing overhead.
//!
//! [`ItuaBackend::for_params_with`]: itua_runner::backend::ItuaBackend::for_params_with

#![forbid(unsafe_code)]

pub mod bench;
pub mod calib;
pub mod check;
pub mod cpu;
pub mod pass;
pub mod probe;
pub mod report;
pub mod trace;
pub mod workload;
