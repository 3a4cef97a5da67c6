//! Spans recorded in memory around the benchmark's calls into each layer,
//! and the timing wrapper that records them from inside the runner.
//!
//! A span is a name, a start and an end (seconds since the tracer was
//! made) and the id of the span that caused it. Worker threads record
//! their `run_batch` spans under the span of the replication loop that
//! spawned them. Spans are written out only when the benchmark ends.

use itua_core::measures::{MeasureSet, RunOutput};
use itua_runner::backend::{Backend, BackendError};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within its tracer (ids start at 1).
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Layer boundary name, e.g. `runner.replicate`.
    pub name: &'static str,
    /// Start, seconds since the tracer was made.
    pub start: f64,
    /// End, seconds since the tracer was made.
    pub end: f64,
}

impl Span {
    /// The span's duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id, for a span whose children are recorded before
    /// it ends.
    pub fn reserve(&self) -> u64 {
        // The id publishes no other data.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span under a reserved `id`.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            start: start.duration_since(self.origin).as_secs_f64(),
            end: end.duration_since(self.origin).as_secs_f64(),
        };
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, start, end);
        id
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<R>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, start, Instant::now());
        out
    }

    /// Every span recorded so far, sorted by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

/// Total duration of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Self time of the spans named `name`: each span's duration minus the
/// part of its interval that its children cover.
pub fn self_time(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| own_time(spans, s))
        .sum()
}

/// `span`'s duration minus the part of its interval its children cover.
/// Children on parallel threads overlap, so the covered part is the union
/// of their intervals.
fn own_time(spans: &[Span], span: &Span) -> f64 {
    let mut children: Vec<(f64, f64)> = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start.max(span.start), c.end.min(span.end)))
        .filter(|(a, b)| b > a)
        .collect();
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (a, b) in children {
        let from = a.max(reach);
        if b > from {
            covered += b - from;
        }
        reach = reach.max(b);
    }
    span.duration() - covered
}

/// The spans as tab-separated lines: id, parent (0 for none), name, start,
/// end and self time, all times in seconds.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("id\tparent\tname\tstart_s\tend_s\tself_s\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{:.9}\t{:.9}\t{:.9}",
            s.id,
            s.parent.unwrap_or(0),
            s.name,
            s.start,
            s.end,
            own_time(spans, s)
        );
    }
    out
}

/// A [`Backend`] that delegates every call to `inner` and records a span
/// around `run_batch`, `exact_measures` and `self_check`.
pub struct Timed<'a, B> {
    /// The wrapped backend.
    pub inner: &'a B,
    /// Where spans go.
    pub tracer: &'a Tracer,
    /// The span the `self_check` and `exact_measures` spans belong to.
    pub parent: u64,
    /// The span the `run_batch` spans belong to: the replication loop.
    pub batch_parent: u64,
    /// Span name of a `run_batch` call, e.g. `core.des.run_batch`.
    pub batch_span: &'static str,
}

impl<B: Backend> Backend for Timed<'_, B> {
    type Scratch = B::Scratch;

    fn scratch(&self) -> B::Scratch {
        self.inner.scratch()
    }

    fn run(
        &self,
        seed: u64,
        horizon: f64,
        sample_times: &[f64],
        scratch: &mut B::Scratch,
    ) -> Result<RunOutput, BackendError> {
        self.inner.run(seed, horizon, sample_times, scratch)
    }

    fn run_batch(
        &self,
        origin_seed: u64,
        reps: std::ops::Range<u32>,
        horizon: f64,
        sample_times: &[f64],
        scratch: &mut B::Scratch,
        out: &mut Vec<Result<RunOutput, BackendError>>,
    ) {
        self.tracer
            .time(self.batch_span, Some(self.batch_parent), || {
                self.inner
                    .run_batch(origin_seed, reps, horizon, sample_times, scratch, out);
            });
    }

    fn exact_measures(
        &self,
        horizon: f64,
        sample_times: &[f64],
        confidence: f64,
    ) -> Option<Result<MeasureSet, BackendError>> {
        let start = Instant::now();
        let out = self.inner.exact_measures(horizon, sample_times, confidence);
        if out.is_some() {
            self.tracer
                .record("markov.solve", Some(self.parent), start, Instant::now());
        }
        out
    }

    fn self_check(&self) -> Result<(), BackendError> {
        self.tracer.time("core.self_check", Some(self.parent), || {
            self.inner.self_check()
        })
    }

    fn self_check_deep(&self, max_states: usize) -> Result<(), BackendError> {
        self.inner.self_check_deep(max_states)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span(1, None, "loop", 0.0, 10.0),
            span(2, Some(1), "batch", 1.0, 4.0),
            span(3, Some(1), "batch", 2.0, 5.0),
            span(4, Some(1), "batch", 7.0, 8.0),
            span(5, None, "other", 0.0, 1.0),
        ];
        // Children cover [1, 5] and [7, 8]: 5 of the 10 seconds.
        assert!((self_time(&spans, "loop") - 5.0).abs() < 1e-12);
        assert!((total(&spans, "batch") - 7.0).abs() < 1e-12);
        assert_eq!(count(&spans, "batch"), 3);
        assert!((self_time(&spans, "other") - 1.0).abs() < 1e-12);
    }
}
