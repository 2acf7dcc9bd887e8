//! The [`Recorder`]: a cloneable handle that pipeline stages record
//! spans, counters, and gauges into.
//!
//! A recorder is either *enabled* (all clones share one state behind a
//! mutex) or *disabled* (every operation returns immediately). The
//! disabled form is the default, so un-instrumented call paths — all
//! the existing public APIs — pay one `Option` check per call and no
//! allocation, no lock.
//!
//! Three measurement families, kept apart on purpose:
//!
//! * [`Recorder::add`] / [`Recorder::gauge_max`] — **deterministic**
//!   counters and gauges. Callers must only feed these values derived
//!   from the input data (lengths, sums, hit tallies), never from the
//!   execution path, so the resulting report is identical at any
//!   thread count.
//! * [`Recorder::add_sched`] — scheduling statistics (fan-outs, worker
//!   counts). Legitimately thread-dependent; reported under `timing`.
//! * [`Recorder::span`] / [`SpanGuard::child`] — wall-clock spans,
//!   measured against the recorder's own monotonic origin.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::report::{MetricsReport, Span};

/// Interior state shared by all clones of an enabled recorder.
#[derive(Debug)]
struct Inner {
    /// Monotonic zero point; all span timestamps are offsets from it.
    origin: Instant,
    state: Mutex<State>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<SpanData>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    sched: BTreeMap<String, u64>,
}

#[derive(Debug, Clone)]
struct SpanData {
    name: String,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: Option<u64>,
}

/// A handle for recording metrics; cheap to clone and share.
///
/// See the [module docs](self) for the enabled/disabled split and the
/// deterministic-vs-timing contract.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

impl Recorder {
    /// An enabled recorder with a fresh time origin and empty state.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// A disabled recorder: every operation is a no-op.
    ///
    /// This is also what [`Recorder::default`] returns, so structs can
    /// hold a `Recorder` field without opting into instrumentation.
    #[must_use]
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether this handle records anything.
    ///
    /// Callers with non-trivial metric *derivation* cost (not just the
    /// recording call) can branch on this; plain `add` calls do not
    /// need the check.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut State, Instant) -> R) -> Option<R> {
        self.inner.as_deref().map(|inner| {
            let mut state = inner.state.lock().unwrap_or_else(PoisonError::into_inner);
            f(&mut state, inner.origin)
        })
    }

    /// Adds `delta` to the deterministic counter `name`.
    ///
    /// Only pass values derived from input data — see the
    /// [module docs](self).
    pub fn add(&self, name: &str, delta: u64) {
        self.with_state(|state, _| match state.counters.get_mut(name) {
            Some(count) => *count += delta,
            None => {
                state.counters.insert(name.to_owned(), delta);
            }
        });
    }

    /// Raises the deterministic gauge `name` to at least `value`.
    ///
    /// Gauges keep the maximum observed value (e.g. peak crawler
    /// frontier size). Max is order-independent, so concurrent
    /// observers still produce a deterministic result.
    pub fn gauge_max(&self, name: &str, value: u64) {
        self.with_state(|state, _| {
            let slot = state.gauges.entry(name.to_owned()).or_insert(0);
            *slot = (*slot).max(value);
        });
    }

    /// Adds `delta` to the scheduling statistic `name`.
    ///
    /// Scheduling stats (fan-outs, worker counts, task claims) depend
    /// on `TAGDIST_THREADS` and are reported in the `timing` section,
    /// never in the deterministic subtree.
    pub fn add_sched(&self, name: &str, delta: u64) {
        self.with_state(|state, _| {
            *state.sched.entry(name.to_owned()).or_insert(0) += delta;
        });
    }

    /// Opens a root span named `name`; it closes when the guard drops.
    #[must_use]
    pub fn span(&self, name: &str) -> SpanGuard {
        self.open_span(name, None)
    }

    fn open_span(&self, name: &str, parent: Option<usize>) -> SpanGuard {
        let id = self.with_state(|state, origin| {
            let start_ns = elapsed_ns(origin);
            state.spans.push(SpanData {
                name: name.to_owned(),
                parent,
                start_ns,
                end_ns: None,
            });
            state.spans.len() - 1
        });
        SpanGuard {
            recorder: self.clone(),
            id,
        }
    }

    fn close_span(&self, id: usize) {
        self.with_state(|state, origin| {
            let now = elapsed_ns(origin);
            if let Some(span) = state.spans.get_mut(id) {
                if span.end_ns.is_none() {
                    span.end_ns = Some(now);
                }
            }
        });
    }

    /// Snapshots everything recorded so far into a [`MetricsReport`].
    ///
    /// Spans still open at this moment are reported as ending now;
    /// their guards keep working and simply lose the race.
    #[must_use]
    pub fn finish(&self) -> MetricsReport {
        self.with_state(|state, origin| {
            let now = elapsed_ns(origin);
            MetricsReport {
                counters: state.counters.clone(),
                gauges: state.gauges.clone(),
                sched: state.sched.clone(),
                spans: state
                    .spans
                    .iter()
                    .map(|s| Span {
                        name: s.name.clone(),
                        parent: s.parent,
                        start_ns: s.start_ns,
                        end_ns: s.end_ns.unwrap_or(now),
                    })
                    .collect(),
            }
        })
        .unwrap_or_default()
    }
}

fn elapsed_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// An open span; dropping it records the end timestamp.
///
/// Guards are `Send + Sync` (they only hold a recorder handle and an
/// index), so a parent span can be shared with pool workers that open
/// [`SpanGuard::child`] spans concurrently.
#[derive(Debug)]
pub struct SpanGuard {
    recorder: Recorder,
    /// `None` when the recorder is disabled.
    id: Option<usize>,
}

impl SpanGuard {
    /// A guard attached to nothing; children of it are also no-ops.
    ///
    /// Lets internal APIs take `&SpanGuard` unconditionally while
    /// un-instrumented callers pass a throwaway.
    #[must_use]
    pub fn disabled() -> SpanGuard {
        SpanGuard {
            recorder: Recorder::disabled(),
            id: None,
        }
    }

    /// Opens a child span of this one.
    #[must_use]
    pub fn child(&self, name: &str) -> SpanGuard {
        self.recorder.open_span(name, self.id)
    }

    /// The recorder this span records into (disabled for a disabled
    /// guard) — lets a function that received only a span also bump
    /// counters.
    #[must_use]
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.recorder.close_span(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Recorder::new();
        r.add("items", 3);
        r.add("items", 4);
        r.gauge_max("peak", 10);
        r.gauge_max("peak", 6);
        r.add_sched("fanouts", 1);
        let report = r.finish();
        assert_eq!(report.counters["items"], 7);
        assert_eq!(report.gauges["peak"], 10);
        assert_eq!(report.sched["fanouts"], 1);
    }

    #[test]
    fn span_tree_records_parents_and_closes_in_order() {
        let r = Recorder::new();
        {
            let root = r.span("root");
            let a = root.child("a");
            drop(a);
            let b = root.child("b");
            let bb = b.child("bb");
            drop(bb);
        }
        let report = r.finish();
        let names = report.span_names();
        assert_eq!(names, vec!["root", "a", "b", "bb"]);
        assert_eq!(report.spans[0].parent, None);
        assert_eq!(report.spans[1].parent, Some(0));
        assert_eq!(report.spans[2].parent, Some(0));
        assert_eq!(report.spans[3].parent, Some(2));
        for span in &report.spans {
            assert!(span.end_ns >= span.start_ns, "{span:?}");
        }
        // Children start no earlier than their parent.
        assert!(report.spans[3].start_ns >= report.spans[2].start_ns);
    }

    #[test]
    fn finish_closes_open_spans_without_ending_them() {
        let r = Recorder::new();
        let root = r.span("root");
        let snapshot = r.finish();
        assert_eq!(snapshot.spans.len(), 1);
        assert!(snapshot.spans[0].end_ns >= snapshot.spans[0].start_ns);
        drop(root);
        let after = r.finish();
        assert!(after.spans[0].end_ns >= snapshot.spans[0].end_ns);
    }

    #[test]
    fn disabled_recorder_is_a_no_op() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.add("items", 1);
        r.gauge_max("peak", 1);
        r.add_sched("fanouts", 1);
        let guard = r.span("root");
        let _child = guard.child("child");
        let report = r.finish();
        assert!(report.counters.is_empty());
        assert!(report.gauges.is_empty());
        assert!(report.sched.is_empty());
        assert!(report.spans.is_empty());

        let detached = SpanGuard::disabled();
        let _grandchild = detached.child("x");
        assert!(!detached.recorder().is_enabled());
    }

    #[test]
    fn clones_share_state() {
        let r = Recorder::new();
        let clone = r.clone();
        clone.add("shared", 5);
        assert_eq!(r.finish().counters["shared"], 5);
    }

    #[test]
    fn concurrent_adds_from_pool_workers_are_exact() {
        use tagdist_par::Pool;

        let r = Recorder::new();
        let root = r.span("parallel");
        let items: Vec<u64> = (0..10_000).collect();
        let pool = Pool::new(8);
        let sums = pool.par_chunks(&items, |_, chunk| {
            let _span = root.child("worker-chunk");
            let sum: u64 = chunk.iter().sum();
            r.add("sum", sum);
            r.add("chunks_seen", 1);
            sum
        });
        drop(root);
        let expected: u64 = items.iter().sum();
        assert_eq!(sums.iter().sum::<u64>(), expected);

        let report = r.finish();
        assert_eq!(report.counters["sum"], expected);
        // Every worker-chunk span hangs off the shared parent.
        let worker_spans: Vec<_> = report
            .spans
            .iter()
            .filter(|s| s.name == "worker-chunk")
            .collect();
        assert_eq!(worker_spans.len() as u64, report.counters["chunks_seen"]);
        assert!(worker_spans.iter().all(|s| s.parent == Some(0)));
        assert!(worker_spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
