//! Spans and per-layer samples. Each public call the benchmark makes
//! into a layer runs inside a span recorded with
//! [`tagdist::obs::Recorder`] (name, start, end, parent), and its wall
//! time is kept as a sample of that layer's metric. With tracing off
//! the recorder is disabled, no layer samples are kept and no
//! allocations are counted.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use tagdist::obs::{Recorder, SpanGuard};

use crate::alloc;
use crate::stats::median;

/// The per-layer metrics a traced run reports, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dataset.load_s", "s"),
    ("dataset.filter_s", "s"),
    ("dataset.filter_allocs", "count"),
    ("reconstruct.compute_s", "s"),
    ("reconstruct.aggregate_s", "s"),
    ("reconstruct.apply_s", "s"),
    ("reconstruct.publish_s", "s"),
    ("reconstruct.publish_alloc_mb", "MiB"),
    ("tags.index_build_s", "s"),
    ("tags.predict_eval_s", "s"),
    ("serve.state_build_s", "s"),
    ("serve.render_us.stats", "us"),
    ("serve.render_us.country", "us"),
    ("serve.render_us.tag", "us"),
    ("serve.render_us.video", "us"),
    ("serve.render_us.predict", "us"),
    ("serve.parse_us", "us"),
    ("serve.write_us", "us"),
    ("serve.wait_us", "us"),
    ("serve.requests_per_connection", "req/conn"),
    ("serve.http_errors", "count"),
    ("serve.epoch_flips", "count"),
    ("ytsim.generate_s", "s"),
    ("crawler.crawl_s", "s"),
    ("core.report_render_s", "s"),
    ("cache.sweep_s", "s"),
    ("bench.generator_late_us", "us"),
    ("bench.trace_overhead_s", "s"),
    ("bench.setup_residual_s", "s"),
];

/// A run's recorder plus the layer samples gathered so far.
#[derive(Debug)]
pub struct Trace {
    recorder: Recorder,
    root: SpanGuard,
    layers: BTreeMap<&'static str, Vec<f64>>,
}

impl Trace {
    /// A trace for one run; `on` enables spans, layer samples and
    /// allocation counting.
    pub fn new(on: bool, workload: &str) -> Trace {
        let recorder = if on {
            Recorder::new()
        } else {
            Recorder::disabled()
        };
        let root = recorder.span(workload);
        Trace {
            recorder,
            root,
            layers: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.recorder.is_enabled()
    }

    /// Opens a span called `name` under the run's root span.
    pub fn span(&self, name: &str) -> SpanGuard {
        self.root.child(name)
    }

    /// Runs `f` inside a span called `name` and returns its result and
    /// wall time in seconds. The time is measured whether or not
    /// tracing is on.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let _span = self.root.child(name);
        let started = Instant::now();
        let result = f();
        (result, started.elapsed().as_secs_f64())
    }

    /// As [`time`](Trace::time), also returning the allocation calls
    /// and bytes requested inside `f` (zero with tracing off).
    /// Counting is switched on only for the bracket, so it costs
    /// nothing elsewhere; allocations other threads make meanwhile are
    /// counted too.
    pub fn time_allocs<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, f64, u64, u64) {
        alloc::set_counting(self.on());
        let (calls0, bytes0) = alloc::counts();
        let (result, secs) = self.time(name, f);
        let (calls1, bytes1) = alloc::counts();
        alloc::set_counting(false);
        (result, secs, calls1 - calls0, bytes1 - bytes0)
    }

    /// Keeps one sample of a per-layer metric (ignored with tracing
    /// off).
    pub fn record(&mut self, metric: &'static str, value: f64) {
        if self.on() {
            self.layers.entry(metric).or_default().push(value);
        }
    }

    /// A trace recording into the same recorder under a child span,
    /// with its own layer samples; [`absorb`](Trace::absorb) merges them
    /// back.
    pub fn fork(&self, name: &str) -> Trace {
        Trace {
            recorder: self.recorder.clone(),
            root: self.root.child(name),
            layers: BTreeMap::new(),
        }
    }

    /// Takes over `other`'s samples of every metric this trace has no
    /// samples of yet.
    pub fn absorb(&mut self, other: Trace) {
        for (name, samples) in other.layers {
            self.layers.entry(name).or_insert(samples);
        }
    }

    /// Whether some call already produced samples of `metric`.
    pub fn has(&self, metric: &str) -> bool {
        self.layers.contains_key(metric)
    }

    /// The per-layer metrics as `(name, median, unit)`, in
    /// [`PER_LAYER`] order; `None` names a metric nothing sampled.
    pub fn summary(&self) -> Vec<(&'static str, Option<f64>, &'static str)> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, self.layers.get(name).map(|v| median(v)), unit))
            .collect()
    }

    /// Writes the recorded spans as the obs JSON tree.
    pub fn write_spans(&self, path: &Path) -> Result<(), String> {
        let report = self.recorder.finish();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, report.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))
    }
}
