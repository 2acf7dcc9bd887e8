//! `perfbench`: the tagdist benchmark. It hosts the system in-process
//! through its public API, drives it over loopback sockets, times it
//! end to end and, in a traced run, layer by layer, and checks every
//! output it times.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-zipf --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it
//! holds the run's provenance. See `perfbench/README.md`.

mod alloc;
mod client;
mod fixture;
mod ingest;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use tagdist::geo::{world, TrafficModel};
use tagdist::par::Pool;

use crate::fixture::Fixture;
use crate::trace::Trace;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["serve-zipf", "serve-point", "ingest-live", "study-report"];

/// One run's settings.
#[derive(Debug)]
pub struct Ctx {
    pub workload: String,
    /// Plan seed: request plans and arrival schedules.
    pub seed: u64,
    pub seconds: f64,
    /// World seed of the crawled corpus and of the study.
    pub corpus_seed: u64,
    /// World size of the crawled corpus.
    pub videos: usize,
    /// World size of the study behind `study-report`.
    pub report_videos: usize,
    pub fixtures: PathBuf,
    pub fixture: Option<Fixture>,
}

impl Ctx {
    /// The reference traffic prior `tagdist serve` answers with.
    pub fn traffic(&self) -> TrafficModel {
        TrafficModel::reference(world())
    }

    /// The corpus file; [`ensure_fixture`](Ctx::ensure_fixture) must
    /// have run.
    pub fn corpus(&self) -> Result<&std::path::Path, String> {
        self.fixture
            .as_ref()
            .map(|f| f.path.as_path())
            .ok_or_else(|| "the corpus fixture is not ready".to_owned())
    }

    /// Builds or verifies the corpus fixture on first use.
    pub fn ensure_fixture(&mut self) -> Result<(), String> {
        if self.fixture.is_none() {
            let fixture = fixture::ensure(&self.fixtures, self.corpus_seed, self.videos)?;
            self.fixture = Some(fixture);
        }
        Ok(())
    }
}

/// The end-to-end metrics of one run.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub throughput_per_s: f64,
    pub peak_rss_mb: f64,
}

/// What a workload did: checks attempted and failed, its end-to-end
/// metrics and provenance notes.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: EndToEnd,
    pub notes: Vec<(String, String)>,
}

/// One provenance entry.
pub fn note(key: &str, value: impl std::fmt::Display) -> (String, String) {
    (key.to_owned(), value.to_string())
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 \
         [--corpus-seed N] [--videos N] [--report-videos N] [--fixtures DIR]",
        WORKLOADS.join("|")
    )
}

/// The value after `name` on the command line.
fn flag(name: &str) -> Option<String> {
    let mut args = std::env::args().skip_while(|a| a != name);
    args.next()?;
    args.next()
}

/// The non-negative number after `name`, or `default`.
fn number(name: &str, default: Option<&str>) -> Result<f64, String> {
    let raw = flag(name)
        .or(default.map(str::to_owned))
        .ok_or_else(|| format!("missing {name}; {}", usage()))?;
    raw.parse::<f64>()
        .ok()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .ok_or_else(|| format!("{name} must be a non-negative number, got {raw:?}"))
}

fn fixtures_dir() -> PathBuf {
    flag("--fixtures").map_or_else(fixture::default_dir, PathBuf::from)
}

fn build_fixture() -> Result<(), String> {
    let seed = number("--corpus-seed", Some("2011"))? as u64;
    let videos = number("--videos", Some("120000"))? as usize;
    fixture::build(&fixtures_dir(), seed, videos)
}

fn parse_args() -> Result<(Ctx, bool), String> {
    let workload = flag("--workload").ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; {}", usage()));
    }
    let trace = match flag("--trace").as_deref().unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let ctx = Ctx {
        workload,
        seed: number("--seed", None)? as u64,
        seconds: number("--seconds", None)?.max(1.0),
        corpus_seed: number("--corpus-seed", Some("2011"))? as u64,
        videos: number("--videos", Some("120000"))? as usize,
        report_videos: number("--report-videos", Some("20000"))? as usize,
        fixtures: fixtures_dir(),
        fixture: None,
    };
    Ok((ctx, trace))
}

/// Runs whatever layer calls the workload itself made none of, so a
/// traced run reports every per-layer metric as a measurement.
fn complete_layers(ctx: &mut Ctx, trace: &mut Trace) -> Result<(u64, u64), String> {
    let mut checks = (0, 0);
    let mut add = |(a, f): (u64, u64)| {
        checks.0 += a;
        checks.1 += f;
    };
    if !trace.has("dataset.load_s") || !trace.has("serve.wait_us") {
        let mut pass = trace.fork("complement.serve");
        add(serve::layer_pass(ctx, &mut pass)?);
        trace.absorb(pass);
    }
    if !trace.has("reconstruct.apply_s") {
        let mut pass = trace.fork("complement.ingest");
        ingest::layer_pass(ctx, &mut pass)?;
        trace.absorb(pass);
    }
    if !trace.has("ytsim.generate_s") {
        let mut pass = trace.fork("complement.report");
        add(report::layer_pass(ctx, &mut pass)?);
        trace.absorb(pass);
    }
    Ok(checks)
}

/// Formats `(name, value, unit)` triples as the result's `metrics`
/// object; a value that is not a finite number is an error.
fn metrics_json(metrics: &[(&str, f64, &str)]) -> Result<String, String> {
    let mut out = Vec::with_capacity(metrics.len());
    for &(name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number: {value}"));
        }
        out.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", out.join(", ")))
}

fn provenance(ctx: &Ctx, load_start: &str, outcome: &Outcome) -> String {
    let (commit, dirty) = sys::git_revision();
    let mut out = String::from("{\"provenance\": {");
    let _ = write!(
        out,
        "\"workload\": \"{}\", \"plan_seed\": {}, \"corpus_seed\": {}, \"seconds\": {}, \
         \"nproc\": {}, \"server_pool_threads\": {}, \"TAGDIST_THREADS\": \"{}\", \
         \"loadavg_start\": \"{load_start}\", \"loadavg_end\": \"{}\", \
         \"git_commit\": \"{commit}\", \"git_dirty\": {}",
        ctx.workload,
        ctx.seed,
        ctx.corpus_seed,
        ctx.seconds,
        sys::nproc(),
        Pool::from_env().threads(),
        std::env::var("TAGDIST_THREADS").unwrap_or_else(|_| "unset".to_owned()),
        sys::loadavg(),
        dirty.map_or_else(|| "null".to_owned(), |d| d.to_string()),
    );
    if let Some(f) = &ctx.fixture {
        let _ = write!(
            out,
            ", \"corpus\": {{\"file\": \"{}\", \"fnv1a64\": \"{:016x}\", \"generate_s\": {}, \
             \"reused\": {}, \"crawled\": {}, \"world_videos\": {}}}",
            f.path.display(),
            f.digest,
            f.generate_s,
            f.reused,
            f.crawled,
            ctx.videos
        );
    }
    for (key, value) in &outcome.notes {
        let quoted = value.parse::<f64>().map_or(true, |v| !v.is_finite());
        let _ = if quoted {
            write!(out, ", \"{key}\": \"{value}\"")
        } else {
            write!(out, ", \"{key}\": {value}")
        };
    }
    out.push_str("}}");
    out
}

fn run(ctx: &mut Ctx, traced: bool) -> Result<String, String> {
    let load_start = sys::loadavg();
    let mut trace = Trace::new(traced, &ctx.workload);
    if ctx.workload != "study-report" || traced {
        ctx.ensure_fixture()?;
    }
    let mut outcome = match ctx.workload.as_str() {
        "serve-zipf" => serve::run(ctx, false, &mut trace)?,
        "serve-point" => serve::run(ctx, true, &mut trace)?,
        "ingest-live" => ingest::run(ctx, &mut trace)?,
        _ => report::run(ctx, &mut trace)?,
    };
    let e2e = outcome.e2e;
    eprintln!("perfbench: {e2e:?}");
    let metrics = if traced {
        let (attempted, failed) = complete_layers(ctx, &mut trace)?;
        outcome.attempted += attempted;
        outcome.failed += failed;
        let spans = ctx
            .fixtures
            .with_file_name("perfbench-trace")
            .join(format!("{}-seed{}.json", ctx.workload, ctx.seed));
        trace.write_spans(&spans)?;
        eprintln!("perfbench: spans written to {}", spans.display());
        let mut layers = Vec::new();
        for (name, value, unit) in trace.summary() {
            let value = value.ok_or_else(|| format!("no sample of per-layer metric {name}"))?;
            layers.push((name, value, unit));
        }
        metrics_json(&layers)?
    } else {
        metrics_json(&[
            ("setup_s", e2e.setup_s, "s"),
            ("throughput_per_s", e2e.throughput_per_s, "1/s"),
            ("peak_rss_mb", e2e.peak_rss_mb, "MiB"),
        ])?
    };
    println!("{}", provenance(ctx, &load_start, &outcome));
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    ))
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--build-fixture") {
        return match build_fixture() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let (mut ctx, traced) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&mut ctx, traced) {
        Ok(result) => {
            println!("{result}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
