//! `study-report`: the `tagdist report --with-caching` path — a full
//! `Study` (generate → crawl → filter → reconstruct → aggregate) and
//! its markdown report with the E7 caching sweep, checked against a
//! golden digest kept in `perfbench/golden.txt`.

use std::time::Instant;

use tagdist::crawler::crawl_parallel;
use tagdist::ytsim::Platform;
use tagdist::{markdown_report, ReportOptions, Study, StudyConfig};

use crate::stats::{fnv1a64, median};
use crate::trace::Trace;
use crate::{note, Ctx, EndToEnd, Outcome};

/// Report cycles per run, at least; more while time remains.
const MIN_CYCLES: usize = 2;

/// `(world seed, world videos, report bytes, FNV-1a-64)` per world.
const GOLDEN: &str = include_str!("../golden.txt");

fn golden(seed: u64, videos: usize) -> Option<(usize, u64)> {
    GOLDEN.lines().find_map(|line| {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [s, v, bytes, digest] if s.parse() == Ok(seed) && v.parse() == Ok(videos) => {
                Some((bytes.parse().ok()?, u64::from_str_radix(digest, 16).ok()?))
            }
            _ => None,
        }
    })
}

fn config(ctx: &Ctx) -> StudyConfig {
    let mut config = StudyConfig::small();
    config
        .world
        .with_seed(ctx.corpus_seed)
        .with_videos(ctx.report_videos);
    config
}

fn with_caching() -> ReportOptions {
    ReportOptions {
        with_caching: true,
        ..ReportOptions::default()
    }
}

/// One study plus its report: `(study seconds, report seconds, whether
/// the report matched the golden digest)`, and the study itself.
fn cycle(ctx: &Ctx, trace: &Trace) -> Result<(f64, f64, bool, Study), String> {
    let (study, study_s) = trace.time("core.study", || Study::try_run(config(ctx)));
    let study = study.map_err(|e| format!("study failed: {e}"))?;
    let (markdown, report_s) = trace.time("core.report_with_caching", || {
        markdown_report(&study, &with_caching())
    });
    let seen = (markdown.len(), fnv1a64(markdown.as_bytes()));
    let matches = golden(ctx.corpus_seed, ctx.report_videos) == Some(seen);
    if !matches {
        eprintln!(
            "perfbench: the study report differs from golden.txt; it reads `{} {} {} {:016x}`",
            ctx.corpus_seed, ctx.report_videos, seen.0, seen.1
        );
    }
    Ok((study_s, report_s, matches, study))
}

/// The study layers timed one call at a time on `study`'s own
/// configuration: world generation, the crawl, the E6 prediction
/// evaluation, and the report with and without the caching sweep.
fn study_layers(ctx: &Ctx, study: &Study, with_caching_s: f64, trace: &mut Trace) {
    let config = config(ctx);
    let (platform, generate_s) = trace.time("ytsim.generate", || {
        Platform::generate(config.world.clone())
    });
    let (outcome, crawl_s) =
        trace.time("crawler.crawl", || crawl_parallel(&platform, &config.crawl));
    drop((outcome, platform));
    let (_, predict_s) = trace.time("tags.prediction_evaluation", || {
        study.prediction_evaluation()
    });
    let (_, render_s) = trace.time("core.report", || {
        markdown_report(study, &ReportOptions::default())
    });
    trace.record("ytsim.generate_s", generate_s);
    trace.record("crawler.crawl_s", crawl_s);
    trace.record("tags.predict_eval_s", predict_s);
    trace.record("core.report_render_s", render_s);
    trace.record("cache.sweep_s", with_caching_s - render_s);
}

/// `study-report`.
pub fn run(ctx: &Ctx, trace: &mut Trace) -> Result<Outcome, String> {
    crate::sys::reset_peak_rss();
    let started = Instant::now();
    let mut study_s = Vec::new();
    let mut report_s = Vec::new();
    let mut failed = 0u64;
    let quiet = Trace::new(false, "");
    if trace.on() {
        let (s, r, ok, _) = cycle(ctx, &quiet)?;
        let (ts, tr, tok, study) = cycle(ctx, trace)?;
        failed += u64::from(!ok) + u64::from(!tok);
        study_s.push(ts);
        report_s.push(tr);
        trace.record("bench.trace_overhead_s", (ts + tr) - (s + r));
        study_layers(ctx, &study, tr, trace);
    } else {
        while study_s.len() < MIN_CYCLES || started.elapsed().as_secs_f64() < ctx.seconds {
            let (s, r, ok, study) = cycle(ctx, trace)?;
            drop(study);
            failed += u64::from(!ok);
            study_s.push(s);
            report_s.push(r);
        }
    }
    let peak_rss_mb = crate::sys::peak_rss_mb();
    let cycles: Vec<f64> = study_s.iter().zip(&report_s).map(|(s, r)| s + r).collect();
    let slowest = report_s.iter().copied().fold(f64::NAN, f64::max);
    Ok(Outcome {
        attempted: study_s.len() as u64,
        failed,
        e2e: EndToEnd {
            setup_s: median(&study_s),
            throughput_per_s: ctx.report_videos as f64 / median(&cycles),
            peak_rss_mb,
        },
        notes: vec![
            note("report_cycles", study_s.len()),
            note("report_world_videos", ctx.report_videos),
            note("median_report_s", median(&report_s)),
            note("slowest_report_s", slowest),
            note("median_cycle_s", median(&cycles)),
        ],
    })
}

/// The study layers on their own, for workloads that make no such
/// calls: one traced cycle, then the per-call timings. Returns
/// `(attempted, failed)`.
pub fn layer_pass(ctx: &Ctx, trace: &mut Trace) -> Result<(u64, u64), String> {
    let (_, report_s, ok, study) = cycle(ctx, trace)?;
    study_layers(ctx, &study, report_s, trace);
    Ok((1, u64::from(!ok)))
}
