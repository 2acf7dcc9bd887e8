//! The serving workloads (`serve-zipf`, `serve-point`) and the pieces
//! the other workloads borrow from them: a cold set-up from the corpus
//! file to a live server, the in-memory render sweep, and open-loop
//! phases against a running server.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tagdist::dataset::{binfmt, filter_columnar, Mmap};
use tagdist::geo::TrafficModel;
use tagdist::par::Pool;
use tagdist::reconstruct::{EpochSnapshot, Reconstruction, SnapshotCell, TagViewTable};
use tagdist_serve::http::{write_response, RequestReader};
use tagdist_serve::{loadgen, query, ServeState, ServeStats, Server, ServerConfig};

use crate::client::{self, Load, Sample, Shot, Verdict};
use crate::stats::{median, poisson_schedule, quantile};
use crate::trace::Trace;
use crate::{note, Ctx, EndToEnd, Outcome};

/// Requests per connection, as `tagdist bench-serve` sends them.
const REQUESTS_PER_CONNECTION: u32 = 256;

/// Cold set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Requests in the seeded plan; phases walk it cyclically.
const PLAN_REQUESTS: u64 = 60_000;

/// Plan entries the render sweep times one by one.
const RENDER_SWEEP: usize = 4_000;

/// Share of `--seconds` spent at the fixed rate; the rest saturates.
const FIXED_SHARE: f64 = 0.3;

/// Length of the windows the saturated phase's answer rate is counted
/// in; `throughput_per_s` is the median window's rate.
const WINDOW_NS: u64 = 500_000_000;

/// Requests handed to the generator at once in the saturated phase: a
/// whole number of connections, so each batch ends on a `close`.
const SATURATE_BATCH: usize = 16 * REQUESTS_PER_CONNECTION as usize;

/// Requests outstanding on the connection in the saturated phase.
const PIPELINE_DEPTH: usize = 16;

/// A workload's fixed offered rate, at which its latency is recorded.
const ZIPF_RATE: f64 = 600.0;
const POINT_RATE: f64 = 10_000.0;

/// A server running on its own thread over a snapshot cell.
#[derive(Debug)]
pub struct Running {
    pub addr: SocketAddr,
    pub stats: Arc<ServeStats>,
    shutdown: Arc<AtomicBool>,
    handle: JoinHandle<Result<(), String>>,
}

impl Running {
    /// Binds an ephemeral loopback port and runs the accept loop on a
    /// pool of the host's default size.
    pub fn start(cell: Arc<SnapshotCell>, traffic: &TrafficModel) -> Result<Running, String> {
        let server = Server::bind(
            "127.0.0.1:0",
            cell,
            traffic.clone(),
            ServerConfig::default(),
        )?;
        let addr = server.local_addr()?;
        let stats = server.stats();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || server.run(&Pool::from_env(), &flag));
        Ok(Running {
            addr,
            stats,
            shutdown,
            handle,
        })
    }

    /// Stops the accept loop and waits for its thread.
    pub fn stop(self) -> Result<(), String> {
        self.shutdown.store(true, Ordering::SeqCst);
        match self.handle.join() {
            Ok(result) => result,
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

/// Load → filter → reconstruct → aggregate from the corpus file, each
/// step a layer span: the cold path `tagdist serve` boots from.
pub fn cold_snapshot(
    path: &Path,
    traffic: &TrafficModel,
    epoch: u64,
    trace: &mut Trace,
) -> Result<EpochSnapshot, String> {
    let shown = path.display();
    let load_span = trace.span("dataset.load");
    let started = Instant::now();
    let map = Mmap::open(path).map_err(|e| format!("cannot open {shown}: {e}"))?;
    let view = binfmt::decode_borrowed(&map).map_err(|e| format!("cannot parse {shown}: {e}"))?;
    let load_s = started.elapsed().as_secs_f64();
    drop(load_span);
    let (clean, filter_s, filter_allocs, _) =
        trace.time_allocs("dataset.filter", || filter_columnar(&view));
    drop(map);
    let (recon, compute_s) = trace.time("reconstruct.compute", || {
        Reconstruction::compute(&clean, traffic.distribution())
    });
    let recon = recon.map_err(|e| format!("reconstruction failed: {e}"))?;
    let (table, aggregate_s) = trace.time("reconstruct.aggregate", || {
        TagViewTable::aggregate(&clean, &recon)
    });
    trace.record("dataset.load_s", load_s);
    trace.record("dataset.filter_s", filter_s);
    trace.record("dataset.filter_allocs", filter_allocs as f64);
    trace.record("reconstruct.compute_s", compute_s);
    trace.record("reconstruct.aggregate_s", aggregate_s);
    Ok(EpochSnapshot {
        epoch,
        clean,
        recon,
        table,
    })
}

/// One cold set-up, from the corpus file to the first `200` answer.
/// Returns the running server, its cell and the set-up seconds.
pub fn setup(
    path: &Path,
    traffic: &TrafficModel,
    trace: &mut Trace,
) -> Result<(Running, Arc<SnapshotCell>, f64), String> {
    let started = Instant::now();
    let snapshot = cold_snapshot(path, traffic, 1, trace)?;
    let cell = Arc::new(SnapshotCell::new());
    cell.store(Arc::new(snapshot));
    let running = Running::start(Arc::clone(&cell), traffic)?;
    if !client::wait_healthy(running.addr, Duration::from_secs(60)) {
        return Err("the server never answered /healthz".to_owned());
    }
    Ok((running, cell, started.elapsed().as_secs_f64()))
}

/// The harness's own read state for the live epoch (the oracle every
/// response is compared with), timed as the serve and tags layers.
pub fn oracle_state(
    cell: &SnapshotCell,
    traffic: &TrafficModel,
    trace: &mut Trace,
) -> Result<ServeState, String> {
    let snapshot = cell.load().ok_or("no epoch published")?;
    let (_, index_s) = trace.time("tags.index_build", || {
        query::build_geo_index(&snapshot.table, traffic.distribution())
    });
    let (state, build_s) = trace.time("serve.state_build", || {
        ServeState::build(snapshot, traffic.distribution())
    });
    trace.record("tags.index_build_s", index_s);
    trace.record("serve.state_build_s", build_s);
    Ok(state)
}

/// Records how much of `setup_s` the set-up layers' medians leave
/// unexplained: binding, the server thread's start and the first
/// request.
fn record_setup_residual(setup_s: f64, trace: &mut Trace) {
    const LAYERS: [&str; 5] = [
        "dataset.load_s",
        "dataset.filter_s",
        "reconstruct.compute_s",
        "reconstruct.aggregate_s",
        "serve.state_build_s",
    ];
    let layers: f64 = trace
        .summary()
        .iter()
        .filter(|(name, _, _)| LAYERS.contains(name))
        .filter_map(|(_, median, _)| *median)
        .sum();
    trace.record("bench.setup_residual_s", setup_s - layers);
}

/// A request plan as distinct targets plus the order they are sent in.
#[derive(Debug, Clone)]
pub struct Plan {
    pub targets: Vec<String>,
    pub order: Vec<u32>,
}

impl Plan {
    /// The seeded `loadgen::zipf_plan` over the epoch, optionally kept
    /// to the per-item routes (`/tag`, `/video`, `/predict`).
    pub fn zipf(snapshot: &EpochSnapshot, seed: u64, point_only: bool) -> Plan {
        let raw = loadgen::zipf_plan(&snapshot.clean, &snapshot.table, PLAN_REQUESTS, seed);
        let mut index = std::collections::HashMap::new();
        let mut targets = Vec::new();
        let mut order = Vec::with_capacity(raw.len());
        for target in raw {
            if point_only && !matches!(route(&target), "tag" | "video" | "predict") {
                continue;
            }
            let id = *index.entry(target.clone()).or_insert_with(|| {
                targets.push(target);
                targets.len() as u32 - 1
            });
            order.push(id);
        }
        Plan { targets, order }
    }

    /// Poisson arrivals at `rate` for `seconds`, walking the plan from
    /// `*cursor` on.
    pub fn shots(&self, rate: f64, seconds: f64, seed: u64, cursor: &mut usize) -> Vec<Shot> {
        poisson_schedule(rate, seconds, seed)
            .into_iter()
            .map(|due| {
                let id = self.order[*cursor % self.order.len()];
                *cursor += 1;
                (id, due)
            })
            .collect()
    }

    /// `loadgen::expected_bodies`, aligned with `targets`.
    pub fn expected(&self, state: &ServeState, traffic: &TrafficModel) -> Vec<(u16, Vec<u8>)> {
        let mut map = loadgen::expected_bodies(state, traffic, &self.targets);
        self.targets
            .iter()
            .map(|t| map.remove(t).unwrap_or((0, Vec::new())))
            .collect()
    }
}

/// The route a target exercises (`stats`, `tag`, ...).
pub fn route(target: &str) -> &str {
    target.split('/').nth(1).unwrap_or("")
}

const ROUTES: [&str; 5] = ["stats", "country", "tag", "video", "predict"];

/// Times parse, render and write for each of the first plan entries
/// in memory, records their medians, and returns the median service
/// time per route (parse + render + write) in microseconds.
pub fn render_sweep(
    state: &ServeState,
    traffic: &TrafficModel,
    plan: &Plan,
    trace: &mut Trace,
) -> [f64; 5] {
    let _span = trace.span("serve.render_sweep");
    let mut parse = Vec::new();
    let mut write = Vec::new();
    let mut render: [Vec<f64>; 5] = Default::default();
    for &id in plan.order.iter().take(RENDER_SWEEP) {
        let target = &plan.targets[id as usize];
        let request = format!("GET {target} HTTP/1.1\r\nConnection: keep-alive\r\n\r\n");
        let t = Instant::now();
        let parsed = RequestReader::new().read_request(&mut request.as_bytes());
        parse.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(parsed.ok());
        let t = Instant::now();
        let (status, reason, body) = state.respond(traffic, target);
        let render_us = t.elapsed().as_secs_f64() * 1e6;
        if let Some(k) = ROUTES.iter().position(|r| *r == route(target)) {
            render[k].push(render_us);
        }
        let mut out = Vec::new();
        let t = Instant::now();
        let written = write_response(
            &mut out,
            status,
            reason,
            "text/plain; charset=utf-8",
            body.as_bytes(),
            true,
        );
        write.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(written.ok());
    }
    let (parse_us, write_us) = (median(&parse), median(&write));
    trace.record("serve.parse_us", parse_us);
    trace.record("serve.write_us", write_us);
    let names = [
        "serve.render_us.stats",
        "serve.render_us.country",
        "serve.render_us.tag",
        "serve.render_us.video",
        "serve.render_us.predict",
    ];
    let mut service = [0.0; 5];
    for k in 0..5 {
        if !render[k].is_empty() {
            let render_us = median(&render[k]);
            trace.record(names[k], render_us);
            service[k] = parse_us + render_us + write_us;
        }
    }
    service
}

/// Records what the client saw beyond the in-memory service time
/// (`serve.wait_us`), the generator's own lateness, and the server's
/// counters.
pub fn record_load_layers(
    samples: &[Sample],
    plan: &Plan,
    service: &[f64; 5],
    stats: &ServeStats,
    trace: &mut Trace,
) {
    let waits: Vec<f64> = samples
        .iter()
        .map(|s| {
            let target = &plan.targets[s.target as usize];
            let k = ROUTES.iter().position(|r| *r == route(target)).unwrap_or(0);
            s.latency_us() - service[k]
        })
        .collect();
    trace.record("serve.wait_us", median(&waits));
    trace.record("bench.generator_late_us", generator_late_p99_us(samples));
    let connections = stats.connections.load(Ordering::Relaxed).max(1);
    let requests = stats.requests.load(Ordering::Relaxed);
    trace.record(
        "serve.requests_per_connection",
        requests as f64 / connections as f64,
    );
    trace.record(
        "serve.http_errors",
        stats.http_errors.load(Ordering::Relaxed) as f64,
    );
    trace.record(
        "serve.epoch_flips",
        stats.epoch_flips.load(Ordering::Relaxed) as f64,
    );
}

/// The generator's p99 wake-up lateness over requests it was idle
/// before, in microseconds.
pub fn generator_late_p99_us(samples: &[Sample]) -> f64 {
    let mut late: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.own_late_ns.map(|ns| ns as f64 / 1e3))
        .collect();
    late.sort_by(f64::total_cmp);
    quantile(&late, 0.99)
}

/// Sorted latencies of `samples` in microseconds.
pub fn latencies(samples: &[Sample]) -> Vec<f64> {
    let mut lat: Vec<f64> = samples.iter().map(Sample::latency_us).collect();
    lat.sort_by(f64::total_cmp);
    lat
}

/// Samples that failed: transport errors and wrong answers.
pub fn failures(samples: &[Sample]) -> u64 {
    samples.iter().filter(|s| s.verdict != Verdict::Ok).count() as u64
}

/// One open-loop phase at `rate` for `seconds`.
fn phase(
    running: &Running,
    plan: &Plan,
    expected: &[(u16, Vec<u8>)],
    rate: f64,
    seconds: f64,
    seed: u64,
    cursor: &mut usize,
) -> Vec<Sample> {
    let shots = plan.shots(rate, seconds, seed, cursor);
    let load = Load {
        addr: running.addr,
        targets: &plan.targets,
        expected: Some(expected),
        per_connection: REQUESTS_PER_CONNECTION,
        spin: true,
        stop: None,
        deadline_ns: Some(((seconds + 0.5) * 1e9) as u64),
    };
    load.run(&shots, Instant::now())
}

/// The median over consecutive stretches of at least 1000 requests (in
/// due order, at most a hundred stretches) of each stretch's p99. Each
/// p99 has at least ten samples above it, and a burst of host noise
/// moves only the stretches it falls in: on the 2-core reference host
/// this held serve-point's p99 to 1.2–1.8 ms over six runs where the
/// plain p99 read 2.7–7.2 ms.
pub fn robust_p99(samples: &[Sample]) -> f64 {
    let mut by_due: Vec<&Sample> = samples.iter().collect();
    by_due.sort_by_key(|s| s.due_ns);
    let stretches = (by_due.len() / 1000).clamp(1, 100);
    let stretch = by_due.len().div_ceil(stretches).max(1);
    let p99s: Vec<f64> = by_due
        .chunks(stretch)
        .map(|chunk| {
            let mut lat: Vec<f64> = chunk.iter().map(|s| s.latency_us()).collect();
            lat.sort_by(f64::total_cmp);
            quantile(&lat, 0.99)
        })
        .collect();
    median(&p99s)
}

/// The saturated phase: for `seconds`, the generator keeps
/// [`PIPELINE_DEPTH`] requests outstanding on its one connection, so
/// the server always has the next request waiting. Returns each
/// window's answer rate (answers after its first, over the time from
/// its first answer to its last) and `(attempted, failed)`.
///
/// With one request outstanding the rate is one round trip per
/// answer, two thread wake-ups each, and on the 2-core reference host
/// those wake-ups swung it between 7k and 30k answers/s across the
/// windows of a few runs (ten-run spread 0.14 on serve-point).
/// Pipelined, the server always has a request waiting. The generator
/// sleeps for answers: over five interleaved pairs of serve-point runs
/// that spread 0.12 where a busy-polling generator spread 0.17.
fn saturate(
    running: &Running,
    plan: &Plan,
    expected: &[(u16, Vec<u8>)],
    seconds: f64,
    cursor: &mut usize,
) -> (Vec<f64>, u64, u64) {
    let deadline_ns = (seconds * 1e9) as u64;
    let load = Load {
        addr: running.addr,
        targets: &plan.targets,
        expected: Some(expected),
        per_connection: REQUESTS_PER_CONNECTION,
        spin: false,
        stop: None,
        deadline_ns: Some(deadline_ns),
    };
    // (answers, first, last answer time) per window.
    let mut windows = vec![(0u64, u64::MAX, 0u64); (deadline_ns / WINDOW_NS) as usize];
    let (mut attempted, mut failed) = (0, 0);
    let origin = Instant::now();
    while origin.elapsed().as_secs_f64() < seconds {
        let targets: Vec<u32> = (0..SATURATE_BATCH)
            .map(|_| {
                let id = plan.order[*cursor % plan.order.len()];
                *cursor += 1;
                id
            })
            .collect();
        let samples = load.run_pipelined(&targets, PIPELINE_DEPTH, origin);
        attempted += samples.len() as u64;
        failed += failures(&samples);
        for s in &samples {
            if let Some(w) = windows.get_mut((s.done_ns / WINDOW_NS) as usize) {
                *w = (w.0 + 1, w.1.min(s.done_ns), w.2.max(s.done_ns));
            }
        }
    }
    let rates: Vec<f64> = windows
        .iter()
        .filter(|w| w.0 > 1 && w.2 > w.1)
        .map(|w| (w.0 - 1) as f64 * 1e9 / (w.2 - w.1) as f64)
        .collect();
    (rates, attempted, failed)
}

/// `serve-zipf` (`point_only` false) and `serve-point` (true).
pub fn run(ctx: &Ctx, point_only: bool, trace: &mut Trace) -> Result<Outcome, String> {
    let rate = if point_only { POINT_RATE } else { ZIPF_RATE };
    let traffic = ctx.traffic();
    let path = ctx.corpus()?;
    crate::sys::reset_peak_rss();

    // Cold set-ups; the last one keeps serving. A traced run also sets
    // up untraced, so the tracing overhead can be read off.
    let mut setups = Vec::new();
    let mut quiet_setups = Vec::new();
    let mut live: Option<(Running, Arc<SnapshotCell>)> = None;
    let rounds = if trace.on() { 2 * SETUPS } else { SETUPS };
    for k in 0..rounds {
        if let Some((running, _)) = live.take() {
            running.stop()?;
        }
        let quiet = trace.on() && k < SETUPS;
        let (running, cell, secs) = if quiet {
            setup(path, &traffic, &mut Trace::new(false, ""))?
        } else {
            setup(path, &traffic, trace)?
        };
        if quiet {
            quiet_setups.push(secs);
        } else {
            setups.push(secs);
        }
        live = Some((running, cell));
    }
    let (running, cell) = live.ok_or("no set-up ran")?;
    let setup_s = median(&setups);
    if trace.on() {
        trace.record("bench.trace_overhead_s", setup_s - median(&quiet_setups));
    }

    let state = oracle_state(&cell, &traffic, trace)?;
    record_setup_residual(setup_s, trace);
    let plan = Plan::zipf(&state.snapshot, ctx.seed, point_only);
    let expected = plan.expected(&state, &traffic);
    let service = if trace.on() {
        let full = Plan::zipf(&state.snapshot, ctx.seed, false);
        render_sweep(&state, &traffic, &full, trace)
    } else {
        [0.0; 5]
    };

    // The fixed-rate phase (which also warms the server up), then the
    // saturated phase.
    let mut cursor = 0usize;
    let fixed = phase(
        &running,
        &plan,
        &expected,
        rate,
        ctx.seconds * FIXED_SHARE,
        ctx.seed,
        &mut cursor,
    );
    let saturate_s = ctx.seconds * (1.0 - FIXED_SHARE);
    let (windows, saturated, saturated_failed) =
        saturate(&running, &plan, &expected, saturate_s, &mut cursor);
    let attempted = fixed.len() as u64 + saturated;
    let failed = failures(&fixed) + saturated_failed;
    let peak_rss_mb = crate::sys::peak_rss_mb();
    if trace.on() {
        record_load_layers(&fixed, &plan, &service, &running.stats, trace);
    }
    running.stop()?;

    Ok(Outcome {
        attempted,
        failed,
        e2e: EndToEnd {
            setup_s,
            throughput_per_s: median(&windows),
            peak_rss_mb,
        },
        notes: vec![
            note("fixed_rate_rps", rate),
            note("fixed_samples", fixed.len()),
            note("saturated_samples", saturated),
            note("saturated_windows", windows.len()),
            note("latency_p50_us", quantile(&latencies(&fixed), 0.5)),
            note("latency_p99_us", robust_p99(&fixed)),
            note("generator_late_p99_us", generator_late_p99_us(&fixed)),
            note("setup_samples", setups.len()),
            note("server_threads", Pool::from_env().threads()),
        ],
    })
}

/// The serving layers on their own, for workloads that make no such
/// calls: one traced cold set-up, the oracle state, the render sweep
/// and a short fixed-rate phase. Returns `(attempted, failed)`.
pub fn layer_pass(ctx: &Ctx, trace: &mut Trace) -> Result<(u64, u64), String> {
    let traffic = ctx.traffic();
    let (running, cell, setup_s) = setup(ctx.corpus()?, &traffic, trace)?;
    let state = oracle_state(&cell, &traffic, trace)?;
    record_setup_residual(setup_s, trace);
    let plan = Plan::zipf(&state.snapshot, ctx.seed, false);
    let expected = plan.expected(&state, &traffic);
    let service = render_sweep(&state, &traffic, &plan, trace);
    let mut cursor = 0;
    let samples = phase(
        &running,
        &plan,
        &expected,
        ZIPF_RATE,
        2.0,
        ctx.seed,
        &mut cursor,
    );
    record_load_layers(&samples, &plan, &service, &running.stats, trace);
    running.stop()?;
    Ok((samples.len() as u64, failures(&samples)))
}
