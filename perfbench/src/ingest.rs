//! `ingest-live`: the crawled corpus streamed through `IngestEngine`
//! in equal batches, each applied and published back to back into the
//! cell a live server reads, while a fixed-rate read load runs.
//!
//! Reads are only fingerprinted while timing; they are checked
//! afterwards by re-streaming the same deterministic batches, so no old
//! epoch stays alive during the timed phase.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tagdist::dataset::{decode_any, filter, Dataset, Mmap};
use tagdist::geo::TrafficModel;
use tagdist::reconstruct::{EpochSnapshot, IngestEngine};
use tagdist_serve::{ServeState, ServeStats};

use crate::client::{Load, Sample, Verdict};
use crate::serve::{self, Plan, Running};
use crate::stats::{fnv1a64, median, quantile};
use crate::trace::Trace;
use crate::{note, Ctx, EndToEnd, Outcome};

/// Equal batches the corpus is streamed in (one epoch each).
const BATCHES: usize = 16;

/// Offered read rate while ingesting, requests per second.
const READ_RATE: f64 = 500.0;

/// Reads per connection: short-lived, so each new connection pins a
/// recent epoch.
const READS_PER_CONNECTION: u32 = 32;

/// Streams per run, at least; more while time remains.
const MIN_STREAMS: usize = 3;

/// Record decodes per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Decodes the corpus file into the owned records the engine consumes.
fn decode(path: &Path) -> Result<Dataset, String> {
    let shown = path.display();
    let map = Mmap::open(path).map_err(|e| format!("cannot open {shown}: {e}"))?;
    decode_any(&map).map_err(|e| format!("cannot parse {shown}: {e}"))
}

/// Batch `b`'s record range.
fn batch(total: usize, b: usize) -> (usize, usize) {
    let size = total.div_ceil(BATCHES).max(1);
    ((b * size).min(total), ((b + 1) * size).min(total))
}

/// One timed stream: what the reads saw, when each epoch's publish
/// began, and how long applying and publishing took.
#[derive(Debug)]
struct Stream {
    reads: Vec<Sample>,
    publish_start_ns: Vec<u64>,
    ingest_s: f64,
    apply_s: f64,
    publish_s: f64,
    stats: Arc<ServeStats>,
}

/// Streams every batch into a fresh engine under a live server; reads
/// start once epoch 1 is published and stop after the last publish.
/// Sample times are nanoseconds from the stream's start.
fn stream(
    dataset: &Dataset,
    traffic: &TrafficModel,
    plan: &Plan,
    seed: u64,
    trace: &Trace,
) -> Result<Stream, String> {
    let mut engine = IngestEngine::new(traffic.distribution().clone());
    let running = Running::start(engine.cell(), traffic)?;
    let stop = AtomicBool::new(false);
    let origin = Instant::now();
    let mut publish_start_ns = Vec::with_capacity(BATCHES);
    let (mut apply_s, mut publish_s) = (0.0, 0.0);
    let mut ingest = |engine: &mut IngestEngine, b: usize| -> Result<(), String> {
        let (from, to) = batch(dataset.len(), b);
        let (delta, secs) = trace.time("reconstruct.apply_range", || {
            engine.apply_range(dataset, from, to)
        });
        delta.map_err(|e| format!("apply_range failed: {e}"))?;
        apply_s += secs;
        publish_start_ns.push(origin.elapsed().as_nanos() as u64);
        let (snapshot, secs) = trace.time("reconstruct.publish", || engine.publish());
        snapshot.map_err(|e| format!("publish failed: {e}"))?;
        publish_s += secs;
        Ok(())
    };
    let shots = plan.shots(READ_RATE, 600.0, seed, &mut 0);
    let load = Load {
        addr: running.addr,
        targets: &plan.targets,
        expected: None,
        per_connection: READS_PER_CONNECTION,
        spin: false,
        stop: Some(&stop),
        deadline_ns: None,
    };
    let mut reads = Vec::new();
    let mut ingest_s = 0.0;
    std::thread::scope(|scope| -> Result<(), String> {
        ingest(&mut engine, 0)?;
        let read_start_ns = origin.elapsed().as_nanos() as u64;
        let reader = scope.spawn(|| load.run(&shots, Instant::now()));
        let streamed = (1..BATCHES).try_for_each(|b| ingest(&mut engine, b));
        ingest_s = origin.elapsed().as_secs_f64();
        stop.store(true, Ordering::SeqCst);
        let mut samples = reader.join().map_err(|_| "read load panicked".to_owned())?;
        for s in &mut samples {
            s.due_ns += read_start_ns;
            s.done_ns += read_start_ns;
        }
        reads = samples;
        streamed
    })?;
    drop(engine);
    let stats = Arc::clone(&running.stats);
    running.stop()?;
    Ok(Stream {
        reads,
        publish_start_ns,
        ingest_s,
        apply_s,
        publish_s,
        stats,
    })
}

/// A read's answer: status, body digest and length.
type Answer = (u16, u64, u32);

/// Re-streams the batches without load, renders every target that was
/// read against every epoch, and checks each read and the final epoch.
/// Returns `(attempted, failed)`.
fn verify(
    dataset: &Dataset,
    traffic: &TrafficModel,
    plan: &Plan,
    streams: &[Stream],
    trace: &mut Trace,
) -> Result<(u64, u64), String> {
    let _span = trace.span("bench.verify");
    let mut read_targets: Vec<u32> = streams
        .iter()
        .flat_map(|s| s.reads.iter().map(|r| r.target))
        .collect();
    read_targets.sort_unstable();
    read_targets.dedup();
    let mut renders: HashMap<u32, Vec<Answer>> = HashMap::new();
    let mut engine = IngestEngine::new(traffic.distribution().clone());
    let mut last: Option<Arc<EpochSnapshot>> = None;
    let mut publish_bytes = 0u64;
    for b in 0..BATCHES {
        let (from, to) = batch(dataset.len(), b);
        engine
            .apply_range(dataset, from, to)
            .map_err(|e| format!("apply_range failed: {e}"))?;
        let (snapshot, _, _, bytes) = trace.time_allocs("reconstruct.publish", || engine.publish());
        publish_bytes += bytes;
        let snapshot = snapshot.map_err(|e| format!("publish failed: {e}"))?;
        let state = ServeState::build(Arc::clone(&snapshot), traffic.distribution());
        for &t in &read_targets {
            let (status, _, body) = state.respond(traffic, &plan.targets[t as usize]);
            renders.entry(t).or_default().push((
                status,
                fnv1a64(body.as_bytes()),
                body.len() as u32,
            ));
        }
        if b + 1 == BATCHES && trace.on() {
            let service = serve::render_sweep(&state, traffic, plan, trace);
            if let Some(s) = streams.last() {
                let reads: Vec<Sample> = streams
                    .iter()
                    .flat_map(|s| s.reads.iter().cloned())
                    .collect();
                serve::record_load_layers(&reads, plan, &service, &s.stats, trace);
            }
        }
        last = Some(snapshot);
    }
    trace.record(
        "reconstruct.publish_alloc_mb",
        publish_bytes as f64 / (1024.0 * 1024.0),
    );
    drop(engine);

    let mut attempted = 1u64;
    let mut failed = 0u64;
    let cold = EpochSnapshot::rebuild(BATCHES as u64, filter(dataset), traffic.distribution())
        .map_err(|e| format!("cold rebuild failed: {e}"))?;
    if last.as_deref() != Some(&cold) {
        eprintln!("perfbench: the final epoch differs from the cold rebuild");
        failed += 1;
    }

    // Each read must equal an epoch published before its answer came
    // back, and the epochs one connection saw must never go backwards.
    for stream in streams {
        let mut by_conn: BTreeMap<u32, Vec<&Sample>> = BTreeMap::new();
        for read in &stream.reads {
            by_conn.entry(read.conn).or_default().push(read);
        }
        for reads in by_conn.values_mut() {
            reads.sort_by_key(|r| r.seq);
            let mut floor = 1usize;
            for read in reads.iter() {
                attempted += 1;
                let answer = (read.status, read.body_hash, read.body_len);
                let epochs = renders.get(&read.target).map_or(&[][..], Vec::as_slice);
                let found = (floor..=epochs.len()).find(|&e| {
                    epochs[e - 1] == answer && stream.publish_start_ns[e - 1] <= read.done_ns
                });
                match (read.verdict, found) {
                    (Verdict::Ok, Some(e)) => floor = e,
                    _ => failed += 1,
                }
            }
        }
    }
    Ok((attempted, failed))
}

/// `ingest-live`.
pub fn run(ctx: &Ctx, trace: &mut Trace) -> Result<Outcome, String> {
    let traffic = ctx.traffic();
    let path = ctx.corpus()?;
    crate::sys::reset_peak_rss();

    // Set-up: the corpus file to owned records, a fresh engine and a
    // bound server.
    let mut setups = Vec::new();
    let mut dataset = None;
    for _ in 0..SETUPS {
        drop(dataset.take());
        let started = Instant::now();
        let records = decode(path)?;
        let engine = IngestEngine::new(traffic.distribution().clone());
        let running = Running::start(engine.cell(), &traffic)?;
        setups.push(started.elapsed().as_secs_f64());
        running.stop()?;
        dataset = Some(records);
    }
    let dataset = dataset.ok_or("no set-up ran")?;

    // The read plan comes from the fully ingested corpus; that state is
    // dropped before timing.
    let plan = {
        let cold = EpochSnapshot::rebuild(BATCHES as u64, filter(&dataset), traffic.distribution())
            .map_err(|e| format!("cold rebuild failed: {e}"))?;
        Plan::zipf(&cold, ctx.seed, false)
    };

    let started = Instant::now();
    let mut streams: Vec<Stream> = Vec::new();
    let mut quiet_s = Vec::new();
    let quiet = Trace::new(false, "");
    while streams.len() < MIN_STREAMS || started.elapsed().as_secs_f64() < ctx.seconds {
        let k = streams.len() + quiet_s.len();
        let seed = ctx.seed.wrapping_add(k as u64);
        if trace.on() && k % 2 == 1 {
            quiet_s.push(stream(&dataset, &traffic, &plan, seed, &quiet)?.ingest_s);
            continue;
        }
        let s = stream(&dataset, &traffic, &plan, seed, trace)?;
        trace.record("reconstruct.apply_s", s.apply_s);
        trace.record("reconstruct.publish_s", s.publish_s);
        streams.push(s);
    }
    let peak_rss_mb = crate::sys::peak_rss_mb();
    let rates: Vec<f64> = streams
        .iter()
        .map(|s| dataset.len() as f64 / s.ingest_s)
        .collect();
    if trace.on() {
        let traced = median(&streams.iter().map(|s| s.ingest_s).collect::<Vec<_>>());
        trace.record("bench.trace_overhead_s", traced - median(&quiet_s));
    }
    let (attempted, failed) = verify(&dataset, &traffic, &plan, &streams, trace)?;

    let reads: Vec<Sample> = streams
        .iter()
        .flat_map(|s| s.reads.iter().cloned())
        .collect();
    let lat = serve::latencies(&reads);
    Ok(Outcome {
        attempted,
        failed,
        e2e: EndToEnd {
            setup_s: median(&setups),
            throughput_per_s: median(&rates),
            peak_rss_mb,
        },
        notes: vec![
            note("fixed_rate_rps", READ_RATE),
            note("read_samples", lat.len()),
            note("latency_p50_us", quantile(&lat, 0.5)),
            note("latency_p99_us", quantile(&lat, 0.99)),
            note("streams", streams.len()),
            note("batches", BATCHES),
            note(
                "generator_late_p99_us",
                serve::generator_late_p99_us(&reads),
            ),
        ],
    })
}

/// The ingest layer on its own, for workloads that make no such calls:
/// one stream of every batch with no server attached.
pub fn layer_pass(ctx: &Ctx, trace: &mut Trace) -> Result<(), String> {
    let traffic = ctx.traffic();
    let dataset = decode(ctx.corpus()?)?;
    let mut engine = IngestEngine::new(traffic.distribution().clone());
    let (mut apply_s, mut publish_s, mut publish_bytes) = (0.0, 0.0, 0u64);
    for b in 0..BATCHES {
        let (from, to) = batch(dataset.len(), b);
        let (delta, secs) = trace.time("reconstruct.apply_range", || {
            engine.apply_range(&dataset, from, to)
        });
        delta.map_err(|e| format!("apply_range failed: {e}"))?;
        apply_s += secs;
        let (snapshot, secs, _, bytes) =
            trace.time_allocs("reconstruct.publish", || engine.publish());
        snapshot.map_err(|e| format!("publish failed: {e}"))?;
        publish_s += secs;
        publish_bytes += bytes;
    }
    trace.record("reconstruct.apply_s", apply_s);
    trace.record("reconstruct.publish_s", publish_s);
    trace.record(
        "reconstruct.publish_alloc_mb",
        publish_bytes as f64 / (1024.0 * 1024.0),
    );
    Ok(())
}
