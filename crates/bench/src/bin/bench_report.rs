//! `bench-report` — machine-readable wall-clock *and allocation*
//! report for the columnar-storage pipeline, with an embedded
//! `tagdist-obs` metrics tree.
//!
//! Runs the three hot stages — `Reconstruction::compute` (Eq. 1),
//! `TagViewTable::aggregate` (Eq. 3) and the E6 leave-one-out
//! prediction evaluation — on the default ~120k-video corpus at 1, 2
//! and 4 worker threads, counting heap allocations per stage through a
//! counting global allocator. The pre-columnar PR 2 storage layout
//! (one boxed `CountryVec` per video / per tag row) is re-implemented
//! inline and measured single-threaded so the report can state the
//! allocation drop directly. Output identity is additionally
//! cross-checked at `TAGDIST_THREADS ∈ {1, 2, 8}`, and a final
//! single-threaded pass runs through the `*_obs` wrappers so the
//! report embeds the same span tree and deterministic counters
//! `tagdist report --metrics` emits (the `metrics` key) — the subtree
//! `cargo xtask bench-gate` regresses against `bench-baseline.json`.
//!
//! Since PR 7 the report also carries a `dataset_io` experiment: the
//! crawled corpus — and, in a full run, synthesized 1M- and 10M-video
//! corpora — is encoded to both on-disk formats (TSV and the `bin v1`
//! binary columnar format) and cold-loaded, measuring wall clock,
//! bytes per video, load allocations and peak live heap through the
//! counting allocator. Binary decode is measured twice: a borrowed
//! `decode_borrowed` over the in-memory image and a zero-copy `Mmap` +
//! `decode_borrowed` load from disk. Both must stay O(sections): the
//! run aborts if either allocates more than a fixed constant, however
//! large the corpus.
//!
//! Since PR 8 a `pipeline_columnar` experiment runs the whole
//! bin-to-report pipeline both ways — the record path
//! (`decode_borrowed` → `to_dataset` → `filter`) against the
//! columnar-native path (`decode_borrowed` → `filter_columnar`)
//! through reconstruction and aggregation — asserting the outputs
//! identical and reporting the wall-clock and allocation gap.
//!
//! Since PR 9 an `incremental_ingest` experiment streams the corpus
//! through the delta-applied ingest engine in fixed-size batches —
//! publishing an epoch snapshot per batch — and races the amortized
//! per-batch cost (apply + publish) against a cold
//! filter → compute → aggregate rebuild, asserting the final snapshot
//! equals the cold state exactly. In a full run the race repeats on
//! the synthesized 1M-video corpus, where per-batch apply must beat
//! the cold rebuild.
//!
//! Since PR 10 a `serve_bench` experiment boots the in-process HTTP
//! server over a pinned epoch snapshot and replays a seeded
//! Zipf-shaped request plan against it (the same plan `tagdist
//! bench-serve` runs over a socket), reporting p50/p99 latency and
//! throughput with every response byte-compared against the offline
//! renderers. The instrumented pass additionally replays the fixed
//! smoke query set so the deterministic `serve.*` counters join the
//! gated metrics subtree.
//!
//! Writes `BENCH_PR10.json` at the repository root by default. Flags:
//! `--smoke` shrinks the corpus to the tiny test world, runs each
//! stage once and defaults the output to `bench-smoke.json` (the CI
//! wiring); a positional argument overrides the output path.
//!
//! Invoke as `cargo xtask bench-report [--smoke]` or directly:
//! `cargo run --release -p tagdist-bench --bin bench-report`.

#![allow(
    unsafe_code,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::float_cmp,
    clippy::missing_panics_doc,
    missing_docs
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tagdist::crawler::{crawl_parallel, crawl_parallel_obs, CrawlConfig};
use tagdist::dataset::{
    binfmt, filter, filter_columnar, tsv, write_binary, CleanDataset, Dataset, DatasetBuilder,
    Mmap, RawPopularity, TagId,
};
use tagdist::geo::{CountryVec, GeoDist, TrafficModel};
use tagdist::obs::{MetricsReport, Recorder};
use tagdist::par::{available_threads, Pool, THREADS_ENV};
use tagdist::reconstruct::{
    EpochSnapshot, IngestEngine, Reconstruction, SnapshotCell, TagViewTable,
};
use tagdist::tags::PredictionEvaluation;
use tagdist::ytsim::{FaultProfile, FlakyPlatform, Platform, WorldConfig};
use tagdist_serve::loadgen::{self, LoadConfig, LoadReport};
use tagdist_serve::server::{ServeState, Server, ServerConfig};

/// Counting allocator: every `alloc`/`alloc_zeroed`/`realloc` bumps a
/// relaxed atomic before delegating to the system allocator, and the
/// live heap size is tracked byte-exactly (a `realloc` counts as
/// free-old + allocate-new) together with its high-water mark, so the
/// `dataset_io` experiment can report peak resident bytes per load.
/// Bench binary only — the library crates stay
/// `#![forbid(unsafe_code)]`.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

fn track_alloc(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        track_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track_alloc(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Restarts the high-water mark from the current live size.
fn reset_peak() {
    PEAK_BYTES.store(live_bytes(), Ordering::Relaxed);
}

fn peak_bytes() -> u64 {
    PEAK_BYTES.load(Ordering::Relaxed)
}

/// Thread counts the timing sweep covers.
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

/// Thread counts the output-identity cross-check covers.
const IDENTITY_THREADS: [usize; 3] = [1, 2, 8];

struct Sample {
    stage: &'static str,
    threads: usize,
    seconds: f64,
    allocations: u64,
}

/// Best-of-`runs` wall clock plus the allocation count of one run.
fn measured<R>(runs: usize, mut f: impl FnMut() -> R) -> (f64, u64, R) {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        drop(r);
    }
    let before = allocation_count();
    let result = f();
    (best, allocation_count() - before, result)
}

/// The borrowed binary decoder allocates only a bounded handful of
/// header temporaries — never per video. The run aborts if
/// a load exceeds this ceiling, whatever the corpus size.
const MAX_BINARY_LOAD_ALLOCATIONS: u64 = 256;

/// Cost of one cold load: best-of-`runs` wall clock, then one extra
/// run observing the allocator (count, peak live delta, and the live
/// delta still held once the loaded structure is returned).
struct LoadCost {
    seconds: f64,
    allocations: u64,
    peak_bytes: u64,
    resident_bytes: u64,
}

fn measured_load<R>(runs: usize, mut f: impl FnMut() -> R) -> (LoadCost, R) {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        drop(r);
    }
    let live0 = live_bytes();
    reset_peak();
    let before = allocation_count();
    let result = f();
    let cost = LoadCost {
        seconds: best,
        allocations: allocation_count() - before,
        peak_bytes: peak_bytes().saturating_sub(live0),
        resident_bytes: live_bytes().saturating_sub(live0),
    };
    (cost, result)
}

/// One corpus measured through both on-disk formats, plus the
/// zero-copy mapped load of the binary one.
struct IoSample {
    corpus: &'static str,
    videos: usize,
    tsv_bytes: usize,
    bin_bytes: usize,
    tsv: LoadCost,
    bin: LoadCost,
    bin_mmap: LoadCost,
}

impl IoSample {
    fn speedup(&self) -> f64 {
        self.tsv.seconds / self.bin.seconds.max(f64::EPSILON)
    }
}

/// Encodes `dataset` to TSV and binary in memory, then cold-loads each
/// encoding: TSV through the row parser into a [`Dataset`], binary
/// twice — a borrowed decode of the in-memory image, and the zero-copy
/// path (the file mapped with [`Mmap`], validated and borrowed in
/// place by `decode_borrowed`, never copied to the heap).
fn dataset_io(corpus: &'static str, dataset: &Dataset, runs: usize) -> IoSample {
    let mut tsv_bytes = Vec::new();
    tsv::write(dataset, &mut tsv_bytes).expect("TSV encode");
    let mut bin_bytes = Vec::new();
    write_binary(dataset, &mut bin_bytes).expect("binary encode");

    let (tsv_cost, parsed) =
        measured_load(runs, || tsv::read(&tsv_bytes[..]).expect("TSV decodes"));
    let (bin_cost, view) = measured_load(runs, || {
        binfmt::decode_borrowed(&bin_bytes).expect("binary decodes")
    });
    let path =
        std::env::temp_dir().join(format!("tagdist-bench-{}-{corpus}.bin", std::process::id()));
    std::fs::write(&path, &bin_bytes).expect("write bin corpus");
    let (mmap_cost, map) = measured_load(runs, || {
        let map = Mmap::open(&path).expect("map bin corpus");
        let view = binfmt::decode_borrowed(&map).expect("binary decodes");
        assert_eq!(view.len(), dataset.len());
        map
    });
    drop(map);
    std::fs::remove_file(&path).expect("remove bin corpus");
    assert_eq!(parsed.len(), dataset.len());
    assert_eq!(view.len(), dataset.len());
    for (what, cost) in [("load", &bin_cost), ("mmap load", &mmap_cost)] {
        assert!(
            cost.allocations <= MAX_BINARY_LOAD_ALLOCATIONS,
            "binary {what} of {} videos took {} allocations — the decoder \
             must stay O(sections)",
            dataset.len(),
            cost.allocations
        );
    }
    eprintln!(
        "dataset_io {corpus}: {} videos — TSV {} B, {:.3}s, {} allocs; \
         bin {} B, {:.3}s, {} allocs ({:.1}x faster); \
         mmap {:.3}s, {} allocs, {} heap B resident",
        dataset.len(),
        tsv_bytes.len(),
        tsv_cost.seconds,
        tsv_cost.allocations,
        bin_bytes.len(),
        bin_cost.seconds,
        bin_cost.allocations,
        tsv_cost.seconds / bin_cost.seconds.max(f64::EPSILON),
        mmap_cost.seconds,
        mmap_cost.allocations,
        mmap_cost.resident_bytes
    );
    IoSample {
        corpus,
        videos: dataset.len(),
        tsv_bytes: tsv_bytes.len(),
        bin_bytes: bin_bytes.len(),
        tsv: tsv_cost,
        bin: bin_cost,
        bin_mmap: mmap_cost,
    }
}

/// One variant of the end-to-end bin-to-report pipeline.
struct PipelineCost {
    seconds: f64,
    allocations: u64,
    peak_bytes: u64,
    filter_allocations: u64,
}

/// The `pipeline_columnar` experiment: the same `bin v1` image driven
/// through reconstruction and aggregation along both read paths.
///
/// * **record** — borrowed decode, `to_dataset` back into per-video
///   records, then the record `filter` (what every consumer did before
///   the columnar-native path existed);
/// * **columnar** — borrowed decode straight into `filter_columnar`,
///   no record materialization anywhere.
///
/// Returns both costs after asserting the two `CleanDataset`s, the
/// reconstructions and the tag tables are equal.
fn pipeline_columnar(
    corpus: &'static str,
    bin: &[u8],
    traffic: &GeoDist,
    runs: usize,
) -> (PipelineCost, PipelineCost) {
    let mut filter_record_allocs = 0;
    let mut run_record = || {
        let view = binfmt::decode_borrowed(bin).expect("binary decodes");
        // The record path cannot filter without records: its filter
        // stage is materialize-then-filter, and is counted as such.
        let before = allocation_count();
        let dataset = view.to_dataset();
        let clean = filter(&dataset);
        filter_record_allocs = allocation_count() - before;
        let recon = Reconstruction::compute(&clean, traffic).expect("corpus carries views");
        let table = TagViewTable::aggregate(&clean, &recon);
        (clean, recon, table)
    };
    let mut filter_columnar_allocs = 0;
    let mut run_columnar = || {
        let view = binfmt::decode_borrowed(bin).expect("binary decodes");
        let before = allocation_count();
        let clean = filter_columnar(&view);
        filter_columnar_allocs = allocation_count() - before;
        let recon = Reconstruction::compute(&clean, traffic).expect("corpus carries views");
        let table = TagViewTable::aggregate(&clean, &recon);
        (clean, recon, table)
    };
    let (record_cost, record_out) = measured_load(runs, &mut run_record);
    let record = PipelineCost {
        seconds: record_cost.seconds,
        allocations: record_cost.allocations,
        peak_bytes: record_cost.peak_bytes,
        filter_allocations: filter_record_allocs,
    };
    let (columnar_cost, columnar_out) = measured_load(runs, &mut run_columnar);
    let columnar = PipelineCost {
        seconds: columnar_cost.seconds,
        allocations: columnar_cost.allocations,
        peak_bytes: columnar_cost.peak_bytes,
        filter_allocations: filter_columnar_allocs,
    };
    assert_eq!(
        record_out.0, columnar_out.0,
        "record and columnar filters disagree"
    );
    assert_eq!(
        record_out.1, columnar_out.1,
        "record and columnar reconstructions disagree"
    );
    assert_eq!(
        record_out.2, columnar_out.2,
        "record and columnar tag tables disagree"
    );
    eprintln!(
        "pipeline_columnar {corpus}: record {:.3}s / {} allocs (filter {}); \
         columnar {:.3}s / {} allocs (filter {}) — {:.2}x wall clock, \
         {:.1}x filter allocations",
        record.seconds,
        record.allocations,
        record.filter_allocations,
        columnar.seconds,
        columnar.allocations,
        columnar.filter_allocations,
        record.seconds / columnar.seconds.max(f64::EPSILON),
        record.filter_allocations as f64 / columnar.filter_allocations.max(1) as f64
    );
    (record, columnar)
}

/// A paper-scale corpus synthesized directly through the
/// [`DatasetBuilder`]: seeded, deterministic, with the §2 defect mix
/// (missing and corrupt popularity vectors) and escape-heavy tags, but
/// without paying for a million-video platform crawl.
fn synthetic_corpus(videos: usize, countries: usize) -> Dataset {
    let mut builder = DatasetBuilder::new(countries);
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        state >> 11
    };
    let mut tags: Vec<String> = Vec::with_capacity(6);
    for i in 0..videos {
        tags.clear();
        let tag_count = 1 + (next() % 7) as usize;
        for _ in 0..tag_count {
            let id = next() % 120_000;
            if id % 997 == 0 {
                // Escape-heavy names exercise the TSV escaper.
                tags.push(format!("genre,\\{id}\tlive"));
            } else {
                tags.push(format!("tag-{id}"));
            }
        }
        let popularity = match next() % 10 {
            0 => RawPopularity::Missing,
            1 => RawPopularity::Corrupt(vec![63, 1, 2]),
            _ => {
                let raw: Vec<u8> = (0..countries).map(|_| (next() % 62) as u8).collect();
                RawPopularity::decode(raw, countries)
            }
        };
        let refs: Vec<&str> = tags.iter().map(String::as_str).collect();
        builder.push_video_titled(
            &format!("v{i:07}"),
            &format!("Video {i}"),
            next() % 5_000_000,
            &refs,
            popularity,
        );
    }
    builder.build()
}

/// One `incremental_ingest` race: the corpus streamed through the
/// delta-applied engine in fixed-size batches vs a cold rebuild.
struct IngestCost {
    corpus: &'static str,
    videos: usize,
    batches: usize,
    apply_seconds: f64,
    publish_seconds: f64,
    amortized_batch_seconds: f64,
    cold_seconds: f64,
    speedup_amortized_vs_cold: f64,
    allocations: u64,
}

/// Streams `dataset` through an [`IngestEngine`] in `batches`
/// fixed-size batches, publishing an epoch snapshot after each — the
/// cost of keeping a queryable state fresh mid-crawl — then rebuilds
/// the same state cold (filter → compute → aggregate) and asserts the
/// two equal exactly. The headline number is the amortized per-batch
/// refresh (apply + publish, divided by batches) against the cold
/// rebuild a consumer would otherwise pay per refresh.
fn incremental_ingest(
    corpus: &'static str,
    dataset: &Dataset,
    traffic: &GeoDist,
    batches: usize,
) -> IngestCost {
    std::env::set_var(THREADS_ENV, "1");
    let before_allocs = allocation_count();
    let mut engine = IngestEngine::new(traffic.clone());
    let total = dataset.len();
    let size = total.div_ceil(batches).max(1);
    let mut apply_seconds = 0.0;
    let mut publish_seconds = 0.0;
    let mut from = 0;
    while from < total {
        let to = (from + size).min(total);
        let t = Instant::now();
        engine
            .apply_range(dataset, from, to)
            .expect("batch applies");
        apply_seconds += t.elapsed().as_secs_f64();
        let t = Instant::now();
        engine.publish().expect("epoch publishes");
        publish_seconds += t.elapsed().as_secs_f64();
        from = to;
    }
    let allocations = allocation_count() - before_allocs;
    let snapshot = engine.cell().load().expect("epochs published");

    let t = Instant::now();
    let clean = filter(dataset);
    let recon = Reconstruction::compute(&clean, traffic).expect("corpus carries views");
    let table = TagViewTable::aggregate(&clean, &recon);
    let cold_seconds = t.elapsed().as_secs_f64();
    std::env::remove_var(THREADS_ENV);

    // The rebuild oracle, enforced on the benchmark corpus itself.
    assert_eq!(snapshot.clean, clean, "{corpus}: clean state drifted");
    assert_eq!(snapshot.recon, recon, "{corpus}: reconstruction drifted");
    assert_eq!(snapshot.table, table, "{corpus}: aggregates drifted");

    let amortized = (apply_seconds + publish_seconds) / batches as f64;
    eprintln!(
        "incremental_ingest {corpus}: {batches} batches, amortized {amortized:.3}s/batch \
         vs cold {cold_seconds:.3}s — {:.2}x",
        cold_seconds / amortized.max(f64::EPSILON)
    );
    IngestCost {
        corpus,
        videos: total,
        batches,
        apply_seconds,
        publish_seconds,
        amortized_batch_seconds: amortized,
        cold_seconds,
        speedup_amortized_vs_cold: cold_seconds / amortized.max(f64::EPSILON),
        allocations,
    }
}

/// An in-process `tagdist serve` instance on an ephemeral port,
/// running its accept loop on a background thread with a dedicated
/// worker pool.
struct LiveServer {
    addr: String,
    stats: Arc<tagdist_serve::server::ServeStats>,
    stop: Arc<AtomicBool>,
    worker: std::thread::JoinHandle<Result<(), String>>,
}

/// Publishes `snapshot` as epoch 1 and boots the server over it.
fn boot_server(snapshot: Arc<EpochSnapshot>, traffic: TrafficModel, threads: usize) -> LiveServer {
    let cell = Arc::new(SnapshotCell::new());
    cell.store(snapshot);
    let server = Server::bind("127.0.0.1:0", cell, traffic, ServerConfig::default())
        .expect("server binds an ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let stats = server.stats();
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let worker = std::thread::spawn(move || {
        let pool = Pool::new(threads);
        server.run(&pool, &flag)
    });
    LiveServer {
        addr,
        stats,
        stop,
        worker,
    }
}

impl LiveServer {
    /// Signals shutdown and joins the accept loop, asserting it exits
    /// cleanly (the same contract the CI lane checks via SIGTERM).
    fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.worker
            .join()
            .expect("server thread joins")
            .expect("server accept loop exits cleanly");
    }
}

/// One `serve_bench` run: the Zipf load replayed against a live
/// in-process server.
struct ServeBenchCost {
    corpus: &'static str,
    videos: usize,
    concurrency: usize,
    server_threads: usize,
    report: LoadReport,
}

/// Boots the server over `dataset`'s epoch-1 snapshot and replays a
/// seeded Zipf-shaped plan of `requests` targets from `concurrency`
/// client workers — the in-process twin of `tagdist bench-serve`.
/// Every response is byte-compared against the offline renderers; any
/// transport or identity failure aborts the report.
fn serve_bench(
    corpus: &'static str,
    dataset: &Dataset,
    traffic: &GeoDist,
    requests: u64,
    concurrency: usize,
) -> ServeBenchCost {
    let model = TrafficModel::from_distribution(traffic.clone());
    let clean = filter(dataset);
    let videos = clean.len();
    let snapshot = Arc::new(EpochSnapshot::rebuild(1, clean, traffic).expect("snapshot rebuilds"));
    let state = ServeState::build(Arc::clone(&snapshot), traffic);
    let server_threads = available_threads().clamp(1, 4);
    let live = boot_server(snapshot, model.clone(), server_threads);
    let cfg = LoadConfig {
        addr: live.addr.clone(),
        requests,
        concurrency,
        seed: 42,
        read_timeout_ms: 30_000,
    };
    let report = loadgen::run(&cfg, &state, &model).expect("load run completes");
    live.shutdown();
    assert_eq!(
        report.failures, 0,
        "{corpus}: transport failures against localhost"
    );
    assert_eq!(
        report.identity_failures, 0,
        "{corpus}: served bytes != offline bytes"
    );
    eprintln!(
        "serve_bench {corpus}: {} requests @ {concurrency} clients over {server_threads} \
         server threads — p50 {} us, p99 {} us, {:.0} req/s",
        report.requests, report.p50_us, report.p99_us, report.throughput_rps
    );
    ServeBenchCost {
        corpus,
        videos,
        concurrency,
        server_threads,
        report,
    }
}

fn stage_outputs(
    clean: &CleanDataset,
    traffic: &GeoDist,
) -> (Reconstruction, TagViewTable, PredictionEvaluation) {
    let recon = Reconstruction::compute(clean, traffic).expect("corpus carries views");
    let table = TagViewTable::aggregate(clean, &recon);
    let eval = PredictionEvaluation::evaluate(clean, &recon, &table, traffic);
    (recon, table, eval)
}

/// The PR 2 reconstruction storage, verbatim: one boxed `CountryVec`
/// per video, three temporaries per inversion.
fn legacy_reconstruct(clean: &CleanDataset, traffic: &GeoDist) -> Vec<CountryVec> {
    clean
        .iter()
        .map(|v| {
            let intensities = v.popularity.as_country_vec();
            let weighted = intensities.hadamard(traffic.as_vec()).expect("same world");
            let mass = weighted.sum();
            weighted.scaled(v.total_views as f64 / mass)
        })
        .collect()
}

/// The PR 2 aggregation storage, verbatim: a full-vocabulary
/// `Vec<Option<CountryVec>>` with one boxed row per populated tag.
fn legacy_aggregate(
    clean: &CleanDataset,
    views: &[CountryVec],
) -> (Vec<Option<CountryVec>>, Vec<usize>) {
    let country_count = clean.country_count();
    let mut rows: Vec<Option<CountryVec>> = vec![None; clean.tags().len()];
    let mut counts = vec![0usize; clean.tags().len()];
    for (pos, video) in clean.iter().enumerate() {
        for &tag in video.tags {
            let row = rows[tag.index()].get_or_insert_with(|| CountryVec::zeros(country_count));
            row.accumulate(&views[pos]).expect("same world");
            counts[tag.index()] += 1;
        }
    }
    (rows, counts)
}

/// One instrumented single-threaded pass through the three stages,
/// recorded through `tagdist-obs`. Pinned at one worker so the
/// allocation counters (`alloc.*`) are deterministic — this is the
/// subtree `cargo xtask bench-gate` compares against the checked-in
/// baseline.
///
/// Also runs a fault-injected crawl (seeded `flaky` profile) through
/// the instrumented driver so the retry/breaker/throttle counters
/// (`crawl.retries`, `crawl.breaker_trips`, `crawl.*_wait_ms`, …) are
/// part of the gated subtree. The crawl sits outside every alloc
/// window — its counters are exact functions of the fault pattern,
/// not of allocator behaviour.
fn instrumented_pass(
    platform: &Platform,
    raw: &Dataset,
    clean: &CleanDataset,
    traffic: &GeoDist,
) -> MetricsReport {
    std::env::set_var(THREADS_ENV, "1");
    let obs = Recorder::new();
    {
        let root = obs.span("bench");
        // The columnar codec, gated end to end: encode allocations and
        // the `dataset.*` section-size gauges are exact functions of
        // the seeded corpus.
        let before = allocation_count();
        let mut bin = Vec::new();
        write_binary(raw, &mut bin).expect("binary encode");
        obs.add("alloc.dataset_bin_encode", allocation_count() - before);
        let view = binfmt::decode_borrowed(&bin).expect("binary decode");
        view.record_gauges(&obs);
        assert_eq!(view.len(), raw.len());
        // The two filter paths, gated against each other: the record
        // path pays record materialization, the columnar path filters
        // the borrowed sections in place. Outputs must agree exactly.
        let before = allocation_count();
        let clean_record = filter(&view.to_dataset());
        obs.add("alloc.filter_record", allocation_count() - before);
        let before = allocation_count();
        let clean_columnar = filter_columnar(&view);
        obs.add("alloc.filter_columnar", allocation_count() - before);
        assert_eq!(clean_record, clean_columnar);
        assert_eq!(&clean_record, clean);
        // The zero-copy load, gated end to end: a mapped file decodes
        // borrowed with O(sections) heap traffic, and the mapped size
        // is an exact function of the seeded corpus.
        let path =
            std::env::temp_dir().join(format!("tagdist-bench-{}-obs.bin", std::process::id()));
        std::fs::write(&path, &bin).expect("write bin corpus");
        let before = allocation_count();
        let map = Mmap::open(&path).expect("map bin corpus");
        let mapped = binfmt::decode_borrowed(&map).expect("binary decode");
        obs.add("alloc.dataset_mmap_load", allocation_count() - before);
        obs.add("dataset.mmap_bytes", map.len() as u64);
        obs.add("dataset.mmap_videos", mapped.len() as u64);
        drop(map);
        std::fs::remove_file(&path).expect("remove bin corpus");
        let mut fault = FaultProfile::flaky();
        fault.with_seed(0xBE7C_AA17);
        let flaky = FlakyPlatform::new(platform, fault);
        let faulty = crawl_parallel_obs(&flaky, &CrawlConfig::default(), &root);
        assert_eq!(
            faulty.stats.exhausted_retries, 0,
            "the flaky profile must stay within the retry budget"
        );
        let before = allocation_count();
        let recon =
            Reconstruction::compute_obs(clean, traffic, &root).expect("corpus carries views");
        obs.add("alloc.reconstruct_compute", allocation_count() - before);
        let before = allocation_count();
        let table = TagViewTable::aggregate_obs(clean, &recon, &root);
        obs.add("alloc.tag_aggregate", allocation_count() - before);
        let before = allocation_count();
        let _eval = PredictionEvaluation::evaluate_obs(clean, &recon, &table, traffic, &root);
        obs.add("alloc.e6_evaluate", allocation_count() - before);
        // The incremental ingest engine, gated end to end: stream the
        // raw corpus in three batches and record the deterministic
        // `ingest.*` counters (batches, rows touched, epoch flips are
        // exact functions of the seeded corpus). The final epoch must
        // replay the cold filter exactly.
        let before = allocation_count();
        let mut engine = IngestEngine::new(traffic.clone());
        let step = raw.len().div_ceil(3).max(1);
        let mut from = 0;
        while from < raw.len() {
            let to = (from + step).min(raw.len());
            engine.apply_range(raw, from, to).expect("batch applies");
            engine.publish().expect("epoch publishes");
            from = to;
        }
        engine.record_obs(&root);
        obs.add("alloc.incremental_ingest", allocation_count() - before);
        let streamed = engine.cell().load().expect("epochs published");
        assert_eq!(
            &streamed.clean, clean,
            "streamed clean state must equal the cold filter"
        );
        assert_eq!(
            streamed.table, table,
            "streamed aggregates must equal the cold table"
        );
        // The serve layer, gated end to end: an in-process server over
        // the epoch snapshot answers the fixed smoke query set, every
        // response byte-compared against the offline renderers. The
        // resulting `serve.*` counters are exact functions of the
        // seeded corpus — six `Connection: close` requests, no Date
        // header, so connections, requests, pins and bytes written
        // never vary across runs or hosts.
        let model = TrafficModel::from_distribution(traffic.clone());
        let snapshot = Arc::new(
            EpochSnapshot::rebuild(1, clean_columnar, traffic).expect("snapshot rebuilds"),
        );
        let state = ServeState::build(Arc::clone(&snapshot), traffic);
        let live = boot_server(snapshot, model.clone(), 1);
        let cfg = LoadConfig {
            addr: live.addr.clone(),
            ..LoadConfig::default()
        };
        let stats = Arc::clone(&live.stats);
        let smoke = loadgen::run_smoke(&cfg, &state, &model, None).expect("smoke replay completes");
        live.shutdown();
        assert_eq!(smoke.identity_failures, 0, "served bytes != offline bytes");
        stats.record_obs(&root);
    }
    std::env::remove_var(THREADS_ENV);
    obs.finish()
}

fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// True when the working tree differs from `git_commit()` — the
/// committed hash alone would misattribute numbers measured on
/// uncommitted code.
fn git_dirty() -> bool {
    std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .is_none_or(|out| !out.stdout.is_empty())
}

/// `combined_seconds.threads_1` from the committed PR 2 baseline.
fn pr2_combined_threads_1() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_PR2.json").ok()?;
    let line = text.lines().find(|l| l.contains("\"combined_seconds\""))?;
    let rest = &line[line.find("\"threads_1\":")? + "\"threads_1\":".len()..];
    let number: String = rest
        .chars()
        .skip_while(|c| c.is_whitespace())
        .take_while(|c| c.is_ascii_digit() || *c == '.')
        .collect();
    number.parse().ok()
}

fn main() {
    let mut smoke = false;
    let mut out_arg: Option<String> = None;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_arg = Some(arg);
        }
    }
    let out_path = out_arg.unwrap_or_else(|| {
        if smoke {
            "bench-smoke.json".to_owned()
        } else {
            "BENCH_PR10.json".to_owned()
        }
    });
    let runs = if smoke { 1 } else { 3 };

    // Shared setup (not part of any measurement): the default-scale
    // world — or the tiny test world under --smoke — crawled and
    // filtered exactly as `Study::try_run` does.
    let world = if smoke {
        WorldConfig::tiny()
    } else {
        WorldConfig::default()
    };
    let videos_config = world.videos;
    let world_seed = world.seed;
    eprintln!("generating {videos_config}-video world + crawl (one-time setup)...");
    let platform = Platform::generate(world);
    let outcome = crawl_parallel(&platform, &CrawlConfig::default());
    let clean = filter(&outcome.dataset);
    let traffic = platform.true_traffic();
    eprintln!(
        "corpus ready: {} crawled, {} filtered, {} tags",
        outcome.stats.fetched,
        clean.len(),
        clean.tags().len()
    );

    let mut samples: Vec<Sample> = Vec::new();
    for threads in THREAD_COUNTS {
        std::env::set_var(THREADS_ENV, threads.to_string());
        assert_eq!(Pool::from_env().threads(), threads);

        let (secs, allocs, recon) = measured(runs, || {
            Reconstruction::compute(&clean, traffic).expect("corpus carries views")
        });
        eprintln!("reconstruction_compute @ {threads} threads: {secs:.3}s, {allocs} allocations");
        samples.push(Sample {
            stage: "reconstruction_compute",
            threads,
            seconds: secs,
            allocations: allocs,
        });

        let (secs, allocs, table) = measured(runs, || TagViewTable::aggregate(&clean, &recon));
        eprintln!("tag_aggregate          @ {threads} threads: {secs:.3}s, {allocs} allocations");
        samples.push(Sample {
            stage: "tag_aggregate",
            threads,
            seconds: secs,
            allocations: allocs,
        });

        let (secs, allocs, _eval) = measured(runs, || {
            PredictionEvaluation::evaluate(&clean, &recon, &table, traffic)
        });
        eprintln!("e6_evaluate            @ {threads} threads: {secs:.3}s, {allocs} allocations");
        samples.push(Sample {
            stage: "e6_evaluate",
            threads,
            seconds: secs,
            allocations: allocs,
        });
    }

    // The determinism contract, enforced on the real corpus: every
    // stage's output — and the rendered E6 report bytes — must be
    // identical at every thread count, including counts above the
    // timing sweep.
    let mut identical = true;
    let mut reference: Option<(Reconstruction, TagViewTable, PredictionEvaluation, String)> = None;
    for threads in IDENTITY_THREADS {
        std::env::set_var(THREADS_ENV, threads.to_string());
        let (r, t, e) = stage_outputs(&clean, traffic);
        let rendered = e.to_string();
        match &reference {
            None => reference = Some((r, t, e, rendered)),
            Some((r0, t0, e0, s0)) => {
                identical &= *r0 == r && *t0 == t && *e0 == e && *s0 == rendered;
            }
        }
    }
    assert!(identical, "outputs drifted across thread counts");

    // The pre-columnar layouts, single-threaded, for the allocation
    // comparison the PR is about.
    std::env::set_var(THREADS_ENV, "1");
    let (legacy_recon_secs, legacy_recon_allocs, legacy_views) =
        measured(runs, || legacy_reconstruct(&clean, traffic));
    eprintln!(
        "legacy reconstruction  @ 1 threads: {legacy_recon_secs:.3}s, \
         {legacy_recon_allocs} allocations"
    );
    let (legacy_agg_secs, legacy_agg_allocs, (legacy_rows, _)) =
        measured(runs, || legacy_aggregate(&clean, &legacy_views));
    eprintln!(
        "legacy aggregation     @ 1 threads: {legacy_agg_secs:.3}s, \
         {legacy_agg_allocs} allocations"
    );
    std::env::remove_var(THREADS_ENV);

    // The whole point of the storage swap: same bits, fewer boxes.
    // Both stages reproduce the boxed layouts' outputs exactly.
    let (recon0, table0, ..) = reference.as_ref().expect("identity sweep ran");
    for (pos, row) in legacy_views.iter().enumerate() {
        assert_eq!(
            recon0.views(pos),
            Some(row.as_slice()),
            "columnar reconstruction drifted from the boxed layout at video {pos}"
        );
    }
    for (index, row) in legacy_rows.iter().enumerate() {
        assert_eq!(
            table0.views(TagId::from_index(index)),
            row.as_ref().map(CountryVec::as_slice),
            "columnar aggregate drifted from the boxed layout at tag {index}"
        );
    }
    eprintln!("columnar outputs match the boxed layouts bit for bit");

    // The on-disk formats, measured end to end on the crawled corpus
    // and — in a full run — on synthesized paper-scale corpora, with
    // the bin-to-report pipeline raced record vs columnar on the
    // largest corpus that still fits a multi-run sweep.
    let mut io_samples = vec![dataset_io("crawl", &outcome.dataset, runs)];
    let (pipeline_corpus, pipeline_videos, pipeline_record, pipeline_columnar_cost);
    if smoke {
        let mut bin = Vec::new();
        write_binary(&outcome.dataset, &mut bin).expect("binary encode");
        let (r, c) = pipeline_columnar("crawl", &bin, traffic, runs);
        (pipeline_corpus, pipeline_videos) = ("crawl", outcome.dataset.len());
        (pipeline_record, pipeline_columnar_cost) = (r, c);
    } else {
        eprintln!("synthesizing 1M-video corpus (one-time setup)...");
        let synth = synthetic_corpus(1_000_000, clean.country_count());
        io_samples.push(dataset_io("synthetic_1m", &synth, 2));
        let mut bin = Vec::new();
        write_binary(&synth, &mut bin).expect("binary encode");
        drop(synth);
        let (r, c) = pipeline_columnar("synthetic_1m", &bin, traffic, 2);
        (pipeline_corpus, pipeline_videos) = ("synthetic_1m", 1_000_000);
        (pipeline_record, pipeline_columnar_cost) = (r, c);
        drop(bin);
        eprintln!("synthesizing 10M-video corpus (one-time setup)...");
        let synth = synthetic_corpus(10_000_000, clean.country_count());
        io_samples.push(dataset_io("synthetic_10m", &synth, 1));
    }

    // The PR 9 race: delta-applied streaming vs cold rebuild, on the
    // crawled corpus and — in a full run — the 1M-video synthesis.
    let mut ingest_costs = vec![incremental_ingest("crawl", &outcome.dataset, traffic, 8)];
    if !smoke {
        eprintln!("synthesizing 1M-video corpus for incremental ingest (one-time setup)...");
        let synth = synthetic_corpus(1_000_000, clean.country_count());
        ingest_costs.push(incremental_ingest("synthetic_1m", &synth, traffic, 8));
    }

    // The PR 10 serve layer: a live in-process server raced under the
    // seeded Zipf load — the crawled corpus in a smoke run, a
    // synthesized 200k-video corpus under a deeper plan in a full run.
    let serve_cost = if smoke {
        serve_bench("crawl", &outcome.dataset, traffic, 2_000, 4)
    } else {
        eprintln!("synthesizing 200k-video corpus for serve bench (one-time setup)...");
        let synth = synthetic_corpus(200_000, clean.country_count());
        serve_bench("synthetic_200k", &synth, traffic, 1_000_000, 8)
    };

    // The observability pass: same stages, recorded spans + counters.
    let metrics = instrumented_pass(&platform, &outcome.dataset, &clean, traffic);
    eprintln!(
        "instrumented pass: {} spans, {} deterministic counters",
        metrics.spans.len(),
        metrics.counters.len()
    );

    let find = |stage: &str, threads: usize| -> &Sample {
        samples
            .iter()
            .find(|s| s.stage == stage && s.threads == threads)
            .expect("stage was measured")
    };
    let total = |threads: usize| -> f64 {
        samples
            .iter()
            .filter(|s| s.threads == threads)
            .map(|s| s.seconds)
            .sum()
    };
    let drop_ratio = |legacy: u64, new: u64| legacy as f64 / new.max(1) as f64;
    let recon_drop = drop_ratio(
        legacy_recon_allocs,
        find("reconstruction_compute", 1).allocations,
    );
    let agg_drop = drop_ratio(legacy_agg_allocs, find("tag_aggregate", 1).allocations);
    eprintln!("allocation drop: reconstruction {recon_drop:.1}x, aggregation {agg_drop:.1}x");

    let baseline_pr2 = if smoke {
        None
    } else {
        pr2_combined_threads_1()
    };
    let speedup_vs_pr2 = baseline_pr2.map(|b| b / total(1).max(f64::EPSILON));
    if let Some(s) = speedup_vs_pr2 {
        eprintln!(
            "single-thread combined: {:.3}s vs PR 2 baseline {:.3}s — {s:.2}x",
            total(1),
            baseline_pr2.unwrap_or(0.0)
        );
    }
    let host = available_threads();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"pr\": 10,");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"runs_per_stage\": {runs},");
    let _ = writeln!(json, "  \"host_available_threads\": {host},");
    let _ = writeln!(json, "  \"provenance\": {{");
    let _ = writeln!(json, "    \"git_commit\": \"{}\",", git_commit());
    let _ = writeln!(json, "    \"git_worktree_dirty\": {},", git_dirty());
    let _ = writeln!(json, "    \"world_seed\": {world_seed},");
    let _ = writeln!(json, "    \"videos_configured\": {videos_config},");
    let _ = writeln!(json, "    \"allocation_counter\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"corpus\": {{");
    let _ = writeln!(json, "    \"videos_configured\": {videos_config},");
    let _ = writeln!(json, "    \"videos_crawled\": {},", outcome.stats.fetched);
    let _ = writeln!(json, "    \"videos_filtered\": {},", clean.len());
    let _ = writeln!(json, "    \"tags\": {},", clean.tags().len());
    let _ = writeln!(json, "    \"countries\": {}", clean.country_count());
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"experiments\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"threads\": {}, \"seconds\": {:.6}, \
             \"allocations\": {} }}{comma}",
            s.stage, s.threads, s.seconds, s.allocations
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"legacy_single_thread\": [");
    let _ = writeln!(
        json,
        "    {{ \"name\": \"reconstruction_compute\", \"seconds\": {legacy_recon_secs:.6}, \
         \"allocations\": {legacy_recon_allocs} }},"
    );
    let _ = writeln!(
        json,
        "    {{ \"name\": \"tag_aggregate\", \"seconds\": {legacy_agg_secs:.6}, \
         \"allocations\": {legacy_agg_allocs} }}"
    );
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"allocation_drop\": {{ \"reconstruction_compute\": {recon_drop:.1}, \
         \"tag_aggregate\": {agg_drop:.1} }},"
    );
    let _ = writeln!(json, "  \"dataset_io\": [");
    for (i, s) in io_samples.iter().enumerate() {
        let comma = if i + 1 == io_samples.len() { "" } else { "," };
        let per = |bytes: usize| bytes as f64 / s.videos.max(1) as f64;
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"corpus\": \"{}\",", s.corpus);
        let _ = writeln!(json, "      \"videos\": {},", s.videos);
        let _ = writeln!(
            json,
            "      \"tsv\": {{ \"bytes\": {}, \"bytes_per_video\": {:.2}, \
             \"cold_load_seconds\": {:.6}, \"load_allocations\": {}, \
             \"peak_load_bytes\": {}, \"resident_bytes\": {} }},",
            s.tsv_bytes,
            per(s.tsv_bytes),
            s.tsv.seconds,
            s.tsv.allocations,
            s.tsv.peak_bytes,
            s.tsv.resident_bytes
        );
        let _ = writeln!(
            json,
            "      \"bin\": {{ \"bytes\": {}, \"bytes_per_video\": {:.2}, \
             \"cold_load_seconds\": {:.6}, \"load_allocations\": {}, \
             \"peak_load_bytes\": {}, \"resident_bytes\": {} }},",
            s.bin_bytes,
            per(s.bin_bytes),
            s.bin.seconds,
            s.bin.allocations,
            s.bin.peak_bytes,
            s.bin.resident_bytes
        );
        let _ = writeln!(
            json,
            "      \"bin_mmap\": {{ \"cold_load_seconds\": {:.6}, \
             \"load_allocations\": {}, \"peak_load_bytes\": {}, \
             \"resident_bytes\": {} }},",
            s.bin_mmap.seconds,
            s.bin_mmap.allocations,
            s.bin_mmap.peak_bytes,
            s.bin_mmap.resident_bytes
        );
        let _ = writeln!(
            json,
            "      \"bin_cold_load_speedup_vs_tsv\": {:.2}",
            s.speedup()
        );
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"pipeline_columnar\": {{");
    let _ = writeln!(json, "    \"corpus\": \"{pipeline_corpus}\",");
    let _ = writeln!(json, "    \"videos\": {pipeline_videos},");
    for (key, cost, comma) in [
        ("record", &pipeline_record, ","),
        ("columnar", &pipeline_columnar_cost, ","),
    ] {
        let _ = writeln!(
            json,
            "    \"{key}\": {{ \"seconds\": {:.6}, \"allocations\": {}, \
             \"peak_bytes\": {}, \"filter_allocations\": {} }}{comma}",
            cost.seconds, cost.allocations, cost.peak_bytes, cost.filter_allocations
        );
    }
    let _ = writeln!(
        json,
        "    \"wall_clock_speedup\": {:.3},",
        pipeline_record.seconds / pipeline_columnar_cost.seconds.max(f64::EPSILON)
    );
    let _ = writeln!(
        json,
        "    \"filter_allocation_drop\": {:.1},",
        pipeline_record.filter_allocations as f64
            / pipeline_columnar_cost.filter_allocations.max(1) as f64
    );
    let _ = writeln!(json, "    \"outputs_identical\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"incremental_ingest\": [");
    for (i, c) in ingest_costs.iter().enumerate() {
        let comma = if i + 1 == ingest_costs.len() { "" } else { "," };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"corpus\": \"{}\",", c.corpus);
        let _ = writeln!(json, "      \"videos\": {},", c.videos);
        let _ = writeln!(json, "      \"batches\": {},", c.batches);
        let _ = writeln!(json, "      \"apply_seconds\": {:.6},", c.apply_seconds);
        let _ = writeln!(json, "      \"publish_seconds\": {:.6},", c.publish_seconds);
        let _ = writeln!(
            json,
            "      \"amortized_batch_seconds\": {:.6},",
            c.amortized_batch_seconds
        );
        let _ = writeln!(
            json,
            "      \"cold_rebuild_seconds\": {:.6},",
            c.cold_seconds
        );
        let _ = writeln!(
            json,
            "      \"amortized_speedup_vs_cold\": {:.3},",
            c.speedup_amortized_vs_cold
        );
        let _ = writeln!(json, "      \"allocations\": {},", c.allocations);
        let _ = writeln!(json, "      \"outputs_identical\": true");
        let _ = writeln!(json, "    }}{comma}");
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"serve_bench\": {{");
    let _ = writeln!(json, "    \"corpus\": \"{}\",", serve_cost.corpus);
    let _ = writeln!(json, "    \"videos\": {},", serve_cost.videos);
    let _ = writeln!(json, "    \"concurrency\": {},", serve_cost.concurrency);
    let _ = writeln!(
        json,
        "    \"server_threads\": {},",
        serve_cost.server_threads
    );
    let _ = writeln!(json, "    \"load\": {},", serve_cost.report.to_json());
    let _ = writeln!(json, "    \"outputs_identical\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"combined_seconds\": {{ \"threads_1\": {:.6}, \"threads_2\": {:.6}, \
         \"threads_4\": {:.6} }},",
        total(1),
        total(2),
        total(4)
    );
    match (baseline_pr2, speedup_vs_pr2) {
        (Some(b), Some(s)) => {
            let _ = writeln!(
                json,
                "  \"baseline_pr2\": {{ \"combined_seconds_threads_1\": {b:.6} }},"
            );
            let _ = writeln!(json, "  \"speedup_vs_pr2_single_thread\": {s:.3},");
        }
        _ => {
            let _ = writeln!(json, "  \"baseline_pr2\": null,");
            let _ = writeln!(json, "  \"speedup_vs_pr2_single_thread\": null,");
        }
    }
    let _ = writeln!(json, "  \"outputs_identical_across_threads\": {identical},");
    let _ = writeln!(json, "  \"metrics\": {}", metrics.to_json());
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, json).expect("write benchmark report");
    eprintln!("wrote {out_path}");
}
