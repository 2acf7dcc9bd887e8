//! The crawled corpus every serving and ingest workload reads, built
//! once per (world seed, world size) and reused across runs.
//!
//! The corpus file sits next to a small text file holding its FNV-1a
//! digest, how long generating it took and how many records the crawl
//! fetched. A run re-hashes the corpus before using it; a missing
//! file or a digest mismatch regenerates it. None of this is timed.

use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use tagdist::crawler::{crawl_parallel, CrawlConfig};
use tagdist::dataset::write_binary;
use tagdist::ytsim::{Platform, WorldConfig};

use crate::stats::fnv1a64;

/// A verified corpus file and where it came from.
#[derive(Debug, Clone)]
pub struct Fixture {
    pub path: PathBuf,
    pub digest: u64,
    pub generate_s: f64,
    pub crawled: usize,
    pub reused: bool,
}

/// The directory fixtures live in: beside the build output, so a clean
/// checkout carries none.
pub fn default_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("perfbench-fixtures")
}

/// Returns the verified corpus for `seed`/`videos`, generating it when
/// absent or when its digest no longer matches the recorded one. The
/// generation runs in a child process (this program with
/// `--build-fixture`), so its memory never shows in the measuring
/// process's peak resident size.
pub fn ensure(dir: &Path, seed: u64, videos: usize) -> Result<Fixture, String> {
    let (path, meta_path) = paths(dir, seed, videos);
    if let Some(fixture) = reuse(&path, &meta_path) {
        return Ok(fixture);
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this program: {e}"))?;
    let status = Command::new(exe)
        .args(["--build-fixture", "--corpus-seed", &seed.to_string()])
        .args(["--videos", &videos.to_string(), "--fixtures"])
        .arg(dir)
        .status()
        .map_err(|e| format!("cannot start the fixture build: {e}"))?;
    if !status.success() {
        return Err(format!("the fixture build failed ({status})"));
    }
    let mut fixture = reuse(&path, &meta_path).ok_or("the fixture build left no valid corpus")?;
    fixture.reused = false;
    Ok(fixture)
}

/// Generates the world, crawls it and writes the corpus and its meta
/// file (the `--build-fixture` child's whole job).
pub fn build(dir: &Path, seed: u64, videos: usize) -> Result<(), String> {
    let (path, meta_path) = paths(dir, seed, videos);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let started = Instant::now();
    let mut world = WorldConfig::default();
    world.with_seed(seed).with_videos(videos);
    let platform = Platform::generate(world);
    let outcome = crawl_parallel(&platform, &CrawlConfig::default());
    let tmp = path.with_extension("bin.tmp");
    let file = File::create(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let mut out = BufWriter::new(file);
    write_binary(&outcome.dataset, &mut out).map_err(|e| format!("cannot encode corpus: {e}"))?;
    out.flush()
        .map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    drop(out);
    std::fs::rename(&tmp, &path).map_err(|e| format!("cannot rename corpus: {e}"))?;
    let generate_s = started.elapsed().as_secs_f64();
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read corpus: {e}"))?;
    let meta = format!(
        "digest {:016x}\ngenerate_s {generate_s}\ncrawled {}\n",
        fnv1a64(&bytes),
        outcome.dataset.len()
    );
    std::fs::write(&meta_path, meta).map_err(|e| format!("cannot write corpus meta: {e}"))
}

fn paths(dir: &Path, seed: u64, videos: usize) -> (PathBuf, PathBuf) {
    let stem = format!("corpus-{seed}-{videos}");
    (
        dir.join(format!("{stem}.bin")),
        dir.join(format!("{stem}.meta")),
    )
}

fn reuse(path: &Path, meta_path: &Path) -> Option<Fixture> {
    let meta = std::fs::read_to_string(meta_path).ok()?;
    let field = |key: &str| {
        meta.lines()
            .find_map(|line| line.strip_prefix(key)?.strip_prefix(' '))
    };
    let digest = u64::from_str_radix(field("digest")?, 16).ok()?;
    let bytes = std::fs::read(path).ok()?;
    if fnv1a64(&bytes) != digest {
        eprintln!(
            "perfbench: fixture {} changed on disk; rebuilding",
            path.display()
        );
        return None;
    }
    Some(Fixture {
        path: path.to_owned(),
        digest,
        generate_s: field("generate_s")?.parse().ok()?,
        crawled: field("crawled")?.parse().ok()?,
        reused: true,
    })
}
