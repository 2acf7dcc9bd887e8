//! Streaming-ingest engine: per-batch deltas to the reconstruction
//! matrix and tag aggregates, with epoch-versioned snapshots.
//!
//! [`IngestEngine`] sits on top of [`CleanIngest`]: each applied batch
//! extends the clean columns, reconstructs the new videos' per-country
//! view rows, and folds them into per-tag aggregate rows — so after N
//! batches the engine holds exactly the state a cold
//! `filter → compute → aggregate` rebuild of the concatenated corpus
//! would, bit for bit (the PR 9 rebuild oracle).
//!
//! # Why incremental equals cold, bitwise
//!
//! * **Reconstruction rows** are per-video pure functions
//!   ([`reconstruct_intensities_into`]): appending each new video's row
//!   runs the identical arithmetic [`Reconstruction::compute`] runs for
//!   that row, independent of every other video.
//! * **Aggregate rows** are dataset-order f64 sums. The cold
//!   [`TagViewTable::aggregate`] sums each tag's postings in ascending
//!   clean-position order; new videos arrive in exactly that order, so
//!   folding a new row into its tags' aggregates *appends to each
//!   tag's addition sequence* — float addition is not associative or
//!   commutative here, but a prefix-extended left fold replays the
//!   same operation sequence, hence the same bits.
//! * **Merge order is deterministic by construction**: batches apply
//!   sequentially, videos within a batch in dataset order, tags within
//!   a video in record order. No thread count anywhere in the delta
//!   path can reorder an addition.
//!
//! # Epochs and double-buffering
//!
//! [`publish`](IngestEngine::publish) finalizes the current state into
//! an immutable [`EpochSnapshot`] behind an `Arc` and flips it into the
//! engine's [`SnapshotCell`]. Readers (`report`/`stats`/`predict`
//! paths) [`load`](SnapshotCell::load) the cell and keep their `Arc`
//! for as long as they need a consistent view — the previous epoch
//! stays alive in their hands while the engine builds and flips the
//! next one, which is all a double buffer is. No reader ever observes
//! a half-applied batch.
//!
//! # What a publish copies
//!
//! Reconstruction and aggregate rows live in immutable `Arc` segments
//! that epochs share. Applying a batch writes its new videos' rows into
//! one open buffer, and every aggregate row it creates or touches into
//! another — a touched row is first copied out of its sealed segment,
//! then extended, so the addition sequence above is unchanged. A
//! publish seals each open buffer as one new segment and hands the
//! snapshot the segment lists plus the `u32`/[`TagId`] spines that
//! locate each row. Every row the batch did not write is the same
//! memory in both epochs. Superseded aggregate rows are garbage: the
//! engine compacts the live rows into one segment once dead rows
//! outnumber them, and merges small trailing segments so that even a
//! stream of 1-record batches keeps O(log n) segments (DESIGN.md §15).
//! What stays O(corpus) per publish is the clean snapshot: the column
//! builder clone and its posting sort.

use std::sync::{Arc, Mutex, PoisonError};

use tagdist_dataset::{CleanDataset, CleanIngest, Dataset, IngestDelta, TagId};
use tagdist_geo::{kernel, GeoDist, GeoError};
use tagdist_obs::SpanGuard;

use crate::rows::RowLog;
use crate::tagviews::{TagViewTable, NO_ROW};
use crate::views::{reconstruct_intensities_into, Reconstruction};

/// One immutable, internally consistent view of the stream: the clean
/// dataset, its reconstruction and the per-tag aggregates as of a
/// published epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSnapshot {
    /// Monotone epoch counter (first publish = 1).
    pub epoch: u64,
    /// The §2-filtered working set at this epoch.
    pub clean: CleanDataset,
    /// Per-video reconstructed view rows, aligned with `clean`.
    pub recon: Reconstruction,
    /// Per-tag Eq. 3 aggregates over `recon`.
    pub table: TagViewTable,
}

impl EpochSnapshot {
    /// Cold-builds epoch `epoch` from an already filtered dataset:
    /// per-video reconstruction plus per-tag aggregation against
    /// `traffic`. External publishers — `tagdist serve --watch`
    /// re-sniffing a file another process keeps rewriting — use this to
    /// turn a freshly loaded corpus into a publishable snapshot; by the
    /// rebuild oracle it equals the streamed state bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates the first per-video reconstruction error in dataset
    /// order.
    pub fn rebuild(
        epoch: u64,
        clean: CleanDataset,
        traffic: &GeoDist,
    ) -> Result<EpochSnapshot, GeoError> {
        let recon = Reconstruction::compute(&clean, traffic)?;
        let table = TagViewTable::aggregate(&clean, &recon);
        Ok(EpochSnapshot {
            epoch,
            clean,
            recon,
            table,
        })
    }
}

/// The published-snapshot slot readers poll: one atomic flip per
/// epoch, previous epochs kept alive by the readers still holding
/// them.
#[derive(Debug, Default)]
pub struct SnapshotCell {
    inner: Mutex<Option<Arc<EpochSnapshot>>>,
}

impl SnapshotCell {
    /// Creates an empty cell (no epoch published yet).
    pub fn new() -> SnapshotCell {
        SnapshotCell::default()
    }

    /// The most recently published snapshot, if any. Cloning the `Arc`
    /// is the whole read path — the returned epoch stays consistent
    /// (and alive) however long the caller keeps it.
    pub fn load(&self) -> Option<Arc<EpochSnapshot>> {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Flips `snapshot` into the cell. [`IngestEngine::publish`] calls
    /// this on every epoch; external publishers (the serve layer's
    /// `--watch` reload path) call it directly with a snapshot built
    /// via [`EpochSnapshot::rebuild`]. Readers pinned to the previous
    /// epoch are unaffected — they keep their `Arc`.
    pub fn store(&self, snapshot: Arc<EpochSnapshot>) {
        *self.inner.lock().unwrap_or_else(PoisonError::into_inner) = Some(snapshot);
    }
}

/// Deterministic counters of everything an engine has absorbed, for
/// the `ingest.*` obs section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Batches applied.
    pub batches: u64,
    /// Unique records seen across all batches.
    pub videos_seen: u64,
    /// Records skipped as duplicate keys.
    pub duplicates: u64,
    /// Videos retained by the filter.
    pub videos_kept: u64,
    /// Aggregate-row updates: one per (kept video, tag) pair.
    pub rows_touched: u64,
    /// Epochs published.
    pub epoch_flips: u64,
    /// `f64` rows copied out of sealed segments: one per aggregate row
    /// a batch touched that an earlier publish had sealed, plus every
    /// row a segment merge or a compaction moved. Fresh rows are
    /// written once and never counted.
    pub rows_copied: u64,
}

/// The streaming-ingest engine: applies video batches as deltas and
/// publishes epoch snapshots (see the module docs).
#[derive(Debug)]
pub struct IngestEngine {
    clean: CleanIngest,
    traffic: GeoDist,
    /// Sealed reconstruction rows, keyed by clean position.
    recon: RowLog,
    /// Clean positions with a sealed reconstruction row.
    sealed: usize,
    /// Reconstruction rows of positions `sealed..kept`, row-major.
    recon_open: Vec<f64>,
    /// Sealed aggregate rows, keyed by [`TagId`].
    agg: RowLog,
    /// Aggregate rows the unpublished batches created or touched.
    agg_open: Vec<f64>,
    /// Open aggregate row → its tag's index.
    open_tags: Vec<u32>,
    /// Indexed by [`TagId`]: the tag's row in `agg_open`, or
    /// [`NO_ROW`].
    open_row: Vec<u32>,
    /// Indexed by [`TagId`]: retained carriers so far.
    video_counts: Vec<u32>,
    stats: IngestStats,
    epoch: u64,
    published: Arc<SnapshotCell>,
}

impl IngestEngine {
    /// Creates an empty engine reconstructing against `traffic`.
    pub fn new(traffic: GeoDist) -> IngestEngine {
        let cc = traffic.len();
        IngestEngine {
            clean: CleanIngest::new(cc),
            traffic,
            recon: RowLog::new(cc),
            sealed: 0,
            recon_open: Vec::new(),
            agg: RowLog::new(cc),
            agg_open: Vec::new(),
            open_tags: Vec::new(),
            open_row: Vec::new(),
            video_counts: Vec::new(),
            stats: IngestStats::default(),
            epoch: 0,
            published: Arc::new(SnapshotCell::new()),
        }
    }

    /// Applies a whole dataset as one batch; see
    /// [`apply_from`](IngestEngine::apply_from).
    ///
    /// # Errors
    ///
    /// As for [`apply_from`](IngestEngine::apply_from).
    ///
    /// # Panics
    ///
    /// Panics if `batch` covers a different world size.
    pub fn apply(&mut self, batch: &Dataset) -> Result<IngestDelta, GeoError> {
        self.apply_from(batch, 0)
    }

    /// Applies the records of `dataset` from position `from` onward as
    /// one batch: filters them into the clean columns, reconstructs
    /// each new kept video's view row, and folds it into its tags'
    /// aggregate rows.
    ///
    /// # Errors
    ///
    /// Propagates the first per-video reconstruction error in dataset
    /// order ([`GeoError::ZeroMass`] is impossible for filtered videos
    /// under a strictly positive prior; [`GeoError::LengthMismatch`]
    /// cannot occur since batch and prior world sizes are checked).
    /// After an error the engine state is partially updated and must be
    /// discarded.
    ///
    /// # Panics
    ///
    /// Panics if `dataset` covers a different world size.
    pub fn apply_from(&mut self, dataset: &Dataset, from: usize) -> Result<IngestDelta, GeoError> {
        self.apply_range(dataset, from, dataset.len())
    }

    /// Applies the records `from..to` of `dataset` as one batch — the
    /// slicing that re-streams a saved crawl in fixed-size batches
    /// (`tagdist ingest --batches N`).
    ///
    /// # Errors
    ///
    /// As for [`apply_from`](IngestEngine::apply_from).
    ///
    /// # Panics
    ///
    /// Panics if `dataset` covers a different world size or the range
    /// is out of bounds.
    pub fn apply_range(
        &mut self,
        dataset: &Dataset,
        from: usize,
        to: usize,
    ) -> Result<IngestDelta, GeoError> {
        let delta = self.clean.apply_range(dataset, from, to);
        let cc = self.traffic.len();
        // Grow the vocabulary-wide spines to cover tags this batch
        // interned (carriers or not — matching the cold table's
        // full-width `row_of`).
        self.open_row.resize(self.clean.tag_count(), NO_ROW);
        self.video_counts.resize(self.clean.tag_count(), 0);
        for pos in delta.first_kept..delta.first_kept + delta.kept {
            // Reconstruct the new video's row into the open buffer —
            // per-row arithmetic identical to the cold
            // `Reconstruction::compute`.
            let row = (pos - self.sealed) * cc;
            self.recon_open.resize(row + cc, 0.0);
            let views = &mut self.recon_open[row..row + cc];
            reconstruct_intensities_into(
                self.clean.intensities_at(pos),
                self.clean.views_at(pos),
                &self.traffic,
                views,
            )?;
            // Fold it into each carried tag's aggregate: positions
            // arrive ascending, so this extends every tag's
            // dataset-order addition sequence exactly as the cold
            // aggregation replays it. A row an earlier publish sealed
            // is copied into the open buffer first (copy-on-write).
            for &tag in self.clean.tags_at(pos) {
                let t = tag.index();
                if self.open_row[t] == NO_ROW {
                    self.open_row[t] = self.open_tags.len() as u32;
                    self.open_tags.push(t as u32);
                    match self.agg.get(t) {
                        Some(sealed) => {
                            self.agg_open.extend_from_slice(sealed);
                            self.stats.rows_copied += 1;
                        }
                        None => self.agg_open.resize(self.agg_open.len() + cc, 0.0),
                    }
                }
                let slot = self.open_row[t] as usize * cc;
                kernel::add_assign(
                    &mut self.agg_open[slot..slot + cc],
                    &self.recon_open[row..row + cc],
                );
                self.video_counts[t] += 1;
                self.stats.rows_touched += 1;
            }
        }
        self.stats.batches += 1;
        self.stats.videos_seen += delta.unique as u64;
        self.stats.duplicates += delta.duplicates as u64;
        self.stats.videos_kept += delta.kept as u64;
        Ok(delta)
    }

    /// Finalizes the current state into an [`EpochSnapshot`], flips it
    /// into the engine's [`SnapshotCell`] and returns it.
    ///
    /// The snapshot's `clean`/`recon`/`table` equal a cold
    /// `filter → compute → aggregate` of the concatenated corpus field
    /// for field: the clean columns replay the cold column writes, and
    /// every reconstruction and aggregate row holds the bits the cold
    /// build computes — sealing moves the open buffers into new shared
    /// segments without rewriting a row, and merges and compaction
    /// copy `f64` values, which preserves bits.
    ///
    /// # Errors
    ///
    /// Never fails: the signature is kept for callers that treat
    /// publishing as fallible.
    pub fn publish(&mut self) -> Result<Arc<EpochSnapshot>, GeoError> {
        let clean = self.clean.snapshot();
        let kept = self.clean.kept();
        let cc = self.traffic.len();

        // Seal this epoch's rows as one new segment per store.
        let positions = (self.sealed..kept).map(|pos| pos as u32).collect();
        self.stats.rows_copied += self
            .recon
            .seal(std::mem::take(&mut self.recon_open), positions);
        self.sealed = kept;
        for &t in &self.open_tags {
            self.open_row[t as usize] = NO_ROW;
        }
        self.stats.rows_copied += self.agg.seal(
            std::mem::take(&mut self.agg_open),
            std::mem::take(&mut self.open_tags),
        );
        let recon = Reconstruction::from_rows(self.recon.store(0..kept));

        // The TagId-ordered compact spine: `video_counts[t] > 0` exactly
        // when the tag has an aggregate row.
        let mut row_of = vec![NO_ROW; self.video_counts.len()];
        let mut tag_of_row = Vec::new();
        for (t, &count) in self.video_counts.iter().enumerate() {
            if count > 0 {
                row_of[t] = tag_of_row.len() as u32;
                tag_of_row.push(TagId::from_index(t));
            }
        }
        let rows = self.agg.store(tag_of_row.iter().map(|tag| tag.index()));
        let table =
            TagViewTable::from_parts(row_of, tag_of_row, rows, self.video_counts.clone(), cc);

        self.epoch += 1;
        self.stats.epoch_flips += 1;
        let snapshot = Arc::new(EpochSnapshot {
            epoch: self.epoch,
            clean,
            recon,
            table,
        });
        self.published.store(Arc::clone(&snapshot));
        Ok(snapshot)
    }

    /// The cell this engine publishes into; clone the `Arc` and hand
    /// it to readers on other threads.
    pub fn cell(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.published)
    }

    /// The incremental filtering state (report, counts, columns).
    pub fn clean(&self) -> &CleanIngest {
        &self.clean
    }

    /// The traffic prior rows are reconstructed against.
    pub fn traffic(&self) -> &GeoDist {
        &self.traffic
    }

    /// Epochs published so far (0 before the first
    /// [`publish`](IngestEngine::publish)).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Deterministic ingest counters.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Records the engine's deterministic counters under an `ingest`
    /// child span of `parent` (`ingest.batches`, `.videos_seen`,
    /// `.duplicates`, `.videos_kept`, `.rows_touched`, `.epoch_flips`,
    /// `.rows_copied`) — the gated smoke-subtree section. Counters are
    /// totals over the engine's lifetime and never depend on
    /// `TAGDIST_THREADS`: the delta path is sequential by design.
    pub fn record_obs(&self, parent: &SpanGuard) {
        let span = parent.child("ingest");
        let obs = span.recorder();
        obs.add("ingest.batches", self.stats.batches);
        obs.add("ingest.videos_seen", self.stats.videos_seen);
        obs.add("ingest.duplicates", self.stats.duplicates);
        obs.add("ingest.videos_kept", self.stats.videos_kept);
        obs.add("ingest.rows_touched", self.stats.rows_touched);
        obs.add("ingest.epoch_flips", self.stats.epoch_flips);
        obs.add("ingest.rows_copied", self.stats.rows_copied);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagdist_dataset::{filter, DatasetBuilder, RawPopularity};

    /// Cold rebuild of the pipeline over one dataset.
    fn cold(d: &Dataset, traffic: &GeoDist) -> EpochSnapshot {
        let clean = filter(d);
        let recon = Reconstruction::compute(&clean, traffic).unwrap();
        let table = TagViewTable::aggregate(&clean, &recon);
        EpochSnapshot {
            epoch: 0,
            clean,
            recon,
            table,
        }
    }

    fn assert_equivalent(snapshot: &EpochSnapshot, rebuild: &EpochSnapshot) {
        assert_eq!(snapshot.clean, rebuild.clean);
        assert_eq!(snapshot.recon, rebuild.recon);
        assert_eq!(snapshot.table, rebuild.table);
    }

    fn corpus(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new(3);
        for i in 0..n {
            let tags: Vec<String> = (0..i % 4).map(|t| format!("tag{}", (i + t) % 17)).collect();
            let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            let pop = match i % 6 {
                0 => RawPopularity::Missing,
                1 => RawPopularity::decode(vec![0, 0, 0], 3),
                _ => RawPopularity::decode(vec![(i % 61) as u8, ((i * 7) % 61) as u8, 30], 3),
            };
            b.push_video(&format!("v{i}"), (i * i % 99_991) as u64, &tag_refs, pop);
        }
        b.build()
    }

    fn traffic3() -> GeoDist {
        GeoDist::from_slice(&[5.0, 2.0, 1.0]).unwrap()
    }

    /// Splits `d` into contiguous slices applied via `apply_from` on
    /// growing prefixes (the shape a monotone crawl produces).
    fn ingest_in_batches(d: &Dataset, cuts: &[usize], traffic: &GeoDist) -> IngestEngine {
        let mut engine = IngestEngine::new(traffic.clone());
        let mut from = 0;
        for &to in cuts.iter().chain(std::iter::once(&d.len())) {
            assert!(to >= from && to <= d.len());
            // Rebuild the prefix dataset [0, to) the way a suspended
            // crawl's checkpoint holds it.
            let mut b = DatasetBuilder::new(d.country_count());
            for i in 0..to {
                let v = d.video(tagdist_dataset::VideoId::from_index(i));
                let names: Vec<&str> = v.tags.iter().map(|&t| d.tags().name(t)).collect();
                b.push_video_titled(&v.key, &v.title, v.total_views, &names, {
                    v.popularity.clone()
                });
            }
            let prefix = b.build();
            engine.apply_from(&prefix, from).unwrap();
            engine.publish().unwrap();
            from = to;
        }
        engine
    }

    #[test]
    fn single_batch_equals_cold_rebuild() {
        let d = corpus(150);
        let traffic = traffic3();
        let mut engine = IngestEngine::new(traffic.clone());
        engine.apply(&d).unwrap();
        let snapshot = engine.publish().unwrap();
        assert_equivalent(&snapshot, &cold(&d, &traffic));
        assert_eq!(snapshot.epoch, 1);
        assert_eq!(engine.epoch(), 1);
    }

    #[test]
    fn batch_splits_converge_to_the_same_snapshot() {
        let d = corpus(120);
        let traffic = traffic3();
        let rebuild = cold(&d, &traffic);
        let all_at_once = ingest_in_batches(&d, &[], &traffic);
        let in_threes = ingest_in_batches(&d, &[40, 80], &traffic);
        let one_by_one_cuts: Vec<usize> = (1..d.len()).collect();
        let one_by_one = ingest_in_batches(&d, &one_by_one_cuts, &traffic);
        for engine in [&all_at_once, &in_threes, &one_by_one] {
            let snapshot = engine.cell().load().unwrap();
            assert_equivalent(&snapshot, &rebuild);
        }
        assert_eq!(one_by_one.epoch(), d.len() as u64);
    }

    #[test]
    fn duplicate_batches_do_not_change_state() {
        let d = corpus(80);
        let traffic = traffic3();
        let mut engine = IngestEngine::new(traffic.clone());
        engine.apply(&d).unwrap();
        let first = engine.publish().unwrap();
        let delta = engine.apply(&d).unwrap();
        assert_eq!(delta.unique, 0);
        assert_eq!(delta.duplicates, d.len());
        let second = engine.publish().unwrap();
        assert_eq!(second.epoch, 2);
        assert_equivalent(&second, &first);
        assert_equivalent(&second, &cold(&d, &traffic));
        assert_eq!(engine.stats().duplicates, d.len() as u64);
    }

    #[test]
    fn readers_keep_their_epoch_while_the_next_is_built() {
        let d = corpus(100);
        let traffic = traffic3();
        let mut engine = IngestEngine::new(traffic);
        let cell = engine.cell();
        assert!(cell.load().is_none(), "nothing published yet");

        let mut b = DatasetBuilder::new(3);
        b.extend_from(&d);
        let half = {
            let mut hb = DatasetBuilder::new(3);
            for i in 0..50 {
                let v = d.video(tagdist_dataset::VideoId::from_index(i));
                let names: Vec<&str> = v.tags.iter().map(|&t| d.tags().name(t)).collect();
                hb.push_video_titled(&v.key, &v.title, v.total_views, &names, {
                    v.popularity.clone()
                });
            }
            hb.build()
        };
        engine.apply(&half).unwrap();
        engine.publish().unwrap();
        let held = cell.load().unwrap(); // reader pins epoch 1

        engine.apply_from(&d, 50).unwrap();
        engine.publish().unwrap();

        // The pinned snapshot is untouched by the flip; the cell hands
        // out the new epoch.
        assert_eq!(held.epoch, 1);
        assert_eq!(held.clean.report().crawled, 50);
        let fresh = cell.load().unwrap();
        assert_eq!(fresh.epoch, 2);
        assert_eq!(fresh.clean.report().crawled, 100);
    }

    #[test]
    fn filtered_only_batches_publish_cleanly() {
        // A batch whose every record is dropped — tags interned but no
        // carriers ("dangling tag references") — must round-trip
        // through the delta path and publish an empty-but-consistent
        // snapshot.
        let mut b = DatasetBuilder::new(3);
        b.push_video(
            "ghost1",
            10,
            &["phantom", "specter"],
            RawPopularity::Missing,
        );
        b.push_video("ghost2", 20, &[], RawPopularity::decode(vec![1, 2, 3], 3));
        b.push_video(
            "ghost3",
            30,
            &["phantom"],
            RawPopularity::decode(vec![0, 0, 0], 3),
        );
        let d = b.build();
        let traffic = traffic3();
        let mut engine = IngestEngine::new(traffic.clone());
        let delta = engine.apply(&d).unwrap();
        assert_eq!(delta.kept, 0);
        assert_eq!(delta.unique, 3);
        let snapshot = engine.publish().unwrap();
        assert!(snapshot.clean.is_empty());
        assert_eq!(snapshot.clean.tags().len(), 2);
        assert_eq!(snapshot.table.populated_tags(), 0);
        assert_equivalent(&snapshot, &cold(&d, &traffic));
    }

    #[test]
    fn empty_engine_publishes_an_empty_epoch() {
        let mut engine = IngestEngine::new(traffic3());
        let snapshot = engine.publish().unwrap();
        assert_eq!(snapshot.epoch, 1);
        assert!(snapshot.clean.is_empty());
        assert_eq!(snapshot.recon.len(), 0);
        assert_eq!(snapshot.table.populated_tags(), 0);
    }

    #[test]
    fn stats_account_for_everything_applied() {
        let d = corpus(60);
        let mut engine = IngestEngine::new(traffic3());
        engine.apply(&d).unwrap();
        engine.apply(&d).unwrap();
        engine.publish().unwrap();
        let s = engine.stats();
        assert_eq!(s.batches, 2);
        assert_eq!(s.videos_seen, 60);
        assert_eq!(s.duplicates, 60);
        assert_eq!(s.epoch_flips, 1);
        let kept: u64 = filter(&d).report().kept as u64;
        assert_eq!(s.videos_kept, kept);
        let postings: u64 = {
            let clean = filter(&d);
            (0..clean.len())
                .map(|p| clean.tags_of(p).len() as u64)
                .sum()
        };
        assert_eq!(s.rows_touched, postings);
    }

    #[test]
    fn obs_counters_mirror_stats() {
        let d = corpus(40);
        let recorder = tagdist_obs::Recorder::new();
        let span = recorder.span("test");
        let mut engine = IngestEngine::new(traffic3());
        engine.apply(&d).unwrap();
        engine.publish().unwrap();
        engine.record_obs(&span);
        drop(span);
        let report = recorder.finish();
        assert_eq!(report.counters.get("ingest.batches"), Some(&1));
        assert_eq!(report.counters.get("ingest.epoch_flips"), Some(&1));
        assert_eq!(
            report.counters.get("ingest.videos_kept").copied(),
            Some(engine.stats().videos_kept)
        );
        assert_eq!(report.counters.get("ingest.rows_copied"), Some(&0));
    }

    /// A corpus whose batches each touch a fraction of a wide
    /// vocabulary (`t0..t96`) plus three hot tags every batch touches.
    fn wide_corpus(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new(3);
        for i in 0..n {
            let wide = format!("t{}", (i * 7) % 97);
            let hot = format!("hot{}", i % 3);
            let pop = RawPopularity::decode(vec![(i % 61) as u8 + 1, ((i * 5) % 61) as u8, 9], 3);
            b.push_video(
                &format!("v{i}"),
                1 + (i * i % 9_973) as u64,
                &[&wide, &hot],
                pop,
            );
        }
        b.build()
    }

    /// Row values of a snapshot, copied out of its segments.
    fn deep_rows(s: &EpochSnapshot) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let recon = s.recon.iter().map(<[f64]>::to_vec).collect();
        let table = s.table.iter().map(|(_, row)| row.to_vec()).collect();
        (recon, table)
    }

    /// Publish N → N+1 copies only what batch N+1 wrote: every
    /// reconstruction row of epoch N, and every aggregate row the batch
    /// did not touch, is the same memory in epoch N+1 — except that a
    /// compacting publish moves the aggregate rows. Readers pinned to
    /// epoch N keep exactly the values it was published with.
    #[test]
    fn consecutive_epochs_share_every_row_the_batch_did_not_write() {
        let d = wide_corpus(240);
        let traffic = traffic3();
        let mut engine = IngestEngine::new(traffic);
        let mut pinned: Vec<(Arc<EpochSnapshot>, EpochSnapshot, _)> = Vec::new();
        let (mut compacting, mut shared_untouched) = (0, 0);
        for b in 0..8 {
            engine.apply_range(&d, b * 30, (b + 1) * 30).unwrap();
            let next = engine.publish().unwrap();
            if let Some((prev, _, _)) = pinned.last() {
                for pos in 0..prev.recon.len() {
                    let (old, new) = (prev.recon.views(pos), next.recon.views(pos));
                    assert!(std::ptr::eq(old.unwrap(), new.unwrap()), "recon row {pos}");
                }
                let touched: std::collections::HashSet<TagId> = (prev.clean.len()
                    ..next.clean.len())
                    .flat_map(|pos| next.clean.tags_of(pos).iter().copied())
                    .collect();
                let compacted = engine.agg.is_compacted();
                compacting += usize::from(compacted);
                for (tag, old) in prev.table.iter() {
                    let new = next.table.views(tag).unwrap();
                    if touched.contains(&tag) {
                        assert!(!std::ptr::eq(old, new), "touched {tag} rewritten");
                    } else if compacted {
                        assert_eq!(old, new);
                    } else {
                        assert!(std::ptr::eq(old, new), "untouched {tag} shared");
                        shared_untouched += 1;
                    }
                }
            }
            let deep = deep_rows(&next);
            pinned.push((Arc::clone(&next), (*next).clone(), deep));
        }
        assert!(
            compacting > 0,
            "the stream must include a compacting publish"
        );
        assert!(shared_untouched > 0);
        for (epoch, clone, deep) in &pinned {
            assert_eq!(**epoch, *clone);
            assert_eq!(deep_rows(epoch), *deep);
        }
        assert_equivalent(&pinned[7].1, &cold(&d, &traffic3()));
    }

    /// Streams `d` in batches of the cyclic `sizes`, checking every
    /// epoch against a cold rebuild of its prefix; returns the engine
    /// and the number of publishes that compacted the aggregate rows.
    fn stream_checked(d: &Dataset, sizes: &[usize]) -> (IngestEngine, usize) {
        let mut engine = IngestEngine::new(traffic3());
        let mut compactions = 0;
        let mut from = 0;
        for size in sizes.iter().cycle() {
            if from == d.len() {
                break;
            }
            let to = (from + size).min(d.len());
            engine.apply_range(d, from, to).unwrap();
            let before = engine.agg.segment_count();
            let snapshot = engine.publish().unwrap();
            compactions += usize::from(before > 0 && engine.agg.is_compacted());
            let prefix = {
                let mut b = DatasetBuilder::new(3);
                for i in 0..to {
                    let v = d.video(tagdist_dataset::VideoId::from_index(i));
                    let names: Vec<&str> = v.tags.iter().map(|&t| d.tags().name(t)).collect();
                    b.push_video(&v.key, v.total_views, &names, v.popularity.clone());
                }
                b.build()
            };
            let rebuild =
                EpochSnapshot::rebuild(engine.epoch(), filter(&prefix), &traffic3()).unwrap();
            assert_eq!(*snapshot, rebuild, "epoch {}", engine.epoch());
            from = to;
        }
        (engine, compactions)
    }

    #[test]
    fn one_record_batches_keep_logarithmically_many_segments() {
        let d = wide_corpus(300);
        let (engine, _) = stream_checked(&d, &[1]);
        let kept = engine.clean().kept();
        let bits = (usize::BITS - kept.leading_zeros()) as usize;
        assert_eq!(engine.epoch(), 300);
        assert!(engine.recon.segment_count() <= crate::rows::SMALL_FRACTION + bits);
        assert!(engine.agg.segment_count() <= crate::rows::SMALL_FRACTION + bits);
    }

    #[test]
    fn mixed_batches_merge_and_compact_to_the_cold_state() {
        // Runs of 1-record batches merge; a 40-record batch supersedes
        // much of the vocabulary at once and tips it into compaction.
        let d = wide_corpus(400);
        let (engine, compactions) = stream_checked(&d, &[1, 1, 1, 1, 1, 40]);
        // Reconstruction rows never die, so fewer segments than
        // publishes means merges ran.
        assert!(engine.recon.segment_count() < engine.epoch() as usize);
        assert!(compactions > 0);
    }

    /// `ingest.rows_copied` stays within twice the rows the batches
    /// wrote (new reconstruction rows plus aggregate rows created or
    /// touched) while no batch is small enough to merge: copy-on-write
    /// copies each touched row once, and a compaction copies fewer live
    /// rows than the dead rows it reclaims. Batches below
    /// `1/SMALL_FRACTION` of the log add the merge rule's binary-counter
    /// copies, at most one per row per doubling.
    #[test]
    fn rows_copied_is_bounded_by_the_rows_written() {
        let d = wide_corpus(400);
        for batch in [50, 25, 7, 1] {
            let mut engine = IngestEngine::new(traffic3());
            let mut written = 0;
            let mut from = 0;
            while from < d.len() {
                let to = (from + batch).min(d.len());
                engine.apply_range(&d, from, to).unwrap();
                written += (engine.recon_open.len() / 3 + engine.open_tags.len()) as u64;
                engine.publish().unwrap();
                from = to;
            }
            let copied = engine.stats().rows_copied;
            let doublings = u64::from(u64::BITS - written.leading_zeros());
            let bound = if batch >= 25 { 2 } else { 2 + doublings };
            assert!(copied > 0, "batch {batch}");
            assert!(
                copied <= bound * written,
                "batch {batch}: {copied} > {bound} × {written}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tagdist_dataset::{filter, DatasetBuilder, RawPopularity};

    fn build(specs: &[(u64, usize, Vec<u8>)]) -> Dataset {
        let mut b = DatasetBuilder::new(3);
        for (i, (views, tag_seed, raw)) in specs.iter().enumerate() {
            let tags: Vec<String> = (0..*tag_seed)
                .map(|t| format!("t{}", (i + t) % 7))
                .collect();
            let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            b.push_video(
                &format!("v{i}"),
                *views,
                &tag_refs,
                RawPopularity::decode(raw.clone(), 3),
            );
        }
        b.build()
    }

    proptest! {
        /// The tentpole oracle, randomized: any contiguous batch split
        /// (including size-1 and all-at-once extremes) and any repeat
        /// application of already-seen records converges to the same
        /// snapshot a cold rebuild produces.
        #[test]
        fn any_batch_split_equals_cold_rebuild(
            specs in proptest::collection::vec(
                (1u64..1_000_000, 0usize..4, proptest::collection::vec(0u8..=61, 3)),
                1..30
            ),
            cut_seed in 0usize..1_000,
            dup_seed in 0usize..2,
        ) {
            let d = build(&specs);
            let traffic = GeoDist::from_slice(&[4.0, 2.0, 1.0]).unwrap();
            let clean = filter(&d);
            let cold_recon = Reconstruction::compute(&clean, &traffic).unwrap();
            let cold_table = TagViewTable::aggregate(&clean, &cold_recon);

            let cut = cut_seed % (d.len() + 1);
            let mut engine = IngestEngine::new(traffic.clone());
            // First batch: records [0, cut) as their own dataset.
            let first = {
                let mut b = DatasetBuilder::new(3);
                for i in 0..cut {
                    let v = d.video(tagdist_dataset::VideoId::from_index(i));
                    let names: Vec<&str> =
                        v.tags.iter().map(|&t| d.tags().name(t)).collect();
                    b.push_video(&v.key, v.total_views, &names, v.popularity.clone());
                }
                b.build()
            };
            engine.apply(&first).unwrap();
            if dup_seed == 1 {
                engine.apply(&first).unwrap();
            }
            // Second batch: the whole dataset — [0, cut) dedupes away.
            engine.apply(&d).unwrap();
            let snapshot = engine.publish().unwrap();

            prop_assert_eq!(&snapshot.clean, &clean);
            prop_assert_eq!(&snapshot.recon, &cold_recon);
            prop_assert_eq!(&snapshot.table, &cold_table);
        }

        /// Many small batches (1-record batches included) drive the
        /// engine through segment merges and compactions; *every*
        /// published epoch equals a cold rebuild of its prefix.
        #[test]
        fn every_epoch_of_a_small_batch_stream_equals_its_prefix_rebuild(
            specs in proptest::collection::vec(
                (1u64..1_000_000, 1usize..4, proptest::collection::vec(1u8..=61, 3)),
                20..80
            ),
            sizes in proptest::collection::vec(1usize..6, 1..40),
        ) {
            let d = build(&specs);
            let traffic = GeoDist::from_slice(&[4.0, 2.0, 1.0]).unwrap();
            let mut engine = IngestEngine::new(traffic.clone());
            let mut from = 0;
            for k in 0.. {
                if from == d.len() {
                    break;
                }
                let to = (from + sizes[k % sizes.len()]).min(d.len());
                engine.apply_range(&d, from, to).unwrap();
                let snapshot = engine.publish().unwrap();
                let prefix = {
                    let mut b = DatasetBuilder::new(3);
                    for i in 0..to {
                        let v = d.video(tagdist_dataset::VideoId::from_index(i));
                        let names: Vec<&str> =
                            v.tags.iter().map(|&t| d.tags().name(t)).collect();
                        b.push_video(&v.key, v.total_views, &names, v.popularity.clone());
                    }
                    b.build()
                };
                let rebuild =
                    EpochSnapshot::rebuild(k as u64 + 1, filter(&prefix), &traffic).unwrap();
                prop_assert_eq!(&*snapshot, &rebuild);
                from = to;
            }
        }
    }
}
