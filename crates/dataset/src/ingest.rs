//! Streaming ingest: grow the clean working set batch by batch.
//!
//! The batch pipeline runs §2 filtering once, over the whole crawl.
//! [`CleanIngest`] is the incremental restatement: video batches (new
//! suffixes of a growing crawl, or whole separate datasets) are applied
//! as deltas — key-deduplicated, re-interned, filtered — onto the same
//! column builder state a cold [`filter`](crate::filter::filter)
//! pass drives, and [`snapshot`](CleanIngest::snapshot) finalizes a
//! [`CleanDataset`] at any point mid-stream.
//!
//! # The equivalence argument
//!
//! After any sequence of batches, `snapshot()` equals
//! `filter(&concatenated)` — where *concatenated* is the one dataset a
//! [`DatasetBuilder`](crate::dataset::DatasetBuilder) replay of every
//! batch in order would build — field for field, because each
//! ingredient replays the cold path exactly:
//!
//! * **keys** — the builder's first-crawl-wins rule (duplicate keys
//!   return the existing record untouched) becomes a `seen` set here:
//!   a record whose key was already applied is skipped whole, before
//!   any interning, exactly where `push_video_titled` returns early.
//! * **tags** — the interner assigns dense ids in first-seen order, so
//!   re-interning each unique record's tag *names* in record order
//!   reproduces the concatenated dataset's ids (the invariant
//!   `extend_from` relies on). Tags are interned for every unique
//!   record — even ones the filter then drops — matching the raw
//!   vocabulary a cold build carries.
//! * **columns** — the filter predicate (no tags → `no_tags`, else
//!   unusable popularity → `bad_popularity`) runs per record in arrival
//!   order, appending survivors through the same builder `push` the
//!   cold path calls; `snapshot` clones the builder and runs the
//!   identical `finish` (counting-sorted postings included).

use std::collections::HashSet;

use crate::dataset::Dataset;
use crate::filter::{CleanBuilder, CleanDataset, FilterReport};
use crate::record::VideoId;
use crate::tag::{TagId, TagInterner};

/// Accounting for one applied batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestDelta {
    /// Clean positions `first_kept..first_kept + kept` are this batch's
    /// newly retained videos.
    pub first_kept: usize,
    /// Videos this batch added to the clean working set.
    pub kept: usize,
    /// Unique (not previously seen) records in the batch, kept or not.
    pub unique: usize,
    /// Records skipped because their key was already applied (first
    /// crawl wins).
    pub duplicates: usize,
}

/// Incremental §2 filtering state: the clean-dataset columns, interner
/// and key set of everything applied so far.
#[derive(Debug, Clone)]
pub struct CleanIngest {
    country_count: usize,
    tags: TagInterner,
    seen: HashSet<String>,
    builder: CleanBuilder,
}

impl CleanIngest {
    /// Creates an empty ingest state for a world of `country_count`
    /// countries.
    pub fn new(country_count: usize) -> CleanIngest {
        CleanIngest {
            country_count,
            tags: TagInterner::new(),
            seen: HashSet::new(),
            builder: CleanBuilder::new(country_count, 0),
        }
    }

    /// Applies a whole dataset as one batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` covers a different world size.
    pub fn apply(&mut self, batch: &Dataset) -> IngestDelta {
        self.apply_from(batch, 0)
    }

    /// Applies the records of `dataset` from position `from` onward —
    /// the natural delta of a monotonically growing crawl (checkpoint
    /// suspensions hand back the same dataset, longer).
    ///
    /// # Panics
    ///
    /// Panics if `dataset` covers a different world size.
    pub fn apply_from(&mut self, dataset: &Dataset, from: usize) -> IngestDelta {
        self.apply_range(dataset, from, dataset.len())
    }

    /// Applies the records `from..to` of `dataset` as one batch — the
    /// slicing a replayed file needs to re-stream a saved crawl in
    /// fixed-size batches.
    ///
    /// # Panics
    ///
    /// Panics if `dataset` covers a different world size or the range
    /// is out of bounds.
    pub fn apply_range(&mut self, dataset: &Dataset, from: usize, to: usize) -> IngestDelta {
        assert_eq!(
            dataset.country_count(),
            self.country_count,
            "batch covers a different world size"
        );
        assert!(
            from <= to && to <= dataset.len(),
            "batch range {from}..{to} out of bounds for {} records",
            dataset.len()
        );
        let mut delta = IngestDelta {
            first_kept: self.kept(),
            ..IngestDelta::default()
        };
        let mut tag_ids = Vec::new();
        for index in from..to {
            let record = dataset.video(VideoId::from_index(index));
            if self.seen.contains(&record.key) {
                delta.duplicates += 1;
                continue;
            }
            self.seen.insert(record.key.clone());
            delta.unique += 1;
            // The id a DatasetBuilder replay of every batch would have
            // assigned: the next dense unique index.
            let id = VideoId::from_index(self.builder.report.crawled);
            self.builder.report.crawled += 1;
            // Re-intern by name so ids match the concatenated corpus'
            // first-seen order; record tag lists are already normalized
            // and deduplicated, so the mapping is 1:1.
            tag_ids.clear();
            tag_ids.extend(
                record
                    .tags
                    .iter()
                    .filter_map(|&t| self.tags.intern(dataset.tags().name(t))),
            );
            if tag_ids.is_empty() {
                self.builder.report.no_tags += 1;
                continue;
            }
            let Some(pop) = record.popularity.usable() else {
                self.builder.report.bad_popularity += 1;
                continue;
            };
            self.builder.push(
                id,
                &record.key,
                &record.title,
                record.total_views,
                tag_ids.iter().copied(),
                pop.as_slice(),
            );
            delta.kept += 1;
        }
        delta
    }

    /// World size of every popularity vector.
    pub fn country_count(&self) -> usize {
        self.country_count
    }

    /// Videos retained so far.
    pub fn kept(&self) -> usize {
        self.builder.views.len()
    }

    /// Unique records applied so far (kept or filtered).
    pub fn crawled(&self) -> usize {
        self.builder.report.crawled
    }

    /// The filtering accounting over everything applied so far.
    pub fn report(&self) -> FilterReport {
        FilterReport {
            kept: self.kept(),
            ..self.builder.report
        }
    }

    /// Interned tags so far (the raw vocabulary, dropped videos
    /// included).
    pub fn tag_count(&self) -> usize {
        self.tags.len()
    }

    /// Total views of the retained video at clean position `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn views_at(&self, pos: usize) -> u64 {
        self.builder.views[pos]
    }

    /// Validated intensity bytes of the retained video at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn intensities_at(&self, pos: usize) -> &[u8] {
        assert!(pos < self.kept(), "position {pos} out of range");
        let cc = self.country_count;
        &self.builder.intensities[pos * cc..(pos + 1) * cc]
    }

    /// Interned tags of the retained video at `pos`, in upload order.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn tags_at(&self, pos: usize) -> &[TagId] {
        &self.builder.tag_ids[self.builder.tag_rows[pos]..self.builder.tag_rows[pos + 1]]
    }

    /// Finalizes the current state into a [`CleanDataset`], leaving the
    /// ingest ready for further batches.
    ///
    /// The clone-then-finish runs the exact column-write and
    /// counting-sort sequence of a cold [`filter`](crate::filter::filter)
    /// over the concatenated corpus, so the snapshot is equal to that
    /// rebuild field for field.
    pub fn snapshot(&self) -> CleanDataset {
        self.builder.clone().finish(self.tags.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::filter::filter;
    use crate::record::RawPopularity;

    fn corpus(n: usize, salt: usize) -> Dataset {
        let mut b = DatasetBuilder::new(3);
        for i in 0..n {
            let tags: Vec<String> = (0..(i + salt) % 4)
                .map(|t| format!("tag{}", (i + t) % 13))
                .collect();
            let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            let pop = match i % 5 {
                0 => RawPopularity::Missing,
                1 => RawPopularity::decode(vec![0, 0, 0], 3),
                _ => RawPopularity::decode(vec![(i % 61) as u8, 30, 1], 3),
            };
            b.push_video_titled(
                &format!("v{}", i + salt * 1_000),
                &format!("title {i}"),
                (i * i % 9_999) as u64,
                &tag_refs,
                pop,
            );
        }
        b.build()
    }

    /// Concatenates datasets the way a resumed crawl would: one
    /// builder replaying every batch in order, first crawl winning.
    fn concat(batches: &[&Dataset]) -> Dataset {
        let mut b = DatasetBuilder::new(batches[0].country_count());
        for d in batches {
            b.extend_from(d);
        }
        b.build()
    }

    #[test]
    fn one_batch_snapshot_equals_cold_filter() {
        let d = corpus(120, 0);
        let mut ingest = CleanIngest::new(3);
        let delta = ingest.apply(&d);
        assert_eq!(delta.unique, 120);
        assert_eq!(delta.duplicates, 0);
        assert_eq!(ingest.snapshot(), filter(&d));
    }

    #[test]
    fn suffix_batches_equal_cold_filter() {
        let d = corpus(90, 0);
        let mut ingest = CleanIngest::new(3);
        // Apply as three growing-prefix deltas of the same dataset.
        for (from, to) in [(0, 30), (30, 31), (31, 90)] {
            let prefix = {
                let mut b = DatasetBuilder::new(3);
                for i in 0..to {
                    let v = d.video(VideoId::from_index(i));
                    let names: Vec<&str> = v.tags.iter().map(|&t| d.tags().name(t)).collect();
                    b.push_video_titled(&v.key, &v.title, v.total_views, &names, {
                        v.popularity.clone()
                    });
                }
                b.build()
            };
            let delta = ingest.apply_from(&prefix, from);
            assert_eq!(delta.unique, to - from);
        }
        assert_eq!(ingest.snapshot(), filter(&d));
    }

    #[test]
    fn overlapping_batches_keep_first_crawl() {
        let a = corpus(60, 0);
        let b = corpus(60, 20); // keys v20000.. overlap nothing; salt shifts keys
        let mut ingest = CleanIngest::new(3);
        ingest.apply(&a);
        let mid = ingest.apply(&a); // exact duplicate batch: all skipped
        assert_eq!(mid.unique, 0);
        assert_eq!(mid.duplicates, 60);
        assert_eq!(mid.kept, 0);
        ingest.apply(&b);
        assert_eq!(ingest.snapshot(), filter(&concat(&[&a, &a, &b])));
    }

    #[test]
    fn report_tracks_mid_stream_state() {
        let d = corpus(50, 1);
        let mut ingest = CleanIngest::new(3);
        ingest.apply(&d);
        let r = ingest.report();
        let cold = filter(&d).report();
        assert_eq!(r, cold);
        assert_eq!(ingest.crawled(), 50);
        assert_eq!(ingest.kept(), cold.kept);
    }

    #[test]
    fn accessors_match_the_snapshot_columns() {
        let d = corpus(40, 2);
        let mut ingest = CleanIngest::new(3);
        ingest.apply(&d);
        let snap = ingest.snapshot();
        assert_eq!(ingest.tag_count(), snap.tags().len());
        for pos in 0..snap.len() {
            assert_eq!(ingest.views_at(pos), snap.views_column()[pos]);
            assert_eq!(ingest.intensities_at(pos), snap.intensities_of(pos));
            assert_eq!(ingest.tags_at(pos), snap.tags_of(pos));
        }
    }

    #[test]
    fn empty_batches_are_harmless() {
        let empty = DatasetBuilder::new(3).build();
        let mut ingest = CleanIngest::new(3);
        let delta = ingest.apply(&empty);
        assert_eq!(delta, IngestDelta::default());
        let snap = ingest.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap, filter(&empty));
    }

    #[test]
    #[should_panic(expected = "different world size")]
    fn world_size_mismatch_panics() {
        let mut ingest = CleanIngest::new(2);
        ingest.apply(&corpus(3, 0));
    }
}
