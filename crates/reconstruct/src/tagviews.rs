//! Per-tag view aggregation (Eq. 3), stored columnar.
//!
//! `views(t)[c] = Σ_{v ∈ videos(t)} views(v)[c]` — the quantity behind
//! the paper's Figs. 2–3 and behind its proactive-caching conjecture.
//!
//! The folksonomy vocabulary is long-tailed: most interned tags carry
//! no retained video at all. [`TagViewTable`] therefore stores the
//! aggregates CSR-style — a full-width `row_of` spine maps every
//! [`TagId`] to a compact row holding only the tags that actually carry
//! views, in `TagId` order (DESIGN.md §9). A cold
//! [`aggregate`](TagViewTable::aggregate) writes those rows into one
//! contiguous segment; an epoch published by the ingest engine shares
//! every row its batch did not touch with the epoch before (DESIGN.md
//! §15).

use tagdist_dataset::{CleanDataset, TagId};
use tagdist_geo::{kernel, top_k_by, GeoDist, GeoError};
use tagdist_obs::SpanGuard;
use tagdist_par::Pool;

use crate::rows::RowStore;
use crate::views::Reconstruction;

/// Spine sentinel: the tag has no retained videos, hence no row.
pub(crate) const NO_ROW: u32 = u32::MAX;

/// Aggregated per-country views for every tag of a filtered dataset.
/// Equality compares the spines and each row's values, not where the
/// rows are stored.
///
/// # Example
///
/// ```
/// use tagdist_dataset::{filter, DatasetBuilder, RawPopularity};
/// use tagdist_geo::GeoDist;
/// use tagdist_reconstruct::{Reconstruction, TagViewTable};
///
/// # fn main() -> Result<(), tagdist_geo::GeoError> {
/// let mut b = DatasetBuilder::new(2);
/// b.push_video("a", 100, &["pop"], RawPopularity::decode(vec![61, 61], 2));
/// let clean = filter(&b.build());
/// let recon = Reconstruction::compute(&clean, &GeoDist::uniform(2))?;
/// let table = TagViewTable::aggregate(&clean, &recon);
/// let pop = clean.tags().id("pop").unwrap();
/// assert_eq!(table.total_views(pop), 100.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TagViewTable {
    /// Indexed by [`TagId`]: the tag's compact row index in `rows`,
    /// or [`NO_ROW`] for tags without retained videos.
    row_of: Vec<u32>,
    /// Compact row → [`TagId`], ascending (row `r` aggregates tag
    /// `tag_of_row[r]`).
    tag_of_row: Vec<TagId>,
    /// `populated_tags` Eq. 3 aggregate rows, in [`TagId`] order.
    rows: RowStore,
    /// Indexed by [`TagId`]: retained videos carrying the tag.
    video_counts: Vec<u32>,
    country_count: usize,
}

impl TagViewTable {
    /// Aggregates `recon` (aligned with `clean`) per tag.
    ///
    /// The clean dataset already inverted the corpus at construction:
    /// [`CleanDataset::videos_with_tag`] hands each tag's retained
    /// positions in dataset order, so aggregation reuses that CSR
    /// spine instead of re-counting and re-inverting (the two serial
    /// passes this stage used to pay). Rows then compute independently
    /// over the `TAGDIST_THREADS` worker pool, each row the
    /// dataset-order sum of its postings' reconstructed rows. Because
    /// a row's addition sequence is a pure function of the corpus — no
    /// shards, no merges — the table is bit-identical at any thread
    /// count *and* bit-identical to the serial boxed-row build it
    /// replaced (see the test-only [`reference`] oracle).
    ///
    /// # Panics
    ///
    /// Panics if `recon` was computed from a different dataset (length
    /// mismatch).
    pub fn aggregate(clean: &CleanDataset, recon: &Reconstruction) -> TagViewTable {
        TagViewTable::aggregate_with(&Pool::from_env(), clean, recon)
    }

    /// [`aggregate`](TagViewTable::aggregate), instrumented: opens an
    /// `aggregate` child span of `parent` and records the stage's
    /// deterministic counters (`aggregate.tags_total`,
    /// `.tags_populated`, `.postings`, `.cells`) plus pool dispatch
    /// stats into its recorder.
    ///
    /// # Panics
    ///
    /// As for [`aggregate`](TagViewTable::aggregate).
    pub fn aggregate_obs(
        clean: &CleanDataset,
        recon: &Reconstruction,
        parent: &SpanGuard,
    ) -> TagViewTable {
        let span = parent.child("aggregate");
        let obs = span.recorder().clone();
        let pool = Pool::from_env().with_obs(&obs);
        let table = TagViewTable::aggregate_with(&pool, clean, recon);
        obs.add("aggregate.tags_total", clean.tags().len() as u64);
        obs.add("aggregate.tags_populated", table.populated_tags() as u64);
        obs.add(
            "aggregate.postings",
            table.video_counts.iter().map(|&c| u64::from(c)).sum(),
        );
        obs.add(
            "aggregate.cells",
            (table.populated_tags() * table.country_count) as u64,
        );
        table
    }

    /// [`aggregate`](TagViewTable::aggregate) on an explicit pool.
    ///
    /// # Panics
    ///
    /// Panics if `recon` was computed from a different dataset (length
    /// mismatch).
    pub fn aggregate_with(
        pool: &Pool,
        clean: &CleanDataset,
        recon: &Reconstruction,
    ) -> TagViewTable {
        assert_eq!(
            clean.len(),
            recon.len(),
            "reconstruction does not match dataset"
        );
        let tag_count = clean.tags().len();
        let country_count = recon.country_count();

        // The clean dataset inverted the corpus at construction:
        // `videos_with_tag` is each tag's retained dataset positions,
        // in dataset order — the exact posting lists the two serial
        // count-and-invert passes here used to rebuild. Only the
        // compact row spine (populated tags in TagId order) remains to
        // derive.
        let populated = clean.unique_tags();
        let mut video_counts = vec![0u32; tag_count];
        let mut row_of = vec![NO_ROW; tag_count];
        let mut tag_of_row = Vec::with_capacity(populated);
        for index in 0..tag_count {
            let count = clean.videos_with_tag(TagId::from_index(index)).len();
            video_counts[index] = count as u32;
            if count > 0 {
                row_of[index] = tag_of_row.len() as u32;
                tag_of_row.push(TagId::from_index(index));
            }
        }

        // Every compact row is the dataset-order sum of its postings'
        // reconstructed rows. Rows are independent, so they fan out
        // over the pool writing straight into one contiguous buffer;
        // each row's addition sequence never depends on scheduling, so
        // the result is bit-identical at any thread count — and to a
        // serial video-order accumulation.
        let recon_rows = recon.rows();
        let mut data = vec![0.0; populated * country_count];
        let _: Vec<()> = pool.par_fill(
            &tag_of_row,
            &mut data,
            country_count,
            |_start, chunk, block| {
                for (j, &tag) in chunk.iter().enumerate() {
                    let dst = &mut block[j * country_count..(j + 1) * country_count];
                    for &pos in clean.videos_with_tag(tag) {
                        kernel::add_assign(dst, recon_rows.row(pos as usize));
                    }
                }
            },
        );

        TagViewTable {
            row_of,
            tag_of_row,
            rows: RowStore::from_dense(populated, country_count, data),
            video_counts,
            country_count,
        }
    }

    /// Assembles a table from already-aggregated parts (the
    /// streaming-ingest engine's snapshot path). Invariants expected:
    /// `row_of` and `video_counts` are full-vocabulary spines,
    /// `tag_of_row` lists populated tags ascending, and `rows` holds
    /// their aggregates in the same order.
    pub(crate) fn from_parts(
        row_of: Vec<u32>,
        tag_of_row: Vec<TagId>,
        rows: RowStore,
        video_counts: Vec<u32>,
        country_count: usize,
    ) -> TagViewTable {
        debug_assert_eq!(rows.len(), tag_of_row.len());
        TagViewTable {
            row_of,
            tag_of_row,
            rows,
            video_counts,
            country_count,
        }
    }

    /// World size of every row.
    pub fn country_count(&self) -> usize {
        self.country_count
    }

    /// Number of tags with at least one retained video (the compact
    /// matrix's row count).
    pub fn populated_tags(&self) -> usize {
        self.tag_of_row.len()
    }

    /// The aggregated view vector `views(t)` as a borrowed matrix row,
    /// or `None` if the tag has no retained videos.
    pub fn views(&self, tag: TagId) -> Option<&[f64]> {
        let row = *self.row_of.get(tag.index())?;
        if row == NO_ROW {
            return None;
        }
        self.rows.get(row as usize)
    }

    /// The tag's geographic view *distribution*.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::ZeroMass`] if the tag has no retained
    /// videos (or, pathologically, zero aggregated views).
    pub fn distribution(&self, tag: TagId) -> Result<GeoDist, GeoError> {
        let row = self.views(tag).ok_or(GeoError::ZeroMass)?;
        GeoDist::from_slice(row)
    }

    /// Number of retained videos carrying `tag`.
    pub fn video_count(&self, tag: TagId) -> usize {
        self.video_counts.get(tag.index()).copied().unwrap_or(0) as usize
    }

    /// Total views aggregated under `tag` (0 for unused tags).
    pub fn total_views(&self, tag: TagId) -> f64 {
        self.views(tag).map(kernel::sum).unwrap_or(0.0)
    }

    /// Iterates `(TagId, views)` over populated tags in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TagId, &[f64])> + '_ {
        self.tag_of_row
            .iter()
            .zip(self.rows.iter())
            .map(|(&tag, row)| (tag, row))
    }

    /// The `k` tags with the most aggregated views, descending — the
    /// ranking in which the paper calls `pop` "the second most viewed
    /// tag in our dataset".
    pub fn top_by_views(&self, k: usize) -> Vec<(TagId, f64)> {
        let all: Vec<(TagId, f64)> = self.iter().map(|(t, v)| (t, kernel::sum(v))).collect();
        top_k_by(all, k, |a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagdist_dataset::{filter, DatasetBuilder, RawPopularity};
    use tagdist_geo::GeoDist;

    fn setup() -> (CleanDataset, Reconstruction) {
        let mut b = DatasetBuilder::new(2);
        b.push_video(
            "a",
            1_000,
            &["pop", "music"],
            RawPopularity::decode(vec![61, 61], 2),
        );
        b.push_video("b", 100, &["pop"], RawPopularity::decode(vec![0, 61], 2));
        b.push_video("c", 10, &["lonely"], RawPopularity::decode(vec![61, 0], 2));
        let clean = filter(&b.build());
        let traffic = GeoDist::uniform(2);
        let recon = Reconstruction::compute(&clean, &traffic).unwrap();
        (clean, recon)
    }

    #[test]
    fn aggregation_implements_eq3() {
        let (clean, recon) = setup();
        let table = TagViewTable::aggregate(&clean, &recon);
        let pop = clean.tags().id("pop").unwrap();
        // a: uniform traffic, equal intensity → 500/500; b: 0/100.
        let row = table.views(pop).unwrap().to_vec();
        assert!(
            (row[0] - 500.0).abs() < 1e-6 && (row[1] - 600.0).abs() < 1e-6,
            "{row:?}"
        );
        assert_eq!(table.video_count(pop), 2);
        assert_eq!(table.total_views(pop), 1_100.0);
    }

    #[test]
    fn unused_tags_have_no_rows() {
        let mut b = DatasetBuilder::new(2);
        b.push_video("a", 5, &["kept"], RawPopularity::decode(vec![61, 0], 2));
        b.push_video("dropped", 5, &["ghost"], RawPopularity::Missing);
        let clean = filter(&b.build());
        let recon = Reconstruction::compute(&clean, &GeoDist::uniform(2)).unwrap();
        let table = TagViewTable::aggregate(&clean, &recon);
        let ghost = clean.tags().id("ghost").unwrap();
        assert!(table.views(ghost).is_none());
        assert_eq!(table.video_count(ghost), 0);
        assert_eq!(table.total_views(ghost), 0.0);
        assert!(table.distribution(ghost).is_err());
        assert_eq!(table.populated_tags(), 1);
        // Out-of-interner ids are absent, not panics.
        assert!(table.views(TagId::from_index(9_999)).is_none());
    }

    #[test]
    fn distributions_normalize() {
        let (clean, recon) = setup();
        let table = TagViewTable::aggregate(&clean, &recon);
        let pop = clean.tags().id("pop").unwrap();
        let d = table.distribution(pop).unwrap();
        assert!((d.prob(tagdist_geo::CountryId::from_index(1)) - 600.0 / 1100.0).abs() < 1e-12);
    }

    #[test]
    fn top_by_views_ranks_descending() {
        let (clean, recon) = setup();
        let table = TagViewTable::aggregate(&clean, &recon);
        let top = table.top_by_views(10);
        assert_eq!(top.len(), 3); // pop, music, lonely
        assert_eq!(clean.tags().name(top[0].0), "pop");
        assert!((top[0].1 - 1_100.0).abs() < 1e-9);
        assert!(top.windows(2).all(|w| w[0].1 >= w[1].1));
        assert_eq!(table.top_by_views(1).len(), 1);
    }

    #[test]
    fn iter_visits_populated_rows_in_order() {
        let (clean, recon) = setup();
        let table = TagViewTable::aggregate(&clean, &recon);
        let ids: Vec<usize> = table.iter().map(|(t, _)| t.index()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(table.populated_tags(), 3);
        let _ = clean;
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn mismatched_reconstruction_panics() {
        let (clean, _) = setup();
        let mut b = DatasetBuilder::new(2);
        b.push_video("z", 1, &["t"], RawPopularity::decode(vec![61, 0], 2));
        let other = filter(&b.build());
        let recon = Reconstruction::compute(&other, &GeoDist::uniform(2)).unwrap();
        let _ = TagViewTable::aggregate(&clean, &recon);
    }

    /// The determinism contract: sharded aggregation is bit-identical
    /// at any thread count, even though float addition is not
    /// associative — chunking and merge order ignore the worker count.
    #[test]
    fn aggregation_is_thread_count_invariant() {
        let (clean, recon) = reference::irregular_corpus(700);
        let reference = TagViewTable::aggregate_with(&tagdist_par::Pool::new(1), &clean, &recon);
        for threads in [2, 5, 8] {
            let parallel =
                TagViewTable::aggregate_with(&tagdist_par::Pool::new(threads), &clean, &recon);
            assert_eq!(reference, parallel, "diverged at {threads} threads");
        }
    }

    /// Eq. 3 conservation: every reconstructed view is counted once
    /// per carrying tag, so Σ_t views(t) = Σ_v |tags(v)|·views(v).
    #[test]
    fn mass_conservation_across_tags() {
        let (clean, recon) = setup();
        let table = TagViewTable::aggregate(&clean, &recon);
        let total_tagged: f64 = table.iter().map(|(_, v)| kernel::sum(v)).sum();
        let expected: f64 = clean
            .iter()
            .map(|v| v.tags.len() as f64 * v.total_views as f64)
            .sum();
        assert!((total_tagged - expected).abs() < 1e-6);
    }
}

/// Test-only reference implementation: the pre-columnar boxed-row
/// build — a `Vec<Option<CountryVec>>` at full vocabulary width,
/// accumulated serially in dataset order — kept so proptests can
/// assert the CSR table matches it bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use tagdist_dataset::{filter, CleanDataset, DatasetBuilder, RawPopularity, TagId};
    use tagdist_geo::{CountryVec, GeoDist};

    use crate::views::Reconstruction;

    /// The PR 2 storage layout: per-tag boxed rows at full vocabulary
    /// width, lazily allocated on first touch.
    pub struct TagShard {
        pub rows: Vec<Option<CountryVec>>,
        pub video_counts: Vec<usize>,
    }

    impl TagShard {
        fn empty(tag_count: usize) -> TagShard {
            TagShard {
                rows: vec![None; tag_count],
                video_counts: vec![0; tag_count],
            }
        }

        fn add_video(&mut self, tags: &[TagId], views: &[f64], country_count: usize) {
            for &tag in tags {
                let row =
                    self.rows[tag.index()].get_or_insert_with(|| CountryVec::zeros(country_count));
                for (slot, &v) in row.as_mut_slice().iter_mut().zip(views) {
                    *slot += v;
                }
                self.video_counts[tag.index()] += 1;
            }
        }
    }

    /// The oracle build: one serial pass in dataset order. The
    /// columnar table's per-row posting lists replay exactly this
    /// addition sequence, so the two must agree bit for bit.
    pub fn aggregate(clean: &CleanDataset, recon: &Reconstruction) -> TagShard {
        assert_eq!(clean.len(), recon.len());
        let country_count = recon.country_count();
        let mut shard = TagShard::empty(clean.tags().len());
        for (video, row) in clean.iter().zip(recon.iter()) {
            shard.add_video(video.tags, row, country_count);
        }
        shard
    }

    /// A corpus with irregular tag overlap and view counts across
    /// chunks, for determinism and equivalence tests.
    pub fn irregular_corpus(videos: usize) -> (CleanDataset, Reconstruction) {
        let mut b = DatasetBuilder::new(3);
        for i in 0..videos {
            let tags: Vec<String> = (0..=(i % 4))
                .map(|t| format!("tag{}", (i + t) % 37))
                .collect();
            let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
            let raw = vec![(i % 61 + 1) as u8, ((i * 7) % 61) as u8, 30];
            b.push_video(&format!("v{i}"), 10 + (i * i % 9_999) as u64, &tag_refs, {
                RawPopularity::decode(raw, 3)
            });
        }
        let clean = filter(&b.build());
        let recon = Reconstruction::compute(&clean, &GeoDist::uniform(3)).unwrap();
        (clean, recon)
    }
}

#[cfg(test)]
mod reference_tests {
    use super::*;
    use tagdist_par::Pool;

    /// The satellite contract: the columnar CSR table must match the
    /// old boxed-row build **exactly** — values bit for bit, video
    /// counts, and missing-tag handling — at several thread counts.
    fn assert_matches_reference(clean: &tagdist_dataset::CleanDataset, recon: &Reconstruction) {
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let columnar = TagViewTable::aggregate_with(&pool, clean, recon);
            let oracle = reference::aggregate(clean, recon);
            assert_eq!(columnar.row_of.len(), oracle.rows.len());
            let mut populated = 0;
            for (index, row) in oracle.rows.iter().enumerate() {
                let tag = TagId::from_index(index);
                match row {
                    Some(expected) => {
                        populated += 1;
                        assert_eq!(
                            columnar.views(tag),
                            Some(expected.as_slice()),
                            "tag {tag:?} at {threads} threads"
                        );
                    }
                    None => assert_eq!(columnar.views(tag), None, "tag {tag:?} should be absent"),
                }
                assert_eq!(columnar.video_count(tag), oracle.video_counts[index]);
            }
            assert_eq!(columnar.populated_tags(), populated);
        }
    }

    #[test]
    fn columnar_matches_reference_on_irregular_corpus() {
        let (clean, recon) = reference::irregular_corpus(700);
        assert_matches_reference(&clean, &recon);
    }

    #[test]
    fn columnar_matches_reference_on_empty_corpus() {
        let (clean, recon) = reference::irregular_corpus(0);
        assert_matches_reference(&clean, &recon);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tagdist_dataset::{filter, DatasetBuilder, RawPopularity};
    use tagdist_par::Pool;

    proptest! {
        /// Random corpora, random thread counts: the CSR table and the
        /// old boxed-row reference agree exactly (values, counts,
        /// missing tags).
        #[test]
        fn columnar_equals_boxed_reference(
            specs in proptest::collection::vec(
                (1u64..1_000_000, 0usize..6, proptest::collection::vec(0u8..=61, 3)),
                0..40
            ),
            threads in 1usize..9
        ) {
            let mut b = DatasetBuilder::new(3);
            for (i, (views, tag_seed, raw)) in specs.iter().enumerate() {
                let tags: Vec<String> =
                    (0..=(tag_seed % 3)).map(|t| format!("t{}", (i + t) % 11)).collect();
                let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
                b.push_video(
                    &format!("v{i}"),
                    *views,
                    &tag_refs,
                    RawPopularity::decode(raw.clone(), 3),
                );
            }
            let clean = filter(&b.build());
            let recon = Reconstruction::compute(&clean, &tagdist_geo::GeoDist::uniform(3)).unwrap();
            let pool = Pool::new(threads);
            let columnar = TagViewTable::aggregate_with(&pool, &clean, &recon);
            let oracle = reference::aggregate(&clean, &recon);
            for (index, row) in oracle.rows.iter().enumerate() {
                let tag = tagdist_dataset::TagId::from_index(index);
                prop_assert_eq!(columnar.views(tag), row.as_ref().map(|r| r.as_slice()));
                prop_assert_eq!(columnar.video_count(tag), oracle.video_counts[index]);
            }
        }
    }
}
