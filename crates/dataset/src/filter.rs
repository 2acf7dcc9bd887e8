//! The paper's §2 filtering step.
//!
//! > *“we filter out all videos containing no tags (6,736 videos), or
//! > with an incorrect or empty popularity vector. This filtering step
//! > results in a dataset with 691,349 videos, associated with 705,415
//! > unique tags, totaling 173,288,616,473 views.”*
//!
//! [`filter`] reproduces that step and reports the same accounting; the
//! output is a [`CleanDataset`] whose every record carries a
//! *validated, signal-bearing* popularity vector, so downstream stages
//! (reconstruction, tag aggregation) never re-check metadata.
//!
//! # Columnar storage
//!
//! `CleanDataset` stores its videos as flat columns, not as one struct
//! per video: offset-indexed key/title pools, a dense `u64` view
//! column, a CSR video→tag spine, a fixed-stride intensity block
//! (every retained popularity vector has exactly `country_count`
//! validated bytes), and a CSR tag→video postings spine. Filtering a
//! million videos is a dozen allocations instead of millions, and the
//! hot per-column accessors ([`views_column`](CleanDataset::views_column),
//! [`intensities_of`](CleanDataset::intensities_of), …) hand slices to
//! the reconstruction without any per-video indirection. [`CleanVideo`]
//! is a borrowed row view assembled on demand by
//! [`iter`](CleanDataset::iter)/[`get`](CleanDataset::get) for code
//! that wants record-shaped access.
//!
//! Two entry points build the same structure: [`filter`] from a
//! record-oriented [`Dataset`], and [`filter_columnar`] straight from
//! a zero-copy [`ColumnarView`] over a `bin v1` image (typically a
//! mapped file). Both visit videos in dataset order and apply the
//! identical predicate, so their outputs are equal field for field —
//! an invariant the proptest oracle below pins down.

use core::fmt;

use tagdist_geo::PopularityView;

use crate::binfmt::{ColumnarView, POP_VALID};
use crate::dataset::Dataset;
use crate::record::VideoId;
use crate::tag::{TagId, TagInterner};

/// A video that survived filtering: tags present, popularity valid.
///
/// This is a borrowed row view over [`CleanDataset`]'s columns — cheap
/// to copy, assembled on demand — with the same field names the old
/// owned struct had, so field-access call sites read identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CleanVideo<'a> {
    /// Id in the *original* dataset (stable across filtering so raw
    /// and clean views can be joined).
    pub id: VideoId,
    /// External platform key.
    pub key: &'a str,
    /// Display title.
    pub title: &'a str,
    /// Total worldwide views (the paper's `views(v)`).
    pub total_views: u64,
    /// Interned tags (non-empty).
    pub tags: &'a [TagId],
    /// Validated, signal-bearing popularity vector (the paper's
    /// `pop(v)`).
    pub popularity: PopularityView<'a>,
}

/// Accounting of the filtering step, mirroring §2 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FilterReport {
    /// Videos in the raw crawl (paper: 1,063,844).
    pub crawled: usize,
    /// Videos dropped for carrying no tags (paper: 6,736).
    pub no_tags: usize,
    /// Videos dropped for an incorrect or empty popularity vector.
    pub bad_popularity: usize,
    /// Videos kept (paper: 691,349).
    pub kept: usize,
}

impl FilterReport {
    /// Fraction of the crawl that survived filtering (paper: ≈ 65 %).
    pub fn keep_ratio(&self) -> f64 {
        if self.crawled == 0 {
            0.0
        } else {
            self.kept as f64 / self.crawled as f64
        }
    }
}

impl fmt::Display for FilterReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crawled {} videos; dropped {} with no tags, {} with bad popularity; kept {} ({:.1}%)",
            self.crawled,
            self.no_tags,
            self.bad_popularity,
            self.kept,
            100.0 * self.keep_ratio()
        )
    }
}

/// The filtered dataset: the paper's 691,349-video working set,
/// stored columnar (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct CleanDataset {
    /// Original dataset ids, one per retained video.
    ids: Vec<VideoId>,
    /// Byte offsets of each key in `key_pool`; length `kept + 1`.
    key_offsets: Vec<usize>,
    key_pool: String,
    /// Byte offsets of each title in `title_pool`; length `kept + 1`.
    title_offsets: Vec<usize>,
    title_pool: String,
    /// Worldwide view counts, one per retained video.
    views: Vec<u64>,
    /// CSR spine into `tag_ids`; length `kept + 1`.
    tag_rows: Vec<usize>,
    /// Flat per-video tag lists, in position order.
    tag_ids: Vec<TagId>,
    /// Fixed-stride intensity block: `kept × country_count` validated
    /// bytes (every retained vector has exactly `country_count`
    /// entries — the filter predicate guarantees it).
    intensities: Vec<u8>,
    tags: TagInterner,
    /// CSR spine into `postings`; length `tags.len() + 1`.
    posting_rows: Vec<usize>,
    /// Flat tag→video postings: positions of retained videos carrying
    /// each tag, in dataset order.
    postings: Vec<u32>,
    country_count: usize,
    report: FilterReport,
    /// Computed once at construction (printed per run; hot in report
    /// code).
    unique_tags: usize,
    /// Computed once at construction.
    total_views: u128,
}

impl CleanDataset {
    /// Number of retained videos.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// Returns `true` if filtering removed everything.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// World size the popularity vectors cover.
    pub fn country_count(&self) -> usize {
        self.country_count
    }

    /// The filtering accounting.
    pub fn report(&self) -> FilterReport {
        self.report
    }

    /// Iterates over retained videos as borrowed row views.
    pub fn iter(&self) -> impl Iterator<Item = CleanVideo<'_>> + '_ {
        (0..self.len()).map(move |pos| self.video(pos))
    }

    /// Retained video by position (0‥[`len`](CleanDataset::len)).
    pub fn get(&self, pos: usize) -> Option<CleanVideo<'_>> {
        (pos < self.len()).then(|| self.video(pos))
    }

    /// The shared tag interner (covers the *raw* vocabulary; tags used
    /// only by dropped videos have empty postings here).
    pub fn tags(&self) -> &TagInterner {
        &self.tags
    }

    /// Positions (into [`iter`](CleanDataset::iter)/[`get`](CleanDataset::get))
    /// of retained videos carrying `tag` — Eq. 3's `videos(t)` on the
    /// clean set, in dataset order.
    pub fn videos_with_tag(&self, tag: TagId) -> &[u32] {
        let t = tag.index();
        if t + 1 >= self.posting_rows.len() {
            return &[];
        }
        &self.postings[self.posting_rows[t]..self.posting_rows[t + 1]]
    }

    /// Number of distinct tags attached to at least one retained video
    /// (the paper's "705,415 unique tags"). Precomputed.
    pub fn unique_tags(&self) -> usize {
        self.unique_tags
    }

    /// Sum of views over retained videos (the paper's
    /// 173,288,616,473). Precomputed.
    pub fn total_views(&self) -> u128 {
        self.total_views
    }

    /// Most-viewed retained video (Fig. 1's subject), if any.
    pub fn most_viewed(&self) -> Option<CleanVideo<'_>> {
        // Scan with `>=` so ties resolve to the *last* maximal video,
        // exactly like the `Iterator::max_by_key` this replaced —
        // rendered reports must stay byte-identical.
        let mut best: Option<usize> = None;
        for (pos, &v) in self.views.iter().enumerate() {
            if best.is_none_or(|b| v >= self.views[b]) {
                best = Some(pos);
            }
        }
        best.map(|pos| self.video(pos))
    }

    /// Original dataset id of the retained video at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn id_of(&self, pos: usize) -> VideoId {
        self.ids[pos]
    }

    /// External platform key of the retained video at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn key_of(&self, pos: usize) -> &str {
        &self.key_pool[self.key_offsets[pos]..self.key_offsets[pos + 1]]
    }

    /// Display title of the retained video at `pos`.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn title_of(&self, pos: usize) -> &str {
        &self.title_pool[self.title_offsets[pos]..self.title_offsets[pos + 1]]
    }

    /// The dense view-count column, one entry per retained video in
    /// position order — the natural slice for chunked parallel passes
    /// over the corpus.
    pub fn views_column(&self) -> &[u64] {
        &self.views
    }

    /// Interned tags of the retained video at `pos`, in upload order.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn tags_of(&self, pos: usize) -> &[TagId] {
        &self.tag_ids[self.tag_rows[pos]..self.tag_rows[pos + 1]]
    }

    /// Validated intensity bytes of the retained video at `pos`
    /// (exactly `country_count` entries).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range.
    pub fn intensities_of(&self, pos: usize) -> &[u8] {
        let cc = self.country_count;
        assert!(pos < self.len(), "position {pos} out of range");
        &self.intensities[pos * cc..(pos + 1) * cc]
    }

    /// Assembles the borrowed row view at `pos` (callers guarantee
    /// `pos < len`).
    fn video(&self, pos: usize) -> CleanVideo<'_> {
        CleanVideo {
            id: self.ids[pos],
            key: self.key_of(pos),
            title: self.title_of(pos),
            total_views: self.views[pos],
            tags: self.tags_of(pos),
            popularity: PopularityView::from_validated(self.intensities_of(pos)),
        }
    }
}

/// Incremental column builder shared by [`filter`] and
/// [`filter_columnar`], so both paths construct the result through the
/// exact same sequence of column writes.
///
/// The streaming-ingest engine (`crate::ingest`) holds one of these
/// across batches and snapshots it with `clone().finish(..)`, which is
/// why the struct is `Clone` and crate-visible: a snapshot built that
/// way runs the identical column-write + counting-sort sequence a cold
/// [`filter`] of the concatenated corpus would, so the two are equal
/// field for field.
#[derive(Debug, Clone)]
pub(crate) struct CleanBuilder {
    country_count: usize,
    pub(crate) report: FilterReport,
    ids: Vec<VideoId>,
    key_offsets: Vec<usize>,
    key_pool: String,
    title_offsets: Vec<usize>,
    title_pool: String,
    pub(crate) views: Vec<u64>,
    pub(crate) tag_rows: Vec<usize>,
    pub(crate) tag_ids: Vec<TagId>,
    pub(crate) intensities: Vec<u8>,
    total_views: u128,
}

impl CleanBuilder {
    pub(crate) fn new(country_count: usize, crawled: usize) -> CleanBuilder {
        CleanBuilder {
            country_count,
            report: FilterReport {
                crawled,
                ..FilterReport::default()
            },
            ids: Vec::new(),
            key_offsets: vec![0],
            key_pool: String::new(),
            title_offsets: vec![0],
            title_pool: String::new(),
            views: Vec::new(),
            tag_rows: vec![0],
            tag_ids: Vec::new(),
            intensities: Vec::new(),
            total_views: 0,
        }
    }

    pub(crate) fn push<I>(
        &mut self,
        id: VideoId,
        key: &str,
        title: &str,
        views: u64,
        tags: I,
        pop: &[u8],
    ) where
        I: IntoIterator<Item = TagId>,
    {
        debug_assert_eq!(pop.len(), self.country_count);
        self.ids.push(id);
        self.key_pool.push_str(key);
        self.key_offsets.push(self.key_pool.len());
        self.title_pool.push_str(title);
        self.title_offsets.push(self.title_pool.len());
        self.views.push(views);
        self.tag_ids.extend(tags);
        self.tag_rows.push(self.tag_ids.len());
        self.intensities.extend_from_slice(pop);
        self.total_views += views as u128;
    }

    pub(crate) fn finish(mut self, tags: TagInterner) -> CleanDataset {
        self.report.kept = self.views.len();
        assert!(
            u32::try_from(self.views.len()).is_ok(),
            "dataset position overflows the u32 posting space"
        );

        // Invert the video→tag spine into tag→video postings with a
        // counting sort: per-tag counts, prefix sums, then a fill in
        // dataset order — so each posting list is sorted by position,
        // matching the old per-tag `Vec::push` order exactly.
        let tag_count = tags.len();
        let mut counts = vec![0usize; tag_count];
        for tag in &self.tag_ids {
            counts[tag.index()] += 1;
        }
        let unique_tags = counts.iter().filter(|&&c| c > 0).count();
        let mut posting_rows = vec![0usize; tag_count + 1];
        for (t, &c) in counts.iter().enumerate() {
            posting_rows[t + 1] = posting_rows[t] + c;
        }
        let mut cursor = posting_rows.clone();
        let mut postings = vec![0u32; self.tag_ids.len()];
        for pos in 0..self.views.len() {
            for tag in &self.tag_ids[self.tag_rows[pos]..self.tag_rows[pos + 1]] {
                postings[cursor[tag.index()]] = pos as u32;
                cursor[tag.index()] += 1;
            }
        }

        CleanDataset {
            ids: self.ids,
            key_offsets: self.key_offsets,
            key_pool: self.key_pool,
            title_offsets: self.title_offsets,
            title_pool: self.title_pool,
            views: self.views,
            tag_rows: self.tag_rows,
            tag_ids: self.tag_ids,
            intensities: self.intensities,
            tags,
            posting_rows,
            postings,
            country_count: self.country_count,
            report: self.report,
            unique_tags,
            total_views: self.total_views,
        }
    }
}

/// Applies the paper's §2 filter to a raw crawl.
///
/// Videos with no tags are dropped first (and counted as `no_tags`
/// even if their popularity is also bad, matching the paper's
/// presentation order); remaining videos with a missing, corrupt or
/// all-zero popularity vector are dropped as `bad_popularity`.
pub fn filter(dataset: &Dataset) -> CleanDataset {
    let mut b = CleanBuilder::new(dataset.country_count(), dataset.len());
    for record in dataset.iter() {
        if record.tags.is_empty() {
            b.report.no_tags += 1;
            continue;
        }
        let Some(pop) = record.popularity.usable() else {
            b.report.bad_popularity += 1;
            continue;
        };
        b.push(
            record.id,
            &record.key,
            &record.title,
            record.total_views,
            record.tags.iter().copied(),
            pop.as_slice(),
        );
    }
    b.finish(dataset.tags().clone())
}

/// Applies the paper's §2 filter directly to a borrowed columnar view —
/// the zero-copy path from a (typically memory-mapped) binary file to
/// the clean working set, skipping [`Dataset`] materialization
/// entirely.
///
/// The predicate is the exact columnar restatement of [`filter`]'s:
/// an empty tag row is `no_tags`; a popularity that is not
/// `POP_VALID`-with-signal is `bad_popularity` (`POP_VALID` already
/// guarantees `country_count` in-range bytes — the decoder validated
/// the shape — so "usable" reduces to the sentinel plus a non-zero
/// byte). Output equals `filter(&src.to_dataset())` field for field.
pub fn filter_columnar(src: &ColumnarView<'_>) -> CleanDataset {
    let mut b = CleanBuilder::new(src.country_count(), src.len());
    for i in 0..src.len() {
        let tag_range = src.tag_range(i);
        if tag_range.is_empty() {
            b.report.no_tags += 1;
            continue;
        }
        let pop = src.pop_payload(i);
        if src.pop_kind(i) != POP_VALID || !pop.iter().any(|&v| v > 0) {
            b.report.bad_popularity += 1;
            continue;
        }
        b.push(
            VideoId::from_index(i),
            src.key(i),
            src.title(i),
            src.total_views(i),
            tag_range.map(|k| TagId::from_index(src.tag_id(k) as usize)),
            pop,
        );
    }
    b.finish(TagInterner::from_names(
        (0..src.tag_count()).map(|t| src.tag_name(t)),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binfmt::decode_borrowed;
    use crate::dataset::DatasetBuilder;
    use crate::format::write_binary;
    use crate::record::RawPopularity;

    fn build() -> Dataset {
        let mut b = DatasetBuilder::new(3);
        // clean
        b.push_video("a", 100, &["pop"], RawPopularity::decode(vec![61, 0, 0], 3));
        // no tags
        b.push_video("b", 200, &[], RawPopularity::decode(vec![0, 61, 0], 3));
        // missing popularity
        b.push_video("c", 300, &["rock"], RawPopularity::Missing);
        // corrupt popularity (wrong length)
        b.push_video("d", 400, &["rock"], RawPopularity::decode(vec![61], 3));
        // empty (all-zero) popularity
        b.push_video("e", 500, &["jazz"], RawPopularity::decode(vec![0, 0, 0], 3));
        // no tags AND bad popularity → counted as no_tags
        b.push_video("f", 600, &[], RawPopularity::Missing);
        // clean, shares a tag
        b.push_video(
            "g",
            700,
            &["pop", "live"],
            RawPopularity::decode(vec![0, 0, 61], 3),
        );
        b.build()
    }

    #[test]
    fn report_matches_paper_accounting_rules() {
        let clean = filter(&build());
        let r = clean.report();
        assert_eq!(r.crawled, 7);
        assert_eq!(r.no_tags, 2);
        assert_eq!(r.bad_popularity, 3);
        assert_eq!(r.kept, 2);
        assert_eq!(r.crawled, r.no_tags + r.bad_popularity + r.kept);
        assert!((r.keep_ratio() - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn clean_videos_keep_original_ids() {
        let clean = filter(&build());
        let keys: Vec<&str> = clean.iter().map(|v| v.key).collect();
        assert_eq!(keys, vec!["a", "g"]);
        assert_eq!(clean.get(0).unwrap().id.index(), 0);
        assert_eq!(clean.get(1).unwrap().id.index(), 6);
        assert_eq!(clean.id_of(1).index(), 6);
        assert!(clean.get(2).is_none());
    }

    #[test]
    fn unique_tags_counts_only_surviving_postings() {
        let clean = filter(&build());
        // "rock" and "jazz" only appear on dropped videos.
        assert_eq!(clean.unique_tags(), 2); // pop, live
        let rock = clean.tags().id("rock").unwrap();
        assert!(clean.videos_with_tag(rock).is_empty());
        let pop = clean.tags().id("pop").unwrap();
        assert_eq!(clean.videos_with_tag(pop), &[0, 1]);
    }

    #[test]
    fn totals_cover_retained_only() {
        let clean = filter(&build());
        assert_eq!(clean.total_views(), 800);
        assert_eq!(clean.most_viewed().unwrap().key, "g");
    }

    #[test]
    fn most_viewed_breaks_ties_like_max_by_key() {
        // `Iterator::max_by_key` returns the *last* maximal element;
        // Fig. 1 report bytes depend on replicating that.
        let mut b = DatasetBuilder::new(2);
        b.push_video("first", 9, &["t"], RawPopularity::decode(vec![61, 0], 2));
        b.push_video("second", 9, &["t"], RawPopularity::decode(vec![0, 61], 2));
        let clean = filter(&b.build());
        assert_eq!(clean.most_viewed().unwrap().key, "second");
    }

    #[test]
    fn columnar_accessors_match_the_row_views() {
        let clean = filter(&build());
        assert_eq!(clean.views_column(), &[100, 700]);
        for (pos, v) in clean.iter().enumerate() {
            assert_eq!(clean.key_of(pos), v.key);
            assert_eq!(clean.title_of(pos), v.title);
            assert_eq!(clean.views_column()[pos], v.total_views);
            assert_eq!(clean.tags_of(pos), v.tags);
            assert_eq!(clean.intensities_of(pos), v.popularity.as_slice());
        }
    }

    #[test]
    fn empty_dataset_filters_to_empty() {
        let clean = filter(&DatasetBuilder::new(3).build());
        assert!(clean.is_empty());
        assert_eq!(clean.report().keep_ratio(), 0.0);
        assert_eq!(clean.unique_tags(), 0);
        assert!(clean.most_viewed().is_none());
    }

    #[test]
    fn report_display_is_informative() {
        let clean = filter(&build());
        let s = clean.report().to_string();
        assert!(s.contains("crawled 7"));
        assert!(s.contains("kept 2"));
    }

    fn encode(d: &Dataset) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary(d, &mut buf).unwrap();
        buf
    }

    #[test]
    fn filter_columnar_equals_filter_via_records() {
        let d = build();
        let bin = encode(&d);
        let view = decode_borrowed(&bin).unwrap();
        let via_records = filter(&view.to_dataset());
        let via_columns = filter_columnar(&view);
        assert_eq!(via_records, via_columns);
        assert_eq!(via_columns.report(), filter(&d).report());
    }

    #[test]
    fn filter_columnar_on_empty_input() {
        let bin = encode(&DatasetBuilder::new(4).build());
        let clean = filter_columnar(&decode_borrowed(&bin).unwrap());
        assert!(clean.is_empty());
        assert_eq!(clean.country_count(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::binfmt::decode_borrowed;
    use crate::dataset::DatasetBuilder;
    use crate::record::RawPopularity;
    use proptest::prelude::*;

    proptest! {
        /// The filter oracle: `filter(view.to_dataset())` and
        /// `filter_columnar(view)` agree field for field — columns,
        /// postings order, interner and `FilterReport` counts — on
        /// random corpora mixing every popularity shape.
        #[test]
        fn filter_columnar_matches_record_path(
            specs in proptest::collection::vec(
                (
                    0u64..1_000_000,
                    0usize..5,
                    prop_oneof![
                        Just(None),                                        // missing
                        proptest::collection::vec(0u8..=61, 3).prop_map(Some),  // valid shape
                        proptest::collection::vec(0u8..=255, 0..6).prop_map(Some), // maybe corrupt
                    ],
                ),
                0..40
            )
        ) {
            let mut b = DatasetBuilder::new(3);
            for (i, (views, tag_seed, raw)) in specs.iter().enumerate() {
                let tags: Vec<String> =
                    (0..*tag_seed).map(|t| format!("t{}", (i + t) % 11)).collect();
                let tag_refs: Vec<&str> = tags.iter().map(String::as_str).collect();
                let pop = match raw {
                    None => RawPopularity::Missing,
                    Some(bytes) => RawPopularity::decode(bytes.clone(), 3),
                };
                b.push_video(&format!("v{i}"), *views, &tag_refs, pop);
            }
            let mut bin = Vec::new();
            crate::format::write_binary(&b.build(), &mut bin).unwrap();
            let view = decode_borrowed(&bin).unwrap();
            let via_records = filter(&view.to_dataset());
            let via_columns = filter_columnar(&view);
            prop_assert_eq!(via_records.report(), via_columns.report());
            prop_assert_eq!(&via_records, &via_columns);
        }
    }
}
