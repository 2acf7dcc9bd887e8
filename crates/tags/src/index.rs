//! Inverted geographic index: what is watched *where*.
//!
//! The per-tag analysis answers "where is this tag viewed?"; a cache
//! operator asks the inverse: "which tags characterize this country?"
//! [`GeoTagIndex`] materializes both rankings per country:
//!
//! * **by views** — the tags with the most reconstructed views in the
//!   country (dominated by global tags, like the head of any chart),
//! * **by lift** — the tags most *over-represented* relative to the
//!   world traffic share (`share_in_country / country_traffic_share`),
//!   which surfaces the `favela`-like local signature tags.

use tagdist_dataset::TagId;
use tagdist_geo::{kernel, top_k_by, CountryId, GeoDist};
use tagdist_reconstruct::TagViewTable;

/// One scored tag in a country ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredTag {
    /// The tag.
    pub tag: TagId,
    /// Reconstructed views of the tag inside the country.
    pub views: f64,
    /// Over-representation: tag's in-country view share divided by
    /// the country's world traffic share.
    pub lift: f64,
}

/// A candidate list is pruned back to its top `k` once it holds this
/// many times `k` entries, so building keeps `O(countries × k)`
/// candidates instead of every nonzero (tag, country) cell.
const PRUNE_FACTOR: usize = 4;

/// Per-country tag rankings.
#[derive(Debug, Clone)]
pub struct GeoTagIndex {
    by_views: Vec<Vec<ScoredTag>>,
    by_lift: Vec<Vec<ScoredTag>>,
}

impl GeoTagIndex {
    /// Builds the index from the Eq. 3 table, keeping the top `k`
    /// tags per country per ranking.
    ///
    /// `min_views` and `min_videos` suppress noise: tags need at
    /// least that much total reconstructed view mass *and* that many
    /// carrying videos to enter the lift ranking (raw lift explodes
    /// for the folksonomy's single-video tags).
    ///
    /// # Panics
    ///
    /// Panics if `traffic` does not cover the table's world size.
    pub fn build(
        table: &TagViewTable,
        traffic: &GeoDist,
        k: usize,
        min_views: f64,
        min_videos: usize,
    ) -> GeoTagIndex {
        assert_eq!(
            table.country_count(),
            traffic.len(),
            "traffic and table must cover the same world"
        );
        let countries = table.country_count();
        let mut by_views = vec![Candidates::default(); countries];
        let mut by_lift = vec![Candidates::default(); countries];

        for (tag, views) in table.iter() {
            let total = kernel::sum(views);
            if total <= 0.0 {
                continue;
            }
            let lift_ranked = total >= min_views && table.video_count(tag) >= min_videos;
            for (index, &v) in views.iter().enumerate() {
                if v <= 0.0 {
                    continue;
                }
                let country = CountryId::from_index(index);
                let share = v / total;
                let traffic_share = traffic.prob(country);
                let lift = if traffic_share > 0.0 {
                    share / traffic_share
                } else {
                    0.0
                };
                let scored = ScoredTag {
                    tag,
                    views: v,
                    lift,
                };
                by_views[country.index()].offer(scored, k, by_views_order);
                if lift_ranked {
                    by_lift[country.index()].offer(scored, k, by_lift_order);
                }
            }
        }

        GeoTagIndex {
            by_views: Candidates::finish(by_views, k, by_views_order),
            by_lift: Candidates::finish(by_lift, k, by_lift_order),
        }
    }

    /// Number of countries indexed.
    pub fn country_count(&self) -> usize {
        self.by_views.len()
    }

    /// The country's most-viewed tags, descending.
    ///
    /// # Panics
    ///
    /// Panics if `country` is out of range.
    pub fn top_by_views(&self, country: CountryId) -> &[ScoredTag] {
        &self.by_views[country.index()]
    }

    /// The country's signature tags (highest lift), descending.
    ///
    /// # Panics
    ///
    /// Panics if `country` is out of range.
    pub fn top_by_lift(&self, country: CountryId) -> &[ScoredTag] {
        &self.by_lift[country.index()]
    }
}

/// A ranking: best first, as a total order.
type Order = fn(&ScoredTag, &ScoredTag) -> core::cmp::Ordering;

/// Descending views, ties broken by ascending tag.
fn by_views_order(a: &ScoredTag, b: &ScoredTag) -> core::cmp::Ordering {
    b.views.total_cmp(&a.views).then(a.tag.cmp(&b.tag))
}

/// Descending lift, ties broken by ascending tag.
fn by_lift_order(a: &ScoredTag, b: &ScoredTag) -> core::cmp::Ordering {
    b.lift.total_cmp(&a.lift).then(a.tag.cmp(&b.tag))
}

/// One country's candidates under one ranking while the index builds.
///
/// The list is pruned back to its top `k` whenever it holds
/// `PRUNE_FACTOR × k` entries, and the `k`-th best entry after the
/// latest prune becomes the bar a newcomer must beat to be kept.
/// Both steps are exact: a dropped entry is beaten by `k` kept ones,
/// and entries only ever join, so it can never re-enter the final top
/// `k`. The unique tag tiebreak makes the order total, so ties prune
/// the same way a full sort would rank them.
#[derive(Debug, Clone, Default)]
struct Candidates {
    list: Vec<ScoredTag>,
    bar: Option<ScoredTag>,
}

impl Candidates {
    /// Adds `scored` unless the bar beats it, pruning the list first
    /// when it is full.
    fn offer(&mut self, scored: ScoredTag, k: usize, order: Order) {
        if self.bar.is_some_and(|bar| order(&scored, &bar).is_gt()) {
            return;
        }
        if self.list.len() >= k.saturating_mul(PRUNE_FACTOR).max(1) {
            self.list = top_k_by(core::mem::take(&mut self.list), k, order);
            self.bar = self.list.last().copied();
        }
        self.list.push(scored);
    }

    /// Each country's final top `k`, best first.
    fn finish(lists: Vec<Candidates>, k: usize, order: Order) -> Vec<Vec<ScoredTag>> {
        lists
            .into_iter()
            .map(|c| top_k_by(c.list, k, order))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagdist_dataset::{filter, CleanDataset, DatasetBuilder, RawPopularity};
    use tagdist_geo::CountryVec;
    use tagdist_reconstruct::Reconstruction;

    /// Country 0 has 80 % of traffic, country 1 has 20 %.
    fn traffic() -> GeoDist {
        GeoDist::from_counts(&CountryVec::from_values(vec![8.0, 2.0])).unwrap()
    }

    fn setup() -> (CleanDataset, TagViewTable) {
        let mut b = DatasetBuilder::new(2);
        let pop = |v: Vec<u8>| RawPopularity::decode(v, 2);
        // "global" rides traffic; "niche" lives in the small country.
        b.push_video("g", 1_000, &["global"], pop(vec![61, 61]));
        b.push_video("n", 200, &["niche"], pop(vec![0, 61]));
        let clean = filter(&b.build());
        let recon = Reconstruction::compute(&clean, &traffic()).unwrap();
        let table = TagViewTable::aggregate(&clean, &recon);
        (clean, table)
    }

    #[test]
    fn views_ranking_favours_the_global_tag() {
        let (clean, table) = setup();
        let index = GeoTagIndex::build(&table, &traffic(), 5, 0.0, 0);
        let c0 = CountryId::from_index(0);
        let top = index.top_by_views(c0);
        assert_eq!(clean.tags().name(top[0].tag), "global");
        // niche has zero views in country 0 → absent entirely.
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn lift_ranking_surfaces_the_signature_tag() {
        let (clean, table) = setup();
        let index = GeoTagIndex::build(&table, &traffic(), 5, 0.0, 0);
        let c1 = CountryId::from_index(1);
        let top = index.top_by_lift(c1);
        assert_eq!(clean.tags().name(top[0].tag), "niche");
        // niche: 100 % of its views in a country with 20 % traffic → lift 5.
        assert!((top[0].lift - 5.0).abs() < 1e-9, "lift {}", top[0].lift);
        // global: share == traffic share → lift 1.
        let global = top
            .iter()
            .find(|s| clean.tags().name(s.tag) == "global")
            .expect("global indexed");
        assert!((global.lift - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_views_suppresses_sparse_tags_from_lift() {
        let (clean, table) = setup();
        let index = GeoTagIndex::build(&table, &traffic(), 5, 500.0, 0);
        let c1 = CountryId::from_index(1);
        // niche (200 total views) is filtered from lift…
        assert!(index
            .top_by_lift(c1)
            .iter()
            .all(|s| clean.tags().name(s.tag) != "niche"));
        // …but still present in the views ranking.
        assert!(index
            .top_by_views(c1)
            .iter()
            .any(|s| clean.tags().name(s.tag) == "niche"));
    }

    #[test]
    fn min_videos_suppresses_singleton_tags_from_lift() {
        let (clean, table) = setup();
        let index = GeoTagIndex::build(&table, &traffic(), 5, 0.0, 2);
        // Both tags are single-video → lift rankings are empty…
        for c in 0..index.country_count() {
            assert!(index.top_by_lift(CountryId::from_index(c)).is_empty());
        }
        // …while views rankings are untouched.
        assert!(!index.top_by_views(CountryId::from_index(0)).is_empty());
        let _ = clean;
    }

    #[test]
    fn k_truncates_rankings() {
        let (_, table) = setup();
        let index = GeoTagIndex::build(&table, &traffic(), 1, 0.0, 0);
        for c in 0..index.country_count() {
            assert!(index.top_by_views(CountryId::from_index(c)).len() <= 1);
            assert!(index.top_by_lift(CountryId::from_index(c)).len() <= 1);
        }
    }

    /// Satellite fixture: the selection-based rankings must equal the
    /// full-sort rankings entry for entry — including tied scores,
    /// which the unique-tag tiebreak orders deterministically.
    #[test]
    fn top_k_selection_matches_full_sort_including_ties() {
        let mut b = DatasetBuilder::new(2);
        let pop = |v: Vec<u8>| RawPopularity::decode(v, 2);
        // 30 single-tag videos; groups of 3 share identical view
        // totals and identical charts → exact score ties in both
        // rankings.
        for i in 0..30u64 {
            let tag = format!("t{i:02}");
            let views = 100 * (i / 3 + 1);
            b.push_video(&format!("v{i}"), views, &[tag.as_str()], pop(vec![40, 20]));
        }
        let clean = filter(&b.build());
        let recon = Reconstruction::compute(&clean, &traffic()).unwrap();
        let table = TagViewTable::aggregate(&clean, &recon);
        // k >= candidate count degenerates to exactly a full sort.
        let full = GeoTagIndex::build(&table, &traffic(), usize::MAX, 0.0, 0);
        for k in [1, 2, 3, 4, 7, 29, 30, 31] {
            let pruned = GeoTagIndex::build(&table, &traffic(), k, 0.0, 0);
            for c in 0..pruned.country_count() {
                let c = CountryId::from_index(c);
                let all_views = full.top_by_views(c);
                let all_lift = full.top_by_lift(c);
                assert_eq!(
                    pruned.top_by_views(c),
                    &all_views[..k.min(all_views.len())],
                    "views ranking diverged at k={k}"
                );
                assert_eq!(
                    pruned.top_by_lift(c),
                    &all_lift[..k.min(all_lift.len())],
                    "lift ranking diverged at k={k}"
                );
            }
        }
        let _ = clean;
    }

    /// Full-sort reference: every nonzero cell scored and sorted.
    fn reference(
        table: &TagViewTable,
        traffic: &GeoDist,
        min_views: f64,
        min_videos: usize,
    ) -> (Vec<Vec<ScoredTag>>, Vec<Vec<ScoredTag>>) {
        let countries = table.country_count();
        let mut by_views = vec![Vec::new(); countries];
        let mut by_lift = vec![Vec::new(); countries];
        for (tag, views) in table.iter() {
            let total: f64 = kernel::sum(views);
            for (c, &v) in views.iter().enumerate() {
                if total <= 0.0 || v <= 0.0 {
                    continue;
                }
                let traffic_share = traffic.prob(CountryId::from_index(c));
                let lift = if traffic_share > 0.0 {
                    v / total / traffic_share
                } else {
                    0.0
                };
                let scored = ScoredTag {
                    tag,
                    views: v,
                    lift,
                };
                by_views[c].push(scored);
                if total >= min_views && table.video_count(tag) >= min_videos {
                    by_lift[c].push(scored);
                }
            }
        }
        for list in by_views.iter_mut() {
            list.sort_by(by_views_order);
        }
        for list in by_lift.iter_mut() {
            list.sort_by(by_lift_order);
        }
        (by_views, by_lift)
    }

    /// The bounded candidate lists must prune many times per country
    /// and still equal a full sort, with tied views and tied lifts
    /// deciding membership at the cut.
    #[test]
    fn bounded_build_equals_full_sort_across_many_prunes() {
        let cc = 3;
        let traffic = GeoDist::from_counts(&CountryVec::from_values(vec![5.0, 3.0, 2.0])).unwrap();
        let mut b = DatasetBuilder::new(cc);
        let pop = |v: Vec<u8>| RawPopularity::decode(v, cc);
        // 1,800 tags, in tag-id order. Tags in a group of 4 share their
        // view total and chart, so their views and lifts tie exactly.
        // Views and country 2's chart byte fall along the order with
        // hashed noise, so later tags keep landing near rank k after
        // the first prune. Country 0's chart is zero for a third of the
        // groups. Every fifth tag gets a second carrier so the
        // `min_videos` filter splits the lift candidates.
        for i in 0..1_800usize {
            let group = i / 4;
            let noise = group.wrapping_mul(2_654_435_761) % 1_000_003;
            let chart = vec![
                (noise % 3 * 30) as u8,
                30,
                (61 - (group + noise % 120) / 14).max(21) as u8,
            ];
            let tag = format!("t{i:04}");
            let views = (200_000 - 300 * group + 100 * (noise / 3 % 400)) as u64;
            b.push_video(&format!("v{i}"), views, &[tag.as_str()], pop(chart.clone()));
            if i % 5 == 0 {
                b.push_video(&format!("w{i}"), views, &[tag.as_str()], pop(chart));
            }
        }
        let clean = filter(&b.build());
        let recon = Reconstruction::compute(&clean, &traffic).unwrap();
        let table = TagViewTable::aggregate(&clean, &recon);
        assert!(table.populated_tags() >= 1_800);

        for (min_views, min_videos) in [(0.0, 0), (1_500.0, 2)] {
            let (views, lift) = reference(&table, &traffic, min_views, min_videos);
            for k in [1, 8, 50] {
                let index = GeoTagIndex::build(&table, &traffic, k, min_views, min_videos);
                for c in 0..cc {
                    if min_videos == 0 {
                        // Every country's candidates cross the prune
                        // limit several times over.
                        assert!(lift[c].len() >= 4 * PRUNE_FACTOR * k, "c={c}");
                    }
                    let id = CountryId::from_index(c);
                    let top_views = &views[c][..k.min(views[c].len())];
                    let top_lift = &lift[c][..k.min(lift[c].len())];
                    assert_eq!(index.top_by_views(id), top_views, "views k={k} c={c}");
                    assert_eq!(index.top_by_lift(id), top_lift, "lift k={k} c={c}");
                }
            }
        }
    }

    /// Streams built to land one late entry exactly at rank `k` after
    /// a prune, either strictly between the scores at ranks `k - 1` and
    /// `k` or tying the score at rank `k` with a smaller tag id. The
    /// kept candidates must still equal a full sort.
    #[test]
    fn candidates_keep_the_full_sort_top_k_at_the_bar() {
        let scored = |tag: usize, score: f64| ScoredTag {
            tag: TagId::from_index(tag),
            views: score,
            lift: score,
        };
        for k in [1, 8, 50] {
            for order in [by_views_order as Order, by_lift_order] {
                for tie in [false, true] {
                    // Falling scores in tied pairs (for even k, ranks k
                    // and k + 1 share one), long enough to prune
                    // several times.
                    let n = 6 * k + 10;
                    let mut stream: Vec<ScoredTag> = (0..n)
                        .map(|i| scored(1_000 + i, (n - i.div_ceil(2)) as f64))
                        .collect();
                    let kth = stream[k - 1].views;
                    let late = if tie {
                        scored(k, kth)
                    } else if k > 1 {
                        scored(2_000, (stream[k - 2].views + kth) / 2.0)
                    } else {
                        scored(2_000, kth + 0.5)
                    };
                    stream.push(late);
                    // Worse entries after, so the list prunes again.
                    stream.extend((0..5 * k + 1).map(|i| scored(3_000 + i, -(i as f64))));

                    let mut candidates = Candidates::default();
                    for &s in &stream {
                        candidates.offer(s, k, order);
                    }
                    let kept = Candidates::finish(vec![candidates], k, order).remove(0);
                    stream.sort_by(order);
                    stream.truncate(k);
                    assert_eq!(kept[k - 1], late, "k={k} tie={tie}");
                    assert_eq!(kept, stream, "k={k} tie={tie}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "same world")]
    fn mismatched_traffic_panics() {
        let (_, table) = setup();
        let _ = GeoTagIndex::build(&table, &GeoDist::uniform(9), 3, 0.0, 0);
    }
}
