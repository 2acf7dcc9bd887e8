//! Dataset subsampling.
//!
//! Paper-scale corpora are slow to iterate on; analyses are normally
//! prototyped on subsamples. Uniform sampling under-represents the
//! heavy tail of view counts (one *Baby ft. Ludacris* carries more
//! views than hundreds of thousands of niche videos together), so the
//! sampler here is views-stratified.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::dataset::{Dataset, DatasetBuilder};
use crate::record::VideoRecord;

fn rebuild(dataset: &Dataset, picks: &[&VideoRecord]) -> Dataset {
    let mut builder = DatasetBuilder::new(dataset.country_count());
    for record in picks {
        let tags: Vec<&str> = record
            .tags
            .iter()
            .map(|&t| dataset.tags().name(t))
            .collect();
        builder.push_video_titled(
            &record.key,
            &record.title,
            record.total_views,
            &tags,
            record.popularity.clone(),
        );
    }
    builder.build()
}

/// Views-stratified sample: splits the corpus into `strata` view-count
/// bands of equal population and draws `n / strata` videos uniformly
/// from each, preserving the head-to-tail spectrum.
///
/// # Panics
///
/// Panics if `strata` is zero.
pub fn sample_stratified(dataset: &Dataset, n: usize, strata: usize, seed: u64) -> Dataset {
    assert!(strata > 0, "need at least one stratum");
    if n >= dataset.len() {
        let picks: Vec<&VideoRecord> = dataset.iter().collect();
        return rebuild(dataset, &picks);
    }
    let mut ranked: Vec<&VideoRecord> = dataset.iter().collect();
    ranked.sort_by(|a, b| b.total_views.cmp(&a.total_views).then(a.id.cmp(&b.id)));

    let mut rng = StdRng::seed_from_u64(seed);
    let per_stratum = n.div_ceil(strata);
    let stratum_size = ranked.len().div_ceil(strata);
    let mut picks: Vec<&VideoRecord> = Vec::with_capacity(n);
    for chunk in ranked.chunks(stratum_size.max(1)) {
        let mut local: Vec<&VideoRecord> = chunk.to_vec();
        local.shuffle(&mut rng);
        picks.extend(local.into_iter().take(per_stratum));
        if picks.len() >= n {
            break;
        }
    }
    picks.truncate(n);
    picks.sort_by_key(|r| r.id);
    rebuild(dataset, &picks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RawPopularity;

    fn corpus(n: usize) -> Dataset {
        let mut b = DatasetBuilder::new(1);
        for i in 0..n {
            // Heavy-tailed-ish views: quadratic in index.
            let views = ((n - i) * (n - i)) as u64;
            b.push_video(
                &format!("v{i}"),
                views,
                &["t", &format!("u{i}")],
                RawPopularity::decode(vec![61], 1),
            );
        }
        b.build()
    }

    #[test]
    fn oversampling_returns_everything() {
        let d = corpus(10);
        assert_eq!(sample_stratified(&d, 50, 4, 1).len(), 10);
    }

    #[test]
    fn stratified_covers_head_and_tail() {
        let d = corpus(100);
        let s = sample_stratified(&d, 20, 4, 3);
        assert_eq!(s.len(), 20);
        let max = s.iter().map(|v| v.total_views).max().unwrap();
        let min = s.iter().map(|v| v.total_views).min().unwrap();
        // Head stratum (views ≥ (75)² = 5625) and tail stratum
        // (views ≤ 25² = 625) must both be present.
        assert!(max >= 5_625, "head missing: max {max}");
        assert!(min <= 625, "tail missing: min {min}");
    }

    #[test]
    fn samples_reintern_tags_densely() {
        let d = corpus(100);
        let s = sample_stratified(&d, 10, 2, 2);
        // 10 videos × unique tag + shared "t".
        assert_eq!(s.tags().len(), 11);
        for (i, (tag, _)) in s.tags().iter().enumerate() {
            assert_eq!(tag.index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "stratum")]
    fn zero_strata_panics() {
        let d = corpus(10);
        let _ = sample_stratified(&d, 5, 0, 1);
    }
}
