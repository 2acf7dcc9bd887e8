//! Per-video view reconstruction (inverting Eq. 1 via Eq. 2).

use tagdist_geo::{kernel, CountryVec, GeoDist, GeoError, PopularityVector};

use tagdist_dataset::CleanDataset;
use tagdist_obs::SpanGuard;
use tagdist_par::Pool;

use crate::rows::RowStore;

/// Reconstructs a video's per-country view vector from its popularity
/// map, total view count and a traffic prior, writing into a
/// caller-owned row (normally a row of a reconstruction — no
/// allocation).
///
/// Implements the paper's §3 inversion:
/// `views(v)[c] ∝ pop(v)[c] · p̂yt[c]`, rescaled so the entries sum to
/// `total_views` (which eliminates the per-video Map-Chart scale
/// `K(v)`).
///
/// # Errors
///
/// * [`GeoError::LengthMismatch`] if `pop`, `traffic` and `out`
///   disagree on the world size.
/// * [`GeoError::ZeroMass`] if `pop(v)[c]·p̂yt[c]` is zero everywhere —
///   an "empty" popularity vector, which the §2 filter is supposed to
///   have removed.
pub fn reconstruct_views_into(
    pop: &PopularityVector,
    total_views: u64,
    traffic: &GeoDist,
    out: &mut [f64],
) -> Result<(), GeoError> {
    reconstruct_intensities_into(pop.as_slice(), total_views, traffic, out)
}

/// [`reconstruct_views_into`] over raw intensity bytes — the columnar
/// hot path: [`CleanDataset`] stores every popularity vector as a
/// fixed-stride slice of its intensity block, so reconstruction reads
/// the bytes where they sit. Identical arithmetic, hence bit-identical
/// output, to the `PopularityVector` wrapper.
///
/// # Errors
///
/// As for [`reconstruct_views_into`].
pub fn reconstruct_intensities_into(
    intensities: &[u8],
    total_views: u64,
    traffic: &GeoDist,
    out: &mut [f64],
) -> Result<(), GeoError> {
    let prior = traffic.as_vec().as_slice();
    if intensities.len() != prior.len() {
        return Err(GeoError::LengthMismatch {
            left: intensities.len(),
            right: prior.len(),
        });
    }
    if out.len() != prior.len() {
        return Err(GeoError::LengthMismatch {
            left: out.len(),
            right: prior.len(),
        });
    }
    for ((o, &i), &p) in out.iter_mut().zip(intensities).zip(prior) {
        *o = f64::from(i) * p;
    }
    let mass = kernel::sum(out);
    if mass <= 0.0 || !mass.is_finite() {
        return Err(GeoError::ZeroMass);
    }
    kernel::scale(out, total_views as f64 / mass);
    Ok(())
}

/// Allocating convenience wrapper around [`reconstruct_views_into`].
///
/// # Errors
///
/// As for [`reconstruct_views_into`].
pub fn reconstruct_views(
    pop: &PopularityVector,
    total_views: u64,
    traffic: &GeoDist,
) -> Result<CountryVec, GeoError> {
    let mut out = vec![0.0; traffic.len()];
    reconstruct_views_into(pop, total_views, traffic, &mut out)?;
    Ok(CountryVec::from_values(out))
}

/// Reconstructed per-country views for every video of a
/// [`CleanDataset`]: row `i` ↔ dataset position `i`, the order of
/// [`CleanDataset::iter`]. A cold [`compute`](Reconstruction::compute)
/// stores every row in one contiguous segment; an epoch published by
/// the ingest engine shares the rows of earlier epochs (see
/// [`ingest`](crate::ingest)). Equality compares rows, not storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Reconstruction {
    rows: RowStore,
}

impl Reconstruction {
    /// Reconstructs every video of `clean` under `traffic`.
    ///
    /// Videos are independent, so the corpus fans out over the
    /// `TAGDIST_THREADS` worker pool; each chunk writes its rows
    /// directly into the final flat buffer ([`Pool::par_fill`]), so
    /// there is no concatenation pass and the matrix is bit-identical
    /// at any thread count.
    ///
    /// # Errors
    ///
    /// Returns the first per-video error in dataset order (see
    /// [`reconstruct_views_into`]). With a correctly filtered dataset
    /// and a strictly positive traffic prior this cannot fail.
    pub fn compute(clean: &CleanDataset, traffic: &GeoDist) -> Result<Reconstruction, GeoError> {
        Reconstruction::compute_with(&Pool::from_env(), clean, traffic)
    }

    /// [`compute`](Reconstruction::compute), instrumented: opens a
    /// `reconstruct` child span of `parent` and records the stage's
    /// deterministic counters (`reconstruct.videos`, `.cells`,
    /// `.rows_filled`) plus pool dispatch stats into its recorder.
    ///
    /// # Errors
    ///
    /// As for [`compute`](Reconstruction::compute).
    pub fn compute_obs(
        clean: &CleanDataset,
        traffic: &GeoDist,
        parent: &SpanGuard,
    ) -> Result<Reconstruction, GeoError> {
        let span = parent.child("reconstruct");
        let obs = span.recorder().clone();
        let pool = Pool::from_env().with_obs(&obs);
        obs.add("reconstruct.videos", clean.len() as u64);
        obs.add(
            "reconstruct.cells",
            (clean.len() * clean.country_count()) as u64,
        );
        let result = Reconstruction::compute_with(&pool, clean, traffic);
        if let Ok(recon) = &result {
            obs.add("reconstruct.rows_filled", recon.len() as u64);
        }
        result
    }

    /// [`compute`](Reconstruction::compute) on an explicit pool.
    ///
    /// # Errors
    ///
    /// As for [`compute`](Reconstruction::compute).
    pub fn compute_with(
        pool: &Pool,
        clean: &CleanDataset,
        traffic: &GeoDist,
    ) -> Result<Reconstruction, GeoError> {
        let cols = clean.country_count();
        // Chunk over the dense view-count column; each worker reads
        // its videos' intensities straight out of the clean dataset's
        // fixed-stride block — no per-video structs anywhere.
        let views = clean.views_column();
        let mut data = vec![0.0; views.len() * cols];
        let results = pool.par_fill(views, &mut data, cols, |start, chunk, block| {
            for (j, &total) in chunk.iter().enumerate() {
                reconstruct_intensities_into(
                    clean.intensities_of(start + j),
                    total,
                    traffic,
                    &mut block[j * cols..(j + 1) * cols],
                )?;
            }
            Ok::<(), GeoError>(())
        });
        // Chunk results come back in chunk order and each chunk stops
        // at its first failure, so this reports the first per-video
        // error in dataset order.
        for result in results {
            result?;
        }
        Ok(Reconstruction {
            rows: RowStore::from_dense(views.len(), cols, data),
        })
    }

    /// Wraps already-computed rows (the streaming-ingest engine's
    /// snapshot path, which reconstructs rows one video at a time with
    /// [`reconstruct_intensities_into`] — the same per-row arithmetic
    /// [`compute`](Reconstruction::compute) runs, hence bit-identical).
    pub(crate) fn from_rows(rows: RowStore) -> Reconstruction {
        Reconstruction { rows }
    }

    /// Number of reconstructed videos.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if no videos were reconstructed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// World size of every row.
    pub fn country_count(&self) -> usize {
        self.rows.cols()
    }

    /// Estimated view vector of the video at dataset position `pos`,
    /// as a borrowed row.
    pub fn views(&self, pos: usize) -> Option<&[f64]> {
        self.rows.get(pos)
    }

    /// Estimated view *distribution* of the video at position `pos`.
    ///
    /// # Errors
    ///
    /// Propagates [`GeoError::ZeroMass`] for an out-of-range `pos`
    /// (never happens for rows produced by
    /// [`compute`](Reconstruction::compute), whose mass is positive by
    /// construction).
    pub fn distribution(&self, pos: usize) -> Result<GeoDist, GeoError> {
        let row = self.views(pos).ok_or(GeoError::ZeroMass)?;
        GeoDist::from_slice(row)
    }

    /// Iterates over the estimated view vectors in dataset order.
    pub fn iter(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.rows.iter()
    }

    /// The row store (the input the aggregation stage reads rows
    /// from).
    pub(crate) fn rows(&self) -> &RowStore {
        &self.rows
    }

    /// Sums all rows: the estimated per-country platform traffic
    /// implied by the reconstruction (an internal consistency check
    /// against the prior). Accumulated in row order, so the result is
    /// deterministic.
    pub fn implied_traffic(&self) -> CountryVec {
        let mut out = vec![0.0; self.country_count()];
        for row in self.iter() {
            kernel::add_assign(&mut out, row);
        }
        CountryVec::from_values(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tagdist_dataset::{filter, DatasetBuilder, RawPopularity};

    fn traffic2() -> GeoDist {
        GeoDist::from_counts(&CountryVec::from_values(vec![3.0, 1.0])).unwrap()
    }

    fn assert_close(actual: &[f64], expected: &[f64]) {
        assert_eq!(actual.len(), expected.len());
        for (a, e) in actual.iter().zip(expected) {
            assert!((a - e).abs() < 1e-6, "{actual:?} vs {expected:?}");
        }
    }

    #[test]
    fn equal_intensity_splits_like_traffic() {
        let pop = PopularityVector::from_raw(vec![61, 61]).unwrap();
        let v = reconstruct_views(&pop, 1_000, &traffic2()).unwrap();
        assert_close(v.as_slice(), &[750.0, 250.0]);
    }

    #[test]
    fn zero_intensity_gets_zero_views() {
        let pop = PopularityVector::from_raw(vec![61, 0]).unwrap();
        let v = reconstruct_views(&pop, 500, &traffic2()).unwrap();
        assert_eq!(v.as_slice(), &[500.0, 0.0]);
    }

    #[test]
    fn totals_are_preserved() {
        let pop = PopularityVector::from_raw(vec![61, 17]).unwrap();
        let v = reconstruct_views(&pop, 12_345, &traffic2()).unwrap();
        assert!((v.sum() - 12_345.0).abs() < 1e-9);
    }

    #[test]
    fn into_variant_matches_the_allocating_one_bitwise() {
        let pop = PopularityVector::from_raw(vec![61, 17]).unwrap();
        let v = reconstruct_views(&pop, 12_345, &traffic2()).unwrap();
        let mut row = vec![7.0, 7.0]; // stale contents must be overwritten
        reconstruct_views_into(&pop, 12_345, &traffic2(), &mut row).unwrap();
        assert_eq!(v.as_slice(), row.as_slice());
    }

    #[test]
    fn into_variant_rejects_a_wrong_sized_row() {
        let pop = PopularityVector::from_raw(vec![61, 17]).unwrap();
        let mut row = vec![0.0; 3];
        assert!(matches!(
            reconstruct_views_into(&pop, 10, &traffic2(), &mut row),
            Err(GeoError::LengthMismatch { left: 3, right: 2 })
        ));
    }

    #[test]
    fn intensity_differences_scale_views() {
        // Same traffic share, different intensity ⇒ views scale with
        // intensity ratio.
        let traffic = GeoDist::uniform(2);
        let pop = PopularityVector::from_raw(vec![60, 30]).unwrap();
        let v = reconstruct_views(&pop, 900, &traffic).unwrap();
        assert!((v.as_slice()[0] - 600.0).abs() < 1e-9);
        assert!((v.as_slice()[1] - 300.0).abs() < 1e-9);
    }

    #[test]
    fn paper_fig1_interpretation() {
        // Fig. 1: the USA and Singapore share intensity 61, yet the
        // USA must receive vastly more reconstructed views because its
        // traffic share is vastly larger — exactly the paper's point
        // that pop(v) is NOT a view count.
        use tagdist_geo::{world, TrafficModel};
        let world_ = world();
        let traffic = TrafficModel::reference(world_);
        let us = world_.by_code("US").unwrap().id;
        let sg = world_.by_code("SG").unwrap().id;
        let mut raw = vec![0u8; world_.len()];
        raw[us.index()] = 61;
        raw[sg.index()] = 61;
        let pop = PopularityVector::from_raw(raw).unwrap();
        let v = reconstruct_views(&pop, 1_000_000, traffic.distribution()).unwrap();
        assert!(
            v[us] > 10.0 * v[sg],
            "US {} vs SG {} reconstructed views",
            v[us],
            v[sg]
        );
    }

    #[test]
    fn disjoint_support_is_zero_mass() {
        // Traffic mass only where the chart is dark.
        let traffic = GeoDist::from_counts(&CountryVec::from_values(vec![0.0, 1.0])).unwrap();
        let pop = PopularityVector::from_raw(vec![61, 0]).unwrap();
        assert_eq!(
            reconstruct_views(&pop, 10, &traffic),
            Err(GeoError::ZeroMass)
        );
    }

    #[test]
    fn length_mismatch_is_reported() {
        let pop = PopularityVector::from_raw(vec![61]).unwrap();
        assert!(matches!(
            reconstruct_views(&pop, 10, &traffic2()),
            Err(GeoError::LengthMismatch { .. })
        ));
    }

    fn clean2() -> CleanDataset {
        let mut b = DatasetBuilder::new(2);
        b.push_video("a", 1_000, &["x"], RawPopularity::decode(vec![61, 61], 2));
        b.push_video("b", 100, &["y"], RawPopularity::decode(vec![0, 61], 2));
        filter(&b.build())
    }

    #[test]
    fn reconstruction_covers_the_dataset() {
        let clean = clean2();
        let r = Reconstruction::compute(&clean, &traffic2()).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.country_count(), 2);
        assert_close(r.views(0).unwrap(), &[750.0, 250.0]);
        assert_close(r.views(1).unwrap(), &[0.0, 100.0]);
        assert!(r.views(2).is_none());
        assert_eq!(r.iter().count(), 2);
    }

    #[test]
    fn distributions_normalize_rows() {
        let clean = clean2();
        let r = Reconstruction::compute(&clean, &traffic2()).unwrap();
        let d = r.distribution(0).unwrap();
        assert!((d.as_vec().sum() - 1.0).abs() < 1e-12);
        assert!(r.distribution(99).is_err());
    }

    #[test]
    fn parallel_compute_is_thread_count_invariant() {
        let clean = clean2();
        let reference = Reconstruction::compute_with(&Pool::new(1), &clean, &traffic2()).unwrap();
        for threads in [2, 8] {
            let parallel =
                Reconstruction::compute_with(&Pool::new(threads), &clean, &traffic2()).unwrap();
            assert_eq!(reference, parallel);
        }
    }

    #[test]
    fn implied_traffic_sums_rows() {
        let clean = clean2();
        let r = Reconstruction::compute(&clean, &traffic2()).unwrap();
        assert_close(r.implied_traffic().as_slice(), &[750.0, 350.0]);
    }

    /// End-to-end on the synthetic platform: reconstructed view
    /// distributions must be much closer to ground truth than the
    /// traffic prior is.
    #[test]
    fn reconstruction_beats_the_prior_on_synthetic_truth() {
        use tagdist_crawler::{crawl, CrawlConfig};
        use tagdist_ytsim::{Platform, WorldConfig};

        let platform = Platform::generate(WorldConfig::tiny());
        let mut ccfg = CrawlConfig::default();
        ccfg.with_budget(800);
        let outcome = crawl(&platform, &ccfg);
        let clean = filter(&outcome.dataset);
        let traffic = platform.true_traffic();
        let r = Reconstruction::compute(&clean, traffic).unwrap();

        let mut js_recon = 0.0;
        let mut js_prior = 0.0;
        let mut n = 0.0;
        for (pos, video) in clean.iter().enumerate() {
            let truth = platform
                .ground_truth(video.key)
                .expect("crawled videos exist")
                .view_distribution();
            js_recon += r.distribution(pos).unwrap().js_divergence(&truth).unwrap();
            js_prior += traffic.js_divergence(&truth).unwrap();
            n += 1.0;
        }
        js_recon /= n;
        js_prior /= n;
        assert!(
            js_recon < 0.6 * js_prior,
            "reconstruction JS {js_recon} vs prior JS {js_prior}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn reconstruction_preserves_total_and_support(
            raw in proptest::collection::vec(0u8..=61, 2..40),
            weights in proptest::collection::vec(0.01f64..10.0, 2..40),
            total in 1u64..1_000_000_000
        ) {
            let n = raw.len().min(weights.len());
            let raw = &raw[..n];
            prop_assume!(raw.iter().any(|&b| b > 0));
            let pop = PopularityVector::from_raw(raw.to_vec()).unwrap();
            let traffic = GeoDist::from_counts(
                &CountryVec::from_values(weights[..n].to_vec())).unwrap();
            let v = reconstruct_views(&pop, total, &traffic).unwrap();
            // Total preserved.
            prop_assert!((v.sum() - total as f64).abs() / (total as f64) < 1e-9);
            // Support: zero intensity ⇒ zero views; positive ⇒ positive.
            for (i, &b) in raw.iter().enumerate() {
                let val = v.as_slice()[i];
                if b == 0 {
                    prop_assert_eq!(val, 0.0);
                } else {
                    prop_assert!(val > 0.0);
                }
            }
        }
    }
}
