//! The paper's §3 pipeline: from popularity vectors to per-country
//! view estimates and per-tag geographic view distributions.
//!
//! YouTube never documented what its 0–61 popularity maps meant. The
//! paper interprets entry `pop(v)[c]` as a Google-Trends-style
//! *intensity*,
//!
//! ```text
//! pop(v)[c] = views(v)[c] / ytube[c] × K(v)          (Eq. 1)
//! ```
//!
//! approximates the unknown per-country platform traffic `ytube[c]`
//! with an Alexa-style distribution `p̂yt[c]` (Eq. 2), and eliminates
//! the per-video scale factor `K(v)` using the known total view count.
//! Solving for `views(v)[c]`:
//!
//! ```text
//! views(v)[c] ≈ pop(v)[c] · p̂yt[c]
//!               ─────────────────── × views(v)
//!               Σ_d pop(v)[d] · p̂yt[d]
//! ```
//!
//! [`reconstruct_views`] implements exactly that inversion;
//! [`Reconstruction`] applies it to a whole filtered dataset;
//! [`TagViewTable`] aggregates the estimates per tag (Eq. 3:
//! `views(t)[c] = Σ_{v ∋ t} views(v)[c]`); and [`error`] quantifies
//! reconstruction quality against ground truth — something the paper
//! could not do, and which our synthetic substrate makes measurable.
//!
//! # Example
//!
//! ```
//! use tagdist_geo::{CountryVec, GeoDist, PopularityVector};
//! use tagdist_reconstruct::reconstruct_views;
//!
//! # fn main() -> Result<(), tagdist_geo::GeoError> {
//! // Two-country world: traffic 75 % / 25 %, chart maxed in both.
//! let traffic = GeoDist::from_counts(&CountryVec::from_values(vec![3.0, 1.0]))?;
//! let pop = PopularityVector::from_raw(vec![61, 61]).unwrap();
//! let views = reconstruct_views(&pop, 1_000, &traffic)?;
//! // Equal intensity ⇒ views split like traffic.
//! assert!((views.as_slice()[0] - 750.0).abs() < 1e-6);
//! assert!((views.as_slice()[1] - 250.0).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::float_cmp,
        clippy::missing_panics_doc,
        missing_docs
    )
)]

pub mod error;
pub mod ingest;
pub mod refine;
mod rows;
pub mod sensitivity;
pub mod tagviews;
pub mod views;

pub use error::{country_bias, ErrorReport, ErrorSummary};
pub use ingest::{EpochSnapshot, IngestEngine, IngestStats, SnapshotCell};
pub use refine::{refine_prior, RefinedPrior};
pub use sensitivity::Sensitivity;
pub use tagviews::TagViewTable;
pub use views::{reconstruct_views, Reconstruction};
