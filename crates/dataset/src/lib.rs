//! Data model for the crawled YouTube dataset of
//! *“From Views to Tags Distribution in Youtube”* (Middleware ’14).
//!
//! The paper's dataset (§2) is a March-2011 snowball crawl of
//! 1,063,844 videos; for each video it records the id, title, total
//! view count, the 0–61 per-country popularity vector scraped from the
//! Map-Chart service, and the uploader's tags. This crate models those
//! records and the paper's processing of them:
//!
//! * [`VideoRecord`] — one crawled video, with a possibly missing or
//!   corrupt popularity vector ([`RawPopularity`]), exactly as a real
//!   crawler would see it,
//! * [`TagInterner`] / [`TagId`] — compact interned tags (the paper's
//!   705,415 unique tags make string keys impractical),
//! * [`Dataset`] — the raw crawl result with tag and country indices,
//! * [`filter()`](filter()) — the paper's §2 filtering step (drop videos with no
//!   tags or with an incorrect/empty popularity vector), producing a
//!   [`CleanDataset`] whose records carry *validated* popularity
//!   vectors,
//! * [`stats`] — the §2 headline statistics (video / tag / view
//!   totals, tag-frequency shape),
//! * [`tsv`] — a self-contained line-oriented serialization so crawls
//!   can be saved and reloaded without external format crates,
//! * [`binfmt`] — the `bin v1` binary columnar serialization for
//!   paper-scale corpora (fixed-width sections, FNV-1a checksums),
//!   read only through the borrowed [`ColumnarView`] (zero-copy over
//!   an [`Mmap`]), with [`mod@format`] sniffing so readers accept
//!   either format.
//!
//! # Example
//!
//! ```
//! use tagdist_dataset::{Dataset, DatasetBuilder, RawPopularity};
//! use tagdist_geo::world;
//!
//! let mut b = DatasetBuilder::new(world().len());
//! b.push_video("dQw4w9WgXcQ", 42, &["pop", "music"], RawPopularity::Missing);
//! let dataset: Dataset = b.build();
//! assert_eq!(dataset.len(), 1);
//! assert_eq!(dataset.tags().len(), 2);
//! ```

// `deny`, not `forbid`: the one sanctioned exception is the scoped
// `#![allow(unsafe_code)]` in [`mod@mmap`], whose module docs carry the
// safety argument (and which the `unsafe-scope` xtask pass audits).
#![deny(unsafe_code)]
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

pub mod binfmt;
pub mod dataset;
pub mod error;
pub mod filter;
pub mod format;
pub mod ingest;
pub mod merge;
pub mod mmap;
pub mod record;
pub mod sample;
pub mod stats;
pub mod tag;
pub mod tsv;

pub use binfmt::ColumnarView;
pub use dataset::{Dataset, DatasetBuilder};
pub use error::DatasetError;
pub use filter::{filter, filter_columnar, CleanDataset, CleanVideo, FilterReport};
pub use format::{decode_any, read_any, sniff, write_binary, DatasetFormat};
pub use ingest::{CleanIngest, IngestDelta};
pub use merge::merge;
pub use mmap::Mmap;
pub use record::{RawPopularity, VideoId, VideoRecord};
pub use sample::sample_stratified;
pub use stats::{DatasetStats, TagFrequency};
pub use tag::{TagId, TagInterner};
