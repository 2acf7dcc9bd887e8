//! Format sniffing: one entry point for both dataset serializations.
//!
//! Both on-disk formats open with the ASCII prefix `#tagdist-dataset `
//! — the TSV header continues `v1 countries=N`, the binary magic
//! `bin v1` — so the first few bytes identify the format without
//! consuming the input. [`read_any`] / [`decode_any`] dispatch on that
//! sniff, letting `tagdist crawl`, `report`, checkpoint embedding and
//! `convert` accept either format transparently.

use std::io::Read;

use crate::binfmt;
use crate::dataset::Dataset;
use crate::error::DatasetError;
use crate::tsv;

/// Which serialization a byte image carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetFormat {
    /// The line-oriented `#tagdist-dataset v1` text format.
    Tsv,
    /// The `#tagdist-dataset bin v1` binary columnar format.
    Binary,
}

/// Sniffs the serialization format from the first bytes of an image.
///
/// Returns `None` when the prefix matches neither format.
#[must_use]
pub fn sniff(bytes: &[u8]) -> Option<DatasetFormat> {
    if bytes.starts_with(binfmt::MAGIC) {
        Some(DatasetFormat::Binary)
    } else if bytes.starts_with(b"#tagdist-dataset v1") {
        Some(DatasetFormat::Tsv)
    } else {
        None
    }
}

/// Decodes a dataset from an in-memory image in either format.
///
/// # Errors
///
/// * [`DatasetError::Parse`] with line 1 when the image matches
///   neither magic.
/// * Whatever the format-specific decoder reports otherwise.
pub fn decode_any(bytes: &[u8]) -> Result<Dataset, DatasetError> {
    match sniff(bytes) {
        Some(DatasetFormat::Binary) => Ok(binfmt::decode_borrowed(bytes)?.to_dataset()),
        Some(DatasetFormat::Tsv) => tsv::read(bytes),
        None => Err(DatasetError::Parse {
            line: 1,
            message: "unrecognized dataset format: expected a `#tagdist-dataset` TSV header \
                      or `bin v1` magic"
                .into(),
        }),
    }
}

/// Reads a dataset from a reader in either format (one `read_to_end`,
/// then [`decode_any`]).
///
/// # Errors
///
/// As for [`decode_any`], plus [`DatasetError::Io`] on read failure.
pub fn read_any<R: Read>(mut reader: R) -> Result<Dataset, DatasetError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    decode_any(&buf)
}

/// Serializes a dataset in the binary columnar format.
///
/// Deterministic: the same dataset produces byte-identical output.
///
/// # Errors
///
/// Propagates any I/O failure from `writer`, and
/// [`DatasetError::Format`] if the dataset exceeds the `u32` section
/// limits of `bin v1`.
pub fn write_binary<W: std::io::Write>(dataset: &Dataset, writer: W) -> Result<(), DatasetError> {
    binfmt::Sections::from_dataset(dataset)?.write(writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::record::RawPopularity;

    fn sample() -> Dataset {
        let mut b = DatasetBuilder::new(2);
        b.push_video_titled(
            "k1",
            "title",
            10,
            &["pop"],
            RawPopularity::decode(vec![3, 0], 2),
        );
        b.push_video("k2", 5, &[], RawPopularity::Missing);
        b.build()
    }

    #[test]
    fn sniffs_both_formats() {
        let d = sample();
        let mut text = Vec::new();
        tsv::write(&d, &mut text).unwrap();
        assert_eq!(sniff(&text), Some(DatasetFormat::Tsv));
        let mut bin = Vec::new();
        write_binary(&d, &mut bin).unwrap();
        assert_eq!(sniff(&bin), Some(DatasetFormat::Binary));
        assert_eq!(sniff(b"not a dataset"), None);
        assert_eq!(sniff(b""), None);
    }

    #[test]
    fn reads_either_format_transparently() {
        let d = sample();
        let mut text = Vec::new();
        tsv::write(&d, &mut text).unwrap();
        let mut bin = Vec::new();
        write_binary(&d, &mut bin).unwrap();
        for image in [text, bin] {
            let r = read_any(&image[..]).unwrap();
            assert_eq!(r.len(), d.len());
            for (a, b) in d.iter().zip(r.iter()) {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn unknown_format_is_a_parse_error() {
        let err = decode_any(b"garbage\n").unwrap_err();
        assert!(matches!(err, DatasetError::Parse { line: 1, .. }), "{err}");
        assert!(err.to_string().contains("unrecognized dataset format"));
    }

    #[test]
    fn convert_cycle_is_lossless_and_stable() {
        // TSV → bin → TSV reproduces the text bytes; bin → TSV → bin
        // reproduces the binary bytes.
        let d = sample();
        let mut text = Vec::new();
        tsv::write(&d, &mut text).unwrap();
        let mut bin = Vec::new();
        write_binary(&decode_any(&text).unwrap(), &mut bin).unwrap();
        let mut text2 = Vec::new();
        tsv::write(&decode_any(&bin).unwrap(), &mut text2).unwrap();
        assert_eq!(text, text2);
        let mut bin2 = Vec::new();
        write_binary(&decode_any(&text2).unwrap(), &mut bin2).unwrap();
        assert_eq!(bin, bin2);
    }
}
